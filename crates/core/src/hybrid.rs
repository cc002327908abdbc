//! The scan-vs-index decision for First Fit and Last Fit.
//!
//! [`use_index`] compares the open-bin count against a per-dimension
//! crossover, a pure function of cheap engine state, so every replay
//! (batch, live, stream, WAL recovery) decides identically. Below the
//! crossover the policies block-scan the engine's residual mirror; above
//! it they descend the [`FitIndex`](crate::FitIndex). Best Fit, Worst
//! Fit and Random Fit always scan: they rank or sample *every* feasible
//! bin, so tree pruning saves them little.
//!
//! Crossover methodology: the `calibrate_hybrid` bench (in `dvbp-bench`)
//! times First and Last Fit's pure block-scan path against their pure
//! fit-index path on uniform workloads, sweeping `μ` (and so the
//! steady-state open-bin count `m`) at `d ∈ {1..5, 8..12, 16}`, on two
//! stream shapes: `dense` (`n = 4μ`) and `sparse` (`n = 20μ`, the
//! `pack-dense` benchmark's long-stream shape, where a run opens 20–35×
//! more bins than are ever open at once). Each point alternates the two
//! paths over 7 rounds and reports the median of the index's per-round
//! speedup; at 187 of 242 points the rounds' interquartile range is
//! within 10% of that median.
//!
//! The table groups `d` into bands. Per band, the crossover is the lower
//! edge of the lowest power-of-two `m` bucket from which the geometric
//! mean of the index's speedups, over the band's four series (two
//! shapes × two policies), exceeds 1 in that bucket and in every
//! measured bucket above it. On a 2-core AVX2 x86-64 VM
//! (`results/calibrate_hybrid.txt`):
//!
//! * `d = 1`: 1.14× in `[256, 512)`, 2.0× at `m ≥ 1024` → 256;
//! * `d = 2`: 1.02× in `[1024, 2048)` (1.16× and 1.00× dense at
//!   `m ≈ 1,800`, 0.96× and 0.98× sparse at `m ≈ 1,100`) → 1024;
//! * `3 ≤ d ≤ 8`: the scan wins every bucket; in the largest
//!   (`m ≈ 2,000–2,500`) the index runs at 0.86× (0.74–0.97× per d)
//!   → never;
//! * `9 ≤ d ≤ 12`: 1.08× in `[2048, 4096)`, where the index won 5 of 8
//!   points (1.04–1.42×) and lost 3 (0.86–0.95×, both of d = 12's);
//!   0.86× in `[1024, 2048)` → 2048;
//! * `d = 16` (used for `d ≥ 13`): 1.01× in `[512, 1024)`, 1.25–1.44×
//!   above → 512.
//!
//! Before the residual mirror was slot-compacted, the scan walked the
//! open-bin id *span*, which on long streams is 7–14× `m`, and a
//! sparse-span fallback then dropped most arrivals to the scalar loop.
//! The old table's index wins at `m ≈ 60–256` came from that fallback,
//! not from the scan itself. Near each boundary the two paths are
//! placement-identical and within a few percent of each other, so a
//! misestimate costs little.

/// Open-bin count at which the indexed path overtakes the block scan
/// for dimensionality `dims`; `usize::MAX` where the scan always wins.
#[must_use]
pub(crate) fn index_crossover(dims: usize) -> usize {
    match dims {
        0..=1 => 256,
        2 => 1024,
        3..=8 => usize::MAX,
        9..=12 => 2048,
        _ => 512,
    }
}

/// `true` iff an arrival with `open_bins` open bins in `dims` dimensions
/// should use the [`FitIndex`](crate::FitIndex) rather than a scan.
#[must_use]
pub(crate) fn use_index(open_bins: usize, dims: usize) -> bool {
    open_bins >= index_crossover(dims)
}

/// The selection path a First or Last Fit policy takes. All four are
/// placement-identical; the pinned ones exist for differential tests,
/// the crossover calibration and the throughput ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Path {
    /// The block scan below the crossover, the fit index above it.
    Hybrid,
    /// Always the block scan.
    Scan,
    /// Always the scalar per-bin loop.
    Scalar,
    /// Always the fit index.
    Index,
}

impl Path {
    /// `true` iff an arrival with `open_bins` open bins in `dims`
    /// dimensions takes the fit index on this path.
    #[must_use]
    pub(crate) fn uses_index(self, open_bins: usize, dims: usize) -> bool {
        match self {
            Path::Hybrid => use_index(open_bins, dims),
            Path::Index => true,
            Path::Scan | Path::Scalar => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_only_band_never_latches_the_index() {
        for d in 3..=8 {
            assert!(!use_index(usize::MAX - 1, d), "d={d}");
        }
    }

    #[test]
    fn crossover_never_drops_below_the_old_scalar_latch() {
        // The pre-kernel hybrid latched at 64 open bins; a vectorized
        // scan is strictly faster than the scalar one, so the measured
        // break-even can only sit at or above that latch.
        for d in 1..=16 {
            assert!(index_crossover(d) >= 64, "d={d}");
        }
    }

    #[test]
    fn use_index_boundary_is_exact() {
        for d in [1, 2, 9, 12, 13, 16] {
            let c = index_crossover(d);
            assert!(!use_index(c - 1, d));
            assert!(use_index(c, d));
        }
    }
}
