//! Last Fit: pack into the *latest*-opened open bin that fits (§7).
//!
//! The mirror image of First Fit, included in the paper's experimental
//! study. No competitive-ratio bound is claimed for it.
//!
//! Selection is the same hybrid as First Fit's: below the measured
//! per-`d` crossover the engine's slot-compacted residual mirror is
//! block-scanned for the highest feasible id; above it, the
//! [`FitIndex`] right-first descent (rightmost feasible leaf) answers in
//! O(log m) expected time. [`LastFit::scanning`] pins the block scan,
//! [`LastFit::indexed`] the index, and [`LastFit::scanning_scalar`] the
//! reverse per-bin scalar loop.
//!
//! [`FitIndex`]: crate::FitIndex

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::hybrid::Path;
use crate::item::Item;
use std::borrow::Cow;

/// The Last Fit policy. Stateless.
#[derive(Clone, Copy, Debug)]
pub struct LastFit {
    path: Path,
}

impl Default for LastFit {
    fn default() -> Self {
        Self::new()
    }
}

impl LastFit {
    /// Creates a Last Fit policy on the hybrid path: block-scans below
    /// the measured per-`d` crossover, indexed O(log m) query
    /// above it.
    #[must_use]
    pub fn new() -> Self {
        LastFit { path: Path::Hybrid }
    }

    /// Creates the always-scanning variant (vectorized block kernel,
    /// highest feasible id) — placement-identical to [`LastFit::new`].
    #[must_use]
    pub fn scanning() -> Self {
        LastFit { path: Path::Scan }
    }

    /// Creates the scalar reverse-scan variant — placement-identical to
    /// [`LastFit::scanning`], O(m·d) per arrival. The before-side of
    /// the `simd`-vs-`scalar` throughput ablation.
    #[must_use]
    pub fn scanning_scalar() -> Self {
        LastFit { path: Path::Scalar }
    }

    /// Creates the always-indexed variant (fit-index descent regardless
    /// of `m`) — placement-identical to [`LastFit::new`]. Used by the
    /// crossover calibration bench to time the pure index path.
    #[must_use]
    pub fn indexed() -> Self {
        LastFit { path: Path::Index }
    }
}

impl Policy for LastFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("LastFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        if !self.path.uses_index(view.open_bins().len(), view.dim()) {
            return match view.scan_last_fit(&item.size, self.path == Path::Scalar) {
                Some(bin) => Decision::Existing(bin),
                None => Decision::OpenNew,
            };
        }
        match view.index().last_fit(item.size.as_slice()) {
            Some(b) => {
                let bin = BinId(b);
                view.probe_known_feasible(bin);
                debug_assert!(view.fits(bin, &item.size));
                Decision::Existing(bin)
            }
            None => Decision::OpenNew,
        }
    }

    fn after_pack(&mut self, _item: &Item, _item_idx: usize, _bin: BinId, _newly_opened: bool) {}

    fn wants_index(&self, open_bins: usize, dims: usize) -> bool {
        self.path.uses_index(open_bins, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pack;
    use crate::item::Instance;
    use dvbp_dimvec::DimVec;

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    #[test]
    fn prefers_latest_opened_bin() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut LastFit::new());
        assert_eq!(p.assignment[2], BinId(1));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn falls_back_to_earlier_bins() {
        // Latest bin is full; must fall back to B0, not open a new bin.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[10], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut LastFit::new());
        assert_eq!(p.assignment[2], BinId(0));
        assert_eq!(p.num_bins(), 2);
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn scanning_variant_is_placement_identical() {
        let inst = Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[6, 2], 0, 9),
                item(&[2, 6], 1, 9),
                item(&[4, 4], 2, 5),
                item(&[3, 3], 3, 7),
                item(&[8, 8], 6, 12),
            ],
        )
        .unwrap();
        // The pinned index path: the hybrid would scan a case this small.
        let indexed = pack(&inst, &mut LastFit::indexed());
        let scanned = pack(&inst, &mut LastFit::scanning());
        assert_eq!(indexed, scanned);
    }
}
