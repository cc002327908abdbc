//! A faithful copy of the *seed* engine's packing loop, kept as the
//! "before" twin for `BENCH_throughput.json`.
//!
//! The optimized engine in `dvbp-core` replaced this loop wholesale (flat
//! SoA load arena, reusable allocations, block-scanned residual mirror,
//! optional trace). To keep before/after numbers honest and reproducible
//! on the same machine, this module preserves the seed's per-arrival cost
//! profile exactly:
//!
//! * array-of-structs bin state with a heap-backed [`DimVec`] load per bin
//!   and a per-bin `Vec<usize>` item list, all allocated fresh each run;
//! * the decision trace always recorded (the seed had no cost-only mode);
//! * O(m·d) scanning bin selection over all open bins, with Best/Worst
//!   Fit re-deriving the incumbent's measure on every comparison — the
//!   seed's pairwise `cmp_loads` tournament.
//!
//! Placements are identical to the optimized engine's (the seed *is* the
//! conformance reference behavior), which `tests/seed_twin.rs` checks; the
//! bench artifact additionally records each run's cost so divergence would
//! show up as a cost mismatch across variants of the same grid point.

use dvbp_core::{Instance, Item, LoadMeasure};
use dvbp_dimvec::DimVec;
use dvbp_sim::timeline::{Event, OnlineTimeline};
use dvbp_sim::{Cost, Time};
use std::cmp::Ordering;

/// Seed-engine bin selection rules (the scanning Any-Fit family).
#[derive(Clone, Copy, Debug)]
pub enum SeedSelect {
    /// Lowest-id open bin that fits.
    FirstFit,
    /// Most-loaded open bin that fits under the measure.
    BestFit(LoadMeasure),
    /// Least-loaded open bin that fits under the measure.
    WorstFit(LoadMeasure),
    /// Highest-id open bin that fits.
    LastFit,
}

struct BinState {
    load: DimVec,
    active: usize,
    opened: Time,
    closed: Option<Time>,
    items: Vec<usize>,
}

/// The outputs the throughput bench records per run.
#[derive(Debug)]
pub struct SeedRun {
    /// MinUsageTime objective: total bin usage time.
    pub cost: Cost,
    /// High-water mark of simultaneously open bins.
    pub max_concurrent_bins: usize,
    /// `assignment[i]` = bin index of item `i`.
    pub assignment: Vec<usize>,
}

fn fits(state: &BinState, size: &DimVec, cap: &DimVec) -> bool {
    state.load.fits_with(size, cap)
}

/// Seed scanning selection: returns the chosen open bin, if any fits.
fn choose(
    bins: &[BinState],
    open: &[usize],
    size: &DimVec,
    cap: &DimVec,
    select: SeedSelect,
) -> Option<usize> {
    match select {
        SeedSelect::FirstFit => open.iter().copied().find(|&b| fits(&bins[b], size, cap)),
        SeedSelect::LastFit => open
            .iter()
            .rev()
            .copied()
            .find(|&b| fits(&bins[b], size, cap)),
        SeedSelect::BestFit(m) => tournament(bins, open, size, cap, m, Ordering::Greater),
        SeedSelect::WorstFit(m) => tournament(bins, open, size, cap, m, Ordering::Less),
    }
}

/// The seed's pairwise tournament: `cmp_loads` re-derives both operands'
/// measures on every comparison (no key caching).
fn tournament(
    bins: &[BinState],
    open: &[usize],
    size: &DimVec,
    cap: &DimVec,
    measure: LoadMeasure,
    want: Ordering,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for &b in open {
        if !fits(&bins[b], size, cap) {
            continue;
        }
        best = Some(match best {
            None => b,
            Some(cur) => {
                let ord = measure.cmp_loads(
                    bins[b].load.as_slice(),
                    bins[cur].load.as_slice(),
                    cap.as_slice(),
                );
                if ord == want {
                    b
                } else {
                    cur
                }
            }
        });
    }
    best
}

/// Runs the seed packing loop over `instance`.
///
/// # Panics
///
/// Panics if the instance is invalid (same contract as the seed `pack`).
#[must_use]
pub fn pack_seed(instance: &Instance, select: SeedSelect) -> SeedRun {
    instance.validate().expect("invalid instance");
    let cap = &instance.capacity;

    let timeline = OnlineTimeline::build(&instance.intervals());
    let mut bins: Vec<BinState> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut assignment: Vec<Option<usize>> = vec![None; instance.len()];
    // The seed recorded a full trace unconditionally; a (time, bin, kind)
    // tuple preserves that per-event push.
    let mut trace: Vec<(Time, usize, bool)> = Vec::with_capacity(instance.len() * 2);
    let mut open_now = 0usize;
    let mut max_open = 0usize;

    for ev in timeline.events() {
        match *ev {
            Event::Departure { time, item } => {
                let bin = assignment[item].expect("departure before arrival");
                let state = &mut bins[bin];
                state.load.sub_assign(&instance.items[item].size);
                state.active -= 1;
                if state.active == 0 {
                    state.closed = Some(time);
                    let idx = open.binary_search(&bin).expect("closing a non-open bin");
                    open.remove(idx);
                    trace.push((time, bin, false));
                    open_now -= 1;
                }
            }
            Event::Arrival { time, item } => {
                let item_ref: &Item = &instance.items[item];
                let bin = match choose(&bins, &open, &item_ref.size, cap, select) {
                    Some(b) => b,
                    None => {
                        let b = bins.len();
                        bins.push(BinState {
                            load: DimVec::zeros(instance.dim()),
                            active: 0,
                            opened: time,
                            closed: None,
                            items: Vec::new(),
                        });
                        open.push(b);
                        open_now += 1;
                        max_open = max_open.max(open_now);
                        b
                    }
                };
                let state = &mut bins[bin];
                state.load.add_assign(&item_ref.size);
                state.active += 1;
                state.items.push(item);
                assignment[item] = Some(bin);
                trace.push((time, bin, true));
            }
        }
    }

    let cost = bins
        .iter()
        .map(|b| Cost::from(b.closed.expect("bin never closed") - b.opened))
        .sum();
    std::hint::black_box(&trace);
    SeedRun {
        cost,
        max_concurrent_bins: max_open,
        assignment: assignment
            .into_iter()
            .map(|b| b.expect("item never arrived"))
            .collect(),
    }
}
