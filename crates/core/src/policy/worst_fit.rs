//! Worst Fit: pack into the *least*-loaded open bin that fits (§7).
//!
//! Included in the paper's experimental study as the natural foil to Best
//! Fit; it spreads load thin and, as §7 observes, has the worst average
//! performance of the seven algorithms.
//!
//! Like [`BestFit`](super::best_fit::BestFit), candidates come from
//! the engine's vectorized block scan (ascending bin id, earliest bin on
//! ties); there is no fit-index path, because ranking every feasible bin
//! gains little from tree pruning. [`WorstFit::scanning_scalar`] pins
//! the per-bin scalar loop.

use super::{Decision, LoadKey, LoadMeasure, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;
use std::cmp::Ordering;

/// The Worst Fit policy with a configurable load measure.
#[derive(Clone, Copy, Debug)]
pub struct WorstFit {
    measure: LoadMeasure,
    scalar: bool,
}

impl WorstFit {
    /// Creates a Worst Fit policy using `measure` to rank bins, on the
    /// vectorized block scan.
    #[must_use]
    pub fn new(measure: LoadMeasure) -> Self {
        WorstFit {
            measure,
            scalar: false,
        }
    }

    /// Creates the scalar per-bin scan variant — placement-identical to
    /// [`WorstFit::new`], O(m·d) per arrival. The before-side of the
    /// `simd`-vs-`scalar` throughput ablation.
    #[must_use]
    pub fn scanning_scalar(measure: LoadMeasure) -> Self {
        WorstFit {
            measure,
            scalar: true,
        }
    }
}

impl Policy for WorstFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("WorstFit[{}]", self.measure))
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        let cap = view.capacity().as_slice();
        let measure = self.measure;
        // Each candidate's measure is evaluated once into a key; the
        // incumbent's key rides along. Strictly-less keeps the
        // earliest-opened bin on ties.
        let mut best: Option<(BinId, LoadKey)> = None;
        view.scan_feasible(&item.size, self.scalar, |b| {
            let key = measure.key(view.load(b), cap);
            best = Some(match best {
                Some((cur, cur_key)) if key.compare(&cur_key) != Ordering::Less => (cur, cur_key),
                _ => (b, key),
            });
        });
        best.map_or(Decision::OpenNew, |(b, key)| {
            view.note_score(key);
            Decision::Existing(b)
        })
    }

    fn after_pack(&mut self, _item: &Item, _item_idx: usize, _bin: BinId, _newly_opened: bool) {}
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
    fn prefers_least_loaded_feasible_bin() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[4], 0, 9), item(&[7], 1, 9), item(&[3], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut WorstFit::new(LoadMeasure::Linf));
        assert_eq!(p.assignment[2], BinId(0));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn still_respects_any_fit() {
        // Even Worst Fit never opens a bin while one fits.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[9], 0, 9), item(&[9], 1, 9), item(&[1], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut WorstFit::new(LoadMeasure::Linf));
        assert_eq!(p.num_bins(), 2);
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn tie_breaks_to_earliest_bin() {
        // Sizes 6 cannot share a bin, so two bins open with equal load 6.
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[2], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut WorstFit::new(LoadMeasure::Linf));
        assert_eq!(p.assignment[2], BinId(0));
    }

    #[test]
    fn scalar_variant_is_placement_identical() {
        let inst = Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[4, 1], 0, 9),
                item(&[7, 3], 1, 9),
                item(&[3, 3], 2, 5),
                item(&[1, 6], 3, 8),
                item(&[2, 2], 4, 6),
            ],
        )
        .unwrap();
        for m in [LoadMeasure::Linf, LoadMeasure::L1, LoadMeasure::L2] {
            let scalar = pack(&inst, &mut WorstFit::scanning_scalar(m));
            let block = pack(&inst, &mut WorstFit::new(m));
            assert_eq!(scalar, block, "{m}");
        }
    }
}
