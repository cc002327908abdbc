//! Best Fit: pack into the most-loaded open bin that fits (§2.2).
//!
//! The load of a bin in `d ≥ 2` dimensions is scalarized by a
//! [`LoadMeasure`]; the paper's experiments use `L∞`. Best Fit's CR is
//! **unbounded** even for `d = 1` (Thm 7, citing Li–Tang–Cai), yet its
//! average-case performance in §7 is nearly as good as First Fit's —
//! the paper's "theory vs practice" discussion.
//!
//! Candidates come from the engine's vectorized block scan over its
//! slot-compacted residual mirror, visited in ascending bin id so ties
//! resolve to the earliest bin; blocks whose per-dimension maxima cannot
//! hold the item are skipped without reading their lanes.
//! [`BestFit::scanning_scalar`] pins the per-bin scalar loop for
//! differential tests and the throughput ablation.

use super::{Decision, LoadKey, LoadMeasure, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;
use std::cmp::Ordering;

/// The Best Fit policy with a configurable load measure.
#[derive(Clone, Copy, Debug)]
pub struct BestFit {
    measure: LoadMeasure,
    scalar: bool,
}

impl BestFit {
    /// Creates a Best Fit policy using `measure` to rank bins, on the
    /// vectorized block scan.
    #[must_use]
    pub fn new(measure: LoadMeasure) -> Self {
        BestFit {
            measure,
            scalar: false,
        }
    }

    /// Creates the scalar per-bin scan variant — placement-identical to
    /// [`BestFit::new`], O(m·d) per arrival. The before-side of the
    /// `simd`-vs-`scalar` throughput ablation.
    #[must_use]
    pub fn scanning_scalar(measure: LoadMeasure) -> Self {
        BestFit {
            measure,
            scalar: true,
        }
    }

    /// The configured load measure.
    #[must_use]
    pub fn measure(&self) -> LoadMeasure {
        self.measure
    }
}

impl Policy for BestFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("BestFit[{}]", self.measure))
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        let cap = view.capacity().as_slice();
        let measure = self.measure;
        // Each candidate's measure is evaluated once into a key; the
        // incumbent's key rides along. Strictly-greater keeps the
        // earliest-opened bin on ties; candidates arrive in ascending
        // bin id.
        let mut best: Option<(BinId, LoadKey)> = None;
        view.scan_feasible(&item.size, self.scalar, |b| {
            let key = measure.key(view.load(b), cap);
            best = Some(match best {
                Some((cur, cur_key)) if key.compare(&cur_key) != Ordering::Greater => {
                    (cur, cur_key)
                }
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
    fn prefers_most_loaded_feasible_bin() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[4], 0, 9), item(&[7], 1, 9), item(&[3], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut BestFit::new(LoadMeasure::Linf));
        // B1 (load 7) is fuller than B0 (load 4); 7+3=10 fits.
        assert_eq!(p.assignment[2], BinId(1));
        p.verify(&inst).unwrap();
        p.verify_any_fit(&inst).unwrap();
    }

    #[test]
    fn overflows_to_less_loaded_bin() {
        let inst = Instance::new(
            DimVec::scalar(10),
            vec![item(&[4], 0, 9), item(&[7], 1, 9), item(&[4], 2, 5)],
        )
        .unwrap();
        let p = pack(&inst, &mut BestFit::new(LoadMeasure::Linf));
        // 7+4 > 10, so the most-loaded feasible bin is B0.
        assert_eq!(p.assignment[2], BinId(0));
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
        let p = pack(&inst, &mut BestFit::new(LoadMeasure::Linf));
        assert_eq!(p.assignment[2], BinId(0));
    }

    #[test]
    fn measure_changes_choice_in_2d() {
        // B0 load (8,0): Linf=0.8, L1=0.8. B1 load (5,5): Linf=0.5, L1=1.0.
        // Item (1,1) fits both. Linf-Best Fit picks B0; L1-Best Fit picks B1.
        let items = vec![
            item(&[8, 0], 0, 9),
            item(&[5, 5], 1, 9),
            item(&[1, 1], 2, 5),
        ];
        let inst = Instance::new(DimVec::from_slice(&[10, 10]), items).unwrap();
        let p_linf = pack(&inst, &mut BestFit::new(LoadMeasure::Linf));
        assert_eq!(p_linf.assignment[2], BinId(0));
        let p_l1 = pack(&inst, &mut BestFit::new(LoadMeasure::L1));
        assert_eq!(p_l1.assignment[2], BinId(1));
    }

    #[test]
    fn item_zero_dim_two_forces_open() {
        // Nothing fits: a new bin opens even under Best Fit.
        let inst =
            Instance::new(DimVec::scalar(10), vec![item(&[9], 0, 9), item(&[9], 1, 9)]).unwrap();
        let p = pack(&inst, &mut BestFit::new(LoadMeasure::Linf));
        assert_eq!(p.num_bins(), 2);
    }

    #[test]
    fn scalar_variant_is_placement_identical() {
        let inst = Instance::new(
            DimVec::from_slice(&[10, 10]),
            vec![
                item(&[8, 0], 0, 9),
                item(&[5, 5], 1, 9),
                item(&[1, 1], 2, 5),
                item(&[2, 2], 3, 6),
                item(&[9, 9], 7, 12),
            ],
        )
        .unwrap();
        for m in [
            LoadMeasure::Linf,
            LoadMeasure::L1,
            LoadMeasure::L2,
            LoadMeasure::Lp(4),
        ] {
            let scalar = pack(&inst, &mut BestFit::scanning_scalar(m));
            let block = pack(&inst, &mut BestFit::new(m));
            assert_eq!(scalar, block, "{m}");
        }
    }
}
