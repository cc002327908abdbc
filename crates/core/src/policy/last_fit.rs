//! Last Fit: pack into the *latest*-opened open bin that fits (§7).
//!
//! The mirror image of First Fit, included in the paper's experimental
//! study. No competitive-ratio bound is claimed for it.
//!
//! Selection block-scans the engine's slot-compacted residual mirror
//! from the highest slot down, skipping every block whose per-dimension
//! maxima cannot hold the item. [`LastFit::scanning_scalar`] pins the
//! reverse per-bin scalar loop; both produce identical placements.

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// The Last Fit policy. Stateless.
#[derive(Clone, Copy, Debug, Default)]
pub struct LastFit {
    scalar: bool,
}

impl LastFit {
    /// Creates a Last Fit policy on the vectorized block scan.
    #[must_use]
    pub fn new() -> Self {
        LastFit { scalar: false }
    }

    /// Creates the scalar reverse-scan variant — placement-identical to
    /// [`LastFit::new`], O(m·d) per arrival.
    #[must_use]
    pub fn scanning_scalar() -> Self {
        LastFit { scalar: true }
    }
}

impl Policy for LastFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("LastFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        match view.scan_last_fit(&item.size, self.scalar) {
            Some(bin) => Decision::Existing(bin),
            None => Decision::OpenNew,
        }
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
    fn scalar_variant_is_placement_identical() {
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
        let scalar = pack(&inst, &mut LastFit::scanning_scalar());
        let scanned = pack(&inst, &mut LastFit::new());
        assert_eq!(scalar, scanned);
    }
}
