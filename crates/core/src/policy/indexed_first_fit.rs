//! Indexed First Fit: First Fit pinned to its fit-index query path.
//!
//! Historically this policy carried its own `d = 1` max-residual segment
//! tree and fell back to a linear scan for `d ≥ 2`. The engine now
//! maintains a generalized per-dimension fit index ([`FitIndex`]), so
//! the structure lives there and works in any dimension; this type
//! remains so that `PolicyKind::IndexedFirstFit`, CLI names, and
//! recorded traces keep resolving. It runs [`FirstFit::indexed`] — the
//! index descent at every open-bin count — so the conformance harness's
//! `IndexedFirstFit ≡ FirstFit` check covers the index path even on
//! instances that never reach the hybrid's crossover. Placement
//! decisions are identical to [`FirstFit`] by construction.
//!
//! [`FirstFit`]: super::first_fit::FirstFit
//! [`FirstFit::indexed`]: super::first_fit::FirstFit::indexed
//! [`FitIndex`]: crate::FitIndex

use super::first_fit::FirstFit;
use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use std::borrow::Cow;

/// First Fit on the fit-index path, under its historical name.
#[derive(Clone, Copy, Debug)]
pub struct IndexedFirstFit {
    inner: FirstFit,
}

impl IndexedFirstFit {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        IndexedFirstFit {
            inner: FirstFit::indexed(),
        }
    }
}

impl Default for IndexedFirstFit {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for IndexedFirstFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("IndexedFirstFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, item_idx: usize) -> Decision {
        self.inner.choose(view, item, item_idx)
    }

    fn after_pack(&mut self, item: &Item, item_idx: usize, bin: BinId, newly_opened: bool) {
        self.inner.after_pack(item, item_idx, bin, newly_opened);
    }

    fn wants_index(&self, open_bins: usize, dims: usize) -> bool {
        self.inner.wants_index(open_bins, dims)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pack;
    use crate::item::Instance;
    use crate::policy::first_fit::FirstFit;
    use dvbp_dimvec::DimVec;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn identical_to_first_fit_on_random_1d_instances() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(5..=120);
            let items: Vec<Item> = (0..n)
                .map(|_| {
                    let a = rng.random_range(0..60u64);
                    let dur = rng.random_range(1..=20u64);
                    Item::new(DimVec::scalar(rng.random_range(1..=10)), a, a + dur)
                })
                .collect();
            let inst = Instance::new(DimVec::scalar(10), items).unwrap();
            let fast = pack(&inst, &mut IndexedFirstFit::new());
            let slow = pack(&inst, &mut FirstFit::scanning());
            assert_eq!(fast.assignment, slow.assignment, "seed {seed}");
            fast.verify(&inst).unwrap();
            fast.verify_any_fit(&inst).unwrap();
        }
    }

    #[test]
    fn identical_to_first_fit_in_higher_dims() {
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<Item> = (0..60)
            .map(|_| {
                let a = rng.random_range(0..30u64);
                let dur = rng.random_range(1..=10u64);
                let size = DimVec::from_fn(3, |_| rng.random_range(1..=10));
                Item::new(size, a, a + dur)
            })
            .collect();
        let inst = Instance::new(DimVec::splat(3, 10), items).unwrap();
        let fast = pack(&inst, &mut IndexedFirstFit::new());
        let slow = pack(&inst, &mut FirstFit::scanning());
        assert_eq!(fast.assignment, slow.assignment);
    }

    #[test]
    fn reset_between_runs() {
        let items = vec![Item::new(DimVec::scalar(5), 0, 4)];
        let inst = Instance::new(DimVec::scalar(10), items).unwrap();
        let mut policy = IndexedFirstFit::new();
        let a = pack(&inst, &mut policy);
        let b = pack(&inst, &mut policy);
        assert_eq!(a, b);
    }
}
