//! Random Fit: pack into a uniformly random feasible open bin (§7).
//!
//! The policy is an Any Fit algorithm: it opens a new bin only when *no*
//! open bin can hold the item, and otherwise chooses uniformly at random
//! among the feasible open bins. It carries its own seeded RNG, so runs
//! are reproducible and independent of the workload generator's stream.

use super::{Decision, Policy};
use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;

/// The Random Fit policy.
#[derive(Debug)]
pub struct RandomFit {
    seed: u64,
    rng: StdRng,
    /// Scratch buffer of feasible candidates, reused across arrivals.
    candidates: Vec<BinId>,
    scalar: bool,
}

impl RandomFit {
    /// Creates a Random Fit policy with a private RNG seeded by `seed`.
    /// Candidates come from the engine's vectorized block scan.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomFit {
            seed,
            rng: StdRng::seed_from_u64(seed),
            candidates: Vec::new(),
            scalar: false,
        }
    }

    /// Creates the scalar per-bin scan variant — placement-identical to
    /// [`RandomFit::new`] with the same seed, O(m·d) per arrival.
    #[must_use]
    pub fn scanning_scalar(seed: u64) -> Self {
        RandomFit {
            scalar: true,
            ..Self::new(seed)
        }
    }
}

impl Policy for RandomFit {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("RandomFit")
    }

    fn choose(&mut self, view: &EngineView<'_>, item: &Item, _item_idx: usize) -> Decision {
        self.candidates.clear();
        // Candidates arrive in ascending bin id on both the block and
        // the scalar scan, so RNG draws land on the same bins whichever
        // path ran.
        let candidates = &mut self.candidates;
        view.scan_feasible(&item.size, self.scalar, |b| candidates.push(b));
        match self.candidates.len() {
            0 => Decision::OpenNew,
            1 => Decision::Existing(self.candidates[0]),
            n => Decision::Existing(self.candidates[self.rng.random_range(0..n)]),
        }
    }

    fn after_pack(&mut self, _item: &Item, _item_idx: usize, _bin: BinId, _newly_opened: bool) {}

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.candidates.clear();
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

    fn three_bin_instance() -> Instance {
        Instance::new(
            DimVec::scalar(10),
            vec![
                item(&[6], 0, 9),
                item(&[6], 1, 9),
                item(&[6], 2, 9),
                item(&[2], 3, 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn respects_any_fit_property() {
        let inst = three_bin_instance();
        for seed in 0..20 {
            let p = pack(&inst, &mut RandomFit::new(seed));
            assert_eq!(p.num_bins(), 3, "seed {seed}");
            p.verify(&inst).unwrap();
            p.verify_any_fit(&inst).unwrap();
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = three_bin_instance();
        let a = pack(&inst, &mut RandomFit::new(7));
        let b = pack(&inst, &mut RandomFit::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn reset_restores_stream() {
        let inst = three_bin_instance();
        let mut policy = RandomFit::new(7);
        let a = pack(&inst, &mut policy);
        let b = pack(&inst, &mut policy); // engine resets the policy
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_can_differ() {
        // Over many seeds, item 3's bin must not be constant (it has three
        // equally feasible choices).
        let inst = three_bin_instance();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..40 {
            let p = pack(&inst, &mut RandomFit::new(seed));
            seen.insert(p.assignment[3]);
        }
        assert!(seen.len() > 1, "randomization never varied the choice");
    }
}
