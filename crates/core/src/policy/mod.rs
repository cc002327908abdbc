//! Bin-selection policies: the Any Fit family of §2.2 plus extensions.
//!
//! A policy owns the candidate list `L` of Algorithm 1 and decides, for
//! each arriving item, whether to pack into an existing open bin or open a
//! new one. The engine owns ground truth and verifies feasibility of every
//! choice; the policy only ranks candidates.
//!
//! Paper policies:
//!
//! * [`MoveToFront`](move_to_front::MoveToFront) — most-recently-used open
//!   bin that fits (§2.2); the paper's recommended algorithm.
//! * [`FirstFit`](first_fit::FirstFit) — earliest-opened open bin that fits.
//! * [`NextFit`](next_fit::NextFit) — single *current* bin; opening a new
//!   bin releases the old one forever.
//! * [`BestFit`](best_fit::BestFit) — most-loaded open bin that fits, for a
//!   configurable [`LoadMeasure`] (§2.2 lists `L∞`, `L1`, `Lp`).
//! * [`WorstFit`](worst_fit::WorstFit) — least-loaded open bin that fits (§7).
//! * [`LastFit`](last_fit::LastFit) — latest-opened open bin that fits (§7).
//! * [`RandomFit`](random_fit::RandomFit) — uniformly random feasible open
//!   bin (§7).
//!
//! Extensions (paper §8 future work):
//!
//! * [`DurationClassFirstFit`](clairvoyant::DurationClassFirstFit) — a
//!   clairvoyant policy that segregates bins by geometric duration class.

pub mod aligned_fit;
pub mod best_fit;
pub mod clairvoyant;
pub mod first_fit;
pub mod last_fit;
pub mod move_to_front;
pub mod next_fit;
pub mod random_fit;
pub mod worst_fit;

mod measure;

pub use measure::{LoadKey, LoadMeasure};

use crate::bin::BinId;
use crate::engine::EngineView;
use crate::item::Item;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A policy's verdict for an arriving item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Pack into this open bin (must be feasible; the engine asserts it).
    Existing(BinId),
    /// Open a fresh bin for the item.
    OpenNew,
}

/// A bin-selection policy driven by the engine.
///
/// Implementations must be deterministic functions of their own state and
/// the observed event sequence (Random Fit owns a seeded RNG, so it too is
/// reproducible).
pub trait Policy: Send {
    /// Human-readable policy name (stable across runs; used in reports).
    fn name(&self) -> Cow<'static, str>;

    /// Chooses a bin for item `item_idx` (an index into the instance).
    ///
    /// Non-clairvoyant policies must not read `item.departure`; the
    /// clairvoyant extension reads `item.announced_duration`.
    fn choose(&mut self, view: &EngineView<'_>, item: &Item, item_idx: usize) -> Decision;

    /// Notification that the item was packed (after loads are updated).
    fn after_pack(&mut self, item: &Item, item_idx: usize, bin: BinId, newly_opened: bool);

    /// Notification that `item` departed from `bin` (after loads are
    /// updated, before any resulting `on_close`). Default: ignored —
    /// only policies that maintain derived load indices need it.
    fn on_departure(&mut self, _item: &Item, _item_idx: usize, _bin: BinId) {}

    /// Notification that `bin` became empty and closed permanently.
    fn on_close(&mut self, _bin: BinId) {}

    /// Clears all run state; called by the engine before each run.
    fn reset(&mut self) {}

    /// Adoption mid-run: the policy takes over an engine whose open bins
    /// are `open_bins` (ascending id = opening order). Called instead of
    /// [`reset`](Policy::reset) when a live engine switches policies at a
    /// bin-close boundary ([`crate::LiveEngine::switch_policy`]).
    ///
    /// The default clears run state via `reset` — correct for stateless
    /// scans (First Fit, Best/Worst/Last Fit) whose decisions derive
    /// only from the view. Stateful policies override it to seed their
    /// internal order from the open set **deterministically**, so WAL
    /// replay of a switch reproduces the same subsequent decisions.
    fn on_adopt(&mut self, _open_bins: &[BinId]) {
        self.reset();
    }
}

/// Value-level policy descriptor: buildable, serializable, hashable.
///
/// Experiments describe their algorithm suite as `Vec<PolicyKind>` and
/// build fresh policy instances per run/thread via [`PolicyKind::build`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Move To Front (§2.2).
    MoveToFront,
    /// First Fit (§2.2).
    FirstFit,
    /// Next Fit (§2.2).
    NextFit,
    /// Best Fit with the given load measure (§2.2; the paper's experiments
    /// use `L∞`).
    BestFit(LoadMeasure),
    /// Worst Fit with the given load measure (§7).
    WorstFit(LoadMeasure),
    /// Last Fit (§7).
    LastFit,
    /// Random Fit with its RNG seed (§7).
    RandomFit {
        /// Seed for the policy's private RNG.
        seed: u64,
    },
    /// Clairvoyant duration-class First Fit (extension; paper §8).
    DurationClassFirstFit,
    /// Clairvoyant departure-aligned Any Fit (extension; §7's alignment
    /// notion made into a policy).
    AlignedFit,
}

impl PolicyKind {
    /// Builds a fresh policy instance.
    #[must_use]
    pub fn build(&self) -> Box<dyn Policy> {
        match *self {
            PolicyKind::MoveToFront => Box::new(move_to_front::MoveToFront::new()),
            PolicyKind::FirstFit => Box::new(first_fit::FirstFit::new()),
            PolicyKind::NextFit => Box::new(next_fit::NextFit::new()),
            PolicyKind::BestFit(m) => Box::new(best_fit::BestFit::new(m)),
            PolicyKind::WorstFit(m) => Box::new(worst_fit::WorstFit::new(m)),
            PolicyKind::LastFit => Box::new(last_fit::LastFit::new()),
            PolicyKind::RandomFit { seed } => Box::new(random_fit::RandomFit::new(seed)),
            PolicyKind::DurationClassFirstFit => {
                Box::new(clairvoyant::DurationClassFirstFit::new())
            }
            PolicyKind::AlignedFit => Box::new(aligned_fit::AlignedFit::new()),
        }
    }

    /// Stable display name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            PolicyKind::MoveToFront => "MoveToFront".into(),
            PolicyKind::FirstFit => "FirstFit".into(),
            PolicyKind::NextFit => "NextFit".into(),
            PolicyKind::BestFit(m) => format!("BestFit[{m}]"),
            PolicyKind::WorstFit(m) => format!("WorstFit[{m}]"),
            PolicyKind::LastFit => "LastFit".into(),
            PolicyKind::RandomFit { .. } => "RandomFit".into(),
            PolicyKind::DurationClassFirstFit => "DurationClassFF".into(),
            PolicyKind::AlignedFit => "AlignedFit".into(),
        }
    }

    /// Round-trippable spelling: like [`name`](PolicyKind::name), but
    /// `RandomFit` carries its seed (`RandomFit:7`), so
    /// `spec().parse::<PolicyKind>()` reproduces the kind exactly —
    /// the spelling journaled in `PolicySwitch` WAL events.
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            PolicyKind::RandomFit { seed } => format!("RandomFit:{seed}"),
            other => other.name(),
        }
    }

    /// The seven-algorithm suite of the paper's experimental study (§7):
    /// Move To Front, First Fit, Best Fit(`L∞`), Next Fit, Last Fit,
    /// Random Fit, Worst Fit.
    #[must_use]
    pub fn paper_suite(random_fit_seed: u64) -> Vec<PolicyKind> {
        vec![
            PolicyKind::MoveToFront,
            PolicyKind::FirstFit,
            PolicyKind::BestFit(LoadMeasure::Linf),
            PolicyKind::NextFit,
            PolicyKind::LastFit,
            PolicyKind::RandomFit {
                seed: random_fit_seed,
            },
            PolicyKind::WorstFit(LoadMeasure::Linf),
        ]
    }

    /// `true` iff the policy's candidate list is *all* open bins, i.e. the
    /// Any Fit property can be checked against the full open set
    /// ([`crate::Packing::verify_any_fit`]). Next Fit (single-candidate
    /// list) and the clairvoyant extension (class-restricted list) are
    /// excluded.
    #[must_use]
    pub fn is_full_candidate_any_fit(&self) -> bool {
        !matches!(
            self,
            PolicyKind::NextFit | PolicyKind::DurationClassFirstFit
        )
    }
}

/// Error parsing a [`PolicyKind`] from its display name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy '{}'; expected one of MoveToFront, FirstFit, NextFit, \
             BestFit[Linf|L1|L2|L<p>], WorstFit[...], LastFit, RandomFit[:seed], \
             DurationClassFF, AlignedFit",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl std::str::FromStr for PolicyKind {
    type Err = ParsePolicyError;

    /// Parses the display-name syntax produced by [`PolicyKind::name`],
    /// plus `RandomFit:<seed>` for explicit seeding (bare `RandomFit`
    /// seeds with 0).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn measure(s: &str) -> Option<LoadMeasure> {
            match s {
                "Linf" => Some(LoadMeasure::Linf),
                "L1" => Some(LoadMeasure::L1),
                "L2" => Some(LoadMeasure::L2),
                _ => s
                    .strip_prefix('L')
                    .and_then(|p| p.parse().ok())
                    .map(LoadMeasure::Lp),
            }
        }
        let bracketed = |prefix: &str| -> Option<&str> {
            s.strip_prefix(prefix)?.strip_prefix('[')?.strip_suffix(']')
        };
        match s {
            "MoveToFront" => return Ok(PolicyKind::MoveToFront),
            "FirstFit" => return Ok(PolicyKind::FirstFit),
            "NextFit" => return Ok(PolicyKind::NextFit),
            "LastFit" => return Ok(PolicyKind::LastFit),
            "BestFit" => return Ok(PolicyKind::BestFit(LoadMeasure::Linf)),
            "WorstFit" => return Ok(PolicyKind::WorstFit(LoadMeasure::Linf)),
            "RandomFit" => return Ok(PolicyKind::RandomFit { seed: 0 }),
            "DurationClassFF" => return Ok(PolicyKind::DurationClassFirstFit),
            "AlignedFit" => return Ok(PolicyKind::AlignedFit),
            _ => {}
        }
        if let Some(m) = bracketed("BestFit").and_then(measure) {
            return Ok(PolicyKind::BestFit(m));
        }
        if let Some(m) = bracketed("WorstFit").and_then(measure) {
            return Ok(PolicyKind::WorstFit(m));
        }
        if let Some(seed) = s
            .strip_prefix("RandomFit:")
            .and_then(|v| v.parse::<u64>().ok())
        {
            return Ok(PolicyKind::RandomFit { seed });
        }
        Err(ParsePolicyError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_seven_algorithms() {
        let suite = PolicyKind::paper_suite(1);
        assert_eq!(suite.len(), 7);
        let names: Vec<String> = suite.iter().map(PolicyKind::name).collect();
        assert!(names.contains(&"MoveToFront".to_string()));
        assert!(names.contains(&"BestFit[Linf]".to_string()));
    }

    #[test]
    fn build_names_match_kind_names() {
        for kind in PolicyKind::paper_suite(42) {
            let built = kind.build();
            assert_eq!(built.name(), kind.name(), "{kind:?}");
        }
    }

    #[test]
    fn parse_round_trips_names() {
        use std::str::FromStr;
        for kind in PolicyKind::paper_suite(0) {
            let parsed = PolicyKind::from_str(&kind.name()).unwrap();
            assert_eq!(parsed.name(), kind.name());
        }
        assert_eq!(
            PolicyKind::from_str("BestFit[L4]").unwrap(),
            PolicyKind::BestFit(LoadMeasure::Lp(4))
        );
        assert_eq!(
            PolicyKind::from_str("RandomFit:99").unwrap(),
            PolicyKind::RandomFit { seed: 99 }
        );
        assert_eq!(
            PolicyKind::from_str("AlignedFit").unwrap(),
            PolicyKind::AlignedFit
        );
        assert!(PolicyKind::from_str("NoSuchFit").is_err());
        assert!(PolicyKind::from_str("BestFit[Lx]").is_err());
        let err = PolicyKind::from_str("zzz").unwrap_err().to_string();
        assert!(err.contains("zzz"));
    }

    #[test]
    fn spec_round_trips_every_kind_exactly() {
        use std::str::FromStr;
        let mut kinds = PolicyKind::paper_suite(99);
        kinds.extend([
            PolicyKind::DurationClassFirstFit,
            PolicyKind::AlignedFit,
            PolicyKind::BestFit(LoadMeasure::Lp(4)),
        ]);
        for kind in kinds {
            let parsed = PolicyKind::from_str(&kind.spec()).unwrap();
            assert_eq!(parsed, kind, "spec {} must round-trip", kind.spec());
        }
    }

    #[test]
    fn any_fit_classification() {
        assert!(PolicyKind::MoveToFront.is_full_candidate_any_fit());
        assert!(PolicyKind::FirstFit.is_full_candidate_any_fit());
        assert!(!PolicyKind::NextFit.is_full_candidate_any_fit());
        assert!(!PolicyKind::DurationClassFirstFit.is_full_candidate_any_fit());
    }
}
