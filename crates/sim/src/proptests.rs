//! Property tests: interval sets, sweep-line, and step curves against
//! naive per-tick models.

use crate::loadcurve::StepCurve;
use crate::timeline::{Event, OnlineTimeline};
use crate::{sweep, Interval, IntervalSet};
use proptest::prelude::*;

const HORIZON: u64 = 60;

fn intervals() -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec(
        (0u64..HORIZON, 1u64..12).prop_map(|(a, len)| Interval::new(a, a + len)),
        0..20,
    )
}

/// Naive model: membership bit per tick.
fn tick_cover(ivs: &[Interval]) -> Vec<u32> {
    let mut cover = vec![0u32; (HORIZON + 16) as usize];
    for iv in ivs {
        for t in iv.start..iv.end {
            cover[t as usize] += 1;
        }
    }
    cover
}

proptest! {
    #[test]
    fn interval_set_span_matches_tick_model(ivs in intervals()) {
        let set = IntervalSet::from_intervals(ivs.iter().copied());
        let cover = tick_cover(&ivs);
        let expected = cover.iter().filter(|&&c| c > 0).count() as u128;
        prop_assert_eq!(set.span(), expected);
        // Segment invariants: sorted, disjoint, non-adjacent, non-empty.
        for w in set.segments().windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        for s in set.segments() {
            prop_assert!(!s.is_empty());
        }
        // contains() agrees with the model.
        for t in 0..HORIZON + 16 {
            prop_assert_eq!(set.contains(t), cover[t as usize] > 0, "t={}", t);
        }
    }

    #[test]
    fn sweep_visits_exactly_the_active_ticks(ivs in intervals()) {
        let cover = tick_cover(&ivs);
        let mut visited = vec![0u32; cover.len()];
        sweep::sweep(&ivs, |slice| {
            for t in slice.interval.start..slice.interval.end {
                visited[t as usize] += slice.active.len() as u32;
            }
        });
        prop_assert_eq!(visited, cover);
    }

    #[test]
    fn sweep_slices_are_disjoint_and_sorted(ivs in intervals()) {
        let mut prev_end = 0u64;
        let mut ok = true;
        sweep::sweep(&ivs, |slice| {
            if slice.interval.start < prev_end || slice.interval.is_empty() {
                ok = false;
            }
            prev_end = slice.interval.end;
        });
        prop_assert!(ok);
    }

    #[test]
    fn step_curve_matches_tick_model(ivs in intervals()) {
        let curve = StepCurve::count_of(&ivs);
        let cover = tick_cover(&ivs);
        for t in 0..HORIZON + 16 {
            prop_assert_eq!(curve.value_at(t), i64::from(cover[t as usize]), "t={}", t);
        }
        let total: i128 = cover.iter().map(|&c| i128::from(c)).sum();
        prop_assert_eq!(curve.integral(), total);
        prop_assert_eq!(curve.max(), i64::from(*cover.iter().max().unwrap()));
        let support = cover.iter().filter(|&&c| c > 0).count() as u128;
        prop_assert_eq!(curve.support_len(), support);
    }

    /// The packed-key unstable sort orders events exactly as a stable
    /// sort on the `(time, is_arrival, item)` tuple, on intervals drawn
    /// from a few ticks so most events tie on time.
    #[test]
    fn timeline_order_equals_stable_tuple_sort(
        ivs in prop::collection::vec(
            (0u64..4, 1u64..3).prop_map(|(a, len)| Interval::new(a, a + len)),
            0..80,
        )
    ) {
        let mut expect: Vec<Event> = ivs
            .iter()
            .enumerate()
            .flat_map(|(item, iv)| {
                [
                    Event::Arrival { time: iv.start, item },
                    Event::Departure { time: iv.end, item },
                ]
            })
            .collect();
        expect.sort_by_key(|e| {
            let item = match *e {
                Event::Departure { item, .. } | Event::Arrival { item, .. } => item,
            };
            (e.time(), e.is_arrival(), item)
        });
        prop_assert_eq!(OnlineTimeline::build(&ivs).events(), &expect[..]);
    }

    #[test]
    fn timeline_is_a_permutation_with_invariants(ivs in intervals()) {
        let tl = OnlineTimeline::build(&ivs);
        prop_assert_eq!(tl.len(), ivs.len() * 2);
        let mut active = vec![false; ivs.len()];
        let mut last_time = 0u64;
        for ev in tl.events() {
            prop_assert!(ev.time() >= last_time, "events out of order");
            last_time = ev.time();
            match *ev {
                Event::Arrival { item, time } => {
                    prop_assert!(!active[item]);
                    prop_assert_eq!(time, ivs[item].start);
                    active[item] = true;
                }
                Event::Departure { item, time } => {
                    prop_assert!(active[item]);
                    prop_assert_eq!(time, ivs[item].end);
                    active[item] = false;
                }
            }
        }
        prop_assert!(active.iter().all(|&a| !a), "every item departs");
    }
}
