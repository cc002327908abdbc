//! The event order an online DVBP algorithm observes.
//!
//! §2.1 of the paper: items arrive online and must be dispatched
//! immediately; departures are only revealed when they happen
//! (non-clairvoyant). With half-open active intervals `[a, e)`, an item
//! departing at tick `t` frees its capacity *before* any item arriving at
//! tick `t` is dispatched. Among simultaneous arrivals, the input-sequence
//! order is authoritative — the adversarial constructions of §6 release
//! many items "at time 0" in a specific order and their analyses depend on
//! it.

use crate::{Interval, Time};
use serde::{Deserialize, Serialize};

/// One observable event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// Item `item` (an index into the instance's item list) departs at
    /// `time`. Processed before any arrival at the same tick.
    Departure {
        /// Tick at which the item's half-open interval ends.
        time: Time,
        /// Index of the departing item.
        item: usize,
    },
    /// Item `item` arrives at `time` and must be dispatched now.
    Arrival {
        /// Tick at which the item arrives.
        time: Time,
        /// Index of the arriving item.
        item: usize,
    },
}

impl Event {
    /// The tick at which the event fires.
    #[must_use]
    pub fn time(&self) -> Time {
        match self {
            Event::Departure { time, .. } | Event::Arrival { time, .. } => *time,
        }
    }

    /// `true` for arrivals.
    #[must_use]
    pub fn is_arrival(&self) -> bool {
        matches!(self, Event::Arrival { .. })
    }
}

/// Bit 63 of a packed event key: set for arrivals.
const ARRIVAL_BIT: u128 = 1 << 63;

/// The item bits of a packed event key.
const ITEM_MASK: u64 = (1 << 63) - 1;

/// Packs `(time, is_arrival, item)` into a `u128` whose integer order
/// is the tuple's lexicographic order.
fn event_key(time: Time, is_arrival: bool, item: usize) -> u128 {
    debug_assert!(item as u64 <= ITEM_MASK);
    (u128::from(time) << 64) | (u128::from(is_arrival) << 63) | item as u128
}

/// The full, ordered event sequence for a set of item intervals.
///
/// Ordering rules (ties broken left to right):
/// 1. earlier tick first;
/// 2. at equal ticks, departures before arrivals (half-open intervals);
/// 3. among equal-tick departures, item index order (immaterial to any
///    policy — departures commute — but fixed for determinism);
/// 4. among equal-tick arrivals, item index order (the input sequence).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineTimeline {
    events: Vec<Event>,
}

impl OnlineTimeline {
    /// Builds the timeline for items with the given active intervals.
    ///
    /// Zero-length intervals are rejected: an item that departs the instant
    /// it arrives is outside the model (§2.1 normalizes the minimum
    /// duration to 1).
    ///
    /// # Panics
    ///
    /// Panics if any interval is empty.
    #[must_use]
    pub fn build(intervals: &[Interval]) -> Self {
        // Sort key (time, is_arrival, item) packed into one u128:
        // Departure < Arrival at equal ticks because `false < true`.
        // Keys are unique, so an unstable sort gives the same order as a
        // stable one, without the stable sort's scratch buffer and on 16
        // bytes per event instead of 24.
        let mut keys = Vec::with_capacity(intervals.len() * 2);
        for (idx, iv) in intervals.iter().enumerate() {
            assert!(!iv.is_empty(), "item {idx} has an empty active interval");
            keys.push(event_key(iv.start, true, idx));
            keys.push(event_key(iv.end, false, idx));
        }
        keys.sort_unstable();
        let events = keys
            .into_iter()
            .map(|k| {
                #[allow(clippy::cast_possible_truncation)]
                let (time, item) = ((k >> 64) as Time, (k as u64 & ITEM_MASK) as usize);
                if k & ARRIVAL_BIT == 0 {
                    Event::Departure { time, item }
                } else {
                    Event::Arrival { time, item }
                }
            })
            .collect();
        OnlineTimeline { events }
    }

    /// The ordered events.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events (twice the number of items).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff there are no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in simulation order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a OnlineTimeline {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: Time, e: Time) -> Interval {
        Interval::new(a, e)
    }

    #[test]
    fn arrivals_in_input_order_at_same_tick() {
        let tl = OnlineTimeline::build(&[iv(0, 5), iv(0, 3), iv(0, 4)]);
        let arrivals: Vec<usize> = tl
            .iter()
            .filter_map(|e| match e {
                Event::Arrival { item, .. } => Some(*item),
                _ => None,
            })
            .collect();
        assert_eq!(arrivals, vec![0, 1, 2]);
    }

    #[test]
    fn departure_precedes_arrival_at_same_tick() {
        // Item 0 is active [0,5); item 1 arrives exactly at 5.
        let tl = OnlineTimeline::build(&[iv(0, 5), iv(5, 8)]);
        let at_5: Vec<&Event> = tl.iter().filter(|e| e.time() == 5).collect();
        assert_eq!(
            at_5,
            vec![
                &Event::Departure { time: 5, item: 0 },
                &Event::Arrival { time: 5, item: 1 },
            ]
        );
    }

    #[test]
    fn chronological_order_overall() {
        let tl = OnlineTimeline::build(&[iv(3, 9), iv(0, 4), iv(5, 6)]);
        let times: Vec<Time> = tl.iter().map(Event::time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(tl.len(), 6);
    }

    #[test]
    #[should_panic(expected = "empty active interval")]
    fn zero_duration_item_rejected() {
        let _ = OnlineTimeline::build(&[iv(4, 4)]);
    }

    #[test]
    fn empty_instance() {
        let tl = OnlineTimeline::build(&[]);
        assert!(tl.is_empty());
    }

    #[test]
    fn event_accessors() {
        let d = Event::Departure { time: 3, item: 1 };
        let a = Event::Arrival { time: 3, item: 2 };
        assert_eq!(d.time(), 3);
        assert!(!d.is_arrival());
        assert!(a.is_arrival());
    }
}
