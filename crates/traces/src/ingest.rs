//! Shared ingestion machinery: the dirty-trace policy knob, ingest
//! statistics, the line reader every parser reads through, and the
//! constant-memory departure merger every source in this crate is
//! built on.
//!
//! # The line reader
//!
//! [`LineReader`] owns the one line buffer and the one field table a
//! parser ever uses: a row costs no heap allocation once both have
//! grown to the widest line. It strips a BOM from line 1, skips blank
//! and `#` lines, counts lines, and splits on commas with each field
//! trimmed as `str::trim` would — bytewise for ASCII whitespace, via
//! `str::trim` only when a field starts or ends in a non-ASCII byte.
//!
//! # The merger
//!
//! Trace rows carry *items* (arrival + maybe departure), but the engine
//! consumes *events* in canonical order — departures before arrivals at
//! equal ticks. [`Pending`] performs that merge with O(active) memory:
//! known departures wait in a min-heap, open-ended items (a VM still
//! running when the trace was captured) in a side table that is flushed
//! one tick past the end of the stream. As long as the row feed is
//! arrival-sorted — which every supported trace format promises, and the
//! parsers verify — the emitted event stream is canonical.

use dvbp_core::{ItemIndexMap, LiveOp, SourceError};
use dvbp_sim::Time;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::BufRead;
use std::ops::Range;

/// How a parser treats rows a well-formed trace would not contain.
///
/// Real cluster traces are messy: zero-duration items, duplicate ids,
/// timestamps that jump backwards, empty resource columns. `Reject`
/// surfaces the first such row as a typed error — the right default for
/// conformance work. `Clamp` repairs what has an obvious minimal repair
/// (and counts every repair in [`IngestStats`]), which is what replaying
/// a multi-million-row public trace needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirtyPolicy {
    /// Fail on the first dirty row.
    #[default]
    Reject,
    /// Repair dirty rows: departures at/before their arrival get the
    /// minimum one-tick stay, backwards timestamps are pulled forward,
    /// zero sizes become one unit, oversized demands saturate at the
    /// capacity, and duplicate-id rows are dropped. Every repair is
    /// counted.
    Clamp,
}

impl std::str::FromStr for DirtyPolicy {
    type Err = String;

    /// Parses `reject` or `clamp` (CLI spelling).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "reject" => Ok(DirtyPolicy::Reject),
            "clamp" => Ok(DirtyPolicy::Clamp),
            _ => Err(format!(
                "unknown dirty policy {s:?} (expected reject or clamp)"
            )),
        }
    }
}

/// Counters describing one ingestion pass. All clamp/drop/skip counters
/// stay zero under [`DirtyPolicy::Reject`] (the first dirty row errors
/// instead).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Data rows read (excluding headers, blanks, comments).
    pub rows: u64,
    /// Items admitted (arrivals emitted).
    pub items: u64,
    /// Departures clamped to the minimum one-tick stay.
    pub clamped_durations: u64,
    /// Backwards timestamps pulled forward to the stream clock.
    pub clamped_times: u64,
    /// Sizes repaired (zero → one unit, oversized → capacity).
    pub clamped_sizes: u64,
    /// Rows dropped because their id duplicates an active item.
    pub dropped_duplicates: u64,
    /// Rows skipped as no-ops (e.g. lifecycle events for tasks that
    /// were never scheduled — routine in the Google trace).
    pub skipped_rows: u64,
    /// Items still active at end of trace, closed at the horizon tick.
    pub closed_at_horizon: u64,
}

/// The constant-memory departure merger (see the [module docs](self)).
///
/// Item indices are assigned densely, in arrival-emission order — so
/// every source built on `Pending` yields index `k` for its `k`-th
/// arrival, which keeps the engine's per-item ledger exactly
/// items-seen long.
#[derive(Default)]
pub(crate) struct Pending {
    /// Known departures, keyed `(tick, item)` — popping ascending gives
    /// both the time order and the within-tick index order.
    heap: BinaryHeap<Reverse<(Time, usize)>>,
    /// Open-ended items (no departure yet): item → arrival tick.
    open: ItemIndexMap<Time>,
    next_index: usize,
    /// Time of the latest emitted or admitted event.
    now: Time,
    /// End-of-stream flush of `open`, sorted by item index, all at
    /// `horizon`.
    drain_open: Option<std::vec::IntoIter<usize>>,
    horizon: Time,
}

impl Pending {
    /// Departures due at or before `upcoming` (all of them, when
    /// `None`), earliest first.
    pub(crate) fn next_ready(&mut self, upcoming: Option<Time>) -> Option<LiveOp> {
        let &Reverse((time, item)) = self.heap.peek()?;
        if upcoming.is_some_and(|u| time > u) {
            return None;
        }
        self.heap.pop();
        self.now = self.now.max(time);
        Some(LiveOp::Depart { item, time })
    }

    /// Admits an item arriving at `time`, returning its dense index.
    /// A `Some` departure goes to the heap; `None` marks the item
    /// open-ended (flushed at the horizon, or resolved later via
    /// [`resolve`](Self::resolve)).
    pub(crate) fn admit(&mut self, time: Time, departure: Option<Time>) -> usize {
        let item = self.next_index;
        self.next_index += 1;
        match departure {
            Some(e) => {
                debug_assert!(e > time, "parsers clamp or reject non-positive durations");
                self.heap.push(Reverse((e, item)));
            }
            None => {
                self.open.insert(item, time);
            }
        }
        self.now = self.now.max(time);
        item
    }

    /// Resolves an open-ended item's departure to `time` (already
    /// clamped by the caller to be strictly after its arrival).
    pub(crate) fn resolve(&mut self, item: usize, time: Time) {
        let removed = self.open.remove(&item);
        debug_assert!(removed.is_some(), "resolve of a non-open item");
        self.heap.push(Reverse((time, item)));
    }

    /// Arrival tick of an open-ended item.
    pub(crate) fn arrival_of(&self, item: usize) -> Option<Time> {
        self.open.get(&item).copied()
    }

    /// End-of-stream drain: remaining heap departures, then every
    /// still-open item at one tick past the stream's last event (the
    /// *horizon*). Returns `true` in the second slot for horizon
    /// closures so callers can count them.
    pub(crate) fn drain(&mut self) -> Option<(LiveOp, bool)> {
        if let Some(op) = self.next_ready(None) {
            return Some((op, false));
        }
        if self.drain_open.is_none() {
            if self.open.is_empty() {
                return None;
            }
            let mut items: Vec<usize> = self.open.keys().copied().collect();
            items.sort_unstable();
            self.horizon = self.now + 1;
            self.drain_open = Some(items.into_iter());
        }
        let item = self.drain_open.as_mut()?.next()?;
        self.open.remove(&item);
        Some((
            LiveOp::Depart {
                item,
                time: self.horizon,
            },
            true,
        ))
    }
}

/// A comma-separated line source over a [`BufRead`], reusing one line
/// buffer and one field table for the whole stream (see the
/// [module docs](self)). The traces this crate ingests never quote
/// fields, so a plain comma split is exact.
pub(crate) struct LineReader<R> {
    reader: R,
    buf: String,
    /// Byte ranges of the current line's trimmed fields in `buf`.
    fields: Vec<Range<usize>>,
    line_no: u64,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        LineReader {
            reader,
            buf: String::new(),
            fields: Vec::new(),
            line_no: 0,
        }
    }

    /// Advances to the next line that is neither blank nor a `#`
    /// comment and splits it; `false` at end of input.
    ///
    /// # Errors
    ///
    /// [`SourceError`] when reading fails, invalid UTF-8 included.
    pub(crate) fn next_line(&mut self) -> Result<bool, SourceError> {
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_line(&mut self.buf)
                .map_err(|e| SourceError::new(format!("read failed: {e}")))?;
            if n == 0 {
                return Ok(false);
            }
            self.line_no += 1;
            // First line only: strip a UTF-8 BOM so header detection and
            // the first field survive files saved by Windows tools.
            let mut start = 0;
            if self.line_no == 1 {
                start = self.buf.len() - self.buf.trim_start_matches('\u{feff}').len();
            }
            let line = trim(&self.buf, start..self.buf.len());
            if line.is_empty() || self.buf.as_bytes()[line.start] == b'#' {
                continue;
            }
            self.fields.clear();
            let mut from = line.start;
            for field in self.buf.as_bytes()[line].split(|&b| b == b',') {
                self.fields.push(trim(&self.buf, from..from + field.len()));
                from += field.len() + 1;
            }
            return Ok(true);
        }
    }

    /// Physical number (1-based) of the current line.
    pub(crate) fn line_no(&self) -> u64 {
        self.line_no
    }

    /// Field count of the current line.
    pub(crate) fn len(&self) -> usize {
        self.fields.len()
    }

    /// The current line's `i`-th trimmed field.
    pub(crate) fn field(&self, i: usize) -> &str {
        &self.buf[self.fields[i].clone()]
    }
}

/// `s[r].trim()`, as a range of `s`: ASCII whitespace is stripped
/// bytewise, and only an end left on a non-ASCII byte (which may start
/// Unicode whitespace such as U+00A0) takes `str::trim`.
fn trim(s: &str, r: Range<usize>) -> Range<usize> {
    // Exactly the ASCII part of `char::is_whitespace`: `\t \n \x0B \x0C \r`
    // and space (`u8::is_ascii_whitespace` lacks `\x0B`).
    let space = |b: u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = s.as_bytes();
    let (mut lo, mut hi) = (r.start, r.end);
    while lo < hi && space(bytes[lo]) {
        lo += 1;
    }
    while hi > lo && space(bytes[hi - 1]) {
        hi -= 1;
    }
    if lo < hi && (!bytes[lo].is_ascii() || !bytes[hi - 1].is_ascii()) {
        let field = &s[lo..hi];
        let rest = field.trim_start();
        lo += field.len() - rest.len();
        hi = lo + rest.trim_end().len();
    }
    lo..hi
}

/// Parses a non-negative decimal (`12`, `0.5`, `1e-3`) field.
pub(crate) fn parse_fraction(field: &str, line: u64, what: &str) -> Result<f64, SourceError> {
    let v: f64 = field
        .parse()
        .map_err(|_| SourceError::at_line(line, format!("{what} {field:?} is not a number")))?;
    check_fraction(v, field, line, what)
}

/// The range half of [`parse_fraction`], for a `field` already parsed
/// to `v`.
pub(crate) fn check_fraction(
    v: f64,
    field: &str,
    line: u64,
    what: &str,
) -> Result<f64, SourceError> {
    if !v.is_finite() || v < 0.0 {
        return Err(SourceError::at_line(
            line,
            format!("{what} {field:?} is not a finite non-negative number"),
        ));
    }
    Ok(v)
}

/// Scales a fractional resource demand to integer units of `cap`,
/// repairing dirt per `policy`: a zero demand becomes one unit, an
/// oversized one saturates at the capacity (both only under `Clamp`).
pub(crate) fn scale_size(
    frac: f64,
    cap: u64,
    policy: DirtyPolicy,
    line: u64,
    clamped: &mut u64,
) -> Result<u64, SourceError> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let units = (frac * cap as f64).round() as u64;
    if units == 0 {
        return match policy {
            DirtyPolicy::Reject => Err(SourceError::at_line(
                line,
                format!("zero resource demand {frac}"),
            )),
            DirtyPolicy::Clamp => {
                *clamped += 1;
                Ok(1)
            }
        };
    }
    if units > cap {
        return match policy {
            DirtyPolicy::Reject => Err(SourceError::at_line(
                line,
                format!("resource demand {frac} exceeds the capacity"),
            )),
            DirtyPolicy::Clamp => {
                *clamped += 1;
                Ok(cap)
            }
        };
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merger_orders_departures_before_equal_tick_arrivals() {
        let mut p = Pending::default();
        let a = p.admit(0, Some(5));
        assert_eq!(a, 0);
        // Next arrival is at tick 5: the tick-5 departure comes first.
        assert_eq!(
            p.next_ready(Some(5)),
            Some(LiveOp::Depart { item: 0, time: 5 })
        );
        let b = p.admit(5, Some(7));
        assert_eq!(b, 1);
        assert_eq!(p.next_ready(Some(6)), None, "tick-7 departure not yet due");
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: 1, time: 7 }, false))
        );
        assert_eq!(p.drain(), None);
    }

    #[test]
    fn merger_flushes_open_ended_items_at_the_horizon() {
        let mut p = Pending::default();
        let a = p.admit(2, None);
        let b = p.admit(4, Some(9));
        let c = p.admit(5, None);
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: b, time: 9 }, false))
        );
        // Horizon = one past the last event (9), open items by index.
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: a, time: 10 }, true))
        );
        assert_eq!(
            p.drain(),
            Some((LiveOp::Depart { item: c, time: 10 }, true))
        );
        assert_eq!(p.drain(), None);
    }

    #[test]
    fn trim_agrees_with_str_trim_for_every_char() {
        let mut s = String::new();
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            for pattern in [[c, 'x', c], [c, c, c]] {
                s.clear();
                s.extend(pattern);
                assert_eq!(&s[trim(&s, 0..s.len())], s.trim(), "{:?}", c);
            }
        }
    }

    #[test]
    fn line_reader_splits_like_trimmed_str_split() {
        let text = "\u{feff} \u{feff}a , b\u{a0},\r\n\
                    \x0b\n\
                    \u{2003}# note, x\n\
                    \u{feff}c,\u{3000}d\u{3000} ,,e\n";
        let mut lines = LineReader::new(text.as_bytes());
        let mut got = Vec::new();
        while lines.next_line().unwrap() {
            let fields: Vec<&str> = (0..lines.len()).map(|i| lines.field(i)).collect();
            got.push((lines.line_no(), fields.join("|")));
        }
        assert_eq!(
            got,
            [
                (1, "\u{feff}a|b|".to_string()),
                (4, "\u{feff}c|d||e".to_string())
            ]
        );
    }

    #[test]
    fn scale_size_repairs_only_under_clamp() {
        let mut n = 0;
        assert_eq!(
            scale_size(0.5, 100, DirtyPolicy::Reject, 1, &mut n).unwrap(),
            50
        );
        assert!(scale_size(0.0, 100, DirtyPolicy::Reject, 1, &mut n).is_err());
        assert!(scale_size(1.5, 100, DirtyPolicy::Reject, 1, &mut n).is_err());
        assert_eq!(n, 0);
        assert_eq!(
            scale_size(0.0, 100, DirtyPolicy::Clamp, 1, &mut n).unwrap(),
            1
        );
        assert_eq!(
            scale_size(1.5, 100, DirtyPolicy::Clamp, 1, &mut n).unwrap(),
            100
        );
        assert_eq!(n, 2);
    }
}
