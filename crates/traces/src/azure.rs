//! Streaming parser for the **Azure VM packing trace** schema.
//!
//! The public AzurePublicDataset packing traces ship as a CSV with one
//! row per VM request:
//!
//! ```csv
//! vmId,starttime,endtime,core,memory
//! vm1,0.000694,1.25,0.25,0.5
//! vm2,0.003472,,0.5,0.25
//! ```
//!
//! * `starttime`/`endtime` are **fractional days** since trace start; an
//!   empty `endtime` means the VM was still running when the trace was
//!   captured (closed at the stream horizon here).
//! * Resource columns are **fractions of one server** — every column
//!   after the first three is one dimension, so the same parser reads
//!   the 2-resource public schema and wider variants.
//! * Rows are sorted by `starttime` (the published traces are); the
//!   parser verifies this and, under [`DirtyPolicy::Clamp`], pulls
//!   stragglers forward instead of failing.
//!
//! Times are quantized to integer ticks via `ticks_per_day` (288 ≙ the
//! trace's native 5-minute granularity), fractions to integer units of
//! the bin capacity. Memory is O(active VMs): rows stream through the
//! `Pending` merger and are never collected.

use crate::ingest::{
    check_fraction, parse_fraction, scale_size, DirtyPolicy, IngestStats, LineReader, Pending,
};
use dvbp_core::{EventSource, LiveOp, SourceError};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use std::collections::hash_map::{Entry, HashMap};
use std::io::BufRead;

/// Default tick quantization: the Azure trace's native 5-minute slots.
pub const AZURE_TICKS_PER_DAY: u64 = 288;

/// Smallest id-table size that triggers a prune.
const MIN_PRUNE: usize = 64;

/// One parsed, repaired row, held as lookahead until its arrival emits.
struct Row {
    start: Time,
    /// `None` = open-ended.
    end: Option<Time>,
    size: DimVec,
}

/// Streaming [`EventSource`] over an Azure packing-trace CSV.
pub struct AzureSource<R> {
    lines: LineReader<R>,
    capacity: DimVec,
    ticks_per_day: u64,
    dirty: DirtyPolicy,
    pending: Pending,
    stats: IngestStats,
    /// Arrival clock: rows must not start before this tick.
    clock: Time,
    /// Admitted VM ids → departure tick (`Time::MAX` = open-ended). An
    /// id is running iff its departure is after the checked row's
    /// start; departed ids are forgotten in bulk by [`Self::forget`].
    /// Keyed with `RandomState`: the ids come from the file.
    ids: HashMap<String, Time>,
    /// `ids` size that triggers the next prune: twice the size after
    /// the last one, so memory stays O(running VMs) at amortized O(1)
    /// per row.
    prune_at: usize,
    /// Key buffers of forgotten ids, reused for new ones.
    spare_ids: Vec<String>,
    lookahead: Option<Row>,
    eof: bool,
}

impl<R: BufRead> AzureSource<R> {
    /// Opens an Azure-format stream.
    ///
    /// `capacity`: bin capacity the fractional demands are scaled to;
    /// `None` uses 100 units per resource column. The dimension count is
    /// taken from the first data row. `ticks_per_day` quantizes the
    /// fractional-day timestamps ([`AZURE_TICKS_PER_DAY`] matches the
    /// trace's native granularity).
    ///
    /// # Errors
    ///
    /// [`SourceError`] if the stream has no data rows, or the first row
    /// is malformed.
    pub fn new(
        reader: R,
        capacity: Option<DimVec>,
        ticks_per_day: u64,
        dirty: DirtyPolicy,
    ) -> Result<Self, SourceError> {
        let mut source = AzureSource {
            lines: LineReader::new(reader),
            capacity: DimVec::scalar(0), // replaced below
            ticks_per_day: ticks_per_day.max(1),
            dirty,
            pending: Pending::default(),
            stats: IngestStats::default(),
            clock: 0,
            ids: HashMap::new(),
            prune_at: MIN_PRUNE,
            spare_ids: Vec::new(),
            lookahead: None,
            eof: false,
        };
        // Peek the first data row to learn the dimension count, then
        // parse it for real against the resolved capacity.
        let Some(starttime) = source.next_data_line()? else {
            return Err(SourceError::new("azure trace has no data rows"));
        };
        let (fields, line_no) = (source.lines.len(), source.lines.line_no());
        if fields < 4 {
            return Err(SourceError::at_line(
                line_no,
                format!("expected vmId,starttime,endtime,resources... (got {fields} fields)"),
            ));
        }
        let d = fields - 3;
        source.capacity = match capacity {
            Some(cap) if cap.dim() == d => cap,
            Some(cap) => {
                return Err(SourceError::at_line(
                    line_no,
                    format!(
                        "capacity has {} dimensions but the trace has {d} resource columns",
                        cap.dim()
                    ),
                ));
            }
            None => DimVec::splat(d, 100),
        };
        source.lookahead = source.parse_row(starttime)?;
        Ok(source)
    }

    /// Ingest statistics so far (final once the stream is exhausted).
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Advances to the next data line, skipping header lines (any line
    /// whose starttime column is not numeric), or returns `None` at end
    /// of input. The header check's parse is the row's starttime:
    /// `Some(None)` is a line too short to have that column.
    fn next_data_line(&mut self) -> Result<Option<Option<f64>>, SourceError> {
        while self.lines.next_line()? {
            if self.lines.len() < 2 {
                return Ok(Some(None));
            }
            if let Ok(starttime) = self.lines.field(1).parse::<f64>() {
                return Ok(Some(Some(starttime)));
            }
        }
        Ok(None)
    }

    /// Parses the current data line into a repaired [`Row`];
    /// `starttime` is its already-parsed starttime column. `Ok(None)`
    /// means the row was dropped (duplicate id under Clamp).
    fn parse_row(&mut self, starttime: Option<f64>) -> Result<Option<Row>, SourceError> {
        let d = self.capacity.dim();
        let line_no = self.lines.line_no();
        if self.lines.len() != d + 3 {
            return Err(SourceError::at_line(
                line_no,
                format!("expected {} fields, got {}", d + 3, self.lines.len()),
            ));
        }
        let starttime = starttime.expect("a line with d + 3 >= 4 fields has a starttime");
        self.stats.rows += 1;

        let ticks = |days: f64| to_ticks(days, self.ticks_per_day);
        let mut start = ticks(check_fraction(
            starttime,
            self.lines.field(1),
            line_no,
            "starttime",
        )?);
        if start < self.clock {
            match self.dirty {
                DirtyPolicy::Reject => {
                    return Err(SourceError::at_line(
                        line_no,
                        format!(
                            "starttime goes backwards (tick {start} after tick {})",
                            self.clock
                        ),
                    ));
                }
                DirtyPolicy::Clamp => {
                    self.stats.clamped_times += 1;
                    start = self.clock;
                }
            }
        }

        let end = if self.lines.field(2).is_empty() {
            None
        } else {
            let e = ticks(parse_fraction(self.lines.field(2), line_no, "endtime")?);
            if e <= start {
                match self.dirty {
                    DirtyPolicy::Reject => {
                        return Err(SourceError::at_line(
                            line_no,
                            format!("endtime (tick {e}) does not exceed starttime (tick {start})"),
                        ));
                    }
                    DirtyPolicy::Clamp => {
                        self.stats.clamped_durations += 1;
                        Some(start + 1)
                    }
                }
            } else {
                Some(e)
            }
        };

        // One hash per row: the id is copied into a recycled key buffer
        // and looked up once, for the duplicate check and the update.
        if self.ids.len() >= self.prune_at {
            self.forget(start);
        }
        let mut key = self.spare_ids.pop().unwrap_or_default();
        key.clear();
        key.push_str(self.lines.field(0));
        let slot = match self.ids.entry(key) {
            Entry::Occupied(running) if *running.get() > start => match self.dirty {
                DirtyPolicy::Reject => {
                    return Err(SourceError::at_line(
                        line_no,
                        format!(
                            "vmId {:?} duplicates a VM that is still running",
                            running.key()
                        ),
                    ));
                }
                DirtyPolicy::Clamp => {
                    self.stats.dropped_duplicates += 1;
                    // A dropped row leaves the clock behind, so a later
                    // row may start before it; the ids this row has seen
                    // depart must stay departed for that row too.
                    if start > self.clock {
                        self.forget(start);
                    }
                    return Ok(None);
                }
            },
            slot => slot,
        };

        let mut size = DimVec::zeros(d);
        for j in 0..d {
            let frac = parse_fraction(self.lines.field(3 + j), line_no, "resource demand")?;
            size.as_mut_slice()[j] = scale_size(
                frac,
                self.capacity.as_slice()[j],
                self.dirty,
                line_no,
                &mut self.stats.clamped_sizes,
            )?;
        }

        let until = end.unwrap_or(Time::MAX);
        *slot.or_insert(until) = until;
        self.clock = start;
        Ok(Some(Row { start, end, size }))
    }

    /// Drops every id that departed by `now`, keeping the key buffers
    /// for reuse, and doubles the next prune's threshold from here.
    fn forget(&mut self, now: Time) {
        let mut running =
            HashMap::with_capacity_and_hasher(self.ids.capacity(), self.ids.hasher().clone());
        for (id, until) in self.ids.drain() {
            if until > now {
                running.insert(id, until);
            } else {
                self.spare_ids.push(id);
            }
        }
        self.ids = running;
        self.prune_at = 2 * self.ids.len().max(MIN_PRUNE);
    }

    /// Refills the lookahead row, skipping dropped rows.
    fn fill_lookahead(&mut self) -> Result<(), SourceError> {
        while self.lookahead.is_none() && !self.eof {
            match self.next_data_line()? {
                None => self.eof = true,
                Some(starttime) => self.lookahead = self.parse_row(starttime)?,
            }
        }
        Ok(())
    }
}

/// Quantizes a fractional-day timestamp to ticks.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
fn to_ticks(days: f64, ticks_per_day: u64) -> Time {
    (days * ticks_per_day as f64).round() as Time
}

impl<R: BufRead> EventSource for AzureSource<R> {
    fn capacity(&self) -> &DimVec {
        &self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        self.fill_lookahead()?;
        if let Some(row) = &self.lookahead {
            // Departures due at or before the next arrival go first —
            // that is exactly the engine's canonical order.
            if let Some(op) = self.pending.next_ready(Some(row.start)) {
                return Ok(Some(op));
            }
            let Some(row) = self.lookahead.take() else {
                unreachable!()
            };
            let item = self.pending.admit(row.start, row.end);
            self.stats.items += 1;
            return Ok(Some(LiveOp::Arrive {
                item,
                size: row.size,
                time: row.start,
            }));
        }
        // End of file: drain remaining departures, then horizon-close
        // open-ended VMs.
        match self.pending.drain() {
            Some((op, at_horizon)) => {
                if at_horizon {
                    self.stats.closed_at_horizon += 1;
                }
                Ok(Some(op))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn open(
        text: &str,
        cap: Option<DimVec>,
        tpd: u64,
        dirty: DirtyPolicy,
    ) -> Result<AzureSource<Cursor<&[u8]>>, SourceError> {
        AzureSource::new(Cursor::new(text.as_bytes()), cap, tpd, dirty)
    }

    fn collect(source: &mut impl EventSource) -> Vec<LiveOp> {
        let mut ops = Vec::new();
        while let Some(op) = source.next_event().unwrap() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn parses_the_documented_schema() {
        // ticks_per_day = 4: starttimes 0.0, 0.25, 0.5 → ticks 0, 1, 2.
        let text = "vmId,starttime,endtime,core,memory\n\
                    vm1,0.0,0.5,0.25,0.5\n\
                    vm2,0.25,0.75,0.5,0.25\n\
                    vm3,0.5,1.0,1.0,1.0\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        assert_eq!(s.capacity().as_slice(), &[100, 100]);
        let ops = collect(&mut s);
        assert_eq!(
            ops,
            vec![
                LiveOp::Arrive {
                    item: 0,
                    size: DimVec::from_slice(&[25, 50]),
                    time: 0
                },
                LiveOp::Arrive {
                    item: 1,
                    size: DimVec::from_slice(&[50, 25]),
                    time: 1
                },
                // vm1's tick-2 departure precedes vm3's tick-2 arrival.
                LiveOp::Depart { item: 0, time: 2 },
                LiveOp::Arrive {
                    item: 2,
                    size: DimVec::from_slice(&[100, 100]),
                    time: 2
                },
                LiveOp::Depart { item: 1, time: 3 },
                LiveOp::Depart { item: 2, time: 4 },
            ]
        );
        let st = s.stats();
        assert_eq!((st.rows, st.items), (3, 3));
        assert_eq!(st.closed_at_horizon, 0);
    }

    #[test]
    fn open_ended_vms_close_at_the_horizon() {
        let text = "vm1,0.0,,0.5,0.5\nvm2,0.25,0.5,0.25,0.25\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        let ops = collect(&mut s);
        // Last event is vm2's tick-2 departure; horizon = tick 3.
        assert_eq!(*ops.last().unwrap(), LiveOp::Depart { item: 0, time: 3 });
        assert_eq!(s.stats().closed_at_horizon, 1);
    }

    #[test]
    fn dirty_rows_reject_by_default_and_mend_under_clamp() {
        // Zero duration, backwards start + oversized demand, duplicate id.
        let text = "vm1,0.5,0.5,0.25,0.25\n\
                    vm2,0.25,2.5,1.5,0.25\n\
                    vm1,0.5,0.75,0.25,0.25\n";
        assert!(open(text, None, 4, DirtyPolicy::Reject).is_err());
        let mut s = open(text, None, 4, DirtyPolicy::Clamp).unwrap();
        let ops = collect(&mut s);
        let st = s.stats();
        assert_eq!(st.clamped_durations, 1, "vm1 row 1 gets a one-tick stay");
        assert_eq!(st.clamped_times, 1, "row 2 pulled forward to tick 2");
        assert_eq!(st.clamped_sizes, 1, "1.5 cores saturates at capacity");
        assert_eq!(st.dropped_duplicates, 1, "third row duplicates live vm1");
        assert_eq!(st.items, 2);
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, LiveOp::Arrive { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn duplicate_id_is_fine_once_the_first_instance_departed() {
        let text = "vm1,0.0,0.25,0.25,0.25\nvm1,0.25,0.5,0.25,0.25\n";
        let mut s = open(text, None, 4, DirtyPolicy::Reject).unwrap();
        assert_eq!(
            collect(&mut s)
                .iter()
                .filter(|op| matches!(op, LiveOp::Arrive { .. }))
                .count(),
            2
        );
        assert_eq!(s.stats().dropped_duplicates, 0);
    }

    #[test]
    fn a_dropped_row_ahead_of_the_clock_still_retires_departed_ids() {
        // The dropped vm2 row (tick 4) outlasts vm1 (departs at tick 2);
        // vm1's id is free again for a later row that starts at tick 1.
        let text = "vm1,0.0,0.5,0.25,0.25\n\
                    vm2,0.0,5.0,0.25,0.25\n\
                    vm2,1.0,2.0,0.25,0.25\n\
                    vm1,0.25,1.0,0.25,0.25\n";
        let mut s = open(text, None, 4, DirtyPolicy::Clamp).unwrap();
        collect(&mut s);
        assert_eq!((s.stats().items, s.stats().dropped_duplicates), (3, 1));
    }

    #[test]
    fn the_id_table_stays_bounded_by_running_vms() {
        // 200k unique short-lived ids (at most 4 VMs running at once,
        // `keep` included) must not grow the table past 2·max(4, 64).
        let rows = 200_000u64;
        let mut text = String::from("keep,0,,0.1\nback,0,1,0.1\n");
        for i in 1..=rows {
            text.push_str(&format!("u{i},{i},{},0.1\n", i + 1 + i % 3));
        }
        // `keep` never departed; `back` departed at tick 1 long ago.
        let next = rows + 1;
        let tail = format!("back,{rows},{next},0.1\nkeep,{rows},{next},0.1\n");
        let keep_line = rows + 4;
        text.push_str(&tail);

        let mut s = open(&text, None, 1, DirtyPolicy::Clamp).unwrap();
        let mut peak = 0;
        while s.next_event().unwrap().is_some() {
            peak = peak.max(s.ids.len());
        }
        assert!(peak <= 2 * MIN_PRUNE, "id table peaked at {peak}");
        let st = s.stats();
        assert_eq!(st.items, rows + 3, "the reused `back` id is admitted");
        assert_eq!(st.dropped_duplicates, 1, "the running `keep` id is not");

        let mut s = open(&text, None, 1, DirtyPolicy::Reject).unwrap();
        let err = loop {
            match s.next_event() {
                Err(e) => break e,
                Ok(op) => assert!(op.is_some(), "the `keep` duplicate must fail"),
            }
        };
        assert_eq!(
            err.to_string(),
            format!("line {keep_line}: vmId \"keep\" duplicates a VM that is still running")
        );
    }

    #[test]
    fn capacity_dimension_mismatch_is_reported() {
        let text = "vm1,0.0,0.5,0.25,0.25\n";
        let err = open(text, Some(DimVec::scalar(64)), 4, DirtyPolicy::Reject)
            .err()
            .expect("1-d capacity against 2 resource columns");
        assert!(err.to_string().contains("resource columns"), "{err}");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(open(
            "vmId,starttime,endtime,core\n",
            None,
            4,
            DirtyPolicy::Reject
        )
        .is_err());
    }
}
