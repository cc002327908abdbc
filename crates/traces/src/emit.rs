//! Trace **writers**: encode an arrival-sorted item stream in the Azure
//! and Google on-disk schemas.
//!
//! These close the loop for benchmarking and testing: a synthetic
//! workload written with [`write_azure_csv`] and re-read with
//! [`AzureSource`](crate::AzureSource) reproduces the exact same event
//! stream. That exactness is deliberate — times and fractions are
//! printed with Rust's shortest-roundtrip `{}` formatting, and the
//! quantization error of `tick/ticks_per_day · ticks_per_day` is far
//! below the parsers' `.round()` threshold.

use crate::synth::SynthItem;
use dvbp_dimvec::DimVec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Write};

/// Writes `items` (arrival-sorted) in the Azure packing-trace schema:
/// `vmId,starttime,endtime,<frac per dimension>` with fractional-day
/// timestamps. Returns the number of rows written.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
#[allow(clippy::cast_precision_loss)]
pub fn write_azure_csv(
    items: impl Iterator<Item = SynthItem>,
    capacity: &DimVec,
    ticks_per_day: u64,
    out: &mut impl Write,
) -> io::Result<u64> {
    let d = capacity.dim();
    out.write_all(b"vmId,starttime,endtime")?;
    for j in 0..d {
        write!(out, ",res{j}")?;
    }
    out.write_all(b"\n")?;
    let tpd = ticks_per_day.max(1) as f64;
    let mut rows = 0u64;
    for (i, (arrival, departure, size)) in items.enumerate() {
        let (start, end) = (arrival as f64 / tpd, departure as f64 / tpd);
        write!(out, "vm{i},{start},{end}")?;
        for j in 0..d {
            let frac = size.as_slice()[j] as f64 / capacity.as_slice()[j] as f64;
            write!(out, ",{frac}")?;
        }
        out.write_all(b"\n")?;
        rows += 1;
    }
    Ok(rows)
}

/// Writes `items` (arrival-sorted) in the Google `task_events` schema:
/// one `SCHEDULE` row per arrival, one `FINISH` row per departure, rows
/// sorted by timestamp (ticks = microseconds, verbatim). Job id is the
/// item index, task index 0. Returns the number of rows written.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
#[allow(clippy::cast_precision_loss)]
pub fn write_google_csv(
    items: impl Iterator<Item = SynthItem>,
    capacity: &DimVec,
    out: &mut impl Write,
) -> io::Result<u64> {
    assert_eq!(capacity.dim(), 2, "task_events is cpu+ram (2-d)");
    let mut rows = 0u64;
    // Pending FINISH rows: (departure, job id), merged into the
    // arrival-sorted item stream so output timestamps are sorted.
    let mut finishes: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let write_finish = |out: &mut dyn Write, time: u64, job: u64| -> io::Result<()> {
        writeln!(out, "{time},,{job},0,,4,synth,,,,,,")?;
        Ok(())
    };
    for (i, (arrival, departure, size)) in items.enumerate() {
        while let Some(&Reverse((t, job))) = finishes.peek() {
            if t > arrival {
                break;
            }
            finishes.pop();
            write_finish(out, t, job)?;
            rows += 1;
        }
        let job = i as u64;
        let cpu = size.as_slice()[0] as f64 / capacity.as_slice()[0] as f64;
        let ram = size.as_slice()[1] as f64 / capacity.as_slice()[1] as f64;
        writeln!(out, "{arrival},,{job},0,,1,synth,,,{cpu},{ram},,")?;
        rows += 1;
        finishes.push(Reverse((departure, job)));
    }
    while let Some(Reverse((t, job))) = finishes.pop() {
        write_finish(out, t, job)?;
        rows += 1;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::DirtyPolicy;
    use crate::synth::HeavyTail;
    use crate::{AzureSource, GoogleSource};
    use dvbp_core::{EventSource, LiveOp};
    use std::io::Cursor;

    fn stream(source: &mut impl EventSource) -> Vec<LiveOp> {
        let mut ops = Vec::new();
        while let Some(op) = source.next_event().unwrap() {
            ops.push(op);
        }
        ops
    }

    #[test]
    fn azure_write_then_parse_is_the_identity() {
        let gen = HeavyTail::new(300, DimVec::from_slice(&[64, 256]), 99);
        let direct = stream(&mut gen.source());

        let mut buf = Vec::new();
        let rows = write_azure_csv(gen.items(), &gen.capacity, 288, &mut buf).unwrap();
        assert_eq!(rows, 300);
        let mut parsed = AzureSource::new(
            Cursor::new(buf),
            Some(gen.capacity.clone()),
            288,
            DirtyPolicy::Reject,
        )
        .unwrap();
        assert_eq!(stream(&mut parsed), direct, "write→parse loses nothing");
        assert_eq!(parsed.stats().items, 300);
    }

    /// The writers' output as it was built before they wrote straight
    /// into `out`: one `format!` string per row and per field.
    #[allow(clippy::cast_precision_loss)]
    fn azure_by_format(gen: &HeavyTail, tpd: u64) -> Vec<u8> {
        let d = gen.capacity.dim();
        let mut header = String::from("vmId,starttime,endtime");
        for j in 0..d {
            header.push_str(&format!(",res{j}"));
        }
        let mut text = format!("{header}\n");
        for (i, (arrival, departure, size)) in gen.items().enumerate() {
            let (a, e) = (arrival as f64 / tpd as f64, departure as f64 / tpd as f64);
            let mut row = format!("vm{i},{a},{e}");
            for j in 0..d {
                let frac = size[j] as f64 / gen.capacity[j] as f64;
                row.push_str(&format!(",{frac}"));
            }
            text.push_str(&format!("{row}\n"));
        }
        text.into_bytes()
    }

    #[test]
    fn azure_writer_bytes_match_the_per_row_format() {
        for (cap, tpd) in [(vec![64, 256], 288), (vec![100, 7, 1000], 24)] {
            let gen = HeavyTail::new(500, DimVec::from_slice(&cap), 3);
            let mut buf = Vec::new();
            write_azure_csv(gen.items(), &gen.capacity, tpd, &mut buf).unwrap();
            assert_eq!(buf, azure_by_format(&gen, tpd), "capacity {cap:?}");
        }
    }

    #[test]
    fn google_writer_bytes_are_pinned() {
        let cap = DimVec::from_slice(&[100, 100]);
        let items = vec![
            (0, 7, DimVec::from_slice(&[25, 50])),
            (3, 5, DimVec::from_slice(&[100, 1])),
        ];
        let mut buf = Vec::new();
        write_google_csv(items.into_iter(), &cap, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "0,,0,0,,1,synth,,,0.25,0.5,,\n\
             3,,1,0,,1,synth,,,1,0.01,,\n\
             5,,1,0,,4,synth,,,,,,\n\
             7,,0,0,,4,synth,,,,,,\n"
        );
    }

    #[test]
    fn google_write_then_parse_is_the_identity() {
        let gen = HeavyTail::new(300, DimVec::from_slice(&[100, 100]), 5);
        let direct = stream(&mut gen.source());

        let mut buf = Vec::new();
        let rows = write_google_csv(gen.items(), &gen.capacity, &mut buf).unwrap();
        assert_eq!(rows, 600, "one SCHEDULE + one FINISH per item");
        let mut parsed = GoogleSource::new(
            Cursor::new(buf),
            Some(gen.capacity.clone()),
            DirtyPolicy::Reject,
        )
        .unwrap();
        assert_eq!(stream(&mut parsed), direct, "write→parse loses nothing");
    }
}
