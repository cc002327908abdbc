//! The parsers' shared line reader, held to its contract from outside:
//!
//! * cosmetic noise a trace file may carry — CRLF endings, a BOM, blank
//!   and `#` lines, space/tab/U+00A0 padding, a repeated Azure header —
//!   leaves the event stream exactly that of the items written;
//! * every rejection keeps its message and line number (golden table).

use dvbp_core::{EventSource, LiveOp};
use dvbp_dimvec::DimVec;
use dvbp_traces::{
    write_azure_csv, write_google_csv, AzureSource, DirtyPolicy, GoogleSource, HeavyTail,
    OpenOptions, TraceFormat,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Cursor;

fn drain(source: &mut impl EventSource) -> Vec<LiveOp> {
    let mut ops = Vec::new();
    while let Some(op) = source.next_event().unwrap() {
        ops.push(op);
    }
    ops
}

/// Rewrites a written trace with cosmetic noise drawn from `seed`: a
/// BOM, CRLF endings, blank and `#` lines, space/tab padding around
/// fields and lines, one U+00A0 pad around one field, and (when
/// `header` is given) that header repeated mid-file.
fn add_noise(text: &str, seed: u64, header: Option<&str>) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let eol = if rng.random_bool(0.5) { "\r\n" } else { "\n" };
    let lines: Vec<&str> = text.lines().collect();
    let nbsp_line = rng.random_range(0..lines.len());
    let pads = ["", "", " ", "\t", " \t "];
    let mut out = String::new();
    if rng.random_bool(0.5) {
        out.push('\u{feff}');
    }
    for (i, line) in lines.iter().enumerate() {
        if rng.random_bool(0.1) {
            out.push_str(pads[rng.random_range(0..pads.len())]);
            out.push_str(eol);
        }
        if rng.random_bool(0.1) {
            out.push_str(" # a comment, with a comma");
            out.push_str(eol);
        }
        if let Some(header) = header.filter(|_| i > 0 && rng.random_bool(0.05)) {
            out.push_str(header);
            out.push_str(eol);
        }
        let fields: Vec<&str> = line.split(',').collect();
        let nbsp_field = rng.random_range(0..fields.len());
        for (j, field) in fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let nbsp = i == nbsp_line && j == nbsp_field;
            let pad = |rng: &mut StdRng| {
                if nbsp {
                    "\u{a0}"
                } else {
                    pads[rng.random_range(0..pads.len())]
                }
            };
            out.push_str(pad(&mut rng));
            out.push_str(field);
            out.push_str(pad(&mut rng));
        }
        out.push_str(eol);
    }
    out.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn noisy_azure_trace_parses_to_the_items_written(
        seed in 0u64..1_000, n in 1usize..200, noise in 0u64..1_000_000,
    ) {
        let cap = DimVec::from_slice(&[64, 256]);
        let gen = HeavyTail::new(n, cap.clone(), seed);
        let mut clean = Vec::new();
        write_azure_csv(gen.items(), &cap, 288, &mut clean).unwrap();
        let clean = String::from_utf8(clean).unwrap();
        let header = clean.lines().next().unwrap();
        let noisy = add_noise(&clean, noise, Some(header));
        let mut parsed = AzureSource::new(
            Cursor::new(noisy), Some(cap.clone()), 288, DirtyPolicy::Reject,
        ).unwrap();
        prop_assert_eq!(drain(&mut parsed), drain(&mut gen.source()));
        prop_assert_eq!((parsed.stats().rows, parsed.stats().items), (n as u64, n as u64));
    }

    #[test]
    fn noisy_google_trace_parses_to_the_items_written(
        seed in 0u64..1_000, n in 1usize..200, noise in 0u64..1_000_000,
    ) {
        let cap = DimVec::from_slice(&[100, 100]);
        let gen = HeavyTail::new(n, cap.clone(), seed);
        let mut clean = Vec::new();
        write_google_csv(gen.items(), &cap, &mut clean).unwrap();
        let noisy = add_noise(&String::from_utf8(clean).unwrap(), noise, None);
        let mut parsed = GoogleSource::new(
            Cursor::new(noisy), Some(cap.clone()), DirtyPolicy::Reject,
        ).unwrap();
        prop_assert_eq!(drain(&mut parsed), drain(&mut gen.source()));
        prop_assert_eq!((parsed.stats().rows, parsed.stats().items), (2 * n as u64, n as u64));
    }
}

/// The first error opening or draining `text`, as displayed.
fn first_error(
    format: TraceFormat,
    text: &[u8],
    dirty: DirtyPolicy,
    cap: Option<&[u64]>,
) -> String {
    let options = OpenOptions {
        capacity: cap.map(DimVec::from_slice),
        ticks_per_day: 4,
        dirty,
    };
    let mut source = match format.open_reader(Cursor::new(text.to_vec()), &options) {
        Ok(source) => source,
        Err(e) => return e.to_string(),
    };
    loop {
        match source.next_event() {
            Ok(Some(_)) => {}
            Ok(None) => panic!(
                "{format}: {:?} parsed cleanly",
                String::from_utf8_lossy(text)
            ),
            Err(e) => return e.to_string(),
        }
    }
}

/// Input, dirty policy, capacity, and the error it must raise.
type AzureCase = (
    &'static [u8],
    DirtyPolicy,
    Option<&'static [u64]>,
    &'static str,
);

#[test]
fn azure_rejections_are_golden() {
    use DirtyPolicy::{Clamp, Reject};
    let cases: &[AzureCase] = &[
        (b"", Reject, None, "azure trace has no data rows"),
        (
            b"vmId,starttime,endtime,core\n",
            Reject,
            None,
            "azure trace has no data rows",
        ),
        (
            b"# c\nvm1,0.0,0.5\n",
            Reject,
            None,
            "line 2: expected vmId,starttime,endtime,resources... (got 3 fields)",
        ),
        (
            b"vm1\n",
            Reject,
            None,
            "line 1: expected vmId,starttime,endtime,resources... (got 1 fields)",
        ),
        (
            b"vm1,0,0.5,0.5,0.5\n",
            Reject,
            Some(&[64]),
            "line 1: capacity has 1 dimensions but the trace has 2 resource columns",
        ),
        (
            b"vm1,0,0.5,0.5,0.5\n\nvm2,0.25,0.5,0.5\n",
            Clamp,
            None,
            "line 3: expected 5 fields, got 4",
        ),
        (
            b"vm1,0,0.5,0.5,0.5\nvm2,inf,0.5,0.5,0.5\n",
            Reject,
            None,
            "line 2: starttime \"inf\" is not a finite non-negative number",
        ),
        (
            b"vm1,-0.25,0.5,0.5,0.5\n",
            Clamp,
            None,
            "line 1: starttime \"-0.25\" is not a finite non-negative number",
        ),
        (
            b"vm1,0.5,1,0.5,0.5\nvm2,0.25,1,0.5,0.5\n",
            Reject,
            None,
            "line 2: starttime goes backwards (tick 1 after tick 2)",
        ),
        (
            b"vm1,0,x,0.5,0.5\n",
            Clamp,
            None,
            "line 1: endtime \"x\" is not a number",
        ),
        (
            b"vm1,0,-1,0.5,0.5\n",
            Reject,
            None,
            "line 1: endtime \"-1\" is not a finite non-negative number",
        ),
        (
            b"vm1,0.25,0.25,0.5,0.5\n",
            Reject,
            None,
            "line 1: endtime (tick 1) does not exceed starttime (tick 1)",
        ),
        (
            b"\xef\xbb\xbf# c\r\n\r\nvm1,0,1,0.5,0.5\r\n#x\r\nvm1,0.25,1,0.5,0.5\r\n",
            Reject,
            None,
            "line 5: vmId \"vm1\" duplicates a VM that is still running",
        ),
        (
            b"vm1,0,1,y,0.5\n",
            Clamp,
            None,
            "line 1: resource demand \"y\" is not a number",
        ),
        (
            b"vm1,0,1,0.5,NaN\n",
            Reject,
            None,
            "line 1: resource demand \"NaN\" is not a finite non-negative number",
        ),
        (
            b"vm1,0,1,0.001,0.5\n",
            Reject,
            None,
            "line 1: zero resource demand 0.001",
        ),
        (
            b"vm1,0,1,1.5,0.5\n",
            Reject,
            None,
            "line 1: resource demand 1.5 exceeds the capacity",
        ),
        (
            b"vm1,0,1,0.5,0.5\nvm2,0.25,1,\xff,0.5\n",
            Reject,
            None,
            "read failed: stream did not contain valid UTF-8",
        ),
    ];
    for &(text, dirty, cap, want) in cases {
        assert_eq!(
            first_error(TraceFormat::Azure, text, dirty, cap),
            want,
            "{:?}",
            String::from_utf8_lossy(text)
        );
    }
}

/// One `task_events` row with the columns the parser reads.
fn task(time: &str, job: &str, task: &str, event: &str, cpu: &str, ram: &str) -> String {
    format!("{time},,{job},{task},,{event},u,,0,{cpu},{ram},,\n")
}

#[test]
fn google_rejections_are_golden() {
    use DirtyPolicy::{Clamp, Reject};
    let up = task("100", "1", "0", "1", "0.25", "0.25");
    let cases: Vec<(String, DirtyPolicy, &str)> = vec![
        (
            "100,,1,0,,1,u,,0,0.25,0.25,\n".into(),
            Clamp,
            "line 1: expected 13 task_events fields, got 12",
        ),
        (
            task("100", "1", "0", "x", "", ""),
            Reject,
            "line 1: event type \"x\" is not an integer",
        ),
        (
            up.clone() + &task("t", "1", "0", "4", "", ""),
            Clamp,
            "line 2: timestamp \"t\" is not an integer",
        ),
        (
            task("100", "j", "0", "1", "0.25", "0.25"),
            Reject,
            "line 1: job id \"j\" is not an integer",
        ),
        (
            task("100", "1", "-1", "1", "0.25", "0.25"),
            Reject,
            "line 1: task index \"-1\" is not an integer",
        ),
        (
            up.clone() + "\n# c\n" + &task("50", "2", "0", "1", "0.25", "0.25"),
            Reject,
            "line 4: timestamp goes backwards (50 after 100)",
        ),
        (
            up.clone() + &task("150", "1", "0", "1", "0.5", "0.5"),
            Reject,
            "line 2: task 1/0 scheduled while already running",
        ),
        (
            task("100", "1", "0", "1", "", "0.25"),
            Reject,
            "line 1: empty resource request",
        ),
        (
            task("100", "1", "0", "1", "0.25", "x"),
            Clamp,
            "line 1: resource request \"x\" is not a number",
        ),
        (
            up.clone() + &task("100", "1", "0", "5", "", ""),
            Reject,
            "line 2: task 1/0 departs at 100 without outliving its schedule at 100",
        ),
        (
            task("100", "1", "0", "1", "1.5", "0.25"),
            Reject,
            "line 1: resource demand 1.5 exceeds the capacity",
        ),
        (
            task("100", "1", "0", "1", "0.25", "0"),
            Reject,
            "line 1: zero resource demand 0",
        ),
    ];
    for (text, dirty, want) in cases {
        assert_eq!(
            first_error(TraceFormat::Google, text.as_bytes(), dirty, None),
            want,
            "{text:?}"
        );
    }
    assert_eq!(
        first_error(TraceFormat::Google, b"", Reject, Some(&[1, 2, 3])),
        "google task_events has 2 resource columns (cpu, ram) but the capacity has 3 dimensions"
    );
    let mut bad_utf8 = up.into_bytes();
    bad_utf8.extend_from_slice(b"200,,1,0,,4,\xc3,,,,,,\n");
    assert_eq!(
        first_error(TraceFormat::Google, &bad_utf8, Reject, None),
        "read failed: stream did not contain valid UTF-8"
    );
}

#[test]
fn native_rejections_are_golden() {
    use DirtyPolicy::{Clamp, Reject};
    let cases: &[(&[u8], DirtyPolicy, &str)] = &[
        (
            b"0,5,10\n",
            Clamp,
            "line 1: expected arrival,departure and 2 sizes (4 fields), got 3",
        ),
        (
            b"arrival,departure,a,b\n0,x,1,1\n",
            Reject,
            "line 2: departure \"x\" is not a non-negative integer",
        ),
        (
            b"0,5,1,1\na,5,1,1\n",
            Clamp,
            "line 2: arrival \"a\" is not a non-negative integer",
        ),
        (
            b"0,5,1,-1\n",
            Reject,
            "line 1: size \"-1\" is not a non-negative integer",
        ),
        (
            b"5,9,1,1\r\n\r\n2,9,1,1\r\n",
            Reject,
            "line 3: rows must be sorted by arrival (tick 2 after tick 5)",
        ),
        (
            b"5,5,1,1\n",
            Reject,
            "line 1: departure (5) must exceed arrival (5)",
        ),
        (b"0,5,0,1\n", Reject, "line 1: size 0 is outside 1..=100"),
        (
            b"0,5,1,101\n",
            Reject,
            "line 1: size 101 is outside 1..=100",
        ),
        (
            b"0,5,1,1\n\xfe\n",
            Reject,
            "read failed: stream did not contain valid UTF-8",
        ),
    ];
    for &(text, dirty, want) in cases {
        assert_eq!(
            first_error(TraceFormat::Native, text, dirty, Some(&[100, 100])),
            want,
            "{:?}",
            String::from_utf8_lossy(text)
        );
    }
    assert_eq!(
        first_error(TraceFormat::Native, b"0,5,1,1\n", Reject, None),
        "the native format needs an explicit capacity (sizes are absolute units)"
    );
}
