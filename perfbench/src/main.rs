//! The repository benchmark: one command, three workloads, one JSON
//! result line.
//!
//! ```text
//! perfbench --workload replay-trace|pack-dense|paper-fig4
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. With `--trace 0` the last line of
//! standard output carries every end-to-end metric; with `--trace 1`,
//! every per-layer metric. A machine record precedes it. The exit code
//! is non-zero when an output check fails. See README.md.

mod layers;
mod machine;
mod packing;
mod report;
mod serving;
mod stats;

use report::{Outcome, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["replay-trace", "pack-dense", "paper-fig4"];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// Repeats `job` until `seconds` have passed and it ran at least `min`
/// times; returns every result.
///
/// # Errors
///
/// The first failing repetition's error.
pub fn repeat<T>(
    seconds: f64,
    min: usize,
    mut job: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(job()?);
    }
    Ok(out)
}

/// Set-ups before a workload's measured phase; the last one's result
/// is the workload's input.
pub const SETUP_REPS: usize = 3;

/// Share of an untraced measured phase spent on set-ups run between
/// its repetitions.
pub const SETUP_SHARE: f64 = 0.1;

/// Repetitions of the measured phase before `peak_rss_mb` is read. Set-ups
/// only start after them: the allocator keeps memory that set-ups
/// freed, and it would count in `peak_rss_mb`.
const PEAK_REPS: usize = 3;

/// One set-up's seconds, and those of its segments: the same work in
/// the same order every set-up, as the job's blocks are (none when the
/// set-up is a single call).
pub struct SetupTime {
    pub seconds: f64,
    pub segments: Vec<f64>,
}

impl SetupTime {
    /// A set-up timed as a whole.
    #[must_use]
    pub fn whole(seconds: f64) -> Self {
        Self {
            seconds,
            segments: Vec::new(),
        }
    }
}

/// `setup_s`: the set-ups' time with each segment at its fastest set-up
/// (see [`stats::best_of_segments`]), as the job's timings are taken.
#[must_use]
pub fn setup_s(setups: &[SetupTime]) -> f64 {
    let totals: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
    let segments: Vec<&[f64]> = setups.iter().map(|s| s.segments.as_slice()).collect();
    stats::best_of_segments(&totals, &segments)
}

/// Times `setup` [`SETUP_REPS`] times (once in a traced run) and returns
/// the last result with every set-up's seconds.
///
/// # Errors
///
/// The first failing repetition's error.
pub fn time_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<(T, SetupTime), String>,
) -> Result<(T, Vec<SetupTime>), String> {
    let min = if ctx.trace { 1 } else { SETUP_REPS };
    let mut last = None;
    let times = repeat(0.0, min, || {
        let (value, s) = setup()?;
        last = Some(value);
        Ok(s)
    })?;
    Ok((last.expect("set up at least once"), times))
}

/// The measured phase: repeats `job` for `seconds` and at least
/// [`PEAK_REPS`] times, and returns every result with the peak resident
/// memory of the first [`PEAK_REPS`]. In an untraced run `setup` then
/// runs between repetitions, for up to [`SETUP_SHARE`] of the phase and
/// at least [`SETUP_REPS`] times, and its seconds are added to
/// `setups`: set-ups are timed across the whole run, as the repetitions
/// are, so a slow stretch of the machine at one end of the run does not
/// decide `setup_s`.
///
/// # Errors
///
/// The first failing repetition's or set-up's error.
pub fn measure<T, S>(
    ctx: &Ctx,
    seconds: f64,
    setups: &mut Vec<SetupTime>,
    mut setup: impl FnMut() -> Result<(S, SetupTime), String>,
    mut job: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    machine::reset_peak_rss();
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut peak = None;
    let mut spent = 0.0;
    let mut interleaved = 0;
    while reps.len() < PEAK_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(job()?);
        if reps.len() < PEAK_REPS {
            continue;
        }
        peak.get_or_insert_with(|| machine::peak_rss_mb().unwrap_or(0.0));
        while !ctx.trace && spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            setups.push(setup()?.1);
            spent += t.elapsed().as_secs_f64();
            interleaved += 1;
        }
    }
    while !ctx.trace && interleaved < SETUP_REPS {
        setups.push(setup()?.1);
        interleaved += 1;
    }
    let totals: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
    eprintln!(
        "set-up: {} times, setup_s {:.6} s, median {:.6} s",
        setups.len(),
        setup_s(setups),
        stats::median(&totals)
    );
    Ok((reps, peak.expect("measured at least once")))
}

/// Runs one workload and returns its outcome with the environment
/// figures and `ok_share` filled in.
///
/// # Errors
///
/// A workload that could not run to the end.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let env = machine::Environment::measure(&ctx.work).map_err(|e| format!("fsync probe: {e}"))?;
    println!("{}", env.record(workload, ctx.seed));
    let mut out = Outcome::default();
    match workload {
        "replay-trace" => packing::replay_trace(ctx, &mut out),
        "pack-dense" => packing::pack_dense(ctx, &mut out),
        "paper-fig4" => packing::paper_fig4(ctx, &mut out),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("device.fsync_us", env.fsync_us);
        out.set("cpu.on_cpu_share", env.on_cpu_share);
        out.set("machine.nproc", env.nproc as f64);
    }
    out.set("ok_share", out.ok_share());
    if ctx.trace {
        let closure = out
            .metrics
            .get("ledger.closure")
            .copied()
            .unwrap_or(f64::NAN);
        if (closure - 1.0).abs() > report::LEDGER_TOLERANCE {
            eprintln!(
                "warning: {workload} ledger closes at {closure:.3} of end-to-end, outside ±{}",
                report::LEDGER_TOLERANCE
            );
        }
    }
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        work,
    };
    let result = run(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    let declared: Vec<(String, &'static str)> = if ctx.trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    match out.result_line(&declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    if out.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a workload at smoke scale in its own scratch directory.
    fn smoke(workload: &str, trace: bool) -> Outcome {
        let work = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.perfbench_work")).join(
            format!("perfbench-test-{workload}-{trace}-{}", std::process::id()),
        );
        std::fs::create_dir_all(&work).unwrap();
        let ctx = Ctx {
            seed: 7,
            seconds: 0.05,
            trace,
            smoke: true,
            work: work.clone(),
        };
        let out = run(workload, &ctx).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
        assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
        let declared: Vec<(String, &'static str)> = if trace {
            report::per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let line = out.result_line(&declared).unwrap();
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        if !trace {
            for (name, _) in &declared {
                assert!(
                    out.metrics[name.as_str()] > 0.0,
                    "{workload}: {name} is not positive"
                );
            }
        }
        out
    }

    #[test]
    fn setup_s_takes_each_segment_fastest() {
        let whole = [SetupTime::whole(3.0), SetupTime::whole(2.0)];
        assert!((setup_s(&whole) - 2.0).abs() < 1e-12);
        let segmented = [
            SetupTime {
                seconds: 3.5,
                segments: vec![1.0, 2.0],
            },
            SetupTime {
                seconds: 3.0,
                segments: vec![2.0, 0.5],
            },
        ];
        // 1.0 + 0.5, plus the smallest time outside the segments.
        assert!((setup_s(&segmented) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn replay_trace_smoke() {
        smoke("replay-trace", false);
        smoke("replay-trace", true);
    }

    #[test]
    fn pack_dense_smoke() {
        smoke("pack-dense", false);
        smoke("pack-dense", true);
    }

    #[test]
    fn paper_fig4_smoke() {
        smoke("paper-fig4", false);
        smoke("paper-fig4", true);
    }
}
