//! Crossover calibration for the scan-vs-index hybrid: times each
//! index-backed policy's pure block-scan path against its pure
//! fit-index path across a sweep of steady-state open-bin counts `m`
//! and dimension counts `d`, and prints the smallest measured `m` from
//! which the index keeps winning.
//!
//! Two stream shapes are swept. `dense` packs `n = 4μ` items, so the
//! run opens few bins beyond the ones open at the peak. `sparse` packs
//! `n = 20μ` items over `T = n` ticks — the long-stream shape of the
//! `pack-dense` benchmark workload, where the run opens many times more
//! bins than are ever open at once and closed bins pile up behind the
//! open ones.
//!
//! The per-`d` table in `dvbp_core::hybrid` is set from this binary's
//! output on an AVX2 host (see DESIGN.md "Vectorized feasibility").
//! Rerun after kernel changes:
//!
//!   cargo run --release -p dvbp-bench --bin calibrate_hybrid
//!
//! The scan variant runs the vectorized block kernel end to end (mask
//! dispatch included); the index variant forces the segment-tree descent
//! at every arrival. Both produce identical packings, so the timing
//! difference is pure selection cost.
//!
//! Each point alternates the two variants over [`ROUNDS`] rounds, each
//! on its own warm engine, so a slow stretch of a shared machine hits
//! both sides. A round times each variant at its fastest repetition;
//! the reported `index/scan` figure is the median over rounds of the
//! index's speedup, with the rounds' interquartile range beside it.

use dvbp_bench::bench_instance;
use dvbp_core::policy::first_fit::FirstFit;
use dvbp_core::policy::last_fit::LastFit;
use dvbp_core::{Engine, Instance, Policy, TraceMode};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SEED: u64 = 1;
const BUDGET: Duration = Duration::from_millis(40);
const ROUNDS: usize = 7;

/// `(name, pure block scan, pure fit index)` for every policy with an
/// index path.
type Variants = (
    &'static str,
    fn() -> Box<dyn Policy>,
    fn() -> Box<dyn Policy>,
);

const POLICIES: [Variants; 2] = [
    (
        "FirstFit",
        || Box::new(FirstFit::scanning()),
        || Box::new(FirstFit::indexed()),
    ),
    (
        "LastFit",
        || Box::new(LastFit::scanning()),
        || Box::new(LastFit::indexed()),
    ),
];

/// `(shape, items per unit of μ, μ sweep)`.
const SHAPES: [(&str, usize, &[u64]); 2] = [
    ("dense", 4, &[60, 120, 250, 500, 1000, 2000, 4000]),
    ("sparse", 20, &[60, 250, 1000, 3000]),
];

/// Seconds of the fastest of at least 2 warm repetitions within
/// `BUDGET` (the minimum-time estimator of `bench_throughput`).
fn fastest(engine: &mut Engine, inst: &Instance, policy: &mut dyn Policy) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    let mut fastest = Duration::MAX;
    loop {
        let t0 = Instant::now();
        black_box(engine.pack(inst, policy, TraceMode::CostOnly).cost());
        fastest = fastest.min(t0.elapsed());
        reps += 1;
        if reps >= 2 && start.elapsed() >= BUDGET {
            return fastest.as_secs_f64();
        }
    }
}

/// The `q`-quantile of `v` by linear interpolation; sorts `v`.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// One `(inst, scan, index)` point: (scan items/sec, index items/sec,
/// median / first / third quartile of the per-round index speedup,
/// max concurrent bins, bins opened).
fn measure(
    inst: &Instance,
    scan: &mut dyn Policy,
    index: &mut dyn Policy,
) -> (f64, f64, [f64; 3], usize, usize) {
    let (mut se, mut ie) = (Engine::new(), Engine::new());
    let warm = se.pack(inst, scan, TraceMode::CostOnly);
    let (max_conc, opened) = (warm.max_concurrent_bins(), warm.num_bins());
    black_box(ie.pack(inst, index, TraceMode::CostOnly).cost());
    let (mut best_scan, mut best_index) = (f64::MAX, f64::MAX);
    let mut speedups = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (s, i) = if round % 2 == 0 {
            let s = fastest(&mut se, inst, scan);
            (s, fastest(&mut ie, inst, index))
        } else {
            let i = fastest(&mut ie, inst, index);
            (fastest(&mut se, inst, scan), i)
        };
        best_scan = best_scan.min(s);
        best_index = best_index.min(i);
        speedups.push(s / i);
    }
    let quartiles = [0.5, 0.25, 0.75].map(|q| quantile(&mut speedups, q));
    let n = inst.len() as f64;
    (n / best_scan, n / best_index, quartiles, max_conc, opened)
}

fn main() {
    for (shape, per_mu, mus) in SHAPES {
        for (name, scan, index) in POLICIES {
            println!("== {shape} {name}");
            println!(
                "{:>3} {:>6} {:>6} {:>7} {:>12} {:>12} {:>11} {:>11} {:>7}",
                "d",
                "mu",
                "m",
                "opened",
                "scan it/s",
                "index it/s",
                "index/scan",
                "(IQR)",
                "winner"
            );
            for d in [1usize, 2, 3, 4, 5, 8, 9, 10, 11, 12, 16] {
                // The smallest m from which the index won every larger
                // measured point too.
                let mut crossover: Option<usize> = None;
                for &mu in mus {
                    let n = (per_mu * usize::try_from(mu).expect("grid μ fits usize")).max(2000);
                    let inst = bench_instance(d, n, mu, SEED);
                    let (scan_ips, index_ips, [med, q1, q3], m, opened) =
                        measure(&inst, scan().as_mut(), index().as_mut());
                    let index_wins = med > 1.0;
                    crossover = match (index_wins, crossover) {
                        (true, None) => Some(m),
                        (true, kept) => kept,
                        (false, _) => None,
                    };
                    let winner = if index_wins { "index" } else { "scan" };
                    let iqr = format!("{q1:.2}-{q3:.2}");
                    println!(
                        "{d:>3} {mu:>6} {m:>6} {opened:>7} {scan_ips:>12.0} {index_ips:>12.0} {med:>11.2} {iqr:>11} {winner:>7}"
                    );
                }
                match crossover {
                    Some(m) => println!("  -> {shape} {name} d={d}: index wins from m ≈ {m}"),
                    None => println!("  -> {shape} {name} d={d}: scan wins at the largest m"),
                }
            }
        }
    }
}
