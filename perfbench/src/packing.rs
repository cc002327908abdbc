//! The three packing workloads: `replay-trace` (Azure CSV through the
//! parser into the engine), `pack-dense` (a long in-memory stream with
//! ~1,200 open bins), and `paper-fig4` (the paper's Table-2 sweep).

use crate::layers::{self, policy_name, Counter};
use crate::report::Outcome;
use crate::stats::{best_of_segments, elementwise_min, median, quantile_of};
use crate::{measure, repeat, setup_s, time_setup, Ctx, SetupTime};
use dvbp_core::{
    Engine, EventSource, Instance, InstanceSource, LiveOp, LoadMeasure, PackRequest, PolicyKind,
    SourceError, StreamingLowerBound, Tap, TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_traces::{
    write_azure_csv, HeavyTail, OpenOptions, SynthItem, TraceFormat, AZURE_TICKS_PER_DAY,
};
use dvbp_workloads::UniformParams;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Events per latency block.
const BLOCK: u64 = 1024;

/// A stream's events pulled into memory first, so the engine can be
/// timed with no parser or generator in front of it.
struct Materialised {
    capacity: DimVec,
    ops: Vec<LiveOp>,
    hint: Option<usize>,
}

impl Materialised {
    fn collect(source: &mut dyn EventSource) -> Result<Materialised, String> {
        let mut ops = Vec::new();
        while let Some(op) = source.next_event().map_err(|e| e.to_string())? {
            ops.push(op);
        }
        Ok(Materialised {
            capacity: source.capacity().clone(),
            ops,
            hint: source.items_hint(),
        })
    }

    /// Packs the events under `kind`, timing the engine alone (the
    /// events are copied before the clock starts). Returns seconds and
    /// cost.
    fn pack_timed(&self, kind: &PolicyKind, engine: &mut Engine) -> Result<(f64, u128), String> {
        let mut source = Replay {
            capacity: &self.capacity,
            ops: self.ops.clone().into_iter(),
            hint: self.hint,
        };
        let t = Instant::now();
        let cost = pack(kind, engine, &mut source)?;
        Ok((t.elapsed().as_secs_f64(), cost))
    }
}

struct Replay<'a> {
    capacity: &'a DimVec,
    ops: std::vec::IntoIter<LiveOp>,
    hint: Option<usize>,
}

impl EventSource for Replay<'_> {
    fn capacity(&self) -> &DimVec {
        self.capacity
    }

    fn next_event(&mut self) -> Result<Option<LiveOp>, SourceError> {
        Ok(self.ops.next())
    }

    fn items_hint(&self) -> Option<usize> {
        self.hint
    }
}

/// Times the blocks of a stream: the seconds between one block of
/// [`BLOCK`] events leaving the source and the next, in stream order. A
/// block mixes arrivals and departures, so the samples are unimodal;
/// the stream is the same every repetition, so block `k` is the same
/// work every time.
#[derive(Default)]
struct Sampler {
    n: u64,
    mark: Option<Instant>,
    seconds: Vec<f64>,
}

impl Sampler {
    #[inline]
    fn tick(&mut self) {
        self.n += 1;
        if self.n.is_multiple_of(BLOCK) {
            let now = Instant::now();
            if let Some(prev) = self.mark {
                self.seconds.push((now - prev).as_secs_f64());
            }
            self.mark = Some(now);
        }
    }
}

/// FirstFit and BestFit[L∞], the two policies the long-stream
/// workloads run.
fn policies() -> [PolicyKind; 2] {
    [PolicyKind::FirstFit, PolicyKind::BestFit(LoadMeasure::Linf)]
}

/// One policy's pass over a workload's stream.
struct Pass {
    seconds: f64,
    events: u64,
    cost: u128,
    /// Seconds of each block of the pass (see [`Sampler`]).
    blocks: Vec<f64>,
}

/// One repetition of a two-policy job.
struct Rep {
    passes: [Pass; 2],
}

/// Runs `source` through `kind` on `engine` in cost-only mode and
/// returns the packing's cost.
fn pack(
    kind: &PolicyKind,
    engine: &mut Engine,
    source: &mut dyn EventSource,
) -> Result<u128, String> {
    PackRequest::new(kind.clone())
        .trace_mode(TraceMode::CostOnly)
        .run_source_on(engine, source)
        .map(|p| p.cost())
        .map_err(|e| format!("{}: {e}", kind.name()))
}

fn pack_observed(
    kind: &PolicyKind,
    engine: &mut Engine,
    source: &mut dyn EventSource,
    counter: &mut Counter,
) -> Result<u128, String> {
    PackRequest::new(kind.clone())
        .trace_mode(TraceMode::CostOnly)
        .observer(counter)
        .run_source_on(engine, source)
        .map(|p| p.cost())
        .map_err(|e| format!("{}: {e}", kind.name()))
}

/// Records the end-to-end figures of a two-policy job. A pass's time is
/// the sum of its blocks, each at its fastest repetition (see
/// [`best_of_segments`]): interference from other tenants of the
/// machine only ever adds time, and it comes and goes within a pass,
/// while a slow block of the program's own is slow every repetition.
fn record_job(out: &mut Outcome, reps: &[Rep], lower_bound: u128, setup_s: f64, peak_mb: f64) {
    let pass_s = |i: usize| {
        let totals: Vec<f64> = reps.iter().map(|r| r.passes[i].seconds).collect();
        let blocks: Vec<&[f64]> = reps.iter().map(|r| r.passes[i].blocks.as_slice()).collect();
        best_of_segments(&totals, &blocks)
    };
    let seconds = [pass_s(0), pass_s(1)];
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_mb);
    out.set("job_s", seconds[0] + seconds[1]);
    #[allow(clippy::cast_precision_loss)]
    for (i, name) in ["first_fit", "best_fit"].iter().enumerate() {
        out.set(
            &format!("{name}.events_per_s"),
            reps[0].passes[i].events as f64 / seconds[i],
        );
        out.set(
            &format!("{name}.cost_ratio"),
            reps[0].passes[i].cost as f64 / lower_bound.max(1) as f64,
        );
    }
    // Per-event latency quantiles over the FirstFit pass's blocks, each
    // at its fastest repetition. (Pooled with BestFit's slower blocks,
    // the median would sit on the gap between the two policies.)
    let blocks = elementwise_min(reps.iter().map(|r| r.passes[0].blocks.as_slice()));
    #[allow(clippy::cast_precision_loss)]
    let per_event_us = |q: f64| quantile_of(&blocks, q) * 1e6 / BLOCK as f64;
    out.set("p50_us", per_event_us(0.5));
    out.set("p95_us", per_event_us(0.95));
}

/// Checks that every repetition packed to the same costs, and that the
/// lower bound holds.
fn check_costs(out: &mut Outcome, reps: &[Rep], lower_bound: u128) {
    for (i, kind) in policies().iter().enumerate() {
        let first = reps[0].passes[i].cost;
        out.check(reps.iter().all(|r| r.passes[i].cost == first), || {
            format!("{}: cost differs between repetitions", kind.name())
        });
        out.check(lower_bound <= first, || {
            format!("{}: LB(i) {lower_bound} exceeds cost {first}", kind.name())
        });
    }
}

/// Median untraced time of a two-policy job.
fn median_job_s(reps: &[Rep]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| r.passes[0].seconds + r.passes[1].seconds)
            .collect::<Vec<_>>(),
    )
}

/// Ledger and overhead figures from the median untraced job time and
/// the sum of the median layer times, each layer timed on its own.
fn record_ledger(out: &mut Outcome, e2e_s: f64, layers_s: f64, traced_s: f64) {
    out.set("ledger.e2e_s", e2e_s);
    out.set("ledger.layers_s", layers_s);
    out.set("ledger.closure", layers_s / e2e_s);
    out.set("trace.overhead_ratio", traced_s / e2e_s);
}

/// Checks that the engine packed the in-memory events as it packed the
/// stream.
fn check_engine_costs(out: &mut Outcome, reps: &[Rep], costs: [u128; 2]) {
    for (i, kind) in policies().iter().enumerate() {
        out.check(costs[i] == reps[0].passes[i].cost, || {
            format!(
                "{}: cost over the in-memory events {} != streamed cost {}",
                kind.name(),
                costs[i],
                reps[0].passes[i].cost
            )
        });
    }
}

// ---------------------------------------------------------------- replay

/// `replay-trace`'s items: 250k Pareto-lifetime items over a d=2
/// capacity.
fn replay_stream(ctx: &Ctx) -> HeavyTail {
    let items = if ctx.smoke { 5_000 } else { 250_000 };
    HeavyTail::new(items, DimVec::from_slice(&[100, 100]), ctx.seed)
}

/// Writes the CSV and returns it unsynced.
fn write_csv(
    items: impl Iterator<Item = SynthItem>,
    gen: &HeavyTail,
    path: &Path,
) -> Result<File, String> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| e.to_string())?);
    write_azure_csv(items, &gen.capacity, AZURE_TICKS_PER_DAY, &mut w)
        .and_then(|_| w.flush())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    w.into_inner().map_err(|e| e.to_string())
}

fn azure_options(gen: &HeavyTail) -> OpenOptions {
    OpenOptions {
        capacity: Some(gen.capacity.clone()),
        ..OpenOptions::default()
    }
}

/// One replay of the CSV under `kind`: open → Tap (streaming LB and
/// block sampler) → engine, as `dvbp run --stream` does.
fn replay_pass(
    path: &Path,
    options: &OpenOptions,
    kind: &PolicyKind,
    engine: &mut Engine,
    out: &mut Outcome,
) -> Result<(Pass, u128), String> {
    let mut sampler = Sampler::default();
    let t = Instant::now();
    let mut source = TraceFormat::Azure
        .open_path(path, options)
        .map_err(|e| e.to_string())?;
    let mut lb = StreamingLowerBound::new(source.capacity());
    let cost = {
        let mut tapped = Tap::new(&mut *source, |op| {
            lb.observe(op);
            sampler.tick();
        });
        pack(kind, engine, &mut tapped)?
    };
    let seconds = t.elapsed().as_secs_f64();
    let stats = source.stats();
    let repaired = stats.clamped_durations
        + stats.clamped_times
        + stats.clamped_sizes
        + stats.dropped_duplicates
        + stats.skipped_rows;
    out.rejected(repaired, || {
        format!(
            "{}: {repaired} rows repaired or dropped by the parser",
            kind.name()
        )
    });
    Ok((
        Pass {
            seconds,
            events: 2 * stats.items,
            cost,
            blocks: sampler.seconds,
        },
        lb.value(),
    ))
}

fn replay_job(
    path: &Path,
    options: &OpenOptions,
    engine: &mut Engine,
    out: &mut Outcome,
) -> Result<(Rep, u128), String> {
    let (ff, lb) = replay_pass(path, options, &PolicyKind::FirstFit, engine, out)?;
    let (bf, lb_bf) = replay_pass(path, options, &policies()[1], engine, out)?;
    if lb != lb_bf {
        out.check(false, || {
            format!("streamed LB differs between passes: {lb} vs {lb_bf}")
        });
    }
    Ok((Rep { passes: [ff, bf] }, lb))
}

/// `replay-trace`: HeavyTail items (Pareto lifetimes, d=2) written as an
/// Azure CSV, then replayed from the file under FirstFit and
/// BestFit[L∞].
///
/// # Errors
///
/// Setup and replay failures.
pub fn replay_trace(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let gen = replay_stream(ctx);
    let path = ctx.work.join("heavytail.azure.csv");
    let mut setup = || {
        let mut sampler = Sampler::default();
        let t = Instant::now();
        let file = write_csv(gen.items().inspect(|_| sampler.tick()), &gen, &path)?;
        let seconds = t.elapsed().as_secs_f64();
        // Synced outside the timing: no write-back of the file then
        // overlaps the timed replays, and the disk's flush latency
        // stays out of `setup_s`.
        file.sync_all().map_err(|e| e.to_string())?;
        Ok((
            (),
            SetupTime {
                seconds,
                segments: sampler.seconds,
            },
        ))
    };
    let ((), mut setups) = time_setup(ctx, &mut setup)?;
    let options = azure_options(&gen);
    let mut engine = Engine::new();

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut lb = 0;
    let (reps, peak) = measure(ctx, budget, &mut setups, &mut setup, || {
        let (rep, value) = replay_job(&path, &options, &mut engine, out)?;
        eprintln!(
            "replay: {:.4} s + {:.4} s",
            rep.passes[0].seconds, rep.passes[1].seconds
        );
        lb = value;
        Ok(rep)
    })?;
    record_job(out, &reps, lb, setup_s(&setups), peak);
    check_costs(out, &reps, lb);
    // The replay must pack exactly as the same stream does in memory.
    for (i, kind) in policies().iter().enumerate() {
        let cost = pack(kind, &mut engine, &mut gen.source())?;
        out.check(cost == reps[0].passes[i].cost, || {
            format!(
                "{}: replay cost {} != in-memory cost {cost}",
                kind.name(),
                reps[0].passes[i].cost
            )
        });
    }
    if !ctx.trace {
        return Ok(());
    }

    // Traced: split each pass into parse, streaming LB, and engine,
    // each timed on its own: the engine runs over the parsed events
    // held in memory.
    let parsed = Materialised::collect(
        &mut *TraceFormat::Azure
            .open_path(&path, &options)
            .map_err(|e| e.to_string())?,
    )?;
    let t = Instant::now();
    let items = gen.items().count();
    out.set(
        "workloads.generate_ns_per_item",
        per_item(t.elapsed().as_secs_f64(), items),
    );
    let events = 2.0 * items as f64;
    let drain = |with_lb: bool| -> Result<f64, String> {
        let t = Instant::now();
        let mut source = TraceFormat::Azure
            .open_path(&path, &options)
            .map_err(|e| e.to_string())?;
        let mut lb = StreamingLowerBound::new(source.capacity());
        while let Some(op) = source.next_event().map_err(|e| e.to_string())? {
            if with_lb {
                lb.observe(&op);
            }
            black_box(op);
        }
        black_box(lb.value());
        Ok(t.elapsed().as_secs_f64())
    };
    let mut parse = Vec::new();
    let mut with_lb = Vec::new();
    let mut engine_self = [Vec::new(), Vec::new()];
    let mut traced = Vec::new();
    let mut engine_costs = [0, 0];
    let mut counters = [Counter::default(), Counter::default()];
    let mut lb_value = 0;
    repeat(ctx.seconds / 2.0, 5, || {
        parse.push(drain(false)?);
        with_lb.push(drain(true)?);
        let mut traced_s = 0.0;
        for (i, kind) in policies().iter().enumerate() {
            let (seconds, cost) = parsed.pack_timed(kind, &mut engine)?;
            engine_self[i].push(seconds);
            engine_costs[i] = cost;
            let t = Instant::now();
            let mut source = TraceFormat::Azure
                .open_path(&path, &options)
                .map_err(|e| e.to_string())?;
            let mut lb = StreamingLowerBound::new(source.capacity());
            counters[i] = Counter::default();
            {
                let mut tapped = Tap::new(&mut *source, |op| lb.observe(op));
                pack_observed(kind, &mut engine, &mut tapped, &mut counters[i])?;
            }
            traced_s += t.elapsed().as_secs_f64();
            lb_value = lb.value();
        }
        traced.push(traced_s);
        Ok(())
    })?;
    check_engine_costs(out, &reps, engine_costs);
    let (p, l) = (median(&parse), median(&with_lb));
    out.set("traces.parse_ns_per_event", p * 1e9 / events);
    out.set("traces.rows_read", items as f64);
    out.set(
        "core.lower_bound.ns_per_event",
        (l - p).max(0.0) * 1e9 / events,
    );
    for (i, kind) in policies().iter().enumerate() {
        let name = policy_name(kind);
        out.set(
            &format!("core.engine.{name}.ns_per_event"),
            median(&engine_self[i]) * 1e9 / events,
        );
        out.set(
            &format!("core.engine.{name}.cost_ratio"),
            reps[0].passes[i].cost as f64 / lb_value.max(1) as f64,
        );
        counters[i].report(name, out);
    }
    let layers_s = 2.0 * l + median(&engine_self[0]) + median(&engine_self[1]);
    record_ledger(out, median_job_s(&reps), layers_s, median(&traced));
    let instance = layers::instance_of(&gen.capacity, gen.items());
    layers::fill(out, &instance, &ctx.work, ctx.seed)
}

#[allow(clippy::cast_precision_loss)]
fn per_item(seconds: f64, items: usize) -> f64 {
    seconds * 1e9 / items.max(1) as f64
}

// ------------------------------------------------------------ pack-dense

/// `pack-dense`'s stream: d=4, sizes U{1..100}, μ=3000, T=n, so about
/// 3,000 items and ~1,250 bins are open at any time while the run opens
/// bins into the hundred thousands.
fn dense_params(ctx: &Ctx) -> UniformParams {
    let items = if ctx.smoke { 4_000 } else { 60_000 };
    UniformParams {
        dims: 4,
        items,
        mu: if ctx.smoke { 300 } else { 3_000 },
        span: items as u64,
        bin_size: 100,
    }
}

fn dense_pass(instance: &Instance, kind: &PolicyKind, engine: &mut Engine) -> Result<Pass, String> {
    let mut sampler = Sampler::default();
    let t = Instant::now();
    let mut source = InstanceSource::new(instance).map_err(|e| e.to_string())?;
    let mut tapped = Tap::new(&mut source, |_| sampler.tick());
    let cost = pack(kind, engine, &mut tapped)?;
    Ok(Pass {
        seconds: t.elapsed().as_secs_f64(),
        events: 2 * instance.len() as u64,
        cost,
        blocks: sampler.seconds,
    })
}

/// `pack-dense`: one long in-memory uniform stream through
/// `InstanceSource` under FirstFit then BestFit[L∞].
///
/// # Errors
///
/// Packing failures.
pub fn pack_dense(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let params = dense_params(ctx);
    let mut setup = || {
        let t = Instant::now();
        let instance = params.generate(ctx.seed);
        Ok((instance, SetupTime::whole(t.elapsed().as_secs_f64())))
    };
    let (instance, mut setups) = time_setup(ctx, &mut setup)?;
    let mut engine = Engine::new();

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (reps, peak) = measure(ctx, budget, &mut setups, &mut setup, || {
        let ff = dense_pass(&instance, &PolicyKind::FirstFit, &mut engine)?;
        let bf = dense_pass(&instance, &policies()[1], &mut engine)?;
        eprintln!("pack-dense: {:.4} s + {:.4} s", ff.seconds, bf.seconds);
        Ok(Rep { passes: [ff, bf] })
    })?;
    let lb = dvbp_offline::lb_load(&instance);
    record_job(out, &reps, lb, setup_s(&setups), peak);
    check_costs(out, &reps, lb);
    // The streamed path must pack exactly as the batch engine does.
    for (i, kind) in policies().iter().enumerate() {
        let batch = PackRequest::new(kind.clone())
            .trace_mode(TraceMode::CostOnly)
            .run_on(&mut engine, &instance)
            .map_err(|e| e.to_string())?
            .cost();
        out.check(batch == reps[0].passes[i].cost, || {
            format!(
                "{}: streamed cost {} != batch cost {batch}",
                kind.name(),
                reps[0].passes[i].cost
            )
        });
    }
    if !ctx.trace {
        return Ok(());
    }

    out.set(
        "workloads.generate_ns_per_item",
        per_item(setups[0].seconds, instance.len()),
    );
    let events = 2.0 * instance.len() as f64;
    let streamed =
        Materialised::collect(&mut InstanceSource::new(&instance).map_err(|e| e.to_string())?)?;
    let mut drains = Vec::new();
    let mut engine_self = [Vec::new(), Vec::new()];
    let mut engine_costs = [0, 0];
    let mut traced = Vec::new();
    let mut counters = [Counter::default(), Counter::default()];
    repeat(ctx.seconds / 2.0, 5, || {
        let t = Instant::now();
        let mut source = InstanceSource::new(&instance).map_err(|e| e.to_string())?;
        while let Some(op) = source.next_event().map_err(|e| e.to_string())? {
            black_box(op);
        }
        drains.push(t.elapsed().as_secs_f64());
        let mut traced_s = 0.0;
        for (i, kind) in policies().iter().enumerate() {
            let (seconds, cost) = streamed.pack_timed(kind, &mut engine)?;
            engine_self[i].push(seconds);
            engine_costs[i] = cost;
            let t = Instant::now();
            let mut source = InstanceSource::new(&instance).map_err(|e| e.to_string())?;
            counters[i] = Counter::default();
            pack_observed(kind, &mut engine, &mut source, &mut counters[i])?;
            traced_s += t.elapsed().as_secs_f64();
        }
        traced.push(traced_s);
        Ok(())
    })?;
    check_engine_costs(out, &reps, engine_costs);
    let d = median(&drains);
    out.set("core.source.ns_per_event", d * 1e9 / events);
    for (i, kind) in policies().iter().enumerate() {
        let name = policy_name(kind);
        out.set(
            &format!("core.engine.{name}.ns_per_event"),
            median(&engine_self[i]) * 1e9 / events,
        );
        out.set(
            &format!("core.engine.{name}.cost_ratio"),
            reps[0].passes[i].cost as f64 / lb.max(1) as f64,
        );
        counters[i].report(name, out);
    }
    let layers_s = 2.0 * d + median(&engine_self[0]) + median(&engine_self[1]);
    record_ledger(out, median_job_s(&reps), layers_s, median(&traced));
    layers::fill(out, &instance, &ctx.work, ctx.seed)
}

// ------------------------------------------------------------ paper-fig4

/// Seeds per Table-2 grid point in one sweep.
fn fig4_seeds(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        1
    } else {
        6
    }
}

/// The sweep's instances, with the time to generate each.
fn fig4_instances(ctx: &Ctx) -> (Vec<Instance>, SetupTime) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut segments = Vec::new();
    for params in UniformParams::table2_grid() {
        for k in 0..fig4_seeds(ctx) {
            let params = if ctx.smoke {
                UniformParams {
                    items: 100,
                    ..params
                }
            } else {
                params
            };
            let t = Instant::now();
            out.push(params.generate(ctx.seed.wrapping_mul(1_000_003).wrapping_add(k)));
            segments.push(t.elapsed().as_secs_f64());
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    (out, SetupTime { seconds, segments })
}

/// One sweep's timings and costs.
struct Sweep {
    seconds: f64,
    /// Runs whose cost fell below LB(i), and the first of them.
    lb_violations: usize,
    first_violation: Option<String>,
    lb_s: f64,
    /// Per paper policy: seconds and Σ cost/LB over instances.
    policy_s: [f64; 7],
    ratio_sum: [f64; 7],
    costs: Vec<u128>,
    /// Seconds of each (instance, policy) run, instance-major.
    run_s: Vec<f64>,
}

fn sweep(
    instances: &[Instance],
    suite: &[PolicyKind],
    engine: &mut Engine,
    mut counters: Option<&mut [Counter; 2]>,
) -> Result<Sweep, String> {
    let mut s = Sweep {
        seconds: 0.0,
        lb_violations: 0,
        first_violation: None,
        lb_s: 0.0,
        policy_s: [0.0; 7],
        ratio_sum: [0.0; 7],
        costs: Vec::with_capacity(instances.len() * suite.len()),
        run_s: Vec::with_capacity(instances.len() * suite.len()),
    };
    let start = Instant::now();
    for instance in instances {
        let t = Instant::now();
        let lb = dvbp_offline::lb_load(instance);
        s.lb_s += t.elapsed().as_secs_f64();
        for (i, kind) in suite.iter().enumerate() {
            let t = Instant::now();
            let request = PackRequest::new(kind.clone()).trace_mode(TraceMode::CostOnly);
            let packing = match (counters.as_deref_mut(), i) {
                (Some(c), 1) => request.observer(&mut c[0]).run_on(engine, instance),
                (Some(c), 2) => request.observer(&mut c[1]).run_on(engine, instance),
                _ => request.run_on(engine, instance),
            }
            .map_err(|e| format!("{}: {e}", kind.name()))?;
            let cost = packing.cost();
            let took = t.elapsed().as_secs_f64();
            s.policy_s[i] += took;
            s.run_s.push(took);
            #[allow(clippy::cast_precision_loss)]
            {
                s.ratio_sum[i] += cost as f64 / lb.max(1) as f64;
            }
            if lb > cost {
                s.lb_violations += 1;
                s.first_violation.get_or_insert_with(|| {
                    format!("{}: LB(i) {lb} exceeds cost {cost}", kind.name())
                });
            }
            s.costs.push(cost);
        }
    }
    s.seconds = start.elapsed().as_secs_f64();
    Ok(s)
}

/// `paper-fig4`: the Table-2 grid × seeds × the seven paper policies,
/// plus `lb_load`, on one thread with one reused engine.
///
/// # Errors
///
/// Packing failures.
pub fn paper_fig4(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut setup = || Ok(fig4_instances(ctx));
    let (instances, mut setups) = time_setup(ctx, &mut setup)?;
    let suite = PolicyKind::paper_suite(ctx.seed);
    let mut engine = Engine::new();
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (sweeps, peak) = measure(ctx, budget, &mut setups, &mut setup, || {
        let s = sweep(&instances, &suite, &mut engine, None)?;
        eprintln!("paper-fig4: sweep {:.4} s", s.seconds);
        Ok(s)
    })?;
    let items: usize = instances.iter().map(Instance::len).sum();
    #[allow(clippy::cast_precision_loss)]
    let events = 2.0 * items as f64;
    #[allow(clippy::cast_precision_loss)]
    let runs = instances.len() as f64;
    out.set("setup_s", setup_s(&setups));
    out.set("peak_rss_mb", peak);
    // Each (instance, policy) run at its fastest sweep, as the
    // long-stream workloads take each block.
    let totals: Vec<f64> = sweeps.iter().map(|s| s.seconds).collect();
    let run_times: Vec<&[f64]> = sweeps.iter().map(|s| s.run_s.as_slice()).collect();
    let fastest = elementwise_min(run_times.iter().copied());
    out.set("job_s", best_of_segments(&totals, &run_times));
    for (name, i) in [("first_fit", 1), ("best_fit", 2)] {
        let seconds: f64 = fastest.iter().skip(i).step_by(suite.len()).sum();
        out.set(&format!("{name}.events_per_s"), events / seconds);
        out.set(&format!("{name}.cost_ratio"), sweeps[0].ratio_sum[i] / runs);
    }
    out.set("p50_us", quantile_of(&fastest, 0.5) * 1e6);
    out.set("p95_us", quantile_of(&fastest, 0.95) * 1e6);
    let violations: usize = sweeps.iter().map(|s| s.lb_violations).sum();
    out.check(violations == 0, || {
        format!(
            "{violations} runs cost less than LB(i), e.g. {}",
            sweeps
                .iter()
                .find_map(|s| s.first_violation.clone())
                .unwrap_or_default()
        )
    });
    out.check(sweeps.iter().all(|s| s.costs == sweeps[0].costs), || {
        "sweep costs differ between repetitions".into()
    });
    if !ctx.trace {
        return Ok(());
    }

    out.set(
        "workloads.generate_ns_per_item",
        per_item(setups[0].seconds, items),
    );
    let mut counters = [Counter::default(), Counter::default()];
    let mut traced = Vec::new();
    repeat(ctx.seconds / 2.0, 3, || {
        counters = [Counter::default(), Counter::default()];
        traced.push(sweep(&instances, &suite, &mut engine, Some(&mut counters))?.seconds);
        Ok(())
    })?;
    // Self times are medians over the untraced sweeps; the observed
    // ones only give counts and the tracing overhead.
    let mid = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    for (i, kind) in suite.iter().enumerate() {
        let name = policy_name(kind);
        out.set(
            &format!("core.engine.{name}.ns_per_event"),
            mid(&|s| s.policy_s[i]) * 1e9 / events,
        );
        out.set(
            &format!("core.engine.{name}.cost_ratio"),
            sweeps[0].ratio_sum[i] / runs,
        );
    }
    counters[0].report("first_fit", out);
    counters[1].report("best_fit", out);
    out.set(
        "core.lower_bound.ns_per_event",
        mid(&|s| s.lb_s) * 1e9 / events,
    );
    let layers_s = mid(&|s| s.lb_s) + (0..7).map(|i| mid(&|s| s.policy_s[i])).sum::<f64>();
    record_ledger(out, mid(&|s| s.seconds), layers_s, median(&traced));
    // The other layers are probed on the largest grid instances
    // (d=5, μ=200).
    let probe = instances.last().expect("the grid is not empty").clone();
    layers::fill(out, &probe, &ctx.work, ctx.seed)
}
