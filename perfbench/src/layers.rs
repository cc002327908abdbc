//! Per-layer probes: time one layer's public functions on a workload's
//! own inputs. A workload measures the layers on its path from its own
//! job; these probes fill in every other layer, on the same items, so
//! each traced run reports the whole per-layer list.

use crate::report::Outcome;
use crate::serving::{self, Lane, TimedFile};
use crate::stats::{median, quantile_of};
use dvbp_core::{
    live_ops, Engine, EventSource, Instance, InstanceSource, Item, LiveOp, PackRequest, PolicyKind,
    RepackPolicy, StreamingLowerBound, TimeMode, TraceMode,
};
use dvbp_dimvec::DimVec;
use dvbp_obs::{Observer, Place, SyncPolicy};
use dvbp_serve::router::{Router, RouterKind};
use dvbp_serve::{Client, Request, Shard};
use dvbp_sim::Time;
use dvbp_traces::{write_azure_csv, OpenOptions, TraceFormat, AZURE_TICKS_PER_DAY};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

/// Counts what the engine's observer hooks report: scans, opens, and
/// the open-bin peak.
#[derive(Default)]
pub struct Counter {
    pub arrivals: u64,
    pub scanned: u64,
    pub open: u64,
    pub open_peak: u64,
    pub opened: u64,
}

impl Observer for Counter {
    fn on_bin_open(&mut self, _time: Time, _bin: usize) {
        self.open += 1;
        self.opened += 1;
        self.open_peak = self.open_peak.max(self.open);
    }

    fn on_place(&mut self, ev: Place) {
        self.arrivals += 1;
        self.scanned += ev.scanned;
    }

    fn on_bin_close(&mut self, _time: Time, _bin: usize) {
        self.open -= 1;
    }
}

impl Counter {
    /// Records this run's counts as `core.engine.<policy>.*`.
    pub fn report(&self, policy: &str, out: &mut Outcome) {
        #[allow(clippy::cast_precision_loss)]
        {
            out.set(
                &format!("core.engine.{policy}.probes_per_arrival"),
                self.scanned as f64 / self.arrivals.max(1) as f64,
            );
            out.set(
                &format!("core.engine.{policy}.open_bins_peak"),
                self.open_peak as f64,
            );
            out.set(
                &format!("core.engine.{policy}.bins_opened"),
                self.opened as f64,
            );
        }
    }
}

/// Metric-name segment of a paper policy.
#[must_use]
pub fn policy_name(kind: &PolicyKind) -> &'static str {
    match kind {
        PolicyKind::MoveToFront => "move_to_front",
        PolicyKind::FirstFit => "first_fit",
        PolicyKind::BestFit(_) => "best_fit",
        PolicyKind::NextFit => "next_fit",
        PolicyKind::LastFit => "last_fit",
        PolicyKind::RandomFit { .. } => "random_fit",
        PolicyKind::WorstFit(_) => "worst_fit",
        _ => "other",
    }
}

/// The first `items` items of `instance` (all of them if fewer).
#[must_use]
fn prefix(instance: &Instance, items: usize) -> Instance {
    if instance.items.len() <= items {
        return instance.clone();
    }
    Instance::new(instance.capacity.clone(), instance.items[..items].to_vec())
        .expect("a prefix of a valid instance is valid")
}

/// An instance from a generator's `(arrival, departure, size)` stream.
#[must_use]
pub fn instance_of(capacity: &DimVec, items: dvbp_traces::ItemIter) -> Instance {
    Instance::new(
        capacity.clone(),
        items.map(|(a, d, size)| Item::new(size, a, d)).collect(),
    )
    .expect("generators yield valid items")
}

#[allow(clippy::cast_precision_loss)]
fn per(total_ns: f64, count: usize) -> f64 {
    total_ns / count.max(1) as f64
}

/// Drains an instance's canonical event stream (build included); ns.
fn drain_source(instance: &Instance) -> f64 {
    let t = Instant::now();
    let mut src = InstanceSource::new(instance).expect("generated instances are valid");
    while let Some(op) = src.next_event().expect("in-memory source") {
        black_box(op);
    }
    t.elapsed().as_secs_f64() * 1e9
}

/// Fills every per-layer metric `out` does not hold yet by probing the
/// layers on `instance` (on a prefix of it for the costlier probes).
/// `dir` is a scratch directory for WAL files.
///
/// # Errors
///
/// Probe failures (rejected ops, I/O).
pub fn fill(out: &mut Outcome, instance: &Instance, dir: &Path, seed: u64) -> Result<(), String> {
    let events = 2 * instance.len();
    if !out.has("core.source.ns_per_event") {
        let ns = median(&[
            drain_source(instance),
            drain_source(instance),
            drain_source(instance),
        ]);
        out.set("core.source.ns_per_event", per(ns, events));
    }
    if !out.has("traces.parse_ns_per_event") {
        probe_parse(out, instance)?;
    }
    if !out.has("core.lower_bound.ns_per_event") {
        let drain = drain_source(instance);
        let t = Instant::now();
        let mut src = InstanceSource::new(instance).expect("valid instance");
        let mut lb = StreamingLowerBound::new(&instance.capacity);
        while let Some(op) = src.next_event().expect("in-memory source") {
            lb.observe(&op);
        }
        black_box(lb.value());
        let with_lb = t.elapsed().as_secs_f64() * 1e9;
        out.set(
            "core.lower_bound.ns_per_event",
            per((with_lb - drain).max(0.0), events),
        );
    }
    probe_engines(out, instance, seed)?;
    if !out.has("core.engine.per_run_ns") {
        out.set("core.engine.per_run_ns", per_run_ns());
    }
    let small = prefix(instance, 20_000);
    if !out.has("serve.recovery.replay_ns_per_record") {
        probe_recovery(out, &small, dir)?;
    }
    if !out.has("serve.shard.arrive_ns") {
        probe_request_path(out, &small)?;
    }
    if !out.has("serve.wal.fsync_ns") {
        probe_wal(out, &prefix(instance, 300), dir)?;
    }
    if !out.has("serve.server.e2e.mean_ns") {
        probe_server(out, &prefix(instance, 2_000), dir)?;
    }
    Ok(())
}

fn probe_parse(out: &mut Outcome, instance: &Instance) -> Result<(), String> {
    let mut csv = Vec::new();
    // The Azure schema lists rows in arrival order.
    let mut items = instance
        .items
        .iter()
        .map(|it| (it.arrival, it.departure, it.size.clone()))
        .collect::<Vec<_>>();
    items.sort_by_key(|&(arrival, _, _)| arrival);
    write_azure_csv(
        items.into_iter(),
        &instance.capacity,
        AZURE_TICKS_PER_DAY,
        &mut csv,
    )
    .map_err(|e| e.to_string())?;
    let options = OpenOptions {
        capacity: Some(instance.capacity.clone()),
        ..OpenOptions::default()
    };
    let mut samples = Vec::new();
    let mut rows = 0;
    for _ in 0..3 {
        let reader = Cursor::new(csv.clone());
        let t = Instant::now();
        let mut src = TraceFormat::Azure
            .open_reader(reader, &options)
            .map_err(|e| e.to_string())?;
        let mut n = 0usize;
        while let Some(op) = src.next_event().map_err(|e| e.to_string())? {
            black_box(op);
            n += 1;
        }
        samples.push(per(t.elapsed().as_secs_f64() * 1e9, n));
        rows = src.stats().rows;
    }
    out.set("traces.parse_ns_per_event", median(&samples));
    #[allow(clippy::cast_precision_loss)]
    out.set("traces.rows_read", rows as f64);
    Ok(())
}

/// Engine self time and cost ratio of every paper policy not already
/// measured, over `instance` (at most 50k items): source→engine run
/// minus source drain.
fn probe_engines(out: &mut Outcome, instance: &Instance, seed: u64) -> Result<(), String> {
    let sample = prefix(instance, 50_000);
    let events = 2 * sample.len();
    let lb = dvbp_offline::lb_load(&sample);
    let mut engine = Engine::new();
    for kind in PolicyKind::paper_suite(seed) {
        let name = policy_name(&kind);
        let key = format!("core.engine.{name}.ns_per_event");
        if out.has(&key) {
            continue;
        }
        let drain = drain_source(&sample);
        let mut counter = Counter::default();
        let t = Instant::now();
        let mut src = InstanceSource::new(&sample).map_err(|e| e.to_string())?;
        let packing = PackRequest::new(kind.clone())
            .trace_mode(TraceMode::CostOnly)
            .observer(&mut counter)
            .run_source_on(&mut engine, &mut src)
            .map_err(|e| format!("{name}: {e}"))?;
        let run = t.elapsed().as_secs_f64() * 1e9;
        out.set(&key, per((run - drain).max(0.0), events));
        #[allow(clippy::cast_precision_loss)]
        out.set_default(
            &format!("core.engine.{name}.cost_ratio"),
            packing.cost() as f64 / lb.max(1) as f64,
        );
        if matches!(name, "first_fit" | "best_fit")
            && !out.has(&format!("core.engine.{name}.bins_opened"))
        {
            counter.report(name, out);
        }
    }
    Ok(())
}

/// Fixed cost of one tiny run (a 4-item instance) on a reused engine.
fn per_run_ns() -> f64 {
    let cap = DimVec::from_slice(&[10, 10]);
    let items = (0..4u64)
        .map(|i| Item::new(DimVec::from_slice(&[3, 4]), i, i + 3))
        .collect();
    let instance = Instance::new(cap, items).expect("valid tiny instance");
    let mut engine = Engine::new();
    let mut samples = Vec::with_capacity(50);
    for _ in 0..50 {
        let t = Instant::now();
        for _ in 0..100 {
            let p = PackRequest::new(PolicyKind::FirstFit)
                .trace_mode(TraceMode::CostOnly)
                .run_on(&mut engine, black_box(&instance))
                .expect("tiny run");
            black_box(p.cost());
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / 100.0);
    }
    median(&samples)
}

/// An in-memory shard driven over `instance`'s canonical ops.
fn drive_shard<W: dvbp_obs::StableWrite>(
    shard: &mut Shard<W>,
    ops: &[LiveOp],
    arrive_ns: &mut Vec<f64>,
    depart_ns: &mut Vec<f64>,
) -> Result<(), String> {
    for op in ops {
        match op {
            LiveOp::Arrive { item, size, time } => {
                let id = format!("p{item}");
                let t = Instant::now();
                shard
                    .arrive(&id, size.clone(), *time)
                    .map_err(|e| format!("probe arrive {id}: {e}"))?;
                arrive_ns.push(t.elapsed().as_secs_f64() * 1e9);
            }
            LiveOp::Depart { item, time } => {
                let id = format!("p{item}");
                let t = Instant::now();
                shard
                    .depart(&id, *time)
                    .map_err(|e| format!("probe depart {id}: {e}"))?;
                depart_ns.push(t.elapsed().as_secs_f64() * 1e9);
            }
        }
    }
    Ok(())
}

fn memory_shard(capacity: &DimVec) -> Result<Shard<Vec<u8>>, String> {
    Shard::create(
        capacity.clone(),
        &PolicyKind::FirstFit,
        RepackPolicy::NoRepack,
        TraceMode::CostOnly,
        TimeMode::Clamp,
        Vec::new(),
        SyncPolicy::PerEvent,
        None,
    )
    .map_err(|e| e.to_string())
}

/// Recovery of a log written over `instance`'s first 20k items.
fn probe_recovery(out: &mut Outcome, instance: &Instance, dir: &Path) -> Result<(), String> {
    let mut shard = memory_shard(&instance.capacity)?;
    let ops = live_ops(instance);
    // Stop halfway so part of the items stay live, as in a service.
    let half = &ops[..ops.len() / 2];
    drive_shard(&mut shard, half, &mut Vec::new(), &mut Vec::new())?;
    let bytes = shard.into_wal_bytes();
    let path = dir.join("probe-recovery.wal");
    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let read = std::fs::read(&path).map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let rec = dvbp_serve::recover(
        &read,
        &instance.capacity,
        &PolicyKind::FirstFit,
        RepackPolicy::NoRepack,
        TraceMode::CostOnly,
        TimeMode::Clamp,
        None,
    )
    .map_err(|e| e.to_string())?;
    let replay_ns = t.elapsed().as_secs_f64() * 1e9;
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("serve.recovery.read_s", read_s);
        out.set(
            "serve.recovery.replay_ns_per_record",
            replay_ns / rec.events_applied.max(1) as f64,
        );
        out.set("serve.recovery.records", rec.events_applied as f64);
        out.set("serve.wal.history_bytes", bytes.len() as f64);
        out.set("core.live.items_seen", rec.names.len() as f64);
        out.set(
            "core.live.active_items",
            (0..rec.names.len())
                .filter(|&i| !rec.live.has_departed(i))
                .count() as f64,
        );
    }
    Ok(())
}

/// Decode, encode, route, and shard dispatch (in-memory WAL) per op.
fn probe_request_path(out: &mut Outcome, instance: &Instance) -> Result<(), String> {
    let ops = live_ops(instance);
    let lines: Vec<serving::Op> = ops.iter().map(|op| serving::request_for(op, "p")).collect();
    let t = Instant::now();
    let mut decoded = Vec::with_capacity(lines.len());
    for op in &lines {
        decoded.push(serde_json::from_str::<Request>(&op.line).map_err(|e| e.to_string())?);
    }
    out.set(
        "serve.protocol.decode_ns",
        per(t.elapsed().as_secs_f64() * 1e9, lines.len()),
    );
    let t = Instant::now();
    for req in &decoded {
        black_box(serde_json::to_string(req).map_err(|e| e.to_string())?);
    }
    out.set(
        "serve.protocol.encode_ns",
        per(t.elapsed().as_secs_f64() * 1e9, lines.len()),
    );
    let router = Router::new(RouterKind::Hash, 1);
    let t = Instant::now();
    for op in &lines {
        if op.arrive {
            black_box(router.route_arrival(&op.id, |_| 0));
        } else {
            black_box(router.route_departure(&op.id));
        }
    }
    out.set(
        "serve.router.route_ns",
        per(t.elapsed().as_secs_f64() * 1e9, lines.len()),
    );
    let mut shard = memory_shard(&instance.capacity)?;
    let (mut arrive, mut depart) = (Vec::new(), Vec::new());
    drive_shard(&mut shard, &ops, &mut arrive, &mut depart)?;
    #[allow(clippy::cast_precision_loss)]
    {
        out.set(
            "serve.shard.arrive_ns",
            arrive.iter().sum::<f64>() / arrive.len().max(1) as f64,
        );
        out.set(
            "serve.shard.depart_ns",
            depart.iter().sum::<f64>() / depart.len().max(1) as f64,
        );
    }
    Ok(())
}

/// Append and fsync cost of a shard journaling to a real file with
/// per-event sync, over `instance`'s first 300 items (the header
/// record counts as one more op).
fn probe_wal(out: &mut Outcome, instance: &Instance, dir: &Path) -> Result<(), String> {
    let path = dir.join("probe-timed.wal");
    let mut timed = TimedFile::create(&path).map_err(|e| e.to_string())?;
    let ops = live_ops(instance);
    {
        let mut shard = Shard::create(
            instance.capacity.clone(),
            &PolicyKind::FirstFit,
            RepackPolicy::NoRepack,
            TraceMode::CostOnly,
            TimeMode::Clamp,
            &mut timed,
            SyncPolicy::PerEvent,
            None,
        )
        .map_err(|e| e.to_string())?;
        drive_shard(&mut shard, &ops, &mut Vec::new(), &mut Vec::new())?;
    }
    let n = ops.len() + 1;
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("serve.wal.append_ns", per(timed.write_ns as f64, n));
        out.set("serve.wal.bytes_per_op", timed.bytes as f64 / n as f64);
        out.set(
            "serve.wal.fsync_ns",
            per(timed.sync_ns as f64, timed.syncs as usize),
        );
        out.set("serve.wal.fsyncs_per_op", timed.syncs as f64 / n as f64);
    }
    drop(timed);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// A short open-loop drive of a fresh file-backed service over
/// `instance`'s first 2,000 items, for the server-stage, network, and
/// generator figures; then the service's output checks: zero error
/// responses, a fresh recovery of its log holds exactly the
/// acknowledged state, and a restart reports the pre-restart totals.
fn probe_server(out: &mut Outcome, instance: &Instance, dir: &Path) -> Result<(), String> {
    if instance.capacity.dim() != serving::capacity().dim() {
        // The service probe runs at the serving capacity; re-scale
        // other dimensionalities onto its first dimensions.
        let items = instance
            .items
            .iter()
            .map(|it| {
                let s = it.size.as_slice();
                let size = DimVec::from_fn(2, |j| s[j % s.len()].clamp(1, 100));
                Item::new(size, it.arrival, it.departure)
            })
            .collect();
        let remapped = Instance::new(serving::capacity(), items).map_err(|e| e.to_string())?;
        return probe_server(out, &remapped, dir);
    }
    let wal_dir = dir.join("probe-service");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let boot = serving::boot(&wal_dir, &PolicyKind::FirstFit)?;
    let mut src = InstanceSource::new(instance).map_err(|e| e.to_string())?;
    let lists = serving::split_ops(&mut src, "q")?;
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut lanes: Vec<Lane> = (0..lists.len()).map(|_| Lane::default()).collect();
    let result = serving::open_loop(
        &boot.running.addr,
        &lists,
        &mut lanes,
        3_000.0,
        // Half the ops: a lane runs dry only if it takes twice its share.
        (total as u64 / 2).min(1_500),
    );
    let metrics = boot.running.metrics();
    let before = Client::connect(&boot.running.addr)
        .and_then(|mut c| c.query())
        .map_err(|e| e.to_string());
    boot.running.stop();
    let open = result?;
    record_serve_figures(out, &open, &serving::stages(&metrics?));
    let errors: u64 = lanes.iter().map(|l| l.errors).sum();
    out.rejected(errors, || format!("server probe: {errors} error responses"));
    let failures =
        serving::check_recovered(&wal_dir, &PolicyKind::FirstFit, &HashSet::new(), &lanes)?;
    out.check(failures.is_empty(), || failures.join("; "));
    let expected = before?.per_shard.first().map(serving::totals);
    let restarted = serving::boot(&wal_dir, &PolicyKind::FirstFit)?;
    let recovered = restarted.status.per_shard.first().map(serving::totals);
    restarted.running.stop();
    out.check(expected.is_some() && recovered == expected, || {
        format!("restart reports {recovered:?}, not the pre-restart {expected:?}")
    });
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(())
}

/// Records the server-stage, network, and generator figures of one
/// open-loop phase.
fn record_serve_figures(out: &mut Outcome, open: &serving::OpenLoop, st: &serving::Stages) {
    for stage in dvbp_obs::Stage::ALL {
        out.set(
            &format!("serve.server.{}.mean_ns", stage.name()),
            st.mean_ns.get(stage.name()).copied().unwrap_or(0.0),
        );
    }
    out.set("serve.server.lock_wait.p95_ns", st.lock_wait_p95_ns);
    // `recv` spans the server's wait for the next request line, idle
    // time included; the service time of a request starts after it.
    let service_ns = st.e2e_mean_ns - st.mean_ns.get("recv").copied().unwrap_or(0.0);
    out.set("serve.server.e2e.mean_ns", service_ns);
    #[allow(clippy::cast_precision_loss)]
    let rtt_mean = open.rtt_ns.iter().sum::<f64>() / open.rtt_ns.len().max(1) as f64;
    out.set("net.loopback_ns", rtt_mean - service_ns);
    out.set("serve.ack_p50_us", quantile_of(&open.latencies_us, 0.5));
    out.set("serve.ack_p95_us", quantile_of(&open.latencies_us, 0.95));
    out.set("serve.ack_p99_us", quantile_of(&open.latencies_us, 0.99));
    out.set("serve.ack_p999_us", quantile_of(&open.latencies_us, 0.999));
    out.set("generator.max_late_us", open.max_late_us);
    #[allow(clippy::cast_precision_loss)]
    out.set("generator.backlog_end", open.backlog_end as f64);
}
