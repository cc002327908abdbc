//! The service probe's machinery: a service booted in this process, an
//! open-loop NDJSON generator over loopback TCP, and the checks that a
//! restart recovers exactly the acknowledged state.
//!
//! The service runs with its defaults (one shard, per-event fsync) and
//! `TimeMode::Clamp`, because two connections interleave their ticks.

use crate::stats::{backlog_at_send, due_offset};
use dvbp_core::{EventSource, LiveOp, PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::{LogHistogram, SyncPolicy};
use dvbp_serve::router::RouterKind;
use dvbp_serve::server::{serve, ServeState};
use dvbp_serve::{parse_histograms, shard_wal_path, Client, ShardStatus};
use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Connections (and generator threads) in every serve phase.
pub const CONNECTIONS: usize = 2;

/// Bin capacity of every served item stream.
#[must_use]
pub fn capacity() -> DimVec {
    DimVec::from_slice(&[100, 100])
}

/// One request on the wire and the id it concerns.
#[derive(Clone)]
pub struct Op {
    pub line: String,
    pub id: String,
    pub arrive: bool,
}

/// Renders a live op as an NDJSON request for id `prefix{item}`.
#[must_use]
pub fn request_for(op: &LiveOp, prefix: &str) -> Op {
    match op {
        LiveOp::Arrive { item, size, time } => {
            let id = format!("{prefix}{item}");
            let dims: Vec<String> = size.as_slice().iter().map(u64::to_string).collect();
            Op {
                line: format!(
                    "{{\"Arrive\":{{\"id\":\"{id}\",\"size\":[{}],\"time\":{time}}}}}",
                    dims.join(",")
                ),
                id,
                arrive: true,
            }
        }
        LiveOp::Depart { item, time } => {
            let id = format!("{prefix}{item}");
            Op {
                line: format!("{{\"Depart\":{{\"id\":\"{id}\",\"time\":{time}}}}}"),
                id,
                arrive: false,
            }
        }
    }
}

/// Splits a stream's ops over the connections by item, keeping each
/// item's arrival before its departure on one connection.
///
/// # Errors
///
/// A source read failure.
pub fn split_ops(source: &mut dyn EventSource, prefix: &str) -> Result<Vec<Vec<Op>>, String> {
    let mut lists = vec![Vec::new(); CONNECTIONS];
    while let Some(op) = source.next_event().map_err(|e| e.to_string())? {
        let item = match &op {
            LiveOp::Arrive { item, .. } | LiveOp::Depart { item, .. } => *item,
        };
        lists[item % CONNECTIONS].push(request_for(&op, prefix));
    }
    Ok(lists)
}

/// A service running in this process.
pub struct Running {
    pub addr: String,
    state: Arc<ServeState<BufWriter<File>>>,
    thread: JoinHandle<std::io::Result<()>>,
}

/// A booted service and the status its first request returned.
pub struct Boot {
    pub running: Running,
    pub status: dvbp_serve::ServeStatus,
}

/// Boots a service over `dir` (recovering any log there) and waits
/// until a first `Query` is answered.
///
/// # Errors
///
/// Bind, recovery, and first-request failures.
pub fn boot(dir: &Path, policy: &PolicyKind) -> Result<Boot, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let (state, _reports) = ServeState::open(
        dir,
        &capacity(),
        policy,
        RepackPolicy::NoRepack,
        1,
        RouterKind::Hash,
        TraceMode::CostOnly,
        TimeMode::Clamp,
        SyncPolicy::PerEvent,
        None,
    )
    .map_err(|e| format!("boot from {}: {e}", dir.display()))?;
    let state = Arc::new(state);
    let thread = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(&state, &listener))
    };
    let running = Running {
        addr,
        state,
        thread,
    };
    let status = Client::connect(&running.addr)
        .and_then(|mut c| c.query())
        .map_err(|e| format!("first request: {e}"));
    match status {
        Ok(status) => Ok(Boot { running, status }),
        Err(e) => {
            running.stop();
            Err(e)
        }
    }
}

impl Running {
    /// The service's `/metrics` exposition.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&self) -> Result<String, String> {
        dvbp_serve::http_get(&self.addr, "/metrics").map_err(|e| e.to_string())
    }

    /// Shuts the service down and waits for its accept loop to end.
    pub fn stop(self) {
        self.state.begin_shutdown();
        // Wake the blocking accept so the loop sees the latch.
        let _ = TcpStream::connect(&self.addr);
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("serve loop ended with {e}"),
            Err(_) => eprintln!("serve loop panicked"),
        }
    }
}

/// One connection's position in its op list, and what it saw.
#[derive(Default)]
pub struct Lane {
    /// Ops sent and answered so far (prefix of the lane's list).
    pub cursor: usize,
    /// Ids whose arrival or departure was acknowledged.
    pub acked: Vec<(String, bool)>,
    pub errors: u64,
    pub error_lines: Vec<String>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends one op and waits for its reply; `Ok(false)` for an error
    /// response.
    fn call(&mut self, op: &Op, lane: &mut Lane) -> Result<bool, String> {
        self.writer
            .write_all(op.line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        lane.cursor += 1;
        let ok = n > 0 && !self.line.contains("\"Error\"");
        if ok {
            lane.acked.push((op.id.clone(), op.arrive));
        } else {
            lane.errors += 1;
            if lane.error_lines.len() < 3 {
                lane.error_lines
                    .push(format!("{} -> {}", op.line, self.line.trim()));
            }
        }
        Ok(ok)
    }
}

/// What an open-loop phase measured.
pub struct OpenLoop {
    /// Per-request latency from the due time, µs, in schedule order;
    /// failed requests are infinite (they miss every limit).
    pub latencies_us: Vec<f64>,
    /// Largest send delay behind schedule, µs.
    pub max_late_us: f64,
    /// Backlog as the last request was sent (1 = on schedule).
    pub backlog_end: u64,
    /// Client-side round trips (send to reply), ns.
    pub rtt_ns: Vec<f64>,
}

type LaneResult = Result<(Vec<(u64, f64)>, Vec<f64>, f64), String>;

/// Sends `requests` ops at `rate` per second over the connections,
/// open loop: request `i` is due at `start + i/rate` whatever happened
/// before it, and its latency counts from that due time. Each
/// connection has one request outstanding; a connection that is still
/// waiting leaves due requests to the other one.
///
/// # Errors
///
/// Transport failures, or too few ops left in the lanes.
pub fn open_loop(
    addr: &str,
    lists: &[Vec<Op>],
    lanes: &mut [Lane],
    rate: f64,
    requests: u64,
) -> Result<OpenLoop, String> {
    let slots = AtomicU64::new(0);
    let last_backlog = AtomicU64::new(1);
    let start = Instant::now();
    let results: Vec<LaneResult> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .zip(lanes.iter_mut())
            .map(|(ops, lane)| {
                let slots = &slots;
                let last_backlog = &last_backlog;
                s.spawn(move || -> LaneResult {
                    let mut conn = Conn::open(addr)?;
                    let mut lat = Vec::new();
                    let mut rtt = Vec::new();
                    let mut max_late = 0.0f64;
                    loop {
                        let slot = slots.fetch_add(1, Ordering::Relaxed);
                        if slot >= requests {
                            break;
                        }
                        let op = ops
                            .get(lane.cursor)
                            .ok_or("open-loop lane ran out of ops")?;
                        let due = start + due_offset(slot, rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        max_late = max_late.max(sent.saturating_duration_since(due).as_secs_f64());
                        if slot + 1 == requests {
                            last_backlog.store(
                                backlog_at_send(slot, sent - start, rate),
                                Ordering::Relaxed,
                            );
                        }
                        let ok = conn.call(op, lane)?;
                        let done = Instant::now();
                        rtt.push((done - sent).as_secs_f64() * 1e9);
                        lat.push((
                            slot,
                            if ok {
                                done.saturating_duration_since(due).as_secs_f64() * 1e6
                            } else {
                                f64::INFINITY
                            },
                        ));
                    }
                    Ok((lat, rtt, max_late * 1e6))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut by_slot = Vec::new();
    let mut out = OpenLoop {
        latencies_us: Vec::new(),
        max_late_us: 0.0,
        backlog_end: last_backlog.load(Ordering::Relaxed),
        rtt_ns: Vec::new(),
    };
    for r in results {
        let (lat, rtt, late) = r?;
        by_slot.extend(lat);
        out.rtt_ns.extend(rtt);
        out.max_late_us = out.max_late_us.max(late);
    }
    by_slot.sort_by_key(|&(slot, _)| slot);
    out.latencies_us = by_slot.into_iter().map(|(_, l)| l).collect();
    Ok(out)
}

/// Server-side stage figures scraped from `/metrics`.
pub struct Stages {
    /// Stage name → mean ns.
    pub mean_ns: BTreeMap<String, f64>,
    pub lock_wait_p95_ns: f64,
    pub e2e_mean_ns: f64,
}

/// Reads the nine stage histograms and the end-to-end histogram from a
/// `/metrics` exposition, merged over ops and shards.
#[must_use]
pub fn stages(metrics: &str) -> Stages {
    let mut by_stage: BTreeMap<String, LogHistogram> = BTreeMap::new();
    for h in parse_histograms(metrics, "dvbp_serve_stage_latency_ns") {
        by_stage
            .entry(h.label("stage").to_string())
            .or_default()
            .merge(&h.hist);
    }
    let mut e2e = LogHistogram::new();
    for h in parse_histograms(metrics, "dvbp_serve_request_latency_ns") {
        e2e.merge(&h.hist);
    }
    #[allow(clippy::cast_precision_loss)]
    Stages {
        mean_ns: by_stage
            .iter()
            .map(|(k, h)| (k.clone(), h.mean()))
            .collect(),
        lock_wait_p95_ns: by_stage
            .get("lock_wait")
            .map_or(0.0, |h| h.quantile(0.95) as f64),
        e2e_mean_ns: e2e.mean(),
    }
}

/// Replays the log under `dir` from scratch and checks that it holds
/// every acknowledged arrival that was not departed, and none that
/// was. Returns the failures: their count, then the first five.
///
/// # Errors
///
/// Read or recovery failures.
pub fn check_recovered(
    dir: &Path,
    policy: &PolicyKind,
    history_live: &HashSet<String>,
    lanes: &[Lane],
) -> Result<Vec<String>, String> {
    let bytes = std::fs::read(shard_wal_path(dir, 0)).map_err(|e| e.to_string())?;
    let rec = dvbp_serve::recover(
        &bytes,
        &capacity(),
        policy,
        RepackPolicy::NoRepack,
        TraceMode::CostOnly,
        TimeMode::Clamp,
        None,
    )
    .map_err(|e| format!("recovery after the drive: {e}"))?;
    let mut live: HashSet<String> = history_live.clone();
    let mut departed: HashSet<String> = HashSet::new();
    for lane in lanes {
        for (id, arrive) in &lane.acked {
            if *arrive {
                live.insert(id.clone());
            } else {
                live.remove(id);
                departed.insert(id.clone());
            }
        }
    }
    let mut failures = Vec::new();
    let state_of = |id: &str| rec.ids.get(id).map(|&item| rec.live.has_departed(item));
    for id in &live {
        if state_of(id) != Some(false) {
            failures.push(format!(
                "acknowledged arrival {id} is not live after recovery"
            ));
        }
    }
    for id in &departed {
        if state_of(id) != Some(true) {
            failures.push(format!(
                "acknowledged departure {id} is not departed after recovery"
            ));
        }
    }
    if !failures.is_empty() {
        let count = format!("{} ids recovered wrong", failures.len());
        failures.truncate(5);
        failures.insert(0, count);
    }
    Ok(failures)
}

/// The fields of a shard status a restart must preserve (the WAL-line
/// counters restart at boot by design).
#[must_use]
pub fn totals(s: &ShardStatus) -> [String; 8] {
    [
        s.policy.clone(),
        s.arrivals.to_string(),
        s.departures.to_string(),
        s.active_items.to_string(),
        s.open_bins.to_string(),
        s.bins_opened.to_string(),
        s.usage_time.clone(),
        s.last_time.to_string(),
    ]
}

/// A file WAL that times its own appends and fsyncs. A shard journals
/// through `&mut TimedFile`, so the probe sees exactly the shard's
/// writes and reads the counters once the shard is gone.
pub struct TimedFile {
    file: BufWriter<File>,
    pub write_ns: u128,
    pub bytes: u64,
    pub sync_ns: u128,
    pub syncs: u64,
}

impl TimedFile {
    /// Creates the file.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn create(path: &Path) -> std::io::Result<TimedFile> {
        Ok(TimedFile {
            file: BufWriter::new(File::create(path)?),
            write_ns: 0,
            bytes: 0,
            sync_ns: 0,
            syncs: 0,
        })
    }
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.file.write(buf)?;
        self.write_ns += t.elapsed().as_nanos();
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl dvbp_obs::StableWrite for TimedFile {
    fn persist(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        self.sync_ns += t.elapsed().as_nanos();
        self.syncs += 1;
        Ok(())
    }
}
