//! What a run reports: the output checks it made, the metrics it
//! measured, and the one-line JSON result the benchmark prints last.

use crate::stats::{valid_name, valid_unit};
use std::collections::BTreeMap;

/// End-to-end metrics (measured with tracing off), with units. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MB"),
    ("job_s", "s"),
    ("first_fit.events_per_s", "events/s"),
    ("best_fit.events_per_s", "events/s"),
    ("first_fit.cost_ratio", "ratio"),
    ("best_fit.cost_ratio", "ratio"),
    ("p50_us", "us"),
    ("p95_us", "us"),
];

/// The seven paper policies in `PolicyKind::paper_suite` order, as
/// metric-name segments.
pub const POLICY_NAMES: [&str; 7] = [
    "move_to_front",
    "first_fit",
    "best_fit",
    "next_fit",
    "last_fit",
    "random_fit",
    "worst_fit",
];

/// Per-layer metrics (traced run), with units. Every workload reports
/// every one of them: layers off the workload's own path are probed on
/// the workload's inputs (see README.md).
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("workloads.generate_ns_per_item", "ns"),
        ("traces.parse_ns_per_event", "ns"),
        ("traces.rows_read", "count"),
        ("core.source.ns_per_event", "ns"),
        ("core.lower_bound.ns_per_event", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for policy in ["first_fit", "best_fit"] {
        for (what, unit) in [
            ("probes_per_arrival", "count"),
            ("open_bins_peak", "count"),
            ("bins_opened", "count"),
        ] {
            out.push((format!("core.engine.{policy}.{what}"), unit));
        }
    }
    for policy in POLICY_NAMES {
        out.push((format!("core.engine.{policy}.ns_per_event"), "ns"));
        out.push((format!("core.engine.{policy}.cost_ratio"), "ratio"));
    }
    for (n, u) in [
        ("core.engine.per_run_ns", "ns"),
        ("core.live.items_seen", "count"),
        ("core.live.active_items", "count"),
        ("serve.recovery.read_s", "s"),
        ("serve.recovery.replay_ns_per_record", "ns"),
        ("serve.recovery.records", "count"),
        ("serve.wal.history_bytes", "bytes"),
        ("serve.protocol.decode_ns", "ns"),
        ("serve.protocol.encode_ns", "ns"),
        ("serve.router.route_ns", "ns"),
        ("serve.shard.arrive_ns", "ns"),
        ("serve.shard.depart_ns", "ns"),
        ("serve.wal.append_ns", "ns"),
        ("serve.wal.bytes_per_op", "bytes"),
        ("serve.wal.fsync_ns", "ns"),
        ("serve.wal.fsyncs_per_op", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for stage in dvbp_obs::Stage::ALL {
        out.push((format!("serve.server.{}.mean_ns", stage.name()), "ns"));
    }
    for (n, u) in [
        ("serve.server.lock_wait.p95_ns", "ns"),
        ("serve.server.e2e.mean_ns", "ns"),
        ("net.loopback_ns", "ns"),
        ("serve.ack_p50_us", "us"),
        ("serve.ack_p95_us", "us"),
        ("serve.ack_p99_us", "us"),
        ("serve.ack_p999_us", "us"),
        ("generator.max_late_us", "us"),
        ("generator.backlog_end", "count"),
        ("device.fsync_us", "us"),
        ("cpu.on_cpu_share", "fraction"),
        ("machine.nproc", "count"),
        ("ledger.layers_s", "s"),
        ("ledger.e2e_s", "s"),
        ("ledger.closure", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Largest relative gap between a workload's layer self times and its
/// untraced end-to-end time that still closes the ledger.
pub const LEDGER_TOLERANCE: f64 = 0.25;

/// Output checks and metrics gathered by one run.
#[derive(Default)]
pub struct Outcome {
    /// Output checks made, plus operations that failed (rejected rows,
    /// error responses). Operations that succeed are not counted, so a
    /// single failure moves `ok_share` by more than its bound.
    pub attempted: u64,
    /// Failed output checks and failed operations.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    /// Metric name → value (units come from the declared lists).
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records `failed` failed operations (rejected rows, error
    /// responses): each counts as attempted and failed.
    pub fn rejected(&mut self, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += failed;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a metric only if no earlier measurement set it.
    pub fn set_default(&mut self, name: &str, value: f64) {
        self.metrics.entry(name.to_string()).or_insert(value);
    }

    /// Whether `name` is already measured.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// The share of attempted checks and operations that succeeded.
    #[must_use]
    pub fn ok_share(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let share = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        share
    }

    /// The result line for the declared metric list, or the names the
    /// run failed to measure (a bug in the benchmark).
    ///
    /// # Errors
    ///
    /// Lists declared metrics that are missing or not finite.
    pub fn result_line(&self, declared: &[(String, &'static str)]) -> Result<String, String> {
        let mut missing = Vec::new();
        let mut fields = Vec::new();
        for (name, unit) in declared {
            assert!(
                valid_name(name) && valid_unit(unit),
                "bad metric {name} [{unit}]"
            );
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => fields.push(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )),
                _ => missing.push(name.clone()),
            }
        }
        if !missing.is_empty() {
            return Err(format!("unmeasured metrics: {}", missing.join(", ")));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        all.extend(per_layer());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn declared_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let rendered = |name: &str, unit: &str| {
            format!("\"name\": {}, \"unit\": {}", json_str(name), json_str(unit))
        };
        for (name, unit) in END_TO_END {
            assert!(text.contains(&rendered(name, unit)), "{name} [{unit}]");
        }
        for (name, unit) in per_layer() {
            assert!(text.contains(&rendered(&name, unit)), "{name} [{unit}]");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            END_TO_END.len() + per_layer().len() + crate::WORKLOADS.len(),
            "BENCHMARK.json declares exactly the measured metrics and workloads"
        );
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("a.b", 1.5);
        o.set("c", 2.0);
        let declared = vec![("a.b".to_string(), "s"), ("c".to_string(), "count")];
        assert_eq!(
            o.result_line(&declared).unwrap(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a.b\":{\"value\":1.5,\"unit\":\"s\"},\"c\":{\"value\":2.0,\"unit\":\"count\"}}}"
        );
        let missing = vec![("zzz".to_string(), "s")];
        assert!(o.result_line(&missing).is_err());
        o.check(false, || "broken".to_string());
        assert!(o
            .result_line(&declared)
            .unwrap()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
        assert_eq!(o.ok_share(), 0.5);
        o.rejected(0, || unreachable!());
        o.rejected(2, || "two rows".to_string());
        assert_eq!((o.attempted, o.failed), (4, 3));
        assert_eq!(o.failures.len(), 2);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
