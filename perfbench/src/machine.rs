//! The machine record and process-level probes: peak resident memory,
//! on-CPU share, and raw fsync latency. A slow disk or a noisy
//! neighbour then shows as such instead of being blamed on the code.

use crate::report::json_str;
use crate::stats::median;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Resets the kernel's peak-RSS watermark (`VmHWM`) to the current RSS,
/// so a later [`peak_rss_mb`] covers only what ran in between. Returns
/// whether the reset took effect (it needs Linux's `clear_refs`).
pub fn reset_peak_rss() -> bool {
    std::fs::OpenOptions::new()
        .write(true)
        .open("/proc/self/clear_refs")
        .and_then(|mut f| f.write_all(b"5"))
        .is_ok()
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], in MB (10^6 bytes). `None` off Linux.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Nanoseconds this thread has spent on a CPU (first field of
/// `/proc/thread-self/schedstat`).
fn thread_on_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU time ÷ wall time of a 100 ms busy loop on this thread. Near
/// 1 on a quiet machine; lower when neighbours steal the CPU. `None`
/// off Linux.
#[must_use]
fn on_cpu_share() -> Option<f64> {
    let cpu0 = thread_on_cpu_ns()?;
    let t0 = Instant::now();
    let mut x = 0u64;
    while t0.elapsed() < Duration::from_millis(100) {
        for i in 0..1_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
    }
    let wall = t0.elapsed();
    let cpu = thread_on_cpu_ns()?.saturating_sub(cpu0);
    #[allow(clippy::cast_precision_loss)]
    Some(cpu as f64 / wall.as_nanos() as f64)
}

/// Median latency in µs of appending ~100 bytes to a file in `dir` and
/// forcing it to stable storage, over 40 appends: the device cost
/// under every durable ack.
///
/// # Errors
///
/// Propagates file creation, write, and sync failures.
fn fsync_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe.bin");
    let mut file = std::fs::File::create(&path)?;
    let line = [b'x'; 100];
    let mut samples = Vec::with_capacity(40);
    for _ in 0..40 {
        let t = Instant::now();
        file.write_all(&line)?;
        file.sync_all()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// Logical CPUs available to this process.
#[must_use]
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `"unknown"`. The
/// child is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `HEAD` of the checkout's own git metadata, or `"none"` when the
/// checkout has none (git itself would search the parent directories).
fn git_commit() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "none".to_string()
    }
}

/// FNV-1a digest of every file under `crates/` and `vendor/` (paths
/// and contents, in sorted order): identifies the measured source when
/// the checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "Cargo.lock"] {
        let p = root.join(top);
        if p.is_dir() {
            walk(&p, &mut files);
        } else if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    format!("{hash:016x}")
}

/// Numeric environment figures, measured once per run.
pub struct Environment {
    pub nproc: usize,
    pub fsync_us: f64,
    pub on_cpu_share: f64,
}

impl Environment {
    /// Measures the environment; `dir` must be on the disk the
    /// workloads write to.
    ///
    /// # Errors
    ///
    /// Propagates fsync-probe I/O failures.
    pub fn measure(dir: &Path) -> std::io::Result<Environment> {
        Ok(Environment {
            nproc: nproc(),
            fsync_us: fsync_us(dir)?,
            on_cpu_share: on_cpu_share().unwrap_or(1.0),
        })
    }

    /// The machine record, one JSON line: the numeric figures plus CPU
    /// model, compiler, and source identity.
    #[must_use]
    pub fn record(&self, workload: &str, seed: u64) -> String {
        let fields = [
            ("workload", json_str(workload)),
            ("seed", seed.to_string()),
            ("nproc", self.nproc.to_string()),
            ("cpu_model", json_str(&cpu_model())),
            ("rustc", json_str(&command_line("rustc", &["--version"]))),
            ("git_commit", json_str(&git_commit())),
            ("source_digest", json_str(&source_digest(Path::new(".")))),
            ("device.fsync_us", self.fsync_us.to_string()),
            ("cpu.on_cpu_share", self.on_cpu_share.to_string()),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{\"machine\":{{{}}}}}", body.join(","))
    }
}
