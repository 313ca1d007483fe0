//! The host side of a run: the speed probe and the process CPU clock
//! that the cost metric rests on, and the tags that identify what was
//! measured and where — the commit (or, in a checkout without git
//! metadata, a digest of the library sources), the CPU model, `nproc`,
//! the build profile and the process's peak resident memory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use mfti_numeric::diag::Stopwatch;

use crate::report::{median, Digest};

/// Fused multiply-adds per calibration probe.
const PROBE_FMAS: usize = 1 << 24;

/// The probe's time (ms) on the reference host (an otherwise idle
/// 2-vCPU Intel Xeon VM), which `model_cpu_ms` is scaled to.
pub const REFERENCE_PROBE_MS: f64 = 1.1;

/// How long a calibration reading stays current.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// The host's current speed, from a fixed floating-point probe.
///
/// On a shared host the same operation's cost drifts by 10–30% over
/// seconds to minutes, with the load other tenants put on the cores.
/// The probe — a sustained run of vectorized fused multiply-adds in L1,
/// written here rather than taken from the library, so that no library
/// change can move it — is timed next to the operations (median of
/// three, refreshed once older than 100 ms, about 3% of the run), and
/// each operation's CPU time is rescaled by the mean of the readings
/// current at its start and at its end to what it would have been at
/// the reference host's probe time.
#[derive(Debug)]
pub struct Calibration {
    x: Vec<f64>,
    last: Option<(Stopwatch, f64)>,
    readings: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            x: (0..1024).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect(),
            last: None,
            readings: Vec::new(),
        }
    }

    /// The current probe time, in ms.
    pub fn probe_ms(&mut self) -> f64 {
        if let Some((at, ms)) = &self.last {
            if at.elapsed() < PROBE_EVERY {
                return *ms;
            }
        }
        let mut times = [0.0; 3];
        for t in &mut times {
            let sw = Stopwatch::start();
            let mut acc = [0.0f64; 32];
            for _ in 0..PROBE_FMAS / self.x.len() {
                for chunk in self.x.chunks_exact(32) {
                    for (a, &v) in acc.iter_mut().zip(chunk) {
                        *a = v.mul_add(0.999, *a);
                    }
                }
            }
            std::hint::black_box(acc);
            *t = sw.elapsed().as_secs_f64() * 1e3;
        }
        let ms = median(&times);
        self.last = Some((Stopwatch::start(), ms));
        self.readings.push(ms);
        ms
    }

    /// Median of every reading taken, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.readings)
    }
}

/// The repository root: the benchmark package's parent directory.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// `git rev-parse HEAD` of the repository, when it has git metadata.
pub fn commit() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "unknown (no git metadata)".to_string();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a digest of every `.rs` and `Cargo.toml` file under the
/// library crates and the benchmark's sources, in sorted path order.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "perf/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            d.bytes(
                f.strip_prefix(&root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.bytes(&bytes);
        }
    }
    format!("{:016x}", d.value())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" {
                collect(&path, out);
            }
        } else if name == "Cargo.toml" || path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process, live or
/// exited, in ms (NaN if the clock is unavailable). Under paravirtual
/// steal accounting, time the host gave to other guests is not charged,
/// and neither is time spent waiting for a stalled worker thread.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // mfti-lint: allow(MFTI-D4) — `clock_gettime` only writes the
    // `timespec` passed to it, which lives in this stack frame.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
    } else {
        f64::NAN
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    Ok(kb / 1024.0)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
