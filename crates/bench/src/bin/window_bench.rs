//! Steady-state cost profile of the **bounded-memory sliding window**
//! (`BENCH_session_window.json`).
//!
//! Streams `10 · W` one-pair appends through a `FitSession` under
//! `WindowPolicy::Sliding { capacity: W }` — clean for W ∈ {48, 96},
//! and with seeded additive noise for W = 48 — and times every append
//! individually. Once the window fills, each clean append is one
//! `LoewnerPencil::slide` (evict the oldest pair, append the new one)
//! plus a verified
//! `SvdUpdater::downdate_leading` / border update behind the probe
//! gate; a noisy window is full rank, so every steady-state downdate is
//! refused and the append re-anchors from a fresh decomposition of the
//! window. Both are history-independent work, so the per-append cost
//! must be **flat**: the median of the last decile of steady-state
//! appends may not exceed 1.5× the median of the first decile. A
//! superlinear leak anywhere in the eviction path (pencil growth,
//! trajectory replay, re-anchor churn) breaks that ratio and this
//! binary exits nonzero (DESIGN.md §9).
//!
//! Each configuration streams [`RUNS`] identical times, and the
//! statistic reads each append's **minimum** over the runs: host
//! contention inflates single appends at random, while a real leak
//! raises every run's cost alike. A short never-evicting
//! (`WindowPolicy::Unbounded`) control stream of the clean W = 48
//! system must read *above* 1.5× — the statistic still sees cost that
//! grows with history.
//!
//! Also asserts the bounded-memory contract directly: the peak pencil
//! order across the whole stream never exceeds the capacity.
//!
//! Usage: `cargo run --release -p mfti-bench --bin window_bench
//! [OUT.json]` (default: `BENCH_session_window.json` in the current
//! directory; schema shared with the other `BENCH_*.json` snapshots).

use std::time::Instant;

use criterion::BenchResult;
use mfti_core::{FitSession, Mfti, WindowPolicy};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};

/// Identical streams per configuration; the statistic reads each
/// append's minimum over them.
const RUNS: usize = 5;

/// Flat-cost bound: last-decile median over first-decile median.
const FLAT_BOUND: f64 = 1.5;

/// One-pair appends of the unbounded control stream (pencil order
/// 4 → 480).
const CONTROL_APPENDS: usize = 120;

/// (min, median, mean) over a slice of per-append nanosecond timings.
fn stats(ns: &[f64]) -> (f64, f64, f64) {
    let mut sorted = ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    (sorted[0], median, mean)
}

fn row(id: String, ns: &[f64]) -> BenchResult {
    let (min_ns, median_ns, mean_ns) = stats(ns);
    BenchResult {
        id,
        iterations: ns.len() as u64,
        min_ns,
        median_ns,
        mean_ns,
    }
}

/// The clean 2-port stream of the W = `capacity` configuration: full
/// weights (t = 2), so one pair per append carries 4 rows+cols.
fn clean_stream(capacity: usize, appends: usize) -> SampleSet {
    let sys = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x77_1ADE + capacity as u64)
        .build()
        .expect("seeded build");
    let grid = FrequencyGrid::log_space(1e6, 1e9, 2 * appends).expect("valid grid");
    SampleSet::from_system(&sys, &grid).expect("sampling")
}

/// Streams the first `appends` pairs of `stream` through a fresh
/// session under `policy`, [`RUNS`] times, checking the eviction
/// accounting and the final realize of each run. Returns each append's
/// minimum time over the runs (ns) and the peak pencil order.
fn min_append_times(
    label: &str,
    stream: &SampleSet,
    appends: usize,
    policy: WindowPolicy,
) -> (Vec<f64>, usize) {
    let mut best = vec![f64::INFINITY; appends];
    let mut peak = 0;
    for _ in 0..RUNS {
        let mut session = FitSession::new(Mfti::new()).window(policy);
        for (p, best) in best.iter_mut().enumerate() {
            let batch = stream.subset(&[2 * p, 2 * p + 1]).expect("pair");
            let t0 = Instant::now();
            session.append(&batch).expect("append");
            *best = best.min(t0.elapsed().as_nanos() as f64);
            peak = peak.max(session.pencil_order());
        }
        assert_eq!(
            session.pencil_order() + 4 * session.evicted_pairs(),
            4 * appends,
            "{label}: eviction accounting does not cover the stream"
        );
        session.realize().expect("realize");
    }
    (best, peak)
}

/// The flat-cost statistic over the steady-state appends (everything
/// after `warmup`): pushes the steady, first-decile and last-decile
/// rows, prints the summary line and returns the ratio of the
/// last-decile median to the first-decile median.
fn flatness(
    label: &str,
    ns: &[f64],
    warmup: usize,
    peak: usize,
    results: &mut Vec<BenchResult>,
) -> f64 {
    let steady = &ns[warmup..];
    let decile = steady.len() / 10;
    let first = &steady[..decile];
    let last = &steady[steady.len() - decile..];
    let (_, first_median, _) = stats(first);
    let (_, last_median, _) = stats(last);
    let ratio = last_median / first_median;
    println!(
        "{label}: {} appends, per-append minimum over {RUNS} runs: steady-state \
         first-decile median {:.0} µs | last-decile median {:.0} µs | ratio {ratio:.2}x | \
         peak K {peak}",
        ns.len(),
        first_median / 1e3,
        last_median / 1e3,
    );
    results.push(row(format!("session_window/{label}/append"), steady));
    results.push(row(format!("session_window/{label}/first_decile"), first));
    results.push(row(format!("session_window/{label}/last_decile"), last));
    ratio
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_session_window.json".to_string());

    let start = Instant::now();
    let mut results: Vec<BenchResult> = Vec::new();
    for (capacity, noisy) in [(48usize, false), (96, false), (48, true)] {
        // The window holds capacity/4 pairs and every steady-state
        // append evicts exactly one pair. Clean samples keep the window
        // numerically rank-deficient; 1e-4 noise makes it full rank.
        let label = if noisy {
            format!("w{capacity}_noisy")
        } else {
            format!("w{capacity}")
        };
        let appends = 10 * capacity;
        let mut stream = clean_stream(capacity, appends);
        if noisy {
            stream = NoiseModel::additive_relative(1e-4).apply(&stream, 0x77_1ADE);
        }
        let (ns, peak) =
            min_append_times(&label, &stream, appends, WindowPolicy::Sliding { capacity });
        assert!(
            peak <= capacity,
            "{label}: peak pencil order {peak} exceeds the window capacity"
        );
        // Steady state begins once the window has filled and slid a few
        // times; everything before that is warmup (growth-phase appends
        // are cheaper, which would flatter the ratio).
        let ratio = flatness(&label, &ns, capacity / 4 + 16, peak, &mut results);
        assert!(
            ratio <= FLAT_BOUND,
            "{label}: steady-state append cost is not flat (ratio {ratio:.2}x > {FLAT_BOUND}x)"
        );
    }

    // Control: the clean W = 48 system never evicting. Its pencil and
    // append cost grow with every pair, so the same statistic (same
    // warmup) must exceed the bound the windows are held to.
    let label = "unbounded_control";
    let stream = clean_stream(48, 10 * 48);
    let (ns, peak) = min_append_times(label, &stream, CONTROL_APPENDS, WindowPolicy::Unbounded);
    let ratio = flatness(label, &ns, 48 / 4 + 16, peak, &mut results);
    assert!(
        ratio > FLAT_BOUND,
        "{label}: a growing stream reads flat (ratio {ratio:.2}x <= {FLAT_BOUND}x), \
         so the statistic cannot catch cost growth"
    );

    criterion::write_json(&results, &out_path).expect("write window summary");
    println!("wrote {out_path} ({:.1} s)", start.elapsed().as_secs_f64());
}
