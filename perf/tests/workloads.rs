//! The benchmark's own tests, on reduced workloads (`--quick`) at a
//! seed other than the default. Run with
//! `cargo test --release --manifest-path perf/Cargo.toml`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mfti-perf");
const WORKLOADS: [&str; 3] = ["table1_t2", "example1_k16", "stream_w96"];
const SEED: &str = "7";

/// Metrics whose values are computed from the models alone, so they must
/// not depend on timing or on the thread count (besides every `count`
/// and `digits` metric).
const EXACT_RATIOS: [&str; 5] = [
    "stable_pole_share",
    "success_rate",
    "fit.dense",
    "session.retained_share",
    "error_rate",
];

/// One metric as printed: name, value text, unit.
type Metric = (String, String, String);

/// Runs one reduced workload and returns its result line's metrics.
fn run(workload: &str, trace: bool, threads: &str) -> Vec<Metric> {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "0",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("MFTI_THREADS", threads)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{workload}: {last}"
    );
    parse_metrics(last)
}

/// Parses `"name": {"value": v, "unit": "u"}` entries of a result line.
fn parse_metrics(line: &str) -> Vec<Metric> {
    let start = line.find("\"metrics\": {").expect("a metrics object");
    let parts: Vec<&str> = line[start + 12..].split("{\"value\": ").collect();
    parts
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').nth(1).expect("a metric name");
            let (value, rest) = w[1].split_once(", \"unit\": \"").expect("a unit");
            let unit = rest.split('"').next().expect("a unit");
            (name.to_string(), value.to_string(), unit.to_string())
        })
        .collect()
}

fn exact(metric: &Metric) -> bool {
    metric.2 == "count" || metric.2 == "digits" || EXACT_RATIOS.contains(&metric.0.as_str())
}

#[test]
fn every_workload_passes_its_checks_at_a_non_default_seed() {
    for workload in WORKLOADS {
        let metrics = run(workload, false, "2");
        for (name, value, _) in &metrics {
            let v: f64 = value.parse().expect("a number");
            assert!(v > 0.0, "{workload}: {name} = {value}");
        }
    }
}

/// `example1_k16` takes the restricted route, whose projection
/// (`realize_real_restricted`: bidiagonalizations of the 2:1 restricted
/// stacks) is not yet bit-identical across thread counts: the σ profile,
/// the accumulated factors and the sweep are, the projected model is
/// not. Its accuracy is compared to round-off until that is fixed.
const ROUND_OFF_ONLY: &str = "example1_k16";

#[test]
fn accuracy_and_counts_do_not_depend_on_the_thread_count() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let one = run(workload, trace, "1");
            let two = run(workload, trace, "2");
            assert_eq!(one.len(), two.len());
            for (a, b) in one.iter().zip(&two).filter(|(a, _)| exact(a)) {
                if workload == ROUND_OFF_ONLY && a.2 == "digits" {
                    let (x, y): (f64, f64) = (a.1.parse().unwrap(), b.1.parse().unwrap());
                    assert!(x > 12.0 && y > 12.0, "{workload}: {a:?} vs {b:?}");
                } else {
                    assert_eq!(a, b, "{workload} (trace {trace}): 1 vs 2 threads");
                }
            }
        }
    }
}

#[test]
fn printed_metrics_match_the_benchmark_file() {
    let file = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (trace, section) in [(false, "\"end_to_end\""), (true, "\"per_layer\"")] {
        let declared = &file[file.find(section).expect("section")..];
        let declared = &declared[..declared.find(']').expect("section end")];
        let printed = run("stream_w96", trace, "2");
        assert_eq!(printed.len(), declared.matches("\"name\": ").count());
        for (name, _, unit) in &printed {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                declared.contains(&entry),
                "{entry} is not declared in {section}"
            );
        }
    }
}
