//! `mfti-perf`: time to a validated MFTI model, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload <table1_t2|example1_k16|stream_w96> --seed <n> \
//!     --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One closed-loop caller in this process sends each request only
//! after the previous one returned; the library keeps its default
//! thread count and the benchmark starts no threads of its own. The
//! workload's inputs are generated from the seed several times (the
//! timed set-up), then requests run for `--seconds` seconds (every
//! distinct input at least once). The outputs are checked before
//! anything is printed; a failed check exits with code 1 and no result.
//!
//! Standard output ends with two lines: the run's context (workload,
//! seed, commit, CPU, thread count, build profile) and the result
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Both, plus the traced run's spans, are also written to
//! `perf/results/<workload>-seed<n>-trace<t>.json`. `--quick` shrinks
//! every workload for the benchmark's own tests.

mod heap;
mod host;
mod oneshot;
mod report;
mod stream;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use mfti_numeric::diag::Stopwatch;
use mfti_numeric::parallel;

use report::{median, result_line, Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{Inputs, Sizes, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: mfti-perf --workload <table1_t2|example1_k16|stream_w96> \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 9;

/// GEMM calibration repetitions in a traced one-shot run.
const GEMM_REPS: usize = 15;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` is 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mfti-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mfti-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let sizes = Sizes::new(args.quick);
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..repeats {
        // Drop the previous copy first, so peak memory holds one.
        drop(inputs.take());
        let sw = Stopwatch::start();
        let built = workloads::build(args.workload, args.seed, sizes)?;
        setup_s.push(sw.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let seconds = args.seconds as f64;
    let mut tracer = Tracer::new(args.trace);
    let gemm_reps = if args.quick { 3 } else { GEMM_REPS };
    let run = match (&inputs, args.trace) {
        (Inputs::OneShot(set), false) => oneshot::measure(set, seconds),
        (Inputs::OneShot(set), true) => oneshot::trace(set, seconds, gemm_reps, &mut tracer),
        (Inputs::Stream(set), _) => stream::run(set, seconds, &mut tracer),
    };
    if !run.failures.is_empty() {
        for f in &run.failures {
            eprintln!("check failed: {f}");
        }
        return Err(format!("{} output check(s) failed", run.failures.len()));
    }

    let (table, values) = if args.trace {
        (PER_LAYER, &run.per_layer)
    } else {
        (END_TO_END, &run.end_to_end)
    };
    let mut metrics = Metrics::new(table);
    for &(name, value) in values {
        metrics.set(name, value)?;
    }
    if !args.trace {
        metrics.set("setup_s", median(&setup_s))?;
    }
    let mut context = run.context;
    context.push(("vmhwm_mb", host::peak_rss_mb()?));
    let (metrics_json, not_exercised) = metrics.finish(args.trace)?;
    let context = context_json(args, &inputs, repeats, &not_exercised, &context);
    let result = result_line(run.attempted, run.failed, &metrics_json);
    let path = write_results(args, &context, &result, &tracer)?;
    eprintln!(
        "mfti-perf: {} seed {}: {} operations, {} failed; written to {}",
        args.workload.name(),
        args.seed,
        run.attempted,
        run.failed,
        path.display()
    );
    println!("{{\"context\": {context}}}");
    println!("{result}");
    Ok(())
}

fn context_json(
    args: &Args,
    inputs: &Inputs,
    repeats: usize,
    not_exercised: &[&str],
    figures: &[(&str, f64)],
) -> String {
    let distinct = match inputs {
        Inputs::OneShot(set) => set.inputs.len(),
        Inputs::Stream(set) => set.pairs.len(),
    };
    let skipped: Vec<String> = not_exercised.iter().map(|n| host::quote(n)).collect();
    let figures: Vec<String> = figures
        .iter()
        .map(|(n, v)| format!("{}: {v:?}", host::quote(n)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"commit\": {}, \"source_digest\": {}, \"cpu\": {}, \"nproc\": {}, \"threads\": {}, \
         \"profile\": {}, \"setup_repeats\": {repeats}, \"distinct_inputs\": {distinct}, \
         \"figures\": {{{}}}, \"not_exercised\": [{}]}}",
        host::quote(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        host::quote(&host::commit()),
        host::quote(&host::source_digest()),
        host::quote(&host::cpu_model()),
        host::nproc(),
        parallel::available_threads(),
        host::quote(host::profile()),
        figures.join(", "),
        skipped.join(", "),
    )
}

/// Writes context, result and spans under `perf/results/`.
fn write_results(
    args: &Args,
    context: &str,
    result: &str,
    tracer: &Tracer,
) -> Result<std::path::PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"context\": {context},\n\"result\": {result},\n\"spans\": {}}}\n",
        tracer.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
