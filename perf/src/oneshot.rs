//! One-shot workloads: each operation is `Mfti::fit` → one `eval_batch`
//! over the validation grid → `DescriptorSystem::poles`.
//!
//! The untraced run ([`measure`]) times whole operations. The traced
//! run ([`trace`]) times an untraced reference `Mfti::fit`, then replays
//! the steps of the fit through the layers' public functions (data →
//! pencil → realification → detection → stacked realization or factor
//! accumulation), checks that the replay reproduced the fit, and times
//! the sweep cold and warm and the pole computation on a fresh copy of
//! the fitted model.

use mfti_core::{
    metrics, realify, realize_real, FitOutcome, Fitter, LoewnerPencil, Mfti, TangentialData,
};
use mfti_numeric::diag::Stopwatch;
use mfti_numeric::{CMatrix, Complex, NumericError, RMatrix, Svd, SvdFactors};
use mfti_statespace::{DescriptorSystem, Macromodel};

use crate::heap;
use crate::host::{self, Calibration};
use crate::report::{mean, median, Digest, OpCosts, Run};
use crate::trace::Tracer;
use crate::workloads::{OneShotSet, Validation};

/// `Mfti::new()`'s realification tolerance: the replay must realify
/// exactly as the fit it reproduces.
const REALIFY_TOL: f64 = 1e-6;

/// Side of the square real GEMM that calibrates the machine's rate.
const GEMM_N: usize = 256;

/// The fit's layers in pipeline order: (span name, metric name).
const LAYERS: [(&str, &str); 6] = [
    ("data.build", "data.build_ms"),
    ("loewner.build", "loewner.build_ms"),
    ("realify", "realify.ms"),
    ("svd.detect", "svd.detect_ms"),
    ("realize.stacked", "realize.stacked_ms"),
    ("svd.accumulate", "svd.accumulate_ms"),
];

fn config(set: &OneShotSet) -> Mfti {
    Mfti::new()
        .directions(set.directions)
        .weights(set.weights.clone())
        .order_selection(set.selection)
}

fn real_model(outcome: &FitOutcome) -> Result<&DescriptorSystem<f64>, String> {
    outcome
        .model()
        .as_real()
        .ok_or_else(|| "the fit returned a complex model".to_string())
}

/// One served request: the model and what the caller reads from it.
struct Served {
    outcome: FitOutcome,
    responses: Vec<CMatrix>,
    poles: Vec<Complex>,
}

/// One operation.
fn serve(config: &Mfti, set: &OneShotSet, k: usize) -> Result<Served, String> {
    let input = &set.inputs[k];
    let validation = &set.validations[input.validation];
    let outcome = config.fit(&input.samples).map_err(|e| e.to_string())?;
    let model = real_model(&outcome)?;
    let responses = model
        .eval_batch(&validation.s_points)
        .map_err(|e| e.to_string())?;
    let poles = model.poles().map_err(|e| e.to_string())?;
    Ok(Served {
        outcome,
        responses,
        poles,
    })
}

/// The paper's ERR of `models` against `references`.
pub fn err<'a>(
    models: impl Iterator<Item = &'a CMatrix>,
    references: impl Iterator<Item = &'a CMatrix>,
) -> f64 {
    let errors: Vec<f64> = models
        .zip(references)
        .map(|(h, s)| (h - s).norm_2() / s.norm_2().max(f64::MIN_POSITIVE))
        .collect();
    metrics::err_rms(&errors)
}

/// Finite poles with a positive real part.
pub fn rhp_count(poles: &[Complex]) -> usize {
    poles.iter().filter(|p| p.re > 0.0).count()
}

/// Share of the finite poles in the open left half-plane.
pub fn stable_share(poles: &[Complex]) -> f64 {
    if poles.is_empty() {
        1.0
    } else {
        1.0 - rhp_count(poles) as f64 / poles.len() as f64
    }
}

fn complex_bits(d: &mut Digest, values: &[Complex]) {
    d.floats(values.iter().flat_map(|z| [z.re, z.im]));
}

/// Bits of a real descriptor model's matrices.
pub fn model_digest(d: &mut Digest, m: &DescriptorSystem<f64>) {
    for x in [m.e(), m.a(), m.b(), m.c(), m.d()] {
        d.word(x.rows() as u64);
        d.floats(x.as_slice().iter().copied());
    }
}

/// What the first visit of an input measured.
struct Scored {
    digest: u64,
    err_truth: f64,
    err_fit: f64,
    order: usize,
    stable_share: f64,
}

fn score(served: &Served, set: &OneShotSet, k: usize, digest: u64) -> Scored {
    let input = &set.inputs[k];
    let validation: &Validation = &set.validations[input.validation];
    Scored {
        digest,
        err_truth: err(served.responses.iter(), validation.truth.iter()),
        err_fit: err(
            validation.fitted_at.iter().map(|&i| &served.responses[i]),
            input.samples.matrices().iter(),
        ),
        order: served.outcome.order(),
        stable_share: stable_share(&served.poles),
    }
}

/// Whether the clock says to keep going: every input is visited at
/// least once, then requests continue until `seconds` have passed.
fn more(i: usize, n: usize, clock: &Stopwatch, seconds: f64) -> bool {
    i < n || clock.elapsed().as_secs_f64() < seconds
}

/// The untraced run: a closed loop of operations over the input pool.
pub fn measure(set: &OneShotSet, seconds: f64) -> Run {
    let config = config(set);
    let n = set.inputs.len();
    let mut run = Run::default();
    let mut scored: Vec<Option<Scored>> = (0..n).map(|_| None).collect();
    let mut costs = OpCosts::default();
    let mut calibration = Calibration::new();
    let clock = Stopwatch::start();
    let mut i = 0;
    while more(i, n, &clock, seconds) {
        let k = i % n;
        i += 1;
        run.attempted += 1;
        let probe_start = calibration.probe_ms();
        let heap_base = heap::start();
        let cpu_start = host::cpu_ms();
        let sw = Stopwatch::start();
        let served = serve(&config, set, k);
        let ms = sw.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = host::cpu_ms() - cpu_start;
        let heap_mb = heap::peak_mb_above(heap_base);
        let probe_ms = 0.5 * (probe_start + calibration.probe_ms());
        let served = match served {
            Ok(s) => s,
            Err(e) => {
                run.failed += 1;
                eprintln!("request {i} (input {k}) failed: {e}");
                continue;
            }
        };
        costs.push(ms, cpu_ms, probe_ms, heap_mb);
        let mut digest = Digest::default();
        complex_bits(&mut digest, &served.poles);
        for h in &served.responses {
            complex_bits(&mut digest, h.as_slice());
        }
        let digest = digest.value();
        match &scored[k] {
            None => scored[k] = Some(score(&served, set, k, digest)),
            Some(first) => run.check(first.digest == digest, || {
                format!("input {k}: a repeated request served a different model")
            }),
        }
    }

    let scored: Vec<(usize, &Scored)> = scored
        .iter()
        .enumerate()
        .filter_map(|(k, s)| s.as_ref().map(|s| (k, s)))
        .collect();
    run.check(!scored.is_empty(), || "no request succeeded".to_string());
    let err_truth = median(&scored.iter().map(|(_, s)| s.err_truth).collect::<Vec<_>>());
    let err_fit = median(&scored.iter().map(|(_, s)| s.err_fit).collect::<Vec<_>>());
    if let Some(order) = set.checks.order {
        for &(k, s) in &scored {
            run.check(s.order == order, || {
                format!("input {k}: detected order {} instead of {order}", s.order)
            });
        }
    }
    if let Some(bar) = set.checks.err_truth_each {
        for &(k, s) in &scored {
            run.check(s.err_truth < bar, || {
                format!(
                    "input {k}: err_truth {:.3e} is not below {bar:e}",
                    s.err_truth
                )
            });
        }
    }
    if let Some(bar) = set.checks.err_fit_median {
        run.check(err_fit < bar, || {
            format!("err_fit {err_fit:.3e} is not below {bar:e}")
        });
    }
    run.context = vec![
        ("err_truth", err_truth),
        ("err_fit", err_fit),
        ("probe_ms", calibration.median_ms()),
    ];
    run.context.extend(costs.context());
    run.end_to_end = costs.end_to_end().to_vec();
    run.end_to_end.extend([
        ("err_truth.digits", -err_truth.log10()),
        ("err_fit.digits", -err_fit.log10()),
        (
            "stable_pole_share",
            mean(
                &scored
                    .iter()
                    .map(|(_, s)| s.stable_share)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("success_rate", run.success_rate()),
    ]);
    run
}

/// The replay's view of one fit.
struct Replay {
    sv: Vec<f64>,
    k: usize,
    order: usize,
    /// The dense route's model; the restricted route's projection has
    /// no public entry, so it yields none.
    dense_model: Option<DescriptorSystem<f64>>,
}

/// Replays `Mfti::fit_pencil`'s real path through public calls, one
/// span per layer. `Ok(None)` when the detection decomposition needs
/// the recovery ladder, which has no public entry.
fn replay(
    tr: &mut Tracer,
    op: usize,
    parent: Option<usize>,
    set: &OneShotSet,
    k: usize,
) -> Result<Option<Replay>, String> {
    let samples = &set.inputs[k].samples;
    let data = tr
        .span("data.build", op, parent, || {
            TangentialData::build(samples, set.directions, &set.weights)
        })
        .map_err(|e| e.to_string())?;
    let pencil = tr
        .span("loewner.build", op, parent, || LoewnerPencil::build(&data))
        .map_err(|e| e.to_string())?;
    let real = tr
        .span("realify", op, parent, || realify(&pencil, REALIFY_TOL))
        .map_err(|e| e.to_string())?;
    let x0 = pencil.default_x0().re;
    let detected = tr.span("svd.detect", op, parent, || {
        Svd::bidiagonalize(&real.shifted_pencil(x0)).map(|partial| {
            let order = set.selection.detect(partial.singular_values());
            (partial, order)
        })
    });
    let (partial, order) = match detected {
        Ok((partial, order)) => (partial, order.map_err(|e| e.to_string())?),
        Err(NumericError::NoConvergence { .. }) => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let k_pencil = pencil.order();
    let dense_model = if 2 * order > k_pencil {
        Some(
            tr.span("realize.stacked", op, parent, || realize_real(&real, order))
                .map_err(|e| e.to_string())?,
        )
    } else {
        tr.span("svd.accumulate", op, parent, || {
            partial.accumulate(SvdFactors::Both, order)
        })
        .map_err(|e| e.to_string())?;
        None
    };
    Ok(Some(Replay {
        sv: partial.singular_values().to_vec(),
        k: k_pencil,
        order,
        dense_model,
    }))
}

/// Checks that the replay computed what the fit computed.
fn check_replay(run: &mut Run, k: usize, replay: &Replay, outcome: &FitOutcome) {
    let sv = outcome.pencil_singular_values().unwrap_or(&[]);
    let same_sv = sv.len() == replay.sv.len()
        && sv
            .iter()
            .zip(&replay.sv)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    run.check(same_sv, || {
        format!("input {k}: the replay's singular values differ from the fit's")
    });
    run.check(outcome.pencil_order() == Some(replay.k), || {
        format!("input {k}: replay K {} differs from the fit's", replay.k)
    });
    run.check(outcome.order() == replay.order, || {
        format!(
            "input {k}: replay order {} differs from the fit's",
            replay.order
        )
    });
    if let (Some(replayed), Ok(fitted)) = (&replay.dense_model, real_model(outcome)) {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        model_digest(&mut a, replayed);
        model_digest(&mut b, fitted);
        run.check(a.value() == b.value(), || {
            format!("input {k}: the replayed dense model differs from the fit's")
        });
    }
}

/// Achieved rate of a square real GEMM, in GFLOP/s (median of `reps`).
pub fn gemm_gflops(reps: usize) -> Result<f64, String> {
    let a = RMatrix::from_fn(GEMM_N, GEMM_N, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
    let b = RMatrix::from_fn(GEMM_N, GEMM_N, |i, j| ((i * 11 + j * 5) % 19) as f64 - 9.0);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sw = Stopwatch::start();
        let c = a.matmul(&b).map_err(|e| e.to_string())?;
        times.push(sw.elapsed().as_secs_f64());
        std::hint::black_box(c);
    }
    Ok(2.0 * (GEMM_N as f64).powi(3) / median(&times) / 1e9)
}

/// Per-input counts from the first traced visit.
struct Counts {
    k: usize,
    order: usize,
    dense: bool,
    fallback: bool,
    rhp: usize,
}

/// The traced run: reference fit, replay, sweep and poles per request.
pub fn trace(set: &OneShotSet, seconds: f64, gemm_reps: usize, tr: &mut Tracer) -> Run {
    let config = config(set);
    let n = set.inputs.len();
    let mut run = Run::default();
    let gemm = match gemm_gflops(gemm_reps) {
        Ok(g) => g,
        Err(e) => {
            run.failures.push(format!("GEMM calibration failed: {e}"));
            f64::NAN
        }
    };
    let mut counts: Vec<Option<Counts>> = (0..n).map(|_| None).collect();
    let clock = Stopwatch::start();
    let mut i = 0;
    while more(i, n, &clock, seconds) {
        let (op, k) = (i, i % n);
        i += 1;
        run.attempted += 1;
        let root = tr.open("oneshot.op", op, None);
        let traced = trace_one(&config, set, k, op, root, tr, &mut run);
        tr.close(root);
        match traced {
            Ok(c) => {
                if counts[k].is_none() {
                    counts[k] = Some(c);
                }
            }
            Err(e) => {
                run.failed += 1;
                eprintln!("traced request {op} (input {k}) failed: {e}");
            }
        }
    }

    let counts: Vec<&Counts> = counts.iter().flatten().collect();
    run.check(!counts.is_empty(), || {
        "no traced request succeeded".to_string()
    });
    let per_input = |f: &dyn Fn(&Counts) -> f64| counts.iter().map(|c| f(c)).collect::<Vec<_>>();
    let k_pencil = median(&per_input(&|c| c.k as f64));
    let fit_ms = tr.median_ms("mfti.fit");
    let mut layers_ms = 0.0;
    for (span, metric) in LAYERS {
        let ms = tr.median_ms(span);
        layers_ms += ms;
        run.per_layer.push((metric, ms));
    }
    // Golub–Van Loan flop counts of the bidiagonalizations, from the
    // dimensions: values-only K×K for detection; two 2K×K stacks
    // (4mn² − 4n³/3 each) for the dense realization.
    let detect_flops = 8.0 / 3.0 * k_pencil.powi(3);
    let stacked_flops = 2.0 * (4.0 * 2.0 - 4.0 / 3.0) * k_pencil.powi(3);
    let rate = |flops: f64, ms: f64| if ms > 0.0 { flops / ms / 1e6 } else { 0.0 };
    let detect_gflops = rate(detect_flops, tr.median_ms("svd.detect"));
    let stacked_gflops = rate(stacked_flops, tr.median_ms("realize.stacked"));
    run.per_layer.extend([
        ("mfti.fit_ms", fit_ms),
        ("mfti.unattributed_ms", fit_ms - layers_ms),
        ("mfti.span_coverage", layers_ms / fit_ms),
        ("descriptor.sweep_ms", tr.median_ms("descriptor.sweep")),
        (
            "descriptor.sweep_warm_ms",
            tr.median_ms("descriptor.sweep_warm"),
        ),
        ("descriptor.poles_ms", tr.median_ms("descriptor.poles")),
        ("descriptor.rhp_poles", mean(&per_input(&|c| c.rhp as f64))),
        ("fit.K", k_pencil),
        ("fit.order", median(&per_input(&|c| c.order as f64))),
        (
            "fit.dense",
            mean(&per_input(&|c| f64::from(u8::from(c.dense)))),
        ),
        (
            "fit.svd_fallbacks",
            counts.iter().filter(|c| c.fallback).count() as f64,
        ),
        ("kernel.gemm_gflops", gemm),
        ("svd.detect_gflops", detect_gflops),
        ("realize.stacked_gflops", stacked_gflops),
        ("svd.detect_peak_share", detect_gflops / gemm),
        ("realize.stacked_peak_share", stacked_gflops / gemm),
        ("error_rate", run.error_rate()),
    ]);
    run
}

/// One traced request; replay mismatches are recorded on `run`.
fn trace_one(
    config: &Mfti,
    set: &OneShotSet,
    k: usize,
    op: usize,
    root: Option<usize>,
    tr: &mut Tracer,
    run: &mut Run,
) -> Result<Counts, String> {
    let samples = &set.inputs[k].samples;
    let outcome = tr
        .span("mfti.fit", op, root, || config.fit(samples))
        .map_err(|e| e.to_string())?;
    let replay_span = tr.open("mfti.replay", op, root);
    let replayed = replay(tr, op, replay_span, set, k);
    tr.close(replay_span);
    let replayed = replayed?;
    if let Some(r) = &replayed {
        check_replay(run, k, r, &outcome);
    }
    // A fresh copy carries an empty sweep cache: the first sweep pays
    // the set-up a newly fitted model pays, the second reuses it.
    let model = real_model(&outcome)?.clone();
    let s_points = &set.validations[set.inputs[k].validation].s_points;
    tr.span("descriptor.sweep", op, root, || model.eval_batch(s_points))
        .map_err(|e| e.to_string())?;
    tr.span("descriptor.sweep_warm", op, root, || {
        model.eval_batch(s_points)
    })
    .map_err(|e| e.to_string())?;
    let poles = tr
        .span("descriptor.poles", op, root, || model.poles())
        .map_err(|e| e.to_string())?;
    Ok(Counts {
        k: outcome.pencil_order().unwrap_or(0),
        order: outcome.order(),
        dense: replayed.as_ref().is_some_and(|r| r.dense_model.is_some()),
        fallback: replayed.is_none(),
        rhp: rhp_count(&poles),
    })
}
