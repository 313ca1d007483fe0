//! The stream workload: each operation is `FitSession::append` of one
//! sample pair, then `realize()`, then `poles()` on the refreshed model.
//!
//! A pass streams every pair through a fresh sliding-window session;
//! passes repeat until the run's time is up, and every pass after the
//! first must reproduce the first bit for bit. The same code serves the
//! untraced and the traced run: with the recorder disabled, the spans
//! cost nothing.

use mfti_core::{FitOutcome, FitSession, Mfti, Reanchor, WindowPolicy};
use mfti_numeric::diag::Stopwatch;
use mfti_numeric::Complex;
use mfti_statespace::{DescriptorSystem, Macromodel};

use crate::heap;
use crate::host::{self, Calibration};
use crate::oneshot::{err, model_digest, rhp_count, stable_share};
use crate::report::{median, Digest, OpCosts, Run};
use crate::trace::Tracer;
use crate::workloads::StreamSet;

/// One operation.
fn serve(
    session: &mut FitSession,
    set: &StreamSet,
    p: usize,
    op: usize,
    root: Option<usize>,
    tr: &mut Tracer,
) -> Result<(FitOutcome, Vec<Complex>), String> {
    tr.span("session.append", op, root, || session.append(&set.pairs[p]))
        .map_err(|e| e.to_string())?;
    let outcome = tr
        .span("session.realize", op, root, || session.realize())
        .map_err(|e| e.to_string())?;
    let model = outcome
        .model()
        .as_real()
        .ok_or_else(|| "realize returned a complex model".to_string())?;
    let poles = tr
        .span("descriptor.poles", op, root, || model.poles())
        .map_err(|e| e.to_string())?;
    Ok((outcome, poles))
}

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    models: usize,
    rhp: usize,
    stable_share_sum: f64,
    retained: usize,
    peak_k: usize,
    err_truth: f64,
    err_fit: f64,
    refreshes: usize,
    quarantines: usize,
    shadow: usize,
    fresh: usize,
    gk: usize,
    evicted_pairs: usize,
    digest: u64,
}

/// Streams every pair through a fresh session.
fn pass(
    set: &StreamSet,
    index: usize,
    tr: &mut Tracer,
    run: &mut Run,
    costs: &mut OpCosts,
    calibration: &mut Calibration,
) -> Pass {
    let n = set.pairs.len();
    let mut session = FitSession::new(Mfti::new()).window(WindowPolicy::Sliding {
        capacity: set.capacity,
    });
    let mut st = Pass::default();
    let mut last: Option<DescriptorSystem<f64>> = None;
    for p in 0..n {
        let op = index * n + p;
        run.attempted += 1;
        let probe_start = calibration.probe_ms();
        let heap_base = heap::start();
        let cpu_start = host::cpu_ms();
        let sw = Stopwatch::start();
        let root = tr.open("session.op", op, None);
        let served = serve(&mut session, set, p, op, root, tr);
        tr.close(root);
        let ms = sw.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = host::cpu_ms() - cpu_start;
        let heap_mb = heap::peak_mb_above(heap_base);
        let probe_ms = 0.5 * (probe_start + calibration.probe_ms());
        st.peak_k = st.peak_k.max(session.pencil_order());
        let (outcome, poles) = match served {
            Ok(s) => s,
            Err(e) => {
                run.failed += 1;
                eprintln!("append {p} of pass {index} failed: {e}");
                continue;
            }
        };
        costs.push(ms, cpu_ms, probe_ms, heap_mb);
        st.models += 1;
        st.rhp += rhp_count(&poles);
        st.stable_share_sum += stable_share(&poles);
        // The session serves a model from its retained factors exactly
        // when it holds an updater of rank q ≥ order with 2q ≤ K.
        if let Some(q) = session.retained_rank() {
            if outcome.order() <= q && 2 * q <= session.pencil_order() {
                st.retained += 1;
            }
        }
        last = outcome.model().as_real().cloned();
    }

    run.check(st.peak_k <= set.capacity, || {
        format!(
            "peak pencil order {} exceeds the window capacity {}",
            st.peak_k, set.capacity
        )
    });
    st.evicted_pairs = session.evicted_pairs();
    run.check(
        session.pencil_order() + set.pair_width * st.evicted_pairs == set.pair_width * n,
        || "eviction accounting does not cover the stream".to_string(),
    );
    let same_window = session.samples().is_some_and(|s| {
        s.freqs_hz().len() == set.final_window.freqs_hz().len()
            && s.freqs_hz()
                .iter()
                .zip(set.final_window.freqs_hz())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    run.check(same_window, || {
        "the final window does not hold the expected samples".to_string()
    });
    for d in session.signal_trajectory() {
        st.refreshes += usize::from(d.refreshed);
        st.quarantines += usize::from(d.quarantined);
        match d.reanchor {
            Some(Reanchor::ShadowSwap) => st.shadow += 1,
            Some(Reanchor::FreshBlocked) => st.fresh += 1,
            Some(Reanchor::GolubKahan) => st.gk += 1,
            _ => {}
        }
    }

    let mut digest = Digest::default();
    for c in [
        st.models,
        st.rhp,
        st.retained,
        st.refreshes,
        st.quarantines,
        st.evicted_pairs,
    ] {
        digest.word(c as u64);
    }
    match last {
        Some(model) => {
            model_digest(&mut digest, &model);
            let v = &set.validation;
            match model.eval_batch(&v.s_points) {
                Ok(resp) => {
                    st.err_truth = err(resp.iter(), v.truth.iter());
                    st.err_fit = err(
                        v.fitted_at.iter().map(|&i| &resp[i]),
                        set.final_window.matrices().iter(),
                    );
                }
                Err(e) => run.failures.push(format!("final model sweep failed: {e}")),
            }
        }
        None => run.failures.push(format!("pass {index} served no model")),
    }
    st.digest = digest.value();
    st
}

/// Median over passes of the last-decile over first-decile median
/// append time, in steady state (after the window has filled and slid
/// a few times, as the window benchmark defines it).
fn append_flatness(set: &StreamSet, tr: &Tracer) -> f64 {
    let n = set.pairs.len();
    let warmup = set.capacity / 4 + 16;
    let mut by_pass: Vec<Vec<f64>> = Vec::new();
    for s in tr.named("session.append") {
        let (pass, p) = (s.op / n, s.op % n);
        if by_pass.len() <= pass {
            by_pass.resize_with(pass + 1, Vec::new);
        }
        if p >= warmup {
            by_pass[pass].push(s.ms());
        }
    }
    let ratios: Vec<f64> = by_pass
        .iter()
        .filter(|steady| steady.len() >= 20)
        .map(|steady| {
            let decile = steady.len() / 10;
            median(&steady[steady.len() - decile..]) / median(&steady[..decile])
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    }
}

/// Streams passes until `seconds` have passed (at least one).
pub fn run(set: &StreamSet, seconds: f64, tr: &mut Tracer) -> Run {
    let mut run = Run::default();
    let mut costs = OpCosts::default();
    let mut calibration = Calibration::new();
    let clock = Stopwatch::start();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || clock.elapsed().as_secs_f64() < seconds {
        let index = passes.len();
        let st = pass(set, index, tr, &mut run, &mut costs, &mut calibration);
        if let Some(first) = passes.first() {
            run.check(first.digest == st.digest, || {
                format!("pass {index} did not reproduce the first pass")
            });
        }
        passes.push(st);
    }

    let failed = run.failed;
    run.check(failed == 0, || {
        format!("{failed} appends or realizations returned an error")
    });
    let st = &passes[0];
    let models = st.models.max(1) as f64;
    run.context = vec![
        ("err_truth", st.err_truth),
        ("err_fit", st.err_fit),
        ("probe_ms", calibration.median_ms()),
    ];
    run.context.extend(costs.context());
    run.end_to_end = costs.end_to_end().to_vec();
    run.end_to_end.extend([
        ("err_truth.digits", -st.err_truth.log10()),
        ("err_fit.digits", -st.err_fit.log10()),
        ("stable_pole_share", st.stable_share_sum / models),
        ("success_rate", run.success_rate()),
    ]);
    run.per_layer = vec![
        ("session.append_ms", tr.median_ms("session.append")),
        ("session.realize_ms", tr.median_ms("session.realize")),
        ("descriptor.poles_ms", tr.median_ms("descriptor.poles")),
        ("descriptor.rhp_poles", st.rhp as f64 / models),
        ("session.append_flatness", append_flatness(set, tr)),
        ("session.retained_share", st.retained as f64 / models),
        ("session.refreshes", st.refreshes as f64),
        ("session.quarantines", st.quarantines as f64),
        ("session.reanchor.shadow", st.shadow as f64),
        ("session.reanchor.fresh", st.fresh as f64),
        ("session.reanchor.gk", st.gk as f64),
        ("session.peak_K", st.peak_k as f64),
        ("session.evicted_pairs", st.evicted_pairs as f64),
        ("error_rate", run.error_rate()),
    ];
    run
}
