//! Forced non-convergence through the fault-injection iteration caps
//! (the `fault-injection` feature), driven through the public fitting
//! API. The caps are process-global, so every mfti-core test that arms
//! one lives in this binary: armed here, a cap cannot reach the
//! library's unit tests, which run in another process.
#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use mfti_core::{FitResult, FitSession, Mfti, OrderSelection, Reanchor, WindowPolicy};
use mfti_numeric::faults::InjectedFault;
use mfti_numeric::SvdMethod;
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};
use mfti_statespace::{DescriptorSystem, Macromodel};

/// `InjectedFault` serializes only while armed: a test's disarmed
/// checks must not run while a sibling test has a cap armed, so every
/// test here holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clean order-12 data, K = 24: `Fixed(4)` takes the restricted route
/// (`2r ≤ K`), which reads the detection decomposition's factors.
fn workload() -> SampleSet {
    let dut = RandomSystemBuilder::new(10, 2, 2)
        .band(1e3, 1e6)
        .d_rank(2)
        .seed(404)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e3, 1e6, 12).expect("grid");
    SampleSet::from_system(&dut, &grid).expect("sampling")
}

fn model_bits(model: &DescriptorSystem<f64>) -> Vec<u64> {
    let (e, a, b, c, d) = model.real_matrices();
    [e, a, b, c, d]
        .iter()
        .flat_map(|m| m.iter().map(|x| x.to_bits()))
        .collect()
}

/// A stalled bidiagonal QR degrades the detection through the recovery
/// ladder (Blocked → Golub–Kahan → Jacobi) instead of failing the fit:
/// the fit and a single-batch session's first append record the same
/// trail, the σ stay within round-off of the uncapped fit's, and the
/// session serves the capped fit's model from the recovered
/// decomposition it kept.
#[test]
fn qr_stall_degrades_to_jacobi_with_a_breakdown_trail() {
    let _serial = serial();
    let samples = workload();
    let config = Mfti::new().order_selection(OrderSelection::Fixed(4));
    let uncapped: FitResult = config.fit_detailed(&samples).expect("uncapped fit");
    assert!(uncapped.svd_fallbacks.is_empty());
    assert!(2 * 4 <= uncapped.pencil_order, "restricted route");

    let _cap = InjectedFault::cap_qr_iterations(1);
    let capped = config.fit_detailed(&samples).expect("capped fit recovers");
    let trail = vec![SvdMethod::Blocked, SvdMethod::GolubKahan];
    assert_eq!(capped.svd_fallbacks, trail);
    let s1 = uncapped.pencil_singular_values[0];
    assert_eq!(
        capped.pencil_singular_values.len(),
        uncapped.pencil_singular_values.len()
    );
    for (c, u) in capped
        .pencil_singular_values
        .iter()
        .zip(&uncapped.pencil_singular_values)
    {
        assert!((c - u).abs() <= 1e-10 * s1, "σ {c:e} vs uncapped {u:e}");
    }
    assert_eq!(capped.detected_order, 4);
    assert_eq!(capped.model.order(), 4);

    let mut session = FitSession::new(config);
    session.append(&samples).expect("capped append recovers");
    assert_eq!(session.signal_trajectory()[0].svd_fallbacks, trail);
    let served = session
        .realize_with(OrderSelection::Fixed(4))
        .expect("realize from the kept ladder");
    let model = served.model().as_real().expect("descriptor model");
    assert_eq!(model_bits(model), model_bits(&capped.model));
}

/// The dense route's two stacked decompositions each declare one side
/// and run their only QR iteration when they are computed, so a stall
/// there degrades through the recovery ladder like the detection's:
/// under the cap a dense-order fit still returns its model (from the
/// Jacobi rung's factors), which reproduces the uncapped model's
/// responses, and a single-batch session realizes it with the same
/// bits.
#[test]
fn one_sided_stacks_degrade_through_the_ladder() {
    let _serial = serial();
    // Clean order-22 data (n = 20, rank(D) = 2), K = 24: the full order
    // takes the dense route (`2r > K`).
    let dut = RandomSystemBuilder::new(20, 2, 2)
        .band(1e3, 1e6)
        .d_rank(2)
        .seed(405)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e3, 1e6, 12).expect("grid");
    let samples = SampleSet::from_system(&dut, &grid).expect("sampling");
    let config = Mfti::new().order_selection(OrderSelection::Fixed(22));
    let uncapped = config.fit_detailed(&samples).expect("uncapped fit");
    assert!(2 * 22 > uncapped.pencil_order, "dense route");

    let _cap = InjectedFault::cap_qr_iterations(1);
    let capped = config
        .fit_detailed(&samples)
        .expect("capped dense fit recovers");
    assert_eq!(
        capped.svd_fallbacks,
        [SvdMethod::Blocked, SvdMethod::GolubKahan]
    );
    assert_eq!(capped.model.order(), 22);
    let freqs = samples.freqs_hz();
    let want = uncapped.model.response_batch_hz(freqs).expect("uncapped");
    let got = capped.model.response_batch_hz(freqs).expect("capped");
    for (h, w) in got.iter().zip(&want) {
        let rel = (h - w).norm_2() / w.norm_2();
        assert!(rel < 1e-8, "capped model deviates by {rel:e}");
    }

    let mut session = FitSession::new(config);
    session.append(&samples).expect("capped append recovers");
    let served = session
        .realize_with(OrderSelection::Fixed(22))
        .expect("dense realize recovers");
    let model = served.model().as_real().expect("descriptor model");
    assert_eq!(model_bits(model), model_bits(&capped.model));
}

/// A sliding-window session re-anchors through the same ladder a fit
/// walks. On noisy data the window is full rank, so every steady-state
/// append refuses its downdate, quarantines the updater and re-anchors
/// from a fresh decomposition of the live window. With both QR rungs
/// stalled that decomposition comes from the Jacobi rung: the append
/// succeeds, records the trail, matches an uncapped twin's σ and still
/// realizes. With every rung stalled the append fails typed and leaves
/// the session as it was.
#[test]
fn qr_stalled_window_reanchors_through_jacobi() {
    let _serial = serial();
    let sys = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x51_1DE5)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e6, 1e9, 24).expect("grid");
    let clean = SampleSet::from_system(&sys, &grid).expect("sampling");
    let noisy = NoiseModel::additive_relative(1e-4).apply(&clean, 0x51_1DE5);
    // Band edges first, then one pair per append; capacity 16 holds four
    // pairs, so the fifth append is the first to evict.
    let k = noisy.len();
    let mut batches = vec![noisy.subset(&[0, k - 1]).expect("edges")];
    for i in (1..k - 1).step_by(2) {
        batches.push(noisy.subset(&[i, i + 1]).expect("pair"));
    }
    let mut session = FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity: 16 });
    for batch in &batches[..5] {
        session.append(batch).expect("uncapped append");
    }
    assert!(session.retained_rank().is_some(), "the updater exists");

    let mut twin = session.clone();
    twin.append(&batches[5]).expect("uncapped twin");
    let last = twin.signal_trajectory().last().expect("record");
    assert!(last.quarantined && last.evicted_pairs > 0);
    assert_eq!(last.reanchor, Some(Reanchor::FreshBlocked));

    {
        let _cap = InjectedFault::cap_qr_iterations(1);
        session
            .append(&batches[5])
            .expect("the Jacobi rung re-anchors");
    }
    let last = session.signal_trajectory().last().expect("record");
    assert!(last.quarantined);
    assert_eq!(last.reanchor, Some(Reanchor::Jacobi));
    assert_eq!(
        last.svd_fallbacks,
        [SvdMethod::Blocked, SvdMethod::GolubKahan]
    );
    let (got, want) = (
        session.singular_values().expect("σ"),
        twin.singular_values().expect("σ"),
    );
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g - w).abs() <= 1e-10 * want[0],
            "σ {g:e} vs uncapped {w:e}"
        );
    }
    let served = session.realize().expect("realize from the Jacobi seed");
    assert_eq!(served.order(), twin.realize().expect("twin").order());

    // Every rung stalled: a typed refusal, and the session is untouched.
    let (order, sv, appends) = (
        session.pencil_order(),
        session.singular_values().expect("σ").to_vec(),
        session.signal_trajectory().len(),
    );
    {
        let _cap = InjectedFault::cap_all_iterations(1);
        assert!(session.append(&batches[6]).is_err(), "ladder exhausts");
    }
    assert_eq!(session.pencil_order(), order);
    assert_eq!(session.singular_values().expect("σ"), &sv[..]);
    assert_eq!(session.signal_trajectory().len(), appends);
    assert!(session.realize().is_ok());
}
