//! Forced non-convergence through the fault-injection iteration caps
//! (the `fault-injection` feature), driven through the public fitting
//! API. The caps are process-global, so every mfti-core test that arms
//! one lives in this binary: armed here, a cap cannot reach the
//! library's unit tests, which run in another process.
#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use mfti_core::{FitResult, FitSession, Mfti, OrderSelection};
use mfti_numeric::faults::InjectedFault;
use mfti_numeric::SvdMethod;
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};
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
