//! Integration tests of the mfti-core pipeline at the crate boundary:
//! the staged API (data → pencil → realify → realize, and its stateful
//! [`FitSession`] packaging) must compose the same way the one-call
//! [`Fitter`] implementations do.

use mfti_core::{
    metrics, realify, realize_complex, realize_real, DirectionKind, FitSession, Fitter,
    LoewnerPencil, Mfti, OrderSelection, TangentialData, Vfti, Weights,
};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};
use mfti_statespace::TransferFunction;

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

#[test]
fn staged_api_matches_the_one_call_fitter() {
    let samples = workload();

    // One-call path (generic Fitter surface).
    let fit = Mfti::new().fit(&samples).expect("fit");

    // Staged path with the same configuration.
    let data = TangentialData::build(&samples, DirectionKind::default(), &Weights::Uniform(2))
        .expect("data");
    let pencil = LoewnerPencil::build(&data).expect("pencil");
    let sv = pencil
        .shifted_pencil_singular_values(pencil.default_x0())
        .expect("svd");
    let order = OrderSelection::default().detect(&sv).expect("order");
    assert_eq!(order, fit.order());
    let real = realify(&pencil, 1e-6).expect("realify");
    let staged = realize_real(&real, order).expect("realize");

    // Session path: same stages, owned state.
    let mut session = FitSession::new(Mfti::new());
    session.append(&samples).expect("append");
    let from_session = session.realize().expect("realize");
    assert_eq!(from_session.order(), fit.order());

    for (f, _) in samples.iter().take(4) {
        let a = fit.model().response_at_hz(f).expect("eval");
        let b = staged.response_at_hz(f).expect("eval");
        let c = from_session.model().response_at_hz(f).expect("eval");
        assert!(
            (&a - &b).norm_2() < 1e-8 * a.norm_2().max(1e-12),
            "staged and one-call paths disagree at {f} Hz"
        );
        assert!(
            (&a - &c).norm_2() < 1e-8 * a.norm_2().max(1e-12),
            "session and one-call paths disagree at {f} Hz"
        );
    }
}

#[test]
fn complex_and_real_realizations_share_the_transfer_function() {
    let samples = workload();
    let data = TangentialData::build(
        &samples,
        DirectionKind::RandomOrthonormal { seed: 8 },
        &Weights::Uniform(2),
    )
    .expect("data");
    let pencil = LoewnerPencil::build(&data).expect("pencil");
    let sv = pencil
        .shifted_pencil_singular_values(pencil.default_x0())
        .expect("svd");
    let order = OrderSelection::Threshold(1e-10).detect(&sv).expect("order");
    let cplx = realize_complex(&pencil, pencil.default_x0(), order).expect("complex");
    let real = realize_real(&realify(&pencil, 1e-8).expect("realify"), order).expect("real");
    for (f, s) in samples.iter() {
        let a = cplx.response_at_hz(f).expect("eval");
        let b = real.response_at_hz(f).expect("eval");
        assert!((&a - s).norm_2() / s.norm_2() < 1e-7);
        assert!((&b - s).norm_2() / s.norm_2() < 1e-7);
    }
}

/// The fit's model is a real descriptor system behind `as_real`, and it
/// has the transfer function of Lemma 3.4's complex projection of the
/// same pencil at the same order (the oracle the realification
/// replaces).
#[test]
fn fitted_model_accessors_are_consistent() {
    let samples = workload();
    let real_fit = Mfti::new().fit(&samples).expect("real fit");
    let sys = real_fit.model().as_real().expect("descriptor model");
    assert_eq!(sys.order(), real_fit.order());
    assert!(real_fit.model().as_rational().is_none());
    assert_eq!(real_fit.model().outputs(), 2);
    assert_eq!(real_fit.model().inputs(), 2);

    let data =
        TangentialData::build(&samples, DirectionKind::default(), &Weights::Full).expect("data");
    let pencil = LoewnerPencil::build(&data).expect("pencil");
    let oracle = realize_complex(&pencil, pencil.default_x0(), real_fit.order()).expect("oracle");
    for (f, _) in samples.iter() {
        let a = sys.response_at_hz(f).expect("eval");
        let b = oracle.response_at_hz(f).expect("eval");
        assert!(
            (&a - &b).norm_2() < 1e-8 * b.norm_2().max(1e-12),
            "real model and complex oracle disagree at {f} Hz"
        );
    }
}

#[test]
fn vfti_equals_mfti_with_unit_weights_and_same_directions() {
    let samples = workload();
    let vfti = Vfti::new().fit(&samples).expect("vfti");
    let mfti_t1 = Mfti::new()
        .weights(Weights::Uniform(1))
        .directions(DirectionKind::CyclicIdentity)
        .fit(&samples)
        .expect("mfti t=1");
    assert_eq!(vfti.pencil_order(), mfti_t1.pencil_order());
    assert_eq!(vfti.order(), mfti_t1.order());
    let sv_v = vfti.pencil_singular_values().expect("loewner method");
    let sv_m = mfti_t1.pencil_singular_values().expect("loewner method");
    for (a, b) in sv_v.iter().zip(sv_m) {
        assert!((a - b).abs() < 1e-12 * sv_v[0]);
    }
}

#[test]
fn fit_error_metrics_cover_every_sample() {
    let samples = workload();
    let fit = Mfti::new().fit(&samples).expect("fit");
    let errs = metrics::relative_errors(fit.model(), &samples).expect("errs");
    assert_eq!(errs.len(), samples.len());
    assert!(metrics::err_max(&errs) >= metrics::err_rms(&errs));
}
