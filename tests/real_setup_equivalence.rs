//! Real-vs-complex set-up equivalence for fitted real models
//! (DESIGN.md §10).
//!
//! A `DescriptorSystem<f64>` factors, solves and reduces its sweep
//! pencil in real arithmetic and computes its poles with the real
//! Francis iteration; its `to_complex()` twin takes the complex chain
//! for all of it. On two fitted models —
//!
//! * a **clean** fit with a full-rank feed-through, so `E` is singular
//!   and the shift-inverted pencil `F⁻¹E` has zero eigenvalues, and
//! * a **noisy** PDN fit with right-half-plane poles —
//!
//! the real chain's sweep must agree with per-point LU to `1e-11`
//! relative and stay within 2× of the complex chain's own deviation —
//! in fact it must be bit-identical to it, because the real LU, solves
//! and Hessenberg reduction compute exactly what the complex ones
//! compute on the promoted model — and both chains must report the
//! same finite, infinite and unstable pole counts with the poles
//! matching pairwise to `1e-10` relative.

use mfti::core::{Fitter, Mfti, OrderSelection, Weights};
use mfti::numeric::{generalized_eigenvalues, CMatrix, Complex};
use mfti::sampling::generators::{PdnBuilder, RandomSystemBuilder};
use mfti::sampling::{FrequencyGrid, NoiseModel, SampleSet};
use mfti::statespace::{s_at_hz, DescriptorSystem, SweepStrategy};

fn fitted(fitter: &Mfti, samples: &SampleSet) -> DescriptorSystem<f64> {
    let outcome = fitter.fit(samples).expect("fit");
    outcome.model().as_real().expect("real fit").clone()
}

/// Clean 3-port fit with a rank-3 feed-through: `E` is singular.
fn clean_model() -> (DescriptorSystem<f64>, Vec<Complex>) {
    let dut = RandomSystemBuilder::new(20, 3, 3)
        .band(1e3, 1e6)
        .d_rank(3)
        .seed(0x5e7)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e3, 1e6, 24).expect("grid");
    let samples = SampleSet::from_system(&dut, &grid).expect("samples");
    (fitted(&Mfti::new(), &samples), sweep(1e3, 1e6))
}

/// Noisy 6-port PDN fit (two tangential directions per sample).
fn noisy_model() -> (DescriptorSystem<f64>, Vec<Complex>) {
    let pdn = PdnBuilder::new(6)
        .resonance_pairs(20)
        .band(1e7, 1e9)
        .seed(3)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::linear(1e7, 1e9, 60).expect("grid");
    let clean = SampleSet::from_system(&pdn, &grid).expect("samples");
    let noisy = NoiseModel::additive_relative(1e-3).apply(&clean, 9);
    let fitter = Mfti::new()
        .weights(Weights::Uniform(2))
        .order_selection(OrderSelection::NoiseFloor { factor: 5.0 });
    (fitted(&fitter, &noisy), sweep(1e7, 1e9))
}

fn sweep(lo_hz: f64, hi_hz: f64) -> Vec<Complex> {
    FrequencyGrid::log_space(lo_hz, hi_hz, 160)
        .expect("grid")
        .points()
        .iter()
        .map(|&f| s_at_hz(f))
        .collect()
}

/// Largest relative deviation of `got` from `want`, point by point.
fn max_rel_dev(got: &[CMatrix], want: &[CMatrix]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).max_abs() / w.max_abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

fn assert_sweeps_agree(label: &str, model: &DescriptorSystem<f64>, pts: &[Complex]) {
    let twin = model.to_complex();
    let reference = model
        .eval_batch_with(pts, SweepStrategy::PointwiseLu, 1)
        .expect("pointwise");
    for strategy in [
        SweepStrategy::Auto,
        SweepStrategy::Hessenberg,
        SweepStrategy::Schur,
    ] {
        let real = model.eval_batch_with(pts, strategy, 1).expect("real sweep");
        let complex = twin
            .eval_batch_with(pts, strategy, 1)
            .expect("complex sweep");
        let (dev_real, dev_complex) = (
            max_rel_dev(&real, &reference),
            max_rel_dev(&complex, &reference),
        );
        assert!(
            dev_real <= 1e-11,
            "{label} {strategy:?}: real chain deviates {dev_real:.2e} from pointwise LU"
        );
        assert!(
            dev_real <= 2.0 * dev_complex.max(f64::EPSILON),
            "{label} {strategy:?}: real chain {dev_real:.2e} vs complex chain {dev_complex:.2e}"
        );
        let identical = real.iter().zip(&complex).all(|(r, c)| {
            r.as_slice()
                .iter()
                .zip(c.as_slice())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
        });
        assert!(
            identical,
            "{label} {strategy:?}: the real set-up must reproduce the complex one bit for bit"
        );
    }
}

fn assert_poles_agree(label: &str, model: &DescriptorSystem<f64>) -> usize {
    let twin = model.to_complex();
    let (finite, infinite) = generalized_eigenvalues(model.a(), model.e()).expect("real pencil");
    let (finite_c, infinite_c) = generalized_eigenvalues(twin.a(), twin.e()).expect("twin pencil");
    assert_eq!(finite.len(), finite_c.len(), "{label}: finite pole count");
    assert_eq!(infinite, infinite_c, "{label}: infinite pole count");

    let poles = model.poles().expect("real poles");
    let twin_poles = twin.poles().expect("twin poles");
    let rhp = |ps: &[Complex]| ps.iter().filter(|p| p.re > 0.0).count();
    assert_eq!(rhp(&poles), rhp(&twin_poles), "{label}: RHP pole count");
    // Pairwise: each real-chain pole matches a distinct twin pole.
    let mut unmatched = twin_poles.clone();
    for p in &poles {
        let (idx, rel) = unmatched
            .iter()
            .map(|q| (*p - *q).abs() / q.abs().max(f64::MIN_POSITIVE))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("as many twin poles as real ones");
        assert!(
            rel <= 1e-10,
            "{label}: pole {p} is {rel:.2e} from the twin's"
        );
        unmatched.swap_remove(idx);
    }
    rhp(&poles)
}

#[test]
fn clean_fit_with_singular_e_matches_its_complex_twin() {
    let (model, pts) = clean_model();
    let (_, infinite) = generalized_eigenvalues(model.a(), model.e()).expect("pencil");
    assert!(
        infinite > 0,
        "the feed-through must leave F⁻¹E zero eigenvalues"
    );
    assert_sweeps_agree("clean", &model, &pts);
    assert_poles_agree("clean", &model);
}

#[test]
fn noisy_fit_with_unstable_poles_matches_its_complex_twin() {
    let (model, pts) = noisy_model();
    assert_sweeps_agree("noisy", &model, &pts);
    let rhp = assert_poles_agree("noisy", &model);
    assert!(
        rhp > 0,
        "the noisy fit must exercise right-half-plane poles"
    );
}
