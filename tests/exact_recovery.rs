//! End-to-end exact recovery (paper Lemmas 3.1/3.4): MFTI rebuilds the
//! sampled system from noise-free data, on and off the sampling grid,
//! across port counts and feed-through ranks — through the real
//! pipeline, and through Lemma 3.4's complex projection as an oracle.

use mfti::core::{
    metrics, realize_complex, DirectionKind, Fitter, LoewnerPencil, Mfti, OrderSelection,
    TangentialData, Weights,
};
use mfti::sampling::generators::RandomSystemBuilder;
use mfti::sampling::{FrequencyGrid, SampleSet};
use mfti::statespace::bode::{log_grid, max_relative_deviation};
use mfti::statespace::{DescriptorSystem, TransferFunction};

fn sampled(
    order: usize,
    ports: usize,
    d_rank: usize,
    k: usize,
) -> (DescriptorSystem<f64>, SampleSet) {
    let dut = RandomSystemBuilder::new(order, ports, ports)
        .band(1e2, 1e5)
        .d_rank(d_rank)
        .seed((order * 31 + ports) as u64)
        .build()
        .expect("valid system");
    let grid = FrequencyGrid::log_space(1e2, 1e5, k).expect("valid grid");
    let samples = SampleSet::from_system(&dut, &grid).expect("sampling");
    (dut, samples)
}

/// On-grid ERR (the paper's metric) and off-grid recovery, not just
/// interpolation.
fn assert_recovers<M: TransferFunction>(
    model: &M,
    dut: &DescriptorSystem<f64>,
    samples: &SampleSet,
) {
    let err = metrics::err_rms_of(model, samples).expect("eval");
    assert!(err < 1e-8, "on-grid ERR {err}");
    let validation = log_grid(1.5e2, 0.8e5, 17);
    let dev = max_relative_deviation(model, dut, &validation).expect("eval");
    assert!(dev < 1e-6, "off-grid deviation {dev}");
}

fn recover(order: usize, ports: usize, d_rank: usize, k: usize) {
    let (dut, samples) = sampled(order, ports, d_rank, k);
    let fit = Mfti::new().fit(&samples).expect("fit");
    assert_eq!(
        fit.order(),
        order + d_rank,
        "detected order must equal order + rank(D)"
    );
    assert_recovers(fit.model(), &dut, &samples);
}

#[test]
fn square_mimo_with_full_rank_d_real_path() {
    recover(14, 4, 4, 10);
}

/// The complex Lemma 3.4 projection of the pencil the fit builds —
/// the step the realification replaces — recovers the same system.
#[test]
fn square_mimo_with_full_rank_d_complex_path() {
    let (dut, samples) = sampled(14, 4, 4, 10);
    let data =
        TangentialData::build(&samples, DirectionKind::default(), &Weights::Full).expect("data");
    let pencil = LoewnerPencil::build(&data).expect("pencil");
    let x0 = pencil.default_x0();
    let sv = pencil.shifted_pencil_singular_values(x0).expect("svd");
    let order = OrderSelection::default().detect(&sv).expect("order");
    assert_eq!(order, 18, "detected order must equal order + rank(D)");
    let model = realize_complex(&pencil, x0, order).expect("complex realization");
    assert_recovers(&model, &dut, &samples);
}

#[test]
fn strictly_proper_system() {
    recover(12, 3, 0, 10);
}

#[test]
fn partial_rank_feedthrough() {
    recover(10, 4, 2, 8);
}

#[test]
fn single_port_degenerates_to_vfti() {
    // With p = m = 1 the matrix format *is* the vector format.
    recover(8, 1, 1, 12);
}

#[test]
fn real_path_produces_genuinely_real_spice_ready_model() {
    let dut = RandomSystemBuilder::new(10, 3, 3)
        .d_rank(3)
        .seed(77)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e2, 1e4, 10).expect("grid");
    let samples = SampleSet::from_system(&dut, &grid).expect("sampling");
    let fit = Mfti::new().fit(&samples).expect("fit");
    let model = fit.model().as_real().expect("descriptor model");
    // Conjugate symmetry of the response follows from realness.
    let s = mfti::numeric::c64(0.0, 2e3);
    let h_pos = model.eval(s).expect("eval");
    let h_neg = model.eval(-s).expect("eval");
    assert!((&h_pos.conj() - &h_neg).max_abs() < 1e-10 * h_pos.max_abs());
}

#[test]
fn reduced_weights_still_recover_given_enough_samples() {
    // t = 2 < min(m, p) = 3: each sample yields fewer columns, so more
    // samples are needed — but recovery must still be exact.
    let dut = RandomSystemBuilder::new(10, 3, 3)
        .d_rank(3)
        .seed(5)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e2, 1e5, 16).expect("grid");
    let samples = SampleSet::from_system(&dut, &grid).expect("sampling");
    let fit = Mfti::new()
        .weights(Weights::Uniform(2))
        .fit(&samples)
        .expect("fit");
    let err = metrics::err_rms_of(fit.model(), &samples).expect("eval");
    assert!(err < 1e-7, "ERR {err}");
}
