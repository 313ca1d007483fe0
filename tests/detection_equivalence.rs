//! Real-vs-complex order-detection equivalence (Lemma 3.2).
//!
//! Every fit and every session append detects the order on the
//! realified shifted pencil; the complex shifted pencil survives only
//! as an oracle — it is what the `realize_complex` projection
//! decomposes. The pinned detection shift `x₀ = |λ₁|` is real, so the
//! realified shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ = T*(x₀𝕃 − σ𝕃)T` is a *real*
//! matrix unitarily equivalent to the complex shifted pencil —
//! identical singular values in exact arithmetic, which is what lets
//! the complex oracle stand in for the real pipeline. This suite pins
//! the floating-point version of that statement on three spectrum
//! shapes:
//!
//! * **gapped** — clean random system with a rank-`d` feedthrough: a
//!   sharp σ cliff at the true order;
//! * **noise-floor** — noisy PDN: physical modes above a flat noise
//!   plateau;
//! * **gapless** — heavily noisy data: σ decays smoothly with no
//!   decisive drop anywhere.
//!
//! For each, the two detection signals must agree elementwise to
//! `1e-13·σ₁`, and — the part the fit actually consumes — every
//! [`OrderSelection`] variant must make the **identical rank decision**
//! on both signals.

use mfti::core::{
    realify, DirectionKind, LoewnerPencil, MftiError, OrderSelection, RealifiedPencil,
    TangentialData, Weights,
};
use mfti::numeric::Svd;
use mfti::sampling::generators::{PdnBuilder, RandomSystemBuilder};
use mfti::sampling::{FrequencyGrid, NoiseModel, SampleSet};

fn pencil_of(samples: &SampleSet) -> LoewnerPencil {
    let data = TangentialData::build(samples, DirectionKind::default(), &Weights::Uniform(2))
        .expect("data");
    LoewnerPencil::build(&data).expect("pencil")
}

/// Clean random system: sharp rank gap at `n + rank(D)`.
fn gapped_samples() -> SampleSet {
    let dut = RandomSystemBuilder::new(14, 2, 2)
        .band(1e3, 1e6)
        .d_rank(2)
        .seed(2026)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e3, 1e6, 16).expect("grid");
    SampleSet::from_system(&dut, &grid).expect("sampling")
}

/// Noisy PDN: modes above a flat measurement-noise plateau.
fn noise_floor_samples() -> SampleSet {
    let pdn = PdnBuilder::new(4)
        .resonance_pairs(10)
        .band(1e7, 1e9)
        .seed(7)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::linear(1e7, 1e9, 36).expect("grid");
    let clean = SampleSet::from_system(&pdn, &grid).expect("sampling");
    NoiseModel::additive_relative(1e-4).apply(&clean, 7)
}

/// Noise-dominated spectrum: σ decays smoothly, no decisive gap.
fn gapless_samples() -> SampleSet {
    let pdn = PdnBuilder::new(4)
        .resonance_pairs(10)
        .band(1e7, 1e9)
        .seed(19)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::linear(1e7, 1e9, 36).expect("grid");
    let clean = SampleSet::from_system(&pdn, &grid).expect("sampling");
    NoiseModel::additive_relative(5e-2).apply(&clean, 19)
}

/// Every selection policy the crate offers, with parameters spanning
/// aggressive and conservative readings of each spectrum.
fn selections(k: usize) -> Vec<OrderSelection> {
    vec![
        OrderSelection::Threshold(1e-12),
        OrderSelection::Threshold(1e-8),
        OrderSelection::Threshold(1e-4),
        OrderSelection::LargestGap {
            min_order: 1,
            max_order: k,
        },
        OrderSelection::LargestGap {
            min_order: 2,
            max_order: k / 2,
        },
        OrderSelection::NoiseFloor { factor: 3.0 },
        OrderSelection::NoiseFloor { factor: 10.0 },
        OrderSelection::Fixed(1),
        OrderSelection::Fixed(k.min(6)),
    ]
}

fn assert_equivalent(samples: &SampleSet, label: &str) {
    let pencil = pencil_of(samples);
    let x0 = pencil.default_x0();
    let real = realify(&pencil, 1e-6).expect("conjugate-closed data");
    let sv_real = Svd::singular_values_of(&real.shifted_pencil(x0.re)).expect("real signal");
    let sv_cplx = pencil
        .shifted_pencil_singular_values(x0)
        .expect("complex detection signal");

    // Elementwise σ agreement at 1e-13·σ₁: the two matrices are
    // unitarily equivalent, so any drift is pure floating-point noise.
    assert_eq!(sv_real.len(), sv_cplx.len(), "{label}: signal lengths");
    let s1 = sv_cplx[0].max(sv_real[0]);
    assert!(s1 > 0.0, "{label}: degenerate spectrum");
    for (i, (r, c)) in sv_real.iter().zip(&sv_cplx).enumerate() {
        assert!(
            (r - c).abs() <= 1e-13 * s1,
            "{label}: σ[{i}] drift {:.3e} beyond 1e-13·σ₁ (real {r:.6e}, complex {c:.6e})",
            (r - c).abs() / s1
        );
    }

    // Identical rank decisions for every selection policy — the only
    // thing the downstream realization reads from the signal.
    for sel in selections(pencil.order()) {
        let from_real = sel.detect(&sv_real);
        let from_cplx = sel.detect(&sv_cplx);
        match (from_real, from_cplx) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: {sel:?} rank decision split"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{label}: {sel:?} Ok/Err split: real {a:?}, complex {b:?}"),
        }
    }
}

#[test]
fn gapped_spectrum_detects_identically_in_real_and_complex() {
    assert_equivalent(&gapped_samples(), "gapped");
}

#[test]
fn noise_floor_spectrum_detects_identically_in_real_and_complex() {
    assert_equivalent(&noise_floor_samples(), "noise-floor");
}

#[test]
fn gapless_spectrum_detects_identically_in_real_and_complex() {
    assert_equivalent(&gapless_samples(), "gapless");
}

/// The realification oracle refuses a pencil whose imaginary residual
/// exceeds its tolerance before anything is factorized: a negative
/// tolerance always trips it (the residual is ≥ 0). The pipeline itself
/// never realifies a complex pencil — fits and sessions assemble the
/// realified pencil straight from the data — so the conjugate structure
/// this check guarded is now the invariant that
/// `tests/properties.rs::partner_rows_are_exact_conjugates` tests, and
/// on such data the residual is exactly zero and the oracle equals the
/// direct assembly bit for bit.
#[test]
fn realification_residual_fires_before_any_factorization() {
    let samples = gapped_samples();
    let pencil = pencil_of(&samples);
    match realify(&pencil, -1.0) {
        Err(MftiError::RealificationResidual { max_imag }) => {
            assert_eq!(max_imag, 0.0, "partner rows cancel every imaginary part");
        }
        other => panic!("a negative tolerance must refuse every pencil, got {other:?}"),
    }
    let oracle = realify(&pencil, 0.0).expect("an exact realification passes at zero");
    let data = TangentialData::build(&samples, DirectionKind::default(), &Weights::Uniform(2))
        .expect("data");
    let direct = RealifiedPencil::build(&data).expect("direct assembly");
    let bits = |m: &mfti::numeric::RMatrix| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (a, b, what) in [
        (oracle.ll(), direct.ll(), "𝕃ᵣ"),
        (oracle.sll(), direct.sll(), "σ𝕃ᵣ"),
        (oracle.w(), direct.w(), "Wᵣ"),
        (oracle.v(), direct.v(), "Vᵣ"),
    ] {
        assert_eq!(bits(a), bits(b), "{what} differs from the oracle");
    }
}
