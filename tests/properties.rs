//! Cross-crate property-based tests: pipeline invariants that must hold
//! for arbitrary (valid) configurations, not just the curated examples.

use mfti::core::{
    metrics, realify, DirectionKind, Fitter, LoewnerPencil, Mfti, TangentialData, Weights,
};
use mfti::numeric::{CMatrix, Complex};
use mfti::sampling::generators::RandomSystemBuilder;
use mfti::sampling::{FrequencyGrid, NoiseModel, SampleSet};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    order: usize,
    ports: usize,
    d_rank: usize,
    k: usize,
    t: usize,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=4, 1u64..500).prop_flat_map(|(ports, seed)| {
        (2usize..=7, 0usize..=ports, 3usize..=6, 1usize..=ports).prop_map(
            move |(half_order, d_rank, half_k, t)| Scenario {
                order: 2 * half_order,
                ports,
                d_rank,
                k: 2 * half_k,
                t,
                seed,
            },
        )
    })
}

fn build(sc: &Scenario) -> (SampleSet, TangentialData, LoewnerPencil) {
    let dut = RandomSystemBuilder::new(sc.order, sc.ports, sc.ports)
        .band(1e2, 1e5)
        .d_rank(sc.d_rank)
        .seed(sc.seed)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e2, 1e5, sc.k).expect("grid");
    let samples = SampleSet::from_system(&dut, &grid).expect("sampling");
    let data = TangentialData::build(
        &samples,
        DirectionKind::RandomOrthonormal {
            seed: sc.seed ^ 0xabc,
        },
        &Weights::Uniform(sc.t),
    )
    .expect("data");
    let pencil = LoewnerPencil::build(&data).expect("pencil");
    (samples, data, pencil)
}

/// Bits of `z`'s parts.
fn bits(z: Complex) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Whether every partner row of `x` (row `off+t+i` of a pair of width
/// `t` at offset `off`) is the exact conjugate of its first-member row
/// (`off+i`) under the swap of each column pair.
fn partner_rows_are_conjugates(x: &CMatrix, ts: &[usize]) -> bool {
    let mut off = 0;
    let mut all = true;
    for &t in ts {
        for i in 0..t {
            let (first, partner) = (x.row(off + i), x.row(off + t + i));
            let mut c = 0;
            for &u in ts {
                for j in 0..u {
                    all &= bits(partner[c + j]) == bits(first[c + u + j].conj());
                    all &= bits(partner[c + u + j]) == bits(first[c + j].conj());
                }
                c += 2 * u;
            }
        }
        off += 2 * t;
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The invariant the realified assembly rests on: the partner triple
    /// of each pair is its first member's conjugate (`−λ`, `conj W`, the
    /// same real directions) and IEEE rounding is symmetric under a sign
    /// change, so every partner row of `𝕃` and `σ𝕃` is its first-member
    /// row's exact conjugate under the column-pair swap — on clean and
    /// noisy data, 1–4 ports, uniform, full and per-pair widths, and
    /// `K ≡ 0` and `K ≡ 2 (mod 4)`.
    #[test]
    fn partner_rows_are_exact_conjugates(seed in 1u64..10_000) {
        let mut k_mod4 = [false; 4];
        for ports in 1..=4usize {
            for pairs in [3usize, 4] {
                let dut = RandomSystemBuilder::new(8, ports, ports)
                    .band(1e2, 1e5)
                    .d_rank(ports / 2)
                    .seed(seed + ports as u64)
                    .build()
                    .expect("valid");
                let grid = FrequencyGrid::log_space(1e2, 1e5, 2 * pairs).expect("grid");
                let clean = SampleSet::from_system(&dut, &grid).expect("sampling");
                let samples = if seed % 2 == 0 {
                    NoiseModel::additive_relative(1e-3).apply(&clean, seed)
                } else {
                    clean
                };
                let per_pair = (0..pairs).map(|j| 1 + (j + seed as usize) % ports).collect();
                for weights in [
                    Weights::Uniform(1 + seed as usize % ports),
                    Weights::Full,
                    Weights::PerPair(per_pair),
                ] {
                    let data = TangentialData::build(&samples, DirectionKind::default(), &weights)
                        .expect("data");
                    let pencil = LoewnerPencil::build(&data).expect("pencil");
                    k_mod4[pencil.order() % 4] = true;
                    for (x, what) in [(pencil.ll(), "𝕃"), (pencil.sll(), "σ𝕃")] {
                        prop_assert!(
                            partner_rows_are_conjugates(x, pencil.pair_ts()),
                            "{what}: ports {ports}, pairs {pairs}, {weights:?}"
                        );
                    }
                }
            }
        }
        prop_assert!(k_mod4[0] && k_mod4[2], "both K ≡ 0 and K ≡ 2 (mod 4) covered");
    }

    /// Eq. (13): both Sylvester identities hold for every configuration.
    #[test]
    fn sylvester_equations_hold(sc in scenario()) {
        let (_, data, pencil) = build(&sc);
        let (r1, r2) = pencil.sylvester_residuals(&data).expect("residuals");
        prop_assert!(r1 < 1e-9, "Loewner residual {r1}");
        prop_assert!(r2 < 1e-9, "shifted residual {r2}");
    }

    /// Lemma 3.3: rank(x₀𝕃 − σ𝕃) ≤ order + rank(D).
    #[test]
    fn pencil_rank_is_bounded_by_system_complexity(sc in scenario()) {
        let (_, _, pencil) = build(&sc);
        let sv = pencil
            .shifted_pencil_singular_values(pencil.default_x0())
            .expect("svd");
        let rank = sv.iter().filter(|&&s| s > 1e-9 * sv[0]).count();
        prop_assert!(
            rank <= sc.order + sc.d_rank,
            "rank {rank} exceeds order {} + rank(D) {}",
            sc.order,
            sc.d_rank
        );
    }

    /// Lemma 3.2: realification leaves no imaginary residue on clean,
    /// conjugate-closed data.
    #[test]
    fn realification_is_exact(sc in scenario()) {
        let (_, _, pencil) = build(&sc);
        let real = realify(&pencil, 1e-8).expect("realify");
        prop_assert!(real.max_imag_residual() < 1e-10);
    }

    /// With full weights and enough samples, MFTI recovers the system
    /// regardless of the random seed/shape.
    #[test]
    fn full_weight_fit_interpolates(sc in scenario()) {
        prop_assume!(sc.t == sc.ports); // full matrix weights
        prop_assume!(sc.k * sc.ports >= 2 * (sc.order + sc.d_rank));
        let (samples, _, _) = build(&sc);
        let fit = Mfti::new().fit(&samples).expect("fit");
        let err = metrics::err_rms_of(fit.model(), &samples).expect("eval");
        prop_assert!(err < 1e-6, "ERR {err:.2e} for {sc:?}");
    }

    /// The error metric is invariant under sample reordering and
    /// scales linearly with uniform response scaling errors.
    #[test]
    fn err_metric_basic_properties(sc in scenario(), noise in 1e-6f64..1e-2) {
        let (samples, _, _) = build(&sc);
        let noisy = NoiseModel::additive_relative(noise).apply(&samples, sc.seed);
        // Against itself the noisy set has zero error...
        let errs: Vec<f64> = samples
            .iter()
            .zip(noisy.iter())
            .map(|((_, a), (_, b))| (&(b.clone()) - a).norm_2() / a.norm_2())
            .collect();
        // ...and the injected perturbation has the requested magnitude.
        let rms = metrics::err_rms(&errs);
        prop_assert!(rms < 20.0 * noise, "rms {rms} vs noise {noise}");
        prop_assert!(rms > noise / 20.0, "rms {rms} vs noise {noise}");
    }
}
