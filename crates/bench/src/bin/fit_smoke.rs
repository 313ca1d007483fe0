//! Deterministic-parallelism smoke check for the **fit-side** hot path
//! (`scripts/verify.sh`, alongside `sweep_smoke` for sweeps).
//!
//! Runs a full MFTI fit — tangential data → GEMM-structured Loewner
//! assembly (row-parallel) → order-detection SVD (panel-blocked, with
//! the trailing update fanned per column block) → realization — under
//! whatever `MFTI_THREADS` says, and prints one FNV-1a digest over
//! every result bit: the realified pencil, the order-detection singular
//! values and the realized model matrices. `verify.sh` runs this binary at 1
//! and N workers and fails on any digest mismatch: the static-chunk
//! executor guarantees the fit is bit-identical at every worker count.
//! The fit runs through a single-batch `FitSession`, which the binary
//! also checks against `Mfti::fit` on the same samples: the two must
//! return the same model, bit for bit.
//!
//! Usage: `MFTI_THREADS=k cargo run --release -p mfti-bench --bin
//! fit_smoke` (prints `fit digest: <hex>`).

use mfti_core::{FitOutcome, FitSession, Fitter, Mfti, OrderSelection};
use mfti_sampling::generators::PdnBuilder;
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};

fn main() {
    // A trimmed Table-1 workload: 6 ports × 24 samples ⇒ K = 144
    // pencil. That crosses every parallel gate with real fan-out: the
    // Loewner row pass (gate at K ≥ 96) and the blocked SVD's trailing
    // update, whose first panel leaves 144 − 32 = 112 trailing columns
    // ⇒ 2 workers at 64 columns each (and 288×144 realization stacks
    // likewise). Small enough to keep verify runs quick.
    let pdn = PdnBuilder::new(6)
        .resonance_pairs(12)
        .band(1e7, 1e9)
        .seed(0x51107)
        .build()
        .expect("seeded build");
    let grid = FrequencyGrid::linear(1e7, 1e9, 24).expect("valid grid");
    let clean = SampleSet::from_system(&pdn, &grid).expect("sampling");
    let samples = NoiseModel::additive_relative(1e-3).apply(&clean, 7);

    let config = Mfti::new().order_selection(OrderSelection::NoiseFloor { factor: 5.0 });
    let mut session = FitSession::new(config.clone());
    session.append(&samples).expect("append");
    let sv = session
        .singular_values()
        .expect("order-detection svd")
        .to_vec();
    let outcome = session.realize().expect("realize");
    let pencil = session.pencil().expect("pencil exists");

    // FNV-1a over the raw f64 bit patterns, in a fixed traversal order.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in [pencil.ll(), pencil.sll()] {
        for x in m.iter() {
            absorb(x.to_bits());
        }
    }
    for s in &sv {
        absorb(s.to_bits());
    }
    let model_bits = |outcome: &FitOutcome| -> Vec<u64> {
        let model = outcome.model().as_real().expect("descriptor model");
        let (e, a, b, c, d) = model.real_matrices();
        [e, a, b, c, d]
            .iter()
            .flat_map(|m| m.iter().map(|x| x.to_bits()))
            .collect()
    };
    let served = model_bits(&outcome);
    let one_shot = config.fit(&samples).expect("one-shot fit");
    assert!(
        served == model_bits(&one_shot),
        "the single-batch session's model differs from Mfti::fit's"
    );
    for bits in served {
        absorb(bits);
    }
    println!("fit digest: {hash:016x} (order {})", outcome.order());
}
