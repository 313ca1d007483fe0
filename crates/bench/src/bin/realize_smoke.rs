//! Deterministic-parallelism smoke check for the **realization stage**
//! (`scripts/verify.sh`, alongside `sweep_smoke`, `fit_smoke` and
//! `session_smoke`).
//!
//! Exercises every realization path under whatever `MFTI_THREADS` says
//! and prints one FNV-1a digest over the produced model bits:
//!
//! * the fresh **real** path — two-phase stacked SVDs with rank-limited
//!   WY slab accumulation (the fan-out whose 4-aligned column chunks
//!   must keep every slab column on the same micro-kernel lane);
//! * the **complex** Lemma 3.4 oracle (`realize_complex`) on the same
//!   pencil, at the order its complex shifted pencil detects;
//! * the **session-retained** path — a streamed clean workload realized
//!   from the updater's retained real factors of the realified pencil.
//!
//! `verify.sh` runs this binary at 1 and N workers and fails on any
//! digest mismatch: realized models must be bit-identical at every
//! worker count.
//!
//! Usage: `MFTI_THREADS=k cargo run --release -p mfti-bench --bin
//! realize_smoke` (prints `realize digest: <hex>`).

use mfti_core::{
    realize_complex, FitSession, Fitter, LoewnerPencil, Mfti, OrderSelection, TangentialData,
    Weights,
};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};

fn main() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };

    // Order-14 system, 2 ports, full weights: K = 96 — deep into the
    // panel path of the stacked (96×192) and shifted (96×96) SVDs.
    let sys = RandomSystemBuilder::new(14, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x4ea112e)
        .build()
        .expect("seeded build");
    let grid = FrequencyGrid::log_space(1e6, 1e9, 48).expect("valid grid");
    let all = SampleSet::from_system(&sys, &grid).expect("sampling");

    // Fresh one-shot fit (real), then the complex oracle on its pencil.
    let real_fit = Mfti::new().fit(&all).expect("real fit");
    let model = real_fit.model().as_real().expect("real path");
    let (e, a, b, c, d) = model.real_matrices();
    for m in [e, a, b, c, d] {
        for x in m.iter() {
            absorb(x.to_bits());
        }
    }
    let data = TangentialData::build(&all, Default::default(), &Weights::Full).expect("data");
    let pencil = LoewnerPencil::build(&data).expect("pencil");
    let x0 = pencil.default_x0();
    let sv = pencil.shifted_pencil_singular_values(x0).expect("svd");
    let order = OrderSelection::default().detect(&sv).expect("order");
    let cmodel = realize_complex(&pencil, x0, order).expect("complex oracle");
    for m in [cmodel.e(), cmodel.a(), cmodel.b(), cmodel.c(), cmodel.d()] {
        for x in m.as_slice() {
            absorb(x.re.to_bits());
            absorb(x.im.to_bits());
        }
    }

    // Session-retained path: stream the same samples pairwise so the
    // updater materializes, then realize from its retained factors.
    let mut session = FitSession::new(Mfti::new());
    let k = all.len();
    session
        .append(&all.subset(&[0, k - 1]).expect("edges"))
        .expect("append");
    let mut i = 1;
    while i + 1 < k - 1 {
        session
            .append(&all.subset(&[i, i + 1]).expect("pair"))
            .expect("append");
        i += 2;
    }
    let retained = session.retained_rank().expect("streamed updater");
    assert!(
        2 * retained <= session.pencil_order(),
        "stream retained too much rank for the retained realize path"
    );
    let streamed = session.realize().expect("session realize");
    let smodel = streamed.model().as_real().expect("real path");
    let (e, a, b, c, d) = smodel.real_matrices();
    for m in [e, a, b, c, d] {
        for x in m.iter() {
            absorb(x.to_bits());
        }
    }

    println!(
        "realize digest: {hash:016x} (K {}, fresh order {}, streamed order {}, retained {})",
        session.pencil_order(),
        real_fit.order(),
        streamed.order(),
        retained,
    );
}
