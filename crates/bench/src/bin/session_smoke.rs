//! Deterministic-parallelism smoke check for the **streaming session**
//! hot path (`scripts/verify.sh`, alongside `sweep_smoke` and
//! `fit_smoke`).
//!
//! Streams a clean 2-port workload through `FitSession` one sample pair
//! at a time under whatever `MFTI_THREADS` says — every append grows
//! the pencil by thin GEMM strips and absorbs them into the
//! rank-revealing `SvdUpdater` (seeded at the second append from the
//! first batch's K = 4 pencil, a size the blocked backend hands to its
//! Golub–Kahan path; border updates through the
//! deterministically-chunked kernels) — and prints one FNV-1a digest
//! over every per-append singular value, the order trajectory and the
//! final realized model bits. `verify.sh` runs this binary at 1 and N
//! workers and fails on any digest mismatch: the incremental signal
//! must be bit-identical at every worker count.
//!
//! Usage: `MFTI_THREADS=k cargo run --release -p mfti-bench --bin
//! session_smoke` (prints `session digest: <hex>`).

use mfti_core::{FitSession, Mfti};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};

fn main() {
    // Order-14 system, 2 ports, full weights (t = 2): every streamed
    // pair grows the pencil by 4, reaching K = 96 after 24 pairs — past
    // the Loewner row-parallel gate (K ≥ 96). The updater's seed is the
    // first batch's K = 4 pencil, so it runs Golub–Kahan, not the
    // blocked panel path (`window_smoke`'s noisy capacity-48 stream
    // pins that one).
    let sys = RandomSystemBuilder::new(14, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x5e5510)
        .build()
        .expect("seeded build");
    let grid = FrequencyGrid::log_space(1e6, 1e9, 48).expect("valid grid");
    let all = SampleSet::from_system(&sys, &grid).expect("sampling");

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };

    // Band edges first (they set the normalization), then one pair per
    // append; digest the refreshed signal after every single append.
    let mut session = FitSession::new(Mfti::new());
    let k = all.len();
    let mut batches = vec![all.subset(&[0, k - 1]).expect("edges")];
    let mut i = 1;
    while i + 1 < k - 1 {
        batches.push(all.subset(&[i, i + 1]).expect("pair"));
        i += 2;
    }
    for batch in &batches {
        session.append(batch).expect("append");
        for s in session.singular_values().expect("signal") {
            absorb(s.to_bits());
        }
    }
    for &order in session.order_trajectory() {
        absorb(order as u64);
    }

    let outcome = session.realize().expect("realize");
    let model = outcome.model().as_real().expect("real realization path");
    let (e, a, b, c, d) = model.real_matrices();
    for m in [e, a, b, c, d] {
        for x in m.iter() {
            absorb(x.to_bits());
        }
    }
    println!(
        "session digest: {hash:016x} (K {}, order {}, retained {})",
        session.pencil_order(),
        outcome.order(),
        session.retained_rank().expect("streamed updater"),
    );
}
