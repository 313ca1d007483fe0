//! Deterministic-parallelism smoke check for the **sliding-window
//! session** hot path (`scripts/verify.sh`, alongside `session_smoke`).
//!
//! Streams a 2-port workload through a `FitSession` under
//! [`WindowPolicy::Sliding`] twice — clean, then with seeded additive
//! noise — and prints one FNV-1a digest per stream over every
//! per-append singular value, the order trajectory, the windowed
//! provenance events (evictions, quarantines, re-anchor rungs) and the
//! final realized model bits. The clean stream's steady state runs the
//! verified `SvdUpdater::downdate_leading` evictions, the residual
//! probe gate and evicting pencil slides without a single re-anchor; the
//! noisy window is full rank, so every steady-state eviction is refused
//! and re-anchors from a fresh decomposition. `verify.sh` runs this
//! binary at 1 and N workers and fails on any digest mismatch: the
//! bounded-memory signal, including every eviction and re-anchor
//! decision, must be bit-identical at every worker count (DESIGN.md §9).
//!
//! Usage: `MFTI_THREADS=k cargo run --release -p mfti-bench --bin
//! window_smoke` (prints `window digest: <hex> (…) noisy digest: <hex>
//! (…)`).

use mfti_core::{FitSession, Mfti, Reanchor, WindowPolicy};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};

/// Streams `all` through a capacity-24 window and returns its digest
/// with a one-line summary of the final state.
fn stream_digest(all: &SampleSet) -> (u64, String) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };

    // Band edges first (they set the normalization), then one pair per
    // append; digest the windowed signal after every single append.
    let mut session = FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity: 24 });
    let k = all.len();
    let mut batches = vec![all.subset(&[0, k - 1]).expect("edges")];
    let mut i = 1;
    while i + 1 < k - 1 {
        batches.push(all.subset(&[i, i + 1]).expect("pair"));
        i += 2;
    }
    let mut peak = 0;
    for batch in &batches {
        session.append(batch).expect("windowed append");
        peak = peak.max(session.pencil_order());
        for s in session.singular_values().expect("signal") {
            absorb(s.to_bits());
        }
    }
    assert!(
        peak <= 24,
        "window overflowed its capacity: peak pencil order {peak}"
    );

    // Provenance trajectory: the digest pins not just the numbers but
    // the *decisions* — which appends evicted, which quarantined, and
    // which re-anchor rung restored service.
    let mut reanchors = 0;
    for diag in session.signal_trajectory() {
        absorb(diag.order as u64);
        absorb(diag.evicted_pairs as u64);
        absorb(u64::from(diag.refreshed));
        absorb(u64::from(diag.quarantined));
        absorb(match diag.reanchor {
            None => 0,
            Some(Reanchor::FreshBlocked) => 2,
            Some(Reanchor::GolubKahan) => 3,
            Some(_) => 4,
        });
        reanchors += usize::from(diag.reanchor.is_some());
    }

    let outcome = session.realize().expect("realize");
    let model = outcome.model().as_real().expect("real realization path");
    let (e, a, b, c, d) = model.real_matrices();
    for m in [e, a, b, c, d] {
        for x in m.iter() {
            absorb(x.to_bits());
        }
    }
    let summary = format!(
        "K {}, order {}, evicted {} pairs, re-anchored {reanchors}",
        session.pencil_order(),
        outcome.order(),
        session.evicted_pairs(),
    );
    (hash, summary)
}

fn main() {
    // Order-10 system, 2 ports, full weights (t = 2): every streamed
    // pair carries 4 rows+cols, so a capacity-24 window holds 6 pairs
    // and the 24-pair stream forces 18 pairs of evictions — enough
    // steady-state slides to exercise downdates and probe gates on the
    // clean stream and a fresh re-anchor per slide on the noisy one.
    let sys = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x51_1DE5)
        .build()
        .expect("seeded build");
    let grid = FrequencyGrid::log_space(1e6, 1e9, 48).expect("valid grid");
    let clean = SampleSet::from_system(&sys, &grid).expect("sampling");
    let noisy = NoiseModel::additive_relative(1e-4).apply(&clean, 0x51_1DE5);

    let (clean_hash, clean_summary) = stream_digest(&clean);
    let (noisy_hash, noisy_summary) = stream_digest(&noisy);
    println!(
        "window digest: {clean_hash:016x} ({clean_summary}) \
         noisy digest: {noisy_hash:016x} ({noisy_summary})"
    );
}
