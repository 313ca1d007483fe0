//! Thread-count invariance of the parallel Loewner assembly, complex
//! and realified — isolated in its own test binary because it cycles the
//! process-global `MFTI_THREADS` variable, which sibling tests in a
//! shared binary could race against through
//! `parallel::available_threads`. The tests here hold `ENV` for that
//! reason.

use std::sync::{Mutex, MutexGuard};

use mfti_core::{
    realify, DirectionKind, DirectionOrigin, FitSession, LoewnerPencil, Mfti, RealifiedPencil,
    TangentialData, Weights,
};
use mfti_numeric::{CMatrix, RMatrix};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};

static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn samples(order: usize, ports: usize, k: usize) -> SampleSet {
    let sys = RandomSystemBuilder::new(order, ports, ports)
        .d_rank(ports)
        .seed(0x10e1)
        .build()
        .unwrap();
    let grid = FrequencyGrid::log_space(1e3, 1e7, k).unwrap();
    SampleSet::from_system(&sys, &grid).unwrap()
}

fn tangential_data(order: usize, ports: usize, k: usize) -> TangentialData {
    TangentialData::build(
        &samples(order, ports, k),
        DirectionKind::RandomOrthonormal { seed: 11 },
        &Weights::Full,
    )
    .unwrap()
}

fn bits(m: &CMatrix) -> Vec<(u64, u64)> {
    m.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn assert_pencils_bit_identical(a: &LoewnerPencil, b: &LoewnerPencil, what: &str) {
    assert_eq!(bits(a.ll()), bits(b.ll()), "{what}: 𝕃 differs");
    assert_eq!(bits(a.sll()), bits(b.sll()), "{what}: σ𝕃 differs");
    assert_eq!(bits(a.w()), bits(b.w()), "{what}: W differs");
    assert_eq!(bits(a.v()), bits(b.v()), "{what}: V differs");
    assert_eq!(a.lambdas(), b.lambdas(), "{what}: λ differs");
    assert_eq!(a.mus(), b.mus(), "{what}: μ differs");
}

#[test]
fn build_and_slide_are_bit_identical_across_thread_counts() {
    let _env = env_lock();
    // 4 ports × full weights × 32 samples ⇒ K = 128 > the parallel
    // gate, so the row fan-out actually spawns workers.
    let data = tangential_data(24, 4, 32);
    assert!(data.pencil_order() >= 128);
    // The evicting step slides onto the window over stream pairs 2..16,
    // each pair at the directions it streamed in with (4 columns each).
    let window = TangentialData::build_from(
        &samples(24, 4, 32)
            .subset(&(4..32).collect::<Vec<_>>())
            .unwrap(),
        DirectionKind::RandomOrthonormal { seed: 11 },
        &Weights::Full,
        DirectionOrigin { pairs: 2, cols: 8 },
    )
    .unwrap();
    // The grow-only step assembles K = 128 and the evicting step
    // K = 112: both past the gate of 96² entries.
    let grow = |data: &TangentialData| {
        LoewnerPencil::build_subset(data, &[0, 1, 2])
            .unwrap()
            .slide(0, data, &(3..16).collect::<Vec<_>>())
            .unwrap()
    };
    let evict = |data: &TangentialData| {
        LoewnerPencil::build_subset(data, &[0, 1, 2, 3])
            .unwrap()
            .slide(2, &window, &(2..14).collect::<Vec<_>>())
            .unwrap()
    };

    std::env::set_var("MFTI_THREADS", "1");
    let serial = LoewnerPencil::build(&data).unwrap();
    let serial_grown = grow(&data);
    let serial_slid = evict(&data);

    for threads in ["2", "4", "8"] {
        std::env::set_var("MFTI_THREADS", threads);
        let par = LoewnerPencil::build(&data).unwrap();
        assert_pencils_bit_identical(&par, &serial, &format!("build at {threads} threads"));
        assert_pencils_bit_identical(
            &grow(&data),
            &serial_grown,
            &format!("growing slide at {threads} threads"),
        );
        assert_pencils_bit_identical(
            &evict(&data),
            &serial_slid,
            &format!("evicting slide at {threads} threads"),
        );
    }
    std::env::remove_var("MFTI_THREADS");

    // And each slid pencil equals the one-shot build over its pairs,
    // bit for bit.
    assert_pencils_bit_identical(&serial_grown, &serial, "growing slide vs from-scratch");
    let direct = LoewnerPencil::build_subset(&data, &(2..16).collect::<Vec<_>>()).unwrap();
    assert_pencils_bit_identical(&serial_slid, &direct, "evicting slide vs from-scratch");
}

fn assert_same_realified(got: &RealifiedPencil, want: &RealifiedPencil, what: &str) {
    let bits = |m: &RMatrix| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.ll()), bits(want.ll()), "{what}: 𝕃ᵣ differs");
    assert_eq!(bits(got.sll()), bits(want.sll()), "{what}: σ𝕃ᵣ differs");
    assert_eq!(bits(got.w()), bits(want.w()), "{what}: Wᵣ differs");
    assert_eq!(bits(got.v()), bits(want.v()), "{what}: Vᵣ differs");
}

#[test]
fn realified_assembly_equals_the_realified_oracle_at_every_thread_count() {
    let _env = env_lock();
    // All past the row-pass gate: K = 128 (full weights), K = 122
    // (per-pair widths 1, 2, 3, …) and K = 102 (uniform t = 3), the
    // last two ≡ 2 (mod 4).
    let per_pair = Weights::PerPair((0..31).map(|j| 1 + j % 3).collect());
    let cases = [
        (samples(24, 4, 32), Weights::Full),
        (samples(20, 3, 62), per_pair),
        (samples(20, 3, 34), Weights::Uniform(3)),
    ];
    for (set, weights) in &cases {
        // Band edges first: a session pins ω₀ to its first batch.
        let n = set.len();
        let order: Vec<usize> = [0, n - 1].into_iter().chain(1..n - 1).collect();
        let set = set.subset(&order).unwrap();
        let data =
            TangentialData::build(&set, DirectionKind::RandomOrthonormal { seed: 5 }, weights)
                .unwrap();
        let k = data.pencil_order();
        assert!(k >= 96, "K = {k}");
        let oracle = realify(&LoewnerPencil::build(&data).unwrap(), 0.0).unwrap();
        // A session that appends the second half of the samples slides
        // its realified pencil instead (past the gate at K = 128).
        let half = set.len() / 2 / 2 * 2;
        let (head, tail) = (
            set.subset(&(0..half).collect::<Vec<_>>()).unwrap(),
            set.subset(&(half..set.len()).collect::<Vec<_>>()).unwrap(),
        );
        for threads in ["1", "2", "8"] {
            std::env::set_var("MFTI_THREADS", threads);
            let what = format!("K = {k}, {weights:?}, {threads} threads");
            assert_same_realified(&RealifiedPencil::build(&data).unwrap(), &oracle, &what);
            if matches!(weights, Weights::PerPair(_)) {
                continue;
            }
            let config = Mfti::new()
                .directions(DirectionKind::RandomOrthonormal { seed: 5 })
                .weights(weights.clone());
            let mut session = FitSession::new(config);
            session.append(&head).unwrap();
            session.append(&tail).unwrap();
            assert_same_realified(session.pencil().unwrap(), &oracle, &format!("{what}, slid"));
        }
        std::env::remove_var("MFTI_THREADS");
    }
}
