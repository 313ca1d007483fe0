//! Determinism suite for the GEMM-structured Loewner assembly: slid
//! pencils — grown, evicted or both — must equal from-scratch builds
//! bit-for-bit, and refused slides must leave nothing behind. (The
//! thread-count comparison lives in its own binary,
//! `loewner_thread_invariance.rs`, because it toggles the
//! process-global `MFTI_THREADS` variable.)

use mfti_core::{DirectionKind, DirectionOrigin, LoewnerPencil, TangentialData, Weights};
use mfti_numeric::CMatrix;
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};

const DIRECTIONS: DirectionKind = DirectionKind::RandomOrthonormal { seed: 11 };

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
    TangentialData::build(&samples(order, ports, k), DIRECTIONS, &Weights::Full).unwrap()
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
fn multi_step_growth_equals_from_scratch_bit_for_bit() {
    let data = tangential_data(12, 2, 12);
    // Grow one pair batch at a time — the Algorithm 2 access pattern.
    let mut grown = LoewnerPencil::build_subset(&data, &[0]).unwrap();
    for j in 1..6 {
        grown = grown.slide(0, &data, &[j]).unwrap();
    }
    let direct = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3, 4, 5]).unwrap();
    assert_pencils_bit_identical(&grown, &direct, "stepwise growth");
    assert_eq!(grown.included_pairs(), direct.included_pairs());
    assert_eq!(grown.pair_ts(), direct.pair_ts());
    assert_eq!(grown.default_x0(), direct.default_x0());
    // Uneven batches land on the same bits too.
    let batched = LoewnerPencil::build_subset(&data, &[0, 1])
        .unwrap()
        .slide(0, &data, &[2])
        .unwrap()
        .slide(0, &data, &[3, 4, 5])
        .unwrap();
    assert_pencils_bit_identical(&batched, &direct, "uneven batches");
}

#[test]
fn window_slide_equals_a_build_over_the_window_data() {
    // A session's window step: the leading pairs expire and the live
    // window's data is rebuilt with the stream-position direction
    // origin, so window pair j is stream pair j + evicted.
    // The band's top sample sits in stream pair 4, which survives every
    // slide below, so the window data keeps the stream's normalization.
    let grid = samples(12, 2, 16);
    let order: Vec<usize> = (0..9).chain([15]).chain(9..15).collect();
    let all = grid.subset(&order).unwrap();
    let t = 2; // full weights on two ports
    let stream = TangentialData::build(&all, DIRECTIONS, &Weights::Full).unwrap();
    let before = LoewnerPencil::build_subset(&stream, &[0, 1, 2, 3, 4]).unwrap();
    for (evict, grow) in [(2, 2), (3, 1), (1, 3), (2, 0)] {
        // Window: stream pairs evict..5+grow, in the window's frame.
        let live: Vec<usize> = (2 * evict..2 * (5 + grow)).collect();
        let window = TangentialData::build_from(
            &all.subset(&live).unwrap(),
            DIRECTIONS,
            &Weights::Full,
            DirectionOrigin {
                pairs: evict,
                cols: evict * t,
            },
        )
        .unwrap();
        let fresh: Vec<usize> = (5 - evict..5 - evict + grow).collect();
        let slid = before.slide(evict, &window, &fresh).unwrap();
        let all_live: Vec<usize> = (0..5 - evict + grow).collect();
        let direct = LoewnerPencil::build_subset(&window, &all_live).unwrap();
        let what = format!("evict {evict}, grow {grow}");
        assert_pencils_bit_identical(&slid, &direct, &what);
        assert_eq!(slid.included_pairs(), &all_live[..], "{what}");
        assert_eq!(slid.pair_ts(), direct.pair_ts(), "{what}");
        // The shift stays pinned to the first pencil's λ₁.
        assert_eq!(slid.default_x0(), before.default_x0(), "{what}");
    }
}

#[test]
fn refused_slides_leave_the_pencil_as_it_was() {
    let data = tangential_data(8, 2, 12);
    let pencil = LoewnerPencil::build_subset(&data, &[0, 1]).unwrap();
    // Already-included and self-duplicated new pairs are both refused...
    assert!(pencil.slide(0, &data, &[1]).is_err());
    assert!(pencil.slide(0, &data, &[2, 3, 2]).is_err());
    // ...as are out-of-range pairs and evicting the whole pencil.
    assert!(pencil.slide(0, &data, &[6]).is_err());
    assert!(pencil.slide(2, &data, &[2, 3]).is_err());
    // A pencil is a value: the refusals left nothing behind.
    assert_eq!(pencil.included_pairs(), &[0, 1]);
    let direct = LoewnerPencil::build_subset(&data, &[0, 1]).unwrap();
    assert_pencils_bit_identical(&pencil, &direct, "after refused slides");
    // The valid remainder still lands.
    let grown = pencil.slide(0, &data, &[2, 3]).unwrap();
    assert_eq!(grown.included_pairs(), &[0, 1, 2, 3]);
}
