//! Thread-count invariance of the parallel Loewner assembly — isolated
//! in its own test binary because it cycles the process-global
//! `MFTI_THREADS` variable, which sibling tests in a shared binary
//! could race against through `parallel::available_threads`.

use mfti_core::{DirectionKind, LoewnerPencil, TangentialData, Weights};
use mfti_numeric::CMatrix;
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};

fn tangential_data(order: usize, ports: usize, k: usize) -> TangentialData {
    let sys = RandomSystemBuilder::new(order, ports, ports)
        .d_rank(ports)
        .seed(0x10e1)
        .build()
        .unwrap();
    let grid = FrequencyGrid::log_space(1e3, 1e7, k).unwrap();
    let set = SampleSet::from_system(&sys, &grid).unwrap();
    TangentialData::build(
        &set,
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
    // 4 ports × full weights × 32 samples ⇒ K = 128 > the parallel
    // gate, so the row fan-out actually spawns workers.
    let data = tangential_data(24, 4, 32);
    assert!(data.pencil_order() >= 128);
    // The grow-only step computes 128² − 24² entries and the evicting
    // step 112² − 16²: both past the gate of 96² new entries.
    let grow = |data: &TangentialData| {
        LoewnerPencil::build_subset(data, &[0, 1, 2])
            .unwrap()
            .slide(0, data, &(3..16).collect::<Vec<_>>())
            .unwrap()
    };
    let evict = |data: &TangentialData| {
        LoewnerPencil::build_subset(data, &[0, 1, 2, 3])
            .unwrap()
            .slide(2, data, &(4..16).collect::<Vec<_>>())
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
