//! Criterion bench: realified Loewner pencil assembly, the pencil every
//! fit and session builds straight from the data.
//!
//! The incremental slide's flat per-append cost is gated by
//! `window_bench` and `crates/core/tests/working_set.rs`, not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mfti_core::{DirectionKind, RealifiedPencil, TangentialData, Weights};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};

fn data_for(k: usize, ports: usize, t: usize) -> TangentialData {
    let sys = RandomSystemBuilder::new(40, ports, ports)
        .seed(1)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e2, 1e5, k).expect("valid");
    let samples = SampleSet::from_system(&sys, &grid).expect("sampling");
    TangentialData::build(
        &samples,
        DirectionKind::RandomOrthonormal { seed: 2 },
        &Weights::Uniform(t),
    )
    .expect("data")
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("loewner_build");
    for &(k, t) in &[(16usize, 2usize), (32, 2), (32, 4), (64, 4)] {
        let data = data_for(k, 4, t);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_t{t}_K{}", data.pencil_order())),
            &data,
            |b, data| b.iter(|| RealifiedPencil::build(data).expect("build")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
