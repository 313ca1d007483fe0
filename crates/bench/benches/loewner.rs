//! Criterion bench: Loewner pencil assembly and incremental growth.
//!
//! Validates the complexity claim behind Algorithm 2: sliding an
//! existing pencil to one more batch is far cheaper than rebuilding it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mfti_core::{DirectionKind, LoewnerPencil, TangentialData, Weights};
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
            |b, data| b.iter(|| LoewnerPencil::build(data).expect("build")),
        );
    }
    group.finish();
}

fn bench_slide_vs_rebuild(c: &mut Criterion) {
    let data = data_for(64, 4, 2);
    let pairs: Vec<usize> = (0..28).collect();
    let base = LoewnerPencil::build_subset(&data, &pairs).expect("subset");
    let mut group = c.benchmark_group("loewner_grow_by_4");
    group.bench_function("incremental_slide", |b| {
        b.iter(|| base.slide(0, &data, &[28, 29, 30, 31]).expect("slide"))
    });
    group.bench_function("full_rebuild", |b| {
        b.iter(|| {
            let all: Vec<usize> = (0..32).collect();
            LoewnerPencil::build_subset(&data, &all).expect("build")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_slide_vs_rebuild);
criterion_main!(benches);
