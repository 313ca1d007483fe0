//! Criterion bench: naive per-element GEMM vs the cache-blocked,
//! transpose-packed kernel layer in `mfti-numeric`.
//!
//! The acceptance bar for the kernel refactor is a ≥ 3× speedup on a
//! 256×256 complex product; smaller sizes are included to show where
//! blocking starts to pay. The real rows time the `f64` path every
//! realified product takes — a 256³ cube and the restricted-projection
//! shape `𝕃ᵣ·X` of Example 1 (`m × n × k` = 480 × 180 × 480).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mfti_bench::{random_complex, random_real};
use mfti_numeric::kernel;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_c64");
    for &n in &[64usize, 128, 256] {
        let a = random_complex(n, 0x5eed ^ n as u64);
        let b = random_complex(n, 0xbeef ^ n as u64);
        group.bench_with_input(BenchmarkId::new("naive", n), &(&a, &b), |bench, (a, b)| {
            bench.iter(|| kernel::mul_naive(a, b).expect("gemm"))
        });
        group.bench_with_input(
            BenchmarkId::new("blocked", n),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| kernel::mul(a, b).expect("gemm")),
        );
    }
    group.finish();
}

fn bench_gemm_real(c: &mut Criterion) {
    let a = random_real(256, 256, 0x5eed);
    let b = random_real(256, 256, 0xbeef);
    let mut group = c.benchmark_group("gemm_f64_256");
    group.bench_function("naive", |bench| {
        bench.iter(|| kernel::mul_naive(&a, &b).expect("gemm"))
    });
    group.bench_function("blocked", |bench| {
        bench.iter(|| kernel::mul(&a, &b).expect("gemm"))
    });
    group.finish();
    let pencil = random_real(480, 480, 0x9e11);
    let basis = random_real(480, 180, 0xba5e);
    c.bench_function("gemm_f64_480x180x480/blocked", |bench| {
        bench.iter(|| kernel::mul(&pencil, &basis).expect("gemm"))
    });
}

fn bench_fused(c: &mut Criterion) {
    let n = 192;
    let a = random_complex(n, 11);
    let b = random_complex(n, 17);
    let mut group = c.benchmark_group("fused_c64_192");
    group.bench_function("adjoint_then_mul", |bench| {
        bench.iter(|| a.adjoint().matmul(&b).expect("gemm"))
    });
    group.bench_function("mul_hermitian_left", |bench| {
        bench.iter(|| kernel::mul_hermitian_left(&a, &b).expect("gemm"))
    });
    group.bench_function("transpose_then_mul", |bench| {
        bench.iter(|| a.matmul(&b.transpose()).expect("gemm"))
    });
    group.bench_function("mul_transpose_right", |bench| {
        bench.iter(|| kernel::mul_transpose_right(&a, &b).expect("gemm"))
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_gemm_real, bench_fused);
criterion_main!(benches);
