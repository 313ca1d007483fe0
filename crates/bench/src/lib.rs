//! Shared workloads and reporting helpers for the benchmark harness.
//!
//! Every figure and table of the paper's evaluation section has a
//! regeneration binary in `src/bin/` built on the seeded workloads
//! defined here, so the numbers in EXPERIMENTS.md are reproducible with
//! a single `cargo run` per experiment:
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Fig. 1 (singular-value patterns)        | `fig1_singular_values` |
//! | Fig. 2 (Bode overlay)                   | `fig2_bode`            |
//! | Example 1 text (30× sample ratio)       | `ex1_sample_sweep`     |
//! | Table 1 (noisy PDN comparison)          | `table1_noisy`         |
//!
//! Criterion micro-benchmarks (`benches/`) cover the ablations listed
//! in DESIGN.md §3.

#![deny(missing_docs)]

use mfti_sampling::generators::{PdnBuilder, RandomSystemBuilder};
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};
use mfti_statespace::{DescriptorSystem, RationalModel};

/// Seed shared by all paper-reproduction workloads.
pub const PAPER_SEED: u64 = 0x0DAC_2010;

/// Deterministic `n × n` complex matrix with xorshift entries in
/// `[-1, 1]²` — the shared input generator of the GEMM/SVD kernel
/// benches and the `bench_json` snapshot binary.
pub fn random_complex(n: usize, seed: u64) -> mfti_numeric::CMatrix {
    let mut next = xorshift_unit(seed);
    mfti_numeric::CMatrix::from_fn(n, n, |_, _| mfti_numeric::c64(next(), next()))
}

/// Deterministic `rows × cols` real matrix with xorshift entries in
/// `[-1, 1]` — the real counterpart of [`random_complex`].
pub fn random_real(rows: usize, cols: usize, seed: u64) -> mfti_numeric::RMatrix {
    let mut next = xorshift_unit(seed);
    mfti_numeric::RMatrix::from_fn(rows, cols, |_, _| next())
}

/// The xorshift stream behind the random matrix generators.
fn xorshift_unit(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

/// Example 1's underlying system: order 150, 30 ports, full-rank `D`
/// (the paper's observed rank pattern 150/180/180 implies
/// `rank(D₀) = 30`), resonances across the Fig. 2 band 10 Hz – 100 kHz.
pub fn example1_system() -> DescriptorSystem<f64> {
    RandomSystemBuilder::new(150, 30, 30)
        .band(1e1, 1e5)
        .d_rank(30)
        .seed(PAPER_SEED)
        .build()
        .expect("static configuration is valid")
}

/// `k` log-spaced samples of the Example 1 system over 10 Hz – 100 kHz.
pub fn example1_samples(k: usize) -> SampleSet {
    let sys = example1_system();
    let grid = FrequencyGrid::log_space(1e1, 1e5, k).expect("valid grid");
    SampleSet::from_system(&sys, &grid).expect("no poles on the imaginary axis")
}

/// The synthetic 14-port PDN standing in for the paper's INC-board
/// measurements (Example 2): 40 resonance pairs (order 80 + rank-14
/// feed-through — unknown to the algorithms, and chosen so the system's
/// effective order sits just inside VFTI's 100-sample pencil capacity,
/// the regime the paper's reported VFTI orders 95–98 imply), 10 MHz – 10 GHz.
pub fn pdn_model() -> RationalModel {
    PdnBuilder::new(14)
        .resonance_pairs(40)
        .band(1e7, 1e10)
        .seed(PAPER_SEED)
        .build()
        .expect("static configuration is valid")
}

/// Relative noise level applied to the PDN "measurements" (-80 dB —
/// a well-averaged VNA measurement).
pub const PDN_NOISE_SIGMA: f64 = 1e-4;

/// Table 1 workloads: `(clean, noisy)` sample pairs.
///
/// * Test 1 — 100 uniformly distributed samples over the band;
/// * Test 2 — 100 samples concentrated in the top decade
///   (ill-conditioned sampling).
///
/// # Panics
///
/// Panics for `test` outside `{1, 2}`.
pub fn table1_samples(test: usize) -> (SampleSet, SampleSet) {
    let pdn = pdn_model();
    let grid = match test {
        1 => FrequencyGrid::linear(1e7, 1e10, 100).expect("valid grid"),
        2 => FrequencyGrid::clustered_high(1e7, 1e10, 100, 0.85, 1.0).expect("valid grid"),
        other => panic!("Table 1 has tests 1 and 2, not {other}"),
    };
    let clean = SampleSet::from_system(&pdn, &grid).expect("stable model");
    let noisy = NoiseModel::additive_relative(PDN_NOISE_SIGMA).apply(&clean, PAPER_SEED);
    (clean, noisy)
}

/// Formats a duration in seconds with three decimals (Table 1 style).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints an aligned text table: a header row then data rows.
///
/// # Panics
///
/// Panics when a row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        line(row.clone());
    }
}

/// Locates the largest relative drop in a descending singular-value
/// profile, returning `(index_after_drop, ratio)` — e.g. a return of
/// `(150, 1e8)` means σ₁₅₀/σ₁₅₁ ≈ 1e8 (1-based counting: the drop is
/// *after* the 150-th value).
pub fn largest_drop(sv: &[f64]) -> (usize, f64) {
    let mut best = (0usize, 0.0f64);
    for i in 1..sv.len() {
        let ratio = sv[i - 1] / sv[i].max(f64::MIN_POSITIVE);
        if ratio > best.1 {
            best = (i, ratio);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_system_has_paper_dimensions() {
        let sys = example1_system();
        assert_eq!(sys.order(), 150);
        assert_eq!(sys.inputs(), 30);
        assert_eq!(sys.outputs(), 30);
        let svd = mfti_numeric::Svd::compute(sys.d()).unwrap();
        assert_eq!(svd.rank(1e-10), 30);
    }

    #[test]
    fn pdn_has_14_ports_and_hidden_order_80() {
        let pdn = pdn_model();
        assert_eq!(pdn.d().dims(), (14, 14));
        assert_eq!(pdn.order(), 80);
        assert!(pdn.is_stable());
    }

    #[test]
    fn table1_grids_differ_in_distribution() {
        let (clean1, noisy1) = table1_samples(1);
        let (clean2, _) = table1_samples(2);
        assert_eq!(clean1.len(), 100);
        assert_eq!(clean2.len(), 100);
        assert_eq!(noisy1.len(), 100);
        // Test 2 crowds the top decade.
        let top = clean2.freqs_hz().iter().filter(|&&f| f >= 1e9).count();
        assert!(top >= 80, "{top} samples in top decade");
        let top1 = clean1.freqs_hz().iter().filter(|&&f| f >= 1e9).count();
        assert!(top1 < 95, "uniform grid has {top1} in top decade");
    }

    #[test]
    fn largest_drop_finds_the_cliff() {
        let sv = [1.0, 0.9, 0.5, 1e-9, 1e-10];
        let (idx, ratio) = largest_drop(&sv);
        assert_eq!(idx, 3);
        assert!(ratio > 1e8);
    }
}
