//! Deterministic-parallelism smoke check for `scripts/verify.sh`.
//!
//! Evaluates a seeded order-40 real descriptor model over a 90-point
//! log sweep through `Macromodel::eval_batch` — the path that honors
//! the `MFTI_THREADS` override — computes its poles (the real Francis
//! path, DESIGN.md §10), and prints one FNV-1a digest of every result
//! and pole bit. A second case sweeps a model whose resonances sit in
//! the top decade of a three-decade grid: its two magnitude groups
//! share the top group's modal evaluator (DESIGN.md §10), which the
//! binary asserts, and its responses get a second digest on the same
//! line. `verify.sh` runs this binary under `MFTI_THREADS=1` and
//! `MFTI_THREADS=N` and fails on any mismatch: the static-chunk
//! parallel executor guarantees bit-identical sweeps at every worker
//! count, and the pole path and the modal gate are serial.
//!
//! Usage: `MFTI_THREADS=k cargo run --release -p mfti-bench --bin
//! sweep_smoke` (prints `sweep digest: <hex> three-decade digest:
//! <hex> (factorizations 1)`).

use mfti_numeric::Complex;
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::FrequencyGrid;
use mfti_statespace::{DescriptorSystem, Macromodel};

/// FNV-1a over the raw f64 bit patterns, in the order given.
fn digest<'a>(values: impl Iterator<Item = &'a Complex>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for z in values {
        for bits in [z.re.to_bits(), z.im.to_bits()] {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

fn model(band: (f64, f64)) -> DescriptorSystem<f64> {
    RandomSystemBuilder::new(40, 3, 3)
        .band(band.0, band.1)
        .d_rank(3)
        .seed(0x5107)
        .build()
        .expect("seeded build")
}

fn log_sweep(lo: f64, hi: f64, points: usize) -> Vec<Complex> {
    let grid = FrequencyGrid::log_space(lo, hi, points).expect("valid grid");
    grid.points()
        .iter()
        .map(|&f| mfti_statespace::s_at_hz(f))
        .collect()
}

fn main() {
    let sys = model((1e6, 1e8));
    let batch = sys.eval_batch(&log_sweep(1e6, 1e8, 90)).expect("sweep");
    let poles = sys.poles().expect("poles");
    let sweep = digest(batch.iter().flat_map(|h| h.iter()).chain(&poles));

    // Two magnitude groups (1e5–1e7 Hz and above), one factorization.
    let wide = model((1e7, 1e8));
    let batch = wide.eval_batch(&log_sweep(1e5, 1e8, 120)).expect("sweep");
    let factorizations = wide.cached_sweep_groups();
    assert_eq!(
        factorizations, 1,
        "the top group's modal evaluator must serve the lower group"
    );
    let extended = digest(batch.iter().flat_map(|h| h.iter()));
    println!(
        "sweep digest: {sweep:016x} three-decade digest: {extended:016x} \
         (factorizations {factorizations})"
    );
}
