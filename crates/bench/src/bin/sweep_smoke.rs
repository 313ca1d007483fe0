//! Deterministic-parallelism smoke check for `scripts/verify.sh`.
//!
//! Evaluates a seeded order-40 real descriptor model over a 90-point
//! log sweep through `Macromodel::eval_batch` — the path that honors
//! the `MFTI_THREADS` override — computes its poles (the real Francis
//! path, DESIGN.md §10), and prints one FNV-1a digest of every result
//! and pole bit. `verify.sh` runs this binary under `MFTI_THREADS=1`
//! and `MFTI_THREADS=N` and fails on any mismatch: the static-chunk
//! parallel executor guarantees bit-identical sweeps at every worker
//! count, and the pole path is serial.
//!
//! Usage: `MFTI_THREADS=k cargo run --release -p mfti-bench --bin
//! sweep_smoke` (prints `sweep digest: <hex>`).

use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::FrequencyGrid;
use mfti_statespace::Macromodel;

fn main() {
    let model = RandomSystemBuilder::new(40, 3, 3)
        .band(1e6, 1e8)
        .d_rank(3)
        .seed(0x5107)
        .build()
        .expect("seeded build");
    let grid = FrequencyGrid::log_space(1e6, 1e8, 90).expect("valid grid");
    let pts: Vec<mfti_numeric::Complex> = grid
        .points()
        .iter()
        .map(|&f| mfti_statespace::s_at_hz(f))
        .collect();
    let batch = model.eval_batch(&pts).expect("sweep");
    let poles = model.poles().expect("poles");

    // FNV-1a over the raw f64 bit patterns, in point/row-major order.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for z in batch.iter().flat_map(|h| h.iter()).chain(&poles) {
        absorb(z.re.to_bits());
        absorb(z.im.to_bits());
    }
    println!("sweep digest: {hash:016x}");
}
