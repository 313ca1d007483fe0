//! Workload definitions and input generation (the timed set-up).
//!
//! Each workload fixes the system the paper (or the repository's
//! window benchmark) uses and draws the *measurements* from the seed:
//! noise realizations for the noisy Table 1 data, frequency jitter for
//! the clean workloads. The library only ever sees the generated
//! `SampleSet`s. The truth is evaluated here, once per distinct
//! validation grid, so scoring a served model needs no further model
//! evaluations of the true system.

use mfti_bench::{example1_system, pdn_model, PDN_NOISE_SIGMA};
use mfti_core::{DirectionKind, OrderSelection, Weights};
use mfti_numeric::{CMatrix, Complex};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};
use mfti_statespace::{s_at_hz, TransferFunction};

/// Held-out validation points between each pair of neighbouring
/// samples.
pub const HELD_OUT: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1, Test 1: noisy 14-port PDN, 100 uniform samples, t = 2.
    Table1T2,
    /// Example 1: order 150, 30 ports, rank-30 D, 16 clean samples.
    Example1K16,
    /// Sliding-window stream of one-pair appends, capacity 96.
    StreamW96,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1T2,
        Workload::Example1K16,
        Workload::StreamW96,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1T2 => "table1_t2",
            Workload::Example1K16 => "example1_k16",
            Workload::StreamW96 => "stream_w96",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A validation grid with the truth on it.
#[derive(Debug)]
pub struct Validation {
    /// `s = j2πf` at every validation frequency.
    pub s_points: Vec<Complex>,
    /// The clean system's response at every validation frequency.
    pub truth: Vec<CMatrix>,
    /// Index into the grid of each fitted sample, in sample order.
    pub fitted_at: Vec<usize>,
}

impl Validation {
    fn new<T: TransferFunction>(system: &T, sample_freqs: &[f64]) -> Result<Self, String> {
        let (freqs, fitted_at) = validation_grid(sample_freqs);
        Ok(Validation {
            s_points: freqs.iter().map(|&f| s_at_hz(f)).collect(),
            truth: system
                .frequency_response(&freqs)
                .map_err(|e| e.to_string())?,
            fitted_at,
        })
    }
}

/// One request's data and the validation grid that scores it.
#[derive(Debug)]
pub struct OneShotInput {
    pub samples: SampleSet,
    /// Index into [`OneShotSet::validations`].
    pub validation: usize,
}

/// What a one-shot workload's checks demand of its output.
#[derive(Debug, Clone, Copy)]
pub struct OneShotChecks {
    /// Every fit must detect exactly this order.
    pub order: Option<usize>,
    /// Every input's `err_truth` must stay below this.
    pub err_truth_each: Option<f64>,
    /// The reported (median) `err_fit` must stay below this.
    pub err_fit_median: Option<f64>,
}

/// A one-shot workload: a pool of requests served round-robin by the
/// same fitter configuration.
#[derive(Debug)]
pub struct OneShotSet {
    pub weights: Weights,
    pub selection: OrderSelection,
    pub directions: DirectionKind,
    pub inputs: Vec<OneShotInput>,
    pub validations: Vec<Validation>,
    pub checks: OneShotChecks,
}

/// The stream workload: one-pair appends under a sliding window.
#[derive(Debug)]
pub struct StreamSet {
    pub capacity: usize,
    /// Pencil rows+columns one pair adds (`2·t` with full weights).
    pub pair_width: usize,
    pub pairs: Vec<SampleSet>,
    /// The samples the window holds after the last append.
    pub final_window: SampleSet,
    pub validation: Validation,
}

/// The generated inputs of one run.
#[derive(Debug)]
pub enum Inputs {
    OneShot(OneShotSet),
    Stream(StreamSet),
}

/// Sizes of a run: full, or reduced for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub table1_pool: usize,
    pub example1_pool: usize,
    pub stream_appends: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            Sizes {
                table1_pool: 2,
                example1_pool: 1,
                stream_appends: 480,
            }
        } else {
            Sizes {
                table1_pool: 64,
                example1_pool: 8,
                stream_appends: 960,
            }
        }
    }
}

/// Builds a workload's inputs from its seed.
pub fn build(workload: Workload, seed: u64, sizes: Sizes) -> Result<Inputs, String> {
    match workload {
        Workload::Table1T2 => table1(seed, sizes.table1_pool).map(Inputs::OneShot),
        Workload::Example1K16 => example1(seed, sizes.example1_pool).map(Inputs::OneShot),
        Workload::StreamW96 => stream(seed, sizes.stream_appends).map(Inputs::Stream),
    }
}

/// Table 1, Test 1: the paper's synthetic 14-port PDN on 100 uniform
/// samples over 10 MHz – 10 GHz with −80 dB additive noise; each pool
/// entry is one noise realization drawn from the seed.
fn table1(seed: u64, pool: usize) -> Result<OneShotSet, String> {
    let pdn = pdn_model();
    let grid = FrequencyGrid::linear(1e7, 1e10, 100).map_err(|e| e.to_string())?;
    let clean = SampleSet::from_system(&pdn, &grid).map_err(|e| e.to_string())?;
    let validation = Validation::new(&pdn, grid.points())?;
    let noise = NoiseModel::additive_relative(PDN_NOISE_SIGMA);
    let inputs = (0..pool)
        .map(|d| OneShotInput {
            samples: noise.apply(&clean, draw(seed, d)),
            validation: 0,
        })
        .collect();
    Ok(OneShotSet {
        weights: Weights::Uniform(2),
        selection: OrderSelection::NoiseFloor { factor: 10.0 },
        directions: DirectionKind::default(),
        inputs,
        validations: vec![validation],
        checks: OneShotChecks {
            order: None,
            err_truth_each: None,
            err_fit_median: Some(1e-2),
        },
    })
}

/// Example 1: the paper's order-150, 30-port system with rank-30 `D`,
/// sampled clean at 16 log-spaced points over 10 Hz – 100 kHz, each
/// interior point jittered by the seed; full weights.
fn example1(seed: u64, pool: usize) -> Result<OneShotSet, String> {
    let system = example1_system();
    let base = FrequencyGrid::log_space(1e1, 1e5, 16).map_err(|e| e.to_string())?;
    let mut inputs = Vec::with_capacity(pool);
    let mut validations = Vec::with_capacity(pool);
    for d in 0..pool {
        let grid = FrequencyGrid::from_points(jitter(base.points(), draw(seed, d)))
            .map_err(|e| e.to_string())?;
        inputs.push(OneShotInput {
            samples: SampleSet::from_system(&system, &grid).map_err(|e| e.to_string())?,
            validation: d,
        });
        validations.push(Validation::new(&system, grid.points())?);
    }
    Ok(OneShotSet {
        weights: Weights::Full,
        selection: OrderSelection::default(),
        directions: DirectionKind::default(),
        inputs,
        validations,
        checks: OneShotChecks {
            order: Some(180),
            err_truth_each: Some(1e-6),
            err_fit_median: None,
        },
    })
}

/// The window benchmark's clean 2-port, order-10 stream at capacity
/// 96, on a log grid over 1 MHz – 1 GHz jittered by the seed.
fn stream(seed: u64, appends: usize) -> Result<StreamSet, String> {
    const CAPACITY: usize = 96;
    let system = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x77_1ADE + CAPACITY as u64)
        .build()
        .map_err(|e| e.to_string())?;
    let base = FrequencyGrid::log_space(1e6, 1e9, 2 * appends).map_err(|e| e.to_string())?;
    let grid = FrequencyGrid::from_points(jitter(base.points(), draw(seed, 0)))
        .map_err(|e| e.to_string())?;
    let all = SampleSet::from_system(&system, &grid).map_err(|e| e.to_string())?;
    let pairs = (0..appends)
        .map(|p| all.subset(&[2 * p, 2 * p + 1]))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let pair_width = 2 * all.ports().0.min(all.ports().1);
    let window_pairs = CAPACITY / pair_width;
    let window_idx: Vec<usize> = (2 * (appends - window_pairs)..2 * appends).collect();
    let final_window = all.subset(&window_idx).map_err(|e| e.to_string())?;
    let validation = Validation::new(&system, final_window.freqs_hz())?;
    Ok(StreamSet {
        capacity: CAPACITY,
        pair_width,
        pairs,
        final_window,
        validation,
    })
}

/// The validation grid: every sample frequency plus [`HELD_OUT`]
/// log-uniform points strictly between each pair of neighbours.
/// Returns the grid and the index of each sample in it.
pub fn validation_grid(samples: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let mut grid = Vec::with_capacity(samples.len() * (HELD_OUT + 1));
    let mut at = Vec::with_capacity(samples.len());
    for (i, &f) in samples.iter().enumerate() {
        at.push(grid.len());
        grid.push(f);
        if let Some(&next) = samples.get(i + 1) {
            let ratio = next / f;
            for j in 1..=HELD_OUT {
                grid.push(f * ratio.powf(j as f64 / (HELD_OUT + 1) as f64));
            }
        }
    }
    (grid, at)
}

/// Moves each interior point of an ascending log grid by up to a
/// quarter of its local log-step (endpoints stay: they set the
/// pencil's frequency normalization).
fn jitter(points: &[f64], seed: u64) -> Vec<f64> {
    let mut out = points.to_vec();
    for i in 1..points.len().saturating_sub(1) {
        let lo = (points[i - 1] * points[i]).sqrt();
        let hi = (points[i] * points[i + 1]).sqrt();
        let u = unit(mix(seed ^ mix(i as u64))) - 0.5;
        out[i] = points[i] * (0.5 * u * (hi / lo).ln()).exp();
    }
    out
}

/// The seed of pool entry `d`.
fn draw(seed: u64, d: usize) -> u64 {
    mix(seed.wrapping_mul(0x9E37_79B9).wrapping_add(d as u64 + 1))
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from 53 random bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}
