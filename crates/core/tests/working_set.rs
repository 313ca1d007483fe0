//! Per-operation working sets, counted by a global allocator that
//! forwards every call to the system allocator (the benchmark's
//! `heap_peak_mb` counter): the restricted projection never holds a
//! stacked copy of the pencil, a window append never holds a complex
//! pencil, and a frequency sweep's buffers beyond the responses it
//! returns do not grow with the grid. Its own binary,
//! because the counters are process-global; every test holds `LOCK`, so
//! one measures at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use mfti_core::{DirectionKind, FitSession, Mfti, OrderSelection, Weights, WindowPolicy};
use mfti_numeric::{c64, CMatrix, Complex, RMatrix};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet};
use mfti_statespace::{DescriptorSystem, SweepStrategy};

/// The system allocator plus live/peak byte counters.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// mfti-lint: allow(MFTI-D4) — `GlobalAlloc` is an unsafe trait; every
// method forwards its arguments to `System` unchanged and only updates
// the counters, so the allocator contract is `System`'s own.
unsafe impl GlobalAlloc for Counting {
    // mfti-lint: allow(MFTI-D4) — forwards to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // mfti-lint: allow(MFTI-D4) — forwards to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // mfti-lint: allow(MFTI-D4) — forwards to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    // mfti-lint: allow(MFTI-D4) — forwards to `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f`; returns its result and the heap's high-water mark during
/// the call above the bytes live when it started.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(base))
}

#[test]
fn restricted_projection_holds_no_stacked_pencil() {
    let _guard = lock();
    // K = 96 (≡ 0 mod 4) and K = 102 (≡ 2 mod 4), both restricted
    // (2r ≤ K); the stacks `[𝕃ᵣ σ𝕃ᵣ]` and `[𝕃ᵣ; σ𝕃ᵣ]` would take
    // 2 · 2K · K · 8 bytes together.
    for (ports, t, samples) in [(4, 4, 24), (3, 3, 34)] {
        let sys = RandomSystemBuilder::new(20, ports, ports)
            .d_rank(ports)
            .seed(0x5e7)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e3, 1e7, samples).unwrap();
        let set = SampleSet::from_system(&sys, &grid).unwrap();
        let config = Mfti::new()
            .directions(DirectionKind::RandomOrthonormal { seed: 3 })
            .weights(Weights::Uniform(t));
        let mut session = FitSession::new(config);
        session.append(&set).unwrap();
        let k = session.pencil_order();
        assert!(k >= 96, "K = {k}");
        let selection = OrderSelection::Fixed(k / 8);
        // The first call fills the factorization caches a realization
        // reads; the second is the projection alone.
        session.realize_with(selection).unwrap();
        let (outcome, peak) = peak_above_start(|| session.realize_with(selection));
        assert_eq!(outcome.unwrap().order(), k / 8);
        let stacks = 2 * (2 * k * k * 8);
        assert!(
            peak < stacks,
            "K = {k}: peak {peak} B above the start, stacks {stacks} B"
        );
    }
}

#[test]
fn window_append_holds_no_complex_pencil() {
    let _guard = lock();
    // One-pair appends of a clean 2-port stream at full weights
    // (4 rows and columns per pair) under a 96-wide window: 24 live
    // pairs, and every append past the 24th evicts one.
    let sys = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x77_1ADE + 96)
        .build()
        .unwrap();
    let appends = 40;
    let grid = FrequencyGrid::log_space(1e6, 1e9, 2 * appends).unwrap();
    let set = SampleSet::from_system(&sys, &grid).unwrap();
    let mut session = FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity: 96 });
    let mut peaks = Vec::new();
    for p in 0..appends {
        let pair = set.subset(&[2 * p, 2 * p + 1]).unwrap();
        let (appended, peak) = peak_above_start(|| session.append(&pair));
        appended.unwrap();
        if p >= 30 {
            peaks.push(peak);
        }
    }
    let k = session.pencil_order();
    assert_eq!(k, 96);
    assert!(session.evicted_pairs() > 0);
    // The complex 𝕃 and σ𝕃 alone would take 2 · K² · 16 bytes. The
    // counters are process-wide, so the minimum over the steady
    // appends strips a sibling test's stray allocation.
    let complex_pencil = 2 * k * k * 16;
    let steady = peaks.iter().copied().min().unwrap();
    assert!(
        steady < complex_pencil,
        "steady append peak {steady} B above the start, complex pencil {complex_pencil} B"
    );
}

/// Order-`n` stable system with resonances spread over `[1, ω_hi]`
/// rad/s and dense couplings (xorshift entries); with `repeat`, each
/// odd resonance block copies the even one before it — double poles,
/// whose clustered eigenbasis keeps the sweep on the Schur
/// back-substitution instead of the modal kernel.
fn resonant_system(n: usize, ports: usize, omega_hi: f64, repeat: bool) -> DescriptorSystem<f64> {
    let mut seed = 0x7a11u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    let pairs = n / 2;
    let mut a = RMatrix::zeros(n, n);
    for k in 0..pairs {
        let src = if repeat && k % 2 == 1 { k - 1 } else { k };
        let omega = omega_hi.powf((src + 1) as f64 / pairs as f64);
        let sigma = -omega * (0.02 + 0.1 * next().abs());
        if src == k {
            a[(2 * k, 2 * k)] = sigma;
            a[(2 * k, 2 * k + 1)] = omega;
            a[(2 * k + 1, 2 * k)] = -omega;
            a[(2 * k + 1, 2 * k + 1)] = sigma;
        } else {
            for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                a[(2 * k + i, 2 * k + j)] = a[(2 * src + i, 2 * src + j)];
            }
        }
    }
    let b = RMatrix::from_fn(n, ports, |_, _| next());
    let c = RMatrix::from_fn(ports, n, |_, _| next());
    let d = RMatrix::from_fn(ports, ports, |_, _| 0.25 * next());
    DescriptorSystem::from_state_space(a, b, c, d).unwrap()
}

#[test]
fn sweep_buffers_beyond_the_responses_stay_flat_as_the_grid_grows() {
    let _guard = lock();
    for (kernel, sys, strategy) in [
        (
            "modal",
            resonant_system(40, 3, 1e8, false),
            SweepStrategy::Auto,
        ),
        (
            "schur",
            resonant_system(40, 3, 1e8, true),
            SweepStrategy::Schur,
        ),
    ] {
        // One magnitude group with the same largest point at every
        // length, so every sweep reads the one evaluator the warm-up
        // cached, and one worker, so the sweep's own peak is
        // deterministic. The counters are process-wide, and the test
        // harness's thread may allocate while a sibling test finishes:
        // the minimum over three sweeps strips that.
        let extra = |points: usize| {
            let grid: Vec<Complex> = (0..points)
                .map(|i| c64(0.0, 2e3 * 50f64.powf(i as f64 / (points - 1) as f64)))
                .collect();
            sys.eval_batch_with(&grid, strategy, 1).unwrap();
            let sweep = || {
                let (responses, peak) =
                    peak_above_start(|| sys.eval_batch_with(&grid, strategy, 1));
                let responses = responses.unwrap();
                let returned = responses.len() * std::mem::size_of::<CMatrix>()
                    + responses
                        .iter()
                        .map(|h| h.rows() * h.cols() * std::mem::size_of::<Complex>())
                        .sum::<usize>();
                peak - returned
            };
            (0..3).map(|_| sweep()).min().unwrap()
        };
        let (short, long) = (extra(256), extra(2048));
        assert!(
            long as f64 <= 1.1 * short as f64,
            "{kernel}: {long} B beyond the responses at 2048 points, {short} B at 256"
        );
    }
}
