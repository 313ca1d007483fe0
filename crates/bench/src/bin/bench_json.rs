//! Machine-readable timing summary of the end-to-end fitting pipeline.
//!
//! Runs the Table-1-shaped workload (noisy 6-port PDN) through **every
//! fitting engine behind the generic `Fitter` trait** (MFTI t = 2 and
//! full weights, VFTI, recursive MFTI, vector fitting), times the three
//! fit stages separately (pencil assembly / order-detection SVD /
//! realization) through the staged `FitSession`, benchmarks the batched
//! `Macromodel::eval_batch` sweep path against the per-frequency
//! evaluation loop on an order-48 descriptor model, times the cold
//! sweep set-up and the pole computation of the `mfti_full` model
//! against its complex twin (`sweep_cold/*`, `poles/*`), times the
//! level-2 kernels behind them on that model's matrices (`kernel/*`: the
//! complex Schur iteration and the real Hessenberg reduction of its first
//! sweep group, the values-only bidiagonalization of its detection
//! pencil, each with its nominal GFLOP/s against the same run's GEMM
//! rate), and times the raw
//! GEMM kernels: 256×256 complex and real naive/blocked pairs plus the
//! real restricted-projection shape. The `BENCH_*.json` summaries record
//! the perf trajectory of the repo per PR: end-to-end and sweep numbers
//! land in `BENCH_end_to_end.json`, the per-stage fit numbers in
//! `BENCH_fit_stages.json`.
//!
//! Timing and serialization both come from the criterion shim, so these
//! snapshots and `BENCH_JSON`-env bench runs share one schema:
//! `[{id, iterations, min_ns, median_ns, mean_ns}, …]`.
//!
//! It also times the **streaming append→order-detect path** at pencil
//! orders {16, 48, 96}: one sample-pair append followed by a
//! singular-value read, through the rank-revealing real `SvdUpdater`
//! (`SessionSvd::Updating`, the default) and through the fresh
//! blocked-SVD oracle (`SessionSvd::Fresh`) — the per-measurement
//! serving cost the incremental updates make sublinear. Both run on the
//! append's realified pencil, so the `session_stream/*/fresh` rows time
//! the real oracle. Those rows land in `BENCH_session_stream.json`.
//!
//! Usage: `cargo run --release -p mfti-bench --bin bench_json
//! [OUT.json] [STAGES.json] [SESSION.json]` (defaults:
//! `BENCH_end_to_end.json`, `BENCH_fit_stages.json` and
//! `BENCH_session_stream.json` in the current directory).

use criterion::{BenchResult, Criterion};

use mfti_bench::{random_complex, random_real};
use mfti_core::{
    realify, FitSession, Fitter, LoewnerPencil, Mfti, OrderSelection, RealifiedPencil,
    RecursiveMfti, SessionSvd, TangentialData, Vfti, Weights,
};
use mfti_numeric::{kernel, parallel, Hessenberg, Lu, RMatrix, Schur, Svd, SvdMethod};
use mfti_sampling::generators::{PdnBuilder, RandomSystemBuilder};
use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};
use mfti_statespace::{Macromodel, SweepStrategy, TransferFunction};
use mfti_vecfit::VectorFitter;

fn workload() -> SampleSet {
    let pdn = PdnBuilder::new(6)
        .resonance_pairs(20)
        .band(1e7, 1e9)
        .seed(3)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::linear(1e7, 1e9, 40).expect("valid");
    let clean = SampleSet::from_system(&pdn, &grid).expect("sampling");
    NoiseModel::additive_relative(1e-3).apply(&clean, 9)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_end_to_end.json".to_string());
    let stages_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_fit_stages.json".to_string());
    let session_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_session_stream.json".to_string());

    let samples = workload();
    let selection = OrderSelection::NoiseFloor { factor: 5.0 };
    let mut c = Criterion::default();
    c.sample_size(10);

    // --- end-to-end fits, one generic loop over every engine ----------
    let engines: Vec<(&str, Box<dyn Fitter>)> = vec![
        (
            "mfti_t2",
            Box::new(
                Mfti::new()
                    .weights(Weights::Uniform(2))
                    .order_selection(selection),
            ),
        ),
        (
            "mfti_full",
            Box::new(Mfti::new().order_selection(selection)),
        ),
        ("vfti", Box::new(Vfti::new().order_selection(selection))),
        (
            "recursive_mfti_t2",
            Box::new(
                RecursiveMfti::new()
                    .weights(Weights::Uniform(2))
                    .order_selection(selection)
                    .batch_pairs(5)
                    .threshold(1e-2),
            ),
        ),
        (
            "vecfit_n40_10it",
            Box::new(VectorFitter::new(40).iterations(10)),
        ),
    ];
    for (label, engine) in &engines {
        c.bench_function(&format!("end_to_end/{label}"), |b| {
            b.iter(|| engine.fit(&samples).expect("fit"))
        });
    }

    // --- sweep set-up and poles: real model vs its complex twin --------
    // The mfti_full fit's real model and its `to_complex()` twin over
    // one 100-point log sweep of the band, on one thread so the serial
    // set-up is not hidden behind the parallel per-point phase. Each
    // sweep iteration clones the model, so it starts with an empty
    // `SweepCache` and pays the cold set-up (LU, solves, Hessenberg
    // reduction, Schur iteration, modal validation) a freshly fitted
    // model pays; the real model factors, solves and reduces in f64 and
    // computes its poles with the real Francis iteration (DESIGN.md
    // §10), the twin runs all of it in complex arithmetic.
    let full_outcome = Mfti::new()
        .order_selection(selection)
        .fit(&samples)
        .expect("mfti_full fit");
    let real_model = full_outcome
        .model()
        .as_real()
        .expect("the real fit path returns a real model")
        .clone();
    let twin_model = real_model.to_complex();
    let setup_pts: Vec<mfti_numeric::Complex> = FrequencyGrid::log_space(1e7, 1e9, 100)
        .expect("valid")
        .points()
        .iter()
        .map(|&f| mfti_statespace::s_at_hz(f))
        .collect();
    let real_cold = || {
        real_model
            .clone()
            .eval_batch_with(&setup_pts, SweepStrategy::Auto, 1)
            .expect("sweep")
    };
    let twin_cold = || {
        twin_model
            .clone()
            .eval_batch_with(&setup_pts, SweepStrategy::Auto, 1)
            .expect("sweep")
    };
    // The real set-up reproduces the twin's sweep exactly (DESIGN.md
    // §10): check that before timing anything (this also warms both).
    let real_sweep = real_cold();
    let twin_sweep = twin_cold();
    assert!(
        real_sweep
            .iter()
            .zip(&twin_sweep)
            .all(|(r, t)| r.approx_eq(t, 0.0)),
        "real and complex sweep set-ups disagree"
    );
    c.sample_size(20)
        .bench_function("sweep_cold/real", |b| b.iter(real_cold))
        .bench_function("sweep_cold/complex", |b| b.iter(twin_cold))
        .bench_function("poles/real", |b| {
            b.iter(|| real_model.poles().expect("poles"))
        })
        .bench_function("poles/complex", |b| {
            b.iter(|| twin_model.poles().expect("poles"))
        });

    // --- per-stage fit timings (the mfti_full workload, staged) --------
    // Where the fit's time goes: the realified pencil's assembly
    // straight from the tangential data (GEMM cross products over the
    // first-member rows + row-parallel divisor planes + per-row-pair
    // realification), the order-detection SVD (values-only blocked
    // path), and realization (the two single-factor stacked SVDs + the
    // Lemma 3.4 projections). The stages are timed through the same
    // structures `FitSession` drives, so they add up to the one-shot fit.
    let config = Mfti::new().order_selection(selection);
    let stage_data = TangentialData::build(&samples, Default::default(), &Weights::Full)
        .expect("tangential data");
    let stage_pencil = LoewnerPencil::build(&stage_data).expect("pencil");
    let x0 = stage_pencil.default_x0().re;
    let mut stage_session = FitSession::new(config.clone());
    stage_session.append(&samples).expect("session append");
    stage_session
        .singular_values()
        .expect("order-detection svd");
    c.sample_size(10)
        .bench_function("fit_stage/assembly", |b| {
            b.iter(|| RealifiedPencil::build(&stage_data).expect("assembly"))
        })
        .bench_function("fit_stage/detect", |b| {
            // Real detection as the one-shot fit now runs it: the pinned
            // shift is real, so the realified shifted pencil is a real
            // K×K matrix on the packed real GEMM path. The assembly is
            // hoisted out — the fit pays it once, shared with the
            // stacked projections.
            let real = RealifiedPencil::build(&stage_data).expect("assembly");
            b.iter(|| Svd::singular_values_of(&real.shifted_pencil(x0)).expect("detect"))
        })
        .bench_function("fit_stage/realize", |b| {
            b.iter(|| stage_session.realize().expect("realize"))
        });

    // --- kernel rates: the sweep set-up and detection kernels -----------
    // The level-2 kernels behind the cold sweep and order detection, on
    // the mfti_full model's own matrices: the shift-inverted sweep matrix
    // `F⁻¹E` (`F = σE − A`) of its first magnitude group at the group's
    // real shift `σ`, as the sweep set-up forms it, and the fit's real
    // detection pencil. Their rates use Golub–Van Loan's nominal flop
    // counts (printed with the summary below).
    let mut magnitudes: Vec<f64> = setup_pts.iter().map(|s| s.abs()).collect();
    magnitudes.sort_by(f64::total_cmp);
    let sigma = magnitudes
        .iter()
        .copied()
        .take_while(|&m| m <= 100.0 * magnitudes[0])
        .fold(0.0f64, f64::max);
    let (e_real, a_real, _, _, _) = real_model.real_matrices();
    let shifted = RMatrix::from_fn(e_real.rows(), e_real.cols(), |i, j| {
        e_real[(i, j)] * sigma - a_real[(i, j)]
    });
    let sweep_matrix = Lu::compute(&shifted)
        .and_then(|lu| lu.solve(e_real))
        .expect("first sweep group's shift-inverted matrix");
    let sweep_n = sweep_matrix.rows();
    let sweep_hess = Hessenberg::compute(&sweep_matrix).expect("hessenberg");
    let detect_pencil = realify(&stage_pencil, 1e-6)
        .expect("realify")
        .shifted_pencil(x0);
    let detect_k = detect_pencil.rows();
    c.sample_size(20)
        .bench_function(&format!("kernel/schur_complex_n{sweep_n}"), |b| {
            b.iter(|| Schur::from_hessenberg(&sweep_hess).expect("schur"))
        })
        .bench_function(&format!("kernel/hessenberg_real_n{sweep_n}"), |b| {
            b.iter(|| Hessenberg::compute(&sweep_matrix).expect("hessenberg"))
        })
        .bench_function(&format!("kernel/bidiag_values_real_k{detect_k}"), |b| {
            b.iter(|| Svd::singular_values_of(&detect_pencil).expect("detect"))
        });

    // --- streaming append → order-detect: updater vs fresh SVD ---------
    // Clean (numerically rank-deficient) 2-port streams: the serving
    // scenario the rank-revealing updates target. Each measured
    // iteration clones a preloaded session, appends the final sample
    // pair (thin pencil strips) and reads the refreshed singular
    // values — under the default incremental updater and under the
    // fresh blocked-SVD oracle. The preload already did two appends, so
    // the updater state is materialized and the measurement sees the
    // steady-state per-measurement cost.
    for pencil_order in [16usize, 48, 96] {
        let pairs = pencil_order / 4; // full weights on 2 ports: t = 2
        let stream_sys = RandomSystemBuilder::new(12, 2, 2)
            .d_rank(2)
            .band(1e6, 1e9)
            .seed(0x517ea)
            .build()
            .expect("valid");
        let stream_grid = FrequencyGrid::log_space(1e6, 1e9, 2 * pairs).expect("valid");
        let stream = SampleSet::from_system(&stream_sys, &stream_grid).expect("sampling");
        let k = stream.len();
        let head: Vec<usize> = (0..k - 4).collect();
        let warm: Vec<usize> = vec![k - 4, k - 3];
        let last = stream.subset(&[k - 2, k - 1]).expect("final pair");

        let preload = |strategy: SessionSvd| -> FitSession {
            let mut s = FitSession::new(Mfti::new()).svd(strategy);
            s.append(&stream.subset(&head).expect("head"))
                .expect("append");
            s.append(&stream.subset(&warm).expect("warm"))
                .expect("append");
            s
        };
        let updating = preload(SessionSvd::Updating);
        let fresh = preload(SessionSvd::Fresh(SvdMethod::Blocked));
        c.sample_size(20)
            .bench_function(&format!("session_stream/k{pencil_order}/updating"), |b| {
                b.iter(|| {
                    let mut s = updating.clone();
                    s.append(&last).expect("append");
                    s.singular_values().expect("signal")[0]
                })
            })
            .bench_function(&format!("session_stream/k{pencil_order}/fresh"), |b| {
                b.iter(|| {
                    let mut s = fresh.clone();
                    s.append(&last).expect("append");
                    s.singular_values().expect("signal")[0]
                })
            });

        if pencil_order == 96 {
            // Append → refreshed *model*, not just the refreshed signal:
            // the updating path realizes from the updater's retained
            // factors (no fresh K×K decomposition anywhere), the fresh
            // oracle decomposes the realified pencil twice (the
            // values-only signal, then the detection the realize
            // projects on).
            c.bench_function("session_stream/k96/updating_realize", |b| {
                b.iter(|| {
                    let mut s = updating.clone();
                    s.append(&last).expect("append");
                    s.realize().expect("realize").order()
                })
            })
            .bench_function("session_stream/k96/fresh_realize", |b| {
                b.iter(|| {
                    let mut s = fresh.clone();
                    s.append(&last).expect("append");
                    s.realize().expect("realize").order()
                })
            });
            // The retained-factor realize stage in isolation (clean
            // rank-deficient stream — the regime where the retained
            // path applies; the noisy PDN stage workload above retains
            // near-full rank and deliberately falls back).
            let mut retained_session = updating.clone();
            retained_session.append(&last).expect("append");
            assert!(
                2 * retained_session.retained_rank().expect("updater")
                    <= retained_session.pencil_order(),
                "retained realize bench must exercise the retained path"
            );
            c.bench_function("fit_stage/realize_retained", |b| {
                b.iter(|| retained_session.realize().expect("realize"))
            });
        }
    }

    // --- batched sweep: algorithmic (Schur) × parallel multipliers -----
    // 100-point sweeps over 2 decades at orders {16, 48, 96}. Per order:
    // the per-frequency LU loop, the PR 2 Hessenberg-Givens kernel at
    // 1 thread, and the default batch path (Schur above the crossover)
    // at 1 thread and at all available threads — so BENCH_*.json records
    // the algorithmic and the parallel speed-up separately. Order 48 is
    // the acceptance workload (>= 2.5x over Hessenberg-Givens).
    let threads_all = parallel::available_threads();
    for order in [16usize, 48, 96] {
        let sweep_model = RandomSystemBuilder::new(order, 3, 3)
            .band(1e7, 1e9)
            .d_rank(3)
            .seed(0x40)
            .build()
            .expect("valid");
        let sweep_grid = FrequencyGrid::log_space(1e7, 1e9, 100).expect("valid");
        let sweep_pts: Vec<mfti_numeric::Complex> = sweep_grid
            .points()
            .iter()
            .map(|&f| mfti_statespace::s_at_hz(f))
            .collect();
        // Cross-check agreement (and serial/parallel bit-identity)
        // before timing anything.
        let batch = sweep_model.eval_batch(&sweep_pts).expect("batch eval");
        for (&s, h) in sweep_pts.iter().zip(&batch) {
            let direct = sweep_model.eval(s).expect("eval");
            let rel = (h - &direct).max_abs() / direct.max_abs();
            assert!(rel < 1e-11, "sweep deviates from LU path: {rel:.2e}");
        }
        let serial = sweep_model
            .eval_batch_with(&sweep_pts, SweepStrategy::Auto, 1)
            .expect("serial batch");
        for (h_par, h_ser) in batch.iter().zip(&serial) {
            assert!(
                h_par.approx_eq(h_ser, 0.0),
                "parallel sweep is not bit-identical to serial"
            );
        }

        c.sample_size(20)
            .bench_function(&format!("eval_sweep_n{order}_100pts/batch"), |b| {
                b.iter(|| sweep_model.eval_batch(&sweep_pts).expect("batch"))
            })
            .bench_function(&format!("eval_sweep_n{order}_100pts/batch_t1"), |b| {
                b.iter(|| {
                    sweep_model
                        .eval_batch_with(&sweep_pts, SweepStrategy::Auto, 1)
                        .expect("batch t1")
                })
            });
        if threads_all > 1 {
            c.bench_function(
                &format!("eval_sweep_n{order}_100pts/batch_t{threads_all}"),
                |b| {
                    b.iter(|| {
                        sweep_model
                            .eval_batch_with(&sweep_pts, SweepStrategy::Auto, threads_all)
                            .expect("batch tN")
                    })
                },
            );
        }
        c.bench_function(&format!("eval_sweep_n{order}_100pts/hessenberg_t1"), |b| {
            b.iter(|| {
                sweep_model
                    .eval_batch_with(&sweep_pts, SweepStrategy::Hessenberg, 1)
                    .expect("hessenberg")
            })
        });
        c.sample_size(10)
            .bench_function(&format!("eval_sweep_n{order}_100pts/loop"), |b| {
                b.iter(|| {
                    sweep_pts
                        .iter()
                        .map(|&s| sweep_model.eval(s).expect("eval"))
                        .collect::<Vec<_>>()
                })
            });
    }

    // --- raw GEMM kernels ----------------------------------------------
    let a = random_complex(256, 0x5eed);
    let b_mat = random_complex(256, 0xbeef);
    c.sample_size(20)
        .bench_function("gemm_c64_256/blocked", |b| {
            b.iter(|| kernel::mul(&a, &b_mat).expect("gemm"))
        });
    c.sample_size(10).bench_function("gemm_c64_256/naive", |b| {
        b.iter(|| kernel::mul_naive(&a, &b_mat).expect("gemm"))
    });
    // The real path every realified product takes: a 256³ cube and the
    // restricted projection 𝕃ᵣ·X of Example 1 (m × n × k = 480 × 180 × 480).
    let ar = random_real(256, 256, 0x5eed);
    let br = random_real(256, 256, 0xbeef);
    let pencil = random_real(480, 480, 0x9e11);
    let basis = random_real(480, 180, 0xba5e);
    c.sample_size(20)
        .bench_function("gemm_f64_256/blocked", |b| {
            b.iter(|| kernel::mul(&ar, &br).expect("gemm"))
        })
        .bench_function("gemm_f64_480x180x480/blocked", |b| {
            b.iter(|| kernel::mul(&pencil, &basis).expect("gemm"))
        });
    c.sample_size(10).bench_function("gemm_f64_256/naive", |b| {
        b.iter(|| kernel::mul_naive(&ar, &br).expect("gemm"))
    });

    let results = c.results();
    let median_of = |id: &str| {
        results
            .iter()
            .find(|r| r.id == id)
            .map_or(f64::NAN, |r| r.median_ns)
    };
    let speedup =
        median_of("eval_sweep_n48_100pts/loop") / median_of("eval_sweep_n48_100pts/batch");
    println!("eval_batch sweep speed-up over per-frequency loop: {speedup:.2}x");
    // Both sides pinned to 1 thread: this isolates the algorithmic
    // (Schur/modal) multiplier from the parallel one reported below.
    let schur_speedup = median_of("eval_sweep_n48_100pts/hessenberg_t1")
        / median_of("eval_sweep_n48_100pts/batch_t1");
    println!(
        "eval_batch speed-up over the Hessenberg-Givens kernel (1 thread): {schur_speedup:.2}x"
    );
    if threads_all > 1 {
        let par_speedup = median_of("eval_sweep_n48_100pts/batch_t1")
            / median_of(&format!("eval_sweep_n48_100pts/batch_t{threads_all}"));
        println!("parallel multiplier at {threads_all} threads: {par_speedup:.2}x");
    } else {
        println!("single hardware thread: parallel multiplier not measurable on this host");
    }

    // A complex multiply-add is four real ones: 8·n³ flops vs 2·n³.
    let gflops = |id: &str, flops: f64| flops / median_of(id);
    println!(
        "GEMM rates: complex 256³ {:.1} GFLOP/s | real 256³ {:.1} GFLOP/s | \
         real 480×180×480 {:.1} GFLOP/s",
        gflops("gemm_c64_256/blocked", 8.0 * 256f64.powi(3)),
        gflops("gemm_f64_256/blocked", 2.0 * 256f64.powi(3)),
        gflops("gemm_f64_480x180x480/blocked", 2.0 * 480.0 * 180.0 * 480.0),
    );

    // Kernel rates against the same run's blocked GEMM (one thread each;
    // the bidiagonalization fans its trailing updates out over the
    // library's worker count). Nominal flop counts from the dimensions:
    // the Schur iteration at Golub–Van Loan's two QR steps per
    // eigenvalue (§7.5.6), a step over a w-row window applying w − 1
    // complex rotations to 2n + 1 entry pairs (left across the columns,
    // right down T's rows and Z's) at 20 real flops a pair, so
    // Σ_w 2·20·2n·w ≈ 40n³; the Hessenberg reduction with Q,
    // 10n³/3 + 4n³/3 (Algorithm 7.4.2); the values-only
    // bidiagonalization, 4mn² − 4n³/3 = 8K³/3 for K × K (Algorithm
    // 5.4.2).
    let (nf, kf) = (sweep_n as f64, detect_k as f64);
    let rates = [
        (
            format!("kernel/schur_complex_n{sweep_n}"),
            40.0 * nf.powi(3),
            "gemm_c64_256/blocked",
            8.0,
        ),
        (
            format!("kernel/hessenberg_real_n{sweep_n}"),
            14.0 * nf.powi(3) / 3.0,
            "gemm_f64_256/blocked",
            2.0,
        ),
        (
            format!("kernel/bidiag_values_real_k{detect_k}"),
            8.0 * kf.powi(3) / 3.0,
            "gemm_f64_256/blocked",
            2.0,
        ),
    ];
    let rate_line: Vec<String> = rates
        .iter()
        .map(|(id, flops, gemm, gemm_flops_per_n3)| {
            let rate = gflops(id, *flops);
            let peak = gflops(gemm, gemm_flops_per_n3 * 256f64.powi(3));
            format!(
                "{} {rate:.2} GFLOP/s ({:.0}% of {gemm})",
                id.trim_start_matches("kernel/"),
                100.0 * rate / peak
            )
        })
        .collect();
    println!(
        "kernel rates (nominal GVL flops; bidiagonalization at {threads_all} workers): {}",
        rate_line.join(" | ")
    );

    let ms = |id: &str| median_of(id) / 1e6;
    println!(
        "sweep set-up and poles (mfti_full model, n = {}): cold sweep real {:.2} ms | \
         complex {:.2} ms ({:.2}x) | poles real {:.2} ms | complex {:.2} ms ({:.2}x)",
        real_model.order(),
        ms("sweep_cold/real"),
        ms("sweep_cold/complex"),
        ms("sweep_cold/complex") / ms("sweep_cold/real"),
        ms("poles/real"),
        ms("poles/complex"),
        ms("poles/complex") / ms("poles/real"),
    );

    let stage_ms = |stage: &str| median_of(&format!("fit_stage/{stage}")) / 1e6;
    println!(
        "fit stages (mfti_full): assembly {:.2} ms | detect (real) {:.2} ms | \
         realize {:.2} ms | end-to-end {:.1} ms",
        stage_ms("assembly"),
        stage_ms("detect"),
        stage_ms("realize"),
        median_of("end_to_end/mfti_full") / 1e6,
    );
    println!(
        "realize paths: rank-limited {:.2} ms | retained-factor (clean K=96 stream) {:.3} ms",
        stage_ms("realize"),
        stage_ms("realize_retained"),
    );

    for pencil_order in [16usize, 48, 96] {
        let upd = median_of(&format!("session_stream/k{pencil_order}/updating"));
        let fre = median_of(&format!("session_stream/k{pencil_order}/fresh"));
        println!(
            "session append→order-detect at K={pencil_order}: updating {:.0} µs | \
             fresh {:.0} µs | speed-up {:.2}x",
            upd / 1e3,
            fre / 1e3,
            fre / upd,
        );
    }
    let upd_model = median_of("session_stream/k96/updating_realize");
    let fre_model = median_of("session_stream/k96/fresh_realize");
    println!(
        "session append→refreshed model at K=96: updating {:.0} µs | fresh {:.0} µs | \
         speed-up {:.2}x",
        upd_model / 1e3,
        fre_model / 1e3,
        fre_model / upd_model,
    );

    let (stage_results, rest): (Vec<BenchResult>, Vec<BenchResult>) = results
        .iter()
        .cloned()
        .partition(|r| r.id.starts_with("fit_stage/"));
    let (session_results, main_results): (Vec<BenchResult>, Vec<BenchResult>) = rest
        .into_iter()
        .partition(|r| r.id.starts_with("session_stream/"));
    criterion::write_json(&main_results, &out_path).expect("write timing summary");
    println!("wrote {out_path}");
    criterion::write_json(&stage_results, &stages_path).expect("write fit-stage summary");
    println!("wrote {stages_path}");
    criterion::write_json(&session_results, &session_path).expect("write session-stream summary");
    println!("wrote {session_path}");
}
