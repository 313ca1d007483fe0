//! Streaming `FitSession` integration: an MNA circuit measured one
//! sample pair at a time, with the order-detection SVD absorbed
//! incrementally (`SessionSvd::Updating`, the default). Checks the
//! serving-layer invariants end to end:
//!
//! * the per-append `order_trajectory()` is sensible — monotone
//!   non-decreasing while measurements still reveal modes, then flat
//!   once the pencil saturates;
//! * the incrementally maintained singular values agree with the
//!   one-shot fit's fresh decomposition;
//! * the final realized model matches a from-scratch fit on the same
//!   sample ordering to ≤ 1e-11 (the pencil is grown bit-identically
//!   and the rank decision must coincide, so the realizations do too);
//! * the retained working set stays far below the pencil order — the
//!   rank-revealing property that makes per-measurement refits
//!   sublinear.

use mfti::core::{FitSession, Fitter, Mfti, SessionSvd};
use mfti::numeric::SvdMethod;
use mfti::sampling::generators::MnaNetlist;
use mfti::sampling::{FrequencyGrid, SampleSet};
use mfti::statespace::{DescriptorSystem, Macromodel};

/// A 2-port RLC transmission-line ladder: eight series RL segments with
/// shunt C loads — enough states that the streamed pencil saturates
/// well after the first few measurements.
fn ladder() -> mfti::statespace::DescriptorSystem<f64> {
    let mut net = MnaNetlist::new();
    for seg in 0..8 {
        let a = 2 * seg + 1;
        net = net
            .resistor(a, a + 1, 4.0 + seg as f64)
            .inductor(a + 1, a + 2, 1.5e-9)
            .capacitor(a + 2, 0, 0.8e-12);
    }
    net.port(1).port(17).build().expect("valid netlist")
}

/// The stream: band edges first (they fix the session's frequency
/// normalization), then one interior sample pair per append.
fn streamed_batches(all: &SampleSet) -> Vec<SampleSet> {
    let k = all.len();
    let mut batches = vec![all.subset(&[0, k - 1]).expect("edges")];
    let mut i = 1;
    while i + 1 < k - 1 {
        batches.push(all.subset(&[i, i + 1]).expect("pair"));
        i += 2;
    }
    batches
}

#[test]
fn streamed_mna_fit_matches_from_scratch() {
    let ckt = ladder();
    let grid = FrequencyGrid::log_space(1e7, 1e10, 32).expect("grid");
    let all = SampleSet::from_system(&ckt, &grid).expect("sampling");
    let batches = streamed_batches(&all);
    assert!(batches.len() >= 15, "stream long enough to saturate");

    let mut session = FitSession::new(Mfti::new());
    for batch in &batches {
        session.append(batch).expect("append");
    }

    // --- Trajectory: monotone rise, then converged ---------------------
    let trajectory = session.order_trajectory().to_vec();
    assert_eq!(trajectory.len(), batches.len());
    assert!(
        trajectory.windows(2).all(|w| w[0] <= w[1]),
        "detected order regressed along the stream: {trajectory:?}"
    );
    let converged = *trajectory.last().expect("nonempty");
    assert!(converged > trajectory[0], "the stream never revealed modes");
    let first_at_final = trajectory
        .iter()
        .position(|&r| r == converged)
        .expect("final value occurs");
    assert!(
        first_at_final + 2 < trajectory.len(),
        "trajectory still climbing at stream end: {trajectory:?}"
    );
    assert!(
        trajectory[first_at_final..].iter().all(|&r| r == converged),
        "trajectory wobbled after convergence: {trajectory:?}"
    );

    // --- Rank-revealing working set ------------------------------------
    let retained = session.retained_rank().expect("updater materialized");
    assert!(
        2 * retained <= session.pencil_order(),
        "retained rank {retained} is not sublinear in pencil order {}",
        session.pencil_order()
    );

    // --- From-scratch reference on the same sample ordering ------------
    let streamed_order: Vec<SampleSet> = batches;
    let combined = {
        let mut freqs = Vec::new();
        let mut mats = Vec::new();
        for b in &streamed_order {
            freqs.extend_from_slice(b.freqs_hz());
            mats.extend(b.matrices().iter().cloned());
        }
        SampleSet::from_parts(freqs, mats).expect("combined")
    };
    let scratch = Mfti::new().fit(&combined).expect("one-shot fit");

    // Incrementally updated σ vs the one-shot fresh decomposition.
    let sv_stream = session.singular_values().expect("signal").to_vec();
    let sv_scratch = scratch.pencil_singular_values().expect("loewner fit");
    assert_eq!(sv_stream.len(), sv_scratch.len());
    let smax = sv_scratch[0];
    for (i, (a, b)) in sv_stream.iter().zip(sv_scratch).enumerate() {
        assert!(
            (a - b).abs() <= 1e-10 * smax,
            "σ[{i}] drift {:.2e} between stream and scratch",
            (a - b).abs() / smax
        );
    }

    // Identical rank decision ⇒ equivalent realization. The streamed
    // session realizes from its retained thin factors, the scratch fit
    // from a fresh decomposition of the (bit-identical) pencil — the
    // state bases differ by singular-subspace ambiguities, so the
    // comparison is in the basis-invariant transfer function.
    let streamed_fit = session.realize().expect("realize");
    assert_eq!(streamed_fit.order(), scratch.order());
    assert_eq!(streamed_fit.order(), converged);
    assert!(streamed_fit.model().as_real().is_some());
    let (resp_stream, resp_scratch) = (
        streamed_fit
            .model()
            .response_batch_hz(all.freqs_hz())
            .expect("sweep"),
        scratch
            .model()
            .response_batch_hz(all.freqs_hz())
            .expect("sweep"),
    );
    for ((f, hs), hr) in all.freqs_hz().iter().zip(&resp_stream).zip(&resp_scratch) {
        assert!(
            (hs - hr).max_abs() <= 1e-11 * hr.max_abs().max(1e-12),
            "retained-factor realization drifted from scratch at {f} Hz"
        );
    }

    // And the model actually reproduces the circuit on its samples
    // (batched sweep evaluation).
    let resp = streamed_fit
        .model()
        .response_batch_hz(all.freqs_hz())
        .expect("sweep");
    for ((f, s), h) in all.iter().zip(&resp) {
        assert!(
            (h - s).max_abs() < 1e-7 * s.max_abs().max(1e-12),
            "streamed model fails to interpolate at {f} Hz"
        );
    }
}

/// Satellite: rank-collapsing sliding window under `LargestGap`. A
/// deliberately low-order DUT sampled far past its rank leaves the live
/// window's shifted pencil with a true rank-deficient tail, so the
/// `f64::MIN_POSITIVE` denominator clamp in `OrderSelection::detect`
/// is live at every append — and the updater serves a *truncated*
/// spectrum padded with its retain floor (the PR 5 contract) while the
/// fresh oracle sees the full tail. Updater and oracle must make the
/// identical rank decision at every append, before and after the
/// window starts retracting, and a one-shot fit on the live window —
/// which detects on the *realified* pencil — must land on the same
/// order.
#[test]
fn rank_collapsing_window_keeps_updater_and_oracle_in_lockstep() {
    use mfti::core::{OrderSelection, WindowPolicy};
    use mfti::sampling::generators::RandomSystemBuilder;

    let dut = RandomSystemBuilder::new(4, 2, 2)
        .band(1e3, 1e6)
        .d_rank(1)
        .seed(55)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e3, 1e6, 20).expect("grid");
    let all = SampleSet::from_system(&dut, &grid).expect("sampling");

    // Capacity 24 at t = 2 keeps 6 pairs live — far above the true
    // order 5 (n + rank D), so the window pencil always rank-collapses.
    let window = WindowPolicy::Sliding { capacity: 24 };
    let selection = OrderSelection::LargestGap {
        min_order: 1,
        max_order: 24,
    };
    let mfti = || Mfti::new().order_selection(selection);
    let mut updating = FitSession::new(mfti()).window(window);
    let mut oracle = FitSession::new(mfti())
        .window(window)
        .svd(SessionSvd::Fresh(SvdMethod::Blocked));

    let k = all.len();
    updating
        .append(&all.subset(&[0, k - 1]).expect("edges"))
        .expect("append");
    oracle
        .append(&all.subset(&[0, k - 1]).expect("edges"))
        .expect("append");
    let mut i = 1;
    while i + 1 < k - 1 {
        let batch = all.subset(&[i, i + 1]).expect("pair");
        updating.append(&batch).expect("append");
        oracle.append(&batch).expect("append");
        i += 2;
    }

    assert!(updating.evicted_pairs() > 0, "the stream must have slid");
    assert_eq!(updating.evicted_pairs(), oracle.evicted_pairs());
    // The truncated-but-padded updater signal and the full fresh
    // spectrum resolve the clamp identically at every append.
    assert_eq!(updating.order_trajectory(), oracle.order_trajectory());
    let (mu, mo) = (
        updating.realize().expect("realize"),
        oracle.realize().expect("realize"),
    );
    assert_eq!(mu.order(), mo.order());
    assert_eq!(mu.order(), 5, "LargestGap must find the collapse rank");

    // The retained working set actually truncated the rank-deficient
    // tail — the padding contract (not the full spectrum) was on trial.
    let retained = updating.retained_rank().expect("updater materialized");
    assert!(
        retained < updating.pencil_order(),
        "no truncation: retained {retained} = pencil {}",
        updating.pencil_order()
    );

    // One-shot fit over the live window: realified detection reads the
    // same collapse through the same clamp.
    let live = updating.samples().expect("windowed session");
    let scratch = mfti().fit_detailed(live).expect("one-shot");
    assert_eq!(scratch.detected_order, mu.order());
}

/// Bits of a real descriptor model's matrices, in a fixed order.
fn model_bits(model: &DescriptorSystem<f64>) -> Vec<u64> {
    let (e, a, b, c, d) = model.real_matrices();
    [e, a, b, c, d]
        .iter()
        .flat_map(|m| m.iter().map(|x| x.to_bits()))
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// A session and a one-shot fit over the same samples must agree on
/// the **model bits**, not just the detected order.
///
/// * A single-batch session runs the one-shot fit's own detection
///   (realify, then the real shifted pencil) and keeps it, so its σ and
///   its model at every `Fixed(r)` — restricted (`2r ≤ K`) and dense
///   (`2r > K`) — equal `Mfti::fit_detailed`'s bit for bit.
/// * A streamed session on a saturated workload: few samples of the
///   high-order ladder leave the pencil without a σ cliff, so
///   detection keeps `2r > K`. Its later appends detect on the complex
///   updater signal, which makes the same decision (unitary
///   equivalence); the pencil grows bit-identically (same samples,
///   same pinned x₀), and both end in the identical stacked
///   factorization.
#[test]
fn dense_path_session_and_one_shot_fit_agree_to_the_bit() {
    use mfti::core::OrderSelection;
    use mfti::sampling::generators::RandomSystemBuilder;

    let dut = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .seed(404)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e3, 1e6, 24).expect("grid");
    let all = SampleSet::from_system(&dut, &grid).expect("sampling");
    let mut single = FitSession::new(Mfti::new());
    single.append(&all).expect("append");
    let k = single.pencil_order();
    assert_eq!(k, 48);
    for r in [4, 8, 12, 20, 24, 30, 40] {
        let fit = Mfti::new()
            .order_selection(OrderSelection::Fixed(r))
            .fit_detailed(&all)
            .expect("one-shot fit");
        let sv = single.singular_values().expect("signal");
        assert_eq!(bits(sv), bits(&fit.pencil_singular_values), "σ bits");
        let served = single
            .realize_with(OrderSelection::Fixed(r))
            .expect("realize");
        let model = served.model().as_real().expect("descriptor model");
        assert_eq!(model.order(), r);
        assert_eq!(
            model_bits(model),
            model_bits(&fit.model),
            "model bits diverged at r {r} (2r > K: {})",
            2 * r > k
        );
    }

    let ckt = ladder();
    let grid = FrequencyGrid::log_space(1e7, 1e10, 8).expect("grid");
    let all = SampleSet::from_system(&ckt, &grid).expect("sampling");
    let batches = streamed_batches(&all);

    let mut session = FitSession::new(Mfti::new());
    for batch in &batches {
        session.append(batch).expect("append");
    }
    let combined = {
        let mut freqs = Vec::new();
        let mut mats = Vec::new();
        for b in &batches {
            freqs.extend_from_slice(b.freqs_hz());
            mats.extend(b.matrices().iter().cloned());
        }
        SampleSet::from_parts(freqs, mats).expect("combined")
    };
    let scratch = Mfti::new().fit_detailed(&combined).expect("one-shot fit");

    let streamed = session.realize().expect("realize");
    assert_eq!(streamed.order(), scratch.detected_order);
    assert!(
        2 * streamed.order() > session.pencil_order(),
        "workload must exercise the dense stacked path (2r > K): r {} K {}",
        streamed.order(),
        session.pencil_order()
    );
    let from_session = streamed.model().as_real().expect("descriptor model");
    assert_eq!(
        model_bits(from_session),
        model_bits(&scratch.model),
        "model bits diverged"
    );
}

#[test]
fn streaming_oracle_and_updater_agree_on_the_mna_stream() {
    // The same stream under the fresh-SVD oracle: identical trajectory
    // and rank decisions at every append (the property suite checks the
    // numeric layer; this pins the session wiring).
    let ckt = ladder();
    let grid = FrequencyGrid::log_space(1e7, 1e10, 20).expect("grid");
    let all = SampleSet::from_system(&ckt, &grid).expect("sampling");

    let mut updating = FitSession::new(Mfti::new());
    let mut oracle = FitSession::new(Mfti::new()).svd(SessionSvd::Fresh(SvdMethod::Blocked));
    for batch in streamed_batches(&all) {
        updating.append(&batch).expect("append");
        oracle.append(&batch).expect("append");
    }
    assert_eq!(updating.order_trajectory(), oracle.order_trajectory());
    assert_eq!(
        updating.realize().expect("realize").order(),
        oracle.realize().expect("realize").order()
    );
}

/// An unbounded session is a sliding window that never evicts: the
/// same multi-append stream through `Unbounded` and through a window
/// whose capacity holds the whole stream runs one append path, so the
/// σ bits after every append, the trajectories — every diagnostic,
/// including the probe gate's residual — and the realized model's bits
/// all coincide.
#[test]
fn unbounded_session_is_a_window_that_never_evicts() {
    use mfti::core::WindowPolicy;

    let ckt = ladder();
    let grid = FrequencyGrid::log_space(1e7, 1e10, 32).expect("grid");
    let all = SampleSet::from_system(&ckt, &grid).expect("sampling");
    let batches = streamed_batches(&all);

    let mut unbounded = FitSession::new(Mfti::new());
    assert_eq!(unbounded.window_policy(), WindowPolicy::Unbounded);
    // Full weights on 2 ports: every pair adds 4 to the pencil order.
    let capacity = 2 * all.len();
    let mut window = FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity });
    for batch in &batches {
        unbounded.append(batch).expect("unbounded append");
        window.append(batch).expect("windowed append");
        assert_eq!(
            bits(unbounded.singular_values().expect("signal")),
            bits(window.singular_values().expect("signal")),
            "σ bits diverged at K {}",
            unbounded.pencil_order()
        );
    }
    assert_eq!(window.pencil_order(), capacity, "the window filled");
    assert_eq!(window.evicted_pairs(), 0);
    assert_eq!(unbounded.order_trajectory(), window.order_trajectory());
    assert_eq!(unbounded.signal_trajectory(), window.signal_trajectory());
    assert!(unbounded.signal_trajectory()[1..]
        .iter()
        .all(|d| d.gate_residual.is_some()));

    let (mu, mw) = (
        unbounded.realize().expect("realize"),
        window.realize().expect("realize"),
    );
    assert_eq!(
        model_bits(mu.model().as_real().expect("descriptor model")),
        model_bits(mw.model().as_real().expect("descriptor model")),
        "model bits diverged"
    );
}

/// A noisy window is full rank, so `downdate_leading` refuses every
/// eviction: each slide must quarantine the advanced candidate and
/// re-anchor from a fresh blocked decomposition, and the served signal
/// must track the fresh-SVD oracle over the same window.
#[test]
fn noisy_window_reanchors_fresh_on_every_slide() {
    use mfti::core::{Reanchor, WindowPolicy};
    use mfti::sampling::generators::RandomSystemBuilder;
    use mfti::sampling::NoiseModel;

    let sys = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .band(1e6, 1e9)
        .seed(0x51_1DE5)
        .build()
        .expect("valid");
    let grid = FrequencyGrid::log_space(1e6, 1e9, 48).expect("grid");
    let clean = SampleSet::from_system(&sys, &grid).expect("sampling");
    let all = NoiseModel::additive_relative(1e-4).apply(&clean, 0x51_1DE5);

    let window = WindowPolicy::Sliding { capacity: 24 };
    let mut updating = FitSession::new(Mfti::new()).window(window);
    let mut oracle = FitSession::new(Mfti::new())
        .window(window)
        .svd(SessionSvd::Fresh(SvdMethod::Blocked));
    let mut slides = 0;
    for batch in streamed_batches(&all) {
        updating.append(&batch).expect("append");
        oracle.append(&batch).expect("append");
        let (su, so) = (
            updating.singular_values().expect("signal"),
            oracle.singular_values().expect("signal"),
        );
        assert_eq!(su.len(), so.len());
        for (u, o) in su.iter().zip(so) {
            assert!((u - o).abs() <= 1e-9 * so[0], "σ drift: {u:e} vs {o:e}");
        }
        let d = updating.signal_trajectory().last().expect("diagnostic");
        if d.evicted_pairs > 0 {
            slides += 1;
            assert!(d.quarantined, "a full-rank window cannot be downdated");
            assert_eq!(d.reanchor, Some(Reanchor::FreshBlocked));
            let bound = d.error_bound.expect("updating appends commit an updater");
            assert!(bound <= 1e-11 * su[0], "re-anchor bound {bound:e}");
        }
    }
    assert_eq!(slides, 18, "24 appends into a 6-pair window");
    assert_eq!(updating.order_trajectory(), oracle.order_trajectory());
    let evictions = |s: &FitSession| -> Vec<usize> {
        s.signal_trajectory()
            .iter()
            .map(|d| d.evicted_pairs)
            .collect()
    };
    assert_eq!(evictions(&updating), evictions(&oracle));
    assert_eq!(updating.evicted_pairs(), oracle.evicted_pairs());
    assert_eq!(updating.retained_rank(), Some(updating.pencil_order()));
}
