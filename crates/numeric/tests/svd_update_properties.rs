//! Streaming-equivalence harness for the rank-revealing SVD updater:
//! after every append the updated singular values must agree with a
//! fresh `SvdMethod::Blocked` decomposition of the same (sub)matrix to
//! ≤ 1e-10 · σ₁, and the three data-driven order-selection readings of
//! the spectrum (threshold / largest-gap / noise-floor, mirroring
//! `mfti_core::OrderSelection` on the same formulas) must make
//! identical rank decisions — across gapped, noise-floor and gapless
//! spectra, for square, wide and real-scalar streams, after 1, 5 and 50
//! sequential appends.

use mfti_numeric::SvdUpdater;
use mfti_numeric::{c64, CMatrix, Matrix, Qr, RMatrix, Scalar, Svd, SvdFactors, SvdMethod};

const SV_TOL: f64 = 1e-10;
const CHECKPOINTS: [usize; 3] = [1, 5, 50];

fn xorshift(seed: &mut u64) -> f64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    (*seed as f64 / u64::MAX as f64) * 2.0 - 1.0
}

fn random_orthonormal_complex(n: usize, mut seed: u64) -> CMatrix {
    let g = CMatrix::from_fn(n, n, |_, _| c64(xorshift(&mut seed), xorshift(&mut seed)));
    Qr::compute(&g).expect("finite").q_thin()
}

fn random_orthonormal_real(n: usize, mut seed: u64) -> RMatrix {
    let g = RMatrix::from_fn(n, n, |_, _| xorshift(&mut seed));
    Qr::compute(&g).expect("finite").q_thin()
}

/// `U · diag(spectrum) · V*` with random unitary factors — a matrix with
/// an exactly prescribed singular-value profile.
fn with_spectrum<T: Scalar>(u: &Matrix<T>, v: &Matrix<T>, spectrum: &[f64]) -> Matrix<T> {
    let n = spectrum.len();
    assert_eq!(u.cols(), n);
    let mut us = u.clone();
    for j in 0..n {
        for i in 0..n {
            us[(i, j)] = us[(i, j)].scale(spectrum[j]);
        }
    }
    us.mul_adjoint_right(v).expect("square factors")
}

/// Sharp physical gap: strong modes spanning four decades, then a
/// roundoff-level tail (the clean-data Fig. 1 shape).
fn gapped_spectrum(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i < 10 {
                10f64.powf(-(i as f64) * 0.4)
            } else {
                1e-14 * 0.9f64.powi(i as i32 - 10)
            }
        })
        .collect()
}

/// Modes decaying into a measurement-noise plateau (the Table 1 shape):
/// everything sits far above the retained floor, so nothing truncates.
fn noise_floor_spectrum(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i < 12 {
                10f64.powf(-(i as f64) * 0.25)
            } else {
                1e-5 * (1.0 + 0.07 * ((i * 7919) % 13) as f64)
            }
        })
        .collect()
}

/// Smooth geometric decay that never reaches the retained floor — the
/// worst case for a rank-revealing method: the retained rank stays full
/// and the updater must track every value. One mildly larger drop is
/// planted at index 18 so the largest-gap reading has a well-separated
/// argmax (on a perfectly uniform decay every adjacent ratio ties and
/// the argmax is decided by roundoff — ill-posed for *any* backend).
fn gapless_spectrum(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.87f64.powi(i as i32) * if i >= 18 { 0.55 } else { 1.0 })
        .collect()
}

/// A strong physical gap after index 5, then a smooth decay that
/// crosses the retained floor *inside* the largest-gap search window —
/// the regression shape for truncation-boundary artifacts: padding the
/// truncated tail with zeros would manufacture a near-infinite
/// σ_r/σ_{r+1} ratio at the boundary (≈ index 16) and out-vote the true
/// gap at 5, so decision equality here pins the floor-padding contract.
fn floor_crossing_spectrum(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i < 5 {
                10f64.powf(-(i as f64) * 0.2)
            } else {
                1e-5 * 10f64.powf(-((i - 5) as f64) * 0.75)
            }
        })
        .collect()
}

/// The three `OrderSelection` readings, computed on the same formulas
/// (`Threshold`, `LargestGap`, `NoiseFloor` in `mfti_core::realize`),
/// with the numeric-floor clamp of the noise-floor rule.
fn rank_decisions(sv: &[f64]) -> (usize, usize, usize) {
    let s0 = sv.first().copied().unwrap_or(0.0);
    let threshold = sv.iter().take_while(|&&s| s > 1e-12 * s0).count();

    let n = sv.len();
    let (lo, hi) = (1usize, 24usize.min(n.saturating_sub(1)));
    let mut best_r = lo;
    let mut best_ratio = 0.0f64;
    for r in lo..=hi {
        let ratio = sv[r - 1] / sv[r].max(f64::MIN_POSITIVE);
        if ratio > best_ratio {
            best_ratio = ratio;
            best_r = r;
        }
    }

    let tail_start = (3 * n) / 4;
    let tail = &sv[tail_start.min(n.saturating_sub(4))..];
    let mut t = tail.to_vec();
    t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = if t.is_empty() {
        0.0
    } else if t.len() % 2 == 1 {
        t[t.len() / 2]
    } else {
        0.5 * (t[t.len() / 2 - 1] + t[t.len() / 2])
    };
    let cut = (5.0 * median).max(1e-11 * s0);
    let noise_floor = sv.iter().take_while(|&&s| s > cut).count();

    (threshold, best_r, noise_floor)
}

/// Pads the updater's retained spectrum to the fresh length with the
/// retained floor — what streaming consumers (`FitSession`) do.
/// Truncated values sit below every decision threshold, and the floor
/// (unlike zero) cannot manufacture an unbounded σ-ratio at the
/// truncation boundary for the largest-gap reading.
fn padded<T: Scalar>(upd: &SvdUpdater<T>, len: usize) -> Vec<f64> {
    let mut sv = upd.singular_values().to_vec();
    assert!(sv.len() <= len, "updater retained more than min(dims)");
    sv.resize(len, upd.retain_floor());
    sv
}

/// Streams `full` from its leading `start × start` block to its full
/// size in `k`-wide border appends, asserting spectrum agreement and
/// identical rank decisions against a fresh blocked decomposition after
/// every single append.
fn drive_square_stream<T: Scalar>(full: &Matrix<T>, start: usize, k: usize, label: &str) {
    let n = full.rows();
    assert_eq!(full.cols(), n, "square driver");
    let seed = full.submatrix(0, 0, start, start).expect("in range");
    let mut upd = SvdUpdater::new(&seed).expect("seed svd");
    let mut dim = start;
    let mut appends = 0usize;
    while dim < n {
        let grow = k.min(n - dim);
        upd.append_border(
            &full.submatrix(0, dim, dim, grow).expect("cols"),
            &full.submatrix(dim, 0, grow, dim).expect("rows"),
            &full.submatrix(dim, dim, grow, grow).expect("corner"),
        )
        .expect("append");
        dim += grow;
        appends += 1;

        let sub = full.submatrix(0, 0, dim, dim).expect("in range");
        let fresh = Svd::compute_factors(&sub, SvdMethod::Blocked, SvdFactors::ValuesOnly)
            .expect("fresh svd");
        let fresh_sv = fresh.singular_values();
        let got = padded(&upd, fresh_sv.len());
        let smax = fresh_sv[0];
        for (i, (a, b)) in got.iter().zip(fresh_sv).enumerate() {
            assert!(
                (a - b).abs() <= SV_TOL * smax,
                "{label}: σ[{i}] drift {:.2e} (updated {a:.6e}, fresh {b:.6e}) \
                 after {appends} appends at dim {dim}",
                (a - b).abs() / smax,
            );
        }
        assert_eq!(
            rank_decisions(&got),
            rank_decisions(fresh_sv),
            "{label}: rank decisions diverged after {appends} appends at dim {dim}"
        );
        if CHECKPOINTS.contains(&appends) {
            // Checkpoint bookkeeping: the error bound must stay well
            // inside the agreement tolerance budget.
            assert!(
                upd.error_bound() <= SV_TOL * smax,
                "{label}: error bound {:.2e} escaped the tolerance budget",
                upd.error_bound()
            );
        }
    }
    assert_eq!(
        appends,
        (n - start).div_ceil(k),
        "{label}: stream did not cover the full matrix"
    );
}

#[test]
fn gapped_spectrum_stream_matches_fresh_svd() {
    let n = 90; // 40 → 90 in 50 single-pair appends
    let full = with_spectrum(
        &random_orthonormal_complex(n, 0x9a55ed),
        &random_orthonormal_complex(n, 0x0b57ac1e),
        &gapped_spectrum(n),
    );
    drive_square_stream(&full, 40, 1, "gapped");
}

#[test]
fn noise_floor_spectrum_stream_matches_fresh_svd() {
    let n = 90;
    let full = with_spectrum(
        &random_orthonormal_complex(n, 0x5eed_0001),
        &random_orthonormal_complex(n, 0x5eed_0002),
        &noise_floor_spectrum(n),
    );
    drive_square_stream(&full, 40, 1, "noise-floor");
}

#[test]
fn gapless_spectrum_stream_matches_fresh_svd() {
    let n = 90;
    let full = with_spectrum(
        &random_orthonormal_complex(n, 0xdead_0003),
        &random_orthonormal_complex(n, 0xdead_0004),
        &gapless_spectrum(n),
    );
    drive_square_stream(&full, 40, 1, "gapless");
}

#[test]
fn floor_crossing_spectrum_keeps_largest_gap_decisions() {
    let n = 90;
    let full = with_spectrum(
        &random_orthonormal_complex(n, 0xf100_0001),
        &random_orthonormal_complex(n, 0xf100_0002),
        &floor_crossing_spectrum(n),
    );
    drive_square_stream(&full, 40, 1, "floor-crossing");
}

#[test]
fn real_scalar_stream_matches_fresh_svd() {
    // The realified-pencil case: everything stays on the packed real
    // path (the factors never leave `f64`), 50 single-row/col appends.
    let n = 90;
    let full = with_spectrum(
        &random_orthonormal_real(n, 0x0dd_c0de),
        &random_orthonormal_real(n, 0x0dd_c0df),
        &gapped_spectrum(n),
    );
    drive_square_stream(&full, 40, 1, "real-gapped");
}

#[test]
fn wide_stream_of_row_appends_matches_fresh_svd() {
    // A wide (rows < cols) stream growing row-wise: the fresh reference
    // handles wideness through the adjoint; the updater must agree at
    // every step without ever transposing its state.
    let n = 72;
    let full = with_spectrum(
        &random_orthonormal_complex(n, 0x77_1d_e5),
        &random_orthonormal_complex(n, 0x77_1d_e6),
        &noise_floor_spectrum(n),
    );
    let rows0 = 12;
    let wide = full.submatrix(0, 0, rows0, n).expect("wide seed");
    let mut upd = SvdUpdater::new(&wide).expect("seed svd");
    for (appends, r) in (rows0..32).enumerate() {
        upd.append_border(
            &CMatrix::zeros(r, 0),
            &full.submatrix(r, 0, 1, n).expect("row"),
            &CMatrix::zeros(1, 0),
        )
        .expect("append");
        let sub = full.submatrix(0, 0, r + 1, n).expect("in range");
        let fresh = Svd::compute_factors(&sub, SvdMethod::Blocked, SvdFactors::ValuesOnly)
            .expect("fresh svd");
        let fresh_sv = fresh.singular_values();
        let got = padded(&upd, fresh_sv.len());
        let smax = fresh_sv[0];
        for (a, b) in got.iter().zip(fresh_sv) {
            assert!(
                (a - b).abs() <= SV_TOL * smax,
                "wide: σ drift after {} appends",
                appends + 1
            );
        }
        assert_eq!(rank_decisions(&got), rank_decisions(fresh_sv));
    }
}

#[test]
fn chunked_appends_agree_with_single_pair_appends() {
    // The same stream absorbed in 2-wide borders (the t = 2 pencil
    // growth unit) lands on the same spectrum as 1-wide borders.
    let n = 80;
    let full = with_spectrum(
        &random_orthonormal_complex(n, 0xc4ccfe),
        &random_orthonormal_complex(n, 0xc4ccff),
        &gapped_spectrum(n),
    );
    drive_square_stream(&full, 20, 2, "gapped-chunk2");
}
