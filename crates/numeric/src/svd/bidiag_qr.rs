//! Implicit-shift QR iteration on a real bidiagonal, shared by the
//! Golub–Kahan and panel-blocked bidiagonalization front-ends.
//!
//! The iteration is a 0-indexed port of the LINPACK `dsvdc` loop (as
//! popularized by JAMA), which handles splitting, deflation and
//! negligible singular values case by case. Rotations are accumulated
//! into the **transposed** factors `Uᵀ`/`Vᵀ`: a plane rotation of two
//! *columns* of `U` is a rotation of two contiguous *rows* of `Uᵀ`, so
//! the accumulation sweeps run over cache-line-friendly slices instead
//! of strided column walks. Either factor may be omitted (`None`) when
//! the caller only needs singular values or a single factor — the
//! rotation stream, and therefore the computed singular values, is
//! identical either way.

use crate::error::NumericError;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::svd::normalize_triplets;

/// `(U, σ, V)` triple both bidiagonalization front-ends produce.
pub(crate) type SvdTriplet<T> = (Matrix<T>, Vec<f64>, Matrix<T>);

/// Shared finishing sequence of both bidiagonalization front-ends:
/// rotate the transposed factors through the implicit-shift QR
/// iteration, transpose back, normalize signs/order
/// ([`normalize_triplets`]) and undo the input pre-scaling. Factors
/// whose `want_*` flag is false arrive as `0×0` placeholders and stay
/// that way.
pub(super) fn finish_bidiagonal<T: Scalar>(
    mut u: Matrix<T>,
    mut v: Matrix<T>,
    mut d: Vec<f64>,
    mut e: Vec<f64>,
    want_u: bool,
    want_v: bool,
    rescale: f64,
) -> Result<SvdTriplet<T>, NumericError> {
    // Each factor lives in one orientation at a time: the source is
    // released once transposed, and each rotated transpose once turned
    // back, so at most three factor-sized buffers are ever live.
    let mut ut = Matrix::<T>::zeros(0, 0);
    let mut vt = Matrix::<T>::zeros(0, 0);
    if want_u {
        ut = std::mem::replace(&mut u, Matrix::zeros(0, 0)).transpose();
    }
    if want_v {
        vt = std::mem::replace(&mut v, Matrix::zeros(0, 0)).transpose();
    }
    bidiag_qr(
        &mut d,
        &mut e,
        want_u.then_some(&mut ut),
        want_v.then_some(&mut vt),
    )?;
    if want_u {
        u = std::mem::replace(&mut ut, Matrix::zeros(0, 0)).transpose();
    }
    if want_v {
        v = vt.transpose();
    }
    normalize_triplets(&mut u, &mut d, &mut v);
    if rescale != 1.0 {
        for x in &mut d {
            *x *= rescale;
        }
    }
    Ok((u, d, v))
}

/// Rotates rows `a`,`b` of a complex matrix by a real plane rotation
/// (the transposed-layout equivalent of rotating columns `a`,`b`):
/// `row_a ← cs·row_a + sn·row_b`, `row_b ← cs·row_b − sn·row_a`.
#[inline]
fn rotate_rows<T: Scalar>(m: &mut Matrix<T>, a: usize, b: usize, cs: f64, sn: f64) {
    debug_assert_ne!(a, b);
    let cols = m.cols();
    let s = m.as_mut_slice();
    let (ra, rb): (&mut [T], &mut [T]) = if a < b {
        let (head, tail) = s.split_at_mut(b * cols);
        (&mut head[a * cols..(a + 1) * cols], &mut tail[..cols])
    } else {
        let (head, tail) = s.split_at_mut(a * cols);
        (&mut tail[..cols], &mut head[b * cols..(b + 1) * cols])
    };
    for (x, y) in ra.iter_mut().zip(rb.iter_mut()) {
        let t = x.scale(cs) + y.scale(sn);
        *y = y.scale(cs) - x.scale(sn);
        *x = t;
    }
}

#[inline]
fn rotate_opt<T: Scalar>(m: &mut Option<&mut Matrix<T>>, a: usize, b: usize, cs: f64, sn: f64) {
    if let Some(m) = m.as_deref_mut() {
        rotate_rows(m, a, b, cs, sn);
    }
}

/// Diagonalizes the real bidiagonal `(d, e)` in place, accumulating the
/// left rotations into `ut` (= `Uᵀ`) and the right rotations into `vt`
/// (= `Vᵀ`), either of which may be absent.
///
/// `d` may end up with negative entries; the caller normalizes signs
/// (see [`normalize_triplets`](super::normalize_triplets)).
fn bidiag_qr<T: Scalar>(
    d: &mut [f64],
    e_in: &mut [f64],
    mut ut: Option<&mut Matrix<T>>,
    mut vt: Option<&mut Matrix<T>>,
) -> Result<(), NumericError> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    // The iteration uses e[0..n] with e[n-1] unused (kept 0).
    let mut e = vec![0.0f64; n];
    e[..n - 1].copy_from_slice(e_in);

    let eps = f64::EPSILON;
    let tiny = f64::MIN_POSITIVE / eps;
    let mut p = n;
    let mut iter = 0usize;
    // Intrinsic budget, unless a fault-injection cap shrinks it to
    // force the NoConvergence exit (crate::fault_budget).
    let max_total_iters = crate::fault_budget::qr_iteration_cap().unwrap_or(80 * n.max(8));
    let mut total = 0usize;

    while p > 0 {
        total += 1;
        if total > max_total_iters * 4 {
            return Err(NumericError::NoConvergence {
                op: "bidiagonal qr",
                iterations: total,
            });
        }

        // Find the largest k in [-1, p-2] with negligible e[k].
        let mut k: isize = p as isize - 2;
        while k >= 0 {
            let ku = k as usize;
            if e[ku].abs() <= tiny + eps * (d[ku].abs() + d[ku + 1].abs()) {
                e[ku] = 0.0;
                break;
            }
            k -= 1;
        }

        let kase;
        if k == p as isize - 2 {
            kase = 4; // s[p-1] converged
        } else {
            // Look for a negligible diagonal entry in (k, p-1].
            let mut ks: isize = p as isize - 1;
            while ks > k {
                let ksu = ks as usize;
                let t = if ks != p as isize - 1 {
                    e[ksu].abs()
                } else {
                    0.0
                } + if ks != k + 1 { e[ksu - 1].abs() } else { 0.0 };
                if d[ksu].abs() <= tiny + eps * t {
                    d[ksu] = 0.0;
                    break;
                }
                ks -= 1;
            }
            if ks == k {
                kase = 3; // one QR step
            } else if ks == p as isize - 1 {
                kase = 1; // zero the last diagonal entry
            } else {
                kase = 2; // split at the zero diagonal
                k = ks;
            }
        }
        let k = (k + 1) as usize;

        match kase {
            // Deflate negligible d[p-1]: chase e[p-2] upward, rotating V.
            1 => {
                let mut f = e[p - 2];
                e[p - 2] = 0.0;
                for j in (k..p - 1).rev() {
                    let t = d[j].hypot(f);
                    let cs = d[j] / t;
                    let sn = f / t;
                    d[j] = t;
                    if j != k {
                        f = -sn * e[j - 1];
                        e[j - 1] *= cs;
                    }
                    rotate_opt(&mut vt, j, p - 1, cs, sn);
                }
            }
            // Split: zero e[k-1] by chasing it rightward, rotating U.
            2 => {
                let mut f = e[k - 1];
                e[k - 1] = 0.0;
                for j in k..p {
                    let t = d[j].hypot(f);
                    let cs = d[j] / t;
                    let sn = f / t;
                    d[j] = t;
                    f = -sn * e[j];
                    e[j] *= cs;
                    rotate_opt(&mut ut, j, k - 1, cs, sn);
                }
            }
            // One implicit-shift QR step on the window [k, p-1].
            3 => {
                iter += 1;
                if iter > max_total_iters {
                    return Err(NumericError::NoConvergence {
                        op: "bidiagonal qr",
                        iterations: iter,
                    });
                }
                let scale = d[p - 1]
                    .abs()
                    .max(d[p - 2].abs())
                    .max(e[p - 2].abs())
                    .max(d[k].abs())
                    .max(e[k].abs());
                let sp = d[p - 1] / scale;
                let spm1 = d[p - 2] / scale;
                let epm1 = e[p - 2] / scale;
                let sk = d[k] / scale;
                let ek = e[k] / scale;
                let b = ((spm1 + sp) * (spm1 - sp) + epm1 * epm1) / 2.0;
                let c = (sp * epm1) * (sp * epm1);
                let mut shift = 0.0;
                if b != 0.0 || c != 0.0 {
                    shift = (b * b + c).sqrt();
                    if b < 0.0 {
                        shift = -shift;
                    }
                    shift = c / (b + shift);
                }
                let mut f = (sk + sp) * (sk - sp) + shift;
                let mut g = sk * ek;
                for j in k..p - 1 {
                    let mut t = f.hypot(g);
                    let mut cs = f / t;
                    let mut sn = g / t;
                    if j != k {
                        e[j - 1] = t;
                    }
                    f = cs * d[j] + sn * e[j];
                    e[j] = cs * e[j] - sn * d[j];
                    g = sn * d[j + 1];
                    d[j + 1] *= cs;
                    rotate_opt(&mut vt, j, j + 1, cs, sn);
                    t = f.hypot(g);
                    cs = f / t;
                    sn = g / t;
                    d[j] = t;
                    f = cs * e[j] + sn * d[j + 1];
                    d[j + 1] = -sn * e[j] + cs * d[j + 1];
                    g = sn * e[j + 1];
                    e[j + 1] *= cs;
                    rotate_opt(&mut ut, j, j + 1, cs, sn);
                }
                e[p - 2] = f;
            }
            // Convergence of d[k] (sign fixed later by normalize_triplets;
            // local ordering handled there too).
            _ => {
                iter = 0;
                p -= 1;
            }
        }
    }
    Ok(())
}
