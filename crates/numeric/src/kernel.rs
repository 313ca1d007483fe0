//! Cache-blocked dense product kernels — the single hot path every
//! matrix product in the workspace routes through.
//!
//! The Loewner-pencil algorithms spend almost all of their time in a
//! handful of dense product shapes (pencil assembly, shifted-pencil SVD
//! inputs, the Lemma 3.4 projections). This module implements them over
//! raw row-major slices with:
//!
//! * **transpose packing** — the right operand is packed so that both
//!   operands of every inner product are contiguous in the shared `k`
//!   dimension (and bounds checks vanish from the inner loop),
//! * **cache blocking** — panels of `KC`×`NB` keep the packed
//!   working set resident in L1/L2 across the `i` sweep,
//! * **register tiling** — the scalar 1×4 micro-kernel reuses each
//!   element of the left row across four output columns with
//!   independent accumulator chains; on AVX2 hosts the `f64` path runs
//!   a 4-row × 8-column tile instead (runtime-detected, like the
//!   split-complex FMA kernel) whose every vector lane repeats the
//!   scalar chain of its output entry — start at `0.0` per `KC` panel,
//!   add one separately rounded product per `k` (never an FMA), then
//!   `out += acc` or `out += α·acc` — so real products are
//!   **bit-identical** with or without it,
//! * **fused operand transposes** — [`mul_hermitian_left`] (`AᴴB`) and
//!   [`mul_transpose_right`] (`ABᵀ`) fold the transpose into the packing
//!   (or skip packing entirely: `ABᵀ` is already two row-major
//!   `k`-contiguous operands), so call sites never materialize an
//!   explicit conjugate-transpose temporary,
//! * **fused accumulation** — [`accumulate_scaled`] computes
//!   `C ← C + αAB` without allocating the product.
//!
//! [`mul_naive`] keeps the textbook per-element triple loop as the
//! correctness reference for property tests and the benchmark baseline
//! (`crates/bench/benches/gemm_kernels.rs` tracks the speedup).

use crate::complex::Complex;
use crate::error::NumericError;
use crate::matrix::{CMatrix, Matrix};
use crate::scalar::Scalar;

/// Block length along the shared `k` dimension: a packed row panel of
/// `KC` scalars (4 KiB for complex) stays in L1 while it is reused.
const KC: usize = 256;

/// Right-operand rows per panel: `NB × KC` packed scalars (~192 KiB for
/// complex) stay L2-resident across the whole `i` sweep of a block.
const NB: usize = 48;

/// Inner product of two equal-length contiguous slices with four
/// independent accumulator chains.
#[inline(always)]
fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xa, ya) in (&mut xc).zip(&mut yc) {
        acc0 += xa[0] * ya[0];
        acc1 += xa[1] * ya[1];
        acc2 += xa[2] * ya[2];
        acc3 += xa[3] * ya[3];
    }
    let mut tail = T::ZERO;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a * b;
    }
    ((acc0 + acc1) + (acc2 + acc3)) + tail
}

/// 1×4 micro-kernel: four inner products sharing one pass over `x`.
#[inline(always)]
fn dot4<T: Scalar>(x: &[T], y0: &[T], y1: &[T], y2: &[T], y3: &[T]) -> [T; 4] {
    let n = x.len();
    let (y0, y1, y2, y3) = (&y0[..n], &y1[..n], &y2[..n], &y3[..n]);
    let mut a0 = T::ZERO;
    let mut a1 = T::ZERO;
    let mut a2 = T::ZERO;
    let mut a3 = T::ZERO;
    for i in 0..n {
        let xv = x[i];
        a0 += xv * y0[i];
        a1 += xv * y1[i];
        a2 += xv * y2[i];
        a3 += xv * y3[i];
    }
    [a0, a1, a2, a3]
}

/// Splits a complex matrix into separate re/im planes, row-major.
///
/// Split storage is what makes the complex kernels fast: a complex
/// multiply-accumulate over interleaved storage defeats the loop
/// vectorizer, while the same product over split planes is four
/// independent real FMA chains that vectorize to full width.
fn split_rows<T: Scalar>(m: &Matrix<T>, conjugate: bool) -> (Vec<f64>, Vec<f64>) {
    let src = m.as_slice();
    let re: Vec<f64> = src.iter().map(|z| z.re()).collect();
    let im: Vec<f64> = if conjugate {
        src.iter().map(|z| -z.im()).collect()
    } else {
        src.iter().map(|z| z.im()).collect()
    };
    (re, im)
}

/// Splits the transpose of `m` into re/im planes of shape `cols × rows`
/// (optionally conjugating), tiled the same way as [`pack_transpose`].
fn split_transpose<T: Scalar>(m: &Matrix<T>, conjugate: bool) -> (Vec<f64>, Vec<f64>) {
    let (rows, cols) = m.dims();
    let src = m.as_slice();
    let mut re = vec![0.0f64; rows * cols];
    let mut im = vec![0.0f64; rows * cols];
    const TILE: usize = 32;
    for ib in (0..rows).step_by(TILE) {
        let iend = (ib + TILE).min(rows);
        for jb in (0..cols).step_by(TILE) {
            let jend = (jb + TILE).min(cols);
            for i in ib..iend {
                let src_row = &src[i * cols..(i + 1) * cols];
                for j in jb..jend {
                    let z = src_row[j];
                    re[j * rows + i] = z.re();
                    im[j * rows + i] = if conjugate { -z.im() } else { z.im() };
                }
            }
        }
    }
    (re, im)
}

/// Four-chain real inner product of a split-complex row pair:
/// returns `(Σ aᵣbᵣ − Σ aᵢbᵢ, Σ aᵣbᵢ + Σ aᵢbᵣ)`.
///
/// Scalar fallback; [`gemm_split`] dispatches to [`cdot_fma`] when the
/// host supports AVX2+FMA. The explicit intrinsic path exists because
/// Rust's strict FP semantics (rightly) forbid the compiler from
/// reassociating reductions or fusing mul+add, so this loop compiles to
/// scalar code no matter the target flags.
#[inline(always)]
pub(crate) fn cdot_scalar(are: &[f64], aim: &[f64], bre: &[f64], bim: &[f64]) -> (f64, f64) {
    let n = are.len();
    let (aim, bre, bim) = (&aim[..n], &bre[..n], &bim[..n]);
    let mut rr = 0.0f64;
    let mut ii = 0.0f64;
    let mut ri = 0.0f64;
    let mut ir = 0.0f64;
    for k in 0..n {
        rr += are[k] * bre[k];
        ii += aim[k] * bim[k];
        ri += are[k] * bim[k];
        ir += aim[k] * bre[k];
    }
    (rr - ii, ri + ir)
}

/// AVX2+FMA widening of [`cdot_scalar`]: 4-lane f64 FMAs, two
/// accumulator sets per chain to cover the FMA latency.
///
/// # Safety
///
/// Callers must ensure the host CPU supports `avx2` and `fma` (checked
/// once per [`gemm_split`] via `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cdot_fma(are: &[f64], aim: &[f64], bre: &[f64], bim: &[f64]) -> (f64, f64) {
    use std::arch::x86_64::*;
    let n = are.len();
    debug_assert!(aim.len() == n && bre.len() == n && bim.len() == n);
    let mut rr0 = _mm256_setzero_pd();
    let mut ii0 = _mm256_setzero_pd();
    let mut ri0 = _mm256_setzero_pd();
    let mut ir0 = _mm256_setzero_pd();
    let mut rr1 = _mm256_setzero_pd();
    let mut ii1 = _mm256_setzero_pd();
    let mut ri1 = _mm256_setzero_pd();
    let mut ir1 = _mm256_setzero_pd();
    let mut k = 0;
    while k + 8 <= n {
        let ar = _mm256_loadu_pd(are.as_ptr().add(k));
        let ai = _mm256_loadu_pd(aim.as_ptr().add(k));
        let br = _mm256_loadu_pd(bre.as_ptr().add(k));
        let bi = _mm256_loadu_pd(bim.as_ptr().add(k));
        rr0 = _mm256_fmadd_pd(ar, br, rr0);
        ii0 = _mm256_fmadd_pd(ai, bi, ii0);
        ri0 = _mm256_fmadd_pd(ar, bi, ri0);
        ir0 = _mm256_fmadd_pd(ai, br, ir0);
        let ar = _mm256_loadu_pd(are.as_ptr().add(k + 4));
        let ai = _mm256_loadu_pd(aim.as_ptr().add(k + 4));
        let br = _mm256_loadu_pd(bre.as_ptr().add(k + 4));
        let bi = _mm256_loadu_pd(bim.as_ptr().add(k + 4));
        rr1 = _mm256_fmadd_pd(ar, br, rr1);
        ii1 = _mm256_fmadd_pd(ai, bi, ii1);
        ri1 = _mm256_fmadd_pd(ar, bi, ri1);
        ir1 = _mm256_fmadd_pd(ai, br, ir1);
        k += 8;
    }
    // SAFETY: pure lane arithmetic on an owned register — callers must
    // (and do) run under the enclosing function's avx2+fma
    // `target_feature` context; no pointers are dereferenced.
    #[inline(always)]
    unsafe fn sum4(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))
    }
    let mut rr = sum4(_mm256_add_pd(rr0, rr1));
    let mut ii = sum4(_mm256_add_pd(ii0, ii1));
    let mut ri = sum4(_mm256_add_pd(ri0, ri1));
    let mut ir = sum4(_mm256_add_pd(ir0, ir1));
    while k < n {
        rr += are[k] * bre[k];
        ii += aim[k] * bim[k];
        ri += are[k] * bim[k];
        ir += aim[k] * bre[k];
        k += 1;
    }
    (rr - ii, ri + ir)
}

/// AVX2+FMA split-complex `x ← x − w·t` over re/im planes — the inner
/// loop of the triangular back-substitution column sweep in
/// `crate::schur`. Four f64 lanes per iteration, two fused chains per
/// plane; the scalar tail uses the same mul/sub shape so lane results
/// differ from the fallback only by FMA's single rounding (consistent
/// on any one host, like the GEMM micro-kernel).
///
/// # Safety
///
/// Callers must ensure the host CPU supports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(crate) unsafe fn caxpy_neg_fma(
    wre: f64,
    wim: f64,
    tre: &[f64],
    tim: &[f64],
    xre: &mut [f64],
    xim: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = tre.len();
    debug_assert!(tim.len() == n && xre.len() == n && xim.len() == n);
    let wr = _mm256_set1_pd(wre);
    let wi = _mm256_set1_pd(wim);
    let mut k = 0;
    while k + 4 <= n {
        let tr = _mm256_loadu_pd(tre.as_ptr().add(k));
        let ti = _mm256_loadu_pd(tim.as_ptr().add(k));
        let xr = _mm256_loadu_pd(xre.as_ptr().add(k));
        let xi = _mm256_loadu_pd(xim.as_ptr().add(k));
        // xr ← xr − (wre·tr − wim·ti),  xi ← xi − (wre·ti + wim·tr)
        let xr2 = _mm256_fmadd_pd(wi, ti, _mm256_fnmadd_pd(wr, tr, xr));
        let xi2 = _mm256_fnmadd_pd(wi, tr, _mm256_fnmadd_pd(wr, ti, xi));
        _mm256_storeu_pd(xre.as_mut_ptr().add(k), xr2);
        _mm256_storeu_pd(xim.as_mut_ptr().add(k), xi2);
        k += 4;
    }
    while k < n {
        let (tr, ti) = (tre[k], tim[k]);
        xre[k] -= wre * tr - wim * ti;
        xim[k] -= wre * ti + wim * tr;
        k += 1;
    }
}

/// Two-column variant of [`caxpy_neg_fma`]: one load of the `t` planes
/// feeds two independent update streams (`x ← x − w·t`, `y ← y − v·t`),
/// doubling the FMA-per-load ratio that bounds the short-vector axpy.
/// Lane arithmetic per column is identical to the single-column kernel.
///
/// # Safety
///
/// Callers must ensure the host CPU supports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn caxpy2_neg_fma(
    wre: f64,
    wim: f64,
    vre: f64,
    vim: f64,
    tre: &[f64],
    tim: &[f64],
    xre: &mut [f64],
    xim: &mut [f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = tre.len();
    debug_assert!(
        tim.len() == n && xre.len() == n && xim.len() == n && yre.len() == n && yim.len() == n
    );
    let wr = _mm256_set1_pd(wre);
    let wi = _mm256_set1_pd(wim);
    let vr = _mm256_set1_pd(vre);
    let vi = _mm256_set1_pd(vim);
    let mut k = 0;
    while k + 4 <= n {
        let tr = _mm256_loadu_pd(tre.as_ptr().add(k));
        let ti = _mm256_loadu_pd(tim.as_ptr().add(k));
        let xr = _mm256_loadu_pd(xre.as_ptr().add(k));
        let xi = _mm256_loadu_pd(xim.as_ptr().add(k));
        let xr2 = _mm256_fmadd_pd(wi, ti, _mm256_fnmadd_pd(wr, tr, xr));
        let xi2 = _mm256_fnmadd_pd(wi, tr, _mm256_fnmadd_pd(wr, ti, xi));
        _mm256_storeu_pd(xre.as_mut_ptr().add(k), xr2);
        _mm256_storeu_pd(xim.as_mut_ptr().add(k), xi2);
        let yr = _mm256_loadu_pd(yre.as_ptr().add(k));
        let yi = _mm256_loadu_pd(yim.as_ptr().add(k));
        let yr2 = _mm256_fmadd_pd(vi, ti, _mm256_fnmadd_pd(vr, tr, yr));
        let yi2 = _mm256_fnmadd_pd(vi, tr, _mm256_fnmadd_pd(vr, ti, yi));
        _mm256_storeu_pd(yre.as_mut_ptr().add(k), yr2);
        _mm256_storeu_pd(yim.as_mut_ptr().add(k), yi2);
        k += 4;
    }
    while k < n {
        let (tr, ti) = (tre[k], tim[k]);
        xre[k] -= wre * tr - wim * ti;
        xim[k] -= wre * ti + wim * tr;
        yre[k] -= vre * tr - vim * ti;
        yim[k] -= vre * ti + vim * tr;
        k += 1;
    }
}

/// `true` when the AVX2+FMA micro-kernel is usable on this host.
/// The detection macro caches, so this is a relaxed atomic load.
#[inline]
pub(crate) fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Blocked split-complex kernel:
/// `out[i·n + j] += α · Σ_k (atᵣ + i·atᵢ)[i,k] · (btᵣ + i·btᵢ)[j,k]`.
///
/// Both operand pairs are `k`-contiguous plane pairs (`m × kdim` and
/// `n × kdim`). `out` is interleaved `Matrix` storage and must come in
/// zeroed unless accumulating.
#[allow(clippy::too_many_arguments)]
fn gemm_split<T: Scalar>(
    atre: &[f64],
    atim: &[f64],
    btre: &[f64],
    btim: &[f64],
    m: usize,
    n: usize,
    kdim: usize,
    alpha: T,
    out: &mut [T],
) {
    debug_assert_eq!(atre.len(), m * kdim);
    debug_assert_eq!(btre.len(), n * kdim);
    debug_assert_eq!(out.len(), m * n);
    let scale = alpha != T::ONE;
    let use_fma = fma_available();
    for jb in (0..n).step_by(NB) {
        let jend = (jb + NB).min(n);
        for kb in (0..kdim).step_by(KC) {
            let kend = (kb + KC).min(kdim);
            for i in 0..m {
                let arow_re = &atre[i * kdim + kb..i * kdim + kend];
                let arow_im = &atim[i * kdim + kb..i * kdim + kend];
                let out_row = &mut out[i * n..(i + 1) * n];
                for j in jb..jend {
                    let brow_re = &btre[j * kdim + kb..j * kdim + kend];
                    let brow_im = &btim[j * kdim + kb..j * kdim + kend];
                    #[cfg(target_arch = "x86_64")]
                    let (re, im) = if use_fma {
                        // SAFETY: `use_fma` witnessed avx2+fma support.
                        unsafe { cdot_fma(arow_re, arow_im, brow_re, brow_im) }
                    } else {
                        cdot_scalar(arow_re, arow_im, brow_re, brow_im)
                    };
                    #[cfg(not(target_arch = "x86_64"))]
                    let (re, im) = {
                        let _ = use_fma;
                        cdot_scalar(arow_re, arow_im, brow_re, brow_im)
                    };
                    let v = T::from_complex_lossy(crate::complex::c64(re, im));
                    out_row[j] += if scale { alpha * v } else { v };
                }
            }
        }
    }
}

/// Packs the transpose of `m` (optionally conjugated) into a row-major
/// `cols × rows` buffer, so its rows are contiguous in `m`'s row index.
fn pack_transpose<T: Scalar>(m: &Matrix<T>, conjugate: bool) -> Vec<T> {
    let mut packed = vec![T::ZERO; m.rows() * m.cols()];
    pack_transpose_into(m, conjugate, &mut packed);
    packed
}

/// [`pack_transpose`] into a caller-owned `cols × rows` buffer (which
/// may be one block of a larger stacked operand).
pub(crate) fn pack_transpose_into<T: Scalar>(m: &Matrix<T>, conjugate: bool, packed: &mut [T]) {
    let (rows, cols) = m.dims();
    let src = m.as_slice();
    debug_assert_eq!(packed.len(), rows * cols);
    // Tile the transpose so both source and destination touch a bounded
    // set of cache lines per tile.
    const TILE: usize = 32;
    for ib in (0..rows).step_by(TILE) {
        let iend = (ib + TILE).min(rows);
        for jb in (0..cols).step_by(TILE) {
            let jend = (jb + TILE).min(cols);
            for i in ib..iend {
                let src_row = &src[i * cols..(i + 1) * cols];
                if conjugate {
                    for j in jb..jend {
                        packed[j * rows + i] = src_row[j].conj();
                    }
                } else {
                    for j in jb..jend {
                        packed[j * rows + i] = src_row[j];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: routes this thread's `f64` products through the scalar
    /// kernel, the oracle the AVX2 micro-kernel is checked against.
    static SCALAR_ORACLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `true` when the AVX2 `f64` micro-kernel is usable on this host.
/// The detection macro caches, so this is a relaxed atomic load.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    #[cfg(test)]
    if SCALAR_ORACLE.with(std::cell::Cell::get) {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// AVX2 widening of the `f64` [`gemm_packed`] sweep, bit-identical to
/// the scalar kernel.
///
/// Same `NB`/`KC` blocking, same arithmetic per output entry: each
/// vector lane owns one entry of `out`, and its accumulator starts at
/// `0.0` per `KC` panel and adds one separately rounded product per `k`
/// (`_mm256_mul_pd` then `_mm256_add_pd` — an FMA's single rounding
/// would change the bits), exactly the chain [`dot4`] runs for it; the
/// panel sum then lands as `out += acc` or `out += α·acc`. Lanes span
/// four adjacent output columns, so two quads of `bt` at a time are
/// interleaved into a stack buffer (16 KiB, no heap),
/// `pair[(w·len + k)·4 + c] = bt[(jb + 4(q + w) + c)·kdim + kb + k]`,
/// which stays in L1 while 4-row × two-quad tiles (eight accumulators)
/// sweep every row. Leftover rows take 1-row tiles, a leftover quad a
/// 1-quad tile, and the < 4 remainder columns stay on the scalar
/// [`dot`].
///
/// # Safety
///
/// Callers must ensure the host CPU supports `avx2` (checked once per
/// [`gemm_packed`] call via [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_f64_avx2(
    at: &[f64],
    bt: &[f64],
    m: usize,
    n: usize,
    kdim: usize,
    alpha: f64,
    out: &mut [f64],
) {
    let scale = (alpha != 1.0).then_some(alpha);
    let mut pair = [0.0f64; 8 * KC];
    for jb in (0..n).step_by(NB) {
        let jend = (jb + NB).min(n);
        let quads = (jend - jb) / 4;
        for kb in (0..kdim).step_by(KC) {
            let kend = (kb + KC).min(kdim);
            let len = kend - kb;
            let mut q = 0;
            while q < quads {
                let width = if q + 2 <= quads { 2 } else { 1 };
                let p = &mut pair[..width * 4 * len];
                for (w, dst) in p.chunks_exact_mut(4 * len).enumerate() {
                    let col = |c: usize| &bt[(jb + 4 * (q + w) + c) * kdim + kb..][..len];
                    let (b0, b1, b2, b3) = (col(0), col(1), col(2), col(3));
                    for (k, d) in dst.chunks_exact_mut(4).enumerate() {
                        d.copy_from_slice(&[b0[k], b1[k], b2[k], b3[k]]);
                    }
                }
                let p = &*p;
                let mut i = 0;
                while i < m {
                    let rows = if i + 4 <= m { 4 } else { 1 };
                    let a = &at[i * kdim + kb..];
                    let o = &mut out[i * n + jb + 4 * q..];
                    // SAFETY: AVX2 is enabled on this function, and
                    // `tile` asserts every extent it reads and writes.
                    unsafe {
                        match (rows, width) {
                            (4, 2) => tile::<4, 2>(a, kdim, p, len, o, n, scale),
                            (4, _) => tile::<4, 1>(a, kdim, p, len, o, n, scale),
                            (_, 2) => tile::<1, 2>(a, kdim, p, len, o, n, scale),
                            _ => tile::<1, 1>(a, kdim, p, len, o, n, scale),
                        }
                    }
                    i += rows;
                }
                q += width;
            }
            for i in 0..m {
                let arow = &at[i * kdim + kb..i * kdim + kend];
                for j in jb + 4 * quads..jend {
                    let d = dot(arow, &bt[j * kdim + kb..j * kdim + kend]);
                    out[i * n + j] += scale.map_or(d, |alpha| alpha * d);
                }
            }
        }
    }
}

/// One `R`-row × `Q`-quad register tile of [`gemm_f64_avx2`]:
/// `o[r·ldo + 4q + c] (+)= α · Σ_k a[r·lda + k] · p[(q·len + k)·4 + c]`
/// for `k < len`, one `__m256d` accumulator per `(r, q)`.
///
/// # Safety
///
/// Must run under an `avx2` `target_feature` context (it is
/// `inline(always)` into [`gemm_f64_avx2`]); the slice extents are
/// asserted on entry, so every pointer below stays in bounds.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile<const R: usize, const Q: usize>(
    a: &[f64],
    lda: usize,
    p: &[f64],
    len: usize,
    o: &mut [f64],
    ldo: usize,
    scale: Option<f64>,
) {
    use std::arch::x86_64::*;
    assert!(a.len() >= (R - 1) * lda + len);
    assert!(p.len() >= Q * 4 * len);
    assert!(o.len() >= (R - 1) * ldo + 4 * Q);
    let (ap, pp, op) = (a.as_ptr(), p.as_ptr(), o.as_mut_ptr());
    let mut acc = [[_mm256_setzero_pd(); Q]; R];
    for k in 0..len {
        let mut b = [_mm256_setzero_pd(); Q];
        for (q, bq) in b.iter_mut().enumerate() {
            *bq = _mm256_loadu_pd(pp.add(q * 4 * len + 4 * k));
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let x = _mm256_set1_pd(*ap.add(r * lda + k));
            for (s, &bq) in acc_r.iter_mut().zip(&b) {
                *s = _mm256_add_pd(*s, _mm256_mul_pd(x, bq));
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (q, &s) in acc_r.iter().enumerate() {
            let dst = op.add(r * ldo + 4 * q);
            let s = scale.map_or(s, |alpha| _mm256_mul_pd(_mm256_set1_pd(alpha), s));
            _mm256_storeu_pd(dst, _mm256_add_pd(_mm256_loadu_pd(dst), s));
        }
    }
}

/// Core blocked kernel over pre-arranged operands:
/// `out[i·n + j] (+)= α · Σ_k at[i·kdim + k] · bt[j·kdim + k]`.
///
/// Both operands are "k-contiguous": `at` holds `m` rows of length
/// `kdim`, `bt` holds `n` rows of length `kdim`. When `accumulate` is
/// false, `out` must come in zeroed. `f64` operands take the
/// bit-identical [`gemm_f64_avx2`] path when the host has AVX2; the
/// scalar sweep below is the fallback and the test oracle.
fn gemm_packed<T: Scalar>(
    at: &[T],
    bt: &[T],
    m: usize,
    n: usize,
    kdim: usize,
    alpha: T,
    out: &mut [T],
) {
    debug_assert_eq!(at.len(), m * kdim);
    debug_assert_eq!(bt.len(), n * kdim);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        if let (Some(at), Some(bt), Some(out)) =
            (T::real_slice(at), T::real_slice(bt), T::real_slice_mut(out))
        {
            // SAFETY: `avx2_available` witnessed AVX2 support.
            unsafe { gemm_f64_avx2(at, bt, m, n, kdim, alpha.re(), out) };
            return;
        }
    }
    let scale = alpha != T::ONE;
    for jb in (0..n).step_by(NB) {
        let jend = (jb + NB).min(n);
        for kb in (0..kdim).step_by(KC) {
            let kend = (kb + KC).min(kdim);
            for i in 0..m {
                let arow = &at[i * kdim + kb..i * kdim + kend];
                let out_row = &mut out[i * n..(i + 1) * n];
                let mut j = jb;
                while j + 4 <= jend {
                    let base = j * kdim + kb;
                    let len = kend - kb;
                    let [d0, d1, d2, d3] = dot4(
                        arow,
                        &bt[base..base + len],
                        &bt[base + kdim..base + kdim + len],
                        &bt[base + 2 * kdim..base + 2 * kdim + len],
                        &bt[base + 3 * kdim..base + 3 * kdim + len],
                    );
                    if scale {
                        out_row[j] += alpha * d0;
                        out_row[j + 1] += alpha * d1;
                        out_row[j + 2] += alpha * d2;
                        out_row[j + 3] += alpha * d3;
                    } else {
                        out_row[j] += d0;
                        out_row[j + 1] += d1;
                        out_row[j + 2] += d2;
                        out_row[j + 3] += d3;
                    }
                    j += 4;
                }
                while j < jend {
                    let d = dot(arow, &bt[j * kdim + kb..j * kdim + kend]);
                    out_row[j] += if scale { alpha * d } else { d };
                    j += 1;
                }
            }
        }
    }
}

/// Products with at most this many multiply-accumulates skip packing:
/// below it the split-plane allocations cost more than they save, and
/// per-frequency hot loops (`DescriptorSystem::eval`'s `C·x`, the
/// recursive fitter's tangential residuals) live entirely in this range.
const SMALL_GEMM_OPS: usize = 4096;

/// Streaming `i-k-j` product over row slices — no packing, no extra
/// allocations beyond the output. The small-shape fast path of [`mul`].
fn mul_small<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    mul_small_into(a, b, out.as_mut_slice());
    out
}

/// [`mul_small`] into zeroed row-major storage of the product's shape.
fn mul_small_into<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, out: &mut [T]) {
    let n = b.cols();
    if n == 0 {
        return;
    }
    for (a_row, out_row) in a
        .as_slice()
        .chunks_exact(a.cols().max(1))
        .zip(out.chunks_exact_mut(n))
    {
        for (k, &aik) in a_row.iter().enumerate() {
            let b_row = &b.as_slice()[k * n..(k + 1) * n];
            for (o, &r) in out_row.iter_mut().zip(b_row) {
                *o += aik * r;
            }
        }
    }
}

fn shape_err<T: Scalar>(op: &'static str, a: &Matrix<T>, b: &Matrix<T>) -> NumericError {
    NumericError::ShapeMismatch {
        op,
        left: a.dims(),
        right: b.dims(),
    }
}

/// Blocked product `A·B`.
///
/// The left operand's rows are already `k`-contiguous; the right operand
/// is transpose-packed once and reused across the whole sweep.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn mul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, NumericError> {
    if a.cols() != b.rows() {
        return Err(shape_err("matmul", a, b));
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    if m * kdim * n <= SMALL_GEMM_OPS {
        return Ok(mul_small(a, b));
    }
    mul_blocked(a, b)
}

/// `A·B` through the blocked kernel **unconditionally** — no
/// small-product shortcut. The blocked kernel accumulates each output
/// element over fixed-size `k`-panels (`KC`-wide, one panel when
/// `k ≤ 256`), so its per-element accumulation order depends only on
/// `kdim` — never on how many other columns ride in the same call. A
/// given output column's rounding is therefore a function of that
/// column's operands alone; batched frequency sweeps rely on this to
/// stay bit-identical when the per-call column count varies with the
/// worker count. (Do not make `KC`/`NB` depend on the operand shape —
/// that would break this invariant.)
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn mul_blocked<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, NumericError> {
    if a.cols() != b.rows() {
        return Err(shape_err("matmul", a, b));
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if T::IS_COMPLEX {
        let (are, aim) = split_rows(a, false);
        let (bre, bim) = split_transpose(b, false);
        gemm_split(
            &are,
            &aim,
            &bre,
            &bim,
            m,
            n,
            kdim,
            T::ONE,
            out.as_mut_slice(),
        );
    } else {
        let bt = pack_transpose(b, false);
        gemm_packed(a.as_slice(), &bt, m, n, kdim, T::ONE, out.as_mut_slice());
    }
    Ok(out)
}

/// `[A₁; A₂; …]·B` without forming the stacked left operand: bit for
/// bit [`mul`] of the stack. Every output row's arithmetic reads only
/// its own left row and `B`, so each part runs the kernel [`mul`]
/// would pick for the **whole** stacked shape (the small-product rule
/// is applied to the total, not per part) into its own rows of one
/// output, with `B` packed once.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when a part's column count
/// differs from `b.rows()`, and [`NumericError::InvalidArgument`] for
/// an empty `parts`.
pub fn mul_row_stack<T: Scalar>(
    parts: &[&Matrix<T>],
    b: &Matrix<T>,
) -> Result<Matrix<T>, NumericError> {
    if parts.is_empty() {
        return Err(NumericError::InvalidArgument {
            what: "mul_row_stack of zero matrices",
        });
    }
    if let Some(bad) = parts.iter().find(|a| a.cols() != b.rows()) {
        return Err(shape_err("matmul", bad, b));
    }
    let (kdim, n) = b.dims();
    let m: usize = parts.iter().map(|a| a.rows()).sum();
    let mut out = Matrix::zeros(m, n);
    let small = m * kdim * n <= SMALL_GEMM_OPS;
    let (packed, (bre, bim)) = match (small, T::IS_COMPLEX) {
        (true, _) => (Vec::new(), (Vec::new(), Vec::new())),
        (false, true) => (Vec::new(), split_transpose(b, false)),
        (false, false) => (pack_transpose(b, false), (Vec::new(), Vec::new())),
    };
    let mut rest = out.as_mut_slice();
    for a in parts {
        let (rows, tail) = rest.split_at_mut(a.rows() * n);
        rest = tail;
        if small {
            mul_small_into(a, b, rows);
        } else if T::IS_COMPLEX {
            let (are, aim) = split_rows(a, false);
            gemm_split(&are, &aim, &bre, &bim, a.rows(), n, kdim, T::ONE, rows);
        } else {
            gemm_packed(a.as_slice(), &packed, a.rows(), n, kdim, T::ONE, rows);
        }
    }
    Ok(out)
}

/// A complex product operand split once into the re/im planes the
/// kernels multiply: `rows` rows of `kdim` entries, contiguous along the
/// shared dimension — a left operand's own rows ([`SplitOperand::left`])
/// or a right operand's columns ([`SplitOperand::right`]).
///
/// [`mul_split`] of two split operands is, bit for bit, the
/// [`mul_blocked`] product they were split from. A caller that
/// multiplies one constant operand against many small blocks — a
/// frequency sweep walking its points in fixed chunks — splits the
/// constant once instead of once per product.
#[derive(Debug, Clone)]
pub struct SplitOperand {
    rows: usize,
    kdim: usize,
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
}

impl SplitOperand {
    /// `a` as the left operand of a product (its rows).
    pub fn left(a: &CMatrix) -> Self {
        let (re, im) = split_rows(a, false);
        SplitOperand {
            rows: a.rows(),
            kdim: a.cols(),
            re,
            im,
        }
    }

    /// `b` as the right operand of a product (its columns).
    pub fn right(b: &CMatrix) -> Self {
        let (re, im) = split_transpose(b, false);
        SplitOperand {
            rows: b.cols(),
            kdim: b.rows(),
            re,
            im,
        }
    }

    /// Wraps planes already in the split layout (`rows × kdim` each).
    pub(crate) fn from_planes(rows: usize, kdim: usize, re: Vec<f64>, im: Vec<f64>) -> Self {
        debug_assert!(re.len() == rows * kdim && im.len() == rows * kdim);
        SplitOperand { rows, kdim, re, im }
    }
}

/// `A·B` of a split left operand and a split right operand
/// (`a.rows() × b.rows()`), bit for bit [`mul_blocked`] of the matrices
/// they were split from.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when the shared dimensions
/// differ.
pub fn mul_split(a: &SplitOperand, b: &SplitOperand) -> Result<CMatrix, NumericError> {
    if a.kdim != b.kdim {
        return Err(NumericError::ShapeMismatch {
            op: "mul_split",
            left: (a.rows, a.kdim),
            right: (b.kdim, b.rows),
        });
    }
    let mut out = CMatrix::zeros(a.rows, b.rows);
    gemm_split(
        &a.re,
        &a.im,
        &b.re,
        &b.im,
        a.rows,
        b.rows,
        a.kdim,
        Complex::ONE,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Fused `Aᴴ·B` (conjugate-transpose folded into the packing).
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.rows() != b.rows()`.
pub fn mul_hermitian_left<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<Matrix<T>, NumericError> {
    if a.rows() != b.rows() {
        return Err(shape_err("mul_hermitian_left", a, b));
    }
    let (m, kdim, n) = (a.cols(), a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if T::IS_COMPLEX {
        let (are, aim) = split_transpose(a, true);
        let (bre, bim) = split_transpose(b, false);
        gemm_split(
            &are,
            &aim,
            &bre,
            &bim,
            m,
            n,
            kdim,
            T::ONE,
            out.as_mut_slice(),
        );
    } else {
        let at = pack_transpose(a, true);
        let bt = pack_transpose(b, false);
        gemm_packed(&at, &bt, m, n, kdim, T::ONE, out.as_mut_slice());
    }
    Ok(out)
}

/// Fused `A·Bᵀ` (no conjugation, and **no packing at all**: both
/// operands are already row-major over the shared dimension).
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.cols()`.
pub fn mul_transpose_right<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<Matrix<T>, NumericError> {
    if a.cols() != b.cols() {
        return Err(shape_err("mul_transpose_right", a, b));
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, n);
    if T::IS_COMPLEX {
        let (are, aim) = split_rows(a, false);
        let (bre, bim) = split_rows(b, false);
        gemm_split(
            &are,
            &aim,
            &bre,
            &bim,
            m,
            n,
            kdim,
            T::ONE,
            out.as_mut_slice(),
        );
    } else {
        gemm_packed(
            a.as_slice(),
            b.as_slice(),
            m,
            n,
            kdim,
            T::ONE,
            out.as_mut_slice(),
        );
    }
    Ok(out)
}

/// Fused `A·Bᴴ` (conjugation folded into the sweep; like
/// [`mul_transpose_right`] both operands are already `k`-contiguous, the
/// right one is conjugate-packed to keep the inner loop branch-free).
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.cols()`.
pub fn mul_adjoint_right<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<Matrix<T>, NumericError> {
    if a.cols() != b.cols() {
        return Err(shape_err("mul_adjoint_right", a, b));
    }
    if !T::IS_COMPLEX {
        return mul_transpose_right(a, b);
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, n);
    let (are, aim) = split_rows(a, false);
    let (bre, bim) = split_rows(b, true);
    gemm_split(
        &are,
        &aim,
        &bre,
        &bim,
        m,
        n,
        kdim,
        T::ONE,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Fused scaled accumulate `C ← C + α·A·B`, no product temporary.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.rows()`
/// or `c.dims() != (a.rows(), b.cols())`.
pub fn accumulate_scaled<T: Scalar>(
    c: &mut Matrix<T>,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<(), NumericError> {
    if a.cols() != b.rows() {
        return Err(shape_err("accumulate_scaled", a, b));
    }
    if c.dims() != (a.rows(), b.cols()) {
        return Err(NumericError::ShapeMismatch {
            op: "accumulate_scaled",
            left: c.dims(),
            right: (a.rows(), b.cols()),
        });
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    if T::IS_COMPLEX {
        let (are, aim) = split_rows(a, false);
        let (bre, bim) = split_transpose(b, false);
        gemm_split(&are, &aim, &bre, &bim, m, n, kdim, alpha, c.as_mut_slice());
    } else {
        let bt = pack_transpose(b, false);
        gemm_packed(a.as_slice(), &bt, m, n, kdim, alpha, c.as_mut_slice());
    }
    Ok(())
}

/// Fused scaled accumulate `C ← C + α·A·Bᴴ` — the adjoint-right
/// counterpart of [`accumulate_scaled`]. Like [`mul_adjoint_right`],
/// both operands are already `k`-contiguous (no packing pass); the
/// conjugation of `B` is folded into the plane split. This is the
/// trailing-matrix update shape of the panel-blocked bidiagonalization
/// (`A ← A − V·Yᴴ − X·Uᴴ`).
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.cols()`
/// or `c.dims() != (a.rows(), b.rows())`.
pub fn accumulate_scaled_adjoint_right<T: Scalar>(
    c: &mut Matrix<T>,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<(), NumericError> {
    if a.cols() != b.cols() {
        return Err(shape_err("accumulate_scaled_adjoint_right", a, b));
    }
    if c.dims() != (a.rows(), b.rows()) {
        return Err(NumericError::ShapeMismatch {
            op: "accumulate_scaled_adjoint_right",
            left: c.dims(),
            right: (a.rows(), b.rows()),
        });
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.rows());
    if T::IS_COMPLEX {
        let (are, aim) = split_rows(a, false);
        let (bre, bim) = split_rows(b, true);
        gemm_split(&are, &aim, &bre, &bim, m, n, kdim, alpha, c.as_mut_slice());
    } else {
        gemm_packed(
            a.as_slice(),
            b.as_slice(),
            m,
            n,
            kdim,
            alpha,
            c.as_mut_slice(),
        );
    }
    Ok(())
}

/// Reference textbook product: per-element `i-j-k` triple loop through
/// the `Index` operator. Kept as the oracle for property tests and the
/// baseline the `gemm_kernels` bench measures the blocked path against.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn mul_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, NumericError> {
    if a.cols() != b.rows() {
        return Err(shape_err("matmul", a, b));
    }
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for k in 0..kdim {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::{CMatrix, RMatrix};
    use crate::oracle::{same_complex_bits, same_real_bits, uniform};
    use proptest::prelude::*;

    fn cmat(rows: usize, cols: usize, seed: u64) -> CMatrix {
        let mut next = uniform(seed);
        CMatrix::from_fn(rows, cols, |_, _| c64(next(), next()))
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (4, 4, 4),
            (7, 13, 5),
            (17, 33, 9),
            (48, 50, 52),
            (65, 3, 70),
            (1, 300, 1),
        ] {
            let a = cmat(m, k, (m * 1000 + k) as u64);
            let b = cmat(k, n, (k * 1000 + n) as u64);
            let fast = mul(&a, &b).unwrap();
            let slow = mul_naive(&a, &b).unwrap();
            assert!(
                fast.approx_eq(&slow, 1e-13 * (k as f64).max(1.0)),
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn empty_dimensions_produce_empty_or_zero_results() {
        let a = CMatrix::zeros(0, 4);
        let b = CMatrix::zeros(4, 3);
        assert_eq!(mul(&a, &b).unwrap().dims(), (0, 3));
        let a = CMatrix::zeros(3, 0);
        let b = CMatrix::zeros(0, 2);
        let p = mul(&a, &b).unwrap();
        assert_eq!(p.dims(), (3, 2));
        assert!(p.iter().all(|&z| z == c64(0.0, 0.0)));
        assert_eq!(
            mul_hermitian_left(&CMatrix::zeros(0, 2), &CMatrix::zeros(0, 5))
                .unwrap()
                .dims(),
            (2, 5)
        );
        assert_eq!(
            mul_transpose_right(&CMatrix::zeros(2, 0), &CMatrix::zeros(5, 0))
                .unwrap()
                .dims(),
            (2, 5)
        );
    }

    #[test]
    fn hermitian_left_matches_explicit_adjoint() {
        let a = cmat(9, 4, 1);
        let b = cmat(9, 6, 2);
        let fused = mul_hermitian_left(&a, &b).unwrap();
        let explicit = a.adjoint().matmul(&b).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-13));
    }

    #[test]
    fn transpose_right_matches_explicit_transpose() {
        let a = cmat(5, 8, 3);
        let b = cmat(7, 8, 4);
        let fused = mul_transpose_right(&a, &b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-13));
    }

    #[test]
    fn adjoint_right_matches_explicit_adjoint() {
        let a = cmat(5, 8, 5);
        let b = cmat(7, 8, 6);
        let fused = mul_adjoint_right(&a, &b).unwrap();
        let explicit = a.matmul(&b.adjoint()).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-13));
        // Real path short-circuits to the transpose kernel.
        let ar = RMatrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 - 5.0);
        let br = RMatrix::from_fn(2, 4, |i, j| (i * 3 + j) as f64 * 0.5);
        let fr = mul_adjoint_right(&ar, &br).unwrap();
        let er = ar.matmul(&br.transpose()).unwrap();
        assert!(fr.approx_eq(&er, 1e-14));
    }

    #[test]
    fn accumulate_scaled_fuses_product_and_sum() {
        let a = cmat(6, 10, 7);
        let b = cmat(10, 5, 8);
        let alpha = c64(0.3, -1.2);
        let mut c = cmat(6, 5, 9);
        let expect = &c + &(&a.matmul(&b).unwrap() * alpha);
        accumulate_scaled(&mut c, alpha, &a, &b).unwrap();
        assert!(c.approx_eq(&expect, 1e-13));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        assert!(mul(&a, &b).is_err());
        assert!(mul_hermitian_left(&CMatrix::zeros(3, 2), &CMatrix::zeros(4, 2)).is_err());
        assert!(mul_transpose_right(&CMatrix::zeros(2, 3), &CMatrix::zeros(2, 4)).is_err());
        let mut c = CMatrix::zeros(2, 2);
        assert!(accumulate_scaled(&mut c, c64(1.0, 0.0), &CMatrix::zeros(2, 3), &b).is_err());
        let mut c_bad = CMatrix::zeros(3, 3);
        let a_ok = CMatrix::zeros(2, 3);
        let b_ok = CMatrix::zeros(3, 2);
        assert!(accumulate_scaled(&mut c_bad, c64(1.0, 0.0), &a_ok, &b_ok).is_err());
    }

    #[test]
    fn split_operands_multiply_with_the_blocked_bits() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 13, 5),
            (33, 300, 50),
            (3, 257, 97),
        ] {
            let a = cmat(m, k, (m * 31 + k) as u64);
            let b = cmat(k, n, (k * 31 + n) as u64);
            let split = mul_split(&SplitOperand::left(&a), &SplitOperand::right(&b)).unwrap();
            let blocked = mul_blocked(&a, &b).unwrap();
            assert!(
                same_complex_bits(split.as_slice(), blocked.as_slice()),
                "{m}x{k}x{n}"
            );
        }
        let a = SplitOperand::left(&cmat(2, 3, 1));
        assert!(mul_split(&a, &SplitOperand::right(&cmat(4, 2, 2))).is_err());
    }

    #[test]
    fn row_stack_products_match_the_stacked_product_bit_for_bit() {
        // Tiny totals take the small-product path, larger ones the
        // blocked kernel, whatever the parts' own sizes.
        for &(r1, r2, k, n) in &[
            (2usize, 3usize, 4usize, 3usize),
            (5, 4, 9, 7),
            (50, 46, 96, 22),
            (9, 1, 300, 5),
        ] {
            let (a1, a2) = (cmat(r1, k, 3), cmat(r2, k, 4));
            let b = cmat(k, n, 5);
            let stacked = mul(&CMatrix::vstack(&[&a1, &a2]).unwrap(), &b).unwrap();
            let got = mul_row_stack(&[&a1, &a2], &b).unwrap();
            assert!(same_complex_bits(got.as_slice(), stacked.as_slice()));
            let (a1, a2, b) = (a1.real_part(), a2.real_part(), b.imag_part());
            let stacked = mul(&RMatrix::vstack(&[&a1, &a2]).unwrap(), &b).unwrap();
            let got = mul_row_stack(&[&a1, &a2], &b).unwrap();
            assert!(same_bits(&got, &stacked), "{r1}+{r2} x {k} x {n}");
        }
        assert!(mul_row_stack(&[&cmat(2, 3, 1)], &cmat(4, 2, 2)).is_err());
        assert!(mul_row_stack::<f64>(&[], &RMatrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn real_matrices_use_the_same_kernels() {
        let a = RMatrix::from_fn(13, 21, |i, j| ((i * 31 + j * 7) % 11) as f64 - 5.0);
        let b = RMatrix::from_fn(21, 8, |i, j| ((i * 13 + j * 5) % 9) as f64 - 4.0);
        let fast = mul(&a, &b).unwrap();
        let slow = mul_naive(&a, &b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-11));
    }

    /// Runs `f` with this thread's `f64` products on the scalar kernel.
    fn on_scalar_oracle<R>(f: impl FnOnce() -> R) -> R {
        SCALAR_ORACLE.with(|s| s.set(true));
        let out = f();
        SCALAR_ORACLE.with(|s| s.set(false));
        out
    }

    /// Shapes straddling every edge of the AVX2 `f64` path: the 4-row
    /// tile (`m`), 1–3 remainder columns and the `NB = 48` column block
    /// (`n`), and the `KC = 256` panel (`k`).
    const EDGE_M: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 9];
    const EDGE_N: [usize; 16] = [1, 2, 3, 4, 5, 7, 8, 11, 46, 47, 48, 49, 50, 51, 53, 97];
    const EDGE_K: [usize; 10] = [1, 3, 8, 17, 255, 256, 257, 259, 300, 513];

    /// Real matrix with entries in `[-1, 1]`, every third row scaled
    /// into the subnormal range (so its products and running sums are
    /// subnormal), and each `specials` slot overwritten with NaN, ±∞,
    /// −0.0 or a subnormal.
    fn edge_rmat(rows: usize, cols: usize, seed: u64, specials: &[(u32, u8)]) -> RMatrix {
        let mut next = uniform(seed);
        let tiny_row = (seed % 3) as usize;
        let mut m = RMatrix::from_fn(rows, cols, |i, _| {
            let x = next();
            if i % 3 == tiny_row {
                x * 1e-310
            } else {
                x
            }
        });
        let entries = m.as_mut_slice();
        if !entries.is_empty() {
            for &(pos, kind) in specials {
                entries[pos as usize % entries.len()] = match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => 4.9e-322,
                };
            }
        }
        m
    }

    /// Bitwise equality, with NaN compared as a class: Rust leaves the
    /// sign and payload of a NaN result unspecified, so not even the
    /// scalar kernel pins those bits.
    fn same_bits(x: &RMatrix, y: &RMatrix) -> bool {
        x.dims() == y.dims() && same_real_bits(x.as_slice(), y.as_slice())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every `f64` entry point gives the same bits on the AVX2
        /// micro-kernel as on the scalar oracle.
        #[test]
        fn avx2_f64_kernel_matches_the_scalar_oracle_bit_for_bit(
            (mi, ni, ki) in (0..EDGE_M.len(), 0..EDGE_N.len(), 0..EDGE_K.len()),
            seed in 0u64..1_000_000,
            specials in (0usize..=4).prop_flat_map(|count| {
                proptest::collection::vec((0u32..1_000_000, 0u8..5), count)
            }),
        ) {
            let (m, n, k) = (EDGE_M[mi], EDGE_N[ni], EDGE_K[ki]);
            let a = edge_rmat(m, k, seed, &specials);
            let b = edge_rmat(k, n, seed + 1, &specials);
            let a_tall = edge_rmat(k, m, seed + 2, &specials);
            let b_wide = edge_rmat(n, k, seed + 3, &specials);
            let c = edge_rmat(m, n, seed + 4, &[(7, 3)]);
            let agree = |f: &dyn Fn() -> RMatrix| same_bits(&f(), &on_scalar_oracle(f));
            prop_assert!(agree(&|| mul_blocked(&a, &b).unwrap()), "mul_blocked");
            prop_assert!(
                agree(&|| mul_hermitian_left(&a_tall, &b).unwrap()),
                "mul_hermitian_left"
            );
            prop_assert!(
                agree(&|| mul_transpose_right(&a, &b_wide).unwrap()),
                "mul_transpose_right"
            );
            for alpha in [1.0, -1.0, 0.37] {
                prop_assert!(
                    agree(&|| {
                        let mut out = c.clone();
                        accumulate_scaled(&mut out, alpha, &a, &b).unwrap();
                        out
                    }),
                    "accumulate_scaled, alpha = {alpha}"
                );
                prop_assert!(
                    agree(&|| {
                        let mut out = c.clone();
                        accumulate_scaled_adjoint_right(&mut out, alpha, &a, &b_wide).unwrap();
                        out
                    }),
                    "accumulate_scaled_adjoint_right, alpha = {alpha}"
                );
            }
        }
    }
}
