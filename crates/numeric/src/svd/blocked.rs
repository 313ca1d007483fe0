//! Panel-blocked SVD backend: the LAPACK `zgebrd`/`zungbr` structure on
//! top of the workspace GEMM kernels.
//!
//! The Golub–Kahan reference ([`super::golub_kahan`]) applies every
//! Householder reflector to the full trailing matrix as a rank-1 sweep,
//! so the `O(mn²)` bidiagonalization runs at memory speed. This backend
//! restructures both expensive phases around the blocked product
//! kernels:
//!
//! 1. **Panel bidiagonalization** (`zlabrd` shape): reflectors of an
//!    `NB`-wide panel are generated against *deferred* trailing updates
//!    tracked in four thin accumulators (`Wq`, `Y`, `X`, `P` — the
//!    left/right reflector vectors and their update vectors), then the
//!    whole trailing matrix absorbs the panel in two fused
//!    `C ← C − A·Bᴴ` GEMMs ([`kernel::accumulate_scaled_adjoint_right`]).
//!    The trailing update is fanned across cores per contiguous column
//!    block through [`parallel`]; the blocked kernel computes every
//!    output column independently of its neighbors, so the result is
//!    **bit-identical for every worker count** (the same guarantee the
//!    sweep executor gives frequency sweeps). The panel's two GEMVs —
//!    the BLAS-2 half — take four rows per pass: `A·u` as four
//!    eight-chain dot products sharing each load of `u`, and `Aᴴw` with
//!    one read and write of the accumulator per four rows, both in the
//!    row-by-row loops' per-entry order (DESIGN.md §6).
//! 2. **Factor accumulation** (`zungbr` shape): the reflectors of each
//!    panel are aggregated into the compact WY form `I − V·T·Vᴴ`
//!    (`zlarft`) and applied to `U`/`V` with three GEMMs per panel
//!    instead of `NB` rank-1 sweeps.
//!
//! The bidiagonal QR iteration is shared with the reference backend
//! ([`super::bidiag_qr`]), rotating contiguous rows of the transposed
//! factors; factors the caller skips ([`super::SvdFactors`]) skip both
//! their accumulation and their rotation sweeps.
//!
//! The whole pipeline is generic over the scalar: **real inputs are
//! never promoted to complex** — every conjugation degenerates to a
//! copy and the GEMMs run the packed real kernel at a quarter of the
//! complex flop count (the Lemma 3.2 realification hands the
//! realization stage real stacked pencils, which is exactly this case).
//! The factors come back in the input scalar type; the [`Svd`](super::Svd)
//! dispatcher promotes them to complex only at its scalar-agnostic
//! container boundary, while [`SvdUpdater`](super::SvdUpdater) keeps
//! them native.

use crate::error::NumericError;
use crate::householder::make_reflector;
use crate::kernel;
use crate::matrix::Matrix;
use crate::parallel;
use crate::scalar::Scalar;
use crate::svd::bidiag_qr::{finish_bidiagonal, SvdTriplet};
use crate::svd::golub_kahan;

/// Panel width: wide enough that the trailing GEMMs dominate, narrow
/// enough that the four `·×NB` accumulators stay cache-resident.
/// Shared with the lazy two-phase front-end ([`super::partial`]), whose
/// WY blocks must tile the reflectors exactly as they were generated.
pub(super) const NB: usize = 32;

/// Below this column count the panel machinery cannot amortize its
/// bookkeeping and the rank-1 reference path is faster.
const MIN_BLOCKED_COLS: usize = 48;

/// Minimum trailing-update columns assigned per worker before the
/// fan-out spawns another thread (the update is `O(rows·NB)` per
/// column; thinner shares are pure spawn overhead).
const PAR_MIN_COLS_PER_WORKER: usize = 64;

/// Computes the thin SVD of `a` (`m × n`, requires `m ≥ n`): returns
/// `(U m×n, s n, V n×n)` with `A = U diag(s) V*`, in the **input scalar
/// type** (real factors for real input). Factors whose `want_*` flag is
/// false are skipped and returned as `0×0` matrices; the singular
/// values are bit-identical either way.
pub(crate) fn svd_blocked<T: Scalar>(
    a: &Matrix<T>,
    want_u: bool,
    want_v: bool,
) -> Result<SvdTriplet<T>, NumericError> {
    let (m, n) = a.dims();
    debug_assert!(m >= n, "caller must pre-transpose wide matrices");
    if n < MIN_BLOCKED_COLS {
        return golub_kahan::svd_golub_kahan(a, want_u, want_v);
    }

    // Scale to avoid overflow/underflow in the squared quantities.
    let scale = a.max_abs();
    let out_of_range = scale > 0.0 && !(1e-150..=1e150).contains(&scale);
    let mut w = if out_of_range {
        a.scale(1.0 / scale)
    } else {
        a.clone()
    };
    let rescale = if out_of_range { scale } else { 1.0 };

    // --- Phase 1: panel-blocked bidiagonalization ------------------------
    // Reflector tails live in `w` (left below the diagonal, right beyond
    // the superdiagonal), exactly where the panel zeroed them out.
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n - 1];
    let mut tauq = vec![T::ZERO; n];
    let mut taup = vec![T::ZERO; n - 1];
    let threads = parallel::available_threads();
    let mut i0 = 0usize;
    while i0 < n {
        let nb = NB.min(n - i0);
        let acc = bidiag_panel(&mut w, i0, nb, &mut d, &mut e, &mut tauq, &mut taup);
        if i0 + nb < n {
            trailing_update(&mut w, i0, nb, &acc, threads)?;
        }
        i0 += nb;
    }

    // --- Phase 2: WY-blocked accumulation of the requested factors -------
    let u = if want_u {
        accumulate_u(&w, &tauq)?
    } else {
        Matrix::<T>::zeros(0, 0)
    };
    let v = if want_v {
        accumulate_v(&w, &taup)?
    } else {
        Matrix::<T>::zeros(0, 0)
    };

    // --- Phases 3+4: shared QR iteration + normalization -----------------
    finish_bidiagonal(u, v, d, e, want_u, want_v, rescale)
}

/// The four thin panel accumulators. With `i` the global panel column
/// `i0 + j`, the deferred state of the trailing matrix is
///
/// ```text
/// A_true = A_stored − Wq·Yᴴ − X·Pᴴ
/// ```
///
/// where column `j` holds the left reflector vector `w_j` (`Wq`), its
/// update vector `y_j = τq·A_trueᴴ w_j` (`Y`), the right reflector
/// vector `u_j` (`P`) and its update vector `x_j = τp·A_true u_j` (`X`).
pub(super) struct PanelAcc<T: Scalar> {
    /// Left reflector vectors, rows `i0..m` (unit at local row `j`).
    wq: Matrix<T>,
    /// Right-update vectors, rows `i0..m`.
    x: Matrix<T>,
    /// Left-update vectors, rows `i0..n` (indexed by column).
    y: Matrix<T>,
    /// Right reflector vectors, rows `i0..n` (unit at local row `j+1`).
    p: Matrix<T>,
}

/// Eight-chain unrolled dot product `Σ a[k]·b[k]`.
///
/// The panel GEMVs reduce into a single scalar; a naive loop serializes
/// on the FMA latency chain (< 1 GF/s), while eight independent
/// accumulators let the chains pipeline/vectorize. The summation order
/// is fixed (lane `k mod 8`, then a balanced pairwise combine), so the
/// result is deterministic and identical for every thread count — it
/// only differs from the naive order at the ulp level, which the
/// tolerance-based SVD contracts absorb.
#[inline]
fn dot8<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [T::ZERO; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..8 {
            acc[k] += xa[k] * xb[k];
        }
    }
    let mut tail = T::ZERO;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    combine8(&acc, tail)
}

/// The fixed combine of [`dot8`]'s eight lanes and its tail.
#[inline(always)]
fn combine8<T: Scalar>(acc: &[T; 8], tail: T) -> T {
    let q0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let q1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (q0 + q1) + tail
}

/// [`dot8`] with the second operand conjugated: `Σ a[k]·conj(b[k])`.
#[inline]
fn dot8_conj<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [T::ZERO; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..8 {
            acc[k] += xa[k] * xb[k].conj();
        }
    }
    let mut tail = T::ZERO;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y.conj();
    }
    combine8(&acc, tail)
}

/// Four [`dot8`]s against one `b`: `[Σ a₀[k]·b[k], …, Σ a₃[k]·b[k]]`.
/// Each row keeps `dot8`'s eight `k mod 8` chains, its tail and its
/// combine order, so every result has `dot8`'s bits; the rows share
/// each load of `b`, and their 32 chains are independent.
#[inline]
fn dot8x4<T: Scalar>(a: [&[T]; 4], b: &[T]) -> [T; 4] {
    let full = b.len() - b.len() % 8;
    let a = a.map(|row| &row[..b.len()]);
    let mut acc = [[T::ZERO; 8]; 4];
    for (base, xb) in (0..full).step_by(8).zip(b.chunks_exact(8)) {
        for (acc, row) in acc.iter_mut().zip(&a) {
            let xa = &row[base..base + 8];
            for k in 0..8 {
                acc[k] += xa[k] * xb[k];
            }
        }
    }
    std::array::from_fn(|q| {
        let mut tail = T::ZERO;
        for (&x, &y) in a[q][full..].iter().zip(&b[full..]) {
            tail += x * y;
        }
        combine8(&acc[q], tail)
    })
}

/// `out[r] = A[r0 + r, c0..c0+u.len()] · u` for every `r`, four rows per
/// pass through [`dot8x4`]; leftover rows take [`dot8`]. The panel's
/// `A·u` GEMV (step 6).
fn gemv_rows<T: Scalar>(out: &mut [T], a: &Matrix<T>, r0: usize, c0: usize, u: &[T]) {
    let cols = c0..c0 + u.len();
    let mut quads = out.chunks_exact_mut(4);
    let mut r = r0;
    for quad in &mut quads {
        let rows = std::array::from_fn(|q| &a.row(r + q)[cols.clone()]);
        quad.copy_from_slice(&dot8x4(rows, u));
        r += 4;
    }
    for o in quads.into_remainder() {
        *o = dot8(&a.row(r)[cols.clone()], u);
        r += 1;
    }
}

/// `y += A[r0.., c0..]ᴴ·x` over the `x.len()` rows from `r0`, four rows
/// per pass: each `y[c]` takes
/// `(((y + ā₀x₀) + ā₁x₁) + ā₂x₂) + ā₃x₃`, the row-by-row loop's order
/// (`adjoint_gemv_rowwise`, the test oracle), in one read and write of
/// `y` per four rows. The panel's `Aᴴw` GEMV (step 3).
fn adjoint_gemv<T: Scalar>(y: &mut [T], a: &Matrix<T>, r0: usize, c0: usize, x: &[T]) {
    let cols = c0..c0 + y.len();
    let mut quads = x.chunks_exact(4);
    let mut r = r0;
    for xs in &mut quads {
        let [a0, a1, a2, a3]: [&[T]; 4] = std::array::from_fn(|q| &a.row(r + q)[cols.clone()]);
        let (x0, x1, x2, x3) = (xs[0], xs[1], xs[2], xs[3]);
        for ((((yc, &e0), &e1), &e2), &e3) in y.iter_mut().zip(a0).zip(a1).zip(a2).zip(a3) {
            *yc = (((*yc + e0.conj() * x0) + e1.conj() * x1) + e2.conj() * x2) + e3.conj() * x3;
        }
        r += 4;
    }
    for &xr in quads.remainder() {
        for (yc, &e) in y.iter_mut().zip(&a.row(r)[cols.clone()]) {
            *yc += e.conj() * xr;
        }
        r += 1;
    }
}

/// [`adjoint_gemv`] as a row-by-row loop. Test oracle.
#[cfg(test)]
fn adjoint_gemv_rowwise<T: Scalar>(y: &mut [T], a: &Matrix<T>, r0: usize, c0: usize, x: &[T]) {
    for (r, &xr) in (r0..).zip(x) {
        let row = &a.row(r)[c0..c0 + y.len()];
        for (acc, &a_rc) in y.iter_mut().zip(row) {
            *acc += a_rc.conj() * xr;
        }
    }
}

/// Bidiagonalizes panel columns/rows `i0 .. i0+nb`, storing reflector
/// tails in `w`, real bidiagonal entries in `d`/`e` and scaling factors
/// in `tauq`/`taup`. The trailing matrix beyond the panel is **not**
/// touched; the returned accumulators encode the pending update.
pub(super) fn bidiag_panel<T: Scalar>(
    w: &mut Matrix<T>,
    i0: usize,
    nb: usize,
    d: &mut [f64],
    e: &mut [f64],
    tauq: &mut [T],
    taup: &mut [T],
) -> PanelAcc<T> {
    let (m, n) = w.dims();
    let rm = m - i0;
    let cn = n - i0;
    let mut wq = Matrix::<T>::zeros(rm, nb);
    let mut x = Matrix::<T>::zeros(rm, nb);
    let mut y = Matrix::<T>::zeros(cn, nb);
    let mut p = Matrix::<T>::zeros(cn, nb);

    for j in 0..nb {
        let i = i0 + j;

        // 1. Bring column i (rows i..m) up to date with the deferred
        //    panel updates: a ← a − Wq·conj(Y[i,:]) − X·conj(P[i,:]).
        if j > 0 {
            let yrow: Vec<T> = y.row(j)[..j].iter().map(|z| z.conj()).collect();
            let prow: Vec<T> = p.row(j)[..j].iter().map(|z| z.conj()).collect();
            for r in i..m {
                let lr = r - i0;
                let wr = &wq.row(lr)[..j];
                let xr = &x.row(lr)[..j];
                w[(r, i)] -= dot8(wr, &yrow) + dot8(xr, &prow);
            }
        }

        // 2. Left reflector annihilating rows i+1..m of column i; the
        //    tail stays in `w` for the phase-2 accumulation.
        let col: Vec<T> = (i..m).map(|r| w[(r, i)]).collect();
        let refl = make_reflector(&col);
        d[i] = refl.beta;
        tauq[i] = refl.tau;
        w[(i, i)] = T::from_f64(refl.beta);
        for (r, &vv) in (i + 1..m).zip(&refl.v) {
            w[(r, i)] = vv;
        }
        wq[(j, j)] = T::ONE;
        for (lr, &vv) in (j + 1..rm).zip(&refl.v) {
            wq[(lr, j)] = vv;
        }
        let mut wcur = Vec::with_capacity(m - i);
        wcur.push(T::ONE);
        wcur.extend_from_slice(&refl.v);

        if i + 1 >= n {
            continue; // last column: no right reflector, nothing deferred
        }

        // 3. y_j = τq · A_trueᴴ w_j over columns i+1..n (A_true folds in
        //    the j prior deferred updates).
        let mut yv = vec![T::ZERO; n - i - 1];
        adjoint_gemv(&mut yv, w, i, i + 1, &wcur);
        if j > 0 {
            // t1 = Wqᴴ·w_j, t2 = Xᴴ·w_j (rows i..m of the accumulators).
            let mut t1 = vec![T::ZERO; j];
            let mut t2 = vec![T::ZERO; j];
            for r in i..m {
                let lr = r - i0;
                let xr = wcur[r - i];
                let wr = &wq.row(lr)[..j];
                let xrow = &x.row(lr)[..j];
                for k in 0..j {
                    t1[k] += wr[k].conj() * xr;
                    t2[k] += xrow[k].conj() * xr;
                }
            }
            for c in i + 1..n {
                let lc = c - i0;
                let yr = &y.row(lc)[..j];
                let pr = &p.row(lc)[..j];
                let mut corr = T::ZERO;
                for k in 0..j {
                    corr += yr[k] * t1[k] + pr[k] * t2[k];
                }
                yv[c - i - 1] -= corr;
            }
        }
        let tq = tauq[i];
        for (lc, val) in yv.iter_mut().enumerate() {
            *val *= tq;
            y[(j + 1 + lc, j)] = *val;
        }

        // 4. Bring row i (cols i+1..n) up to date and fold in the left
        //    reflector's action on it (the k == j term of Wq·Yᴴ).
        {
            let wrow: Vec<T> = wq.row(j)[..=j].to_vec();
            let xrow: Vec<T> = x.row(j)[..j].to_vec();
            let row_i = w.row_mut(i);
            for (c, out) in row_i.iter_mut().enumerate().skip(i + 1) {
                let lc = c - i0;
                let yr = &y.row(lc)[..=j];
                let pr = &p.row(lc)[..j];
                *out -= dot8_conj(&wrow, yr) + dot8_conj(&xrow, pr);
            }
        }

        // 5. Right reflector annihilating cols i+2..n of row i. Generated
        //    from the conjugated row so the right application lands a real
        //    β on the superdiagonal (zgebrd convention, as in the
        //    reference backend).
        let row_conj: Vec<T> = (i + 1..n).map(|c| w[(i, c)].conj()).collect();
        let reflp = make_reflector(&row_conj);
        e[i] = reflp.beta;
        taup[i] = reflp.tau;
        w[(i, i + 1)] = T::from_f64(reflp.beta);
        for (c, &vv) in (i + 2..n).zip(&reflp.v) {
            w[(i, c)] = vv;
        }
        p[(j + 1, j)] = T::ONE;
        for (lc, &vv) in (j + 2..cn).zip(&reflp.v) {
            p[(lc, j)] = vv;
        }
        let mut ucur = Vec::with_capacity(n - i - 1);
        ucur.push(T::ONE);
        ucur.extend_from_slice(&reflp.v);

        // 6. x_j = τp · A_true u_j over rows i+1..m (A_true now folds in
        //    the left reflector j as well: k ≤ j left terms, k < j right).
        let mut xv = vec![T::ZERO; m - i - 1];
        gemv_rows(&mut xv, w, i + 1, i + 1, &ucur);
        let mut s1 = vec![T::ZERO; j + 1];
        let mut s2 = vec![T::ZERO; j];
        for c in i + 1..n {
            let lc = c - i0;
            let uu = ucur[c - i - 1];
            let yr = &y.row(lc)[..=j];
            let pr = &p.row(lc)[..j];
            for k in 0..j {
                s1[k] += yr[k].conj() * uu;
                s2[k] += pr[k].conj() * uu;
            }
            s1[j] += yr[j].conj() * uu;
        }
        for r in i + 1..m {
            let lr = r - i0;
            let wr = &wq.row(lr)[..=j];
            let xrow = &x.row(lr)[..j];
            xv[r - i - 1] -= dot8(wr, &s1) + dot8(xrow, &s2);
        }
        let tp = taup[i];
        for (lr, val) in xv.iter_mut().enumerate() {
            *val *= tp;
            x[(j + 1 + lr, j)] = *val;
        }
    }
    PanelAcc { wq, x, y, p }
}

/// Applies the panel's deferred update to the trailing matrix:
/// `A[i0+nb.., i0+nb..] ← A − Wq·Yᴴ − X·Pᴴ`, fanned across `threads`
/// workers per contiguous column block. Every output column's bits
/// depend only on its own operands (blocked-kernel guarantee), so the
/// result is identical for every worker count.
pub(super) fn trailing_update<T: Scalar>(
    w: &mut Matrix<T>,
    i0: usize,
    nb: usize,
    acc: &PanelAcc<T>,
    threads: usize,
) -> Result<(), NumericError> {
    let (m, n) = w.dims();
    let r0 = i0 + nb;
    let c0 = i0 + nb;
    let rows = m - r0;
    let cols = n - c0;
    if rows == 0 || cols == 0 {
        return Ok(());
    }
    let wq_t = acc.wq.submatrix(nb, 0, rows, nb)?;
    let x_t = acc.x.submatrix(nb, 0, rows, nb)?;
    let workers = threads
        .min(cols.div_ceil(PAR_MIN_COLS_PER_WORKER))
        .max(1)
        .min(cols);
    let chunk = cols.div_ceil(workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|k| (c0 + k * chunk, (c0 + (k + 1) * chunk).min(n)))
        .filter(|(a, b)| a < b)
        .collect();
    let updated = parallel::try_map_with(workers, &ranges, |_, &(ca, cb)| {
        let width = cb - ca;
        let mut a_chunk = w.submatrix(r0, ca, rows, width)?;
        let y_chunk = acc.y.submatrix(ca - i0, 0, width, nb)?;
        let p_chunk = acc.p.submatrix(ca - i0, 0, width, nb)?;
        let minus_one = T::from_f64(-1.0);
        kernel::accumulate_scaled_adjoint_right(&mut a_chunk, minus_one, &wq_t, &y_chunk)?;
        kernel::accumulate_scaled_adjoint_right(&mut a_chunk, minus_one, &x_t, &p_chunk)?;
        Ok::<Matrix<T>, NumericError>(a_chunk)
    })?;
    for (&(ca, _), block) in ranges.iter().zip(updated) {
        w.set_block(r0, ca, &block)?;
    }
    Ok(())
}

/// Compact WY triangular factor (LAPACK `zlarft`, forward columnwise):
/// for reflectors `H_j = I − τ_j v_j v_jᴴ` with `v_j` the columns of
/// `v`, builds upper-triangular `T` with
/// `H_0 H_1 ⋯ H_{k−1} = I − V·T·Vᴴ`. A zero τ leaves its column zero
/// (the identity reflector contributes nothing).
pub(super) fn larft<T: Scalar>(v: &Matrix<T>, taus: &[T]) -> Matrix<T> {
    let nb = taus.len();
    let rows = v.rows();
    let mut t = Matrix::<T>::zeros(nb, nb);
    for j in 0..nb {
        let tau = taus[j];
        if tau == T::ZERO {
            continue;
        }
        // tvec = V[:, :j]ᴴ · v_j (v_j is zero above its unit row, so the
        // structural-zero rows contribute nothing and are skipped).
        let mut tvec = vec![T::ZERO; j];
        for r in 0..rows {
            let row = v.row(r);
            let vj = row[j];
            if vj != T::ZERO {
                for (tv, &vk) in tvec.iter_mut().zip(&row[..j]) {
                    *tv += vk.conj() * vj;
                }
            }
        }
        // T[..j, j] = −τ · T[..j, ..j] · tvec; T[j, j] = τ.
        for a in 0..j {
            let mut acc = T::ZERO;
            for b in a..j {
                acc += t[(a, b)] * tvec[b];
            }
            t[(a, j)] = -(tau * acc);
        }
        t[(j, j)] = tau;
    }
    t
}

/// Accumulates `U = H_0 H_1 ⋯ H_{n−1}` (left reflectors, tails stored
/// below `w`'s diagonal) applied to the leading `m × n` identity,
/// one WY block at a time from the last panel backwards. Applying the
/// block at `i0` only touches rows/columns `i0..`, because every
/// untouched column is still a unit vector supported above `i0`.
fn accumulate_u<T: Scalar>(w: &Matrix<T>, tauq: &[T]) -> Result<Matrix<T>, NumericError> {
    let (m, n) = w.dims();
    let mut u = Matrix::<T>::zeros(m, n);
    for i in 0..n {
        u[(i, i)] = T::ONE;
    }
    let starts: Vec<usize> = (0..n).step_by(NB).collect();
    for &i0 in starts.iter().rev() {
        let nb = NB.min(n - i0);
        let rows = m - i0;
        let mut vblk = Matrix::<T>::zeros(rows, nb);
        for j in 0..nb {
            let k = i0 + j;
            vblk[(j, j)] = T::ONE;
            for r in k + 1..m {
                vblk[(r - i0, j)] = w[(r, k)];
            }
        }
        let tmat = larft(&vblk, &tauq[i0..i0 + nb]);
        let mut usub = u.submatrix(i0, i0, rows, n - i0)?;
        let w1 = kernel::mul_hermitian_left(&vblk, &usub)?;
        let w2 = tmat.matmul(&w1)?;
        kernel::accumulate_scaled(&mut usub, T::from_f64(-1.0), &vblk, &w2)?;
        u.set_block(i0, i0, &usub)?;
    }
    Ok(u)
}

/// Accumulates `V = P_0 P_1 ⋯ P_{n−2}` (right reflectors, tails stored
/// right of `w`'s superdiagonal; reflector `k` acts on coordinates
/// `k+1..n`), by the same backward WY blocks as [`accumulate_u`].
fn accumulate_v<T: Scalar>(w: &Matrix<T>, taup: &[T]) -> Result<Matrix<T>, NumericError> {
    let n = w.cols();
    let mut v = Matrix::<T>::identity(n);
    if n < 2 {
        return Ok(v);
    }
    let starts: Vec<usize> = (0..n).step_by(NB).collect();
    for &i0 in starts.iter().rev() {
        let nb = NB.min(n - i0).min(n - 1 - i0);
        if nb == 0 {
            continue;
        }
        let rows = n - i0 - 1; // coordinates i0+1..n
        let mut vblk = Matrix::<T>::zeros(rows, nb);
        for j in 0..nb {
            let k = i0 + j;
            vblk[(j, j)] = T::ONE;
            for c in k + 2..n {
                vblk[(c - i0 - 1, j)] = w[(k, c)];
            }
        }
        let tmat = larft(&vblk, &taup[i0..i0 + nb]);
        let mut vsub = v.submatrix(i0 + 1, i0 + 1, rows, rows)?;
        let w1 = kernel::mul_hermitian_left(&vblk, &vsub)?;
        let w2 = tmat.matmul(&w1)?;
        kernel::accumulate_scaled(&mut vsub, T::from_f64(-1.0), &vblk, &w2)?;
        v.set_block(i0 + 1, i0 + 1, &vsub)?;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex};
    use crate::matrix::CMatrix;
    use crate::oracle::{complex_entries, same_complex_bits, same_real_bits, specials};
    use crate::svd::{Svd, SvdMethod};
    use proptest::prelude::*;

    fn pseudo_random_complex(m: usize, n: usize, mut seed: u64) -> CMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(m, n, |_, _| c64(next(), next()))
    }

    #[test]
    fn blocked_reconstructs_above_the_panel_threshold() {
        // 64 > MIN_BLOCKED_COLS exercises the panel path proper (smaller
        // inputs delegate to the reference backend).
        for &(m, n) in &[(64, 64), (96, 64), (70, 50)] {
            let a = pseudo_random_complex(m, n, (m * 37 + n) as u64);
            let svd = Svd::compute_with(&a, SvdMethod::Blocked).unwrap();
            let err = (&svd.reconstruct() - &a).norm_fro();
            assert!(
                err < 1e-12 * a.norm_fro(),
                "({m},{n}): reconstruction error {err}"
            );
        }
    }

    #[test]
    fn larft_reproduces_the_reflector_product() {
        // Compare I − V·T·Vᴴ against the explicit product of the
        // individual reflector matrices.
        let nvec = 7;
        let k = 3;
        let mut v = CMatrix::zeros(nvec, k);
        let mut taus = Vec::new();
        for j in 0..k {
            let col: Vec<Complex> = (j..nvec)
                .map(|r| {
                    c64(
                        (r * 3 + j) as f64 * 0.17 - 1.0,
                        (r + 2 * j) as f64 * 0.11 - 0.5,
                    )
                })
                .collect();
            let refl = make_reflector(&col);
            v[(j, j)] = Complex::ONE;
            for (r, &vv) in (j + 1..nvec).zip(&refl.v) {
                v[(r, j)] = vv;
            }
            taus.push(refl.tau);
        }
        let t = larft(&v, &taus);
        // Dense product H_0 H_1 H_2.
        let mut dense = CMatrix::identity(nvec);
        for j in 0..k {
            let wv: Vec<Complex> = (0..nvec).map(|r| v[(r, j)]).collect();
            let h = CMatrix::from_fn(nvec, nvec, |a, b| {
                let delta = if a == b { Complex::ONE } else { Complex::ZERO };
                delta - taus[j] * wv[a] * wv[b].conj()
            });
            dense = dense.matmul(&h).unwrap();
        }
        // I − V T Vᴴ.
        let vt = v.matmul(&t).unwrap();
        let wy = &CMatrix::identity(nvec) - &vt.mul_adjoint_right(&v).unwrap();
        assert!(
            wy.approx_eq(&dense, 1e-13),
            "WY form deviates from the reflector product"
        );
    }

    /// Real parts only: the `f64` instantiation's inputs.
    fn real_of(z: &[Complex]) -> Vec<f64> {
        z.iter().map(|z| z.re).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `dot8x4` gives each row `dot8`'s bits, lengths 0–40, complex
        /// and real, special values included.
        #[test]
        fn dot8x4_matches_four_dot8s(
            len in 0usize..=40,
            seed in 0u64..1_000_000,
            specials in specials(4, 0..5),
        ) {
            let rows = complex_entries(4 * len, seed, &specials);
            let b = complex_entries(len, seed + 1, &specials[..specials.len().min(1)]);
            let a: [&[Complex]; 4] = std::array::from_fn(|q| &rows[q * len..(q + 1) * len]);
            let want: Vec<Complex> = a.iter().map(|row| dot8(row, &b)).collect();
            prop_assert!(same_complex_bits(&dot8x4(a, &b), &want), "complex");

            let rows_re = real_of(&rows);
            let b_re = real_of(&b);
            let a_re: [&[f64]; 4] = std::array::from_fn(|q| &rows_re[q * len..(q + 1) * len]);
            let want: Vec<f64> = a_re.iter().map(|row| dot8(row, &b_re)).collect();
            prop_assert!(same_real_bits(&dot8x4(a_re, &b_re), &want), "real");
        }

        /// The panel GEMVs against their row-by-row loops, on sub-blocks
        /// with row and column offsets (row counts ≡ 0–3 mod 4).
        #[test]
        fn panel_gemvs_match_the_row_loops(
            (rows, r0) in (1usize..=14).prop_flat_map(|rows| (Just(rows), 0..rows)),
            (cols, c0) in (1usize..=21).prop_flat_map(|cols| (Just(cols), 0..cols)),
            seed in 0u64..1_000_000,
            specials in specials(4, 0..5),
        ) {
            let a = CMatrix::from_vec(rows, cols, complex_entries(rows * cols, seed, &specials))
                .unwrap();
            let x = complex_entries(rows - r0, seed + 1, &specials[..specials.len().min(1)]);
            let u = complex_entries(cols - c0, seed + 2, &[]);
            let y0 = complex_entries(cols - c0, seed + 3, &[]);

            let (mut want, mut got) = (y0.clone(), y0.clone());
            adjoint_gemv_rowwise(&mut want, &a, r0, c0, &x);
            adjoint_gemv(&mut got, &a, r0, c0, &x);
            prop_assert!(same_complex_bits(&got, &want), "complex Aᴴx");
            let want: Vec<Complex> = (r0..rows).map(|r| dot8(&a.row(r)[c0..], &u)).collect();
            let mut got = vec![Complex::ZERO; rows - r0];
            gemv_rows(&mut got, &a, r0, c0, &u);
            prop_assert!(same_complex_bits(&got, &want), "complex Au");

            let a_re = a.real_part();
            let (x_re, u_re, y_re) = (real_of(&x), real_of(&u), real_of(&y0));
            let (mut want, mut got) = (y_re.clone(), y_re);
            adjoint_gemv_rowwise(&mut want, &a_re, r0, c0, &x_re);
            adjoint_gemv(&mut got, &a_re, r0, c0, &x_re);
            prop_assert!(same_real_bits(&got, &want), "real Aᵀx");
            let want: Vec<f64> = (r0..rows).map(|r| dot8(&a_re.row(r)[c0..], &u_re)).collect();
            let mut got = vec![0.0; rows - r0];
            gemv_rows(&mut got, &a_re, r0, c0, &u_re);
            prop_assert!(same_real_bits(&got, &want), "real Au");
        }
    }
}
