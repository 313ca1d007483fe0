//! Lazy two-phase SVD: bidiagonalize once, read the values, accumulate
//! only the factor columns a consumer actually projects with.
//!
//! The realization stage of the MFTI pipeline reads the singular values
//! of a pencil to *pick* a reduced order `r`, then reads only the
//! leading `r` columns of each singular-vector factor to project with —
//! yet [`svd_blocked`](super::blocked) always accumulates all
//! `min(m, n)` WY columns before anything is truncated. [`PartialSvd`]
//! splits the decomposition at exactly that seam:
//!
//! 1. [`Svd::bidiagonalize`](super::Svd::bidiagonalize) runs the panel
//!    bidiagonalization (the `zgebrd`/`zlabrd` phase shared with the
//!    blocked backend) and keeps the reflector tails (`W`), the scaling
//!    factors `tauq`/`taup` and the real bidiagonal alive. The singular
//!    values are resolved eagerly by the QR iteration — the rotation
//!    stream does not depend on which factors absorb it, so they are
//!    bit-identical to any later factor-bearing run. A decomposition
//!    declared for one side only
//!    ([`Svd::bidiagonalize_owned`](super::Svd::bidiagonalize_owned))
//!    runs that iteration once, rotating the side's compact factor of
//!    step 2 as it goes; the others run it factor-free and replay it on
//!    their first accumulation.
//! 2. [`PartialSvd::accumulate`] first replays the QR rotations into
//!    **compact** `n × n` identity factors (cheap: the rotations touch
//!    `n`-vectors, never `m`-vectors; a lone declared side's factor came
//!    with the values), normalizes signs/order, truncates to the leading
//!    `r` columns, and only then applies the Householder reflectors
//!    through backward WY blocks to an `m × r` slab instead of the full
//!    `m × min(m, n)` factor — the accumulation GEMMs shrink by
//!    `min(m, n)/r`.
//!
//! **Bit-identity contract.** `accumulate(_, r)` returns exactly the
//! leading `r` columns of `accumulate(_, min(m, n))`, bit for bit, at
//! every `MFTI_THREADS`. Two implementation rules make this hold:
//!
//! * every slab GEMM routes through width-stable kernels
//!   ([`kernel::mul_hermitian_left`], [`kernel::mul_blocked`],
//!   [`kernel::accumulate_scaled`] — never [`kernel::mul`], whose
//!   small-product shortcut would change the accumulation order with
//!   the slab width), and
//! * slab widths and parallel column chunks are padded to multiples of
//!   4 so every column runs the same `dot4` micro-kernel lane of the
//!   packed real kernel (the ≤ 3-column remainder loop sums in a
//!   different association order).
//!
//! The compact-rotation ordering differs from the blocked backend's
//! (which rotates the full accumulated factors), so full-rank
//! `PartialSvd` factors agree with [`svd_blocked`](super::blocked)
//! factors only to roundoff — the singular values still match bit for
//! bit above the panel threshold.

use std::sync::OnceLock;

use crate::error::NumericError;
use crate::kernel;
use crate::matrix::Matrix;
use crate::parallel;
use crate::qr::reflector;
use crate::scalar::Scalar;
use crate::svd::bidiag_qr::finish_bidiagonal;
use crate::svd::blocked::{
    bidiag_panel, column_wy_block, column_wy_blocks, row_wy_blocks, trailing_update, WyBlock, NB,
};
use crate::svd::{validate_input, SvdFactors};

/// Minimum slab columns assigned per worker before the accumulation
/// fan-out spawns another thread; a multiple of 4 so chunk boundaries
/// never split a `dot4` group.
const PAR_MIN_SLAB_COLS_PER_WORKER: usize = 16;

/// Tall inputs at least this many times taller than wide take the
/// QR-first route (R-bidiagonalization, LAPACK's `dgesvd` tall path):
/// a Q-less blocked Householder QR — whose trailing updates are pure
/// GEMMs — reduces the `m×n` bidiagonalization (half of whose flops
/// are memory-bound GEMVs) to `n×n`. The realization stage's stacked
/// pencils are exactly 2:1, so they always take it; right-factor
/// requests never touch `Q` at all.
const QR_FIRST_RATIO: usize = 2;

/// Rounds a slab width up to a multiple of 4: every column then runs
/// the same `dot4` micro-kernel lane regardless of how many neighbors
/// ride in the call (see the module docs' bit-identity contract).
fn pad4(cols: usize) -> usize {
    cols.div_ceil(4) * 4
}

/// A bidiagonalized matrix whose singular values are known and whose
/// singular-vector factors can be accumulated lazily, truncated to any
/// leading rank (see the module docs).
///
/// Created by [`Svd::bidiagonalize`](super::Svd::bidiagonalize).
///
/// ```
/// use mfti_numeric::{CMatrix, Svd, SvdFactors, c64};
///
/// # fn main() -> Result<(), mfti_numeric::NumericError> {
/// let a = CMatrix::from_fn(20, 12, |i, j| {
///     c64(1.0 / (1.0 + i as f64 + j as f64), 0.1 * (i as f64 - j as f64))
/// });
/// let partial = Svd::bidiagonalize(&a)?;
/// // Pick a rank from the values alone …
/// let r = partial.singular_values().iter().filter(|&&s| s > 1e-10).count();
/// // … then pay only for the columns the projection reads.
/// let (u, v) = partial.accumulate(SvdFactors::Both, r)?;
/// assert_eq!(u.dims(), (20, r));
/// assert_eq!(v.dims(), (12, r));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartialSvd<T: Scalar> {
    /// Q-less blocked QR state when the tall input took the QR-first
    /// route (`m ≥ 2n`, see [`QR_FIRST_RATIO`]) and the left side was
    /// declared: the bidiagonalization then ran on the `n × n` triangle
    /// `R`, and left-factor requests lift their slab back through these
    /// reflectors. `None` on the direct route, and on the QR-first route
    /// when no declared side reads `Q`.
    qr: Option<QrFirst<T>>,
    /// Rows of the input in the tall orientation.
    rows: usize,
    /// The factor sides declared at bidiagonalization, in the tall
    /// orientation; a request for any other side is refused.
    declared: SvdFactors,
    /// Reflector tails in the tall (`m ≥ n`) orientation: left tails
    /// below the diagonal, right tails beyond the superdiagonal —
    /// exactly where the panel sweep zeroed them out.
    w: Matrix<T>,
    /// Left reflector scaling factors (`n`).
    tauq: Vec<T>,
    /// Right reflector scaling factors (`n − 1`).
    taup: Vec<T>,
    /// Real bidiagonal diagonal, pre-rescale.
    d: Vec<f64>,
    /// Real bidiagonal superdiagonal, pre-rescale.
    e: Vec<f64>,
    /// Undoes the overflow-guard input scaling on the values.
    rescale: f64,
    /// Singular values, descending (resolved eagerly, factor-free).
    values: Vec<f64>,
    /// The input was wide and is stored as its adjoint: factor requests
    /// and results swap through `A = UΣV*  ⇔  A* = VΣU*`.
    swapped: bool,
    /// Compact rotation factors (`n × n`, tall orientation): filled by
    /// the eager QR iteration when only this side is declared, else
    /// cached on the first accumulation per side. The bidiagonal-QR
    /// rotation stream is deterministic, so every run produces the same
    /// bits — repeated accumulations (a session re-realizing at a new
    /// order) skip the replay and pay only the rank-limited WY
    /// application.
    compact_u: OnceLock<Matrix<T>>,
    /// Right-side counterpart of [`Self::compact_u`].
    compact_v: OnceLock<Matrix<T>>,
}

/// The packed output of the Q-less blocked Householder QR that fronts
/// the bidiagonalization of very tall inputs: `R` on and above the
/// diagonal of `w` (`m × n`), reflector tails below, scaling factors in
/// `taus` — `Q = H_0 ⋯ H_{n−1}` is never formed.
#[derive(Debug, Clone)]
struct QrFirst<T: Scalar> {
    w: Matrix<T>,
    taus: Vec<T>,
}

impl<T: Scalar> PartialSvd<T> {
    /// Panel-bidiagonalizes `a` and resolves its singular values; the
    /// factor state stays latent until [`accumulate`](Self::accumulate).
    ///
    /// # Errors
    ///
    /// As [`Svd::compute`](super::Svd::compute): empty or non-finite
    /// input, QR-sweep stall.
    pub(super) fn compute(a: &Matrix<T>) -> Result<Self, NumericError> {
        validate_input(a)?;
        if a.rows() < a.cols() {
            return Ok(Self::compute_tall(a.adjoint(), SvdFactors::Both)?.into_adjoint());
        }
        Self::compute_tall(a.clone(), SvdFactors::Both)
    }

    /// [`PartialSvd::compute`] on a matrix the sweep may work in: a tall
    /// `a` becomes the working copy itself, a wide one is replaced by its
    /// adjoint. Only the `factors` sides may be accumulated later. Same
    /// bits as the borrowing entry.
    pub(super) fn compute_owned(a: Matrix<T>, factors: SvdFactors) -> Result<Self, NumericError> {
        validate_input(&a)?;
        if a.rows() < a.cols() {
            return Ok(Self::compute_tall(a.adjoint(), factors.swapped())?.into_adjoint());
        }
        Self::compute_tall(a, factors)
    }

    /// The decomposition of `Aᴴ` from that of `A`: the same values, with
    /// factor requests and results swapped (`A = UΣVᴴ ⇔ Aᴴ = VΣUᴴ`). A
    /// wide matrix handed over as its (tall) adjoint then decomposes with
    /// the bits [`Svd::bidiagonalize`](super::Svd::bidiagonalize) gives
    /// the wide matrix itself.
    #[must_use]
    pub fn into_adjoint(mut self) -> Self {
        self.swapped = !self.swapped;
        self
    }

    /// The tall-orientation worker: the same scaling guard and panel
    /// sweep as [`svd_blocked`](super::blocked::svd_blocked), minus the
    /// factor accumulation. The sweep runs in `a` itself. The QR-first
    /// reflectors are kept only when `declared` asks for the left side,
    /// the one that reads them. The QR iteration rotates the compact
    /// factor of a lone declared side, and runs factor-free otherwise.
    fn compute_tall(a: Matrix<T>, declared: SvdFactors) -> Result<Self, NumericError> {
        let (m, n) = a.dims();
        debug_assert!(m >= n);
        let scale = a.max_abs();
        let out_of_range = scale > 0.0 && !(1e-150..=1e150).contains(&scale);
        let mut w = a;
        if out_of_range {
            let inv = 1.0 / scale;
            w.as_mut_slice().iter_mut().for_each(|x| *x = x.scale(inv));
        }
        let rescale = if out_of_range { scale } else { 1.0 };
        let threads = parallel::available_threads();

        // Very tall inputs: QR first, then bidiagonalize the n×n `R`.
        let qr = if m >= QR_FIRST_RATIO * n && n >= 2 {
            let (qr, r_mat) = qr_factor(w, threads)?;
            w = r_mat;
            declared.left().then_some(qr)
        } else {
            None
        };

        let mut d = vec![0.0f64; n];
        let mut e = vec![0.0f64; n.saturating_sub(1)];
        let mut tauq = vec![T::ZERO; n];
        let mut taup = vec![T::ZERO; n.saturating_sub(1)];
        let mut i0 = 0usize;
        while i0 < n {
            let nb = NB.min(n - i0);
            let acc = bidiag_panel(&mut w, i0, nb, &mut d, &mut e, &mut tauq, &mut taup);
            if i0 + nb < n {
                trailing_update(&mut w, i0, nb, &acc, threads)?;
            }
            i0 += nb;
        }

        // Values now: the rotation stream is factor-independent, so this
        // run yields the same bits as any later `accumulate` replay. A
        // lone declared side rides along, and that replay is this run;
        // a stall still fails here, inside the caller's decomposition.
        let one_side = declared.left() != declared.right();
        let (want_u, want_v) = (one_side && declared.left(), one_side && declared.right());
        let compact = |want: bool| {
            if want {
                Matrix::<T>::identity(n)
            } else {
                Matrix::<T>::zeros(0, 0)
            }
        };
        let (ub, values, vb) = finish_bidiagonal(
            compact(want_u),
            compact(want_v),
            d.clone(),
            e.clone(),
            want_u,
            want_v,
            rescale,
        )?;
        let cached = |want: bool, factor: Matrix<T>| {
            if want {
                OnceLock::from(factor)
            } else {
                OnceLock::new()
            }
        };
        Ok(PartialSvd {
            qr,
            rows: m,
            declared,
            w,
            tauq,
            taup,
            d,
            e,
            rescale,
            values,
            swapped: false,
            compact_u: cached(want_u, ub),
            compact_v: cached(want_v, vb),
        })
    }

    /// Dimensions of the decomposed matrix (original orientation).
    pub fn dims(&self) -> (usize, usize) {
        let (m, n) = (self.rows, self.w.cols());
        if self.swapped {
            (n, m)
        } else {
            (m, n)
        }
    }

    /// Singular values in descending order — available without paying
    /// for any factor accumulation.
    pub fn singular_values(&self) -> &[f64] {
        &self.values
    }

    /// Numerical rank: values above `rel_tol · σ₁` (mirrors
    /// [`Svd::rank`](super::Svd::rank)).
    pub fn rank(&self, rel_tol: f64) -> usize {
        let smax = self.values.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.values
            .iter()
            .take_while(|&&x| x > rel_tol * smax)
            .count()
    }

    /// Accumulates the requested factors restricted to the leading `r`
    /// columns: `(U m×r, V n×r)` with skipped factors returned as `0×0`
    /// matrices. The result is bit-identical to the leading `r` columns
    /// of a full-rank accumulation, at every worker count (module docs).
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] when `r` is zero or exceeds
    /// `min(m, n)`, or when a requested side was not declared at
    /// bidiagonalization ([`Svd::bidiagonalize_owned`](super::Svd::bidiagonalize_owned));
    /// propagates QR-sweep and shape failures.
    pub fn accumulate(
        &self,
        factors: SvdFactors,
        r: usize,
    ) -> Result<(Matrix<T>, Matrix<T>), NumericError> {
        let n = self.w.cols();
        if r == 0 || r > n {
            return Err(NumericError::InvalidArgument {
                what: "partial svd accumulation rank out of range",
            });
        }
        // Factor requests read through the adjoint for wide inputs.
        let tall = if self.swapped {
            factors.swapped()
        } else {
            factors
        };
        let (want_u, want_v) = (tall.left(), tall.right());
        if (want_u && !self.declared.left()) || (want_v && !self.declared.right()) {
            return Err(NumericError::InvalidArgument {
                what: "partial svd factor side not declared at bidiagonalization",
            });
        }

        // Replay the QR rotations into compact n×n factors, once per
        // side, unless the eager run already rotated this one. The
        // stream (and the σ ordering the sort sees) matches the eager
        // values run bit for bit, so the cached factors are
        // indistinguishable from a fresh replay.
        let need_u = want_u && self.compact_u.get().is_none();
        let need_v = want_v && self.compact_v.get().is_none();
        if need_u || need_v {
            let ub = if need_u {
                Matrix::<T>::identity(n)
            } else {
                Matrix::<T>::zeros(0, 0)
            };
            let vb = if need_v {
                Matrix::<T>::identity(n)
            } else {
                Matrix::<T>::zeros(0, 0)
            };
            let (ub, values, vb) = finish_bidiagonal(
                ub,
                vb,
                self.d.clone(),
                self.e.clone(),
                need_u,
                need_v,
                self.rescale,
            )?;
            debug_assert_eq!(values, self.values);
            if need_u {
                let _ = self.compact_u.set(ub);
            }
            if need_v {
                let _ = self.compact_v.set(vb);
            }
        }

        let u = if want_u {
            let ub = self.compact_u.get().ok_or(NumericError::InvalidArgument {
                what: "partial svd left factor cache missing after replay",
            })?;
            self.apply_left_reflectors(ub, r)?
        } else {
            Matrix::<T>::zeros(0, 0)
        };
        let v = if want_v {
            let vb = self.compact_v.get().ok_or(NumericError::InvalidArgument {
                what: "partial svd right factor cache missing after replay",
            })?;
            self.apply_right_reflectors(vb, r)?
        } else {
            Matrix::<T>::zeros(0, 0)
        };
        if self.swapped {
            Ok((v, u))
        } else {
            Ok((u, v))
        }
    }

    /// Left factor only, truncated to `r` columns (`m × r`).
    ///
    /// # Errors
    ///
    /// See [`PartialSvd::accumulate`].
    pub fn accumulate_u(&self, r: usize) -> Result<Matrix<T>, NumericError> {
        Ok(self.accumulate(SvdFactors::Left, r)?.0)
    }

    /// Right factor only, truncated to `r` columns (`n × r`).
    ///
    /// # Errors
    ///
    /// See [`PartialSvd::accumulate`].
    pub fn accumulate_v(&self, r: usize) -> Result<Matrix<T>, NumericError> {
        Ok(self.accumulate(SvdFactors::Right, r)?.1)
    }

    /// Applies `Q = H_0 ⋯ H_{n−1}` (left reflectors, tails below `w`'s
    /// diagonal) to the slab `[Ub(:, 1..r); 0]` (`m × r`), one backward
    /// WY block at a time, columns fanned across workers. On the
    /// QR-first route this runs on the `n`-row `R`-bidiagonalization
    /// slab, which is then lifted through the stored QR reflectors by
    /// the same backward-WY machinery — so the leading-`r` bits still
    /// match the full-rank run at every worker count.
    fn apply_left_reflectors(&self, ub: &Matrix<T>, r: usize) -> Result<Matrix<T>, NumericError> {
        let m = self.w.rows();
        let mut slab = zero_extended(ub, m, r);
        apply_wy_blocks(&mut slab, column_wy_blocks(&self.w, &self.tauq))?;
        let Some(qr) = &self.qr else {
            return slab.submatrix(0, 0, m, r);
        };

        // QR-first lift: U = Q_qr · U_R, with Q_qr's panels applied as
        // backward WY blocks on the zero-extended `mq × rp` slab.
        let mq = qr.w.rows();
        let mut big = zero_extended(&slab, mq, slab.cols());
        apply_wy_blocks(&mut big, column_wy_blocks(&qr.w, &qr.taus))?;
        big.submatrix(0, 0, mq, r)
    }

    /// Applies `P = P_0 ⋯ P_{n−2}` (right reflectors, tails beyond `w`'s
    /// superdiagonal; reflector `k` acts on coordinates `k+1..n`) to the
    /// slab `Vb(:, 1..r)` (`n × r`).
    fn apply_right_reflectors(&self, vb: &Matrix<T>, r: usize) -> Result<Matrix<T>, NumericError> {
        let n = self.w.cols();
        let mut slab = zero_extended(vb, n, r);
        apply_wy_blocks(&mut slab, row_wy_blocks(&self.w, &self.taup))?;
        slab.submatrix(0, 0, n, r)
    }
}

/// `src`'s leading `r` columns on top of a `rows × pad4(r)` zero slab.
fn zero_extended<T: Scalar>(src: &Matrix<T>, rows: usize, r: usize) -> Matrix<T> {
    let mut slab = Matrix::<T>::zeros(rows, pad4(r));
    for i in 0..src.rows() {
        slab.row_mut(i)[..r].copy_from_slice(&src.row(i)[..r]);
    }
    slab
}

/// Applies a backward sequence of WY blocks to `slab`, fanning the
/// columns across workers in 4-aligned chunks. Block `(row0, vblk, t)`
/// encodes `I − V·T·Vᴴ` acting on slab rows `row0 .. row0 + vblk.rows`;
/// each chunk walks the whole block sequence independently, so the
/// per-column bits match the serial sweep for every worker count.
fn apply_wy_blocks<T: Scalar>(
    slab: &mut Matrix<T>,
    blocks: impl Iterator<Item = WyBlock<T>>,
) -> Result<(), NumericError> {
    let blocks: Vec<WyBlock<T>> = blocks.collect();
    let (rows, cols) = slab.dims();
    if blocks.is_empty() || cols == 0 {
        return Ok(());
    }
    let threads = parallel::available_threads();
    let workers = threads
        .min(cols.div_ceil(PAR_MIN_SLAB_COLS_PER_WORKER))
        .max(1);
    let chunk = pad4(cols.div_ceil(workers));
    let ranges: Vec<(usize, usize)> = (0..cols)
        .step_by(chunk)
        .map(|c0| (c0, (c0 + chunk).min(cols)))
        .collect();
    let minus_one = T::from_f64(-1.0);
    let updated = parallel::try_map_with(workers, &ranges, |_, &(ca, cb)| {
        let width = cb - ca;
        let mut sub = slab.submatrix(0, ca, rows, width)?;
        for (row0, vblk, tmat) in &blocks {
            let span = vblk.rows();
            let mut ssub = sub.submatrix(*row0, 0, span, width)?;
            let w1 = kernel::mul_hermitian_left(vblk, &ssub)?;
            // mul_blocked, not matmul: the small-product shortcut would
            // change the accumulation order with the slab width.
            let w2 = kernel::mul_blocked(tmat, &w1)?;
            kernel::accumulate_scaled(&mut ssub, minus_one, vblk, &w2)?;
            sub.set_block(*row0, 0, &ssub)?;
        }
        Ok::<Matrix<T>, NumericError>(sub)
    })?;
    for (&(ca, _), block) in ranges.iter().zip(updated) {
        slab.set_block(0, ca, &block)?;
    }
    Ok(())
}

/// Blocked Q-less Householder QR of a tall matrix (consumed): classic
/// panel factorization with the level-3 trailing update
/// `C := C − V·(Tᴴ·(Vᴴ·C))` routed through the same width-stable
/// kernels and 4-aligned parallel column chunks as the WY accumulation
/// above, so `R` — and everything downstream of it — is bit-identical
/// at every worker count. Returns the packed reflectors and the `n × n`
/// triangle `R`.
fn qr_factor<T: Scalar>(
    mut a: Matrix<T>,
    threads: usize,
) -> Result<(QrFirst<T>, Matrix<T>), NumericError> {
    let (m, n) = a.dims();
    debug_assert!(m >= n);
    let mut taus = vec![T::ZERO; n];
    let mut i0 = 0usize;
    while i0 < n {
        let nb = NB.min(n - i0);
        // Unblocked panel: reflector k eliminates column k below the
        // diagonal, then H_k* hits the remaining panel columns — swept
        // row-wise (contiguous slices in the row-major layout), with
        // the same per-element summation order over `i` as the textbook
        // column sweep, so the bits don't depend on the orientation.
        for j in 0..nb {
            let k = i0 + j;
            let col: Vec<T> = (k..m).map(|i| a[(i, k)]).collect();
            let (v, tau, beta) = reflector(&col);
            a[(k, k)] = T::from_f64(beta);
            for (i, &vi) in v.iter().enumerate() {
                a[(k + 1 + i, k)] = vi;
            }
            taus[k] = tau;
            let rest = k + 1..i0 + nb;
            if tau != T::ZERO && !rest.is_empty() {
                // t = τ* · (v̂ᴴ · A[k.., rest]),  v̂ = [1, v…].
                let mut t: Vec<T> = a.row(k)[rest.clone()].to_vec();
                for (i, &vi) in v.iter().enumerate() {
                    let vic = vi.conj();
                    for (tc, &ac) in t.iter_mut().zip(&a.row(k + 1 + i)[rest.clone()]) {
                        *tc += vic * ac;
                    }
                }
                let tauc = tau.conj();
                t.iter_mut().for_each(|tc| *tc = tauc * *tc);
                // A[k.., rest] −= v̂ · t.
                for (ac, &tc) in a.row_mut(k)[rest.clone()].iter_mut().zip(&t) {
                    *ac -= tc;
                }
                for (i, &vi) in v.iter().enumerate() {
                    for (ac, &tc) in a.row_mut(k + 1 + i)[rest.clone()].iter_mut().zip(&t) {
                        *ac -= tc * vi;
                    }
                }
            }
        }
        // Level-3 trailing update with the panel's compound reflector:
        // C := (I − V·T·Vᴴ)ᴴ·C = C − V·(Tᴴ·(Vᴴ·C)).
        if i0 + nb < n {
            let rows = m - i0;
            let (vblk, tmat) = column_wy_block(&a, &taus, i0, nb);
            let c0 = i0 + nb;
            let width = n - c0;
            let workers = threads
                .min(width.div_ceil(PAR_MIN_SLAB_COLS_PER_WORKER))
                .max(1);
            let chunk = pad4(width.div_ceil(workers));
            let ranges: Vec<(usize, usize)> = (0..width)
                .step_by(chunk)
                .map(|ca| (ca, (ca + chunk).min(width)))
                .collect();
            let minus_one = T::from_f64(-1.0);
            let updated = parallel::try_map_with(workers, &ranges, |_, &(ca, cb)| {
                let mut c = a.submatrix(i0, c0 + ca, rows, cb - ca)?;
                let w1 = kernel::mul_hermitian_left(&vblk, &c)?;
                let w2 = kernel::mul_hermitian_left(&tmat, &w1)?;
                kernel::accumulate_scaled(&mut c, minus_one, &vblk, &w2)?;
                Ok::<Matrix<T>, NumericError>(c)
            })?;
            for (&(ca, _), block) in ranges.iter().zip(updated) {
                a.set_block(i0, c0 + ca, &block)?;
            }
        }
        i0 += nb;
    }
    let r_mat = Matrix::from_fn(n, n, |i, j| if j >= i { a[(i, j)] } else { T::ZERO });
    Ok((QrFirst { w: a, taus }, r_mat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::CMatrix;
    use crate::svd::Svd;

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
    fn full_rank_accumulation_reconstructs() {
        // (97, 40) and (40, 96) cross the QR-first threshold (m ≥ 2n in
        // the tall orientation), including a non-multiple-of-NB height.
        for &(m, n) in &[
            (64, 64),
            (96, 64),
            (64, 96),
            (97, 40),
            (40, 96),
            (20, 12),
            (9, 13),
        ] {
            let a = pseudo_random_complex(m, n, (m * 41 + n) as u64);
            let partial = Svd::bidiagonalize(&a).unwrap();
            let r = m.min(n);
            let (u, v) = partial.accumulate(SvdFactors::Both, r).unwrap();
            let s = partial.singular_values();
            let mut us = u.clone();
            for j in 0..r {
                for i in 0..m {
                    us[(i, j)] = us[(i, j)].scale(s[j]);
                }
            }
            let err = (&us.mul_adjoint_right(&v).unwrap() - &a).norm_fro();
            assert!(
                err < 1e-12 * a.norm_fro(),
                "({m},{n}): reconstruction error {err}"
            );
        }
    }

    #[test]
    fn values_match_the_one_shot_backend() {
        for &(m, n) in &[(70, 50), (50, 70), (10, 10)] {
            let a = pseudo_random_complex(m, n, (m * 7 + n) as u64);
            let partial = Svd::bidiagonalize(&a).unwrap();
            let fresh = Svd::singular_values_of(&a).unwrap();
            for (x, y) in partial.singular_values().iter().zip(&fresh) {
                assert!((x - y).abs() <= 1e-12 * fresh[0], "σ drift {x} vs {y}");
            }
        }
    }

    #[test]
    fn declared_sides_keep_the_bits_and_refuse_the_rest() {
        // (96, 40), (97, 40) and the wide (40, 96) take the QR-first
        // route; declaring only the right side drops its reflectors,
        // which only the left side reads. A one-sided decomposition
        // rotates its compact factor in the values run, and must still
        // give the two-sided decomposition's values and factor columns,
        // bit for bit at every rank, in both scalar types.
        fn check<T: Scalar>(a: &Matrix<T>) {
            let (m, n) = a.dims();
            let bits = |x: &Matrix<T>| -> Vec<u64> {
                x.to_complex()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .collect()
            };
            let value_bits = |p: &PartialSvd<T>| -> Vec<u64> {
                p.singular_values().iter().map(|x| x.to_bits()).collect()
            };
            let both = Svd::bidiagonalize(a).unwrap();
            let right = Svd::bidiagonalize_owned(a.clone(), SvdFactors::Right).unwrap();
            let left = Svd::bidiagonalize_owned(a.clone(), SvdFactors::Left).unwrap();
            for one in [&right, &left] {
                assert_eq!(one.dims(), (m, n));
                assert_eq!(value_bits(one), value_bits(&both), "({m},{n})");
            }
            for r in [1, 7, m.min(n)] {
                assert_eq!(
                    bits(&right.accumulate_v(r).unwrap()),
                    bits(&both.accumulate_v(r).unwrap()),
                    "({m},{n}), V to rank {r}"
                );
                assert_eq!(
                    bits(&left.accumulate_u(r).unwrap()),
                    bits(&both.accumulate_u(r).unwrap()),
                    "({m},{n}), U to rank {r}"
                );
            }
            assert!(right.accumulate_u(7).is_err());
            assert!(right.accumulate(SvdFactors::Both, 7).is_err());
            assert!(left.accumulate_v(7).is_err());
            let values = Svd::bidiagonalize_owned(a.clone(), SvdFactors::ValuesOnly).unwrap();
            assert_eq!(value_bits(&values), value_bits(&both));
            assert!(values.accumulate_u(7).is_err() && values.accumulate_v(7).is_err());
        }
        for &(m, n) in &[(96, 40), (97, 40), (40, 96), (30, 30)] {
            let a = pseudo_random_complex(m, n, (m * 13 + n) as u64);
            check(&a);
            check(&a.real_part());
        }
    }

    #[test]
    fn rejects_out_of_range_rank_and_bad_input() {
        let a = pseudo_random_complex(8, 6, 3);
        let partial = Svd::bidiagonalize(&a).unwrap();
        assert!(partial.accumulate(SvdFactors::Both, 0).is_err());
        assert!(partial.accumulate(SvdFactors::Both, 7).is_err());
        assert!(Svd::bidiagonalize(&CMatrix::zeros(0, 0)).is_err());
    }
}
