//! Rank-revealing incremental SVD updates for streaming row/column
//! appends.
//!
//! The MFTI serving path refits a model per arriving measurement: every
//! `FitSession` append grows the shifted Loewner pencil `x₀𝕃 − σ𝕃` by
//! a border of new rows and columns, and order detection re-reads its
//! singular-value decay. Recomputing a fresh decomposition is `O(K³)`
//! per append; this module replaces it with a *bordered update* of the
//! retained thin factorization (Businger/Bunch-style updating, in the
//! streaming form popularized by Brand's incremental SVD):
//!
//! Given `A ≈ U Σ V*` (thin, rank `q`) and the grown matrix
//!
//! ```text
//! A' = [ A  C ]      C : m×kc (new columns over old rows)
//!      [ R  D ]      R : kr×n, D : kr×kc
//! ```
//!
//! project the border onto the retained bases (`Cᵤ = U*C`, `Rᵥ = RV`),
//! orthonormalize the residuals into `Q_c = qr(C − U Cᵤ)` and
//! `Q_r = qr((R − Rᵥ V*)*)`, and absorb everything into the **bordered
//! core**
//!
//! ```text
//!     [ Σ    0    Cᵤ  ]      A' = [U Q_c 0; 0 0 I] · B · [V Q_r 0; 0 0 I]*
//! B = [ 0    0    R_c ]
//!     [ Rᵥ   L_r  D   ]
//! ```
//!
//! whose singular values are those of `A'` (up to the retained-tail
//! error, tracked by [`SvdUpdater::error_bound`]). `B` is only
//! `(q + kc + kr)`-sized, so one small re-bidiagonalization — through
//! the same [`householder`](crate::householder) reflectors,
//! [`bidiag_qr`](super::bidiag_qr) iteration and blocked
//! [`kernel`] GEMMs as the full backends — plus two thin basis-rotation
//! GEMMs absorb the append in `O((m + n)(q + k)²)` work instead of
//! `O(K³)`. *Rank-revealing*: after every update the tail below
//! `rel_floor · σ₁` is truncated, so `q` tracks the numerical rank of
//! the stream — for the structurally rank-deficient pencils of the MFTI
//! pipeline (Lemma 3.3: rank ≤ n + rank D), `q` stays near the system
//! order while `K` grows without bound. Dense full-rank streams degrade
//! gracefully: everything is retained and the update approaches (but
//! never exceeds by more than the border bookkeeping) fresh-SVD cost.
//!
//! The updater is generic over the scalar: realified *real* pencils keep
//! every GEMM, reflector and rotation on the packed real path — no
//! complex promotion anywhere in the update loop. It is seeded either by
//! its own blocked decomposition ([`SvdUpdater::new`]) or from factors a
//! caller already holds ([`SvdUpdater::from_factors`]) — a session
//! re-anchor seeds it from whichever rung of the
//! [`Svd::compute_recovering`] ladder converged. All arithmetic routes
//! through deterministically-chunked kernels, so updated singular
//! values are **bit-identical for every `MFTI_THREADS`** (asserted by
//! `tests/svd_update_thread_invariance.rs`).

use crate::error::NumericError;
use crate::kernel;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::scalar::Scalar;
use crate::svd::{Svd, SvdFactors, SvdMethod};

/// Default relative retained-tail floor: singular values below
/// `1e-13 · σ₁` are truncated from the retained factorization after
/// every update. Chosen to sit below every order-detection threshold
/// the pipeline uses (`OrderSelection::Threshold(1e-12)` and the
/// `1e-11` numeric floor) while staying above the `≈ K·ε·σ₁` roundoff
/// tail of exactly rank-deficient pencils, so truncation never disturbs
/// a rank decision yet keeps `q` at the numerical rank.
pub const DEFAULT_UPDATE_FLOOR: f64 = 1e-13;

/// Ill-conditioning floor for the downdate's restriction factors: the
/// row-deleted bases `U₂`, `V₂` have columns of at most unit norm, so
/// the diagonal of their QR `R` factors measures (in `[0, 1]`) how much
/// of each retained direction *survives* the eviction. A diagonal entry
/// at or below this floor means an evicted block essentially spanned a
/// retained singular direction — the core re-decomposition would divide
/// signal by roundoff — and [`SvdUpdater::downdate_leading`] refuses
/// with [`NumericError::Singular`] instead (callers degrade to a fresh
/// decomposition of the live window, DESIGN.md §9).
pub const DOWNDATE_COND_FLOOR: f64 = 1e-8;

/// A rank-revealing, incrementally updatable thin SVD
/// `A ≈ U diag(σ) V*`.
///
/// Create one from the initial matrix ([`SvdUpdater::new`]), then
/// absorb appended borders of rows and columns
/// ([`SvdUpdater::append_border`] — the shape of a growing square
/// pencil; either strip may be empty). Every append costs
/// `O((m + n)(q + k)²)` with `q` the retained rank, instead of the
/// `O(min(m,n)²·max(m,n))` of a fresh decomposition.
///
/// ```
/// use mfti_numeric::{CMatrix, Svd, SvdUpdater, c64};
///
/// # fn main() -> Result<(), mfti_numeric::NumericError> {
/// let a = CMatrix::from_fn(6, 6, |i, j| c64(1.0 / (1.0 + i as f64 + j as f64), 0.0));
/// let mut upd = SvdUpdater::new(&a)?;
///
/// // Grow by a border of one row and one column.
/// let grown = CMatrix::from_fn(7, 7, |i, j| c64(1.0 / (1.0 + i as f64 + j as f64), 0.0));
/// let cols = grown.submatrix(0, 6, 6, 1)?;
/// let rows = grown.submatrix(6, 0, 1, 6)?;
/// let corner = grown.submatrix(6, 6, 1, 1)?;
/// upd.append_border(&cols, &rows, &corner)?;
///
/// let fresh = Svd::singular_values_of(&grown)?;
/// for (a, b) in upd.singular_values().iter().zip(&fresh) {
///     assert!((a - b).abs() < 1e-12 * fresh[0]);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SvdUpdater<T: Scalar> {
    /// Left basis, `rows × q` with (numerically) orthonormal columns.
    u: Matrix<T>,
    /// Retained singular values, descending.
    s: Vec<f64>,
    /// Right basis, `cols × q`.
    v: Matrix<T>,
    rel_floor: f64,
    /// Accumulated Frobenius-norm bound on everything truncated so far —
    /// by Weyl's inequality, a bound on the perturbation of every
    /// reported singular value.
    discarded: f64,
}

impl<T: Scalar> SvdUpdater<T> {
    /// Seeds the updater with a full decomposition of `a` (blocked
    /// backend, both factors) truncated to the retained rank at the
    /// [default floor](DEFAULT_UPDATE_FLOOR).
    ///
    /// # Errors
    ///
    /// Same as [`Svd::compute`]: empty or non-finite input, QR-sweep
    /// stall.
    pub fn new(a: &Matrix<T>) -> Result<Self, NumericError> {
        let (u, s, v) = Svd::factors_native(a, SvdMethod::Blocked, SvdFactors::Both)?;
        Self::from_factors(u, s, v, DEFAULT_UPDATE_FLOOR)
    }

    /// Seeds the updater with a thin decomposition `A = U diag(s) V*`
    /// the caller already holds (`U` rows × r, `s` r descending,
    /// `V` cols × r, `r = min(rows, cols)`), e.g. the factors of a
    /// [`Svd::compute_recovering`] walk, truncated to the retained rank
    /// at the relative floor `rel_floor` (`0 ≤ rel_floor < 1`; `0.0`
    /// retains everything, exact but no longer sublinear for full-rank
    /// streams). Singular values below `rel_floor · σ₁` are dropped from
    /// the retained state now and after every append. Seeded with the
    /// blocked factors at the default floor, it is [`SvdUpdater::new`],
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] for a floor outside `[0, 1)` or
    /// singular values that are not descending and non-negative,
    /// [`NumericError::ShapeMismatch`] for factors that are not a
    /// complete thin decomposition, [`NumericError::NotFinite`] for
    /// NaN/∞ entries.
    pub fn from_factors(
        u: Matrix<T>,
        s: Vec<f64>,
        v: Matrix<T>,
        rel_floor: f64,
    ) -> Result<Self, NumericError> {
        if !(0.0..1.0).contains(&rel_floor) {
            return Err(NumericError::InvalidArgument {
                what: "svd update floor must lie in [0, 1)",
            });
        }
        let r = s.len();
        if r == 0 || u.cols() != r || v.cols() != r || r != u.rows().min(v.rows()) {
            return Err(NumericError::ShapeMismatch {
                op: "svd update seed: thin factors",
                left: u.dims(),
                right: v.dims(),
            });
        }
        if !u.is_finite() || !v.is_finite() || !s.iter().all(|x| x.is_finite()) {
            return Err(NumericError::NotFinite {
                op: "svd update seed",
            });
        }
        if s.windows(2).any(|w| w[0] < w[1]) || s[r - 1] < 0.0 {
            return Err(NumericError::InvalidArgument {
                what: "svd update seed values must be descending and non-negative",
            });
        }
        let mut updater = SvdUpdater {
            u,
            s,
            v,
            rel_floor,
            discarded: 0.0,
        };
        updater.discarded += updater.truncate_retained();
        Ok(updater)
    }

    /// Dimensions of the (virtually) factored matrix.
    pub fn dims(&self) -> (usize, usize) {
        (self.u.rows(), self.v.rows())
    }

    /// Number of retained singular triplets `q` — the working set every
    /// append re-decomposes. Tracks the numerical rank of the stream.
    pub fn retained_rank(&self) -> usize {
        self.s.len()
    }

    /// Retained singular values, descending. Values of the factored
    /// matrix below the retained floor are *absent* (callers comparing
    /// against a fresh decomposition should treat missing entries as
    /// zero).
    pub fn singular_values(&self) -> &[f64] {
        &self.s
    }

    /// Retained left singular vectors (`rows × q`).
    pub fn left(&self) -> &Matrix<T> {
        &self.u
    }

    /// Retained right singular vectors (`cols × q`), not conjugated:
    /// `A ≈ U diag(σ) V*`.
    pub fn right(&self) -> &Matrix<T> {
        &self.v
    }

    /// Upper bound (Frobenius, hence Weyl) on the deviation of any
    /// reported singular value from the exact one, accumulated over all
    /// truncations so far.
    pub fn error_bound(&self) -> f64 {
        self.discarded
    }

    /// The current **absolute** retained floor `rel_floor · σ₁`: every
    /// truncated singular value was at or below this level. Consumers
    /// that pad the retained spectrum back to full length should pad
    /// with this value rather than zero — it is below every sensible
    /// rank threshold (like the truncated values themselves) but keeps
    /// ratio-based gap detection from manufacturing an infinite drop at
    /// the truncation boundary.
    pub fn retain_floor(&self) -> f64 {
        self.rel_floor * self.s.first().copied().unwrap_or(0.0)
    }

    /// Absorbs a simultaneous border append: the factored matrix grows
    /// from `rows × cols` to `(rows + kr) × (cols + kc)` with `cols_new`
    /// (`rows × kc`) the new columns over the old rows, `rows_new`
    /// (`kr × cols`) the new rows over the old columns and `corner`
    /// (`kr × kc`) the new corner block. Either `kc` or `kr` may be
    /// zero (empty matrices of matching outer dimension).
    ///
    /// The update is transactional: on error the retained state is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`NumericError::ShapeMismatch`] for inconsistent border shapes,
    /// [`NumericError::NotFinite`] for NaN/∞ entries, and SVD failures
    /// from the core re-decomposition.
    pub fn append_border(
        &mut self,
        cols_new: &Matrix<T>,
        rows_new: &Matrix<T>,
        corner: &Matrix<T>,
    ) -> Result<(), NumericError> {
        let kc = cols_new.cols();
        let kr = rows_new.rows();
        let (rows, cols) = self.dims();
        if cols_new.rows() != rows && kc > 0 {
            return Err(NumericError::ShapeMismatch {
                op: "svd update: appended columns",
                left: (rows, cols),
                right: cols_new.dims(),
            });
        }
        if rows_new.cols() != cols && kr > 0 {
            return Err(NumericError::ShapeMismatch {
                op: "svd update: appended rows",
                left: (rows, cols),
                right: rows_new.dims(),
            });
        }
        if corner.dims() != (kr, kc) {
            return Err(NumericError::ShapeMismatch {
                op: "svd update: corner block",
                left: (kr, kc),
                right: corner.dims(),
            });
        }
        if kc == 0 && kr == 0 {
            return Ok(());
        }
        for block in [cols_new, rows_new, corner] {
            if !block.is_finite() {
                return Err(NumericError::NotFinite { op: "svd update" });
            }
        }

        let q = self.s.len();
        let minus_one = T::from_f64(-1.0);
        // Truncation mass of this append; committed only on success.
        let mut dropped = 0.0f64;

        // --- Column side: Cᵤ = U*C, residual ⊥ span(U) ------------------
        // Two projection passes (classical Gram–Schmidt "twice is
        // enough"): when the new columns lie mostly inside the retained
        // span, one pass leaves an O(ε‖C‖) component along U that the
        // normalized residual basis would amplify.
        let (cu, qc, rc) = if kc > 0 {
            let mut cu = kernel::mul_hermitian_left(&self.u, cols_new)?;
            let mut resid = cols_new.clone();
            kernel::accumulate_scaled(&mut resid, minus_one, &self.u, &cu)?;
            let refine = kernel::mul_hermitian_left(&self.u, &resid)?;
            kernel::accumulate_scaled(&mut resid, minus_one, &self.u, &refine)?;
            cu = &cu + &refine;
            if q < rows {
                let qr = Qr::compute(&resid)?;
                (cu, Some(qr.q_thin()), Some(qr.r()))
            } else {
                // The retained left basis is already complete: the
                // residual is pure roundoff and is discarded.
                dropped += resid.norm_fro();
                (cu, None, None)
            }
        } else {
            (Matrix::<T>::zeros(q, 0), None, None)
        };

        // --- Row side: Rᵥ = R V, residual ⊥ span(V) ---------------------
        let (rv, qr_basis, lr) = if kr > 0 {
            let mut rv = kernel::mul_blocked(rows_new, &self.v)?;
            let mut resid = rows_new.clone();
            kernel::accumulate_scaled_adjoint_right(&mut resid, minus_one, &rv, &self.v)?;
            let refine = kernel::mul_blocked(&resid, &self.v)?;
            kernel::accumulate_scaled_adjoint_right(&mut resid, minus_one, &refine, &self.v)?;
            rv = &rv + &refine;
            if q < cols {
                // R − Rᵥ V* = L_r Q_r* via QR of the adjoint.
                let qr = Qr::compute(&resid.adjoint())?;
                (rv, Some(qr.q_thin()), Some(qr.r().adjoint()))
            } else {
                dropped += resid.norm_fro();
                (rv, None, None)
            }
        } else {
            (Matrix::<T>::zeros(0, q), None, None)
        };
        let kcb = qc.as_ref().map_or(0, Matrix::cols);
        let krb = qr_basis.as_ref().map_or(0, Matrix::cols);

        // --- Bordered core B --------------------------------------------
        let mut b = Matrix::<T>::zeros(q + kcb + kr, q + krb + kc);
        for (i, &sv) in self.s.iter().enumerate() {
            b[(i, i)] = T::from_f64(sv);
        }
        if kc > 0 {
            b.set_block(0, q + krb, &cu)?;
            if let Some(rc) = &rc {
                b.set_block(q, q + krb, rc)?;
            }
        }
        if kr > 0 {
            b.set_block(q + kcb, 0, &rv)?;
            if let Some(lr) = &lr {
                b.set_block(q + kcb, q, lr)?;
            }
            if kc > 0 {
                b.set_block(q + kcb, q + krb, corner)?;
            }
        }
        let (ub, s_new, vb) = Svd::factors_native(&b, SvdMethod::Blocked, SvdFactors::Both)?;
        let rmin = s_new.len();

        // --- Rotate the bases into the new singular directions ----------
        // U' = [U Q_c 0; 0 0 I]·U_B — a thin GEMM on the old-coordinate
        // rows, a copy on the new ones (and symmetrically for V'). Each
        // widened basis is dropped as soon as its product is formed.
        let left_basis = match qc {
            Some(qc) => self.u.append_cols(&qc)?,
            None => self.u.clone(),
        };
        let mut u_new = kernel::mul_blocked(&left_basis, &ub.submatrix(0, 0, q + kcb, rmin)?)?;
        drop(left_basis);
        if kr > 0 {
            u_new = u_new.append_rows(&ub.submatrix(q + kcb, 0, kr, rmin)?)?;
        }
        let right_basis = match qr_basis {
            Some(qr) => self.v.append_cols(&qr)?,
            None => self.v.clone(),
        };
        let mut v_new = kernel::mul_blocked(&right_basis, &vb.submatrix(0, 0, q + krb, rmin)?)?;
        drop(right_basis);
        if kc > 0 {
            v_new = v_new.append_rows(&vb.submatrix(q + krb, 0, kc, rmin)?)?;
        }

        // --- Commit + rank-revealing truncation -------------------------
        self.u = u_new;
        self.s = s_new;
        self.v = v_new;
        self.discarded += dropped + self.truncate_retained();
        Ok(())
    }

    /// Removes the leading `kr` rows and `kc` columns from the factored
    /// matrix — the dual of [`SvdUpdater::append_border`], for sliding-
    /// window streams whose oldest border strips expire.
    ///
    /// Deleting rows restricts the factorization: with
    /// `U₂ = U[kr.., ..]` and `V₂ = V[kc.., ..]` (orthonormality lost),
    /// QR-factor `U₂ = Q_u R_u`, `V₂ = Q_v R_v` and re-decompose the
    /// small `q × q` core `R_u · diag(σ) · R_v*`; rotating the thin `Q`
    /// bases by the core's singular vectors restores a thin SVD of the
    /// surviving window in `O((m + n) q²)` work. The retained-tail
    /// [`SvdUpdater::error_bound`] remains valid — restriction never
    /// grows the Frobenius norm of the truncated tail — but because the
    /// *retained* mass shrinks too, the relative drift grows, which is
    /// exactly the signal a session uses to schedule re-anchoring.
    ///
    /// **Numerically treacherous when ill-conditioned**: if the evicted
    /// rows essentially spanned a retained singular direction, `R_u` (or
    /// `R_v`) is singular to working precision and the core
    /// re-decomposition would manufacture garbage by catastrophic
    /// cancellation. That case is *detected* (diagonal of `R` below
    /// [`DOWNDATE_COND_FLOOR`]) and refused with a typed
    /// [`NumericError::Singular`] — callers degrade to a fresh
    /// decomposition of the live window (DESIGN.md §9).
    ///
    /// The update is transactional: on error the retained state is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] when the downdate would leave
    /// an empty window or a window smaller than the retained rank (the
    /// truncated tail is gone — no restriction of the retained factors
    /// can represent it; callers must re-decompose the live window),
    /// [`NumericError::Singular`] for a detected ill-conditioned
    /// eviction, and SVD failures from the core re-decomposition.
    pub fn downdate_leading(&mut self, kr: usize, kc: usize) -> Result<(), NumericError> {
        if kr == 0 && kc == 0 {
            return Ok(());
        }
        let (rows, cols) = self.dims();
        if kr >= rows || kc >= cols {
            return Err(NumericError::InvalidArgument {
                what: "svd downdate must leave a nonempty window",
            });
        }
        let q = self.s.len();
        let m2 = rows - kr;
        let n2 = cols - kc;
        if q > m2 || q > n2 {
            return Err(NumericError::InvalidArgument {
                what: "retained rank exceeds the downdated window",
            });
        }

        // QR restriction factors of the row-deleted bases.
        let qr_u = Qr::compute(&self.u.submatrix(kr, 0, m2, q)?)?;
        let qr_v = Qr::compute(&self.v.submatrix(kc, 0, n2, q)?)?;
        let ru = qr_u.r();
        let rv = qr_v.r();

        // Ill-conditioning gate: columns of U₂/V₂ have norm ≤ 1, so the
        // R diagonals measure surviving mass per retained direction.
        for r in [&ru, &rv] {
            for i in 0..q {
                if r[(i, i)].abs() <= DOWNDATE_COND_FLOOR {
                    return Err(NumericError::Singular {
                        op: "svd downdate: eviction spans a retained direction",
                    });
                }
            }
        }

        // Core R_u · diag(σ) · R_v* (q × q), then its SVD.
        let mut scaled = ru.clone();
        for j in 0..q {
            let sv = T::from_f64(self.s[j]);
            for i in 0..q {
                scaled[(i, j)] *= sv;
            }
        }
        let core = kernel::mul_adjoint_right(&scaled, &rv)?;
        let (ub, s_new, vb) = Svd::factors_native(&core, SvdMethod::Blocked, SvdFactors::Both)?;

        // Rotate the orthonormal bases into the new singular directions.
        let u_new = kernel::mul_blocked(&qr_u.q_thin(), &ub)?;
        let v_new = kernel::mul_blocked(&qr_v.q_thin(), &vb)?;

        // Commit + rank-revealing truncation.
        self.u = u_new;
        self.s = s_new;
        self.v = v_new;
        self.discarded += self.truncate_retained();
        Ok(())
    }

    /// Residual-verification probe: Frobenius norm of
    /// `reference − (U Σ V*)[.., indices]`, where `reference` holds the
    /// true columns of the factored matrix at `indices` (caller-
    /// assembled — the updater never sees the full matrix). Sessions
    /// probe a handful of deterministic sample columns of the live
    /// window after every downdate; a residual above the drift
    /// threshold quarantines the factorization (DESIGN.md §9).
    ///
    /// The probe is read-only and routes through the same
    /// deterministically-chunked GEMM as the updates, so its value is
    /// bit-identical at every `MFTI_THREADS`.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] for an out-of-range column
    /// index, [`NumericError::ShapeMismatch`] when `reference` is not
    /// `rows × indices.len()`.
    pub fn residual_on_columns(
        &self,
        reference: &Matrix<T>,
        indices: &[usize],
    ) -> Result<f64, NumericError> {
        let (rows, cols) = self.dims();
        if reference.dims() != (rows, indices.len()) {
            return Err(NumericError::ShapeMismatch {
                op: "svd downdate probe: reference columns",
                left: (rows, indices.len()),
                right: reference.dims(),
            });
        }
        if indices.iter().any(|&j| j >= cols) {
            return Err(NumericError::InvalidArgument {
                what: "svd downdate probe: column index out of range",
            });
        }
        let q = self.s.len();
        // Coefficients of the probed columns in the left basis:
        // A[.., j] = U · (σ_t · conj(V[j, t]))_t.
        let mut coef = Matrix::<T>::zeros(q, indices.len());
        for (p, &j) in indices.iter().enumerate() {
            for t in 0..q {
                coef[(t, p)] = T::from_f64(self.s[t]) * self.v[(j, t)].conj();
            }
        }
        let mut diff = reference.clone();
        kernel::accumulate_scaled(&mut diff, T::from_f64(-1.0), &self.u, &coef)?;
        Ok(diff.norm_fro())
    }

    /// Drops retained triplets below `rel_floor · σ₁` (keeping at least
    /// one and at most `min(rows, cols)`), returning the Frobenius mass
    /// of what was dropped.
    fn truncate_retained(&mut self) -> f64 {
        let total = self.s.len();
        if total == 0 {
            return 0.0;
        }
        let smax = self.s[0];
        let floor = self.rel_floor * smax;
        let (rows, cols) = self.dims();
        let limit = rows.min(cols).max(1);
        let keep = self
            .s
            .iter()
            .take_while(|&&x| x > floor)
            .count()
            .clamp(1, total)
            .min(limit);
        if keep == total {
            return 0.0;
        }
        let mass: f64 = self.s[keep..].iter().map(|x| x * x).sum::<f64>().sqrt();
        self.s.truncate(keep);
        self.u = self
            .u
            .submatrix(0, 0, self.u.rows(), keep)
            .expect("keep <= retained"); // mfti-lint: allow(MFTI-D7) — keep ≤ total ≤ u.cols() by the clamp above
        self.v = self
            .v
            .submatrix(0, 0, self.v.rows(), keep)
            .expect("keep <= retained"); // mfti-lint: allow(MFTI-D7) — keep ≤ total ≤ v.cols() by the clamp above
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::{CMatrix, RMatrix};

    fn pseudo_random_complex(m: usize, n: usize, mut seed: u64) -> CMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(m, n, |_, _| c64(next(), next()))
    }

    fn assert_sv_close(updater: &[f64], fresh: &[f64], tol_rel: f64) {
        let smax = fresh.first().copied().unwrap_or(0.0).max(1e-300);
        for i in 0..fresh.len().max(updater.len()) {
            let a = updater.get(i).copied().unwrap_or(0.0);
            let b = fresh.get(i).copied().unwrap_or(0.0);
            assert!(
                (a - b).abs() <= tol_rel * smax,
                "σ[{i}]: updated {a:e} vs fresh {b:e}"
            );
        }
    }

    #[test]
    fn border_append_matches_fresh_svd() {
        let full = pseudo_random_complex(20, 20, 0xfeed);
        let a = full.submatrix(0, 0, 16, 16).unwrap();
        let mut upd = SvdUpdater::new(&a).unwrap();
        upd.append_border(
            &full.submatrix(0, 16, 16, 4).unwrap(),
            &full.submatrix(16, 0, 4, 16).unwrap(),
            &full.submatrix(16, 16, 4, 4).unwrap(),
        )
        .unwrap();
        let fresh = Svd::singular_values_of(&full).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-12);
        assert_eq!(upd.dims(), (20, 20));
    }

    #[test]
    fn row_and_column_appends_match_fresh_svd() {
        let full = pseudo_random_complex(14, 10, 0xabcd);
        let a = full.submatrix(0, 0, 10, 10).unwrap();
        let mut upd = SvdUpdater::new(&a).unwrap();
        upd.append_border(
            &CMatrix::zeros(10, 0),
            &full.submatrix(10, 0, 4, 10).unwrap(),
            &CMatrix::zeros(4, 0),
        )
        .unwrap();
        let fresh = Svd::singular_values_of(&full).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-12);

        // And columns on the adjoint shape.
        let wide = pseudo_random_complex(10, 14, 0x1234);
        let a = wide.submatrix(0, 0, 10, 10).unwrap();
        let mut upd = SvdUpdater::new(&a).unwrap();
        upd.append_border(
            &wide.submatrix(0, 10, 10, 4).unwrap(),
            &CMatrix::zeros(0, 10),
            &CMatrix::zeros(0, 4),
        )
        .unwrap();
        let fresh = Svd::singular_values_of(&wide).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-12);
    }

    #[test]
    fn low_rank_stream_keeps_a_small_working_set() {
        // Rank-3 outer product grown one border at a time: the retained
        // rank must stay near 3 no matter how large the matrix gets.
        let left = pseudo_random_complex(40, 3, 7);
        let right = pseudo_random_complex(3, 40, 8);
        let full = left.matmul(&right).unwrap();
        let mut upd = SvdUpdater::new(&full.submatrix(0, 0, 10, 10).unwrap()).unwrap();
        for k in 10..40 {
            upd.append_border(
                &full.submatrix(0, k, k, 1).unwrap(),
                &full.submatrix(k, 0, 1, k).unwrap(),
                &full.submatrix(k, k, 1, 1).unwrap(),
            )
            .unwrap();
        }
        assert_eq!(upd.dims(), (40, 40));
        assert!(
            upd.retained_rank() <= 6,
            "retained rank {} for a rank-3 stream",
            upd.retained_rank()
        );
        let s = upd.singular_values();
        assert_eq!(s.iter().filter(|&&x| x > 1e-8 * s[0]).count(), 3);
        let fresh = Svd::singular_values_of(&full).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-11);
    }

    #[test]
    fn real_scalar_updates_stay_real_and_accurate() {
        let full = RMatrix::from_fn(18, 18, |i, j| ((i * 13 + j * 5) % 17) as f64 / 17.0 - 0.4);
        let mut upd = SvdUpdater::new(&full.submatrix(0, 0, 12, 12).unwrap()).unwrap();
        for k in (12..18).step_by(2) {
            upd.append_border(
                &full.submatrix(0, k, k, 2).unwrap(),
                &full.submatrix(k, 0, 2, k).unwrap(),
                &full.submatrix(k, k, 2, 2).unwrap(),
            )
            .unwrap();
        }
        let fresh = Svd::singular_values_of(&full).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-11);
    }

    #[test]
    fn empty_append_is_a_no_op_and_shapes_are_validated() {
        let a = pseudo_random_complex(8, 8, 3);
        let mut upd = SvdUpdater::new(&a).unwrap();
        let before = upd.singular_values().to_vec();
        upd.append_border(
            &CMatrix::zeros(8, 0),
            &CMatrix::zeros(0, 8),
            &CMatrix::zeros(0, 0),
        )
        .unwrap();
        assert_eq!(upd.singular_values(), &before[..]);

        // Wrong row count on the appended columns.
        assert!(upd
            .append_border(
                &pseudo_random_complex(7, 2, 4),
                &CMatrix::zeros(0, 8),
                &CMatrix::zeros(0, 2),
            )
            .is_err());
        // Wrong corner shape.
        assert!(upd
            .append_border(
                &pseudo_random_complex(8, 2, 5),
                &pseudo_random_complex(2, 8, 6),
                &CMatrix::zeros(1, 1),
            )
            .is_err());
        // Failed appends leave the state untouched.
        assert_eq!(upd.singular_values(), &before[..]);
        assert_eq!(upd.dims(), (8, 8));
    }

    /// The blocked backend's thin factors of `a`, in `a`'s scalar type.
    fn blocked_factors<T: Scalar>(a: &Matrix<T>) -> (Matrix<T>, Vec<f64>, Matrix<T>) {
        Svd::factors_native(a, SvdMethod::Blocked, SvdFactors::Both).unwrap()
    }

    #[test]
    fn rejects_invalid_floor_and_nonfinite_borders() {
        let a = pseudo_random_complex(6, 6, 9);
        for floor in [1.5, -0.1, f64::NAN] {
            let (u, s, v) = blocked_factors(&a);
            assert!(matches!(
                SvdUpdater::from_factors(u, s, v, floor),
                Err(NumericError::InvalidArgument { .. })
            ));
        }
        let mut upd = SvdUpdater::new(&a).unwrap();
        let mut bad = pseudo_random_complex(6, 1, 10);
        bad[(0, 0)] = c64(f64::NAN, 0.0);
        let (no_rows, no_corner) = (CMatrix::zeros(0, 6), CMatrix::zeros(0, 1));
        assert!(upd.append_border(&bad, &no_rows, &no_corner).is_err());
    }

    #[test]
    fn downdate_matches_fresh_svd_of_the_surviving_window() {
        // Rank-6 stream (the pencil regime: retained rank ≪ window), so
        // the restriction fits inside the surviving window.
        let left = pseudo_random_complex(20, 6, 0xd0d0);
        let right = pseudo_random_complex(6, 20, 0x0d0d);
        let full = left.matmul(&right).unwrap();
        let mut upd = SvdUpdater::new(&full).unwrap();
        upd.downdate_leading(4, 4).unwrap();
        let window = full.submatrix(4, 4, 16, 16).unwrap();
        let fresh = Svd::singular_values_of(&window).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-11);
        assert_eq!(upd.dims(), (16, 16));

        // And the restored factors actually reconstruct the window.
        let resid = upd
            .residual_on_columns(&window.submatrix(0, 0, 16, 3).unwrap(), &[0, 1, 2])
            .unwrap();
        assert!(resid <= 1e-10 * fresh[0], "probe residual {resid:e}");
    }

    #[test]
    fn asymmetric_downdate_matches_fresh_svd() {
        let left = pseudo_random_complex(18, 5, 0xbead);
        let right = pseudo_random_complex(5, 14, 0xdaeb);
        let full = left.matmul(&right).unwrap();
        let mut upd = SvdUpdater::new(&full).unwrap();
        upd.downdate_leading(6, 2).unwrap();
        let window = full.submatrix(6, 2, 12, 12).unwrap();
        let fresh = Svd::singular_values_of(&window).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-11);
    }

    #[test]
    fn update_downdate_round_trip_tracks_a_sliding_window() {
        // Slide a 12×12 window along a rank-4 24×24 stream one border
        // at a time: append the new strip, downdate the expired one.
        let left = pseudo_random_complex(24, 4, 0x51de);
        let right = pseudo_random_complex(4, 24, 0xed15);
        let full = left.matmul(&right).unwrap();
        let mut upd = SvdUpdater::new(&full.submatrix(0, 0, 12, 12).unwrap()).unwrap();
        for k in 12..24 {
            let lead = k - 12;
            upd.append_border(
                &full.submatrix(lead, k, 12, 1).unwrap(),
                &full.submatrix(k, lead, 1, 12).unwrap(),
                &full.submatrix(k, k, 1, 1).unwrap(),
            )
            .unwrap();
            upd.downdate_leading(1, 1).unwrap();
        }
        let window = full.submatrix(12, 12, 12, 12).unwrap();
        let fresh = Svd::singular_values_of(&window).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-9);
        assert_eq!(upd.dims(), (12, 12));
    }

    #[test]
    fn real_scalar_downdate_stays_real_and_accurate() {
        let left = RMatrix::from_fn(16, 4, |i, j| ((i * 7 + j * 11) % 19) as f64 / 19.0 - 0.3);
        let right = RMatrix::from_fn(4, 16, |i, j| ((i * 5 + j * 13) % 23) as f64 / 23.0 - 0.4);
        let full = left.matmul(&right).unwrap();
        let mut upd = SvdUpdater::new(&full).unwrap();
        upd.downdate_leading(3, 3).unwrap();
        let window = full.submatrix(3, 3, 13, 13).unwrap();
        let fresh = Svd::singular_values_of(&window).unwrap();
        assert_sv_close(upd.singular_values(), &fresh, 1e-11);
    }

    #[test]
    fn downdate_is_transactional_on_invalid_requests() {
        let a = pseudo_random_complex(10, 10, 0x7007);
        let mut upd = SvdUpdater::new(&a).unwrap();
        let before = upd.singular_values().to_vec();
        // Emptying the window is refused.
        assert!(upd.downdate_leading(10, 0).is_err());
        // Shrinking below the retained rank is refused (full-rank
        // stream: q = 10 > 10 − 4).
        assert!(upd.downdate_leading(4, 4).is_err());
        assert_eq!(upd.singular_values(), &before[..]);
        assert_eq!(upd.dims(), (10, 10));
        // A no-op downdate is fine.
        upd.downdate_leading(0, 0).unwrap();
        assert_eq!(upd.singular_values(), &before[..]);
    }

    #[test]
    fn ill_conditioned_eviction_is_refused_not_garbage() {
        // Rank-2 stream whose dominant direction lives *entirely* in the
        // leading rows/columns: evicting them leaves R_u singular.
        let mut a = CMatrix::zeros(12, 12);
        // Direction 1: supported only on rows/cols 0..2.
        for i in 0..2 {
            for j in 0..2 {
                a[(i, j)] = c64(5.0, 0.0);
            }
        }
        // Direction 2: supported on the tail.
        for i in 4..12 {
            for j in 4..12 {
                a[(i, j)] = c64(0.5, 0.1);
            }
        }
        let mut upd = SvdUpdater::new(&a).unwrap();
        let before = upd.singular_values().to_vec();
        let err = upd.downdate_leading(2, 2).unwrap_err();
        assert!(matches!(err, NumericError::Singular { .. }), "{err:?}");
        assert_eq!(upd.singular_values(), &before[..]);
        assert_eq!(upd.dims(), (12, 12));
    }

    #[test]
    fn probe_validates_reference_shape_and_indices() {
        let a = pseudo_random_complex(8, 8, 0xfade);
        let upd = SvdUpdater::new(&a).unwrap();
        let cols = a.submatrix(0, 0, 8, 2).unwrap();
        assert!(upd.residual_on_columns(&cols, &[0]).is_err());
        assert!(upd.residual_on_columns(&cols, &[0, 8]).is_err());
        let resid = upd.residual_on_columns(&cols, &[0, 1]).unwrap();
        assert!(resid <= 1e-12 * upd.singular_values()[0]);
    }

    #[test]
    fn golub_kahan_seed_matches_the_blocked_seed() {
        // Every rung of the recovery ladder seeds an updater through
        // `from_factors`, Jacobi included (real input: demoted factors).
        let a = pseudo_random_complex(10, 10, 0x6b6b);
        let blocked = SvdUpdater::new(&a).unwrap();
        for rung in [SvdMethod::GolubKahan, SvdMethod::Jacobi] {
            let rec = Svd::compute_recovering(&a, rung, SvdFactors::Both).unwrap();
            let seeded = SvdUpdater::from_factors(rec.u, rec.s, rec.v, DEFAULT_UPDATE_FLOOR);
            let seeded = seeded.unwrap();
            assert_sv_close(seeded.singular_values(), blocked.singular_values(), 1e-12);
            let resid = seeded
                .residual_on_columns(&a.submatrix(0, 0, 10, 2).unwrap(), &[0, 1])
                .unwrap();
            assert!(resid <= 1e-12 * blocked.singular_values()[0], "{rung:?}");
        }
        let real = a.real_part();
        let rec = Svd::compute_recovering(&real, SvdMethod::Jacobi, SvdFactors::Both).unwrap();
        let seeded = SvdUpdater::from_factors(rec.u, rec.s, rec.v, DEFAULT_UPDATE_FLOOR).unwrap();
        let fresh = SvdUpdater::new(&real).unwrap();
        assert_sv_close(seeded.singular_values(), fresh.singular_values(), 1e-12);
    }

    #[test]
    fn blocked_factors_seed_exactly_what_new_builds() {
        // A rank-6 real 64 × 64 matrix (the panel path, with a truncated
        // tail) and a complex 20 × 14 one (wide of the delegated size):
        // seeding from the blocked factors is `new`, bit for bit.
        fn check<T: Scalar>(a: &Matrix<T>) {
            let new = SvdUpdater::new(a).unwrap();
            let (u, s, v) = blocked_factors(a);
            let seeded = SvdUpdater::from_factors(u, s, v, DEFAULT_UPDATE_FLOOR).unwrap();
            let bits = |m: &Matrix<T>| -> Vec<u64> {
                m.to_complex()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .collect()
            };
            assert_eq!(seeded.dims(), new.dims());
            assert_eq!(bits(seeded.left()), bits(new.left()));
            assert_eq!(bits(seeded.right()), bits(new.right()));
            let sv_bits = |u: &SvdUpdater<T>| -> Vec<u64> {
                u.singular_values().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(sv_bits(&seeded), sv_bits(&new));
            assert_eq!(seeded.error_bound().to_bits(), new.error_bound().to_bits());
        }
        let left = RMatrix::from_fn(64, 6, |i, j| ((i * 7 + j * 11) % 19) as f64 / 19.0 - 0.3);
        let right = RMatrix::from_fn(6, 64, |i, j| ((i * 5 + j * 13) % 23) as f64 / 23.0 - 0.4);
        let lowrank = left.matmul(&right).unwrap();
        assert!(SvdUpdater::new(&lowrank).unwrap().retained_rank() < 64);
        check(&lowrank);
        check(&pseudo_random_complex(14, 20, 0x5eed));
    }

    #[test]
    fn from_factors_validates_shapes_and_values() {
        let a = pseudo_random_complex(8, 6, 0xfac7);
        let (u, s, v) = blocked_factors(&a);
        // A truncated triplet is not a complete thin decomposition.
        let short = |m: &CMatrix| m.submatrix(0, 0, m.rows(), 5).unwrap();
        assert!(matches!(
            SvdUpdater::from_factors(short(&u), s[..5].to_vec(), short(&v), 0.0),
            Err(NumericError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            SvdUpdater::from_factors(u.clone(), s.clone(), u.clone(), 0.0),
            Err(NumericError::ShapeMismatch { .. })
        ));
        let mut bad = u.clone();
        bad[(3, 2)] = c64(f64::INFINITY, 0.0);
        assert!(matches!(
            SvdUpdater::from_factors(bad, s.clone(), v.clone(), 0.0),
            Err(NumericError::NotFinite { .. })
        ));
        let mut unsorted = s.clone();
        unsorted.swap(0, 1);
        assert!(matches!(
            SvdUpdater::from_factors(u.clone(), unsorted, v.clone(), 0.0),
            Err(NumericError::InvalidArgument { .. })
        ));
        let exact = SvdUpdater::from_factors(u, s, v, 0.0).unwrap();
        assert_eq!((exact.dims(), exact.retained_rank()), ((8, 6), 6));
    }

    #[test]
    fn error_bound_tracks_truncation() {
        // With floor 0 no singular value is ever truncated; the only
        // recorded discard is the roundoff-level border residual of the
        // already-complete 8×8 seed basis.
        let full = pseudo_random_complex(12, 12, 0xcafe);
        let seed = full.submatrix(0, 0, 8, 8).unwrap();
        let (u, s, v) = blocked_factors(&seed);
        let mut exact = SvdUpdater::from_factors(u, s, v, 0.0).unwrap();
        exact
            .append_border(
                &full.submatrix(0, 8, 8, 4).unwrap(),
                &full.submatrix(8, 0, 4, 8).unwrap(),
                &full.submatrix(8, 8, 4, 4).unwrap(),
            )
            .unwrap();
        let smax = exact.singular_values()[0];
        assert!(exact.error_bound() < 1e-13 * smax);
        assert_eq!(exact.retained_rank(), 12);

        // The default floor on a low-rank stream *does* truncate, and
        // says so.
        let left = pseudo_random_complex(12, 2, 1);
        let right = pseudo_random_complex(2, 12, 2);
        let lowrank = left.matmul(&right).unwrap();
        let mut upd = SvdUpdater::new(&lowrank.submatrix(0, 0, 8, 8).unwrap()).unwrap();
        upd.append_border(
            &lowrank.submatrix(0, 8, 8, 4).unwrap(),
            &lowrank.submatrix(8, 0, 4, 8).unwrap(),
            &lowrank.submatrix(8, 8, 4, 4).unwrap(),
        )
        .unwrap();
        assert!(upd.retained_rank() < 12);
        assert!(upd.error_bound() > 0.0);
        assert!(upd.error_bound() < 1e-11 * upd.singular_values()[0]);
    }
}
