//! Singular value decomposition of dense complex (and real) matrices.
//!
//! Three independent backends are provided:
//!
//! * [`SvdMethod::Blocked`] — panel-blocked Householder bidiagonalization
//!   with GEMM trailing updates and WY-blocked factor accumulation (the
//!   LAPACK `zgebrd`/`zungbr` structure), followed by the shared
//!   implicit-shift bidiagonal QR iteration. This is the default and the
//!   fastest at the pencil sizes the fitting pipeline produces.
//! * [`SvdMethod::GolubKahan`] — the same mathematics applied one
//!   reflector at a time (the LINPACK/JAMA structure). Kept as the
//!   rank-1 reference oracle the blocked path is validated against.
//! * [`SvdMethod::Jacobi`] — one-sided complex Jacobi. Slower but
//!   structurally unrelated, which makes it a strong cross-check in tests
//!   and an ablation point in the benchmark suite.
//!
//! For *streams* of row/column appends — the `FitSession` serving path,
//! where the shifted Loewner pencil grows with every arriving
//! measurement — recomputing any backend from scratch is `O(n³)` per
//! append. [`SvdUpdater`] instead retains the thin factorization and
//! absorbs each append as a bordered low-rank update, re-decomposing
//! only a small core matrix whose size tracks the *numerical rank* of
//! the stream (see the [`SvdUpdater`] docs).
//!
//! The SVD is the analytical heart of the MFTI paper: singular values of
//! the shifted Loewner pencil reveal the underlying system order (Fig. 1)
//! and the truncated factors build the reduced realization (Lemma 3.4).
//! Order detection needs *only* the singular values and the Lemma 3.4
//! projections need *one* factor each, so [`Svd::compute_factors`] lets
//! callers skip the factors they never read — the accumulation phase and
//! the per-factor rotation sweeps of the QR iteration vanish for skipped
//! factors while the singular values stay bit-identical.

mod bidiag_qr;
mod blocked;
mod golub_kahan;
mod jacobi;
mod partial;
mod update;

pub use partial::PartialSvd;
pub use update::{SvdUpdater, DEFAULT_UPDATE_FLOOR, DOWNDATE_COND_FLOOR};

use crate::error::NumericError;
use crate::matrix::{CMatrix, Matrix};
use crate::scalar::Scalar;

/// Backend used by [`Svd::compute_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SvdMethod {
    /// Panel-blocked bidiagonalization + implicit QR (default, fastest).
    #[default]
    Blocked,
    /// Unblocked Golub–Kahan bidiagonalization + implicit QR (rank-1
    /// reference oracle for the blocked path).
    GolubKahan,
    /// One-sided complex Jacobi (independent cross-check).
    Jacobi,
}

impl SvdMethod {
    /// The degradation ladder starting at `self`:
    /// `Blocked → GolubKahan → Jacobi` (DESIGN.md §8).
    ///
    /// The first two rungs share the implicit-shift bidiagonal QR
    /// iteration, so a genuine QR stall usually takes both down; the
    /// one-sided Jacobi rung shares no code with them and survives.
    /// [`Svd::compute_recovering`] walks this ladder on
    /// [`NumericError::NoConvergence`].
    #[must_use]
    pub fn ladder(self) -> &'static [SvdMethod] {
        match self {
            SvdMethod::Blocked => &[SvdMethod::Blocked, SvdMethod::GolubKahan, SvdMethod::Jacobi],
            SvdMethod::GolubKahan => &[SvdMethod::GolubKahan, SvdMethod::Jacobi],
            SvdMethod::Jacobi => &[SvdMethod::Jacobi],
        }
    }
}

/// Outcome of [`Svd::compute_recovering`]: the decomposition together
/// with the record of backends that broke down before one converged.
#[derive(Debug, Clone)]
pub struct SvdRecovery {
    /// The successful decomposition.
    pub svd: Svd,
    /// The backend that produced [`SvdRecovery::svd`].
    pub method: SvdMethod,
    /// Backends that failed with [`NumericError::NoConvergence`] before
    /// `method` succeeded, in attempt order; empty on a first-try
    /// success.
    pub fallbacks: Vec<(SvdMethod, NumericError)>,
}

impl SvdRecovery {
    /// Whether any ladder rung broke down before the decomposition
    /// succeeded (a "logged recovery" in the fault-harness taxonomy).
    #[must_use]
    pub fn recovered(&self) -> bool {
        !self.fallbacks.is_empty()
    }
}

/// Which singular-vector factors [`Svd::compute_factors`] materializes.
///
/// Skipped factors are returned as empty (`0×0`) matrices; the singular
/// values are **bit-identical** across all four variants (the QR
/// iteration's rotation stream does not depend on which factors absorb
/// it). Sign normalization lands in the right factor when present, so a
/// factor computed alone matches the same factor of a
/// [`SvdFactors::Both`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SvdFactors {
    /// Both `U` and `V` (the [`Svd::compute`] behavior).
    #[default]
    Both,
    /// Only the left factor `U` (e.g. the row-space projection of the
    /// Lemma 3.4 realization).
    Left,
    /// Only the right factor `V` (e.g. the column-space projection).
    Right,
    /// Singular values only (order detection, rank and norm queries).
    ValuesOnly,
}

impl SvdFactors {
    fn left(self) -> bool {
        matches!(self, SvdFactors::Both | SvdFactors::Left)
    }

    fn right(self) -> bool {
        matches!(self, SvdFactors::Both | SvdFactors::Right)
    }

    /// The factor request seen through the adjoint (`A = UΣV*` ⇔
    /// `A* = VΣU*`): left and right swap.
    #[must_use]
    pub fn swapped(self) -> Self {
        match self {
            SvdFactors::Left => SvdFactors::Right,
            SvdFactors::Right => SvdFactors::Left,
            other => other,
        }
    }
}

/// A (thin) singular value decomposition `A = U Σ V*`.
///
/// `U` is `m × r`, `V` is `n × r` with `r = min(m, n)`; singular values
/// are sorted in descending order.
///
/// ```
/// use mfti_numeric::{CMatrix, Svd, c64};
///
/// # fn main() -> Result<(), mfti_numeric::NumericError> {
/// let a = CMatrix::from_rows(&[
///     vec![c64(0.0, 2.0), c64(0.0, 0.0)],
///     vec![c64(0.0, 0.0), c64(1.0, 0.0)],
/// ])?;
/// let svd = Svd::compute(&a)?;
/// assert!((svd.singular_values()[0] - 2.0).abs() < 1e-12);
/// assert!((svd.singular_values()[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: CMatrix,
    s: Vec<f64>,
    v: CMatrix,
}

impl Svd {
    /// Computes the SVD with the default (blocked) backend.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] for empty input,
    /// [`NumericError::NotFinite`] for NaN/∞ entries and
    /// [`NumericError::NoConvergence`] if the QR sweep stalls (not observed
    /// in practice; the iteration budget is generous).
    pub fn compute<T: Scalar>(a: &Matrix<T>) -> Result<Self, NumericError> {
        Self::compute_with(a, SvdMethod::default())
    }

    /// Computes the SVD with an explicitly chosen backend.
    ///
    /// # Errors
    ///
    /// See [`Svd::compute`].
    pub fn compute_with<T: Scalar>(a: &Matrix<T>, method: SvdMethod) -> Result<Self, NumericError> {
        Self::compute_factors(a, method, SvdFactors::Both)
    }

    /// Computes the SVD, materializing only the requested factors.
    ///
    /// Skipped factors come back as empty (`0×0`) matrices from
    /// [`Svd::u`]/[`Svd::v`] and skip both their accumulation phase and
    /// their share of the QR rotation sweeps; the singular values are
    /// bit-identical to a [`SvdFactors::Both`] run. [`Svd::reconstruct`]
    /// and [`Svd::solve_min_norm`] require both factors.
    ///
    /// # Errors
    ///
    /// See [`Svd::compute`].
    pub fn compute_factors<T: Scalar>(
        a: &Matrix<T>,
        method: SvdMethod,
        factors: SvdFactors,
    ) -> Result<Self, NumericError> {
        validate_input(a)?;
        // All backends assume m >= n; handle wide matrices through the
        // adjoint: A = U Σ V*  ⇔  A* = V Σ U*. The transpose happens in
        // the input scalar type — real inputs stay real all the way into
        // the blocked backend.
        if a.rows() < a.cols() {
            let adj = a.adjoint();
            let svd = Self::dispatch(&adj, method, factors.swapped())?;
            return Ok(Svd {
                u: svd.v,
                s: svd.s,
                v: svd.u,
            });
        }
        Self::dispatch(a, method, factors)
    }

    /// Computes the SVD with breakdown recovery: walks the degradation
    /// ladder [`SvdMethod::ladder`] starting at `method`, retrying the
    /// next rung whenever the current one fails with
    /// [`NumericError::NoConvergence`]. Input defects
    /// ([`NumericError::InvalidArgument`], [`NumericError::NotFinite`])
    /// are not recoverable by a backend change and propagate
    /// immediately.
    ///
    /// This is the defensive entry point of the fitting pipeline
    /// (DESIGN.md §8): a stalled QR sweep degrades to the structurally
    /// unrelated Jacobi rung instead of failing the whole fit, and the
    /// caller gets the breakdown trail in
    /// [`SvdRecovery::fallbacks`] to log.
    ///
    /// # Errors
    ///
    /// The last rung's [`NumericError::NoConvergence`] when every rung
    /// stalls, or the first non-convergence-related error.
    pub fn compute_recovering<T: Scalar>(
        a: &Matrix<T>,
        method: SvdMethod,
        factors: SvdFactors,
    ) -> Result<SvdRecovery, NumericError> {
        let mut fallbacks: Vec<(SvdMethod, NumericError)> = Vec::new();
        for &rung in method.ladder() {
            match Self::compute_factors(a, rung, factors) {
                Ok(svd) => {
                    return Ok(SvdRecovery {
                        svd,
                        method: rung,
                        fallbacks,
                    })
                }
                Err(e @ NumericError::NoConvergence { .. }) => fallbacks.push((rung, e)),
                Err(e) => return Err(e),
            }
        }
        match fallbacks.pop() {
            Some((_, e)) => Err(e),
            // `ladder()` is never empty; reachable only if that changes.
            None => Err(NumericError::InvalidArgument {
                what: "empty svd recovery ladder",
            }),
        }
    }

    /// Singular values of `a` in descending order — the cheapest query:
    /// both factor accumulations and all rotation sweeps are skipped.
    ///
    /// # Errors
    ///
    /// See [`Svd::compute`].
    pub fn singular_values_of<T: Scalar>(a: &Matrix<T>) -> Result<Vec<f64>, NumericError> {
        Ok(Self::compute_factors(a, SvdMethod::default(), SvdFactors::ValuesOnly)?.s)
    }

    /// Splits the decomposition at the bidiagonal: the returned
    /// [`PartialSvd`] resolves the singular values immediately and
    /// defers factor accumulation until a consumer knows which leading
    /// rank it actually reads ([`PartialSvd::accumulate`]). This is the
    /// detect-then-project shape of the realization stage: order
    /// selection needs only the values, the projections only `r`
    /// columns of each factor.
    ///
    /// The factors come back in the input scalar type (real stays
    /// real). Runs the panel-blocked path at every size, so small
    /// problems are better served by [`Svd::compute_factors`].
    ///
    /// # Errors
    ///
    /// See [`Svd::compute`].
    pub fn bidiagonalize<T: Scalar>(a: &Matrix<T>) -> Result<PartialSvd<T>, NumericError> {
        PartialSvd::compute(a)
    }

    /// [`Svd::bidiagonalize`] of a matrix handed over by value: the
    /// panel sweep runs in `a`'s own storage (a wide `a` in its adjoint)
    /// instead of a copy, with the same bits. Pair it with
    /// [`PartialSvd::into_adjoint`] to decompose a wide matrix that is
    /// cheaper to build as its adjoint.
    ///
    /// `factors` declares the sides [`PartialSvd::accumulate`] may
    /// later be asked for; any other request is refused. A very tall
    /// input then keeps its QR-first reflectors only when the left side
    /// is declared, since only that side reads them.
    ///
    /// # Errors
    ///
    /// See [`Svd::compute`].
    pub fn bidiagonalize_owned<T: Scalar>(
        a: Matrix<T>,
        factors: SvdFactors,
    ) -> Result<PartialSvd<T>, NumericError> {
        PartialSvd::compute_owned(a, factors)
    }

    /// Thin SVD in the **input scalar type** (real factors for real
    /// input): `(U m×r, σ r, V n×r)` with `r = min(m, n)`, through the
    /// default blocked backend (which delegates small problems to the
    /// rank-1 reference path). This is the factorization engine of
    /// [`SvdUpdater`], which must keep realified pencils on the packed
    /// real GEMM path across updates; [`Svd`] promotes the same triplet
    /// to complex at its container boundary.
    pub(crate) fn factors_native<T: Scalar>(
        a: &Matrix<T>,
        want_u: bool,
        want_v: bool,
    ) -> Result<bidiag_qr::SvdTriplet<T>, NumericError> {
        Self::factors_native_with(a, SvdMethod::Blocked, want_u, want_v)
    }

    /// [`Svd::factors_native`] with an explicit backend — the
    /// degradation rungs of [`SvdUpdater`] re-anchoring need a native
    /// Golub–Kahan seed when the blocked path has already stalled.
    /// Only the scalar-generic backends are supported (the one-sided
    /// Jacobi rung is complex-only and lives behind [`Svd::compute_with`]).
    pub(crate) fn factors_native_with<T: Scalar>(
        a: &Matrix<T>,
        method: SvdMethod,
        want_u: bool,
        want_v: bool,
    ) -> Result<bidiag_qr::SvdTriplet<T>, NumericError> {
        validate_input(a)?;
        if a.rows() < a.cols() {
            // A = U Σ V*  ⇔  A* = V Σ U*: factor wants swap through the
            // adjoint, exactly as in `compute_factors`.
            let (v, s, u) = Self::backend_native(&a.adjoint(), method, want_v, want_u)?;
            return Ok((u, s, v));
        }
        Self::backend_native(a, method, want_u, want_v)
    }

    fn backend_native<T: Scalar>(
        a: &Matrix<T>,
        method: SvdMethod,
        want_u: bool,
        want_v: bool,
    ) -> Result<bidiag_qr::SvdTriplet<T>, NumericError> {
        match method {
            SvdMethod::Blocked => blocked::svd_blocked(a, want_u, want_v),
            SvdMethod::GolubKahan => golub_kahan::svd_golub_kahan(a, want_u, want_v),
            SvdMethod::Jacobi => Err(NumericError::InvalidArgument {
                what: "native factorization supports the blocked and Golub–Kahan backends",
            }),
        }
    }

    fn dispatch<T: Scalar>(
        a: &Matrix<T>,
        method: SvdMethod,
        factors: SvdFactors,
    ) -> Result<Self, NumericError> {
        let (want_u, want_v) = (factors.left(), factors.right());
        let (u, s, v) = match method {
            // The blocked and Golub–Kahan backends are scalar-generic:
            // real matrices run the real path (a quarter of the complex
            // flops) and only the returned factors are promoted, here at
            // the scalar-agnostic container boundary.
            SvdMethod::Blocked => {
                let (u, s, v) = blocked::svd_blocked(a, want_u, want_v)?;
                (u.to_complex(), s, v.to_complex())
            }
            SvdMethod::GolubKahan => {
                let (u, s, v) = golub_kahan::svd_golub_kahan(a, want_u, want_v)?;
                (u.to_complex(), s, v.to_complex())
            }
            SvdMethod::Jacobi => {
                // The one-sided Jacobi iteration produces both factors as
                // a by-product; honoring the request means dropping the
                // unwanted ones after the fact.
                let (u, s, v) = jacobi::svd_jacobi(&a.to_complex())?;
                (
                    if want_u { u } else { CMatrix::zeros(0, 0) },
                    s,
                    if want_v { v } else { CMatrix::zeros(0, 0) },
                )
            }
        };
        Ok(Svd { u, s, v })
    }

    /// Left singular vectors (`m × min(m,n)`); empty (`0×0`) when the
    /// decomposition was computed without them.
    pub fn u(&self) -> &CMatrix {
        &self.u
    }

    /// Singular values in descending order.
    pub fn singular_values(&self) -> &[f64] {
        &self.s
    }

    /// Right singular vectors (`n × min(m,n)`), *not* conjugated:
    /// `A = U diag(s) V*`; empty (`0×0`) when the decomposition was
    /// computed without them.
    pub fn v(&self) -> &CMatrix {
        &self.v
    }

    /// Numerical rank: number of singular values above
    /// `rel_tol · s_max` (with an absolute floor for the zero matrix).
    pub fn rank(&self, rel_tol: f64) -> usize {
        let smax = self.s.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.s.iter().take_while(|&&x| x > rel_tol * smax).count()
    }

    /// Rebuilds `U Σ V*` (used by tests and examples to bound the backward
    /// error).
    ///
    /// # Panics
    ///
    /// Panics when the decomposition was computed with a skipped factor
    /// ([`Svd::compute_factors`]) — there is nothing to rebuild from.
    pub fn reconstruct(&self) -> CMatrix {
        assert!(
            !self.u.is_empty() && !self.v.is_empty(),
            "reconstruct requires both factors; this decomposition \
             skipped one (SvdFactors)"
        );
        let r = self.s.len();
        let mut us = self.u.clone();
        for j in 0..r {
            for i in 0..us.rows() {
                us[(i, j)] = us[(i, j)].scale(self.s[j]);
            }
        }
        us.matmul(&self.v.adjoint()).expect("dims agree") // mfti-lint: allow(MFTI-D7) — U (m×r) and V* (r×n) conform by construction; reconstruct documents its panic contract
    }

    /// Truncates to the leading `r` singular triplets, returning
    /// `(U_r, s_r, V_r)`. A factor skipped at compute time stays an
    /// empty matrix.
    ///
    /// # Panics
    ///
    /// Panics when `r` exceeds the number of singular values.
    pub fn truncate(&self, r: usize) -> (CMatrix, Vec<f64>, CMatrix) {
        assert!(
            r <= self.s.len(),
            "truncation rank {r} exceeds {}",
            self.s.len()
        );
        let idx: Vec<usize> = (0..r).collect();
        let take = |m: &CMatrix| {
            if m.is_empty() {
                CMatrix::zeros(0, 0)
            } else {
                m.select_cols(&idx).expect("in range") // mfti-lint: allow(MFTI-D7) — r ≤ s.len() asserted above; truncate documents its panic contract
            }
        };
        (take(&self.u), self.s[..r].to_vec(), take(&self.v))
    }

    /// Minimum-norm least-squares solution of `A x = b` through the
    /// pseudo-inverse, truncating singular values below `rel_tol · s_max`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `b.rows()` differs from
    /// `u.rows()`.
    pub fn solve_min_norm(&self, b: &CMatrix, rel_tol: f64) -> Result<CMatrix, NumericError> {
        if b.rows() != self.u.rows() {
            return Err(NumericError::ShapeMismatch {
                op: "svd solve",
                left: self.u.dims(),
                right: b.dims(),
            });
        }
        let r = self.rank(rel_tol);
        let mut y = self.u.adjoint().matmul(b)?; // r_full × nrhs
        for i in 0..y.rows() {
            let scale = if i < r { 1.0 / self.s[i] } else { 0.0 };
            for j in 0..y.cols() {
                y[(i, j)] = y[(i, j)].scale(scale);
            }
        }
        self.v.matmul(&y)
    }

    /// Spectral condition number `s_max / s_min` (∞ when singular).
    pub fn cond(&self) -> f64 {
        match (self.s.first(), self.s.last()) {
            (Some(&max), Some(&min)) if min > 0.0 => max / min,
            (Some(_), _) => f64::INFINITY,
            _ => f64::NAN,
        }
    }
}

/// Shared input gate of every decomposition entry point: empty and
/// non-finite matrices are rejected before any backend runs.
fn validate_input<T: Scalar>(a: &Matrix<T>) -> Result<(), NumericError> {
    if a.is_empty() {
        return Err(NumericError::InvalidArgument {
            what: "svd of empty matrix",
        });
    }
    if !a.is_finite() {
        return Err(NumericError::NotFinite { op: "svd" });
    }
    Ok(())
}

/// Sorts singular triplets descending and flips signs so every σ ≥ 0.
///
/// Either factor may be an empty (`0×0`) placeholder when it was skipped
/// at compute time: the column loops then degenerate to no-ops and the
/// sign flip is absorbed by the phantom factor, which keeps a factor
/// computed alone bit-identical to the same factor of a full run.
pub(crate) fn normalize_triplets<T: Scalar>(u: &mut Matrix<T>, s: &mut [f64], v: &mut Matrix<T>) {
    let r = s.len();
    // Flip negative singular values into V.
    for j in 0..r {
        if s[j] < 0.0 {
            s[j] = -s[j];
            for i in 0..v.rows() {
                v[(i, j)] = -v[(i, j)];
            }
        }
    }
    // Selection-sort columns by descending σ (r is small relative to m·n).
    for a in 0..r {
        let mut best = a;
        for b in a + 1..r {
            if s[b] > s[best] {
                best = b;
            }
        }
        if best != a {
            s.swap(a, best);
            swap_cols(u, a, best);
            swap_cols(v, a, best);
        }
    }
}

fn swap_cols<T: Scalar>(m: &mut Matrix<T>, a: usize, b: usize) {
    for i in 0..m.rows() {
        let t: T = m[(i, a)];
        m[(i, a)] = m[(i, b)];
        m[(i, b)] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::RMatrix;

    fn pseudo_random_complex(m: usize, n: usize, mut seed: u64) -> CMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(m, n, |_, _| c64(next(), next()))
    }

    fn check_svd(a: &CMatrix, svd: &Svd, tol: f64) {
        let r = a.rows().min(a.cols());
        assert_eq!(svd.u().dims(), (a.rows(), r));
        assert_eq!(svd.v().dims(), (a.cols(), r));
        assert_eq!(svd.singular_values().len(), r);
        // Descending non-negative singular values.
        for w in svd.singular_values().windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "not sorted: {:?}",
                svd.singular_values()
            );
        }
        assert!(svd.singular_values().iter().all(|&x| x >= 0.0));
        // Reconstruction.
        let err = (&svd.reconstruct() - a).norm_fro();
        assert!(
            err <= tol * a.norm_fro().max(1.0),
            "reconstruction error {err}"
        );
        // Orthonormality.
        let uhu = svd.u().adjoint().matmul(svd.u()).unwrap();
        assert!(
            uhu.approx_eq(&CMatrix::identity(r), 1e-10),
            "U not orthonormal"
        );
        let vhv = svd.v().adjoint().matmul(svd.v()).unwrap();
        assert!(
            vhv.approx_eq(&CMatrix::identity(r), 1e-10),
            "V not orthonormal"
        );
    }

    #[test]
    fn both_backends_handle_random_square() {
        let a = pseudo_random_complex(12, 12, 42);
        for method in [SvdMethod::GolubKahan, SvdMethod::Jacobi] {
            let svd = Svd::compute_with(&a, method).unwrap();
            check_svd(&a, &svd, 1e-11);
        }
    }

    #[test]
    fn both_backends_handle_tall_and_wide() {
        for &(m, n) in &[(9, 4), (4, 9), (15, 3), (2, 7)] {
            let a = pseudo_random_complex(m, n, (m * 31 + n) as u64);
            for method in [SvdMethod::GolubKahan, SvdMethod::Jacobi] {
                let svd = Svd::compute_with(&a, method).unwrap();
                check_svd(&a, &svd, 1e-11);
            }
        }
    }

    #[test]
    fn backends_agree_on_singular_values() {
        let a = pseudo_random_complex(10, 7, 7);
        let gk = Svd::compute_with(&a, SvdMethod::GolubKahan).unwrap();
        let ja = Svd::compute_with(&a, SvdMethod::Jacobi).unwrap();
        for (x, y) in gk.singular_values().iter().zip(ja.singular_values()) {
            assert!((x - y).abs() < 1e-9 * gk.singular_values()[0]);
        }
    }

    #[test]
    fn rank_of_outer_product_is_one() {
        let u = pseudo_random_complex(8, 1, 3);
        let v = pseudo_random_complex(1, 6, 5);
        let a = u.matmul(&v).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        check_svd(&a, &svd, 1e-11);
    }

    #[test]
    fn diagonal_matrix_singular_values_are_absolute_entries() {
        let a = RMatrix::from_diag(&[-5.0, 3.0, 1.0, 0.0]);
        let svd = Svd::compute(&a).unwrap();
        let s = svd.singular_values();
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
        assert!(s[3].abs() < 1e-12);
        assert_eq!(svd.rank(1e-12), 3);
    }

    #[test]
    fn zero_matrix_has_zero_rank() {
        let a = CMatrix::zeros(4, 3);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-12), 0);
        assert!(svd.singular_values().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn min_norm_solve_matches_exact_solution_when_invertible() {
        let a = pseudo_random_complex(6, 6, 77);
        let x_true = pseudo_random_complex(6, 2, 78);
        let b = a.matmul(&x_true).unwrap();
        let svd = Svd::compute(&a).unwrap();
        let x = svd.solve_min_norm(&b, 1e-13).unwrap();
        assert!(x.approx_eq(&x_true, 1e-9));
    }

    #[test]
    fn min_norm_solve_of_underdetermined_system_is_consistent() {
        let a = pseudo_random_complex(3, 8, 11);
        let b = pseudo_random_complex(3, 1, 12);
        let svd = Svd::compute(&a).unwrap();
        let x = svd.solve_min_norm(&b, 1e-12).unwrap();
        let resid = &a.matmul(&x).unwrap() - &b;
        assert!(resid.norm_fro() < 1e-10 * b.norm_fro());
    }

    #[test]
    fn truncate_keeps_leading_triplets() {
        let a = pseudo_random_complex(6, 5, 1);
        let svd = Svd::compute(&a).unwrap();
        let (u2, s2, v2) = svd.truncate(2);
        assert_eq!(u2.dims(), (6, 2));
        assert_eq!(v2.dims(), (5, 2));
        assert_eq!(s2.len(), 2);
        assert_eq!(s2[0], svd.singular_values()[0]);
    }

    #[test]
    fn spectral_norm_agrees_with_largest_singular_value() {
        let a = pseudo_random_complex(9, 9, 1312);
        let svd = Svd::compute(&a).unwrap();
        assert!((a.norm_2() - svd.singular_values()[0]).abs() < 1e-8);
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(Svd::compute(&CMatrix::zeros(0, 0)).is_err());
        let mut bad = CMatrix::identity(2);
        bad[(0, 1)] = c64(f64::NAN, 0.0);
        assert!(Svd::compute(&bad).is_err());
    }

    #[test]
    fn recovering_svd_succeeds_first_try_on_healthy_input() {
        let a = pseudo_random_complex(9, 6, 99);
        let rec = Svd::compute_recovering(&a, SvdMethod::Blocked, SvdFactors::Both).unwrap();
        assert_eq!(rec.method, SvdMethod::Blocked);
        assert!(!rec.recovered());
        check_svd(&a, &rec.svd, 1e-11);
    }

    #[test]
    fn recovering_svd_propagates_input_defects_without_retrying() {
        let mut bad = CMatrix::identity(3);
        bad[(1, 2)] = c64(f64::INFINITY, 0.0);
        let err = Svd::compute_recovering(&bad, SvdMethod::Blocked, SvdFactors::Both).unwrap_err();
        assert!(matches!(err, NumericError::NotFinite { .. }));
    }

    #[test]
    fn ladder_orders_are_fixed() {
        assert_eq!(
            SvdMethod::Blocked.ladder(),
            &[SvdMethod::Blocked, SvdMethod::GolubKahan, SvdMethod::Jacobi]
        );
        assert_eq!(SvdMethod::Jacobi.ladder(), &[SvdMethod::Jacobi]);
    }

    #[test]
    fn cond_of_identity_is_one() {
        let svd = Svd::compute(&CMatrix::identity(4)).unwrap();
        assert!((svd.cond() - 1.0).abs() < 1e-12);
    }
}
