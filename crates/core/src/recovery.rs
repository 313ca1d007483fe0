//! Breakdown recovery for the realization stage's decompositions
//! (DESIGN.md §8).
//!
//! Every SVD the pipeline takes of a pencil-sized matrix prefers the
//! lazy two-phase blocked path ([`Svd::bidiagonalize`]): order
//! detection reads values only, and the projections accumulate just the
//! leading columns. That path rides the implicit-shift bidiagonal QR
//! iteration — which can, on adversarial or fault-injected data, stall
//! without converging. [`LadderSvd`] wraps the call: on
//! [`NumericError::NoConvergence`] it resumes the one ladder walk
//! ([`Svd::compute_recovering`], ending at the structurally unrelated
//! one-sided Jacobi rung) instead of failing the fit, keeps its factors
//! in the input scalar type, and records which rungs broke down for the
//! caller's diagnostics. Sessions re-anchor through the same walk.

use mfti_numeric::{
    Matrix, NumericError, PartialSvd, Scalar, Svd, SvdFactors, SvdMethod, SvdRecovery,
};

/// A decomposition of one pipeline matrix: lazy (fast path) or
/// eagerly recovered through the degradation ladder (breakdown path).
#[derive(Debug, Clone)]
pub(crate) enum LadderSvd<T: Scalar> {
    /// The blocked two-phase bidiagonalization succeeded; factor
    /// columns accumulate on demand.
    Lazy(Box<PartialSvd<T>>),
    /// The blocked QR sweep stalled; the ladder walk produced an eager
    /// decomposition (with the breakdown trail) instead.
    Recovered(Box<SvdRecovery<T>>),
}

impl<T: Scalar> LadderSvd<T> {
    /// Decomposes `a`, degrading `Blocked → GolubKahan → Jacobi` on
    /// [`NumericError::NoConvergence`]. `factors` names exactly the
    /// sides the caller will read: a *recovered* (eager) decomposition
    /// materializes only those, and the lazy path keeps only the state
    /// they need and refuses any other side.
    ///
    /// # Errors
    ///
    /// Non-convergence of the whole ladder, or any defect
    /// ([`NumericError::NotFinite`], shape errors) immediately — those
    /// are not recoverable by a backend change.
    pub(crate) fn compute(a: &Matrix<T>, factors: SvdFactors) -> Result<Self, NumericError> {
        if a.rows() < a.cols() {
            return Self::compute_from_adjoint(|| Ok(a.adjoint()), factors);
        }
        Self::compute_owned(|| Ok(a.clone()), factors)
    }

    /// [`LadderSvd::compute`] of the matrix `build` returns, which the
    /// lazy path consumes as its working copy instead of copying it;
    /// `build` runs again only if the ladder must recover.
    pub(crate) fn compute_owned(
        build: impl Fn() -> Result<Matrix<T>, NumericError>,
        factors: SvdFactors,
    ) -> Result<Self, NumericError> {
        Self::or_recover(Svd::bidiagonalize_owned(build()?, factors), build, factors)
    }

    /// [`LadderSvd::compute`] of the wide matrix whose (tall) adjoint
    /// `adjoint` returns: the lazy path works in that adjoint directly,
    /// with the bits the wide matrix itself would give; `adjoint` runs
    /// again only if the ladder must recover.
    pub(crate) fn compute_from_adjoint(
        adjoint: impl Fn() -> Result<Matrix<T>, NumericError>,
        factors: SvdFactors,
    ) -> Result<Self, NumericError> {
        let lazy =
            Svd::bidiagonalize_owned(adjoint()?, factors.swapped()).map(PartialSvd::into_adjoint);
        Self::or_recover(lazy, || Ok(adjoint()?.adjoint()), factors)
    }

    /// The lazy result, or on [`NumericError::NoConvergence`] the eager
    /// ladder walk over the matrix `matrix` returns.
    fn or_recover(
        lazy: Result<PartialSvd<T>, NumericError>,
        matrix: impl FnOnce() -> Result<Matrix<T>, NumericError>,
        factors: SvdFactors,
    ) -> Result<Self, NumericError> {
        match lazy {
            Ok(partial) => Ok(LadderSvd::Lazy(Box::new(partial))),
            Err(e @ NumericError::NoConvergence { .. }) => {
                // The lazy path *was* the Blocked rung; resume the
                // ladder at Golub–Kahan and keep the original breakdown
                // at the head of the trail.
                let mut rec = Svd::compute_recovering(&matrix()?, SvdMethod::GolubKahan, factors)?;
                rec.fallbacks.insert(0, (SvdMethod::Blocked, e));
                Ok(LadderSvd::Recovered(Box::new(rec)))
            }
            Err(e) => Err(e),
        }
    }

    /// Singular values in descending order.
    pub(crate) fn singular_values(&self) -> &[f64] {
        match self {
            LadderSvd::Lazy(p) => p.singular_values(),
            LadderSvd::Recovered(r) => &r.s,
        }
    }

    /// The ladder rungs that broke down before this decomposition
    /// succeeded (empty on the fast path).
    pub(crate) fn fallback_methods(&self) -> Vec<SvdMethod> {
        match self {
            LadderSvd::Lazy(_) => Vec::new(),
            LadderSvd::Recovered(r) => r.fallbacks.iter().map(|(m, _)| *m).collect(),
        }
    }

    /// Leading `r` columns of both factors, in the input scalar type.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] for `r = 0` or `r` beyond the
    /// decomposition.
    pub(crate) fn accumulate_both(&self, r: usize) -> Result<(Matrix<T>, Matrix<T>), NumericError> {
        match self {
            LadderSvd::Lazy(p) => p.accumulate(SvdFactors::Both, r),
            LadderSvd::Recovered(rec) => Ok((leading(&rec.u, r)?, leading(&rec.v, r)?)),
        }
    }

    /// Leading `r` columns of the left factor.
    ///
    /// # Errors
    ///
    /// See [`LadderSvd::accumulate_both`].
    pub(crate) fn accumulate_u(&self, r: usize) -> Result<Matrix<T>, NumericError> {
        match self {
            LadderSvd::Lazy(p) => p.accumulate_u(r),
            LadderSvd::Recovered(rec) => leading(&rec.u, r),
        }
    }

    /// Leading `r` columns of the right factor.
    ///
    /// # Errors
    ///
    /// See [`LadderSvd::accumulate_both`].
    pub(crate) fn accumulate_v(&self, r: usize) -> Result<Matrix<T>, NumericError> {
        match self {
            LadderSvd::Lazy(p) => p.accumulate_v(r),
            LadderSvd::Recovered(rec) => leading(&rec.v, r),
        }
    }
}

/// The leading `r` columns of a recovered factor, refused as a typed
/// error (never a panic) for `r = 0`, `r` beyond the decomposition, or
/// a factor the decomposition skipped.
fn leading<T: Scalar>(factor: &Matrix<T>, r: usize) -> Result<Matrix<T>, NumericError> {
    if r == 0 || r > factor.cols() {
        return Err(NumericError::InvalidArgument {
            what: "accumulation rank outside the decomposition",
        });
    }
    factor.submatrix(0, 0, factor.rows(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfti_numeric::{CMatrix, RMatrix};

    fn spd_matrix(n: usize) -> RMatrix {
        let mut a = RMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / ((i + j + 1) as f64) + if i == j { 1.0 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn fast_path_is_lazy_and_matches_eager_values() {
        let a = spd_matrix(6);
        let ladder = LadderSvd::compute(&a, SvdFactors::Both).unwrap();
        assert!(matches!(ladder, LadderSvd::Lazy(_)));
        assert!(ladder.fallback_methods().is_empty());
        let eager = Svd::compute(&a).unwrap();
        for (l, e) in ladder.singular_values().iter().zip(eager.singular_values()) {
            assert!((l - e).abs() <= 1e-12 * eager.singular_values()[0]);
        }
        let (u, v) = ladder.accumulate_both(3).unwrap();
        assert_eq!(u.dims(), (6, 3));
        assert_eq!(v.dims(), (6, 3));
    }

    #[test]
    fn rank_guard_is_typed_not_panicking() {
        let a = spd_matrix(4);
        let ladder = LadderSvd::compute(&a, SvdFactors::Both).unwrap();
        assert!(ladder.accumulate_u(0).is_err());
        assert!(ladder.accumulate_v(5).is_err());
    }

    #[test]
    fn defects_propagate_without_ladder_retries() {
        let mut a = CMatrix::identity(3);
        a[(1, 1)] = mfti_numeric::c64(f64::NAN, 0.0);
        assert!(matches!(
            LadderSvd::compute(&a, SvdFactors::Both),
            Err(NumericError::NotFinite { .. })
        ));
    }
}
