//! Dense complex linear algebra kernels for the MFTI macromodeling workspace.
//!
//! This crate implements, from scratch, every matrix computation the
//! Loewner-pencil algorithms of the MFTI paper (Wang et al., DAC 2010) and
//! the vector-fitting baseline rely on:
//!
//! * [`Complex`] — a `f64`-based complex scalar (constructed with [`c64`]),
//! * [`Matrix`] — a dense, row-major matrix generic over [`Scalar`]
//!   (instantiated as [`CMatrix`] and [`RMatrix`]),
//! * [`kernel`] — cache-blocked, transpose-packed GEMM and the fused
//!   product forms (`AᴴB`, `ABᵀ`, `C ← C + αAB`) every dense product in
//!   the workspace routes through,
//! * [`Lu`] — LU factorization with partial pivoting (solve / det / inverse),
//! * [`Hessenberg`] / [`solve_shifted_hessenberg`] — scalar-generic
//!   unitary reduction `A = Q H Q*` with accumulated `Q`, plus an
//!   `O(n²)` Givens solver for `(αI + βH)X = B` — the backbone of
//!   batched frequency sweeps,
//! * [`Schur`] / [`solve_shifted_triangular`] — the complex Schur form
//!   `A = Z T Z*` that collapses each sweep point to one triangular
//!   back-substitution; real input runs the real Francis double-shift
//!   iteration and is standardized to the complex form at `O(n²)` cost,
//! * [`parallel`] — a scoped-thread, deterministically-chunked parallel
//!   map that fans those per-point solves across cores,
//! * [`Qr`] — Householder QR (orthonormal bases, least squares),
//! * [`Svd`] — singular value decomposition of complex matrices via
//!   Golub–Kahan bidiagonalization with an implicit-shift QR sweep, plus an
//!   independent one-sided Jacobi backend used for cross-validation,
//! * [`SvdUpdater`] — rank-revealing *incremental* SVD: streaming
//!   row/column appends absorbed as bordered low-rank updates of the
//!   retained thin factorization instead of fresh decompositions,
//! * [`eigenvalues`] / [`generalized_eigenvalues`] — eigenvalues of
//!   matrices and pencils through the values-only modes of the same
//!   Hessenberg reduction and QR iterations, in real arithmetic for
//!   real input.
//!
//! No LAPACK/BLAS bindings are used; the implementations follow the
//! textbook algorithms (Golub & Van Loan) and are validated by unit and
//! property tests against their defining identities.
//!
//! # Example
//!
//! ```
//! use mfti_numeric::{c64, CMatrix, Svd};
//!
//! let a = CMatrix::from_fn(3, 2, |i, j| c64((i + j) as f64, i as f64 - j as f64));
//! let svd = Svd::compute(&a).expect("svd of a finite matrix");
//! let reconstructed = svd.reconstruct();
//! assert!((&a - &reconstructed).norm_fro() < 1e-12 * a.norm_fro());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod blocks;
mod complex;
mod error;
mod hessenberg;
mod householder;
mod lu;
mod matrix;
mod norms;
mod ops;
#[cfg(test)]
mod oracle;
mod qr;
mod scalar;
mod schur;
mod solve;

pub mod diag;
pub mod eig;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod kernel;
pub mod parallel;
pub mod svd;

/// Iteration-budget accessors the iterative kernels consult before
/// falling back to their intrinsic budgets; compiled to a constant
/// `None` (and fully optimized out) without the `fault-injection`
/// feature.
mod fault_budget {
    #[inline]
    pub(crate) fn qr_iteration_cap() -> Option<usize> {
        #[cfg(feature = "fault-injection")]
        {
            crate::faults::qr_iteration_cap()
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            None
        }
    }

    #[inline]
    pub(crate) fn jacobi_sweep_cap() -> Option<usize> {
        #[cfg(feature = "fault-injection")]
        {
            crate::faults::jacobi_sweep_cap()
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            None
        }
    }
}

pub use complex::{c64, Complex};
pub use eig::{eigenvalues, generalized_eigenvalues};
pub use error::NumericError;
pub use hessenberg::{solve_shifted_hessenberg, Hessenberg};
pub use lu::Lu;
pub use matrix::{CMatrix, Matrix, RMatrix};
pub use qr::Qr;
pub use scalar::Scalar;
pub use schur::{
    solve_shifted_triangular, triangular_right_eigenvectors, Schur, ShiftedTriangular, SHIFT_BLOCK,
};
pub use solve::{lstsq, solve};
pub use svd::{
    PartialSvd, Svd, SvdFactors, SvdMethod, SvdRecovery, SvdUpdater, DEFAULT_UPDATE_FLOOR,
    DOWNDATE_COND_FLOOR,
};

/// Relative machine tolerance used as the default cut-off in rank
/// decisions throughout the workspace.
///
/// ```
/// assert!(mfti_numeric::DEFAULT_RANK_TOL < 1e-10);
/// ```
pub const DEFAULT_RANK_TOL: f64 = 1e-11;
