//! Eigenvalues of matrices and of pencils.
//!
//! Poles of fitted macromodels (the finite eigenvalues of the pencil
//! `(A, E)`) and the pole-relocation step of vector fitting
//! (`eig(A − b c̃ᵀ)`) both need eigenvalues of general matrices. This
//! module holds no iteration of its own: it reduces to Hessenberg form
//! without accumulating `Q` ([`crate::Hessenberg`]'s values-only form)
//! and runs the values-only mode of the QR iterations in
//! [`crate::Schur`]'s module — the real Francis double-shift iteration
//! for `f64` input, the complex Wilkinson-shifted one for complex
//! input. Real pencils probed at a real shift stay real end to end
//! (DESIGN.md §10).

use crate::complex::{c64, Complex};
use crate::error::NumericError;
use crate::lu::Lu;
use crate::matrix::{Matrix, RMatrix};
use crate::scalar::Scalar;
use crate::schur::{complex_eigenvalues, real_eigenvalues};

/// Computes all eigenvalues of a square matrix (real or complex input).
///
/// Real input never leaves `f64` (Francis double-shift iteration);
/// its conjugate pairs come out exactly conjugate. Eigenvalues are
/// returned in no particular order; callers that need determinism
/// should sort (see the state-space crate's pole helpers).
///
/// # Errors
///
/// Returns [`NumericError::NotSquare`] for rectangular input,
/// [`NumericError::NotFinite`] for NaN/∞ entries and
/// [`NumericError::NoConvergence`] when the QR iteration exceeds its
/// budget (pathological; not observed on the workloads in this repo).
///
/// ```
/// use mfti_numeric::{eigenvalues, RMatrix};
///
/// # fn main() -> Result<(), mfti_numeric::NumericError> {
/// let a = RMatrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]])?;
/// let mut ev = eigenvalues(&a)?;
/// ev.sort_by(|x, y| x.im.partial_cmp(&y.im).unwrap());
/// assert!((ev[0].im + 1.0).abs() < 1e-12 && (ev[1].im - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues<T: Scalar>(a: &Matrix<T>) -> Result<Vec<Complex>, NumericError> {
    if !a.is_square() {
        return Err(NumericError::NotSquare {
            op: "eigenvalues",
            dims: a.dims(),
        });
    }
    if !a.is_finite() {
        return Err(NumericError::NotFinite { op: "eigenvalues" });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![a[(0, 0)].to_complex()]);
    }
    match T::real_slice(a.as_slice()) {
        Some(re) => real_eigenvalues(RMatrix::from_vec(n, n, re.to_vec())?),
        None => complex_eigenvalues(a.to_complex()),
    }
}

/// Eigenvalues of the pencil `(A, E)`, i.e. values λ with
/// `det(A − λE) = 0`, for possibly **singular** `E`.
///
/// Returns the finite eigenvalues together with the count of infinite
/// ones (rank deficiency of `E`). Implemented by the shift-and-invert
/// trick: pick a shift `s₀` making `A − s₀E` invertible, compute
/// `μ ∈ eig((A − s₀E)⁻¹ E)` and map back `λ = s₀ + 1/μ` (μ ≈ 0 ⇒ λ = ∞).
/// The first probe, `s₀ = 0`, is real: a real pencil then runs the LU,
/// the solve and the eigenvalue iteration in `f64`. Only the complex
/// probes behind it promote a real pencil to complex.
///
/// # Errors
///
/// Propagates shape/finiteness errors and returns
/// [`NumericError::Singular`] when no shift in the probe set renders
/// `A − s₀E` invertible (the pencil is singular).
pub fn generalized_eigenvalues<T: Scalar>(
    a: &Matrix<T>,
    e: &Matrix<T>,
) -> Result<(Vec<Complex>, usize), NumericError> {
    if a.dims() != e.dims() {
        return Err(NumericError::ShapeMismatch {
            op: "generalized eigenvalues",
            left: a.dims(),
            right: e.dims(),
        });
    }
    if !a.is_square() {
        return Err(NumericError::NotSquare {
            op: "generalized eigenvalues",
            dims: a.dims(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    let scale = a.norm_fro().max(e.norm_fro()).max(1.0);
    // Probe a few shifts of increasing eccentricity; a random direction in
    // the complex plane almost surely avoids the spectrum.
    let probes = [
        c64(0.0, 0.0),
        c64(0.618_033_988_749, 1.0),
        c64(-1.324_717_957, 0.756_423_2),
        c64(2.5029, -1.8312),
    ];
    for &p in &probes {
        let s0 = p.scale(scale);
        // A real shift keeps the pencil's own scalar type; a complex one
        // promotes it (for this probe only).
        let mu = if s0.im == 0.0 {
            shift_inverted_eigenvalues(a, e, T::from_f64(s0.re))?
        } else {
            shift_inverted_eigenvalues(&a.to_complex(), &e.to_complex(), s0)?
        };
        let Some(mu) = mu else {
            continue;
        };
        let mut finite = Vec::with_capacity(n);
        let mut infinite = 0usize;
        for m in mu {
            // μ≈0 corresponds to an infinite eigenvalue of the pencil.
            if m.abs() < 1e-12 {
                infinite += 1;
            } else {
                finite.push(s0 + m.recip());
            }
        }
        return Ok((finite, infinite));
    }
    Err(NumericError::Singular {
        op: "generalized eigenvalues (singular pencil)",
    })
}

/// `eig((A − s₀E)⁻¹E)` in the scalar type of the operands, or `None`
/// when `A − s₀E` fails the conditioning gate (the caller tries the
/// next probe).
fn shift_inverted_eigenvalues<T: Scalar>(
    a: &Matrix<T>,
    e: &Matrix<T>,
    s0: T,
) -> Result<Option<Vec<Complex>>, NumericError> {
    let shifted = a - &e.map(|x| x * s0);
    let Ok(lu) = Lu::compute(&shifted) else {
        return Ok(None);
    };
    if lu.is_singular() || lu.rcond_estimate() < 1e-14 {
        return Ok(None);
    }
    eigenvalues(&lu.solve(e)?).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{CMatrix, RMatrix};

    fn sort_by_re_im(ev: &mut [Complex]) {
        ev.sort_by(|a, b| {
            (a.re, a.im)
                .partial_cmp(&(b.re, b.im))
                .expect("finite eigenvalues")
        });
    }

    #[test]
    fn eigenvalues_of_triangular_matrix_are_its_diagonal() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 2.0), c64(5.0, 0.0), c64(1.0, -1.0)],
            vec![Complex::ZERO, c64(-3.0, 0.5), c64(2.0, 2.0)],
            vec![Complex::ZERO, Complex::ZERO, c64(0.0, -1.0)],
        ])
        .unwrap();
        let mut ev = eigenvalues(&a).unwrap();
        sort_by_re_im(&mut ev);
        let mut want = vec![c64(1.0, 2.0), c64(-3.0, 0.5), c64(0.0, -1.0)];
        sort_by_re_im(&mut want);
        for (g, w) in ev.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-10, "got {g}, want {w}");
        }
    }

    #[test]
    fn eigenvalues_of_companion_matrix_match_polynomial_roots() {
        // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let a = RMatrix::from_rows(&[
            vec![6.0, -11.0, 6.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        let mut ev = eigenvalues(&a).unwrap();
        sort_by_re_im(&mut ev);
        for (g, w) in ev.iter().zip([1.0, 2.0, 3.0]) {
            assert!((g.re - w).abs() < 1e-9 && g.im.abs() < 1e-9, "got {g}");
        }
    }

    #[test]
    fn trace_and_determinant_consistency() {
        let mut seed = 123u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a = CMatrix::from_fn(9, 9, |_, _| c64(next(), next()));
        let ev = eigenvalues(&a).unwrap();
        let sum: Complex = ev.iter().copied().sum();
        let tr = a.trace();
        assert!((sum - tr).abs() < 1e-9, "trace mismatch: {sum} vs {tr}");
        let prod: Complex = ev.iter().copied().product();
        let det = Lu::compute(&a).unwrap().det();
        assert!(
            (prod - det).abs() < 1e-8 * det.abs().max(1.0),
            "det mismatch: {prod} vs {det}"
        );
    }

    #[test]
    fn generalized_eigenvalues_of_invertible_pencil() {
        // A = diag(2, 6), E = diag(1, 2) → λ = {2, 3}.
        let a = RMatrix::from_diag(&[2.0, 6.0]);
        let e = RMatrix::from_diag(&[1.0, 2.0]);
        let (mut finite, infinite) = generalized_eigenvalues(&a, &e).unwrap();
        assert_eq!(infinite, 0);
        sort_by_re_im(&mut finite);
        assert!((finite[0].re - 2.0).abs() < 1e-9);
        assert!((finite[1].re - 3.0).abs() < 1e-9);
    }

    #[test]
    fn generalized_eigenvalues_with_singular_e() {
        // E = diag(1, 0): one finite eigenvalue (A11/E11 = 5), one infinite.
        let a = RMatrix::from_diag(&[5.0, 1.0]);
        let e = RMatrix::from_diag(&[1.0, 0.0]);
        let (finite, infinite) = generalized_eigenvalues(&a, &e).unwrap();
        assert_eq!(infinite, 1);
        assert_eq!(finite.len(), 1);
        assert!((finite[0].re - 5.0).abs() < 1e-8 && finite[0].im.abs() < 1e-8);
    }

    #[test]
    fn empty_and_scalar_matrices() {
        assert!(eigenvalues(&RMatrix::zeros(0, 0)).unwrap().is_empty());
        let one = CMatrix::from_rows(&[vec![c64(4.0, -2.0)]]).unwrap();
        assert_eq!(eigenvalues(&one).unwrap(), vec![c64(4.0, -2.0)]);
    }

    #[test]
    fn rejects_rectangular() {
        assert!(eigenvalues(&RMatrix::zeros(2, 3)).is_err());
        assert!(generalized_eigenvalues(&RMatrix::zeros(2, 2), &RMatrix::zeros(3, 3)).is_err());
    }
}
