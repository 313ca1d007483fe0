//! Upper-Hessenberg reduction, and a Givens-rotation solver for
//! shifted Hessenberg systems.
//!
//! [`Hessenberg`] is scalar-generic: real models reduce their
//! shift-inverted pencil `F⁻¹E` in `f64`, complex ones in [`Complex`].
//! Its reflectors scale by the pivot's reciprocal, which is what
//! complex division does, so a real matrix reduces to exactly the bits
//! of its complex promotion. The reduction is the first half of every
//! eigenvalue computation in the crate — [`crate::Schur`] continues
//! from it with the accumulated QR iteration, and [`crate::eigenvalues`]
//! with a values-only iteration, reducing without `Q`
//! ([`hessenberg_form`]).
//!
//! It is also the workhorse of fast frequency sweeps: a descriptor
//! model `H(s) = C (sE − A)⁻¹ B + D` costs one `O(n³)` LU factorization
//! *per frequency* when evaluated naively. Reducing a shift-inverted
//! pencil to Hessenberg form **once** turns every subsequent frequency
//! point into an `O(n²)` triangularization (the Laub/Benner "Hessenberg
//! method" for transfer-function evaluation), which is what
//! `Macromodel::eval_batch` in `mfti-statespace` builds on; the
//! per-point solver [`solve_shifted_hessenberg`] is complex, because
//! the frequency is.

use crate::complex::Complex;
use crate::error::NumericError;
use crate::householder::make_reflector_by_reciprocal;
use crate::matrix::{CMatrix, Matrix};
use crate::scalar::Scalar;

/// The factorization `A = Q H Q*` with `H` upper Hessenberg and `Q`
/// unitary (orthogonal for real `A`; Householder similarity transforms,
/// LAPACK `zgehrd`/`dgehrd`-style).
///
/// ```
/// use mfti_numeric::{c64, CMatrix, Hessenberg, RMatrix};
///
/// # fn main() -> Result<(), mfti_numeric::NumericError> {
/// let a = CMatrix::from_fn(5, 5, |i, j| c64((i * j) as f64, i as f64 - j as f64));
/// let hess = Hessenberg::compute(&a)?;
/// // Reconstruction: Q H Q* == A.
/// let back = hess.q().matmul(hess.h())?.mul_adjoint_right(hess.q())?;
/// assert!(back.approx_eq(&a, 1e-12));
/// // Real input stays real.
/// let r = RMatrix::from_fn(4, 4, |i, j| (i + 2 * j) as f64);
/// let real = Hessenberg::compute(&r)?;
/// assert!(real.q().matmul(real.h())?.mul_adjoint_right(real.q())?.approx_eq(&r, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Hessenberg<T: Scalar> {
    h: Matrix<T>,
    q: Matrix<T>,
}

impl<T: Scalar> Hessenberg<T> {
    /// Reduces `a` to upper Hessenberg form, accumulating the unitary
    /// similarity transform.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NotSquare`] for rectangular input and
    /// [`NumericError::NotFinite`] for inputs with NaN/∞ entries.
    pub fn compute(a: &Matrix<T>) -> Result<Self, NumericError> {
        if !a.is_square() {
            return Err(NumericError::NotSquare {
                op: "hessenberg",
                dims: a.dims(),
            });
        }
        if !a.is_finite() {
            return Err(NumericError::NotFinite { op: "hessenberg" });
        }
        let mut h = a.clone();
        let mut q = Matrix::identity(a.rows());
        reduce(&mut h, Some(&mut q));
        Ok(Hessenberg { h, q })
    }

    /// The upper-Hessenberg factor `H`.
    pub fn h(&self) -> &Matrix<T> {
        &self.h
    }

    /// The unitary factor `Q` (`A = Q H Q*`).
    pub fn q(&self) -> &Matrix<T> {
        &self.q
    }

    /// Consumes the factorization, returning `(H, Q)`.
    pub fn into_parts(self) -> (Matrix<T>, Matrix<T>) {
        (self.h, self.q)
    }
}

/// The Hessenberg factor alone (no `Q`), reduced in place: the
/// values-only front of [`crate::eigenvalues`], which has already
/// checked that `a` is square and finite. Bit-identical to
/// [`Hessenberg::h`] of the same input.
pub(crate) fn hessenberg_form<T: Scalar>(mut a: Matrix<T>) -> Matrix<T> {
    debug_assert!(a.is_square());
    reduce(&mut a, None);
    a
}

/// Householder reduction of `h` in place; with `q`, the transforms are
/// accumulated into it (`Q := Q P` per step, so `A = Q H Q*`).
fn reduce<T: Scalar>(h: &mut Matrix<T>, mut q: Option<&mut Matrix<T>>) {
    let n = h.rows();
    for k in 0..n.saturating_sub(2) {
        let col: Vec<T> = (k + 1..n).map(|i| h[(i, k)]).collect();
        let refl = make_reflector_by_reciprocal(&col);
        if refl.tau == T::ZERO {
            continue;
        }
        // β lands on the subdiagonal; everything below is annihilated.
        h[(k + 1, k)] = T::from_f64(refl.beta);
        for i in k + 2..n {
            h[(i, k)] = T::ZERO;
        }
        // Similarity transform H := P* H P …
        refl.apply_left_adjoint(h, k + 1, k + 1);
        refl.apply_right(h, 0, k + 1);
        // … and accumulation Q := Q P.
        if let Some(q) = q.as_deref_mut() {
            refl.apply_right(q, 0, k + 1);
        }
    }
}

/// Solves `(α·I + β·H) X = B` for upper-Hessenberg `H` via one Givens
/// sweep plus back-substitution — `O(n²·(1 + k))` for `k` right-hand
/// sides instead of the `O(n³)` of a fresh LU.
///
/// Entries below the first subdiagonal of `h` are ignored (they are
/// treated as exact zeros), so a full matrix that is Hessenberg "up to
/// roundoff" is handled correctly.
///
/// # Errors
///
/// * [`NumericError::NotSquare`] / [`NumericError::ShapeMismatch`] for
///   inconsistent dimensions;
/// * [`NumericError::Singular`] when `α·I + β·H` is singular to working
///   precision (for sweep evaluators: `s` hit a pole).
pub fn solve_shifted_hessenberg(
    h: &CMatrix,
    alpha: Complex,
    beta: Complex,
    b: &CMatrix,
) -> Result<CMatrix, NumericError> {
    if !h.is_square() {
        return Err(NumericError::NotSquare {
            op: "hessenberg solve",
            dims: h.dims(),
        });
    }
    let n = h.rows();
    if b.rows() != n {
        return Err(NumericError::ShapeMismatch {
            op: "hessenberg solve",
            left: h.dims(),
            right: b.dims(),
        });
    }
    let m = b.cols();
    if n == 0 {
        return Ok(b.clone());
    }

    // The sweep path calls this once per frequency, so the solver works
    // on flat slices throughout: row pairs of R are rotated via
    // `split_at_mut` (rows are contiguous in the row-major layout) and
    // the right-hand sides are kept column-major so back-substitution
    // reduces to contiguous dot products — no bounds-checked 2-D
    // indexing in any inner loop.

    // R := α·I + β·H in one fused pass over the flat storage. Entries
    // below the first subdiagonal are copied but never read.
    let mut r: Vec<Complex> = h.as_slice().iter().map(|&z| z * beta).collect();
    for i in 0..n {
        r[i * n + i] += alpha;
    }
    // X, column-major: one contiguous length-n vector per RHS column.
    let bs = b.as_slice();
    let mut xcols: Vec<Vec<Complex>> = (0..m)
        .map(|j| (0..n).map(|i| bs[i * m + j]).collect())
        .collect();

    // Givens sweep: annihilate the subdiagonal, applying the same
    // rotations to the right-hand sides. The running maximum of the ρ
    // values (the transformed diagonal) doubles as the magnitude scale
    // for the singularity test below.
    let mut scale_sq = r[0].abs_sq().max(f64::MIN_POSITIVE);
    for k in 0..n - 1 {
        let a_kk = r[k * n + k];
        let a_sub = r[(k + 1) * n + k];
        let sub_sq = a_sub.abs_sq();
        if sub_sq == 0.0 {
            scale_sq = scale_sq.max(a_kk.abs_sq());
            continue;
        }
        let rho_sq = a_kk.abs_sq() + sub_sq;
        let rho = rho_sq.sqrt();
        scale_sq = scale_sq.max(rho_sq);
        let c = a_kk.scale(1.0 / rho);
        let s = a_sub.scale(1.0 / rho);
        let (c_conj, s_conj) = (c.conj(), s.conj());
        let (top, bot) = r[k * n..(k + 2) * n].split_at_mut(n);
        for (t, bttm) in top[k..].iter_mut().zip(&mut bot[k..]) {
            let (t0, b0) = (*t, *bttm);
            *t = c_conj * t0 + s_conj * b0;
            *bttm = c * b0 - s * t0;
        }
        // The rotated subdiagonal entry is exactly ρ by construction.
        top[k] = Complex::from_real(rho);
        bot[k] = Complex::ZERO;
        for col in &mut xcols {
            let (t0, b0) = (col[k], col[k + 1]);
            col[k] = c_conj * t0 + s_conj * b0;
            col[k + 1] = c * b0 - s * t0;
        }
    }
    scale_sq = scale_sq.max(r[n * n - 1].abs_sq());

    // Back-substitution on the triangularized system; a vanishing
    // diagonal (relative to the factor's magnitude) flags singularity.
    let cut_sq = (f64::EPSILON * f64::EPSILON) * scale_sq;
    for i in (0..n).rev() {
        let d = r[i * n + i];
        if d.abs_sq() <= cut_sq {
            return Err(NumericError::Singular {
                op: "hessenberg solve",
            });
        }
        let inv = d.recip();
        let row_tail = &r[i * n + i + 1..(i + 1) * n];
        for col in &mut xcols {
            let mut acc = col[i];
            for (&r_e, &x_e) in row_tail.iter().zip(&col[i + 1..]) {
                acc -= r_e * x_e;
            }
            col[i] = acc * inv;
        }
    }
    let mut out = Vec::with_capacity(n * m);
    for i in 0..n {
        for col in &xcols {
            out.push(col[i]);
        }
    }
    CMatrix::from_vec(n, m, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::solve::solve;

    fn pseudo_random(n: usize, cols: usize, mut seed: u64) -> CMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(n, cols, |_, _| c64(next(), next()))
    }

    #[test]
    fn decomposition_reconstructs_the_input() {
        let a = pseudo_random(8, 8, 0x51);
        let hess = Hessenberg::compute(&a).unwrap();
        let back = hess
            .q()
            .matmul(hess.h())
            .unwrap()
            .mul_adjoint_right(hess.q())
            .unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn q_is_unitary_and_h_is_hessenberg() {
        let a = pseudo_random(7, 7, 0x52);
        let hess = Hessenberg::compute(&a).unwrap();
        let qtq = hess.q().adjoint().matmul(hess.q()).unwrap();
        assert!(qtq.approx_eq(&CMatrix::identity(7), 1e-13));
        for i in 0..7usize {
            for j in 0..i.saturating_sub(1) {
                assert!(hess.h()[(i, j)].abs() < 1e-13);
            }
        }
    }

    #[test]
    fn real_reduction_reproduces_the_complex_reduction_bit_for_bit() {
        let a = pseudo_random(11, 11, 0x58).real_part();
        let real = Hessenberg::compute(&a).unwrap();
        let complex = Hessenberg::compute(&a.to_complex()).unwrap();
        let same = |r: &Matrix<f64>, c: &CMatrix| {
            r.as_slice()
                .iter()
                .zip(c.as_slice())
                .all(|(x, z)| x.to_bits() == z.re.to_bits() && z.im == 0.0)
        };
        assert!(same(real.h(), complex.h()), "H differs");
        assert!(same(real.q(), complex.q()), "Q differs");
    }

    #[test]
    fn values_only_form_matches_the_accumulated_factor_bit_for_bit() {
        let a = pseudo_random(9, 9, 0x56);
        let h = hessenberg_form(a.clone());
        let hess = Hessenberg::compute(&a).unwrap();
        assert!(h.approx_eq(hess.h(), 0.0));
        let small = pseudo_random(2, 2, 0x57);
        assert!(hessenberg_form(small.clone()).approx_eq(&small, 0.0));
    }

    #[test]
    fn shifted_solve_matches_dense_lu() {
        let a = pseudo_random(9, 9, 0x53);
        let hess = Hessenberg::compute(&a).unwrap();
        let b = pseudo_random(9, 3, 0x54);
        let bt = hess.q().mul_hermitian_left(&b).unwrap();
        let (alpha, beta) = (c64(0.7, -0.2), c64(1.3, 0.4));
        let x = solve_shifted_hessenberg(hess.h(), alpha, beta, &bt).unwrap();
        let x_full = hess.q().matmul(&x).unwrap();
        // Dense reference: (α·I + β·A) X = B.
        let mut dense = a.map(|z| z * beta);
        for i in 0..9 {
            dense[(i, i)] += alpha;
        }
        let want = solve(&dense, &b).unwrap();
        assert!(x_full.approx_eq(&want, 1e-11));
    }

    #[test]
    fn tiny_systems_are_handled() {
        let a = CMatrix::from_rows(&[vec![c64(2.0, 0.0)]]).unwrap();
        let hess = Hessenberg::compute(&a).unwrap();
        let b = CMatrix::from_rows(&[vec![c64(4.0, 0.0)]]).unwrap();
        let x = solve_shifted_hessenberg(hess.h(), Complex::ZERO, Complex::ONE, &b).unwrap();
        assert!((x[(0, 0)] - c64(2.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn singular_shift_is_reported() {
        // H = diag(1, 2): α = −1, β = 1 makes the first pivot vanish.
        let h = CMatrix::from_diag(&[c64(1.0, 0.0), c64(2.0, 0.0)]);
        let b = CMatrix::identity(2);
        let err = solve_shifted_hessenberg(&h, c64(-1.0, 0.0), Complex::ONE, &b).unwrap_err();
        assert!(matches!(err, NumericError::Singular { .. }));
    }

    #[test]
    fn shape_errors_are_rejected() {
        let rect = CMatrix::zeros(2, 3);
        assert!(Hessenberg::compute(&rect).is_err());
        let h = CMatrix::identity(3);
        let b = CMatrix::zeros(2, 1);
        assert!(solve_shifted_hessenberg(&h, Complex::ONE, Complex::ONE, &b).is_err());
    }
}
