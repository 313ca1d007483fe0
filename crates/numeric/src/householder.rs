//! Elementary Householder reflectors (LAPACK `zlarfg`/`dlarfg`-style),
//! generic over the scalar.
//!
//! A reflector is stored as `H = I − τ w w*` with `w = [1, v…]`. The
//! generator guarantees a *real* β in `H* x = β e₁`, which is what makes
//! the bidiagonal produced by the SVD front-ends real. For `f64` the
//! conjugations degenerate to copies and the generator is exactly
//! `dlarfg`.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// A Householder reflector `H = I − τ w w*` with implicit `w[0] = 1`.
#[derive(Debug, Clone)]
pub(crate) struct Reflector<T> {
    /// Scaling factor τ (zero encodes the identity reflector).
    pub tau: T,
    /// Tail of the Householder vector (`w = [1, v…]`).
    pub v: Vec<T>,
    /// The real value β such that `H* x = β e₁`.
    pub beta: f64,
}

/// Generates a reflector annihilating `x[1..]`:
/// `H* x = β e₁` with β real, `H = I − τ w w*`, `w = [1, v…]`.
///
/// Follows LAPACK `zlarfg` (without the iterative rescaling loop; the
/// matrices in this workspace are pre-scaled by their norms upstream).
pub(crate) fn make_reflector<T: Scalar>(x: &[T]) -> Reflector<T> {
    generate(x, false)
}

/// [`make_reflector`] with the tail scaled by the reciprocal of the
/// pivot, `v = x[1..]·(1/(α − β))`, instead of divided by it. Complex
/// division is multiplication by the reciprocal, so for real input this
/// generator computes exactly what the complex one computes on the
/// promoted vector; the Hessenberg reduction uses it so that a real
/// matrix reduces to the same bits in `f64` as its complex promotion
/// (DESIGN.md §10).
pub(crate) fn make_reflector_by_reciprocal<T: Scalar>(x: &[T]) -> Reflector<T> {
    generate(x, true)
}

fn generate<T: Scalar>(x: &[T], by_reciprocal: bool) -> Reflector<T> {
    assert!(!x.is_empty(), "reflector of empty vector");
    let alpha = x[0];
    let xnorm = x[1..].iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
    if xnorm == 0.0 && alpha.im() == 0.0 {
        // Already in the desired form.
        return Reflector {
            tau: T::ZERO,
            v: vec![T::ZERO; x.len() - 1],
            beta: alpha.re(),
        };
    }
    let norm_full = (alpha.abs_sq() + xnorm * xnorm).sqrt();
    let beta = if alpha.re() >= 0.0 {
        -norm_full
    } else {
        norm_full
    };
    let tau = (T::from_f64(beta) - alpha).scale(1.0 / beta);
    let denom = alpha - T::from_f64(beta);
    let v: Vec<T> = if by_reciprocal {
        let inv = T::ONE / denom;
        x[1..].iter().map(|&z| z * inv).collect()
    } else {
        x[1..].iter().map(|&z| z / denom).collect()
    };
    Reflector { tau, v, beta }
}

impl<T: Scalar> Reflector<T> {
    /// Applies `H*` from the left to the block `a[row.., col..]`:
    /// `A := (I − conj(τ) w w*) A`.
    ///
    /// Swept row-wise — contiguous slices of the row-major layout —
    /// with the column sweep's per-entry summation order over the
    /// reflector's rows, so the bits do not depend on the orientation.
    pub fn apply_left_adjoint(&self, a: &mut Matrix<T>, row: usize, col: usize) {
        if self.tau == T::ZERO {
            return;
        }
        debug_assert!(row + 1 + self.v.len() <= a.rows());
        // s = wᴴ A[row.., col..], one entry per column.
        let mut s: Vec<T> = a.row(row)[col..].to_vec();
        for (k, &vk) in self.v.iter().enumerate() {
            let vkc = vk.conj();
            for (s_j, &a_j) in s.iter_mut().zip(&a.row(row + 1 + k)[col..]) {
                *s_j += vkc * a_j;
            }
        }
        let tau_c = self.tau.conj();
        s.iter_mut().for_each(|s_j| *s_j = tau_c * *s_j);
        for (a_j, &t_j) in a.row_mut(row)[col..].iter_mut().zip(&s) {
            *a_j -= t_j;
        }
        for (k, &vk) in self.v.iter().enumerate() {
            for (a_j, &t_j) in a.row_mut(row + 1 + k)[col..].iter_mut().zip(&s) {
                *a_j -= t_j * vk;
            }
        }
    }

    /// Applies `H` from the left to the block `a[row.., col..]`:
    /// `A := (I − τ w w*) A`. Used when accumulating `Q = H₁H₂…`.
    pub fn apply_left(&self, a: &mut Matrix<T>, row: usize, col: usize) {
        if self.tau == T::ZERO {
            return;
        }
        let n = a.cols();
        for j in col..n {
            let mut s = a[(row, j)];
            for (k, &vk) in self.v.iter().enumerate() {
                s += vk.conj() * a[(row + 1 + k, j)];
            }
            let t = self.tau * s;
            a[(row, j)] -= t;
            for (k, &vk) in self.v.iter().enumerate() {
                let val = a[(row + 1 + k, j)] - t * vk;
                a[(row + 1 + k, j)] = val;
            }
        }
    }

    /// Applies `H = I − τ w w*` from the right to the block
    /// `a[row.., col..]`: `A := A (I − τ w w*)`.
    pub fn apply_right(&self, a: &mut Matrix<T>, row: usize, col: usize) {
        if self.tau == T::ZERO {
            return;
        }
        let m = a.rows();
        for i in row..m {
            // s = A[i, col..] w
            let mut s = a[(i, col)];
            for (k, &vk) in self.v.iter().enumerate() {
                s += a[(i, col + 1 + k)] * vk;
            }
            let t = self.tau * s;
            a[(i, col)] -= t;
            for (k, &vk) in self.v.iter().enumerate() {
                let val = a[(i, col + 1 + k)] - t * vk.conj();
                a[(i, col + 1 + k)] = val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex};
    use crate::matrix::CMatrix;

    fn reflect_vector(r: &Reflector<Complex>, x: &[Complex]) -> Vec<Complex> {
        // y = (I − conj(τ) w w^H) x with w = [1, v...]
        let mut w = vec![Complex::ONE];
        w.extend_from_slice(&r.v);
        let s: Complex = w.iter().zip(x).map(|(&wi, &xi)| wi.conj() * xi).sum();
        let t = r.tau.conj() * s;
        x.iter().zip(&w).map(|(&xi, &wi)| xi - t * wi).collect()
    }

    #[test]
    fn reflector_annihilates_tail_with_real_beta() {
        let x = vec![c64(1.0, 2.0), c64(-3.0, 0.5), c64(0.25, -1.0)];
        let r = make_reflector(&x);
        let y = reflect_vector(&r, &x);
        assert!(y[0].im.abs() < 1e-14, "beta should be real, got {}", y[0]);
        assert!((y[0].re - r.beta).abs() < 1e-12);
        assert!(y[1].abs() < 1e-14);
        assert!(y[2].abs() < 1e-14);
        // Norm preservation.
        let nx: f64 = x.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
        assert!((r.beta.abs() - nx).abs() < 1e-12);
    }

    #[test]
    fn reflector_of_aligned_vector_is_identity() {
        let x = vec![c64(2.0, 0.0), Complex::ZERO];
        let r = make_reflector(&x);
        assert_eq!(r.tau, Complex::ZERO);
        assert_eq!(r.beta, 2.0);
    }

    #[test]
    fn reflector_is_unitary() {
        let x = vec![c64(0.3, -0.7), c64(1.5, 0.2), c64(-0.1, 0.9), c64(0.0, 0.4)];
        let r = make_reflector(&x);
        let n = x.len();
        let mut w = vec![Complex::ONE];
        w.extend_from_slice(&r.v);
        let h = CMatrix::from_fn(n, n, |i, j| {
            let delta = if i == j { Complex::ONE } else { Complex::ZERO };
            delta - r.tau * w[i] * w[j].conj()
        });
        let hh = h.adjoint().matmul(&h).unwrap();
        assert!(hh.approx_eq(&CMatrix::identity(n), 1e-13));
    }

    #[test]
    fn apply_left_adjoint_matches_dense_product() {
        let x = vec![c64(1.0, -1.0), c64(2.0, 0.3), c64(-0.5, 0.8)];
        let r = make_reflector(&x);
        let n = 3;
        let mut w = vec![Complex::ONE];
        w.extend_from_slice(&r.v);
        let h = CMatrix::from_fn(n, n, |i, j| {
            let delta = if i == j { Complex::ONE } else { Complex::ZERO };
            delta - r.tau * w[i] * w[j].conj()
        });
        let a = CMatrix::from_fn(n, 2, |i, j| c64(i as f64 - j as f64, (i * j) as f64));
        let want = h.adjoint().matmul(&a).unwrap();
        let mut got = a.clone();
        r.apply_left_adjoint(&mut got, 0, 0);
        assert!(got.approx_eq(&want, 1e-13));
    }

    #[test]
    fn apply_right_matches_dense_product() {
        let x = vec![c64(0.2, 0.4), c64(1.0, -0.6)];
        let r = make_reflector(&x);
        let n = 2;
        let mut w = vec![Complex::ONE];
        w.extend_from_slice(&r.v);
        let h = CMatrix::from_fn(n, n, |i, j| {
            let delta = if i == j { Complex::ONE } else { Complex::ZERO };
            delta - r.tau * w[i] * w[j].conj()
        });
        let a = CMatrix::from_fn(3, n, |i, j| c64((i + j) as f64, 1.0 - i as f64));
        let want = a.matmul(&h).unwrap();
        let mut got = a.clone();
        r.apply_right(&mut got, 0, 0);
        assert!(got.approx_eq(&want, 1e-13));
    }
}
