//! Elementary Householder reflectors (LAPACK `zlarfg`/`dlarfg`-style),
//! generic over the scalar.
//!
//! A reflector is stored as `H = I − τ w w*` with `w = [1, v…]`. The
//! generator guarantees a *real* β in `H* x = β e₁`, which is what makes
//! the bidiagonal produced by the SVD front-ends real. For `f64` the
//! conjugations degenerate to copies and the generator is exactly
//! `dlarfg`.
//!
//! The applications sweep contiguous rows of the row-major layout. The
//! right application — the Hessenberg reduction of `H` and its `Q`,
//! Golub–Kahan — takes four rows per pass, so four rows' `A·w`
//! reductions run as independent chains; every entry keeps the one-row
//! loop's operations and order (DESIGN.md §6).

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
    ///
    /// Four rows per pass: their `s = A[i, col..]·w` chains run
    /// interleaved, each in its own `k` order, so four serial
    /// dependency chains overlap instead of one; then each row takes
    /// its rank-1 update over a contiguous slice. Every entry goes
    /// through the operations of the one-row loop, in its order
    /// (`Reflector::apply_right_indexed`, the test oracle), so the bits
    /// are the same.
    pub fn apply_right(&self, a: &mut Matrix<T>, row: usize, col: usize) {
        if self.tau == T::ZERO {
            return;
        }
        let n = a.cols();
        let width = 1 + self.v.len();
        debug_assert!(row <= a.rows() && col + width <= n);
        let block = &mut a.as_mut_slice()[row * n..];
        let mut quads = block.chunks_exact_mut(4 * n);
        for quad in &mut quads {
            let (r01, r23) = quad.split_at_mut(2 * n);
            let (r0, r1) = r01.split_at_mut(n);
            let (r2, r3) = r23.split_at_mut(n);
            self.apply_right_rows([
                &mut r0[col..col + width],
                &mut r1[col..col + width],
                &mut r2[col..col + width],
                &mut r3[col..col + width],
            ]);
        }
        for r in quads.into_remainder().chunks_exact_mut(n) {
            self.apply_right_rows([&mut r[col..col + width]]);
        }
    }

    /// [`Reflector::apply_right`] on `R` row slices of `A[.., col..]`,
    /// each `1 + v.len()` long.
    #[inline(always)]
    fn apply_right_rows<const R: usize>(&self, mut rows: [&mut [T]; R]) {
        let v = &self.v[..];
        // s = A[i, col..] w: R chains, interleaved over k.
        let mut s: [T; R] = std::array::from_fn(|q| rows[q][0]);
        for (k, &vk) in v.iter().enumerate() {
            for (s, row) in s.iter_mut().zip(&rows) {
                *s += row[1 + k] * vk;
            }
        }
        for (row, s) in rows.iter_mut().zip(s) {
            let t = self.tau * s;
            let (head, tail) = row.split_at_mut(1);
            head[0] -= t;
            for (a, &vk) in tail.iter_mut().zip(v) {
                *a -= t * vk.conj();
            }
        }
    }

    /// [`Reflector::apply_right`] as a one-row loop. Test oracle.
    #[cfg(test)]
    fn apply_right_indexed(&self, a: &mut Matrix<T>, row: usize, col: usize) {
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
    use crate::matrix::{CMatrix, RMatrix};
    use crate::oracle::{apply_specials, complex_entries, same_bits, specials};
    use proptest::prelude::*;

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

    /// A `rows × cols` matrix and a reflector acting on its columns
    /// `col..`, both with [`apply_specials`] on top.
    fn right_case(
        dims: (usize, usize, usize),
        seed: u64,
        specials: &[(u32, u8)],
    ) -> (CMatrix, Reflector<Complex>) {
        let (rows, cols, col) = dims;
        let a = CMatrix::from_vec(rows, cols, complex_entries(rows * cols, seed, specials))
            .expect("rows·cols entries");
        let x: Vec<Complex> = complex_entries(cols - col, seed + 1, &[]);
        let mut refl = make_reflector(&x);
        apply_specials(&mut refl.v, &specials[..specials.len().min(1)]);
        (a, refl)
    }

    fn same_matrix_bits<T: Scalar>(x: &Matrix<T>, y: &Matrix<T>) -> bool {
        x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| same_bits(p.re(), q.re()) && same_bits(p.im(), q.im()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The four-row right application against the one-row loop, on
        /// sub-blocks with row and column offsets (row counts ≡ 0–3 mod
        /// 4), complex and real, special values included.
        #[test]
        fn apply_right_matches_the_one_row_loop(
            (rows, row) in (1usize..=14).prop_flat_map(|rows| (Just(rows), 0..rows)),
            (cols, col) in (1usize..=19).prop_flat_map(|cols| (Just(cols), 0..cols)),
            seed in 0u64..1_000_000,
            specials in specials(4, 0..5),
        ) {
            let (a, refl) = right_case((rows, cols, col), seed, &specials);
            let mut want = a.clone();
            refl.apply_right_indexed(&mut want, row, col);
            let mut got = a.clone();
            refl.apply_right(&mut got, row, col);
            prop_assert!(same_matrix_bits(&got, &want), "complex");

            let a_re: RMatrix = a.real_part();
            let refl_re = Reflector {
                tau: refl.tau.re,
                v: refl.v.iter().map(|z| z.re).collect(),
                beta: refl.beta,
            };
            let mut want = a_re.clone();
            refl_re.apply_right_indexed(&mut want, row, col);
            let mut got = a_re;
            refl_re.apply_right(&mut got, row, col);
            prop_assert!(same_matrix_bits(&got, &want), "real");
        }
    }
}
