//! The complex Schur decomposition `A = Z T Zᴴ` with accumulated
//! transforms, the values-only QR iterations behind
//! [`crate::eigenvalues`], and a back-substitution solver for shifted
//! triangular systems.
//!
//! This is the frequency-sweep endgame the Hessenberg machinery of
//! [`crate::Hessenberg`] builds toward: reducing the shift-inverted
//! pencil of a descriptor model to **triangular** (not merely
//! Hessenberg) form once means every subsequent frequency point costs a
//! single triangular back-substitution — `O(n²)` flops with
//! triangular-solve constants and *no per-point factorization work at
//! all*, versus the per-point Givens triangularization the Hessenberg
//! path still pays. `Macromodel::eval_batch` in `mfti-statespace`
//! selects between the two by a crossover heuristic.
//!
//! Two QR iterations live here:
//!
//! * **complex** — Wilkinson-shifted explicit QR with complex Givens
//!   rotations, in two modes. The *Schur* mode applies every rotation
//!   across the full matrix and accumulates it into `Z`, so the limit is
//!   upper triangular everywhere; it is the only way [`Schur`] is
//!   formed. The *values-only* mode confines the rotations to the
//!   active window and solves 2×2 windows analytically; the window's
//!   arithmetic is the same in both modes.
//! * **real** — the Francis double-shift iteration (EISPACK `hqr`),
//!   values only: the eigenvalues of a real matrix never leave `f64`,
//!   and conjugate pairs come out exactly conjugate.
//!
//! In the Schur mode every pass of a QR sweep runs over contiguous
//! memory: the left rotations over two rows of `T` as slices, the right
//! rotations as per-row chains four rows at a time, and the accumulation
//! over two rows of `Zᵀ`, held in split real and imaginary planes. Each
//! entry still goes through the operations of the indexed loops, in
//! their order, so the bits are theirs; those loops survive as test
//! oracles (DESIGN.md §6).
//!
//! A real input to [`Schur`] is reduced to Hessenberg form in `f64` —
//! the same bits its complex promotion would reduce to, at a quarter of
//! the flops — and then promoted for the complex Schur iteration. A
//! real Schur form (Francis with accumulated `Z`, standardized to the
//! complex form) is not used: on Example 1 its sweeps lost 0.11–0.19
//! digits of ERR against the complex iteration (DESIGN.md §10). Both
//! iterations honour the fault-injection iteration cap and fail with
//! [`NumericError::NoConvergence`].

use crate::complex::{c64, Complex};
use crate::error::NumericError;
use crate::hessenberg::{hessenberg_form, Hessenberg};
use crate::kernel::SplitOperand;
use crate::matrix::{CMatrix, Matrix, RMatrix};
use crate::scalar::Scalar;

/// Sweeps one active window may spend before the iterations give up
/// (unless a fault-injection cap shrinks it; `crate::fault_budget`).
const QR_ITERATIONS_PER_WINDOW: usize = 300;

/// The complex Schur form `A = Z T Zᴴ` with `T` upper triangular and
/// `Z` unitary.
///
/// The eigenvalues of `A` are the diagonal of `T`, in deflation order.
///
/// ```
/// use mfti_numeric::{c64, CMatrix, RMatrix, Schur};
///
/// # fn main() -> Result<(), mfti_numeric::NumericError> {
/// let a = CMatrix::from_fn(6, 6, |i, j| c64((i + 2 * j) as f64, i as f64 - j as f64));
/// let schur = Schur::compute(&a)?;
/// // Reconstruction: Z T Zᴴ == A.
/// let back = schur.z().matmul(schur.t())?.mul_adjoint_right(schur.z())?;
/// assert!(back.approx_eq(&a, 1e-10 * a.norm_fro()));
/// // A real rotation generator: eigenvalues ±i on the diagonal of T.
/// let r = RMatrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]])?;
/// let ev = Schur::compute(&r)?.eigenvalues();
/// assert!((ev[0].im.abs() - 1.0).abs() < 1e-15 && (ev[0] - ev[1].conj()).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Schur {
    t: CMatrix,
    z: CMatrix,
}

impl Schur {
    /// Computes the Schur form of a general square matrix: Householder
    /// reduction to Hessenberg form in the input's scalar type, then
    /// the accumulated complex QR iteration.
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] / [`NumericError::NotFinite`] for
    ///   invalid input;
    /// * [`NumericError::NoConvergence`] when the QR iteration exceeds
    ///   its budget (pathological; not observed on this repo's
    ///   workloads).
    pub fn compute<T: Scalar>(a: &Matrix<T>) -> Result<Self, NumericError> {
        Self::from_hessenberg(&Hessenberg::compute(a)?)
    }

    /// Runs the accumulated QR iteration on an existing Hessenberg
    /// factorization `A = Q H Qᴴ`, returning `A = Z T Zᴴ` (the
    /// accumulation starts from `Q`, so `Z` maps all the way back to the
    /// original basis). A real factorization is promoted to complex
    /// here, after its `O(n³)` reduction.
    ///
    /// Sweep evaluators that already hold a [`Hessenberg`] use this to
    /// upgrade to the triangular form without re-reducing.
    ///
    /// # Errors
    ///
    /// [`NumericError::NoConvergence`] when the QR iteration exceeds its
    /// budget; the caller still owns the Hessenberg form and can fall
    /// back to it.
    pub fn from_hessenberg<T: Scalar>(hess: &Hessenberg<T>) -> Result<Self, NumericError> {
        let mut t = hess.h().to_complex();
        let mut zt = SplitTranspose::of(hess.q());
        complex_qr(&mut t, Some(&mut zt))?;
        Ok(Schur {
            t,
            z: zt.into_matrix(),
        })
    }

    /// The upper-triangular factor `T`.
    pub fn t(&self) -> &CMatrix {
        &self.t
    }

    /// The unitary factor `Z` (`A = Z T Zᴴ`).
    pub fn z(&self) -> &CMatrix {
        &self.z
    }

    /// The eigenvalues of `A`: the diagonal of `T`, in deflation order.
    pub fn eigenvalues(&self) -> Vec<Complex> {
        (0..self.t.rows()).map(|i| self.t[(i, i)]).collect()
    }

    /// Consumes the factorization, returning `(T, Z)`.
    pub fn into_parts(self) -> (CMatrix, CMatrix) {
        (self.t, self.z)
    }
}

/// Eigenvalues of a real square matrix: values-only Hessenberg
/// reduction, then the Francis double-shift iteration, all in `f64`.
/// Conjugate pairs come out adjacent and exactly conjugate, positive
/// imaginary part first.
pub(crate) fn real_eigenvalues(a: RMatrix) -> Result<Vec<Complex>, NumericError> {
    francis_eigenvalues(hessenberg_form(a))
}

/// Eigenvalues of a complex square matrix: values-only Hessenberg
/// reduction, then the values-only complex iteration (deflation order).
pub(crate) fn complex_eigenvalues(a: CMatrix) -> Result<Vec<Complex>, NumericError> {
    complex_qr(&mut hessenberg_form(a), None)
}

/// Complex Givens rotation `G = [[c, s], [-s̄, c]]` (c real) with
/// `G · [a; b] = [r; 0]`.
fn zrotg(a: Complex, b: Complex) -> (f64, Complex, Complex) {
    let norm = (a.abs_sq() + b.abs_sq()).sqrt();
    if norm == 0.0 {
        return (1.0, Complex::ZERO, Complex::ZERO);
    }
    if a.abs() == 0.0 {
        // Pure swap with phase alignment.
        let phase_b = b.unit_phase();
        return (0.0, phase_b.conj(), c64(b.abs(), 0.0));
    }
    let phase_a = a.unit_phase();
    let c = a.abs() / norm;
    let s = phase_a * b.conj().scale(1.0 / norm);
    let r = phase_a.scale(norm);
    (c, s, r)
}

/// Eigenvalue of the 2×2 block `[[a, b], [c, d]]` closest to `d`
/// (the Wilkinson shift).
fn wilkinson_shift(a: Complex, b: Complex, c: Complex, d: Complex) -> Complex {
    let half_delta = (a - d).scale(0.5);
    let disc = (half_delta * half_delta + b * c).sqrt();
    // Pick the sign that maximizes |half_delta + disc| for a stable
    // division, then use λ = d − bc / (half_delta ± disc).
    let denom = if (half_delta + disc).abs() >= (half_delta - disc).abs() {
        half_delta + disc
    } else {
        half_delta - disc
    };
    if denom.abs() == 0.0 {
        // a == d and bc == 0: the block is already triangular-ish.
        return d;
    }
    d - (b * c) / denom
}

/// Both eigenvalues of a 2×2 complex block.
fn eig_2x2(a: Complex, b: Complex, c: Complex, d: Complex) -> (Complex, Complex) {
    let mean = (a + d).scale(0.5);
    let half_delta = (a - d).scale(0.5);
    let disc = (half_delta * half_delta + b * c).sqrt();
    (mean + disc, mean - disc)
}

/// `Zᵀ` in split real and imaginary planes: row `k` of each plane is
/// column `k` of `Z`, so the accumulation `Z := Z·Gᴴ` of a rotation in
/// the plane `(k, k+1)` sweeps two contiguous rows per plane instead of
/// walking a column pair down all `n` rows of the interleaved matrix.
struct SplitTranspose {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitTranspose {
    /// Splits and transposes a square `q`.
    fn of<T: Scalar>(q: &Matrix<T>) -> Self {
        let n = q.rows();
        let mut re = vec![0.0; n * n];
        let mut im = vec![0.0; n * n];
        for (i, row) in q.as_slice().chunks_exact(n.max(1)).enumerate() {
            for (k, &x) in row.iter().enumerate() {
                re[k * n + i] = x.re();
                im[k * n + i] = x.im();
            }
        }
        SplitTranspose { n, re, im }
    }

    /// `Z := Z·Gᴴ` for the rotation `G` of plane `(k, k+1)`.
    fn rotate(&mut self, k: usize, c: f64, s: Complex) {
        let n = self.n;
        let (ur, vr) = self.re[k * n..(k + 2) * n].split_at_mut(n);
        let (ui, vi) = self.im[k * n..(k + 2) * n].split_at_mut(n);
        rotate_split_columns(ur, ui, vr, vi, c, s);
    }

    /// The interleaved `Z`, transposed back.
    fn into_matrix(self) -> CMatrix {
        let n = self.n;
        CMatrix::from_fn(n, n, |i, k| c64(self.re[k * n + i], self.im[k * n + i]))
    }
}

/// `[x; y] := G·[x; y]` over two rows of `T`, `G = [[c, s], [−s̄, c]]`:
/// the left half of a QR sweep's rotation, `x·c + s·y` and `y·c − s̄·x`
/// per column. Over slices, so the loop runs without index checks and
/// vectorizes; every entry keeps the operands and order of the indexed
/// loop [`rotate_rows_indexed`], its test oracle.
fn rotate_rows(x: &mut [Complex], y: &mut [Complex], c: f64, s: Complex) {
    let s_conj = s.conj();
    for (t1, t2) in x.iter_mut().zip(y.iter_mut()) {
        let (u, v) = (*t1, *t2);
        *t1 = u.scale(c) + s * v;
        *t2 = v.scale(c) - s_conj * u;
    }
}

/// `[u v] := [u v]·Gᴴ` for two columns of `Z` held as split planes
/// (`u = ur + i·ui`, `v = vr + i·vi`): `u·c + v·s̄` and `v·c − u·s`,
/// spelled out in the real operations — and the order — that
/// [`Complex`]'s `scale`, `*`, `+` and `−` perform, so each lane rounds
/// exactly as the interleaved loop [`rotate_columns_indexed`], its test
/// oracle.
fn rotate_split_columns(
    ur: &mut [f64],
    ui: &mut [f64],
    vr: &mut [f64],
    vi: &mut [f64],
    c: f64,
    s: Complex,
) {
    let (sr, si) = (s.re, s.im);
    let si_conj = -si;
    let planes = ur
        .iter_mut()
        .zip(ui.iter_mut())
        .zip(vr.iter_mut().zip(vi.iter_mut()));
    for ((ur, ui), (vr, vi)) in planes {
        let (ar, ai, br, bi) = (*ur, *ui, *vr, *vi);
        *ur = ar * c + (br * sr - bi * si_conj);
        *ui = ai * c + (br * si_conj + bi * sr);
        *vr = br * c - (ar * sr - ai * si);
        *vi = bi * c - (ar * si + ai * sr);
    }
}

/// `T := T·Gₖᴴ` for every rotation of one QR sweep, `rot[k − lo]` in
/// the plane `(k, k+1)`, over rows `row_start..=hi` of the row-major
/// `n × n` matrix `t` (`hi = lo + rot.len()`; row `i` takes the
/// rotations `k ≥ max(lo, i − 1)`). Row by row instead of column pair
/// by column pair: each row runs its rotations in `k` order as one
/// chain, carrying the entry the next rotation reads, and four rows'
/// chains run side by side so their latencies overlap. Every entry
/// takes `u·c + v·s̄` and `v·c − u·s` in the order of the column-pair
/// loop [`rotate_columns_indexed`], its test oracle.
fn rotate_right_chains(
    t: &mut [Complex],
    n: usize,
    lo: usize,
    row_start: usize,
    rot: &[(f64, Complex)],
) {
    let hi = lo + rot.len();
    let mut quads = t[row_start * n..(hi + 1) * n].chunks_exact_mut(4 * n);
    let mut first = row_start;
    for quad in &mut quads {
        let (r01, r23) = quad.split_at_mut(2 * n);
        let (r0, r1) = r01.split_at_mut(n);
        let (r2, r3) = r23.split_at_mut(n);
        rotate_row_chains([r0, r1, r2, r3], first, lo, rot);
        first += 4;
    }
    for row in quads.into_remainder().chunks_exact_mut(n) {
        rotate_row_chains([row], first, lo, rot);
        first += 1;
    }
}

/// [`rotate_right_chains`] on the `R` consecutive rows from `first`.
#[inline(always)]
fn rotate_row_chains<const R: usize>(
    mut rows: [&mut [Complex]; R],
    first: usize,
    lo: usize,
    rot: &[(f64, Complex)],
) {
    let hi = lo + rot.len();
    let starts: [usize; R] = std::array::from_fn(|q| lo.max((first + q).saturating_sub(1)));
    let mut carry = [Complex::ZERO; R];
    for k in starts[0]..hi {
        let (c, s) = rot[k - lo];
        let s_conj = s.conj();
        for ((row, u), &start) in rows.iter_mut().zip(&mut carry).zip(&starts) {
            if k < start {
                continue;
            }
            if k == start {
                *u = row[k];
            }
            let v = row[k + 1];
            row[k] = u.scale(c) + v * s_conj;
            *u = v.scale(c) - *u * s;
        }
    }
    for (row, u) in rows.iter_mut().zip(carry) {
        row[hi] = u;
    }
}

/// Wilkinson-shifted explicit QR on a complex upper-Hessenberg `t`.
///
/// With `z` (Schur mode) every rotation is applied across the full
/// matrix — left over columns `k+1..n`, right over rows `0..=k+1` — and
/// accumulated into `z`, so `A = z t zᴴ` is preserved and `t` converges
/// to exact upper-triangular form; nothing is returned. Without `z`
/// (values-only mode) the rotations stay inside the active window,
/// 2×2 windows are solved analytically, and the eigenvalues are
/// returned in deflation order. The window's arithmetic is the same in
/// both modes.
///
/// Every pass runs over contiguous memory: the left rotations over row
/// pairs of `t`, the right rotations as per-row chains four rows at a
/// time, the accumulation over rows of `Zᵀ`'s split planes. Every entry
/// of `t` and `z` goes through the operations of [`complex_qr_indexed`]
/// in its order, so both produce the same bits (DESIGN.md §6).
fn complex_qr(
    t: &mut CMatrix,
    mut z: Option<&mut SplitTranspose>,
) -> Result<Vec<Complex>, NumericError> {
    let n = t.rows();
    let schur = z.is_some();
    let mut ev = Vec::with_capacity(if schur { 0 } else { n });
    if n == 0 {
        return Ok(ev);
    }
    let eps = f64::EPSILON;
    let tiny = f64::MIN_POSITIVE;
    let mut hi = n - 1;
    let mut iters_this_window = 0usize;
    let max_iters_per_eig =
        crate::fault_budget::qr_iteration_cap().unwrap_or(QR_ITERATIONS_PER_WINDOW);

    loop {
        // Deflate negligible subdiagonals, scanning up from the bottom
        // of the active window.
        let mut lo = hi;
        while lo > 0 {
            let sub = t[(lo, lo - 1)].abs();
            if sub <= tiny + eps * (t[(lo - 1, lo - 1)].abs() + t[(lo, lo)].abs()) {
                t[(lo, lo - 1)] = Complex::ZERO;
                break;
            }
            lo -= 1;
        }

        if lo == hi {
            // 1×1 block converged.
            if !schur {
                ev.push(t[(hi, hi)]);
            }
            iters_this_window = 0;
            if hi == 0 {
                break;
            }
            hi -= 1;
            continue;
        }
        if !schur && hi - lo == 1 {
            // Values only: solve the 2×2 window analytically. (The Schur
            // mode has no such escape: a 2×2 window must be rotated to
            // triangular form, which the Wilkinson shift does in one or
            // two sweeps — the shift is then an exact eigenvalue.)
            let (l1, l2) = eig_2x2(t[(lo, lo)], t[(lo, hi)], t[(hi, lo)], t[(hi, hi)]);
            ev.push(l1);
            ev.push(l2);
            iters_this_window = 0;
            if lo == 0 {
                break;
            }
            hi = lo - 1;
            continue;
        }

        iters_this_window += 1;
        if iters_this_window > max_iters_per_eig {
            return Err(NumericError::NoConvergence {
                op: if schur { "schur qr" } else { "hessenberg qr" },
                iterations: iters_this_window,
            });
        }

        // Shift: Wilkinson by default; occasionally an exceptional shift
        // to break symmetry-induced cycling.
        let mu = if iters_this_window.is_multiple_of(24) {
            let lower = if hi >= 2 {
                t[(hi - 1, hi - 2)].abs()
            } else {
                0.0
            };
            let m = t[(hi, hi - 1)].abs() + lower;
            t[(hi, hi)] + c64(0.75 * m, 0.3 * m)
        } else {
            wilkinson_shift(
                t[(hi - 1, hi - 1)],
                t[(hi - 1, hi)],
                t[(hi, hi - 1)],
                t[(hi, hi)],
            )
        };

        // Explicit QR step on the window: T − μI = QR, then T := RQ + μI.
        // The μ bookkeeping is confined to the window diagonal; the
        // rotations span the window (values only) or the full matrix.
        let (col_end, row_start) = if schur { (n, 0) } else { (hi + 1, lo) };
        for i in lo..=hi {
            t[(i, i)] -= mu;
        }
        let mut rot = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let (c, s, r) = zrotg(t[(k, k)], t[(k + 1, k)]);
            t[(k, k)] = r;
            t[(k + 1, k)] = Complex::ZERO;
            let (top, bottom) = t.as_mut_slice()[k * n..(k + 2) * n].split_at_mut(n);
            rotate_rows(&mut top[k + 1..col_end], &mut bottom[k + 1..col_end], c, s);
            rot.push((c, s));
        }
        // T := T Gᴴ (rows up to k+1 are the only structurally nonzero
        // ones of the R factor in columns k, k+1)…
        rotate_right_chains(t.as_mut_slice(), n, lo, row_start, &rot);
        // … and the accumulation Z := Z Gᴴ over all rows.
        if let Some(z) = z.as_deref_mut() {
            for (idx, &(c, s)) in rot.iter().enumerate() {
                z.rotate(lo + idx, c, s);
            }
        }
        for i in lo..=hi {
            t[(i, i)] += mu;
        }
    }

    if schur {
        // The strictly-lower part is structurally zero (subdiagonals
        // were deflated to exact zeros, everything below was never
        // touched); clear any entry the loop left behind so callers can
        // rely on exact triangularity.
        for i in 1..n {
            for j in 0..i {
                t[(i, j)] = Complex::ZERO;
            }
        }
    }
    Ok(ev)
}

/// [`complex_qr`] with an interleaved `Z` and indexed rotation loops:
/// the reference it must match bit for bit. Test oracle.
#[cfg(test)]
fn complex_qr_indexed(
    t: &mut CMatrix,
    mut z: Option<&mut CMatrix>,
) -> Result<Vec<Complex>, NumericError> {
    let n = t.rows();
    let schur = z.is_some();
    let mut ev = Vec::with_capacity(if schur { 0 } else { n });
    if n == 0 {
        return Ok(ev);
    }
    let eps = f64::EPSILON;
    let tiny = f64::MIN_POSITIVE;
    let mut hi = n - 1;
    let mut iters_this_window = 0usize;
    let max_iters_per_eig =
        crate::fault_budget::qr_iteration_cap().unwrap_or(QR_ITERATIONS_PER_WINDOW);

    loop {
        // Deflate negligible subdiagonals, scanning up from the bottom
        // of the active window.
        let mut lo = hi;
        while lo > 0 {
            let sub = t[(lo, lo - 1)].abs();
            if sub <= tiny + eps * (t[(lo - 1, lo - 1)].abs() + t[(lo, lo)].abs()) {
                t[(lo, lo - 1)] = Complex::ZERO;
                break;
            }
            lo -= 1;
        }

        if lo == hi {
            // 1×1 block converged.
            if !schur {
                ev.push(t[(hi, hi)]);
            }
            iters_this_window = 0;
            if hi == 0 {
                break;
            }
            hi -= 1;
            continue;
        }
        if !schur && hi - lo == 1 {
            // Values only: solve the 2×2 window analytically. (The Schur
            // mode has no such escape: a 2×2 window must be rotated to
            // triangular form, which the Wilkinson shift does in one or
            // two sweeps — the shift is then an exact eigenvalue.)
            let (l1, l2) = eig_2x2(t[(lo, lo)], t[(lo, hi)], t[(hi, lo)], t[(hi, hi)]);
            ev.push(l1);
            ev.push(l2);
            iters_this_window = 0;
            if lo == 0 {
                break;
            }
            hi = lo - 1;
            continue;
        }

        iters_this_window += 1;
        if iters_this_window > max_iters_per_eig {
            return Err(NumericError::NoConvergence {
                op: if schur { "schur qr" } else { "hessenberg qr" },
                iterations: iters_this_window,
            });
        }

        // Shift: Wilkinson by default; occasionally an exceptional shift
        // to break symmetry-induced cycling.
        let mu = if iters_this_window.is_multiple_of(24) {
            let lower = if hi >= 2 {
                t[(hi - 1, hi - 2)].abs()
            } else {
                0.0
            };
            let m = t[(hi, hi - 1)].abs() + lower;
            t[(hi, hi)] + c64(0.75 * m, 0.3 * m)
        } else {
            wilkinson_shift(
                t[(hi - 1, hi - 1)],
                t[(hi - 1, hi)],
                t[(hi, hi - 1)],
                t[(hi, hi)],
            )
        };

        // Explicit QR step on the window: T − μI = QR, then T := RQ + μI.
        // The μ bookkeeping is confined to the window diagonal; the
        // rotations span the window (values only) or the full matrix.
        let (col_end, row_start) = if schur { (n, 0) } else { (hi + 1, lo) };
        for i in lo..=hi {
            t[(i, i)] -= mu;
        }
        let mut rot = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let (c, s, r) = zrotg(t[(k, k)], t[(k + 1, k)]);
            t[(k, k)] = r;
            t[(k + 1, k)] = Complex::ZERO;
            rotate_rows_indexed(t, k, col_end, c, s);
            rot.push((c, s));
        }
        for (idx, &(c, s)) in rot.iter().enumerate() {
            let k = lo + idx;
            // T := T Gᴴ on columns k, k+1 (rows up to k+1 are the only
            // structurally nonzero ones in the R factor)…
            rotate_columns_indexed(t, row_start..k + 2, k, c, s);
            // … and the accumulation Z := Z Gᴴ over all rows.
            if let Some(z) = z.as_deref_mut() {
                rotate_columns_indexed(z, 0..n, k, c, s);
            }
        }
        for i in lo..=hi {
            t[(i, i)] += mu;
        }
    }

    if schur {
        // The strictly-lower part is structurally zero (subdiagonals
        // were deflated to exact zeros, everything below was never
        // touched); clear any entry the loop left behind so callers can
        // rely on exact triangularity.
        for i in 1..n {
            for j in 0..i {
                t[(i, j)] = Complex::ZERO;
            }
        }
    }
    Ok(ev)
}

/// [`rotate_rows`] as an indexed loop over rows `k`, `k+1` and columns
/// `k+1..col_end` of `t`. Test oracle.
#[cfg(test)]
fn rotate_rows_indexed(t: &mut CMatrix, k: usize, col_end: usize, c: f64, s: Complex) {
    for j in k + 1..col_end {
        let t1 = t[(k, j)];
        let t2 = t[(k + 1, j)];
        t[(k, j)] = t1.scale(c) + s * t2;
        t[(k + 1, j)] = t2.scale(c) - s.conj() * t1;
    }
}

/// `m := m·Gᴴ` on `rows` of columns `k`, `k+1` of an interleaved
/// matrix, as an indexed loop: the reference of [`rotate_split_columns`]
/// (on `Z`) and [`rotate_right_chains`] (on `T`). Test oracle.
#[cfg(test)]
fn rotate_columns_indexed(
    m: &mut CMatrix,
    rows: std::ops::Range<usize>,
    k: usize,
    c: f64,
    s: Complex,
) {
    for i in rows {
        let u = m[(i, k)];
        let v = m[(i, k + 1)];
        m[(i, k)] = u.scale(c) + v * s.conj();
        m[(i, k + 1)] = v.scale(c) - u * s;
    }
}

/// Francis double-shift QR on a real upper-Hessenberg `h`, values only
/// (EISPACK `hqr`, with the exceptional shifts of Wilkinson and of
/// MATLAB's port). Every transform stays inside the active window and
/// in `f64`; `h` is consumed as workspace.
///
/// Returns the eigenvalues in index order; a conjugate pair occupies
/// two adjacent slots, positive imaginary part first, and is exactly
/// conjugate.
fn francis_eigenvalues(mut h: RMatrix) -> Result<Vec<Complex>, NumericError> {
    let nn = h.rows();
    let mut ev = vec![Complex::ZERO; nn];
    if nn == 0 {
        return Ok(ev);
    }
    let eps = f64::EPSILON;
    let max_iters_per_eig =
        crate::fault_budget::qr_iteration_cap().unwrap_or(QR_ITERATIONS_PER_WINDOW);
    // Fallback scale of the deflation test where a diagonal pair is zero.
    let mut norm = 0.0f64;
    for i in 0..nn {
        for j in i.saturating_sub(1)..nn {
            norm += h[(i, j)].abs();
        }
    }
    // Exceptional shifts are subtracted from the leading diagonal and
    // restored as each eigenvalue deflates.
    let mut exshift = 0.0f64;
    let mut n = nn - 1;
    let mut iters_this_window = 0usize;

    loop {
        // Look for a single negligible subdiagonal entry.
        let mut l = n;
        while l > 0 {
            let mut s = h[(l - 1, l - 1)].abs() + h[(l, l)].abs();
            if s == 0.0 {
                s = norm;
            }
            if h[(l, l - 1)].abs() <= eps * s {
                h[(l, l - 1)] = 0.0;
                break;
            }
            l -= 1;
        }

        if l == n {
            // One root.
            ev[n] = c64(h[(n, n)] + exshift, 0.0);
            iters_this_window = 0;
            if n == 0 {
                break;
            }
            n -= 1;
            continue;
        }
        if l + 1 == n {
            // Two roots: the trailing 2×2 block.
            let w = h[(n, n - 1)] * h[(n - 1, n)];
            let p = (h[(n - 1, n - 1)] - h[(n, n)]) / 2.0;
            let q = p * p + w;
            let root = q.abs().sqrt();
            let x = h[(n, n)] + exshift;
            if q >= 0.0 {
                // Real pair.
                let zr = if p >= 0.0 { p + root } else { p - root };
                let upper = x + zr;
                ev[n - 1] = c64(upper, 0.0);
                ev[n] = c64(if zr == 0.0 { upper } else { x - w / zr }, 0.0);
            } else {
                // Conjugate pair.
                ev[n - 1] = c64(x + p, root);
                ev[n] = c64(x + p, -root);
            }
            iters_this_window = 0;
            if n < 2 {
                break;
            }
            n -= 2;
            continue;
        }

        // No convergence yet: one double-shift sweep on rows l..=n.
        iters_this_window += 1;
        if iters_this_window > max_iters_per_eig {
            return Err(NumericError::NoConvergence {
                op: "francis qr",
                iterations: iters_this_window,
            });
        }

        // The shift pair, as the trailing 2×2 block's diagonal and
        // off-diagonal product (x, y, w).
        let mut x = h[(n, n)];
        let mut y = h[(n - 1, n - 1)];
        let mut w = h[(n, n - 1)] * h[(n - 1, n)];
        let spent = iters_this_window - 1;
        if spent > 0 && spent.is_multiple_of(30) {
            // MATLAB's exceptional shift.
            let half = (y - x) / 2.0;
            let disc = half * half + w;
            if disc > 0.0 {
                let root = if y < x { -disc.sqrt() } else { disc.sqrt() };
                let shift = x - w / (half + root);
                for i in 0..=n {
                    h[(i, i)] -= shift;
                }
                exshift += shift;
                x = 0.964;
                y = 0.964;
                w = 0.964;
            }
        } else if spent > 0 && spent.is_multiple_of(10) {
            // Wilkinson's exceptional shift.
            exshift += x;
            for i in 0..=n {
                h[(i, i)] -= x;
            }
            let s = h[(n, n - 1)].abs() + h[(n - 1, n - 2)].abs();
            x = 0.75 * s;
            y = x;
            w = -0.4375 * s * s;
        }

        // Look for two consecutive small subdiagonal entries: the sweep
        // starts at row m.
        let mut m = n - 2;
        let (mut p, mut q, mut r);
        loop {
            let hmm = h[(m, m)];
            let rr = x - hmm;
            let ss = y - hmm;
            p = (rr * ss - w) / h[(m + 1, m)] + h[(m, m + 1)];
            q = h[(m + 1, m + 1)] - hmm - rr - ss;
            r = h[(m + 2, m + 1)];
            let s = p.abs() + q.abs() + r.abs();
            p /= s;
            q /= s;
            r /= s;
            if m == l {
                break;
            }
            let lhs = h[(m, m - 1)].abs() * (q.abs() + r.abs());
            let rhs =
                eps * (p.abs() * (h[(m - 1, m - 1)].abs() + hmm.abs() + h[(m + 1, m + 1)].abs()));
            if lhs < rhs {
                break;
            }
            m -= 1;
        }
        for i in m + 2..=n {
            h[(i, i - 2)] = 0.0;
            if i > m + 2 {
                h[(i, i - 3)] = 0.0;
            }
        }

        // Double QR step on rows l..=n and columns m..=n, chasing the
        // bulge with 3-element Householder reflectors.
        for k in m..n {
            let notlast = k != n - 1;
            if k != m {
                p = h[(k, k - 1)];
                q = h[(k + 1, k - 1)];
                r = if notlast { h[(k + 2, k - 1)] } else { 0.0 };
                x = p.abs() + q.abs() + r.abs();
                if x == 0.0 {
                    continue;
                }
                p /= x;
                q /= x;
                r /= x;
            }
            let mut s = (p * p + q * q + r * r).sqrt();
            if p < 0.0 {
                s = -s;
            }
            if s == 0.0 {
                continue;
            }
            if k != m {
                h[(k, k - 1)] = -s * x;
            } else if l != m {
                h[(k, k - 1)] = -h[(k, k - 1)];
            }
            p += s;
            let (vx, vy, vz) = (p / s, q / s, r / s);
            q /= p;
            r /= p;
            // Row modification.
            for j in k..=n {
                let mut t = h[(k, j)] + q * h[(k + 1, j)];
                if notlast {
                    t += r * h[(k + 2, j)];
                    h[(k + 2, j)] -= t * vz;
                }
                h[(k, j)] -= t * vx;
                h[(k + 1, j)] -= t * vy;
            }
            // Column modification.
            for i in l..=n.min(k + 3) {
                let mut t = vx * h[(i, k)] + vy * h[(i, k + 1)];
                if notlast {
                    t += vz * h[(i, k + 2)];
                    h[(i, k + 2)] -= t * r;
                }
                h[(i, k)] -= t;
                h[(i, k + 1)] -= t * q;
            }
        }
    }
    Ok(ev)
}

/// How many shifts march down the rows together in one back-substitution
/// block. Each row's `T` column then feeds `SHIFT_BLOCK × m` independent
/// axpy streams (instruction-level parallelism the serial per-shift
/// recurrence cannot offer), while the block's stretch of the solution
/// planes (`SHIFT_BLOCK · m · n` reals per plane) stays cache-resident.
/// Callers that feed a sweep in chunks size them as a multiple of it.
pub const SHIFT_BLOCK: usize = 8;

/// Column-sweep back-substitution for a **block** of shifts in lockstep
/// over split-complex scratch planes: for each row `i` (bottom-up) and
/// each of the block's `B·m` columns, finalize `x[i] ← x[i]·dᵢ⁻¹` and
/// push its contribution up into rows `0..i` with one contiguous
/// `x ← x − w·t` axpy — no dot-product reductions, just independent
/// real FMA streams sharing one load of `T`'s column.
///
/// Every shift's arithmetic sequence is independent of the block
/// composition, which is what keeps batched, blocked, and one-at-a-time
/// solves bit-identical.
///
/// `tc_re`/`tc_im` hold the strict upper triangle of `T` column-major
/// (column `i` at offset `i·n`); `x_re`/`x_im` hold `m` columns of
/// length `n` per shift; `inv_diag` holds shift `k`'s pivot inverses at
/// `k·n + i`.
#[allow(clippy::too_many_arguments)]
fn backsub_block(
    tc_re: &[f64],
    tc_im: &[f64],
    inv_diag: &[Complex],
    betas: &[Complex],
    x_re: &mut [f64],
    x_im: &mut [f64],
    n: usize,
    m: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::kernel::fma_available() {
            // SAFETY: feature availability checked on this host. One
            // dispatch per block — every inner loop inlines inside the
            // target-feature context, so results are consistent within
            // any one host, exactly like the GEMM layer.
            unsafe {
                backsub_block_fma(tc_re, tc_im, inv_diag, betas, x_re, x_im, n, m);
            }
            return;
        }
    }
    backsub_block_generic(tc_re, tc_im, inv_diag, betas, x_re, x_im, n, m);
}

/// AVX2+FMA instantiation of [`backsub_block`] (the `target_feature`
/// context keeps the axpy micro-kernel inlined across the whole block
/// instead of paying a call boundary per row).
///
/// # Safety
///
/// Callers must ensure the host CPU supports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn backsub_block_fma(
    tc_re: &[f64],
    tc_im: &[f64],
    inv_diag: &[Complex],
    betas: &[Complex],
    x_re: &mut [f64],
    x_im: &mut [f64],
    n: usize,
    m: usize,
) {
    // Per row: finalize every stream's x[i] first (streams are disjoint
    // columns, so the order is immaterial), then drain the updates in
    // pairs — the two-column axpy shares each load of T's column between
    // two independent FMA streams. `streams` holds (w.re, w.im, column
    // offset) per update.
    let total = betas.len() * m;
    let mut streams: Vec<(f64, f64, usize)> = Vec::with_capacity(total);
    let xr_ptr = x_re.as_mut_ptr();
    let xi_ptr = x_im.as_mut_ptr();
    for i in (0..n).rev() {
        let col_re = &tc_re[i * n..i * n + i];
        let col_im = &tc_im[i * n..i * n + i];
        streams.clear();
        for (k, &beta) in betas.iter().enumerate() {
            let inv = inv_diag[k * n + i];
            for c in 0..m {
                let base = (k * m + c) * n;
                let xi = c64(*xr_ptr.add(base + i), *xi_ptr.add(base + i)) * inv;
                *xr_ptr.add(base + i) = xi.re;
                *xi_ptr.add(base + i) = xi.im;
                // The β factor folds into the update coefficient, so the
                // axpy subtracts β·xᵢ·T[0..i, i] in one pass.
                let w = beta * xi;
                streams.push((w.re, w.im, base));
            }
        }
        // SAFETY: the reconstructed slices live at distinct column
        // offsets (disjoint `base..base+i` ranges, one per stream) of
        // the scratch planes borrowed mutably by this function.
        let mut pairs = streams.chunks_exact(2);
        for pair in &mut pairs {
            let (w, v) = (pair[0], pair[1]);
            crate::kernel::caxpy2_neg_fma(
                w.0,
                w.1,
                v.0,
                v.1,
                col_re,
                col_im,
                std::slice::from_raw_parts_mut(xr_ptr.add(w.2), i),
                std::slice::from_raw_parts_mut(xi_ptr.add(w.2), i),
                std::slice::from_raw_parts_mut(xr_ptr.add(v.2), i),
                std::slice::from_raw_parts_mut(xi_ptr.add(v.2), i),
            );
        }
        for w in pairs.remainder() {
            crate::kernel::caxpy_neg_fma(
                w.0,
                w.1,
                col_re,
                col_im,
                std::slice::from_raw_parts_mut(xr_ptr.add(w.2), i),
                std::slice::from_raw_parts_mut(xi_ptr.add(w.2), i),
            );
        }
    }
}

/// Portable instantiation of [`backsub_block`] (same loop structure as
/// the FMA path; mul/sub instead of fused ops).
#[allow(clippy::too_many_arguments)]
fn backsub_block_generic(
    tc_re: &[f64],
    tc_im: &[f64],
    inv_diag: &[Complex],
    betas: &[Complex],
    x_re: &mut [f64],
    x_im: &mut [f64],
    n: usize,
    m: usize,
) {
    for i in (0..n).rev() {
        let col_re = &tc_re[i * n..i * n + i];
        let col_im = &tc_im[i * n..i * n + i];
        for (k, &beta) in betas.iter().enumerate() {
            let inv = inv_diag[k * n + i];
            for c in 0..m {
                let base = (k * m + c) * n;
                let xi = c64(x_re[base + i], x_im[base + i]) * inv;
                x_re[base + i] = xi.re;
                x_im[base + i] = xi.im;
                let w = beta * xi;
                let (xre, xim) = (&mut x_re[base..base + i], &mut x_im[base..base + i]);
                for ((tr, ti), (xr, xim_e)) in col_re
                    .iter()
                    .zip(col_im)
                    .zip(xre.iter_mut().zip(xim.iter_mut()))
                {
                    let r = *xr - (w.re * *tr - w.im * *ti);
                    let im = *xim_e - (w.re * *ti + w.im * *tr);
                    *xr = r;
                    *xim_e = im;
                }
            }
        }
    }
}

/// Solves `(α·I + β·T) X = B` for upper-triangular `T` by pure
/// back-substitution — `O(n²)` per right-hand side with no factorization
/// work at all, the per-frequency kernel of Schur-form sweeps.
///
/// Entries below the diagonal of `t` are ignored (treated as exact
/// zeros), so a matrix that is triangular "up to roundoff" is handled
/// correctly. The shifted matrix `α·I + β·T` is never materialized: the
/// diagonal is formed on the fly and each row's off-diagonal dot product
/// is scaled by `β` once.
///
/// # Errors
///
/// * [`NumericError::NotSquare`] / [`NumericError::ShapeMismatch`] for
///   inconsistent dimensions;
/// * [`NumericError::Singular`] when some `α + β·Tᵢᵢ` vanishes relative
///   to the magnitude of `α·I + β·T` (for sweep evaluators: `s` hit a
///   pole).
pub fn solve_shifted_triangular(
    t: &CMatrix,
    alpha: Complex,
    beta: Complex,
    b: &CMatrix,
) -> Result<CMatrix, NumericError> {
    // One shift through the multi-shift kernel: a single implementation
    // keeps one-at-a-time and batched solves bit-identical.
    let mut out = ShiftedTriangular::new(t)?.solve(&[(alpha, beta)], b)?;
    out.pop().ok_or(NumericError::InvalidArgument {
        what: "one-shift batch solve produced no solution",
    })
}

/// The largest modulus over the strict upper triangle of `t` — the
/// part of the singularity scale a [`ShiftedTriangular`] computes once
/// for every shift it solves.
fn strict_upper_max_abs(t: &CMatrix) -> f64 {
    let n = t.cols();
    let ts = t.as_slice();
    let mut max_sq = 0.0f64;
    for i in 0..t.rows() {
        for &e in &ts[i * n + (i + 1).min(n)..(i + 1) * n] {
            max_sq = max_sq.max(e.abs_sq());
        }
    }
    max_sq.sqrt()
}

/// An upper-triangular `T` prepared once for many multi-shift solves
/// `(αₖ·I + βₖ·T) Xₖ = B` — the inner kernel of Schur-form frequency
/// sweeps, where every frequency contributes one `(αₖ, βₖ)` pair: its
/// diagonal, its strict upper triangle split into the **column-major**
/// re/im planes the back-substitution streams, and the singularity
/// scale. Entries below the diagonal are ignored.
#[derive(Debug, Clone)]
pub struct ShiftedTriangular {
    diag: Vec<Complex>,
    /// Column `i` of the strict upper triangle at offset `i·n`.
    tc_re: Vec<f64>,
    tc_im: Vec<f64>,
    upper_max: f64,
}

impl ShiftedTriangular {
    /// Prepares `t`.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for a non-square `t`.
    pub fn new(t: &CMatrix) -> Result<Self, NumericError> {
        if !t.is_square() {
            return Err(NumericError::NotSquare {
                op: "triangular batch solve",
                dims: t.dims(),
            });
        }
        let n = t.rows();
        let ts = t.as_slice();
        // The back-substitution runs as a column sweep: finalizing x[i]
        // pushes its contribution up into rows 0..i with one contiguous
        // split-complex axpy — no dot-product reductions at all, just
        // straight-line FMA streams.
        let mut tc_re = vec![0.0f64; n * n];
        let mut tc_im = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..i {
                let z = ts[j * n + i];
                tc_re[i * n + j] = z.re;
                tc_im[i * n + j] = z.im;
            }
        }
        Ok(ShiftedTriangular {
            diag: (0..n).map(|i| ts[i * n + i]).collect(),
            tc_re,
            tc_im,
            upper_max: strict_upper_max_abs(t),
        })
    }

    /// Order `n` of `T`.
    pub fn order(&self) -> usize {
        self.diag.len()
    }

    /// Solves every shift's system. The back-substitution streams each
    /// row tail of `T` across **all** shifts and right-hand-side columns
    /// while it is hot in cache, so the `O(n²)` factor traffic is paid
    /// once per shift block instead of once per shift. Per shift, the
    /// arithmetic (operation order included) never depends on the other
    /// shifts, so batched and one-at-a-time solves produce
    /// **bit-identical** results — the property the deterministic
    /// parallel sweeps in `mfti-statespace` rely on when they split a
    /// sweep into per-worker blocks and chunks.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] when `b` does not have `n` rows;
    /// * [`NumericError::Singular`] if **any** shift makes `αₖ·I + βₖ·T`
    ///   singular to working precision (detected upfront on the diagonal;
    ///   callers that need to know *which* shift hit a pole solve each
    ///   shift alone).
    pub fn solve(
        &self,
        shifts: &[(Complex, Complex)],
        b: &CMatrix,
    ) -> Result<Vec<CMatrix>, NumericError> {
        let n = self.order();
        let m = b.cols();
        if n == 0 || shifts.is_empty() {
            self.check_rhs(b)?;
            return Ok(vec![b.clone(); shifts.len()]);
        }
        let x = self.solve_split(shifts, b)?;
        let (x_re, x_im) = (&x.re, &x.im);
        (0..shifts.len())
            .map(|k| {
                let mut data = Vec::with_capacity(n * m);
                for i in 0..n {
                    for c in 0..m {
                        let at = (k * m + c) * n + i;
                        data.push(c64(x_re[at], x_im[at]));
                    }
                }
                CMatrix::from_vec(n, m, data)
            })
            .collect()
    }

    /// Solves every shift's system and returns the solutions as the
    /// right operand of a product, `[X₁ … X_K]` split
    /// ([`SplitOperand`]): row `k·m + c` holds column `c` of `Xₖ`. That is
    /// the layout the back-substitution already works in, so
    /// `kernel::mul_split(&c, &solutions)` computes `C·[X₁ … X_K]` — bit
    /// for bit `kernel::mul_blocked` of `C` and the side-by-side
    /// solutions — without building a single `Xₖ`.
    ///
    /// # Errors
    ///
    /// As [`ShiftedTriangular::solve`].
    pub fn solve_split(
        &self,
        shifts: &[(Complex, Complex)],
        b: &CMatrix,
    ) -> Result<SplitOperand, NumericError> {
        self.check_rhs(b)?;
        let n = self.order();
        let m = b.cols();
        let k_shifts = shifts.len();

        // Pivot pass: every shift's diagonal and singularity cut, up front.
        // (A triangular matrix with a vanishing diagonal entry is singular
        // no matter how large the off-diagonal part — but the cut must be
        // *relative* to that part, or mildly scaled systems would pass.)
        let mut inv_diag: Vec<Complex> = Vec::with_capacity(k_shifts * n);
        for &(alpha, beta) in shifts {
            let mut scale_sq = (beta.abs() * self.upper_max).powi(2).max(f64::MIN_POSITIVE);
            for &t_ii in &self.diag {
                scale_sq = scale_sq.max((alpha + beta * t_ii).abs_sq());
            }
            let cut_sq = (f64::EPSILON * f64::EPSILON) * scale_sq;
            for &t_ii in &self.diag {
                let d = alpha + beta * t_ii;
                if d.abs_sq() <= cut_sq {
                    return Err(NumericError::Singular {
                        op: "triangular batch solve",
                    });
                }
                inv_diag.push(d.recip());
            }
        }

        // Blocks of SHIFT_BLOCK shifts march down the rows in lockstep,
        // each in its own stretch of the solution planes: each load of a
        // `T` column feeds the whole block's independent axpy streams,
        // and the block's columns stay cache-resident across the sweep.
        let bs = b.as_slice();
        let mut x_re = vec![0.0f64; k_shifts * m * n];
        let mut x_im = vec![0.0f64; k_shifts * m * n];
        let block_entries = SHIFT_BLOCK * m * n;
        let planes = x_re
            .chunks_mut(block_entries.max(1))
            .zip(x_im.chunks_mut(block_entries.max(1)));
        for (kb, (block, (x_re, x_im))) in shifts.chunks(SHIFT_BLOCK).zip(planes).enumerate() {
            for k in 0..block.len() {
                for c in 0..m {
                    let base = (k * m + c) * n;
                    for i in 0..n {
                        let z = bs[i * m + c];
                        x_re[base + i] = z.re;
                        x_im[base + i] = z.im;
                    }
                }
            }
            let betas: Vec<Complex> = block.iter().map(|&(_, beta)| beta).collect();
            let inv_block = &inv_diag[kb * SHIFT_BLOCK * n..(kb * SHIFT_BLOCK + block.len()) * n];
            backsub_block(
                &self.tc_re,
                &self.tc_im,
                inv_block,
                &betas,
                x_re,
                x_im,
                n,
                m,
            );
        }
        Ok(SplitOperand::from_planes(k_shifts * m, n, x_re, x_im))
    }

    fn check_rhs(&self, b: &CMatrix) -> Result<(), NumericError> {
        let n = self.order();
        if b.rows() != n {
            return Err(NumericError::ShapeMismatch {
                op: "triangular batch solve",
                left: (n, n),
                right: b.dims(),
            });
        }
        Ok(())
    }
}

/// Right eigenvector matrix of an upper-triangular `t` with
/// (near-)distinct diagonal: returns an upper-triangular `V` with
/// unit-2-norm columns satisfying `T·V ≈ V·diag(T)`, computed column by
/// column with one back-substitution each (`O(n³/6)` total).
///
/// Returns `None` when two diagonal entries are too close for a stable
/// division (clustered or defective spectrum) — callers that wanted to
/// diagonalize a sweep fall back to per-point back-substitution, which
/// works for every matrix. Closeness is judged relative to the largest
/// eigenvalue magnitude; the resulting `V` can still be arbitrarily
/// ill-conditioned, so callers must validate (e.g. probe-point
/// comparison against the non-diagonalized path) before trusting it.
pub fn triangular_right_eigenvectors(t: &CMatrix) -> Option<CMatrix> {
    if !t.is_square() {
        return None;
    }
    let n = t.rows();
    let ts = t.as_slice();
    let lam_scale = (0..n)
        .map(|i| ts[i * n + i].abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    let sep_floor = 1e-14 * lam_scale;
    let mut v = vec![Complex::ZERO; n * n];
    let mut col: Vec<Complex> = Vec::new();
    for k in 0..n {
        let lam = ts[k * n + k];
        col.clear();
        col.resize(k + 1, Complex::ZERO);
        col[k] = Complex::ONE;
        for i in (0..k).rev() {
            let mut acc = Complex::ZERO;
            for (j, &v_j) in col.iter().enumerate().take(k + 1).skip(i + 1) {
                acc += ts[i * n + j] * v_j;
            }
            let denom = lam - ts[i * n + i];
            if denom.abs() <= sep_floor {
                return None;
            }
            col[i] = acc / denom;
        }
        let norm = col.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
        if !norm.is_finite() || norm == 0.0 {
            return None;
        }
        let inv_norm = norm.recip();
        for (i, &v_i) in col.iter().enumerate() {
            v[i * n + k] = v_i.scale(inv_norm);
        }
    }
    CMatrix::from_vec(n, n, v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::oracle::{apply_specials, complex_entries, same_complex_bits, specials, uniform};
    use crate::solve::solve;
    use proptest::prelude::*;

    fn pseudo_random(n: usize, cols: usize, mut seed: u64) -> CMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(n, cols, |_, _| c64(next(), next()))
    }

    fn assert_schur_of(a: &CMatrix, schur: &Schur, tol: f64) {
        let n = a.rows();
        // T upper triangular (exactly, by construction).
        for i in 0..n {
            for j in 0..i {
                assert_eq!(schur.t()[(i, j)], Complex::ZERO, "T not triangular");
            }
        }
        // Z unitary.
        let ztz = schur.z().adjoint().matmul(schur.z()).unwrap();
        assert!(ztz.approx_eq(&CMatrix::identity(n), 1e-12), "Z not unitary");
        // Reconstruction.
        let back = schur
            .z()
            .matmul(schur.t())
            .unwrap()
            .mul_adjoint_right(schur.z())
            .unwrap();
        let rel = (&back - a).norm_fro() / a.norm_fro().max(f64::MIN_POSITIVE);
        assert!(rel < tol, "reconstruction residual {rel:.2e}");
    }

    #[test]
    fn split_solutions_feed_the_output_product_with_the_blocked_bits() {
        let t = pseudo_random(23, 23, 0x51);
        let b = pseudo_random(23, 3, 0x52);
        let c = pseudo_random(4, 23, 0x53);
        let shifts: Vec<(Complex, Complex)> = (0..19)
            .map(|k| (Complex::ONE, c64(0.1 * k as f64, 1.0 + k as f64)))
            .collect();
        let tri = ShiftedTriangular::new(&t).unwrap();
        let xs = tri.solve(&shifts, &b).unwrap();
        let wide = CMatrix::hstack(&xs.iter().collect::<Vec<_>>()).unwrap();
        let want = crate::kernel::mul_blocked(&c, &wide).unwrap();
        let split = tri.solve_split(&shifts, &b).unwrap();
        let got = crate::kernel::mul_split(&crate::kernel::SplitOperand::left(&c), &split).unwrap();
        assert!(same_complex_bits(got.as_slice(), want.as_slice()));
    }

    #[test]
    fn schur_of_random_dense_matrix_reconstructs() {
        for (n, seed) in [(2usize, 0x11u64), (5, 0x22), (12, 0x33), (24, 0x44)] {
            let a = pseudo_random(n, n, seed);
            let schur = Schur::compute(&a).unwrap();
            assert_schur_of(&a, &schur, 1e-12);
        }
    }

    #[test]
    fn schur_eigenvalues_match_qr_eigenvalues() {
        let a = pseudo_random(9, 9, 0x55);
        let mut from_schur = Schur::compute(&a).unwrap().eigenvalues();
        let mut from_qr = crate::eig::eigenvalues(&a).unwrap();
        let key = |z: &Complex| (z.re, z.im);
        from_schur.sort_by(|x, y| key(x).partial_cmp(&key(y)).unwrap());
        from_qr.sort_by(|x, y| key(x).partial_cmp(&key(y)).unwrap());
        for (s, q) in from_schur.iter().zip(&from_qr) {
            assert!((*s - *q).abs() < 1e-9, "eigenvalue mismatch: {s} vs {q}");
        }
    }

    #[test]
    fn from_hessenberg_starts_at_the_original_basis() {
        let a = pseudo_random(10, 10, 0x66);
        let hess = Hessenberg::compute(&a).unwrap();
        let schur = Schur::from_hessenberg(&hess).unwrap();
        assert_schur_of(&a, &schur, 1e-12);
    }

    fn pseudo_random_real(n: usize, mut seed: u64) -> RMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        RMatrix::from_fn(n, n, |_, _| next())
    }

    #[test]
    fn real_values_only_pairs_are_exact_conjugates() {
        let a = pseudo_random_real(15, 0x18);
        let ev = crate::eig::eigenvalues(&a).unwrap();
        let mut i = 0;
        while i < ev.len() {
            if ev[i].im == 0.0 {
                i += 1;
                continue;
            }
            assert!(ev[i].im > 0.0, "positive imaginary part first");
            assert_eq!(ev[i + 1], ev[i].conj());
            i += 2;
        }
    }

    #[test]
    fn complex_values_only_iteration_matches_the_diagonal() {
        let h = CMatrix::from_diag(&[c64(1.0, 1.0), c64(2.0, -2.0), c64(3.0, 0.0)]);
        let mut ev = complex_eigenvalues(h).unwrap();
        ev.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        assert!((ev[0] - c64(1.0, 1.0)).abs() < 1e-12);
        assert!((ev[2] - c64(3.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn values_only_iterations_converge_on_near_jordan_blocks() {
        // Eigenvalue 2 with multiplicity 3, perturbed by ε = 1e-8 on the
        // subdiagonal: the true eigenvalues sit ~1e-4 from 2 (O(ε^{1/3})).
        let mut h = CMatrix::zeros(3, 3);
        for i in 0..3 {
            h[(i, i)] = c64(2.0, 0.0);
            if i + 1 < 3 {
                h[(i, i + 1)] = c64(1.0, 0.0);
            }
        }
        h[(1, 0)] = c64(1e-8, 0.0);
        h[(2, 1)] = c64(1e-8, 0.0);
        for e in complex_eigenvalues(h.clone()).unwrap() {
            assert!((e - c64(2.0, 0.0)).abs() < 1e-3, "eigenvalue {e}");
        }
        for e in real_eigenvalues(h.real_part()).unwrap() {
            assert!((e - c64(2.0, 0.0)).abs() < 1e-3, "eigenvalue {e}");
        }
    }

    #[test]
    fn zrotg_annihilates_second_entry() {
        let cases = [
            (c64(1.0, 2.0), c64(-3.0, 0.5)),
            (c64(0.0, 0.0), c64(2.0, -1.0)),
            (c64(4.0, 0.0), c64(0.0, 0.0)),
            (c64(-1e-8, 1e-8), c64(1e8, -1e8)),
        ];
        for (a, b) in cases {
            let (c, s, r) = zrotg(a, b);
            // G [a; b] = [r; 0]
            let top = a.scale(c) + s * b;
            let bot = b.scale(c) - s.conj() * a;
            assert!(
                (top - r).abs() < 1e-9 * r.abs().max(1.0),
                "top residual for ({a},{b})"
            );
            assert!(
                bot.abs() < 1e-9 * (a.abs() + b.abs()).max(1.0),
                "bottom {bot}"
            );
            // Unitarity: c² + |s|² = 1.
            assert!((c * c + s.abs_sq() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn wilkinson_shift_picks_eigenvalue_near_d() {
        // [[0, 1], [1, 10]]: eigenvalues ≈ -0.0990, 10.0990.
        let mu = wilkinson_shift(c64(0.0, 0.0), c64(1.0, 0.0), c64(1.0, 0.0), c64(10.0, 0.0));
        assert!((mu.re - 10.099).abs() < 1e-2, "shift {mu}");
    }

    #[test]
    fn tiny_and_empty_matrices() {
        let empty = Schur::compute(&CMatrix::zeros(0, 0)).unwrap();
        assert!(empty.eigenvalues().is_empty());
        let one = CMatrix::from_rows(&[vec![c64(3.0, -1.0)]]).unwrap();
        let schur = Schur::compute(&one).unwrap();
        assert_eq!(schur.t()[(0, 0)], c64(3.0, -1.0));
        assert_eq!(schur.z()[(0, 0)], Complex::ONE);
    }

    #[test]
    fn defective_matrix_still_triangularizes() {
        // Jordan block: defective (one eigenvector), but the Schur form
        // exists for every matrix.
        let mut a = CMatrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = c64(2.0, 1.0);
            if i + 1 < 4 {
                a[(i, i + 1)] = Complex::ONE;
            }
        }
        let schur = Schur::compute(&a).unwrap();
        assert_schur_of(&a, &schur, 1e-12);
    }

    #[test]
    fn triangular_solve_matches_dense_lu() {
        let a = pseudo_random(11, 11, 0x77);
        let schur = Schur::compute(&a).unwrap();
        let b = pseudo_random(11, 3, 0x78);
        let bt = schur.z().mul_hermitian_left(&b).unwrap();
        let (alpha, beta) = (c64(0.9, 0.4), c64(-0.3, 1.1));
        let x = solve_shifted_triangular(schur.t(), alpha, beta, &bt).unwrap();
        let x_full = schur.z().matmul(&x).unwrap();
        // Dense reference: (α·I + β·A) X = B.
        let mut dense = a.map(|z| z * beta);
        for i in 0..11 {
            dense[(i, i)] += alpha;
        }
        let want = solve(&dense, &b).unwrap();
        assert!(x_full.approx_eq(&want, 1e-10));
    }

    #[test]
    fn singular_shift_is_reported() {
        let t = CMatrix::from_diag(&[c64(1.0, 0.0), c64(2.0, 0.0)]);
        let b = CMatrix::identity(2);
        let err = solve_shifted_triangular(&t, c64(-2.0, 0.0), Complex::ONE, &b).unwrap_err();
        assert!(matches!(err, NumericError::Singular { .. }));
    }

    #[test]
    fn near_singular_shift_relative_to_offdiagonal_is_reported() {
        // Diagonal ~1e-20 but off-diagonal O(1): singular to working
        // precision relative to the matrix magnitude.
        let t = CMatrix::from_rows(&[
            vec![c64(1e-20, 0.0), c64(1.0, 0.0)],
            vec![Complex::ZERO, c64(1e-20, 0.0)],
        ])
        .unwrap();
        let b = CMatrix::identity(2);
        let err = solve_shifted_triangular(&t, Complex::ZERO, Complex::ONE, &b).unwrap_err();
        assert!(matches!(err, NumericError::Singular { .. }));
    }

    #[test]
    fn shape_errors_are_rejected() {
        let rect = CMatrix::zeros(2, 3);
        let b1 = CMatrix::zeros(2, 1);
        assert!(solve_shifted_triangular(&rect, Complex::ONE, Complex::ONE, &b1).is_err());
        let t = CMatrix::identity(3);
        let b2 = CMatrix::zeros(2, 1);
        assert!(solve_shifted_triangular(&t, Complex::ONE, Complex::ONE, &b2).is_err());
        assert!(Schur::compute(&rect).is_err());
    }

    #[test]
    fn zero_dimension_solve_passes_through() {
        let t = CMatrix::zeros(0, 0);
        let b = CMatrix::zeros(0, 0);
        let x = solve_shifted_triangular(&t, Complex::ONE, Complex::ONE, &b).unwrap();
        assert_eq!(x.dims(), (0, 0));
    }

    #[test]
    fn batch_solve_is_bit_identical_to_scalar_solves() {
        let a = pseudo_random(17, 17, 0x99);
        let schur = Schur::compute(&a).unwrap();
        let (tm, _) = schur.into_parts();
        let b = pseudo_random(17, 3, 0x9a);
        let shifts: Vec<(Complex, Complex)> = (0..29)
            .map(|k| (Complex::ONE, c64(0.05 * k as f64, -0.3 + 0.07 * k as f64)))
            .collect();
        let batch = ShiftedTriangular::new(&tm)
            .unwrap()
            .solve(&shifts, &b)
            .unwrap();
        for (&(alpha, beta), x_batch) in shifts.iter().zip(&batch) {
            let x_scalar = solve_shifted_triangular(&tm, alpha, beta, &b).unwrap();
            assert!(
                x_batch
                    .as_slice()
                    .iter()
                    .zip(x_scalar.as_slice())
                    .all(|(p, q)| p.re.to_bits() == q.re.to_bits()
                        && p.im.to_bits() == q.im.to_bits()),
                "batch and scalar solves differ in bits"
            );
        }
    }

    #[test]
    fn batch_solve_flags_a_singular_shift() {
        let tm = CMatrix::from_diag(&[c64(1.0, 0.0), c64(2.0, 0.0)]);
        let b = CMatrix::identity(2);
        let shifts = [
            (Complex::ONE, Complex::ONE),
            (c64(-2.0, 0.0), Complex::ONE), // hits the λ = 2 pivot
        ];
        let err = ShiftedTriangular::new(&tm)
            .unwrap()
            .solve(&shifts, &b)
            .unwrap_err();
        assert!(matches!(err, NumericError::Singular { .. }));
    }

    #[test]
    fn batch_solve_handles_empty_inputs() {
        let tm = CMatrix::identity(3);
        let b = CMatrix::zeros(3, 2);
        let tri = ShiftedTriangular::new(&tm).unwrap();
        assert!(tri.solve(&[], &b).unwrap().is_empty());
        assert!(tri.solve_split(&[], &b).unwrap().re.is_empty());
    }

    #[test]
    fn triangular_eigenvectors_diagonalize_separated_spectra() {
        let n = 14;
        let a = pseudo_random(n, n, 0xabc);
        let schur = Schur::compute(&a).unwrap();
        let (tm, _) = schur.into_parts();
        let v = triangular_right_eigenvectors(&tm).expect("random spectra are separated");
        // V upper triangular with unit columns.
        for i in 0..n {
            for j in 0..i {
                assert_eq!(v[(i, j)], Complex::ZERO);
            }
            let norm: f64 = (0..n).map(|r| v[(r, i)].abs_sq()).sum();
            assert!((norm - 1.0).abs() < 1e-12);
        }
        // T·V = V·diag(T), column by column.
        let tv = tm.matmul(&v).unwrap();
        for k in 0..n {
            let lam = tm[(k, k)];
            for i in 0..n {
                let resid = (tv[(i, k)] - v[(i, k)] * lam).abs();
                assert!(resid < 1e-10, "eigen residual {resid:.2e} at ({i},{k})");
            }
        }
    }

    #[test]
    fn triangular_eigenvectors_reject_repeated_eigenvalues() {
        // A Jordan block has a defective (repeated) diagonal: no full
        // eigenvector basis exists and the routine must bail out.
        let mut t = CMatrix::zeros(4, 4);
        for i in 0..4 {
            t[(i, i)] = c64(1.0, 1.0);
            if i + 1 < 4 {
                t[(i, i + 1)] = Complex::ONE;
            }
        }
        assert!(triangular_right_eigenvectors(&t).is_none());
        assert!(triangular_right_eigenvectors(&CMatrix::zeros(2, 3)).is_none());
    }

    /// An `n × n` upper-Hessenberg matrix with entries in `[-1, 1)²`
    /// (real when `real`) and [`apply_specials`]`(specials)` on top;
    /// for even seeds the subdiagonal entry of row `n/3` is shrunk to
    /// `1e-17` relative, so that the first window is an interior one.
    fn oracle_hessenberg(n: usize, seed: u64, specials: &[(u32, u8)], real: bool) -> CMatrix {
        let mut next = uniform(seed);
        let mut h = CMatrix::from_fn(n, n, |i, j| {
            let z = c64(next(), if real { 0.0 } else { next() });
            match i {
                _ if i > j + 1 => Complex::ZERO,
                _ if i == j + 1 && i == n / 3 && seed.is_multiple_of(2) => z.scale(1e-17),
                _ => z,
            }
        });
        apply_specials(h.as_mut_slice(), specials);
        h
    }

    /// Runs the Schur iteration and its indexed oracle on the same
    /// `(T, Z)` and checks that outcome, `T` and `Z` agree bit for bit;
    /// then the same for the values-only mode (eigenvalues and `T`).
    fn assert_schur_iterations_agree(h: &CMatrix, z0: &CMatrix) {
        let (mut t_want, mut z_want) = (h.clone(), z0.clone());
        let want = complex_qr_indexed(&mut t_want, Some(&mut z_want));
        let (mut t_got, mut zt) = (h.clone(), SplitTranspose::of(z0));
        let got = complex_qr(&mut t_got, Some(&mut zt));
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "outcome");
        assert!(
            same_complex_bits(t_got.as_slice(), t_want.as_slice()),
            "T bits"
        );
        let z_got = zt.into_matrix();
        assert!(
            same_complex_bits(z_got.as_slice(), z_want.as_slice()),
            "Z bits"
        );

        let (mut t_want, mut t_got) = (h.clone(), h.clone());
        let want = complex_qr_indexed(&mut t_want, None);
        let got = complex_qr(&mut t_got, None);
        assert_eq!(want.is_ok(), got.is_ok(), "values-only outcome");
        if let (Ok(want), Ok(got)) = (want, got) {
            assert!(same_complex_bits(&got, &want), "eigenvalue bits");
        }
        assert!(
            same_complex_bits(t_got.as_slice(), t_want.as_slice()),
            "values-only T bits"
        );
    }

    #[test]
    fn split_transpose_round_trips() {
        let z = CMatrix::from_vec(5, 5, complex_entries(25, 0x5e, &[(3, 0), (8, 3)])).unwrap();
        let back = SplitTranspose::of(&z).into_matrix();
        assert!(same_complex_bits(back.as_slice(), z.as_slice()));
        assert_eq!(
            SplitTranspose::of(&CMatrix::zeros(0, 0))
                .into_matrix()
                .dims(),
            (0, 0)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row-pair kernel of the left rotations against the
        /// indexed loop, special values included.
        #[test]
        fn rotate_rows_matches_the_indexed_loop(
            (n, k, col_end) in (2usize..40).prop_flat_map(|n| (Just(n), 0..n - 1))
                .prop_flat_map(|(n, k)| (Just(n), Just(k), k + 1..=n)),
            seed in 0u64..1_000_000,
            specials in specials(4, 0..5),
        ) {
            let t = CMatrix::from_vec(n, n, complex_entries(n * n, seed, &specials)).unwrap();
            let rot = complex_entries(2, seed + 1, &specials[..specials.len().min(1)]);
            let (c, s) = (rot[0].re, rot[1]);
            let mut want = t.clone();
            rotate_rows_indexed(&mut want, k, col_end, c, s);
            let mut got = t;
            let (top, bottom) = got.as_mut_slice()[k * n..(k + 2) * n].split_at_mut(n);
            rotate_rows(&mut top[k + 1..col_end], &mut bottom[k + 1..col_end], c, s);
            prop_assert!(same_complex_bits(got.as_slice(), want.as_slice()));
        }

        /// The right rotations of a whole sweep, as row chains, against
        /// the indexed column-pair loop run rotation by rotation, for
        /// Schur-mode (`row_start = 0`) and window-only row ranges.
        #[test]
        fn rotate_right_chains_match_the_indexed_loop(
            (n, lo, hi) in (2usize..40)
                .prop_flat_map(|n| (Just(n), 0..n - 1))
                .prop_flat_map(|(n, lo)| (Just(n), Just(lo), lo + 1..n)),
            window_rows in 0u8..2,
            seed in 0u64..1_000_000,
            specials in specials(4, 0..5),
        ) {
            let t = CMatrix::from_vec(n, n, complex_entries(n * n, seed, &specials)).unwrap();
            let rot_entries = complex_entries(2 * (hi - lo), seed + 1, &specials);
            let rot: Vec<(f64, Complex)> =
                rot_entries.chunks_exact(2).map(|p| (p[0].re, p[1])).collect();
            let row_start = if window_rows == 1 { lo } else { 0 };
            let mut want = t.clone();
            for (idx, &(c, s)) in rot.iter().enumerate() {
                let k = lo + idx;
                rotate_columns_indexed(&mut want, row_start..k + 2, k, c, s);
            }
            let mut got = t;
            rotate_right_chains(got.as_mut_slice(), n, lo, row_start, &rot);
            prop_assert!(same_complex_bits(got.as_slice(), want.as_slice()));
        }

        /// The split-plane accumulation kernel against the indexed
        /// column-pair loop over an interleaved `Z`.
        #[test]
        fn rotate_split_columns_matches_the_indexed_loop(
            (n, k) in (2usize..40).prop_flat_map(|n| (Just(n), 0..n - 1)),
            seed in 0u64..1_000_000,
            specials in specials(4, 0..5),
        ) {
            let z = CMatrix::from_vec(n, n, complex_entries(n * n, seed, &specials)).unwrap();
            let rot = complex_entries(2, seed + 1, &specials[..specials.len().min(1)]);
            let (c, s) = (rot[0].re, rot[1]);
            let mut want = z.clone();
            rotate_columns_indexed(&mut want, 0..n, k, c, s);
            let mut zt = SplitTranspose::of(&z);
            zt.rotate(k, c, s);
            prop_assert!(same_complex_bits(zt.into_matrix().as_slice(), want.as_slice()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The whole Schur iteration against its indexed oracle, on
        /// random Hessenberg matrices up to n = 128 with −0.0 and
        /// subnormal entries: identical `T` and `Z` bits.
        #[test]
        fn schur_iteration_matches_the_indexed_oracle(
            n in (0u8..2, 1usize..=24, 25usize..=128)
                .prop_map(|(large, small_n, large_n)| if large == 1 { large_n } else { small_n }),
            seed in 0u64..1_000_000,
            specials in specials(6, 3..5),
            real in 0u8..2,
        ) {
            let h = oracle_hessenberg(n, seed, &specials, real == 1);
            let z0 = oracle_hessenberg(n, seed + 7, &[], real == 1);
            assert_schur_iterations_agree(&h, &z0);
        }

        /// NaN and ±∞ entries: both iterations fail (or finish) alike.
        #[test]
        fn schur_iteration_matches_the_oracle_on_non_finite_input(
            n in 1usize..=12,
            seed in 0u64..1_000_000,
            specials in specials(3, 0..5),
        ) {
            let h = oracle_hessenberg(n, seed, &specials, false);
            let z0 = oracle_hessenberg(n, seed + 7, &specials, false);
            assert_schur_iterations_agree(&h, &z0);
        }
    }
}
