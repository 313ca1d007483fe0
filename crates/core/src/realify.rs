//! Realification of the Loewner pencil (paper Lemma 3.2).
//!
//! With conjugate triples adjacent and equal block widths within each
//! pair, the block-diagonal unitary
//!
//! ```text
//! T = blkdiag(T_1, T_3, …),   T_i = (1/√2) [[I_t, −jI_t], [I_t, jI_t]]
//! ```
//!
//! turns `−T*𝕃T`, `−T*σ𝕃T`, `T*V` and `WT` into **real** matrices, so
//! the final state-space model has real coefficients — a hard
//! requirement for circuit back-ends (SPICE stamping).
//!
//! Every partner triple of [`TangentialData`] is its first member's
//! conjugate (`−λ`, `conj W`, the same real directions), and IEEE
//! rounding is symmetric under a sign change, so every partner row of
//! `𝕃` and `σ𝕃` is its first-member row's exact conjugate under the
//! swap of each column pair. [`RealifiedPencil::build`] therefore
//! assembles only the first-member rows and forms each partner row from
//! them, with the bits of [`realify`] over the complex pencil and no
//! complex `K × K` matrix. [`realify`] stays as its oracle, in the
//! plainest form that keeps those bits: the two-step structured product
//! `(T*X)·T` of each pencil matrix, then the real parts.

use mfti_numeric::{c64, kernel, parallel, CMatrix, Complex, RMatrix};

use crate::data::TangentialData;
use crate::error::MftiError;
use crate::loewner::{
    cauchy_row, left_stack, right_stack, LoewnerPencil, PairList, PAR_MIN_ENTRIES,
};

/// The pencil after Lemma 3.2: everything real.
#[derive(Debug, Clone)]
pub struct RealifiedPencil {
    ll: RMatrix,
    sll: RMatrix,
    w: RMatrix,
    v: RMatrix,
    max_imag_residual: f64,
    pairs: PairList,
}

impl RealifiedPencil {
    /// The realified pencil over all sample pairs of `data`, assembled
    /// straight from the data: bit for bit
    /// `realify(&LoewnerPencil::build(data), tol)`, at every thread
    /// count, without forming the complex pencil (module docs). Each
    /// pair's first-member rows of `𝕃` and `σ𝕃` come from the same
    /// blocked products and divided differences as the complex
    /// assembly, and each is realified together with its partner row
    /// before the next is assembled.
    ///
    /// # Errors
    ///
    /// Propagates matrix-shape failures (impossible for data built by
    /// [`TangentialData::build`]).
    pub fn build(data: &TangentialData) -> Result<Self, MftiError> {
        let all: Vec<usize> = (0..data.num_pairs()).collect();
        Self::empty(data).slide(0, data, &all)
    }

    /// The pencil over no pairs, in `data`'s frequency normalization:
    /// the start every build slides from.
    pub(crate) fn empty(data: &TangentialData) -> Self {
        let (p, m) = data.ports();
        RealifiedPencil {
            ll: RMatrix::zeros(0, 0),
            sll: RMatrix::zeros(0, 0),
            w: RMatrix::zeros(p, 0),
            v: RMatrix::zeros(0, m),
            max_imag_residual: 0.0,
            pairs: PairList::empty(data),
        }
    }

    /// [`LoewnerPencil::slide`]'s window step in real arithmetic, with
    /// the bits of realifying the slid complex pencil: the surviving
    /// block is copied and only the new strips are assembled and
    /// realified — `O(K·k_new)` entries. `T` is block-diagonal per pair,
    /// so a realified block over whole pairs depends only on those
    /// pairs' complex entries.
    ///
    /// As for the complex pencil, `data` holds every pair of the next
    /// pencil at the renumbered indices — a window that dropped the
    /// evicted prefix, or the same data when nothing is evicted — and
    /// the survivors' triples are read from it.
    ///
    /// # Errors
    ///
    /// The refusals of [`LoewnerPencil::slide`].
    pub(crate) fn slide(
        &self,
        evict_pairs: usize,
        data: &TangentialData,
        new_pairs: &[usize],
    ) -> Result<Self, MftiError> {
        let (pairs, k_drop) = self.pairs.slide(evict_pairs, data, new_pairs)?;
        let (k, k_keep) = (pairs.order(), self.order() - k_drop);
        let n_keep = pairs.included.len() - new_pairs.len();
        let new_ts = &pairs.ts[n_keep..];
        let (p, m) = data.ports();
        let inv_scale = 1.0 / pairs.freq_scale;

        // Column operands of every pair, row operands of each pair's
        // first member only, and the complex assembly's blocked
        // products restricted to those rows: surviving rows over the
        // new columns, new rows over every column.
        let (w, r, lambdas) = right_stack(data, &pairs.included, inv_scale)?;
        let w_new = w.submatrix(0, k_keep, p, k - k_keep)?;
        let r_new = r.submatrix(0, k_keep, m, k - k_keep)?;
        let (v_keep, l_keep, mus_keep) =
            left_stack(data, &pairs.included[..n_keep], inv_scale, true)?;
        let (v_new, l_new, mus_new) = left_stack(data, new_pairs, inv_scale, true)?;
        let keep = (
            kernel::mul_blocked(&v_keep, &r_new)?,
            kernel::mul_blocked(&l_keep, &w_new)?,
        );
        let fresh = (
            kernel::mul_blocked(&v_new, &r)?,
            kernel::mul_blocked(&l_new, &w)?,
        );

        // One task per pair: its 2t realified rows are contiguous, and
        // each is a pure function of its first-member rows — the same
        // bits for every worker count.
        let workers = if k * k - k_keep * k_keep < PAR_MIN_ENTRIES {
            1
        } else {
            parallel::available_threads()
        };
        let mut ll = vec![0.0f64; k * k];
        let mut sll = vec![0.0f64; k * k];
        let mut tasks = Vec::with_capacity(pairs.ts.len());
        let (mut ll_rest, mut sll_rest) = (&mut ll[..], &mut sll[..]);
        let (mut off, mut half) = (0, 0);
        for (q, &t) in pairs.ts.iter().enumerate() {
            if q == n_keep {
                half = 0;
            }
            let (ll_rows, tail) = std::mem::take(&mut ll_rest).split_at_mut(2 * t * k);
            ll_rest = tail;
            let (sll_rows, tail) = std::mem::take(&mut sll_rest).split_at_mut(2 * t * k);
            sll_rest = tail;
            tasks.push(((off, half, t), [ll_rows, sll_rows]));
            off += 2 * t;
            half += t;
        }
        parallel::for_each_mut(workers, &mut tasks, |q, ((off, half, t), outs)| {
            let (off, half, t) = (*off, *half, *t);
            // A surviving pair copies its surviving block and assembles
            // its new columns; a new pair assembles whole rows.
            let (c0, (vr, lw), mus, col_ts) = if q < n_keep {
                for (out, prev) in outs.iter_mut().zip([&self.ll, &self.sll]) {
                    for (row, out_row) in out.chunks_exact_mut(k).enumerate() {
                        out_row[..k_keep].copy_from_slice(&prev.row(k_drop + off + row)[k_drop..]);
                    }
                }
                (k_keep, &keep, &mus_keep, new_ts)
            } else {
                (0, &fresh, &mus_new, &pairs.ts[..])
            };
            let mut first = [vec![Complex::ZERO; k - c0], vec![Complex::ZERO; k - c0]];
            for i in 0..t {
                let h = half + i;
                let [a_ll, a_sll] = &mut first;
                cauchy_row(mus[h], vr.row(h), lw.row(h), &lambdas[c0..], a_ll, a_sll);
                for (a, out) in first.iter().zip(outs.iter_mut()) {
                    let (top, bottom) = out.split_at_mut(t * k);
                    let rows = [
                        &mut top[i * k + c0..(i + 1) * k],
                        &mut bottom[i * k + c0..(i + 1) * k],
                    ];
                    realify_first_row(a, col_ts, rows);
                }
            }
        });

        // The thin data realify as the complex pencil's do, from the
        // partner triples the data already holds.
        let (v_both, _, _) = left_stack(data, new_pairs, inv_scale, false)?;
        let w_real = RMatrix::hstack(&[
            &self.w.submatrix(0, k_drop, p, k_keep)?,
            &apply_t_right(&w_new, new_ts).real_part(),
        ])?;
        let v_real = RMatrix::vstack(&[
            &self.v.submatrix(k_drop, 0, k_keep, m)?,
            &apply_t_adjoint_left(&v_both, new_ts).real_part(),
        ])?;
        Ok(RealifiedPencil {
            ll: RMatrix::from_vec(k, k, ll)?,
            sll: RMatrix::from_vec(k, k, sll)?,
            w: w_real,
            v: v_real,
            max_imag_residual: 0.0,
            pairs,
        })
    }

    /// Real Loewner matrix `T*𝕃T`.
    pub fn ll(&self) -> &RMatrix {
        &self.ll
    }
    /// Real shifted Loewner matrix `T*σ𝕃T`.
    pub fn sll(&self) -> &RMatrix {
        &self.sll
    }
    /// Real right data `W T` (`p × K`).
    pub fn w(&self) -> &RMatrix {
        &self.w
    }
    /// Real left data `T*V` (`K × m`).
    pub fn v(&self) -> &RMatrix {
        &self.v
    }
    /// Largest relative imaginary part discarded by the realification —
    /// a diagnostic for how conjugate-closed the data really were. Zero
    /// for data built by [`TangentialData::build`], and for a pencil
    /// assembled straight from the data, whose partner rows cancel
    /// every imaginary part by construction.
    pub fn max_imag_residual(&self) -> f64 {
        self.max_imag_residual
    }
    /// Pencil order `K`.
    pub fn order(&self) -> usize {
        self.ll.rows()
    }
    /// Frequency normalization ω₀ inherited from the source pencil.
    pub fn freq_scale(&self) -> f64 {
        self.pairs.freq_scale
    }
    /// Indices of the included sample pairs, in inclusion order.
    pub(crate) fn included_pairs(&self) -> &[usize] {
        &self.pairs.included
    }
    /// Block widths of the included pairs, in inclusion order.
    pub(crate) fn pair_ts(&self) -> &[usize] {
        &self.pairs.ts
    }
    /// The pinned real order-detection shift `x₀ = |λ₁|`
    /// ([`LoewnerPencil::default_x0`]).
    pub(crate) fn x0(&self) -> f64 {
        self.pairs.x0
    }

    /// The **real** shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ` (`K × K`), assembled in
    /// one fused pass — the realified Lemma 3.1 order-detection matrix.
    ///
    /// With the pinned shift real
    /// ([`LoewnerPencil::default_x0`](crate::LoewnerPencil::default_x0)
    /// returns `|λ₁|`), this matrix is `T*(x₀𝕃 − σ𝕃)T` for the unitary
    /// Lemma 3.2 frame `T`, so its singular values equal the complex
    /// shifted pencil's exactly and order detection can run values-only
    /// on the packed real GEMM path — about half the wall clock of the
    /// complex bidiagonalization at the same `K` (DESIGN.md §5).
    pub fn shifted_pencil(&self, x0: f64) -> RMatrix {
        self.shifted_pencil_block(x0, 0, 0, self.ll.rows(), self.ll.cols())
    }

    /// The `rows × cols` block of [`shifted_pencil`](Self::shifted_pencil)
    /// at `(row, col)`, entry for entry the same arithmetic, so blocks
    /// tile the full matrix bit for bit. `T` is block-diagonal per
    /// sample pair, so a block over whole pairs is the realified block
    /// of the complex shifted pencil: a session's border strips and
    /// probe columns, `O(K·k_new)` instead of `O(K²)`.
    pub(crate) fn shifted_pencil_block(
        &self,
        x0: f64,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
    ) -> RMatrix {
        RMatrix::from_fn(rows, cols, |i, j| {
            self.ll[(row + i, col + j)] * x0 - self.sll[(row + i, col + j)]
        })
    }
}

/// Applies the Lemma 3.2 transformation to a pencil built from
/// conjugate-adjacent tangential data — the oracle that
/// [`RealifiedPencil::build`] equals bit for bit.
///
/// # Errors
///
/// Returns [`MftiError::RealificationResidual`] when imaginary parts
/// above `tol` (relative to each matrix's magnitude) survive — which
/// means the pencil was not built from conjugate-closed data.
pub fn realify(pencil: &LoewnerPencil, tol: f64) -> Result<RealifiedPencil, MftiError> {
    // T has two entries per row and column, so the conjugations are
    // applied structurally — O(K²) row/column combinations per product
    // instead of dense K×K GEMMs against a 2-sparse matrix.
    let ts = pencil.pair_ts();
    let square = |x: &CMatrix| apply_t_right(&apply_t_adjoint_left(x, ts), ts);
    let products = [
        square(pencil.ll()),
        square(pencil.sll()),
        apply_t_right(pencil.w(), ts),
        apply_t_adjoint_left(pencil.v(), ts),
    ];
    let max_imag = products.iter().fold(0.0f64, |acc, m| {
        acc.max(m.imag_part().max_abs() / m.max_abs().max(f64::MIN_POSITIVE))
    });
    if max_imag > tol {
        return Err(MftiError::RealificationResidual { max_imag });
    }
    let [ll, sll, w, v] = products.map(|m| m.real_part());
    Ok(RealifiedPencil {
        ll,
        sll,
        w,
        v,
        max_imag_residual: max_imag,
        pairs: pencil.pair_list().clone(),
    })
}

/// The real parts of both realified rows of a conjugate pair from its
/// first-member row `a` alone, written to `out` (top row first): the
/// partner row `b` is formed as `a`'s exact conjugate under the swap of
/// each column pair (module docs), the two rows of `T*X` are formed
/// from `a` and `b` with [`apply_t_adjoint_left`]'s arithmetic, and
/// each is pushed through `T` with [`apply_t_right`]'s.
fn realify_first_row(a: &[Complex], col_ts: &[usize], out: [&mut [f64]; 2]) {
    let mut partner = Vec::with_capacity(a.len());
    let mut off = 0;
    for &t in col_ts {
        let (first, second) = a[off..off + 2 * t].split_at(t);
        partner.extend(second.iter().chain(first).map(|z| z.conj()));
        off += 2 * t;
    }
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let (top, bottom): (Vec<Complex>, Vec<Complex>) = a
        .iter()
        .zip(&partner)
        .map(|(&a, &b)| {
            (
                c64((a.re + b.re) * inv_sqrt2, (a.im + b.im) * inv_sqrt2),
                c64((b.im - a.im) * inv_sqrt2, (a.re - b.re) * inv_sqrt2),
            )
        })
        .unzip();
    let mut product = vec![Complex::ZERO; a.len()];
    for (pair_row, out_row) in [top, bottom].iter().zip(out) {
        t_right_row(pair_row, &mut product, col_ts);
        for (o, z) in out_row.iter_mut().zip(&product) {
            *o = z.re;
        }
    }
}

/// Computes `T* X` without materializing `T`: per conjugate pair of
/// width `t` at block offset `off`,
///
/// ```text
/// (T*X)[off+i, :]   = (X[off+i, :] + X[off+t+i, :]) / √2
/// (T*X)[off+t+i, :] = j (X[off+i, :] − X[off+t+i, :]) / √2
/// ```
///
/// `X` must have `Σ 2tᵢ` rows.
fn apply_t_adjoint_left(x: &CMatrix, pair_ts: &[usize]) -> CMatrix {
    let k: usize = pair_ts.iter().map(|t| 2 * t).sum();
    debug_assert_eq!(x.rows(), k, "T* row-application dimension mismatch");
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut out = x.clone();
    let mut off = 0;
    for &t in pair_ts {
        for i in 0..t {
            for c in 0..x.cols() {
                let a = x[(off + i, c)];
                let b = x[(off + t + i, c)];
                out[(off + i, c)] = c64((a.re + b.re) * inv_sqrt2, (a.im + b.im) * inv_sqrt2);
                // j(a − b)/√2
                out[(off + t + i, c)] = c64((b.im - a.im) * inv_sqrt2, (a.re - b.re) * inv_sqrt2);
            }
        }
        off += 2 * t;
    }
    out
}

/// Computes `X T` without materializing `T`: per conjugate pair of
/// width `t` at block offset `off`,
///
/// ```text
/// (XT)[:, off+i]   = (X[:, off+i] + X[:, off+t+i]) / √2
/// (XT)[:, off+t+i] = j (X[:, off+t+i] − X[:, off+i]) / √2
/// ```
///
/// `X` must have `Σ 2tᵢ` columns. Row by row ([`t_right_row`]), so
/// every pass runs over contiguous memory.
fn apply_t_right(x: &CMatrix, pair_ts: &[usize]) -> CMatrix {
    let k: usize = pair_ts.iter().map(|t| 2 * t).sum();
    debug_assert_eq!(x.cols(), k, "T column-application dimension mismatch");
    let mut out = x.clone();
    for (r, out_row) in out.as_mut_slice().chunks_exact_mut(k.max(1)).enumerate() {
        t_right_row(x.row(r), out_row, pair_ts);
    }
    out
}

/// One row of [`apply_t_right`]: `out = l·T` for a row `l` of `Σ 2tᵢ`
/// entries.
#[inline]
fn t_right_row(l: &[Complex], out: &mut [Complex], pair_ts: &[usize]) {
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut off = 0;
    for &t in pair_ts {
        let (l_a, l_b) = l[off..off + 2 * t].split_at(t);
        let (o_a, o_b) = out[off..off + 2 * t].split_at_mut(t);
        for ((oa, ob), (&a, &b)) in o_a.iter_mut().zip(o_b).zip(l_a.iter().zip(l_b)) {
            *oa = c64((a.re + b.re) * inv_sqrt2, (a.im + b.im) * inv_sqrt2);
            // j(b − a)/√2
            *ob = c64((a.im - b.im) * inv_sqrt2, (b.re - a.re) * inv_sqrt2);
        }
        off += 2 * t;
    }
}

/// [`apply_t_right`] as a column-pair walk. Test oracle.
#[cfg(test)]
fn apply_t_right_columnwise(x: &CMatrix, pair_ts: &[usize]) -> CMatrix {
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut out = x.clone();
    let mut off = 0;
    for &t in pair_ts {
        for i in 0..t {
            for r in 0..x.rows() {
                let a = x[(r, off + i)];
                let b = x[(r, off + t + i)];
                out[(r, off + i)] = c64((a.re + b.re) * inv_sqrt2, (a.im + b.im) * inv_sqrt2);
                out[(r, off + t + i)] = c64((a.im - b.im) * inv_sqrt2, (b.re - a.re) * inv_sqrt2);
            }
        }
        off += 2 * t;
    }
    out
}

/// Builds `T = blkdiag(T_i)` for the given per-pair block widths (the
/// dense form the structured appliers are validated against in tests).
#[cfg(test)]
fn build_t(pair_ts: &[usize]) -> CMatrix {
    let k: usize = pair_ts.iter().map(|t| 2 * t).sum();
    let mut t_matrix = CMatrix::zeros(k, k);
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut off = 0;
    for &t in pair_ts {
        for i in 0..t {
            t_matrix[(off + i, off + i)] = c64(inv_sqrt2, 0.0);
            t_matrix[(off + i, off + t + i)] = c64(0.0, -inv_sqrt2);
            t_matrix[(off + t + i, off + i)] = c64(inv_sqrt2, 0.0);
            t_matrix[(off + t + i, off + t + i)] = c64(0.0, inv_sqrt2);
        }
        off += 2 * t;
    }
    t_matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{TangentialData, Weights};
    use crate::directions::DirectionKind;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, SampleSet};

    fn pencil(order: usize, ports: usize, k: usize, t: usize) -> (LoewnerPencil, TangentialData) {
        let sys = RandomSystemBuilder::new(order, ports, ports)
            .seed(23)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        let set = SampleSet::from_system(&sys, &grid).unwrap();
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 4 },
            &Weights::Uniform(t),
        )
        .unwrap();
        (LoewnerPencil::build(&data).unwrap(), data)
    }

    #[test]
    fn structured_appliers_match_the_dense_transform() {
        let ts = [2usize, 1, 3];
        let k: usize = ts.iter().map(|t| 2 * t).sum();
        let t_dense = build_t(&ts);
        let x = CMatrix::from_fn(k, 5, |i, j| {
            c64(0.3 * i as f64 - j as f64, 0.7 * j as f64 + 1.0)
        });
        let y = CMatrix::from_fn(4, k, |i, j| c64(j as f64 - 0.2 * i as f64, 0.1 * i as f64));
        let left = apply_t_adjoint_left(&x, &ts);
        let right = apply_t_right(&y, &ts);
        assert!(left.approx_eq(&t_dense.mul_hermitian_left(&x).unwrap(), 1e-14));
        assert!(right.approx_eq(&y.matmul(&t_dense).unwrap(), 1e-14));
    }

    #[test]
    fn t_is_unitary() {
        let t = build_t(&[2, 1, 3]);
        let id = t.mul_hermitian_left(&t).unwrap();
        assert!(id.approx_eq(&CMatrix::identity(12), 1e-14));
    }

    #[test]
    fn realification_of_clean_data_is_exact() {
        let (p, _) = pencil(8, 2, 6, 2);
        let real = realify(&p, 1e-10).unwrap();
        assert!(real.max_imag_residual() < 1e-12);
        assert_eq!(real.order(), p.order());
        assert_eq!(real.w().dims(), (2, p.order()));
        assert_eq!(real.v().dims(), (p.order(), 2));
    }

    #[test]
    fn realified_pencil_preserves_singular_values() {
        // T is unitary, so 𝕃 and T*𝕃T share singular values.
        let (p, _) = pencil(6, 2, 6, 2);
        let real = realify(&p, 1e-10).unwrap();
        let sv_c = mfti_numeric::Svd::compute(p.ll()).unwrap();
        let sv_r = mfti_numeric::Svd::compute(real.ll()).unwrap();
        for (a, b) in sv_c.singular_values().iter().zip(sv_r.singular_values()) {
            assert!((a - b).abs() < 1e-10 * sv_c.singular_values()[0].max(1.0));
        }
    }

    #[test]
    fn broken_conjugacy_is_detected() {
        // Build a pencil, then corrupt one entry of 𝕃 to break the
        // conjugate structure.
        let (p, _) = pencil(6, 2, 4, 1);
        let bad = p.clone();
        // Safety valve: realify on a hand-corrupted clone must fail.
        let ll = bad.ll().clone();
        let mut ll2 = ll.clone();
        ll2[(0, 0)] += mfti_numeric::c64(0.0, 0.5 * ll.max_abs().max(1.0));
        // Reach in through a rebuilt struct (no setter: simulate via
        // transmuting the public API is not possible, so test build_t's
        // sensitivity directly instead).
        let t = build_t(bad.pair_ts());
        let conv = t.mul_hermitian_left(&ll2).unwrap().matmul(&t).unwrap();
        let rel = conv.imag_part().max_abs() / conv.max_abs();
        assert!(rel > 1e-3, "corruption must surface as imaginary residual");
    }

    /// Xorshift uniforms in `[-1, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    /// Bitwise equality with NaN compared as a class.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn same_real(x: &RMatrix, y: &RMatrix) -> bool {
        x.dims() == y.dims()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(&a, &b)| same_bits(a, b))
    }

    /// A `K × cols` matrix (`K = Σ 2tᵢ`) at magnitude `scale`, every
    /// fifth entry in the subnormal range, with up to three entries
    /// replaced by NaN, ±∞, −0.0 or a subnormal.
    fn edge_matrix(ts: &[usize], cols: usize, scale: f64, seed: u64) -> CMatrix {
        let k: usize = ts.iter().map(|t| 2 * t).sum();
        let mut next = uniform(seed);
        let mut m = CMatrix::from_fn(k, cols, |i, j| {
            let z = c64(next(), next()).scale(scale);
            if (i * cols + j) % 5 == (seed % 5) as usize {
                z.scale(1e-310)
            } else {
                z
            }
        });
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 4.9e-322];
        let entries = m.as_mut_slice();
        for s in 0..(seed % 4) as usize {
            let pick = (next().abs() * 1e6) as usize;
            if let Some(z) = entries.get_mut(pick % entries.len().max(1)) {
                let value = specials[(pick / 7 + s) % specials.len()];
                if pick.is_multiple_of(2) {
                    z.re = value;
                } else {
                    z.im = value;
                }
            }
        }
        m
    }

    #[test]
    fn row_wise_t_application_matches_the_column_walk_bit_for_bit() {
        let pair_layouts: [&[usize]; 5] = [&[1], &[2, 2, 2], &[2, 1, 3], &[3; 7], &[1, 4, 2, 5]];
        // Ordinary magnitudes, and the overflow and underflow ranges.
        let scales = [1.0, 1e-3, 1e160, 1e-160, 1e-300];
        let bits =
            |m: &CMatrix| -> Vec<f64> { m.as_slice().iter().flat_map(|z| [z.re, z.im]).collect() };
        for (case, (ts, scale)) in pair_layouts
            .iter()
            .flat_map(|ts| scales.iter().map(move |&s| (*ts, s)))
            .enumerate()
        {
            for seed in 0..12u64 {
                let seed = seed * 31 + case as u64;
                let k: usize = ts.iter().map(|t| 2 * t).sum();
                let square = apply_t_adjoint_left(&edge_matrix(ts, k, scale, seed), ts);
                let wide = edge_matrix(ts, 3, scale, seed + 1).transpose();
                for x in [square, wide] {
                    let got = bits(&apply_t_right(&x, ts));
                    let want = bits(&apply_t_right_columnwise(&x, ts));
                    assert!(
                        got.iter().zip(&want).all(|(&a, &b)| same_bits(a, b)),
                        "ts {ts:?}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn realify_keeps_the_bits_of_the_two_step_realification() {
        for (order, ports, k, t) in [(8, 2, 6, 2), (12, 3, 8, 3), (6, 2, 4, 1)] {
            let (p, _) = pencil(order, ports, k, t);
            let got = realify(&p, 1e-6).unwrap();
            let ts = p.pair_ts();
            let two_step = |x: &CMatrix| apply_t_right_columnwise(&apply_t_adjoint_left(x, ts), ts);
            let (ll, sll) = (two_step(p.ll()), two_step(p.sll()));
            let w = apply_t_right_columnwise(p.w(), ts);
            let v = apply_t_adjoint_left(p.v(), ts);
            let mut max_imag = 0.0f64;
            for m in [&ll, &sll, &w, &v] {
                max_imag =
                    max_imag.max(m.imag_part().max_abs() / m.max_abs().max(f64::MIN_POSITIVE));
            }
            assert!(same_real(got.ll(), &ll.real_part()));
            assert!(same_real(got.sll(), &sll.real_part()));
            assert!(same_real(got.w(), &w.real_part()) && same_real(got.v(), &v.real_part()));
            assert!(same_bits(got.max_imag_residual(), max_imag));
        }
    }
}
