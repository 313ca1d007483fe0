//! Block Loewner and shifted Loewner matrices (paper Eqs. 11–13).
//!
//! For left triples `(μ_i, L_i, V_i)` and right triples `(λ_j, R_j, W_j)`
//! the pencil blocks are
//!
//! ```text
//! 𝕃_ij  = (V_i R_j − L_i W_j) / (μ_i − λ_j)
//! σ𝕃_ij = (μ_i V_i R_j − λ_j L_i W_j) / (μ_i − λ_j)
//! ```
//!
//! Both satisfy the Sylvester equations (13), which
//! [`LoewnerPencil::sylvester_residuals`] verifies numerically. A pencil
//! is a value: [`LoewnerPencil::slide`] returns the next pencil of a
//! window — leading pairs evicted, new pairs appended — at the
//! normalization its chain pinned.
//!
//! The pipeline never forms this complex pencil: fits, sessions and
//! the recursive Algorithm 2 assemble its realification straight from
//! the data ([`RealifiedPencil::build`](crate::RealifiedPencil::build)),
//! with the same bits, and slide it incrementally. The complex pencil
//! stays as the oracle that realification ([`realify`](crate::realify)),
//! the complex projection and the equivalence tests read, so every
//! pencil — built or slid — is assembled from scratch over its pairs
//! and shares none of the realified slide's incremental logic.
//!
//! # Assembly structure
//!
//! The numerators of all `K × K` scalar entries are the two cross
//! products `V·R` and `L·W` of the *stacked* data/direction matrices —
//! two thin GEMMs through the blocked kernel layer — and the divided
//! differences are a row-wise elementwise pass ([`cauchy_row`]) over the
//! Cauchy divisor plane `1/(μ_i − λ_j)`. Row construction fans out
//! across cores ([`mfti_numeric::parallel`], one contiguous row range
//! per worker); every row is a pure function of the cross-product rows
//! and the interpolation points, so the assembled pencil is
//! **bit-identical for every thread count**.

use mfti_numeric::{kernel, parallel, CMatrix, Complex, Svd};

use crate::data::TangentialData;
use crate::error::MftiError;

/// Below this many newly computed pencil entries (`K²` for a
/// from-scratch assembly, order < 96; `K² − K_keep²` per realified
/// slide) the divided-difference work cannot amortize a thread spawn
/// and assembly stays on one worker. Results are identical either way —
/// the gate only affects scheduling.
pub(crate) const PAR_MIN_ENTRIES: usize = 96 * 96;

/// The sample pairs a pencil spans, in inclusion order, with their
/// block widths and the normalization and shift that the first slide of
/// its chain pinned. The complex [`LoewnerPencil`] and the
/// [`RealifiedPencil`](crate::RealifiedPencil) share it, so both refuse
/// and renumber a slide alike.
#[derive(Debug, Clone)]
pub(crate) struct PairList {
    /// Included pair indices (into the [`TangentialData`] pair list).
    pub(crate) included: Vec<usize>,
    /// Block width of each included pair.
    pub(crate) ts: Vec<usize>,
    /// Raw interpolation point of each included pair: the `λ` of its
    /// first right triple, as [`TangentialData`] stores it. A slide
    /// checks every survivor against it, so data that holds other pairs
    /// at the survivors' renumbered indices is refused.
    points: Vec<Complex>,
    /// Frequency normalization ω₀ applied to all interpolation points.
    pub(crate) freq_scale: f64,
    /// Pinned order-detection shift: `|λ₁|` for the first right
    /// interpolation point ever included — **real**, so the realified
    /// shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ` is a real matrix and Lemma 3.1
    /// detection can run on the packed real path (DESIGN.md §5; with
    /// Section 3.4's literal λ₁ = jω₁/ω₀ the realified shift would stay
    /// complex and forfeit that). Pinning — rather than re-deriving from
    /// the first surviving column — keeps the shifted pencil a
    /// *consistent* matrix across slides, so an incrementally maintained
    /// [`SvdUpdater`](mfti_numeric::SvdUpdater) over its realification
    /// stays valid after the leading pairs expire. Any x₀ that is not a
    /// system pole is admissible (Lemma 3.4); a point on the positive
    /// real axis never coincides with a stable pole, and `|λ₁|` keeps
    /// the shift at the magnitude of the normalized band. Zero only in
    /// the empty list every build slides from; its first slide pins it.
    pub(crate) x0: f64,
}

impl PairList {
    /// No pairs, in `data`'s frequency normalization.
    pub(crate) fn empty(data: &TangentialData) -> Self {
        PairList {
            included: Vec::new(),
            ts: Vec::new(),
            points: Vec::new(),
            freq_scale: data.freq_scale(),
            x0: 0.0,
        }
    }

    /// Pencil order `K = Σ 2·t_j`.
    pub(crate) fn order(&self) -> usize {
        2 * self.ts.iter().sum::<usize>()
    }

    /// The list after [`LoewnerPencil::slide`]'s step — the leading
    /// `evict_pairs` dropped, survivors renumbered down by it,
    /// `new_pairs` of `data` appended — and the pencil order evicted.
    ///
    /// # Errors
    ///
    /// The refusals documented on [`LoewnerPencil::slide`].
    pub(crate) fn slide(
        &self,
        evict_pairs: usize,
        data: &TangentialData,
        new_pairs: &[usize],
    ) -> Result<(Self, usize), MftiError> {
        let refuse = |what: &str| {
            Err(MftiError::InvalidSamples {
                what: what.to_string(),
            })
        };
        if evict_pairs > 0 && evict_pairs >= self.included.len() {
            return refuse("a slide must keep at least one surviving pair");
        }
        let survivors = &self.included[evict_pairs..];
        if survivors.iter().any(|&j| j < evict_pairs) {
            return refuse("slide would orphan a surviving pair index");
        }
        if survivors.is_empty() && new_pairs.is_empty() {
            return refuse("empty pair selection");
        }
        if new_pairs.iter().any(|&j| j >= data.num_pairs()) {
            return refuse("pair index out of range");
        }
        let mut included: Vec<usize> = survivors.iter().map(|&j| j - evict_pairs).collect();
        if included.iter().any(|&j| j >= data.num_pairs()) {
            return refuse("a surviving pair is missing from the data");
        }
        let point = |j: usize| data.right()[2 * j].lambda;
        let differs = included
            .iter()
            .zip(&self.points[evict_pairs..])
            .any(|(&j, &at)| point(j) != at);
        if differs {
            return refuse("a surviving pair's interpolation point differs in the data");
        }
        // One flag per data pair catches a new pair that already
        // survives and repeats inside `new_pairs` alike, in O(n).
        let mut seen = vec![false; data.num_pairs()];
        for &j in &included {
            seen[j] = true;
        }
        if new_pairs
            .iter()
            .any(|&j| std::mem::replace(&mut seen[j], true))
        {
            return refuse("pair already included");
        }
        included.extend_from_slice(new_pairs);
        let mut ts = self.ts[evict_pairs..].to_vec();
        ts.extend(new_pairs.iter().map(|&j| data.pair_weights()[j]));
        let mut points = self.points[evict_pairs..].to_vec();
        points.extend(new_pairs.iter().map(|&j| point(j)));
        let k_drop = 2 * self.ts[..evict_pairs].iter().sum::<usize>();
        // The first slide pins the real shift |λ₁| (see `x0`).
        let x0 = match new_pairs.first() {
            Some(&j) if self.included.is_empty() => point(j).scale(1.0 / self.freq_scale).abs(),
            _ => self.x0,
        };
        let next = PairList {
            included,
            ts,
            points,
            freq_scale: self.freq_scale,
            x0,
        };
        Ok((next, k_drop))
    }
}

/// The right triples of `pairs`, conjugates adjacent, as the stacked
/// column operands of the assembly: `W` (`p × k`), `R` promoted to
/// complex (`m × k`) and each column's `λ` scaled by `inv_scale`.
pub(crate) fn right_stack(
    data: &TangentialData,
    pairs: &[usize],
    inv_scale: f64,
) -> Result<(CMatrix, CMatrix, Vec<Complex>), MftiError> {
    let (p, m) = data.ports();
    let triples = pairs.iter().flat_map(|&j| &data.right()[2 * j..2 * j + 2]);
    let k = triples.clone().map(|rt| rt.r.cols()).sum();
    let (mut w, mut r) = (CMatrix::zeros(p, k), CMatrix::zeros(m, k));
    let mut lambdas = Vec::with_capacity(k);
    for rt in triples {
        w.set_block(0, lambdas.len(), &rt.w)?;
        r.set_block(0, lambdas.len(), &rt.r.to_complex())?;
        lambdas.extend(std::iter::repeat_n(rt.lambda.scale(inv_scale), rt.r.cols()));
    }
    Ok((w, r, lambdas))
}

/// The left triples of `pairs` as the stacked row operands: `V`
/// (`k × m`), `L` promoted to complex (`k × p`) and each row's `μ`
/// scaled by `inv_scale` — with `first_only`, only each pair's first
/// member (the rows a realified assembly computes).
pub(crate) fn left_stack(
    data: &TangentialData,
    pairs: &[usize],
    inv_scale: f64,
    first_only: bool,
) -> Result<(CMatrix, CMatrix, Vec<Complex>), MftiError> {
    let (p, m) = data.ports();
    let members = if first_only { 1 } else { 2 };
    let triples = pairs
        .iter()
        .flat_map(|&j| &data.left()[2 * j..2 * j + members]);
    let k = triples.clone().map(|lt| lt.l.rows()).sum();
    let (mut v, mut l) = (CMatrix::zeros(k, m), CMatrix::zeros(k, p));
    let mut mus = Vec::with_capacity(k);
    for lt in triples {
        v.set_block(mus.len(), 0, &lt.v)?;
        l.set_block(mus.len(), 0, &lt.l.to_complex())?;
        mus.extend(std::iter::repeat_n(lt.mu.scale(inv_scale), lt.l.rows()));
    }
    Ok((v, l, mus))
}

/// One row of `𝕃` and `σ𝕃` over the columns at `lambdas`: the divided
/// differences of the cross-product rows `vr = (V·R)[i, ·]` and
/// `lw = (L·W)[i, ·]` at the row's left point `mu`. Every assembly —
/// complex or realified, built or slid — writes its entries with this
/// arithmetic.
#[inline]
pub(crate) fn cauchy_row(
    mu: Complex,
    vr: &[Complex],
    lw: &[Complex],
    lambdas: &[Complex],
    ll: &mut [Complex],
    sll: &mut [Complex],
) {
    for ((l, s), ((&vr, &lw), &lambda)) in ll
        .iter_mut()
        .zip(sll.iter_mut())
        .zip(vr.iter().zip(lw).zip(lambdas))
    {
        let inv = (mu - lambda).recip();
        *l = (vr - lw) * inv;
        *s = (vr * mu - lw * lambda) * inv;
    }
}

/// The assembled (possibly partial) complex Loewner pencil — the oracle
/// the realified assembly is checked against.
///
/// Row blocks correspond to *left* triples, column blocks to *right*
/// triples; triples of each included sample pair appear with their
/// conjugates adjacent, in inclusion order.
#[derive(Debug, Clone)]
pub struct LoewnerPencil {
    pairs: PairList,
    ll: CMatrix,
    sll: CMatrix,
    /// Stacked data matrices: `W` is `p × K`, `V` is `K × m`.
    w: CMatrix,
    v: CMatrix,
    /// Interpolation points expanded to scalar columns/rows.
    lambdas: Vec<Complex>,
    mus: Vec<Complex>,
}

impl LoewnerPencil {
    /// Builds the pencil over all sample pairs of `data`.
    ///
    /// # Errors
    ///
    /// Propagates matrix-shape failures (impossible for data built by
    /// [`TangentialData::build`]).
    pub fn build(data: &TangentialData) -> Result<Self, MftiError> {
        let all: Vec<usize> = (0..data.num_pairs()).collect();
        Self::build_subset(data, &all)
    }

    /// Builds the pencil over a subset of sample pairs (Algorithm 2's
    /// starting point): the pairs a [`slide`](LoewnerPencil::slide) of
    /// the empty pencil would include.
    ///
    /// # Errors
    ///
    /// Returns [`MftiError::InvalidSamples`] for an empty, duplicated or
    /// out-of-range selection.
    pub fn build_subset(data: &TangentialData, pairs: &[usize]) -> Result<Self, MftiError> {
        let (pairs, _) = PairList::empty(data).slide(0, data, pairs)?;
        Self::assemble(pairs, data)
    }

    /// The next pencil of a window: this pencil without its **leading**
    /// `evict_pairs` included sample pairs, plus `new_pairs` of `data`
    /// (step 4 of Algorithm 2; the window step of DESIGN.md §9),
    /// assembled from scratch over its pairs. `self` is left as it was.
    ///
    /// Surviving pair indices are renumbered down by `evict_pairs`, and
    /// `data` holds every pair of the next pencil at those indices: a
    /// window that dropped the evicted prefix, or the same data when
    /// nothing is evicted. `new_pairs` index that `data`. The frequency
    /// normalization and the order-detection shift
    /// [`default_x0`](LoewnerPencil::default_x0) stay pinned to the
    /// first pencil of the chain, so the shifted pencil remains the same
    /// matrix family across slides.
    ///
    /// # Errors
    ///
    /// Returns [`MftiError::InvalidSamples`] when the slide would evict
    /// every included pair or leave the pencil empty, would orphan a
    /// surviving pair index (a survivor numbered below `evict_pairs`),
    /// finds a survivor missing from `data` or a different interpolation
    /// point at a survivor's renumbered index (data that still holds the
    /// evicted prefix, say), or names an out-of-range or
    /// already-included new pair.
    pub fn slide(
        &self,
        evict_pairs: usize,
        data: &TangentialData,
        new_pairs: &[usize],
    ) -> Result<Self, MftiError> {
        let (pairs, _) = self.pairs.slide(evict_pairs, data, new_pairs)?;
        Self::assemble(pairs, data)
    }

    /// The pencil over `pairs` of `data` at `pairs`' normalization: the
    /// stacked operands, the two cross products through the
    /// *unconditionally blocked* kernel (each output entry's rounding
    /// depends only on its own row and column operands, never on the
    /// call shape) and the row-parallel divided-difference pass. Row `i`
    /// of `𝕃`/`σ𝕃` is a pure function of the cross-product rows, `μ_i`
    /// and the `λ`s — bit-identical for every worker count (static
    /// chunking).
    fn assemble(pairs: PairList, data: &TangentialData) -> Result<Self, MftiError> {
        let inv_scale = 1.0 / pairs.freq_scale;
        let (w, r, lambdas) = right_stack(data, &pairs.included, inv_scale)?;
        let (v, l, mus) = left_stack(data, &pairs.included, inv_scale, false)?;
        let (vr, lw) = (kernel::mul_blocked(&v, &r)?, kernel::mul_blocked(&l, &w)?);

        let k = pairs.order();
        let workers = if k * k < PAR_MIN_ENTRIES {
            1
        } else {
            parallel::available_threads()
        };
        let mut ll_data = vec![Complex::ZERO; k * k];
        let mut sll_data = vec![Complex::ZERO; k * k];
        let row_len = k.max(1);
        let mut rows: Vec<(&mut [Complex], &mut [Complex])> = ll_data
            .chunks_mut(row_len)
            .zip(sll_data.chunks_mut(row_len))
            .collect();
        parallel::for_each_mut(workers, &mut rows, |i, (ll_row, sll_row)| {
            cauchy_row(mus[i], vr.row(i), lw.row(i), &lambdas, ll_row, sll_row);
        });

        Ok(LoewnerPencil {
            pairs,
            ll: CMatrix::from_vec(k, k, ll_data)?,
            sll: CMatrix::from_vec(k, k, sll_data)?,
            w,
            v,
            lambdas,
            mus,
        })
    }

    /// The pairs, widths and pinned normalization of this pencil.
    pub(crate) fn pair_list(&self) -> &PairList {
        &self.pairs
    }

    /// The Loewner matrix `𝕃` (`K × K`).
    pub fn ll(&self) -> &CMatrix {
        &self.ll
    }

    /// The shifted Loewner matrix `σ𝕃` (`K × K`).
    pub fn sll(&self) -> &CMatrix {
        &self.sll
    }

    /// Stacked right data `W` (`p × K`).
    pub fn w(&self) -> &CMatrix {
        &self.w
    }

    /// Stacked left data `V` (`K × m`).
    pub fn v(&self) -> &CMatrix {
        &self.v
    }

    /// Right interpolation points expanded per scalar column,
    /// **normalized** by [`LoewnerPencil::freq_scale`].
    pub fn lambdas(&self) -> &[Complex] {
        &self.lambdas
    }

    /// Left interpolation points expanded per scalar row, **normalized**
    /// by [`LoewnerPencil::freq_scale`].
    pub fn mus(&self) -> &[Complex] {
        &self.mus
    }

    /// The frequency normalization ω₀: the pencil lives in
    /// `s' = s/ω₀`; realizations divide `E` by ω₀ to return to true
    /// frequency.
    pub fn freq_scale(&self) -> f64 {
        self.pairs.freq_scale
    }

    /// Pencil order `K`.
    pub fn order(&self) -> usize {
        self.ll.rows()
    }

    /// Indices of the included sample pairs, in inclusion order.
    pub fn included_pairs(&self) -> &[usize] {
        &self.pairs.included
    }

    /// Block widths of the included pairs, in inclusion order.
    pub fn pair_ts(&self) -> &[usize] {
        &self.pairs.ts
    }

    /// Residual norms of the two Sylvester identities (13):
    /// `‖𝕃Λ − M𝕃 − (LW − VR)‖_F` and `‖σ𝕃Λ − Mσ𝕃 − (LWΛ − MVR)‖_F`,
    /// both relative to the magnitude of the left-hand sides.
    ///
    /// The stacked direction matrices are gathered from `data` (which
    /// holds the included pairs at their indices) on the fly, so this
    /// is a *verification* tool (tests, debugging), not a hot path.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible for internally built pencils).
    pub fn sylvester_residuals(&self, data: &TangentialData) -> Result<(f64, f64), MftiError> {
        let inv_scale = 1.0 / self.pairs.freq_scale;
        let (_, r, _) = right_stack(data, &self.pairs.included, inv_scale)?; // m×K
        let (_, l, _) = left_stack(data, &self.pairs.included, inv_scale, false)?; // K×p

        let scale_cols = |m: &CMatrix, d: &[Complex]| -> CMatrix {
            let mut out = m.clone();
            for i in 0..out.rows() {
                for (o, &s) in out.row_mut(i).iter_mut().zip(d) {
                    *o *= s;
                }
            }
            out
        };
        let scale_rows = |m: &CMatrix, d: &[Complex]| -> CMatrix {
            let mut out = m.clone();
            let cols = out.cols();
            if cols > 0 {
                for (row, &s) in out.as_mut_slice().chunks_mut(cols).zip(d) {
                    for o in row {
                        *o *= s;
                    }
                }
            }
            out
        };

        let lw = l.matmul(&self.w)?; // K×K
        let vr = self.v.matmul(&r)?; // K×K

        let lhs1 = &scale_cols(&self.ll, &self.lambdas) - &scale_rows(&self.ll, &self.mus);
        let rhs1 = &lw - &vr;
        let res1 = (&lhs1 - &rhs1).norm_fro() / rhs1.norm_fro().max(1e-300);

        let lhs2 = &scale_cols(&self.sll, &self.lambdas) - &scale_rows(&self.sll, &self.mus);
        let rhs2 = &scale_cols(&lw, &self.lambdas) - &scale_rows(&vr, &self.mus);
        let res2 = (&lhs2 - &rhs2).norm_fro() / rhs2.norm_fro().max(1e-300);
        Ok((res1, res2))
    }

    /// Singular values of `x₀𝕃 − σ𝕃` — the paper's order-detection
    /// signal (Fig. 1) and the input to Lemma 3.4. Only the values are
    /// computed ([`mfti_numeric::SvdFactors::ValuesOnly`]): order
    /// detection never reads the singular vectors, and skipping them
    /// skips the accumulation phase and all rotation sweeps of the SVD.
    ///
    /// # Errors
    ///
    /// Propagates SVD failures.
    pub fn shifted_pencil_singular_values(&self, x0: Complex) -> Result<Vec<f64>, MftiError> {
        Ok(Svd::singular_values_of(&self.shifted_pencil(x0))?)
    }

    /// The shifted pencil `x₀𝕃 − σ𝕃` itself (`K × K`), assembled in one
    /// fused pass (no intermediate `x₀𝕃` temporary). This is the matrix
    /// whose singular-value decay drives order detection. The pipeline
    /// decomposes its realification
    /// ([`RealifiedPencil::shifted_pencil`](crate::RealifiedPencil::shifted_pencil))
    /// instead; this complex form is the oracle that
    /// [`realize_complex`](crate::realize_complex) and the equivalence
    /// tests read.
    pub fn shifted_pencil(&self, x0: Complex) -> CMatrix {
        let data: Vec<Complex> = self
            .ll
            .as_slice()
            .iter()
            .zip(self.sll.as_slice())
            .map(|(&l, &sl)| l * x0 - sl)
            .collect();
        // mfti-lint: allow(MFTI-D7) — data is a zip over ll's own
        // buffer, so its length is exactly rows·cols
        CMatrix::from_vec(self.ll.rows(), self.ll.cols(), data).expect("ll and sll share dims")
    }

    /// Singular values of `𝕃` itself (rank ≈ `order(Γ)` per the paper's
    /// Section 3.4 observation).
    ///
    /// # Errors
    ///
    /// Propagates SVD failures.
    pub fn ll_singular_values(&self) -> Result<Vec<f64>, MftiError> {
        Ok(Svd::singular_values_of(&self.ll)?)
    }

    /// Singular values of `σ𝕃` (rank ≈ `order(Γ) + rank(D)`).
    ///
    /// # Errors
    ///
    /// Propagates SVD failures.
    pub fn sll_singular_values(&self) -> Result<Vec<f64>, MftiError> {
        Ok(Svd::singular_values_of(&self.sll)?)
    }

    /// Default shift `x₀ = |λ₁|` for the first right interpolation
    /// point ever included — Section 3.4 suggests λ₁ itself; taking its
    /// magnitude keeps the shift **real**, so the realified shifted
    /// pencil `x₀𝕃ᵣ − σ𝕃ᵣ` is a real matrix and order detection runs on
    /// the packed real path with singular values identical (unitary
    /// equivalence) to the complex `x₀𝕃 − σ𝕃` (DESIGN.md §5).
    /// **Pinned** across [`slide`](LoewnerPencil::slide) — windowed
    /// sessions keep decomposing the same shifted pencil family even
    /// after the pair that donated λ₁ expires.
    pub fn default_x0(&self) -> Complex {
        Complex::new(self.pairs.x0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Weights;
    use crate::directions::{DirectionKind, DirectionOrigin};
    use crate::realify::RealifiedPencil;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, SampleSet};

    const DIRECTIONS: DirectionKind = DirectionKind::RandomOrthonormal { seed: 9 };

    fn make_data(order: usize, ports: usize, k: usize, t: usize) -> (TangentialData, SampleSet) {
        let sys = RandomSystemBuilder::new(order, ports, ports)
            .seed(42)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        let set = SampleSet::from_system(&sys, &grid).unwrap();
        let data = TangentialData::build(&set, DIRECTIONS, &Weights::Uniform(t)).unwrap();
        (data, set)
    }

    /// The data of a window over pairs `from..to` of `make_data`'s
    /// `set` (width `t`): each pair keeps the directions it had there.
    fn window_data(set: &SampleSet, from: usize, to: usize, t: usize) -> TangentialData {
        TangentialData::build_from(
            &set.subset(&(2 * from..2 * to).collect::<Vec<_>>()).unwrap(),
            DIRECTIONS,
            &Weights::Uniform(t),
            DirectionOrigin {
                pairs: from,
                cols: from * t,
            },
        )
        .unwrap()
    }

    #[test]
    fn pencil_is_square_with_expected_order() {
        let (data, _) = make_data(10, 3, 6, 2);
        let pencil = LoewnerPencil::build(&data).unwrap();
        assert_eq!(pencil.order(), data.pencil_order());
        assert_eq!(pencil.ll().dims(), (12, 12));
        assert_eq!(pencil.w().dims(), (3, 12));
        assert_eq!(pencil.v().dims(), (12, 3));
        assert_eq!(pencil.lambdas().len(), 12);
        assert_eq!(pencil.mus().len(), 12);
    }

    #[test]
    fn sylvester_equations_hold() {
        let (data, _) = make_data(8, 2, 6, 2);
        let pencil = LoewnerPencil::build(&data).unwrap();
        let (r1, r2) = pencil.sylvester_residuals(&data).unwrap();
        assert!(r1 < 1e-10, "Loewner Sylvester residual {r1}");
        assert!(r2 < 1e-10, "shifted Loewner Sylvester residual {r2}");
    }

    /// Bit-level equality of every matrix and point list two pencils
    /// share with a from-scratch build.
    fn assert_bit_identical(a: &LoewnerPencil, b: &LoewnerPencil) {
        let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        for (x, y, what) in [
            (a.ll(), b.ll(), "𝕃"),
            (a.sll(), b.sll(), "σ𝕃"),
            (a.w(), b.w(), "W"),
            (a.v(), b.v(), "V"),
        ] {
            assert_eq!(bits(x), bits(y), "{what} differs");
        }
        assert_eq!(a.lambdas(), b.lambdas());
        assert_eq!(a.mus(), b.mus());
    }

    #[test]
    fn grow_only_slide_matches_direct_build() {
        let (data, _) = make_data(10, 2, 8, 2);
        let direct = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3]).unwrap();
        let grown = LoewnerPencil::build_subset(&data, &[0, 1])
            .unwrap()
            .slide(0, &data, &[2, 3])
            .unwrap();
        assert_bit_identical(&grown, &direct);
        assert_eq!(grown.included_pairs(), &[0, 1, 2, 3]);
        assert_eq!(grown.pair_ts(), direct.pair_ts());
        assert_eq!(grown.default_x0(), direct.default_x0());
    }

    #[test]
    fn rank_of_pencil_reveals_system_order() {
        // Order-6 system, rank(D)=2, 2 ports; sample enough that K ≥ n+rank(D).
        let sys = RandomSystemBuilder::new(6, 2, 2)
            .d_rank(2)
            .seed(17)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, 10).unwrap();
        let set = SampleSet::from_system(&sys, &grid).unwrap();
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 1 },
            &Weights::Uniform(2),
        )
        .unwrap();
        let pencil = LoewnerPencil::build(&data).unwrap();
        assert_eq!(pencil.order(), 20);
        // Lemma 3.3: rank(x𝕃 − σ𝕃) ≤ n + rank(D) = 8.
        let sv = pencil
            .shifted_pencil_singular_values(pencil.default_x0())
            .unwrap();
        let rank = sv.iter().filter(|&&s| s > 1e-9 * sv[0]).count();
        assert_eq!(rank, 8, "singular values: {sv:?}");
        // 𝕃 alone has rank ≈ order(Γ) = 6.
        let sv_ll = pencil.ll_singular_values().unwrap();
        let rank_ll = sv_ll.iter().filter(|&&s| s > 1e-9 * sv_ll[0]).count();
        assert_eq!(rank_ll, 6, "𝕃 singular values: {sv_ll:?}");
    }

    #[test]
    fn drop_only_slide_matches_a_from_scratch_build_of_the_survivors() {
        let (data, set) = make_data(10, 2, 12, 2);
        let full = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3, 4]).unwrap();
        let windowed = full.slide(2, &window_data(&set, 2, 5, 2), &[]).unwrap();

        let direct = LoewnerPencil::build_subset(&data, &[2, 3, 4]).unwrap();
        assert_bit_identical(&windowed, &direct);
        // Surviving pairs are renumbered to the window frame …
        assert_eq!(windowed.included_pairs(), &[0, 1, 2]);
        assert_eq!(windowed.pair_ts(), &[2, 2, 2]);
        // … the order-detection shift stays pinned to the original λ₁ …
        assert_eq!(windowed.default_x0(), full.default_x0());
        assert_ne!(windowed.default_x0(), direct.default_x0());
        // … and the pencil it slid from is still the five-pair pencil.
        let again = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3, 4]).unwrap();
        assert_bit_identical(&full, &again);
        assert_eq!(full.included_pairs(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn drop_plus_grow_slide_moves_the_window() {
        let (data, set) = make_data(8, 2, 10, 1);
        let start = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3]).unwrap();
        // Survivors renumber down by one into the window's frame, where
        // the new stream pair 4 is window pair 3.
        let windowed = start.slide(1, &window_data(&set, 1, 5, 1), &[3]).unwrap();
        assert_eq!(windowed.order(), 8);
        let direct = LoewnerPencil::build_subset(&data, &[1, 2, 3, 4]).unwrap();
        assert_bit_identical(&windowed, &direct);
        assert_eq!(windowed.included_pairs(), &[0, 1, 2, 3]);
        assert_eq!(windowed.pair_ts(), &[1, 1, 1, 1]);
        assert_eq!(windowed.default_x0(), start.default_x0());
    }

    #[test]
    fn invalid_slides_are_refused_and_leave_the_pencil_untouched() {
        let (data, set) = make_data(6, 2, 8, 1);
        let pencil = LoewnerPencil::build_subset(&data, &[0, 1]).unwrap();
        let before = pencil.clone();
        // Data without a survivor (pair 1) is refused by both slides.
        let short = window_data(&set, 0, 1, 1);
        let missing = "a surviving pair is missing from the data";
        let real = RealifiedPencil::empty(&data)
            .slide(0, &data, &[0, 1])
            .unwrap();
        for refused in [
            pencil.slide(0, &short, &[]).map(|_| ()),
            real.slide(0, &short, &[]).map(|_| ()),
        ] {
            assert!(
                matches!(&refused, Err(MftiError::InvalidSamples { what }) if what == missing),
                "{refused:?}"
            );
        }
        // Evicting every pair (or more) is refused, even with new pairs.
        assert!(pencil.slide(2, &data, &[]).is_err());
        assert!(pencil.slide(2, &data, &[2, 3]).is_err());
        assert!(pencil.slide(5, &data, &[]).is_err());
        // A new pair already included, repeated, or out of range.
        assert!(pencil.slide(0, &data, &[1]).is_err());
        assert!(pencil.slide(0, &data, &[2, 3, 2]).is_err());
        assert!(pencil.slide(0, &data, &[7]).is_err());
        // After evicting one pair the survivor is window pair 0, so
        // data pair 0 is a duplicate there.
        assert!(pencil.slide(1, &data, &[0]).is_err());
        assert_bit_identical(&pencil, &before);
        assert_eq!(pencil.included_pairs(), &[0, 1]);
        // A slide that neither evicts nor grows is a copy.
        let same = pencil.slide(0, &data, &[]).unwrap();
        assert_bit_identical(&same, &pencil);
        assert_eq!(same.included_pairs(), &[0, 1]);
        assert_eq!(same.default_x0(), pencil.default_x0());
        // A survivor numbered below the evicted prefix would be orphaned.
        let unordered = LoewnerPencil::build_subset(&data, &[1, 0]).unwrap();
        assert!(unordered.slide(1, &data, &[]).is_err());
    }

    #[test]
    fn slides_refuse_data_that_holds_other_pairs_at_the_survivors() {
        // The stream data the pencil was built from, handed to a slide
        // that evicts: its pairs 0–2 are not the survivors 2–4.
        let (data, set) = make_data(10, 2, 12, 2);
        let pencil = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3, 4]).unwrap();
        let real = RealifiedPencil::empty(&data)
            .slide(0, &data, &[0, 1, 2, 3, 4])
            .unwrap();
        let differs = "a surviving pair's interpolation point differs in the data";
        for refused in [
            pencil.slide(2, &data, &[]).map(|_| ()),
            real.slide(2, &data, &[]).map(|_| ()),
        ] {
            assert!(
                matches!(&refused, Err(MftiError::InvalidSamples { what }) if what == differs),
                "{refused:?}"
            );
        }
        // The window over the survivors slides.
        let window = window_data(&set, 2, 6, 2);
        assert!(pencil.slide(2, &window, &[]).is_ok());
        assert!(real.slide(2, &window, &[]).is_ok());
    }

    #[test]
    fn invalid_subsets_are_rejected() {
        let (data, _) = make_data(6, 2, 4, 1);
        assert!(LoewnerPencil::build_subset(&data, &[]).is_err());
        assert!(LoewnerPencil::build_subset(&data, &[5]).is_err());
        assert!(LoewnerPencil::build_subset(&data, &[0, 0]).is_err()); // duplicate
        let pencil = LoewnerPencil::build_subset(&data, &[0]).unwrap();
        assert!(pencil.slide(0, &data, &[0]).is_err()); // duplicate
        assert!(pencil.slide(0, &data, &[7]).is_err()); // out of range
    }
}
