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
//! [`LoewnerPencil::sylvester_residuals`] verifies numerically. The
//! pencil supports *incremental growth* (appending sample pairs), the
//! workhorse of the recursive Algorithm 2.
//!
//! # Assembly structure
//!
//! The numerators of all `K × K` scalar entries are the two cross
//! products `V·R` and `L·W` of the *stacked* data/direction matrices —
//! two thin GEMMs through the blocked kernel layer — and the divided
//! differences are a row-wise elementwise pass over the Cauchy divisor
//! plane `1/(μ_i − λ_j)`. Row construction fans out across cores
//! ([`mfti_numeric::parallel`], one contiguous row range per worker);
//! every row is a pure function of the cross-product rows and the
//! interpolation points, so the assembled pencil is **bit-identical for
//! every thread count**, and an [`extend`](LoewnerPencil::extend)-grown
//! pencil equals the from-scratch [`build`](LoewnerPencil::build)
//! bit-for-bit (the blocked kernel computes each output entry
//! independently of the call's width).

use std::collections::HashSet;

use mfti_numeric::{kernel, parallel, CMatrix, Complex, Svd};

use crate::data::TangentialData;
use crate::error::MftiError;

/// Below this many newly computed pencil entries (`K² − K_old²` per
/// [`LoewnerPencil::extend`]; for a from-scratch build, order < 96) the
/// divided-difference work cannot amortize a thread spawn and assembly
/// stays on one worker. Results are identical either way — the gate
/// only affects scheduling.
const PAR_MIN_ENTRIES: usize = 96 * 96;

/// The assembled (possibly partial) Loewner pencil.
///
/// Row blocks correspond to *left* triples, column blocks to *right*
/// triples; triples of each included sample pair appear with their
/// conjugates adjacent, in inclusion order.
#[derive(Debug, Clone)]
pub struct LoewnerPencil {
    ll: CMatrix,
    sll: CMatrix,
    /// Stacked data matrices: `W` is `p × K`, `V` is `K × m`.
    w: CMatrix,
    v: CMatrix,
    /// Stacked direction matrices (promoted to complex once): `L` is
    /// `K × p`, `R` is `m × K` — the left operands of the assembly
    /// GEMMs, kept so incremental growth never re-promotes old blocks.
    l: CMatrix,
    r: CMatrix,
    /// Interpolation points expanded to scalar columns/rows.
    lambdas: Vec<Complex>,
    mus: Vec<Complex>,
    /// Included pair indices (into the [`TangentialData`] pair list).
    included_pairs: Vec<usize>,
    /// Block width of each included pair.
    pair_ts: Vec<usize>,
    /// Frequency normalization ω₀ applied to all interpolation points.
    freq_scale: f64,
    /// Pinned order-detection shift: `|λ₁|` for the first right
    /// interpolation point ever included — **real**, so the realified
    /// shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ` is a real matrix and Lemma 3.1
    /// detection can run on the packed real path (DESIGN.md §5; with
    /// Section 3.4's literal λ₁ = jω₁/ω₀ the realified shift would stay
    /// complex and forfeit that). Pinning — rather than re-deriving from
    /// `lambdas[0]` — keeps the shifted pencil a *consistent* matrix
    /// across window retractions, so an incrementally maintained
    /// [`SvdUpdater`](mfti_numeric::SvdUpdater) over its realification
    /// stays valid after the leading pairs expire. Any x₀ that is not a system pole
    /// is admissible (Lemma 3.4); a point on the positive real axis
    /// never coincides with a stable pole, and `|λ₁|` keeps the shift at
    /// the magnitude of the normalized band.
    x0: Option<Complex>,
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
    /// starting point).
    ///
    /// # Errors
    ///
    /// Returns [`MftiError::InvalidSamples`] for an empty or out-of-range
    /// selection.
    pub fn build_subset(data: &TangentialData, pairs: &[usize]) -> Result<Self, MftiError> {
        if pairs.is_empty() {
            return Err(MftiError::InvalidSamples {
                what: "empty pair selection".to_string(),
            });
        }
        if pairs.iter().any(|&j| j >= data.num_pairs()) {
            return Err(MftiError::InvalidSamples {
                what: "pair index out of range".to_string(),
            });
        }
        let (p, m) = data.ports();
        let mut pencil = LoewnerPencil {
            ll: CMatrix::zeros(0, 0),
            sll: CMatrix::zeros(0, 0),
            w: CMatrix::zeros(p, 0),
            v: CMatrix::zeros(0, m),
            l: CMatrix::zeros(0, p),
            r: CMatrix::zeros(m, 0),
            lambdas: Vec::new(),
            mus: Vec::new(),
            included_pairs: Vec::new(),
            pair_ts: Vec::new(),
            freq_scale: data.freq_scale(),
            x0: None,
        };
        pencil.extend(data, pairs)?;
        Ok(pencil)
    }

    /// Appends additional sample pairs, computing **only the new blocks**
    /// (step 4 of Algorithm 2: "update W, V, 𝕃 and σ𝕃 instead of
    /// calculating them all from the beginning").
    ///
    /// The new regions' numerators come from four thin GEMMs over the
    /// stacked data (`V·R_new`, `L·W_new`, `V_new·R_old`, `L_new·W_old`)
    /// and the divided differences are applied row-parallel; the grown
    /// pencil is bit-identical to a from-scratch
    /// [`build`](LoewnerPencil::build) over the same pair sequence.
    ///
    /// # Errors
    ///
    /// Returns [`MftiError::InvalidSamples`] for duplicate or
    /// out-of-range pair indices.
    pub fn extend(&mut self, data: &TangentialData, new_pairs: &[usize]) -> Result<(), MftiError> {
        if new_pairs.is_empty() {
            return Ok(());
        }
        if new_pairs.iter().any(|&j| j >= data.num_pairs()) {
            return Err(MftiError::InvalidSamples {
                what: "pair index out of range".to_string(),
            });
        }
        // Duplicate check through a hash set (against both the already
        // included pairs and repeats inside `new_pairs`), so large
        // appends stay O(n) instead of the quadratic scan a nested
        // `contains` would cost.
        // mfti-lint: allow(MFTI-D1) — membership probes (`insert`'s
        // boolean) only: the set decides *whether* to reject, never in
        // what order anything is processed — the pencil strips are
        // built from `new_pairs` in caller order, so hash order cannot
        // leak into numeric results.
        let mut seen: HashSet<usize> = self.included_pairs.iter().copied().collect();
        if new_pairs.iter().any(|&j| !seen.insert(j)) {
            return Err(MftiError::InvalidSamples {
                what: "pair already included".to_string(),
            });
        }

        let triples_of = |j: usize| [2 * j, 2 * j + 1];

        // New interpolation points (normalized) and stacked data blocks,
        // in triple order (conjugates adjacent).
        let inv_scale = 1.0 / self.freq_scale;
        let mut new_lambdas = Vec::new();
        let mut new_mus = Vec::new();
        let mut w_parts: Vec<&CMatrix> = Vec::new();
        let mut v_parts: Vec<&CMatrix> = Vec::new();
        let mut r_parts: Vec<CMatrix> = Vec::new();
        let mut l_parts: Vec<CMatrix> = Vec::new();
        for &j in new_pairs {
            for idx in triples_of(j) {
                let rt = &data.right()[idx];
                let lt = &data.left()[idx];
                for _ in 0..rt.r.cols() {
                    new_lambdas.push(rt.lambda.scale(inv_scale));
                }
                for _ in 0..lt.l.rows() {
                    new_mus.push(lt.mu.scale(inv_scale));
                }
                w_parts.push(&rt.w);
                v_parts.push(&lt.v);
                r_parts.push(rt.r.to_complex());
                l_parts.push(lt.l.to_complex());
            }
        }
        let w_new = CMatrix::hstack(&w_parts)?; // p × K_new
        let v_new = CMatrix::vstack(&v_parts)?; // K_new × m
        let r_refs: Vec<&CMatrix> = r_parts.iter().collect();
        let l_refs: Vec<&CMatrix> = l_parts.iter().collect();
        let r_new = CMatrix::hstack(&r_refs)?; // m × K_new
        let l_new = CMatrix::vstack(&l_refs)?; // K_new × p

        let k_old = self.ll.rows();
        let k_new = v_new.rows();
        let k_total = k_old + k_new;

        // Grown stacks (the new rows/cols simply append; the old blocks
        // are bit-identical by construction).
        let (v_all, l_all, w_all, r_all) = if k_old == 0 {
            (v_new, l_new, w_new, r_new)
        } else {
            (
                self.v.append_rows(&v_new)?,
                self.l.append_rows(&l_new)?,
                self.w.append_cols(&w_new)?,
                self.r.append_cols(&r_new)?,
            )
        };
        // Clones rather than takes: every fallible step below happens
        // before the commit, so `self` stays untouched on error.
        let mut mus = self.mus.clone();
        mus.extend(new_mus);
        let mut lambdas = self.lambdas.clone();
        lambdas.extend(new_lambdas);

        // Cross products of the new regions, through the *unconditionally
        // blocked* kernel: each output entry's rounding depends only on
        // its own row/column operands, never on the call width, which is
        // what makes extend-grown pencils equal from-scratch builds
        // bit-for-bit.
        let (vr_right, lw_right, vr_bottom, lw_bottom) = if k_old == 0 {
            let vr = kernel::mul_blocked(&v_all, &r_all)?;
            let lw = kernel::mul_blocked(&l_all, &w_all)?;
            (vr, lw, CMatrix::zeros(0, 0), CMatrix::zeros(0, 0))
        } else {
            let r_strip = r_all.submatrix(0, k_old, r_all.rows(), k_new)?;
            let w_strip = w_all.submatrix(0, k_old, w_all.rows(), k_new)?;
            let v_strip = v_all.submatrix(k_old, 0, k_new, v_all.cols())?;
            let l_strip = l_all.submatrix(k_old, 0, k_new, l_all.cols())?;
            (
                kernel::mul_blocked(&v_all, &r_strip)?,
                kernel::mul_blocked(&l_all, &w_strip)?,
                kernel::mul_blocked(&v_strip, &r_all.submatrix(0, 0, r_all.rows(), k_old)?)?,
                kernel::mul_blocked(&l_strip, &w_all.submatrix(0, 0, w_all.rows(), k_old)?)?,
            )
        };

        // Row-parallel divided-difference pass: row i of the grown 𝕃/σ𝕃
        // is a pure function of the cross-product rows, μ_i and the λs —
        // bit-identical for every worker count (static chunking). Each
        // worker writes its block of rows straight into the preallocated
        // pencil storage.
        let workers = if k_total * k_total - k_old * k_old < PAR_MIN_ENTRIES {
            1
        } else {
            parallel::available_threads()
        };
        let old_ll = &self.ll;
        let old_sll = &self.sll;
        let mut ll_data = vec![Complex::ZERO; k_total * k_total];
        let mut sll_data = vec![Complex::ZERO; k_total * k_total];
        let row_len = k_total.max(1);
        let mut rows: Vec<(&mut [Complex], &mut [Complex])> = ll_data
            .chunks_mut(row_len)
            .zip(sll_data.chunks_mut(row_len))
            .collect();
        parallel::for_each_mut(workers, &mut rows, |i, (ll_row, sll_row)| {
            let mu_i = mus[i];
            if i < k_old {
                // Old row: copy the existing entries, fill the new
                // column strip.
                ll_row[..k_old].copy_from_slice(old_ll.row(i));
                sll_row[..k_old].copy_from_slice(old_sll.row(i));
            } else if k_old > 0 {
                // New row over the old columns.
                let vr = vr_bottom.row(i - k_old);
                let lw = lw_bottom.row(i - k_old);
                for j in 0..k_old {
                    let inv = (mu_i - lambdas[j]).recip();
                    ll_row[j] = (vr[j] - lw[j]) * inv;
                    sll_row[j] = (vr[j] * mu_i - lw[j] * lambdas[j]) * inv;
                }
            }
            let vr = vr_right.row(i);
            let lw = lw_right.row(i);
            for (j, &lambda_j) in lambdas[k_old..].iter().enumerate() {
                let inv = (mu_i - lambda_j).recip();
                ll_row[k_old + j] = (vr[j] - lw[j]) * inv;
                sll_row[k_old + j] = (vr[j] * mu_i - lw[j] * lambda_j) * inv;
            }
        });

        // Commit.
        self.ll = CMatrix::from_vec(k_total, k_total, ll_data)?;
        self.sll = CMatrix::from_vec(k_total, k_total, sll_data)?;
        self.w = w_all;
        self.v = v_all;
        self.l = l_all;
        self.r = r_all;
        self.lambdas = lambdas;
        self.mus = mus;
        for &j in new_pairs {
            self.included_pairs.push(j);
            self.pair_ts.push(data.pair_weights()[j]);
        }
        if self.x0.is_none() {
            // Real shift |λ₁|: see the `x0` field docs — keeps the
            // realified shifted pencil real for packed-real detection.
            self.x0 = self.lambdas.first().map(|l| Complex::new(l.abs(), 0.0));
        }
        Ok(())
    }

    /// Drops the **leading** `drop_pairs` included sample pairs — the
    /// expiry half of a sliding window (DESIGN.md §9), dual of
    /// [`extend`](LoewnerPencil::extend). The stacked `W`/`V`/`L`/`R`,
    /// both pencil matrices and the interpolation points shrink by
    /// submatrix restriction — `O(K²)` copying, no GEMM, no rebuild —
    /// and the surviving blocks equal a from-scratch
    /// [`build_subset`](LoewnerPencil::build_subset) over the surviving
    /// pairs bit-for-bit (every entry is a pure function of its own
    /// pair's triples).
    ///
    /// Surviving pair indices are renumbered down by `drop_pairs`,
    /// matching a caller that drops the same leading pairs from its
    /// [`TangentialData`]; the order-detection shift
    /// [`default_x0`](LoewnerPencil::default_x0) stays pinned to the
    /// original λ₁ so the shifted pencil remains the same matrix family
    /// across retractions.
    ///
    /// The retraction is transactional: on error the pencil is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`MftiError::InvalidSamples`] when the retraction would
    /// empty the pencil or orphan a surviving pair index (a surviving
    /// pair numbered below `drop_pairs`).
    pub fn retract(&mut self, drop_pairs: usize) -> Result<(), MftiError> {
        if drop_pairs == 0 {
            return Ok(());
        }
        if drop_pairs >= self.included_pairs.len() {
            return Err(MftiError::InvalidSamples {
                what: "retraction must leave at least one pair".to_string(),
            });
        }
        if self.included_pairs[drop_pairs..]
            .iter()
            .any(|&j| j < drop_pairs)
        {
            return Err(MftiError::InvalidSamples {
                what: "retraction would orphan a surviving pair index".to_string(),
            });
        }
        let k_drop: usize = self.pair_ts[..drop_pairs].iter().map(|&t| 2 * t).sum();
        let k_keep = self.ll.rows() - k_drop;

        // Every fallible restriction happens before the commit.
        let ll = self.ll.submatrix(k_drop, k_drop, k_keep, k_keep)?;
        let sll = self.sll.submatrix(k_drop, k_drop, k_keep, k_keep)?;
        let w = self.w.submatrix(0, k_drop, self.w.rows(), k_keep)?;
        let v = self.v.submatrix(k_drop, 0, k_keep, self.v.cols())?;
        let l = self.l.submatrix(k_drop, 0, k_keep, self.l.cols())?;
        let r = self.r.submatrix(0, k_drop, self.r.rows(), k_keep)?;

        self.ll = ll;
        self.sll = sll;
        self.w = w;
        self.v = v;
        self.l = l;
        self.r = r;
        self.lambdas.drain(..k_drop);
        self.mus.drain(..k_drop);
        self.included_pairs.drain(..drop_pairs);
        for j in &mut self.included_pairs {
            *j -= drop_pairs;
        }
        self.pair_ts.drain(..drop_pairs);
        Ok(())
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
        self.freq_scale
    }

    /// Pencil order `K`.
    pub fn order(&self) -> usize {
        self.ll.rows()
    }

    /// Indices of the included sample pairs, in inclusion order.
    pub fn included_pairs(&self) -> &[usize] {
        &self.included_pairs
    }

    /// Block widths of the included pairs, in inclusion order.
    pub fn pair_ts(&self) -> &[usize] {
        &self.pair_ts
    }

    /// Residual norms of the two Sylvester identities (13):
    /// `‖𝕃Λ − M𝕃 − (LW − VR)‖_F` and `‖σ𝕃Λ − Mσ𝕃 − (LWΛ − MVR)‖_F`,
    /// both relative to the magnitude of the left-hand sides.
    ///
    /// The stacked direction matrices are reconstructed on the fly, so
    /// this is a *verification* tool (tests, debugging), not a hot path.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible for internally built pencils).
    pub fn sylvester_residuals(&self, data: &TangentialData) -> Result<(f64, f64), MftiError> {
        // Reassemble stacked L (K×p) and R (m×K) for the included pairs.
        let mut l_parts: Vec<CMatrix> = Vec::new();
        let mut r_parts: Vec<CMatrix> = Vec::new();
        for &j in &self.included_pairs {
            for idx in [2 * j, 2 * j + 1] {
                l_parts.push(data.left()[idx].l.to_complex());
                r_parts.push(data.right()[idx].r.to_complex());
            }
        }
        let l_refs: Vec<&CMatrix> = l_parts.iter().collect();
        let r_refs: Vec<&CMatrix> = r_parts.iter().collect();
        let l = CMatrix::vstack(&l_refs)?;
        let r = CMatrix::hstack(&r_refs)?;

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
    /// **Pinned** across [`retract`](LoewnerPencil::retract) — windowed
    /// sessions keep decomposing the same shifted pencil family even
    /// after the pair that donated λ₁ expires.
    pub fn default_x0(&self) -> Complex {
        match self.x0 {
            Some(x0) => x0,
            None => Complex::new(self.lambdas[0].abs(), 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Weights;
    use crate::directions::DirectionKind;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, SampleSet};

    fn make_data(order: usize, ports: usize, k: usize, t: usize) -> (TangentialData, SampleSet) {
        let sys = RandomSystemBuilder::new(order, ports, ports)
            .seed(42)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        let set = SampleSet::from_system(&sys, &grid).unwrap();
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 9 },
            &Weights::Uniform(t),
        )
        .unwrap();
        (data, set)
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

    #[test]
    fn incremental_extension_matches_direct_build() {
        let (data, _) = make_data(10, 2, 8, 2);
        let direct = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3]).unwrap();
        let mut inc = LoewnerPencil::build_subset(&data, &[0, 1]).unwrap();
        inc.extend(&data, &[2, 3]).unwrap();
        assert!(inc.ll().approx_eq(direct.ll(), 1e-13));
        assert!(inc.sll().approx_eq(direct.sll(), 1e-13));
        assert!(inc.w().approx_eq(direct.w(), 0.0));
        assert!(inc.v().approx_eq(direct.v(), 0.0));
        assert_eq!(inc.lambdas(), direct.lambdas());
        assert_eq!(inc.mus(), direct.mus());
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
    fn retraction_matches_a_from_scratch_build_of_the_survivors() {
        let (data, _) = make_data(10, 2, 12, 2);
        let mut windowed = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3, 4]).unwrap();
        let pinned_x0 = windowed.default_x0();
        windowed.retract(2).unwrap();

        let direct = LoewnerPencil::build_subset(&data, &[2, 3, 4]).unwrap();
        assert!(windowed.ll().approx_eq(direct.ll(), 0.0));
        assert!(windowed.sll().approx_eq(direct.sll(), 0.0));
        assert!(windowed.w().approx_eq(direct.w(), 0.0));
        assert!(windowed.v().approx_eq(direct.v(), 0.0));
        assert_eq!(windowed.lambdas(), direct.lambdas());
        assert_eq!(windowed.mus(), direct.mus());
        // Surviving pairs are renumbered to the window frame …
        assert_eq!(windowed.included_pairs(), &[0, 1, 2]);
        assert_eq!(windowed.pair_ts(), &[2, 2, 2]);
        // … and the order-detection shift stays pinned to the original λ₁.
        assert_eq!(windowed.default_x0(), pinned_x0);
        assert_ne!(windowed.default_x0(), windowed.lambdas()[0]);
    }

    #[test]
    fn retract_then_extend_slides_the_window() {
        let (data, _) = make_data(8, 2, 10, 1);
        let mut windowed = LoewnerPencil::build_subset(&data, &[0, 1, 2, 3]).unwrap();
        windowed.retract(1).unwrap();
        // After renumbering, data pair 4 sits at window frame … but the
        // pencil checks indices against the *caller's* data, so extend
        // with the original indices shifted down by the retraction.
        windowed.extend(&data, &[4]).unwrap();
        assert_eq!(windowed.order(), 8);
        let direct = LoewnerPencil::build_subset(&data, &[1, 2, 3, 4]).unwrap();
        assert!(windowed.ll().approx_eq(direct.ll(), 0.0));
        assert!(windowed.sll().approx_eq(direct.sll(), 0.0));
    }

    #[test]
    fn invalid_retractions_are_rejected_and_transactional() {
        let (data, _) = make_data(6, 2, 4, 1);
        let mut pencil = LoewnerPencil::build_subset(&data, &[0, 1]).unwrap();
        let before = pencil.ll().clone();
        // Emptying the pencil is refused.
        assert!(pencil.retract(2).is_err());
        assert!(pencil.retract(5).is_err());
        assert_eq!(pencil.order(), before.rows());
        assert!(pencil.ll().approx_eq(&before, 0.0));
        // A no-op retraction is fine.
        pencil.retract(0).unwrap();
        assert_eq!(pencil.included_pairs(), &[0, 1]);
    }

    #[test]
    fn invalid_subsets_are_rejected() {
        let (data, _) = make_data(6, 2, 4, 1);
        assert!(LoewnerPencil::build_subset(&data, &[]).is_err());
        assert!(LoewnerPencil::build_subset(&data, &[5]).is_err());
        let mut pencil = LoewnerPencil::build_subset(&data, &[0]).unwrap();
        assert!(pencil.extend(&data, &[0]).is_err()); // duplicate
        assert!(pencil.extend(&data, &[7]).is_err()); // out of range
    }
}
