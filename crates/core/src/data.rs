//! Matrix-format tangential interpolation data (paper Eqs. 6–9).
//!
//! A sample set of `k` matrices (`k` even) is split alternately: samples
//! `0, 2, 4, …` feed the **right** data `{λ_i, R_i, W_i = S R_i}`,
//! samples `1, 3, 5, …` feed the **left** data `{μ_i, L_i, V_i = L S}`.
//! Each sample additionally contributes its complex conjugate
//! (`λ → −λ`, `W → conj(W)`, directions real hence unchanged) so the
//! recovered model satisfies `H(−jω) = conj(H(jω))` and admits a real
//! realization (Lemma 3.2).

use mfti_numeric::{CMatrix, Complex, RMatrix};
use mfti_sampling::SampleSet;
use mfti_statespace::s_at_hz;

use crate::directions::{generate_directions_from, DirectionKind, DirectionOrigin, DirectionSet};
use crate::error::MftiError;

/// Per-sample block widths `t_i` (the paper's accuracy/speed/weighting
/// knob, Section 3.1).
///
/// # Resolution semantics
///
/// Weights are *resolved* against the sample set when
/// [`TangentialData::build`] runs: each variant expands to one `t_j ∈
/// [1, min(m, p)]` per sample **pair** (pair `j` = samples `2j`/`2j+1`),
/// and pair `j` then contributes `2·t_j` rows and columns to the
/// Loewner pencil (`K = Σ 2 t_j`). [`Weights::Full`] defers the choice
/// of `t` to resolution time, so one fitter configuration works across
/// sample sets of different port counts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Weights {
    /// Full matrix weights `t = min(m, p)` for every pair, resolved
    /// against the sample dimensions at build time — every entry of each
    /// sample is exploited (Lemma 3.1). The default of the fitters.
    Full,
    /// The same `t` for every sample pair. `t = min(m, p)` is equivalent
    /// to [`Weights::Full`]; `t = 1` degenerates to VFTI.
    Uniform(usize),
    /// An explicit `t_j` per sample *pair* (pair `j` = samples
    /// `2j`/`2j+1`). Larger weights emphasize the corresponding
    /// frequencies — the paper's treatment of ill-conditioned data.
    PerPair(Vec<usize>),
}

impl Weights {
    /// Expands to per-pair widths; `full_t` is the `min(m, p)` of the
    /// sample set, substituted for [`Weights::Full`].
    fn resolve(&self, pairs: usize, full_t: usize) -> Result<Vec<usize>, MftiError> {
        match self {
            Weights::Full => Ok(vec![full_t; pairs]),
            Weights::Uniform(t) => Ok(vec![*t; pairs]),
            Weights::PerPair(v) => {
                if v.len() != pairs {
                    return Err(MftiError::InvalidWeights {
                        what: format!("expected {pairs} pair weights, got {}", v.len()),
                    });
                }
                Ok(v.clone())
            }
        }
    }
}

/// Rejects direction blocks carrying a numerically-zero column (right,
/// `m × t`) or row (left, `t × p`): the corresponding interpolation
/// condition `S(λ)r` / `ℓS(μ)` constrains nothing and the Loewner
/// pencil silently loses rank. "Numerically zero" is relative to the
/// block's own magnitude, so an all-zero block also fires. Blocks are
/// numbered from pair `first`.
fn check_directions(dirs: &DirectionSet, first: usize) -> Result<(), MftiError> {
    let degenerate = |scale: f64, max: f64| max <= scale * f64::EPSILON;
    for (j, r) in (first..).zip(&dirs.right) {
        let (m, t) = r.dims();
        let scale = r.max_abs();
        for c in 0..t {
            let col_max = (0..m).map(|i| r[(i, c)].abs()).fold(0.0, f64::max);
            if degenerate(scale, col_max) {
                return Err(MftiError::DegenerateDirection { pair: j });
            }
        }
    }
    for (j, l) in (first..).zip(&dirs.left) {
        let (t, p) = l.dims();
        let scale = l.max_abs();
        for r in 0..t {
            let row_max = (0..p).map(|c| l[(r, c)].abs()).fold(0.0, f64::max);
            if degenerate(scale, row_max) {
                return Err(MftiError::DegenerateDirection { pair: j });
            }
        }
    }
    Ok(())
}

/// One right tangential triple `(λ, R, W)` with `W = S(f) R`.
#[derive(Debug, Clone)]
pub struct RightTriple {
    /// Interpolation point `λ = ±j2πf`.
    pub lambda: Complex,
    /// Direction block `R` (`m × t`), real.
    pub r: RMatrix,
    /// Data block `W = S(f)·R` (`p × t`).
    pub w: CMatrix,
    /// Index of the originating sample in the sample set.
    pub sample_index: usize,
}

/// One left tangential triple `(μ, L, V)` with `V = L S(f)`.
#[derive(Debug, Clone)]
pub struct LeftTriple {
    /// Interpolation point `μ = ±j2πf`.
    pub mu: Complex,
    /// Direction block `L` (`t × p`), real.
    pub l: RMatrix,
    /// Data block `V = L·S(f)` (`t × m`).
    pub v: CMatrix,
    /// Index of the originating sample in the sample set.
    pub sample_index: usize,
}

/// The full matrix-format tangential data set of Eqs. (6)–(9).
///
/// Triples are stored with conjugates adjacent (`2j` = original,
/// `2j+1` = conjugate), which is the ordering Lemma 3.2's
/// block-diagonal transformation `T` expects.
#[derive(Debug, Clone)]
pub struct TangentialData {
    right: Vec<RightTriple>,
    left: Vec<LeftTriple>,
    pair_weights: Vec<usize>,
    outputs: usize,
    inputs: usize,
    freq_scale: f64,
}

impl TangentialData {
    /// Builds tangential data from an even-sized sample set.
    ///
    /// # Errors
    ///
    /// * [`MftiError::Defect`] for NaN/∞ frequencies or entries,
    ///   duplicate frequencies, or fewer than two samples — the
    ///   validated-ingestion gate shared by every engine (DESIGN.md §8);
    /// * [`MftiError::InvalidSamples`] for odd `k` or non-positive
    ///   frequencies;
    /// * [`MftiError::DegenerateDirection`] when a direction block
    ///   carries a numerically-zero column/row;
    /// * [`MftiError::InvalidWeights`] for out-of-range `t_i`.
    pub fn build(
        samples: &SampleSet,
        directions: DirectionKind,
        weights: &Weights,
    ) -> Result<Self, MftiError> {
        Self::build_from(samples, directions, weights, DirectionOrigin::default())
    }

    /// [`TangentialData::build`] with the direction stream resumed at
    /// `origin` — the sliding-window form (DESIGN.md §9): the data of a
    /// window over the *live samples only* (so the duplicate-frequency
    /// gate scopes to the window, not the full stream history) in which
    /// each pair keeps the directions it was assigned when it first
    /// streamed in. A windowed [`FitSession`](crate::FitSession) slides
    /// its data to the same bits instead of rebuilding them.
    ///
    /// # Errors
    ///
    /// See [`TangentialData::build`].
    pub fn build_from(
        samples: &SampleSet,
        directions: DirectionKind,
        weights: &Weights,
        origin: DirectionOrigin,
    ) -> Result<Self, MftiError> {
        let (p, m) = samples.ports();
        let empty = TangentialData {
            right: Vec::new(),
            left: Vec::new(),
            pair_weights: Vec::new(),
            outputs: p,
            inputs: m,
            freq_scale: 0.0,
        };
        empty.slide(0, samples, directions, weights, origin)
    }

    /// The data of a sliding window after an append, with the bits and
    /// refusals of [`build_from`](Self::build_from) over `window` — the
    /// live samples, survivors first — at the window's stream position
    /// `origin`. Only the appended pairs' triples are built: the first
    /// `evict_pairs` pairs of `self` are dropped and the survivors'
    /// triples are kept (prefix-stable directions make them the ones a
    /// rebuild would produce), renumbered to the window.
    ///
    /// # Errors
    ///
    /// See [`TangentialData::build`].
    pub(crate) fn slide(
        &self,
        evict_pairs: usize,
        window: &SampleSet,
        directions: DirectionKind,
        weights: &Weights,
        origin: DirectionOrigin,
    ) -> Result<Self, MftiError> {
        // The numeric ingestion gate runs first, over the whole window:
        // non-finite data and duplicated interpolation points σ (which
        // make the Loewner divided differences singular) never reach
        // pencil assembly.
        window.validate()?;
        let k = window.len();
        if !k.is_multiple_of(2) {
            return Err(MftiError::InvalidSamples {
                what: format!("need an even number of samples >= 2, got {k}"),
            });
        }
        if window.freqs_hz().iter().any(|&f| f <= 0.0) {
            return Err(MftiError::InvalidSamples {
                what: "frequencies must be strictly positive (conjugate \
                       augmentation would collide at DC)"
                    .to_string(),
            });
        }
        let (p, m) = window.ports();
        let ts = weights.resolve(k / 2, p.min(m))?;

        let shift = 2 * evict_pairs;
        let mut right: Vec<RightTriple> = self.right[shift..]
            .iter()
            .map(|t| RightTriple {
                sample_index: t.sample_index - shift,
                ..t.clone()
            })
            .collect();
        let mut left: Vec<LeftTriple> = self.left[shift..]
            .iter()
            .map(|t| LeftTriple {
                sample_index: t.sample_index - shift,
                ..t.clone()
            })
            .collect();
        let first = right.len() / 2;
        let new_ts = &ts[first..];
        let dirs = generate_directions_from(
            directions,
            p,
            m,
            new_ts,
            new_ts,
            DirectionOrigin {
                pairs: origin.pairs + first,
                cols: origin.cols + ts[..first].iter().sum::<usize>(),
            },
        )?;
        // Built-in generators emit orthonormal blocks, but the gate also
        // guards any future user-supplied direction source: a zero
        // column/row makes its interpolation condition vacuous and the
        // pencil silently loses rank (DESIGN.md §8).
        check_directions(&dirs, first)?;

        for (j, (r, l)) in (first..).zip(dirs.right.iter().zip(&dirs.left)) {
            // Right data from sample 2j (paper: f_1, f_3, …).
            let (f_r, s_r) = window.get(2 * j);
            let w = s_r.matmul(&r.to_complex())?;
            let lambda = s_at_hz(f_r);
            right.push(RightTriple {
                lambda,
                r: r.clone(),
                w: w.clone(),
                sample_index: 2 * j,
            });
            right.push(RightTriple {
                lambda: -lambda,
                r: r.clone(),
                w: w.conj(),
                sample_index: 2 * j,
            });

            // Left data from sample 2j+1 (paper: f_2, f_4, …).
            let (f_l, s_l) = window.get(2 * j + 1);
            let v = l.to_complex().matmul(s_l)?;
            let mu = s_at_hz(f_l);
            left.push(LeftTriple {
                mu,
                l: l.clone(),
                v: v.clone(),
                sample_index: 2 * j + 1,
            });
            left.push(LeftTriple {
                mu: -mu,
                l: l.clone(),
                v: v.conj(),
                sample_index: 2 * j + 1,
            });
        }

        // Pencil computations run in normalized frequency s' = s/ω₀ to
        // keep 𝕃 and σ𝕃 at comparable magnitudes (σ𝕃 ≈ ω·𝕃 otherwise,
        // which destroys the projection subspaces on wide-band data).
        let freq_scale = window
            .freqs_hz()
            .iter()
            .fold(0.0f64, |acc, &f| acc.max(std::f64::consts::TAU * f));

        Ok(TangentialData {
            right,
            left,
            pair_weights: ts,
            outputs: p,
            inputs: m,
            freq_scale,
        })
    }

    /// The frequency normalization ω₀ (max |λ|) used by the Loewner
    /// pencil; interpolation points inside [`LoewnerPencil`](crate::LoewnerPencil) are divided
    /// by this factor and the realizations denormalize `E` accordingly.
    pub fn freq_scale(&self) -> f64 {
        self.freq_scale
    }

    /// Right triples (conjugates adjacent).
    pub fn right(&self) -> &[RightTriple] {
        &self.right
    }

    /// Left triples (conjugates adjacent).
    pub fn left(&self) -> &[LeftTriple] {
        &self.left
    }

    /// Block width `t_j` of each sample pair.
    pub fn pair_weights(&self) -> &[usize] {
        &self.pair_weights
    }

    /// Number of sample pairs per side (`k/2`).
    pub fn num_pairs(&self) -> usize {
        self.pair_weights.len()
    }

    /// Total Loewner pencil order `K = Σ 2 t_j` when all pairs are used.
    pub fn pencil_order(&self) -> usize {
        2 * self.pair_weights.iter().sum::<usize>()
    }

    /// `(outputs p, inputs m)`.
    pub fn ports(&self) -> (usize, usize) {
        (self.outputs, self.inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, SampleSet};
    use mfti_statespace::TransferFunction;

    fn samples(k: usize, ports: usize) -> (SampleSet, mfti_statespace::DescriptorSystem<f64>) {
        let sys = RandomSystemBuilder::new(12, ports, ports)
            .seed(3)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        (SampleSet::from_system(&sys, &grid).unwrap(), sys)
    }

    #[test]
    fn build_splits_samples_alternately() {
        let (set, _) = samples(6, 2);
        let data = TangentialData::build(&set, DirectionKind::CyclicIdentity, &Weights::Uniform(2))
            .unwrap();
        assert_eq!(data.num_pairs(), 3);
        assert_eq!(data.right().len(), 6);
        assert_eq!(data.left().len(), 6);
        assert_eq!(data.right()[0].sample_index, 0);
        assert_eq!(data.right()[2].sample_index, 2);
        assert_eq!(data.left()[0].sample_index, 1);
        assert_eq!(data.pencil_order(), 12);
    }

    #[test]
    fn conjugate_triples_are_adjacent_and_conjugated() {
        let (set, _) = samples(4, 3);
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 1 },
            &Weights::Uniform(3),
        )
        .unwrap();
        for pair in data.right().chunks(2) {
            assert_eq!(pair[0].lambda, -pair[1].lambda);
            assert_eq!(pair[0].r, pair[1].r);
            assert!((&pair[0].w.conj() - &pair[1].w).max_abs() < 1e-15);
        }
        for pair in data.left().chunks(2) {
            assert_eq!(pair[0].mu, -pair[1].mu);
            assert!((&pair[0].v.conj() - &pair[1].v).max_abs() < 1e-15);
        }
    }

    #[test]
    fn interpolation_data_satisfy_their_definition() {
        let (set, sys) = samples(4, 2);
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 5 },
            &Weights::Uniform(2),
        )
        .unwrap();
        // W_i = S(f_i) R_i must equal H(λ_i) R_i for the true system.
        for t in data.right().iter().step_by(2) {
            let h = sys.eval(t.lambda).unwrap();
            let w = h.matmul(&t.r.to_complex()).unwrap();
            assert!((&w - &t.w).max_abs() < 1e-10);
        }
        for t in data.left().iter().step_by(2) {
            let h = sys.eval(t.mu).unwrap();
            let v = t.l.to_complex().matmul(&h).unwrap();
            assert!((&v - &t.v).max_abs() < 1e-10);
        }
    }

    #[test]
    fn odd_and_tiny_sample_counts_are_rejected() {
        let (set, _) = samples(6, 2);
        let odd = set.subset(&[0, 1, 2]).unwrap();
        assert!(
            TangentialData::build(&odd, DirectionKind::CyclicIdentity, &Weights::Uniform(1))
                .is_err()
        );
    }

    #[test]
    fn duplicate_frequencies_are_rejected() {
        let (set, _) = samples(4, 2);
        let dup = set.subset(&[0, 0, 1, 2]).unwrap();
        assert!(matches!(
            TangentialData::build(&dup, DirectionKind::CyclicIdentity, &Weights::Uniform(1)),
            Err(MftiError::Defect(
                mfti_sampling::SampleDefect::DuplicateFrequency {
                    first: 0,
                    second: 1
                }
            ))
        ));
    }

    #[test]
    fn non_finite_entries_are_typed_defects() {
        let (set, _) = samples(4, 2);
        let mut mats: Vec<_> = set.matrices().to_vec();
        mats[2][(0, 1)] = mfti_numeric::c64(f64::NAN, 0.0);
        let bad = SampleSet::from_parts(set.freqs_hz().to_vec(), mats).unwrap();
        assert!(matches!(
            TangentialData::build(&bad, DirectionKind::CyclicIdentity, &Weights::Uniform(1)),
            Err(MftiError::Defect(
                mfti_sampling::SampleDefect::NonFiniteEntry {
                    sample: 2,
                    row: 0,
                    col: 1
                }
            ))
        ));
    }

    #[test]
    fn zero_direction_columns_are_degenerate() {
        let good = RMatrix::identity(2);
        let mut zero_col = RMatrix::identity(2);
        zero_col[(1, 1)] = 0.0;
        let dirs = DirectionSet {
            right: vec![good.clone(), zero_col.clone()],
            left: vec![good.clone(), good.clone()],
        };
        assert!(matches!(
            check_directions(&dirs, 0),
            Err(MftiError::DegenerateDirection { pair: 1 })
        ));
        let dirs = DirectionSet {
            right: vec![good.clone(), good.clone()],
            left: vec![zero_col, good.clone()],
        };
        assert!(matches!(
            check_directions(&dirs, 0),
            Err(MftiError::DegenerateDirection { pair: 0 })
        ));
        let dirs = DirectionSet {
            right: vec![good.clone()],
            left: vec![good],
        };
        assert!(check_directions(&dirs, 0).is_ok());
    }

    #[test]
    fn per_pair_weights_are_respected() {
        let (set, _) = samples(6, 3);
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 2 },
            &Weights::PerPair(vec![3, 2, 1]),
        )
        .unwrap();
        assert_eq!(data.pair_weights(), &[3, 2, 1]);
        assert_eq!(data.right()[0].r.cols(), 3);
        assert_eq!(data.right()[2].r.cols(), 2);
        assert_eq!(data.right()[4].r.cols(), 1);
        assert_eq!(data.pencil_order(), 12);
        // Wrong length rejected.
        assert!(TangentialData::build(
            &set,
            DirectionKind::CyclicIdentity,
            &Weights::PerPair(vec![1, 1])
        )
        .is_err());
    }
}
