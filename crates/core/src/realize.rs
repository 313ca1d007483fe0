//! State-space realization from the Loewner pencil (Lemmas 3.1, 3.2
//! and 3.4).
//!
//! * [`realize_direct`] — Lemma 3.1: when the pencil is regular, take
//!   `E = −𝕃`, `A = −σ𝕃`, `B = V`, `C = W` verbatim (order `K`).
//! * [`realize_real`] — the real-arithmetic projection after Lemma 3.2:
//!   left factors of `svd([𝕃 σ𝕃])`, right factors of `svd([𝕃; σ𝕃])`
//!   (the Lefteriu–Antoulas recipe; the singular values of the shifted
//!   pencil still drive order detection — see DESIGN.md §5).
//!   `RealPencilState` is the pipeline every fit and session runs on
//!   top of it.
//! * [`realize_complex`] — Lemma 3.4's complex projection, the step the
//!   realification replaces. The pipeline never takes it; it stays as
//!   the public oracle that tests and ablations compare against.

use std::sync::OnceLock;

use mfti_numeric::{kernel, CMatrix, Complex, Matrix, RMatrix, Scalar, SvdFactors};
use mfti_statespace::DescriptorSystem;

use crate::data::TangentialData;
use crate::error::MftiError;
use crate::loewner::LoewnerPencil;
use crate::realify::RealifiedPencil;
use crate::recovery::LadderSvd;

/// How to pick the reduced order from the singular-value profile of
/// `x₀𝕃 − σ𝕃`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum OrderSelection {
    /// Keep singular values above `rel_tol · σ₁` (noise-free data:
    /// `1e-12` finds the exact order — weakly coupled modes can sit many
    /// decades below σ₁ yet far above the `≈1e-16` numerical floor).
    Threshold(f64),
    /// Keep everything before the largest ratio drop `σ_r / σ_{r+1}`,
    /// searching `r ∈ [min_order, max_order]`. Matches the "sharp drop"
    /// reading of Fig. 1, but can lock onto an early mode-strength gap
    /// when the physical modes span many magnitudes — prefer
    /// [`OrderSelection::NoiseFloor`] for noisy data.
    LargestGap {
        /// Smallest admissible order (≥ 1).
        min_order: usize,
        /// Largest admissible order (inclusive; clipped to the pencil).
        max_order: usize,
    },
    /// Estimate the noise floor as the median of the bottom quarter of
    /// the spectrum and keep singular values above `factor` times it.
    /// The robust choice for noisy data (Table 1 workloads).
    NoiseFloor {
        /// Multiple of the estimated floor a singular value must exceed
        /// to be kept (3–10 is typical).
        factor: f64,
    },
    /// Fixed order (ablations, reproducing a table row exactly).
    Fixed(usize),
}

impl Default for OrderSelection {
    fn default() -> Self {
        OrderSelection::Threshold(1e-12)
    }
}

impl OrderSelection {
    /// Resolves the selection against a (descending) singular-value
    /// profile.
    ///
    /// # Errors
    ///
    /// Returns [`MftiError::OrderSelection`] when the resolved order is
    /// zero or exceeds the profile length.
    pub fn detect(&self, sv: &[f64]) -> Result<usize, MftiError> {
        let n = sv.len();
        let order = match *self {
            OrderSelection::Threshold(rel) => {
                let s0 = sv.first().copied().unwrap_or(0.0);
                sv.iter().take_while(|&&s| s > rel * s0).count()
            }
            OrderSelection::LargestGap {
                min_order,
                max_order,
            } => {
                let lo = min_order.max(1);
                let hi = max_order.min(n.saturating_sub(1));
                if lo > hi {
                    return Err(MftiError::OrderSelection {
                        requested: lo,
                        pencil: n,
                    });
                }
                let mut best_r = lo;
                let mut best_ratio = 0.0f64;
                for r in lo..=hi {
                    let denom = sv[r].max(f64::MIN_POSITIVE);
                    let ratio = sv[r - 1] / denom;
                    if ratio > best_ratio {
                        best_ratio = ratio;
                        best_r = r;
                    }
                }
                best_r
            }
            OrderSelection::NoiseFloor { factor } => {
                // The floor estimate wants the bottom quarter, widened to
                // at least 4 values; profiles shorter than 4 have no tail
                // to speak of — the whole profile is the window.
                let tail = if n < 4 {
                    sv
                } else {
                    &sv[((3 * n) / 4).min(n - 4)..]
                };
                let floor = median(tail);
                let s0 = sv.first().copied().unwrap_or(0.0);
                // Never cut below the numerical noise of the SVD itself:
                // on clean data the estimated "floor" is roundoff scatter
                // and factor·floor would keep pure-garbage directions.
                let cut = (factor * floor).max(crate::numeric_floor() * s0);
                sv.iter().take_while(|&&s| s > cut).count()
            }
            OrderSelection::Fixed(r) => r,
        };
        if order == 0 || order > n {
            return Err(MftiError::OrderSelection {
                requested: order,
                pencil: n,
            });
        }
        Ok(order)
    }
}

/// Median of a (not necessarily sorted) slice; 0 for an empty slice.
/// Linear-time selection instead of a full sort — the profile is read
/// once per append on the session path.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let mid = v.len() / 2;
    let cmp = |a: &f64, b: &f64| a.total_cmp(b);
    let (below, &mut upper, _) = v.select_nth_unstable_by(mid, cmp);
    if values.len() % 2 == 1 {
        upper
    } else {
        // Even length: the lower median is the largest of the partition
        // below the selected element.
        let lower = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        0.5 * (lower + upper)
    }
}

/// Lemma 3.1: the raw (unreduced) realization
/// `(E, A, B, C) = (−𝕃, −σ𝕃, V, W)`.
///
/// Exact interpolation holds when `x𝕃 − σ𝕃` is regular at all
/// interpolation points — i.e. when the data contain no redundancy
/// (`K ≤ order + rank(D)`), otherwise use the SVD paths.
///
/// # Errors
///
/// Propagates construction failures (shape errors cannot occur for
/// internally built pencils).
pub fn realize_direct(pencil: &LoewnerPencil) -> Result<DescriptorSystem<Complex>, MftiError> {
    let (p, _) = pencil.w().dims();
    let m = pencil.v().cols();
    // The pencil lives in normalized frequency s' = s/ω₀; the model
    // (E/ω₀, A, B, C) interpolates at true frequencies.
    let e = (-pencil.ll()).scale(1.0 / pencil.freq_scale());
    Ok(DescriptorSystem::new(
        e,
        -pencil.sll(),
        pencil.v().clone(),
        pencil.w().clone(),
        CMatrix::zeros(p, m),
    )?)
}

/// Lemma 3.4: SVD-projected **complex** realization of order `r` —
/// the oracle the real pipeline is checked against. Economy SVD of
/// `x₀𝕃 − σ𝕃` (through the recovery ladder, DESIGN.md §8), then the
/// projections `E = −Y*𝕃X/ω₀`, `A = −Y*σ𝕃X`, `B = Y*V`, `C = WX` with
/// the leading `order` factor columns `Y`, `X`.
///
/// # Errors
///
/// Propagates SVD failures and [`MftiError::OrderSelection`] for an
/// out-of-range order.
pub fn realize_complex(
    pencil: &LoewnerPencil,
    x0: Complex,
    order: usize,
) -> Result<DescriptorSystem<Complex>, MftiError> {
    check_order(order, pencil.order())?;
    let ladder = LadderSvd::compute(&pencil.shifted_pencil(x0), SvdFactors::Both)?;
    let (y, x) = ladder.accumulate_both(order)?;
    let matrices = [pencil.ll(), pencil.sll(), pencil.v(), pencil.w()];
    project(matrices, pencil.freq_scale(), &y, &x)
}

/// [`MftiError::OrderSelection`] unless `1 ≤ order ≤ k`.
fn check_order(order: usize, k: usize) -> Result<(), MftiError> {
    if order == 0 || order > k {
        return Err(MftiError::OrderSelection {
            requested: order,
            pencil: k,
        });
    }
    Ok(())
}

/// Real-arithmetic projection after Lemma 3.2: order-`r` **real**
/// descriptor model via the stacked SVDs
/// `Y = svd([𝕃 σ𝕃]).U(:, 1..r)`, `X = svd([𝕃; σ𝕃]).V(:, 1..r)`.
///
/// Each stacked decomposition runs the lazy two-phase path and
/// accumulates exactly the one factor side the projection reads,
/// truncated to `order` columns — in the **real** scalar type, so the
/// packed real GEMM path carries all the way through the projections
/// (no complex round-trip).
///
/// # Errors
///
/// Propagates SVD failures and [`MftiError::OrderSelection`] for an
/// out-of-range order.
pub fn realize_real(
    pencil: &RealifiedPencil,
    order: usize,
) -> Result<DescriptorSystem<f64>, MftiError> {
    let (rows, cols) = stacked_factors(pencil)?;
    realize_real_from_stacked(pencil, &rows, &cols, order)
}

/// Decomposes the two stacked pencils `[𝕃 σ𝕃]` (wide) and `[𝕃; σ𝕃]`
/// (tall) — the order-independent half of [`realize_real`], which
/// [`RealPencilState`] keeps per pencil generation. Both prefer the
/// QR-first lazy two-phase path, where the factor sides the projection
/// reads (left of the wide stack, right of the tall one) never touch
/// the QR's `Q`; a stalled sweep degrades through the recovery ladder
/// ([`LadderSvd`], DESIGN.md §8).
///
/// Each stack is written once, straight into the working copy its
/// bidiagonalization consumes — the wide one as its adjoint
/// `[𝕃ᵀ; σ𝕃ᵀ]`, the orientation that decomposition works in — and
/// only one is alive at a time.
fn stacked_factors(
    pencil: &RealifiedPencil,
) -> Result<(LadderSvd<f64>, LadderSvd<f64>), MftiError> {
    let halves = [pencil.ll(), pencil.sll()];
    let rows = LadderSvd::compute_from_adjoint(
        || RMatrix::adjoint_of_block_row(&halves),
        SvdFactors::Left,
    )?;
    let cols = LadderSvd::compute_owned(
        || {
            let k = pencil.order();
            RMatrix::from_vec(
                2 * k,
                k,
                [halves[0].as_slice(), halves[1].as_slice()].concat(),
            )
        },
        SvdFactors::Right,
    )?;
    Ok((rows, cols))
}

/// The accumulate-and-project half of [`realize_real`]: truncated
/// factors from the stacked bidiagonalizations, then the Lemma 3.4
/// projections in real arithmetic.
fn realize_real_from_stacked(
    pencil: &RealifiedPencil,
    rows: &LadderSvd<f64>,
    cols: &LadderSvd<f64>,
    order: usize,
) -> Result<DescriptorSystem<f64>, MftiError> {
    check_order(order, pencil.order())?;
    let y = rows.accumulate_u(order)?;
    let x = cols.accumulate_v(order)?;
    project_real(pencil, &y, &x)
}

/// One pencil generation in real arithmetic: the realified pencil
/// (Lemma 3.2, assembled straight from the data) and the
/// factorizations its realizations read, each filled on first use and
/// then reused. The pinned shift is real (DESIGN.md §5), so the shifted
/// pencil `x₀𝕃ᵣ − σ𝕃ᵣ` is a real matrix: detection runs on the packed
/// real GEMM path, and its factors are the real bases the restricted
/// projection reads. [`Mfti::fit`](crate::Fitter::fit) builds one per
/// fit; a [`FitSession`](crate::FitSession) slides one per append and
/// feeds its updater, its oracle and every `realize_with` from it, so a
/// single-batch session realizes with the fit's bits at every order.
#[derive(Debug, Clone)]
pub(crate) struct RealPencilState {
    real: RealifiedPencil,
    /// Bidiagonalization of `x₀𝕃ᵣ − σ𝕃ᵣ` (detection signal and
    /// restricted-projection bases).
    detection: OnceLock<LadderSvd<f64>>,
    /// Bidiagonalizations of `[𝕃ᵣ σ𝕃ᵣ]` and `[𝕃ᵣ; σ𝕃ᵣ]` (dense orders).
    stacked: OnceLock<(LadderSvd<f64>, LadderSvd<f64>)>,
}

impl RealPencilState {
    /// A generation over `real`, its factorizations not yet filled.
    fn over(real: RealifiedPencil) -> Self {
        RealPencilState {
            real,
            detection: OnceLock::new(),
            stacked: OnceLock::new(),
        }
    }

    /// The generation over no pairs, that a recursive fit grows from.
    pub(crate) fn empty(data: &TangentialData) -> Self {
        Self::over(RealifiedPencil::empty(data))
    }

    /// The generation over every pair of `data`
    /// ([`RealifiedPencil::build`]).
    pub(crate) fn build(data: &TangentialData) -> Result<Self, MftiError> {
        Ok(Self::over(RealifiedPencil::build(data)?))
    }

    /// The next generation of a window ([`RealifiedPencil::slide`]:
    /// `data` holds every pair of the next pencil).
    pub(crate) fn slide(
        &self,
        evict_pairs: usize,
        data: &TangentialData,
        new_pairs: &[usize],
    ) -> Result<Self, MftiError> {
        Ok(Self::over(self.real.slide(evict_pairs, data, new_pairs)?))
    }

    /// The realified pencil.
    pub(crate) fn pencil(&self) -> &RealifiedPencil {
        &self.real
    }

    /// Pencil order `K`.
    pub(crate) fn order(&self) -> usize {
        self.real.order()
    }

    /// The `rows × cols` block of `x₀𝕃ᵣ − σ𝕃ᵣ` at `(row, col)`.
    pub(crate) fn shifted_block(
        &self,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
    ) -> RMatrix {
        self.real
            .shifted_pencil_block(self.real.x0(), row, col, rows, cols)
    }

    /// The whole shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ`.
    pub(crate) fn shifted(&self) -> RMatrix {
        self.real.shifted_pencil(self.real.x0())
    }

    /// A fresh bidiagonalization of the shifted pencil through the
    /// recovery ladder (DESIGN.md §8), working in the matrix it builds.
    pub(crate) fn decompose_shifted(&self) -> Result<LadderSvd<f64>, MftiError> {
        Ok(LadderSvd::compute_owned(
            || Ok(self.shifted()),
            SvdFactors::Both,
        )?)
    }

    /// [`decompose_shifted`](Self::decompose_shifted), computed on the
    /// first call and kept for every later realization.
    pub(crate) fn detection(&self) -> Result<&LadderSvd<f64>, MftiError> {
        if let Some(detection) = self.detection.get() {
            return Ok(detection);
        }
        let built = self.decompose_shifted()?;
        // A lost set race just drops an identical value.
        Ok(self.detection.get_or_init(|| built))
    }

    /// A one-shot fit's order-`order` model from its own `detection`
    /// ([`decompose_shifted`](Self::decompose_shifted)), with
    /// [`realize`](Self::realize)'s bits: the detection's working state
    /// is dropped before the projection runs, and nothing is cached.
    pub(crate) fn realize_once(
        &self,
        detection: LadderSvd<f64>,
        order: usize,
    ) -> Result<DescriptorSystem<f64>, MftiError> {
        if 2 * order > self.order() {
            drop(detection);
            return realize_real(&self.real, order);
        }
        let (y, x) = detection.accumulate_both(order)?;
        drop(detection);
        self.realize_restricted(&y, &x, order)
    }

    /// Order-`order` real model. Dense requests (`2r > K`) take the
    /// stacked SVDs, as [`realize_real`] does; the others restrict the
    /// stacks to the detection's leading `r` factor columns, which the
    /// Loewner rank equalities make span the same spaces, shrinking
    /// both `K × 2K` problems to `r × 2K`.
    pub(crate) fn realize(&self, order: usize) -> Result<DescriptorSystem<f64>, MftiError> {
        if 2 * order > self.order() {
            let (rows, cols) = match self.stacked.get() {
                Some(stacked) => stacked,
                None => {
                    let built = stacked_factors(&self.real)?;
                    self.stacked.get_or_init(|| built)
                }
            };
            return realize_real_from_stacked(&self.real, rows, cols, order);
        }
        let (y, x) = self.detection()?.accumulate_both(order)?;
        self.realize_restricted(&y, &x, order)
    }

    /// Order-`order` real model from the stacks restricted to real
    /// orthonormal bases `yb`/`xb` that contain their leading column
    /// and row spaces: `[𝕃ᵣ σ𝕃ᵣ] = Yb·G` and `[𝕃ᵣ; σ𝕃ᵣ] = H·Xbᵀ`
    /// (numerically), so the leading singular subspaces of the small
    /// `G`/`H` lift back through the bases. The bases are the
    /// detection's leading `r` factors ([`realize`](Self::realize)) or
    /// a session updater's `q` retained factors of the same shifted
    /// pencil (DESIGN.md §6).
    ///
    /// Neither stack is formed. `G = Ybᵀ[𝕃ᵣ σ𝕃ᵣ]` multiplies the packed
    /// adjoint `[𝕃ᵣᵀ; σ𝕃ᵣᵀ]` — the one operand the fused `AᵀB` kernel
    /// would pack from the stack, built from the halves — so `G`'s `2K`
    /// columns keep their kernel lanes; `H = [𝕃ᵣ; σ𝕃ᵣ]Xb` runs each half
    /// into its rows of one output, which its SVD then works in
    /// (DESIGN.md §11).
    pub(crate) fn realize_restricted(
        &self,
        yb: &RMatrix,
        xb: &RMatrix,
        order: usize,
    ) -> Result<DescriptorSystem<f64>, MftiError> {
        let pencil = &self.real;
        check_order(order, pencil.order())?;
        let halves = [pencil.ll(), pencil.sll()];
        let g = yb
            .adjoint()
            .mul_transpose_right(&RMatrix::adjoint_of_block_row(&halves)?)?;
        let y = yb.matmul(&LadderSvd::compute(&g, SvdFactors::Left)?.accumulate_u(order)?)?;
        drop(g);
        let h = LadderSvd::compute_owned(|| kernel::mul_row_stack(&halves, xb), SvdFactors::Right)?;
        let x = xb.matmul(&h.accumulate_v(order)?)?;
        project_real(pencil, &y, &x)
    }
}

/// The real pipeline's projections: [`project`] on the realified
/// pencil.
fn project_real(
    pencil: &RealifiedPencil,
    y: &RMatrix,
    x: &RMatrix,
) -> Result<DescriptorSystem<f64>, MftiError> {
    let matrices = [pencil.ll(), pencil.sll(), pencil.v(), pencil.w()];
    project(matrices, pencil.freq_scale(), y, x)
}

/// The Lemma 3.4 projections `E = −Yᴴ𝕃X/ω₀`, `A = −Yᴴσ𝕃X`, `B = YᴴV`,
/// `C = WX` of `[𝕃, σ𝕃, V, W]` onto orthonormal `Y`, `X`, in either
/// arithmetic. The fused hermitian-left kernel needs no `Yᴴ`
/// temporary, and the `K × K` pencil contracts against the `r`-thin `X`
/// first.
fn project<T: Scalar>(
    [ll, sll, v, w]: [&Matrix<T>; 4],
    freq_scale: f64,
    y: &Matrix<T>,
    x: &Matrix<T>,
) -> Result<DescriptorSystem<T>, MftiError> {
    let e = (-&y.mul_hermitian_left(&ll.matmul(x)?)?).scale(1.0 / freq_scale);
    let a = -&y.mul_hermitian_left(&sll.matmul(x)?)?;
    let b = y.mul_hermitian_left(v)?;
    let c = w.matmul(x)?;
    let (p, m) = (c.rows(), b.cols());
    Ok(DescriptorSystem::new(e, a, b, c, Matrix::zeros(p, m))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Weights;
    use crate::directions::DirectionKind;
    use crate::realify::realify;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, SampleSet};
    use mfti_statespace::TransferFunction;

    fn setup(
        order: usize,
        ports: usize,
        d_rank: usize,
        k: usize,
        t: usize,
    ) -> (
        LoewnerPencil,
        TangentialData,
        SampleSet,
        mfti_statespace::DescriptorSystem<f64>,
    ) {
        let sys = RandomSystemBuilder::new(order, ports, ports)
            .d_rank(d_rank)
            .seed(31)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        let set = SampleSet::from_system(&sys, &grid).unwrap();
        let data = TangentialData::build(
            &set,
            DirectionKind::RandomOrthonormal { seed: 8 },
            &Weights::Uniform(t),
        )
        .unwrap();
        (LoewnerPencil::build(&data).unwrap(), data, set, sys)
    }

    #[test]
    fn order_selection_threshold() {
        let sv = [1.0, 0.5, 1e-3, 1e-12, 1e-13];
        assert_eq!(OrderSelection::Threshold(1e-9).detect(&sv).unwrap(), 3);
        assert_eq!(OrderSelection::Threshold(1e-2).detect(&sv).unwrap(), 2);
    }

    #[test]
    fn order_selection_largest_gap() {
        let sv = [1.0, 0.8, 0.7, 1e-9, 1e-10];
        let sel = OrderSelection::LargestGap {
            min_order: 1,
            max_order: 10,
        };
        assert_eq!(sel.detect(&sv).unwrap(), 3);
    }

    #[test]
    fn order_selection_noise_floor_cuts_at_the_floor() {
        // 6 signal values, then a 1e-3-ish noise plateau.
        let mut sv = vec![10.0, 5.0, 2.0, 0.9, 0.3, 0.1];
        sv.extend(std::iter::repeat_n(1.1e-3, 6));
        sv.extend(std::iter::repeat_n(0.9e-3, 12));
        let got = OrderSelection::NoiseFloor { factor: 5.0 }
            .detect(&sv)
            .unwrap();
        assert_eq!(got, 6, "floor ≈ 1e-3, cut at 5e-3 keeps the 6 signals");
    }

    #[test]
    fn order_selection_noise_floor_has_a_clean_data_guard() {
        // Clean data: "floor" is roundoff scatter ~1e-16; the absolute
        // relative guard must prevent keeping garbage directions.
        let mut sv = vec![1.0, 0.5, 0.25];
        sv.extend((0..17).map(|i| 1e-15 / (i + 1) as f64));
        let got = OrderSelection::NoiseFloor { factor: 3.0 }
            .detect(&sv)
            .unwrap();
        assert_eq!(got, 3);
    }

    #[test]
    fn order_selection_rejects_empty_and_all_zero_profiles() {
        // Degenerate detection signals (an all-zero pencil, or no
        // profile at all) must surface as `OrderSelection` errors here —
        // order 0 must never reach `realize_*`, whose own guards would
        // mask the true cause. Threshold computes `s0 = 0` and a zero
        // count; the shared zero-order guard converts that to the error.
        let zeros = [0.0f64; 8];
        for sel in [
            OrderSelection::Threshold(1e-12),
            OrderSelection::NoiseFloor { factor: 5.0 },
        ] {
            for profile in [&[][..], &zeros[..]] {
                match sel.detect(profile) {
                    Err(MftiError::OrderSelection { requested, .. }) => {
                        assert_eq!(requested, 0, "{sel:?} on {profile:?}")
                    }
                    other => panic!("{sel:?} on {profile:?} gave {other:?}"),
                }
            }
        }
        // LargestGap rejects the empty profile outright (no admissible
        // search range); an all-zero profile has no finite ratio to
        // prefer, so the clamped search returns its minimum order rather
        // than an error — pin that too so the clamp's behavior on
        // rank-zero tails stays documented.
        let gap = OrderSelection::LargestGap {
            min_order: 1,
            max_order: 6,
        };
        assert!(matches!(
            gap.detect(&[]),
            Err(MftiError::OrderSelection { .. })
        ));
        assert_eq!(gap.detect(&zeros).unwrap(), 1);
    }

    #[test]
    fn order_selection_rejects_invalid() {
        let sv = [1.0, 0.5];
        assert!(OrderSelection::Fixed(0).detect(&sv).is_err());
        assert!(OrderSelection::Fixed(3).detect(&sv).is_err());
        assert!(OrderSelection::LargestGap {
            min_order: 5,
            max_order: 3
        }
        .detect(&sv)
        .is_err());
    }

    #[test]
    fn complex_projection_recovers_transfer_function() {
        // Order 8 + rank(D)=2 system, sampled redundantly.
        let (pencil, _, set, sys) = setup(8, 2, 2, 10, 2);
        let sv = pencil
            .shifted_pencil_singular_values(pencil.default_x0())
            .unwrap();
        // Clean data: use the documented noise-free threshold. The two
        // rank(D) directions can sit as low as ~1e-10·σ₁ depending on how
        // strongly the random draw excites them, but the true-rank gap
        // below them is ~1e-17, so 1e-12 detects n + rank(D) robustly.
        let order = OrderSelection::Threshold(1e-12).detect(&sv).unwrap();
        assert_eq!(order, 10); // n + rank(D)
        let model = realize_complex(&pencil, pencil.default_x0(), order).unwrap();
        for (f, s) in set.iter() {
            let h = model.response_at_hz(f).unwrap();
            let rel = (&h - s).norm_2() / s.norm_2();
            assert!(rel < 1e-7, "relative error {rel} at {f} Hz");
        }
        // Off-grid accuracy (true recovery, not just interpolation).
        let f_test = 3.3e3;
        let h = model.response_at_hz(f_test).unwrap();
        let s = sys.response_at_hz(f_test).unwrap();
        assert!((&h - &s).norm_2() / s.norm_2() < 1e-6);
    }

    #[test]
    fn real_projection_recovers_transfer_function_with_real_matrices() {
        let (pencil, _, set, sys) = setup(8, 2, 2, 10, 2);
        let real = realify(&pencil, 1e-9).unwrap();
        let sv = pencil
            .shifted_pencil_singular_values(pencil.default_x0())
            .unwrap();
        let order = OrderSelection::Threshold(1e-9).detect(&sv).unwrap();
        let model = realize_real(&real, order).unwrap();
        // Real matrices by construction.
        assert_eq!(model.order(), order);
        for (f, s) in set.iter().take(4) {
            let h = model.response_at_hz(f).unwrap();
            let rel = (&h - s).norm_2() / s.norm_2();
            assert!(rel < 1e-7, "relative error {rel} at {f} Hz");
        }
        let f_test = 2.7e3;
        let h = model.response_at_hz(f_test).unwrap();
        let s = sys.response_at_hz(f_test).unwrap();
        assert!((&h - &s).norm_2() / s.norm_2() < 1e-6);
    }

    #[test]
    fn direct_realization_interpolates_when_pencil_is_regular() {
        // Minimal sampling: K = order + rank(D) exactly ⇒ regular pencil.
        // order 6, rank(D) 2, ports 2, t=2: K = 2·t·pairs = 8 ⇒ pairs = 2 ⇒ k = 4.
        let (pencil, _, set, _) = setup(6, 2, 2, 4, 2);
        assert_eq!(pencil.order(), 8);
        let model = realize_direct(&pencil).unwrap();
        for (f, s) in set.iter() {
            let h = model.response_at_hz(f).unwrap();
            let rel = (&h - s).norm_2() / s.norm_2();
            assert!(rel < 1e-6, "relative error {rel} at {f} Hz");
        }
    }

    #[test]
    fn lemma_3_1_exact_matrix_interpolation_with_full_weights() {
        // With t = min(m,p) and full-rank directions, H(jω_i) = S(f_i)
        // exactly (not just tangentially).
        let (pencil, _, set, _) = setup(6, 2, 2, 4, 2);
        let model = realize_direct(&pencil).unwrap();
        for (f, s) in set.iter() {
            let h = model.response_at_hz(f).unwrap();
            assert!(
                (&h - s).max_abs() < 1e-8 * s.max_abs(),
                "full matrix interpolation failed at {f} Hz"
            );
        }
    }

    #[test]
    fn truncating_below_true_order_degrades_gracefully() {
        let (pencil, _, set, _) = setup(10, 2, 0, 12, 2);
        let real = realify(&pencil, 1e-9).unwrap();
        let small = realize_real(&real, 4).unwrap();
        // Should still evaluate and produce a bounded (if inaccurate) fit.
        let mut worst = 0.0f64;
        for (f, s) in set.iter() {
            let h = small.response_at_hz(f).unwrap();
            worst = worst.max((&h - s).norm_2() / s.norm_2());
        }
        assert!(worst.is_finite());
        assert!(worst > 1e-8, "a rank-4 model cannot be exact for order 10");
    }

    /// The stacked formulation the projections replaced, kept as their
    /// oracle: both stacks formed (entry by entry), `G`/`H` through the
    /// fused kernels on them, and the dense route's two SVDs of the
    /// stacks as given.
    fn stacks(pencil: &RealifiedPencil) -> (RMatrix, RMatrix) {
        let (ll, sll) = (pencil.ll(), pencil.sll());
        let k = pencil.order();
        let half = |i: usize, j: usize| if j < k { ll[(i, j)] } else { sll[(i, j - k)] };
        let row_stack = RMatrix::from_fn(k, 2 * k, half);
        let col_stack =
            RMatrix::from_fn(
                2 * k,
                k,
                |i, j| {
                    if i < k {
                        ll[(i, j)]
                    } else {
                        sll[(i - k, j)]
                    }
                },
            );
        (row_stack, col_stack)
    }

    fn stacked_oracle_dense(pencil: &RealifiedPencil, order: usize) -> DescriptorSystem<f64> {
        let (row_stack, col_stack) = stacks(pencil);
        let rows = LadderSvd::compute(&row_stack, SvdFactors::Left).unwrap();
        let cols = LadderSvd::compute(&col_stack, SvdFactors::Right).unwrap();
        realize_real_from_stacked(pencil, &rows, &cols, order).unwrap()
    }

    fn stacked_oracle_restricted(
        pencil: &RealifiedPencil,
        yb: &RMatrix,
        xb: &RMatrix,
        order: usize,
    ) -> DescriptorSystem<f64> {
        let (row_stack, col_stack) = stacks(pencil);
        let g = yb.mul_hermitian_left(&row_stack).unwrap();
        let h = col_stack.matmul(xb).unwrap();
        let u = LadderSvd::compute(&g, SvdFactors::Left)
            .unwrap()
            .accumulate_u(order);
        let v = LadderSvd::compute(&h, SvdFactors::Right)
            .unwrap()
            .accumulate_v(order);
        let y = yb.matmul(&u.unwrap()).unwrap();
        let x = xb.matmul(&v.unwrap()).unwrap();
        project_real(pencil, &y, &x).unwrap()
    }

    fn model_bits(m: &DescriptorSystem<f64>) -> Vec<u64> {
        let (e, a, b, c, d) = m.real_matrices();
        [e, a, b, c, d]
            .iter()
            .flat_map(|x| x.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn projections_without_stacks_match_the_stacked_oracle_bit_for_bit() {
        // K ≡ 0 and K ≡ 2 (mod 4): in the second case a `K`-column half
        // of `G` would leave two columns to the kernel's remainder lane,
        // so `G` must keep its single `2K`-column partition. Each K also
        // takes the blocked kernels (K²r far above the small-product
        // cut) and a K-column block that is not a multiple of 48.
        for (ports, t, k_samples) in [(2, 2, 50), (3, 3, 34), (3, 1, 98)] {
            let (_, data, _, _) = setup(16, ports, ports, k_samples, t);
            let state = RealPencilState::build(&data).unwrap();
            let k = state.order();
            assert!(k >= 96, "K = {k}");
            let real = &state.real;
            for order in [k / 8, k / 2] {
                let restricted = state.realize(order).unwrap();
                let (yb, xb) = state.detection().unwrap().accumulate_both(order).unwrap();
                let want = stacked_oracle_restricted(real, &yb, &xb, order);
                assert_eq!(
                    model_bits(&restricted),
                    model_bits(&want),
                    "K = {k}, r = {order}"
                );
            }
            // The retained route's wider bases (q > r) take the same path.
            let q = k / 4 + 3;
            let (yq, xq) = state.detection().unwrap().accumulate_both(q).unwrap();
            let got = state.realize_restricted(&yq, &xq, q - 5).unwrap();
            let want = stacked_oracle_restricted(real, &yq, &xq, q - 5);
            assert_eq!(model_bits(&got), model_bits(&want), "K = {k}, q = {q}");
            let dense = realize_real(real, k - 3).unwrap();
            assert_eq!(
                model_bits(&dense),
                model_bits(&stacked_oracle_dense(real, k - 3)),
                "K = {k}"
            );
        }
    }

    #[test]
    fn pencil_state_fills_each_factorization_once_on_first_use() {
        let (pencil, data, _, _) = setup(8, 2, 2, 10, 2);
        let state = RealPencilState::build(&data).unwrap();
        assert!(state.detection.get().is_none() && state.stacked.get().is_none());
        let bits = |m: &DescriptorSystem<f64>| -> Vec<u64> {
            let (e, a, b, c, d) = m.real_matrices();
            [e, a, b, c, d]
                .iter()
                .flat_map(|x| x.iter().map(|v| v.to_bits()))
                .collect()
        };
        // A restricted order reads only the detection …
        let restricted = state.realize(4).unwrap();
        assert!(state.detection.get().is_some() && state.stacked.get().is_none());
        assert_eq!(bits(&state.realize(4).unwrap()), bits(&restricted));
        // … a dense one the stacks, with `realize_real`'s bits.
        let k = state.order();
        let dense = state.realize(k).unwrap();
        assert!(state.stacked.get().is_some());
        let want = realize_real(&realify(&pencil, 1e-9).unwrap(), k).unwrap();
        assert_eq!(bits(&dense), bits(&want));
        assert_eq!(bits(&state.realize(k).unwrap()), bits(&want));
    }
}
