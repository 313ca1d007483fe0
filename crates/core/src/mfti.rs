//! Algorithm 1: MFTI of noise-free (or lightly noisy) data.
//!
//! Pipeline: directions → tangential data (Eqs. 6–7) → realified
//! Loewner pencil (Eqs. 11–12 and Lemma 3.2, assembled straight from
//! the data by GEMM-structured first-member rows) → order detection on
//! the realified shifted pencil → real projection → descriptor model
//! (`RealPencilState`). The SVD consumers ask for
//! exactly what they read: detection factors accumulate only the
//! leading `r` columns, and each dense stacked SVD a single side
//! (`mfti_numeric::SvdFactors`). Streaming callers that refit per
//! arriving measurement should drive the pipeline through
//! [`FitSession`](crate::FitSession) instead, which runs this same
//! detection on its first append and then maintains the signal
//! *incrementally* ([`SessionSvd`](crate::SessionSvd)).

use std::time::Duration;

use mfti_numeric::diag::Stopwatch;
use mfti_numeric::SvdMethod;
use mfti_sampling::SampleSet;
use mfti_statespace::DescriptorSystem;

use crate::data::{TangentialData, Weights};
use crate::directions::DirectionKind;
use crate::error::MftiError;
use crate::realize::{OrderSelection, RealPencilState};

/// Result of an MFTI/VFTI fit, with the diagnostics the paper plots.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The recovered real descriptor model.
    pub model: DescriptorSystem<f64>,
    /// Singular values of `x₀𝕃 − σ𝕃` (Fig. 1's order-detection signal);
    /// fits compute them on its realification `x₀𝕃ᵣ − σ𝕃ᵣ`, which has
    /// the same singular values.
    pub pencil_singular_values: Vec<f64>,
    /// Detected (reduced) model order `r`.
    pub detected_order: usize,
    /// Pencil size `K` before truncation.
    pub pencil_order: usize,
    /// SVD backends that broke down before the order-detection
    /// decomposition succeeded (DESIGN.md §8); empty on the fast path.
    /// A non-empty trail means the fit *recovered* — the model is
    /// valid, produced by the first surviving ladder rung.
    pub svd_fallbacks: Vec<SvdMethod>,
    /// Wall-clock fitting time (Table 1's `time(s)` column);
    /// `Duration::ZERO` when `mfti-numeric`'s `timing` feature is off.
    pub elapsed: Duration,
}

/// Configurable MFTI fitter (paper Algorithm 1).
///
/// The default configuration uses [`Weights::Full`]: every sample pair
/// gets the maximal block width `t = min(m, p)`, resolved against the
/// sample dimensions at fit time (see the [`Weights`] docs in `data`
/// for the resolution semantics), so each of the 8 matrix samples below
/// contributes 3 columns *and* 3 rows of information:
///
/// ```
/// use mfti_core::{Fitter, Mfti};
/// use mfti_sampling::generators::RandomSystemBuilder;
/// use mfti_sampling::{FrequencyGrid, SampleSet};
/// use mfti_statespace::Macromodel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RandomSystemBuilder::new(12, 3, 3).d_rank(3).seed(1).build()?;
/// let grid = FrequencyGrid::log_space(1e2, 1e4, 8)?;
/// let samples = SampleSet::from_system(&sys, &grid)?;
///
/// // Full weights (the default): the K = 2·3·4 = 24 pencil exposes the
/// // complete order-15 system from just 8 samples.
/// let outcome = Mfti::new().fit(&samples)?;
/// assert_eq!(outcome.order(), 15); // n + rank(D)
/// // The model reproduces the samples (batched sweep evaluation):
/// let resp = outcome.model().response_batch_hz(samples.freqs_hz())?;
/// for (h, s) in resp.iter().zip(samples.matrices()) {
///     assert!((h - s).norm_2() / s.norm_2() < 1e-7);
/// }
/// # Ok(())
/// # }
/// ```
///
/// Narrower uniform or per-pair widths ([`Weights::Uniform`],
/// [`Weights::PerPair`]) trade pencil size for accuracy/emphasis — the
/// paper's Section 3.1 knob.
#[derive(Debug, Clone)]
pub struct Mfti {
    directions: DirectionKind,
    weights: Weights,
    order_selection: OrderSelection,
}

impl Default for Mfti {
    fn default() -> Self {
        Self::new()
    }
}

impl Mfti {
    /// Fitter with default configuration: random orthonormal directions,
    /// full matrix weights ([`Weights::Full`], i.e. `t = min(m, p)`
    /// resolved at fit time), threshold order detection at `1e-12`.
    pub fn new() -> Self {
        Mfti {
            directions: DirectionKind::default(),
            weights: Weights::Full,
            order_selection: OrderSelection::default(),
        }
    }

    /// Sets the direction-generation strategy.
    pub fn directions(mut self, kind: DirectionKind) -> Self {
        self.directions = kind;
        self
    }

    /// Sets the per-pair block widths `t_i`.
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the order-selection rule.
    pub fn order_selection(mut self, selection: OrderSelection) -> Self {
        self.order_selection = selection;
        self
    }

    /// Configured weights ([`Weights::Full`] resolves at build time).
    pub(crate) fn weights_ref(&self) -> &Weights {
        &self.weights
    }

    /// Configured direction kind.
    pub(crate) fn directions_ref(&self) -> DirectionKind {
        self.directions
    }

    /// Configured order-selection rule.
    pub(crate) fn order_selection_ref(&self) -> OrderSelection {
        self.order_selection
    }

    /// Runs Algorithm 1 on the sample set, returning the full
    /// method-specific result.
    ///
    /// Most callers should use the generic [`Fitter::fit`] instead
    /// (`FitResult` converts into the method-agnostic
    /// [`FitOutcome`](crate::FitOutcome) it returns); this detailed
    /// entry point exists for code that composes the pipeline stages
    /// itself.
    ///
    /// [`Fitter::fit`]: crate::Fitter::fit
    ///
    /// # Errors
    ///
    /// Propagates data-validation, SVD and order-selection failures.
    pub fn fit_detailed(&self, samples: &SampleSet) -> Result<FitResult, MftiError> {
        let start = Stopwatch::start();
        // The tangential data live only until the realified pencil is
        // assembled: detection and projection read the real state alone.
        let state = {
            let data = TangentialData::build(samples, self.directions, &self.weights)?;
            RealPencilState::build(&data)?
        };
        self.fit_real(&state, start)
    }

    /// One real detection, then the projection
    /// ([`RealPencilState::realize_once`]), on a pencil built or grown
    /// by slides (Algorithm 2). The detection is this call's own: its
    /// working state is dropped before the projection runs. A stalled QR
    /// sweep degrades through the recovery ladder (DESIGN.md §8) instead
    /// of failing the fit.
    pub(crate) fn fit_real(
        &self,
        state: &RealPencilState,
        start: Stopwatch,
    ) -> Result<FitResult, MftiError> {
        let detection = state.decompose_shifted()?;
        let sv = detection.singular_values().to_vec();
        let svd_fallbacks = detection.fallback_methods();
        let order = self.order_selection.detect(&sv)?;
        Ok(FitResult {
            model: state.realize_once(detection, order)?,
            pencil_singular_values: sv,
            detected_order: order,
            pencil_order: state.order(),
            svd_fallbacks,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, NoiseModel};
    use mfti_statespace::TransferFunction;

    fn samples(
        order: usize,
        ports: usize,
        d_rank: usize,
        k: usize,
        seed: u64,
    ) -> (SampleSet, DescriptorSystem<f64>) {
        let sys = RandomSystemBuilder::new(order, ports, ports)
            .d_rank(d_rank)
            .seed(seed)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        (SampleSet::from_system(&sys, &grid).unwrap(), sys)
    }

    #[test]
    fn default_fit_recovers_system_exactly() {
        let (set, sys) = samples(10, 2, 2, 12, 5);
        let fit = Mfti::new().fit_detailed(&set).unwrap();
        assert_eq!(fit.detected_order, 12); // n + rank(D)
        assert_eq!(fit.pencil_order, 24);
        // Off-sample check against the truth.
        let f = 1.234e3;
        let h = fit.model.response_at_hz(f).unwrap();
        let s = sys.response_at_hz(f).unwrap();
        assert!((&h - &s).norm_2() / s.norm_2() < 1e-6);
    }

    #[test]
    fn real_fit_matches_the_complex_oracle() {
        let (set, sys) = samples(8, 2, 0, 10, 6);
        let real = Mfti::new().fit_detailed(&set).unwrap();
        let data = TangentialData::build(&set, DirectionKind::default(), &Weights::Full).unwrap();
        let pencil = crate::LoewnerPencil::build(&data).unwrap();
        let oracle =
            crate::realize::realize_complex(&pencil, pencil.default_x0(), real.detected_order)
                .unwrap();
        let f = 2.5e3;
        let s = sys.response_at_hz(f).unwrap();
        for h in [
            real.model.response_at_hz(f).unwrap(),
            oracle.response_at_hz(f).unwrap(),
        ] {
            assert!((&h - &s).norm_2() / s.norm_2() < 1e-6);
        }
    }

    #[test]
    fn noisy_fit_with_gap_selection_stays_stable_in_error() {
        let (set, _) = samples(10, 3, 3, 20, 9);
        let noisy = NoiseModel::additive_relative(1e-4).apply(&set, 3);
        let fit = Mfti::new()
            .order_selection(OrderSelection::NoiseFloor { factor: 3.0 })
            .fit_detailed(&noisy)
            .unwrap();
        // Fit error on the clean reference should be ~noise level.
        let mut worst = 0.0f64;
        for (f, s) in set.iter() {
            let h = fit.model.response_at_hz(f).unwrap();
            worst = worst.max((&h - s).norm_2() / s.norm_2());
        }
        assert!(worst < 5e-2, "worst relative error {worst}");
    }

    #[test]
    fn weight_sentinel_resolves_to_full() {
        let (set, _) = samples(6, 3, 0, 6, 2);
        let fit = Mfti::new().fit_detailed(&set).unwrap();
        // Full weight: K = 2 · t · (k/2) = 2·3·3 = 18.
        assert_eq!(fit.pencil_order, 18);
    }

    #[test]
    fn elapsed_time_is_recorded() {
        let (set, _) = samples(6, 2, 0, 6, 3);
        let fit = Mfti::new().fit_detailed(&set).unwrap();
        assert!(fit.elapsed > Duration::ZERO);
    }
}
