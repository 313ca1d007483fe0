//! The algorithm-agnostic fitting surface: [`Fitter`], [`FitOutcome`],
//! [`AnyModel`] and [`FitError`].
//!
//! The workspace ships four fitting engines — [`Mfti`] (Algorithm 1),
//! [`RecursiveMfti`] (Algorithm 2), the [`Vfti`] baseline and classical
//! [`VectorFitter`] — that historically exposed incompatible `fit`
//! signatures, three disjoint error enums and three model types. This
//! module unifies them behind one object-safe trait, exactly the
//! posture of the matrix-valued Vector Fitting literature where VF and
//! Loewner/tangential interpolation are interchangeable
//! rational-approximation engines for a common problem statement:
//!
//! ```
//! use mfti_core::{Fitter, Mfti, RecursiveMfti, Vfti};
//! use mfti_sampling::generators::RandomSystemBuilder;
//! use mfti_sampling::{FrequencyGrid, SampleSet};
//! use mfti_vecfit::VectorFitter;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = RandomSystemBuilder::new(8, 2, 2).d_rank(2).seed(3).build()?;
//! let grid = FrequencyGrid::log_space(1e2, 1e4, 16)?;
//! let samples = SampleSet::from_system(&sys, &grid)?;
//!
//! let fitters: Vec<Box<dyn Fitter>> = vec![
//!     Box::new(Mfti::new()),
//!     Box::new(Vfti::new()),
//!     Box::new(RecursiveMfti::new().threshold(1e-8)),
//!     Box::new(VectorFitter::new(10)),
//! ];
//! for fitter in &fitters {
//!     let outcome = fitter.fit(&samples)?;
//!     println!("{}: order {} in {:?}", fitter.name(), outcome.order(), outcome.elapsed());
//! }
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::time::Duration;

use mfti_numeric::{CMatrix, Complex, NumericError};
use mfti_sampling::{SampleDefect, SampleSet, SamplingError};
use mfti_statespace::{
    DescriptorSystem, Macromodel, RationalModel, StateSpaceError, TransferFunction,
};
use mfti_vecfit::{VecFitError, VectorFitter, VfFit};

use crate::error::MftiError;
use crate::mfti::{FitResult, Mfti};
use crate::recursive::{RecursiveFit, RecursiveMfti, RoundInfo};
use crate::vfti::Vfti;

/// Workspace-level fitting error: the union of every engine's failure
/// modes, so method-agnostic drivers handle one type.
#[derive(Debug)]
#[non_exhaustive]
pub enum FitError {
    /// The sample data failed validated ingestion — rejected at the
    /// boundary, before any factorization ran (DESIGN.md §8; see the
    /// failure-taxonomy walkthrough there and the robustness section of
    /// the README).
    Invalid(SampleDefect),
    /// A Loewner-pencil (MFTI/VFTI) stage failed.
    Mfti(MftiError),
    /// A vector-fitting stage failed.
    VecFit(VecFitError),
    /// A model construction/evaluation failed.
    StateSpace(StateSpaceError),
    /// A staged [`FitSession`](crate::FitSession) was driven out of
    /// order (e.g. realizing before any samples were appended).
    Session {
        /// Human-readable description of the misuse.
        what: &'static str,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Invalid(d) => write!(f, "invalid sample data: {d}"),
            FitError::Mfti(e) => write!(f, "loewner fit failed: {e}"),
            FitError::VecFit(e) => write!(f, "vector fit failed: {e}"),
            FitError::StateSpace(e) => write!(f, "model operation failed: {e}"),
            FitError::Session { what } => write!(f, "fit session misuse: {what}"),
        }
    }
}

impl Error for FitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FitError::Invalid(d) => Some(d),
            FitError::Mfti(e) => Some(e),
            FitError::VecFit(e) => Some(e),
            FitError::StateSpace(e) => Some(e),
            FitError::Session { .. } => None,
        }
    }
}

impl From<MftiError> for FitError {
    fn from(e: MftiError) -> Self {
        match e {
            // Sample defects surface as the boundary-level variant no
            // matter which layer detected them, so harnesses match one
            // stable shape.
            MftiError::Defect(d) => FitError::Invalid(d),
            other => FitError::Mfti(other),
        }
    }
}

impl From<SampleDefect> for FitError {
    fn from(d: SampleDefect) -> Self {
        FitError::Invalid(d)
    }
}

impl From<VecFitError> for FitError {
    fn from(e: VecFitError) -> Self {
        FitError::VecFit(e)
    }
}

impl From<StateSpaceError> for FitError {
    fn from(e: StateSpaceError) -> Self {
        FitError::StateSpace(e)
    }
}

impl From<NumericError> for FitError {
    fn from(e: NumericError) -> Self {
        FitError::Mfti(MftiError::Numeric(e))
    }
}

impl From<SamplingError> for FitError {
    fn from(e: SamplingError) -> Self {
        FitError::Mfti(MftiError::Sampling(e))
    }
}

/// Any model a workspace fitter can produce: a real descriptor system
/// or a common-pole rational model.
///
/// The enum implements [`Macromodel`], so generic drivers evaluate it
/// without caring which engine produced it, while the `as_*` accessors
/// recover the concrete type when a back-end (SPICE stamping, pole
/// inspection) needs it.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// A real descriptor state-space model (MFTI/VFTI/recursive output).
    Fitted(DescriptorSystem<f64>),
    /// A pole–residue model (vector-fitting output).
    Rational(RationalModel),
}

impl AnyModel {
    /// Borrows the pole–residue model, if this is one.
    pub fn as_rational(&self) -> Option<&RationalModel> {
        match self {
            AnyModel::Rational(m) => Some(m),
            AnyModel::Fitted(_) => None,
        }
    }

    /// Borrows the real descriptor system, if this is one (the SPICE
    /// path).
    pub fn as_real(&self) -> Option<&DescriptorSystem<f64>> {
        match self {
            AnyModel::Fitted(m) => Some(m),
            AnyModel::Rational(_) => None,
        }
    }
}

impl From<RationalModel> for AnyModel {
    fn from(m: RationalModel) -> Self {
        AnyModel::Rational(m)
    }
}

impl TransferFunction for AnyModel {
    fn outputs(&self) -> usize {
        match self {
            AnyModel::Fitted(m) => m.outputs(),
            AnyModel::Rational(m) => m.outputs(),
        }
    }

    fn inputs(&self) -> usize {
        match self {
            AnyModel::Fitted(m) => m.inputs(),
            AnyModel::Rational(m) => m.inputs(),
        }
    }

    fn eval(&self, s: Complex) -> Result<CMatrix, StateSpaceError> {
        match self {
            AnyModel::Fitted(m) => m.eval(s),
            AnyModel::Rational(m) => m.eval(s),
        }
    }

    fn frequency_response(&self, freqs_hz: &[f64]) -> Result<Vec<CMatrix>, StateSpaceError> {
        self.response_batch_hz(freqs_hz)
    }
}

impl Macromodel for AnyModel {
    fn order(&self) -> usize {
        match self {
            AnyModel::Fitted(m) => m.order(),
            AnyModel::Rational(m) => RationalModel::order(m),
        }
    }

    fn eval_batch(&self, s: &[Complex]) -> Result<Vec<CMatrix>, StateSpaceError> {
        match self {
            AnyModel::Fitted(m) => m.eval_batch(s),
            AnyModel::Rational(m) => m.eval_batch(s),
        }
    }
}

/// Method-agnostic result of a fit: the model plus every diagnostic the
/// engines report, behind one accessor surface.
///
/// Diagnostics that a method does not produce return `None` (e.g.
/// pencil singular values for vector fitting, σ-iteration history for
/// the Loewner methods).
#[derive(Debug, Clone)]
pub struct FitOutcome {
    method: &'static str,
    model: AnyModel,
    detected_order: usize,
    elapsed: Duration,
    pencil_singular_values: Option<Vec<f64>>,
    pencil_order: Option<usize>,
    rounds: Option<Vec<RoundInfo>>,
    used_pairs: Option<Vec<usize>>,
    d_tilde_history: Option<Vec<f64>>,
    sigma_residuals: Option<Vec<f64>>,
}

impl FitOutcome {
    /// Name of the method that produced this outcome.
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// The fitted model.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// Consumes the outcome, returning the model.
    pub fn into_model(self) -> AnyModel {
        self.model
    }

    /// The model as an object-safe [`Macromodel`] handle.
    pub fn macromodel(&self) -> &dyn Macromodel {
        &self.model
    }

    /// Detected (reduced) model order: states for the Loewner methods,
    /// poles for vector fitting.
    pub fn order(&self) -> usize {
        self.detected_order
    }

    /// Wall-clock fitting time (Table 1's `time(s)` column).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Singular values of `x₀𝕃 − σ𝕃` — the order-detection signal of
    /// the Loewner methods (Fig. 1). `None` for vector fitting.
    pub fn pencil_singular_values(&self) -> Option<&[f64]> {
        self.pencil_singular_values.as_deref()
    }

    /// Loewner pencil size `K` before truncation. `None` for vector
    /// fitting.
    pub fn pencil_order(&self) -> Option<usize> {
        self.pencil_order
    }

    /// Per-round history of the recursive algorithm. `None` for
    /// single-shot methods.
    pub fn rounds(&self) -> Option<&[RoundInfo]> {
        self.rounds.as_deref()
    }

    /// Sample-pair indices admitted by the recursive algorithm, in
    /// admission order. `None` for single-shot methods.
    pub fn used_pairs(&self) -> Option<&[usize]> {
        self.used_pairs.as_deref()
    }

    /// `d̃` after each vector-fitting σ-iteration (→ 1 at convergence).
    /// `None` for the Loewner methods.
    pub fn vf_d_tilde_history(&self) -> Option<&[f64]> {
        self.d_tilde_history.as_deref()
    }

    /// RMS residual of each linearized σ fit. `None` for the Loewner
    /// methods.
    pub fn vf_sigma_residuals(&self) -> Option<&[f64]> {
        self.sigma_residuals.as_deref()
    }

    pub(crate) fn from_loewner(method: &'static str, fit: FitResult) -> Self {
        FitOutcome {
            method,
            model: AnyModel::Fitted(fit.model),
            detected_order: fit.detected_order,
            elapsed: fit.elapsed,
            pencil_singular_values: Some(fit.pencil_singular_values),
            pencil_order: Some(fit.pencil_order),
            rounds: None,
            used_pairs: None,
            d_tilde_history: None,
            sigma_residuals: None,
        }
    }

    pub(crate) fn from_recursive(fit: RecursiveFit) -> Self {
        let mut outcome = Self::from_loewner("recursive-mfti", fit.result);
        outcome.rounds = Some(fit.rounds);
        outcome.used_pairs = Some(fit.used_pairs);
        outcome
    }

    pub(crate) fn from_vecfit(fit: VfFit) -> Self {
        FitOutcome {
            method: "vector-fitting",
            detected_order: fit.model.order(),
            model: AnyModel::Rational(fit.model),
            elapsed: fit.elapsed,
            pencil_singular_values: None,
            pencil_order: None,
            rounds: None,
            used_pairs: None,
            d_tilde_history: Some(fit.d_tilde_history),
            sigma_residuals: Some(fit.sigma_residuals),
        }
    }
}

impl From<FitResult> for FitOutcome {
    /// Wraps a detailed Loewner result. A bare `FitResult` does not
    /// record which configuration produced it, so the method label is
    /// the family name `"loewner"`; [`Fitter::fit`] on a concrete
    /// engine reports the specific `"mfti"` / `"vfti"` label instead.
    fn from(fit: FitResult) -> Self {
        Self::from_loewner("loewner", fit)
    }
}

impl From<RecursiveFit> for FitOutcome {
    fn from(fit: RecursiveFit) -> Self {
        Self::from_recursive(fit)
    }
}

impl From<VfFit> for FitOutcome {
    fn from(fit: VfFit) -> Self {
        Self::from_vecfit(fit)
    }
}

/// An object-safe rational-approximation engine: samples in, model plus
/// diagnostics out.
///
/// All four workspace fitters implement this, so drivers, benches and
/// serving layers can be written once against `&dyn Fitter` and handed
/// any engine.
pub trait Fitter {
    /// Short stable identifier of the method (used in benchmark and
    /// report labels).
    fn name(&self) -> &'static str;

    /// Fits a macromodel to the sample set.
    ///
    /// # Errors
    ///
    /// Returns the engine's failure modes unified as [`FitError`].
    fn fit(&self, samples: &SampleSet) -> Result<FitOutcome, FitError>;
}

/// The validated-ingestion gate every generic `fit` passes through:
/// defective data is rejected with [`FitError::Invalid`] before the
/// engine runs any factorization (DESIGN.md §8).
fn validated(samples: &SampleSet) -> Result<&SampleSet, FitError> {
    Ok(samples.validate()?.as_set())
}

impl Fitter for Mfti {
    fn name(&self) -> &'static str {
        "mfti"
    }

    fn fit(&self, samples: &SampleSet) -> Result<FitOutcome, FitError> {
        Ok(FitOutcome::from_loewner(
            "mfti",
            self.fit_detailed(validated(samples)?)?,
        ))
    }
}

impl Fitter for Vfti {
    fn name(&self) -> &'static str {
        "vfti"
    }

    fn fit(&self, samples: &SampleSet) -> Result<FitOutcome, FitError> {
        Ok(FitOutcome::from_loewner(
            "vfti",
            self.fit_detailed(validated(samples)?)?,
        ))
    }
}

impl Fitter for RecursiveMfti {
    fn name(&self) -> &'static str {
        "recursive-mfti"
    }

    fn fit(&self, samples: &SampleSet) -> Result<FitOutcome, FitError> {
        Ok(FitOutcome::from_recursive(
            self.fit_detailed(validated(samples)?)?,
        ))
    }
}

impl Fitter for VectorFitter {
    fn name(&self) -> &'static str {
        "vector-fitting"
    }

    fn fit(&self, samples: &SampleSet) -> Result<FitOutcome, FitError> {
        Ok(FitOutcome::from_vecfit(
            self.fit_detailed(validated(samples)?)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::err_rms_of;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::FrequencyGrid;

    fn samples() -> SampleSet {
        let sys = RandomSystemBuilder::new(8, 2, 2)
            .d_rank(2)
            .seed(3)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, 16).unwrap();
        SampleSet::from_system(&sys, &grid).unwrap()
    }

    #[test]
    fn all_four_fitters_work_through_the_trait_object() {
        let set = samples();
        let fitters: Vec<Box<dyn Fitter>> = vec![
            Box::new(Mfti::new()),
            Box::new(Vfti::new()),
            Box::new(RecursiveMfti::new().threshold(1e-9)),
            Box::new(VectorFitter::new(10).iterations(10)),
        ];
        for fitter in &fitters {
            let outcome = fitter
                .fit(&set)
                .unwrap_or_else(|e| panic!("{}: {e}", fitter.name()));
            assert!(outcome.order() > 0, "{}", fitter.name());
            assert_eq!(outcome.method(), fitter.name());
            let err = err_rms_of(outcome.model(), &set).expect("eval");
            assert!(err < 1e-2, "{}: ERR {err:.2e}", fitter.name());
        }
    }

    #[test]
    fn diagnostics_surface_is_method_aware() {
        let set = samples();
        let mfti = Fitter::fit(&Mfti::new(), &set).unwrap();
        assert!(mfti.pencil_singular_values().is_some());
        assert!(mfti.pencil_order().is_some());
        assert!(mfti.rounds().is_none());
        assert!(mfti.vf_d_tilde_history().is_none());
        assert!(mfti.model().as_real().is_some());

        let rec = Fitter::fit(&RecursiveMfti::new().threshold(1e-9), &set).unwrap();
        assert!(rec.rounds().is_some());
        assert!(rec.used_pairs().is_some());
        assert!(rec.pencil_singular_values().is_some());

        let vf = Fitter::fit(&VectorFitter::new(10), &set).unwrap();
        assert!(vf.pencil_singular_values().is_none());
        assert!(vf.vf_d_tilde_history().is_some());
        assert!(vf.model().as_rational().is_some());
        assert_eq!(vf.order(), vf.model().as_rational().unwrap().order());
    }

    #[test]
    fn fit_error_wraps_every_engine_error() {
        let mfti_err: FitError = MftiError::InvalidSamples {
            what: "odd".to_string(),
        }
        .into();
        assert!(matches!(mfti_err, FitError::Mfti(_)));
        assert!(mfti_err.to_string().contains("odd"));

        let vf_err: FitError = VecFitError::IterationCollapsed { iteration: 2 }.into();
        assert!(matches!(vf_err, FitError::VecFit(_)));
        assert!(Error::source(&vf_err).is_some());

        let ss_err: FitError = StateSpaceError::NotConjugateSymmetric.into();
        assert!(matches!(ss_err, FitError::StateSpace(_)));

        let num_err: FitError = NumericError::Singular { op: "svd" }.into();
        assert!(num_err.to_string().contains("svd"));
    }

    #[test]
    fn any_model_is_a_macromodel() {
        let set = samples();
        let outcome = Fitter::fit(&Mfti::new(), &set).unwrap();
        let boxed: Box<dyn Macromodel> = Box::new(outcome.into_model());
        assert_eq!(boxed.order(), 10);
        let pts: Vec<Complex> = set
            .freqs_hz()
            .iter()
            .map(|&f| mfti_statespace::s_at_hz(f))
            .collect();
        let batch = boxed.eval_batch(&pts).unwrap();
        for (h, (_, s)) in batch.iter().zip(set.iter()) {
            assert!((h - s).norm_2() / s.norm_2() < 1e-7);
        }
    }
}
