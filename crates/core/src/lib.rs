//! Matrix-format tangential interpolation (MFTI) — the core algorithms
//! of *Wang, Lei, Pang, Wong, "MFTI: Matrix-Format Tangential
//! Interpolation for Modeling Multi-Port Systems", DAC 2010*.
//!
//! Given frequency samples `S(f_i) ∈ ℂ^{p×m}` of a multi-port LTI
//! system, MFTI builds a descriptor state-space macromodel
//! `H(s) = C(sE − A)⁻¹B` whose transfer function interpolates the data —
//! using *matrix* tangential directions so that each sample contributes
//! `t_i` columns and rows of information instead of VFTI's single pair.
//!
//! The pipeline (all stages public for inspection):
//!
//! 1. [`DirectionKind`] / [`generate_directions`] — orthonormal direction
//!    blocks `R_i`, `L_i`;
//! 2. [`TangentialData`] — right/left interpolation data with conjugate
//!    augmentation (paper Eqs. 6–9);
//! 3. [`LoewnerPencil`] — the block Loewner matrices `𝕃`, `σ𝕃`
//!    (Eqs. 11–12), incrementally extensible;
//! 4. [`realify`] — Lemma 3.2's unitary transformation to real
//!    arithmetic;
//! 5. [`realize_direct`] / [`realize_real`] — Lemmas 3.1 and 3.4, in
//!    real arithmetic after the realification: every fit and session
//!    detects the order on the realified shifted pencil and projects
//!    with real factors, so models are real and SPICE-ready;
//!    [`realize_complex`] keeps Lemma 3.4's complex projection as an
//!    oracle for tests and ablations;
//! 6. [`Mfti`] (Algorithm 1), [`RecursiveMfti`] (Algorithm 2) and the
//!    [`Vfti`] baseline as ready-made fitters, all usable through the
//!    algorithm-agnostic [`Fitter`] trait (which classical vector
//!    fitting from `mfti-vecfit` implements too);
//! 7. [`FitSession`] — the pipeline as a staged object: append samples,
//!    grow the pencil incrementally, absorb each append into the
//!    order-detection SVD as a rank-revealing update ([`SessionSvd`]),
//!    re-run order selection cheaply;
//! 8. [`metrics`] and [`minimal_samples`] (Theorem 3.5) for evaluation.
//!
//! # Example
//!
//! ```
//! use mfti_core::{Fitter, Mfti};
//! use mfti_core::metrics::err_rms_of;
//! use mfti_sampling::generators::RandomSystemBuilder;
//! use mfti_sampling::{FrequencyGrid, SampleSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An order-12, 3-port system sampled at just 8 frequencies …
//! let sys = RandomSystemBuilder::new(12, 3, 3).d_rank(3).seed(1).build()?;
//! let grid = FrequencyGrid::log_space(1e2, 1e4, 8)?;
//! let samples = SampleSet::from_system(&sys, &grid)?;
//! // … is recovered exactly by MFTI (VFTI would need ≥ 15 samples).
//! let outcome = Mfti::new().fit(&samples)?;
//! assert!(err_rms_of(outcome.model(), &samples)? < 1e-8);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod data;
mod directions;
mod error;
mod fitter;
mod loewner;
pub mod metrics;
mod mfti;
mod realify;
mod realize;
mod recovery;
mod recursive;
mod sampling_bounds;
mod session;
mod vfti;

pub use data::{LeftTriple, RightTriple, TangentialData, Weights};
pub use directions::{
    generate_directions, generate_directions_from, DirectionKind, DirectionOrigin, DirectionSet,
};
pub use error::MftiError;
pub use fitter::{AnyModel, FitError, FitOutcome, Fitter};
pub use loewner::LoewnerPencil;
pub use mfti::{FitResult, Mfti};
pub use realify::{realify, RealifiedPencil};
pub use realize::{realize_complex, realize_direct, realize_real, OrderSelection};
pub use recursive::{RecursiveFit, RecursiveMfti, RoundInfo, SelectionOrder};
pub use sampling_bounds::{minimal_samples, vfti_minimal_samples, SampleBounds};
pub use session::{FitSession, Reanchor, SessionSvd, SignalDiagnostic, WindowPolicy};
pub use vfti::Vfti;

/// Relative singular-value level below which directions are considered
/// numerical garbage regardless of any estimated noise floor.
pub(crate) fn numeric_floor() -> f64 {
    1e-11
}
