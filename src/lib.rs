//! # mfti — Matrix-Format Tangential Interpolation
//!
//! Facade crate re-exporting the whole MFTI macromodeling workspace, a
//! from-scratch Rust reproduction of
//! *Wang, Lei, Pang, Wong — "MFTI: Matrix-Format Tangential Interpolation
//! for Modeling Multi-Port Systems", DAC 2010*.
//!
//! Downstream users depend on this crate and get:
//!
//! * [`numeric`] — dense complex linear algebra (LU/QR/SVD/eig,
//!   Hessenberg sweeps),
//! * [`statespace`] — descriptor systems and pole–residue models behind
//!   the [`Macromodel`](mfti_statespace::Macromodel) trait with batched
//!   sweep evaluation,
//! * [`sampling`] — frequency grids, noise models, synthetic workloads,
//! * [`core`] — the MFTI/VFTI Loewner-pencil fitting algorithms, the
//!   algorithm-agnostic [`Fitter`](mfti_core::Fitter) trait and the
//!   staged [`FitSession`](mfti_core::FitSession),
//! * [`vecfit`] — the vector-fitting baseline (also a
//!   [`Fitter`](mfti_core::Fitter)).
//!
//! See `examples/quickstart.rs` for the five-minute tour and the
//! README's MIGRATION section for the pre-trait → unified API mapping.

pub use mfti_core as core;
pub use mfti_numeric as numeric;
pub use mfti_sampling as sampling;
pub use mfti_statespace as statespace;
pub use mfti_vecfit as vecfit;

/// One-line import for the common fitting workflow.
///
/// Every fitter is used through the algorithm-agnostic
/// [`Fitter`](mfti_core::Fitter) trait and every model through
/// [`Macromodel`](mfti_statespace::Macromodel):
///
/// ```
/// use mfti::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RandomSystemBuilder::new(6, 2, 2).seed(1).build()?;
/// let samples = SampleSet::from_system(&sys, &FrequencyGrid::log_space(1e2, 1e4, 8)?)?;
/// let outcome = Mfti::new().fit(&samples)?;
/// assert!(err_rms_of(outcome.model(), &samples)? < 1e-8);
/// // The same driver line works for any engine:
/// let engines: Vec<Box<dyn Fitter>> = vec![Box::new(Mfti::new()), Box::new(Vfti::new())];
/// for engine in &engines {
///     assert!(engine.fit(&samples).is_ok());
/// }
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use mfti_core::metrics::{err_max, err_rms, err_rms_of, relative_errors};
    pub use mfti_core::{
        AnyModel, DirectionKind, FitError, FitOutcome, FitResult, FitSession, Fitter, Mfti,
        OrderSelection, RecursiveMfti, SelectionOrder, SessionSvd, Vfti, Weights,
    };
    pub use mfti_sampling::generators::{lc_line, rc_ladder, PdnBuilder, RandomSystemBuilder};
    pub use mfti_sampling::{FrequencyGrid, NoiseModel, SampleSet};
    pub use mfti_statespace::{DescriptorSystem, Macromodel, RationalModel, TransferFunction};
    pub use mfti_vecfit::VectorFitter;
}
