//! The VFTI baseline: vector-format tangential interpolation
//! (Mayo–Antoulas / Lefteriu–Antoulas, refs. [6–8] of the paper).
//!
//! VFTI is *exactly* MFTI with `t_i = 1` and vector directions — the
//! paper frames MFTI as its generalization — so the baseline reuses the
//! whole pipeline with a pinned configuration. Cycled identity columns
//! are used as directions, the standard choice in the Loewner
//! literature (each sample contributes one column and one row of `S`).

use mfti_sampling::SampleSet;

use crate::data::Weights;
use crate::directions::DirectionKind;
use crate::error::MftiError;
use crate::mfti::{FitResult, Mfti};
use crate::realize::OrderSelection;

/// Configurable VFTI fitter.
///
/// ```
/// use mfti_core::Vfti;
/// use mfti_sampling::generators::RandomSystemBuilder;
/// use mfti_sampling::{FrequencyGrid, SampleSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RandomSystemBuilder::new(6, 2, 2).d_rank(0).seed(3).build()?;
/// // VFTI needs ~order+rank(D) samples: K = k here (t_i = 1).
/// let grid = FrequencyGrid::log_space(1e2, 1e4, 12)?;
/// let samples = SampleSet::from_system(&sys, &grid)?;
/// let fit = Vfti::new().fit_detailed(&samples)?;
/// assert_eq!(fit.pencil_order, 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vfti {
    inner: Mfti,
}

impl Vfti {
    /// VFTI with cycled identity directions and threshold order
    /// detection.
    pub fn new() -> Self {
        Vfti {
            inner: Mfti::new()
                .weights(Weights::Uniform(1))
                .directions(DirectionKind::CyclicIdentity),
        }
    }

    /// Uses random unit-vector directions instead of cycled identity
    /// columns.
    pub fn random_directions(mut self, seed: u64) -> Self {
        self.inner = self
            .inner
            .directions(DirectionKind::RandomOrthonormal { seed });
        self
    }

    /// Sets the order-selection rule.
    pub fn order_selection(mut self, selection: OrderSelection) -> Self {
        self.inner = self.inner.order_selection(selection);
        self
    }

    /// Runs the VFTI fit, returning the full method-specific result
    /// (most callers should use the generic
    /// [`Fitter::fit`](crate::Fitter::fit) instead).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Mfti::fit_detailed`].
    pub fn fit_detailed(&self, samples: &SampleSet) -> Result<FitResult, MftiError> {
        self.inner.fit_detailed(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::FrequencyGrid;
    use mfti_statespace::TransferFunction;

    #[test]
    fn vfti_pencil_order_equals_sample_count() {
        let sys = RandomSystemBuilder::new(6, 3, 3)
            .d_rank(0)
            .seed(1)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, 10).unwrap();
        let set = mfti_sampling::SampleSet::from_system(&sys, &grid).unwrap();
        let fit = Vfti::new().fit_detailed(&set).unwrap();
        // t_i = 1: K = 2 pairs-per-side totals = k.
        assert_eq!(fit.pencil_order, 10);
    }

    #[test]
    fn vfti_recovers_small_system_with_enough_samples() {
        // order + rank(D) = 6 ⇒ VFTI needs K = k ≥ 6 samples.
        let sys = RandomSystemBuilder::new(4, 2, 2)
            .d_rank(2)
            .seed(4)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, 12).unwrap();
        let set = mfti_sampling::SampleSet::from_system(&sys, &grid).unwrap();
        let fit = Vfti::new().fit_detailed(&set).unwrap();
        assert_eq!(fit.detected_order, 6);
        let f = 1.7e3;
        let h = fit.model.response_at_hz(f).unwrap();
        let s = sys.response_at_hz(f).unwrap();
        assert!((&h - &s).norm_2() / s.norm_2() < 1e-6);
    }

    #[test]
    fn undersampled_vfti_fails_to_see_the_order() {
        // The core claim of the paper's Example 1 in miniature: an
        // order-12 system sampled 8 times gives VFTI a K=8 pencil, so no
        // singular-value drop can appear and the fit is garbage, while
        // MFTI on the same 8 samples recovers the system.
        let sys = RandomSystemBuilder::new(12, 3, 3)
            .d_rank(3)
            .seed(6)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, 8).unwrap();
        let set = mfti_sampling::SampleSet::from_system(&sys, &grid).unwrap();

        let vfti = Vfti::new().fit_detailed(&set).unwrap();
        assert_eq!(vfti.pencil_order, 8); // < order + rank(D) = 15
        let no_drop = vfti.pencil_singular_values.last().unwrap()
            / vfti.pencil_singular_values.first().unwrap();
        assert!(
            no_drop > 1e-9,
            "VFTI should see no rank drop, got {no_drop}"
        );

        let mfti = crate::mfti::Mfti::new().fit_detailed(&set).unwrap();
        let drop = mfti.pencil_singular_values.last().unwrap()
            / mfti.pencil_singular_values.first().unwrap();
        assert!(drop < 1e-10, "MFTI should see a sharp drop, got {drop}");

        // Accuracy contrast on the sampled grid.
        let mut worst_v = 0.0f64;
        let mut worst_m = 0.0f64;
        for (f, s) in set.iter() {
            let hv = vfti.model.response_at_hz(f).unwrap();
            let hm = mfti.model.response_at_hz(f).unwrap();
            worst_v = worst_v.max((&hv - s).norm_2() / s.norm_2());
            worst_m = worst_m.max((&hm - s).norm_2() / s.norm_2());
        }
        assert!(worst_m < 1e-7, "MFTI worst {worst_m}");
        assert!(worst_v > 1e-3, "VFTI should fail, worst {worst_v}");
    }
}
