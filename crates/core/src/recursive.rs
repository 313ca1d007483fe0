//! Algorithm 2: recursive MFTI for noisy data.
//!
//! Instead of committing to all `k` samples up front (whose cost grows
//! quickly with the pencil order), the recursive variant starts from a
//! strided subset, fits, evaluates the tangential residual on the
//! *remaining* samples, and admits `k0` more sample pairs per round —
//! reusing the already-computed Loewner blocks — until the mean residual
//! falls below a threshold `Th` (step 7 of the paper's pseudo-code).

use mfti_numeric::diag::Stopwatch;
use mfti_sampling::SampleSet;
use mfti_statespace::Macromodel;

use crate::data::{TangentialData, Weights};
use crate::directions::DirectionKind;
use crate::error::MftiError;
use crate::mfti::{FitResult, Mfti};
use crate::realize::{OrderSelection, RealPencilState};

/// Which remaining samples to admit next.
///
/// The paper's MATLAB `sort(err)` is ascending (best-fitted first); the
/// stated goal — "automatically select the appropriate set of sampled
/// data" — and standard greedy practice point to worst-first. Both are
/// implemented; worst-first is the default (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionOrder {
    /// Admit the samples the current model fits *worst* (default).
    #[default]
    WorstFirst,
    /// Admit the samples the current model fits *best* (literal reading
    /// of the pseudo-code).
    BestFirst,
}

/// Diagnostics for one round of the recursion.
#[derive(Debug, Clone)]
pub struct RoundInfo {
    /// Sample-pair indices admitted this round.
    pub pairs_added: Vec<usize>,
    /// Mean tangential residual over the samples still outside the
    /// interpolation set (`mean(err)` in the paper; `0` when empty).
    pub mean_remaining_err: f64,
    /// Model order after this round.
    pub model_order: usize,
    /// Pencil order `K` after this round.
    pub pencil_order: usize,
}

/// Result of the recursive fit.
#[derive(Debug, Clone)]
pub struct RecursiveFit {
    /// The final fit (model + diagnostics).
    pub result: FitResult,
    /// Per-round history.
    pub rounds: Vec<RoundInfo>,
    /// Sample-pair indices used by the final model, in admission order.
    pub used_pairs: Vec<usize>,
}

/// Configurable recursive MFTI fitter (paper Algorithm 2).
///
/// ```
/// use mfti_core::{OrderSelection, RecursiveMfti, Weights};
/// use mfti_sampling::generators::RandomSystemBuilder;
/// use mfti_sampling::{FrequencyGrid, SampleSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RandomSystemBuilder::new(8, 2, 2).d_rank(2).seed(5).build()?;
/// let grid = FrequencyGrid::log_space(1e2, 1e4, 20)?;
/// let samples = SampleSet::from_system(&sys, &grid)?;
/// let fit = RecursiveMfti::new()
///     .weights(Weights::Uniform(2))
///     .batch_pairs(2)
///     .threshold(1e-8)
///     .fit_detailed(&samples)?;
/// // Converged without using all 10 sample pairs.
/// assert!(fit.used_pairs.len() < 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecursiveMfti {
    base: Mfti,
    batch_pairs: usize,
    threshold: f64,
    max_rounds: Option<usize>,
    selection: SelectionOrder,
}

impl Default for RecursiveMfti {
    fn default() -> Self {
        Self::new()
    }
}

impl RecursiveMfti {
    /// Recursion with defaults: 2 pairs per batch, threshold `1e-3`
    /// (matched to unit-normalized responses), worst-first admission.
    pub fn new() -> Self {
        RecursiveMfti {
            base: Mfti::new(),
            batch_pairs: 2,
            threshold: 1e-3,
            max_rounds: None,
            selection: SelectionOrder::default(),
        }
    }

    /// Sets the per-pair block widths `t_i` (as in Algorithm 1).
    pub fn weights(mut self, weights: Weights) -> Self {
        self.base = self.base.weights(weights);
        self
    }

    /// Sets the direction-generation strategy.
    pub fn directions(mut self, kind: DirectionKind) -> Self {
        self.base = self.base.directions(kind);
        self
    }

    /// Sets the order-selection rule of the inner realizations.
    pub fn order_selection(mut self, selection: OrderSelection) -> Self {
        self.base = self.base.order_selection(selection);
        self
    }

    /// Number of sample pairs admitted per round (`k0`).
    ///
    /// # Panics
    ///
    /// Panics when `k0 == 0`.
    pub fn batch_pairs(mut self, k0: usize) -> Self {
        assert!(k0 > 0, "batch size must be positive");
        self.batch_pairs = k0;
        self
    }

    /// Mean-residual stopping threshold `Th`.
    pub fn threshold(mut self, th: f64) -> Self {
        self.threshold = th;
        self
    }

    /// Hard cap on the number of rounds (defaults to unlimited —
    /// the recursion always terminates once all samples are admitted).
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Admission order for the remaining samples.
    pub fn selection_order(mut self, order: SelectionOrder) -> Self {
        self.selection = order;
        self
    }

    /// Runs Algorithm 2, returning the full method-specific result
    /// (most callers should use the generic
    /// [`Fitter::fit`](crate::Fitter::fit) instead).
    ///
    /// # Errors
    ///
    /// Propagates data-validation and realization failures.
    pub fn fit_detailed(&self, samples: &SampleSet) -> Result<RecursiveFit, MftiError> {
        let start = Stopwatch::start();
        let weights = self.base_weights();
        let data = TangentialData::build(samples, self.base_directions(), &weights)?;
        let total = data.num_pairs();

        // Initial ordering: strided spread across the band (paper step 2:
        // index = [1:k0:K, 2:k0:K, …]).
        let k0 = self.batch_pairs;
        let mut remaining: Vec<usize> = Vec::with_capacity(total);
        for offset in 0..k0 {
            let mut j = offset;
            while j < total {
                remaining.push(j);
                j += k0;
            }
        }

        let mut state = RealPencilState::empty(&data);
        let mut rounds: Vec<RoundInfo> = Vec::new();

        // Promote the real direction blocks once: the residual loop below
        // re-evaluates them every round for every remaining pair.
        let promoted: Vec<(mfti_numeric::CMatrix, mfti_numeric::CMatrix)> = (0..total)
            .map(|j| {
                (
                    data.right()[2 * j].r.to_complex(),
                    data.left()[2 * j].l.to_complex(),
                )
            })
            .collect();

        let result = loop {
            let take = k0.min(remaining.len());
            let batch: Vec<usize> = remaining.drain(..take).collect();
            state = state.slide(0, &data, &batch)?;
            let fit = self.base.fit_real(&state, start)?;

            // Tangential residual on the samples not yet admitted
            // (step 6: err = ‖w − H(λ)r‖ + ‖v − lH(μ)‖). All λ/μ probes
            // of the round go through one batched sweep of the freshly
            // realized model — the shared-factorization kernel instead
            // of a per-point LU each.
            let probe_pts: Vec<mfti_numeric::Complex> = remaining
                .iter()
                .flat_map(|&j| [data.right()[2 * j].lambda, data.left()[2 * j].mu])
                .collect();
            let probe_hs = fit.model.eval_batch(&probe_pts)?;
            let mut errs: Vec<(usize, f64)> = Vec::with_capacity(remaining.len());
            for (slot, &j) in remaining.iter().enumerate() {
                let rt = &data.right()[2 * j];
                let lt = &data.left()[2 * j];
                let (r_c, l_c) = &promoted[j];
                let h_r = &probe_hs[2 * slot];
                let h_l = &probe_hs[2 * slot + 1];
                let right_res = (&h_r.matmul(r_c)? - &rt.w).norm_fro();
                let left_res = (&l_c.matmul(h_l)? - &lt.v).norm_fro();
                errs.push((j, right_res + left_res));
            }
            let mean_err = if errs.is_empty() {
                0.0
            } else {
                errs.iter().map(|(_, e)| e).sum::<f64>() / errs.len() as f64
            };
            rounds.push(RoundInfo {
                pairs_added: batch,
                mean_remaining_err: mean_err,
                model_order: fit.detected_order,
                pencil_order: fit.pencil_order,
            });

            if remaining.is_empty()
                || mean_err <= self.threshold
                || self.max_rounds.is_some_and(|cap| rounds.len() >= cap)
            {
                break fit;
            }

            // Re-rank the remaining samples by residual.
            match self.selection {
                SelectionOrder::WorstFirst => errs.sort_by(|a, b| b.1.total_cmp(&a.1)),
                SelectionOrder::BestFirst => errs.sort_by(|a, b| a.1.total_cmp(&b.1)),
            }
            remaining = errs.into_iter().map(|(j, _)| j).collect();
        };

        Ok(RecursiveFit {
            result,
            rounds,
            used_pairs: state.pencil().included_pairs().to_vec(),
        })
    }

    fn base_weights(&self) -> Weights {
        // The inner Mfti owns the weights; mirror them for resolution.
        self.base.weights_ref().clone()
    }

    fn base_directions(&self) -> DirectionKind {
        self.base.directions_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::{FrequencyGrid, NoiseModel};

    fn noisy_samples(order: usize, ports: usize, k: usize, sigma: f64) -> (SampleSet, SampleSet) {
        let sys = RandomSystemBuilder::new(order, ports, ports)
            .d_rank(ports)
            .seed(77)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e2, 1e4, k).unwrap();
        let clean = SampleSet::from_system(&sys, &grid).unwrap();
        let noisy = NoiseModel::additive_relative(sigma).apply(&clean, 13);
        (clean, noisy)
    }

    #[test]
    fn clean_data_converge_before_using_all_samples() {
        let (clean, _) = noisy_samples(8, 2, 24, 0.0);
        let fit = RecursiveMfti::new()
            .weights(Weights::Uniform(2))
            .batch_pairs(3)
            .threshold(1e-8)
            .fit_detailed(&clean)
            .unwrap();
        assert!(
            fit.used_pairs.len() < 12,
            "used {} of 12 pairs",
            fit.used_pairs.len()
        );
        let err = metrics::err_rms_of(&fit.result.model, &clean).unwrap();
        assert!(err < 1e-6, "ERR {err}");
    }

    #[test]
    fn residual_history_is_monotone_ish_for_clean_data() {
        let (clean, _) = noisy_samples(10, 2, 20, 0.0);
        let fit = RecursiveMfti::new()
            .weights(Weights::Uniform(2))
            .batch_pairs(2)
            .threshold(0.0) // force all rounds
            .fit_detailed(&clean)
            .unwrap();
        // Once the model order is reached, residuals collapse.
        let last = fit.rounds.last().unwrap();
        assert_eq!(last.mean_remaining_err, 0.0); // nothing remaining
        let min_err = fit
            .rounds
            .iter()
            .map(|r| r.mean_remaining_err)
            .fold(f64::INFINITY, f64::min);
        assert!(min_err < 1e-6);
    }

    #[test]
    fn noisy_fit_reaches_noise_floor_with_subset() {
        let (clean, noisy) = noisy_samples(10, 3, 30, 1e-4);
        let fit = RecursiveMfti::new()
            .weights(Weights::Uniform(2))
            .order_selection(OrderSelection::NoiseFloor { factor: 3.0 })
            .batch_pairs(3)
            .threshold(2e-3)
            .fit_detailed(&noisy)
            .unwrap();
        let err = metrics::err_rms_of(&fit.result.model, &clean).unwrap();
        assert!(err < 2e-2, "ERR vs clean reference {err}");
    }

    #[test]
    fn best_first_differs_from_worst_first() {
        let (_, noisy) = noisy_samples(8, 2, 20, 1e-3);
        let worst = RecursiveMfti::new()
            .weights(Weights::Uniform(2))
            .order_selection(OrderSelection::LargestGap {
                min_order: 4,
                max_order: 30,
            })
            .threshold(1e-9)
            .max_rounds(3)
            .fit_detailed(&noisy)
            .unwrap();
        let best = RecursiveMfti::new()
            .weights(Weights::Uniform(2))
            .order_selection(OrderSelection::LargestGap {
                min_order: 4,
                max_order: 30,
            })
            .threshold(1e-9)
            .max_rounds(3)
            .selection_order(SelectionOrder::BestFirst)
            .fit_detailed(&noisy)
            .unwrap();
        // After round 1 the admission order diverges.
        assert_ne!(worst.used_pairs, best.used_pairs);
    }

    #[test]
    fn max_rounds_caps_the_recursion() {
        let (clean, _) = noisy_samples(12, 2, 30, 0.0);
        let fit = RecursiveMfti::new()
            .weights(Weights::Uniform(1))
            .threshold(0.0)
            .max_rounds(2)
            .fit_detailed(&clean)
            .unwrap();
        assert_eq!(fit.rounds.len(), 2);
    }
}
