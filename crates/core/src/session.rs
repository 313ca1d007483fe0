//! [`FitSession`]: the MFTI pipeline as an explicit staged object.
//!
//! [`Mfti::fit`](crate::Fitter::fit) runs directions → tangential data
//! → Loewner pencil → realization in one shot and throws the
//! intermediate state away. A session *owns* that state, which buys
//! four things the one-shot call cannot offer:
//!
//! 1. **Incremental refits** — [`FitSession::append`] merges new
//!    samples and slides the existing realified pencil to the new
//!    window (the step Algorithm 2 grows by), assembling and realifying
//!    only the new strips — `O(K·k)` entries — instead of rebuilding
//!    `O(K²)` of them from scratch;
//! 2. **Incremental order detection** — the singular values of the
//!    realified shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ` are *updated* per append
//!    through a rank-revealing real [`SvdUpdater`] (the appended pencil
//!    strips are absorbed as a bordered low-rank update) instead of
//!    re-decomposed, so the per-measurement signal costs
//!    `O(K·(q + t)²)` with `q` the numerical rank — sublinear in the
//!    pencil for the rank-deficient pencils the method produces
//!    ([`SessionSvd`] can switch back to fresh decompositions as an
//!    oracle);
//! 3. **Cheap order re-selection** — the order-detection signal is
//!    cached, so [`FitSession::realize_with`] re-runs order selection
//!    at a different tolerance and only repeats the final projection;
//! 4. **Stage inspection** — the tangential data, the pencil, the
//!    singular-value profile and the per-append
//!    [`order_trajectory`](FitSession::order_trajectory) are all
//!    borrowable between stages.
//!
//! Both [`WindowPolicy`] variants share one append path: an unbounded
//! session is a sliding window that never evicts. The session never
//! forms the complex pencil: every append slides the realified pencil
//! (Lemma 3.2, assembled straight from the data), and that one real
//! pencil feeds the signal and every realization of the generation.
//! Every append after the first advances the updater the
//! same way — downdate the evicted pairs (none when unbounded), absorb
//! the appended border, verify with a probe gate, check drift — and
//! re-anchors from a fresh decomposition when a step fails (DESIGN.md
//! §9).

use mfti_numeric::diag::Stopwatch;
use mfti_numeric::{
    NumericError, RMatrix, Svd, SvdFactors, SvdMethod, SvdUpdater, DEFAULT_UPDATE_FLOOR,
};
use mfti_sampling::SampleSet;

use crate::data::{TangentialData, Weights};
use crate::directions::{check_block_width, DirectionOrigin};
use crate::error::MftiError;
use crate::fitter::{FitError, FitOutcome};
use crate::mfti::{FitResult, Mfti};
use crate::realify::RealifiedPencil;
use crate::realize::{OrderSelection, RealPencilState};

/// One consistent generation of the order-detection signal, as
/// [`FitSession::append`] commits it: the updater (multi-append
/// streams), the cached values and the health record.
struct SignalGeneration {
    updater: Option<SvdUpdater<f64>>,
    sv: Vec<f64>,
    diagnostic: SignalDiagnostic,
}

/// Bounded-memory policy of a [`FitSession`] (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum WindowPolicy {
    /// Every appended sample stays woven into the pencil forever — the
    /// classic recursive Algorithm 2 posture, run as a sliding window
    /// that never evicts. Memory and per-append cost grow with stream
    /// history.
    #[default]
    Unbounded,
    /// Sliding window: the pencil order is kept at or below `capacity`
    /// by evicting the **oldest** sample pairs as new ones stream in
    /// (a slide of the realified pencil + [`SvdUpdater::downdate_leading`],
    /// verified by a residual gate and re-anchored from a fresh
    /// decomposition when the advance fails — see DESIGN.md §9 for the
    /// validity conditions and the quarantine state machine).
    /// Steady-state append cost and memory are independent of stream
    /// history; the duplicate-frequency gate scopes to the live window,
    /// so an evicted frequency may lawfully return.
    ///
    /// `capacity` bounds the pencil order `K = Σ 2·t_j` (not the
    /// sample count). [`Weights::PerPair`](crate::Weights) is rejected
    /// under a sliding window — its fixed-length vector cannot follow
    /// an evicting pair list; use `Full` or `Uniform`.
    Sliding {
        /// Maximum pencil order the window may hold.
        capacity: usize,
    },
}

/// How a session replaced its live factorization when drift or the
/// verification gate demanded a re-anchor (DESIGN.md §9) — the
/// re-anchor ladder's provenance, recorded on
/// [`SignalDiagnostic::reanchor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Reanchor {
    /// Retired: sessions no longer produce it. The variant stays for
    /// callers that still match on it.
    ShadowSwap,
    /// A fresh blocked decomposition of the live window's realified
    /// shifted pencil re-seeded the updater.
    FreshBlocked,
    /// The blocked seed itself stalled (`NoConvergence`); the
    /// Golub–Kahan rung re-seeded the updater.
    GolubKahan,
    /// Both QR rungs stalled; the one-sided Jacobi rung re-seeded the
    /// updater.
    Jacobi,
}

/// The leading prefix of the live window that an append evicts — all
/// zero under [`WindowPolicy::Unbounded`].
#[derive(Default)]
struct Eviction {
    /// Sample pairs evicted.
    pairs: usize,
    /// Their pencil order `Σ 2·t_j`.
    order: usize,
    /// Their block widths `Σ t_j`: the direction origin's column shift.
    cols: usize,
}

/// Per-append health record of the order-detection signal — the
/// robustness counterpart of the
/// [`order_trajectory`](FitSession::order_trajectory) (DESIGN.md §8).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SignalDiagnostic {
    /// Detected model order committed for this append (0 when the
    /// selection rule could not resolve one).
    pub order: usize,
    /// The Weyl drift bound ([`SvdUpdater::error_bound`]) of the
    /// factorization **as committed** — i.e. after any auto-refresh or
    /// re-anchor replaced it, so a refresh restarts the accounting from
    /// the fresh factorization's floor rather than carrying the
    /// pre-refresh accumulation (the drift that *triggered* a refresh
    /// is observable as `refreshed`/`quarantined`). `None` under a
    /// [`SessionSvd::Fresh`] oracle or before the updater materializes
    /// (first append, single batch).
    pub error_bound: Option<f64>,
    /// Whether the updater was replaced this append — by drift past
    /// [`FitSession::refresh_threshold`] `· σ₁`, a tripped verification
    /// gate, a failed advance or a full-window replacement
    /// ([`SignalDiagnostic::reanchor`] says how it was replaced).
    pub refreshed: bool,
    /// SVD ladder rungs that broke down while producing this signal
    /// (empty on the fast path; see
    /// [`FitResult::svd_fallbacks`](crate::FitResult)).
    pub svd_fallbacks: Vec<SvdMethod>,
    /// Sample pairs evicted from the sliding window by this append
    /// (always 0 under [`WindowPolicy::Unbounded`]).
    pub evicted_pairs: usize,
    /// Residual of the verification probe (`‖A_window − UΣVᴴ‖_F` over
    /// deterministic sample columns) run on the advanced updater. Every
    /// `Updating` append after the first records one under either
    /// window policy; `None` on the first append, under a
    /// [`SessionSvd::Fresh`] oracle, on a full-window replacement, or
    /// when the advance failed before the probe ran.
    pub gate_residual: Option<f64>,
    /// Whether the pre-replacement factorization was **quarantined** —
    /// refused service because its advance failed or the verification
    /// gate tripped (drift-only refreshes leave this `false`). A
    /// quarantined factorization never serves another `realize`: the
    /// append either commits a replacement or fails transactionally.
    pub quarantined: bool,
    /// Which re-anchor rung produced the replacement factorization,
    /// when one was needed (DESIGN.md §9).
    pub reanchor: Option<Reanchor>,
}

impl SignalDiagnostic {
    /// A record of a signal that needed nothing beyond `svd_fallbacks`;
    /// the committing append fills in the order and the evictions.
    fn with_fallbacks(svd_fallbacks: Vec<SvdMethod>) -> Self {
        SignalDiagnostic {
            order: 0,
            error_bound: None,
            refreshed: false,
            svd_fallbacks,
            evicted_pairs: 0,
            gate_residual: None,
            quarantined: false,
            reanchor: None,
        }
    }
}

/// How a [`FitSession`] maintains the order-detection singular values
/// across appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SessionSvd {
    /// Rank-revealing incremental updates (the default): the first
    /// append runs the one-shot fit's detection on the realified pencil,
    /// the second materializes a real retained factorization of the
    /// first append's realified shifted pencil `x₀𝕃ᵣ − σ𝕃ᵣ` and absorbs
    /// the realified border strips into it, as does every further
    /// append — `O(K·(q + t)²)` per append instead of `O(K³)`.
    #[default]
    Updating,
    /// Fresh values-only decomposition on every append, walking the
    /// recovery ladder from the blocked backend — the exact-arithmetic
    /// oracle the updating path is tested against, and the right choice
    /// when appends are rare and pencils effectively full-rank.
    Fresh,
}

/// A staged, incrementally refittable MFTI pipeline.
///
/// ```
/// use mfti_core::{FitSession, Mfti, OrderSelection};
/// use mfti_sampling::generators::RandomSystemBuilder;
/// use mfti_sampling::{FrequencyGrid, SampleSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RandomSystemBuilder::new(10, 2, 2).d_rank(2).seed(7).build()?;
/// let grid = FrequencyGrid::log_space(1e2, 1e5, 12)?;
/// let all = SampleSet::from_system(&sys, &grid)?;
/// // Band edges go into the first batch (they set the normalization).
/// let first = all.subset(&[0, 11, 1, 2, 3, 4])?;
/// let rest = all.subset(&[5, 6, 7, 8, 9, 10])?;
///
/// let mut session = FitSession::new(Mfti::new());
/// session.append(&first)?;
/// let coarse = session.realize()?; // under-sampled: K = 12 < 2(n + rank D)
///
/// // New measurements arrive: only the new pencil blocks are computed
/// // and the order-detection SVD absorbs them as a low-rank update.
/// session.append(&rest)?;
/// let refined = session.realize()?;
/// assert_eq!(refined.order(), 12);
/// assert!(refined.order() >= coarse.order());
/// // The per-append detected orders are recorded as they streamed in
/// // (the under-sampled K = 12 pencil is already full rank, so both
/// // appends resolve to 12 — the refit improves accuracy, not order).
/// assert_eq!(session.order_trajectory(), &[12, 12]);
///
/// // Re-run order selection at another tolerance — no pencil rebuild.
/// let truncated = session.realize_with(OrderSelection::Fixed(6))?;
/// assert_eq!(truncated.order(), 6);
/// # Ok(())
/// # }
/// ```
///
/// # Consistency rules
///
/// * The direction strategies are prefix-stable (see
///   [`DirectionKind`](crate::DirectionKind)), so appending samples
///   never perturbs the blocks already woven into the pencil.
/// * The pencil keeps the frequency normalization `ω₀` of the **first**
///   batch. Appending samples far above the original band still fits
///   correctly but degrades the pencil's balance; start the session
///   with a batch that spans the band of interest.
/// * [`Weights::PerPair`](crate::Weights) vectors must match the grown
///   pair count on every append (and cannot follow a sliding window),
///   so sessions are most naturally driven with
///   [`Weights::Full`](crate::Weights) or
///   [`Weights::Uniform`](crate::Weights).
///
/// # Singular-value lifecycle
///
/// The order-detection signal lives in three pieces of state that move
/// in lockstep, all refreshed by [`append`](FitSession::append) before
/// it commits (an append either installs a consistent new generation —
/// samples, pencil, updater, signal, trajectory — or, on error, leaves
/// every one of them untouched):
///
/// * `sv` — the cached signal, padded to the pencil order with the
///   updater's retained floor when a sub-floor tail was truncated: like
///   the truncated values, the floor sits below every order-selection
///   threshold (`Threshold(1e-12)`, the `1e-11` numeric floor), and
///   padding with it instead of zero keeps
///   [`OrderSelection::LargestGap`]'s σ-ratio search from reading an
///   unbounded drop at the truncation boundary.
///   [`singular_values`](FitSession::singular_values) and the
///   realization calls only ever read this cache; **no call path can
///   observe a stale generation** (regression-tested below).
/// * the realified pencil — every append slides it to the new window
///   and keeps it with the detection and stacked factorizations its
///   realizations fill on first use. The first append runs the
///   one-shot fit's detection on it (a lazy bidiagonalization of the
///   real shifted pencil), so a single-batch session realizes with
///   [`Mfti::fit`](crate::Fitter::fit)'s bits at every order;
/// * the real [`SvdUpdater`] — materialized lazily on the *second*
///   append from the first append's realified pencil (single-batch
///   sessions never pay for its factors) and advanced on each later
///   one under either window policy: downdate the evicted rows and
///   columns, absorb the border strips of `x₀𝕃ᵣ − σ𝕃ᵣ`, run the probe
///   gate, check drift; a failed step re-anchors it from a fresh
///   decomposition. `T` is block-diagonal per sample pair, so the
///   realified pencil's rows and columns follow the pairs exactly as
///   the complex pencil's would. The updater is dropped when a
///   [`SessionSvd::Fresh`] oracle is selected.
/// * the [`order_trajectory`](FitSession::order_trajectory) — one
///   entry per append, resolved from the freshly refreshed `sv`.
#[derive(Debug, Clone)]
pub struct FitSession {
    config: Mfti,
    svd: SessionSvd,
    samples: Option<SampleSet>,
    data: Option<TangentialData>,
    /// The current generation's realified pencil, with the detection
    /// and stacked factorizations its realizations fill on first use;
    /// replaced by every `append`.
    real: Option<RealPencilState>,
    /// Retained real factorization of `x₀𝕃ᵣ − σ𝕃ᵣ`; see the lifecycle
    /// notes in the struct docs.
    updater: Option<SvdUpdater<f64>>,
    /// Singular values of `x₀𝕃ᵣ − σ𝕃ᵣ` (those of `x₀𝕃 − σ𝕃`),
    /// refreshed by every `append`.
    sv: Option<Vec<f64>>,
    /// Detected order after each append (0 when the rule fails).
    trajectory: Vec<usize>,
    /// Per-append signal health, parallel to `trajectory`.
    signal_trajectory: Vec<SignalDiagnostic>,
    /// Relative auto-refresh threshold: when the updater's accumulated
    /// Weyl bound exceeds `refresh_threshold · σ₁` after an append, the
    /// updater is re-materialized from a fresh factorization of the
    /// grown pencil (DESIGN.md §8).
    refresh_threshold: f64,
    /// Bounded-memory policy (DESIGN.md §9).
    window: WindowPolicy,
    /// Stream pairs evicted over the session lifetime — the direction
    /// origin, so surviving pairs keep their stream-position blocks.
    evicted_pairs: usize,
    /// Sum of the evicted pairs' block widths (cyclic column offset).
    evicted_cols: usize,
}

impl Default for FitSession {
    fn default() -> Self {
        Self::new(Mfti::new())
    }
}

impl FitSession {
    /// Default relative auto-refresh threshold: the accumulated Weyl
    /// bound may drift two decades above the updater's truncation floor
    /// (`1e-13 · σ₁` per append) before a re-materialization is forced
    /// — far below where any shipped order-selection rule reads signal,
    /// yet roughly 10⁴ appends of headroom on a steady stream.
    pub const DEFAULT_REFRESH_THRESHOLD: f64 = 1e-9;

    /// Creates an empty session with the given fitter configuration
    /// (weights, directions, order selection) and the default [`SessionSvd::Updating`] signal maintenance.
    pub fn new(config: Mfti) -> Self {
        FitSession {
            config,
            svd: SessionSvd::default(),
            samples: None,
            data: None,
            real: None,
            updater: None,
            sv: None,
            trajectory: Vec::new(),
            signal_trajectory: Vec::new(),
            refresh_threshold: Self::DEFAULT_REFRESH_THRESHOLD,
            window: WindowPolicy::default(),
            evicted_pairs: 0,
            evicted_cols: 0,
        }
    }

    /// Selects the bounded-memory policy (builder style; see
    /// [`WindowPolicy`] and DESIGN.md §9). Takes effect from the next
    /// [`append`](FitSession::append).
    pub fn window(mut self, policy: WindowPolicy) -> Self {
        self.window = policy;
        self
    }

    /// The configured bounded-memory policy.
    pub fn window_policy(&self) -> WindowPolicy {
        self.window
    }

    /// Total sample pairs evicted from the sliding window over the
    /// session lifetime (0 under [`WindowPolicy::Unbounded`]).
    pub fn evicted_pairs(&self) -> usize {
        self.evicted_pairs
    }

    /// Sets the relative drift threshold for the updater auto-refresh
    /// (builder style): after an append leaves
    /// [`SvdUpdater::error_bound`] above `rel · σ₁`, the session
    /// re-materializes the updater from a fresh factorization of the
    /// grown pencil instead of letting the drift feed order detection
    /// unflagged. The refresh is recorded on the
    /// [`signal_trajectory`](FitSession::signal_trajectory).
    pub fn refresh_threshold(mut self, rel: f64) -> Self {
        self.refresh_threshold = rel;
        self
    }

    /// Selects how the order-detection singular values are maintained
    /// across appends (builder style). Takes effect from the next
    /// [`append`](FitSession::append); switching to a fresh oracle
    /// drops the retained updater state.
    pub fn svd(mut self, strategy: SessionSvd) -> Self {
        if strategy == SessionSvd::Fresh {
            self.updater = None;
        }
        self.svd = strategy;
        self
    }

    /// The configured signal-maintenance strategy.
    pub fn svd_strategy(&self) -> SessionSvd {
        self.svd
    }

    /// The fitter configuration driving this session.
    pub fn config(&self) -> &Mfti {
        &self.config
    }

    /// Appends samples and grows the pipeline state: the window policy
    /// names the leading pairs to evict (none under
    /// [`WindowPolicy::Unbounded`]), the tangential data drop the
    /// evicted triples and gain only the new pairs' (the survivors are
    /// bit-identical thanks to prefix-stable directions), the realified
    /// pencil slides past the evicted pairs and assembles and realifies
    /// **only the new strips** — `O(K·k)` entries, with the bits of
    /// realifying the whole slid complex pencil — and the
    /// order-detection singular values of its shifted pencil
    /// `x₀𝕃ᵣ − σ𝕃ᵣ` are refreshed — under the default
    /// [`SessionSvd::Updating`] by the one-shot fit's own detection on
    /// the first append and by a verified real [`SvdUpdater`] downdate
    /// and border update afterwards, by a fresh values-only
    /// decomposition under a [`SessionSvd::Fresh`] oracle. The detected
    /// order is recorded on the
    /// [`order_trajectory`](FitSession::order_trajectory).
    ///
    /// The operation is transactional: on error the session — samples,
    /// data, realified pencil, updater, cached signal and trajectory —
    /// is left unchanged.
    ///
    /// # Errors
    ///
    /// * [`FitError::Mfti`] with [`MftiError::InvalidSamples`] when the
    ///   batch is empty or odd-sized, the grown set shares a frequency
    ///   or mixes port counts, or the batch's own pencil contribution
    ///   exceeds a [`WindowPolicy::Sliding`] capacity;
    /// * [`FitError::Mfti`] with [`MftiError::InvalidWeights`] when a
    ///   uniform block width lies outside `[1, min(m, p)]`, when a
    ///   `PerPair` weight vector no longer matches the pair count, or
    ///   when one arrives under a sliding window;
    /// * [`FitError::Mfti`] wrapping numeric failures of the signal
    ///   refresh (non-finite data, an exhausted re-anchor ladder).
    pub fn append(&mut self, new: &SampleSet) -> Result<(), FitError> {
        if new.is_empty() || !new.len().is_multiple_of(2) {
            return Err(MftiError::InvalidSamples {
                what: format!(
                    "append needs an even number of samples >= 2, got {}",
                    new.len()
                ),
            }
            .into());
        }
        let evict = self.eviction(new)?;

        // The live-window sample list, concatenated in append order
        // (`SampleSet::merged` sorts by frequency, which would re-pair
        // the samples). Evicted pairs drop out *before* validation, so
        // the duplicate-frequency gate scopes to the window — an
        // evicted frequency may lawfully stream back in.
        let samples = match &self.samples {
            None => new.clone(),
            Some(old) => {
                let drop = 2 * evict.pairs;
                let freqs: Vec<f64> = old.freqs_hz()[drop..]
                    .iter()
                    .chain(new.freqs_hz())
                    .copied()
                    .collect();
                let mats = old.matrices()[drop..]
                    .iter()
                    .chain(new.matrices())
                    .cloned()
                    .collect();
                SampleSet::from_parts(freqs, mats).map_err(MftiError::from)?
            }
        };
        // Surviving pairs keep their stream-position direction blocks:
        // window pair 0 is stream pair `evicted_pairs + evict.pairs`.
        let origin = DirectionOrigin {
            pairs: self.evicted_pairs + evict.pairs,
            cols: self.evicted_cols + evict.cols,
        };
        let (directions, weights) = (self.config.directions_ref(), self.config.weights_ref());

        // A full replacement (every live pair expired) rebuilds from
        // scratch — x₀ and ω₀ re-pin to the new band, and the signal
        // necessarily re-anchors fresh.
        let live_pairs = self.num_pairs();
        let full_replacement = self.real.is_some() && evict.pairs == live_pairs;
        let (data, real) = match (&self.data, &self.real) {
            (Some(old), Some(prev)) if !full_replacement => {
                let data = old.slide(evict.pairs, &samples, directions, weights, origin)?;
                let fresh: Vec<usize> = (live_pairs - evict.pairs..data.num_pairs()).collect();
                let real = prev.slide(evict.pairs, &data, &fresh)?;
                (data, real)
            }
            _ => {
                let data = TangentialData::build_from(&samples, directions, weights, origin)?;
                let real = RealPencilState::build(&data)?;
                (data, real)
            }
        };
        let generation = self.advance_signal(&real, evict.order, full_replacement)?;

        // Commit (everything fallible already happened).
        let order = self
            .config
            .order_selection_ref()
            .detect(&generation.sv)
            .unwrap_or(0);
        self.trajectory.push(order);
        self.signal_trajectory.push(SignalDiagnostic {
            order,
            evicted_pairs: evict.pairs,
            ..generation.diagnostic
        });
        self.samples = Some(samples);
        self.data = Some(data);
        self.real = Some(real);
        self.updater = generation.updater;
        self.sv = Some(generation.sv);
        self.evicted_pairs += evict.pairs;
        self.evicted_cols += evict.cols;
        Ok(())
    }

    /// The one reader of the [`WindowPolicy`]: the leading pairs that
    /// appending `new` evicts so the grown pencil order stays within
    /// the window. An unbounded session is a window that never evicts.
    fn eviction(&self, new: &SampleSet) -> Result<Eviction, FitError> {
        let WindowPolicy::Sliding { capacity } = self.window else {
            return Ok(Eviction::default());
        };
        // The per-pair block width is resolvable without building data:
        // a fixed-length `PerPair` vector cannot follow an evicting
        // pair list and is rejected up front, and a width outside the
        // direction blocks' range is refused as the data build would.
        let (p, m) = new.ports();
        let t = match self.config.weights_ref() {
            Weights::Full => p.min(m),
            Weights::Uniform(t) => *t,
            Weights::PerPair(_) => {
                return Err(MftiError::InvalidWeights {
                    what: "PerPair weights cannot follow a sliding window; use Full or Uniform"
                        .to_string(),
                }
                .into())
            }
        };
        check_block_width(t, p, m)?;
        let k_new = 2 * t * (new.len() / 2);
        if k_new == 0 || k_new > capacity {
            return Err(MftiError::InvalidSamples {
                what: format!(
                    "append contributes pencil order {k_new}, beyond the window capacity {capacity}"
                ),
            }
            .into());
        }
        // Expire the oldest pairs until the grown window fits;
        // `k_new <= capacity` guarantees the walk stops at or before a
        // full replacement.
        let mut evict = Eviction::default();
        if let Some(real) = &self.real {
            let ts = real.pencil().pair_ts();
            while real.order() - evict.order + k_new > capacity {
                evict.order += 2 * ts[evict.pairs];
                evict.cols += ts[evict.pairs];
                evict.pairs += 1;
            }
        }
        Ok(evict)
    }

    /// The first append's signal under either window policy: the
    /// one-shot fit's own detection on the realified pencil, kept in
    /// `real` so a single-batch session realizes exactly as
    /// [`Mfti::fit`](crate::Fitter::fit) does. The updater's factors
    /// are deferred until a second append proves this is a stream.
    fn first_signal(real: &RealPencilState) -> Result<SignalGeneration, FitError> {
        let detection = real.detection()?;
        Ok(SignalGeneration {
            updater: None,
            sv: detection.singular_values().to_vec(),
            diagnostic: SignalDiagnostic::with_fallbacks(detection.fallback_methods()),
        })
    }

    /// The [`SessionSvd::Fresh`] oracle's signal on every append:
    /// a values-only decomposition of `x₀𝕃ᵣ − σ𝕃ᵣ` that walks the
    /// recovery ladder from the blocked backend (DESIGN.md §8), so a
    /// stalled sweep degrades and is recorded rather than failing the
    /// append.
    fn fresh_signal(real: &RealPencilState) -> Result<SignalGeneration, FitError> {
        let rec =
            Svd::compute_recovering(&real.shifted(), SvdMethod::Blocked, SvdFactors::ValuesOnly)
                .map_err(MftiError::from)?;
        Ok(SignalGeneration {
            updater: None,
            sv: rec.s,
            diagnostic: SignalDiagnostic::with_fallbacks(
                rec.fallbacks.iter().map(|(m, _)| *m).collect(),
            ),
        })
    }

    /// Computes the next generation of the order-detection signal for
    /// the slid realified pencil `real`, without touching `self` (the
    /// caller commits).
    ///
    /// Past the first append the updater advances in four steps:
    /// downdate the `k_evict` evicted leading rows and columns (none
    /// under [`WindowPolicy::Unbounded`]), absorb the appended border,
    /// run the probe gate, check drift. A refused step or a tripped gate
    /// quarantines the candidate; that, drift past the refresh
    /// threshold, or a full-window replacement re-anchors the updater
    /// from the recovery ladder's decomposition of the live window
    /// (DESIGN.md §8, §9): blocked, then Golub–Kahan, then Jacobi on
    /// `NoConvergence`.
    fn advance_signal(
        &self,
        real: &RealPencilState,
        k_evict: usize,
        full_replacement: bool,
    ) -> Result<SignalGeneration, FitError> {
        if self.svd == SessionSvd::Fresh {
            return Self::fresh_signal(real);
        }
        let Some(prev) = &self.real else {
            return Self::first_signal(real);
        };
        let k = real.order();
        let mut gate_residual = None;
        let mut quarantined = false;
        let mut live = None;
        if !full_replacement {
            // Only the three border strips and three probe columns —
            // first, middle and last of the window — are assembled,
            // never the full K×K shifted matrix, so the work beyond the
            // update itself stays O(K·k_new).
            let k_surv = prev.order() - k_evict;
            let k_new = k - k_surv;
            let cols = real.shifted_block(0, k_surv, k_surv, k_new);
            let rows = real.shifted_block(k_surv, 0, k_new, k_surv);
            let corner = real.shifted_block(k_surv, k_surv, k_new, k_new);
            let mut probe_idx = vec![0, k / 2, k - 1];
            probe_idx.dedup();
            let mut reference = RMatrix::zeros(k, probe_idx.len());
            for (c, &j) in probe_idx.iter().enumerate() {
                let col = real.shifted_block(0, j, k, 1);
                for i in 0..k {
                    reference[(i, c)] = col[(i, 0)];
                }
            }
            // The updater materializes lazily from the *previous*
            // generation's realified pencil; x₀ is pinned, so both
            // generations shift by the same point.
            let advanced = (|| -> Result<(SvdUpdater<f64>, f64), NumericError> {
                let mut upd = match &self.updater {
                    Some(upd) => upd.clone(),
                    None => SvdUpdater::new(&prev.shifted())?,
                };
                upd.downdate_leading(k_evict, k_evict)?;
                upd.append_border(&cols, &rows, &corner)?;
                let residual = upd.residual_on_columns(&reference, &probe_idx)?;
                Ok((upd, residual))
            })();
            if let Ok((upd, residual)) = advanced {
                // The gate `‖A[:,J] − UΣVᵀ[:,J]‖_F ≤ threshold` checks
                // that the advanced factorization still explains the
                // window it claims to factor. Drift alone — the
                // accumulated Weyl bound past the same threshold
                // (DESIGN.md §8) — is a scheduled re-anchor, not a
                // quarantine.
                let sigma1 = upd.singular_values().first().copied().unwrap_or(0.0);
                let threshold = self.refresh_threshold * sigma1;
                let drifted = upd.error_bound() > threshold;
                gate_residual = Some(residual);
                quarantined = residual > threshold;
                if !quarantined && !drifted {
                    live = Some(upd);
                }
            } else {
                quarantined = true;
            }
        }

        // The re-anchor: the recovery ladder's decomposition of the live
        // window seeds a fresh updater. Exhaustion fails the append
        // transactionally — the quarantined candidate was never
        // committed.
        let mut fallbacks = Vec::new();
        let (live, reanchor) = match live {
            Some(upd) => (upd, None),
            None => {
                let rec =
                    Svd::compute_recovering(&real.shifted(), SvdMethod::Blocked, SvdFactors::Both)
                        .map_err(MftiError::from)?;
                fallbacks = rec.fallbacks.iter().map(|(m, _)| *m).collect();
                let rung = match rec.method {
                    SvdMethod::Blocked => Reanchor::FreshBlocked,
                    SvdMethod::GolubKahan => Reanchor::GolubKahan,
                    _ => Reanchor::Jacobi,
                };
                let upd = SvdUpdater::from_factors(rec.u, rec.s, rec.v, DEFAULT_UPDATE_FLOOR)
                    .map_err(MftiError::from)?;
                (upd, Some(rung))
            }
        };

        // The diagnostic reports the bound of the factorization *as
        // committed*: a re-anchor restarts the Weyl accounting from the
        // fresh factorization's floor (the drift that triggered it is
        // observable as `refreshed`). The truncated sub-floor tail is
        // padded back to pencil order with the retained floor: like the
        // truncated values it sits below every selection threshold, and
        // unlike a zero it cannot manufacture an unbounded σ_r/σ_{r+1}
        // ratio at the truncation boundary for
        // `OrderSelection::LargestGap`.
        let error_bound = Some(live.error_bound());
        let mut sv = live.singular_values().to_vec();
        sv.resize(k, live.retain_floor());
        Ok(SignalGeneration {
            updater: Some(live),
            sv,
            diagnostic: SignalDiagnostic {
                error_bound,
                refreshed: reanchor.is_some(),
                gate_residual,
                quarantined,
                reanchor,
                ..SignalDiagnostic::with_fallbacks(fallbacks)
            },
        })
    }

    /// The accumulated sample set, in append order.
    pub fn samples(&self) -> Option<&SampleSet> {
        self.samples.as_ref()
    }

    /// The tangential data of the current samples (stage 2).
    pub fn data(&self) -> Option<&TangentialData> {
        self.data.as_ref()
    }

    /// The incrementally slid realified Loewner pencil (stage 3): the
    /// session never forms the complex pencil, whose realification this
    /// equals bit for bit.
    pub fn pencil(&self) -> Option<&RealifiedPencil> {
        self.real.as_ref().map(RealPencilState::pencil)
    }

    /// Number of sample pairs currently woven into the pencil.
    pub fn num_pairs(&self) -> usize {
        self.pencil().map_or(0, |p| p.included_pairs().len())
    }

    /// Current pencil order `K` (0 before the first append).
    pub fn pencil_order(&self) -> usize {
        self.pencil().map_or(0, RealifiedPencil::order)
    }

    /// Detected model order after each append, in append order — the
    /// streaming convergence diagnostic: on clean data the trajectory
    /// rises while new measurements still reveal modes and flattens at
    /// `n + rank D` once the pencil saturates. An entry is 0 when the
    /// configured selection rule could not resolve an order at that
    /// step.
    pub fn order_trajectory(&self) -> &[usize] {
        &self.trajectory
    }

    /// Per-append signal health records, parallel to
    /// [`order_trajectory`](FitSession::order_trajectory): the updater's
    /// accumulated error bound, whether an auto-refresh fired, and any
    /// SVD ladder rungs that broke down (DESIGN.md §8).
    pub fn signal_trajectory(&self) -> &[SignalDiagnostic] {
        &self.signal_trajectory
    }

    /// The incremental signal's current accumulated Weyl bound
    /// ([`SvdUpdater::error_bound`]): every cached singular value is
    /// within this absolute distance of the exact one. `None` before
    /// the updater materializes or under a [`SessionSvd::Fresh`]
    /// oracle (where the signal is exact by construction).
    pub fn signal_error_bound(&self) -> Option<f64> {
        self.updater.as_ref().map(SvdUpdater::error_bound)
    }

    /// Working-set size of the incremental signal: the retained rank of
    /// the updater, once materialized (`None` before the second append
    /// or under a [`SessionSvd::Fresh`] oracle).
    pub fn retained_rank(&self) -> Option<usize> {
        self.updater.as_ref().map(SvdUpdater::retained_rank)
    }

    /// Singular values of `x₀𝕃 − σ𝕃` for the current pencil, computed
    /// on its realification `x₀𝕃ᵣ − σ𝕃ᵣ` — the order-detection signal,
    /// refreshed by every
    /// [`append`](FitSession::append) (never stale, and never computed
    /// here; see the lifecycle notes on [`FitSession`]). Under
    /// [`SessionSvd::Updating`] with a truncated sub-floor tail the
    /// trailing entries equal the updater's retained floor.
    ///
    /// # Errors
    ///
    /// [`FitError::Session`] before any samples are appended.
    pub fn singular_values(&self) -> Result<&[f64], FitError> {
        self.sv.as_deref().ok_or(FitError::Session {
            what: "no samples appended yet",
        })
    }

    /// Runs the realization stage with the session's configured order
    /// selection.
    ///
    /// # Errors
    ///
    /// Same as [`FitSession::realize_with`].
    pub fn realize(&self) -> Result<FitOutcome, FitError> {
        let selection = self.config.order_selection_ref();
        self.realize_with(selection)
    }

    /// Runs order selection with `selection` on the **cached** singular
    /// values, then projects the pencil to the detected order — the
    /// pencil, its signal and the factorizations a projection reads are
    /// reused across calls, so trying a different tolerance costs only
    /// the final projection. The cache is only cloned into the outcome
    /// after detection and realization succeed.
    ///
    /// The outcome's `elapsed` covers this realization call, not the
    /// accumulated session lifetime.
    ///
    /// # Errors
    ///
    /// [`FitError::Session`] before any samples are appended;
    /// order-selection and realization failures otherwise.
    pub fn realize_with(&self, selection: OrderSelection) -> Result<FitOutcome, FitError> {
        let start = Stopwatch::start();
        let sv = self.singular_values()?;
        let real = self.real.as_ref().ok_or(FitError::Session {
            what: "no samples appended yet",
        })?;
        let order = selection.detect(sv)?;
        // Two routes (DESIGN.md §6). A stream's updater already holds
        // the q-wide real factorization of `x₀𝕃ᵣ − σ𝕃ᵣ`: restrict the
        // stacks to it when it holds the order (`r ≤ q`) and the
        // restriction shrinks them (`2q ≤ K`). Everything else takes
        // the generation's own detection or stacked factorizations,
        // built on first use and reused by every later call — which is
        // the one-shot fit's model, bit for bit.
        let model = match &self.updater {
            Some(upd)
                if order <= upd.retained_rank() && 2 * upd.retained_rank() <= real.order() =>
            {
                real.realize_restricted(upd.left(), upd.right(), order)?
            }
            _ => real.realize(order)?,
        };
        Ok(FitOutcome::from_loewner(
            "mfti-session",
            FitResult {
                model,
                pencil_singular_values: sv.to_vec(),
                detected_order: order,
                pencil_order: real.order(),
                // The signal producing this realization is the last
                // committed generation; surface its breakdown trail.
                svd_fallbacks: self
                    .signal_trajectory
                    .last()
                    .map(|d| d.svd_fallbacks.clone())
                    .unwrap_or_default(),
                elapsed: start.elapsed(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Weights;
    use crate::fitter::Fitter;
    use crate::metrics::err_rms_of;
    use mfti_sampling::generators::RandomSystemBuilder;
    use mfti_sampling::FrequencyGrid;
    use mfti_statespace::Macromodel;

    fn workload(k: usize) -> SampleSet {
        let sys = RandomSystemBuilder::new(10, 2, 2)
            .d_rank(2)
            .seed(404)
            .build()
            .unwrap();
        let grid = FrequencyGrid::log_space(1e3, 1e6, k).unwrap();
        SampleSet::from_system(&sys, &grid).unwrap()
    }

    /// Splits `all` so the first part contains the band edges (the
    /// session's frequency normalization is set by the first batch).
    fn split_edges_first(all: &SampleSet, first: usize) -> (SampleSet, SampleSet) {
        let k = all.len();
        let mut order: Vec<usize> = vec![0, k - 1];
        order.extend(1..k - 1);
        let head = all.subset(&order[..first]).unwrap();
        let tail = all.subset(&order[first..]).unwrap();
        (head, tail)
    }

    #[test]
    fn incremental_session_matches_from_scratch_fit_exactly() {
        let all = workload(12);
        let (head, tail) = split_edges_first(&all, 6);

        let mut session = FitSession::new(Mfti::new());
        session.append(&head).unwrap();
        let k_head = session.pencil_order();
        session.append(&tail).unwrap();
        assert!(session.pencil_order() > k_head);
        let incremental = session.realize().unwrap();

        // From-scratch reference on the same sample ordering.
        let mut scratch = FitSession::new(Mfti::new());
        let combined = {
            let freqs: Vec<f64> = head
                .freqs_hz()
                .iter()
                .chain(tail.freqs_hz())
                .copied()
                .collect();
            let mats = head
                .matrices()
                .iter()
                .chain(tail.matrices())
                .cloned()
                .collect();
            SampleSet::from_parts(freqs, mats).unwrap()
        };
        scratch.append(&combined).unwrap();
        let reference = scratch.realize().unwrap();

        assert_eq!(incremental.order(), reference.order());
        // The incremental session realizes from the updater's retained
        // factors, the scratch session from a fresh decomposition of
        // the (bit-identical) pencil — the state bases differ by
        // singular-subspace ambiguities, so compare the basis-invariant
        // transfer functions (≤ 1e-11: the retained-tail truncation
        // error sits at the updater floor).
        assert!(incremental.model().as_real().is_some());
        let freqs = combined.freqs_hz();
        let (resp_inc, resp_ref) = (
            incremental.model().response_batch_hz(freqs).unwrap(),
            reference.model().response_batch_hz(freqs).unwrap(),
        );
        for ((f, hi), hr) in freqs.iter().zip(&resp_inc).zip(&resp_ref) {
            assert!(
                (hi - hr).max_abs() <= 1e-11 * hr.max_abs().max(1e-12),
                "retained-factor realization drifted from scratch at {f} Hz"
            );
        }

        // And the one-shot fitter agrees too (same data ordering).
        let one_shot = Fitter::fit(&Mfti::new(), &combined).unwrap();
        assert_eq!(one_shot.order(), incremental.order());
    }

    #[test]
    fn updating_signal_matches_the_fresh_oracle() {
        // The same three-batch stream through the default updating path
        // and the fresh-decomposition oracle: singular values within
        // update tolerance, identical rank decisions, same realization.
        let all = workload(18);
        let (head, rest) = split_edges_first(&all, 6);
        let mid = rest.subset(&[0, 1, 2, 3]).unwrap();
        let tail = rest.subset(&[4, 5, 6, 7, 8, 9, 10, 11]).unwrap();

        let mut updating = FitSession::new(Mfti::new());
        let mut oracle = FitSession::new(Mfti::new()).svd(SessionSvd::Fresh);
        for batch in [&head, &mid, &tail] {
            updating.append(batch).unwrap();
            oracle.append(batch).unwrap();
            let (su, so) = (
                updating.singular_values().unwrap().to_vec(),
                oracle.singular_values().unwrap().to_vec(),
            );
            assert_eq!(su.len(), so.len(), "padded to pencil order");
            for (u, o) in su.iter().zip(&so) {
                assert!((u - o).abs() <= 1e-10 * so[0], "σ drift: {u:e} vs {o:e}");
            }
        }
        assert_eq!(updating.order_trajectory(), oracle.order_trajectory());
        assert!(updating.retained_rank().is_some());
        assert!(oracle.retained_rank().is_none());
        // Ratio-based gap detection must agree too: the updating path
        // pads its truncated tail with the retained floor, so the
        // truncation boundary cannot read as an unbounded σ drop.
        let gap = OrderSelection::LargestGap {
            min_order: 1,
            max_order: updating.pencil_order() - 1,
        };
        assert_eq!(
            updating.realize_with(gap).unwrap().order(),
            oracle.realize_with(gap).unwrap().order(),
            "LargestGap diverged between updating and fresh signals"
        );
        let (mu, mo) = (updating.realize().unwrap(), oracle.realize().unwrap());
        assert_eq!(mu.order(), mo.order());
        // Same pencil + same order, but the updating session realizes
        // from its retained factors while the oracle re-decomposes: the
        // models agree as transfer functions, not entrywise.
        let freqs = all.freqs_hz();
        let (ru, ro) = (
            mu.model().response_batch_hz(freqs).unwrap(),
            mo.model().response_batch_hz(freqs).unwrap(),
        );
        for ((f, hu), ho) in freqs.iter().zip(&ru).zip(&ro) {
            assert!(
                (hu - ho).max_abs() <= 1e-10 * ho.max_abs().max(1e-12),
                "retained vs fresh realization drift at {f} Hz"
            );
        }
    }

    #[test]
    fn retained_route_matches_the_dense_realization_at_every_order() {
        // The stream above (K = 36, q = 12): every order up to q takes
        // the retained route, whose q-wide real factors span the stacks'
        // column and row spaces, so each model is the dense stacked
        // projection's as a transfer function — also below the true
        // order, where restricting to the leading r detection factors
        // would project on a different subspace.
        let all = workload(18);
        let (head, rest) = split_edges_first(&all, 6);
        let mut session = FitSession::new(Mfti::new());
        for batch in [
            head,
            rest.subset(&[0, 1, 2, 3]).unwrap(),
            rest.subset(&[4, 5, 6, 7, 8, 9, 10, 11]).unwrap(),
        ] {
            session.append(&batch).unwrap();
        }
        let q = session.retained_rank().unwrap();
        assert!(2 * q <= session.pencil_order(), "q {q} declines the route");
        let real = session.pencil().unwrap();
        let freqs = all.freqs_hz();
        for r in 1..=q {
            let retained = session.realize_with(OrderSelection::Fixed(r)).unwrap();
            let dense = crate::realize::realize_real(real, r).unwrap();
            let (rr, rd) = (
                retained.model().response_batch_hz(freqs).unwrap(),
                dense.response_batch_hz(freqs).unwrap(),
            );
            for ((f, hr), hd) in freqs.iter().zip(&rr).zip(&rd) {
                assert!(
                    (hr - hd).max_abs() <= 1e-10 * hd.max_abs().max(1e-12),
                    "order {r}: retained vs dense realization drift at {f} Hz"
                );
            }
        }
    }

    #[test]
    fn out_of_range_uniform_width_is_invalid_weights_under_both_policies() {
        // A 2-port stream admits t ∈ [1, 2]; a sliding window must not
        // size its eviction from an unchecked width and report a
        // capacity error instead.
        let batch = workload(8);
        for policy in [
            WindowPolicy::Unbounded,
            WindowPolicy::Sliding { capacity: 96 },
        ] {
            for t in [0, 30] {
                let mut session =
                    FitSession::new(Mfti::new().weights(Weights::Uniform(t))).window(policy);
                assert!(
                    matches!(
                        session.append(&batch),
                        Err(FitError::Mfti(MftiError::InvalidWeights { .. }))
                    ),
                    "{policy:?}, t = {t}"
                );
                assert_eq!(session.pencil_order(), 0);
                assert!(session.samples().is_none());
                assert!(session.singular_values().is_err());
                assert!(session.order_trajectory().is_empty());
            }
        }
    }

    #[test]
    fn singular_values_after_append_are_never_stale() {
        // Regression: the cached signal must be replaced (not merely
        // invalidated-and-maybe-recomputed) by every append, on both
        // maintenance paths, including after realize_with() touched it.
        let all = workload(16);
        let (head, rest) = split_edges_first(&all, 6);
        let mid = rest.subset(&[0, 1]).unwrap();
        let tail = rest.subset(&[2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        for strategy in [SessionSvd::Updating, SessionSvd::Fresh] {
            let mut session = FitSession::new(Mfti::new()).svd(strategy);
            session.append(&head).unwrap();
            let sv1 = session.singular_values().unwrap().to_vec();
            assert_eq!(sv1.len(), session.pencil_order());
            session.realize().unwrap(); // reads (and must not pin) the cache

            session.append(&mid).unwrap();
            let sv2 = session.singular_values().unwrap().to_vec();
            assert_eq!(sv2.len(), session.pencil_order());
            assert_ne!(sv1, sv2, "append must refresh the cached signal");

            session.append(&tail).unwrap();
            let sv3 = session.singular_values().unwrap().to_vec();
            assert_eq!(sv3.len(), session.pencil_order());
            assert_ne!(sv2, sv3, "append must refresh the cached signal");
            // The outcome snapshots the current generation.
            let outcome = session.realize().unwrap();
            assert_eq!(outcome.pencil_singular_values().unwrap(), &sv3[..]);
        }
    }

    #[test]
    fn session_stages_are_inspectable() {
        let all = workload(8);
        let mut session = FitSession::default();
        assert!(session.samples().is_none());
        assert_eq!(session.pencil_order(), 0);
        assert!(session.order_trajectory().is_empty());
        assert!(session.retained_rank().is_none());
        assert!(matches!(
            session.singular_values(),
            Err(FitError::Session { .. })
        ));

        session.append(&all).unwrap();
        assert_eq!(session.samples().unwrap().len(), 8);
        assert_eq!(session.num_pairs(), 4);
        assert_eq!(session.data().unwrap().num_pairs(), 4);
        assert_eq!(session.pencil_order(), 16); // 2·t·pairs = 2·2·4
        let sv = session.singular_values().unwrap();
        assert_eq!(sv.len(), 16);
        assert_eq!(session.order_trajectory().len(), 1);
    }

    #[test]
    fn reselection_reuses_the_cached_signal() {
        let all = workload(12);
        let mut session = FitSession::new(Mfti::new());
        session.append(&all).unwrap();
        let auto = session.realize().unwrap();
        assert_eq!(auto.order(), 12); // n + rank(D)
        let err = err_rms_of(auto.model(), &all).unwrap();
        assert!(err < 1e-7, "ERR {err:.2e}");

        // Order re-selection without rebuilding anything.
        let fixed = session.realize_with(OrderSelection::Fixed(6)).unwrap();
        assert_eq!(fixed.order(), 6);
        let coarse_err = err_rms_of(fixed.model(), &all).unwrap();
        assert!(coarse_err > err, "truncation must cost accuracy");

        // The full-accuracy realization is still reproducible.
        let again = session.realize().unwrap();
        assert_eq!(again.order(), 12);
    }

    #[test]
    fn append_is_transactional_on_bad_input() {
        let all = workload(8);
        let mut session = FitSession::new(Mfti::new());
        session.append(&all).unwrap();
        let k = session.pencil_order();
        let trajectory = session.order_trajectory().to_vec();

        // Odd-sized growth is rejected …
        let odd = all.subset(&[0]).unwrap();
        let mut probe = session.clone();
        assert!(probe.append(&odd).is_err());

        // … duplicate frequencies are rejected …
        assert!(session.append(&all.subset(&[0, 1]).unwrap()).is_err());

        // … and the session still realizes as before, with the
        // trajectory unperturbed by the failed appends.
        assert_eq!(session.pencil_order(), k);
        assert_eq!(session.order_trajectory(), &trajectory[..]);
        assert!(session.realize().is_ok());
    }

    #[test]
    fn signal_trajectory_records_bounds_and_orders() {
        let all = workload(12);
        let (head, tail) = split_edges_first(&all, 6);
        let mut session = FitSession::new(Mfti::new());
        session.append(&head).unwrap();
        session.append(&tail).unwrap();
        let diags = session.signal_trajectory();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].order, session.order_trajectory()[0]);
        assert_eq!(diags[1].order, session.order_trajectory()[1]);
        assert!(
            diags[0].error_bound.is_none(),
            "no updater before the second append"
        );
        assert!(!diags[0].refreshed);
        let bound = diags[1].error_bound.expect("updater materialized");
        assert!(bound >= 0.0 && bound.is_finite());
        assert!(diags[1].svd_fallbacks.is_empty());
        assert!(diags[1].gate_residual.is_some(), "the probe gate ran");
        assert!(session.signal_error_bound().is_some());

        // The fresh oracle's signal is exact by construction: no bound.
        let mut oracle = FitSession::new(Mfti::new()).svd(SessionSvd::Fresh);
        oracle.append(&head).unwrap();
        assert!(oracle.signal_trajectory()[0].error_bound.is_none());
        assert!(oracle.signal_error_bound().is_none());
    }

    #[test]
    fn drifted_updater_is_auto_refreshed() {
        // An always-firing threshold forces a re-materialization on
        // every multi-append commit — the drift-recovery path in
        // isolation.
        let all = workload(12);
        let (head, tail) = split_edges_first(&all, 6);
        let mut session = FitSession::new(Mfti::new()).refresh_threshold(-1.0);
        session.append(&head).unwrap();
        session.append(&tail).unwrap();
        let diags = session.signal_trajectory();
        assert!(!diags[0].refreshed, "no updater to refresh on append 1");
        assert!(diags[1].refreshed, "threshold -1 must force a refresh");
        assert!(diags[1].quarantined, "threshold -1 trips the probe gate");
        assert_eq!(diags[1].reanchor, Some(Reanchor::FreshBlocked));
        // The refreshed signal matches the default session's rank
        // decision and still realizes.
        let mut reference = FitSession::new(Mfti::new());
        reference.append(&head).unwrap();
        reference.append(&tail).unwrap();
        assert_eq!(session.order_trajectory(), reference.order_trajectory());
        assert_eq!(
            session.realize().unwrap().order(),
            reference.realize().unwrap().order()
        );
        // The default threshold never fires on this short clean stream.
        assert!(reference.signal_trajectory().iter().all(|d| !d.refreshed));
    }

    #[test]
    fn sliding_window_matches_the_fresh_oracle_and_stays_bounded() {
        // A capacity-24 window over a 24-sample stream: the verified
        // downdate/update signal must agree with a fresh per-append
        // decomposition of the identical window pencil, while the
        // pencil order never exceeds the capacity.
        let all = workload(24);
        let (head, rest) = split_edges_first(&all, 6);
        let window = WindowPolicy::Sliding { capacity: 24 };
        let mut updating = FitSession::new(Mfti::new()).window(window);
        let mut oracle = FitSession::new(Mfti::new())
            .window(window)
            .svd(SessionSvd::Fresh);

        updating.append(&head).unwrap();
        oracle.append(&head).unwrap();
        let mut peak = updating.pencil_order();
        for i in (0..rest.len()).step_by(2) {
            let batch = rest.subset(&[i, i + 1]).unwrap();
            updating.append(&batch).unwrap();
            oracle.append(&batch).unwrap();
            peak = peak.max(updating.pencil_order());
            assert_eq!(updating.pencil_order(), oracle.pencil_order());
            let (su, so) = (
                updating.singular_values().unwrap().to_vec(),
                oracle.singular_values().unwrap().to_vec(),
            );
            assert_eq!(su.len(), so.len());
            for (u, o) in su.iter().zip(&so) {
                assert!((u - o).abs() <= 1e-9 * so[0], "σ drift: {u:e} vs {o:e}");
            }
        }
        assert!(peak <= 24, "peak pencil order {peak} exceeded the capacity");
        assert_eq!(updating.order_trajectory(), oracle.order_trajectory());
        assert!(updating.evicted_pairs() > 0, "the stream must have slid");
        assert_eq!(updating.evicted_pairs(), oracle.evicted_pairs());
        // The live window holds at most capacity/(2t) = 6 pairs.
        assert!(updating.samples().unwrap().len() <= 12);
        // Both paths realize the same model order from the live window
        // (the trailing band alone may resolve fewer than the full
        // stream's n + rank D modes — that is the window semantics).
        let (mu, mo) = (updating.realize().unwrap(), oracle.realize().unwrap());
        assert_eq!(mu.order(), mo.order());
        assert!(mu.order() > 0);
        // Eviction bookkeeping reaches the trajectory, and quarantine
        // provenance is structurally sound: a quarantined candidate was
        // necessarily replaced, with the ladder rung recorded.
        let diags = updating.signal_trajectory();
        assert!(diags.iter().any(|d| d.evicted_pairs > 0));
        for d in diags {
            if d.quarantined {
                assert!(d.refreshed, "quarantine without replacement");
            }
            if d.refreshed && d.error_bound.is_some() {
                assert!(d.reanchor.is_some(), "replacement without provenance");
            }
        }
    }

    #[test]
    fn evicted_frequency_may_stream_back_in() {
        // Satellite regression: the duplicate-frequency gate scopes to
        // the live window. Capacity 12 = 3 pairs at t = 2.
        let all = workload(8);
        let mut session =
            FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity: 12 });
        session
            .append(&all.subset(&[0, 7, 1, 2, 3, 4]).unwrap())
            .unwrap();
        // Evicts the (f0, f7) pair …
        session.append(&all.subset(&[5, 6]).unwrap()).unwrap();
        assert_eq!(session.evicted_pairs(), 1);
        // … so f0 and f7 may lawfully return across the window boundary.
        session.append(&all.subset(&[0, 7]).unwrap()).unwrap();
        assert_eq!(session.evicted_pairs(), 2);
        assert_eq!(
            session.realize().unwrap().order(),
            session.order_trajectory().last().copied().unwrap()
        );

        // A frequency still *live* after the eviction walk is a genuine
        // duplicate and must be refused, transactionally. Window is now
        // {(f3,f4), (f5,f6), (f0,f7)}; appending (f5,f6) evicts (f3,f4)
        // and would leave (f5,f6) twice.
        let k = session.pencil_order();
        let trajectory = session.order_trajectory().to_vec();
        assert!(session.append(&all.subset(&[5, 6]).unwrap()).is_err());
        assert_eq!(session.pencil_order(), k);
        assert_eq!(session.order_trajectory(), &trajectory[..]);
        assert!(session.realize().is_ok());
    }

    #[test]
    fn windowed_reanchor_restarts_drift_accounting() {
        // Satellite regression: an always-firing threshold quarantines
        // every windowed advance; the committed diagnostic must carry
        // the *replacement's* Weyl bound (the fresh factorization's
        // floor), not the drift that triggered the re-anchor.
        let all = workload(16);
        let (head, rest) = split_edges_first(&all, 6);
        let mut session = FitSession::new(Mfti::new())
            .window(WindowPolicy::Sliding { capacity: 16 })
            .refresh_threshold(-1.0);
        session.append(&head).unwrap();
        for i in (0..rest.len()).step_by(2) {
            session.append(&rest.subset(&[i, i + 1]).unwrap()).unwrap();
            let d = session.signal_trajectory().last().unwrap();
            assert!(d.refreshed, "threshold -1 must force a re-anchor");
            assert!(d.quarantined, "threshold -1 trips the gate");
            assert_eq!(d.reanchor, Some(Reanchor::FreshBlocked));
            let bound = d.error_bound.expect("windowed appends commit an updater");
            let sigma1 = session.singular_values().unwrap()[0];
            assert!(
                bound <= 1e-11 * sigma1,
                "post-re-anchor bound {bound:e} must restart at the fresh floor"
            );
            assert_eq!(Some(bound), session.signal_error_bound());
        }
    }

    #[test]
    fn windowed_append_is_transactional_on_bad_input() {
        let all = workload(12);
        let window = WindowPolicy::Sliding { capacity: 16 };

        // PerPair weights cannot follow an evicting window.
        let mut perpair =
            FitSession::new(Mfti::new().weights(Weights::PerPair(vec![2, 2]))).window(window);
        assert!(matches!(
            perpair.append(&all.subset(&[0, 1, 2, 3]).unwrap()),
            Err(FitError::Mfti(MftiError::InvalidWeights { .. }))
        ));

        let mut session = FitSession::new(Mfti::new()).window(window);
        session
            .append(&all.subset(&[0, 11, 1, 2]).unwrap())
            .unwrap();
        let k = session.pencil_order();
        let sv = session.singular_values().unwrap().to_vec();

        // An odd batch, an oversized batch (5 pairs · 4 = 20 > 16) and
        // a live-window duplicate all leave the session untouched.
        assert!(session.append(&all.subset(&[3]).unwrap()).is_err());
        assert!(session
            .append(&all.subset(&[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]).unwrap())
            .is_err());
        assert!(session.append(&all.subset(&[0, 11]).unwrap()).is_err());
        assert_eq!(session.pencil_order(), k);
        assert_eq!(session.singular_values().unwrap(), &sv[..]);
        assert_eq!(session.evicted_pairs(), 0);
        assert!(session.realize().is_ok());
    }

    #[test]
    fn full_window_replacement_reanchors_fresh() {
        // A batch that displaces every live pair rebuilds pencil and
        // signal from scratch — the degenerate (but legal) slide.
        let all = workload(8);
        let mut session =
            FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity: 8 });
        session.append(&all.subset(&[0, 7, 1, 2]).unwrap()).unwrap();
        assert_eq!(session.pencil_order(), 8);
        session.append(&all.subset(&[3, 4, 5, 6]).unwrap()).unwrap();
        assert_eq!(session.pencil_order(), 8);
        assert_eq!(session.evicted_pairs(), 2);
        assert_eq!(
            session.samples().unwrap().freqs_hz(),
            all.subset(&[3, 4, 5, 6]).unwrap().freqs_hz()
        );
        assert!(session.realize().is_ok());
    }

    /// Field-for-field, bit-for-bit equality of two tangential data sets.
    fn assert_same_data(a: &TangentialData, b: &TangentialData) {
        let cbits = |m: &mfti_numeric::CMatrix| -> Vec<(u64, u64)> {
            m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let rbits = |m: &RMatrix| -> Vec<u64> { m.iter().map(|x| x.to_bits()).collect() };
        let point = |z: mfti_numeric::Complex| (z.re.to_bits(), z.im.to_bits());
        assert_eq!(a.ports(), b.ports());
        assert_eq!(a.pair_weights(), b.pair_weights());
        assert_eq!(a.freq_scale().to_bits(), b.freq_scale().to_bits());
        assert_eq!(a.right().len(), b.right().len());
        for (x, y) in a.right().iter().zip(b.right()) {
            assert_eq!(point(x.lambda), point(y.lambda));
            assert_eq!((rbits(&x.r), cbits(&x.w)), (rbits(&y.r), cbits(&y.w)));
            assert_eq!(x.sample_index, y.sample_index);
        }
        assert_eq!(a.left().len(), b.left().len());
        for (x, y) in a.left().iter().zip(b.left()) {
            assert_eq!(point(x.mu), point(y.mu));
            assert_eq!((rbits(&x.l), cbits(&x.v)), (rbits(&y.l), cbits(&y.v)));
            assert_eq!(x.sample_index, y.sample_index);
        }
    }

    #[test]
    fn every_append_keeps_the_bits_of_a_rebuild_and_of_the_complex_oracle() {
        // After every append of a growing stream, an evicting window
        // (cyclic directions, whose column offset follows the evictions)
        // and a window whose batch replaces every live pair, the slid
        // data equal a rebuild over the live window, and the slid
        // realified pencil equals the realification of the complex
        // oracle pencil slid alongside. On both windows some append's
        // data carry an ω₀ of their own away from the pinned one, which
        // the oracle keeps assembling at.
        let all = workload(16);
        let (head, rest) = split_edges_first(&all, 6);
        let pairs = |idx: &[usize]| rest.subset(idx).unwrap();
        let cyclic = Mfti::new().directions(crate::DirectionKind::CyclicIdentity);
        let streams = [
            (
                Mfti::new(),
                WindowPolicy::Unbounded,
                vec![
                    head.clone(),
                    pairs(&[0, 1]),
                    pairs(&[2, 3, 4, 5]),
                    pairs(&[6, 7]),
                ],
            ),
            (
                cyclic.weights(Weights::Uniform(1)),
                WindowPolicy::Sliding { capacity: 8 },
                (0..rest.len())
                    .step_by(2)
                    .fold(vec![head.clone()], |mut v, i| {
                        v.push(pairs(&[i, i + 1]));
                        v
                    }),
            ),
            (
                Mfti::new(),
                WindowPolicy::Sliding { capacity: 8 },
                vec![pairs(&[0, 1, 2, 3]), pairs(&[4, 5, 6, 7]), pairs(&[8, 9])],
            ),
        ];
        for (config, policy, batches) in streams {
            let mut session = FitSession::new(config.clone()).window(policy);
            let mut oracle: Option<crate::LoewnerPencil> = None;
            let mut unpinned_window = false;
            for batch in &batches {
                let live = session.num_pairs();
                session.append(batch).unwrap();
                let evicted = session.signal_trajectory().last().unwrap().evicted_pairs;
                let data = session.data().unwrap();
                let rebuilt = TangentialData::build_from(
                    session.samples().unwrap(),
                    config.directions_ref(),
                    config.weights_ref(),
                    DirectionOrigin {
                        pairs: session.evicted_pairs,
                        cols: session.evicted_cols,
                    },
                )
                .unwrap();
                assert_same_data(data, &rebuilt);

                let fresh: Vec<usize> = (live - evicted..data.num_pairs()).collect();
                let slid = match oracle {
                    Some(prev) if evicted < live => prev.slide(evicted, data, &fresh).unwrap(),
                    _ => crate::LoewnerPencil::build(data).unwrap(),
                };
                let want = crate::realify::realify(&slid, 0.0).unwrap();
                let got = session.pencil().unwrap();
                unpinned_window |= data.freq_scale() != got.freq_scale();
                let bits = |m: &RMatrix| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (x, y) in [
                    (got.ll(), want.ll()),
                    (got.sll(), want.sll()),
                    (got.w(), want.w()),
                    (got.v(), want.v()),
                ] {
                    assert_eq!(
                        bits(x),
                        bits(y),
                        "{policy:?}, append {}",
                        session.trajectory.len()
                    );
                }
                oracle = Some(slid);
            }
            assert_eq!(session.order_trajectory().len(), batches.len());
            assert_eq!(
                session.evicted_pairs() > 0,
                policy != WindowPolicy::Unbounded
            );
            if policy != WindowPolicy::Unbounded {
                assert!(unpinned_window, "{policy:?}: ω₀ never left the pin");
            }
        }
    }

    #[test]
    fn per_pair_weights_demand_matching_growth() {
        let all = workload(8);
        let mut session = FitSession::new(Mfti::new().weights(Weights::PerPair(vec![2, 2, 1, 1])));
        session.append(&all).unwrap();
        assert_eq!(session.pencil_order(), 12);
        // Growing invalidates the fixed-length weight vector.
        let more = workload(12).subset(&[8, 9]).unwrap();
        assert!(session.append(&more).is_err());
    }
}
