//! Deterministic fault-injection campaigns for the fitting engines
//! (DESIGN.md §8).
//!
//! The robustness contract of the workspace — no panic escapes a
//! library entry point, every refusal is a typed error, and the
//! determinism invariants survive the error paths — is only credible
//! if something *drives* the failure paths. This crate does that: it
//! injects each failure class of the taxonomy deterministically
//!
//! * **ingestion defects** — NaN/Inf entries, denormal contamination,
//!   duplicated frequencies;
//! * **degenerate problems** — rank-collapsed (constant) sample sets
//!   and near-defective pencils with numerically coincident poles;
//! * **forced breakdowns** — the test-only iteration-budget hooks of
//!   `mfti_numeric::faults` (compiled in through the `fault-injection`
//!   feature) shrink the QR/Jacobi budgets so the recovery ladders'
//!   non-convergent rungs actually run;
//!
//! and fits every faulted workload with all four engines behind
//! `Box<dyn Fitter>`, recording for each run whether it fitted, failed
//! with a typed error, or panicked. A campaign is fully determined by
//! its seed, and its outcome digest (FNV-1a over fault names, engine
//! names, orders, typed-error strings and response bits — never
//! wall-clock times) must be bit-identical at every `MFTI_THREADS`
//! setting; `scripts/verify.sh` pins that with the `fault_smoke`
//! binary at 1 vs 8 workers.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mfti_core::{FitError, FitSession, Fitter, Mfti, RecursiveMfti, Vfti, WindowPolicy};
use mfti_numeric::faults::InjectedFault;
use mfti_numeric::{c64, CMatrix, Complex};
use mfti_sampling::generators::RandomSystemBuilder;
use mfti_sampling::{FrequencyGrid, SampleSet, SamplingError};
use mfti_statespace::{s_at_hz, StateSpaceError};
use mfti_vecfit::VectorFitter;

/// One failure class of the DESIGN.md §8 taxonomy, injected into an
/// otherwise clean seeded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum FaultKind {
    /// No fault: the baseline every engine must fit.
    Clean,
    /// One sample entry replaced by NaN (validated ingestion must
    /// reject it with the entry's coordinates).
    NanEntry,
    /// One sample entry replaced by +∞.
    InfEntry,
    /// Subnormal contamination added to several entries — legal data
    /// that must neither panic nor destroy determinism.
    DenormalEntries,
    /// Two samples share one frequency (duplicate σ).
    DuplicateFrequency,
    /// Every sample matrix identical: the Loewner pencil collapses to
    /// (numerical) rank zero.
    RankCollapse,
    /// Samples of a transfer function with a near-Jordan double pole —
    /// a nearly defective pencil.
    NearDefectivePencil,
    /// The bidiagonal/Schur QR budgets capped at one iteration: the
    /// Blocked and Golub–Kahan rungs break down and recovery must come
    /// from the Jacobi rung (or surface typed non-convergence).
    QrStall,
    /// Every iterative kernel capped at once: no SVD rung can converge
    /// and the whole ladder must fail *typed*.
    LadderExhaustion,
    /// Sliding-window eviction of the pairs carrying the **dominant**
    /// singular direction (their samples are scaled ×10⁶): the downdate
    /// must either track the collapse or refuse with a conditioning
    /// error and re-anchor — never serve garbage (DESIGN.md §9). Driven
    /// through a windowed [`FitSession`], not the one-shot engines.
    EvictDominantDirection,
    /// After eviction the surviving window is rank-collapsed (every
    /// remaining sample matrix identical): order detection on the
    /// windowed signal must degrade typed, not panic.
    RankCollapseOnEvict,
    /// A storm of near-coincident frequencies and near-identical sample
    /// matrices streamed through a tiny window: every append downdates
    /// under heavy cancellation.
    DowndateCancellationStorm,
    /// A forced re-anchor (always-firing drift threshold) while every
    /// iterative kernel is capped at one sweep: the re-anchor ladder —
    /// fresh blocked, then Golub–Kahan — exhausts and the windowed
    /// append must fail *typed and transactionally*.
    GateFailureExhaustion,
}

impl FaultKind {
    /// Every fault class, in campaign order.
    pub const ALL: [FaultKind; 13] = [
        FaultKind::Clean,
        FaultKind::NanEntry,
        FaultKind::InfEntry,
        FaultKind::DenormalEntries,
        FaultKind::DuplicateFrequency,
        FaultKind::RankCollapse,
        FaultKind::NearDefectivePencil,
        FaultKind::QrStall,
        FaultKind::LadderExhaustion,
        FaultKind::EvictDominantDirection,
        FaultKind::RankCollapseOnEvict,
        FaultKind::DowndateCancellationStorm,
        FaultKind::GateFailureExhaustion,
    ];

    /// Stable name used in reports and digests.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Clean => "clean",
            FaultKind::NanEntry => "nan-entry",
            FaultKind::InfEntry => "inf-entry",
            FaultKind::DenormalEntries => "denormal-entries",
            FaultKind::DuplicateFrequency => "duplicate-frequency",
            FaultKind::RankCollapse => "rank-collapse",
            FaultKind::NearDefectivePencil => "near-defective-pencil",
            FaultKind::QrStall => "qr-stall",
            FaultKind::LadderExhaustion => "ladder-exhaustion",
            FaultKind::EvictDominantDirection => "evict-dominant-direction",
            FaultKind::RankCollapseOnEvict => "rank-collapse-on-evict",
            FaultKind::DowndateCancellationStorm => "downdate-cancellation-storm",
            FaultKind::GateFailureExhaustion => "gate-failure-exhaustion",
        }
    }

    /// Whether this class targets the sliding-window eviction machinery
    /// (driven through one windowed [`FitSession`] instead of the four
    /// one-shot engines).
    pub fn is_window_fault(self) -> bool {
        matches!(
            self,
            FaultKind::EvictDominantDirection
                | FaultKind::RankCollapseOnEvict
                | FaultKind::DowndateCancellationStorm
                | FaultKind::GateFailureExhaustion
        )
    }
}

/// What one engine did with one faulted workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The fit succeeded with this detected order.
    Fitted {
        /// Realized model order.
        order: usize,
    },
    /// The fit refused with a typed [`FitError`] — the contract for
    /// every injected defect.
    TypedError {
        /// The error's `Display` rendering (deterministic, digested).
        message: String,
    },
    /// A panic crossed the `fit` boundary — always a campaign failure.
    Panicked,
}

/// One (fault, engine) campaign cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// The injected failure class.
    pub fault: FaultKind,
    /// The engine's [`Fitter::name`].
    pub engine: &'static str,
    /// What happened.
    pub outcome: RunOutcome,
}

/// Aggregate result of [`run_campaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// The seed that fully determines the campaign.
    pub seed: u64,
    /// One record per (fault, engine) cell, in campaign order.
    pub records: Vec<RunRecord>,
    /// FNV-1a digest over every record (and the response bits of every
    /// fitted model) — thread-invariant by the determinism contract.
    pub digest: u64,
}

impl CampaignReport {
    /// Number of runs that crossed the boundary as a panic.
    pub fn panics(&self) -> usize {
        self.count(|o| matches!(o, RunOutcome::Panicked))
    }

    /// Number of runs refused with a typed error.
    pub fn typed_errors(&self) -> usize {
        self.count(|o| matches!(o, RunOutcome::TypedError { .. }))
    }

    /// Number of runs that produced a model.
    pub fn fitted(&self) -> usize {
        self.count(|o| matches!(o, RunOutcome::Fitted { .. }))
    }

    /// The records of one fault class.
    pub fn of_fault(&self, fault: FaultKind) -> Vec<&RunRecord> {
        self.records.iter().filter(|r| r.fault == fault).collect()
    }

    fn count(&self, pred: impl Fn(&RunOutcome) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.outcome)).count()
    }
}

/// A campaign could not even construct its workloads (distinct from a
/// fit refusing a faulted workload, which is a [`RunOutcome`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// Seeded sample generation failed.
    Sampling(SamplingError),
    /// Seeded system generation failed.
    StateSpace(StateSpaceError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sampling(e) => write!(f, "campaign workload generation failed: {e}"),
            CampaignError::StateSpace(e) => write!(f, "campaign system generation failed: {e}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Sampling(e) => Some(e),
            CampaignError::StateSpace(e) => Some(e),
        }
    }
}

impl From<SamplingError> for CampaignError {
    fn from(e: SamplingError) -> Self {
        CampaignError::Sampling(e)
    }
}

impl From<StateSpaceError> for CampaignError {
    fn from(e: StateSpaceError) -> Self {
        CampaignError::StateSpace(e)
    }
}

/// SplitMix64: tiny, deterministic, and good enough to pick fault
/// coordinates (the workload itself comes from the seeded generators).
#[derive(Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// FNV-1a, matching the digest idiom of the verify smokes.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bits(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.byte(b);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }
}

/// The clean seeded workload every fault perturbs: an order-10 2-port
/// system sampled at 14 log-spaced points — small enough that a full
/// campaign (9 faults × 4 engines) stays in smoke-test territory.
fn base_samples(seed: u64) -> Result<SampleSet, CampaignError> {
    let sys = RandomSystemBuilder::new(10, 2, 2)
        .d_rank(2)
        .seed(seed)
        .build()?;
    let grid = FrequencyGrid::log_space(1e3, 1e6, 14)?;
    Ok(SampleSet::from_system(&sys, &grid)?)
}

/// Samples of `H(s) = R/(s−p) + N/(s−p)² + D` — a Jordan-block double
/// pole, the nearly defective pencil of the taxonomy.
fn near_defective_samples(freqs: &[f64]) -> Result<SampleSet, CampaignError> {
    let p = c64(-2.0e4, 2.0e5);
    let mats = freqs
        .iter()
        .map(|&f| {
            let s: Complex = s_at_hz(f);
            let lin = (s - p).recip();
            let quad = lin * lin;
            CMatrix::from_fn(2, 2, |i, j| {
                let r = c64(1.0 + i as f64 + j as f64, 0.3 * (i as f64 - j as f64));
                let n = c64(0.5 * (1 + i + j) as f64, 0.1);
                let d = c64(if i == j { 0.25 } else { 0.05 }, 0.0);
                r * lin + n * quad + d
            })
        })
        .collect();
    Ok(SampleSet::from_parts(freqs.to_vec(), mats)?)
}

/// Applies `kind` to the clean workload. The iteration-cap faults
/// leave the data untouched (they arm kernel hooks instead; see
/// [`run_campaign`]).
fn inject(
    kind: FaultKind,
    base: &SampleSet,
    rng: &mut SplitMix,
) -> Result<SampleSet, CampaignError> {
    let freqs = base.freqs_hz().to_vec();
    let mut mats: Vec<CMatrix> = base.matrices().to_vec();
    let k = base.len();
    let (p, m) = mats[0].dims();
    match kind {
        // Window fault classes never reach `inject` with their own
        // defects: the campaign drives them through `window_batches`
        // instead, so the sample data itself passes through clean.
        FaultKind::Clean
        | FaultKind::QrStall
        | FaultKind::LadderExhaustion
        | FaultKind::EvictDominantDirection
        | FaultKind::RankCollapseOnEvict
        | FaultKind::DowndateCancellationStorm
        | FaultKind::GateFailureExhaustion => Ok(base.clone()),
        FaultKind::NanEntry => {
            mats[rng.below(k)][(rng.below(p), rng.below(m))] = c64(f64::NAN, 0.0);
            Ok(SampleSet::from_parts(freqs, mats)?)
        }
        FaultKind::InfEntry => {
            mats[rng.below(k)][(rng.below(p), rng.below(m))] = c64(0.0, f64::INFINITY);
            Ok(SampleSet::from_parts(freqs, mats)?)
        }
        FaultKind::DenormalEntries => {
            for _ in 0..4 {
                let sub = f64::from_bits(1 + (rng.next_u64() & 0xffff));
                let entry = &mut mats[rng.below(k)][(rng.below(p), rng.below(m))];
                *entry += c64(sub, -sub);
            }
            Ok(SampleSet::from_parts(freqs, mats)?)
        }
        FaultKind::DuplicateFrequency => {
            let mut dup_freqs = freqs;
            let src = rng.below(k - 1);
            dup_freqs[src + 1] = dup_freqs[src];
            Ok(SampleSet::from_parts(dup_freqs, mats)?)
        }
        FaultKind::RankCollapse => {
            let constant = mats[0].clone();
            Ok(SampleSet::from_parts(freqs, vec![constant; k])?)
        }
        FaultKind::NearDefectivePencil => near_defective_samples(&freqs),
    }
}

/// Builds the batch stream of a window fault class from the clean
/// workload: a 4-sample opening batch (band edges first, setting the
/// normalization) followed by 2-sample appends — sized so the sliding
/// window evicts several times over the drive.
fn window_batches(kind: FaultKind, base: &SampleSet) -> Result<Vec<SampleSet>, CampaignError> {
    let scale_mats = |mats: &[CMatrix], s: f64| -> Vec<CMatrix> {
        mats.iter()
            .map(|m| {
                let mut out = m.clone();
                for z in out.as_mut_slice() {
                    *z *= c64(s, 0.0);
                }
                out
            })
            .collect()
    };
    let subset = |idx: &[usize]| -> Result<SampleSet, CampaignError> {
        let freqs: Vec<f64> = idx.iter().map(|&i| base.freqs_hz()[i]).collect();
        let mats: Vec<CMatrix> = idx.iter().map(|&i| base.matrices()[i].clone()).collect();
        Ok(SampleSet::from_parts(freqs, mats)?)
    };
    let k = base.len();
    let mut order: Vec<usize> = vec![0, k - 1];
    order.extend(1..k - 1);
    match kind {
        FaultKind::EvictDominantDirection => {
            // The opening pairs dominate the spectrum by six decades;
            // their eviction deletes the dominant singular direction.
            let head = subset(&order[..4])?;
            let loud =
                SampleSet::from_parts(head.freqs_hz().to_vec(), scale_mats(head.matrices(), 1e6))?;
            let mut batches = vec![loud];
            for pair in order[4..].chunks(2) {
                batches.push(subset(pair)?);
            }
            Ok(batches)
        }
        FaultKind::RankCollapseOnEvict => {
            // Informative opening pairs, constant tail: once the window
            // slides past the opening, it holds a rank-collapsed set.
            let mut batches = vec![subset(&order[..4])?];
            let constant = base.matrices()[0].clone();
            for pair in order[4..].chunks(2) {
                let freqs: Vec<f64> = pair.iter().map(|&i| base.freqs_hz()[i]).collect();
                batches.push(SampleSet::from_parts(
                    freqs,
                    vec![constant.clone(); pair.len()],
                )?);
            }
            Ok(batches)
        }
        FaultKind::DowndateCancellationStorm => {
            // Near-coincident frequencies with near-identical matrices:
            // the divided differences are enormous and nearly cancel,
            // and a tiny window downdates through the storm.
            let f0 = base.freqs_hz()[0];
            let m0 = base.matrices()[0].clone();
            let batches = (0..6)
                .map(|b| {
                    let mk = |i: usize| {
                        let jitter = 1.0 + (2 * b + i) as f64 * 1e-9;
                        let mut m = m0.clone();
                        for z in m.as_mut_slice() {
                            *z *= c64(1.0 + (2 * b + i) as f64 * 1e-12, 0.0);
                        }
                        (f0 * jitter, m)
                    };
                    let (fa, ma) = mk(1);
                    let (fb, mb) = mk(2);
                    Ok(SampleSet::from_parts(vec![fa, fb], vec![ma, mb])?)
                })
                .collect::<Result<Vec<_>, CampaignError>>()?;
            Ok(batches)
        }
        FaultKind::GateFailureExhaustion => {
            let mut batches = vec![subset(&order[..4])?];
            for pair in order[4..].chunks(2) {
                batches.push(subset(pair)?);
            }
            Ok(batches)
        }
        _ => unreachable!("not a window fault"),
    }
}

/// Drives one window fault class through a sliding-window
/// [`FitSession`], returning the outcome plus (for a fitted drive) the
/// final model's probe-response bits for the digest.
fn drive_window_fault(
    kind: FaultKind,
    batches: &[SampleSet],
    probes: &[f64],
) -> (RunOutcome, Vec<u64>) {
    let capacity = match kind {
        FaultKind::DowndateCancellationStorm => 8,
        _ => 16,
    };
    let mut session = FitSession::new(Mfti::new()).window(WindowPolicy::Sliding { capacity });
    if kind == FaultKind::GateFailureExhaustion {
        // Every advance is quarantined; the ladder must produce (or
        // typed-fail) a replacement on each append.
        session = session.refresh_threshold(-1.0);
    }
    let mut guard = None;
    for (i, batch) in batches.iter().enumerate() {
        if kind == FaultKind::GateFailureExhaustion && i == 2 {
            // Arm the total iteration cap only once the updater exists:
            // the quarantined advance now finds every ladder rung dead.
            guard = Some(InjectedFault::cap_all_iterations(1));
        }
        if let Err(e) = session.append(batch) {
            drop(guard);
            return (
                RunOutcome::TypedError {
                    message: classify(&e),
                },
                Vec::new(),
            );
        }
    }
    drop(guard);
    match session.realize() {
        Ok(fit) => {
            let mut bits = Vec::new();
            match fit.macromodel().response_batch_hz(probes) {
                Ok(resp) => {
                    for mat in &resp {
                        for z in mat.iter() {
                            bits.push(z.re.to_bits());
                            bits.push(z.im.to_bits());
                        }
                    }
                }
                Err(e) => {
                    for b in e.to_string().into_bytes() {
                        bits.push(u64::from(b));
                    }
                }
            }
            (RunOutcome::Fitted { order: fit.order() }, bits)
        }
        Err(e) => (
            RunOutcome::TypedError {
                message: classify(&e),
            },
            Vec::new(),
        ),
    }
}

/// The four engines of the workspace behind the object-safe trait.
fn engines() -> Vec<Box<dyn Fitter>> {
    vec![
        Box::new(Mfti::new()),
        Box::new(Vfti::new()),
        Box::new(RecursiveMfti::new()),
        Box::new(VectorFitter::new(10)),
    ]
}

/// Runs the full campaign: every [`FaultKind`] through every engine,
/// each fit wrapped in `catch_unwind` so a panic is *recorded* (and
/// fails the caller's assertion) rather than aborting the harness.
///
/// Everything — workload, fault coordinates, hook caps — derives from
/// `seed`, and nothing time- or thread-dependent enters the digest, so
/// two runs with one seed are bit-identical regardless of
/// `MFTI_THREADS`.
///
/// # Errors
///
/// [`CampaignError`] when the seeded workload generation itself fails
/// (individual fit failures are [`RunRecord`]s, not errors).
pub fn run_campaign(seed: u64) -> Result<CampaignReport, CampaignError> {
    let base = base_samples(seed)?;
    let probes: Vec<f64> = {
        let f = base.freqs_hz();
        vec![f[0], f[f.len() / 2], f[f.len() - 1]]
    };
    let mut rng = SplitMix(seed);
    let mut records = Vec::new();
    let mut fnv = Fnv::new();
    for kind in FaultKind::ALL {
        if kind.is_window_fault() {
            // Eviction fault classes run through one sliding-window
            // session (the machinery under attack), one record each.
            let batches = window_batches(kind, &base)?;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                drive_window_fault(kind, &batches, &probes)
            }));
            fnv.text(kind.as_str());
            fnv.text("mfti-session-window");
            let outcome = match caught {
                Ok((outcome, bits)) => {
                    match &outcome {
                        RunOutcome::Fitted { order } => {
                            fnv.bits(1);
                            fnv.bits(*order as u64);
                            for b in bits {
                                fnv.bits(b);
                            }
                        }
                        RunOutcome::TypedError { message } => {
                            fnv.bits(2);
                            fnv.text(message);
                        }
                        RunOutcome::Panicked => fnv.bits(3),
                    }
                    outcome
                }
                Err(_) => {
                    fnv.bits(3);
                    RunOutcome::Panicked
                }
            };
            records.push(RunRecord {
                fault: kind,
                engine: "mfti-session-window",
                outcome,
            });
            continue;
        }
        let samples = inject(kind, &base, &mut rng)?;
        for fitter in engines() {
            let guard = match kind {
                FaultKind::QrStall => Some(InjectedFault::cap_qr_iterations(1)),
                FaultKind::LadderExhaustion => Some(InjectedFault::cap_all_iterations(1)),
                _ => None,
            };
            let caught = catch_unwind(AssertUnwindSafe(|| fitter.fit(&samples)));
            drop(guard);
            fnv.text(kind.as_str());
            fnv.text(fitter.name());
            let outcome = match caught {
                Ok(Ok(fit)) => {
                    fnv.bits(1);
                    fnv.bits(fit.order() as u64);
                    // Response bits make the digest sensitive to the
                    // actual model, not just its order. An evaluation
                    // refusal is digested as text — still typed, still
                    // deterministic.
                    match fit.macromodel().response_batch_hz(&probes) {
                        Ok(resp) => {
                            for mat in &resp {
                                for z in mat.iter() {
                                    fnv.bits(z.re.to_bits());
                                    fnv.bits(z.im.to_bits());
                                }
                            }
                        }
                        Err(e) => fnv.text(&e.to_string()),
                    }
                    RunOutcome::Fitted { order: fit.order() }
                }
                Ok(Err(e)) => {
                    let message = classify(&e);
                    fnv.bits(2);
                    fnv.text(&message);
                    RunOutcome::TypedError { message }
                }
                Err(_) => {
                    fnv.bits(3);
                    RunOutcome::Panicked
                }
            };
            records.push(RunRecord {
                fault: kind,
                engine: fitter.name(),
                outcome,
            });
        }
    }
    Ok(CampaignReport {
        seed,
        records,
        digest: fnv.0,
    })
}

/// Stable one-line rendering of a typed refusal: the variant path plus
/// the error's own `Display` (which pins defect coordinates).
fn classify(e: &FitError) -> String {
    let class = match e {
        FitError::Invalid(_) => "invalid",
        FitError::Mfti(_) => "mfti",
        FitError::VecFit(_) => "vecfit",
        FitError::StateSpace(_) => "statespace",
        FitError::Session { .. } => "session",
        _ => "other",
    };
    format!("{class}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The iteration caps are process-global: a test's unarmed phases
    /// (clean fits, the append after a fault is lifted) must not run
    /// while a sibling test has them armed, so every test here holds
    /// this lock for its whole body.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Expected campaign size: four engines per one-shot fault class,
    /// one windowed-session record per eviction fault class.
    fn expected_records() -> usize {
        FaultKind::ALL
            .iter()
            .map(|k| if k.is_window_fault() { 1 } else { 4 })
            .sum()
    }

    #[test]
    fn campaign_is_panic_free_and_typed() {
        let _serial = serial();
        let report = run_campaign(0x5107_fa17).unwrap();
        assert_eq!(report.records.len(), expected_records());
        assert_eq!(report.panics(), 0, "panic crossed a fit boundary");
        // The clean baseline fits on every engine…
        for r in report.of_fault(FaultKind::Clean) {
            assert!(
                matches!(r.outcome, RunOutcome::Fitted { .. }),
                "{} failed the clean baseline: {:?}",
                r.engine,
                r.outcome
            );
        }
        // …and every non-finite or duplicated workload is refused with
        // the boundary-level ingestion variant.
        for kind in [
            FaultKind::NanEntry,
            FaultKind::InfEntry,
            FaultKind::DuplicateFrequency,
        ] {
            for r in report.of_fault(kind) {
                match &r.outcome {
                    RunOutcome::TypedError { message } => assert!(
                        message.starts_with("invalid:"),
                        "{} under {:?}: expected ingestion refusal, got {message}",
                        r.engine,
                        kind
                    ),
                    other => panic!(
                        "{} under {kind:?}: expected refusal, got {other:?}",
                        r.engine
                    ),
                }
            }
        }
    }

    #[test]
    fn eviction_faults_resolve_without_panic() {
        let _serial = serial();
        let report = run_campaign(0x5107_fa17).unwrap();
        for kind in FaultKind::ALL.into_iter().filter(|k| k.is_window_fault()) {
            let cells = report.of_fault(kind);
            assert_eq!(cells.len(), 1, "{kind:?} must run once through the window");
            let r = cells[0];
            assert_eq!(r.engine, "mfti-session-window");
            assert!(
                !matches!(r.outcome, RunOutcome::Panicked),
                "{kind:?} panicked through the windowed session"
            );
        }
        // The exhausted ladder is a refusal, never a model served off a
        // quarantined factorization.
        match &report.of_fault(FaultKind::GateFailureExhaustion)[0].outcome {
            RunOutcome::TypedError { message } => {
                assert!(message.starts_with("mfti:"), "unexpected class: {message}")
            }
            other => panic!("exhausted ladder must refuse, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_ladder_leaves_the_session_serviceable() {
        let _serial = serial();
        // Transactionality under total exhaustion: the failing windowed
        // append must leave the previous generation fully intact — the
        // quarantined candidate never replaces it, and the session still
        // realizes from the last committed factorization.
        let base = base_samples(0x5107_fa17).unwrap();
        let batches = window_batches(FaultKind::GateFailureExhaustion, &base).unwrap();
        let mut session = FitSession::new(Mfti::new())
            .window(WindowPolicy::Sliding { capacity: 16 })
            .refresh_threshold(-1.0);
        session.append(&batches[0]).unwrap();
        session.append(&batches[1]).unwrap();
        let k = session.pencil_order();
        let sv = session.singular_values().unwrap().to_vec();
        {
            let _cap = InjectedFault::cap_all_iterations(1);
            assert!(session.append(&batches[2]).is_err(), "ladder must exhaust");
        }
        assert_eq!(session.pencil_order(), k);
        assert_eq!(session.singular_values().unwrap(), &sv[..]);
        assert!(session.realize().is_ok());
        // And with the cap lifted the same append goes through.
        session.append(&batches[2]).unwrap();
    }

    #[test]
    fn ladder_exhaustion_is_typed_never_fatal() {
        let _serial = serial();
        let report = run_campaign(0x0bad_cafe).unwrap();
        assert_eq!(report.panics(), 0);
        for r in report.of_fault(FaultKind::LadderExhaustion) {
            assert!(
                !matches!(r.outcome, RunOutcome::Panicked),
                "{} panicked under total iteration exhaustion",
                r.engine
            );
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let _serial = serial();
        let a = run_campaign(7).unwrap();
        let b = run_campaign(7).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.records, b.records);
        let c = run_campaign(8).unwrap();
        assert_ne!(a.digest, c.digest, "digest ignores the seed");
    }
}
