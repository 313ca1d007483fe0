//! Test-only fault-injection hooks (the `fault-injection` feature).
//!
//! The iterative kernels — the bidiagonal-QR sweep behind the Blocked
//! and Golub–Kahan SVD backends, the Schur/eigenvalue QR iterations,
//! and the one-sided Jacobi sweep — all carry generous iteration
//! budgets whose `NumericError::NoConvergence` exits are essentially
//! unreachable on real data. That makes the breakdown-recovery ladders
//! built on top of them untestable from the outside. This module gives
//! the fault harness (`mfti-faults`) a deterministic way to shrink
//! those budgets and *force* the non-convergent paths.
//!
//! Design constraints (DESIGN.md §8):
//!
//! * **Pass-through by default.** Cargo feature unification switches
//!   `fault-injection` on workspace-wide whenever `mfti-faults` is in
//!   the build graph, so an unarmed hook must change nothing: the cap
//!   statics start at 0 (= unlimited) and the kernels fall back to
//!   their intrinsic budgets.
//! * **Deterministic and thread-uniform.** A cap is a process-global
//!   that applies identically to every thread, so 1-thread and
//!   8-thread runs of a capped kernel fail (or converge) identically.
//! * **Exclusive while armed.** [`InjectedFault`] holds a global mutex
//!   for its lifetime, serializing concurrent test threads so one
//!   test's fault cannot leak into another's kernels.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// 0 means "unarmed": the kernel uses its intrinsic budget.
static QR_ITERATION_CAP: AtomicUsize = AtomicUsize::new(0);
static JACOBI_SWEEP_CAP: AtomicUsize = AtomicUsize::new(0);
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard arming one or more iteration-budget caps; dropping it
/// disarms every hook. Holding it serializes fault injection across
/// threads (see the module docs).
#[derive(Debug)]
pub struct InjectedFault {
    _exclusive: MutexGuard<'static, ()>,
}

impl InjectedFault {
    fn armed() -> Self {
        // A panic while armed poisons the lock but leaves the caps in a
        // defined state (Drop ran); recover the guard and continue.
        let guard = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        InjectedFault { _exclusive: guard }
    }

    /// Caps the implicit-shift QR iterations (bidiagonal-QR, Schur and
    /// eigenvalue sweeps) at `cap` (≥ 1), forcing
    /// `NumericError::NoConvergence` on any matrix that needs more.
    #[must_use]
    pub fn cap_qr_iterations(cap: usize) -> Self {
        let fault = Self::armed();
        QR_ITERATION_CAP.store(cap.max(1), Ordering::SeqCst);
        fault
    }

    /// Caps the one-sided Jacobi SVD at `cap` (≥ 1) sweeps.
    #[must_use]
    pub fn cap_jacobi_sweeps(cap: usize) -> Self {
        let fault = Self::armed();
        JACOBI_SWEEP_CAP.store(cap.max(1), Ordering::SeqCst);
        fault
    }

    /// Caps every iterative kernel at once — QR iterations *and* Jacobi
    /// sweeps — so no SVD backend on the recovery ladder can converge.
    #[must_use]
    pub fn cap_all_iterations(cap: usize) -> Self {
        let fault = Self::armed();
        QR_ITERATION_CAP.store(cap.max(1), Ordering::SeqCst);
        JACOBI_SWEEP_CAP.store(cap.max(1), Ordering::SeqCst);
        fault
    }
}

impl Drop for InjectedFault {
    fn drop(&mut self) {
        QR_ITERATION_CAP.store(0, Ordering::SeqCst);
        JACOBI_SWEEP_CAP.store(0, Ordering::SeqCst);
    }
}

pub(crate) fn qr_iteration_cap() -> Option<usize> {
    match QR_ITERATION_CAP.load(Ordering::SeqCst) {
        0 => None,
        cap => Some(cap),
    }
}

pub(crate) fn jacobi_sweep_cap() -> Option<usize> {
    match JACOBI_SWEEP_CAP.load(Ordering::SeqCst) {
        0 => None,
        cap => Some(cap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CMatrix;
    use crate::svd::Svd;

    fn pseudo_random(n: usize, mut seed: u64) -> CMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(n, n, |_, _| crate::c64(next(), next()))
    }

    #[test]
    fn unarmed_hooks_pass_through() {
        // Hold the hook lock so no sibling test arms a cap meanwhile.
        let _unarmed = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(qr_iteration_cap(), None);
        assert_eq!(jacobi_sweep_cap(), None);
        let a = pseudo_random(8, 0xfa);
        assert!(Svd::compute(&a).is_ok());
    }
}
