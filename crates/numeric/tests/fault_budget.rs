//! Forced non-convergence through the fault-injection iteration caps
//! (the `fault-injection` feature). The caps are process-global, so
//! every test that arms one lives in this binary: armed here, a cap
//! cannot reach the library's unit tests or the property-test binaries,
//! which run in other processes.
#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use mfti_numeric::faults::InjectedFault;
use mfti_numeric::{
    c64, eigenvalues, CMatrix, NumericError, RMatrix, Schur, Svd, SvdFactors, SvdMethod,
};

/// `InjectedFault` serializes only while armed: a test's disarmed
/// checks must not run while a sibling test has a cap armed, so every
/// test here holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pseudo_random(n: usize, mut seed: u64) -> CMatrix {
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    CMatrix::from_fn(n, n, |_, _| c64(next(), next()))
}

/// A complete SVD `a = U diag(s) Vᴴ`: factor shapes, descending
/// non-negative σ, reconstruction to `tol·max(‖A‖, 1)`, orthonormal
/// `U` and `V`.
fn check_svd(a: &CMatrix, u: &CMatrix, s: &[f64], v: &CMatrix, tol: f64) {
    let r = a.rows().min(a.cols());
    assert_eq!(u.dims(), (a.rows(), r));
    assert_eq!(v.dims(), (a.cols(), r));
    assert_eq!(s.len(), r);
    for w in s.windows(2) {
        assert!(w[0] >= w[1] - 1e-12, "not sorted: {s:?}");
    }
    assert!(s.iter().all(|&x| x >= 0.0));
    let us = CMatrix::from_fn(a.rows(), r, |i, j| u[(i, j)].scale(s[j]));
    let err = (&us.matmul(&v.adjoint()).unwrap() - a).norm_fro();
    assert!(
        err <= tol * a.norm_fro().max(1.0),
        "reconstruction error {err}"
    );
    let uhu = u.adjoint().matmul(u).unwrap();
    assert!(
        uhu.approx_eq(&CMatrix::identity(r), 1e-10),
        "U not orthonormal"
    );
    let vhv = v.adjoint().matmul(v).unwrap();
    assert!(
        vhv.approx_eq(&CMatrix::identity(r), 1e-10),
        "V not orthonormal"
    );
}

#[test]
fn capped_qr_forces_no_convergence_and_disarms_on_drop() {
    let _serial = serial();
    let a = pseudo_random(10, 0xfb);
    {
        let _fault = InjectedFault::cap_qr_iterations(1);
        let err = Svd::compute_with(&a, SvdMethod::Blocked);
        assert!(
            matches!(err, Err(NumericError::NoConvergence { .. })),
            "expected forced non-convergence, got {err:?}"
        );
        // Jacobi is untouched by the QR cap — the ladder's last rung.
        assert!(Svd::compute_with(&a, SvdMethod::Jacobi).is_ok());
    }
    assert!(Svd::compute_with(&a, SvdMethod::Blocked).is_ok());
}

#[test]
fn capped_jacobi_forces_no_convergence() {
    let _serial = serial();
    let a = pseudo_random(10, 0xfc);
    let _fault = InjectedFault::cap_jacobi_sweeps(1);
    let err = Svd::compute_with(&a, SvdMethod::Jacobi);
    assert!(matches!(err, Err(NumericError::NoConvergence { .. })));
}

#[test]
fn recovering_svd_degrades_to_jacobi_under_forced_qr_stall() {
    let _serial = serial();
    let a = pseudo_random(10, 1234);
    let _fault = InjectedFault::cap_qr_iterations(1);
    let rec = Svd::compute_recovering(&a, SvdMethod::Blocked, SvdFactors::Both).unwrap();
    assert_eq!(rec.method, SvdMethod::Jacobi);
    assert_eq!(rec.fallbacks.len(), 2);
    assert!(rec.recovered());
    check_svd(&a, &rec.u, &rec.s, &rec.v, 1e-10);
}

#[test]
fn recovering_svd_reports_last_rung_error_when_all_stall() {
    let _serial = serial();
    let a = pseudo_random(10, 4321);
    let _fault = InjectedFault::cap_all_iterations(1);
    let err = Svd::compute_recovering(&a, SvdMethod::Blocked, SvdFactors::Both).unwrap_err();
    assert!(matches!(
        err,
        NumericError::NoConvergence {
            op: "jacobi svd",
            ..
        }
    ));
}

#[test]
fn capped_iterations_force_no_convergence_on_real_input() {
    let _serial = serial();
    let m = RMatrix::from_fn(12, 12, |i, j| {
        ((i * 7 + j * 3) % 11) as f64 - 5.0 + 0.1 * j as f64
    });
    {
        let _fault = InjectedFault::cap_qr_iterations(1);
        // The Schur form of real input iterates in complex; its
        // eigenvalues run the values-only real Francis iteration.
        assert!(matches!(
            Schur::compute(&m),
            Err(NumericError::NoConvergence { op: "schur qr", .. })
        ));
        assert!(matches!(
            eigenvalues(&m),
            Err(NumericError::NoConvergence {
                op: "francis qr",
                ..
            })
        ));
    }
    // Disarmed: both converge again.
    assert!(Schur::compute(&m).is_ok());
    assert!(eigenvalues(&m).is_ok());
}

/// A decomposition declared for one side runs its single QR iteration,
/// the one that also rotates that side's compact factor, when it is
/// computed: a stall fails the decomposition call itself — where the
/// realization stage's recovery ladder catches it — never a later
/// accumulation. The ladder then resumes at Golub–Kahan, which stalls
/// too, and ends at Jacobi with the declared side. Tall, QR-first and
/// wide shapes alike; disarmed, the same calls succeed.
#[test]
fn one_sided_bidiagonalization_stalls_inside_the_decomposition_call() {
    let _serial = serial();
    let square = pseudo_random(40, 0x51de);
    let tall = RMatrix::from_fn(96, 40, |i, j| square[(i % 40, j)].re + 0.01 * i as f64);
    for a in [tall.clone(), tall.adjoint(), square.real_part()] {
        for factors in [SvdFactors::Left, SvdFactors::Right] {
            {
                let _fault = InjectedFault::cap_qr_iterations(1);
                let lazy = Svd::bidiagonalize_owned(a.clone(), factors);
                assert!(
                    matches!(lazy, Err(NumericError::NoConvergence { .. })),
                    "{:?} {factors:?}: {lazy:?}",
                    a.dims()
                );
                let rec = Svd::compute_recovering(&a, SvdMethod::GolubKahan, factors).unwrap();
                assert_eq!(rec.method, SvdMethod::Jacobi);
                let trail: Vec<SvdMethod> = rec.fallbacks.iter().map(|(m, _)| *m).collect();
                assert_eq!(trail, [SvdMethod::GolubKahan]);
                let k = a.rows().min(a.cols());
                assert_eq!(rec.s.len(), k);
            }
            let lazy = Svd::bidiagonalize_owned(a.clone(), factors).unwrap();
            assert!(lazy.accumulate(factors, 5).is_ok());
        }
    }
}
