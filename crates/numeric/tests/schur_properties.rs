//! Property tests for the Schur decomposition, the eigenvalue
//! iterations and the shifted triangular solver — the kernels behind
//! Schur-form frequency sweeps and pole computation.
//!
//! The headline contracts (ISSUE 3): `Z T Zᴴ` reconstruction residual
//! `≤ 1e-10` on random Hessenberg matrices up to `n = 64`, and
//! batch-style shifted solves agreeing with dense LU `≤ 1e-11` even for
//! ill-conditioned shifts parked right next to eigenvalues.
//!
//! Real input (DESIGN.md §10): the Schur form of a real matrix —
//! reduced to Hessenberg form in `f64`, then iterated in complex — must
//! reconstruct to `1e-12·‖M‖` up to `n = 128` with a unitary `Z` and an
//! exactly triangular `T`, and both its diagonal and the values-only
//! real Francis iteration must reproduce the complex iteration's
//! eigenvalue multiset on the promoted matrix to `1e-12` relative — on
//! random spectra, all-real spectra, repeated conjugate pairs and the
//! zero-eigenvalue cluster of `F⁻¹E` for a singular `E`, and at the
//! small orders `n ∈ {0, 1, 2, 3}`. Their forced non-convergence under
//! an armed iteration cap is tested in `fault_budget.rs`, the binary
//! that keeps process-global caps away from these tests.

use mfti_numeric::{
    c64, eigenvalues, solve, solve_shifted_hessenberg, solve_shifted_triangular, CMatrix, Complex,
    Hessenberg, Lu, Qr, RMatrix, Schur,
};
use proptest::prelude::*;

/// Strategy: random upper-Hessenberg matrix of order `n_range` with
/// entries in `[-1, 1]²` (strictly-lower part exactly zero).
fn hessenberg_matrix(n_range: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = CMatrix> {
    n_range.prop_flat_map(|n| {
        proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n * n).prop_map(move |v| {
            let full = CMatrix::from_vec(n, n, v.into_iter().map(|(re, im)| c64(re, im)).collect())
                .expect("length matches");
            CMatrix::from_fn(n, n, |i, j| {
                if i > j + 1 {
                    Complex::ZERO
                } else {
                    full[(i, j)]
                }
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schur_reconstructs_random_hessenberg_up_to_n64(h in hessenberg_matrix(1..=64)) {
        let n = h.rows();
        let schur = Schur::compute(&h).unwrap();
        // T exactly triangular.
        for i in 0..n {
            for j in 0..i {
                prop_assert_eq!(schur.t()[(i, j)], Complex::ZERO);
            }
        }
        // Z unitary.
        let ztz = schur.z().adjoint().matmul(schur.z()).unwrap();
        prop_assert!(ztz.approx_eq(&CMatrix::identity(n), 1e-11));
        // Q T Qᴴ reconstruction residual ≤ 1e-10 (relative Frobenius).
        let back = schur
            .z()
            .matmul(schur.t())
            .unwrap()
            .mul_adjoint_right(schur.z())
            .unwrap();
        let rel = (&back - &h).norm_fro() / h.norm_fro().max(f64::MIN_POSITIVE);
        prop_assert!(rel <= 1e-10, "reconstruction residual {:.2e} at n = {}", rel, n);
    }

    #[test]
    fn schur_trace_is_preserved(h in hessenberg_matrix(2..=32)) {
        // Similarity invariant: Σ λᵢ (diagonal of T) equals tr(H).
        let schur = Schur::compute(&h).unwrap();
        let sum: Complex = schur.eigenvalues().into_iter().sum();
        let tr = h.trace();
        prop_assert!((sum - tr).abs() <= 1e-9 * tr.abs().max(1.0), "{} vs {}", sum, tr);
    }

    #[test]
    fn shifted_solves_agree_near_eigenvalues(
        h in hessenberg_matrix(4..=24),
        which in 0usize..24,
        offset_exp in -8.0f64..-3.0,
        dir in 0.0f64..std::f64::consts::TAU,
    ) {
        // Ill-conditioned shift: α = −β·(λ + δ) parks α·I + β·H a
        // distance |δ| ≈ 10^offset_exp from exact singularity at the
        // eigenvalue λ. The Schur-form triangular solve, the Hessenberg
        // Givens solve, and dense LU must all agree to ≤ 1e-11 relative
        // error (scaled by the conditioning they all share).
        let n = h.rows();
        let schur = Schur::compute(&h).unwrap();
        let lambda = schur.eigenvalues()[which % n];
        let delta = Complex::from_polar(10f64.powf(offset_exp), dir);
        let beta = c64(1.3, -0.4);
        let alpha = -(beta * (lambda + delta));

        let b = CMatrix::from_fn(n, 2, |i, j| c64(1.0 / (i + j + 1) as f64, 0.25 * i as f64));

        // Dense reference on the original basis.
        let mut dense = h.map(|z| z * beta);
        for i in 0..n {
            dense[(i, i)] += alpha;
        }
        // δ can land close enough to a *cluster* of eigenvalues that
        // even LU calls it singular — nothing to compare then.
        let Ok(want) = solve(&dense, &b) else {
            return Ok(());
        };
        let x_norm = want.norm_fro().max(f64::MIN_POSITIVE);

        // Schur path: solve in the triangular basis, rotate back.
        let bt = schur.z().mul_hermitian_left(&b).unwrap();
        if let Ok(xt) = solve_shifted_triangular(schur.t(), alpha, beta, &bt) {
            let x = schur.z().matmul(&xt).unwrap();
            let resid = (&dense.matmul(&x).unwrap() - &b).norm_fro();
            // Backward stability: the residual scales with ‖A‖·‖x‖ (and
            // ‖x‖ grows like 1/|δ| this close to an eigenvalue); forward
            // agreement with LU reaches 1e-11 once the shared
            // conditioning is factored out.
            let backward_scale = dense.norm_fro() * x.norm_fro() + b.norm_fro();
            prop_assert!(resid <= 1e-11 * n as f64 * backward_scale, "residual {:.2e}", resid);
            let agree = (&x - &want).norm_fro() / x_norm;
            let cond_slack = 10f64.powf(-offset_exp) * f64::EPSILON * 1e3;
            prop_assert!(
                agree <= 1e-11f64.max(cond_slack),
                "schur vs LU deviation {:.2e} (|δ| = 1e{})", agree, offset_exp
            );
        }

        // Hessenberg path on the same shift for cross-validation.
        let hess = Hessenberg::compute(&h).unwrap();
        let bh = hess.q().mul_hermitian_left(&b).unwrap();
        if let Ok(xh) = solve_shifted_hessenberg(hess.h(), alpha, beta, &bh) {
            let x = hess.q().matmul(&xh).unwrap();
            let resid = (&dense.matmul(&x).unwrap() - &b).norm_fro();
            let backward_scale = dense.norm_fro() * x.norm_fro() + b.norm_fro();
            prop_assert!(resid <= 1e-11 * n as f64 * backward_scale);
        }
    }

    #[test]
    fn triangular_solve_matches_lu_on_well_conditioned_shifts(
        h in hessenberg_matrix(2..=32),
        re in 1.0f64..3.0,
        im in -1.0f64..1.0,
    ) {
        // A shift with |α| comfortably above the spectral radius of βH
        // keeps the system well conditioned; agreement must reach 1e-11.
        let n = h.rows();
        let alpha = c64(4.0 + re * n as f64 / 8.0, im);
        let beta = Complex::ONE;
        let schur = Schur::compute(&h).unwrap();
        let b = CMatrix::from_fn(n, 3, |i, j| c64((i + 1) as f64, (j as f64) - 1.0));
        let bt = schur.z().mul_hermitian_left(&b).unwrap();
        let xt = solve_shifted_triangular(schur.t(), alpha, beta, &bt).unwrap();
        let x = schur.z().matmul(&xt).unwrap();

        let mut dense = h.clone();
        for i in 0..n {
            dense[(i, i)] += alpha;
        }
        let want = solve(&dense, &b).unwrap();
        let rel = (&x - &want).norm_fro() / want.norm_fro().max(f64::MIN_POSITIVE);
        prop_assert!(rel <= 1e-11, "deviation {:.2e}", rel);
    }
}

/// Strategy: random dense real matrix of order `n_range`, entries in
/// `[-1, 1]`.
fn real_matrix(n_range: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = RMatrix> {
    n_range.prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * n)
            .prop_map(move |v| RMatrix::from_vec(n, n, v).expect("length matches"))
    })
}

/// Orthogonal similarity `Q D Qᵀ` of `d` by the Q factor of a
/// deterministic dense matrix: keeps `d`'s spectrum (and normality)
/// while filling every entry.
fn orthogonally_mixed(d: &RMatrix, seed: u64) -> RMatrix {
    let n = d.rows();
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    let g = RMatrix::from_fn(n, n, |_, _| next());
    let q = Qr::compute(&g).expect("qr").q_thin();
    q.matmul(d).unwrap().mul_transpose_right(&q).unwrap()
}

/// Checks the real-input Schur form of `m` (reconstruction, unitarity,
/// exact triangularity) and that both it and the values-only real
/// iteration match the complex iteration's eigenvalues on the promoted
/// matrix to `1e-12` relative. Returns the complex iteration's
/// eigenvalues.
fn check_real_input(m: &RMatrix) -> Vec<Complex> {
    let n = m.rows();
    let mc = m.to_complex();
    let schur = Schur::compute(m).expect("real-input schur");
    for i in 0..n {
        for j in 0..i {
            assert_eq!(
                schur.t()[(i, j)],
                Complex::ZERO,
                "T not triangular at ({i}, {j})"
            );
        }
    }
    let ztz = schur.z().adjoint().matmul(schur.z()).unwrap();
    assert!(ztz.approx_eq(&CMatrix::identity(n), 1e-12), "Z not unitary");
    let back = schur
        .z()
        .matmul(schur.t())
        .unwrap()
        .mul_adjoint_right(schur.z())
        .unwrap();
    let scale = mc.norm_fro().max(f64::MIN_POSITIVE);
    let rel = (&back - &mc).norm_fro() / scale;
    assert!(rel <= 1e-12, "reconstruction residual {rel:.2e} at n = {n}");

    let reference = Schur::compute(&mc).expect("complex schur").eigenvalues();
    let lam_scale = reference
        .iter()
        .map(|z| z.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    for (what, ev) in [
        ("schur diagonal", schur.eigenvalues()),
        (
            "values-only francis",
            eigenvalues(m).expect("real eigenvalues"),
        ),
    ] {
        assert_eq!(ev.len(), n, "{what}: eigenvalue count");
        let mut unmatched = reference.clone();
        for z in ev {
            let (idx, dist) = unmatched
                .iter()
                .map(|w| (*w - z).abs())
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("one reference eigenvalue per computed one");
            assert!(
                dist <= 1e-12 * lam_scale,
                "{what}: {z} is {:.2e} (relative) from the complex spectrum",
                dist / lam_scale
            );
            unmatched.swap_remove(idx);
        }
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn real_input_schur_and_eigenvalues_up_to_n128(m in real_matrix(4..=128)) {
        check_real_input(&m);
    }

    #[test]
    fn all_real_spectra_stay_real(
        diag in (2usize..=40).prop_flat_map(|n| proptest::collection::vec(-4.0f64..4.0, n)),
    ) {
        let m = orthogonally_mixed(&RMatrix::from_diag(&diag), 0xa11);
        check_real_input(&m);
        for z in eigenvalues(&m).unwrap() {
            prop_assert!(z.im == 0.0, "symmetric input has a real spectrum, got {}", z);
        }
    }

    #[test]
    fn repeated_conjugate_pairs_are_resolved(
        a in -2.0f64..2.0,
        b in 0.1f64..3.0,
        copies in 2usize..=6,
        extra in -2.0f64..2.0,
    ) {
        // `copies` identical rotation blocks [[a, b], [−b, a]] plus one
        // real eigenvalue, mixed by an orthogonal similarity (normal, so
        // the repeated pair a ± ib stays well conditioned).
        let n = 2 * copies + 1;
        let mut d = RMatrix::zeros(n, n);
        for k in 0..copies {
            d[(2 * k, 2 * k)] = a;
            d[(2 * k, 2 * k + 1)] = b;
            d[(2 * k + 1, 2 * k)] = -b;
            d[(2 * k + 1, 2 * k + 1)] = a;
        }
        d[(n - 1, n - 1)] = extra;
        let m = orthogonally_mixed(&d, 0xc0b);
        let reference = check_real_input(&m);
        let near_pair = reference
            .iter()
            .filter(|z| (z.re - a).abs() < 1e-10 && (z.im.abs() - b).abs() < 1e-10)
            .count();
        prop_assert_eq!(near_pair, 2 * copies);
    }
}

#[test]
fn zero_eigenvalue_cluster_of_a_singular_e_pencil() {
    // E = diag(1, …, 1, 0, 0, 0): M = (σE − A)⁻¹E has a 3-dimensional
    // null space, the infinite poles of the pencil.
    let n = 24;
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    let a = RMatrix::from_fn(n, n, |i, j| if i == j { -3.0 } else { 0.0 } + next());
    let e = RMatrix::from_diag(
        &(0..n)
            .map(|i| if i < n - 3 { 1.0 } else { 0.0 })
            .collect::<Vec<_>>(),
    );
    let sigma = 2.0;
    let f = &e.scale(sigma) - &a;
    let m = Lu::compute(&f).unwrap().solve(&e).unwrap();
    let reference = check_real_input(&m);
    let lam_scale = reference.iter().map(|z| z.abs()).fold(0.0, f64::max);
    for ev in [
        Schur::compute(&m).unwrap().eigenvalues(),
        eigenvalues(&m).unwrap(),
    ] {
        let zeros = ev.iter().filter(|z| z.abs() < 1e-12 * lam_scale).count();
        assert_eq!(
            zeros, 3,
            "the null space of E must show as three zero eigenvalues"
        );
    }
}

#[test]
fn real_input_at_the_smallest_orders() {
    assert!(Schur::compute(&RMatrix::zeros(0, 0))
        .unwrap()
        .eigenvalues()
        .is_empty());
    assert!(eigenvalues(&RMatrix::zeros(0, 0)).unwrap().is_empty());
    let one = RMatrix::from_rows(&[vec![-2.5]]).unwrap();
    let schur = Schur::compute(&one).unwrap();
    assert_eq!(schur.t()[(0, 0)], c64(-2.5, 0.0));
    assert_eq!(schur.z()[(0, 0)], Complex::ONE);
    assert_eq!(eigenvalues(&one).unwrap(), vec![c64(-2.5, 0.0)]);
    for m in [
        // Conjugate pair ±i.
        RMatrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]).unwrap(),
        // Real pair 1, 3.
        RMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap(),
        // Defective (Jordan) pair at 1.
        RMatrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]).unwrap(),
        // One real eigenvalue and a conjugate pair.
        RMatrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-2.0, 1.0, 0.25],
            vec![0.0, 0.75, -1.5],
        ])
        .unwrap(),
        // Three distinct real eigenvalues (companion of (x−1)(x−2)(x−3)).
        RMatrix::from_rows(&[
            vec![6.0, -11.0, 6.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap(),
    ] {
        check_real_input(&m);
    }
}
