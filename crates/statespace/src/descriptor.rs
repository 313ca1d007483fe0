use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use mfti_numeric::kernel::{self, SplitOperand};
use mfti_numeric::{
    c64, generalized_eigenvalues, parallel, solve_shifted_hessenberg, solve_shifted_triangular,
    triangular_right_eigenvectors, CMatrix, Complex, Hessenberg, Lu, Matrix, NumericError, RMatrix,
    Scalar, Schur, ShiftedTriangular, SHIFT_BLOCK,
};

use crate::error::StateSpaceError;
use crate::macromodel::Macromodel;
use crate::transfer::TransferFunction;

/// Below this sweep length the one-time reduction (`≈ 4 n³` flops for
/// Hessenberg, more for Schur) does not amortize over the points and
/// [`Macromodel::eval_batch`] falls back to the per-point loop.
const SWEEP_MIN_POINTS: usize = 8;
/// Below this order the per-point LU is already cheap; the sweep path
/// only pays off once `O(n³)` visibly dominates `O(n²)`.
const SWEEP_MIN_ORDER: usize = 12;
/// Below this many points the Schur QR iteration (an extra `≈ 10 n³`
/// over the plain Hessenberg reduction) cannot amortize and
/// [`SweepStrategy::Auto`] stays on the Hessenberg path.
const SCHUR_MIN_POINTS: usize = 12;

/// `true` when upgrading a sweep group's kernel from Hessenberg to Schur
/// form pays for its extra QR iteration: the per-point saving is the
/// Givens triangularization (`O(n²)` with a healthy constant), so the
/// sweep must be a decent multiple of the order.
fn schur_amortizes(order: usize, points: usize) -> bool {
    points >= SCHUR_MIN_POINTS && 4 * points >= order
}

/// Which per-frequency kernel [`Macromodel::eval_batch`] uses for a
/// descriptor sweep. The default everywhere is [`SweepStrategy::Auto`];
/// the forced variants exist for benchmarks, tests and callers that know
/// their workload shape better than the built-in heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SweepStrategy {
    /// Heuristic selection: per-point LU for short/small sweeps, one
    /// shared Hessenberg reduction for medium ones, and a full Schur
    /// form once the sweep length amortizes the QR iteration. Groups
    /// are set up from the highest magnitude down, and a modal
    /// evaluator serves the group below it when that group's gate
    /// accepts it (DESIGN.md §10).
    #[default]
    Auto,
    /// Force the per-point `O(n³)` LU loop (no shared factorization).
    PointwiseLu,
    /// Force the one-time Hessenberg reduction with a per-point Givens
    /// triangularization (the PR 2 sweep kernel).
    Hessenberg,
    /// Force the one-time complex Schur form; each point is a pure
    /// triangular back-substitution. Falls back to Hessenberg if the QR
    /// iteration fails to converge (pathological).
    Schur,
}

/// Points per chunk of a worker's block: the Schur and modal kernels
/// evaluate one chunk at a time, so a sweep's buffers beyond its
/// returned responses stay the size of one chunk per worker, however
/// long the grid. A multiple of the solver's shift block, so every
/// solve block but a chunk's last is full (DESIGN.md §11).
const SWEEP_CHUNK: usize = 4 * SHIFT_BLOCK;

/// The shared factorization a sweep group's per-point solves run
/// against, with the output map in the form its products read.
enum SweepKernel {
    /// `F⁻¹E = Q Hₘ Qᴴ`: each point pays one Givens triangularization
    /// of `I + (s−s₀)Hₘ` plus back-substitution, then `C̃·X`.
    Hessenberg { hm: CMatrix, ct: CMatrix },
    /// `F⁻¹E = Z Tₘ Zᴴ` with `Tₘ` upper triangular, prepared once for
    /// multi-shift back-substitution (no per-point factorization work),
    /// and `C̃` split once as the left operand of every chunk's
    /// `C̃·[X₁ … X_k]`.
    Schur {
        tri: ShiftedTriangular,
        ct: SplitOperand,
    },
    /// Diagonalized refinement of the Schur form: when `Tₘ`'s
    /// eigenvector basis `V` is well-enough conditioned (validated by
    /// probe points against the back-substitution path at build time),
    /// the evaluator collapses to the common-pole pole–residue form
    /// `H(s) = Σᵢ Rᵢ/(1 + t·λᵢ) + D` with rank-1 residues
    /// `Rᵢ = (C̃V)ᵢ·(V⁻¹B̃)ᵢ` — a chunk of points is then one
    /// `weights × residues` GEMM. Fields: eigenvalues `λ`, their
    /// magnitude scale (for the pole cut), and the `n × p·m` residue
    /// matrix (row `i` = `vec(Rᵢ)`), split once as the right operand.
    Modal {
        lambda: Vec<Complex>,
        lam_scale: f64,
        residues: SplitOperand,
    },
}

/// Frequency-sweep evaluator: the shift-inverted pencil reduced to
/// Hessenberg or Schur form, with the input/output maps rotated into the
/// same basis. For a shift `s₀` with `F = s₀E − A` regular,
///
/// ```text
/// sE − A = F·(I + (s − s₀)·F⁻¹E)   ⇒
/// H(s)   = (CU)·(I + (s − s₀)·M)⁻¹·(Uᴴ F⁻¹B) + D
/// ```
///
/// where `F⁻¹E = U M Uᴴ` with `M` Hessenberg (`U = Q`) or upper
/// triangular (`U = Z`, the Schur basis). Each frequency then costs
/// `O(n²)` — with triangular-solve constants on the Schur path — instead
/// of an `O(n³)` LU factorization.
struct SweepEvaluator {
    s0: Complex,
    /// The magnitude scale the shift was chosen for: that of the group
    /// whose own reduction built this evaluator, however many lower
    /// groups it serves.
    sigma: f64,
    kernel: SweepKernel,
    bt: CMatrix,
    d: CMatrix,
}

impl SweepEvaluator {
    fn is_modal(&self) -> bool {
        matches!(self.kernel, SweepKernel::Modal { .. })
    }

    /// `true` when this modal evaluator may serve a lower magnitude
    /// group in place of that group's own set-up (DESIGN.md §10): it
    /// reproduces `own`, the group's Hessenberg kernel, within the modal
    /// gate's bound at the gate's probes scaled to the group's `sigma`
    /// (lowest magnitude first), then at its own resonances inside the
    /// group's span ([`resonance_probes`]). Stops at the first probe
    /// that disagrees.
    fn serves(&self, own: &SweepEvaluator, sigma: f64) -> bool {
        let SweepKernel::Modal { lambda, .. } = &self.kernel else {
            return false;
        };
        gate_probes(sigma)
            .into_iter()
            .chain(resonance_probes(lambda, self.s0, sigma))
            .all(|z| match (self.eval(z), own.eval(z)) {
                (Ok(h), Ok(want)) => within_gate(&h, &want),
                _ => false,
            })
    }

    /// One point: a chunk of one, so a point's bits never depend on the
    /// chunk it is swept in.
    fn eval(&self, s: Complex) -> Result<CMatrix, StateSpaceError> {
        self.responses(&[s])
            .and_then(|h| {
                h.into_iter().next().ok_or(NumericError::InvalidArgument {
                    what: "one-point sweep produced no response",
                })
            })
            .map_err(|e| match e {
                NumericError::Singular { .. } => {
                    StateSpaceError::EvaluationAtPole { re: s.re, im: s.im }
                }
                e => e.into(),
            })
    }

    /// One chunk of a worker's block, per point: batched when no point
    /// of the chunk hits a pole, else point by point, which attributes
    /// the failure to its point and evaluates the rest with the same
    /// bits.
    fn eval_chunk(&self, pts: &[Complex]) -> Vec<Result<CMatrix, StateSpaceError>> {
        match self.responses(pts) {
            Ok(hs) => hs.into_iter().map(Ok).collect(),
            Err(_) => pts.iter().map(|&s| self.eval(s)).collect(),
        }
    }

    /// The responses at a chunk of points. On the Schur kernel the
    /// chunk goes through one multi-shift back-substitution (the
    /// triangular factor is streamed once per shift block, not once per
    /// point) and one `C̃·[X₁ … X_k]` product straight from the solver's
    /// planes; on the modal kernel each point is `n` divisions and the
    /// chunk one `weights × residues` product; the Hessenberg kernel
    /// solves point by point. A point's arithmetic never depends on the
    /// other points of its chunk (per-shift solves, and each product
    /// entry reads only its own row and column), so chunk boundaries —
    /// and therefore the thread count — never change a bit.
    /// `Err(Singular)` when any point hits a pole.
    fn responses(&self, pts: &[Complex]) -> Result<Vec<CMatrix>, NumericError> {
        let (p, m) = self.d.dims();
        let with_d = |h: &[Complex], d: &[Complex]| -> Vec<Complex> {
            h.iter().zip(d).map(|(&h_e, &d_e)| h_e + d_e).collect()
        };
        match &self.kernel {
            SweepKernel::Hessenberg { hm, ct } => pts
                .iter()
                .map(|&s| {
                    let x = solve_shifted_hessenberg(hm, Complex::ONE, s - self.s0, &self.bt)?;
                    let mut h = ct.matmul(&x)?;
                    for (h_e, &d_e) in h.as_mut_slice().iter_mut().zip(self.d.as_slice()) {
                        *h_e += d_e;
                    }
                    Ok(h)
                })
                .collect(),
            SweepKernel::Schur { tri, ct } => {
                let shifts: Vec<(Complex, Complex)> =
                    pts.iter().map(|&s| (Complex::ONE, s - self.s0)).collect();
                // p × k·m: point k's response is columns k·m..(k+1)·m.
                let h = kernel::mul_split(ct, &tri.solve_split(&shifts, &self.bt)?)?;
                let (hs, ds, width) = (h.as_slice(), self.d.as_slice(), pts.len() * m);
                (0..pts.len())
                    .map(|k| {
                        let mut data = Vec::with_capacity(p * m);
                        for r in 0..p {
                            let row = &hs[r * width + k * m..r * width + (k + 1) * m];
                            data.extend(with_d(row, &ds[r * m..(r + 1) * m]));
                        }
                        CMatrix::from_vec(p, m, data)
                    })
                    .collect()
            }
            SweepKernel::Modal {
                lambda,
                lam_scale,
                residues,
            } => {
                // Weight matrix W (k × n), one row of `1/(1 + t·λᵢ)` per
                // point; the chunk is then W·R plus feed-through, with
                // point k's response in row k.
                let mut w = Vec::with_capacity(pts.len() * lambda.len());
                for &s in pts {
                    modal_weights(lambda, *lam_scale, s - self.s0, &mut w)?;
                }
                let w = SplitOperand::left(&CMatrix::from_vec(pts.len(), lambda.len(), w)?);
                let h = kernel::mul_split(&w, residues)?;
                let hs = h.as_slice();
                (0..pts.len())
                    .map(|k| {
                        CMatrix::from_vec(
                            p,
                            m,
                            with_d(&hs[k * p * m..(k + 1) * p * m], self.d.as_slice()),
                        )
                    })
                    .collect()
            }
        }
    }
}

/// One worker's share of a sweep group: the output slots of sorted
/// positions `first..first + out.len()`, and the lowest input index
/// that failed among them with its error.
struct Block<'a> {
    first: usize,
    out: &'a mut [CMatrix],
    failure: Option<(usize, StateSpaceError)>,
}

impl Block<'_> {
    /// Walks the block in chunks of [`SWEEP_CHUNK`] points, so only one
    /// chunk's points, results and kernel buffers are alive at a time:
    /// `point` maps a sorted position to its input index and point,
    /// `eval` turns a chunk of points into per-point results.
    fn fill(
        &mut self,
        point: impl Fn(usize) -> (usize, Complex),
        eval: impl Fn(&[Complex]) -> Vec<Result<CMatrix, StateSpaceError>>,
    ) {
        for (c, slots) in self.out.chunks_mut(SWEEP_CHUNK).enumerate() {
            let first = self.first + c * SWEEP_CHUNK;
            let pts: Vec<Complex> = (first..first + slots.len())
                .map(|pos| point(pos).1)
                .collect();
            for ((pos, slot), result) in (first..).zip(slots).zip(eval(&pts)) {
                match result {
                    Ok(h) => *slot = h,
                    Err(e) => {
                        let i = point(pos).0;
                        if self.failure.as_ref().is_none_or(|&(j, _)| i < j) {
                            self.failure = Some((i, e));
                        }
                    }
                }
            }
        }
    }
}

/// Moves `v[p]` to `v[order[p]]` for every position, one permutation
/// cycle at a time, spending `order` as the visited marks: the sweep's
/// un-sort, with no second output vector.
fn scatter_in_place<T>(v: &mut [T], mut order: Vec<usize>) {
    for start in 0..v.len() {
        let mut dst = std::mem::replace(&mut order[start], usize::MAX);
        if dst == usize::MAX {
            continue;
        }
        while dst != start {
            v.swap(start, dst);
            dst = std::mem::replace(&mut order[dst], usize::MAX);
        }
    }
}

/// The modal kernel's per-point weights `wᵢ = 1/(1 + t·λᵢ)`, appended
/// to `out` — `n` divisions, the cheapest per-frequency kernel in the
/// sweep family. The pole cut mirrors the triangular solver's: a
/// denominator vanishing relative to the magnitude scale
/// (`max(|1 + t·λᵢ|, |t|·max|λ|)`) flags evaluation at a pole.
fn modal_weights(
    lambda: &[Complex],
    lam_scale: f64,
    t: Complex,
    out: &mut Vec<Complex>,
) -> Result<(), NumericError> {
    let start = out.len();
    let mut scale_sq = (t.abs() * lam_scale).powi(2).max(f64::MIN_POSITIVE);
    for &lam in lambda {
        let d = Complex::ONE + t * lam;
        scale_sq = scale_sq.max(d.abs_sq());
        out.push(d);
    }
    let cut_sq = (f64::EPSILON * f64::EPSILON) * scale_sq;
    for d in &mut out[start..] {
        if d.abs_sq() <= cut_sq {
            out.truncate(start);
            return Err(NumericError::Singular { op: "modal solve" });
        }
        *d = d.recip();
    }
    Ok(())
}

/// The shift-inverted pencil at `s₀` reduced to Hessenberg form, in
/// the operands' scalar type: `F⁻¹E = Q Hₘ Qᴴ` and `F⁻¹B`.
struct Shifted<T: Scalar> {
    hess: Hessenberg<T>,
    fb: Matrix<T>,
}

/// The first half of a group's set-up at `s₀`, in the operands' scalar
/// type: `F = s₀E − A` factored by LU (refused below the `rcond` gate),
/// the solves `F⁻¹E` and `F⁻¹B`, and `F⁻¹E` reduced to Hessenberg form.
/// A group offered a modal evaluator from above stops here when the
/// offer is accepted; otherwise [`Shifted::hessenberg_kernel`] or
/// [`Shifted::schur_kernel`] continues from this form.
fn reduce_shifted<T: Scalar>(
    e: &Matrix<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    s0: T,
) -> Option<Shifted<T>> {
    let n = a.rows();
    let f_data: Vec<T> = e
        .as_slice()
        .iter()
        .zip(a.as_slice())
        .map(|(&e, &a)| e * s0 - a)
        .collect();
    // mfti-lint: allow(MFTI-D7) — f_data zips E's own n² buffer, so the
    // length always matches
    let f = Matrix::from_vec(n, n, f_data).expect("E and A are n×n");
    let lu = Lu::compute(&f).ok()?;
    if lu.is_singular() || lu.rcond_estimate() < 1e-14 {
        return None;
    }
    let m_mat = lu.solve(e).ok()?;
    let fb = lu.solve(b).ok()?;
    let hess = Hessenberg::compute(&m_mat).ok()?;
    Some(Shifted { hess, fb })
}

impl<T: Scalar> Shifted<T> {
    /// The Hessenberg kernel at `s0`: `Hₘ`, `C̃ = C·Q` and
    /// `B̃ = Qᴴ·F⁻¹B`, promoted to complex for the per-point solves.
    fn hessenberg_kernel(
        &self,
        c: &CMatrix,
        d: &CMatrix,
        s0: Complex,
        sigma: f64,
    ) -> Option<SweepEvaluator> {
        let q = self.hess.q().to_complex();
        let bt = q.mul_hermitian_left(&self.fb.to_complex()).ok()?;
        let ct = c.matmul(&q).ok()?;
        let kernel = SweepKernel::Hessenberg {
            hm: self.hess.h().to_complex(),
            ct,
        };
        Some(SweepEvaluator {
            s0,
            sigma,
            kernel,
            bt,
            d: d.clone(),
        })
    }

    /// The second half of a Schur group's set-up, from the Schur form
    /// the iteration continued from the Hessenberg form (it starts from
    /// `Q` and costs only the accumulated iteration itself): the
    /// triangular kernel, upgraded to the modal one when the eigenbasis
    /// passes the gates. `None` refuses the shift.
    fn schur_kernel(
        &self,
        schur: Schur,
        c: &CMatrix,
        d: &CMatrix,
        s0: Complex,
        sigma: f64,
    ) -> Option<SweepEvaluator> {
        let (tm, z) = schur.into_parts();
        let bt = z.mul_hermitian_left(&self.fb.to_complex()).ok()?;
        let ct = c.matmul(&z).ok()?;
        let kernel = SweepKernel::Schur {
            tri: ShiftedTriangular::new(&tm).ok()?,
            ct: SplitOperand::left(&ct),
        };
        let evaluator = SweepEvaluator {
            s0,
            sigma,
            kernel,
            bt,
            d: d.clone(),
        };
        // One more opportunistic upgrade: when Tₘ's eigenvector basis
        // is well conditioned (validated against the back-substitution
        // path at probe points), the sweep collapses further to the
        // diagonal modal form.
        Some(modal_upgrade(&evaluator, &tm, &ct, sigma).unwrap_or(evaluator))
    }
}

/// The modal gates' probe points for a magnitude group of scale
/// `sigma`, lowest magnitude first: the imaginary axis across the
/// ≤ 2-decade span a group may hold (`sigma` down to `0.01·sigma`) and
/// one point off it.
fn gate_probes(sigma: f64) -> [Complex; 6] {
    [
        c64(0.0, 0.01 * sigma),
        c64(0.0, 0.031 * sigma),
        c64(0.0, 0.097 * sigma),
        c64(0.0, 0.31 * sigma),
        c64(0.4 * sigma, 0.9 * sigma),
        c64(0.0, sigma),
    ]
}

/// How many resonances inside a lower group's span an offered modal
/// evaluator is probed at, on top of [`gate_probes`].
const RESONANCE_PROBES: usize = 4;

/// The points of a group of scale `sigma` where a modal evaluator built
/// at the shift `s0` from the eigenvalues `lambda` is least accurate: the
/// imaginary-axis points `j·|Im p|` nearest its poles `p = s₀ − 1/λ`
/// inside the group's span, most amplified first, at most
/// [`RESONANCE_PROBES`] of them. There `1 + t·λ = λ·(s − p)` cancels,
/// so a weight's relative error grows like `|s − s₀|/|s − p|`: a shift
/// far above the group pays `|s − s₀| ≈ σ_above` where the group's own
/// shift would pay `≈ sigma`, and [`gate_probes`]' fixed points can
/// miss the peak.
fn resonance_probes(lambda: &[Complex], s0: Complex, sigma: f64) -> Vec<Complex> {
    let span = 0.01 * sigma..=sigma;
    let mut scored: Vec<(f64, Complex)> = lambda
        .iter()
        .filter(|lam| lam.abs() > 0.0)
        .filter_map(|&lam| {
            let p = s0 - lam.recip();
            let z = c64(0.0, p.im.abs());
            span.contains(&z.im)
                .then(|| ((z - s0).abs() / (z - p).abs(), z))
        })
        .collect();
    // A real model's conjugate poles share one probe point, scored by
    // the worse of the two.
    scored.sort_by(|x, y| x.1.im.total_cmp(&y.1.im));
    scored.dedup_by(|later, kept| {
        let shared = later.1.im - kept.1.im <= 1e-9 * kept.1.im;
        kept.0 = if shared { kept.0.max(later.0) } else { kept.0 };
        shared
    });
    scored.sort_by(|x, y| y.0.total_cmp(&x.0));
    scored
        .into_iter()
        .take(RESONANCE_PROBES)
        .map(|(_, z)| z)
        .collect()
}

/// The modal gates' agreement test: `h` within `1e-13` of `reference`,
/// relative to the reference's largest entry.
fn within_gate(h: &CMatrix, reference: &CMatrix) -> bool {
    let denom = reference.max_abs().max(f64::MIN_POSITIVE);
    (h - reference).max_abs() / denom <= 1e-13
}

/// How large `‖V⁻¹·(±1)‖∞` may grow before the eigenbasis is declared
/// too ill-conditioned to diagonalize: the modal path's deviation from
/// the back-substitution path scales like `κ(V)·ε`, so this keeps it
/// well below the sweep's `1e-12` agreement budget.
const MODAL_MAX_BASIS_GROWTH: f64 = 1e3;

/// Attempts to diagonalize a Schur sweep evaluator: absorb `Tₘ`'s
/// eigenvector basis `V` into the input/output maps so each point
/// becomes `n` divisions plus a thin GEMM. The upgrade is kept **only**
/// when the basis passes two gates — a `‖V⁻¹‖` growth estimate bounding
/// `κ(V)` ([`MODAL_MAX_BASIS_GROWTH`]), and reproduction of the
/// back-substitution path to `≤ 1e-13` relative deviation at probe
/// points spanning the group's magnitude range. Ill-conditioned
/// eigenbases (clustered resonances) fail a gate and the caller stays
/// on the guaranteed triangular kernel.
fn modal_upgrade(
    base: &SweepEvaluator,
    tm: &CMatrix,
    ct: &CMatrix,
    sigma: f64,
) -> Option<SweepEvaluator> {
    let v = triangular_right_eigenvectors(tm)?;
    // Conditioning gate: columns of V are unit-norm, so ‖V⁻¹b‖∞ for
    // ±1-pattern probes lower-bounds κ∞(V) up to a modest factor. Three
    // sign patterns (alternating, mixed-phase, run-length-3) catch the
    // common cancellation directions.
    let n_v = v.rows();
    let growth_probes = CMatrix::from_fn(n_v, 3, |i, j| match j {
        0 => c64(if i % 2 == 0 { 1.0 } else { -1.0 }, 0.0),
        1 => c64(1.0, if i % 3 == 0 { -1.0 } else { 1.0 }),
        _ => c64(if (i / 3) % 2 == 0 { 1.0 } else { -1.0 }, 0.3),
    });
    let growth = solve_shifted_triangular(&v, Complex::ZERO, Complex::ONE, &growth_probes).ok()?;
    if growth.max_abs() > MODAL_MAX_BASIS_GROWTH {
        return None;
    }
    let bt_m = solve_shifted_triangular(&v, Complex::ZERO, Complex::ONE, &base.bt).ok()?;
    let ct_m = kernel::mul_blocked(ct, &v).ok()?;
    let n = tm.rows();
    let (p, m) = (ct_m.rows(), bt_m.cols());
    let lambda: Vec<Complex> = (0..n).map(|i| tm[(i, i)]).collect();
    let lam_scale = lambda
        .iter()
        .map(|z| z.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    // Rank-1 residues, one flattened p×m matrix per eigenvalue:
    // Rᵢ = (C̃V)·eᵢ ⊗ eᵢ·(V⁻¹B̃).
    let ct_s = ct_m.as_slice();
    let bt_s = bt_m.as_slice();
    let mut residues = Vec::with_capacity(n * p * m);
    for i in 0..n {
        for r in 0..p {
            let c_ri = ct_s[r * n + i];
            for c in 0..m {
                residues.push(c_ri * bt_s[i * m + c]);
            }
        }
    }
    let residues = SplitOperand::right(&CMatrix::from_vec(n, p * m, residues).ok()?);
    // The modal kernel evaluates purely from (λ, residues, D); the
    // rotated maps of the Schur basis are not needed.
    let modal = SweepEvaluator {
        s0: base.s0,
        sigma: base.sigma,
        kernel: SweepKernel::Modal {
            lambda,
            lam_scale,
            residues,
        },
        bt: CMatrix::zeros(0, 0),
        d: base.d.clone(),
    };
    // One chunk per path: the back-substitution side then streams its
    // factor once for all probes.
    let probes = gate_probes(sigma);
    let modal_h = modal.eval_chunk(&probes);
    let schur_h = base.eval_chunk(&probes);
    let agree = modal_h.into_iter().zip(schur_h).all(|pair| match pair {
        (Ok(h_modal), Ok(h_schur)) => within_gate(&h_modal, &h_schur),
        _ => false,
    });
    agree.then_some(modal)
}

/// Memoized sweep factorizations, keyed on the magnitude group: its
/// scale, the kernel flavor it selected, and the evaluator it was
/// offered from above.
///
/// Building a [`SweepEvaluator`] is the `O(n³)` part of a batched sweep
/// (LU + Hessenberg + Schur + modal validation); repeated sweeps of the
/// same model — the serving-layer hot path — hit the cache and pay only
/// per-point work. A group that a modal evaluator from above serves
/// (DESIGN.md §10) is cached with that same evaluator, so a warm sweep
/// neither re-validates the offer nor moves a bit. The cache can never
/// go stale: a [`DescriptorSystem`]'s matrices are immutable after
/// construction (every "mutation" builds a new system, and [`Clone`]
/// starts the copy with an empty cache), and the key holds everything
/// else a build reads, so a cached evaluator is exactly the one a fresh
/// build would produce. Entries are capped; see
/// [`SWEEP_CACHE_MAX_ENTRIES`].
struct SweepCache {
    map: Mutex<BTreeMap<SweepKey, Arc<SweepEvaluator>>>,
}

/// A magnitude group's cache key: the exact bits of its scale, its
/// Schur-upgrade flag, and the scale of the group whose reduction built
/// the modal evaluator offered to it, if any — the only inputs
/// [`DescriptorSystem::sweep_evaluator`] depends on besides the
/// (immutable) matrices. Only a Schur group's own set-up builds a modal
/// evaluator, so that scale names the offer exactly.
type SweepKey = (u64, bool, Option<u64>);

/// Upper bound on distinct (magnitude group, kernel flavor, offer)
/// entries kept per system. Sweeps of one model reuse a handful of
/// magnitude groups; hitting the cap (adversarially many distinct
/// sigmas) clears the map rather than growing without bound.
const SWEEP_CACHE_MAX_ENTRIES: usize = 32;

impl SweepCache {
    fn new() -> Self {
        SweepCache {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    fn key(sigma: f64, use_schur: bool, offer: Option<&Arc<SweepEvaluator>>) -> SweepKey {
        (
            sigma.to_bits(),
            use_schur,
            offer.map(|offer| offer.sigma.to_bits()),
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<SweepKey, Arc<SweepEvaluator>>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: SweepKey) -> Option<Arc<SweepEvaluator>> {
        self.lock().get(&key).cloned()
    }

    fn insert(&self, key: SweepKey, evaluator: Arc<SweepEvaluator>) {
        let mut map = self.lock();
        if map.len() >= SWEEP_CACHE_MAX_ENTRIES {
            map.clear();
        }
        map.insert(key, evaluator);
    }

    /// Distinct evaluators held: groups one evaluator serves count once.
    fn len(&self) -> usize {
        let mut held: Vec<*const SweepEvaluator> = self.lock().values().map(Arc::as_ptr).collect();
        held.sort_unstable();
        held.dedup();
        held.len()
    }
}

/// A descriptor state-space model `E ẋ = A x + B u`, `y = C x + D u`.
///
/// `E` may be singular (then the model is a true descriptor system, which
/// is exactly what the raw Loewner realization of the paper's Lemma 3.1
/// produces). The scalar type distinguishes real models
/// (`DescriptorSystem<f64>`, e.g. after the Lemma 3.2 realification) from
/// complex ones (`DescriptorSystem<Complex>`, the direct Loewner output).
///
/// ```
/// use mfti_statespace::{DescriptorSystem, TransferFunction};
/// use mfti_numeric::RMatrix;
///
/// # fn main() -> Result<(), mfti_statespace::StateSpaceError> {
/// let sys = DescriptorSystem::from_state_space(
///     RMatrix::from_diag(&[-1.0, -2.0]),
///     RMatrix::from_rows(&[vec![1.0], vec![1.0]])?,
///     RMatrix::from_rows(&[vec![1.0, 1.0]])?,
///     RMatrix::zeros(1, 1),
/// )?;
/// assert_eq!(sys.order(), 2);
/// let dc = sys.eval(mfti_numeric::Complex::ZERO)?;
/// assert!((dc[(0, 0)].re - 1.5).abs() < 1e-12); // 1/1 + 1/2
/// # Ok(())
/// # }
/// ```
pub struct DescriptorSystem<T: Scalar> {
    e: Matrix<T>,
    a: Matrix<T>,
    b: Matrix<T>,
    c: Matrix<T>,
    d: Matrix<T>,
    /// Memoized sweep factorizations (never stale: the matrices above
    /// are immutable after construction). Deliberately excluded from
    /// `Clone`/`PartialEq`/`Debug` — it is a performance artifact, not
    /// model state.
    sweep_cache: SweepCache,
}

impl<T: Scalar> Clone for DescriptorSystem<T> {
    fn clone(&self) -> Self {
        DescriptorSystem {
            e: self.e.clone(),
            a: self.a.clone(),
            b: self.b.clone(),
            c: self.c.clone(),
            d: self.d.clone(),
            sweep_cache: SweepCache::new(),
        }
    }
}

impl<T: Scalar> PartialEq for DescriptorSystem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.e == other.e
            && self.a == other.a
            && self.b == other.b
            && self.c == other.c
            && self.d == other.d
    }
}

impl<T: Scalar> std::fmt::Debug for DescriptorSystem<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescriptorSystem")
            .field("e", &self.e)
            .field("a", &self.a)
            .field("b", &self.b)
            .field("c", &self.c)
            .field("d", &self.d)
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> DescriptorSystem<T> {
    /// Builds a descriptor system, validating all dimension constraints.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::DimensionMismatch`] when the matrices
    /// are not conformal (`E,A n×n`, `B n×m`, `C p×n`, `D p×m`).
    pub fn new(
        e: Matrix<T>,
        a: Matrix<T>,
        b: Matrix<T>,
        c: Matrix<T>,
        d: Matrix<T>,
    ) -> Result<Self, StateSpaceError> {
        if !a.is_square() {
            return Err(StateSpaceError::DimensionMismatch {
                what: "A must be square",
            });
        }
        let n = a.rows();
        if e.dims() != (n, n) {
            return Err(StateSpaceError::DimensionMismatch {
                what: "E must match A",
            });
        }
        if b.rows() != n {
            return Err(StateSpaceError::DimensionMismatch {
                what: "B must have n rows",
            });
        }
        if c.cols() != n {
            return Err(StateSpaceError::DimensionMismatch {
                what: "C must have n columns",
            });
        }
        if d.dims() != (c.rows(), b.cols()) {
            return Err(StateSpaceError::DimensionMismatch {
                what: "D must be p×m",
            });
        }
        Ok(DescriptorSystem {
            e,
            a,
            b,
            c,
            d,
            sweep_cache: SweepCache::new(),
        })
    }

    /// Builds an ordinary state-space model (`E = I`).
    ///
    /// # Errors
    ///
    /// Same as [`DescriptorSystem::new`].
    pub fn from_state_space(
        a: Matrix<T>,
        b: Matrix<T>,
        c: Matrix<T>,
        d: Matrix<T>,
    ) -> Result<Self, StateSpaceError> {
        let n = a.rows();
        Self::new(Matrix::identity(n), a, b, c, d)
    }

    /// The descriptor matrix `E`.
    pub fn e(&self) -> &Matrix<T> {
        &self.e
    }
    /// The state matrix `A`.
    pub fn a(&self) -> &Matrix<T> {
        &self.a
    }
    /// The input matrix `B`.
    pub fn b(&self) -> &Matrix<T> {
        &self.b
    }
    /// The output matrix `C`.
    pub fn c(&self) -> &Matrix<T> {
        &self.c
    }
    /// The feed-through matrix `D`.
    pub fn d(&self) -> &Matrix<T> {
        &self.d
    }

    /// State dimension `n` (size of `A`), i.e. the *size* of the model.
    ///
    /// For a descriptor system with singular `E` the number of finite
    /// poles — `order(Γ) = rank(E)` in the paper's notation — is smaller;
    /// see [`DescriptorSystem::dynamic_order`].
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// `rank(E)` — the number of dynamic (finite-pole) states, the
    /// quantity the paper calls `order(Γ)`.
    ///
    /// Computed by SVD (singular values only) with the crate-default
    /// rank tolerance.
    pub fn dynamic_order(&self) -> usize {
        match mfti_numeric::Svd::compute_factors(
            &self.e,
            mfti_numeric::SvdMethod::default(),
            mfti_numeric::SvdFactors::ValuesOnly,
        ) {
            Ok(svd) => svd.rank(mfti_numeric::DEFAULT_RANK_TOL),
            Err(_) => 0,
        }
    }

    /// Number of inputs `m`.
    pub fn inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs `p`.
    pub fn outputs(&self) -> usize {
        self.c.rows()
    }

    /// Finite poles of the pencil `(A, E)` (eigenvalues with `E` weight).
    ///
    /// # Errors
    ///
    /// Propagates [`StateSpaceError::Numeric`] when the pencil is singular.
    pub fn poles(&self) -> Result<Vec<Complex>, StateSpaceError> {
        let (mut finite, _infinite) = generalized_eigenvalues(&self.a, &self.e)?;
        finite.sort_by(|x, y| {
            x.im.abs()
                .total_cmp(&y.im.abs())
                .then(x.re.total_cmp(&y.re))
        });
        Ok(finite)
    }

    /// `true` when every finite pole has strictly negative real part.
    ///
    /// # Errors
    ///
    /// Propagates pole-computation failures.
    pub fn is_stable(&self) -> Result<bool, StateSpaceError> {
        Ok(self.poles()?.iter().all(|p| p.re < 0.0))
    }

    /// Builds the sweep evaluator for points of magnitude `≲ sigma`, or
    /// `None` when no well-conditioned shift is found (the caller then
    /// falls back to per-point LU, which is always correct). With
    /// `use_schur` the Hessenberg form is upgraded to a full Schur form
    /// (falling back to Hessenberg if the QR iteration fails).
    ///
    /// `offer` is the modal evaluator of the magnitude group just above
    /// (DESIGN.md §10). Once the group's own shift is reduced to
    /// Hessenberg form, the offer is checked against that form's kernel
    /// ([`SweepEvaluator::serves`]) and, when it passes, returned in
    /// place of the rest of the set-up. A refused offer costs the check
    /// alone: the set-up continues from the same Hessenberg form, with
    /// the bits a build without an offer gives.
    ///
    /// The set-up runs in the model's scalar type while the shift is
    /// real: a real model at a real candidate shift factors, solves and
    /// reduces to Hessenberg form in `f64`; only the Hessenberg form is
    /// promoted to complex, for the Schur iteration and the per-point
    /// kernels (DESIGN.md §10). The complex third candidate promotes the
    /// model for its own attempt only.
    fn sweep_evaluator(
        &self,
        sigma: f64,
        use_schur: bool,
        offer: Option<&Arc<SweepEvaluator>>,
    ) -> Option<Arc<SweepEvaluator>> {
        // Magnitude scale of the points served by this evaluator; shifts
        // live at this radius so that s₀E and A stay balanced inside F.
        let sigma = if sigma > 0.0 { sigma } else { 1.0 };
        // A real positive shift is never a pole of a stable model; the
        // later candidates cover marginal/unstable pencils.
        let candidates = [
            c64(sigma, 0.0),
            c64(2.75 * sigma, 0.0),
            c64(0.731 * sigma, 1.303 * sigma),
        ];
        candidates.into_iter().find_map(|s0| {
            if s0.im == 0.0 {
                let shifted = reduce_shifted(&self.e, &self.a, &self.b, T::from_f64(s0.re))?;
                self.finish_setup(shifted, s0, sigma, use_schur, offer)
            } else {
                let promoted = self.to_complex();
                let shifted = reduce_shifted(&promoted.e, &promoted.a, &promoted.b, s0)?;
                self.finish_setup(shifted, s0, sigma, use_schur, offer)
            }
        })
    }

    /// The rest of a group's set-up from its reduction at `s0`: the
    /// offer when it serves the group, else the group's own Hessenberg
    /// or Schur kernel continued from `shifted`. `None` refuses the
    /// shift.
    fn finish_setup<U: Scalar>(
        &self,
        shifted: Shifted<U>,
        s0: Complex,
        sigma: f64,
        use_schur: bool,
        offer: Option<&Arc<SweepEvaluator>>,
    ) -> Option<Arc<SweepEvaluator>> {
        let (c, d) = (self.c.to_complex(), self.d.to_complex());
        let own = offer.and_then(|_| shifted.hessenberg_kernel(&c, &d, s0, sigma));
        if let (Some(offer), Some(own)) = (offer, &own) {
            if offer.serves(own, sigma) {
                return Some(Arc::clone(offer));
            }
        }
        if use_schur {
            if let Ok(schur) = Schur::from_hessenberg(&shifted.hess) {
                return shifted.schur_kernel(schur, &c, &d, s0, sigma).map(Arc::new);
            }
        }
        own.or_else(|| shifted.hessenberg_kernel(&c, &d, s0, sigma))
            .map(Arc::new)
    }

    /// The evaluator of a magnitude group of scale `sigma` with the
    /// given flavor and offer, from the model's [`SweepCache`] or built
    /// and memoized there.
    fn group_evaluator(
        &self,
        sigma: f64,
        use_schur: bool,
        offer: Option<&Arc<SweepEvaluator>>,
    ) -> Option<Arc<SweepEvaluator>> {
        let key = SweepCache::key(sigma, use_schur, offer);
        if let Some(hit) = self.sweep_cache.get(key) {
            return Some(hit);
        }
        // A `None` build (no well-conditioned shift) is not cached: it
        // is rare, cheap to rediscover, and the pointwise fallback is
        // always correct.
        let built = self.sweep_evaluator(sigma, use_schur, offer)?;
        self.sweep_cache.insert(key, Arc::clone(&built));
        Some(built)
    }

    /// Batched evaluation with explicit control over the sweep kernel
    /// and the worker count — the engine behind
    /// [`Macromodel::eval_batch`], exposed for benchmarks, servers with
    /// their own thread budgets, and determinism tests.
    ///
    /// The parallel fan-out uses [`mfti_numeric::parallel`]'s static
    /// chunking, so for any fixed `strategy` the result is
    /// **bit-identical for every `threads` value** (including 1).
    ///
    /// # Errors
    ///
    /// Same as [`Macromodel::eval_batch`]: fails with
    /// [`StateSpaceError::EvaluationAtPole`] for the lowest-index point
    /// that coincides with a pole.
    pub fn eval_batch_with(
        &self,
        s: &[Complex],
        strategy: SweepStrategy,
        threads: usize,
    ) -> Result<Vec<CMatrix>, StateSpaceError> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.a.rows();
        let pointwise_only = match strategy {
            SweepStrategy::PointwiseLu => true,
            SweepStrategy::Auto => s.len() < SWEEP_MIN_POINTS || n < SWEEP_MIN_ORDER,
            _ => false,
        };
        if pointwise_only {
            // Tiny sweeps of tiny models don't amortize even a thread
            // spawn (~10 µs per scoped worker vs ~1 µs per small LU):
            // stay serial below a total-work floor. Results are
            // identical either way — this only affects scheduling.
            let workers = if s.len() * n * n * n < 200_000 {
                1
            } else {
                threads
            };
            return parallel::try_map_with(workers, s, |_, &z| self.eval(z));
        }

        // The shift-inverted pencil loses accuracy when one shift must
        // cover a huge dynamic range of |s|, so wide sweeps are
        // segmented into ≤2-decade magnitude groups, each with its own
        // factorization. Typical log sweeps need one or two groups.
        // Groups are runs of positions in magnitude order; a grid
        // already in that order (every frequency sweep) is its own
        // order and needs no permutation.
        let by_magnitude = |i: usize, j: usize| s[i].abs().total_cmp(&s[j].abs());
        let order: Option<Vec<usize>> =
            (1..s.len())
                .any(|i| by_magnitude(i - 1, i).is_gt())
                .then(|| {
                    let mut order: Vec<usize> = (0..s.len()).collect();
                    order.sort_by(|&i, &j| by_magnitude(i, j));
                    order
                });
        let input = |pos: usize| order.as_ref().map_or(pos, |order| order[pos]);
        let mut groups: Vec<Range<usize>> = Vec::new();
        let mut base = 0.0f64;
        for pos in 0..s.len() {
            let mag = s[input(pos)].abs();
            match groups.last_mut() {
                Some(group) if base == 0.0 || mag <= 100.0 * base => {
                    group.end = pos + 1;
                    if base == 0.0 {
                        base = mag;
                    }
                }
                _ => {
                    groups.push(pos..pos + 1);
                    base = mag;
                }
            }
        }

        // One shared factorization per group — memoized on the model
        // (`SweepCache`), so repeated sweeps of the same model skip the
        // O(n³) build and pay only per-point work; the group's points
        // then fan out across the workers in contiguous static blocks,
        // each walked in chunks that write straight into the output.
        // Groups are set up from the highest magnitude down: under
        // `Auto`, a modal evaluator is offered to the group just below,
        // which keeps it when it passes that group's gate (DESIGN.md
        // §10). The offers are checked serially, before the fan-out.
        let workers = threads.max(1);
        let mut out: Vec<CMatrix> = (0..s.len()).map(|_| CMatrix::zeros(0, 0)).collect();
        let mut failure: Option<(usize, StateSpaceError)> = None;
        let mut above: Option<Arc<SweepEvaluator>> = None;
        for group in groups.into_iter().rev() {
            let sigma = group
                .clone()
                .map(|pos| s[input(pos)].abs())
                .fold(0.0f64, f64::max);
            let shared_kernel = match strategy {
                SweepStrategy::Hessenberg => Some(false),
                SweepStrategy::Schur => Some(true),
                // Auto: groups too short to amortize any shared setup
                // stay on per-point LU; medium groups take the
                // Hessenberg path; long groups amortize the Schur form.
                SweepStrategy::Auto if group.len() >= SWEEP_MIN_POINTS => {
                    Some(schur_amortizes(n, group.len()))
                }
                _ => None,
            };
            let offer = above
                .take()
                .filter(|above| strategy == SweepStrategy::Auto && above.is_modal());
            let evaluator = shared_kernel
                .and_then(|use_schur| self.group_evaluator(sigma, use_schur, offer.as_ref()));
            let block_len = group.len().div_ceil(workers).max(1);
            let mut blocks: Vec<Block> = out[group.clone()]
                .chunks_mut(block_len)
                .enumerate()
                .map(|(b, out)| Block {
                    first: group.start + b * block_len,
                    out,
                    failure: None,
                })
                .collect();
            parallel::for_each_mut(workers, &mut blocks, |_, block| {
                let point = |pos: usize| (input(pos), s[input(pos)]);
                block.fill(point, |pts| match &evaluator {
                    Some(evaluator) => evaluator.eval_chunk(pts),
                    None => pts.iter().map(|&z| self.eval(z)).collect(),
                });
            });
            for (i, e) in blocks.into_iter().filter_map(|block| block.failure) {
                if failure.as_ref().is_none_or(|&(j, _)| i < j) {
                    failure = Some((i, e));
                }
            }
            above = evaluator;
        }
        // A pole error is reported for the lowest-index failing point —
        // same as a serial fail-fast loop.
        if let Some((_, e)) = failure {
            return Err(e);
        }
        if let Some(order) = order {
            scatter_in_place(&mut out, order);
        }
        Ok(out)
    }

    /// Promotes the model to complex scalars (no-op for complex models).
    pub fn to_complex(&self) -> DescriptorSystem<Complex> {
        DescriptorSystem {
            e: self.e.to_complex(),
            a: self.a.to_complex(),
            b: self.b.to_complex(),
            c: self.c.to_complex(),
            d: self.d.to_complex(),
            sweep_cache: SweepCache::new(),
        }
    }

    /// Number of distinct sweep factorizations currently memoized on
    /// this model: magnitude groups served by one evaluator count once
    /// (diagnostics for tests and serving metrics; see the `SweepCache`
    /// internals for the caching policy).
    pub fn cached_sweep_groups(&self) -> usize {
        self.sweep_cache.len()
    }
}

impl DescriptorSystem<Complex> {
    /// Demotes a complex model whose matrices are real within `tol` to a
    /// real model (used after the paper's Lemma 3.2 realification).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::NotReal`] when any entry has an
    /// imaginary part exceeding `tol` (relative to the matrix max-abs).
    pub fn into_real(self, tol: f64) -> Result<DescriptorSystem<f64>, StateSpaceError> {
        let mut max_imag = 0.0f64;
        for m in [&self.e, &self.a, &self.b, &self.c, &self.d] {
            let scale = m.max_abs().max(1.0);
            for z in m.iter() {
                max_imag = max_imag.max(z.im.abs() / scale);
            }
        }
        if max_imag > tol {
            return Err(StateSpaceError::NotReal { max_imag });
        }
        Ok(DescriptorSystem {
            e: self.e.real_part(),
            a: self.a.real_part(),
            b: self.b.real_part(),
            c: self.c.real_part(),
            d: self.d.real_part(),
            sweep_cache: SweepCache::new(),
        })
    }
}

impl DescriptorSystem<f64> {
    /// Convenience accessors returning the real matrices (alias of the
    /// generic getters, for call-site clarity in examples).
    pub fn real_matrices(&self) -> (&RMatrix, &RMatrix, &RMatrix, &RMatrix, &RMatrix) {
        (&self.e, &self.a, &self.b, &self.c, &self.d)
    }
}

impl<T: Scalar> TransferFunction for DescriptorSystem<T> {
    fn outputs(&self) -> usize {
        self.c.rows()
    }

    fn inputs(&self) -> usize {
        self.b.cols()
    }

    fn eval(&self, s: Complex) -> Result<CMatrix, StateSpaceError> {
        // H(s) = C (sE − A)⁻¹ B + D via one LU solve. The pencil sE − A
        // is assembled in a single fused pass (bode sweeps call this per
        // frequency, so the temporaries of the naive `to_complex` chain
        // would dominate small-model evaluation).
        let n = self.a.rows();
        let pencil_data: Vec<Complex> = self
            .e
            .as_slice()
            .iter()
            .zip(self.a.as_slice())
            .map(|(&e, &a)| e.to_complex() * s - a.to_complex())
            .collect();
        // mfti-lint: allow(MFTI-D7) — pencil_data zips E's own n²
        // buffer, so the length always matches
        let pencil = CMatrix::from_vec(n, n, pencil_data).expect("E and A are n×n");
        let lu = Lu::compute(&pencil)?;
        if lu.is_singular() {
            return Err(StateSpaceError::EvaluationAtPole { re: s.re, im: s.im });
        }
        let x = lu.solve(&self.b.to_complex())?;
        let mut h = self.c.to_complex().matmul(&x)?;
        for (h_e, &d_e) in h.as_mut_slice().iter_mut().zip(self.d.as_slice()) {
            *h_e += d_e.to_complex();
        }
        Ok(h)
    }

    fn frequency_response(&self, freqs_hz: &[f64]) -> Result<Vec<CMatrix>, StateSpaceError> {
        // Route grid sweeps through the batched path: sampling and Bode
        // extraction get the Hessenberg speed-up for free.
        self.response_batch_hz(freqs_hz)
    }
}

impl<T: Scalar> Macromodel for DescriptorSystem<T> {
    fn order(&self) -> usize {
        self.a.rows()
    }

    fn eval_batch(&self, s: &[Complex]) -> Result<Vec<CMatrix>, StateSpaceError> {
        self.eval_batch_with(s, SweepStrategy::Auto, parallel::available_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfti_numeric::c64;

    fn rc_lowpass(tau: f64) -> DescriptorSystem<f64> {
        DescriptorSystem::from_state_space(
            RMatrix::from_diag(&[-1.0 / tau]),
            RMatrix::col_vector(&[1.0 / tau]),
            RMatrix::row_vector(&[1.0]),
            RMatrix::zeros(1, 1),
        )
        .unwrap()
    }

    #[test]
    fn dimensions_are_validated() {
        let bad = DescriptorSystem::new(
            RMatrix::identity(2),
            RMatrix::identity(3),
            RMatrix::zeros(3, 1),
            RMatrix::zeros(1, 3),
            RMatrix::zeros(1, 1),
        );
        assert!(matches!(
            bad,
            Err(StateSpaceError::DimensionMismatch { .. })
        ));
        let bad_b = DescriptorSystem::from_state_space(
            RMatrix::identity(2),
            RMatrix::zeros(3, 1),
            RMatrix::zeros(1, 2),
            RMatrix::zeros(1, 1),
        );
        assert!(bad_b.is_err());
    }

    #[test]
    fn rc_lowpass_magnitude_and_phase() {
        let sys = rc_lowpass(1.0);
        // At the corner frequency: |H| = 1/√2, phase −45°.
        let h = sys.eval(c64(0.0, 1.0)).unwrap()[(0, 0)];
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((h.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn poles_of_diagonal_system() {
        let sys = DescriptorSystem::from_state_space(
            RMatrix::from_diag(&[-1.0, -5.0]),
            RMatrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap(),
            RMatrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
            RMatrix::zeros(1, 1),
        )
        .unwrap();
        let poles = sys.poles().unwrap();
        let mut res: Vec<f64> = poles.iter().map(|p| p.re).collect();
        res.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((res[0] + 5.0).abs() < 1e-9);
        assert!((res[1] + 1.0).abs() < 1e-9);
        assert!(sys.is_stable().unwrap());
    }

    #[test]
    fn unstable_pole_detected() {
        let sys = DescriptorSystem::from_state_space(
            RMatrix::from_diag(&[1.0]),
            RMatrix::col_vector(&[1.0]),
            RMatrix::row_vector(&[1.0]),
            RMatrix::zeros(1, 1),
        )
        .unwrap();
        assert!(!sys.is_stable().unwrap());
    }

    #[test]
    fn descriptor_system_with_singular_e() {
        // E = diag(1, 0): the second state is algebraic, acting like a
        // feed-through: H(s) = c1 b1/(s − a1) + c2 b2 / (−a2).
        let sys = DescriptorSystem::new(
            RMatrix::from_diag(&[1.0, 0.0]),
            RMatrix::from_diag(&[-1.0, -2.0]),
            RMatrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap(),
            RMatrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
            RMatrix::zeros(1, 1),
        )
        .unwrap();
        assert_eq!(sys.order(), 2);
        assert_eq!(sys.dynamic_order(), 1);
        let h = sys.eval(Complex::ZERO).unwrap()[(0, 0)];
        assert!((h.re - 1.5).abs() < 1e-12); // 1/1 + 1/2
        let poles = sys.poles().unwrap();
        assert_eq!(poles.len(), 1);
        assert!((poles[0].re + 1.0).abs() < 1e-9);
    }

    #[test]
    fn evaluation_at_pole_fails_cleanly() {
        let sys = rc_lowpass(1.0);
        let err = sys.eval(c64(-1.0, 0.0)).unwrap_err();
        assert!(matches!(err, StateSpaceError::EvaluationAtPole { .. }));
    }

    #[test]
    fn complex_round_trip_through_into_real() {
        let real = rc_lowpass(0.5);
        let complexified = real.to_complex();
        let back = complexified.into_real(1e-14).unwrap();
        assert_eq!(&back, &real);
    }

    #[test]
    fn into_real_rejects_complex_content() {
        let mut sys = rc_lowpass(1.0).to_complex();
        // Inject a genuinely complex entry.
        let a = sys.a.clone();
        let _ = a; // keep clone to show intent; mutate via new()
        let mut a2 = sys.a.clone();
        a2[(0, 0)] = c64(-1.0, 0.5);
        sys = DescriptorSystem::new(
            sys.e.clone(),
            a2,
            sys.b.clone(),
            sys.c.clone(),
            sys.d.clone(),
        )
        .unwrap();
        assert!(matches!(
            sys.into_real(1e-9),
            Err(StateSpaceError::NotReal { .. })
        ));
    }

    /// Order-`n` stable test system with resonances spread over
    /// `[1, ω_hi]` rad/s and dense B/C/D couplings (xorshift entries).
    fn resonant_system(
        n: usize,
        ports: usize,
        omega_hi: f64,
        mut seed: u64,
    ) -> DescriptorSystem<f64> {
        assert!(n.is_multiple_of(2));
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let pairs = n / 2;
        let mut a = RMatrix::zeros(n, n);
        for k in 0..pairs {
            let omega = omega_hi.powf((k + 1) as f64 / pairs as f64);
            let sigma = -omega * (0.02 + 0.1 * next().abs());
            a[(2 * k, 2 * k)] = sigma;
            a[(2 * k, 2 * k + 1)] = omega;
            a[(2 * k + 1, 2 * k)] = -omega;
            a[(2 * k + 1, 2 * k + 1)] = sigma;
        }
        let b = RMatrix::from_fn(n, ports, |_, _| next());
        let c = RMatrix::from_fn(ports, n, |_, _| next());
        let d = RMatrix::from_fn(ports, ports, |_, _| 0.25 * next());
        DescriptorSystem::from_state_space(a, b, c, d).unwrap()
    }

    /// `sys` with its resonances pairwise repeated (block `2k + 1`
    /// copies block `2k`): a double pole per pair, whose clustered
    /// eigenbasis keeps sweeps on the Schur back-substitution kernel
    /// instead of the modal one.
    fn repeated_resonance(sys: DescriptorSystem<f64>) -> DescriptorSystem<f64> {
        let mut a = sys.a().clone();
        let n = a.rows();
        for k in (0..n / 2).step_by(2).filter(|&k| 2 * k + 3 < n) {
            for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                a[(2 * k + 2 + i, 2 * k + 2 + j)] = a[(2 * k + i, 2 * k + j)];
            }
        }
        DescriptorSystem::from_state_space(a, sys.b().clone(), sys.c().clone(), sys.d().clone())
            .unwrap()
    }

    fn sweep_points(omega_hi: f64, k: usize) -> Vec<Complex> {
        (0..k)
            .map(|i| c64(0.0, omega_hi.powf((i + 1) as f64 / k as f64)))
            .collect()
    }

    #[test]
    fn eval_batch_sweep_matches_pointwise_lu() {
        // Order 24 ≥ SWEEP_MIN_ORDER and 20 points ≥ SWEEP_MIN_POINTS:
        // the Hessenberg sweep path is exercised and must agree with the
        // per-point LU evaluation to near machine precision.
        let sys = resonant_system(24, 3, 1e6, 0x5eed);
        let pts = sweep_points(1e6, 20);
        let batch = sys.eval_batch(&pts).unwrap();
        assert_eq!(batch.len(), pts.len());
        for (&s, h) in pts.iter().zip(&batch) {
            let direct = sys.eval(s).unwrap();
            let rel = (h - &direct).max_abs() / direct.max_abs().max(1e-300);
            assert!(
                rel < 1e-12,
                "sweep vs LU relative deviation {rel:.2e} at {s}"
            );
        }
    }

    #[test]
    fn eval_batch_handles_singular_e_descriptor() {
        // Singular E (algebraic states) still admits the shift-inverted
        // sweep: M = F⁻¹E is merely rank-deficient.
        let base = resonant_system(16, 2, 1e4, 7);
        let n = base.order() + 2;
        let mut e = RMatrix::identity(n);
        e[(n - 1, n - 1)] = 0.0;
        e[(n - 2, n - 2)] = 0.0;
        let mut a = RMatrix::zeros(n, n);
        for i in 0..base.order() {
            for j in 0..base.order() {
                a[(i, j)] = base.a()[(i, j)];
            }
        }
        a[(n - 2, n - 2)] = -1.0;
        a[(n - 1, n - 1)] = -2.0;
        let b = RMatrix::from_fn(n, 2, |i, j| ((i + 2 * j + 1) as f64).recip());
        let c = RMatrix::from_fn(2, n, |i, j| ((2 * i + j + 2) as f64).recip());
        let sys = DescriptorSystem::new(e, a, b, c, RMatrix::zeros(2, 2)).unwrap();
        assert!(sys.dynamic_order() < sys.order());
        let pts = sweep_points(1e4, 12);
        let batch = sys.eval_batch(&pts).unwrap();
        for (&s, h) in pts.iter().zip(&batch) {
            let direct = sys.eval(s).unwrap();
            let rel = (h - &direct).max_abs() / direct.max_abs().max(1e-300);
            assert!(rel < 1e-12, "descriptor sweep deviation {rel:.2e} at {s}");
        }
    }

    #[test]
    fn eval_batch_short_sweeps_fall_back_to_the_loop() {
        let sys = resonant_system(24, 2, 1e5, 3);
        let pts = sweep_points(1e5, 3); // below SWEEP_MIN_POINTS
        let batch = sys.eval_batch(&pts).unwrap();
        for (&s, h) in pts.iter().zip(&batch) {
            assert!(h.approx_eq(&sys.eval(s).unwrap(), 0.0));
        }
    }

    #[test]
    fn eval_batch_reports_pole_hits() {
        // Diagonal complex system: the pencil s·I − A is *exactly*
        // singular at the poles, so both the per-point and the sweep
        // paths must flag the hit (a numerically computed pole of a
        // dense model only makes the pencil ill-conditioned, not
        // singular, and evaluates like its neighborhood does).
        let n = 14;
        let poles: Vec<Complex> = (1..=n).map(|k| c64(-(k as f64), 2.0 * k as f64)).collect();
        let a = CMatrix::from_diag(&poles);
        let b = CMatrix::from_fn(n, 2, |i, j| c64((i + j + 1) as f64, 0.0));
        let c = CMatrix::from_fn(2, n, |i, j| c64(1.0 / (i + j + 1) as f64, 0.0));
        let sys = DescriptorSystem::from_state_space(a, b, c, CMatrix::zeros(2, 2)).unwrap();
        let mut pts = sweep_points(30.0, 12);
        pts.push(poles[3]);
        let err = sys.eval_batch(&pts).unwrap_err();
        assert!(matches!(err, StateSpaceError::EvaluationAtPole { .. }));
        // The same batch without the pole evaluates fine.
        pts.pop();
        assert!(sys.eval_batch(&pts).is_ok());

        // Chunk boundaries: one-group grids of chunk − 1 … 2·chunk + 3
        // points with the pole at sorted position `at` — in the second
        // chunk whenever the grid has one. The batch fails at every
        // thread count naming the pole; without it, every thread count
        // gives the per-point evaluator's bits. A second pole put first
        // in the input (so the grid is no longer in magnitude order)
        // has the lower index, and the error must name it instead.
        let (near, far) = (poles[3], poles[6]);
        for len in [
            SWEEP_CHUNK - 1,
            SWEEP_CHUNK,
            SWEEP_CHUNK + 1,
            2 * SWEEP_CHUNK + 3,
        ] {
            let at = (SWEEP_CHUNK + 3).min(len - 1);
            let below = (0..at).map(|i| c64(0.0, 1.0 + 7.0 * i as f64 / at as f64));
            let above = len - 1 - at;
            let above = (0..above).map(|i| c64(0.0, 9.5 + 20.5 * i as f64 / above as f64));
            let clean: Vec<Complex> = below.chain(above).collect();
            let sigma = clean.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let per_point = sys.sweep_evaluator(sigma, true, None).unwrap();
            let mut with_pole = clean.clone();
            with_pole.insert(at, near);
            let mut two_poles = with_pole.clone();
            two_poles.insert(0, far);
            for threads in [1, 2, 4] {
                let run = |pts: &[Complex]| sys.eval_batch_with(pts, SweepStrategy::Auto, threads);
                let named = |err: StateSpaceError| match err {
                    StateSpaceError::EvaluationAtPole { re, im } => c64(re, im),
                    other => panic!("len {len}, {threads} threads: {other:?}"),
                };
                assert_eq!(named(run(&with_pole).unwrap_err()), near, "len {len}");
                assert_eq!(named(run(&two_poles).unwrap_err()), far, "len {len}");
                // Pole-free: every point has the per-point evaluator's
                // bits (the poles never set the group's `sigma`).
                for (&z, h) in clean.iter().zip(run(&clean).unwrap()) {
                    let want = per_point.eval(z).unwrap();
                    assert!(same_bits(&h, &want), "len {len}, {threads} threads at {z}");
                }
            }
        }
    }

    fn same_bits(a: &CMatrix, b: &CMatrix) -> bool {
        a.dims() == b.dims()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn complex_models_take_the_sweep_path_too() {
        let sys = resonant_system(20, 2, 1e5, 23).to_complex();
        let pts = sweep_points(1e5, 16);
        let batch = sys.eval_batch(&pts).unwrap();
        for (&s, h) in pts.iter().zip(&batch) {
            let direct = sys.eval(s).unwrap();
            let rel = (h - &direct).max_abs() / direct.max_abs().max(1e-300);
            assert!(rel < 1e-12, "complex sweep deviation {rel:.2e}");
        }
    }

    #[test]
    fn eval_batch_empty_sweep_returns_empty() {
        let sys = resonant_system(24, 2, 1e5, 11);
        for strategy in [
            SweepStrategy::Auto,
            SweepStrategy::PointwiseLu,
            SweepStrategy::Hessenberg,
            SweepStrategy::Schur,
        ] {
            let out = sys.eval_batch_with(&[], strategy, 4).unwrap();
            assert!(out.is_empty(), "{strategy:?}");
        }
        assert!(sys.eval_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn eval_batch_single_point_skips_shared_setup() {
        // A single point can never amortize a reduction: Auto must give
        // exactly the per-point LU answer, bit for bit.
        let sys = resonant_system(32, 2, 1e5, 13);
        let pt = [c64(0.0, 3.3e4)];
        let batch = sys.eval_batch(&pt).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(batch[0].approx_eq(&sys.eval(pt[0]).unwrap(), 0.0));
    }

    #[test]
    fn schur_crossover_heuristic_has_sane_shape() {
        // Single points and tiny sweeps never take the Schur path …
        assert!(!schur_amortizes(48, 1));
        assert!(!schur_amortizes(48, SCHUR_MIN_POINTS - 1));
        // … long sweeps always do …
        assert!(schur_amortizes(48, 100));
        assert!(schur_amortizes(96, 100));
        // … and sweeps much shorter than the order stay on Hessenberg.
        assert!(!schur_amortizes(96, 12));
    }

    #[test]
    fn forced_strategies_agree_with_pointwise_lu() {
        let sys = resonant_system(28, 3, 1e6, 0xabc);
        let pts = sweep_points(1e6, 30);
        let reference: Vec<CMatrix> = pts.iter().map(|&s| sys.eval(s).unwrap()).collect();
        for strategy in [
            SweepStrategy::PointwiseLu,
            SweepStrategy::Hessenberg,
            SweepStrategy::Schur,
        ] {
            let batch = sys.eval_batch_with(&pts, strategy, 1).unwrap();
            for (h, want) in batch.iter().zip(&reference) {
                let rel = (h - want).max_abs() / want.max_abs().max(1e-300);
                assert!(rel < 1e-11, "{strategy:?} deviates {rel:.2e}");
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        // The deterministic-parallelism guarantee: static chunking with
        // per-point independence makes the parallel sweep *bit*-equal to
        // the serial one, for every strategy and thread count.
        let sys = resonant_system(40, 3, 1e8, 0x7a11);
        let pts = sweep_points(1e8, 75);
        for strategy in [
            SweepStrategy::Auto,
            SweepStrategy::PointwiseLu,
            SweepStrategy::Hessenberg,
            SweepStrategy::Schur,
        ] {
            let serial = sys.eval_batch_with(&pts, strategy, 1).unwrap();
            for threads in [2, 4, mfti_numeric::parallel::available_threads()] {
                let par = sys.eval_batch_with(&pts, strategy, threads).unwrap();
                for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                    assert!(
                        same_bits(a, b),
                        "{strategy:?} at {threads} threads differs from serial at point {i}"
                    );
                }
            }
        }

        // Chunk boundaries: one-group grids (sigma = the last point) of
        // chunk − 1, chunk, chunk + 1 and 2·chunk + 3 points give the
        // per-point bits at every thread count — the shared evaluator's
        // `eval` (LU for PointwiseLu) — and so does the longest grid fed
        // in a shuffled order, which the sweep sorts and scatters back.
        // The system's shared kernel is the modal one; its repeated-pole
        // twin keeps the Schur back-substitution.
        let twin = repeated_resonance(sys.clone());
        for (sys, len) in [&sys, &twin].into_iter().flat_map(|sys| {
            [
                SWEEP_CHUNK - 1,
                SWEEP_CHUNK,
                SWEEP_CHUNK + 1,
                2 * SWEEP_CHUNK + 3,
            ]
            .map(|len| (sys, len))
        }) {
            let grid: Vec<Complex> = (0..len)
                .map(|i| c64(0.0, 2e3 * 50f64.powf(i as f64 / (len - 1) as f64)))
                .collect();
            let sigma = grid[len - 1].abs();
            // 17 is coprime to 2·chunk + 3 = 67, so this permutes it.
            let shuffled: Vec<usize> = (0..len).map(|i| (i * 17 + 5) % len).collect();
            let shuffled_pts: Vec<Complex> = shuffled.iter().map(|&i| grid[i]).collect();
            for strategy in [
                SweepStrategy::Auto,
                SweepStrategy::PointwiseLu,
                SweepStrategy::Hessenberg,
                SweepStrategy::Schur,
            ] {
                let per_point = |z: Complex| match strategy {
                    SweepStrategy::PointwiseLu => sys.eval(z).unwrap(),
                    SweepStrategy::Hessenberg => sys
                        .sweep_evaluator(sigma, false, None)
                        .unwrap()
                        .eval(z)
                        .unwrap(),
                    _ => sys
                        .sweep_evaluator(sigma, true, None)
                        .unwrap()
                        .eval(z)
                        .unwrap(),
                };
                let want: Vec<CMatrix> = grid.iter().map(|&z| per_point(z)).collect();
                for threads in [1, 2, 4, mfti_numeric::parallel::available_threads()] {
                    let got = sys.eval_batch_with(&grid, strategy, threads).unwrap();
                    for (i, (h, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            same_bits(h, w),
                            "{strategy:?}, len {len}, {threads} threads, point {i}"
                        );
                    }
                    if len == 2 * SWEEP_CHUNK + 3 {
                        let got = sys
                            .eval_batch_with(&shuffled_pts, strategy, threads)
                            .unwrap();
                        for (h, &i) in got.iter().zip(&shuffled) {
                            assert!(
                                same_bits(h, &want[i]),
                                "{strategy:?}, shuffled, {threads} threads, point {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn schur_sweep_matches_pointwise_near_poles() {
        // Ill-conditioned shifts: points parked ~1e-6 relative distance
        // from resonances still agree with the per-point LU to 1e-11.
        let sys = resonant_system(24, 2, 1e5, 0x90d);
        let poles = sys.poles().unwrap();
        let mut pts: Vec<Complex> = poles
            .iter()
            .filter(|p| p.im > 1.0)
            .take(10)
            .map(|p| c64(0.0, p.im * (1.0 + 1e-6)))
            .collect();
        pts.extend(sweep_points(1e5, 10));
        let batch = sys.eval_batch_with(&pts, SweepStrategy::Schur, 1).unwrap();
        for (&s, h) in pts.iter().zip(&batch) {
            let direct = sys.eval(s).unwrap();
            let rel = (h - &direct).max_abs() / direct.max_abs().max(1e-300);
            assert!(rel < 1e-11, "near-pole deviation {rel:.2e} at {s}");
        }
    }

    #[test]
    fn sweep_cache_memoizes_per_group_factorizations() {
        let sys = resonant_system(24, 3, 1e6, 0xcac4e);
        assert_eq!(sys.cached_sweep_groups(), 0);
        let pts = sweep_points(1e6, 30);
        let first = sys.eval_batch(&pts).unwrap();
        let populated = sys.cached_sweep_groups();
        assert!(populated > 0, "shared sweep must populate the cache");
        // Repeated sweeps reuse the cached evaluator and stay
        // bit-identical to the first (the evaluator is the same object).
        let second = sys.eval_batch(&pts).unwrap();
        assert_eq!(sys.cached_sweep_groups(), populated);
        for (a, b) in first.iter().zip(&second) {
            assert!(a.approx_eq(b, 0.0), "cached sweep deviates");
        }
        // A fresh clone starts cold and still produces the same bits.
        let cloned = sys.clone();
        assert_eq!(cloned.cached_sweep_groups(), 0);
        let third = cloned.eval_batch(&pts).unwrap();
        for (a, b) in first.iter().zip(&third) {
            assert!(a.approx_eq(b, 0.0), "cold-cache sweep deviates");
        }
        // A different kernel flavor gets its own entries (these groups
        // are below the Schur crossover, so Auto cached the Hessenberg
        // flavor and forcing Schur misses).
        let _ = sys.eval_batch_with(&pts, SweepStrategy::Schur, 1).unwrap();
        assert!(sys.cached_sweep_groups() > populated);
    }

    #[test]
    fn sweep_cache_is_bounded() {
        let sys = resonant_system(16, 2, 1e5, 0xb0b);
        // Many distinct magnitude groups (each sweep one group): the
        // cache clears at the cap instead of growing without bound.
        for k in 0..(2 * SWEEP_CACHE_MAX_ENTRIES) {
            let mag = 1e3 * (1.0 + k as f64);
            let pts: Vec<Complex> = (0..SWEEP_MIN_POINTS)
                .map(|i| c64(0.0, mag * (1.0 + 0.01 * i as f64)))
                .collect();
            let _ = sys.eval_batch(&pts).unwrap();
        }
        assert!(sys.cached_sweep_groups() <= SWEEP_CACHE_MAX_ENTRIES);
    }

    /// `k` points on the imaginary axis over the three decades
    /// `[lo, 1000·lo]` rad/s: a lower magnitude group of two decades and
    /// an upper one of one.
    fn three_decades(lo: f64, k: usize) -> Vec<Complex> {
        (0..k)
            .map(|i| c64(0.0, lo * 1e3f64.powf(i as f64 / (k - 1) as f64)))
            .collect()
    }

    #[test]
    fn a_modal_evaluator_serves_the_group_below_when_it_passes_the_gate() {
        let sys = resonant_system(40, 3, 1e6, 0x3dec);
        let pts = three_decades(1e3, 60);
        let split = 100.0 * pts[0].abs();
        let top = sys.sweep_evaluator(pts[59].abs(), true, None).unwrap();
        assert!(top.is_modal());
        let cold = sys.eval_batch_with(&pts, SweepStrategy::Auto, 1).unwrap();
        // Two magnitude groups, one factorization: every point, the
        // lower group's too, carries the top evaluator's bits.
        assert_eq!(sys.cached_sweep_groups(), 1);
        for (&z, h) in pts.iter().zip(&cold) {
            assert!(same_bits(h, &top.eval(z).unwrap()), "at {z}");
            let direct = sys.eval(z).unwrap();
            let rel = (h - &direct).max_abs() / direct.max_abs();
            let bound = if z.abs() <= split { 1e-13 } else { 1e-12 };
            assert!(rel <= bound, "deviation {rel:.2e} from LU at {z}");
        }
        // The decision is cached: a warm sweep neither re-validates nor
        // moves a bit, and a cold one gives the same bits at every
        // thread count.
        let warm = sys.eval_batch_with(&pts, SweepStrategy::Auto, 1).unwrap();
        assert_eq!(sys.cached_sweep_groups(), 1);
        for threads in [1, 2, 4] {
            let fresh = sys.clone();
            let got = fresh
                .eval_batch_with(&pts, SweepStrategy::Auto, threads)
                .unwrap();
            assert_eq!(fresh.cached_sweep_groups(), 1);
            for (i, ((h, c), w)) in got.iter().zip(&cold).zip(&warm).enumerate() {
                assert!(
                    same_bits(h, c) && same_bits(w, c),
                    "{threads} threads, point {i}"
                );
            }
        }
        // The lower group swept alone is offered nothing, so the cached
        // decision does not reach it: it builds its own evaluator.
        let lower: Vec<Complex> = pts.iter().copied().filter(|z| z.abs() <= split).collect();
        let own = sys
            .sweep_evaluator(lower[lower.len() - 1].abs(), true, None)
            .unwrap();
        let alone = sys.eval_batch(&lower).unwrap();
        assert_eq!(sys.cached_sweep_groups(), 2);
        for (&z, h) in lower.iter().zip(&alone) {
            assert!(same_bits(h, &own.eval(z).unwrap()), "alone at {z}");
        }
        // Forced strategies keep one factorization per group.
        let forced = sys.clone();
        let _ = forced
            .eval_batch_with(&pts, SweepStrategy::Schur, 1)
            .unwrap();
        assert_eq!(forced.cached_sweep_groups(), 2);
    }

    #[test]
    fn a_group_that_refuses_the_offer_keeps_its_own_bits() {
        // Resonances over seven decades: the top group's modal evaluator
        // misses the lower group's gate, which then finishes its own
        // set-up from the Hessenberg form it validated against.
        let sys = resonant_system(48, 2, 1e7, 11);
        let pts = three_decades(1e2, 60);
        let top = sys.sweep_evaluator(pts[59].abs(), true, None).unwrap();
        assert!(top.is_modal(), "the top group offers its evaluator");
        let schur = sys
            .clone()
            .eval_batch_with(&pts, SweepStrategy::Schur, 1)
            .unwrap();
        for threads in [1, 2, 4] {
            let fresh = sys.clone();
            let auto = fresh
                .eval_batch_with(&pts, SweepStrategy::Auto, threads)
                .unwrap();
            assert_eq!(fresh.cached_sweep_groups(), 2);
            for (i, (h, want)) in auto.iter().zip(&schur).enumerate() {
                assert!(same_bits(h, want), "{threads} threads, point {i}");
            }
        }
    }

    #[test]
    fn mimo_dimensions_are_exposed() {
        let sys = DescriptorSystem::from_state_space(
            RMatrix::from_diag(&[-1.0, -2.0, -3.0]),
            RMatrix::zeros(3, 2),
            RMatrix::zeros(4, 3),
            RMatrix::zeros(4, 2),
        )
        .unwrap();
        assert_eq!(sys.inputs(), 2);
        assert_eq!(sys.outputs(), 4);
        assert_eq!(sys.order(), 3);
    }
}
