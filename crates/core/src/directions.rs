//! Tangential interpolation directions.
//!
//! MFTI probes each sample matrix `S(f_i)` through a *matrix* direction
//! pair: a right block `R_i ∈ ℝ^{m×t_i}` and a left block
//! `L_i ∈ ℝ^{t_i×p}` (Algorithm 1 step 1 asks for orthonormal blocks).
//! With `t_i = min(m, p)` and full rank the whole matrix is used; with
//! `t_i = 1` the scheme degenerates to VFTI's vector directions.
//!
//! Real directions are used on purpose: conjugate data then satisfy
//! `R_{2i} = R_{2i-1}` literally as printed in Eq. (6) (see DESIGN.md §5).

use mfti_numeric::{Qr, RMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::MftiError;

/// Strategy for generating interpolation direction blocks.
///
/// Both strategies are **prefix-stable**: the directions of pair `j`
/// depend only on `j` (and the seed), never on how many pairs follow.
/// Growing a sample set therefore leaves the directions of the existing
/// pairs untouched, which is what lets
/// [`FitSession`](crate::FitSession) extend its Loewner pencil
/// incrementally instead of rebuilding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DirectionKind {
    /// Cycled identity columns/rows: sample `i` probes columns
    /// `(offset + 0..t_i) mod m` — the standard choice in the Loewner
    /// literature, and exactly the VFTI baseline when `t_i = 1`.
    CyclicIdentity,
    /// Random orthonormal blocks (Gaussian + QR, seeded per pair).
    /// Spreads information across all ports even when `t_i < min(m, p)`.
    RandomOrthonormal {
        /// RNG seed; fixed seed ⇒ reproducible fits.
        seed: u64,
    },
}

impl Default for DirectionKind {
    fn default() -> Self {
        DirectionKind::RandomOrthonormal { seed: 0x4d465449 } // "MFTI"
    }
}

/// Stream position a direction sequence starts from — the windowed-
/// streaming generalization of prefix stability. A sliding
/// [`FitSession`](crate::FitSession) rebuilds its tangential data over
/// the *live window only*, but the directions of a surviving pair must
/// stay what they were when the pair first streamed in; the origin
/// records how much evicted history precedes the window so generation
/// resumes mid-stream instead of restarting at pair 0.
///
/// `pairs` offsets [`DirectionKind::RandomOrthonormal`]'s per-pair RNG
/// stream index; `cols` offsets [`DirectionKind::CyclicIdentity`]'s
/// cumulative column offset (the sum of evicted block widths `t_j`).
/// `DirectionOrigin::default()` is the start of the stream, where
/// generation is identical to the un-originated form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectionOrigin {
    /// Number of evicted pairs preceding the first generated pair.
    pub pairs: usize,
    /// Sum of the evicted pairs' block widths (cyclic column offset).
    pub cols: usize,
}

/// Generated direction blocks for a whole sample set.
#[derive(Debug, Clone)]
pub struct DirectionSet {
    /// Right blocks `R_i` (`m × t_i`), one per *pair* of conjugate
    /// right triples.
    pub right: Vec<RMatrix>,
    /// Left blocks `L_i` (`t_i × p`), one per pair of conjugate left
    /// triples.
    pub left: Vec<RMatrix>,
}

/// Generates orthonormal direction blocks.
///
/// `right_ts[j]` and `left_ts[j]` give the block widths of the `j`-th
/// right/left sample pair; the two lists may have different lengths when
/// the right and left sides use different sample counts.
///
/// # Errors
///
/// Returns [`MftiError::InvalidWeights`] when any `t` is outside
/// `[1, min(m, p)]`.
pub fn generate_directions(
    kind: DirectionKind,
    outputs: usize,
    inputs: usize,
    right_ts: &[usize],
    left_ts: &[usize],
) -> Result<DirectionSet, MftiError> {
    generate_directions_from(
        kind,
        outputs,
        inputs,
        right_ts,
        left_ts,
        DirectionOrigin::default(),
    )
}

/// [`generate_directions`] resuming mid-stream at `origin` — pair `j`
/// of the output gets the directions that stream position
/// `origin.pairs + j` (cyclic column offset `origin.cols + Σ_{i<j} t_i`)
/// would have received in an unwindowed run, so a sliding window's
/// surviving pairs keep their original blocks (DESIGN.md §9).
///
/// # Errors
///
/// See [`generate_directions`].
pub fn generate_directions_from(
    kind: DirectionKind,
    outputs: usize,
    inputs: usize,
    right_ts: &[usize],
    left_ts: &[usize],
    origin: DirectionOrigin,
) -> Result<DirectionSet, MftiError> {
    for &t in right_ts.iter().chain(left_ts) {
        check_block_width(t, outputs, inputs)?;
    }
    match kind {
        DirectionKind::CyclicIdentity => {
            let mut right = Vec::with_capacity(right_ts.len());
            let mut offset = origin.cols;
            for &t in right_ts {
                right.push(cyclic_columns(inputs, t, offset));
                offset += t;
            }
            let mut left = Vec::with_capacity(left_ts.len());
            let mut offset = origin.cols;
            for &t in left_ts {
                left.push(cyclic_columns(outputs, t, offset).transpose());
                offset += t;
            }
            Ok(DirectionSet { right, left })
        }
        DirectionKind::RandomOrthonormal { seed } => {
            // One RNG stream per (side, stream-position pair) keeps
            // every block a pure function of its position: appending
            // pairs to a session can never perturb the blocks already
            // woven into a pencil, and evicting leading pairs (origin
            // advance) never perturbs the survivors.
            let right = right_ts
                .iter()
                .enumerate()
                .map(|(j, &t)| {
                    random_orthonormal(&mut block_rng(seed, 0, origin.pairs + j), inputs, t)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let left = left_ts
                .iter()
                .enumerate()
                .map(|(j, &t)| {
                    Ok(
                        random_orthonormal(&mut block_rng(seed, 1, origin.pairs + j), outputs, t)?
                            .transpose(),
                    )
                })
                .collect::<Result<Vec<_>, MftiError>>()?;
            Ok(DirectionSet { right, left })
        }
    }
}

/// [`MftiError::InvalidWeights`] unless the block width `t` lies in
/// `[1, min(m, p)]`: the range every direction block must fit, checked
/// wherever a width is read before the blocks exist.
pub(crate) fn check_block_width(t: usize, outputs: usize, inputs: usize) -> Result<(), MftiError> {
    let t_max = outputs.min(inputs);
    if t == 0 || t > t_max {
        return Err(MftiError::InvalidWeights {
            what: format!("t = {t} outside [1, min(m,p)] = [1, {t_max}]"),
        });
    }
    Ok(())
}

/// Independent RNG for direction block `index` of one side (0 = right,
/// 1 = left), derived from the user seed by a splitmix64 finalizer.
fn block_rng(seed: u64, side: u64, index: usize) -> StdRng {
    let mut z = seed
        ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(side.wrapping_add(1))
        ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `dim × t` matrix whose columns are identity columns
/// `e_{(offset+c) mod dim}`.
fn cyclic_columns(dim: usize, t: usize, offset: usize) -> RMatrix {
    RMatrix::from_fn(
        dim,
        t,
        |i, c| {
            if i == (offset + c) % dim {
                1.0
            } else {
                0.0
            }
        },
    )
}

/// Orthonormal `dim × t` block via QR of a Gaussian matrix.
fn random_orthonormal(rng: &mut StdRng, dim: usize, t: usize) -> Result<RMatrix, MftiError> {
    loop {
        let g = RMatrix::from_fn(dim, t, |_, _| {
            // Box–Muller without the rand_distr dependency.
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            (-2.0f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        });
        let qr = Qr::compute(&g)?;
        let q = qr.q_thin();
        // Degenerate draws (rank-deficient Gaussian) are astronomically
        // unlikely; retry if the factor is not orthonormal.
        let qtq = q.transpose().matmul(&q)?;
        if qtq.approx_eq(&RMatrix::identity(t), 1e-10) {
            return Ok(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_orthonormal_cols(m: &RMatrix) {
        let g = m.transpose().matmul(m).unwrap();
        assert!(
            g.approx_eq(&RMatrix::identity(m.cols()), 1e-12),
            "columns not orthonormal: {g:?}"
        );
    }

    #[test]
    fn cyclic_identity_directions_cycle_through_ports() {
        let set = generate_directions(DirectionKind::CyclicIdentity, 3, 3, &[1, 1, 1, 1], &[1, 1])
            .unwrap();
        assert_eq!(set.right.len(), 4);
        // Sample 0 probes e0, sample 1 probes e1, sample 3 wraps to e0.
        assert_eq!(set.right[0][(0, 0)], 1.0);
        assert_eq!(set.right[1][(1, 0)], 1.0);
        assert_eq!(set.right[3][(0, 0)], 1.0);
        for r in &set.right {
            check_orthonormal_cols(r);
        }
        for l in &set.left {
            check_orthonormal_cols(&l.transpose());
        }
    }

    #[test]
    fn full_weight_cyclic_blocks_are_permutations() {
        let set = generate_directions(DirectionKind::CyclicIdentity, 4, 4, &[4, 4], &[4]).unwrap();
        for r in &set.right {
            check_orthonormal_cols(r);
            assert_eq!(r.dims(), (4, 4));
        }
    }

    #[test]
    fn random_orthonormal_blocks_have_orthonormal_columns() {
        let set = generate_directions(
            DirectionKind::RandomOrthonormal { seed: 7 },
            5,
            4,
            &[2, 3, 4],
            &[1, 2],
        )
        .unwrap();
        for r in &set.right {
            assert_eq!(r.rows(), 4);
            check_orthonormal_cols(r);
        }
        for l in &set.left {
            assert_eq!(l.cols(), 5);
            check_orthonormal_cols(&l.transpose());
        }
    }

    #[test]
    fn random_directions_are_seed_deterministic() {
        let a = generate_directions(
            DirectionKind::RandomOrthonormal { seed: 1 },
            3,
            3,
            &[2],
            &[2],
        )
        .unwrap();
        let b = generate_directions(
            DirectionKind::RandomOrthonormal { seed: 1 },
            3,
            3,
            &[2],
            &[2],
        )
        .unwrap();
        assert_eq!(a.right[0], b.right[0]);
        assert_eq!(a.left[0], b.left[0]);
    }

    #[test]
    fn random_directions_are_prefix_stable() {
        // Generating more pairs must not disturb the earlier blocks —
        // the property FitSession's incremental pencil growth rests on.
        let short = generate_directions(
            DirectionKind::RandomOrthonormal { seed: 9 },
            3,
            3,
            &[2, 2],
            &[2, 2],
        )
        .unwrap();
        let long = generate_directions(
            DirectionKind::RandomOrthonormal { seed: 9 },
            3,
            3,
            &[2, 2, 2, 2],
            &[2, 2, 2, 2],
        )
        .unwrap();
        for j in 0..2 {
            assert_eq!(short.right[j], long.right[j]);
            assert_eq!(short.left[j], long.left[j]);
        }
        // Sides and pair indices draw from distinct streams.
        assert_ne!(long.right[0], long.right[1]);
        assert_ne!(long.right[0], long.left[0].transpose());
    }

    #[test]
    fn an_origin_resumes_the_stream_where_eviction_left_it() {
        // Random: pair j at origin {pairs: 2} equals pair 2+j from the
        // start of the stream.
        let full = generate_directions(
            DirectionKind::RandomOrthonormal { seed: 11 },
            3,
            3,
            &[2, 2, 2, 2],
            &[2, 2, 2, 2],
        )
        .unwrap();
        let windowed = generate_directions_from(
            DirectionKind::RandomOrthonormal { seed: 11 },
            3,
            3,
            &[2, 2],
            &[2, 2],
            DirectionOrigin { pairs: 2, cols: 4 },
        )
        .unwrap();
        for j in 0..2 {
            assert_eq!(windowed.right[j], full.right[2 + j]);
            assert_eq!(windowed.left[j], full.left[2 + j]);
        }

        // Cyclic: the column offset resumes from the evicted widths.
        let full = generate_directions(
            DirectionKind::CyclicIdentity,
            3,
            3,
            &[1, 1, 1, 1],
            &[1, 1, 1, 1],
        )
        .unwrap();
        let windowed = generate_directions_from(
            DirectionKind::CyclicIdentity,
            3,
            3,
            &[1, 1],
            &[1, 1],
            DirectionOrigin { pairs: 2, cols: 2 },
        )
        .unwrap();
        for j in 0..2 {
            assert_eq!(windowed.right[j], full.right[2 + j]);
            assert_eq!(windowed.left[j], full.left[2 + j]);
        }
    }

    #[test]
    fn weights_outside_range_are_rejected() {
        assert!(generate_directions(DirectionKind::CyclicIdentity, 3, 3, &[0], &[1]).is_err());
        assert!(generate_directions(DirectionKind::CyclicIdentity, 3, 3, &[1], &[4]).is_err());
        // min(m, p) bounds the weight even when one side is wider.
        assert!(generate_directions(DirectionKind::CyclicIdentity, 2, 5, &[3], &[1]).is_err());
    }
}
