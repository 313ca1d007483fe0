//! Shared helpers of the bit-for-bit oracle tests that hold each
//! level-2 kernel to its indexed reference loop (DESIGN.md §6).

use proptest::prelude::*;

use crate::complex::{c64, Complex};

/// Xorshift stream of uniforms in `[-1, 1)`.
pub(crate) fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// The special value of class `kind`: NaN, +∞, −∞, −0.0 or a
/// subnormal.
pub(crate) fn special(kind: u8) -> f64 {
    match kind % 5 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => 4.9e-322,
    }
}

/// Up to `count` (position, class) pairs for [`apply_specials`], with
/// classes drawn from `kinds`.
pub(crate) fn specials(
    count: usize,
    kinds: std::ops::Range<u8>,
) -> impl Strategy<Value = Vec<(u32, u8)>> {
    (0..=count)
        .prop_flat_map(move |len| proptest::collection::vec((0u32..1_000_000, kinds.clone()), len))
}

/// `n` complex entries in `[-1, 1)²`, every third one scaled into the
/// subnormal range, with [`apply_specials`]`(specials)` on top.
pub(crate) fn complex_entries(n: usize, seed: u64, specials: &[(u32, u8)]) -> Vec<Complex> {
    let mut next = uniform(seed);
    let mut out: Vec<Complex> = (0..n)
        .map(|i| {
            let z = c64(next(), next());
            if i % 3 == (seed % 3) as usize {
                z.scale(1e-310)
            } else {
                z
            }
        })
        .collect();
    apply_specials(&mut out, specials);
    out
}

/// Overwrites, for each `(position, kind)`, the real (even position)
/// or imaginary (odd) part of entry `position mod len` with
/// [`special`]`(kind)`.
pub(crate) fn apply_specials(entries: &mut [Complex], specials: &[(u32, u8)]) {
    if entries.is_empty() {
        return;
    }
    let len = entries.len();
    for &(pos, kind) in specials {
        let z = &mut entries[pos as usize % len];
        if pos % 2 == 0 {
            z.re = special(kind);
        } else {
            z.im = special(kind);
        }
    }
}

/// Bitwise equality with NaN compared as a class: Rust leaves the sign
/// and payload of a NaN result unspecified.
pub(crate) fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// [`same_bits`] over every entry.
pub(crate) fn same_real_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same_bits(x, y))
}

/// [`same_bits`] over both parts of every entry.
pub(crate) fn same_complex_bits(a: &[Complex], b: &[Complex]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| same_bits(x.re, y.re) && same_bits(x.im, y.im))
}
