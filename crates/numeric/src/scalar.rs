use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::complex::{c64, Complex};

/// Field element over which [`Matrix`](crate::Matrix) and the generic
/// factorizations are defined.
///
/// Implemented for `f64` (real matrices) and [`Complex`] (the workhorse of
/// the Loewner algorithms). The trait is sealed: the numerical kernels make
/// floating-point assumptions that other fields would violate.
///
/// ```
/// use mfti_numeric::{Scalar, c64};
///
/// fn trace<T: Scalar>(diag: &[T]) -> T {
///     diag.iter().fold(T::ZERO, |acc, &x| acc + x)
/// }
/// assert_eq!(trace(&[1.0, 2.0]), 3.0);
/// assert_eq!(trace(&[c64(1.0, 1.0), c64(0.0, -1.0)]), c64(1.0, 0.0));
/// ```
pub trait Scalar:
    Copy
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Whether the scalar carries an imaginary component.
    const IS_COMPLEX: bool;

    /// Embeds a real number into the field.
    fn from_f64(x: f64) -> Self;
    /// Complex conjugate (identity for real scalars).
    fn conj(self) -> Self;
    /// Modulus (absolute value).
    fn abs(self) -> f64;
    /// Squared modulus.
    fn abs_sq(self) -> f64;
    /// Real part.
    fn re(self) -> f64;
    /// Imaginary part (zero for real scalars).
    fn im(self) -> f64;
    /// Scales by a real factor.
    fn scale(self, s: f64) -> Self;
    /// Principal square root *within the complex plane*; for `f64` inputs
    /// the argument must be non-negative (checked by `debug_assert!`).
    fn sqrt(self) -> Self;
    /// `true` when all components are finite.
    fn is_finite(self) -> bool;
    /// Promotes to [`Complex`].
    fn to_complex(self) -> Complex;
    /// Truncates to the real part (used when demoting provably-real
    /// results of complex computations).
    fn from_complex_lossy(z: Complex) -> Self;
    /// The slice itself when `Self` is `f64`, `None` for complex — the
    /// safe view through which generic code hands real operands to the
    /// `f64`-only SIMD kernels.
    fn real_slice(s: &[Self]) -> Option<&[f64]>;
    /// Mutable counterpart of [`Scalar::real_slice`].
    fn real_slice_mut(s: &mut [Self]) -> Option<&mut [f64]>;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for super::Complex {}
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const IS_COMPLEX: bool = false;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        self * self
    }
    #[inline]
    fn re(self) -> f64 {
        self
    }
    #[inline]
    fn im(self) -> f64 {
        0.0
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        self * s
    }
    #[inline]
    fn sqrt(self) -> Self {
        debug_assert!(self >= 0.0, "real sqrt of negative number");
        f64::sqrt(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn to_complex(self) -> Complex {
        c64(self, 0.0)
    }
    #[inline]
    fn from_complex_lossy(z: Complex) -> Self {
        z.re
    }
    #[inline]
    fn real_slice(s: &[Self]) -> Option<&[f64]> {
        Some(s)
    }
    #[inline]
    fn real_slice_mut(s: &mut [Self]) -> Option<&mut [f64]> {
        Some(s)
    }
}

impl Scalar for Complex {
    const ZERO: Self = Complex::ZERO;
    const ONE: Self = Complex::ONE;
    const IS_COMPLEX: bool = true;

    #[inline]
    fn from_f64(x: f64) -> Self {
        c64(x, 0.0)
    }
    #[inline]
    fn conj(self) -> Self {
        Complex::conj(self)
    }
    #[inline]
    fn abs(self) -> f64 {
        Complex::abs(self)
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        Complex::abs_sq(self)
    }
    #[inline]
    fn re(self) -> f64 {
        self.re
    }
    #[inline]
    fn im(self) -> f64 {
        self.im
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        Complex::scale(self, s)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Complex::sqrt(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
    #[inline]
    fn to_complex(self) -> Complex {
        self
    }
    #[inline]
    fn from_complex_lossy(z: Complex) -> Self {
        z
    }
    #[inline]
    fn real_slice(_: &[Self]) -> Option<&[f64]> {
        None
    }
    #[inline]
    fn real_slice_mut(_: &mut [Self]) -> Option<&mut [f64]> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_scalar_contract() {
        assert_eq!(<f64 as Scalar>::ZERO, 0.0);
        assert_eq!(Scalar::conj(-2.0f64), -2.0);
        assert_eq!(Scalar::abs(-2.0f64), 2.0);
        assert_eq!(Scalar::abs_sq(3.0f64), 9.0);
        assert_eq!(Scalar::im(5.0f64), 0.0);
        assert!(!Scalar::is_finite(f64::NAN));
        assert_eq!(<f64 as Scalar>::from_complex_lossy(c64(2.0, 9.0)), 2.0);
        let mut xs = [1.0f64, -2.0];
        assert_eq!(f64::real_slice(&xs), Some(&[1.0, -2.0][..]));
        f64::real_slice_mut(&mut xs).expect("f64 is real")[1] = 3.0;
        assert_eq!(xs, [1.0, 3.0]);
    }

    #[test]
    fn complex_scalar_contract() {
        let z = c64(1.0, -2.0);
        assert_eq!(Scalar::conj(z), c64(1.0, 2.0));
        assert_eq!(Scalar::re(z), 1.0);
        assert_eq!(Scalar::im(z), -2.0);
        const _: () = assert!(Complex::IS_COMPLEX && !f64::IS_COMPLEX);
        assert_eq!(Scalar::to_complex(z), z);
        assert!(Complex::real_slice(&[z]).is_none());
        assert!(Complex::real_slice_mut(&mut [z]).is_none());
    }

    #[test]
    fn generic_code_compiles_over_both_fields() {
        fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
            a.iter()
                .zip(b)
                .fold(T::ZERO, |acc, (&x, &y)| acc + x.conj() * y)
        }
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let z = dot(&[c64(0.0, 1.0)], &[c64(0.0, 1.0)]);
        assert_eq!(z, c64(1.0, 0.0));
    }
}
