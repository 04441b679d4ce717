//! Physical quantity newtypes for the IC-NoC reproduction.
//!
//! The IC-NoC timing analysis (Bjerregaard et al., DATE 2007) mixes times in
//! picoseconds, wire lengths in millimetres, frequencies in gigahertz,
//! distributed wire capacitance/resistance, and silicon areas. Using bare
//! `f64`s for all of these is a recipe for the exact class of unit-confusion
//! bug a timing-signoff tool must never have, so every quantity gets its own
//! [newtype](https://rust-lang.github.io/api-guidelines/type-safety.html)
//! with only the physically meaningful operations defined.
//!
//! # Example
//!
//! ```
//! use icnoc_units::{Gigahertz, Millimeters, Picoseconds};
//!
//! let period = Gigahertz::new(1.0).period();
//! assert_eq!(period, Picoseconds::new(1000.0));
//! let half = period.halved();
//! assert_eq!(half, Picoseconds::new(500.0));
//! let wire = Millimeters::new(1.25) + Millimeters::new(0.75);
//! assert_eq!(wire, Millimeters::new(2.0));
//! ```
//!
//! All quantities are `Copy` and compare with ordinary float semantics; the
//! constructors reject NaN (see [`Picoseconds::new`] for the policy shared by
//! every type).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Defines an `f64`-backed physical quantity newtype with the standard set
/// of arithmetic and formatting impls.
///
/// Generated API per type `Q`:
/// * `Q::new(f64) -> Q` (panics on NaN), `Q::ZERO`, `.value() -> f64`
/// * `Q + Q`, `Q - Q`, `Q * f64`, `f64 * Q`, `Q / f64`, `Q / Q -> f64`
/// * `-Q`, `Sum`, `PartialOrd`, `Display` with the unit suffix
/// * `.abs()`, `.min(Q)`, `.max(Q)`, `.clamp(Q, Q)`, `.is_negative()`
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value in the canonical unit.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN. Infinite values are allowed: the
            /// timing solvers use `+inf` as "no constraint".
            #[must_use]
            #[track_caller]
            pub fn new(value: f64) -> Self {
                assert!(!value.is_nan(), concat!(stringify!($name), " cannot be NaN"));
                Self(value)
            }

            /// Returns the raw value in the canonical unit.
            #[must_use]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds inverted");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the value is strictly below zero.
            #[must_use]
            pub fn is_negative(self) -> bool {
                self.0 < 0.0
            }

            /// Returns `true` if the value is finite (not ±∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// `n` evenly spaced samples from `self` to `end` inclusive —
            /// the standard way to declare a swept axis of this quantity
            /// in a design-space grid.
            ///
            /// `n == 1` yields just `self`.
            ///
            /// # Panics
            ///
            /// Panics if `n` is zero.
            #[must_use]
            #[track_caller]
            pub fn linspace(self, end: Self, n: usize) -> Vec<Self> {
                assert!(n > 0, "linspace needs at least one sample");
                if n == 1 {
                    return vec![self];
                }
                let step = (end.0 - self.0) / (n - 1) as f64;
                (0..n)
                    .map(|i| {
                        if i + 1 == n {
                            end // land exactly on the endpoint
                        } else {
                            Self::new(self.0 + step * i as f64)
                        }
                    })
                    .collect()
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self::new(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name::new(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self::new(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

mod area;
mod electrical;
mod frequency;
mod length;
mod power;
mod time;

pub use area::{SquareMicrometers, SquareMillimeters};
pub use electrical::{KiloOhmsPerMm, Picofarads, PicofaradsPerMm};
pub use frequency::Gigahertz;
pub use length::{Micrometers, Millimeters};
pub use power::{Microwatts, Milliwatts, Picojoules};
pub use time::{Nanoseconds, Picoseconds};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(Picoseconds::new(60.0).to_string(), "60 ps");
        assert_eq!(format!("{:.2}", Millimeters::new(1.25)), "1.25 mm");
        assert_eq!(Gigahertz::new(1.8).to_string(), "1.8 GHz");
    }

    #[test]
    fn quantities_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Picoseconds>();
        assert_send_sync::<Millimeters>();
        assert_send_sync::<Gigahertz>();
        assert_send_sync::<SquareMillimeters>();
    }

    #[test]
    #[should_panic(expected = "cannot be NaN")]
    fn nan_is_rejected() {
        let _ = Picoseconds::new(f64::NAN);
    }

    #[test]
    fn linspace_covers_both_endpoints_evenly() {
        let axis = Gigahertz::new(0.8).linspace(Gigahertz::new(1.2), 5);
        assert_eq!(axis.len(), 5);
        assert_eq!(axis[0], Gigahertz::new(0.8));
        assert_eq!(axis[4], Gigahertz::new(1.2));
        assert!((axis[2].value() - 1.0).abs() < 1e-12);
        // Degenerate single-sample axis is just the start.
        assert_eq!(
            Millimeters::new(10.0).linspace(Millimeters::new(20.0), 1),
            vec![Millimeters::new(10.0)]
        );
        // Reversed axes are allowed (descending sweeps).
        let down = Picoseconds::new(500.0).linspace(Picoseconds::new(400.0), 3);
        assert_eq!(down[1], Picoseconds::new(450.0));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn linspace_rejects_zero_samples() {
        let _ = Gigahertz::new(1.0).linspace(Gigahertz::new(2.0), 0);
    }

    #[test]
    fn ratio_of_like_quantities_is_dimensionless() {
        let ratio = Millimeters::new(3.0) / Millimeters::new(1.5);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Picoseconds = [10.0, 20.0, 30.0]
            .iter()
            .map(|&v| Picoseconds::new(v))
            .sum();
        assert_eq!(total, Picoseconds::new(60.0));
    }

    #[test]
    fn min_max_clamp() {
        let a = Picoseconds::new(10.0);
        let b = Picoseconds::new(20.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Picoseconds::new(25.0).clamp(a, b), b);
        assert_eq!(Picoseconds::new(5.0).clamp(a, b), a);
    }

    #[test]
    fn negative_detection() {
        assert!(Picoseconds::new(-540.0).is_negative());
        assert!(!Picoseconds::ZERO.is_negative());
    }

    #[test]
    fn add_sub_neg_assign_ops() {
        let mut t = Picoseconds::new(100.0);
        t += Picoseconds::new(20.0);
        assert_eq!(t, Picoseconds::new(120.0));
        t -= Picoseconds::new(70.0);
        assert_eq!(t, Picoseconds::new(50.0));
        assert_eq!(-t, Picoseconds::new(-50.0));
        assert_eq!(t * 2.0, Picoseconds::new(100.0));
        assert_eq!(2.0 * t, Picoseconds::new(100.0));
        assert_eq!(t / 2.0, Picoseconds::new(25.0));
    }
}
