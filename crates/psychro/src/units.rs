//! Thermodynamic unit newtypes.
//!
//! Every quantity exchanged between BubbleZERO subsystems is wrapped in a
//! dedicated newtype so that a water flow rate can never be passed where an
//! air flow rate is expected, a Kelvin where a Celsius is expected, and so
//! on. The wrappers are `Copy` and essentially free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the boilerplate shared by all scalar unit newtypes: a
/// constructor, an accessor, `Display`, and ordering helpers.
macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw `f64` value in this unit.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
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
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3}{}", self.0, $suffix)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl bz_state::Persist for $name {
            fn save(&self, w: &mut bz_state::Writer) {
                w.put_f64(self.0);
            }

            fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
                Ok(Self(r.take_f64()?))
            }
        }
    };
}

/// Adds same-type addition/subtraction and summation to a unit newtype,
/// appropriate for extensive quantities (energy, mass, flow, power).
macro_rules! additive_unit {
    ($name:ident) => {
        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

scalar_unit!(
    /// A temperature in degrees Celsius.
    Celsius,
    "°C"
);

scalar_unit!(
    /// An absolute temperature in Kelvin.
    Kelvin,
    "K"
);

scalar_unit!(
    /// A temperature difference in Kelvin (equivalently, Celsius degrees).
    DeltaCelsius,
    "ΔK"
);

scalar_unit!(
    /// A relative humidity or other percentage in `[0, 100]`.
    Percent,
    "%"
);

scalar_unit!(
    /// An absolute pressure in Pascals.
    Pascals,
    "Pa"
);

scalar_unit!(
    /// A humidity ratio: kilograms of water vapor per kilogram of dry air.
    KgPerKg,
    " kg/kg"
);

scalar_unit!(
    /// A gas concentration in parts per million (used for CO₂).
    Ppm,
    " ppm"
);

scalar_unit!(
    /// A thermal or electrical power in Watts.
    Watts,
    " W"
);

scalar_unit!(
    /// An energy in Joules.
    Joules,
    " J"
);

scalar_unit!(
    /// A mass in kilograms.
    Kilograms,
    " kg"
);

scalar_unit!(
    /// A mass flow rate in kilograms per second.
    KgPerSecond,
    " kg/s"
);

scalar_unit!(
    /// A volumetric flow rate in cubic meters per second.
    CubicMetersPerSecond,
    " m³/s"
);

scalar_unit!(
    /// A control voltage (the BubbleZERO DC pumps take 0–5 V).
    Volts,
    " V"
);

scalar_unit!(
    /// A duration in seconds (plain physics durations; the discrete
    /// simulation clock uses `bz_simcore::SimTime` instead).
    Seconds,
    " s"
);

additive_unit!(DeltaCelsius);
additive_unit!(Percent);
additive_unit!(Pascals);
additive_unit!(KgPerKg);
additive_unit!(Ppm);
additive_unit!(Watts);
additive_unit!(Joules);
additive_unit!(Kilograms);
additive_unit!(KgPerSecond);
additive_unit!(CubicMetersPerSecond);
additive_unit!(Volts);
additive_unit!(Seconds);

impl Celsius {
    /// Converts this temperature to Kelvin.
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.0 + 273.15)
    }
}

impl Sub for Celsius {
    type Output = DeltaCelsius;
    fn sub(self, rhs: Self) -> DeltaCelsius {
        DeltaCelsius::new(self.0 - rhs.0)
    }
}

impl Add<DeltaCelsius> for Celsius {
    type Output = Celsius;
    fn add(self, rhs: DeltaCelsius) -> Celsius {
        Celsius::new(self.0 + rhs.get())
    }
}

impl Sub<DeltaCelsius> for Celsius {
    type Output = Celsius;
    fn sub(self, rhs: DeltaCelsius) -> Celsius {
        Celsius::new(self.0 - rhs.get())
    }
}

impl Sub for Kelvin {
    type Output = DeltaCelsius;
    fn sub(self, rhs: Self) -> DeltaCelsius {
        DeltaCelsius::new(self.0 - rhs.0)
    }
}

impl Percent {
    /// Converts a percentage to the equivalent fraction in `[0, 1]`.
    #[must_use]
    pub fn as_fraction(self) -> f64 {
        self.0 / 100.0
    }

    /// Builds a percentage from a fraction in `[0, 1]`.
    #[must_use]
    pub fn from_fraction(fraction: f64) -> Self {
        Self(fraction * 100.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.0 * rhs.get())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.0 / rhs.get())
    }
}

impl Div<Watts> for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Celsius::new(25.0);
        assert!((t.to_kelvin().get() - 298.15).abs() < 1e-12);
    }

    #[test]
    fn celsius_difference_is_delta() {
        let dt = Celsius::new(28.9) - Celsius::new(25.0);
        assert!((dt.get() - 3.9).abs() < 1e-12);
    }

    #[test]
    fn celsius_plus_delta() {
        let t = Celsius::new(18.0) + DeltaCelsius::new(-2.0);
        assert!((t.get() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn percent_fraction_round_trip() {
        let p = Percent::new(65.0);
        assert!((p.as_fraction() - 0.65).abs() < 1e-12);
        assert!((Percent::from_fraction(0.65).get() - 65.0).abs() < 1e-12);
    }

    #[test]
    fn watts_times_seconds_is_joules() {
        let e = Watts::new(54.0e-3) * Seconds::new(2.0);
        assert!((e.get() - 0.108).abs() < 1e-12);
    }

    #[test]
    fn joules_over_watts_is_seconds() {
        let t = Joules::new(100.0) / Watts::new(25.0);
        assert!((t.get() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn additive_units_sum() {
        let total: Watts = [Watts::new(1.0), Watts::new(2.5)].into_iter().sum();
        assert!((total.get() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{}", Celsius::new(25.0)), "25.000°C");
        assert_eq!(format!("{}", Watts::new(1.5)), "1.500 W");
    }

    #[test]
    fn min_max_behave() {
        let a = Celsius::new(18.0);
        let b = Celsius::new(20.5);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
