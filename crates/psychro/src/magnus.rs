//! The Magnus dew-point approximation used throughout the paper.
//!
//! §III-B of the paper gives the dew point of air at temperature `T` and
//! relative humidity `H` as
//!
//! ```text
//!               a · [ ln(H/100) + b·T/(a + T) ]
//! T_dew(T, H) = --------------------------------
//!               b − ln(H/100) − b·T/(a + T)
//! ```
//!
//! with `a = 243.12` and `b = 17.62` (the Magnus parameters over water,
//! valid roughly from −45 °C to +60 °C). This module implements that formula,
//! its inverse, and the associated saturation vapor pressure curve.

use crate::error::PsychroError;
use crate::units::{Celsius, Pascals, Percent};

/// Magnus parameter `a` in Celsius (the paper's value).
pub const MAGNUS_A: f64 = 243.12;

/// Magnus parameter `b`, dimensionless (the paper's value).
pub const MAGNUS_B: f64 = 17.62;

/// Saturation vapor pressure over water at 0 °C, in Pascals.
const P_SAT_AT_ZERO: f64 = 611.2;

/// The Magnus exponent `γ(T, H) = ln(H/100) + b·T/(a + T)`.
fn gamma(temperature: Celsius, relative_humidity: Percent) -> f64 {
    let t = temperature.get();
    relative_humidity.as_fraction().ln() + MAGNUS_B * t / (MAGNUS_A + t)
}

/// Computes the dew point of moist air via the paper's Magnus formula.
///
/// The dew point is the temperature to which the air must be cooled, at
/// constant pressure and water content, for condensation to begin. The
/// radiant-cooling module compares its mixed-water temperature against the
/// ceiling-surface dew point computed with exactly this formula.
///
/// # Panics
///
/// Panics with the [`PsychroError`] text if `relative_humidity` is not in
/// `(0, 100]` or `temperature` is outside the Magnus validity range of
/// −45 °C to +60 °C — use [`dew_point_checked`] to handle untrusted input.
///
/// # Example
///
/// ```
/// use bz_psychro::{dew_point, Celsius, Percent};
///
/// // Saturated air dews at its own temperature.
/// let dew = dew_point(Celsius::new(25.0), Percent::new(100.0));
/// assert!((dew.get() - 25.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn dew_point(temperature: Celsius, relative_humidity: Percent) -> Celsius {
    match dew_point_checked(temperature, relative_humidity) {
        Ok(dew) => dew,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`dew_point`].
///
/// # Errors
///
/// Returns [`PsychroError::HumidityOutOfRange`] if `relative_humidity` is
/// not in `(0, 100]`, and [`PsychroError::TemperatureOutOfRange`] if
/// `temperature` is outside the Magnus validity range of −45 °C to +60 °C.
pub fn dew_point_checked(
    temperature: Celsius,
    relative_humidity: Percent,
) -> Result<Celsius, PsychroError> {
    let h = relative_humidity.get();
    if !(h > 0.0 && h <= 100.0) {
        return Err(PsychroError::HumidityOutOfRange(h));
    }
    let t = temperature.get();
    if !(-45.0..=60.0).contains(&t) {
        return Err(PsychroError::TemperatureOutOfRange(t));
    }
    let g = gamma(temperature, relative_humidity);
    Ok(Celsius::new(MAGNUS_A * g / (MAGNUS_B - g)))
}

/// Inverts the Magnus formula: the relative humidity of air at
/// `temperature` whose dew point is `dew`.
///
/// Values are clamped to at most 100 % (a dew point above the dry-bulb
/// temperature is physically supersaturated).
///
/// # Example
///
/// ```
/// use bz_psychro::{dew_point, relative_humidity_from_dew_point, Celsius, Percent};
///
/// let t = Celsius::new(25.0);
/// let h = Percent::new(60.0);
/// let recovered = relative_humidity_from_dew_point(t, dew_point(t, h));
/// assert!((recovered.get() - 60.0).abs() < 1e-6);
/// ```
#[must_use]
pub fn relative_humidity_from_dew_point(temperature: Celsius, dew: Celsius) -> Percent {
    let t = temperature.get();
    let d = dew.get();
    let ln_h = MAGNUS_B * d / (MAGNUS_A + d) - MAGNUS_B * t / (MAGNUS_A + t);
    Percent::from_fraction(ln_h.exp().min(1.0))
}

/// Saturation vapor pressure over water at `temperature`, via the Magnus
/// curve consistent with [`dew_point`].
///
/// # Example
///
/// ```
/// use bz_psychro::{saturation_vapor_pressure, Celsius};
///
/// // ~3.17 kPa at 25 °C.
/// let p = saturation_vapor_pressure(Celsius::new(25.0));
/// assert!((p.get() - 3170.0).abs() < 30.0);
/// ```
#[must_use]
pub fn saturation_vapor_pressure(temperature: Celsius) -> Pascals {
    let t = temperature.get();
    Pascals::new(P_SAT_AT_ZERO * (MAGNUS_B * t / (MAGNUS_A + t)).exp())
}

/// Partial pressure of water vapor in air at `temperature` and
/// `relative_humidity`.
#[must_use]
pub fn vapor_pressure(temperature: Celsius, relative_humidity: Percent) -> Pascals {
    saturation_vapor_pressure(temperature) * relative_humidity.as_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_boundary_condition() {
        // The paper's outdoor condition: 28.9 °C with a 27.4 °C dew point.
        // That corresponds to ~92% relative humidity.
        let rh = relative_humidity_from_dew_point(Celsius::new(28.9), Celsius::new(27.4));
        assert!((rh.get() - 91.6).abs() < 1.0, "expected ~92% RH, got {rh}");
        let dew = dew_point(Celsius::new(28.9), rh);
        assert!((dew.get() - 27.4).abs() < 1e-6);
    }

    #[test]
    fn target_condition_is_about_65_percent() {
        // 25 °C / 18 °C dew point (the trial's target) is ~65% RH.
        let rh = relative_humidity_from_dew_point(Celsius::new(25.0), Celsius::new(18.0));
        assert!((rh.get() - 65.2).abs() < 1.0, "got {rh}");
    }

    #[test]
    fn dew_point_below_dry_bulb_when_unsaturated() {
        for t in [10.0, 20.0, 30.0, 40.0] {
            for h in [10.0, 40.0, 70.0, 99.0] {
                let dew = dew_point(Celsius::new(t), Percent::new(h));
                assert!(dew.get() < t, "dew {dew} not below {t}°C at {h}%");
            }
        }
    }

    #[test]
    fn dew_point_monotone_in_humidity() {
        let t = Celsius::new(25.0);
        let mut previous = f64::NEG_INFINITY;
        for h in (5..=100).step_by(5) {
            let dew = dew_point(t, Percent::new(f64::from(h))).get();
            assert!(dew > previous);
            previous = dew;
        }
    }

    #[test]
    fn checked_rejects_bad_humidity() {
        assert_eq!(
            dew_point_checked(Celsius::new(25.0), Percent::new(0.0)),
            Err(PsychroError::HumidityOutOfRange(0.0))
        );
        assert_eq!(
            dew_point_checked(Celsius::new(25.0), Percent::new(120.0)),
            Err(PsychroError::HumidityOutOfRange(120.0))
        );
        assert!(dew_point_checked(Celsius::new(25.0), Percent::new(-5.0)).is_err());
    }

    #[test]
    fn checked_rejects_bad_temperature() {
        assert!(dew_point_checked(Celsius::new(-60.0), Percent::new(50.0)).is_err());
        assert!(dew_point_checked(Celsius::new(80.0), Percent::new(50.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "relative humidity")]
    fn panicking_variant_panics() {
        let _ = dew_point(Celsius::new(25.0), Percent::new(0.0));
    }

    #[test]
    #[should_panic(expected = "Magnus validity range")]
    fn panicking_variant_names_a_temperature_out_of_range() {
        let _ = dew_point(Celsius::new(99.0), Percent::new(50.0));
    }

    #[test]
    fn saturation_pressure_reference_points() {
        // Well-known reference values for the Magnus curve.
        let p0 = saturation_vapor_pressure(Celsius::new(0.0)).get();
        assert!((p0 - 611.2).abs() < 1e-9);
        let p20 = saturation_vapor_pressure(Celsius::new(20.0)).get();
        assert!((p20 - 2333.0).abs() < 30.0, "got {p20}");
        let p30 = saturation_vapor_pressure(Celsius::new(30.0)).get();
        assert!((p30 - 4245.0).abs() < 60.0, "got {p30}");
    }

    #[test]
    fn vapor_pressure_scales_with_humidity() {
        let t = Celsius::new(25.0);
        let half = vapor_pressure(t, Percent::new(50.0)).get();
        let full = vapor_pressure(t, Percent::new(100.0)).get();
        assert!((half * 2.0 - full).abs() < 1e-9);
    }

    #[test]
    fn humidity_round_trip_is_clamped_at_saturation() {
        // A dew point above dry bulb must clamp to 100%.
        let rh = relative_humidity_from_dew_point(Celsius::new(20.0), Celsius::new(25.0));
        assert!((rh.get() - 100.0).abs() < 1e-9);
    }
}
