//! Occupant comfort targets.
//!
//! The occupant sets a preferred temperature and humidity (§III); the
//! paper's trial uses 25 °C with an 18 °C dew point, plus an air-quality
//! ceiling on CO₂.

use bz_psychro::{
    dew_point, dew_point_checked, relative_humidity_from_dew_point, Celsius, Percent, Ppm,
};

/// The occupant's comfort configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComfortTargets {
    /// Preferred dry-bulb temperature `T_pref`.
    pub temperature: Celsius,
    /// Preferred relative humidity `H_pref` (at `T_pref`).
    pub humidity: Percent,
    /// CO₂ concentration above which ventilation must dilute.
    pub co2_limit: Ppm,
}

impl ComfortTargets {
    /// The paper's trial targets: 25 °C and an 18 °C dew point
    /// (≈ 65 % RH at 25 °C), with a conventional 800 ppm CO₂ ceiling.
    #[must_use]
    pub fn paper_trial() -> Self {
        Self::from_dew_point(Celsius::new(25.0), Celsius::new(18.0), Ppm::new(800.0))
    }

    /// Builds targets from a preferred temperature and *dew point*.
    #[must_use]
    pub fn from_dew_point(temperature: Celsius, dew: Celsius, co2_limit: Ppm) -> Self {
        Self {
            temperature,
            humidity: relative_humidity_from_dew_point(temperature, dew),
            co2_limit,
        }
    }

    /// The preferred dew point `T_p_dew` computed from `T_pref` and
    /// `H_pref` (§III-C).
    #[must_use]
    pub fn preferred_dew_point(&self) -> Celsius {
        dew_point(self.temperature, self.humidity)
    }
}

impl bz_state::Persist for ComfortTargets {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put(&self.temperature);
        w.put(&self.humidity);
        w.put(&self.co2_limit);
    }

    /// Refuses targets without a preferred dew point: a temperature
    /// outside −45 °C to 60 °C or a humidity outside (0, 100] %. The
    /// controllers compute that dew point every cycle, and `bz_psychro`
    /// asserts against such input.
    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let targets = Self {
            temperature: r.take()?,
            humidity: r.take()?,
            co2_limit: r.take()?,
        };
        if let Err(e) = dew_point_checked(targets.temperature, targets.humidity) {
            return Err(bz_state::StateError::Invalid {
                what: "ComfortTargets",
                reason: format!("no preferred dew point: {e}"),
            });
        }
        Ok(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_trial_round_trips_dew_point() {
        let t = ComfortTargets::paper_trial();
        assert!((t.temperature.get() - 25.0).abs() < 1e-12);
        assert!((t.preferred_dew_point().get() - 18.0).abs() < 1e-6);
        assert!((t.humidity.get() - 65.2).abs() < 1.0);
        assert_eq!(t.co2_limit, Ppm::new(800.0));
    }

    #[test]
    fn restore_refuses_targets_without_a_dew_point() {
        use bz_state::Persist;
        let restore = |temperature: f64, humidity: f64| {
            let targets = ComfortTargets {
                temperature: Celsius::new(temperature),
                humidity: Percent::new(humidity),
                co2_limit: Ppm::new(800.0),
            };
            let mut w = bz_state::Writer::new();
            targets.save(&mut w);
            let loaded = ComfortTargets::load(&mut bz_state::Reader::new(w.as_bytes()));
            if let Ok(restored) = &loaded {
                // The ventilation controller reads it every cycle.
                let _ = restored.preferred_dew_point();
            }
            loaded.map_err(|e| e.to_string())
        };
        for (t, h) in [
            (6400.0, 65.0),
            (25.0, -65.0),
            (25.0, 4.3e6),
            (25.0, f64::NAN),
        ] {
            let err = restore(t, h).unwrap_err();
            assert!(err.contains("no preferred dew point"), "{err}");
        }
        assert!(restore(25.0, 65.2).is_ok());
    }

    #[test]
    fn custom_targets() {
        let t =
            ComfortTargets::from_dew_point(Celsius::new(23.0), Celsius::new(15.0), Ppm::new(900.0));
        assert!((t.preferred_dew_point().get() - 15.0).abs() < 1e-6);
    }
}
