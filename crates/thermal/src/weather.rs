//! Tropical outdoor boundary conditions.
//!
//! The paper's trial ran on a Singapore afternoon with 28.9 °C outdoor
//! temperature and a 27.4 °C dew point. The driver superimposes a gentle
//! diurnal swing and a slow Ornstein–Uhlenbeck wander on those anchors so
//! multi-hour runs see realistic (but reproducible) variation.

use bz_psychro::{Celsius, Ppm};
use bz_simcore::{Rng, SimTime};

use crate::zone::{AirState, RESTORABLE_AIR_C};

/// Configuration for the synthetic Singapore weather driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherConfig {
    /// Mean outdoor dry-bulb temperature, °C.
    pub mean_temperature: f64,
    /// Mean outdoor dew point, °C.
    pub mean_dew_point: f64,
    /// Amplitude of the diurnal temperature swing, K.
    pub diurnal_amplitude: f64,
    /// Hour of day (0–24) at which the trial starts; the paper's trial
    /// starts at 13:00, near the daily temperature peak.
    pub start_hour: f64,
    /// Standard deviation of the slow stochastic wander, K.
    pub wander_sd: f64,
    /// Outdoor CO₂ concentration, ppm.
    pub co2: f64,
}

impl WeatherConfig {
    /// The paper's trial boundary condition: 28.9 °C / 27.4 °C dew point at
    /// 13:00 local time, ±1.2 K diurnal swing.
    #[must_use]
    pub fn singapore_afternoon() -> Self {
        Self {
            mean_temperature: 28.9,
            mean_dew_point: 27.4,
            diurnal_amplitude: 1.2,
            start_hour: 13.0,
            wander_sd: 0.15,
            co2: 410.0,
        }
    }

    /// The deterministic (mean + diurnal) outdoor temperature at `now`,
    /// °C — the weather process of [`Weather::sample`] with the
    /// stochastic wander stripped out. This is the read-only forecast
    /// hook `bz-predict` rolls its horizon against: a predictor may know
    /// the climate, but not the realized noise.
    #[must_use]
    pub fn nominal_temperature(&self, now: SimTime) -> f64 {
        let hour = self.start_hour + now.as_hours_f64();
        let phase = (hour - 14.5) / 24.0 * std::f64::consts::TAU;
        self.mean_temperature + self.diurnal_amplitude * phase.cos()
    }
}

/// Synthetic outdoor weather process.
#[derive(Debug, Clone)]
pub struct Weather {
    config: WeatherConfig,
    rng: Rng,
    /// Ornstein–Uhlenbeck wander state, K.
    wander: f64,
    /// Time of the last update, for integrating the wander.
    last_update: SimTime,
}

impl Weather {
    /// Creates a weather process with its own random stream.
    #[must_use]
    pub fn new(config: WeatherConfig, rng: Rng) -> Self {
        Self {
            config,
            rng,
            wander: 0.0,
            last_update: SimTime::ZERO,
        }
    }

    /// Advances the stochastic component to `now` and returns the outdoor
    /// air state. Must be called with non-decreasing times.
    pub fn sample(&mut self, now: SimTime) -> AirState {
        let dt = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        if self.config.wander_sd > 0.0 && dt > 0.0 {
            // OU process with a 30-minute relaxation time.
            let tau = 1_800.0;
            let decay = (-dt / tau).exp();
            let step_sd = self.config.wander_sd * (1.0 - decay * decay).sqrt();
            self.wander = self.wander * decay + self.rng.normal(0.0, step_sd);
        }

        let hour = self.config.start_hour + now.as_hours_f64();
        // Daily peak near 14:30, trough near 02:30.
        let phase = (hour - 14.5) / 24.0 * std::f64::consts::TAU;
        let diurnal = self.config.diurnal_amplitude * phase.cos();
        let temperature = self.config.mean_temperature + diurnal + self.wander;
        // The tropical dew point tracks the temperature swing weakly.
        let dew =
            (self.config.mean_dew_point + 0.3 * diurnal + 0.5 * self.wander).min(temperature - 0.2);
        AirState::from_dew_point(
            Celsius::new(temperature),
            Celsius::new(dew),
            Ppm::new(self.config.co2),
        )
    }

    /// Serializes the stochastic state (random stream, wander, clock).
    /// The configuration is rebuilt from config on restore, not persisted.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.rng.save(w);
        w.put_f64(self.wander);
        self.last_update.save(w);
    }

    /// Restores the stochastic state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse, and refuses a
    /// wander that puts the outdoor air outside −45 °C to 60 °C at some
    /// hour of the day: the outdoor dew point follows the wander, and
    /// `bz_psychro` asserts against air that far out.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.rng = Persist::load(r)?;
        let wander = r.take_f64()?;
        let swing = self.config.diurnal_amplitude.abs();
        let extremes = [-swing, swing].map(|d| self.config.mean_temperature + d + wander);
        if !extremes.iter().all(|t| RESTORABLE_AIR_C.contains(t)) {
            return Err(bz_state::StateError::Invalid {
                what: "Weather",
                reason: format!(
                    "a wander of {wander} K puts the outdoor air at {extremes:?} °C, outside \
                     −45 °C to 60 °C"
                ),
            });
        }
        self.wander = wander;
        self.last_update = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bz_simcore::SimDuration;

    #[test]
    fn constant_config_is_constant() {
        let config = WeatherConfig {
            diurnal_amplitude: 0.0,
            wander_sd: 0.0,
            ..WeatherConfig::singapore_afternoon()
        };
        let mut w = Weather::new(config, Rng::seed_from(1));
        let a = w.sample(SimTime::ZERO);
        let b = w.sample(SimTime::from_hours(2));
        assert!((a.temperature.get() - 28.9).abs() < 1e-9);
        assert!((b.temperature.get() - 28.9).abs() < 1e-9);
        assert!((a.dew_point().get() - 27.4).abs() < 1e-6);
    }

    #[test]
    fn afternoon_anchor_matches_paper() {
        let mut w = Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(2));
        let s = w.sample(SimTime::ZERO);
        // At 13:00 the diurnal term is near its peak; the sample should sit
        // within a degree of the paper's 28.9 °C anchor.
        assert!(
            (s.temperature.get() - 28.9).abs() < 1.5,
            "{}",
            s.temperature
        );
        assert!((s.dew_point().get() - 27.4).abs() < 1.5);
        assert!(s.dew_point().get() < s.temperature.get());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(7));
        let mut b = Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(7));
        for i in 0..100 {
            let t = SimTime::ZERO + SimDuration::from_secs(i * 60);
            assert_eq!(a.sample(t), b.sample(t));
        }
    }

    #[test]
    fn wander_stays_bounded() {
        let mut w = Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(3));
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..24 * 60 {
            let s = w.sample(SimTime::from_mins(i));
            min = min.min(s.temperature.get());
            max = max.max(s.temperature.get());
        }
        // Diurnal ±1.2 K plus a small wander: the day should span roughly
        // 2–4 K and never run away.
        assert!(max - min > 1.5, "span {}", max - min);
        assert!(max - min < 5.0, "span {}", max - min);
    }

    #[test]
    fn nominal_temperature_matches_the_wanderless_process() {
        let mut config = WeatherConfig::singapore_afternoon();
        config.wander_sd = 0.0;
        let mut w = Weather::new(config, Rng::seed_from(5));
        for i in 0..48 {
            let t = SimTime::from_mins(i * 30);
            let sampled = w.sample(t).temperature.get();
            assert!((sampled - config.nominal_temperature(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn restore_refuses_a_wander_that_puts_the_outdoor_air_out_of_range() {
        let restore = |wander: f64| {
            let mut source = Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(6));
            source.wander = wander;
            let mut w = bz_state::Writer::new();
            source.save_state(&mut w);
            let mut restored =
                Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(6));
            let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
            if loaded.is_ok() {
                // The outdoor humidity ratio comes from the dew point.
                restored.sample(SimTime::from_secs(60));
            }
            loaded.map_err(|e| e.to_string())
        };
        for wander in [1e9, 40.0, -80.0, f64::NAN, f64::INFINITY] {
            let err = restore(wander).unwrap_err();
            assert!(err.contains("outside −45 °C to 60 °C"), "{err}");
        }
        for wander in [0.0, 29.0, -70.0] {
            assert_eq!(restore(wander), Ok(()), "{wander} K");
        }
    }

    #[test]
    fn dew_point_never_exceeds_temperature() {
        let mut w = Weather::new(WeatherConfig::singapore_afternoon(), Rng::seed_from(4));
        for i in 0..1_000 {
            let s = w.sample(SimTime::from_mins(i));
            assert!(s.dew_point().get() < s.temperature.get());
        }
    }
}
