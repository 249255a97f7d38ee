//! Online occupancy forecasting.
//!
//! [`OccupancyForecaster`] learns a per-subspace time-of-day occupancy
//! profile from the live occupancy stream (the simulation's scripted
//! headcounts, standing in for the PIR sensors a real deployment would
//! carry). The profile is an exponentially-weighted histogram over
//! fixed-width bins of a repeating period: each observed headcount
//! accumulates into the bin covering the current phase, and when the
//! phase leaves a bin the accumulated mean is folded into that bin's
//! stored value with weight `alpha`.
//!
//! Everything is driven by simulation time handed in by the caller —
//! never `std::time` — so forecasts are deterministic for a seeded run.

/// Tuning of the occupancy profile learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastConfig {
    /// Length of the repeating profile (a day for real deployments;
    /// scenario files use their own occupancy period), s.
    pub period_s: f64,
    /// Width of one profile bin, s.
    pub bin_s: f64,
    /// Exponential weight of a fresh bin mean against the stored profile
    /// value (1.0 = always replace, small = slow adaptation).
    pub alpha: f64,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        Self {
            period_s: 86_400.0,
            bin_s: 900.0,
            alpha: 0.4,
        }
    }
}

impl ForecastConfig {
    /// Number of bins in the profile (at least 1).
    #[must_use]
    pub fn bins(&self) -> usize {
        ((self.period_s / self.bin_s).ceil() as usize).max(1)
    }

    /// The profile bin covering phase time `now_s`.
    fn bin_at(&self, now_s: f64) -> usize {
        let phase = now_s.rem_euclid(self.period_s);
        ((phase / self.bin_s) as usize).min(self.bins() - 1)
    }
}

/// One subspace's learned profile.
#[derive(Debug, Clone)]
struct Profile {
    /// Stored EW value per bin; `None` until first committed.
    bins: Vec<Option<f64>>,
    /// Bin currently accumulating.
    current_bin: Option<usize>,
    sum: f64,
    count: u32,
    /// Last raw observation (persistence fallback).
    last_seen: f64,
}

impl Profile {
    fn new(bins: usize) -> Self {
        Self {
            bins: vec![None; bins],
            current_bin: None,
            sum: 0.0,
            count: 0,
            last_seen: 0.0,
        }
    }

    fn commit(&mut self, alpha: f64) {
        let Some(bin) = self.current_bin else { return };
        if self.count == 0 {
            return;
        }
        let mean = self.sum / f64::from(self.count);
        let slot = &mut self.bins[bin];
        *slot = Some(match *slot {
            None => mean,
            Some(old) => old + alpha * (mean - old),
        });
        self.sum = 0.0;
        self.count = 0;
    }

    fn committed(&self) -> usize {
        self.bins.iter().filter(|b| b.is_some()).count()
    }
}

/// Per-subspace time-of-day occupancy profile learner and predictor.
#[derive(Debug, Clone)]
pub struct OccupancyForecaster {
    config: ForecastConfig,
    profiles: [Profile; 4],
}

impl OccupancyForecaster {
    /// An empty forecaster.
    #[must_use]
    pub fn new(config: ForecastConfig) -> Self {
        let bins = config.bins();
        Self {
            config,
            profiles: std::array::from_fn(|_| Profile::new(bins)),
        }
    }

    /// Feeds one occupancy observation for `subspace` at simulation time
    /// `now_s`. Call once per control cycle; observations must arrive in
    /// non-decreasing time order.
    pub fn observe(&mut self, subspace: usize, now_s: f64, headcount: u32) {
        let bin = self.config.bin_at(now_s);
        let profile = &mut self.profiles[subspace];
        if profile.current_bin != Some(bin) {
            profile.commit(self.config.alpha);
            profile.current_bin = Some(bin);
        }
        profile.sum += f64::from(headcount);
        profile.count += 1;
        profile.last_seen = f64::from(headcount);
    }

    /// True once every bin of every subspace profile has been committed
    /// at least once — i.e. a full profile period has been observed.
    /// Until then predictions fall back to persistence and the MPC layer
    /// stays in reactive mode.
    #[must_use]
    pub fn confident(&self) -> bool {
        let bins = self.config.bins();
        self.profiles.iter().all(|p| p.committed() >= bins)
    }

    /// Expected headcount in `subspace` at (possibly future) simulation
    /// time `t_s`. Uses the learned profile bin when available, else the
    /// last raw observation (persistence).
    #[must_use]
    pub fn predict(&self, subspace: usize, t_s: f64) -> f64 {
        let profile = &self.profiles[subspace];
        profile.bins[self.config.bin_at(t_s)].unwrap_or(profile.last_seen)
    }

    /// Whether `subspace` is forecast occupied at `t_s` (expected
    /// headcount ≥ 0.5).
    #[must_use]
    pub fn predict_occupied(&self, subspace: usize, t_s: f64) -> bool {
        self.predict(subspace, t_s) >= 0.5
    }

    /// The configuration this forecaster was built with.
    #[must_use]
    pub fn config(&self) -> &ForecastConfig {
        &self.config
    }

    /// Serializes the learned profiles. The configuration is rebuilt on
    /// restore; a checkpoint only holds what observation taught us.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.profiles.save(w);
    }

    /// Restores the profiles saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse, or
    /// [`bz_state::StateError::Invalid`] for a profile whose bins, or
    /// whose current bin, do not fit this configuration's bin count.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        let profiles: [Profile; 4] = Persist::load(r)?;
        let bins = self.config.bins();
        if let Some(p) = profiles
            .iter()
            .find(|p| p.bins.len() != bins || p.current_bin.is_some_and(|b| b >= bins))
        {
            return Err(bz_state::StateError::Invalid {
                what: "OccupancyForecaster",
                reason: format!(
                    "a profile of {} bins at bin {:?} does not fit {bins} bins",
                    p.bins.len(),
                    p.current_bin
                ),
            });
        }
        self.profiles = profiles;
        Ok(())
    }
}

bz_state::persist_struct!(Profile {
    bins,
    current_bin,
    sum,
    count,
    last_seen,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn office_config() -> ForecastConfig {
        ForecastConfig {
            period_s: 1_200.0,
            bin_s: 300.0,
            alpha: 0.5,
        }
    }

    /// Feeds a square-wave schedule (occupied the first half of each
    /// period) for `periods` full periods at a 5 s cadence.
    fn feed(forecaster: &mut OccupancyForecaster, periods: u32) {
        let config = *forecaster.config();
        let steps = (config.period_s / 5.0) as u32 * periods;
        for i in 0..steps {
            let t = f64::from(i) * 5.0;
            let occupied = t.rem_euclid(config.period_s) < config.period_s / 2.0;
            for s in 0..4 {
                forecaster.observe(s, t, if occupied { 2 } else { 0 });
            }
        }
    }

    #[test]
    fn restore_rejects_bins_past_the_configured_profile() {
        let mut source = OccupancyForecaster::new(office_config());
        feed(&mut source, 1);
        source.profiles[2].current_bin = Some(999);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let mut restored = OccupancyForecaster::new(office_config());
        let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
        if loaded.is_ok() {
            // Entering a new bin commits the current one by index.
            restored.observe(2, 0.0, 1);
        }
        let err = loaded.unwrap_err().to_string();
        assert!(err.contains("Some(999) does not fit 4 bins"), "{err}");
    }

    #[test]
    fn becomes_confident_after_one_full_period() {
        let mut f = OccupancyForecaster::new(office_config());
        assert!(!f.confident());
        feed(&mut f, 1);
        // The last bin commits when the phase wraps into bin 0 again.
        f.observe(0, 1_200.0, 2);
        assert!(!f.confident(), "other subspaces still open");
        for s in 1..4 {
            f.observe(s, 1_200.0, 2);
        }
        assert!(f.confident());
    }

    #[test]
    fn predicts_the_learned_square_wave_for_future_periods() {
        let mut f = OccupancyForecaster::new(office_config());
        feed(&mut f, 2);
        for s in 0..4 {
            // Ask about times several periods ahead.
            assert!(f.predict_occupied(s, 10.0 * 1_200.0 + 100.0));
            assert!(!f.predict_occupied(s, 10.0 * 1_200.0 + 700.0));
            assert!((f.predict(s, 1_200.0 * 5.0 + 10.0) - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn uncommitted_bins_fall_back_to_persistence() {
        let mut f = OccupancyForecaster::new(office_config());
        f.observe(1, 0.0, 3);
        // Bin 0 is still accumulating; any query falls back to the last
        // raw observation.
        assert!((f.predict(1, 700.0) - 3.0).abs() < 1e-9);
        assert!(f.predict_occupied(1, 0.0));
        assert!((f.predict(0, 0.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn profile_adapts_to_a_schedule_change() {
        let mut f = OccupancyForecaster::new(office_config());
        feed(&mut f, 2);
        // The schedule flips: now always empty. After several periods the
        // EW profile should forecast empty.
        let start = 2.0 * 1_200.0;
        for i in 0..((1_200.0 / 5.0) as u32 * 8) {
            let t = start + f64::from(i) * 5.0;
            for s in 0..4 {
                f.observe(s, t, 0);
            }
        }
        for s in 0..4 {
            assert!(!f.predict_occupied(s, start + 100.0));
        }
    }
}
