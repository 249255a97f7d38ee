//! Battery energy accounting and lifetime projection.
//!
//! The paper's energy profile: reading an on-board sensor costs ~0.3 mW
//! while transmitting costs ~54 mW, and "the battery powered nodes can
//! sustain longer than 3.2 years with 2 common AA batteries" under the
//! adaptive schedule, versus "0.7 years merely" with the fixed 2 s period.
//! This module reproduces that arithmetic from first principles: a
//! per-transmission energy (radio wake-up + CSMA + frame airtime at
//! 54 mW), a sampling energy, and a sleep-state base load.

use bz_simcore::{SimDuration, SimTime};

/// Seconds per year (Julian).
pub const SECONDS_PER_YEAR: f64 = 31_557_600.0;

/// Power and energy constants of a TelosB-class battery device.
///
/// # Example
///
/// The paper's headline lifetime comparison:
///
/// ```
/// use bz_simcore::SimDuration;
/// use bz_wsn::energy::EnergyModel;
///
/// let model = EnergyModel::telosb_2aa();
/// let fixed = model.lifetime_years(
///     SimDuration::from_secs(2),
///     SimDuration::from_secs(2),
/// );
/// let adaptive = model.lifetime_years(
///     SimDuration::from_secs(2),
///     SimDuration::from_secs(48),
/// );
/// assert!((fixed - 0.7).abs() < 0.1);
/// assert!((adaptive - 3.2).abs() < 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Radio power while transmitting, W (the paper's 54 mW).
    pub tx_power_w: f64,
    /// Total radio-active time per transmission, s: wake-up, CSMA,
    /// the ~4 ms frame, and the acknowledgement window.
    pub tx_duration_s: f64,
    /// Power while sampling a sensor, W (the paper's 0.3 mW).
    pub sample_power_w: f64,
    /// Duration of one sensor sampling, s.
    pub sample_duration_s: f64,
    /// Always-on sleep/LPL base load, W.
    pub base_power_w: f64,
    /// Usable battery energy, J (2 AA cells ≈ 2500 mAh at 3 V).
    pub battery_j: f64,
}

impl EnergyModel {
    /// TelosB with 2×AA, calibrated so a fixed 2 s schedule yields
    /// ~0.7 years and the adaptive schedule's ~48 s mean period yields
    /// ~3.2 years, as reported in §V-C.
    #[must_use]
    pub fn telosb_2aa() -> Self {
        Self {
            tx_power_w: 54.0e-3,
            tx_duration_s: 0.037,
            sample_power_w: 0.3e-3,
            sample_duration_s: 0.010,
            base_power_w: 0.222e-3,
            battery_j: 27_000.0,
        }
    }

    /// Energy of one transmission, J.
    #[must_use]
    pub fn tx_energy_j(&self) -> f64 {
        self.tx_power_w * self.tx_duration_s
    }

    /// Energy of one sensor sampling, J.
    #[must_use]
    pub fn sample_energy_j(&self) -> f64 {
        self.sample_power_w * self.sample_duration_s
    }

    /// Average power of a device that samples every `sampling_period` and
    /// transmits every `send_period`, W.
    ///
    /// # Panics
    ///
    /// Panics if either period is zero.
    #[must_use]
    pub fn average_power_w(&self, sampling_period: SimDuration, send_period: SimDuration) -> f64 {
        assert!(!sampling_period.is_zero() && !send_period.is_zero());
        self.base_power_w
            + self.sample_energy_j() / sampling_period.as_secs_f64()
            + self.tx_energy_j() / send_period.as_secs_f64()
    }

    /// Projected battery lifetime in years at the given duty cycle.
    #[must_use]
    pub fn lifetime_years(&self, sampling_period: SimDuration, send_period: SimDuration) -> f64 {
        self.battery_j / self.average_power_w(sampling_period, send_period) / SECONDS_PER_YEAR
    }
}

/// A per-device energy ledger, integrated event by event during a trial.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    model: EnergyModel,
    consumed_j: f64,
    base_accounted_until: SimTime,
    transmissions: u64,
    samples: u64,
}

impl EnergyLedger {
    /// Creates a ledger starting at time zero with a full battery.
    #[must_use]
    pub fn new(model: EnergyModel) -> Self {
        Self {
            model,
            consumed_j: 0.0,
            base_accounted_until: SimTime::ZERO,
            transmissions: 0,
            samples: 0,
        }
    }

    /// Accounts base load up to `now` (idempotent for non-advancing calls).
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.base_accounted_until).as_secs_f64();
        self.consumed_j += self.model.base_power_w * dt;
        self.base_accounted_until = self.base_accounted_until.max(now);
    }

    /// Records one sensor sampling at `now`.
    pub fn record_sample(&mut self, now: SimTime) {
        self.advance(now);
        self.consumed_j += self.model.sample_energy_j();
        self.samples += 1;
    }

    /// Records one transmission at `now`.
    pub fn record_transmission(&mut self, now: SimTime) {
        self.advance(now);
        self.consumed_j += self.model.tx_energy_j();
        self.transmissions += 1;
    }

    /// Total energy consumed so far, J.
    #[must_use]
    pub fn consumed_j(&self) -> f64 {
        self.consumed_j
    }

    /// True once the accounted consumption exceeds the usable battery
    /// energy — the mote browns out and goes silent until a battery swap.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.consumed_j >= self.model.battery_j
    }

    /// Transmissions recorded.
    #[must_use]
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Samples recorded.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Extrapolated battery lifetime in years, based on the average power
    /// drawn between time zero and the last accounted instant. `None`
    /// until any time has been accounted.
    #[must_use]
    pub fn projected_lifetime_years(&self) -> Option<f64> {
        let elapsed = self.base_accounted_until.as_secs_f64();
        if elapsed <= 0.0 {
            return None;
        }
        let avg_power = self.consumed_j / elapsed;
        Some(self.model.battery_j / avg_power / SECONDS_PER_YEAR)
    }

    /// Serializes the dynamic ledger state (consumption, counters). The
    /// energy model is rebuilt from config on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        w.put_f64(self.consumed_j);
        self.base_accounted_until.save(w);
        w.put_u64(self.transmissions);
        w.put_u64(self.samples);
    }

    /// Restores the dynamic state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.consumed_j = r.take_f64()?;
        self.base_accounted_until = Persist::load(r)?;
        self.transmissions = r.take_u64()?;
        self.samples = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::telosb_2aa()
    }

    #[test]
    fn fixed_schedule_lifetime_matches_paper() {
        // Fixed T_snd = T_spl = 2 s → ~0.7 years.
        let years = model().lifetime_years(SimDuration::from_secs(2), SimDuration::from_secs(2));
        assert!((years - 0.7).abs() < 0.07, "got {years}");
    }

    #[test]
    fn adaptive_schedule_lifetime_matches_paper() {
        // Adaptive average T_snd ≈ 48 s → ~3.2 years.
        let years = model().lifetime_years(SimDuration::from_secs(2), SimDuration::from_secs(48));
        assert!((years - 3.2).abs() < 0.3, "got {years}");
    }

    #[test]
    fn always_on_radio_would_last_under_a_week() {
        // Sanity against the paper's "otherwise, batteries last less than
        // one week" for an always-on radio (RX draw ≈ TX draw on CC2420).
        let m = model();
        let always_on_w = m.tx_power_w;
        let days = m.battery_j / always_on_w / 86_400.0;
        assert!(days < 7.0, "got {days} days");
    }

    #[test]
    fn tx_dominates_sampling() {
        let m = model();
        // The premise of duty-cycling transmissions rather than sampling.
        assert!(m.tx_energy_j() > 100.0 * m.sample_energy_j());
    }

    #[test]
    fn average_power_decomposes() {
        let m = model();
        let p = m.average_power_w(SimDuration::from_secs(2), SimDuration::from_secs(64));
        let expected = m.base_power_w + m.sample_energy_j() / 2.0 + m.tx_energy_j() / 64.0;
        assert!((p - expected).abs() < 1e-15);
    }

    #[test]
    fn ledger_matches_closed_form() {
        let m = model();
        let mut ledger = EnergyLedger::new(m);
        // One hour: sample every 2 s, transmit every 64 s.
        let mut t = SimTime::ZERO;
        for i in 1..=1_800u64 {
            t = SimTime::from_secs(i * 2);
            ledger.record_sample(t);
            if i % 32 == 0 {
                ledger.record_transmission(t);
            }
        }
        ledger.advance(t);
        let avg = ledger.consumed_j() / t.as_secs_f64();
        let closed = m.average_power_w(SimDuration::from_secs(2), SimDuration::from_secs(64));
        assert!((avg - closed).abs() / closed < 0.02, "{avg} vs {closed}");
        assert_eq!(ledger.samples(), 1_800);
        assert_eq!(ledger.transmissions(), 56);
    }

    #[test]
    fn ledger_projection_consistency() {
        let m = model();
        let mut ledger = EnergyLedger::new(m);
        assert_eq!(ledger.projected_lifetime_years(), None);
        for i in 1..=100u64 {
            ledger.record_sample(SimTime::from_secs(i * 2));
            ledger.record_transmission(SimTime::from_secs(i * 2));
        }
        let years = ledger.projected_lifetime_years().unwrap();
        let closed = m.lifetime_years(SimDuration::from_secs(2), SimDuration::from_secs(2));
        assert!(
            (years - closed).abs() / closed < 0.05,
            "{years} vs {closed}"
        );
    }

    #[test]
    fn advance_is_monotone_and_idempotent() {
        let mut ledger = EnergyLedger::new(model());
        ledger.advance(SimTime::from_secs(100));
        let e1 = ledger.consumed_j();
        ledger.advance(SimTime::from_secs(100));
        assert_eq!(ledger.consumed_j(), e1);
        // Going "backwards" accounts nothing more.
        ledger.advance(SimTime::from_secs(50));
        assert_eq!(ledger.consumed_j(), e1);
    }

    #[test]
    fn lifetime_ratio_adaptive_vs_fixed() {
        // The headline claim: ~4.5× longer life from the adaptation.
        let m = model();
        let fixed = m.lifetime_years(SimDuration::from_secs(2), SimDuration::from_secs(2));
        let adaptive = m.lifetime_years(SimDuration::from_secs(2), SimDuration::from_secs(48));
        let ratio = adaptive / fixed;
        assert!((ratio - 3.2 / 0.7).abs() < 0.6, "ratio {ratio}");
    }
}
