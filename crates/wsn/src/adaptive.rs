//! BT-ADPT: adaptive sensory-data transmission for battery devices (§IV-B).
//!
//! Battery devices sample fast (the paper sets 3 s / 2 s / 4 s periods for
//! temperature / humidity / CO₂) but transmit adaptively: the send period
//! `T_snd = w · T_spl` stretches by doubling `w` up to 32 while the signal
//! is stable and snaps back to `w = 1` the instant the sliding-window
//! variance crosses the learned threshold λ. Sampling costs 0.3 mW while
//! transmitting costs 54 mW, so every stretched period is battery life.
//!
//! λ is refreshed by Algorithm 1 every 20 minutes and whenever an observed
//! variance widens the histogram's range, which happens on most samples
//! while a stream is new. A widening variance is the new minimum or
//! maximum, and every λ the clustering can return lies within
//! `[var_min + w, var_min + (N − 1)·w]` for slot width `w`, so these
//! bounds alone usually classify it. λ itself is then left pending and computed only when
//! something reads it: the next sample, unless that sample refreshes λ
//! again (it is computed before that sample's weekly reset or observation
//! changes the histogram), [`BtAdaptive::save_state`] or
//! [`BtAdaptive::lambda`]. Where the bounds do not decide (a slot width
//! below `var_min`'s rounding step), λ is computed at once. Either way
//! every decision, log and checkpoint is bit-identical to computing λ at
//! every refresh.

use bz_simcore::stats::SlidingWindow;
use bz_simcore::{SimDuration, SimTime};

use crate::histogram::{classify, Stability, VarianceHistogram};
use crate::message::DataType;

/// Maximum send-period multiplier (the paper's `w ≤ 32`).
const MAX_W: u32 = 32;

/// Histogram size `N` for the λ clustering (the paper's 40 slots).
const HISTOGRAM_SLOTS: usize = 40;

/// Tuning of one BT-ADPT instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Sampling period `T_spl`.
    pub sampling_period: SimDuration,
    /// Number of successive stable samples required before doubling `w`
    /// (the paper: "after 10 successive T_spls").
    pub stable_runs_to_double: u32,
    /// Sliding-window length for the variance, samples.
    pub window_len: usize,
    /// How often λ is recomputed (the paper: every 20 minutes).
    pub lambda_update_period: SimDuration,
    /// How often the histogram counters are zeroed to flush accumulated
    /// re-binning error (the paper: "after Algorithm 1 runs for a long
    /// time, e.g., one week, each U_i can be reset to be zero").
    pub counter_reset_period: SimDuration,
}

impl AdaptiveConfig {
    /// The §IV-B defaults for a given data type (temperature 3 s,
    /// humidity 2 s, CO₂ 4 s; everything else samples at 2 s).
    #[must_use]
    pub fn for_type(data_type: DataType) -> Self {
        let sampling = match data_type {
            DataType::Temperature => SimDuration::from_secs(3),
            DataType::Humidity => SimDuration::from_secs(2),
            DataType::Co2 => SimDuration::from_secs(4),
            _ => SimDuration::from_secs(2),
        };
        Self::with_sampling(sampling)
    }

    /// Defaults with an explicit sampling period (§V-C's networking trial
    /// drives temperature at 2 s).
    #[must_use]
    pub fn with_sampling(sampling_period: SimDuration) -> Self {
        Self {
            sampling_period,
            stable_runs_to_double: 10,
            window_len: 10,
            lambda_update_period: SimDuration::from_mins(20),
            counter_reset_period: SimDuration::from_hours(7 * 24),
        }
    }
}

/// What happened when a sample was processed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOutcome {
    /// Whether the device transmits this sample's packet now.
    pub transmit: bool,
    /// The sliding-window variance computed at this sample (None until the
    /// window has at least two samples).
    pub variance: Option<f64>,
    /// The classification against the current λ (None until λ exists).
    pub classified: Option<Stability>,
    /// The send period in force *after* this sample.
    pub send_period: SimDuration,
}

/// λ as a scheduler holds it: the size of `Option<f64>`, with a third
/// state for a λ that is due from the histogram as it stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lambda {
    /// Not learnable yet: the histogram's range is still degenerate.
    Unlearned,
    /// Computed.
    Known(f64),
    /// [`VarianceHistogram::threshold`] of the histogram, which has not
    /// changed since the refresh.
    Pending,
}

const _: () = assert!(std::mem::size_of::<Lambda>() == std::mem::size_of::<Option<f64>>());

impl From<Option<f64>> for Lambda {
    fn from(lambda: Option<f64>) -> Self {
        lambda.map_or(Self::Unlearned, Self::Known)
    }
}

/// The adaptive scheduler state for one (device, data type) stream.
///
/// # Example
///
/// A stable signal stretches the send period; a step change snaps it back:
///
/// ```
/// use bz_simcore::{SimDuration, SimTime};
/// use bz_wsn::adaptive::{AdaptiveConfig, BtAdaptive};
///
/// let mut scheduler = BtAdaptive::new(AdaptiveConfig::with_sampling(
///     SimDuration::from_secs(2),
/// ));
/// for i in 0..600u64 {
///     // A brief excursion early on lets the histogram learn λ.
///     let value = if i == 5 { 30.0 } else { 25.0 };
///     scheduler.on_sample(SimTime::from_secs(2 * i), value);
/// }
/// assert_eq!(scheduler.send_period(), SimDuration::from_secs(64));
/// ```
#[derive(Debug, Clone)]
pub struct BtAdaptive {
    config: AdaptiveConfig,
    window: SlidingWindow,
    histogram: VarianceHistogram,
    lambda: Lambda,
    lambda_refreshed_at: SimTime,
    counters_reset_at: SimTime,
    w: u32,
    stable_run: u32,
    next_send: SimTime,
    transmissions: u64,
    samples: u64,
    obs: bz_obs::Handle,
}

impl BtAdaptive {
    /// Creates a scheduler; the first sample always transmits. Period
    /// changes are recorded against the global `bz_obs` registry.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            window: SlidingWindow::new(config.window_len),
            histogram: VarianceHistogram::new(HISTOGRAM_SLOTS),
            lambda: Lambda::Unlearned,
            lambda_refreshed_at: SimTime::ZERO,
            counters_reset_at: SimTime::ZERO,
            w: 1,
            stable_run: 0,
            next_send: SimTime::ZERO,
            transmissions: 0,
            samples: 0,
            config,
            obs: bz_obs::Handle::global(),
        }
    }

    /// Redirects this scheduler's metrics to `obs` (per-run isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.obs = obs;
        self
    }

    /// Current send period `T_snd = w · T_spl`.
    #[must_use]
    pub fn send_period(&self) -> SimDuration {
        self.config.sampling_period * u64::from(self.w)
    }

    /// The λ in force: `None` until the histogram has seen two distinct
    /// variances. A pending λ is computed here and kept.
    pub fn lambda(&mut self) -> Option<f64> {
        let lambda = self.current_lambda();
        self.lambda = lambda.into();
        lambda
    }

    /// The λ in force, a pending one computed but not kept.
    fn current_lambda(&self) -> Option<f64> {
        match self.lambda {
            Lambda::Unlearned => None,
            Lambda::Known(lambda) => Some(lambda),
            Lambda::Pending => self.histogram.threshold(),
        }
    }

    /// Processes one sensor sample taken at `now` (call every `T_spl`).
    pub fn on_sample(&mut self, now: SimTime, value: f64) -> SampleOutcome {
        self.samples += 1;
        self.window.push(value);
        let variance = if self.window.len() >= 2 {
            self.window.variance()
        } else {
            None
        };

        // Periodic λ refresh; also refresh when the variance widens the
        // histogram's range (re-binning invalidates the old clustering)
        // and bootstrap as soon as λ is learnable. Range changes are rare
        // after warm-up, so this stays within the paper's energy budget
        // for λ updates.
        let due = now.since(self.lambda_refreshed_at) >= self.config.lambda_update_period;
        let refresh = variance.is_some_and(|var| {
            self.lambda == Lambda::Unlearned
                || due
                || var < self.histogram.var_min()
                || var > self.histogram.var_max()
        });
        if !refresh {
            // No refresh replaces λ here: compute a pending one while the
            // histogram is still the one it belongs to.
            self.lambda();
        }

        // Weekly counter flush (§IV-B): zero the histogram counters while
        // keeping the learned range, discarding accumulated re-binning
        // error. λ survives until enough new data relearns it.
        if now.since(self.counters_reset_at) >= self.config.counter_reset_period {
            self.histogram.reset_counters();
            self.counters_reset_at = now;
        }

        let mut classified = None;
        if let Some(var) = variance {
            self.histogram.observe(var);
            let decided = if refresh {
                self.refresh_lambda(now, var)
            } else {
                None
            };
            classified = decided.or_else(|| self.lambda().map(|lambda| classify(var, lambda)));
            if let Some(state) = classified {
                let w_before = self.w;
                match state {
                    Stability::Transition => {
                        // Snap back: T_snd = T_spl and send immediately.
                        self.w = 1;
                        self.stable_run = 0;
                        self.next_send = now;
                    }
                    Stability::Stable => {
                        self.stable_run += 1;
                        if self.stable_run >= self.config.stable_runs_to_double && self.w < MAX_W {
                            self.w = (self.w * 2).min(MAX_W);
                            self.stable_run = 0;
                        }
                    }
                }
                if self.w != w_before {
                    self.obs.counter_inc("wsn.btadpt.period_changes");
                    self.obs
                        .observe("wsn.btadpt.send_period_s", self.send_period().as_secs_f64());
                }
            }
        }

        let transmit = now >= self.next_send;
        if transmit {
            self.transmissions += 1;
            self.next_send = now + self.send_period();
        }

        SampleOutcome {
            transmit,
            variance,
            classified,
            send_period: self.send_period(),
        }
    }

    /// Refreshes λ from the histogram that has just observed `var`. When
    /// λ's bounds decide `var`'s class, λ is left pending and the class
    /// returned; otherwise λ is computed now. A degenerate range has no λ
    /// and keeps the old one, which is never pending: a pending λ needs a
    /// slot width above 0, and the range only widens.
    fn refresh_lambda(&mut self, now: SimTime, var: f64) -> Option<Stability> {
        let (low, high) = self.histogram.threshold_bounds()?;
        self.lambda_refreshed_at = now;
        let decided = if var < low {
            Some(Stability::Stable)
        } else if var >= high {
            Some(Stability::Transition)
        } else {
            None
        };
        self.lambda = if decided.is_some() {
            Lambda::Pending
        } else {
            self.histogram.threshold().into()
        };
        decided
    }
}

/// The paper's "Fixed" comparison scheme: transmit every sample.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    sampling_period: SimDuration,
    transmissions: u64,
}

impl FixedSchedule {
    /// Creates a fixed scheduler with the given sampling (= send) period.
    #[must_use]
    pub fn new(sampling_period: SimDuration) -> Self {
        Self {
            sampling_period,
            transmissions: 0,
        }
    }

    /// The constant send period.
    #[must_use]
    pub fn send_period(&self) -> SimDuration {
        self.sampling_period
    }

    /// Processes a sample: always transmits.
    pub fn on_sample(&mut self) -> bool {
        self.transmissions += 1;
        true
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(FixedSchedule {
    sampling_period,
    transmissions,
});

impl BtAdaptive {
    /// Serializes the dynamic scheduler state (window, histogram, λ,
    /// counters). Configuration and the obs handle are rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.window.save(w);
        self.histogram.save(w);
        self.current_lambda().save(w);
        self.lambda_refreshed_at.save(w);
        self.counters_reset_at.save(w);
        w.put_u32(self.w);
        w.put_u32(self.stable_run);
        self.next_send.save(w);
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
        self.window = Persist::load(r)?;
        self.histogram = Persist::load(r)?;
        self.lambda = Option::<f64>::load(r)?.into();
        self.lambda_refreshed_at = Persist::load(r)?;
        self.counters_reset_at = Persist::load(r)?;
        self.w = r.take_u32()?;
        self.stable_run = r.take_u32()?;
        self.next_send = Persist::load(r)?;
        self.transmissions = r.take_u64()?;
        self.samples = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bz_simcore::Rng;

    /// Drives a scheduler with a stable signal plus optional bursts;
    /// returns the outcomes.
    fn drive(
        scheduler: &mut BtAdaptive,
        steps: usize,
        mut signal: impl FnMut(usize, &mut Rng) -> f64,
    ) -> Vec<(SimTime, SampleOutcome)> {
        let mut rng = Rng::seed_from(1234);
        let period = scheduler.config.sampling_period;
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let now = SimTime::ZERO + period * i as u64;
            let value = signal(i, &mut rng);
            out.push((now, scheduler.on_sample(now, value)));
        }
        out
    }

    fn stable_signal(rng: &mut Rng) -> f64 {
        25.0 + rng.normal(0.0, 0.02)
    }

    #[test]
    fn w_grows_to_max_on_stable_signal() {
        let mut s = BtAdaptive::new(AdaptiveConfig::with_sampling(SimDuration::from_secs(2)));
        // Prime with one burst so the histogram can learn a λ that puts
        // tiny variances in the stable cluster.
        drive(&mut s, 20, |i, rng| {
            if i < 3 {
                25.0 + 3.0 * f64::from(i as u32)
            } else {
                stable_signal(rng)
            }
        });
        drive(&mut s, 600, |_, rng| stable_signal(rng));
        assert_eq!(s.w, 32, "w should reach the maximum");
        assert_eq!(s.send_period(), SimDuration::from_secs(64));
    }

    #[test]
    fn transition_snaps_back_to_fast_sending() {
        let mut s = BtAdaptive::new(AdaptiveConfig::with_sampling(SimDuration::from_secs(2)));
        drive(&mut s, 20, |i, _| {
            if i < 3 {
                25.0 + 3.0 * f64::from(i as u32)
            } else {
                25.0
            }
        });
        drive(&mut s, 600, |_, rng| stable_signal(rng));
        assert_eq!(s.w, 32);
        // A door opens: the signal jumps several degrees.
        let outcomes = drive(&mut s, 6, |i, _| 25.0 + 2.0 * f64::from(i as u32 + 1));
        assert_eq!(s.w, 1, "transition must reset w");
        // The snap-back transmits promptly — within a few samples of the
        // onset (the paper measures an average detection delay of 2.7 s
        // at a 2 s sampling period, i.e. one-to-two samples).
        assert!(
            outcomes.iter().take(4).any(|(_, o)| o.transmit),
            "transition should trigger a prompt transmission"
        );
    }

    #[test]
    fn first_sample_transmits() {
        let mut s = BtAdaptive::new(AdaptiveConfig::with_sampling(SimDuration::from_secs(2)));
        let outcome = s.on_sample(SimTime::ZERO, 25.0);
        assert!(outcome.transmit);
        assert_eq!(s.transmissions, 1);
    }

    #[test]
    fn stable_stream_transmits_far_less_than_fixed() {
        let mut adaptive =
            BtAdaptive::new(AdaptiveConfig::with_sampling(SimDuration::from_secs(2)));
        let mut fixed = FixedSchedule::new(SimDuration::from_secs(2));
        let steps = 3_000; // 100 minutes at 2 s
        drive(&mut adaptive, steps, |i, rng| {
            if i % 900 == 10 {
                40.0 // a brief excursion every ~30 min keeps λ honest
            } else {
                stable_signal(rng)
            }
        });
        for _ in 0..steps {
            fixed.on_sample();
        }
        assert_eq!(fixed.transmissions, steps as u64);
        let ratio = adaptive.transmissions as f64 / fixed.transmissions as f64;
        assert!(
            ratio < 0.25,
            "adaptive sent {} of {} packets (ratio {ratio})",
            adaptive.transmissions,
            fixed.transmissions
        );
    }

    #[test]
    fn send_period_stays_within_bounds() {
        let config = AdaptiveConfig::with_sampling(SimDuration::from_secs(2));
        let mut s = BtAdaptive::new(config);
        let outcomes = drive(&mut s, 2_000, |i, rng| {
            if i % 400 == 7 {
                35.0
            } else {
                stable_signal(rng)
            }
        });
        for (_, o) in outcomes {
            let p = o.send_period.as_millis();
            assert!(p >= 2_000, "period {p} below T_spl");
            assert!(p <= 64_000, "period {p} above 32·T_spl");
        }
    }

    #[test]
    fn lambda_refreshes_periodically() {
        let mut config = AdaptiveConfig::with_sampling(SimDuration::from_secs(2));
        config.lambda_update_period = SimDuration::from_secs(20);
        let mut s = BtAdaptive::new(config);
        drive(&mut s, 30, |i, _| if i % 7 == 0 { 30.0 } else { 25.0 });
        let early = s.lambda();
        assert!(early.is_some());
        // Shift the signal regime: much larger excursions dominate the
        // histogram; after the refresh period λ should move.
        drive(
            &mut s,
            300,
            |i, _| {
                if i % 5 == 0 {
                    25.0 + 20.0
                } else {
                    25.0
                }
            },
        );
        assert_ne!(s.lambda(), early, "λ should track the new regime");
    }

    #[test]
    fn decision_metadata_is_reported() {
        let mut s = BtAdaptive::new(AdaptiveConfig::with_sampling(SimDuration::from_secs(2)));
        // Mostly flat with two isolated excursions: the flat stretches
        // classify stable, the excursion windows classify transition.
        let outcomes = drive(
            &mut s,
            80,
            |i, _| {
                if i == 25 || i == 55 {
                    35.0
                } else {
                    25.0
                }
            },
        );
        let with_variance = outcomes
            .iter()
            .filter(|(_, o)| o.variance.is_some())
            .count();
        assert!(with_variance >= 78, "variance reported once window fills");
        assert!(outcomes
            .iter()
            .any(|(_, o)| o.classified == Some(Stability::Transition)));
        assert!(outcomes
            .iter()
            .any(|(_, o)| o.classified == Some(Stability::Stable)));
    }

    #[test]
    fn for_type_uses_paper_sampling_periods() {
        assert_eq!(
            AdaptiveConfig::for_type(DataType::Temperature).sampling_period,
            SimDuration::from_secs(3)
        );
        assert_eq!(
            AdaptiveConfig::for_type(DataType::Humidity).sampling_period,
            SimDuration::from_secs(2)
        );
        assert_eq!(
            AdaptiveConfig::for_type(DataType::Co2).sampling_period,
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn weekly_counter_reset_flushes_history() {
        let mut config = AdaptiveConfig::with_sampling(SimDuration::from_secs(2));
        config.counter_reset_period = SimDuration::from_secs(100);
        let mut s = BtAdaptive::new(config);
        // Populate the histogram.
        for i in 0..40u64 {
            let now = SimTime::from_secs(i * 2);
            let value = if i % 9 == 0 { 30.0 } else { 25.0 };
            s.on_sample(now, value);
        }
        assert!(s.histogram.observed() > 0);
        // Cross the reset boundary: counters flush, range survives.
        let range = (s.histogram.var_min(), s.histogram.var_max());
        s.on_sample(SimTime::from_secs(200), 25.0);
        assert!(s.histogram.observed() <= 1);
        assert_eq!((s.histogram.var_min(), s.histogram.var_max()), range);
        // λ is still in force (kept from before the flush).
        assert!(s.lambda().is_some());
    }

    /// `on_sample` as it was before λ became lazy: λ is computed at every
    /// refresh. The reference of the differential test below.
    struct EagerReference {
        config: AdaptiveConfig,
        window: SlidingWindow,
        histogram: VarianceHistogram,
        lambda: Option<f64>,
        lambda_refreshed_at: SimTime,
        counters_reset_at: SimTime,
        w: u32,
        stable_run: u32,
        next_send: SimTime,
        transmissions: u64,
        samples: u64,
    }

    impl EagerReference {
        fn new(config: AdaptiveConfig) -> Self {
            Self {
                config,
                window: SlidingWindow::new(config.window_len),
                histogram: VarianceHistogram::new(HISTOGRAM_SLOTS),
                lambda: None,
                lambda_refreshed_at: SimTime::ZERO,
                counters_reset_at: SimTime::ZERO,
                w: 1,
                stable_run: 0,
                next_send: SimTime::ZERO,
                transmissions: 0,
                samples: 0,
            }
        }

        fn on_sample(&mut self, now: SimTime, value: f64) -> SampleOutcome {
            self.samples += 1;
            self.window.push(value);
            let variance = if self.window.len() >= 2 {
                self.window.variance()
            } else {
                None
            };
            if now.since(self.counters_reset_at) >= self.config.counter_reset_period {
                self.histogram.reset_counters();
                self.counters_reset_at = now;
            }
            let mut classified = None;
            if let Some(var) = variance {
                let range_before = (self.histogram.var_min(), self.histogram.var_max());
                self.histogram.observe(var);
                let range_changed =
                    (self.histogram.var_min(), self.histogram.var_max()) != range_before;
                let due = now.since(self.lambda_refreshed_at) >= self.config.lambda_update_period;
                if self.lambda.is_none() || due || range_changed {
                    if let Some(lambda) = self.histogram.threshold() {
                        self.lambda = Some(lambda);
                        self.lambda_refreshed_at = now;
                    }
                }
                if let Some(lambda) = self.lambda {
                    let state = classify(var, lambda);
                    classified = Some(state);
                    match state {
                        Stability::Transition => {
                            self.w = 1;
                            self.stable_run = 0;
                            self.next_send = now;
                        }
                        Stability::Stable => {
                            self.stable_run += 1;
                            if self.stable_run >= self.config.stable_runs_to_double
                                && self.w < MAX_W
                            {
                                self.w = (self.w * 2).min(MAX_W);
                                self.stable_run = 0;
                            }
                        }
                    }
                }
            }
            let transmit = now >= self.next_send;
            if transmit {
                self.transmissions += 1;
                self.next_send = now + self.config.sampling_period * u64::from(self.w);
            }
            SampleOutcome {
                transmit,
                variance,
                classified,
                send_period: self.config.sampling_period * u64::from(self.w),
            }
        }

        fn save_state(&self) -> Vec<u8> {
            use bz_state::Persist;
            let mut w = bz_state::Writer::new();
            self.window.save(&mut w);
            self.histogram.save(&mut w);
            self.lambda.save(&mut w);
            self.lambda_refreshed_at.save(&mut w);
            self.counters_reset_at.save(&mut w);
            w.put_u32(self.w);
            w.put_u32(self.stable_run);
            self.next_send.save(&mut w);
            w.put_u64(self.transmissions);
            w.put_u64(self.samples);
            w.into_bytes()
        }
    }

    fn saved(scheduler: &BtAdaptive) -> Vec<u8> {
        let mut w = bz_state::Writer::new();
        scheduler.save_state(&mut w);
        w.into_bytes()
    }

    /// A seeded signal of flat stretches, sensor noise, bursts and
    /// ramps. A non-zero `swing` alternates the sign of that value sample
    /// by sample and scales the signal to 10⁻¹⁶ of it: over a window of
    /// two samples, every variance is then about `swing²`, spread by a
    /// few rounding steps at most, so `var_min + w == var_min` and λ's
    /// bounds cannot decide.
    fn seeded_signal(seed: u64, steps: usize, swing: f64) -> Vec<f64> {
        let mut rng = Rng::seed_from(seed);
        let mut values = Vec::with_capacity(steps);
        let mut base = 25.0;
        while values.len() < steps {
            let len = 5 + (rng.next_u64() % 300) as usize;
            let kind = rng.next_u64() % 4;
            for k in 0..len {
                let v = match kind {
                    0 => base,
                    1 => base + rng.normal(0.0, 0.02),
                    2 => base + rng.uniform(-4.0, 4.0),
                    _ => base + 0.1 * k as f64,
                };
                if swing == 0.0 {
                    values.push(v);
                } else {
                    let sign = if values.len() % 2 == 0 { 1.0 } else { -1.0 };
                    values.push(sign * swing + 1e-16 * swing * v);
                }
            }
            if kind == 3 {
                base += 0.1 * len as f64;
            }
            base = base.clamp(-20.0, 60.0);
        }
        values.truncate(steps);
        values
    }

    #[test]
    fn lazy_lambda_decides_exactly_as_the_eager_reference() {
        let paper = AdaptiveConfig::with_sampling(SimDuration::from_secs(2));
        let short = AdaptiveConfig {
            lambda_update_period: SimDuration::from_secs(30),
            counter_reset_period: SimDuration::from_secs(300),
            ..paper
        };
        let pairs = AdaptiveConfig {
            window_len: 2,
            ..short
        };
        let co2 = AdaptiveConfig::for_type(DataType::Co2);
        let (mut pending, mut undecided, mut restored) = (0u32, 0u32, 0u32);
        let cases = [paper, co2, short]
            .into_iter()
            .flat_map(|config| [(config, 1, 0.0), (config, 2, 0.0), (config, 3, 0.0)])
            .chain([(pairs, 4, 0.0), (pairs, 5, 1e10), (pairs, 6, 1e-3)])
            .chain([(pairs, 7, 3.0), (pairs, 8, 1e150)]);
        for (config, seed, swing) in cases {
            let mut lazy = BtAdaptive::new(config);
            let mut eager = EagerReference::new(config);
            // Schedulers restored from a save taken while λ was
            // pending, with the samples they still have to match.
            let mut followers: Vec<(BtAdaptive, u32)> = Vec::new();
            for (i, value) in seeded_signal(seed, 3_000, swing).into_iter().enumerate() {
                let now = SimTime::ZERO + config.sampling_period * i as u64;
                let range = (lazy.histogram.var_min(), lazy.histogram.var_max());
                let outcome = lazy.on_sample(now, value);
                let expected = eager.on_sample(now, value);
                let at = format!("seed {seed} sample {i}");
                assert_eq!(outcome.transmit, expected.transmit, "{at}");
                assert_eq!(
                    outcome.variance.map(f64::to_bits),
                    expected.variance.map(f64::to_bits),
                    "{at}"
                );
                assert_eq!(outcome.classified, expected.classified, "{at}");
                assert_eq!(outcome.send_period, expected.send_period, "{at}");
                // Read from a clone: reading keeps a pending λ.
                assert_eq!(
                    lazy.clone().lambda().map(f64::to_bits),
                    eager.lambda.map(f64::to_bits),
                    "{at}"
                );
                let bytes = saved(&lazy);
                assert_eq!(bytes, eager.save_state(), "{at}");

                for (follower, left) in &mut followers {
                    assert_eq!(follower.on_sample(now, value), outcome, "{at}");
                    assert_eq!(saved(follower), bytes, "{at}");
                    *left -= 1;
                }
                followers.retain(|(_, left)| *left > 0);

                if lazy.lambda == Lambda::Pending {
                    pending += 1;
                    if pending % 50 == 1 {
                        let mut copy = BtAdaptive::new(config);
                        copy.load_state(&mut bz_state::Reader::new(&bytes)).unwrap();
                        followers.push((copy, 200));
                        restored += 1;
                    }
                }
                // A widened range too narrow for λ's bounds: λ is
                // computed at once.
                let (min, max) = (lazy.histogram.var_min(), lazy.histogram.var_max());
                if (min, max) != range
                    && matches!(lazy.lambda, Lambda::Known(_))
                    && lazy
                        .histogram
                        .threshold_bounds()
                        .is_some_and(|(low, _)| low == min)
                {
                    undecided += 1;
                }
            }
        }
        assert!(pending > 500, "{pending} samples left λ pending");
        assert!(restored > 10, "{restored} pending saves restored");
        assert!(
            undecided >= 5,
            "{undecided} widened ranges too narrow for λ's bounds"
        );
    }

    #[test]
    fn fixed_schedule_always_transmits() {
        let mut f = FixedSchedule::new(SimDuration::from_secs(2));
        for _ in 0..10 {
            assert!(f.on_sample());
        }
        assert_eq!(f.transmissions, 10);
        assert_eq!(f.send_period(), SimDuration::from_secs(2));
    }
}
