//! Sensor models: what the controllers actually see.
//!
//! BubbleZERO deploys 38 sensors of different types (§III-A). The control
//! loops never observe the plant's true state — they observe ADT7410
//! temperature readings (±0.5 °C accuracy, 0.0625 °C quantization), SHT75
//! humidity readings, NDIR CO₂ readings, and VISION-2000 flow pulses. Each
//! sensor instance draws a fixed calibration bias at construction and adds
//! per-reading noise, then quantizes to the part's resolution.

use bz_psychro::{Celsius, Percent, Ppm};
use bz_simcore::{Rng, SimTime};

/// Quantizes `value` to steps of `step`.
fn quantize(value: f64, step: f64) -> f64 {
    (value / step).round() * step
}

/// An ADT7410 digital temperature sensor (embedded in water pipes and on
/// ceiling panels), operated in its 16-bit mode.
#[derive(Debug, Clone)]
pub struct TemperatureSensor {
    bias: f64,
    noise_sd: f64,
    rng: Rng,
}

impl TemperatureSensor {
    /// Part resolution in 16-bit mode, °C.
    pub const RESOLUTION: f64 = 0.007_812_5;
    /// Datasheet accuracy bound, °C.
    pub const ACCURACY: f64 = 0.5;

    /// Creates a sensor, drawing its calibration bias from `rng`.
    #[must_use]
    pub fn new(rng: &mut Rng) -> Self {
        let mut own = rng.fork();
        let bias = own.normal(0.0, 0.15).clamp(-Self::ACCURACY, Self::ACCURACY);
        Self {
            bias,
            // Electronic noise is ~±1 LSB; the large datasheet accuracy
            // bound is a calibration *bias*, not per-reading scatter.
            noise_sd: 0.008,
            rng: own,
        }
    }

    /// Takes a reading of the true temperature.
    pub fn read(&mut self, truth: Celsius) -> Celsius {
        let raw = truth.get() + self.bias + self.rng.normal(0.0, self.noise_sd);
        Celsius::new(quantize(raw, Self::RESOLUTION))
    }
}

/// An SHT75 combined temperature/relative-humidity sensor (airbox outlets
/// and room air).
#[derive(Debug, Clone)]
pub struct HumiditySensor {
    rh_bias: f64,
    temp_bias: f64,
    rng: Rng,
}

impl HumiditySensor {
    /// RH resolution, %.
    pub const RH_RESOLUTION: f64 = 0.03;
    /// Datasheet RH accuracy bound, %.
    pub const RH_ACCURACY: f64 = 1.8;
    /// Temperature resolution, °C.
    pub const TEMP_RESOLUTION: f64 = 0.01;

    /// Creates a sensor, drawing calibration biases from `rng`.
    #[must_use]
    pub fn new(rng: &mut Rng) -> Self {
        let mut own = rng.fork();
        let rh_bias = own
            .normal(0.0, 0.6)
            .clamp(-Self::RH_ACCURACY, Self::RH_ACCURACY);
        let temp_bias = own.normal(0.0, 0.1).clamp(-0.3, 0.3);
        Self {
            rh_bias,
            temp_bias,
            rng: own,
        }
    }

    /// Takes a relative-humidity reading, clamped to the physical range.
    pub fn read_rh(&mut self, truth: Percent) -> Percent {
        let raw = truth.get() + self.rh_bias + self.rng.normal(0.0, 0.25);
        Percent::new(quantize(raw, Self::RH_RESOLUTION).clamp(0.0, 100.0))
    }

    /// Takes a temperature reading.
    pub fn read_temp(&mut self, truth: Celsius) -> Celsius {
        let raw = truth.get() + self.temp_bias + self.rng.normal(0.0, 0.008);
        Celsius::new(quantize(raw, Self::TEMP_RESOLUTION))
    }

    /// Advances the sensor's noise stream exactly as one discarded
    /// [`read_rh`](Self::read_rh) would, without computing the reading.
    ///
    /// The SHT75 samples both channels on every poll, but a caller often
    /// uses only one; skipping the sibling keeps every later reading
    /// bit-identical to a full poll while avoiding the wasted math.
    pub fn skip_rh(&mut self) {
        self.rng.skip_normals(1);
    }

    /// Advances the sensor's noise stream exactly as one discarded
    /// [`read_temp`](Self::read_temp) would (see [`skip_rh`](Self::skip_rh)).
    pub fn skip_temp(&mut self) {
        self.rng.skip_normals(1);
    }
}

/// An NDIR CO₂ concentration sensor (integrated with the CO₂flaps).
#[derive(Debug, Clone)]
pub struct Co2Sensor {
    bias: f64,
    rng: Rng,
}

impl Co2Sensor {
    /// Reading resolution, ppm.
    pub const RESOLUTION: f64 = 1.0;

    /// Creates a sensor, drawing its calibration bias from `rng`.
    #[must_use]
    pub fn new(rng: &mut Rng) -> Self {
        let mut own = rng.fork();
        let bias = own.normal(0.0, 12.0).clamp(-30.0, 30.0);
        Self { bias, rng: own }
    }

    /// Takes a CO₂ reading (floored at zero).
    pub fn read(&mut self, truth: Ppm) -> Ppm {
        let raw = truth.get() + self.bias + self.rng.normal(0.0, 4.0);
        Ppm::new(quantize(raw, Self::RESOLUTION).max(0.0))
    }
}

/// A VISION-2000 turbine flow sensor: "outputs a series of pulses and the
/// pulse frequency is proportional to its measured flow rate" (§III-B).
/// Reading a flow means counting pulses over a gate time, which quantizes
/// the measurement to whole pulses.
#[derive(Debug, Clone)]
pub struct FlowSensor {
    /// Pulses per liter of the turbine.
    pulses_per_liter: f64,
    /// Pulse-counting gate time, s.
    gate_s: f64,
    /// Multiplicative calibration error (≈1.0).
    gain: f64,
    rng: Rng,
}

impl FlowSensor {
    /// Creates a sensor with the VISION-2000's nominal 2.2 pulses/L and a
    /// one-second gate, drawing its gain error from `rng`.
    #[must_use]
    pub fn new(rng: &mut Rng) -> Self {
        let mut own = rng.fork();
        let gain = 1.0 + own.normal(0.0, 0.01).clamp(-0.03, 0.03);
        Self {
            pulses_per_liter: 2.2,
            gate_s: 1.0,
            gain,
            rng: own,
        }
    }

    /// Number of pulses counted over one gate for the true flow
    /// `truth_m3s` (m³/s).
    pub fn count_pulses(&mut self, truth_m3s: f64) -> u64 {
        debug_assert!(truth_m3s >= 0.0);
        let liters = truth_m3s * 1_000.0 * self.gate_s * self.gain;
        let expected = liters * self.pulses_per_liter;
        // Partial pulses show up probabilistically at the gate edges.
        let whole = expected.floor();
        let frac = expected - whole;
        whole as u64 + u64::from(self.rng.chance(frac))
    }

    /// Takes a flow reading in m³/s by counting pulses over the gate.
    pub fn read(&mut self, truth_m3s: f64) -> f64 {
        let pulses = self.count_pulses(truth_m3s);
        pulses as f64 / self.pulses_per_liter / self.gate_s / 1_000.0
    }
}

/// The sensing element a [`SensorFault`] attaches to. These are the
/// WSN-attached sensors — the ones a controller can only reach over the
/// air, where the paper's §V field failures happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SensorTarget {
    /// Ceiling SHT75 `k` (0–11; panel = `k / 6`).
    Ceiling(usize),
    /// Room SHT75 of subspace `s` (0–3).
    Room(usize),
    /// CO₂ sensor of subspace `s` (0–3).
    Co2(usize),
    /// Airbox outlet SHT75 of subspace `a` (0–3).
    Outlet(usize),
}

/// A sensing-element malfunction. A fault corrupts every channel of its
/// target (an SHT75's temperature and humidity share the die and the
/// cabling, so they fail together).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Output freezes at the first value read while the fault is active.
    StuckAt,
    /// Output drifts linearly away from truth at `per_hour` units/hour.
    DriftRamp {
        /// Drift rate in the channel's native unit per hour.
        per_hour: f64,
    },
    /// The element stops answering entirely: no reading, no packet.
    Dropout,
    /// Gaussian noise far above the datasheet level.
    NoiseBurst {
        /// Extra noise standard deviation in the channel's native unit.
        sd: f64,
    },
    /// A step offset (connector knocked loose, recalibration gone wrong).
    CalibrationJump {
        /// Offset in the channel's native unit.
        offset: f64,
    },
}

impl SensorFault {
    /// Stable name for metric keys (`fault.<kind>.active`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::StuckAt => "sensor_stuck_at",
            Self::DriftRamp { .. } => "sensor_drift_ramp",
            Self::Dropout => "sensor_dropout",
            Self::NoiseBurst { .. } => "sensor_noise_burst",
            Self::CalibrationJump { .. } => "sensor_calibration_jump",
        }
    }

    /// Content-based tie-break ordering (see
    /// [`SensorFaultSchedule::active_for`]).
    fn sort_key(&self) -> (u8, u64) {
        match *self {
            Self::StuckAt => (0, 0),
            Self::DriftRamp { per_hour } => (1, per_hour.to_bits()),
            Self::Dropout => (2, 0),
            Self::NoiseBurst { sd } => (3, sd.to_bits()),
            Self::CalibrationJump { offset } => (4, offset.to_bits()),
        }
    }
}

/// One scheduled sensor fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFaultEvent {
    /// When the fault appears.
    pub at: SimTime,
    /// When it is repaired (`None` = never).
    pub repaired_at: Option<SimTime>,
    /// Which sensing element breaks.
    pub target: SensorTarget,
    /// How it breaks.
    pub fault: SensorFault,
}

impl SensorFaultEvent {
    /// True if the fault is active at `now`.
    #[must_use]
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.at && self.repaired_at.is_none_or(|r| now < r)
    }
}

/// A deterministic sensor-fault schedule, mirroring
/// [`FaultSchedule`](crate::faults::FaultSchedule) for actuators.
#[derive(Debug, Clone, Default)]
pub struct SensorFaultSchedule {
    events: Vec<SensorFaultEvent>,
}

impl SensorFaultSchedule {
    /// Builds a schedule from events.
    #[must_use]
    pub fn new(events: Vec<SensorFaultEvent>) -> Self {
        Self { events }
    }

    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The scheduled events.
    #[must_use]
    pub fn events(&self) -> &[SensorFaultEvent] {
        &self.events
    }

    /// The fault governing `target` at `now`. Overlapping windows resolve
    /// to the one scheduled last (greatest `at`); same-instant ties break
    /// by a content-based ordering, so the answer never depends on the
    /// order events were pushed into the schedule.
    #[must_use]
    pub fn active_for(&self, target: SensorTarget, now: SimTime) -> Option<&SensorFaultEvent> {
        self.events
            .iter()
            .filter(|e| e.target == target && e.is_active(now))
            .max_by_key(|e| (e.at, e.fault.sort_key()))
    }

    /// True if any event in the schedule — past, active, or future —
    /// targets `target`. When this is false the fault machinery can
    /// never touch the sensor, so read paths may skip fault bookkeeping
    /// entirely (the gate behind the single-channel fast reads).
    #[must_use]
    pub fn ever_targets(&self, target: SensorTarget) -> bool {
        self.events.iter().any(|e| e.target == target)
    }

    /// True if `target` is dropped out (produces no reading) at `now`.
    #[must_use]
    pub fn dropped_out(&self, target: SensorTarget, now: SimTime) -> bool {
        matches!(
            self.active_for(target, now).map(|e| e.fault),
            Some(SensorFault::Dropout)
        )
    }
}

// --- Checkpoint support --------------------------------------------------
//
// Sensors are pure data (calibration constants plus a private noise RNG),
// so full-value persistence restores both the calibration and the exact
// noise-stream position.

impl bz_state::Persist for TemperatureSensor {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put(&self.bias);
        w.put(&self.noise_sd);
        w.put(&self.rng);
    }

    /// Refuses a noise σ that is negative or not finite: `read` hands it
    /// to [`Rng::normal`], which asserts against it.
    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let sensor = Self {
            bias: r.take()?,
            noise_sd: r.take()?,
            rng: r.take()?,
        };
        if !(sensor.noise_sd.is_finite() && sensor.noise_sd >= 0.0) {
            return Err(bz_state::StateError::Invalid {
                what: "TemperatureSensor",
                reason: format!("noise σ {} is not a standard deviation", sensor.noise_sd),
            });
        }
        Ok(sensor)
    }
}
bz_state::persist_struct!(HumiditySensor {
    rh_bias,
    temp_bias,
    rng
});
bz_state::persist_struct!(Co2Sensor { bias, rng });
bz_state::persist_struct!(FlowSensor {
    pulses_per_liter,
    gate_s,
    gain,
    rng,
});

impl bz_state::Persist for SensorTarget {
    fn save(&self, w: &mut bz_state::Writer) {
        match *self {
            Self::Ceiling(k) => {
                w.put_u8(0);
                w.put_u64(k as u64);
            }
            Self::Room(s) => {
                w.put_u8(1);
                w.put_u64(s as u64);
            }
            Self::Co2(s) => {
                w.put_u8(2);
                w.put_u64(s as u64);
            }
            Self::Outlet(a) => {
                w.put_u8(3);
                w.put_u64(a as u64);
            }
        }
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        let tag = r.take_u8()?;
        let index = usize::try_from(r.take_u64()?).map_err(|_| bz_state::StateError::Invalid {
            what: "SensorTarget",
            reason: "index exceeds usize".to_owned(),
        })?;
        match tag {
            0 => Ok(Self::Ceiling(index)),
            1 => Ok(Self::Room(index)),
            2 => Ok(Self::Co2(index)),
            3 => Ok(Self::Outlet(index)),
            other => Err(bz_state::StateError::BadTag {
                what: "SensorTarget",
                tag: u64::from(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_reading_is_close_and_quantized() {
        let mut rng = Rng::seed_from(1);
        let mut sensor = TemperatureSensor::new(&mut rng);
        let reading = sensor.read(Celsius::new(25.0));
        assert!((reading.get() - 25.0).abs() <= TemperatureSensor::ACCURACY + 0.2);
        let steps = reading.get() / TemperatureSensor::RESOLUTION;
        assert!(
            (steps - steps.round()).abs() < 1e-9,
            "not quantized: {reading}"
        );
    }

    #[test]
    fn temperature_bias_is_stable_per_instance() {
        let mut rng = Rng::seed_from(2);
        let mut sensor = TemperatureSensor::new(&mut rng);
        let readings: Vec<f64> = (0..200)
            .map(|_| sensor.read(Celsius::new(20.0)).get())
            .collect();
        let mean = readings.iter().sum::<f64>() / readings.len() as f64;
        // Mean of many readings converges to truth + bias.
        assert!((mean - 20.0 - sensor.bias).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn different_sensors_have_different_biases() {
        let mut rng = Rng::seed_from(3);
        let a = TemperatureSensor::new(&mut rng);
        let b = TemperatureSensor::new(&mut rng);
        assert_ne!(a.bias, b.bias);
    }

    #[test]
    fn humidity_reading_clamps_to_physical_range() {
        let mut rng = Rng::seed_from(4);
        let mut sensor = HumiditySensor::new(&mut rng);
        for _ in 0..100 {
            let high = sensor.read_rh(Percent::new(99.9));
            assert!(high.get() <= 100.0);
            let low = sensor.read_rh(Percent::new(0.05));
            assert!(low.get() >= 0.0);
        }
    }

    #[test]
    fn humidity_temp_channel_is_tight() {
        let mut rng = Rng::seed_from(5);
        let mut sensor = HumiditySensor::new(&mut rng);
        let reading = sensor.read_temp(Celsius::new(22.0));
        assert!((reading.get() - 22.0).abs() < 0.4);
    }

    #[test]
    fn co2_reading_is_plausible_and_non_negative() {
        let mut rng = Rng::seed_from(6);
        let mut sensor = Co2Sensor::new(&mut rng);
        let reading = sensor.read(Ppm::new(500.0));
        assert!((reading.get() - 500.0).abs() < 45.0);
        let zero = sensor.read(Ppm::new(0.0));
        assert!(zero.get() >= 0.0);
    }

    #[test]
    fn flow_pulses_scale_with_flow() {
        let mut rng = Rng::seed_from(7);
        let mut sensor = FlowSensor::new(&mut rng);
        // 1e-4 m³/s = 0.1 L/s → ~0.22 pulses/s; average over many gates.
        let n = 5_000;
        let total: u64 = (0..n).map(|_| sensor.count_pulses(1.0e-4)).sum();
        let avg = total as f64 / f64::from(n);
        assert!((avg - 0.22).abs() < 0.02, "avg pulses {avg}");
    }

    #[test]
    fn flow_reading_averages_to_truth() {
        let mut rng = Rng::seed_from(8);
        let mut sensor = FlowSensor::new(&mut rng);
        let n = 5_000;
        let mean: f64 = (0..n).map(|_| sensor.read(1.0e-4)).sum::<f64>() / f64::from(n);
        assert!((mean - 1.0e-4).abs() < 0.05e-4, "mean {mean}");
    }

    #[test]
    fn zero_flow_reads_zero() {
        let mut rng = Rng::seed_from(9);
        let mut sensor = FlowSensor::new(&mut rng);
        for _ in 0..50 {
            assert_eq!(sensor.read(0.0), 0.0);
        }
    }

    #[test]
    fn sensor_fault_schedule_windows_and_overlap_resolution() {
        let target = SensorTarget::Ceiling(2);
        let early = SensorFaultEvent {
            at: SimTime::from_mins(5),
            repaired_at: Some(SimTime::from_mins(30)),
            target,
            fault: SensorFault::CalibrationJump { offset: 1.0 },
        };
        let late = SensorFaultEvent {
            at: SimTime::from_mins(10),
            repaired_at: None,
            target,
            fault: SensorFault::StuckAt,
        };
        for events in [vec![early, late], vec![late, early]] {
            let schedule = SensorFaultSchedule::new(events);
            assert_eq!(schedule.active_for(target, SimTime::from_mins(1)), None);
            assert_eq!(
                schedule
                    .active_for(target, SimTime::from_mins(7))
                    .unwrap()
                    .fault,
                SensorFault::CalibrationJump { offset: 1.0 }
            );
            // Both active: the later-scheduled fault governs.
            assert_eq!(
                schedule
                    .active_for(target, SimTime::from_mins(20))
                    .unwrap()
                    .fault,
                SensorFault::StuckAt
            );
            assert_eq!(
                schedule.active_for(SensorTarget::Room(0), SimTime::from_mins(20)),
                None
            );
        }
    }

    #[test]
    fn dropout_is_queryable() {
        let target = SensorTarget::Room(3);
        let schedule = SensorFaultSchedule::new(vec![SensorFaultEvent {
            at: SimTime::from_mins(1),
            repaired_at: Some(SimTime::from_mins(2)),
            target,
            fault: SensorFault::Dropout,
        }]);
        assert!(!schedule.dropped_out(target, SimTime::ZERO));
        assert!(schedule.dropped_out(target, SimTime::from_mins(1)));
        assert!(!schedule.dropped_out(target, SimTime::from_mins(2)));
        assert!(!schedule.dropped_out(SensorTarget::Room(2), SimTime::from_mins(1)));
    }

    #[test]
    fn skipped_channel_leaves_the_stream_bit_identical() {
        let mut r1 = Rng::seed_from(11);
        let mut r2 = Rng::seed_from(11);
        let mut full = HumiditySensor::new(&mut r1);
        let mut skipping = HumiditySensor::new(&mut r2);
        for i in 0..50 {
            let t = Celsius::new(24.0 + f64::from(i) * 0.01);
            let rh = Percent::new(60.0 + f64::from(i) * 0.1);
            if i % 2 == 0 {
                // Temperature consumer: discards the RH sibling.
                let a = full.read_temp(t);
                let _ = full.read_rh(rh);
                let b = skipping.read_temp(t);
                skipping.skip_rh();
                assert_eq!(a, b);
            } else {
                // RH consumer: discards the temperature sibling.
                let _ = full.read_temp(t);
                let a = full.read_rh(rh);
                skipping.skip_temp();
                let b = skipping.read_rh(rh);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn ever_targets_sees_inactive_events() {
        let target = SensorTarget::Room(1);
        let schedule = SensorFaultSchedule::new(vec![SensorFaultEvent {
            at: SimTime::from_mins(100),
            repaired_at: None,
            target,
            fault: SensorFault::StuckAt,
        }]);
        assert!(schedule.ever_targets(target));
        assert!(!schedule.ever_targets(SensorTarget::Room(0)));
        assert!(!SensorFaultSchedule::none().ever_targets(target));
    }

    #[test]
    fn restore_refuses_a_negative_or_non_finite_noise_sd() {
        use bz_state::Persist;
        for sd in [-0.008, f64::NAN, f64::INFINITY] {
            let mut sensor = TemperatureSensor::new(&mut Rng::seed_from(12));
            sensor.noise_sd = sd;
            let mut w = bz_state::Writer::new();
            sensor.save(&mut w);
            let err = match TemperatureSensor::load(&mut bz_state::Reader::new(w.as_bytes())) {
                Ok(mut restored) => {
                    // `Rng::normal` asserts a non-negative σ.
                    let _ = restored.read(Celsius::new(20.0));
                    panic!("σ {sd} restored");
                }
                Err(err) => err.to_string(),
            };
            assert!(err.contains(&format!("noise σ {sd}")), "{err}");
        }
    }

    #[test]
    fn sensors_are_seed_deterministic() {
        let mut r1 = Rng::seed_from(10);
        let mut r2 = Rng::seed_from(10);
        let mut a = TemperatureSensor::new(&mut r1);
        let mut b = TemperatureSensor::new(&mut r2);
        for i in 0..50 {
            let truth = Celsius::new(20.0 + f64::from(i) * 0.1);
            assert_eq!(a.read(truth), b.read(truth));
        }
    }
}
