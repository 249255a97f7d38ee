//! Controller-side sensor-health supervision and graceful degradation.
//!
//! The paper's controllers trust whatever arrives over the air; a stuck
//! ceiling sensor would silently pin the dew-point estimate and a seized
//! recycle pump would let a panel slide below the condensation margin.
//! The [`SensorHealthSupervisor`] sits between the network routing layer
//! and the control modules and enforces three defensive layers:
//!
//! 1. **Per-reading validation** — every delivered sample is checked for
//!    non-finite values, physical range, rate-of-change plausibility, and
//!    stuck-at behaviour (bit-identical readings from a noisy quantized
//!    sensor). Rejected readings never reach a controller; the
//!    controllers' own staleness caches then act as last-known-good holds
//!    until the channel recovers or ages out.
//! 2. **Condensation safe mode** — when a panel has fewer than
//!    [`SupervisorConfig::min_trusted_ceiling`] trustworthy fresh ceiling
//!    sensor pairs, its dew-point estimate is no longer credible and the
//!    radiant valves are closed (a stationary loop cannot condense).
//! 3. **Actuator watchdog** — each control cycle the commanded radiant
//!    loop flow is compared against the flow broadcast by Control-C-2's
//!    own meter. A persistent deficit flags the pump as stuck and engages
//!    safe mode; a periodic re-probe window retries the pump so recovery
//!    after a repair is detected in bounded time.
//!
//! Every detection and recovery is timestamped in [`Detection`] records,
//! which the resilience metrics (`bz_core::chaos`) turn into
//! time-to-detect / time-to-recover numbers.

use bz_wsn::message::DataType;

use crate::devices::channels;
use crate::radiant::CEILING_SENSORS;
use crate::MAX_STALENESS_S;

/// Supervisor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Consecutive bit-identical raw readings before a channel is
    /// declared stuck. Healthy parts quantize at roughly their noise
    /// level, so short identical runs do occur by chance; only a long
    /// identical run (this many readings over [`Self::stuck_window_s`])
    /// is conclusive.
    pub stuck_min_repeats: u32,
    /// Minimum time span the identical readings must cover, s.
    pub stuck_window_s: f64,
    /// Consecutive rejections after which the channel is re-baselined:
    /// the next in-range reading is accepted even if it fails the rate
    /// check (prevents a legitimate step change from locking a channel
    /// out forever).
    pub rebaseline_rejects: u32,
    /// Minimum trustworthy fresh ceiling sensor pairs per panel before
    /// condensation safe mode engages.
    pub min_trusted_ceiling: usize,
    /// Watchdog: commanded flows below this are not probed, m³/s.
    pub pump_min_flow: f64,
    /// Watchdog: sensed volume below this fraction of the commanded
    /// volume over a probe window counts as a deficit.
    pub pump_deficit_ratio: f64,
    /// Watchdog: commanded volume that must accumulate before a probe
    /// window is judged, m³. The loop flow meter is a pulse counter that
    /// resolves ~0.45 L per pulse — single readings at radiant-loop flows
    /// are almost always 0 or 1 pulse, so the watchdog compares volume
    /// integrals and only judges once the commanded volume corresponds to
    /// enough expected pulses for the average to be meaningful.
    pub pump_probe_volume_m3: f64,
    /// Watchdog: consecutive deficit windows before the pump is flagged.
    pub pump_fault_windows: u32,
    /// Watchdog: how long a flagged pump stays locked out before the
    /// supervisor re-probes it, s.
    pub pump_reprobe_s: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            stuck_min_repeats: 12,
            stuck_window_s: 600.0,
            rebaseline_rejects: 5,
            min_trusted_ceiling: 2,
            pump_min_flow: 2.0e-5,
            pump_deficit_ratio: 0.4,
            // ≈11 expected pulses of the VISION-2000 (2.2 pulses/L):
            // relative sampling noise ~30%, so a 40% deficit is ≈2σ.
            pump_probe_volume_m3: 0.025,
            pump_fault_windows: 2,
            pump_reprobe_s: 300.0,
        }
    }
}

/// Why a reading was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// NaN or infinite.
    NonFinite,
    /// Outside the physically possible range for the quantity.
    OutOfRange,
    /// Changed faster than the quantity plausibly can.
    RateSpike,
    /// Bit-identical readings for too long: the element is stuck.
    Stuck,
}

impl RejectReason {
    /// Stable name for metric keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::NonFinite => "non_finite",
            Self::OutOfRange => "out_of_range",
            Self::RateSpike => "rate_spike",
            Self::Stuck => "stuck",
        }
    }
}

/// A timestamped supervisor state transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Simulation time of the transition, s.
    pub at_s: f64,
    /// True for a fault detection, false for a recovery.
    pub fault: bool,
    /// What changed (e.g. `channel temperature/103 stuck`,
    /// `pump_fault panel0`).
    pub what: String,
}

/// Physical plausibility bounds per quantity.
///
/// The `slack` term is a dt-independent allowance for sensor noise and
/// quantization: link-layer retries can deliver two broadcasts fractions
/// of a second apart, where even one quantization step would otherwise
/// look like an enormous rate. A jump is only a spike when it exceeds
/// `slack + max_rate · dt`.
fn bounds_for(data_type: DataType, channel: u16) -> Option<Bounds> {
    let bounds = match data_type {
        DataType::Temperature => Some(Bounds::new(-5.0, 55.0, 0.5, 0.3)),
        DataType::SupplyTemperature => Some(Bounds::new(2.0, 45.0, 0.5, 0.3)),
        DataType::OutletDewPoint => Some(Bounds::new(-10.0, 40.0, 0.5, 0.3)),
        DataType::Humidity => Some(Bounds::new(0.0, 100.0, 2.0, 1.5)),
        DataType::Co2 => Some(Bounds::new(50.0, 10_000.0, 100.0, 40.0)),
        // Flow readings legitimately sit at *exactly* zero for long
        // stretches (pulse counting on a stopped loop), which would fool
        // the stuck-at detector; flow plausibility is the watchdog's job.
        DataType::FlowRate => None,
        DataType::ControlTarget | DataType::Actuation => None,
    };
    // Airbox discharge air steps by design — the coil valve and fan
    // level switch between samples — so the rate check would flag every
    // healthy transient on the outlet channels. Range checks remain.
    if is_outlet_channel(channel) {
        return bounds.map(|b| Bounds {
            max_rate: f64::INFINITY,
            ..b
        });
    }
    bounds
}

/// Whether the range check accepts `value` as a reading of `data_type`.
/// Quantities without a range accept every value.
pub(crate) fn in_range(data_type: DataType, value: f64) -> bool {
    bounds_for(data_type, 0).is_none_or(|b| (b.lo..=b.hi).contains(&value))
}

/// Plausibility envelope of one quantity.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    lo: f64,
    hi: f64,
    /// Maximum physically plausible |rate|, per second.
    max_rate: f64,
    /// dt-independent jump allowance covering noise + quantization.
    slack: f64,
}

impl Bounds {
    fn new(lo: f64, hi: f64, max_rate: f64, slack: f64) -> Self {
        Self {
            lo,
            hi,
            max_rate,
            slack,
        }
    }
}

/// True for the airbox outlet SHT75 broadcast channels.
fn is_outlet_channel(channel: u16) -> bool {
    (channels::OUTLET_BASE..channels::OUTLET_BASE + 4).contains(&channel)
}

/// Per-channel validation state.
#[derive(Debug, Clone, Default)]
struct ChannelState {
    last_accepted: Option<(f64, f64)>,
    last_raw: Option<f64>,
    repeats: u32,
    repeat_since: f64,
    rejects_in_row: u32,
    stuck: bool,
    unhealthy: bool,
}

/// Per-panel pump watchdog state.
///
/// The loop flow meter quantizes to whole turbine pulses (~0.45 L each),
/// so at radiant-loop flows a single broadcast is almost always 0 or
/// exactly one pulse. The watchdog therefore integrates commanded and
/// sensed *volume* over a probe window and judges the ratio only once
/// the commanded volume corresponds to enough expected pulses.
#[derive(Debug, Clone, Default)]
struct PumpWatch {
    /// Latest loop-flow broadcast: (at_s, m³/s).
    sensed: Option<(f64, f64)>,
    /// Time of the previous `observe_applied_flow` call.
    last_observed_s: Option<f64>,
    /// Commanded volume integrated this window, m³.
    window_applied_m3: f64,
    /// Sensed volume integrated this window, m³.
    window_sensed_m3: f64,
    /// Consecutive probe windows judged deficient.
    deficit_windows: u32,
    fault: bool,
    next_probe_s: f64,
}

/// Channels in the static lab plan: 12 ceiling + 4 room + 4 CO₂ +
/// 4 outlet + 1 supply-temperature broadcast channel.
const PLAN_CHANNELS: usize = 25;

/// Quantities [`bounds_for`] tracks, in `DataType`'s derived order:
/// Temperature, Humidity, Co2, SupplyTemperature, OutletDewPoint. The
/// order is load-bearing — slot order must equal `BTreeMap` key order
/// so [`SensorHealthSupervisor::save_state`] can emit the map encoding
/// by walking slots.
const TRACKED_TYPES: [DataType; 5] = [
    DataType::Temperature,
    DataType::Humidity,
    DataType::Co2,
    DataType::SupplyTemperature,
    DataType::OutletDewPoint,
];

/// Rank of `channel` within the static plan, ascending in channel
/// number, or `None` for a channel outside the plan.
fn channel_rank(channel: u16) -> Option<usize> {
    const CEILING_LAST: u16 = channels::CEILING_BASE + 11;
    const ROOM_LAST: u16 = channels::ROOM_BASE + 3;
    const CO2_LAST: u16 = channels::CO2_BASE + 3;
    const OUTLET_LAST: u16 = channels::OUTLET_BASE + 3;
    match channel {
        channels::CEILING_BASE..=CEILING_LAST => Some((channel - channels::CEILING_BASE) as usize),
        channels::ROOM_BASE..=ROOM_LAST => Some(12 + (channel - channels::ROOM_BASE) as usize),
        channels::CO2_BASE..=CO2_LAST => Some(16 + (channel - channels::CO2_BASE) as usize),
        channels::OUTLET_BASE..=OUTLET_LAST => {
            Some(20 + (channel - channels::OUTLET_BASE) as usize)
        }
        channels::SUPPLY_TEMP => Some(24),
        _ => None,
    }
}

/// Inverse of [`channel_rank`].
fn plan_channel(rank: usize) -> u16 {
    #[allow(clippy::cast_possible_truncation)]
    let rank16 = rank as u16;
    match rank {
        0..=11 => channels::CEILING_BASE + rank16,
        12..=15 => channels::ROOM_BASE + (rank16 - 12),
        16..=19 => channels::CO2_BASE + (rank16 - 16),
        20..=23 => channels::OUTLET_BASE + (rank16 - 20),
        _ => channels::SUPPLY_TEMP,
    }
}

/// Rank of `data_type` among [`TRACKED_TYPES`], or `None` for types
/// [`bounds_for`] never tracks.
fn type_rank(data_type: DataType) -> Option<usize> {
    TRACKED_TYPES.iter().position(|t| *t == data_type)
}

/// Dense slot of a tracked `(data_type, channel)` key, or `None` when
/// either half falls outside the static plan.
fn dense_slot(data_type: DataType, channel: u16) -> Option<usize> {
    Some(type_rank(data_type)? * PLAN_CHANNELS + channel_rank(channel)?)
}

/// The `(data_type, channel)` key a dense slot stands for.
fn slot_key(slot: usize) -> (DataType, u16) {
    (
        TRACKED_TYPES[slot / PLAN_CHANNELS],
        plan_channel(slot % PLAN_CHANNELS),
    )
}

/// The supervisor guarding both control modules. See the module docs.
///
/// Channel validation state lives in a dense slot table indexed by
/// `(tracked type, plan channel)`: every delivered sample hits
/// [`SensorHealthSupervisor::validate`], so the per-message map walk of
/// the former `BTreeMap` was measurable in end-to-end throughput. Keys
/// outside the static plan (none in the stock lab, but the validator
/// accepts any addressed broadcast) spill to the `overflow` map, and
/// [`SensorHealthSupervisor::save_state`] re-emits both as the original
/// sorted-map encoding so checkpoint bytes are unchanged.
#[derive(Debug, Clone)]
pub struct SensorHealthSupervisor {
    config: SupervisorConfig,
    dense: Vec<Option<ChannelState>>,
    overflow: std::collections::BTreeMap<(DataType, u16), ChannelState>,
    pumps: [PumpWatch; 2],
    detections: Vec<Detection>,
    /// Readings accepted since the last
    /// [`publish_counters`](Self::publish_counters).
    unpublished_accepted: u64,
    obs: bz_obs::Handle,
}

impl SensorHealthSupervisor {
    /// Creates a supervisor recording against the global registry.
    #[must_use]
    pub fn new(config: SupervisorConfig) -> Self {
        Self {
            config,
            dense: vec![None; TRACKED_TYPES.len() * PLAN_CHANNELS],
            overflow: std::collections::BTreeMap::new(),
            pumps: Default::default(),
            detections: Vec::new(),
            unpublished_accepted: 0,
            obs: bz_obs::Handle::global(),
        }
    }

    /// Redirects this supervisor's metrics to `obs` (per-run isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.obs = obs;
        self
    }

    /// The detection/recovery log so far.
    #[must_use]
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// True while any channel is flagged unhealthy or any pump watchdog
    /// fault is latched.
    #[must_use]
    pub fn anything_flagged(&self) -> bool {
        self.dense
            .iter()
            .flatten()
            .chain(self.overflow.values())
            .any(|c| c.unhealthy)
            || self.pumps.iter().any(|p| p.fault)
    }

    /// Validates one delivered reading. Returns `Ok(())` to pass it to
    /// the consuming controller, or the reason it must be discarded.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] when the reading is untrustworthy.
    pub fn validate(
        &mut self,
        now_s: f64,
        data_type: DataType,
        channel: u16,
        value: f64,
    ) -> Result<(), RejectReason> {
        let Some(bounds) = bounds_for(data_type, channel) else {
            return Ok(());
        };
        let state = match dense_slot(data_type, channel) {
            Some(slot) => self.dense[slot].get_or_insert_with(ChannelState::default),
            None => self.overflow.entry((data_type, channel)).or_default(),
        };

        let verdict = Self::judge(&self.config, state, now_s, value, bounds);
        match verdict {
            Ok(()) => {
                state.last_accepted = Some((now_s, value));
                state.rejects_in_row = 0;
                if state.unhealthy {
                    state.unhealthy = false;
                    self.detections.push(Detection {
                        at_s: now_s,
                        fault: false,
                        what: format!("channel {data_type}/{channel} recovered"),
                    });
                    self.obs.counter_inc("supervisor.channel.recovered");
                }
                self.unpublished_accepted += 1;
            }
            Err(reason) => {
                state.rejects_in_row += 1;
                if !state.unhealthy {
                    state.unhealthy = true;
                    self.detections.push(Detection {
                        at_s: now_s,
                        fault: true,
                        what: format!("channel {data_type}/{channel} {}", reason.name()),
                    });
                }
                self.obs.counter_inc("supervisor.rejected");
                self.obs
                    .counter_inc(format!("supervisor.rejected.{}", reason.name()));
            }
        }
        verdict
    }

    /// Adds the readings accepted since the last publish to the
    /// `supervisor.accepted` counter. Accepting is the hot path — about
    /// one reading per delivered frame — so it only bumps a field, and
    /// the registry sees the count once per publish. Rejections are rare
    /// and count straight into the registry.
    pub fn publish_counters(&mut self) {
        if self.unpublished_accepted > 0 {
            self.obs
                .counter_add("supervisor.accepted", self.unpublished_accepted);
            self.unpublished_accepted = 0;
        }
    }

    /// The pure per-reading judgement, split out so `validate` can borrow
    /// the channel map mutably while pushing detections.
    fn judge(
        config: &SupervisorConfig,
        state: &mut ChannelState,
        now_s: f64,
        value: f64,
        bounds: Bounds,
    ) -> Result<(), RejectReason> {
        if !value.is_finite() {
            return Err(RejectReason::NonFinite);
        }

        // Stuck-at tracking runs on raw values regardless of the other
        // checks: the moment the value moves again the latch clears.
        if state.last_raw == Some(value) {
            state.repeats += 1;
            if state.repeats >= config.stuck_min_repeats
                && now_s - state.repeat_since >= config.stuck_window_s
            {
                state.stuck = true;
            }
        } else {
            state.repeats = 1;
            state.repeat_since = now_s;
            state.stuck = false;
        }
        state.last_raw = Some(value);
        if state.stuck {
            return Err(RejectReason::Stuck);
        }

        if !(bounds.lo..=bounds.hi).contains(&value) {
            return Err(RejectReason::OutOfRange);
        }

        if let Some((prev_t, prev_v)) = state.last_accepted {
            let dt = now_s - prev_t;
            // After enough consecutive rejections the old baseline is
            // meaningless: accept the next in-range reading as the new
            // baseline rather than rejecting forever.
            let rebaseline = state.rejects_in_row >= config.rebaseline_rejects;
            if dt > 0.0 && dt <= MAX_STALENESS_S && !rebaseline {
                let allowed = bounds.slack + bounds.max_rate * dt;
                if (value - prev_v).abs() > allowed {
                    return Err(RejectReason::RateSpike);
                }
            }
        }
        Ok(())
    }

    /// True while `(data_type, channel)` is trustworthy and fresh at
    /// `now_s`: not flagged, with an accepted reading inside the
    /// staleness window. Channels never heard from are *not* trusted.
    #[must_use]
    pub fn channel_trusted(&self, data_type: DataType, channel: u16, now_s: f64) -> bool {
        let state = match dense_slot(data_type, channel) {
            Some(slot) => self.dense[slot].as_ref(),
            None => self.overflow.get(&(data_type, channel)),
        };
        match state {
            Some(state) => {
                !state.unhealthy
                    && state
                        .last_accepted
                        .is_some_and(|(at, _)| now_s - at <= MAX_STALENESS_S)
            }
            None => false,
        }
    }

    /// Number of ceiling sensor positions under `panel` whose temperature
    /// *and* humidity channels are both trusted and fresh.
    #[must_use]
    pub fn trusted_ceiling_pairs(&self, panel: usize, now_s: f64) -> usize {
        (0..CEILING_SENSORS)
            .filter(|k| {
                let ch = channels::CEILING_BASE + (panel * CEILING_SENSORS + k) as u16;
                self.channel_trusted(DataType::Temperature, ch, now_s)
                    && self.channel_trusted(DataType::Humidity, ch, now_s)
            })
            .count()
    }

    /// Ingests Control-C-2's loop-flow broadcast for `panel`.
    pub fn observe_loop_flow(&mut self, panel: usize, now_s: f64, flow: f64) {
        if panel < 2 && flow.is_finite() {
            self.pumps[panel].sensed = Some((now_s, flow));
        }
    }

    /// Runs the re-probe clock: a latched pump fault whose lockout has
    /// elapsed is tentatively cleared so the next cycles can retry the
    /// pump. Call once per control cycle, before querying safe mode.
    pub fn begin_control_cycle(&mut self, now_s: f64) {
        for (panel, pump) in self.pumps.iter_mut().enumerate() {
            if pump.fault && now_s >= pump.next_probe_s {
                pump.fault = false;
                // One deficient probe window re-latches immediately; a
                // healthy window clears the streak and the pump stays up.
                pump.deficit_windows = self.config.pump_fault_windows.saturating_sub(1);
                pump.window_applied_m3 = 0.0;
                pump.window_sensed_m3 = 0.0;
                self.detections.push(Detection {
                    at_s: now_s,
                    fault: false,
                    what: format!("pump_probe panel{panel}"),
                });
                self.obs.counter_inc("supervisor.pump.reprobed");
            }
        }
    }

    /// Feeds the watchdog the flow a healthy loop would deliver for the
    /// voltages commanded to `panel` this cycle (zero while safe mode
    /// holds the valves closed). Integrates commanded and sensed volume;
    /// once enough commanded volume has accumulated the ratio is judged,
    /// and consecutive deficient windows latch a pump fault.
    pub fn observe_applied_flow(&mut self, panel: usize, now_s: f64, applied_flow: f64) {
        /// Accumulation pauses across gaps longer than this (missed
        /// cycles carry no flow evidence), s.
        const MAX_CYCLE_GAP_S: f64 = 30.0;

        let Some(pump) = self.pumps.get_mut(panel) else {
            return;
        };
        let dt = pump.last_observed_s.map(|t| now_s - t);
        pump.last_observed_s = Some(now_s);
        if pump.fault {
            return;
        }
        let Some(dt) = dt.filter(|dt| (0.0..=MAX_CYCLE_GAP_S).contains(dt)) else {
            return;
        };
        // Idle cycles (valves closed, trickle commands) carry no
        // information about the pump; the window just pauses.
        if applied_flow < self.config.pump_min_flow {
            return;
        }
        let sensed_fresh = pump.sensed.filter(|(at, _)| now_s - at <= MAX_STALENESS_S);
        let Some((_, sensed_flow)) = sensed_fresh else {
            return;
        };

        pump.window_applied_m3 += applied_flow * dt;
        pump.window_sensed_m3 += sensed_flow * dt;
        if pump.window_applied_m3 < self.config.pump_probe_volume_m3 {
            return;
        }
        let deficit =
            pump.window_sensed_m3 < self.config.pump_deficit_ratio * pump.window_applied_m3;
        pump.window_applied_m3 = 0.0;
        pump.window_sensed_m3 = 0.0;
        if deficit {
            pump.deficit_windows += 1;
            if pump.deficit_windows >= self.config.pump_fault_windows {
                pump.fault = true;
                pump.next_probe_s = now_s + self.config.pump_reprobe_s;
                self.detections.push(Detection {
                    at_s: now_s,
                    fault: true,
                    what: format!("pump_fault panel{panel}"),
                });
                self.obs.counter_inc("supervisor.pump.fault_latched");
            }
        } else {
            pump.deficit_windows = 0;
        }
    }

    /// True while the watchdog holds a latched fault on `panel`'s loop.
    #[must_use]
    pub fn pump_fault(&self, panel: usize) -> bool {
        self.pumps.get(panel).is_some_and(|p| p.fault)
    }

    /// Condensation safe mode for `panel`: engaged while the dew-margin
    /// inputs are untrustworthy (too few trusted ceiling pairs) or the
    /// loop pump is flagged stuck. The caller must close the radiant
    /// valves while this holds.
    #[must_use]
    pub fn radiant_safe_mode(&self, panel: usize, now_s: f64) -> bool {
        self.trusted_ceiling_pairs(panel, now_s) < self.config.min_trusted_ceiling
            || self.pump_fault(panel)
    }

    /// Serializes the supervisor's dynamic state: every channel's
    /// validation memory, the pump watchdogs, and the detection log.
    /// Tuning and the obs handle are rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        // Emit the channel table in the exact encoding of the former
        // `BTreeMap<(DataType, u16), ChannelState>` — a length prefix
        // followed by `(key, value)` pairs sorted by key — so checkpoint
        // bytes are identical to pre-dense-table builds in both
        // directions. Dense slots already walk in key order; the (in
        // practice empty) overflow map is merged in by a sort.
        let mut merged: Vec<((DataType, u16), &ChannelState)> = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(slot, state)| state.as_ref().map(|s| (slot_key(slot), s)))
            .chain(self.overflow.iter().map(|(k, v)| (*k, v)))
            .collect();
        merged.sort_unstable_by_key(|(k, _)| *k);
        w.put_len(merged.len());
        for (key, state) in merged {
            key.save(w);
            state.save(w);
        }
        self.pumps.save(w);
        self.detections.save(w);
    }

    /// Restores the state saved by [`Self::save_state`], discarding any
    /// accepted readings not yet published: they belong to the state
    /// being replaced.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.unpublished_accepted = 0;
        let channels: std::collections::BTreeMap<(DataType, u16), ChannelState> = Persist::load(r)?;
        self.dense = vec![None; TRACKED_TYPES.len() * PLAN_CHANNELS];
        self.overflow.clear();
        for ((data_type, channel), state) in channels {
            match dense_slot(data_type, channel) {
                Some(slot) => self.dense[slot] = Some(state),
                None => {
                    self.overflow.insert((data_type, channel), state);
                }
            }
        }
        self.pumps = Persist::load(r)?;
        self.detections = Persist::load(r)?;
        Ok(())
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(Detection { at_s, fault, what });
bz_state::persist_struct!(ChannelState {
    last_accepted,
    last_raw,
    repeats,
    repeat_since,
    rejects_in_row,
    stuck,
    unhealthy,
});
bz_state::persist_struct!(PumpWatch {
    sensed,
    last_observed_s,
    window_applied_m3,
    window_sensed_m3,
    deficit_windows,
    fault,
    next_probe_s,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn supervisor() -> SensorHealthSupervisor {
        SensorHealthSupervisor::new(SupervisorConfig::default())
            .with_obs(bz_obs::Handle::isolated())
    }

    /// Feeds a plausible slightly-noisy temperature stream.
    fn feed_healthy(s: &mut SensorHealthSupervisor, channel: u16, from_s: u64, to_s: u64) {
        for i in (from_s..to_s).step_by(3) {
            let noise = f64::from((i % 7) as u32) * 0.01;
            let v = 26.0 + noise;
            assert_eq!(
                s.validate(i as f64, DataType::Temperature, channel, v),
                Ok(()),
                "at {i}"
            );
        }
    }

    #[test]
    fn healthy_streams_pass_and_are_trusted() {
        let mut s = supervisor();
        feed_healthy(&mut s, channels::CEILING_BASE, 0, 300);
        assert!(s.channel_trusted(DataType::Temperature, channels::CEILING_BASE, 300.0));
        assert!(!s.anything_flagged());
    }

    #[test]
    fn non_finite_and_out_of_range_are_rejected() {
        let mut s = supervisor();
        assert_eq!(
            s.validate(0.0, DataType::Temperature, 200, f64::NAN),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            s.validate(1.0, DataType::Temperature, 200, 140.0),
            Err(RejectReason::OutOfRange)
        );
        assert_eq!(
            s.validate(2.0, DataType::Humidity, 200, -3.0),
            Err(RejectReason::OutOfRange)
        );
    }

    #[test]
    fn rate_spike_is_rejected_then_rebaselined() {
        let mut s = supervisor();
        assert_eq!(s.validate(0.0, DataType::Temperature, 200, 26.0), Ok(()));
        // +10 K in 3 s is not weather, it is a fault.
        assert_eq!(
            s.validate(3.0, DataType::Temperature, 200, 36.0),
            Err(RejectReason::RateSpike)
        );
        // But if the sensor keeps insisting, the supervisor eventually
        // accepts the new level as a fresh baseline.
        let mut accepted_at = None;
        for i in 2..12u32 {
            let t = f64::from(i) * 3.0;
            let v = 36.0 + f64::from(i) * 0.01;
            if s.validate(t, DataType::Temperature, 200, v) == Ok(()) {
                accepted_at = Some(i);
                break;
            }
        }
        assert!(accepted_at.is_some(), "rebaseline must unlock the channel");
    }

    #[test]
    fn stuck_channel_is_flagged_and_recovers() {
        let mut s = supervisor();
        feed_healthy(&mut s, 100, 0, 60);
        // Bit-identical readings for hundreds of samples over >600 s: no
        // healthy quantized-noisy part does that.
        let mut last = Ok(());
        for i in 0..300u32 {
            let t = 60.0 + f64::from(i) * 3.0;
            last = s.validate(t, DataType::Temperature, 100, 25.5);
        }
        assert_eq!(last, Err(RejectReason::Stuck));
        assert!(!s.channel_trusted(DataType::Temperature, 100, 960.0));
        assert!(s.anything_flagged());
        let flagged = s.detections().iter().any(|d| d.fault);
        assert!(flagged);
        // The sensor starts moving again: immediate recovery.
        assert_eq!(s.validate(965.0, DataType::Temperature, 100, 25.61), Ok(()));
        assert!(s.channel_trusted(DataType::Temperature, 100, 965.0));
        let recovered = s.detections().iter().any(|d| !d.fault);
        assert!(recovered);
    }

    #[test]
    fn safe_mode_tracks_trusted_ceiling_pairs() {
        let mut s = supervisor();
        // Nothing heard yet: nothing is trusted, safe mode holds.
        assert!(s.radiant_safe_mode(0, 0.0));
        // Two trusted pairs on panel 0 clear it.
        for k in 0..2u16 {
            let ch = channels::CEILING_BASE + k;
            for i in 0..3u32 {
                let t = f64::from(i) * 3.0;
                let n = f64::from(i) * 0.01;
                assert_eq!(s.validate(t, DataType::Temperature, ch, 26.0 + n), Ok(()));
                assert_eq!(s.validate(t, DataType::Humidity, ch, 55.0 + n), Ok(()));
            }
        }
        assert_eq!(s.trusted_ceiling_pairs(0, 10.0), 2);
        assert!(!s.radiant_safe_mode(0, 10.0));
        // Panel 1 heard nothing: still safe-moded.
        assert!(s.radiant_safe_mode(1, 10.0));
        // Everything ages out: safe mode re-engages.
        assert!(s.radiant_safe_mode(0, 500.0));
    }

    #[test]
    fn pump_watchdog_latches_and_reprobes() {
        let mut s = supervisor();
        let commanded = 1.0e-4;
        // Feeds `cycles` healthy 5 s control cycles with `sensed` flow,
        // starting at `from_s`; returns the time after the last cycle.
        fn feed(
            s: &mut SensorHealthSupervisor,
            from_s: f64,
            cycles: u32,
            commanded: f64,
            sensed: f64,
        ) -> f64 {
            let mut t = from_s;
            for _ in 0..cycles {
                s.observe_loop_flow(0, t, sensed);
                s.observe_applied_flow(0, t, commanded);
                t += 5.0;
            }
            t
        }
        // Two full healthy probe windows (0.025 m³ each at 1e-4 m³/s
        // needs 250 s = 50 cycles): no fault.
        let t = feed(&mut s, 0.0, 120, commanded, 0.9e-4);
        assert!(!s.pump_fault(0));
        // Pump seizes: two deficient probe windows latch the fault.
        let t = feed(&mut s, t, 120, commanded, 1.0e-6);
        assert!(s.pump_fault(0));
        assert!(s.radiant_safe_mode(0, t));
        let latched_at = s
            .detections()
            .iter()
            .rev()
            .find(|d| d.fault)
            .expect("latch recorded")
            .at_s;
        // Before the lockout elapses, nothing changes.
        s.begin_control_cycle(latched_at + 100.0);
        assert!(s.pump_fault(0));
        // After the lockout the watchdog re-probes...
        let probe_at = latched_at + 300.0;
        s.begin_control_cycle(probe_at);
        assert!(!s.pump_fault(0));
        // ...and a repaired pump stays clear through further windows.
        feed(&mut s, probe_at, 120, commanded, 0.95e-4);
        assert!(!s.pump_fault(0));
        // If it seizes again the watchdog latches again.
        feed(&mut s, probe_at + 1_000.0, 120, commanded, 1.0e-6);
        assert!(s.pump_fault(0));
    }

    #[test]
    fn supervisor_state_round_trips() {
        let mut s = supervisor();
        for i in 0..40 {
            let t = f64::from(i) * 3.0;
            let _ = s.validate(t, DataType::Temperature, 7, 26.0);
            let _ = s.validate(
                t,
                DataType::Humidity,
                9,
                if i % 2 == 0 { 55.0 } else { 300.0 },
            );
        }
        let mut w = bz_state::Writer::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = supervisor();
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .expect("saved supervisor decodes");
        // The stuck-at detector must continue from the same repeat count:
        // both accept/reject identically from here on.
        for i in 40..80 {
            let t = f64::from(i) * 3.0;
            assert_eq!(
                s.validate(t, DataType::Temperature, 7, 26.0),
                restored.validate(t, DataType::Temperature, 7, 26.0),
                "diverged at step {i}"
            );
        }
        assert_eq!(s.detections(), restored.detections());
    }

    #[test]
    fn accepted_values_are_always_finite_and_in_range() {
        let mut s = supervisor();
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0e9,
            -1.0e9,
            26.0,
        ];
        for (i, &v) in specials.iter().cycle().take(60).enumerate() {
            let t = i as f64 * 3.0;
            if s.validate(t, DataType::Temperature, 7, v) == Ok(()) {
                assert!(v.is_finite());
                assert!((-5.0..=55.0).contains(&v));
            }
        }
    }

    #[test]
    fn dense_slot_mapping_round_trips_and_orders_like_the_map_key() {
        // Every slot must map back to itself, and walking slots in order
        // must walk `(DataType, u16)` keys in strictly ascending order —
        // that equivalence is what lets `save_state` emit the sorted-map
        // encoding straight from the dense table.
        let mut prev: Option<(DataType, u16)> = None;
        for slot in 0..TRACKED_TYPES.len() * PLAN_CHANNELS {
            let key = slot_key(slot);
            assert_eq!(dense_slot(key.0, key.1), Some(slot), "slot {slot}");
            if let Some(p) = prev {
                assert!(p < key, "slot {slot}: {p:?} !< {key:?}");
            }
            prev = Some(key);
        }
        // Untracked types and off-plan channels must spill to overflow.
        assert_eq!(dense_slot(DataType::FlowRate, channels::CEILING_BASE), None);
        assert_eq!(dense_slot(DataType::Temperature, 99), None);
        assert_eq!(dense_slot(DataType::Temperature, 501), None);
    }

    #[test]
    fn save_bytes_match_the_sorted_map_encoding() {
        // Feed a mix of plan channels and one off-plan channel, then
        // check the persisted channel table is byte-identical to the
        // former `BTreeMap` encoding rebuilt from the public state.
        let mut s = supervisor();
        feed_healthy(&mut s, channels::CEILING_BASE + 3, 0, 60);
        assert_eq!(
            s.validate(1.0, DataType::Humidity, channels::ROOM_BASE, 55.0),
            Ok(())
        );
        assert_eq!(
            s.validate(2.0, DataType::Co2, channels::CO2_BASE + 1, 600.0),
            Ok(())
        );
        assert_eq!(s.validate(3.0, DataType::Temperature, 999, 24.0), Ok(()));

        let mut w = bz_state::Writer::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();

        // Round-trip restores the identical table (and re-saves to the
        // identical bytes), covering dense and overflow alike.
        let mut restored = supervisor();
        let mut r = bz_state::Reader::new(&bytes);
        restored.load_state(&mut r).expect("load");
        assert!(s.channel_trusted(DataType::Temperature, channels::CEILING_BASE + 3, 60.0));
        assert!(restored.channel_trusted(DataType::Temperature, channels::CEILING_BASE + 3, 60.0));
        assert!(restored.channel_trusted(DataType::Temperature, 999, 4.0));
        let mut w2 = bz_state::Writer::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }
}
