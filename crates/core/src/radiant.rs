//! The radiant cooling module controller (§III-B).
//!
//! One instance drives one ceiling panel's mixing loop through its two
//! pump voltages. The logic is the paper's:
//!
//! 1. Compute the ceiling-surface dew point `T_c_dew` from the six
//!    temperature/humidity sensors deployed below the panel (we take the
//!    *highest* sensor dew point — condensation anywhere is failure).
//! 2. Hold the mixed-water target `T_t_mix = max(T_supp, T_c_dew)`:
//!    when the tank water is warmer than the dew point it is supplied
//!    directly; otherwise the recycle pump blends warm return water in.
//! 3. Run a PID from `ΔT = T_room − T_pref` to the loop-flow target
//!    `F_t_mix`, and translate `(T_t_mix, F_t_mix)` into supply/recycle
//!    pump voltages using the hydraulic model.

use bz_psychro::{dew_point_checked, Celsius, Percent};
use bz_thermal::hydronics::Pump;
use bz_thermal::plant::RadiantLoopCommand;
use bz_wsn::message::DataType;

use crate::pid::{Pid, PidConfig};
use crate::supervisor::in_range;
use crate::targets::ComfortTargets;
use crate::MAX_STALENESS_S;

/// Number of ceiling sensors per panel.
pub const CEILING_SENSORS: usize = 6;

/// Diagnostics from one control decision (what Control-C-1/C-2 would log).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiantDecision {
    /// The command actually issued.
    pub command: RadiantLoopCommand,
    /// Ceiling dew point estimate, if computable.
    pub ceiling_dew: Option<Celsius>,
    /// The mixed-water temperature target.
    pub mix_target: Option<Celsius>,
    /// The loop-flow target from the PID, m³/s.
    pub flow_target: f64,
}

/// PID for `ΔT → F_t_mix` (output in m³/s): full loop flow (~2e-4 m³/s
/// with both pumps) at ~4 K error.
const FLOW_PID: PidConfig = PidConfig::new(5.0e-5, 2.5e-7, 0.0, 0.0, 2.2e-4);

/// Tuning of the radiant controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiantConfig {
    /// Safety margin added above the measured ceiling dew point, K.
    pub dew_margin_k: f64,
}

impl Default for RadiantConfig {
    fn default() -> Self {
        Self { dew_margin_k: 0.5 }
    }
}

/// Latest-value cache for one ceiling sensor.
#[derive(Debug, Clone, Copy, Default)]
struct CeilingReading {
    temperature: Option<(f64, Celsius)>, // (age timestamp s, value)
    humidity: Option<(f64, Percent)>,
}

/// The radiant cooling module controller for one panel.
///
/// # Example
///
/// A warm, dry room gets direct 18 °C supply:
///
/// ```
/// use bz_core::radiant::{RadiantConfig, RadiantController};
/// use bz_core::targets::ComfortTargets;
/// use bz_psychro::{relative_humidity_from_dew_point, Celsius};
/// use bz_thermal::hydronics::Pump;
///
/// let mut controller = RadiantController::new(
///     RadiantConfig::default(),
///     ComfortTargets::paper_trial(),
///     Pump::radiant_loop(),
/// );
/// let rh = relative_humidity_from_dew_point(Celsius::new(27.0), Celsius::new(15.0));
/// for k in 0..6 {
///     controller.observe_ceiling_temperature(k, 0.0, Celsius::new(27.0));
///     controller.observe_ceiling_humidity(k, 0.0, rh);
/// }
/// controller.set_pipe_readings(Celsius::new(18.0), Celsius::new(20.5));
/// controller.observe_room_temperature(0, 0.0, Celsius::new(27.0));
/// controller.observe_room_temperature(1, 0.0, Celsius::new(27.0));
/// let decision = controller.decide(0.0, 5.0);
/// assert!(decision.command.supply_voltage.get() > 0.0);
/// assert_eq!(decision.command.recycle_voltage.get(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RadiantController {
    config: RadiantConfig,
    pub(crate) targets: ComfortTargets,
    pump: Pump,
    pid: Pid,
    ceiling: [CeilingReading; CEILING_SENSORS],
    room_temps: [Option<(f64, Celsius)>; 2],
    supply_temp: Option<Celsius>,
    return_temp: Option<Celsius>,
    mixed_temp: Option<Celsius>,
    /// Integral trim on the achieved mixed temperature, K: the blend
    /// fraction is computed from a lagging return-pipe reading, so a slow
    /// integrator nudges the commanded blend until the *measured* T_mix
    /// matches the target (the paper's feedback on the mixing junction).
    mix_trim_k: f64,
    obs: bz_obs::Handle,
}

impl RadiantController {
    /// Creates a controller for one panel, recording against the global
    /// `bz_obs` registry.
    #[must_use]
    pub fn new(config: RadiantConfig, targets: ComfortTargets, pump: Pump) -> Self {
        Self {
            pid: Pid::new(FLOW_PID),
            config,
            targets,
            pump,
            ceiling: Default::default(),
            room_temps: [None; 2],
            supply_temp: None,
            return_temp: None,
            mixed_temp: None,
            mix_trim_k: 0.0,
            obs: bz_obs::Handle::global(),
        }
    }

    /// Redirects this controller's metrics (and its inner PID's) to `obs`
    /// (per-run isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.pid = self.pid.with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Updates the comfort targets (occupant changed the thermostat).
    pub fn set_targets(&mut self, targets: ComfortTargets) {
        self.targets = targets;
        self.pid.reset();
    }

    /// Ingests a ceiling temperature sample (sensor `k`, 0–5) received at
    /// `now_s`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn observe_ceiling_temperature(&mut self, k: usize, now_s: f64, value: Celsius) {
        self.ceiling[k].temperature = Some((now_s, value));
    }

    /// Ingests a ceiling humidity sample (sensor `k`, 0–5).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn observe_ceiling_humidity(&mut self, k: usize, now_s: f64, value: Percent) {
        self.ceiling[k].humidity = Some((now_s, value));
    }

    /// Ingests a room temperature sample for one of the panel's two
    /// subspaces (`local` 0–1).
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn observe_room_temperature(&mut self, local: usize, now_s: f64, value: Celsius) {
        self.room_temps[local] = Some((now_s, value));
    }

    /// Sets the wired pipe readings Control-C-1 acquires directly: the
    /// tank supply temperature and the loop return temperature.
    pub fn set_pipe_readings(&mut self, supply: Celsius, return_temp: Celsius) {
        self.supply_temp = Some(supply);
        self.return_temp = Some(return_temp);
    }

    /// Sets the wired reading of the achieved mixed-water temperature
    /// (the T_mix sensor of Figure 3).
    pub fn observe_mixed_temp(&mut self, value: Celsius) {
        self.mixed_temp = Some(value);
    }

    /// The ceiling dew point `T_c_dew`: the *highest* dew point among the
    /// fresh ceiling sensors (condensation on any patch is failure), or
    /// `None` when no sensor pair is fresh.
    #[must_use]
    pub fn ceiling_dew_point(&self, now_s: f64) -> Option<Celsius> {
        let max_age = MAX_STALENESS_S;
        let mut worst: Option<Celsius> = None;
        for reading in &self.ceiling {
            let (Some((t_at, t)), Some((h_at, h))) = (reading.temperature, reading.humidity) else {
                continue;
            };
            if now_s - t_at > max_age || now_s - h_at > max_age {
                continue;
            }
            if let Ok(dew) = dew_point_checked(t, h) {
                worst = Some(match worst {
                    Some(w) => w.max(dew),
                    None => dew,
                });
            }
        }
        worst
    }

    /// Average fresh room temperature over the panel's two subspaces.
    #[must_use]
    pub fn room_temperature(&self, now_s: f64) -> Option<Celsius> {
        let fresh: Vec<f64> = self
            .room_temps
            .iter()
            .filter_map(|r| *r)
            .filter(|(at, _)| now_s - at <= MAX_STALENESS_S)
            .map(|(_, v)| v.get())
            .collect();
        if fresh.is_empty() {
            None
        } else {
            Some(Celsius::new(fresh.iter().sum::<f64>() / fresh.len() as f64))
        }
    }

    /// Runs one control cycle at `now_s` with period `dt_s` and returns
    /// the pump command.
    ///
    /// Fail-safe: without a fresh ceiling dew point, a supply temperature,
    /// and a room temperature, the pumps stop — a stationary loop cannot
    /// condense.
    pub fn decide(&mut self, now_s: f64, dt_s: f64) -> RadiantDecision {
        let off = RadiantDecision {
            command: RadiantLoopCommand::default(),
            ceiling_dew: None,
            mix_target: None,
            flow_target: 0.0,
        };

        let Some(ceiling_dew) = self.ceiling_dew_point(now_s) else {
            return off;
        };
        let (Some(supply), Some(return_temp)) = (self.supply_temp, self.return_temp) else {
            return off;
        };
        let Some(room) = self.room_temperature(now_s) else {
            return RadiantDecision {
                ceiling_dew: Some(ceiling_dew),
                ..off
            };
        };

        // §III-B: T_t_mix = max{T_supp, T_c_dew} (we add a small margin on
        // the dew side).
        let dew_floor = Celsius::new(ceiling_dew.get() + self.config.dew_margin_k);
        let mix_target = supply.max(dew_floor);
        if mix_target > supply {
            // The dew floor is binding: the mix setpoint was raised above
            // the tank supply to keep the panels above condensation.
            self.obs.counter_inc("core.radiant.condensation_guard");
        }

        // ΔT = T_room − T_pref drives the flow PID.
        let error_k = room.get() - self.targets.temperature.get();
        let flow_target = self.pid.step(error_k, dt_s);

        if flow_target <= 1.0e-6 {
            return RadiantDecision {
                command: RadiantLoopCommand::default(),
                ceiling_dew: Some(ceiling_dew),
                mix_target: Some(mix_target),
                flow_target,
            };
        }

        // The integral trim compensates the lag between the return-pipe
        // reading and the post-adjustment return temperature.
        if let Some(measured_mix) = self.mixed_temp {
            if mix_target.get() > supply.get() + 0.05 {
                let error = mix_target.get() - measured_mix.get();
                self.mix_trim_k = (self.mix_trim_k + 0.05 * error * dt_s).clamp(-3.0, 3.0);
            } else {
                self.mix_trim_k = 0.0;
            }
        }
        let command = self.split_flows(flow_target, supply, return_temp, mix_target);
        RadiantDecision {
            command,
            ceiling_dew: Some(ceiling_dew),
            mix_target: Some(mix_target),
            flow_target,
        }
    }

    /// Splits a target loop flow between the supply and recycle pumps so
    /// the junction mixes to `mix_target` (§III-B's feedback design),
    /// honouring the current integral trim.
    fn split_flows(
        &self,
        flow_target: f64,
        supply: Celsius,
        return_temp: Celsius,
        mix_target: Celsius,
    ) -> RadiantLoopCommand {
        let blend_target = mix_target.get() + self.mix_trim_k;
        let (supply_flow, recycle_flow) = if mix_target.get() <= supply.get() + 0.05 {
            // Tank water is already warm enough: supply directly.
            (flow_target, 0.0)
        } else if return_temp.get() <= blend_target {
            // Even pure return water is below the target: recirculate
            // only, letting the loop warm against the panel.
            (0.0, flow_target)
        } else {
            let fraction = (return_temp.get() - blend_target) / (return_temp.get() - supply.get());
            let supply_flow = flow_target * fraction.clamp(0.0, 1.0);
            (supply_flow, flow_target - supply_flow)
        };
        RadiantLoopCommand {
            supply_voltage: self.pump.voltage_for(supply_flow),
            recycle_voltage: self.pump.voltage_for(recycle_flow),
        }
    }

    /// Re-blends an externally chosen loop flow through the same dew-safe
    /// mixing logic [`decide`](Self::decide) uses, without advancing the
    /// PID or the mix trim.
    ///
    /// A predictive planner that wants *less* flow than the reactive PID
    /// asked for calls this so its command structurally inherits the
    /// `T_t_mix = max(T_supp, T_c_dew + margin)` condensation guard.
    /// Returns `None` when the sensor picture is too stale to blend
    /// safely — callers must fall back to a stopped loop.
    #[must_use]
    pub fn command_for_flow(&self, now_s: f64, flow_target: f64) -> Option<RadiantDecision> {
        let ceiling_dew = self.ceiling_dew_point(now_s)?;
        let (supply, return_temp) = (self.supply_temp?, self.return_temp?);
        let dew_floor = Celsius::new(ceiling_dew.get() + self.config.dew_margin_k);
        let mix_target = supply.max(dew_floor);
        let command = if flow_target <= 1.0e-6 {
            RadiantLoopCommand::default()
        } else {
            self.split_flows(flow_target, supply, return_temp, mix_target)
        };
        Some(RadiantDecision {
            command,
            ceiling_dew: Some(ceiling_dew),
            mix_target: Some(mix_target),
            flow_target,
        })
    }

    /// The configuration this controller runs with.
    #[must_use]
    pub fn config(&self) -> &RadiantConfig {
        &self.config
    }

    /// The last wired measurement of the achieved mixed-water temperature.
    #[must_use]
    pub fn measured_mixed_temp(&self) -> Option<Celsius> {
        self.mixed_temp
    }

    /// Serializes the controller's dynamic state: targets (they can change
    /// mid-run), the PID, every latest-value cache, and the mix trim.
    /// Tuning, the pump model, and the obs handle are rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.targets.save(w);
        self.pid.save_state(w);
        self.ceiling.save(w);
        self.room_temps.save(w);
        self.supply_temp.save(w);
        self.return_temp.save(w);
        self.mixed_temp.save(w);
        w.put_f64(self.mix_trim_k);
    }

    /// Restores the state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse, and refuses a
    /// cached room temperature outside the range the sensor supervisor
    /// accepts: only accepted readings reach the cache, and the PID
    /// asserts against a non-finite error.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.targets = Persist::load(r)?;
        self.pid.load_state(r)?;
        self.ceiling = Persist::load(r)?;
        let room_temps: [Option<(f64, Celsius)>; 2] = Persist::load(r)?;
        if let Some((_, t)) = room_temps
            .iter()
            .flatten()
            .find(|(_, t)| !in_range(DataType::Temperature, t.get()))
        {
            return Err(bz_state::StateError::Invalid {
                what: "RadiantController",
                reason: format!(
                    "cached room temperature of {} °C lies outside the supervisor's range",
                    t.get()
                ),
            });
        }
        self.room_temps = room_temps;
        self.supply_temp = Persist::load(r)?;
        self.return_temp = Persist::load(r)?;
        self.mixed_temp = Persist::load(r)?;
        self.mix_trim_k = r.take_f64()?;
        Ok(())
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(CeilingReading {
    temperature,
    humidity,
});
bz_state::persist_struct!(RadiantDecision {
    command,
    ceiling_dew,
    mix_target,
    flow_target,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bz_psychro::relative_humidity_from_dew_point;

    fn controller() -> RadiantController {
        RadiantController::new(
            RadiantConfig::default(),
            ComfortTargets::paper_trial(),
            Pump::radiant_loop(),
        )
    }

    /// Feeds all six ceiling sensors a (temperature, dew point) condition.
    fn feed_ceiling(c: &mut RadiantController, now_s: f64, t: f64, dew: f64) {
        let rh = relative_humidity_from_dew_point(Celsius::new(t), Celsius::new(dew));
        for k in 0..CEILING_SENSORS {
            c.observe_ceiling_temperature(k, now_s, Celsius::new(t));
            c.observe_ceiling_humidity(k, now_s, rh);
        }
    }

    #[test]
    fn fails_safe_without_data() {
        let mut c = controller();
        let d = c.decide(0.0, 5.0);
        assert_eq!(d.command, RadiantLoopCommand::default());
        assert_eq!(d.ceiling_dew, None);
    }

    #[test]
    fn dry_room_gets_direct_supply() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 26.0, 15.0); // dew well below 18 °C
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(20.5));
        c.observe_room_temperature(0, 0.0, Celsius::new(27.0));
        c.observe_room_temperature(1, 0.0, Celsius::new(27.0));
        let d = c.decide(0.0, 5.0);
        // Warm room: flow demanded; dew below supply: no recycle needed.
        assert!(d.flow_target > 0.0);
        assert!(d.command.supply_voltage.get() > 0.0);
        assert_eq!(d.command.recycle_voltage.get(), 0.0);
        assert!((d.mix_target.unwrap().get() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn humid_ceiling_forces_recycle_blend() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 27.0, 21.0); // dew above the 18 °C supply
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(24.0));
        c.observe_room_temperature(0, 0.0, Celsius::new(28.0));
        c.observe_room_temperature(1, 0.0, Celsius::new(28.0));
        let d = c.decide(0.0, 5.0);
        assert!(d.command.recycle_voltage.get() > 0.0, "{d:?}");
        let target = d.mix_target.unwrap().get();
        // Ceiling dew 21 °C + the 0.5 K safety margin.
        assert!((target - 21.5).abs() < 1e-6, "target {target}");
    }

    #[test]
    fn pure_recycle_when_return_is_below_dew() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 27.0, 23.0);
        // Return water (19 °C) is still below the dew floor (23.3 °C).
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(19.0));
        c.observe_room_temperature(0, 0.0, Celsius::new(28.0));
        c.observe_room_temperature(1, 0.0, Celsius::new(28.0));
        let d = c.decide(0.0, 5.0);
        assert_eq!(d.command.supply_voltage.get(), 0.0);
        assert!(d.command.recycle_voltage.get() > 0.0);
    }

    #[test]
    fn cool_room_stops_the_flow() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 24.0, 15.0);
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(19.0));
        c.observe_room_temperature(0, 0.0, Celsius::new(24.5)); // below T_pref
        c.observe_room_temperature(1, 0.0, Celsius::new(24.5));
        let d = c.decide(0.0, 5.0);
        assert!(d.flow_target <= 1.0e-6, "{d:?}");
        assert_eq!(d.command, RadiantLoopCommand::default());
    }

    #[test]
    fn worst_sensor_dominates_the_dew_estimate() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 26.0, 15.0);
        // One sensor sees far more humid air (e.g. near the door).
        let humid_rh = relative_humidity_from_dew_point(Celsius::new(26.0), Celsius::new(22.0));
        c.observe_ceiling_humidity(3, 0.0, humid_rh);
        let dew = c.ceiling_dew_point(0.0).unwrap();
        assert!((dew.get() - 22.0).abs() < 0.1, "dew {dew}");
    }

    #[test]
    fn stale_sensors_are_ignored() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 26.0, 15.0);
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(20.0));
        c.observe_room_temperature(0, 0.0, Celsius::new(28.0));
        // 10 minutes later everything is stale → fail safe.
        let d = c.decide(600.0, 5.0);
        assert_eq!(d.command, RadiantLoopCommand::default());
        assert_eq!(d.ceiling_dew, None);
    }

    #[test]
    fn flow_scales_with_temperature_error() {
        let run = |room_t: f64| {
            let mut c = controller();
            feed_ceiling(&mut c, 0.0, room_t, 15.0);
            c.set_pipe_readings(Celsius::new(18.0), Celsius::new(20.0));
            c.observe_room_temperature(0, 0.0, Celsius::new(room_t));
            c.observe_room_temperature(1, 0.0, Celsius::new(room_t));
            c.decide(0.0, 5.0).flow_target
        };
        let mild = run(26.0);
        let hot = run(29.0);
        assert!(hot > mild, "hot {hot} vs mild {mild}");
    }

    #[test]
    fn command_for_flow_matches_the_decide_blend() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 27.0, 21.0);
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(24.0));
        c.observe_room_temperature(0, 0.0, Celsius::new(28.0));
        c.observe_room_temperature(1, 0.0, Celsius::new(28.0));
        let d = c.decide(0.0, 5.0);
        let re = c.command_for_flow(0.0, d.flow_target).unwrap();
        assert_eq!(re.command, d.command);
        assert_eq!(re.mix_target, d.mix_target);
        // A scaled-down flow keeps the same dew-safe mix target.
        let half = c.command_for_flow(0.0, d.flow_target * 0.5).unwrap();
        assert_eq!(half.mix_target, d.mix_target);
        assert!(half.command.recycle_voltage.get() > 0.0);
    }

    #[test]
    fn command_for_flow_fails_safe_without_data() {
        let c = controller();
        assert!(c.command_for_flow(0.0, 1.0e-4).is_none());
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 27.0, 21.0);
        // Ceiling data but no pipe readings: still unsafe to blend.
        assert!(c.command_for_flow(0.0, 1.0e-4).is_none());
    }

    #[test]
    fn changing_targets_resets_the_pid() {
        let mut c = controller();
        feed_ceiling(&mut c, 0.0, 28.0, 15.0);
        c.set_pipe_readings(Celsius::new(18.0), Celsius::new(20.0));
        c.observe_room_temperature(0, 0.0, Celsius::new(28.0));
        c.observe_room_temperature(1, 0.0, Celsius::new(28.0));
        for i in 0..100 {
            c.decide(f64::from(i), 1.0);
        }
        c.set_targets(ComfortTargets::from_dew_point(
            Celsius::new(27.0),
            Celsius::new(18.0),
            bz_psychro::Ppm::new(800.0),
        ));
        // Integral cleared: with the room now barely above target the
        // demanded flow is small again.
        feed_ceiling(&mut c, 100.0, 27.2, 15.0);
        c.observe_room_temperature(0, 100.0, Celsius::new(27.2));
        c.observe_room_temperature(1, 100.0, Celsius::new(27.2));
        let d = c.decide(100.0, 1.0);
        assert!(d.flow_target < 5.0e-5, "{d:?}");
    }

    #[test]
    fn restore_refuses_a_room_temperature_the_supervisor_would_reject() {
        let restore = |t: f64| {
            let mut source = controller();
            source.observe_room_temperature(1, 0.0, Celsius::new(t));
            let mut w = bz_state::Writer::new();
            source.save_state(&mut w);
            controller()
                .load_state(&mut bz_state::Reader::new(w.as_bytes()))
                .map_err(|e| e.to_string())
        };
        for t in [f64::NAN, 6400.0, -40.0] {
            let err = restore(t).unwrap_err();
            assert!(err.contains("outside the supervisor's range"), "{err}");
        }
        assert_eq!(restore(27.0), Ok(()));
    }
}
