//! The MPC control strategy plugged into the `bz-core` loop.
//!
//! [`MpcStrategy`] wraps the paper's [`ReactiveStrategy`] behind the same
//! [`ControlStrategy`] seam the system drives, and layers a receding
//! horizon on top:
//!
//! - every control cycle it tees the sensed streams into its estimators
//!   (occupancy → [`OccupancyForecaster`], supervisor-trusted room
//!   temperatures → per-subspace [`ZoneIdentifier`]s);
//! - every minute it assembles a [`HorizonProblem`] from the identified
//!   models, the occupancy forecast, and the deterministic nominal
//!   weather, optimizes a [`Plan`], and projects it dew-safe;
//! - at decision time it *relaxes* the reactive commands toward the plan:
//!   the radiant flow target is scaled and re-blended through
//!   [`bz_core::radiant::RadiantController::command_for_flow`]
//!   (structurally inheriting the
//!   condensation guard), and the fan level is capped — but only while
//!   the room's dew point and CO₂ are within target.
//!
//! With `horizon == 0` the strategy is inert by construction: every
//! method body delegates before touching any state or metric, so a run is
//! byte-identical to the reactive baseline (a regression test holds this).

use bz_core::radiant::RadiantDecision;
use bz_core::strategy::{ControlStrategy, CycleInputs, ReactiveStrategy};
use bz_core::system::SystemConfig;
use bz_core::targets::ComfortTargets;
use bz_core::ventilation::VentilationDecision;
use bz_psychro::{Celsius, Ppm};
use bz_simcore::{SimDuration, SimTime};
use bz_thermal::airbox::FanLevel;
use bz_thermal::plant::RadiantLoopCommand;
use bz_thermal::weather::WeatherConfig;
use bz_thermal::zone::ZoneParams;

use crate::forecast::{ForecastConfig, OccupancyForecaster};
use crate::identify::{IdentifyConfig, ZoneIdentifier};
use crate::optimize::{cost, optimize, project_dew_safe, HorizonProblem, Plan};

/// Width of one plan step, s.
const STEP_S: f64 = 120.0;

/// How often the plan is re-optimized, s.
const REPLAN_PERIOD_S: f64 = 60.0;

/// Coordinate-descent sweeps per replan.
const SWEEPS: usize = 2;

/// Occupancy-profile learner tuning: the office's 90-minute occupancy
/// period in 5-minute bins.
const FORECAST: ForecastConfig = ForecastConfig {
    period_s: 5_400.0,
    bin_s: 300.0,
    alpha: 0.4,
};

/// Comfort penalty weight, W/K² (see [`HorizonProblem`]).
const COMFORT_WEIGHT: f64 = 5_000.0;

/// Free comfort band around the target, K.
const COMFORT_BAND_K: f64 = 0.5;

/// Sensible extraction one subspace sees at full radiant scale, W.
const RADIANT_UNIT_W: f64 = 240.0;

/// Sensible heat per occupant for the model prior, W.
const OCCUPANT_SENSIBLE_W: f64 = 70.0;

/// Chiller COP priced against radiant extraction.
const RADIANT_COP: f64 = 6.0;

/// Chiller COP priced against ventilation cooling.
const VENT_COP: f64 = 3.0;

/// Nominal supply-to-room delta priced for ventilation cooling, K.
const VENT_DELTA_K: f64 = 5.0;

/// Loop pump electrical power per panel at full scale, W.
const PUMP_W: f64 = 6.0;

/// Recovery lead time before a forecast arrival, s. Horizon steps within
/// this window of a predicted-occupied time are planned at full service,
/// so a zone shed while empty is pulled back to the comfort band *before*
/// people walk in rather than after.
const ARRIVAL_GUARD_S: f64 = 1_200.0;

/// What a run chooses of the MPC layer: its horizon. The rest of its
/// tuning is fixed (see `docs/PREDICTIVE.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Horizon length in 2-minute plan steps. **0 disables the layer
    /// entirely** — the strategy then delegates every call and a run is
    /// byte-identical to the reactive baseline.
    pub horizon: usize,
}

impl MpcConfig {
    /// Preset for the bundled office scenario: a 90-minute occupancy
    /// period planned over a 30-minute lookahead.
    #[must_use]
    pub fn office() -> Self {
        Self { horizon: 15 }
    }

    /// The inert layer, horizon 0 (used by the byte-identity regression
    /// test).
    #[must_use]
    pub fn disabled() -> Self {
        Self { horizon: 0 }
    }
}

/// Controls applied to one subspace during the previous control cycle,
/// kept so the next cycle's sensed temperature delta can be attributed
/// to them (the RLS regressor).
#[derive(Debug, Clone, Copy)]
struct AppliedControls {
    radiant_scale: f64,
    fan_flow_m3s: f64,
    occupants: f64,
}

/// The occupancy-aware receding-horizon strategy.
#[derive(Debug)]
pub struct MpcStrategy {
    inner: ReactiveStrategy,
    config: MpcConfig,
    obs: bz_obs::Handle,
    targets: ComfortTargets,
    weather: WeatherConfig,
    forecaster: OccupancyForecaster,
    identifiers: [ZoneIdentifier; 4],
    plan: Plan,
    next_replan_s: f64,
    /// Latest sensed room temperature per subspace (time, °C) — teed from
    /// the over-the-air deliveries, never read from the plant.
    sensed_room: [Option<(f64, f64)>; 4],
    /// Latest sensed CO₂ per subspace (time, ppm).
    sensed_co2: [Option<(f64, f64)>; 4],
    /// Identification anchor: the sensed sample the next rate observation
    /// is measured from.
    prev_sample: [Option<(f64, f64)>; 4],
    /// Controls applied last cycle (the regressor for the interval ending
    /// at the next trusted sample).
    applied: [Option<AppliedControls>; 4],
    /// Scratch: the plan scale/cap actually applied this cycle.
    cycle_scale: [f64; 2],
    cycle_fan: [FanLevel; 4],
}

impl MpcStrategy {
    /// Builds the MPC layer around a freshly built reactive stack for
    /// `system`.
    #[must_use]
    pub fn new(
        inner: ReactiveStrategy,
        config: MpcConfig,
        system: &SystemConfig,
        obs: bz_obs::Handle,
    ) -> Self {
        let prior =
            ZoneParams::bubble_zero_subspace().surrogate_prior(RADIANT_UNIT_W, OCCUPANT_SENSIBLE_W);
        Self {
            inner,
            obs,
            targets: system.targets,
            weather: WeatherConfig::singapore_afternoon(),
            forecaster: OccupancyForecaster::new(FORECAST),
            identifiers: std::array::from_fn(|_| {
                ZoneIdentifier::with_prior(prior, IdentifyConfig::default())
            }),
            plan: Plan::full_service(0.0, STEP_S, 0),
            next_replan_s: 0.0,
            sensed_room: [None; 4],
            sensed_co2: [None; 4],
            prev_sample: [None; 4],
            applied: [None; 4],
            cycle_scale: [1.0; 2],
            cycle_fan: [FanLevel::L4; 4],
            config,
        }
    }

    /// Whether the layer is doing anything at all.
    fn enabled(&self) -> bool {
        self.config.horizon > 0
    }

    /// Whether plans may deviate from full service (profile learned).
    fn planning(&self) -> bool {
        self.enabled() && self.forecaster.confident()
    }

    /// One RLS update per subspace whose room channel is trusted and has
    /// delivered a fresh sample since the last anchor.
    fn identify(&mut self, inputs: &CycleInputs) {
        for s in 0..4 {
            let Some((t1, temp1)) = self.sensed_room[s] else {
                continue;
            };
            if let (Some((t0, temp0)), Some(applied), true) =
                (self.prev_sample[s], self.applied[s], inputs.room_trusted[s])
            {
                let dt = t1 - t0;
                // Attribute only intervals on the control-cycle scale: a
                // long sensing gap spans many different controls.
                if dt > 1e-6 && dt <= 4.0 * inputs.dt_s {
                    let outdoor = self.outdoor_nominal(t0);
                    let phi = [
                        applied.radiant_scale,
                        applied.fan_flow_m3s,
                        outdoor - temp0,
                        applied.occupants,
                        1.0,
                    ];
                    self.identifiers[s].update(phi, (temp1 - temp0) / dt);
                }
            }
            if self.prev_sample[s].map(|(t0, _)| t1 > t0).unwrap_or(true) {
                self.prev_sample[s] = Some((t1, temp1));
            }
        }
    }

    fn outdoor_nominal(&self, t_s: f64) -> f64 {
        self.weather
            .nominal_temperature(SimTime::ZERO + SimDuration::from_secs_f64(t_s.max(0.0)))
    }

    /// Assembles the horizon problem, optimizes, and projects dew-safe.
    fn replan(&mut self, inputs: &CycleInputs) {
        let now_ms = (inputs.now_s * 1_000.0) as u64;
        let plan_span = self.obs.span("mpc.plan", now_ms);
        let target_c = self.targets.temperature.get();
        let initial_temp_c =
            std::array::from_fn(|s| self.sensed_room[s].map_or(target_c, |(_, t)| t));
        let theta = std::array::from_fn(|s| self.identifiers[s].theta());
        let horizon = self.config.horizon;
        let mut outdoor_c = Vec::with_capacity(horizon);
        let mut occupied = Vec::with_capacity(horizon);
        // Probe the forecast at bin granularity through the arrival
        // guard: a step counts as occupied if anyone is predicted within
        // `ARRIVAL_GUARD_S` of it, so service is restored before the
        // arrival instead of after.
        let probes = (ARRIVAL_GUARD_S / FORECAST.bin_s).ceil() as usize;
        for j in 0..horizon {
            let mid = inputs.now_s + (j as f64 + 0.5) * STEP_S;
            outdoor_c.push(self.outdoor_nominal(mid));
            occupied.push(std::array::from_fn(|s| {
                (0..=probes).any(|k| {
                    let t = (mid + k as f64 * FORECAST.bin_s).min(mid + ARRIVAL_GUARD_S);
                    self.forecaster.predict_occupied(s, t)
                })
            }));
        }
        let problem = HorizonProblem {
            start_s: inputs.now_s,
            step_s: STEP_S,
            horizon,
            initial_temp_c,
            theta,
            outdoor_c,
            occupied,
            target_c,
            comfort_band_k: COMFORT_BAND_K,
            comfort_weight: COMFORT_WEIGHT,
            radiant_unit_w: RADIANT_UNIT_W,
            radiant_cop: RADIANT_COP,
            vent_cop: VENT_COP,
            vent_delta_k: VENT_DELTA_K,
            pump_w: PUMP_W,
        };

        let optimize_span = self.obs.span("mpc.optimize", now_ms);
        let mut plan = optimize(&problem, SWEEPS);
        optimize_span.exit(now_ms);

        // Hard condensation constraint, always last: persistence forecasts
        // of the panel surface proxy and ceiling dew point. Missing data
        // projects to "risky" (scale 0), matching the reactive fail-safe.
        let margin_k = self.inner.radiant_controller(0).config().dew_margin_k;
        let mut surface_c = [[f64::NAN; 2]; 1];
        let mut dew_c = [[f64::NAN; 2]; 1];
        for panel in 0..2 {
            let controller = self.inner.radiant_controller(panel);
            if let Some(dew) = controller.ceiling_dew_point(inputs.now_s) {
                dew_c[0][panel] = dew.get();
            }
            let rooms = [2 * panel, 2 * panel + 1];
            let room_mean = {
                let temps: Vec<f64> = rooms
                    .iter()
                    .filter_map(|&s| self.sensed_room[s].map(|(_, t)| t))
                    .collect();
                if temps.is_empty() {
                    f64::NAN
                } else {
                    temps.iter().sum::<f64>() / temps.len() as f64
                }
            };
            if let Some(mix) = controller.measured_mixed_temp() {
                surface_c[0][panel] = 0.7 * mix.get() + 0.3 * room_mean;
            }
        }
        let surface: Vec<[f64; 2]> = vec![surface_c[0]; horizon];
        let dew: Vec<[f64; 2]> = vec![dew_c[0]; horizon];
        let zeroed = project_dew_safe(&mut plan, &surface, &dew, margin_k);

        let mean_scale = if plan.radiant_scale.is_empty() {
            1.0
        } else {
            plan.radiant_scale
                .iter()
                .map(|s| (s[0] + s[1]) / 2.0)
                .sum::<f64>()
                / plan.radiant_scale.len() as f64
        };
        self.obs.counter_inc("mpc.replans");
        if zeroed > 0 {
            self.obs
                .counter_add("mpc.plan.dew_projected", zeroed as u64);
        }
        self.obs
            .gauge_set("mpc.plan.mean_radiant_scale", now_ms, mean_scale);
        self.obs
            .gauge_set("mpc.plan.cost", now_ms, cost(&plan, &problem));
        self.plan = plan;
        plan_span.exit(now_ms);
    }
}

impl ControlStrategy for MpcStrategy {
    fn name(&self) -> &'static str {
        "mpc"
    }

    fn reactive(&self) -> &ReactiveStrategy {
        &self.inner
    }

    fn reactive_mut(&mut self) -> &mut ReactiveStrategy {
        &mut self.inner
    }

    fn begin_cycle(&mut self, inputs: &CycleInputs) {
        // Horizon 0 must be byte-identical to the reactive baseline:
        // bail out before touching any estimator, metric, or span.
        if !self.enabled() {
            return;
        }
        let now_ms = (inputs.now_s * 1_000.0) as u64;

        for s in 0..4 {
            self.forecaster
                .observe(s, inputs.now_s, inputs.occupancy[s]);
        }

        // The span borrows a clone: `identify` takes `&mut self`.
        let obs = self.obs.clone();
        let identify_span = obs.span("mpc.identify", now_ms);
        self.identify(inputs);
        identify_span.exit(now_ms);

        let planning = self.planning();
        self.obs
            .gauge_set("mpc.active", now_ms, f64::from(u8::from(planning)));
        if planning && inputs.now_s >= self.next_replan_s {
            self.replan(inputs);
            self.next_replan_s = inputs.now_s + REPLAN_PERIOD_S;
        }

        // Stage the regressor for the *next* cycle's rate observation:
        // the controls chosen below (decide_*) fill cycle_scale/cycle_fan,
        // which are committed in the decide calls themselves; occupancy is
        // known now.
        for s in 0..4 {
            self.applied[s] = Some(AppliedControls {
                radiant_scale: self.cycle_scale[s / 2],
                fan_flow_m3s: self.cycle_fan[s].flow_m3s(),
                occupants: f64::from(inputs.occupancy[s]),
            });
        }
    }

    fn observe_room_temperature(&mut self, subspace: usize, now_s: f64, value: Celsius) {
        if self.enabled() {
            self.sensed_room[subspace] = Some((now_s, value.get()));
        }
        self.inner.observe_room_temperature(subspace, now_s, value);
    }

    fn observe_room(
        &mut self,
        subspace: usize,
        now_s: f64,
        temperature: Celsius,
        humidity: bz_psychro::Percent,
    ) {
        // Room temperature also arrives here (paired with humidity for
        // the ventilation controller); tee it for identification too.
        if self.enabled() {
            self.sensed_room[subspace] = Some((now_s, temperature.get()));
        }
        self.inner
            .observe_room(subspace, now_s, temperature, humidity);
    }

    fn observe_co2(&mut self, subspace: usize, now_s: f64, value: Ppm) {
        if self.enabled() {
            self.sensed_co2[subspace] = Some((now_s, value.get()));
        }
        self.inner.observe_co2(subspace, now_s, value);
    }

    fn decide_radiant(&mut self, panel: usize, now_s: f64, dt_s: f64) -> RadiantDecision {
        // The inner PID always steps, so its state (and a horizon-0 run)
        // is identical to the reactive baseline.
        let decision = self.inner.decide_radiant(panel, now_s, dt_s);
        if !self.enabled() {
            return decision;
        }
        let scale = self.plan.radiant_scale_at(now_s, panel).clamp(0.0, 1.0);
        self.cycle_scale[panel] = scale;
        if scale >= 1.0 {
            return decision;
        }
        self.obs.counter_inc("mpc.radiant_scaled");
        let scaled_flow = decision.flow_target * scale;
        // Re-blend the reduced flow through the controller's own dew-safe
        // mixing logic; a too-stale sensor picture means the reactive
        // decision was already fail-safe (pumps off), so fall back to it.
        self.inner
            .radiant_controller(panel)
            .command_for_flow(now_s, scaled_flow)
            .unwrap_or(RadiantDecision {
                command: RadiantLoopCommand::default(),
                flow_target: 0.0,
                ..decision
            })
    }

    fn decide_ventilation(
        &mut self,
        subspace: usize,
        now_s: f64,
        dt_s: f64,
    ) -> VentilationDecision {
        let mut decision = self.inner.decide_ventilation(subspace, now_s, dt_s);
        if !self.enabled() {
            return decision;
        }
        let cap = self.plan.fan_cap_at(now_s, subspace);
        let mut applied = decision.actuation.fan;
        if decision.actuation.fan > cap {
            // Capping is a comfort/energy trade only while the room is
            // within its moisture and CO₂ targets; a real excursion keeps
            // the reactive fan choice.
            let dew_ok = decision
                .room_dew
                .is_some_and(|d| d.get() <= decision.room_dew_target.get() + 0.1);
            let co2_ok =
                self.sensed_co2[subspace].is_none_or(|(_, ppm)| ppm < self.targets.co2_limit.get());
            if dew_ok && co2_ok {
                applied = cap;
                decision.actuation.fan = cap;
                decision.actuation.flap_open = cap != FanLevel::Off;
                if cap == FanLevel::Off {
                    decision.actuation.coil_pump_voltage = bz_psychro::Volts::new(0.0);
                }
                self.obs.counter_inc("mpc.fan_capped");
            }
        }
        self.cycle_fan[subspace] = applied;
        decision
    }

    fn set_targets(&mut self, targets: ComfortTargets) {
        self.targets = targets;
        self.inner.set_targets(targets);
    }

    // The strategy seam's checkpoint contract: delegate to the reactive
    // stack first, then append the MPC layer's own estimators and plan.
    fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.inner.save_state(w);
        self.targets.save(w);
        self.forecaster.save_state(w);
        self.identifiers.save(w);
        self.plan.save(w);
        w.put_f64(self.next_replan_s);
        self.sensed_room.save(w);
        self.sensed_co2.save(w);
        self.prev_sample.save(w);
        self.applied.save(w);
        self.cycle_scale.save(w);
        self.cycle_fan.save(w);
    }

    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.inner.load_state(r)?;
        self.targets = Persist::load(r)?;
        self.forecaster.load_state(r)?;
        self.identifiers = Persist::load(r)?;
        self.plan = Persist::load(r)?;
        if self.plan.fan_cap.len() != self.plan.radiant_scale.len() {
            // Both tables are indexed by the step the radiant table picks.
            return Err(bz_state::StateError::Invalid {
                what: "MpcStrategy plan",
                reason: format!(
                    "{} fan caps for {} radiant steps",
                    self.plan.fan_cap.len(),
                    self.plan.radiant_scale.len()
                ),
            });
        }
        self.next_replan_s = r.take_f64()?;
        self.sensed_room = Persist::load(r)?;
        self.sensed_co2 = Persist::load(r)?;
        self.prev_sample = Persist::load(r)?;
        self.applied = Persist::load(r)?;
        self.cycle_scale = Persist::load(r)?;
        self.cycle_fan = Persist::load(r)?;
        Ok(())
    }
}

bz_state::persist_struct!(AppliedControls {
    radiant_scale,
    fan_flow_m3s,
    occupants,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bz_thermal::plant::PlantConfig;

    fn harness(config: MpcConfig) -> MpcStrategy {
        let system = SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab());
        let obs = bz_obs::Handle::isolated();
        let inner = MpcStrategy::reactive_for_tests(&system, &obs);
        MpcStrategy::new(inner, config, &system, obs)
    }

    impl MpcStrategy {
        fn reactive_for_tests(system: &SystemConfig, obs: &bz_obs::Handle) -> ReactiveStrategy {
            ReactiveStrategy::new(system, bz_thermal::hydronics::Pump::radiant_loop(), obs)
        }
    }

    fn inputs(now_s: f64, occupancy: [u32; 4]) -> CycleInputs {
        CycleInputs {
            now_s,
            dt_s: 5.0,
            occupancy,
            room_trusted: [true; 4],
        }
    }

    #[test]
    fn horizon_zero_never_touches_estimators_or_metrics() {
        let mut s = harness(MpcConfig::disabled());
        s.begin_cycle(&inputs(0.0, [2; 4]));
        s.observe_room_temperature(0, 0.0, Celsius::new(26.0));
        let _ = s.decide_radiant(0, 0.0, 5.0);
        let _ = s.decide_ventilation(0, 0.0, 5.0);
        assert!(s.sensed_room.iter().all(Option::is_none));
        assert!(!s.forecaster.confident());
        let mut export = Vec::new();
        s.obs.write_jsonl(&mut export).unwrap();
        assert!(
            !String::from_utf8(export).unwrap().contains("mpc."),
            "horizon 0 must record nothing"
        );
    }

    #[test]
    fn restore_rejects_a_plan_whose_tables_differ_in_length() {
        let mut source = harness(MpcConfig::office());
        source.plan = Plan {
            start_s: 0.0,
            step_s: 120.0,
            radiant_scale: vec![[1.0; 2]; 3],
            fan_cap: vec![[FanLevel::L4; 4]; 1],
        };
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let mut restored = harness(MpcConfig::office());
        let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
        if loaded.is_ok() {
            // The fan cap is looked up at the step the radiant table picks.
            let _ = restored.decide_ventilation(0, 300.0, 5.0);
        }
        let err = loaded.unwrap_err().to_string();
        assert!(err.contains("1 fan caps for 3 radiant steps"), "{err}");
    }

    #[test]
    fn planning_waits_for_a_confident_forecast() {
        let mut s = harness(MpcConfig::office());
        s.begin_cycle(&inputs(0.0, [2; 4]));
        assert!(!s.planning());
        assert_eq!(
            s.plan.radiant_scale.len(),
            0,
            "plan stays empty (full service)"
        );
    }

    #[test]
    fn a_confident_forecaster_triggers_replanning() {
        let mut s = harness(MpcConfig::office());
        // Teach the forecaster a square wave over one full period.
        let period = FORECAST.period_s;
        let mut t = 0.0;
        while t <= period + 5.0 {
            let occupied = t.rem_euclid(period) < period / 2.0;
            s.begin_cycle(&inputs(t, [u32::from(occupied) * 2; 4]));
            t += 5.0;
        }
        assert!(s.planning());
        assert_eq!(s.plan.radiant_scale.len(), s.config.horizon);
        // Without ceiling dew data every step projects to scale 0: the
        // fail-safe mirrors the reactive controller's.
        assert!(s.plan.radiant_scale.iter().all(|sc| sc == &[0.0, 0.0]));
    }

    #[test]
    fn identification_moves_theta_only_when_trusted() {
        let mut s = harness(MpcConfig::office());
        let before = s.identifiers[0].theta();
        s.observe_room_temperature(0, 0.0, Celsius::new(27.0));
        s.begin_cycle(&inputs(0.0, [1; 4]));
        s.observe_room_temperature(0, 5.0, Celsius::new(26.9));
        let mut untrusted = inputs(5.0, [1; 4]);
        untrusted.room_trusted = [false; 4];
        s.begin_cycle(&untrusted);
        assert_eq!(s.identifiers[0].samples, 0);
        assert_eq!(s.identifiers[0].theta(), before);

        s.observe_room_temperature(0, 10.0, Celsius::new(26.8));
        s.begin_cycle(&inputs(10.0, [1; 4]));
        assert_eq!(s.identifiers[0].samples, 1);
    }

    #[test]
    fn fan_caps_only_apply_inside_the_comfort_band() {
        let mut s = harness(MpcConfig::office());
        // Force a restrictive plan covering all time.
        s.plan = Plan {
            start_s: 0.0,
            step_s: 120.0,
            radiant_scale: vec![[1.0; 2]; 1],
            fan_cap: vec![[FanLevel::Off; 4]; 1],
        };
        let rh =
            bz_psychro::relative_humidity_from_dew_point(Celsius::new(28.9), Celsius::new(27.4));
        // Very humid room: the reactive fan demand must survive the cap.
        s.observe_room(0, 0.0, Celsius::new(28.9), rh);
        let d = s.decide_ventilation(0, 0.0, 5.0);
        assert_ne!(d.actuation.fan, FanLevel::Off, "excursion overrides cap");

        // Comfortable room: the cap applies.
        let dry =
            bz_psychro::relative_humidity_from_dew_point(Celsius::new(25.0), Celsius::new(16.5));
        s.observe_room(0, 10.0, Celsius::new(25.0), dry);
        s.observe_co2(0, 10.0, Ppm::new(1_200.0));
        let d = s.decide_ventilation(0, 10.0, 5.0);
        // CO₂ above the 800 ppm limit also blocks the cap.
        assert_ne!(d.actuation.fan, FanLevel::Off, "stuffy room overrides cap");
        s.observe_co2(0, 15.0, Ppm::new(500.0));
        let d = s.decide_ventilation(0, 15.0, 5.0);
        assert_eq!(d.actuation.fan, FanLevel::Off, "{d:?}");
        assert!(!d.actuation.flap_open);
    }
}
