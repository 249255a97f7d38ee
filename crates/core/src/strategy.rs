//! Pluggable control strategies for the closed loop.
//!
//! The paper's control layer is purely reactive: one [`RadiantController`]
//! per panel and one [`VentilationController`] per subspace, each deciding
//! from the latest over-the-air sensor picture. This module extracts that
//! behaviour behind the [`ControlStrategy`] trait so alternative planners
//! — notably the receding-horizon MPC in `bz-predict` — can slot into
//! [`BubbleZeroSystem`](crate::system::BubbleZeroSystem) without touching
//! the event loop, the supervisor, or the safety plumbing.
//!
//! Design rules the trait encodes:
//!
//! - **Room observations flow through the strategy.** Room temperature,
//!   humidity and CO₂ deliveries go through trait methods, so a wrapper
//!   strategy can tee them into its own estimators while the inner
//!   reactive controllers stay byte-identical. The readings only the
//!   reactive loops use (ceiling, outlet, supply and pipe sensors) go
//!   straight to [`ControlStrategy::reactive_mut`].
//! - **Safety stays outside.** Supervisor validation, condensation safe
//!   mode, and the pump watchdog live in `system.rs` and apply to *any*
//!   strategy's commands.
//! - **The reactive stack is always present.** [`ControlStrategy::reactive`]
//!   exposes the wrapped [`ReactiveStrategy`] so diagnostics accessors
//!   (`radiant_controller`) keep working no matter which strategy is
//!   installed.

use bz_psychro::{Celsius, Percent, Ppm};
use bz_thermal::hydronics::Pump;

use crate::radiant::{RadiantController, RadiantDecision};
use crate::system::SystemConfig;
use crate::targets::ComfortTargets;
use crate::ventilation::{VentilationController, VentilationDecision};

/// Per-cycle inputs the system hands a strategy before asking for
/// decisions.
///
/// Everything here is either configuration-derived (the occupancy
/// schedule is an input to the simulation, standing in for the PIR
/// occupancy sensors a real deployment would have) or a supervisor trust
/// verdict — never privileged plant state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleInputs {
    /// Simulation time of this control cycle, seconds.
    pub now_s: f64,
    /// Control period, seconds.
    pub dt_s: f64,
    /// Current headcount per subspace (the occupancy-sensor stream).
    pub occupancy: [u32; 4],
    /// Whether the supervisor currently trusts each subspace's room
    /// temperature channel (gates model identification).
    pub room_trusted: [bool; 4],
}

/// A pluggable control layer for
/// [`BubbleZeroSystem`](crate::system::BubbleZeroSystem).
///
/// Default method bodies forward to the wrapped [`ReactiveStrategy`], so
/// an implementor only overrides the seams it cares about; a strategy
/// that overrides nothing behaves exactly like the paper's reactive
/// controllers.
pub trait ControlStrategy: std::fmt::Debug + Send {
    /// Short machine-readable name (`"reactive"`, `"mpc"`, …).
    fn name(&self) -> &'static str;

    /// The reactive controller stack this strategy wraps (or is).
    fn reactive(&self) -> &ReactiveStrategy;

    /// Mutable access to the wrapped reactive stack.
    fn reactive_mut(&mut self) -> &mut ReactiveStrategy;

    /// Called once at the start of every control cycle, before any
    /// `decide_*` call. Planners identify, forecast, and re-optimize
    /// here; the reactive baseline does nothing.
    fn begin_cycle(&mut self, inputs: &CycleInputs) {
        let _ = inputs;
    }

    /// Room temperature delivery for `subspace` (0–3).
    fn observe_room_temperature(&mut self, subspace: usize, now_s: f64, value: Celsius) {
        self.reactive_mut()
            .observe_room_temperature(subspace, now_s, value);
    }

    /// Paired room temperature + humidity for `subspace` (0–3).
    fn observe_room(
        &mut self,
        subspace: usize,
        now_s: f64,
        temperature: Celsius,
        humidity: Percent,
    ) {
        self.reactive_mut()
            .observe_room(subspace, now_s, temperature, humidity);
    }

    /// CO₂ delivery for `subspace` (0–3).
    fn observe_co2(&mut self, subspace: usize, now_s: f64, value: Ppm) {
        self.reactive_mut().observe_co2(subspace, now_s, value);
    }

    /// One radiant decision for `panel` (0–1).
    fn decide_radiant(&mut self, panel: usize, now_s: f64, dt_s: f64) -> RadiantDecision {
        self.reactive_mut().decide_radiant(panel, now_s, dt_s)
    }

    /// One ventilation decision for `subspace` (0–3).
    fn decide_ventilation(
        &mut self,
        subspace: usize,
        now_s: f64,
        dt_s: f64,
    ) -> VentilationDecision {
        self.reactive_mut()
            .decide_ventilation(subspace, now_s, dt_s)
    }

    /// Propagates a comfort-target change to every controller.
    fn set_targets(&mut self, targets: ComfortTargets) {
        self.reactive_mut().set_targets(targets);
    }

    /// Serializes the strategy's dynamic state for a checkpoint. The
    /// default covers the reactive stack; strategies carrying their own
    /// estimators (MPC) must override and serialize those too, after
    /// first delegating to the reactive stack.
    fn save_state(&self, w: &mut bz_state::Writer) {
        self.reactive().save_state(w);
    }

    /// Restores the state saved by [`ControlStrategy::save_state`]. The
    /// restoring process must have installed the *same* strategy type —
    /// checkpoint metadata guards this at a higher layer.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        self.reactive_mut().load_state(r)
    }
}

/// The paper's reactive control layer: two radiant-loop controllers and
/// four per-subspace ventilation controllers, exactly as `BubbleZeroSystem`
/// wired them before the strategy seam existed.
#[derive(Debug)]
pub struct ReactiveStrategy {
    radiant: [RadiantController; 2],
    ventilation: [VentilationController; 4],
}

impl ReactiveStrategy {
    /// Builds the reactive stack for `config`, recording against `obs`.
    /// `pump` is the radiant loop's hydraulic model (used to translate
    /// flow targets into voltages).
    #[must_use]
    pub fn new(config: &SystemConfig, pump: Pump, obs: &bz_obs::Handle) -> Self {
        let radiant = std::array::from_fn(|_| {
            RadiantController::new(config.radiant, config.targets, pump).with_obs(obs.clone())
        });
        let ventilation = std::array::from_fn(|_| {
            VentilationController::new(config.ventilation, config.targets).with_obs(obs.clone())
        });
        Self {
            radiant,
            ventilation,
        }
    }

    /// The radiant controller for `panel` (0–1).
    ///
    /// # Panics
    ///
    /// Panics if `panel` is out of range.
    #[must_use]
    pub fn radiant_controller(&self, panel: usize) -> &RadiantController {
        &self.radiant[panel]
    }

    /// Ceiling temperature delivery for sensor `k` (0–5) under `panel`.
    pub fn observe_ceiling_temperature(
        &mut self,
        panel: usize,
        k: usize,
        now_s: f64,
        value: Celsius,
    ) {
        self.radiant[panel].observe_ceiling_temperature(k, now_s, value);
    }

    /// Ceiling humidity delivery for sensor `k` (0–5) under `panel`.
    pub fn observe_ceiling_humidity(&mut self, panel: usize, k: usize, now_s: f64, value: Percent) {
        self.radiant[panel].observe_ceiling_humidity(k, now_s, value);
    }

    /// See [`ControlStrategy::observe_room_temperature`]. Subspaces 0–1
    /// report to panel 0, subspaces 2–3 to panel 1.
    pub fn observe_room_temperature(&mut self, subspace: usize, now_s: f64, value: Celsius) {
        self.radiant[subspace / 2].observe_room_temperature(subspace % 2, now_s, value);
    }

    /// See [`ControlStrategy::observe_room`].
    pub fn observe_room(
        &mut self,
        subspace: usize,
        now_s: f64,
        temperature: Celsius,
        humidity: Percent,
    ) {
        self.ventilation[subspace].observe_room(now_s, temperature, humidity);
    }

    /// Paired airbox outlet temperature + humidity for `airbox` (0–3).
    pub fn observe_outlet(
        &mut self,
        airbox: usize,
        now_s: f64,
        temperature: Celsius,
        humidity: Percent,
    ) {
        self.ventilation[airbox].observe_outlet(now_s, temperature, humidity);
    }

    /// See [`ControlStrategy::observe_co2`].
    pub fn observe_co2(&mut self, subspace: usize, now_s: f64, value: Ppm) {
        self.ventilation[subspace].observe_co2(now_s, value);
    }

    /// Ventilation supply (tank) temperature, broadcast to all four
    /// subspace controllers.
    pub fn observe_supply_temperature(&mut self, now_s: f64, value: Celsius) {
        for controller in &mut self.ventilation {
            controller.observe_supply_temperature(now_s, value);
        }
    }

    /// Wired supply/return pipe readings for `panel`.
    pub fn set_pipe_readings(&mut self, panel: usize, supply: Celsius, return_temp: Celsius) {
        self.radiant[panel].set_pipe_readings(supply, return_temp);
    }

    /// Wired mixed-water temperature reading for `panel`.
    pub fn observe_mixed_temp(&mut self, panel: usize, value: Celsius) {
        self.radiant[panel].observe_mixed_temp(value);
    }

    /// See [`ControlStrategy::decide_radiant`].
    pub fn decide_radiant(&mut self, panel: usize, now_s: f64, dt_s: f64) -> RadiantDecision {
        self.radiant[panel].decide(now_s, dt_s)
    }

    /// See [`ControlStrategy::decide_ventilation`].
    pub fn decide_ventilation(
        &mut self,
        subspace: usize,
        now_s: f64,
        dt_s: f64,
    ) -> VentilationDecision {
        self.ventilation[subspace].decide(now_s, dt_s)
    }

    /// See [`ControlStrategy::set_targets`].
    pub fn set_targets(&mut self, targets: ComfortTargets) {
        for controller in &mut self.radiant {
            controller.set_targets(targets);
        }
        for controller in &mut self.ventilation {
            controller.set_targets(targets);
        }
    }

    /// Serializes every controller's dynamic state.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        for controller in &self.radiant {
            controller.save_state(w);
        }
        for controller in &self.ventilation {
            controller.save_state(w);
        }
    }

    /// Restores the state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        for controller in &mut self.radiant {
            controller.load_state(r)?;
        }
        for controller in &mut self.ventilation {
            controller.load_state(r)?;
        }
        Ok(())
    }
}

impl ControlStrategy for ReactiveStrategy {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn reactive(&self) -> &ReactiveStrategy {
        self
    }

    fn reactive_mut(&mut self) -> &mut ReactiveStrategy {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bz_psychro::relative_humidity_from_dew_point;
    use bz_thermal::plant::PlantConfig;

    fn reactive() -> ReactiveStrategy {
        let config = SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab());
        ReactiveStrategy::new(&config, Pump::radiant_loop(), &bz_obs::Handle::isolated())
    }

    #[test]
    fn room_temperatures_route_to_the_owning_panel() {
        let mut s = reactive();
        s.observe_room_temperature(3, 0.0, Celsius::new(26.0));
        // Panel 1 owns subspaces 2–3; panel 0 saw nothing.
        assert!(s.radiant_controller(1).room_temperature(0.0).is_some());
        assert!(s.radiant_controller(0).room_temperature(0.0).is_none());
    }

    #[test]
    fn trait_defaults_delegate_to_the_reactive_stack() {
        let mut s = reactive();
        let strategy: &mut dyn ControlStrategy = &mut s;
        assert_eq!(strategy.name(), "reactive");
        let rh = relative_humidity_from_dew_point(Celsius::new(26.0), Celsius::new(15.0));
        let reactive = strategy.reactive_mut();
        for k in 0..6 {
            reactive.observe_ceiling_temperature(0, k, 0.0, Celsius::new(26.0));
            reactive.observe_ceiling_humidity(0, k, 0.0, rh);
        }
        reactive.set_pipe_readings(0, Celsius::new(18.0), Celsius::new(20.0));
        strategy.observe_room_temperature(0, 0.0, Celsius::new(27.0));
        let decision = strategy.decide_radiant(0, 0.0, 5.0);
        assert!(decision.ceiling_dew.is_some());
        assert!(decision.flow_target > 0.0);
    }

    #[test]
    fn set_targets_reaches_every_controller() {
        let mut s = reactive();
        let new_targets = ComfortTargets::from_dew_point(
            Celsius::new(23.0),
            Celsius::new(17.0),
            bz_psychro::Ppm::new(700.0),
        );
        ControlStrategy::set_targets(&mut s, new_targets);
        for radiant in &s.radiant {
            assert_eq!(radiant.targets.temperature.get(), 23.0);
        }
        for ventilation in &s.ventilation {
            assert_eq!(ventilation.targets.temperature.get(), 23.0);
        }
    }
}
