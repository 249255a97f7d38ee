//! The distributed ventilation module controller (§III-C).
//!
//! One instance runs each subspace's airbox/CO₂flap pair. The logic is
//! the paper's:
//!
//! 1. Room dew-point target: `T_r,t_dew = min{T_p_dew, T_supp}` — satisfy
//!    the occupant *and* stay below the radiant water temperature so the
//!    panels cannot condense.
//! 2. Airbox outlet target: `T_a,t_dew = T_r,t_dew − 2 °C` while pulling
//!    the room down, else `T_r,t_dew` to hold it.
//! 3. A PID trims the coil water pump toward the measured outlet dew
//!    point (the coil's water flow is monotone in output dryness).
//! 4. Ventilation volume: enough air to approach the humidity and CO₂
//!    targets within `T` seconds — `F_vent = max{F_humd, F_CO₂}` — mapped
//!    to the discrete fan levels; the CO₂flap opens whenever fans run.

use bz_psychro::{dew_point_checked, humidity_ratio_from_dew_point, Celsius, Percent, Ppm, Volts};
use bz_thermal::airbox::FanLevel;
use bz_thermal::plant::AirboxActuation;

use crate::pid::{Pid, PidConfig};
use crate::targets::ComfortTargets;
use crate::MAX_STALENESS_S;

/// Diagnostics from one ventilation control decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VentilationDecision {
    /// The actuation issued to the airbox and flap.
    pub actuation: AirboxActuation,
    /// Measured room dew point, if computable.
    pub room_dew: Option<Celsius>,
    /// The room dew-point target `T_r,t_dew`.
    pub room_dew_target: Celsius,
    /// The airbox outlet dew-point target `T_a,t_dew`.
    pub outlet_dew_target: Celsius,
    /// Required ventilation flow before fan-level quantization, m³/s.
    pub required_flow_m3s: f64,
}

/// Pull-down offset below the room target, K (the paper's 2 °C).
const PULL_DOWN_OFFSET_K: f64 = 2.0;

/// Hold-mode offset below the room target, K. Supply air exactly at the
/// room target can never offset infiltration moisture; a small negative
/// margin keeps the hold flow finite.
const HOLD_OFFSET_K: f64 = 0.5;

/// Time horizon `T` for approaching the targets when clearly outside the
/// comfort band, s (the paper's 60 s).
const APPROACH_TIME_S: f64 = 60.0;

/// Relaxed horizon used while inside the comfort band — topping up
/// against slow infiltration is not urgent, s.
const HOLD_APPROACH_TIME_S: f64 = 600.0;

/// PID from outlet-dew error (measured − target, K) to coil pump voltage.
/// The coil is nearly a static map from voltage to outlet dew (≈3 K/V),
/// so the loop must be integral-dominant; a large Kp bang-bangs the valve
/// against the 5 s control period.
const COIL_PID: PidConfig = PidConfig::new(0.25, 0.03, 0.0, 0.0, 5.0);

/// Dew-point deadband around the room target within which the fans may
/// rest, K.
const DEADBAND_K: f64 = 0.75;

/// Excess dew point above the target at which the controller enters
/// pull-down mode (urgent horizon, unconstrained fan levels), K. Between
/// the deadband and this threshold the controller tops up calmly at low
/// fan levels.
const PULL_DOWN_ENTER_K: f64 = 1.2;

/// Assumed outdoor CO₂ level for the dilution sizing, ppm.
const OUTDOOR_CO2_PPM: f64 = 410.0;

/// Subspace air volume, m³.
const ZONE_VOLUME_M3: f64 = 15.0;

/// The ventilation controller for one subspace.
///
/// # Example
///
/// A humid room drives full dehumidification:
///
/// ```
/// use bz_core::targets::ComfortTargets;
/// use bz_core::ventilation::VentilationController;
/// use bz_psychro::{relative_humidity_from_dew_point, Celsius};
/// use bz_thermal::airbox::FanLevel;
///
/// let mut controller = VentilationController::new(ComfortTargets::paper_trial());
/// let rh = relative_humidity_from_dew_point(Celsius::new(28.9), Celsius::new(27.4));
/// controller.observe_room(0.0, Celsius::new(28.9), rh);
/// controller.observe_supply_temperature(0.0, Celsius::new(18.0));
/// let decision = controller.decide(0.0, 5.0);
/// assert_ne!(decision.actuation.fan, FanLevel::Off);
/// assert!(decision.actuation.flap_open);
/// ```
#[derive(Debug, Clone)]
pub struct VentilationController {
    pub(crate) targets: ComfortTargets,
    coil_pid: Pid,
    room: Option<(f64, Celsius, Percent)>,
    co2: Option<(f64, Ppm)>,
    outlet: Option<(f64, Celsius, Percent)>,
    supply_temp: Option<(f64, Celsius)>,
    last_fan: FanLevel,
    /// Pull-down/hold mode with hysteresis: enter pull-down when the room
    /// dew point exceeds the target by the deadband, return to hold only
    /// once it has crossed below the target. Without hysteresis, sensor
    /// noise at the boundary flips the coil target every cycle.
    pulling_down: bool,
}

impl VentilationController {
    /// Creates a controller for one subspace.
    #[must_use]
    pub fn new(targets: ComfortTargets) -> Self {
        Self {
            coil_pid: Pid::new(COIL_PID),
            targets,
            room: None,
            co2: None,
            outlet: None,
            supply_temp: None,
            last_fan: FanLevel::Off,
            pulling_down: true,
        }
    }

    /// Redirects the inner coil PID's metrics to `obs` (per-run
    /// isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.coil_pid = self.coil_pid.with_obs(obs);
        self
    }

    /// Updates the comfort targets.
    pub fn set_targets(&mut self, targets: ComfortTargets) {
        self.targets = targets;
        self.coil_pid.reset();
    }

    /// Ingests the subspace room sensor reading.
    pub fn observe_room(&mut self, now_s: f64, temperature: Celsius, humidity: Percent) {
        self.room = Some((now_s, temperature, humidity));
    }

    /// Ingests the subspace CO₂ reading.
    pub fn observe_co2(&mut self, now_s: f64, co2: Ppm) {
        self.co2 = Some((now_s, co2));
    }

    /// Ingests the airbox outlet reading.
    pub fn observe_outlet(&mut self, now_s: f64, temperature: Celsius, humidity: Percent) {
        self.outlet = Some((now_s, temperature, humidity));
    }

    /// Ingests the radiant supply temperature broadcast by Control-C-1.
    pub fn observe_supply_temperature(&mut self, now_s: f64, value: Celsius) {
        self.supply_temp = Some((now_s, value));
    }

    fn fresh<T: Copy>(&self, entry: Option<(f64, T)>, now_s: f64) -> Option<T> {
        entry
            .filter(|(at, _)| now_s - at <= MAX_STALENESS_S)
            .map(|(_, v)| v)
    }

    /// The room dew-point target `T_r,t_dew = min{T_p_dew, T_supp}`.
    /// Without a fresh supply broadcast the occupant preference is used
    /// alone (fail-functional: the radiant module separately protects
    /// itself against condensation).
    #[must_use]
    pub fn room_dew_target(&self, now_s: f64) -> Celsius {
        let preferred = self.targets.preferred_dew_point();
        match self.fresh(self.supply_temp, now_s) {
            Some(supply) => preferred.min(supply),
            None => preferred,
        }
    }

    /// Runs one control cycle; returns the actuation and diagnostics.
    pub fn decide(&mut self, now_s: f64, dt_s: f64) -> VentilationDecision {
        let room_dew_target = self.room_dew_target(now_s);

        let room = self.room.filter(|(at, _, _)| now_s - at <= MAX_STALENESS_S);
        let Some((_, room_t, room_rh)) = room else {
            // Fail safe: no room data, no ventilation.
            return VentilationDecision {
                actuation: AirboxActuation::default(),
                room_dew: None,
                room_dew_target,
                outlet_dew_target: room_dew_target,
                required_flow_m3s: 0.0,
            };
        };
        let room_dew = dew_point_checked(room_t, room_rh).ok();

        // §III-C: T_a,t_dew = T_r,t_dew − 2 °C while above target, else
        // T_r,t_dew (with the hold margin), switched with hysteresis.
        // Mode hysteresis around the sign of the error (the paper's §III-C
        // rule: dry −2 °C supply while the room is above target, exact
        // supply once at/below it). A ±0.1 K band stops sensor noise from
        // flapping the coil target.
        if let Some(dew) = room_dew {
            let e = dew.get() - room_dew_target.get();
            if e > 0.1 {
                self.pulling_down = true;
            } else if e < -0.1 {
                self.pulling_down = false;
            }
        }
        let pulling_down = self.pulling_down;
        let outlet_dew_target = if pulling_down {
            Celsius::new(room_dew_target.get() - PULL_DOWN_OFFSET_K)
        } else {
            Celsius::new(room_dew_target.get() - HOLD_OFFSET_K)
        };

        // Coil PID: drive the measured outlet dew point to its target.
        let outlet_dew = self
            .outlet
            .filter(|(at, _, _)| now_s - at <= MAX_STALENESS_S)
            .and_then(|(_, t, h)| dew_point_checked(t, h).ok());
        let coil_voltage = match outlet_dew {
            Some(measured) => {
                let error = measured.get() - outlet_dew_target.get();
                let pid_out = self.coil_pid.step(error, dt_s);
                if pulling_down {
                    // At low fan speeds the oversized coil saturates the
                    // outlet near the apparatus dew point for any nonzero
                    // flow, so the PID cannot track an intermediate
                    // target — left alone it relays between "off" (blowing
                    // unconditioned outdoor air!) and "full". Flooring the
                    // valve keeps the supply dry; over-drying merely adds
                    // margin.
                    pid_out.max(1.2)
                } else {
                    pid_out
                }
            }
            // No outlet feedback yet: full coil while dehumidifying.
            None if pulling_down => 5.0,
            None => 0.0,
        };

        // Ventilation sizing (§III-C): air volumes to approach targets in
        // `APPROACH_TIME_S`.
        let w_room = room_dew
            .map(|d| humidity_ratio_from_dew_point(d).get())
            .unwrap_or(0.0);
        let w_target = humidity_ratio_from_dew_point(room_dew_target).get();
        let w_supply = humidity_ratio_from_dew_point(outlet_dew.unwrap_or(outlet_dew_target)).get();

        let humidity_excess = w_room - w_target;
        let v_humd = if humidity_excess > 0.0 && w_room - w_supply > 1.0e-6 {
            ZONE_VOLUME_M3 * humidity_excess / (w_room - w_supply)
        } else if humidity_excess > 0.0 {
            // The supply is not (yet) drier than the room — e.g. the fans
            // are off and the outlet sensor reads stagnant air. Size from
            // the achievable target instead so ventilation can start.
            let w_achievable = humidity_ratio_from_dew_point(outlet_dew_target).get();
            if w_room - w_achievable > 1.0e-6 {
                ZONE_VOLUME_M3 * humidity_excess / (w_room - w_achievable)
            } else {
                0.0
            }
        } else {
            0.0
        };

        let v_co2 = match self.fresh(self.co2, now_s) {
            Some(c) => {
                let excess = c.get() - self.targets.co2_limit.get();
                let dilution = c.get() - OUTDOOR_CO2_PPM;
                if excess > 0.0 && dilution > 1.0 {
                    ZONE_VOLUME_M3 * excess / dilution
                } else {
                    0.0
                }
            }
            None => 0.0,
        };

        // Urgency-scaled sizing: the paper's 60 s horizon while clearly
        // above the comfort band, a relaxed top-up horizon inside it
        // (topping up against slow infiltration does not warrant full
        // fans, whose cold supply would fight the radiant module).
        let dew_error = room_dew.map(|d| d.get() - room_dew_target.get());
        // Urgency is a separate question from supply dryness: the 60 s
        // horizon and unconstrained fan levels are reserved for real
        // excursions (boot, door events), while routine top-ups against
        // infiltration run on the relaxed horizon at low levels.
        let urgent = dew_error.is_some_and(|e| e > PULL_DOWN_ENTER_K);
        let humidity_horizon = if urgent {
            APPROACH_TIME_S
        } else {
            HOLD_APPROACH_TIME_S
        };
        let f_humd = v_humd / humidity_horizon;
        let f_co2 = v_co2 / APPROACH_TIME_S;
        let required = f_humd.max(f_co2);

        // Guard against counterproductive ventilation: if the fans are
        // running and the measured supply air is *wetter* than the room
        // (coil failed, pump seized, tank warm), blowing more of it in
        // only hurts. Rest and let the alarm-worthy condition be visible
        // in the diagnostics.
        let supply_counterproductive = self.last_fan != FanLevel::Off
            && matches!(
                (outlet_dew, room_dew),
                (Some(outlet), Some(room_d)) if outlet.get() > room_d.get() + 0.3
            );

        let humidity_fan = match dew_error {
            _ if supply_counterproductive => FanLevel::Off,
            // Dry enough: rest.
            Some(e) if e < -DEADBAND_K => FanLevel::Off,
            // Demands below half the lowest fan speed are served by duty
            // cycling: rest now, run L1 once the demand accumulates. This
            // keeps the steady-state ventilation duty at the paper's
            // ~213 W scale instead of idling fans continuously.
            Some(_) if f_humd < 0.5 * FanLevel::L1.flow_m3s() => FanLevel::Off,
            // Routine top-ups run calmly: cap at L2 so the cold supply
            // air doesn't fight the radiant module (urgent excursions are
            // unconstrained).
            Some(_) if !urgent => FanLevel::for_flow(f_humd).min(FanLevel::L2),
            Some(_) => FanLevel::for_flow(f_humd),
            None => FanLevel::Off,
        };
        let co2_floor = if f_co2 > 0.0 {
            FanLevel::for_flow(f_co2)
        } else {
            FanLevel::Off
        };
        let fan = humidity_fan.max(co2_floor);
        self.last_fan = fan;
        let actuation = AirboxActuation {
            coil_pump_voltage: Volts::new(if fan == FanLevel::Off {
                0.0
            } else {
                coil_voltage
            }),
            fan,
            flap_open: fan != FanLevel::Off,
        };
        VentilationDecision {
            actuation,
            room_dew,
            room_dew_target,
            outlet_dew_target,
            required_flow_m3s: required,
        }
    }

    /// Serializes the controller's dynamic state: targets, the coil PID,
    /// the latest-value caches, the fan memory, and the pull-down mode
    /// latch. The obs handle is rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.targets.save(w);
        self.coil_pid.save_state(w);
        self.room.save(w);
        self.co2.save(w);
        self.outlet.save(w);
        self.supply_temp.save(w);
        self.last_fan.save(w);
        w.put_bool(self.pulling_down);
    }

    /// Restores the state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.targets = Persist::load(r)?;
        self.coil_pid.load_state(r)?;
        self.room = Persist::load(r)?;
        self.co2 = Persist::load(r)?;
        self.outlet = Persist::load(r)?;
        self.supply_temp = Persist::load(r)?;
        self.last_fan = Persist::load(r)?;
        self.pulling_down = r.take_bool()?;
        Ok(())
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(VentilationDecision {
    actuation,
    room_dew,
    room_dew_target,
    outlet_dew_target,
    required_flow_m3s,
});

#[cfg(test)]
mod tests {
    use super::*;
    use bz_psychro::relative_humidity_from_dew_point;

    fn controller() -> VentilationController {
        VentilationController::new(ComfortTargets::paper_trial())
    }

    fn rh_at(t: f64, dew: f64) -> Percent {
        relative_humidity_from_dew_point(Celsius::new(t), Celsius::new(dew))
    }

    #[test]
    fn fails_safe_without_room_data() {
        let mut c = controller();
        let d = c.decide(0.0, 5.0);
        assert_eq!(d.actuation, AirboxActuation::default());
        assert_eq!(d.required_flow_m3s, 0.0);
    }

    #[test]
    fn room_target_caps_at_supply_temperature() {
        let mut c = controller();
        // Preferred dew is 18 °C; a 17 °C supply must cap the target.
        c.observe_supply_temperature(0.0, Celsius::new(17.0));
        assert!((c.room_dew_target(0.0).get() - 17.0).abs() < 1e-9);
        // A 19 °C supply leaves the occupant preference in force.
        c.observe_supply_temperature(1.0, Celsius::new(19.0));
        assert!((c.room_dew_target(1.0).get() - 18.0).abs() < 1e-5);
    }

    #[test]
    fn humid_room_drives_full_dehumidification() {
        let mut c = controller();
        c.observe_room(0.0, Celsius::new(28.9), rh_at(28.9, 27.4));
        c.observe_supply_temperature(0.0, Celsius::new(18.0));
        let d = c.decide(0.0, 5.0);
        // Pull-down: outlet target 2 °C below the room target.
        assert!((d.outlet_dew_target.get() - 16.0).abs() < 0.01, "{d:?}");
        assert_ne!(d.actuation.fan, FanLevel::Off);
        assert!(d.actuation.flap_open);
        assert!(d.actuation.coil_pump_voltage.get() > 0.0);
        assert!(d.required_flow_m3s > 0.01);
    }

    #[test]
    fn outlet_feedback_trims_the_coil() {
        let mut c = controller();
        c.observe_room(0.0, Celsius::new(26.0), rh_at(26.0, 22.0));
        c.observe_supply_temperature(0.0, Celsius::new(18.0));
        // Outlet already drier than the 16 °C target → PID backs off.
        c.observe_outlet(0.0, Celsius::new(12.0), rh_at(12.0, 11.9));
        let relaxed = c.decide(0.0, 5.0).actuation.coil_pump_voltage.get();
        // Outlet too humid → PID pushes.
        c.observe_outlet(5.0, Celsius::new(20.0), rh_at(20.0, 19.9));
        let pushed = c.decide(5.0, 5.0).actuation.coil_pump_voltage.get();
        assert!(pushed > relaxed, "pushed {pushed} vs relaxed {relaxed}");
    }

    #[test]
    fn co2_alone_triggers_ventilation() {
        let mut c = controller();
        // Dry, comfortable room...
        c.observe_room(0.0, Celsius::new(25.0), rh_at(25.0, 17.0));
        // ...but stuffy.
        c.observe_co2(0.0, Ppm::new(1_400.0));
        let d = c.decide(0.0, 5.0);
        assert_ne!(d.actuation.fan, FanLevel::Off, "{d:?}");
        assert!(d.actuation.flap_open);
    }

    #[test]
    fn comfortable_room_lets_fans_rest() {
        let mut c = controller();
        c.observe_room(0.0, Celsius::new(25.0), rh_at(25.0, 17.8));
        c.observe_co2(0.0, Ppm::new(520.0));
        c.observe_supply_temperature(0.0, Celsius::new(18.0));
        let d = c.decide(0.0, 5.0);
        assert_eq!(d.actuation.fan, FanLevel::Off, "{d:?}");
        assert!(!d.actuation.flap_open);
        assert_eq!(d.actuation.coil_pump_voltage.get(), 0.0);
    }

    #[test]
    fn fan_demand_scales_with_humidity_excess() {
        let demand = |dew: f64| {
            let mut c = controller();
            c.observe_room(0.0, Celsius::new(26.0), rh_at(26.0, dew));
            c.observe_supply_temperature(0.0, Celsius::new(18.0));
            c.decide(0.0, 5.0).required_flow_m3s
        };
        let slight = demand(19.5);
        let heavy = demand(25.0);
        assert!(heavy > slight, "heavy {heavy} vs slight {slight}");
    }

    #[test]
    fn hold_mode_targets_room_dew_exactly() {
        let mut c = controller();
        // Room already below target: hold mode targets the room target
        // minus the hold margin (supply exactly at the target could never
        // offset infiltration).
        c.observe_room(0.0, Celsius::new(25.0), rh_at(25.0, 17.0));
        c.observe_supply_temperature(0.0, Celsius::new(18.0));
        let d = c.decide(0.0, 5.0);
        assert!((d.outlet_dew_target.get() - 17.5).abs() < 0.01, "{d:?}");
    }

    #[test]
    fn stale_data_fails_safe() {
        let mut c = controller();
        c.observe_room(0.0, Celsius::new(28.0), rh_at(28.0, 26.0));
        let d = c.decide(500.0, 5.0);
        assert_eq!(d.actuation, AirboxActuation::default());
    }
}
