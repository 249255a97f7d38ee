//! Hydronic components: chilled-water tanks, DC pumps, and the
//! supply/recycle mixing loop of Figure 3.
//!
//! The radiant cooling module's central mechanism is a recycle pipe that
//! bridges the supply and return pipes: by adjusting the speeds of the
//! supply pump and the recycle pump, the controller blends 18 °C tank
//! water with warm return water and thereby holds the panel inlet
//! temperature `T_mix` above the ceiling dew point while still modulating
//! the flow rate `F_mix` for cooling capacity.

use bz_psychro::{water_volumetric_heat_capacity, Celsius, Volts};

/// A DC circulation pump driven by a 0–5 V control signal.
///
/// The paper's pumps take "a voltage signal ranging from 0 V to 5 V as the
/// input to control its speed"; flow is affine in voltage above a small
/// dead band, saturating at the rated flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pump {
    /// Rated (maximum) flow at 5 V, m³/s.
    max_flow_m3s: f64,
    /// Voltage below which the pump does not turn, V.
    dead_band: f64,
}

impl Pump {
    /// Maximum control voltage accepted by the pump driver DAC.
    pub const MAX_VOLTAGE: Volts = Volts::new(5.0);

    /// Creates a pump with the given rated flow (at 5 V).
    ///
    /// # Panics
    ///
    /// Panics if `max_flow_m3s` is not positive.
    #[must_use]
    pub fn new(max_flow_m3s: f64) -> Self {
        assert!(max_flow_m3s > 0.0, "rated flow must be positive");
        Self {
            max_flow_m3s,
            dead_band: 0.25,
        }
    }

    /// The radiant-loop pump used in the laboratory: ~7.2 L/min rated.
    #[must_use]
    pub fn radiant_loop() -> Self {
        Self::new(1.2e-4)
    }

    /// The airbox coil pump: ~3 L/min rated.
    #[must_use]
    pub fn airbox_coil() -> Self {
        Self::new(5.0e-5)
    }

    /// Flow delivered for a control voltage, m³/s. Voltages are clamped
    /// into `[0, 5]`; below the dead band the pump is stopped.
    #[must_use]
    pub fn flow(&self, voltage: Volts) -> f64 {
        let v = voltage.get().clamp(0.0, Self::MAX_VOLTAGE.get());
        if v < self.dead_band {
            0.0
        } else {
            self.max_flow_m3s * (v - self.dead_band) / (Self::MAX_VOLTAGE.get() - self.dead_band)
        }
    }

    /// Voltage needed to deliver `flow_m3s` (inverse of [`Pump::flow`]),
    /// clamped to the achievable range.
    #[must_use]
    pub fn voltage_for(&self, flow_m3s: f64) -> Volts {
        if flow_m3s <= 0.0 {
            return Volts::new(0.0);
        }
        let span = Self::MAX_VOLTAGE.get() - self.dead_band;
        let v = self.dead_band + span * (flow_m3s / self.max_flow_m3s).min(1.0);
        Volts::new(v)
    }

    /// Hydraulic/electrical power drawn by the pump at `voltage`, W.
    /// Small DC pumps: a couple of Watts at full speed, cubic in speed.
    #[must_use]
    pub fn electrical_power(&self, voltage: Volts) -> f64 {
        let frac = self.flow(voltage) / self.max_flow_m3s;
        3.0 * frac.powi(3)
    }
}

/// A chilled-water storage tank: a well-mixed thermal node between the
/// chiller and the distribution loops.
#[derive(Debug, Clone, PartialEq)]
pub struct Tank {
    /// Water volume, m³.
    volume_m3: f64,
    /// Current water temperature.
    temperature: Celsius,
}

impl Tank {
    /// Creates a tank of `volume_m3` cubic meters starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `volume_m3` is not positive.
    #[must_use]
    pub fn new(volume_m3: f64, initial: Celsius) -> Self {
        assert!(volume_m3 > 0.0, "tank volume must be positive");
        Self {
            volume_m3,
            temperature: initial,
        }
    }

    /// Current water temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Heat capacity of the tank contents, J/K.
    #[must_use]
    pub fn heat_capacity(&self) -> f64 {
        self.volume_m3 * water_volumetric_heat_capacity(self.temperature)
    }

    /// Applies a net heat flow `q_w` (positive warms the tank) over
    /// `dt_s` seconds — return water from the loops warms it, the chiller
    /// cools it, standby losses warm it toward the room.
    pub fn apply_heat(&mut self, q_w: f64, dt_s: f64) {
        debug_assert!(dt_s > 0.0);
        let dt_temp = q_w * dt_s / self.heat_capacity();
        self.temperature = Celsius::new(self.temperature.get() + dt_temp);
    }

    /// Mixes `flow_m3s` of returning water at `return_temp` into the tank
    /// for `dt_s` seconds (an equal flow of tank water leaves toward the
    /// loop, so the volume is constant).
    pub fn mix_return(&mut self, flow_m3s: f64, return_temp: Celsius, dt_s: f64) {
        debug_assert!(flow_m3s >= 0.0);
        let c = water_volumetric_heat_capacity(self.temperature);
        let q = flow_m3s * c * (return_temp.get() - self.temperature.get());
        self.apply_heat(q, dt_s);
    }
}

/// The supply/recycle mixing junction of Figure 3, solved per step.
///
/// Mass balance: the panel loop carries `F_mix = F_supp + F_rcyc`; the
/// tank sees only `F_supp` leave and return. Energy balance at the
/// junction gives the mixed temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixResult {
    /// Flow through the panel, m³/s.
    pub mixed_flow_m3s: f64,
    /// Temperature entering the panel.
    pub mixed_temp: Celsius,
    /// Flow drawn from (and returned to) the tank, m³/s.
    pub tank_flow_m3s: f64,
}

/// Computes the mixing junction state from the two pump flows, the tank
/// supply temperature, and the loop return temperature.
///
/// Returns `None` when both pumps are stopped (no defined mixed
/// temperature).
#[must_use]
pub fn mix_supply_and_recycle(
    supply_flow_m3s: f64,
    recycle_flow_m3s: f64,
    tank_temp: Celsius,
    return_temp: Celsius,
) -> Option<MixResult> {
    debug_assert!(supply_flow_m3s >= 0.0 && recycle_flow_m3s >= 0.0);
    let mixed = supply_flow_m3s + recycle_flow_m3s;
    if mixed <= 0.0 {
        return None;
    }
    let t = (supply_flow_m3s * tank_temp.get() + recycle_flow_m3s * return_temp.get()) / mixed;
    Some(MixResult {
        mixed_flow_m3s: mixed,
        mixed_temp: Celsius::new(t),
        tank_flow_m3s: supply_flow_m3s,
    })
}

// --- Checkpoint support --------------------------------------------------
//
// Pumps are pure functions of their configuration and carry no state.

bz_state::persist_struct!(Tank {
    volume_m3,
    temperature,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_dead_band_and_saturation() {
        let p = Pump::radiant_loop();
        assert_eq!(p.flow(Volts::new(0.0)), 0.0);
        assert_eq!(p.flow(Volts::new(0.2)), 0.0);
        assert!((p.flow(Volts::new(5.0)) - p.max_flow_m3s).abs() < 1e-12);
        // Over-voltage clamps rather than over-delivering.
        assert!((p.flow(Volts::new(7.0)) - p.max_flow_m3s).abs() < 1e-12);
        assert_eq!(p.flow(Volts::new(-1.0)), 0.0);
    }

    #[test]
    fn pump_flow_is_monotone_in_voltage() {
        let p = Pump::radiant_loop();
        let mut last = -1.0;
        for i in 0..=50 {
            let f = p.flow(Volts::new(f64::from(i) * 0.1));
            assert!(f >= last);
            last = f;
        }
    }

    #[test]
    fn pump_voltage_for_inverts_flow() {
        let p = Pump::airbox_coil();
        for frac in [0.1, 0.3, 0.7, 1.0] {
            let target = p.max_flow_m3s * frac;
            let v = p.voltage_for(target);
            assert!((p.flow(v) - target).abs() < 1e-9, "frac {frac}");
        }
        assert_eq!(p.voltage_for(0.0), Volts::new(0.0));
        // Unachievable flows saturate at 5 V.
        assert_eq!(p.voltage_for(1.0), Pump::MAX_VOLTAGE);
    }

    #[test]
    fn pump_power_grows_with_speed() {
        let p = Pump::radiant_loop();
        assert_eq!(p.electrical_power(Volts::new(0.0)), 0.0);
        assert!(p.electrical_power(Volts::new(5.0)) > p.electrical_power(Volts::new(2.5)));
        assert!((p.electrical_power(Volts::new(5.0)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tank_mix_return_moves_toward_return_temp() {
        let mut tank = Tank::new(0.2, Celsius::new(18.0));
        tank.mix_return(1.0e-4, Celsius::new(21.0), 60.0);
        assert!(tank.temperature().get() > 18.0);
        assert!(tank.temperature().get() < 21.0);
    }

    #[test]
    fn tank_apply_heat_signs() {
        let mut tank = Tank::new(0.1, Celsius::new(18.0));
        tank.apply_heat(-1_000.0, 60.0);
        assert!(tank.temperature().get() < 18.0);
        tank.apply_heat(2_000.0, 60.0);
        assert!(tank.temperature().get() > 17.9);
    }

    #[test]
    fn tank_heat_capacity_magnitude() {
        let tank = Tank::new(0.2, Celsius::new(18.0));
        // 200 L of water ≈ 836 kJ/K.
        assert!((tank.heat_capacity() - 8.36e5).abs() < 0.1e5);
    }

    #[test]
    #[should_panic(expected = "volume must be positive")]
    fn tank_rejects_zero_volume() {
        let _ = Tank::new(0.0, Celsius::new(18.0));
    }

    #[test]
    fn mixing_pure_supply() {
        let r =
            mix_supply_and_recycle(1.0e-4, 0.0, Celsius::new(18.0), Celsius::new(21.0)).unwrap();
        assert!((r.mixed_temp.get() - 18.0).abs() < 1e-12);
        assert!((r.mixed_flow_m3s - 1.0e-4).abs() < 1e-18);
        assert!((r.tank_flow_m3s - 1.0e-4).abs() < 1e-18);
    }

    #[test]
    fn mixing_fifty_fifty() {
        let r =
            mix_supply_and_recycle(5.0e-5, 5.0e-5, Celsius::new(18.0), Celsius::new(22.0)).unwrap();
        assert!((r.mixed_temp.get() - 20.0).abs() < 1e-12);
        assert!((r.mixed_flow_m3s - 1.0e-4).abs() < 1e-18);
        assert!((r.tank_flow_m3s - 5.0e-5).abs() < 1e-18);
    }

    #[test]
    fn mixing_stopped_pumps_is_none() {
        assert!(mix_supply_and_recycle(0.0, 0.0, Celsius::new(18.0), Celsius::new(22.0)).is_none());
    }

    #[test]
    fn mixed_temp_is_always_between_sources() {
        for supply in [0.1e-4, 0.5e-4, 1.0e-4] {
            for recycle in [0.0, 0.3e-4, 1.0e-4] {
                let r =
                    mix_supply_and_recycle(supply, recycle, Celsius::new(18.0), Celsius::new(23.0))
                        .unwrap();
                assert!(r.mixed_temp.get() >= 18.0 - 1e-12);
                assert!(r.mixed_temp.get() <= 23.0 + 1e-12);
            }
        }
    }
}
