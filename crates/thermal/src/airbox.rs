//! Airbox dehumidifier/ventilation units and their CO₂ exhaust flaps.
//!
//! Each subspace has one airbox (four DC fans, a damper, a filter, and a
//! three-pipe copper coil circulated with 8 °C water) paired with a
//! CO₂flap exhaust (§III-C). The airbox inhales outdoor air, dehumidifies
//! it across the cold coil — condensing water vapor out — and blows the
//! dried air into its subspace while the flap exhausts an equal volume of
//! room air.
//!
//! The coil uses the classic bypass-factor model: the outlet is a blend of
//! air that touched the coil surface (leaving saturated at the apparatus
//! dew point, slightly above the water temperature) and air that bypassed
//! it. The bypass fraction shrinks as coil water flow rises, which is the
//! physical basis for the paper's observation that "the flow rate of the
//! circulated water ... is linearly proportional to the dew point of the
//! air".

use bz_psychro::{
    dry_air_density, humidity_ratio_from_dew_point, moist_air_enthalpy,
    water_volumetric_heat_capacity, Celsius, KgPerKg, Ppm,
};

use crate::zone::AirState;

/// Discrete speed settings of the four DC fans in an airbox.
///
/// The paper's driver looks up "the best matched DC fan speed for the
/// given F_vent" from the hardware specification; these are the
/// specification's operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FanLevel {
    /// Fans stopped, damper closed.
    #[default]
    Off,
    /// Lowest speed.
    L1,
    /// Medium-low speed.
    L2,
    /// Medium-high speed.
    L3,
    /// Full speed.
    L4,
}

impl FanLevel {
    /// All levels in ascending order.
    pub const ALL: [FanLevel; 5] = [Self::Off, Self::L1, Self::L2, Self::L3, Self::L4];

    /// Supply air volume at this level, m³/s.
    #[must_use]
    pub fn flow_m3s(self) -> f64 {
        match self {
            Self::Off => 0.0,
            Self::L1 => 0.0045,
            Self::L2 => 0.009,
            Self::L3 => 0.016,
            Self::L4 => 0.024,
        }
    }

    /// Electrical power of the fan set at this level, W.
    #[must_use]
    pub fn power_w(self) -> f64 {
        match self {
            Self::Off => 0.0,
            Self::L1 => 2.5,
            Self::L2 => 5.0,
            Self::L3 => 9.0,
            Self::L4 => 15.0,
        }
    }

    /// The lowest level whose flow meets or exceeds `required_m3s`
    /// (saturating at [`FanLevel::L4`]). This is the "lookup the best
    /// matched DC fan speed" step of §III-C.
    #[must_use]
    pub fn for_flow(required_m3s: f64) -> Self {
        if required_m3s <= 0.0 {
            return Self::Off;
        }
        for level in [Self::L1, Self::L2, Self::L3, Self::L4] {
            if level.flow_m3s() >= required_m3s {
                return level;
            }
        }
        Self::L4
    }
}

/// Static parameters of one airbox.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirboxParams {
    /// Coil conductance at design water flow, W/K.
    pub coil_ua: f64,
    /// Design coil water flow for the conductance above, m³/s.
    pub design_water_flow_m3s: f64,
    /// Temperature approach of the coil surface above the entering water
    /// temperature, K (finite coil area + tube resistance).
    pub apparatus_approach_k: f64,
    /// Fraction of fan flow that leaks through a closed flap/damper.
    pub closed_flap_leakage: f64,
}

impl AirboxParams {
    /// Calibrated parameters for a BubbleZERO airbox (3 copper pipes,
    /// ~0.5 m² of effective coil surface). The conductance is sized so the
    /// outlet dew point spans ~15–21 °C across the coil pump's control
    /// range at full fan flow — a smooth, controllable response rather
    /// than an oversized on/off coil.
    #[must_use]
    pub fn bubble_zero_airbox() -> Self {
        Self {
            coil_ua: 45.0,
            design_water_flow_m3s: 5.0e-5,
            apparatus_approach_k: 2.0,
            closed_flap_leakage: 0.1,
        }
    }
}

/// Commands applied to one airbox for a step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AirboxCommand {
    /// Fan speed setting.
    pub fan: FanLevel,
    /// Coil water flow, m³/s (set by the coil pump voltage upstream).
    pub coil_water_flow_m3s: f64,
    /// Whether the paired CO₂flap is driven open.
    pub flap_open: bool,
}

/// Result of advancing one airbox for a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirboxStep {
    /// Conditioned supply air delivered to the subspace.
    pub supply: AirState,
    /// Effective supply air flow after damper/flap gating, m³/s.
    pub supply_flow_m3s: f64,
    /// Water condensed out of the processed air, kg (this step).
    pub condensate_kg: f64,
    /// Total (sensible + latent) heat rejected into the coil water, W.
    pub heat_to_water_w: f64,
    /// Coil water return temperature.
    pub water_return_temp: Celsius,
    /// Fan electrical power, W.
    pub fan_power_w: f64,
}

/// One airbox unit.
#[derive(Debug, Clone)]
pub struct Airbox {
    pub(crate) params: AirboxParams,
    total_condensate_kg: f64,
}

impl Airbox {
    /// Creates an airbox.
    #[must_use]
    pub fn new(params: AirboxParams) -> Self {
        Self {
            params,
            total_condensate_kg: 0.0,
        }
    }

    /// Coil bypass factor at the given air and water flows: the fraction
    /// of the air stream that leaves at inlet conditions.
    #[must_use]
    pub fn bypass_factor(&self, air_flow_m3s: f64, water_flow_m3s: f64) -> f64 {
        if air_flow_m3s <= 0.0 || water_flow_m3s <= 0.0 {
            return 1.0;
        }
        let ua =
            self.params.coil_ua * (water_flow_m3s / self.params.design_water_flow_m3s).powf(0.6);
        let c_air = air_flow_m3s * dry_air_density(Celsius::new(25.0)) * bz_psychro::CP_DRY_AIR;
        (-ua / c_air).exp()
    }

    /// Processes outdoor air through the coil for `dt_s` seconds.
    ///
    /// `outdoor` is the inhaled air, `water_in` the coil water supply
    /// temperature (nominally 8 °C from the ventilation tank).
    pub fn step(
        &mut self,
        dt_s: f64,
        command: &AirboxCommand,
        outdoor: AirState,
        water_in: Celsius,
    ) -> AirboxStep {
        debug_assert!(dt_s > 0.0);
        debug_assert!(command.coil_water_flow_m3s >= 0.0);

        let raw_flow = command.fan.flow_m3s();
        let supply_flow = if command.flap_open {
            raw_flow
        } else {
            raw_flow * self.params.closed_flap_leakage
        };

        if supply_flow <= 0.0 {
            return AirboxStep {
                supply: outdoor,
                supply_flow_m3s: 0.0,
                condensate_kg: 0.0,
                heat_to_water_w: 0.0,
                water_return_temp: water_in,
                fan_power_w: command.fan.power_w(),
            };
        }

        let bypass = self.bypass_factor(supply_flow, command.coil_water_flow_m3s);
        let contact = 1.0 - bypass;

        // Apparatus dew point: the effective coil-surface condition.
        let t_adp = Celsius::new(water_in.get() + self.params.apparatus_approach_k);
        let w_adp = humidity_ratio_from_dew_point(t_adp).get();

        let t_in = outdoor.temperature.get();
        let w_in = outdoor.humidity_ratio.get();

        let t_out = bypass * t_in + contact * t_adp.get();
        // Contacted air leaves saturated at the ADP only if it was moister
        // than saturation there; dry inlet air keeps its moisture.
        let w_out = bypass * w_in + contact * w_in.min(w_adp);

        let rho = dry_air_density(outdoor.temperature);
        let mass_flow = supply_flow * rho;
        let condensate_rate = mass_flow * (w_in - w_out).max(0.0);

        // Total coil duty from the enthalpy drop of the processed air.
        let h_in = moist_air_enthalpy(outdoor.temperature, KgPerKg::new(w_in));
        let h_out = moist_air_enthalpy(Celsius::new(t_out), KgPerKg::new(w_out));
        let q_water = (mass_flow * (h_in - h_out)).max(0.0);

        let return_temp = if command.coil_water_flow_m3s > 0.0 {
            let c_w = command.coil_water_flow_m3s * water_volumetric_heat_capacity(water_in);
            Celsius::new(water_in.get() + q_water / c_w)
        } else {
            water_in
        };

        self.total_condensate_kg += condensate_rate * dt_s;

        AirboxStep {
            supply: AirState {
                temperature: Celsius::new(t_out),
                humidity_ratio: KgPerKg::new(w_out),
                co2: Ppm::new(outdoor.co2.get()),
            },
            supply_flow_m3s: supply_flow,
            condensate_kg: condensate_rate * dt_s,
            heat_to_water_w: q_water,
            water_return_temp: return_temp,
            fan_power_w: command.fan.power_w(),
        }
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_unit_enum!(FanLevel {
    Off,
    L1,
    L2,
    L3,
    L4
});
bz_state::persist_struct!(AirboxParams {
    coil_ua,
    design_water_flow_m3s,
    apparatus_approach_k,
    closed_flap_leakage,
});
bz_state::persist_struct!(Airbox {
    params,
    total_condensate_kg,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn tropical() -> AirState {
        AirState::from_dew_point(Celsius::new(28.9), Celsius::new(27.4), Ppm::new(410.0))
    }

    fn full_command() -> AirboxCommand {
        AirboxCommand {
            fan: FanLevel::L4,
            coil_water_flow_m3s: 5.0e-5,
            flap_open: true,
        }
    }

    #[test]
    fn fan_levels_are_monotone() {
        let flows: Vec<f64> = FanLevel::ALL.iter().map(|l| l.flow_m3s()).collect();
        assert!(flows.windows(2).all(|w| w[1] > w[0]));
        let powers: Vec<f64> = FanLevel::ALL.iter().map(|l| l.power_w()).collect();
        assert!(powers.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn fan_lookup_picks_lowest_sufficient_level() {
        assert_eq!(FanLevel::for_flow(0.0), FanLevel::Off);
        assert_eq!(FanLevel::for_flow(-1.0), FanLevel::Off);
        assert_eq!(FanLevel::for_flow(0.001), FanLevel::L1);
        assert_eq!(FanLevel::for_flow(0.009), FanLevel::L2);
        assert_eq!(FanLevel::for_flow(0.012), FanLevel::L3);
        assert_eq!(FanLevel::for_flow(0.017), FanLevel::L4);
        assert_eq!(FanLevel::for_flow(1.0), FanLevel::L4); // saturates
    }

    #[test]
    fn coil_dries_and_cools_tropical_air() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let step = airbox.step(1.0, &full_command(), tropical(), Celsius::new(8.0));
        assert!(step.supply.temperature.get() < 20.0, "{:?}", step.supply);
        let dew_out = step.supply.dew_point().get();
        assert!(dew_out < 18.0, "output dew {dew_out}");
        assert!(step.condensate_kg > 0.0);
        assert!(step.heat_to_water_w > 50.0);
        assert!(step.water_return_temp.get() > 8.0);
        assert!(airbox.total_condensate_kg > 0.0);
    }

    #[test]
    fn more_water_flow_gives_lower_output_dew() {
        // The monotone relationship the ventilation PID exploits.
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let mut dew_at = |water: f64| {
            let cmd = AirboxCommand {
                coil_water_flow_m3s: water,
                ..full_command()
            };
            airbox
                .step(1.0, &cmd, tropical(), Celsius::new(8.0))
                .supply
                .dew_point()
                .get()
        };
        let d1 = dew_at(1.0e-5);
        let d2 = dew_at(2.5e-5);
        let d3 = dew_at(5.0e-5);
        assert!(d1 > d2 && d2 > d3, "dews {d1}, {d2}, {d3}");
    }

    #[test]
    fn no_water_flow_means_no_conditioning() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let cmd = AirboxCommand {
            coil_water_flow_m3s: 0.0,
            ..full_command()
        };
        let step = airbox.step(1.0, &cmd, tropical(), Celsius::new(8.0));
        assert!((step.supply.temperature.get() - 28.9).abs() < 1e-9);
        assert_eq!(step.condensate_kg, 0.0);
        assert_eq!(step.heat_to_water_w, 0.0);
    }

    #[test]
    fn fans_off_delivers_nothing() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let cmd = AirboxCommand {
            fan: FanLevel::Off,
            ..full_command()
        };
        let step = airbox.step(1.0, &cmd, tropical(), Celsius::new(8.0));
        assert_eq!(step.supply_flow_m3s, 0.0);
        assert_eq!(step.fan_power_w, 0.0);
        assert_eq!(step.heat_to_water_w, 0.0);
    }

    #[test]
    fn closed_flap_throttles_flow() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let open = airbox.step(1.0, &full_command(), tropical(), Celsius::new(8.0));
        let cmd = AirboxCommand {
            flap_open: false,
            ..full_command()
        };
        let closed = airbox.step(1.0, &cmd, tropical(), Celsius::new(8.0));
        assert!(closed.supply_flow_m3s < 0.2 * open.supply_flow_m3s);
    }

    #[test]
    fn dry_inlet_air_is_not_dehumidified() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        // Already dry air (dew point 5 °C, below the 10 °C ADP).
        let dry = AirState::from_dew_point(Celsius::new(25.0), Celsius::new(5.0), Ppm::new(410.0));
        let step = airbox.step(1.0, &full_command(), dry, Celsius::new(8.0));
        // Condensate is zero up to float rounding in the blend arithmetic.
        assert!(step.condensate_kg < 1e-12, "{}", step.condensate_kg);
        assert!((step.supply.humidity_ratio.get() - dry.humidity_ratio.get()).abs() < 1e-12);
        // Still cools sensibly.
        assert!(step.supply.temperature.get() < 25.0);
    }

    #[test]
    fn bypass_factor_bounds() {
        let airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        assert_eq!(airbox.bypass_factor(0.0, 5.0e-5), 1.0);
        assert_eq!(airbox.bypass_factor(0.02, 0.0), 1.0);
        let b = airbox.bypass_factor(0.024, 5.0e-5);
        assert!(b > 0.0 && b < 0.4, "bypass {b}");
        // Slower air = more contact time = lower bypass.
        assert!(airbox.bypass_factor(0.0045, 5.0e-5) < b);
    }

    #[test]
    fn energy_balance_water_side() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let step = airbox.step(1.0, &full_command(), tropical(), Celsius::new(8.0));
        // Water-side pickup equals total duty / (flow·c).
        let c_w = 5.0e-5 * water_volumetric_heat_capacity(Celsius::new(8.0));
        let expected_rise = step.heat_to_water_w / c_w;
        assert!((step.water_return_temp.get() - 8.0 - expected_rise).abs() < 1e-9);
    }

    #[test]
    fn supply_co2_matches_outdoor() {
        let mut airbox = Airbox::new(AirboxParams::bubble_zero_airbox());
        let step = airbox.step(1.0, &full_command(), tropical(), Celsius::new(8.0));
        assert_eq!(step.supply.co2, Ppm::new(410.0));
    }
}
