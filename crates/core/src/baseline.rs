//! The conventional all-air "AirCon" comparator of Fig. 11.
//!
//! Traditional systems use one stream of ~8 °C air for cooling *and*
//! dehumidification, which forces the chiller evaporator down to ~5 °C —
//! a much larger temperature lift than BubbleZERO's 18 °C radiant water.
//! The paper takes the resulting COP ≈ 2.8 from the literature; here the
//! same number is *computed* by running an all-air system against the
//! same laboratory physics and chiller model as BubbleZERO.

use bz_psychro::{dry_air_density, moist_air_enthalpy, Celsius, KgPerKg};
use bz_simcore::{Rng, SimDuration, SimTime};
use bz_thermal::chiller::{ChillerConfig, TankChiller};
use bz_thermal::hydronics::Tank;
use bz_thermal::weather::{Weather, WeatherConfig};
use bz_thermal::zone::{AirState, Zone, ZoneInputs, ZoneParams};

use crate::pid::{Pid, PidConfig};
use crate::targets::ComfortTargets;

/// Maximum air-handler supply flow, m³/s (sized for the laboratory).
const MAX_SUPPLY_M3S: f64 = 0.30;

/// Fresh-air fraction of the supply stream.
const FRESH_AIR_FRACTION: f64 = 0.12;

/// Coil bypass factor at full flow (large coil: mostly contacted).
const COIL_BYPASS: f64 = 0.12;

/// Seed for the weather process.
const SEED: u64 = 0xA12C_0001;

/// The simulated all-air system, sized for the BubbleZERO laboratory and
/// held to the paper's trial targets.
#[derive(Debug)]
pub struct AirConSystem {
    target: Celsius,
    zones: [Zone; 4],
    weather: Weather,
    tank: Tank,
    chiller: TankChiller,
    thermostat: Pid,
    now: SimTime,
    removed_energy_j: f64,
    metered_since: SimTime,
    last_supply: AirState,
    last_flow_m3s: f64,
}

impl AirConSystem {
    /// Builds the baseline starting from the same initial condition as the
    /// paper's trial (indoor ≈ outdoor).
    #[must_use]
    pub fn for_bubble_zero_lab() -> Self {
        let mut rng = Rng::seed_from(SEED);
        let mut weather = Weather::new(WeatherConfig::singapore_afternoon(), rng.fork());
        let outdoor = weather.sample(SimTime::ZERO);
        let initial = AirState::from_dew_point(
            Celsius::new(28.9),
            Celsius::new(27.4),
            bz_psychro::Ppm::new(520.0),
        );
        let chiller = ChillerConfig::aircon_baseline();
        Self {
            target: ComfortTargets::paper_trial().temperature,
            zones: std::array::from_fn(|_| Zone::new(ZoneParams::bubble_zero_subspace(), initial)),
            weather,
            tank: Tank::new(0.25, chiller.setpoint),
            chiller: TankChiller::new(chiller),
            // Thermostat PID: full flow at ~2.5 K of error.
            thermostat: Pid::new(PidConfig::new(
                MAX_SUPPLY_M3S / 2.5,
                MAX_SUPPLY_M3S / 600.0,
                0.0,
                0.0,
                MAX_SUPPLY_M3S,
            )),
            now: SimTime::ZERO,
            removed_energy_j: 0.0,
            metered_since: SimTime::ZERO,
            last_supply: outdoor,
            last_flow_m3s: 0.0,
        }
    }

    /// Mean room temperature.
    #[must_use]
    pub fn mean_temperature(&self) -> Celsius {
        let sum: f64 = self.zones.iter().map(|z| z.state().temperature.get()).sum();
        Celsius::new(sum / 4.0)
    }

    /// Advances the baseline one second.
    pub fn step_second(&mut self) {
        let dt_s = 1.0;
        self.now += SimDuration::from_secs(1);
        let outdoor = self.weather.sample(self.now);

        // Thermostat: supply-flow demand from the mean-temperature error.
        let error = self.mean_temperature().get() - self.target.get();
        let flow = self.thermostat.step(error, dt_s);
        self.last_flow_m3s = flow;

        let supply = if flow > 1.0e-6 {
            // Mixed return + fresh air into the coil.
            let fresh = FRESH_AIR_FRACTION;
            let mean_t = self.mean_temperature().get();
            let mean_w: f64 = self
                .zones
                .iter()
                .map(|z| z.state().humidity_ratio.get())
                .sum::<f64>()
                / 4.0;
            let mix_t = (1.0 - fresh) * mean_t + fresh * outdoor.temperature.get();
            let mix_w = (1.0 - fresh) * mean_w + fresh * outdoor.humidity_ratio.get();

            // Deep coil: most air contacts the ~9 °C apparatus dew point.
            let adp = Celsius::new(self.tank.temperature().get() + 2.0);
            let w_adp = bz_psychro::humidity_ratio_from_dew_point(adp).get();
            let bypass = COIL_BYPASS;
            let out_t = bypass * mix_t + (1.0 - bypass) * adp.get();
            let out_w = bypass * mix_w + (1.0 - bypass) * mix_w.min(w_adp);

            // Coil duty from the enthalpy drop.
            let rho = dry_air_density(Celsius::new(mix_t));
            let mass_flow = flow * rho;
            let h_in = moist_air_enthalpy(Celsius::new(mix_t), KgPerKg::new(mix_w));
            let h_out = moist_air_enthalpy(Celsius::new(out_t), KgPerKg::new(out_w));
            let duty_w = (mass_flow * (h_in - h_out)).max(0.0);
            self.tank.apply_heat(duty_w, dt_s);
            self.removed_energy_j += duty_w * dt_s;

            AirState {
                temperature: Celsius::new(out_t),
                humidity_ratio: KgPerKg::new(out_w),
                co2: outdoor.co2,
            }
        } else {
            outdoor
        };
        self.last_supply = supply;

        // Distribute the supply evenly; the same volume is relieved back
        // to the return (modeled by the zone's balanced-exchange form).
        let per_zone = ZoneInputs {
            ventilation_m3s: flow / 4.0,
            ventilation_temp: supply.temperature,
            ventilation_ratio: supply.humidity_ratio,
            ventilation_co2: supply.co2,
            ..ZoneInputs::default()
        };
        let pre: [AirState; 4] = std::array::from_fn(|i| self.zones[i].state());
        for (i, zone) in self.zones.iter_mut().enumerate() {
            let neighbor = pre[(i + 1) % 4];
            zone.step(dt_s, &per_zone, outdoor, &[(0.04, neighbor)]);
        }

        self.chiller.regulate(&mut self.tank, dt_s);
    }

    /// Runs `seconds` of simulation.
    pub fn run_seconds(&mut self, seconds: u64) {
        for _ in 0..seconds {
            self.step_second();
        }
    }

    /// Resets the COP meters (start of the steady-state window).
    pub fn reset_meters(&mut self) {
        self.removed_energy_j = 0.0;
        self.chiller.reset_meters();
        self.metered_since = self.now;
    }

    /// Measured COP over the metering window: removed heat over chiller
    /// electrical energy (the paper's accounting — distribution fans and
    /// pumps are excluded on both sides of the comparison).
    #[must_use]
    pub fn measured_cop(&self) -> Option<f64> {
        let electrical = self.chiller.electrical_energy().get();
        (electrical > 0.0).then(|| self.removed_energy_j / electrical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settled_system() -> AirConSystem {
        let mut system = AirConSystem::for_bubble_zero_lab();
        system.run_seconds(40 * 60);
        system.reset_meters();
        system.run_seconds(20 * 60);
        system
    }

    #[test]
    fn aircon_reaches_the_comfort_targets() {
        let system = settled_system();
        let t = system.mean_temperature().get();
        assert!((t - 25.0).abs() < 0.6, "settled at {t}");
        // All-air systems over-dry: dew point at or below the target.
        let dew: f64 = system
            .zones
            .iter()
            .map(|z| z.state().dew_point().get())
            .sum();
        assert!(dew / 4.0 < 19.0);
    }

    #[test]
    fn aircon_cop_is_conventional() {
        let system = settled_system();
        let cop = system.measured_cop().expect("metered window");
        assert!(
            (cop - 2.8).abs() < 0.35,
            "conventional COP should be ≈2.8, got {cop}"
        );
    }

    #[test]
    fn supply_air_is_cold_and_dry() {
        let system = settled_system();
        let supply = system.last_supply;
        assert!(supply.temperature.get() < 14.0, "{supply:?}");
        assert!(supply.dew_point().get() < 12.0);
        assert!(system.last_flow_m3s > 0.0);
    }

    #[test]
    fn thermostat_throttles_when_cold() {
        let mut system = AirConSystem::for_bubble_zero_lab();
        system.run_seconds(60 * 60);
        // Near the target the flow should not be pinned at maximum.
        assert!(system.last_flow_m3s < MAX_SUPPLY_M3S * 0.98);
    }

    #[test]
    fn aircon_is_deterministic() {
        let mut a = AirConSystem::for_bubble_zero_lab();
        let mut b = AirConSystem::for_bubble_zero_lab();
        a.run_seconds(600);
        b.run_seconds(600);
        assert_eq!(a.mean_temperature(), b.mean_temperature());
        assert_eq!(a.removed_energy_j, b.removed_energy_j);
    }
}
