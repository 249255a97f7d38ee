//! The assembled BubbleZERO thermal plant.
//!
//! [`ThermalPlant`] wires together the four subspace zones, the two radiant
//! ceiling panels with their supply/recycle mixing loops, the shared 18 °C
//! radiant tank, the 8 °C ventilation tank feeding the four airbox coils,
//! both chillers, the weather boundary, occupants, and the scripted
//! door/window disturbances. It advances on a fixed step under a set of
//! [`ActuatorCommands`] — the exact signals the paper's control boards
//! produce (pump voltages, fan levels, flap positions) — and exposes the
//! plant state only through the noisy sensor models of [`crate::sensors`].

use bz_psychro::{
    water_volumetric_heat_capacity, Celsius, Joules, Percent, Ppm, Seconds, Volts, Watts,
};
use bz_simcore::{NoiseKernel, Rng, SimDuration, SimTime};

use crate::airbox::{Airbox, AirboxCommand, AirboxParams, FanLevel};
use crate::chiller::{ChillerConfig, TankChiller};
use crate::disturbance::DisturbanceSchedule;
use crate::faults::FaultSchedule;
use crate::hydronics::{mix_supply_and_recycle, Pump, Tank};
use crate::occupancy::OccupancySchedule;
use crate::panel::{PanelParams, RadiantPanel};
use crate::sensors::{
    Co2Sensor, FlowSensor, HumiditySensor, SensorFault, SensorFaultSchedule, SensorTarget,
    TemperatureSensor,
};
use crate::weather::{Weather, WeatherConfig};
use crate::zone::{AirState, SubspaceId, Zone, ZoneInputs, ZoneParams, RESTORABLE_AIR_C};

/// Pump voltages for one radiant mixing loop (Figure 3's two pumps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RadiantLoopCommand {
    /// Supply pump voltage (draws from the 18 °C tank), 0–5 V.
    pub supply_voltage: Volts,
    /// Recycle pump voltage (redirects warm return water), 0–5 V.
    pub recycle_voltage: Volts,
}

/// Commands for one airbox / CO₂flap pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AirboxActuation {
    /// Coil water pump voltage, 0–5 V.
    pub coil_pump_voltage: Volts,
    /// Fan speed setting.
    pub fan: FanLevel,
    /// Whether the CO₂flap is driven open.
    pub flap_open: bool,
}

/// The complete actuator command set for one plant step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActuatorCommands {
    /// One command per ceiling panel loop.
    pub radiant: [RadiantLoopCommand; 2],
    /// One command per subspace airbox.
    pub airboxes: [AirboxActuation; 4],
}

impl ActuatorCommands {
    /// Everything off: pumps stopped, fans stopped, flaps closed.
    #[must_use]
    pub fn all_off() -> Self {
        Self::default()
    }
}

/// Telemetry produced by the most recent plant step (ground truth — the
/// controllers must use the sensor interface instead).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepTelemetry {
    /// Heat removed from the room by the radiant loops this step, W,
    /// computed with the paper's water-side formula c·F·(T_retn − T_supp).
    pub radiant_heat_removed_w: f64,
    /// Heat removed from the inhaled air by the airbox coils, W.
    pub vent_heat_removed_w: f64,
    /// Radiant chiller electrical draw, W.
    pub radiant_chiller_w: f64,
    /// Ventilation chiller electrical draw, W.
    pub vent_chiller_w: f64,
    /// Total pump electrical draw, W.
    pub pump_power_w: f64,
    /// Total fan electrical draw, W.
    pub fan_power_w: f64,
    /// Condensate formed on panel surfaces this step, kg (should be 0).
    pub panel_condensate_kg: f64,
    /// Condensate drained from the airbox coils this step, kg (normal).
    pub airbox_condensate_kg: f64,
}

/// Integrated energy meters (resettable, for steady-state COP windows).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeters {
    /// Radiant heat removed, J.
    pub radiant_removed: Joules,
    /// Ventilation heat removed, J.
    pub vent_removed: Joules,
    /// Radiant chiller electrical energy, J.
    pub radiant_chiller: Joules,
    /// Ventilation chiller electrical energy, J.
    pub vent_chiller: Joules,
    /// Pump electrical energy, J.
    pub pumps: Joules,
    /// Fan electrical energy, J.
    pub fans: Joules,
    /// Time accumulated by the meters, s.
    pub elapsed: Seconds,
}

/// The most entries a schedule built from a scenario document may hold:
/// disturbance events, occupancy changes, or occupancy periods walked.
/// Builders refuse a document past it rather than allocate in proportion
/// to a number the document chose.
pub const MAX_SCHEDULE_ENTRIES: u64 = 100_000;

/// Turbulent mixing flow between adjacent subspaces, m³/s.
const INTERZONE_MIXING_M3S: f64 = 0.04;

/// Indoor dry bulb and dew point at the start of a run: the paper's
/// trial starts with indoor ≈ outdoor.
const INITIAL_INDOOR: (Celsius, Celsius) = (Celsius::new(28.9), Celsius::new(27.4));

/// Indoor CO₂ at the start of a run, ppm.
const INITIAL_CO2_PPM: f64 = 520.0;

/// What a run scripts and seeds in the laboratory. The laboratory itself
/// (zones, panels, airboxes, chillers, weather, mixing and the initial
/// indoor air) is the paper's, built by [`ThermalPlant::new`].
#[derive(Debug, Clone)]
pub struct PlantConfig {
    /// Scripted door/window events.
    pub disturbances: DisturbanceSchedule,
    /// Scripted actuator faults.
    pub faults: FaultSchedule,
    /// Scripted sensor faults.
    pub sensor_faults: SensorFaultSchedule,
    /// Scripted occupancy.
    pub occupancy: OccupancySchedule,
    /// RNG seed for weather wander and sensor noise.
    pub seed: u64,
    /// Which versioned normal sampler every plant RNG (weather wander,
    /// sensor noise, fault perturbations) uses. Byte-identity of exports
    /// is guaranteed *within* a version, not across versions; `V1`
    /// reproduces all pre-seam exports. Defaults to the `BZ_NOISE`
    /// environment variable (V2 when unset).
    pub noise: NoiseKernel,
    /// Forces the reference paths (full two-channel sensor reads, and in
    /// `bz-core` one event popped at a time) instead of the fast paths
    /// (single-channel reads that skip the sibling's noise draw, batched
    /// event drain). Both produce bit-identical results — this switch
    /// exists so the parity suites can prove it and so a suspicious run
    /// can be re-executed on the original code path. Defaults to the
    /// `BZ_SCALAR_REFERENCE` environment variable.
    pub scalar_reference: bool,
}

impl PlantConfig {
    /// The calibrated BubbleZERO laboratory on the paper's trial afternoon
    /// (disturbances are left empty; scenarios add their own scripts).
    #[must_use]
    pub fn bubble_zero_lab() -> Self {
        Self {
            disturbances: DisturbanceSchedule::none(),
            faults: FaultSchedule::none(),
            sensor_faults: SensorFaultSchedule::none(),
            occupancy: OccupancySchedule::empty(),
            seed: 0xB0BB_1E2E,
            noise: NoiseKernel::from_env(),
            scalar_reference: scalar_reference_default(),
        }
    }

    /// Same lab with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same lab with a disturbance script.
    #[must_use]
    pub fn with_disturbances(mut self, disturbances: DisturbanceSchedule) -> Self {
        self.disturbances = disturbances;
        self
    }

    /// Same lab with an occupancy script.
    #[must_use]
    pub fn with_occupancy(mut self, occupancy: OccupancySchedule) -> Self {
        self.occupancy = occupancy;
        self
    }

    /// Same lab with an actuator-fault script.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Same lab with a sensor-fault script.
    #[must_use]
    pub fn with_sensor_faults(mut self, sensor_faults: SensorFaultSchedule) -> Self {
        self.sensor_faults = sensor_faults;
        self
    }

    /// Same lab with the scalar-reference switch set explicitly (see
    /// [`PlantConfig::scalar_reference`]).
    #[must_use]
    pub fn with_scalar_reference(mut self, scalar_reference: bool) -> Self {
        self.scalar_reference = scalar_reference;
        self
    }

    /// Same lab with the noise kernel pinned explicitly (see
    /// [`PlantConfig::noise`]).
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseKernel) -> Self {
        self.noise = noise;
        self
    }
}

/// Whether `BZ_SCALAR_REFERENCE` asks for the scalar reference paths
/// (any non-empty value other than `0` counts as set).
#[must_use]
pub fn scalar_reference_default() -> bool {
    std::env::var_os("BZ_SCALAR_REFERENCE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The sensor instruments attached to the plant.
#[derive(Debug, Clone)]
struct Instruments {
    /// Room air temperature+RH sensor per subspace.
    room: [HumiditySensor; 4],
    /// Six ceiling-surface-air sensors per panel (3 under each served
    /// subspace), as in Figure 4(b).
    ceiling: Vec<HumiditySensor>,
    /// Pipe temperature sensors: per panel [T_mix, T_rcyc], plus the two
    /// tank supply temperatures.
    pipe_mix: [TemperatureSensor; 2],
    pipe_return: [TemperatureSensor; 2],
    tank_supply: TemperatureSensor,
    vent_supply: TemperatureSensor,
    /// Flow sensors: per panel [F_mix, F_supp, F_rcyc].
    flow: Vec<FlowSensor>,
    /// Airbox outlet SHT75 per airbox.
    outlet: [HumiditySensor; 4],
    /// Coil flow sensor per airbox.
    coil_flow: [FlowSensor; 4],
    /// CO₂ sensor per subspace (on the CO₂flap boards).
    co2: [Co2Sensor; 4],
}

impl Instruments {
    fn new(rng: &mut Rng) -> Self {
        Self {
            room: std::array::from_fn(|_| HumiditySensor::new(rng)),
            ceiling: (0..12).map(|_| HumiditySensor::new(rng)).collect(),
            pipe_mix: std::array::from_fn(|_| TemperatureSensor::new(rng)),
            pipe_return: std::array::from_fn(|_| TemperatureSensor::new(rng)),
            tank_supply: TemperatureSensor::new(rng),
            vent_supply: TemperatureSensor::new(rng),
            flow: (0..6).map(|_| FlowSensor::new(rng)).collect(),
            outlet: std::array::from_fn(|_| HumiditySensor::new(rng)),
            coil_flow: std::array::from_fn(|_| FlowSensor::new(rng)),
            co2: std::array::from_fn(|_| Co2Sensor::new(rng)),
        }
    }
}

/// State of one radiant mixing loop between steps.
#[derive(Debug, Clone, Copy)]
struct LoopState {
    /// Water temperature in the return pipe (from the last step).
    return_temp: Celsius,
    /// Mixed temperature and flow achieved on the last step.
    mixed_temp: Celsius,
    mixed_flow_m3s: f64,
    supply_flow_m3s: f64,
    recycle_flow_m3s: f64,
}

/// The assembled laboratory.
#[derive(Debug, Clone)]
pub struct ThermalPlant {
    config: PlantConfig,
    now: SimTime,
    weather: Weather,
    outdoor: AirState,
    zones: [Zone; 4],
    panels: [RadiantPanel; 2],
    loops: [LoopState; 2],
    radiant_tank: Tank,
    vent_tank: Tank,
    radiant_chiller: TankChiller,
    vent_chiller: TankChiller,
    supply_pumps: [Pump; 2],
    recycle_pumps: [Pump; 2],
    coil_pumps: [Pump; 4],
    airboxes: [Airbox; 4],
    /// Last airbox outlet states (for the outlet sensors).
    outlet_states: [AirState; 4],
    /// Last coil water flows (for the coil flow sensors).
    coil_flows: [f64; 4],
    instruments: Instruments,
    telemetry: StepTelemetry,
    meters: EnergyMeters,
    last_zone_inputs: [ZoneInputs; 4],
    /// RNG for sensor-fault noise bursts (separate stream so fault
    /// scenarios don't shift the healthy sensors' noise draws).
    sensor_fault_rng: Rng,
    /// Latched output per (target, channel) for stuck-at faults: the first
    /// value read while the fault is active.
    stuck_latch: std::collections::BTreeMap<(SensorTarget, u8), f64>,
    obs: bz_obs::Handle,
}

/// Each subspace's two neighbours in the 2×2 layout (S1 S2 / S3 S4), in
/// the order a scan of the adjacent pairs S1–S2, S3–S4, S1–S3, S2–S4
/// visits them. The order fixes how the zone balances sum their mixing
/// terms, so it is part of the exported trajectories.
const NEIGHBORS: [[usize; 2]; 4] = [[1, 2], [0, 3], [3, 0], [2, 1]];

impl ThermalPlant {
    /// Builds the BubbleZERO laboratory in its initial condition, with
    /// the scripts and seed of `config`.
    #[must_use]
    pub fn new(config: PlantConfig) -> Self {
        let mut rng = Rng::seed_from(config.seed).with_kernel(config.noise);
        let mut weather = Weather::new(WeatherConfig::singapore_afternoon(), rng.fork());
        let outdoor = weather.sample(SimTime::ZERO);
        let (t0, dew0) = INITIAL_INDOOR;
        let indoor = AirState::from_dew_point(t0, dew0, Ppm::new(INITIAL_CO2_PPM));
        let zones = std::array::from_fn(|_| Zone::new(ZoneParams::bubble_zero_subspace(), indoor));
        let panels =
            std::array::from_fn(|_| RadiantPanel::new(PanelParams::bubble_zero_panel(), t0));
        let radiant_chiller = ChillerConfig::radiant_18c();
        let vent_chiller = ChillerConfig::ventilation_8c();
        let radiant_tank = Tank::new(0.2, radiant_chiller.setpoint);
        let vent_tank = Tank::new(0.15, vent_chiller.setpoint);
        let loops = [LoopState {
            return_temp: radiant_chiller.setpoint,
            mixed_temp: radiant_chiller.setpoint,
            mixed_flow_m3s: 0.0,
            supply_flow_m3s: 0.0,
            recycle_flow_m3s: 0.0,
        }; 2];
        let instruments = Instruments::new(&mut rng);
        let sensor_fault_rng = rng.fork();
        Self {
            radiant_chiller: TankChiller::new(radiant_chiller),
            vent_chiller: TankChiller::new(vent_chiller),
            config,
            now: SimTime::ZERO,
            weather,
            outdoor,
            zones,
            panels,
            loops,
            radiant_tank,
            vent_tank,
            supply_pumps: [Pump::radiant_loop(); 2],
            recycle_pumps: [Pump::radiant_loop(); 2],
            coil_pumps: [Pump::airbox_coil(); 4],
            airboxes: std::array::from_fn(|_| Airbox::new(AirboxParams::bubble_zero_airbox())),
            outlet_states: [indoor; 4],
            coil_flows: [0.0; 4],
            instruments,
            telemetry: StepTelemetry::default(),
            meters: EnergyMeters::default(),
            last_zone_inputs: Default::default(),
            sensor_fault_rng,
            stuck_latch: std::collections::BTreeMap::new(),
            obs: bz_obs::Handle::global(),
        }
    }

    /// Redirects this plant's spans and gauges to `obs` (per-run
    /// isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.obs = obs;
        self
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the plant by `dt` under `commands`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn step(&mut self, dt: SimDuration, commands: &ActuatorCommands) {
        assert!(!dt.is_zero(), "plant step must advance time");
        let step_span = self.obs.span("thermal.plant.step", self.now.as_millis());
        let dt_s = dt.as_secs_f64();
        self.now += dt;
        self.outdoor = self.weather.sample(self.now);

        // Physical actuators apply their faults regardless of commands.
        let commands = &self.config.faults.apply(commands, self.now);

        let opening = self.config.disturbances.exchange_at(self.now);
        let rates = self.config.occupancy.rates();

        let mut telemetry = StepTelemetry::default();

        // --- Radiant loops ------------------------------------------------
        let panel_span = self.obs.span("thermal.panels.step", self.now.as_millis());
        let mut hvac_sensible = [0.0f64; 4];
        let mut hvac_condensation = [0.0f64; 4];
        for panel_idx in 0..2 {
            let cmd = commands.radiant[panel_idx];
            let supply_flow = self.supply_pumps[panel_idx].flow(cmd.supply_voltage);
            let recycle_flow = self.recycle_pumps[panel_idx].flow(cmd.recycle_voltage);
            telemetry.pump_power_w += self.supply_pumps[panel_idx]
                .electrical_power(cmd.supply_voltage)
                + self.recycle_pumps[panel_idx].electrical_power(cmd.recycle_voltage);

            let loop_state = &mut self.loops[panel_idx];
            let zone_a = 2 * panel_idx;
            let zone_b = zone_a + 1;
            let zone_states = [self.zones[zone_a].state(), self.zones[zone_b].state()];

            match mix_supply_and_recycle(
                supply_flow,
                recycle_flow,
                self.radiant_tank.temperature(),
                loop_state.return_temp,
            ) {
                Some(mix) => {
                    let step = self.panels[panel_idx].step(
                        dt_s,
                        mix.mixed_temp,
                        mix.mixed_flow_m3s,
                        zone_states,
                    );
                    hvac_sensible[zone_a] -= step.heat_from_zones_w[0];
                    hvac_sensible[zone_b] -= step.heat_from_zones_w[1];
                    hvac_condensation[zone_a] += step.zone_condensation_kg_s[0];
                    hvac_condensation[zone_b] += step.zone_condensation_kg_s[1];
                    telemetry.panel_condensate_kg += step.condensate_kg;

                    // Paper's water-side accounting: c·F·(T_retn − T_supp)
                    // on the tank loop.
                    let c = water_volumetric_heat_capacity(self.radiant_tank.temperature());
                    telemetry.radiant_heat_removed_w += c
                        * mix.tank_flow_m3s
                        * (step.water_return_temp.get() - self.radiant_tank.temperature().get());

                    self.radiant_tank
                        .mix_return(mix.tank_flow_m3s, step.water_return_temp, dt_s);
                    loop_state.return_temp = step.water_return_temp;
                    loop_state.mixed_temp = mix.mixed_temp;
                    loop_state.mixed_flow_m3s = mix.mixed_flow_m3s;
                    loop_state.supply_flow_m3s = supply_flow;
                    loop_state.recycle_flow_m3s = recycle_flow;
                }
                None => {
                    // Stagnant loop: the panel floats against the room.
                    let step =
                        self.panels[panel_idx].step(dt_s, loop_state.mixed_temp, 0.0, zone_states);
                    hvac_sensible[zone_a] -= step.heat_from_zones_w[0];
                    hvac_sensible[zone_b] -= step.heat_from_zones_w[1];
                    hvac_condensation[zone_a] += step.zone_condensation_kg_s[0];
                    hvac_condensation[zone_b] += step.zone_condensation_kg_s[1];
                    telemetry.panel_condensate_kg += step.condensate_kg;
                    loop_state.mixed_flow_m3s = 0.0;
                    loop_state.supply_flow_m3s = 0.0;
                    loop_state.recycle_flow_m3s = 0.0;
                }
            }
        }

        panel_span.exit(self.now.as_millis());

        // --- Airboxes -----------------------------------------------------
        let mut zone_inputs: [ZoneInputs; 4] = Default::default();
        for (i, inputs) in zone_inputs.iter_mut().enumerate() {
            let act = commands.airboxes[i];
            let coil_flow = self.coil_pumps[i].flow(act.coil_pump_voltage);
            self.coil_flows[i] = coil_flow;
            telemetry.pump_power_w += self.coil_pumps[i].electrical_power(act.coil_pump_voltage);

            let command = AirboxCommand {
                fan: act.fan,
                coil_water_flow_m3s: coil_flow,
                flap_open: act.flap_open,
            };
            let step =
                self.airboxes[i].step(dt_s, &command, self.outdoor, self.vent_tank.temperature());
            telemetry.fan_power_w += step.fan_power_w;
            telemetry.vent_heat_removed_w += step.heat_to_water_w;
            telemetry.airbox_condensate_kg += step.condensate_kg;
            self.outlet_states[i] = step.supply;

            if coil_flow > 0.0 {
                self.vent_tank
                    .mix_return(coil_flow, step.water_return_temp, dt_s);
            }

            let subspace = SubspaceId::from_index(i);
            let headcount = f64::from(self.config.occupancy.headcount(subspace, self.now));
            *inputs = ZoneInputs {
                hvac_sensible_w: hvac_sensible[i],
                hvac_condensation_kg_s: hvac_condensation[i],
                occupant_sensible_w: headcount * rates.sensible_w,
                occupant_latent_kg_s: headcount * rates.latent_kg_s,
                occupant_co2_m3s: headcount * rates.co2_m3s,
                ventilation_m3s: step.supply_flow_m3s,
                ventilation_temp: step.supply.temperature,
                ventilation_ratio: step.supply.humidity_ratio,
                ventilation_co2: step.supply.co2,
                opening_exchange_m3s: opening[i],
            };
        }

        // --- Zones (using pre-step neighbor states for symmetry) ----------
        let zone_span = self.obs.span("thermal.zones.step", self.now.as_millis());
        self.last_zone_inputs = zone_inputs;
        let pre_states: [AirState; 4] = std::array::from_fn(|i| self.zones[i].state());
        for (i, zone) in self.zones.iter_mut().enumerate() {
            let [a, b] = NEIGHBORS[i];
            let neighbors = [
                (INTERZONE_MIXING_M3S, pre_states[a]),
                (INTERZONE_MIXING_M3S, pre_states[b]),
            ];
            zone.step(dt_s, &zone_inputs[i], self.outdoor, &neighbors);
        }

        zone_span.exit(self.now.as_millis());

        // --- Tanks and chillers --------------------------------------------
        // Standby gains: tanks sit in the warm plant room.
        let room_mean = pre_states.iter().map(|s| s.temperature.get()).sum::<f64>() / 4.0;
        self.radiant_tank.apply_heat(
            1.5 * (room_mean - self.radiant_tank.temperature().get()),
            dt_s,
        );
        self.vent_tank
            .apply_heat(1.5 * (room_mean - self.vent_tank.temperature().get()), dt_s);

        self.radiant_chiller.regulate(&mut self.radiant_tank, dt_s);
        self.vent_chiller.regulate(&mut self.vent_tank, dt_s);
        telemetry.radiant_chiller_w = self.radiant_chiller.electrical_power().get();
        telemetry.vent_chiller_w = self.vent_chiller.electrical_power().get();
        self.obs.gauge_set(
            "thermal.chiller.radiant_w",
            self.now.as_millis(),
            telemetry.radiant_chiller_w,
        );
        self.obs.gauge_set(
            "thermal.chiller.vent_w",
            self.now.as_millis(),
            telemetry.vent_chiller_w,
        );

        // --- Meters ---------------------------------------------------------
        let dt_sec = Seconds::new(dt_s);
        self.meters.radiant_removed += Watts::new(telemetry.radiant_heat_removed_w) * dt_sec;
        self.meters.vent_removed += Watts::new(telemetry.vent_heat_removed_w) * dt_sec;
        self.meters.radiant_chiller += Watts::new(telemetry.radiant_chiller_w) * dt_sec;
        self.meters.vent_chiller += Watts::new(telemetry.vent_chiller_w) * dt_sec;
        self.meters.pumps += Watts::new(telemetry.pump_power_w) * dt_sec;
        self.meters.fans += Watts::new(telemetry.fan_power_w) * dt_sec;
        self.meters.elapsed += dt_sec;

        self.telemetry = telemetry;
        step_span.exit(self.now.as_millis());
    }

    // --- Ground-truth accessors (for assertions and figures, not control) --

    /// True air state of a subspace.
    #[must_use]
    pub fn zone_state(&self, id: SubspaceId) -> AirState {
        self.zones[id.index()].state()
    }

    /// True dry-bulb temperature of a subspace.
    #[must_use]
    pub fn zone_temperature(&self, id: SubspaceId) -> Celsius {
        self.zone_state(id).temperature
    }

    /// True dew point of a subspace.
    #[must_use]
    pub fn zone_dew_point(&self, id: SubspaceId) -> Celsius {
        self.zone_state(id).dew_point()
    }

    /// Current outdoor air state.
    #[must_use]
    pub fn outdoor(&self) -> AirState {
        self.outdoor
    }

    /// True panel surface temperature.
    #[must_use]
    pub fn panel_surface(&self, panel: usize) -> Celsius {
        self.panels[panel].surface_temperature()
    }

    /// Total condensate ever formed on the panels, kg.
    #[must_use]
    pub fn panel_condensate_total(&self) -> f64 {
        self.panels.iter().map(RadiantPanel::total_condensate).sum()
    }

    /// True radiant tank temperature.
    #[must_use]
    pub fn radiant_tank_temperature(&self) -> Celsius {
        self.radiant_tank.temperature()
    }

    /// True ventilation tank temperature.
    #[must_use]
    pub fn vent_tank_temperature(&self) -> Celsius {
        self.vent_tank.temperature()
    }

    /// True mixed-water temperature entering a panel.
    #[must_use]
    pub fn loop_mixed_temp(&self, panel: usize) -> Celsius {
        self.loops[panel].mixed_temp
    }

    /// Telemetry of the most recent step.
    #[must_use]
    pub fn telemetry(&self) -> &StepTelemetry {
        &self.telemetry
    }

    /// Integrated energy meters.
    #[must_use]
    pub fn meters(&self) -> &EnergyMeters {
        &self.meters
    }

    /// Resets the integrated meters (for steady-state windows) — both the
    /// plant meters and the chillers' internal meters.
    pub fn reset_meters(&mut self) {
        self.meters = EnergyMeters::default();
        self.radiant_chiller.reset_meters();
        self.vent_chiller.reset_meters();
    }

    // --- Sensor interface (what the control boards see) --------------------

    /// True if `target` is dropped out (produces no reading) right now.
    /// Callers should skip sampling — and transmitting — a dropped-out
    /// element, the way a mote skips a sensor that stops answering.
    #[must_use]
    pub fn sensor_dropped_out(&self, target: SensorTarget) -> bool {
        self.config.sensor_faults.dropped_out(target, self.now)
    }

    /// Runs a clean reading through the sensor-fault schedule for
    /// `target`/`channel` (0 = temperature/primary, 1 = humidity).
    fn faulted(&mut self, target: SensorTarget, channel: u8, clean: f64) -> f64 {
        let Some(event) = self.config.sensor_faults.active_for(target, self.now) else {
            self.stuck_latch.remove(&(target, channel));
            return clean;
        };
        match event.fault {
            SensorFault::StuckAt => *self.stuck_latch.entry((target, channel)).or_insert(clean),
            SensorFault::DriftRamp { per_hour } => {
                let hours = self.now.since(event.at).as_secs_f64() / 3_600.0;
                clean + per_hour * hours
            }
            // Dropout is handled by callers via `sensor_dropped_out`; if
            // one reads anyway, it gets the clean value.
            SensorFault::Dropout => clean,
            SensorFault::NoiseBurst { sd } => clean + self.sensor_fault_rng.normal(0.0, sd),
            SensorFault::CalibrationJump { offset } => clean + offset,
        }
    }

    /// Room SHT75 reading for a subspace: (temperature, relative humidity).
    pub fn read_room(&mut self, id: SubspaceId) -> (Celsius, Percent) {
        let state = self.zones[id.index()].state();
        let sensor = &mut self.instruments.room[id.index()];
        let t = sensor.read_temp(state.temperature);
        let rh = sensor.read_rh(state.relative_humidity());
        let target = SensorTarget::Room(id.index());
        (
            Celsius::new(self.faulted(target, 0, t.get())),
            Percent::new(self.faulted(target, 1, rh.get())),
        )
    }

    /// Air sampled by ceiling sensor `k` (0–5) under `panel`. Three
    /// sensors sit under each of the two served subspaces; the air they
    /// sample is slightly cooler than the bulk zone air because of the
    /// cold panel above (a 30% blend toward the surface temperature). The
    /// humidity *ratio* is unchanged near the ceiling, so RH rises as the
    /// air cools.
    fn near_ceiling_air(&self, panel: usize, k: usize) -> AirState {
        let state = self.zones[2 * panel + k / 3].state();
        let surface = self.panels[panel].surface_temperature();
        AirState {
            temperature: Celsius::new(0.7 * state.temperature.get() + 0.3 * surface.get()),
            ..state
        }
    }

    /// A single ceiling sensor (`k` in 0–5) under a panel: (temperature,
    /// RH) of its near-ceiling air.
    pub fn read_ceiling_sensor(&mut self, panel: usize, k: usize) -> (Celsius, Percent) {
        let near = self.near_ceiling_air(panel, k);
        let sensor = &mut self.instruments.ceiling[panel * 6 + k];
        let t = sensor.read_temp(near.temperature);
        let rh = sensor.read_rh(near.relative_humidity());
        let target = SensorTarget::Ceiling(panel * 6 + k);
        (
            Celsius::new(self.faulted(target, 0, t.get())),
            Percent::new(self.faulted(target, 1, rh.get())),
        )
    }

    /// Temperature channel of the room SHT75 only. The humidity
    /// sibling's noise draw is *skipped* (state-advanced, not computed),
    /// so the reading — and every reading after it — is bit-identical to
    /// taking [`read_room`](Self::read_room) and discarding the RH half.
    /// Falls back to the full two-channel read whenever the fault
    /// schedule can touch this sensor or the scalar-reference switch is
    /// on.
    pub fn read_room_temp(&mut self, id: SubspaceId) -> Celsius {
        let target = SensorTarget::Room(id.index());
        if self.config.scalar_reference || self.config.sensor_faults.ever_targets(target) {
            return self.read_room(id).0;
        }
        let state = self.zones[id.index()].state();
        let sensor = &mut self.instruments.room[id.index()];
        let t = sensor.read_temp(state.temperature);
        sensor.skip_rh();
        t
    }

    /// Humidity channel of the room SHT75 only (see
    /// [`read_room_temp`](Self::read_room_temp)).
    pub fn read_room_rh(&mut self, id: SubspaceId) -> Percent {
        let target = SensorTarget::Room(id.index());
        if self.config.scalar_reference || self.config.sensor_faults.ever_targets(target) {
            return self.read_room(id).1;
        }
        let truth = self.zones[id.index()].state().relative_humidity();
        let sensor = &mut self.instruments.room[id.index()];
        sensor.skip_temp();
        sensor.read_rh(truth)
    }

    /// Temperature channel of one ceiling SHT75 only (see
    /// [`read_room_temp`](Self::read_room_temp) for the skip contract).
    pub fn read_ceiling_sensor_temp(&mut self, panel: usize, k: usize) -> Celsius {
        let target = SensorTarget::Ceiling(panel * 6 + k);
        if self.config.scalar_reference || self.config.sensor_faults.ever_targets(target) {
            return self.read_ceiling_sensor(panel, k).0;
        }
        let near = self.near_ceiling_air(panel, k);
        let sensor = &mut self.instruments.ceiling[panel * 6 + k];
        let t = sensor.read_temp(near.temperature);
        sensor.skip_rh();
        t
    }

    /// Humidity channel of one ceiling SHT75 only (see
    /// [`read_room_temp`](Self::read_room_temp) for the skip contract).
    pub fn read_ceiling_sensor_rh(&mut self, panel: usize, k: usize) -> Percent {
        let target = SensorTarget::Ceiling(panel * 6 + k);
        if self.config.scalar_reference || self.config.sensor_faults.ever_targets(target) {
            return self.read_ceiling_sensor(panel, k).1;
        }
        let truth = self.near_ceiling_air(panel, k).relative_humidity();
        let sensor = &mut self.instruments.ceiling[panel * 6 + k];
        sensor.skip_temp();
        sensor.read_rh(truth)
    }

    /// ADT7410 reading of the mixed-water temperature for a panel loop.
    pub fn read_mixed_temp(&mut self, panel: usize) -> Celsius {
        self.instruments.pipe_mix[panel].read(self.loops[panel].mixed_temp)
    }

    /// ADT7410 reading of the loop return temperature.
    pub fn read_return_temp(&mut self, panel: usize) -> Celsius {
        self.instruments.pipe_return[panel].read(self.loops[panel].return_temp)
    }

    /// ADT7410 reading of the radiant tank supply temperature.
    pub fn read_supply_temp(&mut self) -> Celsius {
        self.instruments
            .tank_supply
            .read(self.radiant_tank.temperature())
    }

    /// ADT7410 reading of the ventilation tank supply temperature.
    pub fn read_vent_supply_temp(&mut self) -> Celsius {
        self.instruments
            .vent_supply
            .read(self.vent_tank.temperature())
    }

    /// VISION-2000 reading of the mixed loop flow, m³/s.
    pub fn read_mixed_flow(&mut self, panel: usize) -> f64 {
        self.instruments.flow[panel * 3].read(self.loops[panel].mixed_flow_m3s)
    }

    /// SHT75 reading at an airbox outlet: (temperature, RH).
    pub fn read_airbox_outlet(&mut self, airbox: usize) -> (Celsius, Percent) {
        let state = self.outlet_states[airbox];
        let sensor = &mut self.instruments.outlet[airbox];
        let t = sensor.read_temp(state.temperature);
        let rh = sensor.read_rh(state.relative_humidity());
        let target = SensorTarget::Outlet(airbox);
        (
            Celsius::new(self.faulted(target, 0, t.get())),
            Percent::new(self.faulted(target, 1, rh.get())),
        )
    }

    /// VISION-2000 reading of an airbox coil water flow, m³/s.
    pub fn read_coil_flow(&mut self, airbox: usize) -> f64 {
        self.instruments.coil_flow[airbox].read(self.coil_flows[airbox])
    }

    /// CO₂ reading for a subspace.
    pub fn read_co2(&mut self, id: SubspaceId) -> Ppm {
        let truth = self.zones[id.index()].state().co2;
        let clean = self.instruments.co2[id.index()].read(truth);
        Ppm::new(self.faulted(SensorTarget::Co2(id.index()), 0, clean.get()))
    }

    /// The radiant loop pump model (supply and recycle pumps are
    /// identical units).
    #[must_use]
    pub fn loop_pump(&self) -> &Pump {
        &self.supply_pumps[0]
    }
}

// --- Checkpoint support --------------------------------------------------
//
// Restore contract: rebuild the plant with `ThermalPlant::new(config)`
// (same config as the checkpointed run), then `load_state` to overwrite
// every dynamic field. The config, the pump curves, and the obs handle are
// wiring, not state, and are never serialized.

bz_state::persist_struct!(RadiantLoopCommand {
    supply_voltage,
    recycle_voltage,
});
bz_state::persist_struct!(AirboxActuation {
    coil_pump_voltage,
    fan,
    flap_open,
});
bz_state::persist_struct!(ActuatorCommands { radiant, airboxes });
bz_state::persist_struct!(StepTelemetry {
    radiant_heat_removed_w,
    vent_heat_removed_w,
    radiant_chiller_w,
    vent_chiller_w,
    pump_power_w,
    fan_power_w,
    panel_condensate_kg,
    airbox_condensate_kg,
});
bz_state::persist_struct!(EnergyMeters {
    radiant_removed,
    vent_removed,
    radiant_chiller,
    vent_chiller,
    pumps,
    fans,
    elapsed,
});
bz_state::persist_struct!(LoopState {
    return_temp,
    mixed_temp,
    mixed_flow_m3s,
    supply_flow_m3s,
    recycle_flow_m3s,
});
bz_state::persist_struct!(Instruments {
    room,
    ceiling,
    pipe_mix,
    pipe_return,
    tank_supply,
    vent_supply,
    flow,
    outlet,
    coil_flow,
    co2,
});

impl ThermalPlant {
    /// Serializes every dynamic field of the plant — air states, water
    /// temperatures, panel surfaces, meters, every sensor's noise-stream
    /// position, and the stuck-at fault latches.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.now.save(w);
        self.weather.save_state(w);
        self.outdoor.save(w);
        self.zones.save(w);
        self.panels.save(w);
        self.loops.save(w);
        self.radiant_tank.save(w);
        self.vent_tank.save(w);
        self.radiant_chiller.save_state(w);
        self.vent_chiller.save_state(w);
        self.airboxes.save(w);
        self.outlet_states.save(w);
        self.coil_flows.save(w);
        self.instruments.save(w);
        self.telemetry.save(w);
        self.meters.save(w);
        self.last_zone_inputs.save(w);
        self.sensor_fault_rng.save(w);
        self.stuck_latch.save(w);
    }

    /// The parameter blocks a checkpoint repeats: zones, panels, tank
    /// volumes and airboxes. The configuration fixes them.
    fn parameters(
        zones: &[Zone; 4],
        panels: &[RadiantPanel; 2],
        tanks: [&Tank; 2],
        airboxes: &[Airbox; 4],
    ) -> (
        [ZoneParams; 4],
        [PanelParams; 2],
        [f64; 2],
        [AirboxParams; 4],
    ) {
        (
            zones.each_ref().map(|z| z.params),
            panels.each_ref().map(|p| p.params),
            tanks.map(|t| t.volume_m3),
            airboxes.each_ref().map(|a| a.params),
        )
    }

    /// Restores the dynamic state saved by [`Self::save_state`] into a
    /// plant freshly built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse, and refuses
    /// parameter blocks (zones, panels, tanks, airboxes) other than this
    /// plant's and a panel surface or tank water temperature that is not
    /// finite or lies outside −45 °C to 60 °C: a step divides by those
    /// parameters, the near-ceiling air blends in the panel surface, and
    /// the panels and airbox coils carry the tank water into the air.
    /// Those blocks are checked before they are assigned, so a refused
    /// load keeps this plant's parameters and its own save reloads.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.now = Persist::load(r)?;
        self.weather.load_state(r)?;
        self.outdoor = Persist::load(r)?;
        let zones: [Zone; 4] = Persist::load(r)?;
        let panels: [RadiantPanel; 2] = Persist::load(r)?;
        let loops: [LoopState; 2] = Persist::load(r)?;
        let radiant_tank: Tank = Persist::load(r)?;
        let vent_tank: Tank = Persist::load(r)?;
        self.radiant_chiller.load_state(r)?;
        self.vent_chiller.load_state(r)?;
        let airboxes: [Airbox; 4] = Persist::load(r)?;
        let restored = Self::parameters(&zones, &panels, [&radiant_tank, &vent_tank], &airboxes);
        let own = Self::parameters(
            &self.zones,
            &self.panels,
            [&self.radiant_tank, &self.vent_tank],
            &self.airboxes,
        );
        let temps = [
            panels[0].surface_temperature(),
            panels[1].surface_temperature(),
            radiant_tank.temperature(),
            vent_tank.temperature(),
            loops[0].return_temp,
            loops[0].mixed_temp,
            loops[1].return_temp,
            loops[1].mixed_temp,
        ]
        .map(Celsius::get);
        if restored != own || !temps.iter().all(|t| RESTORABLE_AIR_C.contains(t)) {
            return Err(bz_state::StateError::Invalid {
                what: "ThermalPlant",
                reason: format!(
                    "restored parameters {restored:?} are not this plant's, or a panel surface, \
                     tank or loop water of {temps:?} °C lies outside −45 °C to 60 °C"
                ),
            });
        }
        for (i, state) in loops.iter().enumerate() {
            // The most each pump delivers, as a step computes it, so a
            // loop's own flows always fit, and its mixed flow, their sum,
            // fits their sum.
            let supply = self.supply_pumps[i].flow(Pump::MAX_VOLTAGE);
            let recycle = self.recycle_pumps[i].flow(Pump::MAX_VOLTAGE);
            let flows = [
                state.supply_flow_m3s,
                state.recycle_flow_m3s,
                state.mixed_flow_m3s,
            ];
            let fits = [supply, recycle, supply + recycle];
            if !flows
                .iter()
                .zip(fits)
                .all(|(flow, max)| (0.0..=max).contains(flow))
            {
                return Err(bz_state::StateError::Invalid {
                    what: "ThermalPlant",
                    reason: format!(
                        "radiant loop {i}'s supply, recycle and mixed flows {flows:?} m³/s \
                         are not within 0 to {fits:?}, what its pumps deliver"
                    ),
                });
            }
        }
        self.zones = zones;
        self.panels = panels;
        self.loops = loops;
        self.radiant_tank = radiant_tank;
        self.vent_tank = vent_tank;
        self.airboxes = airboxes;
        self.outlet_states = Persist::load(r)?;
        self.coil_flows = Persist::load(r)?;
        let sensors = (self.instruments.ceiling.len(), self.instruments.flow.len());
        self.instruments = Persist::load(r)?;
        let restored = (self.instruments.ceiling.len(), self.instruments.flow.len());
        if restored != sensors {
            return Err(bz_state::StateError::Invalid {
                what: "ThermalPlant",
                reason: format!(
                    "checkpoint has {restored:?} ceiling and flow sensors, this plant has {sensors:?}"
                ),
            });
        }
        self.telemetry = Persist::load(r)?;
        self.meters = Persist::load(r)?;
        self.last_zone_inputs = Persist::load(r)?;
        self.sensor_fault_rng = Persist::load(r)?;
        self.stuck_latch = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> ThermalPlant {
        ThermalPlant::new(PlantConfig::bubble_zero_lab())
    }

    #[test]
    fn restore_rejects_sensor_tables_of_another_shape() {
        let mut source = lab();
        source.instruments.ceiling.truncate(3);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let mut restored = lab();
        let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
        if loaded.is_ok() {
            // Sensor reads index the tables by panel and position.
            restored.read_ceiling_sensor(1, 5);
        }
        let err = loaded.unwrap_err().to_string();
        assert!(err.contains("this plant has (12, 6)"), "{err}");
    }

    #[test]
    fn restore_rejects_a_negative_humidity_ratio() {
        let mut source = lab();
        let dry = AirState {
            humidity_ratio: bz_psychro::KgPerKg::new(-0.01),
            ..source.zones[1].state()
        };
        source.zones[1] = Zone::new(source.zones[1].params, dry);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let mut restored = lab();
        let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
        if loaded.is_ok() {
            // The RH behind its dew point expects a non-negative ratio.
            let _ = restored.zone_dew_point(SubspaceId::S2);
        }
        let err = loaded.unwrap_err().to_string();
        assert!(err.contains("humidity ratio -0.01"), "{err}");
    }

    #[test]
    fn bone_dry_air_dews_at_the_magnus_limit() {
        let mut plant = lab();
        let dry = AirState {
            humidity_ratio: bz_psychro::KgPerKg::new(0.0),
            ..plant.zones[0].state()
        };
        plant.zones[0] = Zone::new(plant.zones[0].params, dry);
        assert_eq!(plant.zone_dew_point(SubspaceId::S1).get(), -243.12);
    }

    #[test]
    fn restore_rejects_air_outside_the_magnus_range() {
        let snapshot = |t: f64| {
            let mut source = lab();
            let air = AirState {
                temperature: bz_psychro::Celsius::new(t),
                ..source.zones[0].state()
            };
            source.zones[0] = Zone::new(source.zones[0].params, air);
            let mut w = bz_state::Writer::new();
            source.save_state(&mut w);
            w.into_bytes()
        };
        for t in [1e5, 60.5, -250.0] {
            let mut restored = lab();
            let loaded = restored.load_state(&mut bz_state::Reader::new(&snapshot(t)));
            if loaded.is_ok() {
                // Such air panics within a minute of steps: its saturation
                // pressure passes the total pressure, or it has no Magnus
                // dew point.
                for _ in 0..60 {
                    restored.step(second(), &ActuatorCommands::all_off());
                    let _ = restored.zone_dew_point(SubspaceId::S1);
                }
            }
            let err = loaded.unwrap_err().to_string();
            assert!(err.contains(&format!("{t} °C")), "{err}");
        }
        for t in [60.0, -45.0] {
            let mut restored = lab();
            let loaded = restored.load_state(&mut bz_state::Reader::new(&snapshot(t)));
            assert!(loaded.is_ok(), "{t} °C: {loaded:?}");
        }
    }

    /// Saves a lab plant changed by `change`, restores the bytes into a
    /// fresh lab plant, and returns the refusal. Should the restore load,
    /// a minute of idle steps shows what the restored state does.
    fn refusal(change: impl FnOnce(&mut ThermalPlant)) -> String {
        let mut source = lab();
        change(&mut source);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let mut restored = lab();
        let loaded = restored.load_state(&mut bz_state::Reader::new(w.as_bytes()));
        if loaded.is_ok() {
            for _ in 0..60 {
                restored.step(second(), &ActuatorCommands::all_off());
                let _ = restored.zone_dew_point(SubspaceId::S1);
            }
        }
        loaded.unwrap_err().to_string()
    }

    #[test]
    fn restore_refuses_panels_that_cannot_step() {
        let changes: [fn(&mut ThermalPlant); 5] = [
            |p| p.panels[0] = RadiantPanel::new(p.panels[0].params, Celsius::new(200.0)),
            |p| p.panels[0] = RadiantPanel::new(p.panels[0].params, Celsius::new(f64::NAN)),
            |p| p.panels[1].params.capacitance_j_k = 0.0,
            |p| p.panels[1].params.capacitance_j_k = -1.0,
            |p| p.panels[1].params.area_m2 = f64::NAN,
        ];
        for change in changes {
            assert!(refusal(change).contains("are not this plant's"));
        }
    }

    /// A lab plant warmed 60 s with every pump on, its `tank` water set
    /// to `celsius`, saved and restored into a fresh lab plant. Should the
    /// restore load, the plant steps 1,800 s with every pump on: the panels
    /// and coils then carry the tank water into the air.
    fn restore_tank(tank: fn(&mut ThermalPlant) -> &mut Tank, celsius: f64) -> Result<(), String> {
        restore_warmed(|p| {
            let water = tank(p);
            *water = Tank::new(water.volume_m3, Celsius::new(celsius));
        })
    }

    /// A lab plant warmed 60 s with every pump on and then changed by
    /// `change`, restored and stepped as [`restore_tank`] describes.
    fn restore_warmed(change: impl FnOnce(&mut ThermalPlant)) -> Result<(), String> {
        let on = {
            let full = Volts::new(5.0);
            let radiant = RadiantLoopCommand {
                supply_voltage: full,
                recycle_voltage: full,
            };
            let airbox = AirboxActuation {
                coil_pump_voltage: full,
                fan: FanLevel::L4,
                flap_open: true,
            };
            ActuatorCommands {
                radiant: [radiant; 2],
                airboxes: [airbox; 4],
            }
        };
        let mut source = lab();
        for _ in 0..60 {
            source.step(second(), &on);
        }
        change(&mut source);
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        let mut restored = lab();
        restored
            .load_state(&mut bz_state::Reader::new(w.as_bytes()))
            .map_err(|e| e.to_string())?;
        for _ in 0..1_800 {
            restored.step(second(), &on);
        }
        Ok(())
    }

    #[test]
    fn restore_refuses_tank_water_that_cannot_step() {
        let radiant: fn(&mut ThermalPlant) -> &mut Tank = |p| &mut p.radiant_tank;
        let vent: fn(&mut ThermalPlant) -> &mut Tank = |p| &mut p.vent_tank;
        for (tank, celsius) in [
            (radiant, f64::NAN),
            (radiant, 1e4),
            (radiant, -300.0),
            (vent, 100.0),
        ] {
            let err = restore_tank(tank, celsius).unwrap_err();
            assert!(err.contains("lies outside −45 °C to 60 °C"), "{err}");
        }
        for (tank, celsius) in [(radiant, 60.0), (vent, -45.0)] {
            assert_eq!(restore_tank(tank, celsius), Ok(()), "{celsius} °C");
        }
    }

    #[test]
    fn restore_refuses_loop_water_that_cannot_step() {
        // Restored and stepped with the pumps on, so a step mixes the
        // loop's return water into the panel.
        let restore_loop = |change: fn(&mut LoopState)| restore_warmed(|p| change(&mut p.loops[1]));
        let temperatures: [fn(&mut LoopState); 4] = [
            |l| l.return_temp = Celsius::new(f64::NAN),
            |l| l.return_temp = Celsius::new(1e300),
            |l| l.mixed_temp = Celsius::new(-46.0),
            |l| l.mixed_temp = Celsius::new(f64::NAN),
        ];
        for change in temperatures {
            let err = restore_loop(change).unwrap_err();
            assert!(err.contains("lies outside −45 °C to 60 °C"), "{err}");
        }
        let flows: [fn(&mut LoopState); 5] = [
            |l| l.mixed_flow_m3s = f64::NAN,
            |l| l.mixed_flow_m3s = 1e300,
            |l| l.supply_flow_m3s = -1e-9,
            |l| l.recycle_flow_m3s = f64::INFINITY,
            |l| l.recycle_flow_m3s += 1e-6,
        ];
        for change in flows {
            let err = restore_loop(change).unwrap_err();
            assert!(err.contains("radiant loop 1's"), "{err}");
        }
        let kept: [fn(&mut LoopState); 3] = [
            |_| {},
            |l| l.return_temp = Celsius::new(60.0),
            |l| {
                l.supply_flow_m3s = 0.0;
                l.recycle_flow_m3s = 0.0;
                l.mixed_flow_m3s = 0.0;
            },
        ];
        for change in kept {
            assert_eq!(restore_loop(change), Ok(()));
        }
    }

    #[test]
    fn a_refused_load_keeps_the_plant_parameters() {
        let mut plant = lab();
        let mut own = bz_state::Writer::new();
        plant.save_state(&mut own);
        let mut source = lab();
        source.zones[1].params.volume_m3 *= 2.0;
        let mut w = bz_state::Writer::new();
        source.save_state(&mut w);
        assert!(plant
            .load_state(&mut bz_state::Reader::new(w.as_bytes()))
            .is_err());
        assert_eq!(
            plant.load_state(&mut bz_state::Reader::new(own.as_bytes())),
            Ok(()),
            "the plant reloads its own save"
        );
    }

    #[test]
    fn restore_refuses_zones_tanks_and_airboxes_of_other_parameters() {
        let changes: [fn(&mut ThermalPlant); 4] = [
            |p| p.zones[2].params.volume_m3 = 0.0,
            |p| p.zones[2].params.volume_m3 = -1.0,
            |p| p.vent_tank.volume_m3 = 0.3,
            |p| p.airboxes[3].params.coil_ua *= 2.0,
        ];
        for change in changes {
            assert!(refusal(change).contains("are not this plant's"));
        }
    }

    /// The fast path (single-channel sensor reads with sibling skips)
    /// must be bit-identical to the scalar reference path, reading for
    /// reading and state for state.
    #[test]
    fn scalar_reference_and_fast_paths_are_bit_identical() {
        let build = |scalar: bool| {
            ThermalPlant::new(
                PlantConfig::bubble_zero_lab()
                    .with_seed(0xFA57)
                    .with_disturbances(crate::disturbance::DisturbanceSchedule::figure10_afternoon())
                    .with_scalar_reference(scalar),
            )
        };
        let mut reference = build(true);
        let mut fast = build(false);
        let commands = ActuatorCommands::all_off();
        for minute in 0..30 {
            for _ in 0..60 {
                reference.step(SimDuration::from_secs(1), &commands);
                fast.step(SimDuration::from_secs(1), &commands);
            }
            let id = SubspaceId::from_index(minute % 4);
            let panel = minute % 2;
            let k = minute % 6;
            // The scalar plant always takes the full two-channel reads;
            // the fast plant goes through the skipping single-channel
            // variants. Streams must stay locked together throughout.
            assert_eq!(reference.read_room(id).0, fast.read_room_temp(id));
            assert_eq!(reference.read_room(id).1, fast.read_room_rh(id));
            assert_eq!(
                reference.read_ceiling_sensor(panel, k).0,
                fast.read_ceiling_sensor_temp(panel, k)
            );
            assert_eq!(
                reference.read_ceiling_sensor(panel, k).1,
                fast.read_ceiling_sensor_rh(panel, k)
            );
            assert_eq!(reference.read_co2(id), fast.read_co2(id));
            for i in 0..4 {
                let a = reference.zones[i].state();
                let b = fast.zones[i].state();
                assert_eq!(a.temperature.get().to_bits(), b.temperature.get().to_bits());
                assert_eq!(
                    a.humidity_ratio.get().to_bits(),
                    b.humidity_ratio.get().to_bits()
                );
                assert_eq!(a.co2.get().to_bits(), b.co2.get().to_bits());
            }
        }
    }

    /// With a fault schedule that targets a sensor, the single-channel
    /// variants must fall back to the full faulted read path.
    #[test]
    fn single_channel_reads_fall_back_under_faults() {
        use crate::sensors::SensorFaultEvent;
        let schedule = SensorFaultSchedule::new(vec![SensorFaultEvent {
            at: SimTime::from_secs(0),
            repaired_at: None,
            target: SensorTarget::Room(0),
            fault: SensorFault::CalibrationJump { offset: 5.0 },
        }]);
        let build = || {
            ThermalPlant::new(
                PlantConfig::bubble_zero_lab()
                    .with_seed(0xFA58)
                    .with_sensor_faults(schedule.clone())
                    .with_scalar_reference(false),
            )
        };
        let mut fast = build();
        let mut reference = build();
        let full = reference.read_room(SubspaceId::S1);
        let t = fast.read_room_temp(SubspaceId::S1);
        // The calibration jump must show through the single-channel read.
        assert_eq!(full.0, t);
        assert!(t.get() > 30.0, "jump not applied: {t}");
    }

    #[test]
    fn stuck_ceiling_sensor_freezes_while_neighbours_keep_reading() {
        use crate::sensors::{SensorFaultEvent, SensorFaultSchedule};
        let schedule = SensorFaultSchedule::new(vec![SensorFaultEvent {
            at: SimTime::ZERO,
            repaired_at: Some(SimTime::from_secs(30)),
            target: SensorTarget::Ceiling(2),
            fault: SensorFault::StuckAt,
        }]);
        let mut plant =
            ThermalPlant::new(PlantConfig::bubble_zero_lab().with_sensor_faults(schedule));
        let commands = ActuatorCommands::all_off();
        let first = plant.read_ceiling_sensor(0, 2);
        let mut neighbour_moved = false;
        for _ in 0..20 {
            plant.step(SimDuration::from_secs(1), &commands);
            let stuck = plant.read_ceiling_sensor(0, 2);
            assert_eq!(stuck, first, "stuck sensor must freeze");
            if plant.read_ceiling_sensor(0, 3) != first {
                neighbour_moved = true;
            }
        }
        assert!(neighbour_moved, "healthy neighbour should keep reading");
        // After repair the sensor unfreezes (noise makes an exact repeat of
        // the latched pair essentially impossible).
        for _ in 0..15 {
            plant.step(SimDuration::from_secs(1), &commands);
        }
        assert_ne!(plant.read_ceiling_sensor(0, 2), first);
    }

    #[test]
    fn calibration_jump_and_drift_shift_readings() {
        use crate::sensors::{SensorFaultEvent, SensorFaultSchedule};
        let schedule = SensorFaultSchedule::new(vec![
            SensorFaultEvent {
                at: SimTime::ZERO,
                repaired_at: None,
                target: SensorTarget::Co2(1),
                fault: SensorFault::CalibrationJump { offset: 400.0 },
            },
            SensorFaultEvent {
                at: SimTime::ZERO,
                repaired_at: None,
                target: SensorTarget::Co2(2),
                fault: SensorFault::DriftRamp { per_hour: 3_600.0 },
            },
        ]);
        let mut faulty =
            ThermalPlant::new(PlantConfig::bubble_zero_lab().with_sensor_faults(schedule));
        let mut clean = lab();
        let commands = ActuatorCommands::all_off();
        for _ in 0..60 {
            faulty.step(SimDuration::from_secs(1), &commands);
            clean.step(SimDuration::from_secs(1), &commands);
        }
        let jumped = faulty.read_co2(SubspaceId::from_index(1)).get();
        let reference = clean.read_co2(SubspaceId::from_index(1)).get();
        assert!(
            (jumped - reference - 400.0).abs() < 50.0,
            "jump {jumped} vs {reference}"
        );
        // 3600 ppm/hour for 60 s ≈ +60 ppm of drift.
        let drifted = faulty.read_co2(SubspaceId::from_index(2)).get();
        let reference2 = clean.read_co2(SubspaceId::from_index(2)).get();
        assert!(
            (drifted - reference2 - 60.0).abs() < 50.0,
            "drift {drifted} vs {reference2}"
        );
    }

    #[test]
    fn dropout_is_visible_to_the_sampling_layer() {
        use crate::sensors::{SensorFaultEvent, SensorFaultSchedule};
        let schedule = SensorFaultSchedule::new(vec![SensorFaultEvent {
            at: SimTime::from_secs(10),
            repaired_at: None,
            target: SensorTarget::Room(0),
            fault: SensorFault::Dropout,
        }]);
        let mut plant =
            ThermalPlant::new(PlantConfig::bubble_zero_lab().with_sensor_faults(schedule));
        assert!(!plant.sensor_dropped_out(SensorTarget::Room(0)));
        let commands = ActuatorCommands::all_off();
        for _ in 0..10 {
            plant.step(SimDuration::from_secs(1), &commands);
        }
        assert!(plant.sensor_dropped_out(SensorTarget::Room(0)));
        assert!(!plant.sensor_dropped_out(SensorTarget::Room(1)));
    }

    fn second() -> SimDuration {
        SimDuration::from_secs(1)
    }

    #[test]
    fn initial_condition_matches_paper() {
        let plant = lab();
        for id in SubspaceId::ALL {
            assert!((plant.zone_temperature(id).get() - 28.9).abs() < 1e-9);
            assert!((plant.zone_dew_point(id).get() - 27.4).abs() < 1e-6);
        }
        assert!((plant.radiant_tank_temperature().get() - 18.0).abs() < 1e-9);
        assert!((plant.vent_tank_temperature().get() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn all_off_stays_warm_and_humid() {
        let mut plant = lab();
        for _ in 0..1_800 {
            plant.step(second(), &ActuatorCommands::all_off());
        }
        for id in SubspaceId::ALL {
            assert!(plant.zone_temperature(id).get() > 27.5);
            assert!(plant.zone_dew_point(id).get() > 26.0);
        }
        assert_eq!(plant.telemetry().fan_power_w, 0.0);
    }

    #[test]
    fn full_radiant_cooling_pulls_temperature_down() {
        let mut plant = lab();
        let commands = ActuatorCommands {
            radiant: [RadiantLoopCommand {
                supply_voltage: Volts::new(5.0),
                recycle_voltage: Volts::new(0.0),
            }; 2],
            airboxes: Default::default(),
        };
        for _ in 0..2_400 {
            plant.step(second(), &commands);
        }
        for id in SubspaceId::ALL {
            let t = plant.zone_temperature(id).get();
            assert!(t < 27.0, "{id} still at {t}°C");
        }
        assert!(plant.telemetry().radiant_heat_removed_w > 300.0);
        assert!(plant.telemetry().radiant_chiller_w > 0.0);
    }

    #[test]
    fn full_ventilation_dries_the_room() {
        let mut plant = lab();
        let commands = ActuatorCommands {
            radiant: Default::default(),
            airboxes: [AirboxActuation {
                coil_pump_voltage: Volts::new(5.0),
                fan: FanLevel::L4,
                flap_open: true,
            }; 4],
        };
        let dew0 = plant.zone_dew_point(SubspaceId::S1).get();
        for _ in 0..2_400 {
            plant.step(second(), &commands);
        }
        for id in SubspaceId::ALL {
            let dew = plant.zone_dew_point(id).get();
            assert!(dew < dew0 - 4.0, "{id} dew only fell to {dew}");
        }
        assert!(plant.telemetry().vent_heat_removed_w > 50.0);
        assert!(plant.telemetry().airbox_condensate_kg > 0.0);
    }

    #[test]
    fn uncontrolled_chilled_panel_eventually_condenses() {
        // Supplying 18 °C water straight into a 27.4 °C-dew-point room
        // *must* condense — this is the failure mode the paper's radiant
        // controller exists to prevent.
        let mut plant = lab();
        let commands = ActuatorCommands {
            radiant: [RadiantLoopCommand {
                supply_voltage: Volts::new(5.0),
                recycle_voltage: Volts::new(0.0),
            }; 2],
            airboxes: Default::default(),
        };
        for _ in 0..3_600 {
            plant.step(second(), &commands);
        }
        assert!(
            plant.panel_condensate_total() > 0.0,
            "panel at {} vs dew {}",
            plant.panel_surface(0),
            plant.zone_dew_point(SubspaceId::S1)
        );
    }

    #[test]
    fn sensors_track_truth() {
        let mut plant = lab();
        for _ in 0..60 {
            plant.step(second(), &ActuatorCommands::all_off());
        }
        let (t, rh) = plant.read_room(SubspaceId::S1);
        let truth = plant.zone_state(SubspaceId::S1);
        assert!((t.get() - truth.temperature.get()).abs() < 0.5);
        assert!((rh.get() - truth.relative_humidity().get()).abs() < 3.0);
        for k in 0..6 {
            let (_, rh) = plant.read_ceiling_sensor(0, k);
            assert!((0.0..=100.0).contains(&rh.get()));
        }
        let co2 = plant.read_co2(SubspaceId::S2);
        assert!((co2.get() - truth.co2.get()).abs() < 60.0);
    }

    #[test]
    fn pipe_sensors_follow_loop_state() {
        let mut plant = lab();
        let commands = ActuatorCommands {
            radiant: [RadiantLoopCommand {
                supply_voltage: Volts::new(4.0),
                recycle_voltage: Volts::new(2.0),
            }; 2],
            airboxes: Default::default(),
        };
        for _ in 0..300 {
            plant.step(second(), &commands);
        }
        let mix_reading = plant.read_mixed_temp(0);
        let truth = plant.loop_mixed_temp(0);
        assert!((mix_reading.get() - truth.get()).abs() < 0.7);
        // Recycle mixing keeps T_mix above the tank temperature.
        assert!(truth.get() > plant.radiant_tank_temperature().get());
        let flow = plant.loops[0].mixed_flow_m3s;
        assert!(flow > 0.0);
    }

    #[test]
    fn door_event_perturbs_subspace_one_most() {
        use crate::disturbance::{OpeningEvent, OpeningKind};
        let schedule = DisturbanceSchedule::new(vec![OpeningEvent {
            at: SimTime::from_secs(60),
            duration: SimDuration::from_secs(120),
            kind: OpeningKind::Door,
        }]);
        let config = PlantConfig::bubble_zero_lab().with_disturbances(schedule);
        let mut plant = ThermalPlant::new(config);
        // Pre-dry the room so the disturbance is visible.
        let commands = ActuatorCommands {
            radiant: Default::default(),
            airboxes: [AirboxActuation {
                coil_pump_voltage: Volts::new(5.0),
                fan: FanLevel::L4,
                flap_open: true,
            }; 4],
        };
        // The event fires at t=60 s. With the fans at full blast the net
        // dew point may keep falling even while the door is open, so the
        // localized effect shows as S1 diverging *above* S4 (which only
        // sees the event indirectly through inter-zone mixing).
        for _ in 0..59 {
            plant.step(second(), &commands);
        }
        let gap_before =
            plant.zone_dew_point(SubspaceId::S1).get() - plant.zone_dew_point(SubspaceId::S4).get();
        let mut gap_peak = f64::NEG_INFINITY;
        for _ in 0..140 {
            plant.step(second(), &commands);
            let gap = plant.zone_dew_point(SubspaceId::S1).get()
                - plant.zone_dew_point(SubspaceId::S4).get();
            gap_peak = gap_peak.max(gap);
        }
        assert!(
            gap_peak - gap_before > 0.1,
            "door should push S1's dew above S4's: gap went {gap_before:.3} -> {gap_peak:.3}"
        );
    }

    #[test]
    fn meters_accumulate_and_reset() {
        let mut plant = lab();
        let commands = ActuatorCommands {
            radiant: [RadiantLoopCommand {
                supply_voltage: Volts::new(5.0),
                recycle_voltage: Volts::new(0.0),
            }; 2],
            airboxes: Default::default(),
        };
        for _ in 0..600 {
            plant.step(second(), &commands);
        }
        assert!(plant.meters().radiant_removed.get() > 0.0);
        assert!(plant.meters().radiant_chiller.get() > 0.0);
        assert!((plant.meters().elapsed.get() - 600.0).abs() < 1e-9);
        plant.reset_meters();
        assert_eq!(plant.meters().radiant_removed.get(), 0.0);
        assert_eq!(plant.meters().elapsed.get(), 0.0);
    }

    #[test]
    fn plant_is_deterministic_for_same_seed() {
        let mut a = ThermalPlant::new(PlantConfig::bubble_zero_lab().with_seed(99));
        let mut b = ThermalPlant::new(PlantConfig::bubble_zero_lab().with_seed(99));
        let commands = ActuatorCommands {
            radiant: [RadiantLoopCommand {
                supply_voltage: Volts::new(3.0),
                recycle_voltage: Volts::new(1.0),
            }; 2],
            airboxes: [AirboxActuation {
                coil_pump_voltage: Volts::new(2.0),
                fan: FanLevel::L2,
                flap_open: true,
            }; 4],
        };
        for _ in 0..300 {
            a.step(second(), &commands);
            b.step(second(), &commands);
        }
        for id in SubspaceId::ALL {
            assert_eq!(a.zone_state(id), b.zone_state(id));
        }
        assert_eq!(a.read_room(SubspaceId::S1), b.read_room(SubspaceId::S1));
    }

    #[test]
    fn occupants_load_their_subspace() {
        use crate::occupancy::{OccupancyChange, OccupancySchedule};
        let occupancy = OccupancySchedule::new(vec![OccupancyChange {
            at: SimTime::ZERO,
            subspace: SubspaceId::S4,
            count: 3,
        }]);
        let config = PlantConfig::bubble_zero_lab().with_occupancy(occupancy);
        let mut plant = ThermalPlant::new(config);
        for _ in 0..1_200 {
            plant.step(second(), &ActuatorCommands::all_off());
        }
        let occupied = plant.zone_state(SubspaceId::S4);
        let empty = plant.zone_state(SubspaceId::S2);
        assert!(
            occupied.co2.get() > empty.co2.get() + 100.0,
            "occupied CO₂ {} vs empty {}",
            occupied.co2,
            empty.co2
        );
        assert!(occupied.temperature.get() > empty.temperature.get());
        assert!(occupied.humidity_ratio.get() > empty.humidity_ratio.get());
    }

    #[test]
    fn faulty_actuators_are_applied_at_the_plant_boundary() {
        use crate::faults::{ActuatorFault, FaultEvent, FaultSchedule};
        let faults = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::ZERO,
            repaired_at: None,
            fault: ActuatorFault::FanStuck {
                airbox: 0,
                level: FanLevel::L4,
            },
        }]);
        let config = PlantConfig::bubble_zero_lab().with_faults(faults);
        let mut plant = ThermalPlant::new(config);
        // Commands say "everything off", but the stuck fan runs anyway.
        for _ in 0..60 {
            plant.step(second(), &ActuatorCommands::all_off());
        }
        assert!(
            plant.last_zone_inputs[0].ventilation_m3s > 0.0,
            "the stuck fan must move air regardless of commands"
        );
        assert!(plant.telemetry().fan_power_w > 0.0);
        // The healthy airboxes obey the off command.
        assert_eq!(plant.last_zone_inputs[1].ventilation_m3s, 0.0);
    }

    #[test]
    #[should_panic(expected = "must advance time")]
    fn zero_step_panics() {
        let mut plant = lab();
        plant.step(SimDuration::ZERO, &ActuatorCommands::all_off());
    }
}
