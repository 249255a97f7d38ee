//! Full-stack chaos scenarios and resilience measurement.
//!
//! The paper's §V deployment lessons are a catalogue of things that broke
//! in the field: sensing elements froze or drifted, motes died or ran
//! their batteries flat, pumps seized. This module composes the three
//! fault-injection layers built for those lessons — sensing elements
//! ([`bz_thermal::sensors`]), the 802.15.4 network ([`bz_wsn::faults`])
//! and the actuators ([`bz_thermal::faults`]) — into one deterministic,
//! seed-reproducible [`ChaosScenario`], loadable from a small JSON file,
//! and measures how gracefully the control system degrades:
//!
//! - **time-to-detect** — seconds from fault onset to the sensor-health
//!   supervisor's first detection;
//! - **time-to-recover** — seconds from the last scheduled repair until
//!   every subspace is back inside the comfort band with nothing flagged,
//!   held through the end of the run;
//! - **comfort-violation minutes** per subspace while the fault stands;
//! - **subspaces affected** — the quantitative form of the paper's
//!   decomposition claim: a fault should cost one subspace, not the room.
//!
//! Everything is driven by [`bz_simcore::Rng`] streams seeded from the
//! scenario, so the same scenario file and seed produce byte-identical
//! metric exports.

use std::fmt;

use bz_simcore::{SimDuration, SimTime};
use bz_thermal::airbox::FanLevel;
use bz_thermal::disturbance::{DisturbanceSchedule, OpeningEvent, OpeningKind};
use bz_thermal::faults::{ActuatorFault, FaultEvent, FaultSchedule};
use bz_thermal::plant::PlantConfig;
use bz_thermal::sensors::{SensorFault, SensorFaultEvent, SensorFaultSchedule, SensorTarget};
use bz_thermal::zone::SubspaceId;
use bz_wsn::faults::{WsnFault, WsnFaultEvent, WsnFaultSchedule};
use bz_wsn::message::NodeId;

use crate::json::{Json, JsonError, MAX_WHOLE};
use crate::session::Session;
use crate::system::{BubbleZeroSystem, SystemConfig};
use crate::targets::ComfortTargets;

/// Comfort-band half-width used for violation accounting, K.
pub const COMFORT_TOLERANCE_K: f64 = 1.0;

/// Violation minutes below this round to "unaffected" (one noisy sample
/// at the band edge is not a degraded subspace).
pub const AFFECTED_THRESHOLD_MIN: f64 = 0.05;

/// A composed, deterministic full-stack fault scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario name (reported and exported).
    pub name: String,
    /// Master seed: drives the system RNG and (xored) the plant RNG.
    pub seed: u64,
    /// Total run length.
    pub duration: SimDuration,
    /// Sensing-element faults, applied inside the plant's instruments.
    pub sensors: SensorFaultSchedule,
    /// Actuator faults, applied at the plant's command boundary.
    pub actuators: FaultSchedule,
    /// Network faults, applied inside the 802.15.4 channel.
    pub wsn: WsnFaultSchedule,
    /// Scripted door/window openings that load the room while the faults
    /// stand (a seized recycle pump is only observable under latent load).
    pub disturbances: DisturbanceSchedule,
}

impl ChaosScenario {
    /// The bundled acceptance scenario: one ceiling sensor stuck, one
    /// room mote dead, and panel 0's recycle pump seized — all on the
    /// door side of the room (panel 0 serves subspaces 1–2), timed just
    /// after a long door opening so the anti-condensation blend is under
    /// real demand when the pump fails. Subspaces 3–4 must ride through
    /// untouched.
    #[must_use]
    pub fn bundled_basic() -> Self {
        let onset = SimTime::from_secs(2_760);
        let repaired = Some(SimTime::from_secs(4_500));
        Self {
            name: "bundled-basic".to_owned(),
            seed: 49_317,
            duration: SimDuration::from_mins(110),
            sensors: SensorFaultSchedule::new(vec![SensorFaultEvent {
                at: onset,
                repaired_at: repaired,
                target: SensorTarget::Ceiling(2),
                fault: SensorFault::StuckAt,
            }]),
            actuators: FaultSchedule::new(vec![FaultEvent {
                at: onset,
                repaired_at: repaired,
                fault: ActuatorFault::RecyclePumpDead { panel: 0 },
            }]),
            wsn: WsnFaultSchedule::new(vec![WsnFaultEvent {
                at: onset,
                repaired_at: repaired,
                fault: WsnFault::NodeDead {
                    node: NodeId::new(21),
                },
            }]),
            disturbances: DisturbanceSchedule::new(vec![
                OpeningEvent {
                    at: SimTime::from_secs(2_700),
                    duration: SimDuration::from_secs(240),
                    kind: OpeningKind::Door,
                },
                OpeningEvent {
                    at: SimTime::from_secs(3_780),
                    duration: SimDuration::from_secs(120),
                    kind: OpeningKind::Door,
                },
            ]),
        }
    }

    /// Parses a scenario from its JSON text (see `scenarios/*.json` and
    /// `docs/RESILIENCE.md` for the format).
    ///
    /// # Errors
    ///
    /// Returns a [`ChaosError`] naming the offending field for malformed
    /// JSON, unknown layers/kinds/targets, out-of-range indices or seeds,
    /// a negative noise σ, or times and durations past 10⁹ s.
    pub fn from_json(text: &str) -> Result<Self, ChaosError> {
        let root = Json::parse(text)?;
        let name = match root.field("name") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| ChaosError::new("'name' must be a string"))?
                .to_owned(),
            None => "unnamed".to_owned(),
        };
        let seed = match root.field("seed") {
            Some(v) => v.whole("seed", MAX_WHOLE)?,
            None => 0xC0A5,
        };
        let duration_mins = match root.field("duration_mins") {
            Some(v) => v.whole("duration_mins", 10_000)?,
            None => 110,
        };
        if duration_mins == 0 {
            return Err(ChaosError::new("'duration_mins' must be positive"));
        }

        let mut sensors = Vec::new();
        let mut actuators = Vec::new();
        let mut wsn = Vec::new();
        if let Some(faults) = root.field("faults") {
            let list = faults
                .as_arr()
                .ok_or_else(|| ChaosError::new("'faults' must be an array"))?;
            for (i, entry) in list.iter().enumerate() {
                match parse_fault(entry)
                    .map_err(|e| ChaosError::new(format!("faults[{i}]: {e}")))?
                {
                    ParsedFault::Sensor(event) => sensors.push(event),
                    ParsedFault::Actuator(event) => actuators.push(event),
                    ParsedFault::Wsn(event) => wsn.push(event),
                }
            }
        }

        let mut openings = Vec::new();
        if let Some(disturbances) = root.field("disturbances") {
            let list = disturbances
                .as_arr()
                .ok_or_else(|| ChaosError::new("'disturbances' must be an array"))?;
            for (i, entry) in list.iter().enumerate() {
                openings.push(
                    parse_opening(entry)
                        .map_err(|e| ChaosError::new(format!("disturbances[{i}]: {e}")))?,
                );
            }
        }

        Ok(Self {
            name,
            seed,
            duration: SimDuration::from_mins(duration_mins),
            sensors: SensorFaultSchedule::new(sensors),
            actuators: FaultSchedule::new(actuators),
            wsn: WsnFaultSchedule::new(wsn),
            disturbances: DisturbanceSchedule::new(openings),
        })
    }

    /// The closed-loop system configuration this scenario runs against:
    /// the calibrated laboratory with every fault layer installed.
    #[must_use]
    pub fn system_config(&self) -> SystemConfig {
        let plant = PlantConfig::bubble_zero_lab()
            .with_disturbances(self.disturbances.clone())
            .with_faults(self.actuators.clone())
            .with_sensor_faults(self.sensors.clone());
        SystemConfig {
            wsn_faults: self.wsn.clone(),
            ..SystemConfig::paper_deployment(plant)
        }
        .with_run_seed(self.seed)
    }

    /// Every fault window across the three layers as
    /// `(at, repaired_at, kind_name)`.
    fn windows(&self) -> Vec<(SimTime, Option<SimTime>, &'static str)> {
        let mut windows = Vec::new();
        for e in self.sensors.events() {
            windows.push((e.at, e.repaired_at, e.fault.kind_name()));
        }
        for e in self.actuators.events() {
            windows.push((e.at, e.repaired_at, e.fault.kind_name()));
        }
        for e in self.wsn.events() {
            windows.push((e.at, e.repaired_at, e.fault.kind_name()));
        }
        windows
    }

    /// Earliest fault onset, if any faults are scheduled.
    #[must_use]
    pub fn onset(&self) -> Option<SimTime> {
        self.windows().iter().map(|w| w.0).min()
    }

    /// Instant of the last repair. `None` when no faults are scheduled
    /// or any fault is permanent (recovery is then undefined).
    #[must_use]
    pub fn repair_horizon(&self) -> Option<SimTime> {
        let windows = self.windows();
        if windows.is_empty() {
            return None;
        }
        windows
            .iter()
            .map(|w| w.1)
            .collect::<Option<Vec<SimTime>>>()
            .and_then(|repairs| repairs.into_iter().max())
    }

    /// Runs the scenario against the global telemetry handle.
    #[must_use]
    pub fn run(&self) -> ResilienceReport {
        self.run_with_obs(bz_obs::Handle::global())
    }

    /// Runs the scenario against an explicit telemetry handle (tests use
    /// [`bz_obs::Handle::isolated`] for reproducible exports).
    #[must_use]
    pub fn run_with_obs(&self, obs: bz_obs::Handle) -> ResilienceReport {
        let mut run = self.begin_with_obs(obs);
        run.step_minutes(u64::MAX);
        run.finish()
    }

    /// Starts the scenario as a resumable [`Session`]: step it a minute at
    /// a time, checkpoint it with [`Session::save_state`], and restore it
    /// in a fresh process with [`Session::load_state`]. The whole-run
    /// [`ChaosScenario::run_with_obs`] is a thin loop over this.
    #[must_use]
    pub fn begin_with_obs(&self, obs: bz_obs::Handle) -> ChaosRun {
        let system = BubbleZeroSystem::with_obs(self.system_config(), obs.clone());
        let kinds = {
            let mut kinds: Vec<&'static str> = self.windows().iter().map(|w| w.2).collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds
        };
        ChaosRun {
            name: self.name.clone(),
            onset: self.onset(),
            repair: self.repair_horizon(),
            kinds,
            windows: self.windows(),
            targets: ComfortTargets::paper_trial(),
            total_s: self.duration.as_millis() / 1_000,
            obs,
            system,
            violation_secs: [0; 4],
            recovered_since: None,
            second: 0,
        }
    }
}

/// An in-flight chaos run: the system under fault injection plus the
/// resilience accumulators (violation seconds, the recovery hold timer).
/// Both are covered by [`Session::save_state`], so a restored run's
/// final [`ResilienceReport`] and metric export are byte-identical to an
/// uninterrupted run's.
pub struct ChaosRun {
    name: String,
    onset: Option<SimTime>,
    repair: Option<SimTime>,
    kinds: Vec<&'static str>,
    windows: Vec<(SimTime, Option<SimTime>, &'static str)>,
    targets: ComfortTargets,
    total_s: u64,
    obs: bz_obs::Handle,
    system: BubbleZeroSystem,
    violation_secs: [u64; 4],
    recovered_since: Option<f64>,
    second: u64,
}

impl Session for ChaosRun {
    fn now_ms(&self) -> u64 {
        self.second * 1_000
    }

    fn is_done(&self) -> bool {
        self.second >= self.total_s
    }

    fn step_minute(&mut self) {
        let batch_end = (self.second + 60).min(self.total_s);
        while self.second < batch_end {
            self.second += 1;
            self.system.step_second();
            let now = self.system.now();
            let in_fault_window = self.onset.is_some_and(|o| now >= o);
            let mut all_in_band = true;
            {
                let plant = self.system.plant();
                for (i, id) in SubspaceId::ALL.iter().enumerate() {
                    let deviation =
                        (plant.zone_temperature(*id).get() - self.targets.temperature.get()).abs();
                    if deviation > COMFORT_TOLERANCE_K {
                        all_in_band = false;
                        if in_fault_window {
                            self.violation_secs[i] += 1;
                        }
                    }
                }
            }
            if let Some(repair_at) = self.repair {
                if now >= repair_at {
                    if all_in_band && !self.system.supervisor().anything_flagged() {
                        self.recovered_since.get_or_insert(now.as_secs_f64());
                    } else {
                        self.recovered_since = None;
                    }
                }
            }
            if self.second.is_multiple_of(60) && self.obs.is_enabled() {
                for kind in &self.kinds {
                    let active = self.windows.iter().any(|(at, repaired_at, k)| {
                        k == kind && now >= *at && repaired_at.is_none_or(|r| now < r)
                    });
                    self.obs.gauge_set(
                        format!("fault.{kind}.active"),
                        now.as_millis(),
                        f64::from(u8::from(active)),
                    );
                }
                self.obs.record_counters(now.as_millis());
            }
        }
    }

    /// The full system plus the resilience accumulators.
    fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.system.save_state(w);
        self.violation_secs.save(w);
        self.recovered_since.save(w);
        w.put_u64(self.second);
    }

    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.system.load_state(r)?;
        self.violation_secs = Persist::load(r)?;
        self.recovered_since = Persist::load(r)?;
        let second = r.take_u64()?;
        if second > self.total_s {
            return Err(bz_state::StateError::Invalid {
                what: "ChaosRun",
                reason: format!(
                    "checkpoint is {second}s into a run of only {}s",
                    self.total_s
                ),
            });
        }
        let system_ms = self.system.now().as_millis();
        if second * 1_000 != system_ms {
            return Err(bz_state::StateError::Invalid {
                what: "ChaosRun",
                reason: format!("session clock {second}s, system clock {system_ms}ms"),
            });
        }
        self.second = second;
        Ok(())
    }
}

impl ChaosRun {
    /// Computes the resilience report and exports the `chaos.*` gauges.
    #[must_use]
    pub fn finish(&self) -> ResilienceReport {
        let onset_s = self.onset.map(|t| t.as_secs_f64());
        let last_repair_s = self.repair.map(|t| t.as_secs_f64());
        let time_to_detect_s = onset_s.and_then(|o| {
            self.system
                .supervisor()
                .detections()
                .iter()
                .find(|d| d.fault && d.at_s >= o - 1e-9)
                .map(|d| d.at_s - o)
        });
        let time_to_recover_s =
            last_repair_s.and_then(|r| self.recovered_since.map(|since| since - r));
        let violation_minutes = self.violation_secs.map(|s| s as f64 / 60.0);
        let subspaces_affected = violation_minutes
            .iter()
            .filter(|&&m| m > AFFECTED_THRESHOLD_MIN)
            .count();
        let (detections, recoveries) = {
            let log = self.system.supervisor().detections();
            (
                log.iter().filter(|d| d.fault).count(),
                log.iter().filter(|d| !d.fault).count(),
            )
        };
        let report = ResilienceReport {
            scenario: self.name.clone(),
            onset_s,
            last_repair_s,
            time_to_detect_s,
            time_to_recover_s,
            violation_minutes,
            subspaces_affected,
            condensate_kg: self.system.plant().panel_condensate_total(),
            detections,
            recoveries,
        };
        report.export(&self.obs, self.total_s * 1_000);
        report
    }
}

/// The quantitative outcome of one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Name of the scenario that produced this report.
    pub scenario: String,
    /// Earliest fault onset, s (`None`: fault-free run).
    pub onset_s: Option<f64>,
    /// Last scheduled repair, s (`None`: no faults or a permanent one).
    pub last_repair_s: Option<f64>,
    /// Onset → first supervisor detection, s (`None`: never detected).
    pub time_to_detect_s: Option<f64>,
    /// Last repair → sustained recovery, s (`None`: never recovered
    /// within the run, or recovery undefined).
    pub time_to_recover_s: Option<f64>,
    /// Minutes each subspace spent more than [`COMFORT_TOLERANCE_K`]
    /// from the preferred temperature while the fault stood.
    pub violation_minutes: [f64; 4],
    /// Subspaces with violation minutes above
    /// [`AFFECTED_THRESHOLD_MIN`].
    pub subspaces_affected: usize,
    /// Total condensate formed on the panels, kg (the safe mode's job is
    /// to keep this at zero even under fault).
    pub condensate_kg: f64,
    /// Supervisor fault detections over the run.
    pub detections: usize,
    /// Supervisor recoveries over the run.
    pub recoveries: usize,
}

impl ResilienceReport {
    /// Records the report through the telemetry layer (`chaos.*` gauges
    /// at the end-of-run timestamp). Unknowable values (no fault, never
    /// detected, never recovered) are simply not exported, keeping the
    /// JSONL valid.
    fn export(&self, obs: &bz_obs::Handle, end_ms: u64) {
        if !obs.is_enabled() {
            return;
        }
        if let Some(ttd) = self.time_to_detect_s {
            obs.gauge_set("chaos.time_to_detect_s", end_ms, ttd);
        }
        if let Some(ttr) = self.time_to_recover_s {
            obs.gauge_set("chaos.time_to_recover_s", end_ms, ttr);
        }
        for (i, minutes) in self.violation_minutes.iter().enumerate() {
            obs.gauge_set(
                format!("chaos.violation_minutes.subsp{}", i + 1),
                end_ms,
                *minutes,
            );
        }
        obs.gauge_set(
            "chaos.subspaces_affected",
            end_ms,
            self.subspaces_affected as f64,
        );
        obs.gauge_set("chaos.condensate_kg", end_ms, self.condensate_kg);
        obs.record_counters(end_ms);
    }

    /// One machine-parsable line (the CI smoke job greps it).
    #[must_use]
    pub fn summary_line(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "inf".to_owned(), |v| format!("{v:.1}"))
        }
        format!(
            "chaos-result: scenario={} ttd_s={} ttr_s={} affected={} \
             violation_mins={:.2},{:.2},{:.2},{:.2} condensate_kg={:.6}",
            self.scenario,
            opt(self.time_to_detect_s),
            opt(self.time_to_recover_s),
            self.subspaces_affected,
            self.violation_minutes[0],
            self.violation_minutes[1],
            self.violation_minutes[2],
            self.violation_minutes[3],
            self.condensate_kg,
        )
    }

    /// Human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        fn opt(v: Option<f64>, unit: &str) -> String {
            v.map_or_else(|| "—".to_owned(), |v| format!("{v:.1} {unit}"))
        }
        let mut out = format!("chaos scenario '{}':\n", self.scenario);
        out += &format!(
            "  fault onset {}  last repair {}\n",
            opt(self.onset_s, "s"),
            opt(self.last_repair_s, "s"),
        );
        out += &format!(
            "  time-to-detect {}  time-to-recover {}  ({} detections, {} recoveries)\n",
            opt(self.time_to_detect_s, "s"),
            opt(self.time_to_recover_s, "s"),
            self.detections,
            self.recoveries,
        );
        out += "  comfort violation minutes:";
        for (i, minutes) in self.violation_minutes.iter().enumerate() {
            out += &format!("  Subsp{} {minutes:.1}", i + 1);
        }
        out += &format!(
            "  ({} of 4 subspaces affected)\n  condensate {:.6} kg\n",
            self.subspaces_affected, self.condensate_kg,
        );
        out
    }
}

/// A scenario-file parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError(String);

impl ChaosError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl From<JsonError> for ChaosError {
    fn from(e: JsonError) -> Self {
        Self(e.to_string())
    }
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ChaosError {}

/// One parsed `faults[]` entry, routed to its layer.
enum ParsedFault {
    Sensor(SensorFaultEvent),
    Actuator(FaultEvent),
    Wsn(WsnFaultEvent),
}

fn parse_fault(entry: &Json) -> Result<ParsedFault, ChaosError> {
    let layer = str_field(entry, "layer")?;
    let kind = str_field(entry, "kind")?;
    let at = time_field(entry, "at_s")?.ok_or_else(|| ChaosError::new("missing field 'at_s'"))?;
    let repaired_at = time_field(entry, "repaired_at_s")?;
    if repaired_at.is_some_and(|r| r < at) {
        return Err(ChaosError::new("'repaired_at_s' precedes 'at_s'"));
    }
    match layer {
        "sensor" => {
            let target = sensor_target(entry)?;
            let fault = match kind {
                "stuck_at" => SensorFault::StuckAt,
                "drift_ramp" => SensorFault::DriftRamp {
                    per_hour: num_field(entry, "per_hour")?,
                },
                "dropout" => SensorFault::Dropout,
                "noise_burst" => {
                    let sd = num_field(entry, "sd")?;
                    if sd < 0.0 {
                        return Err(ChaosError::new("'sd' must be ≥ 0"));
                    }
                    SensorFault::NoiseBurst { sd }
                }
                "calibration_jump" => SensorFault::CalibrationJump {
                    offset: num_field(entry, "offset")?,
                },
                other => return Err(ChaosError::new(format!("unknown sensor kind '{other}'"))),
            };
            Ok(ParsedFault::Sensor(SensorFaultEvent {
                at,
                repaired_at,
                target,
                fault,
            }))
        }
        "wsn" => {
            let node = NodeId::new(index_field(entry, "node", 0xFFFF)? as u16);
            let fault = match kind {
                "node_dead" => WsnFault::NodeDead { node },
                "battery_exhausted" => WsnFault::BatteryExhausted { node },
                "link_loss" => {
                    let loss = num_field(entry, "loss")?;
                    if !(0.0..=1.0).contains(&loss) {
                        return Err(ChaosError::new("'loss' must be in [0, 1]"));
                    }
                    WsnFault::LinkLoss { node, loss }
                }
                other => return Err(ChaosError::new(format!("unknown wsn kind '{other}'"))),
            };
            Ok(ParsedFault::Wsn(WsnFaultEvent {
                at,
                repaired_at,
                fault,
            }))
        }
        "actuator" => {
            let fault = match kind {
                "fan_stuck" => ActuatorFault::FanStuck {
                    airbox: index_field(entry, "airbox", 3)?,
                    level: fan_level(index_field(entry, "level", 4)?)?,
                },
                "coil_pump_dead" => ActuatorFault::CoilPumpDead {
                    airbox: index_field(entry, "airbox", 3)?,
                },
                "supply_pump_dead" => ActuatorFault::SupplyPumpDead {
                    panel: index_field(entry, "panel", 1)?,
                },
                "recycle_pump_dead" => ActuatorFault::RecyclePumpDead {
                    panel: index_field(entry, "panel", 1)?,
                },
                "flap_jammed_closed" => ActuatorFault::FlapJammedClosed {
                    airbox: index_field(entry, "airbox", 3)?,
                },
                other => return Err(ChaosError::new(format!("unknown actuator kind '{other}'"))),
            };
            Ok(ParsedFault::Actuator(FaultEvent {
                at,
                repaired_at,
                fault,
            }))
        }
        other => Err(ChaosError::new(format!("unknown layer '{other}'"))),
    }
}

fn parse_opening(entry: &Json) -> Result<OpeningEvent, ChaosError> {
    let kind = match str_field(entry, "kind")? {
        "door" => OpeningKind::Door,
        "window" => OpeningKind::Window,
        other => return Err(ChaosError::new(format!("unknown opening kind '{other}'"))),
    };
    let at = time_field(entry, "at_s")?.ok_or_else(|| ChaosError::new("missing field 'at_s'"))?;
    let duration_s = num_field(entry, "duration_s")?;
    if !(duration_s > 0.0 && duration_s <= MAX_SCENARIO_S) {
        return Err(ChaosError::new(format!(
            "'duration_s' must be in (0, {MAX_SCENARIO_S:e}] seconds"
        )));
    }
    Ok(OpeningEvent {
        at,
        duration: SimDuration::from_secs_f64(duration_s),
        kind,
    })
}

fn sensor_target(entry: &Json) -> Result<SensorTarget, ChaosError> {
    let target = str_field(entry, "target")?;
    match target {
        "ceiling" => Ok(SensorTarget::Ceiling(index_field(entry, "index", 11)?)),
        "room" => Ok(SensorTarget::Room(index_field(entry, "index", 3)?)),
        "co2" => Ok(SensorTarget::Co2(index_field(entry, "index", 3)?)),
        "outlet" => Ok(SensorTarget::Outlet(index_field(entry, "index", 3)?)),
        other => Err(ChaosError::new(format!("unknown sensor target '{other}'"))),
    }
}

fn fan_level(level: usize) -> Result<FanLevel, ChaosError> {
    Ok(match level {
        0 => FanLevel::Off,
        1 => FanLevel::L1,
        2 => FanLevel::L2,
        3 => FanLevel::L3,
        4 => FanLevel::L4,
        other => return Err(ChaosError::new(format!("fan level {other} out of range"))),
    })
}

fn str_field<'a>(entry: &'a Json, name: &str) -> Result<&'a str, ChaosError> {
    entry
        .field(name)
        .ok_or_else(|| ChaosError::new(format!("missing field '{name}'")))?
        .as_str()
        .ok_or_else(|| ChaosError::new(format!("'{name}' must be a string")))
}

fn num_field(entry: &Json, name: &str) -> Result<f64, ChaosError> {
    entry
        .field(name)
        .ok_or_else(|| ChaosError::new(format!("missing field '{name}'")))?
        .as_f64()
        .ok_or_else(|| ChaosError::new(format!("'{name}' must be a number")))
}

/// A whole-number field no larger than `max`.
fn index_field(entry: &Json, name: &str, max: usize) -> Result<usize, ChaosError> {
    let value = entry
        .field(name)
        .ok_or_else(|| ChaosError::new(format!("missing field '{name}'")))?;
    Ok(value.whole(name, max as u64)? as usize)
}

/// Latest time and longest duration a scenario may give, s (about 32
/// years). Onset plus duration then stays far inside the `u64`
/// millisecond clock, where a larger value would saturate or overflow.
const MAX_SCENARIO_S: f64 = 1e9;

/// An optional time-in-seconds field; JSON `null` reads as absent.
fn time_field(entry: &Json, name: &str) -> Result<Option<SimTime>, ChaosError> {
    match entry.field(name) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => {
            let s = value
                .as_f64()
                .ok_or_else(|| ChaosError::new(format!("'{name}' must be a number")))?;
            if !(0.0..=MAX_SCENARIO_S).contains(&s) {
                return Err(ChaosError::new(format!(
                    "'{name}' must be in [0, {MAX_SCENARIO_S:e}] seconds"
                )));
            }
            Ok(Some(SimTime::ZERO + SimDuration::from_secs_f64(s)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_parses_every_layer_and_kind() {
        let text = r#"{
            "name": "kitchen-sink", "seed": 7, "duration_mins": 20,
            "disturbances": [
                {"kind": "door", "at_s": 60, "duration_s": 15},
                {"kind": "window", "at_s": 120, "duration_s": 30}
            ],
            "faults": [
                {"layer": "sensor", "kind": "stuck_at", "target": "ceiling",
                 "index": 3, "at_s": 100, "repaired_at_s": 200},
                {"layer": "sensor", "kind": "drift_ramp", "target": "room",
                 "index": 1, "per_hour": 0.5, "at_s": 100},
                {"layer": "sensor", "kind": "dropout", "target": "co2",
                 "index": 2, "at_s": 100, "repaired_at_s": null},
                {"layer": "sensor", "kind": "noise_burst", "target": "outlet",
                 "index": 0, "sd": 1.5, "at_s": 100},
                {"layer": "sensor", "kind": "calibration_jump",
                 "target": "room", "index": 0, "offset": -2.0, "at_s": 100},
                {"layer": "wsn", "kind": "node_dead", "node": 21, "at_s": 50},
                {"layer": "wsn", "kind": "battery_exhausted", "node": 7,
                 "at_s": 50, "repaired_at_s": 90},
                {"layer": "wsn", "kind": "link_loss", "node": 3,
                 "loss": 0.4, "at_s": 50},
                {"layer": "actuator", "kind": "fan_stuck", "airbox": 1,
                 "level": 4, "at_s": 10},
                {"layer": "actuator", "kind": "coil_pump_dead", "airbox": 0,
                 "at_s": 10},
                {"layer": "actuator", "kind": "supply_pump_dead", "panel": 1,
                 "at_s": 10},
                {"layer": "actuator", "kind": "recycle_pump_dead", "panel": 0,
                 "at_s": 10},
                {"layer": "actuator", "kind": "flap_jammed_closed",
                 "airbox": 3, "at_s": 10}
            ]
        }"#;
        let scenario = ChaosScenario::from_json(text).unwrap();
        assert_eq!(scenario.name, "kitchen-sink");
        assert_eq!(scenario.seed, 7);
        assert_eq!(scenario.duration, SimDuration::from_mins(20));
        assert_eq!(scenario.sensors.events().len(), 5);
        assert_eq!(scenario.wsn.events().len(), 3);
        assert_eq!(scenario.actuators.events().len(), 5);
        assert_eq!(scenario.disturbances.events().len(), 2);
        assert_eq!(scenario.onset(), Some(SimTime::from_secs(10)));
        // A permanent fault means recovery is undefined.
        assert_eq!(scenario.repair_horizon(), None);
        assert_eq!(
            scenario.sensors.events()[0].target,
            SensorTarget::Ceiling(3)
        );
        assert_eq!(
            scenario.actuators.events()[0].fault,
            ActuatorFault::FanStuck {
                airbox: 1,
                level: FanLevel::L4,
            }
        );
    }

    #[test]
    fn scenario_rejects_unknown_and_out_of_range_inputs() {
        let cases = [
            r#"{"faults": [{"layer": "plumbing", "kind": "x", "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "sensor", "kind": "melted",
                "target": "room", "index": 0, "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "sensor", "kind": "stuck_at",
                "target": "ceiling", "index": 12, "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "sensor", "kind": "stuck_at",
                "target": "room", "index": 0}]}"#,
            r#"{"faults": [{"layer": "wsn", "kind": "link_loss",
                "node": 3, "loss": 1.5, "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "actuator", "kind": "fan_stuck",
                "airbox": 0, "level": 9, "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "actuator", "kind": "supply_pump_dead",
                "panel": 2, "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "sensor", "kind": "stuck_at",
                "target": "room", "index": 0, "at_s": 100,
                "repaired_at_s": 50}]}"#,
            r#"{"duration_mins": 0}"#,
            r#"{"disturbances": [{"kind": "hatch", "at_s": 1,
                "duration_s": 5}]}"#,
            r#"{"seed": 9007199254740993}"#,
            r#"{"seed": 18446744073709551616}"#,
            r#"{"seed": 1e400}"#,
            r#"{"faults": [{"layer": "sensor", "kind": "noise_burst",
                "target": "room", "index": 0, "sd": -5, "at_s": 1}]}"#,
            r#"{"faults": [{"layer": "wsn", "kind": "node_dead", "node": 3,
                "at_s": 1e300}]}"#,
            r#"{"faults": [{"layer": "wsn", "kind": "node_dead", "node": 3,
                "at_s": 1, "repaired_at_s": 1000000001}]}"#,
            r#"{"disturbances": [{"kind": "door", "at_s": 1e300,
                "duration_s": 5}]}"#,
            r#"{"disturbances": [{"kind": "door", "at_s": 1,
                "duration_s": 1e300}]}"#,
        ];
        for text in cases {
            assert!(ChaosScenario::from_json(text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn bundled_scenario_file_matches_the_builder() {
        let parsed =
            ChaosScenario::from_json(include_str!("../../../scenarios/chaos_basic.json")).unwrap();
        let built = ChaosScenario::bundled_basic();
        assert_eq!(parsed.name, built.name);
        assert_eq!(parsed.seed, built.seed);
        assert_eq!(parsed.duration, built.duration);
        assert_eq!(parsed.sensors.events(), built.sensors.events());
        assert_eq!(parsed.actuators.events(), built.actuators.events());
        assert_eq!(parsed.wsn.events(), built.wsn.events());
        assert_eq!(parsed.disturbances.events(), built.disturbances.events());
    }

    #[test]
    fn onset_and_repair_horizon_track_all_layers() {
        let scenario = ChaosScenario::bundled_basic();
        assert_eq!(scenario.onset(), Some(SimTime::from_secs(2_760)));
        assert_eq!(scenario.repair_horizon(), Some(SimTime::from_secs(4_500)));
        let empty = ChaosScenario {
            name: "empty".to_owned(),
            seed: 1,
            duration: SimDuration::from_mins(1),
            sensors: SensorFaultSchedule::none(),
            actuators: FaultSchedule::none(),
            wsn: WsnFaultSchedule::none(),
            disturbances: DisturbanceSchedule::none(),
        };
        assert_eq!(empty.onset(), None);
        assert_eq!(empty.repair_horizon(), None);
    }

    /// A chaos run checkpointed mid-fault and restored into a fresh
    /// session must finish with a bit-identical report and metric
    /// export — the accumulators (violation seconds, recovery hold)
    /// ride along with the system state.
    #[test]
    fn chaos_run_round_trips_across_a_checkpoint() {
        let mut scenario = ChaosScenario::bundled_basic();
        scenario.duration = SimDuration::from_mins(60);

        let obs_a = bz_obs::Handle::isolated();
        obs_a.enable();
        let mut original = scenario.begin_with_obs(obs_a.clone());
        // Checkpoint 50 minutes in: past onset, mid-fault, accumulators
        // non-trivial.
        for _ in 0..50 {
            original.step_minute();
        }
        let mut w = bz_state::Writer::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();

        let obs_b = bz_obs::Handle::isolated();
        obs_b.enable();
        let mut restored = scenario.begin_with_obs(obs_b.clone());
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .expect("load");
        while !original.is_done() {
            original.step_minute();
            restored.step_minute();
        }
        assert_eq!(original.finish(), restored.finish());
        let (mut ja, mut jb) = (Vec::new(), Vec::new());
        obs_a.write_jsonl(&mut ja).unwrap();
        obs_b.write_jsonl(&mut jb).unwrap();
        assert_eq!(ja, jb, "metric exports must match");
    }

    #[test]
    fn chaos_checkpoint_past_duration_is_rejected() {
        let mut scenario = ChaosScenario::bundled_basic();
        scenario.duration = SimDuration::from_mins(10);
        let mut run = scenario.begin_with_obs(bz_obs::Handle::isolated());
        for _ in 0..10 {
            run.step_minute();
        }
        let mut w = bz_state::Writer::new();
        run.save_state(&mut w);
        let bytes = w.into_bytes();

        scenario.duration = SimDuration::from_mins(5);
        let mut short = scenario.begin_with_obs(bz_obs::Handle::isolated());
        let err = short
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap_err();
        assert!(err.to_string().contains("into a run of only"), "{err}");
    }

    #[test]
    fn chaos_checkpoint_whose_clocks_disagree_is_rejected() {
        let mut scenario = ChaosScenario::bundled_basic();
        scenario.duration = SimDuration::from_mins(10);
        let mut run = scenario.begin_with_obs(bz_obs::Handle::isolated());
        run.step_minutes(2);
        let mut w = bz_state::Writer::new();
        run.save_state(&mut w);
        let mut bytes = w.into_bytes();
        // The session's own second is the last field: rewrite 120 to 60.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&60u64.to_le_bytes());

        let mut restored = scenario.begin_with_obs(bz_obs::Handle::isolated());
        let err = restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("session clock 60s, system clock 120000ms"),
            "{err}"
        );
    }

    #[test]
    fn fault_free_run_reports_nothing() {
        let scenario = ChaosScenario {
            name: "calm".to_owned(),
            seed: 11,
            duration: SimDuration::from_mins(5),
            sensors: SensorFaultSchedule::none(),
            actuators: FaultSchedule::none(),
            wsn: WsnFaultSchedule::none(),
            disturbances: DisturbanceSchedule::none(),
        };
        let report = scenario.run_with_obs(bz_obs::Handle::isolated());
        assert_eq!(report.onset_s, None);
        assert_eq!(report.time_to_detect_s, None);
        assert_eq!(report.time_to_recover_s, None);
        assert_eq!(report.violation_minutes, [0.0; 4]);
        assert_eq!(report.subspaces_affected, 0);
        assert!(report
            .summary_line()
            .starts_with("chaos-result: scenario=calm"));
    }
}
