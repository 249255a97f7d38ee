//! Head-to-head evaluation: MPC vs the reactive baseline.
//!
//! [`MpcScenario`] describes a repeating occupancy pattern over the
//! calibrated laboratory; [`compare`] runs it twice — once under the
//! reactive paper controllers, once under [`MpcStrategy`] — with
//! identical seeds and per-run isolated telemetry, and reports total
//! electrical energy, occupied comfort-violation minutes, and panel
//! condensate side by side. The two runs share nothing mutable, so
//! `jobs > 1` runs them on threads with byte-identical exports.

use std::fmt;

use bz_core::chaos::COMFORT_TOLERANCE_K;
use bz_core::json::{Json, MAX_WHOLE};
use bz_core::session::{load_run_second, Session};
use bz_core::system::{BubbleZeroSystem, SystemConfig};
use bz_simcore::SimDuration;
use bz_thermal::occupancy::{OccupancyChange, OccupancySchedule};
use bz_thermal::plant::{PlantConfig, MAX_SCHEDULE_ENTRIES};
use bz_thermal::zone::SubspaceId;

use crate::strategy::{MpcConfig, MpcStrategy};

/// Errors from scenario parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareError(String);

impl CompareError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CompareError {}

/// Most people one window may put in a subspace: 8× the bundled office's
/// 2. With every subspace occupied for a whole 10-hour run, 40 per
/// subspace stepped clean and 50 drove the air's vapor pressure past the
/// total pressure, a panic in `bz_psychro`.
const MAX_OCCUPANTS: u64 = 16;

/// One recurring occupancy window within the scenario period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyWindow {
    /// Which subspace (0–3).
    pub subspace: usize,
    /// Window start within the period, s.
    pub start_s: f64,
    /// Window end within the period, s.
    pub end_s: f64,
    /// Headcount while the window is active.
    pub count: u32,
}

/// A comparison scenario: the calibrated laboratory under a repeating
/// occupancy pattern, no faults.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcScenario {
    /// Scenario name (report label).
    pub name: String,
    /// Seed for plant noise and the sensor network.
    pub seed: u64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Occupancy repeats with this period, s.
    pub period_s: f64,
    /// Occupancy windows within one period.
    pub windows: Vec<OccupancyWindow>,
}

impl MpcScenario {
    /// The bundled office scenario: all four subspaces occupied by two
    /// people for the first half of each 90-minute period, over three
    /// periods. The empty half-periods are where a predictive strategy
    /// can save energy; the occupied halves (and the forecastable
    /// arrivals) are where it must not lose comfort.
    #[must_use]
    pub fn bundled_office() -> Self {
        Self {
            name: "office".to_string(),
            seed: 7,
            duration: SimDuration::from_mins(270),
            period_s: 5_400.0,
            windows: (0..4)
                .map(|subspace| OccupancyWindow {
                    subspace,
                    start_s: 0.0,
                    end_s: 2_700.0,
                    count: 2,
                })
                .collect(),
        }
    }

    /// Parses a scenario document:
    ///
    /// ```json
    /// {
    ///   "name": "office",
    ///   "seed": 7,
    ///   "duration_min": 270,
    ///   "period_s": 5400,
    ///   "windows": [
    ///     {"subspace": 0, "start_s": 0, "end_s": 2700, "count": 2}
    ///   ]
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Malformed JSON, missing fields, out-of-range values (a `count` over
    /// 16 people among them), or a schedule of more than
    /// [`MAX_SCHEDULE_ENTRIES`] periods or occupancy changes.
    pub fn from_json(text: &str) -> Result<Self, CompareError> {
        let root = Json::parse(text).map_err(|e| CompareError::new(e.to_string()))?;
        let str_field = |name: &str| -> Result<String, CompareError> {
            root.field(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| CompareError::new(format!("missing string field '{name}'")))
        };
        let num_field = |node: &Json, name: &str| -> Result<f64, CompareError> {
            node.field(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| CompareError::new(format!("missing number field '{name}'")))
        };
        let whole_field = |node: &Json, name: &str, max: u64| -> Result<u64, CompareError> {
            node.field(name)
                .ok_or_else(|| CompareError::new(format!("missing number field '{name}'")))?
                .whole(name, max)
                .map_err(|e| CompareError::new(e.to_string()))
        };
        let name = str_field("name")?;
        let seed = whole_field(&root, "seed", MAX_WHOLE)?;
        let duration_min = num_field(&root, "duration_min")?;
        if !(duration_min * 60.0).is_finite() || duration_min <= 0.0 {
            return Err(CompareError::new(
                "'duration_min' must be positive and finite",
            ));
        }
        let period_s = num_field(&root, "period_s")?;
        if !period_s.is_finite() || period_s <= 0.0 {
            return Err(CompareError::new("'period_s' must be positive"));
        }
        let windows_node = root
            .field("windows")
            .and_then(Json::as_arr)
            .ok_or_else(|| CompareError::new("missing array field 'windows'"))?;
        let mut windows = Vec::with_capacity(windows_node.len());
        for node in windows_node {
            let subspace = whole_field(node, "subspace", 3)?;
            let start_s = num_field(node, "start_s")?;
            let end_s = num_field(node, "end_s")?;
            if !(start_s >= 0.0 && end_s > start_s && end_s <= period_s) {
                return Err(CompareError::new(
                    "window must satisfy 0 <= start_s < end_s <= period_s",
                ));
            }
            let count = whole_field(node, "count", MAX_OCCUPANTS)?;
            windows.push(OccupancyWindow {
                subspace: subspace as usize,
                start_s,
                end_s,
                count: count as u32,
            });
        }
        let scenario = Self {
            name,
            seed,
            duration: SimDuration::from_secs_f64(duration_min * 60.0),
            period_s,
            windows,
        };
        let periods = scenario.periods();
        let changes = periods.saturating_mul(2 * scenario.windows.len() as u64);
        if periods.max(changes) > MAX_SCHEDULE_ENTRIES {
            return Err(CompareError::new(format!(
                "{periods} periods of {} window(s) pass the {MAX_SCHEDULE_ENTRIES}-entry schedule cap",
                scenario.windows.len()
            )));
        }
        Ok(scenario)
    }

    /// How many occupancy periods the scenario duration spans.
    fn periods(&self) -> u64 {
        let total_s = self.duration.as_millis() as f64 / 1_000.0;
        (total_s / self.period_s).ceil() as u64
    }

    /// The scripted schedule realizing the repeating pattern over the
    /// scenario duration.
    #[must_use]
    pub fn occupancy_schedule(&self) -> OccupancySchedule {
        let mut changes = Vec::new();
        let total_s = self.duration.as_millis() as f64 / 1_000.0;
        for p in 0..self.periods() {
            let base = p as f64 * self.period_s;
            for w in &self.windows {
                let subspace = SubspaceId::from_index(w.subspace);
                for (at, count) in [(base + w.start_s, w.count), (base + w.end_s, 0)] {
                    if at < total_s {
                        changes.push(OccupancyChange {
                            at: bz_simcore::SimTime::ZERO + SimDuration::from_secs_f64(at),
                            subspace,
                            count,
                        });
                    }
                }
            }
        }
        OccupancySchedule::new(changes)
    }

    /// The closed-loop system configuration for this scenario.
    #[must_use]
    pub fn system_config(&self) -> SystemConfig {
        let plant = PlantConfig::bubble_zero_lab().with_occupancy(self.occupancy_schedule());
        SystemConfig::paper_deployment(plant).with_run_seed(self.seed)
    }
}

/// Outcome of one strategy's run over a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRun {
    /// Strategy name (`"reactive"` or `"mpc"`).
    pub strategy: String,
    /// Total electrical energy (chillers + pumps + fans), kJ.
    pub energy_kj: f64,
    /// Radiant chiller share, kJ.
    pub radiant_chiller_kj: f64,
    /// Ventilation chiller share, kJ.
    pub vent_chiller_kj: f64,
    /// Pump share, kJ.
    pub pumps_kj: f64,
    /// Fan share, kJ.
    pub fans_kj: f64,
    /// Subspace-minutes spent more than [`COMFORT_TOLERANCE_K`] from the
    /// temperature target **while occupied**.
    pub comfort_violation_min: f64,
    /// Total condensate across both panels, kg.
    pub condensate_kg: f64,
    /// The run's full deterministic JSONL metric export.
    pub export: Vec<u8>,
}

/// Runs `scenario` under one strategy against an isolated telemetry
/// handle. `mpc` is `None` for the reactive baseline.
#[must_use]
pub fn run_strategy(scenario: &MpcScenario, mpc: Option<MpcConfig>) -> StrategyRun {
    let mut session = begin_strategy(scenario, mpc);
    session.step_minutes(u64::MAX);
    session.finish()
}

/// Starts `scenario` under one strategy as a resumable [`Session`]: step
/// it a minute at a time, checkpoint it with [`Session::save_state`],
/// restore it in a fresh process with [`Session::load_state`].
/// [`run_strategy`] is a thin loop over this.
#[must_use]
pub fn begin_strategy(scenario: &MpcScenario, mpc: Option<MpcConfig>) -> StrategySession {
    let obs = bz_obs::Handle::isolated();
    let config = scenario.system_config();
    let schedule = config.plant.occupancy.clone();
    let targets = config.targets;
    let strategy_obs = obs.clone();
    let strategy_config = config.clone();
    let system = BubbleZeroSystem::with_strategy(config, obs.clone(), move |reactive| match mpc {
        Some(mpc) => Box::new(MpcStrategy::new(
            reactive,
            mpc,
            &strategy_config,
            strategy_obs,
        )),
        None => Box::new(reactive),
    });
    StrategySession {
        obs,
        system,
        schedule,
        targets,
        total_s: scenario.duration.as_millis() / 1_000,
        violation_secs: 0,
    }
}

/// An in-flight single-strategy run: the closed-loop system plus the
/// occupied comfort-violation accumulator. Both are covered by
/// [`Session::save_state`], so a restored session's final
/// [`StrategyRun`] (including the JSONL export bytes) is identical to
/// an uninterrupted run's.
pub struct StrategySession {
    obs: bz_obs::Handle,
    system: BubbleZeroSystem,
    schedule: OccupancySchedule,
    targets: bz_core::targets::ComfortTargets,
    total_s: u64,
    violation_secs: u64,
}

impl Session for StrategySession {
    fn now_ms(&self) -> u64 {
        self.system.now().as_millis()
    }

    fn is_done(&self) -> bool {
        self.now_ms() >= self.total_s * 1_000
    }

    fn step_minute(&mut self) {
        if self.is_done() {
            return;
        }
        let steps = (self.total_s - self.now_ms() / 1_000).min(60);
        let Self {
            system,
            schedule,
            targets,
            violation_secs,
            ..
        } = self;
        system.run_seconds_with(steps, |system| {
            let now = system.now();
            let plant = system.plant();
            for id in SubspaceId::ALL {
                if schedule.headcount(id, now) == 0 {
                    continue;
                }
                let deviation =
                    (plant.zone_temperature(id).get() - targets.temperature.get()).abs();
                if deviation > COMFORT_TOLERANCE_K {
                    *violation_secs += 1;
                }
            }
        });
        let now_ms = self.now_ms();
        if now_ms.is_multiple_of(60_000) {
            self.obs.record_counters(now_ms);
        }
    }

    /// The full system (which carries the MPC layer through the strategy
    /// seam) plus the violation accumulator, then the run's second (the
    /// system clock, checked again at load).
    fn save_state(&self, w: &mut bz_state::Writer) {
        self.system.save_state(w);
        w.put_u64(self.violation_secs);
        w.put_u64(self.now_ms() / 1_000);
    }

    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        self.system.load_state(r)?;
        self.violation_secs = r.take_u64()?;
        load_run_second(r, "StrategySession", &self.system, self.total_s)
    }
}

impl StrategySession {
    /// The session's isolated metrics handle — the registry the export in
    /// [`StrategySession::finish`] is rendered from. The serving layer
    /// taps this for incremental per-tenant telemetry.
    #[must_use]
    pub fn obs(&self) -> &bz_obs::Handle {
        &self.obs
    }

    /// Computes the run outcome and the deterministic metric export.
    #[must_use]
    pub fn finish(&self) -> StrategyRun {
        let meters = *self.system.plant().meters();
        let energy_j = meters.radiant_chiller.get()
            + meters.vent_chiller.get()
            + meters.pumps.get()
            + meters.fans.get();
        let mut export = Vec::new();
        self.obs
            .write_jsonl(&mut export)
            .expect("writing to a Vec cannot fail");
        StrategyRun {
            strategy: self.system.strategy_name().to_string(),
            energy_kj: energy_j / 1_000.0,
            radiant_chiller_kj: meters.radiant_chiller.get() / 1_000.0,
            vent_chiller_kj: meters.vent_chiller.get() / 1_000.0,
            pumps_kj: meters.pumps.get() / 1_000.0,
            fans_kj: meters.fans.get() / 1_000.0,
            comfort_violation_min: self.violation_secs as f64 / 60.0,
            condensate_kg: self.system.plant().panel_condensate_total(),
            export,
        }
    }
}

/// The side-by-side result of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// Scenario name.
    pub scenario: String,
    /// The MPC run.
    pub mpc: StrategyRun,
    /// The reactive baseline run.
    pub reactive: StrategyRun,
}

impl ComparisonReport {
    /// The acceptance predicate: MPC used strictly less electrical
    /// energy, at no more occupied comfort-violation minutes and no more
    /// condensate than the reactive baseline.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mpc.energy_kj < self.reactive.energy_kj
            && self.mpc.comfort_violation_min <= self.reactive.comfort_violation_min + 1e-9
            && self.mpc.condensate_kg <= self.reactive.condensate_kg + 1e-9
    }

    /// Electrical energy saved by MPC, percent of the reactive total.
    #[must_use]
    pub fn saved_pct(&self) -> f64 {
        if self.reactive.energy_kj <= 0.0 {
            return 0.0;
        }
        (self.reactive.energy_kj - self.mpc.energy_kj) / self.reactive.energy_kj * 100.0
    }

    /// One grep-stable line summarizing the outcome (the CI smoke job
    /// asserts on it).
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "mpc-result: scenario={} ok={} energy_mpc_kj={:.1} energy_reactive_kj={:.1} \
             saved_pct={:.1} violation_mpc_min={:.1} violation_reactive_min={:.1} \
             condensate_mpc_kg={:.4} condensate_reactive_kg={:.4}",
            self.scenario,
            self.ok(),
            self.mpc.energy_kj,
            self.reactive.energy_kj,
            self.saved_pct(),
            self.mpc.comfort_violation_min,
            self.reactive.comfort_violation_min,
            self.mpc.condensate_kg,
            self.reactive.condensate_kg,
        )
    }

    /// A human-readable energy-vs-comfort table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario: {}\n", self.scenario));
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>10}\n",
            "metric", "reactive", "mpc", "delta"
        ));
        let mut row = |label: &str, reactive: f64, mpc: f64, digits: usize| {
            out.push_str(&format!(
                "{label:<22} {reactive:>12.digits$} {mpc:>12.digits$} {:>10.digits$}\n",
                mpc - reactive,
            ));
        };
        row(
            "energy total [kJ]",
            self.reactive.energy_kj,
            self.mpc.energy_kj,
            1,
        );
        row(
            "  radiant chiller",
            self.reactive.radiant_chiller_kj,
            self.mpc.radiant_chiller_kj,
            1,
        );
        row(
            "  vent chiller",
            self.reactive.vent_chiller_kj,
            self.mpc.vent_chiller_kj,
            1,
        );
        row("  pumps", self.reactive.pumps_kj, self.mpc.pumps_kj, 1);
        row("  fans", self.reactive.fans_kj, self.mpc.fans_kj, 1);
        row(
            "violation [min]",
            self.reactive.comfort_violation_min,
            self.mpc.comfort_violation_min,
            1,
        );
        row(
            "condensate [kg]",
            self.reactive.condensate_kg,
            self.mpc.condensate_kg,
            4,
        );
        out.push_str(&format!("energy saved: {:.1}%\n", self.saved_pct()));
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }
}

/// Runs `scenario` under both strategies and reports the comparison.
/// `jobs > 1` runs the two strategies on parallel threads; the per-run
/// isolated telemetry makes the exports byte-identical either way.
#[must_use]
pub fn compare(scenario: &MpcScenario, mpc: MpcConfig, jobs: usize) -> ComparisonReport {
    let (mpc_run, reactive_run) = if jobs > 1 {
        std::thread::scope(|scope| {
            let mpc_thread = scope.spawn(|| run_strategy(scenario, Some(mpc)));
            let reactive_run = run_strategy(scenario, None);
            (mpc_thread.join().expect("mpc run panicked"), reactive_run)
        })
    } else {
        (
            run_strategy(scenario, Some(mpc)),
            run_strategy(scenario, None),
        )
    };
    ComparisonReport {
        scenario: scenario.name.clone(),
        mpc: mpc_run,
        reactive: reactive_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bz_simcore::SimTime;

    #[test]
    fn bundled_scenario_file_matches_the_builder() {
        let parsed =
            MpcScenario::from_json(include_str!("../../../scenarios/mpc_office.json")).unwrap();
        assert_eq!(parsed, MpcScenario::bundled_office());
    }

    #[test]
    fn bundled_office_schedule_repeats_every_period() {
        let scenario = MpcScenario::bundled_office();
        let schedule = scenario.occupancy_schedule();
        for period in 0..3u64 {
            let base = period as f64 * 5_400.0;
            let occupied = SimTime::ZERO + SimDuration::from_secs_f64(base + 100.0);
            let empty = SimTime::ZERO + SimDuration::from_secs_f64(base + 2_800.0);
            for id in SubspaceId::ALL {
                assert_eq!(schedule.headcount(id, occupied), 2, "period {period}");
                assert_eq!(schedule.headcount(id, empty), 0, "period {period}");
            }
        }
    }

    #[test]
    fn json_round_trips_the_bundled_scenario_shape() {
        let text = r#"{
            "name": "office",
            "seed": 7,
            "duration_min": 270,
            "period_s": 5400,
            "windows": [
                {"subspace": 0, "start_s": 0, "end_s": 2700, "count": 2},
                {"subspace": 1, "start_s": 0, "end_s": 2700, "count": 2},
                {"subspace": 2, "start_s": 0, "end_s": 2700, "count": 2},
                {"subspace": 3, "start_s": 0, "end_s": 2700, "count": 2}
            ]
        }"#;
        let parsed = MpcScenario::from_json(text).expect("parses");
        assert_eq!(parsed, MpcScenario::bundled_office());
    }

    #[test]
    fn json_rejects_malformed_scenarios() {
        for (text, needle) in [
            ("{", "json error"),
            (
                r#"{"seed": 1, "duration_min": 10, "period_s": 100, "windows": []}"#,
                "'name'",
            ),
            (
                r#"{"name": "x", "seed": -1, "duration_min": 10, "period_s": 100, "windows": []}"#,
                "'seed'",
            ),
            (
                r#"{"name": "x", "seed": 1, "duration_min": 0, "period_s": 100, "windows": []}"#,
                "'duration_min'",
            ),
            (
                r#"{"name": "x", "seed": 1, "duration_min": 1e307, "period_s": 1e308, "windows": []}"#,
                "'duration_min'",
            ),
            (
                r#"{"name": "x", "seed": 1, "duration_min": 10, "period_s": 100,
                    "windows": [{"subspace": 4, "start_s": 0, "end_s": 10, "count": 1}]}"#,
                "'subspace'",
            ),
            (
                r#"{"name": "x", "seed": 1, "duration_min": 10, "period_s": 100,
                    "windows": [{"subspace": 0, "start_s": 50, "end_s": 200, "count": 1}]}"#,
                "window",
            ),
            (
                r#"{"name": "x", "seed": 9007199254740993, "duration_min": 10, "period_s": 100,
                    "windows": []}"#,
                "'seed' must be a whole number",
            ),
            (
                r#"{"name": "x", "seed": 1, "duration_min": 10, "period_s": 100,
                    "windows": [{"subspace": 0, "start_s": 0, "end_s": 10, "count": 5000}]}"#,
                "'count' must be a whole number in [0, 16]",
            ),
        ] {
            let err = MpcScenario::from_json(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }

    #[test]
    fn json_refuses_schedules_past_the_cap() {
        let doc = |duration_min: u64, windows: &str| {
            format!(
                r#"{{"name": "x", "seed": 1, "duration_min": {duration_min}, "period_s": 60,
                    "windows": [{windows}]}}"#
            )
        };
        let window = r#"{"subspace": 0, "start_s": 0, "end_s": 30, "count": 1}"#;
        // 100,001 empty periods; 50,001 periods of two changes each.
        for text in [doc(100_001, ""), doc(50_001, window)] {
            let err = MpcScenario::from_json(&text).expect_err(&text).to_string();
            assert!(err.contains("schedule cap"), "{err}");
        }
        for text in [doc(100_000, ""), doc(50_000, window)] {
            assert!(MpcScenario::from_json(&text).is_ok(), "{text}");
        }
    }

    #[test]
    fn strategy_checkpoint_whose_clocks_disagree_is_rejected() {
        let scenario = MpcScenario::bundled_office();
        let mut session = begin_strategy(&scenario, None);
        session.step_minutes(2);
        let mut w = bz_state::Writer::new();
        session.save_state(&mut w);
        let mut bytes = w.into_bytes();
        // The session's own second is the last field: rewrite 120 to 60.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&60u64.to_le_bytes());

        let mut restored = begin_strategy(&scenario, None);
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
    fn comparison_math_and_acceptance_predicate() {
        let run = |energy: f64, violation: f64, condensate: f64| StrategyRun {
            strategy: "x".to_string(),
            energy_kj: energy,
            radiant_chiller_kj: 0.0,
            vent_chiller_kj: 0.0,
            pumps_kj: 0.0,
            fans_kj: 0.0,
            comfort_violation_min: violation,
            condensate_kg: condensate,
            export: Vec::new(),
        };
        let report = ComparisonReport {
            scenario: "t".to_string(),
            mpc: run(80.0, 1.0, 0.0),
            reactive: run(100.0, 1.0, 0.0),
        };
        assert!(report.ok());
        assert!((report.saved_pct() - 20.0).abs() < 1e-9);
        assert!(report
            .summary_line()
            .starts_with("mpc-result: scenario=t ok=true"));

        let worse_comfort = ComparisonReport {
            scenario: "t".to_string(),
            mpc: run(80.0, 2.0, 0.0),
            reactive: run(100.0, 1.0, 0.0),
        };
        assert!(!worse_comfort.ok());
        let more_energy = ComparisonReport {
            scenario: "t".to_string(),
            mpc: run(100.0, 0.0, 0.0),
            reactive: run(100.0, 1.0, 0.0),
        };
        assert!(!more_energy.ok());
    }
}
