//! Work-stealing parallel batch runner for scenario sweeps.
//!
//! A sweep is a grid of independent closed-loop runs — seed sweeps,
//! parameter grids, ablation matrices — executed across a thread pool and
//! merged into one report. Every run records into its own isolated
//! [`bz_obs::Handle`], so concurrent runs share no mutable metric state
//! and each run's metrics export is **byte-identical** regardless of how
//! many worker threads execute the sweep or in which order jobs finish.
//!
//! The merge step is permutation-invariant: results are keyed by run
//! index, and every report function sorts by index before rendering, so
//! job completion order cannot leak into the output.
//!
//! ```
//! use bz_bench::sweep::{Scenario, SweepSpec};
//!
//! let spec = SweepSpec {
//!     scenario: Scenario::Trial,
//!     seeds: vec![1, 2],
//!     minutes: 1,
//!     grid: bz_bench::sweep::parse_grid("dew-margin-k=0.0,0.5").unwrap(),
//! };
//! assert_eq!(spec.expand().len(), 4); // 2 seeds × 2 grid points
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bz_core::checkpoint::{Checkpointer, CheckpointerError, RunIdentity};
use bz_core::system::{BtMode, BubbleZeroSystem, SystemConfig};
use bz_predict::strategy::{MpcConfig, MpcStrategy};
use bz_simcore::{NoiseKernel, Rng, SimDuration, SimTime};
use bz_thermal::disturbance::DisturbanceSchedule;
use bz_thermal::occupancy::{OccupancyChange, OccupancySchedule};
use bz_thermal::plant::PlantConfig;
use bz_thermal::zone::SubspaceId;

/// The closed-loop scenario a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The §V-A afternoon trial (figure-10 disturbances).
    Trial,
    /// The §V-C networking trial deployment (steady plant, full WSN).
    Network,
    /// The endurance scenario: periodic disturbance events seeded from
    /// the run seed.
    Endurance,
}

impl Scenario {
    /// Parses a scenario name as used by `bzctl sweep --scenario`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid scenarios.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "trial" => Ok(Self::Trial),
            "network" => Ok(Self::Network),
            "endurance" => Ok(Self::Endurance),
            other => Err(format!(
                "unknown scenario '{other}' (expected trial, network, or endurance)"
            )),
        }
    }

    /// The scenario's name (inverse of [`Scenario::parse`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Trial => "trial",
            Self::Network => "network",
            Self::Endurance => "endurance",
        }
    }
}

/// The grid-parameter keys a sweep can vary, with their config targets.
pub const GRID_KEYS: &[&str] = &[
    "dew-margin-k",
    "control-period-s",
    "ac-period-s",
    "residual-loss",
    "bt-fixed",
    "occupancy-rate",
    "weather-seed",
    "strategy",
];

/// Occupancy period used by the `occupancy-rate` grid axis, s — the same
/// 90-minute cadence as the bundled `bzctl mpc` office scenario.
pub const OCCUPANCY_PERIOD_S: f64 = 5_400.0;

/// One point of a parameter grid: `(key, value)` pairs in spec order.
pub type GridPoint = Vec<(String, String)>;

/// Parses a grid spec of the form `key=v1,v2;key2=v3,v4` into the
/// cartesian product of all axes. An empty spec yields the single empty
/// grid point (a pure seed sweep).
///
/// # Errors
///
/// Rejects unknown keys (see [`GRID_KEYS`]), malformed axes, and axes
/// without values.
pub fn parse_grid(spec: &str) -> Result<Vec<GridPoint>, String> {
    let mut axes: Vec<(String, Vec<String>)> = Vec::new();
    for axis in spec.split(';').filter(|a| !a.trim().is_empty()) {
        let (key, values) = axis
            .split_once('=')
            .ok_or_else(|| format!("grid axis '{axis}' is not of the form key=v1,v2"))?;
        let key = key.trim();
        if !GRID_KEYS.contains(&key) {
            return Err(format!(
                "unknown grid key '{key}' (expected one of {})",
                GRID_KEYS.join(", ")
            ));
        }
        let values: Vec<String> = values
            .split(',')
            .map(|v| v.trim().to_owned())
            .filter(|v| !v.is_empty())
            .collect();
        if values.is_empty() {
            return Err(format!("grid axis '{key}' has no values"));
        }
        axes.push((key.to_owned(), values));
    }
    let mut points: Vec<GridPoint> = vec![Vec::new()];
    for (key, values) in axes {
        let mut expanded = Vec::with_capacity(points.len() * values.len());
        for point in &points {
            for value in &values {
                let mut next = point.clone();
                next.push((key.clone(), value.clone()));
                expanded.push(next);
            }
        }
        points = expanded;
    }
    Ok(points)
}

/// A full sweep description: scenario × seeds × grid points.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The scenario every run executes.
    pub scenario: Scenario,
    /// One run per seed per grid point.
    pub seeds: Vec<u64>,
    /// Simulated minutes per run.
    pub minutes: u64,
    /// Parameter grid (from [`parse_grid`]); `vec![vec![]]` for a pure
    /// seed sweep.
    pub grid: Vec<GridPoint>,
}

impl SweepSpec {
    /// Expands the sweep into its run list, indexed 0..N in grid-major,
    /// seed-minor order.
    #[must_use]
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::with_capacity(self.grid.len() * self.seeds.len());
        for point in &self.grid {
            for &seed in &self.seeds {
                runs.push(RunSpec {
                    index: runs.len(),
                    scenario: self.scenario,
                    seed,
                    minutes: self.minutes,
                    params: point.clone(),
                });
            }
        }
        runs
    }
}

/// One independent run of a sweep.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Stable position in the sweep (keys the merged report).
    pub index: usize,
    /// The scenario to execute.
    pub scenario: Scenario,
    /// System seed for the run.
    pub seed: u64,
    /// Simulated minutes to run.
    pub minutes: u64,
    /// Grid-point overrides applied to the system config.
    pub params: GridPoint,
}

impl RunSpec {
    /// A deterministic human-readable label, e.g.
    /// `trial-s0001-dew-margin-k=0.5`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!("{}-s{:04}", self.scenario.name(), self.seed);
        for (key, value) in &self.params {
            let _ = write!(label, "-{key}={value}");
        }
        label
    }
}

/// End-of-run scalars carried into the merged report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Final S1 zone temperature, °C.
    pub t_end_c: f64,
    /// Final S1 dew point, °C.
    pub dew_end_c: f64,
    /// Total panel condensate, kg.
    pub condensate_kg: f64,
    /// Packet delivery ratio, percent.
    pub delivery_pct: f64,
    /// Packets offered to the channel.
    pub packets_sent: u64,
    /// Total electrical energy (chillers + pumps + fans), kJ.
    pub energy_kj: f64,
    /// Whole-run coefficient of performance: heat removed (radiant +
    /// ventilation) over electrical energy spent; 0 when nothing ran.
    /// The COP-style sweeps (`bzctl cop` scenarios, strategy
    /// comparisons) read efficiency off this column directly.
    pub cop: f64,
    /// Mean projected battery lifetime across the run's BT devices,
    /// years — the network-style sweeps (residual-loss and bt-fixed
    /// axes) read device longevity off this column. 0 when no device
    /// transmitted enough for a projection.
    pub lifetime_y: f64,
}

/// The outcome of one run: its summary plus the full per-run metrics
/// export (JSONL bytes, deterministic for a given spec).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Index of the [`RunSpec`] this result came from.
    pub index: usize,
    /// The spec's label.
    pub label: String,
    /// The seed the run used.
    pub seed: u64,
    /// Scenario name.
    pub scenario: &'static str,
    /// `key=value` parameter overrides, `;`-joined spec order.
    pub params: String,
    /// End-of-run scalars.
    pub summary: RunSummary,
    /// The run's isolated bz-obs registry exported as JSONL.
    pub metrics_jsonl: Vec<u8>,
}

/// Builds the repeating occupancy schedule for the `occupancy-rate` axis:
/// every subspace holds two people for the first `rate` fraction of each
/// [`OCCUPANCY_PERIOD_S`] period over the run.
fn occupancy_for_rate(rate: f64, minutes: u64) -> OccupancySchedule {
    let total_s = minutes as f64 * 60.0;
    let occupied_s = rate * OCCUPANCY_PERIOD_S;
    let mut changes = Vec::new();
    let periods = (total_s / OCCUPANCY_PERIOD_S).ceil() as u64;
    for p in 0..periods {
        let base = p as f64 * OCCUPANCY_PERIOD_S;
        for subspace in SubspaceId::ALL {
            for (at, count) in [(base, 2), (base + occupied_s, 0)] {
                if at < total_s && occupied_s > 0.0 {
                    changes.push(OccupancyChange {
                        at: SimTime::ZERO + SimDuration::from_secs_f64(at),
                        subspace,
                        count,
                    });
                }
            }
        }
    }
    OccupancySchedule::new(changes)
}

/// The strategy a run's grid point selects: `None` for the reactive
/// baseline (also the default), `Some` for the MPC layer.
fn strategy_of(params: &GridPoint) -> Result<Option<MpcConfig>, String> {
    for (key, value) in params {
        if key == "strategy" {
            return match value.as_str() {
                "reactive" => Ok(None),
                "mpc" => Ok(Some(MpcConfig::office())),
                other => Err(format!(
                    "grid value '{other}' for 'strategy' is not reactive or mpc"
                )),
            };
        }
    }
    Ok(None)
}

fn apply_params(config: &mut SystemConfig, params: &GridPoint, minutes: u64) -> Result<(), String> {
    for (key, value) in params {
        let parse_f64 = || -> Result<f64, String> {
            value
                .parse()
                .map_err(|_| format!("grid value '{value}' for '{key}' is not a number"))
        };
        match key.as_str() {
            "dew-margin-k" => config.radiant.dew_margin_k = parse_f64()?,
            "control-period-s" => {
                let secs: u64 = value
                    .parse()
                    .map_err(|_| format!("grid value '{value}' for '{key}' is not an integer"))?;
                if secs == 0 {
                    return Err("control-period-s must be positive".to_owned());
                }
                config.control_period = SimDuration::from_secs(secs);
            }
            "ac-period-s" => {
                let secs: u64 = value
                    .parse()
                    .map_err(|_| format!("grid value '{value}' for '{key}' is not an integer"))?;
                if secs == 0 {
                    return Err("ac-period-s must be positive".to_owned());
                }
                config.ac_period = SimDuration::from_secs(secs);
            }
            "residual-loss" => config.network.residual_loss = parse_f64()?,
            "bt-fixed" => {
                config.bt_mode = match value.as_str() {
                    "true" | "1" => BtMode::Fixed,
                    "false" | "0" => BtMode::Adaptive,
                    other => {
                        return Err(format!(
                            "grid value '{other}' for 'bt-fixed' is not a boolean"
                        ))
                    }
                };
            }
            "occupancy-rate" => {
                let rate = parse_f64()?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("occupancy-rate must be within 0..=1".to_owned());
                }
                config.plant.occupancy = occupancy_for_rate(rate, minutes);
            }
            "weather-seed" => {
                // Re-seeds the plant environment stream (weather wander +
                // sensor noise) independently of the run seed, so climate
                // realizations can be swept while the WSN stays fixed.
                let seed: u64 = value
                    .parse()
                    .map_err(|_| format!("grid value '{value}' for '{key}' is not an integer"))?;
                config.plant.seed = seed;
            }
            // Validated by `strategy_of`; selects the controller, not a
            // config field.
            "strategy" => {
                strategy_of(params)?;
            }
            other => return Err(format!("unknown grid key '{other}'")),
        }
    }
    Ok(())
}

/// Builds the closed-loop system for one run spec, recording into `obs`.
/// This is the single construction recipe shared by the sweep executor
/// and the `bzctl serve` tenant factory, so a tenant driven over the
/// wire is the same simulation as the offline run.
///
/// # Errors
///
/// Returns a message for invalid grid parameters.
pub fn build_system(spec: &RunSpec, obs: bz_obs::Handle) -> Result<BubbleZeroSystem, String> {
    let plant_seed = spec.seed ^ 0x9E37;
    let plant = match spec.scenario {
        Scenario::Trial => PlantConfig::bubble_zero_lab()
            .with_seed(plant_seed)
            .with_disturbances(DisturbanceSchedule::figure10_afternoon()),
        Scenario::Network => PlantConfig::bubble_zero_lab().with_seed(plant_seed),
        Scenario::Endurance => {
            let mut rng = Rng::seed_from(spec.seed ^ 0x7DA7);
            PlantConfig::bubble_zero_lab()
                .with_seed(plant_seed)
                .with_disturbances(DisturbanceSchedule::periodic_events(
                    SimDuration::from_mins(spec.minutes),
                    &mut rng,
                ))
        }
    };
    let mut config = SystemConfig {
        seed: spec.seed,
        ..SystemConfig::paper_deployment(plant)
    };
    apply_params(&mut config, &spec.params, spec.minutes)?;
    let system = match strategy_of(&spec.params)? {
        Some(mpc) => {
            let strategy_obs = obs.clone();
            let strategy_config = config.clone();
            BubbleZeroSystem::with_strategy(config, obs, move |reactive| {
                Box::new(MpcStrategy::new(
                    reactive,
                    mpc,
                    &strategy_config,
                    strategy_obs,
                ))
            })
        }
        None => BubbleZeroSystem::with_obs(config, obs),
    };
    Ok(system)
}

/// Executes one run against a fresh isolated registry.
///
/// # Errors
///
/// Returns a message for invalid grid parameters.
pub fn run_one(spec: &RunSpec) -> Result<RunResult, String> {
    run_one_tracked(spec, None, 0, &[]).map(|(result, _)| result)
}

/// Per-run crash-safety configuration for a sweep (see [`ExecutePlan`]).
#[derive(Debug, Clone)]
pub struct SweepCheckpoints {
    /// Root directory; each run gets a `run-NNN/` subdirectory of
    /// checkpoints plus a `done.bzck` completion record.
    pub root: PathBuf,
    /// Simulated seconds between mid-run checkpoints.
    pub every_s: u64,
    /// Reuse prior state: completed runs are served from their
    /// `done.bzck` record without re-executing, interrupted runs resume
    /// from their newest good mid-run checkpoint. When false the
    /// directory is write-only (a later `--resume` can still use it).
    pub resume: bool,
}

/// A deterministic kill for the crash-injection harness: aborts run
/// `index` just before simulated minute `minute`, on the first
/// `attempts` attempts. With `attempts < retries` the sweep self-heals
/// by resuming the run from its last checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct KillRule {
    /// The [`RunSpec::index`] to kill.
    pub index: usize,
    /// Simulated minute at which to kill it (before stepping it).
    pub minute: u64,
    /// How many attempts the kill applies to (then it stops firing).
    pub attempts: u32,
}

/// Parses a `--kill index:minute[:attempts]` spec.
///
/// # Errors
///
/// Returns a message for malformed specs.
pub fn parse_kill(spec: &str) -> Result<KillRule, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = || format!("kill spec '{spec}' is not of the form index:minute[:attempts]");
    if !(parts.len() == 2 || parts.len() == 3) {
        return Err(bad());
    }
    let index = parts[0].parse().map_err(|_| bad())?;
    let minute = parts[1].parse().map_err(|_| bad())?;
    let attempts = match parts.get(2) {
        Some(n) => n.parse().map_err(|_| bad())?,
        None => 1,
    };
    Ok(KillRule {
        index,
        minute,
        attempts,
    })
}

fn run_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("run-{index:03}"))
}

/// Serializes a completed [`RunResult`] for the `done.bzck` record.
fn encode_result(result: &RunResult, w: &mut bz_state::Writer) {
    w.put_u64(result.index as u64);
    w.put_u64(result.seed);
    let s = &result.summary;
    for v in [
        s.t_end_c,
        s.dew_end_c,
        s.condensate_kg,
        s.delivery_pct,
        s.energy_kj,
        s.cop,
        s.lifetime_y,
    ] {
        w.put_f64(v);
    }
    w.put_u64(s.packets_sent);
    w.put_bytes(&result.metrics_jsonl);
}

/// Decodes a `done.bzck` payload back into the [`RunResult`] for `spec`.
fn decode_result(spec: &RunSpec, bytes: &[u8]) -> Result<RunResult, String> {
    let mut r = bz_state::Reader::new(bytes);
    let mut take = || r.take_u64().map_err(|e| e.to_string());
    let index = take()? as usize;
    let seed = take()?;
    if index != spec.index || seed != spec.seed {
        return Err(format!(
            "completion record is for run {index} seed {seed}, not run {} seed {}",
            spec.index, spec.seed
        ));
    }
    let mut f = || r.take_f64().map_err(|e| e.to_string());
    let summary = RunSummary {
        t_end_c: f()?,
        dew_end_c: f()?,
        condensate_kg: f()?,
        delivery_pct: f()?,
        energy_kj: f()?,
        cop: f()?,
        lifetime_y: f()?,
        packets_sent: r.take_u64().map_err(|e| e.to_string())?,
    };
    let metrics_jsonl = r.take_bytes().map_err(|e| e.to_string())?;
    Ok(RunResult {
        index: spec.index,
        label: spec.label(),
        seed: spec.seed,
        scenario: spec.scenario.name(),
        params: spec
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";"),
        summary,
        metrics_jsonl,
    })
}

/// What one resumable run did beyond producing its result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunProvenance {
    /// Served entirely from a `done.bzck` completion record.
    pub cached: bool,
    /// Resumed from a mid-run checkpoint.
    pub resumed: bool,
}

/// Executes one run with optional crash-safety: periodic mid-run
/// checkpoints, resume from the newest good one, a completion record
/// that lets a restarted sweep skip the run entirely, and the
/// deterministic kill harness. Snapshots and the record are sealed with
/// identities of the run's spec and noise kernel; one of another
/// identity is never reused, the run starts fresh instead.
fn run_one_tracked(
    spec: &RunSpec,
    ckpt: Option<&SweepCheckpoints>,
    attempt: u32,
    kills: &[KillRule],
) -> Result<(RunResult, RunProvenance), String> {
    let label = format!("{} minutes={}", spec.label(), spec.minutes);
    let noise = NoiseKernel::from_env();
    let done_id = RunIdentity::new("sweep-done", &label, noise);
    let mut provenance = RunProvenance::default();
    // --resume trusts state left by a previous invocation; a retry
    // (attempt > 0) additionally trusts what this very invocation wrote
    // before the attempt died.
    let reuse = ckpt.is_some_and(|cfg| cfg.resume || attempt > 0);
    let mut checkpoints = match ckpt {
        Some(cfg) => {
            let root = run_dir(&cfg.root, spec.index);
            let id = RunIdentity::new("sweep-run", &label, noise);
            let checkpoints = Checkpointer::create(&root, id, Some(cfg.every_s.max(1)))
                .map_err(|e| e.to_string())?;
            let done = root.join("done.bzck");
            let record = reuse.then(|| bz_state::Checkpoint::read(&done).ok());
            // A torn or foreign record means the run starts fresh.
            if let Some(record) = record.flatten().filter(|r| done_id.check(&r.meta).is_ok()) {
                provenance.cached = true;
                return Ok((decode_result(spec, &record.payload)?, provenance));
            }
            Some((checkpoints, done))
        }
        None => None,
    };

    let obs = bz_obs::Handle::isolated();
    let mut system = build_system(spec, obs.clone())?;
    let mut start_minute = 0;
    if let Some((checkpoints, _)) = checkpoints.as_mut().filter(|_| reuse) {
        let tick_ms = match checkpoints.resume(|r| system.load_state(r)) {
            Ok(resumed) => resumed.tick_ms,
            Err(CheckpointerError::Foreign(..)) => None,
            Err(e) => return Err(e.to_string()),
        };
        provenance.resumed = tick_ms.is_some();
        start_minute = tick_ms.map_or(0, |tick_ms| tick_ms / 60_000);
    }

    for minute in start_minute + 1..=spec.minutes {
        if kills
            .iter()
            .any(|k| k.index == spec.index && k.minute == minute && attempt < k.attempts)
        {
            return Err(format!(
                "killed by the crash-injection harness at minute {minute} (attempt {attempt})"
            ));
        }
        system.run_seconds(60);
        obs.record_counters(system.now().as_millis());
        if let Some((checkpoints, _)) = &mut checkpoints {
            checkpoints
                .after_step(system.now().as_millis(), |w| system.save_state(w))
                .map_err(|e| e.to_string())?;
        }
    }
    obs.disable();
    let mut metrics_jsonl = Vec::new();
    obs.write_jsonl(&mut metrics_jsonl)
        .map_err(|e| format!("metrics export failed: {e}"))?;
    let plant = system.plant();
    let stats = system.network().stats();
    let meters = plant.meters();
    let energy_j = meters.radiant_chiller.get()
        + meters.vent_chiller.get()
        + meters.pumps.get()
        + meters.fans.get();
    let removed_j = meters.radiant_removed.get() + meters.vent_removed.get();
    let lifetimes: Vec<f64> = system
        .bt_device_reports()
        .iter()
        .filter_map(|r| r.lifetime_years)
        .collect();
    let summary = RunSummary {
        t_end_c: plant.zone_temperature(SubspaceId::S1).get(),
        dew_end_c: plant.zone_dew_point(SubspaceId::S1).get(),
        condensate_kg: plant.panel_condensate_total(),
        delivery_pct: 100.0 * stats.delivery_ratio(),
        packets_sent: stats.offered,
        energy_kj: energy_j / 1_000.0,
        cop: if energy_j > 0.0 {
            removed_j / energy_j
        } else {
            0.0
        },
        lifetime_y: if lifetimes.is_empty() {
            0.0
        } else {
            lifetimes.iter().sum::<f64>() / lifetimes.len() as f64
        },
    };
    let result = RunResult {
        index: spec.index,
        label: spec.label(),
        seed: spec.seed,
        scenario: spec.scenario.name(),
        params: spec
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";"),
        summary,
        metrics_jsonl,
    };
    if let Some((_, done)) = &checkpoints {
        done_id
            .seal(system.now().as_millis(), |w| encode_result(&result, w))
            .write_atomic(done)
            .map_err(|e| format!("completion record write failed: {e}"))?;
    }
    Ok((result, provenance))
}

/// Executes every run across `jobs` worker threads, work-stealing from a
/// shared queue. Results come back indexed by [`RunSpec::index`] — the
/// output is independent of scheduling because each run records into its
/// own isolated registry and results are placed by index, not by
/// completion order.
#[must_use]
pub fn execute(specs: &[RunSpec], jobs: usize) -> Vec<Result<RunResult, String>> {
    let plan = ExecutePlan {
        jobs,
        ..ExecutePlan::default()
    };
    let outcome = execute_plan(specs, &plan);
    let mut slots: Vec<Result<RunResult, String>> = specs
        .iter()
        .map(|s| Err(format!("run {} produced no result", s.index)))
        .collect();
    for result in outcome.results {
        let index = result.index;
        slots[index] = Ok(result);
    }
    for q in outcome.quarantined {
        slots[q.index] = Err(q.error);
    }
    slots
}

/// How [`execute_plan`] runs a sweep: parallelism, crash-safety, retry
/// policy, and the deterministic kill harness.
#[derive(Debug, Clone, Default)]
pub struct ExecutePlan {
    /// Worker threads (clamped to 1..=runs).
    pub jobs: usize,
    /// Per-run checkpoints and completion records; `None` disables
    /// crash-safety.
    pub checkpoints: Option<SweepCheckpoints>,
    /// Re-attempts after a failed run (0 = fail fast into quarantine).
    pub retries: u32,
    /// Base backoff between attempts; attempt `n` waits `base << n`.
    pub backoff_ms: u64,
    /// Deterministic kill schedule (crash-injection tests).
    pub kills: Vec<KillRule>,
}

/// A run that kept failing after every retry: reported, excluded from
/// the merged results, never allowed to wedge the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRun {
    /// The failed run's index.
    pub index: usize,
    /// The failed run's label.
    pub label: String,
    /// Error from the final attempt.
    pub error: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
}

/// Outcome of [`execute_plan`]: completed results sorted by index, plus
/// the recovery bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Successful runs, sorted by run index.
    pub results: Vec<RunResult>,
    /// Runs that failed every attempt (poison detection).
    pub quarantined: Vec<QuarantinedRun>,
    /// Runs served from a completion record without re-executing.
    pub cached: usize,
    /// Runs resumed from a mid-run checkpoint.
    pub resumed: usize,
    /// Total retry attempts across the sweep.
    pub retried: usize,
}

/// Executes a sweep under `plan`: work-stealing across threads, per-run
/// crash-safety, retry-with-backoff, and quarantine for runs that fail
/// every attempt. The merged reports over `results` are byte-identical
/// for any jobs count and any mix of fresh, resumed, and cached runs,
/// because each run's result bytes depend only on its spec.
#[must_use]
pub fn execute_plan(specs: &[RunSpec], plan: &ExecutePlan) -> SweepOutcome {
    struct Shared {
        slots: Vec<Option<Result<(RunResult, RunProvenance), QuarantinedRun>>>,
        retried: usize,
    }
    let jobs = plan.jobs.clamp(1, specs.len().max(1));
    let next = AtomicUsize::new(0);
    let shared = Mutex::new(Shared {
        slots: specs.iter().map(|_| None).collect(),
        retried: 0,
    });
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let spec = &specs[i];
                let mut outcome = None;
                for attempt in 0..=plan.retries {
                    if attempt > 0 {
                        shared.lock().expect("sweep state poisoned").retried += 1;
                        if plan.backoff_ms > 0 {
                            let wait = plan.backoff_ms << (attempt - 1).min(16);
                            std::thread::sleep(std::time::Duration::from_millis(wait));
                        }
                    }
                    match run_one_tracked(spec, plan.checkpoints.as_ref(), attempt, &plan.kills) {
                        Ok(done) => {
                            outcome = Some(Ok(done));
                            break;
                        }
                        Err(error) => {
                            outcome = Some(Err(QuarantinedRun {
                                index: spec.index,
                                label: spec.label(),
                                error,
                                attempts: attempt + 1,
                            }));
                        }
                    }
                }
                shared.lock().expect("sweep state poisoned").slots[i] = outcome;
            });
        }
    });
    let shared = shared.into_inner().expect("sweep state poisoned");
    let mut outcome = SweepOutcome {
        retried: shared.retried,
        ..SweepOutcome::default()
    };
    for slot in shared.slots {
        match slot.expect("every job completed") {
            Ok((result, provenance)) => {
                outcome.cached += usize::from(provenance.cached);
                outcome.resumed += usize::from(provenance.resumed);
                outcome.results.push(result);
            }
            Err(q) => outcome.quarantined.push(q),
        }
    }
    outcome.results.sort_by_key(|r| r.index);
    outcome.quarantined.sort_by_key(|q| q.index);
    outcome
}

/// Results sorted by run index (the permutation-invariance point: every
/// report renders from this order, never from completion order).
fn ordered(results: &[RunResult]) -> Vec<&RunResult> {
    let mut ordered: Vec<&RunResult> = results.iter().collect();
    ordered.sort_by_key(|r| r.index);
    ordered
}

/// Renders the merged sweep report as CSV (one row per run, sorted by
/// run index).
#[must_use]
pub fn report_csv(results: &[RunResult]) -> String {
    let mut out = String::from(
        "run,label,scenario,seed,params,t_end_c,dew_end_c,condensate_kg,delivery_pct,\
         packets_sent,energy_kj,cop,lifetime_y\n",
    );
    for r in ordered(results) {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{:.9},{:.3},{},{:.3},{:.4},{:.2}",
            r.index,
            r.label,
            r.scenario,
            r.seed,
            r.params,
            r.summary.t_end_c,
            r.summary.dew_end_c,
            r.summary.condensate_kg,
            r.summary.delivery_pct,
            r.summary.packets_sent,
            r.summary.energy_kj,
            r.summary.cop,
            r.summary.lifetime_y,
        );
    }
    out
}

/// Renders the merged sweep report as JSONL (one object per run, sorted
/// by run index).
#[must_use]
pub fn report_jsonl(results: &[RunResult]) -> String {
    let mut out = String::new();
    for r in ordered(results) {
        let _ = writeln!(
            out,
            "{{\"run\":{},\"label\":\"{}\",\"scenario\":\"{}\",\"seed\":{},\"params\":\"{}\",\
             \"t_end_c\":{:.6},\"dew_end_c\":{:.6},\"condensate_kg\":{:.9},\
             \"delivery_pct\":{:.3},\"packets_sent\":{},\"energy_kj\":{:.3},\"cop\":{:.4},\
             \"lifetime_y\":{:.2}}}",
            r.index,
            r.label,
            r.scenario,
            r.seed,
            r.params,
            r.summary.t_end_c,
            r.summary.dew_end_c,
            r.summary.condensate_kg,
            r.summary.delivery_pct,
            r.summary.packets_sent,
            r.summary.energy_kj,
            r.summary.cop,
            r.summary.lifetime_y,
        );
    }
    out
}

/// The run's `strategy` grid value (if any) and the rest of its identity
/// — scenario, seed, and every other parameter — as a grouping key. Runs
/// sharing a key differ only in strategy, so their energies compare.
fn strategy_split(r: &RunResult) -> (Option<String>, String) {
    let mut strategy = None;
    let rest: Vec<&str> = r
        .params
        .split(';')
        .filter(|p| !p.is_empty())
        .filter(|p| match p.strip_prefix("strategy=") {
            Some(value) => {
                strategy = Some(value.to_owned());
                false
            }
            None => true,
        })
        .collect();
    let key = format!("{}-s{:04} {}", r.scenario, r.seed, rest.join(";"));
    (strategy, key)
}

/// Renders the human-readable sweep summary table, sorted by run index,
/// with per-scenario means at the bottom. When the grid sweeps a
/// `strategy` axis, runs that differ only in strategy are paired against
/// the reactive baseline and their energy deltas reported.
#[must_use]
pub fn summary_table(results: &[RunResult]) -> String {
    let mut out = format!(
        "{:>4}  {:<44} {:>9} {:>9} {:>10} {:>8} {:>11}\n",
        "run", "label", "T end °C", "dew °C", "delivery%", "packets", "energy kJ"
    );
    let mut by_scenario: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let mut baselines: BTreeMap<String, f64> = BTreeMap::new();
    let mut variants: Vec<(String, String, f64)> = Vec::new();
    for r in ordered(results) {
        let _ = writeln!(
            out,
            "{:>4}  {:<44} {:>9.2} {:>9.2} {:>10.1} {:>8} {:>11.1}",
            r.index,
            r.label,
            r.summary.t_end_c,
            r.summary.dew_end_c,
            r.summary.delivery_pct,
            r.summary.packets_sent,
            r.summary.energy_kj,
        );
        let entry = by_scenario.entry(r.scenario).or_insert((0.0, 0));
        entry.0 += r.summary.delivery_pct;
        entry.1 += 1;
        match strategy_split(r) {
            (Some(strategy), key) if strategy == "reactive" => {
                baselines.insert(key, r.summary.energy_kj);
            }
            (Some(strategy), key) => variants.push((key, strategy, r.summary.energy_kj)),
            (None, _) => {}
        }
    }
    for (scenario, (delivery_sum, count)) in by_scenario {
        let _ = writeln!(
            out,
            "mean delivery over {count} {scenario} run(s): {:.1}%",
            delivery_sum / count as f64
        );
    }
    for (key, strategy, energy_kj) in variants {
        if let Some(baseline_kj) = baselines.get(&key) {
            let _ = writeln!(
                out,
                "energy delta {strategy} vs reactive [{key}]: {:+.1} kJ",
                energy_kj - baseline_kj
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_to_cartesian_product() {
        let grid = parse_grid("dew-margin-k=0.0,0.5;bt-fixed=true,false").unwrap();
        assert_eq!(grid.len(), 4);
        assert_eq!(
            grid[0],
            vec![
                ("dew-margin-k".to_owned(), "0.0".to_owned()),
                ("bt-fixed".to_owned(), "true".to_owned()),
            ]
        );
    }

    #[test]
    fn empty_grid_is_one_point() {
        assert_eq!(parse_grid("").unwrap(), vec![Vec::new()]);
    }

    #[test]
    fn grid_rejects_unknown_keys_and_malformed_axes() {
        assert!(parse_grid("frobnicate=1").is_err());
        assert!(parse_grid("dew-margin-k").is_err());
        assert!(parse_grid("dew-margin-k=").is_err());
    }

    #[test]
    fn expansion_is_grid_major_seed_minor() {
        let spec = SweepSpec {
            scenario: Scenario::Trial,
            seeds: vec![7, 8],
            minutes: 1,
            grid: parse_grid("bt-fixed=true,false").unwrap(),
        };
        let runs = spec.expand();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].label(), "trial-s0007-bt-fixed=true");
        assert_eq!(runs[3].label(), "trial-s0008-bt-fixed=false");
        assert_eq!(
            runs.iter().map(|r| r.index).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn bad_grid_values_error_at_run_time() {
        let spec = |key: &str, value: &str| RunSpec {
            index: 0,
            scenario: Scenario::Trial,
            seed: 1,
            minutes: 1,
            params: vec![(key.to_owned(), value.to_owned())],
        };
        assert!(run_one(&spec("bt-fixed", "maybe")).is_err());
        assert!(run_one(&spec("occupancy-rate", "1.5")).is_err());
        assert!(run_one(&spec("weather-seed", "not-a-seed")).is_err());
        assert!(run_one(&spec("strategy", "clairvoyant")).is_err());
    }

    #[test]
    fn ac_period_axis_parses_and_sets_the_period() {
        let grid = parse_grid("ac-period-s=2,4").unwrap();
        assert_eq!(grid.len(), 2);

        let plant = PlantConfig::bubble_zero_lab();
        let mut config = SystemConfig::paper_deployment(plant);
        let point = vec![("ac-period-s".to_owned(), "4".to_owned())];
        apply_params(&mut config, &point, 1).unwrap();
        assert_eq!(config.ac_period, SimDuration::from_secs(4));
    }

    #[test]
    fn ac_period_axis_rejects_zero_and_garbage() {
        let plant = PlantConfig::bubble_zero_lab();
        let mut config = SystemConfig::paper_deployment(plant.clone());
        let zero = vec![("ac-period-s".to_owned(), "0".to_owned())];
        let err = apply_params(&mut config, &zero, 1).unwrap_err();
        assert!(err.contains("must be positive"), "unexpected error: {err}");

        let mut config = SystemConfig::paper_deployment(plant);
        let garbage = vec![("ac-period-s".to_owned(), "fast".to_owned())];
        let err = apply_params(&mut config, &garbage, 1).unwrap_err();
        assert!(err.contains("not an integer"), "unexpected error: {err}");
    }

    #[test]
    fn reports_include_a_cop_column() {
        let results = vec![RunResult {
            index: 0,
            label: "trial-s0001".to_owned(),
            seed: 1,
            scenario: "trial",
            params: String::new(),
            summary: RunSummary {
                t_end_c: 24.0,
                dew_end_c: 17.0,
                condensate_kg: 0.0,
                delivery_pct: 99.0,
                packets_sent: 1000,
                energy_kj: 150.0,
                cop: 4.5,
                lifetime_y: 12.5,
            },
            metrics_jsonl: Vec::new(),
        }];
        let csv = report_csv(&results);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("energy_kj,cop,lifetime_y"));
        assert!(csv.contains(",4.5000,"), "missing cop value:\n{csv}");
        assert!(csv.contains(",12.50"), "missing lifetime value:\n{csv}");
        assert!(report_jsonl(&results).contains("\"cop\":4.5000"));
        assert!(report_jsonl(&results).contains("\"lifetime_y\":12.50"));
    }

    #[test]
    fn new_axes_parse_and_expand() {
        let grid =
            parse_grid("occupancy-rate=0.0,0.5;weather-seed=1,2;strategy=reactive,mpc").unwrap();
        assert_eq!(grid.len(), 8);
    }

    #[test]
    fn occupancy_rate_schedule_covers_the_requested_fraction() {
        let schedule = occupancy_for_rate(0.5, 180);
        let probe = |at_s: f64| {
            schedule.headcount(
                SubspaceId::S1,
                SimTime::ZERO + SimDuration::from_secs_f64(at_s),
            )
        };
        assert_eq!(probe(60.0), 2, "occupied at the start of each period");
        assert_eq!(
            probe(OCCUPANCY_PERIOD_S * 0.5 + 60.0),
            0,
            "empty after the window"
        );
        assert_eq!(probe(OCCUPANCY_PERIOD_S + 60.0), 2, "the pattern repeats");
        let empty = occupancy_for_rate(0.0, 180);
        assert_eq!(
            empty.headcount(
                SubspaceId::S1,
                SimTime::ZERO + SimDuration::from_secs_f64(60.0)
            ),
            0,
            "rate 0 schedules nobody"
        );
    }

    #[test]
    fn strategy_axis_pairs_runs_and_reports_energy_delta() {
        let spec = SweepSpec {
            scenario: Scenario::Trial,
            seeds: vec![3],
            minutes: 1,
            grid: parse_grid("strategy=reactive,mpc").unwrap(),
        };
        let results: Vec<RunResult> = execute(&spec.expand(), 2)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(results.len(), 2);
        let table = summary_table(&results);
        assert!(
            table.contains("energy delta mpc vs reactive"),
            "missing delta line:\n{table}"
        );
        assert!(report_csv(&results).contains("energy_kj"));
        assert!(report_jsonl(&results).contains("\"energy_kj\":"));
    }

    #[test]
    fn reports_are_sorted_by_index_not_input_order() {
        let make = |index: usize| RunResult {
            index,
            label: format!("run-{index}"),
            seed: index as u64,
            scenario: "trial",
            params: String::new(),
            summary: RunSummary {
                t_end_c: 25.0,
                dew_end_c: 17.0,
                condensate_kg: 0.0,
                delivery_pct: 99.0,
                packets_sent: 10,
                energy_kj: 120.0,
                cop: 4.5,
                lifetime_y: 0.0,
            },
            metrics_jsonl: Vec::new(),
        };
        let shuffled = vec![make(2), make(0), make(1)];
        let sorted = vec![make(0), make(1), make(2)];
        assert_eq!(report_csv(&shuffled), report_csv(&sorted));
        assert_eq!(report_jsonl(&shuffled), report_jsonl(&sorted));
        assert_eq!(summary_table(&shuffled), summary_table(&sorted));
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-sweep-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn kill_specs_parse_and_reject_garbage() {
        let k = parse_kill("2:15").unwrap();
        assert_eq!((k.index, k.minute, k.attempts), (2, 15, 1));
        let k = parse_kill("0:3:4").unwrap();
        assert_eq!((k.index, k.minute, k.attempts), (0, 3, 4));
        for bad in ["", "3", "a:1", "1:b", "1:2:3:4"] {
            assert!(parse_kill(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sweeps_self_heal_from_injected_kills_with_identical_reports() {
        let spec = SweepSpec {
            scenario: Scenario::Trial,
            seeds: vec![11, 12],
            minutes: 3,
            grid: vec![Vec::new()],
        };
        let specs = spec.expand();
        let baseline = execute_plan(
            &specs,
            &ExecutePlan {
                jobs: 2,
                ..ExecutePlan::default()
            },
        );
        assert_eq!(baseline.results.len(), 2);

        // Kill run 1 at minute 2 on its first attempt: the retry resumes
        // from the minute-1 checkpoint and must converge to the same bytes.
        let plan = ExecutePlan {
            jobs: 2,
            checkpoints: Some(SweepCheckpoints {
                root: scratch("self-heal"),
                every_s: 60,
                resume: true,
            }),
            retries: 2,
            backoff_ms: 0,
            kills: vec![KillRule {
                index: 1,
                minute: 2,
                attempts: 1,
            }],
        };
        let healed = execute_plan(&specs, &plan);
        assert!(healed.quarantined.is_empty(), "{:?}", healed.quarantined);
        assert!(healed.retried >= 1, "the kill must have forced a retry");
        assert!(healed.resumed >= 1, "the retry must resume, not restart");
        assert_eq!(report_csv(&healed.results), report_csv(&baseline.results));
        assert_eq!(
            report_jsonl(&healed.results),
            report_jsonl(&baseline.results)
        );
        for (a, b) in healed.results.iter().zip(&baseline.results) {
            assert_eq!(a.metrics_jsonl, b.metrics_jsonl, "{} diverged", a.label);
        }
    }

    #[test]
    fn runs_that_fail_every_attempt_are_quarantined() {
        let spec = SweepSpec {
            scenario: Scenario::Trial,
            seeds: vec![21, 22],
            minutes: 1,
            grid: vec![Vec::new()],
        };
        let plan = ExecutePlan {
            jobs: 2,
            retries: 1,
            kills: vec![KillRule {
                index: 0,
                minute: 1,
                attempts: u32::MAX,
            }],
            ..ExecutePlan::default()
        };
        let outcome = execute_plan(&spec.expand(), &plan);
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(outcome.results[0].index, 1);
        assert_eq!(outcome.quarantined.len(), 1);
        let q = &outcome.quarantined[0];
        assert_eq!((q.index, q.attempts), (0, 2));
        assert!(q.error.contains("killed"), "unexpected error: {}", q.error);
    }

    #[test]
    fn restarted_sweeps_serve_completed_runs_from_done_records() {
        let spec = SweepSpec {
            scenario: Scenario::Trial,
            seeds: vec![31],
            minutes: 1,
            grid: vec![Vec::new()],
        };
        let specs = spec.expand();
        let checkpoints = Some(SweepCheckpoints {
            root: scratch("done-cache"),
            every_s: 600,
            resume: true,
        });
        let plan = ExecutePlan {
            jobs: 1,
            checkpoints,
            ..ExecutePlan::default()
        };
        let first = execute_plan(&specs, &plan);
        assert_eq!(first.cached, 0);
        let second = execute_plan(&specs, &plan);
        assert_eq!(second.cached, 1, "the restart must not re-run the sweep");
        assert_eq!(
            report_csv(&second.results),
            report_csv(&first.results),
            "cached results must merge to identical bytes"
        );
        assert_eq!(
            second.results[0].metrics_jsonl,
            first.results[0].metrics_jsonl
        );
    }
}
