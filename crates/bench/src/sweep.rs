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
//! Each run is a [`TenantSession`], the closed loop a `bz-serve` trial
//! tenant steps, driven to its end by [`checkpoint::drive`]. A sweep
//! crashes and resumes like every other resumable run: given a
//! checkpoint root, [`execute_resumable`] keeps each run's snapshots in
//! its own `run-NNN/` directory under the shared [`bz_core::checkpoint`]
//! policy (cadence, `--resume`, `--crash-at`) and takes its last snapshot
//! at the run's end, so resuming a finished run steps nothing. A resumed
//! run's result is byte-identical to an uninterrupted run's.
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
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bz_core::checkpoint::{self, Checkpointer, CheckpointerError, Policy, RunIdentity};
use bz_core::session::{Session, TenantSession};
use bz_core::system::{BtMode, BubbleZeroSystem, SystemConfig};
use bz_predict::strategy::{MpcConfig, MpcStrategy};
use bz_simcore::{NoiseKernel, Rng, SimDuration, SimTime};
use bz_thermal::disturbance::DisturbanceSchedule;
use bz_thermal::occupancy::{OccupancyChange, OccupancySchedule};
use bz_thermal::plant::{PlantConfig, MAX_SCHEDULE_ENTRIES};
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
/// [`OCCUPANCY_PERIOD_S`] period over the run. Refuses a run whose
/// periods could hold more than [`MAX_SCHEDULE_ENTRIES`] changes (eight
/// per period).
fn occupancy_for_rate(rate: f64, minutes: u64) -> Result<OccupancySchedule, String> {
    let total_s = minutes as f64 * 60.0;
    let occupied_s = rate * OCCUPANCY_PERIOD_S;
    let mut changes = Vec::new();
    let periods = (total_s / OCCUPANCY_PERIOD_S).ceil() as u64;
    if periods.saturating_mul(8) > MAX_SCHEDULE_ENTRIES {
        return Err(format!(
            "occupancy-rate over {minutes} minutes walks {periods} periods of up to 8 \
             changes, past the {MAX_SCHEDULE_ENTRIES}-entry schedule cap"
        ));
    }
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
    Ok(OccupancySchedule::new(changes))
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
                config.plant.occupancy = occupancy_for_rate(rate, minutes)?;
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
/// This is the single construction recipe shared by the sweep executor,
/// `bzctl trial` and the `bzctl serve` tenant factory, so a tenant driven
/// over the wire is the same simulation as the offline run.
///
/// # Errors
///
/// Returns a message for invalid grid parameters, and for a run length
/// whose milliseconds overflow or whose schedule would hold more than
/// [`MAX_SCHEDULE_ENTRIES`] entries.
pub fn build_system(spec: &RunSpec, obs: bz_obs::Handle) -> Result<BubbleZeroSystem, String> {
    let plant = match spec.scenario {
        Scenario::Trial => PlantConfig::bubble_zero_lab()
            .with_disturbances(DisturbanceSchedule::figure10_afternoon()),
        Scenario::Network => PlantConfig::bubble_zero_lab(),
        Scenario::Endurance => {
            let total = spec
                .minutes
                .checked_mul(60_000)
                .map(SimDuration::from_millis)
                .ok_or_else(|| format!("{} minutes overflow the clock", spec.minutes))?;
            let events = DisturbanceSchedule::periodic_event_count(total);
            if events > MAX_SCHEDULE_ENTRIES {
                return Err(format!(
                    "{} minutes schedule {events} disturbance events, \
                     past the {MAX_SCHEDULE_ENTRIES}-entry schedule cap",
                    spec.minutes
                ));
            }
            let mut rng = Rng::seed_from(spec.seed ^ 0x7DA7);
            PlantConfig::bubble_zero_lab()
                .with_disturbances(DisturbanceSchedule::periodic_events(total, &mut rng))
        }
    };
    let mut config = SystemConfig::paper_deployment(plant).with_run_seed(spec.seed);
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
    run_resumable(spec, None).map(|(result, _)| result)
}

/// Executes one run, checkpointed as [`execute_resumable`] describes.
fn run_resumable(
    spec: &RunSpec,
    checkpoints: Option<(&Path, Policy)>,
) -> Result<(RunResult, u64), String> {
    let obs = bz_obs::Handle::isolated();
    let mut run = TenantSession::new(build_system(spec, obs.clone())?, obs.clone(), spec.minutes);
    let mut checkpointer = match checkpoints {
        Some((root, policy)) => {
            let label = format!("{} minutes={} payload=session", spec.label(), spec.minutes);
            let id = RunIdentity::new("sweep-run", &label, NoiseKernel::from_env());
            let dir = root.join(format!("run-{:03}", spec.index));
            Some(Checkpointer::create(dir, id, policy).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let tick_ms = match checkpointer
        .as_mut()
        .map(|c| c.resume(|r| run.load_state(r)))
    {
        Some(Ok(resumed)) => resumed.tick_ms,
        Some(Err(CheckpointerError::Foreign(..))) | None => None,
        Some(Err(e)) => return Err(e.to_string()),
    };
    checkpoint::drive(&mut run, checkpointer.as_mut()).map_err(|e| e.to_string())?;
    let system = run.system();
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
    Ok((result, tick_ms.map_or(0, |tick_ms| tick_ms / 60_000)))
}

/// Executes every run across `jobs` worker threads, work-stealing from a
/// shared queue. The output is independent of scheduling: each run
/// records into its own isolated registry, and results are placed by
/// position, not by completion order.
///
/// With checkpoints, given `(root, policy)`, each run keeps its snapshots
/// in `run-NNN/` below `root`, resumes and crashes as `policy` says, and
/// takes its last snapshot at its end. A snapshot of another identity
/// (spec, duration or noise kernel) is never restored: that run starts
/// fresh. Returns, in spec order, each run's result and the simulated
/// minute it resumed from (0 when fresh), or its error for invalid grid
/// parameters, checkpoint failures and the injected crash. A failed run
/// does not stop the others.
#[must_use]
pub fn execute_resumable(
    specs: &[RunSpec],
    jobs: usize,
    checkpoints: Option<(&Path, Policy)>,
) -> Vec<Result<(RunResult, u64), String>> {
    let jobs = jobs.clamp(1, specs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots = Mutex::new(specs.iter().map(|_| None).collect::<Vec<_>>());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let outcome = run_resumable(spec, checkpoints);
                slots.lock().expect("sweep state poisoned")[i] = Some(outcome);
            });
        }
    });
    let slots = slots.into_inner().expect("sweep state poisoned");
    slots
        .into_iter()
        .map(|slot| slot.expect("every job completed"))
        .collect()
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
        let schedule = occupancy_for_rate(0.5, 180).unwrap();
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
        let empty = occupancy_for_rate(0.0, 180).unwrap();
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
        let results: Vec<RunResult> = execute_resumable(&spec.expand(), 2, None)
            .into_iter()
            .map(|outcome| outcome.map(|(result, _)| result))
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

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bz-sweep-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshots_of_the_earlier_payload_layout_start_fresh() {
        let spec = RunSpec {
            index: 0,
            scenario: Scenario::Trial,
            seed: 5,
            minutes: 3,
            params: Vec::new(),
        };
        // Before sweep runs were tenant sessions, a run sealed its system
        // alone under this label.
        let root = scratch("earlier-layout");
        let label = format!("{} minutes=3", spec.label());
        let id = RunIdentity::new("sweep-run", &label, NoiseKernel::from_env());
        let mut system = build_system(&spec, bz_obs::Handle::isolated()).unwrap();
        system.run_seconds(60);
        Checkpointer::create(root.join("run-000"), id, Policy::default())
            .unwrap()
            .finish(60_000, |w| system.save_state(w))
            .unwrap();
        let resume = Policy {
            resume: true,
            ..Policy::default()
        };
        let [Ok((resumed, 0))] =
            &execute_resumable(std::slice::from_ref(&spec), 1, Some((&root, resume)))[..]
        else {
            panic!("the run must start fresh");
        };
        let fresh = run_one(&spec).unwrap();
        assert_eq!(resumed.metrics_jsonl, fresh.metrics_jsonl);
        assert_eq!(
            report_jsonl(std::slice::from_ref(resumed)),
            report_jsonl(&[fresh])
        );
    }

    #[test]
    fn crashed_runs_resume_to_the_bytes_of_an_uninterrupted_sweep() {
        // Run 0 ends before the crash time, run 1 does not. The cadence
        // leaves both ends to the final snapshot.
        let specs: Vec<RunSpec> = [(11, 1), (12, 3)]
            .into_iter()
            .enumerate()
            .map(|(index, (seed, minutes))| RunSpec {
                index,
                scenario: Scenario::Trial,
                seed,
                minutes,
                params: Vec::new(),
            })
            .collect();
        let baseline: Vec<RunResult> = execute_resumable(&specs, 2, None)
            .into_iter()
            .map(|outcome| outcome.map(|(result, _)| result))
            .collect::<Result<_, _>>()
            .unwrap();
        let root = scratch("crash-resume");
        let crash = Policy {
            every_s: Some(120),
            resume: false,
            crash_at_s: Some(120),
        };
        let crashed = execute_resumable(&specs, 2, Some((&root, crash)));
        assert!(crashed[0].is_ok(), "{:?}", crashed[0].as_ref().err());
        let err = crashed[1].as_ref().unwrap_err();
        assert!(err.contains("crash injected at t=120s"), "{err}");

        let resume = Policy {
            every_s: Some(120),
            resume: true,
            crash_at_s: None,
        };
        // The first pass finishes run 1 from minute 2; after it, both runs
        // resume at their end and step nothing.
        for expected_starts in [[1, 2], [1, 3]] {
            let resumed: Vec<(RunResult, u64)> =
                execute_resumable(&specs, 2, Some((&root, resume)))
                    .into_iter()
                    .collect::<Result<_, _>>()
                    .unwrap();
            let starts: Vec<u64> = resumed.iter().map(|(_, start)| *start).collect();
            assert_eq!(starts, expected_starts);
            let results: Vec<RunResult> = resumed.into_iter().map(|(r, _)| r).collect();
            assert_eq!(report_csv(&results), report_csv(&baseline));
            for (a, b) in results.iter().zip(&baseline) {
                assert_eq!(a.summary, b.summary, "{} diverged", a.label);
                assert_eq!(a.metrics_jsonl, b.metrics_jsonl, "{} diverged", a.label);
            }
        }
    }
}
