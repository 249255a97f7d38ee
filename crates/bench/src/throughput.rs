//! Simulation-throughput benchmark: sim-seconds per wall-second.
//!
//! ROADMAP item 3 targets ≥10k× real time per core; this module is the
//! measuring stick. It runs the bundled closed-loop afternoon trial
//! (the same construction `bzctl trial` uses) with telemetry disabled —
//! the configuration campus-scale batch studies would run in — times it
//! against the wall clock, and renders the result as a `BENCH_*.json`
//! record so CI can hold a regression floor.
//!
//! The measured simulation is bit-identical to the metered one: the
//! speed knobs this crate benchmarks (batched psychrometric kernels,
//! buffer reuse, batched event pops) never change what the simulation
//! computes, only how fast it computes it.

use std::path::Path;
use std::time::Instant;

use bz_core::checkpoint::{Checkpointer, RunIdentity};
use bz_core::system::{BubbleZeroSystem, SystemConfig};
use bz_simcore::NoiseKernel;
use bz_thermal::disturbance::DisturbanceSchedule;
use bz_thermal::plant::PlantConfig;

/// Default simulated minutes for one measured pass. Long enough that a
/// release build takes several hundred milliseconds of wall time, so
/// timer noise and CPU frequency ramp-up stay small against the run.
pub const DEFAULT_SIM_MINUTES: u64 = 1_920;

/// Default seed; matches the `bzctl trial` default so the measured run
/// is the bundled trial scenario.
pub const DEFAULT_SEED: u64 = 0x5EED_0001;

/// One measured throughput result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Simulated seconds advanced during the measured pass.
    pub sim_seconds: u64,
    /// Wall-clock seconds the measured pass took.
    pub wall_seconds: f64,
    /// The headline number: simulated seconds per wall second.
    pub sim_per_wall: f64,
}

impl ThroughputReport {
    /// Renders the report as the `BENCH_0007.json` record. `baseline`
    /// is the pre-optimization sim-per-wall measured with this same
    /// harness, when known; the speedup field is derived from it.
    #[must_use]
    pub fn to_json(&self, baseline: Option<f64>) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"throughput\",\n  \"scenario\": \"trial\",\n  \
             \"seed\": {},\n  \"sim_seconds\": {},\n  \"wall_seconds\": {:.6},\n  \
             \"sim_per_wall\": {:.1}",
            self.seed, self.sim_seconds, self.wall_seconds, self.sim_per_wall,
        );
        if let Some(baseline) = baseline {
            json += &format!(
                ",\n  \"baseline_sim_per_wall\": {:.1},\n  \"speedup_vs_baseline\": {:.2}",
                baseline,
                self.sim_per_wall / baseline,
            );
        }
        json += "\n}\n";
        json
    }

    /// The one-line summary the CLI prints and CI greps.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "throughput: {} sim-seconds in {:.3} wall-seconds = {:.0} sim-s/wall-s",
            self.sim_seconds, self.wall_seconds, self.sim_per_wall,
        )
    }
}

/// Builds the bundled trial system (identical to `bzctl trial`). The
/// noise kernel follows the process default (`BZ_NOISE`, else V2).
#[must_use]
pub fn trial_system(seed: u64) -> BubbleZeroSystem {
    trial_system_with_noise(seed, NoiseKernel::from_env())
}

/// Builds the bundled trial system with an explicitly pinned noise
/// kernel, for A/B measurements that must not depend on the environment.
#[must_use]
pub fn trial_system_with_noise(seed: u64, noise: NoiseKernel) -> BubbleZeroSystem {
    let plant = PlantConfig::bubble_zero_lab()
        .with_seed(seed ^ 0x9E37)
        .with_noise(noise)
        .with_disturbances(DisturbanceSchedule::figure10_afternoon());
    let config = SystemConfig {
        seed,
        ..SystemConfig::paper_deployment(plant)
    };
    BubbleZeroSystem::new(config)
}

/// Runs the bundled trial scenario for `sim_minutes` simulated minutes
/// and reports sim-seconds per wall-second. An untimed warmup pass of
/// the same length (on a throwaway system) pages code and allocator
/// state in and lets the CPU reach its sustained frequency before the
/// clock starts — without it, short measured passes mostly time the
/// frequency governor, not the simulator.
#[must_use]
pub fn measure_trial(sim_minutes: u64, seed: u64) -> ThroughputReport {
    measure_trial_with_noise(sim_minutes, seed, NoiseKernel::from_env())
}

/// [`measure_trial`] with the noise kernel pinned explicitly.
#[must_use]
pub fn measure_trial_with_noise(
    sim_minutes: u64,
    seed: u64,
    noise: NoiseKernel,
) -> ThroughputReport {
    let mut warmup = trial_system_with_noise(seed, noise);
    warmup.run_seconds((sim_minutes * 60).max(120));
    std::hint::black_box(warmup.now());

    ThroughputReport::from_pass(timed_pass(sim_minutes, seed, noise), seed, sim_minutes)
}

/// One timed measurement pass (no warmup); returns wall seconds.
fn timed_pass(sim_minutes: u64, seed: u64, noise: NoiseKernel) -> f64 {
    let mut system = trial_system_with_noise(seed, noise);
    let sim_seconds = sim_minutes * 60;
    let start = Instant::now();
    system.run_seconds(sim_seconds);
    let wall = start.elapsed();
    // Keep the run observable so the optimizer cannot discard it.
    let _anchor = std::hint::black_box(system.now());
    wall.as_secs_f64().max(1e-9)
}

impl ThroughputReport {
    fn from_pass(wall_seconds: f64, seed: u64, sim_minutes: u64) -> Self {
        let sim_seconds = sim_minutes * 60;
        ThroughputReport {
            seed,
            sim_seconds,
            wall_seconds,
            sim_per_wall: sim_seconds as f64 / wall_seconds,
        }
    }
}

/// Median of a sample set (mean of the middle pair for even counts).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Interleaved A/B throughput comparison between the two noise kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct AbReport {
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Simulated seconds per measured pass.
    pub sim_seconds: u64,
    /// Per-pass sim-per-wall samples for the V1 kernel.
    pub v1_samples: Vec<f64>,
    /// Per-pass sim-per-wall samples for the V2 kernel.
    pub v2_samples: Vec<f64>,
}

impl AbReport {
    /// Median V1 throughput across the interleaved passes.
    #[must_use]
    pub fn v1_median(&self) -> f64 {
        median(&self.v1_samples)
    }

    /// Median V2 throughput across the interleaved passes.
    #[must_use]
    pub fn v2_median(&self) -> f64 {
        median(&self.v2_samples)
    }

    /// The headline number: the default (V2) kernel's median.
    #[must_use]
    pub fn sim_per_wall(&self) -> f64 {
        self.v2_median()
    }

    /// Renders the A/B record. The `sim_per_wall` field carries the V2
    /// (default-kernel) median so existing tooling reads the headline
    /// number from the same place as a single-version record.
    #[must_use]
    pub fn to_json(&self, baseline: Option<f64>) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"throughput-ab\",\n  \"scenario\": \"trial\",\n  \
             \"seed\": {},\n  \"sim_seconds\": {},\n  \"pairs\": {},\n  \
             \"v1_median_sim_per_wall\": {:.1},\n  \"v2_median_sim_per_wall\": {:.1},\n  \
             \"v2_speedup_vs_v1\": {:.3},\n  \"sim_per_wall\": {:.1}",
            self.seed,
            self.sim_seconds,
            self.v1_samples.len(),
            self.v1_median(),
            self.v2_median(),
            self.v2_median() / self.v1_median(),
            self.sim_per_wall(),
        );
        if let Some(baseline) = baseline {
            json += &format!(
                ",\n  \"baseline_sim_per_wall\": {:.1},\n  \"speedup_vs_baseline\": {:.2}",
                baseline,
                self.sim_per_wall() / baseline,
            );
        }
        json += "\n}\n";
        json
    }

    /// The multi-line summary the CLI prints.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "throughput A/B ({} interleaved pairs, {} sim-seconds each):\n  \
             v1 median: {:.0} sim-s/wall-s\n  \
             v2 median: {:.0} sim-s/wall-s ({:.2}x vs v1)",
            self.v1_samples.len(),
            self.sim_seconds,
            self.v1_median(),
            self.v2_median(),
            self.v2_median() / self.v1_median(),
        )
    }
}

/// Runs `pairs` interleaved V1/V2 pass pairs and reports per-version
/// medians. Interleaving (v1, v2, v1, v2, ...) instead of blocking
/// (v1 x N then v2 x N) spreads thermal drift and background load evenly
/// across both versions, so the ratio is trustworthy even on a noisy
/// host. One full-length untimed warmup precedes the first timed pass.
#[must_use]
pub fn measure_ab(sim_minutes: u64, seed: u64, pairs: usize) -> AbReport {
    let pairs = pairs.max(1);
    let mut warmup = trial_system_with_noise(seed, NoiseKernel::V2);
    warmup.run_seconds((sim_minutes * 60).max(120));
    std::hint::black_box(warmup.now());

    let mut v1_samples = Vec::with_capacity(pairs);
    let mut v2_samples = Vec::with_capacity(pairs);
    let sim_seconds = sim_minutes * 60;
    for _ in 0..pairs {
        let wall = timed_pass(sim_minutes, seed, NoiseKernel::V1);
        v1_samples.push(sim_seconds as f64 / wall);
        let wall = timed_pass(sim_minutes, seed, NoiseKernel::V2);
        v2_samples.push(sim_seconds as f64 / wall);
    }
    AbReport {
        seed,
        sim_seconds,
        v1_samples,
        v2_samples,
    }
}

/// Like [`measure_trial`], but with crash-safe checkpointing in the
/// timed loop: every `every_s` simulated seconds the full system state
/// is snapshotted and written atomically into `dir`, exactly as `bzctl
/// trial --checkpoint-every` does. Comparing this against the plain
/// measurement puts a number on the checkpointing tax.
///
/// # Errors
///
/// Returns a message when a checkpoint cannot be written.
pub fn measure_trial_with_checkpoints(
    sim_minutes: u64,
    seed: u64,
    every_s: u64,
    dir: &Path,
) -> Result<ThroughputReport, String> {
    let every_s = every_s.max(1);
    let id = RunIdentity::new(
        "bench",
        &format!("bench seed={seed}"),
        NoiseKernel::from_env(),
    );
    let mut checkpoints =
        Checkpointer::create(dir, id, Some(every_s)).map_err(|e| e.to_string())?;
    let mut warmup = trial_system(seed);
    warmup.run_seconds((sim_minutes * 60).max(120));
    std::hint::black_box(warmup.now());

    let mut system = trial_system(seed);
    let sim_seconds = sim_minutes * 60;
    let start = Instant::now();
    let mut done = 0;
    while done < sim_seconds {
        let step = every_s.min(sim_seconds - done);
        system.run_seconds(step);
        done += step;
        checkpoints
            .after_step(system.now().as_millis(), |w| system.save_state(w))
            .map_err(|e| e.to_string())?;
    }
    let wall = start.elapsed();
    let _anchor = std::hint::black_box(system.now());
    let wall_seconds = wall.as_secs_f64().max(1e-9);
    Ok(ThroughputReport {
        seed,
        sim_seconds,
        wall_seconds,
        sim_per_wall: sim_seconds as f64 / wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_short_run() {
        let report = measure_trial(1, DEFAULT_SEED);
        assert_eq!(report.sim_seconds, 60);
        assert!(report.wall_seconds > 0.0);
        assert!(report.sim_per_wall > 0.0);
    }

    #[test]
    fn json_carries_the_headline_fields() {
        let report = ThroughputReport {
            seed: 7,
            sim_seconds: 600,
            wall_seconds: 0.05,
            sim_per_wall: 12_000.0,
        };
        let json = report.to_json(None);
        assert!(json.contains("\"bench\": \"throughput\""));
        assert!(json.contains("\"sim_per_wall\": 12000.0"));
        assert!(!json.contains("baseline"));
        let with_base = report.to_json(Some(4_000.0));
        assert!(with_base.contains("\"baseline_sim_per_wall\": 4000.0"));
        assert!(with_base.contains("\"speedup_vs_baseline\": 3.00"));
    }

    #[test]
    fn checkpointed_measurement_leaves_a_restorable_file_behind() {
        let dir = std::env::temp_dir().join("bz-bench-ckpt-measure");
        std::fs::remove_dir_all(&dir).ok();
        let report = measure_trial_with_checkpoints(2, DEFAULT_SEED, 60, &dir).unwrap();
        assert_eq!(report.sim_seconds, 120);
        let scan = bz_state::CheckpointDir::open(&dir).latest_good().unwrap();
        let (_, checkpoint) = scan.best.expect("a checkpoint was written");
        assert_eq!(checkpoint.meta.kind, "bench");
        assert_eq!(checkpoint.meta.tick_ms, 120_000);
        let mut restored = trial_system(DEFAULT_SEED);
        restored
            .load_state(&mut bz_state::Reader::new(&checkpoint.payload))
            .unwrap();
        assert_eq!(restored.now().as_millis(), 120_000);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ab_measurement_collects_one_sample_per_version_per_pair() {
        let report = measure_ab(1, DEFAULT_SEED, 2);
        assert_eq!(report.sim_seconds, 60);
        assert_eq!(report.v1_samples.len(), 2);
        assert_eq!(report.v2_samples.len(), 2);
        assert!(report.v1_median() > 0.0);
        assert!(report.v2_median() > 0.0);
    }

    #[test]
    fn ab_json_carries_both_medians_and_the_headline_field() {
        let report = AbReport {
            seed: 7,
            sim_seconds: 600,
            v1_samples: vec![10_000.0, 11_000.0, 12_000.0],
            v2_samples: vec![20_000.0, 22_000.0, 24_000.0],
        };
        let json = report.to_json(Some(11_000.0));
        assert!(json.contains("\"bench\": \"throughput-ab\""));
        assert!(json.contains("\"v1_median_sim_per_wall\": 11000.0"));
        assert!(json.contains("\"v2_median_sim_per_wall\": 22000.0"));
        assert!(json.contains("\"v2_speedup_vs_v1\": 2.000"));
        assert!(json.contains("\"sim_per_wall\": 22000.0"));
        assert!(json.contains("\"speedup_vs_baseline\": 2.00"));
        assert!(report.summary().contains("v2 median: 22000"));
    }

    #[test]
    fn summary_line_is_greppable() {
        let report = ThroughputReport {
            seed: 7,
            sim_seconds: 600,
            wall_seconds: 0.05,
            sim_per_wall: 12_000.0,
        };
        assert!(report
            .summary_line()
            .starts_with("throughput: 600 sim-seconds"));
    }
}
