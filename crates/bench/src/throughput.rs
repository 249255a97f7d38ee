//! Simulation-throughput benchmark: sim-seconds per wall-second.
//!
//! This module is what `bzctl bench throughput` measures with. It runs
//! the bundled closed-loop afternoon trial (the same construction `bzctl
//! trial` uses) with telemetry disabled — the configuration batch studies
//! run in — times it against the wall clock, and renders the result as a
//! `BENCH_*.json` record so CI can hold a regression floor.
//!
//! The measured simulation is bit-identical to the metered one: the
//! speed knobs this crate benchmarks (sibling-skip sensor reads,
//! buffer reuse, batched event pops) never change what the simulation
//! computes, only how fast it computes it.

use std::time::Instant;

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

/// Builds the bundled trial system (identical to `bzctl trial`) with an
/// explicitly pinned noise kernel, for measurements that must not depend
/// on the environment.
#[must_use]
pub fn trial_system_with_noise(seed: u64, noise: NoiseKernel) -> BubbleZeroSystem {
    let plant = PlantConfig::bubble_zero_lab()
        .with_noise(noise)
        .with_disturbances(DisturbanceSchedule::figure10_afternoon());
    BubbleZeroSystem::new(SystemConfig::paper_deployment(plant).with_run_seed(seed))
}

/// Runs the bundled trial scenario for `sim_minutes` simulated minutes
/// and reports sim-seconds per wall-second. The noise kernel follows the
/// process default (`BZ_NOISE`, else V2). An untimed warmup pass of the
/// same length (on a throwaway system) pages code and allocator state in
/// and lets the CPU reach its sustained frequency before the clock
/// starts — without it, short measured passes mostly time the frequency
/// governor, not the simulator.
#[must_use]
pub fn measure_trial(sim_minutes: u64, seed: u64) -> ThroughputReport {
    let noise = NoiseKernel::from_env();
    let sim_seconds = sim_minutes * 60;
    let mut warmup = trial_system_with_noise(seed, noise);
    warmup.run_seconds(sim_seconds.max(120));
    std::hint::black_box(warmup.now());

    let mut system = trial_system_with_noise(seed, noise);
    let start = Instant::now();
    system.run_seconds(sim_seconds);
    let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
    // Keep the run observable so the optimizer cannot discard it.
    std::hint::black_box(system.now());
    ThroughputReport {
        seed,
        sim_seconds,
        wall_seconds,
        sim_per_wall: sim_seconds as f64 / wall_seconds,
    }
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
