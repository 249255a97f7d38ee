//! Full-system benchmarks: one plant step, one closed-loop second, and a
//! complete simulated minute of the deployed system, with telemetry off
//! and on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use bz_core::system::{BubbleZeroSystem, SystemConfig};
use bz_psychro::Volts;
use bz_simcore::SimDuration;
use bz_thermal::airbox::FanLevel;
use bz_thermal::plant::{
    ActuatorCommands, AirboxActuation, PlantConfig, RadiantLoopCommand, ThermalPlant,
};

fn active_commands() -> ActuatorCommands {
    ActuatorCommands {
        radiant: [RadiantLoopCommand {
            supply_voltage: Volts::new(3.0),
            recycle_voltage: Volts::new(2.0),
        }; 2],
        airboxes: [AirboxActuation {
            coil_pump_voltage: Volts::new(3.5),
            fan: FanLevel::L3,
            flap_open: true,
        }; 4],
    }
}

fn bench_plant_step(c: &mut Criterion) {
    c.bench_function("system/plant_step_1s", |b| {
        let mut plant = ThermalPlant::new(PlantConfig::bubble_zero_lab());
        let commands = active_commands();
        b.iter(|| {
            plant.step(SimDuration::from_secs(1), &commands);
            black_box(plant.now())
        });
    });
}

fn bench_closed_loop_second(c: &mut Criterion) {
    c.bench_function("system/closed_loop_second", |b| {
        let mut system = BubbleZeroSystem::new(SystemConfig::paper_deployment(
            PlantConfig::bubble_zero_lab(),
        ));
        b.iter(|| {
            system.step_second();
            black_box(system.now())
        });
    });
}

fn bench_closed_loop_minute(c: &mut Criterion) {
    let mut group = c.benchmark_group("system/closed_loop_minute");
    group.sample_size(10);
    group.bench_function("fresh_system", |b| {
        b.iter_batched(
            || {
                BubbleZeroSystem::new(SystemConfig::paper_deployment(
                    PlantConfig::bubble_zero_lab(),
                ))
            },
            |mut system| {
                system.run_seconds(60);
                black_box(system.now())
            },
            BatchSize::SmallInput,
        );
    });
    // The minute a trial tenant steps per request: an isolated, enabled
    // handle, a system past its pull-down, and the per-minute counter
    // sample. Its `telemetry_off` twin is the same system with a disabled
    // handle. Each twin steps both systems a minute in turn, so the two
    // stay the same age, and reports its own minutes. Their Criterion
    // means come from different stretches of host time; the on/off ratio
    // printed after them sums every minute of both, each run next to its
    // twin, so it is the one to read.
    let aged = |obs: bz_obs::Handle| {
        let mut system = BubbleZeroSystem::with_obs(
            SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab()),
            obs,
        );
        system.run_seconds(10 * 60);
        system
    };
    let mut systems = [
        aged(bz_obs::Handle::isolated()),
        aged(bz_obs::Handle::new()),
    ];
    let mut totals = [Duration::ZERO; 2];
    for (reported, name) in ["telemetry_on", "telemetry_off"].into_iter().enumerate() {
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut spent = [Duration::ZERO; 2];
                for i in 0..iters {
                    let first = (i % 2) as usize;
                    for variant in [first, 1 - first] {
                        let system = &mut systems[variant];
                        let start = Instant::now();
                        system.run_seconds(60);
                        system.obs().record_counters(system.now().as_millis());
                        spent[variant] += start.elapsed();
                    }
                }
                totals[0] += spent[0];
                totals[1] += spent[1];
                spent[reported]
            });
        });
    }
    group.finish();
    println!(
        "system/closed_loop_minute: telemetry on/off {:.3}x over interleaved minutes",
        totals[0].as_secs_f64() / totals[1].as_secs_f64()
    );
}

criterion_group!(
    benches,
    bench_plant_step,
    bench_closed_loop_second,
    bench_closed_loop_minute
);
criterion_main!(benches);
