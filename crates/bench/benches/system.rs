//! Full-system benchmarks: one plant step, one closed-loop second, and a
//! complete simulated minute of the deployed system, with telemetry off
//! and on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

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
    // sample.
    group.bench_function("telemetry_on", |b| {
        let obs = bz_obs::Handle::isolated();
        let mut system = BubbleZeroSystem::with_obs(
            SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab()),
            obs.clone(),
        );
        system.run_seconds(10 * 60);
        b.iter(|| {
            system.run_seconds(60);
            obs.record_counters(system.now().as_millis());
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plant_step,
    bench_closed_loop_second,
    bench_closed_loop_minute
);
criterion_main!(benches);
