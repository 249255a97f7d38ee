//! Scalar vs batch psychrometric kernels.
//!
//! The batch kernels (`bz_psychro::batch`) step all four subspaces per
//! call on the simulation hot path. These benchmarks put them side by
//! side with four scalar calls on the same zone-sized inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bz_psychro::batch::{
    dry_air_density_batch, moist_air_enthalpy_batch, saturation_vapor_pressure_batch,
};
use bz_psychro::{
    dry_air_density, moist_air_enthalpy, saturation_vapor_pressure, Celsius, KgPerKg,
};

/// Four-subspace temperature slice, matching the plant's batch width.
const TEMPS: [f64; 4] = [18.5, 24.0, 28.9, 31.2];
const RATIOS: [f64; 4] = [0.009, 0.0136, 0.0233, 0.0258];

fn bench_saturation_pressure(c: &mut Criterion) {
    let mut group = c.benchmark_group("psychro_batch/saturation_pressure");
    group.bench_function("scalar_x4", |b| {
        b.iter(|| {
            let mut out = [0.0f64; 4];
            for (t, o) in black_box(&TEMPS).iter().zip(out.iter_mut()) {
                *o = saturation_vapor_pressure(Celsius::new(*t)).get();
            }
            out
        })
    });
    group.bench_function("batch_x4", |b| {
        b.iter(|| {
            let mut out = [0.0f64; 4];
            saturation_vapor_pressure_batch(black_box(&TEMPS), &mut out);
            out
        })
    });
    group.finish();
}

fn bench_enthalpy(c: &mut Criterion) {
    let mut group = c.benchmark_group("psychro_batch/enthalpy");
    group.bench_function("scalar_x4", |b| {
        b.iter(|| {
            let mut out = [0.0f64; 4];
            for i in 0..4 {
                out[i] = moist_air_enthalpy(
                    Celsius::new(black_box(TEMPS[i])),
                    KgPerKg::new(black_box(RATIOS[i])),
                );
            }
            out
        })
    });
    group.bench_function("batch_x4", |b| {
        b.iter(|| {
            let mut out = [0.0f64; 4];
            moist_air_enthalpy_batch(black_box(&TEMPS), black_box(&RATIOS), &mut out);
            out
        })
    });
    group.finish();
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("psychro_batch/dry_air_density");
    group.bench_function("scalar_x4", |b| {
        b.iter(|| {
            let mut out = [0.0f64; 4];
            for (t, o) in black_box(&TEMPS).iter().zip(out.iter_mut()) {
                *o = dry_air_density(Celsius::new(*t));
            }
            out
        })
    });
    group.bench_function("batch_x4", |b| {
        b.iter(|| {
            let mut out = [0.0f64; 4];
            dry_air_density_batch(black_box(&TEMPS), &mut out);
            out
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_saturation_pressure,
    bench_enthalpy,
    bench_density
);
criterion_main!(benches);
