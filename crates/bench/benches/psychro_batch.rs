//! Scalar vs batch psychrometric kernels.
//!
//! `bz_psychro::batch::dry_air_density_batch` evaluates all four
//! subspaces per call when the plant gathers its zone batch. This
//! benchmark puts it side by side with four scalar calls on the same
//! zone-sized inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bz_psychro::batch::dry_air_density_batch;
use bz_psychro::{dry_air_density, Celsius};

/// Four-subspace temperature slice, matching the plant's batch width.
const TEMPS: [f64; 4] = [18.5, 24.0, 28.9, 31.2];

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

criterion_group!(benches, bench_density);
criterion_main!(benches);
