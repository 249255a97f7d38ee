//! Noise-kernel microbenchmarks: V1 (Box–Muller) vs V2 (ziggurat)
//! standard-normal draws, plus the stride skip the single-channel sensor
//! reads use. These are the numbers behind the fast-path table in
//! docs/PERFORMANCE.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bz_simcore::{NoiseKernel, Rng};

fn bench_standard_normal(c: &mut Criterion) {
    for kernel in [NoiseKernel::V1, NoiseKernel::V2] {
        c.bench_function(&format!("noise/{kernel}_standard_normal_1k"), |b| {
            let mut rng = Rng::seed_from(7).with_kernel(kernel);
            b.iter(|| {
                let mut acc = 0.0;
                for _ in 0..1_000 {
                    acc += rng.standard_normal();
                }
                black_box(acc)
            });
        });
    }
}

fn bench_skip(c: &mut Criterion) {
    for kernel in [NoiseKernel::V1, NoiseKernel::V2] {
        c.bench_function(&format!("noise/{kernel}_skip_normals_1k"), |b| {
            let mut rng = Rng::seed_from(7).with_kernel(kernel);
            b.iter(|| {
                rng.skip_normals(1_000);
                black_box(rng.next_u64())
            });
        });
    }
}

criterion_group!(benches, bench_standard_normal, bench_skip);
criterion_main!(benches);
