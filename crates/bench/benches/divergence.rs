//! Criterion micro-benchmarks for the Bregman divergence kernels.

use bregman::{DecomposableBregman, Exponential, ItakuraSaito, SquaredEuclidean};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::synthetic::uniform;

fn bench_divergences(c: &mut Criterion) {
    let mut group = c.benchmark_group("divergence");
    for dim in [32usize, 128, 400] {
        let data = uniform(2, dim, 0.5, 10.0, 7);
        let x = data.row(0).to_vec();
        let y = data.row(1).to_vec();
        group.bench_with_input(BenchmarkId::new("squared_euclidean", dim), &dim, |b, _| {
            b.iter(|| black_box(SquaredEuclidean.divergence(black_box(&x), black_box(&y))))
        });
        group.bench_with_input(BenchmarkId::new("itakura_saito", dim), &dim, |b, _| {
            b.iter(|| black_box(ItakuraSaito.divergence(black_box(&x), black_box(&y))))
        });
        group.bench_with_input(BenchmarkId::new("exponential", dim), &dim, |b, _| {
            b.iter(|| black_box(Exponential.divergence(black_box(&x), black_box(&y))))
        });
    }
    group.finish();
}

fn bench_gradients_and_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform_components");
    let data = uniform(1, 256, 0.5, 10.0, 11);
    let x = data.row(0).to_vec();
    group.bench_function("point_components_256d_isd", |b| {
        b.iter(|| black_box(ItakuraSaito.point_components(black_box(&x))))
    });
    group.bench_function("query_components_256d_isd", |b| {
        b.iter(|| black_box(ItakuraSaito.query_components(black_box(&x))))
    });
    group.bench_function("gradient_256d_exponential", |b| {
        b.iter(|| black_box(Exponential.gradient(black_box(&x))))
    });
    group.finish();
}

criterion_group!(benches, bench_divergences, bench_gradients_and_components);
criterion_main!(benches);
