//! Criterion micro-benchmarks for BB-tree construction and kNN search.

use bbtree::{BBTreeBuilder, BBTreeConfig, CoveringBalls, SearchStats};
use bregman::kernel::phi_table;
use bregman::ItakuraSaito;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::HierarchicalSpec;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("bbtree_build");
    group.sample_size(10);
    for dim in [8usize, 32] {
        let data =
            HierarchicalSpec { n: 2_000, dim, clusters: 20, blocks: 4, ..Default::default() }
                .generate();
        group.bench_with_input(BenchmarkId::new("build_2000", dim), &dim, |b, _| {
            b.iter(|| {
                black_box(
                    BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(32))
                        .build(black_box(&data)),
                )
            })
        });
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let data =
        HierarchicalSpec { n: 4_000, dim: 16, clusters: 32, blocks: 4, ..Default::default() }
            .generate();
    let tree = BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(32)).build(&data);
    let balls = CoveringBalls::build(&ItakuraSaito, &tree, &data, &phi_table(&ItakuraSaito, &data));
    let query = data.row(99).to_vec();
    let mut group = c.benchmark_group("bbtree_search");
    group.bench_function("knn_k20", |b| {
        b.iter(|| {
            let mut stats = SearchStats::new();
            black_box(tree.knn(&balls, &ItakuraSaito, &data, black_box(&query), 20, &mut stats))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_search);
criterion_main!(benches);
