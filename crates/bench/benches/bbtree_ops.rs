//! Criterion micro-benchmarks for BB-tree construction, kNN and range
//! search.

use bbtree::{BBTree, BBTreeBuilder, BBTreeConfig, SearchStats};
use bregman::{DenseDataset, Divergence, ItakuraSaito};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{HierarchicalSpec, PaperDataset};

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
    let query = data.row(99).to_vec();
    let mut group = c.benchmark_group("bbtree_search");
    group.bench_function("knn_k20", |b| {
        b.iter(|| {
            let mut stats = SearchStats::new();
            black_box(tree.knn(&ItakuraSaito, &data, black_box(&query), 20, &mut stats))
        })
    });
    group.bench_function("range_candidates", |b| {
        b.iter(|| {
            let mut stats = SearchStats::new();
            black_box(tree.range_candidates(&ItakuraSaito, black_box(&query), 0.5, &mut stats))
        })
    });
    group.finish();
}

/// The divergence from `query` to its nearest point at quantile `share` of
/// the dataset: a range radius holding about that share of the points.
fn quantile_radius(data: &DenseDataset, query: &[f64], share: f64) -> f64 {
    let mut all: Vec<f64> = data.iter().map(|(_, p)| ItakuraSaito.divergence(p, query)).collect();
    all.sort_by(f64::total_cmp);
    all[((all.len() as f64 * share) as usize).min(all.len() - 1)]
}

/// One range search over `tree`, reporting nodes visited per search so the
/// per-node cost of the node test can be read off the timing.
fn bench_range_shape(c: &mut Criterion, name: &str, tree: &BBTree, query: &[f64], radius: f64) {
    let mut stats = SearchStats::new();
    let candidates = tree.range_candidates(&ItakuraSaito, query, radius, &mut stats).len();
    println!(
        "{name}: {} nodes, {} leaves, {candidates} of {} points per search",
        stats.nodes_visited,
        stats.leaves_visited,
        tree.len()
    );
    let mut group = c.benchmark_group("bbtree_range_shapes");
    group.bench_function(name, |b| {
        b.iter(|| {
            let mut stats = SearchStats::new();
            black_box(tree.range_candidates(&ItakuraSaito, black_box(query), radius, &mut stats))
        })
    });
    group.finish();
}

/// Range searches shaped like the two gated benchmark workloads, which run
/// one such search per subspace per query:
///
/// * `fonts_subspace_d2` — one 2-dimensional subspace tree of the Fonts
///   proxy (3 000 points, 32-point leaves), with a radius holding 3 % of
///   the points;
/// * `microbatch_d32` — the whole 32-dimensional hierarchical dataset in
///   one tree (16 000 points, 32-point leaves), as at the default single
///   partition, with a radius holding 10 % of the points, about the
///   candidate share of a BP search there.
fn bench_range_shapes(c: &mut Criterion) {
    let fonts = PaperDataset::Fonts.paper_spec().with_points(3_000).with_dim(2).generate(7);
    let tree = BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(32)).build(&fonts);
    let query: Vec<f64> = fonts.row(99).iter().map(|v| v * 1.02).collect();
    let radius = quantile_radius(&fonts, &query, 0.03);
    bench_range_shape(c, "fonts_subspace_d2", &tree, &query, radius);

    let data =
        HierarchicalSpec { n: 16_000, dim: 32, clusters: 32, blocks: 8, ..Default::default() }
            .generate();
    let tree = BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(32)).build(&data);
    let query: Vec<f64> = data.row(99).iter().map(|v| v * 1.02).collect();
    let radius = quantile_radius(&data, &query, 0.10);
    bench_range_shape(c, "microbatch_d32", &tree, &query, radius);
}

criterion_group!(benches, bench_build, bench_search, bench_range_shapes);
criterion_main!(benches);
