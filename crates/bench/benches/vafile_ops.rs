//! Criterion micro-benchmarks for the VA-file baseline: quantization, bound
//! tables and the filter phase.

use bregman::kernel::KernelScratch;
use bregman::ItakuraSaito;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::HierarchicalSpec;
use pagestore::BufferPool;
use vafile::{QuantizerConfig, QueryBoundTable, VaFile, VaFileConfig};

fn bench_vafile(c: &mut Criterion) {
    let data =
        HierarchicalSpec { n: 4_000, dim: 64, clusters: 32, blocks: 8, ..Default::default() }
            .generate();
    let config =
        VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 6 }, page_size_bytes: 16 * 1024 };
    let index = VaFile::build(ItakuraSaito, &data, config);
    let query = data.row(7).to_vec();

    let mut group = c.benchmark_group("vafile");
    group.sample_size(20);
    group.bench_function("build_4000x64", |b| {
        b.iter(|| black_box(VaFile::build(ItakuraSaito, black_box(&data), config)))
    });
    group.bench_function("bound_table_64d", |b| {
        b.iter(|| {
            black_box(QueryBoundTable::build(&ItakuraSaito, index.quantizer(), black_box(&query)))
        })
    });
    for k in [10usize, 100] {
        group.bench_with_input(BenchmarkId::new("knn", k), &k, |b, &k| {
            let mut kernel = KernelScratch::default();
            b.iter(|| {
                let mut pool = BufferPool::unbuffered();
                black_box(index.knn(&mut pool, &mut kernel, black_box(&query), k, None))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vafile);
criterion_main!(benches);
