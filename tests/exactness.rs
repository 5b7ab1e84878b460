//! Cross-crate integration tests: every exact index must agree with brute
//! force on the same workload, for every supported divergence.

use brepartition::prelude::*;

fn proxy(dataset: PaperDataset, n: usize, dim: usize, seed: u64) -> (DenseDataset, DivergenceKind) {
    let spec = dataset.scaled_spec(n).with_points(n).with_dim(dim);
    (spec.generate(seed), spec.divergence)
}

fn assert_distances_match(label: &str, got: &[(PointId, f64)], expected: &[(PointId, f64)]) {
    assert_eq!(got.len(), expected.len(), "{label}: result size mismatch");
    for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
        assert!(
            (g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()),
            "{label}: rank {i} distance {} vs expected {}",
            g.1,
            e.1
        );
    }
}

#[test]
fn brepartition_is_exact_on_every_proxy_dataset() {
    for dataset in
        [PaperDataset::Audio, PaperDataset::Fonts, PaperDataset::Deep, PaperDataset::Sift]
    {
        let (data, kind) = proxy(dataset, 600, 48, 1);
        let workload = QueryWorkload::perturbed_from(&data, kind, 5, 0.02, 2);
        let truth = ground_truth_knn(kind, &data, &workload.queries, 10, 4);
        let index = BrePartitionIndex::build(
            kind,
            &data,
            &BrePartitionConfig::default().with_partitions(8).with_page_size(8 * 1024),
        )
        .unwrap();
        for (qi, query) in workload.iter().enumerate() {
            let result = index
                .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, 10, None)
                .unwrap();
            assert_distances_match(
                &format!("BrePartition/{dataset}"),
                &result.neighbors,
                truth.neighbors_of(qi),
            );
        }
    }
}

#[test]
fn brepartition_with_auto_partitions_is_exact() {
    let (data, kind) = proxy(PaperDataset::Audio, 800, 64, 3);
    let workload = QueryWorkload::perturbed_from(&data, kind, 4, 0.05, 4);
    let truth = ground_truth_knn(kind, &data, &workload.queries, 20, 4);
    let index = BrePartitionIndex::build(
        kind,
        &data,
        &BrePartitionConfig::default().with_page_size(16 * 1024),
    )
    .unwrap();
    assert!(index.partitions() >= 1 && index.partitions() <= 64);
    for (qi, query) in workload.iter().enumerate() {
        let result = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, 20, None)
            .unwrap();
        assert_distances_match("BrePartition/auto-M", &result.neighbors, truth.neighbors_of(qi));
    }
}

#[test]
fn auto_partition_count_keeps_no_more_candidates_than_the_best_fixed_m() {
    // Auto's M must filter about as well as the best of a few fixed M values
    // on every proxy. The exponential fit it replaced picked M close to d and
    // kept more than twice the candidates of M = 1 on the Fonts proxy.
    let (n, k, queries_per_dataset) = (1_500, 10, 32);
    for dataset in PaperDataset::ALL {
        let spec = dataset.paper_spec().with_points(n);
        let kind = spec.divergence;
        let data = spec.generate(7);
        let workload = QueryWorkload::perturbed_from(&data, kind, queries_per_dataset, 0.02, 11);
        let truth = ground_truth_knn(kind, &data, &workload.queries, k, 2);
        let config = BrePartitionConfig::default().with_page_size(spec.page_size_bytes);
        let mean_candidates = |config: &BrePartitionConfig| -> (usize, f64) {
            let index = BrePartitionIndex::build(kind, &data, config).unwrap();
            let mut candidates = 0usize;
            for (qi, query) in workload.iter().enumerate() {
                let result = index
                    .knn(
                        &mut index.new_buffer_pool(),
                        &mut KernelScratch::default(),
                        query,
                        k,
                        None,
                    )
                    .unwrap();
                let label = format!("{dataset} M = {}", index.partitions());
                assert_distances_match(&label, &result.neighbors, truth.neighbors_of(qi));
                candidates += result.stats.candidates;
            }
            (index.partitions(), candidates as f64 / workload.len() as f64)
        };
        let (auto_m, auto) = mean_candidates(&config);
        let best_fixed = [1, 4, 16]
            .into_iter()
            .map(|m| mean_candidates(&config.with_partitions(m)).1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            auto <= 1.2 * best_fixed,
            "{dataset}: Auto (M = {auto_m}) keeps {auto:.1} candidates per query, \
             the best fixed M keeps {best_fixed:.1}"
        );
    }
}

#[test]
fn disk_bbtree_is_exact_on_proxies() {
    let (data, kind) = proxy(PaperDataset::Fonts, 500, 40, 5);
    assert_eq!(kind, DivergenceKind::ItakuraSaito);
    let workload = QueryWorkload::perturbed_from(&data, kind, 4, 0.02, 6);
    let truth = ground_truth_knn(kind, &data, &workload.queries, 15, 4);
    let index = DiskBBTree::build(
        ItakuraSaito,
        &data,
        BBTreeConfig::with_leaf_capacity(16),
        PageStoreConfig::with_page_size(8 * 1024),
    );
    for (qi, query) in workload.iter().enumerate() {
        let mut pool = BufferPool::unbuffered();
        let result = index.knn(&mut pool, &mut KernelScratch::default(), query, 15, None).unwrap();
        let got: Vec<(PointId, f64)> =
            result.neighbors.iter().map(|n| (n.id, n.distance)).collect();
        assert_distances_match("DiskBBTree/Fonts", &got, truth.neighbors_of(qi));
    }
}

#[test]
fn vafile_is_exact_on_proxies() {
    let (data, kind) = proxy(PaperDataset::Sift, 700, 32, 7);
    assert_eq!(kind, DivergenceKind::Exponential);
    let workload = QueryWorkload::perturbed_from(&data, kind, 4, 0.02, 8);
    let truth = ground_truth_knn(kind, &data, &workload.queries, 10, 4);
    let index = VaFile::build(
        Exponential,
        &data,
        VaFileConfig { page_size_bytes: 8 * 1024, ..VaFileConfig::default() },
    );
    for (qi, query) in workload.iter().enumerate() {
        let mut pool = BufferPool::unbuffered();
        let result = index.knn(&mut pool, &mut KernelScratch::default(), query, 10, None).unwrap();
        assert_distances_match("VaFile/Sift", &result.neighbors, truth.neighbors_of(qi));
    }
}

#[test]
fn all_three_exact_indexes_agree_with_each_other() {
    let (data, kind) = proxy(PaperDataset::Deep, 400, 32, 9);
    let query = data.row(17).to_vec();
    let k = 12;

    let bp = BrePartitionIndex::build(
        kind,
        &data,
        &BrePartitionConfig::default().with_partitions(4).with_page_size(8 * 1024),
    )
    .unwrap();
    let bp_result =
        bp.knn(&mut bp.new_buffer_pool(), &mut KernelScratch::default(), &query, k, None).unwrap();

    let bbt = DiskBBTree::build(
        Exponential,
        &data,
        BBTreeConfig::with_leaf_capacity(16),
        PageStoreConfig::with_page_size(8 * 1024),
    );
    let mut pool = BufferPool::unbuffered();
    let bbt_result = bbt.knn(&mut pool, &mut KernelScratch::default(), &query, k, None).unwrap();

    let vaf = VaFile::build(
        Exponential,
        &data,
        VaFileConfig { page_size_bytes: 8 * 1024, ..VaFileConfig::default() },
    );
    let mut pool = BufferPool::unbuffered();
    let vaf_result = vaf.knn(&mut pool, &mut KernelScratch::default(), &query, k, None).unwrap();

    for i in 0..k {
        let a = bp_result.neighbors[i].1;
        let b = bbt_result.neighbors[i].distance;
        let c = vaf_result.neighbors[i].1;
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "BP vs BBT at rank {i}");
        assert!((a - c).abs() < 1e-9 * (1.0 + a.abs()), "BP vs VAF at rank {i}");
    }
}

#[test]
fn squared_euclidean_round_trips_through_the_whole_stack() {
    // The squared Euclidean generator is the simplest decomposable
    // divergence; it exercises the pipeline with negative coordinates.
    let data = datagen::synthetic::normal(500, 24, 0.0, 1.0, 11);
    let workload =
        QueryWorkload::perturbed_from(&data, DivergenceKind::SquaredEuclidean, 3, 0.1, 12);
    let truth = ground_truth_knn(DivergenceKind::SquaredEuclidean, &data, &workload.queries, 8, 2);
    let index = BrePartitionIndex::build(
        DivergenceKind::SquaredEuclidean,
        &data,
        &BrePartitionConfig::default().with_partitions(6).with_page_size(4096),
    )
    .unwrap();
    for (qi, query) in workload.iter().enumerate() {
        let result = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, 8, None)
            .unwrap();
        assert_distances_match("BrePartition/SE", &result.neighbors, truth.neighbors_of(qi));
    }
}

#[test]
fn generalized_i_divergence_is_rejected_by_the_partitioned_index() {
    let data = datagen::synthetic::uniform(100, 16, 0.5, 2.0, 13);
    let err = BrePartitionIndex::build(
        DivergenceKind::GeneralizedI,
        &data,
        &BrePartitionConfig::default().with_partitions(4),
    )
    .unwrap_err();
    assert!(err.to_string().contains("not cumulative"));
}
