//! Cross-crate integration tests: every exact index must agree with brute
//! force on the same workload, for every supported divergence.

use brepartition::bregman::BregmanError;
use brepartition::core::CoreError;
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
fn default_partition_count_keeps_no_more_candidates_than_the_best_fixed_m() {
    // The default M = 1 must filter about as well as the best of a few fixed
    // M values on every proxy. The paper's exponential cost-model fit, once
    // the default, picked M close to d and kept more than twice the
    // candidates of M = 1 on the Fonts proxy.
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
        let (default_m, default) = mean_candidates(&config);
        let best_fixed = [1, 4, 16]
            .into_iter()
            .map(|m| mean_candidates(&config.with_partitions(m)).1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            default <= 1.2 * best_fixed,
            "{dataset}: the default (M = {default_m}) keeps {default:.1} candidates per query, \
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
        assert_distances_match("DiskBBTree/Fonts", &result.neighbors, truth.neighbors_of(qi));
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
        let b = bbt_result.neighbors[i].1;
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

/// The brute-force neighbours under the benchmark's tie rule: every row
/// scored by the divergence's own formula, ranked by `(distance, id)`.
fn brute_force(
    kind: DivergenceKind,
    data: &DenseDataset,
    query: &[f64],
    k: usize,
) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> =
        (0..data.len()).map(|i| (i as u32, kind.divergence(data.row(i), query))).collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// `got` names the brute-force neighbours id for id. A differing id is
/// accepted only where the scan scores it exactly as the expected one (a
/// genuine tie, which the index may order either way).
#[track_caller]
fn assert_same_neighbors(
    label: &str,
    kind: DivergenceKind,
    data: &DenseDataset,
    query: &[f64],
    got: &[(PointId, f64)],
    k: usize,
) {
    let truth = brute_force(kind, data, query, k);
    assert_eq!(got.len(), truth.len(), "{label}: result size");
    for (rank, (&(id, _), &(want, want_d))) in got.iter().zip(&truth).enumerate() {
        assert!(
            id.0 == want || kind.divergence(data.row(id.index()), query) == want_d,
            "{label}: rank {rank} is {id}, the scan ranks {want} there (distance {want_d})"
        );
    }
}

/// The `k` nearest rows by a linear scan through the prepared kernel the
/// index refines with, ranked by `(distance, id)`: what an exact index must
/// return bit for bit, ties included.
fn kernel_scan(
    kind: DivergenceKind,
    data: &DenseDataset,
    query: &[f64],
    k: usize,
) -> Vec<(PointId, f64)> {
    let prepared = kind.prepare_query(query);
    let mut scored: Vec<(PointId, f64)> = (0..data.len())
        .map(|i| (PointId(i as u32), prepared.distance(kind.phi_sum(data.row(i)), data.row(i))))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Build BP under `kind` on `data` at M ∈ {1, 2, 4} (up to d) and check every
/// query at k ∈ {1, 10, n, n + 5} against [`kernel_scan`] (id for id, bit for
/// bit) and, where `resolvable`, against brute force under the benchmark's
/// tie rule, through an unbuffered pool and through one warm pool that holds
/// every page. Data is not resolvable where distinct rows' distances differ
/// by less than the kernel's rounding, so only the kernel can rank them.
fn check_against_brute_force(
    label: &str,
    kind: DivergenceKind,
    data: &DenseDataset,
    config: &BrePartitionConfig,
    queries: &[Vec<f64>],
    resolvable: bool,
) {
    let n = data.len();
    for partitions in [1, 2, 4] {
        if partitions > data.dim() {
            continue;
        }
        let config = BrePartitionConfig { partitions, ..*config };
        let index = BrePartitionIndex::build(kind, data, &config).unwrap();
        let mut warm = BufferPool::new(index.forest().page_count());
        let mut kernel = KernelScratch::default();
        for (qi, query) in queries.iter().enumerate() {
            for k in [1, 10, n, n + 5] {
                let at = format!("{label} {kind} M = {}, query {qi}, k = {k}", index.partitions());
                let cold =
                    index.knn(&mut BufferPool::unbuffered(), &mut kernel, query, k, None).unwrap();
                let scan = kernel_scan(kind, data, query, k);
                assert_eq!(cold.neighbors, scan, "{at}: differs from the kernel scan");
                if resolvable {
                    assert_same_neighbors(&at, kind, data, query, &cold.neighbors, k);
                }
                let buffered = index.knn(&mut warm, &mut kernel, query, k, None).unwrap();
                assert_eq!(buffered.neighbors, cold.neighbors, "{at}: the pool changed the answer");
            }
        }
    }
}

/// Two data rows used verbatim (the k-th distance can be exactly zero), two
/// perturbed rows and `extra`.
fn queries_for(data: &DenseDataset, kind: DivergenceKind, extra: &[f64]) -> Vec<Vec<f64>> {
    let mut queries = vec![data.row(0).to_vec(), data.row(data.len() / 2).to_vec()];
    queries
        .extend(QueryWorkload::perturbed_from(data, kind, 2, 0.02, 5).iter().map(<[f64]>::to_vec));
    queries.push(extra.to_vec());
    queries
}

#[test]
fn seeded_search_matches_brute_force_id_for_id_on_proxies_and_hostile_data() {
    // At M = 1 one best-first loop pops the first BB-tree's nodes by box
    // bound, scores whole pages and stops once its smallest key exceeds the
    // running k-th distance plus a rounding allowance; at M > 1 the same
    // loop, stopped after k rows, seeds the radius. Any slip in the stopping
    // rule, the frontier's order, the allowance, the radius split or the
    // skip of already-scored pages shows up here as a missing, extra or
    // repeated neighbour.
    let kinds = [
        DivergenceKind::SquaredEuclidean,
        DivergenceKind::ItakuraSaito,
        DivergenceKind::Exponential,
    ];
    for dataset in PaperDataset::ALL {
        let spec = dataset.paper_spec().with_points(600);
        let data = spec.generate(3);
        let config = BrePartitionConfig::default().with_page_size(spec.page_size_bytes);
        for kind in [spec.divergence, DivergenceKind::SquaredEuclidean] {
            let queries = queries_for(&data, kind, data.row(1));
            check_against_brute_force(&dataset.to_string(), kind, &data, &config, &queries, true);
        }
    }

    // Two- and four-point leaves on two-row pages: no leaf holds k = 10
    // points, so the loop must pop several leaves before its threshold is
    // finite, and at k = n and n + 5 every leaf.
    for leaf_capacity in [2, 4] {
        for dataset in PaperDataset::ALL {
            let spec = dataset.paper_spec().with_points(300);
            let data = spec.generate(5);
            let config = BrePartitionConfig::default()
                .with_page_size(2 * data.dim() * 8)
                .with_leaf_capacity(leaf_capacity);
            let queries = queries_for(&data, spec.divergence, data.row(1));
            let label = format!("{dataset} leaf capacity {leaf_capacity}");
            check_against_brute_force(&label, spec.divergence, &data, &config, &queries, true);
        }
    }

    // Small pages (four rows of d = 6) spread copies of a row over many
    // pages, so ties reach past the first pages scored.
    let small_pages = BrePartitionConfig::default().with_page_size(4 * 6 * 8).with_leaf_capacity(4);
    let row = [2.0, 4.0, 1.0, 0.25, 3.0, 1.5];
    // Every eighth row shrunk by a hair ranks first by bound and shares
    // pages with exact copies, so the k-th scored distance is an exact
    // copy's rounding noise, which can fall below zero; only the rounding
    // allowance then keeps the copies on other pages.
    let near_copies = (0..64)
        .map(|i| {
            let shrink = if i % 8 == 7 { 1.0 - (i + 1) as f64 * 1e-10 } else { 1.0 };
            row.iter().map(|&v| v * shrink).collect()
        })
        .collect();
    let base: Vec<Vec<f64>> = (0..12)
        .map(|i| (0..6).map(|j| 0.5 + ((i * 5 + j * 3) % 11) as f64 * 0.25).collect())
        .collect();
    // A column every row shares: zero variance, so PCCP sees no correlation
    // for it and each subspace holding it contributes the same term.
    let constant_column = (0..60)
        .map(|i| {
            let value = |j: usize| 0.5 + ((i * 7 + j * 5) % 13) as f64 * 0.25;
            (0..6).map(|j| if j == 2 { 3.0 } else { value(j) }).collect()
        })
        .collect();
    let hostile = [
        ("n = 1", vec![row.to_vec()], true),
        ("n = 2", vec![row.to_vec(), base[3].clone()], true),
        ("constant column", constant_column, true),
        ("all-duplicate rows", vec![row.to_vec(); 64], true),
        ("near-duplicate rows", near_copies, false),
        ("ties at the k-th distance", (0..192).map(|i| base[i % 12].clone()).collect(), true),
    ];
    for (label, rows, resolvable) in hostile {
        let data = DenseDataset::from_rows(&rows).unwrap();
        for kind in kinds {
            let queries = queries_for(&data, kind, &[1.0; 6]);
            check_against_brute_force(label, kind, &data, &small_pages, &queries, resolvable);
        }
    }
    // Exponential rows with a coordinate past 709.78, where exp overflows:
    // φ at those box corners is +∞, so the bounds of nodes beyond them are
    // +∞ with an infinite allowance, and their keys NaN. The best-first
    // frontier must expand such a node, never skip it. The queries stay
    // inside ED's domain (|t| < 700), where every kernel term of theirs is
    // finite.
    let overflow: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            let mut row = base[i % 12].clone();
            if i % 3 == 1 {
                row[i % 6] = 709.0 + (i % 4) as f64;
            }
            row
        })
        .collect();
    let data = DenseDataset::from_rows(&overflow).unwrap();
    let mut far = [1.0; 6];
    far[0] = 699.0;
    let queries = vec![data.row(0).to_vec(), data.row(48).to_vec(), vec![1.0; 6], far.to_vec()];
    let kind = DivergenceKind::Exponential;
    check_against_brute_force("exp overflow", kind, &data, &small_pages, &queries, true);

    // A query coordinate past the domain, where the kernel's offset
    // `Σ (q·e^q − e^q)` overflows and every distance would be ∞ − ∞, is a
    // typed error at every entry point, and so is a row inserted there.
    // The façade's build rejects the overflow rows the same way, so its
    // part runs over the in-domain rows.
    let mut past = [1.0; 6];
    past[0] = 705.0;
    let expected = BregmanError::OutOfDomain { divergence: "ED", value: 705.0 };
    let index = BrePartitionIndex::build(kind, &data, &small_pages).unwrap();
    let mut pool = BufferPool::unbuffered();
    match index.knn(&mut pool, &mut KernelScratch::default(), &past, 5, None) {
        Err(CoreError::Bregman(e)) => assert_eq!(e, expected, "BrePartitionIndex::knn"),
        other => panic!("BrePartitionIndex::knn: {other:?}, expected ED's domain error"),
    }
    let spec = IndexSpec::brepartition(kind).with_page_size(4 * 6 * 8);
    match Index::build(&spec, &data) {
        Err(Error::Core(CoreError::Bregman(e))) => assert_eq!(
            e,
            BregmanError::OutOfDomain { divergence: "ED", value: overflow[1][1] },
            "Index::build over the overflow rows"
        ),
        other => panic!("Index::build: {:?}, expected ED's domain error", other.map(drop)),
    }
    let in_domain: Vec<Vec<f64>> =
        overflow.iter().filter(|row| kind.check_domain(row).is_ok()).cloned().collect();
    let data = DenseDataset::from_rows(&in_domain).unwrap();
    let facade = Index::build(&spec, &data).unwrap();
    let batch = Request::batch([QueryRequest::new(&far, 5), QueryRequest::new(&past, 5)]);
    let results = [
        ("Index::query", facade.query(&QueryRequest::new(&past, 5)).map(drop)),
        ("Index::run", facade.run(&batch).map(drop)),
        ("Index::insert", facade.insert(&past).map(drop)),
    ];
    for (entry, result) in results {
        match result {
            Err(Error::Core(CoreError::Bregman(e))) => assert_eq!(e, expected, "{entry}"),
            other => panic!("{entry}: {other:?}, expected ED's domain error"),
        }
    }
    assert_eq!(facade.len(), data.len(), "the rejected row was not inserted");

    let one_dim: Vec<Vec<f64>> = (0..200).map(|i| vec![0.5 + ((i * 7) % 23) as f64]).collect();
    let data = DenseDataset::from_rows(&one_dim).unwrap();
    let config = BrePartitionConfig::default().with_page_size(4 * 8).with_leaf_capacity(4);
    for kind in kinds {
        let queries = queries_for(&data, kind, &[3.7]);
        check_against_brute_force("d = 1", kind, &data, &config, &queries, true);
    }

    // GI is not cumulative across partitions, so BP refuses to build it.
    assert!(matches!(
        BrePartitionIndex::build(DivergenceKind::GeneralizedI, &data, &config),
        Err(brepartition::core::CoreError::UnsupportedDivergence { .. })
    ));
}
