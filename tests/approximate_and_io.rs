//! Integration tests for the approximate extension (ABP) and for the I/O
//! accounting that the evaluation relies on.

use brepartition::prelude::*;

fn workload(n: usize, dim: usize) -> (DenseDataset, QueryWorkload) {
    let data =
        HierarchicalSpec { n, dim, clusters: 24, blocks: 8, ..Default::default() }.generate();
    let queries = QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, 8, 0.02, 99);
    (data, queries)
}

#[test]
fn approximate_search_trades_candidates_for_bounded_accuracy_loss() {
    let (data, queries) = workload(1_500, 48);
    let k = 20;
    let truth = ground_truth_knn(DivergenceKind::ItakuraSaito, &data, &queries.queries, k, 4);
    let index = BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        &data,
        &BrePartitionConfig::default().with_partitions(8).with_page_size(8 * 1024),
    )
    .unwrap();

    let mut exact_candidates = 0usize;
    let mut approx_candidates = 0usize;
    let mut ratios = Vec::new();
    let mut recalls = Vec::new();
    let config = ApproximateConfig::with_probability(0.9);
    for (qi, query) in queries.iter().enumerate() {
        let exact = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, k, None)
            .unwrap();
        let approx = index
            .knn(
                &mut index.new_buffer_pool(),
                &mut KernelScratch::default(),
                query,
                k,
                Some(&config),
            )
            .unwrap();
        exact_candidates += exact.stats.candidates;
        approx_candidates += approx.stats.candidates;
        ratios.push(overall_ratio(&approx.neighbors, truth.neighbors_of(qi)));
        recalls.push(recall(&approx.neighbors, truth.neighbors_of(qi)));
        assert!(approx.coefficient.unwrap() <= 1.0);
        assert!(approx.coefficient.unwrap() >= 0.0);
    }
    assert!(
        approx_candidates <= exact_candidates,
        "approximate search should not enlarge the candidate set"
    );
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let mean_recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    assert!(mean_ratio < 1.5, "mean overall ratio {mean_ratio} too far from exact");
    assert!(mean_recall > 0.5, "mean recall {mean_recall} too low for p = 0.9");
}

#[test]
fn accuracy_improves_with_the_probability_guarantee() {
    let (data, queries) = workload(1_200, 40);
    let k = 10;
    let truth = ground_truth_knn(DivergenceKind::ItakuraSaito, &data, &queries.queries, k, 4);
    let index = BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        &data,
        &BrePartitionConfig::default().with_partitions(8).with_page_size(8 * 1024),
    )
    .unwrap();
    let mean_ratio = |p: f64| -> f64 {
        let config = ApproximateConfig::with_probability(p);
        let mut ratios = Vec::new();
        for (qi, query) in queries.iter().enumerate() {
            let approx = index
                .knn(
                    &mut index.new_buffer_pool(),
                    &mut KernelScratch::default(),
                    query,
                    k,
                    Some(&config),
                )
                .unwrap();
            ratios.push(overall_ratio(&approx.neighbors, truth.neighbors_of(qi)));
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    let low = mean_ratio(0.6);
    let high = mean_ratio(0.95);
    // Higher guarantees must not be (meaningfully) less accurate.
    assert!(high <= low + 0.05, "p = 0.95 gave ratio {high}, worse than p = 0.6 ratio {low}");
}

#[test]
fn per_query_io_is_within_the_store_size_and_positive() {
    let (data, queries) = workload(1_000, 32);
    let index = BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        &data,
        &BrePartitionConfig::default().with_partitions(8).with_page_size(4 * 1024),
    )
    .unwrap();
    let pages = index.forest().page_count() as u64;
    for query in queries.iter() {
        let result = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, 10, None)
            .unwrap();
        assert!(result.stats.io.pages_read > 0, "loading candidates must cost I/O");
        assert!(
            result.stats.io.pages_read <= pages,
            "a query cannot read more distinct pages than the store holds ({} > {pages})",
            result.stats.io.pages_read
        );
    }
}

#[test]
fn larger_page_sizes_reduce_page_reads() {
    let (data, queries) = workload(1_200, 32);
    let avg_io = |page_size: usize| -> f64 {
        let index = BrePartitionIndex::build(
            DivergenceKind::ItakuraSaito,
            &data,
            &BrePartitionConfig::default().with_partitions(8).with_page_size(page_size),
        )
        .unwrap();
        let mut io = 0u64;
        for query in queries.iter() {
            io += index
                .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, 10, None)
                .unwrap()
                .stats
                .io
                .pages_read;
        }
        io as f64 / queries.len() as f64
    };
    let small = avg_io(2 * 1024);
    let large = avg_io(32 * 1024);
    assert!(
        large < small,
        "32 KB pages should need fewer reads than 2 KB pages ({large} vs {small})"
    );
}

#[test]
fn buffer_pool_reuse_reduces_physical_io_across_queries() {
    let (data, queries) = workload(1_000, 32);
    let index = BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        &data,
        &BrePartitionConfig::default().with_partitions(8).with_page_size(4 * 1024),
    )
    .unwrap();
    // Cold: a fresh unbuffered pool per query.
    let mut cold = 0u64;
    for query in queries.iter() {
        cold += index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), query, 10, None)
            .unwrap()
            .stats
            .io
            .pages_read;
    }
    // Warm: one large shared pool across the workload.
    let mut pool = BufferPool::new(index.forest().page_count());
    let mut warm = 0u64;
    for query in queries.iter() {
        warm += index
            .knn(&mut pool, &mut KernelScratch::default(), query, 10, None)
            .unwrap()
            .stats
            .io
            .pages_read;
    }
    assert!(warm <= cold, "a shared pool must not increase physical reads");
}

#[test]
fn variational_baseline_is_faster_but_less_accurate_than_exact_bbt() {
    let (data, queries) = workload(1_500, 40);
    let k = 10;
    let index = DiskBBTree::build(
        ItakuraSaito,
        &data,
        BBTreeConfig::with_leaf_capacity(16),
        PageStoreConfig::with_page_size(8 * 1024),
    );
    let mut exact_io = 0u64;
    let mut var_io = 0u64;
    let mut recalls = Vec::new();
    let config = VariationalConfig { explore_fraction: 0.1 };
    for query in queries.iter() {
        let mut pool = BufferPool::unbuffered();
        let exact = index.knn(&mut pool, &mut KernelScratch::default(), query, k, None).unwrap();
        let mut pool = BufferPool::unbuffered();
        let var = index
            .knn(
                &mut pool,
                &mut KernelScratch::default(),
                query,
                k,
                Some(config.leaf_budget(index.tree().leaf_count())),
            )
            .unwrap();
        exact_io += exact.io.pages_read;
        var_io += var.io.pages_read;
        recalls.push(recall(&var.neighbors, &exact.neighbors));
    }
    assert!(var_io <= exact_io, "the variational search must not read more pages");
    let mean_recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    assert!(mean_recall > 0.3, "variational recall collapsed: {mean_recall}");
}

#[test]
fn approximate_answers_are_never_short_and_recall_does_not_fall_as_p_rises() {
    // On the hierarchical proxies κ is large and negative, so any shrink
    // coefficient below 1 can push every subspace radius below zero and
    // leave the filter empty; the seeded pages hold at least min(k, n) rows,
    // which keeps ABP's answer at min(k, n) neighbours regardless.
    let (n, k, queries_per_dataset) = (1_500, 10, 64);
    for dataset in PaperDataset::ALL {
        let spec = dataset.paper_spec().with_points(n);
        let kind = spec.divergence;
        let data = spec.generate(7);
        let queries = QueryWorkload::perturbed_from(&data, kind, queries_per_dataset, 0.02, 11);
        let truth = ground_truth_knn(kind, &data, &queries.queries, k, 2);
        let index = BrePartitionIndex::build(
            kind,
            &data,
            &BrePartitionConfig::default().with_page_size(spec.page_size_bytes),
        )
        .unwrap();
        let mut previous = 0.0;
        for p in [0.5, 0.9, 0.99] {
            let config = ApproximateConfig::with_probability(p);
            let mut recalls = Vec::new();
            for (qi, query) in queries.iter().enumerate() {
                let approx = index
                    .knn(
                        &mut index.new_buffer_pool(),
                        &mut KernelScratch::default(),
                        query,
                        k,
                        Some(&config),
                    )
                    .unwrap();
                assert_eq!(
                    approx.neighbors.len(),
                    k.min(n),
                    "{dataset} p = {p}: query {qi} got a short answer"
                );
                recalls.push(recall(&approx.neighbors, truth.neighbors_of(qi)));
            }
            let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
            assert!(
                mean >= previous - 1e-12,
                "{dataset}: mean recall fell to {mean} at p = {p} from {previous}"
            );
            previous = mean;
        }
    }

    // Two-point leaves on two-row pages: no leaf holds k points, so the
    // seed must pop several leaves to cover min(k, n) rows.
    let n = 200;
    for dataset in PaperDataset::ALL {
        let spec = dataset.paper_spec().with_points(n);
        let kind = spec.divergence;
        let data = spec.generate(7);
        let config = BrePartitionConfig::default()
            .with_leaf_capacity(2)
            .with_page_size(2 * data.dim() * 8)
            .with_partitions(1);
        for config in [config, config.with_partitions(4)] {
            let index = BrePartitionIndex::build(kind, &data, &config).unwrap();
            let queries = QueryWorkload::perturbed_from(&data, kind, 8, 0.02, 11);
            for p in [0.5, 0.9] {
                let approximate = ApproximateConfig::with_probability(p);
                for (qi, query) in queries.iter().enumerate() {
                    for k in [10, n + 5] {
                        let got = index
                            .knn(
                                &mut BufferPool::unbuffered(),
                                &mut KernelScratch::default(),
                                query,
                                k,
                                Some(&approximate),
                            )
                            .unwrap();
                        assert_eq!(
                            got.neighbors.len(),
                            k.min(n),
                            "{dataset} leaf capacity 2, M = {}, p = {p}, k = {k}: query {qi}",
                            index.partitions()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn seeded_search_reads_each_page_once_and_few_pages_on_the_fonts_proxy() {
    // The best-first loop reads the pages of the leaves it pops and scores
    // every row on them, skipping pages it has scored, so no page is read
    // twice. An unbuffered pool counts every page touch, and a cold
    // pool that holds every page counts each distinct page once. The
    // second build refines at M = 4 through the f32 screen, which gathers
    // its surviving rows from the candidate pages it has already fetched.
    let spec = PaperDataset::Fonts.paper_spec().with_points(3_000);
    let kind = spec.divergence;
    let data = spec.generate(7);
    let queries = QueryWorkload::perturbed_from(&data, kind, 64, 0.02, 11);
    let config = BrePartitionConfig::default()
        .with_page_size(spec.page_size_bytes)
        .with_buffer_pool_pages(0);
    let screened = config.with_partitions(4).with_f32_candidates(true);
    let mut kernel = KernelScratch::default();
    for (build, config) in [("default", config), ("M = 4, f32 screen", screened)] {
        let index = BrePartitionIndex::build(kind, &data, &config).unwrap();
        let pages = index.forest().page_count();
        let mut pages_read = 0u64;
        for (qi, query) in queries.iter().enumerate() {
            let unbuffered =
                index.knn(&mut index.new_buffer_pool(), &mut kernel, query, 10, None).unwrap();
            let cold =
                index.knn(&mut BufferPool::new(pages), &mut kernel, query, 10, None).unwrap();
            assert_eq!(cold.neighbors, unbuffered.neighbors, "{build}, query {qi}");
            assert_eq!(cold.stats.io.cache_hits, 0, "{build}, query {qi}: a page was read twice");
            assert_eq!(
                unbuffered.stats.io.pages_read, cold.stats.io.pages_read,
                "{build}, query {qi}: pages read differ from the distinct pages touched"
            );
            // The screen scores only the candidates it cannot rule out.
            if !config.f32_candidates {
                assert_eq!(
                    unbuffered.stats.candidates as u64,
                    unbuffered.stats.search.distance_computations,
                    "{build}, query {qi}: candidates must count the distinct rows scored exactly"
                );
            }
            pages_read += unbuffered.stats.io.pages_read;
        }
        if build == "default" {
            let mean = pages_read as f64 / queries.len() as f64;
            // Filtering with Algorithm 4's radius alone reads 11.16 pages per
            // query; seeding from the pages of the k best-by-bound points
            // read 5.75.
            assert!(mean <= 4.0, "{mean} pages read per query");
        }
    }
}

#[test]
fn seeded_search_reads_fewer_pages_than_bbt_on_the_sift_proxy() {
    // Exponential divergence, d = 128. Algorithm 4's k best-by-bound points
    // ranked so poorly here that seeding from their pages read about 70
    // pages per query against BBT's 9; the best-first loop reads only the
    // pages of the leaves whose box bound is within its running threshold.
    let spec = PaperDataset::Sift.paper_spec().with_points(8_000);
    let kind = spec.divergence;
    let data = spec.generate(7);
    let queries = QueryWorkload::perturbed_from(&data, kind, 64, 0.02, 11);
    let k = 20;
    let bp = BrePartitionIndex::build(
        kind,
        &data,
        &BrePartitionConfig::default().with_page_size(spec.page_size_bytes),
    )
    .unwrap();
    let bbt = DiskBBTree::build(
        Exponential,
        &data,
        BBTreeConfig::with_leaf_capacity(32),
        PageStoreConfig::with_page_size(spec.page_size_bytes),
    );
    let mut kernel = KernelScratch::default();
    let (mut bp_pages, mut bbt_pages) = (0u64, 0u64);
    for (qi, query) in queries.iter().enumerate() {
        let got = bp.knn(&mut BufferPool::unbuffered(), &mut kernel, query, k, None).unwrap();
        let want = bbt.knn(&mut BufferPool::unbuffered(), &mut kernel, query, k, None).unwrap();
        assert_eq!(got.neighbors.len(), k, "query {qi}");
        for (g, w) in got.neighbors.iter().zip(&want.neighbors) {
            let tolerance = 1e-9 * (1.0 + w.1.abs());
            assert!((g.1 - w.1).abs() <= tolerance, "query {qi}: {g:?} vs {w:?}");
        }
        bp_pages += got.stats.io.pages_read;
        bbt_pages += want.io.pages_read;
    }
    let (bp_mean, bbt_mean) =
        (bp_pages as f64 / queries.len() as f64, bbt_pages as f64 / queries.len() as f64);
    assert!(
        bp_mean < bbt_mean,
        "BP (M = {}) reads {bp_mean} pages per query, BBT {bbt_mean}",
        bp.partitions()
    );
}

#[test]
fn approximate_search_at_p_one_is_the_exact_search() {
    let (data, queries) = workload(1_000, 32);
    let index = BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        &data,
        &BrePartitionConfig::default().with_partitions(4).with_page_size(4 * 1024),
    )
    .unwrap();
    let p_one = ApproximateConfig::with_probability(1.0);
    let mut kernel = KernelScratch::default();
    for k in [1, 10, 50] {
        for (qi, query) in queries.iter().enumerate() {
            let exact =
                index.knn(&mut index.new_buffer_pool(), &mut kernel, query, k, None).unwrap();
            let approx = index
                .knn(&mut index.new_buffer_pool(), &mut kernel, query, k, Some(&p_one))
                .unwrap();
            assert_eq!(approx.neighbors, exact.neighbors, "k = {k}, query {qi}");
            assert_eq!(approx.stats.candidates, exact.stats.candidates, "k = {k}, query {qi}");
            assert_eq!(approx.coefficient, Some(1.0));
        }
    }
}
