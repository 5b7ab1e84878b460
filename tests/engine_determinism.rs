//! Determinism of the concurrent batch query engine: a batch run must
//! return, for every query, exactly the neighbors sequential search
//! returns, and the outcome must not depend on the worker-thread count —
//! for the exact backend and the approximate backend alike.

use std::sync::Arc;

use brepartition::prelude::*;

fn hierarchical_workload(n: usize, queries: usize) -> (DenseDataset, Vec<Vec<f64>>) {
    let data =
        HierarchicalSpec { n, dim: 24, clusters: 12, blocks: 6, ..Default::default() }.generate();
    let workload =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, queries, 0.02, 0xE17);
    let queries: Vec<Vec<f64>> = workload.iter().map(|q| q.to_vec()).collect();
    (data, queries)
}

fn build_index(data: &DenseDataset) -> BrePartitionIndex {
    BrePartitionIndex::build(
        DivergenceKind::ItakuraSaito,
        data,
        &BrePartitionConfig::default()
            .with_partitions(6)
            .with_leaf_capacity(16)
            .with_page_size(4096),
    )
    .unwrap()
}

/// Acceptance criterion: `run_batch` over ≥ 256 queries on a hierarchical
/// Itakura-Saito dataset returns results identical to sequential
/// `index.knn` calls.
#[test]
fn batch_results_match_sequential_knn_over_256_queries() {
    let (data, queries) = hierarchical_workload(2_000, 256);
    assert!(queries.len() >= 256);
    let index = build_index(&data);
    let k = 10;

    let sequential: Vec<Vec<(PointId, f64)>> = queries
        .iter()
        .map(|q| {
            index
                .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), q, k, None)
                .unwrap()
                .neighbors
        })
        .collect();

    let engine = QueryEngine::with_config(
        Arc::new(BrePartitionBackend::exact(index)),
        EngineConfig::default().with_threads(4),
    )
    .unwrap();
    let batch = engine.run_batch(&queries, k).unwrap();
    assert_eq!(batch.outcomes.len(), queries.len());
    for (qi, (outcome, expected)) in batch.outcomes.iter().zip(sequential.iter()).enumerate() {
        assert_eq!(&outcome.neighbors, expected, "query {qi} diverged from sequential knn");
        assert!(outcome.candidates >= k, "query {qi} scored {} rows", outcome.candidates);
    }
}

/// One thread and N threads must return identical neighbor sets for every
/// query — exact backend.
#[test]
fn exact_backend_is_thread_count_invariant() {
    let (data, queries) = hierarchical_workload(1_200, 256);
    let index = build_index(&data);
    let backend = Arc::new(BrePartitionBackend::exact(index));

    let single =
        QueryEngine::with_config(backend.clone(), EngineConfig::default().with_threads(1)).unwrap();
    let multi = QueryEngine::with_config(backend, EngineConfig::default().with_threads(8)).unwrap();
    let a = single.run_batch(&queries, 12).unwrap();
    let b = multi.run_batch(&queries, 12).unwrap();
    assert_eq!(single.threads(), 1);
    assert_eq!(multi.threads(), 8);
    for (qi, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        assert_eq!(x.neighbors, y.neighbors, "query {qi} depends on thread count");
        assert_eq!(x.io, y.io, "query {qi}: cold-scratch I/O depends on thread count");
        assert_eq!(x.candidates, y.candidates);
    }
}

/// One thread and N threads must return identical neighbor sets for every
/// query — approximate backend (the shrink coefficient is a pure function
/// of the query, so ABP is deterministic too).
#[test]
fn approximate_backend_is_thread_count_invariant() {
    let (data, queries) = hierarchical_workload(1_200, 256);
    let index = build_index(&data);
    let backend =
        Arc::new(BrePartitionBackend::approximate(index, ApproximateConfig::with_probability(0.9)));

    let single =
        QueryEngine::with_config(backend.clone(), EngineConfig::default().with_threads(1)).unwrap();
    let multi = QueryEngine::with_config(backend, EngineConfig::default().with_threads(8)).unwrap();
    let a = single.run_batch(&queries, 12).unwrap();
    let b = multi.run_batch(&queries, 12).unwrap();
    for (qi, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        assert_eq!(x.neighbors, y.neighbors, "query {qi} depends on thread count");
    }
}

/// The baseline backends go through the same engine and stay exact
/// (constructed through the spec-driven façade).
#[test]
fn baseline_backends_serve_batches_exactly() {
    let (data, queries) = hierarchical_workload(800, 64);
    let k = 8;
    let kind = DivergenceKind::ItakuraSaito;
    let truth = ground_truth_knn(kind, &data, &DenseDataset::from_rows(&queries).unwrap(), k, 4);

    let backends: Vec<Arc<dyn SearchBackend>> = vec![
        Index::build(&IndexSpec::bbtree(kind).with_leaf_capacity(16).with_page_size(4096), &data)
            .unwrap()
            .backend(),
        Index::build(&IndexSpec::vafile(kind), &data).unwrap().backend(),
    ];
    for backend in backends {
        let name = backend.name().to_string();
        let engine =
            QueryEngine::with_config(backend, EngineConfig::default().with_threads(4)).unwrap();
        let batch = engine.run_batch(&queries, k).unwrap();
        for (qi, outcome) in batch.outcomes.iter().enumerate() {
            let expected = truth.neighbors_of(qi);
            assert_eq!(outcome.neighbors.len(), expected.len(), "{name} query {qi}");
            for (g, e) in outcome.neighbors.iter().zip(expected.iter()) {
                assert!(
                    (g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()),
                    "{name} query {qi}: {} vs {}",
                    g.1,
                    e.1
                );
            }
        }
    }
}

/// The delta overlay keeps both engine guarantees under mutation: results
/// are thread-count invariant, and an engine built over a serving snapshot
/// keeps answering from that snapshot while the index mutates underneath —
/// a batch never observes a half-applied write.
#[test]
fn delta_overlay_is_thread_count_invariant_and_snapshot_consistent() {
    let (data, queries) = hierarchical_workload(800, 64);
    let index = Index::build(
        &IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
            .with_partitions(6)
            .with_leaf_capacity(16)
            .with_page_size(4096),
        &data,
    )
    .unwrap();
    let near_first: Vec<f64> = queries[0].iter().map(|v| v * 0.999).collect();
    let inserted = index.insert(&near_first).unwrap();
    index.delete(PointId(3)).unwrap();

    // Thread-count invariance through the overlay.
    let snapshot = index.backend();
    assert!(snapshot.name().ends_with("+Δ"), "writes pending: serving must overlay");
    let one = QueryEngine::with_config(snapshot.clone(), EngineConfig::default().with_threads(1))
        .unwrap()
        .run_batch(&queries, 8)
        .unwrap();
    let four = QueryEngine::with_config(snapshot.clone(), EngineConfig::default().with_threads(4))
        .unwrap()
        .run_batch(&queries, 8)
        .unwrap();
    for (qi, (a, b)) in one.outcomes.iter().zip(four.outcomes.iter()).enumerate() {
        assert_eq!(a.neighbors, b.neighbors, "query {qi}: overlay results depend on threads");
        assert_eq!(a.io, b.io, "query {qi}: overlay I/O depends on threads");
    }
    assert!(one.outcomes[0].neighbors.iter().any(|(id, _)| *id == inserted));

    // Snapshot consistency: mutating the index does not disturb an engine
    // already holding the snapshot; a fresh snapshot sees the new state.
    let frozen =
        QueryEngine::with_config(snapshot, EngineConfig::default().with_threads(2)).unwrap();
    index.delete(inserted).unwrap();
    let replay = frozen.run_batch(&queries, 8).unwrap();
    for (qi, (a, b)) in one.outcomes.iter().zip(replay.outcomes.iter()).enumerate() {
        assert_eq!(a.neighbors, b.neighbors, "query {qi}: the frozen snapshot drifted");
    }
    let fresh = QueryEngine::with_config(index.backend(), EngineConfig::default().with_threads(2))
        .unwrap()
        .run_batch(&queries, 8)
        .unwrap();
    assert!(
        fresh.outcomes[0].neighbors.iter().all(|(id, _)| *id != inserted),
        "a fresh snapshot must see the delete"
    );
}

/// The sharded serving tier inherits both invariances at once: sharded
/// answers are bit-identical to the unsharded index for every shard count,
/// under every fan-out thread budget.
#[test]
fn sharded_capacity_is_shard_count_and_thread_budget_invariant() {
    let (data, queries) = hierarchical_workload(900, 96);
    let k = 9;
    let base = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
        .with_partitions(6)
        .with_leaf_capacity(16)
        .with_page_size(4096);
    let request = Request::uniform(&queries, k);
    let reference = Index::build(&base, &data).unwrap().run(&request).unwrap();

    for shards in [1usize, 2, 3, 5] {
        let sharded = ShardedIndex::build(&ShardSpec::capacity(base, shards), &data).unwrap();
        for budget in [1usize, 8] {
            let got = sharded.run_with_budget(&request, budget).unwrap();
            for (qi, (g, w)) in got.outcomes.iter().zip(reference.outcomes.iter()).enumerate() {
                let ctx = format!("{shards} shards, budget {budget}, query {qi}");
                assert_eq!(g.neighbors.len(), w.neighbors.len(), "{ctx}: k");
                for (rank, ((gid, gd), (wid, wd))) in
                    g.neighbors.iter().zip(w.neighbors.iter()).enumerate()
                {
                    assert_eq!(gid, wid, "{ctx}, rank {rank}: neighbor ids");
                    assert_eq!(
                        gd.to_bits(),
                        wd.to_bits(),
                        "{ctx}, rank {rank}: distance bits ({gd} vs {wd})"
                    );
                }
            }
        }
    }
}

/// Sharded ABP is deterministic too: every shard is a deterministic build
/// and the `(distance, id)` merge is a pure function of the shard answers,
/// so merged results cannot depend on the fan-out budget.
#[test]
fn sharded_approximate_is_thread_budget_invariant() {
    let (data, queries) = hierarchical_workload(700, 64);
    let base = IndexSpec::approximate(DivergenceKind::ItakuraSaito)
        .with_probability(0.6)
        .with_partitions(6)
        .with_leaf_capacity(16)
        .with_page_size(4096);
    let sharded = ShardedIndex::build(&ShardSpec::capacity(base, 4), &data).unwrap();
    let request = Request::uniform(&queries, 8);
    let one = sharded.run_with_budget(&request, 1).unwrap();
    let many = sharded.run_with_budget(&request, 8).unwrap();
    for (qi, (a, b)) in one.outcomes.iter().zip(many.outcomes.iter()).enumerate() {
        assert_eq!(a.neighbors, b.neighbors, "query {qi}: sharded merge depends on budget");
    }
}

/// A warm-scratch batch over a buffered pool faults its working set in
/// roughly once and then serves repeat page reads from the pool, for every
/// method: each records buffer-pool hits, at a hit rate of at least 0.5.
/// (A cold engine's zero hits are the unbuffered default, not broken
/// accounting.)
#[test]
fn warm_scratch_batches_hit_the_buffer_pool_for_every_method() {
    let data = HierarchicalSpec { n: 600, dim: 32, clusters: 8, blocks: 8, ..Default::default() }
        .generate();
    let queries: Vec<Vec<f64>> =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, 128, 0.02, 0x7B)
            .iter()
            .map(|q| q.to_vec())
            .collect();
    let kind = DivergenceKind::ItakuraSaito;
    for (method, spec) in [
        ("BP", IndexSpec::brepartition(kind)),
        ("ABP", IndexSpec::approximate(kind)),
        ("BBT", IndexSpec::bbtree(kind)),
        ("VAF", IndexSpec::vafile(kind)),
    ] {
        let spec = spec
            .with_partitions(4)
            .with_page_size(32 * 1024)
            .with_leaf_capacity(32)
            .with_buffer_pool_pages(64);
        let index = Index::build(&spec, &data).unwrap();
        let engine =
            index.engine(EngineConfig::default().with_threads(2).with_warm_scratch()).unwrap();
        let mut io = IoStats::default();
        for outcome in engine.run_batch(&queries, 10).unwrap().outcomes {
            io.accumulate(&outcome.io);
        }
        assert!(io.cache_hits > 0, "{method}: warm batch recorded no buffer-pool hits");
        let rate = io.cache_hits as f64 / (io.cache_hits + io.pages_read) as f64;
        assert!(
            rate >= 0.5,
            "{method}: warm hit rate {rate:.3} below the 0.5 floor \
             ({} hits / {} reads)",
            io.cache_hits,
            io.pages_read
        );
    }
}

/// Sequential answers through `backend` with a fresh (cold) scratch per
/// query: the reference every engine batch must reproduce.
fn sequential_answers(
    backend: &dyn SearchBackend,
    queries: &[Vec<f64>],
    k: usize,
) -> Vec<BackendAnswer> {
    queries
        .iter()
        .map(|q| {
            backend
                .knn_with_options(&mut backend.new_scratch(), q, k, &QueryOptions::none())
                .unwrap()
        })
        .collect()
}

/// Whether a batch outcome is the sequential answer: ids, distance bits,
/// candidates and (cold mode) I/O counters.
fn assert_same_answer(got: &QueryOutcome, want: &BackendAnswer, ctx: &str) {
    let bits =
        |n: &[(PointId, f64)]| n.iter().map(|(id, d)| (*id, d.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(&got.neighbors), bits(&want.neighbors), "{ctx}: ids or distance bits");
    assert_eq!(got.candidates, want.candidates, "{ctx}: candidates");
    assert_eq!(got.io, want.io, "{ctx}: cold-mode I/O");
}

/// The engine's helper pool is process-wide, so concurrent callers share
/// its helpers: four threads driving one engine at the same time must each
/// get exactly the sequential answers, batch after batch.
#[test]
fn concurrent_callers_share_the_helper_pool_and_answer_sequentially() {
    const CALLERS: usize = 4;
    const BATCHES: usize = 32;
    const BATCH: usize = 8;
    let (data, queries) = hierarchical_workload(1_200, 256);
    let k = 10;
    let backend: Arc<dyn SearchBackend> = Arc::new(BrePartitionBackend::exact(build_index(&data)));
    let sequential = sequential_answers(backend.as_ref(), &queries, k);
    let engine =
        QueryEngine::with_config(backend, EngineConfig::default().with_threads(2)).unwrap();
    let start = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let (engine, queries, sequential, start) = (&engine, &queries, &sequential, &start);
            scope.spawn(move || {
                start.wait();
                for b in 0..BATCHES {
                    let first = ((caller * BATCHES + b) * BATCH) % queries.len();
                    let rows = &queries[first..first + BATCH];
                    let batch = engine.run_batch(rows, k).unwrap();
                    assert_eq!(batch.outcomes.len(), BATCH);
                    for (offset, outcome) in batch.outcomes.iter().enumerate() {
                        let ctx = format!("caller {caller}, batch {b}, query {}", first + offset);
                        assert_same_answer(outcome, &sequential[first + offset], &ctx);
                    }
                }
            });
        }
    });
}

/// A backend that panics on one poisoned query row and otherwise defers to
/// the wrapped backend.
struct PanicsOnRow {
    inner: Arc<dyn SearchBackend>,
    poison: Vec<f64>,
}

impl SearchBackend for PanicsOnRow {
    fn name(&self) -> &str {
        "panics-on-row"
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn new_scratch(&self) -> Scratch {
        self.inner.new_scratch()
    }
    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> std::result::Result<BackendAnswer, EngineError> {
        assert!(query != self.poison.as_slice(), "poisoned query row");
        self.inner.knn_with_options(scratch, query, k, options)
    }
}

/// A backend panic fails its batch with that query's index, and costs the
/// pool nothing: the batches after it, in the same process, answer every
/// query exactly as sequential search does.
#[test]
fn a_backend_panic_fails_its_batch_and_later_batches_answer_exactly() {
    const BATCH: usize = 8;
    const POISONED: usize = 5;
    let (data, queries) = hierarchical_workload(1_200, 136);
    let k = 10;
    let inner: Arc<dyn SearchBackend> = Arc::new(BrePartitionBackend::exact(build_index(&data)));
    let sequential = sequential_answers(inner.as_ref(), &queries, k);
    let backend = Arc::new(PanicsOnRow { inner, poison: queries[POISONED].clone() });
    let engine =
        QueryEngine::with_config(backend, EngineConfig::default().with_threads(2)).unwrap();

    match engine.run_batch(&queries[..BATCH], k) {
        Err(EngineError::Query { index, message }) => {
            assert_eq!(index, POISONED, "the error names the panicking query");
            assert!(message.contains("poisoned query row"), "panic message lost: {message}");
        }
        other => panic!("a panicking query must fail its batch, got {other:?}"),
    }
    for b in 1..=16 {
        let first = b * BATCH;
        let batch = engine.run_batch(&queries[first..first + BATCH], k).unwrap();
        for (offset, outcome) in batch.outcomes.iter().enumerate() {
            let ctx = format!("batch {b} after the panic, query {}", first + offset);
            assert_same_answer(outcome, &sequential[first + offset], &ctx);
        }
    }
}
