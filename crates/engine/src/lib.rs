//! Concurrent batch query engine for the BrePartition workspace.
//!
//! The paper's evaluation (and the seed of this repository) issues queries
//! one at a time; real retrieval workloads — speech retrieval, image
//! embedding search — arrive as *streams of query batches*. This crate adds
//! the serving layer:
//!
//! * [`SearchBackend`] — one object-safe trait over every index in the
//!   workspace: BrePartition exact ([`BrePartitionBackend::exact`]), the
//!   approximate extension ([`BrePartitionBackend::approximate`]), the
//!   BB-tree baseline ([`BBTreeBackend`]) and the VA-file baseline
//!   ([`VaFileBackend`]). The trait has one search method,
//!   [`SearchBackend::knn_with_options`]: `QueryOptions::none()` is the
//!   backend's default search, and a probability override or candidate
//!   budget is that backend's one knob, mapped onto the index's own single
//!   `knn` call. Each index validates the query's length itself; a wrong
//!   length, and a data page that fails its read, come back as
//!   [`EngineError::Backend`]. Backends are immutable during search; all
//!   mutable per-query state lives in a caller-owned [`Scratch`].
//! * [`QueryEngine`] — serves a batch on the calling thread plus up to
//!   `threads − 1` helpers from one process-wide pool of parked threads,
//!   started by the first batch that wants a helper and reused by every
//!   later one (no thread is spawned per batch). Each serving thread owns
//!   its scratch (buffer pool), pulls query indices from the batch's
//!   atomic cursor and buffers outcomes locally; per-query results are
//!   reassembled in submission order, so neighbor sets are bit-identical
//!   for 1 thread and N threads. Batches are submitted either as uniform
//!   `(queries, k)` pairs ([`QueryEngine::run_batch`]) or as per-query
//!   [`EngineRequest`]s carrying their own `k` and [`QueryOptions`]
//!   ([`QueryEngine::run_requests`]) over borrowed rows.
//! * [`DeltaOverlayBackend`] — online mutability for batch serving: a
//!   [`SearchBackend`] that merges a static backend with a frozen snapshot
//!   of a [`DeltaSegment`](brepartition_core::DeltaSegment) (inserted rows
//!   scanned exactly, tombstones filtering both sides), so every query in a
//!   batch sees the same consistent view of the mutable index.
//! * [`ShardedEngine`] — scatter-gather across N shard backends behind
//!   **one** worker budget ([`split_thread_budget`] divides the budget
//!   across shards instead of multiplying it), with
//!   [`merge_shard_outcomes`] gathering per-shard top-k lists by the same
//!   `(distance, id)` order the overlay uses — the substrate of the
//!   façade's `ShardedIndex`.
//!
//! Every answer reports its cost in the same three terms: the rows scored
//! exactly ([`QueryOutcome::candidates`], for every method), the physical
//! page reads ([`QueryOutcome::io`]) and the wall-clock latency inside the
//! backend. Batch statistics (throughput, percentiles) are the caller's to
//! take over those outcomes.
//!
//! Applications normally construct backends through the spec-driven façade
//! in the root `brepartition` crate (`IndexSpec` → `Index::build` /
//! `Index::open`) rather than the per-method constructors here.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use bregman::{DenseDataset, DivergenceKind};
//! use brepartition_core::{BrePartitionConfig, BrePartitionIndex};
//! use brepartition_engine::{BrePartitionBackend, EngineConfig, QueryEngine};
//!
//! let rows: Vec<Vec<f64>> = (0..500)
//!     .map(|i| (0..16).map(|j| 1.0 + ((i * 7 + j * 3) % 23) as f64).collect())
//!     .collect();
//! let data = DenseDataset::from_rows(&rows).unwrap();
//! let index = BrePartitionIndex::build(
//!     DivergenceKind::ItakuraSaito,
//!     &data,
//!     &BrePartitionConfig::default().with_partitions(4),
//! )
//! .unwrap();
//! let engine = QueryEngine::with_config(
//!     Arc::new(BrePartitionBackend::exact(index)),
//!     EngineConfig::default().with_threads(4),
//! )
//! .unwrap();
//! let queries: Vec<Vec<f64>> = (0..64).map(|i| rows[i * 7 % rows.len()].clone()).collect();
//! let batch = engine.run_batch(&queries, 10).unwrap();
//! let scored: usize = batch.outcomes.iter().map(|o| o.candidates).sum();
//! println!("{} queries, {scored} rows scored", batch.outcomes.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
#[allow(clippy::module_inception)]
pub mod engine;
pub mod error;
pub mod fault;
pub mod overlay;
mod pool;
pub mod request;
pub mod shard;

pub use backend::{
    BBTreeBackend, BackendAnswer, BrePartitionBackend, Scratch, SearchBackend, VaFileBackend,
};
pub use engine::{recommended_pool_threads, BatchResult, EngineConfig, QueryEngine, QueryOutcome};
pub use error::EngineError;
pub use fault::{FaultInjector, FaultPlan, FaultState};
pub use overlay::DeltaOverlayBackend;
pub use request::{EngineRequest, QueryOptions};
pub use shard::{
    merge_neighbor_lists, merge_shard_outcomes, split_thread_budget, BreakerState, FanoutPolicy,
    ShardFailure, ShardHealth, ShardedEngine, ThreadSplit,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bbtree::BBTreeConfig;
    use bregman::kernel::KernelScratch;
    use bregman::{DivergenceKind, ItakuraSaito};
    use brepartition_core::{ApproximateConfig, BrePartitionConfig, BrePartitionIndex};
    use datagen::HierarchicalSpec;
    use pagestore::PageStoreConfig;
    use vafile::VaFileConfig;

    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn backends_are_shareable_across_threads() {
        assert_send_sync::<BrePartitionIndex>();
        assert_send_sync::<BrePartitionBackend>();
        assert_send_sync::<BBTreeBackend<ItakuraSaito>>();
        assert_send_sync::<VaFileBackend<ItakuraSaito>>();
        assert_send_sync::<QueryEngine>();
    }

    fn workload() -> (bregman::DenseDataset, Vec<Vec<f64>>) {
        let data =
            HierarchicalSpec { n: 400, dim: 16, clusters: 8, blocks: 4, ..Default::default() }
                .generate();
        let queries: Vec<Vec<f64>> =
            (0..32).map(|i| data.row(i * 11 % data.len()).to_vec()).collect();
        (data, queries)
    }

    #[test]
    fn engine_matches_sequential_search_for_every_backend() {
        let (data, queries) = workload();
        let kind = DivergenceKind::ItakuraSaito;
        let config = BrePartitionConfig::default().with_partitions(4).with_page_size(4096);
        let index = Arc::new(BrePartitionIndex::build(kind, &data, &config).unwrap());

        let backends: Vec<Box<dyn SearchBackend>> = vec![
            Box::new(BrePartitionBackend::exact(index.clone())),
            Box::new(BrePartitionBackend::approximate(
                index.clone(),
                ApproximateConfig::with_probability(0.95),
            )),
            Box::new(BBTreeBackend::build(
                ItakuraSaito,
                &data,
                BBTreeConfig::with_leaf_capacity(16),
                PageStoreConfig::with_page_size(4096),
            )),
            Box::new(VaFileBackend::build(ItakuraSaito, &data, VaFileConfig::default())),
        ];
        for backend in backends {
            let name = backend.name().to_string();
            let backend: Arc<dyn SearchBackend> = backend.into();
            // Sequential reference: drive the backend directly, one query at
            // a time on this thread.
            let reference: Vec<_> = queries
                .iter()
                .map(|q| {
                    let mut scratch = backend.new_scratch();
                    backend
                        .knn_with_options(&mut scratch, q, 5, &QueryOptions::none())
                        .unwrap()
                        .neighbors
                })
                .collect();
            let engine =
                QueryEngine::with_config(backend, EngineConfig::default().with_threads(4)).unwrap();
            let batch = engine.run_batch(&queries, 5).unwrap();
            assert_eq!(batch.outcomes.len(), queries.len());
            for (outcome, expected) in batch.outcomes.iter().zip(reference.iter()) {
                assert_eq!(&outcome.neighbors, expected, "backend {name}");
            }
            for outcome in &batch.outcomes {
                assert!(outcome.candidates >= 5, "backend {name} reports the rows it scored");
            }
        }
    }

    #[test]
    fn per_query_k_and_options_are_honored() {
        let (data, queries) = workload();
        let kind = DivergenceKind::ItakuraSaito;
        let config = BrePartitionConfig::default().with_partitions(4).with_page_size(4096);
        let index = Arc::new(BrePartitionIndex::build(kind, &data, &config).unwrap());
        let pool = || index.new_buffer_pool();
        let backend = Arc::new(BrePartitionBackend::exact(index.clone()));
        let engine =
            QueryEngine::with_config(backend, EngineConfig::default().with_threads(4)).unwrap();

        // Heterogeneous ks: query i asks for (i % 7) + 1 neighbors.
        let requests: Vec<EngineRequest<'_>> =
            queries.iter().enumerate().map(|(i, q)| EngineRequest::new(q, (i % 7) + 1)).collect();
        let batch = engine.run_requests(&requests).unwrap();
        for (i, outcome) in batch.outcomes.iter().enumerate() {
            assert_eq!(outcome.neighbors.len(), (i % 7) + 1, "query {i} ignored its own k");
            let expected = index
                .knn(
                    &mut pool(),
                    &mut KernelScratch::default(),
                    requests[i].query,
                    requests[i].k,
                    None,
                )
                .unwrap()
                .neighbors;
            assert_eq!(outcome.neighbors, expected, "query {i}");
        }

        // A probability override on the exact backend runs that query
        // through the approximate search.
        let approx = ApproximateConfig::with_probability(0.9);
        let override_req = EngineRequest::new(&queries[0], 10)
            .with_options(QueryOptions::none().with_probability(0.9));
        let overridden = engine.run_requests(&[override_req]).unwrap();
        let expected = index
            .knn(&mut pool(), &mut KernelScratch::default(), &queries[0], 10, Some(&approx))
            .unwrap();
        assert_eq!(overridden.outcomes[0].neighbors, expected.neighbors);
    }

    #[test]
    fn unsupported_options_are_typed_errors_not_silent() {
        let (data, queries) = workload();
        let kind = DivergenceKind::ItakuraSaito;
        let config = BrePartitionConfig::default().with_partitions(4);
        let index = BrePartitionIndex::build(kind, &data, &config).unwrap();

        // Candidate budgets are not supported by BrePartition backends; the
        // batch path surfaces the same typed error as a single query would.
        let bp = QueryEngine::over(BrePartitionBackend::exact(index));
        let req = EngineRequest::new(&queries[0], 5)
            .with_options(QueryOptions::none().with_candidate_budget(10));
        match bp.run_requests(&[req]) {
            Err(EngineError::UnsupportedOption { backend, option }) => {
                assert_eq!(backend, "BP");
                assert!(option.contains("candidate budget"), "{option}");
            }
            other => panic!("expected unsupported-option error, got {other:?}"),
        }

        // Probability overrides are not supported by the VA-file.
        let vaf =
            QueryEngine::over(VaFileBackend::build(ItakuraSaito, &data, VaFileConfig::default()));
        let req = EngineRequest::new(&queries[0], 5)
            .with_options(QueryOptions::none().with_probability(0.9));
        match vaf.run_requests(&[req]) {
            Err(EngineError::UnsupportedOption { backend, option }) => {
                assert_eq!(backend, "VAF");
                assert!(option.contains("probability"), "{option}");
            }
            other => panic!("expected unsupported-option error, got {other:?}"),
        }
    }

    #[test]
    fn candidate_budget_bounds_baseline_backends() {
        let (data, queries) = workload();
        let bbt = BBTreeBackend::build(
            ItakuraSaito,
            &data,
            BBTreeConfig::with_leaf_capacity(16),
            PageStoreConfig::with_page_size(2048),
        );
        let vaf = VaFileBackend::build(ItakuraSaito, &data, VaFileConfig::default());
        for backend in
            [Arc::new(bbt) as Arc<dyn SearchBackend>, Arc::new(vaf) as Arc<dyn SearchBackend>]
        {
            let name = backend.name().to_string();
            let mut scratch = backend.new_scratch();
            let unbounded = backend
                .knn_with_options(&mut scratch, &queries[0], 8, &QueryOptions::none())
                .unwrap();
            let mut scratch = backend.new_scratch();
            let bounded = backend
                .knn_with_options(
                    &mut scratch,
                    &queries[0],
                    8,
                    &QueryOptions::none().with_candidate_budget(16),
                )
                .unwrap();
            assert!(
                bounded.io.pages_read <= unbounded.io.pages_read,
                "{name}: a budget must not read more pages than the exact search"
            );
            assert!(bounded.neighbors.len() <= 8, "{name}");
        }
    }

    #[test]
    fn invalid_configurations_are_rejected_at_construction() {
        let (data, _) = workload();
        let config = BrePartitionConfig::default().with_partitions(4);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
        let backend: Arc<dyn SearchBackend> = Arc::new(BrePartitionBackend::exact(index));

        // Explicit zero worker threads.
        match QueryEngine::with_config(backend.clone(), EngineConfig::default().with_threads(0)) {
            Err(EngineError::Config(message)) => assert!(message.contains("at least 1")),
            other => panic!("expected config error, got {other:?}"),
        }
        assert!(EngineConfig::default().with_threads(0).validate().is_err());
        assert!(EngineConfig::default().validate().is_ok());

        // Warm scratch over a backend serving zero-capacity pools (the
        // default BrePartitionConfig has buffer_pool_pages = 0) silently
        // caches nothing — reject it.
        match QueryEngine::with_config(
            backend.clone(),
            EngineConfig::default().with_threads(2).with_warm_scratch(),
        ) {
            Err(EngineError::Config(message)) => assert!(message.contains("warm"), "{message}"),
            other => panic!("expected config error, got {other:?}"),
        }

        // The same warm-scratch request over a buffered pool is fine.
        let buffered = BrePartitionIndex::build(
            DivergenceKind::ItakuraSaito,
            &data,
            &config.with_buffer_pool_pages(32),
        )
        .unwrap();
        assert!(QueryEngine::with_config(
            Arc::new(BrePartitionBackend::exact(buffered)),
            EngineConfig::default().with_threads(2).with_warm_scratch(),
        )
        .is_ok());
    }

    #[test]
    fn cold_scratch_makes_io_schedule_independent() {
        let (data, queries) = workload();
        let config = BrePartitionConfig::default().with_partitions(4).with_page_size(2048);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
        let backend = Arc::new(BrePartitionBackend::exact(index));
        let one =
            QueryEngine::with_config(backend.clone(), EngineConfig::default().with_threads(1))
                .unwrap();
        let four =
            QueryEngine::with_config(backend, EngineConfig::default().with_threads(4)).unwrap();
        let a = one.run_batch(&queries, 8).unwrap();
        let b = four.run_batch(&queries, 8).unwrap();
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.neighbors, y.neighbors);
            assert_eq!(x.io, y.io, "cold-scratch I/O must not depend on scheduling");
            assert_eq!(x.candidates, y.candidates);
        }
    }

    #[test]
    fn dimension_mismatch_surfaces_as_query_error() {
        let (data, _) = workload();
        let config = BrePartitionConfig::default().with_partitions(4);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
        let engine = QueryEngine::over(BrePartitionBackend::exact(index));
        let bad = vec![vec![1.0, 2.0]];
        match engine.run_batch(&bad, 3) {
            Err(EngineError::Query { index: 0, .. }) => {}
            other => panic!("expected query error, got {other:?}"),
        }
    }

    #[test]
    fn failed_batch_reports_the_first_failing_query_after_completed_ones() {
        let (data, queries) = workload();
        let config = BrePartitionConfig::default().with_partitions(4).with_page_size(2048);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
        let engine = QueryEngine::with_config(
            Arc::new(BrePartitionBackend::exact(index)),
            EngineConfig::default().with_threads(1),
        )
        .unwrap();
        // Two valid queries complete before the malformed third aborts the
        // batch; the error names the third.
        let mixed = vec![queries[0].clone(), queries[1].clone(), vec![1.0, 2.0]];
        match engine.run_batch(&mixed, 5) {
            Err(EngineError::Query { index: 2, .. }) => {}
            other => panic!("expected query error, got {other:?}"),
        }
    }

    #[test]
    fn backends_opened_from_disk_serve_identical_batches() {
        let (data, queries) = workload();
        let kind = DivergenceKind::ItakuraSaito;
        let root =
            std::env::temp_dir().join(format!("brepartition-engine-test-{}", std::process::id()));
        let config = BrePartitionConfig::default().with_partitions(4).with_page_size(2048);
        let index = Arc::new(BrePartitionIndex::build(kind, &data, &config).unwrap());

        // Save each index once (through the trait, as the façade does)…
        BrePartitionBackend::exact(index.clone()).save(&root.join("bp")).unwrap();
        let bbt_concrete = BBTreeBackend::build(
            ItakuraSaito,
            &data,
            BBTreeConfig::with_leaf_capacity(16),
            PageStoreConfig::with_page_size(2048),
        );
        bbt_concrete.save(&root.join("bbt")).unwrap();
        let vaf_concrete = VaFileBackend::build(ItakuraSaito, &data, VaFileConfig::default());
        vaf_concrete.save(&root.join("vaf")).unwrap();

        // …and pair every built backend with its reopened twin.
        let reopened_bp = Arc::new(BrePartitionIndex::open(&root.join("bp")).unwrap());
        let pairs: Vec<(Arc<dyn SearchBackend>, Arc<dyn SearchBackend>)> = vec![
            (
                Arc::new(BrePartitionBackend::exact(index.clone())),
                Arc::new(BrePartitionBackend::exact(reopened_bp.clone())),
            ),
            (
                Arc::new(BrePartitionBackend::approximate(
                    index,
                    ApproximateConfig::with_probability(0.9),
                )),
                Arc::new(BrePartitionBackend::approximate(
                    reopened_bp,
                    ApproximateConfig::with_probability(0.9),
                )),
            ),
            (
                Arc::new(bbt_concrete),
                Arc::new(BBTreeBackend::open(ItakuraSaito, &root.join("bbt")).unwrap()),
            ),
            (
                Arc::new(vaf_concrete),
                Arc::new(VaFileBackend::open(ItakuraSaito, &root.join("vaf")).unwrap()),
            ),
        ];
        for (built, reopened) in pairs {
            let name = built.name().to_string();
            assert_eq!(built.len(), reopened.len(), "{name}");
            assert_eq!(built.dim(), reopened.dim(), "{name}");
            let a = QueryEngine::with_config(built, EngineConfig::default().with_threads(2))
                .unwrap()
                .run_batch(&queries, 6)
                .unwrap();
            let b = QueryEngine::with_config(reopened, EngineConfig::default().with_threads(2))
                .unwrap()
                .run_batch(&queries, 6)
                .unwrap();
            for (qi, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
                assert_eq!(x.neighbors, y.neighbors, "{name} query {qi}");
                assert_eq!(x.io, y.io, "{name} query {qi}: I/O must survive reopening");
                assert_eq!(x.candidates, y.candidates, "{name} query {qi}");
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A probe backend that panics on any query whose first coordinate is
    /// negative, and answers everything else with one fixed neighbor.
    #[derive(Debug)]
    struct PanickingProbe;

    impl SearchBackend for PanickingProbe {
        fn name(&self) -> &str {
            "panic-probe"
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> usize {
            1
        }
        fn new_scratch(&self) -> Scratch {
            Scratch::new(pagestore::BufferPool::unbuffered())
        }
        fn knn_with_options(
            &self,
            _scratch: &mut Scratch,
            query: &[f64],
            _k: usize,
            _options: &QueryOptions,
        ) -> Result<BackendAnswer, EngineError> {
            assert!(query[0] >= 0.0, "probe panic: poisoned query");
            Ok(BackendAnswer {
                neighbors: vec![(bregman::PointId(0), 1.0)],
                candidates: 1,
                io: pagestore::IoStats::default(),
            })
        }
    }

    /// Run `body` with panic-hook output suppressed (the probes below panic
    /// on purpose; their backtraces are noise, not signal).
    fn quietly<T>(body: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = body();
        std::panic::set_hook(hook);
        result
    }

    #[test]
    fn worker_panic_surfaces_as_query_error_not_batch_poison() {
        let engine = QueryEngine::with_config(
            Arc::new(PanickingProbe),
            EngineConfig::default().with_threads(2),
        )
        .unwrap();
        // Query 7 panics; the batch must fail with that query's index
        // instead of unwinding through the thread scope.
        let queries: Vec<Vec<f64>> =
            (0..12).map(|i| vec![if i == 7 { -1.0 } else { i as f64 }, 0.0]).collect();
        match quietly(|| engine.run_batch(&queries, 1)) {
            Err(EngineError::Query { index: 7, message }) => {
                assert!(message.contains("panicked"), "{message}");
                assert!(message.contains("poisoned query"), "{message}");
            }
            other => panic!("expected a per-query panic error, got {other:?}"),
        }
        // The engine survives the panic and serves the next batch.
        let clean: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, 0.0]).collect();
        let batch = engine.run_batch(&clean, 1).unwrap();
        assert_eq!(batch.outcomes.len(), 4);
    }

    /// A probe backend that fails every query until externally healed.
    #[derive(Debug)]
    struct FlakyProbe {
        healthy: std::sync::atomic::AtomicBool,
    }

    impl FlakyProbe {
        fn sick() -> Self {
            Self { healthy: std::sync::atomic::AtomicBool::new(false) }
        }
        fn heal(&self) {
            self.healthy.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl SearchBackend for FlakyProbe {
        fn name(&self) -> &str {
            "flaky-probe"
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> usize {
            1
        }
        fn new_scratch(&self) -> Scratch {
            Scratch::new(pagestore::BufferPool::unbuffered())
        }
        fn knn_with_options(
            &self,
            _scratch: &mut Scratch,
            _query: &[f64],
            _k: usize,
            _options: &QueryOptions,
        ) -> Result<BackendAnswer, EngineError> {
            if self.healthy.load(std::sync::atomic::Ordering::SeqCst) {
                Ok(BackendAnswer {
                    neighbors: vec![(bregman::PointId(0), 1.0)],
                    candidates: 1,
                    io: pagestore::IoStats::default(),
                })
            } else {
                Err(EngineError::Backend("probe down".to_string()))
            }
        }
    }

    #[test]
    fn breaker_opens_after_threshold_skips_through_cooldown_and_probes_closed() {
        use crate::shard::{BreakerState, FanoutPolicy, ShardHealth};

        let flaky = Arc::new(FlakyProbe::sick());
        let healthy = Arc::new(PanickingProbe);
        let engine = ShardedEngine::new(vec![flaky.clone(), healthy], 2).unwrap();
        let health = ShardHealth::new(2);
        let policy = FanoutPolicy::default()
            .with_max_retries(1)
            .with_breaker(2, 2)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO);
        let queries: Vec<Vec<f64>> = vec![vec![1.0, 0.0], vec![2.0, 0.0]];
        let requests: Vec<EngineRequest<'_>> =
            queries.iter().map(|q| EngineRequest::new(q, 1)).collect();

        // Two failing fan-outs open shard 0's breaker (threshold 2); shard 1
        // answers throughout.
        for fanout in 0..2 {
            let results = engine.run_requests_with_policy(&requests, &policy, &health);
            let failure = results[0].as_ref().unwrap_err();
            assert!(!failure.skipped, "fan-out {fanout} must really dispatch");
            assert_eq!(failure.retries, 1);
            assert!(results[1].is_ok());
        }
        assert_eq!(health.state(0), BreakerState::Open);
        assert_eq!(health.breaker_opens(), 1);
        assert_eq!(health.retries(), 2, "one retry per failing fan-out");

        // While open, fan-outs are skipped without dispatch for the whole
        // cooldown (2 fan-outs).
        for _ in 0..2 {
            let results = engine.run_requests_with_policy(&requests, &policy, &health);
            assert!(results[0].as_ref().unwrap_err().skipped);
        }
        assert_eq!(health.retries(), 2, "skipped fan-outs must not retry");

        // The backend recovers; the next fan-out is the half-open probe and
        // closes the breaker. No second Closed → Open transition happened.
        flaky.heal();
        let results = engine.run_requests_with_policy(&requests, &policy, &health);
        assert!(results[0].is_ok());
        assert_eq!(health.state(0), BreakerState::Closed);
        assert_eq!(health.breaker_opens(), 1);
    }

    #[test]
    fn failed_half_open_probe_reopens_without_counting_a_second_open() {
        use crate::shard::{BreakerState, FanoutPolicy, ShardHealth};

        let flaky = Arc::new(FlakyProbe::sick());
        let engine = ShardedEngine::new(vec![flaky.clone()], 1).unwrap();
        let health = ShardHealth::new(1);
        let policy = FanoutPolicy::default()
            .with_max_retries(0)
            .with_breaker(1, 1)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO);
        let query = vec![1.0, 0.0];
        let requests = vec![EngineRequest::new(&query, 1)];

        // Open on the first failure, skip one fan-out, then fail the probe:
        // the breaker re-opens but `breaker_opens` stays at 1.
        assert!(engine.run_requests_with_policy(&requests, &policy, &health)[0].is_err());
        assert_eq!(health.state(0), BreakerState::Open);
        assert!(
            engine.run_requests_with_policy(&requests, &policy, &health)[0]
                .as_ref()
                .unwrap_err()
                .skipped
        );
        assert!(
            !engine.run_requests_with_policy(&requests, &policy, &health)[0]
                .as_ref()
                .unwrap_err()
                .skipped
        );
        assert_eq!(health.state(0), BreakerState::Open);
        assert_eq!(health.breaker_opens(), 1, "a probe failure must not double-count");
    }

    #[test]
    fn fault_injected_transients_recover_through_retries_to_exact_results() {
        use crate::fault::{FaultInjector, FaultPlan};
        use crate::shard::{FanoutPolicy, ShardHealth};

        let (data, queries) = workload();
        let config = BrePartitionConfig::default().with_partitions(4).with_page_size(4096);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
        let clean: Arc<dyn SearchBackend> = Arc::new(BrePartitionBackend::exact(index));

        // Reference: the unwrapped backend, single shard.
        let reference = ShardedEngine::new(vec![clean.clone()], 1)
            .unwrap()
            .run_requests(&to_requests(&queries));
        let expected = reference.unwrap().remove(0);

        // Faulted: 30% of queries fail their first attempt; retries must
        // recover the exact same answers.
        let plan = FaultPlan::with_seed(0xFA117).with_transient_rate(0.3);
        let faulted: Arc<dyn SearchBackend> = Arc::new(FaultInjector::new(clean, plan).unwrap());
        let engine = ShardedEngine::new(vec![faulted], 1).unwrap();
        let health = ShardHealth::new(1);
        let policy = FanoutPolicy::default()
            .with_max_retries(16)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::from_micros(10));
        let results = engine.run_requests_with_policy(&to_requests(&queries), &policy, &health);
        let got = results[0].as_ref().expect("retries must recover the batch");
        for (a, b) in expected.outcomes.iter().zip(got.outcomes.iter()) {
            assert_eq!(a.neighbors, b.neighbors);
        }
        assert!(health.retries() > 0, "a 30% fault rate must force at least one retry");
        assert_eq!(health.breaker_opens(), 0, "recovered batches must not trip the breaker");
    }

    fn to_requests<'q>(queries: &'q [Vec<f64>]) -> Vec<EngineRequest<'q>> {
        queries.iter().map(|q| EngineRequest::new(q, 5)).collect()
    }

    #[test]
    fn empty_batch_is_ok() {
        let (data, _) = workload();
        let config = BrePartitionConfig::default().with_partitions(4);
        let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
        let engine = QueryEngine::over(BrePartitionBackend::exact(index));
        let empty: Vec<Vec<f64>> = Vec::new();
        let batch = engine.run_batch(&empty, 3).unwrap();
        assert!(batch.outcomes.is_empty());
    }
}
