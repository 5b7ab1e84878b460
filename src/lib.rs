//! BrePartition — optimized high-dimensional kNN search with Bregman
//! distances.
//!
//! This is the façade crate of the workspace. Applications program against
//! **one spec-driven API** — [`IndexSpec`] → [`Index`] → [`QueryRequest`] —
//! that covers all four methods of the paper's evaluation (BP, ABP, BBT,
//! VAF) over every supported divergence:
//!
//! * [`IndexSpec`] describes *what to build*: a [`Method`], a
//!   [`DivergenceKind`](bregman::DivergenceKind), and every tuning knob,
//!   assembled with a fluent builder and validated before any work happens.
//! * [`Index::build`] constructs the index, [`Index::save`] persists it
//!   (backend artifacts plus a sealed spec envelope), and [`Index::open`]
//!   restores it **self-describingly** — the directory's envelope names the
//!   method and divergence, so callers never dispatch on kind.
//! * [`QueryRequest`] / [`Request`] carry per-query options — each query's
//!   own `k`, an approximation-probability override, a candidate budget —
//!   over borrowed `&[f64]` rows, executed by [`Index::query`] /
//!   [`Index::run`] (or an explicit [`QueryEngine`](engine::QueryEngine)).
//! * [`ShardSpec`] → [`ShardedIndex`] scale the same API across N disjoint
//!   shards in one process (bit-identical to unsharded for exact methods),
//!   scatter-gathered under one shared worker budget.
//! * [`Error`] unifies the per-layer error enums (core, engine, storage)
//!   behind `#[non_exhaustive]` variants with full source-chaining.
//!
//! # Quick start
//!
//! ```
//! use brepartition::prelude::*;
//!
//! // A small Itakura-Saito workload.
//! let data = HierarchicalSpec { n: 500, dim: 32, clusters: 10, blocks: 8, ..Default::default() }
//!     .generate();
//!
//! // Describe the index, build it, query it.
//! let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
//!     .with_partitions(8)
//!     .with_page_size(8 * 1024);
//! let index = Index::build(&spec, &data).unwrap();
//!
//! let query = data.row(42);
//! let result = index.query(&QueryRequest::new(query, 10)).unwrap();
//! assert_eq!(result.neighbors.len(), 10);
//! assert_eq!(result.neighbors[0].0.index(), 42); // the query is its own 1-NN
//! println!("{} candidate points, {} page reads", result.candidates, result.io.pages_read);
//!
//! // Batches carry per-query ks and options over borrowed rows.
//! let rows: Vec<&[f64]> = (0..4).map(|i| data.row(i)).collect();
//! let batch = index
//!     .run(&Request::batch(rows.iter().enumerate().map(|(i, row)| {
//!         QueryRequest::new(row, i + 1)
//!     })))
//!     .unwrap();
//! assert_eq!(batch.outcomes[3].neighbors.len(), 4);
//! ```
//!
//! # Migrating from the per-method constructors
//!
//! The pre-façade kind-dispatch constructors (`build_exact`,
//! `build_approximate`, `open_exact`, `open_approximate`,
//! `*_backend_for_kind`, `*_backend_open_for_kind`) shipped as
//! `#[deprecated]` shims for one release and have now been **removed**.
//! Replace them as follows:
//!
//! | removed constructor | spec-driven call |
//! |---|---|
//! | `BrePartitionBackend::build_exact(kind, &data, &config)` | `Index::build(&IndexSpec::brepartition(kind), &data)` |
//! | `BrePartitionBackend::build_approximate(kind, &data, &config, approx)` | `Index::build(&IndexSpec::approximate(kind).with_probability(p), &data)` |
//! | `bbtree_backend_for_kind(kind, &data, tree_config, store_config)` | `Index::build(&IndexSpec::bbtree(kind), &data)` |
//! | `vafile_backend_for_kind(kind, &data, config)` | `Index::build(&IndexSpec::vafile(kind), &data)` |
//! | `BrePartitionBackend::open_exact(dir)` | `Index::open(dir)` |
//! | `BrePartitionBackend::open_approximate(dir, approx)` | `Index::open(dir)` (the envelope records the probability) |
//! | `bbtree_backend_open_for_kind(kind, dir)` | `Index::open(dir)` |
//! | `vafile_backend_open_for_kind(kind, dir)` | `Index::open(dir)` |
//! | `backend.save(dir)` + caller-side kind bookkeeping | `index.save(dir)` (spec envelope written alongside) |
//! | `engine.run_batch(&owned_queries, k)` | `index.run(&Request::uniform(&rows, k))` or per-query [`QueryRequest`]s |
//!
//! Callers wiring a *concrete* index type by hand (a specific divergence
//! known at compile time) keep the non-dispatching constructors:
//! `BrePartitionBackend::exact`/`approximate`, `BBTreeBackend::build`/`open`
//! and `VaFileBackend::build`/`open`.
//!
//! `BrePartitionConfig`, `BBTreeConfig`, `VaFileConfig` knobs map onto
//! [`IndexSpec`] builders (`with_partitions`, `with_page_size`,
//! `with_leaf_capacity`, `with_bits_per_dim`, …); [`IndexSpec`] validates
//! the combination at construction.
//!
//! # Layers
//!
//! The component crates remain available for advanced use:
//!
//! * [`core`] — the BrePartition index (bounds, partitioning, PCCP,
//!   BB-forest, exact and approximate search),
//! * [`bregman`] — Bregman divergences and the dense dataset container,
//! * [`bbtree`] — Bregman ball trees (the BBT baseline and the per-subspace
//!   index),
//! * [`vafile`] — the VA-file baseline,
//! * [`pagestore`] — the storage layer: paged disk images (memory or file
//!   backed), buffer pools, I/O accounting, sealed-envelope format,
//! * [`datagen`] — dataset proxies, query workloads, ground truth and
//!   accuracy metrics,
//! * [`engine`] — the concurrent batch query engine
//!   the façade drives: [`SearchBackend`](brepartition_engine::SearchBackend),
//!   [`QueryEngine`](brepartition_engine::QueryEngine), per-query
//!   [`EngineRequest`](brepartition_engine::EngineRequest)s and their
//!   [`QueryOutcome`](brepartition_engine::QueryOutcome)s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bbtree;
pub use bregman;
pub use brepartition_core as core;
pub use brepartition_engine as engine;
pub use datagen;
pub use pagestore;
pub use vafile;

pub mod error;
pub mod index;
pub mod request;
pub mod sharded;
pub mod spec;

pub use error::{Error, Result};
pub use index::{Index, DELTA_FILE, SPEC_FILE, SPEC_MAGIC, SPEC_VERSION};
pub use request::{QueryRequest, Request};
pub use sharded::{
    Outcome, ResilientBatch, ShardSpec, ShardedIndex, MAX_SHARDS, SHARDS_FILE, SHARDS_MAGIC,
    SHARDS_VERSION,
};
pub use spec::{CompactionSpec, IndexSpec, Method, StorageSpec};

/// The most commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use crate::index::Index;
    pub use crate::request::{QueryRequest, Request};
    pub use crate::sharded::{Outcome, ResilientBatch, ShardSpec, ShardedIndex};
    pub use crate::spec::{CompactionSpec, IndexSpec, Method, StorageSpec};
    pub use bbtree::{BBTreeConfig, DiskBBTree, VariationalConfig};
    pub use bregman::kernel::KernelScratch;
    pub use bregman::{
        DecomposableBregman, DenseDataset, DivergenceKind, Exponential, ItakuraSaito, PointId,
        SquaredEuclidean,
    };
    pub use brepartition_core::{
        ApproximateConfig, BrePartitionConfig, BrePartitionIndex, DeltaSegment, PartitionStrategy,
        QueryResult,
    };
    pub use brepartition_engine::{
        BBTreeBackend, BackendAnswer, BatchResult, BrePartitionBackend, BreakerState,
        DeltaOverlayBackend, EngineConfig, EngineError, EngineRequest, FanoutPolicy, FaultInjector,
        FaultPlan, FaultState, QueryEngine, QueryOptions, QueryOutcome, Scratch, SearchBackend,
        ShardFailure, ShardHealth, ShardedEngine, VaFileBackend,
    };
    pub use datagen::{
        ground_truth_knn, overall_ratio, recall, DatasetSpec, HierarchicalSpec, PaperDataset,
        QueryWorkload,
    };
    pub use pagestore::{BufferPool, IoStats, PageStore, PageStoreConfig, PersistError};
    pub use vafile::{VaFile, VaFileConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_builds_and_queries_through_the_spec_api() {
        let data =
            HierarchicalSpec { n: 200, dim: 16, clusters: 8, blocks: 4, ..Default::default() }
                .generate();
        let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
            .with_partitions(4)
            .with_page_size(4096);
        let index = Index::build(&spec, &data).unwrap();
        assert_eq!(index.len(), 200);
        assert_eq!(index.dim(), 16);
        assert_eq!(index.method(), Method::BrePartition);
        let result = index.query(&QueryRequest::new(data.row(0), 3)).unwrap();
        assert_eq!(result.neighbors.len(), 3);
    }

    #[test]
    fn every_method_builds_through_the_identical_call() {
        let data =
            HierarchicalSpec { n: 150, dim: 12, clusters: 6, blocks: 3, ..Default::default() }
                .generate();
        let kind = DivergenceKind::ItakuraSaito;
        for (label, spec) in [
            ("BP", IndexSpec::brepartition(kind)),
            ("ABP", IndexSpec::approximate(kind)),
            ("BBT", IndexSpec::bbtree(kind)),
            ("VAF", IndexSpec::vafile(kind)),
        ] {
            let spec = spec.with_partitions(3).with_page_size(2048);
            let index = Index::build(&spec, &data).unwrap();
            let outcome = index.query(&QueryRequest::new(data.row(5), 4)).unwrap();
            assert_eq!(outcome.neighbors.len(), 4, "{label}");
            assert_eq!(outcome.neighbors[0].0.index(), 5, "{label}");
        }
    }
}
