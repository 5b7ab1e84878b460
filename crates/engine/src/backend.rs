//! The [`SearchBackend`] abstraction: one trait over every index in the
//! workspace, so the batch engine (and the experiment harness) can drive
//! BrePartition, its approximate extension, the BB-tree baseline and the
//! VA-file baseline through a single code path: one search method,
//! [`SearchBackend::knn_with_options`], per backend.
//!
//! Every backend supports two lifecycles: *build* from a dataset or *open* a
//! previously saved index directory, so a serving process can come up
//! without re-running index construction. Saved directories are produced by
//! [`SearchBackend::save`] (which defers to the underlying index's
//! persistence format). The preferred way to construct backends is the
//! spec-driven façade in the root `brepartition` crate (`IndexSpec` →
//! `Index::build`/`Index::open`); the per-method constructors in this module
//! remain for callers wiring concrete index types by hand.

use std::path::Path;
use std::sync::Arc;

use bbtree::{BBTreeConfig, DiskBBTree, NodeKind};
use bregman::kernel::KernelScratch;
use bregman::{DecomposableBregman, DenseDataset, PointId};
use brepartition_core::{ApproximateConfig, BrePartitionIndex};
use pagestore::{BufferPool, IoStats, PageStoreConfig};
use vafile::{VaFile, VaFileConfig};

use crate::error::EngineError;
use crate::request::QueryOptions;

/// Per-thread mutable state a backend needs while answering queries.
///
/// Every index in this workspace reads data pages through a [`BufferPool`]
/// that carries the per-query I/O accounting, and evaluates refinement
/// distances through the prepared-query kernel buffers in
/// [`KernelScratch`]; the engine gives each worker thread its own scratch
/// so the shared index stays immutable (`&self`) during concurrent search.
/// The kernel buffers are deliberately reused across every query a worker
/// serves — steady-state serving performs no per-query allocation for
/// gradients or decoded candidates.
#[derive(Debug)]
pub struct Scratch {
    /// The buffer pool queries read through.
    pub pool: BufferPool,
    /// Prepared-query kernel buffers (gradient, decode, id staging).
    pub kernel: KernelScratch,
}

impl Scratch {
    /// Scratch around an existing pool (fresh kernel buffers).
    pub fn new(pool: BufferPool) -> Self {
        Self { pool, kernel: KernelScratch::default() }
    }
}

/// The answer to one kNN query, normalized across backends.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendAnswer {
    /// Neighbours as `(id, divergence)`, ordered by increasing divergence.
    pub neighbors: Vec<(PointId, f64)>,
    /// Rows the backend scored exactly (exact divergence evaluations).
    pub candidates: usize,
    /// Physical I/O performed for this query.
    pub io: IoStats,
}

/// A kNN index that can serve concurrent batch queries.
///
/// Implementations must be immutable during search: the one search method,
/// [`SearchBackend::knn_with_options`], takes `&self` and threads all
/// mutable state through the caller-owned [`Scratch`]. That contract is
/// what lets the engine share one index across worker threads without
/// locks.
pub trait SearchBackend: Send + Sync {
    /// Short method label (e.g. `"BP"`, `"ABP(p=0.90)"`, `"BBT"`, `"VAF"`).
    fn name(&self) -> &str;

    /// Dimensionality of the indexed points.
    fn dim(&self) -> usize;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fresh per-thread scratch state (a cold buffer pool).
    fn new_scratch(&self) -> Scratch;

    /// Answer one kNN query using the caller's scratch state, honoring
    /// per-query [`QueryOptions`] (`QueryOptions::none()` is the backend's
    /// default search).
    ///
    /// Options are typed requests: an option the backend cannot honor is
    /// rejected with [`EngineError::UnsupportedOption`] rather than silently
    /// ignored. A query of the wrong dimensionality, and a data page that
    /// fails its read, are [`EngineError::Backend`] errors raised by the
    /// index itself.
    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<BackendAnswer, EngineError>;

    /// Persist the backend's index to a directory, in the format its
    /// `open` constructor (and the `brepartition` façade's `Index::open`)
    /// reads back. The default implementation reports the backend as
    /// non-persistent.
    fn save(&self, dir: &Path) -> Result<(), EngineError> {
        let _ = dir;
        Err(EngineError::Backend(format!("backend {} does not support persistence", self.name())))
    }

    /// Export every indexed point's full-resolution coordinates, ordered by
    /// backend-internal id — the maintenance path compaction uses to
    /// rebuild an index from its live set. The default implementation
    /// reports the backend as non-exportable; every disk-backed adapter in
    /// this module overrides it by draining its page store.
    fn export_rows(&self) -> Result<DenseDataset, EngineError> {
        Err(EngineError::Backend(format!("backend {} does not support row export", self.name())))
    }
}

/// Drain a page store into a dense dataset, ordered by point id. A page
/// that fails its read aborts the export (and so the compaction that asked
/// for it) with that error.
fn export_store_rows(store: &pagestore::PageStore) -> Result<DenseDataset, EngineError> {
    let dim = store.dim();
    let mut flat = vec![0.0; store.point_count() * dim];
    store
        .for_each_point(&mut |pid, coords| {
            let i = pid as usize;
            flat[i * dim..(i + 1) * dim].copy_from_slice(coords);
        })
        .map_err(|e| EngineError::Backend(e.to_string()))?;
    DenseDataset::from_flat(dim, flat).map_err(|e| EngineError::Backend(e.to_string()))
}

/// Reject every option the calling backend does not support.
fn reject_unsupported(
    name: &str,
    options: &QueryOptions,
    supports_probability: bool,
    supports_budget: bool,
) -> Result<(), EngineError> {
    if options.probability.is_some() && !supports_probability {
        return Err(EngineError::UnsupportedOption {
            backend: name.to_string(),
            option: "a per-query approximation-probability override".to_string(),
        });
    }
    if options.candidate_budget.is_some() && !supports_budget {
        return Err(EngineError::UnsupportedOption {
            backend: name.to_string(),
            option: "a per-query candidate budget".to_string(),
        });
    }
    Ok(())
}

/// The BrePartition index behind the [`SearchBackend`] trait, in either
/// exact (Algorithm 6) or approximate (ABP) mode.
///
/// The index is held behind an [`Arc`] so one build can serve several
/// backends (typically an exact and an approximate one) without duplicating
/// the transformed dataset and BB-forest; the `Into<Arc<_>>` constructors
/// accept an owned index or an existing `Arc` alike.
#[derive(Debug, Clone)]
pub struct BrePartitionBackend {
    index: Arc<BrePartitionIndex>,
    /// `None` serves the exact search, `Some` the approximate one.
    approximate: Option<ApproximateConfig>,
    name: String,
}

impl BrePartitionBackend {
    /// Wrap an index for exact search.
    pub fn exact(index: impl Into<Arc<BrePartitionIndex>>) -> Self {
        Self { index: index.into(), approximate: None, name: "BP".to_string() }
    }

    /// Wrap an index for approximate search at the configured probability.
    pub fn approximate(
        index: impl Into<Arc<BrePartitionIndex>>,
        config: ApproximateConfig,
    ) -> Self {
        let name = format!("ABP(p={:.2})", config.probability);
        Self { index: index.into(), approximate: Some(config), name }
    }

    /// The wrapped index.
    pub fn index(&self) -> &BrePartitionIndex {
        &self.index
    }
}

impl SearchBackend for BrePartitionBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.index.dim()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn new_scratch(&self) -> Scratch {
        Scratch::new(self.index.new_buffer_pool())
    }

    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<BackendAnswer, EngineError> {
        reject_unsupported(self.name(), options, true, false)?;
        // A probability override runs this query through the approximate
        // search at guarantee `p`, whatever the backend's default mode.
        let approximate =
            options.probability.map(ApproximateConfig::with_probability).or(self.approximate);
        let before = scratch.pool.stats();
        let result = self
            .index
            .knn(&mut scratch.pool, &mut scratch.kernel, query, k, approximate.as_ref())
            .map_err(|e| EngineError::Backend(e.to_string()))?;
        Ok(BackendAnswer {
            neighbors: result.neighbors,
            candidates: result.stats.candidates,
            io: scratch.pool.stats().since(&before),
        })
    }

    fn save(&self, dir: &Path) -> Result<(), EngineError> {
        self.index.save(dir).map_err(|e| EngineError::Backend(e.to_string()))
    }

    fn export_rows(&self) -> Result<DenseDataset, EngineError> {
        export_store_rows(self.index.forest().store())
    }
}

/// The disk-resident BB-tree baseline ("BBT") behind the trait.
#[derive(Debug, Clone)]
pub struct BBTreeBackend<B: DecomposableBregman + Send + Sync> {
    tree: DiskBBTree<B>,
    /// Points in the fullest leaf; converts a per-query candidate budget
    /// into a whole-leaf visit budget.
    max_leaf_points: usize,
    /// Capacity of the buffer pools handed out by `new_scratch` (0 =
    /// unbuffered, the paper's per-query I/O accounting).
    scratch_pool_pages: usize,
}

impl<B: DecomposableBregman + Send + Sync> BBTreeBackend<B> {
    /// Build the tree over a dataset.
    pub fn build(
        divergence: B,
        dataset: &DenseDataset,
        tree_config: BBTreeConfig,
        store_config: PageStoreConfig,
    ) -> Self {
        let tree = DiskBBTree::build(divergence, dataset, tree_config, store_config);
        let max_leaf_points = max_leaf_points(&tree);
        Self { tree, max_leaf_points, scratch_pool_pages: 0 }
    }

    /// Open a tree saved with [`SearchBackend::save`] (or
    /// [`DiskBBTree::save`]).
    pub fn open(divergence: B, dir: &Path) -> Result<Self, EngineError> {
        let tree =
            DiskBBTree::open(divergence, dir).map_err(|e| EngineError::Backend(e.to_string()))?;
        let max_leaf_points = max_leaf_points(&tree);
        Ok(Self { tree, max_leaf_points, scratch_pool_pages: 0 })
    }

    /// Hand out buffered scratch pools of `pages` pages (0 = unbuffered).
    pub fn with_scratch_pool_pages(mut self, pages: usize) -> Self {
        self.scratch_pool_pages = pages;
        self
    }

    /// The wrapped tree.
    pub fn tree(&self) -> &DiskBBTree<B> {
        &self.tree
    }
}

/// Size of the fullest leaf of a disk tree (at least 1).
fn max_leaf_points<B: DecomposableBregman>(tree: &DiskBBTree<B>) -> usize {
    tree.tree()
        .leaves_in_order()
        .into_iter()
        .map(|leaf| match tree.tree().node(leaf) {
            NodeKind::Leaf { points } => points.len(),
            NodeKind::Internal { .. } => 0,
        })
        .max()
        .unwrap_or(1)
        .max(1)
}

impl<B: DecomposableBregman + Send + Sync> SearchBackend for BBTreeBackend<B> {
    fn name(&self) -> &str {
        "BBT"
    }

    fn dim(&self) -> usize {
        self.tree.tree().dim()
    }

    fn len(&self) -> usize {
        self.tree.tree().len()
    }

    fn new_scratch(&self) -> Scratch {
        Scratch::new(BufferPool::new(self.scratch_pool_pages))
    }

    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<BackendAnswer, EngineError> {
        reject_unsupported(self.name(), options, false, true)?;
        // Round the candidate budget up to whole leaves: the tree loads
        // leaves atomically, so the budget bounds leaf visits.
        let leaf_budget =
            options.candidate_budget.map(|budget| budget.div_ceil(self.max_leaf_points).max(1));
        let result = self
            .tree
            .knn(&mut scratch.pool, &mut scratch.kernel, query, k, leaf_budget)
            .map_err(|e| EngineError::Backend(e.to_string()))?;
        Ok(BackendAnswer {
            neighbors: result.neighbors,
            candidates: result.search.distance_computations as usize,
            io: result.io,
        })
    }

    fn save(&self, dir: &Path) -> Result<(), EngineError> {
        self.tree.save(dir).map_err(|e| EngineError::Backend(e.to_string()))
    }

    fn export_rows(&self) -> Result<DenseDataset, EngineError> {
        export_store_rows(self.tree.store())
    }
}

/// The VA-file baseline ("VAF") behind the trait.
#[derive(Debug, Clone)]
pub struct VaFileBackend<B: DecomposableBregman + Send + Sync> {
    file: VaFile<B>,
    /// Capacity of the buffer pools handed out by `new_scratch` (0 =
    /// unbuffered, the paper's per-query I/O accounting).
    scratch_pool_pages: usize,
}

impl<B: DecomposableBregman + Send + Sync> VaFileBackend<B> {
    /// Build the VA-file over a dataset.
    pub fn build(divergence: B, dataset: &DenseDataset, config: VaFileConfig) -> Self {
        Self { file: VaFile::build(divergence, dataset, config), scratch_pool_pages: 0 }
    }

    /// Open a VA-file saved with [`SearchBackend::save`] (or
    /// [`VaFile::save`]).
    pub fn open(divergence: B, dir: &Path) -> Result<Self, EngineError> {
        let file =
            VaFile::open(divergence, dir).map_err(|e| EngineError::Backend(e.to_string()))?;
        Ok(Self { file, scratch_pool_pages: 0 })
    }

    /// Hand out buffered scratch pools of `pages` pages (0 = unbuffered).
    pub fn with_scratch_pool_pages(mut self, pages: usize) -> Self {
        self.scratch_pool_pages = pages;
        self
    }

    /// The wrapped VA-file.
    pub fn file(&self) -> &VaFile<B> {
        &self.file
    }
}

impl<B: DecomposableBregman + Send + Sync> SearchBackend for VaFileBackend<B> {
    fn name(&self) -> &str {
        "VAF"
    }

    fn dim(&self) -> usize {
        self.file.quantizer().dim()
    }

    fn len(&self) -> usize {
        self.file.len()
    }

    fn new_scratch(&self) -> Scratch {
        Scratch::new(BufferPool::new(self.scratch_pool_pages))
    }

    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<BackendAnswer, EngineError> {
        reject_unsupported(self.name(), options, false, true)?;
        let result = self
            .file
            .knn(&mut scratch.pool, &mut scratch.kernel, query, k, options.candidate_budget)
            .map_err(|e| EngineError::Backend(e.to_string()))?;
        Ok(BackendAnswer {
            neighbors: result.neighbors,
            candidates: result.candidates,
            io: result.io,
        })
    }

    fn save(&self, dir: &Path) -> Result<(), EngineError> {
        self.file.save(dir).map_err(|e| EngineError::Backend(e.to_string()))
    }

    fn export_rows(&self) -> Result<DenseDataset, EngineError> {
        export_store_rows(self.file.store())
    }
}
