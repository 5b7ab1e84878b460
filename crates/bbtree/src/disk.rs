//! Disk-resident BB-tree: the paper's **BBT** baseline.
//!
//! The paper extends Cayton's in-memory BB-tree to disk by keeping the tree
//! structure (ball centres and radii) in memory while the data points live in
//! fixed-size pages; every leaf visit loads the leaf's points through the
//! buffer pool so the per-query I/O cost can be measured. [`DiskBBTree`]
//! bundles the tree with its page store and exposes exact kNN, range search
//! and the variational approximate search over that storage layout.

use std::path::Path;
use std::sync::Arc;

use bregman::kernel::{phi_table, KernelScratch};
use bregman::{BregmanError, DecomposableBregman, DenseDataset, PointId};
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError, PersistResult};
use pagestore::{BufferPool, IoStats, PageStore, PageStoreConfig, PageStoreError};

use crate::build::{BBTreeBuilder, BBTreeConfig};
use crate::node::BBTree;
use crate::stats::SearchStats;

/// File name of the serialized tree structure within an index directory.
pub const TREE_FILE: &str = "tree.bbt";

/// File name of the page file within an index directory.
pub const PAGES_FILE: &str = "pages.bin";

/// File name of the per-point `Φ(x)` column within an index directory.
pub const PHI_FILE: &str = "phi.tbl";

/// Magic tag of the `Φ` column artifact.
pub const PHI_MAGIC: [u8; 8] = *b"BREPPHI1";

/// Format version of the `Φ` column this build writes and reads.
pub const PHI_VERSION: u32 = 1;

/// Why a [`DiskBBTree::knn`] query failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The query is malformed: a [`BregmanError::DimensionMismatch`] whose
    /// `left` is the query's length and `right` the indexed dimensionality,
    /// or a [`BregmanError::OutOfDomain`] carrying the first coordinate
    /// outside the divergence's domain.
    Query(BregmanError),
    /// A data page failed its read after open.
    Storage(PageStoreError),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Query(e) => write!(f, "invalid query: {e}"),
            SearchError::Storage(e) => write!(f, "page read failed: {e}"),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Query(e) => Some(e),
            SearchError::Storage(e) => Some(e),
        }
    }
}

/// Result of one disk-resident query: neighbours plus CPU and I/O cost.
#[derive(Debug, Clone)]
pub struct DiskQueryResult {
    /// The neighbours as `(id, divergence)`, ordered by increasing
    /// divergence.
    pub neighbors: Vec<(PointId, f64)>,
    /// Tree traversal counters.
    pub search: SearchStats,
    /// Physical I/O counters for this query.
    pub io: IoStats,
}

/// A BB-tree whose data points are stored in a [`PageStore`], laid out in the
/// tree's own leaf order so that each leaf is (close to) contiguous on disk.
///
/// The page store sits behind an `Arc`, so cloning shares the disk image
/// instead of duplicating the dataset.
#[derive(Debug, Clone)]
pub struct DiskBBTree<B: DecomposableBregman> {
    divergence: B,
    tree: BBTree,
    store: Arc<PageStore>,
    /// Per-point generator sums `Φ(x) = Σ_j φ(x_j)`, indexed by point id —
    /// the data side of the prepared-query kernel, computed once at build
    /// time and persisted as [`PHI_FILE`].
    phi: Arc<Vec<f64>>,
}

impl<B: DecomposableBregman> DiskBBTree<B> {
    /// Build the tree over `dataset` and lay the points out on the simulated
    /// disk in leaf order.
    pub fn build(
        divergence: B,
        dataset: &DenseDataset,
        tree_config: BBTreeConfig,
        store_config: PageStoreConfig,
    ) -> Self {
        let phi = phi_table(&divergence, dataset);
        let tree =
            BBTreeBuilder::new(divergence.clone(), tree_config).build_with_phi(dataset, &phi);
        let order: Vec<u32> = tree.points_in_leaf_order().iter().map(|p| p.0).collect();
        let store = PageStore::build_with_order(store_config, dataset.dim(), &order, |pid| {
            dataset.point(PointId(pid))
        });
        Self { divergence, tree, store: Arc::new(store), phi: Arc::new(phi) }
    }

    /// Persist the index to a directory: the tree structure as
    /// [`TREE_FILE`], the data pages as [`PAGES_FILE`] and the per-point
    /// `Φ(x)` column as [`PHI_FILE`].
    pub fn save(&self, dir: &Path) -> PersistResult<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(TREE_FILE), self.tree.to_bytes())?;
        let mut w = ByteWriter::new();
        w.put_f64_seq(&self.phi);
        std::fs::write(dir.join(PHI_FILE), seal(&PHI_MAGIC, PHI_VERSION, &w.into_vec()))?;
        self.store.save(&dir.join(PAGES_FILE))
    }

    /// Open an index saved with [`DiskBBTree::save`]. The tree structure is
    /// loaded into memory; data pages are served from the page file on
    /// demand. Fails if the directory was written for a different
    /// divergence, or if the [`PHI_FILE`] column is missing or invalid.
    pub fn open(divergence: B, dir: &Path) -> PersistResult<Self> {
        let tree = BBTree::from_bytes(&std::fs::read(dir.join(TREE_FILE))?)?;
        if tree.divergence_name() != divergence.name() {
            return Err(PersistError::Corrupt(format!(
                "index was built for divergence {:?}, opened with {:?}",
                tree.divergence_name(),
                divergence.name()
            )));
        }
        let store = PageStore::open(&dir.join(PAGES_FILE))?;
        if store.point_count() != tree.len() {
            return Err(PersistError::Corrupt(format!(
                "page file holds {} points, tree indexes {}",
                store.point_count(),
                tree.len()
            )));
        }
        if store.dim() != tree.dim() {
            return Err(PersistError::Corrupt(format!(
                "page file records are {}-dimensional, tree is {}-dimensional",
                store.dim(),
                tree.dim()
            )));
        }
        // Every indexed point must resolve to a page address, otherwise a
        // structurally valid tree over the wrong id space would silently
        // drop candidates at query time.
        if let Some(orphan) =
            tree.points_in_leaf_order().iter().find(|p| store.address_of(p.0).is_none())
        {
            return Err(PersistError::Corrupt(format!(
                "tree indexes point {orphan} which has no address in the page file"
            )));
        }
        let phi = read_phi(dir, tree.len())?;
        Ok(Self { divergence, tree, store: Arc::new(store), phi: Arc::new(phi) })
    }

    /// The in-memory tree structure.
    pub fn tree(&self) -> &BBTree {
        &self.tree
    }

    /// The disk image.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The divergence this index was built for.
    pub fn divergence(&self) -> &B {
        &self.divergence
    }

    /// The per-point `Φ(x)` column (indexed by point id).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// kNN with per-query I/O accounting through `pool`, reusing the
    /// caller's [`KernelScratch`] (the batch-serving hot path: the
    /// prepared-query gradient buffer and the candidate decode buffers are
    /// reused across a whole batch).
    ///
    /// `leaf_budget: None` is the exact search. `Some(b)` visits at most
    /// `b` leaves in best-first order — the paper's **Var** baseline passes
    /// [`VariationalConfig::leaf_budget`](crate::VariationalConfig::leaf_budget)
    /// — bounding candidates and I/O at the cost of exactness; a budget of
    /// at least [`BBTree::leaf_count`] is the exact search.
    ///
    /// The traversal runs the prepared-query kernel — query-side
    /// transcendentals hoisted once, per-candidate distance
    /// `Φ(x) + c_q − ⟨∇φ(q), x⟩` over the tabulated `Φ` column — and
    /// decodes each visited leaf one page group at a time as a lane-major
    /// block refined in a single batched kernel call. A query of the wrong
    /// dimensionality, or with a coordinate outside the divergence's domain
    /// (NaN, ±∞, ≤ 0 under Itakura–Saito), is [`SearchError::Query`]; a page
    /// read that fails mid-query (post-open bit rot caught by the page
    /// file's per-page checksums, or a device error) is
    /// [`SearchError::Storage`].
    pub fn knn(
        &self,
        pool: &mut BufferPool,
        kernel: &mut KernelScratch,
        query: &[f64],
        k: usize,
        leaf_budget: Option<usize>,
    ) -> Result<DiskQueryResult, SearchError> {
        if query.len() != self.tree.dim() {
            return Err(SearchError::Query(BregmanError::DimensionMismatch {
                left: query.len(),
                right: self.tree.dim(),
            }));
        }
        self.divergence.check_domain(query).map_err(SearchError::Query)?;
        let before = pool.stats();
        let mut stats = SearchStats::new();
        let KernelScratch { prepared, ids, lanes, distances, phis, .. } = kernel;
        prepared.decompose_into(&self.divergence, query);
        let prepared: &bregman::kernel::PreparedQuery = prepared;
        let phi = &self.phi;
        let store = &self.store;
        // The traversal callback cannot early-return through `knn_bounded`,
        // so a failed page read is captured here and re-raised afterwards
        // (remaining leaf visits are skipped).
        let mut read_error: Option<PageStoreError> = None;
        let neighbors = self.tree.knn_bounded(
            &self.divergence,
            query,
            k,
            &mut stats,
            leaf_budget.unwrap_or(usize::MAX),
            &mut |leaf_points, offer| {
                if read_error.is_some() {
                    return;
                }
                ids.clear();
                ids.extend(leaf_points.iter().map(|p| p.0));
                if let Err(e) = pool.read_points_block(store, ids, lanes, &mut |members, block| {
                    phis.clear();
                    phis.extend(members.iter().map(|&pid| phi[pid as usize]));
                    prepared.distance_block(phis, block, distances);
                    for (&pid, &d) in members.iter().zip(distances.iter()) {
                        offer(PointId(pid), d);
                    }
                }) {
                    read_error = Some(e);
                }
            },
        );
        if let Some(e) = read_error {
            return Err(SearchError::Storage(e));
        }
        Ok(DiskQueryResult { neighbors, search: stats, io: pool.stats().since(&before) })
    }

    /// Number of pages in the simulated disk image.
    pub fn page_count(&self) -> usize {
        self.store.page_count()
    }
}

/// Load the persisted `Φ` column.
fn read_phi(dir: &Path, expected_len: usize) -> PersistResult<Vec<f64>> {
    let bytes = std::fs::read(dir.join(PHI_FILE))?;
    let payload = unseal(&PHI_MAGIC, PHI_VERSION, &bytes)?;
    let mut r = ByteReader::new(payload);
    let phi = r.take_f64_seq()?;
    r.expect_end()?;
    if phi.len() != expected_len {
        return Err(PersistError::Corrupt(format!(
            "Φ column holds {} entries, index holds {expected_len} points",
            phi.len()
        )));
    }
    Ok(phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::linear_scan_knn;
    use crate::variational::VariationalConfig;
    use bregman::{ItakuraSaito, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> DenseDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.gen_range(0.1..10.0)).collect()).collect();
        DenseDataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn disk_knn_matches_linear_scan() {
        let ds = random_dataset(250, 8, 41);
        let index = DiskBBTree::build(
            SquaredEuclidean,
            &ds,
            BBTreeConfig::with_leaf_capacity(16),
            PageStoreConfig::with_page_size(1024),
        );
        let mut pool = BufferPool::unbuffered();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let query: Vec<f64> = (0..8).map(|_| rng.gen_range(0.1..10.0)).collect();
            let result =
                index.knn(&mut pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
            let expected = linear_scan_knn(&SquaredEuclidean, &ds, &query, 10);
            assert_eq!(result.neighbors.len(), 10);
            for (g, e) in result.neighbors.iter().zip(expected.iter()) {
                assert!((g.1 - e.1).abs() < 1e-9);
            }
            assert!(result.io.pages_read > 0, "disk search must perform I/O");
        }
    }

    #[test]
    fn io_cost_bounded_by_page_count_with_warm_pool() {
        let ds = random_dataset(300, 6, 5);
        let index = DiskBBTree::build(
            SquaredEuclidean,
            &ds,
            BBTreeConfig::with_leaf_capacity(20),
            PageStoreConfig::with_page_size(2048),
        );
        // A pool large enough to hold the whole store never re-reads a page.
        let mut pool = BufferPool::new(index.page_count());
        let result =
            index.knn(&mut pool, &mut KernelScratch::default(), &[5.0; 6], 5, None).unwrap();
        assert!(result.io.pages_read <= index.page_count() as u64);
        assert!(result.neighbors.len() == 5);
    }

    #[test]
    fn leaf_order_layout_keeps_leaf_pages_contiguous() {
        let ds = random_dataset(128, 4, 9);
        let index = DiskBBTree::build(
            SquaredEuclidean,
            &ds,
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(8 * 4 * 8), // 8 records per page
        );
        // Every leaf of capacity 8 should span at most 2 pages.
        for leaf in index.tree().leaves_in_order() {
            if let crate::node::NodeKind::Leaf { points } = &index.tree().node(leaf).kind {
                let pages: std::collections::HashSet<_> =
                    points.iter().map(|p| index.store().address_of(p.0).unwrap().page).collect();
                assert!(pages.len() <= 2, "leaf spread over {} pages", pages.len());
            }
        }
    }

    #[test]
    fn save_open_roundtrip_answers_identically_with_identical_io() {
        let ds = random_dataset(300, 6, 21);
        let built = DiskBBTree::build(
            ItakuraSaito,
            &ds,
            BBTreeConfig::with_leaf_capacity(12),
            PageStoreConfig::with_page_size(1024),
        );
        let dir = std::env::temp_dir().join(format!("bbtree-disk-test-{}", std::process::id()));
        built.save(&dir).unwrap();
        let reopened = DiskBBTree::open(ItakuraSaito, &dir).unwrap();
        assert_eq!(reopened.store().backend_kind(), "file");
        assert_eq!(reopened.page_count(), built.page_count());
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..4 {
            let query: Vec<f64> = (0..6).map(|_| rng.gen_range(0.5..8.0)).collect();
            let mut pool_a = BufferPool::unbuffered();
            let mut pool_b = BufferPool::unbuffered();
            let a = built.knn(&mut pool_a, &mut KernelScratch::default(), &query, 7, None).unwrap();
            let b =
                reopened.knn(&mut pool_b, &mut KernelScratch::default(), &query, 7, None).unwrap();
            assert_eq!(a.neighbors, b.neighbors);
            assert_eq!(a.io, b.io, "cold-pool I/O must be identical after reopening");
            assert_eq!(a.search, b.search);
        }
        // Opening with the wrong divergence is rejected.
        assert!(DiskBBTree::open(SquaredEuclidean, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_truncated_phi_columns_are_rejected() {
        let ds = random_dataset(220, 5, 61);
        let built = DiskBBTree::build(
            ItakuraSaito,
            &ds,
            BBTreeConfig::with_leaf_capacity(10),
            PageStoreConfig::with_page_size(1024),
        );
        let dir = std::env::temp_dir().join(format!("bbtree-phi-reject-{}", std::process::id()));
        built.save(&dir).unwrap();
        std::fs::remove_file(dir.join(PHI_FILE)).unwrap();
        match DiskBBTree::open(ItakuraSaito, &dir) {
            Err(PersistError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected a missing-file error, got {other:?}"),
        }

        // A present-but-truncated Φ column is rejected, not silently used.
        let mut w = ByteWriter::new();
        w.put_f64_seq(&built.phi()[..10]);
        std::fs::write(dir.join(PHI_FILE), seal(&PHI_MAGIC, PHI_VERSION, &w.into_vec())).unwrap();
        match DiskBBTree::open(ItakuraSaito, &dir) {
            Err(PersistError::Corrupt(message)) => assert!(message.contains("Φ"), "{message}"),
            other => panic!("expected Φ length rejection, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_page_file_dimensionality_is_rejected() {
        // Equal point counts, different record widths: pairing the tree with
        // the other index's page file must fail at open rather than letting
        // release-mode searches zip-truncate divergences.
        let root = std::env::temp_dir().join(format!("bbtree-swap-test-{}", std::process::id()));
        let a = DiskBBTree::build(
            SquaredEuclidean,
            &random_dataset(80, 4, 50),
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(512),
        );
        let b = DiskBBTree::build(
            SquaredEuclidean,
            &random_dataset(80, 6, 51),
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(512),
        );
        a.save(&root.join("a")).unwrap();
        b.save(&root.join("b")).unwrap();
        std::fs::copy(root.join("b").join(PAGES_FILE), root.join("a").join(PAGES_FILE)).unwrap();
        match DiskBBTree::open(SquaredEuclidean, &root.join("a")) {
            Err(PersistError::Corrupt(message)) => {
                assert!(message.contains("dimensional"), "{message}")
            }
            other => panic!("expected dimensionality rejection, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn variational_visits_no_more_leaves_than_budget() {
        let ds = random_dataset(400, 6, 13);
        let index = DiskBBTree::build(
            SquaredEuclidean,
            &ds,
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(1024),
        );
        let mut pool = BufferPool::unbuffered();
        let config = VariationalConfig { explore_fraction: 0.1 };
        let budget = config.leaf_budget(index.tree().leaf_count());
        let result = index
            .knn(&mut pool, &mut KernelScratch::default(), &[5.0; 6], 10, Some(budget))
            .unwrap();
        assert!(result.search.leaves_visited as usize <= budget);
        assert_eq!(result.neighbors.len(), 10);
    }

    #[test]
    fn wrong_dimension_queries_are_typed_errors() {
        let index = DiskBBTree::build(
            SquaredEuclidean,
            &random_dataset(120, 16, 17),
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(1024),
        );
        for len in [8, 24] {
            let query = vec![1.0; len];
            for budget in [None, Some(2)] {
                let mut pool = BufferPool::unbuffered();
                match index.knn(&mut pool, &mut KernelScratch::default(), &query, 3, budget) {
                    Err(SearchError::Query(BregmanError::DimensionMismatch { left, right })) => {
                        assert_eq!((left, right), (len, 16));
                    }
                    other => panic!("{len}-dim query: expected a dimension error, got {other:?}"),
                }
                assert_eq!(pool.stats(), IoStats::default(), "rejected before any read");
            }
        }
    }

    #[test]
    fn out_of_domain_queries_are_typed_errors() {
        let index = DiskBBTree::build(
            ItakuraSaito,
            &random_dataset(300, 6, 18),
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(1024),
        );
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut query = vec![2.0; 6];
            query[4] = bad;
            for budget in [None, Some(2)] {
                let mut pool = BufferPool::unbuffered();
                match index.knn(&mut pool, &mut KernelScratch::default(), &query, 3, budget) {
                    Err(SearchError::Query(BregmanError::OutOfDomain { divergence, value })) => {
                        assert_eq!(divergence, "Itakura-Saito");
                        assert_eq!(value.to_bits(), bad.to_bits());
                    }
                    other => panic!("coordinate {bad}: expected a domain error, got {other:?}"),
                }
                assert_eq!(pool.stats(), IoStats::default(), "rejected before any read");
            }
        }
    }
}
