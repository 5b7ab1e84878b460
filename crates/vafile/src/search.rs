//! The VA-file index: filter on approximations, refine on disk pages.

use std::path::Path;
use std::sync::Arc;

use bregman::kernel::{phi_table, KernelScratch};
use bregman::{BregmanError, DecomposableBregman, DenseDataset, PointId};
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError, PersistResult};
use pagestore::{BufferPool, IoStats, PageStore, PageStoreConfig, PageStoreError};

use crate::bounds::QueryBoundTable;
use crate::quantizer::{Quantizer, QuantizerConfig};

/// Magic tag of the VA-file metadata artifact.
pub const VAFILE_MAGIC: [u8; 8] = *b"BREPVAF1";

/// The only format version this build writes and reads. The payload ends
/// with the per-point `Φ(x) = Σ_j φ(x_j)` column consumed by the
/// prepared-query refine kernel.
pub const VAFILE_VERSION: u32 = 2;

/// File name of the VA-file metadata within an index directory.
pub const META_FILE: &str = "vafile.meta";

/// File name of the page file within an index directory.
pub const PAGES_FILE: &str = "pages.bin";

/// Construction parameters of a [`VaFile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VaFileConfig {
    /// Quantizer resolution.
    pub quantizer: QuantizerConfig,
    /// Page layout of the full-resolution data.
    pub page_size_bytes: usize,
}

impl Default for VaFileConfig {
    fn default() -> Self {
        Self { quantizer: QuantizerConfig::default(), page_size_bytes: 32 * 1024 }
    }
}

/// Why a [`VaFile::knn`] query failed.
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

/// Result of one VA-file kNN query.
#[derive(Debug, Clone)]
pub struct VaQueryResult {
    /// Neighbours ordered by increasing divergence.
    pub neighbors: Vec<(PointId, f64)>,
    /// Number of candidates that survived the filter phase.
    pub candidates: usize,
    /// Candidates whose exact divergence was evaluated before termination.
    pub refined: usize,
    /// I/O cost: approximation-file scan pages plus data pages fetched.
    pub io: IoStats,
}

/// A VA-file over a dataset for a fixed decomposable divergence.
///
/// The page store sits behind an `Arc`, so cloning shares the disk image
/// instead of duplicating the dataset.
#[derive(Debug, Clone)]
pub struct VaFile<B: DecomposableBregman> {
    divergence: B,
    quantizer: Quantizer,
    /// One approximation (cell index per dimension) per point.
    approximations: Vec<Vec<u16>>,
    /// Full-resolution data pages.
    store: Arc<PageStore>,
    /// Pages occupied by the (packed) approximation file; scanned on every
    /// query.
    approximation_pages: u64,
    /// Per-point generator sums `Φ(x)`, indexed by point id — the data side
    /// of the prepared-query refine kernel, persisted in [`META_FILE`]
    /// since format version 2.
    phi: Vec<f64>,
}

impl<B: DecomposableBregman> VaFile<B> {
    /// Build a VA-file: train the quantizer, approximate every point and lay
    /// the full-resolution data out sequentially on the simulated disk.
    pub fn build(divergence: B, dataset: &DenseDataset, config: VaFileConfig) -> Self {
        let quantizer = Quantizer::train(config.quantizer, dataset);
        let approximations: Vec<Vec<u16>> =
            dataset.iter().map(|(_, point)| quantizer.approximate(point)).collect();
        let store = PageStore::build_sequential(
            PageStoreConfig::with_page_size(config.page_size_bytes),
            dataset.dim(),
            dataset.len(),
            |pid| dataset.point(PointId(pid)),
        );
        let approx_bytes = quantizer.approximation_bytes_per_point() * dataset.len();
        let approximation_pages = (approx_bytes as u64).div_ceil(config.page_size_bytes as u64);
        let phi = phi_table(&divergence, dataset);
        Self {
            divergence,
            quantizer,
            approximations,
            store: Arc::new(store),
            approximation_pages,
            phi,
        }
    }

    /// Persist the VA-file to a directory: quantizer + approximations +
    /// `Φ` column as [`META_FILE`], the full-resolution pages as
    /// [`PAGES_FILE`].
    pub fn save(&self, dir: &Path) -> PersistResult<()> {
        std::fs::create_dir_all(dir)?;
        let mut w = ByteWriter::new();
        w.put_str(self.divergence.name());
        self.quantizer.write_to(&mut w);
        w.put_u64(self.approximation_pages);
        w.put_usize(self.approximations.len());
        for approx in &self.approximations {
            w.put_u16_seq(approx);
        }
        w.put_f64_seq(&self.phi);
        std::fs::write(dir.join(META_FILE), seal(&VAFILE_MAGIC, VAFILE_VERSION, &w.into_vec()))?;
        self.store.save(&dir.join(PAGES_FILE))
    }

    /// Open a VA-file saved with [`VaFile::save`]. The quantizer and the
    /// approximation table are loaded into memory (they are scanned on every
    /// query anyway); the full-resolution pages are served from the page
    /// file on demand. Fails if the directory was written for a different
    /// divergence. Any other format version is rejected with
    /// [`PersistError::UnsupportedVersion`].
    pub fn open(divergence: B, dir: &Path) -> PersistResult<Self> {
        let meta = std::fs::read(dir.join(META_FILE))?;
        let payload = unseal(&VAFILE_MAGIC, VAFILE_VERSION, &meta)?;
        let mut r = ByteReader::new(payload);
        let name = r.take_str()?;
        if name != divergence.name() {
            return Err(PersistError::Corrupt(format!(
                "VA-file was built for divergence {name:?}, opened with {:?}",
                divergence.name()
            )));
        }
        let quantizer = Quantizer::read_from(&mut r)?;
        let approximation_pages = r.take_u64()?;
        let n = r.take_usize()?;
        let cells = quantizer.cells();
        let mut approximations = Vec::with_capacity(n.min(1 << 24));
        for i in 0..n {
            let approx = r.take_u16_seq()?;
            if approx.len() != quantizer.dim() {
                return Err(PersistError::Corrupt(format!(
                    "approximation {i} covers {} dimensions, quantizer is {}-dimensional",
                    approx.len(),
                    quantizer.dim()
                )));
            }
            // A cell index beyond the quantizer's resolution would read out
            // of the per-query bound tables during search.
            if let Some(&cell) = approx.iter().find(|&&c| c as usize >= cells) {
                return Err(PersistError::Corrupt(format!(
                    "approximation {i} holds cell {cell}, quantizer has {cells} cells"
                )));
            }
            approximations.push(approx);
        }
        let phi = r.take_f64_seq()?;
        r.expect_end()?;
        let store = PageStore::open(&dir.join(PAGES_FILE))?;
        if store.point_count() != approximations.len() {
            return Err(PersistError::Corrupt(format!(
                "page file holds {} points, approximation table holds {}",
                store.point_count(),
                approximations.len()
            )));
        }
        if store.dim() != quantizer.dim() {
            return Err(PersistError::Corrupt(format!(
                "page file records are {}-dimensional, quantizer is {}-dimensional",
                store.dim(),
                quantizer.dim()
            )));
        }
        // `approximation_pages` enters every query's I/O count; re-derive it
        // from the quantizer and the page size rather than trusting the
        // persisted value.
        let approx_bytes = quantizer.approximation_bytes_per_point() * approximations.len();
        let expected_pages = (approx_bytes as u64).div_ceil(store.config().page_size_bytes as u64);
        if approximation_pages != expected_pages {
            return Err(PersistError::Corrupt(format!(
                "metadata claims {approximation_pages} approximation pages, \
                 quantizer and page size imply {expected_pages}"
            )));
        }
        if phi.len() != approximations.len() {
            return Err(PersistError::Corrupt(format!(
                "Φ column holds {} entries, approximation table holds {}",
                phi.len(),
                approximations.len()
            )));
        }
        Ok(Self {
            divergence,
            quantizer,
            approximations,
            store: Arc::new(store),
            approximation_pages,
            phi,
        })
    }

    /// The divergence the index was built for.
    pub fn divergence(&self) -> &B {
        &self.divergence
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The full-resolution page store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.approximations.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.approximations.is_empty()
    }

    /// Pages occupied by the approximation file (scanned on every query).
    pub fn approximation_pages(&self) -> u64 {
        self.approximation_pages
    }

    /// The per-point `Φ(x)` column (indexed by point id).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// kNN search with an optional cap on refined candidates, reusing the
    /// caller's [`KernelScratch`] (the batch-serving hot path:
    /// prepared-query and decode buffers are reused across a whole batch).
    ///
    /// With `budget: None` this is the exact search. With `Some(b)` the
    /// refine phase evaluates at most `b` candidates (in ascending
    /// lower-bound order) before terminating, bounding per-query work and
    /// data-page I/O at the cost of exactness. A query of the wrong
    /// dimensionality, or with a coordinate outside the divergence's domain
    /// (NaN, ±∞, ≤ 0 under Itakura–Saito), is [`SearchError::Query`]; a data
    /// page that fails its read after open is [`SearchError::Storage`].
    pub fn knn(
        &self,
        pool: &mut BufferPool,
        kernel: &mut KernelScratch,
        query: &[f64],
        k: usize,
        budget: Option<usize>,
    ) -> Result<VaQueryResult, SearchError> {
        if query.len() != self.quantizer.dim() {
            return Err(SearchError::Query(BregmanError::DimensionMismatch {
                left: query.len(),
                right: self.quantizer.dim(),
            }));
        }
        self.divergence.check_domain(query).map_err(SearchError::Query)?;
        let io_before = pool.stats();
        if k == 0 || self.is_empty() {
            return Ok(VaQueryResult {
                neighbors: Vec::new(),
                candidates: 0,
                refined: 0,
                io: IoStats::default(),
            });
        }
        let KernelScratch { prepared, coords, .. } = kernel;
        prepared.decompose_into(&self.divergence, query);
        let table = QueryBoundTable::build(&self.divergence, &self.quantizer, query);

        // Phase 1: scan approximations, tracking the k-th smallest upper
        // bound as the pruning threshold.
        let mut bounds: Vec<(PointId, f64, f64)> = Vec::with_capacity(self.len());
        let mut upper_heap: std::collections::BinaryHeap<OrderedF64> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        for (i, approx) in self.approximations.iter().enumerate() {
            let (lo, hi) = table.bounds_for(approx);
            bounds.push((PointId(i as u32), lo, hi));
            if upper_heap.len() < k {
                upper_heap.push(OrderedF64(hi));
            } else if hi < upper_heap.peek().map(|v| v.0).unwrap_or(f64::INFINITY) {
                upper_heap.pop();
                upper_heap.push(OrderedF64(hi));
            }
        }
        let threshold = upper_heap.peek().map(|v| v.0).unwrap_or(f64::INFINITY);

        // Candidates: lower bound within the k-th smallest upper bound,
        // arranged as a lazy min-heap rather than fully sorted — heapify is
        // O(c), and only the candidates the termination rule actually
        // refines pay a log. The pop order (ascending lower bound, ties by
        // id) is identical to the full sort it replaces, so the refinement
        // sequence, results and I/O are unchanged while the filter-output
        // size no longer costs O(c log c).
        let mut candidates: std::collections::BinaryHeap<LowerBoundEntry> = bounds
            .into_iter()
            .filter(|(_, lo, _)| *lo <= threshold)
            .map(|(pid, lo, _)| LowerBoundEntry { lower: lo, pid })
            .collect();
        let candidate_count = candidates.len();

        // Phase 2: refine in ascending lower-bound order with the standard
        // VA-file termination rule; exact distances via the prepared
        // kernel over the tabulated Φ column — no transcendentals.
        let mut result: Vec<(PointId, f64)> = Vec::with_capacity(k + 1);
        let mut refined = 0usize;
        while let Some(LowerBoundEntry { lower, pid }) = candidates.pop() {
            if budget.is_some_and(|b| refined >= b) {
                break;
            }
            let kth = if result.len() >= k { result[k - 1].1 } else { f64::INFINITY };
            if lower > kth {
                break;
            }
            if !pool.read_point_into(&self.store, pid.0, coords).map_err(SearchError::Storage)? {
                continue;
            }
            refined += 1;
            let d = prepared.distance(self.phi[pid.index()], coords);
            let pos = result.partition_point(|(_, existing)| *existing <= d);
            result.insert(pos, (pid, d));
            if result.len() > k {
                result.truncate(k);
            }
        }

        let mut io = pool.stats().since(&io_before);
        io.pages_read += self.approximation_pages;
        Ok(VaQueryResult { neighbors: result, candidates: candidate_count, refined, io })
    }
}

/// Candidate entry ordered so that `BinaryHeap` (a max-heap) pops the
/// *smallest* lower bound first, ties broken by ascending point id — the
/// same total order as the full sort the lazy heap replaces.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LowerBoundEntry {
    lower: f64,
    pid: PointId,
}

impl Eq for LowerBoundEntry {}
impl PartialOrd for LowerBoundEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LowerBoundEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.lower.total_cmp(&self.lower).then_with(|| other.pid.cmp(&self.pid))
    }
}

/// `f64` wrapper ordered by `total_cmp` for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bregman::{Exponential, ItakuraSaito, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64, positive: bool) -> DenseDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let range = if positive { 0.2..10.0 } else { -5.0..5.0 };
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.gen_range(range.clone())).collect()).collect();
        DenseDataset::from_rows(&rows).unwrap()
    }

    fn brute_force<B: DecomposableBregman>(
        b: &B,
        ds: &DenseDataset,
        query: &[f64],
        k: usize,
    ) -> Vec<(PointId, f64)> {
        let mut all: Vec<(PointId, f64)> =
            ds.iter().map(|(id, p)| (id, b.divergence(p, query))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn check_exactness<B: DecomposableBregman>(b: B, positive: bool, seed: u64) {
        let ds = dataset(300, 6, seed, positive);
        let index = VaFile::build(
            b.clone(),
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 5 }, page_size_bytes: 2048 },
        );
        let mut pool = BufferPool::unbuffered();
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let range = if positive { 0.2..10.0 } else { -5.0..5.0 };
        for _ in 0..5 {
            let query: Vec<f64> = (0..6).map(|_| rng.gen_range(range.clone())).collect();
            let got = index.knn(&mut pool, &mut KernelScratch::default(), &query, 8, None).unwrap();
            let expected = brute_force(&b, &ds, &query, 8);
            assert_eq!(got.neighbors.len(), 8);
            for (g, e) in got.neighbors.iter().zip(expected.iter()) {
                assert!(
                    (g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()),
                    "distance mismatch {} vs {}",
                    g.1,
                    e.1
                );
            }
        }
    }

    #[test]
    fn exact_for_squared_euclidean() {
        check_exactness(SquaredEuclidean, false, 100);
    }

    #[test]
    fn exact_for_itakura_saito() {
        check_exactness(ItakuraSaito, true, 200);
    }

    #[test]
    fn exact_for_exponential() {
        check_exactness(Exponential, false, 300);
    }

    #[test]
    fn filter_prunes_most_points_with_enough_bits() {
        let ds = dataset(1000, 8, 7, true);
        let index = VaFile::build(
            SquaredEuclidean,
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 6 }, page_size_bytes: 4096 },
        );
        let mut pool = BufferPool::unbuffered();
        let query = ds.point(PointId(17)).to_vec();
        let result = index.knn(&mut pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
        assert!(result.candidates < ds.len(), "filter should prune something");
        assert!(result.refined <= result.candidates);
        assert!(result.io.pages_read >= index.approximation_pages());
    }

    #[test]
    fn io_includes_approximation_scan() {
        let ds = dataset(200, 4, 8, true);
        let index = VaFile::build(SquaredEuclidean, &ds, VaFileConfig::default());
        let mut pool = BufferPool::unbuffered();
        let result = index
            .knn(&mut pool, &mut KernelScratch::default(), &[1.0, 2.0, 3.0, 4.0], 5, None)
            .unwrap();
        assert!(result.io.pages_read >= index.approximation_pages());
    }

    #[test]
    fn k_zero_and_empty_index() {
        let ds = dataset(50, 3, 9, true);
        let index = VaFile::build(SquaredEuclidean, &ds, VaFileConfig::default());
        let mut pool = BufferPool::unbuffered();
        assert!(index
            .knn(&mut pool, &mut KernelScratch::default(), &[1.0, 1.0, 1.0], 0, None)
            .unwrap()
            .neighbors
            .is_empty());

        let empty = DenseDataset::empty(3).unwrap();
        let empty_index = VaFile::build(SquaredEuclidean, &empty, VaFileConfig::default());
        assert!(empty_index.is_empty());
        assert!(empty_index
            .knn(&mut pool, &mut KernelScratch::default(), &[1.0, 1.0, 1.0], 5, None)
            .unwrap()
            .neighbors
            .is_empty());
    }

    #[test]
    fn k_larger_than_dataset_returns_all_points() {
        let ds = dataset(20, 3, 10, true);
        let index = VaFile::build(ItakuraSaito, &ds, VaFileConfig::default());
        let mut pool = BufferPool::unbuffered();
        let result = index
            .knn(&mut pool, &mut KernelScratch::default(), &[1.0, 1.0, 1.0], 50, None)
            .unwrap();
        assert_eq!(result.neighbors.len(), 20);
        for pair in result.neighbors.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn save_open_roundtrip_answers_identically_with_identical_io() {
        let ds = dataset(250, 5, 33, true);
        let built = VaFile::build(
            ItakuraSaito,
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 5 }, page_size_bytes: 1024 },
        );
        let dir = std::env::temp_dir().join(format!("vafile-test-{}", std::process::id()));
        built.save(&dir).unwrap();
        let reopened = VaFile::open(ItakuraSaito, &dir).unwrap();
        assert_eq!(reopened.store().backend_kind(), "file");
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.approximation_pages(), built.approximation_pages());
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..4 {
            let query: Vec<f64> = (0..5).map(|_| rng.gen_range(0.2..10.0)).collect();
            let mut pool_a = BufferPool::unbuffered();
            let mut pool_b = BufferPool::unbuffered();
            let a = built.knn(&mut pool_a, &mut KernelScratch::default(), &query, 6, None).unwrap();
            let b =
                reopened.knn(&mut pool_b, &mut KernelScratch::default(), &query, 6, None).unwrap();
            assert_eq!(a.neighbors, b.neighbors);
            assert_eq!(a.candidates, b.candidates);
            assert_eq!(a.refined, b.refined);
            assert_eq!(a.io, b.io, "cold-pool I/O must be identical after reopening");
        }
        // Opening with the wrong divergence is rejected.
        assert!(VaFile::open(SquaredEuclidean, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn other_metadata_versions_are_rejected() {
        // Re-seal the metadata as a version-1 body (no Φ column): open must
        // refuse it with the versioned error instead of rebuilding the column.
        let ds = dataset(180, 4, 55, true);
        let built = VaFile::build(
            ItakuraSaito,
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 4 }, page_size_bytes: 1024 },
        );
        let dir = std::env::temp_dir().join(format!("vafile-v1-reject-{}", std::process::id()));
        built.save(&dir).unwrap();
        let mut w = ByteWriter::new();
        w.put_str(bregman::DecomposableBregman::name(&built.divergence));
        built.quantizer.write_to(&mut w);
        w.put_u64(built.approximation_pages);
        w.put_usize(built.approximations.len());
        for approx in &built.approximations {
            w.put_u16_seq(approx);
        }
        std::fs::write(dir.join(META_FILE), seal(&VAFILE_MAGIC, 1, &w.into_vec())).unwrap();
        match VaFile::open(ItakuraSaito, &dir) {
            Err(PersistError::UnsupportedVersion { found: 1, supported }) => {
                assert_eq!(supported, VAFILE_VERSION);
            }
            other => panic!("expected version rejection, got {other:?}"),
        }

        // So is a version from the future.
        let meta = std::fs::read(dir.join(META_FILE)).unwrap();
        let mut bad = meta.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(dir.join(META_FILE), &bad).unwrap();
        match VaFile::open(ItakuraSaito, &dir) {
            Err(PersistError::UnsupportedVersion { found: 99, supported }) => {
                assert_eq!(supported, VAFILE_VERSION);
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_page_file_dimensionality_is_rejected() {
        // Two directories with equal point counts but different record
        // dimensionality; swapping the page files must fail at open, not
        // silently truncate refinement distances at query time.
        let root = std::env::temp_dir().join(format!("vafile-swap-test-{}", std::process::id()));
        let a = VaFile::build(ItakuraSaito, &dataset(100, 4, 40, true), VaFileConfig::default());
        let b = VaFile::build(ItakuraSaito, &dataset(100, 6, 41, true), VaFileConfig::default());
        a.save(&root.join("a")).unwrap();
        b.save(&root.join("b")).unwrap();
        std::fs::copy(root.join("b").join(PAGES_FILE), root.join("a").join(PAGES_FILE)).unwrap();
        match VaFile::open(ItakuraSaito, &root.join("a")) {
            Err(PersistError::Corrupt(message)) => {
                assert!(message.contains("dimensional"), "{message}")
            }
            other => panic!("expected dimensionality rejection, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn refinement_budget_caps_examined_candidates() {
        let ds = dataset(400, 5, 12, true);
        let index = VaFile::build(
            SquaredEuclidean,
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 3 }, page_size_bytes: 1024 },
        );
        let query = ds.point(PointId(7)).to_vec();
        let mut pool = BufferPool::unbuffered();
        let unbounded =
            index.knn(&mut pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
        let ids = |n: &[(PointId, f64)]| n.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        assert_eq!(
            ids(&unbounded.neighbors),
            ids(&brute_force(&SquaredEuclidean, &ds, &query, 10)),
            "a None budget is the exact search"
        );
        let bounded =
            index.knn(&mut pool, &mut KernelScratch::default(), &query, 10, Some(5)).unwrap();
        assert!(bounded.refined <= 5, "budget exceeded: refined {}", bounded.refined);
        assert!(bounded.neighbors.len() <= 10);
        // Budgeted data-page I/O never exceeds the exact search's.
        assert!(bounded.io.pages_read <= unbounded.io.pages_read);
    }

    #[test]
    fn coarser_quantizer_yields_more_candidates() {
        let ds = dataset(600, 6, 11, true);
        let fine = VaFile::build(
            SquaredEuclidean,
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 7 }, page_size_bytes: 4096 },
        );
        let coarse = VaFile::build(
            SquaredEuclidean,
            &ds,
            VaFileConfig { quantizer: QuantizerConfig { bits_per_dim: 2 }, page_size_bytes: 4096 },
        );
        let query = ds.point(PointId(5)).to_vec();
        let mut pool = BufferPool::unbuffered();
        let fine_result =
            fine.knn(&mut pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
        let coarse_result =
            coarse.knn(&mut pool, &mut KernelScratch::default(), &query, 10, None).unwrap();
        assert!(
            coarse_result.candidates >= fine_result.candidates,
            "coarse quantizer should produce at least as many candidates ({} vs {})",
            coarse_result.candidates,
            fine_result.candidates
        );
    }

    #[test]
    fn wrong_dimension_queries_are_typed_errors() {
        // Too short used to panic; too long used to score silently on the
        // first 16 coordinates.
        let index =
            VaFile::build(SquaredEuclidean, &dataset(120, 16, 13, true), VaFileConfig::default());
        for len in [8, 24] {
            let query = vec![1.0; len];
            for budget in [None, Some(4)] {
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
        let index =
            VaFile::build(ItakuraSaito, &dataset(300, 6, 14, true), VaFileConfig::default());
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut query = vec![2.0; 6];
            query[1] = bad;
            for budget in [None, Some(4)] {
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
