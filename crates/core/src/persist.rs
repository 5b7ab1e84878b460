//! Index persistence: build once, open many (the offline-construction
//! lifecycle the paper assumes and a serving deployment requires).
//!
//! [`BrePartitionIndex::save`] writes an index *directory* with two files:
//!
//! * `index.meta` — a sealed envelope (`BREPIDX1`, see
//!   [`pagestore::format`]) holding everything the search needs besides the
//!   data pages: the divergence kind, the build configuration, the
//!   dimensionality partitioning, the per-point transform tuples
//!   `P(x) = (α_x, γ_x)` (a point-major table; memory holds them
//!   subspace-major, so save and open transpose), the per-dimension
//!   moments used by the approximate extension, the construction report,
//!   and every subspace BB-tree (serialized with [`bbtree::serial`]).
//! * `pages.bin` — the shared page file holding the full-resolution points
//!   in BB-forest leaf order (format in [`pagestore::file`]).
//!
//! [`BrePartitionIndex::open`] restores the metadata into memory and serves
//! the data pages from the page file through the same
//! [`pagestore::BufferPool`] path, so a reopened index answers every query
//! with the same neighbors *and the same per-query I/O counters* as the
//! freshly built one.
//!
//! The per-point `Φ(x) = Σ_j φ(x_j)` column consumed by the prepared-query
//! refine kernel needs no dedicated field in this envelope: with one
//! subspace over the dimensions in order it is the `α_x` column, otherwise
//! `open` recomputes it from the full-resolution rows in the page file, in
//! the one pass that also derives the BB-forest's node boxes. (The flat
//! baselines persist an explicit column: see `bbtree::disk::PHI_FILE` and
//! the VA-file metadata.)
//!
//! Both files have exactly one format version ([`INDEX_VERSION`] and
//! `pagestore::file::PAGE_FILE_VERSION`); anything else is rejected with a
//! typed [`PersistError`], and the way to migrate is to rebuild.

use std::path::Path;
use std::sync::Arc;

use bbtree::BBTree;
use bregman::DivergenceKind;
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError, PersistResult};
use pagestore::PageStore;

use crate::config::{BrePartitionConfig, PartitionStrategy};
use crate::error::Result;
use crate::partition::Partitioning;
use crate::search::{BrePartitionIndex, BuildReport};
use crate::transform::TransformedDataset;

/// Magic tag of the index metadata artifact.
pub const INDEX_MAGIC: [u8; 8] = *b"BREPIDX1";

/// The only format version this build writes and reads.
pub const INDEX_VERSION: u32 = 3;

/// File name of the index metadata within an index directory.
pub const META_FILE: &str = "index.meta";

/// File name of the page file within an index directory.
pub const PAGES_FILE: &str = "pages.bin";

impl BrePartitionIndex {
    /// Persist the index to a directory ([`META_FILE`] + [`PAGES_FILE`]),
    /// creating it if needed. See the [module docs](crate::persist) for the
    /// format.
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(PersistError::from)?;

        let mut w = ByteWriter::new();
        w.put_str(self.kind().short_name());
        write_config(&mut w, self.config());
        write_partitioning(&mut w, self.partitioning());

        // Transform tuples, point-major (`TransformedDataset::from_point_major`
        // reads them back).
        let transformed = self.transformed();
        let (n, m) = (transformed.len(), transformed.partitions());
        w.put_usize(n);
        w.put_usize(m);
        w.put_usize(n * m);
        for i in 0..n {
            for s in 0..m {
                let (alpha, gamma) = transformed.components(i, s);
                w.put_f64(alpha);
                w.put_f64(gamma);
            }
        }

        w.put_f64_seq(self.dimension_means());
        w.put_f64_seq(self.dimension_variances());

        let report = self.build_report();
        w.put_usize(report.partitions);
        w.put_f64(report.total_seconds);
        w.put_f64(report.forest_seconds);
        w.put_u64(report.pages_written);

        // Subspace trees as length-prefixed sealed blobs.
        let trees = self.forest().trees();
        w.put_usize(trees.len());
        for tree in trees {
            w.put_bytes(&tree.to_bytes());
        }

        std::fs::write(dir.join(META_FILE), seal(&INDEX_MAGIC, INDEX_VERSION, &w.into_vec()))
            .map_err(PersistError::from)?;
        self.forest().store().save(&dir.join(PAGES_FILE))?;
        Ok(())
    }

    /// Read just the divergence kind from an index directory written by
    /// [`BrePartitionIndex::save`], without restoring trees or transforms.
    ///
    /// The divergence is the first field of the metadata envelope, so a
    /// self-describing caller (the `brepartition` façade) can cross-check a
    /// directory against its expectation — and produce a descriptive
    /// mismatch error — before paying for the full open.
    pub fn peek_kind(dir: &Path) -> PersistResult<DivergenceKind> {
        let meta = std::fs::read(dir.join(META_FILE))?;
        let payload = unseal(&INDEX_MAGIC, INDEX_VERSION, &meta)?;
        let mut r = ByteReader::new(payload);
        let kind_name = r.take_str()?;
        DivergenceKind::parse(&kind_name)
            .map_err(|_| PersistError::Corrupt(format!("unknown divergence kind {kind_name:?}")))
    }

    /// Open an index directory written by [`BrePartitionIndex::save`].
    ///
    /// The metadata (partitioning, transforms, tree structures) is loaded
    /// into memory; data pages are served from the page file on demand. The
    /// restored index answers queries identically to the index that was
    /// saved — same neighbors, same candidate sets, same cold-pool I/O
    /// counters.
    pub fn open(dir: &Path) -> PersistResult<BrePartitionIndex> {
        let meta = std::fs::read(dir.join(META_FILE))?;
        let payload = unseal(&INDEX_MAGIC, INDEX_VERSION, &meta)?;
        let mut r = ByteReader::new(payload);

        let kind_name = r.take_str()?;
        let kind = DivergenceKind::parse(&kind_name)
            .map_err(|_| PersistError::Corrupt(format!("unknown divergence kind {kind_name:?}")))?;
        let config = read_config(&mut r)?;
        let partitioning = read_partitioning(&mut r)?;

        let n = r.take_usize()?;
        let m = r.take_usize()?;
        let tuple_count = r.take_usize()?;
        if tuple_count.checked_mul(16).is_none_or(|bytes| bytes > r.remaining()) {
            return Err(PersistError::Corrupt(format!(
                "transform table of {tuple_count} tuples is truncated"
            )));
        }
        if n.checked_mul(m) != Some(tuple_count) {
            return Err(PersistError::Corrupt(format!("transform table is not {n} × {m}")));
        }
        let transformed = TransformedDataset::from_point_major(n, m, || {
            Ok::<_, PersistError>((r.take_f64()?, r.take_f64()?))
        })?;
        if m != partitioning.len() {
            return Err(PersistError::Corrupt(format!(
                "transforms cover {m} subspaces, partitioning has {}",
                partitioning.len()
            )));
        }

        let dim_means = r.take_f64_seq()?;
        let dim_vars = r.take_f64_seq()?;
        if dim_means.len() != partitioning.dim() || dim_vars.len() != partitioning.dim() {
            return Err(PersistError::Corrupt(format!(
                "per-dimension moments cover {} / {} dimensions, data is {}-dimensional",
                dim_means.len(),
                dim_vars.len(),
                partitioning.dim()
            )));
        }

        let build = BuildReport {
            partitions: r.take_usize()?,
            total_seconds: r.take_f64()?,
            forest_seconds: r.take_f64()?,
            pages_written: r.take_u64()?,
        };

        let tree_count = r.take_usize()?;
        if tree_count != partitioning.len() {
            return Err(PersistError::Corrupt(format!(
                "{tree_count} subspace trees for {} partitions",
                partitioning.len()
            )));
        }
        let mut trees = Vec::with_capacity(tree_count);
        for s in 0..tree_count {
            let blob = r.take_bytes()?;
            let tree = BBTree::from_bytes(blob)?;
            if tree.dim() != partitioning.subspace(s).len() {
                return Err(PersistError::Corrupt(format!(
                    "subspace {s} tree is {}-dimensional, subspace has {} dimensions",
                    tree.dim(),
                    partitioning.subspace(s).len()
                )));
            }
            if tree.len() != n {
                return Err(PersistError::Corrupt(format!(
                    "subspace {s} tree indexes {} points, dataset has {n}",
                    tree.len()
                )));
            }
            trees.push(tree);
        }
        r.expect_end()?;

        let store = PageStore::open(&dir.join(PAGES_FILE))?;
        if store.point_count() != n {
            return Err(PersistError::Corrupt(format!(
                "page file holds {} points, index metadata describes {n}",
                store.point_count()
            )));
        }
        if store.dim() != partitioning.dim() {
            return Err(PersistError::Corrupt(format!(
                "page file records are {}-dimensional, index is {}-dimensional",
                store.dim(),
                partitioning.dim()
            )));
        }
        // Every tree must index exactly the points the page file holds;
        // an id outside the store would be silently dropped during refine.
        for (s, tree) in trees.iter().enumerate() {
            if let Some(orphan) =
                tree.points_in_leaf_order().iter().find(|p| store.address_of(p.0).is_none())
            {
                return Err(PersistError::Corrupt(format!(
                    "subspace {s} tree indexes point {orphan} which has no address in the page file"
                )));
            }
        }

        // Restoring reads every data page once (the node boxes, the Φ column
        // and the f32 copy are derived from the rows); a page that fails its
        // read is a corrupt artifact.
        Ok(BrePartitionIndex::from_restored(
            kind,
            config,
            partitioning,
            transformed,
            trees,
            Arc::new(store),
            dim_means,
            dim_vars,
            build,
        )?)
    }
}

fn write_config(w: &mut ByteWriter, config: &BrePartitionConfig) {
    w.put_usize(config.partitions);
    w.put_u8(match config.strategy {
        PartitionStrategy::Pccp => 0,
        PartitionStrategy::EqualContiguous => 1,
    });
    w.put_usize(config.leaf_capacity);
    w.put_usize(config.page_size_bytes);
    w.put_usize(config.buffer_pool_pages);
    w.put_usize(config.sample_size);
    w.put_u64(config.seed);
    w.put_u8(config.f32_candidates as u8);
}

fn read_config(r: &mut ByteReader<'_>) -> PersistResult<BrePartitionConfig> {
    let partitions = r.take_usize()?;
    let strategy = match r.take_u8()? {
        0 => PartitionStrategy::Pccp,
        1 => PartitionStrategy::EqualContiguous,
        tag => return Err(PersistError::Corrupt(format!("unknown partition-strategy tag {tag}"))),
    };
    Ok(BrePartitionConfig {
        partitions,
        strategy,
        leaf_capacity: r.take_usize()?,
        page_size_bytes: r.take_usize()?,
        buffer_pool_pages: r.take_usize()?,
        sample_size: r.take_usize()?,
        seed: r.take_u64()?,
        f32_candidates: match r.take_u8()? {
            0 => false,
            1 => true,
            tag => return Err(PersistError::Corrupt(format!("unknown f32-candidates flag {tag}"))),
        },
    })
}

fn write_partitioning(w: &mut ByteWriter, partitioning: &Partitioning) {
    w.put_usize(partitioning.len());
    for dims in partitioning.subspaces() {
        let dims: Vec<u64> = dims.iter().map(|&d| d as u64).collect();
        w.put_u64_seq(&dims);
    }
}

fn read_partitioning(r: &mut ByteReader<'_>) -> PersistResult<Partitioning> {
    let m = r.take_usize()?;
    let mut subspaces = Vec::with_capacity(m.min(1 << 16));
    for _ in 0..m {
        let dims = r.take_u64_seq()?;
        subspaces.push(dims.into_iter().map(|d| d as usize).collect());
    }
    // `Partitioning::new` re-validates disjointness and coverage, so a
    // corrupted partition table cannot produce an index that reads out of
    // bounds.
    Partitioning::new(subspaces)
        .map_err(|e| PersistError::Corrupt(format!("invalid partitioning in metadata: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bregman::kernel::KernelScratch;
    use bregman::DenseDataset;
    use datagen::correlated::CorrelatedSpec;
    use pagestore::BufferPool;

    fn dataset(n: usize, dim: usize, seed: u64) -> DenseDataset {
        CorrelatedSpec {
            n,
            dim,
            blocks: (dim / 4).max(1),
            correlation: 0.8,
            mean: 5.0,
            scale: 1.0,
            seed,
        }
        .generate()
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("brepartition-core-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_open_roundtrip_preserves_queries_and_io() {
        let ds = dataset(400, 16, 11);
        let config = BrePartitionConfig::default()
            .with_partitions(4)
            .with_leaf_capacity(16)
            .with_page_size(2048);
        let built = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config).unwrap();
        let dir = temp_dir("roundtrip");
        built.save(&dir).unwrap();

        assert_eq!(
            BrePartitionIndex::peek_kind(&dir).unwrap(),
            DivergenceKind::ItakuraSaito,
            "peek must read the kind without a full open"
        );
        let reopened = BrePartitionIndex::open(&dir).unwrap();
        assert_eq!(reopened.kind(), built.kind());
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.dim(), built.dim());
        assert_eq!(reopened.partitions(), built.partitions());
        assert_eq!(reopened.partitioning(), built.partitioning());
        assert_eq!(reopened.config(), built.config());
        assert_eq!(reopened.build_report(), built.build_report());
        assert_eq!(reopened.forest().store().backend_kind(), "file");

        for qi in [0usize, 33, 199, 350] {
            let query = ds.row(qi).to_vec();
            let a = built
                .knn(&mut built.new_buffer_pool(), &mut KernelScratch::default(), &query, 9, None)
                .unwrap();
            let b = reopened
                .knn(
                    &mut reopened.new_buffer_pool(),
                    &mut KernelScratch::default(),
                    &query,
                    9,
                    None,
                )
                .unwrap();
            assert_eq!(a.neighbors, b.neighbors, "query {qi}");
            assert_eq!(a.stats.candidates, b.stats.candidates, "query {qi}");
            assert_eq!(a.stats.io, b.stats.io, "query {qi}: cold-pool I/O must match");
            assert_eq!(a.bounds, b.bounds, "query {qi}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn approximate_search_works_on_a_reopened_index() {
        let ds = dataset(300, 12, 12);
        let config = BrePartitionConfig::default()
            .with_partitions(3)
            .with_leaf_capacity(8)
            .with_page_size(1024);
        let built = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config).unwrap();
        let dir = temp_dir("approx");
        built.save(&dir).unwrap();
        let reopened = BrePartitionIndex::open(&dir).unwrap();
        let approx = crate::ApproximateConfig::with_probability(0.9);
        let query = ds.row(17).to_vec();
        let a = built
            .knn(
                &mut built.new_buffer_pool(),
                &mut KernelScratch::default(),
                &query,
                8,
                Some(&approx),
            )
            .unwrap();
        let b = reopened
            .knn(
                &mut reopened.new_buffer_pool(),
                &mut KernelScratch::default(),
                &query,
                8,
                Some(&approx),
            )
            .unwrap();
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(
            a.coefficient, b.coefficient,
            "shrink coefficient depends only on persisted moments"
        );
        assert_eq!(a.stats.io, b.stats.io);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_pool_behaves_identically_after_reopen() {
        let ds = dataset(500, 16, 13);
        let config = BrePartitionConfig::default()
            .with_partitions(4)
            .with_leaf_capacity(16)
            .with_page_size(2048);
        let built = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config).unwrap();
        let dir = temp_dir("warm");
        built.save(&dir).unwrap();
        let reopened = BrePartitionIndex::open(&dir).unwrap();
        let query = ds.row(42).to_vec();
        let mut pool_a = BufferPool::new(64);
        let mut pool_b = BufferPool::new(64);
        for _ in 0..3 {
            let a =
                built.knn(&mut pool_a, &mut KernelScratch::default(), &query, 10, None).unwrap();
            let b =
                reopened.knn(&mut pool_b, &mut KernelScratch::default(), &query, 10, None).unwrap();
            assert_eq!(a.neighbors, b.neighbors);
        }
        assert_eq!(pool_a.stats(), pool_b.stats(), "hit/miss pattern must match");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transform_table_is_stored_point_major_and_resaves_byte_identically() {
        let ds = dataset(203, 12, 15);
        let config = BrePartitionConfig::default()
            .with_partitions(3)
            .with_leaf_capacity(8)
            .with_page_size(1024);
        let built = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config).unwrap();
        let dir = temp_dir("point-major");
        built.save(&dir).unwrap();
        let meta = std::fs::read(dir.join(META_FILE)).unwrap();

        // The table follows the kind, config and partitioning: n, m, the
        // tuple count, then `[α, γ]` for point 0's subspaces 0..m, point 1's,
        // and so on, whatever the in-memory layout.
        let payload = unseal(&INDEX_MAGIC, INDEX_VERSION, &meta).unwrap();
        let mut r = ByteReader::new(payload);
        r.take_str().unwrap();
        read_config(&mut r).unwrap();
        read_partitioning(&mut r).unwrap();
        let t = built.transformed();
        let (n, m) = (t.len(), t.partitions());
        assert_eq!((r.take_usize().unwrap(), r.take_usize().unwrap()), (n, m));
        assert_eq!(r.take_usize().unwrap(), n * m);
        for i in 0..n {
            for s in 0..m {
                let (alpha, gamma) = t.components(i, s);
                assert_eq!(
                    r.take_f64().unwrap().to_bits(),
                    alpha.to_bits(),
                    "point {i} subspace {s}"
                );
                assert_eq!(
                    r.take_f64().unwrap().to_bits(),
                    gamma.to_bits(),
                    "point {i} subspace {s}"
                );
            }
        }

        // Open transposes into columns; saving again transposes back.
        let reopened = BrePartitionIndex::open(&dir).unwrap();
        assert_eq!(reopened.transformed(), built.transformed());
        let again = temp_dir("point-major-again");
        reopened.save(&again).unwrap();
        assert_eq!(std::fs::read(again.join(META_FILE)).unwrap(), meta);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&again).unwrap();
    }

    #[test]
    fn open_rejects_missing_and_corrupt_directories() {
        let missing = temp_dir("missing");
        assert!(matches!(BrePartitionIndex::open(&missing), Err(PersistError::Io(_))));

        let ds = dataset(120, 8, 14);
        let config = BrePartitionConfig::default().with_partitions(2).with_leaf_capacity(8);
        let built = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &ds, &config).unwrap();
        let dir = temp_dir("corrupt");
        built.save(&dir).unwrap();
        // Flip a byte in the metadata payload: the checksum must catch it.
        let meta_path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&meta_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&meta_path, &bytes).unwrap();
        assert!(matches!(
            BrePartitionIndex::open(&dir),
            Err(PersistError::ChecksumMismatch { .. } | PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
