//! Index specifications: one declarative description of *what to build*
//! (method + divergence + tuning knobs) consumed by every entry point of
//! the façade.
//!
//! An [`IndexSpec`] replaces the per-method constructor zoo (`build_exact`,
//! `bbtree_backend_for_kind`, …): callers pick a [`Method`] and a
//! [`DivergenceKind`], tweak the knobs they care about through the fluent
//! builder, and hand the spec to [`Index::build`](crate::Index::build). The
//! spec is persisted verbatim inside the index directory's envelope, which
//! is what makes [`Index::open`](crate::Index::open) self-describing.

use bbtree::BBTreeConfig;
use bregman::DivergenceKind;
use brepartition_core::{ApproximateConfig, BrePartitionConfig, PartitionStrategy};
use pagestore::format::{ByteReader, ByteWriter, PersistError, PersistResult};
use pagestore::PageStoreConfig;
use vafile::{QuantizerConfig, VaFileConfig};

use crate::error::{Error, Result};

/// The three kNN indexes of the paper's evaluation, selectable at runtime.
/// The paper's fourth method, approximate BrePartition (**ABP**), is the
/// BrePartition index searched at a spec [`probability`](IndexSpec::probability)
/// below 1 (see [`IndexSpec::approximate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Method {
    /// BrePartition search: exact (the paper's **BP**, Algorithm 6) at
    /// probability 1, approximate (**ABP**) below it.
    BrePartition,
    /// The disk-resident Bregman-ball-tree baseline (**BBT**).
    BBTree,
    /// The VA-file baseline (**VAF**).
    VaFile,
}

impl Method {
    /// All methods, in a stable order (useful for exhaustive tests).
    pub const ALL: [Method; 3] = [Method::BrePartition, Method::BBTree, Method::VaFile];

    /// Human-readable method name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::BrePartition => "BrePartition",
            Method::BBTree => "BBTree",
            Method::VaFile => "VaFile",
        }
    }

    /// The paper's abbreviation (`BP`, `BBT`, `VAF`).
    pub fn short_name(&self) -> &'static str {
        match self {
            Method::BrePartition => "BP",
            Method::BBTree => "BBT",
            Method::VaFile => "VAF",
        }
    }

    /// Stable on-disk tag of the method (spec-envelope format).
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Method::BrePartition => 0,
            Method::BBTree => 1,
            Method::VaFile => 2,
        }
    }

    /// Inverse of [`Method::tag`].
    pub(crate) fn from_tag(tag: u8) -> PersistResult<Method> {
        Ok(match tag {
            0 => Method::BrePartition,
            1 => Method::BBTree,
            2 => Method::VaFile,
            other => return Err(PersistError::Corrupt(format!("unknown method tag {other}"))),
        })
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Storage-layer knobs shared by every method: how the full-resolution
/// points are paged and cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageSpec {
    /// Page size of the disk image holding the full-resolution points.
    pub page_size_bytes: usize,
    /// Buffer-pool capacity in pages for queries served through
    /// [`Index::query`](crate::Index::query). Zero disables caching so every
    /// page access counts as physical I/O (the paper's per-query metric).
    pub buffer_pool_pages: usize,
}

impl Default for StorageSpec {
    fn default() -> Self {
        Self { page_size_bytes: 32 * 1024, buffer_pool_pages: 0 }
    }
}

/// Compaction policy of the mutable layer: when (and on which thread) the
/// delta chain is folded back into the partitioned backend.
///
/// With `background` off (the default) compaction only happens when the
/// caller asks ([`Index::compact`](crate::Index::compact)), on the calling
/// thread — the PR-5 behaviour. With it on, every mutation checks the two
/// debt ratios and, past either threshold, schedules a rebuild on the
/// index's dedicated compaction worker; queries keep serving the old epoch
/// until the rebuilt backend is swapped in atomically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionSpec {
    /// Run ratio-triggered compactions on a dedicated worker thread.
    pub background: bool,
    /// Trigger when `delta_rows ≥ max_delta_ratio × base_len` — the delta
    /// chain has grown large relative to the partitioned backend, so exact
    /// scans are eating the backend's pruning advantage.
    pub max_delta_ratio: f64,
    /// Trigger when `tombstones ≥ max_tombstone_ratio × live_len` — dead
    /// points dominate, so queries over-fetch heavily to compensate.
    pub max_tombstone_ratio: f64,
}

impl Default for CompactionSpec {
    fn default() -> Self {
        Self { background: false, max_delta_ratio: 0.25, max_tombstone_ratio: 0.25 }
    }
}

/// A declarative description of one index: which [`Method`] over which
/// [`DivergenceKind`], with every tuning knob the methods expose.
///
/// Knobs not used by the chosen method are carried but ignored (and
/// persisted, so a reopened index sees the same spec). Construct via
/// [`IndexSpec::new`] or the per-method shorthands, then chain `with_*`
/// builders:
///
/// ```
/// use brepartition::{IndexSpec, Method};
/// use brepartition::bregman::DivergenceKind;
///
/// let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito)
///     .with_partitions(8)
///     .with_page_size(16 * 1024);
/// assert_eq!(spec.method, Method::BrePartition);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexSpec {
    /// The search method.
    pub method: Method,
    /// The Bregman divergence the index answers queries under.
    pub divergence: DivergenceKind,
    /// Storage-layer knobs (page size, buffer pool).
    pub storage: StorageSpec,
    /// BrePartition: number of partitions `M` (default 1, one
    /// full-dimensional BB-tree; see [`BrePartitionConfig::partitions`]).
    pub partitions: usize,
    /// BrePartition: dimensionality-partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Leaf capacity of the BB-trees (BrePartition subspace trees and the
    /// BBT baseline alike).
    pub leaf_capacity: usize,
    /// BrePartition: points sampled when estimating the PCCP correlation
    /// matrix.
    pub sample_size: usize,
    /// Seed for every randomized choice during construction.
    pub seed: u64,
    /// BrePartition: requested recall `p ∈ (0, 1]`. BP: 1.0 = exact
    /// (the default); below 1 the index serves approximate search (ABP),
    /// whose achieved recall targets `p` without guaranteeing it.
    pub probability: f64,
    /// VA-file: quantizer resolution in bits per dimension (1..=16).
    pub bits_per_dim: u8,
    /// BrePartition methods: keep an in-memory `f32` copy of the rows and
    /// screen refine candidates against it before touching data pages.
    /// Survivors are re-ranked at full `f64` resolution, so results are
    /// bit-identical with the knob on or off. Costs `4·d` bytes per point
    /// of resident memory; off by default.
    pub f32_candidates: bool,
    /// Compaction policy of the mutable layer (background worker, debt
    /// ratios).
    pub compaction: CompactionSpec,
}

impl IndexSpec {
    /// A spec for `method` over `divergence` with default knobs.
    pub fn new(method: Method, divergence: DivergenceKind) -> Self {
        Self {
            method,
            divergence,
            storage: StorageSpec::default(),
            partitions: 1,
            strategy: PartitionStrategy::Pccp,
            leaf_capacity: 32,
            sample_size: 256,
            seed: 0xB5EED,
            probability: 1.0,
            bits_per_dim: 6,
            f32_candidates: false,
            compaction: CompactionSpec::default(),
        }
    }

    /// Shorthand for [`Method::BrePartition`].
    pub fn brepartition(divergence: DivergenceKind) -> Self {
        Self::new(Method::BrePartition, divergence)
    }

    /// Approximate BrePartition (**ABP**): shorthand for
    /// `brepartition(divergence).with_probability(0.9)`. The 0.9 is the
    /// requested recall, not a guarantee: measured recall at p = 0.9 is
    /// 0.895–0.945 on the Fonts proxy and 0.978–0.988 on hierarchical
    /// d = 32 data.
    pub fn approximate(divergence: DivergenceKind) -> Self {
        Self::brepartition(divergence).with_probability(0.9)
    }

    /// Shorthand for [`Method::BBTree`].
    pub fn bbtree(divergence: DivergenceKind) -> Self {
        Self::new(Method::BBTree, divergence)
    }

    /// Shorthand for [`Method::VaFile`].
    pub fn vafile(divergence: DivergenceKind) -> Self {
        Self::new(Method::VaFile, divergence)
    }

    /// Set the number of partitions.
    pub fn with_partitions(mut self, m: usize) -> Self {
        self.partitions = m;
        self
    }

    /// Select the dimensionality-partitioning strategy.
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the disk page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.storage.page_size_bytes = bytes;
        self
    }

    /// Set the query-time buffer-pool size in pages.
    pub fn with_buffer_pool_pages(mut self, pages: usize) -> Self {
        self.storage.buffer_pool_pages = pages;
        self
    }

    /// Replace the whole storage sub-spec.
    pub fn with_storage(mut self, storage: StorageSpec) -> Self {
        self.storage = storage;
        self
    }

    /// Set the BB-tree leaf capacity.
    pub fn with_leaf_capacity(mut self, capacity: usize) -> Self {
        self.leaf_capacity = capacity;
        self
    }

    /// Set the construction sample size.
    pub fn with_sample_size(mut self, sample_size: usize) -> Self {
        self.sample_size = sample_size;
        self
    }

    /// Set the construction RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the BrePartition requested recall (1.0 = exact search; below 1 a
    /// target for the approximate search, not a guarantee).
    pub fn with_probability(mut self, probability: f64) -> Self {
        self.probability = probability;
        self
    }

    /// Set the VA-file quantizer resolution.
    pub fn with_bits_per_dim(mut self, bits: u8) -> Self {
        self.bits_per_dim = bits;
        self
    }

    /// Enable or disable the `f32` candidate-screening tier (BrePartition
    /// methods only; carried but ignored by the baselines).
    pub fn with_f32_candidates(mut self, enabled: bool) -> Self {
        self.f32_candidates = enabled;
        self
    }

    /// Enable or disable ratio-triggered compaction on the index's
    /// background worker thread.
    pub fn with_background_compaction(mut self, enabled: bool) -> Self {
        self.compaction.background = enabled;
        self
    }

    /// Set the compaction debt thresholds: trigger when the delta chain
    /// reaches `delta_ratio × base_len` rows or tombstones reach
    /// `tombstone_ratio × live_len`.
    pub fn with_compaction_ratios(mut self, delta_ratio: f64, tombstone_ratio: f64) -> Self {
        self.compaction.max_delta_ratio = delta_ratio;
        self.compaction.max_tombstone_ratio = tombstone_ratio;
        self
    }

    /// Check the spec for contradictions before anything is built: an
    /// invalid knob returns a typed [`Error::Spec`] naming the offending
    /// field instead of a panic or a silent degradation downstream.
    pub fn validate(&self) -> Result<()> {
        if self.storage.page_size_bytes == 0 {
            return Err(Error::Spec("page_size_bytes must be positive".to_string()));
        }
        if self.leaf_capacity == 0 {
            return Err(Error::Spec("leaf_capacity must be at least 1".to_string()));
        }
        if self.method == Method::BrePartition && !self.divergence.supports_partitioning() {
            return Err(Error::Spec(format!(
                "divergence {} is not cumulative across partitions and cannot be used with \
                 the {} method (pick Method::BBTree or Method::VaFile)",
                self.divergence.short_name(),
                self.method.name()
            )));
        }
        if self.method == Method::BrePartition
            && !(self.probability > 0.0 && self.probability <= 1.0)
        {
            return Err(Error::Spec(format!(
                "probability guarantee must be in (0, 1], got {}",
                self.probability
            )));
        }
        if self.method == Method::VaFile && !(1..=16).contains(&self.bits_per_dim) {
            return Err(Error::Spec(format!(
                "bits_per_dim must be in 1..=16, got {}",
                self.bits_per_dim
            )));
        }
        for (name, ratio) in [
            ("max_delta_ratio", self.compaction.max_delta_ratio),
            ("max_tombstone_ratio", self.compaction.max_tombstone_ratio),
        ] {
            if !(ratio.is_finite() && ratio > 0.0) {
                return Err(Error::Spec(format!(
                    "compaction {name} must be finite and positive, got {ratio}"
                )));
            }
        }
        Ok(())
    }

    /// The BrePartition construction config this spec describes.
    pub fn brepartition_config(&self) -> BrePartitionConfig {
        BrePartitionConfig {
            partitions: self.partitions,
            strategy: self.strategy,
            leaf_capacity: self.leaf_capacity,
            page_size_bytes: self.storage.page_size_bytes,
            buffer_pool_pages: self.storage.buffer_pool_pages,
            sample_size: self.sample_size,
            seed: self.seed,
            f32_candidates: self.f32_candidates,
        }
    }

    /// The BBT baseline's tree config this spec describes.
    pub fn bbtree_config(&self) -> BBTreeConfig {
        BBTreeConfig::with_leaf_capacity(self.leaf_capacity)
    }

    /// The page-store config this spec describes.
    pub fn store_config(&self) -> PageStoreConfig {
        PageStoreConfig::with_page_size(self.storage.page_size_bytes)
    }

    /// The VA-file config this spec describes.
    pub fn vafile_config(&self) -> VaFileConfig {
        VaFileConfig {
            quantizer: QuantizerConfig { bits_per_dim: self.bits_per_dim },
            page_size_bytes: self.storage.page_size_bytes,
        }
    }

    /// The approximate-search config this spec describes.
    pub fn approximate_config(&self) -> ApproximateConfig {
        ApproximateConfig::with_probability(self.probability)
    }

    /// Serialize the spec into a spec-envelope payload (stable format; see
    /// [`crate::index`] for the envelope framing).
    pub(crate) fn write_to(&self, w: &mut ByteWriter) {
        w.put_u8(self.method.tag());
        w.put_str(self.divergence.short_name());
        w.put_usize(self.storage.page_size_bytes);
        w.put_usize(self.storage.buffer_pool_pages);
        w.put_usize(self.partitions);
        w.put_u8(match self.strategy {
            PartitionStrategy::Pccp => 0,
            PartitionStrategy::EqualContiguous => 1,
        });
        w.put_usize(self.leaf_capacity);
        w.put_usize(self.sample_size);
        w.put_u64(self.seed);
        w.put_f64(self.probability);
        w.put_u8(self.bits_per_dim);
        w.put_u8(self.f32_candidates as u8);
        w.put_u8(self.compaction.background as u8);
        w.put_f64(self.compaction.max_delta_ratio);
        w.put_f64(self.compaction.max_tombstone_ratio);
    }

    /// Inverse of [`IndexSpec::write_to`].
    pub(crate) fn read_from(r: &mut ByteReader<'_>) -> PersistResult<IndexSpec> {
        let method = Method::from_tag(r.take_u8()?)?;
        let kind_name = r.take_str()?;
        let divergence = DivergenceKind::parse(&kind_name)
            .map_err(|_| PersistError::Corrupt(format!("unknown divergence kind {kind_name:?}")))?;
        let page_size_bytes = r.take_usize()?;
        let buffer_pool_pages = r.take_usize()?;
        let partitions = r.take_usize()?;
        let strategy = match r.take_u8()? {
            0 => PartitionStrategy::Pccp,
            1 => PartitionStrategy::EqualContiguous,
            tag => {
                return Err(PersistError::Corrupt(format!("unknown partition-strategy tag {tag}")))
            }
        };
        Ok(IndexSpec {
            method,
            divergence,
            storage: StorageSpec { page_size_bytes, buffer_pool_pages },
            partitions,
            strategy,
            leaf_capacity: r.take_usize()?,
            sample_size: r.take_usize()?,
            seed: r.take_u64()?,
            probability: r.take_f64()?,
            bits_per_dim: r.take_u8()?,
            f32_candidates: match r.take_u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(PersistError::Corrupt(format!("unknown f32-candidates tag {tag}")))
                }
            },
            compaction: CompactionSpec {
                background: match r.take_u8()? {
                    0 => false,
                    1 => true,
                    tag => {
                        return Err(PersistError::Corrupt(format!(
                            "unknown background-compaction tag {tag}"
                        )))
                    }
                },
                max_delta_ratio: r.take_f64()?,
                max_tombstone_ratio: r.take_f64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tags_roundtrip_and_names_are_stable() {
        for method in Method::ALL {
            assert_eq!(Method::from_tag(method.tag()).unwrap(), method);
            assert_eq!(method.to_string(), method.name());
        }
        assert!(Method::from_tag(9).is_err());
        assert_eq!(Method::ALL.len(), 3);
        assert_eq!(Method::BrePartition.short_name(), "BP");
        assert_eq!(Method::BBTree.short_name(), "BBT");
        assert_eq!(Method::VaFile.short_name(), "VAF");
    }

    #[test]
    fn builders_set_fields_and_serialization_roundtrips() {
        let spec = IndexSpec::approximate(DivergenceKind::Exponential)
            .with_partitions(12)
            .with_strategy(PartitionStrategy::EqualContiguous)
            .with_page_size(4096)
            .with_buffer_pool_pages(64)
            .with_leaf_capacity(8)
            .with_sample_size(128)
            .with_seed(7)
            .with_probability(0.95)
            .with_bits_per_dim(5)
            .with_f32_candidates(true)
            .with_background_compaction(true)
            .with_compaction_ratios(0.5, 0.125);
        assert_eq!(spec.partitions, 12);
        assert!(spec.compaction.background);
        assert_eq!(spec.compaction.max_delta_ratio, 0.5);
        assert_eq!(spec.compaction.max_tombstone_ratio, 0.125);
        assert!(spec.brepartition_config().f32_candidates);
        assert_eq!(spec.brepartition_config().page_size_bytes, 4096);
        assert_eq!(spec.brepartition_config().seed, 7);
        assert_eq!(spec.vafile_config().quantizer.bits_per_dim, 5);
        assert_eq!(spec.approximate_config().probability, 0.95);

        let mut w = ByteWriter::new();
        spec.write_to(&mut w);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        let restored = IndexSpec::read_from(&mut r).unwrap();
        assert_eq!(restored, spec);
    }

    #[test]
    fn validate_rejects_contradictory_specs() {
        let bad_page = IndexSpec::brepartition(DivergenceKind::ItakuraSaito).with_page_size(0);
        assert!(matches!(bad_page.validate(), Err(Error::Spec(_))));

        let bad_leaf = IndexSpec::bbtree(DivergenceKind::ItakuraSaito).with_leaf_capacity(0);
        assert!(matches!(bad_leaf.validate(), Err(Error::Spec(_))));

        let bad_p = IndexSpec::approximate(DivergenceKind::ItakuraSaito).with_probability(1.5);
        assert!(matches!(bad_p.validate(), Err(Error::Spec(_))));
        let bad_p = IndexSpec::brepartition(DivergenceKind::ItakuraSaito).with_probability(0.0);
        assert!(matches!(bad_p.validate(), Err(Error::Spec(_))));
        // The baselines carry the probability but never read it.
        assert!(IndexSpec::bbtree(DivergenceKind::ItakuraSaito)
            .with_probability(1.5)
            .validate()
            .is_ok());

        let bad_bits = IndexSpec::vafile(DivergenceKind::ItakuraSaito).with_bits_per_dim(0);
        assert!(matches!(bad_bits.validate(), Err(Error::Spec(_))));

        let bad_ratio =
            IndexSpec::bbtree(DivergenceKind::ItakuraSaito).with_compaction_ratios(0.0, 0.25);
        assert!(matches!(bad_ratio.validate(), Err(Error::Spec(_))));
        let bad_ratio =
            IndexSpec::bbtree(DivergenceKind::ItakuraSaito).with_compaction_ratios(0.25, f64::NAN);
        assert!(matches!(bad_ratio.validate(), Err(Error::Spec(_))));

        // Generalized-I is not cumulative across partitions: BrePartition rejects
        // it at spec validation, the baselines accept it.
        let gi_bp = IndexSpec::brepartition(DivergenceKind::GeneralizedI);
        assert!(matches!(gi_bp.validate(), Err(Error::Spec(_))));
        assert!(IndexSpec::bbtree(DivergenceKind::GeneralizedI).validate().is_ok());
        assert!(IndexSpec::vafile(DivergenceKind::GeneralizedI).validate().is_ok());
    }
}
