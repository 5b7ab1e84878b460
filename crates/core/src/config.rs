//! Index configuration.

/// Which dimensionality-partitioning strategy to use.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Pearson-Correlation-Coefficient-based Partition (the paper's PCCP):
    /// correlated dimensions are spread across different partitions.
    #[default]
    Pccp,
    /// Naive equal, contiguous split (the paper's baseline used in the PCCP
    /// ablation of Fig. 10).
    EqualContiguous,
}

/// Configuration of a [`crate::BrePartitionIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrePartitionConfig {
    /// Number of partitions `M`, in `[1, d]` (checked at build time). The
    /// default is 1: one full-dimensional BB-tree searched best-first by
    /// its box bounds, which Theorem 4's cost form prices below every
    /// `M > 1` (see the README's "Choosing the number of partitions").
    pub partitions: usize,
    /// Partitioning strategy (PCCP by default).
    pub strategy: PartitionStrategy,
    /// Leaf capacity of every subspace BB-tree.
    pub leaf_capacity: usize,
    /// Page size of the simulated disk holding the full-resolution points.
    pub page_size_bytes: usize,
    /// Buffer-pool capacity in pages used for queries issued through
    /// [`crate::BrePartitionIndex::knn`]. Zero disables caching so every
    /// page access is counted as physical I/O (the paper's per-query metric).
    pub buffer_pool_pages: usize,
    /// Number of data points sampled when estimating the PCCP correlation
    /// matrix.
    pub sample_size: usize,
    /// Seed for every randomized choice (sampling, k-means initialization,
    /// PCCP's random first dimension).
    pub seed: u64,
    /// Keep an in-memory `f32` copy of the rows and screen refine
    /// candidates against it before touching data pages. Screening is
    /// *conservative* — a candidate is skipped only when its `f32`
    /// divergence minus a rigorous rounding bound already exceeds the
    /// current `k`-th best — and every surviving candidate is re-ranked at
    /// full `f64` resolution, so the final neighbors (ids *and* distances)
    /// are bit-identical to the unscreened path. Costs `4·d` bytes per
    /// point of resident memory; off by default. It screens the union of
    /// the range searches at more than one subspace (and for the
    /// approximate search); the exact search at one subspace has no union,
    /// so it has nothing to screen there.
    pub f32_candidates: bool,
}

impl Default for BrePartitionConfig {
    fn default() -> Self {
        Self {
            partitions: 1,
            strategy: PartitionStrategy::Pccp,
            leaf_capacity: 32,
            page_size_bytes: 32 * 1024,
            buffer_pool_pages: 0,
            sample_size: 256,
            seed: 0xB5EED,
            f32_candidates: false,
        }
    }
}

impl BrePartitionConfig {
    /// Set the number of partitions.
    pub fn with_partitions(mut self, m: usize) -> Self {
        self.partitions = m;
        self
    }

    /// Select the partitioning strategy.
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the simulated disk page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size_bytes = bytes;
        self
    }

    /// Set the leaf capacity of the subspace BB-trees.
    pub fn with_leaf_capacity(mut self, capacity: usize) -> Self {
        self.leaf_capacity = capacity;
        self
    }

    /// Set the query-time buffer-pool size in pages.
    pub fn with_buffer_pool_pages(mut self, pages: usize) -> Self {
        self.buffer_pool_pages = pages;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable the `f32` candidate-screening tier.
    pub fn with_f32_candidates(mut self, enabled: bool) -> Self {
        self.f32_candidates = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_style_settings() {
        let c = BrePartitionConfig::default();
        assert_eq!(c.partitions, 1);
        assert_eq!(c.strategy, PartitionStrategy::Pccp);
        assert_eq!(c.page_size_bytes, 32 * 1024);
        assert_eq!(c.buffer_pool_pages, 0);
    }

    #[test]
    fn builder_methods_set_fields() {
        let c = BrePartitionConfig::default()
            .with_partitions(12)
            .with_strategy(PartitionStrategy::EqualContiguous)
            .with_page_size(4096)
            .with_leaf_capacity(8)
            .with_buffer_pool_pages(64)
            .with_seed(7);
        assert_eq!(c.partitions, 12);
        assert_eq!(c.strategy, PartitionStrategy::EqualContiguous);
        assert_eq!(c.page_size_bytes, 4096);
        assert_eq!(c.leaf_capacity, 8);
        assert_eq!(c.buffer_pool_pages, 64);
        assert_eq!(c.seed, 7);
    }
}
