//! Hierarchical multiplicative cluster generator.
//!
//! Multimedia descriptors (filter-bank energies, gradient histograms, CNN
//! activations) typically combine three multiplicative effects:
//!
//! * a per-dimension base scale (some channels are simply larger than
//!   others),
//! * a per-item *global* factor (overall loudness / contrast / norm), which
//!   is shared by groups of semantically similar items — this is what gives
//!   the data its cluster structure,
//! * smaller per-block factors (a band of adjacent channels moves together),
//!   which is what gives dimensions their block correlation,
//! * small per-coordinate noise.
//!
//! The generator draws, for each of `clusters` clusters, a global log-factor
//! and one log-factor per correlated block, then emits points as
//! `x_j = s_j · exp(G_k + H_{k,b(j)} + ε)` — strictly positive, block
//! correlated, clustered, and with within-point coordinate scales far more
//! homogeneous than the between-cluster separation. The last property is
//! what makes the Cauchy–Schwarz filter of BrePartition effective, mirroring
//! the behaviour the paper reports on its real datasets.

use bregman::DenseDataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::synthetic::BoxMuller;

/// Parameters of the hierarchical multiplicative generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalSpec {
    /// Number of points.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Number of clusters (per-cluster global factor).
    pub clusters: usize,
    /// Number of correlated dimension blocks.
    pub blocks: usize,
    /// Base coordinate scale (per-dimension scales are drawn within ±2% of
    /// this value).
    pub base_scale: f64,
    /// Standard deviation of the per-cluster global log-factor (drives
    /// cluster separation).
    pub cluster_log_sigma: f64,
    /// Standard deviation of the per-(cluster, block) log-factor (drives
    /// block correlation and keeps subspaces from being perfectly uniform).
    pub block_log_sigma: f64,
    /// Standard deviation of the per-coordinate log-noise.
    pub noise_log_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HierarchicalSpec {
    fn default() -> Self {
        Self {
            n: 1000,
            dim: 64,
            clusters: 16,
            blocks: 8,
            base_scale: 5.0,
            cluster_log_sigma: 0.4,
            block_log_sigma: 0.08,
            noise_log_sigma: 0.03,
            seed: 2024,
        }
    }
}

impl HierarchicalSpec {
    /// Which correlated block a dimension belongs to (contiguous blocks).
    pub fn block_of(&self, dim_index: usize) -> usize {
        let per_block = self.dim.div_ceil(self.blocks.max(1));
        (dim_index / per_block).min(self.blocks.saturating_sub(1))
    }

    /// Which cluster a point belongs to (round-robin, matching
    /// [`crate::synthetic::clustered`]).
    pub fn cluster_of(&self, point_index: usize) -> usize {
        point_index % self.clusters.max(1)
    }

    /// Generate the dataset.
    ///
    /// Delegates to [`HierarchicalSpec::stream`], so a full `generate()`
    /// and a block-by-block stream of the same spec are bit-identical by
    /// construction, not by parallel-implementation luck.
    pub fn generate(&self) -> DenseDataset {
        let mut stream = self.stream();
        let mut data = Vec::with_capacity(self.n * self.dim);
        while stream.fill_block(usize::MAX, &mut data) > 0 {}
        DenseDataset::from_flat(self.dim, data)
            .expect("hierarchical generator produced ragged data")
    }

    /// A streaming generator over this spec: the factor tables are drawn
    /// up front (in exactly the order [`HierarchicalSpec::generate`]
    /// draws them), then points are emitted on demand in blocks of any
    /// size. Million-point builds can fill the single flat buffer the
    /// index builder will consume — or feed rows straight into an insert
    /// pool — without the generator staging its own full `n × dim`
    /// matrix first.
    pub fn stream(&self) -> HierarchicalStream {
        assert!(self.n > 0 && self.dim > 0, "need at least one point and one dimension");
        assert!(self.clusters > 0 && self.blocks > 0, "need at least one cluster and block");
        assert!(self.base_scale > 0.0, "base scale must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let gauss = BoxMuller;

        // Per-dimension base scales within ±2% of the base scale.
        let scales: Vec<f64> =
            (0..self.dim).map(|_| self.base_scale * rng.gen_range(0.98..1.02)).collect();
        // Per-cluster global log-factors and per-(cluster, block) log-factors.
        let cluster_factors: Vec<f64> =
            (0..self.clusters).map(|_| self.cluster_log_sigma * gauss.sample(&mut rng)).collect();
        let block_factors: Vec<Vec<f64>> = (0..self.clusters)
            .map(|_| {
                (0..self.blocks).map(|_| self.block_log_sigma * gauss.sample(&mut rng)).collect()
            })
            .collect();
        let block_of_dim: Vec<usize> = (0..self.dim).map(|j| self.block_of(j)).collect();

        HierarchicalStream {
            spec: *self,
            rng,
            gauss,
            scales,
            cluster_factors,
            block_factors,
            block_of_dim,
            next_point: 0,
        }
    }
}

/// An in-progress streaming generation (see [`HierarchicalSpec::stream`]).
///
/// Points come out in the same order, with the same values, as one big
/// [`HierarchicalSpec::generate`] call: the per-coordinate noise draws are
/// strictly sequential, so cutting the emission into blocks cannot change
/// the stream.
#[derive(Debug, Clone)]
pub struct HierarchicalStream {
    spec: HierarchicalSpec,
    rng: ChaCha8Rng,
    gauss: BoxMuller,
    scales: Vec<f64>,
    cluster_factors: Vec<f64>,
    block_factors: Vec<Vec<f64>>,
    block_of_dim: Vec<usize>,
    next_point: usize,
}

impl HierarchicalStream {
    /// The spec this stream generates.
    pub fn spec(&self) -> &HierarchicalSpec {
        &self.spec
    }

    /// Points emitted so far.
    pub fn emitted(&self) -> usize {
        self.next_point
    }

    /// Points still to come.
    pub fn remaining(&self) -> usize {
        self.spec.n - self.next_point
    }

    /// Append up to `max_rows` points (each `dim` coordinates, row-major)
    /// to `out`, returning how many points were emitted — `0` once the
    /// stream is exhausted.
    pub fn fill_block(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let rows = max_rows.min(self.remaining());
        out.reserve(rows * self.spec.dim);
        for i in self.next_point..self.next_point + rows {
            let k = self.spec.cluster_of(i);
            for (j, &scale) in self.scales.iter().enumerate() {
                let b = self.block_of_dim[j];
                let log_value = self.cluster_factors[k]
                    + self.block_factors[k][b]
                    + self.spec.noise_log_sigma * self.gauss.sample(&mut self.rng);
                out.push(scale * log_value.exp());
            }
        }
        self.next_point += rows;
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlated::column_correlation;
    use bregman::{DecomposableBregman, ItakuraSaito};

    fn spec() -> HierarchicalSpec {
        HierarchicalSpec { n: 1200, dim: 24, clusters: 12, blocks: 6, ..Default::default() }
    }

    #[test]
    fn shape_positivity_and_determinism() {
        let s = spec();
        let a = s.generate();
        let b = s.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1200);
        assert_eq!(a.dim(), 24);
        assert!(a.as_flat().iter().all(|&v| v > 0.0));
        let other = HierarchicalSpec { seed: 7, ..s }.generate();
        assert_ne!(a, other);
    }

    #[test]
    fn within_block_correlation_exceeds_across_block() {
        let ds = spec().generate();
        // Dims 0 and 1 share block 0; dims 0 and 10 are in different blocks.
        let within = column_correlation(&ds, 0, 1).abs();
        let across = column_correlation(&ds, 0, 10).abs();
        assert!(
            within > across,
            "within-block correlation {within} should exceed across-block {across}"
        );
    }

    #[test]
    fn within_cluster_divergence_is_much_smaller_than_across() {
        let s = spec();
        let ds = s.generate();
        // Points 0 and 12 share cluster 0 (round-robin over 12 clusters);
        // points 0 and 1 belong to different clusters.
        let within = ItakuraSaito.divergence(ds.row(0), ds.row(12));
        let across = ItakuraSaito.divergence(ds.row(0), ds.row(1));
        assert!(
            within * 3.0 < across,
            "within-cluster divergence {within} not clearly below across-cluster {across}"
        );
    }

    #[test]
    fn coordinates_within_a_point_are_homogeneous() {
        // The ratio between the largest and smallest coordinate of any point
        // stays modest — the property that keeps the Cauchy slack small.
        let ds = spec().generate();
        for i in (0..ds.len()).step_by(117) {
            let row = ds.row(i);
            let max = row.iter().cloned().fold(f64::MIN, f64::max);
            let min = row.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max / min < 2.5, "point {i} spans ratio {}", max / min);
        }
    }

    #[test]
    fn streamed_blocks_concatenate_to_generate_bit_identically() {
        let s = spec();
        let whole = s.generate();
        // Ragged block sizes, including one bigger than the remainder.
        for block_rows in [1usize, 7, 128, 999, 5000] {
            let mut stream = s.stream();
            let mut data = Vec::new();
            let mut emitted = 0;
            while stream.remaining() > 0 {
                emitted += stream.fill_block(block_rows, &mut data);
                assert_eq!(stream.emitted(), emitted);
            }
            assert_eq!(stream.fill_block(block_rows, &mut data), 0);
            assert_eq!(data, whole.as_flat(), "block size {block_rows} diverged");
        }
    }

    #[test]
    fn block_and_cluster_assignment_are_total() {
        let s = HierarchicalSpec { dim: 10, blocks: 3, clusters: 4, n: 8, ..Default::default() };
        let blocks: Vec<usize> = (0..10).map(|j| s.block_of(j)).collect();
        assert_eq!(blocks, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        let clusters: Vec<usize> = (0..8).map(|i| s.cluster_of(i)).collect();
        assert_eq!(clusters, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
