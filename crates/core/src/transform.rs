//! Precomputed transforms (Algorithms 1–3 of the paper).
//!
//! In the precomputation, every partitioned data point is transformed, per
//! subspace, into a two-dimensional tuple `P(x) = (α_x, γ_x)` with
//! `α_x = Σ_j φ(x_j)` and `γ_x = Σ_j x_j²` (Algorithm 2). At query time the
//! partitioned query is transformed into triples
//! `Q(y) = (α_y, β_yy, δ_y)` with `α_y = −Σ_j φ(y_j)`,
//! `β_yy = Σ_j y_j φ'(y_j)` and `δ_y = Σ_j φ'(y_j)²` (Algorithm 3). The
//! Cauchy–Schwarz upper bound of Theorem 1 is then
//! `UB(x_i·, y_i·) = α_x + α_y + β_yy + sqrt(γ_x · δ_y)` (Algorithm 1),
//! evaluable from the transforms alone — no access to the original
//! coordinates is needed during the filtering phase.

use bregman::{DenseDataset, DivergenceKind};

use crate::partition::Partitioning;

/// Per-point, per-subspace tuples `P(x) = (α_x, γ_x)` for an entire dataset.
///
/// The tuples are stored subspace-major as two columns,
/// `alpha[subspace * n + point]` and `gamma[subspace * n + point]`, so
/// Algorithm 4 ([`crate::QueryBounds::determine`]) streams one contiguous
/// run of `n` values per subspace and its per-point loop vectorises.
/// Persistence keeps the point-major `[α, γ]` table of the file format (see
/// [`crate::persist`]) and transposes at save and open.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformedDataset {
    n: usize,
    m: usize,
    alpha: Vec<f64>,
    gamma: Vec<f64>,
}

impl TransformedDataset {
    /// Transform every point of `dataset` under `partitioning`
    /// (Algorithm 2 applied to the whole dataset).
    pub fn build(
        kind: DivergenceKind,
        dataset: &DenseDataset,
        partitioning: &Partitioning,
    ) -> TransformedDataset {
        let n = dataset.len();
        let m = partitioning.len();
        let mut alpha = vec![0.0; n * m];
        let mut gamma = vec![0.0; n * m];
        let mut scratch = Vec::new();
        for i in 0..n {
            let row = dataset.row(i);
            for (s, dims) in partitioning.subspaces().iter().enumerate() {
                DenseDataset::gather_into(row, dims, &mut scratch);
                (alpha[s * n + i], gamma[s * n + i]) = kind.point_components(&scratch);
            }
        }
        TransformedDataset { n, m, alpha, gamma }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no point was transformed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.m
    }

    /// The `(α_x, γ_x)` tuple of one point in one subspace.
    #[inline]
    pub fn components(&self, point: usize, subspace: usize) -> (f64, f64) {
        let at = subspace * self.n + point;
        (self.alpha[at], self.gamma[at])
    }

    /// The `α_x` and `γ_x` columns of one subspace, indexed by point.
    #[inline]
    pub(crate) fn subspace_columns(&self, subspace: usize) -> (&[f64], &[f64]) {
        let run = subspace * self.n..(subspace + 1) * self.n;
        (&self.alpha[run.clone()], &self.gamma[run])
    }

    /// Sum of `α_x` over every subspace of one point (equals the full-space
    /// `Σ_j φ(x_j)` because the partitions are disjoint and exhaustive).
    pub fn total_alpha(&self, point: usize) -> f64 {
        (0..self.m).map(|s| self.components(point, s).0).sum()
    }

    /// Sum of `γ_x` over every subspace of one point (the full-space
    /// `Σ_j x_j²`).
    pub fn total_gamma(&self, point: usize) -> f64 {
        (0..self.m).map(|s| self.components(point, s).1).sum()
    }

    /// Approximate in-memory footprint in bytes (used by construction-cost
    /// reporting).
    pub fn size_bytes(&self) -> usize {
        (self.alpha.len() + self.gamma.len()) * std::mem::size_of::<f64>()
    }

    /// Reassemble a transformed dataset from the point-major `(α_x, γ_x)`
    /// sequence the persistence layer stores (point 0's subspaces `0..m`,
    /// then point 1's, …), pulling each tuple from `next`.
    pub(crate) fn from_point_major<E>(
        n: usize,
        m: usize,
        mut next: impl FnMut() -> std::result::Result<(f64, f64), E>,
    ) -> std::result::Result<TransformedDataset, E> {
        let mut alpha = vec![0.0; n * m];
        let mut gamma = vec![0.0; n * m];
        for i in 0..n {
            for s in 0..m {
                (alpha[s * n + i], gamma[s * n + i]) = next()?;
            }
        }
        Ok(TransformedDataset { n, m, alpha, gamma })
    }
}

/// Per-subspace triples `Q(y) = (α_y, β_yy, δ_y)` of one query point.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformedQuery {
    triples: Vec<[f64; 3]>,
}

impl TransformedQuery {
    /// Transform `query` under `partitioning` (Algorithm 3).
    pub fn build(
        kind: DivergenceKind,
        query: &[f64],
        partitioning: &Partitioning,
    ) -> TransformedQuery {
        let mut triples = Vec::with_capacity(partitioning.len());
        let mut scratch = Vec::new();
        for dims in partitioning.subspaces() {
            DenseDataset::gather_into(query, dims, &mut scratch);
            let (alpha, beta_yy, delta) = kind.query_components(&scratch);
            triples.push([alpha, beta_yy, delta]);
        }
        TransformedQuery { triples }
    }

    /// Number of subspaces.
    pub fn partitions(&self) -> usize {
        self.triples.len()
    }

    /// The `(α_y, β_yy, δ_y)` triple of one subspace.
    #[inline]
    pub fn components(&self, subspace: usize) -> (f64, f64, f64) {
        let t = self.triples[subspace];
        (t[0], t[1], t[2])
    }

    /// Full-space totals `(Σ α_y, Σ β_yy, Σ δ_y)` across all subspaces.
    pub fn totals(&self) -> (f64, f64, f64) {
        let mut a = 0.0;
        let mut b = 0.0;
        let mut d = 0.0;
        for t in &self.triples {
            a += t[0];
            b += t[1];
            d += t[2];
        }
        (a, b, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioning;
    use bregman::{DecomposableBregman, ItakuraSaito};

    fn dataset() -> DenseDataset {
        let rows: Vec<Vec<f64>> = (1..=20)
            .map(|i| (0..8).map(|j| 0.5 + ((i * 3 + j * 7) % 13) as f64).collect())
            .collect();
        DenseDataset::from_rows(&rows).unwrap()
    }

    fn partitioning() -> Partitioning {
        Partitioning::new(vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]).unwrap()
    }

    #[test]
    fn tuples_match_direct_component_computation() {
        let ds = dataset();
        let p = partitioning();
        let t = TransformedDataset::build(DivergenceKind::ItakuraSaito, &ds, &p);
        assert_eq!(t.len(), 20);
        assert_eq!(t.partitions(), 3);
        assert!(!t.is_empty());
        for i in 0..ds.len() {
            for (s, dims) in p.subspaces().iter().enumerate() {
                let sub: Vec<f64> = dims.iter().map(|&d| ds.row(i)[d]).collect();
                let expected = ItakuraSaito.point_components(&sub);
                let got = t.components(i, s);
                assert!((got.0 - expected.0).abs() < 1e-12);
                assert!((got.1 - expected.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn totals_are_full_space_components() {
        let ds = dataset();
        let p = partitioning();
        let t = TransformedDataset::build(DivergenceKind::ItakuraSaito, &ds, &p);
        for i in 0..ds.len() {
            let (alpha_full, gamma_full) = ItakuraSaito.point_components(ds.row(i));
            assert!((t.total_alpha(i) - alpha_full).abs() < 1e-9);
            assert!((t.total_gamma(i) - gamma_full).abs() < 1e-9);
        }
        assert!(t.size_bytes() >= 20 * 3 * 16);
    }

    #[test]
    fn query_triples_match_direct_computation() {
        let ds = dataset();
        let p = partitioning();
        let query = ds.row(5);
        let q = TransformedQuery::build(DivergenceKind::ItakuraSaito, query, &p);
        assert_eq!(q.partitions(), 3);
        for (s, dims) in p.subspaces().iter().enumerate() {
            let sub: Vec<f64> = dims.iter().map(|&d| query[d]).collect();
            let expected = ItakuraSaito.query_components(&sub);
            let got = q.components(s);
            assert!((got.0 - expected.0).abs() < 1e-12);
            assert!((got.1 - expected.1).abs() < 1e-12);
            assert!((got.2 - expected.2).abs() < 1e-12);
        }
        let (alpha, beta_yy, delta) = q.totals();
        let full = ItakuraSaito.query_components(query);
        assert!((alpha - full.0).abs() < 1e-9);
        assert!((beta_yy - full.1).abs() < 1e-9);
        assert!((delta - full.2).abs() < 1e-9);
    }

    #[test]
    fn components_reconstruct_the_exact_divergence_without_the_cauchy_step() {
        // α_x + α_y + β_yy − Σ_j x_j φ'(y_j) summed over subspaces equals the
        // exact full-space divergence — the identity underlying Theorem 2.
        let ds = dataset();
        let p = partitioning();
        let t = TransformedDataset::build(DivergenceKind::ItakuraSaito, &ds, &p);
        let query = ds.row(2);
        let q = TransformedQuery::build(DivergenceKind::ItakuraSaito, query, &p);
        for i in 0..ds.len() {
            let mut reconstructed = 0.0;
            for (s, dims) in p.subspaces().iter().enumerate() {
                let (alpha_x, _) = t.components(i, s);
                let (alpha_y, beta_yy, _) = q.components(s);
                let beta_xy: f64 =
                    dims.iter().map(|&d| -ds.row(i)[d] * ItakuraSaito.phi_prime(query[d])).sum();
                reconstructed += alpha_x + alpha_y + beta_yy + beta_xy;
            }
            let exact = ItakuraSaito.divergence(ds.row(i), query);
            assert!(
                (reconstructed - exact).abs() < 1e-9 * (1.0 + exact.abs()),
                "point {i}: {reconstructed} vs {exact}"
            );
        }
    }
}
