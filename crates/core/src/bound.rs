//! Upper bound assembly and search-bound determination (Algorithms 1 and 4,
//! Theorems 1–3).

use crate::transform::{TransformedDataset, TransformedQuery};

/// Algorithm 1 (`UBCompute`): assemble the per-subspace Cauchy–Schwarz upper
/// bound from a data tuple `(α_x, γ_x)` and a query triple
/// `(α_y, β_yy, δ_y)`:
///
/// ```text
/// UB = α_x + α_y + β_yy + sqrt(γ_x · δ_y)
/// ```
#[inline]
pub fn upper_bound_from_components(point: (f64, f64), query: (f64, f64, f64)) -> f64 {
    let (alpha_x, gamma_x) = point;
    let (alpha_y, beta_yy, delta_y) = query;
    alpha_x + alpha_y + beta_yy + (gamma_x * delta_y).max(0.0).sqrt()
}

/// The per-subspace search bounds of one query (Algorithm 4's `QB`), plus
/// the summed bound used by the seeded radius split and the approximate
/// extension.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBounds {
    /// Index of the data point whose summed upper bound was the k-th
    /// smallest (the paper's point `t`).
    pub pivot_point: usize,
    /// Per-subspace search radii `QB_j = UB(x_t,j, y_j)`.
    pub per_subspace: Vec<f64>,
    /// The summed bound `Σ_j QB_j` (the k-th smallest total upper bound).
    pub total: f64,
}

impl QueryBounds {
    /// Algorithm 4 (`QBDetermine`): compute every point's summed upper
    /// bound, select the `k`-th smallest, and return its per-subspace
    /// components as the search radii.
    ///
    /// Returns `None` for an empty dataset or `k == 0`.
    pub fn determine(
        transformed: &TransformedDataset,
        query: &TransformedQuery,
        k: usize,
    ) -> Option<QueryBounds> {
        let n = transformed.len();
        let m = transformed.partitions();
        if n == 0 || k == 0 || m != query.partitions() {
            return None;
        }
        // Pass 1: summed upper bound per point, subspace-major. Each point
        // still adds its subspaces in order `0..m`, so every total is
        // bit-identical to a point-major scan, while the inner loop streams
        // two contiguous columns and vectorises.
        let mut sums = vec![0.0; n];
        for s in 0..m {
            let q = query.components(s);
            let (alpha, gamma) = transformed.subspace_columns(s);
            for ((sum, &a), &g) in sums.iter_mut().zip(alpha).zip(gamma) {
                *sum += upper_bound_from_components((a, g), q);
            }
        }
        let mut totals: Vec<(usize, f64)> = sums.into_iter().enumerate().collect();
        // Select the k-th smallest total (or the largest if k > n).
        let kth = k.min(n) - 1;
        totals.select_nth_unstable_by(kth, |a, b| a.1.total_cmp(&b.1));
        let (pivot_point, total) = totals[kth];
        // Pass 2: recompute the pivot's per-subspace components.
        let per_subspace: Vec<f64> = (0..m)
            .map(|s| {
                upper_bound_from_components(
                    transformed.components(pivot_point, s),
                    query.components(s),
                )
            })
            .collect();
        Some(QueryBounds { pivot_point, per_subspace, total })
    }

    /// The radii the filter searches with: each per-subspace bound widened
    /// by a rounding allowance of `1e-12` of the magnitudes of the pivot's
    /// bound terms in that subspace (`|α_x| + |α_y| + |β_yy| + √(γ_x·δ_y)`).
    ///
    /// In one dimension the Cauchy–Schwarz step is an equality whenever `φ'`
    /// keeps its sign (Itakura–Saito, for one), so a bound can equal the
    /// exact divergence, and rounding alone can put it a few ulps below the
    /// divergence the range search computes (below zero when the pivot
    /// coincides with the query) and drop true neighbours. The allowance is
    /// far above the rounding error of a subspace sum and far below any gap
    /// the filter prunes on.
    pub fn search_radii(
        &self,
        transformed: &TransformedDataset,
        query: &TransformedQuery,
    ) -> Vec<f64> {
        self.per_subspace
            .iter()
            .enumerate()
            .map(|(s, &bound)| {
                let (alpha_x, gamma_x) = transformed.components(self.pivot_point, s);
                let (alpha_y, beta_yy, delta_y) = query.components(s);
                let cauchy = (gamma_x * delta_y).max(0.0).sqrt();
                bound + 1e-12 * (alpha_x.abs() + alpha_y.abs() + beta_yy.abs() + cauchy)
            })
            .collect()
    }

    /// Number of subspaces covered.
    pub fn partitions(&self) -> usize {
        self.per_subspace.len()
    }

    /// A copy of these bounds with every subspace's Cauchy term shrunk so
    /// the *total* is scaled by `factor` (used by the approximate search;
    /// each per-subspace radius is scaled proportionally).
    pub fn scaled(&self, factor: f64) -> QueryBounds {
        let f = factor.clamp(0.0, 1.0);
        QueryBounds {
            pivot_point: self.pivot_point,
            per_subspace: self.per_subspace.iter().map(|b| b * f).collect(),
            total: self.total * f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioning;
    use bregman::{DenseDataset, DivergenceKind};

    fn setup() -> (DenseDataset, Partitioning, TransformedDataset) {
        let rows: Vec<Vec<f64>> = (1..=30)
            .map(|i| (0..6).map(|j| 0.5 + ((i * 5 + j * 11) % 17) as f64).collect())
            .collect();
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let p = Partitioning::new(vec![vec![0, 2, 4], vec![1, 3, 5]]).unwrap();
        let t = TransformedDataset::build(DivergenceKind::Exponential, &ds, &p);
        (ds, p, t)
    }

    #[test]
    fn upper_bound_dominates_exact_divergence_in_each_subspace() {
        let (ds, p, t) = setup();
        let kind = DivergenceKind::Exponential;
        let query = ds.row(7);
        let q = TransformedQuery::build(kind, query, &p);
        for i in 0..ds.len() {
            for (s, dims) in p.subspaces().iter().enumerate() {
                let sub_x: Vec<f64> = dims.iter().map(|&d| ds.row(i)[d]).collect();
                let sub_y: Vec<f64> = dims.iter().map(|&d| query[d]).collect();
                let exact = kind.divergence(&sub_x, &sub_y);
                let ub = upper_bound_from_components(t.components(i, s), q.components(s));
                assert!(exact <= ub + 1e-7 * (1.0 + ub.abs()), "point {i} subspace {s}");
            }
        }
    }

    #[test]
    fn summed_upper_bound_dominates_full_divergence() {
        // Theorem 2: D_f(x, y) ≤ Σ_j UB_j.
        let (ds, p, t) = setup();
        let kind = DivergenceKind::Exponential;
        let query = ds.row(0);
        let q = TransformedQuery::build(kind, query, &p);
        for i in 0..ds.len() {
            let total: f64 = (0..p.len())
                .map(|s| upper_bound_from_components(t.components(i, s), q.components(s)))
                .sum();
            let exact = kind.divergence(ds.row(i), query);
            assert!(exact <= total + 1e-7 * (1.0 + total.abs()));
        }
    }

    #[test]
    fn determine_returns_kth_smallest_total() {
        let (ds, p, t) = setup();
        let kind = DivergenceKind::Exponential;
        let query = ds.row(3);
        let q = TransformedQuery::build(kind, query, &p);
        let k = 5;
        let bounds = QueryBounds::determine(&t, &q, k).unwrap();
        assert_eq!(bounds.partitions(), 2);
        // Recompute all totals and check the pivot really is the k-th smallest.
        let mut totals: Vec<f64> = (0..ds.len())
            .map(|i| {
                (0..p.len())
                    .map(|s| upper_bound_from_components(t.components(i, s), q.components(s)))
                    .sum()
            })
            .collect();
        totals.sort_by(f64::total_cmp);
        assert!((bounds.total - totals[k - 1]).abs() < 1e-9);
        let per_sum: f64 = bounds.per_subspace.iter().sum();
        assert!((per_sum - bounds.total).abs() < 1e-9);
    }

    #[test]
    fn kth_bound_grows_with_k() {
        let (ds, p, t) = setup();
        let kind = DivergenceKind::Exponential;
        let q = TransformedQuery::build(kind, ds.row(11), &p);
        let b1 = QueryBounds::determine(&t, &q, 1).unwrap();
        let b10 = QueryBounds::determine(&t, &q, 10).unwrap();
        let b30 = QueryBounds::determine(&t, &q, 30).unwrap();
        assert!(b1.total <= b10.total + 1e-12);
        assert!(b10.total <= b30.total + 1e-12);
    }

    #[test]
    fn k_beyond_dataset_size_falls_back_to_largest() {
        let (ds, p, t) = setup();
        let q = TransformedQuery::build(DivergenceKind::Exponential, ds.row(1), &p);
        let clamped = QueryBounds::determine(&t, &q, 1_000).unwrap();
        let exact_max = QueryBounds::determine(&t, &q, ds.len()).unwrap();
        assert!((clamped.total - exact_max.total).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        let (ds, p, t) = setup();
        let q = TransformedQuery::build(DivergenceKind::Exponential, ds.row(1), &p);
        assert!(QueryBounds::determine(&t, &q, 0).is_none());
        let empty = DenseDataset::empty(6).unwrap();
        let empty_t = TransformedDataset::build(DivergenceKind::Exponential, &empty, &p);
        assert!(QueryBounds::determine(&empty_t, &q, 3).is_none());
    }

    /// The point-major scalar Algorithm 4 scan that the subspace-major
    /// `determine` replaced, kept as the bit-identity reference.
    fn point_major_reference(
        transformed: &TransformedDataset,
        query: &TransformedQuery,
        k: usize,
    ) -> QueryBounds {
        let n = transformed.len();
        let m = transformed.partitions();
        let mut totals: Vec<(usize, f64)> = Vec::with_capacity(n);
        for i in 0..n {
            let mut total = 0.0;
            for s in 0..m {
                total +=
                    upper_bound_from_components(transformed.components(i, s), query.components(s));
            }
            totals.push((i, total));
        }
        let kth = k.min(n) - 1;
        totals.select_nth_unstable_by(kth, |a, b| a.1.total_cmp(&b.1));
        let (pivot_point, total) = totals[kth];
        let per_subspace = (0..m)
            .map(|s| {
                upper_bound_from_components(
                    transformed.components(pivot_point, s),
                    query.components(s),
                )
            })
            .collect();
        QueryBounds { pivot_point, per_subspace, total }
    }

    #[test]
    fn subspace_major_scan_is_bit_identical_to_the_point_major_reference() {
        // n = 37 is not a multiple of any vector width; k = 50 exceeds n.
        let n = 37;
        let dim = 9;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|j| 0.3 + ((i * 7 + j * 13) % 23) as f64 * 0.37).collect())
            .collect();
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for m in [1usize, 2, 7] {
            let p =
                Partitioning::new((0..m).map(|s| (s..dim).step_by(m).collect()).collect()).unwrap();
            for kind in [DivergenceKind::ItakuraSaito, DivergenceKind::Exponential] {
                let t = TransformedDataset::build(kind, &ds, &p);
                for (qi, k) in [(0, 1), (5, 3), (17, 10), (36, n), (2, 50)] {
                    let q = TransformedQuery::build(kind, ds.row(qi), &p);
                    let got = QueryBounds::determine(&t, &q, k).unwrap();
                    let want = point_major_reference(&t, &q, k);
                    let at = format!("{kind} M = {m}, query {qi}, k = {k}");
                    assert_eq!(got.pivot_point, want.pivot_point, "{at}");
                    assert_eq!(got.total.to_bits(), want.total.to_bits(), "{at}");
                    assert_eq!(bits(&got.per_subspace), bits(&want.per_subspace), "{at}");
                }
            }
        }
    }

    #[test]
    fn scaled_bounds_shrink_proportionally() {
        let (ds, p, t) = setup();
        let q = TransformedQuery::build(DivergenceKind::Exponential, ds.row(4), &p);
        let bounds = QueryBounds::determine(&t, &q, 3).unwrap();
        let scaled = bounds.scaled(0.5);
        assert!((scaled.total - 0.5 * bounds.total).abs() < 1e-9);
        for (a, b) in scaled.per_subspace.iter().zip(bounds.per_subspace.iter()) {
            assert!((a - 0.5 * b).abs() < 1e-12);
        }
        // Factors outside [0, 1] are clamped.
        assert!((bounds.scaled(3.0).total - bounds.total).abs() < 1e-12);
    }
}
