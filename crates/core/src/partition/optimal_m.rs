//! The cost model and the optimized number of partitions (Theorem 4).
//!
//! The online cost of a BrePartition query keeps the paper's form
//!
//! ```text
//! T(M) = d + M·n + n·ln k + u(M)·n·(d + ln k)     (M > 1)
//! T(1) = d + u(1)·n·(d + ln k)
//! ```
//!
//! where `M·n` is Algorithm 4's bound pass, `n·ln k` its selection, and
//! `u(M)·n` the candidates the filter keeps, each refined at `d + ln k`.
//! With one subspace the exact search seeds its radius from a descent of
//! the one BB-tree and skips Algorithm 4, so `T(1)` has no bound pass; the
//! descent's `O(d·log n)` is below the model's resolution.
//! [`CostModel::fit`] picks the `M` that minimises `T`, ties going to the
//! smaller `M`.
//!
//! # The survivor term is measured
//!
//! `u(M)` is the fraction of points the filter keeps, measured on eight
//! seeded data rows used as queries ([`SampledUnion`]).
//! Each sampled query gets the radii the search filters with at
//! `k =` [`MODEL_K`] under an [`equal_contiguous`] partitioning: Algorithm
//! 4's [`QueryBounds::search_radii`] scaled down by `min(1, r / T)`, where
//! `T` is Algorithm 4's total and `r` the row's exact `k`-th nearest
//! distance. `r` is an *estimate* of the seeded radius, not a bound on it:
//! the search seeds from the `k`-th exact distance among the rows on the
//! pages its descent reaches, which is at least `r`; on the proxies at
//! n = 8 000 its median is within 10 % of `r`. It needs no tree and no
//! page layout. A point counts when `D_s(x_s, q_s) ≤ r_s` in *any*
//! subspace `s`. Range search is exact, so that is exactly the union the
//! per-subspace BB-trees return at these radii.
//!
//! # Why the exponential fit was dropped
//!
//! The paper models the survivor fraction as `λ = β·A·α^M`, with
//! `UB ≈ A·α^M` fitted through the summed bound at two values of `M`. The
//! summed bound does tighten as `M` grows, so that fit always predicts fewer
//! survivors at larger `M`, and it chose 261 subspaces over the 400
//! dimensions of the Fonts proxy. But the filter keeps the *union* of `M`
//! range searches, and the union grows with `M` faster than the bound
//! tightens. On the Fonts proxy at n = 3 000 (Itakura–Saito, k = 10),
//! filtering with Algorithm 4's radius, the union of perturbed queries
//! holds 407, 559, 815 and 946 points at M = 1, 32, 100 and 261. On the
//! eight sampled rows at the seeded radius, `u(M)·n` is 110 at M = 1, 690
//! at M = 261 and 757 at M = d. Measuring `u(M)` lets the model
//! see that, and it picks M = 1 there.
//!
//! # The cost of measuring
//!
//! Each coordinate's divergence term splits as
//! `φ(x_j) − φ(y_j) − φ'(y_j)·(x_j − y_j)`. The point part `φ(x_j)` (the
//! per-coordinate `α_x`) is tabulated once; the query parts are the
//! query's `α_y`, `β_yy` and gradient. Each grid value then only sums these
//! per subspace: no generator is re-evaluated per `M`. The grid is
//! `M ∈ {1, 2, 4, …} ∪ {d}`, walked upward, and the
//! walk stops once `M·n` alone reaches the cheapest `T` seen: every other
//! term is non-negative, so no larger `M` can win.

use std::ops::Range;

use bregman::kernel::dot_chunked;
use bregman::{DenseDataset, DivergenceKind};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::bound::QueryBounds;
use crate::error::{CoreError, Result};
use crate::partition::equal::equal_contiguous;
use crate::transform::{TransformedDataset, TransformedQuery};

/// The result size `k` at which the model sets the sampled queries' radii
/// and prices the selection and refine terms. `M` is fixed at build time,
/// before any query's `k` is known, so this is a constant.
pub const MODEL_K: usize = 10;

/// Number of seeded data rows sampled as queries when measuring `u(M)`.
const SAMPLE_QUERIES: usize = 8;

/// The modelled online cost `T(M)` of one query with `k =` [`MODEL_K`],
/// for a dataset of `n` points in `dim` dimensions whose filter keeps the
/// fraction `union_fraction` of them.
fn online_cost(n: usize, dim: usize, m: usize, union_fraction: f64) -> f64 {
    let n = n as f64;
    let d = dim as f64;
    let ln_k = (MODEL_K as f64).ln();
    let bound_pass = if m == 1 { 0.0 } else { m as f64 * n + n * ln_k };
    d + bound_pass + union_fraction * n * (d + ln_k)
}

/// The partition counts the model measures, in increasing order: every
/// power of two below `dim`, then `dim` itself.
fn partition_grid(dim: usize) -> Vec<usize> {
    let mut grid: Vec<usize> = std::iter::successors(Some(1usize), |m| m.checked_mul(2))
        .take_while(|&m| m < dim)
        .collect();
    grid.push(dim);
    grid
}

/// The filter's survivor fraction `u(M)`, measured on sampled queries.
///
/// Construction samples the query rows, tabulates `φ(x_j)` for every
/// coordinate of every point and finds each sampled row's exact `k`-th
/// nearest distance; [`SampledUnion::fraction`] then measures one `M` from
/// those tables.
#[derive(Debug)]
pub struct SampledUnion<'a> {
    kind: DivergenceKind,
    dataset: &'a DenseDataset,
    /// `φ(x_j)` of every coordinate, row-major like the dataset.
    phi: Vec<f64>,
    /// The sampled query rows, each with its gradient `∇φ(q)`.
    queries: Vec<(usize, Vec<f64>)>,
    /// The exact [`MODEL_K`]-th nearest distance of each sampled row, in
    /// the order of `queries`.
    kth_distances: Vec<f64>,
}

impl<'a> SampledUnion<'a> {
    /// Sample eight distinct rows (all of them when `n` is smaller) with
    /// `seed`, tabulate the per-coordinate generator, and score every row
    /// against each sampled one through the prepared kernel.
    pub fn new(
        kind: DivergenceKind,
        dataset: &'a DenseDataset,
        seed: u64,
    ) -> Result<SampledUnion<'a>> {
        let n = dataset.len();
        if n < 2 || dataset.dim() == 0 {
            return Err(CoreError::EmptyDataset);
        }
        let mut rows: Vec<usize> = (0..n).collect();
        rows.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        rows.truncate(SAMPLE_QUERIES);
        let phi: Vec<f64> = (0..n)
            .flat_map(|i| dataset.row(i))
            .map(|&v| kind.phi_sum(std::slice::from_ref(&v)))
            .collect();
        let row_phi: Vec<f64> = phi.chunks(dataset.dim()).map(|c| c.iter().sum()).collect();
        let kth = MODEL_K.min(n) - 1;
        let mut distances = vec![0.0; n];
        let mut queries = Vec::with_capacity(rows.len());
        let mut kth_distances = Vec::with_capacity(rows.len());
        for row in rows {
            let prepared = kind.prepare_query(dataset.row(row));
            for (i, distance) in distances.iter_mut().enumerate() {
                *distance = prepared.distance(row_phi[i], dataset.row(i));
            }
            kth_distances.push(*distances.select_nth_unstable_by(kth, f64::total_cmp).1);
            let grad = prepared.gradient().expect("every divergence kind decomposes");
            queries.push((row, grad.to_vec()));
        }
        Ok(SampledUnion { kind, dataset, phi, queries, kth_distances })
    }

    /// The mean fraction of points in the union of the `m` per-subspace
    /// range searches under [`equal_contiguous`], over the sampled queries.
    pub fn fraction(&self, m: usize) -> Result<f64> {
        let n = self.dataset.len();
        let d = self.dataset.dim();
        let partitioning = equal_contiguous(d, m)?;
        let ranges: Vec<Range<usize>> =
            partitioning.subspaces().iter().map(|dims| dims[0]..dims[dims.len() - 1] + 1).collect();
        // Point-major `(α_x, γ_x)`, summed in the order
        // `point_components` sums them, so the radii below are bit-identical
        // to the ones an index built on this partitioning computes.
        let mut tuples = Vec::with_capacity(n * m);
        for i in 0..n {
            let row = self.dataset.row(i);
            let phi = &self.phi[i * d..(i + 1) * d];
            for range in &ranges {
                let (mut alpha, mut gamma) = (0.0, 0.0);
                for j in range.clone() {
                    alpha += phi[j];
                    gamma += row[j] * row[j];
                }
                tuples.push((alpha, gamma));
            }
        }
        let mut next = tuples.iter().copied();
        let transformed = TransformedDataset::from_point_major(n, m, || {
            next.next().ok_or(CoreError::EmptyDataset)
        })?;

        let mut filters = Vec::with_capacity(self.queries.len());
        for (row, grad) in &self.queries {
            let query = TransformedQuery::build(self.kind, self.dataset.row(*row), &partitioning);
            let radii = self.seeded_radii(&transformed, &query, *row)?;
            filters.push((grad, query, radii));
        }
        // Point-major, so each row is read once for all the sampled queries:
        // D_s(x, q) = α_x + α_y + β_yy − ⟨∇φ(q)_s, x_s⟩.
        let mut kept = 0usize;
        for i in 0..n {
            let x = self.dataset.row(i);
            let point = &tuples[i * m..(i + 1) * m];
            kept += filters
                .iter()
                .filter(|(grad, query, radii)| {
                    ranges.iter().enumerate().any(|(s, range)| {
                        let dot = dot_chunked(&grad[range.clone()], &x[range.clone()]);
                        let (alpha_y, beta_yy, _) = query.components(s);
                        point[s].0 + alpha_y + beta_yy - dot <= radii[s]
                    })
                })
                .count();
        }
        Ok(kept as f64 / (n * self.queries.len()) as f64)
    }

    /// The radii sampled row `row` searches with at `k =` [`MODEL_K`]:
    /// [`QueryBounds::search_radii`] scaled by `min(1, r / T)`, where `T` is
    /// Algorithm 4's total and `r` the row's exact `k`-th nearest distance,
    /// the model's estimate of the seeded radius.
    fn seeded_radii(
        &self,
        transformed: &TransformedDataset,
        query: &TransformedQuery,
        row: usize,
    ) -> Result<Vec<f64>> {
        let bounds =
            QueryBounds::determine(transformed, query, MODEL_K).ok_or(CoreError::EmptyDataset)?;
        let sampled = self.queries.iter().position(|&(r, _)| r == row);
        let r = self.kth_distances[sampled.expect("radii are asked of sampled rows")];
        let scale = if r < bounds.total { r / bounds.total } else { 1.0 };
        let mut radii = bounds.search_radii(transformed, query);
        for radius in &mut radii {
            *radius *= scale;
        }
        Ok(radii)
    }
}

/// The measured cost model behind [`crate::PartitionCount::Auto`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    measured: Vec<(usize, f64)>,
    optimum: usize,
}

impl CostModel {
    /// Measure `u(M)` along `M ∈ {1, 2, 4, …} ∪ {d}` with queries sampled
    /// by `seed`, stopping once `M·n` alone reaches the cheapest `T(M)` seen,
    /// and keep the cheapest `M`.
    pub fn fit(kind: DivergenceKind, dataset: &DenseDataset, seed: u64) -> Result<CostModel> {
        let sample = SampledUnion::new(kind, dataset, seed)?;
        let (n, dim) = (dataset.len(), dataset.dim());
        let mut measured = Vec::new();
        let (mut optimum, mut best_cost) = (1, f64::INFINITY);
        for m in partition_grid(dim) {
            if m as f64 * n as f64 >= best_cost {
                break;
            }
            let union = sample.fraction(m)?;
            measured.push((m, union));
            let cost = online_cost(n, dim, m, union);
            if cost < best_cost {
                (optimum, best_cost) = (m, cost);
            }
        }
        Ok(CostModel { measured, optimum })
    }

    /// The optimized number of partitions.
    pub fn optimal_partitions(&self) -> usize {
        self.optimum
    }

    /// The grid values the walk measured, as `(M, u(M))` in increasing `M`.
    pub fn measured(&self) -> &[(usize, f64)] {
        &self.measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BrePartitionConfig;
    use crate::search::BrePartitionIndex;
    use bregman::kernel::KernelScratch;
    use datagen::correlated::CorrelatedSpec;
    use datagen::PaperDataset;

    fn dataset(n: usize, dim: usize) -> DenseDataset {
        CorrelatedSpec { n, dim, blocks: dim / 4, correlation: 0.7, mean: 5.0, scale: 1.0, seed: 5 }
            .generate()
    }

    #[test]
    fn grid_is_powers_of_two_then_the_dimensionality() {
        assert_eq!(partition_grid(1), vec![1]);
        assert_eq!(partition_grid(2), vec![1, 2]);
        assert_eq!(partition_grid(3), vec![1, 2, 3]);
        assert_eq!(partition_grid(8), vec![1, 2, 4, 8]);
        assert_eq!(partition_grid(400), vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 400]);
    }

    #[test]
    fn measured_fractions_are_sane() {
        let ds = dataset(800, 32);
        let model = CostModel::fit(DivergenceKind::ItakuraSaito, &ds, 1).unwrap();
        let measured = model.measured();
        assert_eq!(measured[0].0, 1);
        assert!(measured.windows(2).all(|w| w[0].0 < w[1].0));
        for &(m, union) in measured {
            // Each sampled row is a data point at distance zero from itself.
            assert!(union > 0.0 && union <= 1.0, "u({m}) = {union}");
        }
        let cost = |(m, union): (usize, f64)| online_cost(ds.len(), ds.dim(), m, union);
        let cheapest = measured.iter().copied().map(cost).fold(f64::INFINITY, f64::min);
        let optimum = model.optimal_partitions();
        let at_optimum = measured.iter().copied().find(|&(m, _)| m == optimum).unwrap();
        assert_eq!(cost(at_optimum), cheapest);
    }

    #[test]
    fn optimal_m_is_within_bounds_and_deterministic() {
        let ds = dataset(600, 48);
        let m1 = CostModel::fit(DivergenceKind::ItakuraSaito, &ds, 9).unwrap().optimal_partitions();
        let m2 = CostModel::fit(DivergenceKind::ItakuraSaito, &ds, 9).unwrap().optimal_partitions();
        assert_eq!(m1, m2);
        assert!((1..=48).contains(&m1));
    }

    #[test]
    fn measured_union_matches_a_brute_force_membership_test() {
        let ds = PaperDataset::Fonts.paper_spec().with_points(400).with_dim(24).generate(3);
        let kind = DivergenceKind::ItakuraSaito;
        let sample = SampledUnion::new(kind, &ds, 4).unwrap();
        let mut scratch_x = Vec::new();
        let mut scratch_q = Vec::new();
        for m in [1, 3, 8, 24] {
            let partitioning = equal_contiguous(ds.dim(), m).unwrap();
            let transformed = TransformedDataset::build(kind, &ds, &partitioning);
            let mut kept = 0usize;
            for &(row, _) in &sample.queries {
                let q = ds.row(row);
                let query = TransformedQuery::build(kind, q, &partitioning);
                let radii = sample.seeded_radii(&transformed, &query, row).unwrap();
                kept += (0..ds.len())
                    .filter(|&i| {
                        partitioning.subspaces().iter().enumerate().any(|(s, dims)| {
                            DenseDataset::gather_into(ds.row(i), dims, &mut scratch_x);
                            DenseDataset::gather_into(q, dims, &mut scratch_q);
                            kind.divergence(&scratch_x, &scratch_q) <= radii[s]
                        })
                    })
                    .count();
            }
            let want = kept as f64 / (ds.len() * sample.queries.len()) as f64;
            let got = sample.fraction(m).unwrap();
            assert!((got - want).abs() <= 1e-3, "M = {m}: measured {got}, brute force {want}");
        }
    }

    #[test]
    fn early_stopped_pick_equals_the_full_grid_argmin() {
        let datasets = [PaperDataset::Fonts, PaperDataset::Audio].map(|proxy| {
            let spec = proxy.paper_spec().with_points(900).with_dim(64);
            (spec.divergence, spec.generate(2))
        });
        let mut stopped_early = false;
        for (kind, ds) in &datasets {
            let model = CostModel::fit(*kind, ds, 3).unwrap();
            let sample = SampledUnion::new(*kind, ds, 3).unwrap();
            let grid = partition_grid(ds.dim());
            let mut best = (0, f64::INFINITY);
            for &m in &grid {
                let cost = online_cost(ds.len(), ds.dim(), m, sample.fraction(m).unwrap());
                if cost < best.1 {
                    best = (m, cost);
                }
            }
            assert_eq!(model.optimal_partitions(), best.0, "{kind}");
            stopped_early |= model.measured().len() < grid.len();
        }
        assert!(stopped_early, "the walk never stopped before the end of the grid");
    }

    #[test]
    fn degenerate_inputs_pick_a_valid_m_and_build_an_exact_index() {
        let constant_column: Vec<Vec<f64>> =
            (0..60).map(|i| vec![1.0 + (i % 7) as f64, 3.0, 0.5 + (i % 5) as f64]).collect();
        let cases = [
            ("n = 2", vec![vec![1.0, 2.0, 3.0], vec![2.0, 1.0, 0.5]]),
            ("d = 1", (0..40).map(|i| vec![0.5 + (i % 9) as f64]).collect()),
            ("constant column", constant_column),
            ("all-duplicate rows", vec![vec![2.0, 4.0, 1.0, 0.25]; 30]),
        ];
        let kind = DivergenceKind::ItakuraSaito;
        for (label, rows) in cases {
            let ds = DenseDataset::from_rows(&rows).unwrap();
            let config = BrePartitionConfig::default();
            let m = CostModel::fit(kind, &ds, config.seed).unwrap().optimal_partitions();
            assert!((1..=ds.dim()).contains(&m), "{label}: M = {m}");
            if label == "all-duplicate rows" {
                // Every point is at distance zero from every query, so the
                // union is the whole dataset at every M and only M·n differs.
                assert_eq!(m, 1);
            }
            let index = BrePartitionIndex::build(kind, &ds, &config).unwrap();
            assert_eq!(index.partitions(), m, "{label}");
            let k = 3.min(ds.len());
            for qi in 0..ds.len() {
                let query = ds.row(qi);
                let got = index
                    .knn(
                        &mut index.new_buffer_pool(),
                        &mut KernelScratch::default(),
                        query,
                        k,
                        None,
                    )
                    .unwrap();
                let mut truth: Vec<f64> =
                    (0..ds.len()).map(|i| kind.divergence(ds.row(i), query)).collect();
                truth.sort_by(f64::total_cmp);
                let distances: Vec<f64> = got.neighbors.iter().map(|&(_, d)| d).collect();
                assert_eq!(distances.len(), k, "{label}: query {qi}");
                for (g, t) in distances.iter().zip(&truth) {
                    assert!((g - t).abs() <= 1e-9 * (1.0 + t.abs()), "{label}: query {qi}");
                }
            }
        }
    }

    #[test]
    fn fit_rejects_tiny_datasets() {
        let ds = DenseDataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(CostModel::fit(DivergenceKind::SquaredEuclidean, &ds, 1).is_err());
    }
}
