//! Bregman range search (Cayton, NeurIPS 2009).
//!
//! A range query asks for every point `x` with `D_f(x, query) ≤ radius`.
//! The tree is traversed top-down; a node is pruned when the Bregman
//! projection bound of its ball exceeds the radius. Following the paper's
//! cost model, the *candidates* of a range query are all points stored in
//! the leaves that could not be pruned — those are the points whose pages
//! must be fetched from disk — and the exact filtering happens afterwards
//! during refinement.
//!
//! The node test only needs the *decision* "bound ≤ radius", not the bound
//! itself, so it stops bisecting as soon as the decision is known. Along the
//! dual geodesic from the query (θ = 0) to the ball centre (θ = 1),
//! `d/dθ D_f(x_θ, query) = θ · vᵀ ∇²f(x_θ)⁻¹ v ≥ 0` with
//! `v = ∇f(centre) − ∇f(query)`, so `D_f(x_θ, query)` never decreases in θ.
//! An outside iterate `x_lo` with `D_f(x_lo, query) > radius` therefore
//! proves the full bisection's bound exceeds the radius (prune), and an
//! inside iterate `x_hi` with `D_f(x_hi, query) ≤ radius` is a ball member
//! inside the range (descend). Both exits give the full bisection's
//! decision, so candidate sets and visit counts are the full bisection's;
//! the proof and the allocation-free step are in [`crate::ball`].

use bregman::{DecomposableBregman, DenseDataset, PointId};

use crate::ball::Projector;
use crate::node::{BBTree, NodeId, NodeKind};
use crate::stats::SearchStats;

impl BBTree {
    /// Candidate point ids for a range query: every point in a leaf whose
    /// ball intersects `{x : D_f(x, query) ≤ radius}`.
    pub fn range_candidates<B: DecomposableBregman>(
        &self,
        divergence: &B,
        query: &[f64],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<PointId> {
        let mut projector = Projector::new(divergence, query);
        self.range_leaves(stats, |id| projector.intersects_range(&self.node(id).ball, radius))
    }

    /// The points of every leaf that passes `intersects`, visiting children
    /// only of nodes that pass it: the traversal of a range search with the
    /// node test left to the caller. Every node tested counts as visited in
    /// `stats`, every leaf that passes as a leaf visited.
    pub fn range_leaves(
        &self,
        stats: &mut SearchStats,
        mut intersects: impl FnMut(NodeId) -> bool,
    ) -> Vec<PointId> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            stats.nodes_visited += 1;
            if !intersects(id) {
                continue;
            }
            match &self.node(id).kind {
                NodeKind::Leaf { points } => {
                    stats.leaves_visited += 1;
                    out.extend_from_slice(points);
                }
                NodeKind::Internal { left, right } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        out
    }

    /// Exact range query over an in-memory dataset: candidates are refined by
    /// computing the actual divergence. Returns `(id, divergence)` pairs in
    /// ascending divergence order.
    pub fn range_query_exact<B: DecomposableBregman>(
        &self,
        divergence: &B,
        dataset: &DenseDataset,
        query: &[f64],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<(PointId, f64)> {
        let candidates = self.range_candidates(divergence, query, radius, stats);
        let mut out = Vec::new();
        for pid in candidates {
            stats.candidates_examined += 1;
            stats.distance_computations += 1;
            let d = divergence.divergence(dataset.point(pid), query);
            if d <= radius {
                out.push((pid, d));
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Brute-force range query by linear scan (test oracle).
pub fn linear_scan_range<B: DecomposableBregman>(
    divergence: &B,
    dataset: &DenseDataset,
    query: &[f64],
    radius: f64,
) -> Vec<(PointId, f64)> {
    let mut out = Vec::new();
    for (id, point) in dataset.iter() {
        let d = divergence.divergence(point, query);
        if d <= radius {
            out.push((id, d));
        }
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BBTreeBuilder, BBTreeConfig};
    use bregman::{Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> DenseDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.gen_range(0.1..10.0)).collect()).collect();
        DenseDataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn exact_range_matches_linear_scan() {
        let ds = random_dataset(400, 5, 11);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(16)).build(&ds);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..8 {
            let query: Vec<f64> = (0..5).map(|_| rng.gen_range(0.1..10.0)).collect();
            let radius = rng.gen_range(1.0..40.0);
            let mut stats = SearchStats::new();
            let got = tree.range_query_exact(&SquaredEuclidean, &ds, &query, radius, &mut stats);
            let expected = linear_scan_range(&SquaredEuclidean, &ds, &query, radius);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.0, e.0);
            }
        }
    }

    fn assert_exact_against_linear_scan<B: DecomposableBregman>(b: &B, seed: u64) {
        let ds = random_dataset(300, 4, seed);
        let tree = BBTreeBuilder::new(b.clone(), BBTreeConfig::with_leaf_capacity(12)).build(&ds);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        for _ in 0..8 {
            let query: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..10.0)).collect();
            // The divergence of a point of random rank, so the range holds
            // some points and misses others.
            let mut all: Vec<f64> = ds.iter().map(|(_, p)| b.divergence(p, &query)).collect();
            all.sort_by(f64::total_cmp);
            let radius = all[rng.gen_range(1..ds.len() / 2)];
            let mut stats = SearchStats::new();
            let got = tree.range_query_exact(b, &ds, &query, radius, &mut stats);
            let expected = linear_scan_range(b, &ds, &query, radius);
            assert!(!expected.is_empty());
            assert_eq!(got, expected, "{} radius {radius}", b.name());
        }
    }

    #[test]
    fn exact_range_matches_linear_scan_for_exponential_and_generalized_i() {
        assert_exact_against_linear_scan(&Exponential, 41);
        assert_exact_against_linear_scan(&GeneralizedI, 42);
    }

    /// Seeded trees at subspace dimensions 1, 2 and 32, and for every node
    /// radii exactly at, one ulp above and one ulp below its full-bisection
    /// bound: the early-exit node test yields the same candidates, in the
    /// same order, with the same visit counts, as the full bisection.
    fn assert_same_as_full_bisection<B: DecomposableBregman>(b: &B, seed: u64) {
        for dim in [1usize, 2, 32] {
            let ds = random_dataset(200, dim, seed + dim as u64);
            let tree =
                BBTreeBuilder::new(b.clone(), BBTreeConfig::with_leaf_capacity(8)).build(&ds);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..2 {
                let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..10.0)).collect();
                let mut bounds: Vec<f64> =
                    tree.nodes.iter().map(|n| n.ball.min_divergence_from(b, &query)).collect();
                bounds.sort_by(f64::total_cmp);
                bounds.dedup();
                for radius in bounds.iter().flat_map(|&r| [r, r.next_up(), r.next_down()]) {
                    let mut stats = SearchStats::new();
                    let got = tree.range_candidates(b, &query, radius, &mut stats);
                    let mut reference_stats = SearchStats::new();
                    let reference = tree.range_leaves(&mut reference_stats, |id| {
                        tree.node(id).ball.intersects_range(b, &query, radius)
                    });
                    assert_eq!(got, reference, "{} d={dim} radius {radius}", b.name());
                    assert_eq!(stats, reference_stats, "{} d={dim} radius {radius}", b.name());
                }
            }
        }
    }

    #[test]
    fn early_exit_node_test_matches_full_bisection() {
        assert_same_as_full_bisection(&SquaredEuclidean, 51);
        assert_same_as_full_bisection(&ItakuraSaito, 52);
        assert_same_as_full_bisection(&Exponential, 53);
        assert_same_as_full_bisection(&GeneralizedI, 54);
    }

    #[test]
    fn candidates_are_a_superset_of_true_results() {
        let ds = random_dataset(300, 4, 21);
        let tree =
            BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(12)).build(&ds);
        let query = vec![2.0, 5.0, 1.0, 3.0];
        let radius = 0.8;
        let mut stats = SearchStats::new();
        let candidates = tree.range_candidates(&ItakuraSaito, &query, radius, &mut stats);
        let truth = linear_scan_range(&ItakuraSaito, &ds, &query, radius);
        let candidate_set: std::collections::HashSet<_> = candidates.iter().copied().collect();
        for (pid, _) in truth {
            assert!(candidate_set.contains(&pid), "true result {pid:?} missing from candidates");
        }
    }

    #[test]
    fn zero_radius_returns_only_exact_duplicates() {
        let mut rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 + 1.0, 2.0]).collect();
        rows.push(vec![7.0, 2.0]); // duplicate of index 6
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(8)).build(&ds);
        let mut stats = SearchStats::new();
        let got = tree.range_query_exact(&SquaredEuclidean, &ds, &[7.0, 2.0], 0.0, &mut stats);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(_, d)| *d == 0.0));
    }

    #[test]
    fn huge_radius_returns_everything_and_prunes_nothing() {
        let ds = random_dataset(100, 3, 33);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(10)).build(&ds);
        let mut stats = SearchStats::new();
        let got =
            tree.range_query_exact(&SquaredEuclidean, &ds, &[5.0, 5.0, 5.0], 1e12, &mut stats);
        assert_eq!(got.len(), ds.len());
        assert_eq!(stats.leaves_visited as usize, tree.leaf_count());
    }

    #[test]
    fn pruning_skips_leaves_for_tight_ranges() {
        // Two distant clusters; a tight range around one must not visit the
        // other cluster's leaves.
        let mut rows = Vec::new();
        for i in 0..64 {
            rows.push(vec![1.0 + (i % 8) as f64 * 0.01, 1.0 + (i / 8) as f64 * 0.01]);
        }
        for i in 0..64 {
            rows.push(vec![500.0 + (i % 8) as f64 * 0.01, 500.0 + (i / 8) as f64 * 0.01]);
        }
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(8)).build(&ds);
        let mut stats = SearchStats::new();
        let candidates = tree.range_candidates(&SquaredEuclidean, &[1.0, 1.0], 0.5, &mut stats);
        assert!(!candidates.is_empty());
        assert!((stats.leaves_visited as usize) < tree.leaf_count());
        assert!(candidates.iter().all(|pid| pid.index() < 64));
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let ds = DenseDataset::empty(2).unwrap();
        let tree = BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::default()).build(&ds);
        let mut stats = SearchStats::new();
        assert!(tree.range_candidates(&SquaredEuclidean, &[1.0, 1.0], 10.0, &mut stats).is_empty());
    }
}
