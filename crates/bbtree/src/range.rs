//! Range-search traversal of a BB-tree with the node test left to the
//! caller.
//!
//! A range query asks for every point `x` with `D_f(x, query) ≤ radius`.
//! The tree is traversed top-down; a node is pruned when the caller's test
//! says no member can lie in the range. Following the paper's cost model,
//! the *candidates* of a range query are all points stored in the leaves
//! that could not be pruned — those are the points whose pages must be
//! fetched from disk — and the exact filtering happens afterwards during
//! refinement. BrePartition's filter supplies a closed-form bounding-box
//! test per node.

use bregman::PointId;

use crate::node::{BBTree, NodeId, NodeKind};
use crate::stats::SearchStats;

impl BBTree {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::Projector;
    use crate::build::{BBTreeBuilder, BBTreeConfig};
    use bregman::{DecomposableBregman, DenseDataset, ItakuraSaito, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> DenseDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.gen_range(0.1..10.0)).collect()).collect();
        DenseDataset::from_rows(&rows).unwrap()
    }

    /// Range candidates under the ball's projection bound as the node test.
    fn ball_candidates<B: DecomposableBregman>(
        tree: &BBTree,
        b: &B,
        query: &[f64],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<PointId> {
        let mut projector = Projector::new(b, query);
        tree.range_leaves(stats, |id| projector.min_divergence(&tree.node(id).ball) <= radius)
    }

    #[test]
    fn candidates_are_a_superset_of_true_results() {
        let ds = random_dataset(300, 4, 21);
        let tree =
            BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(12)).build(&ds);
        let query = vec![2.0, 5.0, 1.0, 3.0];
        let radius = 0.8;
        let mut stats = SearchStats::new();
        let candidates = ball_candidates(&tree, &ItakuraSaito, &query, radius, &mut stats);
        let candidate_set: std::collections::HashSet<_> = candidates.iter().copied().collect();
        let within = ds.iter().filter(|(_, p)| ItakuraSaito.divergence(p, &query) <= radius);
        for (pid, _) in within {
            assert!(candidate_set.contains(&pid), "true result {pid:?} missing from candidates");
        }
    }

    #[test]
    fn a_test_that_passes_every_node_returns_everything() {
        let ds = random_dataset(100, 3, 33);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(10)).build(&ds);
        let mut stats = SearchStats::new();
        let mut got = tree.range_leaves(&mut stats, |_| true);
        got.sort();
        assert_eq!(got, (0..ds.len() as u32).map(PointId).collect::<Vec<_>>());
        assert_eq!(stats.leaves_visited as usize, tree.leaf_count());
        assert_eq!(stats.nodes_visited as usize, tree.node_count());
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
        let candidates = ball_candidates(&tree, &SquaredEuclidean, &[1.0, 1.0], 0.5, &mut stats);
        assert!(!candidates.is_empty());
        assert!((stats.leaves_visited as usize) < tree.leaf_count());
        assert!(candidates.iter().all(|pid| pid.index() < 64));
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let ds = DenseDataset::empty(2).unwrap();
        let tree = BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::default()).build(&ds);
        let mut stats = SearchStats::new();
        assert!(tree.range_leaves(&mut stats, |_| true).is_empty());
    }
}
