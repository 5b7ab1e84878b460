//! Exact k-nearest-neighbour search by best-first branch-and-bound.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bregman::{DecomposableBregman, DenseDataset, PointId};

use crate::ball::{BregmanBall, Projector};
use crate::node::{BBTree, NodeId, NodeKind};
use crate::stats::SearchStats;

/// Max-heap entry over `(distance, id)` (largest distance at the top), so
/// the heap holds the current k best and its top is the pruning threshold.
#[derive(Debug, Clone, Copy)]
struct HeapNeighbor(PointId, f64);

impl PartialEq for HeapNeighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapNeighbor {}
impl PartialOrd for HeapNeighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNeighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.1.total_cmp(&other.1).then_with(|| self.0.cmp(&other.0))
    }
}

/// Min-heap entry over a node lower bound (smallest bound popped first).
#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    bound: f64,
    node: NodeId,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.node == other.node
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the smallest bound.
        other.bound.total_cmp(&self.bound).then_with(|| other.node.0.cmp(&self.node.0))
    }
}

/// Running top-k accumulator shared by the in-memory, disk-resident and
/// variational searches.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<HeapNeighbor>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// The current pruning threshold: the k-th best distance, or infinity
    /// while fewer than k neighbours have been seen.
    pub(crate) fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map(|n| n.1).unwrap_or(f64::INFINITY)
        }
    }

    pub(crate) fn offer(&mut self, id: PointId, distance: f64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapNeighbor(id, distance));
        } else if distance < self.threshold() {
            self.heap.pop();
            self.heap.push(HeapNeighbor(id, distance));
        }
    }

    pub(crate) fn into_sorted(self) -> Vec<(PointId, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|HeapNeighbor(id, distance)| (id, distance))
            .collect()
    }
}

impl BBTree {
    /// Exact kNN search over an in-memory dataset.
    ///
    /// `dataset` must be the dataset the tree was built over (the tree only
    /// stores point ids). Returns up to `k` neighbours ordered by increasing
    /// divergence `D_f(point, query)`.
    pub fn knn<B: DecomposableBregman>(
        &self,
        divergence: &B,
        dataset: &DenseDataset,
        query: &[f64],
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<(PointId, f64)> {
        // Hoist the query-side transcendentals out of the candidate loop;
        // per-candidate work is then `Φ(x)` (data-side `φ` only) plus one
        // dot product. Disk-resident callers go further and tabulate `Φ`.
        let prepared = divergence.prepare_query(query);
        self.knn_bounded(divergence, query, k, stats, usize::MAX, &mut |points, offer| {
            for &pid in points {
                let coords = dataset.point(pid);
                offer(pid, prepared.distance(divergence.f(coords), coords));
            }
        })
    }

    /// Best-first kNN visiting at most `max_leaves` leaves (exact when
    /// `max_leaves` is `usize::MAX`, approximate otherwise); the shared
    /// skeleton of the in-memory, disk-resident and variational searches.
    ///
    /// `visit_leaf` is called with a leaf's point ids and an *offer*
    /// callback taking `(id, divergence)` pairs. Distances are computed by
    /// the visitor itself — the in-memory search scores one borrowed
    /// coordinate slice at a time through a
    /// [`PreparedQuery`](bregman::kernel::PreparedQuery), the
    /// disk-resident search batches each decoded page group through the
    /// lane-major block kernel — so the traversal skeleton is agnostic to
    /// how (and how many at a time) candidates are scored.
    pub(crate) fn knn_bounded<B, F>(
        &self,
        divergence: &B,
        query: &[f64],
        k: usize,
        stats: &mut SearchStats,
        max_leaves: usize,
        visit_leaf: &mut F,
    ) -> Vec<(PointId, f64)>
    where
        B: DecomposableBregman,
        F: FnMut(&[PointId], &mut dyn FnMut(PointId, f64)),
    {
        let mut projector = Projector::new(divergence, query);
        self.best_first(k, stats, max_leaves, |ball| projector.min_divergence(ball), visit_leaf)
    }

    /// The best-first traversal behind [`BBTree::knn_bounded`];
    /// `lower_bound(ball)` is the node test, the ball's projection bound.
    /// The root, whose bound is taken as 0, and every child tested count
    /// in `stats.nodes_visited`, pruned or not.
    fn best_first<T, F>(
        &self,
        k: usize,
        stats: &mut SearchStats,
        max_leaves: usize,
        mut lower_bound: T,
        visit_leaf: &mut F,
    ) -> Vec<(PointId, f64)>
    where
        T: FnMut(&BregmanBall) -> f64,
        F: FnMut(&[PointId], &mut dyn FnMut(PointId, f64)),
    {
        let mut top = TopK::new(k);
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let mut frontier: BinaryHeap<FrontierEntry> = BinaryHeap::new();
        frontier.push(FrontierEntry { bound: 0.0, node: self.root });
        stats.nodes_visited += 1;
        let mut leaves_visited = 0usize;

        while let Some(entry) = frontier.pop() {
            if entry.bound > top.threshold() {
                break; // best-first: nothing left can improve the result
            }
            match &self.node(entry.node).kind {
                NodeKind::Leaf { points } => {
                    stats.leaves_visited += 1;
                    leaves_visited += 1;
                    visit_leaf(points, &mut |pid, distance| {
                        stats.distance_computations += 1;
                        top.offer(pid, distance);
                    });
                    if leaves_visited >= max_leaves {
                        break;
                    }
                }
                NodeKind::Internal { left, right } => {
                    for child in [*left, *right] {
                        stats.nodes_visited += 1;
                        let bound = lower_bound(&self.node(child).ball);
                        if bound <= top.threshold() {
                            frontier.push(FrontierEntry { bound, node: child });
                        }
                    }
                }
            }
        }
        top.into_sorted()
    }
}

/// Brute-force kNN by linear scan; the reference every index is tested
/// against.
pub fn linear_scan_knn<B: DecomposableBregman>(
    divergence: &B,
    dataset: &DenseDataset,
    query: &[f64],
    k: usize,
) -> Vec<(PointId, f64)> {
    let mut top = TopK::new(k);
    for (id, point) in dataset.iter() {
        top.offer(id, divergence.divergence(point, query));
    }
    top.into_sorted()
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

    fn assert_same_neighbors(a: &[(PointId, f64)], b: &[(PointId, f64)]) {
        assert_eq!(a.len(), b.len());
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()), "distance mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn matches_linear_scan_squared_euclidean() {
        let ds = random_dataset(300, 6, 1);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(8)).build(&ds);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let query: Vec<f64> = (0..6).map(|_| rng.gen_range(0.1..10.0)).collect();
            let mut stats = SearchStats::new();
            let got = tree.knn(&SquaredEuclidean, &ds, &query, 5, &mut stats);
            let expected = linear_scan_knn(&SquaredEuclidean, &ds, &query, 5);
            assert_same_neighbors(&got, &expected);
            assert!(stats.distance_computations <= ds.len() as u64);
        }
    }

    #[test]
    fn matches_linear_scan_itakura_saito_and_exponential() {
        let ds = random_dataset(200, 4, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let query: Vec<f64> = (0..4).map(|_| rng.gen_range(0.5..5.0)).collect();

        let tree_isd =
            BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(10)).build(&ds);
        let mut stats = SearchStats::new();
        let got = tree_isd.knn(&ItakuraSaito, &ds, &query, 7, &mut stats);
        assert_same_neighbors(&got, &linear_scan_knn(&ItakuraSaito, &ds, &query, 7));

        let tree_exp =
            BBTreeBuilder::new(Exponential, BBTreeConfig::with_leaf_capacity(10)).build(&ds);
        let mut stats = SearchStats::new();
        let got = tree_exp.knn(&Exponential, &ds, &query, 7, &mut stats);
        assert_same_neighbors(&got, &linear_scan_knn(&Exponential, &ds, &query, 7));
    }

    /// Seeded trees at subspace dimensions 1, 2 and 32: kNN with the
    /// allocation-free node test returns the neighbours (ids and
    /// bit-identical distances) and visit counts of the allocating
    /// full-bisection node test.
    fn assert_same_as_full_bisection<B: DecomposableBregman>(b: &B, seed: u64) {
        for dim in [1usize, 2, 32] {
            let ds = random_dataset(300, dim, seed + dim as u64);
            let tree =
                BBTreeBuilder::new(b.clone(), BBTreeConfig::with_leaf_capacity(8)).build(&ds);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..4 {
                let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.1..10.0)).collect();
                let prepared = b.prepare_query(&query);
                for k in [1, 10] {
                    let mut stats = SearchStats::new();
                    let got = tree.knn(b, &ds, &query, k, &mut stats);
                    let mut reference_stats = SearchStats::new();
                    let reference = tree.best_first(
                        k,
                        &mut reference_stats,
                        usize::MAX,
                        |ball| ball.min_divergence_from(b, &query),
                        &mut |points, offer| {
                            for &pid in points {
                                let coords = ds.point(pid);
                                offer(pid, prepared.distance(b.f(coords), coords));
                            }
                        },
                    );
                    assert_eq!(got, reference, "{} d={dim} k={k}", b.name());
                    assert_eq!(stats, reference_stats, "{} d={dim} k={k}", b.name());
                }
            }
        }
    }

    #[test]
    fn allocation_free_node_test_matches_full_bisection() {
        assert_same_as_full_bisection(&SquaredEuclidean, 61);
        assert_same_as_full_bisection(&ItakuraSaito, 62);
        assert_same_as_full_bisection(&Exponential, 63);
        assert_same_as_full_bisection(&GeneralizedI, 64);
    }

    /// `nodes_visited` counts node tests: the root plus every child whose
    /// bound was computed, pruned or not, so it is one more than the calls
    /// of the node test.
    #[test]
    fn nodes_visited_counts_every_node_test() {
        let ds = random_dataset(300, 4, 9);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(8)).build(&ds);
        let mut rng = StdRng::seed_from_u64(10);
        let mut pruned_somewhere = false;
        for _ in 0..8 {
            let query: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..10.0)).collect();
            let mut projector = Projector::new(&SquaredEuclidean, &query);
            let (mut calls, mut leaves) = (0u64, 0u64);
            let mut stats = SearchStats::new();
            let got = tree.best_first(
                5,
                &mut stats,
                usize::MAX,
                |ball| {
                    calls += 1;
                    projector.min_divergence(ball)
                },
                &mut |points, offer| {
                    leaves += 1;
                    for &pid in points {
                        offer(pid, SquaredEuclidean.divergence(ds.point(pid), &query));
                    }
                },
            );
            assert_eq!(got.len(), 5);
            assert_eq!(stats.nodes_visited, calls + 1);
            assert_eq!(stats.leaves_visited, leaves);
            pruned_somewhere |= calls + 1 < tree.node_count() as u64;
        }
        assert!(pruned_somewhere, "no query pruned a child; the test shows nothing");
    }

    #[test]
    fn pruning_actually_reduces_work_on_clustered_data() {
        // Clustered data: the search should not touch every point.
        let mut rows = Vec::new();
        for c in 0..8 {
            for i in 0..50 {
                rows.push(vec![
                    100.0 * c as f64 + (i % 7) as f64 * 0.01,
                    100.0 * c as f64 + (i / 7) as f64 * 0.01,
                ]);
            }
        }
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(16)).build(&ds);
        let mut stats = SearchStats::new();
        let got = tree.knn(&SquaredEuclidean, &ds, &[100.0, 100.0], 3, &mut stats);
        assert_eq!(got.len(), 3);
        assert!(
            stats.distance_computations < ds.len() as u64 / 2,
            "expected pruning, computed {} of {} distances",
            stats.distance_computations,
            ds.len()
        );
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let ds = random_dataset(12, 3, 5);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(4)).build(&ds);
        let mut stats = SearchStats::new();
        let got = tree.knn(&SquaredEuclidean, &ds, &[1.0, 1.0, 1.0], 50, &mut stats);
        assert_eq!(got.len(), 12);
        // Results must be sorted by distance.
        for pair in got.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let ds = random_dataset(10, 2, 6);
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(4)).build(&ds);
        let mut stats = SearchStats::new();
        assert!(tree.knn(&SquaredEuclidean, &ds, &[1.0, 1.0], 0, &mut stats).is_empty());

        let empty = DenseDataset::empty(2).unwrap();
        let empty_tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::default()).build(&empty);
        assert!(empty_tree.knn(&SquaredEuclidean, &empty, &[1.0, 1.0], 3, &mut stats).is_empty());
    }

    #[test]
    fn linear_scan_is_sorted_and_deterministic() {
        let ds = random_dataset(64, 3, 8);
        let got = linear_scan_knn(&SquaredEuclidean, &ds, &[5.0, 5.0, 5.0], 10);
        assert_eq!(got.len(), 10);
        for pair in got.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn top_k_threshold_behaviour() {
        let mut top = TopK::new(2);
        assert_eq!(top.threshold(), f64::INFINITY);
        top.offer(PointId(0), 5.0);
        assert_eq!(top.threshold(), f64::INFINITY);
        top.offer(PointId(1), 3.0);
        assert_eq!(top.threshold(), 5.0);
        top.offer(PointId(2), 1.0);
        assert_eq!(top.threshold(), 3.0);
        let sorted = top.into_sorted();
        assert_eq!(sorted, vec![(PointId(2), 1.0), (PointId(1), 3.0)]);
    }
}
