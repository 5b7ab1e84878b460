//! BB-tree construction by recursive Bregman 2-means clustering.
//!
//! Following Cayton (ICML 2008), each node is split by a two-cluster Bregman
//! k-means. Because the *right-type* centroid (the minimizer of
//! `Σ_i D_f(x_i, μ)` over `μ`) is the arithmetic mean for every Bregman
//! divergence (Banerjee et al., JMLR 2005), the Lloyd iteration uses plain
//! means regardless of the divergence.
//!
//! Construction runs on the same decomposition as the query path
//! ([`bregman::kernel`]): `D_f(x, c) = Φ(x) + c_c − ⟨∇φ(c), x⟩`, with the
//! centre side (`∇φ(c)`, `c_c`) prepared once per centre and `Φ(x)`
//! tabulated once per build with [`phi_table`], or passed in by a caller
//! that already holds it ([`BBTreeBuilder::build_with_phi`]). No `φ` or
//! `φ′` is evaluated per point, so building is free of per-point
//! transcendentals:
//!
//! * **Assignment is a hyperplane test.** `Φ(x)` cancels between the two
//!   centres, so `D_f(x, c_a) ≤ D_f(x, c_b)` iff
//!   `⟨∇φ(c_b) − ∇φ(c_a), x⟩ ≤ c_{c_b} − c_{c_a}`: the Bregman bisector of
//!   two centres is a hyperplane in `x`, and each Lloyd iteration costs one
//!   dot product per point.
//! * **Covering radii come from the kernel plus an allowance.** A node's
//!   radius is the largest kernel divergence of its members plus
//!   `1e-12·(|Φ(x)| + |c_c| + Σ_j |∇φ(c)_j·x_j|)`. The allowance scales
//!   with the term-magnitude sum rather than with `|⟨∇φ(c), x⟩|` because
//!   the dot product can cancel while its terms' rounding errors do not.
//!   It keeps every radius at or above each member's naive
//!   [`DecomposableBregman::divergence`], the
//!   covering invariant that range-search exactness relies on.

use bregman::kernel::{dot8, phi_table, PreparedQuery};
use bregman::vector::mean_of;
use bregman::{DecomposableBregman, DenseDataset, PointId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::ball::BregmanBall;
use crate::node::{BBTree, Node, NodeId, NodeKind};

/// Relative rounding allowance added to every kernel-priced member
/// divergence when sizing a covering radius (see the module docs).
const RADIUS_ALLOWANCE: f64 = 1e-12;

/// Construction parameters for a BB-tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBTreeConfig {
    /// Maximum number of points per leaf (the paper's leaf capacity `C`).
    pub leaf_capacity: usize,
    /// Maximum Lloyd iterations per split.
    pub max_kmeans_iters: usize,
    /// Seed for the (deterministic) centre initialization.
    pub seed: u64,
}

impl Default for BBTreeConfig {
    fn default() -> Self {
        Self { leaf_capacity: 32, max_kmeans_iters: 16, seed: 0x5EED }
    }
}

impl BBTreeConfig {
    /// A configuration with the given leaf capacity and default remaining
    /// parameters.
    pub fn with_leaf_capacity(leaf_capacity: usize) -> Self {
        Self { leaf_capacity, ..Self::default() }
    }
}

/// Builds [`BBTree`] instances for a fixed divergence.
#[derive(Debug, Clone)]
pub struct BBTreeBuilder<B: DecomposableBregman> {
    divergence: B,
    config: BBTreeConfig,
}

impl<B: DecomposableBregman> BBTreeBuilder<B> {
    /// A builder using `divergence` and `config`.
    pub fn new(divergence: B, config: BBTreeConfig) -> Self {
        Self { divergence, config }
    }

    /// The configuration used by this builder.
    pub fn config(&self) -> BBTreeConfig {
        self.config
    }

    /// Build a tree over every point of `dataset`, tabulating `Φ(x)` with
    /// [`phi_table`].
    pub fn build(&self, dataset: &DenseDataset) -> BBTree {
        self.build_with_phi(dataset, &phi_table(&self.divergence, dataset))
    }

    /// Build a tree over every point of `dataset`, given each point's
    /// generator sum `phi[i] = Φ(x_i)` (what [`phi_table`] returns), for
    /// callers that already hold it. The covering radii are priced from
    /// `phi`, so it must be the dataset's own column.
    ///
    /// # Panics
    ///
    /// If `phi` does not hold one value per point.
    pub fn build_with_phi(&self, dataset: &DenseDataset, phi: &[f64]) -> BBTree {
        assert_eq!(phi.len(), dataset.len(), "one Φ(x) per point");
        let mut nodes: Vec<Node> = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let point_count = dataset.len();
        let root = if point_count == 0 {
            // Degenerate empty tree: a single empty leaf with a zero ball.
            nodes.push(Node {
                ball: BregmanBall::new(vec![self.divergence.domain_anchor(); dataset.dim()], 0.0),
                kind: NodeKind::Leaf { points: Vec::new() },
            });
            NodeId(0)
        } else {
            let ids: Vec<PointId> = (0..point_count).map(PointId::from).collect();
            self.build_recursive(dataset, phi, ids, &mut nodes, &mut rng)
        };
        BBTree {
            nodes,
            root,
            dim: dataset.dim(),
            point_count,
            divergence_name: self.divergence.name().to_string(),
        }
    }

    fn build_recursive(
        &self,
        dataset: &DenseDataset,
        phis: &[f64],
        ids: Vec<PointId>,
        nodes: &mut Vec<Node>,
        rng: &mut ChaCha8Rng,
    ) -> NodeId {
        let ball = self.covering_ball(dataset, phis, &ids);
        if ids.len() <= self.config.leaf_capacity {
            nodes.push(Node { ball, kind: NodeKind::Leaf { points: ids } });
            return NodeId((nodes.len() - 1) as u32);
        }
        let (left_ids, right_ids) = self.split(dataset, &ids, rng);
        if left_ids.is_empty() || right_ids.is_empty() {
            // Clustering collapsed (e.g. all points identical): make a leaf
            // even though it exceeds the nominal capacity.
            nodes.push(Node { ball, kind: NodeKind::Leaf { points: ids } });
            return NodeId((nodes.len() - 1) as u32);
        }
        let left = self.build_recursive(dataset, phis, left_ids, nodes, rng);
        let right = self.build_recursive(dataset, phis, right_ids, nodes, rng);
        nodes.push(Node { ball, kind: NodeKind::Internal { left, right } });
        NodeId((nodes.len() - 1) as u32)
    }

    /// The ball centred at the arithmetic mean of the (non-empty) `ids` whose
    /// radius is the largest member divergence, each priced by the kernel
    /// plus its rounding allowance; `phis` is the build's `Φ(x)` table.
    fn covering_ball(&self, dataset: &DenseDataset, phis: &[f64], ids: &[PointId]) -> BregmanBall {
        let center = mean_of(dataset, ids);
        let prepared = PreparedQuery::decompose(&self.divergence, &center);
        let (grad, offset) = (prepared.gradient(), prepared.offset());
        let radius = ids
            .iter()
            .map(|&id| {
                let x = dataset.point(id);
                let phi_x = phis[id.index()];
                prepared.distance(phi_x, x) + rounding_allowance(phi_x, grad, offset, x)
            })
            .fold(0.0f64, f64::max);
        BregmanBall::new(center, radius)
    }

    /// Bregman 2-means split of `ids` into two non-empty halves (when
    /// possible).
    fn split(
        &self,
        dataset: &DenseDataset,
        ids: &[PointId],
        rng: &mut ChaCha8Rng,
    ) -> (Vec<PointId>, Vec<PointId>) {
        // Initialize with two distinct points sampled from the node.
        let mut candidates: Vec<PointId> = ids.to_vec();
        candidates.shuffle(rng);
        let c0 = dataset.point(candidates[0]).to_vec();
        let mut c1 = None;
        for &cand in candidates.iter().skip(1) {
            if dataset.point(cand) != c0.as_slice() {
                c1 = Some(dataset.point(cand).to_vec());
                break;
            }
        }
        let Some(mut center_b) = c1 else {
            // Every point is identical; no useful split exists.
            return (ids.to_vec(), Vec::new());
        };
        let mut center_a = c0;

        let mut assignment_a: Vec<PointId> = Vec::with_capacity(ids.len());
        let mut assignment_b: Vec<PointId> = Vec::with_capacity(ids.len());
        for _ in 0..self.config.max_kmeans_iters {
            let (new_a, new_b) = assign(&self.divergence, dataset, ids, &center_a, &center_b);
            if new_a.is_empty() || new_b.is_empty() {
                // Keep the previous assignment if this one degenerated.
                if assignment_a.is_empty() && assignment_b.is_empty() {
                    assignment_a = new_a;
                    assignment_b = new_b;
                }
                break;
            }
            let converged = new_a == assignment_a && new_b == assignment_b;
            assignment_a = new_a;
            assignment_b = new_b;
            if converged {
                break;
            }
            center_a = mean_of(dataset, &assignment_a);
            center_b = mean_of(dataset, &assignment_b);
        }
        if assignment_a.is_empty() || assignment_b.is_empty() {
            // Fall back to a balanced split so construction always terminates.
            let mid = ids.len() / 2;
            return (ids[..mid].to_vec(), ids[mid..].to_vec());
        }
        (assignment_a, assignment_b)
    }
}

/// [`RADIUS_ALLOWANCE`] times the magnitude of the terms of
/// `D_f(x, c) = Φ(x) + c_c − ⟨∇φ(c), x⟩`, each `∇φ(c)_j·x_j` counted on its
/// own so that a cancelling dot product does not shrink the allowance.
fn rounding_allowance(phi_x: f64, grad: &[f64], offset: f64, x: &[f64]) -> f64 {
    let terms: f64 = grad.iter().zip(x).map(|(g, v)| (g * v).abs()).sum();
    RADIUS_ALLOWANCE * (phi_x.abs() + offset.abs() + terms)
}

/// One Lloyd assignment step: `ids` split into the points closer to
/// `center_a` (ties included) and those closer to `center_b`, both in
/// `ids` order. The bisector `D_f(x, c_a) = D_f(x, c_b)` is the hyperplane
/// `⟨w, x⟩ = t` with `w = ∇φ(c_b) − ∇φ(c_a)` and `t = c_{c_b} − c_{c_a}`,
/// so each point costs one dot product.
fn assign<B: DecomposableBregman>(
    divergence: &B,
    dataset: &DenseDataset,
    ids: &[PointId],
    center_a: &[f64],
    center_b: &[f64],
) -> (Vec<PointId>, Vec<PointId>) {
    let prepared_a = PreparedQuery::decompose(divergence, center_a);
    let prepared_b = PreparedQuery::decompose(divergence, center_b);
    let normal: Vec<f64> =
        prepared_b.gradient().iter().zip(prepared_a.gradient()).map(|(b, a)| b - a).collect();
    let threshold = prepared_b.offset() - prepared_a.offset();
    ids.iter().copied().partition(|&id| dot8(&normal, dataset.point(id)) <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bregman::{DecomposableBregman, Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::Rng;

    fn clustered_dataset() -> DenseDataset {
        // Two well separated clusters of 16 points each.
        let mut rows = Vec::new();
        for i in 0..16 {
            rows.push(vec![1.0 + (i % 4) as f64 * 0.1, 1.0 + (i / 4) as f64 * 0.1]);
        }
        for i in 0..16 {
            rows.push(vec![10.0 + (i % 4) as f64 * 0.1, 10.0 + (i / 4) as f64 * 0.1]);
        }
        DenseDataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn build_produces_capacity_respecting_leaves() {
        let ds = clustered_dataset();
        let config = BBTreeConfig::with_leaf_capacity(4);
        let tree = BBTreeBuilder::new(SquaredEuclidean, config).build(&ds);
        for id in 0..tree.node_count() {
            if let NodeKind::Leaf { points } = &tree.node(NodeId(id as u32)).kind {
                assert!(points.len() <= 4, "leaf of size {} exceeds capacity", points.len());
            }
        }
    }

    #[test]
    fn first_split_separates_the_two_clusters() {
        let ds = clustered_dataset();
        let config = BBTreeConfig::with_leaf_capacity(16);
        let tree = BBTreeBuilder::new(SquaredEuclidean, config).build(&ds);
        // Root must be internal; its children should each hold one cluster.
        if let NodeKind::Internal { left, right } = &tree.node(tree.root()).kind {
            let left_pts = tree.collect_points(*left);
            let right_pts = tree.collect_points(*right);
            assert_eq!(left_pts.len(), 16);
            assert_eq!(right_pts.len(), 16);
            // Each side must be homogeneous: entirely ids 0..16 or entirely 16..32.
            let homogeneous =
                |pts: &[PointId]| pts.iter().all(|p| p.0 < 16) || pts.iter().all(|p| p.0 >= 16);
            assert!(homogeneous(&left_pts) && homogeneous(&right_pts));
        } else {
            panic!("root should be internal for 32 points with capacity 16");
        }
    }

    #[test]
    fn covering_invariant_for_itakura_saito() {
        let rows: Vec<Vec<f64>> =
            (1..=40).map(|i| vec![i as f64, (41 - i) as f64, 0.5 * i as f64]).collect();
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree = BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(5)).build(&ds);
        assert!(tree.validate_covering(&ItakuraSaito, |pid| ds.point(pid).to_vec()));
        assert_eq!(tree.divergence_name(), ItakuraSaito.name());
    }

    #[test]
    fn identical_points_collapse_to_single_leaf() {
        let rows = vec![vec![2.0, 2.0]; 50];
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree =
            BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::with_leaf_capacity(8)).build(&ds);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.points_in_leaf_order().len(), 50);
    }

    #[test]
    fn empty_dataset_builds_empty_tree() {
        let ds = DenseDataset::empty(3).unwrap();
        let tree = BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::default()).build(&ds);
        assert!(tree.is_empty());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = clustered_dataset();
        let config = BBTreeConfig { leaf_capacity: 4, max_kmeans_iters: 8, seed: 99 };
        let t1 = BBTreeBuilder::new(SquaredEuclidean, config).build(&ds);
        let t2 = BBTreeBuilder::new(SquaredEuclidean, config).build(&ds);
        assert_eq!(t1.points_in_leaf_order(), t2.points_in_leaf_order());
        assert_eq!(t1.node_count(), t2.node_count());
    }

    /// The rounding allowance of `D_f(x, c)`: the band within which the
    /// hyperplane and naive rules may round apart.
    fn allowance_against<B: DecomposableBregman>(b: &B, x: &[f64], c: &[f64]) -> f64 {
        let prepared = PreparedQuery::decompose(b, c);
        rounding_allowance(b.f(x), prepared.gradient(), prepared.offset(), x)
    }

    fn assert_assignment_matches_naive_rule<B: DecomposableBregman>(b: &B, lo: f64, hi: f64) {
        let mut rng = StdRng::seed_from_u64(17);
        for dim in [1usize, 3, 16, 130] {
            let rows: Vec<Vec<f64>> =
                (0..300).map(|_| (0..dim).map(|_| rng.gen_range(lo..hi)).collect()).collect();
            let ds = DenseDataset::from_rows(&rows).unwrap();
            let ids: Vec<PointId> = (0..ds.len()).map(PointId::from).collect();
            for _ in 0..4 {
                // A data point and the mean of a random subset, as in the
                // first and later Lloyd iterations.
                let center_a = ds.point(PointId::from(rng.gen_range(0..ds.len()))).to_vec();
                let subset: Vec<PointId> =
                    ids.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
                let center_b = mean_of(&ds, &subset);
                let (in_a, in_b) = assign(b, &ds, &ids, &center_a, &center_b);
                assert_eq!(in_a.len() + in_b.len(), ids.len());
                assert!(
                    in_a.windows(2).all(|w| w[0] < w[1]) && in_b.windows(2).all(|w| w[0] < w[1])
                );
                let mut decided = 0;
                for &id in &ids {
                    let x = ds.point(id);
                    let (da, db) = (b.divergence(x, &center_a), b.divergence(x, &center_b));
                    let band =
                        allowance_against(b, x, &center_a) + allowance_against(b, x, &center_b);
                    if (da - db).abs() > band {
                        decided += 1;
                        assert_eq!(
                            in_a.binary_search(&id).is_ok(),
                            da <= db,
                            "{} d = {dim}: D_a = {da}, D_b = {db}",
                            b.name()
                        );
                    }
                }
                assert!(decided > ids.len() / 2, "{}: too few decided points", b.name());
            }
        }
    }

    #[test]
    fn hyperplane_assignment_matches_the_naive_rule_for_every_kind() {
        assert_assignment_matches_naive_rule(&SquaredEuclidean, -5.0, 5.0);
        assert_assignment_matches_naive_rule(&ItakuraSaito, 0.05, 20.0);
        assert_assignment_matches_naive_rule(&Exponential, -3.0, 3.0);
        assert_assignment_matches_naive_rule(&GeneralizedI, 0.05, 20.0);
    }
}
