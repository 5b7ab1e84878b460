//! Bregman balls, BBT's per-node table of covering balls, and the
//! query-to-ball node test.
//!
//! **Covering balls.** Only BBT builds, stores and reads them
//! ([`CoveringBalls`]); BP tests the same topology by bounding boxes. A
//! node's ball is centred at its members' mean, and its radius is the
//! largest member divergence priced by the kernel
//! `D_f(x, c) = Φ(x) + c_c − ⟨∇φ(c), x⟩`, plus
//! `1e-12·(|Φ(x)| + |c_c| + Σ_j |∇φ(c)_j·x_j|)`: term magnitudes, because
//! the dot product can cancel while its terms' rounding errors do not. So
//! no radius falls below a member's naive
//! [`DecomposableBregman::divergence`], the invariant BBT's exactness needs.
//!
//! Every tree search decides, node by node, whether a ball
//! `B = {x : D_f(x, c) ≤ R}` can hold a point close enough to the query
//! `q`. The exact answer is the Bregman projection of `q` onto `B`:
//! `min_{x ∈ B} D_f(x, q)`. When `q` lies outside `B`, the KKT conditions
//! put the minimiser on the dual geodesic between `q` and `c`, the curve
//!
//! ```text
//! ∇f(x_θ) = (1 − θ) ∇f(q) + θ ∇f(c),   θ ∈ [0, 1],
//! ```
//!
//! which starts at `q` (outside the ball) and ends at `c` (inside it). The
//! node test bisects θ for the point where the curve crosses the ball
//! surface, keeping `lo` outside the ball and `hi` inside, and reports
//! `D_f(x_lo, q)`: a value that never exceeds the true minimum, so pruning
//! with it preserves exactness.
//!
//! The best-first kNN orders its frontier by the bound itself, so its node
//! test runs the full bisection and evaluates `D_f(x_θ, q)` only once, at
//! the end. It computes the query's dual point once per search and writes
//! the centre's dual point and `x_θ` into per-search buffers, so testing a
//! node allocates nothing.

use bregman::kernel::PreparedQuery;
use bregman::vector::mean_of;
use bregman::{DecomposableBregman, DenseDataset, PointId};

use crate::node::{BBTree, NodeId, NodeKind};

/// Relative rounding allowance added to every kernel-priced member
/// divergence when sizing a covering radius (see the module docs).
const RADIUS_ALLOWANCE: f64 = 1e-12;

/// Number of bisection steps used when projecting a query onto a ball
/// surface. 20 halvings shrink the θ interval below 1e-6, far below the
/// tolerance that matters for pruning decisions (the bisection stays on the
/// conservative side of the surface, so fewer steps never break exactness).
const PROJECTION_BISECTION_STEPS: usize = 20;

/// A Bregman ball `{x : D_f(x, center) ≤ radius}`.
#[derive(Debug, Clone, PartialEq)]
pub struct BregmanBall {
    center: Vec<f64>,
    radius: f64,
}

impl BregmanBall {
    /// A ball with the given centre and radius (radius must be ≥ 0).
    pub fn new(center: Vec<f64>, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "ball radius must be non-negative");
        Self { center, radius }
    }

    /// The ball centre.
    pub fn center(&self) -> &[f64] {
        &self.center
    }

    /// The ball radius (a divergence value, not a metric distance).
    pub fn radius(&self) -> f64 {
        self.radius
    }
}

/// The covering ball of every node of one tree, indexed by node id: the
/// per-node table BBT's search tests.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveringBalls(pub(crate) Vec<BregmanBall>);

impl CoveringBalls {
    /// Every node's covering ball over `dataset`, the rows `tree` was built
    /// from, with `phi[i] = Φ(x_i)` as [`bregman::kernel::phi_table`] gives.
    ///
    /// # Panics
    ///
    /// If `phi` does not hold one value per row.
    pub fn build<B: DecomposableBregman>(
        divergence: &B,
        tree: &BBTree,
        dataset: &DenseDataset,
        phi: &[f64],
    ) -> CoveringBalls {
        assert_eq!(phi.len(), dataset.len(), "one Φ(x) per point");
        let mut balls = vec![BregmanBall::new(Vec::new(), 0.0); tree.node_count()];
        members_children_first(tree, tree.root(), &mut |node, ids| {
            balls[node.index()] = covering_ball(divergence, dataset, phi, ids)
        });
        CoveringBalls(balls)
    }

    /// A node's covering ball.
    pub fn ball(&self, node: NodeId) -> &BregmanBall {
        &self.0[node.index()]
    }

    /// Check the covering invariant: the naive
    /// [`DecomposableBregman::divergence`] of every member of every node of
    /// `tree` from the node's centre is at most its radius, with no slack.
    /// Intended for tests; `points` resolves ids to coordinates.
    pub fn validate_covering<B, F>(&self, tree: &BBTree, divergence: &B, mut points: F) -> bool
    where
        B: DecomposableBregman,
        F: FnMut(PointId) -> Vec<f64>,
    {
        (0..tree.node_count() as u32).map(NodeId).all(|id| {
            let ball = self.ball(id);
            let mut members = tree.collect_points(id).into_iter();
            members.all(|pid| divergence.divergence(&points(pid), ball.center()) <= ball.radius())
        })
    }
}

/// Hands `visit` the members of each node under `node`, children first, in
/// ascending id order (the build's splits keep that order, so each ball sums
/// its members as the build handed them over), and returns `node`'s.
fn members_children_first(
    tree: &BBTree,
    node: NodeId,
    visit: &mut dyn FnMut(NodeId, &[PointId]),
) -> Vec<PointId> {
    let members = match tree.node(node) {
        NodeKind::Leaf { points } => points.clone(),
        &NodeKind::Internal { left, right } => {
            let mut members = members_children_first(tree, left, visit);
            members.extend(members_children_first(tree, right, visit));
            members.sort(); // two sorted runs: the stable sort merges them
            members
        }
    };
    visit(node, &members);
    members
}

/// The ball centred at the mean of `ids` whose radius is the largest
/// kernel-priced member divergence plus its rounding allowance; no ids
/// give the zero ball at the domain's anchor.
fn covering_ball<B: DecomposableBregman>(
    divergence: &B,
    dataset: &DenseDataset,
    phi: &[f64],
    ids: &[PointId],
) -> BregmanBall {
    if ids.is_empty() {
        return BregmanBall::new(vec![divergence.domain_anchor(); dataset.dim()], 0.0);
    }
    let center = mean_of(dataset, ids);
    let prepared = PreparedQuery::decompose(divergence, &center);
    let (grad, offset) = (prepared.gradient(), prepared.offset());
    let radius = ids
        .iter()
        .map(|&id| {
            let (x, phi_x) = (dataset.point(id), phi[id.index()]);
            prepared.distance(phi_x, x) + rounding_allowance(phi_x, grad, offset, x)
        })
        .fold(0.0f64, f64::max);
    BregmanBall::new(center, radius)
}

/// [`RADIUS_ALLOWANCE`] times the magnitude of the terms of
/// `D_f(x, c) = Φ(x) + c_c − ⟨∇φ(c), x⟩`, each `∇φ(c)_j·x_j` counted on its
/// own so that a cancelling dot product does not shrink the allowance.
pub(crate) fn rounding_allowance(phi_x: f64, grad: &[f64], offset: f64, x: &[f64]) -> f64 {
    let terms: f64 = grad.iter().zip(x).map(|(g, v)| (g * v).abs()).sum();
    RADIUS_ALLOWANCE * (phi_x.abs() + offset.abs() + terms)
}

/// Per-search scratch for testing one query against many balls.
///
/// Holds the query's dual point, computed once, and buffers for the dual
/// point of the ball under test and for `x_θ`, so
/// [`Projector::min_divergence`] makes no heap allocation.
pub(crate) struct Projector<'a, B: DecomposableBregman> {
    divergence: &'a B,
    query: &'a [f64],
    query_dual: Vec<f64>,
    center_dual: Vec<f64>,
    point: Vec<f64>,
}

impl<'a, B: DecomposableBregman> Projector<'a, B> {
    /// Scratch for one search with `query`.
    pub(crate) fn new(divergence: &'a B, query: &'a [f64]) -> Self {
        Self {
            divergence,
            query,
            query_dual: divergence.gradient(query),
            center_dual: vec![0.0; query.len()],
            point: vec![0.0; query.len()],
        }
    }

    /// kNN node test: the lower bound on `D_f(x, query)` over `ball`, by
    /// the full bisection. The best-first frontier is ordered by this value,
    /// so it has no early accept. An early reject would need
    /// `D_f(x_lo, query)` at every step, one more divergence pass per step;
    /// on Fonts-proxy trees at d = 2, 32 and 400 that cost more than the
    /// rejects saved.
    pub(crate) fn min_divergence(&mut self, ball: &BregmanBall) -> f64 {
        if self.load_center(ball) <= ball.radius {
            return 0.0; // the query may be a ball member
        }
        let b = self.divergence;
        let mut lo = 0.0f64; // invariant: D(x_lo, center) ≥ radius (outside)
        let mut hi = 1.0f64; // invariant: D(x_hi, center) ≤ radius (inside)
        for _ in 0..PROJECTION_BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            self.load_point(mid);
            if b.divergence(&self.point, &ball.center) >= ball.radius {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.load_point(lo);
        b.divergence(&self.point, self.query)
    }

    /// Writes the centre's dual point and returns `D_f(query, center)`, in
    /// one pass over the coordinates.
    fn load_center(&mut self, ball: &BregmanBall) -> f64 {
        let b = self.divergence;
        let mut to_center = 0.0;
        for ((dual, &c), &q) in self.center_dual.iter_mut().zip(&ball.center).zip(self.query) {
            *dual = b.phi_prime(c);
            to_center += b.scalar_divergence(q, c);
        }
        to_center
    }

    /// Writes `x_θ` into the point buffer.
    fn load_point(&mut self, theta: f64) {
        let b = self.divergence;
        let duals = self.query_dual.iter().zip(&self.center_dual);
        for (x, (&dq, &dc)) in self.point.iter_mut().zip(duals) {
            *x = b.phi_prime_inv((1.0 - theta) * dq + theta * dc);
        }
    }
}

/// The allocating full-bisection node test the [`Projector`] replaced,
/// kept as the reference the projector is checked against.
#[cfg(test)]
impl BregmanBall {
    /// Lower bound on `D_f(x, query)` over all `x` in the ball, by the full
    /// 20-step bisection along a [`bregman::GeodesicInterpolator`].
    pub(crate) fn min_divergence_from<B: DecomposableBregman>(&self, b: &B, query: &[f64]) -> f64 {
        let to_center = b.divergence(query, &self.center);
        if to_center <= self.radius {
            return 0.0;
        }
        let mut interp = bregman::GeodesicInterpolator::new(b.clone(), query, &self.center);
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for _ in 0..PROJECTION_BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            let d_center = interp.divergence_to(mid, &self.center);
            if d_center >= self.radius {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        interp.divergence_to(lo, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bregman::{DecomposableBregman, Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn covering_invariant_holds() {
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![(i % 8) as f64, (i / 8) as f64]).collect();
        let ds = bregman::DenseDataset::from_rows(&rows).unwrap();
        let config = crate::BBTreeConfig::with_leaf_capacity(3);
        let tree = crate::BBTreeBuilder::new(SquaredEuclidean, config).build(&ds);
        let phi = bregman::kernel::phi_table(&SquaredEuclidean, &ds);
        let balls = CoveringBalls::build(&SquaredEuclidean, &tree, &ds, &phi);
        assert!(balls.validate_covering(&tree, &SquaredEuclidean, |pid| ds.point(pid).to_vec()));
    }

    #[test]
    fn min_divergence_zero_when_query_inside() {
        let ball = BregmanBall::new(vec![2.0, 2.0], 1.0);
        let query = [2.1, 2.1];
        assert_eq!(ball.min_divergence_from(&SquaredEuclidean, &query), 0.0);
        assert_eq!(Projector::new(&SquaredEuclidean, &query).min_divergence(&ball), 0.0);
    }

    #[test]
    fn min_divergence_matches_euclidean_geometry() {
        // For squared Euclidean the ball is a disk of radius sqrt(R); the
        // projection distance is (|q−c| − sqrt(R))².
        let ball = BregmanBall::new(vec![0.0, 0.0], 1.0);
        let query = [3.0, 4.0]; // |q−c| = 5
        let expected = (5.0f64 - 1.0).powi(2);
        let bound = Projector::new(&SquaredEuclidean, &query).min_divergence(&ball);
        // The bisection is conservative (stays just outside the surface), so
        // the bound approaches the geometric value from below.
        assert!(bound <= expected + 1e-9);
        assert!((bound - expected).abs() < 1e-3, "bound {bound} vs expected {expected}");
    }

    #[test]
    fn min_divergence_is_a_true_lower_bound() {
        // Sample points inside the ball and verify none violates the bound.
        let center = vec![1.5, 2.0, 0.8];
        let radius = 0.4;
        let query = vec![4.0, 0.5, 3.0];

        fn check<B: DecomposableBregman>(b: &B, center: &[f64], radius: f64, query: &[f64]) {
            let ball = BregmanBall::new(center.to_vec(), radius);
            let bound = Projector::new(b, query).min_divergence(&ball);
            // Deterministic grid of perturbations around the centre.
            let offsets = [-0.3, -0.15, 0.0, 0.1, 0.25];
            for &dx in &offsets {
                for &dy in &offsets {
                    for &dz in &offsets {
                        let p = [center[0] + dx, center[1] + dy, center[2] + dz];
                        if p.iter().any(|v| *v <= 0.05) {
                            continue;
                        }
                        if b.divergence(&p, center) <= radius {
                            let d = b.divergence(&p, query);
                            assert!(
                                d + 1e-9 >= bound,
                                "{}: point {:?} in ball has D={} < bound={}",
                                b.name(),
                                p,
                                d,
                                bound
                            );
                        }
                    }
                }
            }
        }
        check(&ItakuraSaito, &center, radius, &query);
        check(&Exponential, &center, radius, &query);
        check(&SquaredEuclidean, &center, radius, &query);
        check(&GeneralizedI, &center, radius, &query);
    }

    #[test]
    fn zero_radius_ball_bound_is_divergence_to_center() {
        let ball = BregmanBall::new(vec![2.0, 3.0], 0.0);
        let q = [1.0, 1.0];
        let bound = Projector::new(&SquaredEuclidean, &q).min_divergence(&ball);
        let exact = SquaredEuclidean.divergence(&[2.0, 3.0], &q);
        assert!(bound <= exact + 1e-9);
        assert!((bound - exact).abs() < 1e-3 * (1.0 + exact));
    }

    /// Random balls and queries at dimensions 1, 2 and 32: the projector's
    /// bound is bit-identical to the full bisection's.
    fn agrees_with_full_bisection<B: DecomposableBregman>(b: &B, lo: f64, hi: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dim in [1usize, 2, 32] {
            for _ in 0..200 {
                let center: Vec<f64> = (0..dim).map(|_| rng.gen_range(lo..hi)).collect();
                let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(lo..hi)).collect();
                let member: Vec<f64> = (0..dim).map(|_| rng.gen_range(lo..hi)).collect();
                let radius = b.divergence(&member, &center) * rng.gen_range(0.0..1.0);
                let ball = BregmanBall::new(center, radius);
                let reference = ball.min_divergence_from(b, &query);
                let bound = Projector::new(b, &query).min_divergence(&ball);
                assert_eq!(bound.to_bits(), reference.to_bits(), "{} d={dim}", b.name());
            }
        }
    }

    #[test]
    fn projector_agrees_with_full_bisection_for_every_divergence() {
        agrees_with_full_bisection(&SquaredEuclidean, -5.0, 5.0, 1);
        agrees_with_full_bisection(&ItakuraSaito, 0.1, 10.0, 2);
        agrees_with_full_bisection(&Exponential, -2.0, 2.0, 3);
        agrees_with_full_bisection(&GeneralizedI, 0.1, 10.0, 4);
    }
}
