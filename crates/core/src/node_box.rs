//! Per-node bounding boxes of a subspace tree and the closed-form node test
//! BP's filter runs on them.
//!
//! Every divergence here is a sum of per-coordinate terms
//! `d(x_i, q_i) = φ(x_i) − φ(q_i) − φ′(q_i)(x_i − q_i)`, each convex in `x_i`
//! with its minimum, zero, at `x_i = q_i`. Over a box `[lo, hi]` the sum is
//! therefore smallest coordinate by coordinate at the clamped query:
//!
//! ```text
//! min_{lo ≤ x ≤ hi} D_f(x, q) = Σ_i d(clamp(q_i, lo_i, hi_i), q_i),
//! ```
//!
//! the kd-tree bound of Pham and Wagner. A coordinate whose `q_i` lies in
//! `[lo_i, hi_i]` adds nothing; one outside adds the term at the nearer
//! corner. The table stores `φ` at both corners, and [`BoxQuery`] computes
//! `φ(q_i)` and `φ′(q_i)` once per search, so a node test is pure
//! arithmetic: no transcendental and no bisection.
//!
//! **Why pruning with it is exact.** A node's box is the bit-exact
//! coordinate-wise min and max of its members, so every member lies in it
//! and its divergence is at least the box minimum. The computed bound is
//! lowered by a rounding allowance, `1e-12` times the magnitudes of its
//! terms: `2|φ(q_i)|` for every coordinate, plus `|φ(x_i)| +
//! |φ′(q_i)(x_i − q_i)|` for each coordinate outside the box, with `x_i`
//! the nearer corner. This is the same style of allowance as BBT's covering
//! radii. A node is pruned only when
//! `bound − allowance > radius`, so a bound that evaluates to NaN (a
//! non-finite `φ` at a corner, say) keeps the node.
//!
//! **Cost.** Four `f64` per subspace dimension per node (`lo`, `hi`,
//! `φ(lo)`, `φ(hi)`). The table is derived from the rows when the forest is
//! built or opened, not persisted. `φ` is evaluated only at the leaves: a
//! parent's corner is one of its children's corners, so its `φ` is copied
//! upward with it.

use bbtree::{BBTree, NodeId, NodeKind};
use bregman::DecomposableBregman;

/// Relative rounding allowance on the magnitudes of the bound's terms.
const ALLOWANCE: f64 = 1e-12;

/// The bounding box of every node of one subspace tree, with `φ` at both
/// corners of every coordinate.
#[derive(Debug, Clone)]
pub struct NodeBoxes {
    dim: usize,
    /// One block of `4 · dim` values per node, indexed by node id:
    /// `lo`, then `hi`, then `φ(lo)`, then `φ(hi)`.
    table: Vec<f64>,
}

impl NodeBoxes {
    /// Lower corner of a node's box: the smallest member coordinate in each
    /// dimension.
    pub fn lo(&self, node: NodeId) -> &[f64] {
        &self.block(node)[..self.dim]
    }

    /// Upper corner of a node's box: the largest member coordinate in each
    /// dimension.
    pub fn hi(&self, node: NodeId) -> &[f64] {
        &self.block(node)[self.dim..2 * self.dim]
    }

    fn block(&self, node: NodeId) -> &[f64] {
        let width = 4 * self.dim;
        &self.table[node.index() * width..(node.index() + 1) * width]
    }
}

/// Accumulates the boxes of one tree's leaves from its members' rows, fed
/// in any order, then derives every node's box ([`BoxBuilder::finish`]).
pub(crate) struct BoxBuilder<'a> {
    tree: &'a BBTree,
    /// The row coordinates the tree indexes, in subspace order.
    dims: &'a [usize],
    /// The leaf holding each point id (`u32::MAX` for an id the tree does
    /// not index).
    leaf_of: Vec<u32>,
    table: Vec<f64>,
}

impl<'a> BoxBuilder<'a> {
    /// Empty boxes for `tree`, which indexes the coordinates `dims` of each
    /// row.
    pub(crate) fn new(tree: &'a BBTree, dims: &'a [usize]) -> BoxBuilder<'a> {
        let d = dims.len();
        let mut table = vec![0.0; tree.node_count() * 4 * d];
        for block in table.chunks_exact_mut(4 * d) {
            block[..d].fill(f64::INFINITY);
            block[d..2 * d].fill(f64::NEG_INFINITY);
        }
        let mut leaf_of = vec![u32::MAX; tree.len()];
        for leaf in tree.leaves_in_order() {
            if let NodeKind::Leaf { points } = tree.node(leaf) {
                for pid in points {
                    // A reopened tree's ids come from disk; size by them
                    // rather than trust `len`.
                    if pid.index() >= leaf_of.len() {
                        leaf_of.resize(pid.index() + 1, u32::MAX);
                    }
                    leaf_of[pid.index()] = leaf.0;
                }
            }
        }
        BoxBuilder { tree, dims, leaf_of, table }
    }

    /// Widen the box of the leaf holding point `pid` to cover `row` (the
    /// point's full row; the builder picks out its subspace's coordinates).
    pub(crate) fn add(&mut self, pid: u32, row: &[f64]) {
        let Some(&leaf) = self.leaf_of.get(pid as usize) else { return };
        if leaf == u32::MAX {
            return;
        }
        let d = self.dims.len();
        let block = &mut self.table[leaf as usize * 4 * d..(leaf as usize + 1) * 4 * d];
        let (lo, rest) = block.split_at_mut(d);
        let hi = &mut rest[..d];
        // Selects rather than branches: this loop runs once per coordinate
        // of every row, and its comparisons are unpredictable.
        for ((lo, hi), &j) in lo.iter_mut().zip(hi.iter_mut()).zip(self.dims) {
            let v = row[j];
            *lo = if v < *lo { v } else { *lo };
            *hi = if v > *hi { v } else { *hi };
        }
    }

    /// Every node's box: `φ` at the leaves' corners, then each parent's
    /// corners as the min and max of its children's, with `φ` copied from
    /// the child that supplied the corner.
    pub(crate) fn finish<B: DecomposableBregman>(self, b: &B) -> NodeBoxes {
        let BoxBuilder { tree, dims, mut table, .. } = self;
        let d = dims.len();
        let width = 4 * d;
        for id in children_first(tree) {
            let at = id.index() * width;
            match *tree.node(id) {
                NodeKind::Leaf { .. } => {
                    let block = &mut table[at..at + width];
                    let (corners, phis) = block.split_at_mut(2 * d);
                    for (phi, &x) in phis.iter_mut().zip(corners.iter()) {
                        *phi = b.phi(x);
                    }
                }
                NodeKind::Internal { left, right } => {
                    let (l, r) = (left.index() * width, right.index() * width);
                    for i in 0..d {
                        let (lo, phi_lo) = if table[r + i] < table[l + i] {
                            (table[r + i], table[r + 2 * d + i])
                        } else {
                            (table[l + i], table[l + 2 * d + i])
                        };
                        let (hi, phi_hi) = if table[r + d + i] > table[l + d + i] {
                            (table[r + d + i], table[r + 3 * d + i])
                        } else {
                            (table[l + d + i], table[l + 3 * d + i])
                        };
                        table[at + i] = lo;
                        table[at + d + i] = hi;
                        table[at + 2 * d + i] = phi_lo;
                        table[at + 3 * d + i] = phi_hi;
                    }
                }
            }
        }
        NodeBoxes { dim: d, table }
    }
}

/// Every node of `tree`, each child before its parent (reverse pre-order).
fn children_first(tree: &BBTree) -> Vec<NodeId> {
    let mut pre_order = Vec::with_capacity(tree.node_count());
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        pre_order.push(id);
        if let NodeKind::Internal { left, right } = *tree.node(id) {
            stack.extend([left, right]);
        }
    }
    pre_order.reverse();
    pre_order
}

/// One query's side of the box bound: `(q_i, φ(q_i), φ′(q_i))` per
/// coordinate, computed once per search.
#[derive(Debug, Clone)]
pub struct BoxQuery {
    terms: Vec<[f64; 3]>,
    /// `Σ_i 2|φ(q_i)|`: the allowance's magnitudes when every coordinate
    /// lies inside the box.
    base: f64,
}

impl BoxQuery {
    /// The query side for `query` (a subspace projection of the query).
    pub fn new<B: DecomposableBregman>(b: &B, query: &[f64]) -> BoxQuery {
        let terms: Vec<[f64; 3]> = query.iter().map(|&q| [q, b.phi(q), b.phi_prime(q)]).collect();
        let base = terms.iter().map(|t| 2.0 * t[1].abs()).sum();
        BoxQuery { terms, base }
    }

    /// The box bound of a node and its rounding allowance:
    /// `(Σ_i d(x_i, q_i), 1e-12 · magnitudes)` with `x_i` the query clamped
    /// into the node's box (see the [module docs](self)).
    pub fn bound(&self, boxes: &NodeBoxes, node: NodeId) -> (f64, f64) {
        let d = self.terms.len();
        debug_assert_eq!(d, boxes.dim, "query and boxes differ in dimensionality");
        let block = boxes.block(node);
        let (lo, rest) = block.split_at(d);
        let (hi, rest) = rest.split_at(d);
        let (phi_lo, phi_hi) = rest.split_at(d);
        let mut bound = 0.0;
        let mut magnitude = self.base;
        for (i, &[q, phi_q, grad_q]) in self.terms.iter().enumerate() {
            let below = q < lo[i];
            if !below && q <= hi[i] {
                continue;
            }
            let (x, phi_x) = if below { (lo[i], phi_lo[i]) } else { (hi[i], phi_hi[i]) };
            let linear = grad_q * (x - q);
            bound += phi_x - phi_q - linear;
            magnitude += phi_x.abs() + linear.abs();
        }
        (bound, ALLOWANCE * magnitude)
    }

    /// The node's bound less its allowance, with NaN mapped to −∞: a lower
    /// bound on every member's divergence from the query, by which the
    /// best-first search orders its frontier. A NaN bound sorts first, so
    /// its node is always expanded.
    pub fn key(&self, boxes: &NodeBoxes, node: NodeId) -> f64 {
        let (bound, allowance) = self.bound(boxes, node);
        let key = bound - allowance;
        if key.is_nan() {
            f64::NEG_INFINITY
        } else {
            key
        }
    }

    /// Whether no member of `node` can lie within `radius` of the query:
    /// `key > radius`, which is false for a NaN bound.
    pub fn prunes(&self, boxes: &NodeBoxes, node: NodeId, radius: f64) -> bool {
        self.key(boxes, node) > radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbtree::{BBTreeBuilder, BBTreeConfig};
    use bregman::{DenseDataset, Exponential, ItakuraSaito, SquaredEuclidean};

    /// A one-node, one-dimensional box `[lo, hi]` with the given corner `φ`s.
    fn one_box(lo: f64, hi: f64, phi_lo: f64, phi_hi: f64) -> NodeBoxes {
        NodeBoxes { dim: 1, table: vec![lo, hi, phi_lo, phi_hi] }
    }

    #[test]
    fn a_nan_bound_keeps_the_node() {
        let query = BoxQuery::new(&Exponential, &[0.0]);
        let root = NodeId(0);
        // Control: a finite corner far from the query is pruned.
        let finite = one_box(40.0, 41.0, 40f64.exp(), 41f64.exp());
        assert!(query.prunes(&finite, root, 1.0));
        // The nearer corner's φ is NaN: the bound is NaN and keeps the node.
        let nan = one_box(40.0, 41.0, f64::NAN, 41f64.exp());
        assert!(query.bound(&nan, root).0.is_nan());
        assert_eq!(query.key(&nan, root), f64::NEG_INFINITY);
        assert!(!query.prunes(&nan, root, 1.0));
        // φ overflows to +∞ at both corners (rows beyond 709.78 under the
        // exponential generator): ∞ − ∞ is NaN, so the node is kept too.
        let overflow = one_box(710.0, 711.0, 710f64.exp(), 711f64.exp());
        assert_eq!(query.bound(&overflow, root).0, f64::INFINITY);
        assert_eq!(query.key(&overflow, root), f64::NEG_INFINITY);
        assert!(!query.prunes(&overflow, root, 1.0));
        // Above the box, the upper corner's φ is the one used.
        let above = BoxQuery::new(&Exponential, &[50.0]);
        assert!(above.prunes(&finite, root, 1.0));
        assert!(!above.prunes(&one_box(40.0, 41.0, 40f64.exp(), f64::NAN), root, 1.0));
    }

    #[test]
    fn a_query_inside_the_box_is_never_pruned() {
        let boxes = one_box(1.0, 3.0, 1.0, 9.0);
        for q in [1.0, 2.0, 3.0] {
            let query = BoxQuery::new(&SquaredEuclidean, &[q]);
            assert_eq!(query.bound(&boxes, NodeId(0)).0, 0.0);
            assert!(!query.prunes(&boxes, NodeId(0), 0.0));
        }
    }

    #[test]
    fn corner_phis_copied_upward_are_the_corners_phis() {
        // Every node's φ(lo) and φ(hi) equal φ evaluated at its corners, bit
        // for bit, although only the leaves evaluate φ.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| (0..5).map(|j| 0.5 + ((i * 13 + j * 29) % 97) as f64 / 7.0).collect())
            .collect();
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree = BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(8)).build(&ds);
        let dims: Vec<usize> = (0..5).collect();
        let mut builder = BoxBuilder::new(&tree, &dims);
        for i in 0..ds.len() {
            builder.add(i as u32, ds.row(i));
        }
        let boxes = builder.finish(&ItakuraSaito);
        assert_eq!(boxes.table.len(), tree.node_count() * 4 * 5);
        for id in (0..tree.node_count() as u32).map(NodeId) {
            let block = boxes.block(id);
            for (corner, phi) in block[..10].iter().zip(&block[10..]) {
                assert_eq!(ItakuraSaito.phi(*corner).to_bits(), phi.to_bits(), "node {id:?}");
            }
        }
    }
}
