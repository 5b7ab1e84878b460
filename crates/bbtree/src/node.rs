//! Arena-based BB-tree representation.

use bregman::{DecomposableBregman, PointId};

use crate::ball::BregmanBall;

/// Index of a node inside the tree arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Children of a node: either two sub-balls or the point ids of a leaf
/// cluster.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Internal node with two children.
    Internal {
        /// Left child.
        left: NodeId,
        /// Right child.
        right: NodeId,
    },
    /// Leaf node holding the ids of the points in its cluster.
    Leaf {
        /// Point ids in this cluster, in construction order.
        points: Vec<PointId>,
    },
}

/// One node of a BB-tree: a Bregman ball plus its children or leaf contents.
#[derive(Debug, Clone)]
pub struct Node {
    /// The covering Bregman ball of every point below this node.
    pub ball: BregmanBall,
    /// Children or leaf contents.
    pub kind: NodeKind,
}

/// A Bregman ball tree over a dataset of dimensionality `dim`.
///
/// The tree stores only point *ids*; the coordinates live in the owning
/// dataset (in-memory search) or in a [`pagestore::PageStore`]
/// (disk-resident search via [`crate::DiskBBTree`]).
#[derive(Debug, Clone)]
pub struct BBTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) dim: usize,
    pub(crate) point_count: usize,
    pub(crate) divergence_name: String,
}

impl BBTree {
    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.point_count
    }

    /// Whether the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.point_count == 0
    }

    /// Name of the divergence the tree was built for (used to catch
    /// accidental mixing of divergences between build and query time).
    pub fn divergence_name(&self) -> &str {
        &self.divergence_name
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::Leaf { .. })).count()
    }

    /// Iterate over the leaves in depth-first (left-to-right) order; this is
    /// the order the BB-forest uses to lay points out on disk.
    pub fn leaves_in_order(&self) -> Vec<NodeId> {
        let mut leaves = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.node(id).kind {
                NodeKind::Leaf { .. } => leaves.push(id),
                NodeKind::Internal { left, right } => {
                    // Push right first so the left child is processed first.
                    stack.push(*right);
                    stack.push(*left);
                }
            }
        }
        leaves
    }

    /// All point ids in depth-first leaf order.
    pub fn points_in_leaf_order(&self) -> Vec<PointId> {
        let mut out = Vec::with_capacity(self.point_count);
        for leaf in self.leaves_in_order() {
            if let NodeKind::Leaf { points } = &self.node(leaf).kind {
                out.extend_from_slice(points);
            }
        }
        out
    }

    /// Maximum depth of the tree (root = depth 1); an empty tree has depth 0.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut max_depth = 0;
        let mut stack = vec![(self.root, 1usize)];
        while let Some((id, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            if let NodeKind::Internal { left, right } = &self.node(id).kind {
                stack.push((*left, depth + 1));
                stack.push((*right, depth + 1));
            }
        }
        max_depth
    }

    /// Check the structural invariant that every point below a node lies in
    /// the node's ball: the naive [`DecomposableBregman::divergence`] of
    /// each member from the centre is at most the radius, with no slack.
    /// Intended for tests; `points` resolves ids to coordinates.
    pub fn validate_covering<B, F>(&self, divergence: &B, mut points: F) -> bool
    where
        B: DecomposableBregman,
        F: FnMut(PointId) -> Vec<f64>,
    {
        for node_index in 0..self.nodes.len() {
            let node = &self.nodes[node_index];
            let members = self.collect_points(NodeId(node_index as u32));
            for pid in members {
                let coords = points(pid);
                let d = divergence.divergence(&coords, node.ball.center());
                if d > node.ball.radius() {
                    return false;
                }
            }
        }
        true
    }

    /// Collect every point id stored beneath a node.
    pub fn collect_points(&self, id: NodeId) -> Vec<PointId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(nid) = stack.pop() {
            match &self.node(nid).kind {
                NodeKind::Leaf { points } => out.extend_from_slice(points),
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
    use crate::build::{BBTreeBuilder, BBTreeConfig};
    use bregman::{DenseDataset, SquaredEuclidean};

    fn grid_dataset() -> DenseDataset {
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![(i % 8) as f64, (i / 8) as f64]).collect();
        DenseDataset::from_rows(&rows).unwrap()
    }

    fn build_tree(leaf_capacity: usize) -> (BBTree, DenseDataset) {
        let ds = grid_dataset();
        let config = BBTreeConfig { leaf_capacity, ..BBTreeConfig::default() };
        let tree = BBTreeBuilder::new(SquaredEuclidean, config).build(&ds);
        (tree, ds)
    }

    #[test]
    fn basic_shape_invariants() {
        let (tree, ds) = build_tree(4);
        assert_eq!(tree.len(), ds.len());
        assert!(!tree.is_empty());
        assert_eq!(tree.dim(), 2);
        assert!(tree.leaf_count() >= ds.len() / 4);
        assert!(tree.depth() >= 2);
        assert_eq!(tree.divergence_name(), "Squared Euclidean");
        assert!(tree.node_count() >= tree.leaf_count());
    }

    #[test]
    fn leaf_order_contains_every_point_exactly_once() {
        let (tree, ds) = build_tree(4);
        let mut order = tree.points_in_leaf_order();
        assert_eq!(order.len(), ds.len());
        order.sort();
        order.dedup();
        assert_eq!(order.len(), ds.len());
    }

    #[test]
    fn covering_invariant_holds() {
        let (tree, ds) = build_tree(3);
        assert!(tree.validate_covering(&SquaredEuclidean, |pid| ds.point(pid).to_vec()));
    }

    #[test]
    fn collect_points_at_root_is_everything() {
        let (tree, ds) = build_tree(5);
        let mut pts = tree.collect_points(tree.root());
        pts.sort();
        assert_eq!(pts.len(), ds.len());
    }

    #[test]
    fn leaves_in_order_are_all_leaves() {
        let (tree, _) = build_tree(4);
        let leaves = tree.leaves_in_order();
        assert_eq!(leaves.len(), tree.leaf_count());
        for l in leaves {
            assert!(matches!(tree.node(l).kind, NodeKind::Leaf { .. }));
        }
    }
}
