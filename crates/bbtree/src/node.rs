//! Arena-based BB-tree topology: the children of every node and the point
//! ids of every leaf. BBT and BP both walk it; each keeps its own per-node
//! table beside it (BBT's [`CoveringBalls`](crate::ball::CoveringBalls),
//! BP's bounding boxes).

use bregman::PointId;

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

/// Children of a node: either two subtrees or the point ids of a leaf
/// cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The topology of a BB-tree over a dataset of dimensionality `dim`.
///
/// The tree stores only point *ids*; the coordinates live in the owning
/// dataset (in-memory search) or in a [`pagestore::PageStore`]
/// (disk-resident search via [`crate::DiskBBTree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BBTree {
    pub(crate) nodes: Vec<NodeKind>,
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

    /// A node's children or leaf contents.
    pub fn node(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()]
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, NodeKind::Leaf { .. })).count()
    }

    /// Iterate over the leaves in depth-first (left-to-right) order; this is
    /// the order the BB-forest uses to lay points out on disk.
    pub fn leaves_in_order(&self) -> Vec<NodeId> {
        let mut leaves = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.node(id) {
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
            if let NodeKind::Leaf { points } = &self.node(leaf) {
                out.extend_from_slice(points);
            }
        }
        out
    }

    /// Collect every point id stored beneath a node.
    pub fn collect_points(&self, id: NodeId) -> Vec<PointId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(nid) = stack.pop() {
            match &self.node(nid) {
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
            assert!(matches!(tree.node(l), NodeKind::Leaf { .. }));
        }
    }
}
