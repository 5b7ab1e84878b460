//! BB-tree serialization: the in-memory tree structure (balls, children,
//! leaf point ids) as a sealed binary artifact.
//!
//! The tree structure is the part of a disk-resident BB-tree that lives in
//! memory at query time; persisting it (alongside the page file holding the
//! data points) is what makes the build-once/open-many lifecycle possible.
//!
//! # Format (`BREPTRE1`, version 1)
//!
//! A sealed envelope (see [`pagestore::format`]) whose payload is:
//!
//! ```text
//! dim             u64
//! point_count     u64
//! divergence_name length-prefixed UTF-8 string
//! root            u32 (node id)
//! node_count      u64, then per node:
//!   center        length-prefixed f64 sequence
//!   radius        f64
//!   kind          u8 — 0 = internal, 1 = leaf
//!     internal:   left u32, right u32
//!     leaf:       length-prefixed u32 sequence of point ids
//! ```
//!
//! Decoding validates the structure before handing the tree back: node
//! references in range, every node reachable from the root exactly once (no
//! cycles, no shared subtrees, no orphaned leaves), every point id stored in
//! exactly one leaf, and the leaf population equal to `point_count` — so a
//! corrupted artifact is rejected instead of producing a tree that loops,
//! panics or silently hides points during search.

use bregman::PointId;
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError, PersistResult};

use crate::ball::BregmanBall;
use crate::node::{BBTree, Node, NodeId, NodeKind};

/// Magic tag of a serialized BB-tree.
pub const TREE_MAGIC: [u8; 8] = *b"BREPTRE1";

/// Format version this build writes and reads.
pub const TREE_VERSION: u32 = 1;

impl BBTree {
    /// Serialize the tree structure into a sealed byte artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.dim as u64);
        w.put_u64(self.point_count as u64);
        w.put_str(&self.divergence_name);
        w.put_u32(self.root.0);
        w.put_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            w.put_f64_seq(node.ball.center());
            w.put_f64(node.ball.radius());
            match &node.kind {
                NodeKind::Internal { left, right } => {
                    w.put_u8(0);
                    w.put_u32(left.0);
                    w.put_u32(right.0);
                }
                NodeKind::Leaf { points } => {
                    w.put_u8(1);
                    let ids: Vec<u32> = points.iter().map(|p| p.0).collect();
                    w.put_u32_seq(&ids);
                }
            }
        }
        seal(&TREE_MAGIC, TREE_VERSION, &w.into_vec())
    }

    /// Decode a tree serialized with [`BBTree::to_bytes`], validating the
    /// envelope and the structural invariants.
    pub fn from_bytes(data: &[u8]) -> PersistResult<BBTree> {
        let payload = unseal(&TREE_MAGIC, TREE_VERSION, data)?;
        let mut r = ByteReader::new(payload);
        let dim = r.take_usize()?;
        let point_count = r.take_usize()?;
        let divergence_name = r.take_str()?;
        let root = NodeId(r.take_u32()?);
        let node_count = r.take_usize()?;
        let mut nodes = Vec::with_capacity(node_count.min(1 << 22));
        let mut leaf_population = 0usize;
        let mut seen_points = std::collections::HashSet::new();
        for index in 0..node_count {
            let center = r.take_f64_seq()?;
            if center.len() != dim {
                return Err(PersistError::Corrupt(format!(
                    "node {index}: ball centre has {} dimensions, tree is {dim}-dimensional",
                    center.len()
                )));
            }
            let radius = r.take_f64()?;
            if radius.is_nan() || radius < 0.0 {
                return Err(PersistError::Corrupt(format!(
                    "node {index}: negative or NaN ball radius {radius}"
                )));
            }
            let kind = match r.take_u8()? {
                0 => {
                    NodeKind::Internal { left: NodeId(r.take_u32()?), right: NodeId(r.take_u32()?) }
                }
                1 => {
                    let ids = r.take_u32_seq()?;
                    for &id in &ids {
                        if !seen_points.insert(id) {
                            return Err(PersistError::Corrupt(format!(
                                "point id {id} stored in more than one leaf"
                            )));
                        }
                    }
                    leaf_population += ids.len();
                    NodeKind::Leaf { points: ids.into_iter().map(PointId).collect() }
                }
                tag => {
                    return Err(PersistError::Corrupt(format!(
                        "node {index}: unknown node kind tag {tag}"
                    )))
                }
            };
            nodes.push(Node { ball: BregmanBall::new(center, radius), kind });
        }
        r.expect_end()?;
        if nodes.is_empty() {
            return Err(PersistError::Corrupt("tree holds no nodes".into()));
        }
        if root.index() >= nodes.len() {
            return Err(PersistError::Corrupt(format!(
                "root {} out of range for {} nodes",
                root.0,
                nodes.len()
            )));
        }
        for (index, node) in nodes.iter().enumerate() {
            if let NodeKind::Internal { left, right } = &node.kind {
                if left.index() >= nodes.len() || right.index() >= nodes.len() {
                    return Err(PersistError::Corrupt(format!(
                        "node {index}: child reference out of range"
                    )));
                }
            }
        }
        if leaf_population != point_count {
            return Err(PersistError::Corrupt(format!(
                "leaves hold {leaf_population} points, header says {point_count}"
            )));
        }
        // Every node must be reachable from the root exactly once: a cycle
        // or shared subtree would make searches loop or double-count, and an
        // unreachable leaf would silently hide points from every traversal.
        let mut visited = vec![false; nodes.len()];
        let mut visited_count = 0usize;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let slot = &mut visited[id.index()];
            if *slot {
                return Err(PersistError::Corrupt(format!(
                    "node {} is reachable more than once (cycle or shared subtree)",
                    id.0
                )));
            }
            *slot = true;
            visited_count += 1;
            if let NodeKind::Internal { left, right } = &nodes[id.index()].kind {
                stack.push(*left);
                stack.push(*right);
            }
        }
        if visited_count != nodes.len() {
            return Err(PersistError::Corrupt(format!(
                "{} of {} nodes unreachable from the root",
                nodes.len() - visited_count,
                nodes.len()
            )));
        }
        Ok(BBTree { nodes, root, dim, point_count, divergence_name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BBTreeBuilder, BBTreeConfig};
    use bregman::{DenseDataset, ItakuraSaito, SquaredEuclidean};

    fn sample_tree() -> (BBTree, DenseDataset) {
        let rows: Vec<Vec<f64>> =
            (1..=48).map(|i| vec![i as f64, (49 - i) as f64, 0.25 * i as f64]).collect();
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let tree = BBTreeBuilder::new(ItakuraSaito, BBTreeConfig::with_leaf_capacity(5)).build(&ds);
        (tree, ds)
    }

    #[test]
    fn roundtrip_preserves_structure_and_search_behavior() {
        let (tree, ds) = sample_tree();
        let restored = BBTree::from_bytes(&tree.to_bytes()).unwrap();
        assert_eq!(restored.dim(), tree.dim());
        assert_eq!(restored.len(), tree.len());
        assert_eq!(restored.node_count(), tree.node_count());
        assert_eq!(restored.leaf_count(), tree.leaf_count());
        assert_eq!(restored.divergence_name(), tree.divergence_name());
        assert_eq!(restored.points_in_leaf_order(), tree.points_in_leaf_order());
        assert!(restored.validate_covering(&ItakuraSaito, |pid| ds.point(pid).to_vec()));
        // Identical kNN answers and traversals on both trees.
        let mut s1 = crate::stats::SearchStats::new();
        let mut s2 = crate::stats::SearchStats::new();
        let query = ds.point(bregman::PointId(7));
        let a = tree.knn(&ItakuraSaito, &ds, query, 5, &mut s1);
        let b = restored.knn(&ItakuraSaito, &ds, query, 5, &mut s2);
        assert_eq!(a, b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn empty_tree_roundtrips() {
        let ds = DenseDataset::empty(2).unwrap();
        let tree = BBTreeBuilder::new(SquaredEuclidean, BBTreeConfig::default()).build(&ds);
        let restored = BBTree::from_bytes(&tree.to_bytes()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.node_count(), 1);
    }

    #[test]
    fn corruption_is_detected() {
        let (tree, _) = sample_tree();
        let bytes = tree.to_bytes();
        // Checksum catches payload bit flips.
        let mut flipped = bytes.clone();
        let middle = flipped.len() / 2;
        flipped[middle] ^= 0xFF;
        assert!(BBTree::from_bytes(&flipped).is_err());
        // Truncation is rejected.
        assert!(BBTree::from_bytes(&bytes[..bytes.len() - 4]).is_err());
        // Wrong artifact type is rejected.
        let sealed = seal(b"BREPPGS1", 1, b"not a tree");
        assert!(matches!(BBTree::from_bytes(&sealed), Err(PersistError::BadMagic { .. })));
    }

    #[test]
    fn cyclic_and_duplicate_point_structures_are_rejected() {
        // Node 0 is internal and references itself: the reachability walk
        // must flag the cycle instead of letting searches loop forever.
        let mut w = ByteWriter::new();
        w.put_u64(1); // dim
        w.put_u64(0); // point_count
        w.put_str("Test");
        w.put_u32(0); // root
        w.put_u64(2); // two nodes
        w.put_f64_seq(&[0.0]); // node 0: internal, left = itself
        w.put_f64(0.0);
        w.put_u8(0);
        w.put_u32(0);
        w.put_u32(1);
        w.put_f64_seq(&[0.0]); // node 1: empty leaf
        w.put_f64(0.0);
        w.put_u8(1);
        w.put_u32_seq(&[]);
        let sealed = seal(&TREE_MAGIC, TREE_VERSION, &w.into_vec());
        match BBTree::from_bytes(&sealed) {
            Err(PersistError::Corrupt(message)) => {
                assert!(message.contains("reachable more than once"), "{message}")
            }
            other => panic!("expected cycle rejection, got {other:?}"),
        }

        // The same point id in two leaves must be rejected.
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        w.put_str("Test");
        w.put_u32(2); // root = internal node
        w.put_u64(3);
        for _ in 0..2 {
            w.put_f64_seq(&[0.0]); // leaf holding point 7
            w.put_f64(0.0);
            w.put_u8(1);
            w.put_u32_seq(&[7]);
        }
        w.put_f64_seq(&[0.0]); // internal root
        w.put_f64(0.0);
        w.put_u8(0);
        w.put_u32(0);
        w.put_u32(1);
        let sealed = seal(&TREE_MAGIC, TREE_VERSION, &w.into_vec());
        match BBTree::from_bytes(&sealed) {
            Err(PersistError::Corrupt(message)) => {
                assert!(message.contains("more than one leaf"), "{message}")
            }
            other => panic!("expected duplicate-point rejection, got {other:?}"),
        }
    }

    #[test]
    fn structural_validation_rejects_bad_references() {
        // Hand-craft a payload with an out-of-range root.
        let mut w = ByteWriter::new();
        w.put_u64(1); // dim
        w.put_u64(0); // point_count
        w.put_str("Test");
        w.put_u32(5); // root out of range
        w.put_u64(1); // one node
        w.put_f64_seq(&[0.0]);
        w.put_f64(0.0);
        w.put_u8(1);
        w.put_u32_seq(&[]);
        let sealed = seal(&TREE_MAGIC, TREE_VERSION, &w.into_vec());
        assert!(matches!(BBTree::from_bytes(&sealed), Err(PersistError::Corrupt(_))));
    }
}
