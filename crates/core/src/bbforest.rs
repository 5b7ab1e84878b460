//! The BB-forest: one BB-tree per subspace over a shared disk layout
//! (Section 6).
//!
//! After dimensionality partitioning, every subspace gets its own BB-tree
//! built over the projected (low-dimensional) points. The full-resolution
//! points are laid out on the simulated disk **once**, in the leaf order of
//! the first subspace's tree; every other tree stores only point ids that
//! resolve through the shared [`pagestore::DiskLayout`]. Thanks to PCCP the
//! clusters of different subspaces are similar, so the candidates produced
//! by different subspaces tend to live on the same pages and the union of
//! candidates costs few extra page reads — the effect Fig. 10 measures.
//!
//! Every node of every tree is tested by its bounding box: the box bound is
//! the exact minimum of the divergence over the box, in closed form
//! ([`crate::node_box`]). Two searches run on it:
//!
//! * `BBForest::best_first` pops the first tree's nodes in increasing
//!   order of box bound and hands each popped leaf's pages to the caller.
//!   The store is in that tree's leaf order, so a leaf is a short
//!   contiguous run of pages. This is the whole exact search at one
//!   subspace, and the seed at more.
//! * [`BBForest::subspace_candidates`] range-searches one subspace's tree
//!   at a fixed radius: the filter of Algorithm 6 at more than one
//!   subspace, and of the approximate search.
//!
//! The trees are topology only, built by the same Lloyd splits as BBT's
//! ([`BBTreeBuilder::build`]); no covering ball is computed or stored.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use bbtree::{BBTree, BBTreeBuilder, BBTreeConfig, NodeId, NodeKind, SearchStats};
use bregman::{
    DenseDataset, DivergenceKind, Exponential, GeneralizedI, ItakuraSaito, PointId,
    SquaredEuclidean,
};
use pagestore::{PageStore, PageStoreConfig, PageStoreError};

use crate::error::Result;
use crate::node_box::{BoxBuilder, BoxQuery, NodeBoxes};
use crate::partition::Partitioning;

/// Dispatch a block of code over the concrete divergence selected by a
/// [`DivergenceKind`], binding it to `$div`.
macro_rules! with_divergence {
    ($kind:expr, $div:ident, $body:expr) => {
        match $kind {
            DivergenceKind::SquaredEuclidean => {
                let $div = SquaredEuclidean;
                $body
            }
            DivergenceKind::ItakuraSaito => {
                let $div = ItakuraSaito;
                $body
            }
            DivergenceKind::Exponential => {
                let $div = Exponential;
                $body
            }
            DivergenceKind::GeneralizedI => {
                let $div = GeneralizedI;
                $body
            }
        }
    };
}

/// One BB-tree per subspace plus the shared page store for the
/// full-resolution points.
///
/// The page store sits behind an `Arc`, so cloning the forest (or the index
/// that owns it) shares one disk image instead of duplicating the dataset.
#[derive(Debug, Clone)]
pub struct BBForest {
    kind: DivergenceKind,
    trees: Vec<BBTree>,
    store: Arc<PageStore>,
    /// The first and last page holding each leaf of the first tree, indexed
    /// by node id (`[u32::MAX, 0]` for an internal or empty node): what
    /// [`BBForest::best_first`] reads. Derived from the tree and the store
    /// (not persisted), so it is identical after a reopen.
    leaf_pages: Vec<[u32; 2]>,
    /// Per tree, every node's bounding box: what the range search tests.
    /// Derived from the rows (not persisted), so it is identical after a
    /// reopen.
    boxes: Vec<NodeBoxes>,
    /// Seconds spent building the trees and laying out the pages (reported by
    /// the index-construction experiment, Fig. 7).
    build_seconds: f64,
}

impl BBForest {
    /// Build the forest: one tree per subspace over the projected data, and
    /// the shared page store laid out in the first tree's leaf order.
    pub fn build(
        kind: DivergenceKind,
        dataset: &DenseDataset,
        partitioning: &Partitioning,
        tree_config: BBTreeConfig,
        store_config: PageStoreConfig,
    ) -> Result<BBForest> {
        let started = std::time::Instant::now();
        let subspace_data = partitioning.project_dataset(dataset)?;
        let trees: Vec<BBTree> = subspace_data
            .iter()
            .enumerate()
            .map(|(i, sub)| {
                let config =
                    BBTreeConfig { seed: tree_config.seed.wrapping_add(i as u64), ..tree_config };
                with_divergence!(kind, div, BBTreeBuilder::new(div, config).build(sub))
            })
            .collect();
        // Lay the original high-dimensional points out in the first tree's
        // leaf order; all trees share the resulting addresses.
        let order: Vec<u32> = trees
            .first()
            .map(|t| t.points_in_leaf_order().iter().map(|p| p.0).collect())
            .unwrap_or_else(|| (0..dataset.len() as u32).collect());
        let store = PageStore::build_with_order(store_config, dataset.dim(), &order, |pid| {
            dataset.point(PointId(pid))
        });
        let leaf_pages = leaf_page_spans(&trees[0], &store);
        let mut builders = box_builders(&trees, partitioning);
        for pid in 0..dataset.len() {
            let row = dataset.row(pid);
            for builder in &mut builders {
                builder.add(pid as u32, row);
            }
        }
        let boxes = finish_boxes(kind, builders);
        let build_seconds = started.elapsed().as_secs_f64();
        Ok(BBForest { kind, trees, store: Arc::new(store), leaf_pages, boxes, build_seconds })
    }

    /// Reassemble a forest from restored parts (the open-from-disk path).
    /// The node boxes are derived in one pass over the store's rows, which
    /// also hands every `(point id, row)` to `visit_row`, so the caller's own
    /// per-row columns need no second pass. A page that fails its read
    /// aborts the open.
    pub(crate) fn from_parts(
        kind: DivergenceKind,
        partitioning: &Partitioning,
        trees: Vec<BBTree>,
        store: Arc<PageStore>,
        build_seconds: f64,
        visit_row: &mut dyn FnMut(u32, &[f64]),
    ) -> std::result::Result<BBForest, PageStoreError> {
        let leaf_pages = leaf_page_spans(&trees[0], &store);
        let mut builders = box_builders(&trees, partitioning);
        store.for_each_point(&mut |pid, row| {
            for builder in &mut builders {
                builder.add(pid, row);
            }
            visit_row(pid, row);
        })?;
        let boxes = finish_boxes(kind, builders);
        Ok(BBForest { kind, trees, store, leaf_pages, boxes, build_seconds })
    }

    /// The divergence the forest was built for.
    pub fn kind(&self) -> DivergenceKind {
        self.kind
    }

    /// Number of subspace trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The subspace trees.
    pub fn trees(&self) -> &[BBTree] {
        &self.trees
    }

    /// One subspace tree.
    pub fn tree(&self, subspace: usize) -> &BBTree {
        &self.trees[subspace]
    }

    /// The shared page store holding the full-resolution points.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Wall-clock seconds spent building the forest.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// The bounding boxes of one subspace tree's nodes.
    pub fn boxes(&self, subspace: usize) -> &NodeBoxes {
        &self.boxes[subspace]
    }

    /// Range-query candidates of one subspace: the ids of every point stored
    /// in a leaf none of whose ancestors, itself included, the box bound
    /// prunes for `{x : D_f(x, query_sub) ≤ radius}` ([`BoxQuery::prunes`]).
    /// Every point within `radius` is among them.
    pub fn subspace_candidates(
        &self,
        subspace: usize,
        query_sub: &[f64],
        radius: f64,
        stats: &mut SearchStats,
    ) -> Vec<PointId> {
        let boxes = &self.boxes[subspace];
        let query = with_divergence!(self.kind, div, BoxQuery::new(&div, query_sub));
        self.trees[subspace].range_leaves(stats, |id| !query.prunes(boxes, id, radius))
    }

    /// Total number of pages in the shared store.
    pub fn page_count(&self) -> usize {
        self.store.page_count()
    }

    /// Best-first search of the first tree by box bound (the kd-tree search
    /// of Pham and Wagner). A min-heap holds nodes keyed by their box bound
    /// less its rounding allowance ([`BoxQuery::key`]) for `query_sub`, the
    /// query projected onto the first subspace. The search pops the
    /// smallest key and stops once it exceeds the threshold `τ`, which
    /// starts at +∞. A popped internal node pushes those children whose key
    /// does not exceed `τ`. A popped leaf's page span goes to `visit`,
    /// which reads and scores what it has not yet, and returns
    /// `Some(τ)` to go on with that threshold or `None` to stop.
    ///
    /// A NaN bound keys to −∞, so its node is always expanded; a NaN `τ`
    /// never stops the search. Every node whose bound is computed counts as
    /// visited in `stats`, every leaf popped as a leaf visited.
    pub(crate) fn best_first(
        &self,
        query_sub: &[f64],
        stats: &mut SearchStats,
        mut visit: impl FnMut(RangeInclusive<u32>) -> Result<Option<f64>>,
    ) -> Result<()> {
        let tree = &self.trees[0];
        let boxes = &self.boxes[0];
        let query = with_divergence!(self.kind, div, BoxQuery::new(&div, query_sub));
        let mut threshold = f64::INFINITY;
        let root = tree.root();
        let mut frontier = BinaryHeap::from([Frontier { key: query.key(boxes, root), node: root }]);
        stats.nodes_visited += 1;
        while let Some(Frontier { key, node }) = frontier.pop() {
            if key > threshold {
                break;
            }
            match *tree.node(node) {
                NodeKind::Leaf { .. } => {
                    stats.leaves_visited += 1;
                    let [first, last] = self.leaf_pages[node.index()];
                    match visit(first..=last)? {
                        Some(tau) => threshold = tau,
                        None => break,
                    }
                }
                NodeKind::Internal { left, right } => {
                    for child in [left, right] {
                        stats.nodes_visited += 1;
                        let key = query.key(boxes, child);
                        if key > threshold {
                            continue;
                        }
                        frontier.push(Frontier { key, node: child });
                    }
                }
            }
        }
        Ok(())
    }
}

/// A node on [`BBForest::best_first`]'s frontier. The heap's greatest entry
/// is the smallest key (ties by node id), so it pops first.
struct Frontier {
    key: f64,
    node: NodeId,
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.total_cmp(&self.key).then(other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

/// The first and last page holding each leaf of `tree`, indexed by node id.
fn leaf_page_spans(tree: &BBTree, store: &PageStore) -> Vec<[u32; 2]> {
    let mut spans = vec![[u32::MAX, 0]; tree.node_count()];
    for leaf in tree.leaves_in_order() {
        if let NodeKind::Leaf { points } = tree.node(leaf) {
            let span = &mut spans[leaf.index()];
            for address in points.iter().filter_map(|pid| store.address_of(pid.0)) {
                span[0] = span[0].min(address.page.0);
                span[1] = span[1].max(address.page.0);
            }
        }
    }
    spans
}

/// One empty [`BoxBuilder`] per tree, over its subspace's coordinates.
fn box_builders<'a>(trees: &'a [BBTree], partitioning: &'a Partitioning) -> Vec<BoxBuilder<'a>> {
    trees
        .iter()
        .enumerate()
        .map(|(s, tree)| BoxBuilder::new(tree, partitioning.subspace(s)))
        .collect()
}

fn finish_boxes(kind: DivergenceKind, builders: Vec<BoxBuilder<'_>>) -> Vec<NodeBoxes> {
    builders.into_iter().map(|b| with_divergence!(kind, div, b.finish(&div))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::equal::equal_contiguous;
    use crate::partition::pccp::pccp;
    use datagen::correlated::CorrelatedSpec;
    use datagen::PaperDataset;

    fn dataset() -> DenseDataset {
        CorrelatedSpec {
            n: 400,
            dim: 24,
            blocks: 6,
            correlation: 0.8,
            mean: 5.0,
            scale: 1.0,
            seed: 3,
        }
        .generate()
    }

    #[test]
    fn forest_has_one_tree_per_subspace() {
        let ds = dataset();
        let p = equal_contiguous(24, 6).unwrap();
        let forest = BBForest::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &p,
            BBTreeConfig::with_leaf_capacity(16),
            PageStoreConfig::with_page_size(4096),
        )
        .unwrap();
        assert_eq!(forest.len(), 6);
        assert!(!forest.is_empty());
        assert_eq!(forest.kind(), DivergenceKind::ItakuraSaito);
        assert!(forest.build_seconds() >= 0.0);
        for tree in forest.trees() {
            assert_eq!(tree.len(), ds.len());
            assert_eq!(tree.dim(), 4);
        }
    }

    #[test]
    fn shared_store_addresses_every_point_once() {
        let ds = dataset();
        let p = equal_contiguous(24, 4).unwrap();
        let forest = BBForest::build(
            DivergenceKind::Exponential,
            &ds,
            &p,
            BBTreeConfig::with_leaf_capacity(20),
            PageStoreConfig::with_page_size(8192),
        )
        .unwrap();
        assert_eq!(forest.store().point_count(), ds.len());
        assert_eq!(forest.page_count(), forest.store().page_count());
        for pid in 0..ds.len() as u32 {
            assert!(forest.store().address_of(pid).is_some());
        }
    }

    #[test]
    fn subspace_candidates_cover_all_true_range_members() {
        let ds = dataset();
        let p = equal_contiguous(24, 3).unwrap();
        let forest = BBForest::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &p,
            BBTreeConfig::with_leaf_capacity(10),
            PageStoreConfig::with_page_size(4096),
        )
        .unwrap();
        let query = ds.row(11);
        let mut sub_query = Vec::new();
        for s in 0..3 {
            p.project_point_into(s, query, &mut sub_query);
            let radius = 0.6;
            let mut stats = SearchStats::new();
            let candidates: std::collections::HashSet<u32> = forest
                .subspace_candidates(s, &sub_query, radius, &mut stats)
                .iter()
                .map(|p| p.0)
                .collect();
            // Every point whose projected divergence is within the radius
            // must be among the candidates.
            let sub_data = ds.project(p.subspace(s)).unwrap();
            for (pid, sub_point) in sub_data.iter() {
                let d = DivergenceKind::ItakuraSaito.divergence(sub_point, &sub_query);
                if d <= radius {
                    assert!(candidates.contains(&pid.0), "missing candidate {pid}");
                }
            }
        }
    }

    #[test]
    fn first_tree_leaf_points_are_contiguous_on_disk() {
        let ds = dataset();
        let p = equal_contiguous(24, 5).unwrap();
        let forest = BBForest::build(
            DivergenceKind::ItakuraSaito,
            &ds,
            &p,
            BBTreeConfig::with_leaf_capacity(8),
            PageStoreConfig::with_page_size(24 * 8 * 8), // 8 records per page
        )
        .unwrap();
        let first_tree = forest.tree(0);
        for leaf in first_tree.leaves_in_order() {
            if let bbtree::NodeKind::Leaf { points } = first_tree.node(leaf) {
                let pages: std::collections::HashSet<_> = points
                    .iter()
                    .map(|pid| forest.store().address_of(pid.0).unwrap().page)
                    .collect();
                assert!(pages.len() <= 2, "leaf spans {} pages", pages.len());
            }
        }
    }

    #[test]
    fn trees_are_the_topology_bbt_builds_with_the_same_seed() {
        // BP's trees hold no balls, but their children, leaf lists and leaf
        // order are the tree BBT builds over the same subspace and seed.
        let spec = PaperDataset::Fonts.paper_spec().with_points(1_000);
        assert_eq!(spec.divergence, DivergenceKind::ItakuraSaito);
        let ds = spec.generate(7);
        let config = BBTreeConfig::with_leaf_capacity(32);
        let store_config = PageStoreConfig::with_page_size(spec.page_size_bytes);
        for m in [1, 4] {
            let p = pccp(&ds, m, 256, 0xB5EED).unwrap();
            let forest =
                BBForest::build(DivergenceKind::ItakuraSaito, &ds, &p, config, store_config)
                    .unwrap();
            assert_eq!(forest.len(), m);
            for (s, tree) in forest.trees().iter().enumerate() {
                let sub = ds.project(p.subspace(s)).unwrap();
                let seed = BBTreeConfig { seed: config.seed.wrapping_add(s as u64), ..config };
                let bbt = bbtree::DiskBBTree::build(ItakuraSaito, &sub, seed, store_config);
                let case = format!("M = {m}, subspace {s}");
                assert_eq!(tree.node_count(), bbt.tree().node_count(), "{case}");
                assert_eq!(
                    tree.points_in_leaf_order(),
                    bbt.tree().points_in_leaf_order(),
                    "{case}"
                );
                assert_eq!(tree, bbt.tree(), "{case}: children or leaf lists differ");
            }
        }
    }
}
