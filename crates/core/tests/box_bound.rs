//! Strict box bounds: for every decomposable divergence, on random data, the
//! Fonts and Sift proxies and data built to stress the rounding allowance
//! (duplicates, one-ulp neighbours, large magnitudes, one dimension, one
//! point),
//!
//! * (a) every member lies inside its node's box, and the box is the
//!   bit-exact coordinate-wise min and max of the members;
//! * (b) for random queries, `bound − allowance` never exceeds the naive
//!   `DecomposableBregman::divergence` of any member of the node;
//! * (c) `BBForest::subspace_candidates` holds every point within the
//!   radius, at one and at three partitions.

use bbtree::{BBTreeConfig, NodeId, NodeKind, SearchStats};
use bregman::{
    DecomposableBregman, DenseDataset, DivergenceKind, Exponential, GeneralizedI, ItakuraSaito,
    SquaredEuclidean,
};
use brepartition_core::partition::pccp::pccp;
use brepartition_core::{BBForest, BoxQuery, TransformedDataset};
use datagen::proxies::PaperDataset;
use pagestore::PageStoreConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn forest(kind: DivergenceKind, ds: &DenseDataset, m: usize, leaf: usize) -> BBForest {
    let p = pccp(ds, m, 256, 0xB0C5).unwrap();
    BBForest::build(
        kind,
        ds,
        &p,
        &TransformedDataset::build(kind, ds, &p),
        BBTreeConfig { leaf_capacity: leaf, ..BBTreeConfig::default() },
        PageStoreConfig::with_page_size(4096.max(ds.dim() * 8 * 4)),
    )
    .unwrap()
}

/// The member ids below every node of `tree`, indexed by node id.
fn members(tree: &bbtree::BBTree) -> Vec<Vec<u32>> {
    fn collect(tree: &bbtree::BBTree, id: NodeId, out: &mut Vec<Vec<u32>>) -> Vec<u32> {
        let below = match &tree.node(id).kind {
            NodeKind::Leaf { points } => points.iter().map(|p| p.0).collect(),
            NodeKind::Internal { left, right } => {
                let mut below = collect(tree, *left, out);
                below.extend(collect(tree, *right, out));
                below
            }
        };
        out[id.index()] = below.clone();
        below
    }
    let mut out = vec![Vec::new(); tree.node_count()];
    if !tree.is_empty() {
        collect(tree, tree.root(), &mut out);
    }
    out
}

/// Queries near the data: rows as they are, rows nudged by a few ulps and
/// by a small relative factor, and rows mixing coordinates of two points.
fn queries(ds: &DenseDataset, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..6 {
        let a = ds.row(rng.gen_range(0..ds.len()));
        let b = ds.row(rng.gen_range(0..ds.len()));
        out.push(a.to_vec());
        out.push(
            a.iter()
                .map(|&v| if rng.gen_bool(0.5) { v.next_up() } else { v.next_down() })
                .collect(),
        );
        out.push(a.iter().map(|&v| v * (1.0 + rng.gen_range(-0.05..0.05))).collect());
        out.push(a.iter().zip(b).map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y }).collect());
    }
    out
}

fn assert_strict<B: DecomposableBregman>(
    b: &B,
    kind: DivergenceKind,
    ds: &DenseDataset,
    leaf: usize,
    case: &str,
) {
    let case = format!("{case} / {} / leaf {leaf}", b.name());
    assert!((0..ds.len()).all(|i| b.in_domain_vec(ds.row(i))), "{case}: data outside the domain");
    let queries = queries(ds, 11);
    assert!(queries.iter().all(|q| b.in_domain_vec(q)), "{case}: a query outside the domain");
    for m in [1, 3.min(ds.dim())] {
        let forest = forest(kind, ds, m, leaf);
        let p = pccp(ds, m, 256, 0xB0C5).unwrap();
        for s in 0..m {
            let sub = ds.project(p.subspace(s)).unwrap();
            let tree = forest.tree(s);
            let boxes = forest.boxes(s);
            let members = members(tree);
            // (a) Members inside, box tight.
            for (node, ids) in members.iter().enumerate() {
                let (lo, hi) = (boxes.lo(NodeId(node as u32)), boxes.hi(NodeId(node as u32)));
                for i in 0..sub.dim() {
                    let column = ids.iter().map(|&pid| sub.row(pid as usize)[i]);
                    let min = column.clone().fold(f64::INFINITY, f64::min);
                    let max = column.fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!((lo[i].to_bits(), hi[i].to_bits()), (min.to_bits(), max.to_bits()));
                    assert!(ids.iter().all(|&pid| {
                        let x = sub.row(pid as usize)[i];
                        lo[i] <= x && x <= hi[i]
                    }));
                }
            }
            for (qi, full) in queries.iter().enumerate() {
                let mut q = Vec::new();
                p.project_point_into(s, full, &mut q);
                let query = BoxQuery::new(b, &q);
                // (b) bound − allowance ≤ every member's naive divergence.
                for (node, ids) in members.iter().enumerate() {
                    let (bound, allowance) = query.bound(boxes, NodeId(node as u32));
                    for &pid in ids {
                        let naive = b.divergence(sub.row(pid as usize), &q);
                        assert!(
                            bound - allowance <= naive,
                            "{case}: M = {m}, subspace {s}, query {qi}, node {node}: \
                             bound {bound} − allowance {allowance} > {naive} of point {pid}"
                        );
                    }
                }
                // (c) Candidates ⊇ range members, at radii that hold some
                // points and miss others, and at exact ties.
                let mut all: Vec<f64> =
                    (0..sub.len()).map(|i| b.divergence(sub.row(i), &q)).collect();
                all.sort_by(f64::total_cmp);
                for radius in [all[0], all[all.len() / 4], all[all.len() / 2]] {
                    let got: std::collections::HashSet<u32> = forest
                        .subspace_candidates(s, &q, radius, &mut SearchStats::new())
                        .iter()
                        .map(|p| p.0)
                        .collect();
                    for i in 0..sub.len() {
                        if b.divergence(sub.row(i), &q) <= radius {
                            assert!(
                                got.contains(&(i as u32)),
                                "{case}: M = {m}, subspace {s}, query {qi}: point {i} \
                                 within {radius} is not a candidate"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Every kind, on data inside all four domains (positive, below `exp`'s
/// overflow).
fn assert_strict_for_every_kind(ds: &DenseDataset, leaf: usize, case: &str) {
    assert_strict(&SquaredEuclidean, DivergenceKind::SquaredEuclidean, ds, leaf, case);
    assert_strict(&ItakuraSaito, DivergenceKind::ItakuraSaito, ds, leaf, case);
    assert_strict(&Exponential, DivergenceKind::Exponential, ds, leaf, case);
    assert_strict(&GeneralizedI, DivergenceKind::GeneralizedI, ds, leaf, case);
}

fn random_rows(n: usize, d: usize, lo: f64, hi: f64, seed: u64) -> DenseDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| rng.gen_range(lo..hi)).collect()).collect();
    DenseDataset::from_rows(&rows).unwrap()
}

/// `n` rows at `base` with each coordinate nudged by `jitter` times a
/// uniform draw from [-1, 1].
fn clustered_at(n: usize, d: usize, base: f64, jitter: f64, seed: u64) -> DenseDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| base + jitter * rng.gen_range(-1.0..1.0)).collect())
        .collect();
    DenseDataset::from_rows(&rows).unwrap()
}

#[test]
fn every_kind_is_strictly_bounded_on_random_data() {
    let ds = random_rows(300, 8, 0.1, 10.0, 1);
    for leaf in [1, 4, 32] {
        assert_strict_for_every_kind(&ds, leaf, "random d = 8");
    }
}

#[test]
fn proxies_are_strictly_bounded() {
    let fonts = PaperDataset::Fonts.paper_spec().with_points(400).generate(7);
    assert_strict(&ItakuraSaito, DivergenceKind::ItakuraSaito, &fonts, 32, "Fonts proxy");
    assert_strict(&SquaredEuclidean, DivergenceKind::SquaredEuclidean, &fonts, 32, "Fonts proxy");
    let sift = PaperDataset::Sift.paper_spec().with_points(600).generate(7);
    assert_strict_for_every_kind(&sift, 32, "Sift proxy");
}

#[test]
fn duplicate_and_one_ulp_rows_are_strictly_bounded() {
    let dup = DenseDataset::from_rows(&vec![vec![2.5, 0.75, 3.0]; 64]).unwrap();
    for leaf in [1, 8] {
        assert_strict_for_every_kind(&dup, leaf, "all-duplicate rows");
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut rows = Vec::new();
    for base in [[1.5, 0.3, 7.25, 2.0], [4.0, 4.0, 0.9, 6.5]] {
        for _ in 0..40 {
            let row: Vec<f64> = base
                .iter()
                .map(|&v: &f64| match rng.gen_range(0..3) {
                    0 => v.next_down(),
                    1 => v,
                    _ => v.next_up(),
                })
                .collect();
            rows.push(row);
        }
    }
    let near = DenseDataset::from_rows(&rows).unwrap();
    for leaf in [1, 8] {
        assert_strict_for_every_kind(&near, leaf, "one-ulp rows");
    }
}

#[test]
fn large_magnitudes_are_strictly_bounded() {
    for leaf in [1, 16] {
        let se = clustered_at(200, 16, 1e8, 1.0, 5);
        assert_strict(
            &SquaredEuclidean,
            DivergenceKind::SquaredEuclidean,
            &se,
            leaf,
            "SE near 1e8",
        );
        let is = clustered_at(200, 16, 1e12, 1e3, 6);
        assert_strict(&ItakuraSaito, DivergenceKind::ItakuraSaito, &is, leaf, "IS near 1e12");
        assert_strict(&GeneralizedI, DivergenceKind::GeneralizedI, &is, leaf, "GI near 1e12");
        let exp = clustered_at(200, 16, 600.0, 1e-3, 7);
        assert_strict(&Exponential, DivergenceKind::Exponential, &exp, leaf, "Exp near 600");
    }
}

#[test]
fn one_dimension_and_one_point_are_strictly_bounded() {
    let line = random_rows(300, 1, 0.01, 50.0, 9);
    for leaf in [1, 32] {
        assert_strict_for_every_kind(&line, leaf, "d = 1");
    }
    let single = random_rows(1, 5, 0.5, 2.0, 10);
    assert_strict_for_every_kind(&single, 1, "one point");
}
