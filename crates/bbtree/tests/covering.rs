//! Strict covering: every node's radius is at least the naive
//! `DecomposableBregman::divergence` of every point below it, with no slack, for
//! every decomposable divergence on the Fonts and Sift proxies and on data
//! built to stress the kernel-priced radii (duplicates, one-ulp
//! neighbours, large magnitudes where `Φ(x)` and `⟨∇φ(c), x⟩` nearly
//! cancel, one dimension, tiny leaves, no points at all).

use bbtree::{BBTreeBuilder, BBTreeConfig, CoveringBalls};
use bregman::kernel::phi_table;
use bregman::{
    DecomposableBregman, DenseDataset, Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean,
};
use datagen::proxies::PaperDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_strictly_covered<B: DecomposableBregman>(
    b: &B,
    ds: &DenseDataset,
    leaf: usize,
    case: &str,
) {
    assert!(
        (0..ds.len()).all(|i| b.in_domain_vec(ds.row(i))),
        "{case}: data outside the {} domain",
        b.name()
    );
    let config = BBTreeConfig { leaf_capacity: leaf, ..BBTreeConfig::default() };
    let tree = BBTreeBuilder::new(b.clone(), config).build(ds);
    assert_eq!(tree.len(), ds.len(), "{case} / {}", b.name());
    let balls = CoveringBalls::build(b, &tree, ds, &phi_table(b, ds));
    assert!(
        balls.validate_covering(&tree, b, |pid| ds.point(pid).to_vec()),
        "{case}: a {} radius falls below a member's naive divergence (leaf capacity {leaf})",
        b.name()
    );
}

/// Every kind, on data inside all four domains (positive, below `exp`'s
/// overflow).
fn assert_covered_for_every_kind(ds: &DenseDataset, leaf: usize, case: &str) {
    assert_strictly_covered(&SquaredEuclidean, ds, leaf, case);
    assert_strictly_covered(&ItakuraSaito, ds, leaf, case);
    assert_strictly_covered(&Exponential, ds, leaf, case);
    assert_strictly_covered(&GeneralizedI, ds, leaf, case);
}

fn random_rows(n: usize, d: usize, lo: f64, hi: f64, seed: u64) -> DenseDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| rng.gen_range(lo..hi)).collect()).collect();
    DenseDataset::from_rows(&rows).unwrap()
}

/// `n` rows at `base` with each coordinate nudged by `jitter` times a
/// uniform draw from [-1, 1]: rows whose divergences from their node's mean
/// are tiny next to the kernel's terms.
fn clustered_at(n: usize, d: usize, base: f64, jitter: f64, seed: u64) -> DenseDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| base + jitter * rng.gen_range(-1.0..1.0)).collect())
        .collect();
    DenseDataset::from_rows(&rows).unwrap()
}

#[test]
fn every_kind_covers_random_data() {
    let ds = random_rows(400, 8, 0.1, 10.0, 1);
    for leaf in [1, 2, 4, 32] {
        assert_covered_for_every_kind(&ds, leaf, "random d = 8");
    }
}

#[test]
fn proxies_are_strictly_covered() {
    let fonts = PaperDataset::Fonts.paper_spec().with_points(1_000).generate(7);
    assert_strictly_covered(&ItakuraSaito, &fonts, 32, "Fonts proxy");
    assert_strictly_covered(&SquaredEuclidean, &fonts, 32, "Fonts proxy");
    let sift = PaperDataset::Sift.paper_spec().with_points(2_000).generate(7);
    assert_covered_for_every_kind(&sift, 32, "Sift proxy");
    assert_strictly_covered(&Exponential, &sift, 2, "Sift proxy");
}

#[test]
fn duplicate_and_one_ulp_rows_are_strictly_covered() {
    let dup = DenseDataset::from_rows(&vec![vec![2.5, 0.75, 3.0]; 64]).unwrap();
    for leaf in [1, 2, 8] {
        assert_covered_for_every_kind(&dup, leaf, "all-duplicate rows");
    }

    // Every row within one ulp of a shared base row, coordinate by
    // coordinate, plus a second such group so splits happen.
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
    for leaf in [1, 2, 8] {
        assert_covered_for_every_kind(&near, leaf, "one-ulp rows");
    }
}

#[test]
fn large_magnitudes_with_cancelling_kernel_terms_are_strictly_covered() {
    // Φ(x) ≈ ⟨∇φ(c), x⟩ − c_c to many digits: the divergence is a tiny
    // difference of huge terms.
    for leaf in [1, 2, 16] {
        let se = clustered_at(200, 16, 1e8, 1.0, 5);
        assert_strictly_covered(&SquaredEuclidean, &se, leaf, "SE near 1e8");
        let is = clustered_at(200, 16, 1e12, 1e3, 6);
        assert_strictly_covered(&ItakuraSaito, &is, leaf, "IS near 1e12");
        assert_strictly_covered(&GeneralizedI, &is, leaf, "GI near 1e12");
        let exp = clustered_at(200, 16, 600.0, 1e-3, 7);
        assert_strictly_covered(&Exponential, &exp, leaf, "Exp near 600");
    }
    // Signed, wide-range data under SE: terms of both signs.
    let signed = random_rows(300, 64, -1e6, 1e6, 8);
    assert_strictly_covered(&SquaredEuclidean, &signed, 2, "SE signed ±1e6");
}

#[test]
fn one_dimension_tiny_leaves_and_no_points_are_strictly_covered() {
    let line = random_rows(300, 1, 0.01, 50.0, 9);
    for leaf in [1, 2, 32] {
        assert_covered_for_every_kind(&line, leaf, "d = 1");
    }
    let tiny = random_rows(1, 5, 0.5, 2.0, 10);
    assert_covered_for_every_kind(&tiny, 1, "one point");
    let empty = DenseDataset::empty(6).unwrap();
    for leaf in [1, 2] {
        assert_covered_for_every_kind(&empty, leaf, "empty dataset");
    }
}
