//! Equivalence suite for the prepared-query decomposed divergence kernels.
//!
//! Two layers of pinning:
//!
//! 1. **Scalar equivalence** — for every divergence kind × dimensionality
//!    {2, 50, 100}, seeded workloads (including near-zero coordinates, the
//!    KL/Itakura-Saito edge regime where `φ` blows up) assert that the
//!    prepared kernel `Φ(x) + c_q − ⟨∇φ(q), x⟩` agrees with the naive
//!    `divergence()` within `1e-10` (relative). The two evaluations
//!    reassociate floating-point sums differently, so exact bit equality is
//!    not expected — `1e-10` pins them to far below any distance gap that
//!    could reorder neighbors in these workloads.
//! 2. **Neighbor-ID identity** — every *exact* method (BP, BBT, VAF),
//!    driven through the façade on the round-trip workload, returns exactly
//!    the ground-truth neighbor IDs, before and after a save/open cycle
//!    (which exercises the persisted Φ column); a BBT directory missing
//!    the column is refused.

mod common;

use brepartition::prelude::*;
use common::TempDir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded value in the divergence's comfortable domain; every 7th
/// coordinate is near-zero (1e-4 .. 1.1e-4) to exercise the KL /
/// Itakura-Saito edge where `φ(t) = −ln t` / `t ln t` is largest.
fn coordinate(kind: DivergenceKind, i: usize, rng: &mut StdRng) -> f64 {
    let u = rng.gen_range(0.0..1.0);
    match kind {
        DivergenceKind::SquaredEuclidean => u * 10.0 - 5.0,
        // Exponential: keep |t| small so Φ(x) stays ~1e2 and the
        // decomposition's cancellation stays far below the 1e-10 pin.
        DivergenceKind::Exponential => u * 5.0 - 2.0,
        DivergenceKind::ItakuraSaito | DivergenceKind::GeneralizedI => {
            if i % 7 == 3 {
                1e-4 * (1.0 + 0.1 * u)
            } else {
                0.05 + u * 8.0
            }
        }
    }
}

#[test]
fn prepared_kernel_matches_naive_divergence_for_every_kind_and_dim() {
    for (ki, kind) in DivergenceKind::ALL.into_iter().enumerate() {
        for dim in [2usize, 50, 100] {
            // Distinct stream per (kind, dim) cell.
            let mut rng =
                StdRng::seed_from_u64(0xC0FFEE ^ ((dim as u64) << 8) ^ ((ki as u64 + 1) * 0x9E37));
            for trial in 0..25 {
                let x: Vec<f64> = (0..dim).map(|i| coordinate(kind, i, &mut rng)).collect();
                let q: Vec<f64> = (0..dim).map(|i| coordinate(kind, i + 1, &mut rng)).collect();
                let prepared = kind.prepare_query(&q);
                let fast = prepared.distance(kind.phi_sum(&x), &x);
                let naive = kind.divergence(&x, &q);
                assert!(
                    (fast - naive).abs() <= 1e-10 * (1.0 + naive.abs()),
                    "{kind} d={dim} trial={trial}: prepared {fast} vs naive {naive} \
                     (delta {})",
                    (fast - naive).abs()
                );
            }
            // The self-distance collapses to (numerically) zero as well.
            let q: Vec<f64> = (0..dim).map(|i| coordinate(kind, i, &mut rng)).collect();
            let prepared = kind.prepare_query(&q);
            let self_d = prepared.distance(kind.phi_sum(&q), &q);
            assert!(self_d.abs() < 1e-9, "{kind} d={dim}: D(q,q) = {self_d}");
        }
    }
}

fn roundtrip_workload() -> (DenseDataset, DenseDataset) {
    let data = HierarchicalSpec { n: 900, dim: 24, clusters: 12, blocks: 6, ..Default::default() }
        .generate();
    let workload =
        QueryWorkload::perturbed_from(&data, DivergenceKind::ItakuraSaito, 48, 0.02, 0x4B524E4C);
    (data, workload.queries)
}

/// IDs of one result, as an ordered vector.
fn ids(neighbors: &[(PointId, f64)]) -> Vec<PointId> {
    neighbors.iter().map(|(id, _)| *id).collect()
}

#[test]
fn exact_methods_return_ground_truth_neighbor_ids_through_the_facade() {
    let (data, queries) = roundtrip_workload();
    let k = 10;
    let truth = ground_truth_knn(DivergenceKind::ItakuraSaito, &data, &queries, k, 4);
    let root = TempDir::new("prepared-kernels-ground-truth");

    for method in [Method::BrePartition, Method::BBTree, Method::VaFile] {
        let spec = IndexSpec::new(method, DivergenceKind::ItakuraSaito)
            .with_partitions(6)
            .with_leaf_capacity(16)
            .with_page_size(4096);
        let built = Index::build(&spec, &data).unwrap();
        let dir = root.join(method.short_name());
        built.save(&dir).unwrap();
        let reopened = Index::open(&dir).unwrap();

        for qi in 0..queries.len() {
            let query = queries.row(qi);
            let expected: Vec<PointId> = truth.neighbors_of(qi).iter().map(|n| n.0).collect();
            let a = built.query(&QueryRequest::new(query, k)).unwrap();
            let b = reopened.query(&QueryRequest::new(query, k)).unwrap();
            assert_eq!(ids(&a.neighbors), expected, "{method} query {qi}: built vs ground truth");
            assert_eq!(
                a.neighbors, b.neighbors,
                "{method} query {qi}: the persisted Φ column must round-trip bit-identically"
            );
            for ((_, got), (_, want)) in a.neighbors.iter().zip(truth.neighbors_of(qi).iter()) {
                // 1e-9 relative rather than bit equality: the prepared
                // kernel's 4-wide dot product reassociates the per-dimension
                // sum, shifting the last ulps relative to the naive
                // sequential evaluation the ground truth uses.
                assert!(
                    (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "{method} query {qi}: {got} vs {want}"
                );
            }
        }
    }
}

/// A BBT directory missing its Φ column is incomplete, not old: opening it
/// fails with a typed persistence error instead of recomputing the column.
#[test]
fn bbt_directories_without_a_phi_column_are_rejected_through_the_facade() {
    let (data, _) = roundtrip_workload();
    let spec =
        IndexSpec::bbtree(DivergenceKind::ItakuraSaito).with_leaf_capacity(16).with_page_size(4096);
    let built = Index::build(&spec, &data).unwrap();
    let dir = TempDir::new("prepared-kernels-no-phi");
    built.save(&dir).unwrap();
    std::fs::remove_file(dir.join(brepartition::bbtree::disk::PHI_FILE)).unwrap();
    match Index::open(&dir) {
        Err(Error::Persist(_)) => {}
        Err(e) => panic!("expected a persistence error, got {e}"),
        Ok(_) => panic!("a BBT directory without phi.tbl must not open"),
    }
}
