//! Workspace-level property tests: the theorems the BrePartition framework
//! rests on, checked on randomized inputs across crates.
//!
//! `proptest` is not available in the offline build environment, so each
//! property is checked over a deterministic battery of seeded random inputs
//! instead of shrinking strategies. The properties themselves are unchanged.

use brepartition::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 24;

/// Random strictly positive dataset plus an in-domain query.
fn dataset_and_query(
    rng: &mut ChaCha8Rng,
    max_points: usize,
    dim: usize,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = rng.gen_range(30..max_points);
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.2..20.0)).collect()).collect();
    let query: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.2..20.0)).collect();
    (rows, query)
}

/// Theorem 2: the summed per-subspace Cauchy bound dominates the exact
/// divergence for every point, any partitioning.
#[test]
fn summed_upper_bound_dominates_divergence() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let (rows, query) = dataset_and_query(&mut rng, 60, 12);
        let m = rng.gen_range(1..6usize);
        let data = DenseDataset::from_rows(&rows).unwrap();
        let kind = DivergenceKind::ItakuraSaito;
        let partitioning = brepartition::core::partition::equal::equal_contiguous(12, m).unwrap();
        let transformed = brepartition::core::TransformedDataset::build(kind, &data, &partitioning);
        let tq = brepartition::core::TransformedQuery::build(kind, &query, &partitioning);
        for i in 0..data.len() {
            let total: f64 = (0..m)
                .map(|s| {
                    brepartition::core::upper_bound_from_components(
                        transformed.components(i, s),
                        tq.components(s),
                    )
                })
                .sum();
            let exact = kind.divergence(data.row(i), &query);
            assert!(exact <= total + 1e-7 * (1.0 + total.abs()));
        }
    }
}

/// Theorem 3 end-to-end: the exact kNN of a query always appears in the
/// BrePartition result (which therefore matches brute force).
#[test]
fn brepartition_matches_brute_force() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let (rows, query) = dataset_and_query(&mut rng, 80, 16);
        let k = rng.gen_range(1..12usize);
        let m = rng.gen_range(2..6usize);
        let data = DenseDataset::from_rows(&rows).unwrap();
        let kind = DivergenceKind::ItakuraSaito;
        let index = BrePartitionIndex::build(
            kind,
            &data,
            &BrePartitionConfig::default()
                .with_partitions(m)
                .with_leaf_capacity(8)
                .with_page_size(2048),
        )
        .unwrap();
        let got = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, k, None)
            .unwrap();
        let truth = ground_truth_knn(
            kind,
            &data,
            &DenseDataset::from_rows(std::slice::from_ref(&query)).unwrap(),
            k,
            1,
        );
        let expected = truth.neighbors_of(0);
        assert_eq!(got.neighbors.len(), expected.len());
        for (g, e) in got.neighbors.iter().zip(expected.iter()) {
            assert!((g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()));
        }
    }
}

/// The VA-file is exact for the exponential distance on data with
/// negative coordinates as well.
#[test]
fn vafile_matches_brute_force_on_signed_data() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let n = rng.gen_range(30..70usize);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..10).map(|_| rng.gen_range(-3.0..3.0)).collect()).collect();
        let k = rng.gen_range(1..8usize);
        let data = DenseDataset::from_rows(&rows).unwrap();
        let query = rows[0].iter().map(|v| v * 0.9 + 0.05).collect::<Vec<f64>>();
        let index = VaFile::build(
            Exponential,
            &data,
            VaFileConfig { page_size_bytes: 1024, ..VaFileConfig::default() },
        );
        let mut pool = BufferPool::unbuffered();
        let got = index.knn(&mut pool, &mut KernelScratch::default(), &query, k, None).unwrap();
        let truth = ground_truth_knn(
            DivergenceKind::Exponential,
            &data,
            &DenseDataset::from_rows(std::slice::from_ref(&query)).unwrap(),
            k,
            1,
        );
        for (g, e) in got.neighbors.iter().zip(truth.neighbors_of(0).iter()) {
            assert!((g.1 - e.1).abs() < 1e-9 * (1.0 + e.1.abs()));
        }
    }
}

/// The approximate coefficient always lies in (0, 1] and shrinking the
/// radii never produces more candidates than the exact search.
#[test]
fn approximate_coefficient_and_candidates_are_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let (rows, query) = dataset_and_query(&mut rng, 60, 12);
        let p = rng.gen_range(0.5..1.0);
        let data = DenseDataset::from_rows(&rows).unwrap();
        let kind = DivergenceKind::ItakuraSaito;
        let index = BrePartitionIndex::build(
            kind,
            &data,
            &BrePartitionConfig::default()
                .with_partitions(4)
                .with_leaf_capacity(8)
                .with_page_size(2048),
        )
        .unwrap();
        let exact = index
            .knn(&mut index.new_buffer_pool(), &mut KernelScratch::default(), &query, 5, None)
            .unwrap();
        let approx = index
            .knn(
                &mut index.new_buffer_pool(),
                &mut KernelScratch::default(),
                &query,
                5,
                Some(&ApproximateConfig::with_probability(p)),
            )
            .unwrap();
        let c = approx.coefficient.unwrap();
        assert!((0.0..=1.0).contains(&c));
        assert!(approx.stats.candidates <= exact.stats.candidates);
    }
}
