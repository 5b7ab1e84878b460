//! PCCP — Pearson-Correlation-Coefficient-based Partition (Section 5.2).
//!
//! The size of BrePartition's final candidate set is the size of the *union*
//! of the per-subspace candidate sets, so it shrinks when those sets overlap.
//! PCCP drives the overlap up by making the subspaces statistically similar:
//!
//! 1. **Assignment** — the `d` dimensions are grouped into `⌈d/M⌉` groups of
//!    (up to) `M` dimensions each, greedily chaining the dimension with the
//!    largest absolute Pearson correlation to any dimension already in the
//!    current group.
//! 2. **Partitioning** — each of the `M` partitions takes one dimension from
//!    every group, so strongly correlated dimensions end up in *different*
//!    partitions and every partition sees a representative of each
//!    correlated group.

use bregman::DenseDataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::{CoreError, Result};
use crate::partition::Partitioning;

/// Absolute Pearson correlation matrix of the dataset's dimensions, computed
/// over at most `sample_size` points (the paper samples as well — the matrix
/// is only used to rank similarities).
pub fn correlation_matrix(dataset: &DenseDataset, sample_size: usize) -> Vec<Vec<f64>> {
    let d = dataset.dim();
    let n = dataset.len().min(sample_size.max(2));
    let mut matrix = vec![vec![0.0; d]; d];
    if dataset.len() < 2 {
        return matrix;
    }
    // Column means and standard deviations over the sample prefix.
    let mut means = vec![0.0; d];
    for i in 0..n {
        for (j, &v) in dataset.row(i).iter().enumerate() {
            means[j] += v;
        }
    }
    for m in &mut means {
        *m /= n as f64;
    }
    let mut vars = vec![0.0; d];
    for i in 0..n {
        for (j, &v) in dataset.row(i).iter().enumerate() {
            let dv = v - means[j];
            vars[j] += dv * dv;
        }
    }
    for (j, row) in matrix.iter_mut().enumerate() {
        row[j] = 1.0;
    }
    for a in 0..d {
        if vars[a] == 0.0 {
            continue;
        }
        for b in (a + 1)..d {
            if vars[b] == 0.0 {
                continue;
            }
            let mut cov = 0.0;
            for i in 0..n {
                let row = dataset.row(i);
                cov += (row[a] - means[a]) * (row[b] - means[b]);
            }
            let r = (cov / (vars[a].sqrt() * vars[b].sqrt())).abs();
            matrix[a][b] = r;
            matrix[b][a] = r;
        }
    }
    matrix
}

/// Run PCCP over `dataset`, producing `m` partitions.
pub fn pccp(
    dataset: &DenseDataset,
    m: usize,
    sample_size: usize,
    seed: u64,
) -> Result<Partitioning> {
    let d = dataset.dim();
    if m == 0 || m > d {
        return Err(CoreError::InvalidPartitions { requested: m, dim: d });
    }
    if m == 1 {
        return Partitioning::new(vec![(0..d).collect()]);
    }
    let corr = correlation_matrix(dataset, sample_size);
    let groups = assign_groups(&corr, d, m, seed);
    partition_from_groups(&groups, d, m, seed)
}

/// Assignment step: greedily build groups of up to `m` mutually correlated
/// dimensions.
fn assign_groups(corr: &[Vec<f64>], d: usize, m: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut unassigned: Vec<usize> = (0..d).collect();
    unassigned.shuffle(&mut rng);
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(d.div_ceil(m));
    while !unassigned.is_empty() {
        // Seed the group with a random unassigned dimension (the paper
        // selects the first dimension randomly).
        let mut group = vec![unassigned.pop().expect("non-empty checked above")];
        while group.len() < m && !unassigned.is_empty() {
            // The unassigned dimension with the largest absolute correlation
            // to any dimension already in the group.
            let (best_pos, _) = unassigned
                .iter()
                .enumerate()
                .map(|(pos, &cand)| {
                    let best_corr =
                        group.iter().map(|&g| corr[g][cand]).fold(f64::NEG_INFINITY, f64::max);
                    (pos, best_corr)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("unassigned is non-empty");
            group.push(unassigned.swap_remove(best_pos));
        }
        groups.push(group);
    }
    groups
}

/// Partitioning step: each partition takes one dimension from every group.
fn partition_from_groups(
    groups: &[Vec<usize>],
    d: usize,
    m: usize,
    seed: u64,
) -> Result<Partitioning> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
    let mut pools: Vec<Vec<usize>> = groups.to_vec();
    for pool in &mut pools {
        pool.shuffle(&mut rng);
    }
    let mut subspaces: Vec<Vec<usize>> = vec![Vec::with_capacity(d.div_ceil(m)); m];
    let mut next_partition = 0usize;
    for pool in &mut pools {
        while let Some(dim) = pool.pop() {
            subspaces[next_partition % m].push(dim);
            next_partition += 1;
        }
    }
    // Guard against empty partitions when d < m (rejected earlier) or when
    // rounding left a partition empty: rebalance from the largest partition.
    while let Some(empty_idx) = subspaces.iter().position(Vec::is_empty) {
        let (donor_idx, _) = subspaces
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.len())
            .expect("at least one subspace");
        if subspaces[donor_idx].len() <= 1 {
            return Err(CoreError::InvalidPartitions { requested: m, dim: d });
        }
        let moved = subspaces[donor_idx].pop().expect("donor is non-empty");
        subspaces[empty_idx].push(moved);
    }
    Partitioning::new(subspaces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::correlated::CorrelatedSpec;

    fn correlated_dataset(dim: usize, blocks: usize) -> DenseDataset {
        CorrelatedSpec { n: 1500, dim, blocks, correlation: 0.92, mean: 5.0, scale: 1.0, seed: 17 }
            .generate()
    }

    #[test]
    fn correlation_matrix_detects_block_structure() {
        let ds = correlated_dataset(12, 3); // blocks of 4 dims
        let corr = correlation_matrix(&ds, 1500);
        assert!(corr[0][1] > 0.6, "within-block correlation {}", corr[0][1]);
        assert!(corr[0][5] < 0.3, "across-block correlation {}", corr[0][5]);
        assert_eq!(corr[3][3], 1.0);
        // Symmetric.
        assert_eq!(corr[2][7], corr[7][2]);
    }

    #[test]
    fn pccp_produces_a_valid_partitioning() {
        let ds = correlated_dataset(20, 4);
        let p = pccp(&ds, 5, 1000, 3).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.dim(), 20);
        let mut all: Vec<usize> = p.subspaces().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        // Every partition holds ⌈20/5⌉ = 4 dimensions.
        assert!(p.subspaces().iter().all(|s| s.len() == 4));
    }

    #[test]
    fn pccp_spreads_correlated_dimensions_across_partitions() {
        // 16 dims in 4 perfectly correlated blocks of 4; with M = 4 each
        // partition should receive at most ~2 dimensions of any one block
        // (an exact 1-per-block spread is the ideal; the greedy chain plus
        // random seeding can occasionally double up).
        let ds = correlated_dataset(16, 4);
        let p = pccp(&ds, 4, 1500, 9).unwrap();
        let block_of = |dim: usize| dim / 4;
        let mut worst = 0usize;
        for subspace in p.subspaces() {
            let mut counts = [0usize; 4];
            for &d in subspace {
                counts[block_of(d)] += 1;
            }
            worst = worst.max(*counts.iter().max().unwrap());
        }
        assert!(
            worst <= 2,
            "some partition contains {worst} dimensions from a single correlated block"
        );
    }

    #[test]
    fn single_partition_contains_every_dimension() {
        let ds = correlated_dataset(8, 2);
        let p = pccp(&ds, 1, 500, 5).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.subspace(0).len(), 8);
    }

    #[test]
    fn rejects_invalid_partition_counts() {
        let ds = correlated_dataset(6, 2);
        assert!(pccp(&ds, 0, 100, 1).is_err());
        assert!(pccp(&ds, 7, 100, 1).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = correlated_dataset(18, 3);
        assert_eq!(pccp(&ds, 6, 800, 2).unwrap(), pccp(&ds, 6, 800, 2).unwrap());
    }

    #[test]
    fn m_equal_d_gives_singleton_partitions() {
        let ds = correlated_dataset(10, 2);
        let p = pccp(&ds, 10, 500, 4).unwrap();
        assert_eq!(p.len(), 10);
        assert!(p.subspaces().iter().all(|s| s.len() == 1));
    }
}
