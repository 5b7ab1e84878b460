//! Equal, contiguous partitioning — the naive baseline PCCP is compared
//! against in the paper's Fig. 10 ablation.

use crate::error::{CoreError, Result};
use crate::partition::Partitioning;

/// Split dimensions `0..dim` into `m` contiguous chunks of (almost) equal
/// size: the first chunks hold `⌈d/M⌉` dimensions, later ones may hold one
/// fewer when `d` is not divisible by `M`.
pub fn equal_contiguous(dim: usize, m: usize) -> Result<Partitioning> {
    if m == 0 || m > dim {
        return Err(CoreError::InvalidPartitions { requested: m, dim });
    }
    let per = dim.div_ceil(m);
    let mut subspaces: Vec<Vec<usize>> = Vec::with_capacity(m);
    let mut next = 0usize;
    for remaining_partitions in (1..=m).rev() {
        let remaining_dims = dim - next;
        // Keep later partitions non-empty by never taking more than what
        // leaves at least one dimension per remaining partition.
        let take = per.min(remaining_dims - (remaining_partitions - 1));
        subspaces.push((next..next + take).collect());
        next += take;
    }
    debug_assert_eq!(next, dim);
    Partitioning::new(subspaces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divides_evenly_when_possible() {
        let p = equal_contiguous(12, 3).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.subspace(0), &[0, 1, 2, 3]);
        assert_eq!(p.subspace(2), &[8, 9, 10, 11]);
    }

    #[test]
    fn handles_remainders_without_empty_partitions() {
        let p = equal_contiguous(10, 4).unwrap();
        assert_eq!(p.len(), 4);
        let sizes: Vec<usize> = p.subspaces().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s >= 1));
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 2);
    }

    #[test]
    fn single_partition_and_one_dim_per_partition() {
        let p = equal_contiguous(7, 1).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.subspace(0).len(), 7);
        let p = equal_contiguous(7, 7).unwrap();
        assert_eq!(p.len(), 7);
        assert!(p.subspaces().iter().all(|s| s.len() == 1));
    }

    #[test]
    fn rejects_invalid_counts() {
        assert!(equal_contiguous(5, 0).is_err());
        assert!(equal_contiguous(5, 6).is_err());
    }

    #[test]
    fn every_dimension_appears_exactly_once() {
        for (d, m) in [(17, 5), (31, 4), (8, 3), (100, 7)] {
            let p = equal_contiguous(d, m).unwrap();
            let mut all: Vec<usize> = p.subspaces().iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..d).collect::<Vec<_>>());
        }
    }
}
