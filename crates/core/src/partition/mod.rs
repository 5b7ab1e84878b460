//! Dimensionality partitioning: the partition description plus the two
//! strategies (equal/contiguous and PCCP).

pub mod equal;
pub mod pccp;

use bregman::DenseDataset;

use crate::error::{CoreError, Result};

/// A partitioning of `d` dimensions into `M` disjoint, exhaustive subspaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    subspaces: Vec<Vec<usize>>,
    dim: usize,
}

impl Partitioning {
    /// Build a partitioning from explicit per-subspace dimension lists.
    ///
    /// Validates that every subspace is non-empty and that the lists form a
    /// partition (each dimension `0..d` appears exactly once, where `d` is
    /// the total number of listed dimensions).
    pub fn new(subspaces: Vec<Vec<usize>>) -> Result<Partitioning> {
        if subspaces.is_empty() || subspaces.iter().any(Vec::is_empty) {
            return Err(CoreError::InvalidPartitions {
                requested: subspaces.len(),
                dim: subspaces.iter().map(Vec::len).sum(),
            });
        }
        let dim: usize = subspaces.iter().map(Vec::len).sum();
        let mut seen = vec![false; dim];
        for &d in subspaces.iter().flatten() {
            if d >= dim || seen[d] {
                return Err(CoreError::InvalidPartitions { requested: subspaces.len(), dim });
            }
            seen[d] = true;
        }
        Ok(Partitioning { subspaces, dim })
    }

    /// Number of subspaces (`M`).
    pub fn len(&self) -> usize {
        self.subspaces.len()
    }

    /// Whether there are no subspaces (never true for a validated value).
    pub fn is_empty(&self) -> bool {
        self.subspaces.is_empty()
    }

    /// Total dimensionality (`d`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dimension indices of every subspace.
    pub fn subspaces(&self) -> &[Vec<usize>] {
        &self.subspaces
    }

    /// The dimension indices of one subspace.
    pub fn subspace(&self, index: usize) -> &[usize] {
        &self.subspaces[index]
    }

    /// Project the full dataset into per-subspace datasets (the inputs to
    /// the per-subspace BB-trees).
    pub fn project_dataset(&self, dataset: &DenseDataset) -> Result<Vec<DenseDataset>> {
        self.subspaces.iter().map(|dims| dataset.project(dims).map_err(CoreError::from)).collect()
    }

    /// Project one point into the given subspace, reusing `out`.
    pub fn project_point_into(&self, subspace: usize, point: &[f64], out: &mut Vec<f64>) {
        DenseDataset::gather_into(point, &self.subspaces[subspace], out);
    }
}

impl std::fmt::Display for Partitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} partitions over {} dimensions", self.len(), self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_partitioning_roundtrips() {
        let p = Partitioning::new(vec![vec![0, 2], vec![1, 3], vec![4]]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.dim(), 5);
        assert_eq!(p.subspace(1), &[1, 3]);
        assert!(!p.is_empty());
        assert!(p.to_string().contains("3 partitions"));
    }

    #[test]
    fn rejects_duplicates_gaps_and_empty_subspaces() {
        assert!(Partitioning::new(vec![vec![0, 1], vec![1]]).is_err()); // duplicate
        assert!(Partitioning::new(vec![vec![0, 5], vec![1]]).is_err()); // out of range
        assert!(Partitioning::new(vec![vec![0], vec![]]).is_err()); // empty subspace
        assert!(Partitioning::new(vec![]).is_err());
    }

    #[test]
    fn project_dataset_produces_one_dataset_per_subspace() {
        let ds =
            DenseDataset::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]).unwrap();
        let p = Partitioning::new(vec![vec![3, 0], vec![1, 2]]).unwrap();
        let projected = p.project_dataset(&ds).unwrap();
        assert_eq!(projected.len(), 2);
        assert_eq!(projected[0].row(0), &[4.0, 1.0]);
        assert_eq!(projected[1].row(1), &[6.0, 7.0]);
    }

    #[test]
    fn project_point_into_matches_dataset_projection() {
        let p = Partitioning::new(vec![vec![2, 0], vec![1]]).unwrap();
        let mut out = Vec::new();
        p.project_point_into(0, &[10.0, 20.0, 30.0], &mut out);
        assert_eq!(out, vec![30.0, 10.0]);
        p.project_point_into(1, &[10.0, 20.0, 30.0], &mut out);
        assert_eq!(out, vec![20.0]);
    }
}
