//! Flat dense dataset container and small vector helpers.
//!
//! Every index in this repository operates over a [`DenseDataset`]: `n`
//! points of dimensionality `d` stored contiguously in a single `Vec<f64>`
//! (row-major). Points are addressed by [`PointId`], which is a plain
//! `u32`-sized newtype so candidate lists stay compact.

use crate::error::{BregmanError, Result};

/// Identifier of a point inside a [`DenseDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointId(pub u32);

impl PointId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for PointId {
    fn from(v: usize) -> Self {
        PointId(u32::try_from(v).expect("dataset larger than u32::MAX points"))
    }
}

impl std::fmt::Display for PointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A dense, row-major collection of `n` points of dimensionality `d`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDataset {
    dim: usize,
    data: Vec<f64>,
}

impl DenseDataset {
    /// Build a dataset from a flat row-major buffer.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Result<Self> {
        if dim == 0 {
            return Err(BregmanError::Empty("dimensionality"));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(BregmanError::RaggedData { len: data.len(), dim });
        }
        Ok(Self { dim, data })
    }

    /// Build a dataset from a list of equally sized rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let dim = rows.first().map(|r| r.len()).ok_or(BregmanError::Empty("rows"))?;
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            if row.len() != dim {
                return Err(BregmanError::DimensionMismatch { left: dim, right: row.len() });
            }
            data.extend_from_slice(row);
        }
        Self::from_flat(dim, data)
    }

    /// An empty dataset of the given dimensionality.
    pub fn empty(dim: usize) -> Result<Self> {
        Self::from_flat(dim, Vec::new())
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow a point by id.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id.index();
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Borrow a point by raw index.
    #[inline]
    pub fn row(&self, index: usize) -> &[f64] {
        &self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Append a point, returning its id.
    pub fn push(&mut self, point: &[f64]) -> Result<PointId> {
        if point.len() != self.dim {
            return Err(BregmanError::DimensionMismatch { left: self.dim, right: point.len() });
        }
        let id = PointId::from(self.len());
        self.data.extend_from_slice(point);
        Ok(id)
    }

    /// Iterate over `(id, point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> + '_ {
        (0..self.len()).map(move |i| (PointId::from(i), self.row(i)))
    }

    /// The underlying flat buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Project every point onto the given dimension indices, producing a new
    /// dataset of dimensionality `dims.len()` (used to build the partitioned
    /// subspace datasets).
    pub fn project(&self, dims: &[usize]) -> Result<DenseDataset> {
        if dims.is_empty() {
            return Err(BregmanError::Empty("projection dimensions"));
        }
        for &d in dims {
            if d >= self.dim {
                return Err(BregmanError::DimensionMismatch { left: self.dim, right: d });
            }
        }
        let mut data = Vec::with_capacity(self.len() * dims.len());
        for i in 0..self.len() {
            let row = self.row(i);
            for &d in dims {
                data.push(row[d]);
            }
        }
        DenseDataset::from_flat(dims.len(), data)
    }

    /// Gather a sub-slice of a single point at the given dimension indices
    /// into `out` (used to project query points without allocating a full
    /// dataset).
    pub fn gather_into(point: &[f64], dims: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.extend(dims.iter().map(|&d| point[d]));
    }

    /// Column (dimension) values as an iterator (used by PCCP and by the
    /// VA-file quantizer training).
    pub fn column(&self, dim_index: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(dim_index < self.dim, "column index out of range");
        (0..self.len()).map(move |i| self.row(i)[dim_index])
    }

    /// Per-dimension minima and maxima; `None` for an empty dataset.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.row(0).to_vec();
        let mut hi = self.row(0).to_vec();
        for i in 1..self.len() {
            for (j, &v) in self.row(i).iter().enumerate() {
                if v < lo[j] {
                    lo[j] = v;
                }
                if v > hi[j] {
                    hi[j] = v;
                }
            }
        }
        Some((lo, hi))
    }
}

/// Arithmetic mean of a set of rows selected by `ids` — the right-centroid of
/// a Bregman ball (Banerjee et al.: the minimizer of `Σ D_f(x_i, μ)` over μ
/// is the arithmetic mean for every Bregman divergence).
pub fn mean_of(dataset: &DenseDataset, ids: &[PointId]) -> Vec<f64> {
    let dim = dataset.dim();
    let mut mean = vec![0.0; dim];
    if ids.is_empty() {
        return mean;
    }
    for &id in ids {
        for (m, v) in mean.iter_mut().zip(dataset.point(id)) {
            *m += v;
        }
    }
    let inv = 1.0 / ids.len() as f64;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

/// Dot product of two equally sized slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DenseDataset {
        DenseDataset::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]])
            .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let ds = small();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.point(PointId(1)), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.row(2), &[7.0, 8.0, 9.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn from_flat_rejects_ragged() {
        assert!(matches!(
            DenseDataset::from_flat(3, vec![1.0, 2.0]),
            Err(BregmanError::RaggedData { .. })
        ));
        assert!(DenseDataset::from_flat(0, vec![]).is_err());
    }

    #[test]
    fn from_rows_rejects_mismatched_rows() {
        let err = DenseDataset::from_rows(&[vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, BregmanError::DimensionMismatch { .. }));
        assert!(DenseDataset::from_rows(&[]).is_err());
    }

    #[test]
    fn push_and_iter() {
        let mut ds = DenseDataset::empty(2).unwrap();
        let a = ds.push(&[1.0, 2.0]).unwrap();
        let b = ds.push(&[3.0, 4.0]).unwrap();
        assert_eq!(a, PointId(0));
        assert_eq!(b, PointId(1));
        assert!(ds.push(&[1.0]).is_err());
        let collected: Vec<_> = ds.iter().map(|(id, p)| (id.index(), p.to_vec())).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1].1, vec![3.0, 4.0]);
    }

    #[test]
    fn projection_selects_dimensions_in_order() {
        let ds = small();
        let proj = ds.project(&[2, 0]).unwrap();
        assert_eq!(proj.dim(), 2);
        assert_eq!(proj.point(PointId(0)), &[3.0, 1.0]);
        assert_eq!(proj.point(PointId(2)), &[9.0, 7.0]);
        assert!(ds.project(&[]).is_err());
        assert!(ds.project(&[5]).is_err());
    }

    #[test]
    fn gather_into_matches_projection() {
        let ds = small();
        let mut buf = Vec::new();
        DenseDataset::gather_into(ds.point(PointId(1)), &[2, 0], &mut buf);
        assert_eq!(buf, vec![6.0, 4.0]);
    }

    #[test]
    fn column_and_bounds() {
        let ds = small();
        let col: Vec<f64> = ds.column(1).collect();
        assert_eq!(col, vec![2.0, 5.0, 8.0]);
        let (lo, hi) = ds.bounds().unwrap();
        assert_eq!(lo, vec![1.0, 2.0, 3.0]);
        assert_eq!(hi, vec![7.0, 8.0, 9.0]);
        assert!(DenseDataset::empty(3).unwrap().bounds().is_none());
    }

    #[test]
    fn mean_of_ids_is_arithmetic_mean() {
        let ds = small();
        let mean = mean_of(&ds, &[PointId(0), PointId(2)]);
        assert_eq!(mean, vec![4.0, 5.0, 6.0]);
        assert_eq!(mean_of(&ds, &[]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn dot_of_two_slices() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn point_id_display_and_conversion() {
        let id = PointId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "#7");
    }
}
