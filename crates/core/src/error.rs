//! Error type for the BrePartition core.

use std::fmt;

use bregman::BregmanError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised while building or querying a BrePartition index.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The selected divergence cannot be used with dimensionality
    /// partitioning (e.g. KL-style divergences, per the paper).
    UnsupportedDivergence {
        /// Short name of the offending divergence.
        divergence: String,
    },
    /// The dataset is empty or otherwise unusable.
    EmptyDataset,
    /// The query's dimensionality does not match the indexed data.
    QueryDimensionMismatch {
        /// Dimensionality the index was built for.
        expected: usize,
        /// Dimensionality of the supplied query.
        actual: usize,
    },
    /// The requested partition count is invalid for the dimensionality.
    InvalidPartitions {
        /// Requested number of partitions.
        requested: usize,
        /// Dimensionality of the data.
        dim: usize,
    },
    /// An invalid probability guarantee was supplied to the approximate
    /// search (must be in `(0, 1]`).
    InvalidProbability(f64),
    /// Saving or opening a persistent index failed (I/O error, bad magic or
    /// version, checksum mismatch, or a corrupt artifact). The message
    /// carries the underlying [`pagestore::PersistError`] rendering.
    Persist(String),
    /// A lower-level Bregman primitive failed.
    Bregman(BregmanError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedDivergence { divergence } => write!(
                f,
                "divergence {divergence} is not cumulative across partitions and cannot be used with BrePartition"
            ),
            CoreError::EmptyDataset => write!(f, "cannot build an index over an empty dataset"),
            CoreError::QueryDimensionMismatch { expected, actual } => {
                write!(f, "query has {actual} dimensions but the index was built for {expected}")
            }
            CoreError::InvalidPartitions { requested, dim } => {
                write!(f, "cannot split {dim} dimensions into {requested} partitions")
            }
            CoreError::InvalidProbability(p) => {
                write!(f, "probability guarantee must be in (0, 1], got {p}")
            }
            CoreError::Persist(message) => write!(f, "persistence error: {message}"),
            CoreError::Bregman(e) => write!(f, "bregman error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Bregman(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BregmanError> for CoreError {
    fn from(e: BregmanError) -> Self {
        CoreError::Bregman(e)
    }
}

impl From<pagestore::PersistError> for CoreError {
    fn from(e: pagestore::PersistError) -> Self {
        CoreError::Persist(e.to_string())
    }
}

impl From<pagestore::PageStoreError> for CoreError {
    fn from(e: pagestore::PageStoreError) -> Self {
        CoreError::Persist(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::UnsupportedDivergence { divergence: "GI".into() };
        assert!(e.to_string().contains("GI"));
        let e = CoreError::QueryDimensionMismatch { expected: 10, actual: 3 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
        let e = CoreError::InvalidPartitions { requested: 50, dim: 10 };
        assert!(e.to_string().contains("50"));
        let e = CoreError::InvalidProbability(1.5);
        assert!(e.to_string().contains("1.5"));
        assert!(CoreError::EmptyDataset.to_string().contains("empty"));
    }

    #[test]
    fn bregman_errors_convert_and_expose_source() {
        use std::error::Error;
        let inner = BregmanError::Empty("rows");
        let e: CoreError = inner.clone().into();
        assert_eq!(e, CoreError::Bregman(inner));
        assert!(e.source().is_some());
        assert!(CoreError::EmptyDataset.source().is_none());
    }
}
