//! Error type shared by the Bregman primitives.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, BregmanError>;

/// Errors raised by divergence evaluation and dataset construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BregmanError {
    /// The two vectors have different lengths.
    DimensionMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// A coordinate lies outside the domain of the generator function
    /// (for example a non-positive value under Itakura-Saito).
    OutOfDomain {
        /// Name of the divergence whose domain was violated.
        divergence: &'static str,
        /// The offending coordinate value.
        value: f64,
    },
    /// A dataset was built from a flat buffer whose length is not a multiple
    /// of the dimensionality.
    RaggedData {
        /// Buffer length supplied.
        len: usize,
        /// Dimensionality supplied.
        dim: usize,
    },
    /// The requested divergence cannot be used with the partitioned pipeline
    /// (the paper excludes KL-divergence because it is not cumulative after
    /// dimensionality partitioning of its normalized form).
    UnsupportedForPartitioning {
        /// Name of the rejected divergence.
        divergence: &'static str,
    },
    /// A divergence name that
    /// [`DivergenceKind::parse`](crate::DivergenceKind::parse) does not
    /// recognize.
    UnknownDivergence(String),
    /// An empty dataset or empty query batch was supplied.
    Empty(&'static str),
}

impl fmt::Display for BregmanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BregmanError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: left={left}, right={right}")
            }
            BregmanError::OutOfDomain { divergence, value } => {
                write!(f, "value {value} outside the domain of {divergence}")
            }
            BregmanError::RaggedData { len, dim } => {
                write!(f, "flat buffer of length {len} is not a multiple of dimension {dim}")
            }
            BregmanError::UnsupportedForPartitioning { divergence } => {
                write!(f, "{divergence} is not cumulative across partitions and cannot be used with BrePartition")
            }
            BregmanError::UnknownDivergence(name) => write!(f, "unknown divergence name: {name}"),
            BregmanError::Empty(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for BregmanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = BregmanError::DimensionMismatch { left: 3, right: 4 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("4"));

        let e = BregmanError::OutOfDomain { divergence: "Itakura-Saito", value: -1.0 };
        assert!(e.to_string().contains("Itakura-Saito"));

        let e = BregmanError::RaggedData { len: 10, dim: 3 };
        assert!(e.to_string().contains("10"));

        let e = BregmanError::UnsupportedForPartitioning { divergence: "KL" };
        assert!(e.to_string().contains("KL"));

        let e = BregmanError::UnknownDivergence("cosine".into());
        assert!(e.to_string().contains("cosine"));

        let e = BregmanError::Empty("dataset");
        assert!(e.to_string().contains("dataset"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&BregmanError::Empty("x"));
    }
}
