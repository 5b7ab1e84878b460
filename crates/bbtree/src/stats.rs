//! Search-cost counters reported by every BB-tree traversal.

/// CPU-side cost counters for one tree traversal.
///
/// These complement [`pagestore::IoStats`]: `SearchStats` counts in-memory
/// work (node tests, divergence evaluations), while the buffer pool counts
/// physical page reads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Node tests: tree nodes whose bound was computed and compared against
    /// the search's threshold or radius, the root included. A pruned node
    /// counts; a node never reached does not. Every traversal (BBT's
    /// best-first kNN, BP's best-first loop and its range filter) counts
    /// this one way, so their counts compare.
    pub nodes_visited: u64,
    /// Leaf nodes whose contents were examined.
    pub leaves_visited: u64,
    /// Exact divergence evaluations between the query and data points.
    pub distance_computations: u64,
}

impl SearchStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }
}
