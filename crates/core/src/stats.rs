//! Per-query cost reported by the BrePartition index.

use bbtree::SearchStats;
use pagestore::IoStats;

/// Cost of one BrePartition query, in the paper's measures: rows scored
/// exactly and pages read, plus the tree traversal's node tests.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Number of distinct rows scored exactly: every row on a page the
    /// best-first loop read, plus the filter's union members on other
    /// pages.
    pub candidates: usize,
    /// Tree traversal counters over the best-first loop and every
    /// subspace's range search.
    pub search: SearchStats,
    /// Physical I/O performed by the query, the loop's reads included.
    pub io: IoStats,
}
