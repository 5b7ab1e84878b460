//! Per-query cost breakdown reported by the BrePartition index.

use bbtree::SearchStats;
use pagestore::IoStats;

/// Cost breakdown of one BrePartition query, covering the three phases of
/// the framework (bound computation, per-subspace filtering, refinement).
///
/// At one subspace the exact search is one best-first loop
/// ([`crate::BrePartitionIndex::knn`]): `bound_seconds` is 0, the node
/// tests (and the query's kernel and box preparation) go in
/// `filter_seconds`, and page reads and scoring go in `refine_seconds`,
/// clocked around each leaf's batch of page reads.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Seconds spent before the filter: the seed that scores the first
    /// `min(k, n)` rows, the query transform and Algorithm 4 (with more
    /// than one subspace, or for the approximate search; 0 otherwise).
    pub bound_seconds: f64,
    /// Seconds spent running the per-subspace range queries, or the
    /// best-first loop's node tests.
    pub filter_seconds: f64,
    /// Seconds spent loading candidates' pages and computing their exact
    /// divergences.
    pub refine_seconds: f64,
    /// Number of distinct rows scored exactly: every row on a page the
    /// best-first loop read, plus the filter's union members on other
    /// pages.
    pub candidates: usize,
    /// Sum of the per-subspace candidate-set sizes (before the union), a
    /// measure of how much the subspaces overlap. The best-first loop's one
    /// subspace counts its rows scored.
    pub subspace_candidates_total: usize,
    /// Tree traversal counters accumulated over the best-first loop and
    /// every subspace's range search.
    pub search: SearchStats,
    /// Physical I/O performed by the query, the loop's reads included.
    pub io: IoStats,
}

impl QueryStats {
    /// Total wall-clock seconds across the three phases.
    pub fn total_seconds(&self) -> f64 {
        self.bound_seconds + self.filter_seconds + self.refine_seconds
    }

    /// Overlap factor of the subspace candidate sets: the ratio of the summed
    /// subspace candidate counts to the scored rows (higher means more
    /// overlap, which is what PCCP aims for; seeded rows the filter does not
    /// return can pull it below 1, and the best-first loop's one subspace
    /// reads exactly 1). Returns 1 when there were no candidates.
    pub fn overlap_factor(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.subspace_candidates_total as f64 / self.candidates as f64
        }
    }

    /// Accumulate another query's stats into this one (used to average over
    /// a workload).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.bound_seconds += other.bound_seconds;
        self.filter_seconds += other.filter_seconds;
        self.refine_seconds += other.refine_seconds;
        self.candidates += other.candidates;
        self.subspace_candidates_total += other.subspace_candidates_total;
        self.search.accumulate(&other.search);
        self.io.accumulate(&other.io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_overlap() {
        let stats = QueryStats {
            bound_seconds: 0.1,
            filter_seconds: 0.2,
            refine_seconds: 0.3,
            candidates: 10,
            subspace_candidates_total: 30,
            ..QueryStats::default()
        };
        assert!((stats.total_seconds() - 0.6).abs() < 1e-12);
        assert!((stats.overlap_factor() - 3.0).abs() < 1e-12);
        assert_eq!(QueryStats::default().overlap_factor(), 1.0);
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let mut total = QueryStats::default();
        for _ in 0..4 {
            total.accumulate(&QueryStats {
                bound_seconds: 1.0,
                filter_seconds: 2.0,
                refine_seconds: 3.0,
                candidates: 8,
                subspace_candidates_total: 16,
                search: SearchStats {
                    nodes_visited: 4,
                    leaves_visited: 2,
                    distance_computations: 10,
                    candidates_examined: 8,
                },
                io: IoStats { pages_read: 12, cache_hits: 4, pages_written: 0 },
            });
        }
        assert!((total.bound_seconds - 4.0).abs() < 1e-12);
        assert!((total.refine_seconds - 12.0).abs() < 1e-12);
        assert_eq!(total.candidates, 32);
        assert_eq!(total.subspace_candidates_total, 64);
        assert_eq!(total.search.nodes_visited, 16);
        assert_eq!(total.io.pages_read, 48);
        assert_eq!(total.io.cache_hits, 16);
    }
}
