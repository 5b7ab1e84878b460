//! Batch outcomes and the aggregated throughput report.

use bregman::PointId;
use pagestore::IoStats;

/// The result of one query within a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Neighbours as `(id, divergence)`, ordered by increasing divergence.
    pub neighbors: Vec<(PointId, f64)>,
    /// Candidates the backend examined for this query.
    pub candidates: usize,
    /// Physical I/O performed for this query.
    pub io: IoStats,
    /// Wall-clock seconds this query spent inside the backend.
    pub latency_seconds: f64,
}

/// Latency distribution of a batch, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_ms: f64,
    /// Median (50th percentile).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Slowest query.
    pub max_ms: f64,
}

/// Aggregated measurements of one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Backend label the batch ran against.
    pub backend: String,
    /// Number of queries in the batch.
    pub queries: usize,
    /// `k` requested per query.
    pub k: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Queries per second (`queries / wall_seconds`).
    pub qps: f64,
    /// Per-query latency distribution.
    pub latency: LatencySummary,
    /// Sum of per-query candidate counts.
    pub total_candidates: usize,
    /// Mean candidates per query.
    pub avg_candidates: f64,
    /// Summed physical I/O over the batch.
    pub io: IoStats,
    /// Mean physical page reads per query (the paper's I/O-cost metric).
    pub avg_io_pages: f64,
}

impl ThroughputReport {
    /// Assemble a report from per-query outcomes.
    pub fn from_outcomes(
        backend: impl Into<String>,
        k: usize,
        threads: usize,
        wall_seconds: f64,
        outcomes: &[QueryOutcome],
    ) -> ThroughputReport {
        let queries = outcomes.len();
        let mut io = IoStats::default();
        let mut total_candidates = 0usize;
        let mut latencies_ms: Vec<f64> = outcomes.iter().map(|o| o.latency_seconds * 1e3).collect();
        for outcome in outcomes {
            io.accumulate(&outcome.io);
            total_candidates += outcome.candidates;
        }
        latencies_ms.sort_by(f64::total_cmp);
        let q = queries.max(1) as f64;
        let latency = LatencySummary {
            mean_ms: latencies_ms.iter().sum::<f64>() / q,
            p50_ms: percentile(&latencies_ms, 50.0),
            p95_ms: percentile(&latencies_ms, 95.0),
            p99_ms: percentile(&latencies_ms, 99.0),
            max_ms: latencies_ms.last().copied().unwrap_or(0.0),
        };
        ThroughputReport {
            backend: backend.into(),
            queries,
            k,
            threads,
            wall_seconds,
            qps: if wall_seconds > 0.0 { queries as f64 / wall_seconds } else { 0.0 },
            latency,
            total_candidates,
            avg_candidates: total_candidates as f64 / q,
            io,
            avg_io_pages: io.pages_read as f64 / q,
        }
    }
}

impl std::fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} queries (k={}) on {} threads in {:.3}s — {:.0} QPS, \
             latency p50 {:.3}ms / p95 {:.3}ms / p99 {:.3}ms, \
             {:.1} candidates/query, {:.1} page reads/query",
            self.backend,
            self.queries,
            self.k,
            self.threads,
            self.wall_seconds,
            self.qps,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.avg_candidates,
            self.avg_io_pages,
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn report_aggregates_outcomes() {
        let outcomes: Vec<QueryOutcome> = (0..10)
            .map(|i| QueryOutcome {
                neighbors: vec![(bregman::PointId(i as u32), 0.0)],
                candidates: 5,
                io: IoStats { pages_read: 2, cache_hits: 1, pages_written: 0 },
                latency_seconds: (i + 1) as f64 * 1e-3,
            })
            .collect();
        let report = ThroughputReport::from_outcomes("BP", 1, 2, 0.5, &outcomes);
        assert_eq!(report.queries, 10);
        assert_eq!(report.threads, 2);
        assert!((report.qps - 20.0).abs() < 1e-9);
        assert_eq!(report.total_candidates, 50);
        assert!((report.avg_candidates - 5.0).abs() < 1e-9);
        assert_eq!(report.io.pages_read, 20);
        assert!((report.avg_io_pages - 2.0).abs() < 1e-9);
        assert!((report.latency.p50_ms - 5.0).abs() < 1e-9);
        assert!((report.latency.max_ms - 10.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("BP"));
        assert!(text.contains("QPS"));
    }
}
