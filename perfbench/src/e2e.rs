//! Untraced runs: the end-to-end numbers a user of the index would see.
//!
//! Every workload reports the same five metrics, each defined on its own
//! traffic: a query's latency is how long its caller waits for the answer
//! (one `Index::query` on `fonts-disk`, the batch that carries it on
//! `microbatch`), and `query_qps` is answered queries per second of
//! measured time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use brepartition::prelude::*;

use crate::report::{Outcome, Stamp};
use crate::scenario::{self, Workload, BATCH, CHECKED_QUERIES, K, SETUP_REPS};
use crate::stats;

/// Every end-to-end metric, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_mean_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_qps", "1/s"),
];

/// Latency samples and the counts that go with them.
struct Measured {
    latencies_ms: Vec<f64>,
    queries: usize,
    wall_s: f64,
    attempted: u64,
    failed: u64,
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scratch: &Path) -> crate::Result<Outcome> {
    let mut setup = scenario::set_up(workload, scratch)?;
    let mut setup_times = vec![setup.seconds];
    for _ in 1..SETUP_REPS {
        drop(setup);
        setup = scenario::set_up(workload, scratch)?;
        setup_times.push(setup.seconds);
    }
    let queries = scenario::query_pool(workload, &setup.data, seed);
    let mut checker = Checker::new(seed, queries.len());
    let measured = match workload {
        Workload::FontsDisk => closed_loop_queries(&setup.index, &queries, &mut checker, seconds),
        Workload::Microbatch => closed_loop_batches(&setup.index, &queries, &mut checker, seconds),
    };
    let failed = measured.failed + checker.failures(workload, &setup.data, &queries);
    let mut stamp = Stamp::new(workload, seed);
    let mut sorted = measured.latencies_ms;
    sorted.sort_by(f64::total_cmp);
    stamp.num("latency_samples", sorted.len() as f64);
    stamp.num(
        "highest_supported_percentile",
        stats::highest_supported_percentile(sorted.len()).unwrap_or(0.0),
    );
    stamp.num("queries", measured.queries as f64);
    // Recorded but not gated: on a shared host a few stalled queries move
    // the p99 of two sets of identical runs by a third.
    stamp.num("query_p99_ms", stats::percentile_sorted(&sorted, 0.99));
    let mut outcome = Outcome::new(measured.attempted, failed, stamp);
    outcome.metric("setup_s", "s", stats::median(&setup_times));
    outcome.metric("query_mean_ms", "ms", stats::mean(&sorted));
    outcome.metric("query_p50_ms", "ms", stats::percentile_sorted(&sorted, 0.5));
    outcome.metric("query_p95_ms", "ms", stats::percentile_sorted(&sorted, 0.95));
    outcome.metric("query_qps", "1/s", measured.queries as f64 / measured.wall_s);
    Ok(outcome)
}

/// Whether the loop has measured long enough: `seconds`, and enough
/// samples for a p99, but never more than three times `seconds`.
fn done(started: Instant, seconds: f64, samples: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed >= 3.0 * seconds || (elapsed >= seconds && samples >= scenario::MIN_LATENCY_SAMPLES)
}

/// The run's correctness sample: the first answer seen for each of
/// [`CHECKED_QUERIES`] seeded pool positions.
struct Checker {
    checked: Vec<usize>,
    answers: Vec<Option<Vec<(PointId, f64)>>>,
}

impl Checker {
    fn new(seed: u64, pool: usize) -> Checker {
        Checker {
            checked: scenario::checked_positions(seed, pool, CHECKED_QUERIES),
            answers: vec![None; pool],
        }
    }

    fn record(&mut self, pos: usize, neighbors: Vec<(PointId, f64)>) {
        if self.answers[pos].is_none() && self.checked.contains(&pos) {
            self.answers[pos] = Some(neighbors);
        }
    }

    /// Checked positions whose answer differs from a brute-force scan, or
    /// that were never answered: a run too short to check its outputs has
    /// not shown they are correct.
    fn failures(&self, workload: Workload, data: &DenseDataset, queries: &[Vec<f64>]) -> u64 {
        let kind = workload.kind();
        self.checked
            .iter()
            .filter(|&&pos| match &self.answers[pos] {
                Some(got) => {
                    let truth = scenario::brute_force(kind, data, &queries[pos], K);
                    !scenario::same_neighbors(kind, data, &queries[pos], got, &truth)
                }
                None => true,
            })
            .count() as u64
    }
}

/// `fonts-disk`: one client issuing `Index::query` back to back.
fn closed_loop_queries(
    index: &Index,
    queries: &[Vec<f64>],
    checker: &mut Checker,
    seconds: f64,
) -> Measured {
    const WARMUP: usize = 16;
    let mut latencies = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for query in queries.iter().take(WARMUP) {
        let _ = index.query(&QueryRequest::new(query, K));
    }
    let started = Instant::now();
    let mut i = 0usize;
    while !done(started, seconds, latencies.len()) {
        let pos = (WARMUP + i) % queries.len();
        i += 1;
        attempted += 1;
        let t = Instant::now();
        let result =
            catch_unwind(AssertUnwindSafe(|| index.query(&QueryRequest::new(&queries[pos], K))));
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(Ok(outcome)) => checker.record(pos, outcome.neighbors),
            _ => failed += 1,
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Measured { queries: latencies.len(), latencies_ms: latencies, wall_s, attempted, failed }
}

/// `microbatch`: one client sending batches of [`BATCH`] queries back to
/// back through `Index::run_with`; each query waits for its whole batch.
fn closed_loop_batches(
    index: &Index,
    queries: &[Vec<f64>],
    checker: &mut Checker,
    seconds: f64,
) -> Measured {
    const WARMUP_BATCHES: usize = 16;
    let threads = scenario::worker_threads();
    let config = EngineConfig::default().with_threads(threads).with_warm_scratch();
    let run_batch = |rows: &[Vec<f64>]| index.run_with(&Request::uniform(rows, K), config);
    let batches = queries.len() / BATCH;
    for b in 0..WARMUP_BATCHES {
        let _ = run_batch(&queries[(b % batches) * BATCH..][..BATCH]);
    }
    let mut latencies = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut b = 0usize;
    while !done(started, seconds, latencies.len()) {
        let first = ((WARMUP_BATCHES + b) % batches) * BATCH;
        b += 1;
        attempted += BATCH as u64;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run_batch(&queries[first..first + BATCH])));
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(Ok(batch)) if batch.outcomes.len() == BATCH => {
                for (offset, outcome) in batch.outcomes.into_iter().enumerate() {
                    checker.record(first + offset, outcome.neighbors);
                }
            }
            _ => failed += BATCH as u64,
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Measured {
        queries: latencies.len() * BATCH,
        latencies_ms: latencies,
        wall_s,
        attempted,
        failed,
    }
}
