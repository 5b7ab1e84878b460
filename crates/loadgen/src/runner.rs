//! The open-loop dispatcher.
//!
//! Dispatch threads pull operations off a shared cursor, *wait until each
//! operation's intended arrival time*, execute it against the target, and
//! record latency **from the intended arrival** — not from when the
//! operation actually started. When the target cannot keep up, arrivals
//! queue behind the slow operations and that queueing delay lands in the
//! recorded latencies; a closed-loop harness (next op after the previous
//! answer) would silently stretch the schedule instead and hide the
//! backlog. This is the standard coordinated-omission correction.
//!
//! Unsampled queries run with no harness lock at all: the target
//! synchronizes itself, and the harness serializes only the bookkeeping of
//! mutations. Each insert or delete is applied and appended to a mutation
//! log under one mutex. The log length is the run's *version*: a sampled
//! query records the version it executed under, which lets the recall
//! oracle reconstruct the exact ground truth that query should have seen
//! regardless of how threads interleaved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::ops::Operation;
use crate::schedule::Schedule;

/// A serving target whose mutations are internally synchronized: queries,
/// inserts and deletes all take `&self`, and the target guarantees that a
/// mutation never blocks a concurrent query (an LSM-style index with
/// interior mutability and epoch-handoff compaction, say).
///
/// Driven by [`run_open_loop_concurrent`], where the harness holds **no
/// lock at all** around unsampled queries — the latency distribution
/// measures the target's own concurrency, not the harness's.
pub trait ConcurrentServeTarget {
    /// Ids of the `k` nearest neighbors of `query`, best first.
    fn query(&self, query: &[f64], k: usize) -> Vec<u64>;
    /// Insert `row`, returning its assigned id.
    fn insert(&self, row: &[f64]) -> u64;
    /// Delete `id`; `false` if it was not live.
    fn delete(&self, id: u64) -> bool;
}

/// What kind of operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A kNN query.
    Query,
    /// An insert.
    Insert,
    /// A delete (including ones skipped against an empty live set).
    Delete,
}

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Position in the operation stream.
    pub op_index: usize,
    /// Operation kind.
    pub kind: OpKind,
    /// Intended arrival, nanoseconds from run start.
    pub intended_ns: u64,
    /// Completion minus intended arrival, in nanoseconds — includes any
    /// queueing delay behind the schedule.
    pub latency_ns: u64,
}

/// A mutation as actually applied, in application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Row `row_index` of the insert pool became live as `id`.
    Insert {
        /// Assigned external id.
        id: u64,
        /// Row in the insert pool.
        row_index: usize,
    },
    /// `id` was deleted.
    Delete {
        /// The deleted external id.
        id: u64,
    },
}

/// A sampled query answer, for the recall oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecallSample {
    /// Position in the operation stream.
    pub op_index: usize,
    /// Which pool query ran.
    pub query_index: usize,
    /// Mutation-log length when the query executed — the ground truth is
    /// the state after exactly this many mutations.
    pub version: usize,
    /// Ids the target answered, best first.
    pub answer: Vec<u64>,
}

/// Knobs for one open-loop run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Neighbors per query.
    pub k: usize,
    /// Dispatch threads pulling from the schedule.
    pub dispatch_threads: usize,
    /// Leading operations executed but excluded from records and samples
    /// (JIT-style warmup: first-touch page faults, cold caches).
    pub warmup_ops: usize,
    /// Record every `sample_every`-th stream position's query for the
    /// recall oracle; `0` disables sampling.
    pub sample_every: usize,
    /// Ids live before the run starts (typically the base dataset's ids),
    /// eligible for deletion alongside inserted rows.
    pub initial_live: Vec<u64>,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            k: 10,
            dispatch_threads: 1,
            warmup_ops: 0,
            sample_every: 0,
            initial_live: Vec::new(),
        }
    }
}

/// Everything one open-loop run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Post-warmup records, in stream order.
    pub records: Vec<OpRecord>,
    /// Post-warmup sampled query answers, in stream order.
    pub samples: Vec<RecallSample>,
    /// Every applied mutation, in application order (warmup included —
    /// versions index into this log).
    pub log: Vec<Mutation>,
    /// First post-warmup intended arrival to last post-warmup completion,
    /// in nanoseconds (0 when nothing was recorded).
    pub wall_ns: u64,
    /// Deletes that found an empty live set and were skipped.
    pub skipped_deletes: usize,
}

impl RunOutcome {
    /// Completed post-warmup operations per second, measured over
    /// [`RunOutcome::wall_ns`].
    pub fn achieved_qps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.records.len() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Sleep-until with a spin tail: coarse `thread::sleep` until ~200µs out,
/// then yield-spin to the intended instant so dispatch jitter stays well
/// under typical query latencies.
fn wait_until(start: Instant, intended_ns: u64) {
    const SPIN_WINDOW_NS: u64 = 200_000;
    loop {
        let elapsed = start.elapsed().as_nanos() as u64;
        if elapsed >= intended_ns {
            return;
        }
        let remain = intended_ns - elapsed;
        if remain > SPIN_WINDOW_NS {
            std::thread::sleep(Duration::from_nanos(remain - SPIN_WINDOW_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The mutation bookkeeping of a concurrent run: the live-id set, the
/// application-ordered mutation log, and the skipped-delete count, behind
/// one mutex so "log order" and "order the target applied the mutations"
/// are the same order by construction.
struct MutationLedger {
    live: Vec<u64>,
    log: Vec<Mutation>,
    skipped_deletes: usize,
}

/// Drive a [`ConcurrentServeTarget`] with `ops` at the arrival times of
/// `schedule`.
///
/// Operations execute even when the run is behind schedule — late
/// operations start immediately and their lateness is part of their
/// recorded latency. The target synchronizes itself, so the harness
/// serializes only the *bookkeeping* of mutations
/// (one mutex held across `apply mutation + append to log`, which makes
/// the log's order the application order) and takes **no lock around
/// unsampled queries** — a mutation in flight never blocks them, and their
/// recorded latencies expose any stall the target itself introduces.
///
/// A *sampled* query briefly holds the mutation ledger closed while it
/// runs, so its recorded `version` is exactly the state it executed
/// against — that is what lets the recall oracle replay the log serially
/// and demand a bit-identical answer. Sampling is sparse (`sample_every`),
/// so this does not meaningfully serialize the run.
///
/// # Panics
///
/// Panics if `ops` and `schedule` disagree on length, if
/// `dispatch_threads` is zero, or if an insert's `row_index` exceeds the
/// insert pool.
pub fn run_open_loop_concurrent<T: ConcurrentServeTarget + Send + Sync>(
    target: T,
    queries: &[Vec<f64>],
    insert_rows: &[Vec<f64>],
    schedule: &Schedule,
    ops: &[Operation],
    config: &RunnerConfig,
) -> (T, RunOutcome) {
    assert_eq!(ops.len(), schedule.len(), "operation stream and schedule must have equal length");
    assert!(config.dispatch_threads > 0, "at least one dispatch thread is required");

    let ledger = Mutex::new(MutationLedger {
        live: config.initial_live.clone(),
        log: Vec::new(),
        skipped_deletes: 0,
    });
    let cursor = AtomicUsize::new(0);
    let offsets = schedule.offsets_ns();

    let mut per_thread: Vec<(Vec<OpRecord>, Vec<RecallSample>)> = std::thread::scope(|scope| {
        let start = Instant::now();
        let handles: Vec<_> = (0..config.dispatch_threads)
            .map(|_| {
                let target = &target;
                let ledger = &ledger;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut samples = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ops.len() {
                            break;
                        }
                        let intended_ns = offsets[i];
                        wait_until(start, intended_ns);
                        let warm = i < config.warmup_ops;
                        let kind = match ops[i] {
                            Operation::Query { query_index } => {
                                let sampled = !warm
                                    && config.sample_every > 0
                                    && i.is_multiple_of(config.sample_every);
                                if sampled {
                                    // Pin the version: hold the ledger so no
                                    // mutation lands between reading the log
                                    // length and executing the query.
                                    let guard = ledger.lock().unwrap_or_else(|e| e.into_inner());
                                    let version = guard.log.len();
                                    let answer = target.query(&queries[query_index], config.k);
                                    drop(guard);
                                    samples.push(RecallSample {
                                        op_index: i,
                                        query_index,
                                        version,
                                        answer,
                                    });
                                } else {
                                    // The common case: completely lock-free
                                    // from the harness's side.
                                    target.query(&queries[query_index], config.k);
                                }
                                OpKind::Query
                            }
                            Operation::Insert { row_index } => {
                                let mut guard = ledger.lock().unwrap_or_else(|e| e.into_inner());
                                let id = target.insert(&insert_rows[row_index]);
                                guard.live.push(id);
                                guard.log.push(Mutation::Insert { id, row_index });
                                OpKind::Insert
                            }
                            Operation::Delete { pick } => {
                                let mut guard = ledger.lock().unwrap_or_else(|e| e.into_inner());
                                if guard.live.is_empty() {
                                    guard.skipped_deletes += 1;
                                } else {
                                    let slot = (pick % guard.live.len() as u64) as usize;
                                    let id = guard.live.swap_remove(slot);
                                    target.delete(id);
                                    guard.log.push(Mutation::Delete { id });
                                }
                                OpKind::Delete
                            }
                        };
                        if !warm {
                            let done_ns = start.elapsed().as_nanos() as u64;
                            records.push(OpRecord {
                                op_index: i,
                                kind,
                                intended_ns,
                                latency_ns: done_ns.saturating_sub(intended_ns),
                            });
                        }
                    }
                    (records, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("dispatch thread panicked")).collect()
    });

    let mut records = Vec::new();
    let mut samples = Vec::new();
    for (r, s) in per_thread.drain(..) {
        records.extend(r);
        samples.extend(s);
    }
    records.sort_by_key(|r| r.op_index);
    samples.sort_by_key(|s| s.op_index);

    let wall_ns =
        match (records.first(), records.iter().map(|r| r.intended_ns + r.latency_ns).max()) {
            (Some(first), Some(last_done)) => last_done.saturating_sub(first.intended_ns),
            _ => 0,
        };

    let ledger = ledger.into_inner().unwrap_or_else(|e| e.into_inner());
    let outcome = RunOutcome {
        records,
        samples,
        log: ledger.log,
        wall_ns,
        skipped_deletes: ledger.skipped_deletes,
    };
    (target, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{operation_stream, OpMix};

    /// A toy exact target: linear scan under squared Euclidean distance.
    struct ScanTarget {
        rows: Vec<(u64, Vec<f64>)>,
        next_id: u64,
    }

    impl ScanTarget {
        fn new(base: &[Vec<f64>]) -> ScanTarget {
            ScanTarget {
                rows: base.iter().cloned().enumerate().map(|(i, r)| (i as u64, r)).collect(),
                next_id: base.len() as u64,
            }
        }

        fn query(&self, query: &[f64], k: usize) -> Vec<u64> {
            let mut scored: Vec<(f64, u64)> =
                self.rows.iter().map(|(id, r)| (sq_dist(query, r), *id)).collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            scored.into_iter().take(k).map(|(_, id)| id).collect()
        }

        fn insert(&mut self, row: &[f64]) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.rows.push((id, row.to_vec()));
            id
        }

        fn delete(&mut self, id: u64) -> bool {
            match self.rows.iter().position(|(rid, _)| *rid == id) {
                Some(pos) => {
                    self.rows.swap_remove(pos);
                    true
                }
                None => false,
            }
        }
    }

    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// The toy scan target wrapped for the runner: internally synchronized
    /// (one mutex), all methods `&self`.
    struct LockedScanTarget(Mutex<ScanTarget>);

    impl LockedScanTarget {
        fn new(base: &[Vec<f64>]) -> LockedScanTarget {
            LockedScanTarget(Mutex::new(ScanTarget::new(base)))
        }
    }

    impl ConcurrentServeTarget for LockedScanTarget {
        fn query(&self, query: &[f64], k: usize) -> Vec<u64> {
            self.0.lock().unwrap().query(query, k)
        }

        fn insert(&self, row: &[f64]) -> u64 {
            self.0.lock().unwrap().insert(row)
        }

        fn delete(&self, id: u64) -> bool {
            self.0.lock().unwrap().delete(id)
        }
    }

    fn toy_rows(n: usize, salt: u64) -> Vec<Vec<f64>> {
        let mut rng = crate::rng::SplitMix64::new(salt);
        (0..n).map(|_| (0..4).map(|_| rng.next_f64() * 10.0).collect()).collect()
    }

    #[test]
    fn every_operation_is_recorded_exactly_once() {
        let base = toy_rows(50, 1);
        let queries = toy_rows(16, 2);
        let inserts = toy_rows(64, 3);
        let ops = operation_stream(7, OpMix::new(3, 1, 1), 200, queries.len());
        let schedule = Schedule::uniform(50_000.0, ops.len());
        let config = RunnerConfig {
            k: 5,
            dispatch_threads: 2,
            initial_live: (0..50).collect(),
            ..RunnerConfig::default()
        };
        let (_, outcome) = run_open_loop_concurrent(
            LockedScanTarget::new(&base),
            &queries,
            &inserts,
            &schedule,
            &ops,
            &config,
        );
        assert_eq!(outcome.records.len(), ops.len());
        let indexes: Vec<usize> = outcome.records.iter().map(|r| r.op_index).collect();
        assert_eq!(indexes, (0..ops.len()).collect::<Vec<_>>());
        assert_eq!(
            outcome.log.len() + outcome.skipped_deletes,
            crate::ops::insert_count(&ops) + crate::ops::delete_count(&ops)
        );
    }

    #[test]
    fn warmup_ops_execute_but_are_not_recorded() {
        let base = toy_rows(20, 4);
        let queries = toy_rows(8, 5);
        let ops = operation_stream(9, OpMix::query_only(), 100, queries.len());
        let schedule = Schedule::uniform(100_000.0, ops.len());
        let config = RunnerConfig { k: 3, warmup_ops: 30, ..RunnerConfig::default() };
        let (_, outcome) = run_open_loop_concurrent(
            LockedScanTarget::new(&base),
            &queries,
            &[],
            &schedule,
            &ops,
            &config,
        );
        assert_eq!(outcome.records.len(), 70);
        assert!(outcome.records.iter().all(|r| r.op_index >= 30));
    }

    #[test]
    fn concurrent_sampled_answers_match_a_serial_replay() {
        let base = toy_rows(40, 20);
        let queries = toy_rows(10, 21);
        let inserts = toy_rows(96, 22);
        let ops = operation_stream(23, OpMix::new(4, 1, 1), 400, queries.len());
        let schedule = Schedule::uniform(40_000.0, ops.len());
        let config = RunnerConfig {
            k: 5,
            dispatch_threads: 4,
            sample_every: 7,
            initial_live: (0..40).collect(),
            ..RunnerConfig::default()
        };
        let (_, outcome) = run_open_loop_concurrent(
            LockedScanTarget::new(&base),
            &queries,
            &inserts,
            &schedule,
            &ops,
            &config,
        );
        assert!(!outcome.samples.is_empty());
        assert_eq!(
            outcome.log.len() + outcome.skipped_deletes,
            crate::ops::insert_count(&ops) + crate::ops::delete_count(&ops)
        );

        // However the four dispatch threads interleaved, replaying the
        // mutation log serially up to each sample's pinned version must
        // reproduce its answer exactly.
        let mut replay = ScanTarget::new(&base);
        let mut applied = 0usize;
        let mut samples = outcome.samples.clone();
        samples.sort_by_key(|s| s.version);
        for sample in &samples {
            while applied < sample.version {
                match outcome.log[applied] {
                    Mutation::Insert { id, row_index } => {
                        assert_eq!(replay.insert(&inserts[row_index]), id);
                    }
                    Mutation::Delete { id } => {
                        assert!(replay.delete(id));
                    }
                }
                applied += 1;
            }
            assert_eq!(
                replay.query(&queries[sample.query_index], config.k),
                sample.answer,
                "sample at op {} (version {}) diverged from the serial replay",
                sample.op_index,
                sample.version
            );
        }
    }

    #[test]
    fn late_schedules_report_queueing_delay() {
        // A schedule far faster than the target can serve: all arrivals at
        // t=0 except the last. Every record's latency then includes the
        // time it spent queued behind earlier operations.
        let base = toy_rows(400, 9);
        let queries = toy_rows(4, 10);
        let ops = operation_stream(13, OpMix::query_only(), 64, queries.len());
        let schedule = Schedule::uniform(100_000_000.0, ops.len());
        let config = RunnerConfig { k: 5, ..RunnerConfig::default() };
        let (_, outcome) = run_open_loop_concurrent(
            LockedScanTarget::new(&base),
            &queries,
            &[],
            &schedule,
            &ops,
            &config,
        );
        let first = outcome.records.first().unwrap().latency_ns;
        let last = outcome.records.last().unwrap().latency_ns;
        assert!(
            last > first,
            "later arrivals should accumulate queueing delay: first {first}ns last {last}ns"
        );
    }

    #[test]
    fn deletes_against_an_empty_live_set_are_skipped() {
        let base = toy_rows(10, 11);
        let queries = toy_rows(4, 12);
        let ops = vec![Operation::Delete { pick: 3 }, Operation::Delete { pick: 5 }];
        let schedule = Schedule::uniform(10_000.0, ops.len());
        let config = RunnerConfig { k: 2, ..RunnerConfig::default() };
        let (_, outcome) = run_open_loop_concurrent(
            LockedScanTarget::new(&base),
            &queries,
            &[],
            &schedule,
            &ops,
            &config,
        );
        assert_eq!(outcome.skipped_deletes, 2);
        assert!(outcome.log.is_empty());
    }
}
