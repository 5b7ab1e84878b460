//! The concurrent batch query engine.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bregman::PointId;
use pagestore::{BufferPool, IoStats, SharedPageCache};

use crate::backend::SearchBackend;
use crate::error::EngineError;
use crate::request::EngineRequest;

/// Engine tuning knobs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `None` (the default) resolves to the machine's
    /// available parallelism. An explicit `Some(0)` is a misconfiguration
    /// rejected at engine construction.
    pub threads: Option<usize>,
    /// Reuse each worker's buffer pool across the queries it serves (warm
    /// cache). When `false` (the default) every query starts from a cold
    /// pool, which makes the per-query I/O counters — not just the neighbor
    /// sets — independent of how queries are scheduled onto threads, as in
    /// the paper's per-query measurements.
    pub reuse_scratch: bool,
}

impl EngineConfig {
    /// Use exactly `threads` workers. Passing `0` produces a configuration
    /// that [`QueryEngine::with_config`] rejects with
    /// [`EngineError::Config`] — use the default (auto) to size the pool
    /// from the machine instead.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Keep worker buffer pools warm across queries.
    pub fn with_warm_scratch(mut self) -> Self {
        self.reuse_scratch = true;
        self
    }

    /// Check the configuration for contradictions that would otherwise
    /// panic or silently degrade at query time.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.threads == Some(0) {
            return Err(EngineError::Config(
                "worker thread count must be at least 1 (omit with_threads to size \
                 the pool from the machine's parallelism)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// The worker-pool size to serve CPU-bound batches with: exactly the
/// machine's available parallelism.
///
/// This deliberately does **not** floor the count above the core count.
/// An earlier version floored it at 4 ("benign oversubscription", so
/// 1-thread-vs-pool rows contrasted even on small machines) — and the
/// benchmark record shows that oversubscription is anything but benign
/// for *tail* latency: on a 1-core machine, 4 workers time-share the CPU
/// and a query that loses the CPU waits out the other workers'
/// scheduler timeslices, so batch p99 jumped from ~0.8 ms (1 thread) to
/// ~12 ms (4 threads) on every backend while QPS stayed flat. The effect reproduces with pure busy-work and no
/// engine code at all (p99 ≈ 4.9 ms at 2 threads, ≈ 13.9 ms at 4 — one
/// and three ~4 ms timeslices), and thread spawn/park measures at ~17 µs
/// per batch, so a persistent worker pool would not change it: the tail
/// is kernel CPU scheduling, not engine overhead. Since per-query
/// latency is measured inside each worker, queries themselves are
/// CPU-bound, and extra workers add preemption without adding
/// throughput, the recommendation is now never to exceed the hardware.
/// Callers who want to *study* oversubscription can still pass any
/// explicit count via [`EngineConfig::with_threads`].
pub fn recommended_pool_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Best-effort extraction of a panic payload's message (the `&str` or
/// `String` that `panic!` carries).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.as_str()
    } else {
        "non-string panic payload"
    }
}

/// The result of one query within a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Neighbours as `(id, divergence)`, ordered by increasing divergence.
    pub neighbors: Vec<(PointId, f64)>,
    /// Rows the backend scored exactly for this query.
    pub candidates: usize,
    /// Physical I/O performed for this query.
    pub io: IoStats,
    /// Wall-clock seconds this query spent inside the backend.
    pub latency_seconds: f64,
}

/// The result of [`QueryEngine::run_batch`]: per-query outcomes in query
/// order, independent of scheduling.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One outcome per query, in the order the queries were submitted.
    pub outcomes: Vec<QueryOutcome>,
}

/// A concurrent batch query engine over any [`SearchBackend`].
///
/// The engine shares one immutable index across a pool of worker threads;
/// each worker owns its scratch state (buffer pool), pulls query indices
/// from a shared atomic cursor and records its per-query outcomes locally,
/// so the only cross-thread synchronization on the hot path is one
/// `fetch_add` per query. Results are reassembled in submission order, which
/// makes the returned neighbor sets bit-identical regardless of the thread
/// count — the property the determinism tests pin down.
#[derive(Clone)]
pub struct QueryEngine {
    backend: Arc<dyn SearchBackend>,
    config: EngineConfig,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("backend", &self.backend.name())
            .field("config", &self.config)
            .finish()
    }
}

impl QueryEngine {
    /// An engine over `backend` with the default configuration (which is
    /// always valid).
    pub fn new(backend: Arc<dyn SearchBackend>) -> Self {
        Self::with_config(backend, EngineConfig::default())
            .expect("the default engine configuration is valid")
    }

    /// An engine with explicit configuration.
    ///
    /// The configuration is validated here, before any query runs: an
    /// explicit zero worker-thread count, or a warm-scratch request against
    /// a backend whose scratch pools cannot cache anything (capacity 0),
    /// returns [`EngineError::Config`] instead of panicking or silently
    /// serving with a degraded setup.
    pub fn with_config(
        backend: Arc<dyn SearchBackend>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        config.validate()?;
        if config.reuse_scratch && backend.new_scratch().pool.capacity() == 0 {
            return Err(EngineError::Config(format!(
                "warm scratch requested but backend {} serves zero-capacity (unbuffered) \
                 pools; a warm pool with no capacity caches nothing — configure the \
                 index with a non-zero buffer-pool size or drop with_warm_scratch",
                backend.name()
            )));
        }
        Ok(Self { backend, config })
    }

    /// Convenience constructor boxing a concrete backend.
    pub fn over(backend: impl SearchBackend + 'static) -> Self {
        Self::new(Arc::new(backend))
    }

    /// The backend being served.
    pub fn backend(&self) -> &dyn SearchBackend {
        self.backend.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.config.threads.unwrap_or_else(recommended_pool_threads)
    }

    /// Execute a batch of uniform queries (same `k`, no per-query options)
    /// across the worker pool. Convenience wrapper over
    /// [`QueryEngine::run_requests`].
    pub fn run_batch<Q: AsRef<[f64]> + Sync>(
        &self,
        queries: &[Q],
        k: usize,
    ) -> Result<BatchResult, EngineError> {
        let requests: Vec<EngineRequest<'_>> =
            queries.iter().map(|q| EngineRequest::new(q.as_ref(), k)).collect();
        self.run_requests(&requests)
    }

    /// Execute a batch of per-query [`EngineRequest`]s across the worker
    /// pool. Each request carries its own `k` and
    /// [`QueryOptions`](crate::QueryOptions); rows are borrowed, not cloned.
    ///
    /// Returns per-query outcomes in submission order. If any query fails,
    /// the whole batch is abandoned and the first error (by scheduling
    /// order) is returned.
    pub fn run_requests(&self, requests: &[EngineRequest<'_>]) -> Result<BatchResult, EngineError> {
        let n = requests.len();
        let threads = self.threads().max(1).min(n.max(1));
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let first_error: Mutex<Option<(usize, EngineError)>> = Mutex::new(None);
        let backend = self.backend.as_ref();
        let reuse_scratch = self.config.reuse_scratch;
        // Warm mode shares ONE scan-resistant cache across every worker of
        // the batch: a page faulted in by any worker is a hit for all of
        // them, so the batch-wide miss count approaches the working-set
        // size instead of paying it once per worker. Each handle keeps its
        // own IoStats, so per-query counters still attribute correctly.
        let shared_cache =
            reuse_scratch.then(|| SharedPageCache::new(backend.new_scratch().pool.capacity()));

        let mut per_thread: Vec<Vec<(usize, QueryOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let abort = &abort;
                    let first_error = &first_error;
                    let shared_cache = &shared_cache;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, QueryOutcome)> = Vec::new();
                        let mut scratch = backend.new_scratch();
                        if let Some(cache) = shared_cache {
                            scratch.pool = BufferPool::with_shared_cache(cache.clone());
                        }
                        let mut scratch_used = false;
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            if index >= n || abort.load(Ordering::Relaxed) {
                                break;
                            }
                            // Cold mode: every query starts from a fresh
                            // pool so its IoStats cannot depend on
                            // scheduling. Only the pool is replaced — the
                            // prepared-query kernel buffers carry no
                            // observable state, so they stay warm and the
                            // worker performs no per-query allocation for
                            // gradients or decoded candidates.
                            if !reuse_scratch && scratch_used {
                                scratch.pool = backend.new_scratch().pool;
                            }
                            scratch_used = true;
                            let request = &requests[index];
                            let query_started = Instant::now();
                            // A panicking backend must not unwind through
                            // the scope and poison the whole batch: catch it
                            // at the query boundary and surface it through
                            // the same first-error machinery as a typed
                            // failure, tagged with the query's index.
                            let attempt =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    backend.knn_with_options(
                                        &mut scratch,
                                        request.query,
                                        request.k,
                                        &request.options,
                                    )
                                }))
                                .unwrap_or_else(|payload| {
                                    Err(EngineError::Backend(format!(
                                        "query worker panicked: {}",
                                        panic_message(payload.as_ref())
                                    )))
                                });
                            match attempt {
                                Ok(answer) => {
                                    local.push((
                                        index,
                                        QueryOutcome {
                                            neighbors: answer.neighbors,
                                            candidates: answer.candidates,
                                            io: answer.io,
                                            latency_seconds: query_started.elapsed().as_secs_f64(),
                                        },
                                    ));
                                }
                                Err(error) => {
                                    let mut slot =
                                        first_error.lock().unwrap_or_else(|e| e.into_inner());
                                    match &*slot {
                                        Some((held, _)) if *held <= index => {}
                                        _ => *slot = Some((index, error)),
                                    }
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("engine worker panicked")).collect()
        });

        // Backend failures gain the failing query's index; typed errors
        // (unsupported options, config) pass through unchanged so callers
        // can match on them identically in the single-query and batch paths.
        if let Some((index, error)) = first_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(match error {
                EngineError::Backend(message) => EngineError::Query { index, message },
                other => other,
            });
        }

        let mut slots: Vec<Option<QueryOutcome>> = vec![None; n];
        for locals in per_thread.iter_mut() {
            for (index, outcome) in locals.drain(..) {
                slots[index] = Some(outcome);
            }
        }
        let outcomes: Vec<QueryOutcome> =
            slots.into_iter().map(|s| s.expect("every query produced an outcome")).collect();
        Ok(BatchResult { outcomes })
    }
}
