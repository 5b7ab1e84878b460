//! The concurrent batch query engine.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use bregman::kernel::KernelScratch;
use bregman::PointId;
use pagestore::{BufferPool, IoStats, SharedPageCache};

use crate::backend::{Scratch, SearchBackend};
use crate::error::EngineError;
use crate::pool;
use crate::request::{EngineRequest, QueryOptions};

/// Engine tuning knobs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Threads that serve a batch, the calling thread included: `t`
    /// threads means the caller plus `t − 1` helpers from the engine's
    /// shared pool. `None` (the default) resolves to the machine's
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
    /// Serve batches on exactly `threads` threads, the caller included.
    /// Passing `0` produces a configuration that
    /// [`QueryEngine::with_config`] rejects with [`EngineError::Config`] —
    /// use the default (auto) to size the count from the machine instead.
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

/// The thread count to serve CPU-bound batches with: exactly the
/// machine's available parallelism.
///
/// This deliberately does **not** floor the count above the core count.
/// An earlier version floored it at 4 ("benign oversubscription", so
/// 1-thread-vs-pool rows contrasted even on small machines) — and the
/// benchmark record shows that oversubscription is anything but benign
/// for *tail* latency: on a 1-core machine, 4 workers time-share the CPU
/// and a query that loses the CPU waits out the other workers'
/// scheduler timeslices, so batch p99 jumped from ~0.8 ms (1 thread) to
/// ~12 ms (4 threads) on every backend while QPS stayed flat. The effect
/// reproduces with pure busy-work and no engine code at all (p99 ≈ 4.9 ms
/// at 2 threads, ≈ 13.9 ms at 4 — one and three ~4 ms timeslices): the
/// tail is kernel CPU scheduling, not engine overhead. Since per-query
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
/// The engine shares one immutable index across the threads serving a
/// batch: the calling thread and up to `threads − 1` helpers from one
/// process-wide pool of parked threads, which the first batch that wants a
/// helper starts and every later batch reuses. Each serving thread owns
/// its scratch state (buffer pool, and kernel buffers kept across
/// batches), pulls query indices from the batch's atomic cursor and records
/// its per-query outcomes locally, so the only cross-thread
/// synchronization on the hot path is one `fetch_add` per query. Results
/// are reassembled in submission order, which makes the returned neighbor
/// sets bit-identical regardless of the thread count — the property the
/// determinism tests pin down.
#[derive(Clone)]
pub struct QueryEngine {
    backend: Arc<dyn SearchBackend>,
    config: EngineConfig,
    /// The page capacity of the backend's scratch pools, read once here:
    /// warm batches size their shared cache from it.
    pool_capacity: usize,
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
        let pool_capacity = backend.new_scratch().pool.capacity();
        if config.reuse_scratch && pool_capacity == 0 {
            return Err(EngineError::Config(format!(
                "warm scratch requested but backend {} serves zero-capacity (unbuffered) \
                 pools; a warm pool with no capacity caches nothing — configure the \
                 index with a non-zero buffer-pool size or drop with_warm_scratch",
                backend.name()
            )));
        }
        Ok(Self { backend, config, pool_capacity })
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

    /// The resolved count of threads serving a batch, the caller included.
    pub fn threads(&self) -> usize {
        self.config.threads.unwrap_or_else(recommended_pool_threads)
    }

    /// Execute a batch of uniform queries (same `k`, no per-query options).
    /// Convenience wrapper over [`QueryEngine::run_requests`].
    pub fn run_batch<Q: AsRef<[f64]> + Sync>(
        &self,
        queries: &[Q],
        k: usize,
    ) -> Result<BatchResult, EngineError> {
        let requests: Vec<EngineRequest<'_>> =
            queries.iter().map(|q| EngineRequest::new(q.as_ref(), k)).collect();
        self.run_requests(&requests)
    }

    /// Execute a batch of per-query [`EngineRequest`]s. Each request
    /// carries its own `k` and [`QueryOptions`].
    ///
    /// The calling thread serves the batch itself, joined by up to
    /// `threads − 1` helpers from a process-wide pool of parked threads
    /// (started by the first batch that needs one, never per batch). Helper
    /// jobs must outlive this call's borrows, so the batch's rows are
    /// copied once into the job state.
    ///
    /// Returns per-query outcomes in submission order. If any query fails,
    /// the whole batch is abandoned and the first error (by scheduling
    /// order) is returned.
    pub fn run_requests(&self, requests: &[EngineRequest<'_>]) -> Result<BatchResult, EngineError> {
        let n = requests.len();
        let shared_cache = self.config.reuse_scratch.then_some(self.pool_capacity);
        let batch = Arc::new(Batch::new(self.backend.clone(), requests, shared_cache));
        let helpers = self.threads().min(n).saturating_sub(1);
        pool::submit(helpers, || {
            let batch = batch.clone();
            Box::new(move || batch.help())
        });
        let mut own = Vec::new();
        batch.drain(&mut own);
        batch.finish(own)
    }
}

/// One query of a [`Batch`], holding its own copy of the row.
struct OwnedRequest {
    query: Vec<f64>,
    k: usize,
    options: QueryOptions,
}

/// Who is serving a batch, and what they have gathered so far.
#[derive(Default)]
struct Crew {
    /// Helpers that joined before the caller closed the batch.
    started: usize,
    /// Helpers that have left, normally or by unwinding.
    finished: usize,
    /// Set by the caller once its cursor is drained: later helpers leave
    /// at once, and the caller waits only for the `started` ones.
    closed: bool,
    outcomes: Vec<(usize, QueryOutcome)>,
    /// The failure with the lowest query index seen so far.
    first_error: Option<(usize, EngineError)>,
}

/// The shared state of one batch. It owns everything a helper touches,
/// because a helper's job may still sit in the pool's queue after the
/// batch has returned.
struct Batch {
    backend: Arc<dyn SearchBackend>,
    requests: Vec<OwnedRequest>,
    /// Warm mode (`Some`) shares ONE scan-resistant cache across every thread
    /// serving the batch: a page faulted in by any of them is a hit for
    /// all, so the batch-wide miss count approaches the working-set size
    /// instead of paying it once per thread. Each handle keeps its own
    /// IoStats, so per-query counters still attribute correctly.
    shared_cache: Option<SharedPageCache>,
    cursor: AtomicUsize,
    abort: AtomicBool,
    crew: Mutex<Crew>,
    /// Signalled whenever a helper leaves.
    left: Condvar,
}

thread_local! {
    /// The prepared-query kernel buffers of the thread serving a batch,
    /// kept across batches: they carry no observable state, so reusing
    /// them saves every batch the first queries' allocations.
    static KERNEL: Cell<KernelScratch> = Cell::new(KernelScratch::default());
}

impl Batch {
    /// A batch over `requests`; warm batches pass the capacity of their
    /// shared cache, cold ones `None`.
    fn new(
        backend: Arc<dyn SearchBackend>,
        requests: &[EngineRequest<'_>],
        shared_cache: Option<usize>,
    ) -> Self {
        let requests = requests
            .iter()
            .map(|r| OwnedRequest { query: r.query.to_vec(), k: r.k, options: r.options })
            .collect();
        Self {
            backend,
            requests,
            shared_cache: shared_cache.map(SharedPageCache::new),
            cursor: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            crew: Mutex::new(Crew::default()),
            left: Condvar::new(),
        }
    }

    /// Every update to the crew is a counter bump, a flag, an append or a
    /// replaced error, each valid on its own, so a poisoned guard is
    /// recovered.
    fn crew(&self) -> MutexGuard<'_, Crew> {
        self.crew.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A helper's job: join the batch unless the caller has closed it,
    /// serve from the cursor, and hand the outcomes back on leaving.
    fn help(&self) {
        {
            let mut crew = self.crew();
            if crew.closed {
                return;
            }
            crew.started += 1;
        }
        let mut leaving = Leaving { batch: self, outcomes: Vec::new() };
        self.drain(&mut leaving.outcomes);
    }

    /// Serve queries from the cursor until it runs out or the batch
    /// aborts, pushing each outcome onto `local`.
    fn drain(&self, local: &mut Vec<(usize, QueryOutcome)>) {
        let backend = self.backend.as_ref();
        let fresh_pool = || match &self.shared_cache {
            Some(cache) => BufferPool::with_shared_cache(cache.clone()),
            None => backend.new_scratch().pool,
        };
        let mut scratch = Scratch { pool: fresh_pool(), kernel: KERNEL.take() };
        let mut scratch_used = false;
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.requests.len() || self.abort.load(Ordering::Relaxed) {
                break;
            }
            // Cold mode: every query starts from a fresh pool so its
            // IoStats cannot depend on scheduling. Only the pool is
            // replaced — the kernel buffers stay warm.
            if self.shared_cache.is_none() && scratch_used {
                scratch.pool = fresh_pool();
            }
            scratch_used = true;
            let request = &self.requests[index];
            let query_started = Instant::now();
            // A panicking backend must not unwind out of the batch: catch
            // it at the query boundary and surface it through the same
            // first-error machinery as a typed failure, tagged with the
            // query's index.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                backend.knn_with_options(&mut scratch, &request.query, request.k, &request.options)
            }))
            .unwrap_or_else(|payload| {
                Err(EngineError::Backend(format!(
                    "query worker panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
            match attempt {
                Ok(answer) => local.push((
                    index,
                    QueryOutcome {
                        neighbors: answer.neighbors,
                        candidates: answer.candidates,
                        io: answer.io,
                        latency_seconds: query_started.elapsed().as_secs_f64(),
                    },
                )),
                Err(error) => {
                    let slot = &mut self.crew().first_error;
                    match slot {
                        Some((held, _)) if *held <= index => {}
                        _ => *slot = Some((index, error)),
                    }
                    self.abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        KERNEL.set(scratch.kernel);
    }

    /// The caller's last step: close the batch to latecomers, wait for
    /// every helper that joined, and assemble the outcomes in submission
    /// order — or return the first error.
    fn finish(&self, own: Vec<(usize, QueryOutcome)>) -> Result<BatchResult, EngineError> {
        let mut crew = self.crew();
        crew.closed = true;
        while crew.finished < crew.started {
            crew = self.left.wait(crew).unwrap_or_else(|e| e.into_inner());
        }
        let helped = std::mem::take(&mut crew.outcomes);

        // Backend failures gain the failing query's index; typed errors
        // (unsupported options, config) pass through unchanged so callers
        // can match on them identically in the single-query and batch paths.
        if let Some((index, error)) = crew.first_error.take() {
            return Err(match error {
                EngineError::Backend(message) => EngineError::Query { index, message },
                other => other,
            });
        }

        let mut slots: Vec<Option<QueryOutcome>> = vec![None; self.requests.len()];
        for (index, outcome) in helped.into_iter().chain(own) {
            slots[index] = Some(outcome);
        }
        let outcomes: Vec<QueryOutcome> =
            slots.into_iter().map(|s| s.expect("every query produced an outcome")).collect();
        Ok(BatchResult { outcomes })
    }
}

/// Marks a helper finished when it leaves its batch — also when its job
/// unwinds, so the caller never waits on a helper that is gone.
struct Leaving<'a> {
    batch: &'a Batch,
    outcomes: Vec<(usize, QueryOutcome)>,
}

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        let mut crew = self.batch.crew();
        crew.outcomes.append(&mut self.outcomes);
        crew.finished += 1;
        self.batch.left.notify_all();
    }
}
