//! Scatter-gather across shard engines: one thread budget, one merge
//! discipline.
//!
//! A sharded deployment holds N per-shard backends in one process and
//! answers every query by fanning it out to all shards and merging the
//! per-shard top-k lists. This module supplies the two engine-level pieces
//! the façade's `ShardedIndex` builds on:
//!
//! * [`ShardedEngine`] — N inner [`QueryEngine`]s sharing **one** worker
//!   budget. The budget is split across shards ([`split_thread_budget`])
//!   rather than multiplied by them: N shards never run more than `budget`
//!   workers at once, whether the split gives each shard several workers
//!   (budget ≥ N) or rations the shards themselves through a work queue
//!   (budget < N).
//! * [`merge_neighbor_lists`] / [`merge_shard_outcomes`] — the gather side.
//!   Per-shard lists are merged by the engine's canonical `(distance, id)`
//!   total order — the same discipline [`DeltaOverlayBackend`] uses to merge
//!   a backend with its delta — so a merged result is bit-identical to what
//!   one unsharded backend over the union of the shards would return, as
//!   long as each shard reports exact distances.
//!
//! [`DeltaOverlayBackend`]: crate::DeltaOverlayBackend

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bregman::PointId;
use pagestore::IoStats;

use crate::backend::SearchBackend;
use crate::engine::QueryOutcome;
use crate::engine::{BatchResult, EngineConfig, QueryEngine};
use crate::error::EngineError;
use crate::request::EngineRequest;

/// How one worker-thread budget is divided across shard engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSplit {
    /// Worker threads assigned to each shard's engine.
    pub per_shard: Vec<usize>,
    /// How many shard engines may run at the same time.
    pub concurrent: usize,
}

impl ThreadSplit {
    /// The largest number of workers that can be live at once under this
    /// split: the sum of the `concurrent` largest per-shard assignments.
    pub fn max_live_workers(&self) -> usize {
        let mut sorted = self.per_shard.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.iter().take(self.concurrent).sum()
    }
}

/// Split a worker budget across `shards` engines without oversubscribing.
///
/// With `budget >= shards` every shard runs concurrently and the budget is
/// divided as evenly as possible (the first `budget % shards` shards get
/// one extra worker). With `budget < shards` each shard gets a single
/// worker but only `budget` shards run at once — the rest wait in a work
/// queue. Either way at most `budget` workers are ever live, never
/// `shards × budget`.
pub fn split_thread_budget(budget: usize, shards: usize) -> ThreadSplit {
    if shards == 0 {
        return ThreadSplit { per_shard: Vec::new(), concurrent: 0 };
    }
    let budget = budget.max(1);
    if budget >= shards {
        let base = budget / shards;
        let extra = budget % shards;
        ThreadSplit {
            per_shard: (0..shards).map(|s| base + usize::from(s < extra)).collect(),
            concurrent: shards,
        }
    } else {
        ThreadSplit { per_shard: vec![1; shards], concurrent: budget }
    }
}

/// Merge per-shard neighbor lists into one top-`k` by the engine's
/// canonical `(distance, id)` total order.
///
/// The shards hold disjoint slices, so every entry is distinct and the
/// merge is exactly the order an unsharded backend over the union would
/// produce.
pub fn merge_neighbor_lists(lists: &[&[(PointId, f64)]], k: usize) -> Vec<(PointId, f64)> {
    let mut merged: Vec<(PointId, f64)> =
        lists.iter().flat_map(|list| list.iter().copied()).collect();
    merged.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    merged.truncate(k);
    merged
}

/// Gather per-shard batch results into per-query outcomes.
///
/// `ks[qi]` is query `qi`'s requested `k`. Neighbor ids must already be in
/// the caller's global id space (remap before merging). Candidates and
/// physical I/O are summed across shards — every shard really did that
/// work — while the merged latency is the slowest shard's (the critical
/// path of a fan-out).
pub fn merge_shard_outcomes(shard_results: &[BatchResult], ks: &[usize]) -> Vec<QueryOutcome> {
    (0..ks.len())
        .map(|qi| {
            let lists: Vec<&[(PointId, f64)]> =
                shard_results.iter().map(|r| r.outcomes[qi].neighbors.as_slice()).collect();
            let mut io = IoStats::default();
            let mut candidates = 0usize;
            let mut latency_seconds = 0.0f64;
            for result in shard_results {
                let outcome = &result.outcomes[qi];
                io.accumulate(&outcome.io);
                candidates += outcome.candidates;
                latency_seconds = latency_seconds.max(outcome.latency_seconds);
            }
            QueryOutcome {
                neighbors: merge_neighbor_lists(&lists, ks[qi]),
                candidates,
                io,
                latency_seconds,
            }
        })
        .collect()
}

/// N per-shard [`QueryEngine`]s behind one shared worker budget.
///
/// Construction splits the budget with [`split_thread_budget`];
/// [`ShardedEngine::run_requests`] then drives every shard over the same
/// request slice and returns the per-shard [`BatchResult`]s in shard order
/// (gathering — id remapping and merging — is the caller's, because only
/// the caller knows the shard → global id mapping).
///
/// Each shard's engine inherits `scratch` behavior from the config template
/// passed to [`ShardedEngine::with_config`]; per-shard results keep the
/// engine's own guarantee of being independent of worker scheduling, so a
/// sharded run is deterministic for any budget.
pub struct ShardedEngine {
    engines: Vec<QueryEngine>,
    concurrent: usize,
    budget: usize,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.engines.len())
            .field("budget", &self.budget)
            .field("concurrent", &self.concurrent)
            .finish()
    }
}

impl ShardedEngine {
    /// A sharded engine over `backends` sharing `budget` worker threads,
    /// with default per-shard configuration (cold scratch).
    pub fn new(
        backends: Vec<Arc<dyn SearchBackend>>,
        budget: usize,
    ) -> Result<ShardedEngine, EngineError> {
        Self::with_config(backends, budget, EngineConfig::default())
    }

    /// A sharded engine with an explicit per-shard config template; the
    /// template's thread count is ignored (the split budget replaces it).
    pub fn with_config(
        backends: Vec<Arc<dyn SearchBackend>>,
        budget: usize,
        template: EngineConfig,
    ) -> Result<ShardedEngine, EngineError> {
        if backends.is_empty() {
            return Err(EngineError::Config(
                "a sharded engine needs at least one shard backend".to_string(),
            ));
        }
        if budget == 0 {
            return Err(EngineError::Config("shard worker budget must be at least 1".to_string()));
        }
        let split = split_thread_budget(budget, backends.len());
        let engines = backends
            .into_iter()
            .zip(split.per_shard.iter())
            .map(|(backend, &threads)| {
                let mut config = template;
                config.threads = Some(threads);
                QueryEngine::with_config(backend, config)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedEngine { engines, concurrent: split.concurrent, budget })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The shared worker budget the construction split.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// How many shard engines run at once.
    pub fn concurrent_shards(&self) -> usize {
        self.concurrent
    }

    /// The per-shard worker counts the budget was split into.
    pub fn shard_threads(&self) -> Vec<usize> {
        self.engines.iter().map(|e| e.threads()).collect()
    }

    /// The inner per-shard engines, in shard order.
    pub fn engines(&self) -> &[QueryEngine] {
        &self.engines
    }

    /// Run the same request slice against every shard, returning per-shard
    /// results in shard order.
    ///
    /// Shards are pulled from an atomic work queue by the calling thread
    /// and `concurrent_shards − 1` scoped threads, each of which runs its
    /// shard's engine with that shard's slice of the budget (itself
    /// included) — so no more than `budget` threads are ever searching at
    /// once. If any shard fails, the first failure by shard index is
    /// returned.
    pub fn run_requests(
        &self,
        requests: &[EngineRequest<'_>],
    ) -> Result<Vec<BatchResult>, EngineError> {
        self.scatter(|shard| self.engines[shard].run_requests(requests)).into_iter().collect()
    }

    /// Run the same request slice against every shard under a
    /// [`FanoutPolicy`], returning per-shard outcomes in shard order —
    /// `Ok` for shards that answered, [`ShardFailure`] for shards that
    /// exhausted their retry budget, hit the soft deadline, or were skipped
    /// by an open breaker.
    ///
    /// Unlike [`ShardedEngine::run_requests`], a failing shard does not
    /// fail the fan-out: the caller decides whether the surviving shards
    /// constitute an acceptable (degraded or partial) answer. Per-shard
    /// dispatch is wrapped in `catch_unwind`, so a panicking backend is a
    /// recorded failure, not a crashed fan-out. Breaker transitions, retry
    /// counts and panics are recorded in `health`, which the caller keeps
    /// alive across fan-outs (breaker state must outlive any one batch).
    pub fn run_requests_with_policy(
        &self,
        requests: &[EngineRequest<'_>],
        policy: &FanoutPolicy,
        health: &ShardHealth,
    ) -> Vec<Result<BatchResult, ShardFailure>> {
        assert_eq!(
            health.shards(),
            self.engines.len(),
            "the health table must track exactly this engine's shards"
        );
        let started = Instant::now();
        self.scatter(|shard| {
            dispatch_shard_with_policy(
                &self.engines[shard],
                shard,
                requests,
                policy,
                health,
                started,
            )
        })
    }

    /// Run `per_shard` once for every shard and return the results in
    /// shard order. The calling thread and `concurrent_shards − 1` scoped
    /// threads pull shard indices from an atomic cursor, so at most
    /// `concurrent_shards` shards run at once.
    fn scatter<T: Send>(&self, per_shard: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let shards = self.engines.len();
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..shards).map(|_| None).collect());
        let pull = || loop {
            let shard = cursor.fetch_add(1, Ordering::Relaxed);
            if shard >= shards {
                break;
            }
            let result = per_shard(shard);
            slots.lock().unwrap_or_else(|e| e.into_inner())[shard] = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 1..self.concurrent.min(shards) {
                scope.spawn(pull);
            }
            pull();
        });
        slots
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|slot| slot.expect("every shard produced a result"))
            .collect()
    }
}

/// Drive one shard's engine under the policy: breaker admission, bounded
/// retries with decorrelated-jitter backoff, a soft deadline checked
/// between attempts, and panic isolation around the dispatch.
fn dispatch_shard_with_policy(
    engine: &QueryEngine,
    shard: usize,
    requests: &[EngineRequest<'_>],
    policy: &FanoutPolicy,
    health: &ShardHealth,
    fanout_started: Instant,
) -> Result<BatchResult, ShardFailure> {
    if !health.admit(shard) {
        return Err(ShardFailure {
            error: EngineError::Backend(format!(
                "shard {shard} skipped: circuit breaker open ({} consecutive failures)",
                health.consecutive_failures(shard)
            )),
            retries: 0,
            panicked: false,
            skipped: true,
            deadline_exceeded: false,
        });
    }
    let mut retries = 0u32;
    let mut panicked = false;
    let mut deadline_exceeded = false;
    let mut previous_backoff = policy.backoff_base;
    let mut last_error = EngineError::Backend(format!("shard {shard} produced no attempt"));
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            // Soft deadline: never preempt a running attempt, but stop
            // scheduling new ones once the fan-out budget is spent.
            if let Some(deadline) = policy.deadline {
                if fanout_started.elapsed() >= deadline {
                    deadline_exceeded = true;
                    break;
                }
            }
            let backoff = decorrelated_backoff(policy, shard, attempt, previous_backoff);
            previous_backoff = backoff;
            health.retries.fetch_add(1, Ordering::Relaxed);
            retries += 1;
            std::thread::sleep(backoff);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_requests(requests)
        }));
        match outcome {
            Ok(Ok(batch)) => {
                health.on_success(shard);
                return Ok(batch);
            }
            Ok(Err(error)) => {
                // Typed rejections are deterministic: retrying an
                // unsupported option or a misconfiguration cannot succeed.
                let retryable = !matches!(
                    error,
                    EngineError::Config(_) | EngineError::UnsupportedOption { .. }
                );
                last_error = error;
                if !retryable {
                    break;
                }
            }
            Err(payload) => {
                panicked = true;
                health.shard_panics.fetch_add(1, Ordering::Relaxed);
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .map(str::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                last_error =
                    EngineError::Backend(format!("shard {shard} dispatch panicked: {message}"));
            }
        }
    }
    health.on_failure(shard, policy);
    Err(ShardFailure { error: last_error, retries, panicked, skipped: false, deadline_exceeded })
}

/// Deadline, retry and circuit-breaker policy for a resilient fan-out
/// ([`ShardedEngine::run_requests_with_policy`]).
///
/// Retries use *decorrelated jitter*: each backoff is drawn uniformly from
/// `[base, 3 × previous]` and capped, with the draw seeded from
/// `(seed, shard, attempt)` — so a retry schedule replays identically under
/// the same seed, which keeps chaos runs reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutPolicy {
    /// Soft per-shard deadline measured from the start of the fan-out.
    /// Checked *between* attempts (a running engine batch is never
    /// preempted): once exceeded, no further retries are attempted, but a
    /// completed over-deadline attempt still returns its result.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// Lower bound of every backoff draw.
    pub backoff_base: Duration,
    /// Upper cap on any backoff draw.
    pub backoff_cap: Duration,
    /// Consecutive fan-out failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// Fan-outs an open breaker skips before admitting a half-open probe.
    /// Counted in fan-outs, not wall time, so breaker recovery is
    /// deterministic under replay.
    pub breaker_cooldown: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for FanoutPolicy {
    fn default() -> Self {
        Self {
            deadline: None,
            max_retries: 2,
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 3,
            breaker_cooldown: 2,
            seed: 0x5EED,
        }
    }
}

impl FanoutPolicy {
    /// Set the soft per-shard deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the retry budget (retries after the first attempt).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Set the backoff window (`base` lower bound, `cap` upper bound).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Set the breaker's open threshold and cooldown (in fan-outs).
    pub fn with_breaker(mut self, threshold: u32, cooldown: u32) -> Self {
        self.breaker_threshold = threshold.max(1);
        self.breaker_cooldown = cooldown;
        self
    }

    /// Set the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The three circuit-breaker states of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every fan-out is dispatched.
    Closed,
    /// Tripping: fan-outs are skipped (recorded as failures without
    /// dispatch) until the cooldown elapses.
    Open,
    /// Probing: one fan-out is admitted; success closes the breaker,
    /// failure re-opens it.
    HalfOpen,
}

#[derive(Debug)]
struct ShardBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_remaining: u32,
}

/// Per-shard circuit-breaker table shared across fan-outs (and across the
/// short-lived [`ShardedEngine`]s a serving façade builds per batch).
///
/// The table also owns the availability counters the resilient fan-out
/// records into: [`retries`](ShardHealth::retries) (retry attempts
/// dispatched), [`shard_panics`](ShardHealth::shard_panics) and
/// [`breaker_opens`](ShardHealth::breaker_opens) (Closed → Open transitions
/// only — a failed half-open probe re-opens the breaker without
/// incrementing, so "the breaker opened once" stays assertable under
/// probing).
#[derive(Debug)]
pub struct ShardHealth {
    shards: Vec<Mutex<ShardBreaker>>,
    retries: AtomicU64,
    breaker_opens: AtomicU64,
    shard_panics: AtomicU64,
}

impl ShardHealth {
    /// A health table for `shards` shards, all breakers closed.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardBreaker {
                        state: BreakerState::Closed,
                        consecutive_failures: 0,
                        cooldown_remaining: 0,
                    })
                })
                .collect(),
            retries: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            shard_panics: AtomicU64::new(0),
        }
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The breaker state of `shard`.
    pub fn state(&self, shard: usize) -> BreakerState {
        self.shards[shard].lock().unwrap_or_else(|e| e.into_inner()).state
    }

    /// Consecutive fan-out failures recorded against `shard`.
    pub fn consecutive_failures(&self, shard: usize) -> u32 {
        self.shards[shard].lock().unwrap_or_else(|e| e.into_inner()).consecutive_failures
    }

    /// Retry attempts dispatched across all shards.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Closed → Open breaker transitions across all shards.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker_opens.load(Ordering::Relaxed)
    }

    /// Shard dispatches that panicked (caught at the fan-out boundary).
    pub fn shard_panics(&self) -> u64 {
        self.shard_panics.load(Ordering::Relaxed)
    }

    /// Whether this fan-out may dispatch to `shard`. An open breaker counts
    /// down its cooldown and rejects; when the cooldown reaches zero the
    /// breaker moves to half-open and admits one probe.
    fn admit(&self, shard: usize) -> bool {
        let mut breaker = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
        match breaker.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if breaker.cooldown_remaining > 0 {
                    breaker.cooldown_remaining -= 1;
                    false
                } else {
                    breaker.state = BreakerState::HalfOpen;
                    true
                }
            }
        }
    }

    /// Record a successful dispatch: the breaker closes and the failure
    /// streak resets.
    fn on_success(&self, shard: usize) {
        let mut breaker = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
        breaker.state = BreakerState::Closed;
        breaker.consecutive_failures = 0;
    }

    /// Record a failed dispatch (after the retry budget): a closed breaker
    /// opens at the threshold (incrementing `breaker_opens`); a failed
    /// half-open probe re-opens without incrementing.
    fn on_failure(&self, shard: usize, policy: &FanoutPolicy) {
        let mut breaker = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
        breaker.consecutive_failures = breaker.consecutive_failures.saturating_add(1);
        match breaker.state {
            BreakerState::Closed => {
                if breaker.consecutive_failures >= policy.breaker_threshold {
                    breaker.state = BreakerState::Open;
                    breaker.cooldown_remaining = policy.breaker_cooldown;
                    self.breaker_opens.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::HalfOpen | BreakerState::Open => {
                breaker.state = BreakerState::Open;
                breaker.cooldown_remaining = policy.breaker_cooldown;
            }
        }
    }
}

/// Why one shard produced no result in a resilient fan-out.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The last error observed (or a synthetic one for skips).
    pub error: EngineError,
    /// Retries dispatched before giving up.
    pub retries: u32,
    /// Whether a dispatch panicked (caught at the fan-out boundary).
    pub panicked: bool,
    /// Whether the breaker was open and the shard was never dispatched.
    pub skipped: bool,
    /// Whether the soft deadline cut the retry budget short.
    pub deadline_exceeded: bool,
}

/// Deterministic decorrelated-jitter backoff: uniform in
/// `[base, 3 × previous]`, capped, seeded by `(seed, shard, attempt)`.
fn decorrelated_backoff(
    policy: &FanoutPolicy,
    shard: usize,
    attempt: u32,
    previous: Duration,
) -> Duration {
    let base = policy.backoff_base.as_nanos() as u64;
    let high = (previous.as_nanos() as u64).saturating_mul(3).max(base.saturating_add(1));
    let x = splitmix64(
        policy.seed ^ splitmix64(shard as u64 ^ 0x5348_4152_4442_4F21) ^ u64::from(attempt),
    );
    let span = high - base;
    let jittered = base + (x % span.max(1));
    Duration::from_nanos(jittered).min(policy.backoff_cap)
}

/// SplitMix64 — the workspace's standard seed mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_divides_evenly_when_budget_covers_shards() {
        let split = split_thread_budget(8, 3);
        assert_eq!(split.per_shard, vec![3, 3, 2]);
        assert_eq!(split.concurrent, 3);
        assert_eq!(split.max_live_workers(), 8);

        let split = split_thread_budget(4, 4);
        assert_eq!(split.per_shard, vec![1, 1, 1, 1]);
        assert_eq!(split.max_live_workers(), 4);
    }

    #[test]
    fn split_rations_shards_when_budget_is_short() {
        let split = split_thread_budget(3, 8);
        assert_eq!(split.per_shard, vec![1; 8]);
        assert_eq!(split.concurrent, 3);
        assert_eq!(split.max_live_workers(), 3);
    }

    #[test]
    fn split_never_exceeds_the_budget() {
        for budget in 1..=12 {
            for shards in 1..=12 {
                let split = split_thread_budget(budget, shards);
                assert!(
                    split.max_live_workers() <= budget,
                    "budget {budget} over {shards} shards runs {} workers",
                    split.max_live_workers()
                );
                assert_eq!(split.per_shard.iter().sum::<usize>(), budget.max(shards));
            }
        }
        assert_eq!(split_thread_budget(4, 0).per_shard, Vec::<usize>::new());
    }

    #[test]
    fn merge_is_the_delta_overlay_order() {
        let a = [(PointId(4), 1.0), (PointId(9), 2.0)];
        let b = [(PointId(2), 1.0), (PointId(3), 1.0), (PointId(7), 0.5)];
        // Ties break by id; the merge truncates to k.
        let merged = merge_neighbor_lists(&[&a, &b], 4);
        assert_eq!(
            merged,
            vec![(PointId(7), 0.5), (PointId(2), 1.0), (PointId(3), 1.0), (PointId(4), 1.0)]
        );
        assert!(merge_neighbor_lists(&[], 3).is_empty());
    }
}
