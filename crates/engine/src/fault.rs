//! Deterministic fault injection for chaos testing the serving tier.
//!
//! [`FaultInjector`] wraps any [`SearchBackend`] and applies a seeded fault
//! schedule in front of it: transient [`EngineError::Backend`] failures,
//! injected latency spikes, opt-in query-scoped panics, and permanent shard
//! death after a configured operation count. Every decision is a pure
//! function of the plan's seed, the query's content (coordinates and `k`)
//! and how many times that query has been attempted — never of wall-clock
//! time or thread scheduling — so a chaos run replays bit-identically under
//! the same seed, which is what lets the chaos suite assert exact recovery
//! and run in CI without flakes.
//!
//! The schedule is *attempt-gated*: whether a query is fault-prone at all
//! depends only on `(seed, query)`, while [`FaultPlan::transient_depth`]
//! bounds how many attempts fail before the same query deterministically
//! succeeds. A retrying caller therefore recovers the exact answer the
//! unwrapped backend would have produced — the property the fault-tolerant
//! scatter-gather layer is tested against.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bregman::DenseDataset;

use crate::backend::{BackendAnswer, Scratch, SearchBackend};
use crate::error::EngineError;
use crate::request::QueryOptions;

/// Domain-separation salts so the transient, latency and panic schedules
/// draw independent decisions from the same seed.
const SALT_TRANSIENT: u64 = 0x7472_616E_7369_656E; // "transien"
const SALT_LATENCY: u64 = 0x6C61_7465_6E63_7921; // "latency!"
const SALT_PANIC: u64 = 0x7061_6E69_6321_2121; // "panic!!!"

/// A seeded, deterministic fault schedule for one wrapped backend.
///
/// Rates are probabilities in `[0, 1]` evaluated per query (not per
/// operation): a query either is or is not on a schedule, decided by the
/// seed and the query's content. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Fraction of queries that fail with a transient
    /// [`EngineError::Backend`] on their first `transient_depth` attempts.
    pub transient_rate: f64,
    /// How many attempts of a fault-prone query fail before it succeeds.
    pub transient_depth: u64,
    /// Fraction of query attempts delayed by an injected latency spike.
    pub latency_rate: f64,
    /// Duration of each injected spike.
    pub latency: Duration,
    /// Fraction of queries that panic on their first `transient_depth`
    /// attempts (opt-in; default 0).
    pub panic_rate: f64,
    /// Permanent shard death: every operation after the first `n` fails
    /// unconditionally, forever. `Some(0)` means dead from the start.
    pub die_after: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            transient_depth: 1,
            latency_rate: 0.0,
            latency: Duration::from_millis(1),
            panic_rate: 0.0,
            die_after: None,
        }
    }
}

impl FaultPlan {
    /// An empty schedule (injects nothing) under `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Fail this fraction of queries transiently.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate;
        self
    }

    /// Fail fault-prone queries for this many attempts before recovering.
    pub fn with_transient_depth(mut self, depth: u64) -> Self {
        self.transient_depth = depth;
        self
    }

    /// Delay this fraction of query attempts by `latency`.
    pub fn with_latency(mut self, rate: f64, latency: Duration) -> Self {
        self.latency_rate = rate;
        self.latency = latency;
        self
    }

    /// Panic on this fraction of queries (first `transient_depth` attempts).
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Kill the backend permanently after `ops` successful admissions.
    pub fn with_die_after(mut self, ops: u64) -> Self {
        self.die_after = Some(ops);
        self
    }

    /// Check the plan for out-of-range rates.
    pub fn validate(&self) -> Result<(), EngineError> {
        for (name, rate) in [
            ("transient_rate", self.transient_rate),
            ("latency_rate", self.latency_rate),
            ("panic_rate", self.panic_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(EngineError::Config(format!(
                    "fault plan {name} must be a probability in [0, 1], got {rate}"
                )));
            }
        }
        Ok(())
    }
}

/// Shared mutable state of one fault schedule: the operation counter that
/// drives permanent death, the per-query attempt counters that drive
/// transient recovery, and counts of every fault actually injected.
///
/// The state lives behind an [`Arc`] separate from the injector so a caller
/// that re-wraps a backend snapshot per batch (as the façade's sharded tier
/// does) can keep one schedule's history across all of them.
#[derive(Debug, Default)]
pub struct FaultState {
    ops: AtomicU64,
    attempts: Mutex<HashMap<u64, u64>>,
    transients: AtomicU64,
    spikes: AtomicU64,
    panics: AtomicU64,
    dead_rejections: AtomicU64,
}

impl FaultState {
    /// Fresh state: no operations seen, nothing injected.
    pub fn new() -> Self {
        Self::default()
    }

    /// Operations admitted so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Transient failures injected so far.
    pub fn transients(&self) -> u64 {
        self.transients.load(Ordering::SeqCst)
    }

    /// Latency spikes injected so far.
    pub fn spikes(&self) -> u64 {
        self.spikes.load(Ordering::SeqCst)
    }

    /// Panics injected so far.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::SeqCst)
    }

    /// Operations rejected because the shard was permanently dead.
    pub fn dead_rejections(&self) -> u64 {
        self.dead_rejections.load(Ordering::SeqCst)
    }
}

/// A [`SearchBackend`] decorator that injects the faults a [`FaultPlan`]
/// schedules, deterministically. See the module docs for the fault model.
pub struct FaultInjector {
    inner: Arc<dyn SearchBackend>,
    plan: FaultPlan,
    state: Arc<FaultState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .finish()
    }
}

impl FaultInjector {
    /// Wrap `inner` under `plan` with fresh [`FaultState`].
    pub fn new(inner: Arc<dyn SearchBackend>, plan: FaultPlan) -> Result<Self, EngineError> {
        plan.validate()?;
        Ok(Self { inner, plan, state: Arc::new(FaultState::new()) })
    }

    /// Wrap `inner` under `plan`, continuing an existing schedule's
    /// history — the operation and attempt counters in `state` persist
    /// across injectors, so re-wrapping per batch keeps permanent death
    /// permanent and retry recovery monotone.
    pub fn with_state(
        inner: Arc<dyn SearchBackend>,
        plan: FaultPlan,
        state: Arc<FaultState>,
    ) -> Result<Self, EngineError> {
        plan.validate()?;
        Ok(Self { inner, plan, state })
    }

    /// The schedule's shared state (attempt counters, injected-fault
    /// counts).
    pub fn state(&self) -> Arc<FaultState> {
        self.state.clone()
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A uniform draw in `[0, 1)` that depends only on the seed, the
    /// query's content key, the attempt index and the schedule's salt.
    fn roll(&self, key: u64, attempt: u64, salt: u64) -> f64 {
        let x = splitmix64(
            self.plan.seed ^ splitmix64(key ^ salt) ^ splitmix64(attempt.wrapping_add(salt)),
        );
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Apply the schedule for one query attempt; `Ok(())` admits the query
    /// to the wrapped backend.
    fn fault_gate(&self, query: &[f64], k: usize) -> Result<(), EngineError> {
        let op = self.state.ops.fetch_add(1, Ordering::SeqCst);
        if let Some(limit) = self.plan.die_after {
            if op >= limit {
                self.state.dead_rejections.fetch_add(1, Ordering::SeqCst);
                return Err(EngineError::Backend(format!(
                    "injected fault: backend {} is permanently dead (op {op} past limit {limit})",
                    self.inner.name()
                )));
            }
        }
        let key = query_key(query, k);
        let attempt = {
            let mut attempts = self.state.attempts.lock().unwrap_or_else(|e| e.into_inner());
            let entry = attempts.entry(key).or_insert(0);
            let seen = *entry;
            *entry += 1;
            seen
        };
        if self.plan.latency_rate > 0.0
            && self.roll(key, attempt, SALT_LATENCY) < self.plan.latency_rate
        {
            self.state.spikes.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.plan.latency);
        }
        // Panic and transient schedules roll at attempt 0 only: whether the
        // query faults is a property of the query, how long it faults is
        // `transient_depth`. Retries past the depth recover exactly.
        if attempt < self.plan.transient_depth {
            if self.plan.panic_rate > 0.0 && self.roll(key, 0, SALT_PANIC) < self.plan.panic_rate {
                self.state.panics.fetch_add(1, Ordering::SeqCst);
                panic!(
                    "injected fault: query panicked in backend {} (attempt {attempt})",
                    self.inner.name()
                );
            }
            if self.plan.transient_rate > 0.0
                && self.roll(key, 0, SALT_TRANSIENT) < self.plan.transient_rate
            {
                self.state.transients.fetch_add(1, Ordering::SeqCst);
                return Err(EngineError::Backend(format!(
                    "injected fault: transient failure in backend {} (attempt {attempt} of {})",
                    self.inner.name(),
                    self.plan.transient_depth
                )));
            }
        }
        Ok(())
    }
}

impl SearchBackend for FaultInjector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn new_scratch(&self) -> Scratch {
        self.inner.new_scratch()
    }

    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<BackendAnswer, EngineError> {
        self.fault_gate(query, k)?;
        self.inner.knn_with_options(scratch, query, k, options)
    }

    fn save(&self, dir: &Path) -> Result<(), EngineError> {
        self.inner.save(dir)
    }

    fn export_rows(&self) -> Result<DenseDataset, EngineError> {
        self.inner.export_rows()
    }
}

/// SplitMix64 — the same mixer the shard router and load generator use.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the query's coordinate bits and `k`: identical queries share
/// one attempt counter regardless of scheduling, so fault decisions cannot
/// depend on which worker or batch carried the query.
fn query_key(query: &[f64], k: usize) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for value in query {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash ^= k as u64;
    hash.wrapping_mul(0x0000_0100_0000_01B3)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bregman::PointId;
    use pagestore::{BufferPool, IoStats};

    use super::*;

    /// A trivial in-memory backend answering every query with one fixed
    /// neighbor.
    #[derive(Debug)]
    struct FixedAnswer;

    impl SearchBackend for FixedAnswer {
        fn name(&self) -> &str {
            "fixed"
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> usize {
            1
        }
        fn new_scratch(&self) -> Scratch {
            Scratch::new(BufferPool::unbuffered())
        }
        fn knn_with_options(
            &self,
            _scratch: &mut Scratch,
            _query: &[f64],
            _k: usize,
            _options: &QueryOptions,
        ) -> Result<BackendAnswer, EngineError> {
            Ok(BackendAnswer {
                neighbors: vec![(PointId(0), 1.0)],
                candidates: 1,
                io: IoStats::default(),
            })
        }
    }

    fn queries(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, (i * 3) as f64]).collect()
    }

    #[test]
    fn rates_are_validated() {
        let bad = FaultPlan::with_seed(1).with_transient_rate(1.5);
        assert!(matches!(
            FaultInjector::new(Arc::new(FixedAnswer), bad),
            Err(EngineError::Config(_))
        ));
        assert!(FaultPlan::with_seed(1).with_panic_rate(1.0).validate().is_ok());
    }

    #[test]
    fn transient_faults_are_deterministic_and_recover_after_depth() {
        let plan = FaultPlan::with_seed(0xC0FFEE).with_transient_rate(0.4).with_transient_depth(2);
        let run = |qs: &[Vec<f64>]| -> Vec<Vec<bool>> {
            let injector = FaultInjector::new(Arc::new(FixedAnswer), plan.clone()).unwrap();
            let mut scratch = injector.new_scratch();
            qs.iter()
                .map(|q| {
                    (0..4)
                        .map(|_| {
                            injector
                                .knn_with_options(&mut scratch, q, 3, &QueryOptions::none())
                                .is_err()
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let qs = queries(32);
        let first = run(&qs);
        let second = run(&qs);
        assert_eq!(first, second, "the schedule must replay bit-identically");
        let faulted = first.iter().filter(|outcomes| outcomes[0]).count();
        assert!(faulted > 0, "a 40% rate over 32 queries must hit something");
        assert!(faulted < 32, "a 40% rate must not hit everything");
        for outcomes in &first {
            // Attempt-gated: the first two attempts agree, everything past
            // the depth succeeds.
            assert_eq!(outcomes[0], outcomes[1]);
            assert!(!outcomes[2] && !outcomes[3], "queries must recover past the depth");
        }
    }

    #[test]
    fn death_is_permanent_and_state_survives_rewrapping() {
        let plan = FaultPlan::with_seed(7).with_die_after(3);
        let injector = FaultInjector::new(Arc::new(FixedAnswer), plan.clone()).unwrap();
        let state = injector.state();
        let mut scratch = injector.new_scratch();
        let qs = queries(5);
        let outcomes: Vec<bool> = qs
            .iter()
            .map(|q| injector.knn_with_options(&mut scratch, q, 2, &QueryOptions::none()).is_ok())
            .collect();
        assert_eq!(outcomes, vec![true, true, true, false, false]);
        // A fresh injector over the same state stays dead.
        let rewrapped = FaultInjector::with_state(Arc::new(FixedAnswer), plan, state).unwrap();
        assert!(rewrapped
            .knn_with_options(&mut scratch, &qs[0], 2, &QueryOptions::none())
            .is_err());
        assert_eq!(rewrapped.state().dead_rejections(), 3);
    }

    #[test]
    fn panics_are_injected_on_schedule() {
        let plan = FaultPlan::with_seed(3).with_panic_rate(1.0);
        let injector = Arc::new(FaultInjector::new(Arc::new(FixedAnswer), plan).unwrap());
        let q = vec![1.0, 2.0];
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = injector.new_scratch();
            let _ = injector.knn_with_options(&mut scratch, &q, 1, &QueryOptions::none());
        }));
        std::panic::set_hook(hook);
        assert!(caught.is_err(), "a panic rate of 1.0 must panic the first attempt");
        assert_eq!(injector.state().panics(), 1);
        // The second attempt is past the default depth of 1 and succeeds.
        let mut scratch = injector.new_scratch();
        assert!(injector.knn_with_options(&mut scratch, &q, 1, &QueryOptions::none()).is_ok());
    }
}
