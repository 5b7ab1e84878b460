//! The sharded serving tier: [`ShardedIndex`] — N per-shard [`Index`]
//! instances behind one [`ShardSpec`], queried scatter-gather.
//!
//! # Disjoint slices
//!
//! Every point is routed to exactly one shard by a deterministic hash of
//! its external id ([`ShardSpec::route`]), so N shards hold N-th slices of
//! the collection. Queries fan out to every shard and the per-shard top-k
//! lists are merged by the engine's canonical `(distance, id)` order — the
//! same discipline the delta overlay uses — which makes the merged result
//! **bit-identical** to an equivalent unsharded [`Index`] for the exact
//! methods: shard boundaries change which partition trees exist, never the
//! exact divergence a refined candidate is scored with.
//!
//! # Global ids
//!
//! The sharded index owns the external id space. At build, point `i` of the
//! dataset gets global id `i`; [`ShardedIndex::insert`] issues the next
//! global id and routes by it. Each shard's inner [`Index`] issues its
//! *own* dense local ids; because globals are issued monotonically and
//! never reused, shard-local ids map to globals through a sorted per-shard
//! table that is fully derivable from the issue counter — nothing but the
//! counter needs persisting, and lookups are binary searches.
//!
//! # Directory layout
//!
//! [`ShardedIndex::save`] writes a self-describing directory:
//!
//! ```text
//! dir/
//!   shards.meta    sealed envelope: ShardSpec + id issue counter
//!   shard0000/     a full Index directory (spec.meta, artifacts, delta.log)
//!   shard0001/
//!   ...
//! ```
//!
//! [`ShardedIndex::open`] reads the envelope, rejects foreign directory
//! entries, opens every shard through [`Index::open`] (each shard directory
//! re-validates itself), and cross-checks each shard's spec and id counter
//! against what the envelope implies — a shard directory swapped in from
//! another index fails descriptively instead of serving wrong ids.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bregman::{DenseDataset, PointId};
use brepartition_core::CoreError;
use brepartition_engine::{
    merge_neighbor_lists, merge_shard_outcomes, recommended_pool_threads, BatchResult,
    FanoutPolicy, FaultInjector, FaultPlan, FaultState, QueryOutcome, SearchBackend, ShardFailure,
    ShardHealth, ShardedEngine,
};
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError, PersistResult};

use crate::error::{Error, Result};
use crate::index::Index;
use crate::request::{QueryRequest, Request};
use crate::spec::IndexSpec;

/// Magic tag of the shard envelope ([`SHARDS_FILE`]).
pub const SHARDS_MAGIC: [u8; 8] = *b"BREPSHD1";

/// The only format version of the shard envelope this build writes and
/// reads; any other version is rejected. It embeds an [`IndexSpec`]
/// payload, so it changes whenever the spec envelope does.
pub const SHARDS_VERSION: u32 = 5;

/// File name of the shard envelope within a sharded index directory.
pub const SHARDS_FILE: &str = "shards.meta";

/// Upper bound on the shard count (a sanity rail, not a tuning target).
pub const MAX_SHARDS: usize = 1024;

/// A declarative description of one sharded index: the spec every shard is
/// built from plus the shard count.
///
/// ```
/// use brepartition::prelude::*;
///
/// let base = IndexSpec::bbtree(DivergenceKind::SquaredEuclidean).with_page_size(4096);
/// let spec = ShardSpec::capacity(base, 3);
/// assert_eq!(spec.shards, 3);
/// assert_eq!(spec.base, base);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// The spec every shard's inner index is built from.
    pub base: IndexSpec,
    /// Number of shards (at least 1, at most [`MAX_SHARDS`]).
    pub shards: usize,
}

impl ShardSpec {
    /// A spec for `shards` disjoint slices of `base`.
    pub fn capacity(base: IndexSpec, shards: usize) -> Self {
        ShardSpec { base, shards }
    }

    /// Check the spec for contradictions (shard count bounds plus the full
    /// base-spec validation) before anything is built.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::Spec("a sharded index needs at least one shard".to_string()));
        }
        if self.shards > MAX_SHARDS {
            return Err(Error::Spec(format!(
                "shard count {} exceeds the maximum of {MAX_SHARDS}",
                self.shards
            )));
        }
        self.base.validate()
    }

    /// The home shard of external id `id`: a deterministic hash
    /// (SplitMix64) of the id, modulo the shard count. Pure and
    /// platform-independent, so placement never depends on insertion order
    /// or machine.
    pub fn route(&self, id: PointId) -> usize {
        (splitmix64(u64::from(id.0)) % self.shards as u64) as usize
    }

    /// Serialize into a shard-envelope payload (stable format).
    pub(crate) fn write_to(&self, w: &mut ByteWriter) {
        self.base.write_to(w);
        w.put_usize(self.shards);
    }

    /// Inverse of [`ShardSpec::write_to`].
    pub(crate) fn read_from(r: &mut ByteReader<'_>) -> PersistResult<ShardSpec> {
        let base = IndexSpec::read_from(r)?;
        let shards = r.take_usize()?;
        Ok(ShardSpec { base, shards })
    }
}

/// SplitMix64: the routing hash. Fixed constants, no platform dependence.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Subdirectory name of shard `shard` within a sharded index directory.
fn shard_dir_name(shard: usize) -> String {
    format!("shard{shard:04}")
}

/// Inverse of [`shard_dir_name`] (used by the foreign-entry check).
fn parse_shard_dir(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard")?;
    if digits.len() != 4 {
        return None;
    }
    digits.parse().ok()
}

/// Availability of one fault-tolerant sharded batch
/// ([`ShardedIndex::run_with_policy`]): either every shard answered, or the
/// result is explicitly flagged with what was lost — a partial answer is
/// never silently complete.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Outcome {
    /// Every shard answered; the results are exactly what
    /// [`ShardedIndex::run_with_budget`] would have returned.
    Full,
    /// Some slices down and the request opted in via
    /// [`Request::allow_partial`](crate::Request::allow_partial): the
    /// results cover only the surviving shards' disjoint slices.
    Partial {
        /// Slices whose answers were merged.
        shards_answered: usize,
        /// Slices that failed (after retries / breaker skips).
        shards_failed: usize,
        /// Fraction of the live id space on the failed slices — the share
        /// of the collection the answer never looked at.
        unreached_fraction: f64,
    },
}

impl Outcome {
    /// Whether every shard answered.
    pub fn is_full(&self) -> bool {
        matches!(self, Outcome::Full)
    }
}

/// The result of a fault-tolerant sharded batch
/// ([`ShardedIndex::run_with_policy`]): merged per-query outcomes plus the
/// batch's [`Outcome`] flag and per-shard failure detail.
#[derive(Debug, Clone)]
pub struct ResilientBatch {
    /// One merged outcome per query, in submission order (over the shards
    /// that answered).
    pub outcomes: Vec<QueryOutcome>,
    /// Whether the batch covered every shard, and what it lost if not.
    pub availability: Outcome,
    /// Per-shard failure detail, `None` for shards that answered.
    pub shard_failures: Vec<Option<ShardFailure>>,
}

/// N per-shard [`Index`] instances served as one index: scatter-gather
/// queries, routed writes, per-shard compaction, and a self-describing
/// sharded directory. See the [module docs](crate::sharded) for the
/// routing and consistency guarantees.
///
/// ```
/// use brepartition::prelude::*;
///
/// # fn main() -> brepartition::Result<()> {
/// let rows: Vec<Vec<f64>> =
///     (0..48).map(|i| vec![1.0 + i as f64, 2.0 + (i % 7) as f64]).collect();
/// let data = DenseDataset::from_rows(&rows).unwrap();
/// let spec = ShardSpec::capacity(IndexSpec::bbtree(DivergenceKind::SquaredEuclidean), 3);
/// let sharded = ShardedIndex::build(&spec, &data)?;
/// assert_eq!(sharded.len(), 48);
///
/// // Bit-identical to the unsharded index for exact methods.
/// let plain = Index::build(&spec.base, &data)?;
/// let q = [10.0, 4.0];
/// assert_eq!(
///     sharded.query(&QueryRequest::new(&q, 5))?.neighbors,
///     plain.query(&QueryRequest::new(&q, 5))?.neighbors,
/// );
///
/// // Writes route to the owning shard; ids are global and stable.
/// let id = sharded.insert(&[100.0, 100.0])?;
/// assert_eq!(sharded.query(&QueryRequest::new(&[99.0, 99.0], 1))?.neighbors[0].0, id);
/// assert!(sharded.delete(PointId(7))?);
/// sharded.compact()?;
/// assert_eq!(sharded.len(), 48);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ShardedIndex {
    spec: ShardSpec,
    shards: Vec<Index>,
    /// The routing state writers mutate: the global id counter plus the
    /// per-shard local→global tables. Behind one mutex shared across
    /// clones, so [`ShardedIndex::insert`] / [`ShardedIndex::delete`] take
    /// `&self` and racing writers serialize on the router while queries
    /// (which only *read* the tables, briefly, during remap) never wait on
    /// a shard rebuild.
    router: Arc<Mutex<RouterState>>,
    /// Per-shard circuit breakers and availability counters, shared across
    /// clones and across the short-lived engines each batch builds —
    /// breaker state must outlive any one fan-out. Runtime-only: never
    /// persisted, reset by reopen.
    health: Arc<ShardHealth>,
    /// Per-shard fault-injection schedules ([`ShardedIndex::arm_chaos`]);
    /// `None` = the shard serves unwrapped. Runtime-only, for chaos tests.
    chaos: Vec<Option<(FaultPlan, Arc<FaultState>)>>,
    /// Queries answered partial (counted per query, not per batch).
    degraded_queries: Arc<AtomicU64>,
}

/// The mutable routing state of a [`ShardedIndex`], shared across clones
/// behind one mutex (see the `router` field).
struct RouterState {
    /// Per-shard ascending table `local id → global id`, derived from the
    /// issue counter (see the module docs).
    locals: Vec<Vec<u32>>,
    /// The next global external id to issue.
    next_global: u32,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("spec", &self.spec)
            .field("len", &self.len())
            .field("dim", &self.dim())
            .field("next_global", &self.lock_router().next_global)
            .finish()
    }
}

impl ShardedIndex {
    /// Assemble an index from its persistent parts plus fresh runtime
    /// state (health table, chaos schedules, availability counters).
    fn assemble(
        spec: ShardSpec,
        shards: Vec<Index>,
        locals: Vec<Vec<u32>>,
        next_global: u32,
    ) -> ShardedIndex {
        let count = shards.len();
        ShardedIndex {
            spec,
            shards,
            router: Arc::new(Mutex::new(RouterState { locals, next_global })),
            health: Arc::new(ShardHealth::new(count)),
            chaos: vec![None; count],
            degraded_queries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Lock the routing state. The router mutex has no poisoned state worth
    /// recovering: every critical section leaves the tables consistent
    /// before any call that can fail.
    fn lock_router(&self) -> MutexGuard<'_, RouterState> {
        self.router.lock().expect("sharded router lock poisoned")
    }

    /// Build a sharded index over `data` as the spec describes.
    ///
    /// The dataset is sliced by [`ShardSpec::route`] over the global ids
    /// `0..n`; every shard must receive at least one point (no backend
    /// builds over an empty dataset), so an oversized shard count against a
    /// tiny dataset fails with [`Error::Spec`].
    pub fn build(spec: &ShardSpec, data: &DenseDataset) -> Result<ShardedIndex> {
        spec.validate()?;
        let next_global = u32::try_from(data.len()).map_err(|_| {
            Error::Spec(format!("{} points exceed the 32-bit id space", data.len()))
        })?;
        let locals = derive_locals(spec, next_global);
        if let Some(empty) = locals.iter().position(|l| l.is_empty()) {
            return Err(Error::Spec(format!(
                "shard {empty} of {} received no points from a {}-point dataset; every shard \
                 needs at least one point at build — lower the shard count",
                spec.shards,
                data.len()
            )));
        }
        let shards = locals
            .iter()
            .map(|ids| {
                let mut flat = Vec::with_capacity(ids.len() * data.dim());
                for &id in ids {
                    flat.extend_from_slice(data.row(id as usize));
                }
                let slice = DenseDataset::from_flat(data.dim(), flat).map_err(CoreError::from)?;
                Index::build(&spec.base, &slice)
            })
            .collect::<Result<Vec<Index>>>()?;
        Ok(ShardedIndex::assemble(*spec, shards, locals, next_global))
    }

    /// Open a sharded directory written by [`ShardedIndex::save`].
    ///
    /// Self-describing like [`Index::open`]: the shard envelope names the
    /// shard count and per-shard spec; foreign entries in the
    /// directory, a shard whose own envelope disagrees with the shard
    /// spec, or a shard whose id counter contradicts the envelope's global
    /// counter are all rejected descriptively.
    pub fn open(dir: &Path) -> Result<ShardedIndex> {
        let (spec, next_global) = read_shard_envelope(dir)?;
        spec.validate()?;
        check_sharded_directory(dir, &spec)?;
        let mut shards = Vec::with_capacity(spec.shards);
        for s in 0..spec.shards {
            let shard_dir = dir.join(shard_dir_name(s));
            let shard = Index::open(&shard_dir)?;
            let expected = spec.base;
            if *shard.spec() != expected {
                return Err(Error::Mismatch {
                    expected: format!(
                        "shard {s} built from the envelope's per-shard spec ({} over {})",
                        expected.method.name(),
                        expected.divergence.short_name()
                    ),
                    found: format!("an index with a different spec in {}", shard_dir.display()),
                });
            }
            shards.push(shard);
        }
        if let Some(bad) = shards.iter().position(|s| s.dim() != shards[0].dim()) {
            return Err(Error::Mismatch {
                expected: format!("every shard serving {}-dimensional points", shards[0].dim()),
                found: format!("shard {bad} serving {}-dimensional points", shards[bad].dim()),
            });
        }
        let locals = derive_locals(&spec, next_global);
        for (s, shard) in shards.iter().enumerate() {
            let expected_issued = locals[s].len() as u32;
            if shard.delta().next_id() != expected_issued {
                return Err(Error::Mismatch {
                    expected: format!(
                        "shard {s} having issued {expected_issued} ids (derived from the \
                         envelope's global id counter {next_global})"
                    ),
                    found: format!(
                        "a shard directory whose id counter is {} — not a shard of this index",
                        shard.delta().next_id()
                    ),
                });
            }
        }
        Ok(ShardedIndex::assemble(spec, shards, locals, next_global))
    }

    /// Persist the sharded index: one subdirectory per shard (each a full
    /// [`Index::save`] directory) plus the sealed shard envelope
    /// ([`SHARDS_FILE`]). Like the unsharded save, this does not compact —
    /// a reopened index resumes with the same live set and id counter.
    ///
    /// The router lock is held for the duration, so the saved directory is
    /// a consistent cut: every shard snapshot agrees with the envelope's
    /// global id counter even while other clones keep inserting.
    pub fn save(&self, dir: &Path) -> Result<()> {
        let router = self.lock_router();
        std::fs::create_dir_all(dir).map_err(PersistError::from)?;
        for (s, shard) in self.shards.iter().enumerate() {
            shard.save(&dir.join(shard_dir_name(s)))?;
        }
        let mut w = ByteWriter::new();
        self.spec.write_to(&mut w);
        w.put_u32(router.next_global);
        std::fs::write(dir.join(SHARDS_FILE), seal(&SHARDS_MAGIC, SHARDS_VERSION, &w.into_vec()))
            .map_err(PersistError::from)?;
        Ok(())
    }

    /// The spec this sharded index was built (or reopened) with.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `shard`'s inner index (inspection only; route writes through
    /// [`ShardedIndex::insert`] / [`ShardedIndex::delete`]).
    pub fn shard(&self, shard: usize) -> &Index {
        &self.shards[shard]
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    /// Append one point, returning its stable **global** external id.
    ///
    /// Issues the next global id and routes the row to that id's home
    /// shard. The write is visible to queries issued after this call,
    /// exactly as for the unsharded [`Index::insert`]. Racing writers
    /// serialize on the router lock; the global id order *is* the router's
    /// application order.
    pub fn insert(&self, row: &[f64]) -> Result<PointId> {
        let mut router = self.lock_router();
        let id = PointId(router.next_global);
        let shard = self.spec.route(id);
        let local = self.shards[shard].insert(row)?;
        assert_eq!(local.0 as usize, router.locals[shard].len(), "shard-local ids must stay dense");
        router.locals[shard].push(id.0);
        router.next_global += 1;
        Ok(id)
    }

    /// Tombstone a live point by **global** id; idempotent like
    /// [`Index::delete`].
    pub fn delete(&self, id: PointId) -> Result<bool> {
        let router = self.lock_router();
        if id.0 >= router.next_global {
            return Ok(false);
        }
        let shard = self.spec.route(id);
        let local = router.locals[shard]
            .binary_search(&id.0)
            .expect("every issued global id is mapped on its home shard");
        self.shards[shard].delete(PointId(local as u32))
    }

    /// Compact every shard that has pending writes, folding its delta into
    /// a rebuilt backend (global ids survive, as for [`Index::compact`]).
    ///
    /// A shard whose live set has gone empty — every point of its slice
    /// deleted — is **parked**, not failed: its backend is left in
    /// place behind an all-tombstoned delta, it serves no results, and it
    /// resumes normal compaction once a point routes back to it. (Earlier
    /// releases aborted the whole sharded compact with `EmptyDataset`
    /// here.)
    pub fn compact(&self) -> Result<()> {
        for shard in &self.shards {
            shard.compact()?;
        }
        Ok(())
    }

    /// Answer one query: scatter to every shard sequentially (fresh scratch,
    /// no worker pool), gather by `(distance, id)`. An out-of-domain query
    /// is rejected by the first shard's [`Index::query`].
    pub fn query(&self, request: &QueryRequest<'_>) -> Result<QueryOutcome> {
        let started = Instant::now();
        let mut neighbors_per_shard: Vec<Vec<(PointId, f64)>> =
            Vec::with_capacity(self.shards.len());
        let mut candidates = 0usize;
        let mut io = pagestore::IoStats::default();
        for (s, shard) in self.shards.iter().enumerate() {
            let mut outcome = shard.query(request)?;
            self.remap(s, &mut outcome.neighbors);
            candidates += outcome.candidates;
            io.accumulate(&outcome.io);
            neighbors_per_shard.push(outcome.neighbors);
        }
        let lists: Vec<&[(PointId, f64)]> =
            neighbors_per_shard.iter().map(|n| n.as_slice()).collect();
        Ok(QueryOutcome {
            neighbors: merge_neighbor_lists(&lists, request.k()),
            candidates,
            io,
            latency_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Execute a batch with the default worker budget
    /// ([`recommended_pool_threads`]) shared across all shards.
    pub fn run(&self, request: &Request<'_>) -> Result<BatchResult> {
        self.run_with_budget(request, recommended_pool_threads())
    }

    /// Execute a batch with an explicit worker budget.
    ///
    /// The budget is **split** across the per-shard engines (see
    /// [`split_thread_budget`](brepartition_engine::split_thread_budget)) —
    /// N shards never run more than `budget` workers at once. Every shard
    /// serves the batch over its own consistent snapshot (the
    /// [`Index::backend`] semantics), per-shard results are remapped to
    /// global ids and gathered per query, and each merged outcome counts
    /// the work of all shards (candidates and I/O summed, latency the
    /// slowest shard's). Results are independent of the budget, and for
    /// the exact methods independent of the shard count. A batch holding any
    /// out-of-domain query is rejected whole, as in [`Index::run_with`].
    pub fn run_with_budget(&self, request: &Request<'_>, budget: usize) -> Result<BatchResult> {
        request.check_domain(self.spec.base.divergence)?;
        let backends: Vec<Arc<dyn SearchBackend>> =
            self.shards.iter().map(|s| s.backend()).collect();
        let engine = ShardedEngine::new(backends, budget)?;
        let lowered = request.as_engine_requests();
        let mut shard_results = engine.run_requests(&lowered)?;
        for (s, result) in shard_results.iter_mut().enumerate() {
            for outcome in &mut result.outcomes {
                self.remap(s, &mut outcome.neighbors);
            }
        }
        let ks: Vec<usize> = lowered.iter().map(|r| r.k).collect();
        Ok(BatchResult { outcomes: merge_shard_outcomes(&shard_results, &ks) })
    }

    /// The per-shard circuit-breaker table and availability counters this
    /// index records into. Shared across clones; persists across batches
    /// (breaker state must outlive any one fan-out) but is never saved —
    /// a reopened index starts with every breaker closed.
    pub fn health(&self) -> &ShardHealth {
        &self.health
    }

    /// Queries answered partial since this index was assembled.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded_queries.load(Ordering::Relaxed)
    }

    /// Arm per-shard fault-injection schedules for chaos testing: entry `s`
    /// wraps shard `s`'s backend in a
    /// [`brepartition_engine::FaultInjector`] under that
    /// plan on every subsequent [`ShardedIndex::run_with_policy`] batch;
    /// `None` leaves the shard unwrapped. The schedule's state (operation
    /// and attempt counters) persists across batches, so permanent death
    /// stays permanent for the life of this index.
    pub fn arm_chaos(&mut self, plans: Vec<Option<FaultPlan>>) -> Result<()> {
        if plans.len() != self.shards.len() {
            return Err(Error::Spec(format!(
                "chaos plan count {} does not match the shard count {}",
                plans.len(),
                self.shards.len()
            )));
        }
        for plan in plans.iter().flatten() {
            plan.validate()?;
        }
        self.chaos =
            plans.into_iter().map(|plan| plan.map(|p| (p, Arc::new(FaultState::new())))).collect();
        Ok(())
    }

    /// The armed fault schedule's shared state for `shard`, if any
    /// (injected-fault counts, operation counters — what chaos tests
    /// assert against).
    pub fn chaos_state(&self, shard: usize) -> Option<Arc<FaultState>> {
        self.chaos[shard].as_ref().map(|(_, state)| state.clone())
    }

    /// Shard `shard`'s serving backend snapshot, wrapped in its armed
    /// fault injector if chaos is enabled.
    fn serving_backend(&self, shard: usize) -> Result<Arc<dyn SearchBackend>> {
        let backend = self.shards[shard].backend();
        match &self.chaos[shard] {
            None => Ok(backend),
            Some((plan, state)) => Ok(Arc::new(
                FaultInjector::with_state(backend, plan.clone(), state.clone())
                    .map_err(Error::Engine)?,
            )),
        }
    }

    /// Execute a batch fault-tolerantly: per-shard deadlines, bounded
    /// retries with deterministic backoff, circuit breakers and panic
    /// isolation (the engine's
    /// [`run_requests_with_policy`](ShardedEngine::run_requests_with_policy)),
    /// then merge whatever shards answered:
    ///
    /// * Every shard answered → [`Outcome::Full`]; results equal
    ///   [`ShardedIndex::run_with_budget`] exactly.
    /// * Some slices failed → fail fast with
    ///   [`Error::Unavailable`] unless the request opted in via
    ///   [`Request::allow_partial`](crate::Request::allow_partial), in
    ///   which case [`Outcome::Partial`] reports the unreached id-space
    ///   fraction.
    /// * No shard answered → [`Error::Unavailable`] always.
    ///
    /// A batch holding any out-of-domain query is rejected whole before the
    /// fan-out, as in [`Index::run_with`]; no shard or breaker sees it.
    ///
    /// Breaker state and availability counters persist across calls in
    /// [`ShardedIndex::health`].
    pub fn run_with_policy(
        &self,
        request: &Request<'_>,
        budget: usize,
        policy: &FanoutPolicy,
    ) -> Result<ResilientBatch> {
        request.check_domain(self.spec.base.divergence)?;
        let backends =
            (0..self.shards.len()).map(|s| self.serving_backend(s)).collect::<Result<Vec<_>>>()?;
        let engine = ShardedEngine::new(backends, budget)?;
        let lowered = request.as_engine_requests();
        let shard_results = engine.run_requests_with_policy(&lowered, policy, &self.health);

        let mut answered: Vec<BatchResult> = Vec::new();
        let mut answered_shards: Vec<usize> = Vec::new();
        let mut shard_failures: Vec<Option<ShardFailure>> = vec![None; self.shards.len()];
        for (s, result) in shard_results.into_iter().enumerate() {
            match result {
                Ok(mut batch) => {
                    for outcome in &mut batch.outcomes {
                        self.remap(s, &mut outcome.neighbors);
                    }
                    answered.push(batch);
                    answered_shards.push(s);
                }
                Err(failure) => shard_failures[s] = Some(failure),
            }
        }
        let shards_failed = self.shards.len() - answered.len();
        let first_failure = || {
            shard_failures
                .iter()
                .flatten()
                .next()
                .map(|f| f.error.to_string())
                .unwrap_or_else(|| "no failure recorded".to_string())
        };
        if answered.is_empty() {
            return Err(Error::Unavailable {
                shards_failed,
                shards_answered: 0,
                reason: first_failure(),
            });
        }
        let availability = if shards_failed == 0 {
            Outcome::Full
        } else if request.partial_allowed() {
            Outcome::Partial {
                shards_answered: answered.len(),
                shards_failed,
                unreached_fraction: self.unreached_fraction(&answered_shards),
            }
        } else {
            return Err(Error::Unavailable {
                shards_failed,
                shards_answered: answered.len(),
                reason: first_failure(),
            });
        };
        if !availability.is_full() {
            self.degraded_queries.fetch_add(lowered.len() as u64, Ordering::Relaxed);
        }
        let ks: Vec<usize> = lowered.iter().map(|r| r.k).collect();
        let outcomes = merge_shard_outcomes(&answered, &ks);
        Ok(ResilientBatch { outcomes, availability, shard_failures })
    }

    /// Fraction of the live id space on shards *not* in `answered_shards`:
    /// the share of the collection a partial answer never reached.
    fn unreached_fraction(&self, answered_shards: &[usize]) -> f64 {
        let total: usize = self.shards.iter().map(|s| s.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let reached: usize = answered_shards.iter().map(|&s| self.shards[s].len()).sum();
        (total - reached) as f64 / total as f64
    }

    /// Translate shard `shard`'s local neighbor ids to global ids in place.
    ///
    /// Takes the router lock briefly (the tables are append-only, so any
    /// interleaving with a racing insert reads a table at least as long as
    /// the snapshot the ids came from).
    fn remap(&self, shard: usize, neighbors: &mut [(PointId, f64)]) {
        let router = self.lock_router();
        for (id, _) in neighbors.iter_mut() {
            *id = PointId(router.locals[shard][id.0 as usize]);
        }
    }
}

/// Rebuild the per-shard `local → global` tables from the issue counter:
/// globals are issued densely (`0..next_global`) and placed by the routing
/// hash, in ascending order — exactly the order each shard issued its dense
/// local ids, so the tables come out sorted.
fn derive_locals(spec: &ShardSpec, next_global: u32) -> Vec<Vec<u32>> {
    let mut locals = vec![Vec::new(); spec.shards];
    for id in 0..next_global {
        locals[spec.route(PointId(id))].push(id);
    }
    locals
}

/// Reject directory entries a sharded save never writes (the analogue of
/// the unsharded foreign-file check, at the shard-directory level).
fn check_sharded_directory(dir: &Path, spec: &ShardSpec) -> Result<()> {
    for entry in std::fs::read_dir(dir).map_err(PersistError::from)? {
        let entry = entry.map_err(PersistError::from)?;
        let name = entry.file_name();
        let known = name.to_str().is_some_and(|n| {
            n == SHARDS_FILE || parse_shard_dir(n).is_some_and(|s| s < spec.shards)
        });
        if !known {
            return Err(Error::Mismatch {
                expected: format!(
                    "a sharded index directory holding only {SHARDS_FILE} and {} shard \
                     subdirectories ({}..{})",
                    spec.shards,
                    shard_dir_name(0),
                    shard_dir_name(spec.shards - 1)
                ),
                found: format!("foreign entry {:?} in {}", name, dir.display()),
            });
        }
    }
    Ok(())
}

/// Read and unseal the shard envelope of a sharded index directory.
fn read_shard_envelope(dir: &Path) -> Result<(ShardSpec, u32)> {
    let path: PathBuf = dir.join(SHARDS_FILE);
    let bytes = std::fs::read(&path).map_err(|e| {
        Error::Persist(PersistError::Corrupt(format!(
            "directory {} has no readable shard envelope ({SHARDS_FILE}): {e}; unsharded \
             index directories open through Index::open instead",
            dir.display()
        )))
    })?;
    let payload = unseal(&SHARDS_MAGIC, SHARDS_VERSION, &bytes)?;
    let mut r = ByteReader::new(payload);
    let spec = ShardSpec::read_from(&mut r)?;
    let next_global = r.take_u32()?;
    r.expect_end()?;
    Ok((spec, next_global))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Method;
    use bregman::DivergenceKind;

    #[test]
    fn shard_spec_validates_and_roundtrips() {
        let base = IndexSpec::new(Method::VaFile, DivergenceKind::Exponential).with_seed(42);
        let spec = ShardSpec::capacity(base, 5);
        assert!(spec.validate().is_ok());
        assert!(ShardSpec::capacity(base, 0).validate().is_err());
        assert!(ShardSpec::capacity(base, MAX_SHARDS + 1).validate().is_err());

        let mut w = ByteWriter::new();
        spec.write_to(&mut w);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        let restored = ShardSpec::read_from(&mut r).unwrap();
        assert_eq!(restored, spec);
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let spec = ShardSpec::capacity(
            IndexSpec::new(Method::BBTree, DivergenceKind::SquaredEuclidean),
            7,
        );
        let mut seen = [0usize; 7];
        for id in 0..10_000u32 {
            let s = spec.route(PointId(id));
            assert!(s < 7);
            assert_eq!(s, spec.route(PointId(id)), "routing must be pure");
            seen[s] += 1;
        }
        // The hash spreads ids across every shard (coarse balance check).
        for (s, count) in seen.iter().enumerate() {
            assert!(*count > 500, "shard {s} got only {count} of 10000 ids");
        }
    }

    #[test]
    fn shard_dir_names_roundtrip_and_reject_foreigners() {
        assert_eq!(parse_shard_dir(&shard_dir_name(0)), Some(0));
        assert_eq!(parse_shard_dir(&shard_dir_name(123)), Some(123));
        assert_eq!(parse_shard_dir("shard12"), None);
        assert_eq!(parse_shard_dir("shardXXXX"), None);
        assert_eq!(parse_shard_dir("spec.meta"), None);
    }
}
