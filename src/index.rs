//! The [`Index`] façade: one spec-driven build/open/query API over the
//! paper's four methods (BP, ABP, BBT, VAF).
//!
//! # The registry
//!
//! Internally, every `(Method, DivergenceKind)` pair maps to one
//! `RegistryEntry` holding monomorphized `build` and `open` function
//! pointers. The entry is the *only* place that knows which concrete
//! backend type serves the pair; everything above it — [`Index::build`],
//! [`Index::open`], the engine, the bench harness — works with
//! `Arc<dyn SearchBackend>`. This replaces the per-method constructor
//! sprawl (`build_exact`, `bbtree_backend_for_kind`, …) with a single
//! lookup.
//!
//! # The spec envelope (self-describing directories)
//!
//! [`Index::save`] writes the backend's own artifacts plus [`SPEC_FILE`]: a
//! sealed envelope (magic [`SPEC_MAGIC`], FNV-1a checksummed, see
//! [`pagestore::format`]) holding the full [`IndexSpec`]. [`Index::open`]
//! reads that envelope first, so the caller never names a method or
//! divergence — the directory says what it holds — and a directory whose
//! artifacts disagree with its envelope (or that has no envelope at all),
//! or that contains entries no backend of the spec's method would write,
//! fails with a descriptive [`Error`] instead of a decode panic.
//!
//! # Online mutability (the concurrent delta layer)
//!
//! Every backend is built from a static snapshot, so writes are absorbed by
//! a [`DeltaSegment`] riding on the index — a real LSM: [`Index::insert`]
//! appends to the chain's small active generation (sealed generations are
//! immutable and shared by `Arc`), [`Index::delete`] tombstones, queries
//! merge the backend's kNN with an exact prepared-kernel scan of the chain
//! (tombstones filter both sides), and compaction folds the live set back
//! into a freshly built backend through the same registry as
//! [`Index::build`]. All mutators take `&self`: the index state lives
//! behind a short-held interior lock, clones of an `Index` are handles to
//! the *same* index, and writers never block readers — a serving snapshot
//! is a pair of `Arc` bumps plus a copy of the bounded active generation.
//!
//! Compaction runs in two modes. Explicit [`Index::compact`] folds the
//! delta on the spot (or, with background compaction enabled, requests a
//! rebuild from the worker and waits for it). With
//! [`background`](crate::CompactionSpec::background) enabled in the spec,
//! every mutation checks the configured debt ratios and past either
//! threshold schedules a rebuild on the index's dedicated worker thread:
//! the worker pins an epoch (backend + frozen delta frontier), rebuilds off
//! to the side while queries keep serving the old epoch, then swaps
//! atomically — rows inserted and tombstones placed *after* the frontier
//! are carried into the new epoch, so no write is ever lost to a rebuild.
//! Compacting an index whose live set is empty parks it (backend kept,
//! every base point tombstoned) instead of erroring, so a fully drained
//! index stays openable and writable.
//!
//! External ids are stable across compactions: the delta carries the
//! backend-internal → external id mapping, and an id, once issued, is
//! never reused. [`Index::save`] persists the delta as a sealed
//! [`DELTA_FILE`] log next to the spec envelope (the chain flattens to one
//! single-segment log); [`Index::open`] replays it, and a directory without
//! one is rejected, since a missing log would silently drop pending inserts
//! and revive deleted points. Batch serving sees a *consistent snapshot per
//! batch*: the serving handle returned by [`Index::backend`] (and used by
//! [`Index::run`]) freezes the delta at construction, so writes become
//! visible at the next batch boundary, never in the middle of one.
//!
//! Serving a collection too large for one index is the job of the sharded
//! tier: [`ShardedIndex`](crate::ShardedIndex) owns N of these `Index`
//! instances and scatter-gathers over them, reusing the envelope machinery
//! here for its own `shards.meta` (each shard subdirectory is a full,
//! self-describing `Index` directory).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Instant;

use bregman::{
    DecomposableBregman, DenseDataset, DivergenceKind, Exponential, GeneralizedI, ItakuraSaito,
    PointId, SquaredEuclidean,
};
pub use brepartition_core::delta::DELTA_FILE;
use brepartition_core::{BrePartitionIndex, CoreError, DeltaSegment};
use brepartition_engine::{
    BBTreeBackend, BatchResult, BrePartitionBackend, DeltaOverlayBackend, EngineConfig,
    QueryEngine, QueryOutcome, SearchBackend, VaFileBackend,
};
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError};

use crate::error::{Error, Result};
use crate::request::{QueryRequest, Request};
use crate::spec::{IndexSpec, Method};

/// Magic tag of the spec envelope ([`SPEC_FILE`]).
pub const SPEC_MAGIC: [u8; 8] = *b"BREPSPC1";

/// The only format version of the spec envelope this build writes and
/// reads; any other version is rejected.
pub const SPEC_VERSION: u32 = 5;

/// File name of the spec envelope within an index directory.
pub const SPEC_FILE: &str = "spec.meta";

type BuildFn = fn(&IndexSpec, &DenseDataset) -> Result<Arc<dyn SearchBackend>>;
type OpenFn = fn(&IndexSpec, &Path) -> Result<Arc<dyn SearchBackend>>;

/// Files the BrePartition backend writes into an index directory.
const BRE_ARTIFACTS: &[&str] =
    &[brepartition_core::persist::META_FILE, brepartition_core::persist::PAGES_FILE];
/// Files the BBT baseline writes into an index directory.
const BBT_ARTIFACTS: &[&str] =
    &[bbtree::disk::TREE_FILE, bbtree::disk::PAGES_FILE, bbtree::disk::PHI_FILE];
/// Files the VA-file baseline writes into an index directory.
const VAF_ARTIFACTS: &[&str] = &[vafile::search::META_FILE, vafile::search::PAGES_FILE];

/// One `(Method, DivergenceKind)` pair's constructors, plus the artifact
/// files its `save` path writes (the allowlist `Index::open` enforces —
/// kept next to the constructors so a backend growing a new artifact
/// cannot drift apart from the directory check).
struct RegistryEntry {
    method: Method,
    divergence: DivergenceKind,
    build: BuildFn,
    open: OpenFn,
    artifacts: &'static [&'static str],
}

/// Build a BrePartition backend (exact or approximate per the spec).
fn build_bre(spec: &IndexSpec, data: &DenseDataset) -> Result<Arc<dyn SearchBackend>> {
    let index = BrePartitionIndex::build(spec.divergence, data, &spec.brepartition_config())?;
    Ok(wrap_bre(spec, index))
}

/// Open a BrePartition backend, cross-checking the index envelope's
/// divergence against the spec envelope before the full restore.
fn open_bre(spec: &IndexSpec, dir: &Path) -> Result<Arc<dyn SearchBackend>> {
    let found = BrePartitionIndex::peek_kind(dir)?;
    if found != spec.divergence {
        return Err(Error::Mismatch {
            expected: format!(
                "a {} index under divergence {}",
                spec.method.name(),
                spec.divergence.short_name()
            ),
            found: format!("BrePartition artifacts under divergence {}", found.short_name()),
        });
    }
    Ok(wrap_bre(spec, BrePartitionIndex::open(dir)?))
}

/// Serve `index` exactly at probability 1 and approximately (ABP) below it.
fn wrap_bre(spec: &IndexSpec, index: BrePartitionIndex) -> Arc<dyn SearchBackend> {
    if spec.probability < 1.0 {
        Arc::new(BrePartitionBackend::approximate(index, spec.approximate_config()))
    } else {
        Arc::new(BrePartitionBackend::exact(index))
    }
}

/// Build a BBT baseline backend for divergence `B`.
fn build_bbt<B: DecomposableBregman + Default + Send + Sync + 'static>(
    spec: &IndexSpec,
    data: &DenseDataset,
) -> Result<Arc<dyn SearchBackend>> {
    Ok(Arc::new(
        BBTreeBackend::build(B::default(), data, spec.bbtree_config(), spec.store_config())
            .with_scratch_pool_pages(spec.storage.buffer_pool_pages),
    ))
}

/// Open a BBT baseline backend for divergence `B`.
fn open_bbt<B: DecomposableBregman + Default + Send + Sync + 'static>(
    spec: &IndexSpec,
    dir: &Path,
) -> Result<Arc<dyn SearchBackend>> {
    // DiskBBTree::open verifies the persisted divergence name itself.
    Ok(Arc::new(
        BBTreeBackend::open(B::default(), dir)
            .map_err(|e| backend_open_error("BBTree", e))?
            .with_scratch_pool_pages(spec.storage.buffer_pool_pages),
    ))
}

/// Build a VA-file baseline backend for divergence `B`.
fn build_vaf<B: DecomposableBregman + Default + Send + Sync + 'static>(
    spec: &IndexSpec,
    data: &DenseDataset,
) -> Result<Arc<dyn SearchBackend>> {
    Ok(Arc::new(
        VaFileBackend::build(B::default(), data, spec.vafile_config())
            .with_scratch_pool_pages(spec.storage.buffer_pool_pages),
    ))
}

/// Open a VA-file baseline backend for divergence `B`.
fn open_vaf<B: DecomposableBregman + Default + Send + Sync + 'static>(
    spec: &IndexSpec,
    dir: &Path,
) -> Result<Arc<dyn SearchBackend>> {
    // VaFile::open verifies the persisted divergence name itself.
    Ok(Arc::new(
        VaFileBackend::open(B::default(), dir)
            .map_err(|e| backend_open_error("VaFile", e))?
            .with_scratch_pool_pages(spec.storage.buffer_pool_pages),
    ))
}

fn backend_open_error(method: &str, e: brepartition_engine::EngineError) -> Error {
    Error::Persist(PersistError::Corrupt(format!("opening {method} artifacts failed: {e}")))
}

/// One registry row per divergence for a divergence-generic method.
macro_rules! per_divergence {
    ($method:expr, $build:ident, $open:ident, $artifacts:expr) => {
        [
            RegistryEntry {
                method: $method,
                divergence: DivergenceKind::SquaredEuclidean,
                build: $build::<SquaredEuclidean>,
                open: $open::<SquaredEuclidean>,
                artifacts: $artifacts,
            },
            RegistryEntry {
                method: $method,
                divergence: DivergenceKind::ItakuraSaito,
                build: $build::<ItakuraSaito>,
                open: $open::<ItakuraSaito>,
                artifacts: $artifacts,
            },
            RegistryEntry {
                method: $method,
                divergence: DivergenceKind::Exponential,
                build: $build::<Exponential>,
                open: $open::<Exponential>,
                artifacts: $artifacts,
            },
            RegistryEntry {
                method: $method,
                divergence: DivergenceKind::GeneralizedI,
                build: $build::<GeneralizedI>,
                open: $open::<GeneralizedI>,
                artifacts: $artifacts,
            },
        ]
    };
}

/// The registry. BrePartition dispatches on `DivergenceKind` inside the
/// core (one entry per divergence keeps the key uniform); the baselines
/// monomorphize per divergence here.
fn registry() -> [RegistryEntry; 12] {
    let [a0, a1, a2, a3] = DivergenceKind::ALL.map(|divergence| RegistryEntry {
        method: Method::BrePartition,
        divergence,
        build: build_bre,
        open: open_bre,
        artifacts: BRE_ARTIFACTS,
    });
    let [b0, b1, b2, b3] = per_divergence!(Method::BBTree, build_bbt, open_bbt, BBT_ARTIFACTS);
    let [c0, c1, c2, c3] = per_divergence!(Method::VaFile, build_vaf, open_vaf, VAF_ARTIFACTS);
    [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3]
}

/// Look up the registry entry for a `(Method, DivergenceKind)` key.
fn registry_entry(method: Method, divergence: DivergenceKind) -> Result<RegistryEntry> {
    registry().into_iter().find(|e| e.method == method && e.divergence == divergence).ok_or_else(
        || {
            Error::Spec(format!(
                "no registered backend for method {} over divergence {}",
                method.name(),
                divergence.short_name()
            ))
        },
    )
}

/// A ready-to-query kNN index: any [`Method`] over any [`DivergenceKind`],
/// behind one type.
///
/// ```no_run
/// use brepartition::{Index, IndexSpec, QueryRequest, Request};
/// use brepartition::bregman::{DenseDataset, DivergenceKind};
///
/// # fn main() -> brepartition::Result<()> {
/// let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
/// let data = DenseDataset::from_rows(&rows).unwrap();
/// let spec = IndexSpec::brepartition(DivergenceKind::ItakuraSaito);
/// let index = Index::build(&spec, &data)?;
/// index.save("idx".as_ref())?;
///
/// let reopened = Index::open("idx".as_ref())?; // method + divergence from the envelope
/// let result = reopened.query(&QueryRequest::new(&rows[0], 1))?;
/// assert_eq!(result.neighbors.len(), 1);
/// let batch = reopened.run(&Request::uniform(&rows, 2))?;
/// assert_eq!(batch.outcomes.len(), 2);
/// # Ok(())
/// # }
/// ```
/// Cloning an `Index` is cheap and yields another **handle to the same
/// index**: clones share the backend, the delta chain and the compaction
/// worker, so a write through one handle is visible to queries through any
/// other (at the next batch boundary). This is what lets mutator threads
/// and query threads race the same index safely — every mutator takes
/// `&self`.
#[derive(Clone)]
pub struct Index {
    shared: Arc<IndexShared>,
}

/// The serving state of one epoch: the static backend and the delta chain
/// riding on it. Swapped wholesale (under the short state lock) when a
/// compaction lands.
struct EpochState {
    backend: Arc<dyn SearchBackend>,
    delta: DeltaSegment,
}

/// State shared by every handle (clone) of one [`Index`].
struct IndexShared {
    spec: IndexSpec,
    dim: usize,
    /// The epoch state. Held for O(1)-ish critical sections only: append a
    /// row, place a tombstone, clone the snapshot, swap the epoch — never
    /// across a backend build or a query.
    state: Mutex<EpochState>,
    /// Serializes compaction runs (worker and inline callers alike).
    /// Mutators and queries never take it, so a running rebuild blocks
    /// neither.
    compaction_lock: Mutex<()>,
    /// The lazily spawned background compaction worker.
    worker: Mutex<Option<Compactor>>,
    /// Epoch counter: bumped once per landed compaction swap.
    epoch: AtomicU64,
    /// Completed compactions (successful swaps, including parks).
    compactions: AtomicU64,
    /// Total nanoseconds spent rebuilding inside compactions.
    compaction_nanos: AtomicU64,
}

/// Handle to the background compaction worker thread.
struct Compactor {
    /// Requests: monotone tickets; the worker drains the queue and serves
    /// the highest ticket it saw with one rebuild.
    tx: mpsc::Sender<u64>,
    /// Ticket allocator.
    tickets: AtomicU64,
    /// Completion state the worker publishes and waiters block on.
    completion: Arc<Completion>,
    join: Option<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct Completion {
    state: Mutex<CompletionState>,
    cv: Condvar,
}

#[derive(Default)]
struct CompletionState {
    /// Highest ticket whose compaction run has finished.
    completed: u64,
    /// Error of the most recent run, if it failed (the index is unchanged
    /// then — queries keep serving the old epoch).
    last_error: Option<String>,
}

impl IndexShared {
    fn lock_state(&self) -> MutexGuard<'_, EpochState> {
        self.state.lock().expect("index state lock poisoned")
    }
}

impl Drop for IndexShared {
    fn drop(&mut self) {
        let compactor = match self.worker.get_mut() {
            Ok(slot) => slot.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        if let Some(mut compactor) = compactor {
            // Dropping the sender ends the worker's receive loop.
            drop(compactor.tx);
            if let Some(join) = compactor.join.take() {
                // The last handle can be dropped *by* the worker itself (it
                // holds a temporary upgrade while compacting); a thread
                // must not join itself.
                if join.thread().id() != std::thread::current().id() {
                    let _ = join.join();
                }
            }
        }
    }
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.lock_state();
        f.debug_struct("Index")
            .field("spec", &self.shared.spec)
            .field("backend", &st.backend.name())
            .field("len", &st.delta.live_len())
            .field("dim", &self.shared.dim)
            .field("delta_rows", &st.delta.delta_rows())
            .field("tombstones", &st.delta.tombstone_count())
            .field("epoch", &self.shared.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

/// Whether a compaction over this delta state would change anything.
///
/// Nothing pending is the obvious no-op. A **parked** segment — live set
/// empty, chain drained, every base point tombstoned — is also a no-op: no
/// backend can be built over zero points, and parking again would produce
/// the identical state. Both cases must not bump the epoch or schedule
/// work; a delete of a never-issued or already-dead id leaves the segment
/// in exactly the state it was, so it also never makes this predicate flip.
fn compaction_is_noop(delta: &DeltaSegment) -> bool {
    if !delta.has_pending_writes() {
        return true;
    }
    delta.delta_rows() == 0
        && delta.base_tombstone_count() == delta.base_len()
        && delta.tombstone_count() == delta.base_tombstone_count()
}

/// Whether the delta's debt crosses the spec's background-compaction
/// thresholds.
fn over_threshold(spec: &IndexSpec, delta: &DeltaSegment) -> bool {
    if !spec.compaction.background || compaction_is_noop(delta) {
        return false;
    }
    let rows = delta.delta_rows() as f64;
    let tombstones = delta.tombstone_count() as f64;
    let base = delta.base_len().max(1) as f64;
    let live = delta.live_len().max(1) as f64;
    rows >= spec.compaction.max_delta_ratio * base
        || tombstones >= spec.compaction.max_tombstone_ratio * live
}

/// One compaction run: pin a frontier, rebuild off to the side, swap.
///
/// The frontier is a snapshot of the epoch state taken under the short
/// state lock (the active generation is sealed first, so the snapshot
/// shares every row with the live chain by reference). The rebuild — the
/// expensive part — runs with **no lock held**: mutators keep appending and
/// queries keep serving the old epoch. At swap time the state lock is
/// retaken briefly to reconcile everything that happened after the
/// frontier: rows with ids at or beyond the frontier's issue counter are
/// carried into the rebased segment verbatim (ids are monotone and never
/// reused, which is what makes this sound), and tombstones placed since the
/// frontier are re-applied. An empty live set parks the index instead of
/// erroring. Runs are serialized by `compaction_lock`.
fn compact_once(shared: &IndexShared) -> Result<()> {
    let _serialized = shared.compaction_lock.lock().expect("compaction lock poisoned");
    let started = Instant::now();
    let (backend, frontier) = {
        let mut st = shared.lock_state();
        if compaction_is_noop(&st.delta) {
            return Ok(());
        }
        st.delta.seal();
        (Arc::clone(&st.backend), st.delta.clone())
    };

    let dim = backend.dim();
    let base = backend.export_rows()?;
    let mut flat: Vec<f64> = Vec::with_capacity(frontier.live_len() * dim);
    let mut ids: Vec<u32> = Vec::with_capacity(frontier.live_len());
    for (internal, external) in frontier.live_base_entries() {
        flat.extend_from_slice(base.row(internal));
        ids.push(external.0);
    }
    for (id, _phi, row) in frontier.live_delta_rows() {
        flat.extend_from_slice(row);
        ids.push(id.0);
    }
    let (new_backend, template) = if ids.is_empty() {
        // Nothing live at the frontier: park. The old backend stays (fully
        // tombstoned), the chain is drained, the index remains writable.
        (None, frontier.parked())
    } else {
        let live = DenseDataset::from_flat(dim, flat).map_err(CoreError::from)?;
        let entry = registry_entry(shared.spec.method, shared.spec.divergence)?;
        let built = (entry.build)(&shared.spec, &live)?;
        let rebased = DeltaSegment::rebased(shared.spec.divergence, dim, ids, frontier.next_id())
            .map_err(Error::Core)?;
        (Some(built), rebased)
    };

    {
        let mut st = shared.lock_state();
        let mut next = template;
        for (id, row) in st.delta.delta_rows_from(frontier.next_id()) {
            next.carry_row(id, row).map_err(Error::Core)?;
        }
        for id in st.delta.tombstone_ids() {
            if !frontier.is_tombstoned(PointId(id)) {
                next.delete(PointId(id));
            }
        }
        if let Some(backend) = new_backend {
            st.backend = backend;
        }
        st.delta = next;
        shared.epoch.fetch_add(1, Ordering::Relaxed);
    }
    shared.compactions.fetch_add(1, Ordering::Relaxed);
    shared.compaction_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(())
}

/// The background worker's receive loop: drain queued tickets, serve the
/// highest with one rebuild, publish completion. Exits when every `Index`
/// handle is gone (the sender lives in `IndexShared`, so dropping the last
/// handle closes the channel).
fn compaction_worker(
    shared: Weak<IndexShared>,
    rx: mpsc::Receiver<u64>,
    completion: Arc<Completion>,
) {
    while let Ok(first) = rx.recv() {
        let mut ticket = first;
        while let Ok(more) = rx.try_recv() {
            ticket = ticket.max(more);
        }
        let error = match shared.upgrade() {
            Some(shared) => compact_once(&shared).err().map(|e| e.to_string()),
            None => break,
        };
        let mut st = completion.state.lock().expect("compaction completion lock poisoned");
        st.completed = st.completed.max(ticket);
        st.last_error = error;
        completion.cv.notify_all();
    }
}

impl Index {
    /// Build an index over `data` as the spec describes.
    ///
    /// The spec is validated first; an invalid knob returns
    /// [`Error::Spec`] before any work happens. A row with a coordinate
    /// outside the divergence's domain fails with [`Error::Core`] wrapping
    /// `BregmanError::OutOfDomain`, the error an insert of that row gets.
    pub fn build(spec: &IndexSpec, data: &DenseDataset) -> Result<Index> {
        spec.validate()?;
        spec.divergence.check_domain(data.as_flat()).map_err(CoreError::Bregman)?;
        let entry = registry_entry(spec.method, spec.divergence)?;
        let backend = (entry.build)(spec, data)?;
        let delta = DeltaSegment::new(spec.divergence, backend.dim(), backend.len())
            .map_err(Error::Core)?;
        Ok(Index::from_parts(*spec, backend, delta))
    }

    /// Assemble the shared state around a freshly built or opened backend.
    fn from_parts(spec: IndexSpec, backend: Arc<dyn SearchBackend>, delta: DeltaSegment) -> Index {
        let dim = backend.dim();
        let shared = IndexShared {
            spec,
            dim,
            state: Mutex::new(EpochState { backend, delta }),
            compaction_lock: Mutex::new(()),
            worker: Mutex::new(None),
            epoch: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_nanos: AtomicU64::new(0),
        };
        Index { shared: Arc::new(shared) }
    }

    /// Open an index directory written by [`Index::save`].
    ///
    /// The directory is self-describing: the spec envelope ([`SPEC_FILE`])
    /// names the method and divergence, so no caller-side dispatch is
    /// needed. A directory without an envelope (e.g. one written by a
    /// backend-level `save` call), whose artifacts disagree with its
    /// envelope, or that holds entries no backend of the spec's method
    /// writes (a foreign file dropped into the directory), fails with a
    /// descriptive error. The delta log ([`DELTA_FILE`]) is replayed; a
    /// missing log is an error. Every artifact has exactly one format
    /// version, and any other is rejected with [`Error::Persist`].
    pub fn open(dir: &Path) -> Result<Index> {
        let spec = read_spec(dir)?;
        // The envelope itself round-trips through the same validation as a
        // caller-constructed spec.
        spec.validate()?;
        let entry = registry_entry(spec.method, spec.divergence)?;
        check_directory_entries(dir, &spec, entry.artifacts)?;
        let backend = (entry.open)(&spec, dir)?;
        let bytes = std::fs::read(dir.join(DELTA_FILE)).map_err(PersistError::from)?;
        let delta =
            DeltaSegment::from_log_bytes(&bytes, spec.divergence, backend.dim(), backend.len())
                .map_err(Error::Core)?;
        Ok(Index::from_parts(spec, backend, delta))
    }

    /// Persist the index (backend artifacts + spec envelope + delta log)
    /// to `dir`, creating it if needed.
    ///
    /// The delta log captures pending inserts and tombstones verbatim —
    /// saving does *not* compact, so a reopened index resumes with the
    /// exact same live set, id mapping and issue counter. Saving snapshots
    /// the index consistently even while writers or a background compaction
    /// are running; the directory reflects one epoch.
    pub fn save(&self, dir: &Path) -> Result<()> {
        let (backend, delta) = self.snapshot();
        std::fs::create_dir_all(dir).map_err(PersistError::from)?;
        backend.save(dir)?;
        let mut w = ByteWriter::new();
        self.shared.spec.write_to(&mut w);
        std::fs::write(dir.join(SPEC_FILE), seal(&SPEC_MAGIC, SPEC_VERSION, &w.into_vec()))
            .map_err(PersistError::from)?;
        std::fs::write(dir.join(DELTA_FILE), delta.to_log_bytes()).map_err(PersistError::from)?;
        Ok(())
    }

    /// One consistent `(backend, delta)` pair, taken under the short state
    /// lock. This is the epoch handoff every reader goes through.
    fn snapshot(&self) -> (Arc<dyn SearchBackend>, DeltaSegment) {
        let st = self.shared.lock_state();
        (Arc::clone(&st.backend), st.delta.clone())
    }

    /// The spec this index was built (or reopened) with.
    pub fn spec(&self) -> &IndexSpec {
        &self.shared.spec
    }

    /// The search method.
    pub fn method(&self) -> Method {
        self.shared.spec.method
    }

    /// The divergence queries are answered under.
    pub fn divergence(&self) -> DivergenceKind {
        self.shared.spec.divergence
    }

    /// Number of **live** points: backend points minus tombstones plus
    /// live delta rows.
    pub fn len(&self) -> usize {
        self.shared.lock_state().delta.live_len()
    }

    /// Whether the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.shared.dim
    }

    /// A point-in-time snapshot of the mutable delta layer (inspection
    /// only; use [`Index::insert`] / [`Index::delete`] / [`Index::compact`]
    /// to change it). Cheap: sealed generations are shared by reference.
    pub fn delta(&self) -> DeltaSegment {
        self.shared.lock_state().delta.clone()
    }

    /// How many compaction swaps have landed on this index (each bumps the
    /// serving epoch once).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// Completed compactions (successful rebuild-and-swap runs, parks
    /// included).
    pub fn compactions(&self) -> u64 {
        self.shared.compactions.load(Ordering::Relaxed)
    }

    /// Total time spent inside compaction rebuilds so far, in nanoseconds.
    pub fn compaction_nanos(&self) -> u64 {
        self.shared.compaction_nanos.load(Ordering::Relaxed)
    }

    /// Append one point, returning its stable external id.
    ///
    /// The write lands in the delta chain's active generation — no backend
    /// rebuild, no reader blocked — and is visible to every query and batch
    /// issued *after* this call (batches already running keep their
    /// snapshot). The row must match the index's dimensionality and the
    /// divergence's domain. With background compaction enabled, crossing a
    /// debt threshold schedules a rebuild on the worker; the insert itself
    /// returns immediately either way.
    ///
    /// ```
    /// use brepartition::{Index, IndexSpec, QueryRequest};
    /// use brepartition::bregman::{DenseDataset, DivergenceKind};
    ///
    /// # fn main() -> brepartition::Result<()> {
    /// let rows: Vec<Vec<f64>> =
    ///     (0..32).map(|i| vec![1.0 + i as f64, 2.0 + (i % 7) as f64]).collect();
    /// let data = DenseDataset::from_rows(&rows).unwrap();
    /// let index =
    ///     Index::build(&IndexSpec::bbtree(DivergenceKind::SquaredEuclidean), &data)?;
    ///
    /// let id = index.insert(&[100.0, 100.0])?;
    /// assert_eq!(index.len(), 33);
    /// let hit = index.query(&QueryRequest::new(&[99.0, 99.0], 1))?;
    /// assert_eq!(hit.neighbors[0].0, id); // the insert is immediately searchable
    /// # Ok(())
    /// # }
    /// ```
    pub fn insert(&self, row: &[f64]) -> Result<PointId> {
        let (id, trigger) = {
            let mut st = self.shared.lock_state();
            let id = st.delta.insert(row)?;
            (id, over_threshold(&self.shared.spec, &st.delta))
        };
        if trigger {
            self.request_compaction();
        }
        Ok(id)
    }

    /// Tombstone a live point (backend-resident or freshly inserted).
    ///
    /// Returns `Ok(true)` if the id was live, `Ok(false)` if it was
    /// already deleted or never issued — deletes are idempotent, and an
    /// idempotent delete leaves the index untouched: it does not dirty the
    /// delta and never schedules a background rebuild. The point stops
    /// appearing in query results immediately; its storage is reclaimed by
    /// the next compaction.
    ///
    /// ```
    /// use brepartition::{Index, IndexSpec};
    /// use brepartition::bregman::{DenseDataset, DivergenceKind, PointId};
    ///
    /// # fn main() -> brepartition::Result<()> {
    /// let rows: Vec<Vec<f64>> =
    ///     (0..32).map(|i| vec![1.0 + i as f64, 2.0 + (i % 7) as f64]).collect();
    /// let data = DenseDataset::from_rows(&rows).unwrap();
    /// let index =
    ///     Index::build(&IndexSpec::bbtree(DivergenceKind::SquaredEuclidean), &data)?;
    ///
    /// assert_eq!(index.delete(PointId(7))?, true); // a backend point
    /// assert_eq!(index.delete(PointId(7))?, false); // idempotent
    /// assert_eq!(index.len(), 31);
    /// index.compact()?; // fold the tombstone into a rebuilt backend
    /// assert_eq!(index.len(), 31);
    /// # Ok(())
    /// # }
    /// ```
    pub fn delete(&self, id: PointId) -> Result<bool> {
        let (was_live, trigger) = {
            let mut st = self.shared.lock_state();
            let was_live = st.delta.delete(id);
            (was_live, was_live && over_threshold(&self.shared.spec, &st.delta))
        };
        if trigger {
            self.request_compaction();
        }
        Ok(was_live)
    }

    /// Fold the delta into the backend: rebuild the index over the live
    /// set (through the same `(Method, DivergenceKind)` registry as
    /// [`Index::build`], under the same spec) and reset the delta.
    ///
    /// External ids survive compaction — the new delta carries the
    /// internal → external mapping and the id issue counter — so ids held
    /// by callers keep resolving to the same points. A no-op when nothing
    /// is pending. Compacting away every live point **parks** the index
    /// (the old backend stays, fully tombstoned; the index remains
    /// queryable, writable and saveable) instead of erroring — no backend
    /// can be built over an empty dataset, but an empty index is not a
    /// broken one.
    ///
    /// With background compaction enabled this is *request + wait*: the
    /// rebuild runs on the worker thread (concurrent callers coalesce onto
    /// one run) and this call blocks until a run covering it finishes,
    /// propagating its error if it failed. Queries and writers are never
    /// blocked by the rebuild either way.
    pub fn compact(&self) -> Result<()> {
        {
            let st = self.shared.lock_state();
            if compaction_is_noop(&st.delta) {
                return Ok(());
            }
        }
        if self.shared.spec.compaction.background {
            let waited = self
                .with_compactor(|c| {
                    let ticket = c.tickets.fetch_add(1, Ordering::Relaxed) + 1;
                    c.tx.send(ticket).ok().map(|()| (Arc::clone(&c.completion), ticket))
                })
                .flatten();
            if let Some((completion, ticket)) = waited {
                let mut st = completion.state.lock().expect("compaction completion lock poisoned");
                while st.completed < ticket {
                    st = completion.cv.wait(st).expect("compaction completion lock poisoned");
                }
                return match &st.last_error {
                    Some(message) => Err(Error::Compaction(message.clone())),
                    None => Ok(()),
                };
            }
            // Worker unavailable (spawn failed or channel closed): fall
            // through to the inline path below.
        }
        compact_once(&self.shared)
    }

    /// Schedule a background compaction without waiting (the trigger path
    /// of [`Index::insert`] / [`Index::delete`]). Requests coalesce in the
    /// worker's queue; failures surface via the next explicit
    /// [`Index::compact`].
    fn request_compaction(&self) {
        self.with_compactor(|c| {
            let ticket = c.tickets.fetch_add(1, Ordering::Relaxed) + 1;
            let _ = c.tx.send(ticket);
        });
    }

    /// Run `f` against the background compactor, spawning the worker thread
    /// on first use. Returns `None` if the worker cannot be spawned —
    /// callers then compact inline instead.
    fn with_compactor<R>(&self, f: impl FnOnce(&Compactor) -> R) -> Option<R> {
        let mut guard = self.shared.worker.lock().expect("compaction worker lock poisoned");
        if guard.is_none() {
            let (tx, rx) = mpsc::channel();
            let completion = Arc::new(Completion::default());
            let worker_completion = Arc::clone(&completion);
            // The worker holds a Weak handle: it must not keep the index
            // alive, or the channel would never close and the thread never
            // exit.
            let weak = Arc::downgrade(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("brepartition-compactor".to_string())
                .spawn(move || compaction_worker(weak, rx, worker_completion));
            match spawned {
                Ok(join) => {
                    *guard = Some(Compactor {
                        tx,
                        tickets: AtomicU64::new(0),
                        completion,
                        join: Some(join),
                    });
                }
                Err(_) => return None,
            }
        }
        guard.as_ref().map(f)
    }

    /// The serving handle: an engine-ready backend over a **consistent
    /// snapshot** of this index (for callers composing their own
    /// [`QueryEngine`]).
    ///
    /// With no pending writes this is the bare backend; otherwise it is a
    /// [`DeltaOverlayBackend`] holding a frozen copy of the delta chain, so
    /// a batch served through it never observes a concurrent insert,
    /// delete or compaction swap mid-flight. Call again after mutating to
    /// pick up the new state. Taking the snapshot is an epoch handoff: two
    /// `Arc` bumps plus a copy of the bounded active generation, regardless
    /// of how much history the chain holds.
    pub fn backend(&self) -> Arc<dyn SearchBackend> {
        let (backend, delta) = self.snapshot();
        if delta.is_trivial() {
            backend
        } else {
            Arc::new(
                DeltaOverlayBackend::new(backend, Arc::new(delta))
                    .expect("the delta segment always matches the backend it was built against"),
            )
        }
    }

    /// A batch engine over a snapshot of this index with explicit
    /// configuration (see [`Index::backend`] for the snapshot semantics).
    pub fn engine(&self, config: EngineConfig) -> Result<QueryEngine> {
        Ok(QueryEngine::with_config(self.backend(), config)?)
    }

    /// Answer one query (fresh scratch state, no worker pool).
    ///
    /// A query with a coordinate outside the divergence's domain fails
    /// with [`Error::Core`] wrapping `BregmanError::OutOfDomain`, the error
    /// an insert of that row gets.
    pub fn query(&self, request: &QueryRequest<'_>) -> Result<QueryOutcome> {
        request.check_domain(self.divergence())?;
        let backend = self.backend();
        let mut scratch = backend.new_scratch();
        let lowered = request.as_engine_request();
        let started = std::time::Instant::now();
        let answer =
            backend.knn_with_options(&mut scratch, lowered.query, lowered.k, &lowered.options)?;
        Ok(QueryOutcome {
            neighbors: answer.neighbors,
            candidates: answer.candidates,
            io: answer.io,
            latency_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Execute a batch with the default engine configuration (machine
    /// parallelism, cold scratch). Use [`Index::engine`] for explicit
    /// control.
    pub fn run(&self, request: &Request<'_>) -> Result<BatchResult> {
        self.run_with(request, EngineConfig::default())
    }

    /// Execute a batch with explicit engine configuration. The calling
    /// thread serves the batch together with `threads − 1` helpers from
    /// the engine's process-wide pool of parked threads, which the first
    /// batch wanting a helper starts; no thread is spawned per batch, and
    /// [`Index::build`], [`Index::save`] and [`Index::open`] start none. A
    /// batch holding any out-of-domain query is rejected whole, as in
    /// [`Index::query`].
    pub fn run_with(&self, request: &Request<'_>, config: EngineConfig) -> Result<BatchResult> {
        request.check_domain(self.divergence())?;
        let engine = self.engine(config)?;
        Ok(engine.run_requests(&request.as_engine_requests())?)
    }
}

/// Reject directory entries no backend of the spec's method writes.
///
/// A foreign file in an index directory means the directory is not (only)
/// what its envelope claims — e.g. two indexes saved into one directory, or
/// stray artifacts from another tool. Opening such a directory would
/// silently ignore the foreign data today and mis-read it the day a backend
/// grows a new artifact with that name, so it is rejected descriptively up
/// front.
fn check_directory_entries(dir: &Path, spec: &IndexSpec, artifacts: &[&str]) -> Result<()> {
    for entry in std::fs::read_dir(dir).map_err(PersistError::from)? {
        let entry = entry.map_err(PersistError::from)?;
        let name = entry.file_name();
        let known = name
            .to_str()
            .is_some_and(|n| n == SPEC_FILE || n == DELTA_FILE || artifacts.contains(&n));
        if !known {
            return Err(Error::Mismatch {
                expected: format!(
                    "a {} index directory holding only {} (plus {SPEC_FILE} and {DELTA_FILE})",
                    spec.method.name(),
                    artifacts.join(", ")
                ),
                found: format!("foreign entry {:?} in {}", name, dir.display()),
            });
        }
    }
    Ok(())
}

/// Read and unseal the spec envelope of an index directory.
fn read_spec(dir: &Path) -> Result<IndexSpec> {
    let path = dir.join(SPEC_FILE);
    let bytes = std::fs::read(&path).map_err(|e| {
        Error::Persist(PersistError::Corrupt(format!(
            "index directory {} has no readable spec envelope ({SPEC_FILE}): {e}; \
             directories saved by backend-level save calls predate the \
             envelope — re-save them through Index::save",
            dir.display()
        )))
    })?;
    let payload = unseal(&SPEC_MAGIC, SPEC_VERSION, &bytes)?;
    let mut r = ByteReader::new(payload);
    let spec = IndexSpec::read_from(&mut r)?;
    r.expect_end()?;
    Ok(spec)
}
