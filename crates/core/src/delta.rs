//! The mutable delta layer: online inserts and deletes over a static
//! partitioned index, organised as an LSM-style generational chain.
//!
//! BrePartition's structure (moments, transforms, subspace trees) is built
//! from a static snapshot of the data, so the classic LSM answer applies to
//! online mutability: absorb writes into a small **exact** side layer and
//! fold it into the partitioned structure on compaction. A [`DeltaSegment`]
//! holds
//!
//! * a **generational chain of append-only rows** — points inserted after
//!   the backend was built live first in a small *active* generation; once
//!   the active generation reaches [`SEAL_THRESHOLD`] rows it is sealed
//!   behind an `Arc` and a fresh active generation starts. Sealed
//!   generations are immutable and shared by reference, so cloning a
//!   `DeltaSegment` (the snapshot operation of the concurrent façade) costs
//!   a handful of refcount bumps plus a copy of the bounded active
//!   generation — never of the whole write history. Each row carries its
//!   precomputed generator sum `Φ(x)` so query-time scans run through the
//!   prepared kernel ([`bregman::kernel`]) exactly like the backends'
//!   refine phases,
//! * a **tombstone set** — external ids deleted since the last compaction
//!   (covering both backend points and delta rows; rows are never removed
//!   in place, matching the append-only discipline). The set sits behind an
//!   `Arc` with copy-on-write semantics, for the same cheap-snapshot
//!   reason, and
//! * the **base id mapping** — after a compaction the rebuilt backend
//!   numbers its points densely from zero, while callers keep the external
//!   ids they were issued; the mapping translates backend-internal ids back
//!   to stable external ids (`None` means the identity, the state of a
//!   freshly built index).
//!
//! Queries see the union: the backend answers over its static points, the
//! chain is scanned exactly (generation order is id order — ids are issued
//! monotonically and never reused), tombstones filter both sides, and the
//! two result lists are merged by `(divergence, id)`. The merge lives in
//! the engine's `DeltaOverlayBackend`; this module owns the state, its
//! invariants and its persistent form (the sealed [`DELTA_FILE`] log,
//! replayed on open; a directory without one is rejected by the façade).
//!
//! The log format is chain-agnostic: [`DeltaSegment::to_log_bytes`]
//! flattens every generation into one flat row sequence, and
//! [`DeltaSegment::from_log_bytes`] replays it into a single sealed
//! generation 0.

use std::collections::BTreeSet;
use std::iter;
use std::sync::Arc;

use bregman::{DivergenceKind, PointId};
use pagestore::format::{seal, unseal, ByteReader, ByteWriter, PersistError};

use crate::error::{CoreError, Result};

/// Magic tag of the persisted delta log.
pub const DELTA_MAGIC: [u8; 8] = *b"BREPDLT1";

/// Format version of the delta log this build writes and reads.
pub const DELTA_VERSION: u32 = 1;

/// File name of the delta log within an index directory.
pub const DELTA_FILE: &str = "delta.log";

/// Rows the active generation absorbs before it is sealed into the
/// immutable chain. Bounds the copy a snapshot pays: cloning a
/// `DeltaSegment` copies at most this many rows, everything older is
/// shared by `Arc`.
pub const SEAL_THRESHOLD: usize = 256;

/// One immutable run of appended rows: ids in insertion (= ascending)
/// order, flat coordinates, per-row `Φ(x)`.
#[derive(Debug, Clone, Default)]
struct Generation {
    ids: Vec<u32>,
    rows: Vec<f64>,
    phis: Vec<f64>,
}

impl Generation {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Index of `external` within this generation, if present.
    fn index_of(&self, external: u32) -> Option<usize> {
        self.ids.binary_search(&external).ok()
    }
}

/// The mutable layer over one static backend: a generational chain of
/// appended rows, tombstones and the backend-internal → external id
/// mapping. See the [module docs](crate::delta) for the model.
#[derive(Debug, Clone)]
pub struct DeltaSegment {
    kind: DivergenceKind,
    dim: usize,
    /// Number of points in the static backend underneath.
    base_len: usize,
    /// External id of each backend-internal id (strictly increasing);
    /// `None` is the identity mapping `internal == external`. Shared across
    /// snapshots — the mapping only changes wholesale at compaction.
    base_ids: Option<Arc<Vec<u32>>>,
    /// Next external id to issue (monotone across compactions — ids are
    /// never reused, so a caller-held id stays unambiguous forever).
    next_id: u32,
    /// Sealed immutable generations, oldest first. Ids are globally
    /// strictly increasing across the whole chain.
    sealed: Vec<Arc<Generation>>,
    /// The small mutable tail of the chain.
    active: Generation,
    /// External ids deleted since the last compaction. Copy-on-write:
    /// snapshots share until the next delete.
    tombstones: Arc<BTreeSet<u32>>,
    /// How many tombstones fall on backend points (each can displace one
    /// backend result, so queries over-fetch by exactly this much).
    base_tombstones: usize,
}

impl PartialEq for DeltaSegment {
    /// Logical equality: two segments are equal when a query cannot tell
    /// them apart — same divergence, shape, id mapping, issue counter, row
    /// sequence and tombstones. The generation boundaries are an internal
    /// detail (a replayed log always holds one sealed generation, however
    /// many the original had) and do not participate.
    fn eq(&self, other: &DeltaSegment) -> bool {
        self.kind == other.kind
            && self.dim == other.dim
            && self.base_len == other.base_len
            && self.base_ids.as_deref() == other.base_ids.as_deref()
            && self.next_id == other.next_id
            && self.tombstones == other.tombstones
            && self.base_tombstones == other.base_tombstones
            && self.delta_rows() == other.delta_rows()
            && self.all_delta_rows().eq(other.all_delta_rows())
    }
}

impl DeltaSegment {
    /// An empty delta over a freshly built backend of `base_len` points
    /// (identity id mapping).
    pub fn new(kind: DivergenceKind, dim: usize, base_len: usize) -> Result<DeltaSegment> {
        let next_id = u32::try_from(base_len).map_err(|_| {
            CoreError::Persist(format!("backend of {base_len} points exceeds the u32 id space"))
        })?;
        Ok(DeltaSegment {
            kind,
            dim,
            base_len,
            base_ids: None,
            next_id,
            sealed: Vec::new(),
            active: Generation::default(),
            tombstones: Arc::new(BTreeSet::new()),
            base_tombstones: 0,
        })
    }

    /// An empty delta over a backend rebuilt by compaction: `base_ids[i]` is
    /// the external id of the rebuilt backend's internal point `i`, and
    /// `next_id` carries the issue counter across the rebuild.
    ///
    /// The mapping must be strictly increasing (compaction rebuilds in
    /// ascending external id order) and below `next_id`; a contiguous
    /// `0..len` mapping collapses back to the identity.
    pub fn rebased(
        kind: DivergenceKind,
        dim: usize,
        base_ids: Vec<u32>,
        next_id: u32,
    ) -> Result<DeltaSegment> {
        if !base_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(CoreError::Persist(
                "compacted id mapping is not strictly increasing".to_string(),
            ));
        }
        if base_ids.last().is_some_and(|&last| last >= next_id) {
            return Err(CoreError::Persist(format!(
                "compacted id mapping reaches id {} but only {next_id} ids were ever issued",
                base_ids.last().copied().unwrap_or(0)
            )));
        }
        let base_len = base_ids.len();
        let identity = base_ids.iter().enumerate().all(|(i, &id)| id as usize == i);
        Ok(DeltaSegment {
            kind,
            dim,
            base_len,
            base_ids: if identity { None } else { Some(Arc::new(base_ids)) },
            next_id,
            sealed: Vec::new(),
            active: Generation::default(),
            tombstones: Arc::new(BTreeSet::new()),
            base_tombstones: 0,
        })
    }

    /// A drained delta over the *same* backend, with every backend point
    /// tombstoned and no rows: the state of an index whose live set was
    /// empty at compaction time. The backend is kept (rebuilding over zero
    /// points is impossible), queries see nothing, and the issue counter
    /// carries forward so the index stays writable.
    pub fn parked(&self) -> DeltaSegment {
        let tombstones: BTreeSet<u32> =
            (0..self.base_len).map(|internal| self.external_of(internal).0).collect();
        let base_tombstones = tombstones.len();
        DeltaSegment {
            kind: self.kind,
            dim: self.dim,
            base_len: self.base_len,
            base_ids: self.base_ids.clone(),
            next_id: self.next_id,
            sealed: Vec::new(),
            active: Generation::default(),
            tombstones: Arc::new(tombstones),
            base_tombstones,
        }
    }

    /// The divergence delta distances are evaluated under.
    pub fn kind(&self) -> DivergenceKind {
        self.kind
    }

    /// Dimensionality of the rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points in the static backend underneath.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of delta rows, live and tombstoned alike (the append-only
    /// log length, summed across the chain).
    pub fn delta_rows(&self) -> usize {
        self.sealed.iter().map(|g| g.len()).sum::<usize>() + self.active.len()
    }

    /// Number of sealed immutable generations in the chain (the active
    /// generation is not counted).
    pub fn sealed_generations(&self) -> usize {
        self.sealed.len()
    }

    /// Number of live points across backend and delta.
    pub fn live_len(&self) -> usize {
        self.base_len - self.base_tombstones + self.delta_rows()
            - (self.tombstones.len() - self.base_tombstones)
    }

    /// How many tombstones fall on backend points.
    pub fn base_tombstone_count(&self) -> usize {
        self.base_tombstones
    }

    /// Number of tombstoned ids (backend and delta combined).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// The next external id [`DeltaSegment::insert`] will issue.
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Whether queries through this delta are indistinguishable from
    /// queries against the bare backend: no rows, no tombstones, identity
    /// id mapping.
    pub fn is_trivial(&self) -> bool {
        self.delta_rows() == 0 && self.tombstones.is_empty() && self.base_ids.is_none()
    }

    /// Whether a compaction would change the backend (pending rows or
    /// tombstones exist).
    pub fn has_pending_writes(&self) -> bool {
        self.delta_rows() > 0 || !self.tombstones.is_empty()
    }

    /// Seal the active generation into the immutable chain, if non-empty.
    /// Compaction seals at its frontier so the snapshot it rebuilds from
    /// shares every row with the live segment by reference.
    pub fn seal(&mut self) {
        if !self.active.is_empty() {
            self.sealed.push(Arc::new(std::mem::take(&mut self.active)));
        }
    }

    /// Append one row, issuing its external id.
    ///
    /// The row must match the delta's dimensionality and lie in the
    /// divergence's domain (e.g. strictly positive under Itakura-Saito) —
    /// violations are typed errors, nothing is appended. Reaching
    /// [`SEAL_THRESHOLD`] rows seals the active generation.
    pub fn insert(&mut self, row: &[f64]) -> Result<PointId> {
        let id = self.next_id;
        let next = self.next_id.checked_add(1).ok_or_else(|| {
            CoreError::Persist("the u32 external id space is exhausted".to_string())
        })?;
        self.append_row(id, row)?;
        self.next_id = next;
        Ok(PointId(id))
    }

    /// Re-append a row under an id issued by another snapshot of the same
    /// lineage: the epoch-handoff step of background compaction carries
    /// rows inserted *after* the compaction frontier into the rebased
    /// segment with their ids intact. The id must be at or beyond the
    /// current issue counter (ids are never reused), and the counter
    /// advances past it.
    pub fn carry_row(&mut self, id: PointId, row: &[f64]) -> Result<()> {
        if id.0 < self.next_id {
            return Err(CoreError::Persist(format!(
                "carried row id {} is below the issue counter {}",
                id.0, self.next_id
            )));
        }
        let next = id.0.checked_add(1).ok_or_else(|| {
            CoreError::Persist("the u32 external id space is exhausted".to_string())
        })?;
        self.append_row(id.0, row)?;
        self.next_id = next;
        Ok(())
    }

    fn append_row(&mut self, id: u32, row: &[f64]) -> Result<()> {
        if row.len() != self.dim {
            return Err(CoreError::QueryDimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        self.kind.check_domain(row)?;
        self.active.ids.push(id);
        self.active.rows.extend_from_slice(row);
        self.active.phis.push(self.kind.phi_sum(row));
        if self.active.len() >= SEAL_THRESHOLD {
            self.seal();
        }
        Ok(())
    }

    /// Tombstone a live point (backend or delta). Returns `true` if the id
    /// was live, `false` if it was already deleted or never issued —
    /// deletes are idempotent, not errors, and an idempotent delete leaves
    /// the segment untouched (no dirtying, no shared-set copy).
    pub fn delete(&mut self, id: PointId) -> bool {
        let external = id.0;
        let on_base = self.base_index_of(external).is_some();
        if !on_base && self.delta_index_of(external).is_none() {
            return false;
        }
        if self.tombstones.contains(&external) {
            return false;
        }
        Arc::make_mut(&mut self.tombstones).insert(external);
        if on_base {
            self.base_tombstones += 1;
        }
        true
    }

    /// Whether the external id refers to a live point.
    pub fn is_live(&self, id: PointId) -> bool {
        !self.tombstones.contains(&id.0)
            && (self.base_index_of(id.0).is_some() || self.delta_index_of(id.0).is_some())
    }

    /// Whether the external id is tombstoned (regardless of which side it
    /// names). Compaction's handoff diffs tombstone sets with this.
    pub fn is_tombstoned(&self, id: PointId) -> bool {
        self.tombstones.contains(&id.0)
    }

    /// All tombstoned external ids, ascending.
    pub fn tombstone_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.tombstones.iter().copied()
    }

    /// External id of the backend-internal point `internal`.
    pub fn external_of(&self, internal: usize) -> PointId {
        match &self.base_ids {
            None => PointId(internal as u32),
            Some(ids) => PointId(ids[internal]),
        }
    }

    /// Backend-internal index of an external id, if it names a backend
    /// point.
    fn base_index_of(&self, external: u32) -> Option<usize> {
        match &self.base_ids {
            None => ((external as usize) < self.base_len).then_some(external as usize),
            Some(ids) => ids.binary_search(&external).ok(),
        }
    }

    /// Whether an external id names a delta row anywhere in the chain.
    /// Ids are globally ascending across generations, so at most one
    /// generation's id range can contain it.
    fn delta_index_of(&self, external: u32) -> Option<(usize, usize)> {
        for (g, generation) in self.generations().enumerate() {
            match (generation.ids.first(), generation.ids.last()) {
                (Some(&first), Some(&last)) if first <= external && external <= last => {
                    return generation.index_of(external).map(|i| (g, i));
                }
                _ => {}
            }
        }
        None
    }

    /// Every generation in chain order: sealed oldest-first, then active.
    fn generations(&self) -> impl Iterator<Item = &Generation> {
        self.sealed.iter().map(|g| &**g).chain(iter::once(&self.active))
    }

    /// Live backend points as `(internal, external)` pairs, in internal
    /// (= ascending external) order.
    pub fn live_base_entries(&self) -> impl Iterator<Item = (usize, PointId)> + '_ {
        (0..self.base_len).filter_map(move |internal| {
            let external = self.external_of(internal);
            (!self.tombstones.contains(&external.0)).then_some((internal, external))
        })
    }

    /// Every delta row across the chain, tombstoned or not, as
    /// `(external id, coordinates)` in ascending id order.
    fn all_delta_rows(&self) -> impl Iterator<Item = (u32, &[f64])> + '_ {
        self.generations().flat_map(move |g| {
            g.ids
                .iter()
                .enumerate()
                .map(move |(i, &id)| (id, &g.rows[i * self.dim..(i + 1) * self.dim]))
        })
    }

    /// Live delta rows as `(external id, Φ(x), coordinates)`, in ascending
    /// id order — the exact-scan input of the query-time merge.
    pub fn live_delta_rows(&self) -> impl Iterator<Item = (PointId, f64, &[f64])> + '_ {
        self.generations().flat_map(move |g| {
            g.ids.iter().enumerate().filter(move |(_, id)| !self.tombstones.contains(id)).map(
                move |(i, &id)| (PointId(id), g.phis[i], &g.rows[i * self.dim..(i + 1) * self.dim]),
            )
        })
    }

    /// Delta rows with ids at or beyond `from_id`, tombstoned or not, as
    /// `(external id, coordinates)` in ascending id order. The
    /// epoch-handoff step replays these (rows appended after the compaction
    /// frontier) into the rebased segment via
    /// [`DeltaSegment::carry_row`].
    pub fn delta_rows_from(&self, from_id: u32) -> impl Iterator<Item = (PointId, &[f64])> + '_ {
        self.all_delta_rows()
            .filter(move |&(id, _)| id >= from_id)
            .map(|(id, row)| (PointId(id), row))
    }

    /// Serialize into the sealed [`DELTA_FILE`] payload (magic
    /// [`DELTA_MAGIC`], version [`DELTA_VERSION`], FNV-1a checksummed — see
    /// [`pagestore::format`]). The chain is flattened into one flat row
    /// sequence, so the on-disk format does not depend on the chain shape.
    pub fn to_log_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(self.kind.short_name());
        w.put_usize(self.dim);
        w.put_usize(self.base_len);
        match &self.base_ids {
            None => w.put_u8(0),
            Some(ids) => {
                w.put_u8(1);
                w.put_u32_seq(ids);
            }
        }
        w.put_u32(self.next_id);
        let mut flat_ids = Vec::with_capacity(self.delta_rows());
        let mut flat_rows = Vec::with_capacity(self.delta_rows() * self.dim);
        for (id, row) in self.all_delta_rows() {
            flat_ids.push(id);
            flat_rows.extend_from_slice(row);
        }
        w.put_u32_seq(&flat_ids);
        w.put_f64_seq(&flat_rows);
        let tombstones: Vec<u32> = self.tombstones.iter().copied().collect();
        w.put_u32_seq(&tombstones);
        seal(&DELTA_MAGIC, DELTA_VERSION, &w.into_vec())
    }

    /// Replay a sealed delta log against the backend it was saved with.
    ///
    /// Every structural invariant is re-validated — divergence, row
    /// dimensionality and backend size must match the opened backend, the
    /// id mapping and row ids must be strictly increasing and below the
    /// issue counter, and every tombstone must name a known id — so a
    /// corrupted, truncated or foreign log is a descriptive error, never a
    /// wrong answer. Row `Φ` sums are recomputed, not trusted. The replayed
    /// rows land in a single sealed generation 0, whatever chain shape the
    /// writer had.
    pub fn from_log_bytes(
        bytes: &[u8],
        kind: DivergenceKind,
        dim: usize,
        base_len: usize,
    ) -> Result<DeltaSegment> {
        let payload = unseal(&DELTA_MAGIC, DELTA_VERSION, bytes)?;
        let mut r = ByteReader::new(payload);

        let kind_name = r.take_str()?;
        let found_kind = DivergenceKind::parse(&kind_name)
            .map_err(|_| corrupt(format!("unknown divergence kind {kind_name:?}")))?;
        if found_kind != kind {
            return Err(corrupt(format!(
                "delta log was written under divergence {}, index uses {}",
                found_kind.short_name(),
                kind.short_name()
            )));
        }
        let found_dim = r.take_usize()?;
        if found_dim != dim {
            return Err(corrupt(format!(
                "delta rows are {found_dim}-dimensional, index is {dim}-dimensional"
            )));
        }
        let found_base = r.take_usize()?;
        if found_base != base_len {
            return Err(corrupt(format!(
                "delta log describes a backend of {found_base} points, directory holds {base_len}"
            )));
        }
        let base_ids = match r.take_u8()? {
            0 => None,
            1 => {
                let ids = r.take_u32_seq()?;
                if ids.len() != base_len {
                    return Err(corrupt(format!(
                        "id mapping covers {} points, backend holds {base_len}",
                        ids.len()
                    )));
                }
                Some(ids)
            }
            tag => return Err(corrupt(format!("unknown id-mapping tag {tag}"))),
        };
        let next_id = r.take_u32()?;
        let ids = r.take_u32_seq()?;
        let rows = r.take_f64_seq()?;
        let tombstone_list = r.take_u32_seq()?;
        r.expect_end()?;

        if let Some(mapping) = &base_ids {
            if !mapping.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("id mapping is not strictly increasing".to_string()));
            }
        }
        if rows.len() != ids.len() * dim {
            return Err(corrupt(format!(
                "{} delta ids but {} coordinates for dimension {dim}",
                ids.len(),
                rows.len()
            )));
        }
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("delta row ids are not strictly increasing".to_string()));
        }

        let mut phis = Vec::with_capacity(ids.len());
        for (i, &id) in ids.iter().enumerate() {
            let row = &rows[i * dim..(i + 1) * dim];
            if kind.check_domain(row).is_err() {
                return Err(corrupt(format!(
                    "delta row {id} lies outside the domain of {}",
                    kind.short_name()
                )));
            }
            phis.push(kind.phi_sum(row));
        }

        let generation = Generation { ids, rows, phis };
        let mut delta = DeltaSegment {
            kind,
            dim,
            base_len,
            base_ids: base_ids.map(Arc::new),
            next_id,
            sealed: if generation.is_empty() { Vec::new() } else { vec![Arc::new(generation)] },
            active: Generation::default(),
            tombstones: Arc::new(BTreeSet::new()),
            base_tombstones: 0,
        };
        for (id, _) in delta.all_delta_rows() {
            if id >= next_id {
                return Err(corrupt(format!(
                    "delta row id {id} is at or beyond the issue counter {next_id}"
                )));
            }
            if delta.base_index_of(id).is_some() {
                return Err(corrupt(format!("delta row id {id} collides with a backend point")));
            }
        }
        if delta.base_ids.as_ref().is_some_and(|m| m.last().is_some_and(|&last| last >= next_id))
            || (delta.base_ids.is_none() && base_len > next_id as usize)
        {
            return Err(corrupt(format!("backend ids exceed the issue counter {next_id}")));
        }
        let mut tombstones = BTreeSet::new();
        let mut base_tombstones = 0;
        for id in tombstone_list {
            let on_base = delta.base_index_of(id).is_some();
            if !on_base && delta.delta_index_of(id).is_none() {
                return Err(corrupt(format!("tombstone {id} names no backend or delta point")));
            }
            if !tombstones.insert(id) {
                return Err(corrupt(format!("tombstone {id} appears twice")));
            }
            if on_base {
                base_tombstones += 1;
            }
        }
        delta.tombstones = Arc::new(tombstones);
        delta.base_tombstones = base_tombstones;
        Ok(delta)
    }
}

fn corrupt(message: String) -> CoreError {
    CoreError::from(PersistError::Corrupt(format!("delta log: {message}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bregman::BregmanError;

    fn segment() -> DeltaSegment {
        DeltaSegment::new(DivergenceKind::ItakuraSaito, 2, 3).unwrap()
    }

    #[test]
    fn insert_issues_monotone_ids_and_tracks_liveness() {
        let mut delta = segment();
        assert!(delta.is_trivial());
        assert_eq!(delta.live_len(), 3);
        let a = delta.insert(&[1.0, 2.0]).unwrap();
        let b = delta.insert(&[3.0, 4.0]).unwrap();
        assert_eq!((a.0, b.0), (3, 4));
        assert_eq!(delta.live_len(), 5);
        assert!(delta.is_live(a));
        assert!(delta.is_live(PointId(0)));
        assert!(!delta.is_live(PointId(9)));
        assert!(!delta.is_trivial());
        let rows: Vec<_> = delta.live_delta_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, a);
        assert_eq!(rows[0].2, &[1.0, 2.0]);
        assert!((rows[0].1 - DivergenceKind::ItakuraSaito.phi_sum(&[1.0, 2.0])).abs() < 1e-12);
    }

    #[test]
    fn insert_validates_dimensionality_and_domain() {
        let mut delta = segment();
        assert!(matches!(
            delta.insert(&[1.0]),
            Err(CoreError::QueryDimensionMismatch { expected: 2, actual: 1 })
        ));
        // Itakura-Saito requires strictly positive coordinates.
        assert!(matches!(
            delta.insert(&[1.0, -2.0]),
            Err(CoreError::Bregman(BregmanError::OutOfDomain { .. }))
        ));
        assert_eq!(delta.delta_rows(), 0, "failed inserts append nothing");
        assert_eq!(delta.next_id(), 3, "failed inserts issue no id");
    }

    #[test]
    fn deletes_are_idempotent_and_split_by_side() {
        let mut delta = segment();
        let inserted = delta.insert(&[1.0, 2.0]).unwrap();
        assert!(delta.delete(PointId(1)), "backend point");
        assert!(!delta.delete(PointId(1)), "already tombstoned");
        assert!(delta.delete(inserted), "delta row");
        assert!(!delta.delete(PointId(77)), "never issued");
        assert_eq!(delta.base_tombstone_count(), 1);
        assert_eq!(delta.tombstone_count(), 2);
        assert_eq!(delta.live_len(), 2);
        assert_eq!(delta.live_base_entries().count(), 2);
        assert_eq!(delta.live_delta_rows().count(), 0);
    }

    #[test]
    fn idempotent_delete_leaves_snapshots_shared() {
        let mut delta = segment();
        let snapshot = delta.clone();
        assert!(!delta.delete(PointId(77)), "never issued");
        assert_eq!(delta, snapshot, "no-op delete must not dirty the segment");
        assert!(!delta.has_pending_writes());
        assert!(delta.delete(PointId(0)));
        assert!(!delta.delete(PointId(0)), "second delete is a no-op");
        let dirty = delta.clone();
        assert!(!delta.delete(PointId(0)));
        assert_eq!(delta, dirty);
    }

    #[test]
    fn active_generation_seals_at_threshold() {
        let mut delta = DeltaSegment::new(DivergenceKind::SquaredEuclidean, 1, 0).unwrap();
        for i in 0..SEAL_THRESHOLD {
            delta.insert(&[i as f64]).unwrap();
        }
        assert_eq!(delta.sealed_generations(), 1, "threshold seals the active generation");
        delta.insert(&[-1.0]).unwrap();
        assert_eq!(delta.sealed_generations(), 1);
        assert_eq!(delta.delta_rows(), SEAL_THRESHOLD + 1);
        // The chain scans in ascending id order across the seam.
        let ids: Vec<u32> = delta.live_delta_rows().map(|(id, _, _)| id.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), SEAL_THRESHOLD + 1);
        assert!(delta.is_live(PointId(0)));
        assert!(delta.is_live(PointId(SEAL_THRESHOLD as u32)));
        assert!(delta.delete(PointId(3)), "sealed-generation rows stay deletable");
        // An explicit seal freezes the tail; an empty active seals to nothing.
        delta.seal();
        assert_eq!(delta.sealed_generations(), 2);
        delta.seal();
        assert_eq!(delta.sealed_generations(), 2);
    }

    #[test]
    fn snapshots_diverge_from_the_segment_they_were_taken_from() {
        let mut delta = segment();
        delta.insert(&[1.0, 2.0]).unwrap();
        delta.seal();
        let snapshot = delta.clone();
        delta.insert(&[5.0, 6.0]).unwrap();
        delta.delete(PointId(0));
        assert_eq!(snapshot.delta_rows(), 1, "snapshot is frozen");
        assert_eq!(snapshot.tombstone_count(), 0);
        assert_eq!(delta.delta_rows(), 2);
        assert_eq!(delta.tombstone_count(), 1);
    }

    #[test]
    fn carry_row_reappends_under_a_foreign_id() {
        let mut delta = segment();
        delta.carry_row(PointId(7), &[1.0, 2.0]).unwrap();
        assert_eq!(delta.next_id(), 8);
        assert!(delta.is_live(PointId(7)));
        assert!(!delta.is_live(PointId(3)), "skipped ids were never issued here");
        // Below the issue counter is a reuse, rejected.
        assert!(delta.carry_row(PointId(5), &[1.0, 2.0]).is_err());
        // Domain violations append nothing.
        assert!(delta.carry_row(PointId(9), &[1.0, -2.0]).is_err());
        assert_eq!(delta.delta_rows(), 1);
        let carried: Vec<_> = delta.delta_rows_from(7).map(|(id, _)| id.0).collect();
        assert_eq!(carried, vec![7]);
        assert_eq!(delta.delta_rows_from(8).count(), 0);
    }

    #[test]
    fn parked_segment_serves_nothing_but_stays_writable() {
        let mut delta =
            DeltaSegment::rebased(DivergenceKind::ItakuraSaito, 2, vec![0, 2, 5], 6).unwrap();
        delta.insert(&[1.0, 2.0]).unwrap();
        let parked = delta.parked();
        assert_eq!(parked.live_len(), 0);
        assert_eq!(parked.base_tombstone_count(), 3);
        assert_eq!(parked.delta_rows(), 0, "parking drains the chain");
        assert_eq!(parked.next_id(), delta.next_id(), "issue counter carries forward");
        assert!(!parked.is_live(PointId(2)));
        let mut revived = parked.clone();
        let id = revived.insert(&[3.0, 4.0]).unwrap();
        assert_eq!(id.0, 7);
        assert_eq!(revived.live_len(), 1);
        // The parked form roundtrips through the log.
        let bytes = parked.to_log_bytes();
        let restored =
            DeltaSegment::from_log_bytes(&bytes, DivergenceKind::ItakuraSaito, 2, 3).unwrap();
        assert_eq!(restored, parked);
    }

    #[test]
    fn rebased_mapping_translates_internal_ids() {
        let delta =
            DeltaSegment::rebased(DivergenceKind::ItakuraSaito, 2, vec![0, 2, 5], 6).unwrap();
        assert_eq!(delta.base_len(), 3);
        assert_eq!(delta.external_of(1), PointId(2));
        assert!(delta.is_live(PointId(5)));
        assert!(!delta.is_live(PointId(1)), "id 1 was compacted away");
        assert!(!delta.is_trivial(), "a non-identity mapping must route through the overlay");
        // A contiguous mapping collapses to the identity.
        let identity =
            DeltaSegment::rebased(DivergenceKind::ItakuraSaito, 2, vec![0, 1, 2], 3).unwrap();
        assert!(identity.is_trivial());
        // Invalid mappings are rejected.
        assert!(DeltaSegment::rebased(DivergenceKind::ItakuraSaito, 2, vec![2, 1], 6).is_err());
        assert!(DeltaSegment::rebased(DivergenceKind::ItakuraSaito, 2, vec![0, 9], 6).is_err());
    }

    #[test]
    fn log_roundtrip_preserves_everything() {
        let mut delta =
            DeltaSegment::rebased(DivergenceKind::Exponential, 2, vec![0, 2, 5], 7).unwrap();
        let a = delta.insert(&[1.0, -2.0]).unwrap();
        delta.insert(&[0.5, 0.25]).unwrap();
        delta.delete(PointId(2));
        delta.delete(a);
        let bytes = delta.to_log_bytes();
        let restored =
            DeltaSegment::from_log_bytes(&bytes, DivergenceKind::Exponential, 2, 3).unwrap();
        assert_eq!(restored, delta);
    }

    #[test]
    fn log_roundtrip_flattens_a_multi_generation_chain() {
        let mut delta = DeltaSegment::new(DivergenceKind::SquaredEuclidean, 1, 2).unwrap();
        delta.insert(&[10.0]).unwrap();
        delta.seal();
        delta.insert(&[11.0]).unwrap();
        delta.insert(&[12.0]).unwrap();
        delta.seal();
        delta.insert(&[13.0]).unwrap();
        delta.delete(PointId(3));
        assert_eq!(delta.sealed_generations(), 2);
        let bytes = delta.to_log_bytes();
        let restored =
            DeltaSegment::from_log_bytes(&bytes, DivergenceKind::SquaredEuclidean, 1, 2).unwrap();
        assert_eq!(restored.sealed_generations(), 1, "replay lands in generation 0");
        assert_eq!(restored, delta, "chain shape is not part of logical equality");
        let rows: Vec<f64> = restored.live_delta_rows().map(|(_, _, row)| row[0]).collect();
        assert_eq!(rows, vec![10.0, 12.0, 13.0]);
    }

    #[test]
    fn log_rejects_mismatches_and_corruption() {
        let mut delta = segment();
        delta.insert(&[1.0, 2.0]).unwrap();
        delta.delete(PointId(0));
        let bytes = delta.to_log_bytes();

        let err = |e: CoreError| e.to_string();
        // Wrong divergence, dimensionality, backend size.
        let e =
            DeltaSegment::from_log_bytes(&bytes, DivergenceKind::Exponential, 2, 3).unwrap_err();
        assert!(err(e).contains("divergence"), "kind mismatch must be descriptive");
        let e =
            DeltaSegment::from_log_bytes(&bytes, DivergenceKind::ItakuraSaito, 3, 3).unwrap_err();
        assert!(err(e).contains("dimensional"));
        let e =
            DeltaSegment::from_log_bytes(&bytes, DivergenceKind::ItakuraSaito, 2, 9).unwrap_err();
        assert!(err(e).contains("backend"));

        // Flipped payload byte fails the checksum; truncation is corrupt.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(DeltaSegment::from_log_bytes(&flipped, DivergenceKind::ItakuraSaito, 2, 3).is_err());
        let truncated = &bytes[..bytes.len() - 5];
        assert!(
            DeltaSegment::from_log_bytes(truncated, DivergenceKind::ItakuraSaito, 2, 3).is_err()
        );
    }

    #[test]
    fn log_rejects_semantic_corruption() {
        // A delta row id colliding with a backend point.
        let mut delta = segment();
        delta.insert(&[1.0, 2.0]).unwrap();
        let mut hostile = delta.clone();
        hostile.active.ids[0] = 1; // collides with backend id 1
        let bytes = hostile.to_log_bytes();
        let e = DeltaSegment::from_log_bytes(&bytes, DivergenceKind::ItakuraSaito, 2, 3)
            .unwrap_err()
            .to_string();
        assert!(e.contains("collides"), "{e}");

        // A tombstone naming no known point.
        let mut hostile = delta.clone();
        Arc::make_mut(&mut hostile.tombstones).insert(99);
        let bytes = hostile.to_log_bytes();
        let e = DeltaSegment::from_log_bytes(&bytes, DivergenceKind::ItakuraSaito, 2, 3)
            .unwrap_err()
            .to_string();
        assert!(e.contains("tombstone"), "{e}");

        // A row outside the divergence domain.
        let mut hostile = delta.clone();
        hostile.active.rows[1] = -4.0;
        let bytes = hostile.to_log_bytes();
        let e = DeltaSegment::from_log_bytes(&bytes, DivergenceKind::ItakuraSaito, 2, 3)
            .unwrap_err()
            .to_string();
        assert!(e.contains("domain"), "{e}");
    }
}
