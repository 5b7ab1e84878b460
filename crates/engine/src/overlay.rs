//! The delta overlay: one [`SearchBackend`] that merges a static backend
//! with an immutable snapshot of a [`DeltaSegment`].
//!
//! The overlay is how batch serving sees online mutability without giving
//! up the engine's lock-free contract: the backend stays immutable, the
//! delta snapshot is frozen at overlay construction, and every query a
//! worker pulls from the batch merges against the *same* snapshot — a
//! batch never observes a half-applied write. The owning `Index` façade
//! constructs a fresh overlay per batch (or per ad-hoc query), so new
//! writes become visible at the next batch boundary.
//!
//! Per query the overlay
//!
//! 1. asks the inner backend for `k + t` neighbors, where `t` is the
//!    number of tombstones falling on backend points (each tombstone can
//!    displace at most one backend result, so `k` live backend answers
//!    survive whenever they exist),
//! 2. maps backend-internal ids to stable external ids and drops
//!    tombstoned ones,
//! 3. scans the live delta rows exactly through the prepared kernel — the
//!    same `Φ(x) + c_q − ⟨∇φ(q), x⟩` evaluation the backends' refine
//!    phases use, reusing the worker's [`Scratch`] buffers — and
//! 4. merges both sides by `(divergence, id)` and truncates to `k`.

use std::path::Path;
use std::sync::Arc;

use bregman::kernel::KernelScratch;
use brepartition_core::DeltaSegment;

use crate::backend::{BackendAnswer, Scratch, SearchBackend};
use crate::error::EngineError;
use crate::request::QueryOptions;

/// Delta rows transposed and scored per block-kernel call; bounds the
/// lane-buffer growth while amortizing per-call overhead.
const DELTA_SCAN_BLOCK: usize = 64;

/// A consistent read snapshot over `static backend + delta segment`,
/// served through the [`SearchBackend`] trait.
#[derive(Clone)]
pub struct DeltaOverlayBackend {
    inner: Arc<dyn SearchBackend>,
    delta: Arc<DeltaSegment>,
    name: String,
}

impl std::fmt::Debug for DeltaOverlayBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaOverlayBackend")
            .field("inner", &self.inner.name())
            .field("base_len", &self.delta.base_len())
            .field("delta_rows", &self.delta.delta_rows())
            .field("tombstones", &self.delta.tombstone_count())
            .finish()
    }
}

impl DeltaOverlayBackend {
    /// Overlay `delta` on `inner`. The delta must describe exactly this
    /// backend (same dimensionality, same point count); a mismatch is a
    /// typed configuration error.
    pub fn new(
        inner: Arc<dyn SearchBackend>,
        delta: Arc<DeltaSegment>,
    ) -> Result<DeltaOverlayBackend, EngineError> {
        if delta.dim() != inner.dim() {
            return Err(EngineError::Config(format!(
                "delta segment is {}-dimensional but backend {} is {}-dimensional",
                delta.dim(),
                inner.name(),
                inner.dim()
            )));
        }
        if delta.base_len() != inner.len() {
            return Err(EngineError::Config(format!(
                "delta segment describes a backend of {} points but backend {} holds {}",
                delta.base_len(),
                inner.name(),
                inner.len()
            )));
        }
        let name = format!("{}+Δ", inner.name());
        Ok(DeltaOverlayBackend { inner, delta, name })
    }

    /// The static backend underneath.
    pub fn inner(&self) -> &Arc<dyn SearchBackend> {
        &self.inner
    }

    /// The frozen delta snapshot this overlay serves.
    pub fn delta(&self) -> &DeltaSegment {
        &self.delta
    }
}

impl SearchBackend for DeltaOverlayBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// The *live* point count (backend − tombstones + live delta rows).
    fn len(&self) -> usize {
        self.delta.live_len()
    }

    fn new_scratch(&self) -> Scratch {
        self.inner.new_scratch()
    }

    /// Options pass through to the inner backend (a probability override
    /// still runs the *backend side* approximately; the delta side is
    /// always exact), so the overlay supports exactly the options its
    /// backend supports — with one adjustment: a caller's candidate budget
    /// is widened by the tombstone over-fetch margin, so tombstone-heavy
    /// states clamp rather than silently truncate the live results.
    fn knn_with_options(
        &self,
        scratch: &mut Scratch,
        query: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<BackendAnswer, EngineError> {
        // Over-fetch by the backend-side tombstone count: each tombstone
        // displaces at most one backend result, so the k best *live*
        // backend neighbors are guaranteed to be present (capped at the
        // backend size, where the fetch degenerates to a full ranking).
        let base_k = (k + self.delta.base_tombstone_count()).min(self.inner.len());
        // A caller's candidate budget was sized for `k` results; holding it
        // fixed while the fetch is widened to `base_k` would let the inner
        // backend truncate below the over-fetch — after tombstone filtering,
        // fewer than `k` live answers could survive even though they exist.
        // Widen the budget by the same margin (clamped to at least `base_k`
        // so the inner backend can surface the over-fetched results at all);
        // the delta side stays exact either way.
        let widened;
        let options = match options.candidate_budget {
            Some(budget) if base_k > k => {
                widened = QueryOptions {
                    candidate_budget: Some(budget.saturating_add(base_k - k).max(base_k)),
                    ..*options
                };
                &widened
            }
            _ => options,
        };
        let answer = self.inner.knn_with_options(scratch, query, base_k, options)?;
        let mut merged: Vec<_> = answer
            .neighbors
            .into_iter()
            .filter_map(|(internal, d)| {
                let external = self.delta.external_of(internal.index());
                self.delta.is_live(external).then_some((external, d))
            })
            .collect();

        // Exact scan of the live delta rows through the lane-major block
        // kernel — the same evaluation (and the same floating-point
        // association) the backends' refine phases use, so a point scores
        // bit-identically whether it lives in the delta or, after a
        // compaction, in the base store. The inner search is done with the
        // scratch, so re-arming the prepared query here cannot disturb it.
        let kind = self.delta.kind();
        let KernelScratch { prepared, lanes, distances, phis, .. } = &mut scratch.kernel;
        kind.prepare_query_into(prepared, query);
        let dim = query.len();
        let mut scanned = 0usize;
        let mut chunk = Vec::with_capacity(DELTA_SCAN_BLOCK);
        let mut rows = self.delta.live_delta_rows();
        loop {
            chunk.clear();
            phis.clear();
            while chunk.len() < DELTA_SCAN_BLOCK {
                match rows.next() {
                    Some((id, phi, row)) => {
                        phis.push(phi);
                        chunk.push((id, row));
                    }
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            let m = chunk.len();
            lanes.clear();
            lanes.resize(dim * m, 0.0);
            for (j, (_, row)) in chunk.iter().enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    lanes[i * m + j] = v;
                }
            }
            prepared.distance_block(phis, lanes, distances);
            scanned += m;
            merged.extend(chunk.iter().zip(distances.iter()).map(|(&(id, _), &d)| (id, d)));
        }

        // The same (divergence, id) total order every backend's refine
        // phase uses, so merged results are deterministic and mergeable
        // with brute force.
        merged.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        merged.truncate(k);
        Ok(BackendAnswer {
            neighbors: merged,
            candidates: answer.candidates + scanned,
            io: answer.io,
        })
    }

    fn save(&self, dir: &Path) -> Result<(), EngineError> {
        let _ = dir;
        Err(EngineError::Backend(format!(
            "backend {} is a query-time snapshot; persist the owning Index façade \
             (Index::save writes the backend artifacts plus the delta log) instead",
            self.name
        )))
    }
}
