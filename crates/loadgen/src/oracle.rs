//! The recall oracle: exact ground truth for sampled queries, at the
//! exact version each one executed under.
//!
//! Brute-forcing the full mutable dataset once per sample would dominate
//! the benchmark, so the oracle splits the work:
//!
//! * **Base side, precomputed once per query**: the caller brute-forces
//!   each sample query's neighbors over the *immutable base dataset* to a
//!   depth of `k + total planned deletes` — deep enough that however many
//!   base points a run tombstones, at least `k` live base candidates
//!   survive the filter.
//! * **Delta side, reconstructed per sample**: replaying the first
//!   `version` entries of the run's mutation log yields exactly the live
//!   inserted rows that query could see; they are scored with the
//!   caller's divergence and merged under the engine's `(divergence, id)`
//!   total order.
//!
//! Recall is then `|answer ∩ truth| / k` (denominator capped by the live
//! point count). The distance function is a parameter so the crate stays
//! dependency-free — the benchmark's serve phase passes the Bregman
//! divergence the index was built with.

use std::collections::HashMap;
use std::collections::HashSet;

use crate::runner::{Mutation, RecallSample};

/// Exact base-side neighbors of one sample query, ascending by
/// `(divergence, id)`. Depth must be at least `k` plus the number of
/// deletes the operation stream can apply (see [`crate::ops::delete_count`]).
#[derive(Debug, Clone)]
pub struct BaseNeighbors {
    /// `(id, divergence)` pairs, best first.
    pub neighbors: Vec<(u64, f64)>,
}

/// Ground-truth ids for `sample`, reconstructed at the sample's version.
///
/// `base` is the sample query's precomputed base-side neighbor list;
/// `insert_rows` the run's insert pool; `log` the run's full mutation
/// log; `dist` the divergence from a query to a stored row.
pub fn truth_at_version(
    sample: &RecallSample,
    base: &BaseNeighbors,
    query: &[f64],
    insert_rows: &[Vec<f64>],
    log: &[Mutation],
    dist: &dyn Fn(&[f64], &[f64]) -> f64,
    k: usize,
) -> Vec<u64> {
    let mut deleted: HashSet<u64> = HashSet::new();
    let mut live_inserts: HashMap<u64, usize> = HashMap::new();
    for mutation in &log[..sample.version] {
        match *mutation {
            Mutation::Insert { id, row_index } => {
                live_inserts.insert(id, row_index);
            }
            Mutation::Delete { id } => {
                live_inserts.remove(&id);
                deleted.insert(id);
            }
        }
    }

    let mut candidates: Vec<(f64, u64)> = base
        .neighbors
        .iter()
        .filter(|(id, _)| !deleted.contains(id))
        .map(|&(id, d)| (d, id))
        .collect();
    candidates.extend(
        live_inserts.iter().map(|(&id, &row_index)| (dist(query, &insert_rows[row_index]), id)),
    );
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    candidates.truncate(k);
    candidates.into_iter().map(|(_, id)| id).collect()
}

/// Recall of one sampled answer against its reconstructed truth:
/// `|answer ∩ truth| / |truth|` (1.0 when the truth set is empty).
pub fn sample_recall(sample: &RecallSample, truth: &[u64]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let truth_set: HashSet<u64> = truth.iter().copied().collect();
    let hits = sample.answer.iter().filter(|id| truth_set.contains(id)).count();
    hits as f64 / truth.len() as f64
}

/// Mean recall over a run's samples. `base_for` maps a sample's
/// `query_index` to its precomputed base-side neighbors, `query_for` to
/// the query vector itself. Returns `None` when there are no samples.
#[allow(clippy::too_many_arguments)]
pub fn mean_recall(
    samples: &[RecallSample],
    base_for: &dyn Fn(usize) -> BaseNeighbors,
    query_for: &dyn Fn(usize) -> Vec<f64>,
    insert_rows: &[Vec<f64>],
    log: &[Mutation],
    dist: &dyn Fn(&[f64], &[f64]) -> f64,
    k: usize,
) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut total = 0.0;
    for sample in samples {
        let base = base_for(sample.query_index);
        let query = query_for(sample.query_index);
        let truth = truth_at_version(sample, &base, &query, insert_rows, log, dist, k);
        total += sample_recall(sample, &truth);
    }
    Some(total / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn truth_filters_deleted_base_points() {
        // Base ids 0,1,2 at distances 1,2,3; id 1 deleted before the
        // sample's version.
        let base = BaseNeighbors { neighbors: vec![(0, 1.0), (1, 2.0), (2, 3.0)] };
        let log = vec![Mutation::Delete { id: 1 }];
        let sample = RecallSample { op_index: 5, query_index: 0, version: 1, answer: vec![0, 2] };
        let truth = truth_at_version(&sample, &base, &[0.0], &[], &log, &sq, 2);
        assert_eq!(truth, vec![0, 2]);
        assert_eq!(sample_recall(&sample, &truth), 1.0);
    }

    #[test]
    fn truth_merges_live_inserts_by_distance() {
        let base = BaseNeighbors { neighbors: vec![(0, 1.0), (1, 4.0)] };
        // Insert pool row 0 at coordinate 1.5 → distance 2.25 to query 0:
        // lands between the two base points. Inserted id is 100.
        let insert_rows = vec![vec![1.5]];
        let log = vec![Mutation::Insert { id: 100, row_index: 0 }];
        let sample = RecallSample { op_index: 1, query_index: 0, version: 1, answer: vec![0, 1] };
        let truth = truth_at_version(&sample, &base, &[0.0], &insert_rows, &log, &sq, 2);
        assert_eq!(truth, vec![0, 100]);
        // The answer missed the inserted point: recall 1/2.
        assert_eq!(sample_recall(&sample, &truth), 0.5);
    }

    #[test]
    fn truth_respects_version_not_full_log() {
        let base = BaseNeighbors { neighbors: vec![(0, 1.0)] };
        let insert_rows = vec![vec![0.1]];
        // The insert happens *after* the sample's version: invisible.
        let log = vec![Mutation::Insert { id: 7, row_index: 0 }];
        let sample = RecallSample { op_index: 0, query_index: 0, version: 0, answer: vec![0] };
        let truth = truth_at_version(&sample, &base, &[0.0], &insert_rows, &log, &sq, 2);
        assert_eq!(truth, vec![0]);
    }

    #[test]
    fn deleted_insert_does_not_resurface() {
        let base = BaseNeighbors { neighbors: vec![(0, 5.0)] };
        let insert_rows = vec![vec![0.0]];
        let log = vec![Mutation::Insert { id: 9, row_index: 0 }, Mutation::Delete { id: 9 }];
        let sample = RecallSample { op_index: 3, query_index: 0, version: 2, answer: vec![0] };
        let truth = truth_at_version(&sample, &base, &[0.0], &insert_rows, &log, &sq, 1);
        assert_eq!(truth, vec![0]);
    }

    #[test]
    fn mean_recall_averages_over_samples() {
        let base = BaseNeighbors { neighbors: vec![(0, 1.0), (1, 2.0)] };
        let samples = vec![
            RecallSample { op_index: 0, query_index: 0, version: 0, answer: vec![0, 1] },
            RecallSample { op_index: 2, query_index: 0, version: 0, answer: vec![0, 9] },
        ];
        let got =
            mean_recall(&samples, &|_| base.clone(), &|_| vec![0.0], &[], &[], &sq, 2).unwrap();
        assert!((got - 0.75).abs() < 1e-12);
        assert_eq!(mean_recall(&[], &|_| base.clone(), &|_| vec![0.0], &[], &[], &sq, 2), None);
    }
}
