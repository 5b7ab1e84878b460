//! Query requests: per-query `k` and options over borrowed rows.
//!
//! [`QueryRequest`] is the façade's single-query description; [`Request`]
//! is a batch of them. Both borrow their query vectors (`&[f64]`), so a
//! caller holding a [`DenseDataset`](bregman::DenseDataset), a parsed
//! network payload or a memory-mapped file submits batches without cloning
//! every row into a `Vec<Vec<f64>>` first.

use bregman::DivergenceKind;
use brepartition_core::CoreError;
use brepartition_engine::{EngineRequest, QueryOptions};

use crate::error::{Error, Result};

/// One kNN query: a borrowed row, its own `k`, and optional per-query
/// search knobs.
///
/// ```
/// use brepartition::QueryRequest;
///
/// let row = [1.0, 2.0, 4.0];
/// let request = QueryRequest::new(&row, 10)
///     .with_probability(0.95); // run this query approximately
/// assert_eq!(request.k(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRequest<'a> {
    inner: EngineRequest<'a>,
}

impl<'a> QueryRequest<'a> {
    /// `k` nearest neighbors of `query` under the index's divergence.
    pub fn new(query: &'a [f64], k: usize) -> Self {
        Self { inner: EngineRequest::new(query, k) }
    }

    /// Run *this query* through the approximate search at requested recall
    /// `p ∈ (0, 1]`, whatever the spec's own probability. `p` is a target,
    /// not a guarantee: the achieved recall follows from how well the
    /// search's Normal model fits the data (0.895–0.945 measured on the
    /// Fonts proxy at p = 0.9).
    /// Supported by BrePartition indexes; other methods reject the query
    /// with a typed error.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.inner.options.probability = Some(p);
        self
    }

    /// Cap the candidates this query may examine (best-effort; the BB-tree
    /// rounds the budget up to whole leaves). Supported by the BB-tree and
    /// VA-file baselines; BrePartition indexes reject the query with a
    /// typed error.
    pub fn with_candidate_budget(mut self, budget: usize) -> Self {
        self.inner.options.candidate_budget = Some(budget);
        self
    }

    /// The borrowed query row.
    pub fn query(&self) -> &'a [f64] {
        self.inner.query
    }

    /// The number of neighbors requested.
    pub fn k(&self) -> usize {
        self.inner.k
    }

    /// The per-query options.
    pub fn options(&self) -> QueryOptions {
        self.inner.options
    }

    /// The engine-level request this wraps.
    pub(crate) fn as_engine_request(&self) -> EngineRequest<'a> {
        self.inner
    }

    /// Reject a query row with a coordinate outside `kind`'s domain (NaN
    /// or ±∞ under every divergence, ≤ 0 under Itakura–Saito and the
    /// generalized I-divergence, `|t| ≥ 700` under the exponential
    /// distance) with the error an insert of that row gets, before any
    /// bound or kernel sees it.
    pub(crate) fn check_domain(&self, kind: DivergenceKind) -> Result<()> {
        kind.check_domain(self.query()).map_err(|e| Error::Core(CoreError::Bregman(e)))
    }
}

/// A batch of [`QueryRequest`]s, executed in submission order by
/// [`Index::run`](crate::Index::run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request<'a> {
    queries: Vec<QueryRequest<'a>>,
    allow_partial: bool,
}

impl<'a> Request<'a> {
    /// A batch from explicit per-query requests (heterogeneous `k` and
    /// options welcome).
    pub fn batch(queries: impl IntoIterator<Item = QueryRequest<'a>>) -> Self {
        Self { queries: queries.into_iter().collect(), allow_partial: false }
    }

    /// A uniform batch: the same `k`, no option overrides, one request per
    /// row of `rows`.
    pub fn uniform<R: AsRef<[f64]>>(rows: &'a [R], k: usize) -> Self {
        Self {
            queries: rows.iter().map(|row| QueryRequest::new(row.as_ref(), k)).collect(),
            allow_partial: false,
        }
    }

    /// Opt in to partial results on a sharded index: if some shards fail
    /// under a fault-tolerant fan-out
    /// ([`ShardedIndex::run_with_policy`](crate::ShardedIndex::run_with_policy)),
    /// accept the surviving shards' answers flagged with the unreached
    /// id-space fraction instead of failing the batch. Without this flag
    /// such a batch fails fast — results over disjoint slices are never
    /// silently incomplete.
    pub fn allow_partial(mut self) -> Self {
        self.allow_partial = true;
        self
    }

    /// Whether the caller opted in to partial sharded results.
    pub fn partial_allowed(&self) -> bool {
        self.allow_partial
    }

    /// Append one request.
    pub fn push(&mut self, request: QueryRequest<'a>) {
        self.queries.push(request);
    }

    /// The requests, in submission order.
    pub fn queries(&self) -> &[QueryRequest<'a>] {
        &self.queries
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// [`QueryRequest::check_domain`] for every query of the batch.
    pub(crate) fn check_domain(&self, kind: DivergenceKind) -> Result<()> {
        self.queries.iter().try_for_each(|q| q.check_domain(kind))
    }

    /// Lower the batch to engine-level requests.
    pub(crate) fn as_engine_requests(&self) -> Vec<EngineRequest<'a>> {
        self.queries.iter().map(|q| q.as_engine_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_batches_borrow_rows() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let request = Request::uniform(&rows, 3);
        assert_eq!(request.len(), 2);
        assert_eq!(request.queries()[1].query(), &[3.0, 4.0]);
        assert_eq!(request.queries()[1].k(), 3);
        assert!(request.queries()[0].options().is_none());
    }

    #[test]
    fn heterogeneous_batches_carry_per_query_settings() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let mut request = Request::batch([
            QueryRequest::new(&a, 1).with_probability(0.9),
            QueryRequest::new(&b, 7).with_candidate_budget(64),
        ]);
        request.push(QueryRequest::new(&a, 3));
        assert_eq!(request.len(), 3);
        let lowered = request.as_engine_requests();
        assert_eq!(lowered[0].k, 1);
        assert_eq!(lowered[0].options.probability, Some(0.9));
        assert_eq!(lowered[1].k, 7);
        assert_eq!(lowered[1].options.candidate_budget, Some(64));
        assert_eq!(lowered[2].k, 3);
        assert!(lowered[2].options.is_none());
        assert!(!request.is_empty());
        assert!(Request::default().is_empty());
    }
}
