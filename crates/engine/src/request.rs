//! Per-query requests: each query in a batch carries its own `k` and
//! optional search knobs instead of inheriting a batch-wide setting.
//!
//! [`EngineRequest`] borrows its query row (`&[f64]`), so a caller holding a
//! dataset — a [`bregman::DenseDataset`], a parsed request body, a memory-
//! mapped file — can submit a batch without cloning every vector into a
//! `Vec<Vec<f64>>` first.

/// Optional per-query search knobs.
///
/// Options are *typed requests*, not hints: a backend that cannot honor a
/// set option rejects the query with
/// [`EngineError::UnsupportedOption`](crate::EngineError::UnsupportedOption)
/// instead of silently ignoring it.
///
/// | option | honored by |
/// |---|---|
/// | `probability` | BrePartition backends (switches the query to the approximate search at that guarantee) |
/// | `candidate_budget` | BB-tree (bounds leaf visits) and VA-file (caps refined candidates) |
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryOptions {
    /// Override the approximate search's requested recall for this query
    /// (`(0, 1]`). On a BrePartition backend the query runs the approximate
    /// search at this recall even if the backend serves exact queries by
    /// default.
    pub probability: Option<f64>,
    /// Upper bound on the candidates this query may examine. Best-effort:
    /// the BB-tree rounds the budget up to whole leaves.
    pub candidate_budget: Option<usize>,
}

impl QueryOptions {
    /// No overrides: the backend's configured behavior.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any option is set.
    pub fn is_none(&self) -> bool {
        self.probability.is_none() && self.candidate_budget.is_none()
    }

    /// Request the approximate search at requested recall `p` (a target,
    /// not a guarantee).
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = Some(p);
        self
    }

    /// Cap the candidates examined for this query.
    pub fn with_candidate_budget(mut self, budget: usize) -> Self {
        self.candidate_budget = Some(budget);
        self
    }
}

/// One query of a batch: a borrowed row, its own `k`, and per-query options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineRequest<'a> {
    /// The query vector (borrowed; must match the index dimensionality).
    pub query: &'a [f64],
    /// Number of neighbors requested for *this* query.
    pub k: usize,
    /// Per-query search knobs.
    pub options: QueryOptions,
}

impl<'a> EngineRequest<'a> {
    /// A plain request: `k` neighbors of `query`, no option overrides.
    pub fn new(query: &'a [f64], k: usize) -> Self {
        Self { query, k, options: QueryOptions::none() }
    }

    /// Attach options to the request.
    pub fn with_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builder_sets_fields() {
        let opts = QueryOptions::none().with_probability(0.9).with_candidate_budget(128);
        assert_eq!(opts.probability, Some(0.9));
        assert_eq!(opts.candidate_budget, Some(128));
        assert!(!opts.is_none());
        assert!(QueryOptions::none().is_none());
    }

    #[test]
    fn request_borrows_its_row() {
        let row = vec![1.0, 2.0, 3.0];
        let req = EngineRequest::new(&row, 5).with_options(QueryOptions::none());
        assert_eq!(req.query, &row[..]);
        assert_eq!(req.k, 5);
        assert!(req.options.is_none());
    }
}
