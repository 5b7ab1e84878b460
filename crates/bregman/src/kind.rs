//! Runtime-selectable divergence kinds.
//!
//! The experiment harness and the examples choose divergences by name (the
//! paper's Table 4 associates each dataset with either the exponential
//! distance "ED" or the Itakura-Saito distance "ISD"). [`DivergenceKind`]
//! is the cheap, copyable selector; [`DivergenceKind::with_decomposable`]
//! lets generic call sites monomorphize over the concrete generator without
//! dynamic dispatch in the hot path.

use crate::divergence::{DecomposableBregman, Divergence};
use crate::error::{BregmanError, Result};
use crate::{Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};

/// Selector for the decomposable divergences shipped with this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivergenceKind {
    /// Squared Euclidean distance (`φ(t) = t²`).
    SquaredEuclidean,
    /// Itakura-Saito distance (`φ(t) = −ln t`), the paper's "ISD".
    ItakuraSaito,
    /// Exponential distance (`φ(t) = e^t`), the paper's "ED".
    Exponential,
    /// Generalized I-divergence / unnormalized KL (`φ(t) = t ln t`).
    GeneralizedI,
}

impl DivergenceKind {
    /// All kinds, in a stable order (useful for exhaustive tests).
    pub const ALL: [DivergenceKind; 4] = [
        DivergenceKind::SquaredEuclidean,
        DivergenceKind::ItakuraSaito,
        DivergenceKind::Exponential,
        DivergenceKind::GeneralizedI,
    ];

    /// Parse the abbreviations used in the paper's Table 4 plus the full
    /// names of the divergences.
    pub fn parse(name: &str) -> Result<Self> {
        let lowered = name.trim().to_ascii_lowercase();
        match lowered.as_str() {
            "ed" | "exp" | "exponential" => Ok(DivergenceKind::Exponential),
            "isd" | "is" | "itakura-saito" | "itakura_saito" | "itakurasaito" => {
                Ok(DivergenceKind::ItakuraSaito)
            }
            "se" | "l2" | "squared-euclidean" | "squared_euclidean" | "squaredeuclidean" => {
                Ok(DivergenceKind::SquaredEuclidean)
            }
            "kl" | "gi" | "generalized-i" | "generalized_i" | "generalizedi" => {
                Ok(DivergenceKind::GeneralizedI)
            }
            _ => Err(BregmanError::InvalidMatrix(format!("unknown divergence name: {name}"))),
        }
    }

    /// The canonical short name (matching the paper's notation where one
    /// exists).
    pub fn short_name(&self) -> &'static str {
        match self {
            DivergenceKind::SquaredEuclidean => "SE",
            DivergenceKind::ItakuraSaito => "ISD",
            DivergenceKind::Exponential => "ED",
            DivergenceKind::GeneralizedI => "GI",
        }
    }

    /// A boxed trait object for call sites that only need [`Divergence`].
    pub fn boxed(&self) -> Box<dyn Divergence> {
        match self {
            DivergenceKind::SquaredEuclidean => Box::new(SquaredEuclidean),
            DivergenceKind::ItakuraSaito => Box::new(ItakuraSaito),
            DivergenceKind::Exponential => Box::new(Exponential),
            DivergenceKind::GeneralizedI => Box::new(GeneralizedI),
        }
    }

    /// Whether data for this divergence must be strictly positive.
    pub fn requires_positive_data(&self) -> bool {
        matches!(self, DivergenceKind::ItakuraSaito | DivergenceKind::GeneralizedI)
    }

    /// Whether the kind may be used with the partitioned BrePartition
    /// pipeline (see [`DecomposableBregman::cumulative_across_partitions`]).
    pub fn supports_partitioning(&self) -> bool {
        match self {
            DivergenceKind::SquaredEuclidean => SquaredEuclidean.cumulative_across_partitions(),
            DivergenceKind::ItakuraSaito => ItakuraSaito.cumulative_across_partitions(),
            DivergenceKind::Exponential => Exponential.cumulative_across_partitions(),
            DivergenceKind::GeneralizedI => GeneralizedI.cumulative_across_partitions(),
        }
    }

    /// Invoke `f` with the concrete generator, monomorphizing the caller.
    pub fn with_decomposable<R>(&self, f: impl FnOnce(&dyn Divergence) -> R) -> R {
        match self {
            DivergenceKind::SquaredEuclidean => f(&SquaredEuclidean),
            DivergenceKind::ItakuraSaito => f(&ItakuraSaito),
            DivergenceKind::Exponential => f(&Exponential),
            DivergenceKind::GeneralizedI => f(&GeneralizedI),
        }
    }

    /// Evaluate the divergence between two slices through the selector.
    pub fn divergence(&self, x: &[f64], y: &[f64]) -> f64 {
        match self {
            DivergenceKind::SquaredEuclidean => SquaredEuclidean.divergence(x, y),
            DivergenceKind::ItakuraSaito => ItakuraSaito.divergence(x, y),
            DivergenceKind::Exponential => Exponential.divergence(x, y),
            DivergenceKind::GeneralizedI => GeneralizedI.divergence(x, y),
        }
    }

    /// The BrePartition data-point components `(α_x, γ_x)` of a subvector
    /// (see [`DecomposableBregman::point_components`]).
    pub fn point_components(&self, x: &[f64]) -> (f64, f64) {
        match self {
            DivergenceKind::SquaredEuclidean => SquaredEuclidean.point_components(x),
            DivergenceKind::ItakuraSaito => ItakuraSaito.point_components(x),
            DivergenceKind::Exponential => Exponential.point_components(x),
            DivergenceKind::GeneralizedI => GeneralizedI.point_components(x),
        }
    }

    /// The BrePartition query components `(α_y, β_yy, δ_y)` of a subvector
    /// (see [`DecomposableBregman::query_components`]).
    pub fn query_components(&self, y: &[f64]) -> (f64, f64, f64) {
        match self {
            DivergenceKind::SquaredEuclidean => SquaredEuclidean.query_components(y),
            DivergenceKind::ItakuraSaito => ItakuraSaito.query_components(y),
            DivergenceKind::Exponential => Exponential.query_components(y),
            DivergenceKind::GeneralizedI => GeneralizedI.query_components(y),
        }
    }

    /// Hoist the query-side work of the decomposed divergence into a
    /// [`PreparedQuery`](crate::kernel::PreparedQuery) (see
    /// [`crate::kernel`]). All four kinds are decomposable, so this always
    /// produces the transcendental-free fast path.
    pub fn prepare_query(&self, query: &[f64]) -> crate::kernel::PreparedQuery {
        let mut out = crate::kernel::PreparedQuery::default();
        self.prepare_query_into(&mut out, query);
        out
    }

    /// Re-prepare an existing [`PreparedQuery`](crate::kernel::PreparedQuery)
    /// in place, reusing its buffers (the batch-serving hot path).
    pub fn prepare_query_into(&self, out: &mut crate::kernel::PreparedQuery, query: &[f64]) {
        match self {
            DivergenceKind::SquaredEuclidean => out.decompose_into(&SquaredEuclidean, query),
            DivergenceKind::ItakuraSaito => out.decompose_into(&ItakuraSaito, query),
            DivergenceKind::Exponential => out.decompose_into(&Exponential, query),
            DivergenceKind::GeneralizedI => out.decompose_into(&GeneralizedI, query),
        }
    }

    /// The generator sum `Φ(x) = Σ_i φ(x_i)` of one point — the per-point
    /// side of the decomposed kernel, tabulated at index-build time.
    pub fn phi_sum(&self, x: &[f64]) -> f64 {
        match self {
            DivergenceKind::SquaredEuclidean => SquaredEuclidean.f(x),
            DivergenceKind::ItakuraSaito => ItakuraSaito.f(x),
            DivergenceKind::Exponential => Exponential.f(x),
            DivergenceKind::GeneralizedI => GeneralizedI.f(x),
        }
    }

    /// Whether every coordinate of `x` lies in the divergence's domain.
    pub fn in_domain_vec(&self, x: &[f64]) -> bool {
        match self {
            DivergenceKind::SquaredEuclidean => Divergence::in_domain_vec(&SquaredEuclidean, x),
            DivergenceKind::ItakuraSaito => Divergence::in_domain_vec(&ItakuraSaito, x),
            DivergenceKind::Exponential => Divergence::in_domain_vec(&Exponential, x),
            DivergenceKind::GeneralizedI => Divergence::in_domain_vec(&GeneralizedI, x),
        }
    }

    /// `Ok` when every coordinate of `x` lies in the divergence's domain
    /// (finite everywhere, and positive under Itakura–Saito and the
    /// generalized I-divergence), otherwise [`BregmanError::OutOfDomain`]
    /// naming the kind by its [short name](DivergenceKind::short_name) and
    /// carrying the first offending value.
    pub fn check_domain(&self, x: &[f64]) -> Result<()> {
        match x.iter().find(|&&v| !self.in_domain_vec(std::slice::from_ref(&v))) {
            None => Ok(()),
            Some(&value) => Err(BregmanError::OutOfDomain { divergence: self.short_name(), value }),
        }
    }
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_abbreviations() {
        assert_eq!(DivergenceKind::parse("ED").unwrap(), DivergenceKind::Exponential);
        assert_eq!(DivergenceKind::parse("ISD").unwrap(), DivergenceKind::ItakuraSaito);
        assert_eq!(DivergenceKind::parse("l2").unwrap(), DivergenceKind::SquaredEuclidean);
        assert_eq!(DivergenceKind::parse("KL").unwrap(), DivergenceKind::GeneralizedI);
        assert!(DivergenceKind::parse("cosine").is_err());
    }

    #[test]
    fn display_matches_short_name() {
        for kind in DivergenceKind::ALL {
            assert_eq!(kind.to_string(), kind.short_name());
        }
    }

    #[test]
    fn boxed_agrees_with_direct_evaluation() {
        let x = [1.0, 2.0, 3.0];
        let y = [0.5, 2.5, 3.5];
        for kind in DivergenceKind::ALL {
            let via_enum = kind.divergence(&x, &y);
            let via_box = kind.boxed().divergence(&x, &y);
            assert!((via_enum - via_box).abs() < 1e-12);
        }
    }

    #[test]
    fn positivity_requirements() {
        assert!(DivergenceKind::ItakuraSaito.requires_positive_data());
        assert!(DivergenceKind::GeneralizedI.requires_positive_data());
        assert!(!DivergenceKind::Exponential.requires_positive_data());
        assert!(!DivergenceKind::SquaredEuclidean.requires_positive_data());
    }

    #[test]
    fn partitioning_support_matches_paper() {
        assert!(DivergenceKind::SquaredEuclidean.supports_partitioning());
        assert!(DivergenceKind::ItakuraSaito.supports_partitioning());
        assert!(DivergenceKind::Exponential.supports_partitioning());
        assert!(!DivergenceKind::GeneralizedI.supports_partitioning());
    }

    #[test]
    fn name_roundtrip() {
        for kind in DivergenceKind::ALL {
            assert_eq!(DivergenceKind::parse(kind.short_name()).unwrap(), kind);
        }
    }
}
