//! Runtime-selectable divergence kinds.
//!
//! The experiment harness and the examples choose divergences by name (the
//! paper's Table 4 associates each dataset with either the exponential
//! distance "ED" or the Itakura-Saito distance "ISD"). [`DivergenceKind`]
//! is the cheap, copyable selector; each of its methods dispatches to the
//! concrete generator with one `match`, so no call goes through a trait
//! object.

use crate::divergence::DecomposableBregman;
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
            _ => Err(BregmanError::UnknownDivergence(name.to_string())),
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
    /// [`crate::kernel`]).
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

    /// Whether `t` lies in the domain of the kind's scalar generator
    /// (see [`DecomposableBregman::in_domain`]).
    fn in_domain(&self, t: f64) -> bool {
        match self {
            DivergenceKind::SquaredEuclidean => SquaredEuclidean.in_domain(t),
            DivergenceKind::ItakuraSaito => ItakuraSaito.in_domain(t),
            DivergenceKind::Exponential => Exponential.in_domain(t),
            DivergenceKind::GeneralizedI => GeneralizedI.in_domain(t),
        }
    }

    /// `Ok` when every coordinate of `x` lies in the divergence's domain,
    /// otherwise [`BregmanError::OutOfDomain`] naming the kind by its
    /// [short name](DivergenceKind::short_name) and carrying the first
    /// offending value. Every coordinate must be finite; ISD and GI also
    /// reject `t ≤ 0`, and ED rejects `|t| ≥ 700`, past which `e^t` and
    /// the prepared kernel's offset overflow.
    pub fn check_domain(&self, x: &[f64]) -> Result<()> {
        match x.iter().find(|&&v| !self.in_domain(v)) {
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
    fn unknown_names_get_their_own_error() {
        let e = DivergenceKind::parse("foo").unwrap_err();
        assert_eq!(e, BregmanError::UnknownDivergence("foo".to_string()));
        assert_eq!(e.to_string(), "unknown divergence name: foo");
    }

    #[test]
    fn check_domain_is_the_scalar_predicate_on_every_coordinate() {
        let values = [
            -1e10,
            -705.0,
            -700.0,
            -699.9,
            0.0,
            1e-300,
            1.0,
            699.9,
            700.0,
            705.0,
            1e10,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for kind in DivergenceKind::ALL {
            for t in values {
                let scalar = match kind {
                    DivergenceKind::SquaredEuclidean => SquaredEuclidean.in_domain(t),
                    DivergenceKind::ItakuraSaito => ItakuraSaito.in_domain(t),
                    DivergenceKind::Exponential => Exponential.in_domain(t),
                    DivergenceKind::GeneralizedI => GeneralizedI.in_domain(t),
                };
                assert_eq!(kind.check_domain(&[t]).is_ok(), scalar, "{kind} at {t}");
                // A bad coordinate anywhere in a row rejects the row.
                assert_eq!(kind.check_domain(&[1.0, t, 1.0]).is_ok(), scalar, "{kind} at {t}");
            }
        }
        assert_eq!(
            DivergenceKind::Exponential.check_domain(&[1.0, 705.0]),
            Err(BregmanError::OutOfDomain { divergence: "ED", value: 705.0 })
        );
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
