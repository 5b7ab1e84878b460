//! Generalized I-divergence (unnormalized Kullback-Leibler).
//!
//! Generator `φ(t) = t ln t` on `t > 0`, giving
//! `D_f(x, y) = Σ ( x_j ln(x_j / y_j) − x_j + y_j )`.
//!
//! The *normalized* KL-divergence over probability vectors is explicitly
//! excluded by the paper from the partitioned pipeline because the
//! normalization couples dimensions, so the divergence of a concatenation is
//! not the sum of partition divergences. The unnormalized form implemented
//! here *is* decomposable; [`GeneralizedI::cumulative_across_partitions`]
//! still reports `false` so that the BrePartition builder rejects it exactly
//! as the paper prescribes for KL-style measures, while the divergence
//! remains available to the flat (non-partitioned) indexes.

use crate::divergence::DecomposableBregman;

/// Generalized I-divergence (unnormalized KL), `φ(t) = t ln t`, domain `t > 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneralizedI;

impl DecomposableBregman for GeneralizedI {
    fn name(&self) -> &'static str {
        "Generalized I-divergence"
    }

    #[inline]
    fn phi(&self, t: f64) -> f64 {
        t * t.ln()
    }

    #[inline]
    fn phi_prime(&self, t: f64) -> f64 {
        t.ln() + 1.0
    }

    #[inline]
    fn phi_prime_inv(&self, s: f64) -> f64 {
        (s - 1.0).exp()
    }

    #[inline]
    fn in_domain(&self, t: f64) -> bool {
        t.is_finite() && t > 0.0
    }

    fn domain_anchor(&self) -> f64 {
        1.0
    }

    /// `x ln(x/y) − x + y`.
    #[inline]
    fn scalar_divergence(&self, x: f64, y: f64) -> f64 {
        x * (x / y).ln() - x + y
    }

    fn cumulative_across_partitions(&self) -> bool {
        // Mirrors the paper's exclusion of KL-style divergences from the
        // partition-filter-refinement pipeline.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_generic_formula() {
        let kl = GeneralizedI;
        for &(x, y) in &[(0.5, 2.0), (3.0, 0.25), (1.0, 1.0)] {
            let generic = kl.phi(x) - kl.phi(y) - kl.phi_prime(y) * (x - y);
            assert!((kl.scalar_divergence(x, y) - generic).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_at_equality_positive_elsewhere() {
        let kl = GeneralizedI;
        assert!(kl.scalar_divergence(0.4, 0.4).abs() < 1e-15);
        assert!(kl.scalar_divergence(0.4, 0.6) > 0.0);
        assert!(kl.scalar_divergence(0.6, 0.4) > 0.0);
    }

    #[test]
    fn excluded_from_partitioning() {
        assert!(!GeneralizedI.cumulative_across_partitions());
    }

    #[test]
    fn dual_map_roundtrip() {
        let kl = GeneralizedI;
        for t in [0.2, 1.0, 4.0] {
            assert!((kl.phi_prime_inv(kl.phi_prime(t)) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn domain_positive_only() {
        assert!(!GeneralizedI.in_domain(0.0));
        assert!(GeneralizedI.in_domain(2.0));
        assert!(!GeneralizedI.in_domain_vec(&[1.0, -1.0]));
    }
}
