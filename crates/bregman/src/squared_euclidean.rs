//! Squared Euclidean distance as a Bregman divergence.
//!
//! Generator `φ(t) = t²`, so `D_f(x, y) = Σ (x_j − y_j)²` (the un-halved
//! convention; the paper's `f(x) = ½ xᵀQx` with `Q = 2I` gives the same
//! value). This is the "ED" measure used for the Audio, Deep, SIFT and
//! Normal datasets in the evaluation.

use crate::divergence::DecomposableBregman;

/// Squared Euclidean distance, `φ(t) = t²`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl DecomposableBregman for SquaredEuclidean {
    fn name(&self) -> &'static str {
        "Squared Euclidean"
    }

    #[inline]
    fn phi(&self, t: f64) -> f64 {
        t * t
    }

    #[inline]
    fn phi_prime(&self, t: f64) -> f64 {
        2.0 * t
    }

    #[inline]
    fn phi_prime_inv(&self, s: f64) -> f64 {
        s / 2.0
    }

    #[inline]
    fn in_domain(&self, t: f64) -> bool {
        t.is_finite()
    }

    fn domain_anchor(&self) -> f64 {
        0.0
    }

    /// Specialized: `d_φ(x, y) = (x − y)²` avoids cancellation.
    #[inline]
    fn scalar_divergence(&self, x: f64, y: f64) -> f64 {
        let d = x - y;
        d * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_squared_l2_norm() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 3.0];
        let expected = 9.0 + 16.0 + 0.0;
        assert!((SquaredEuclidean.divergence(&x, &y) - expected).abs() < 1e-12);
    }

    #[test]
    fn symmetric_unlike_general_bregman() {
        let x = [0.0, -1.5, 2.0];
        let y = [1.0, 1.0, 1.0];
        let a = SquaredEuclidean.divergence(&x, &y);
        let b = SquaredEuclidean.divergence(&y, &x);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn scalar_specialization_matches_generic_formula() {
        let se = SquaredEuclidean;
        for &(x, y) in &[(0.0, 1.0), (-2.5, 3.0), (7.0, 7.0)] {
            let generic = se.phi(x) - se.phi(y) - se.phi_prime(y) * (x - y);
            assert!((se.scalar_divergence(x, y) - generic).abs() < 1e-9);
        }
    }

    #[test]
    fn dual_map_roundtrip() {
        let se = SquaredEuclidean;
        for t in [-3.0, 0.0, 1.25, 9.0] {
            assert!((se.phi_prime_inv(se.phi_prime(t)) - t).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_values_allowed() {
        assert!(SquaredEuclidean.in_domain(-5.0));
        assert!(!SquaredEuclidean.in_domain(f64::INFINITY));
    }
}
