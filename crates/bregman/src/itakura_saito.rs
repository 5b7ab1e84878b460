//! Itakura-Saito distance (Burg entropy generator).
//!
//! Generator `φ(t) = −ln t` on `t > 0`, giving
//! `D_f(x, y) = Σ ( x_j / y_j − ln(x_j / y_j) − 1 )`.
//! Widely used for speech spectra; the "ISD" measure of the Fonts and
//! Uniform datasets in the paper's evaluation.

use crate::divergence::DecomposableBregman;

/// Itakura-Saito distance, `φ(t) = −ln t`, domain `t > 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItakuraSaito;

impl DecomposableBregman for ItakuraSaito {
    fn name(&self) -> &'static str {
        "Itakura-Saito"
    }

    #[inline]
    fn phi(&self, t: f64) -> f64 {
        -t.ln()
    }

    #[inline]
    fn phi_prime(&self, t: f64) -> f64 {
        -1.0 / t
    }

    #[inline]
    fn phi_prime_inv(&self, s: f64) -> f64 {
        -1.0 / s
    }

    #[inline]
    fn in_domain(&self, t: f64) -> bool {
        t.is_finite() && t > 0.0
    }

    fn domain_anchor(&self) -> f64 {
        1.0
    }

    /// Specialized ratio form `x/y − ln(x/y) − 1`.
    #[inline]
    fn scalar_divergence(&self, x: f64, y: f64) -> f64 {
        let r = x / y;
        r - r.ln() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_at_equality_and_positive_elsewhere() {
        let isd = ItakuraSaito;
        assert!(isd.scalar_divergence(2.0, 2.0).abs() < 1e-15);
        assert!(isd.scalar_divergence(2.0, 1.0) > 0.0);
        assert!(isd.scalar_divergence(1.0, 2.0) > 0.0);
    }

    #[test]
    fn asymmetric() {
        let isd = ItakuraSaito;
        let x = [4.0, 1.0];
        let y = [1.0, 4.0];
        let a = isd.divergence(&x, &y);
        let b = isd.divergence(&y, &x);
        // The ratio form is permutation-symmetric here, so use unequal vectors.
        let x2 = [4.0, 4.0];
        let y2 = [1.0, 2.0];
        let a2 = isd.divergence(&x2, &y2);
        let b2 = isd.divergence(&y2, &x2);
        assert!((a - b).abs() < 1e-12); // this particular pair is symmetric by construction
        assert!((a2 - b2).abs() > 1e-6, "ISD should be asymmetric in general");
    }

    #[test]
    fn matches_generic_formula() {
        let isd = ItakuraSaito;
        for &(x, y) in &[(0.5, 2.0), (3.0, 0.25), (1.0, 1.0)] {
            let generic = isd.phi(x) - isd.phi(y) - isd.phi_prime(y) * (x - y);
            assert!((isd.scalar_divergence(x, y) - generic).abs() < 1e-12);
        }
    }

    #[test]
    fn domain_excludes_non_positive() {
        let isd = ItakuraSaito;
        assert!(!isd.in_domain(0.0));
        assert!(!isd.in_domain(-1.0));
        assert!(isd.in_domain(1e-9));
        assert!(!isd.in_domain_vec(&[1.0, 0.0]));
        assert!(isd.in_domain_vec(&[1.0, 2.0]));
    }

    #[test]
    fn dual_map_roundtrip() {
        let isd = ItakuraSaito;
        for t in [0.1, 1.0, 3.5, 100.0] {
            assert!((isd.phi_prime_inv(isd.phi_prime(t)) - t).abs() < 1e-9);
        }
    }
}
