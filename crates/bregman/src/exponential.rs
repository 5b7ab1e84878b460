//! Exponential distance.
//!
//! Generator `φ(t) = e^t`, giving
//! `D_f(x, y) = Σ ( e^{x_j} − (x_j − y_j + 1) e^{y_j} )`.
//! The paper introduces this divergence (named "exponential distance", ED in
//! Table 4) and uses it for the Audio, Deep, SIFT and Normal datasets.

use crate::divergence::DecomposableBregman;

/// Exponential distance, `φ(t) = e^t`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exponential;

impl DecomposableBregman for Exponential {
    fn name(&self) -> &'static str {
        "Exponential"
    }

    #[inline]
    fn phi(&self, t: f64) -> f64 {
        t.exp()
    }

    #[inline]
    fn phi_prime(&self, t: f64) -> f64 {
        t.exp()
    }

    #[inline]
    fn phi_prime_inv(&self, s: f64) -> f64 {
        s.ln()
    }

    #[inline]
    fn in_domain(&self, t: f64) -> bool {
        // exp overflows around 709; keep arguments in a range where the
        // divergence stays finite in double precision.
        t.is_finite() && t.abs() < 700.0
    }

    fn domain_anchor(&self) -> f64 {
        0.0
    }

    /// `e^x − (x − y + 1) e^y`, matching the closed form in the paper.
    #[inline]
    fn scalar_divergence(&self, x: f64, y: f64) -> f64 {
        x.exp() - (x - y + 1.0) * y.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_generic_formula() {
        let ed = Exponential;
        for &(x, y) in &[(0.0, 1.0), (-2.0, 3.0), (1.5, 1.5), (4.0, -4.0)] {
            let generic = ed.phi(x) - ed.phi(y) - ed.phi_prime(y) * (x - y);
            assert!((ed.scalar_divergence(x, y) - generic).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_at_equality_positive_elsewhere() {
        let ed = Exponential;
        assert!(ed.scalar_divergence(0.7, 0.7).abs() < 1e-12);
        assert!(ed.scalar_divergence(0.0, 1.0) > 0.0);
        assert!(ed.scalar_divergence(1.0, 0.0) > 0.0);
    }

    #[test]
    fn asymmetric() {
        let ed = Exponential;
        let a = ed.divergence(&[2.0, 0.0], &[0.0, 0.0]);
        let b = ed.divergence(&[0.0, 0.0], &[2.0, 0.0]);
        assert!((a - b).abs() > 1e-6);
    }

    #[test]
    fn dual_map_roundtrip() {
        let ed = Exponential;
        for t in [-5.0, 0.0, 1.0, 6.0] {
            assert!((ed.phi_prime_inv(ed.phi_prime(t)) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn domain_excludes_overflowing_values() {
        assert!(!Exponential.in_domain(1e10));
        assert!(Exponential.in_domain(10.0));
    }
}
