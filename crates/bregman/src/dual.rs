//! Geodesic interpolation in the dual (gradient) space.
//!
//! For a decomposable generator, the curve
//!
//! ```text
//! x_θ = ∇f*( (1 − θ) ∇f(a) + θ ∇f(b) ),   θ ∈ [0, 1]
//! ```
//!
//! connects `a` (θ = 0) to `b` (θ = 1) and is the curve along which Cayton's
//! BB-tree projection performs its bisection search: the divergence to the
//! ball centre decreases monotonically in θ while the divergence to the query
//! increases, so the point where the curve crosses the ball surface gives the
//! exact lower bound on the divergence from any point inside the ball to the
//! query.
//!
//! [`GeodesicInterpolator`] caches the dual coordinates of the two endpoints
//! so repeated evaluations during the bisection reuse the `∇f` computations.

use crate::divergence::DecomposableBregman;

/// Caches the dual coordinates of two endpoints and evaluates points on the
/// dual geodesic between them.
#[derive(Debug, Clone)]
pub struct GeodesicInterpolator<B: DecomposableBregman> {
    divergence: B,
    dual_a: Vec<f64>,
    dual_b: Vec<f64>,
    scratch: Vec<f64>,
}

impl<B: DecomposableBregman> GeodesicInterpolator<B> {
    /// Create an interpolator between `a` (θ = 0) and `b` (θ = 1).
    pub fn new(divergence: B, a: &[f64], b: &[f64]) -> Self {
        assert_eq!(a.len(), b.len(), "geodesic endpoints must share a dimension");
        let dual_a = divergence.to_dual(a);
        let dual_b = divergence.to_dual(b);
        let scratch = vec![0.0; a.len()];
        Self { divergence, dual_a, dual_b, scratch }
    }

    /// Dimensionality of the endpoints.
    pub fn dim(&self) -> usize {
        self.dual_a.len()
    }

    /// Evaluate the primal-space point at parameter `theta`, writing into the
    /// internal scratch buffer and returning a reference to it.
    pub fn at(&mut self, theta: f64) -> &[f64] {
        let t = theta.clamp(0.0, 1.0);
        for i in 0..self.dual_a.len() {
            let dual = (1.0 - t) * self.dual_a[i] + t * self.dual_b[i];
            self.scratch[i] = self.divergence.phi_prime_inv(dual);
        }
        &self.scratch
    }

    /// Divergence from the point at `theta` to an arbitrary reference point
    /// (`D_f(x_θ, reference)`).
    pub fn divergence_to(&mut self, theta: f64, reference: &[f64]) -> f64 {
        let div = self.divergence.clone();
        let point = self.at(theta);
        div.divergence(point, reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, ItakuraSaito, SquaredEuclidean};

    #[test]
    fn endpoints_are_recovered() {
        let a = [1.0, 2.0, 0.5];
        let b = [3.0, 0.25, 4.0];
        let mut g = GeodesicInterpolator::new(ItakuraSaito, &a, &b);
        let at0 = g.at(0.0).to_vec();
        let at1 = g.at(1.0).to_vec();
        for i in 0..3 {
            assert!((at0[i] - a[i]).abs() < 1e-9);
            assert!((at1[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn squared_euclidean_geodesic_is_straight_line() {
        let a = [0.0, 0.0];
        let b = [2.0, 4.0];
        let mut g = GeodesicInterpolator::new(SquaredEuclidean, &a, &b);
        let mid = g.at(0.5).to_vec();
        assert!((mid[0] - 1.0).abs() < 1e-12);
        assert!((mid[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn divergence_to_endpoint_is_monotone_along_curve() {
        let a = [0.2, 1.0, 3.0];
        let b = [2.0, 0.4, 1.0];
        let mut g = GeodesicInterpolator::new(Exponential, &a, &b);
        // D(x_θ, b) should decrease as θ goes 0 → 1.
        let mut prev = f64::INFINITY;
        for step in 0..=10 {
            let theta = step as f64 / 10.0;
            let d = g.divergence_to(theta, &b);
            assert!(d <= prev + 1e-9, "θ={theta}: {d} > {prev}");
            prev = d;
        }
        assert!(prev.abs() < 1e-9);
    }

    #[test]
    fn theta_is_clamped() {
        let a = [1.0];
        let b = [2.0];
        let mut g = GeodesicInterpolator::new(SquaredEuclidean, &a, &b);
        assert!((g.at(-3.0)[0] - 1.0).abs() < 1e-12);
        assert!((g.at(7.0)[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interpolated_point_divergence_never_exceeds_endpoint_divergence() {
        // For any θ, D(x_θ, a) ≤ D(b, a): the geodesic stays "between" the
        // endpoints in divergence terms.
        let a = [0.5, 1.5, 2.5];
        let b = [4.0, 0.3, 1.0];
        let mut g = GeodesicInterpolator::new(ItakuraSaito, &a, &b);
        let total = ItakuraSaito.divergence(&b, &a);
        for step in 0..=20 {
            let theta = step as f64 / 20.0;
            let d = g.divergence_to(theta, &a);
            assert!(d <= total + 1e-9);
        }
    }
}
