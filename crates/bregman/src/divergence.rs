//! The divergence trait.
//!
//! [`DecomposableBregman`] exposes the scalar generator `φ`, its derivative
//! and the inverse of the derivative, from which every vector level
//! operation needed by BrePartition (divergences, gradients, dual
//! coordinates, geodesic interpolation, partial sums for the Cauchy bound)
//! is derived.

use crate::error::{BregmanError, Result};

/// A decomposable (separable) Bregman divergence defined by a scalar
/// generator `φ`, with `f(x) = Σ_j φ(x_j)`.
///
/// The vector-level operations used throughout the repository are provided
/// as default methods and only require a name, the three scalar functions
/// and a scalar domain predicate. The inverse derivative
/// [`DecomposableBregman::phi_prime_inv`] is the scalar Legendre-dual map
/// used for geodesic interpolation inside Bregman-ball projection.
///
/// Implementations must guarantee `D_f(x, x) = 0` and `D_f(x, y) ≥ 0` for all
/// in-domain arguments. Symmetry and the triangle inequality are *not*
/// required — Bregman divergences generally satisfy neither.
pub trait DecomposableBregman: Clone + Send + Sync {
    /// A short human-readable name, e.g. `"Itakura-Saito"`.
    fn name(&self) -> &'static str;

    /// Evaluate the divergence from `x` to `y` (first argument convention as
    /// in the paper: `D_f(x, y)` with `x` a data point and `y` the query):
    /// the sum of [`DecomposableBregman::scalar_divergence`] over the
    /// coordinates, the reference the prepared kernels are tested against.
    ///
    /// Panics in debug builds when lengths differ; use
    /// [`DecomposableBregman::try_divergence`] for checked evaluation.
    #[inline]
    fn divergence(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len(), "divergence operands must have equal length");
        let mut acc = 0.0;
        for (&xi, &yi) in x.iter().zip(y.iter()) {
            acc += self.scalar_divergence(xi, yi);
        }
        acc
    }

    /// Checked evaluation, returning an error on dimension mismatch or a
    /// domain violation detectable without evaluating `φ` (NaN result).
    fn try_divergence(&self, x: &[f64], y: &[f64]) -> Result<f64> {
        if x.len() != y.len() {
            return Err(BregmanError::DimensionMismatch { left: x.len(), right: y.len() });
        }
        let d = self.divergence(x, y);
        if d.is_nan() {
            return Err(BregmanError::OutOfDomain { divergence: self.name(), value: f64::NAN });
        }
        Ok(d)
    }

    /// Whether every coordinate of `x` lies in the domain of the generator:
    /// [`DecomposableBregman::check_domain`] as a predicate.
    fn in_domain_vec(&self, x: &[f64]) -> bool {
        self.check_domain(x).is_ok()
    }

    /// `Ok` when [`DecomposableBregman::in_domain`] holds for every
    /// coordinate of `x`, otherwise [`BregmanError::OutOfDomain`] carrying
    /// the first offending value.
    fn check_domain(&self, x: &[f64]) -> Result<()> {
        match x.iter().find(|&&v| !self.in_domain(v)) {
            None => Ok(()),
            Some(&value) => Err(BregmanError::OutOfDomain { divergence: self.name(), value }),
        }
    }

    /// Scalar generator `φ(t)`.
    fn phi(&self, t: f64) -> f64;

    /// Derivative `φ'(t)`.
    fn phi_prime(&self, t: f64) -> f64;

    /// Inverse of the derivative, `(φ')⁻¹(s)`, defined on the image of `φ'`.
    fn phi_prime_inv(&self, s: f64) -> f64;

    /// Whether `t` is inside the (open) domain of `φ`.
    fn in_domain(&self, t: f64) -> bool {
        t.is_finite()
    }

    /// A representative value strictly inside the domain, used by tests and
    /// by quantizers that need to clamp cell corners into the domain.
    fn domain_anchor(&self) -> f64 {
        1.0
    }

    /// Scalar divergence `d_φ(x, y) = φ(x) − φ(y) − φ'(y)(x − y)`.
    #[inline]
    fn scalar_divergence(&self, x: f64, y: f64) -> f64 {
        self.phi(x) - self.phi(y) - self.phi_prime(y) * (x - y)
    }

    /// Vector generator value `f(x) = Σ_j φ(x_j)`.
    #[inline]
    fn f(&self, x: &[f64]) -> f64 {
        x.iter().map(|&v| self.phi(v)).sum()
    }

    /// Gradient `∇f(y)` written into `out` (resized as needed).
    fn gradient_into(&self, y: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(y.iter().map(|&v| self.phi_prime(v)));
    }

    /// Gradient `∇f(y)` as a fresh vector.
    fn gradient(&self, y: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(y.len());
        self.gradient_into(y, &mut out);
        out
    }

    /// Dual (gradient-space) coordinates of `x`: `∇f(x)`.
    fn to_dual(&self, x: &[f64]) -> Vec<f64> {
        self.gradient(x)
    }

    /// Primal coordinates of a dual point: `(∇f)⁻¹(s)` applied element-wise.
    // Named to pair with `to_dual`; it maps a point, it does not construct a
    // divergence, so the `from_*` constructor convention does not apply.
    #[allow(clippy::wrong_self_convention)]
    fn from_dual(&self, s: &[f64]) -> Vec<f64> {
        s.iter().map(|&v| self.phi_prime_inv(v)).collect()
    }

    /// The Cauchy-bound components of a data point over one subspace:
    /// `(α_x, γ_x) = (Σ φ(x_j), Σ x_j²)`. `α_x` is summed in the order and
    /// from the `−0.0` start of [`DecomposableBregman::f`], so over a whole
    /// row the two agree bit for bit.
    #[inline]
    fn point_components(&self, x: &[f64]) -> (f64, f64) {
        let mut alpha = -0.0;
        let mut gamma = 0.0;
        for &v in x {
            alpha += self.phi(v);
            gamma += v * v;
        }
        (alpha, gamma)
    }

    /// The Cauchy-bound components of a query point over one subspace:
    /// `(α_y, β_yy, δ_y) = (−Σ φ(y_j), Σ y_j φ'(y_j), Σ φ'(y_j)²)`.
    #[inline]
    fn query_components(&self, y: &[f64]) -> (f64, f64, f64) {
        let mut alpha = 0.0;
        let mut beta_yy = 0.0;
        let mut delta = 0.0;
        for &v in y {
            let g = self.phi_prime(v);
            alpha -= self.phi(v);
            beta_yy += v * g;
            delta += g * g;
        }
        (alpha, beta_yy, delta)
    }

    /// Hoist the query-side work of the decomposition
    /// `D_φ(x, q) = Φ(x) + c_q − ⟨∇φ(q), x⟩` into a
    /// [`PreparedQuery`](crate::kernel::PreparedQuery): `φ`/`φ'` are
    /// evaluated over `query` once, and every subsequent candidate distance
    /// is a single dot product (see [`crate::kernel`]).
    fn prepare_query(&self, query: &[f64]) -> crate::kernel::PreparedQuery
    where
        Self: Sized,
    {
        crate::kernel::PreparedQuery::decompose(self, query)
    }

    /// Whether this divergence is *cumulative across partitions*, i.e. the
    /// divergence of a concatenation equals the sum of the partition
    /// divergences. True for every decomposable divergence whose generator
    /// does not couple dimensions through normalization; the paper excludes
    /// the (normalized) KL-divergence on these grounds.
    fn cumulative_across_partitions(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};

    type DivergenceFn = Box<dyn Fn(&[f64], &[f64]) -> f64>;

    fn all_decomposable() -> Vec<DivergenceFn> {
        vec![
            Box::new(|x, y| SquaredEuclidean.divergence(x, y)),
            Box::new(|x, y| ItakuraSaito.divergence(x, y)),
            Box::new(|x, y| Exponential.divergence(x, y)),
            Box::new(|x, y| GeneralizedI.divergence(x, y)),
        ]
    }

    #[test]
    fn identity_of_indiscernibles() {
        let x = [0.5, 1.0, 2.5, 3.0];
        for d in all_decomposable() {
            let v = d(&x, &x);
            assert!(v.abs() < 1e-12, "D(x,x) should be 0, got {v}");
        }
    }

    #[test]
    fn non_negative_on_positive_orthant() {
        let xs = [vec![0.5, 1.0, 2.5], vec![1.0, 1.0, 1.0], vec![3.0, 0.25, 7.5]];
        for d in all_decomposable() {
            for x in &xs {
                for y in &xs {
                    let v = d(x, y);
                    assert!(v >= -1e-12, "divergence must be non-negative, got {v}");
                }
            }
        }
    }

    #[test]
    fn try_divergence_rejects_mismatch() {
        let e = SquaredEuclidean.try_divergence(&[1.0, 2.0], &[1.0]).unwrap_err();
        assert_eq!(e, BregmanError::DimensionMismatch { left: 2, right: 1 });
    }

    #[test]
    fn gradient_matches_phi_prime() {
        let isd = ItakuraSaito;
        let y = [0.5, 2.0, 4.0];
        let g = isd.gradient(&y);
        for (gi, yi) in g.iter().zip(y.iter()) {
            assert!((gi - isd.phi_prime(*yi)).abs() < 1e-15);
        }
    }

    #[test]
    fn dual_roundtrip() {
        let divs = [0.3, 1.0, 2.0, 5.5];
        let isd = ItakuraSaito;
        let dual = isd.to_dual(&divs);
        let back = isd.from_dual(&dual);
        for (a, b) in divs.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn point_and_query_components_reconstruct_divergence_bound_pieces() {
        // α_x + α_y + β_yy − Σ x φ'(y) must equal the exact divergence.
        let se = SquaredEuclidean;
        let x = [1.0, -2.0, 3.0];
        let y = [0.5, 0.5, 0.5];
        let (alpha_x, _gamma_x) = se.point_components(&x);
        let (alpha_y, beta_yy, _delta_y) = se.query_components(&y);
        let beta_xy: f64 = x.iter().zip(y.iter()).map(|(&xi, &yi)| -xi * se.phi_prime(yi)).sum();
        let reconstructed = alpha_x + alpha_y + beta_yy + beta_xy;
        let exact = se.divergence(&x, &y);
        assert!((reconstructed - exact).abs() < 1e-12);
    }

    #[test]
    fn gradient_into_reuses_buffer() {
        let se = SquaredEuclidean;
        let mut buf = Vec::with_capacity(8);
        se.gradient_into(&[1.0, 2.0], &mut buf);
        assert_eq!(buf.len(), 2);
        se.gradient_into(&[3.0], &mut buf);
        assert_eq!(buf.len(), 1);
    }
}
