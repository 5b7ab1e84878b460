//! Bregman divergences and the dense-vector primitives used throughout the
//! BrePartition reproduction.
//!
//! A Bregman divergence is defined by a strictly convex, differentiable
//! generator function `f` as
//!
//! ```text
//! D_f(x, y) = f(x) − f(y) − ⟨∇f(y), x − y⟩
//! ```
//!
//! Most generators used in multimedia retrieval are *decomposable*
//! (separable): `f(x) = Σ_j φ(x_j)` for a scalar generator `φ`. They are the
//! only ones the BrePartition bound machinery applies to, because the
//! divergence of a concatenated vector is the sum of the divergences of its
//! parts, so they are the only ones this crate implements. It provides:
//!
//! * [`DecomposableBregman`] — the scalar-generator trait with derived
//!   vector-level operations (divergence, domain check, gradient, dual
//!   coordinates, geodesic interpolation),
//! * concrete generators: [`SquaredEuclidean`], [`ItakuraSaito`],
//!   [`Exponential`], [`GeneralizedI`] (generalized KL),
//! * [`DivergenceKind`] — a plain-enum selector that maps names used in the
//!   paper ("ED", "ISD", …) to the concrete generators,
//! * [`kernel`] — prepared-query decomposed divergence kernels: hoist
//!   `φ(q)`, `φ'(q)` out of the candidate loop once per query so each
//!   refinement collapses to one transcendental-free dot product,
//! * [`vector`] — a flat, cache-friendly dense dataset container and small
//!   vector helpers shared by the index crates.
//!
//! # Example
//!
//! ```
//! use bregman::{DecomposableBregman, ItakuraSaito};
//!
//! let isd = ItakuraSaito;
//! let x = [1.0, 2.0, 4.0];
//! let y = [1.0, 1.0, 1.0];
//! let d = isd.divergence(&x, &y);
//! assert!(d > 0.0);
//! assert_eq!(isd.divergence(&x, &x), 0.0);
//! ```

// `deny`, not `forbid`: the only sanctioned `unsafe` in this crate is the
// pair of `#[target_feature(enable = "avx2,fma")]` kernel variants in
// `kernel.rs` (runtime-dispatched explicit SIMD), each carrying a scoped
// `allow` and a SAFETY comment. Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod divergence;
pub mod dual;
pub mod error;
pub mod exponential;
pub mod generalized_i;
pub mod itakura_saito;
pub mod kernel;
pub mod kind;
pub mod squared_euclidean;
pub mod vector;

pub use divergence::DecomposableBregman;
pub use dual::GeodesicInterpolator;
pub use error::{BregmanError, Result};
pub use exponential::Exponential;
pub use generalized_i::GeneralizedI;
pub use itakura_saito::ItakuraSaito;
pub use kernel::{KernelScratch, PreparedQuery};
pub use kind::DivergenceKind;
pub use squared_euclidean::SquaredEuclidean;
pub use vector::{DenseDataset, PointId};
