//! BrePartition: optimized high-dimensional kNN search with Bregman
//! distances.
//!
//! This crate implements the paper's partition–filter–refinement framework:
//!
//! 1. **Partition** — the `d` dimensions are split into `M` low-dimensional
//!    subspaces. `M` defaults to 1, one full-dimensional BB-tree: with the
//!    seeded radius below, Theorem 4's cost form prices every `M > 1`
//!    above `M = 1`, because the per-subspace radii sum to at least the
//!    radius, so the union of `M` range searches never keeps fewer points
//!    than the one full-dimensional search. Larger fixed `M` values serve
//!    the paper's experiments. The assignment of dimensions to subspaces
//!    uses PCCP, the Pearson-Correlation-Coefficient-based Partition
//!    ([`partition::pccp`]), which spreads correlated dimensions across
//!    subspaces so their candidate sets overlap.
//! 2. **Filter** — every node of every subspace's BB-tree is tested by the
//!    closed-form minimum of the divergence over its bounding box
//!    ([`node_box`]); all trees are integrated into one disk-resident
//!    **BB-forest** ([`bbforest`]). With one subspace the exact search is
//!    one best-first loop over the tree's box bounds: it reads and scores
//!    the pages of the leaves it pops, keeps the k best rows, and stops
//!    once no node's bound is within their k-th distance. With several
//!    subspaces the same loop, stopped after k rows, seeds a radius; every
//!    data point is pre-transformed, per subspace, into a tuple
//!    `P(x) = (α_x, γ_x)` and a query into triples `Q(y) = (α_y, β_yy, δ_y)`
//!    ([`transform`]); the Cauchy–Schwarz upper bound assembled from these
//!    components ([`bound`]) yields, per subspace, a search bound (the
//!    components of the k-th smallest summed upper bound, Algorithm 4),
//!    which splits that radius across the subspaces, and a range query in
//!    each subspace's tree produces candidates.
//! 3. **Refine** — with several subspaces, the union of the per-subspace
//!    candidates off the seeded pages is fetched from disk (I/O counted per
//!    page) and the exact divergences decide the kNN ([`search`]).
//!
//! The approximate extension ([`approximate`]) shrinks the Cauchy term by a
//! coefficient derived from the data distribution, aiming at a user-specified
//! recall `p` (a target, not a guarantee), trading a little accuracy for
//! fewer candidates.
//! Both run through the one search call, [`BrePartitionIndex::knn`]: its
//! last argument is `None` for the exact search and
//! `Some(&ApproximateConfig)` for the approximate one.
//!
//! # Quick start
//!
//! ```
//! use bregman::kernel::KernelScratch;
//! use bregman::{DivergenceKind, DenseDataset};
//! use brepartition_core::{BrePartitionConfig, BrePartitionIndex};
//!
//! // A small strictly positive dataset for the Itakura-Saito divergence.
//! let rows: Vec<Vec<f64>> = (0..200)
//!     .map(|i| (0..16).map(|j| 1.0 + ((i * 7 + j * 3) % 23) as f64).collect())
//!     .collect();
//! let data = DenseDataset::from_rows(&rows).unwrap();
//!
//! let config = BrePartitionConfig::default();
//! let index = BrePartitionIndex::build(DivergenceKind::ItakuraSaito, &data, &config).unwrap();
//! let query = data.row(0).to_vec();
//! let mut pool = index.new_buffer_pool();
//! let result = index.knn(&mut pool, &mut KernelScratch::default(), &query, 5, None).unwrap();
//! assert_eq!(result.neighbors.len(), 5);
//! assert_eq!(result.neighbors[0].1, 0.0); // the query is a data point
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approximate;
pub mod bbforest;
pub mod bound;
pub mod config;
pub mod delta;
pub mod error;
pub mod node_box;
pub mod partition;
pub mod persist;
pub mod search;
pub mod stats;
pub mod transform;

pub use approximate::{ApproximateConfig, NormalDistribution};
pub use bbforest::BBForest;
pub use bound::{upper_bound_from_components, QueryBounds};
pub use config::{BrePartitionConfig, PartitionStrategy};
pub use delta::DeltaSegment;
pub use error::{CoreError, Result};
pub use node_box::{BoxQuery, NodeBoxes};
pub use partition::Partitioning;
pub use search::{BrePartitionIndex, QueryResult};
pub use stats::QueryStats;
pub use transform::{TransformedDataset, TransformedQuery};
