//! Bregman ball trees (BB-trees).
//!
//! A BB-tree (Cayton, ICML 2008) is a binary space-partitioning tree whose
//! nodes are *Bregman balls* `{x : D_f(x, μ) ≤ R}`. It is built by recursive
//! Bregman 2-means clustering and supports:
//!
//! * exact k-nearest-neighbour search by best-first branch-and-bound
//!   ([`knn`]), the paper's **BBT** baseline,
//! * the traversal of a range search (Cayton, NeurIPS 2009) with the node
//!   test left to the caller ([`range`]): BrePartition's filter runs it in
//!   every subspace with a bounding-box test,
//! * a disk-resident variant whose leaves resolve points through a
//!   [`pagestore::PageStore`] and report I/O cost ([`disk`]),
//! * a simplified variational approximate search in the spirit of
//!   Coviello et al. (ICML 2013), the paper's **Var** baseline
//!   ([`variational`]).
//!
//! The pruning bound is the exact Bregman projection of the query onto a
//! ball, computed by bisection along the dual geodesic ([`ball`]); the
//! bisection maintains a conservative (outside-the-ball) iterate so the
//! reported bound never exceeds the true minimum and exactness is preserved.
//! The node test reuses per-search buffers, so testing a node allocates
//! nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ball;
pub mod build;
pub mod disk;
pub mod knn;
pub mod node;
pub mod range;
pub mod serial;
pub mod stats;
pub mod variational;

pub use ball::BregmanBall;
pub use build::{BBTreeBuilder, BBTreeConfig};
pub use disk::{DiskBBTree, SearchError};
pub use node::{BBTree, NodeId, NodeKind};
pub use stats::SearchStats;
pub use variational::VariationalConfig;
