//! VA-file (vector approximation file) kNN search for decomposable Bregman
//! divergences — the paper's **VAF** baseline (after Zhang et al., PVLDB
//! 2009, who solve exact Bregman similarity search with standard
//! R-tree/VA-file machinery over an extended space).
//!
//! A VA-file stores, next to the full-resolution data on disk, a compact
//! *approximation* of every point: each dimension is quantized into `2^b`
//! cells by a scalar quantizer trained on the data's per-dimension range.
//! A kNN query proceeds in two phases:
//!
//! 1. **Filter** — the approximation file is scanned sequentially. For every
//!    point, a lower and an upper bound of its divergence from the query are
//!    computed from its cell indices alone (per-dimension convexity of the
//!    scalar divergence makes both bounds cheap, see [`bounds`]). Points
//!    whose lower bound exceeds the running k-th smallest upper bound are
//!    pruned.
//! 2. **Refine** — the surviving candidates are visited in ascending
//!    lower-bound order; their exact coordinates are fetched from the page
//!    store and the exact divergence is evaluated, with the standard VA-file
//!    termination rule (stop when the next lower bound exceeds the current
//!    k-th exact distance).
//!
//! The reported I/O cost is the sequential scan of the approximation file
//! plus the data pages fetched during refinement, matching how the paper
//! accounts for the VAF baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod quantizer;
pub mod search;

pub use bounds::QueryBoundTable;
pub use quantizer::{Quantizer, QuantizerConfig};
pub use search::{SearchError, VaFile, VaFileConfig, VaQueryResult};
