//! A disk-resident page store with I/O accounting and pluggable storage.
//!
//! The BrePartition paper evaluates every index by its *I/O cost*: the number
//! of disk pages fetched per query on an SSD with a configurable page size
//! (Table 4 uses 32 KB–128 KB pages depending on the dataset). This crate
//! reproduces that measurement deterministically:
//!
//! * [`PageStore`] — an immutable, page-organized copy of a dataset. Points
//!   are serialized into fixed-size pages in a caller-supplied order (the
//!   BB-forest lays points out in the leaf order of one of its trees so that
//!   all subspaces touch the same pages).
//! * [`StorageBackend`] — where the page images physically live:
//!   [`MemoryBackend`] (the deterministic in-memory simulation, the default
//!   when building) or [`FileBackend`] (a real page file with a versioned,
//!   checksummed header, opened with [`PageStore::open`]). See [`file`](mod@file) for
//!   the on-disk format.
//! * [`DiskLayout`] — the point → (page, slot) directory, i.e. the
//!   `P.address` stored in BB-forest leaf nodes.
//! * [`BufferPool`] — a scan-resistant (SIEVE) cache in front of the store,
//!   with O(1) touches. Every miss counts as one physical page read in
//!   [`IoStats`]; hits are counted separately. Capacity zero is the
//!   *unbuffered* pool: nothing is retained and every access is a counted
//!   physical read.
//! * [`SharedPageCache`] — one SIEVE cache shared by several [`BufferPool`]
//!   handles (warm multi-worker serving; I/O stays attributed per handle).
//!
//! Each layer has exactly one page read and it is fallible:
//! [`StorageBackend::read_page`], [`PageStore::raw_page`] and
//! [`BufferPool::try_fetch`] (with the point and batch reads built on it)
//! return a [`PageStoreError`] when a page fails its read after open — bit
//! rot caught by a per-page checksum, or a device error — so a rotten page
//! is a typed error at every caller, never a panic and never a wrong
//! neighbour.
//! * [`format`](mod@format) — the little-endian encoding primitives and the sealed
//!   envelope (magic, version, FNV-1a checksum) shared by every persistent
//!   artifact in the workspace (page files, BB-trees, index metadata).
//!
//! With the memory backend the store is "simulated": pages live in memory
//! as decoded `f64` lanes, but the page layout (dimension-major records
//! packed into fixed-size pages) and the access-path accounting match what
//! a real disk-resident implementation does. [`PageStore::save`] encodes
//! each page as little-endian `f64`s zero-padded to the page size;
//! [`PageStore::open`] serves the same pages — same ids, same layout, same
//! I/O counts — from disk, decoding a page once per physical read.
//!
//! ```
//! use pagestore::{BufferPool, PageStore, PageStoreConfig};
//!
//! let data: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
//! let store = PageStore::build_sequential(
//!     PageStoreConfig::with_page_size(256),
//!     2,
//!     data.len(),
//!     |pid| &data[pid as usize],
//! );
//! let path = std::env::temp_dir().join("pagestore-doc-example.pages");
//! store.save(&path).unwrap();
//!
//! let reopened = PageStore::open(&path).unwrap();
//! let mut pool = BufferPool::unbuffered();
//! let mut coords = Vec::new();
//! assert!(pool.read_point_into(&reopened, 17, &mut coords).unwrap());
//! assert_eq!(coords, data[17]);
//! assert_eq!(pool.stats().pages_read, 1);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod buffer_pool;
pub mod file;
pub mod format;
pub mod io_stats;
pub mod layout;
pub mod page;
pub mod store;

pub use backend::{MemoryBackend, PageStoreError, StorageBackend};
pub use buffer_pool::{BufferPool, SharedPageCache};
pub use file::FileBackend;
pub use format::{PersistError, PersistResult};
pub use io_stats::IoStats;
pub use layout::{DiskLayout, PageAddress};
pub use page::{Page, PageId};
pub use store::{PageStore, PageStoreConfig};

/// Identifier of a point: a dense `u32` index, matching
/// `bregman::PointId.0`. The page store is deliberately independent of the
/// `bregman` crate so it can page out any fixed-width `f64` records.
pub type PointId = u32;
