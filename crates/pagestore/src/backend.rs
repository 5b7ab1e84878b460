//! The [`StorageBackend`] abstraction: where page images physically live.
//!
//! A [`crate::PageStore`] owns the page *directory* (point → page/slot
//! layout, configuration) but delegates page-image storage to a backend:
//!
//! * [`MemoryBackend`] — the deterministic in-memory simulation the paper's
//!   experiments run against. Every page is resident with its lanes
//!   decoded; a "physical read" is a cheap clone of the shared page, scored
//!   in place (the I/O counters in [`crate::BufferPool`] still model a
//!   disk).
//! * [`crate::FileBackend`] — a real file with a versioned, checksummed
//!   header; every physical read is one positioned read of the page image,
//!   verified and decoded once into a new page (see [`crate::file`] for the
//!   format).
//!
//! Both are served through the same [`crate::BufferPool`]/[`crate::IoStats`]
//! path, so per-query I/O accounting is identical no matter where the bytes
//! come from.

use crate::page::{Page, PageId};

/// A physical page read that failed *after* the store opened successfully:
/// bit rot caught by a per-page checksum, or a device/file error underneath
/// an open handle. Distinct from [`crate::PersistError`], which covers
/// open-time failures — this is the mid-serve failure surface every page
/// read ([`StorageBackend::read_page`], [`crate::BufferPool::try_fetch`] and
/// the batch paths above it) reports as an error instead of panicking or
/// serving garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageStoreError {
    /// The page payload read from storage no longer matches the checksum
    /// recorded when the file was opened.
    Checksum {
        /// The page whose payload failed verification.
        page: PageId,
        /// Checksum recorded at open time.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
        /// The backing file that served the bytes.
        path: String,
    },
    /// The backing device or file failed mid-read.
    Io {
        /// The page being read when the failure happened.
        page: PageId,
        /// The underlying I/O error, rendered.
        message: String,
        /// The backing file that was being read.
        path: String,
    },
}

impl std::fmt::Display for PageStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageStoreError::Checksum { page, expected, found, path } => write!(
                f,
                "{page} of {path} failed checksum verification: expected {expected:#018x}, \
                 read {found:#018x} (bit rot or concurrent modification since open)"
            ),
            PageStoreError::Io { page, message, path } => write!(
                f,
                "{page} of {path} failed to read: {message} \
                 (file changed or device error since open)"
            ),
        }
    }
}

impl std::error::Error for PageStoreError {}

/// Physical storage of page images behind a [`crate::PageStore`].
///
/// Implementations must be `Send + Sync`: one store is shared (via `Arc`)
/// across the query-engine worker threads.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Short backend tag (`"memory"` or `"file"`), used in diagnostics.
    fn kind(&self) -> &'static str;

    /// Number of pages stored.
    fn page_count(&self) -> usize;

    /// Materialize one page, or `Ok(None)` for an unknown id. This is a
    /// *physical* access with no accounting — indexes must go through a
    /// [`crate::BufferPool`]. A read that fails after open (bit rot caught
    /// by a per-page checksum, or a device error) is a [`PageStoreError`],
    /// never a panic and never a silently missing page.
    fn read_page(&self, id: PageId) -> Result<Option<Page>, PageStoreError>;

    /// Total nominal size of the stored page images in bytes (records
    /// including padding, excluding directory metadata).
    fn size_bytes(&self) -> usize;
}

/// The in-memory backend: all pages resident with their lanes decoded, so
/// a read is a clone-out (two reference-count bumps) and the caller scores
/// the page in place, with no copy and no decode.
#[derive(Debug)]
pub struct MemoryBackend {
    pages: Vec<Page>,
}

impl MemoryBackend {
    /// A backend over the given pages (page `i` must have id `i`).
    pub fn new(pages: Vec<Page>) -> Self {
        debug_assert!(pages.iter().enumerate().all(|(i, p)| p.id().index() == i));
        Self { pages }
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> &'static str {
        "memory"
    }

    fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn read_page(&self, id: PageId) -> Result<Option<Page>, PageStoreError> {
        Ok(self.pages.get(id.index()).cloned())
    }

    fn size_bytes(&self) -> usize {
        self.pages.iter().map(Page::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_backend_reads_by_id() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let pages = vec![
            Page::encode(PageId(0), 2, &[(0, &a)], 64),
            Page::encode(PageId(1), 2, &[(1, &b)], 64),
        ];
        let backend = MemoryBackend::new(pages);
        assert_eq!(backend.kind(), "memory");
        assert_eq!(backend.page_count(), 2);
        assert_eq!(backend.size_bytes(), 128);
        assert_eq!(backend.read_page(PageId(1)).unwrap().unwrap().decode_slot(0), b);
        assert!(backend.read_page(PageId(9)).unwrap().is_none());
    }
}
