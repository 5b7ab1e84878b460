//! The immutable page-organized copy of a dataset.

use std::path::Path;
use std::sync::Arc;

use crate::backend::{MemoryBackend, PageStoreError, StorageBackend};
use crate::file::{write_page_file, FileBackend};
use crate::format::PersistResult;
use crate::layout::{DiskLayout, PageAddress};
use crate::page::{Page, PageId};
use crate::PointId;

/// Configuration of a [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStoreConfig {
    /// Nominal page size in bytes (the paper uses 32 KB–128 KB).
    pub page_size_bytes: usize,
}

impl PageStoreConfig {
    /// A store with the given page size.
    pub fn with_page_size(page_size_bytes: usize) -> Self {
        Self { page_size_bytes }
    }

    /// How many `dim`-dimensional `f64` records fit in one page (at least 1,
    /// so a pathological configuration still makes progress).
    pub fn records_per_page(&self, dim: usize) -> usize {
        (self.page_size_bytes / (8 * dim.max(1))).max(1)
    }
}

impl Default for PageStoreConfig {
    fn default() -> Self {
        // 32 KB matches the smallest page size used in the paper's Table 4.
        Self { page_size_bytes: 32 * 1024 }
    }
}

/// An immutable, page-organized copy of a set of `f64` records.
///
/// The store owns the page *directory* (the point → page/slot layout and the
/// configuration) and delegates page-image storage to a
/// [`StorageBackend`]: the in-memory simulation used while building, or a
/// real file opened with [`PageStore::open`]. All reads go through a
/// [`crate::BufferPool`] so physical page fetches are counted identically
/// for both backends.
///
/// A `PageStore` is deliberately **not** `Clone`: cloning would duplicate
/// the whole (simulated) disk image. Index structures share one store via
/// `Arc<PageStore>`.
#[derive(Debug)]
pub struct PageStore {
    config: PageStoreConfig,
    dim: usize,
    layout: DiskLayout,
    build_writes: u64,
    backend: Arc<dyn StorageBackend>,
}

impl PageStore {
    /// Lay out `n` points in the order given by `order`, packing
    /// `records_per_page` consecutive points into each page.
    ///
    /// `point` is a lookup closure from point id to its coordinates; the
    /// store copies the coordinates into its pages so the source dataset can
    /// be dropped afterwards.
    pub fn build_with_order<'a, F>(
        config: PageStoreConfig,
        dim: usize,
        order: &[PointId],
        mut point: F,
    ) -> PageStore
    where
        F: FnMut(PointId) -> &'a [f64],
    {
        let per_page = config.records_per_page(dim);
        let mut pages = Vec::with_capacity(order.len().div_ceil(per_page.max(1)));
        let mut layout = DiskLayout::with_capacity(order.len());
        for (page_index, chunk) in order.chunks(per_page).enumerate() {
            let page_id = PageId(page_index as u32);
            let records: Vec<(PointId, &[f64])> =
                chunk.iter().map(|&pid| (pid, point(pid))).collect();
            for (slot, &(pid, _)) in records.iter().enumerate() {
                layout.set(pid, PageAddress { page: page_id, slot: slot as u32 });
            }
            pages.push(Page::encode(page_id, dim, &records, config.page_size_bytes));
        }
        let build_writes = pages.len() as u64;
        PageStore {
            config,
            dim,
            layout,
            build_writes,
            backend: Arc::new(MemoryBackend::new(pages)),
        }
    }

    /// Lay out points `0..n` in their natural order.
    pub fn build_sequential<'a, F>(
        config: PageStoreConfig,
        dim: usize,
        n: usize,
        point: F,
    ) -> PageStore
    where
        F: FnMut(PointId) -> &'a [f64],
    {
        let order: Vec<PointId> = (0..n as u32).collect();
        Self::build_with_order(config, dim, &order, point)
    }

    /// Write the store to `path` as a page file (versioned, checksummed; see
    /// [`crate::file`] for the exact format). Works for any backend, so a
    /// file-backed store can be copied by saving it elsewhere. Pages are
    /// streamed to the file one at a time — saving never materializes a
    /// second copy of the disk image.
    pub fn save(&self, path: &Path) -> PersistResult<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        write_page_file(
            path,
            self.config,
            self.dim,
            self.build_writes,
            self.point_count(),
            self.backend.as_ref(),
        )
    }

    /// Open a page file written by [`PageStore::save`] as a file-backed
    /// store: the directory is loaded into memory, the envelope checksum is
    /// verified, and page images are read from the file on demand.
    pub fn open(path: &Path) -> PersistResult<PageStore> {
        let (backend, meta) = FileBackend::open(path)?;
        Ok(PageStore {
            config: meta.config,
            dim: meta.dim,
            layout: meta.layout(),
            build_writes: meta.build_writes,
            backend: Arc::new(backend),
        })
    }

    /// The store configuration.
    pub fn config(&self) -> PageStoreConfig {
        self.config
    }

    /// Dimensionality of every record.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of pages in the store.
    pub fn page_count(&self) -> usize {
        self.backend.page_count()
    }

    /// Number of point records in the store.
    pub fn point_count(&self) -> usize {
        self.layout.len()
    }

    /// Number of page writes performed while building (used for the
    /// index-construction experiment).
    pub fn build_writes(&self) -> u64 {
        self.build_writes
    }

    /// Which storage backend serves this store (`"memory"` or `"file"`).
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// Raw page access *without* I/O accounting. Index implementations must
    /// go through a [`crate::BufferPool`]; this accessor exists for the pool
    /// itself and for maintenance passes. On a file-backed store every call
    /// performs a real file read, and a read that fails after open (bit rot
    /// caught by a per-page checksum, or a device error) is a
    /// [`PageStoreError`]. `Ok(None)` means "unknown page id".
    pub fn raw_page(&self, id: PageId) -> Result<Option<Page>, PageStoreError> {
        self.backend.read_page(id)
    }

    /// The point → page directory.
    pub fn layout(&self) -> &DiskLayout {
        &self.layout
    }

    /// The address of a point, if it was laid out.
    pub fn address_of(&self, point: PointId) -> Option<PageAddress> {
        self.layout.get(point)
    }

    /// Total size of the disk image in bytes (page records including
    /// padding, excluding directory metadata).
    pub fn size_bytes(&self) -> usize {
        self.backend.size_bytes()
    }

    /// Visit every stored point once, page by page in page order, decoding
    /// each into a reused buffer, so each page costs exactly one physical
    /// read. Maintenance helper (exporting every row for a rebuild,
    /// recomputing per-point columns at open) — no [`crate::BufferPool`]
    /// accounting is performed. The first failed page read aborts the walk.
    pub fn for_each_point(&self, f: &mut dyn FnMut(PointId, &[f64])) -> Result<(), PageStoreError> {
        let mut coords = Vec::new();
        for id in 0..self.page_count() as u32 {
            if let Some(page) = self.raw_page(PageId(id))? {
                for (slot, &pid) in page.point_ids().iter().enumerate() {
                    page.decode_slot_into(slot, &mut coords);
                    f(pid, &coords);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| (0..dim).map(|j| (i * dim + j) as f64).collect()).collect()
    }

    #[test]
    fn records_per_page_respects_page_size() {
        let config = PageStoreConfig::with_page_size(1024);
        assert_eq!(config.records_per_page(16), 8); // 16*8 = 128 bytes per record
        assert_eq!(config.records_per_page(1024), 1); // too large: still 1
        assert_eq!(PageStoreConfig::default().page_size_bytes, 32 * 1024);
    }

    #[test]
    fn sequential_build_addresses_every_point() {
        let data = dataset(10, 4);
        let config = PageStoreConfig::with_page_size(4 * 8 * 3); // 3 records per page
        let store = PageStore::build_sequential(config, 4, 10, |pid| &data[pid as usize]);
        assert_eq!(store.point_count(), 10);
        assert_eq!(store.page_count(), 4); // ceil(10/3)
        assert_eq!(store.build_writes(), 4);
        assert_eq!(store.backend_kind(), "memory");
        for pid in 0..10u32 {
            let addr = store.address_of(pid).unwrap();
            let page = store.raw_page(addr.page).unwrap().unwrap();
            assert_eq!(page.decode_slot(addr.slot as usize), data[pid as usize]);
        }
    }

    #[test]
    fn custom_order_places_neighbours_on_same_page() {
        let data = dataset(6, 2);
        let order = vec![5u32, 3, 1, 0, 2, 4];
        let config = PageStoreConfig::with_page_size(2 * 8 * 2); // 2 records per page
        let store = PageStore::build_with_order(config, 2, &order, |pid| &data[pid as usize]);
        // Points 5 and 3 were adjacent in the order, so they share page 0.
        assert_eq!(store.address_of(5).unwrap().page, PageId(0));
        assert_eq!(store.address_of(3).unwrap().page, PageId(0));
        assert_eq!(store.address_of(4).unwrap().page, PageId(2));
    }

    #[test]
    fn for_each_point_visits_every_point_once() {
        let data = dataset(7, 3);
        // Scattered layout: id order is not page order.
        let order = vec![6u32, 0, 3, 5, 1, 4, 2];
        let config = PageStoreConfig::with_page_size(3 * 8 * 2); // 2 records per page
        let store = PageStore::build_with_order(config, 3, &order, |pid| &data[pid as usize]);
        let mut seen = Vec::new();
        store
            .for_each_point(&mut |pid, coords| {
                assert_eq!(coords, &data[pid as usize][..]);
                seen.push(pid);
            })
            .unwrap();
        // Page order: the layout order, one read per page.
        assert_eq!(seen, order);
    }

    #[test]
    fn size_bytes_counts_padding() {
        let data = dataset(3, 2);
        let config = PageStoreConfig::with_page_size(4096);
        let store = PageStore::build_sequential(config, 2, 3, |pid| &data[pid as usize]);
        assert_eq!(store.page_count(), 1);
        assert_eq!(store.size_bytes(), 4096);
        assert_eq!(store.dim(), 2);
        assert_eq!(store.config().page_size_bytes, 4096);
    }

    #[test]
    fn missing_page_and_point_return_none() {
        let data = dataset(2, 2);
        let store = PageStore::build_sequential(PageStoreConfig::default(), 2, 2, |pid| {
            &data[pid as usize]
        });
        assert!(store.raw_page(PageId(7)).unwrap().is_none());
        assert!(store.address_of(99).is_none());
    }
}
