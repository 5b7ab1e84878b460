//! The file-backed storage backend: a real on-disk page file.
//!
//! # On-disk format (`BREPPGS1`, version 2)
//!
//! A page file is a sealed envelope (see [`crate::format`]) whose payload
//! holds a metadata block followed by the raw page region:
//!
//! ```text
//! offset            size        field
//! 0                 8           magic   b"BREPPGS1"
//! 8                 4           version u32 (= 2)
//! 12                8           payload_len u64
//! 20                8           checksum u64 — FNV-1a 64 over the payload
//! ── payload ──────────────────────────────────────────────────────────────
//! 28                8           meta_len u64
//! 36                meta_len    metadata block (see below)
//! 36 + meta_len     …           page region: the page images back to back
//! ```
//!
//! The metadata block ([`crate::format::ByteWriter`] encoding, all integers
//! little-endian, sequences length-prefixed):
//!
//! ```text
//! page_size    u64   nominal page size in bytes
//! dim          u64   record dimensionality
//! build_writes u64   pages written while building the original store
//! point_count  u64   number of point records (for validation)
//! page_count   u64   number of pages
//! page_codec   u8    page-codec tag, always 1 (dimension-major), then per page:
//!   offset     u64   byte offset of the page image within the page region
//!   length     u64   byte length of the page image
//!   point_ids  u32 sequence — resident point ids in slot order
//! ```
//!
//! A page image is the page's lanes (see [`Page`]) as little-endian `f64`s,
//! lane after lane, zero-padded to the page's nominal size. That is usually
//! exactly `page_size` bytes; a page holding a single record wider than the
//! nominal page size is stored at its true length, which is why per-page
//! offsets are explicit. A page whose length cannot hold its records is
//! [`PersistError::Corrupt`] at open.
//!
//! # One format
//!
//! Every page image is dimension-major (see [`Page`]). The version-2
//! metadata block still carries a codec byte; it is always
//! [`DIM_MAJOR_CODEC_TAG`], and any other value is
//! [`PersistError::Corrupt`]. Any other envelope version is
//! [`PersistError::UnsupportedVersion`]: a store in another format is
//! migrated by rebuilding it.
//!
//! # Checksums
//!
//! Opening a file verifies magic, version, payload length and the envelope's
//! FNV-1a checksum (the pass streams the payload in chunks, so the page
//! region is never resident in memory). A second pass then computes one
//! XXH64 checksum per page; those live only in memory, no byte of the file
//! records them. Afterwards only the metadata block and the per-page
//! checksums are kept in memory. Every [`StorageBackend::read_page`] is one
//! positioned read of the page image into a reused per-thread buffer,
//! verified against its checksum (padding included) and decoded once into
//! the new page's lanes, so bit rot after open is a
//! [`PageStoreError::Checksum`], never a wrong neighbour.

use std::cell::RefCell;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::{PageStoreError, StorageBackend};
use crate::format::{
    read_envelope_header, xxh64, ByteReader, ByteWriter, Fnv1a64, PersistError, PersistResult,
    ENVELOPE_HEADER_BYTES,
};
use crate::layout::{DiskLayout, PageAddress};
use crate::page::{Page, PageId};
use crate::store::PageStoreConfig;
use crate::PointId;

/// Magic tag of a page file.
pub const PAGE_FILE_MAGIC: [u8; 8] = *b"BREPPGS1";

/// The only format version this build writes and reads.
pub const PAGE_FILE_VERSION: u32 = 2;

/// The page-codec byte of the metadata block: dimension-major, the only
/// codec.
pub const DIM_MAJOR_CODEC_TAG: u8 = 1;

/// Per-page directory entry kept in memory by a [`FileBackend`].
#[derive(Debug, Clone)]
struct PageEntry {
    /// Byte offset of the page image within the page region.
    offset: u64,
    /// Byte length of the page image.
    length: u64,
    /// Resident point ids in slot order (shared with materialized pages).
    point_ids: Arc<[PointId]>,
}

/// Everything the metadata block describes, parsed once at open time.
#[derive(Debug)]
pub(crate) struct PageFileMeta {
    pub(crate) config: PageStoreConfig,
    pub(crate) dim: usize,
    pub(crate) build_writes: u64,
    pub(crate) point_count: usize,
    entries: Vec<PageEntry>,
}

impl PageFileMeta {
    /// Reconstruct the point → (page, slot) directory from the per-page id
    /// lists.
    pub(crate) fn layout(&self) -> DiskLayout {
        let mut layout = DiskLayout::with_capacity(self.point_count);
        for (page_index, entry) in self.entries.iter().enumerate() {
            for (slot, &pid) in entry.point_ids.iter().enumerate() {
                layout.set(pid, PageAddress { page: PageId(page_index as u32), slot: slot as u32 });
            }
        }
        layout
    }
}

thread_local! {
    /// The byte image of the page a thread is reading, reused across reads
    /// so a physical read neither allocates nor zero-fills it.
    static PAGE_IMAGE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The file-backed storage backend.
///
/// Holds the page directory in memory and an open handle on the page file.
/// Every physical page read is one positioned read (no seek, no lock), so
/// one backend is shared across query threads; the page is decoded once,
/// into lanes that every later hit on it is scored from.
pub struct FileBackend {
    path: PathBuf,
    file: File,
    page_region_offset: u64,
    dim: usize,
    entries: Vec<PageEntry>,
    /// Per-page XXH64 checksums computed at open time and kept only in
    /// memory: the whole-file FNV-1a envelope checksum only guards the
    /// *open*; these guard every subsequent physical read against bit rot
    /// mid-serve.
    checksums: Vec<u64>,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("path", &self.path)
            .field("pages", &self.entries.len())
            .field("dim", &self.dim)
            .finish()
    }
}

impl FileBackend {
    /// Open a page file, validating its envelope (magic, version, checksum)
    /// and parsing the metadata block. Returns the backend plus the parsed
    /// metadata so [`crate::PageStore::open`] can rebuild its directory.
    pub(crate) fn open(path: &Path) -> PersistResult<(FileBackend, PageFileMeta)> {
        let mut file = File::open(path)?;

        let mut header = [0u8; ENVELOPE_HEADER_BYTES];
        read_exact_or_corrupt(&mut file, &mut header, "envelope header")?;
        let (payload_len, checksum) =
            read_envelope_header(&PAGE_FILE_MAGIC, PAGE_FILE_VERSION, &header)?;
        let actual_len = file.metadata()?.len();
        let expected_len = ENVELOPE_HEADER_BYTES as u64 + payload_len;
        if actual_len != expected_len {
            return Err(PersistError::Corrupt(format!(
                "file is {actual_len} bytes but the header describes {expected_len}"
            )));
        }

        // Stream the payload once to verify the checksum without holding the
        // page region in memory.
        let found = streaming_fnv1a64(&mut file, ENVELOPE_HEADER_BYTES as u64, payload_len)?;
        if found != checksum {
            return Err(PersistError::ChecksumMismatch { expected: checksum, found });
        }

        // Metadata block.
        file.seek(SeekFrom::Start(ENVELOPE_HEADER_BYTES as u64))?;
        let mut meta_len_bytes = [0u8; 8];
        read_exact_or_corrupt(&mut file, &mut meta_len_bytes, "metadata length")?;
        let meta_len = u64::from_le_bytes(meta_len_bytes);
        if meta_len.saturating_add(8) > payload_len {
            return Err(PersistError::Corrupt(format!(
                "metadata block of {meta_len} bytes exceeds the {payload_len}-byte payload"
            )));
        }
        let mut meta_bytes = vec![0u8; meta_len as usize];
        read_exact_or_corrupt(&mut file, &mut meta_bytes, "metadata block")?;
        let meta = parse_meta(&meta_bytes)?;

        let page_region_offset = ENVELOPE_HEADER_BYTES as u64 + 8 + meta_len;
        let page_region_len = expected_len - page_region_offset;
        if let Some(last) = meta.entries.last() {
            if last.offset + last.length > page_region_len {
                return Err(PersistError::Corrupt(format!(
                    "page directory points {} bytes into a {page_region_len}-byte page region",
                    last.offset + last.length
                )));
            }
        }

        // Per-page checksums: one more sequential pass over the page region
        // (entries are validated contiguous above) so that bit rot *after*
        // open is caught on the page actually served — the whole-file
        // checksum above only guards this open. One page is resident at a
        // time.
        file.seek(SeekFrom::Start(page_region_offset))?;
        let mut checksums = Vec::with_capacity(meta.entries.len());
        let mut page = Vec::new();
        for entry in &meta.entries {
            page.resize(entry.length as usize, 0);
            read_exact_or_corrupt(&mut file, &mut page, "page image")?;
            checksums.push(xxh64(&page));
        }

        let backend = FileBackend {
            path: path.to_path_buf(),
            file,
            page_region_offset,
            dim: meta.dim,
            entries: meta.entries.clone(),
            checksums,
        };
        Ok((backend, meta))
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl StorageBackend for FileBackend {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn page_count(&self) -> usize {
        self.entries.len()
    }

    fn read_page(&self, id: PageId) -> Result<Option<Page>, PageStoreError> {
        let Some(entry) = self.entries.get(id.index()) else {
            return Ok(None);
        };
        PAGE_IMAGE.with_borrow_mut(|image| {
            image.resize(entry.length as usize, 0);
            self.file.read_exact_at(image, self.page_region_offset + entry.offset).map_err(
                |e| PageStoreError::Io {
                    page: id,
                    message: e.to_string(),
                    path: self.path.display().to_string(),
                },
            )?;
            let expected = self.checksums[id.index()];
            let found = xxh64(image);
            if found != expected {
                return Err(PageStoreError::Checksum {
                    page: id,
                    expected,
                    found,
                    path: self.path.display().to_string(),
                });
            }
            // The directory was checked at open to hold every record, and
            // the exact-length iterator collects into one allocation.
            let records = self.dim * entry.point_ids.len() * 8;
            let lanes: Arc<[f64]> = image[..records]
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect();
            let size = entry.length as usize;
            Ok(Some(Page::new(id, self.dim, entry.point_ids.clone(), lanes, size)))
        })
    }

    fn size_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.length as usize).sum()
    }
}

/// Write a backend's pages to `path` as the page-file image described in
/// the module docs.
///
/// The page region is *streamed*: pages are read from the backend one at a
/// time and written straight to the file while an incremental FNV-1a hash
/// accumulates the checksum, which is then patched into the header. Peak
/// memory is one page plus the metadata block, regardless of dataset size —
/// the save path never materializes a second copy of the disk image.
pub(crate) fn write_page_file(
    path: &Path,
    config: PageStoreConfig,
    dim: usize,
    build_writes: u64,
    point_count: usize,
    backend: &dyn StorageBackend,
) -> PersistResult<()> {
    use std::io::{BufWriter, Write};

    // Pass 1: build the metadata block. Only ids and lengths are kept; pages
    // are re-read during the streaming pass (cheap clones on the memory
    // backend, sequential re-reads when copying a file-backed store).
    let page_count = backend.page_count();
    let mut meta = ByteWriter::new();
    meta.put_u64(config.page_size_bytes as u64);
    meta.put_u64(dim as u64);
    meta.put_u64(build_writes);
    meta.put_u64(point_count as u64);
    meta.put_u64(page_count as u64);
    meta.put_u8(DIM_MAJOR_CODEC_TAG);
    // A page that fails its read (bit rot in a file-backed source) aborts
    // the save with the read error; the half-written target is not a valid
    // page file, its checksum is never patched in.
    let read = |i: usize| -> PersistResult<Page> {
        backend.read_page(PageId(i as u32))?.ok_or_else(|| {
            PersistError::Corrupt(format!("page {i} of {page_count} is missing from the store"))
        })
    };
    let mut region_len = 0u64;
    for i in 0..page_count {
        let page = read(i)?;
        meta.put_u64(region_len);
        meta.put_u64(page.size_bytes() as u64);
        meta.put_u32_seq(page.point_ids());
        region_len += page.size_bytes() as u64;
    }
    let meta = meta.into_vec();
    let payload_len = 8 + meta.len() as u64 + region_len;

    // Header with a placeholder checksum, then the payload, streamed.
    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    out.write_all(&PAGE_FILE_MAGIC)?;
    out.write_all(&PAGE_FILE_VERSION.to_le_bytes())?;
    out.write_all(&payload_len.to_le_bytes())?;
    out.write_all(&0u64.to_le_bytes())?; // checksum, patched below

    let mut hash = Fnv1a64::new();
    let meta_len_bytes = (meta.len() as u64).to_le_bytes();
    hash.update(&meta_len_bytes);
    out.write_all(&meta_len_bytes)?;
    hash.update(&meta);
    out.write_all(&meta)?;
    // Each page's image is encoded into one reused buffer: its lanes as
    // little-endian `f64`s, zero-padded to its nominal size.
    let mut image = Vec::new();
    for i in 0..page_count {
        let page = read(i)?;
        image.clear();
        for x in page.lanes() {
            image.extend_from_slice(&x.to_le_bytes());
        }
        image.resize(page.size_bytes(), 0);
        hash.update(&image);
        out.write_all(&image)?;
    }

    // Patch the checksum into the header.
    let mut file = out.into_inner().map_err(|e| PersistError::Io(e.into_error()))?;
    file.seek(SeekFrom::Start(20))?;
    file.write_all(&hash.finish().to_le_bytes())?;
    file.sync_all()?;
    Ok(())
}

fn parse_meta(bytes: &[u8]) -> PersistResult<PageFileMeta> {
    let mut r = ByteReader::new(bytes);
    let page_size = r.take_usize()?;
    let dim = r.take_usize()?;
    let build_writes = r.take_u64()?;
    let point_count = r.take_usize()?;
    let page_count = r.take_usize()?;
    let codec = r.take_u8()?;
    if codec != DIM_MAJOR_CODEC_TAG {
        return Err(PersistError::Corrupt(format!("unknown page-codec tag {codec}")));
    }
    let mut entries = Vec::with_capacity(page_count.min(1 << 20));
    let mut expected_offset = 0u64;
    for page in 0..page_count {
        let offset = r.take_u64()?;
        let length = r.take_u64()?;
        if offset != expected_offset {
            return Err(PersistError::Corrupt(format!(
                "page {page} starts at offset {offset}, expected {expected_offset}"
            )));
        }
        expected_offset = offset
            .checked_add(length)
            .ok_or_else(|| PersistError::Corrupt("page offsets overflow u64".into()))?;
        let point_ids: Arc<[PointId]> = r.take_u32_seq()?.into();
        let records = dim.checked_mul(point_ids.len()).and_then(|n| n.checked_mul(8));
        if records.is_none_or(|bytes| bytes as u64 > length) {
            return Err(PersistError::Corrupt(format!(
                "page {page} is {length} bytes, too short for {} records of dimension {dim}",
                point_ids.len()
            )));
        }
        entries.push(PageEntry { offset, length, point_ids });
    }
    r.expect_end()?;
    let recorded: usize = entries.iter().map(|e| e.point_ids.len()).sum();
    if recorded != point_count {
        return Err(PersistError::Corrupt(format!(
            "directory lists {recorded} point records, header says {point_count}"
        )));
    }
    // Every point id must be unique and within `0..point_count` — otherwise
    // a checksum-valid but malformed directory could force the layout to
    // allocate for a huge sparse id space, or leave points address-less.
    let mut seen = vec![false; point_count];
    for entry in &entries {
        for &pid in entry.point_ids.iter() {
            match seen.get_mut(pid as usize) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => {
                    return Err(PersistError::Corrupt(format!(
                        "point id {pid} appears in the directory more than once"
                    )))
                }
                None => {
                    return Err(PersistError::Corrupt(format!(
                        "point id {pid} out of range for {point_count} points"
                    )))
                }
            }
        }
    }
    Ok(PageFileMeta {
        config: PageStoreConfig { page_size_bytes: page_size },
        dim,
        build_writes,
        point_count,
        entries,
    })
}

fn read_exact_or_corrupt(file: &mut File, buf: &mut [u8], what: &str) -> PersistResult<()> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Corrupt(format!("file truncated while reading the {what}"))
        } else {
            PersistError::Io(e)
        }
    })
}

/// FNV-1a 64 over `len` bytes starting at `offset`, streamed in chunks.
fn streaming_fnv1a64(file: &mut File, offset: u64, len: u64) -> PersistResult<u64> {
    file.seek(SeekFrom::Start(offset))?;
    let mut hash = Fnv1a64::new();
    let mut remaining = len;
    let mut chunk = vec![0u8; 64 * 1024];
    while remaining > 0 {
        let take = (remaining as usize).min(chunk.len());
        read_exact_or_corrupt(file, &mut chunk[..take], "payload")?;
        hash.update(&chunk[..take]);
        remaining -= take as u64;
    }
    Ok(hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PageStore;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pagestore-file-test-{}-{name}", std::process::id()))
    }

    fn sample_store() -> (PageStore, Vec<Vec<f64>>) {
        let data: Vec<Vec<f64>> =
            (0..10).map(|i| (0..3).map(|j| (i * 3 + j) as f64).collect()).collect();
        let config = PageStoreConfig::with_page_size(3 * 8 * 4); // 4 records/page
        let store = PageStore::build_sequential(config, 3, 10, |pid| &data[pid as usize]);
        (store, data)
    }

    #[test]
    fn save_open_roundtrip_serves_identical_pages() {
        let (store, data) = sample_store();
        let path = temp_path("roundtrip");
        store.save(&path).unwrap();
        let reopened = PageStore::open(&path).unwrap();
        assert_eq!(reopened.backend_kind(), "file");
        assert_eq!(reopened.page_count(), store.page_count());
        assert_eq!(reopened.point_count(), store.point_count());
        assert_eq!(reopened.dim(), store.dim());
        assert_eq!(reopened.size_bytes(), store.size_bytes());
        assert_eq!(reopened.build_writes(), store.build_writes());
        assert_eq!(reopened.config(), store.config());
        for pid in 0..10u32 {
            let addr = reopened.address_of(pid).unwrap();
            assert_eq!(addr, store.address_of(pid).unwrap());
            let page = reopened.raw_page(addr.page).unwrap().unwrap();
            assert_eq!(page.decode_slot(addr.slot as usize), data[pid as usize]);
        }
        assert!(reopened.raw_page(PageId(99)).unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_page_bytes_fail_the_checksum() {
        let (store, _) = sample_store();
        let path = temp_path("corrupt");
        store.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PageStore::open(&path), Err(PersistError::ChecksumMismatch { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let (store, _) = sample_store();
        let path = temp_path("truncated");
        store.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(PageStore::open(&path), Err(PersistError::Corrupt(_))));
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(PageStore::open(&path), Err(PersistError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let (store, _) = sample_store();
        let path = temp_path("magic");
        store.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pristine = bytes.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PageStore::open(&path), Err(PersistError::BadMagic { .. })));
        bytes = pristine;
        bytes[8] = 0xFF; // version LSB
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PageStore::open(&path), Err(PersistError::UnsupportedVersion { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_valid_but_malformed_directory_is_rejected() {
        // Duplicate a point id in the directory, or claim a dimension the
        // pages are too short to hold, and re-seal the checksum: open must
        // fail on directory validation, not serve a broken layout.
        let (store, _) = sample_store();
        let path = temp_path("malformed");
        store.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Layout: header (28) + meta_len (8) + fixed meta fields (5 × u64 +
        // codec byte), then page 0's entry: offset u64, length u64,
        // id-seq len u64, ids.
        let first_id_at = ENVELOPE_HEADER_BYTES + 8 + 41 + 24;
        let dim_at = ENVELOPE_HEADER_BYTES + 8 + 8;
        let duplicate_id = |bytes: &mut Vec<u8>| {
            let second_id = bytes[first_id_at + 4..first_id_at + 8].to_vec();
            bytes[first_id_at..first_id_at + 4].copy_from_slice(&second_id);
        };
        let widen_dim = |bytes: &mut Vec<u8>| {
            bytes[dim_at..dim_at + 8].copy_from_slice(&100u64.to_le_bytes());
        };
        for (corrupt, expected) in
            [(&duplicate_id as &dyn Fn(&mut Vec<u8>), "more than once"), (&widen_dim, "too short")]
        {
            let mut bytes = pristine.clone();
            corrupt(&mut bytes);
            let checksum = crate::format::fnv1a64(&bytes[ENVELOPE_HEADER_BYTES..]);
            bytes[20..28].copy_from_slice(&checksum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match PageStore::open(&path) {
                Err(PersistError::Corrupt(message)) => {
                    assert!(message.contains(expected), "{message}");
                }
                other => panic!("expected corrupt-directory error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backed_store_counts_io_like_the_memory_store() {
        use crate::buffer_pool::BufferPool;
        let (store, data) = sample_store();
        let path = temp_path("io");
        store.save(&path).unwrap();
        let reopened = PageStore::open(&path).unwrap();

        let mut mem_pool = BufferPool::unbuffered();
        let mut file_pool = BufferPool::unbuffered();
        let points: Vec<u32> = (0..10).collect();
        let read_all = |pool: &mut BufferPool, store: &PageStore| {
            let (mut lanes, mut out) = (Vec::new(), Vec::new());
            let dim = store.dim();
            pool.read_points_block(store, &points, &mut lanes, &mut |pids, block| {
                let m = pids.len();
                for (j, &pid) in pids.iter().enumerate() {
                    out.push((pid, (0..dim).map(|i| block[i * m + j]).collect::<Vec<f64>>()));
                }
            })
            .unwrap();
            out
        };
        let from_mem = read_all(&mut mem_pool, &store);
        let from_file = read_all(&mut file_pool, &reopened);
        assert_eq!(from_mem.len(), from_file.len());
        for ((mp, mc), (fp, fc)) in from_mem.iter().zip(from_file.iter()) {
            assert_eq!(mp, fp);
            assert_eq!(mc, fc);
            assert_eq!(mc, &data[*mp as usize]);
        }
        assert_eq!(mem_pool.stats(), file_pool.stats());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_1_files_and_foreign_codec_tags_are_rejected() {
        let (store, _) = sample_store();
        let path = temp_path("one-format");
        store.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let reseal = |bytes: &mut Vec<u8>| {
            let checksum = crate::format::fnv1a64(&bytes[ENVELOPE_HEADER_BYTES..]);
            bytes[20..28].copy_from_slice(&checksum.to_le_bytes());
        };

        // The version-1 image: version field 1, no codec byte, checksum
        // re-sealed so only the version can be the reason to refuse it.
        let mut bytes = pristine.clone();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        bytes[12..20].copy_from_slice(&(payload_len - 1).to_le_bytes());
        let meta_len_at = ENVELOPE_HEADER_BYTES;
        let meta_len = u64::from_le_bytes(bytes[meta_len_at..meta_len_at + 8].try_into().unwrap());
        bytes[meta_len_at..meta_len_at + 8].copy_from_slice(&(meta_len - 1).to_le_bytes());
        bytes.remove(ENVELOPE_HEADER_BYTES + 8 + 40); // the codec byte
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PageStore::open(&path),
            Err(PersistError::UnsupportedVersion { found: 1, supported: PAGE_FILE_VERSION })
        ));

        // A current-version file whose codec byte names the row-major codec.
        let mut bytes = pristine;
        let codec_at = ENVELOPE_HEADER_BYTES + 8 + 40;
        assert_eq!(bytes[codec_at], DIM_MAJOR_CODEC_TAG);
        bytes[codec_at] = 0;
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        match PageStore::open(&path) {
            Err(PersistError::Corrupt(message)) => assert!(message.contains("codec"), "{message}"),
            other => panic!("expected a corrupt-codec error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_rot_after_open_surfaces_as_checksum_error_not_garbage() {
        use crate::buffer_pool::BufferPool;
        use std::io::Write;

        let (store, data) = sample_store();
        let path = temp_path("bit-rot");
        store.save(&path).unwrap();
        let reopened = PageStore::open(&path).unwrap();

        // Flip one byte of page 0's payload *in place* after open — the
        // envelope checksum only guards the open; mid-serve bit rot must be
        // caught by the per-page checksums on the read path. The first,
        // middle and last byte fall in the XXH64 stripe loop and its tails.
        let meta_len = {
            let bytes = std::fs::read(&path).unwrap();
            u64::from_le_bytes(
                bytes[ENVELOPE_HEADER_BYTES..ENVELOPE_HEADER_BYTES + 8].try_into().unwrap(),
            )
        };
        let page_start = ENVELOPE_HEADER_BYTES as u64 + 8 + meta_len;
        let page_len = store.raw_page(PageId(0)).unwrap().unwrap().size_bytes() as u64;
        let flip = |target: u64| {
            let mut file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(target)).unwrap();
            let mut byte = [0u8; 1];
            file.read_exact(&mut byte).unwrap();
            file.seek(SeekFrom::Start(target)).unwrap();
            file.write_all(&[byte[0] ^ 0x01]).unwrap();
            file.sync_all().unwrap();
        };

        for offset in [0, page_len / 2, page_len - 1] {
            flip(page_start + offset);

            // The page read and the batch read surface the corruption as a
            // descriptive error instead of a panic or silent garbage.
            let mut pool = BufferPool::unbuffered();
            let mut coords = Vec::new();
            let err = pool.try_fetch(&reopened, PageId(0)).unwrap_err();
            match &err {
                PageStoreError::Checksum { page, expected, found, path } => {
                    assert_eq!(*page, PageId(0), "byte {offset}");
                    assert_ne!(expected, found, "byte {offset}");
                    assert!(path.contains("bit-rot"), "{path}");
                }
                other => panic!("byte {offset}: expected a checksum error, got {other:?}"),
            }
            assert!(err.to_string().contains("checksum"), "{err}");
            let mut lanes = Vec::new();
            assert!(
                matches!(
                    pool.read_points_block(&reopened, &[0], &mut lanes, &mut |_, _| {}),
                    Err(PageStoreError::Checksum { .. })
                ),
                "byte {offset}"
            );
            // So do the single-point read, the maintenance walk and a save
            // that would copy the rotten page.
            assert!(matches!(
                pool.read_point_into(&reopened, 0, &mut coords),
                Err(PageStoreError::Checksum { .. })
            ));
            assert!(matches!(
                reopened.for_each_point(&mut |_, _| {}),
                Err(PageStoreError::Checksum { .. })
            ));
            match reopened.save(&temp_path("bit-rot-copy")) {
                Err(PersistError::Corrupt(message)) => assert!(message.contains("checksum")),
                other => panic!("byte {offset}: expected a corrupt-save error, got {other:?}"),
            }
            // Pages outside the flipped byte still verify and serve.
            assert!(pool.read_point_into(&reopened, 9, &mut coords).unwrap());
            assert_eq!(coords, data[9]);

            // Flipping the byte back restores the page.
            flip(page_start + offset);
            assert!(pool.read_point_into(&reopened, 0, &mut coords).unwrap());
            assert_eq!(coords, data[0], "byte {offset}");
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(temp_path("bit-rot-copy"));
    }

    #[test]
    fn rotten_page_is_never_cached_in_a_buffer_pool() {
        use crate::buffer_pool::{BufferPool, SharedPageCache};
        use std::io::Write;

        let (store, data) = sample_store();
        let path = temp_path("rot-buffered");
        store.save(&path).unwrap();
        let reopened = PageStore::open(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let meta_len = u64::from_le_bytes(
            bytes[ENVELOPE_HEADER_BYTES..ENVELOPE_HEADER_BYTES + 8].try_into().unwrap(),
        );
        let page_start = ENVELOPE_HEADER_BYTES as u64 + 8 + meta_len;
        let flip = || {
            let mut file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
            let mut byte = [0u8; 1];
            file.read_exact_at(&mut byte, page_start).unwrap();
            file.write_all_at(&[byte[0] ^ 0x01], page_start).unwrap();
            file.flush().unwrap();
        };

        for mut pool in [BufferPool::new(4), BufferPool::with_shared_cache(SharedPageCache::new(4))]
        {
            flip();
            // A page that fails its checksum is neither cached nor counted,
            // so every later read of it goes back to the file and fails too.
            for _ in 0..2 {
                assert!(matches!(
                    pool.try_fetch(&reopened, PageId(0)),
                    Err(PageStoreError::Checksum { page: PageId(0), .. })
                ));
                assert_eq!(pool.resident_pages(), 0);
            }
            let mut coords = Vec::new();
            assert!(matches!(
                pool.read_point_into(&reopened, 1, &mut coords),
                Err(PageStoreError::Checksum { .. })
            ));
            assert_eq!(pool.resident_pages(), 0);
            assert_eq!(pool.stats().pages_read + pool.stats().cache_hits, 0);

            // Once the byte is restored the page is read, cached and hit.
            flip();
            assert!(pool.read_point_into(&reopened, 1, &mut coords).unwrap());
            assert_eq!(coords, data[1]);
            assert!(pool.read_point_into(&reopened, 2, &mut coords).unwrap());
            assert_eq!(coords, data[2]);
            assert_eq!((pool.stats().pages_read, pool.stats().cache_hits), (1, 1));
            assert_eq!(pool.resident_pages(), 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decoded_lanes_carry_the_stored_bits_on_every_read_path() {
        use crate::buffer_pool::BufferPool;

        // Values a decode could plausibly disturb: signed zero, subnormals,
        // infinities, the extremes, and NaNs whose payloads and signs differ.
        let specials = [
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FF0_0000_0000_0002),
            f64::from_bits(0xFFF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF4_3210_0000_0007),
        ];
        let dim = 3;
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|i| (0..dim).map(|j| specials[(i * dim + j) % specials.len()]).collect())
            .collect();
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // 128-byte pages hold five 24-byte records and 8 bytes of padding;
        // the second page holds two records and 80 bytes of padding.
        let config = PageStoreConfig::with_page_size(128);
        let store = PageStore::build_sequential(config, dim, rows.len(), |pid| &rows[pid as usize]);
        let path = temp_path("lane-bits");
        store.save(&path).unwrap();
        let reopened = PageStore::open(&path).unwrap();

        // The page region is the hand-encoded lanes plus zero padding.
        let bytes = std::fs::read(&path).unwrap();
        let meta_len = u64::from_le_bytes(
            bytes[ENVELOPE_HEADER_BYTES..ENVELOPE_HEADER_BYTES + 8].try_into().unwrap(),
        );
        let mut region = Vec::new();
        for page in rows.chunks(5) {
            let start = region.len();
            for i in 0..dim {
                for row in page {
                    region.extend_from_slice(&row[i].to_bits().to_le_bytes());
                }
            }
            region.resize(start + 128, 0);
        }
        assert_eq!(&bytes[ENVELOPE_HEADER_BYTES + 8 + meta_len as usize..], &region[..]);

        let ids: Vec<PointId> = (0..rows.len() as PointId).collect();
        for (name, mut pool) in
            [("unbuffered", BufferPool::unbuffered()), ("cached", BufferPool::new(2))]
        {
            // Twice over, so the cached pool serves the second pass from hits.
            for _ in 0..2 {
                let mut coords = Vec::new();
                for &pid in &ids {
                    assert!(reopened.address_of(pid).is_some());
                    assert!(pool.read_point_into(&reopened, pid, &mut coords).unwrap());
                    assert_eq!(bits(&coords), bits(&rows[pid as usize]), "{name}, point {pid}");
                }
                let (mut lanes, mut seen) = (Vec::new(), 0);
                pool.read_points_block(&reopened, &ids, &mut lanes, &mut |pids, block| {
                    let m = pids.len();
                    for (j, &pid) in pids.iter().enumerate() {
                        let row: Vec<f64> = (0..dim).map(|i| block[i * m + j]).collect();
                        assert_eq!(bits(&row), bits(&rows[pid as usize]), "{name}, point {pid}");
                        seen += 1;
                    }
                })
                .unwrap();
                assert_eq!(seen, rows.len());
            }
            assert_eq!(pool.stats().cache_hits > 0, name == "cached", "{name}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resaving_a_file_backed_store_preserves_the_image() {
        let (store, _) = sample_store();
        let path_a = temp_path("resave-a");
        let path_b = temp_path("resave-b");
        store.save(&path_a).unwrap();
        let reopened = PageStore::open(&path_a).unwrap();
        reopened.save(&path_b).unwrap();
        assert_eq!(std::fs::read(&path_a).unwrap(), std::fs::read(&path_b).unwrap());
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
    }
}
