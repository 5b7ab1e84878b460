//! Scan-resistant buffer pool with I/O accounting.
//!
//! The replacement policy is **SIEVE** (lazy promotion + quick demotion):
//! a hit only sets a per-page `visited` bit — O(1), no list surgery — and
//! eviction walks a hand from the oldest page toward the newest, clearing
//! `visited` bits until it finds a cold page. One sequential scan through
//! the store therefore cannot flush the working set the way it does under
//! plain LRU: scanned-once pages are never promoted past pages that keep
//! getting re-referenced.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::PageStoreError;
use crate::io_stats::IoStats;
use crate::page::{Page, PageId};
use crate::store::PageStore;
use crate::PointId;

/// Sentinel for "no node" in the intrusive recency list.
const NIL: usize = usize::MAX;

/// One resident page in the [`SieveCache`] slab.
#[derive(Debug)]
struct Node {
    id: PageId,
    page: Page,
    /// Set on every hit; cleared (once) by the eviction hand.
    visited: bool,
    /// Neighbour toward the tail (older).
    older: usize,
    /// Neighbour toward the head (newer).
    newer: usize,
}

/// The SIEVE replacement state: a slab of nodes threaded into an
/// insertion-order list (head = newest) plus the eviction hand.
///
/// Every operation is O(1) amortized: hits touch one bit, inserts splice at
/// the head, and the hand's total movement is bounded by the number of
/// insertions (each `visited` bit it clears was set by a distinct hit).
#[derive(Debug)]
struct SieveCache {
    capacity: usize,
    nodes: Vec<Node>,
    map: HashMap<PageId, usize>,
    /// Newest node.
    head: usize,
    /// Oldest node (where the hand starts).
    tail: usize,
    /// Eviction hand; `NIL` restarts at the tail.
    hand: usize,
    /// Recycled slab indices.
    free: Vec<usize>,
}

impl SieveCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            nodes: Vec::with_capacity(capacity.min(1024)),
            map: HashMap::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            hand: NIL,
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Look a page up; a hit marks it visited (no list movement).
    fn get(&mut self, id: PageId) -> Option<Page> {
        let &idx = self.map.get(&id)?;
        self.nodes[idx].visited = true;
        Some(self.nodes[idx].page.clone())
    }

    /// Make a page resident, evicting the hand's victim if full. (Should
    /// the bounded eviction walk ever find no victim, the page is served
    /// without caching it.)
    fn insert(&mut self, id: PageId, page: Page) {
        debug_assert!(self.capacity > 0, "capacity-0 pools never reach the cache");
        if self.map.len() >= self.capacity && !self.evict_one() {
            return;
        }
        let node = Node { id, page, visited: false, older: self.head, newer: NIL };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if self.head != NIL {
            self.nodes[self.head].newer = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
        self.map.insert(id, idx);
    }

    /// Advance the hand from the oldest page toward the newest, clearing
    /// `visited` bits, and evict the first cold page. Returns whether a
    /// page was evicted.
    fn evict_one(&mut self) -> bool {
        let mut cursor = if self.hand != NIL { self.hand } else { self.tail };
        // Two full passes always suffice (pass one clears every bit the
        // hand crosses); the explicit bound keeps the walk finite even if
        // an invariant is ever violated.
        for _ in 0..(2 * self.map.len() + 4) {
            if cursor == NIL {
                cursor = self.tail;
                continue;
            }
            let node = &mut self.nodes[cursor];
            if node.visited {
                node.visited = false;
                cursor = node.newer;
            } else {
                self.hand = node.newer;
                self.unlink(cursor);
                return true;
            }
        }
        false
    }

    /// Remove a node from the list, the map and the slab.
    fn unlink(&mut self, idx: usize) {
        let (id, older, newer) = {
            let node = &self.nodes[idx];
            (node.id, node.older, node.newer)
        };
        if older != NIL {
            self.nodes[older].newer = newer;
        } else {
            self.tail = newer;
        }
        if newer != NIL {
            self.nodes[newer].older = older;
        } else {
            self.head = older;
        }
        self.map.remove(&id);
        self.free.push(idx);
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.map.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hand = NIL;
    }
}

/// A page cache shareable between several [`BufferPool`] handles (the warm
/// serving tier: every engine worker reads through one cache, so a page
/// faulted by any worker is a hit for all of them). Cloning shares the
/// cache; I/O counters stay *per handle* in each `BufferPool`.
#[derive(Debug, Clone)]
pub struct SharedPageCache {
    inner: Arc<Mutex<SieveCache>>,
    capacity: usize,
}

impl SharedPageCache {
    /// A shared cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self { inner: Arc::new(Mutex::new(SieveCache::new(capacity))), capacity }
    }

    /// The configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently cached.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().len()
    }
}

/// Where a [`BufferPool`] keeps its resident pages.
#[derive(Debug)]
enum CacheSlot {
    /// This handle owns its cache (the default).
    Private(SieveCache),
    /// Several handles share one cache behind a mutex.
    Shared(SharedPageCache),
}

/// A scan-resistant (SIEVE) page cache in front of a [`PageStore`].
///
/// Every access that is not already cached counts as one physical page read
/// in the attached [`IoStats`]; cached accesses count as hits. The pool is
/// the *only* sanctioned read path for indexes, which is how every index in
/// this repository reports the paper's I/O-cost metric.
///
/// Cached pages are held by value (pages are cheap to clone — their decoded
/// lanes and id list are reference-counted), so the pool works identically
/// over the in-memory backend and the file backend: a miss asks the store
/// for a physical page, decoded once by the backend, and a hit serves the
/// pool's own copy without touching the store at all — the caller scores
/// its lanes in place ([`Page::lanes`]).
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    slot: CacheSlot,
    stats: IoStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    ///
    /// A capacity of zero is the *unbuffered* pool: nothing is ever cached,
    /// every access is counted as a physical page read, and
    /// [`BufferPool::resident_pages`] stays at zero. This is how the
    /// per-query I/O numbers in the paper's figures are measured.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slot: CacheSlot::Private(SieveCache::new(capacity)),
            stats: IoStats::default(),
        }
    }

    /// A pool that never caches (each access is a physical page read).
    pub fn unbuffered() -> Self {
        Self::new(0)
    }

    /// A handle reading through an existing [`SharedPageCache`]. The
    /// handle's [`IoStats`] remain its own: pages faulted in by *other*
    /// handles of the same cache count as this handle's hits.
    pub fn with_shared_cache(cache: SharedPageCache) -> Self {
        Self {
            capacity: cache.capacity(),
            slot: CacheSlot::Shared(cache),
            stats: IoStats::default(),
        }
    }

    /// The configured capacity in pages (zero = unbuffered).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Drop every cached page but keep the statistics. On a shared-cache
    /// handle this clears the shared cache (affecting every handle).
    pub fn clear(&mut self) {
        match &mut self.slot {
            CacheSlot::Private(cache) => cache.clear(),
            CacheSlot::Shared(shared) => shared.inner.lock().clear(),
        }
    }

    /// Number of pages currently cached.
    pub fn resident_pages(&self) -> usize {
        match &self.slot {
            CacheSlot::Private(cache) => cache.len(),
            CacheSlot::Shared(shared) => shared.resident_pages(),
        }
    }

    /// Touch a page: record the access, updating replacement state and
    /// counters, and return the page. `Ok(None)` means "unknown page id".
    /// A physical read that fails (post-open bit rot caught by a page
    /// checksum, or a device error) is a [`PageStoreError`]; a failed read
    /// is neither cached nor counted.
    pub fn try_fetch(
        &mut self,
        store: &PageStore,
        id: PageId,
    ) -> Result<Option<Page>, PageStoreError> {
        // Unbuffered mode: every access is a counted physical read and the
        // pool never retains a page.
        if self.capacity == 0 {
            let Some(page) = store.raw_page(id)? else {
                return Ok(None);
            };
            self.stats.pages_read += 1;
            return Ok(Some(page));
        }
        match &mut self.slot {
            CacheSlot::Private(cache) => Self::fetch_cached(cache, &mut self.stats, store, id),
            CacheSlot::Shared(shared) => {
                let mut cache = shared.inner.lock();
                Self::fetch_cached(&mut cache, &mut self.stats, store, id)
            }
        }
    }

    fn fetch_cached(
        cache: &mut SieveCache,
        stats: &mut IoStats,
        store: &PageStore,
        id: PageId,
    ) -> Result<Option<Page>, PageStoreError> {
        if let Some(page) = cache.get(id) {
            stats.cache_hits += 1;
            return Ok(Some(page));
        }
        let Some(page) = store.raw_page(id)? else {
            return Ok(None);
        };
        stats.pages_read += 1;
        cache.insert(id, page.clone());
        Ok(Some(page))
    }

    /// Read one point through the pool into a caller-provided buffer.
    /// Returns `Ok(false)` for a point with no address (or on an unknown
    /// page) and the [`PageStoreError`] of a failed physical read.
    pub fn read_point_into(
        &mut self,
        store: &PageStore,
        point: PointId,
        out: &mut Vec<f64>,
    ) -> Result<bool, PageStoreError> {
        let Some(addr) = store.address_of(point) else {
            return Ok(false);
        };
        let Some(page) = self.try_fetch(store, addr.page)? else {
            return Ok(false);
        };
        page.decode_slot_into(addr.slot as usize, out);
        Ok(true)
    }

    /// Visit a batch of points one gathered *page group* at a time, grouped
    /// by page in first-seen page order so that points co-located on a page
    /// cost a single physical read. Each group is gathered into `lanes` as a
    /// **lane-major block** — `lanes[i * m + j]` is coordinate `i` of the
    /// group's `j`-th point (of `m`), the group's points in request order —
    /// and handed to `f` once per page. This is the layout the batched
    /// refine kernel (`distance_block`) consumes: one contiguous lane per
    /// dimension. Unknown ids are skipped, and a duplicated id is visited
    /// once per occurrence — callers pass deduplicated candidate lists.
    ///
    /// A physical read that fails mid-batch (post-open bit rot caught by a
    /// page checksum, or a device error) aborts the batch with a
    /// descriptive [`PageStoreError`] — the query layer reports it instead
    /// of serving a silently incomplete candidate set.
    pub fn read_points_block(
        &mut self,
        store: &PageStore,
        points: &[PointId],
        lanes: &mut Vec<f64>,
        f: &mut dyn FnMut(&[PointId], &[f64]),
    ) -> Result<(), PageStoreError> {
        let mut slots: Vec<usize> = Vec::new();
        for (page_id, members) in store.layout().pages_for(points) {
            if let Some(page) = self.try_fetch(store, page_id)? {
                slots.clear();
                // `pages_for` resolved every member, so every address exists.
                slots.extend(
                    members
                        .iter()
                        .filter_map(|&pid| store.address_of(pid))
                        .map(|a| a.slot as usize),
                );
                debug_assert_eq!(slots.len(), members.len());
                page.decode_slots_into(&slots, lanes);
                f(&members, lanes);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{PageStore, PageStoreConfig};

    fn store(n: usize, dim: usize, per_page: usize) -> (PageStore, Vec<Vec<f64>>) {
        let data: Vec<Vec<f64>> =
            (0..n).map(|i| (0..dim).map(|j| (i * dim + j) as f64).collect()).collect();
        let config = PageStoreConfig::with_page_size(dim * 8 * per_page);
        let s = PageStore::build_sequential(config, dim, n, |pid| &data[pid as usize]);
        (s, data)
    }

    /// Read one point through the pool (it must exist).
    fn read(pool: &mut BufferPool, s: &PageStore, pid: u32) -> Vec<f64> {
        let mut coords = Vec::new();
        assert!(pool.read_point_into(s, pid, &mut coords).unwrap(), "point {pid}");
        coords
    }

    /// Visit `ids` through the batched path, collecting `(id, coords)` in
    /// visit order from each lane-major block.
    fn read_all(pool: &mut BufferPool, s: &PageStore, ids: &[u32]) -> Vec<(u32, Vec<f64>)> {
        let dim = s.dim();
        let mut lanes = Vec::new();
        let mut seen = Vec::new();
        pool.read_points_block(s, ids, &mut lanes, &mut |pids, block| {
            let m = pids.len();
            assert_eq!(block.len(), dim * m, "a block holds dim lanes of m points");
            for (j, &pid) in pids.iter().enumerate() {
                seen.push((pid, (0..dim).map(|i| block[i * m + j]).collect()));
            }
        })
        .unwrap();
        seen
    }

    #[test]
    fn unbuffered_counts_every_access_as_physical_read() {
        let (s, data) = store(6, 2, 2);
        let mut pool = BufferPool::unbuffered();
        assert_eq!(pool.capacity(), 0);
        for pid in 0..6u32 {
            assert_eq!(read(&mut pool, &s, pid), data[pid as usize]);
        }
        assert_eq!(pool.stats().pages_read, 6);
        assert_eq!(pool.stats().cache_hits, 0);
    }

    #[test]
    fn capacity_zero_never_retains_pages() {
        // The unbuffered pool is not a degenerate cache: repeated access to
        // the same page stays a counted miss and nothing becomes resident.
        let (s, _) = store(6, 2, 2);
        let mut pool = BufferPool::new(0);
        for _ in 0..3 {
            read(&mut pool, &s, 0);
        }
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.stats().pages_read, 3);
        assert_eq!(pool.stats().cache_hits, 0);
        // Batched reads still coalesce points within one visit of a page…
        let result = read_all(&mut pool, &s, &[0, 1, 4]);
        assert_eq!(result.len(), 3);
        assert_eq!(pool.stats().pages_read, 5); // pages {0,1} and {4,5}
                                                // …but the pool stays empty afterwards.
        assert_eq!(pool.resident_pages(), 0);
    }

    #[test]
    fn cached_rereads_are_hits() {
        let (s, _) = store(6, 2, 2);
        let mut pool = BufferPool::new(8);
        read(&mut pool, &s, 0);
        read(&mut pool, &s, 1); // same page as 0
        read(&mut pool, &s, 2); // new page
        assert_eq!(pool.stats().pages_read, 2);
        assert_eq!(pool.stats().cache_hits, 1);
        assert_eq!(pool.resident_pages(), 2);

        // The same miss/hit/miss sequence through the page-level read…
        let mut pool = BufferPool::new(4);
        pool.try_fetch(&s, PageId(0)).unwrap(); // miss
        pool.try_fetch(&s, PageId(0)).unwrap(); // hit
        pool.try_fetch(&s, PageId(1)).unwrap(); // miss
        assert_eq!(pool.stats().pages_read, 2);
        assert_eq!(pool.stats().cache_hits, 1);
        // …and an unbuffered page read is always a physical read.
        let mut unbuffered = BufferPool::unbuffered();
        unbuffered.try_fetch(&s, PageId(0)).unwrap();
        unbuffered.try_fetch(&s, PageId(0)).unwrap();
        assert_eq!(unbuffered.stats().pages_read, 2);
        assert_eq!(unbuffered.stats().cache_hits, 0);
    }

    #[test]
    fn eviction_reclaims_the_oldest_cold_page() {
        let (s, _) = store(8, 2, 2); // pages: {0,1},{2,3},{4,5},{6,7}
        let mut pool = BufferPool::new(2);
        read(&mut pool, &s, 0); // page 0 in
        read(&mut pool, &s, 2); // page 1 in
        read(&mut pool, &s, 4); // page 2 in, page 0 (oldest, cold) evicted
        read(&mut pool, &s, 0); // page 0 again: physical read
        assert_eq!(pool.stats().pages_read, 4);
        assert_eq!(pool.stats().cache_hits, 0);
    }

    #[test]
    fn a_hit_protects_a_page_from_the_next_eviction() {
        let (s, _) = store(8, 2, 2);
        let mut pool = BufferPool::new(2);
        read(&mut pool, &s, 0); // page 0
        read(&mut pool, &s, 2); // page 1
        read(&mut pool, &s, 1); // hit page 0: visited, survives the hand
        read(&mut pool, &s, 4); // page 2 in; hand skips page 0, evicts page 1
        read(&mut pool, &s, 0); // page 0 should still be resident
        assert_eq!(pool.stats().cache_hits, 2);
        assert_eq!(pool.stats().pages_read, 3);
    }

    #[test]
    fn a_sequential_scan_cannot_flush_a_rereferenced_page() {
        // SIEVE's scan resistance: page 0 is hit between scan steps, the
        // scanned-once pages are not, so the hand reclaims scan pages and
        // page 0 stays resident for the whole pass — under LRU a scan of
        // more than `capacity` pages would have flushed it.
        let (s, _) = store(64, 2, 2); // 32 pages
        let mut pool = BufferPool::new(4);
        read(&mut pool, &s, 0); // page 0 resident
        read(&mut pool, &s, 1); // …and visited
        for pid in (2..64u32).step_by(2) {
            read(&mut pool, &s, pid); // scan every other page once
            read(&mut pool, &s, 0); // the hot page keeps getting hits
        }
        // Every access to page 0 after its single fault was a hit.
        assert_eq!(pool.stats().pages_read, 32, "page 0 faulted once, 31 scan pages once");
        assert_eq!(pool.stats().cache_hits, 32);
    }

    #[test]
    fn touches_are_constant_time_over_a_large_pool() {
        // The O(n)-per-hit LRU this pool replaced scanned a VecDeque on
        // every touch; 200k hits over 8192 resident pages would be ~1.6e9
        // element moves. Under SIEVE a hit is one hash lookup + one bit,
        // so this loop is far inside the (generous) bound even in debug.
        let (s, _) = store(8192, 2, 1); // 8192 pages
        let mut pool = BufferPool::new(8192);
        for pid in 0..8192u32 {
            read(&mut pool, &s, pid);
        }
        assert_eq!(pool.resident_pages(), 8192);
        let started = std::time::Instant::now();
        for i in 0..200_000u32 {
            read(&mut pool, &s, i % 8192);
        }
        assert_eq!(pool.stats().cache_hits, 200_000);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "warm touches must be O(1), took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn shared_cache_hits_across_handles_with_per_handle_stats() {
        let (s, _) = store(8, 2, 2); // 4 pages
        let cache = SharedPageCache::new(4);
        let mut a = BufferPool::with_shared_cache(cache.clone());
        let mut b = BufferPool::with_shared_cache(cache.clone());
        assert_eq!(a.capacity(), 4);
        read(&mut a, &s, 0); // handle A faults page 0
        read(&mut b, &s, 1); // handle B hits the page A faulted
        assert_eq!(a.stats().pages_read, 1);
        assert_eq!(a.stats().cache_hits, 0);
        assert_eq!(b.stats().pages_read, 0);
        assert_eq!(b.stats().cache_hits, 1);
        assert_eq!(cache.resident_pages(), 1);
        assert_eq!(b.resident_pages(), 1);
    }

    #[test]
    fn batched_read_costs_one_read_per_page() {
        let (s, data) = store(10, 3, 5); // pages: {0..4},{5..9}
        let mut pool = BufferPool::unbuffered();
        let result = read_all(&mut pool, &s, &[0, 1, 2, 7, 8]);
        assert_eq!(result.len(), 5);
        assert_eq!(pool.stats().pages_read, 2);
        for (pid, coords) in result {
            assert_eq!(coords, data[pid as usize]);
        }
    }

    #[test]
    fn read_points_block_groups_by_first_seen_page_and_skips_unknown_ids() {
        let (s, data) = store(10, 3, 5); // pages: {0..4},{5..9}
        let mut pool = BufferPool::unbuffered();
        let seen = read_all(&mut pool, &s, &[7u32, 0, 1, 8, 2, 99]);
        // One physical read per page; the page of the first-seen point is
        // visited first, and within a page the members keep request order.
        assert_eq!(pool.stats().pages_read, 2);
        assert_eq!(seen.iter().map(|(p, _)| *p).collect::<Vec<_>>(), vec![7, 8, 0, 1, 2]);
        for (pid, c) in &seen {
            assert_eq!(c, &data[*pid as usize]);
        }
    }

    #[test]
    fn read_point_into_and_missing_points() {
        let (s, data) = store(4, 2, 2);
        let mut pool = BufferPool::new(2);
        let mut buf = Vec::new();
        assert!(pool.read_point_into(&s, 3, &mut buf).unwrap());
        assert_eq!(buf, data[3]);
        assert!(!pool.read_point_into(&s, 100, &mut buf).unwrap());
    }

    #[test]
    fn clear_drops_pages_and_keeps_stats() {
        let (s, _) = store(4, 2, 2);
        let mut pool = BufferPool::new(2);
        read(&mut pool, &s, 0);
        let stats = pool.stats();
        pool.clear();
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.stats(), stats);
    }
}
