//! Fixed-size pages holding point records as decoded, dimension-major
//! (lane-contiguous SoA) `f64` lanes, the block the refine kernel streams.

use std::sync::Arc;

use crate::PointId;

/// Identifier of a page within a [`crate::PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// The page id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page {}", self.0)
    }
}

/// One fixed-size disk page: the resident point ids and their `f64`
/// coordinates, held decoded.
///
/// Coordinates are stored **dimension-major** (structure-of-arrays): one
/// contiguous *lane* per dimension, so coordinate `i` of slot `s` is
/// `lanes()[i·count + s]`, where `count` is the number of records resident
/// in the page. This is the block the batched SIMD refine kernel streams,
/// so a resident page is scored in place, without a decode.
///
/// The byte image exists only at the file boundary: a page file stores the
/// lanes as little-endian `f64`s in the same order, zero-padded to the
/// page's nominal size ([`Page::size_bytes`]), and a
/// [`crate::FileBackend`] decodes a page once per physical read.
///
/// Both the lanes and the id list sit behind shared ownership, so cloning a
/// page is cheap (two reference-count bumps). That is what lets a
/// [`crate::BufferPool`] hand out owned pages regardless of whether the
/// backing [`crate::StorageBackend`] keeps them in memory or reads them from
/// a file.
#[derive(Debug, Clone)]
pub struct Page {
    id: PageId,
    dim: usize,
    point_ids: Arc<[PointId]>,
    lanes: Arc<[f64]>,
    size_bytes: usize,
}

impl Page {
    /// Lay `points` (id + coordinates) out as a dimension-major page whose
    /// nominal size is `page_size` bytes, or the records' own size if they
    /// do not fit.
    ///
    /// The caller is responsible for ensuring the records fit in the page
    /// size; this constructor only lays them out.
    pub fn encode(id: PageId, dim: usize, points: &[(PointId, &[f64])], page_size: usize) -> Page {
        debug_assert!(points.iter().all(|(_, coords)| coords.len() == dim));
        // Pulled through an exact-length range, so the lanes are collected
        // straight into their one shared allocation.
        let mut coords = (0..dim).flat_map(|i| points.iter().map(move |(_, c)| c[i]));
        let lanes: Arc<[f64]> = (0..dim * points.len())
            .map(|_| coords.next().expect("dim × count coordinates"))
            .collect();
        let size_bytes = page_size.max(lanes.len() * 8);
        Page::new(id, dim, points.iter().map(|(pid, _)| *pid).collect(), lanes, size_bytes)
    }

    /// Assemble a page from its decoded lanes (`dim × point_ids.len()`,
    /// dimension-major) and its nominal size in bytes.
    pub(crate) fn new(
        id: PageId,
        dim: usize,
        point_ids: Arc<[PointId]>,
        lanes: Arc<[f64]>,
        size_bytes: usize,
    ) -> Page {
        debug_assert_eq!(lanes.len(), dim * point_ids.len());
        debug_assert!(size_bytes >= lanes.len() * 8);
        Page { id, dim, point_ids, lanes, size_bytes }
    }

    /// The page identifier.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Number of point records stored in this page.
    pub fn len(&self) -> usize {
        self.point_ids.len()
    }

    /// Whether the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.point_ids.is_empty()
    }

    /// The ids of the points resident in this page, in slot order.
    pub fn point_ids(&self) -> &[PointId] {
        &self.point_ids
    }

    /// Every record as one lane-major block, in slot order: `lanes()[i·m +
    /// j]` is coordinate `i` of slot `j` (`m = len()`), the shape the
    /// batched refine kernel (`distance_block`) consumes.
    pub fn lanes(&self) -> &[f64] {
        &self.lanes
    }

    /// Nominal size in bytes of the page image on disk (records plus zero
    /// padding).
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Decode the coordinates of the record in the given slot.
    pub fn decode_slot(&self, slot: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim);
        self.decode_slot_into(slot, &mut out);
        out
    }

    /// Decode the coordinates of the record in the given slot into `out`.
    pub fn decode_slot_into(&self, slot: usize, out: &mut Vec<f64>) {
        debug_assert!(slot < self.len());
        out.clear();
        out.extend((0..self.dim).map(|i| self.lanes[i * self.len() + slot]));
    }

    /// Decode a set of slots as one **lane-major block**: after the call,
    /// `out[i * m + j]` is coordinate `i` of `slots[j]` (with
    /// `m = slots.len()`), i.e. one contiguous lane per dimension — the
    /// shape the batched refine kernel consumes.
    pub fn decode_slots_into(&self, slots: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.dim * slots.len());
        for lane in self.lanes.chunks_exact(self.len().max(1)) {
            out.extend(slots.iter().map(|&slot| lane[slot]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let a = vec![1.5, -2.25, 3.0];
        let b = vec![0.0, 7.5, -1.0];
        let page = Page::encode(PageId(3), 3, &[(10, &a), (11, &b)], 256);
        assert_eq!(page.id(), PageId(3));
        assert_eq!(page.len(), 2);
        assert!(!page.is_empty());
        assert_eq!(page.point_ids(), &[10, 11]);
        assert_eq!(page.decode_slot(0), a);
        assert_eq!(page.decode_slot(1), b);
        assert_eq!(page.size_bytes(), 256);
    }

    #[test]
    fn lanes_are_dimension_major() {
        let a = vec![1.5, -2.25, 3.0];
        let b = vec![0.0, 7.5, -1.0];
        let c = vec![4.25, 5.0, -6.5];
        let points: &[(PointId, &[f64])] = &[(10, &a), (11, &b), (12, &c)];
        let page = Page::encode(PageId(3), 3, points, 256);
        assert_eq!(page.lanes(), [1.5, 0.0, 4.25, -2.25, 7.5, 5.0, 3.0, -1.0, -6.5]);
    }

    #[test]
    fn decode_slots_into_is_lane_major() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let c = vec![5.0, 6.0];
        let points: &[(PointId, &[f64])] = &[(0, &a), (1, &b), (2, &c)];
        let page = Page::encode(PageId(0), 2, points, 128);
        let mut out = vec![9.0; 3];
        page.decode_slots_into(&[2, 0], &mut out);
        // m = 2 slots: lane 0 = [c0, a0], lane 1 = [c1, a1].
        assert_eq!(out, vec![5.0, 1.0, 6.0, 2.0]);
        page.decode_slots_into(&[0, 1, 2], &mut out);
        assert_eq!(page.lanes(), out);
    }

    #[test]
    fn decode_slot_into_reuses_buffer() {
        let a = vec![1.0, 2.0];
        let page = Page::encode(PageId(0), 2, &[(0, &a)], 64);
        let mut buf = vec![9.0; 17];
        page.decode_slot_into(0, &mut buf);
        assert_eq!(buf, a);
    }

    #[test]
    fn page_larger_than_payload_is_padded() {
        let a = vec![1.0, 2.0];
        let page = Page::encode(PageId(0), 2, &[(0, &a)], 4096);
        assert_eq!(page.size_bytes(), 4096);
        // A record wider than the nominal size keeps its own size.
        let page = Page::encode(PageId(0), 2, &[(0, &a)], 8);
        assert_eq!(page.size_bytes(), 16);
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(4).to_string(), "page 4");
        assert_eq!(PageId(4).index(), 4);
    }
}
