//! Fixed-size pages holding serialized point records in the dimension-major
//! (lane-contiguous SoA) codec the refine kernel streams.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

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

/// One fixed-size disk page: a header with the resident point ids followed by
/// their little-endian `f64` coordinates, padded to the configured page size.
///
/// Coordinates are stored **dimension-major** (structure-of-arrays): one
/// contiguous *lane* per dimension, so coordinate `i` of slot `s` lives at
/// byte `(i·count + s)·8`, where `count` is the number of records resident
/// in the page. This is the layout the batched SIMD refine kernel streams.
///
/// Both the payload and the id list sit behind shared ownership, so cloning a
/// page is cheap (two reference-count bumps). That is what lets a
/// [`crate::BufferPool`] hand out owned pages regardless of whether the
/// backing [`crate::StorageBackend`] keeps them in memory or reads them from
/// a file.
#[derive(Debug, Clone)]
pub struct Page {
    id: PageId,
    dim: usize,
    point_ids: Arc<[PointId]>,
    payload: Bytes,
}

impl Page {
    /// Serialize `points` (id + coordinates) into a dimension-major page
    /// image.
    ///
    /// The caller is responsible for ensuring the records fit in the page
    /// size; this constructor only encodes.
    pub fn encode(id: PageId, dim: usize, points: &[(PointId, &[f64])], page_size: usize) -> Page {
        let mut buf = BytesMut::with_capacity(page_size);
        for i in 0..dim {
            for (_, coords) in points {
                debug_assert_eq!(coords.len(), dim);
                buf.extend_from_slice(&coords[i].to_le_bytes());
            }
        }
        // Pad to the nominal page size so the simulated disk image has the
        // same footprint a real page would.
        if buf.len() < page_size {
            buf.resize(page_size, 0);
        }
        Page {
            id,
            dim,
            point_ids: points.iter().map(|(pid, _)| *pid).collect(),
            payload: buf.freeze(),
        }
    }

    /// Reassemble a page from its stored parts (used by storage backends
    /// when materializing a page read from a file image).
    pub fn from_parts(id: PageId, dim: usize, point_ids: Arc<[PointId]>, payload: Bytes) -> Page {
        Page { id, dim, point_ids, payload }
    }

    /// The raw serialized payload (record bytes plus padding).
    pub fn payload(&self) -> &[u8] {
        &self.payload
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

    /// Size in bytes of the serialized page image (including padding).
    pub fn size_bytes(&self) -> usize {
        self.payload.len()
    }

    #[inline]
    fn coord(&self, slot: usize, i: usize) -> f64 {
        let start = (i * self.point_ids.len() + slot) * 8;
        f64::from_le_bytes(self.payload[start..start + 8].try_into().expect("8-byte chunk"))
    }

    /// Decode the coordinates of the record in the given slot.
    pub fn decode_slot(&self, slot: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim);
        self.decode_slot_into(slot, &mut out);
        out
    }

    /// Decode the coordinates of the record in the given slot into `out`.
    pub fn decode_slot_into(&self, slot: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.dim).map(|i| self.coord(slot, i)));
    }

    /// Decode a set of slots as one **lane-major block**: after the call,
    /// `out[i * m + j]` is coordinate `i` of `slots[j]` (with
    /// `m = slots.len()`), i.e. one contiguous lane per dimension — the
    /// shape the batched refine kernel consumes.
    pub fn decode_slots_into(&self, slots: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.dim * slots.len());
        let count = self.point_ids.len();
        for i in 0..self.dim {
            let lane = i * count * 8;
            for &slot in slots {
                let start = lane + slot * 8;
                out.push(f64::from_le_bytes(
                    self.payload[start..start + 8].try_into().expect("8-byte chunk"),
                ));
            }
        }
    }

    /// Decode every record as one lane-major block, in slot order: the
    /// result of [`Page::decode_slots_into`] over all slots, read straight
    /// off the payload, which already stores the records that way.
    pub fn decode_all_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let bytes = &self.payload[..self.dim * self.point_ids.len() * 8];
        out.extend(
            bytes.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
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
    fn payload_is_lane_contiguous() {
        let a = vec![1.5, -2.25, 3.0];
        let b = vec![0.0, 7.5, -1.0];
        let c = vec![4.25, 5.0, -6.5];
        let points: &[(PointId, &[f64])] = &[(10, &a), (11, &b), (12, &c)];
        let page = Page::encode(PageId(3), 3, points, 256);
        let payload: Vec<f64> = page.payload()[..72]
            .chunks_exact(8)
            .map(|ch| f64::from_le_bytes(ch.try_into().unwrap()))
            .collect();
        assert_eq!(payload, vec![1.5, 0.0, 4.25, -2.25, 7.5, 5.0, 3.0, -1.0, -6.5]);
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
        let mut all = Vec::new();
        page.decode_all_into(&mut all);
        page.decode_slots_into(&[0, 1, 2], &mut out);
        assert_eq!(all, out);
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
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(4).to_string(), "page 4");
        assert_eq!(PageId(4).index(), 4);
    }
}
