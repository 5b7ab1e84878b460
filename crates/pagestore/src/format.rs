//! Little-endian binary encoding primitives shared by every persistent
//! artifact in the workspace.
//!
//! Each saved artifact (page file, BB-tree, VA-file metadata, BrePartition
//! index metadata, spec envelope, delta log) is a *sealed envelope*:
//!
//! ```text
//! offset  size  field
//! 0       8     magic      — artifact tag, e.g. b"BREPPGS1"
//! 8       4     version    — format version (little-endian u32)
//! 12      8     payload_len — length of the payload in bytes (u64)
//! 20      8     checksum   — FNV-1a 64 over the payload
//! 28      …     payload    — artifact-specific body
//! ```
//!
//! [`seal`] produces the envelope, [`unseal`] validates magic, version,
//! length and checksum before handing the payload back. Payload bodies are
//! written with [`ByteWriter`] and parsed with [`ByteReader`]; every scalar
//! is little-endian and every sequence is length-prefixed, so the format is
//! architecture-independent.

use std::fmt;

/// Size in bytes of the sealed-envelope header.
pub const ENVELOPE_HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Errors raised while saving or opening a persistent artifact.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the expected artifact magic.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// The file was written by an unsupported format version.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The payload does not match the checksum recorded in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload.
        found: u64,
    },
    /// The payload is structurally invalid (truncated, inconsistent counts,
    /// out-of-range references, …).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads version {supported})"
                )
            }
            PersistError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}")
            }
            PersistError::Corrupt(message) => write!(f, "corrupt artifact: {message}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A page that fails its read while an artifact is being written or
/// restored (bit rot in the source page file) makes that artifact corrupt.
impl From<crate::backend::PageStoreError> for PersistError {
    fn from(e: crate::backend::PageStoreError) -> Self {
        PersistError::Corrupt(e.to_string())
    }
}

/// Convenience alias for persistence results.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

/// Incremental FNV-1a 64-bit hasher, the checksum used by every sealed
/// envelope (cheap, dependency-free, and plenty for corruption detection —
/// this is not a cryptographic integrity check). The incremental form lets
/// writers and readers stream large payloads without materializing them.
#[derive(Debug, Clone)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: Self::OFFSET_BASIS }
    }

    /// Fold more bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 of a byte slice in one call.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.finish()
}

/// XXH64 (seed 0) of a byte slice.
///
/// The per-page checksums of an open page file (see [`crate::file`]) use
/// this instead of [`fnv1a64`]: FNV-1a is one dependent multiply per byte,
/// while XXH64 folds 32 bytes per step through four independent lanes, so
/// verifying a page on every read costs a small fraction of reading it.
/// These checksums live only in memory; no file byte depends on them.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    }
    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    }
    let u64_at = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));

    let mut rest = bytes;
    let mut hash = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        let mut stripes = rest.chunks_exact(32);
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, u64_at(word));
            }
        }
        rest = stripes.remainder();
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = merge(h, lane);
        }
        h
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, u64_at(word))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    rest = words.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        hash = (hash ^ word.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &byte in rest {
        hash = (hash ^ (byte as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Wrap a payload in a sealed envelope (magic, version, length, checksum).
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_BYTES + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a sealed envelope header, returning `(payload_len, checksum)`.
///
/// `data` must hold at least [`ENVELOPE_HEADER_BYTES`]; the payload itself
/// is *not* validated — callers that stream the payload (the file-backed
/// page store) verify the checksum separately.
pub fn read_envelope_header(
    magic: &[u8; 8],
    version: u32,
    data: &[u8],
) -> PersistResult<(u64, u64)> {
    if data.len() < ENVELOPE_HEADER_BYTES {
        return Err(PersistError::Corrupt(format!(
            "file too short for an envelope header ({} bytes)",
            data.len()
        )));
    }
    let mut found_magic = [0u8; 8];
    found_magic.copy_from_slice(&data[..8]);
    if &found_magic != magic {
        return Err(PersistError::BadMagic { expected: *magic, found: found_magic });
    }
    let found_version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if found_version != version {
        return Err(PersistError::UnsupportedVersion { found: found_version, supported: version });
    }
    let payload_len = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(data[20..28].try_into().expect("8 bytes"));
    Ok((payload_len, checksum))
}

/// Validate a sealed envelope held entirely in memory and return its payload.
pub fn unseal<'a>(magic: &[u8; 8], version: u32, data: &'a [u8]) -> PersistResult<&'a [u8]> {
    let (payload_len, checksum) = read_envelope_header(magic, version, data)?;
    let payload = &data[ENVELOPE_HEADER_BYTES..];
    if payload.len() as u64 != payload_len {
        return Err(PersistError::Corrupt(format!(
            "payload length mismatch: header says {payload_len}, file holds {}",
            payload.len()
        )));
    }
    let found = fnv1a64(payload);
    if found != checksum {
        return Err(PersistError::ChecksumMismatch { expected: checksum, found });
    }
    Ok(payload)
}

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` by its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Append a length-prefixed `u16` sequence.
    pub fn put_u16_seq(&mut self, values: &[u16]) {
        self.put_usize(values.len());
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u32` sequence.
    pub fn put_u32_seq(&mut self, values: &[u32]) {
        self.put_usize(values.len());
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u64` sequence.
    pub fn put_u64_seq(&mut self, values: &[u64]) {
        self.put_usize(values.len());
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `f64` sequence.
    pub fn put_f64_seq(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Little-endian payload reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Corrupt(format!(
                "truncated payload: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> PersistResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn take_u32(&mut self) -> PersistResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn take_u64(&mut self) -> PersistResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a `usize` stored as a `u64`, rejecting values that do not fit.
    pub fn take_usize(&mut self) -> PersistResult<usize> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::Corrupt(format!("length {v} exceeds the address space")))
    }

    /// Read an `f64`.
    pub fn take_f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> PersistResult<&'a [u8]> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> PersistResult<String> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| PersistError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Read a length-prefixed `u16` sequence.
    pub fn take_u16_seq(&mut self) -> PersistResult<Vec<u16>> {
        let len = self.seq_len(2)?;
        (0..len)
            .map(|_| Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes"))))
            .collect()
    }

    /// Read a length-prefixed `u32` sequence.
    pub fn take_u32_seq(&mut self) -> PersistResult<Vec<u32>> {
        let len = self.seq_len(4)?;
        (0..len).map(|_| self.take_u32()).collect()
    }

    /// Read a length-prefixed `u64` sequence.
    pub fn take_u64_seq(&mut self) -> PersistResult<Vec<u64>> {
        let len = self.seq_len(8)?;
        (0..len).map(|_| self.take_u64()).collect()
    }

    /// Read a length-prefixed `f64` sequence.
    pub fn take_f64_seq(&mut self) -> PersistResult<Vec<f64>> {
        let len = self.seq_len(8)?;
        (0..len).map(|_| self.take_f64()).collect()
    }

    /// Require that every byte was consumed.
    pub fn expect_end(&self) -> PersistResult<()> {
        if self.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Validate a sequence length prefix against the bytes that remain, so a
    /// corrupted length cannot trigger a huge allocation.
    fn seq_len(&mut self, element_bytes: usize) -> PersistResult<usize> {
        let len = self.take_usize()?;
        if len.checked_mul(element_bytes).is_none_or(|total| total > self.remaining()) {
            return Err(PersistError::Corrupt(format!(
                "sequence of {len} × {element_bytes}-byte elements exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_every_type() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f64(-1.5);
        w.put_str("bregman");
        w.put_u16_seq(&[1, 2, 3]);
        w.put_u32_seq(&[9, 8]);
        w.put_u64_seq(&[5]);
        w.put_f64_seq(&[0.25, -0.5]);
        w.put_bytes(&[0xAA, 0xBB]);
        let bytes = w.into_vec();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_usize().unwrap(), 42);
        assert_eq!(r.take_f64().unwrap(), -1.5);
        assert_eq!(r.take_str().unwrap(), "bregman");
        assert_eq!(r.take_u16_seq().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take_u32_seq().unwrap(), vec![9, 8]);
        assert_eq!(r.take_u64_seq().unwrap(), vec![5]);
        assert_eq!(r.take_f64_seq().unwrap(), vec![0.25, -0.5]);
        assert_eq!(r.take_bytes().unwrap(), &[0xAA, 0xBB]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let bytes = vec![1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(r.take_u64().is_err());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 1);
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn oversized_sequence_length_is_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_f64_seq(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let magic = b"TESTMAG1";
        let payload = b"hello payload".to_vec();
        let sealed = seal(magic, 3, &payload);
        assert_eq!(unseal(magic, 3, &sealed).unwrap(), payload.as_slice());
    }

    #[test]
    fn unseal_rejects_wrong_magic_version_and_corruption() {
        let magic = b"TESTMAG1";
        let sealed = seal(magic, 1, b"payload");
        assert!(matches!(unseal(b"OTHERMAG", 1, &sealed), Err(PersistError::BadMagic { .. })));
        assert!(matches!(
            unseal(magic, 2, &sealed),
            Err(PersistError::UnsupportedVersion { found: 1, supported: 2 })
        ));
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(unseal(magic, 1, &flipped), Err(PersistError::ChecksumMismatch { .. })));
        let mut short = sealed;
        short.truncate(ENVELOPE_HEADER_BYTES + 2);
        assert!(matches!(unseal(magic, 1, &short), Err(PersistError::Corrupt(_))));
        assert!(matches!(unseal(magic, 1, &[1, 2, 3]), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn fnv_is_stable() {
        // Reference values of FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Reference XXH64 values at seed 0. The 39-byte input runs one
        // 32-byte stripe of the four-lane loop, then the 4-byte and 1-byte
        // tails; the shorter inputs take the small-input path.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }

    #[test]
    fn persist_error_display_is_informative() {
        let e = PersistError::BadMagic { expected: *b"BREPPGS1", found: *b"NOTMAGIC" };
        assert!(e.to_string().contains("BREPPGS1"));
        let e = PersistError::UnsupportedVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains('9'));
        let e = PersistError::ChecksumMismatch { expected: 1, found: 2 };
        assert!(e.to_string().contains("checksum"));
        let e: PersistError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(PersistError::Corrupt("x".into()).source().is_none());
    }
}
