//! Snapshot/restore and state digesting for crash-safe campaigns.
//!
//! Long experiment sweeps (the chaos campaign, the Figure 7 grids) die
//! with the process unless mid-run state can be captured and later
//! re-established *exactly*. This module supplies the two primitives the
//! rest of the workspace builds on:
//!
//! * [`SnapshotWriter`] / [`SnapshotReader`] — a tiny self-contained
//!   binary codec (no external dependencies): a 4-byte magic, a `u16`
//!   format version, tagged length-prefixed fields, and a trailing FNV
//!   checksum that is verified before a single field is decoded. A
//!   checkpoint with even one flipped bit is rejected, never silently
//!   loaded.
//! * [`digest_of`] — a component's 64-bit state digest, which *is* the
//!   checksum its sealed blob ends with. A [folding](SnapshotWriter::folding)
//!   writer computes it by hashing the blob in bounded chunks instead of
//!   keeping it. Two runs that agree on the digest agree on every byte
//!   of simulation state that matters, so digest mismatches turn
//!   *hidden* nondeterminism into a hard, immediate test failure instead
//!   of a subtly wrong table.
//!
//! Components implement [`Snapshot`]: `save_state` serializes the
//! *mutable* state only (configuration is re-established by the caller,
//! which rebuilds the component from its config before calling
//! `load_state`). There is one encoding: the digest is derived from
//! `save_state`, never written by hand beside it. Keeping configuration
//! out of the payload keeps the codec free of trait objects and makes
//! version skew a config-fingerprint problem rather than a
//! deserialization problem.
//!
//! [`StateDigest`] is the FNV-1a accumulator underneath. Its typed
//! `write_*` methods also fingerprint things that are not snapshots (a
//! trace header's topology), so their bytes are fixed too.
//!
//! # Examples
//!
//! ```
//! use twice_common::snapshot::{SnapshotReader, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new();
//! w.put_u64(42);
//! w.put_str("bank-7");
//! let bytes = w.finish();
//!
//! let mut r = SnapshotReader::new(&bytes).unwrap();
//! assert_eq!(r.take_u64().unwrap(), 42);
//! assert_eq!(r.take_str().unwrap(), "bank-7");
//!
//! // A flipped byte is caught by the trailing checksum.
//! let mut bad = bytes.clone();
//! bad[6] ^= 0x10;
//! assert!(SnapshotReader::new(&bad).is_err());
//! ```

/// Magic bytes opening every snapshot blob ("TWiCe Snapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TWCS";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// How state digests are computed: 1 was a hand-written fold beside each
/// `save_state`; 2 is [`digest_of`], the checksum of the snapshot blob.
/// Journals that store digests record it in their meta line, so a
/// journal whose digests were computed another way is refused on
/// resume instead of mixing two definitions.
pub const DIGEST_DEFINITION: u64 = 2;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 64-bit FNV-1a accumulator.
///
/// Snapshot blobs fold into it raw (see [`SnapshotWriter::folding`]).
/// The typed `write_*` methods serve fingerprints built by hand, such as
/// a trace header's topology: the write order is part of the contract,
/// and each write is framed by its width, so adjacent fields cannot
/// alias (`write_u32(1); write_u32(2)` differs from `write_u64` of the
/// packed pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest {
    hash: u64,
}

impl Default for StateDigest {
    fn default() -> StateDigest {
        StateDigest::new()
    }
}

impl StateDigest {
    /// Creates an accumulator at the FNV offset basis.
    pub const fn new() -> StateDigest {
        StateDigest { hash: FNV_OFFSET }
    }

    #[inline]
    fn step(&mut self, byte: u8) {
        self.hash ^= u64::from(byte);
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
    }

    /// Folds raw bytes, unframed: the checksum primitive.
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.step(b);
        }
    }

    /// Folds one byte. Every write folds a width tag first, so adjacent
    /// fields of different widths can never alias.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.step(1);
        self.step(v);
    }

    /// Folds a `u16` (little-endian).
    #[inline]
    pub fn write_u16(&mut self, v: u16) {
        self.step(2);
        for b in v.to_le_bytes() {
            self.step(b);
        }
    }

    /// Folds a `u32` (little-endian).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.step(4);
        for b in v.to_le_bytes() {
            self.step(b);
        }
    }

    /// Folds a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.step(8);
        for b in v.to_le_bytes() {
            self.step(b);
        }
    }

    /// Folds a byte slice, length-framed so concatenations cannot alias.
    #[inline]
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_u64(v.len() as u64);
        for &b in v {
            self.step(b);
        }
    }

    /// Folds a string (UTF-8 bytes, length-framed).
    #[inline]
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// The accumulated digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a over a byte slice (the codec's checksum primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = StateDigest::new();
    d.fold(bytes);
    d.finish()
}

/// Why a snapshot blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob is shorter than the fixed header + checksum.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes present.
        got: usize,
    },
    /// The blob does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The trailing checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A field's tag byte was not the expected type.
    WrongFieldType {
        /// Tag the reader expected.
        expected: u8,
        /// Tag actually present.
        found: u8,
    },
    /// A length-prefixed field claims more bytes than remain.
    FieldOverrun,
    /// A string field holds invalid UTF-8.
    BadUtf8,
    /// The payload disagrees with the component being restored
    /// (e.g. a per-bank vector of the wrong length).
    StateMismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {got}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::WrongFieldType { expected, found } => write!(
                f,
                "snapshot field type mismatch: expected tag {expected:#04x}, found {found:#04x}"
            ),
            SnapshotError::FieldOverrun => write!(f, "snapshot field overruns the payload"),
            SnapshotError::BadUtf8 => write!(f, "snapshot string field is not UTF-8"),
            SnapshotError::StateMismatch(why) => {
                write!(f, "snapshot does not fit this component: {why}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// Field tags. Fixed-width fields carry the tag then the LE payload;
// variable-width fields carry tag, u32 length, payload.
const TAG_U8: u8 = 0x01;
const TAG_U32: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_BOOL: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_STR: u8 = 0x07;

/// Bytes a [folding](SnapshotWriter::folding) writer buffers before it
/// hashes and drops them, so a digest never holds a whole blob.
const FOLD_CHUNK: usize = 4096;

/// Serializer for the snapshot codec.
///
/// Writes the versioned header on construction. A writer from
/// [`SnapshotWriter::new`] keeps the blob, and [`SnapshotWriter::finish`]
/// appends the trailing checksum and yields it. A writer from
/// [`SnapshotWriter::folding`] hashes the same bytes as they come and
/// keeps none of them; [`SnapshotWriter::into_digest`] yields the
/// checksum.
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// FNV-1a over the bytes already folded out of `buf`.
    sum: StateDigest,
    /// `buf` length at which its bytes are folded into `sum` and
    /// dropped; `usize::MAX` when the writer keeps the blob.
    fold_at: usize,
}

impl Default for SnapshotWriter {
    fn default() -> SnapshotWriter {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// Opens a blob: magic + version.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::open(64, StateDigest::new(), usize::MAX)
    }

    /// Opens a blob that is hashed, not kept: header and fields fold
    /// into `into`, a chunk at a time. From a fresh accumulator,
    /// [`SnapshotWriter::into_digest`] then yields the checksum that
    /// [`SnapshotWriter::finish`] would seal the same fields with.
    pub fn folding(into: StateDigest) -> SnapshotWriter {
        SnapshotWriter::open(FOLD_CHUNK + 64, into, FOLD_CHUNK)
    }

    fn open(capacity: usize, sum: StateDigest, fold_at: usize) -> SnapshotWriter {
        let mut buf = Vec::with_capacity(capacity);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        SnapshotWriter { buf, sum, fold_at }
    }

    /// Folds the buffered bytes once a folding writer holds a chunk.
    #[inline]
    fn spill(&mut self) {
        if self.buf.len() >= self.fold_at {
            self.sum.fold(&self.buf);
            self.buf.clear();
        }
    }

    /// Appends a `u8` field.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(TAG_U8);
        self.buf.push(v);
        self.spill();
    }

    /// Appends a `u32` field.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.push(TAG_U32);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    /// Appends a `u64` field.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.push(TAG_U64);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    /// Appends a `usize` field through `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean field.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(TAG_BOOL);
        self.buf.push(u8::from(v));
        self.spill();
    }

    /// Appends an `f64` field by bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.push(TAG_F64);
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self.spill();
    }

    /// Appends a length-prefixed byte-slice field (nested blobs ride here).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.push(TAG_BYTES);
        self.buf
            .extend_from_slice(&u32::try_from(v.len()).expect("field < 4 GiB").to_le_bytes());
        self.buf.extend_from_slice(v);
        self.spill();
    }

    /// Appends a length-prefixed string field.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.buf.push(TAG_STR);
        self.buf
            .extend_from_slice(&u32::try_from(v.len()).expect("field < 4 GiB").to_le_bytes());
        self.buf.extend_from_slice(v.as_bytes());
        self.spill();
    }

    /// Seals the blob: appends the FNV-1a checksum over everything written
    /// so far (header included) and returns the bytes.
    ///
    /// # Panics
    ///
    /// On a [folding](SnapshotWriter::folding) writer, which has no blob
    /// left to seal.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(self.fold_at, usize::MAX, "a folding writer keeps no blob");
        let sum = fnv1a(&self.buf);
        let mut buf = self.buf;
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// The accumulator after every byte written so far (header included)
    /// has been folded into it.
    pub fn into_digest(mut self) -> StateDigest {
        self.sum.fold(&self.buf);
        self.sum
    }
}

/// Deserializer for the snapshot codec.
///
/// Construction validates the magic, version, and trailing checksum;
/// decoding cannot begin on a corrupt blob.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the header and checksum of `bytes` and positions the
    /// cursor at the first field.
    pub fn new(bytes: &'a [u8]) -> Result<SnapshotReader<'a>, SnapshotError> {
        let header = SNAPSHOT_MAGIC.len() + 2;
        if bytes.len() < header + 8 {
            return Err(SnapshotError::Truncated {
                needed: header + 8,
                got: bytes.len(),
            });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[payload_end..].try_into().expect("8 bytes"));
        let computed = fnv1a(&bytes[..payload_end]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapshotReader {
            buf: bytes,
            pos: header,
            end: payload_end,
        })
    }

    /// Bytes of payload remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn need(&self, n: usize) -> Result<(), SnapshotError> {
        if self.remaining() < n {
            Err(SnapshotError::Truncated {
                needed: n,
                got: self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    fn tag(&mut self, expected: u8) -> Result<(), SnapshotError> {
        self.need(1)?;
        let found = self.buf[self.pos];
        if found != expected {
            return Err(SnapshotError::WrongFieldType { expected, found });
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads a `u8` field.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        self.tag(TAG_U8)?;
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Reads a `u32` field.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        self.tag(TAG_U32)?;
        self.need(4)?;
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("4"));
        self.pos += 4;
        Ok(v)
    }

    /// Reads a `u64` field.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        self.tag(TAG_U64)?;
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("8"));
        self.pos += 8;
        Ok(v)
    }

    /// Reads a `usize` field written with [`SnapshotWriter::put_usize`].
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::StateMismatch(format!("usize overflow: {v}")))
    }

    /// Reads a boolean field.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        self.tag(TAG_BOOL)?;
        self.need(1)?;
        let v = self.buf[self.pos] != 0;
        self.pos += 1;
        Ok(v)
    }

    /// Reads an `f64` field by bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        self.tag(TAG_F64)?;
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("8"));
        self.pos += 8;
        Ok(f64::from_bits(v))
    }

    /// Reads a length-prefixed byte-slice field.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        self.tag(TAG_BYTES)?;
        self.need(4)?;
        let len =
            u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("4")) as usize;
        self.pos += 4;
        if self.remaining() < len {
            return Err(SnapshotError::FieldOverrun);
        }
        let v = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(v)
    }

    /// Reads a length-prefixed string field.
    pub fn take_str(&mut self) -> Result<&'a str, SnapshotError> {
        self.tag(TAG_STR)?;
        self.need(4)?;
        let len =
            u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("4")) as usize;
        self.pos += 4;
        if self.remaining() < len {
            return Err(SnapshotError::FieldOverrun);
        }
        let v = std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .map_err(|_| SnapshotError::BadUtf8)?;
        self.pos += len;
        Ok(v)
    }
}

/// A component whose mutable state can be captured, re-established, and
/// digested.
///
/// The contract: for any component `c`,
///
/// ```text
/// let blob = snapshot_bytes(&c);
/// let mut fresh = /* rebuild from the same configuration */;
/// restore_from(&mut fresh, &blob)?;
/// assert_eq!(digest_of(&c), digest_of(&fresh));
/// assert_eq!(digest_of(&c).to_le_bytes(), blob[blob.len() - 8..]);
/// ```
///
/// `load_state` is called on an instance already constructed from the same
/// configuration as the saved one; only mutable run-time state travels in
/// the blob. Implementations must read fields in exactly the order
/// `save_state` wrote them, and write them canonically: the same state
/// always produces the same bytes, because those bytes are the digest.
pub trait Snapshot {
    /// Serializes the mutable state into `w`.
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Re-establishes the mutable state from `r`.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// One component's state as a sealed blob.
pub fn snapshot_bytes(c: &dyn Snapshot) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    c.save_state(&mut w);
    w.finish()
}

/// Restores one component from a sealed blob.
pub fn restore_from(c: &mut dyn Snapshot, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    c.load_state(&mut r)
}

/// One component's state digest: the checksum its sealed blob ends
/// with, computed without keeping the blob.
pub fn digest_of(c: &dyn Snapshot) -> u64 {
    let mut w = SnapshotWriter::folding(StateDigest::new());
    c.save_state(&mut w);
    w.into_digest().finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_field_type() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_bool(true);
        w.put_f64(0.001);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("twice");
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap(), 0.001);
        assert_eq!(r.take_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.take_str().unwrap(), "twice");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(42);
        w.put_str("payload");
        let bytes = w.finish();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                assert!(
                    SnapshotReader::new(&bad).is_err(),
                    "flip at byte {i} bit {bit:#04x} must be caught"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let bytes = w.finish();
        for n in 0..bytes.len() {
            assert!(SnapshotReader::new(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn wrong_field_type_is_reported() {
        let mut w = SnapshotWriter::new();
        w.put_u32(5);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(
            r.take_u64(),
            Err(SnapshotError::WrongFieldType { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        let mut bytes = w.finish();
        // Bump the version field and re-seal so only the version differs.
        bytes.truncate(bytes.len() - 8);
        bytes[4] = 0xFF;
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SnapshotReader::new(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn digest_frames_fields_by_width() {
        let mut a = StateDigest::new();
        a.write_u32(1);
        a.write_u32(0);
        let mut b = StateDigest::new();
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = StateDigest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StateDigest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    struct Counter {
        n: u64,
    }
    impl Snapshot for Counter {
        fn save_state(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.n);
        }
        fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            self.n = r.take_u64()?;
            Ok(())
        }
    }

    #[test]
    fn snapshot_contract_round_trip() {
        let c = Counter { n: 99 };
        let blob = snapshot_bytes(&c);
        let mut fresh = Counter { n: 0 };
        restore_from(&mut fresh, &blob).unwrap();
        assert_eq!(digest_of(&c), digest_of(&fresh));
        assert_eq!(digest_of(&c).to_le_bytes(), blob[blob.len() - 8..]);
        assert_eq!(fresh.n, 99);
    }

    #[test]
    fn folding_matches_the_sealed_checksum_in_bounded_memory() {
        // Several chunks of small fields, then one field larger than a
        // chunk, so every fold boundary is crossed.
        let fill = |w: &mut SnapshotWriter| {
            for i in 0..FOLD_CHUNK as u64 {
                w.put_u64(i);
                w.put_bool(i % 3 == 0);
            }
            w.put_bytes(&[7; 3 * FOLD_CHUNK]);
            w.put_str("tail");
        };
        let mut kept = SnapshotWriter::new();
        fill(&mut kept);
        let blob = kept.finish();
        let mut folded = SnapshotWriter::folding(StateDigest::new());
        fill(&mut folded);
        assert!(
            folded.buf.len() < FOLD_CHUNK,
            "a folding writer keeps a chunk at most"
        );
        assert_eq!(
            folded.into_digest().finish().to_le_bytes(),
            blob[blob.len() - 8..]
        );
    }

    #[test]
    #[should_panic(expected = "a folding writer keeps no blob")]
    fn a_folding_writer_cannot_seal() {
        SnapshotWriter::folding(StateDigest::new()).finish();
    }
}
