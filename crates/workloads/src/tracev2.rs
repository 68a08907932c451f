//! `twice-trace v2`: a corruption-tolerant binary trace format.
//!
//! It replaced the v1 text format (one `kind addr source` line per
//! access), which was human-readable but fragile: no checksums, no
//! version enforcement, ~16 bytes per access. v2 keeps the same logical
//! record — `(kind, address, source, arrival)` plus the decoded DRAM
//! coordinate — but encodes it as delta/varint records grouped into
//! CRC-32-sealed frames behind a header that binds the format version
//! and a topology/addrmap digest.
//!
//! # Layout
//!
//! ```text
//! file   := header frame*
//! header := magic "TWT2" (4) | version u16 LE | reserved u16 LE
//!         | topology digest u64 LE | crc32(header[0..16]) u32 LE
//! frame  := resync [F5 1C A7 E2] (4) | payload_len u32 LE
//!         | record_count u32 LE | payload | crc32(len‖count‖payload)
//! ```
//!
//! Each frame's delta context starts from zero, so frames decode
//! independently: losing one frame cannot corrupt its neighbours, and a
//! reader that lands mid-file can resynchronize on the next marker.
//!
//! # Records
//!
//! One flags byte, then only the fields that changed:
//!
//! | bit | meaning                 | payload when set                |
//! |-----|-------------------------|---------------------------------|
//! | 0   | kind is Write           | —                               |
//! | 1   | bank changed            | varint flat bank id             |
//! | 2   | row changed             | zigzag row delta (per bank)     |
//! | 3   | column changed          | zigzag column delta (per bank)  |
//! | 4   | source changed          | varint source                   |
//! | 5   | arrival changed         | zigzag picosecond delta         |
//! | 6   | non-canonical address   | varint `addr - encode(coords)`  |
//! | 7   | reserved                | must be zero                    |
//!
//! The physical address is re-derived through the row-interleaved
//! mapper, with bit 6 carrying any residue (line offsets, beyond-
//! topology bits) so the round trip is byte-exact even for raw
//! generator addresses.
//!
//! # Salvage
//!
//! [`decode_salvage`] never panics and never gives up on the whole file
//! because one frame is bad: a torn or bit-rotted frame is quarantined,
//! the scanner skips to the next resync marker, and the caller gets a
//! [`SalvageSummary`] (frames kept, corrupt regions, bytes quarantined,
//! capped typed errors). Header-level damage is unrecoverable by design
//! — without a trusted topology digest, replaying the payload would be
//! guessing.

use crate::trace::TraceItem;
use std::fmt;
use twice_common::crc32::crc32;
use twice_common::snapshot::StateDigest;
use twice_common::{ChannelId, ColId, RankId, RowId, Time, Topology};
use twice_memctrl::addrmap::{AddressMapper, DecodedAccess};
use twice_memctrl::request::{AccessKind, MemRequest};

/// File magic: the first four bytes of every v2 trace.
pub const MAGIC: [u8; 4] = *b"TWT2";
/// Format version stored in (and enforced from) the header.
pub const VERSION: u16 = 2;
/// Frame resync marker; chosen to be unlikely in varint payloads.
pub const RESYNC: [u8; 4] = [0xF5, 0x1C, 0xA7, 0xE2];
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Upper bound on a frame's payload, enforced before allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;
/// Default records per frame.
pub const DEFAULT_FRAME_RECORDS: u32 = 4096;
/// At most this many typed frame errors are retained in a summary.
pub const MAX_REPORTED_ERRORS: usize = 16;

const FLAG_WRITE: u8 = 1 << 0;
const FLAG_BANK: u8 = 1 << 1;
const FLAG_ROW: u8 = 1 << 2;
const FLAG_COL: u8 = 1 << 3;
const FLAG_SOURCE: u8 = 1 << 4;
const FLAG_ARRIVAL: u8 = 1 << 5;
const FLAG_EXTRA: u8 = 1 << 6;
const FLAG_RESERVED: u8 = 1 << 7;

/// Digest binding a trace to its topology and address-mapping scheme.
///
/// Folded over every [`Topology`] field plus the mapper scheme tag, so
/// a trace recorded against one geometry refuses to replay against
/// another (same failure mode as loading a foreign checkpoint).
pub fn topology_digest(topo: &Topology) -> u64 {
    let mut d = StateDigest::new();
    d.write_bytes(b"twice-trace-topology");
    d.write_u8(topo.channels);
    d.write_u8(topo.ranks_per_channel);
    d.write_u16(topo.banks_per_rank);
    d.write_u32(topo.rows_per_bank);
    d.write_u16(topo.cols_per_row);
    d.write_u32(topo.row_bytes);
    d.write_u8(topo.devices_per_rank);
    d.write_bytes(b"row-interleaved");
    d.finish()
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Unrecoverable damage to the fixed file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceHeaderError {
    /// The file is shorter than the fixed header.
    TooShort {
        /// Bytes a header needs.
        needed: usize,
        /// Bytes present.
        got: usize,
    },
    /// The magic bytes are not `TWT2`.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The header names a version this reader does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The header checksum does not match its contents.
    CrcMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the header bytes.
        computed: u32,
    },
    /// The trace was recorded against a different topology/addrmap.
    TopologyMismatch {
        /// Digest of the topology the reader is configured for.
        expected: u64,
        /// Digest stored in the trace.
        found: u64,
    },
}

impl fmt::Display for TraceHeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceHeaderError::TooShort { needed, got } => {
                write!(f, "trace header truncated: need {needed} bytes, got {got}")
            }
            TraceHeaderError::BadMagic { found } => {
                write!(f, "not a twice-trace v2 file (magic {found:02x?})")
            }
            TraceHeaderError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found} (reader speaks {VERSION})")
            }
            TraceHeaderError::CrcMismatch { stored, computed } => write!(
                f,
                "trace header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceHeaderError::TopologyMismatch { expected, found } => write!(
                f,
                "trace topology digest {found:#018x} does not match configured topology {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for TraceHeaderError {}

/// A malformed record inside an otherwise checksum-valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The payload ended mid-record.
    Truncated {
        /// 0-based record index within the frame.
        record: u32,
    },
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverlong {
        /// 0-based record index within the frame.
        record: u32,
    },
    /// The reserved flag bit was set.
    ReservedFlags {
        /// 0-based record index within the frame.
        record: u32,
        /// The offending flags byte.
        flags: u8,
    },
    /// A flat bank id outside the topology.
    BankOutOfRange {
        /// 0-based record index within the frame.
        record: u32,
        /// The decoded bank id.
        bank: u64,
    },
    /// A row delta that lands outside the topology.
    RowOutOfRange {
        /// 0-based record index within the frame.
        record: u32,
        /// The computed row.
        row: i64,
    },
    /// A column delta that lands outside the topology.
    ColOutOfRange {
        /// 0-based record index within the frame.
        record: u32,
        /// The computed column.
        col: i64,
    },
    /// A source id that does not fit in `u16`.
    SourceOutOfRange {
        /// 0-based record index within the frame.
        record: u32,
        /// The decoded source.
        source: u64,
    },
    /// Bytes left in the payload after the declared record count.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { record } => write!(f, "record {record}: payload truncated"),
            RecordError::VarintOverlong { record } => write!(f, "record {record}: overlong varint"),
            RecordError::ReservedFlags { record, flags } => {
                write!(f, "record {record}: reserved flag bits set ({flags:#04x})")
            }
            RecordError::BankOutOfRange { record, bank } => {
                write!(f, "record {record}: bank {bank} out of range")
            }
            RecordError::RowOutOfRange { record, row } => {
                write!(f, "record {record}: row {row} out of range")
            }
            RecordError::ColOutOfRange { record, col } => {
                write!(f, "record {record}: column {col} out of range")
            }
            RecordError::SourceOutOfRange { record, source } => {
                write!(f, "record {record}: source {source} exceeds u16")
            }
            RecordError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after last record")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Why one frame (or stretch of bytes) was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file ended inside the frame.
    Truncated {
        /// Byte offset of the frame's resync marker.
        offset: u64,
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    PayloadTooLarge {
        /// Byte offset of the frame's resync marker.
        offset: u64,
        /// The declared length.
        len: u32,
    },
    /// The frame checksum does not match its contents.
    CrcMismatch {
        /// Byte offset of the frame's resync marker.
        offset: u64,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the frame bytes.
        computed: u32,
    },
    /// The checksum held but a record inside was malformed (hostile or
    /// colliding payload).
    Record {
        /// Byte offset of the frame's resync marker.
        offset: u64,
        /// The record-level error.
        source: RecordError,
    },
    /// Bytes with no parseable frame (flipped markers, torn tails).
    SkippedGarbage {
        /// Byte offset where the garbage started.
        offset: u64,
    },
}

impl FrameError {
    /// Byte offset (from file start) where the problem was seen.
    pub fn offset(&self) -> u64 {
        match self {
            FrameError::Truncated { offset, .. }
            | FrameError::PayloadTooLarge { offset, .. }
            | FrameError::CrcMismatch { offset, .. }
            | FrameError::Record { offset, .. }
            | FrameError::SkippedGarbage { offset } => *offset,
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated {
                offset,
                needed,
                got,
            } => write!(
                f,
                "frame at byte {offset}: truncated (need {needed} bytes, got {got})"
            ),
            FrameError::PayloadTooLarge { offset, len } => write!(
                f,
                "frame at byte {offset}: payload length {len} exceeds {MAX_FRAME_PAYLOAD}"
            ),
            FrameError::CrcMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "frame at byte {offset}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            FrameError::Record { offset, source } => {
                write!(f, "frame at byte {offset}: {source}")
            }
            FrameError::SkippedGarbage { offset } => {
                write!(f, "unparseable bytes starting at byte {offset}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Any strict-decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceV2Error {
    /// The fixed header was unusable.
    Header(TraceHeaderError),
    /// A frame failed to decode.
    Frame(FrameError),
}

impl fmt::Display for TraceV2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceV2Error::Header(e) => write!(f, "{e}"),
            TraceV2Error::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceV2Error {}

impl From<TraceHeaderError> for TraceV2Error {
    fn from(e: TraceHeaderError) -> TraceV2Error {
        TraceV2Error::Header(e)
    }
}

// ---------------------------------------------------------------------
// Delta context and bit plumbing
// ---------------------------------------------------------------------

/// Flat-bank geometry shared by encoder and decoder.
#[derive(Debug, Clone)]
struct Shape {
    mapper: AddressMapper,
    ranks: u64,
    banks_per_rank: u64,
    rows: u64,
    cols: u64,
    total_banks: u64,
}

impl Shape {
    fn new(topo: &Topology) -> Shape {
        Shape {
            mapper: AddressMapper::row_interleaved(topo),
            ranks: u64::from(topo.ranks_per_channel),
            banks_per_rank: u64::from(topo.banks_per_rank),
            rows: u64::from(topo.rows_per_bank),
            cols: u64::from(topo.row_bytes) / 64,
            total_banks: u64::from(topo.channels)
                * u64::from(topo.ranks_per_channel)
                * u64::from(topo.banks_per_rank),
        }
    }

    fn flat_bank(&self, a: &DecodedAccess) -> u64 {
        (u64::from(a.channel.0) * self.ranks + u64::from(a.rank.0)) * self.banks_per_rank
            + u64::from(a.bank)
    }

    fn split_bank(&self, flat: u64) -> (ChannelId, RankId, u16) {
        let bank = flat % self.banks_per_rank;
        let rest = flat / self.banks_per_rank;
        let rank = rest % self.ranks;
        let channel = rest / self.ranks;
        (ChannelId(channel as u8), RankId(rank as u8), bank as u16)
    }
}

/// Per-frame prediction state; reset at every frame boundary so frames
/// decode independently.
#[derive(Debug, Clone)]
struct DeltaCtx {
    bank: u64,
    rows: Vec<u32>,
    cols: Vec<u16>,
    source: u16,
    arrival_ps: u64,
}

impl DeltaCtx {
    fn new(total_banks: u64) -> DeltaCtx {
        DeltaCtx {
            bank: 0,
            rows: vec![0; total_banks as usize],
            cols: vec![0; total_banks as usize],
            source: 0,
            arrival_ps: 0,
        }
    }

    fn reset(&mut self) {
        self.bank = 0;
        self.rows.iter_mut().for_each(|r| *r = 0);
        self.cols.iter_mut().for_each(|c| *c = 0);
        self.source = 0;
        self.arrival_ps = 0;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

struct Cur<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl Cur<'_> {
    fn take_u8(&mut self, record: u32) -> Result<u8, RecordError> {
        let b = *self
            .payload
            .get(self.pos)
            .ok_or(RecordError::Truncated { record })?;
        self.pos += 1;
        Ok(b)
    }

    fn take_varint(&mut self, record: u32) -> Result<u64, RecordError> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.take_u8(record)?;
            let payload = u64::from(b & 0x7F);
            if i == 9 && (payload > 1 || b & 0x80 != 0) {
                return Err(RecordError::VarintOverlong { record });
            }
            v |= payload << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(RecordError::VarintOverlong { record })
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streaming encoder for a v2 trace.
///
/// ```
/// use twice_workloads::synth::S1Random;
/// use twice_workloads::trace::AccessSource;
/// use twice_workloads::tracev2::{decode_strict, TraceV2Writer};
/// use twice_common::Topology;
///
/// let topo = Topology::paper_default();
/// let items: Vec<_> = S1Random::new(&topo, 1).take_requests(100).collect();
/// let mut w = TraceV2Writer::new(&topo);
/// for item in &items {
///     w.push(item);
/// }
/// let bytes = w.finish();
/// assert_eq!(decode_strict(&bytes, &topo).unwrap(), items);
/// ```
#[derive(Debug)]
pub struct TraceV2Writer {
    shape: Shape,
    out: Vec<u8>,
    frame: Vec<u8>,
    ctx: DeltaCtx,
    in_frame: u32,
    frame_records: u32,
    records: u64,
    frames: u64,
}

impl TraceV2Writer {
    /// A writer for `topo` with [`DEFAULT_FRAME_RECORDS`] per frame.
    pub fn new(topo: &Topology) -> TraceV2Writer {
        TraceV2Writer::with_frame_records(topo, DEFAULT_FRAME_RECORDS)
    }

    /// A writer sealing a frame every `frame_records` records.
    ///
    /// # Panics
    ///
    /// Panics if `frame_records` is zero.
    pub fn with_frame_records(topo: &Topology, frame_records: u32) -> TraceV2Writer {
        assert!(frame_records > 0, "frames must hold at least one record");
        let shape = Shape::new(topo);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&topology_digest(topo).to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        let ctx = DeltaCtx::new(shape.total_banks);
        TraceV2Writer {
            shape,
            out,
            frame: Vec::new(),
            ctx,
            in_frame: 0,
            frame_records,
            records: 0,
            frames: 0,
        }
    }

    /// Appends one access.
    pub fn push(&mut self, item: &TraceItem) {
        let (req, access) = item;
        let flat = self.shape.flat_bank(access);
        debug_assert!(flat < self.shape.total_banks, "access outside topology");
        let row = access.row.0;
        let col = access.col.0;
        let arrival_ps = req.arrival.as_ps();
        let canonical = self.shape.mapper.encode(
            access.channel,
            access.rank,
            access.bank,
            access.row,
            access.col,
        );
        let extra = req.addr.wrapping_sub(canonical);

        let mut flags = 0u8;
        if req.kind == AccessKind::Write {
            flags |= FLAG_WRITE;
        }
        let bank_changed = flat != self.ctx.bank;
        let last_row = self.ctx.rows[flat as usize];
        let last_col = self.ctx.cols[flat as usize];
        if bank_changed {
            flags |= FLAG_BANK;
        }
        if row != last_row {
            flags |= FLAG_ROW;
        }
        if col != last_col {
            flags |= FLAG_COL;
        }
        if req.source != self.ctx.source {
            flags |= FLAG_SOURCE;
        }
        if arrival_ps != self.ctx.arrival_ps {
            flags |= FLAG_ARRIVAL;
        }
        if extra != 0 {
            flags |= FLAG_EXTRA;
        }

        self.frame.push(flags);
        if flags & FLAG_BANK != 0 {
            put_varint(&mut self.frame, flat);
        }
        if flags & FLAG_ROW != 0 {
            put_varint(
                &mut self.frame,
                zigzag(i64::from(row) - i64::from(last_row)),
            );
        }
        if flags & FLAG_COL != 0 {
            put_varint(
                &mut self.frame,
                zigzag(i64::from(col) - i64::from(last_col)),
            );
        }
        if flags & FLAG_SOURCE != 0 {
            put_varint(&mut self.frame, u64::from(req.source));
        }
        if flags & FLAG_ARRIVAL != 0 {
            let delta = arrival_ps.wrapping_sub(self.ctx.arrival_ps) as i64;
            put_varint(&mut self.frame, zigzag(delta));
        }
        if flags & FLAG_EXTRA != 0 {
            put_varint(&mut self.frame, extra);
        }

        self.ctx.bank = flat;
        self.ctx.rows[flat as usize] = row;
        self.ctx.cols[flat as usize] = col;
        self.ctx.source = req.source;
        self.ctx.arrival_ps = arrival_ps;
        self.records += 1;
        self.in_frame += 1;
        if self.in_frame == self.frame_records {
            self.seal_frame();
        }
    }

    fn seal_frame(&mut self) {
        if self.in_frame == 0 {
            return;
        }
        let len = self.frame.len() as u32;
        debug_assert!(len <= MAX_FRAME_PAYLOAD, "frame payload overflow");
        self.out.extend_from_slice(&RESYNC);
        let body_start = self.out.len();
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(&self.in_frame.to_le_bytes());
        self.out.extend_from_slice(&self.frame);
        let crc = crc32(&self.out[body_start..]);
        self.out.extend_from_slice(&crc.to_le_bytes());
        self.frame.clear();
        self.ctx.reset();
        self.in_frame = 0;
        self.frames += 1;
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Seals any pending frame and returns the complete file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.seal_frame();
        self.out
    }
}

/// Encodes `items` into a complete v2 trace; returns the bytes and the
/// record count.
pub fn encode_trace(topo: &Topology, items: impl IntoIterator<Item = TraceItem>) -> (Vec<u8>, u64) {
    let mut w = TraceV2Writer::new(topo);
    for item in items {
        w.push(&item);
    }
    let n = w.records();
    (w.finish(), n)
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

fn check_header(bytes: &[u8], topo: &Topology) -> Result<(), TraceHeaderError> {
    if bytes.len() < HEADER_LEN {
        return Err(TraceHeaderError::TooShort {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let stored = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..16]);
    if bytes[0..4] != MAGIC {
        return Err(TraceHeaderError::BadMagic {
            found: bytes[0..4].try_into().expect("4 bytes"),
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if stored != computed {
        return Err(TraceHeaderError::CrcMismatch { stored, computed });
    }
    if version != VERSION {
        return Err(TraceHeaderError::UnsupportedVersion { found: version });
    }
    let found = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let expected = topology_digest(topo);
    if found != expected {
        return Err(TraceHeaderError::TopologyMismatch { expected, found });
    }
    Ok(())
}

fn decode_payload(
    payload: &[u8],
    count: u32,
    shape: &Shape,
    ctx: &mut DeltaCtx,
    items: &mut Vec<TraceItem>,
) -> Result<(), RecordError> {
    ctx.reset();
    let mut cur = Cur { payload, pos: 0 };
    for record in 0..count {
        let flags = cur.take_u8(record)?;
        if flags & FLAG_RESERVED != 0 {
            return Err(RecordError::ReservedFlags { record, flags });
        }
        let flat = if flags & FLAG_BANK != 0 {
            cur.take_varint(record)?
        } else {
            ctx.bank
        };
        if flat >= shape.total_banks {
            return Err(RecordError::BankOutOfRange { record, bank: flat });
        }
        let row = if flags & FLAG_ROW != 0 {
            let delta = unzigzag(cur.take_varint(record)?);
            // Saturating: a hostile delta near i64::MAX must land in the
            // out-of-range arm, not overflow the add.
            let row = i64::from(ctx.rows[flat as usize]).saturating_add(delta);
            if row < 0 || row >= shape.rows as i64 {
                return Err(RecordError::RowOutOfRange { record, row });
            }
            row as u32
        } else {
            ctx.rows[flat as usize]
        };
        let col = if flags & FLAG_COL != 0 {
            let delta = unzigzag(cur.take_varint(record)?);
            let col = i64::from(ctx.cols[flat as usize]).saturating_add(delta);
            if col < 0 || col >= shape.cols as i64 {
                return Err(RecordError::ColOutOfRange { record, col });
            }
            col as u16
        } else {
            ctx.cols[flat as usize]
        };
        let source = if flags & FLAG_SOURCE != 0 {
            let s = cur.take_varint(record)?;
            if s > u64::from(u16::MAX) {
                return Err(RecordError::SourceOutOfRange { record, source: s });
            }
            s as u16
        } else {
            ctx.source
        };
        let arrival_ps = if flags & FLAG_ARRIVAL != 0 {
            let delta = unzigzag(cur.take_varint(record)?);
            ctx.arrival_ps.wrapping_add(delta as u64)
        } else {
            ctx.arrival_ps
        };
        let extra = if flags & FLAG_EXTRA != 0 {
            cur.take_varint(record)?
        } else {
            0
        };

        let (channel, rank, bank) = shape.split_bank(flat);
        let access = DecodedAccess {
            channel,
            rank,
            bank,
            row: RowId(row),
            col: ColId(col),
        };
        let canonical = shape
            .mapper
            .encode(channel, rank, bank, access.row, access.col);
        let addr = canonical.wrapping_add(extra);
        let arrival = Time::from_ps(arrival_ps);
        let req = if flags & FLAG_WRITE != 0 {
            MemRequest::write(addr, source, arrival)
        } else {
            MemRequest::read(addr, source, arrival)
        };
        items.push((req, access));

        ctx.bank = flat;
        ctx.rows[flat as usize] = row;
        ctx.cols[flat as usize] = col;
        ctx.source = source;
        ctx.arrival_ps = arrival_ps;
    }
    if cur.pos != payload.len() {
        return Err(RecordError::TrailingBytes {
            extra: payload.len() - cur.pos,
        });
    }
    Ok(())
}

/// Parses the frame whose resync marker sits at `offset`; on success
/// returns the records decoded and the bytes consumed (marker included).
fn parse_frame(
    bytes: &[u8],
    offset: usize,
    shape: &Shape,
    ctx: &mut DeltaCtx,
    items: &mut Vec<TraceItem>,
) -> Result<(u32, usize), FrameError> {
    debug_assert_eq!(&bytes[offset..offset + 4], &RESYNC);
    let at = offset as u64;
    let body = offset + 4;
    if bytes.len() < body + 8 {
        return Err(FrameError::Truncated {
            offset: at,
            needed: body + 8 - offset,
            got: bytes.len() - offset,
        });
    }
    let len = u32::from_le_bytes(bytes[body..body + 4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::PayloadTooLarge { offset: at, len });
    }
    let count = u32::from_le_bytes(bytes[body + 4..body + 8].try_into().expect("4 bytes"));
    let total = 4 + 8 + len as usize + 4;
    if bytes.len() < offset + total {
        return Err(FrameError::Truncated {
            offset: at,
            needed: total,
            got: bytes.len() - offset,
        });
    }
    let payload = &bytes[body + 8..body + 8 + len as usize];
    let stored = u32::from_le_bytes(
        bytes[body + 8 + len as usize..body + 8 + len as usize + 4]
            .try_into()
            .expect("4 bytes"),
    );
    let computed = crc32(&bytes[body..body + 8 + len as usize]);
    if stored != computed {
        return Err(FrameError::CrcMismatch {
            offset: at,
            stored,
            computed,
        });
    }
    let before = items.len();
    decode_payload(payload, count, shape, ctx, items).map_err(|source| {
        items.truncate(before);
        FrameError::Record { offset: at, source }
    })?;
    Ok((count, total))
}

fn find_resync(bytes: &[u8], from: usize) -> Option<usize> {
    if bytes.len() < 4 {
        return None;
    }
    (from..=bytes.len().saturating_sub(4)).find(|&i| bytes[i..i + 4] == RESYNC)
}

/// What a salvage pass kept and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Frames that decoded cleanly.
    pub frames_kept: u64,
    /// Contiguous corrupt regions skipped (each region is one or more
    /// damaged frames and/or stretches of unparseable bytes).
    pub frames_dropped: u64,
    /// Records recovered.
    pub records: u64,
    /// Bytes past the header that contributed no records.
    pub bytes_quarantined: u64,
    /// The first [`MAX_REPORTED_ERRORS`] typed frame errors.
    pub errors: Vec<FrameError>,
    /// Whether errors beyond the cap were discarded.
    pub errors_truncated: bool,
}

impl SalvageSummary {
    /// True if anything at all was quarantined.
    pub fn is_degraded(&self) -> bool {
        self.frames_dropped > 0 || self.bytes_quarantined > 0
    }
}

/// Overall verdict for a decoded trace, mapping onto the CLI exit-code
/// contract (0 clean / 4 salvaged / 2 unusable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceHealth {
    /// Every byte decoded.
    Clean,
    /// Some frames were quarantined but records were recovered.
    Salvaged,
    /// Nothing usable was recovered.
    Unusable,
}

/// The result of a corruption-tolerant decode.
#[derive(Debug, Clone)]
pub struct SalvagedTrace {
    /// Recovered accesses, in recorded order (dropped frames excised).
    pub items: Vec<TraceItem>,
    /// What was kept, dropped, and why.
    pub summary: SalvageSummary,
}

impl SalvagedTrace {
    /// Classifies the decode for the 0/4/2 exit-code ladder.
    pub fn health(&self) -> TraceHealth {
        if !self.summary.is_degraded() {
            TraceHealth::Clean
        } else if self.summary.records > 0 {
            TraceHealth::Salvaged
        } else {
            TraceHealth::Unusable
        }
    }
}

/// Decodes a v2 trace, salvaging around corrupt frames.
///
/// Never panics on arbitrary input. Frame-level damage is skipped via
/// resync-marker scanning and reported in the summary; only header
/// damage (no trusted version/topology binding) is a hard error.
///
/// # Errors
///
/// [`TraceHeaderError`] if the fixed header is missing, corrupt, the
/// wrong version, or bound to a different topology.
pub fn decode_salvage(bytes: &[u8], topo: &Topology) -> Result<SalvagedTrace, TraceHeaderError> {
    check_header(bytes, topo)?;
    let shape = Shape::new(topo);
    let mut ctx = DeltaCtx::new(shape.total_banks);
    let mut items = Vec::new();
    let mut summary = SalvageSummary::default();
    let mut kept_bytes = 0usize;
    let mut in_bad_region = false;
    let mut pos = HEADER_LEN;

    let note = |summary: &mut SalvageSummary, in_bad: &mut bool, err: FrameError| {
        if !*in_bad {
            summary.frames_dropped += 1;
            *in_bad = true;
        }
        if summary.errors.len() < MAX_REPORTED_ERRORS {
            summary.errors.push(err);
        } else {
            summary.errors_truncated = true;
        }
    };

    while pos < bytes.len() {
        let marker = match find_resync(bytes, pos) {
            Some(m) => m,
            None => {
                note(
                    &mut summary,
                    &mut in_bad_region,
                    FrameError::SkippedGarbage { offset: pos as u64 },
                );
                break;
            }
        };
        if marker > pos && !in_bad_region {
            note(
                &mut summary,
                &mut in_bad_region,
                FrameError::SkippedGarbage { offset: pos as u64 },
            );
        }
        match parse_frame(bytes, marker, &shape, &mut ctx, &mut items) {
            Ok((count, consumed)) => {
                in_bad_region = false;
                summary.frames_kept += 1;
                summary.records += u64::from(count);
                kept_bytes += consumed;
                pos = marker + consumed;
            }
            Err(err) => {
                note(&mut summary, &mut in_bad_region, err);
                pos = marker + 1;
            }
        }
    }
    summary.bytes_quarantined = (bytes.len() - HEADER_LEN - kept_bytes) as u64;
    Ok(SalvagedTrace { items, summary })
}

/// Decodes a v2 trace, failing on the first irregularity.
///
/// # Errors
///
/// [`TraceV2Error`] for header damage or any frame/record defect.
pub fn decode_strict(bytes: &[u8], topo: &Topology) -> Result<Vec<TraceItem>, TraceV2Error> {
    check_header(bytes, topo)?;
    let shape = Shape::new(topo);
    let mut ctx = DeltaCtx::new(shape.total_banks);
    let mut items = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        if bytes.len() < pos + 4 || bytes[pos..pos + 4] != RESYNC {
            return Err(TraceV2Error::Frame(FrameError::SkippedGarbage {
                offset: pos as u64,
            }));
        }
        let (_, consumed) =
            parse_frame(bytes, pos, &shape, &mut ctx, &mut items).map_err(TraceV2Error::Frame)?;
        pos += consumed;
    }
    Ok(items)
}

/// The exact byte length `item` would occupy in the retired v1 text
/// format (`kind {:#010x} source\n`): the yardstick `trace stat` and
/// the v2 compression floor measure against.
pub fn v1_encoded_len(item: &TraceItem) -> u64 {
    let addr = item.0.addr;
    let hex_digits = if addr == 0 {
        1
    } else {
        (64 - u64::from(addr.leading_zeros())).div_ceil(4)
    };
    let addr_len = (2 + hex_digits).max(10);
    let mut source_len = 1u64;
    let mut s = item.0.source / 10;
    while s > 0 {
        source_len += 1;
        s /= 10;
    }
    2 + addr_len + 1 + source_len + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mix_blend;
    use crate::synth::{S1Random, S3SingleRowHammer};
    use crate::trace::AccessSource;

    fn small_topo() -> Topology {
        let mut t = Topology::paper_default();
        t.channels = 1;
        t.ranks_per_channel = 1;
        t.banks_per_rank = 4;
        t.rows_per_bank = 1024;
        t
    }

    fn specimen(n: u64, per_frame: u32) -> (Topology, Vec<TraceItem>, Vec<u8>) {
        let topo = small_topo();
        let items: Vec<TraceItem> = S1Random::new(&topo, 11).take_requests(n).collect();
        let mut w = TraceV2Writer::with_frame_records(&topo, per_frame);
        for item in &items {
            w.push(item);
        }
        (topo, items, w.finish())
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let (topo, items, bytes) = specimen(300, 64);
        assert_eq!(decode_strict(&bytes, &topo).unwrap(), items);
        let salvaged = decode_salvage(&bytes, &topo).unwrap();
        assert_eq!(salvaged.items, items);
        assert_eq!(salvaged.health(), TraceHealth::Clean);
        assert_eq!(salvaged.summary.frames_kept, 5);
        assert_eq!(salvaged.summary.records, 300);
        assert_eq!(salvaged.summary.bytes_quarantined, 0);
    }

    #[test]
    fn round_trip_preserves_arrivals_and_raw_addresses() {
        let topo = small_topo();
        let mapper = AddressMapper::row_interleaved(&topo);
        // Raw, non-canonical addresses (line offsets, beyond-topology
        // bits) and non-zero arrivals, as item_from_addr-style sources
        // produce.
        let mut items = Vec::new();
        for i in 0..50u64 {
            let addr = i * 517 + 3; // unaligned on purpose
            let access = mapper.decode(addr);
            let req = MemRequest::write(addr, (i % 7) as u16, Time::from_ps(i * 1250));
            items.push((req, access));
        }
        let (bytes, n) = encode_trace(&topo, items.clone());
        assert_eq!(n, 50);
        let decoded = decode_strict(&bytes, &topo).unwrap();
        assert_eq!(decoded, items);
    }

    #[test]
    fn mixed_workload_round_trips() {
        let topo = Topology::paper_default();
        let items: Vec<TraceItem> = mix_blend(&topo, 5).take_requests(2000).collect();
        let (bytes, _) = encode_trace(&topo, items.clone());
        assert_eq!(decode_strict(&bytes, &topo).unwrap(), items);
    }

    #[test]
    fn dropping_one_frame_keeps_all_others() {
        let (topo, items, bytes) = specimen(256, 64); // 4 exact frames
                                                      // Corrupt one payload byte in the middle of frame 2.
        let second = find_resync(&bytes, HEADER_LEN + 4).unwrap();
        let mut bad = bytes.clone();
        bad[second + 20] ^= 0xFF;
        let salvaged = decode_salvage(&bad, &topo).unwrap();
        assert_eq!(salvaged.health(), TraceHealth::Salvaged);
        assert_eq!(salvaged.summary.frames_kept, 3);
        assert_eq!(salvaged.summary.frames_dropped, 1);
        assert!(salvaged.summary.bytes_quarantined > 0);
        let mut expected = items;
        expected.drain(64..128);
        assert_eq!(salvaged.items, expected);
        assert!(matches!(
            salvaged.summary.errors[0],
            FrameError::CrcMismatch { .. }
        ));
    }

    #[test]
    fn locality_workload_compresses_hard() {
        let topo = Topology::paper_default();
        let items: Vec<TraceItem> = S3SingleRowHammer::new(&topo, 3)
            .take_requests(4096)
            .collect();
        let v1: u64 = items.iter().map(v1_encoded_len).sum();
        let (bytes, _) = encode_trace(&topo, items);
        assert!(
            (bytes.len() as u64) * 4 <= v1,
            "v2 {} vs v1 {v1}",
            bytes.len()
        );
    }

    #[test]
    fn v1_encoded_len_matches_the_actual_text_format() {
        let topo = Topology::paper_default();
        for item in S1Random::new(&topo, 23).take_requests(200) {
            let kind = match item.0.kind {
                AccessKind::Read => 'R',
                AccessKind::Write => 'W',
            };
            let line = format!("{kind} {:#010x} {}\n", item.0.addr, item.0.source);
            assert_eq!(v1_encoded_len(&item), line.len() as u64, "{line:?}");
        }
        // Degenerate corners.
        let mapper = AddressMapper::row_interleaved(&topo);
        for (addr, source) in [(0u64, 0u16), (u64::MAX, u16::MAX), (0x10_0000_0000, 7)] {
            let item = (
                MemRequest::read(addr, source, Time::ZERO),
                mapper.decode(addr),
            );
            let line = format!("R {:#010x} {}\n", addr, source);
            assert_eq!(v1_encoded_len(&item), line.len() as u64);
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let (topo, _, bytes) = specimen(10, 8);
        let other = Topology::paper_default();

        assert!(matches!(
            decode_salvage(&bytes[..10], &topo),
            Err(TraceHeaderError::TooShort { .. })
        ));

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_salvage(&bad, &topo),
            Err(TraceHeaderError::BadMagic { .. })
        ));

        // A version bump with a fixed-up CRC is rejected as unsupported,
        // not as corruption.
        let mut v3 = bytes.clone();
        v3[4] = 3;
        let crc = crc32(&v3[..16]).to_le_bytes();
        v3[16..20].copy_from_slice(&crc);
        assert!(matches!(
            decode_salvage(&v3, &topo),
            Err(TraceHeaderError::UnsupportedVersion { found: 3 })
        ));

        // Same bump without the CRC fix reads as header corruption.
        let mut torn = bytes.clone();
        torn[4] = 3;
        assert!(matches!(
            decode_salvage(&torn, &topo),
            Err(TraceHeaderError::CrcMismatch { .. })
        ));

        assert!(matches!(
            decode_salvage(&bytes, &other),
            Err(TraceHeaderError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn empty_trace_is_clean() {
        let topo = small_topo();
        let bytes = TraceV2Writer::new(&topo).finish();
        assert_eq!(bytes.len(), HEADER_LEN);
        let salvaged = decode_salvage(&bytes, &topo).unwrap();
        assert_eq!(salvaged.health(), TraceHealth::Clean);
        assert!(salvaged.items.is_empty());
    }
}
