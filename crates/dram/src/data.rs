//! Row data storage and corruption tracking.
//!
//! The fault model in [`crate::hammer`] decides *when* a victim row is
//! disturbed past the threshold; this module gives those events bytes to
//! land on, so "silent data corruption" is literal: rows hold data,
//! reads and writes move it, and a row-hammer event flips a real bit.
//!
//! Storage is sparse at 64-byte (cache-line) granularity: an untouched
//! granule holds a deterministic background pattern derived from
//! `(seed, row, granule)`, so memory use is proportional to the touched
//! footprint, never to capacity. A shadow copy of what the *software*
//! believes is stored (writes only, never flips) makes integrity
//! checking exact: a granule is corrupted iff `actual != shadow`.

use std::collections::HashMap;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::RowId;

/// Bytes per storage granule (one cache line).
pub const GRANULE_BYTES: usize = 64;

/// Integrity verdict for one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowIntegrity {
    /// Stored bits match what was written (or the background pattern).
    Clean,
    /// Stored bits differ: silent corruption. Carries the flipped bit
    /// offsets (bit index within the row).
    Corrupted(Vec<u64>),
}

impl RowIntegrity {
    /// Whether the row is corrupted.
    pub fn is_corrupted(&self) -> bool {
        matches!(self, RowIntegrity::Corrupted(_))
    }
}

type GranuleKey = (u32, u32); // (row, granule index)

/// Data contents of one bank's rows.
#[derive(Debug, Clone)]
pub struct BankData {
    row_bytes: usize,
    seed: u64,
    /// Actual cell contents (granules that diverged from the pattern).
    actual: HashMap<GranuleKey, [u8; GRANULE_BYTES]>,
    /// What software wrote (never sees flips).
    shadow: HashMap<GranuleKey, [u8; GRANULE_BYTES]>,
}

impl BankData {
    /// Creates a bank with `row_bytes` bytes per row and a background
    /// pattern seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` is zero or not a multiple of 64.
    pub fn new(row_bytes: usize, seed: u64) -> BankData {
        assert!(row_bytes > 0, "rows must hold data");
        assert!(
            row_bytes.is_multiple_of(GRANULE_BYTES),
            "row size must be granule-aligned"
        );
        BankData {
            row_bytes,
            seed,
            actual: HashMap::new(),
            shadow: HashMap::new(),
        }
    }

    /// Bytes per row.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// The deterministic background pattern of one granule.
    fn pattern(&self, key: GranuleKey) -> [u8; GRANULE_BYTES] {
        let mut rng = SplitMix64::new(self.seed ^ (u64::from(key.0) << 24) ^ u64::from(key.1));
        let mut out = [0u8; GRANULE_BYTES];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        out
    }

    fn materialize(&mut self, key: GranuleKey) {
        if !self.actual.contains_key(&key) {
            let p = self.pattern(key);
            self.actual.insert(key, p);
            self.shadow.insert(key, p);
        }
    }

    /// Writes `data` into `row` starting at byte `offset` (both the
    /// cells and the software shadow).
    ///
    /// # Panics
    ///
    /// Panics if the write overruns the row.
    pub fn write(&mut self, row: RowId, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.row_bytes,
            "write overruns the row"
        );
        for (i, &byte) in data.iter().enumerate() {
            let pos = offset + i;
            let key = (row.0, (pos / GRANULE_BYTES) as u32);
            self.materialize(key);
            let within = pos % GRANULE_BYTES;
            self.actual.get_mut(&key).expect("materialized")[within] = byte;
            self.shadow.get_mut(&key).expect("materialized")[within] = byte;
        }
    }

    /// Reads `len` bytes of `row` starting at `offset` — the *actual*
    /// cell contents, flips included.
    ///
    /// # Panics
    ///
    /// Panics if the read overruns the row.
    pub fn read(&self, row: RowId, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= self.row_bytes, "read overruns the row");
        (offset..offset + len)
            .map(|pos| {
                let key = (row.0, (pos / GRANULE_BYTES) as u32);
                let within = pos % GRANULE_BYTES;
                match self.actual.get(&key) {
                    Some(g) => g[within],
                    None => self.pattern(key)[within],
                }
            })
            .collect()
    }

    /// Flips physical bit `bit` of `row` (a row-hammer event). Only the
    /// actual cells change — software never learns.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the row.
    pub fn flip_bit(&mut self, row: RowId, bit: u64) {
        assert!(
            (bit as usize) < self.row_bytes * 8,
            "bit index outside the row"
        );
        let pos = (bit / 8) as usize;
        let key = (row.0, (pos / GRANULE_BYTES) as u32);
        self.materialize(key);
        self.actual.get_mut(&key).expect("materialized")[pos % GRANULE_BYTES] ^= 1 << (bit % 8);
    }

    /// Compares actual cells against the software shadow.
    pub fn verify(&self, row: RowId) -> RowIntegrity {
        let mut flipped = Vec::new();
        for (key, actual) in &self.actual {
            if key.0 != row.0 {
                continue;
            }
            let shadow = self.shadow.get(key).expect("shadow tracks actual");
            for (i, (a, s)) in actual.iter().zip(shadow.iter()).enumerate() {
                let mut diff = a ^ s;
                while diff != 0 {
                    let b = diff.trailing_zeros();
                    let base = u64::from(key.1) * GRANULE_BYTES as u64 * 8;
                    flipped.push(base + i as u64 * 8 + u64::from(b));
                    diff &= diff - 1;
                }
            }
        }
        if flipped.is_empty() {
            RowIntegrity::Clean
        } else {
            flipped.sort_unstable();
            RowIntegrity::Corrupted(flipped)
        }
    }

    /// All rows whose cells diverge from the shadow.
    pub fn corrupted_rows(&self) -> Vec<RowId> {
        let mut rows: Vec<u32> = self.actual.keys().map(|k| k.0).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.into_iter()
            .map(RowId)
            .filter(|&r| self.verify(r).is_corrupted())
            .collect()
    }

    /// Number of materialized granules (memory-use metric).
    pub fn touched_granules(&self) -> usize {
        self.actual.len()
    }
}

fn save_granules(w: &mut SnapshotWriter, map: &HashMap<GranuleKey, [u8; GRANULE_BYTES]>) {
    let mut entries: Vec<(GranuleKey, &[u8])> =
        map.iter().map(|(&k, v)| (k, v.as_slice())).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    w.put_usize(entries.len());
    for ((row, granule), bytes) in entries {
        w.put_u32(row);
        w.put_u32(granule);
        w.put_bytes(bytes);
    }
}

fn load_granules(
    r: &mut SnapshotReader<'_>,
) -> Result<HashMap<GranuleKey, [u8; GRANULE_BYTES]>, SnapshotError> {
    let n = r.take_usize()?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let row = r.take_u32()?;
        let granule = r.take_u32()?;
        let bytes = r.take_bytes()?;
        let arr: [u8; GRANULE_BYTES] = bytes.try_into().map_err(|_| {
            SnapshotError::StateMismatch(format!("granule of {} bytes", bytes.len()))
        })?;
        map.insert((row, granule), arr);
    }
    Ok(map)
}

impl Snapshot for BankData {
    fn save_state(&self, w: &mut SnapshotWriter) {
        save_granules(w, &self.actual);
        save_granules(w, &self.shadow);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.actual = load_granules(r)?;
        self.shadow = load_granules(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> BankData {
        BankData::new(8_192, 42)
    }

    #[test]
    fn untouched_rows_read_their_pattern_deterministically() {
        let b = bank();
        let a = b.read(RowId(5), 0, 64);
        let b2 = bank().read(RowId(5), 0, 64);
        assert_eq!(a, b2);
        assert_ne!(a, bank().read(RowId(6), 0, 64), "patterns differ per row");
        assert_eq!(b.verify(RowId(5)), RowIntegrity::Clean);
    }

    #[test]
    fn writes_read_back_and_stay_clean() {
        let mut b = bank();
        b.write(RowId(3), 100, &[0xAA, 0xBB, 0xCC]);
        assert_eq!(b.read(RowId(3), 100, 3), vec![0xAA, 0xBB, 0xCC]);
        // Bytes around the write keep the pattern.
        let pattern = bank().read(RowId(3), 96, 4);
        assert_eq!(b.read(RowId(3), 96, 4), pattern);
        assert_eq!(b.verify(RowId(3)), RowIntegrity::Clean);
    }

    #[test]
    fn writes_spanning_granules_work() {
        let mut b = bank();
        let data: Vec<u8> = (0..130).map(|i| i as u8).collect();
        b.write(RowId(1), 60, &data);
        assert_eq!(b.read(RowId(1), 60, 130), data);
        assert!(b.touched_granules() >= 3);
    }

    #[test]
    fn a_flip_is_silent_corruption() {
        let mut b = bank();
        b.write(RowId(3), 0, &[0x00; 8]);
        b.flip_bit(RowId(3), 13);
        let v = b.verify(RowId(3));
        assert_eq!(v, RowIntegrity::Corrupted(vec![13]));
        // The read sees the corrupted value (bit 13 = byte 1, bit 5).
        assert_eq!(b.read(RowId(3), 1, 1), vec![0b0010_0000]);
        assert_eq!(b.corrupted_rows(), vec![RowId(3)]);
    }

    #[test]
    fn flip_in_a_far_granule_reports_the_absolute_bit() {
        let mut b = bank();
        b.flip_bit(RowId(2), 8 * 8_192 - 1); // last bit of the row
        match b.verify(RowId(2)) {
            RowIntegrity::Corrupted(bits) => assert_eq!(bits, vec![8 * 8_192 - 1]),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn rewriting_a_corrupted_byte_heals_it() {
        let mut b = bank();
        b.write(RowId(3), 0, &[0u8; 4]);
        b.flip_bit(RowId(3), 5);
        assert!(b.verify(RowId(3)).is_corrupted());
        b.write(RowId(3), 0, &[0u8; 4]);
        assert_eq!(b.verify(RowId(3)), RowIntegrity::Clean);
    }

    #[test]
    fn double_flip_cancels() {
        let mut b = bank();
        b.flip_bit(RowId(1), 7);
        b.flip_bit(RowId(1), 7);
        assert_eq!(b.verify(RowId(1)), RowIntegrity::Clean);
    }

    #[test]
    fn storage_is_sparse_per_granule() {
        let mut b = bank();
        assert_eq!(b.touched_granules(), 0);
        b.write(RowId(100), 0, &[1]);
        assert_eq!(b.touched_granules(), 1, "one granule, not a whole row");
        let _ = b.read(RowId(200), 0, 64); // reads do not materialize
        assert_eq!(b.touched_granules(), 1);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrun_write_panics() {
        bank().write(RowId(0), 8_190, &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn out_of_range_flip_panics() {
        bank().flip_bit(RowId(0), 8 * 8_192);
    }
}
