//! Row data storage and corruption tracking.
//!
//! The fault model in [`crate::hammer`] decides *when* a victim row is
//! disturbed past the threshold; this module gives those events bytes to
//! land on, so "silent data corruption" is literal: rows hold data, and a
//! row-hammer event flips a real bit.
//!
//! Every 64-byte (cache-line) granule holds a deterministic background
//! pattern derived from `(seed, row, granule)`. Only granules a flip has
//! landed in are stored, so memory use is proportional to the damaged
//! footprint, never to capacity. Nothing writes data, so what software
//! believes is stored is always the pattern, and integrity checking is
//! exact: a granule is corrupted iff its cells differ from its pattern.

use std::collections::HashMap;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::RowId;

/// Bytes per storage granule (one cache line).
pub const GRANULE_BYTES: usize = 64;

/// Integrity verdict for one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowIntegrity {
    /// Stored bits match the background pattern.
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
        let pattern = self.pattern(key);
        self.actual.entry(key).or_insert(pattern)[pos % GRANULE_BYTES] ^= 1 << (bit % 8);
    }

    /// Compares actual cells against the background pattern.
    pub fn verify(&self, row: RowId) -> RowIntegrity {
        let mut flipped = Vec::new();
        for (&key, actual) in &self.actual {
            if key.0 != row.0 {
                continue;
            }
            for (i, (a, p)) in actual.iter().zip(self.pattern(key)).enumerate() {
                let mut diff = a ^ p;
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

    /// All rows whose cells diverge from the pattern.
    pub fn corrupted_rows(&self) -> Vec<RowId> {
        let mut rows: Vec<u32> = self.actual.keys().map(|k| k.0).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.into_iter()
            .map(RowId)
            .filter(|&r| self.verify(r).is_corrupted())
            .collect()
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
    /// The stored granules in key order, then a "shadow" section of the
    /// same keys, each with its background pattern: what software
    /// believes the cells hold. The shadow follows from the keys, but it
    /// stays in the format so that blobs, and the digests that are their
    /// checksums, keep their bytes; `load_state` refuses any other shadow.
    fn save_state(&self, w: &mut SnapshotWriter) {
        let mut keys: Vec<GranuleKey> = self.actual.keys().copied().collect();
        keys.sort_unstable();
        for shadow in [false, true] {
            w.put_usize(keys.len());
            for &key in &keys {
                w.put_u32(key.0);
                w.put_u32(key.1);
                w.put_bytes(&if shadow {
                    self.pattern(key)
                } else {
                    self.actual[&key]
                });
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.actual = load_granules(r)?;
        let shadow = load_granules(r)?;
        let expected: HashMap<GranuleKey, [u8; GRANULE_BYTES]> =
            self.actual.keys().map(|&k| (k, self.pattern(k))).collect();
        if shadow != expected {
            return Err(SnapshotError::StateMismatch(
                "row data's shadow section is not the background pattern of its stored granules"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::snapshot::{fnv1a, restore_from, snapshot_bytes};

    fn bank() -> BankData {
        BankData::new(8_192, 42)
    }

    #[test]
    fn untouched_rows_read_their_pattern_deterministically() {
        let b = bank();
        assert_eq!(b.pattern((5, 0)), bank().pattern((5, 0)));
        assert_ne!(
            b.pattern((5, 0)),
            b.pattern((6, 0)),
            "patterns differ per row"
        );
        assert_eq!(b.verify(RowId(5)), RowIntegrity::Clean);
    }

    #[test]
    fn a_flip_is_silent_corruption() {
        let mut b = bank();
        b.flip_bit(RowId(3), 13);
        let v = b.verify(RowId(3));
        assert_eq!(v, RowIntegrity::Corrupted(vec![13]));
        // The cells hold the pattern with bit 13 (byte 1, bit 5) flipped.
        assert_eq!(b.actual[&(3, 0)][1], b.pattern((3, 0))[1] ^ 0b0010_0000);
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
    fn double_flip_cancels() {
        let mut b = bank();
        b.flip_bit(RowId(1), 7);
        b.flip_bit(RowId(1), 7);
        assert_eq!(b.verify(RowId(1)), RowIntegrity::Clean);
    }

    #[test]
    fn storage_is_sparse_per_granule() {
        let mut b = bank();
        assert!(b.actual.is_empty());
        b.flip_bit(RowId(100), 3);
        assert_eq!(b.actual.len(), 1, "one granule, not a whole row");
        assert_eq!(b.verify(RowId(200)), RowIntegrity::Clean);
        assert_eq!(b.actual.len(), 1, "verifying does not materialize");
    }

    #[test]
    fn load_state_refuses_a_shadow_that_is_not_the_pattern() {
        let mut b = bank();
        b.flip_bit(RowId(3), 13);
        let blob = snapshot_bytes(&b);
        let mut restored = bank();
        restore_from(&mut restored, &blob).expect("an unedited blob restores");
        assert_eq!(restored.verify(RowId(3)), RowIntegrity::Corrupted(vec![13]));
        let refused = |blob: &[u8]| {
            let err = restore_from(&mut bank(), blob).unwrap_err();
            assert!(matches!(err, SnapshotError::StateMismatch(_)), "{err:?}");
        };
        // The shadow's one granule ends the payload: edit its last byte
        // and re-seal the blob.
        let mut edited = blob.clone();
        let end = edited.len() - 8;
        edited[end - 1] ^= 1;
        let sum = fnv1a(&edited[..end]);
        edited[end..].copy_from_slice(&sum.to_le_bytes());
        refused(&edited);
        // A shadow that names another granule, or none.
        for shadow in [vec![(4, 0)], vec![]] {
            let mut w = SnapshotWriter::new();
            w.put_usize(1);
            w.put_u32(3);
            w.put_u32(0);
            w.put_bytes(&b.actual[&(3, 0)]);
            w.put_usize(shadow.len());
            for key in shadow {
                w.put_u32(key.0);
                w.put_u32(key.1);
                w.put_bytes(&b.pattern(key));
            }
            refused(&w.finish());
        }
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn out_of_range_flip_panics() {
        bank().flip_bit(RowId(0), 8 * 8_192);
    }
}
