//! [`RowMap`]: the standard `HashMap` keyed by row number, with a
//! one-multiply hasher in place of SipHash.
//!
//! Per-row model state that is non-zero for a small share of a bank's
//! rows (a TWiCe entry's slot, a lightly disturbed bank's victims) is
//! kept in a map sized by the rows in use rather than in an array sized
//! by the row space. [`RowHasher`] is Fibonacci hashing: one multiply
//! by 2⁶⁴/φ. Unlike SipHash it does not resist keys crafted to collide,
//! and a trace file can choose its rows. The maps it serves are small,
//! though: a TWiCe index holds at most its table's entries, and the
//! hammer model moves a bank to an array once one row in 32 is
//! disturbed. So rows chosen to collide can slow one bank's lookups,
//! but no probe runs past a few thousand entries.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map from row number to `V`, hashed by [`RowHasher`].
///
/// Iteration order is unspecified; callers that need a canonical order
/// (digests, snapshots) sort what they collect.
///
/// # Examples
///
/// ```
/// use twice_common::rowmap::RowMap;
///
/// let mut m: RowMap<u64> = RowMap::default();
/// *m.entry(70_000).or_default() += 2;
/// m.insert(5, 9);
/// assert_eq!(m.get(&70_000), Some(&2));
/// assert_eq!(m.remove(&5), Some(9));
/// assert_eq!(m.len(), 1);
/// ```
pub type RowMap<V> = HashMap<u32, V, BuildHasherDefault<RowHasher>>;

/// 2⁶⁴/φ, rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci hashing for `u32` row keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct RowHasher(u64);

impl Hasher for RowHasher {
    #[inline]
    fn write_u32(&mut self, row: u32) {
        self.0 = (self.0 ^ u64::from(row)).wrapping_mul(FIB);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    /// The std map takes the bucket from the low bits, but a product's
    /// low bits see only the key's low bits (rows 64 apart would share
    /// them). The rotation brings the high bits, which see every key
    /// bit, down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// Consecutive and power-of-two-strided rows, the shapes sweeps and
    /// address mappings produce, spread over the low bits the std map
    /// picks buckets from.
    #[test]
    fn strided_rows_spread_over_the_bucket_bits() {
        let hasher = BuildHasherDefault::<RowHasher>::default();
        for stride in [1u32, 2, 64, 4_096, 1 << 16] {
            let buckets: HashSet<u64> = (0..1_024u32)
                .map(|i| hasher.hash_one(i.wrapping_mul(stride)) & 2_047)
                .collect();
            assert!(
                buckets.len() > 700,
                "stride {stride}: 1,024 rows in {} of 2,048 buckets",
                buckets.len()
            );
        }
    }
}
