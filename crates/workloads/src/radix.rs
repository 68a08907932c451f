//! A RADIX-sort access pattern (SPLASH-2X RADIX).
//!
//! Parallel radix sort alternates two phases per digit: a **sequential
//! scan** of the key array (high row locality) and a **scattered
//! permutation** into destination buckets (each key lands in one of
//! `radix` bucket regions, striding across rows). The scatter phase is
//! the interesting one for row-activation behavior: it touches many
//! rows with low reuse, like a bank-spread streaming write.

use crate::trace::{item_from_addr, AccessSource, Geometry, TraceItem};
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::Topology;
use twice_memctrl::request::AccessKind;

/// The RADIX workload generator.
pub struct RadixSource {
    geo: Geometry,
    keys: u64,
    radix: u64,
    rng: SplitMix64,
    cursor: u64,
    scatter: bool,
    /// Per-bucket write cursors.
    bucket_fill: Vec<u64>,
    threads: u16,
    capacity: u64,
}

impl std::fmt::Debug for RadixSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadixSource")
            .field("keys", &self.keys)
            .field("radix", &self.radix)
            .finish()
    }
}

const KEY_BYTES: u64 = 8;

impl RadixSource {
    /// Creates a radix sort over `keys` keys with `radix` buckets and
    /// `threads` workers on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if `keys`, `radix`, or `threads` is zero.
    pub fn new(topo: &Topology, keys: u64, radix: u64, threads: u16, seed: u64) -> RadixSource {
        assert!(keys > 0 && radix > 0 && threads > 0, "empty configuration");
        RadixSource {
            geo: Geometry::new(topo),
            keys,
            radix,
            rng: SplitMix64::new(seed),
            cursor: 0,
            scatter: false,
            bucket_fill: vec![0; radix as usize],
            threads,
            capacity: topo.capacity_bytes(),
        }
    }
}

impl AccessSource for RadixSource {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.rng.state());
        w.put_u64(self.cursor);
        w.put_bool(self.scatter);
        w.put_usize(self.bucket_fill.len());
        for &f in &self.bucket_fill {
            w.put_u64(f);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        self.cursor = r.take_u64()?;
        self.scatter = r.take_bool()?;
        let buckets = r.take_usize()?;
        if buckets != self.bucket_fill.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "radix has {} buckets, snapshot has {buckets}",
                self.bucket_fill.len()
            )));
        }
        for f in &mut self.bucket_fill {
            *f = r.take_u64()?;
        }
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let source = (self.cursor % u64::from(self.threads)) as u16;
        let out = if !self.scatter {
            // Scan phase: sequential key reads from the source array.
            let addr = (self.cursor * KEY_BYTES) % self.capacity;
            item_from_addr(&self.geo.mapper, addr, AccessKind::Read, source)
        } else {
            // Scatter phase: write the key to its (random digit) bucket.
            let bucket = self.rng.next_below(self.radix);
            let fill = &mut self.bucket_fill[bucket as usize];
            let slot = *fill;
            *fill += 1;
            // Destination array lives after the source array; buckets are
            // contiguous regions of keys/radix slots.
            let dest_base = self.keys * KEY_BYTES;
            let addr = (dest_base + (bucket * (self.keys / self.radix) + slot) * KEY_BYTES)
                % self.capacity;
            item_from_addr(&self.geo.mapper, addr, AccessKind::Write, source)
        };
        self.cursor += 1;
        if self.cursor >= self.keys {
            self.cursor = 0;
            self.scatter = !self.scatter;
            if !self.scatter {
                self.bucket_fill.iter_mut().for_each(|f| *f = 0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_scan_and_scatter_phases() {
        let topo = Topology::paper_default();
        let keys = 1000u64;
        let radix = RadixSource::new(&topo, keys, 256, 16, 1);
        let kinds: Vec<_> = radix.take_requests(2 * keys).map(|(r, _)| r.kind).collect();
        assert!(kinds[..keys as usize]
            .iter()
            .all(|k| *k == AccessKind::Read));
        assert!(kinds[keys as usize..]
            .iter()
            .all(|k| *k == AccessKind::Write));
    }

    #[test]
    fn scan_phase_is_row_local() {
        let topo = Topology::paper_default();
        let radix = RadixSource::new(&topo, 10_000, 256, 16, 1);
        let rows: Vec<_> = radix
            .take_requests(512) // 512 keys * 8B = one row's worth
            .map(|(_, a)| (a.bank, a.row))
            .collect();
        let distinct: std::collections::HashSet<_> = rows.iter().collect();
        assert!(distinct.len() <= 2, "sequential scan must stay row-local");
    }

    #[test]
    fn scatter_phase_spreads_rows() {
        let topo = Topology::paper_default();
        let keys = 1 << 20; // large enough that buckets span many rows
        let mut radix = RadixSource::new(&topo, keys, 256, 16, 1);
        // Skip the scan phase.
        for _ in 0..keys {
            radix.next_access();
        }
        let distinct: std::collections::HashSet<_> = radix
            .take_requests(1024)
            .map(|(_, a)| (a.channel, a.bank, a.row))
            .collect();
        assert!(
            distinct.len() > 100,
            "scatter touched {} rows",
            distinct.len()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let topo = Topology::paper_default();
        let a: Vec<_> = RadixSource::new(&topo, 500, 16, 4, 9)
            .take_requests(1500)
            .map(|(r, _)| r.addr)
            .collect();
        let b: Vec<_> = RadixSource::new(&topo, 500, 16, 4, 9)
            .take_requests(1500)
            .map(|(r, _)| r.addr)
            .collect();
        assert_eq!(a, b);
    }
}
