//! A MICA-like key-value store access pattern ([Lim et al., NSDI'14]).
//!
//! MICA partitions the key space across cores; each GET hashes the key,
//! probes a hash-index bucket, then reads the value. Client traffic is
//! skewed (the standard YCSB-style Zipf 0.99), so a hot set of keys —
//! and therefore a hot set of *buckets and value rows* — dominates. The
//! generator reproduces that structure: per-access (index probe + value
//! access) pairs, Zipf-popular keys, 95/5 GET/SET by default.

use crate::trace::{item_from_addr, AccessSource, Geometry, TraceItem};
use crate::zipf::Zipf;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::Topology;
use twice_memctrl::request::AccessKind;

/// The MICA workload generator.
pub struct MicaSource {
    geo: Geometry,
    keys: u64,
    zipf: Zipf,
    rng: SplitMix64,
    get_fraction: f64,
    threads: u16,
    /// Pending value access for the key probed last (index, then value).
    pending_value: Option<(u64, AccessKind, u16)>,
    capacity: u64,
}

impl std::fmt::Debug for MicaSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicaSource")
            .field("keys", &self.keys)
            .field("get_fraction", &self.get_fraction)
            .finish()
    }
}

const BUCKET_BYTES: u64 = 64;
const VALUE_BYTES: u64 = 256;

impl MicaSource {
    /// Creates a MICA store of `keys` keys with Zipf skew `theta` and
    /// `get_fraction` reads, served by `threads` cores on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` or `threads` is zero, or `get_fraction` is not in
    /// `[0, 1]`.
    pub fn new(
        topo: &Topology,
        keys: u64,
        theta: f64,
        get_fraction: f64,
        threads: u16,
        seed: u64,
    ) -> MicaSource {
        assert!(keys > 0, "need at least one key");
        assert!(threads > 0, "need at least one thread");
        assert!((0.0..=1.0).contains(&get_fraction), "get_fraction in [0,1]");
        MicaSource {
            geo: Geometry::new(topo),
            keys,
            zipf: Zipf::new(keys.min(1 << 22) as usize, theta),
            rng: SplitMix64::new(seed),
            get_fraction,
            threads,
            pending_value: None,
            capacity: topo.capacity_bytes(),
        }
    }

    /// The standard configuration: 16 M keys, Zipf 0.99, 95% GET.
    pub fn standard(topo: &Topology, seed: u64) -> MicaSource {
        MicaSource::new(topo, 1 << 24, 0.99, 0.95, 16, seed)
    }

    fn hash(key: u64) -> u64 {
        // Fibonacci hashing: spreads hot keys across the index region.
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl AccessSource for MicaSource {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.rng.state());
        w.put_bool(self.pending_value.is_some());
        if let Some((addr, kind, source)) = self.pending_value {
            w.put_u64(addr);
            w.put_bool(kind == AccessKind::Write);
            w.put_u32(u32::from(source));
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        self.pending_value = if r.take_bool()? {
            let addr = r.take_u64()?;
            let kind = if r.take_bool()? {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let source = r.take_u32()? as u16;
            Some((addr, kind, source))
        } else {
            None
        };
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        if let Some((addr, kind, source)) = self.pending_value.take() {
            return item_from_addr(&self.geo.mapper, addr, kind, source);
        }
        let key = self.zipf.sample(&mut self.rng) as u64;
        let h = Self::hash(key);
        let source = (h % u64::from(self.threads)) as u16;
        let kind = if self.rng.chance(self.get_fraction) {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        // Index region: first quarter of memory; value region: the rest.
        let index_region = self.capacity / 4;
        let bucket_addr = (h % (index_region / BUCKET_BYTES)) * BUCKET_BYTES;
        let value_addr =
            index_region + (h % ((self.capacity - index_region) / VALUE_BYTES)) * VALUE_BYTES;
        self.pending_value = Some((value_addr, kind, source));
        // The index probe is always a read.
        item_from_addr(&self.geo.mapper, bucket_addr, AccessKind::Read, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_then_value_pairing() {
        let topo = Topology::paper_default();
        let mica = MicaSource::new(&topo, 1000, 0.99, 0.0, 4, 1); // all SETs
        let kinds: Vec<_> = mica.take_requests(10).map(|(r, _)| r.kind).collect();
        // Index probe (read), then value write, repeated.
        for pair in kinds.chunks(2) {
            assert_eq!(pair[0], AccessKind::Read);
            assert_eq!(pair[1], AccessKind::Write);
        }
    }

    #[test]
    fn get_set_ratio_approximates_target() {
        let topo = Topology::paper_default();
        let mica = MicaSource::new(&topo, 10_000, 0.99, 0.95, 4, 2);
        let writes = mica
            .take_requests(40_000)
            .filter(|(r, _)| r.kind == AccessKind::Write)
            .count();
        // Half the accesses are value accesses; 5% of those are writes.
        let rate = writes as f64 / 20_000.0;
        assert!((0.03..=0.07).contains(&rate), "SET rate {rate}");
    }

    #[test]
    fn hot_keys_revisit_the_same_rows() {
        let topo = Topology::paper_default();
        let mica = MicaSource::new(&topo, 100_000, 0.99, 1.0, 4, 3);
        let mut row_counts: std::collections::HashMap<(u8, u16, u32), u32> =
            std::collections::HashMap::new();
        for (_, a) in mica.take_requests(50_000) {
            *row_counts
                .entry((a.channel.0, a.bank, a.row.0))
                .or_insert(0) += 1;
        }
        let max = row_counts.values().copied().max().unwrap();
        assert!(max > 50, "skew must concentrate row traffic (max {max})");
    }

    #[test]
    fn traffic_spans_many_banks() {
        let topo = Topology::paper_default();
        let mica = MicaSource::standard(&topo, 4);
        let banks: std::collections::HashSet<(u8, u8, u16)> = mica
            .take_requests(10_000)
            .map(|(_, a)| (a.channel.0, a.rank.0, a.bank))
            .collect();
        assert!(banks.len() > 32, "only {} banks touched", banks.len());
    }
}
