//! Request-latency accounting.
//!
//! §3.4 of the paper argues that CBT's group refreshes "incur a spike in
//! memory access latency, which hurts latency-critical workloads". To
//! make that claim measurable, the controller records every request's
//! queue-to-completion latency in a logarithmic histogram — constant
//! memory, fast insert, and accurate enough percentiles at the tail,
//! where the spikes live.
//!
//! The histogram is a [`Log2Hist`] over picoseconds: its buckets,
//! quantile rule and merge are the workspace's one implementation. This
//! module types them in [`Span`] and gives them a snapshot codec.

use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::Span;
use twice_obs::{Log2Hist, BUCKETS};

/// A log2-bucketed latency histogram.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram(Log2Hist);

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram(Log2Hist::new())
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Span) {
        self.0.record(latency.as_ps());
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> u64 {
        self.0.count()
    }

    /// Whether no samples were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Largest recorded latency (exact).
    #[inline]
    pub fn max(&self) -> Span {
        Span::from_ps(self.0.max())
    }

    /// Mean latency (exact, rounded down to a picosecond).
    pub fn mean(&self) -> Span {
        Span::from_ps(self.0.mean())
    }

    /// The latency at quantile `q` (0..=1), resolved to the upper edge of
    /// its bucket — i.e. an upper bound within a factor of 2.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Span {
        Span::from_ps(self.0.quantile_bounds(q).1)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.0.merge(&other.0);
    }
}

impl Snapshot for LatencyHistogram {
    fn save_state(&self, w: &mut SnapshotWriter) {
        // Only the occupied buckets: most runs populate a handful of the
        // 64 log2 bins.
        let counts = self.0.buckets();
        w.put_usize(counts.iter().filter(|&&c| c != 0).count());
        for (bucket, &count) in counts.iter().enumerate() {
            if count != 0 {
                w.put_u8(bucket as u8);
                w.put_u64(count);
            }
        }
        w.put_u64(self.0.count());
        w.put_u64(self.0.max());
        // u128 as two u64 halves, low first.
        w.put_u64(self.0.sum() as u64);
        w.put_u64((self.0.sum() >> 64) as u64);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let mut counts = [0; BUCKETS];
        let occupied = r.take_usize()?;
        for _ in 0..occupied {
            let bucket = usize::from(r.take_u8()?);
            if bucket >= BUCKETS {
                return Err(SnapshotError::StateMismatch(format!(
                    "latency bucket {bucket} out of {BUCKETS}"
                )));
            }
            counts[bucket] = r.take_u64()?;
        }
        let total = r.take_u64()?;
        let max = r.take_u64()?;
        let lo = r.take_u64()?;
        let hi = r.take_u64()?;
        let sum = u128::from(lo) | (u128::from(hi) << 64);
        self.0 = Log2Hist::from_raw_parts(counts, total, sum, max);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::snapshot::{digest_of, restore_from, snapshot_bytes};

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Span::ZERO);
        assert_eq!(h.quantile(0.99), Span::ZERO);
        assert_eq!(h.max(), Span::ZERO);
    }

    #[test]
    fn max_and_mean_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in [10u64, 20, 30] {
            h.record(Span::from_ns(ns));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.max(), Span::from_ns(30));
        assert_eq!(h.mean(), Span::from_ns(20));
    }

    #[test]
    fn quantiles_bound_within_a_factor_of_two() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Span::from_ns(100));
        }
        h.record(Span::from_ms(3)); // one spike
        let p50 = h.quantile(0.50);
        assert!(
            p50 >= Span::from_ns(100) && p50 < Span::from_ns(200),
            "{p50}"
        );
        // p99 still in the common bucket; p100 is the spike.
        assert!(h.quantile(0.99) < Span::from_ns(200));
        assert_eq!(h.quantile(1.0), Span::from_ms(3));
    }

    #[test]
    fn spike_dominates_the_tail() {
        let mut h = LatencyHistogram::new();
        for _ in 0..900 {
            h.record(Span::from_ns(60));
        }
        for _ in 0..100 {
            h.record(Span::from_ms(2));
        }
        assert!(h.quantile(0.95) >= Span::from_ms(1));
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = LatencyHistogram::new();
        a.record(Span::from_ns(10));
        let mut b = LatencyHistogram::new();
        b.record(Span::from_ns(1000));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), Span::from_ns(1000));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        LatencyHistogram::new().quantile(1.5);
    }

    /// The controller snapshots this histogram, so its bytes are part of
    /// every `System` checkpoint and digest. The samples hit bucket 0, a
    /// middle bucket and bucket 63, and two `u64::MAX` samples push the
    /// u128 sum past 64 bits. The digest is the blob's trailing checksum.
    #[test]
    fn snapshot_and_digest_bytes_are_pinned() {
        let mut h = LatencyHistogram::new();
        for ps in [0, 100_000, 1u64 << 62, u64::MAX, u64::MAX] {
            h.record(Span::from_ps(ps));
        }
        let bytes = snapshot_bytes(&h);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "5457435301000303000000000000000100030100000000000000011103010000\
             0000000000013f03030000000000000003050000000000000003ffffffffffff\
             ffff039e86010000000040030200000000000000889cd7516322da97"
        );
        assert_eq!(digest_of(&h), 0x97da_2263_51d7_9c88);
        assert_eq!(digest_of(&LatencyHistogram::new()), 0x1d71_fd1e_27f5_6dec);

        let mut back = LatencyHistogram::new();
        restore_from(&mut back, &bytes).expect("pinned bytes restore");
        assert_eq!(snapshot_bytes(&back), bytes);
        assert_eq!(back.quantile(0.5), Span::from_ps(u64::MAX));
        assert_eq!(back.mean(), Span::from_ps(8_301_034_833_169_318_226));
    }
}
