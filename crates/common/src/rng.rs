//! A small, deterministic pseudo-random number generator.
//!
//! Several components need reproducible randomness without pulling the
//! `rand` crate into the core model layer: row-remap table construction,
//! PARA's trigger coin, workload generators' fallback paths. [`SplitMix64`]
//! is the well-known 64-bit mixing generator — tiny, fast, and with full
//! 2^64 period over its counter.
//!
//! The paper notes that *production* probabilistic defenses should use a
//! true RNG so attackers cannot predict refresh decisions (§3.4); for
//! simulation, determinism is a feature.

/// Deterministic SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use twice_common::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// Uses the widening-multiply technique; bias is negligible for the
    /// bounds used here (≤ 2^32).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound != 0, "bound must be non-zero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.next_f64() < p
    }

    /// The raw generator state (for snapshots).
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Re-establishes a previously captured generator state.
    #[inline]
    pub fn set_state(&mut self, state: u64) {
        self.state = state;
    }
}

impl crate::snapshot::Snapshot for SplitMix64 {
    fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.state);
    }

    fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.state = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_rate_is_approximately_p() {
        let mut r = SplitMix64::new(11);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.chance(0.001)).count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.001).abs() < 0.0005,
            "observed rate {rate} too far from 0.001"
        );
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn bad_probability_panics() {
        SplitMix64::new(0).chance(1.5);
    }
}
