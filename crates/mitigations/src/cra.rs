//! CRA: Counter-based Row Activation ([Kim, Nair & Qureshi, CAL'15],
//! as described in §3.3 of the TWiCe paper).
//!
//! CRA keeps one activation counter **per DRAM row**, stored in a
//! reserved region of DRAM itself, with a small counter *cache* in the
//! memory controller. A cached counter costs nothing to bump; a miss
//! requires fetching the counter from DRAM (and writing back the evicted
//! one), which the TWiCe paper charges as extra DRAM activations — "in
//! random access workloads, the number of ACTs is nearly doubled"
//! (§3.4). We charge one metadata activation per miss.
//!
//! Like all counter schemes it detects attacks deterministically: a row
//! crossing the threshold gets its (logical) neighbors refreshed.

use std::collections::{HashMap, VecDeque};
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{BankId, DefenseResponse, Detection, RowHammerDefense, RowId, Time};

#[derive(Debug, Clone, Default)]
struct CraBank {
    /// Authoritative per-row counters (the in-DRAM region).
    counters: HashMap<u32, u64>,
    /// Cache: row → last-touch stamp.
    cache: HashMap<u32, u64>,
    /// Lazy LRU queue of (row, stamp).
    lru: VecDeque<(u32, u64)>,
    stamp: u64,
    refs_seen: u64,
}

/// The CRA defense.
#[derive(Debug, Clone)]
pub struct Cra {
    th: u64,
    cache_capacity: usize,
    refs_per_window: u64,
    banks: Vec<CraBank>,
    name: String,
}

impl Cra {
    /// Creates CRA with `cache_capacity` cached counters per bank and
    /// refresh threshold `th`, resetting counters every
    /// `refs_per_window` auto-refreshes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(cache_capacity: usize, th: u64, num_banks: u32, refs_per_window: u64) -> Cra {
        assert!(cache_capacity > 0, "cache must have entries");
        assert!(th > 0, "threshold must be non-zero");
        assert!(num_banks > 0, "need at least one bank");
        assert!(refs_per_window > 0, "refs_per_window must be non-zero");
        Cra {
            name: format!("CRA-{cache_capacity}"),
            th,
            cache_capacity,
            refs_per_window,
            banks: vec![CraBank::default(); num_banks as usize],
        }
    }

    /// Whether `row`'s counter is currently cached in `bank` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn is_cached(&self, bank: BankId, row: RowId) -> bool {
        self.banks[bank.index()].cache.contains_key(&row.0)
    }
}

impl CraBank {
    /// Touches `row` in the cache; returns `true` on a hit.
    fn touch(&mut self, row: u32, capacity: usize) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let hit = self.cache.insert(row, stamp).is_some();
        self.lru.push_back((row, stamp));
        if !hit && self.cache.len() > capacity {
            // Evict the true LRU entry (skipping stale queue nodes).
            while let Some((r, s)) = self.lru.pop_front() {
                if self.cache.get(&r) == Some(&s) {
                    self.cache.remove(&r);
                    break;
                }
            }
        }
        // Bound the lazy queue.
        if self.lru.len() > capacity * 4 {
            let cache = &self.cache;
            self.lru.retain(|(r, s)| cache.get(r) == Some(s));
        }
        hit
    }
}

impl RowHammerDefense for Cra {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        let capacity = self.cache_capacity;
        let th = self.th;
        let b = &mut self.banks[bank.index()];
        let hit = b.touch(row.0, capacity);
        let count = b.counters.entry(row.0).or_insert(0);
        *count += 1;
        let crossed = *count >= th;
        if crossed {
            *count = 0;
        }
        let metadata_acts = u32::from(!hit);
        if crossed {
            let victims: Vec<RowId> = [row.below(), row.above()].into_iter().flatten().collect();
            return DefenseResponse {
                refresh_rows: victims,
                metadata_acts,
                detection: Some(Detection {
                    bank,
                    row,
                    at: now,
                    act_count: th,
                }),
                ..DefenseResponse::default()
            };
        }
        if metadata_acts > 0 {
            return DefenseResponse {
                metadata_acts,
                ..DefenseResponse::default()
            };
        }
        DefenseResponse::none()
    }

    fn on_auto_refresh(&mut self, bank: BankId, _now: Time) -> DefenseResponse {
        let b = &mut self.banks[bank.index()];
        b.refs_seen += 1;
        if b.refs_seen.is_multiple_of(self.refs_per_window) {
            b.counters.clear();
        }
        DefenseResponse::none()
    }

    fn reset(&mut self) {
        for b in &mut self.banks {
            *b = CraBank::default();
        }
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        Some(self.banks[bank.index()].cache.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.banks.len());
        for b in &self.banks {
            w.put_u64(b.stamp);
            w.put_u64(b.refs_seen);
            let mut counters: Vec<(u32, u64)> = b.counters.iter().map(|(&r, &c)| (r, c)).collect();
            counters.sort_unstable();
            w.put_usize(counters.len());
            for (row, count) in counters {
                w.put_u32(row);
                w.put_u64(count);
            }
            let mut cache: Vec<(u32, u64)> = b.cache.iter().map(|(&r, &s)| (r, s)).collect();
            cache.sort_unstable();
            w.put_usize(cache.len());
            for (row, stamp) in cache {
                w.put_u32(row);
                w.put_u64(stamp);
            }
            // The lazy queue holds stale entries whose position governs
            // future evictions, so it is saved verbatim.
            w.put_usize(b.lru.len());
            for &(row, stamp) in &b.lru {
                w.put_u32(row);
                w.put_u64(stamp);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let banks = r.take_usize()?;
        if banks != self.banks.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "CRA has {} banks, snapshot has {banks}",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.stamp = r.take_u64()?;
            b.refs_seen = r.take_u64()?;
            b.counters.clear();
            let n = r.take_usize()?;
            for _ in 0..n {
                let row = r.take_u32()?;
                let count = r.take_u64()?;
                b.counters.insert(row, count);
            }
            b.cache.clear();
            let n = r.take_usize()?;
            for _ in 0..n {
                let row = r.take_u32()?;
                let stamp = r.take_u64()?;
                b.cache.insert(row, stamp);
            }
            b.lru.clear();
            let n = r.take_usize()?;
            for _ in 0..n {
                let row = r.take_u32()?;
                let stamp = r.take_u64()?;
                b.lru.push_back((row, stamp));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_are_free_misses_cost_a_metadata_act() {
        let mut c = Cra::new(4, 1000, 1, 100);
        let first = c.on_activate(BankId(0), RowId(1), Time::ZERO);
        assert_eq!(first.metadata_acts, 1, "cold miss");
        let second = c.on_activate(BankId(0), RowId(1), Time::ZERO);
        assert_eq!(second.metadata_acts, 0, "hit");
    }

    #[test]
    fn lru_evicts_the_least_recent_row() {
        let mut c = Cra::new(2, 1000, 1, 100);
        c.on_activate(BankId(0), RowId(1), Time::ZERO);
        c.on_activate(BankId(0), RowId(2), Time::ZERO);
        c.on_activate(BankId(0), RowId(1), Time::ZERO); // 1 is now MRU
        c.on_activate(BankId(0), RowId(3), Time::ZERO); // evicts 2
        assert!(c.is_cached(BankId(0), RowId(1)));
        assert!(!c.is_cached(BankId(0), RowId(2)));
        assert!(c.is_cached(BankId(0), RowId(3)));
    }

    #[test]
    fn random_traffic_nearly_doubles_acts() {
        // §3.4: with a cache far smaller than the footprint, almost every
        // ACT misses and fetches its counter.
        let mut c = Cra::new(64, 1_000_000, 1, 1_000_000);
        let mut x = twice_common::rng::SplitMix64::new(5);
        let n = 50_000u64;
        let mut extra = 0u64;
        for _ in 0..n {
            let row = RowId(x.next_below(100_000) as u32);
            extra += u64::from(c.on_activate(BankId(0), row, Time::ZERO).metadata_acts);
        }
        let ratio = extra as f64 / n as f64;
        assert!(ratio > 0.95, "miss ratio {ratio}, expected ~1.0");
    }

    #[test]
    fn threshold_crossing_refreshes_neighbors_and_detects() {
        let mut c = Cra::new(4, 10, 1, 100);
        let mut r = DefenseResponse::none();
        for _ in 0..10 {
            r = c.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        assert_eq!(r.refresh_rows, vec![RowId(4), RowId(6)]);
        assert!(r.detection.is_some());
        // Counter reset after the refresh.
        let r = c.on_activate(BankId(0), RowId(5), Time::ZERO);
        assert!(r.refresh_rows.is_empty());
    }

    #[test]
    fn counters_reset_each_window() {
        let mut c = Cra::new(4, 10, 1, 8);
        for _ in 0..9 {
            c.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        // 9 acts of 10; a window reset forgives them.
        for _ in 0..8 {
            c.on_auto_refresh(BankId(0), Time::ZERO);
        }
        let r = c.on_activate(BankId(0), RowId(5), Time::ZERO);
        assert!(r.refresh_rows.is_empty(), "window reset must clear counts");
    }

    #[test]
    fn cache_occupancy_is_bounded() {
        let mut c = Cra::new(8, 1000, 1, 100);
        for i in 0..1000u32 {
            c.on_activate(BankId(0), RowId(i), Time::ZERO);
        }
        assert!(c.table_occupancy(BankId(0)).unwrap() <= 8 + 1);
    }
}
