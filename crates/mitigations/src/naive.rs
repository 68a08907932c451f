//! The exact per-row-counter oracle.
//!
//! One unbounded counter per row per bank — the "naïve counter-based
//! solution" of §3.3 whose cost TWiCe exists to avoid. It is *exactly*
//! as protective as TWiCe is claimed to be (refresh neighbors at `thRH`,
//! reset each window), so tests use it as the golden model: TWiCe must
//! never detect later than the oracle by more than the pruning slack the
//! §4.3 proof allows.
//!
//! Unlike the MC-side baselines, the oracle requests an **ARR** so the
//! device resolves physical adjacency — it is an idealized defense.

use std::collections::HashMap;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{
    BankId, DefensePressure, DefenseResponse, Detection, RowHammerDefense, RowId, Time,
};

/// The exact per-row counting oracle.
#[derive(Debug, Clone)]
pub struct PerRowOracle {
    th_rh: u64,
    refs_per_window: u64,
    banks: Vec<OracleBank>,
    /// Detections fired (pressure introspection).
    fired: u64,
}

#[derive(Debug, Clone, Default)]
struct OracleBank {
    counts: HashMap<u32, u64>,
    refs_seen: u64,
}

impl PerRowOracle {
    /// Creates an oracle with detection threshold `th_rh`, resetting
    /// counters every `refs_per_window` auto-refreshes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(th_rh: u64, num_banks: u32, refs_per_window: u64) -> PerRowOracle {
        assert!(th_rh > 0, "threshold must be non-zero");
        assert!(num_banks > 0, "need at least one bank");
        assert!(refs_per_window > 0, "refs_per_window must be non-zero");
        PerRowOracle {
            th_rh,
            refs_per_window,
            banks: vec![OracleBank::default(); num_banks as usize],
            fired: 0,
        }
    }

    /// The exact count for `row` in the current window.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn count_of(&self, bank: BankId, row: RowId) -> u64 {
        self.banks[bank.index()]
            .counts
            .get(&row.0)
            .copied()
            .unwrap_or(0)
    }
}

impl RowHammerDefense for PerRowOracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        let b = &mut self.banks[bank.index()];
        let count = b.counts.entry(row.0).or_insert(0);
        *count += 1;
        if *count >= self.th_rh {
            let act_count = *count;
            b.counts.remove(&row.0);
            self.fired += 1;
            return DefenseResponse {
                detection: Some(Detection {
                    bank,
                    row,
                    at: now,
                    act_count,
                }),
                ..DefenseResponse::arr(row)
            };
        }
        DefenseResponse::none()
    }

    fn on_auto_refresh(&mut self, bank: BankId, _now: Time) -> DefenseResponse {
        let b = &mut self.banks[bank.index()];
        b.refs_seen += 1;
        if b.refs_seen.is_multiple_of(self.refs_per_window) {
            b.counts.clear();
        }
        DefenseResponse::none()
    }

    fn reset(&mut self) {
        for b in &mut self.banks {
            *b = OracleBank::default();
        }
        self.fired = 0;
    }

    fn pressure(&self) -> DefensePressure {
        let hottest = self
            .banks
            .iter()
            .flat_map(|b| b.counts.values().copied())
            .max()
            .unwrap_or(0);
        DefensePressure::from_counter(hottest, self.th_rh, self.fired)
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        Some(self.banks[bank.index()].counts.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.fired);
        w.put_usize(self.banks.len());
        for b in &self.banks {
            w.put_u64(b.refs_seen);
            let mut counts: Vec<(u32, u64)> = b.counts.iter().map(|(&r, &c)| (r, c)).collect();
            counts.sort_unstable();
            w.put_usize(counts.len());
            for (row, count) in counts {
                w.put_u32(row);
                w.put_u64(count);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.fired = r.take_u64()?;
        let banks = r.take_usize()?;
        if banks != self.banks.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "oracle has {} banks, snapshot has {banks}",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.refs_seen = r.take_u64()?;
            b.counts.clear();
            let n = r.take_usize()?;
            for _ in 0..n {
                let row = r.take_u32()?;
                let count = r.take_u64()?;
                b.counts.insert(row, count);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_exactly_at_threshold() {
        let mut o = PerRowOracle::new(10, 1, 100);
        for i in 1..10 {
            let r = o.on_activate(BankId(0), RowId(5), Time::ZERO);
            assert!(r.is_none(), "act {i}");
        }
        let r = o.on_activate(BankId(0), RowId(5), Time::ZERO);
        assert_eq!(r.arr, Some(RowId(5)));
        assert_eq!(r.detection.unwrap().act_count, 10);
        assert_eq!(o.count_of(BankId(0), RowId(5)), 0, "retired after ARR");
    }

    #[test]
    fn window_reset_forgives_counts() {
        let mut o = PerRowOracle::new(10, 1, 4);
        for _ in 0..9 {
            o.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        for _ in 0..4 {
            o.on_auto_refresh(BankId(0), Time::ZERO);
        }
        assert_eq!(o.count_of(BankId(0), RowId(5)), 0);
    }

    #[test]
    fn tracks_every_row_exactly() {
        let mut o = PerRowOracle::new(1000, 1, 100);
        for i in 0..100u32 {
            for _ in 0..=i {
                o.on_activate(BankId(0), RowId(i), Time::ZERO);
            }
        }
        for i in 0..100u32 {
            assert_eq!(o.count_of(BankId(0), RowId(i)), u64::from(i) + 1);
        }
        assert_eq!(o.table_occupancy(BankId(0)), Some(100));
    }
}
