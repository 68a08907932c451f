//! PRoHIT: probabilistic protection with a history table
//! ([Son et al., DAC'17], as summarized in §3.3 of the TWiCe paper).
//!
//! PRoHIT extends PARA with a small table that remembers recently (and
//! frequently) activated rows, so that the adjacent rows of *hot* rows
//! are refreshed with higher probability than a memoryless coin allows.
//! The published mechanism keeps the table probabilistically: on an ACT,
//! a miss inserts the row with probability `p_insert` (evicting the
//! lowest-priority entry), a hit promotes the entry; on each ACT, with
//! probability `p_refresh`, the top entry is retired and its neighbors
//! are refreshed.
//!
//! Like PARA it is attack-oblivious (no detection) and probabilistic (no
//! deterministic guarantee).

use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{BankId, DefenseResponse, RowHammerDefense, RowId, Time};

/// The PRoHIT defense.
#[derive(Debug, Clone)]
pub struct Prohit {
    p_insert: f64,
    p_refresh: f64,
    capacity: usize,
    /// History entries `(row, hits-while-resident)`, per bank.
    tables: Vec<Vec<(RowId, u32)>>,
    rng: SplitMix64,
}

impl Prohit {
    /// Creates PRoHIT with the given table size and probabilities for
    /// `num_banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `num_banks` is zero, or a probability is
    /// outside `[0, 1]`.
    pub fn new(
        capacity: usize,
        p_insert: f64,
        p_refresh: f64,
        num_banks: u32,
        seed: u64,
    ) -> Prohit {
        assert!(capacity > 0, "history table must have entries");
        assert!(num_banks > 0, "need at least one bank");
        assert!((0.0..=1.0).contains(&p_insert), "p_insert must be in [0,1]");
        assert!(
            (0.0..=1.0).contains(&p_refresh),
            "p_refresh must be in [0,1]"
        );
        Prohit {
            p_insert,
            p_refresh,
            capacity,
            tables: vec![Vec::with_capacity(capacity); num_banks as usize],
            rng: SplitMix64::new(seed),
        }
    }

    /// The DAC'17 default-flavor configuration: a 16-entry table,
    /// insert probability 0.1, refresh probability `p`.
    pub fn with_defaults(p: f64, num_banks: u32, seed: u64) -> Prohit {
        Prohit::new(16, 0.1, p, num_banks, seed)
    }

    /// Current history occupancy of `bank` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn history_len(&self, bank: BankId) -> usize {
        self.tables[bank.index()].len()
    }
}

impl RowHammerDefense for Prohit {
    fn name(&self) -> &str {
        "PRoHIT"
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, _now: Time) -> DefenseResponse {
        let table = &mut self.tables[bank.index()];
        match table.iter_mut().find(|(r, _)| *r == row) {
            Some((_, hits)) => *hits += 1, // promote
            None => {
                if self.rng.chance(self.p_insert) {
                    if table.len() == self.capacity {
                        // Evict the lowest-priority (fewest-hit) entry.
                        let coldest = table
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (_, hits))| *hits)
                            .map(|(i, _)| i)
                            .expect("table is full, hence non-empty");
                        table.swap_remove(coldest);
                    }
                    table.push((row, 1));
                }
            }
        }
        if !table.is_empty() && self.rng.chance(self.p_refresh) {
            // Retire the highest-priority (most-hit) entry.
            let hottest = table
                .iter()
                .enumerate()
                .max_by_key(|(_, (_, hits))| *hits)
                .map(|(i, _)| i)
                .expect("checked non-empty");
            let (hot, _) = table.swap_remove(hottest);
            let victims: Vec<RowId> = [hot.below(), hot.above()].into_iter().flatten().collect();
            return DefenseResponse {
                refresh_rows: victims,
                ..DefenseResponse::default()
            };
        }
        DefenseResponse::none()
    }

    fn reset(&mut self) {
        self.tables.iter_mut().for_each(Vec::clear);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.rng.state());
        w.put_usize(self.tables.len());
        // Entry order is behavioral (swap_remove ties break by position),
        // so the tables are saved verbatim, not canonicalized.
        for table in &self.tables {
            w.put_usize(table.len());
            for &(row, hits) in table {
                w.put_u32(row.0);
                w.put_u32(hits);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        let banks = r.take_usize()?;
        if banks != self.tables.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "PRoHIT has {} banks, snapshot has {banks}",
                self.tables.len()
            )));
        }
        for table in &mut self.tables {
            table.clear();
            let n = r.take_usize()?;
            for _ in 0..n {
                let row = RowId(r.take_u32()?);
                let hits = r.take_u32()?;
                table.push((row, hits));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_rows_are_preferentially_refreshed() {
        let mut p = Prohit::new(8, 1.0, 0.05, 1, 42);
        let mut hot_refreshes = 0u64;
        let mut cold_refreshes = 0u64;
        let mut x = SplitMix64::new(7);
        for i in 0..200_000u64 {
            // Row 100 is hammered; others are background noise.
            let row = if i % 2 == 0 {
                RowId(100)
            } else {
                RowId((x.next_below(1000) + 200) as u32)
            };
            let r = p.on_activate(BankId(0), row, Time::ZERO);
            for v in &r.refresh_rows {
                if *v == RowId(99) || *v == RowId(101) {
                    hot_refreshes += 1;
                } else {
                    cold_refreshes += 1;
                }
            }
        }
        assert!(hot_refreshes > 0, "the hot row must be refreshed");
        assert!(
            hot_refreshes > cold_refreshes,
            "hot {hot_refreshes} vs cold {cold_refreshes}: history must bias toward hot rows"
        );
    }

    #[test]
    fn refresh_rate_tracks_p_refresh() {
        let mut p = Prohit::new(8, 1.0, 0.01, 1, 3);
        let n = 200_000u64;
        let mut triggers = 0u64;
        for i in 0..n {
            let r = p.on_activate(BankId(0), RowId((i % 50) as u32 + 1), Time::ZERO);
            if !r.refresh_rows.is_empty() {
                triggers += 1;
            }
        }
        let rate = triggers as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.003, "trigger rate {rate}");
    }

    #[test]
    fn table_is_bounded() {
        let mut p = Prohit::new(4, 1.0, 0.0, 1, 5);
        for i in 0..100 {
            p.on_activate(BankId(0), RowId(i), Time::ZERO);
        }
        assert_eq!(p.history_len(BankId(0)), 4);
    }

    #[test]
    fn banks_are_independent() {
        let mut p = Prohit::new(4, 1.0, 0.0, 2, 5);
        p.on_activate(BankId(0), RowId(1), Time::ZERO);
        assert_eq!(p.history_len(BankId(0)), 1);
        assert_eq!(p.history_len(BankId(1)), 0);
    }

    #[test]
    fn reset_clears_history() {
        let mut p = Prohit::new(4, 1.0, 0.0, 1, 5);
        p.on_activate(BankId(0), RowId(1), Time::ZERO);
        p.reset();
        assert_eq!(p.history_len(BankId(0)), 0);
    }

    #[test]
    fn never_detects() {
        let mut p = Prohit::with_defaults(0.5, 1, 1);
        for i in 0..1000 {
            let r = p.on_activate(BankId(0), RowId(i % 3), Time::ZERO);
            assert!(r.detection.is_none());
        }
    }
}
