//! Graphene: exact heavy-hitter tracking via Misra–Gries
//! ([Park et al., MICRO 2020] — the direct follow-up to TWiCe).
//!
//! Where TWiCe bounds its table by *pruning* time-window counters,
//! Graphene applies the Misra–Gries frequent-item theorem: a table of
//! `k` counters with decrement-on-full **underestimates** any row's true
//! count by at most `W / (k + 1)` over a window of `W` activations.
//! Sizing `k` so that `W / (k + 1) + threshold ≤ N_th/2` gives the same
//! deterministic no-false-negative guarantee as TWiCe with a different
//! area/accuracy trade-off — and, unlike the small vendor-TRR tracker
//! ([`crate::trr`]), it cannot be evaded by rotating aggressors.
//!
//! Implemented here as a per-bank Misra–Gries table with a spillover
//! counter; a tracked row whose (under)count reaches the activation
//! threshold triggers an ARR and resets, and the table resets every
//! refresh window like TWiCe's accounting.

use std::collections::HashMap;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{
    BankId, DefensePressure, DefenseResponse, Detection, RowHammerDefense, RowId, Time,
};

/// The Graphene defense.
#[derive(Debug, Clone)]
pub struct Graphene {
    /// Activation threshold triggering an ARR (TWiCe's `thRH` analog).
    threshold: u64,
    /// Counter-table entries per bank (`k`).
    entries: usize,
    refs_per_window: u64,
    banks: Vec<GrapheneBank>,
    /// Detections fired (pressure introspection).
    fired: u64,
    name: String,
}

#[derive(Debug, Clone, Default)]
struct GrapheneBank {
    /// row -> estimated count (Misra–Gries summary).
    counts: HashMap<u32, u64>,
    /// The global decrement applied when the table is full ("spillover").
    spillover: u64,
    refs_seen: u64,
}

impl Graphene {
    /// Creates Graphene with `entries` counters per bank and activation
    /// threshold `threshold`, resetting every `refs_per_window`
    /// auto-refreshes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(entries: usize, threshold: u64, num_banks: u32, refs_per_window: u64) -> Graphene {
        assert!(entries > 0, "need at least one counter");
        assert!(threshold > 0, "threshold must be non-zero");
        assert!(num_banks > 0, "need at least one bank");
        assert!(refs_per_window > 0, "refs_per_window must be non-zero");
        Graphene {
            name: format!("Graphene-{entries}"),
            threshold,
            entries,
            refs_per_window,
            banks: vec![GrapheneBank::default(); num_banks as usize],
            fired: 0,
        }
    }

    /// Sizes the table for the §4-style guarantee: over a window of at
    /// most `window_acts` activations, Misra–Gries underestimates by at
    /// most `window_acts / (k+1)`; choosing
    /// `k = window_acts / threshold` keeps the error within one
    /// threshold, so detection fires before `2·threshold` true
    /// activations — the same `N_th/4` margin TWiCe uses.
    pub fn sized_for(
        window_acts: u64,
        threshold: u64,
        num_banks: u32,
        refs_per_window: u64,
    ) -> Graphene {
        let entries = (window_acts / threshold.max(1)).max(1) as usize;
        Graphene::new(entries, threshold, num_banks, refs_per_window)
    }

    /// Counter-table entries per bank.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Current tracked-row count for `bank` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn occupancy(&self, bank: BankId) -> usize {
        self.banks[bank.index()].counts.len()
    }
}

impl RowHammerDefense for Graphene {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        let threshold = self.threshold;
        let capacity = self.entries;
        let b = &mut self.banks[bank.index()];
        let count = if let Some(c) = b.counts.get_mut(&row.0) {
            *c += 1;
            *c
        } else if b.counts.len() < capacity {
            // Misra–Gries insert: a new row starts at spillover + 1 (its
            // true count is at most that, given the decrements applied).
            let c = b.spillover + 1;
            b.counts.insert(row.0, c);
            c
        } else {
            // Table full: the classic decrement-all step, implemented as
            // an O(1) spillover increment with lazy eviction.
            b.spillover += 1;
            let floor = b.spillover;
            b.counts.retain(|_, c| *c > floor);
            return DefenseResponse::none();
        };
        if count >= threshold {
            b.counts.remove(&row.0);
            self.fired += 1;
            return DefenseResponse {
                detection: Some(Detection {
                    bank,
                    row,
                    at: now,
                    act_count: count,
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
            b.spillover = 0;
        }
        DefenseResponse::none()
    }

    fn reset(&mut self) {
        for b in &mut self.banks {
            *b = GrapheneBank::default();
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
        DefensePressure::from_counter(hottest, self.threshold, self.fired)
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        Some(self.banks[bank.index()].counts.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.fired);
        w.put_usize(self.banks.len());
        for b in &self.banks {
            w.put_u64(b.spillover);
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
                "Graphene has {} banks, snapshot has {banks}",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.spillover = r.take_u64()?;
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
    fn single_hammer_is_detected_at_threshold() {
        let mut g = Graphene::new(64, 100, 1, 10_000);
        let mut arrs = 0;
        for _ in 0..1_000 {
            if g.on_activate(BankId(0), RowId(7), Time::ZERO).arr.is_some() {
                arrs += 1;
            }
        }
        assert_eq!(arrs, 10);
    }

    #[test]
    fn rotation_cannot_evade_a_correctly_sized_table() {
        // 16 rotating aggressors against a table sized for the window:
        // unlike the small TRR tracker, every aggressor is caught.
        let window_acts = 32_000u64;
        let threshold = 1_000u64;
        let mut g = Graphene::sized_for(window_acts, threshold, 1, 1_000_000);
        assert_eq!(g.entries(), 32);
        let mut detected = std::collections::HashSet::new();
        for i in 0..window_acts {
            let row = RowId((i % 16) as u32 * 10);
            if let Some(d) = g.on_activate(BankId(0), row, Time::ZERO).detection {
                detected.insert(d.row);
            }
        }
        assert_eq!(detected.len(), 16, "every rotating aggressor detected");
    }

    #[test]
    fn table_occupancy_is_bounded() {
        let mut g = Graphene::new(8, 1_000, 1, 10_000);
        for i in 0..10_000u32 {
            g.on_activate(BankId(0), RowId(i), Time::ZERO);
        }
        assert!(g.occupancy(BankId(0)) <= 8);
    }

    #[test]
    fn underestimate_is_bounded_by_window_over_k_plus_one() {
        // The Misra-Gries theorem, checked empirically: after W acts on a
        // k-entry table, a row with true count T is tracked with count
        // >= T - W/(k+1) (here: it must still be detected).
        let k = 31usize;
        let threshold = 500u64;
        let mut g = Graphene::new(k, threshold, 1, 1_000_000);
        let w = 8_000u64;
        let mut rng = twice_common::rng::SplitMix64::new(5);
        let mut hot_detected = false;
        for i in 0..w {
            // Hot row gets 1/8 of traffic (1000 acts: > threshold +
            // W/(k+1) = 500 + 250); noise spreads over many rows.
            let row = if i % 8 == 0 {
                RowId(1)
            } else {
                RowId(rng.next_below(4_000) as u32 + 10)
            };
            hot_detected |= g
                .on_activate(BankId(0), row, Time::ZERO)
                .detection
                .map(|d| d.row == RowId(1))
                .unwrap_or(false);
        }
        assert!(hot_detected, "the heavy hitter must not slip through");
    }

    #[test]
    fn window_reset_clears_state() {
        let mut g = Graphene::new(8, 1_000, 1, 4);
        g.on_activate(BankId(0), RowId(1), Time::ZERO);
        for _ in 0..4 {
            g.on_auto_refresh(BankId(0), Time::ZERO);
        }
        assert_eq!(g.occupancy(BankId(0)), 0);
    }

    #[test]
    fn banks_are_independent() {
        let mut g = Graphene::new(8, 1_000, 2, 100);
        g.on_activate(BankId(0), RowId(1), Time::ZERO);
        assert_eq!(g.occupancy(BankId(0)), 1);
        assert_eq!(g.occupancy(BankId(1)), 0);
    }
}
