//! TRR: an in-DRAM Target Row Refresh model.
//!
//! DDR4/LPDDR4 expose a *target row refresh* mode whose aggressor
//! identification is vendor-secret (§8 of the TWiCe paper: "there is no
//! detail on how to count the number of ACTs to each row … TWiCe fills
//! this gap"). What vendors shipped is known, post-TRRespass, to
//! resemble a **small heavy-hitter tracker**: a handful of in-DRAM
//! entries following a Misra–Gries-style frequent-item sketch, with the
//! tracked rows' neighbors refreshed once a count reaches the MAC
//! (maximum activation count).
//!
//! That design detects any *single* dominant aggressor, but a
//! **many-sided** attack that rotates more aggressors than the tracker
//! has entries keeps every per-row share below the sketch's detection
//! floor — exactly how real TRR was defeated. This model exists to make
//! that gap measurable against TWiCe (see the `trr_gap` tests): TWiCe's
//! table is sized so that *every* possible aggressor is tracked, so
//! rotation does not help the attacker.
//!
//! Being in-DRAM, TRR resolves physical adjacency itself; it uses the
//! ARR response channel like TWiCe does.

use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{
    BankId, DefensePressure, DefenseResponse, Detection, RowHammerDefense, RowId, Time,
};

/// One tracker entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    row: RowId,
    count: u64,
}

/// The TRR defense model.
#[derive(Debug, Clone)]
pub struct Trr {
    entries: usize,
    mac: u64,
    refs_per_window: u64,
    banks: Vec<TrrBank>,
    /// TRR refreshes fired (pressure introspection).
    fired: u64,
    name: String,
}

#[derive(Debug, Clone, Default)]
struct TrrBank {
    slots: Vec<Slot>,
    refs_seen: u64,
}

impl Trr {
    /// Creates a TRR model with `entries` tracker slots per bank and a
    /// maximum activation count of `mac`, resetting every
    /// `refs_per_window` auto-refreshes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(entries: usize, mac: u64, num_banks: u32, refs_per_window: u64) -> Trr {
        assert!(entries > 0, "tracker needs entries");
        assert!(mac > 0, "MAC must be non-zero");
        assert!(num_banks > 0, "need at least one bank");
        assert!(refs_per_window > 0, "refs_per_window must be non-zero");
        Trr {
            name: format!("TRR-{entries}"),
            entries,
            mac,
            refs_per_window,
            banks: vec![TrrBank::default(); num_banks as usize],
            fired: 0,
        }
    }

    /// Rows currently tracked in `bank` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn tracked(&self, bank: BankId) -> Vec<RowId> {
        self.banks[bank.index()]
            .slots
            .iter()
            .map(|s| s.row)
            .collect()
    }
}

impl RowHammerDefense for Trr {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        let mac = self.mac;
        let capacity = self.entries;
        let b = &mut self.banks[bank.index()];
        // Misra-Gries update.
        if let Some(slot) = b.slots.iter_mut().find(|s| s.row == row) {
            slot.count += 1;
            if slot.count >= mac {
                let aggressor = slot.row;
                slot.count = 0;
                self.fired += 1;
                return DefenseResponse {
                    detection: Some(Detection {
                        bank,
                        row: aggressor,
                        at: now,
                        act_count: mac,
                    }),
                    ..DefenseResponse::arr(aggressor)
                };
            }
        } else if b.slots.len() < capacity {
            b.slots.push(Slot { row, count: 1 });
        } else {
            // Decrement-all: untracked activations bleed every counter.
            for slot in &mut b.slots {
                slot.count = slot.count.saturating_sub(1);
            }
            b.slots.retain(|s| s.count > 0);
        }
        DefenseResponse::none()
    }

    fn on_auto_refresh(&mut self, bank: BankId, _now: Time) -> DefenseResponse {
        let b = &mut self.banks[bank.index()];
        b.refs_seen += 1;
        if b.refs_seen.is_multiple_of(self.refs_per_window) {
            b.slots.clear();
        }
        DefenseResponse::none()
    }

    fn reset(&mut self) {
        for b in &mut self.banks {
            *b = TrrBank::default();
        }
        self.fired = 0;
    }

    fn pressure(&self) -> DefensePressure {
        let hottest = self
            .banks
            .iter()
            .flat_map(|b| b.slots.iter().map(|s| s.count))
            .max()
            .unwrap_or(0);
        DefensePressure::from_counter(hottest, self.mac, self.fired)
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        Some(self.banks[bank.index()].slots.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.fired);
        w.put_usize(self.banks.len());
        // Slot order is the tracker's insertion order; saved verbatim.
        for b in &self.banks {
            w.put_u64(b.refs_seen);
            w.put_usize(b.slots.len());
            for slot in &b.slots {
                w.put_u32(slot.row.0);
                w.put_u64(slot.count);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.fired = r.take_u64()?;
        let banks = r.take_usize()?;
        if banks != self.banks.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "TRR has {} banks, snapshot has {banks}",
                self.banks.len()
            )));
        }
        for b in &mut self.banks {
            b.refs_seen = r.take_u64()?;
            let n = r.take_usize()?;
            b.slots.clear();
            for _ in 0..n {
                let row = RowId(r.take_u32()?);
                let count = r.take_u64()?;
                b.slots.push(Slot { row, count });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_aggressor_is_caught_at_mac() {
        let mut trr = Trr::new(4, 100, 1, 1000);
        let mut arrs = 0;
        for _ in 0..1000 {
            if trr
                .on_activate(BankId(0), RowId(7), Time::ZERO)
                .arr
                .is_some()
            {
                arrs += 1;
            }
        }
        assert_eq!(arrs, 10, "ARR every MAC activations");
    }

    #[test]
    fn tracker_is_bounded() {
        let mut trr = Trr::new(4, 100, 1, 1000);
        for i in 0..100 {
            trr.on_activate(BankId(0), RowId(i), Time::ZERO);
        }
        assert!(trr.tracked(BankId(0)).len() <= 4);
    }

    #[test]
    fn rotation_beyond_tracker_size_evades_detection() {
        // 8 aggressors vs 4 slots: decrement-all keeps every count near
        // zero, so no aggressor ever reaches the MAC.
        let mut trr = Trr::new(4, 100, 1, 1_000_000);
        let mut arrs = 0;
        for i in 0..80_000u32 {
            let row = RowId(10 * (i % 8));
            if trr.on_activate(BankId(0), row, Time::ZERO).arr.is_some() {
                arrs += 1;
            }
        }
        assert_eq!(arrs, 0, "many-sided rotation must slip past TRR");
    }

    #[test]
    fn rotation_within_tracker_size_is_still_caught() {
        let mut trr = Trr::new(4, 100, 1, 1_000_000);
        let mut arrs = 0;
        for i in 0..4_000u32 {
            let row = RowId(10 * (i % 3));
            if trr.on_activate(BankId(0), row, Time::ZERO).arr.is_some() {
                arrs += 1;
            }
        }
        assert!(arrs > 0, "3 aggressors fit in 4 slots");
    }

    #[test]
    fn window_reset_clears_the_tracker() {
        let mut trr = Trr::new(4, 100, 1, 8);
        trr.on_activate(BankId(0), RowId(1), Time::ZERO);
        for _ in 0..8 {
            trr.on_auto_refresh(BankId(0), Time::ZERO);
        }
        assert!(trr.tracked(BankId(0)).is_empty());
    }
}
