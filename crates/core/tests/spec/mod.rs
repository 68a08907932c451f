//! An executable specification of the three TWiCe counter-table
//! organizations: the oracle the struct-of-arrays tables in `twice::soa`
//! are tested against.
//!
//! Entries live in a plain slot vector and everything else is derived
//! from it on demand: a lookup is a linear scan, pa-TWiCe's
//! set-borrowing indicators are recounted from the slots, and a prune
//! checks and ages every entry eagerly (§4.2 step 4). The spec models
//! only what a table exposes: counts and lives, `TableFull`, parity
//! marks and scrub victims; pa's preferred-set placement and probe
//! counts ([`PaStats`], which feed the A1 energy model); and split's
//! short/long placement, LIFO free-slot order and promotion victim.
//! fa-TWiCe is the unmetered one-set case of the set layout: where an
//! entry sits inside a set is not observable.

use std::collections::BTreeSet;
use twice::soa::PaStats;
use twice::table::{CounterTable, RecordOutcome};
use twice::TableEntry;
use twice_common::RowId;

/// One organization's observable behavior. See the module docs.
#[derive(Debug, Clone)]
pub struct Spec {
    th_pi: u64,
    /// pa sets (1 for fa and split); only pa meters its lookups.
    sets: usize,
    metered: bool,
    /// Split: slots `0..short` are short entries (0 for fa and pa).
    short: usize,
    slots: Vec<Option<TableEntry>>,
    /// Split: the short and long free-slot stacks.
    free: [Vec<usize>; 2],
    /// Tracked rows whose stored parity no longer matches the count.
    corrupt: BTreeSet<u32>,
    parity: bool,
    /// pa probe statistics (zero for fa and split).
    pub stats: PaStats,
    /// Split promotions and spills (zero for fa and pa).
    pub promotions: u64,
    pub spills: u64,
}

impl Spec {
    fn new(th_pi: u64, sets: usize, metered: bool, short: usize, capacity: usize) -> Spec {
        Spec {
            th_pi,
            sets,
            metered,
            short,
            slots: vec![None; capacity],
            free: [
                (0..short).rev().collect(),
                (short..capacity).rev().collect(),
            ],
            corrupt: BTreeSet::new(),
            parity: true,
            stats: PaStats::default(),
            promotions: 0,
            spills: 0,
        }
    }

    /// fa-TWiCe with `capacity` entries.
    pub fn fa(capacity: usize, th_pi: u64) -> Spec {
        Spec::new(th_pi, 1, false, 0, capacity)
    }

    /// pa-TWiCe with `sets × ways` entries.
    pub fn pa(sets: usize, ways: usize, th_pi: u64) -> Spec {
        Spec::new(th_pi, sets, true, 0, sets * ways)
    }

    /// The split table with `short` + `long` entries.
    pub fn split(short: usize, long: usize, th_pi: u64) -> Spec {
        Spec::new(th_pi, 1, false, short, short + long)
    }

    fn set_slots(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.slots.len() / self.sets;
        set * ways..(set + 1) * ways
    }

    fn find(&self, row: RowId) -> Option<usize> {
        self.slots
            .iter()
            .position(|e| e.is_some_and(|e| e.row == row))
    }

    /// Meters a pa lookup of `row` (Figure 6): the preferred set, then
    /// each other set whose set-borrowing indicator for it is non-zero,
    /// up to the hit. `note` also classifies it for the energy model.
    fn meter_lookup(&mut self, row: RowId, note: bool) {
        if !self.metered {
            return;
        }
        let pref = row.index() % self.sets;
        let home = self.find(row).map(|s| s / self.set_slots(0).len());
        let mut probes = 1;
        if home != Some(pref) {
            for set in (0..self.sets).filter(|&s| s != pref) {
                let hosts = self.slots[self.set_slots(set)]
                    .iter()
                    .flatten()
                    .any(|e| e.row.index() % self.sets == pref);
                if hosts {
                    probes += 1;
                    if home == Some(set) {
                        break;
                    }
                }
            }
        }
        self.stats.set_probes += probes;
        if note && probes > 1 {
            self.stats.extended += 1;
        } else if note {
            self.stats.preferred_only += 1;
        }
    }

    /// Picks a slot for `entry`; `fresh` marks a first ACT rather than a
    /// snapshot restore (only fresh placements count as spills or
    /// borrowed insertions).
    fn place(&mut self, entry: TableEntry, fresh: bool) -> Option<usize> {
        let slot = if self.short > 0 {
            let proven = !fresh && (entry.life > 1 || entry.act_cnt >= self.th_pi);
            let [s, l] = &mut self.free;
            let slot = if proven {
                l.pop().or_else(|| s.pop())
            } else {
                s.pop().or_else(|| l.pop())
            }?;
            self.spills += u64::from(fresh && slot >= self.short);
            slot
        } else {
            // The preferred set first (Figure 6 step 4), then borrow
            // from the lowest-numbered set with a free way.
            let pref = entry.row.index() % self.sets;
            let set = std::iter::once(pref)
                .chain((0..self.sets).filter(|&s| s != pref))
                .find(|&s| self.set_slots(s).any(|i| self.slots[i].is_none()))?;
            if set != pref && fresh {
                self.stats.borrowed_insertions += 1;
            }
            self.set_slots(set).find(|&i| self.slots[i].is_none())?
        };
        self.slots[slot] = Some(entry);
        Some(slot)
    }

    /// Moves the short entry at `slot` into the long sub-table: into a
    /// free long slot, else swapped with the first spilled fresh entry.
    fn promote(&mut self, slot: usize) -> bool {
        let th_pi = self.th_pi;
        let long = self.free[1].pop().or_else(|| {
            (self.short..self.slots.len())
                .find(|&l| self.slots[l].is_some_and(|e| e.life == 1 && e.act_cnt < th_pi))
        });
        let Some(long) = long else { return false };
        if self.slots[long].is_none() {
            self.free[0].push(slot);
        }
        self.slots.swap(slot, long);
        self.promotions += 1;
        true
    }

    fn kill(&mut self, slot: usize) {
        let e = self.slots[slot].take().expect("kill of a free slot");
        self.corrupt.remove(&e.row.0);
        if self.short > 0 {
            self.free[usize::from(slot >= self.short)].push(slot);
        }
    }
}

impl CounterTable for Spec {
    fn record_act(&mut self, row: RowId) -> RecordOutcome {
        self.meter_lookup(row, true);
        let Some(slot) = self.find(row) else {
            return match self.place(TableEntry::new(row), true) {
                Some(_) => RecordOutcome::Counted { act_cnt: 1 },
                None => RecordOutcome::TableFull,
            };
        };
        if self.parity && self.corrupt.contains(&row.0) {
            return RecordOutcome::Corrupted;
        }
        // A legitimate read-modify-write rewrites the parity bit.
        self.corrupt.remove(&row.0);
        let e = self.slots[slot].as_mut().expect("found slot");
        e.act_cnt += 1;
        let act_cnt = e.act_cnt;
        if slot < self.short && act_cnt >= self.th_pi && !self.promote(slot) {
            return RecordOutcome::TableFull;
        }
        RecordOutcome::Counted { act_cnt }
    }

    fn remove(&mut self, row: RowId) {
        self.meter_lookup(row, false);
        if let Some(slot) = self.find(row) {
            self.kill(slot);
        }
    }

    fn prune(&mut self, th_pi: u64) {
        // Every entry is judged on its pre-prune life and aged once, a
        // short survivor that moves to a long slot included. Kills and
        // moves run in ascending slot order, so the split free stacks
        // see shorts before longs.
        for (slot, e) in self.slots.clone().into_iter().enumerate() {
            match e.map(|e| e.pruned(th_pi)) {
                None => {}
                Some(None) => self.kill(slot),
                Some(aged) => {
                    self.slots[slot] = aged;
                    // A short survivor has proven itself: it moves to a
                    // free long slot if there is one, else stays short.
                    if slot < self.short {
                        if let Some(l) = self.free[1].pop() {
                            self.slots.swap(slot, l);
                            self.free[0].push(slot);
                        }
                    }
                }
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn get(&self, row: RowId) -> Option<TableEntry> {
        self.find(row).and_then(|s| self.slots[s])
    }

    fn entries_into(&self, out: &mut Vec<TableEntry>) {
        out.clear();
        out.extend(self.slots.iter().flatten());
    }

    fn clear(&mut self) {
        let cap = self.slots.len();
        let empty = Spec::new(self.th_pi, self.sets, self.metered, self.short, cap);
        (self.slots, self.free, self.corrupt) = (empty.slots, empty.free, empty.corrupt);
    }

    fn set_parity_checking(&mut self, enabled: bool) {
        self.parity = enabled;
    }

    fn inject_bit_flip(&mut self, row: RowId, bit: u32) -> bool {
        let Some(slot) = self.find(row) else {
            return false;
        };
        self.slots[slot].as_mut().expect("found slot").act_cnt ^= 1 << bit;
        // Single-bit parity: a second upset of the same word cancels.
        if !self.corrupt.remove(&row.0) {
            self.corrupt.insert(row.0);
        }
        true
    }

    fn scrub_into(&mut self, out: &mut Vec<RowId>) {
        out.clear();
        if self.parity {
            out.extend(self.corrupted_rows());
            out.iter().for_each(|&row| self.remove(row));
        }
    }

    fn insert_entry(&mut self, entry: TableEntry) -> bool {
        self.find(entry.row).is_none() && self.place(entry, false).is_some()
    }

    fn corrupted_rows(&self) -> Vec<RowId> {
        self.corrupt.iter().map(|&r| RowId(r)).collect()
    }

    fn mark_corrupted(&mut self, row: RowId) {
        if self.find(row).is_some() {
            self.corrupt.insert(row.0);
        }
    }
}
