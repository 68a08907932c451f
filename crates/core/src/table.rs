//! The counter-table abstraction shared by all TWiCe organizations.
//!
//! fa-TWiCe ([`crate::soa::SoaFa`]), pa-TWiCe ([`crate::soa::SoaPa`]) and
//! the split table ([`crate::soa::SoaSplit`]) are different *hardware
//! layouts* of the same algorithmic object; they must make identical
//! tracking decisions. The [`CounterTable`] trait captures that object.
//! The equivalence is tested in [`crate::engine`], and each layout is
//! checked against a test-only executable spec (`tests/spec/mod.rs`).

use crate::entry::TableEntry;
use twice_common::RowId;

/// Outcome of recording one activation in a counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The row's entry now holds `act_cnt` activations (1 if freshly
    /// inserted).
    Counted {
        /// The entry's activation count after this ACT.
        act_cnt: u64,
    },
    /// No free entry was available. Cannot occur for tables sized by
    /// [`crate::bound::CapacityBound`] under DDR-legal streams (that is
    /// the paper's §4.4 claim, and it is property-tested); the engine
    /// treats it as an immediate detection as a defensive fallback.
    TableFull,
    /// The row's stored entry failed its parity check when read (a
    /// single-event upset corrupted the count since the last legitimate
    /// write). The entry's value is untrustworthy; the engine fails safe
    /// by treating the row as detected, exactly like `TableFull`.
    ///
    /// Only reported by tables with parity checking enabled
    /// ([`CounterTable::set_parity_checking`]).
    Corrupted,
}

/// A bounded table of per-row activation counters with TWiCe pruning.
pub trait CounterTable {
    /// Records one ACT on `row`: increments its entry, inserting a fresh
    /// one if the row is untracked.
    fn record_act(&mut self, row: RowId) -> RecordOutcome;

    /// Removes the entry for `row` (after the engine issues its ARR).
    fn remove(&mut self, row: RowId);

    /// End-of-PI pruning (§4.2 step 4): drops entries with
    /// `act_cnt < thPI × life`, ages the survivors.
    fn prune(&mut self, th_pi: u64);

    /// Number of valid entries.
    fn occupancy(&self) -> usize;

    /// Total entry slots.
    fn capacity(&self) -> usize;

    /// The entry tracking `row`, if any.
    fn get(&self, row: RowId) -> Option<TableEntry>;

    /// Snapshot of all valid entries (order unspecified).
    fn entries(&self) -> Vec<TableEntry> {
        let mut out = Vec::with_capacity(self.occupancy());
        self.entries_into(&mut out);
        out
    }

    /// Fills `out` with all valid entries (order unspecified), reusing
    /// its capacity — the allocation-free form of
    /// [`CounterTable::entries`] for hot paths that probe the table on
    /// every fault-injected ACT.
    fn entries_into(&self, out: &mut Vec<TableEntry>);

    /// Clears the table.
    fn clear(&mut self);

    /// Enables or disables per-entry parity checking (hardened TWiCe
    /// stores one parity bit per entry, written on every legitimate
    /// update; the unhardened baseline has no such column). With
    /// checking off, injected upsets corrupt counts silently.
    fn set_parity_checking(&mut self, enabled: bool);

    /// Injects a single-event upset: flips bit `bit` of the stored
    /// activation count of `row`'s entry *without* updating the stored
    /// parity bit (that is what makes it a fault). Returns `false` if
    /// the row is untracked (the upset landed in an invalid slot and has
    /// no architectural effect).
    fn inject_bit_flip(&mut self, row: RowId, bit: u32) -> bool;

    /// Parity-scrub pass: checks every valid entry's recomputed parity
    /// against its stored bit, evicts the mismatching entries, and
    /// returns their rows (sorted) so the engine can fail safe (ARR
    /// them). Returns nothing when parity checking is disabled.
    fn scrub(&mut self) -> Vec<RowId> {
        let mut rows = Vec::new();
        self.scrub_into(&mut rows);
        rows
    }

    /// Fills `out` with the scrub pass's evicted rows (sorted), reusing
    /// its capacity — the allocation-free form of
    /// [`CounterTable::scrub`] for the per-refresh hot path.
    fn scrub_into(&mut self, out: &mut Vec<RowId>);

    /// Restores one exact entry (the snapshot-restore path): the entry is
    /// placed verbatim, count and life included, without the insertion
    /// being observable in operation counters. Returns `false` when the
    /// row is already tracked or no slot could be found (a
    /// snapshot/capacity mismatch).
    fn insert_entry(&mut self, entry: TableEntry) -> bool;

    /// Rows whose stored parity currently disagrees with their contents
    /// (pending, not-yet-scrubbed corruption). Snapshots carry this set so
    /// a restored table fails parity on exactly the same rows the saved
    /// one would have. Sorted.
    fn corrupted_rows(&self) -> Vec<RowId>;

    /// Marks `row`'s entry as parity-mismatched (the restore counterpart
    /// of [`CounterTable::corrupted_rows`]); a no-op for an untracked
    /// row.
    fn mark_corrupted(&mut self, row: RowId);
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A conformance suite every organization's tests run.

    use super::*;

    /// Exercises the shared behavioral contract on `table` (assumed empty,
    /// capacity ≥ 8, with thPI = 4 semantics supplied by the caller).
    pub(crate) fn check_basic_contract(table: &mut dyn CounterTable) {
        assert_eq!(table.occupancy(), 0);
        // Fresh insert counts 1.
        assert_eq!(
            table.record_act(RowId(10)),
            RecordOutcome::Counted { act_cnt: 1 }
        );
        assert_eq!(table.occupancy(), 1);
        // Increment.
        assert_eq!(
            table.record_act(RowId(10)),
            RecordOutcome::Counted { act_cnt: 2 }
        );
        let e = table.get(RowId(10)).unwrap();
        assert_eq!(e.act_cnt, 2);
        assert_eq!(e.life, 1);
        // Independent rows.
        table.record_act(RowId(11));
        assert_eq!(table.occupancy(), 2);
        // Prune with thPI=4: row 10 has 2 (<4), row 11 has 1 (<4): both go.
        table.prune(4);
        assert_eq!(table.occupancy(), 0);
        assert_eq!(table.get(RowId(10)), None);

        // Survivor ages.
        for _ in 0..4 {
            table.record_act(RowId(12));
        }
        table.prune(4);
        let e = table.get(RowId(12)).unwrap();
        assert_eq!(e.life, 2);
        assert_eq!(e.act_cnt, 4);
        // Needs 8 total by next prune: 3 more is not enough.
        for _ in 0..3 {
            table.record_act(RowId(12));
        }
        table.prune(4);
        assert_eq!(table.get(RowId(12)), None);

        // Remove.
        table.record_act(RowId(13));
        table.remove(RowId(13));
        assert_eq!(table.get(RowId(13)), None);
        assert_eq!(table.occupancy(), 0);

        // Clear.
        table.record_act(RowId(14));
        table.clear();
        assert_eq!(table.occupancy(), 0);
    }

    /// Checks the allocation-free `_into` variants agree with their
    /// allocating twins (assumed empty table with fault support).
    pub(crate) fn check_into_variants(table: &mut dyn CounterTable) {
        for r in 0..6 {
            table.record_act(RowId(r));
            table.record_act(RowId(r));
        }
        // entries_into fills (and clears) the scratch buffer.
        let mut scratch = vec![TableEntry::new(RowId(999))];
        table.entries_into(&mut scratch);
        let mut direct = table.entries();
        scratch.sort_unstable_by_key(|e| e.row);
        direct.sort_unstable_by_key(|e| e.row);
        assert_eq!(scratch, direct);
        // scrub_into evicts exactly what scrub would have.
        table.inject_bit_flip(RowId(2), 0);
        table.inject_bit_flip(RowId(4), 1);
        let mut victims = vec![RowId(999)];
        table.scrub_into(&mut victims);
        assert_eq!(victims, vec![RowId(2), RowId(4)]);
        assert_eq!(table.get(RowId(2)), None);
        assert_eq!(table.get(RowId(4)), None);
        assert_eq!(table.occupancy(), 4);
        // A clean pass leaves the buffer empty.
        table.scrub_into(&mut victims);
        assert!(victims.is_empty());
    }

    /// Fills the table to capacity and checks `TableFull` is reported.
    pub(crate) fn check_overflow_reporting(table: &mut dyn CounterTable) {
        let cap = table.capacity();
        for i in 0..cap {
            assert!(matches!(
                table.record_act(RowId(i as u32)),
                RecordOutcome::Counted { .. }
            ));
        }
        assert_eq!(table.occupancy(), cap);
        assert_eq!(
            table.record_act(RowId(cap as u32)),
            RecordOutcome::TableFull
        );
        // Existing rows still count fine.
        assert!(matches!(
            table.record_act(RowId(0)),
            RecordOutcome::Counted { act_cnt: 2 }
        ));
    }
}
