//! Auto-refresh rowset bookkeeping.
//!
//! A modern bank refreshes a *set* of rows per REF command (§2.1): with
//! 8192 REFs per `tREFW` and 131,072 rows per bank, each REF covers 16
//! rows. [`RefreshCursor`] tracks which rowset the next REF covers and
//! reports the covered rows so the fault model can clear their
//! disturbance.

use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::RowId;

/// Round-robin cursor over a bank's refresh rowsets.
#[derive(Debug, Clone)]
pub struct RefreshCursor {
    rows: u32,
    rows_per_set: u32,
    num_sets: u32,
    next_set: u32,
    completed_refs: u64,
}

impl RefreshCursor {
    /// Creates a cursor for a bank with `rows` rows refreshed over
    /// `refs_per_window` REF commands.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(rows: u32, refs_per_window: u64) -> RefreshCursor {
        assert!(rows > 0, "rows must be positive");
        assert!(refs_per_window > 0, "refs_per_window must be positive");
        let num_sets = u64::from(rows).min(refs_per_window) as u32;
        let rows_per_set = rows.div_ceil(num_sets);
        RefreshCursor {
            rows,
            rows_per_set,
            num_sets,
            next_set: 0,
            completed_refs: 0,
        }
    }

    /// Rows covered per REF command.
    #[inline]
    pub fn rows_per_set(&self) -> u32 {
        self.rows_per_set
    }

    /// Number of distinct rowsets.
    #[inline]
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Total REF commands performed.
    #[inline]
    pub fn completed_refs(&self) -> u64 {
        self.completed_refs
    }

    /// Performs one REF: returns the rows refreshed and advances.
    pub fn refresh(&mut self) -> impl Iterator<Item = RowId> + '_ {
        let set = self.next_set;
        self.next_set = (self.next_set + 1) % self.num_sets;
        self.completed_refs += 1;
        let start = set * self.rows_per_set;
        let end = (start + self.rows_per_set).min(self.rows);
        (start..end).map(RowId)
    }

    /// Chaos hook: the REF was *dropped inside the device* (the
    /// `RefreshDrop` fault) — the cursor advances as if the rowset had
    /// been refreshed (the device believes it serviced the command), but
    /// no rows are reported, so their disturbance survives a full extra
    /// window.
    pub fn skip(&mut self) {
        self.next_set = (self.next_set + 1) % self.num_sets;
        self.completed_refs += 1;
    }
}

impl Snapshot for RefreshCursor {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.next_set);
        w.put_u64(self.completed_refs);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let next_set = r.take_u32()?;
        if next_set >= self.num_sets {
            return Err(SnapshotError::StateMismatch(format!(
                "cursor set {next_set} out of {} sets",
                self.num_sets
            )));
        }
        self.next_set = next_set;
        self.completed_refs = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_16_rows_per_set() {
        let c = RefreshCursor::new(131_072, 8192);
        assert_eq!(c.rows_per_set(), 16);
        assert_eq!(c.num_sets(), 8192);
    }

    #[test]
    fn one_window_covers_every_row_exactly_once() {
        let mut c = RefreshCursor::new(100, 8);
        let mut counts = vec![0u32; 100];
        let sets = c.num_sets();
        for _ in 0..sets {
            for r in c.refresh() {
                counts[r.index()] += 1;
            }
        }
        assert!(counts.iter().all(|&n| n == 1), "each row refreshed once");
        assert_eq!(c.completed_refs(), u64::from(sets));
    }

    #[test]
    fn cursor_wraps_around() {
        let mut c = RefreshCursor::new(8, 4);
        let first: Vec<_> = c.refresh().collect();
        for _ in 0..3 {
            c.refresh().for_each(drop);
        }
        let wrapped: Vec<_> = c.refresh().collect();
        assert_eq!(first, wrapped);
    }

    #[test]
    fn skip_advances_without_reporting_rows() {
        let mut a = RefreshCursor::new(8, 4);
        let mut b = RefreshCursor::new(8, 4);
        a.refresh().for_each(drop);
        b.skip();
        assert_eq!(a.completed_refs(), b.completed_refs());
        // Both cursors now cover the same next rowset.
        let ra: Vec<_> = a.refresh().collect();
        let rb: Vec<_> = b.refresh().collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn more_refs_than_rows_degenerates_to_single_rows() {
        let c = RefreshCursor::new(4, 100);
        assert_eq!(c.rows_per_set(), 1);
        assert_eq!(c.num_sets(), 4);
    }

    #[test]
    fn uneven_division_covers_tail() {
        let mut c = RefreshCursor::new(10, 3); // ceil(10/3) = 4 rows/set
        let mut seen = std::collections::HashSet::new();
        for _ in 0..c.num_sets() {
            for r in c.refresh() {
                seen.insert(r);
            }
        }
        assert_eq!(seen.len(), 10);
    }
}
