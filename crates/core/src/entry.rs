//! The TWiCe counter-table entry and the pruning rule.

use twice_common::RowId;

/// One valid counter-table entry (Figure 3): the tracked row, its
/// activation count, and its `life` — the number of consecutive pruning
/// intervals it has stayed in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry {
    /// The tracked (logical) row.
    pub row: RowId,
    /// Activations observed while tracked.
    pub act_cnt: u64,
    /// Consecutive pruning intervals in the table (starts at 1).
    pub life: u64,
}

impl TableEntry {
    /// A fresh entry for `row` observing its first activation.
    #[inline]
    pub fn new(row: RowId) -> TableEntry {
        TableEntry {
            row,
            act_cnt: 1,
            life: 1,
        }
    }

    /// The pruning rule of §4.2 step 4: an entry survives the end-of-PI
    /// check iff its *average* activation rate has kept up, i.e.
    /// `act_cnt ≥ thPI × life`.
    #[inline]
    pub fn survives_prune(&self, th_pi: u64) -> bool {
        self.act_cnt >= th_pi * self.life
    }

    /// Applies one pruning interval: returns the aged entry if it
    /// survives, `None` if it is pruned.
    #[inline]
    pub fn pruned(self, th_pi: u64) -> Option<TableEntry> {
        if self.survives_prune(th_pi) {
            Some(TableEntry {
                life: self.life + 1,
                ..self
            })
        } else {
            None
        }
    }

    /// The most significant set bit of the activation count, if any —
    /// the bit whose upset maximally *reduces* the count (the
    /// adversarial SEU used by hottest-entry targeting).
    #[inline]
    pub fn top_count_bit(&self) -> Option<u32> {
        if self.act_cnt == 0 {
            None
        } else {
            Some(63 - self.act_cnt.leading_zeros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_counts_one_act_at_life_one() {
        let e = TableEntry::new(RowId(7));
        assert_eq!(e.act_cnt, 1);
        assert_eq!(e.life, 1);
    }

    #[test]
    fn prune_rule_matches_figure_4() {
        // Figure 4 step 4: (act_cnt=8, life=2) survives thPI=4 and ages;
        // (act_cnt=1, life=1) is pruned.
        let survivor = TableEntry {
            row: RowId(0xC0),
            act_cnt: 8,
            life: 2,
        };
        let aged = survivor.pruned(4).expect("must survive");
        assert_eq!(aged.life, 3);
        assert_eq!(aged.act_cnt, 8);

        let pruned = TableEntry {
            row: RowId(0xF0),
            act_cnt: 1,
            life: 1,
        };
        assert_eq!(pruned.pruned(4), None);
    }

    #[test]
    fn boundary_is_inclusive() {
        // act_cnt == thPI * life survives ("equal to or greater", §4.2).
        let e = TableEntry {
            row: RowId(1),
            act_cnt: 8,
            life: 2,
        };
        assert!(e.survives_prune(4));
        let e = TableEntry {
            row: RowId(1),
            act_cnt: 7,
            life: 2,
        };
        assert!(!e.survives_prune(4));
    }

    #[test]
    fn untracked_row_bound_follows_from_rule() {
        // A row pruned at every opportunity accumulates less than
        // thPI * maxlife ACTs over a window (Eq. 1): at each prune it had
        // act_cnt < thPI*life, and its count resets on re-insertion.
        let th_pi = 4u64;
        let max_life = 8192u64;
        // The most an always-pruned entry can carry at life=1 is thPI-1.
        let e = TableEntry {
            row: RowId(0),
            act_cnt: th_pi - 1,
            life: 1,
        };
        assert!(!e.survives_prune(th_pi));
        assert!((th_pi - 1) * max_life < th_pi * max_life);
    }
}
