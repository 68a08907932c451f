//! CBT: the Counter-Based Tree defense ([Seyedzadeh et al., CAL'17 /
//! ISCA'18], as described in §3.3 of the TWiCe paper).
//!
//! A bounded pool of counters is organized as a non-uniform binary tree
//! over row-index ranges. Initially a single counter covers the whole
//! bank; when a counter's count crosses its level's *sub-threshold* (and
//! a spare counter exists), it splits into two children covering half
//! the range each, **both initialized to the parent's count** — the
//! double-counting the TWiCe paper calls out. When a counter reaches the
//! row-hammer threshold, *every row it covers* is refreshed (the "flurry
//! of refreshes" on adversarial patterns), its count resets, and the
//! tree resets wholesale every refresh window.
//!
//! The evaluation configuration (CBT-256) uses 256 counters, a 32K
//! threshold, and 11 tree levels; the deepest counters then cover
//! `131072 / 2^10 = 128` rows, which is why a single-row hammer costs
//! CBT 128 refreshed rows per 32K ACTs (0.39%, Figure 7b). The CBT
//! papers leave the sub-threshold schedule a tunable; we use a linear
//! ramp `sub_th(level) = thRH · level / (levels + 1)`, which avoids
//! split cascades (children start below the next level's threshold).

use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{
    BankId, DefensePressure, DefenseResponse, Detection, RowHammerDefense, RowId, Time,
};

/// One tree counter covering rows `lo..hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    lo: u32,
    hi: u32,
    level: u32,
    count: u64,
}

#[derive(Debug, Clone)]
struct BankTree {
    /// Leaves, sorted by `lo`; they partition `0..rows`.
    leaves: Vec<Node>,
    refs_seen: u64,
}

/// The CBT defense.
#[derive(Debug, Clone)]
pub struct Cbt {
    th_rh: u64,
    max_counters: usize,
    max_level: u32,
    rows_per_bank: u32,
    refs_per_window: u64,
    banks: Vec<BankTree>,
    /// Group refreshes fired (pressure introspection).
    fired: u64,
    name: String,
}

impl Cbt {
    /// Creates CBT with `max_counters` counters per bank, threshold
    /// `th_rh`, and `max_level` tree levels, for `num_banks` banks of
    /// `rows_per_bank` rows, resetting every `refs_per_window`
    /// auto-refreshes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(
        max_counters: usize,
        th_rh: u64,
        max_level: u32,
        num_banks: u32,
        rows_per_bank: u32,
        refs_per_window: u64,
    ) -> Cbt {
        assert!(max_counters > 0, "need at least one counter");
        assert!(th_rh > 0, "threshold must be non-zero");
        assert!(max_level > 0, "need at least one level");
        assert!(num_banks > 0 && rows_per_bank > 0, "empty geometry");
        assert!(refs_per_window > 0, "refs_per_window must be non-zero");
        let root = Node {
            lo: 0,
            hi: rows_per_bank,
            level: 1,
            count: 0,
        };
        Cbt {
            name: format!("CBT-{max_counters}"),
            th_rh,
            max_counters,
            max_level,
            rows_per_bank,
            refs_per_window,
            banks: vec![
                BankTree {
                    leaves: vec![root],
                    refs_seen: 0,
                };
                num_banks as usize
            ],
            fired: 0,
        }
    }

    /// The Figure 7 configuration: 256 counters, threshold 32K, 11 levels.
    pub fn cbt_256(num_banks: u32, rows_per_bank: u32, refs_per_window: u64) -> Cbt {
        Cbt::new(256, 32_768, 11, num_banks, rows_per_bank, refs_per_window)
    }

    /// Number of counters currently allocated in `bank`'s tree.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn counters_used(&self, bank: BankId) -> usize {
        self.banks[bank.index()].leaves.len()
    }

    /// The row-range width of the leaf covering `row` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `row` is out of range.
    pub fn leaf_width(&self, bank: BankId, row: RowId) -> u32 {
        let tree = &self.banks[bank.index()];
        let i = find_leaf(&tree.leaves, row.0);
        tree.leaves[i].hi - tree.leaves[i].lo
    }
}

/// The split threshold at `level`: a linear ramp toward `th_rh` that
/// keeps freshly split children below their own level's threshold.
fn sub_threshold(th_rh: u64, max_level: u32, level: u32) -> u64 {
    th_rh * u64::from(level) / u64::from(max_level + 1)
}

fn find_leaf(leaves: &[Node], row: u32) -> usize {
    // Leaves are sorted by lo and partition the row space.
    match leaves.binary_search_by(|n| {
        if row < n.lo {
            std::cmp::Ordering::Greater
        } else if row >= n.hi {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }) {
        Ok(i) => i,
        Err(_) => unreachable!("leaves must partition the row space"),
    }
}

impl RowHammerDefense for Cbt {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        assert!(row.0 < self.rows_per_bank, "row out of range");
        let max_counters = self.max_counters;
        let max_level = self.max_level;
        let th_rh = self.th_rh;
        let tree = &mut self.banks[bank.index()];

        let mut i = find_leaf(&tree.leaves, row.0);
        tree.leaves[i].count += 1;

        // Split while the covering leaf is over its sub-threshold and
        // resources allow (each split consumes one spare counter).
        loop {
            let leaf = tree.leaves[i];
            let splittable = leaf.level < max_level
                && leaf.hi - leaf.lo >= 2
                && tree.leaves.len() < max_counters
                && leaf.count >= sub_threshold(th_rh, max_level, leaf.level)
                && leaf.count < th_rh;
            if !splittable {
                break;
            }
            let mid = leaf.lo + (leaf.hi - leaf.lo) / 2;
            let left = Node {
                lo: leaf.lo,
                hi: mid,
                level: leaf.level + 1,
                count: leaf.count,
            };
            let right = Node {
                lo: mid,
                hi: leaf.hi,
                level: leaf.level + 1,
                count: leaf.count,
            };
            tree.leaves[i] = left;
            tree.leaves.insert(i + 1, right);
            if row.0 >= mid {
                i += 1;
            }
        }

        // Group refresh at the row-hammer threshold. The potential
        // victims of ACTs inside the group are the group's rows plus the
        // two rows just outside its boundary.
        if tree.leaves[i].count >= th_rh {
            let leaf = tree.leaves[i];
            tree.leaves[i].count = 0;
            self.fired += 1;
            let lo = leaf.lo.saturating_sub(1);
            let hi = (leaf.hi + 1).min(self.rows_per_bank);
            let rows: Vec<RowId> = (lo..hi).map(RowId).collect();
            return DefenseResponse {
                refresh_rows: rows,
                detection: Some(Detection {
                    bank,
                    row,
                    at: now,
                    act_count: leaf.count,
                }),
                ..DefenseResponse::default()
            };
        }
        DefenseResponse::none()
    }

    fn on_auto_refresh(&mut self, bank: BankId, _now: Time) -> DefenseResponse {
        let rows = self.rows_per_bank;
        let tree = &mut self.banks[bank.index()];
        tree.refs_seen += 1;
        if tree.refs_seen.is_multiple_of(self.refs_per_window) {
            tree.leaves = vec![Node {
                lo: 0,
                hi: rows,
                level: 1,
                count: 0,
            }];
        }
        DefenseResponse::none()
    }

    fn reset(&mut self) {
        let rows = self.rows_per_bank;
        for tree in &mut self.banks {
            tree.leaves = vec![Node {
                lo: 0,
                hi: rows,
                level: 1,
                count: 0,
            }];
            tree.refs_seen = 0;
        }
        self.fired = 0;
    }

    fn pressure(&self) -> DefensePressure {
        let hottest = self
            .banks
            .iter()
            .flat_map(|tree| tree.leaves.iter().map(|leaf| leaf.count))
            .max()
            .unwrap_or(0);
        DefensePressure::from_counter(hottest, self.th_rh, self.fired)
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        Some(self.banks[bank.index()].leaves.len())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.fired);
        w.put_usize(self.banks.len());
        for tree in &self.banks {
            w.put_u64(tree.refs_seen);
            // Leaves are kept sorted by `lo`, so in-order is canonical.
            w.put_usize(tree.leaves.len());
            for leaf in &tree.leaves {
                w.put_u32(leaf.lo);
                w.put_u32(leaf.hi);
                w.put_u32(leaf.level);
                w.put_u64(leaf.count);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.fired = r.take_u64()?;
        let banks = r.take_usize()?;
        if banks != self.banks.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "CBT has {} banks, snapshot has {banks}",
                self.banks.len()
            )));
        }
        for tree in &mut self.banks {
            tree.refs_seen = r.take_u64()?;
            let n = r.take_usize()?;
            tree.leaves.clear();
            for _ in 0..n {
                tree.leaves.push(Node {
                    lo: r.take_u32()?,
                    hi: r.take_u32()?,
                    level: r.take_u32()?,
                    count: r.take_u64()?,
                });
            }
            if tree.leaves.is_empty() {
                return Err(SnapshotError::StateMismatch(
                    "CBT bank with no leaves".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cbt() -> Cbt {
        // 8 counters, threshold 64, 4 levels, 1 bank of 64 rows.
        Cbt::new(8, 64, 4, 1, 64, 100)
    }

    #[test]
    fn starts_with_one_counter_covering_the_bank() {
        let c = small_cbt();
        assert_eq!(c.counters_used(BankId(0)), 1);
        assert_eq!(c.leaf_width(BankId(0), RowId(0)), 64);
    }

    #[test]
    fn hot_traffic_splits_toward_the_hot_row() {
        let mut c = small_cbt();
        // sub_threshold(level 1) = 64*1/5 = 12.
        for _ in 0..13 {
            c.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        assert!(c.counters_used(BankId(0)) >= 2, "root must have split");
        assert!(
            c.leaf_width(BankId(0), RowId(5)) < 64,
            "the hot row's leaf must have narrowed"
        );
    }

    #[test]
    fn group_refresh_covers_all_leaf_rows() {
        let mut c = Cbt::new(1, 16, 1, 1, 32, 100); // never splits
        let mut resp = DefenseResponse::none();
        for _ in 0..16 {
            resp = c.on_activate(BankId(0), RowId(3), Time::ZERO);
        }
        // Whole 32-row group; the group spans the full bank here so no
        // boundary victims exist beyond it.
        assert_eq!(resp.refresh_rows.len(), 32, "whole group refreshed");
        assert!(resp.detection.is_some());
        // Count reset: no immediate second refresh.
        let r = c.on_activate(BankId(0), RowId(3), Time::ZERO);
        assert!(r.is_none());
    }

    #[test]
    fn counter_pool_is_bounded() {
        let mut c = small_cbt();
        let mut x = twice_common::rng::SplitMix64::new(1);
        for _ in 0..5_000 {
            let row = RowId(x.next_below(64) as u32);
            c.on_activate(BankId(0), row, Time::ZERO);
        }
        assert!(c.counters_used(BankId(0)) <= 8);
    }

    #[test]
    fn children_inherit_parent_count_double_counting() {
        let mut c = small_cbt();
        for _ in 0..12 {
            c.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        // After the split both halves carry the parent's 12 counts, so a
        // row in the *other* half needs fewer ACTs to its own threshold.
        assert!(c.counters_used(BankId(0)) >= 2);
        let mut extra = DefenseResponse::none();
        let mut acts_needed = 0;
        for _ in 0..64 {
            acts_needed += 1;
            extra = c.on_activate(BankId(0), RowId(60), Time::ZERO);
            if !extra.refresh_rows.is_empty() {
                break;
            }
        }
        assert!(
            !extra.refresh_rows.is_empty() && acts_needed < 64,
            "inherited count must accelerate the other half's refresh"
        );
    }

    #[test]
    fn window_reset_collapses_the_tree() {
        let mut c = small_cbt(); // refs_per_window = 100
        for _ in 0..20 {
            c.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        assert!(c.counters_used(BankId(0)) > 1);
        for _ in 0..100 {
            c.on_auto_refresh(BankId(0), Time::ZERO);
        }
        assert_eq!(c.counters_used(BankId(0)), 1);
    }

    #[test]
    fn deepest_leaf_width_matches_paper_geometry() {
        // 131072 rows, 11 levels: leaf width 131072 / 2^10 = 128.
        let mut c = Cbt::cbt_256(1, 131_072, 8192);
        // Hammer one row hard enough to fully split its path.
        for _ in 0..32_767 {
            c.on_activate(BankId(0), RowId(1000), Time::ZERO);
        }
        assert_eq!(c.leaf_width(BankId(0), RowId(1000)), 128);
        // One more ACT crosses 32K: the 128-row group plus its two
        // boundary victims are refreshed (~0.39% per 32K ACTs).
        let r = c.on_activate(BankId(0), RowId(1000), Time::ZERO);
        assert_eq!(r.refresh_rows.len(), 130);
    }

    #[test]
    fn banks_are_independent() {
        let mut c = Cbt::new(8, 64, 4, 2, 64, 100);
        for _ in 0..20 {
            c.on_activate(BankId(0), RowId(5), Time::ZERO);
        }
        assert!(c.counters_used(BankId(0)) > 1);
        assert_eq!(c.counters_used(BankId(1)), 1);
    }
}
