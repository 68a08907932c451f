//! The row-hammer disturbance fault model.
//!
//! Every ACT on a row disturbs its *physically* adjacent rows (§3.1): a
//! victim accumulates disturbance from each neighbor activation and loses
//! it only when the victim itself is refreshed (auto-refresh, ARR, or an
//! explicit defense refresh) or activated (activation restores the row's
//! charge). When accumulated disturbance reaches the vendor threshold
//! `N_th` (paper §3.2; 139K for the DDR4 parts of [Kim et al. 2014]) a
//! **bit flip** is recorded — silent data corruption the defenses exist to
//! prevent.
//!
//! The model is deliberately conservative in the same direction as the
//! paper: disturbance counts are per-victim sums over *both* neighbors
//! (double-sided hammering adds up), and exceeding `N_th` always flips.
//!
//! State is kept for the *disturbed* rows (non-zero disturbance) and the
//! *flipped* rows (a non-zero count of bits flipped this window). Only
//! rows past `N_th` flip, so the flipped rows sit in a [`RowMap`]. How
//! many rows are disturbed depends on the traffic. On a paper-size bank
//! of 131,072 rows, 100k requests of Figure 7's benign traffic leave at
//! most 1.1% of the rows disturbed and 1.5M random (S1) requests 22%;
//! the S2 sweep leaves 82% of its bank disturbed. So a bank starts with
//! a [`RowMap`] of its disturbed rows and moves to a dense per-row array
//! once one row in 32 is disturbed. Past that point the map outgrows the
//! caches, and an ACT's three accesses (the aggressor and its two
//! neighbors) land on three hash-scattered entries where the array
//! keeps them on one cache line: kept in the map to the end, 1.5M S1
//! requests ran about 30% slower than with the switch. A bank of at
//! most 8,192 rows, such as the fast-test system's, holds the array from
//! the start: 64 KiB or less faults in cheaply, and there hashing each
//! ACT's rows would only add cost. A restore starts from the form a new
//! model has. Either way an ACT costs a few O(1) accesses, and
//! digest, snapshots and restore list rows in ascending order, so the
//! bytes match a dense scan whichever form a bank is in.

use crate::remap::RemapTable;
use twice_common::rowmap::RowMap;
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{RowId, Time};

/// A bank's disturbance moves from its map to a dense array once
/// `rows / DENSE_SHARE` rows are disturbed.
const DENSE_SHARE: usize = 32;

/// Banks of at most this many rows keep a dense array from the start.
const DENSE_ROWS: u32 = 8_192;

/// A recorded row-hammer bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// The victim row whose data flipped.
    pub victim: RowId,
    /// When the disturbance threshold was crossed.
    pub at: Time,
    /// The accumulated disturbance at flip time.
    pub disturbance: u64,
}

/// The disturbance of a bank's rows, in the form that suits how many
/// are disturbed.
#[derive(Debug, Clone)]
enum Disturbance {
    /// Only the disturbed rows, while few are.
    Sparse(RowMap<u64>),
    /// Every row of the bank, zero where not disturbed.
    Dense(Vec<u64>),
}

impl Disturbance {
    /// No row of a `rows`-row bank disturbed.
    fn new(rows: u32) -> Disturbance {
        if rows <= DENSE_ROWS {
            Disturbance::Dense(vec![0; rows as usize])
        } else {
            Disturbance::Sparse(RowMap::default())
        }
    }

    /// `row`'s disturbance, inserting a zero if it has none. A map about
    /// to hold `rows / DENSE_SHARE` entries becomes a dense array first.
    #[inline]
    fn slot(&mut self, row: u32, rows: u32) -> &mut u64 {
        if let Disturbance::Sparse(m) = self {
            if m.len() >= rows as usize / DENSE_SHARE {
                let mut dense = vec![0; rows as usize];
                for (&r, &d) in m.iter() {
                    dense[r as usize] = d;
                }
                *self = Disturbance::Dense(dense);
            }
        }
        match self {
            Disturbance::Sparse(m) => m.entry(row).or_default(),
            Disturbance::Dense(dense) => &mut dense[row as usize],
        }
    }

    #[inline]
    fn get(&self, row: u32) -> u64 {
        match self {
            Disturbance::Sparse(m) => m.get(&row).copied().unwrap_or(0),
            Disturbance::Dense(dense) => dense[row as usize],
        }
    }

    /// Zeroes `row`. An empty map is not probed, and a dense row that is
    /// not disturbed is not written.
    #[inline]
    fn clear(&mut self, row: u32) {
        match self {
            Disturbance::Sparse(m) => {
                if !m.is_empty() {
                    m.remove(&row);
                }
            }
            Disturbance::Dense(dense) => {
                let d = &mut dense[row as usize];
                if *d != 0 {
                    *d = 0;
                }
            }
        }
    }

    /// The disturbed rows, ascending.
    fn sorted(&self) -> Vec<(u32, u64)> {
        match self {
            Disturbance::Sparse(m) => sorted(m),
            Disturbance::Dense(dense) => (0u32..)
                .zip(dense.iter().copied())
                .filter(|&(_, d)| d != 0)
                .collect(),
        }
    }
}

/// `m`'s entries, ascending by row.
fn sorted<V: Copy>(m: &RowMap<V>) -> Vec<(u32, V)> {
    let mut rows: Vec<(u32, V)> = m.iter().map(|(&r, &v)| (r, v)).collect();
    rows.sort_unstable_by_key(|&(r, _)| r);
    rows
}

/// Per-bank disturbance state.
#[derive(Debug, Clone)]
pub struct HammerModel {
    /// Vendor disturbance threshold `N_th`.
    n_th: u64,
    /// Logical rows in the bank.
    rows: u32,
    /// Disturbance accumulated by each row since its last refresh.
    disturbance: Disturbance,
    /// Bits already flipped this window in each victim that has flipped
    /// (so each victim is reported once per corruption event, not once
    /// per ACT).
    flipped: RowMap<u32>,
    flips: Vec<BitFlip>,
    /// When set, every `interval` of disturbance beyond `N_th` flips an
    /// additional bit (hammer overdrive; used by the ECC experiments).
    overshoot_interval: Option<u64>,
    /// When set, every `k`-th activation also disturbs the rows at
    /// physical distance 2 (the Half-Double blast radius).
    far_coupling: Option<u64>,
    /// Global activation counter driving the deterministic far coupling.
    act_counter: u64,
    /// Highest disturbance any row has ever reached (monotone; refreshes
    /// clear `disturbance` but not this watermark). The red-team fitness
    /// probe: how close an attack got to `N_th`, even if a defense later
    /// wiped the evidence.
    peak: u64,
}

impl HammerModel {
    /// Creates a model for a bank with `rows` logical rows and threshold
    /// `n_th`.
    ///
    /// # Panics
    ///
    /// Panics if `n_th` is zero.
    pub fn new(rows: u32, n_th: u64) -> HammerModel {
        assert!(n_th > 0, "N_th must be positive");
        HammerModel {
            n_th,
            rows,
            disturbance: Disturbance::new(rows),
            flipped: RowMap::default(),
            flips: Vec::new(),
            overshoot_interval: None,
            far_coupling: None,
            act_counter: 0,
            peak: 0,
        }
    }

    /// Enables distance-2 coupling: every `k`-th activation disturbs the
    /// rows two away from the aggressor as well (Half-Double; discovered
    /// after the paper, it breaks distance-1-only mitigations).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn with_far_coupling(mut self, k: u64) -> HammerModel {
        assert!(k > 0, "coupling interval must be non-zero");
        self.far_coupling = Some(k);
        self
    }

    /// Enables overdrive flips: one additional bit per `interval` of
    /// disturbance beyond `N_th`, capped at 64 bits per victim per
    /// window (models the multi-bit errors heavy hammering produces,
    /// which defeat SEC-DED ECC).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_overshoot(mut self, interval: u64) -> HammerModel {
        assert!(interval > 0, "overshoot interval must be non-zero");
        self.overshoot_interval = Some(interval);
        self
    }

    /// The configured disturbance threshold.
    #[inline]
    pub fn n_th(&self) -> u64 {
        self.n_th
    }

    /// `row`'s index in the bank.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    #[inline]
    fn key(&self, row: RowId) -> u32 {
        assert!(
            row.0 < self.rows,
            "row {} is outside a {}-row bank",
            row.0,
            self.rows
        );
        row.0
    }

    /// Records an ACT on `aggressor`, disturbing its physical neighbors.
    ///
    /// The aggressor itself is restored by the activation, clearing its own
    /// accumulated disturbance.
    pub fn on_activate(&mut self, aggressor: RowId, remap: &RemapTable, now: Time) {
        // Activation fully restores the aggressor's cells.
        self.clear(aggressor);
        self.act_counter += 1;
        for victim in remap.physical_neighbors(aggressor) {
            self.bump(victim, now);
        }
        if let Some(k) = self.far_coupling {
            if self.act_counter.is_multiple_of(k) {
                for victim in remap.physical_neighbors_at(aggressor, 2) {
                    self.bump(victim, now);
                }
            }
        }
    }

    fn bump(&mut self, victim: RowId, now: Time) {
        let key = self.key(victim);
        let slot = self.disturbance.slot(key, self.rows);
        *slot += 1;
        let d = *slot;
        if d > self.peak {
            self.peak = d;
        }
        // Below `N_th` nothing flips, and the flip count is not read.
        if d < self.n_th {
            return;
        }
        // Bits this model would have flipped at disturbance `d`.
        let allowed = 1 + match self.overshoot_interval {
            Some(iv) => ((d - self.n_th) / iv).min(63) as u32,
            None => 0,
        };
        let flipped = self.flipped.entry(key).or_default();
        while *flipped < allowed {
            *flipped += 1;
            self.flips.push(BitFlip {
                victim,
                at: now,
                disturbance: d,
            });
        }
    }

    /// Records a refresh of `row` (auto-refresh slice, ARR victim, or an
    /// explicit defense refresh): its disturbance is reset.
    #[inline]
    pub fn on_refresh(&mut self, row: RowId) {
        self.clear(row);
    }

    /// Zeroes `row`'s disturbance and flip count.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    #[inline]
    fn clear(&mut self, row: RowId) {
        let key = self.key(row);
        self.disturbance.clear(key);
        if !self.flipped.is_empty() {
            self.flipped.remove(&key);
        }
    }

    /// Current disturbance of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    #[inline]
    pub fn disturbance_of(&self, row: RowId) -> u64 {
        self.disturbance.get(self.key(row))
    }

    /// All bit flips recorded so far.
    #[inline]
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Drains and returns the recorded flips.
    pub fn take_flips(&mut self) -> Vec<BitFlip> {
        std::mem::take(&mut self.flips)
    }

    /// The maximum disturbance across all rows (attack-margin metric).
    pub fn max_disturbance(&self) -> u64 {
        match &self.disturbance {
            Disturbance::Sparse(m) => m.values().copied().max(),
            Disturbance::Dense(dense) => dense.iter().copied().max(),
        }
        .unwrap_or(0)
    }

    /// The highest disturbance any row has *ever* reached in this bank.
    ///
    /// Unlike [`HammerModel::max_disturbance`] this watermark survives
    /// refreshes, so it measures the attack margin an adversary achieved
    /// even when a defense cleaned up afterwards.
    #[inline]
    pub fn peak_disturbance(&self) -> u64 {
        self.peak
    }

    /// Checks a snapshot's row against the bank.
    fn in_bank(&self, row: u32) -> Result<u32, SnapshotError> {
        if row < self.rows {
            Ok(row)
        } else {
            Err(SnapshotError::StateMismatch(format!(
                "row {row} out of range"
            )))
        }
    }
}

// Every encoding below lists the disturbed rows, then the flipped rows,
// each in ascending row order: exactly the rows and bytes a dense scan
// of the bank would yield.
impl Snapshot for HammerModel {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.act_counter);
        w.put_u64(self.peak);
        w.put_usize(self.rows as usize);
        let disturbed = self.disturbance.sorted();
        w.put_usize(disturbed.len());
        for &(r, d) in &disturbed {
            w.put_u32(r);
            w.put_u64(d);
        }
        let flipped = sorted(&self.flipped);
        w.put_usize(flipped.len());
        for &(r, f) in &flipped {
            w.put_u32(r);
            w.put_u32(f);
        }
        w.put_usize(self.flips.len());
        for f in &self.flips {
            w.put_u32(f.victim.0);
            w.put_u64(f.at.as_ps());
            w.put_u64(f.disturbance);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.act_counter = r.take_u64()?;
        self.peak = r.take_u64()?;
        let rows = r.take_usize()?;
        if rows != self.rows as usize {
            return Err(SnapshotError::StateMismatch(format!(
                "hammer model has {} rows, snapshot has {rows}",
                self.rows
            )));
        }
        self.disturbance = Disturbance::new(self.rows);
        let n = r.take_usize()?;
        for _ in 0..n {
            let row = r.take_u32()?;
            let d = r.take_u64()?;
            let row = self.in_bank(row)?;
            if d == 0 {
                self.disturbance.clear(row);
            } else {
                *self.disturbance.slot(row, self.rows) = d;
            }
        }
        self.flipped.clear();
        let n = r.take_usize()?;
        for _ in 0..n {
            let row = r.take_u32()?;
            let f = r.take_u32()?;
            let row = self.in_bank(row)?;
            if f == 0 {
                self.flipped.remove(&row);
            } else {
                self.flipped.insert(row, f);
            }
        }
        let n = r.take_usize()?;
        self.flips.clear();
        for _ in 0..n {
            let victim = RowId(r.take_u32()?);
            let at = Time::from_ps(r.take_u64()?);
            let disturbance = r.take_u64()?;
            self.flips.push(BitFlip {
                victim,
                at,
                disturbance,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(rows: u32, n_th: u64) -> (HammerModel, RemapTable) {
        (HammerModel::new(rows, n_th), RemapTable::identity(rows))
    }

    #[test]
    fn single_sided_hammer_flips_at_threshold() {
        let (mut m, remap) = model(8, 10);
        for i in 0..9 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
            assert!(m.flips().is_empty(), "no flip before N_th");
        }
        m.on_activate(RowId(3), &remap, Time::from_ps(9));
        let flips = m.flips();
        assert_eq!(flips.len(), 2, "both neighbors flip at N_th");
        let victims: Vec<_> = flips.iter().map(|f| f.victim).collect();
        assert!(victims.contains(&RowId(2)) && victims.contains(&RowId(4)));
        assert_eq!(flips[0].disturbance, 10);
    }

    #[test]
    fn double_sided_hammer_sums_disturbance() {
        let (mut m, remap) = model(8, 10);
        // Alternate aggressors around victim row 3: 5+5 ACTs reach N_th.
        for i in 0..5 {
            m.on_activate(RowId(2), &remap, Time::from_ps(2 * i));
            m.on_activate(RowId(4), &remap, Time::from_ps(2 * i + 1));
        }
        assert!(m.flips().iter().any(|f| f.victim == RowId(3)));
        // Single-sided victims (rows 1 and 5) saw only 5 ACTs: no flip.
        assert!(!m.flips().iter().any(|f| f.victim == RowId(1)));
    }

    #[test]
    fn refresh_resets_disturbance() {
        let (mut m, remap) = model(8, 10);
        for i in 0..9 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
        }
        m.on_refresh(RowId(2));
        m.on_refresh(RowId(4));
        m.on_activate(RowId(3), &remap, Time::from_ps(100));
        assert!(m.flips().is_empty(), "refreshed victims must not flip");
        assert_eq!(m.disturbance_of(RowId(2)), 1);
    }

    #[test]
    fn activation_restores_the_activated_row() {
        let (mut m, remap) = model(8, 10);
        for i in 0..9 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
        }
        assert_eq!(m.disturbance_of(RowId(4)), 9);
        // Activating the victim itself restores it.
        m.on_activate(RowId(4), &remap, Time::from_ps(50));
        assert_eq!(m.disturbance_of(RowId(4)), 0);
    }

    #[test]
    fn each_victim_flips_once_per_window() {
        let (mut m, remap) = model(8, 5);
        for i in 0..20 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
        }
        assert_eq!(m.flips().len(), 2, "one flip per victim until refreshed");
        m.on_refresh(RowId(2));
        for i in 20..40 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
        }
        // Row 2 was refreshed (flip state cleared) and re-flipped; row 4 not.
        assert_eq!(m.flips().len(), 3);
    }

    #[test]
    fn remapped_aggressor_disturbs_physical_not_logical_neighbors() {
        let remap = RemapTable::with_random_faults(128, 2, 11);
        let mut m = HammerModel::new(128, 3);
        let aggressor = (0..128).map(RowId).find(|&r| remap.is_remapped(r)).unwrap();
        for i in 0..3 {
            m.on_activate(aggressor, &remap, Time::from_ps(i));
        }
        let phys: Vec<_> = remap.physical_neighbors(aggressor).into_iter().collect();
        for f in m.flips() {
            assert!(phys.contains(&f.victim));
        }
        // Logical neighbors (if distinct from physical) are untouched.
        for l in remap.logical_neighbors(aggressor) {
            if !phys.contains(&l) {
                assert_eq!(m.disturbance_of(l), 0);
            }
        }
    }

    #[test]
    fn overshoot_emits_additional_flips() {
        let remap = RemapTable::identity(8);
        let mut m = HammerModel::new(8, 10).with_overshoot(5);
        for i in 0..25 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
        }
        // Victim at disturbance 25: allowed = 1 + (25-10)/5 = 4 flips.
        let on_victim_4 = m.flips().iter().filter(|f| f.victim == RowId(4)).count();
        assert_eq!(on_victim_4, 4);
        // Refresh resets the overdrive accounting too.
        m.on_refresh(RowId(4));
        m.on_activate(RowId(3), &remap, Time::from_ps(100));
        assert_eq!(
            m.flips().iter().filter(|f| f.victim == RowId(4)).count(),
            4,
            "no new flip right after refresh"
        );
    }

    #[test]
    fn take_flips_drains() {
        let (mut m, remap) = model(4, 1);
        m.on_activate(RowId(1), &remap, Time::ZERO);
        assert_eq!(m.take_flips().len(), 2);
        assert!(m.flips().is_empty());
    }

    #[test]
    #[should_panic(expected = "N_th must be positive")]
    fn zero_threshold_panics() {
        HammerModel::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "outside a 8-row bank")]
    fn rows_outside_the_bank_panic() {
        let (m, _) = model(8, 10);
        m.disturbance_of(RowId(8));
    }

    /// A bank that starts on the map and moves to the dense array
    /// partway agrees with one that is dense from the start: snapshot
    /// bytes, digest, flips and disturbance, before and after the
    /// switch and through a restore onto the map. (The property suite's
    /// banks are small enough to be dense from the start.)
    #[test]
    fn the_map_and_the_dense_array_agree_across_the_switch() {
        use twice_common::rng::SplitMix64;
        use twice_common::snapshot::{digest_of, restore_from, snapshot_bytes};

        let rows = 4 * DENSE_ROWS;
        let remap = RemapTable::with_random_faults(rows, 3, 5);
        let fresh = || {
            HammerModel::new(rows, 40)
                .with_overshoot(3)
                .with_far_coupling(5)
        };
        let mut m = fresh();
        let mut dense = HammerModel {
            disturbance: Disturbance::Dense(vec![0; rows as usize]),
            ..fresh()
        };
        let mut rng = SplitMix64::new(7);
        let (mut switched_at, mut flipped) = (None, 0);
        for step in 0..8_000u64 {
            // Half the ACTs go to four hot rows, so their victims flip.
            let row = if rng.next_below(2) == 0 {
                RowId(100 + 2 * rng.next_below(4) as u32)
            } else {
                RowId(rng.next_below(u64::from(rows)) as u32)
            };
            if rng.next_below(8) == 0 {
                m.on_refresh(row);
                dense.on_refresh(row);
            } else {
                m.on_activate(row, &remap, Time::from_ps(step));
                dense.on_activate(row, &remap, Time::from_ps(step));
            }
            if switched_at.is_none() && matches!(m.disturbance, Disturbance::Dense(_)) {
                switched_at = Some(step);
            }
            if step % 1_000 == 500 {
                let taken = m.take_flips();
                assert_eq!(taken, dense.take_flips(), "step {step}");
                flipped += taken.len();
            }
            if step % 7 == 0 {
                assert_eq!(snapshot_bytes(&m), snapshot_bytes(&dense), "step {step}");
                assert_eq!(digest_of(&m), digest_of(&dense), "step {step}");
                assert_eq!(m.flips(), dense.flips(), "step {step}");
                assert_eq!(m.max_disturbance(), dense.max_disturbance());
                assert_eq!(m.disturbance_of(row), dense.disturbance_of(row));
            }
        }
        let switched_at = switched_at.expect("the map never switched");
        assert!(switched_at > 500, "switched at step {switched_at}");
        assert!(flipped > 0, "the hot rows' victims flipped");

        // Into a fresh model, which starts on the map and switches, and
        // into the used one.
        let blob = snapshot_bytes(&dense);
        for mut restored in [fresh(), m] {
            restore_from(&mut restored, &blob).unwrap();
            assert!(matches!(restored.disturbance, Disturbance::Dense(_)));
            assert_eq!(snapshot_bytes(&restored), blob);
            restore_from(&mut restored, &snapshot_bytes(&fresh())).unwrap();
            assert!(matches!(restored.disturbance, Disturbance::Sparse(_)));
            assert_eq!(restored.max_disturbance(), 0);
        }
    }

    #[test]
    fn peak_disturbance_survives_refresh() {
        let (mut m, remap) = model(8, 100);
        for i in 0..9 {
            m.on_activate(RowId(3), &remap, Time::from_ps(i));
        }
        assert_eq!(m.peak_disturbance(), 9);
        m.on_refresh(RowId(2));
        m.on_refresh(RowId(4));
        assert_eq!(m.max_disturbance(), 0, "refresh clears live disturbance");
        assert_eq!(m.peak_disturbance(), 9, "watermark survives refresh");
        m.on_activate(RowId(3), &remap, Time::from_ps(100));
        assert_eq!(m.peak_disturbance(), 9, "lower rebound does not move it");
    }
}
