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
//! State is dense per-row arrays, so an ACT costs O(1). Next to them a
//! bitmap marks the *live* rows, those with non-zero disturbance or a
//! non-zero emitted-flip count, which are usually a small share of a
//! bank. Digest, snapshots and restore walk only the live rows, and a
//! refresh of a row that is not live writes nothing. The bitmap costs
//! 16 KiB for a paper-size bank of 131,072 rows, against 1.5 MiB of
//! arrays.

use crate::remap::RemapTable;
use twice_common::snapshot::{
    Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StateDigest,
};
use twice_common::{RowId, Time};

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

/// Per-bank disturbance state.
#[derive(Debug, Clone)]
pub struct HammerModel {
    /// Vendor disturbance threshold `N_th`.
    n_th: u64,
    /// Disturbance accumulated by each logical row since its last refresh.
    disturbance: Vec<u64>,
    /// Bits already flipped in each victim this window (so each victim
    /// is reported once per corruption event, not once per ACT).
    flips_emitted: Vec<u32>,
    /// One bit per row, set iff the row's `disturbance` or
    /// `flips_emitted` entry is non-zero.
    live: Vec<u64>,
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
            disturbance: vec![0; rows as usize],
            flips_emitted: vec![0; rows as usize],
            live: vec![0; (rows as usize).div_ceil(64)],
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

    /// Bits this model would have flipped at disturbance `d`.
    fn flips_allowed(&self, d: u64) -> u32 {
        if d < self.n_th {
            0
        } else {
            1 + match self.overshoot_interval {
                Some(iv) => ((d - self.n_th) / iv).min(63) as u32,
                None => 0,
            }
        }
    }

    /// The configured disturbance threshold.
    #[inline]
    pub fn n_th(&self) -> u64 {
        self.n_th
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
        let i = victim.index();
        self.disturbance[i] += 1;
        self.live[i / 64] |= 1 << (i % 64);
        let d = self.disturbance[i];
        if d > self.peak {
            self.peak = d;
        }
        // Below `N_th` nothing flips, and the flip count is not read.
        let allowed = self.flips_allowed(d);
        while allowed > 0 && self.flips_emitted[i] < allowed {
            self.flips_emitted[i] += 1;
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

    /// Zeroes `row`. A row that is not live is left untouched, so an
    /// ACT or refresh on a never-disturbed row writes no array page.
    fn clear(&mut self, row: RowId) {
        let i = row.index();
        let bit = 1 << (i % 64);
        if self.live[i / 64] & bit != 0 {
            self.live[i / 64] &= !bit;
            self.disturbance[i] = 0;
            self.flips_emitted[i] = 0;
        }
    }

    /// Re-derives row `i`'s live bit from the arrays (restore only).
    fn sync_live(&mut self, i: usize) {
        let bit = 1 << (i % 64);
        if self.disturbance[i] != 0 || self.flips_emitted[i] != 0 {
            self.live[i / 64] |= bit;
        } else {
            self.live[i / 64] &= !bit;
        }
    }

    /// Current disturbance of `row`.
    #[inline]
    pub fn disturbance_of(&self, row: RowId) -> u64 {
        self.disturbance[row.index()]
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
        ones(&self.live)
            .map(|i| self.disturbance[i])
            .max()
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
}

/// The indices of the set bits in `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

// Every encoding below lists the non-zero disturbance rows, then the
// non-zero emitted-flip rows, each in ascending row order. Walking the
// live bits yields exactly those rows, so the bytes match a dense scan.
impl Snapshot for HammerModel {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.act_counter);
        w.put_u64(self.peak);
        w.put_usize(self.disturbance.len());
        let disturbed = || ones(&self.live).filter(|&i| self.disturbance[i] != 0);
        w.put_usize(disturbed().count());
        for i in disturbed() {
            w.put_u32(i as u32);
            w.put_u64(self.disturbance[i]);
        }
        let flipped = || ones(&self.live).filter(|&i| self.flips_emitted[i] != 0);
        w.put_usize(flipped().count());
        for i in flipped() {
            w.put_u32(i as u32);
            w.put_u32(self.flips_emitted[i]);
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
        if rows != self.disturbance.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "hammer model has {} rows, snapshot has {rows}",
                self.disturbance.len()
            )));
        }
        for i in ones(&self.live) {
            self.disturbance[i] = 0;
            self.flips_emitted[i] = 0;
        }
        self.live.fill(0);
        let out_of_range = |i: usize| SnapshotError::StateMismatch(format!("row {i} out of range"));
        let n = r.take_usize()?;
        for _ in 0..n {
            let i = r.take_u32()? as usize;
            let v = r.take_u64()?;
            *self.disturbance.get_mut(i).ok_or_else(|| out_of_range(i))? = v;
            self.sync_live(i);
        }
        let n = r.take_usize()?;
        for _ in 0..n {
            let i = r.take_u32()? as usize;
            let v = r.take_u32()?;
            *self
                .flips_emitted
                .get_mut(i)
                .ok_or_else(|| out_of_range(i))? = v;
            self.sync_live(i);
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

    fn digest_state(&self, d: &mut StateDigest) {
        d.write_u64(self.act_counter);
        d.write_u64(self.peak);
        for i in ones(&self.live) {
            if self.disturbance[i] != 0 {
                d.write_u32(i as u32);
                d.write_u64(self.disturbance[i]);
            }
        }
        for i in ones(&self.live) {
            if self.flips_emitted[i] != 0 {
                d.write_u32(i as u32);
                d.write_u32(self.flips_emitted[i]);
            }
        }
        d.write_usize(self.flips.len());
        for f in &self.flips {
            d.write_u32(f.victim.0);
            d.write_u64(f.at.as_ps());
            d.write_u64(f.disturbance);
        }
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
