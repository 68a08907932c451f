//! Property tests: the hammer model, which digests, snapshots and
//! restores only its live rows, against a dense-scan reference that
//! visits every row.
//!
//! Each case builds a small bank (row counts that are and are not
//! multiples of 64, with and without spare-row remapping) with a low
//! `N_th`, overshoot and far coupling each on or off, and runs a random
//! script through both models. Steps drive the model the way the device
//! does: an ACT, an auto-refresh of the next rowset, an explicit
//! defense refresh (an internal ACT of each listed row), an ARR (an
//! internal ACT of each physical neighbor of an aggressor), a restore of
//! an earlier snapshot, and a drain of the flip log. After every step
//! the two must agree on digest bytes, snapshot bytes, flips, peak and
//! maximum disturbance.
//!
//! Scripts are drawn from the in-tree seeded `SplitMix64` (the proptest
//! crate is unavailable offline); every seed is a reproducible case.

use twice_common::rng::SplitMix64;
use twice_common::snapshot::{
    digest_of, restore_from, snapshot_bytes, SnapshotError, SnapshotReader, SnapshotWriter,
};
use twice_common::{RowId, Time};
use twice_dram::hammer::{BitFlip, HammerModel};
use twice_dram::remap::RemapTable;

/// The hammer model as a dense scan: every digest, snapshot and restore
/// visits all rows.
#[derive(Debug, Clone)]
struct Dense {
    n_th: u64,
    overshoot: Option<u64>,
    far: Option<u64>,
    disturbance: Vec<u64>,
    flips_emitted: Vec<u32>,
    flips: Vec<BitFlip>,
    act_counter: u64,
    peak: u64,
}

impl Dense {
    fn new(rows: u32, n_th: u64, overshoot: Option<u64>, far: Option<u64>) -> Dense {
        Dense {
            n_th,
            overshoot,
            far,
            disturbance: vec![0; rows as usize],
            flips_emitted: vec![0; rows as usize],
            flips: Vec::new(),
            act_counter: 0,
            peak: 0,
        }
    }

    fn flips_allowed(&self, d: u64) -> u32 {
        if d < self.n_th {
            0
        } else {
            1 + self
                .overshoot
                .map_or(0, |iv| ((d - self.n_th) / iv).min(63) as u32)
        }
    }

    fn activate(&mut self, aggressor: RowId, remap: &RemapTable, now: Time) {
        self.refresh(aggressor);
        self.act_counter += 1;
        for victim in remap.physical_neighbors(aggressor) {
            self.bump(victim, now);
        }
        if let Some(k) = self.far {
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
        let d = self.disturbance[i];
        self.peak = self.peak.max(d);
        while self.flips_emitted[i] < self.flips_allowed(d) {
            self.flips_emitted[i] += 1;
            self.flips.push(BitFlip {
                victim,
                at: now,
                disturbance: d,
            });
        }
    }

    fn refresh(&mut self, row: RowId) {
        self.disturbance[row.index()] = 0;
        self.flips_emitted[row.index()] = 0;
    }

    fn max_disturbance(&self) -> u64 {
        self.disturbance.iter().copied().max().unwrap_or(0)
    }

    fn save(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.act_counter);
        w.put_u64(self.peak);
        w.put_usize(self.disturbance.len());
        w.put_usize(self.disturbance.iter().filter(|&&v| v != 0).count());
        for (i, &v) in self.disturbance.iter().enumerate() {
            if v != 0 {
                w.put_u32(i as u32);
                w.put_u64(v);
            }
        }
        w.put_usize(self.flips_emitted.iter().filter(|&&v| v != 0).count());
        for (i, &v) in self.flips_emitted.iter().enumerate() {
            if v != 0 {
                w.put_u32(i as u32);
                w.put_u32(v);
            }
        }
        w.put_usize(self.flips.len());
        for f in &self.flips {
            w.put_u32(f.victim.0);
            w.put_u64(f.at.as_ps());
            w.put_u64(f.disturbance);
        }
        w.finish()
    }

    fn load(&mut self, blob: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(blob)?;
        self.act_counter = r.take_u64()?;
        self.peak = r.take_u64()?;
        assert_eq!(r.take_usize()?, self.disturbance.len());
        self.disturbance.fill(0);
        for _ in 0..r.take_usize()? {
            let i = r.take_u32()? as usize;
            self.disturbance[i] = r.take_u64()?;
        }
        self.flips_emitted.fill(0);
        for _ in 0..r.take_usize()? {
            let i = r.take_u32()? as usize;
            self.flips_emitted[i] = r.take_u32()?;
        }
        self.flips.clear();
        for _ in 0..r.take_usize()? {
            self.flips.push(BitFlip {
                victim: RowId(r.take_u32()?),
                at: Time::from_ps(r.take_u64()?),
                disturbance: r.take_u64()?,
            });
        }
        Ok(())
    }

    /// The checksum [`Dense::save`] seals its blob with: a digest is its
    /// blob's checksum.
    fn digest(&self) -> u64 {
        let blob = self.save();
        u64::from_le_bytes(blob[blob.len() - 8..].try_into().expect("8 bytes"))
    }
}

fn assert_same(m: &HammerModel, dense: &Dense, at: &str) {
    assert_eq!(digest_of(m), dense.digest(), "digest differs {at}");
    assert_eq!(snapshot_bytes(m), dense.save(), "snapshot differs {at}");
    assert_eq!(m.flips(), &dense.flips[..], "flips differ {at}");
    assert_eq!(m.peak_disturbance(), dense.peak, "peak differs {at}");
    assert_eq!(
        m.max_disturbance(),
        dense.max_disturbance(),
        "max disturbance differs {at}"
    );
}

struct Case {
    rng: SplitMix64,
    rows: u32,
    remap: RemapTable,
    /// Production model, fresh model of the same configuration.
    model: HammerModel,
    fresh: HammerModel,
    dense: Dense,
    /// Auto-refresh: rows per REF and the next rowset.
    set_rows: u32,
    next_set: u32,
    /// A few hot rows the ACTs favour, so victims reach `N_th`.
    hot: Vec<RowId>,
    /// Snapshots taken earlier in the script.
    saved: Vec<Vec<u8>>,
    now: u64,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut rng = SplitMix64::new(seed);
        let rows = [8, 64, 130, 200][rng.next_below(4) as usize];
        let remap = if rng.chance(0.5) {
            RemapTable::identity(rows)
        } else {
            RemapTable::with_random_faults(rows, 1 + rng.next_below(3) as u32, seed)
        };
        let n_th = 2 + rng.next_below(14);
        let overshoot = rng.chance(0.5).then(|| 1 + rng.next_below(4));
        let far = rng.chance(0.5).then(|| 1 + rng.next_below(4));
        let build = || {
            let mut m = HammerModel::new(rows, n_th);
            if let Some(iv) = overshoot {
                m = m.with_overshoot(iv);
            }
            if let Some(k) = far {
                m = m.with_far_coupling(k);
            }
            m
        };
        let hot = (0..3)
            .map(|_| RowId(rng.next_below(u64::from(rows)) as u32))
            .collect();
        Case {
            model: build(),
            fresh: build(),
            dense: Dense::new(rows, n_th, overshoot, far),
            set_rows: rows.div_ceil(8),
            next_set: 0,
            hot,
            saved: Vec::new(),
            now: 0,
            rows,
            remap,
            rng,
        }
    }

    fn row(&mut self) -> RowId {
        if self.rng.chance(0.7) {
            self.hot[self.rng.next_below(self.hot.len() as u64) as usize]
        } else {
            RowId(self.rng.next_below(u64::from(self.rows)) as u32)
        }
    }

    fn activate(&mut self, row: RowId) {
        let now = Time::from_ps(self.now);
        self.model.on_activate(row, &self.remap, now);
        self.dense.activate(row, &self.remap, now);
    }

    fn step(&mut self) {
        self.now += 1;
        match self.rng.next_below(100) {
            0..70 => {
                let row = self.row();
                self.activate(row);
            }
            70..80 => {
                let start = self.next_set * self.set_rows;
                let end = (start + self.set_rows).min(self.rows);
                self.next_set = (self.next_set + 1) % self.rows.div_ceil(self.set_rows);
                for row in (start..end).map(RowId) {
                    self.model.on_refresh(row);
                    self.dense.refresh(row);
                }
            }
            80..86 => {
                for _ in 0..1 + self.rng.next_below(3) {
                    let row = self.row();
                    self.activate(row);
                }
            }
            86..92 => {
                let aggressor = self.row();
                for victim in self.remap.physical_neighbors(aggressor) {
                    self.activate(victim);
                }
            }
            92..95 => {
                self.saved.push(snapshot_bytes(&self.model));
            }
            95..98 if !self.saved.is_empty() => {
                // Restore an earlier snapshot into the running model,
                // whose live rows differ from the blob's, and into a
                // fresh one: both must land on the dense reference.
                let blob =
                    self.saved[self.rng.next_below(self.saved.len() as u64) as usize].clone();
                restore_from(&mut self.model, &blob).expect("restore into a used model");
                restore_from(&mut self.fresh, &blob).expect("restore into a fresh model");
                self.dense.load(&blob).expect("dense restore");
                assert_eq!(digest_of(&self.model), digest_of(&self.fresh));
                assert_eq!(snapshot_bytes(&self.fresh), self.dense.save());
            }
            _ => {
                assert_eq!(
                    self.model.take_flips(),
                    std::mem::take(&mut self.dense.flips)
                );
            }
        }
    }
}

#[test]
fn live_rows_digest_and_snapshot_like_a_dense_scan() {
    let mut flipped_cases = 0;
    let mut restores = 0;
    for seed in 0..300 {
        let mut case = Case::new(seed);
        for step in 0..800 {
            case.step();
            assert_same(
                &case.model,
                &case.dense,
                &format!("seed {seed} step {step}"),
            );
        }
        restores += case.saved.len();
        if case.dense.flips_emitted.iter().any(|&f| f > 0)
            || case.model.peak_disturbance() >= case.dense.n_th
        {
            flipped_cases += 1;
        }
    }
    assert!(
        flipped_cases > 150,
        "only {flipped_cases} cases reached N_th"
    );
    assert!(restores > 1_000, "only {restores} snapshots taken");
}

/// A blob the model never writes itself: a row with emitted flips but no
/// disturbance, a row listed twice, and an explicit zero entry.
#[test]
fn hand_made_blobs_digest_like_a_dense_scan() {
    let rows = 130;
    let mut w = SnapshotWriter::new();
    w.put_u64(9); // act counter
    w.put_u64(12); // peak
    w.put_usize(rows as usize);
    w.put_usize(4);
    for (row, v) in [(3u32, 5u64), (3, 0), (70, 0), (129, 2)] {
        w.put_u32(row);
        w.put_u64(v);
    }
    w.put_usize(2);
    for (row, v) in [(5u32, 2u32), (129, 1)] {
        w.put_u32(row);
        w.put_u32(v);
    }
    w.put_usize(0);
    let blob = w.finish();

    let remap = RemapTable::identity(rows);
    let mut dense = Dense::new(rows, 4, None, None);
    dense.load(&blob).expect("dense restore");
    // Into a fresh model and into one whose live rows the blob omits.
    let mut used = HammerModel::new(rows, 4);
    for i in 0..20 {
        used.on_activate(RowId(i % 40), &remap, Time::from_ps(u64::from(i)));
    }
    for m in [&mut HammerModel::new(rows, 4), &mut used] {
        restore_from(m, &blob).expect("restore");
        let mut dense = dense.clone();
        assert_same(m, &dense, "after restore");
        // Refreshing the flip-only row clears it; activating a row with
        // an explicit zero entry disturbs its neighbors.
        m.on_refresh(RowId(5));
        dense.refresh(RowId(5));
        assert_same(m, &dense, "after refreshing the flip-only row");
        m.on_activate(RowId(70), &remap, Time::from_ps(99));
        dense.activate(RowId(70), &remap, Time::from_ps(99));
        assert_same(m, &dense, "after activating a zero-entry row");
    }
}
