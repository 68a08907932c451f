//! The synthetic workloads S1, S2, and S3 of §7.2.
//!
//! * **S1** — uniformly random accesses across the whole memory
//!   (adversarial for CRA's counter cache: every access misses).
//! * **S2** — the CBT-adversarial pattern: sweep one half of a bank's
//!   rows until every CBT counter has split, then hammer the *other*
//!   half — which is now covered by a single coarse counter, so each
//!   threshold crossing refreshes a huge row group.
//! * **S3** — the classic row-hammer attack: one row, repeatedly.
//!
//! Phase lengths for S2 are parameters (the paper does not publish
//! them); the defaults put most of each refresh window into the
//! sweep phase, matching the magnitude reported for CBT-256.

use crate::trace::{item, AccessSource, Geometry, TraceItem};
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{ChannelId, ColId, RankId, RowId, Topology};
use twice_memctrl::request::AccessKind;

/// S1: uniformly random row accesses.
#[derive(Debug)]
pub struct S1Random {
    geo: Geometry,
    rng: SplitMix64,
}

impl S1Random {
    /// Creates S1 over `topo`.
    pub fn new(topo: &Topology, seed: u64) -> S1Random {
        S1Random {
            geo: Geometry::new(topo),
            rng: SplitMix64::new(seed),
        }
    }
}

impl AccessSource for S1Random {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.rng.state());
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let channel = self.rng.next_below(u64::from(self.geo.channels)) as u8;
        let rank = self.rng.next_below(u64::from(self.geo.ranks)) as u8;
        let bank = self.rng.next_below(u64::from(self.geo.banks)) as u16;
        let row = self.rng.next_below(u64::from(self.geo.rows)) as u32;
        let col = self.rng.next_below(u64::from(self.geo.cols)) as u16;
        item(
            &self.geo.mapper,
            ChannelId(channel),
            RankId(rank),
            bank,
            RowId(row),
            ColId(col),
            AccessKind::Read,
            0,
        )
    }
}

/// S2: the CBT-adversarial two-phase pattern on one bank.
#[derive(Debug)]
pub struct S2CbtAdversarial {
    geo: Geometry,
    phase1_len: u64,
    phase2_len: u64,
    cursor: u64,
    sweep_row: u32,
    rng: SplitMix64,
}

impl S2CbtAdversarial {
    /// Creates S2 with explicit phase lengths (accesses per phase).
    ///
    /// # Panics
    ///
    /// Panics if either phase length is zero.
    pub fn new(topo: &Topology, phase1_len: u64, phase2_len: u64, seed: u64) -> S2CbtAdversarial {
        assert!(phase1_len > 0 && phase2_len > 0, "phases must be non-empty");
        S2CbtAdversarial {
            geo: Geometry::new(topo),
            phase1_len,
            phase2_len,
            cursor: 0,
            sweep_row: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Default phase lengths: the sweep dominates each refresh window
    /// (1.2 M accesses ≈ 54 ms of row misses), leaving the coarse-counter
    /// hammer ~100 K accesses before the tree resets.
    pub fn standard(topo: &Topology, seed: u64) -> S2CbtAdversarial {
        S2CbtAdversarial::new(topo, 1_200_000, 100_000, seed)
    }

    fn in_phase1(&self) -> bool {
        self.cursor % (self.phase1_len + self.phase2_len) < self.phase1_len
    }
}

impl AccessSource for S2CbtAdversarial {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cursor);
        w.put_u32(self.sweep_row);
        w.put_u64(self.rng.state());
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let cursor = r.take_u64()?;
        let sweep_row = r.take_u32()?;
        // The sweep stays in the lower half of the bank; a doctored
        // checkpoint must not be able to move it out.
        let half = (self.geo.rows / 2).max(1);
        if sweep_row >= half {
            return Err(SnapshotError::StateMismatch(format!(
                "sweep row {sweep_row} outside phase-1 half 0..{half}"
            )));
        }
        self.cursor = cursor;
        self.sweep_row = sweep_row;
        self.rng.set_state(r.take_u64()?);
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let half = self.geo.rows / 2;
        let row = if self.in_phase1() {
            // Sweep the lower half, forcing splits all over it.
            self.sweep_row = (self.sweep_row + 1) % half;
            self.sweep_row
        } else {
            // Uniformly hit the upper half: one coarse counter absorbs
            // everything.
            half + self.rng.next_below(u64::from(half)) as u32
        };
        self.cursor += 1;
        item(
            &self.geo.mapper,
            ChannelId(0),
            RankId(0),
            0,
            RowId(row),
            ColId(0),
            AccessKind::Read,
            0,
        )
    }
}

/// S3: the single-row hammer.
#[derive(Debug)]
pub struct S3SingleRowHammer {
    geo: Geometry,
    row: RowId,
}

impl S3SingleRowHammer {
    /// Creates S3 hammering one fixed row of bank 0.
    pub fn new(topo: &Topology, seed: u64) -> S3SingleRowHammer {
        let mut rng = SplitMix64::new(seed);
        // Away from the bank edges so both neighbors exist.
        let row = 1 + rng.next_below(u64::from(topo.rows_per_bank - 2)) as u32;
        S3SingleRowHammer {
            geo: Geometry::new(topo),
            row: RowId(row),
        }
    }

    /// The hammered row.
    pub fn target(&self) -> RowId {
        self.row
    }
}

impl AccessSource for S3SingleRowHammer {
    fn next_access(&mut self) -> TraceItem {
        item(
            &self.geo.mapper,
            ChannelId(0),
            RankId(0),
            0,
            self.row,
            ColId(0),
            AccessKind::Read,
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_spreads_uniformly_over_banks() {
        let topo = Topology::paper_default();
        let s1 = S1Random::new(&topo, 1);
        let mut banks: std::collections::HashMap<(u8, u8, u16), u32> =
            std::collections::HashMap::new();
        for (_, a) in s1.take_requests(64_000) {
            *banks.entry((a.channel.0, a.rank.0, a.bank)).or_insert(0) += 1;
        }
        assert_eq!(banks.len(), 64);
        let max = *banks.values().max().unwrap();
        let min = *banks.values().min().unwrap();
        assert!(max < min * 2, "bank skew: {min}..{max}");
    }

    #[test]
    fn s2_sweeps_lower_half_then_hits_upper_half() {
        let topo = Topology::paper_default();
        let s2 = S2CbtAdversarial::new(&topo, 100, 100, 1);
        let rows: Vec<u32> = s2.take_requests(200).map(|(_, a)| a.row.0).collect();
        let half = topo.rows_per_bank / 2;
        assert!(rows[..100].iter().all(|&r| r < half), "phase 1 stays low");
        assert!(rows[100..].iter().all(|&r| r >= half), "phase 2 stays high");
        // Phase 1 is a sweep of distinct rows.
        let distinct: std::collections::HashSet<_> = rows[..100].iter().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn s2_phases_repeat() {
        let topo = Topology::paper_default();
        let s2 = S2CbtAdversarial::new(&topo, 10, 10, 1);
        let rows: Vec<u32> = s2.take_requests(40).map(|(_, a)| a.row.0).collect();
        let half = topo.rows_per_bank / 2;
        assert!(rows[20..30].iter().all(|&r| r < half), "cycle restarts");
    }

    #[test]
    fn s2_rejects_out_of_half_sweep_row_from_snapshot() {
        use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let topo = Topology::paper_default();
        let mut s2 = S2CbtAdversarial::new(&topo, 10, 10, 1);
        let mut w = SnapshotWriter::new();
        w.put_u64(0); // cursor
        w.put_u32(topo.rows_per_bank); // sweep row, far outside the half
        w.put_u64(1); // rng
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = s2.load_state(&mut r).unwrap_err();
        assert!(matches!(err, SnapshotError::StateMismatch(_)), "{err:?}");
    }

    #[test]
    fn s3_hits_one_row_forever() {
        let topo = Topology::paper_default();
        let s3 = S3SingleRowHammer::new(&topo, 5);
        let target = s3.target();
        assert!(target.0 > 0 && target.0 < topo.rows_per_bank - 1);
        for (_, a) in s3.take_requests(1000) {
            assert_eq!(a.row, target);
            assert_eq!(a.bank, 0);
        }
    }
}
