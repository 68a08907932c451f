//! Command and energy accounting for a DRAM rank.

use crate::energy::DramEnergyModel;
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Running counters for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// ACT commands accepted (from the memory controller).
    pub acts: u64,
    /// PRE commands accepted.
    pub precharges: u64,
    /// RD commands accepted.
    pub reads: u64,
    /// WR commands accepted.
    pub writes: u64,
    /// REF commands accepted.
    pub refreshes: u64,
    /// REF commands accepted on the bus but silently dropped inside the
    /// device by the `RefreshDrop` chaos fault: the covered rowset was
    /// never actually refreshed.
    pub dropped_refreshes: u64,
    /// ARR commands performed.
    pub arrs: u64,
    /// Internal victim-row activations performed by ARRs.
    pub arr_victim_acts: u64,
    /// Internal row activations performed for explicit defense refreshes
    /// (MC-side schemes refreshing logical rows).
    pub explicit_refresh_acts: u64,
    /// Commands nacked by the RCD for the *protocol* reason (§5.2): the
    /// target bank or rank was busy with an ARR in progress.
    pub nacks: u64,
    /// Commands nacked because a chaos fault plan injected a spurious
    /// nack the protocol would not have produced. Kept separate so
    /// experiments can tell real ARR back-pressure from injected noise.
    pub injected_nacks: u64,
}

impl DramStats {
    /// Creates zeroed stats.
    pub fn new() -> DramStats {
        DramStats::default()
    }

    /// Total row activations actually performed in the array, including
    /// ARR-internal victim activations.
    #[inline]
    pub fn total_array_acts(&self) -> u64 {
        self.acts + self.arr_victim_acts + self.explicit_refresh_acts
    }

    /// Total energy (pJ) under `model`.
    pub fn energy_pj(&self, model: &DramEnergyModel) -> u64 {
        model.total_pj(
            self.total_array_acts(),
            self.refreshes,
            self.reads,
            self.writes,
        )
    }

    fn fields(&self) -> [u64; 11] {
        [
            self.acts,
            self.precharges,
            self.reads,
            self.writes,
            self.refreshes,
            self.dropped_refreshes,
            self.arrs,
            self.arr_victim_acts,
            self.explicit_refresh_acts,
            self.nacks,
            self.injected_nacks,
        ]
    }
}

impl Snapshot for DramStats {
    fn save_state(&self, w: &mut SnapshotWriter) {
        for v in self.fields() {
            w.put_u64(v);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.acts = r.take_u64()?;
        self.precharges = r.take_u64()?;
        self.reads = r.take_u64()?;
        self.writes = r.take_u64()?;
        self.refreshes = r.take_u64()?;
        self.dropped_refreshes = r.take_u64()?;
        self.arrs = r.take_u64()?;
        self.arr_victim_acts = r.take_u64()?;
        self.explicit_refresh_acts = r.take_u64()?;
        self.nacks = r.take_u64()?;
        self.injected_nacks = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_acts_include_arr_victims() {
        let s = DramStats {
            acts: 100,
            arr_victim_acts: 2,
            ..DramStats::new()
        };
        assert_eq!(s.total_array_acts(), 102);
    }

    #[test]
    fn energy_uses_model() {
        let s = DramStats {
            acts: 1,
            refreshes: 1,
            ..DramStats::new()
        };
        let m = DramEnergyModel::ddr4();
        assert_eq!(s.energy_pj(&m), m.act_pre_pj + m.refresh_bank_pj);
    }
}
