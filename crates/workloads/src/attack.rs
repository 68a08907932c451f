//! A row-hammer attack kit.
//!
//! Beyond the paper's S3 (single aggressor), real attacks hammer from
//! both sides of a victim (double-sided, as in the original ISCA'14
//! study and Drammer) or rotate through many aggressors to defeat
//! trackers with small tables (many-sided, the pattern later used
//! against TRR). These generators drive the end-to-end protection
//! experiments (V1 in DESIGN.md): with no defense the fault model must
//! flip the victim; with TWiCe it must not.

use crate::trace::{item, AccessSource, TraceItem};
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{ChannelId, ColId, RankId, RowId, Topology};
use twice_memctrl::addrmap::AddressMapper;
use twice_memctrl::request::AccessKind;

/// Which hammer shape to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HammerShape {
    /// One aggressor row (the victim is whatever sits next to it).
    SingleSided {
        /// The hammered row.
        aggressor: RowId,
    },
    /// Two aggressors sandwiching `victim` (rows `victim ± 1`).
    DoubleSided {
        /// The sandwiched victim row.
        victim: RowId,
    },
    /// A rotating set of aggressors.
    ManySided {
        /// The aggressor rows, hammered round-robin.
        aggressors: Vec<RowId>,
    },
    /// One true aggressor interleaved with decoy rows: the decoys draw
    /// no disturbance of their own worth tracking but inflate a small
    /// tracker's working set, flushing the real aggressor out of
    /// capacity-bound tables (the TRR-style evasion TWiCe's sizing
    /// argument §4.3 is meant to survive).
    Decoy {
        /// The row actually being hammered.
        aggressor: RowId,
        /// Cover rows cycled between aggressor activations.
        decoys: Vec<RowId>,
    },
}

impl HammerShape {
    /// The aggressor rows this shape activates.
    pub fn aggressors(&self) -> Vec<RowId> {
        match self {
            HammerShape::SingleSided { aggressor } => vec![*aggressor],
            HammerShape::DoubleSided { victim } => [victim.below(), victim.above()]
                .into_iter()
                .flatten()
                .collect(),
            HammerShape::ManySided { aggressors } => aggressors.clone(),
            // Interleave [a, d1, a, d2, ...] so the true aggressor keeps
            // half the activation rate while every decoy churns the
            // tracker between its activations.
            HammerShape::Decoy { aggressor, decoys } => decoys
                .iter()
                .flat_map(|d| [*aggressor, *d])
                .chain(decoys.is_empty().then_some(*aggressor))
                .collect(),
        }
    }
}

/// A hammer attack on one bank.
#[derive(Debug)]
pub struct HammerAttack {
    mapper: AddressMapper,
    channel: ChannelId,
    rank: RankId,
    bank: u16,
    aggressors: Vec<RowId>,
    cursor: usize,
}

impl HammerAttack {
    /// Creates an attack of `shape` on `(channel 0, rank 0, bank)`.
    ///
    /// # Panics
    ///
    /// Panics if the shape yields no aggressors or an aggressor is
    /// outside the bank.
    pub fn new(topo: &Topology, bank: u16, shape: HammerShape) -> HammerAttack {
        let aggressors = shape.aggressors();
        assert!(!aggressors.is_empty(), "attack needs an aggressor");
        assert!(
            aggressors.iter().all(|r| topo.contains_row(*r)),
            "aggressor out of range"
        );
        HammerAttack {
            mapper: AddressMapper::row_interleaved(topo),
            channel: ChannelId(0),
            rank: RankId(0),
            bank,
            aggressors,
            cursor: 0,
        }
    }

    /// The aggressor rows.
    pub fn aggressors(&self) -> &[RowId] {
        &self.aggressors
    }
}

impl AccessSource for HammerAttack {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.cursor);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let cursor = r.take_usize()?;
        if cursor >= self.aggressors.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "attack cursor {cursor} out of {} aggressors",
                self.aggressors.len()
            )));
        }
        self.cursor = cursor;
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let row = self.aggressors[self.cursor];
        self.cursor = (self.cursor + 1) % self.aggressors.len();
        item(
            &self.mapper,
            self.channel,
            self.rank,
            self.bank,
            row,
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
    fn double_sided_alternates_around_the_victim() {
        let topo = Topology::paper_default();
        let attack = HammerAttack::new(&topo, 3, HammerShape::DoubleSided { victim: RowId(100) });
        let rows: Vec<u32> = attack.take_requests(6).map(|(_, a)| a.row.0).collect();
        assert_eq!(rows, vec![99, 101, 99, 101, 99, 101]);
    }

    #[test]
    fn single_sided_repeats_one_row() {
        let topo = Topology::paper_default();
        let attack = HammerAttack::new(
            &topo,
            0,
            HammerShape::SingleSided {
                aggressor: RowId(7),
            },
        );
        assert!(attack.take_requests(10).all(|(_, a)| a.row == RowId(7)));
    }

    #[test]
    fn many_sided_rotates() {
        let topo = Topology::paper_default();
        let aggressors: Vec<RowId> = (10..18).map(RowId).collect();
        let attack = HammerAttack::new(
            &topo,
            0,
            HammerShape::ManySided {
                aggressors: aggressors.clone(),
            },
        );
        let rows: Vec<RowId> = attack.take_requests(16).map(|(_, a)| a.row).collect();
        assert_eq!(&rows[..8], &aggressors[..]);
        assert_eq!(&rows[8..], &aggressors[..]);
    }

    #[test]
    fn double_sided_at_edge_has_one_aggressor() {
        let shape = HammerShape::DoubleSided { victim: RowId(0) };
        assert_eq!(shape.aggressors(), vec![RowId(1)]);
    }

    #[test]
    fn decoy_gives_the_aggressor_half_the_activations() {
        let topo = Topology::paper_default();
        let attack = HammerAttack::new(
            &topo,
            0,
            HammerShape::Decoy {
                aggressor: RowId(50),
                decoys: vec![RowId(200), RowId(300), RowId(400)],
            },
        );
        let rows: Vec<u32> = attack.take_requests(12).map(|(_, a)| a.row.0).collect();
        assert_eq!(
            rows,
            vec![50, 200, 50, 300, 50, 400, 50, 200, 50, 300, 50, 400]
        );
    }

    #[test]
    fn decoy_without_decoys_degenerates_to_single_sided() {
        let shape = HammerShape::Decoy {
            aggressor: RowId(5),
            decoys: vec![],
        };
        assert_eq!(shape.aggressors(), vec![RowId(5)]);
    }

    #[test]
    #[should_panic(expected = "aggressor out of range")]
    fn rejects_out_of_range_aggressor() {
        let topo = Topology::single_bank(16);
        HammerAttack::new(
            &topo,
            0,
            HammerShape::SingleSided {
                aggressor: RowId(16),
            },
        );
    }
}
