//! Integration tests for the §5.2 ARR/nack protocol between the memory
//! controller and the RCD.

use twice_repro::common::{
    BankId, DefenseResponse, Detection, RowHammerDefense, RowId, Span, Time,
};
use twice_repro::dram::cmd::DramCommand;
use twice_repro::dram::device::{DramRank, RankConfig};
use twice_repro::dram::rcd::{NackReason, Rcd, RcdOutcome};

/// A defense that flags a fixed row as an aggressor on its first ACT.
struct FlagOnce {
    row: RowId,
    fired: bool,
}

impl RowHammerDefense for FlagOnce {
    fn name(&self) -> &str {
        "flag-once"
    }
    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        if row == self.row && !self.fired {
            self.fired = true;
            DefenseResponse {
                detection: Some(Detection {
                    bank,
                    row,
                    at: now,
                    act_count: 1,
                }),
                ..DefenseResponse::arr(row)
            }
        } else {
            DefenseResponse::none()
        }
    }
}

fn rcd_with_flag(row: RowId) -> Rcd {
    let rank = DramRank::new(RankConfig::for_test(4, 256).with_n_th(1_000_000));
    Rcd::new(vec![rank], Box::new(FlagOnce { row, fired: false }))
}

fn t(ns: u64) -> Time {
    Time::ZERO + Span::from_ns(ns)
}

#[test]
fn timing_rejected_pre_still_converts_to_arr_on_resend() {
    // The regression that once lost ARRs: a PRE that violates tRAS is
    // rejected by the device; the MC resends it later and the conversion
    // must still happen.
    let mut rcd = rcd_with_flag(RowId(9));
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 0,
            row: RowId(9),
        },
        t(0),
    )
    .unwrap();
    // tRAS = 31 ns: this PRE is illegal and must error without consuming
    // the pending ARR.
    assert!(rcd
        .issue(0, DramCommand::Precharge { bank: 0 }, t(10))
        .is_err());
    let out = rcd
        .issue(0, DramCommand::Precharge { bank: 0 }, t(31))
        .unwrap();
    assert_eq!(out, RcdOutcome::ArrPerformed { victims: 2 });
    assert_eq!(rcd.ranks()[0].stats().arrs, 1);
}

#[test]
fn nacked_commands_succeed_when_resent_at_retry_time() {
    let mut rcd = rcd_with_flag(RowId(9));
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 0,
            row: RowId(9),
        },
        t(0),
    )
    .unwrap();
    rcd.issue(0, DramCommand::Precharge { bank: 0 }, t(31))
        .unwrap(); // becomes ARR, busy 104 ns
                   // An ACT to a different bank is nacked during the ARR (tFAW safety).
    let out = rcd
        .issue(
            0,
            DramCommand::Activate {
                bank: 2,
                row: RowId(1),
            },
            t(50),
        )
        .unwrap();
    let RcdOutcome::Nack { retry_at, reason } = out else {
        panic!("expected a nack, got {out:?}");
    };
    assert_eq!(retry_at, t(135));
    assert_eq!(reason, NackReason::ArrInProgress);
    assert_eq!(
        rcd.issue(
            0,
            DramCommand::Activate {
                bank: 2,
                row: RowId(1)
            },
            retry_at
        )
        .unwrap(),
        RcdOutcome::Accepted
    );
    assert_eq!(rcd.nacks(), 1);
}

#[test]
fn non_act_commands_to_other_banks_proceed_during_arr() {
    // Only ACTs are blocked rank-wide (tFAW accounting); column traffic
    // to already-open rows of other banks flows.
    let mut rcd = rcd_with_flag(RowId(9));
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 1,
            row: RowId(4),
        },
        t(0),
    )
    .unwrap();
    // Banks 0 and 1 share a bank group: tRRD_L (6 ns) applies.
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 0,
            row: RowId(9),
        },
        t(6),
    )
    .unwrap();
    rcd.issue(0, DramCommand::Precharge { bank: 0 }, t(37))
        .unwrap(); // ARR on bank 0 until t(141)
    let out = rcd
        .issue(
            0,
            DramCommand::Read {
                bank: 1,
                col: twice_repro::common::ColId(0),
            },
            t(45),
        )
        .unwrap();
    assert_eq!(out, RcdOutcome::Accepted);
}

#[test]
fn arr_victims_are_resolved_through_the_remap_table() {
    let rank = DramRank::new(
        RankConfig::for_test(1, 256)
            .with_n_th(1_000_000)
            .with_faults(16),
    );
    // Find a remapped row before moving the rank into the RCD.
    let remapped = (0..256)
        .map(RowId)
        .find(|&r| rank.remap_table(0).is_remapped(r))
        .expect("16 faults in 256 rows");
    let expected: Vec<RowId> = rank.physical_neighbors(0, remapped).into_iter().collect();
    let mut rcd = Rcd::new(
        vec![rank],
        Box::new(FlagOnce {
            row: remapped,
            fired: false,
        }),
    );
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 0,
            row: remapped,
        },
        t(0),
    )
    .unwrap();
    let out = rcd
        .issue(0, DramCommand::Precharge { bank: 0 }, t(31))
        .unwrap();
    assert_eq!(
        out,
        RcdOutcome::ArrPerformed {
            victims: expected.len() as u32
        }
    );
    // The physical victims were restored (disturbance cleared).
    for v in expected {
        assert_eq!(rcd.ranks()[0].disturbance_of(0, v), 0);
    }
}

#[test]
fn detections_surface_through_the_rcd() {
    let mut rcd = rcd_with_flag(RowId(42));
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 3,
            row: RowId(42),
        },
        t(0),
    )
    .unwrap();
    assert_eq!(rcd.detections().len(), 1);
    let d = rcd.detections()[0];
    assert_eq!(d.row, RowId(42));
    assert_eq!(d.bank, BankId(3));
}

#[test]
fn forced_refresh_catchup_keeps_fault_model_current() {
    let mut rcd = rcd_with_flag(RowId(0));
    // Disturb row 0 via its neighbor.
    rcd.issue(
        0,
        DramCommand::Activate {
            bank: 0,
            row: RowId(1),
        },
        t(0),
    )
    .unwrap();
    assert_eq!(rcd.ranks()[0].disturbance_of(0, RowId(0)), 1);
    // The cursor's first rowset covers row 0 (256 rows, 8192 sets -> one
    // row per REF).
    rcd.force_refresh(0, 0, t(100));
    assert_eq!(rcd.ranks()[0].disturbance_of(0, RowId(0)), 0);
    assert_eq!(rcd.ranks()[0].stats().refreshes, 1);
}
