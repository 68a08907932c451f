//! Property tests: the controller serves arbitrary request mixes
//! completely and legally under its one scheduler and page policy, the
//! Table 4 PAR-BS and minimalist-open.
//!
//! Request mixes are drawn from the in-tree seeded `SplitMix64` (the
//! proptest crate is unavailable offline); every seed is a reproducible
//! case.

use twice_common::rng::SplitMix64;
use twice_common::Topology;
use twice_common::{ChannelId, ColId, RankId, RowId, Time};
use twice_memctrl::addrmap::{AddressMapper, DecodedAccess};
use twice_memctrl::controller::{ChannelController, ControllerConfig};
use twice_memctrl::request::MemRequest;

fn topo() -> Topology {
    Topology {
        channels: 1,
        ranks_per_channel: 1,
        banks_per_rank: 2,
        rows_per_bank: 64,
        cols_per_row: 128,
        row_bytes: 8_192,
        devices_per_rank: 8,
    }
}

/// (bank, row, col, write?, source)
fn requests(seed: u64) -> Vec<(u8, u8, u8, bool, u8)> {
    let mut rng = SplitMix64::new(seed);
    let n = rng.next_below(400) as usize;
    (0..n)
        .map(|_| {
            (
                rng.next_u64() as u8,
                rng.next_u64() as u8,
                rng.next_u64() as u8,
                rng.next_below(2) == 1,
                rng.next_u64() as u8,
            )
        })
        .collect()
}

fn run_with(reqs: &[(u8, u8, u8, bool, u8)]) -> ChannelController {
    let mut ctrl = ChannelController::without_defense(ControllerConfig::for_test(64));
    let mapper = AddressMapper::row_interleaved(&topo());
    let trace: Vec<_> = reqs
        .iter()
        .map(|&(bank, row, col, write, source)| {
            let access = DecodedAccess {
                channel: ChannelId(0),
                rank: RankId(0),
                bank: u16::from(bank % 2),
                row: RowId(u32::from(row % 64)),
                col: ColId(u16::from(col) % 128),
            };
            let addr = mapper.encode(
                access.channel,
                access.rank,
                access.bank,
                access.row,
                access.col,
            );
            let req = if write {
                MemRequest::write(addr, u16::from(source % 16), Time::ZERO)
            } else {
                MemRequest::read(addr, u16::from(source % 16), Time::ZERO)
            };
            (req, access)
        })
        .collect();
    ctrl.run(trace)
        .expect("fault-free run cannot exhaust retries");
    ctrl
}

const CASES: u64 = 24;

#[test]
fn every_request_is_served_under_every_policy() {
    for seed in 0..CASES {
        let reqs = requests(seed);
        let ctrl = run_with(&reqs);
        assert_eq!(ctrl.served(), reqs.len() as u64, "seed {seed}");
        assert_eq!(ctrl.additional_acts(), 0);
    }
}

#[test]
fn column_accesses_match_requests() {
    for seed in 0..CASES {
        let reqs = requests(seed ^ 0x5A5A);
        let ctrl = run_with(&reqs);
        let reads: u64 = ctrl.rank_stats().map(|s| s.reads).sum();
        let writes: u64 = ctrl.rank_stats().map(|s| s.writes).sum();
        assert_eq!(reads + writes, reqs.len() as u64);
        let expected_writes = reqs.iter().filter(|r| r.3).count() as u64;
        assert_eq!(writes, expected_writes);
    }
}

#[test]
fn act_count_is_bounded_by_requests_plus_refresh_conflicts() {
    // Every ACT is caused by a request (row misses <= requests) or by
    // re-opening after a refresh-forced precharge (bounded by the
    // number of refreshes).
    for seed in 0..CASES {
        let reqs = requests(seed ^ 0x7C7C);
        let ctrl = run_with(&reqs);
        let refs: u64 = ctrl.rank_stats().map(|s| s.refreshes).sum();
        assert!(ctrl.normal_acts() <= reqs.len() as u64 + refs);
    }
}
