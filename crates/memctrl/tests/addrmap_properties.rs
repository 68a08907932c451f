//! Property tests for the physical-address mapper.
//!
//! The row-interleaved mapper must serve every coherent topology, not
//! just the paper's. For each of three mapping configs these properties
//! must hold:
//!
//! 1. `encode ∘ decode` is the identity on line-aligned addresses below
//!    capacity (and `decode ∘ encode` the identity on in-range
//!    coordinates) — the mapper is a bijection between cache lines and
//!    DRAM coordinates.
//! 2. No two distinct line addresses that land in the same
//!    `(channel, rank, bank)` share a `(row, col)` — aliasing there
//!    would let one workload row shadow another and silently corrupt
//!    every row-hammer measurement built on the mapper.

use std::collections::HashMap;
use twice_common::rng::SplitMix64;
use twice_common::{ChannelId, ColId, RankId, RowId, Topology};
use twice_memctrl::addrmap::AddressMapper;

const SAMPLES: u64 = 2_000;

/// The mapping configs: the paper system, a single-channel desktop-ish
/// layout, and a small asymmetric layout.
fn mapping_configs() -> Vec<Topology> {
    vec![
        Topology::paper_default(),
        Topology {
            channels: 1,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 65_536,
            cols_per_row: 128,
            row_bytes: 8_192,
            devices_per_rank: 8,
        },
        Topology {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 4_096,
            cols_per_row: 64,
            row_bytes: 4_096,
            devices_per_rank: 4,
        },
    ]
}

#[test]
fn encode_decode_round_trips_for_every_policy_config() {
    for topo in mapping_configs() {
        topo.validate().expect("test topology must be coherent");
        let lines = topo.capacity_bytes() / 64;
        let m = AddressMapper::row_interleaved(&topo);
        let mut rng = SplitMix64::new(0xADD2_0000 ^ lines);
        for _ in 0..SAMPLES {
            // Line-aligned address below capacity: decode then
            // re-encode must reproduce it exactly.
            let addr = rng.next_below(lines) * 64;
            let a = m.decode(addr);
            assert!(topo.contains_row(a.row), "{topo:?}");
            let back = m.encode(a.channel, a.rank, a.bank, a.row, a.col);
            assert_eq!(back, addr, "{topo:?}: encode(decode({addr:#x})) drifted");

            // Random in-range coordinate: encode then decode must
            // land back on it.
            let coord = (
                ChannelId(rng.next_below(u64::from(topo.channels)) as u8),
                RankId(rng.next_below(u64::from(topo.ranks_per_channel)) as u8),
                rng.next_below(u64::from(topo.banks_per_rank)) as u16,
                RowId(rng.next_below(u64::from(topo.rows_per_bank)) as u32),
                ColId(rng.next_below(u64::from(topo.row_bytes) / 64) as u16),
            );
            let addr = m.encode(coord.0, coord.1, coord.2, coord.3, coord.4);
            assert!(addr < topo.capacity_bytes(), "{topo:?}");
            let d = m.decode(addr);
            assert_eq!(
                (d.channel, d.rank, d.bank, d.row, d.col),
                coord,
                "{topo:?}: decode(encode) drifted"
            );
        }
    }
}

#[test]
fn no_two_addresses_in_a_bank_share_a_row_and_column() {
    for topo in mapping_configs() {
        let lines = topo.capacity_bytes() / 64;
        let m = AddressMapper::row_interleaved(&topo);
        let mut rng = SplitMix64::new(0xA11A_5000 ^ lines);
        // (channel, rank, bank, row, col) -> first address seen.
        let mut seen: HashMap<(u8, u8, u16, u32, u16), u64> = HashMap::new();
        for _ in 0..SAMPLES {
            let addr = rng.next_below(lines) * 64;
            let a = m.decode(addr);
            let key = (a.channel.0, a.rank.0, a.bank, a.row.0, a.col.0);
            if let Some(&prior) = seen.get(&key) {
                assert_eq!(
                    prior, addr,
                    "{topo:?}: addresses {prior:#x} and {addr:#x} \
                     alias to bank {} row {} col {}",
                    a.bank, a.row.0, a.col.0
                );
            } else {
                seen.insert(key, addr);
            }
        }
    }
}
