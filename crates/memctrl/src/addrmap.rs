//! Physical-address decomposition.
//!
//! Maps a physical byte address onto `(channel, rank, bank, row, column)`
//! (§2.4) with the **row-interleaved** layout
//! (`row : rank : bank : channel : col : line`): consecutive cache lines
//! stay in one row, consecutive rows stripe across channels/banks — the
//! conventional open-page layout, and the one a v2 trace's topology
//! digest names.

use twice_common::{ChannelId, ColId, RankId, RowId, Topology};

/// A decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAccess {
    /// Target channel.
    pub channel: ChannelId,
    /// Target rank within the channel.
    pub rank: RankId,
    /// Target bank within the rank.
    pub bank: u16,
    /// Target row.
    pub row: RowId,
    /// Target column (cache-line granule).
    pub col: ColId,
}

/// A configured address mapper.
#[derive(Debug, Clone)]
pub struct AddressMapper {
    line_bytes: u64,
    cols: u64,
    channels: u64,
    banks: u64,
    ranks: u64,
    rows: u64,
}

impl AddressMapper {
    /// A row-interleaved mapper for `topo` with 64-byte lines.
    pub fn row_interleaved(topo: &Topology) -> AddressMapper {
        AddressMapper {
            line_bytes: 64,
            cols: u64::from(topo.row_bytes) / 64,
            channels: u64::from(topo.channels),
            banks: u64::from(topo.banks_per_rank),
            ranks: u64::from(topo.ranks_per_channel),
            rows: u64::from(topo.rows_per_bank),
        }
    }

    /// Decodes a physical byte address.
    pub fn decode(&self, addr: u64) -> DecodedAccess {
        let mut a = addr / self.line_bytes;
        let col = a % self.cols;
        a /= self.cols;
        let channel = a % self.channels;
        a /= self.channels;
        let bank = a % self.banks;
        a /= self.banks;
        let rank = a % self.ranks;
        a /= self.ranks;
        let row = a % self.rows;
        DecodedAccess {
            channel: ChannelId(channel as u8),
            rank: RankId(rank as u8),
            bank: bank as u16,
            row: RowId(row as u32),
            col: ColId(col as u16),
        }
    }

    /// Builds the smallest physical address that decodes to the given
    /// coordinate (the inverse of [`decode`](Self::decode)).
    ///
    /// This is the workhorse of the workload generators: they think in
    /// `(bank, row)` and need addresses to feed the controller.
    pub fn encode(
        &self,
        channel: ChannelId,
        rank: RankId,
        bank: u16,
        row: RowId,
        col: ColId,
    ) -> u64 {
        ((((u64::from(row.0) * self.ranks + u64::from(rank.0)) * self.banks + u64::from(bank))
            * self.channels
            + u64::from(channel.0))
            * self.cols
            + u64::from(col.0))
            * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::paper_default()
    }

    #[test]
    fn decode_encode_round_trip() {
        let m = AddressMapper::row_interleaved(&topo());
        for addr in [0u64, 64, 4096, 0xdead_bec0, 0x0123_4567_89c0 % (64 << 30)] {
            let a = m.decode(addr);
            let back = m.encode(a.channel, a.rank, a.bank, a.row, a.col);
            assert_eq!(m.decode(back), a, "addr {addr:#x}");
        }
    }

    #[test]
    fn consecutive_lines_share_a_row() {
        let m = AddressMapper::row_interleaved(&topo());
        let a0 = m.decode(0);
        let a1 = m.decode(64);
        assert_eq!(a0.row, a1.row);
        assert_eq!(a0.bank, a1.bank);
        assert_ne!(a0.col, a1.col);
    }

    #[test]
    fn row_crossing_strides_hit_other_channels_first() {
        let m = AddressMapper::row_interleaved(&topo());
        // One full row's worth of columns later, the channel changes.
        let row_bytes = 8192u64;
        let a0 = m.decode(0);
        let a1 = m.decode(row_bytes);
        assert_ne!(a0.channel, a1.channel);
    }

    #[test]
    fn all_fields_stay_in_range() {
        let t = topo();
        let m = AddressMapper::row_interleaved(&t);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = m.decode(x % t.capacity_bytes());
            assert!(u64::from(a.channel.0) < 2);
            assert!(u64::from(a.rank.0) < 2);
            assert!(a.bank < 16);
            assert!(t.contains_row(a.row));
            assert!(a.col.0 < 128);
        }
    }
}
