//! The generator abstraction shared by every workload.

use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{ChannelId, ColId, RankId, RowId, Time, Topology};
use twice_memctrl::addrmap::{AddressMapper, DecodedAccess};
use twice_memctrl::request::{AccessKind, MemRequest};

/// One trace element: the request plus its decoded DRAM coordinate.
pub type TraceItem = (MemRequest, DecodedAccess);

/// An endless source of memory accesses.
///
/// Generators are infinite; bound them with [`Bounded`] (or
/// [`AccessSource::take_requests`]) to make a finite trace.
pub trait AccessSource {
    /// Produces the next access.
    fn next_access(&mut self) -> TraceItem;

    /// A finite trace of `n` accesses drawn from this source.
    fn take_requests(self, n: u64) -> Bounded<Self>
    where
        Self: Sized,
    {
        Bounded {
            source: self,
            remaining: n,
        }
    }

    /// Serializes the generator's mutable cursor/RNG state (checkpointing
    /// hook). Stateless generators use the no-op default; every stateful
    /// generator must override so a restored source replays the exact
    /// suffix an uninterrupted run would have produced.
    fn save_state(&self, w: &mut SnapshotWriter) {
        let _ = w;
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// source built from the same configuration.
    ///
    /// # Errors
    ///
    /// Decode errors from a truncated or mismatched snapshot.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
    }
}

impl AccessSource for Box<dyn AccessSource + Send> {
    fn next_access(&mut self) -> TraceItem {
        (**self).next_access()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        (**self).save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        (**self).load_state(r)
    }
}

/// A bounded iterator over an [`AccessSource`].
#[derive(Debug, Clone)]
pub struct Bounded<G> {
    source: G,
    remaining: u64,
}

impl<G: AccessSource> Iterator for Bounded<G> {
    type Item = TraceItem;

    fn next(&mut self) -> Option<TraceItem> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.source.next_access())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl<G: AccessSource> Snapshot for Bounded<G> {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.remaining);
        self.source.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.remaining = r.take_u64()?;
        self.source.load_state(r)
    }
}

/// Shared helper: builds a [`TraceItem`] from a DRAM coordinate.
///
/// The physical address is reconstructed through `mapper` so that the
/// request stream is self-consistent with the controller's decoder.
#[allow(clippy::too_many_arguments)] // it mirrors the DRAM coordinate tuple
pub(crate) fn item(
    mapper: &AddressMapper,
    channel: ChannelId,
    rank: RankId,
    bank: u16,
    row: RowId,
    col: ColId,
    kind: AccessKind,
    source: u16,
) -> TraceItem {
    let access = DecodedAccess {
        channel,
        rank,
        bank,
        row,
        col,
    };
    let addr = mapper.encode(channel, rank, bank, row, col);
    let req = match kind {
        AccessKind::Read => MemRequest::read(addr, source, Time::ZERO),
        AccessKind::Write => MemRequest::write(addr, source, Time::ZERO),
    };
    (req, access)
}

/// Shared helper: builds a [`TraceItem`] from a raw physical address
/// (for generators that think in linear data space, like FFT/RADIX).
pub(crate) fn item_from_addr(
    mapper: &AddressMapper,
    addr: u64,
    kind: AccessKind,
    source: u16,
) -> TraceItem {
    let access = mapper.decode(addr);
    let req = match kind {
        AccessKind::Read => MemRequest::read(addr, source, Time::ZERO),
        AccessKind::Write => MemRequest::write(addr, source, Time::ZERO),
    };
    (req, access)
}

/// Round-robins accesses from several sources, weighted by each source's
/// share (used for multi-programmed mixes: a core's share models its
/// memory intensity).
pub struct WeightedInterleave {
    sources: Vec<(Box<dyn AccessSource + Send>, u32)>,
    /// Deficit counters for weighted round-robin.
    credit: Vec<i64>,
    cursor: usize,
}

impl std::fmt::Debug for WeightedInterleave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightedInterleave")
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl WeightedInterleave {
    /// Combines `sources` with their weights.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or any weight is zero.
    pub fn new(sources: Vec<(Box<dyn AccessSource + Send>, u32)>) -> WeightedInterleave {
        assert!(!sources.is_empty(), "need at least one source");
        assert!(
            sources.iter().all(|(_, w)| *w > 0),
            "weights must be non-zero"
        );
        WeightedInterleave {
            credit: vec![0; sources.len()],
            sources,
            cursor: 0,
        }
    }
}

impl AccessSource for WeightedInterleave {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.sources.len());
        for &c in &self.credit {
            w.put_u64(c as u64);
        }
        w.put_usize(self.cursor);
        for (s, _) in &self.sources {
            s.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.take_usize()?;
        if n != self.sources.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "interleave has {} sources, snapshot has {n}",
                self.sources.len()
            )));
        }
        for c in &mut self.credit {
            *c = r.take_u64()? as i64;
        }
        let cursor = r.take_usize()?;
        if cursor >= self.sources.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "interleave cursor {cursor} out of {n}"
            )));
        }
        self.cursor = cursor;
        for (s, _) in &mut self.sources {
            s.load_state(r)?;
        }
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        // Deficit round-robin: replenish credit by weight each lap; emit
        // from sources while they hold credit.
        loop {
            if self.cursor == 0 {
                let any = self.credit.iter().any(|&c| c > 0);
                if !any {
                    for (i, (_, w)) in self.sources.iter().enumerate() {
                        self.credit[i] += i64::from(*w);
                    }
                }
            }
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % self.sources.len();
            if self.credit[i] > 0 {
                self.credit[i] -= 1;
                return self.sources[i].0.next_access();
            }
        }
    }
}

/// Common topology-derived fields the generators share.
#[derive(Debug, Clone)]
pub(crate) struct Geometry {
    pub mapper: AddressMapper,
    pub channels: u8,
    pub ranks: u8,
    pub banks: u16,
    pub rows: u32,
    pub cols: u16,
}

impl Geometry {
    pub fn new(topo: &Topology) -> Geometry {
        Geometry {
            mapper: AddressMapper::row_interleaved(topo),
            channels: topo.channels,
            ranks: topo.ranks_per_channel,
            banks: topo.banks_per_rank,
            rows: topo.rows_per_bank,
            cols: topo.cols_per_row,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::rng::SplitMix64;

    struct Fixed(u32);
    impl AccessSource for Fixed {
        fn next_access(&mut self) -> TraceItem {
            let topo = Topology::paper_default();
            let mapper = AddressMapper::row_interleaved(&topo);
            item(
                &mapper,
                ChannelId(0),
                RankId(0),
                0,
                RowId(self.0),
                ColId(0),
                AccessKind::Read,
                self.0 as u16,
            )
        }
    }

    #[test]
    fn bounded_yields_exactly_n() {
        let trace: Vec<_> = Fixed(1).take_requests(5).collect();
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn size_hint_is_exact() {
        let b = Fixed(1).take_requests(7);
        assert_eq!(b.size_hint(), (7, Some(7)));
    }

    #[test]
    fn weighted_interleave_respects_weights() {
        let mix = WeightedInterleave::new(vec![(Box::new(Fixed(1)), 3), (Box::new(Fixed(2)), 1)]);
        let counts = mix.take_requests(4000).fold([0u32; 3], |mut acc, (_, a)| {
            acc[a.row.index()] += 1;
            acc
        });
        let ratio = f64::from(counts[1]) / f64::from(counts[2]);
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}, expected ~3");
    }

    #[test]
    #[should_panic(expected = "weights must be non-zero")]
    fn zero_weight_rejected() {
        WeightedInterleave::new(vec![(Box::new(Fixed(1)), 0)]);
    }

    #[test]
    fn item_addresses_decode_back() {
        let topo = Topology::paper_default();
        let mapper = AddressMapper::row_interleaved(&topo);
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            let row = RowId(rng.next_below(131_072) as u32);
            let (req, access) = item(
                &mapper,
                ChannelId(1),
                RankId(1),
                5,
                row,
                ColId(3),
                AccessKind::Write,
                0,
            );
            assert_eq!(mapper.decode(req.addr), access);
        }
    }
}
