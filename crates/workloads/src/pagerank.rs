//! A PageRank access pattern (GAP Benchmark Suite).
//!
//! Pull-based PageRank iterates over vertices in CSR order — a
//! sequential scan of the offsets and edge arrays — and for each edge
//! gathers the source vertex's rank: a random-looking read whose target
//! distribution follows the graph's (power-law) degree distribution.
//! The generator synthesizes exactly that: sequential edge-array reads
//! interleaved with Zipf-distributed rank-array gathers, plus a
//! sequential rank write per vertex.

use crate::trace::{item_from_addr, AccessSource, Geometry, TraceItem};
use crate::zipf::Zipf;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::Topology;
use twice_memctrl::request::AccessKind;

/// The PageRank workload generator.
pub struct PageRankSource {
    geo: Geometry,
    vertices: u64,
    avg_degree: u64,
    zipf: Zipf,
    rng: SplitMix64,
    vertex: u64,
    edge_in_vertex: u64,
    /// Phase within an edge: 0 = edge-array read, 1 = rank gather.
    phase: u8,
    threads: u16,
    capacity: u64,
    edge_cursor: u64,
}

impl std::fmt::Debug for PageRankSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageRankSource")
            .field("vertices", &self.vertices)
            .field("avg_degree", &self.avg_degree)
            .finish()
    }
}

const EDGE_BYTES: u64 = 8;
const RANK_BYTES: u64 = 8;

impl PageRankSource {
    /// Creates PageRank over a synthetic power-law graph of `vertices`
    /// vertices with average degree `avg_degree` on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if `vertices`, `avg_degree`, or `threads` is zero.
    pub fn new(
        topo: &Topology,
        vertices: u64,
        avg_degree: u64,
        threads: u16,
        seed: u64,
    ) -> PageRankSource {
        assert!(vertices > 0 && avg_degree > 0 && threads > 0, "empty graph");
        PageRankSource {
            geo: Geometry::new(topo),
            vertices,
            avg_degree,
            zipf: Zipf::new(vertices.min(1 << 22) as usize, 0.8),
            rng: SplitMix64::new(seed),
            vertex: 0,
            edge_in_vertex: 0,
            phase: 0,
            threads,
            capacity: topo.capacity_bytes(),
            edge_cursor: 0,
        }
    }

    /// The GAP-style default: 4M vertices, average degree 16.
    pub fn standard(topo: &Topology, seed: u64) -> PageRankSource {
        PageRankSource::new(topo, 1 << 22, 16, 16, seed)
    }
}

impl AccessSource for PageRankSource {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.rng.state());
        w.put_u64(self.vertex);
        w.put_u64(self.edge_in_vertex);
        w.put_u8(self.phase);
        w.put_u64(self.edge_cursor);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        self.vertex = r.take_u64()?;
        self.edge_in_vertex = r.take_u64()?;
        self.phase = r.take_u8()?;
        self.edge_cursor = r.take_u64()?;
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let source = (self.vertex % u64::from(self.threads)) as u16;
        // Memory layout: [edge array][rank array].
        let edge_region = self.vertices * self.avg_degree * EDGE_BYTES;
        match self.phase {
            0 => {
                // Sequential edge read.
                let addr = (self.edge_cursor * EDGE_BYTES) % edge_region.min(self.capacity / 2);
                self.phase = 1;
                item_from_addr(&self.geo.mapper, addr, AccessKind::Read, source)
            }
            _ => {
                // Gather the neighbor's rank: power-law distributed.
                let neighbor = self.zipf.sample(&mut self.rng) as u64;
                let rank_base = self.capacity / 2;
                let addr = rank_base + (neighbor * RANK_BYTES) % (self.capacity / 2);
                self.phase = 0;
                self.edge_cursor += 1;
                self.edge_in_vertex += 1;
                if self.edge_in_vertex >= self.avg_degree {
                    self.edge_in_vertex = 0;
                    self.vertex = (self.vertex + 1) % self.vertices;
                }
                item_from_addr(&self.geo.mapper, addr, AccessKind::Read, source)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_scan_and_gather() {
        let topo = Topology::paper_default();
        let pr = PageRankSource::new(&topo, 1000, 4, 4, 1);
        let addrs: Vec<u64> = pr.take_requests(20).map(|(r, _)| r.addr).collect();
        // Even positions are sequential edge reads.
        for w in addrs.chunks(2).collect::<Vec<_>>().windows(2) {
            assert_eq!(w[1][0], w[0][0] + EDGE_BYTES, "edge scan is sequential");
        }
        // Odd positions (gathers) land in the upper half of memory.
        let half = topo.capacity_bytes() / 2;
        for pair in addrs.chunks(2) {
            assert!(pair[1] >= half, "gather must target the rank region");
        }
    }

    #[test]
    fn gathers_follow_power_law() {
        let topo = Topology::paper_default();
        let pr = PageRankSource::new(&topo, 100_000, 8, 4, 2);
        let mut counts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (i, (req, _)) in pr.take_requests(100_000).enumerate() {
            if i % 2 == 1 {
                *counts.entry(req.addr).or_insert(0) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        let mean = counts.values().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
        assert!(
            f64::from(max) > mean * 10.0,
            "degree skew: max {max} vs mean {mean:.1}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let topo = Topology::paper_default();
        let a: Vec<_> = PageRankSource::new(&topo, 5000, 8, 4, 7)
            .take_requests(500)
            .map(|(r, _)| r.addr)
            .collect();
        let b: Vec<_> = PageRankSource::new(&topo, 5000, 8, 4, 7)
            .take_requests(500)
            .map(|(r, _)| r.addr)
            .collect();
        assert_eq!(a, b);
    }
}
