//! An FFT-like strided butterfly access pattern (SPLASH-2X FFT).
//!
//! A radix-2 FFT over `n` complex points performs `log2(n)` passes; in
//! pass `p` each butterfly touches elements `i` and `i + 2^p`. In DRAM
//! terms that is a sweep of paired accesses whose stride doubles every
//! pass — small strides stay within a row, large strides ping-pong
//! between distant rows. Multiple worker threads split the index space.

use crate::trace::{item_from_addr, AccessSource, Geometry, TraceItem};
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::Topology;
use twice_memctrl::request::AccessKind;

/// The FFT workload generator.
pub struct FftSource {
    geo: Geometry,
    /// Total elements (complex doubles, 16 B each).
    n: u64,
    threads: u16,
    /// Current (pass, butterfly index, half) cursor.
    pass: u32,
    index: u64,
    second_half: bool,
    writeback: bool,
    capacity: u64,
}

impl std::fmt::Debug for FftSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FftSource")
            .field("n", &self.n)
            .field("pass", &self.pass)
            .finish()
    }
}

const ELEM_BYTES: u64 = 16;

impl FftSource {
    /// Creates an FFT over `n` points (rounded down to a power of two)
    /// with `threads` workers on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `threads` is zero.
    pub fn new(topo: &Topology, n: u64, threads: u16) -> FftSource {
        assert!(n >= 2, "FFT needs at least two points");
        assert!(threads > 0, "need at least one thread");
        let n = 1u64 << (63 - n.leading_zeros());
        FftSource {
            geo: Geometry::new(topo),
            n,
            threads,
            pass: 0,
            index: 0,
            second_half: false,
            writeback: false,
            capacity: topo.capacity_bytes(),
        }
    }

    /// log2(n) passes in total.
    pub fn passes(&self) -> u32 {
        self.n.trailing_zeros()
    }
}

impl AccessSource for FftSource {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.pass);
        w.put_u64(self.index);
        w.put_bool(self.second_half);
        w.put_bool(self.writeback);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let pass = r.take_u32()?;
        if pass >= self.passes() {
            return Err(SnapshotError::StateMismatch(format!(
                "FFT pass {pass} out of {}",
                self.passes()
            )));
        }
        self.pass = pass;
        self.index = r.take_u64()?;
        self.second_half = r.take_bool()?;
        self.writeback = r.take_bool()?;
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let stride = 1u64 << self.pass;
        // Butterfly `index` in pass `pass` pairs element `base` with
        // `base + stride`, where indices advance skipping the partner
        // half of each 2*stride block.
        let block = self.index / stride;
        let offset = self.index % stride;
        let base = block * stride * 2 + offset;
        let element = if self.second_half {
            base + stride
        } else {
            base
        };
        let addr = (element * ELEM_BYTES) % self.capacity;
        let kind = if self.writeback {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let source = (self.index % u64::from(self.threads)) as u16;
        let out = item_from_addr(&self.geo.mapper, addr, kind, source);

        // Advance the cursor: read both halves, then write both halves.
        if !self.second_half {
            self.second_half = true;
        } else {
            self.second_half = false;
            if !self.writeback {
                self.writeback = true;
            } else {
                self.writeback = false;
                self.index += 1;
                if self.index >= self.n / 2 {
                    self.index = 0;
                    self.pass = (self.pass + 1) % self.passes();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AccessSource;

    #[test]
    fn early_passes_have_row_locality_late_passes_do_not() {
        let topo = Topology::paper_default();
        let mut fft = FftSource::new(&topo, 1 << 20, 16);
        // Pass 0: stride 16 B; partner is in the same row.
        let (_, a) = fft.next_access();
        let (_, b) = fft.next_access();
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        // Skip ahead to a late pass.
        let mut f2 = FftSource::new(&topo, 1 << 20, 16);
        f2.pass = 19;
        let (_, a) = f2.next_access();
        let (_, b) = f2.next_access();
        assert!(
            a.row != b.row || a.bank != b.bank || a.channel != b.channel,
            "large strides must leave the row"
        );
    }

    #[test]
    fn pattern_is_read_read_write_write() {
        let topo = Topology::paper_default();
        let fft = FftSource::new(&topo, 1 << 12, 4);
        let kinds: Vec<_> = fft.take_requests(8).map(|(r, _)| r.kind).collect();
        use AccessKind::*;
        assert_eq!(
            kinds,
            vec![Read, Read, Write, Write, Read, Read, Write, Write]
        );
    }

    #[test]
    fn butterflies_cover_the_whole_array_each_pass() {
        let topo = Topology::paper_default();
        let mut fft = FftSource::new(&topo, 16, 1);
        let mut touched = std::collections::HashSet::new();
        // Pass 0 over n=16: 8 butterflies x 4 accesses (RRWW).
        for _ in 0..32 {
            let (req, _) = fft.next_access();
            touched.insert(req.addr / ELEM_BYTES);
        }
        assert_eq!(touched.len(), 16, "all 16 elements touched in a pass");
    }

    #[test]
    fn n_rounds_down_to_power_of_two() {
        let topo = Topology::paper_default();
        assert_eq!(FftSource::new(&topo, 1000, 1).n, 512);
        assert_eq!(FftSource::new(&topo, 1024, 1).passes(), 10);
    }
}
