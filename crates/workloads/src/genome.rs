//! Hammer-pattern genomes for the red-team evolutionary search.
//!
//! A [`PatternGenome`] is a compact, fully deterministic description of a
//! hammer attack: which rows to hammer, how many decoy rows to interleave
//! (to churn capacity-bound trackers), how long to idle before striking
//! (phase offset), and how to pause periodically so refresh windows slide
//! past mid-attack (tREFW straddling — the scenario TWiCe's §4.3 life
//! accounting exists to survive). The search in `twice_sim::redteam`
//! mutates and crosses these genomes; everything here is a pure function
//! of a [`SplitMix64`] stream, so the same seed always breeds the same
//! lineage byte for byte.

use crate::trace::{item, AccessSource, TraceItem};
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{ChannelId, ColId, RankId, RowId, Topology};
use twice_memctrl::addrmap::AddressMapper;
use twice_memctrl::request::AccessKind;

/// Bounds for genome generation and mutation, derived from a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenomeSpace {
    /// Rows per bank; every genome row is below this.
    pub rows: u32,
    /// Banks per rank (the genome attacks channel 0, rank 0).
    pub banks: u16,
    /// Maximum aggressor-set size. 24 deliberately exceeds vendor-TRR
    /// tracker sizes, so many-sided rotation evasion is in the space.
    pub max_aggressors: usize,
    /// Maximum decoy-set size.
    pub max_decoys: usize,
    /// Maximum aggressor ACTs between decoy visits.
    pub max_burst: u8,
    /// Maximum filler accesses before hammering starts.
    pub max_phase: u16,
    /// Maximum attack steps between straddle pauses.
    pub max_pause_every: u16,
    /// Maximum filler accesses per straddle pause.
    pub max_pause_len: u16,
}

impl GenomeSpace {
    /// The search space for `topo` with the default structural caps.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no rows or banks.
    pub fn for_topology(topo: &Topology) -> GenomeSpace {
        assert!(
            topo.rows_per_bank > 0 && topo.banks_per_rank > 0,
            "empty topology"
        );
        GenomeSpace {
            rows: topo.rows_per_bank,
            banks: topo.banks_per_rank,
            max_aggressors: 24,
            max_decoys: 24,
            max_burst: 8,
            max_phase: 2_048,
            max_pause_every: 4_096,
            max_pause_len: 2_048,
        }
    }

    fn random_row(&self, rng: &mut SplitMix64) -> RowId {
        RowId(rng.next_below(u64::from(self.rows)) as u32)
    }
}

/// Typed decode failure for genome bytes (checkpoints, corpus manifests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenomeCodecError {
    /// The byte string is not valid genome encoding.
    Malformed(String),
    /// The decoded genome violates the given space's bounds.
    OutOfSpace(String),
}

impl std::fmt::Display for GenomeCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenomeCodecError::Malformed(m) => write!(f, "malformed genome: {m}"),
            GenomeCodecError::OutOfSpace(m) => write!(f, "genome out of space: {m}"),
        }
    }
}

impl std::error::Error for GenomeCodecError {}

/// Layout version of the genome byte encoding.
const GENOME_CODEC_VERSION: u8 = 1;

/// One hammer-pattern genome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternGenome {
    /// The attacked bank (channel 0, rank 0).
    pub bank: u16,
    /// Rows hammered round-robin (non-empty; duplicates act as weights).
    pub aggressors: Vec<RowId>,
    /// Cover rows interleaved between aggressor bursts; they draw tracker
    /// capacity without accumulating disturbance of their own.
    pub decoys: Vec<RowId>,
    /// Aggressor ACTs per decoy visit (≥ 1; ignored without decoys).
    pub burst: u8,
    /// Filler accesses issued before hammering starts, shifting the
    /// attack's position inside the refresh window.
    pub phase: u16,
    /// Attack steps between straddle pauses (0 = never pause).
    pub pause_every: u16,
    /// Filler accesses per straddle pause (with `pause_every`, lets
    /// auto-refresh slices sweep mid-attack).
    pub pause_len: u16,
}

impl PatternGenome {
    /// A uniformly random genome within `space`.
    pub fn random(space: &GenomeSpace, rng: &mut SplitMix64) -> PatternGenome {
        let n_agg = 1 + rng.next_below(space.max_aggressors as u64) as usize;
        let n_dec = rng.next_below(space.max_decoys as u64 + 1) as usize;
        PatternGenome {
            bank: rng.next_below(u64::from(space.banks)) as u16,
            aggressors: (0..n_agg).map(|_| space.random_row(rng)).collect(),
            decoys: (0..n_dec).map(|_| space.random_row(rng)).collect(),
            burst: 1 + rng.next_below(u64::from(space.max_burst)) as u8,
            phase: rng.next_below(u64::from(space.max_phase) + 1) as u16,
            pause_every: rng.next_below(u64::from(space.max_pause_every) + 1) as u16,
            pause_len: rng.next_below(u64::from(space.max_pause_len) + 1) as u16,
        }
    }

    /// Whether every field is inside `space`'s bounds.
    pub fn in_space(&self, space: &GenomeSpace) -> bool {
        !self.aggressors.is_empty()
            && self.aggressors.len() <= space.max_aggressors
            && self.decoys.len() <= space.max_decoys
            && self.bank < space.banks
            && self.aggressors.iter().all(|r| r.0 < space.rows)
            && self.decoys.iter().all(|r| r.0 < space.rows)
            && self.burst >= 1
            && self.burst <= space.max_burst
            && self.phase <= space.max_phase
            && self.pause_every <= space.max_pause_every
            && self.pause_len <= space.max_pause_len
    }

    /// A mutated copy: 1–3 field tweaks drawn from `rng`.
    pub fn mutate(&self, space: &GenomeSpace, rng: &mut SplitMix64) -> PatternGenome {
        let mut g = self.clone();
        let tweaks = 1 + rng.next_below(3);
        for _ in 0..tweaks {
            match rng.next_below(10) {
                0 => {
                    // Nudge one aggressor, keeping locality (double-sided
                    // patterns emerge from ±2 steps).
                    let i = rng.next_below(g.aggressors.len() as u64) as usize;
                    let delta = 1 + rng.next_below(4) as u32;
                    let row = &mut g.aggressors[i];
                    *row = if rng.chance(0.5) {
                        RowId(row.0.saturating_add(delta) % space.rows)
                    } else {
                        RowId(row.0.saturating_sub(delta))
                    };
                }
                1 => {
                    if g.aggressors.len() < space.max_aggressors {
                        // Grow the rotation: half the time adjacent to an
                        // existing aggressor, half the time anywhere.
                        let row = if rng.chance(0.5) {
                            let i = rng.next_below(g.aggressors.len() as u64) as usize;
                            RowId(g.aggressors[i].0.saturating_add(2) % space.rows)
                        } else {
                            space.random_row(rng)
                        };
                        g.aggressors.push(row);
                    }
                }
                2 => {
                    if g.aggressors.len() > 1 {
                        let i = rng.next_below(g.aggressors.len() as u64) as usize;
                        g.aggressors.remove(i);
                    }
                }
                3 => {
                    if g.decoys.len() < space.max_decoys {
                        g.decoys.push(space.random_row(rng));
                    }
                }
                4 => {
                    if !g.decoys.is_empty() {
                        let i = rng.next_below(g.decoys.len() as u64) as usize;
                        g.decoys.remove(i);
                    }
                }
                5 => {
                    if !g.decoys.is_empty() {
                        let i = rng.next_below(g.decoys.len() as u64) as usize;
                        g.decoys[i] = space.random_row(rng);
                    }
                }
                6 => {
                    g.burst = 1 + rng.next_below(u64::from(space.max_burst)) as u8;
                }
                7 => {
                    g.phase = rng.next_below(u64::from(space.max_phase) + 1) as u16;
                }
                8 => {
                    g.pause_every = rng.next_below(u64::from(space.max_pause_every) + 1) as u16;
                    g.pause_len = rng.next_below(u64::from(space.max_pause_len) + 1) as u16;
                }
                _ => {
                    g.bank = rng.next_below(u64::from(space.banks)) as u16;
                }
            }
        }
        debug_assert!(g.in_space(space));
        g
    }

    /// A child genome: scalar fields coin-flipped from either parent, row
    /// lists spliced (a prefix of one parent's list joined to a suffix of
    /// the other's, clamped to the space's caps).
    pub fn crossover(
        a: &PatternGenome,
        b: &PatternGenome,
        space: &GenomeSpace,
        rng: &mut SplitMix64,
    ) -> PatternGenome {
        fn splice(
            x: &[RowId],
            y: &[RowId],
            cap: usize,
            min: usize,
            rng: &mut SplitMix64,
        ) -> Vec<RowId> {
            let cut_x = rng.next_below(x.len() as u64 + 1) as usize;
            let cut_y = rng.next_below(y.len() as u64 + 1) as usize;
            let mut out: Vec<RowId> = x[..cut_x].iter().chain(&y[cut_y..]).copied().collect();
            out.truncate(cap);
            if out.len() < min {
                out.extend_from_slice(&x[..min - out.len()]);
            }
            out
        }
        let g = PatternGenome {
            bank: if rng.chance(0.5) { a.bank } else { b.bank },
            aggressors: splice(&a.aggressors, &b.aggressors, space.max_aggressors, 1, rng),
            decoys: splice(&a.decoys, &b.decoys, space.max_decoys, 0, rng),
            burst: if rng.chance(0.5) { a.burst } else { b.burst },
            phase: if rng.chance(0.5) { a.phase } else { b.phase },
            pause_every: if rng.chance(0.5) {
                a.pause_every
            } else {
                b.pause_every
            },
            pause_len: if rng.chance(0.5) {
                a.pause_len
            } else {
                b.pause_len
            },
        };
        debug_assert!(g.in_space(space));
        g
    }

    /// The hand-written openers the initial population is seeded with:
    /// the classic shapes every defense was designed against, plus the
    /// evasions the literature says small trackers miss.
    pub fn classics(space: &GenomeSpace) -> Vec<PatternGenome> {
        let mid = space.rows / 2;
        let base = PatternGenome {
            bank: 0,
            aggressors: vec![RowId(mid)],
            decoys: Vec::new(),
            burst: 1,
            phase: 0,
            pause_every: 0,
            pause_len: 0,
        };
        let many = |n: u32, stride: u32| -> Vec<RowId> {
            (0..n.min(space.max_aggressors as u32))
                .map(|i| RowId((mid + i * stride) % space.rows))
                .collect()
        };
        vec![
            // Single-sided.
            base.clone(),
            // Double-sided around the mid victim.
            PatternGenome {
                aggressors: vec![RowId(mid.saturating_sub(1)), RowId((mid + 1) % space.rows)],
                ..base.clone()
            },
            // Many-sided: 8 spread aggressors.
            PatternGenome {
                aggressors: many(8, 64),
                ..base.clone()
            },
            // Many-sided rotation sized past vendor-TRR trackers.
            PatternGenome {
                aggressors: many(24, 32),
                ..base.clone()
            },
            // Decoy flood around one true aggressor.
            PatternGenome {
                decoys: many(16, 128),
                burst: 1,
                ..base.clone()
            },
            // Refresh-straddle: hammer in spurts with idle gaps.
            PatternGenome {
                pause_every: 256.min(space.max_pause_every),
                pause_len: 512.min(space.max_pause_len),
                ..base
            },
        ]
    }

    /// Canonical byte encoding (versioned; round-trips via
    /// [`PatternGenome::decode`]). The property tests pin lineage
    /// determinism on these bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * (self.aggressors.len() + self.decoys.len()));
        out.push(GENOME_CODEC_VERSION);
        out.extend_from_slice(&self.bank.to_le_bytes());
        out.push(self.burst);
        out.extend_from_slice(&self.phase.to_le_bytes());
        out.extend_from_slice(&self.pause_every.to_le_bytes());
        out.extend_from_slice(&self.pause_len.to_le_bytes());
        out.push(self.aggressors.len() as u8);
        out.push(self.decoys.len() as u8);
        for r in self.aggressors.iter().chain(&self.decoys) {
            out.extend_from_slice(&r.0.to_le_bytes());
        }
        out
    }

    /// Decodes [`PatternGenome::encode`] bytes.
    ///
    /// # Errors
    ///
    /// [`GenomeCodecError::Malformed`] on truncation, trailing bytes, a
    /// version mismatch, or an empty aggressor set.
    pub fn decode(bytes: &[u8]) -> Result<PatternGenome, GenomeCodecError> {
        let fail = |m: &str| GenomeCodecError::Malformed(m.into());
        if bytes.len() < 12 {
            return Err(fail("shorter than the fixed header"));
        }
        if bytes[0] != GENOME_CODEC_VERSION {
            return Err(fail(&format!("unknown version {}", bytes[0])));
        }
        let bank = u16::from_le_bytes([bytes[1], bytes[2]]);
        let burst = bytes[3];
        let phase = u16::from_le_bytes([bytes[4], bytes[5]]);
        let pause_every = u16::from_le_bytes([bytes[6], bytes[7]]);
        let pause_len = u16::from_le_bytes([bytes[8], bytes[9]]);
        let n_agg = bytes[10] as usize;
        let n_dec = bytes[11] as usize;
        if n_agg == 0 {
            return Err(fail("no aggressors"));
        }
        if burst == 0 {
            return Err(fail("zero burst"));
        }
        let body = &bytes[12..];
        if body.len() != 4 * (n_agg + n_dec) {
            return Err(fail("row list length mismatch"));
        }
        let rows: Vec<RowId> = body
            .chunks_exact(4)
            .map(|c| RowId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect();
        Ok(PatternGenome {
            bank,
            aggressors: rows[..n_agg].to_vec(),
            decoys: rows[n_agg..].to_vec(),
            burst,
            phase,
            pause_every,
            pause_len,
        })
    }

    /// Lowercase-hex form of [`PatternGenome::encode`] (journal lines,
    /// corpus manifests).
    pub fn hex(&self) -> String {
        let mut s = String::new();
        for b in self.encode() {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Decodes a [`PatternGenome::hex`] string.
    ///
    /// # Errors
    ///
    /// [`GenomeCodecError::Malformed`] on non-hex input or any
    /// [`PatternGenome::decode`] failure.
    pub fn from_hex(s: &str) -> Result<PatternGenome, GenomeCodecError> {
        if !s.len().is_multiple_of(2) {
            return Err(GenomeCodecError::Malformed("odd hex length".into()));
        }
        let bytes: Result<Vec<u8>, _> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16))
            .collect();
        let bytes = bytes.map_err(|e| GenomeCodecError::Malformed(format!("bad hex: {e}")))?;
        PatternGenome::decode(&bytes)
    }

    /// A short human-readable shape summary, e.g.
    /// `bank0 12-sided +4 decoys burst2 phase100 straddle 256/512`.
    pub fn summary(&self) -> String {
        let mut s = format!("bank{} {}-sided", self.bank, self.aggressors.len());
        if !self.decoys.is_empty() {
            s.push_str(&format!(
                " +{} decoys burst{}",
                self.decoys.len(),
                self.burst
            ));
        }
        if self.phase > 0 {
            s.push_str(&format!(" phase{}", self.phase));
        }
        if self.pause_every > 0 && self.pause_len > 0 {
            s.push_str(&format!(
                " straddle {}/{}",
                self.pause_every, self.pause_len
            ));
        }
        s
    }

    /// Builds the deterministic access source expressing this genome on
    /// `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the genome does not fit `topo`'s geometry.
    pub fn source(&self, topo: &Topology) -> GenomeSource {
        GenomeSource::new(topo, self.clone())
    }
}

/// The [`AccessSource`] expressing a [`PatternGenome`].
///
/// Every access is a pure function of the cursor, so the snapshot is a
/// single integer and a restored source replays the exact suffix an
/// uninterrupted run would have produced.
#[derive(Debug)]
pub struct GenomeSource {
    mapper: AddressMapper,
    genome: PatternGenome,
    /// Filler traffic goes to a different bank when one exists, so idle
    /// phases advance DRAM time (letting refresh slices sweep) without
    /// touching the victim bank.
    filler_bank: u16,
    rows: u32,
    cursor: u64,
}

impl GenomeSource {
    /// Creates the source for `genome` on `(channel 0, rank 0)`.
    ///
    /// # Panics
    ///
    /// Panics if the genome's bank or any of its rows are outside `topo`.
    pub fn new(topo: &Topology, genome: PatternGenome) -> GenomeSource {
        assert!(genome.bank < topo.banks_per_rank, "bank out of range");
        assert!(!genome.aggressors.is_empty(), "genome needs an aggressor");
        assert!(
            genome
                .aggressors
                .iter()
                .chain(&genome.decoys)
                .all(|r| topo.contains_row(*r)),
            "genome row out of range"
        );
        GenomeSource {
            mapper: AddressMapper::row_interleaved(topo),
            filler_bank: (genome.bank + 1) % topo.banks_per_rank,
            rows: topo.rows_per_bank,
            genome,
            cursor: 0,
        }
    }

    /// The genome being expressed.
    pub fn genome(&self) -> &PatternGenome {
        &self.genome
    }

    fn filler(&self, t: u64) -> (u16, RowId) {
        // A long-stride rotation over the filler bank: each row is
        // revisited so rarely that filler traffic never hammers anything.
        let row = t.wrapping_mul(97) % u64::from(self.rows);
        (self.filler_bank, RowId(row as u32))
    }

    fn attack_slot(&self, s: u64) -> (u16, RowId) {
        let g = &self.genome;
        let burst = u64::from(g.burst.max(1));
        if g.decoys.is_empty() {
            let i = (s % g.aggressors.len() as u64) as usize;
            return (g.bank, g.aggressors[i]);
        }
        // Repeating unit: `burst` aggressor ACTs then one decoy, with the
        // aggressor rotation continuing across units.
        let unit = burst + 1;
        let u = s / unit;
        let p = s % unit;
        if p < burst {
            let i = ((u * burst + p) % g.aggressors.len() as u64) as usize;
            (g.bank, g.aggressors[i])
        } else {
            let i = (u % g.decoys.len() as u64) as usize;
            (g.bank, g.decoys[i])
        }
    }

    /// The (bank, row) of access `t` — a pure function of the cursor.
    fn slot(&self, t: u64) -> (u16, RowId) {
        let phase = u64::from(self.genome.phase);
        if t < phase {
            return self.filler(t);
        }
        let s = t - phase;
        let pe = u64::from(self.genome.pause_every);
        let pl = u64::from(self.genome.pause_len);
        if pe > 0 && pl > 0 {
            let cycle = pe + pl;
            let in_cycle = s % cycle;
            if in_cycle >= pe {
                return self.filler(t);
            }
            return self.attack_slot((s / cycle) * pe + in_cycle);
        }
        self.attack_slot(s)
    }
}

impl AccessSource for GenomeSource {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cursor);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.cursor = r.take_u64()?;
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        let (bank, row) = self.slot(self.cursor);
        self.cursor += 1;
        item(
            &self.mapper,
            ChannelId(0),
            RankId(0),
            bank,
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

    fn topo() -> Topology {
        Topology {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 2,
            rows_per_bank: 4_096,
            cols_per_row: 128,
            row_bytes: 8_192,
            devices_per_rank: 8,
        }
    }

    fn space() -> GenomeSpace {
        GenomeSpace::for_topology(&topo())
    }

    #[test]
    fn random_genomes_stay_in_space() {
        let sp = space();
        let mut rng = SplitMix64::new(7);
        for _ in 0..500 {
            let g = PatternGenome::random(&sp, &mut rng);
            assert!(g.in_space(&sp), "{g:?}");
        }
    }

    #[test]
    fn mutation_and_crossover_stay_in_space() {
        let sp = space();
        let mut rng = SplitMix64::new(8);
        let mut a = PatternGenome::random(&sp, &mut rng);
        let mut b = PatternGenome::random(&sp, &mut rng);
        for _ in 0..500 {
            let child = PatternGenome::crossover(&a, &b, &sp, &mut rng);
            assert!(child.in_space(&sp), "{child:?}");
            a = b;
            b = child.mutate(&sp, &mut rng);
            assert!(b.in_space(&sp), "{b:?}");
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let sp = space();
        let mut rng = SplitMix64::new(9);
        for _ in 0..100 {
            let g = PatternGenome::random(&sp, &mut rng);
            assert_eq!(PatternGenome::decode(&g.encode()).unwrap(), g);
            assert_eq!(PatternGenome::from_hex(&g.hex()).unwrap(), g);
        }
    }

    #[test]
    fn decode_rejects_hostile_bytes() {
        assert!(PatternGenome::decode(&[]).is_err());
        assert!(PatternGenome::decode(&[9; 12]).is_err(), "bad version");
        let mut ok = PatternGenome::classics(&space())[0].encode();
        ok.push(0xff);
        assert!(PatternGenome::decode(&ok).is_err(), "trailing bytes");
        let mut zero_agg = PatternGenome::classics(&space())[0].encode();
        zero_agg[10] = 0;
        assert!(PatternGenome::decode(&zero_agg).is_err());
        assert!(PatternGenome::from_hex("zz").is_err());
        assert!(PatternGenome::from_hex("abc").is_err(), "odd length");
    }

    #[test]
    fn source_is_a_pure_function_of_the_cursor() {
        let topo = topo();
        let sp = GenomeSpace::for_topology(&topo);
        let mut rng = SplitMix64::new(10);
        let g = PatternGenome::random(&sp, &mut rng);
        let a: Vec<u32> = g
            .source(&topo)
            .take_requests(200)
            .map(|(_, x)| x.row.0)
            .collect();
        let b: Vec<u32> = g
            .source(&topo)
            .take_requests(200)
            .map(|(_, x)| x.row.0)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_resumes_the_exact_suffix() {
        let topo = topo();
        let sp = GenomeSpace::for_topology(&topo);
        let mut rng = SplitMix64::new(11);
        let g = PatternGenome::random(&sp, &mut rng);
        let mut live = g.source(&topo);
        for _ in 0..137 {
            live.next_access();
        }
        let mut w = SnapshotWriter::new();
        live.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = g.source(&topo);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        for _ in 0..100 {
            let (_, a) = live.next_access();
            let (_, b) = restored.next_access();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn decoys_interleave_and_aggressors_rotate() {
        let topo = topo();
        let g = PatternGenome {
            bank: 0,
            aggressors: vec![RowId(10), RowId(20)],
            decoys: vec![RowId(100), RowId(200)],
            burst: 2,
            phase: 0,
            pause_every: 0,
            pause_len: 0,
        };
        let rows: Vec<u32> = g
            .source(&topo)
            .take_requests(9)
            .map(|(_, a)| a.row.0)
            .collect();
        // burst=2: [a0 a1 d0] [a0 a1 d1] [a0 a1 d0]
        assert_eq!(rows, vec![10, 20, 100, 10, 20, 200, 10, 20, 100]);
    }

    #[test]
    fn phase_and_straddle_route_filler_off_the_victim_bank() {
        let topo = topo();
        let g = PatternGenome {
            bank: 0,
            aggressors: vec![RowId(10)],
            decoys: vec![],
            burst: 1,
            phase: 3,
            pause_every: 2,
            pause_len: 2,
        };
        let banks: Vec<u16> = g
            .source(&topo)
            .take_requests(11)
            .map(|(_, a)| a.bank)
            .collect();
        // 3 filler (bank 1), then cycles of 2 attack (bank 0) + 2 filler.
        assert_eq!(banks, vec![1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn classics_are_valid_and_distinct() {
        let sp = space();
        let classics = PatternGenome::classics(&sp);
        assert!(classics.len() >= 5);
        for g in &classics {
            assert!(g.in_space(&sp), "{g:?}");
        }
        for (i, a) in classics.iter().enumerate() {
            assert!(!classics[i + 1..].contains(a), "duplicate classic");
        }
    }

    #[test]
    fn same_seed_same_lineage() {
        let sp = space();
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let mut rng = SplitMix64::new(seed);
            let mut pop: Vec<PatternGenome> = (0..8)
                .map(|_| PatternGenome::random(&sp, &mut rng))
                .collect();
            let mut lineage = Vec::new();
            for _ in 0..5 {
                let child =
                    PatternGenome::crossover(&pop[0], &pop[1], &sp, &mut rng).mutate(&sp, &mut rng);
                lineage.push(child.encode());
                pop.rotate_left(1);
                pop[7] = child;
            }
            lineage
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
