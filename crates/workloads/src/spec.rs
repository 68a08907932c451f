//! SPEC CPU2006-like application models.
//!
//! SPEC itself cannot be redistributed; what a row-hammer defense
//! observes is the row-activation sequence, which is characterized by
//! (a) memory intensity (MAPKI — used to build the paper's `mix-high`
//! set), (b) row-buffer locality, and (c) the row-jump pattern. Each of
//! the 29 SPECrate applications used in Figure 7(a) is modeled by those
//! three knobs, with MAPKI classes taken from the published
//! characterizations of the suite (the nine paper-designated "spec-high"
//! applications — mcf, milc, leslie3d, soplex, GemsFDTD, libquantum,
//! lbm, sphinx3, omnetpp — all fall in the memory-intensive class).

use crate::trace::{item, AccessSource, Geometry, TraceItem};
use crate::zipf::Zipf;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{ChannelId, ColId, RankId, RowId, Topology};
use twice_memctrl::request::AccessKind;

/// How an application jumps between rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowPattern {
    /// Sequential sweep (streaming kernels: lbm, libquantum, bwaves…).
    Streaming,
    /// Fixed row stride (structured-grid codes).
    Strided(u32),
    /// Uniform random over the working set (pointer chasing: mcf, astar).
    Random,
    /// Zipf-skewed reuse (irregular but hot-set-heavy: omnetpp, xalancbmk).
    Skewed(f64),
}

/// A SPEC-like application model.
#[derive(Debug, Clone)]
pub struct AppModel {
    /// Application name.
    pub name: &'static str,
    /// Memory accesses per kilo-instruction (intensity class).
    pub mapki: f64,
    /// Probability that the next access stays in the current row.
    pub row_locality: f64,
    /// Working-set size in DRAM rows.
    pub working_set_rows: u32,
    /// Row-jump pattern.
    pub pattern: RowPattern,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
}

/// The 29 SPEC CPU2006 applications used in SPECrate mode (Figure 7a).
pub fn spec_cpu2006() -> Vec<AppModel> {
    use RowPattern::*;
    let m = |name, mapki, row_locality, working_set_rows, pattern, write_fraction| AppModel {
        name,
        mapki,
        row_locality,
        working_set_rows,
        pattern,
        write_fraction,
    };
    vec![
        m("perlbench", 0.6, 0.85, 2_000, Skewed(0.8), 0.3),
        m("bzip2", 2.1, 0.75, 4_000, Strided(3), 0.35),
        m("gcc", 3.4, 0.70, 8_000, Skewed(0.7), 0.3),
        m("bwaves", 9.1, 0.80, 16_000, Streaming, 0.2),
        m("gamess", 0.2, 0.90, 1_000, Strided(2), 0.25),
        m("mcf", 24.7, 0.30, 64_000, Random, 0.25),
        m("milc", 15.5, 0.55, 32_000, Streaming, 0.3),
        m("zeusmp", 4.8, 0.70, 12_000, Strided(7), 0.3),
        m("gromacs", 0.7, 0.85, 2_000, Strided(2), 0.3),
        m("cactusADM", 4.4, 0.65, 10_000, Strided(11), 0.35),
        m("leslie3d", 13.2, 0.60, 24_000, Strided(5), 0.3),
        m("namd", 0.4, 0.88, 1_500, Strided(2), 0.2),
        m("gobmk", 1.0, 0.80, 3_000, Skewed(0.9), 0.3),
        m("dealII", 1.2, 0.78, 3_000, Skewed(0.8), 0.3),
        m("soplex", 12.4, 0.50, 24_000, Random, 0.25),
        m("povray", 0.1, 0.92, 800, Skewed(1.0), 0.2),
        m("calculix", 0.8, 0.82, 2_500, Strided(4), 0.3),
        m("hmmer", 0.6, 0.86, 1_500, Streaming, 0.3),
        m("sjeng", 0.9, 0.75, 3_000, Random, 0.3),
        m("GemsFDTD", 14.1, 0.55, 28_000, Strided(9), 0.35),
        m("libquantum", 20.4, 0.85, 20_000, Streaming, 0.25),
        m("h264ref", 1.6, 0.80, 4_000, Strided(3), 0.3),
        m("tonto", 0.9, 0.82, 2_500, Skewed(0.8), 0.3),
        m("lbm", 18.3, 0.65, 40_000, Streaming, 0.45),
        m("omnetpp", 10.3, 0.40, 32_000, Skewed(0.9), 0.3),
        m("astar", 4.2, 0.55, 12_000, Random, 0.25),
        m("wrf", 5.1, 0.70, 12_000, Strided(6), 0.3),
        m("sphinx3", 11.5, 0.60, 20_000, Skewed(0.7), 0.2),
        m("xalancbmk", 6.0, 0.55, 16_000, Skewed(0.9), 0.25),
    ]
}

/// The nine memory-intensive applications the paper classifies as
/// `spec-high` (§7.2).
pub fn spec_high() -> Vec<AppModel> {
    const NAMES: [&str; 9] = [
        "mcf",
        "milc",
        "leslie3d",
        "soplex",
        "GemsFDTD",
        "libquantum",
        "lbm",
        "sphinx3",
        "omnetpp",
    ];
    spec_cpu2006()
        .into_iter()
        .filter(|a| NAMES.contains(&a.name))
        .collect()
}

/// Looks an application up by name.
pub fn app(name: &str) -> Option<AppModel> {
    spec_cpu2006().into_iter().find(|a| a.name == name)
}

/// A running instance of one application copy.
pub struct SpecAppSource {
    geo: Geometry,
    model: AppModel,
    zipf: Option<Zipf>,
    rng: SplitMix64,
    source: u16,
    /// Base row of this copy's partition (SPECrate copies do not share
    /// address space).
    region_base: u32,
    region_rows: u32,
    channel: u8,
    rank: u8,
    bank: u16,
    row: u32,
    col: u16,
}

impl std::fmt::Debug for SpecAppSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecAppSource")
            .field("app", &self.model.name)
            .field("source", &self.source)
            .finish()
    }
}

impl SpecAppSource {
    /// Creates copy `copy_index` of `total_copies` running `model` on
    /// `topo`, with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `total_copies` is zero or `copy_index` out of range.
    pub fn new(
        topo: &Topology,
        model: AppModel,
        copy_index: u16,
        total_copies: u16,
        seed: u64,
    ) -> SpecAppSource {
        assert!(total_copies > 0, "need at least one copy");
        assert!(copy_index < total_copies, "copy index out of range");
        let geo = Geometry::new(topo);
        let region_rows = (geo.rows / u32::from(total_copies)).max(1);
        let region_base = u32::from(copy_index) * region_rows;
        let ws = model.working_set_rows.min(region_rows);
        let zipf = match model.pattern {
            RowPattern::Skewed(theta) => Some(Zipf::new(ws as usize, theta)),
            _ => None,
        };
        SpecAppSource {
            rng: SplitMix64::new(seed ^ (u64::from(copy_index) << 32)),
            source: copy_index,
            region_base,
            region_rows,
            channel: (copy_index % u16::from(geo.channels)) as u8,
            rank: 0,
            bank: copy_index % geo.banks,
            row: region_base,
            col: 0,
            zipf,
            geo,
            model,
        }
    }

    fn jump_row(&mut self) {
        let ws = self.model.working_set_rows.min(self.region_rows).max(1);
        let offset = match self.model.pattern {
            RowPattern::Streaming => (self.row - self.region_base + 1) % ws,
            RowPattern::Strided(s) => (self.row - self.region_base + s) % ws,
            RowPattern::Random => self.rng.next_below(u64::from(ws)) as u32,
            RowPattern::Skewed(_) => {
                let z = self.zipf.as_ref().expect("skewed model has a sampler");
                z.sample(&mut self.rng) as u32
            }
        };
        self.row = self.region_base + offset;
        // Spread across banks/ranks/channels as real interleaving does.
        self.bank = (self.bank + 1) % self.geo.banks;
        if self.bank == 0 {
            self.rank = (self.rank + 1) % self.geo.ranks;
            if self.rank == 0 {
                self.channel = (self.channel + 1) % self.geo.channels;
            }
        }
        self.col = 0;
    }
}

impl AccessSource for SpecAppSource {
    fn save_state(&self, w: &mut SnapshotWriter) {
        // The Zipf sampler and region bounds are config-derived; only
        // the RNG and the current coordinate cursor are mutable.
        w.put_u64(self.rng.state());
        w.put_u8(self.channel);
        w.put_u8(self.rank);
        w.put_u32(u32::from(self.bank));
        w.put_u32(self.row);
        w.put_u32(u32::from(self.col));
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        // Snapshot bytes are untrusted (they come off disk): every
        // coordinate is range-checked so a doctored checkpoint yields a
        // typed error here instead of an out-of-range access tripping an
        // assert deep in the controller.
        let rng_state = r.take_u64()?;
        let channel = r.take_u8()?;
        if channel >= self.geo.channels {
            return Err(SnapshotError::StateMismatch(format!(
                "channel {channel} out of range (topology has {})",
                self.geo.channels
            )));
        }
        let rank = r.take_u8()?;
        if rank >= self.geo.ranks {
            return Err(SnapshotError::StateMismatch(format!(
                "rank {rank} out of range (topology has {})",
                self.geo.ranks
            )));
        }
        let bank = r.take_u32()?;
        if bank >= u32::from(self.geo.banks) {
            return Err(SnapshotError::StateMismatch(format!(
                "bank {bank} out of range (topology has {})",
                self.geo.banks
            )));
        }
        let row = r.take_u32()?;
        if row < self.region_base || row >= self.region_base + self.region_rows {
            return Err(SnapshotError::StateMismatch(format!(
                "row {row} outside copy region {}..{}",
                self.region_base,
                self.region_base + self.region_rows
            )));
        }
        let col = r.take_u32()?;
        if col >= u32::from(self.geo.cols) {
            return Err(SnapshotError::StateMismatch(format!(
                "col {col} out of range (topology has {})",
                self.geo.cols
            )));
        }
        self.rng.set_state(rng_state);
        self.channel = channel;
        self.rank = rank;
        self.bank = bank as u16;
        self.row = row;
        self.col = col as u16;
        Ok(())
    }

    fn next_access(&mut self) -> TraceItem {
        if !self.rng.chance(self.model.row_locality) {
            self.jump_row();
        } else {
            self.col = (self.col + 1) % self.geo.cols;
        }
        let kind = if self.rng.chance(self.model.write_fraction) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        item(
            &self.geo.mapper,
            ChannelId(self.channel),
            RankId(self.rank),
            self.bank,
            RowId(self.row),
            ColId(self.col),
            kind,
            self.source,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_29_applications() {
        let suite = spec_cpu2006();
        assert_eq!(suite.len(), 29);
        let names: std::collections::HashSet<_> = suite.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 29, "names must be unique");
    }

    #[test]
    fn spec_high_matches_the_paper_set() {
        let high = spec_high();
        assert_eq!(high.len(), 9);
        assert!(
            high.iter().all(|a| a.mapki >= 10.0),
            "spec-high is memory-intensive"
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(app("mcf").is_some());
        assert!(app("quake").is_none());
    }

    #[test]
    fn accesses_stay_inside_the_copy_region() {
        let topo = Topology::paper_default();
        let mut src = SpecAppSource::new(&topo, app("mcf").unwrap(), 3, 16, 42);
        let region_rows = topo.rows_per_bank / 16;
        for _ in 0..10_000 {
            let (_, a) = src.next_access();
            assert!(a.row.0 >= 3 * region_rows && a.row.0 < 4 * region_rows);
        }
    }

    #[test]
    fn row_locality_is_approximated() {
        let topo = Topology::paper_default();
        let model = app("libquantum").unwrap(); // locality 0.85
        let mut src = SpecAppSource::new(&topo, model, 0, 1, 7);
        let mut stays = 0u32;
        let mut last = src.next_access().1;
        let n = 50_000;
        for _ in 0..n {
            let (_, a) = src.next_access();
            if a.row == last.row && a.bank == last.bank {
                stays += 1;
            }
            last = a;
        }
        let rate = f64::from(stays) / f64::from(n);
        assert!((0.80..=0.90).contains(&rate), "locality {rate}");
    }

    #[test]
    fn streaming_sweeps_rows_in_order() {
        let topo = Topology::paper_default();
        let mut model = app("lbm").unwrap();
        model.row_locality = 0.0; // force a jump every access
        let mut src = SpecAppSource::new(&topo, model, 0, 1, 7);
        let r0 = src.next_access().1.row.0;
        let r1 = src.next_access().1.row.0;
        assert_eq!(r1, r0 + 1, "streaming advances one row at a time");
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn doctored_snapshots_are_rejected_with_typed_errors() {
        use twice_common::snapshot::{SnapshotError, SnapshotWriter};
        let topo = Topology::paper_default();
        // (rng, channel, rank, bank, row, col) with one field poisoned
        // per case; all-valid must load.
        let cases: [(u8, u8, u32, u32, u32, Option<&str>); 6] = [
            (0, 0, 0, 0, 0, None),
            (99, 0, 0, 0, 0, Some("channel")),
            (0, 99, 0, 0, 0, Some("rank")),
            (0, 0, 9_999, 0, 0, Some("bank")),
            (0, 0, 0, u32::MAX, 0, Some("row")),
            (0, 0, 0, 0, 999_999, Some("col")),
        ];
        for (channel, rank, bank, row, col, want) in cases {
            let mut src = SpecAppSource::new(&topo, app("mcf").unwrap(), 0, 1, 42);
            let mut w = SnapshotWriter::new();
            w.put_u64(7);
            w.put_u8(channel);
            w.put_u8(rank);
            w.put_u32(bank);
            w.put_u32(row);
            w.put_u32(col);
            let bytes = w.finish();
            let mut r = twice_common::snapshot::SnapshotReader::new(&bytes).unwrap();
            let got = src.load_state(&mut r);
            match want {
                None => got.unwrap(),
                Some(field) => {
                    let err = got.unwrap_err();
                    let SnapshotError::StateMismatch(msg) = &err else {
                        panic!("expected StateMismatch, got {err:?}");
                    };
                    assert!(msg.contains(field), "{field}: {msg}");
                }
            }
        }
    }

    #[test]
    fn benign_apps_never_hammer_one_row() {
        // No single row should collect a hammering share of activations.
        let topo = Topology::paper_default();
        let mut src = SpecAppSource::new(&topo, app("omnetpp").unwrap(), 0, 1, 9);
        let mut row_acts: std::collections::HashMap<(u16, u32), u32> =
            std::collections::HashMap::new();
        let mut last_row = None;
        for _ in 0..100_000 {
            let (_, a) = src.next_access();
            let key = (a.bank, a.row.0);
            if last_row != Some(key) {
                *row_acts.entry(key).or_insert(0) += 1;
                last_row = Some(key);
            }
        }
        let max = row_acts.values().copied().max().unwrap();
        let total: u32 = row_acts.values().sum();
        assert!(
            f64::from(max) / f64::from(total) < 0.05,
            "hottest row takes {max}/{total} activations"
        );
    }
}
