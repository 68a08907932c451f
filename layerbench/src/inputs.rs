//! Benchmark inputs, built in set-up: seed-generated traces encoded to
//! `twice-trace v2` bytes (all the program receives) and the checked-in
//! red-team corpus with its recorded verdicts.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::fnv1a;
use twice_common::RowId;
use twice_memctrl::AccessKind;
use twice_sim::journal::{parse_line, unseal_line, JsonValue};
use twice_sim::redteam::CORPUS_MANIFEST;
use twice_sim::runner::{try_build_source, WorkloadKind};
use twice_sim::SimConfig;
use twice_workloads::attack::{HammerAttack, HammerShape};
use twice_workloads::tracev2::{decode_strict, encode_trace};
use twice_workloads::{AccessSource, TraceItem};

/// Requests per seed-generated `benign-paper` trace.
pub const BENIGN_REQUESTS: u64 = 100_000;
/// Requests per seed-generated `hammer-lineup` trace.
pub const HAMMER_REQUESTS: u64 = 20_000;

/// One replayable trace.
#[derive(Debug, Clone)]
pub struct TraceInput {
    /// Short label (`mix-high`, `rt00-para.twt2`, ...).
    pub name: String,
    /// The system the trace replays on.
    pub cfg: SimConfig,
    /// The encoded trace.
    pub bytes: Vec<u8>,
    /// [`items_hash`] of what the generator produced, for the decode
    /// check (the items themselves are dropped once encoded); `None` for
    /// a corpus trace.
    pub items_hash: Option<u64>,
    /// Records the bytes must decode to.
    pub records: u64,
    /// Corpus only: the defenses the manifest recorded as breaking.
    pub breaks: Option<BTreeSet<String>>,
    /// FNV-1a of `bytes`.
    pub hash: u64,
}

/// Host time set-up spent generating and encoding requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenCost {
    /// Nanoseconds in the generators.
    pub gen_ns: u64,
    /// Nanoseconds in `encode_trace`.
    pub encode_ns: u64,
    /// Nanoseconds in `decode_strict` (only where set-up decodes).
    pub decode_ns: u64,
    /// Requests generated.
    pub requests: u64,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Draws `requests` accesses from `source`, encodes them for `cfg`'s
/// topology, and charges both steps to `cost`.
fn generate(
    name: &str,
    cfg: &SimConfig,
    mut source: impl AccessSource,
    skip: u64,
    requests: u64,
    cost: &mut GenCost,
) -> TraceInput {
    let t0 = Instant::now();
    for _ in 0..skip {
        source.next_access();
    }
    let items: Vec<TraceItem> = (0..requests).map(|_| source.next_access()).collect();
    cost.gen_ns += ns_since(t0);
    let t1 = Instant::now();
    let (bytes, records) = encode_trace(&cfg.topology, items.iter().copied());
    cost.encode_ns += ns_since(t1);
    cost.requests += requests;
    TraceInput {
        name: name.to_string(),
        cfg: cfg.clone(),
        hash: fnv1a(&bytes),
        bytes,
        items_hash: Some(items_hash(&items)),
        records,
        breaks: None,
    }
}

/// A 64-bit hash of every field of `items`, folded a word at a time.
pub fn items_hash(items: &[TraceItem]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |w: u64| {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    };
    for (req, a) in items {
        fold(req.addr);
        fold(u64::from(req.source) << 1 | u64::from(req.kind == AccessKind::Write));
        fold(req.arrival.as_ps());
        fold(
            u64::from(a.channel.0)
                | u64::from(a.rank.0) << 8
                | u64::from(a.bank) << 16
                | u64::from(a.row.0) << 32,
        );
        fold(u64::from(a.col.0));
    }
    h
}

/// Decodes `input` with the program's strict decoder.
///
/// # Errors
///
/// The decoder's error, with the trace's name.
pub fn decode(input: &TraceInput) -> Result<Vec<TraceItem>, String> {
    decode_strict(&input.bytes, &input.cfg.topology).map_err(|e| format!("{}: {e}", input.name))
}

fn source(cfg: &SimConfig, seed: u64, kind: WorkloadKind) -> Box<dyn AccessSource + Send> {
    let mut gen_cfg = cfg.clone();
    gen_cfg.seed = seed;
    try_build_source(&gen_cfg, &kind).expect("built-in workload kinds always build")
}

/// Figure 7 traffic on the Table 4 system: mix-high, FFT and PageRank.
/// The seed drives the generators only; the replayed system keeps
/// `paper_default`'s own seed.
pub fn benign_traces(seed: u64, requests: u64, cost: &mut GenCost) -> Vec<TraceInput> {
    let cfg = SimConfig::paper_default();
    // FFT has no seed of its own: the seed picks where in the first
    // butterfly pass the trace starts.
    let fft_skip = SplitMix64::new(seed ^ 0xF0F7).next_below(4_096) * 16;
    vec![
        generate(
            "mix-high",
            &cfg,
            source(&cfg, seed, WorkloadKind::MixHigh),
            0,
            requests,
            cost,
        ),
        generate(
            "fft",
            &cfg,
            source(&cfg, seed, WorkloadKind::Fft),
            fft_skip,
            requests,
            cost,
        ),
        generate(
            "pagerank",
            &cfg,
            source(&cfg, seed, WorkloadKind::PageRank),
            0,
            requests,
            cost,
        ),
    ]
}

/// Attack traffic on the fast-test system: S2, S3, an 8-sided hammer
/// and a decoy hammer, with banks and rows drawn from the seed.
pub fn hammer_traces(seed: u64, requests: u64, cost: &mut GenCost) -> Vec<TraceInput> {
    let cfg = SimConfig::fast_test();
    let topo = &cfg.topology;
    let mut rng = SplitMix64::new(seed ^ 0x4A33);
    let rows = u64::from(topo.rows_per_bank);
    let banks = u64::from(topo.banks_per_rank);
    let mut bank = || rng.next_below(banks) as u16;
    let (many_bank, decoy_bank) = (bank(), bank());
    let base = 2 + rng.next_below(rows - 20) as u32;
    let many = HammerShape::ManySided {
        aggressors: (0..8).map(|k| RowId(base + 2 * k)).collect(),
    };
    let decoy = HammerShape::Decoy {
        aggressor: RowId(1 + rng.next_below(rows - 2) as u32),
        decoys: (0..7).map(|_| RowId(rng.next_below(rows) as u32)).collect(),
    };
    vec![
        generate(
            "s2",
            &cfg,
            source(&cfg, seed, WorkloadKind::S2),
            0,
            requests,
            cost,
        ),
        generate(
            "s3",
            &cfg,
            source(&cfg, seed, WorkloadKind::S3),
            0,
            requests,
            cost,
        ),
        generate(
            "many-sided",
            &cfg,
            HammerAttack::new(topo, many_bank, many),
            0,
            requests,
            cost,
        ),
        generate(
            "decoy",
            &cfg,
            HammerAttack::new(topo, decoy_bank, decoy),
            0,
            requests,
            cost,
        ),
    ]
}

/// The checked-in corpus under `root`, replayed on the fast-test system
/// under the seed its manifest was distilled with, so probabilistic
/// defenses flip the same coins and the verdicts stay comparable.
///
/// # Errors
///
/// An unreadable or tampered manifest or trace file.
pub fn corpus_traces(root: &Path) -> Result<Vec<TraceInput>, String> {
    let dir = root.join("corpus");
    let manifest = std::fs::read_to_string(dir.join(CORPUS_MANIFEST))
        .map_err(|e| format!("cannot read the corpus manifest: {e}"))?;
    let mut cfg = SimConfig::fast_test();
    let mut out = Vec::new();
    for raw in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let line = unseal_line(raw).ok_or("corpus manifest line fails its CRC seal")?;
        let fields = parse_line(&line)?;
        let text = |key: &str| match fields.get(key) {
            Some(JsonValue::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let number = |key: &str| match fields.get(key) {
            Some(JsonValue::U64(v)) => Some(*v),
            _ => None,
        };
        match text("kind").as_deref() {
            Some("meta") => cfg.seed = number("seed").ok_or("manifest meta line lacks a seed")?,
            Some("trace") => {
                let file = text("file").ok_or("manifest trace line lacks a file")?;
                let bytes = std::fs::read(dir.join(&file))
                    .map_err(|e| format!("cannot read corpus trace {file}: {e}"))?;
                out.push(TraceInput {
                    cfg: cfg.clone(),
                    hash: fnv1a(&bytes),
                    bytes,
                    items_hash: None,
                    // The manifest's `trace_digest` is the record count.
                    records: number("trace_digest").ok_or("manifest line lacks trace_digest")?,
                    breaks: Some(
                        text("breaks")
                            .unwrap_or_default()
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect(),
                    ),
                    name: file,
                });
            }
            _ => {}
        }
    }
    if out.is_empty() {
        return Err("the corpus manifest lists no traces".into());
    }
    Ok(out)
}
