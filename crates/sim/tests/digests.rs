//! The golden digest ledger: the model beneath the drivers, pinned.
//!
//! `golden_runners.txt` pins the supervised grid drivers. This file pins
//! what they run on: every defense of [`DefenseKind::verify_lineup`]
//! replays a short stream of each workload below, under per-bank and
//! all-bank refresh, and the run's state digest, ACT and ARR counts,
//! flips and simulated time must reproduce `digests.jsonl` byte for
//! byte. A change to the DRAM, controller, hammer or defense model that
//! moves any state shows up here as the rows it changed, and so does a
//! change to what a snapshot writes: every row also checks that the
//! digest is the checksum the system's snapshot blob ends with.
//!
//! The streams are the synthetic S1–S3 generators and the checked-in
//! corpus traces on the fast-test system, and FFT and mix-high on the
//! paper system, whose 131,072-row banks exercise paper-size per-row
//! state.
//!
//! On a mismatch the actual ledger is written under
//! `CARGO_TARGET_TMPDIR` and the changed rows are printed. Re-baselining
//! is copying that file over `digests.jsonl`.

use std::fmt::Write as _;
use std::path::Path;
use twice_common::snapshot::snapshot_bytes;
use twice_memctrl::controller::RefreshMode;
use twice_mitigations::DefenseKind;
use twice_sim::config::SimConfig;
use twice_sim::parallel::parallel_map;
use twice_sim::runner::{build_trace, WorkloadKind};
use twice_sim::system::System;
use twice_workloads::tracev2::decode_strict;
use twice_workloads::TraceItem;

const LEDGER: &str = include_str!("digests.jsonl");

/// Requests replayed per fast-test cell and per paper-system cell.
const FAST_REQUESTS: usize = 16_000;
const PAPER_REQUESTS: usize = 4_000;

const CORPUS: [&str; 3] = ["rt00-para.twt2", "rt01-para.twt2", "rt02-para.twt2"];

/// One stream of the grid: the system it runs on and its requests.
struct Stream {
    system: &'static str,
    workload: String,
    cfg: SimConfig,
    items: Vec<TraceItem>,
}

fn generated(system: &'static str, cfg: &SimConfig, name: &str, n: usize) -> Stream {
    let kind = WorkloadKind::parse(name).expect("a known workload");
    Stream {
        system,
        workload: name.to_string(),
        cfg: cfg.clone(),
        items: build_trace(cfg, &kind, n as u64).collect(),
    }
}

fn corpus(cfg: &SimConfig, file: &str) -> Stream {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(file);
    let bytes = std::fs::read(&path).expect("corpus trace is checked in");
    let mut items = decode_strict(&bytes, &cfg.topology).expect("corpus trace decodes");
    items.truncate(FAST_REQUESTS);
    Stream {
        system: "fast_test",
        workload: file.to_string(),
        cfg: cfg.clone(),
        items,
    }
}

fn streams() -> Vec<Stream> {
    let fast = SimConfig::fast_test();
    let paper = SimConfig::paper_default();
    let mut out: Vec<Stream> = ["s1", "s2", "s3"]
        .into_iter()
        .map(|w| generated("fast_test", &fast, w, FAST_REQUESTS))
        .collect();
    out.extend(CORPUS.iter().map(|f| corpus(&fast, f)));
    out.extend(
        ["fft", "mix-high"]
            .into_iter()
            .map(|w| generated("paper_default", &paper, w, PAPER_REQUESTS)),
    );
    out
}

fn refresh_label(mode: RefreshMode) -> &'static str {
    match mode {
        RefreshMode::PerBank => "per-bank",
        RefreshMode::AllBank => "all-bank",
    }
}

/// Runs one cell and renders its ledger row.
fn row(stream: &Stream, mode: RefreshMode, kind: DefenseKind) -> String {
    let mut cfg = stream.cfg.clone();
    cfg.refresh_mode = mode;
    let mut system = System::new(&cfg, kind);
    system
        .run(stream.items.iter().copied())
        .expect("fault-free cells never exhaust their retries");
    let digest = system.digest();
    let blob = snapshot_bytes(&system);
    assert_eq!(
        digest.to_le_bytes(),
        blob[blob.len() - 8..],
        "{} {} {kind}: the digest must be the snapshot blob's checksum",
        stream.workload,
        refresh_label(mode),
    );
    let m = system.metrics(stream.workload.clone());
    let arrs: u64 = system
        .controllers()
        .iter()
        .flat_map(|c| c.rank_stats())
        .map(|s| s.arrs)
        .sum();
    format!(
        "{{\"system\":\"{}\",\"refresh\":\"{}\",\"workload\":\"{}\",\"defense\":\"{}\",\
         \"requests\":{},\"digest\":\"{:#018x}\",\"normal_acts\":{},\"additional_acts\":{},\
         \"arrs\":{},\"flips\":{},\"sim_ps\":{}}}",
        stream.system,
        refresh_label(mode),
        stream.workload,
        kind.cli_name().expect("lineup kinds have CLI names"),
        m.requests,
        digest,
        m.normal_acts,
        m.additional_acts,
        arrs,
        m.bit_flips,
        m.sim_time.as_ps(),
    )
}

fn actual() -> String {
    let streams = streams();
    let mut cells = Vec::new();
    for s in &streams {
        for mode in [RefreshMode::PerBank, RefreshMode::AllBank] {
            for kind in DefenseKind::verify_lineup() {
                cells.push((s, mode, kind));
            }
        }
    }
    let rows = parallel_map(2, &cells, |_, &(s, mode, kind)| row(s, mode, kind));
    let mut out = String::new();
    for r in rows {
        writeln!(out, "{r}").unwrap();
    }
    out
}

#[test]
fn every_cell_reproduces_the_digest_ledger() {
    let got = actual();
    if got == LEDGER {
        return;
    }
    let saved = Path::new(env!("CARGO_TARGET_TMPDIR")).join("digests.jsonl");
    std::fs::write(&saved, &got).expect("save the actual ledger");
    let want: Vec<&str> = LEDGER.lines().collect();
    let have: Vec<&str> = got.lines().collect();
    let mut diff = String::new();
    for i in 0..want.len().max(have.len()) {
        let (w, h) = (want.get(i), have.get(i));
        if w != h {
            writeln!(
                diff,
                "row {}:\n  - {}\n  + {}",
                i + 1,
                w.unwrap_or(&"<none>"),
                h.unwrap_or(&"<none>")
            )
            .unwrap();
        }
    }
    panic!(
        "the model drifted from crates/sim/tests/digests.jsonl:\n{diff}\
         actual ledger saved to {}; copy it over the ledger to re-baseline",
        saved.display()
    );
}
