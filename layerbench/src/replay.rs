//! One `System` cell: a trace replayed under one defense, timed over
//! everything `twice-exp trace replay` pays — decode, `System::new`,
//! feed, drain and the final digest.

use crate::inputs::{items_hash, TraceInput};
use crate::spans::Recorder;
use std::time::Instant;
use twice_common::snapshot::{restore_from, snapshot_bytes};
use twice_memctrl::latency::LatencyHistogram;
use twice_mitigations::DefenseKind;
use twice_obs::Log2Hist;
use twice_sim::System;
use twice_workloads::tracev2::decode_strict;
use twice_workloads::TraceItem;

/// Host time of each call a traced cell made.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellLayers {
    /// `decode_strict`.
    pub decode_ns: u64,
    /// `System::new`.
    pub new_ns: u64,
    /// Every `System::feed` call.
    pub feed_ns: u64,
    /// `System::drain`.
    pub drain_ns: u64,
    /// `System::digest`.
    pub digest_ns: u64,
}

/// One snapshot round trip, outside the timed region.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundTrip {
    /// `snapshot_bytes`.
    pub save_ns: u64,
    /// `System::new` plus `restore_from`.
    pub restore_ns: u64,
    /// Snapshot size.
    pub bytes: u64,
    /// Whether the restored system digests like the original.
    pub digest_ok: bool,
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host ns of the timed region.
    pub wall_ns: u64,
    /// Requests fed.
    pub requests: u64,
    /// MC-issued ACTs.
    pub normal_acts: u64,
    /// ACTs the defense added.
    pub additional_acts: u64,
    /// Victims that crossed `N_th` unmitigated.
    pub bit_flips: u64,
    /// Simulated ps at the end of the run.
    pub sim_ps: u64,
    /// Post-drain system digest.
    pub digest: u64,
    /// Request latencies over every channel.
    pub latency: LatencyHistogram,
    /// Whether the bytes decoded to the generated items (by hash).
    pub decoded_ok: bool,
    /// Traced runs only.
    pub layers: Option<CellLayers>,
    /// Traced runs only, and only when asked for.
    pub round_trip: Option<RoundTrip>,
}

fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Replays `input` under `kind` with one clock pair around the cell.
///
/// # Errors
///
/// The decode or controller error that stopped the replay.
pub fn run_untraced(input: &TraceInput, kind: DefenseKind) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let items = decode_strict(&input.bytes, &input.cfg.topology).map_err(|e| e.to_string())?;
    let mut sys = System::new(&input.cfg, kind);
    for item in &items {
        sys.feed(*item).map_err(|e| e.to_string())?;
    }
    sys.drain().map_err(|e| e.to_string())?;
    let digest = sys.digest();
    let wall_ns = ns(t0, Instant::now());
    Ok(finish(input, &items, &sys, digest, wall_ns, None))
}

/// Replays `input` under `kind`, recording a span around each call into
/// the program. `feed` is timed per call with chained timestamps, so the
/// per-request spans cover the whole feed loop. With `round_trip`, the
/// drained system is also saved, dropped, rebuilt and restored after the
/// timed region.
///
/// # Errors
///
/// The decode or controller error that stopped the replay.
pub fn run_traced(
    input: &TraceInput,
    kind: DefenseKind,
    rec: &mut Recorder,
    cell: u32,
    round_trip: bool,
) -> Result<CellRun, String> {
    let root = rec.open("cell", cell, None);
    let s = rec.open("decode", cell, Some(root));
    let items = decode_strict(&input.bytes, &input.cfg.topology).map_err(|e| e.to_string())?;
    let decode_ns = rec.close(s);
    let s = rec.open("system_new", cell, Some(root));
    let mut sys = System::new(&input.cfg, kind);
    let new_ns = rec.close(s);
    let mut hist = Log2Hist::new();
    let start = Instant::now();
    let mut mark = start;
    for item in &items {
        sys.feed(*item).map_err(|e| e.to_string())?;
        let now = Instant::now();
        hist.record(ns(mark, now));
        mark = now;
    }
    let feed_ns = ns(start, mark);
    rec.aggregate(
        "feed",
        cell,
        Some(root),
        start,
        mark,
        items.len() as u64,
        feed_ns,
        hist,
    );
    let s = rec.open("drain", cell, Some(root));
    sys.drain().map_err(|e| e.to_string())?;
    let drain_ns = rec.close(s);
    let s = rec.open("digest", cell, Some(root));
    let digest = sys.digest();
    let digest_ns = rec.close(s);
    let wall_ns = rec.close(root);
    let layers = CellLayers {
        decode_ns,
        new_ns,
        feed_ns,
        drain_ns,
        digest_ns,
    };
    let mut run = finish(input, &items, &sys, digest, wall_ns, Some(layers));
    if round_trip {
        // One system alive at a time: the original is dropped before
        // its replacement is built.
        let s = rec.open("snapshot_save", cell, None);
        let blob = snapshot_bytes(&sys);
        let save_ns = rec.close(s);
        drop(sys);
        let s = rec.open("snapshot_restore", cell, None);
        let mut back = System::new(&input.cfg, kind);
        let restored = restore_from(&mut back, &blob);
        let restore_ns = rec.close(s);
        run.round_trip = Some(RoundTrip {
            save_ns,
            restore_ns,
            bytes: blob.len() as u64,
            digest_ok: restored.is_ok() && back.digest() == digest,
        });
    }
    Ok(run)
}

/// Reads the run's results off the drained system (outside the timed
/// region).
fn finish(
    input: &TraceInput,
    items: &[TraceItem],
    sys: &System,
    digest: u64,
    wall_ns: u64,
    layers: Option<CellLayers>,
) -> CellRun {
    let m = sys.metrics("");
    let mut latency = LatencyHistogram::new();
    for c in sys.controllers() {
        latency.merge(c.latency());
    }
    let decoded_ok = items.len() as u64 == input.records
        && input.items_hash.is_none_or(|h| h == items_hash(items));
    CellRun {
        wall_ns,
        requests: m.requests,
        normal_acts: m.normal_acts,
        additional_acts: m.additional_acts,
        bit_flips: m.bit_flips as u64,
        sim_ps: m.sim_time.as_ps(),
        digest,
        latency,
        decoded_ok,
        layers,
        round_trip: None,
    }
}
