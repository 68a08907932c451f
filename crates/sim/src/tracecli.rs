//! Campaign plumbing for binary (`twice-trace v2`) traces.
//!
//! Everything here goes through the [`CampaignIo`] seam, so the same
//! storage-fault injection that tortures journals and checkpoints
//! (`FaultyIo`) applies to trace record/replay: ENOSPC and failed
//! renames surface as typed I/O errors retried by the
//! [`with_retries`] ladder, while torn writes, partial reads, and
//! bit-rot flow into the salvage decoder and come back as a
//! [`SalvageSummary`](twice_workloads::SalvageSummary) instead of a crash.
//!
//! The replay side is digest-faithful: [`ReplaySource`] implements
//! [`AccessSource`] with snapshot hooks, so a replayed trace drives
//! the same [`System`] machinery as a live generator — including
//! kill+resume checkpoints — and reproduces the live run's state
//! digest bit for bit.

use crate::cio::{with_retries, CampaignIo, RealIo};
use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::outcome::CellError;
use crate::runner::{try_build_source, WorkloadKind};
use crate::system::System;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_memctrl::request::AccessKind;
use twice_mitigations::DefenseKind;
use twice_workloads::trace::{AccessSource, TraceItem};
use twice_workloads::tracev2::{
    decode_salvage, encode_trace, v1_encoded_len, SalvagedTrace, TraceHeaderError,
};

/// The storage stack a trace operation runs against: an injectable
/// [`CampaignIo`] plus the retry budget for *erroring* operations
/// (corrupting faults don't error — they are the salvage reader's
/// problem).
#[derive(Debug, Clone)]
pub struct TraceIo {
    /// The storage backend (real or fault-injecting).
    pub io: Arc<dyn CampaignIo>,
    /// Attempts per failing storage op (≥ 1).
    pub attempts: u32,
    /// Linear backoff between attempts, in milliseconds.
    pub backoff_ms: u64,
}

impl TraceIo {
    /// Durable local-filesystem I/O, no retries.
    pub fn real() -> TraceIo {
        TraceIo {
            io: Arc::new(RealIo),
            attempts: 1,
            backoff_ms: 0,
        }
    }

    /// A stack over `io` with a retry budget.
    pub fn new(io: Arc<dyn CampaignIo>, attempts: u32, backoff_ms: u64) -> TraceIo {
        TraceIo {
            io,
            attempts: attempts.max(1),
            backoff_ms,
        }
    }
}

impl Default for TraceIo {
    fn default() -> TraceIo {
        TraceIo::real()
    }
}

/// A failure on the trace record/load path.
#[derive(Debug)]
pub enum TraceCliError {
    /// Storage failed after exhausting the retry budget.
    Io(io::Error),
    /// The trace header is unusable (corrupt, foreign version, or
    /// recorded against a different topology).
    Header(TraceHeaderError),
    /// The workload to record could not be built.
    Workload(CellError),
}

impl fmt::Display for TraceCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCliError::Io(e) => write!(f, "trace storage I/O failed: {e}"),
            TraceCliError::Header(e) => write!(f, "{e}"),
            TraceCliError::Workload(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceCliError {}

/// What `record` produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordOutcome {
    /// Accesses encoded.
    pub records: u64,
    /// Bytes written (header + frames).
    pub bytes: u64,
}

/// Records `requests` accesses of `kind` into a v2 trace at `path`.
///
/// The write goes through [`CampaignIo::write_atomically`] — temp file,
/// fsync, rename — so a killed or fault-injected record never leaves a
/// torn, header-valid trace behind; it either fully lands or the old
/// bytes survive.
///
/// # Errors
///
/// [`TraceCliError::Workload`] for an unknown SPEC app,
/// [`TraceCliError::Io`] once the retry budget is exhausted.
pub fn record_trace(
    tio: &TraceIo,
    cfg: &SimConfig,
    kind: &WorkloadKind,
    requests: u64,
    path: &Path,
) -> Result<RecordOutcome, TraceCliError> {
    let source = try_build_source(cfg, kind).map_err(TraceCliError::Workload)?;
    let (bytes, records) = encode_trace(&cfg.topology, source.take_requests(requests));
    with_retries(tio.attempts, tio.backoff_ms, || {
        tio.io.write_atomically(path, &bytes)
    })
    .map_err(TraceCliError::Io)?;
    Ok(RecordOutcome {
        records,
        bytes: bytes.len() as u64,
    })
}

/// A trace read back from storage, salvage already applied.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// Size of the file as read (post any injected truncation).
    pub file_bytes: u64,
    /// The decoded accesses plus the salvage summary.
    pub salvaged: SalvagedTrace,
}

impl LoadedTrace {
    /// One-pass characterization for `trace stat`.
    pub fn stats(&self) -> TraceStats {
        let s = &self.salvaged.summary;
        let mut reads = 0;
        let mut writes = 0;
        let mut v1_bytes = 0;
        for item in &self.salvaged.items {
            match item.0.kind {
                AccessKind::Read => reads += 1,
                AccessKind::Write => writes += 1,
            }
            v1_bytes += v1_encoded_len(item);
        }
        TraceStats {
            v2_bytes: self.file_bytes,
            v1_bytes,
            records: s.records,
            frames_kept: s.frames_kept,
            frames_dropped: s.frames_dropped,
            bytes_quarantined: s.bytes_quarantined,
            reads,
            writes,
        }
    }
}

/// Reads and salvage-decodes the v2 trace at `path`.
///
/// Injected partial reads and bit-rot reach the decoder as corrupt
/// bytes and are reported in the salvage summary; the obs counters
/// `sim.trace_frames_read` / `sim.trace_frames_dropped` /
/// `sim.trace_bytes_quarantined` record what happened.
///
/// # Errors
///
/// [`TraceCliError::Io`] once reads exhaust the retry budget;
/// [`TraceCliError::Header`] for an unusable header.
pub fn load_trace(
    tio: &TraceIo,
    cfg: &SimConfig,
    path: &Path,
) -> Result<LoadedTrace, TraceCliError> {
    let bytes = with_retries(tio.attempts, tio.backoff_ms, || tio.io.read(path))
        .map_err(TraceCliError::Io)?;
    let salvaged = decode_salvage(&bytes, &cfg.topology).map_err(TraceCliError::Header)?;
    twice_obs::add(
        twice_obs::Ctr::SimTraceFramesRead,
        salvaged.summary.frames_kept,
    );
    twice_obs::add(
        twice_obs::Ctr::SimTraceFramesDropped,
        salvaged.summary.frames_dropped,
    );
    twice_obs::add(
        twice_obs::Ctr::SimTraceBytesQuarantined,
        salvaged.summary.bytes_quarantined,
    );
    Ok(LoadedTrace {
        file_bytes: bytes.len() as u64,
        salvaged,
    })
}

/// Replays a decoded trace as an [`AccessSource`].
///
/// The cursor is part of the snapshot state, so a checkpointed replay
/// resumes from the exact access an uninterrupted replay would have
/// produced next — the same contract every live generator honors.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    items: Arc<Vec<TraceItem>>,
    cursor: u64,
}

impl ReplaySource {
    /// A source over `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty — an empty trace has nothing to
    /// replay (the CLI classifies it unusable before getting here).
    pub fn new(items: Arc<Vec<TraceItem>>) -> ReplaySource {
        assert!(!items.is_empty(), "cannot replay an empty trace");
        ReplaySource { items, cursor: 0 }
    }

    /// How many accesses have been produced.
    pub fn position(&self) -> u64 {
        self.cursor
    }

    /// The number of recorded accesses.
    pub fn len(&self) -> u64 {
        self.items.len() as u64
    }

    /// Whether the trace is empty (never true — see [`ReplaySource::new`]).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl AccessSource for ReplaySource {
    /// Produces the next recorded access, wrapping around at the end
    /// (the `AccessSource` contract is an endless stream; bound a
    /// replay with `take_requests(len)` for one pass).
    fn next_access(&mut self) -> TraceItem {
        let i = (self.cursor % self.items.len() as u64) as usize;
        self.cursor += 1;
        self.items[i]
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cursor);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.cursor = r.take_u64()?;
        Ok(())
    }
}

/// A completed replay: the run's metrics and its state digest.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The metric record, labeled with `label`.
    pub metrics: RunMetrics,
    /// The post-drain [`System`] digest; equal to the live run's for a
    /// faithfully recorded trace.
    pub digest: u64,
}

/// Replays `items` (one full pass) under `defense` and reports the
/// metrics plus the system digest.
///
/// # Errors
///
/// The controller error message if the memory system rejects the
/// stream.
pub fn replay_trace(
    cfg: &SimConfig,
    defense: DefenseKind,
    items: Arc<Vec<TraceItem>>,
    label: &str,
) -> Result<ReplayOutcome, String> {
    let passes = items.len() as u64;
    let source = ReplaySource::new(items);
    let mut system = System::new(cfg, defense);
    system
        .run(source.take_requests(passes))
        .map_err(|e| e.to_string())?;
    Ok(ReplayOutcome {
        digest: system.digest(),
        metrics: system.metrics(label.to_string()),
    })
}

/// `trace stat` numbers: sizes, composition, and salvage health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// On-disk v2 size in bytes.
    pub v2_bytes: u64,
    /// What the same records would occupy in the v1 text format.
    pub v1_bytes: u64,
    /// Records recovered.
    pub records: u64,
    /// Frames decoded cleanly.
    pub frames_kept: u64,
    /// Corrupt regions skipped.
    pub frames_dropped: u64,
    /// Bytes that contributed no records.
    pub bytes_quarantined: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
}

impl TraceStats {
    /// v1-text-to-v2-binary size ratio (how many times smaller v2 is).
    pub fn ratio(&self) -> f64 {
        self.v1_bytes as f64 / (self.v2_bytes as f64).max(1.0)
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "records        {} ({} reads, {} writes)",
            self.records, self.reads, self.writes
        )?;
        writeln!(
            f,
            "frames         {} kept, {} corrupt region(s), {} byte(s) quarantined",
            self.frames_kept, self.frames_dropped, self.bytes_quarantined
        )?;
        writeln!(f, "v2 bytes       {}", self.v2_bytes)?;
        writeln!(f, "v1 equivalent  {}", self.v1_bytes)?;
        write!(f, "compression    {:.2}x", self.ratio())
    }
}

/// Where two defenses' observable behavior first diverged on a shared
/// ACT stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergencePoint {
    /// 1-based access count at which the divergence was observed.
    pub access: u64,
    /// Which cumulative counter differed first (`additional_acts`,
    /// `detections`, `bit_flips`, or `nacks`).
    pub field: &'static str,
    /// Defense A's value at that point.
    pub a: u64,
    /// Defense B's value at that point.
    pub b: u64,
}

/// `trace diff` result: the same captured stream fed access-by-access
/// into two defenses, with the first observable divergence pinpointed
/// and both full metric records for delta reporting.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// First divergence, if the defenses ever disagreed.
    pub divergence: Option<DivergencePoint>,
    /// Defense A's completed metrics.
    pub a: RunMetrics,
    /// Defense B's completed metrics.
    pub b: RunMetrics,
    /// Defense A's final system digest.
    pub digest_a: u64,
    /// Defense B's final system digest.
    pub digest_b: u64,
}

fn observables(sys: &System) -> [(&'static str, u64); 4] {
    let m = sys
        .controllers()
        .iter()
        .fold((0u64, 0u64, 0u64), |(aa, det, nk), c| {
            (
                aa + c.additional_acts(),
                det + c.detections().len() as u64,
                nk + c.nacks(),
            )
        });
    [
        ("additional_acts", m.0),
        ("detections", m.1),
        ("bit_flips", sys.bit_flip_count() as u64),
        ("nacks", m.2),
    ]
}

/// Feeds one captured stream into two defenses, ACT by ACT, and reports
/// where their observable behavior (additional ACTs, detections, bit
/// flips, nacks) first diverges plus both final metric records.
///
/// # Errors
///
/// The controller error message if either system rejects the stream.
pub fn diff_trace(
    cfg: &SimConfig,
    kind_a: DefenseKind,
    kind_b: DefenseKind,
    items: Arc<Vec<TraceItem>>,
    label: &str,
) -> Result<TraceDiff, String> {
    let mut sys_a = System::new(cfg, kind_a);
    let mut sys_b = System::new(cfg, kind_b);
    let mut divergence = None;
    for (i, item) in items.iter().enumerate() {
        sys_a.feed(*item).map_err(|e| format!("{kind_a}: {e}"))?;
        sys_b.feed(*item).map_err(|e| format!("{kind_b}: {e}"))?;
        if divergence.is_none() {
            let oa = observables(&sys_a);
            let ob = observables(&sys_b);
            if let Some(((field, a), (_, b))) = oa.iter().zip(ob.iter()).find(|(x, y)| x.1 != y.1) {
                divergence = Some(DivergencePoint {
                    access: i as u64 + 1,
                    field,
                    a: *a,
                    b: *b,
                });
            }
        }
    }
    sys_a.drain().map_err(|e| format!("{kind_a}: {e}"))?;
    sys_b.drain().map_err(|e| format!("{kind_b}: {e}"))?;
    if divergence.is_none() {
        let oa = observables(&sys_a);
        let ob = observables(&sys_b);
        if let Some(((field, a), (_, b))) = oa.iter().zip(ob.iter()).find(|(x, y)| x.1 != y.1) {
            divergence = Some(DivergencePoint {
                access: items.len() as u64,
                field,
                a: *a,
                b: *b,
            });
        }
    }
    Ok(TraceDiff {
        divergence,
        a: sys_a.metrics(label.to_string()),
        b: sys_b.metrics(label.to_string()),
        digest_a: sys_a.digest(),
        digest_b: sys_b.digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cio::FaultyIo;
    use crate::runner::build_trace;
    use twice_workloads::tracev2::TraceHealth;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("twice-tracecli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_load_replay_matches_live_digest() {
        let cfg = SimConfig::fast_test();
        let dir = tmpdir("rt");
        let path = dir.join("s2.twt2");
        let tio = TraceIo::real();
        let outcome = record_trace(&tio, &cfg, &WorkloadKind::S2, 3_000, &path).unwrap();
        assert_eq!(outcome.records, 3_000);

        let loaded = load_trace(&tio, &cfg, &path).unwrap();
        assert_eq!(loaded.salvaged.health(), TraceHealth::Clean);
        let live: Vec<TraceItem> = build_trace(&cfg, &WorkloadKind::S2, 3_000).collect();
        assert_eq!(loaded.salvaged.items, live);

        let mut system = System::new(&cfg, DefenseKind::None);
        system.run(live).unwrap();
        let replayed = replay_trace(
            &cfg,
            DefenseKind::None,
            Arc::new(loaded.salvaged.items),
            "replay",
        )
        .unwrap();
        assert_eq!(replayed.digest, system.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_pinpoints_first_defense_divergence() {
        let cfg = SimConfig::fast_test();
        // S3 hammers a single row: the oracle mitigates, `none` never
        // does, so additional_acts must diverge — and a self-diff must
        // never diverge at all.
        let items: Vec<TraceItem> = build_trace(&cfg, &WorkloadKind::S3, 4_000).collect();
        let items = Arc::new(items);
        let same = diff_trace(
            &cfg,
            DefenseKind::None,
            DefenseKind::None,
            items.clone(),
            "self",
        )
        .unwrap();
        assert_eq!(
            same.divergence, None,
            "a defense cannot diverge from itself"
        );
        assert_eq!(same.digest_a, same.digest_b);

        let diff = diff_trace(&cfg, DefenseKind::None, DefenseKind::Oracle, items, "s3").unwrap();
        let d = diff.divergence.expect("oracle must act on a hammer");
        assert!(d.access > 0 && d.access <= 4_000);
        assert!(d.a != d.b, "recorded values must actually differ");
        assert!(
            diff.b.additional_acts > diff.a.additional_acts,
            "oracle issues ARRs, none does not"
        );
    }

    #[test]
    fn record_survives_storage_faults_with_retries() {
        let cfg = SimConfig::fast_test();
        let dir = tmpdir("faulty");
        let path = dir.join("s1.twt2");
        // A hostile storage layer: ENOSPC and rename failures error (and
        // are retried); torn atomic writes are silently swallowed by the
        // injector, which is exactly what the salvage reader is for.
        let faulty: Arc<dyn CampaignIo> = Arc::new(FaultyIo::with_default_plan(0xBAD5EED));
        let tio = TraceIo::new(faulty, 16, 0);
        let mut clean = 0;
        for i in 0..12u64 {
            let p = dir.join(format!("t{i}.twt2"));
            record_trace(&tio, &cfg, &WorkloadKind::S1, 600, &p).unwrap();
            let loaded = load_trace(&tio, &cfg, &p);
            // Reads can come back truncated/bit-rotted (injected), so
            // anything from Clean to Unusable is legal — but never a
            // panic and never a silent wrong decode.
            if let Ok(l) = &loaded {
                if l.salvaged.health() == TraceHealth::Clean {
                    clean += 1;
                    let live: Vec<TraceItem> = build_trace(&cfg, &WorkloadKind::S1, 600).collect();
                    assert_eq!(l.salvaged.items, live);
                }
            }
        }
        assert!(clean > 0, "some records must land clean");
        let _ = path;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_source_snapshot_round_trips() {
        let cfg = SimConfig::fast_test();
        let items: Arc<Vec<TraceItem>> =
            Arc::new(build_trace(&cfg, &WorkloadKind::S1, 64).collect());
        let mut a = ReplaySource::new(items.clone());
        for _ in 0..17 {
            a.next_access();
        }
        let mut w = SnapshotWriter::new();
        AccessSource::save_state(&a, &mut w);
        let blob = w.finish();
        let mut b = ReplaySource::new(items);
        let mut r = SnapshotReader::new(&blob).unwrap();
        AccessSource::load_state(&mut b, &mut r).unwrap();
        assert_eq!(b.position(), 17);
        for _ in 0..10 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn stats_report_compression_and_mix() {
        let cfg = SimConfig::fast_test();
        let dir = tmpdir("stats");
        let path = dir.join("mica.twt2");
        let tio = TraceIo::real();
        record_trace(&tio, &cfg, &WorkloadKind::Mica, 5_000, &path).unwrap();
        let stats = load_trace(&tio, &cfg, &path).unwrap().stats();
        assert_eq!(stats.records, 5_000);
        assert_eq!(stats.reads + stats.writes, 5_000);
        assert!(stats.writes > 0, "MICA SETs must appear");
        assert!(stats.ratio() > 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
