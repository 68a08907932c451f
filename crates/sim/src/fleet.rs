//! The supervised fleet runtime behind `twice-exp fleet`.
//!
//! A *fleet* is O(10³) independent shard simulations — each shard a
//! full channel/rank/bank system running a mixed multi-tenant workload
//! (MAPKI-calibrated benign applications plus a configurable attacker
//! fraction, see [`twice_workloads::mix::tenant_blend`]) — run as the
//! cells of one [`crate::grid`]. The design goal is **degrade, don't
//! die**: a failing shard climbs the supervision ladder (retry with
//! backoff → whole-shard restart from its last epoch checkpoint →
//! [`CellError::Quarantined`]) and the fleet completes in degraded mode
//! with a [`FleetSummary`]. Shards restart from checkpoints, so every
//! failure kind is retried ([`Retry::All`]). What is the fleet's own:
//!
//! * **Shard derivation** — every shard's config, workload, and fault
//!   plan derive from the fleet seed and the shard index alone.
//! * **Device faults** — `device_faults: Some(seed)` arms every shard
//!   with a recoverable device-level [`FaultPlan`] (stuck bank FSMs,
//!   dropped refresh windows, counter-SRAM soft errors, bus glitches),
//!   decorrelated per shard, so the fleet exercises the nack/retry and
//!   scrub defenses at scale.
//! * **Sabotage** — `dead_shards` shards fail deterministically, to
//!   exercise quarantine end to end.
//! * **The meta line** — the CRC-sealed journal (`shards.jsonl`) opens
//!   with a line that records the fleet shape. On `--resume` the
//!   recorded meta **wins over CLI flags**, so a run resumed under
//!   different knobs still converges to the original fleet's digests.
//! * **Telemetry** — completed shards fold into a prefix-ordered
//!   aggregate; every `telemetry_every` completions a cumulative row
//!   streams through a bounded channel to a consumer thread that
//!   appends `telemetry.jsonl`. When the consumer stalls, rows are
//!   coalesced (newest cumulative row wins) and drop-counted — the
//!   producer never blocks and never buffers more than one stashed row.

use crate::checkpoint::ResumableRun;
use crate::cio::StorageSummary;
use crate::config::SimConfig;
use crate::experiments::chaos;
use crate::grid::{deref_to_supervision, sim_watchdog, Attempt, Done, Grid, Supervision};
use crate::journal::{emit_line, parse_line, seal_line, unseal_line, JsonValue};
use crate::outcome::CellError;
use crate::runner::WorkloadKind;
use crate::supervisor::Retry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use twice_common::fault::{FaultKind, FaultPlan};
use twice_common::rng::SplitMix64;
use twice_obs::{Ctr, HEARTBEAT};

/// Width of the per-shard heartbeat counter block ([`HEARTBEAT`] order).
pub const HEARTBEAT_LEN: usize = HEARTBEAT.len();

/// The fleet journal file name inside a fleet directory.
pub const FLEET_JOURNAL_FILE: &str = "shards.jsonl";

/// The streamed telemetry file name inside a fleet directory.
pub const FLEET_TELEMETRY_FILE: &str = "telemetry.jsonl";

/// Schema tag on the fleet journal's meta line.
pub const FLEET_SCHEMA: &str = "twice-fleet-1";

/// Schema tag on every telemetry row.
pub const TELEMETRY_SCHEMA: &str = "twice-fleet-telemetry-1";

/// Bounded depth of the telemetry stream channel. Small on purpose:
/// backpressure is the contract under test, not a buffer to hide it.
const TELEMETRY_DEPTH: usize = 4;

/// Knobs for one fleet run: the fleet shape plus the shared supervision
/// knobs, which it derefs to (`fc.jobs`, `fc.dir`, …).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How many shard instances to run.
    pub shards: usize,
    /// Requests per shard.
    pub requests: u64,
    /// Requests per epoch (checkpoint/watchdog/sabotage granularity).
    pub epoch: u64,
    /// Attacker tenants per shard (of 16; capped at 8 by the blend).
    pub attackers: u16,
    /// The fleet seed; every shard's config, workload, and fault plan
    /// derive from it and the shard index alone.
    pub seed: u64,
    /// Arms the per-shard device fault plan with this seed.
    pub device_faults: Option<u64>,
    /// Sabotage: this many shards are made to fail deterministically
    /// (alternating injected panics and deadline overruns), exercising
    /// quarantine end to end.
    pub dead_shards: usize,
    /// Emit a telemetry row every this many prefix completions.
    pub telemetry_every: usize,
    /// Which [`HEARTBEAT`] counters telemetry rows carry. Must be a
    /// subset of [`HEARTBEAT`]: those are the counters whose per-shard
    /// deltas are pure functions of the shard seed, which is what keeps
    /// rows byte-identical across `--jobs` values.
    pub heartbeat: Vec<Ctr>,
    /// Directory, workers, retries, budgets, halt, storage layer. The
    /// directory also holds `telemetry.jsonl`.
    pub sup: Supervision,
}

deref_to_supervision!(FleetConfig);

impl FleetConfig {
    /// An in-memory fleet of `shards` shards with the smoke-test
    /// defaults: 2000 requests per shard, 1024-request epochs, two
    /// attacker tenants, the default [`Supervision`].
    pub fn new(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            requests: 2_000,
            epoch: 1_024,
            attackers: 2,
            seed: 0x1EE7,
            device_faults: None,
            dead_shards: 0,
            telemetry_every: 16,
            heartbeat: HEARTBEAT.to_vec(),
            sup: Supervision::default(),
        }
    }
}

/// A completed shard's aggregate counters, as journaled and fed to
/// telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests simulated.
    pub requests: u64,
    /// Normal (demand + refresh-policy) row activations.
    pub normal_acts: u64,
    /// Additional activations the defense issued (ARRs, scrubbing).
    pub additional_acts: u64,
    /// Row-hammer detections.
    pub detections: u64,
    /// Nacked commands (ARR-in-progress plus injected).
    pub nacks: u64,
    /// Victim bit flips that escaped the defense (0 in a healthy run).
    pub bit_flips: u64,
    /// Device faults injected across the shard's engine, RCD, and MC.
    pub device_faults: u64,
    /// Final simulated time, in picoseconds.
    pub sim_ps: u64,
    /// p99 request latency, in picoseconds.
    pub p99_ps: u64,
    /// [`HEARTBEAT`] counter deltas observed while the shard ran on its
    /// worker thread (zero under `obs-off`). For a from-scratch shard
    /// these are pure functions of the shard seed; a shard restored
    /// from an epoch checkpoint only re-counts the epochs it replays.
    pub obs: [u64; HEARTBEAT_LEN],
    /// The shard's final state digest (bit-for-bit resume oracle).
    pub digest: u64,
}

/// One shard's result (`index` is the shard index): completed stats, or
/// the supervision ladder's terminal error.
pub type ShardOutcome = Done<ShardStats>;

/// The fleet-wide aggregate, printed to stderr when the fleet degrades.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Shards the fleet was asked to run.
    pub shards: usize,
    /// Shards that completed (fresh or salvaged).
    pub completed: usize,
    /// Shards quarantined by the supervisor.
    pub quarantined: usize,
    /// Total requests across completed shards.
    pub requests: u64,
    /// Total normal activations across completed shards.
    pub normal_acts: u64,
    /// Total additional (defense) activations.
    pub additional_acts: u64,
    /// Total row-hammer detections.
    pub detections: u64,
    /// Total nacked commands.
    pub nacks: u64,
    /// Total escaped bit flips.
    pub bit_flips: u64,
    /// Total injected device faults.
    pub device_faults: u64,
    /// Telemetry rows rendered.
    pub telemetry_rows: u64,
    /// Telemetry rows coalesced away by backpressure.
    pub telemetry_coalesced: u64,
}

impl fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet shards={} completed={} quarantined={} requests={} \
             detections={} additional_acts={} nacks={} device_faults={} \
             bit_flips={} telemetry_rows={} coalesced={}",
            self.shards,
            self.completed,
            self.quarantined,
            self.requests,
            self.detections,
            self.additional_acts,
            self.nacks,
            self.device_faults,
            self.bit_flips,
            self.telemetry_rows,
            self.telemetry_coalesced,
        )
    }
}

/// A finished (or halted) fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard outcomes in index order (partial if halted).
    pub shards: Vec<ShardOutcome>,
    /// The fleet-wide aggregate.
    pub summary: FleetSummary,
    /// Every telemetry row rendered this run, in emission order (the
    /// streamed file may hold fewer under backpressure).
    pub telemetry: Vec<String>,
    /// Whether `halt_after` stopped the fleet early.
    pub halted: bool,
    /// Shards salvaged from the journal instead of (re)run.
    pub salvaged: usize,
    /// The storage recovery ledger for the run.
    pub storage: StorageSummary,
}

/// How a dead shard is sabotaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sabotage {
    /// Panic at this epoch boundary, before the checkpoint is written,
    /// so every restart re-fails deterministically.
    Panic { at_epoch: u64 },
    /// Deterministic deadline overrun: the shard runs under a 1 ps
    /// simulated-time budget, so its first epoch boundary trips the
    /// watchdog without burning host wall-clock.
    Deadline,
}

/// The recoverable device-level fault plan `--device-faults` arms:
/// counter-SRAM soft errors (transient and stuck bits), stuck bank
/// FSMs, dropped and postponed refresh windows, spurious nacks, and
/// bus timing jitter. Every kind is absorbed by a defense layer
/// (scrub, nack/retry, ARR) — a fleet run under this plan alone must
/// quarantine nothing.
pub fn default_device_plan(seed: u64) -> FaultPlan {
    FaultPlan::with_seed(seed)
        .rate(FaultKind::CounterBitFlip, 1e-3)
        .rate(FaultKind::CounterStuckBit, 5e-4)
        .rate(FaultKind::SpuriousNack, 5e-3)
        .rate(FaultKind::TimingJitter, 5e-3)
        .rate(FaultKind::RefreshPostpone, 2e-3)
        .rate(FaultKind::RefreshDrop, 1e-2)
        .rate(FaultKind::BankStuck, 2e-3)
}

/// SplitMix finalization of `(seed, index)`: the single source of every
/// per-shard stream, so shard `i`'s behavior is a pure function of the
/// fleet meta — independent of `jobs`, scheduling, and resume.
fn shard_salt(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn shard_config(fc: &FleetConfig, index: usize) -> SimConfig {
    let mut cfg = SimConfig::fast_test();
    cfg.seed = shard_salt(fc.seed, index);
    cfg.twice_scrubbing = true;
    cfg.para_fallback = Some(0.01);
    if let Some(ds) = fc.device_faults {
        let mut plan = default_device_plan(ds);
        plan.seed = shard_salt(ds, index);
        cfg.fault_plan = plan;
    }
    cfg
}

fn shard_workload(fc: &FleetConfig, index: usize) -> WorkloadKind {
    WorkloadKind::FleetMix {
        attackers: fc.attackers,
        salt: index as u64,
    }
}

/// The shard's checkpoint identity: index plus fleet seed, so a
/// checkpoint from a differently-seeded fleet sharing the directory is
/// `Foreign`, never adopted.
fn shard_id(fc: &FleetConfig, index: usize) -> String {
    format!("shard-{index:04}/{:016x}", fc.seed)
}

/// Picks the sabotaged shard set: `dead_shards` distinct indices drawn
/// from the device seed (or the fleet seed), alternating panic and
/// deadline sabotage in draw order.
fn dead_map(fc: &FleetConfig) -> HashMap<usize, Sabotage> {
    let mut out = HashMap::new();
    let k = fc.dead_shards.min(fc.shards);
    if k == 0 {
        return out;
    }
    let mut rng = SplitMix64::new(fc.device_faults.unwrap_or(fc.seed) ^ 0xDEAD_5EED);
    while out.len() < k {
        let index = rng.next_below(fc.shards as u64) as usize;
        let sabotage = if out.len() % 2 == 0 {
            Sabotage::Panic { at_epoch: 1 }
        } else {
            Sabotage::Deadline
        };
        if let std::collections::hash_map::Entry::Vacant(e) = out.entry(index) {
            e.insert(sabotage);
        }
    }
    out
}

/// One attempt at shard `index`: restore its last epoch checkpoint if
/// one exists (the supervisor's restart rung), then run epoch by epoch
/// with the sabotage hook ahead of the watchdogs and the checkpoint.
fn run_shard(
    attempt: &Attempt<'_>,
    fc: &FleetConfig,
    index: usize,
    sabotage: Option<Sabotage>,
) -> Result<ShardStats, CellError> {
    // The shard's heartbeat block is the thread-local counter delta
    // across this attempt — same worker thread throughout, so the delta
    // never picks up another shard's work.
    let obs_before = twice_obs::local_counters();
    let cfg = shard_config(fc, index);
    let workload = shard_workload(fc, index);
    let epoch = fc.epoch.max(1);
    let (run, exhausted) = attempt.run_epochs(
        &shard_id(fc, index),
        epoch,
        || ResumableRun::new(&cfg, &workload, chaos::chaos_defense(), fc.requests),
        |run| match sabotage {
            // Before the checkpoint write: a restart replays this epoch
            // and panics again, so sabotage stays terminal even when the
            // whole run fits in one epoch.
            Some(Sabotage::Panic { at_epoch }) => {
                let epochs = run.requests_done().div_ceil(epoch);
                if epochs >= at_epoch {
                    panic!("injected shard panic at epoch {epochs}");
                }
                Ok(())
            }
            Some(Sabotage::Deadline) => sim_watchdog(Some(1), run.system(), run.requests_done()),
            None => Ok(()),
        },
    )?;
    if let Some(e) = exhausted {
        return Err(CellError::RetryExhausted(format!("controller: {e}")));
    }
    let mut stats = collect_stats(&run);
    let obs_after = twice_obs::local_counters();
    for (slot, c) in HEARTBEAT.iter().enumerate() {
        stats.obs[slot] = obs_after[*c as usize].saturating_sub(obs_before[*c as usize]);
    }
    Ok(stats)
}

fn collect_stats(run: &ResumableRun) -> ShardStats {
    let sys = run.system();
    let m = sys.metrics("fleet");
    let device_faults = sys
        .controllers()
        .iter()
        .map(|c| {
            c.defense_faults_injected()
                + c.rcd().fault_injector().injected_total()
                + c.fault_injector().injected_total()
        })
        .sum();
    ShardStats {
        requests: m.requests,
        normal_acts: m.normal_acts,
        additional_acts: m.additional_acts,
        detections: m.detections,
        nacks: m.nacks,
        bit_flips: m.bit_flips as u64,
        device_faults,
        sim_ps: m.sim_time.as_ps(),
        p99_ps: m.latency_p99.as_ps(),
        obs: [0; HEARTBEAT_LEN],
        digest: run.digest(),
    }
}

// ---------------------------------------------------------------------
// Telemetry: prefix-ordered aggregation, bounded streaming.
// ---------------------------------------------------------------------

#[derive(Default)]
struct TelemetryState {
    /// Outcomes that completed ahead of the prefix cursor. `None`
    /// marks a quarantined shard (counted, contributing no stats).
    pending: BTreeMap<usize, Option<ShardStats>>,
    next: usize,
    done: u64,
    quarantined: u64,
    requests: u64,
    normal_acts: u64,
    additional_acts: u64,
    detections: u64,
    nacks: u64,
    device_faults: u64,
    sim_ps: u64,
    /// Max of the completed shards' per-shard p99s. That max is an
    /// **upper bound** on the fleet-wide p99, not the p99 itself (the
    /// true quantile of the pooled latency population can only be
    /// lower), so the row field is named `latency_p99_upper_ps`.
    p99_upper_ps: u64,
    /// Cumulative [`HEARTBEAT`] counter deltas across completed shards.
    obs: [u64; HEARTBEAT_LEN],
    coalesced: u64,
    stash: Option<String>,
    last_emit: u64,
    rows: Vec<String>,
}

/// The fleet telemetry aggregator.
///
/// Shards submit their outcome exactly once, in any order; the
/// aggregator folds them **in index order** (a `BTreeMap` holds
/// out-of-order completions until the prefix cursor reaches them), so
/// row *content* is a pure function of the fleet meta — identical
/// across `jobs` values and resumes. Rows are cumulative: each row
/// supersedes the previous, which is what makes coalescing sound.
struct Telemetry {
    every: u64,
    tx: SyncSender<String>,
    /// The [`HEARTBEAT`] subset each row carries, in caller order.
    heartbeat: Vec<Ctr>,
    state: Mutex<TelemetryState>,
}

fn render_row(st: &TelemetryState, heartbeat: &[Ctr]) -> String {
    // Integer-scaled rates (the journal codec is float-free):
    // detections per simulated second, and defense (additional) ACTs
    // per thousand normal ACTs.
    let det_per_sim_s = st
        .detections
        .saturating_mul(1_000_000_000_000)
        .checked_div(st.sim_ps.max(1))
        .unwrap_or(0);
    let arr_per_kact = st
        .additional_acts
        .saturating_mul(1_000)
        .checked_div(st.normal_acts.max(1))
        .unwrap_or(0);
    let mut fields = vec![
        ("schema", JsonValue::Str(TELEMETRY_SCHEMA.to_string())),
        ("shards_done", JsonValue::U64(st.done)),
        ("quarantined", JsonValue::U64(st.quarantined)),
        ("requests", JsonValue::U64(st.requests)),
        ("detections", JsonValue::U64(st.detections)),
        ("det_per_sim_s", JsonValue::U64(det_per_sim_s)),
        ("arr_per_kact", JsonValue::U64(arr_per_kact)),
        ("nacks", JsonValue::U64(st.nacks)),
        ("latency_p99_upper_ps", JsonValue::U64(st.p99_upper_ps)),
        ("device_faults", JsonValue::U64(st.device_faults)),
    ];
    for c in heartbeat {
        let slot = HEARTBEAT
            .iter()
            .position(|h| h == c)
            .expect("heartbeat selections are validated against HEARTBEAT");
        fields.push((c.key(), JsonValue::U64(st.obs[slot])));
    }
    fields.push(("coalesced", JsonValue::U64(st.coalesced)));
    seal_line(&emit_line(&fields))
}

impl Telemetry {
    fn new(every: u64, tx: SyncSender<String>, heartbeat: Vec<Ctr>) -> Telemetry {
        Telemetry {
            every: every.max(1),
            tx,
            heartbeat,
            state: Mutex::new(TelemetryState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TelemetryState> {
        // A worker that panicked while holding the lock poisons it;
        // telemetry must keep flowing for the surviving shards.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records shard `index`'s outcome (`None` = quarantined) and
    /// advances the prefix cursor, emitting a cumulative row at every
    /// `every`-th completion.
    fn submit(&self, index: usize, stats: Option<&ShardStats>) {
        let mut st = self.lock();
        st.pending.insert(index, stats.cloned());
        while let Some(outcome) = {
            let next = st.next;
            st.pending.remove(&next)
        } {
            st.next += 1;
            st.done += 1;
            match outcome {
                Some(s) => {
                    st.requests += s.requests;
                    st.normal_acts += s.normal_acts;
                    st.additional_acts += s.additional_acts;
                    st.detections += s.detections;
                    st.nacks += s.nacks;
                    st.device_faults += s.device_faults;
                    st.sim_ps += s.sim_ps;
                    st.p99_upper_ps = st.p99_upper_ps.max(s.p99_ps);
                    for (slot, v) in s.obs.iter().enumerate() {
                        st.obs[slot] += v;
                    }
                }
                None => st.quarantined += 1,
            }
            if st.done.is_multiple_of(self.every) {
                let row = render_row(&st, &self.heartbeat);
                self.push(&mut st, row);
                st.last_emit = st.done;
            }
        }
    }

    /// The non-blocking stream side. The row always lands in the
    /// canonical in-memory sequence; on the channel it is sent with
    /// `try_send` — a full channel stashes it (newest cumulative row
    /// wins, the superseded one is drop-counted), a disconnected
    /// channel (no consumer) discards silently.
    fn push(&self, st: &mut TelemetryState, row: String) {
        st.rows.push(row.clone());
        if let Some(stashed) = st.stash.take() {
            match self.tx.try_send(stashed) {
                Ok(()) => {}
                Err(TrySendError::Full(s)) => st.stash = Some(s),
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
        if st.stash.is_some() {
            st.stash = Some(row);
            st.coalesced += 1;
        } else {
            match self.tx.try_send(row) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => {}
                Err(TrySendError::Full(r)) => st.stash = Some(r),
            }
        }
    }

    /// Emits the final cumulative row (unless the last periodic row
    /// already covers every completion), gives a stalled consumer a
    /// bounded grace period to drain the stash, and returns the
    /// canonical row sequence plus the coalesced-row count.
    fn finish(&self) -> (Vec<String>, u64) {
        let mut st = self.lock();
        if st.rows.is_empty() || st.last_emit != st.done {
            let row = render_row(&st, &self.heartbeat);
            self.push(&mut st, row);
            st.last_emit = st.done;
        }
        for _ in 0..50 {
            let Some(stashed) = st.stash.take() else {
                break;
            };
            match self.tx.try_send(stashed) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => break,
                Err(TrySendError::Full(s)) => {
                    st.stash = Some(s);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        if st.stash.take().is_some() {
            st.coalesced += 1;
        }
        (st.rows.clone(), st.coalesced)
    }
}

fn spawn_consumer(
    sup: Supervision,
    path: PathBuf,
    rx: Receiver<String>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut written = 0u64;
        for row in rx {
            let _io_span = twice_obs::span(twice_obs::SpanId::SimJournalIo);
            twice_obs::bump(twice_obs::Ctr::SimJournalAppends);
            if sup.retry_io(|| sup.io.append_line(&path, &row)).is_ok() {
                written += 1;
            }
        }
        written
    })
}

// ---------------------------------------------------------------------
// The fleet journal: one sealed meta line, then one line per shard.
// ---------------------------------------------------------------------

/// The recorded fleet shape. On resume these values override the CLI
/// flags, so the resumed run reproduces the original fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FleetMeta {
    shards: usize,
    requests: u64,
    epoch: u64,
    seed: u64,
    attackers: u16,
    device_faults: Option<u64>,
    dead_shards: usize,
}

impl FleetMeta {
    fn of(fc: &FleetConfig) -> FleetMeta {
        FleetMeta {
            shards: fc.shards,
            requests: fc.requests,
            epoch: fc.epoch,
            seed: fc.seed,
            attackers: fc.attackers,
            device_faults: fc.device_faults,
            dead_shards: fc.dead_shards,
        }
    }

    fn apply(&self, fc: &mut FleetConfig) {
        fc.shards = self.shards;
        fc.requests = self.requests;
        fc.epoch = self.epoch;
        fc.seed = self.seed;
        fc.attackers = self.attackers;
        fc.device_faults = self.device_faults;
        fc.dead_shards = self.dead_shards;
    }
}

fn meta_line(m: &FleetMeta) -> String {
    seal_line(&emit_line(&[
        ("schema", JsonValue::Str(FLEET_SCHEMA.to_string())),
        ("shards", JsonValue::U64(m.shards as u64)),
        ("requests", JsonValue::U64(m.requests)),
        ("epoch", JsonValue::U64(m.epoch)),
        ("seed", JsonValue::U64(m.seed)),
        ("attackers", JsonValue::U64(u64::from(m.attackers))),
        (
            "device_faults_set",
            JsonValue::Bool(m.device_faults.is_some()),
        ),
        (
            "device_faults",
            JsonValue::U64(m.device_faults.unwrap_or(0)),
        ),
        ("dead_shards", JsonValue::U64(m.dead_shards as u64)),
    ]))
}

fn shard_line(index: usize, id: &str, s: &ShardStats) -> String {
    let mut fields = vec![
        ("shard", JsonValue::U64(index as u64)),
        ("id", JsonValue::Str(id.to_string())),
        ("requests", JsonValue::U64(s.requests)),
        ("normal_acts", JsonValue::U64(s.normal_acts)),
        ("additional_acts", JsonValue::U64(s.additional_acts)),
        ("detections", JsonValue::U64(s.detections)),
        ("nacks", JsonValue::U64(s.nacks)),
        ("bit_flips", JsonValue::U64(s.bit_flips)),
        ("device_faults", JsonValue::U64(s.device_faults)),
        ("sim_ps", JsonValue::U64(s.sim_ps)),
        ("p99_ps", JsonValue::U64(s.p99_ps)),
    ];
    // The heartbeat block is journaled so a salvaged shard's telemetry
    // contribution matches the run that produced it byte-for-byte.
    for (slot, c) in HEARTBEAT.iter().enumerate() {
        fields.push((c.key(), JsonValue::U64(s.obs[slot])));
    }
    fields.push(("digest", JsonValue::U64(s.digest)));
    seal_line(&emit_line(&fields))
}

enum FleetLine {
    Meta(FleetMeta),
    Shard(usize, ShardStats),
}

fn parse_fleet_line(line: &str) -> Option<FleetLine> {
    let line = unseal_line(line)?;
    let map = parse_line(&line).ok()?;
    if let Some(schema) = map.get("schema") {
        if schema.as_str()? != FLEET_SCHEMA {
            return None;
        }
        let device_faults = if map.get("device_faults_set")?.as_bool()? {
            Some(map.get("device_faults")?.as_u64()?)
        } else {
            None
        };
        return Some(FleetLine::Meta(FleetMeta {
            shards: usize::try_from(map.get("shards")?.as_u64()?).ok()?,
            requests: map.get("requests")?.as_u64()?,
            epoch: map.get("epoch")?.as_u64()?,
            seed: map.get("seed")?.as_u64()?,
            attackers: u16::try_from(map.get("attackers")?.as_u64()?).ok()?,
            device_faults,
            dead_shards: usize::try_from(map.get("dead_shards")?.as_u64()?).ok()?,
        }));
    }
    let index = usize::try_from(map.get("shard")?.as_u64()?).ok()?;
    let mut obs = [0u64; HEARTBEAT_LEN];
    for (slot, c) in HEARTBEAT.iter().enumerate() {
        obs[slot] = map.get(c.key())?.as_u64()?;
    }
    let stats = ShardStats {
        requests: map.get("requests")?.as_u64()?,
        normal_acts: map.get("normal_acts")?.as_u64()?,
        additional_acts: map.get("additional_acts")?.as_u64()?,
        detections: map.get("detections")?.as_u64()?,
        nacks: map.get("nacks")?.as_u64()?,
        bit_flips: map.get("bit_flips")?.as_u64()?,
        device_faults: map.get("device_faults")?.as_u64()?,
        sim_ps: map.get("sim_ps")?.as_u64()?,
        p99_ps: map.get("p99_ps")?.as_u64()?,
        obs,
        digest: map.get("digest")?.as_u64()?,
    };
    Some(FleetLine::Shard(index, stats))
}

// ---------------------------------------------------------------------
// The fleet runner.
// ---------------------------------------------------------------------

/// Runs the fleet on the grid runner: every shard isolated behind the
/// [`Retry::All`] supervision ladder, journal and telemetry flowing
/// through bounded, never-blocking paths, and a degraded
/// (quarantine-carrying) run completing with a full [`FleetReport`]
/// instead of aborting.
///
/// # Errors
///
/// Only unrecoverable setup I/O: the fleet directory cannot be created
/// or the journal cannot be read at all.
pub fn run_fleet(fc: &FleetConfig) -> std::io::Result<FleetReport> {
    let (grid, lines) = Grid::open(&fc.sup, FLEET_JOURNAL_FILE, parse_fleet_line)?;
    let mut meta = None;
    let mut journaled = HashMap::new();
    for line in lines {
        match line {
            FleetLine::Meta(m) => {
                meta.get_or_insert(m);
            }
            FleetLine::Shard(index, stats) => {
                journaled.insert(index, stats);
            }
        }
    }

    // The recorded fleet shape wins over the caller's knobs: a resume
    // under different flags (even a different device-fault seed) still
    // reproduces the original fleet, which is what makes per-shard
    // digests byte-stable across kill/resume cycles.
    let mut fc_eff = fc.clone();
    match &meta {
        Some(m) => m.apply(&mut fc_eff),
        // A meta line lost to a failing disk is counted on the ledger;
        // a later resume then runs under its own flags.
        None => {
            let _ = grid.append(&meta_line(&FleetMeta::of(&fc_eff)));
        }
    }
    let fc_eff = &fc_eff;

    let (tx, rx) = sync_channel(TELEMETRY_DEPTH);
    let telemetry = Telemetry::new(fc_eff.telemetry_every as u64, tx, fc_eff.heartbeat.clone());
    let consumer = match &fc.dir {
        Some(dir) => {
            let path = dir.join(FLEET_TELEMETRY_FILE);
            if !fc.resume {
                let _ = fc.io.remove_file(&path);
            }
            Some(spawn_consumer(fc.sup.clone(), path, rx))
        }
        None => {
            drop(rx);
            None
        }
    };

    let dead = dead_map(fc_eff);
    let indices: Vec<usize> = (0..fc_eff.shards).collect();
    let shards = grid.run(
        &indices,
        Retry::All,
        |index| journaled.get(index).cloned(),
        |attempt, &index| run_shard(attempt, fc_eff, index, dead.get(&index).copied()),
        |&index, s| shard_line(index, &shard_id(fc_eff, index), s),
        |index, result| telemetry.submit(index, result.ok()),
    );
    let (rows, coalesced) = telemetry.finish();
    drop(telemetry); // closes the channel; the consumer drains and exits
    if let Some(handle) = consumer {
        let _ = handle.join();
    }

    let salvaged = shards.iter().filter(|s| s.salvaged).count();
    let mut summary = FleetSummary {
        shards: fc_eff.shards,
        telemetry_rows: rows.len() as u64,
        telemetry_coalesced: coalesced,
        ..FleetSummary::default()
    };
    for o in &shards {
        match &o.result {
            Ok(s) => {
                summary.completed += 1;
                summary.requests += s.requests;
                summary.normal_acts += s.normal_acts;
                summary.additional_acts += s.additional_acts;
                summary.detections += s.detections;
                summary.nacks += s.nacks;
                summary.bit_flips += s.bit_flips;
                summary.device_faults += s.device_faults;
            }
            Err(_) => summary.quarantined += 1,
        }
    }
    Ok(FleetReport {
        shards,
        summary,
        telemetry: rows,
        halted: grid.halted(),
        salvaged,
        storage: grid.storage(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(shards: usize) -> FleetConfig {
        let mut fc = FleetConfig::new(shards);
        fc.requests = 300;
        fc.epoch = 128;
        fc.telemetry_every = 2;
        fc
    }

    #[test]
    fn a_small_fleet_completes_cleanly() {
        let fc = small_fleet(6);
        let r = run_fleet(&fc).expect("fleet");
        assert_eq!(r.summary.completed, 6);
        assert_eq!(r.summary.quarantined, 0);
        assert_eq!(r.summary.requests, 6 * 300);
        assert!(r.shards.iter().all(|s| s.result.is_ok()));
        assert!(!r.telemetry.is_empty());
        assert!(!r.halted);
    }

    #[test]
    fn fleet_results_are_identical_across_jobs() {
        let serial = run_fleet(&small_fleet(8)).expect("serial");
        let mut fc = small_fleet(8);
        fc.jobs = 4;
        let pooled = run_fleet(&fc).expect("pooled");
        let digests = |r: &FleetReport| -> Vec<Option<u64>> {
            r.shards
                .iter()
                .map(|s| s.result.as_ref().ok().map(|st| st.digest))
                .collect()
        };
        assert_eq!(digests(&serial), digests(&pooled));
        assert_eq!(serial.telemetry, pooled.telemetry);
        assert_eq!(serial.summary, pooled.summary);
    }

    #[test]
    fn dead_shards_quarantine_and_the_fleet_degrades() {
        let mut fc = small_fleet(6);
        fc.dead_shards = 2;
        fc.retries = 2;
        let r = run_fleet(&fc).expect("fleet");
        assert_eq!(r.summary.quarantined, 2);
        assert_eq!(r.summary.completed, 4);
        for s in &r.shards {
            if let Err(e) = &s.result {
                assert!(
                    matches!(e, CellError::Quarantined { attempts: 2, .. }),
                    "{e}"
                );
            }
        }
        // Sabotage alternates: one panic, one deadline overrun.
        let causes: Vec<String> = r
            .shards
            .iter()
            .filter_map(|s| s.result.as_ref().err())
            .map(|e| e.to_string())
            .collect();
        assert!(
            causes.iter().any(|c| c.contains("injected shard panic")),
            "{causes:?}"
        );
        assert!(
            causes.iter().any(|c| c.contains("sim-time budget")),
            "{causes:?}"
        );
    }

    #[test]
    fn device_faults_fire_and_stay_recoverable() {
        let mut fc = small_fleet(4);
        fc.requests = 2_000;
        fc.device_faults = Some(0xD5);
        let r = run_fleet(&fc).expect("fleet");
        assert_eq!(
            r.summary.quarantined, 0,
            "device plan must stay recoverable"
        );
        assert!(r.summary.device_faults > 0, "the plan must actually fire");
    }

    #[test]
    fn telemetry_backpressure_coalesces_instead_of_blocking() {
        let (tx, rx) = sync_channel(1);
        let t = Telemetry::new(1, tx, HEARTBEAT.to_vec());
        let stats = ShardStats {
            requests: 1,
            normal_acts: 1,
            additional_acts: 0,
            detections: 0,
            nacks: 0,
            bit_flips: 0,
            device_faults: 0,
            sim_ps: 1,
            p99_ps: 0,
            obs: [0; HEARTBEAT_LEN],
            digest: 0,
        };
        // Nobody drains `rx`: after the single buffered row, every
        // newer row must coalesce, never block.
        for i in 0..10 {
            t.submit(i, Some(&stats));
        }
        let (rows, coalesced) = t.finish();
        assert_eq!(rows.len(), 10, "the canonical sequence keeps every row");
        assert!(coalesced > 0, "a stalled consumer must cost coalesced rows");
        assert!(coalesced < 10, "the first row fit the channel");
        let streamed = rx.try_recv().expect("the buffered row");
        assert_eq!(streamed, rows[0]);
    }

    #[test]
    fn telemetry_rows_parse_and_carry_the_schema() {
        let fc = small_fleet(4);
        let r = run_fleet(&fc).expect("fleet");
        for row in &r.telemetry {
            let line = unseal_line(row).expect("sealed row");
            let map = parse_line(&line).expect("parseable row");
            assert_eq!(map["schema"].as_str(), Some(TELEMETRY_SCHEMA));
            assert!(map["shards_done"].as_u64().is_some());
        }
        let last = r.telemetry.last().expect("final row");
        let map = parse_line(&unseal_line(last).unwrap()).unwrap();
        assert_eq!(map["shards_done"].as_u64(), Some(4));
    }

    #[test]
    fn telemetry_rows_carry_the_heartbeat_counters() {
        let fc = small_fleet(4);
        let r = run_fleet(&fc).expect("fleet");
        let last = r.telemetry.last().expect("final row");
        let map = parse_line(&unseal_line(last).unwrap()).unwrap();
        for c in HEARTBEAT {
            assert!(map.contains_key(c.key()), "row must carry {}", c.name());
        }
        assert!(map.contains_key("latency_p99_upper_ps"));
        assert!(!map.contains_key("latency_p99_ps"), "old field renamed");
        // With probes compiled in, four completed shards must have
        // observed activations and epochs.
        #[cfg(not(feature = "obs-off"))]
        {
            assert!(map["core_acts"].as_u64().unwrap() > 0);
            assert!(map["sim_epochs"].as_u64().unwrap() >= 4);
        }
    }

    #[test]
    fn the_heartbeat_selection_filters_row_counters() {
        let mut fc = small_fleet(4);
        fc.heartbeat = vec![Ctr::SimEpochs];
        let r = run_fleet(&fc).expect("fleet");
        let last = r.telemetry.last().expect("final row");
        let map = parse_line(&unseal_line(last).unwrap()).unwrap();
        assert!(map.contains_key("sim_epochs"));
        assert!(!map.contains_key("core_acts"));
        assert!(!map.contains_key("dram_bank_transitions"));
    }

    #[test]
    fn meta_and_shard_lines_round_trip() {
        let m = FleetMeta {
            shards: 64,
            requests: 2_000,
            epoch: 1_024,
            seed: 0xFEED,
            attackers: 3,
            device_faults: Some(0xD5),
            dead_shards: 2,
        };
        match parse_fleet_line(&meta_line(&m)) {
            Some(FleetLine::Meta(parsed)) => assert_eq!(parsed, m),
            _ => panic!("meta line must round trip"),
        }
        let s = ShardStats {
            requests: 2_000,
            normal_acts: 1_900,
            additional_acts: 12,
            detections: 3,
            nacks: 5,
            bit_flips: 0,
            device_faults: 7,
            sim_ps: 123_456_789,
            p99_ps: 99_000,
            obs: [7, 6, 5, 4, 3, 2],
            digest: 0xDEAD_BEEF,
        };
        match parse_fleet_line(&shard_line(17, "shard-0017/cafe", &s)) {
            Some(FleetLine::Shard(index, parsed)) => {
                assert_eq!(index, 17);
                assert_eq!(parsed, s);
            }
            _ => panic!("shard line must round trip"),
        }
    }

    #[test]
    fn dead_map_is_deterministic_and_alternates() {
        let mut fc = FleetConfig::new(100);
        fc.dead_shards = 6;
        fc.device_faults = Some(0xAB);
        let a = dead_map(&fc);
        let b = dead_map(&fc);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.values().any(|s| matches!(s, Sabotage::Panic { .. })));
        assert!(a.values().any(|s| matches!(s, Sabotage::Deadline)));
    }
}
