//! Epoch-based resumable runs: periodic digests, on-disk checkpoints,
//! and bit-exact restore.
//!
//! A [`ResumableRun`] owns a [`System`] plus the workload generator that
//! feeds it, and advances in *epochs* of N requests. At any epoch
//! boundary the whole mutable state — controller queues, DRAM FSMs,
//! defense tables, RNG cursors — serializes to a self-contained blob
//! ([`ResumableRun::checkpoint`]) whose trailing [`StateDigest`] is
//! recomputed on restore: a checkpoint that does not reconstruct the
//! exact state it was taken from is rejected, never silently loaded.
//! Replaying the remaining trace suffix from a restored run therefore
//! must reproduce the uninterrupted run's final digest, which turns any
//! hidden nondeterminism into a hard test failure (see
//! `crates/sim/tests/digest_replay.rs`).

use crate::cio::CampaignIo;
use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::outcome::CellError;
use crate::runner::{try_build_source, WorkloadKind};
use crate::system::System;
use std::path::Path;
use twice_common::snapshot::{
    Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StateDigest,
};
use twice_memctrl::resilience::ControllerError;
use twice_mitigations::DefenseKind;
use twice_workloads::AccessSource;

/// A checkpointable workload × defense run that advances in epochs.
pub struct ResumableRun {
    workload_label: String,
    defense_label: String,
    seed: u64,
    system: System,
    source: Box<dyn AccessSource + Send>,
    total: u64,
    done: u64,
    complete: bool,
}

impl std::fmt::Debug for ResumableRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumableRun")
            .field("workload", &self.workload_label)
            .field("defense", &self.defense_label)
            .field("done", &self.done)
            .field("total", &self.total)
            .finish()
    }
}

impl ResumableRun {
    /// Prepares a fresh run of `workload` under `defense` for `total`
    /// requests on `cfg`.
    ///
    /// # Errors
    ///
    /// [`CellError::InvalidConfig`] or [`CellError::UnknownApp`].
    pub fn new(
        cfg: &SimConfig,
        workload: &WorkloadKind,
        defense: DefenseKind,
        total: u64,
    ) -> Result<ResumableRun, CellError> {
        cfg.validate()
            .map_err(|e| CellError::InvalidConfig(e.to_string()))?;
        let source = try_build_source(cfg, workload)?;
        Ok(ResumableRun {
            workload_label: workload.to_string(),
            defense_label: defense.to_string(),
            seed: cfg.seed,
            system: System::new(cfg, defense),
            source,
            total,
            done: 0,
            complete: false,
        })
    }

    /// Rebuilds a run from a [`checkpoint`](ResumableRun::checkpoint)
    /// blob. The configuration arguments must match the run that took
    /// the checkpoint; the blob's stored digest is recomputed from the
    /// reconstructed state and any mismatch is a hard error.
    ///
    /// # Errors
    ///
    /// [`CellError::BadCheckpoint`] on checksum, shape, label, seed, or
    /// digest mismatches.
    pub fn restore(
        cfg: &SimConfig,
        workload: &WorkloadKind,
        defense: DefenseKind,
        total: u64,
        blob: &[u8],
    ) -> Result<ResumableRun, CellError> {
        let mut run = ResumableRun::new(cfg, workload, defense, total)?;
        run.load(blob)?;
        Ok(run)
    }

    /// Overwrites this fresh run's state with a
    /// [`checkpoint`](ResumableRun::checkpoint) blob, under the same
    /// checks as [`ResumableRun::restore`]. On error the run is left
    /// half-loaded and must be discarded.
    ///
    /// # Errors
    ///
    /// As for [`ResumableRun::restore`].
    pub(crate) fn load(&mut self, blob: &[u8]) -> Result<(), CellError> {
        let mut r =
            SnapshotReader::new(blob).map_err(|e| CellError::BadCheckpoint(e.to_string()))?;
        self.load_state(&mut r)
            .map_err(|e| CellError::BadCheckpoint(e.to_string()))
    }

    /// Feeds up to `epoch` further requests; once the trace is
    /// exhausted, drains all queues and marks the run complete. Returns
    /// whether the run is now complete.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] under fault injection.
    pub fn run_epoch(&mut self, epoch: u64) -> Result<bool, ControllerError> {
        let _epoch_span = twice_obs::span(twice_obs::SpanId::SimEpoch);
        twice_obs::bump(twice_obs::Ctr::SimEpochs);
        let n = epoch.min(self.total - self.done);
        for _ in 0..n {
            let item = self.source.next_access();
            self.system.feed(item)?;
        }
        self.done += n;
        if self.done >= self.total {
            self.system.drain()?;
            self.complete = true;
        }
        Ok(self.complete)
    }

    /// Runs epochs of `epoch` requests until complete.
    ///
    /// # Errors
    ///
    /// As for [`ResumableRun::run_epoch`].
    pub fn run_to_completion(&mut self, epoch: u64) -> Result<(), ControllerError> {
        while !self.run_epoch(epoch.max(1))? {}
        Ok(())
    }

    /// Serializes the complete run state (header, fields, digest, blob
    /// checksum) for crash-safe persistence.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.save_state(&mut w);
        w.finish()
    }

    /// The 64-bit digest of the run's complete mutable state.
    pub fn digest(&self) -> u64 {
        let mut d = StateDigest::new();
        self.digest_state(&mut d);
        d.finish()
    }

    /// Whether the trace has been fed and drained to completion.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Requests fed so far.
    pub fn requests_done(&self) -> u64 {
        self.done
    }

    /// The underlying system (controller/fault inspection).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Metrics of the run so far, labeled by the workload.
    pub fn metrics(&self) -> RunMetrics {
        self.system.metrics(self.workload_label.clone())
    }
}

impl Snapshot for ResumableRun {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.workload_label);
        w.put_str(&self.defense_label);
        w.put_u64(self.seed);
        w.put_u64(self.total);
        w.put_u64(self.done);
        w.put_bool(self.complete);
        self.system.save_state(w);
        self.source.save_state(w);
        // The digest goes last so restore can compare it against the
        // digest of the state it just reconstructed.
        w.put_u64(self.digest());
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let workload = r.take_str()?;
        if workload != self.workload_label {
            return Err(SnapshotError::StateMismatch(format!(
                "checkpoint is for workload {workload}, not {}",
                self.workload_label
            )));
        }
        let defense = r.take_str()?;
        if defense != self.defense_label {
            return Err(SnapshotError::StateMismatch(format!(
                "checkpoint is for defense {defense}, not {}",
                self.defense_label
            )));
        }
        let seed = r.take_u64()?;
        if seed != self.seed {
            return Err(SnapshotError::StateMismatch(format!(
                "checkpoint seed {seed} != configured seed {}",
                self.seed
            )));
        }
        let total = r.take_u64()?;
        if total != self.total {
            return Err(SnapshotError::StateMismatch(format!(
                "checkpoint budget {total} != configured budget {}",
                self.total
            )));
        }
        self.done = r.take_u64()?;
        self.complete = r.take_bool()?;
        self.system.load_state(r)?;
        self.source.load_state(r)?;
        let stored = r.take_u64()?;
        let rebuilt = self.digest();
        if stored != rebuilt {
            return Err(SnapshotError::StateMismatch(format!(
                "state digest mismatch: checkpoint {stored:#018x}, \
                 reconstructed {rebuilt:#018x} — hidden nondeterminism or \
                 configuration drift"
            )));
        }
        Ok(())
    }

    fn digest_state(&self, d: &mut StateDigest) {
        d.write_str(&self.workload_label);
        d.write_str(&self.defense_label);
        d.write_u64(self.seed);
        d.write_u64(self.total);
        d.write_u64(self.done);
        d.write_bool(self.complete);
        self.system.digest_state(d);
        self.source.digest_state(d);
    }
}

/// Seals a cell's epoch checkpoint: the owning cell id wraps the run
/// blob, so the checkpoint carries its identity, not just its state.
///
/// # Errors
///
/// Filesystem errors from the atomic write (injected ones included,
/// when `io` is a fault-injecting [`CampaignIo`]).
pub fn write_cell_checkpoint(
    io: &dyn CampaignIo,
    path: &Path,
    id: &str,
    run: &ResumableRun,
) -> std::io::Result<()> {
    let mut w = SnapshotWriter::new();
    w.put_str(id);
    w.put_bytes(&run.checkpoint());
    let bytes = w.finish();
    let _io_span = twice_obs::span(twice_obs::SpanId::SimCkptIo);
    twice_obs::bump(twice_obs::Ctr::SimCkptWrites);
    twice_obs::add(twice_obs::Ctr::SimCkptBytes, bytes.len() as u64);
    io.write_atomically(path, &bytes)
}

/// What a cell-checkpoint read found on disk.
#[derive(Debug)]
pub enum CheckpointRead {
    /// No checkpoint file exists (a fresh cell, the common case).
    Absent,
    /// A checkpoint exists but is owned by a different grid cell; the
    /// caller must start fresh and leave the file for its owner.
    Foreign,
    /// The blob failed its checksum, shape, or read — torn write,
    /// bit-rot, or a partial read. The cell recomputes from scratch;
    /// the reason feeds the campaign's structured recovery ledger.
    Corrupt(String),
    /// The inner run blob, checksummed and owned by the requested id.
    Valid(Vec<u8>),
}

/// Reads a cell checkpoint back, yielding the inner run blob only when
/// the file exists, passes its checksum, and is owned by `id`. A
/// checkpoint orphaned by a killed process therefore resumes exactly the
/// cell that wrote it; every other cell starts fresh — and a corrupt
/// blob is reported as [`CheckpointRead::Corrupt`] so the campaign can
/// log the recomputation instead of silently absorbing it.
pub fn read_cell_checkpoint(io: &dyn CampaignIo, path: &Path, id: &str) -> CheckpointRead {
    let _io_span = twice_obs::span(twice_obs::SpanId::SimCkptIo);
    let bytes = match io.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointRead::Absent,
        Err(e) => return CheckpointRead::Corrupt(format!("read failed: {e}")),
    };
    let mut r = match SnapshotReader::new(&bytes) {
        Ok(r) => r,
        Err(e) => return CheckpointRead::Corrupt(e.to_string()),
    };
    let owner = match r.take_str() {
        Ok(o) => o,
        Err(e) => return CheckpointRead::Corrupt(e.to_string()),
    };
    if owner != id {
        return CheckpointRead::Foreign;
    }
    match r.take_bytes() {
        Ok(blob) => CheckpointRead::Valid(blob.to_vec()),
        Err(e) => CheckpointRead::Corrupt(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice::TableOrganization;

    fn twice_fa() -> DefenseKind {
        DefenseKind::Twice(TableOrganization::FullyAssociative)
    }

    #[test]
    fn epochs_match_a_monolithic_run() {
        let cfg = SimConfig::fast_test();
        let mut epoched =
            ResumableRun::new(&cfg, &WorkloadKind::S3, twice_fa(), 10_000).expect("valid cell");
        epoched.run_to_completion(256).expect("fault-free");
        let monolithic = crate::runner::run(&cfg, WorkloadKind::S3, twice_fa(), 10_000);
        assert_eq!(epoched.metrics(), monolithic);
    }

    #[test]
    fn checkpoint_restore_resumes_to_the_same_digest() {
        let cfg = SimConfig::fast_test();
        let mut reference =
            ResumableRun::new(&cfg, &WorkloadKind::S1, twice_fa(), 6_000).expect("valid cell");
        reference.run_to_completion(512).expect("fault-free");

        let mut interrupted =
            ResumableRun::new(&cfg, &WorkloadKind::S1, twice_fa(), 6_000).expect("valid cell");
        interrupted.run_epoch(2_500).expect("fault-free");
        let blob = interrupted.checkpoint();
        let mut resumed = ResumableRun::restore(&cfg, &WorkloadKind::S1, twice_fa(), 6_000, &blob)
            .expect("restore");
        assert_eq!(resumed.requests_done(), 2_500);
        resumed.run_to_completion(512).expect("fault-free");
        assert_eq!(resumed.digest(), reference.digest());
        assert_eq!(resumed.metrics(), reference.metrics());
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let cfg = SimConfig::fast_test();
        let mut run =
            ResumableRun::new(&cfg, &WorkloadKind::S1, twice_fa(), 4_000).expect("valid cell");
        run.run_epoch(1_000).expect("fault-free");
        let blob = run.checkpoint();
        for (workload, defense, total, what) in [
            (WorkloadKind::S3, twice_fa(), 4_000, "workload"),
            (WorkloadKind::S1, DefenseKind::None, 4_000, "defense"),
            (WorkloadKind::S1, twice_fa(), 5_000, "budget"),
        ] {
            let err = ResumableRun::restore(&cfg, &workload, defense, total, &blob)
                .err()
                .unwrap_or_else(|| panic!("{what} mismatch must be rejected"));
            assert!(
                matches!(err, CellError::BadCheckpoint(_)),
                "{what}: {err:?}"
            );
        }
        let mut other_seed = cfg.clone();
        other_seed.seed ^= 1;
        let err = ResumableRun::restore(&other_seed, &WorkloadKind::S1, twice_fa(), 4_000, &blob)
            .err()
            .unwrap_or_else(|| panic!("seed mismatch must be rejected"));
        assert!(matches!(err, CellError::BadCheckpoint(_)), "{err:?}");
    }
}
