//! The one supervised grid runner behind `chaos`, `fleet` and `redteam`.
//!
//! A *grid* is an ordered list of independent cells: the chaos fault
//! grid's cells, a fleet's shards, one red-team generation's genome
//! slots. Every driver needs the same machinery around its cells, and
//! this module owns all of it:
//!
//! * **Directory sweep and trusted-prefix journal load** (`Grid::open`).
//! * **The pooled cell loop** (`Grid::run`): [`parallel_map`] — with
//!   one worker, the plain serial loop on the calling thread — skipping
//!   journaled cells, [`OrderedJournalWriter`] slots, the one
//!   `--halt-after` rule, and the [`Supervisor`] with the retry policy
//!   the driver picks.
//! * **The epoch loop** (`Attempt::run_epochs`): id-bound per-cell
//!   checkpoints and the watchdogs, in the order DESIGN.md §5e fixes.
//!
//! A driver hands the runner its cells, a run closure and a line codec;
//! it never touches sweeps, salvage, writer slots or checkpoint removal.

use crate::checkpoint::{
    read_cell_checkpoint, write_cell_checkpoint, CheckpointRead, ResumableRun,
};
use crate::cio::{with_retries, CampaignIo, RealIo, StorageEvents, StorageSummary};
use crate::journal::OrderedJournalWriter;
use crate::outcome::CellError;
use crate::parallel::parallel_map;
use crate::supervisor::{Retry, Supervisor};
use crate::system::System;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use twice_memctrl::resilience::ControllerError;

/// Where journal salvage moves the unparseable suffix it truncated, so
/// a corrupt tail is preserved for forensics instead of silently lost.
pub const JOURNAL_CORRUPT_FILE: &str = "journal.corrupt";

/// The supervision knobs every grid driver shares, filled from the CLI
/// flags once. The driver configs embed one and deref to it, so
/// `cc.jobs`, `fc.jobs` and `rc.jobs` are the same field.
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Campaign directory for the journal and epoch checkpoints; `None`
    /// runs fully in memory.
    pub dir: Option<PathBuf>,
    /// Whether this run resumes an earlier one in `dir`. A fresh run
    /// (`false`) sweeps stale `*.ckpt` files at start so leftovers from
    /// a killed run can never be confused with live state; a resume
    /// keeps them, because the in-flight cells' checkpoints *are* the
    /// live state being salvaged. Either way the journal is loaded.
    pub resume: bool,
    /// Worker threads; `1` runs every cell on the calling thread.
    pub jobs: usize,
    /// Attempts per failing cell before quarantine (1 = no retry). Each
    /// journal append and checkpoint write also retries in place, up to
    /// `retries` times but never more than 3: an operation that fails
    /// that often is better handled by failing the attempt.
    pub retries: u32,
    /// Linear backoff between attempts, in milliseconds.
    pub backoff_ms: u64,
    /// Crash simulation: stop after this many freshly completed cells
    /// (journal intact, resumable).
    pub halt_after: Option<usize>,
    /// Per-cell host wall-clock budget, checked at epoch boundaries.
    pub wall_budget_ms: Option<u64>,
    /// Per-cell simulated-time budget (ps), checked at epoch boundaries.
    pub sim_budget_ps: Option<u64>,
    /// The storage layer every journal/checkpoint byte flows through:
    /// [`RealIo`] in production, a fault-injecting
    /// [`FaultyIo`](crate::cio::FaultyIo) under storage chaos.
    pub io: Arc<dyn CampaignIo>,
}

impl Default for Supervision {
    /// In memory, one worker, real I/O, up to 3 attempts per cell, no
    /// budgets, no halt.
    fn default() -> Supervision {
        Supervision {
            dir: None,
            resume: false,
            jobs: 1,
            retries: 3,
            backoff_ms: 0,
            halt_after: None,
            wall_budget_ms: None,
            sim_budget_ps: None,
            io: Arc::new(RealIo),
        }
    }
}

impl Supervision {
    fn op_retries(&self) -> u32 {
        self.retries.clamp(1, 3)
    }

    /// Runs one storage operation with the per-operation retries.
    pub(crate) fn retry_io<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        with_retries(self.op_retries(), self.backoff_ms, op)
    }
}

/// Lets a driver config that embeds a [`Supervision`] as `sup` read and
/// write its knobs as its own fields.
macro_rules! deref_to_supervision {
    ($config:ty) => {
        impl std::ops::Deref for $config {
            type Target = $crate::grid::Supervision;
            fn deref(&self) -> &$crate::grid::Supervision {
                &self.sup
            }
        }
        impl std::ops::DerefMut for $config {
            fn deref_mut(&mut self) -> &mut $crate::grid::Supervision {
                &mut self.sup
            }
        }
    };
}
pub(crate) use deref_to_supervision;

/// Grid cell `index`'s private epoch checkpoint inside a campaign
/// directory: one file per cell, so no two workers ever contend on one.
pub fn checkpoint_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("cell-{index:02}.ckpt"))
}

/// One accounted-for grid cell.
#[derive(Debug, Clone)]
pub struct Done<T> {
    /// The cell's position in the grid.
    pub index: usize,
    /// Whether the value came from the journal instead of a run.
    pub salvaged: bool,
    /// The value, or the supervised failure.
    pub result: Result<T, CellError>,
}

/// What one attempt at a fresh cell gets from the runner.
#[derive(Debug)]
pub(crate) struct Attempt<'a> {
    /// The driver's supervision knobs.
    pub sup: &'a Supervision,
    /// The run's recovery ledger.
    pub events: &'a StorageEvents,
    /// This cell's epoch checkpoint (`None` in memory).
    pub ckpt: Option<PathBuf>,
}

impl Attempt<'_> {
    /// Runs one checkpointed cell to completion, epoch by epoch, from
    /// the cell's own checkpoint when it is valid, owned by `id` and
    /// reconstructs its digest — else from `fresh()`, counting a
    /// rejected blob on the ledger.
    ///
    /// At every epoch boundary, in this order: `at_boundary` (the
    /// driver's own check); the sim-time watchdog, *before* the
    /// checkpoint, so an over-budget epoch never persists progress a
    /// later attempt or `--resume` could launder into a clean result;
    /// the checkpoint write, whose repeated failure fails the attempt
    /// with [`CellError::Io`]; the wall-clock watchdog, *after* it, so a
    /// transiently slow attempt keeps its progress.
    ///
    /// Returns the run and, if the controller's nack-retry budget ran
    /// out, that error: the loop stops there and the driver decides
    /// whether it is data or a failure.
    ///
    /// # Errors
    ///
    /// `fresh()`'s error, `at_boundary`'s, a watchdog, or checkpoint I/O.
    pub(crate) fn run_epochs(
        &self,
        id: &str,
        epoch: u64,
        fresh: impl Fn() -> Result<ResumableRun, CellError>,
        mut at_boundary: impl FnMut(&ResumableRun) -> Result<(), CellError>,
    ) -> Result<(ResumableRun, Option<ControllerError>), CellError> {
        let io = self.sup.io.as_ref();
        let mut run = fresh()?;
        let blob = match self
            .ckpt
            .as_deref()
            .map(|p| read_cell_checkpoint(io, p, id))
        {
            Some(CheckpointRead::Valid(blob)) => Some(blob),
            Some(CheckpointRead::Corrupt(_)) => {
                StorageEvents::bump(&self.events.corrupt_checkpoints);
                None
            }
            _ => None,
        };
        if let Some(blob) = blob {
            if run.load(&blob).is_err() {
                // The wrapper checksum passed but the inner state failed
                // to reconstruct (torn inside the run blob, or a digest
                // mismatch): still a corrupt checkpoint.
                StorageEvents::bump(&self.events.corrupt_checkpoints);
                run = fresh()?;
            }
        }
        let start = Instant::now();
        while !run.is_complete() {
            if let Err(e) = run.run_epoch(epoch.max(1)) {
                return Ok((run, Some(e)));
            }
            at_boundary(&run)?;
            sim_watchdog(self.sup.sim_budget_ps, run.system(), run.requests_done())?;
            if let Some(p) = &self.ckpt {
                self.sup
                    .retry_io(|| write_cell_checkpoint(io, p, id, &run))
                    .map_err(|e| CellError::Io(e.to_string()))?;
            }
            wall_watchdog(self.sup.wall_budget_ms, start, run.requests_done())?;
        }
        Ok((run, None))
    }
}

/// Fails with [`CellError::SimTimeExceeded`] once `sys`'s simulated
/// clock has passed `budget_ps`.
pub(crate) fn sim_watchdog(
    budget_ps: Option<u64>,
    sys: &System,
    done: u64,
) -> Result<(), CellError> {
    match budget_ps {
        Some(budget_ps) if sys.sim_time().as_ps() > budget_ps => {
            Err(CellError::SimTimeExceeded { budget_ps, done })
        }
        _ => Ok(()),
    }
}

/// Fails with [`CellError::WallClockExceeded`] once more than
/// `budget_ms` of host time has passed since `start`.
pub(crate) fn wall_watchdog(
    budget_ms: Option<u64>,
    start: Instant,
    done: u64,
) -> Result<(), CellError> {
    match budget_ms {
        Some(budget_ms) if start.elapsed().as_millis() > u128::from(budget_ms) => {
            Err(CellError::WallClockExceeded { budget_ms, done })
        }
        _ => Ok(()),
    }
}

/// An opened campaign directory (or an in-memory run) and the state
/// that outlives one [`Grid::run`]: the recovery ledger and the
/// `--halt-after` count, which a red-team search spends across all of
/// its generations.
#[derive(Debug)]
pub(crate) struct Grid<'s> {
    sup: &'s Supervision,
    journal: Option<PathBuf>,
    events: StorageEvents,
    fresh: AtomicUsize,
    stop: AtomicBool,
}

impl<'s> Grid<'s> {
    /// Creates and sweeps the campaign directory, then loads the trusted
    /// prefix of its journal `file`: the complete lines from the start
    /// that `decode` accepts (blank lines pass). An in-memory run (no
    /// directory) loads nothing.
    ///
    /// The first line that is torn, not UTF-8 or rejected ends the
    /// prefix: the suffix from there moves to [`JOURNAL_CORRUPT_FILE`]
    /// and the journal is truncated, so crash damage and bit-rot heal to
    /// recomputation, never to trusting a damaged outcome. Both salvage
    /// writes are best-effort: a failed truncation just means the next
    /// load salvages again. Drivers key what they decode by cell, never
    /// by line position, so stragglers may land out of grid order.
    ///
    /// # Errors
    ///
    /// Only unrecoverable setup I/O: the directory cannot be created, or
    /// the journal exists but cannot be read at all.
    pub(crate) fn open<L>(
        sup: &'s Supervision,
        file: &str,
        mut decode: impl FnMut(&str) -> Option<L>,
    ) -> io::Result<(Grid<'s>, Vec<L>)> {
        let grid = Grid {
            sup,
            journal: sup.dir.as_ref().map(|d| d.join(file)),
            events: StorageEvents::default(),
            fresh: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        };
        let mut lines = Vec::new();
        let (Some(dir), Some(path)) = (&sup.dir, &grid.journal) else {
            return Ok((grid, lines));
        };
        sup.io.create_dir_all(dir)?;
        grid.sweep(dir);
        let bytes = match sup.io.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((grid, lines)),
            Err(e) => return Err(e),
        };
        let mut good_end = 0usize;
        for chunk in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(text) = chunk
                .strip_suffix(b"\n")
                .and_then(|l| std::str::from_utf8(l).ok())
            else {
                break;
            };
            if !text.trim().is_empty() {
                let Some(line) = decode(text) else {
                    break;
                };
                lines.push(line);
            }
            good_end += chunk.len();
        }
        if good_end < bytes.len() {
            let suffix = &bytes[good_end..];
            let dropped = suffix
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .count() as u64;
            let _ = sup.retry_io(|| {
                sup.io
                    .write_file(&path.with_file_name(JOURNAL_CORRUPT_FILE), suffix)
            });
            let _ = sup.retry_io(|| sup.io.write_atomically(path, &bytes[..good_end]));
            StorageEvents::bump(&grid.events.journal_salvages);
            StorageEvents::add(&grid.events.salvaged_lines_dropped, dropped);
        }
        Ok((grid, lines))
    }

    /// Start-of-run hygiene (see [`Supervision::resume`]): orphaned
    /// `*.tmp` files — a failed rename, or a kill between temp-write and
    /// rename — always; stale `*.ckpt` files on a fresh run only.
    fn sweep(&self, dir: &Path) {
        let Ok(entries) = self.sup.io.list_dir(dir) else {
            return;
        };
        for path in entries {
            let stale = match path.extension().and_then(|e| e.to_str()) {
                Some("tmp") => true,
                Some("ckpt") => !self.sup.resume,
                _ => false,
            };
            if stale && self.sup.io.remove_file(&path).is_ok() {
                StorageEvents::bump(&self.events.swept_orphans);
            }
        }
    }

    /// Appends one line straight to the journal, outside any cell's
    /// slot (a meta line before the cells, a summary line after them).
    /// A no-op in memory.
    ///
    /// # Errors
    ///
    /// The last append error once the per-operation retries are spent;
    /// the lost line is also counted on the ledger.
    pub(crate) fn append(&self, line: &str) -> io::Result<()> {
        let Some(path) = &self.journal else {
            return Ok(());
        };
        let _io_span = twice_obs::span(twice_obs::SpanId::SimJournalIo);
        twice_obs::bump(twice_obs::Ctr::SimJournalAppends);
        let wrote = self.sup.retry_io(|| self.sup.io.append_line(path, line));
        if wrote.is_err() {
            StorageEvents::bump(&self.events.journal_write_failures);
        }
        wrote
    }

    /// Runs `cells` across `sup.jobs` workers and returns the accounted
    /// cells in grid order (all of them unless halted).
    ///
    /// A cell `journaled` returns a value for is salvaged, not rerun.
    /// Every other cell is `run` under the [`Supervisor`] with the `retry`
    /// policy, then its epoch checkpoint is removed whatever the outcome
    /// (the id binding is the backstop for kills), and a completed cell's
    /// `line` goes to the journal. Every cell takes its writer slot
    /// exactly once, so the journal bytes are the same for any worker
    /// count. `on_done` sees each accounted cell's outcome as it lands.
    ///
    /// `--halt-after N`: once N fresh cells have completed (over the
    /// grid's lifetime, not this call), unclaimed cells are skipped,
    /// stragglers are flushed to the journal, and [`Grid::halted`] turns
    /// true. A run that ends without a halt leaves no epoch checkpoint
    /// behind, strays of an earlier killed run included.
    pub(crate) fn run<C: Sync, T: Send>(
        &self,
        cells: &[C],
        retry: Retry,
        journaled: impl Fn(&C) -> Option<T> + Sync,
        run: impl Fn(&Attempt<'_>, &C) -> Result<T, CellError> + Sync,
        line: impl Fn(&C, &T) -> String + Sync,
        on_done: impl Fn(usize, Result<&T, &CellError>) + Sync,
    ) -> Vec<Done<T>> {
        let sup = self.sup;
        let writer = self.journal.as_ref().map(|p| {
            OrderedJournalWriter::new(sup.io.clone(), p.clone(), sup.op_retries(), sup.backoff_ms)
        });
        let supervisor = Supervisor::new(sup.retries, sup.backoff_ms);
        let done = parallel_map(sup.jobs, cells, |index, cell| {
            let (salvaged, result) = match journaled(cell) {
                Some(value) => (true, Ok(value)),
                None if self.halted() => return None,
                None => {
                    let attempt = Attempt {
                        sup,
                        events: &self.events,
                        ckpt: sup.dir.as_ref().map(|d| checkpoint_path(d, index)),
                    };
                    let result = supervisor.supervise(
                        retry,
                        |_| run(&attempt, cell),
                        |n, _| {
                            if n == 1 {
                                StorageEvents::bump(&self.events.retried_cells);
                            }
                        },
                    );
                    if matches!(result, Err(CellError::Quarantined { .. })) {
                        StorageEvents::bump(&self.events.quarantined_cells);
                    }
                    if let Some(p) = &attempt.ckpt {
                        let _ = sup.io.remove_file(p);
                    }
                    (false, result)
                }
            };
            if let Some(w) = &writer {
                let fresh = result.as_ref().ok().filter(|_| !salvaged);
                w.submit(index, fresh.map(|v| line(cell, v)));
            }
            on_done(index, result.as_ref());
            if !salvaged && result.is_ok() {
                let n = self.fresh.fetch_add(1, Ordering::SeqCst) + 1;
                if sup.halt_after.is_some_and(|h| n >= h) {
                    self.stop.store(true, Ordering::SeqCst);
                }
            }
            Some(Done {
                index,
                salvaged,
                result,
            })
        });
        if let Some(w) = &writer {
            if self.halted() {
                w.flush_stragglers();
            }
            StorageEvents::add(&self.events.journal_write_failures, w.dropped());
        }
        if let (Some(dir), false) = (&sup.dir, self.halted()) {
            for index in 0..cells.len() {
                let _ = sup.io.remove_file(&checkpoint_path(dir, index));
            }
        }
        done.into_iter().flatten().collect()
    }

    /// Whether `--halt-after` stopped the grid.
    pub(crate) fn halted(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The recovery ledger so far: every sweep, salvage, retry and
    /// quarantine. All-zero on a healthy filesystem.
    pub(crate) fn storage(&self) -> StorageSummary {
        self.events.summary()
    }
}
