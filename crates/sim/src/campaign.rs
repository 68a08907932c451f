//! The supervised, crash-safe chaos campaign.
//!
//! The chaos fault grid ([`chaos::fault_grid`], each plan against the
//! hardened and the unhardened engine) runs on the [`crate::grid`]
//! runner, which owns sweeps, journal salvage, the pooled cell loop,
//! supervision and the checkpointed epoch loop. What stays here is the
//! grid and the outcome codec of the journal (`cells.jsonl`).
//!
//! Chaos cells are deterministic, so only I/O failures are retried
//! ([`Retry::IoOnly`]): a panicking or over-budget cell becomes an error
//! row at once, a cell whose storage keeps failing is quarantined. The
//! report, the journal bytes and every per-cell digest are identical
//! across worker counts and across kill + resume (DESIGN.md §5e,
//! `crates/sim/tests/parallel_equivalence.rs`).

use crate::checkpoint::ResumableRun;
use crate::cio::StorageSummary;
use crate::config::SimConfig;
use crate::experiments::chaos::{self, ChaosOutcome};
use crate::grid::{deref_to_supervision, Attempt, Grid, Supervision};
use crate::journal::{emit_line, parse_line, seal_line, unseal_line, JsonValue};
use crate::metrics::CampaignTotals;
use crate::outcome::{Cell, CellError};
use crate::report::Table;
use crate::runner::WorkloadKind;
use crate::supervisor::Retry;
use std::collections::HashMap;
use twice_common::fault::FaultPlan;
use twice_mitigations::DefenseKind;

/// The journal file name inside a campaign directory.
pub const JOURNAL_FILE: &str = "cells.jsonl";

/// A chaos campaign: the grid shape plus the shared supervision knobs,
/// which it derefs to (`cc.jobs`, `cc.dir`, …).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Requests per cell.
    pub requests: u64,
    /// Requests per epoch (checkpoint/watchdog granularity).
    pub epoch: u64,
    /// The defense every cell runs (the chaos default is the paper's
    /// fully-associative TWiCe).
    pub defense: DefenseKind,
    /// Directory, workers, retries, budgets, halt, storage layer.
    pub sup: Supervision,
}

deref_to_supervision!(CampaignConfig);

impl CampaignConfig {
    /// A plain in-memory campaign: `requests` per cell, 4096-request
    /// epochs, the default [`Supervision`] (one worker, real I/O, up to
    /// 3 attempts per I/O-failing cell, no budgets).
    pub fn new(requests: u64) -> CampaignConfig {
        CampaignConfig {
            requests,
            epoch: 4096,
            defense: chaos::chaos_defense(),
            sup: Supervision::default(),
        }
    }
}

/// One supervised cell: its outcome plus whether it was salvaged from
/// the journal instead of (re)run.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// The cell's typed outcome.
    pub outcome: Cell<ChaosOutcome>,
    /// Whether the outcome came from a previous run's journal.
    pub salvaged: bool,
}

/// A finished (or halted) campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The rendered report table (grid order, failures as error rows).
    pub table: Table,
    /// Per-cell outcomes in grid order (partial if halted).
    pub cells: Vec<CampaignCell>,
    /// Whether `halt_after` stopped the campaign early.
    pub halted: bool,
    /// How many cells were salvaged from the journal.
    pub salvaged: usize,
    /// Aggregates over the completed hardened (scrubbing) cells, merged
    /// per cell at collection time — workers never share an accumulator.
    pub hardened: CampaignTotals,
    /// Aggregates over the completed unhardened cells.
    pub unhardened: CampaignTotals,
    /// The storage recovery ledger: every sweep, salvage, retry, and
    /// quarantine this run performed. All-zero on a healthy filesystem.
    pub storage: StorageSummary,
}

/// One grid cell's static description, fixed before any worker starts.
#[derive(Debug, Clone)]
struct CellSpec {
    id: String,
    label: String,
    plan: FaultPlan,
    scrubbing: bool,
}

fn cell_id(label: &str, scrubbing: bool) -> String {
    format!(
        "{label}/{}",
        if scrubbing { "hardened" } else { "unhardened" }
    )
}

fn grid_specs(cfg_base: &SimConfig) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (label, plan) in chaos::fault_grid(cfg_base.seed ^ 0xC4A0) {
        for scrubbing in [true, false] {
            specs.push(CellSpec {
                id: cell_id(&label, scrubbing),
                label: label.clone(),
                plan: plan.clone(),
                scrubbing,
            });
        }
    }
    specs
}

/// Runs the chaos fault grid under supervision on `cc.jobs` workers.
///
/// Storage faults do not abort the campaign: corrupt journals are
/// salvaged, corrupt checkpoints recomputed, I/O-failing cells retried
/// and finally quarantined, and the whole ledger is returned on
/// [`CampaignReport::storage`].
///
/// # Errors
///
/// Only unrecoverable setup I/O: the campaign directory cannot be
/// created, or the journal cannot be read at all.
pub fn chaos_campaign(
    cfg_base: &SimConfig,
    cc: &CampaignConfig,
) -> std::io::Result<CampaignReport> {
    let (grid, lines) = Grid::open(&cc.sup, JOURNAL_FILE, parse_journal_line)?;
    let journaled: HashMap<String, ChaosOutcome> = lines.into_iter().collect();
    let specs = grid_specs(cfg_base);
    let done = grid.run(
        &specs,
        Retry::IoOnly,
        |spec| journaled.get(&spec.id).cloned(),
        |attempt, spec| attempt_cell(attempt, cfg_base, spec, cc),
        |spec, o| journal_line(&spec.id, o),
        |_, _| {},
    );
    let cells: Vec<CampaignCell> = done
        .into_iter()
        .map(|done| CampaignCell {
            outcome: Cell {
                experiment: "chaos",
                cell: specs[done.index].id.clone(),
                result: done.result,
            },
            salvaged: done.salvaged,
        })
        .collect();

    let salvaged = cells.iter().filter(|c| c.salvaged).count();
    let mut hardened = CampaignTotals::default();
    let mut unhardened = CampaignTotals::default();
    for cell in &cells {
        if let Ok(o) = &cell.outcome.result {
            let side = if o.scrubbing {
                &mut hardened
            } else {
                &mut unhardened
            };
            side.merge(&o.totals());
        }
    }
    let table = chaos::render_table(cells.iter().map(|c| &c.outcome));
    Ok(CampaignReport {
        table,
        cells,
        halted: grid.halted(),
        salvaged,
        hardened,
        unhardened,
        storage: grid.storage(),
    })
}

/// One attempt at one cell: the S3 hammer under the cell's fault plan.
/// An exhausted controller retry budget is chaos data, not a cell
/// failure: it is recorded and the partial metrics reported.
fn attempt_cell(
    attempt: &Attempt<'_>,
    cfg_base: &SimConfig,
    spec: &CellSpec,
    cc: &CampaignConfig,
) -> Result<ChaosOutcome, CellError> {
    let cfg = chaos::cell_config(cfg_base, spec.plan.clone(), spec.scrubbing);
    let (run, exhausted) = attempt.run_epochs(
        &spec.id,
        cc.epoch,
        || ResumableRun::new(&cfg, &WorkloadKind::S3, cc.defense, cc.requests),
        |_| Ok(()),
    )?;
    Ok(chaos::collect_outcome(
        run.system(),
        &spec.label,
        spec.scrubbing,
        exhausted.is_some(),
        run.digest(),
    ))
}

fn journal_line(id: &str, o: &ChaosOutcome) -> String {
    seal_line(&emit_line(&[
        ("cell", JsonValue::Str(id.to_string())),
        ("label", JsonValue::Str(o.label.clone())),
        ("scrubbing", JsonValue::Bool(o.scrubbing)),
        ("seu_injected", JsonValue::U64(o.seu_injected)),
        ("corruption_events", JsonValue::U64(o.corruption_events)),
        ("additional_acts", JsonValue::U64(o.additional_acts)),
        ("protocol_nacks", JsonValue::U64(o.protocol_nacks)),
        ("injected_nacks", JsonValue::U64(o.injected_nacks)),
        ("fallback_windows", JsonValue::U64(o.fallback_windows)),
        ("retry_exhausted", JsonValue::Bool(o.retry_exhausted)),
        ("bit_flips", JsonValue::U64(o.bit_flips as u64)),
        ("digest", JsonValue::U64(o.digest)),
    ]))
}

fn parse_journal_line(line: &str) -> Option<(String, ChaosOutcome)> {
    let line = unseal_line(line)?;
    let map = parse_line(&line).ok()?;
    let outcome = ChaosOutcome {
        label: map.get("label")?.as_str()?.to_string(),
        scrubbing: map.get("scrubbing")?.as_bool()?,
        seu_injected: map.get("seu_injected")?.as_u64()?,
        corruption_events: map.get("corruption_events")?.as_u64()?,
        additional_acts: map.get("additional_acts")?.as_u64()?,
        protocol_nacks: map.get("protocol_nacks")?.as_u64()?,
        injected_nacks: map.get("injected_nacks")?.as_u64()?,
        fallback_windows: map.get("fallback_windows")?.as_u64()?,
        retry_exhausted: map.get("retry_exhausted")?.as_bool()?,
        bit_flips: usize::try_from(map.get("bit_flips")?.as_u64()?).ok()?,
        digest: map.get("digest")?.as_u64()?,
    };
    Some((map.get("cell")?.as_str()?.to_string(), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{read_cell_checkpoint, write_cell_checkpoint, CheckpointRead};
    use crate::cio::{CampaignIo, RealIo, StorageEvents};
    use crate::grid::checkpoint_path;
    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};

    fn spec(label: &str, plan: FaultPlan, scrubbing: bool) -> CellSpec {
        CellSpec {
            id: cell_id(label, scrubbing),
            label: label.to_string(),
            plan,
            scrubbing,
        }
    }

    #[test]
    fn journal_line_round_trips() {
        let o = ChaosOutcome {
            label: "bus gauntlet".to_string(),
            scrubbing: true,
            seu_injected: 12,
            corruption_events: 3,
            additional_acts: 40,
            protocol_nacks: 5,
            injected_nacks: 6,
            fallback_windows: 2,
            retry_exhausted: false,
            bit_flips: 0,
            digest: 0xDEAD_BEEF_0123_4567,
        };
        let line = journal_line("bus gauntlet/hardened", &o);
        let (id, parsed) = parse_journal_line(&line).expect("round trip");
        assert_eq!(id, "bus gauntlet/hardened");
        assert_eq!(parsed, o);
    }

    #[test]
    fn torn_journal_lines_are_skipped() {
        let line = journal_line(
            "x/hardened",
            &ChaosOutcome {
                label: "x".to_string(),
                scrubbing: true,
                seu_injected: 0,
                corruption_events: 0,
                additional_acts: 0,
                protocol_nacks: 0,
                injected_nacks: 0,
                fallback_windows: 0,
                retry_exhausted: false,
                bit_flips: 0,
                digest: 1,
            },
        );
        // A crash mid-write truncates the final line.
        let torn = &line[..line.len() - 7];
        assert!(parse_journal_line(torn).is_none());
    }

    #[test]
    fn wall_clock_watchdog_fires_at_epoch_boundary() {
        let cfg = SimConfig::fast_test();
        let mut cc = CampaignConfig::new(50_000);
        cc.epoch = 128;
        cc.wall_budget_ms = Some(0); // fires at the first epoch boundary
        let grid = chaos::fault_grid(cfg.seed ^ 0xC4A0);
        let (label, plan) = &grid[0];
        let events = StorageEvents::default();
        let attempt = Attempt {
            sup: &cc.sup,
            events: &events,
            ckpt: None,
        };
        let cell = attempt_cell(&attempt, &cfg, &spec(label, plan.clone(), true), &cc);
        match cell {
            Err(CellError::WallClockExceeded { done, .. }) => {
                assert!(done >= 128, "at least one epoch ran: {done}");
                assert!(done < 50_000, "the watchdog must cut the cell short");
            }
            other => panic!("expected a wall-clock timeout, got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_are_bound_to_their_cell() {
        let cfg = SimConfig::fast_test();
        let mut run = ResumableRun::new(&cfg, &WorkloadKind::S3, chaos::chaos_defense(), 4_000)
            .expect("valid cell");
        run.run_epoch(512).expect("fault-free");
        let dir = std::env::temp_dir().join(format!("twice-ckpt-owner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = checkpoint_path(&dir, 0);
        let io = RealIo;
        write_cell_checkpoint(&io, &path, "seu x1/hardened", &run).expect("write");
        // The owner reads its checkpoint back; every other cell — even
        // one differing only in the scrubbing flag — is refused, so no
        // cell can inherit a failed neighbour's partial state.
        assert!(matches!(
            read_cell_checkpoint(&io, &path, "seu x1/hardened"),
            CheckpointRead::Valid(_)
        ));
        assert!(matches!(
            read_cell_checkpoint(&io, &path, "seu x1/unhardened"),
            CheckpointRead::Foreign
        ));
        assert!(matches!(
            read_cell_checkpoint(&io, &path, "bus gauntlet/hardened"),
            CheckpointRead::Foreign
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cells_leave_no_checkpoint_for_the_next_cell() {
        // Every cell dies at its first epoch boundary via a watchdog.
        // Each subsequent cell must start from request 0 — `done` stuck
        // at exactly one epoch proves no cell adopted a predecessor's
        // state (which would resume at 2, 3, … epochs). Both budgets are
        // armed; the sim-time one, which fires first, guarantees the kill
        // lands at the *first* boundary even when an epoch finishes in
        // under a millisecond.
        let cfg = SimConfig::fast_test();
        let dir = std::env::temp_dir().join(format!("twice-stale-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cc = CampaignConfig::new(50_000);
        cc.epoch = 128;
        cc.wall_budget_ms = Some(0);
        cc.sim_budget_ps = Some(1);
        cc.dir = Some(dir.clone());
        let report = chaos_campaign(&cfg, &cc).expect("campaign");
        assert!(!report.cells.is_empty());
        for cell in &report.cells {
            match &cell.outcome.result {
                Err(
                    CellError::WallClockExceeded { done, .. }
                    | CellError::SimTimeExceeded { done, .. },
                ) => assert_eq!(
                    *done, 128,
                    "cell {} must start fresh, not inherit a failed \
                     predecessor's checkpoint",
                    cell.outcome.cell
                ),
                other => panic!("expected a watchdog timeout, got {other:?}"),
            }
        }
        assert!(
            (0..report.cells.len()).all(|i| !checkpoint_path(&dir, i).exists()),
            "a finished campaign must not leave a stale checkpoint behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_time_watchdog_fires_and_degrades_the_cell() {
        let cfg = SimConfig::fast_test();
        let mut cc = CampaignConfig::new(50_000);
        cc.epoch = 256;
        cc.sim_budget_ps = Some(1); // any simulated progress exceeds this
        let grid = chaos::fault_grid(cfg.seed ^ 0xC4A0);
        let (label, plan) = &grid[0];
        let events = StorageEvents::default();
        let attempt = Attempt {
            sup: &cc.sup,
            events: &events,
            ckpt: None,
        };
        let cell = attempt_cell(&attempt, &cfg, &spec(label, plan.clone(), false), &cc);
        assert!(
            matches!(cell, Err(CellError::SimTimeExceeded { .. })),
            "{cell:?}"
        );
    }

    #[test]
    fn report_totals_merge_per_cell_at_collection() {
        let cfg = SimConfig::fast_test();
        let mut cc = CampaignConfig::new(6_000);
        cc.epoch = 1_024;
        let report = chaos_campaign(&cfg, &cc).expect("campaign");
        let hand_summed: u64 = report
            .cells
            .iter()
            .filter_map(|c| c.outcome.result.as_ref().ok())
            .filter(|o| o.scrubbing)
            .map(|o| o.additional_acts)
            .sum();
        assert_eq!(report.hardened.additional_acts, hand_summed);
        assert_eq!(
            report.hardened.cells + report.unhardened.cells,
            report.cells.len() as u64
        );
        assert_eq!(report.hardened.bit_flips, 0, "hardened cells stay safe");
    }

    /// Real storage that records the path of every atomic write.
    #[derive(Debug, Default)]
    struct RecordingIo {
        writes: Mutex<Vec<PathBuf>>,
    }

    impl CampaignIo for RecordingIo {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            RealIo.create_dir_all(dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealIo.read(path)
        }
        fn write_atomically(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.writes.lock().unwrap().push(path.to_path_buf());
            RealIo.write_atomically(path, bytes)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            RealIo.write_file(path, bytes)
        }
        fn append_line(&self, path: &Path, line: &str) -> io::Result<()> {
            RealIo.append_line(path, line)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealIo.remove_file(path)
        }
        fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            RealIo.list_dir(dir)
        }
    }

    #[test]
    fn an_over_budget_epoch_is_never_checkpointed() {
        // The sim-time watchdog fires before the checkpoint write. A
        // checkpoint of the epoch that broke the budget would survive a
        // kill before the cell's cleanup, and `--resume` would restore
        // the overrun: a later `done`, or on the final epoch a clean cell
        // where the uninterrupted run failed.
        let cfg = SimConfig::fast_test();
        let dir = std::env::temp_dir().join(format!("twice-budget-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = Arc::new(RecordingIo::default());
        let mut cc = CampaignConfig::new(4_000);
        cc.epoch = 512;
        cc.sim_budget_ps = Some(1);
        cc.dir = Some(dir.clone());
        cc.io = io.clone();
        let report = chaos_campaign(&cfg, &cc).expect("campaign");
        for cell in &report.cells {
            assert!(
                matches!(cell.outcome.result, Err(CellError::SimTimeExceeded { .. })),
                "{:?}",
                cell.outcome.result
            );
        }
        let checkpoints: Vec<PathBuf> = io
            .writes
            .lock()
            .unwrap()
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
            .cloned()
            .collect();
        assert!(
            checkpoints.is_empty(),
            "over-budget epochs were checkpointed: {checkpoints:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
