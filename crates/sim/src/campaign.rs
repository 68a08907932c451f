//! The supervised, crash-safe chaos campaign.
//!
//! The chaos fault grid ([`chaos::fault_grid`], each row against the
//! hardened and the unhardened engine) runs on the [`crate::grid`]
//! runner, which owns sweeps, the journal-shape check, journal salvage,
//! the pooled cell loop, supervision and the checkpointed epoch loop.
//! What stays here is the grid, the `--sabotage` cells appended after
//! it, the meta line and the outcome codec of the journal
//! (`cells.jsonl`).
//!
//! Chaos cells are deterministic, so only I/O failures are retried: a
//! panicking or over-budget cell becomes an error row at once, a cell
//! whose storage keeps failing is quarantined. The report, the journal
//! bytes and every per-cell digest are identical across worker counts
//! and across kill + resume (DESIGN.md §5e,
//! `crates/sim/tests/parallel_equivalence.rs`).

use crate::checkpoint::ResumableRun;
use crate::cio::StorageSummary;
use crate::config::SimConfig;
use crate::experiments::chaos::{self, ChaosOutcome};
use crate::grid::{deref_to_supervision, sim_watchdog, Attempt, Grid, OpenError, Supervision};
use crate::journal::{emit_line, parse_line, seal_line, unseal_line, JsonValue};
use crate::metrics::CampaignTotals;
use crate::outcome::{Cell, CellError};
use crate::redteam::Poison;
use crate::report::Table;
use crate::runner::WorkloadKind;
use std::collections::HashMap;
use twice_common::fault::FaultPlan;
use twice_common::snapshot::DIGEST_DEFINITION;
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
    /// Cells appended after the real grid that fail by construction,
    /// alternating an injected panic and a 1 ps sim-time budget, so the
    /// degraded path is exercised end to end. The real rows keep their
    /// results, and the sabotaged cells stay out of the report table.
    pub sabotage: usize,
    /// Directory, workers, retries, budgets, halt, storage layer.
    pub sup: Supervision,
}

deref_to_supervision!(CampaignConfig);

impl CampaignConfig {
    /// A plain in-memory campaign: `requests` per cell, 4096-request
    /// epochs, no sabotage, the default [`Supervision`] (one worker, real
    /// I/O, up to 3 attempts per I/O-failing cell, no budgets).
    pub fn new(requests: u64) -> CampaignConfig {
        CampaignConfig {
            requests,
            epoch: 4096,
            defense: chaos::chaos_defense(),
            sabotage: 0,
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
    /// The rendered report table: the fault grid in order, failures as
    /// error rows (sabotaged cells are in `cells` only).
    pub table: Table,
    /// Per-cell outcomes in grid order, sabotaged cells last (partial
    /// if halted).
    pub cells: Vec<CampaignCell>,
    /// Whether `halt_after` stopped the campaign early.
    pub halted: bool,
    /// How many cells were salvaged from the journal.
    pub salvaged: usize,
    /// How many accounted cells ended without an outcome: quarantined,
    /// panicked or over a budget. Non-zero means a degraded run.
    pub failed: usize,
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
    workload: WorkloadKind,
    scrubbing: bool,
    sabotage: Option<Poison>,
}

fn cell_id(label: &str, scrubbing: bool) -> String {
    format!(
        "{label}/{}",
        if scrubbing { "hardened" } else { "unhardened" }
    )
}

fn grid_specs(cfg_base: &SimConfig, sabotage: usize) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for row in chaos::fault_grid(cfg_base.seed ^ 0xC4A0) {
        for scrubbing in [true, false] {
            specs.push(CellSpec {
                id: cell_id(&row.label, scrubbing),
                label: row.label.clone(),
                plan: row.plan.clone(),
                workload: row.workload.clone(),
                scrubbing,
                sabotage: None,
            });
        }
    }
    for n in 1..=sabotage {
        let label = format!("sabotage {n}");
        specs.push(CellSpec {
            id: cell_id(&label, true),
            label,
            plan: FaultPlan::default(),
            workload: WorkloadKind::S3,
            scrubbing: true,
            sabotage: Some(if n % 2 == 1 {
                Poison::Panic
            } else {
                Poison::SimBudget
            }),
        });
    }
    specs
}

/// The journal's first line: everything that fixes the cells' results,
/// and how their digests are computed. A resume whose journal opens with
/// any other line is refused.
fn meta_line(cfg_base: &SimConfig, cc: &CampaignConfig) -> String {
    seal_line(&emit_line(&[
        ("campaign", JsonValue::Str("chaos".to_string())),
        ("seed", JsonValue::U64(cfg_base.seed)),
        ("requests", JsonValue::U64(cc.requests)),
        ("epoch", JsonValue::U64(cc.epoch)),
        ("sabotage", JsonValue::U64(cc.sabotage as u64)),
        ("defense", JsonValue::Str(cc.defense.to_string())),
        ("digest_definition", JsonValue::U64(DIGEST_DEFINITION)),
    ]))
}

/// Runs the chaos fault grid, then the `cc.sabotage` cells, under
/// supervision on `cc.jobs` workers.
///
/// Storage faults do not abort the campaign: corrupt journals are
/// salvaged, corrupt checkpoints recomputed, I/O-failing cells retried
/// and finally quarantined, and the whole ledger is returned on
/// [`CampaignReport::storage`].
///
/// # Errors
///
/// [`OpenError::ForeignJournal`] when the directory's journal records
/// a different run, or [`OpenError::Io`] when the campaign directory
/// cannot be created or the journal cannot be read at all.
pub fn chaos_campaign(
    cfg_base: &SimConfig,
    cc: &CampaignConfig,
) -> Result<CampaignReport, OpenError> {
    let meta = meta_line(cfg_base, cc);
    let (grid, lines) = Grid::open(&cc.sup, JOURNAL_FILE, &meta, parse_journal_line)?;
    let journaled: HashMap<String, ChaosOutcome> = lines.into_iter().collect();
    let specs = grid_specs(cfg_base, cc.sabotage);
    let done = grid.run(
        &specs,
        |spec| journaled.get(&spec.id).cloned(),
        |attempt, spec| attempt_cell(attempt, cfg_base, spec, cc),
        |spec, o| journal_line(&spec.id, o),
    );
    // Sabotaged cells come last in grid order, so they are a suffix.
    let sabotaged = done
        .iter()
        .filter(|d| specs[d.index].sabotage.is_some())
        .count();
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
    let failed = cells.iter().filter(|c| c.outcome.result.is_err()).count();
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
    let table = chaos::render_table(cells[..cells.len() - sabotaged].iter().map(|c| &c.outcome));
    Ok(CampaignReport {
        table,
        cells,
        halted: grid.halted(),
        salvaged,
        failed,
        hardened,
        unhardened,
        storage: grid.storage(),
    })
}

/// One attempt at one cell: the row's workload under its fault plan,
/// with the sabotage, if any, at the first epoch boundary — before the
/// checkpoint, so no attempt ever persists its progress. An exhausted
/// controller retry budget is chaos data, not a cell failure: it is
/// recorded and the partial metrics reported.
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
        || ResumableRun::new(&cfg, &spec.workload, cc.defense, cc.requests),
        |run| match spec.sabotage {
            Some(Poison::Panic) => panic!("sabotage: injected cell panic"),
            Some(Poison::SimBudget) => sim_watchdog(Some(1), run.system(), run.requests_done()),
            None => Ok(()),
        },
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
    use twice_common::fault::FaultKind;

    /// The first grid row's cell under `scrubbing`.
    fn first_spec(cfg: &SimConfig, scrubbing: bool) -> CellSpec {
        let row = chaos::fault_grid(cfg.seed ^ 0xC4A0).remove(0);
        CellSpec {
            id: cell_id(&row.label, scrubbing),
            label: row.label,
            plan: row.plan,
            workload: row.workload,
            scrubbing,
            sabotage: None,
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
        let events = StorageEvents::default();
        let attempt = Attempt {
            sup: &cc.sup,
            events: &events,
            ckpt: None,
        };
        let cell = attempt_cell(&attempt, &cfg, &first_spec(&cfg, true), &cc);
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
        let events = StorageEvents::default();
        let attempt = Attempt {
            sup: &cc.sup,
            events: &events,
            ckpt: None,
        };
        let cell = attempt_cell(&attempt, &cfg, &first_spec(&cfg, false), &cc);
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
        assert_eq!(
            report.failed,
            report.cells.len(),
            "every over-budget cell ended without an outcome"
        );
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

    #[test]
    fn sabotaged_cells_fail_after_the_grid_and_the_real_rows_keep_their_results() {
        let cfg = SimConfig::fast_test();
        let mut cc = CampaignConfig::new(3_000);
        cc.epoch = 1_024;
        let clean = chaos_campaign(&cfg, &cc).expect("clean campaign");
        cc.sabotage = 2;
        cc.jobs = 2;
        let sabotaged = chaos_campaign(&cfg, &cc).expect("sabotaged campaign");
        assert_eq!(sabotaged.cells.len(), clean.cells.len() + 2);
        assert_eq!(sabotaged.table.to_string(), clean.table.to_string());
        assert_eq!(sabotaged.failed, 2);
        assert_eq!(sabotaged.storage.quarantined_cells, 0);
        let tail: Vec<String> = sabotaged.cells[clean.cells.len()..]
            .iter()
            .map(|c| {
                let err = c.outcome.result.as_ref().expect_err("sabotage fails");
                format!("{} {err}", c.outcome.cell)
            })
            .collect();
        assert_eq!(
            tail,
            [
                "sabotage 1/hardened panicked: sabotage: injected cell panic",
                "sabotage 2/hardened sim-time budget 1 ps exceeded after 1024 requests",
            ]
        );
    }

    #[test]
    fn a_resume_refuses_a_journal_from_a_different_run() {
        let cfg = SimConfig::fast_test();
        let mut cc = CampaignConfig::new(4_000);
        cc.epoch = 1_024;
        let clean = chaos_campaign(&cfg, &cc).expect("clean campaign");

        let dir = std::env::temp_dir().join(format!("twice-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cc.dir = Some(dir.clone());
        cc.halt_after = Some(3);
        assert!(chaos_campaign(&cfg, &cc).expect("halted").halted);

        cc.halt_after = None;
        cc.resume = true;
        let mut other = cfg.clone();
        other.seed ^= 1;
        let err = chaos_campaign(&other, &cc).expect_err("another seed's journal");
        assert!(err.to_string().contains("different campaign"), "{err}");
        cc.requests = 6_000;
        let err = chaos_campaign(&cfg, &cc).expect_err("another scale's journal");
        assert!(err.to_string().contains("different campaign"), "{err}");

        cc.requests = 4_000;
        let resumed = chaos_campaign(&cfg, &cc).expect("resume under the first seed");
        assert_eq!(resumed.salvaged, 3);
        assert_eq!(resumed.table.to_string(), clean.table.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_that_does_not_name_the_digest_definition_is_refused() {
        // A journal written before meta lines named the digest definition
        // opens with this run's meta line minus that field, and its cells
        // carry digests of another definition.
        let cfg = SimConfig::fast_test();
        let dir = std::env::temp_dir().join(format!("twice-old-digests-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cc = CampaignConfig::new(4_000);
        cc.dir = Some(dir.clone());
        cc.resume = true;
        let meta = unseal_line(&meta_line(&cfg, &cc)).expect("a sealed meta line");
        let old = meta.replace(&format!(",\"digest_definition\":{DIGEST_DEFINITION}"), "");
        assert_ne!(old, meta, "the meta line names the digest definition");
        std::fs::write(dir.join(JOURNAL_FILE), seal_line(&old) + "\n").unwrap();
        let err = chaos_campaign(&cfg, &cc).expect_err("a journal of old-style digests");
        assert!(matches!(err, OpenError::ForeignJournal(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_device_row_arms_every_device_fault_and_flips_nothing() {
        let cfg = SimConfig::fast_test();
        let row = chaos::fault_grid(cfg.seed ^ 0xC4A0)
            .into_iter()
            .find(|r| r.label == "device faults")
            .expect("the grid has a device row");
        let cell = chaos::cell_config(&cfg, row.plan, true);
        let mut run = ResumableRun::new(&cell, &row.workload, chaos::chaos_defense(), 20_000)
            .expect("valid cell");
        run.run_to_completion(4_096)
            .expect("the device row never exhausts");
        let injected = |kind: FaultKind| -> u64 {
            run.system()
                .controllers()
                .iter()
                .map(|c| {
                    let engine = c.rcd().defense().fault_injector().expect("TWiCe injects");
                    c.rcd().fault_injector().injected(kind) + engine.injected(kind)
                })
                .sum()
        };
        for kind in [
            FaultKind::BankStuck,
            FaultKind::RefreshDrop,
            FaultKind::CounterStuckBit,
        ] {
            assert!(injected(kind) > 0, "{kind:?} never fired");
        }
        assert_eq!(run.system().bit_flip_count(), 0);
    }
}
