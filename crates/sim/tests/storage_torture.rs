//! Storage-torture: the self-healing campaign persistence ladder under
//! injected I/O faults (DESIGN.md §5f).
//!
//! A campaign whose every journal/checkpoint byte flows through a
//! fault-injecting [`FaultyIo`] — ENOSPC, silently torn writes, partial
//! reads, failed renames, read-side bit-rot — must still converge to
//! the pristine run's exact per-cell state digests and report: corrupt
//! journals salvage, corrupt checkpoints recompute, I/O-failing cells
//! retry, and only a storage layer that *never* heals is allowed to
//! quarantine cells (and even then the campaign completes, degraded,
//! instead of aborting).

use std::sync::Arc;
use twice_common::fault::{FaultKind, FaultPlan};
use twice_sim::campaign::{chaos_campaign, CampaignConfig, CampaignReport, JOURNAL_FILE};
use twice_sim::cio::FaultyIo;
use twice_sim::config::SimConfig;
use twice_sim::grid::{checkpoint_path, JOURNAL_CORRUPT_FILE};
use twice_sim::outcome::CellError;

const REQUESTS: u64 = 4_000;
const EPOCH: u64 = 512;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twice-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per-cell digests in grid order; failures panic with their typed
/// error so divergence is never hidden.
fn digests(report: &CampaignReport, label: &str) -> Vec<(String, u64)> {
    report
        .cells
        .iter()
        .map(|c| {
            let o = c
                .outcome
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{label}: cell {} failed: {e}", c.outcome.cell));
            (c.outcome.cell.clone(), o.digest)
        })
        .collect()
}

fn base_config(dir: &std::path::Path) -> CampaignConfig {
    let mut cc = CampaignConfig::new(REQUESTS);
    cc.epoch = EPOCH;
    cc.dir = Some(dir.to_path_buf());
    cc
}

#[test]
fn randomized_faults_with_kill_and_resume_match_the_pristine_run() {
    let cfg = SimConfig::fast_test();

    // The pristine reference: real I/O, 4 workers.
    let ref_dir = temp_dir("rand-ref");
    let mut cc = base_config(&ref_dir);
    cc.jobs = 4;
    let pristine = chaos_campaign(&cfg, &cc).expect("pristine campaign");
    assert!(!pristine.storage.is_degraded(), "{}", pristine.storage);

    // Leg 1: a 4-worker campaign under the full randomized fault
    // schedule, killed mid-grid by --halt-after.
    let dir = temp_dir("rand-faulty");
    let mut cc = base_config(&dir);
    cc.jobs = 4;
    cc.halt_after = Some(3);
    cc.retries = 6;
    let fio1 = Arc::new(FaultyIo::with_default_plan(0x70A7));
    cc.io = fio1.clone();
    let halted = chaos_campaign(&cfg, &cc).expect("halted faulty campaign");
    assert!(halted.halted, "the crash simulation must trigger");

    // Leg 2: resume the same directory under a *different* fault
    // schedule — recovery must not depend on replaying the same faults.
    let mut cc = base_config(&dir);
    cc.jobs = 4;
    cc.retries = 6;
    cc.resume = true;
    let fio2 = Arc::new(FaultyIo::with_default_plan(0x5EED));
    cc.io = fio2.clone();
    let resumed = chaos_campaign(&cfg, &cc).expect("resumed faulty campaign");

    assert!(
        fio1.injected_total() + fio2.injected_total() > 0,
        "the torture run must actually inject storage faults"
    );
    assert!(!resumed.halted);
    assert_eq!(
        resumed.storage.quarantined_cells, 0,
        "bounded retry must absorb the default fault rates: {}",
        resumed.storage
    );
    assert_eq!(
        digests(&resumed, "faulty"),
        digests(&pristine, "pristine"),
        "kill + resume under storage faults must reproduce the pristine digests"
    );
    assert_eq!(
        resumed.table.to_string(),
        pristine.table.to_string(),
        "the faulty run's report must be byte-identical to the pristine run's"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bit_rotted_journal_is_salvaged_and_the_report_still_matches() {
    let cfg = SimConfig::fast_test();
    let dir = temp_dir("salvage");
    let cc = base_config(&dir);
    let pristine = chaos_campaign(&cfg, &cc).expect("pristine campaign");

    // Rot one bit in the middle of the 5th journal line: that line and
    // everything after it become untrusted.
    let journal = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal).expect("journal readable");
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let total_lines = line_starts.len() - 1;
    assert!(total_lines >= 6, "grid must journal at least 6 cells");
    let at = line_starts[4] + 10;
    bytes[at] ^= 0x01;
    std::fs::write(&journal, &bytes).expect("plant the rot");

    let mut cc = base_config(&dir);
    cc.resume = true;
    let resumed = chaos_campaign(&cfg, &cc).expect("salvaging campaign");

    assert_eq!(resumed.storage.journal_salvages, 1, "{}", resumed.storage);
    assert!(
        resumed.storage.salvaged_lines_dropped >= 1,
        "the rotted line (and the untrusted tail) must be dropped: {}",
        resumed.storage
    );
    assert!(
        dir.join(JOURNAL_CORRUPT_FILE).exists(),
        "the corrupt suffix must be preserved for forensics"
    );
    assert_eq!(
        resumed.salvaged, 4,
        "exactly the 4 lines before the rot are trusted"
    );
    assert_eq!(
        resumed.table.to_string(),
        pristine.table.to_string(),
        "dropped cells recompute deterministically, so the report matches"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_checkpoint_recomputes_the_cell_instead_of_aborting() {
    let cfg = SimConfig::fast_test();
    let ref_dir = temp_dir("ckpt-ref");
    let pristine = chaos_campaign(&cfg, &base_config(&ref_dir)).expect("pristine campaign");

    // A resume finds a checkpoint too damaged to even frame-parse.
    let dir = temp_dir("ckpt-bad");
    std::fs::create_dir_all(&dir).expect("campaign dir");
    std::fs::write(checkpoint_path(&dir, 0), b"not a checkpoint at all")
        .expect("plant the corrupt checkpoint");
    let mut cc = base_config(&dir);
    cc.resume = true;
    let report = chaos_campaign(&cfg, &cc).expect("recovering campaign");

    assert!(
        report.storage.corrupt_checkpoints >= 1,
        "the rejected blob must be counted: {}",
        report.storage
    );
    assert!(report.cells.iter().all(|c| c.outcome.result.is_ok()));
    assert_eq!(
        report.table.to_string(),
        pristine.table.to_string(),
        "recomputing from scratch must reproduce the pristine report"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_enospc_burst_fails_one_attempt_and_the_retry_completes_the_cell() {
    let cfg = SimConfig::fast_test();
    let ref_dir = temp_dir("burst-ref");
    let pristine = chaos_campaign(&cfg, &base_config(&ref_dir)).expect("pristine campaign");

    // The first three ENOSPC opportunities fire: the first checkpoint
    // write of the first cell fails all of its per-operation retries,
    // failing the whole attempt. The cell-level retry then sails
    // through a recovered disk.
    let dir = temp_dir("burst");
    let plan = FaultPlan::with_seed(11)
        .at_event(FaultKind::StorageEnospc, 0)
        .at_event(FaultKind::StorageEnospc, 1)
        .at_event(FaultKind::StorageEnospc, 2);
    let mut cc = base_config(&dir);
    cc.io = Arc::new(FaultyIo::new(plan));
    let report = chaos_campaign(&cfg, &cc).expect("bursted campaign");

    assert_eq!(report.storage.retried_cells, 1, "{}", report.storage);
    assert_eq!(report.storage.quarantined_cells, 0, "{}", report.storage);
    assert!(report.cells.iter().all(|c| c.outcome.result.is_ok()));
    assert_eq!(
        report.table.to_string(),
        pristine.table.to_string(),
        "a retried cell must converge to the pristine outcome"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disk_that_never_recovers_quarantines_cells_but_the_campaign_completes() {
    let cfg = SimConfig::fast_test();
    let dir = temp_dir("quarantine");
    let mut cc = CampaignConfig::new(2_000);
    cc.epoch = 256;
    cc.dir = Some(dir.clone());
    cc.retries = 2;
    cc.io = Arc::new(FaultyIo::new(
        FaultPlan::with_seed(13).rate(FaultKind::StorageEnospc, 1.0),
    ));
    let report = chaos_campaign(&cfg, &cc).expect("degraded campaign");

    assert!(!report.halted, "quarantine is completion, not a halt");
    let grid = report.cells.len();
    assert!(grid >= 2, "the whole grid must be accounted for");
    for cell in &report.cells {
        match &cell.outcome.result {
            Err(CellError::Quarantined { attempts, .. }) => {
                assert_eq!(*attempts, 2, "both configured attempts must be spent");
            }
            other => panic!(
                "cell {} must be quarantined on a dead disk, got {other:?}",
                cell.outcome.cell
            ),
        }
    }
    assert_eq!(report.storage.quarantined_cells, grid as u64);
    assert_eq!(report.storage.retried_cells, grid as u64);
    assert!(report.storage.is_degraded());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_runs_sweep_orphans_and_resumes_keep_live_checkpoints() {
    let cfg = SimConfig::fast_test();
    let dir = temp_dir("sweep");
    std::fs::create_dir_all(&dir).expect("campaign dir");
    // Leftovers of a hypothetical killed run: an orphaned rename temp,
    // a parallel per-cell checkpoint, and the shared serial checkpoint.
    std::fs::write(dir.join("cells.tmp"), b"orphaned rename").expect("tmp");
    std::fs::write(dir.join("cell-07.ckpt"), b"stale worker state").expect("stale");
    std::fs::write(checkpoint_path(&dir, 0), b"stale serial state").expect("stale");

    // A fresh run sweeps all three before touching anything.
    let report = chaos_campaign(&cfg, &base_config(&dir)).expect("fresh campaign");
    assert_eq!(report.storage.swept_orphans, 3, "{}", report.storage);
    assert!(!dir.join("cells.tmp").exists());
    assert!(!dir.join("cell-07.ckpt").exists());

    // A resume sweeps only the temp file: checkpoints are live state.
    std::fs::write(dir.join("cells.tmp"), b"orphaned again").expect("tmp");
    std::fs::write(checkpoint_path(&dir, 0), b"in-flight state").expect("live");
    let mut cc = base_config(&dir);
    cc.resume = true;
    let resumed = chaos_campaign(&cfg, &cc).expect("resumed campaign");
    assert_eq!(resumed.storage.swept_orphans, 1, "{}", resumed.storage);
    assert_eq!(
        resumed.salvaged,
        resumed.cells.len(),
        "every cell comes from the journal on a full resume"
    );
    assert_eq!(resumed.table.to_string(), report.table.to_string());

    let _ = std::fs::remove_dir_all(&dir);
}
