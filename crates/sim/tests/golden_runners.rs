//! Golden outputs of the two supervised grid drivers — the chaos
//! campaign and the red-team search — at small fixed sizes.
//!
//! The `--jobs` suites compare a serial run with a pooled one inside one
//! binary, so they cannot see a change that moves both sides at once.
//! This test pins both sides against a checked-in file instead:
//! `--jobs 1` and `--jobs 4` must each reproduce `golden_runners.txt`
//! byte for byte.
//!
//! On a mismatch the actual output is written under
//! `CARGO_TARGET_TMPDIR` and the changed rows are printed. Re-baselining
//! is copying that file over the golden one.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use twice_mitigations::DefenseKind;
use twice_sim::campaign::{chaos_campaign, CampaignConfig, JOURNAL_FILE};
use twice_sim::config::SimConfig;
use twice_sim::redteam::{redteam_search, RedteamConfig, RedteamOutcome};

const GOLDEN: &str = include_str!("golden_runners.txt");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twice-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The chaos grid with two sabotaged cells: report table, per-cell
/// digests or errors, clean journal bytes.
fn chaos(jobs: usize, out: &mut String) {
    let dir = temp_dir(&format!("chaos-{jobs}"));
    let mut cc = CampaignConfig::new(12_000);
    cc.epoch = 1_024;
    cc.sabotage = 2;
    cc.jobs = jobs;
    cc.dir = Some(dir.clone());
    let report = chaos_campaign(&SimConfig::fast_test(), &cc).expect("chaos campaign");
    writeln!(
        out,
        "chaos halted={} salvaged={}",
        report.halted, report.salvaged
    )
    .unwrap();
    for line in report.table.to_string().lines() {
        writeln!(out, "chaos table {line}").unwrap();
    }
    for c in &report.cells {
        match &c.outcome.result {
            Ok(o) => writeln!(
                out,
                "chaos cell {} digest {:#018x}",
                c.outcome.cell, o.digest
            ),
            Err(e) => writeln!(out, "chaos cell {} error {e}", c.outcome.cell),
        }
        .unwrap();
    }
    let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("chaos journal");
    for line in journal.lines() {
        writeln!(out, "chaos journal {line}").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The red-team search with two sabotaged genomes: per-generation
/// digests and the champion.
fn redteam(jobs: usize, out: &mut String) {
    let dir = temp_dir(&format!("redteam-{jobs}"));
    let mut rc = RedteamConfig::new(
        SimConfig::fast_test(),
        DefenseKind::Trr { entries: 4 },
        dir.clone(),
    );
    rc.population = 6;
    rc.generations = 2;
    rc.requests = 3_000;
    rc.epoch = 512;
    rc.sabotage = 2;
    rc.jobs = jobs;
    let report = match redteam_search(&rc).expect("red-team search") {
        RedteamOutcome::Completed(r) => r,
        other => panic!("the search must complete, got {other:?}"),
    };
    for g in &report.generations {
        writeln!(
            out,
            "redteam gen {} digest {:#018x} best {} quarantined {}",
            g.gen, g.digest, g.best_fitness, g.quarantined
        )
        .unwrap();
    }
    let (genome, best) = report.best.first().expect("a champion");
    writeln!(
        out,
        "redteam champion {} fitness {} flips {}",
        genome.hex(),
        best.fitness,
        best.bit_flips
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

fn actual(jobs: usize) -> String {
    let mut out = String::new();
    chaos(jobs, &mut out);
    redteam(jobs, &mut out);
    out
}

/// Fails with the changed rows, after saving the actual output where a
/// re-baselining copy can pick it up.
fn compare(jobs: usize, got: &str) {
    if got == GOLDEN {
        return;
    }
    let saved =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden_runners.jobs{jobs}.txt"));
    std::fs::write(&saved, got).expect("save the actual output");
    let want: Vec<&str> = GOLDEN.lines().collect();
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
        "--jobs {jobs} drifted from crates/sim/tests/golden_runners.txt:\n{diff}\
         actual output saved to {}; copy it over the golden file to re-baseline",
        saved.display()
    );
}

#[test]
fn serial_and_pooled_runners_reproduce_the_golden_file() {
    for jobs in [1, 4] {
        compare(jobs, &actual(jobs));
    }
}
