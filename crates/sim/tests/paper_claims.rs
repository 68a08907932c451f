//! The Figure 7 headline claims at paper scale (DDR4-2400, 64 banks,
//! the paper's thresholds), at the request counts `twice-exp fig7a`,
//! `fig7b` and `fig7x` print by default and EXPERIMENTS.md records.
//!
//! Together they take about 40 s of simulation on 2 cores, so they are
//! ignored by a plain `cargo test`. Run them with
//!
//! ```console
//! $ cargo test --release -p twice-sim --test paper_claims -- --ignored
//! ```
//!
//! The scaled-down shapes stay in tier-1: `experiments::fig7`'s unit
//! tests run the same sweeps on the fast-test system.

use twice_sim::config::SimConfig;
use twice_sim::experiments::fig7::{
    figure7_extended, figure7a_jobs, figure7b_jobs, Fig7Result, SPEC_SAMPLE,
};
use twice_sim::parallel::default_jobs;

fn ratio(result: &Fig7Result, workload: &str, defense: &str) -> f64 {
    result
        .ratio(workload, defense)
        .unwrap_or_else(|| panic!("no {defense} cell on {workload}"))
}

#[test]
#[ignore = "paper scale, ~10 s on 2 cores; run with --ignored"]
fn fig7a_twice_adds_no_acts_on_any_workload() {
    let result = figure7a_jobs(
        &SimConfig::paper_default(),
        &SPEC_SAMPLE,
        250_000,
        default_jobs(),
    );
    assert_eq!(result.rows.len(), 7, "SPECrate(avg) plus six workloads");
    for (w, _) in &result.rows {
        assert_eq!(ratio(&result, w, "TWiCe"), 0.0, "TWiCe added ACTs on {w}");
    }
}

#[test]
#[ignore = "paper scale, ~30 s on 2 cores; run with --ignored"]
fn fig7b_twice_stays_near_zero_where_cbt_blows_up() {
    // 1.5M requests: S2 needs most of a refresh window to reach its
    // counter-exhaustion phase.
    let result = figure7b_jobs(&SimConfig::paper_default(), 1_500_000, default_jobs());
    assert_eq!(ratio(&result, "S1", "TWiCe"), 0.0);
    assert_eq!(ratio(&result, "S2", "TWiCe"), 0.0);
    let twice_s3 = ratio(&result, "S3", "TWiCe");
    assert!(
        twice_s3 > 0.0 && twice_s3 < 1e-4,
        "TWiCe S3 ratio {twice_s3} (paper: 0.006%)"
    );
    let cbt_s3 = ratio(&result, "S3", "CBT");
    assert!(
        cbt_s3 > 10.0 * twice_s3,
        "CBT S3 {cbt_s3} must dwarf TWiCe {twice_s3}"
    );
    let cbt_s2 = ratio(&result, "S2", "CBT");
    let para2_s2 = ratio(&result, "S2", "PARA-0.002");
    assert!(
        cbt_s2 > para2_s2,
        "CBT must be the worst scheme on S2: {cbt_s2} vs {para2_s2}"
    );
}

#[test]
#[ignore = "paper scale, ~4 s on 2 cores; run with --ignored"]
fn fig7x_twice_matches_the_oracle_and_cra_thrashes_on_random_traffic() {
    let result = figure7_extended(&SimConfig::paper_default(), 250_000, default_jobs());
    let twice_s3 = ratio(&result, "S3", "TWiCe");
    let oracle_s3 = ratio(&result, "S3", "oracle");
    assert!(
        (twice_s3 - oracle_s3).abs() < 1e-4,
        "TWiCe S3 {twice_s3} vs oracle {oracle_s3}"
    );
    let cra_s1 = ratio(&result, "S1", "CRA");
    assert!(cra_s1 > 0.5, "CRA must degrade on random traffic: {cra_s1}");
}
