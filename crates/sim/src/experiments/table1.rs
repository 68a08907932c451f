//! Table 1: qualitative comparison of RH defenses — backed by
//! measurements from this reproduction rather than just claims.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::outcome::{Cell, CellError};
use crate::report::{percent, Table};
use crate::runner::{try_run_batch, RunSpec, WorkloadKind};
use twice::TableOrganization;
use twice_mitigations::DefenseKind;

/// One defense's Table 1 row, with the qualitative claims of the paper
/// and the measured evidence from this reproduction.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Defense label.
    pub defense: String,
    /// Where the scheme lives ("MC" or "RCD").
    pub location: &'static str,
    /// Measured additional-ACT ratio on a benign pattern (S1).
    pub typical_overhead: f64,
    /// Measured additional-ACT ratio on its worst adversarial pattern.
    pub adversarial_overhead: f64,
    /// Whether the scheme raised detections under attack.
    pub detects: bool,
    /// Total activations (normal + additional) across the three
    /// measured runs — the work unit behind `twice-exp bench`'s
    /// absolute-throughput figure.
    pub acts: u64,
}

/// Assembles one defense's row from its three finished runs, with the
/// serial `S1 → S2 → S3` error priority: the first failing run in that
/// order is the cell's error.
fn combine(
    kind: DefenseKind,
    location: &'static str,
    typical: Result<RunMetrics, CellError>,
    s2: Result<RunMetrics, CellError>,
    s3: Result<RunMetrics, CellError>,
) -> Result<Comparison, CellError> {
    let typical = typical?;
    // Each defense's worst pattern: CBT hates S2; everyone else S3;
    // CRA hates S1 itself, so take the max.
    let s2 = s2?;
    let s3 = s3?;
    let adversarial = s2
        .additional_act_ratio()
        .max(s3.additional_act_ratio())
        .max(typical.additional_act_ratio());
    let acts = [&typical, &s2, &s3]
        .iter()
        .map(|m| m.normal_acts + m.additional_acts)
        .sum();
    Ok(Comparison {
        defense: kind.to_string(),
        location,
        typical_overhead: typical.additional_act_ratio(),
        adversarial_overhead: adversarial,
        detects: s3.detections > 0,
        acts,
    })
}

/// Reproduces Table 1, measuring each scheme on a benign pattern (S1)
/// and on the adversarial patterns (S2 for the counter trees, S3 for
/// everyone) with `requests` accesses per run. A cell that fails —
/// malformed configuration, exhausted retry budget — degrades to a
/// structured error row instead of aborting the table.
///
/// The 12 runs (4 defenses × S1/S2/S3) go across a pool of `jobs`
/// workers. They are independent and seeded by `cfg`, so every `jobs`
/// value yields the same table — the pool only changes wall-clock time.
pub fn table1_jobs(cfg: &SimConfig, requests: u64, jobs: usize) -> (Table, Vec<Cell<Comparison>>) {
    let lineup: Vec<(DefenseKind, &'static str)> = vec![
        (DefenseKind::Cra { cache_entries: 64 }, "MC"),
        (DefenseKind::Cbt { counters: 256 }, "MC"),
        (DefenseKind::Para { p: 0.001 }, "MC"),
        (
            DefenseKind::Twice(TableOrganization::FullyAssociative),
            "RCD",
        ),
    ];
    let specs: Vec<RunSpec> = lineup
        .iter()
        .flat_map(|&(kind, _)| {
            [
                (WorkloadKind::S1, kind, requests),
                (WorkloadKind::S2, kind, requests),
                (WorkloadKind::S3, kind, requests),
            ]
        })
        .collect();
    let mut results = try_run_batch(cfg, &specs, jobs).into_iter();
    let mut cells = Vec::new();
    for (kind, location) in lineup {
        let typical = results.next().expect("one S1 run per defense");
        let s2 = results.next().expect("one S2 run per defense");
        let s3 = results.next().expect("one S3 run per defense");
        cells.push(Cell {
            experiment: "table1",
            cell: kind.to_string(),
            result: combine(kind, location, typical, s2, s3),
        });
    }
    let mut table = Table::new(
        "Table 1: TWiCe vs previous row-hammer defenses (measured)",
        &[
            "defense",
            "location",
            "typical overhead (S1)",
            "worst adversarial overhead",
            "detects attacks",
        ],
    );
    for cell in &cells {
        match &cell.result {
            Ok(c) => {
                table.row(&[
                    c.defense.clone(),
                    c.location.to_string(),
                    percent(c.typical_overhead),
                    percent(c.adversarial_overhead),
                    if c.detects { "yes" } else { "no" }.to_string(),
                ]);
            }
            Err(e) => {
                table.row(&[
                    cell.cell.clone(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("error: {e}"),
                ]);
            }
        }
    }
    (table, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::require;

    #[test]
    fn measured_table1_preserves_paper_ordering() {
        let cfg = SimConfig::fast_test();
        let (table, rows) = table1_jobs(&cfg, 30_000, 1);
        assert_eq!(table.len(), 4);
        let by_name = |n: &str| {
            require(&rows, n, |c: &Comparison| c.defense.contains(n))
                .unwrap_or_else(|e| panic!("{e}"))
        };
        let cra = by_name("CRA");
        let cbt = by_name("CBT");
        let para = by_name("PARA");
        let twice = by_name("TWiCe");
        // Paper's qualitative claims:
        assert!(twice.detects && cbt.detects && cra.detects);
        assert!(!para.detects, "PARA is attack-oblivious");
        assert!(
            twice.typical_overhead == 0.0,
            "TWiCe: no overhead on typical patterns"
        );
        assert!(
            cra.adversarial_overhead > para.adversarial_overhead,
            "CRA degrades badly on adversarial patterns"
        );
        assert!(
            cbt.adversarial_overhead > twice.adversarial_overhead,
            "CBT group refreshes dwarf TWiCe's ARRs"
        );
        // TWiCe's worst case is analytic: 2 extra ACTs per thRH ACTs.
        assert!(twice.adversarial_overhead <= 2.5 / cfg.params.th_rh as f64);
        assert_eq!(twice.location, "RCD");
    }

    #[test]
    fn pooled_table1_renders_the_serial_bytes() {
        let cfg = SimConfig::fast_test();
        let (serial, _) = table1_jobs(&cfg, 8_000, 1);
        let (pooled, _) = table1_jobs(&cfg, 8_000, 3);
        assert_eq!(pooled.to_string(), serial.to_string());
    }
}
