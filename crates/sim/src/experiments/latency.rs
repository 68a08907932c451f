//! E2: the §3.4 latency-spike claim, quantified.
//!
//! "CBT may generate bursts of DRAM refreshes … This flurry of refreshes
//! incur a spike in memory access latency, which hurts latency-critical
//! workloads." The controller's latency histogram lets us measure
//! exactly that: run the same adversarial traffic under CBT and under
//! TWiCe and compare tail latencies. TWiCe's worst case blocks one bank
//! for `2·tRC + tRP` (~104 ns); CBT's worst case refreshes a whole
//! counter group back-to-back.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::outcome::Cell;
use crate::report::Table;
use crate::runner::{try_run_batch, RunSpec, WorkloadKind};
use twice::TableOrganization;
use twice_mitigations::DefenseKind;

/// The latency-spike comparison.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Per-(workload, defense) cells; failures degrade to error rows.
    pub runs: Vec<Cell<RunMetrics>>,
    /// Rendered table.
    pub table: Table,
}

/// Runs E2: tail latency of each defense under `workloads`, across a
/// pool of `jobs` workers. Cells are independent, so the rendered table
/// is identical for every `jobs` value.
pub fn latency_spike_jobs(
    cfg: &SimConfig,
    workloads: &[(String, WorkloadKind, u64)],
    jobs: usize,
) -> LatencyResult {
    let defenses = [
        DefenseKind::None,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        DefenseKind::Cbt { counters: 256 },
    ];
    let specs: Vec<RunSpec> = workloads
        .iter()
        .flat_map(|(_, workload, requests)| {
            defenses.iter().map(|&d| (workload.clone(), d, *requests))
        })
        .collect();
    let mut results = try_run_batch(cfg, &specs, jobs).into_iter();
    let mut table = Table::new(
        "E2: request-latency spikes under refresh bursts (paper 3.4)",
        &["workload", "defense", "mean", "p99 (<=)", "max"],
    );
    let mut runs = Vec::new();
    for (label, _, _) in workloads {
        for &d in &defenses {
            let cell = Cell {
                experiment: "latency",
                cell: format!("{label}/{d}"),
                result: results.next().expect("one run per workload × defense"),
            };
            match &cell.result {
                Ok(m) => {
                    table.row(&[
                        label.clone(),
                        m.defense.clone(),
                        m.latency_mean.to_string(),
                        m.latency_p99.to_string(),
                        m.latency_max.to_string(),
                    ]);
                }
                Err(e) => {
                    table.row(&[
                        label.clone(),
                        d.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        format!("error: {e}"),
                    ]);
                }
            }
            runs.push(cell);
        }
    }
    LatencyResult { runs, table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::require;

    #[test]
    fn cbt_spikes_dwarf_twice_on_its_adversarial_pattern() {
        // Scaled S2: enough sweep to exhaust the small-window tree, then
        // hammer the other half so CBT group-refreshes.
        let mut cfg = SimConfig::fast_test();
        // CBT-256 cannot exhaust in the fast window; use the hammer (S3)
        // where CBT refreshes a leaf group per crossing instead.
        cfg.params.th_rh = 256;
        let workloads = vec![("S3".to_string(), WorkloadKind::S3, 60_000u64)];
        let result = latency_spike_jobs(&cfg, &workloads, 1);
        let by = |name: &str| {
            require(&result.runs, name, |m: &RunMetrics| {
                m.defense.contains(name)
            })
            .unwrap_or_else(|e| panic!("{e}"))
        };
        let twice = by("TWiCe");
        let cbt = by("CBT");
        let none = by("none");
        // TWiCe's ARR adds at most a ~104ns blocking window.
        assert!(
            twice.latency_max.as_ps() <= none.latency_max.as_ps() + 300_000,
            "TWiCe max {} vs none max {}",
            twice.latency_max,
            none.latency_max
        );
        // CBT's group refresh blocks the bank for (group+2) row cycles.
        assert!(
            cbt.latency_max > twice.latency_max,
            "CBT max {} must exceed TWiCe max {}",
            cbt.latency_max,
            twice.latency_max
        );
    }
}
