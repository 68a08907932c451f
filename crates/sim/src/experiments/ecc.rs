//! E3 (extension): in-DRAM ECC is not a row-hammer defense.
//!
//! §2.2 names in-DRAM ECC as the other cell-repair technique besides row
//! sparing. A natural question the paper leaves to the reader: doesn't
//! SEC-DED ECC make TWiCe unnecessary? This experiment answers it with
//! the fault model's overdrive mode (extra bit flips as disturbance
//! grows past `N_th`): a hammer that barely crosses the threshold is
//! absorbed by ECC, but a sustained hammer produces multi-bit codeword
//! errors ECC can at best *detect* — and sometimes silently miscorrects
//! — while TWiCe simply prevents the damage.

use crate::config::SimConfig;
use crate::outcome::{Cell, CellError};
use crate::report::Table;
use crate::runner::{try_build_source, WorkloadKind};
use crate::system::System;
use twice::TableOrganization;
use twice_mitigations::DefenseKind;
use twice_workloads::AccessSource;

/// Per-run ECC outcome summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccSummary {
    /// Rows with any corruption.
    pub corrupted_rows: usize,
    /// Codewords ECC corrected.
    pub corrected: usize,
    /// Codewords ECC detected but could not correct.
    pub uncorrectable: usize,
    /// Codewords where ECC silently mis-corrected (or missed) damage.
    pub silent: usize,
}

/// Runs `workload` for `requests` on `cfg` under `defense` and judges
/// every corrupted row with the SEC-DED model.
///
/// # Errors
///
/// [`CellError::InvalidConfig`] for a malformed configuration and
/// [`CellError::RetryExhausted`] when the controller gives up — both
/// degrade one table cell instead of aborting the experiment.
pub fn run_with_ecc_judgement(
    cfg: &SimConfig,
    workload: WorkloadKind,
    defense: DefenseKind,
    requests: u64,
) -> Result<EccSummary, CellError> {
    cfg.validate()
        .map_err(|e| CellError::InvalidConfig(e.to_string()))?;
    let mut system = System::new(cfg, defense);
    let trace = try_build_source(cfg, &workload)?.take_requests(requests);
    system
        .run(trace)
        .map_err(|e| CellError::RetryExhausted(e.to_string()))?;
    let mut summary = EccSummary {
        corrupted_rows: 0,
        corrected: 0,
        uncorrectable: 0,
        silent: 0,
    };
    for ctrl in system.controllers() {
        for (bank_idx, rank) in ctrl.rcd().ranks().iter().enumerate() {
            let _ = bank_idx;
            for bank in 0..rank.config().banks {
                for row in rank.corrupted_data_rows(bank) {
                    summary.corrupted_rows += 1;
                    let (c, u, s) = rank.ecc_judgement(bank, row);
                    summary.corrected += c;
                    summary.uncorrectable += u;
                    summary.silent += s;
                }
            }
        }
    }
    Ok(summary)
}

/// Runs E3 and renders the comparison table. A failed run degrades to a
/// structured error row instead of aborting the experiment. The two
/// runs go across a pool of `jobs` workers; they are independent and
/// seeded, so the table is identical for every `jobs` value.
pub fn ecc_experiment_jobs(
    cfg_base: &SimConfig,
    requests: u64,
    jobs: usize,
) -> (Table, Vec<Cell<EccSummary>>) {
    // Overdrive: one extra flip per N_th/32 of excess disturbance, so a
    // sustained hammer sprays enough bits for same-codeword collisions.
    let mut cfg = cfg_base.clone();
    cfg.overshoot_interval = Some((cfg.fault_n_th / 32).max(1));
    let runs = [
        ("no defense", DefenseKind::None),
        (
            "TWiCe",
            DefenseKind::Twice(TableOrganization::FullyAssociative),
        ),
    ];
    let mut results = crate::parallel::parallel_map(jobs, &runs, |_, (_, defense)| {
        run_with_ecc_judgement(&cfg, WorkloadKind::S3, *defense, requests)
    })
    .into_iter();
    let mut table = Table::new(
        "E3 (extension): SEC-DED ECC vs a sustained hammer",
        &[
            "defense",
            "corrupted rows",
            "ECC corrected",
            "ECC uncorrectable",
            "ECC silent",
        ],
    );
    let mut out = Vec::new();
    for (label, _) in runs {
        let cell = Cell {
            experiment: "ecc",
            cell: label.to_string(),
            result: results.next().expect("one summary per configured run"),
        };
        match &cell.result {
            Ok(s) => {
                table.row(&[
                    label.to_string(),
                    s.corrupted_rows.to_string(),
                    s.corrected.to_string(),
                    s.uncorrectable.to_string(),
                    s.silent.to_string(),
                ]);
            }
            Err(e) => {
                table.row(&[
                    label.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("error: {e}"),
                ]);
            }
        }
        out.push(cell);
    }
    (table, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_hammer_defeats_ecc_but_twice_prevents_it() {
        let cfg = SimConfig::fast_test();
        let (table, runs) = ecc_experiment_jobs(&cfg, 60_000, 1);
        assert_eq!(table.len(), 2);
        let by = |cell: &Cell<EccSummary>| {
            *cell
                .value()
                .unwrap_or_else(|| panic!("{}", cell.error_line().unwrap()))
        };
        let unprotected = by(&runs[0]);
        let twice = by(&runs[1]);
        assert!(
            unprotected.corrupted_rows > 0,
            "the hammer must corrupt rows undefended"
        );
        assert!(
            unprotected.uncorrectable + unprotected.silent > 0,
            "overdriven damage must exceed SEC-DED: {unprotected:?}"
        );
        assert_eq!(twice.corrupted_rows, 0, "TWiCe prevents the damage");
    }

    #[test]
    fn a_barely_crossing_hammer_is_absorbed_by_ecc() {
        // Without overdrive, each victim gets exactly one flipped bit —
        // within SEC-DED's correction power.
        let cfg = SimConfig::fast_test(); // overshoot disabled
        let s = run_with_ecc_judgement(&cfg, WorkloadKind::S3, DefenseKind::None, 60_000)
            .expect("fault-free run");
        assert!(s.corrupted_rows > 0);
        // One flip lands per victim per window; flips persist through
        // refresh (that is what makes row-hammer dangerous), so a
        // multi-window run accrues several *scattered* single-bit
        // errors — all within SEC-DED's power.
        assert_eq!(s.uncorrectable, 0, "{s:?}");
        assert_eq!(s.silent, 0, "{s:?}");
        assert!(s.corrected >= s.corrupted_rows);
    }
}
