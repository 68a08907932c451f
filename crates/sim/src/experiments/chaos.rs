//! E4 (extension): chaos campaign — TWiCe under injected hardware faults.
//!
//! The paper's §4.3 safety proof assumes ideal hardware: counter SRAM
//! never flips, ARR conversions survive the command bus, the nack-resend
//! loop converges. This campaign violates those assumptions on purpose
//! (see `twice_common::fault`) and asks the only question that matters:
//! does `twice_dram::hammer` ever record a bit flip?
//!
//! Two engine configurations face the same seeded fault stream:
//!
//! * **hardened** — per-entry parity with scrub-on-prune; a corrupted
//!   entry fails safe (evicted with an immediate ARR, like `TableFull`),
//!   and the MC opens a PARA fallback window while corruption is being
//!   reported.
//! * **unhardened** — the paper's original, fault-oblivious design: an
//!   SEU silently corrupts the activation count, and an adversarial
//!   (`Hottest`) upset stream can hold the hot counter below `th_rh`
//!   forever, so the ARR never fires and the victim rows accumulate the
//!   full `N_th` disturbance.
//!
//! The grid rows run the S3 hammer, except the device-fault row, which
//! runs the 16-tenant blend with 2 attackers (hammering mixed with
//! benign traffic).
//!
//! The grid is executed by the crash-safe supervisor in
//! [`crate::campaign`]: each cell runs in epochs under `catch_unwind`
//! with optional watchdog budgets, and completed cells can be journaled
//! so an interrupted campaign resumes instead of restarting.

use crate::config::SimConfig;
use crate::metrics::CampaignTotals;
use crate::outcome::Cell;
use crate::report::Table;
use crate::runner::WorkloadKind;
use crate::system::System;
use twice::TableOrganization;
use twice_common::fault::{FaultKind, FaultPlan, FaultTargeting};
use twice_mitigations::DefenseKind;

/// One chaos run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Human-readable fault-configuration label.
    pub label: String,
    /// Whether the engine's parity/scrub hardening was on.
    pub scrubbing: bool,
    /// Counter-SRAM SEUs the engine's injector landed.
    pub seu_injected: u64,
    /// Parity failures the hardened engine caught (0 when unhardened —
    /// without the parity column the damage is invisible).
    pub corruption_events: u64,
    /// ARRs plus every other defense-driven extra activation.
    pub additional_acts: u64,
    /// Protocol nacks (ARR in progress).
    pub protocol_nacks: u64,
    /// Chaos-injected spurious nacks.
    pub injected_nacks: u64,
    /// MC-side PARA fallback windows opened on corruption reports.
    pub fallback_windows: u64,
    /// Whether the run died with `RetryExhausted` instead of finishing.
    pub retry_exhausted: bool,
    /// Bit flips recorded by the DRAM disturbance model. The whole point.
    pub bit_flips: usize,
    /// The cell's final [`ResumableRun::digest`](crate::checkpoint::ResumableRun::digest)
    /// over the complete simulator state. Journaled with the outcome, so
    /// a resumed campaign — and the parallel-equivalence test — can
    /// compare cells bit for bit, not just by their summary counters.
    pub digest: u64,
}

impl ChaosOutcome {
    /// This cell's contribution to the campaign-level aggregates. Each
    /// worker produces its own [`CampaignTotals`] per cell; the campaign
    /// merges them at collection time instead of sharing counters across
    /// threads.
    pub fn totals(&self) -> CampaignTotals {
        CampaignTotals {
            cells: 1,
            requests: 0,
            normal_acts: 0,
            additional_acts: self.additional_acts,
            detections: 0,
            bit_flips: self.bit_flips as u64,
            nacks: self.protocol_nacks + self.injected_nacks,
            energy_pj: 0,
        }
    }
}

/// The defense every chaos cell runs: the paper's fully-associative
/// TWiCe (hardening is toggled per cell through the config).
pub fn chaos_defense() -> DefenseKind {
    DefenseKind::Twice(TableOrganization::FullyAssociative)
}

/// Derives one cell's configuration: the fault plan under test, the
/// hardening toggle, and the standing PARA-0.01 MC fallback.
pub fn cell_config(cfg_base: &SimConfig, plan: FaultPlan, scrubbing: bool) -> SimConfig {
    let mut cfg = cfg_base.clone();
    cfg.fault_plan = plan;
    cfg.twice_scrubbing = scrubbing;
    cfg.para_fallback = Some(0.01);
    cfg
}

/// Extracts a [`ChaosOutcome`] from a finished (or retry-exhausted)
/// cell's system state.
pub(crate) fn collect_outcome(
    system: &System,
    label: &str,
    scrubbing: bool,
    retry_exhausted: bool,
    digest: u64,
) -> ChaosOutcome {
    let m = system.metrics("s3-chaos");
    let ctrls = system.controllers();
    ChaosOutcome {
        label: label.to_string(),
        scrubbing,
        seu_injected: ctrls.iter().map(|c| c.defense_faults_injected()).sum(),
        corruption_events: ctrls.iter().map(|c| c.corruption_events()).sum(),
        additional_acts: m.additional_acts,
        protocol_nacks: ctrls
            .iter()
            .flat_map(|c| c.rank_stats())
            .map(|s| s.nacks)
            .sum(),
        injected_nacks: ctrls
            .iter()
            .flat_map(|c| c.rank_stats())
            .map(|s| s.injected_nacks)
            .sum(),
        fallback_windows: ctrls.iter().map(|c| c.fallback_windows()).sum(),
        retry_exhausted,
        bit_flips: m.bit_flips,
        digest,
    }
}

/// One row of the fault grid: a labelled fault plan and the traffic it
/// is injected into. Every row runs against both engine configurations.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// The report's `faults` column.
    pub label: String,
    /// The faults under test.
    pub plan: FaultPlan,
    /// The workload the row runs.
    pub workload: WorkloadKind,
}

impl FaultRow {
    fn s3(label: impl Into<String>, plan: FaultPlan) -> FaultRow {
        FaultRow {
            label: label.into(),
            plan,
            workload: WorkloadKind::S3,
        }
    }
}

/// The recoverable device-level fault plan of the grid's device row:
/// counter-SRAM soft errors (transient and stuck bits), stuck bank
/// FSMs, dropped and postponed refresh windows, spurious nacks, and bus
/// timing jitter. Every kind is absorbed by a defense layer (scrub,
/// nack/retry, ARR): the hardened engine flips no bit under it.
pub fn default_device_plan(seed: u64) -> FaultPlan {
    FaultPlan::with_seed(seed)
        .rate(FaultKind::CounterBitFlip, 1e-3)
        .rate(FaultKind::CounterStuckBit, 5e-4)
        .rate(FaultKind::SpuriousNack, 5e-3)
        .rate(FaultKind::TimingJitter, 5e-3)
        .rate(FaultKind::RefreshPostpone, 2e-3)
        .rate(FaultKind::RefreshDrop, 1e-2)
        .rate(FaultKind::BankStuck, 2e-3)
}

/// The campaign's fault grid: an SEU-rate sweep (random targeting), the
/// adversarial hottest-counter stream, a command-bus gauntlet (spurious
/// nacks + dropped/duplicated ARRs + refresh postponement + jitter) on
/// the S3 hammer, and the [`default_device_plan`] on the 16-tenant blend
/// with 2 attackers.
pub fn fault_grid(seed: u64) -> Vec<FaultRow> {
    let mut grid = Vec::new();
    for rate in [1e-4, 1e-3, 1e-2] {
        grid.push(FaultRow::s3(
            format!("seu {rate:.0e} random"),
            FaultPlan::with_seed(seed).rate(FaultKind::CounterBitFlip, rate),
        ));
    }
    grid.push(FaultRow::s3(
        "seu 1e-2 hottest",
        FaultPlan::with_seed(seed)
            .rate(FaultKind::CounterBitFlip, 1e-2)
            .targeting(FaultTargeting::Hottest),
    ));
    grid.push(FaultRow::s3(
        "bus gauntlet",
        FaultPlan::with_seed(seed)
            .rate(FaultKind::SpuriousNack, 1e-3)
            .rate(FaultKind::ArrDrop, 1e-2)
            .rate(FaultKind::ArrDuplicate, 1e-2)
            .rate(FaultKind::RefreshPostpone, 1e-2)
            .rate(FaultKind::TimingJitter, 1e-3),
    ));
    grid.push(FaultRow {
        label: "device faults".to_string(),
        plan: default_device_plan(seed),
        workload: WorkloadKind::TenantBlend { attackers: 2 },
    });
    grid
}

/// Renders the campaign table: completed cells show their measurements,
/// failed cells degrade to a structured error row instead of aborting
/// the report.
pub(crate) fn render_table<'a>(cells: impl IntoIterator<Item = &'a Cell<ChaosOutcome>>) -> Table {
    let mut table = Table::new(
        "E4 (extension): fault-injection campaign",
        &[
            "faults",
            "engine",
            "SEUs landed",
            "corruption caught",
            "extra ACTs",
            "nacks (proto/injected)",
            "fallback windows",
            "retry exhausted",
            "bit flips",
        ],
    );
    for cell in cells {
        match &cell.result {
            Ok(o) => {
                table.row(&[
                    o.label.clone(),
                    if o.scrubbing {
                        "hardened"
                    } else {
                        "unhardened"
                    }
                    .to_string(),
                    o.seu_injected.to_string(),
                    o.corruption_events.to_string(),
                    o.additional_acts.to_string(),
                    format!("{}/{}", o.protocol_nacks, o.injected_nacks),
                    o.fallback_windows.to_string(),
                    if o.retry_exhausted { "YES" } else { "no" }.to_string(),
                    o.bit_flips.to_string(),
                ]);
            }
            Err(e) => {
                let (label, engine) = cell.cell.rsplit_once('/').unwrap_or((&cell.cell[..], "?"));
                table.row(&[
                    label.to_string(),
                    engine.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("error: {e}"),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{chaos_campaign, CampaignConfig};
    use crate::checkpoint::ResumableRun;
    use crate::outcome::require;

    #[test]
    fn hardened_twice_survives_the_full_grid() {
        let cfg = SimConfig::fast_test();
        let report = chaos_campaign(&cfg, &CampaignConfig::new(60_000)).expect("in memory");
        let cells: Vec<Cell<ChaosOutcome>> = report.cells.into_iter().map(|c| c.outcome).collect();
        assert_eq!(report.table.len(), cells.len());
        assert_eq!(report.failed, 0);
        for cell in &cells {
            assert!(
                cell.result.is_ok(),
                "no cell may fail: {:?}",
                cell.error_line()
            );
        }
        for o in crate::outcome::completed(&cells).filter(|o| o.scrubbing) {
            assert_eq!(o.bit_flips, 0, "hardened engine must stay safe: {o:?}");
            assert!(
                !o.retry_exhausted,
                "retry budget must absorb the grid: {o:?}"
            );
        }
        // The adversarial stream demonstrably defeats the unhardened
        // engine — the hot counter never reaches th_rh, so no ARR fires
        // and the victims take the full N_th disturbance.
        let adversarial = require(&cells, "unhardened hottest cell", |o| {
            o.label.contains("hottest") && !o.scrubbing
        })
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            adversarial.bit_flips > 0,
            "the unhardened engine must lose the hot counter: {adversarial:?}"
        );
        // Same fault stream, hardened: every upset is caught by parity.
        let defended = require(&cells, "hardened hottest cell", |o| {
            o.label.contains("hottest") && o.scrubbing
        })
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(defended.seu_injected > 0, "faults must actually land");
        assert!(
            defended.corruption_events > 0,
            "parity must catch the upsets: {defended:?}"
        );
        assert!(
            defended.fallback_windows > 0,
            "corruption reports must open PARA fallback windows: {defended:?}"
        );
    }

    #[test]
    fn bus_gauntlet_exercises_the_nack_path_without_divergence() {
        let cfg = SimConfig::fast_test();
        let plan = FaultPlan::with_seed(7)
            .rate(FaultKind::SpuriousNack, 1e-3)
            .rate(FaultKind::TimingJitter, 1e-3);
        let cell = cell_config(&cfg, plan, true);
        let mut run = ResumableRun::new(&cell, &WorkloadKind::S3, chaos_defense(), 30_000)
            .expect("valid cell");
        let retry_exhausted = run.run_to_completion(4096).is_err();
        let o = collect_outcome(
            run.system(),
            "nack+jitter",
            true,
            retry_exhausted,
            run.digest(),
        );
        assert!(o.injected_nacks > 0, "spurious nacks must land: {o:?}");
        assert!(
            !o.retry_exhausted,
            "transient nacks must be absorbed: {o:?}"
        );
        assert_eq!(o.bit_flips, 0);
    }
}
