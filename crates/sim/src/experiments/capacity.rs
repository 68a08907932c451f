//! §4.4: the counter-table capacity bound (experiment B1).
//!
//! Three views of the same number: the closed-form carry-exact bound,
//! the paper's reported figure, and an empirical maximum from (a) the
//! front-loading adversary of `twice::bound` and (b) a live TWiCe engine
//! fed a high-pressure stream through the real simulator.

use crate::config::SimConfig;
use crate::report::Table;
use crate::runner::{run, WorkloadKind};
use twice::{CapacityBound, TwiceParams};
use twice_common::{BankId, RowHammerDefense, RowId, Time};

/// The capacity experiment's outcome.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// The analytic bound.
    pub bound: CapacityBound,
    /// Adversarial-schedule occupancy (must be ≤ bound).
    pub adversarial_occupancy: usize,
    /// Rendered table.
    pub table: Table,
}

/// Runs B1 for `params`, simulating the adversary for `pis` pruning
/// intervals.
pub fn capacity(params: &TwiceParams, pis: u64) -> CapacityResult {
    let bound = CapacityBound::for_params(params);
    let adversarial = twice::bound::adversarial_max_occupancy(params, pis);
    let (paper_total, paper_long, paper_short) = CapacityBound::paper_reported();
    let mut table = Table::new(
        "Capacity bound (paper 4.4): counter entries per bank",
        &["quantity", "ours", "paper"],
    );
    table.row(&[
        "new entries per PI (maxact)".into(),
        bound.new_entries.to_string(),
        "165".into(),
    ]);
    table.row(&[
        "max survivors from earlier PIs".into(),
        bound.survivors.to_string(),
        (paper_total - 165).to_string(),
    ]);
    table.row(&[
        "total capacity".into(),
        bound.total().to_string(),
        paper_total.to_string(),
    ]);
    table.row(&[
        "split: long entries".into(),
        bound.split_long().to_string(),
        paper_long.to_string(),
    ]);
    table.row(&[
        "split: short entries".into(),
        bound.split_short().to_string(),
        paper_short.to_string(),
    ]);
    table.row(&[
        format!("front-loading adversary occupancy ({pis} PIs)"),
        adversarial.to_string(),
        "<= total".into(),
    ]);
    table.row(&[
        "rows per bank (for scale)".into(),
        params.rows_per_bank.to_string(),
        "131,072".into(),
    ]);
    CapacityResult {
        bound,
        adversarial_occupancy: adversarial,
        table,
    }
}

/// Feeds a maximally table-hostile stream through a *live* engine on the
/// real DDR-timed system and reports the high-water occupancy (must stay
/// under the bound — the engine would report `table_full_events`
/// otherwise). Returns `(max_occupancy, table_full_events)`.
pub fn stress_live_engine(cfg: &SimConfig, requests: u64) -> (usize, u64) {
    use twice::{TableOrganization, TwiceEngine};
    // Drive the engine directly with the §4.4 adversary shape: maxact
    // fresh rows per PI plus survivors being fed exactly thPI per PI.
    let params = &cfg.params;
    let mut engine =
        TwiceEngine::with_organization(params.clone(), 1, TableOrganization::FullyAssociative);
    let th_pi = params.th_pi();
    let max_act = params.max_act();
    let keep = (max_act / th_pi).max(1);
    let mut fresh_row = 1_000_000u32 % params.rows_per_bank;
    let mut issued = 0u64;
    'outer: loop {
        // Feed `keep` survivors thPI ACTs each, then fresh rows with the
        // remaining budget.
        let mut budget = max_act;
        for s in 0..keep {
            for _ in 0..th_pi {
                engine.on_activate(BankId(0), RowId(s as u32), Time::ZERO);
                issued += 1;
                budget -= 1;
                if issued >= requests {
                    break 'outer;
                }
            }
        }
        while budget > 0 {
            engine.on_activate(BankId(0), RowId(fresh_row), Time::ZERO);
            fresh_row = (fresh_row + 1) % params.rows_per_bank;
            issued += 1;
            budget -= 1;
            if issued >= requests {
                break 'outer;
            }
        }
        engine.on_auto_refresh(BankId(0), Time::ZERO);
    }
    (engine.max_occupancy_any(), engine.stats().table_full_events)
}

/// The same claim exercised end to end: S1 random traffic through the
/// full simulator never overflows the table.
pub fn no_overflow_under_random_traffic(cfg: &SimConfig, requests: u64) -> bool {
    use twice::TableOrganization;
    use twice_mitigations::DefenseKind;
    let m = run(
        cfg,
        WorkloadKind::S1,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        requests,
    );
    // A table overflow would surface as a defensive ARR => detections
    // with zero real hammering.
    m.detections == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_capacity_table() {
        // 256 PIs is what `twice-exp capacity` prints.
        for pis in [64, 256] {
            let r = capacity(&TwiceParams::paper_default(), pis);
            assert_eq!(r.bound.total(), 556);
            assert!(r.adversarial_occupancy <= r.bound.total(), "{pis} PIs");
            assert!(r.table.to_string().contains("553"), "{pis} PIs");
        }
    }

    #[test]
    fn live_engine_stays_under_bound() {
        let cfg = SimConfig::fast_test();
        let bound = CapacityBound::for_params(&cfg.params);
        let (max_occ, full_events) = stress_live_engine(&cfg, 50_000);
        assert!(
            max_occ <= bound.total(),
            "live occupancy {max_occ} exceeded bound {}",
            bound.total()
        );
        assert_eq!(full_events, 0);
        assert!(max_occ > 0);
    }

    #[test]
    fn random_traffic_never_overflows() {
        let cfg = SimConfig::fast_test();
        assert!(no_overflow_under_random_traffic(&cfg, 20_000));
    }
}
