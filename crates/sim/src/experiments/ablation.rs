//! Ablations over TWiCe's design choices (experiments A1–A3, B3).
//!
//! * **A1** — pa-TWiCe vs fa-TWiCe: probe behavior and modeled energy.
//! * **A2** — `thRH` sweep: table capacity vs ARR rate vs safety margin.
//! * **A3** — timing sensitivity: `maxact` and capacity under varying
//!   `tREFI`/`tRC` (the paper's "maxact only changes slightly" claim).
//! * **B3** — ARR protocol overhead: rate bound and per-event cost.

use crate::config::SimConfig;
use crate::report::{percent, Table};
use crate::runner::build_trace;
use crate::runner::WorkloadKind;
use twice::cost::TwiceCostModel;
use twice::soa::SoaPa;
use twice::table::CounterTable;
use twice::{CapacityBound, TwiceParams};
use twice_common::Span;

/// A1: drives a pa-TWiCe table with the per-bank row stream of a
/// workload and reports preferred-set behavior plus modeled energy vs
/// fa-TWiCe.
#[derive(Debug, Clone)]
pub struct PaVsFaResult {
    /// Lookups served by the preferred set only.
    pub preferred_only: u64,
    /// Lookups that probed beyond the preferred set.
    pub extended: u64,
    /// Modeled pa energy (pJ) for the stream.
    pub pa_energy_pj: u64,
    /// Modeled fa energy (pJ) for the stream.
    pub fa_energy_pj: u64,
    /// Rendered table.
    pub table: Table,
}

/// Runs A1 on `workload`'s row stream (bank 0 of channel 0).
pub fn pa_vs_fa(cfg: &SimConfig, workload: WorkloadKind, requests: u64) -> PaVsFaResult {
    let bound = CapacityBound::for_params(&cfg.params);
    let th_pi = cfg.params.th_pi();
    let mut pa = SoaPa::with_capacity_64way(bound.total(), th_pi, cfg.params.th_rh);
    let max_act = cfg.params.max_act();
    let mut acts = 0u64;
    for (_, access) in build_trace(cfg, &workload, requests) {
        if access.channel.0 != 0 || access.rank.0 != 0 || access.bank != 0 {
            continue;
        }
        pa.record_act(access.row);
        acts += 1;
        if acts.is_multiple_of(max_act) {
            pa.prune(th_pi);
        }
    }
    let stats = pa.stats();
    let model = TwiceCostModel::table3_45nm();
    let pa_energy = stats.preferred_only * model.pa_count_preferred.energy_pj
        + stats.extended * model.pa_count_all.energy_pj;
    let fa_energy = (stats.preferred_only + stats.extended) * model.fa_count.energy_pj;
    let mut table = Table::new(
        format!("A1: pa-TWiCe vs fa-TWiCe on {workload}"),
        &["metric", "value"],
    );
    let total = (stats.preferred_only + stats.extended).max(1);
    table.row(&[
        "preferred-set-only lookups".into(),
        format!(
            "{} ({:.2}%)",
            stats.preferred_only,
            stats.preferred_only as f64 / total as f64 * 100.0
        ),
    ]);
    table.row(&["extended lookups".into(), stats.extended.to_string()]);
    table.row(&["pa energy (modeled)".into(), format!("{} pJ", pa_energy)]);
    table.row(&["fa energy (modeled)".into(), format!("{} pJ", fa_energy)]);
    table.row(&[
        "pa/fa energy".into(),
        format!("{:.2}", pa_energy as f64 / fa_energy.max(1) as f64),
    ]);
    PaVsFaResult {
        preferred_only: stats.preferred_only,
        extended: stats.extended,
        pa_energy_pj: pa_energy,
        fa_energy_pj: fa_energy,
        table,
    }
}

/// A2: sweeps `thRH` and reports capacity, analytic ARR rate under a
/// sustained hammer, and the safety margin vs `N_th`.
pub fn th_rh_sweep(base: &TwiceParams, th_rh_values: &[u64]) -> Table {
    let mut table = Table::new(
        "A2: thRH sweep (capacity vs overhead vs margin)",
        &[
            "thRH",
            "thPI",
            "table entries",
            "ARR rate on a hammer",
            "margin (N_th - 4*thRH)",
            "valid",
        ],
    );
    for &th_rh in th_rh_values {
        let params = base.clone().with_th_rh(th_rh);
        let valid = params.validate().is_ok();
        if valid {
            let bound = CapacityBound::for_params(&params);
            table.row(&[
                th_rh.to_string(),
                params.th_pi().to_string(),
                bound.total().to_string(),
                percent(2.0 / th_rh as f64),
                (base.n_th as i64 - 4 * th_rh as i64).to_string(),
                "yes".into(),
            ]);
        } else {
            table.row(&[
                th_rh.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                (base.n_th as i64 - 4 * th_rh as i64).to_string(),
                "no".into(),
            ]);
        }
    }
    table
}

/// A3: timing sensitivity of `maxact` and table capacity.
pub fn timing_sweep(base: &TwiceParams) -> Table {
    let mut table = Table::new(
        "A3: timing sensitivity (paper: 'maxact only changes slightly')",
        &["tREFI", "tRFC", "tRC", "maxact", "capacity"],
    );
    let refi_divisors: [u64; 3] = [8192, 4096, 16384];
    let trcs = [Span::from_ns(45), Span::from_ns(50), Span::from_ns(40)];
    for &div in &refi_divisors {
        for &trc in &trcs {
            let mut p = base.clone();
            p.timings.t_refi = p.timings.t_refw / div;
            p.timings.t_rc = trc;
            // Keep thPI >= 1: thRH must be >= maxlife.
            if p.th_rh < p.max_life() {
                p.th_rh = p.max_life();
            }
            if p.validate().is_err() {
                continue;
            }
            let bound = CapacityBound::for_params(&p);
            table.row(&[
                p.timings.t_refi.to_string(),
                p.timings.t_rfc.to_string(),
                trc.to_string(),
                p.max_act().to_string(),
                bound.total().to_string(),
            ]);
        }
    }
    table
}

/// B3: the ARR protocol overhead claims of §5.2/§7.1.
#[derive(Debug, Clone)]
pub struct ArrOverheadResult {
    /// Maximum ARR rate (per normal ACT).
    pub max_arr_rate: f64,
    /// Extra ACTs per (false-positive or real) ARR.
    pub acts_per_arr: u32,
    /// Whether the table update fits within tRFC.
    pub update_fits: bool,
    /// Rendered table.
    pub table: Table,
}

/// Computes B3 for `params`.
pub fn arr_overhead(params: &TwiceParams) -> ArrOverheadResult {
    let model = TwiceCostModel::table3_45nm();
    let max_rate = 1.0 / params.th_rh as f64;
    let update_fits = model.update_hides_under_trfc(&params.timings);
    let mut table = Table::new(
        "B3: ARR protocol overhead (paper 5.2 / 7.1)",
        &["claim", "value"],
    );
    table.row(&[
        "max ARR rate (1 per thRH ACTs)".into(),
        format!("{} (= 1/{})", percent(max_rate), params.th_rh),
    ]);
    table.row(&["extra ACTs per ARR (<= 2 victims)".into(), "2".into()]);
    table.row(&["worst-case overhead".into(), percent(2.0 * max_rate)]);
    table.row(&[
        "bank blocked per ARR (2*tRC + tRP)".into(),
        format!("{}", params.timings.t_rc * 2 + params.timings.t_rp),
    ]);
    table.row(&[
        "table update fits in tRFC".into(),
        format!(
            "{} ({} <= {})",
            update_fits, model.fa_update.latency, params.timings.t_rfc
        ),
    ]);
    ArrOverheadResult {
        max_arr_rate: max_rate,
        acts_per_arr: 2,
        update_fits,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn a1_benign_traffic_stays_in_preferred_sets() {
        let cfg = SimConfig::fast_test();
        let r = pa_vs_fa(&cfg, WorkloadKind::S1, 20_000);
        let total = r.preferred_only + r.extended;
        assert!(total > 0);
        // §7.1: "the counters for all rows remained in their preferred
        // sets" on real workloads; random traffic should behave too.
        assert!(
            r.preferred_only as f64 / total as f64 > 0.99,
            "extended lookups: {} of {total}",
            r.extended
        );
        assert!(r.pa_energy_pj < r.fa_energy_pj, "pa must be cheaper");
        // The paper-scale rows `twice-exp tables` prints: only a trace is
        // generated, so this stays cheap.
        let paper = SimConfig::paper_default();
        for w in [WorkloadKind::S1, WorkloadKind::S3, WorkloadKind::MixHigh] {
            let r = pa_vs_fa(&paper, w.clone(), 100_000);
            assert!(r.pa_energy_pj <= r.fa_energy_pj, "pa costlier on {w}");
        }
    }

    #[test]
    fn a2_sweep_shows_capacity_overhead_tradeoff() {
        let base = TwiceParams::paper_default();
        let t = th_rh_sweep(&base, &[8_192, 16_384, 32_768, 65_536]);
        let s = t.to_string();
        // 65,536 violates thRH <= N_th/4 and must be flagged invalid.
        assert!(s.contains("no"));
        assert_eq!(t.len(), 4);
        // Lower thRH => bigger table, over every valid point.
        let caps: Vec<usize> = [8_192, 16_384, 24_576, 32_768]
            .into_iter()
            .filter_map(|t| {
                let p = base.clone().with_th_rh(t);
                p.validate()
                    .ok()
                    .map(|_| CapacityBound::for_params(&p).total())
            })
            .collect();
        assert!(caps.len() >= 2, "too few valid points: {caps:?}");
        assert!(
            caps.windows(2).all(|w| w[0] >= w[1]),
            "capacity must shrink as thRH grows: {caps:?}"
        );
    }

    #[test]
    fn a3_maxact_is_timing_insensitive() {
        let t = timing_sweep(&TwiceParams::paper_default());
        assert!(t.len() >= 6);
        let s = t.to_string();
        assert!(s.contains("165"), "baseline maxact missing:\n{s}");
    }

    #[test]
    fn b3_claims_hold() {
        let r = arr_overhead(&TwiceParams::paper_default());
        assert!(r.update_fits);
        assert!((r.max_arr_rate - 1.0 / 32_768.0).abs() < 1e-12);
        // 2 / 32768 = 0.006% — the headline S3 number.
        let s = r.table.to_string();
        assert!(s.contains("0.0061%"), "{s}");
    }
}
