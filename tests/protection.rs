//! Cross-crate protection tests (DESIGN.md experiment V1).
//!
//! Attacks run through the entire pipeline — trace → controller → RCD →
//! DDR4 bank FSMs → disturbance fault model — and the defense either
//! prevents every bit flip or the test fails.

use twice_repro::common::RowId;
use twice_repro::core::TableOrganization;
use twice_repro::mitigations::DefenseKind;
use twice_repro::sim::config::SimConfig;
use twice_repro::sim::runner::{double_sided, run, WorkloadKind};
use twice_repro::sim::system::System;
use twice_repro::sim::verify::confront;
use twice_repro::workloads::attack::HammerShape;

const REQUESTS: u64 = 60_000;

const ORGS: [TableOrganization; 3] = [
    TableOrganization::FullyAssociative,
    TableOrganization::PseudoAssociative,
    TableOrganization::Split,
];

fn cfg() -> SimConfig {
    SimConfig::fast_test()
}

#[test]
fn every_twice_organization_defeats_the_classic_hammer() {
    for org in ORGS {
        let out = confront(&cfg(), WorkloadKind::S3, DefenseKind::Twice(org), REQUESTS);
        assert!(out.unprotected.bit_flips > 0, "{org:?}: attack inert");
        assert_eq!(out.defended.bit_flips, 0, "{org:?}: flips leaked");
        assert!(out.defended.detections > 0, "{org:?}: silent defense");
    }
}

#[test]
fn twice_defeats_double_sided_hammering() {
    for org in ORGS {
        let out = confront(&cfg(), double_sided(100), DefenseKind::Twice(org), REQUESTS);
        assert!(out.defense_holds(), "{org:?}");
    }
}

#[test]
fn twice_defeats_many_sided_hammering() {
    // Four rotating aggressors, spaced apart so they do not restore
    // each other's victims (activating a row clears its own
    // disturbance). Splitting the ACT budget 4 ways needs a lower
    // disturbance threshold to flip within the compressed refresh
    // window: per-window budget is ~1422 ACTs, so each aggressor gets
    // ~355 — above N_th = 256, and thRH = 64 keeps the N_th/4 margin.
    let mut cfg = cfg();
    cfg.params.th_rh = 64;
    cfg.params.n_th = 256;
    cfg.fault_n_th = 256;
    let aggressors: Vec<RowId> = (0..4).map(|i| RowId(200 + i * 10)).collect();
    let attack = WorkloadKind::Attack(HammerShape::ManySided { aggressors });
    let out = confront(
        &cfg,
        attack,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        REQUESTS * 4,
    );
    assert!(
        out.unprotected.bit_flips > 0,
        "many-sided attack must flip undefended"
    );
    assert_eq!(out.defended.bit_flips, 0);
}

#[test]
fn oracle_and_twice_agree_on_protection() {
    let twice = confront(
        &cfg(),
        WorkloadKind::S3,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        REQUESTS,
    );
    let oracle = confront(&cfg(), WorkloadKind::S3, DefenseKind::Oracle, REQUESTS);
    assert!(twice.defense_holds() && oracle.defense_holds());
    // TWiCe may detect at most slightly more often than the oracle
    // (entries pruned and re-inserted restart their counts, never the
    // other way round — no false negatives).
    assert!(twice.defended.detections >= oracle.defended.detections);
}

#[test]
fn counter_baselines_also_protect_against_s3() {
    for kind in [
        DefenseKind::Cbt { counters: 64 },
        DefenseKind::Cra { cache_entries: 512 },
    ] {
        let out = confront(&cfg(), WorkloadKind::S3, kind, REQUESTS);
        assert!(out.defense_holds(), "{kind} failed to protect");
        assert!(out.defended.detections > 0, "{kind} must detect");
    }
    // CBT's group refreshes cost far more per detection than TWiCe's
    // two-row ARRs (the Figure 7b shape).
    let cbt = confront(
        &cfg(),
        WorkloadKind::S3,
        DefenseKind::Cbt { counters: 64 },
        REQUESTS,
    );
    let twice = confront(
        &cfg(),
        WorkloadKind::S3,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        REQUESTS,
    );
    let cbt_cost = cbt.defended.additional_acts as f64 / cbt.defended.detections.max(1) as f64;
    let twice_cost =
        twice.defended.additional_acts as f64 / twice.defended.detections.max(1) as f64;
    assert!(
        cbt_cost > twice_cost,
        "per-detection cost: CBT {cbt_cost} vs TWiCe {twice_cost}"
    );
}

#[test]
fn remapped_aggressor_defeats_mc_side_defense_but_not_arr() {
    let mut cfg = cfg();
    cfg.faults_per_bank = 32;
    let probe = System::new(&cfg, DefenseKind::None);
    let remap = probe.controllers()[0].rcd().ranks()[0].remap_table(0);
    let aggressor = (0..cfg.topology.rows_per_bank)
        .map(RowId)
        .find(|&r| remap.is_remapped(r))
        .expect("faults guarantee a remapped row");
    let attack = WorkloadKind::Attack(HammerShape::SingleSided { aggressor });

    // MC-side CRA counts perfectly but refreshes logical neighbors.
    let cra = run(
        &cfg,
        attack.clone(),
        DefenseKind::Cra { cache_entries: 512 },
        REQUESTS,
    );
    assert!(
        cra.bit_flips > 0,
        "logical-neighbor refreshes must miss the physical victims"
    );
    // TWiCe's ARR resolves adjacency inside the device.
    let twice = run(
        &cfg,
        attack,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        REQUESTS,
    );
    assert_eq!(twice.bit_flips, 0);
}

#[test]
fn trr_catches_single_aggressors_but_rotation_slips_past_it() {
    // Extension experiment (paper 8: vendor TRR is unspecified; the
    // post-TRRespass understanding is a small in-DRAM tracker). A
    // single-sided hammer is caught, but rotating more aggressors than
    // the tracker holds starves every counter — while TWiCe, whose table
    // provably covers every possible aggressor, still protects.
    let mut cfg = cfg();
    cfg.params.th_rh = 64;
    cfg.params.n_th = 256;
    cfg.fault_n_th = 256;
    let trr = DefenseKind::Trr { entries: 2 };

    // Single aggressor: TRR works.
    let single = confront(&cfg, WorkloadKind::S3, trr, REQUESTS);
    assert!(
        single.defense_holds(),
        "TRR must stop a single-sided hammer"
    );

    // Four spread aggressors vs a 2-entry tracker: TRR loses...
    let aggressors: Vec<RowId> = (0..4).map(|i| RowId(200 + i * 10)).collect();
    let attack = WorkloadKind::Attack(HammerShape::ManySided { aggressors });
    let evaded = confront(&cfg, attack.clone(), trr, REQUESTS * 4);
    assert!(
        evaded.unprotected.bit_flips > 0 && evaded.defended.bit_flips > 0,
        "rotation must defeat the bounded tracker (flips: {} / {})",
        evaded.unprotected.bit_flips,
        evaded.defended.bit_flips
    );

    // ...and TWiCe does not.
    let twice = confront(
        &cfg,
        attack,
        DefenseKind::Twice(TableOrganization::FullyAssociative),
        REQUESTS * 4,
    );
    assert!(twice.defense_holds());
}

#[test]
fn graphene_follow_up_also_protects_including_rotation() {
    // Extension: Graphene (MICRO'20) sizes an exact Misra–Gries table
    // for the whole window, so — unlike vendor TRR — rotating aggressors
    // cannot evade it, and its guarantee matches TWiCe's.
    let single = confront(&cfg(), WorkloadKind::S3, DefenseKind::Graphene, REQUESTS);
    assert!(single.defense_holds(), "Graphene must stop S3");

    let mut cfg = cfg();
    cfg.params.th_rh = 64;
    cfg.params.n_th = 256;
    cfg.fault_n_th = 256;
    let aggressors: Vec<RowId> = (0..4).map(|i| RowId(200 + i * 10)).collect();
    let attack = WorkloadKind::Attack(HammerShape::ManySided { aggressors });
    let rotated = confront(&cfg, attack, DefenseKind::Graphene, REQUESTS * 4);
    assert!(
        rotated.defense_holds(),
        "rotation must not evade a window-sized Misra-Gries table (flips {}/{})",
        rotated.unprotected.bit_flips,
        rotated.defended.bit_flips
    );
}

#[test]
fn half_double_coupling_defeats_radius_1_arr_but_not_radius_2() {
    // Extension experiment E4 (post-paper attack class): with distance-2
    // coupling (Half-Double), the rows two away from the aggressor also
    // accumulate disturbance. The paper's ARR refreshes only distance-1
    // victims, so the far victims flip even under TWiCe; widening the
    // ARR blast radius to 2 ("TWiCe+") closes the gap.
    let mut cfg = cfg();
    cfg.params.th_rh = 64; // aggressive detection so ARRs fire often
    cfg.params.n_th = 256;
    cfg.fault_n_th = 256;
    cfg.far_coupling = Some(2); // strong coupling: every 2nd ACT reaches distance 2

    let twice = DefenseKind::Twice(TableOrganization::FullyAssociative);
    let radius1 = run(&cfg, WorkloadKind::S3, twice, REQUESTS * 2);
    assert!(
        radius1.bit_flips > 0,
        "distance-2 victims must flip past the paper's radius-1 ARR"
    );
    assert!(radius1.detections > 0, "TWiCe still detects the aggressor");

    let mut widened = cfg.clone();
    widened.arr_radius = 2;
    let radius2 = run(&widened, WorkloadKind::S3, twice, REQUESTS * 2);
    assert_eq!(
        radius2.bit_flips, 0,
        "a radius-2 ARR must refresh the far victims too"
    );
    // The widened ARR costs up to 4 victim refreshes per detection.
    assert!(radius2.additional_acts <= radius2.detections * 4);
}

#[test]
fn auto_refresh_alone_cannot_stop_a_hammer() {
    // Sanity for the whole premise: periodic auto-refresh runs in the
    // simulator, yet the attack still flips bits without a defense.
    let m = run(&cfg(), WorkloadKind::S3, DefenseKind::None, REQUESTS);
    assert!(m.bit_flips > 0);
}

#[test]
fn probabilistic_para_reduces_but_does_not_guarantee() {
    // With a generous p, PARA usually protects; the point here is only
    // that it never *detects* — the paper's qualitative distinction.
    let m = run(
        &cfg(),
        WorkloadKind::S3,
        DefenseKind::Para { p: 0.05 },
        REQUESTS,
    );
    assert_eq!(m.detections, 0, "PARA must be attack-oblivious");
}
