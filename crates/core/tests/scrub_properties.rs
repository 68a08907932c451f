//! Property tests for the parity/scrub hardening: an injected
//! counter-SRAM upset is always caught — by the read path if the row is
//! touched first, otherwise by the very next scrub pass — and never
//! survives a prune cycle. Every property is checked on the production
//! tables and on their executable spec (`spec/mod.rs`).
//!
//! Randomized inputs come from the in-tree `SplitMix64` generator (the
//! build environment is offline, so the proptest crate is unavailable);
//! fixed seeds keep every case reproducible.

mod spec;

use spec::Spec;
use twice::soa::{SoaFa, SoaPa, SoaSplit};
use twice::table::{CounterTable, RecordOutcome};
use twice::{TwiceEngine, TwiceParams};
use twice_common::fault::{FaultKind, FaultPlan};
use twice_common::rng::SplitMix64;
use twice_common::{BankId, RowHammerDefense, RowId, Time};

const CASES: u64 = 24;

/// Every organization, production table then spec, each with the seed
/// salt it runs under.
fn organizations() -> Vec<(Box<dyn CounterTable>, u64)> {
    const MAX_CNT: u64 = 1 << 16;
    vec![
        (Box::new(SoaFa::new(128, 4, MAX_CNT)), 0),
        (Box::new(SoaPa::new(8, 16, 4, MAX_CNT)), 0x1111),
        (Box::new(SoaSplit::new(24, 104, 4, MAX_CNT)), 0x2222),
        (Box::new(Spec::fa(128, 4)), 0),
        (Box::new(Spec::pa(8, 16, 4)), 0x1111),
        (Box::new(Spec::split(24, 104, 4)), 0x2222),
    ]
}

/// Populates `table` with a handful of rows, then checks that a single
/// injected upset is evicted by exactly one scrub pass.
fn check_one_scrub_evicts(table: &mut dyn CounterTable, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    table.set_parity_checking(true);
    let n = 1 + rng.next_below(12) as usize;
    let rows: Vec<RowId> = (0..n).map(|i| RowId(i as u32 * 3)).collect();
    for &row in &rows {
        for _ in 0..=rng.next_below(5) {
            assert_ne!(table.record_act(row), RecordOutcome::Corrupted);
        }
    }
    let victim = rows[rng.next_below(rows.len() as u64) as usize];
    let bit = rng.next_below(48) as u32;
    assert!(table.inject_bit_flip(victim, bit), "victim must be tracked");

    let scrubbed = table.scrub();
    assert_eq!(scrubbed, vec![victim], "one pass must evict the upset");
    assert!(table.get(victim).is_none(), "corrupted entry must be gone");
    assert!(table.scrub().is_empty(), "a second pass must find nothing");
}

/// Same injection, but the row is *read* before the scrub runs: the
/// parity check on the read path must report the corruption instead of
/// silently laundering it through the read-modify-write.
fn check_read_path_catches(table: &mut dyn CounterTable, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    table.set_parity_checking(true);
    let victim = RowId(7);
    for _ in 0..=rng.next_below(6) {
        table.record_act(victim);
    }
    assert!(table.inject_bit_flip(victim, rng.next_below(48) as u32));
    assert_eq!(table.record_act(victim), RecordOutcome::Corrupted);
}

/// With the parity column disabled (the paper's original design) the
/// same upset is invisible: nothing is scrubbed and the corrupt count
/// is served as if legitimate.
fn check_unhardened_is_blind(table: &mut dyn CounterTable, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    table.set_parity_checking(false);
    let victim = RowId(9);
    table.record_act(victim);
    assert!(table.inject_bit_flip(victim, rng.next_below(16) as u32));
    assert!(table.scrub().is_empty(), "no parity column, no detection");
    assert!(table.get(victim).is_some(), "entry silently survives");
    assert_ne!(table.record_act(victim), RecordOutcome::Corrupted);
}

#[test]
fn every_organization_scrubs_an_upset_in_one_pass() {
    for seed in 0..CASES {
        for (mut table, salt) in organizations() {
            check_one_scrub_evicts(table.as_mut(), seed ^ salt);
        }
    }
}

#[test]
fn every_organization_catches_a_corrupt_read() {
    for seed in 0..CASES {
        for (mut table, salt) in organizations() {
            check_read_path_catches(table.as_mut(), seed ^ salt);
        }
    }
}

#[test]
fn unhardened_tables_are_blind_to_upsets() {
    for seed in 0..CASES {
        for (mut table, salt) in organizations() {
            check_unhardened_is_blind(table.as_mut(), seed ^ salt);
        }
    }
}

#[test]
fn engine_accounts_for_every_upset_within_one_refresh() {
    // End-to-end over the engine: schedule SEUs at arbitrary points in
    // an activation stream; after the next auto-refresh (= one scrub
    // pass) every landed upset must have been counted as a corruption
    // event, whether the read path or the scrub caught it.
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let params = TwiceParams::fast_test();
        // One upset per run: 1-bit parity guarantees detection of any
        // single flip; two flips on the same untouched entry could
        // legitimately cancel.
        let plan =
            FaultPlan::with_seed(seed).at_event(FaultKind::CounterBitFlip, 1 + rng.next_below(80));
        let mut engine = TwiceEngine::new(params.clone(), 1).with_fault_plan(&plan, 1);
        let bank = BankId(0);
        let mut now = Time::ZERO;
        for _ in 0..100 {
            let row = RowId(rng.next_below(8) as u32);
            engine.on_activate(bank, row, now);
            now += params.timings.t_rc;
        }
        assert!(engine.faults_injected() >= 1, "scheduled SEUs must land");
        engine.on_auto_refresh(bank, now);
        assert_eq!(
            engine.corruption_events(),
            engine.faults_injected(),
            "seed {seed}: an upset outlived the scrub pass"
        );
    }
}
