//! Property tests on the counter-table data structures themselves: each
//! organization matches its executable spec (`spec/mod.rs`) operation by
//! operation, and all three keep identical entries, under arbitrary
//! operation sequences that respect the per-PI activation budget.
//!
//! Randomized inputs come from the in-tree `SplitMix64` generator (the
//! build environment is offline, so the proptest crate is unavailable);
//! fixed seeds keep every case reproducible.

mod spec;

use spec::Spec;
use twice::soa::{SoaFa, SoaPa, SoaSplit};
use twice::table::{CounterTable, RecordOutcome};
use twice_common::rng::SplitMix64;
use twice_common::RowId;

#[derive(Debug, Clone, Copy)]
enum Op {
    Act(u8),
    Remove(u8),
}

/// Random script: PIs of at most `maxact = 20` ops each (fast-test
/// physics), acts outweighing removes 8:1 over a 48-row space.
fn script(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(seed);
    let pis = rng.next_below(60) as usize;
    (0..pis)
        .map(|_| {
            let ops = rng.next_below(20) as usize;
            (0..ops)
                .map(|_| {
                    let row = rng.next_below(48) as u8;
                    if rng.next_below(9) < 8 {
                        Op::Act(row)
                    } else {
                        Op::Remove(row)
                    }
                })
                .collect()
        })
        .collect()
}

fn sorted(table: &dyn CounterTable) -> Vec<(u32, u64, u64)> {
    let mut entries: Vec<(u32, u64, u64)> = table
        .entries()
        .into_iter()
        .map(|e| (e.row.0, e.act_cnt, e.life))
        .collect();
    entries.sort_unstable();
    entries
}

/// Runs `script` on `table` and `spec` in lockstep: identical outcomes
/// on every ACT (never `TableFull`: the tables are sized for the
/// budget), identical entries after every prune. Returns the final
/// sorted entries.
fn run_script(
    table: &mut dyn CounterTable,
    spec: &mut Spec,
    script: &[Vec<Op>],
    th_pi: u64,
) -> Vec<(u32, u64, u64)> {
    for pi in script {
        for &op in pi {
            match op {
                Op::Act(r) => {
                    let row = RowId(u32::from(r));
                    let outcome = table.record_act(row);
                    assert_eq!(outcome, spec.record_act(row), "outcome on row {r}");
                    assert!(
                        matches!(outcome, RecordOutcome::Counted { .. }),
                        "row {r}: {outcome:?}"
                    );
                }
                Op::Remove(r) => {
                    table.remove(RowId(u32::from(r)));
                    spec.remove(RowId(u32::from(r)));
                }
            }
        }
        table.prune(th_pi);
        spec.prune(th_pi);
        assert_eq!(sorted(table), sorted(spec), "entries diverged");
    }
    sorted(table)
}

const CASES: u64 = 64;
// `max_cnt` mirrors fast-test physics (20-op PIs keep counts far below
// it).
const MAX_CNT: u64 = 1 << 16;

#[test]
fn fa_matches_the_spec() {
    for seed in 0..CASES {
        run_script(
            &mut SoaFa::new(128, 4, MAX_CNT),
            &mut Spec::fa(128, 4),
            &script(seed),
            4,
        );
    }
}

#[test]
fn pa_matches_the_spec() {
    for seed in 0..CASES {
        run_script(
            &mut SoaPa::new(8, 16, 4, MAX_CNT),
            &mut Spec::pa(8, 16, 4),
            &script(seed ^ 0x1111),
            4,
        );
    }
}

#[test]
fn split_matches_the_spec() {
    // Sized like the bound would: shorts for fresh entries, longs for
    // survivors/promotions, with spill room.
    for seed in 0..CASES {
        run_script(
            &mut SoaSplit::new(24, 104, 4, MAX_CNT),
            &mut Spec::split(24, 104, 4),
            &script(seed ^ 0x2222),
            4,
        );
    }
}

#[test]
fn all_three_agree_with_each_other() {
    for seed in 0..CASES {
        let s = script(seed ^ 0x3333);
        let fa = run_script(
            &mut SoaFa::new(128, 4, MAX_CNT),
            &mut Spec::fa(128, 4),
            &s,
            4,
        );
        let pa = run_script(
            &mut SoaPa::new(8, 16, 4, MAX_CNT),
            &mut Spec::pa(8, 16, 4),
            &s,
            4,
        );
        let split = run_script(
            &mut SoaSplit::new(24, 104, 4, MAX_CNT),
            &mut Spec::split(24, 104, 4),
            &s,
            4,
        );
        assert_eq!(fa, pa, "fa vs pa diverged (seed {seed})");
        assert_eq!(fa, split, "fa vs split diverged (seed {seed})");
    }
}
