//! Differential conformance: the struct-of-arrays tables behind
//! [`TwiceEngine`] vs the executable spec in `spec/mod.rs`, over real
//! workload generators.
//!
//! For every table organization × workload (the paper's S1/S2/S3
//! synthetics, a decoy-hammer attack, FFT, and the mcf SPEC model), each
//! bank's production table and its spec consume the same ACT/refresh
//! stream. [`Lockstep`] drives them the way the engine drives a bank's
//! table (retire at `thRH`, fail safe on `TableFull` and `Corrupted`,
//! scrub before prune, counter upsets from a fault plan) and checks a
//! real engine's ARR decisions against that replay. The two must agree
//! on:
//!
//! * every per-operation [`RecordOutcome`] and every scrub victim list,
//! * the sorted `(row, cnt, life)` entries and the corrupted rows after
//!   every prune, so lazy generation-stamped aging must be
//!   indistinguishable from the spec's eager sweep,
//! * pa's [`PaStats`] and the `core.pa_set_probes` obs delta, and split's
//!   promotions and spills.
//!
//! Runs last hundreds of epochs — several times `maxlife` and past the
//! death ring's wraparound point — so tREFW-straddling patterns and ring
//! reuse are exercised, not just steady state.

mod spec;

use spec::Spec;
use std::cmp::Reverse;
use twice::soa::{PaStats, SoaFa, SoaPa, SoaSplit};
use twice::table::{CounterTable, RecordOutcome};
use twice::{CapacityBound, TableEntry, TableOrganization, TwiceEngine, TwiceParams};
use twice_common::fault::{FaultInjector, FaultKind, FaultPlan, FaultTargeting};
use twice_common::rng::SplitMix64;
use twice_common::{BankId, RowHammerDefense, RowId, Time, Topology};
use twice_workloads::attack::{HammerAttack, HammerShape};
use twice_workloads::fft::FftSource;
use twice_workloads::spec::{app, SpecAppSource};
use twice_workloads::synth::{S1Random, S2CbtAdversarial, S3SingleRowHammer};
use twice_workloads::trace::AccessSource;

/// A small topology so the fast-test table bound sees real pressure.
fn topo() -> Topology {
    let mut t = Topology::paper_default();
    t.channels = 1;
    t.ranks_per_channel = 1;
    t.banks_per_rank = 4;
    t.rows_per_bank = 4_096;
    t
}

const ORGS: [TableOrganization; 3] = [
    TableOrganization::FullyAssociative,
    TableOrganization::PseudoAssociative,
    TableOrganization::Split,
];

const BANKS: usize = 4;

/// What a table exposes beyond [`CounterTable`].
trait Observed: CounterTable {
    fn pa_stats(&self) -> PaStats {
        PaStats::default()
    }
    fn promotions_and_spills(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Observed for SoaFa {}

impl Observed for SoaPa {
    fn pa_stats(&self) -> PaStats {
        self.stats()
    }
}

impl Observed for SoaSplit {
    fn promotions_and_spills(&self) -> (u64, u64) {
        (self.promotions(), self.spills())
    }
}

impl Observed for Spec {
    fn pa_stats(&self) -> PaStats {
        self.stats
    }
    fn promotions_and_spills(&self) -> (u64, u64) {
        (self.promotions, self.spills)
    }
}

/// A table and its spec, for one bank.
type Pair = (Box<dyn Observed>, Spec);

/// One bank's production table of `org` and its spec, sized the way
/// [`TwiceEngine`] sizes them.
fn bank_tables(org: TableOrganization, params: &TwiceParams) -> Pair {
    let bound = CapacityBound::for_params(params);
    let (total, short, long) = (bound.total(), bound.split_short(), bound.split_long());
    let (th_pi, th_rh) = (params.th_pi(), params.th_rh);
    match org {
        TableOrganization::FullyAssociative => (
            Box::new(SoaFa::new(total, th_pi, th_rh)),
            Spec::fa(total, th_pi),
        ),
        TableOrganization::PseudoAssociative => (
            Box::new(SoaPa::with_capacity_64way(total, th_pi, th_rh)),
            Spec::pa(total.div_ceil(64), 64, th_pi),
        ),
        _ => (
            Box::new(SoaSplit::new(short, long, th_pi, th_rh)),
            Spec::split(short, long, th_pi),
        ),
    }
}

/// `(row, cnt, life)` entries in row order.
fn sorted(mut entries: Vec<TableEntry>) -> Vec<TableEntry> {
    entries.sort_unstable_by_key(|e| e.row);
    entries
}

/// The calling thread's `core.pa_set_probes` counter.
fn pa_probes() -> u64 {
    twice_obs::local_counters()[twice_obs::Ctr::CorePaSetProbes as usize]
}

/// Runs `op` on a production table, adding the pa set probes it meters
/// to `probes`.
fn metered<R>(probes: &mut u64, op: impl FnOnce() -> R) -> R {
    let before = pa_probes();
    let out = op();
    *probes += pa_probes() - before;
    out
}

/// Every bank's production table and spec, driven in lockstep the way
/// [`TwiceEngine`] drives its tables, beside a real engine whose ARR
/// decisions must match the replay.
struct Lockstep {
    label: String,
    th_pi: u64,
    th_rh: u64,
    banks: Vec<Pair>,
    engine: TwiceEngine,
    scrubbing: bool,
    injector: FaultInjector,
    /// `core.pa_set_probes` metered by the production tables alone.
    probes: u64,
    /// Whether obs probes are compiled in (`obs-off` reads zero).
    obs: bool,
    epochs: u64,
}

impl Lockstep {
    fn new(label: &str, org: TableOrganization, scrubbing: bool, plan: &FaultPlan) -> Lockstep {
        const SALT: u64 = 0x51;
        let params = TwiceParams::fast_test();
        let banks = (0..BANKS)
            .map(|_| {
                let (mut table, mut spec) = bank_tables(org, &params);
                table.set_parity_checking(scrubbing);
                spec.set_parity_checking(scrubbing);
                (table, spec)
            })
            .collect();
        let before = pa_probes();
        twice_obs::bump(twice_obs::Ctr::CorePaSetProbes);
        Lockstep {
            label: format!("{label}/{org:?}"),
            th_pi: params.th_pi(),
            th_rh: params.th_rh,
            banks,
            engine: TwiceEngine::with_organization(params, BANKS as u32, org)
                .with_scrubbing(scrubbing)
                .with_fault_plan(plan, SALT),
            scrubbing,
            injector: plan.injector(SALT),
            probes: 0,
            obs: pa_probes() != before,
            epochs: 0,
        }
    }

    fn act(&mut self, bank: usize, row: RowId, step: u64) {
        // The engine's counter upsets land before the ACT is counted.
        if self.injector.fire(FaultKind::CounterBitFlip) {
            self.upset(bank, false);
        }
        if self.injector.fire(FaultKind::CounterStuckBit) {
            self.upset(bank, true);
        }
        let (table, spec) = &mut self.banks[bank];
        let got = metered(&mut self.probes, || table.record_act(row));
        assert_eq!(got, spec.record_act(row), "{}: ACT {step}", self.label);
        let retire = match got {
            RecordOutcome::Counted { act_cnt } => act_cnt >= self.th_rh,
            RecordOutcome::TableFull => false,
            RecordOutcome::Corrupted => true,
        };
        if retire {
            metered(&mut self.probes, || table.remove(row));
            spec.remove(row);
        }
        let arr = retire || got == RecordOutcome::TableFull;
        let response = self
            .engine
            .on_activate(BankId(bank as u32), row, Time::ZERO);
        assert_eq!(
            response.arr.is_some(),
            arr,
            "{}: engine ARR at ACT {step}",
            self.label
        );
    }

    /// Replays the engine's counter upsets: an SEU flips one count bit
    /// of a random entry or of the hottest one (per the plan's
    /// targeting); a stuck-at-0 cell clears the hottest entry's top bit.
    fn upset(&mut self, bank: usize, stuck: bool) {
        let (table, spec) = &mut self.banks[bank];
        let mut entries = spec.entries();
        entries.sort_unstable_by_key(|e| e.row);
        let hottest = entries.iter().max_by_key(|e| (e.act_cnt, Reverse(e.row)));
        let (row, bit) = match (hottest, stuck, self.injector.targeting()) {
            (None, ..) => return,
            (Some(e), true, _) => match e.top_count_bit() {
                Some(bit) => (e.row, bit),
                None => return,
            },
            (Some(e), false, FaultTargeting::Hottest) => (e.row, e.top_count_bit().unwrap_or(0)),
            (Some(_), false, FaultTargeting::Random) => {
                let e = entries[self.injector.draw(entries.len() as u64) as usize];
                (e.row, self.injector.draw(16) as u32)
            }
        };
        assert_eq!(
            table.inject_bit_flip(row, bit),
            spec.inject_bit_flip(row, bit),
            "{}: upset of row {}",
            self.label,
            row.0
        );
    }

    /// One auto-refresh of every bank: scrub (when hardened), prune, and
    /// compare everything a table exposes.
    fn refresh(&mut self) {
        self.epochs += 1;
        for (b, (table, spec)) in self.banks.iter_mut().enumerate() {
            let label = format!("{} epoch {} bank {b}", self.label, self.epochs);
            let response = self.engine.on_auto_refresh(BankId(b as u32), Time::ZERO);
            if self.scrubbing {
                let victims = metered(&mut self.probes, || table.scrub());
                assert_eq!(victims, spec.scrub(), "{label}: scrub victims");
                let arrs: Vec<RowId> = response
                    .arr
                    .into_iter()
                    .chain(response.refresh_rows)
                    .collect();
                assert_eq!(arrs, victims, "{label}: engine scrub ARRs");
            }
            table.prune(self.th_pi);
            spec.prune(self.th_pi);
            assert_eq!(
                sorted(table.entries()),
                sorted(spec.entries()),
                "{label}: entries"
            );
            assert_eq!(
                table.corrupted_rows(),
                spec.corrupted_rows(),
                "{label}: parity"
            );
            assert_eq!(table.pa_stats(), spec.pa_stats(), "{label}: pa stats");
            assert_eq!(
                table.promotions_and_spills(),
                spec.promotions_and_spills(),
                "{label}: split promotions and spills"
            );
        }
        if self.obs {
            let spec_probes: u64 = self.banks.iter().map(|(_, s)| s.stats.set_probes).sum();
            assert_eq!(
                self.probes, spec_probes,
                "{}: core.pa_set_probes",
                self.label
            );
        }
    }

    /// Feeds `acts` ACTs from `source`, refreshing all banks every
    /// `maxact` ACTs (the DDR environment guarantees at least that prune
    /// rate) and once more at the end.
    fn drive(&mut self, mut source: impl AccessSource, acts: u64) {
        let max_act = TwiceParams::fast_test().max_act();
        for step in 0..acts {
            if step > 0 && step % max_act == 0 {
                self.refresh();
            }
            let (_, decoded) = source.next_access();
            self.act(usize::from(decoded.bank) % BANKS, decoded.row, step);
        }
        self.refresh();
    }
}

/// Every organization over one workload generator, fault-free. One test
/// per workload keeps failures attributable.
fn run_all_orgs(label: &str, make: impl Fn() -> Box<dyn AccessSource + Send>, acts: u64) {
    for org in ORGS {
        let mut ls = Lockstep::new(label, org, true, &FaultPlan::none());
        ls.drive(make(), acts);
        assert!(
            ls.epochs > 2 * TwiceParams::fast_test().max_life(),
            "{label}: stream too short to straddle tREFW ({} epochs)",
            ls.epochs
        );
    }
}

// ~40k ACTs ≈ 2000 epochs at fast-test maxact=20: far past maxlife (64)
// and the death-ring length (256/4 + 6 = 70), so the ring wraps many
// times and entries straddle whole refresh windows.
const STREAM: u64 = 40_000;

#[test]
fn s1_random_conforms() {
    let t = topo();
    run_all_orgs("s1", || Box::new(S1Random::new(&t, 11)), STREAM);
}

#[test]
fn s2_cbt_adversarial_conforms() {
    let t = topo();
    run_all_orgs(
        "s2",
        || Box::new(S2CbtAdversarial::new(&t, 300, 300, 22)),
        STREAM,
    );
}

#[test]
fn s3_single_row_hammer_conforms() {
    let t = topo();
    run_all_orgs("s3", || Box::new(S3SingleRowHammer::new(&t, 33)), STREAM);
}

#[test]
fn decoy_hammer_conforms() {
    let t = topo();
    run_all_orgs(
        "decoy",
        || {
            Box::new(HammerAttack::new(
                &t,
                1,
                HammerShape::Decoy {
                    aggressor: RowId(100),
                    decoys: (0..24).map(|i| RowId(200 + 4 * i)).collect(),
                },
            ))
        },
        STREAM,
    );
}

#[test]
fn fft_conforms() {
    let t = topo();
    run_all_orgs("fft", || Box::new(FftSource::new(&t, 1 << 14, 4)), STREAM);
}

#[test]
fn mcf_conforms() {
    let t = topo();
    run_all_orgs(
        "mcf",
        || {
            Box::new(SpecAppSource::new(
                &t,
                app("mcf").expect("mcf model"),
                0,
                1,
                44,
            ))
        },
        STREAM,
    );
}

/// Fault injection drives the corruption paths: parity hits, scrub
/// evictions, and count upsets that leave a split short entry able to
/// survive a prune.
#[test]
fn fault_injected_streams_conform() {
    let t = topo();
    let plan = FaultPlan::with_seed(9)
        .rate(FaultKind::CounterBitFlip, 0.01)
        .rate(FaultKind::CounterStuckBit, 0.002);
    for org in ORGS {
        for scrubbing in [true, false] {
            let mut ls = Lockstep::new("faults", org, scrubbing, &plan);
            ls.drive(S1Random::new(&t, 77), 20_000);
            assert!(
                ls.engine.stats().seu_injected > 0,
                "{org:?}: plan must actually fire"
            );
        }
    }
}

/// Lazy prune ≡ eager sweep under arbitrary ACT/refresh interleavings,
/// at the table level: random scripts where refreshes can cluster
/// (several prunes back-to-back with no ACTs — the pattern the death
/// ring must absorb without dropping an entry early or late).
#[test]
fn random_interleavings_prune_identically() {
    const TH_PI: u64 = 4;
    const MAX_CNT: u64 = 256;
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x50A0 + case);
        let mut pairs: Vec<Pair> = vec![
            (
                Box::new(SoaFa::new(24, TH_PI, MAX_CNT)),
                Spec::fa(24, TH_PI),
            ),
            (
                Box::new(SoaPa::new(4, 6, TH_PI, MAX_CNT)),
                Spec::pa(4, 6, TH_PI),
            ),
            (
                Box::new(SoaSplit::new(6, 18, TH_PI, MAX_CNT)),
                Spec::split(6, 18, TH_PI),
            ),
        ];
        for step in 0..1_200u32 {
            // 1-in-8 ops is a refresh; refreshes often arrive in bursts
            // (an idle bank keeps refreshing with no intervening ACTs).
            if rng.chance(0.125) {
                for _ in 0..1 + rng.next_below(4) {
                    for (table, spec) in &mut pairs {
                        table.prune(TH_PI);
                        spec.prune(TH_PI);
                    }
                }
            } else {
                let row = RowId(rng.next_below(40) as u32);
                for (table, spec) in &mut pairs {
                    assert_eq!(
                        table.record_act(row),
                        spec.record_act(row),
                        "case {case} step {step}"
                    );
                }
            }
            for (table, spec) in &pairs {
                assert_eq!(
                    sorted(table.entries()),
                    sorted(spec.entries()),
                    "case {case} step {step}: entries"
                );
            }
        }
        for (table, spec) in &pairs {
            assert_eq!(table.pa_stats(), spec.pa_stats(), "case {case}");
            assert_eq!(
                table.promotions_and_spills(),
                spec.promotions_and_spills(),
                "case {case}"
            );
        }
    }
}

/// A promotion that fails with the long sub-table full of proven entries
/// leaves the row short at or above `thPI`; every later prune must then
/// age and relocate it exactly as the spec does.
#[test]
fn promote_failure_keeps_short_survivor_alive() {
    let mut table = SoaSplit::new(1, 1, 4, 256);
    let mut spec = Spec::split(1, 1, 4);
    for step in 0..40 {
        for row in [0u32, 1] {
            for _ in 0..4 {
                let got = table.record_act(RowId(row));
                assert_eq!(got, spec.record_act(RowId(row)), "step {step} row {row}");
                if got == RecordOutcome::TableFull {
                    break;
                }
            }
        }
        table.prune(4);
        spec.prune(4);
        assert_eq!(
            sorted(table.entries()),
            sorted(spec.entries()),
            "step {step}"
        );
    }
}
