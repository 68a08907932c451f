//! [`TwiceEngine`]: the TWiCe defense as a [`RowHammerDefense`].
//!
//! One counter table per bank (§4.4), driven by the activation stream:
//!
//! 1. On every ACT, the target row's entry is incremented (inserted at
//!    count 1 if absent).
//! 2. An entry reaching `thRH` triggers an **ARR** for the row and an
//!    explicit [`Detection`], and is retired from the table (Figure 4 ③).
//! 3. On every per-bank auto-refresh the table is pruned (Figure 4 ④) —
//!    the update hides under `tRFC` (§7.1).
//!
//! If a table ever reports `TableFull` — impossible under DDR-legal
//! streams for tables sized by [`CapacityBound`], and property-tested to
//! be so — the engine fails *safe*: it treats the row as detected and
//! ARRs it immediately, preserving the no-false-negative guarantee at the
//! cost of a spurious refresh.

use crate::bound::CapacityBound;
use crate::entry::TableEntry;
use crate::params::TwiceParams;
use crate::soa::{SoaFa, SoaPa, SoaSplit};
use crate::table::{CounterTable, RecordOutcome};
use std::fmt;
use twice_common::fault::{FaultInjector, FaultKind, FaultPlan, FaultTargeting};
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{
    BankId, DefensePressure, DefenseResponse, Detection, RowHammerDefense, RowId, Time,
};

/// Asserts a runtime invariant, compiled in only under the
/// `debug-invariants` feature (zero cost otherwise).
macro_rules! debug_invariant {
    ($($arg:tt)+) => {
        #[cfg(feature = "debug-invariants")]
        {
            assert!($($arg)+);
        }
    };
}

/// Which hardware organization backs each per-bank table. All three run
/// on the struct-of-arrays layout ([`crate::soa`]) and make identical
/// detection decisions; they differ in placement and its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableOrganization {
    /// fa-TWiCe: fully-associative CAM (§7.1 baseline).
    #[default]
    FullyAssociative,
    /// pa-TWiCe: 64-way pseudo-associative with set borrowing (§6.1).
    PseudoAssociative,
    /// Split short/long entries (§6.2).
    Split,
}

impl TableOrganization {
    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TableOrganization::FullyAssociative => "fa",
            TableOrganization::PseudoAssociative => "pa",
            TableOrganization::Split => "split",
        }
    }
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// ACTs observed across all banks.
    pub acts: u64,
    /// ARRs issued (each is also a detection).
    pub arrs: u64,
    /// Defensive ARRs caused by `TableFull` (must stay zero under legal
    /// streams; non-zero indicates a sizing violation).
    pub table_full_events: u64,
    /// Pruning passes executed.
    pub prunes: u64,
    /// Corrupted entries detected (read-time parity failures plus
    /// scrub-pass evictions), each answered by a fail-safe ARR.
    pub corruption_events: u64,
    /// Counter-SRAM upsets injected by the fault plan (ground truth the
    /// chaos experiment compares `corruption_events` against).
    pub seu_injected: u64,
}

/// Version stamp for the engine's snapshot layout. `0x5457_4332` is
/// ASCII `"TWC2"`: layout generation 2, the struct-of-arrays arena era.
const ENGINE_LAYOUT_VERSION: u32 = 0x5457_4332;

/// The TWiCe row-hammer prevention engine.
pub struct TwiceEngine {
    params: TwiceParams,
    organization: TableOrganization,
    th_pi: u64,
    tables: Vec<Box<dyn CounterTable + Send>>,
    max_occupancy: Vec<usize>,
    stats: EngineStats,
    name: String,
    /// Whether the counter SRAM has a parity column and a scrub pass
    /// (the hardened configuration). Off models the paper's original,
    /// fault-oblivious design.
    scrubbing: bool,
    /// Chaos-testing hook: injects counter-SRAM upsets per a fault plan.
    injector: FaultInjector,
    /// Scratch probe set reused across SEU injections so the fault path
    /// does not allocate per ACT. Never snapshotted or digested: its
    /// contents are meaningless between calls.
    scratch_entries: Vec<TableEntry>,
    /// Scratch victim list reused across scrub passes (same contract as
    /// `scratch_entries`).
    scratch_victims: Vec<RowId>,
}

impl fmt::Debug for TwiceEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwiceEngine")
            .field("organization", &self.organization)
            .field("banks", &self.tables.len())
            .field("th_rh", &self.params.th_rh)
            .field("th_pi", &self.th_pi)
            .field("stats", &self.stats)
            .finish()
    }
}

impl TwiceEngine {
    /// Creates an engine with fa-TWiCe tables for `num_banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation or `num_banks` is zero.
    pub fn new(params: TwiceParams, num_banks: u32) -> TwiceEngine {
        TwiceEngine::with_organization(params, num_banks, TableOrganization::default())
    }

    /// Creates an engine with the given table organization.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation or `num_banks` is zero.
    pub fn with_organization(
        params: TwiceParams,
        num_banks: u32,
        organization: TableOrganization,
    ) -> TwiceEngine {
        params.validate().expect("invalid TWiCe parameters");
        assert!(num_banks > 0, "need at least one bank");
        let bound = CapacityBound::for_params(&params);
        let th_pi = params.th_pi();
        // The SoA death ring is sized by the largest count a tracked
        // entry can carry; entries retire at thRH, so that is the bound
        // on any uncorrupted count (corrupted ones take the overflow
        // path).
        let max_cnt = params.th_rh;
        let tables: Vec<Box<dyn CounterTable + Send>> = (0..num_banks)
            .map(|_| -> Box<dyn CounterTable + Send> {
                match organization {
                    TableOrganization::FullyAssociative => {
                        Box::new(SoaFa::new(bound.total(), th_pi, max_cnt))
                    }
                    TableOrganization::PseudoAssociative => {
                        Box::new(SoaPa::with_capacity_64way(bound.total(), th_pi, max_cnt))
                    }
                    TableOrganization::Split => Box::new(SoaSplit::new(
                        bound.split_short(),
                        bound.split_long(),
                        th_pi,
                        max_cnt,
                    )),
                }
            })
            .collect();
        TwiceEngine {
            name: format!("TWiCe({})", organization.label()),
            params,
            organization,
            th_pi,
            max_occupancy: vec![0; num_banks as usize],
            tables,
            stats: EngineStats::default(),
            scrubbing: true,
            injector: FaultInjector::inert(),
            scratch_entries: Vec::new(),
            scratch_victims: Vec::new(),
        }
    }

    /// Enables or disables the parity/scrub hardening (on by default).
    ///
    /// With scrubbing off the engine models the paper's original design:
    /// no parity column, no scrub pass — injected counter upsets corrupt
    /// counts silently and can defeat detection. The chaos experiment
    /// compares the two configurations.
    #[must_use]
    pub fn with_scrubbing(mut self, on: bool) -> TwiceEngine {
        self.scrubbing = on;
        for t in &mut self.tables {
            t.set_parity_checking(on);
        }
        self
    }

    /// Arms the engine's counter-SRAM fault injector with `plan`,
    /// deriving its stream with `salt` (use a distinct salt per engine
    /// so channels do not alias).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: &FaultPlan, salt: u64) -> TwiceEngine {
        self.injector = plan.injector(salt);
        self
    }

    /// Whether the parity/scrub hardening is enabled.
    #[inline]
    pub fn scrubbing(&self) -> bool {
        self.scrubbing
    }

    /// Picks an SEU victim in `bank`'s table per the plan's targeting
    /// policy and flips one stored count bit. Returns `true` if the
    /// upset landed in a valid entry.
    fn inject_seu(&mut self, bank: BankId) -> bool {
        // The probe set lands in a scratch buffer reused across calls so
        // a high fault rate does not allocate on every ACT.
        self.tables[bank.index()].entries_into(&mut self.scratch_entries);
        if self.scratch_entries.is_empty() {
            return false; // upset landed in an invalid slot
        }
        // Canonical order: entry order out of the table is a placement
        // artifact (fa/pa/split lay the same set out differently, and a
        // snapshot restore repacks slots), so victim selection must not
        // depend on it or replay would diverge across organizations and
        // across restores.
        self.scratch_entries.sort_unstable_by_key(|e| e.row);
        let (victim, bit) = match self.injector.targeting() {
            FaultTargeting::Hottest => {
                let hottest = self
                    .scratch_entries
                    .iter()
                    .max_by_key(|e| (e.act_cnt, std::cmp::Reverse(e.row)))
                    .expect("non-empty");
                let bit = hottest.top_count_bit().unwrap_or(0);
                (hottest.row, bit)
            }
            FaultTargeting::Random => {
                let slot = self.injector.draw(self.scratch_entries.len() as u64) as usize;
                let e = self.scratch_entries[slot];
                // Upsets land anywhere in the count column; width 16
                // covers every count the fast/paper parameters reach.
                (e.row, self.injector.draw(16) as u32)
            }
        };
        if self.tables[bank.index()].inject_bit_flip(victim, bit) {
            self.stats.seu_injected += 1;
            true
        } else {
            false
        }
    }

    /// Models a stuck-at-0 cell under the hottest entry's top count bit
    /// (the `CounterStuckBit` device fault): the bit reads back zero, so
    /// the count the threshold comparator sees is roughly halved — the
    /// worst case for detection latency, since the stuck cell sits under
    /// exactly the entry about to cross `th_rh`.
    fn inject_stuck_bit(&mut self, bank: BankId) -> bool {
        self.tables[bank.index()].entries_into(&mut self.scratch_entries);
        if self.scratch_entries.is_empty() {
            return false; // nothing resident over the stuck cell
        }
        self.scratch_entries.sort_unstable_by_key(|e| e.row);
        let hottest = self
            .scratch_entries
            .iter()
            .max_by_key(|e| (e.act_cnt, std::cmp::Reverse(e.row)))
            .expect("non-empty");
        // A count of zero has no set top bit: stuck-at-0 is invisible.
        let Some(bit) = hottest.top_count_bit() else {
            return false;
        };
        let row = hottest.row;
        if self.tables[bank.index()].inject_bit_flip(row, bit) {
            self.stats.seu_injected += 1;
            true
        } else {
            false
        }
    }

    /// The engine's parameters.
    #[inline]
    pub fn params(&self) -> &TwiceParams {
        &self.params
    }

    /// The table organization in use.
    #[inline]
    pub fn organization(&self) -> TableOrganization {
        self.organization
    }

    /// Aggregate statistics.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Highest occupancy ever observed on `bank`'s table.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn max_occupancy(&self, bank: BankId) -> usize {
        self.max_occupancy[bank.index()]
    }

    /// Highest occupancy observed across all banks.
    pub fn max_occupancy_any(&self) -> usize {
        self.max_occupancy.iter().copied().max().unwrap_or(0)
    }

    /// Direct read access to a bank's table (for experiments).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn table(&self, bank: BankId) -> &dyn CounterTable {
        self.tables[bank.index()].as_ref()
    }
}

impl RowHammerDefense for TwiceEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        self.stats.acts += 1;
        twice_obs::bump(twice_obs::Ctr::CoreActs);
        if self.injector.fire(FaultKind::CounterBitFlip) {
            self.inject_seu(bank);
        }
        if self.injector.fire(FaultKind::CounterStuckBit) {
            self.inject_stuck_bit(bank);
        }
        #[cfg(feature = "debug-invariants")]
        let pre_count = self.tables[bank.index()].get(row).map(|e| e.act_cnt);
        let table = &mut self.tables[bank.index()];
        let outcome = table.record_act(row);
        let occ = table.occupancy();
        debug_invariant!(
            occ <= table.capacity(),
            "occupancy {} exceeds capacity {}",
            occ,
            table.capacity()
        );
        #[cfg(feature = "debug-invariants")]
        if let RecordOutcome::Counted { act_cnt } = outcome {
            // Count monotonicity: one ACT advances the entry by exactly 1.
            let expected = pre_count.unwrap_or(0) + 1;
            debug_invariant!(
                act_cnt == expected,
                "act_cnt jumped from {pre_count:?} to {act_cnt} on one ACT"
            );
        }
        if occ > self.max_occupancy[bank.index()] {
            self.max_occupancy[bank.index()] = occ;
        }
        match outcome {
            RecordOutcome::Counted { act_cnt } if act_cnt >= self.params.th_rh => {
                table.remove(row);
                self.stats.arrs += 1;
                twice_obs::bump(twice_obs::Ctr::CoreArrs);
                DefenseResponse {
                    detection: Some(Detection {
                        bank,
                        row,
                        at: now,
                        act_count: act_cnt,
                    }),
                    ..DefenseResponse::arr(row)
                }
            }
            RecordOutcome::Counted { .. } => DefenseResponse::none(),
            RecordOutcome::TableFull => {
                // Fail safe: refresh the row's neighbors immediately.
                self.stats.table_full_events += 1;
                self.stats.arrs += 1;
                twice_obs::bump(twice_obs::Ctr::CoreArrs);
                DefenseResponse {
                    detection: Some(Detection {
                        bank,
                        row,
                        at: now,
                        act_count: 0,
                    }),
                    ..DefenseResponse::arr(row)
                }
            }
            RecordOutcome::Corrupted => {
                // The stored count failed parity on read: its value is
                // untrustworthy, possibly *under*-reporting a hammer in
                // progress. Fail safe exactly like `TableFull`: retire the
                // entry and ARR the row now.
                table.remove(row);
                self.stats.corruption_events += 1;
                self.stats.arrs += 1;
                twice_obs::bump(twice_obs::Ctr::CoreArrs);
                DefenseResponse {
                    detection: Some(Detection {
                        bank,
                        row,
                        at: now,
                        act_count: 0,
                    }),
                    ..DefenseResponse::arr(row)
                }
            }
        }
    }

    fn on_auto_refresh(&mut self, bank: BankId, now: Time) -> DefenseResponse {
        self.stats.prunes += 1;
        // Scrub before pruning so a corrupted count cannot influence the
        // survive/evict decision. Every scrubbed row is ARRed: its true
        // count is unknown, so the engine assumes the worst. The victim
        // list lands in a scratch buffer so the clean-pass common case
        // (no corruption) never allocates.
        let mut response = DefenseResponse::none();
        if self.scrubbing {
            self.tables[bank.index()].scrub_into(&mut self.scratch_victims);
            if !self.scratch_victims.is_empty() {
                self.stats.corruption_events += self.scratch_victims.len() as u64;
                self.stats.arrs += self.scratch_victims.len() as u64;
                twice_obs::add(twice_obs::Ctr::CoreArrs, self.scratch_victims.len() as u64);
                let first = self.scratch_victims[0];
                response.arr = Some(first);
                response.detection = Some(Detection {
                    bank,
                    row: first,
                    at: now,
                    act_count: 0,
                });
                // Remaining corrupted rows ride the explicit-refresh
                // channel; the caller treats them as ARR aggressors too.
                response.refresh_rows = self.scratch_victims[1..].to_vec();
            }
        }
        let table = &mut self.tables[bank.index()];
        let _prune_span = twice_obs::span(twice_obs::SpanId::CorePrune);
        twice_obs::bump(twice_obs::Ctr::CorePrunePasses);
        let occ_before = table.occupancy();
        table.prune(self.th_pi);
        twice_obs::add(
            twice_obs::Ctr::CorePrunedEntries,
            occ_before.saturating_sub(table.occupancy()) as u64,
        );
        debug_invariant!(
            table.occupancy() <= table.capacity(),
            "occupancy exceeds capacity after prune"
        );
        response
    }

    fn reset(&mut self) {
        for t in &mut self.tables {
            t.clear();
        }
        self.max_occupancy.iter_mut().for_each(|m| *m = 0);
        self.stats = EngineStats::default();
    }

    fn corruption_events(&self) -> u64 {
        self.stats.corruption_events
    }

    fn pressure(&self) -> DefensePressure {
        // Hottest live act_cnt across all bank tables, against thRH. The
        // per-bank entry walk is O(occupancy) and only runs when a caller
        // polls (epoch boundaries), never on the ACT hot path.
        let mut hottest = 0;
        for t in &self.tables {
            for e in t.entries() {
                hottest = hottest.max(e.act_cnt);
            }
        }
        DefensePressure::from_counter(
            hottest,
            self.params.th_rh,
            self.stats.arrs + self.stats.table_full_events,
        )
    }

    fn faults_injected(&self) -> u64 {
        self.stats.seu_injected
    }

    fn fault_injector(&self) -> Option<&FaultInjector> {
        Some(&self.injector)
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        Some(self.tables[bank.index()].occupancy())
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        // Layout version: bumped with the SoA arena rewrite. Blobs from
        // the pre-SoA layout open with a u64 stats field where this u32
        // sits, so the tagged codec rejects them with a typed
        // `SnapshotError` before any state is touched. The digest is
        // this blob's checksum, so it is placement-blind (the entries
        // go out sorted, not by slot) but moves when the version does.
        w.put_u32(ENGINE_LAYOUT_VERSION);
        w.put_u64(self.stats.acts);
        w.put_u64(self.stats.arrs);
        w.put_u64(self.stats.table_full_events);
        w.put_u64(self.stats.prunes);
        w.put_u64(self.stats.corruption_events);
        w.put_u64(self.stats.seu_injected);
        w.put_usize(self.max_occupancy.len());
        for &m in &self.max_occupancy {
            w.put_usize(m);
        }
        self.injector.save_state(w);
        w.put_usize(self.tables.len());
        for t in &self.tables {
            // Sorted so the blob is placement-independent: fa/pa/split lay
            // identical entry sets out differently.
            let mut entries = t.entries();
            entries.sort_unstable_by_key(|e| e.row);
            w.put_usize(entries.len());
            for e in &entries {
                w.put_u32(e.row.0);
                w.put_u64(e.act_cnt);
                w.put_u64(e.life);
            }
            let corrupted = t.corrupted_rows();
            w.put_usize(corrupted.len());
            for r in corrupted {
                w.put_u32(r.0);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let version = r.take_u32()?;
        if version != ENGINE_LAYOUT_VERSION {
            return Err(SnapshotError::StateMismatch(format!(
                "engine table-layout version {version:#010x} is not the supported \
                 {ENGINE_LAYOUT_VERSION:#010x}"
            )));
        }
        self.stats = EngineStats {
            acts: r.take_u64()?,
            arrs: r.take_u64()?,
            table_full_events: r.take_u64()?,
            prunes: r.take_u64()?,
            corruption_events: r.take_u64()?,
            seu_injected: r.take_u64()?,
        };
        let banks = r.take_usize()?;
        if banks != self.max_occupancy.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "engine has {} banks, snapshot has {banks}",
                self.max_occupancy.len()
            )));
        }
        for m in &mut self.max_occupancy {
            *m = r.take_usize()?;
        }
        self.injector.load_state(r)?;
        let tables = r.take_usize()?;
        if tables != self.tables.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "engine has {} tables, snapshot has {tables}",
                self.tables.len()
            )));
        }
        let rows = self.params.rows_per_bank;
        let in_bank = |row: u32| {
            if row < rows {
                Ok(RowId(row))
            } else {
                Err(SnapshotError::StateMismatch(format!(
                    "restored row {row} is outside a {rows}-row bank"
                )))
            }
        };
        for t in &mut self.tables {
            t.clear();
            let n = r.take_usize()?;
            for _ in 0..n {
                let entry = TableEntry {
                    row: in_bank(r.take_u32()?)?,
                    act_cnt: r.take_u64()?,
                    life: r.take_u64()?,
                };
                if !t.insert_entry(entry) {
                    return Err(SnapshotError::StateMismatch(format!(
                        "no slot for restored entry of row {}",
                        entry.row.0
                    )));
                }
            }
            let n = r.take_usize()?;
            for _ in 0..n {
                t.mark_corrupted(in_bank(r.take_u32()?)?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(org: TableOrganization) -> TwiceEngine {
        TwiceEngine::with_organization(TwiceParams::fast_test(), 2, org)
    }

    const ALL_ORGS: [TableOrganization; 3] = [
        TableOrganization::FullyAssociative,
        TableOrganization::PseudoAssociative,
        TableOrganization::Split,
    ];

    #[test]
    fn hammering_row_is_arred_exactly_at_th_rh() {
        for org in ALL_ORGS {
            let mut e = engine(org);
            let th_rh = e.params().th_rh;
            let mut now = Time::ZERO;
            for i in 1..th_rh {
                let r = e.on_activate(BankId(0), RowId(7), now);
                assert!(r.is_none(), "{org:?}: premature action at ACT {i}");
                now += e.params().timings.t_rc;
            }
            let r = e.on_activate(BankId(0), RowId(7), now);
            assert_eq!(r.arr, Some(RowId(7)), "{org:?}");
            let d = r.detection.expect("detection expected");
            assert_eq!(d.act_count, th_rh);
            assert_eq!(d.row, RowId(7));
            // Entry retired: counting starts over.
            let r = e.on_activate(BankId(0), RowId(7), now);
            assert!(r.is_none());
            assert_eq!(e.stats().arrs, 1);
        }
    }

    #[test]
    fn pruning_forgets_cold_rows() {
        for org in ALL_ORGS {
            let mut e = engine(org);
            // 3 ACTs (below thPI=4), then a prune: row must be forgotten.
            for _ in 0..3 {
                e.on_activate(BankId(0), RowId(5), Time::ZERO);
            }
            assert_eq!(e.table_occupancy(BankId(0)), Some(1));
            e.on_auto_refresh(BankId(0), Time::ZERO);
            assert_eq!(e.table_occupancy(BankId(0)), Some(0), "{org:?}");
        }
    }

    #[test]
    fn banks_are_independent() {
        let mut e = engine(TableOrganization::FullyAssociative);
        e.on_activate(BankId(0), RowId(5), Time::ZERO);
        assert_eq!(e.table_occupancy(BankId(0)), Some(1));
        assert_eq!(e.table_occupancy(BankId(1)), Some(0));
        e.on_auto_refresh(BankId(1), Time::ZERO);
        assert_eq!(e.table_occupancy(BankId(0)), Some(1), "prune is per-bank");
    }

    #[test]
    fn slow_hammer_below_th_pi_rate_is_never_tracked_long() {
        // A row activated thPI-1 times per PI is pruned every PI and can
        // never reach thRH while tracked (Eq. 1 of §4.3).
        let mut e = engine(TableOrganization::FullyAssociative);
        let th_pi = e.params().th_pi();
        for pi in 0..200 {
            for _ in 0..(th_pi - 1) {
                let r = e.on_activate(BankId(0), RowId(9), Time::ZERO);
                assert!(r.is_none(), "PI {pi}");
            }
            e.on_auto_refresh(BankId(0), Time::ZERO);
            assert_eq!(e.table_occupancy(BankId(0)), Some(0));
        }
        assert_eq!(e.stats().arrs, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = engine(TableOrganization::Split);
        for _ in 0..10 {
            e.on_activate(BankId(1), RowId(3), Time::ZERO);
        }
        assert!(e.max_occupancy(BankId(1)) > 0);
        e.reset();
        assert_eq!(e.stats(), EngineStats::default());
        assert_eq!(e.max_occupancy(BankId(1)), 0);
        assert_eq!(e.table_occupancy(BankId(1)), Some(0));
    }

    #[test]
    fn organizations_make_identical_decisions() {
        use twice_common::rng::SplitMix64;
        let params = TwiceParams::fast_test();
        let max_act = params.max_act();
        let mut engines: Vec<TwiceEngine> = ALL_ORGS
            .iter()
            .map(|&o| TwiceEngine::with_organization(params.clone(), 1, o))
            .collect();
        let mut rng = SplitMix64::new(2024);
        let mut acts_this_pi = 0u64;
        for step in 0..20_000u64 {
            // The physical environment guarantees a prune (auto-refresh)
            // at least every `maxact` ACTs; the split sizing relies on it.
            if acts_this_pi >= max_act || rng.chance(0.01) {
                for e in &mut engines {
                    e.on_auto_refresh(BankId(0), Time::ZERO);
                }
                acts_this_pi = 0;
                continue;
            }
            acts_this_pi += 1;
            // Skewed row distribution so some rows reach thRH.
            let row = if rng.chance(0.5) {
                RowId(0)
            } else {
                RowId(rng.next_below(30) as u32 + 1)
            };
            let responses: Vec<DefenseResponse> = engines
                .iter_mut()
                .map(|e| e.on_activate(BankId(0), row, Time::ZERO))
                .collect();
            for (i, r) in responses.iter().enumerate().skip(1) {
                assert_eq!(
                    responses[0].arr, r.arr,
                    "{:?} vs {:?} at {step}",
                    ALL_ORGS[0], ALL_ORGS[i]
                );
            }
        }
        let arrs: Vec<u64> = engines.iter().map(|e| e.stats().arrs).collect();
        assert!(arrs[0] > 0, "test should have triggered ARRs");
        for (i, &a) in arrs.iter().enumerate().skip(1) {
            assert_eq!(arrs[0], a, "{:?}", ALL_ORGS[i]);
        }
        for e in &engines {
            assert_eq!(e.stats().table_full_events, 0);
        }
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TwiceEngine>();
    }

    #[test]
    fn snapshot_round_trip_restores_behavior_for_every_organization() {
        use twice_common::rng::SplitMix64;
        use twice_common::snapshot::StateDigest;
        for org in ALL_ORGS {
            // Drive an engine into a non-trivial mid-run state, with some
            // injected corruption pending scrub.
            let plan = FaultPlan::with_seed(5).rate(FaultKind::CounterBitFlip, 0.02);
            let mut original = TwiceEngine::with_organization(TwiceParams::fast_test(), 2, org)
                .with_fault_plan(&plan, 0xE0);
            let mut rng = SplitMix64::new(77);
            for step in 0..5_000u64 {
                let bank = BankId(rng.next_below(2) as u32);
                let row = RowId(rng.next_below(25) as u32);
                original.on_activate(bank, row, Time::ZERO);
                if step % 400 == 399 {
                    original.on_auto_refresh(bank, Time::ZERO);
                }
            }

            // Save, restore into a freshly built engine, compare digests.
            let mut w = SnapshotWriter::new();
            RowHammerDefense::save_state(&original, &mut w);
            let blob = w.finish();
            let mut restored = TwiceEngine::with_organization(TwiceParams::fast_test(), 2, org)
                .with_fault_plan(&plan, 0xE0);
            let mut r = SnapshotReader::new(&blob).expect("valid blob");
            RowHammerDefense::load_state(&mut restored, &mut r).expect("restore");

            let digest = |e: &TwiceEngine| {
                let mut d = StateDigest::new();
                RowHammerDefense::digest_state(e, &mut d);
                d.finish()
            };
            assert_eq!(digest(&original), digest(&restored), "{org:?}");

            // And the two engines stay in lockstep afterwards.
            for step in 0..2_000u64 {
                let bank = BankId(rng.next_below(2) as u32);
                let row = RowId(rng.next_below(25) as u32);
                let a = original.on_activate(bank, row, Time::ZERO);
                let b = restored.on_activate(bank, row, Time::ZERO);
                assert_eq!(a, b, "{org:?} diverged at post-restore step {step}");
                if step % 300 == 299 {
                    let a = original.on_auto_refresh(bank, Time::ZERO);
                    let b = restored.on_auto_refresh(bank, Time::ZERO);
                    assert_eq!(a, b, "{org:?} prune diverged at step {step}");
                }
            }
            assert_eq!(digest(&original), digest(&restored), "{org:?} final");
        }
    }

    #[test]
    fn stuck_counter_bit_suppresses_detection_without_scrub() {
        // A stuck-at-0 cell under the hottest entry's top count bit keeps
        // knocking the count back down; with the parity/scrub hardening
        // off, the unprotected design never reaches the threshold.
        let plan = FaultPlan::with_seed(3).rate(FaultKind::CounterStuckBit, 1.0);
        let mut e = TwiceEngine::with_organization(
            TwiceParams::fast_test(),
            1,
            TableOrganization::FullyAssociative,
        )
        .with_fault_plan(&plan, 0xBAD)
        .with_scrubbing(false);
        let th_rh = e.params().th_rh;
        for i in 0..th_rh * 4 {
            let r = e.on_activate(BankId(0), RowId(7), Time::ZERO);
            assert!(r.is_none(), "stuck top bit must defeat detection (ACT {i})");
        }
        assert!(e.stats().seu_injected > 0, "fault must have landed");
        assert_eq!(e.stats().arrs, 0);
    }

    #[test]
    fn snapshot_rejects_mismatched_geometry() {
        let original = engine(TableOrganization::FullyAssociative);
        let mut w = SnapshotWriter::new();
        RowHammerDefense::save_state(&original, &mut w);
        let blob = w.finish();
        // One bank instead of two: the restore must refuse.
        let mut other = TwiceEngine::with_organization(
            TwiceParams::fast_test(),
            1,
            TableOrganization::FullyAssociative,
        );
        let mut r = SnapshotReader::new(&blob).expect("valid blob");
        assert!(matches!(
            RowHammerDefense::load_state(&mut other, &mut r),
            Err(SnapshotError::StateMismatch(_))
        ));
    }

    #[test]
    fn snapshot_rejects_rows_outside_the_bank() {
        use twice_common::snapshot::fnv1a;
        let field = |v: u32| {
            let mut w = SnapshotWriter::new();
            w.put_u32(v);
            w.finish()[6..11].to_vec()
        };
        let rows = TwiceParams::fast_test().rows_per_bank;
        for org in ALL_ORGS {
            let mut original = engine(org);
            original.on_activate(BankId(0), RowId(1234), Time::ZERO);
            let mut w = SnapshotWriter::new();
            RowHammerDefense::save_state(&original, &mut w);
            let mut blob = w.finish();
            // Point the one entry at a row past the bank, then reseal the
            // checksum so only the row check can refuse the blob.
            let (old, new) = (field(1234), field(rows + 1234));
            let at: Vec<usize> = (0..blob.len() - old.len())
                .filter(|&i| blob[i..i + old.len()] == old[..])
                .collect();
            assert_eq!(at.len(), 1, "{org:?}: one entry names row 1234");
            blob[at[0]..at[0] + new.len()].copy_from_slice(&new);
            let n = blob.len() - 8;
            let sum = fnv1a(&blob[..n]);
            blob[n..].copy_from_slice(&sum.to_le_bytes());

            let mut restored = engine(org);
            let mut r = SnapshotReader::new(&blob).expect("resealed blob");
            let err = RowHammerDefense::load_state(&mut restored, &mut r).expect_err("must reject");
            assert!(
                matches!(err, SnapshotError::StateMismatch(_)),
                "{org:?}: {err}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_pre_soa_layout_blob() {
        // A pre-SoA blob has no layout stamp: its first field is the u64
        // acts counter. The tagged codec must refuse it with a typed
        // error, never a panic.
        let mut w = SnapshotWriter::new();
        w.put_u64(42); // acts, old layout
        w.put_u64(0);
        let blob = w.finish();
        let mut e = engine(TableOrganization::FullyAssociative);
        let mut r = SnapshotReader::new(&blob).expect("valid container");
        let err = RowHammerDefense::load_state(&mut e, &mut r).expect_err("must reject");
        assert!(matches!(err, SnapshotError::WrongFieldType { .. }), "{err}");

        // A future layout version is refused with a message, too.
        let mut w = SnapshotWriter::new();
        w.put_u32(0xDEAD_BEEF);
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).expect("valid container");
        let err = RowHammerDefense::load_state(&mut e, &mut r).expect_err("must reject");
        assert!(matches!(err, SnapshotError::StateMismatch(_)), "{err}");
    }

    #[test]
    fn debug_and_name_are_informative() {
        let e = engine(TableOrganization::PseudoAssociative);
        assert_eq!(e.name(), "TWiCe(pa)");
        let dbg = format!("{e:?}");
        assert!(dbg.contains("banks: 2"));
    }
}
