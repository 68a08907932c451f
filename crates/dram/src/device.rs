//! The aggregate DRAM rank model.
//!
//! [`DramRank`] ties together the per-bank FSMs, rank-level activation
//! window, row sparing, refresh cursors, and the row-hammer fault model.
//! All DRAM devices of a rank operate in tandem (§2.3), so one `DramRank`
//! stands for the whole device group.

use crate::bank::Bank;
use crate::cmd::DramCommand;
use crate::data::{BankData, RowIntegrity};
use crate::energy::DramEnergyModel;
use crate::error::DramError;
use crate::hammer::{BitFlip, HammerModel};
use crate::rank::RankActWindow;
use crate::refresh::RefreshCursor;
use crate::remap::{NeighborRows, RemapTable};
use crate::stats::DramStats;
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{DdrTimings, RowId, Time};

/// Construction parameters for a [`DramRank`].
#[derive(Debug, Clone)]
pub struct RankConfig {
    /// The timing parameter set.
    pub timings: DdrTimings,
    /// Banks in the rank.
    pub banks: u16,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row-hammer disturbance threshold `N_th`.
    pub n_th: u64,
    /// Faulty (spared/remapped) rows per bank.
    pub faults_per_bank: u32,
    /// Seed for remap-table construction.
    pub remap_seed: u64,
    /// Overdrive fault model: one extra bit flip per this much
    /// disturbance beyond `N_th` (see [`HammerModel::with_overshoot`]).
    pub overshoot_interval: Option<u64>,
    /// Half-Double coupling: every `k`-th activation also disturbs the
    /// rows at physical distance 2 (`None` = classic distance-1 model).
    pub far_coupling: Option<u64>,
    /// ARR blast radius: how far out an ARR refreshes (1 = the paper's
    /// design; 2 = the widened "TWiCe+" ARR that counters Half-Double).
    pub arr_radius: u32,
}

impl RankConfig {
    /// The Table 2/4 configuration: 16 banks of 131,072 rows, DDR4-2400,
    /// `N_th` = 139K (from [Kim et al. 2014] as cited in §4.1), no
    /// remapped rows.
    pub fn paper_default() -> RankConfig {
        RankConfig {
            timings: DdrTimings::ddr4_2400(),
            banks: 16,
            rows_per_bank: 131_072,
            n_th: 139_000,
            faults_per_bank: 0,
            remap_seed: 1,
            overshoot_interval: None,
            far_coupling: None,
            arr_radius: 1,
        }
    }

    /// A small configuration for tests: real DDR4 timing, tiny geometry,
    /// and a low `N_th` (100) so attacks flip quickly.
    pub fn for_test(banks: u16, rows_per_bank: u32) -> RankConfig {
        RankConfig {
            timings: DdrTimings::ddr4_2400(),
            banks,
            rows_per_bank,
            n_th: 100,
            faults_per_bank: 0,
            remap_seed: 1,
            overshoot_interval: None,
            far_coupling: None,
            arr_radius: 1,
        }
    }

    /// Returns the config with a different disturbance threshold.
    pub fn with_n_th(mut self, n_th: u64) -> RankConfig {
        self.n_th = n_th;
        self
    }

    /// Returns the config with `faults` remapped rows per bank.
    pub fn with_faults(mut self, faults: u32) -> RankConfig {
        self.faults_per_bank = faults;
        self
    }

    /// Returns the config with overdrive flips every `interval` of
    /// disturbance past `N_th`.
    pub fn with_overshoot(mut self, interval: u64) -> RankConfig {
        self.overshoot_interval = Some(interval);
        self
    }

    /// Returns the config with Half-Double coupling every `k`-th ACT.
    pub fn with_far_coupling(mut self, k: u64) -> RankConfig {
        self.far_coupling = Some(k);
        self
    }
}

/// One DRAM rank: banks, timing, sparing, refresh, and fault model.
#[derive(Debug)]
pub struct DramRank {
    config: RankConfig,
    banks: Vec<Bank>,
    act_window: RankActWindow,
    remap: Vec<RemapTable>,
    hammer: Vec<HammerModel>,
    refresh: Vec<RefreshCursor>,
    data: Vec<BankData>,
    stats: DramStats,
    /// Monotone counter seeding deterministic flip positions.
    flip_nonce: u64,
    /// Flip events already applied to the data arrays (total across
    /// banks; the serialized form, kept for snapshot compatibility).
    flips_applied: usize,
    /// Per-bank applied-event counts — the derived index that lets
    /// [`sync_flips`](Self::sync_flips) diff one bank's event list
    /// instead of summing every bank's on each ACT. Recomputed on
    /// restore, never serialized. Invariant: `flips_seen[b]` equals
    /// `hammer[b].flips().len()` after every sync, and the counts sum
    /// to `flips_applied`.
    flips_seen: Vec<usize>,
}

impl DramRank {
    /// Builds the rank described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the timing set fails validation or geometry is zero.
    pub fn new(config: RankConfig) -> DramRank {
        config.timings.validate().expect("invalid timing set");
        assert!(config.banks > 0 && config.rows_per_bank > 0, "empty rank");
        let refs_per_window = config.timings.refreshes_per_window();
        let banks = (0..config.banks)
            .map(|_| Bank::new(config.timings.clone()))
            .collect();
        let remap = (0..config.banks)
            .map(|b| {
                if config.faults_per_bank == 0 {
                    RemapTable::identity(config.rows_per_bank)
                } else {
                    RemapTable::with_random_faults(
                        config.rows_per_bank,
                        config.faults_per_bank,
                        config.remap_seed.wrapping_add(u64::from(b)),
                    )
                }
            })
            .collect();
        let hammer = (0..config.banks)
            .map(|_| {
                let mut m = HammerModel::new(config.rows_per_bank, config.n_th);
                if let Some(iv) = config.overshoot_interval {
                    m = m.with_overshoot(iv);
                }
                if let Some(k) = config.far_coupling {
                    m = m.with_far_coupling(k);
                }
                m
            })
            .collect();
        let data = (0..config.banks)
            .map(|b| BankData::new(8_192, config.remap_seed ^ (u64::from(b) << 32)))
            .collect();
        let refresh = (0..config.banks)
            .map(|_| RefreshCursor::new(config.rows_per_bank, refs_per_window))
            .collect();
        let nbanks = usize::from(config.banks);
        DramRank {
            act_window: RankActWindow::new(&config.timings, config.banks),
            config,
            banks,
            remap,
            hammer,
            refresh,
            data,
            stats: DramStats::new(),
            flip_nonce: 0,
            flips_applied: 0,
            flips_seen: vec![0; nbanks],
        }
    }

    /// Applies any newly recorded bit-flip events of bank `b` to its data
    /// array at deterministic bit positions.
    fn sync_flips(&mut self, b: usize) {
        use twice_common::rng::SplitMix64;
        let new = self.hammer[b].flips().len();
        let seen = self.flips_seen[b];
        if new <= seen {
            return;
        }
        let events: Vec<_> = self.hammer[b].flips()[seen..].to_vec();
        for flip in events {
            self.flip_nonce += 1;
            let mut rng = SplitMix64::new(
                self.config.remap_seed ^ (u64::from(flip.victim.0) << 16) ^ self.flip_nonce,
            );
            let bit = rng.next_below(8_192 * 8);
            self.data[b].flip_bit(flip.victim, bit);
        }
        self.flips_applied += new - seen;
        self.flips_seen[b] = new;
    }

    /// The construction parameters.
    #[inline]
    pub fn config(&self) -> &RankConfig {
        &self.config
    }

    /// Accumulated command statistics.
    #[inline]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Records one nacked command in the rank's statistics. The RCD calls
    /// this so experiments can split protocol nacks from chaos-injected
    /// ones.
    pub(crate) fn record_nack(&mut self, injected: bool) {
        if injected {
            self.stats.injected_nacks += 1;
        } else {
            self.stats.nacks += 1;
        }
    }

    /// Total energy (pJ) consumed so far under `model`.
    pub fn energy_pj(&self, model: &DramEnergyModel) -> u64 {
        self.stats.energy_pj(model)
    }

    fn check_bank(&self, bank: u16) -> Result<usize, DramError> {
        if bank < self.config.banks {
            Ok(usize::from(bank))
        } else {
            Err(DramError::NoSuchBank { bank })
        }
    }

    fn check_row(&self, row: RowId) -> Result<(), DramError> {
        if row.0 < self.config.rows_per_bank {
            Ok(())
        } else {
            Err(DramError::NoSuchRow { row })
        }
    }

    /// Issues one command at `now`.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] for unknown banks/rows, bad bank state,
    /// and timing violations. On error the device state is unchanged.
    pub fn issue(&mut self, cmd: DramCommand, now: Time) -> Result<(), DramError> {
        let b = self.check_bank(cmd.bank())?;
        match cmd {
            DramCommand::Activate { row, .. } => {
                self.check_row(row)?;
                // Validate both constraints before mutating either tracker.
                self.act_window
                    .check(cmd.bank(), now)
                    .map_err(DramError::Timing)?;
                self.banks[b].activate(row, now)?;
                self.act_window.record(cmd.bank(), now);
                self.stats.acts += 1;
                self.hammer[b].on_activate(row, &self.remap[b], now);
                self.sync_flips(b);
                Ok(())
            }
            DramCommand::Precharge { .. } => {
                self.banks[b].precharge(now)?;
                self.stats.precharges += 1;
                Ok(())
            }
            DramCommand::Read { .. } => {
                self.banks[b].column_access(now)?;
                self.stats.reads += 1;
                Ok(())
            }
            DramCommand::Write { .. } => {
                self.banks[b].column_access(now)?;
                self.stats.writes += 1;
                Ok(())
            }
            DramCommand::Refresh { .. } => {
                self.banks[b].refresh(now)?;
                self.stats.refreshes += 1;
                let hammer = &mut self.hammer[b];
                for row in self.refresh[b].refresh() {
                    hammer.on_refresh(row);
                }
                Ok(())
            }
            DramCommand::AdjacentRowRefresh { row, .. } => {
                self.check_row(row)?;
                let open = self.banks[b].open_row();
                if open != Some(row) {
                    return Err(DramError::BadState {
                        reason: "ARR row does not match the open aggressor row",
                    });
                }
                let victims = self.arr_victim_rows(cmd.bank(), row);
                let aggressor = self.banks[b].adjacent_row_refresh(now, victims.len() as u32)?;
                debug_assert_eq!(aggressor, row);
                for &v in &victims {
                    // Refreshing a victim is an internal ACT+PRE: it
                    // restores the victim and disturbs *its* neighbors.
                    self.hammer[b].on_activate(v, &self.remap[b], now);
                }
                self.stats.arrs += 1;
                self.stats.arr_victim_acts += victims.len() as u64;
                self.sync_flips(b);
                Ok(())
            }
        }
    }

    /// Performs an **all-bank refresh** (the DDR4 REFab command): every
    /// bank must be precharged and ready; each is then busy for `tRFC`
    /// while its next rowset refreshes. Modern parts also support the
    /// per-bank REF modeled by [`DramCommand::Refresh`]; controllers
    /// choose one mode (§2.1 discusses the rowset growth that motivated
    /// both).
    ///
    /// # Errors
    ///
    /// Fails with the *first* bank's error if any bank has an open row or
    /// is not ready; no state changes in that case.
    pub fn refresh_all(&mut self, now: Time) -> Result<(), DramError> {
        // Validate every bank first so failure is atomic.
        for bank in &self.banks {
            if bank.open_row().is_some() {
                return Err(DramError::BadState {
                    reason: "REFab with a row open in some bank",
                });
            }
            if now < bank.act_ready_at() {
                return Err(DramError::Timing(crate::error::TimingViolation {
                    kind: crate::error::TimingKind::Trfc,
                    ready_at: bank.act_ready_at(),
                    issued_at: now,
                }));
            }
        }
        for b in 0..usize::from(self.config.banks) {
            self.banks[b]
                .refresh(now)
                .expect("validated above: all banks ready");
            self.stats.refreshes += 1;
            let hammer = &mut self.hammer[b];
            for row in self.refresh[b].refresh() {
                hammer.on_refresh(row);
            }
        }
        Ok(())
    }

    /// Performs the *bookkeeping* of one auto-refresh — advances the
    /// rowset cursor, clears the covered rows' disturbance, counts the
    /// REF — without occupying the bank FSM.
    ///
    /// Memory controllers may postpone up to eight REF commands (JEDEC
    /// DDR4) and pull them in later back-to-back; the timed command path
    /// models the in-window REFs, and this entry point lets a controller
    /// retire a *coalesced backlog* (e.g. after a defense-induced refresh
    /// storm) without serializing thousands of REF commands through the
    /// shared command bus model.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoSuchBank`] for an unknown bank.
    pub fn force_refresh(&mut self, bank: u16) -> Result<(), DramError> {
        let b = self.check_bank(bank)?;
        self.stats.refreshes += 1;
        let hammer = &mut self.hammer[b];
        for row in self.refresh[b].refresh() {
            hammer.on_refresh(row);
        }
        Ok(())
    }

    /// Chaos hook for the `BankStuck` device fault: wedges `bank`'s FSM
    /// so it reads busy until `until` (see [`Bank::wedge`]). The RCD
    /// pairs this with its own nack bookkeeping so the MC backs off
    /// instead of tripping timing violations.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoSuchBank`] for an unknown bank.
    pub fn wedge_bank(&mut self, bank: u16, until: Time) -> Result<(), DramError> {
        let b = self.check_bank(bank)?;
        self.banks[b].wedge(until);
        Ok(())
    }

    /// Chaos hook for the `RefreshDrop` device fault: performs the bank
    /// FSM and timing side of one per-bank REF (the command was accepted
    /// on the bus and the bank cycles for tRFC), but the covered rowset
    /// is *not* refreshed — the cursor skips it (see
    /// [`RefreshCursor::skip`]) and its disturbance keeps accumulating
    /// for a full extra window.
    ///
    /// # Errors
    ///
    /// Propagates the same validation as a real REF (bank precharged and
    /// ready); on error the device state is unchanged.
    pub fn drop_refresh(&mut self, bank: u16, now: Time) -> Result<(), DramError> {
        let b = self.check_bank(bank)?;
        self.banks[b].refresh(now)?;
        self.stats.refreshes += 1;
        self.stats.dropped_refreshes += 1;
        self.refresh[b].skip();
        Ok(())
    }

    /// Refreshes explicit logical rows on behalf of an MC-side defense
    /// (PARA/CBT/CRA refresh requests). Each refresh is an internal
    /// ACT+PRE pair with the same disturbance side effects as an ARR
    /// victim activation.
    ///
    /// Rows outside the bank are ignored (a defense may ask for a logical
    /// neighbor that does not exist).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoSuchBank`] for an unknown bank.
    pub fn refresh_rows_explicit(
        &mut self,
        bank: u16,
        rows: impl IntoIterator<Item = RowId>,
        now: Time,
    ) -> Result<u32, DramError> {
        let b = self.check_bank(bank)?;
        let mut n = 0;
        for row in rows {
            if row.0 < self.config.rows_per_bank {
                self.hammer[b].on_activate(row, &self.remap[b], now);
                self.stats.explicit_refresh_acts += 1;
                n += 1;
            }
        }
        self.sync_flips(b);
        Ok(n)
    }

    /// Compares `(bank, row)`'s cells against their background pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn verify_row(&self, bank: u16, row: RowId) -> RowIntegrity {
        self.data[usize::from(bank)].verify(row)
    }

    /// Rows of `bank` whose cells diverge from their background pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn corrupted_data_rows(&self, bank: u16) -> Vec<RowId> {
        self.data[usize::from(bank)].corrupted_rows()
    }

    /// What in-DRAM SEC-DED ECC would make of `(bank, row)`'s damage:
    /// `(corrected, uncorrectable, silent)` codeword counts.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn ecc_judgement(&self, bank: u16, row: RowId) -> (usize, usize, usize) {
        match self.verify_row(bank, row) {
            RowIntegrity::Clean => (0, 0, 0),
            RowIntegrity::Corrupted(bits) => crate::ecc::judge_flips(&bits),
        }
    }

    /// The open row of `bank`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn open_row(&self, bank: u16) -> Option<RowId> {
        self.banks[usize::from(bank)].open_row()
    }

    /// Whether `bank` is occupied by REF or ARR at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn is_bank_busy(&self, bank: u16, now: Time) -> bool {
        self.banks[usize::from(bank)].is_busy(now)
    }

    /// Earliest instant the next ACT to `bank` is legal (bank + rank
    /// constraints).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn act_ready_at(&self, bank: u16) -> Time {
        self.banks[usize::from(bank)]
            .act_ready_at()
            .max(self.act_window.ready_at(bank))
    }

    /// The *physical* victim rows an ARR on `(bank, aggressor)` would
    /// refresh.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `aggressor` is out of range.
    pub fn physical_neighbors(&self, bank: u16, aggressor: RowId) -> NeighborRows {
        self.remap[usize::from(bank)].physical_neighbors(aggressor)
    }

    /// Every row an ARR on `(bank, aggressor)` refreshes under the
    /// configured blast radius (distance 1 ..= `arr_radius`).
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `aggressor` is out of range.
    pub fn arr_victim_rows(&self, bank: u16, aggressor: RowId) -> Vec<RowId> {
        let remap = &self.remap[usize::from(bank)];
        (1..=self.config.arr_radius)
            .flat_map(|d| remap.physical_neighbors_at(aggressor, d))
            .collect()
    }

    /// The logical (`±1`) neighbors of `aggressor` within the bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn logical_neighbors(&self, bank: u16, aggressor: RowId) -> NeighborRows {
        self.remap[usize::from(bank)].logical_neighbors(aggressor)
    }

    /// The remap table of `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn remap_table(&self, bank: u16) -> &RemapTable {
        &self.remap[usize::from(bank)]
    }

    /// Current disturbance of `(bank, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `row` is out of range.
    pub fn disturbance_of(&self, bank: u16, row: RowId) -> u64 {
        self.hammer[usize::from(bank)].disturbance_of(row)
    }

    /// All bit flips recorded so far, across banks.
    pub fn bit_flips(&self) -> Vec<(u16, BitFlip)> {
        let mut out = Vec::new();
        for (b, h) in self.hammer.iter().enumerate() {
            out.extend(h.flips().iter().map(|&f| (b as u16, f)));
        }
        out
    }

    /// Total number of bit flips recorded so far.
    pub fn bit_flip_count(&self) -> usize {
        self.hammer.iter().map(|h| h.flips().len()).sum()
    }

    /// The highest disturbance any row in any bank has ever reached
    /// (monotone watermark; survives refreshes). The red-team search's
    /// attack-margin probe.
    pub fn peak_disturbance(&self) -> u64 {
        self.hammer
            .iter()
            .map(|h| h.peak_disturbance())
            .max()
            .unwrap_or(0)
    }
}

impl Snapshot for DramRank {
    fn save_state(&self, w: &mut SnapshotWriter) {
        // Remap tables are fully determined by the config and need no
        // bytes; everything else is run-time state.
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            bank.save_state(w);
        }
        self.act_window.save_state(w);
        for h in &self.hammer {
            h.save_state(w);
        }
        for c in &self.refresh {
            c.save_state(w);
        }
        for d in &self.data {
            d.save_state(w);
        }
        self.stats.save_state(w);
        w.put_u64(self.flip_nonce);
        w.put_usize(self.flips_applied);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let banks = r.take_usize()?;
        if banks != self.banks.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "rank has {} banks, snapshot has {banks}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.load_state(r)?;
        }
        self.act_window.load_state(r)?;
        for h in &mut self.hammer {
            h.load_state(r)?;
        }
        for c in &mut self.refresh {
            c.load_state(r)?;
        }
        for d in &mut self.data {
            d.load_state(r)?;
        }
        self.stats.load_state(r)?;
        self.flip_nonce = r.take_u64()?;
        self.flips_applied = r.take_usize()?;
        // Derived: every recorded flip had been applied by save time, so
        // each bank's seen count is just its restored event-list length.
        for b in 0..self.hammer.len() {
            self.flips_seen[b] = self.hammer[b].flips().len();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::Span;

    fn t(ns: u64) -> Time {
        Time::ZERO + Span::from_ns(ns)
    }

    #[test]
    fn activate_checks_rank_and_bank_constraints() {
        let mut r = DramRank::new(RankConfig::for_test(4, 64));
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(1),
            },
            t(0),
        )
        .unwrap();
        // Bank 1 shares bank group 0: tRRD_L (6ns) applies.
        let e = r
            .issue(
                DramCommand::Activate {
                    bank: 1,
                    row: RowId(1),
                },
                t(5),
            )
            .unwrap_err();
        assert!(matches!(e, DramError::Timing(_)));
        r.issue(
            DramCommand::Activate {
                bank: 1,
                row: RowId(1),
            },
            t(6),
        )
        .unwrap();
        assert_eq!(r.stats().acts, 2);
    }

    #[test]
    fn rejects_unknown_bank_and_row() {
        let mut r = DramRank::new(RankConfig::for_test(2, 64));
        assert!(matches!(
            r.issue(
                DramCommand::Activate {
                    bank: 2,
                    row: RowId(0)
                },
                t(0)
            ),
            Err(DramError::NoSuchBank { bank: 2 })
        ));
        assert!(matches!(
            r.issue(
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(64)
                },
                t(0)
            ),
            Err(DramError::NoSuchRow { .. })
        ));
    }

    #[test]
    fn failed_activate_leaves_state_unchanged() {
        let mut r = DramRank::new(RankConfig::for_test(2, 64));
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(1),
            },
            t(0),
        )
        .unwrap();
        // Rank-level failure must not record the ACT in the window.
        let _ = r.issue(
            DramCommand::Activate {
                bank: 1,
                row: RowId(2),
            },
            t(3),
        );
        // tRRD_L from the *first* ACT only: legal at t=6.
        r.issue(
            DramCommand::Activate {
                bank: 1,
                row: RowId(2),
            },
            t(6),
        )
        .unwrap();
    }

    #[test]
    fn hammering_without_refresh_flips_victims() {
        let cfg = RankConfig::for_test(1, 64).with_n_th(20);
        let mut r = DramRank::new(cfg);
        let mut now = Time::ZERO;
        for _ in 0..20 {
            r.issue(
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(8),
                },
                now,
            )
            .unwrap();
            now += Span::from_ns(31);
            r.issue(DramCommand::Precharge { bank: 0 }, now).unwrap();
            now += Span::from_ns(14);
        }
        assert_eq!(r.bit_flip_count(), 2);
        let victims: Vec<RowId> = r.bit_flips().iter().map(|(_, f)| f.victim).collect();
        assert!(victims.contains(&RowId(7)) && victims.contains(&RowId(9)));
    }

    #[test]
    fn arr_refreshes_victims_and_blocks_bank() {
        let cfg = RankConfig::for_test(1, 64).with_n_th(1000);
        let mut r = DramRank::new(cfg);
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        // Hammer up some disturbance on the neighbors first.
        assert_eq!(r.disturbance_of(0, RowId(7)), 1);
        r.issue(
            DramCommand::AdjacentRowRefresh {
                bank: 0,
                row: RowId(8),
            },
            t(31),
        )
        .unwrap();
        // Victims restored; their own neighbors disturbed (row 8 got +1+1
        // from the two victim activations, but activation also clears...).
        assert_eq!(r.disturbance_of(0, RowId(7)), 0);
        assert_eq!(r.disturbance_of(0, RowId(9)), 0);
        assert_eq!(r.stats().arrs, 1);
        assert_eq!(r.stats().arr_victim_acts, 2);
        assert!(r.is_bank_busy(0, t(100)));
        assert!(!r.is_bank_busy(0, t(31 + 104)));
    }

    #[test]
    fn arr_requires_matching_open_row() {
        let mut r = DramRank::new(RankConfig::for_test(1, 64));
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        let e = r
            .issue(
                DramCommand::AdjacentRowRefresh {
                    bank: 0,
                    row: RowId(9),
                },
                t(31),
            )
            .unwrap_err();
        assert!(matches!(e, DramError::BadState { .. }));
    }

    #[test]
    fn auto_refresh_clears_disturbance_of_its_rowset() {
        // 64 rows, fast ratios are irrelevant; DDR4 has 8192 sets so each
        // REF covers exactly one row here (64 < 8192).
        let cfg = RankConfig::for_test(1, 64).with_n_th(1000);
        let mut r = DramRank::new(cfg);
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(1),
            },
            t(0),
        )
        .unwrap();
        assert_eq!(r.disturbance_of(0, RowId(0)), 1);
        r.issue(DramCommand::Precharge { bank: 0 }, t(31)).unwrap();
        // First REF covers row 0.
        r.issue(DramCommand::Refresh { bank: 0 }, t(45)).unwrap();
        assert_eq!(r.disturbance_of(0, RowId(0)), 0);
        assert_eq!(r.stats().refreshes, 1);
    }

    #[test]
    fn explicit_refresh_restores_rows_and_counts_acts() {
        let cfg = RankConfig::for_test(1, 64).with_n_th(1000);
        let mut r = DramRank::new(cfg);
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        let n = r
            .refresh_rows_explicit(0, [RowId(7), RowId(9), RowId(999)], t(31))
            .unwrap();
        assert_eq!(n, 2, "out-of-range rows are ignored");
        assert_eq!(r.stats().explicit_refresh_acts, 2);
        assert_eq!(r.disturbance_of(0, RowId(7)), 0);
    }

    #[test]
    fn hammer_flips_corrupt_real_data() {
        let cfg = RankConfig::for_test(1, 64).with_n_th(20);
        let mut r = DramRank::new(cfg);
        assert_eq!(r.verify_row(0, RowId(7)), RowIntegrity::Clean);
        let mut now = Time::ZERO;
        for _ in 0..20 {
            r.issue(
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(8),
                },
                now,
            )
            .unwrap();
            now += Span::from_ns(31);
            r.issue(DramCommand::Precharge { bank: 0 }, now).unwrap();
            now += Span::from_ns(14);
        }
        // Both neighbors flipped in the fault model AND in the bytes.
        assert_eq!(r.bit_flip_count(), 2);
        assert!(r.verify_row(0, RowId(7)).is_corrupted());
        assert!(r.verify_row(0, RowId(9)).is_corrupted());
        let corrupted = r.corrupted_data_rows(0);
        assert_eq!(corrupted, vec![RowId(7), RowId(9)]);
        // ECC: a single flipped bit per row is correctable.
        assert_eq!(r.ecc_judgement(0, RowId(7)), (1, 0, 0));
    }

    #[test]
    fn overshoot_hammering_defeats_secded_ecc() {
        // With overdrive flips every N_th/4 of excess disturbance, heavy
        // hammering produces multi-bit damage; some codewords may become
        // uncorrectable once two flips land in one 64-bit word.
        let cfg = RankConfig::for_test(1, 64).with_n_th(20).with_overshoot(5);
        let mut r = DramRank::new(cfg);
        let mut now = Time::ZERO;
        for _ in 0..1000 {
            r.issue(
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(8),
                },
                now,
            )
            .unwrap();
            now += Span::from_ns(31);
            r.issue(DramCommand::Precharge { bank: 0 }, now).unwrap();
            now += Span::from_ns(14);
        }
        // Overdrive is capped at 64 flips per victim per window.
        let flips_on_7 = r
            .bit_flips()
            .iter()
            .filter(|(_, f)| f.victim == RowId(7))
            .count();
        assert_eq!(flips_on_7, 64);
        // Deterministic seeds: across the two victims, 128 flips over
        // 2048 words must produce at least one same-word collision that
        // SEC-DED cannot correct.
        let j7 = r.ecc_judgement(0, RowId(7));
        let j9 = r.ecc_judgement(0, RowId(9));
        assert!(
            j7.1 + j7.2 + j9.1 + j9.2 > 0,
            "multi-bit damage must defeat SEC-DED somewhere: {j7:?} / {j9:?}"
        );
        assert!(j7.0 + j9.0 > 0, "lone flips are still corrected");
    }

    #[test]
    fn energy_accounts_all_activation_sources() {
        let cfg = RankConfig::for_test(1, 64);
        let mut r = DramRank::new(cfg);
        r.issue(
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        r.issue(
            DramCommand::AdjacentRowRefresh {
                bank: 0,
                row: RowId(8),
            },
            t(31),
        )
        .unwrap();
        let m = DramEnergyModel::ddr4();
        // 1 MC ACT + 2 ARR victim ACTs.
        assert_eq!(r.energy_pj(&m), 3 * m.act_pre_pj);
    }
}
