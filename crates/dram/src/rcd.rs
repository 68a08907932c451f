//! The register clock driver (RCD) hosting a row-hammer defense.
//!
//! The paper places the TWiCe table in the RCD (§5.1): it sees every
//! command the memory controller drives, keeps one counter table per bank,
//! converts the PRE of a detected aggressor into an **ARR**, and — because
//! the MC is the bus master and knows nothing about device-internal ARRs
//! — answers with a **nack** whenever a command would conflict with an
//! ARR in progress (§5.2). The MC then resends the nacked command.
//!
//! Two blocking rules from the paper are implemented:
//!
//! 1. any command to a bank performing an ARR is nacked, and
//! 2. any ACT to the *rank* containing that bank is nacked (so the MC's
//!    tFAW accounting cannot be violated by the hidden victim ACTs).

use crate::bank::Bank;
use crate::cmd::DramCommand;
use crate::device::DramRank;
use crate::error::DramError;
use twice_common::fault::{FaultInjector, FaultKind, FaultPlan};
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{BankId, DefenseResponse, Detection, RowHammerDefense, RowId, Time};

/// Why the RCD nacked a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// The protocol reason (§5.2): the command conflicts with an ARR in
    /// progress on the target bank or rank. Resending at `retry_at` is
    /// guaranteed to make progress.
    ArrInProgress,
    /// A chaos fault plan injected a spurious nack
    /// ([`FaultKind::SpuriousNack`]); the protocol would have accepted
    /// the command. Carries no progress guarantee — under a high
    /// injection rate only a *bounded* retry loop terminates.
    Injected,
}

/// The result of presenting one command to the RCD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcdOutcome {
    /// The command was forwarded to the devices and accepted.
    Accepted,
    /// The command was not accepted; the MC must resend no earlier than
    /// `retry_at`.
    Nack {
        /// Earliest instant at which a resend can succeed.
        retry_at: Time,
        /// Whether this is a real protocol nack or an injected one.
        reason: NackReason,
    },
    /// The command was a PRE to a detected aggressor and was converted
    /// into an ARR refreshing `victims` physical neighbors.
    ArrPerformed {
        /// Number of victim rows refreshed (1 at a physical edge, else 2).
        victims: u32,
    },
}

/// An RCD for one DIMM: forwards commands to its ranks, drives the
/// defense, and implements the ARR/nack protocol.
pub struct Rcd {
    ranks: Vec<DramRank>,
    defense: Box<dyn RowHammerDefense>,
    /// Aggressors awaiting their PRE→ARR conversion, per (rank, bank).
    pending_arr: Vec<Vec<Option<RowId>>>,
    /// Until when each bank is occupied by an ARR, per (rank, bank).
    bank_arr_until: Vec<Vec<Time>>,
    /// Until when each rank blocks ACTs because of an ARR in progress.
    arr_block_until: Vec<Time>,
    detections: Vec<Detection>,
    nacks: u64,
    /// Fail-safe neighbor refreshes performed for rows the defense
    /// reported corrupted during a refresh-window scrub.
    scrub_arrs: u64,
    /// Chaos-testing hook: injects bus/protocol faults (spurious nacks,
    /// dropped or duplicated ARR conversions) per a fault plan.
    injector: FaultInjector,
}

impl std::fmt::Debug for Rcd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rcd")
            .field("ranks", &self.ranks.len())
            .field("defense", &self.defense.name())
            .field("nacks", &self.nacks)
            .field("detections", &self.detections.len())
            .finish()
    }
}

impl Rcd {
    /// Creates an RCD over `ranks`, hosting `defense`. Bank ids for the
    /// defense are `rank_index * banks_per_rank + bank`.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is empty or ranks have differing bank counts.
    pub fn new(ranks: Vec<DramRank>, defense: Box<dyn RowHammerDefense>) -> Rcd {
        assert!(!ranks.is_empty(), "an RCD needs at least one rank");
        let banks = ranks[0].config().banks;
        assert!(
            ranks.iter().all(|r| r.config().banks == banks),
            "all ranks behind an RCD must have the same bank count"
        );
        let pending_arr = ranks
            .iter()
            .map(|r| vec![None; usize::from(r.config().banks)])
            .collect();
        let bank_arr_until = ranks
            .iter()
            .map(|r| vec![Time::ZERO; usize::from(r.config().banks)])
            .collect();
        Rcd {
            arr_block_until: vec![Time::ZERO; ranks.len()],
            pending_arr,
            bank_arr_until,
            ranks,
            defense,
            detections: Vec::new(),
            nacks: 0,
            scrub_arrs: 0,
            injector: FaultInjector::inert(),
        }
    }

    /// Arms the RCD's bus/protocol fault injector with `plan`, deriving
    /// its stream with `salt` (use a distinct salt per RCD so channels do
    /// not alias).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: &FaultPlan, salt: u64) -> Rcd {
        self.injector = plan.injector(salt);
        self
    }

    /// Books one nack in the RCD and rank statistics.
    fn nack(&mut self, rank: usize, retry_at: Time, reason: NackReason) -> RcdOutcome {
        self.nacks += 1;
        self.ranks[rank].record_nack(reason == NackReason::Injected);
        twice_obs::bump(match reason {
            NackReason::ArrInProgress => twice_obs::Ctr::DramNacksArr,
            NackReason::Injected => twice_obs::Ctr::DramNacksInjected,
        });
        RcdOutcome::Nack { retry_at, reason }
    }

    /// Applies a defense's refresh-window response. By the
    /// [`RowHammerDefense::on_auto_refresh`] contract, every row named in
    /// `arr` / `refresh_rows` is a *corrupted aggressor*: its true
    /// activation count is unknown, so its physical neighbors are
    /// refreshed during the window exactly as a real ARR would.
    fn apply_refresh_response(
        &mut self,
        rank: usize,
        bank: u16,
        response: DefenseResponse,
        now: Time,
    ) -> Result<(), DramError> {
        if let Some(d) = response.detection {
            self.detections.push(d);
        }
        for aggressor in response.arr.into_iter().chain(response.refresh_rows) {
            let victims = self.ranks[rank].arr_victim_rows(bank, aggressor);
            self.ranks[rank].refresh_rows_explicit(bank, victims, now)?;
            self.scrub_arrs += 1;
        }
        Ok(())
    }

    /// The [`BankId`] the defense sees for `(rank, bank)` behind this RCD.
    #[inline]
    pub fn bank_id_of(&self, rank: usize, bank: u16) -> BankId {
        let banks = u32::from(self.ranks[rank].config().banks);
        BankId(rank as u32 * banks + u32::from(bank))
    }

    /// Presents one command for `rank` at `now`.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors (unknown bank/row, bad state, timing
    /// violations). A nack is *not* an error — it is a legal protocol
    /// outcome reported via [`RcdOutcome::Nack`].
    pub fn issue(
        &mut self,
        rank: usize,
        cmd: DramCommand,
        now: Time,
    ) -> Result<RcdOutcome, DramError> {
        assert!(rank < self.ranks.len(), "rank out of range");
        let bank = cmd.bank();

        // Nack rule 1: the target bank is mid-ARR. (REF busy-ness is the
        // MC's own scheduling responsibility and is not nacked.)
        let bank_busy_until = self.bank_arr_until[rank][usize::from(bank)];
        if bank_busy_until > now {
            return Ok(self.nack(rank, bank_busy_until, NackReason::ArrInProgress));
        }
        // Nack rule 2: ACTs to a rank with any ARR in progress.
        if cmd.is_activate() && self.arr_block_until[rank] > now {
            let until = self.arr_block_until[rank];
            return Ok(self.nack(rank, until, NackReason::ArrInProgress));
        }
        // Chaos: a spurious nack of a command the protocol would accept.
        // `retry_at` is the next bus slot — the nack carries no real
        // wait-for condition, so resending immediately is legal (and may
        // be nacked again; the MC's retry budget bounds that).
        if self.injector.fire(FaultKind::SpuriousNack) {
            let retry_at = now + self.ranks[rank].config().timings.clock;
            return Ok(self.nack(rank, retry_at, NackReason::Injected));
        }

        match cmd {
            DramCommand::Activate { bank, row } => {
                self.ranks[rank].issue(cmd, now)?;
                let gbank = self.bank_id_of(rank, bank);
                let response = self.defense.on_activate(gbank, row, now);
                if let Some(d) = response.detection {
                    self.detections.push(d);
                }
                if let Some(aggressor) = response.arr {
                    self.pending_arr[rank][usize::from(bank)] = Some(aggressor);
                }
                if !response.refresh_rows.is_empty() {
                    // An RCD-hosted defense normally uses ARR, but honor
                    // explicit requests for completeness.
                    self.ranks[rank].refresh_rows_explicit(
                        bank,
                        response.refresh_rows.iter().copied(),
                        now,
                    )?;
                }
                Ok(RcdOutcome::Accepted)
            }
            DramCommand::Precharge { bank } => {
                // Peek (do not consume) the pending ARR: a timing-rejected
                // attempt will be *resent* by the MC and must still
                // convert then.
                let pending = self.pending_arr[rank][usize::from(bank)];
                match pending {
                    Some(aggressor) if self.ranks[rank].open_row(bank) == Some(aggressor) => {
                        // Chaos: the PRE→ARR conversion is dropped on the
                        // bus. A plain precharge goes through and the
                        // victims stay unrefreshed this round.
                        if self.injector.fire(FaultKind::ArrDrop) {
                            self.ranks[rank].issue(cmd, now)?;
                            self.pending_arr[rank][usize::from(bank)] = None;
                            return Ok(RcdOutcome::Accepted);
                        }
                        let victims =
                            self.ranks[rank].arr_victim_rows(bank, aggressor).len() as u32;
                        self.ranks[rank].issue(
                            DramCommand::AdjacentRowRefresh {
                                bank,
                                row: aggressor,
                            },
                            now,
                        )?;
                        self.pending_arr[rank][usize::from(bank)] = None;
                        let mut until = now
                            + Bank::arr_duration_for(&self.ranks[rank].config().timings, victims);
                        // Chaos: the conversion is duplicated. Harmless for
                        // safety (victims refreshed twice) but costs a
                        // second round of internal ACTs and bank time.
                        if self.injector.fire(FaultKind::ArrDuplicate) {
                            let rows = self.ranks[rank].arr_victim_rows(bank, aggressor);
                            self.ranks[rank].refresh_rows_explicit(bank, rows, now)?;
                            until +=
                                Bank::arr_duration_for(&self.ranks[rank].config().timings, victims);
                        }
                        self.bank_arr_until[rank][usize::from(bank)] = until;
                        self.arr_block_until[rank] = self.arr_block_until[rank].max(until);
                        Ok(RcdOutcome::ArrPerformed { victims })
                    }
                    _ => {
                        self.ranks[rank].issue(cmd, now)?;
                        // A stale pending (aggressor no longer open) is
                        // dropped once the bank actually precharges.
                        self.pending_arr[rank][usize::from(bank)] = None;
                        Ok(RcdOutcome::Accepted)
                    }
                }
            }
            DramCommand::Refresh { bank } => {
                let _refresh_span = twice_obs::span(twice_obs::SpanId::DramRefresh);
                // Chaos: the refresh window is dropped *inside* the
                // device — the command is accepted on the bus and the
                // bank cycles for tRFC, but the covered rowset stays
                // unrefreshed. The defense still observes the window
                // (it watches the bus), so its pruning assumptions are
                // now wrong — exactly the hazard this fault probes.
                if self.injector.fire(FaultKind::RefreshDrop) {
                    self.ranks[rank].drop_refresh(bank, now)?;
                } else {
                    self.ranks[rank].issue(cmd, now)?;
                }
                let gbank = self.bank_id_of(rank, bank);
                let response = self.defense.on_auto_refresh(gbank, now);
                self.apply_refresh_response(rank, bank, response, now)?;
                // Chaos: the bank FSM wedges after the refresh and
                // stays busy for several tRFC windows. The RCD books
                // the outage in its nack window so the MC is told a
                // truthful retry_at instead of tripping a timing
                // violation; the bounded retry loop absorbs the rest.
                if self.injector.fire(FaultKind::BankStuck) {
                    let t_rfc = self.ranks[rank].config().timings.t_rfc;
                    let until = now + t_rfc * (2 + self.injector.draw(7));
                    self.ranks[rank]
                        .wedge_bank(bank, until)
                        .expect("bank verified by the REF above");
                    let slot = &mut self.bank_arr_until[rank][usize::from(bank)];
                    *slot = (*slot).max(until);
                }
                Ok(RcdOutcome::Accepted)
            }
            _ => {
                self.ranks[rank].issue(cmd, now)?;
                Ok(RcdOutcome::Accepted)
            }
        }
    }

    /// Performs an all-bank refresh on `rank` and runs the defense's
    /// pruning hook for every bank.
    ///
    /// # Errors
    ///
    /// Propagates the device's validation (every bank precharged and
    /// ready); no defense hooks run on failure.
    pub fn refresh_all(&mut self, rank: usize, now: Time) -> Result<(), DramError> {
        let _refresh_span = twice_obs::span(twice_obs::SpanId::DramRefresh);
        self.ranks[rank].refresh_all(now)?;
        for bank in 0..self.ranks[rank].config().banks {
            let gbank = self.bank_id_of(rank, bank);
            let response = self.defense.on_auto_refresh(gbank, now);
            self.apply_refresh_response(rank, bank, response, now)?;
        }
        Ok(())
    }

    /// Retires one *backlogged* auto-refresh for `(rank, bank)`:
    /// bookkeeping-only on the device (see
    /// [`DramRank::force_refresh`]) plus the defense's pruning hook.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `bank` is out of range.
    pub fn force_refresh(&mut self, rank: usize, bank: u16, now: Time) {
        self.ranks[rank]
            .force_refresh(bank)
            .expect("bank verified by caller");
        let gbank = self.bank_id_of(rank, bank);
        let response = self.defense.on_auto_refresh(gbank, now);
        self.apply_refresh_response(rank, bank, response, now)
            .expect("bank verified by caller");
    }

    /// The hosted defense.
    pub fn defense(&self) -> &dyn RowHammerDefense {
        self.defense.as_ref()
    }

    /// The ranks behind this RCD.
    pub fn ranks(&self) -> &[DramRank] {
        &self.ranks
    }

    /// Mutable access to a rank (for direct fault-model inspection in
    /// tests and experiments).
    pub fn rank_mut(&mut self, rank: usize) -> &mut DramRank {
        &mut self.ranks[rank]
    }

    /// Attack detections recorded by the defense.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Commands nacked so far (protocol and injected alike; the per-rank
    /// [`crate::stats::DramStats`] split the two).
    pub fn nacks(&self) -> u64 {
        self.nacks
    }

    /// The RCD's fault-injection stream (counts of opportunities and
    /// injected faults per kind).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Fail-safe neighbor refreshes performed for scrub-detected
    /// corrupted entries (see [`RowHammerDefense::corruption_events`]).
    pub fn scrub_arrs(&self) -> u64 {
        self.scrub_arrs
    }
}

impl Snapshot for Rcd {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.ranks.len());
        for rank in &self.ranks {
            rank.save_state(w);
        }
        self.defense.save_state(w);
        for per_rank in &self.pending_arr {
            w.put_usize(per_rank.len());
            for pending in per_rank {
                w.put_bool(pending.is_some());
                w.put_u32(pending.map_or(0, |r| r.0));
            }
        }
        for per_rank in &self.bank_arr_until {
            for &t in per_rank {
                w.put_u64(t.as_ps());
            }
        }
        for &t in &self.arr_block_until {
            w.put_u64(t.as_ps());
        }
        w.put_usize(self.detections.len());
        for det in &self.detections {
            w.put_u32(det.bank.0);
            w.put_u32(det.row.0);
            w.put_u64(det.at.as_ps());
            w.put_u64(det.act_count);
        }
        w.put_u64(self.nacks);
        w.put_u64(self.scrub_arrs);
        self.injector.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let ranks = r.take_usize()?;
        if ranks != self.ranks.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "RCD has {} ranks, snapshot has {ranks}",
                self.ranks.len()
            )));
        }
        for rank in &mut self.ranks {
            rank.load_state(r)?;
        }
        self.defense.load_state(r)?;
        for per_rank in &mut self.pending_arr {
            let banks = r.take_usize()?;
            if banks != per_rank.len() {
                return Err(SnapshotError::StateMismatch(format!(
                    "RCD rank has {} banks, snapshot has {banks}",
                    per_rank.len()
                )));
            }
            for pending in per_rank.iter_mut() {
                let some = r.take_bool()?;
                let row = r.take_u32()?;
                *pending = some.then_some(RowId(row));
            }
        }
        for per_rank in &mut self.bank_arr_until {
            for t in per_rank.iter_mut() {
                *t = Time::from_ps(r.take_u64()?);
            }
        }
        for t in &mut self.arr_block_until {
            *t = Time::from_ps(r.take_u64()?);
        }
        let n = r.take_usize()?;
        self.detections.clear();
        for _ in 0..n {
            let bank = BankId(r.take_u32()?);
            let row = RowId(r.take_u32()?);
            let at = Time::from_ps(r.take_u64()?);
            let act_count = r.take_u64()?;
            self.detections.push(Detection {
                bank,
                row,
                at,
                act_count,
            });
        }
        self.nacks = r.take_u64()?;
        self.scrub_arrs = r.take_u64()?;
        self.injector.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RankConfig;
    use twice_common::{DefenseResponse, Span};

    /// A test defense that requests an ARR on every `trigger_at`-th ACT to
    /// any row.
    struct EveryNth {
        n: u64,
        count: u64,
    }

    impl RowHammerDefense for EveryNth {
        fn name(&self) -> &str {
            "every-nth"
        }
        fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
            self.count += 1;
            if self.count.is_multiple_of(self.n) {
                DefenseResponse {
                    detection: Some(Detection {
                        bank,
                        row,
                        at: now,
                        act_count: self.count,
                    }),
                    ..DefenseResponse::arr(row)
                }
            } else {
                DefenseResponse::none()
            }
        }
    }

    fn t(ns: u64) -> Time {
        Time::ZERO + Span::from_ns(ns)
    }

    fn rcd(n: u64) -> Rcd {
        let rank = DramRank::new(RankConfig::for_test(2, 64).with_n_th(1_000_000));
        Rcd::new(vec![rank], Box::new(EveryNth { n, count: 0 }))
    }

    #[test]
    fn pre_of_detected_aggressor_becomes_arr() {
        let mut r = rcd(1); // every ACT triggers
        assert_eq!(
            r.issue(
                0,
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(8)
                },
                t(0)
            )
            .unwrap(),
            RcdOutcome::Accepted
        );
        let out = r
            .issue(0, DramCommand::Precharge { bank: 0 }, t(31))
            .unwrap();
        assert_eq!(out, RcdOutcome::ArrPerformed { victims: 2 });
        assert_eq!(r.ranks()[0].stats().arrs, 1);
        assert_eq!(r.detections().len(), 1);
    }

    #[test]
    fn normal_pre_passes_through() {
        let mut r = rcd(1000); // never triggers in this test
        r.issue(
            0,
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        let out = r
            .issue(0, DramCommand::Precharge { bank: 0 }, t(31))
            .unwrap();
        assert_eq!(out, RcdOutcome::Accepted);
        assert_eq!(r.ranks()[0].stats().precharges, 1);
        assert_eq!(r.ranks()[0].stats().arrs, 0);
    }

    #[test]
    fn acts_to_rank_are_nacked_during_arr() {
        let mut r = rcd(1);
        r.issue(
            0,
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        r.issue(0, DramCommand::Precharge { bank: 0 }, t(31))
            .unwrap();
        // ARR busy until 31 + 104 = 135 ns; an ACT to *another* bank nacks.
        let out = r
            .issue(
                0,
                DramCommand::Activate {
                    bank: 1,
                    row: RowId(3),
                },
                t(60),
            )
            .unwrap();
        assert_eq!(
            out,
            RcdOutcome::Nack {
                retry_at: t(135),
                reason: NackReason::ArrInProgress
            }
        );
        assert_eq!(r.nacks(), 1);
        // After the ARR completes, the resend succeeds.
        assert_eq!(
            r.issue(
                0,
                DramCommand::Activate {
                    bank: 1,
                    row: RowId(3)
                },
                t(135)
            )
            .unwrap(),
            RcdOutcome::Accepted
        );
    }

    #[test]
    fn commands_to_the_arr_bank_are_nacked() {
        let mut r = rcd(1);
        r.issue(
            0,
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        r.issue(0, DramCommand::Precharge { bank: 0 }, t(31))
            .unwrap();
        let out = r
            .issue(0, DramCommand::Precharge { bank: 0 }, t(60))
            .unwrap();
        assert!(matches!(out, RcdOutcome::Nack { .. }));
    }

    #[test]
    fn arr_for_stale_aggressor_is_dropped() {
        // Defense triggers on ACT #1; but if the bank was re-opened with a
        // different row before PRE (cannot happen in a legal stream without
        // an intervening PRE, so simulate via trigger on first ACT of row 8,
        // then PRE, ACT row 9, PRE).
        let mut r = rcd(1);
        r.issue(
            0,
            DramCommand::Activate {
                bank: 0,
                row: RowId(8),
            },
            t(0),
        )
        .unwrap();
        // This PRE converts to ARR for row 8 (pending matches open row).
        r.issue(0, DramCommand::Precharge { bank: 0 }, t(31))
            .unwrap();
        // Next ACT (after ARR drain) also triggers, pending row 9...
        r.issue(
            0,
            DramCommand::Activate {
                bank: 0,
                row: RowId(9),
            },
            t(200),
        )
        .unwrap();
        let out = r
            .issue(0, DramCommand::Precharge { bank: 0 }, t(231))
            .unwrap();
        assert!(matches!(out, RcdOutcome::ArrPerformed { .. }));
    }

    #[test]
    fn refresh_notifies_defense() {
        struct CountRefs {
            refs: std::cell::Cell<u64>,
        }
        impl RowHammerDefense for CountRefs {
            fn name(&self) -> &str {
                "count-refs"
            }
            fn on_activate(&mut self, _: BankId, _: RowId, _: Time) -> DefenseResponse {
                DefenseResponse::none()
            }
            fn on_auto_refresh(&mut self, _: BankId, _: Time) -> DefenseResponse {
                self.refs.set(self.refs.get() + 1);
                DefenseResponse::none()
            }
        }
        let rank = DramRank::new(RankConfig::for_test(1, 64));
        let mut rcd = Rcd::new(
            vec![rank],
            Box::new(CountRefs {
                refs: std::cell::Cell::new(0),
            }),
        );
        rcd.issue(0, DramCommand::Refresh { bank: 0 }, t(0))
            .unwrap();
        // Inspect through Debug name to keep the defense boxed; instead use
        // rank stats to confirm the REF went through.
        assert_eq!(rcd.ranks()[0].stats().refreshes, 1);
    }

    #[test]
    fn stuck_bank_nacks_then_recovers() {
        let plan = FaultPlan::with_seed(11).rate(FaultKind::BankStuck, 1.0);
        let mut r = rcd(1_000_000).with_fault_plan(&plan, 0x5ECD);
        r.issue(0, DramCommand::Refresh { bank: 0 }, t(0)).unwrap();
        assert_eq!(r.fault_injector().injected(FaultKind::BankStuck), 1);
        // The wedged bank nacks follow-up commands with a truthful
        // retry_at instead of tripping a timing violation.
        let out = r
            .issue(
                0,
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(3),
                },
                t(400),
            )
            .unwrap();
        let RcdOutcome::Nack { retry_at, reason } = out else {
            panic!("wedged bank accepted a command: {out:?}");
        };
        assert_eq!(reason, NackReason::ArrInProgress);
        assert!(retry_at > t(400), "retry_at must be in the future");
        // The other bank is unaffected.
        assert_eq!(
            r.issue(
                0,
                DramCommand::Activate {
                    bank: 1,
                    row: RowId(3)
                },
                t(400)
            )
            .unwrap(),
            RcdOutcome::Accepted
        );
        // Resending at the advertised time succeeds: the FSM recovered.
        assert_eq!(
            r.issue(
                0,
                DramCommand::Activate {
                    bank: 0,
                    row: RowId(3)
                },
                retry_at
            )
            .unwrap(),
            RcdOutcome::Accepted
        );
    }

    #[test]
    fn dropped_refresh_is_counted_but_invisible_on_the_bus() {
        let plan = FaultPlan::with_seed(7).rate(FaultKind::RefreshDrop, 1.0);
        let mut r = rcd(1_000_000).with_fault_plan(&plan, 0x5ECD);
        assert_eq!(
            r.issue(0, DramCommand::Refresh { bank: 0 }, t(0)).unwrap(),
            RcdOutcome::Accepted
        );
        let stats = r.ranks()[0].stats();
        // The bus (and every observer of it) saw an ordinary REF...
        assert_eq!(stats.refreshes, 1);
        // ...but the device recorded that the rowset was never touched.
        assert_eq!(stats.dropped_refreshes, 1);
        assert_eq!(r.fault_injector().injected(FaultKind::RefreshDrop), 1);
    }

    #[test]
    fn bank_id_composition_spans_ranks() {
        let r0 = DramRank::new(RankConfig::for_test(4, 64));
        let r1 = DramRank::new(RankConfig::for_test(4, 64));
        let rcd = Rcd::new(vec![r0, r1], Box::new(EveryNth { n: 1, count: 0 }));
        assert_eq!(rcd.bank_id_of(0, 0), BankId(0));
        assert_eq!(rcd.bank_id_of(0, 3), BankId(3));
        assert_eq!(rcd.bank_id_of(1, 0), BankId(4));
        assert_eq!(rcd.bank_id_of(1, 3), BankId(7));
    }
}
