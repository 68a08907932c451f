//! Per-bank state machine and timing enforcement.
//!
//! A bank is either precharged or has one open row; ACT/PRE/RD/WR/REF/ARR
//! transition it under the timing constraints of §2.4. All checks are
//! explicit so that an illegal command stream from a buggy controller is a
//! loud [`TimingViolation`], never silent mis-simulation — the TWiCe
//! capacity bound is only sound if the ACT stream really respects `tRC`.

use crate::error::{DramError, TimingKind, TimingViolation};
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{DdrTimings, RowId, Span, Time};

/// The row-state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All bitlines precharged; no open row.
    Precharged,
    /// `row` is open in the sense amplifiers.
    Active {
        /// The open row.
        row: RowId,
    },
}

/// What currently occupies the bank (for nack decisions and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occupancy {
    /// The bank is available (subject to point timing constraints).
    Free,
    /// An auto-refresh is in progress until the given instant.
    Refreshing(Time),
    /// An adjacent-row refresh is in progress until the given instant.
    ArrInProgress(Time),
}

/// One DRAM bank: FSM plus the timestamps needed to enforce timing.
#[derive(Debug, Clone)]
pub struct Bank {
    timings: DdrTimings,
    state: BankState,
    /// Instant of the most recent ACT (for tRC and tRAS).
    last_act: Option<Time>,
    /// Earliest instant the next ACT (or REF) may issue, together with the
    /// constraint that set it.
    ready_at: Time,
    ready_kind: TimingKind,
    /// Earliest instant a column command may issue (tRCD after ACT).
    col_ready_at: Time,
    occupancy: Occupancy,
}

impl Bank {
    /// Creates a precharged, idle bank.
    pub fn new(timings: DdrTimings) -> Bank {
        Bank {
            timings,
            state: BankState::Precharged,
            last_act: None,
            ready_at: Time::ZERO,
            ready_kind: TimingKind::Trp,
            col_ready_at: Time::ZERO,
            occupancy: Occupancy::Free,
        }
    }

    /// The current row state.
    #[inline]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    #[inline]
    pub fn open_row(&self) -> Option<RowId> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Precharged => None,
        }
    }

    /// What currently occupies the bank, with stale occupancy cleared
    /// relative to `now`.
    #[inline]
    pub fn occupancy(&self, now: Time) -> Occupancy {
        match self.occupancy {
            Occupancy::Refreshing(until) | Occupancy::ArrInProgress(until) if now >= until => {
                Occupancy::Free
            }
            o => o,
        }
    }

    /// Whether the bank is busy with REF or ARR at `now` (nack condition).
    #[inline]
    pub fn is_busy(&self, now: Time) -> bool {
        !matches!(self.occupancy(now), Occupancy::Free)
    }

    /// Earliest instant the next ACT may issue.
    #[inline]
    pub fn act_ready_at(&self) -> Time {
        match self.last_act {
            Some(t) => self.ready_at.max(t + self.timings.t_rc),
            None => self.ready_at,
        }
    }

    fn check_ready(&self, now: Time) -> Result<(), TimingViolation> {
        if now < self.ready_at {
            return Err(TimingViolation {
                kind: self.ready_kind,
                ready_at: self.ready_at,
                issued_at: now,
            });
        }
        if let Some(last) = self.last_act {
            let trc_ready = last + self.timings.t_rc;
            if now < trc_ready {
                return Err(TimingViolation {
                    kind: TimingKind::Trc,
                    ready_at: trc_ready,
                    issued_at: now,
                });
            }
        }
        Ok(())
    }

    /// Opens `row`.
    ///
    /// # Errors
    ///
    /// [`DramError::BadState`] if a row is already open;
    /// [`DramError::Timing`] if issued before tRP/tRFC/ARR completion or
    /// within tRC of the previous ACT.
    pub fn activate(&mut self, row: RowId, now: Time) -> Result<(), DramError> {
        if let BankState::Active { .. } = self.state {
            return Err(DramError::BadState {
                reason: "ACT while a row is already open",
            });
        }
        self.check_ready(now)?;
        self.state = BankState::Active { row };
        self.last_act = Some(now);
        self.col_ready_at = now + self.timings.t_rcd;
        self.occupancy = Occupancy::Free;
        twice_obs::bump(twice_obs::Ctr::DramBankTransitions);
        Ok(())
    }

    /// Closes the open row.
    ///
    /// # Errors
    ///
    /// [`DramError::BadState`] if no row is open; [`DramError::Timing`]
    /// if issued before tRAS has elapsed since the ACT.
    pub fn precharge(&mut self, now: Time) -> Result<(), DramError> {
        let BankState::Active { .. } = self.state else {
            return Err(DramError::BadState {
                reason: "PRE with no open row",
            });
        };
        let opened = self.last_act.expect("active bank must have an ACT time");
        let pre_ready = opened + self.timings.t_ras;
        if now < pre_ready {
            return Err(DramError::Timing(TimingViolation {
                kind: TimingKind::Tras,
                ready_at: pre_ready,
                issued_at: now,
            }));
        }
        self.state = BankState::Precharged;
        self.set_ready(now + self.timings.t_rp, TimingKind::Trp);
        twice_obs::bump(twice_obs::Ctr::DramBankTransitions);
        Ok(())
    }

    /// Validates a column command (RD/WR) against the open row and tRCD.
    ///
    /// # Errors
    ///
    /// [`DramError::BadState`] if no row is open; [`DramError::Timing`]
    /// if issued before tRCD has elapsed since the ACT.
    pub fn column_access(&mut self, now: Time) -> Result<RowId, DramError> {
        let BankState::Active { row } = self.state else {
            return Err(DramError::BadState {
                reason: "column command with no open row",
            });
        };
        if now < self.col_ready_at {
            return Err(DramError::Timing(TimingViolation {
                kind: TimingKind::Trcd,
                ready_at: self.col_ready_at,
                issued_at: now,
            }));
        }
        Ok(row)
    }

    /// Starts a per-bank auto-refresh occupying the bank for tRFC.
    ///
    /// # Errors
    ///
    /// [`DramError::BadState`] if a row is open; [`DramError::Timing`]
    /// if the bank is not yet ready.
    pub fn refresh(&mut self, now: Time) -> Result<(), DramError> {
        if let BankState::Active { .. } = self.state {
            return Err(DramError::BadState {
                reason: "REF while a row is open",
            });
        }
        self.check_ready(now)?;
        let until = now + self.timings.t_rfc;
        self.set_ready(until, TimingKind::Trfc);
        self.occupancy = Occupancy::Refreshing(until);
        twice_obs::bump(twice_obs::Ctr::DramBankTransitions);
        Ok(())
    }

    /// Performs an Adjacent Row Refresh: the open aggressor row is
    /// precharged and `victims` physical neighbors are internally
    /// activated and precharged; the bank is busy for
    /// `victims·tRC + tRP` (`2·tRC + tRP` in the paper's radius-1 case).
    ///
    /// ARR substitutes for the PRE of the aggressor (§5.2), so it is legal
    /// exactly when a PRE would be.
    ///
    /// # Errors
    ///
    /// [`DramError::BadState`] if no row is open; [`DramError::Timing`]
    /// if issued before tRAS has elapsed since the ACT.
    pub fn adjacent_row_refresh(&mut self, now: Time, victims: u32) -> Result<RowId, DramError> {
        let BankState::Active { row } = self.state else {
            return Err(DramError::BadState {
                reason: "ARR with no open row",
            });
        };
        let opened = self.last_act.expect("active bank must have an ACT time");
        let pre_ready = opened + self.timings.t_ras;
        if now < pre_ready {
            return Err(DramError::Timing(TimingViolation {
                kind: TimingKind::Tras,
                ready_at: pre_ready,
                issued_at: now,
            }));
        }
        self.state = BankState::Precharged;
        let until = now + Bank::arr_duration_for(&self.timings, victims);
        self.set_ready(until, TimingKind::Arr);
        self.occupancy = Occupancy::ArrInProgress(until);
        twice_obs::bump(twice_obs::Ctr::DramBankTransitions);
        Ok(row)
    }

    /// Chaos hook: wedges the bank FSM — the bank reads busy, as if an
    /// auto-refresh never completed, until `until` (the `BankStuck`
    /// device fault). Commands must be held off until the FSM recovers
    /// on its own; the RCD models that by nacking them with a truthful
    /// `retry_at`, so the MC's bounded retry loop absorbs the outage.
    ///
    /// Only meaningful on a precharged bank (the fault fires on the REF
    /// path, where the row is already closed); with a row open the wedge
    /// is ignored.
    pub fn wedge(&mut self, until: Time) {
        if self.open_row().is_some() {
            return;
        }
        self.set_ready(until, TimingKind::Trfc);
        self.occupancy = Occupancy::Refreshing(until);
    }

    fn set_ready(&mut self, at: Time, kind: TimingKind) {
        if at > self.ready_at {
            self.ready_at = at;
            self.ready_kind = kind;
        }
    }

    /// Duration an ARR with the paper's two victims occupies the bank.
    pub fn arr_duration(timings: &DdrTimings) -> Span {
        Bank::arr_duration_for(timings, 2)
    }

    /// Duration an ARR refreshing `victims` rows occupies the bank.
    pub fn arr_duration_for(timings: &DdrTimings, victims: u32) -> Span {
        timings.t_rc * u64::from(victims.max(1)) + timings.t_rp
    }
}

impl Snapshot for Bank {
    fn save_state(&self, w: &mut SnapshotWriter) {
        match self.state {
            BankState::Precharged => {
                w.put_bool(false);
                w.put_u32(0);
            }
            BankState::Active { row } => {
                w.put_bool(true);
                w.put_u32(row.0);
            }
        }
        w.put_bool(self.last_act.is_some());
        w.put_u64(self.last_act.map_or(0, Time::as_ps));
        w.put_u64(self.ready_at.as_ps());
        w.put_u8(self.ready_kind.code());
        w.put_u64(self.col_ready_at.as_ps());
        let (tag, until) = match self.occupancy {
            Occupancy::Free => (0u8, Time::ZERO),
            Occupancy::Refreshing(t) => (1, t),
            Occupancy::ArrInProgress(t) => (2, t),
        };
        w.put_u8(tag);
        w.put_u64(until.as_ps());
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let active = r.take_bool()?;
        let row = r.take_u32()?;
        self.state = if active {
            BankState::Active { row: RowId(row) }
        } else {
            BankState::Precharged
        };
        let has_act = r.take_bool()?;
        let act_ps = r.take_u64()?;
        self.last_act = has_act.then(|| Time::from_ps(act_ps));
        self.ready_at = Time::from_ps(r.take_u64()?);
        let code = r.take_u8()?;
        self.ready_kind = TimingKind::from_code(code).ok_or_else(|| {
            SnapshotError::StateMismatch(format!("unknown timing-kind code {code}"))
        })?;
        self.col_ready_at = Time::from_ps(r.take_u64()?);
        let tag = r.take_u8()?;
        let until = Time::from_ps(r.take_u64()?);
        self.occupancy = match tag {
            0 => Occupancy::Free,
            1 => Occupancy::Refreshing(until),
            2 => Occupancy::ArrInProgress(until),
            other => {
                return Err(SnapshotError::StateMismatch(format!(
                    "unknown occupancy tag {other}"
                )))
            }
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::Span;

    fn bank() -> Bank {
        Bank::new(DdrTimings::ddr4_2400())
    }

    fn t(ns: u64) -> Time {
        Time::ZERO + Span::from_ns(ns)
    }

    #[test]
    fn act_pre_act_cycle_respects_trc_and_trp() {
        let mut b = bank();
        b.activate(RowId(1), t(0)).unwrap();
        assert_eq!(b.open_row(), Some(RowId(1)));
        // PRE before tRAS (31ns) fails.
        let e = b.precharge(t(10)).unwrap_err();
        assert!(matches!(
            e,
            DramError::Timing(TimingViolation {
                kind: TimingKind::Tras,
                ..
            })
        ));
        b.precharge(t(31)).unwrap();
        // ACT before tRP elapsed (31+14=45) fails with Trp.
        let e = b.activate(RowId(2), t(40)).unwrap_err();
        assert!(matches!(
            e,
            DramError::Timing(TimingViolation {
                kind: TimingKind::Trp,
                ..
            })
        ));
        // At exactly 45 ns both tRP and tRC (45) are satisfied.
        b.activate(RowId(2), t(45)).unwrap();
    }

    #[test]
    fn trc_binds_even_with_early_precharge_path() {
        let mut b = bank();
        // tRAS=31, tRP=14 -> earliest legal next ACT is at tRC=45.
        b.activate(RowId(1), t(0)).unwrap();
        b.precharge(t(31)).unwrap();
        let e = b.activate(RowId(2), t(44)).unwrap_err();
        assert!(matches!(e, DramError::Timing(_)));
        b.activate(RowId(2), t(45)).unwrap();
    }

    #[test]
    fn double_activate_is_bad_state() {
        let mut b = bank();
        b.activate(RowId(1), t(0)).unwrap();
        let e = b.activate(RowId(2), t(100)).unwrap_err();
        assert!(matches!(e, DramError::BadState { .. }));
    }

    #[test]
    fn column_access_waits_for_trcd() {
        let mut b = bank();
        b.activate(RowId(7), t(0)).unwrap();
        let e = b.column_access(t(10)).unwrap_err();
        assert!(matches!(
            e,
            DramError::Timing(TimingViolation {
                kind: TimingKind::Trcd,
                ..
            })
        ));
        assert_eq!(b.column_access(t(14)).unwrap(), RowId(7));
    }

    #[test]
    fn column_access_requires_open_row() {
        let mut b = bank();
        assert!(matches!(
            b.column_access(t(0)).unwrap_err(),
            DramError::BadState { .. }
        ));
    }

    #[test]
    fn refresh_occupies_bank_for_trfc() {
        let mut b = bank();
        b.refresh(t(0)).unwrap();
        assert!(b.is_busy(t(100)));
        assert!(matches!(b.occupancy(t(0)), Occupancy::Refreshing(_)));
        let e = b.activate(RowId(0), t(349)).unwrap_err();
        assert!(matches!(
            e,
            DramError::Timing(TimingViolation {
                kind: TimingKind::Trfc,
                ..
            })
        ));
        assert!(!b.is_busy(t(350)));
        b.activate(RowId(0), t(350)).unwrap();
    }

    #[test]
    fn refresh_with_open_row_is_bad_state() {
        let mut b = bank();
        b.activate(RowId(1), t(0)).unwrap();
        assert!(matches!(
            b.refresh(t(100)).unwrap_err(),
            DramError::BadState { .. }
        ));
    }

    #[test]
    fn arr_replaces_pre_and_blocks_bank() {
        let mut b = bank();
        b.activate(RowId(9), t(0)).unwrap();
        // ARR is legal exactly when PRE is: not before tRAS.
        assert!(b.adjacent_row_refresh(t(30), 2).is_err());
        let aggressor = b.adjacent_row_refresh(t(31), 2).unwrap();
        assert_eq!(aggressor, RowId(9));
        assert!(b.is_busy(t(31)));
        // Busy for 2*45 + 14 = 104 ns.
        assert!(b.is_busy(t(31 + 103)));
        assert!(!b.is_busy(t(31 + 104)));
        let e = b.activate(RowId(1), t(134)).unwrap_err();
        assert!(matches!(
            e,
            DramError::Timing(TimingViolation {
                kind: TimingKind::Arr,
                ..
            })
        ));
        b.activate(RowId(1), t(135)).unwrap();
    }

    #[test]
    fn arr_duration_matches_formula() {
        let ts = DdrTimings::ddr4_2400();
        assert_eq!(Bank::arr_duration(&ts), Span::from_ns(104));
    }

    #[test]
    fn act_ready_at_reports_earliest_legal_act() {
        let mut b = bank();
        b.activate(RowId(0), t(0)).unwrap();
        b.precharge(t(31)).unwrap();
        assert_eq!(b.act_ready_at(), t(45));
    }
}
