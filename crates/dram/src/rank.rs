//! Rank-level activation constraints: tRRD_S/tRRD_L and the
//! four-activate window.
//!
//! Within a rank, any two ACTs must be at least `tRRD_S` apart — and at
//! least `tRRD_L` apart when they target banks of the same DDR4 *bank
//! group* — and any five ACTs must span more than `tFAW` (§2.4). These
//! constraints bound the *rank-wide* ACT rate; together with per-bank
//! `tRC` they are what makes the number of potential row-hammer
//! aggressors finite.

use crate::error::{TimingKind, TimingViolation};
use twice_common::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{DdrTimings, Time};

/// Banks per DDR4 bank group.
pub const BANKS_PER_GROUP: u16 = 4;

/// Sliding-window tracker for rank-level ACT constraints.
#[derive(Debug, Clone)]
pub struct RankActWindow {
    t_rrd_s: twice_common::Span,
    t_rrd_l: twice_common::Span,
    t_faw: twice_common::Span,
    /// The instants of the four most recent ACTs, oldest first.
    recent: [Option<Time>; 4],
    /// Most recent ACT per bank group (tRRD_L).
    last_in_group: Vec<Option<Time>>,
}

impl RankActWindow {
    /// Creates a tracker for the given timing set and `banks` banks.
    pub fn new(timings: &DdrTimings, banks: u16) -> RankActWindow {
        let groups = usize::from(banks.div_ceil(BANKS_PER_GROUP));
        RankActWindow {
            t_rrd_s: timings.t_rrd,
            t_rrd_l: timings.t_rrd_l,
            t_faw: timings.t_faw,
            recent: [None; 4],
            last_in_group: vec![None; groups.max(1)],
        }
    }

    fn group_of(&self, bank: u16) -> usize {
        usize::from(bank / BANKS_PER_GROUP) % self.last_in_group.len()
    }

    /// Checks whether an ACT to `bank` at `now` satisfies tRRD_S,
    /// tRRD_L, and tFAW.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint and the earliest legal instant.
    pub fn check(&self, bank: u16, now: Time) -> Result<(), TimingViolation> {
        if let Some(last) = self.recent.iter().flatten().last() {
            let ready = *last + self.t_rrd_s;
            if now < ready {
                return Err(TimingViolation {
                    kind: TimingKind::Trrd,
                    ready_at: ready,
                    issued_at: now,
                });
            }
        }
        if let Some(last) = self.last_in_group[self.group_of(bank)] {
            let ready = last + self.t_rrd_l;
            if now < ready {
                return Err(TimingViolation {
                    kind: TimingKind::Trrd,
                    ready_at: ready,
                    issued_at: now,
                });
            }
        }
        if let Some(fourth_back) = self.recent[0] {
            let ready = fourth_back + self.t_faw;
            if now < ready {
                return Err(TimingViolation {
                    kind: TimingKind::Tfaw,
                    ready_at: ready,
                    issued_at: now,
                });
            }
        }
        Ok(())
    }

    /// Records an accepted ACT to `bank` at `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the most recent recorded
    /// ACT (the stream must be monotone).
    pub fn record(&mut self, bank: u16, now: Time) {
        if let Some(last) = self.recent.iter().flatten().last() {
            debug_assert!(now >= *last, "ACT stream must be time-ordered");
        }
        self.recent.rotate_left(1);
        self.recent[3] = Some(now);
        let g = self.group_of(bank);
        self.last_in_group[g] = Some(now);
    }

    /// Earliest instant the next ACT to `bank` may issue under
    /// tRRD_S/tRRD_L/tFAW.
    pub fn ready_at(&self, bank: u16) -> Time {
        let rrd_s = self
            .recent
            .iter()
            .flatten()
            .last()
            .map(|&t| t + self.t_rrd_s)
            .unwrap_or(Time::ZERO);
        let rrd_l = self.last_in_group[self.group_of(bank)]
            .map(|t| t + self.t_rrd_l)
            .unwrap_or(Time::ZERO);
        let faw = self.recent[0].map(|t| t + self.t_faw).unwrap_or(Time::ZERO);
        rrd_s.max(rrd_l).max(faw)
    }
}

fn put_opt_time(w: &mut SnapshotWriter, t: Option<Time>) {
    w.put_bool(t.is_some());
    w.put_u64(t.map_or(0, Time::as_ps));
}

fn take_opt_time(r: &mut SnapshotReader<'_>) -> Result<Option<Time>, SnapshotError> {
    let some = r.take_bool()?;
    let ps = r.take_u64()?;
    Ok(some.then(|| Time::from_ps(ps)))
}

impl Snapshot for RankActWindow {
    fn save_state(&self, w: &mut SnapshotWriter) {
        for t in self.recent {
            put_opt_time(w, t);
        }
        w.put_usize(self.last_in_group.len());
        for &t in &self.last_in_group {
            put_opt_time(w, t);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        for slot in &mut self.recent {
            *slot = take_opt_time(r)?;
        }
        let groups = r.take_usize()?;
        if groups != self.last_in_group.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "ACT window has {} bank groups, snapshot has {groups}",
                self.last_in_group.len()
            )));
        }
        for slot in &mut self.last_in_group {
            *slot = take_opt_time(r)?;
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

    fn window() -> RankActWindow {
        // tRRD_S=5ns, tRRD_L=6ns, tFAW=21ns; 16 banks = 4 groups.
        RankActWindow::new(&DdrTimings::ddr4_2400(), 16)
    }

    #[test]
    fn first_act_is_always_legal() {
        let w = window();
        assert!(w.check(0, Time::ZERO).is_ok());
        assert_eq!(w.ready_at(0), Time::ZERO);
    }

    #[test]
    fn trrd_s_spacing_across_groups() {
        let mut w = window();
        w.record(0, t(0)); // group 0
        let e = w.check(4, t(4)).unwrap_err(); // group 1
        assert_eq!(e.kind, TimingKind::Trrd);
        assert_eq!(e.ready_at, t(5));
        assert!(w.check(4, t(5)).is_ok());
    }

    #[test]
    fn trrd_l_binds_within_a_group() {
        let mut w = window();
        w.record(0, t(0)); // group 0
                           // Bank 1 shares group 0: tRRD_L = 6ns applies.
        let e = w.check(1, t(5)).unwrap_err();
        assert_eq!(e.kind, TimingKind::Trrd);
        assert_eq!(e.ready_at, t(6));
        assert!(w.check(1, t(6)).is_ok());
        // A different group only needs tRRD_S.
        assert!(w.check(4, t(5)).is_ok());
    }

    #[test]
    fn tfaw_limits_bursts_of_four() {
        let mut w = window();
        for i in 0..4 {
            let at = t(i * 5);
            // Spread across groups so only tRRD_S binds.
            w.check((i * 4) as u16 % 16, at).unwrap();
            w.record((i * 4) as u16 % 16, at);
        }
        // Fifth ACT: tRRD satisfied at t=20, but tFAW requires t >= 21.
        let e = w.check(0, t(20)).unwrap_err();
        assert_eq!(e.kind, TimingKind::Tfaw);
        assert_eq!(e.ready_at, t(21));
        assert!(w.check(4, t(21)).is_ok());
    }

    #[test]
    fn window_slides_after_fifth_act() {
        let mut w = window();
        for i in 0..5u64 {
            let at = t(i * 25); // generously spaced
            let bank = ((i * 4) % 16) as u16;
            w.check(bank, at).unwrap();
            w.record(bank, at);
        }
        assert!(w.check(8, t(130)).is_ok());
    }

    #[test]
    fn ready_at_reports_the_binding_constraint() {
        let mut w = window();
        w.record(0, t(0));
        assert_eq!(w.ready_at(1), t(6), "same group: tRRD_L");
        assert_eq!(w.ready_at(4), t(5), "cross group: tRRD_S");
    }
}
