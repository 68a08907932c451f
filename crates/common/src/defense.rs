//! The row-hammer defense interface.
//!
//! Every protection scheme in this workspace — TWiCe itself and all the
//! baselines it is compared against in the paper (PARA, PRoHIT, CBT, CRA)
//! — implements [`RowHammerDefense`]. The memory-system simulator invokes
//! the defense on every row activation and on every per-bank auto-refresh,
//! and carries out the actions the defense requests.
//!
//! Two deliberately different refresh channels exist, mirroring §5.2 of the
//! paper:
//!
//! * [`DefenseResponse::arr`] — an **Adjacent Row Refresh**: "refresh
//!   whatever is *physically* adjacent to this aggressor". Only the DRAM
//!   device can resolve physical adjacency (row sparing remaps rows), so
//!   the defense names the aggressor and the device does the rest. TWiCe
//!   uses this channel exclusively.
//! * [`DefenseResponse::refresh_rows`] — explicit *logical* row refreshes.
//!   The MC-resident baselines were proposed with this model (they assume
//!   the MC knows adjacency); CBT also refreshes whole logical row groups.

use crate::ids::{BankId, RowId};
use crate::time::Time;

/// An explicit attack-detection event.
///
/// Counter-based schemes can pinpoint when and where an attack crossed the
/// threshold (paper §3.4); probabilistic schemes never produce one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Bank in which the aggressor row lives.
    pub bank: BankId,
    /// The aggressor (logical) row.
    pub row: RowId,
    /// When the detection threshold was crossed.
    pub at: Time,
    /// The activation count that triggered detection.
    pub act_count: u64,
}

/// What a defense asks the memory system to do after observing one ACT.
///
/// The default (and overwhelmingly common) response is "nothing":
/// [`DefenseResponse::none`] allocates no memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefenseResponse {
    /// Refresh the rows physically adjacent to this aggressor (ARR).
    pub arr: Option<RowId>,
    /// Refresh these explicit logical rows.
    pub refresh_rows: Vec<RowId>,
    /// Extra DRAM accesses performed for defense metadata, in units of
    /// row activations (CRA's counter-cache miss traffic).
    pub metadata_acts: u32,
    /// Detection event, if this defense detects attacks.
    pub detection: Option<Detection>,
}

impl DefenseResponse {
    /// The empty response (no action). Does not allocate.
    #[inline]
    pub fn none() -> DefenseResponse {
        DefenseResponse::default()
    }

    /// A response that issues an ARR for `aggressor`.
    #[inline]
    pub fn arr(aggressor: RowId) -> DefenseResponse {
        DefenseResponse {
            arr: Some(aggressor),
            ..DefenseResponse::default()
        }
    }

    /// Whether this response requests any action at all.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.arr.is_none()
            && self.refresh_rows.is_empty()
            && self.metadata_acts == 0
            && self.detection.is_none()
    }

    /// Number of *additional* row activations this response costs, given
    /// how many physical neighbors an ARR would refresh (2 in the interior
    /// of a bank, 1 at the edge).
    ///
    /// This is the paper's Figure 7 metric numerator.
    #[inline]
    pub fn additional_acts(&self, arr_neighbor_count: u32) -> u64 {
        let arr_cost = if self.arr.is_some() {
            u64::from(arr_neighbor_count)
        } else {
            0
        };
        arr_cost + self.refresh_rows.len() as u64 + u64::from(self.metadata_acts)
    }
}

/// A defense's own view of how hard it is being pushed.
///
/// Red-team searches use this to score *near misses*: an attack that drove
/// a tracker to 999‰ of its trigger threshold without ever firing is far
/// more interesting than one the defense never noticed. Probabilistic
/// defenses (PARA, PRoHIT's promotion dice) have no meaningful notion of
/// "distance to trigger" and report the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefensePressure {
    /// Protective actions the defense has fired so far (ARRs issued,
    /// explicit refreshes, detections — whatever the scheme counts as
    /// "I acted").
    pub triggers: u64,
    /// How close the hottest live tracking counter is to firing, in
    /// per-mille of the trigger threshold (0 = idle, 1000 = at the
    /// threshold). Capped at 1000.
    pub near_miss_permille: u32,
}

impl DefensePressure {
    /// Pressure computed from a raw counter value and its trigger
    /// threshold (`threshold == 0` reports zero pressure).
    pub fn from_counter(hottest: u64, threshold: u64, triggers: u64) -> DefensePressure {
        let near_miss_permille = hottest
            .saturating_mul(1000)
            .checked_div(threshold)
            .map_or(0, |p| p.min(1000) as u32);
        DefensePressure {
            triggers,
            near_miss_permille,
        }
    }

    /// Merges two pressure readings (e.g. RCD- and MC-side defenses on
    /// one channel): triggers add, near-miss takes the maximum.
    pub fn merge(self, other: DefensePressure) -> DefensePressure {
        DefensePressure {
            triggers: self.triggers + other.triggers,
            near_miss_permille: self.near_miss_permille.max(other.near_miss_permille),
        }
    }
}

/// Running totals a simulator accumulates from [`DefenseResponse`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Normal ACTs observed.
    pub acts_observed: u64,
    /// ARR commands issued.
    pub arr_issued: u64,
    /// Rows refreshed through ARR (physical neighbors).
    pub arr_rows_refreshed: u64,
    /// Rows refreshed through explicit logical requests.
    pub explicit_rows_refreshed: u64,
    /// Metadata access ACTs (CRA traffic).
    pub metadata_acts: u64,
    /// Detection events raised.
    pub detections: u64,
}

impl DefenseStats {
    /// Creates zeroed stats.
    pub fn new() -> DefenseStats {
        DefenseStats::default()
    }

    /// Records one observed ACT and the defense's response to it,
    /// with `arr_neighbor_count` physical neighbors per ARR.
    pub fn record(&mut self, response: &DefenseResponse, arr_neighbor_count: u32) {
        self.acts_observed += 1;
        if response.arr.is_some() {
            self.arr_issued += 1;
            self.arr_rows_refreshed += u64::from(arr_neighbor_count);
        }
        self.explicit_rows_refreshed += response.refresh_rows.len() as u64;
        self.metadata_acts += u64::from(response.metadata_acts);
        if response.detection.is_some() {
            self.detections += 1;
        }
    }

    /// Total additional ACTs caused by the defense.
    #[inline]
    pub fn additional_acts(&self) -> u64 {
        self.arr_rows_refreshed + self.explicit_rows_refreshed + self.metadata_acts
    }

    /// Additional ACTs relative to normal ACTs (Figure 7's y-axis).
    ///
    /// Returns 0 when no ACTs were observed.
    #[inline]
    pub fn additional_act_ratio(&self) -> f64 {
        if self.acts_observed == 0 {
            0.0
        } else {
            self.additional_acts() as f64 / self.acts_observed as f64
        }
    }

    fn fields(&self) -> [u64; 6] {
        [
            self.acts_observed,
            self.arr_issued,
            self.arr_rows_refreshed,
            self.explicit_rows_refreshed,
            self.metadata_acts,
            self.detections,
        ]
    }
}

impl crate::snapshot::Snapshot for DefenseStats {
    fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        for v in self.fields() {
            w.put_u64(v);
        }
    }

    fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.acts_observed = r.take_u64()?;
        self.arr_issued = r.take_u64()?;
        self.arr_rows_refreshed = r.take_u64()?;
        self.explicit_rows_refreshed = r.take_u64()?;
        self.metadata_acts = r.take_u64()?;
        self.detections = r.take_u64()?;
        Ok(())
    }
}

/// A row-hammer protection scheme observing the activation stream.
///
/// Implementations are created for a fixed number of banks and keep all
/// per-bank state internally, so a single trait object can protect a whole
/// channel. The trait is object-safe; simulators hold
/// `Box<dyn RowHammerDefense>`.
///
/// # Examples
///
/// A defense that never does anything (the unprotected baseline):
///
/// ```
/// use twice_common::defense::{DefenseResponse, RowHammerDefense};
/// use twice_common::ids::{BankId, RowId};
/// use twice_common::time::Time;
///
/// struct NoDefense;
///
/// impl RowHammerDefense for NoDefense {
///     fn name(&self) -> &str { "none" }
///     fn on_activate(&mut self, _: BankId, _: RowId, _: Time) -> DefenseResponse {
///         DefenseResponse::none()
///     }
/// }
///
/// let mut d = NoDefense;
/// assert!(d.on_activate(BankId(0), RowId(1), Time::ZERO).is_none());
/// ```
pub trait RowHammerDefense {
    /// A short human-readable name (used in reports, e.g. `"TWiCe"`,
    /// `"PARA-0.001"`).
    fn name(&self) -> &str;

    /// Observes one row activation and returns the requested actions.
    ///
    /// Called by the simulator *after* the ACT has been accepted by the
    /// bank, i.e. the stream is legal under DDR timing.
    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse;

    /// Observes a per-bank auto-refresh (REF) command and returns any
    /// protective action the defense wants taken during the refresh
    /// window.
    ///
    /// TWiCe prunes its table here, hiding the update under `tRFC`; CBT
    /// uses the matching window boundary to reset its tree. A hardened
    /// TWiCe additionally scrubs its counter SRAM here and fails safe on
    /// corruption: rows whose entries were found corrupted come back in
    /// `arr` / `refresh_rows` so the simulator refreshes their neighbors
    /// exactly as it would for a real detection. The default does nothing.
    fn on_auto_refresh(&mut self, bank: BankId, now: Time) -> DefenseResponse {
        let _ = (bank, now);
        DefenseResponse::none()
    }

    /// Clears all internal state, as if freshly constructed.
    fn reset(&mut self) {}

    /// Cumulative count of internal-corruption events the defense has
    /// detected (e.g. parity failures found by a counter-SRAM scrub).
    ///
    /// The memory controller polls this after refreshes; a rising value
    /// triggers graceful degradation (falling back to a probabilistic
    /// MC-side defense until the scrub completes). Defaults to 0 for
    /// defenses with no self-checking state.
    fn corruption_events(&self) -> u64 {
        0
    }

    /// Cumulative count of faults the defense's own fault injector has
    /// landed in its internal state (e.g. counter-SRAM SEUs). Reported by
    /// chaos campaigns so fault pressure is visible even when the defense
    /// has no self-checking to *detect* the damage. Defaults to 0.
    fn faults_injected(&self) -> u64 {
        0
    }

    /// The defense's own fault injector, for telling its fault kinds
    /// apart (`None` for defenses with no injectable internal state).
    fn fault_injector(&self) -> Option<&crate::fault::FaultInjector> {
        None
    }

    /// How hard this defense is currently being pushed: actions fired so
    /// far and the hottest live counter as a fraction of its trigger
    /// threshold. The red-team search scores stealth with this. Defaults
    /// to idle, which is correct for stateless/probabilistic defenses.
    fn pressure(&self) -> DefensePressure {
        DefensePressure::default()
    }

    /// Current number of live tracking entries for `bank`, if the defense
    /// is table-based (used by capacity-bound experiments). Defaults to
    /// `None` for stateless defenses.
    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        let _ = bank;
        None
    }

    /// Serializes the defense's mutable state for a checkpoint.
    ///
    /// The counterpart of [`crate::snapshot::Snapshot::save_state`], kept
    /// directly on this trait so `Box<dyn RowHammerDefense>` can be
    /// checkpointed without a second trait object. Defaults to writing
    /// nothing, which is correct for stateless defenses and test doubles.
    fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        let _ = w;
    }

    /// Re-establishes state saved by [`RowHammerDefense::save_state`] into
    /// a defense freshly constructed from the same configuration.
    fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let _ = r;
        Ok(())
    }

    /// Folds the defense's mutable state into a run digest: the bytes
    /// [`RowHammerDefense::save_state`] writes, framed as a blob of their
    /// own, so from a fresh accumulator this is the checksum that blob
    /// ends with. Derived from `save_state`, so not for overriding.
    fn digest_state(&self, d: &mut crate::snapshot::StateDigest) {
        let mut w = crate::snapshot::SnapshotWriter::folding(*d);
        self.save_state(&mut w);
        *d = w.into_digest();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_none_is_empty() {
        let r = DefenseResponse::none();
        assert!(r.is_none());
        assert_eq!(r.additional_acts(2), 0);
    }

    #[test]
    fn arr_costs_neighbor_count() {
        let r = DefenseResponse::arr(RowId(5));
        assert!(!r.is_none());
        assert_eq!(r.additional_acts(2), 2);
        assert_eq!(r.additional_acts(1), 1); // edge row
    }

    #[test]
    fn mixed_response_cost_sums() {
        let r = DefenseResponse {
            arr: Some(RowId(1)),
            refresh_rows: vec![RowId(2), RowId(3)],
            metadata_acts: 4,
            detection: None,
        };
        assert_eq!(r.additional_acts(2), 2 + 2 + 4);
    }

    #[test]
    fn stats_accumulate_and_ratio() {
        let mut s = DefenseStats::new();
        for _ in 0..999 {
            s.record(&DefenseResponse::none(), 2);
        }
        let det = Detection {
            bank: BankId(0),
            row: RowId(9),
            at: Time::ZERO,
            act_count: 32_768,
        };
        let r = DefenseResponse {
            detection: Some(det),
            ..DefenseResponse::arr(RowId(9))
        };
        s.record(&r, 2);
        assert_eq!(s.acts_observed, 1_000);
        assert_eq!(s.arr_issued, 1);
        assert_eq!(s.detections, 1);
        assert_eq!(s.additional_acts(), 2);
        assert!((s.additional_act_ratio() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_empty_stats_is_zero() {
        assert_eq!(DefenseStats::new().additional_act_ratio(), 0.0);
    }

    #[test]
    fn pressure_from_counter_caps_and_guards_zero() {
        let p = DefensePressure::from_counter(255, 256, 3);
        assert_eq!(p.near_miss_permille, 996);
        assert_eq!(p.triggers, 3);
        assert_eq!(
            DefensePressure::from_counter(900, 256, 0).near_miss_permille,
            1000
        );
        assert_eq!(
            DefensePressure::from_counter(900, 0, 0).near_miss_permille,
            0
        );
    }

    #[test]
    fn pressure_merge_adds_triggers_takes_max_near_miss() {
        let a = DefensePressure::from_counter(100, 1000, 2);
        let b = DefensePressure::from_counter(700, 1000, 5);
        let m = a.merge(b);
        assert_eq!(m.triggers, 7);
        assert_eq!(m.near_miss_permille, 700);
    }
}
