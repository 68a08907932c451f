//! Deterministic fault-injection model for chaos experiments.
//!
//! The paper's protection guarantee (§4.3) is proven under ideal
//! hardware: counter SRAM never flips, ARR conversions never get lost on
//! the command bus, and the MC's nack-resend loop always converges. This
//! module gives the simulator a vocabulary for violating those
//! assumptions *on purpose*, so the resilience machinery (per-entry
//! parity + scrub in `twice-core`, bounded nack retry + PARA fallback in
//! `twice-memctrl`) can be stress-tested end to end.
//!
//! A [`FaultPlan`] is a pure description — seeded rates plus optional
//! scheduled one-shot events per [`FaultKind`]. Components derive their
//! own [`FaultInjector`] stream from the plan with a per-component salt,
//! so two runs with the same plan inject byte-identical fault sequences
//! regardless of scheduling order between components.
//!
//! The same discipline applies to the harness's *own* persistence layer:
//! the `Storage*` kinds model a hostile filesystem (ENOSPC, torn writes,
//! partial reads, failed renames, bit-rot) and drive the campaign
//! runner's `FaultyIo` implementation of `CampaignIo` in `twice-sim`, so
//! the crash-safety machinery is stress-tested with the same seeded,
//! replayable vocabulary as the DRAM fault model.
//!
//! # Examples
//!
//! ```
//! use twice_common::fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::with_seed(42)
//!     .rate(FaultKind::CounterBitFlip, 1e-3)
//!     .at_event(FaultKind::SpuriousNack, 5);
//! let mut inj = plan.injector(0xC0DE);
//! // The 6th SpuriousNack opportunity fires deterministically...
//! let fired: Vec<bool> = (0..8).map(|_| inj.fire(FaultKind::SpuriousNack)).collect();
//! assert!(fired[5]);
//! // ...and the whole stream replays identically from the same plan.
//! let mut replay = plan.injector(0xC0DE);
//! let again: Vec<bool> = (0..8).map(|_| replay.fire(FaultKind::SpuriousNack)).collect();
//! assert_eq!(fired, again);
//! ```

use crate::rng::SplitMix64;

/// The number of distinct [`FaultKind`] variants (size of per-kind arrays).
const KINDS: usize = 14;

/// A category of injectable hardware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Single-event upset in counter-table SRAM: one stored bit of an
    /// entry's activation count or lifetime flips.
    CounterBitFlip,
    /// A detected aggressor's PRE→ARR conversion is dropped on the bus:
    /// the RCD forwards a plain precharge and the victims go unrefreshed
    /// this round.
    ArrDrop,
    /// A PRE→ARR conversion is duplicated: the victims are refreshed
    /// twice, costing extra ACT slots (a performance fault, not a safety
    /// one).
    ArrDuplicate,
    /// The RCD nacks a command that the protocol would have accepted.
    SpuriousNack,
    /// A scheduled auto-refresh is postponed by one interval (DDR4 allows
    /// up to eight postponements; a fault pushes against that envelope).
    RefreshPostpone,
    /// Command-bus timing jitter: an issued command is delayed by a
    /// random fraction of a clock before it reaches the device.
    TimingJitter,
    /// Storage: a write fails with "no space left on device" before any
    /// byte reaches the file.
    StorageEnospc,
    /// Storage: a write is torn — only a prefix of the bytes persists,
    /// and the tear is *silent* (the writer is told it succeeded), as a
    /// power loss after an unsynced rename would leave it.
    StorageTornWrite,
    /// Storage: a read returns only a prefix of the file.
    StoragePartialRead,
    /// Storage: the rename step of an atomic write fails, leaving the
    /// temporary file orphaned next to the intact original.
    StorageRenameFail,
    /// Storage: a read returns the file with one bit flipped (media
    /// bit-rot or an undetected transfer error).
    StorageBitRot,
    /// Device: a bank's FSM wedges after a refresh — the bank stays busy
    /// for several tRFC windows and every command to it is nacked until
    /// the FSM recovers. Exercises the MC's bounded nack-retry loop.
    BankStuck,
    /// Device: a refresh window is silently dropped inside the DRAM —
    /// the REF is accepted on the bus and the bank FSM cycles, but the
    /// covered rowset is never actually refreshed, so its disturbance
    /// (and retention clock) keeps accumulating for a full extra window.
    RefreshDrop,
    /// Device: a stuck-at-0 soft error in the TWiCe counter SRAM — the
    /// hottest entry's top count bit reads back as zero, collapsing the
    /// count the defense relies on (the worst case for detection, a
    /// failure mode the paper's §4 SRAM sizing never stress-tests).
    CounterStuckBit,
}

impl FaultKind {
    /// All fault kinds, in a fixed order (index order of the internal
    /// per-kind state arrays).
    pub const ALL: [FaultKind; KINDS] = [
        FaultKind::CounterBitFlip,
        FaultKind::ArrDrop,
        FaultKind::ArrDuplicate,
        FaultKind::SpuriousNack,
        FaultKind::RefreshPostpone,
        FaultKind::TimingJitter,
        FaultKind::StorageEnospc,
        FaultKind::StorageTornWrite,
        FaultKind::StoragePartialRead,
        FaultKind::StorageRenameFail,
        FaultKind::StorageBitRot,
        FaultKind::BankStuck,
        FaultKind::RefreshDrop,
        FaultKind::CounterStuckBit,
    ];

    /// Stable index of this kind into per-kind arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            FaultKind::CounterBitFlip => 0,
            FaultKind::ArrDrop => 1,
            FaultKind::ArrDuplicate => 2,
            FaultKind::SpuriousNack => 3,
            FaultKind::RefreshPostpone => 4,
            FaultKind::TimingJitter => 5,
            FaultKind::StorageEnospc => 6,
            FaultKind::StorageTornWrite => 7,
            FaultKind::StoragePartialRead => 8,
            FaultKind::StorageRenameFail => 9,
            FaultKind::StorageBitRot => 10,
            FaultKind::BankStuck => 11,
            FaultKind::RefreshDrop => 12,
            FaultKind::CounterStuckBit => 13,
        }
    }

    /// Short machine-readable label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::CounterBitFlip => "seu",
            FaultKind::ArrDrop => "arr-drop",
            FaultKind::ArrDuplicate => "arr-dup",
            FaultKind::SpuriousNack => "nack",
            FaultKind::RefreshPostpone => "ref-postpone",
            FaultKind::TimingJitter => "jitter",
            FaultKind::StorageEnospc => "enospc",
            FaultKind::StorageTornWrite => "torn-write",
            FaultKind::StoragePartialRead => "partial-read",
            FaultKind::StorageRenameFail => "rename-fail",
            FaultKind::StorageBitRot => "bit-rot",
            FaultKind::BankStuck => "bank-stuck",
            FaultKind::RefreshDrop => "ref-drop",
            FaultKind::CounterStuckBit => "stuck-bit",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How an SEU picks its victim entry inside a counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultTargeting {
    /// Uniformly random over currently occupied entries (a physical SEU
    /// has no idea which word it lands in).
    #[default]
    Random,
    /// Always hits the entry with the highest activation count — the
    /// adversarial worst case, since losing the hottest counter is what
    /// defeats detection.
    Hottest,
}

/// A seeded, schedulable description of the faults to inject in a run.
///
/// The plan itself is inert; components call [`FaultPlan::injector`] with
/// a private salt to obtain a [`FaultInjector`] that makes the actual
/// per-event decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed all injector streams are derived from.
    pub seed: u64,
    /// Per-kind Bernoulli rate applied at every opportunity.
    rates: [f64; KINDS],
    /// One-shot scheduled events: `(kind, opportunity_index)` pairs. The
    /// `n`-th opportunity (0-based) for `kind` fires regardless of rate.
    scheduled: Vec<(FaultKind, u64)>,
    /// Victim-selection policy for counter-table SEUs.
    pub targeting: FaultTargeting,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero, nothing scheduled).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rates: [0.0; KINDS],
            scheduled: Vec::new(),
            targeting: FaultTargeting::Random,
        }
    }

    /// An empty plan with the given base seed.
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the Bernoulli rate for `kind` (probability per opportunity).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn rate(mut self, kind: FaultKind, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "fault rate must be in [0,1]");
        self.rates[kind.index()] = p;
        self
    }

    /// Schedules a one-shot fault: the `n`-th opportunity (0-based) for
    /// `kind` fires deterministically, independent of the rate.
    #[must_use]
    pub fn at_event(mut self, kind: FaultKind, n: u64) -> FaultPlan {
        self.scheduled.push((kind, n));
        self
    }

    /// Sets the SEU victim-selection policy.
    #[must_use]
    pub fn targeting(mut self, t: FaultTargeting) -> FaultPlan {
        self.targeting = t;
        self
    }

    /// The configured rate for `kind`.
    pub fn rate_of(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// True if the plan can never fire any fault.
    pub fn is_none(&self) -> bool {
        self.scheduled.is_empty() && self.rates.iter().all(|&r| r == 0.0)
    }

    /// Derives the live injector for one component. `salt` decorrelates
    /// streams between components (engine, RCD, controller) so their
    /// decisions do not alias even though they share one plan.
    pub fn injector(&self, salt: u64) -> FaultInjector {
        FaultInjector {
            armed: !self.is_none(),
            plan: self.clone(),
            rng: SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            opportunities: [0; KINDS],
            injected: [0; KINDS],
        }
    }
}

/// Live per-component fault stream derived from a [`FaultPlan`].
///
/// Every call to [`FaultInjector::fire`] is one *opportunity* for that
/// fault kind; the injector counts opportunities, applies the scheduled
/// one-shots, then the Bernoulli rate, and tallies what it injected.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Whether the plan can fire at all; an unarmed injector only counts
    /// opportunities.
    armed: bool,
    plan: FaultPlan,
    rng: SplitMix64,
    opportunities: [u64; KINDS],
    injected: [u64; KINDS],
}

impl FaultInjector {
    /// An injector that never fires (for components without a plan).
    pub fn inert() -> FaultInjector {
        FaultPlan::none().injector(0)
    }

    /// Registers one opportunity for `kind` and decides whether the
    /// fault fires now.
    ///
    /// An unarmed injector (no scheduled fault, every rate zero) only
    /// counts the opportunity: with a zero rate the armed path draws no
    /// random number either, so the stream state is the same.
    #[inline]
    pub fn fire(&mut self, kind: FaultKind) -> bool {
        if !self.armed {
            self.opportunities[kind.index()] += 1;
            return false;
        }
        self.fire_armed(kind)
    }

    fn fire_armed(&mut self, kind: FaultKind) -> bool {
        let i = kind.index();
        let n = self.opportunities[i];
        self.opportunities[i] += 1;
        let scheduled = self
            .plan
            .scheduled
            .iter()
            .any(|&(k, at)| k == kind && at == n);
        // Always draw so the stream position does not depend on the
        // schedule (keeps sweeps over schedules comparable).
        let rolled = {
            let p = self.plan.rates[i];
            p > 0.0 && self.rng.chance(p)
        };
        let fired = scheduled || rolled;
        if fired {
            self.injected[i] += 1;
        }
        fired
    }

    /// A uniform draw in `[0, bound)` for fault parameterization (victim
    /// index, flipped bit position, jitter magnitude).
    pub fn draw(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// The SEU victim-selection policy from the plan.
    pub fn targeting(&self) -> FaultTargeting {
        self.plan.targeting
    }

    /// How many faults of `kind` have been injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// How many opportunities for `kind` have been seen so far.
    pub fn opportunities(&self, kind: FaultKind) -> u64 {
        self.opportunities[kind.index()]
    }
}

impl crate::snapshot::Snapshot for FaultInjector {
    fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        // The plan is configuration (re-established by the caller); only
        // the stream position and tallies are run-time state.
        w.put_u64(self.rng.state());
        for i in 0..KINDS {
            w.put_u64(self.opportunities[i]);
            w.put_u64(self.injected[i]);
        }
    }

    fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.rng.set_state(r.take_u64()?);
        for i in 0..KINDS {
            self.opportunities[i] = r.take_u64()?;
            self.injected[i] = r.take_u64()?;
        }
        Ok(())
    }

    fn digest_state(&self, d: &mut crate::snapshot::StateDigest) {
        d.write_u64(self.rng.state());
        for i in 0..KINDS {
            d.write_u64(self.opportunities[i]);
            d.write_u64(self.injected[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let mut inj = FaultInjector::inert();
        for _ in 0..10_000 {
            for kind in FaultKind::ALL {
                assert!(!inj.fire(kind));
            }
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn unarmed_fast_path_leaves_the_armed_path_state() {
        // A one-shot for a kind never fired here arms the plan, so its
        // zero-rate kinds take the armed path.
        use crate::snapshot::{Snapshot, StateDigest};
        let mut armed = FaultPlan::with_seed(5)
            .at_event(FaultKind::BankStuck, 0)
            .injector(3);
        let mut unarmed = FaultPlan::with_seed(5).injector(3);
        let kinds = FaultKind::ALL
            .into_iter()
            .filter(|&k| k != FaultKind::BankStuck);
        for kind in kinds.cycle().take(1_000) {
            assert!(!armed.fire(kind));
            assert!(!unarmed.fire(kind));
        }
        let digest = |inj: &FaultInjector| {
            let mut d = StateDigest::new();
            inj.digest_state(&mut d);
            d.finish()
        };
        assert_eq!(digest(&armed), digest(&unarmed));
        assert!(unarmed.opportunities(FaultKind::TimingJitter) > 0);
    }

    #[test]
    fn scheduled_event_fires_exactly_once_at_its_index() {
        let plan = FaultPlan::with_seed(1).at_event(FaultKind::ArrDrop, 3);
        let mut inj = plan.injector(9);
        let fired: Vec<bool> = (0..10).map(|_| inj.fire(FaultKind::ArrDrop)).collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 1);
        assert!(fired[3]);
        assert_eq!(inj.injected(FaultKind::ArrDrop), 1);
    }

    #[test]
    fn rate_produces_approximately_p_and_is_deterministic() {
        let plan = FaultPlan::with_seed(7).rate(FaultKind::SpuriousNack, 0.01);
        let mut a = plan.injector(1);
        let mut b = plan.injector(1);
        let n = 100_000;
        let hits_a = (0..n).filter(|_| a.fire(FaultKind::SpuriousNack)).count();
        let hits_b = (0..n).filter(|_| b.fire(FaultKind::SpuriousNack)).count();
        assert_eq!(hits_a, hits_b, "same plan+salt must replay identically");
        let rate = hits_a as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.003, "rate {rate} too far from 0.01");
    }

    #[test]
    fn salts_decorrelate_streams() {
        let plan = FaultPlan::with_seed(7).rate(FaultKind::TimingJitter, 0.5);
        let mut a = plan.injector(1);
        let mut b = plan.injector(2);
        let sa: Vec<bool> = (0..64).map(|_| a.fire(FaultKind::TimingJitter)).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.fire(FaultKind::TimingJitter)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn kinds_are_independent_streams_of_opportunities() {
        let plan = FaultPlan::with_seed(3).at_event(FaultKind::CounterBitFlip, 0);
        let mut inj = plan.injector(0);
        assert!(!inj.fire(FaultKind::SpuriousNack), "other kinds unaffected");
        assert!(
            inj.fire(FaultKind::CounterBitFlip),
            "first SEU opportunity fires"
        );
        assert_eq!(inj.opportunities(FaultKind::SpuriousNack), 1);
        assert_eq!(inj.opportunities(FaultKind::CounterBitFlip), 1);
    }

    #[test]
    fn kind_table_is_consistent() {
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "ALL order must match index()");
        }
        let labels: std::collections::HashSet<&str> =
            FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FaultKind::ALL.len(), "labels must be unique");
    }

    #[test]
    fn is_none_reflects_contents() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none()
            .rate(FaultKind::ArrDuplicate, 0.1)
            .is_none());
        assert!(!FaultPlan::none().at_event(FaultKind::ArrDrop, 0).is_none());
    }
}
