//! The per-channel memory-controller event loop.
//!
//! [`ChannelController`] owns one channel's RCD (and through it the
//! channel's ranks), a request queue, a scheduler, and a page policy. It
//! converts requests into legal DDR command sequences, self-clocking off
//! the device model: a command is attempted at the current time and, on a
//! timing rejection or an RCD nack, retried at the reported ready
//! instant. Per-bank auto-refreshes are issued every `tREFI`, staggered
//! across banks.
//!
//! The row-hammer defense can live in either place the paper considers:
//!
//! * [`DefenseLocation::Rcd`] — the defense rides inside the RCD (TWiCe's
//!   design point, §5.1): it sees ACTs as they pass through, converts the
//!   aggressor's PRE into an ARR, and nacks conflicting commands.
//! * [`DefenseLocation::MemoryController`] — the defense runs beside the
//!   scheduler (CRA/CBT/PARA's design point, §3). Its refresh requests
//!   are issued as explicit row activations, and — faithfully to the
//!   paper's critique — it only knows *logical* adjacency, so an `arr`
//!   request is expanded to `row ± 1`.
//!
//! Serving a request does not rescan the queue's entries. PAR-BS picks
//! from its batch's member list and only looks the chosen id up in the
//! queue. The page policy counts queued hits to the served row on a
//! mirror that holds one `(flat bank << 32) | row` key per queue slot.
//! `submit`, the `swap_remove` that retires a request, and `load_state`
//! keep the mirror in step with the queue.

use crate::latency::LatencyHistogram;
use crate::pagepolicy::PagePolicy;
use crate::request::{AccessKind, MemRequest};
use crate::resilience::{ControllerError, RetryPolicy, RetryState};
use crate::scheduler::{make_scheduler, QueuedRequest, Scheduler, SchedulerKind};
use twice_common::fault::{FaultInjector, FaultKind, FaultPlan};
use twice_common::snapshot::{
    Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StateDigest,
};
use twice_common::{
    BankId, ChannelId, ColId, DdrTimings, DefenseResponse, DefenseStats, Detection, RankId,
    RowHammerDefense, RowId, Time,
};
use twice_dram::cmd::DramCommand;
use twice_dram::device::{DramRank, RankConfig};
use twice_dram::energy::DramEnergyModel;
use twice_dram::error::DramError;
use twice_dram::rcd::{Rcd, RcdOutcome};
use twice_dram::stats::DramStats;

use crate::addrmap::DecodedAccess;

/// How auto-refresh is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshMode {
    /// One REF per bank per `tREFI`, staggered (DDR4 per-bank mode; the
    /// paper's TWiCe table update rides on these).
    #[default]
    PerBank,
    /// One REFab per *rank* per `tREFI`: all banks refresh together
    /// (classic all-bank mode).
    AllBank,
}

/// Where the row-hammer defense is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseLocation {
    /// Inside the register clock driver (TWiCe, §5.1).
    Rcd,
    /// Inside the memory controller (PARA/PRoHIT/CBT/CRA, §3).
    MemoryController,
}

/// Construction parameters for a [`ChannelController`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// DDR timing set.
    pub timings: DdrTimings,
    /// Ranks on this channel.
    pub ranks: u8,
    /// Banks per rank.
    pub banks_per_rank: u16,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row-hammer disturbance threshold for the fault model.
    pub n_th: u64,
    /// Remapped (spared) rows per bank.
    pub faults_per_bank: u32,
    /// Overdrive fault model (extra flips per excess disturbance).
    pub overshoot_interval: Option<u64>,
    /// Half-Double coupling: every `k`-th ACT also disturbs distance-2
    /// rows.
    pub far_coupling: Option<u64>,
    /// ARR blast radius (1 = the paper's design).
    pub arr_radius: u32,
    /// Auto-refresh scheduling mode.
    pub refresh_mode: RefreshMode,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Page policy.
    pub page_policy: PagePolicy,
    /// Request-queue capacity (Table 4: 64).
    pub queue_capacity: usize,
    /// Whether column accesses move real bytes through the data model
    /// (off by default: the Figure 7 metrics don't need the data path,
    /// and integrity experiments turn it on explicitly).
    pub move_data: bool,
    /// Global bank-id base for `(rank 0, bank 0)` of this channel.
    pub bank_base: u32,
    /// Seed for remap tables.
    pub remap_seed: u64,
    /// Retry bounds for the nack-resend loop (attempt budget, backoff,
    /// starvation watchdog).
    pub retry: RetryPolicy,
    /// Chaos fault plan. The RCD and the controller each derive their own
    /// injection stream from it; [`FaultPlan::none`] (the default) makes
    /// every injector inert.
    pub fault_plan: FaultPlan,
}

impl ControllerConfig {
    /// The Table 4 per-channel configuration.
    pub fn paper_default() -> ControllerConfig {
        ControllerConfig {
            timings: DdrTimings::ddr4_2400(),
            ranks: 2,
            banks_per_rank: 16,
            rows_per_bank: 131_072,
            n_th: 139_000,
            faults_per_bank: 0,
            overshoot_interval: None,
            far_coupling: None,
            arr_radius: 1,
            refresh_mode: RefreshMode::PerBank,
            scheduler: SchedulerKind::ParBs,
            page_policy: PagePolicy::paper_default(),
            queue_capacity: 64,
            move_data: false,
            bank_base: 0,
            remap_seed: 1,
            retry: RetryPolicy::paper_default(),
            fault_plan: FaultPlan::none(),
        }
    }

    /// A small configuration for tests (1 rank × 2 banks × `rows` rows).
    pub fn for_test(rows: u32) -> ControllerConfig {
        ControllerConfig {
            ranks: 1,
            banks_per_rank: 2,
            rows_per_bank: rows,
            n_th: 100,
            ..ControllerConfig::paper_default()
        }
    }

    fn rank_config(&self) -> RankConfig {
        RankConfig {
            timings: self.timings.clone(),
            banks: self.banks_per_rank,
            rows_per_bank: self.rows_per_bank,
            n_th: self.n_th,
            faults_per_bank: self.faults_per_bank,
            remap_seed: self.remap_seed,
            overshoot_interval: self.overshoot_interval,
            far_coupling: self.far_coupling,
            arr_radius: self.arr_radius,
        }
    }
}

/// A defense that does nothing (used to fill the RCD slot when the real
/// defense lives in the MC, and as the unprotected baseline).
#[derive(Debug, Clone, Copy, Default)]
struct NoDefense;

impl RowHammerDefense for NoDefense {
    fn name(&self) -> &str {
        "none"
    }
    fn on_activate(&mut self, _: BankId, _: RowId, _: Time) -> DefenseResponse {
        DefenseResponse::none()
    }
}

/// One channel's memory controller, RCD, and DRAM ranks.
pub struct ChannelController {
    cfg: ControllerConfig,
    rcd: Rcd,
    mc_defense: Option<Box<dyn RowHammerDefense>>,
    scheduler: Box<dyn Scheduler>,
    queue: Vec<QueuedRequest>,
    /// [`row_key`](Self::row_key) of each queued request, slot for slot
    /// with `queue`: the page policy counts queued row hits on these.
    /// Derived, never serialized.
    queue_keys: Vec<u64>,
    next_id: u64,
    now: Time,
    /// Next auto-refresh due instant per flat (rank, bank).
    next_ref: Vec<Time>,
    /// Earliest due instant among the slots the active refresh mode
    /// actually advances (all of them per-bank; only each rank's bank-0
    /// slot in all-bank mode). Derived from `next_ref` — recomputed
    /// after every refresh pass and on restore, never serialized. Lets
    /// `service_one` skip the rank×bank scan while nothing is due.
    min_next_ref: Time,
    /// Column accesses served on the currently open row, per flat bank.
    hits_served: Vec<u32>,
    defense_stats: DefenseStats,
    mc_detections: Vec<Detection>,
    metadata_acts: u64,
    served: u64,
    latency: LatencyHistogram,
    /// Chaos-testing hook for MC-side faults (refresh postponement,
    /// command-bus jitter).
    injector: FaultInjector,
    /// MC-side probabilistic fallback defense, engaged while the RCD
    /// defense reports counter corruption (graceful degradation).
    fallback: Option<Box<dyn RowHammerDefense>>,
    /// Fallback stays engaged until this instant.
    fallback_until: Time,
    /// Last corruption count polled from the RCD defense.
    last_corruption_events: u64,
    /// Distinct fallback windows opened so far.
    fallback_windows: u64,
}

impl std::fmt::Debug for ChannelController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelController")
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("served", &self.served)
            .field("scheduler", &self.scheduler.name())
            .finish()
    }
}

impl ChannelController {
    /// Builds a controller with `defense` at `location`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero
    /// dimensions or an invalid timing set).
    pub fn new(
        cfg: ControllerConfig,
        defense: Box<dyn RowHammerDefense>,
        location: DefenseLocation,
    ) -> ChannelController {
        assert!(cfg.ranks > 0 && cfg.banks_per_rank > 0, "empty channel");
        assert!(cfg.queue_capacity > 0, "queue capacity must be non-zero");
        let ranks: Vec<DramRank> = (0..cfg.ranks)
            .map(|_| DramRank::new(cfg.rank_config()))
            .collect();
        let (rcd_defense, mc_defense): (Box<dyn RowHammerDefense>, _) = match location {
            DefenseLocation::Rcd => (defense, None),
            DefenseLocation::MemoryController => (Box::new(NoDefense), Some(defense)),
        };
        // Decorrelate the RCD's bus-fault stream from the MC's own
        // (refresh/jitter) stream with per-component salts; the channel's
        // bank base keeps multi-channel systems decorrelated too.
        let rcd = Rcd::new(ranks, rcd_defense, cfg.bank_base)
            .with_fault_plan(&cfg.fault_plan, 0x5ECD ^ u64::from(cfg.bank_base));
        let injector = cfg.fault_plan.injector(0x3C01 ^ u64::from(cfg.bank_base));
        let total_banks = usize::from(cfg.ranks) * usize::from(cfg.banks_per_rank);
        // Stagger per-bank refreshes evenly over one tREFI.
        let next_ref = (0..total_banks)
            .map(|i| Time::ZERO + cfg.timings.t_refi / total_banks as u64 * i as u64)
            .collect();
        let mut c = ChannelController {
            scheduler: make_scheduler(cfg.scheduler),
            rcd,
            mc_defense,
            queue: Vec::with_capacity(cfg.queue_capacity),
            queue_keys: Vec::with_capacity(cfg.queue_capacity),
            next_id: 0,
            now: Time::ZERO,
            next_ref,
            min_next_ref: Time::ZERO,
            hits_served: vec![0; total_banks],
            defense_stats: DefenseStats::new(),
            mc_detections: Vec::new(),
            metadata_acts: 0,
            served: 0,
            latency: LatencyHistogram::new(),
            injector,
            fallback: None,
            fallback_until: Time::ZERO,
            last_corruption_events: 0,
            fallback_windows: 0,
            cfg,
        };
        c.recompute_min_next_ref();
        c
    }

    /// Builds an unprotected controller.
    pub fn without_defense(cfg: ControllerConfig) -> ChannelController {
        ChannelController::new(cfg, Box::new(NoDefense), DefenseLocation::Rcd)
    }

    /// Installs an MC-side fallback defense (typically PARA) for graceful
    /// degradation: while the RCD-resident defense reports counter
    /// corruption, ACTs are *also* fed through the fallback until the
    /// scrub has had a full refresh interval to complete. The channel
    /// stays probabilistically protected even while the deterministic
    /// counters are untrustworthy.
    #[must_use]
    pub fn with_fallback_defense(mut self, d: Box<dyn RowHammerDefense>) -> ChannelController {
        self.fallback = Some(d);
        self
    }

    #[inline]
    fn flat_bank(&self, rank: usize, bank: u16) -> usize {
        rank * usize::from(self.cfg.banks_per_rank) + usize::from(bank)
    }

    /// `(flat bank << 32) | row`: equal keys name the same row of the
    /// same bank.
    #[inline]
    fn row_key(&self, access: &DecodedAccess) -> u64 {
        let fb = self.flat_bank(usize::from(access.rank.0), access.bank);
        (fb as u64) << 32 | u64::from(access.row.0)
    }

    #[inline]
    fn global_bank(&self, rank: usize, bank: u16) -> BankId {
        BankId(
            self.cfg.bank_base + rank as u32 * u32::from(self.cfg.banks_per_rank) + u32::from(bank),
        )
    }

    /// Whether the queue has room for another request.
    #[inline]
    pub fn has_capacity(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    /// Enqueues a request with its decoded coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (check [`has_capacity`]) or the
    /// coordinate is out of range for this channel.
    ///
    /// [`has_capacity`]: Self::has_capacity
    pub fn submit(&mut self, req: MemRequest, access: DecodedAccess) {
        assert!(self.has_capacity(), "request queue overflow");
        assert!(
            self.in_range(&access),
            "decoded access out of range for this channel"
        );
        // Stamp the request with its true enqueue time so latency can be
        // measured queue-to-completion.
        let mut req = req;
        req.arrival = self.now;
        self.queue_keys.push(self.row_key(&access));
        self.queue.push(QueuedRequest {
            id: self.next_id,
            req,
            access,
        });
        self.next_id += 1;
        twice_obs::bump(twice_obs::Ctr::MemctrlRequests);
        twice_obs::record(
            twice_obs::HistId::MemctrlQueueDepth,
            self.queue.len() as u64,
        );
    }

    /// Whether `access` names a rank, bank and row of this channel.
    fn in_range(&self, access: &DecodedAccess) -> bool {
        u8::from(access.rank) < self.cfg.ranks
            && access.bank < self.cfg.banks_per_rank
            && access.row.0 < self.cfg.rows_per_bank
    }

    /// Runs the controller over a request trace, keeping the queue as
    /// full as the trace allows, until both the trace and the queue are
    /// drained.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] if a command's nack-retry
    /// budget runs out (only possible under fault injection; the real
    /// protocol's nacks always converge).
    pub fn run<I>(&mut self, trace: I) -> Result<(), ControllerError>
    where
        I: IntoIterator<Item = (MemRequest, DecodedAccess)>,
    {
        let mut trace = trace.into_iter();
        let mut pending: Option<(MemRequest, DecodedAccess)> = None;
        loop {
            // Refill.
            while self.has_capacity() {
                match pending.take().or_else(|| trace.next()) {
                    Some((req, access)) => self.submit(req, access),
                    None => break,
                }
            }
            if self.queue.is_empty() {
                match trace.next() {
                    Some(item) => {
                        pending = Some(item);
                        continue;
                    }
                    None => break,
                }
            }
            self.service_one()?;
        }
        Ok(())
    }

    /// Services queued requests until the queue is empty, under one
    /// `memctrl.drain` timing span.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] if a command's nack-retry
    /// budget runs out (only possible under fault injection).
    pub fn drain(&mut self) -> Result<(), ControllerError> {
        let _drain_span = twice_obs::span(twice_obs::SpanId::MemctrlDrain);
        while self.service_one()? {}
        Ok(())
    }

    /// Services exactly one queued request (plus any refreshes that came
    /// due). Returns `false` if the queue was empty.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] if a command's nack-retry
    /// budget runs out (only possible under fault injection).
    pub fn service_one(&mut self) -> Result<bool, ControllerError> {
        self.service_due_refreshes()?;
        self.poll_corruption();
        let pick = {
            let queue = &self.queue;
            let rcd = &self.rcd;
            let open = |rank: twice_common::RankId, bank: u16| {
                rcd.ranks()[usize::from(rank.0)].open_row(bank)
            };
            self.scheduler.pick(queue, &open)
        };
        let Some(idx) = pick else { return Ok(false) };
        let q = self.queue[idx];
        let rank = usize::from(q.access.rank.0);
        let bank = q.access.bank;
        // Open the right row.
        match self.rcd.ranks()[rank].open_row(bank) {
            Some(r) if r == q.access.row => {}
            Some(_) => {
                self.issue(rank, DramCommand::Precharge { bank })?;
                self.activate(rank, bank, q.access.row)?;
            }
            None => self.activate(rank, bank, q.access.row)?,
        }
        // Column access.
        let col_cmd = match q.req.kind {
            AccessKind::Read => DramCommand::Read {
                bank,
                col: q.access.col,
            },
            AccessKind::Write => DramCommand::Write {
                bank,
                col: q.access.col,
            },
        };
        self.issue(rank, col_cmd)?;
        if self.cfg.move_data {
            let offset = usize::from(q.access.col.0) * 64;
            match q.req.kind {
                AccessKind::Write => {
                    // Deterministic payload derived from the address, so
                    // integrity checks can recompute expectations.
                    let mut line = [0u8; 64];
                    for (i, chunk) in line.chunks_mut(8).enumerate() {
                        let v = q.req.addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 56;
                        chunk.copy_from_slice(&v.to_le_bytes());
                    }
                    self.rcd
                        .rank_mut(rank)
                        .write_data(bank, q.access.row, offset, &line);
                }
                AccessKind::Read => {
                    let _ = self
                        .rcd
                        .rank_mut(rank)
                        .read_data(bank, q.access.row, offset, 64);
                }
            }
        }
        let fb = self.flat_bank(rank, bank);
        self.hits_served[fb] += 1;
        // Page policy.
        if self
            .cfg
            .page_policy
            .close_after_access(self.hits_served[fb], self.queued_hits(idx))
        {
            self.issue(rank, DramCommand::Precharge { bank })?;
        }
        self.queue.swap_remove(idx);
        self.queue_keys.swap_remove(idx);
        self.scheduler.on_complete(q.id);
        self.served += 1;
        self.latency
            .record(self.now.saturating_since(q.req.arrival));
        Ok(true)
    }

    /// The other queued requests that need the row queue slot `idx`
    /// needs: the page policy's `queued_hits`. Ids are unique, so the
    /// slot matches its own key exactly once.
    fn queued_hits(&self, idx: usize) -> usize {
        let key = self.queue_keys[idx];
        self.queue_keys.iter().filter(|&&k| k == key).count() - 1
    }

    /// Issues any per-bank refreshes that are due at the current time.
    ///
    /// A backlog deeper than the eight REFs JEDEC allows a controller to
    /// postpone (it can build up behind a defense-induced refresh storm)
    /// is retired as *coalesced* bookkeeping-only refreshes — the rows
    /// are still refreshed in the fault model and the defense still
    /// prunes, but the burst does not serialize through the command-bus
    /// timing model.
    fn service_due_refreshes(&mut self) -> Result<(), ControllerError> {
        if self.now < self.min_next_ref {
            return Ok(());
        }
        let result = match self.cfg.refresh_mode {
            RefreshMode::PerBank => self.service_per_bank_refreshes(),
            RefreshMode::AllBank => self.service_all_bank_refreshes(),
        };
        // A postponed REF (chaos injection) leaves its slot due, so the
        // recomputed minimum stays ≤ now and the next call rescans —
        // preserving the exact injector draw sequence of the uncached
        // scan, which only consulted the injector for *due* slots.
        self.recompute_min_next_ref();
        result
    }

    fn recompute_min_next_ref(&mut self) {
        self.min_next_ref = match self.cfg.refresh_mode {
            RefreshMode::PerBank => self.next_ref.iter().copied().min(),
            RefreshMode::AllBank => (0..usize::from(self.cfg.ranks))
                .map(|r| self.next_ref[self.flat_bank(r, 0)])
                .min(),
        }
        .expect("channel has at least one bank");
    }

    fn service_per_bank_refreshes(&mut self) -> Result<(), ControllerError> {
        const MAX_POSTPONED: u64 = 8;
        let t_refi = self.cfg.timings.t_refi;
        for rank in 0..usize::from(self.cfg.ranks) {
            for bank in 0..self.cfg.banks_per_rank {
                let fb = self.flat_bank(rank, bank);
                while self.next_ref[fb] <= self.now {
                    let gbank = self.global_bank(rank, bank);
                    let now = self.now;
                    let backlog = self.now.saturating_since(self.next_ref[fb]) / t_refi;
                    // Chaos: the scheduler postpones this REF by one
                    // round. The obligation stays due, so pressure builds
                    // toward the JEDEC cap and the coalescing path below.
                    if backlog <= MAX_POSTPONED && self.injector.fire(FaultKind::RefreshPostpone) {
                        break;
                    }
                    if backlog > MAX_POSTPONED {
                        self.rcd.force_refresh(rank, bank, now);
                    } else {
                        if self.rcd.ranks()[rank].open_row(bank).is_some() {
                            self.issue(rank, DramCommand::Precharge { bank })?;
                        }
                        self.issue(rank, DramCommand::Refresh { bank })?;
                    }
                    let refresh_resp = self
                        .mc_defense
                        .as_mut()
                        .map(|d| d.on_auto_refresh(gbank, now));
                    if let Some(resp) = refresh_resp {
                        self.apply_mc_refresh_response(rank, bank, resp);
                    }
                    self.next_ref[fb] += t_refi;
                }
            }
        }
        Ok(())
    }

    /// All-bank mode: one REFab per rank per `tREFI`, tracked in the
    /// rank's bank-0 slot; a deep backlog degrades to bookkeeping
    /// refreshes exactly like the per-bank path.
    fn service_all_bank_refreshes(&mut self) -> Result<(), ControllerError> {
        const MAX_POSTPONED: u64 = 8;
        let t_refi = self.cfg.timings.t_refi;
        for rank in 0..usize::from(self.cfg.ranks) {
            let slot = self.flat_bank(rank, 0);
            while self.next_ref[slot] <= self.now {
                let now = self.now;
                let backlog = self.now.saturating_since(self.next_ref[slot]) / t_refi;
                // Chaos: this REFab round is postponed (see the per-bank
                // path for the bounding argument).
                if backlog <= MAX_POSTPONED && self.injector.fire(FaultKind::RefreshPostpone) {
                    break;
                }
                if backlog > MAX_POSTPONED {
                    for bank in 0..self.cfg.banks_per_rank {
                        self.rcd.force_refresh(rank, bank, now);
                    }
                } else {
                    // Close every open row, then REFab with retry.
                    for bank in 0..self.cfg.banks_per_rank {
                        if self.rcd.ranks()[rank].open_row(bank).is_some() {
                            self.issue(rank, DramCommand::Precharge { bank })?;
                        }
                    }
                    let mut guard = 0u32;
                    loop {
                        match self.rcd.refresh_all(rank, self.now) {
                            Ok(()) => {
                                self.now += self.cfg.timings.clock;
                                break;
                            }
                            Err(DramError::Timing(v)) => {
                                debug_assert!(v.ready_at > self.now);
                                twice_obs::bump(twice_obs::Ctr::DramRefreshStalls);
                                self.now = v.ready_at;
                            }
                            Err(e) => panic!("REFab failed: {e}"),
                        }
                        guard += 1;
                        assert!(guard < 1_000, "REFab retry livelock");
                    }
                }
                let now = self.now;
                if self.mc_defense.is_some() {
                    for bank in 0..self.cfg.banks_per_rank {
                        let gbank = self.global_bank(rank, bank);
                        let resp = self
                            .mc_defense
                            .as_mut()
                            .expect("checked above")
                            .on_auto_refresh(gbank, now);
                        self.apply_mc_refresh_response(rank, bank, resp);
                    }
                }
                self.next_ref[slot] += t_refi;
            }
        }
        Ok(())
    }

    /// Issues an ACT and drives the MC-side defense hook (and, while a
    /// corruption fallback window is open, the fallback defense).
    fn activate(&mut self, rank: usize, bank: u16, row: RowId) -> Result<(), ControllerError> {
        self.issue(rank, DramCommand::Activate { bank, row })?;
        let fb = self.flat_bank(rank, bank);
        self.hits_served[fb] = 0;
        if self.mc_defense.is_some() {
            let gbank = self.global_bank(rank, bank);
            let now = self.now;
            let response = self
                .mc_defense
                .as_mut()
                .expect("checked above")
                .on_activate(gbank, row, now);
            self.apply_mc_response(rank, bank, response);
        }
        if self.fallback.is_some() && self.now < self.fallback_until {
            let gbank = self.global_bank(rank, bank);
            let now = self.now;
            let response = self
                .fallback
                .as_mut()
                .expect("checked above")
                .on_activate(gbank, row, now);
            self.apply_mc_response(rank, bank, response);
        }
        Ok(())
    }

    /// Polls the RCD defense's corruption counter and opens (or extends)
    /// a fallback window when it has risen: the deterministic counters
    /// just proved untrustworthy, so the probabilistic fallback covers
    /// the channel until the scrub has had a full refresh interval to
    /// complete.
    fn poll_corruption(&mut self) {
        let events = self.rcd.defense().corruption_events();
        if events > self.last_corruption_events {
            self.last_corruption_events = events;
            if self.fallback.is_some() {
                if self.now >= self.fallback_until {
                    self.fallback_windows += 1;
                }
                let until = self.now + self.cfg.timings.t_refi * 2;
                self.fallback_until = self.fallback_until.max(until);
            }
        }
    }

    /// Carries out an MC-side defense's *refresh-window* response. Per the
    /// [`RowHammerDefense::on_auto_refresh`] contract, rows named in
    /// `arr` / `refresh_rows` are corrupted aggressors: each is expanded
    /// to its logical neighbors before refreshing.
    fn apply_mc_refresh_response(&mut self, rank: usize, bank: u16, response: DefenseResponse) {
        if response.is_none() {
            return;
        }
        let mut expanded = DefenseResponse {
            detection: response.detection,
            ..DefenseResponse::none()
        };
        for aggressor in response.arr.into_iter().chain(response.refresh_rows) {
            expanded
                .refresh_rows
                .extend(self.rcd.ranks()[rank].logical_neighbors(bank, aggressor));
        }
        self.apply_mc_response(rank, bank, expanded);
    }

    /// Carries out an MC-side defense response.
    fn apply_mc_response(&mut self, rank: usize, bank: u16, response: DefenseResponse) {
        if response.is_none() {
            self.defense_stats.record(&response, 0);
            return;
        }
        // An MC-resident defense only knows logical adjacency (§3.4).
        let logical = response
            .arr
            .map(|aggressor| self.rcd.ranks()[rank].logical_neighbors(bank, aggressor))
            .unwrap_or_default();
        self.defense_stats.record(&response, logical.len() as u32);
        let rows = response.refresh_rows.into_iter().chain(logical);
        let refreshed = self
            .rcd
            .rank_mut(rank)
            .refresh_rows_explicit(bank, rows, self.now)
            .expect("bank index verified at submit");
        // Each defense refresh occupies the bank for one row cycle; the
        // metadata accesses (CRA counter fetches) cost one more each.
        let stall = u64::from(refreshed) + u64::from(response.metadata_acts);
        self.now += self.cfg.timings.t_rc * stall;
        self.metadata_acts += u64::from(response.metadata_acts);
        if let Some(d) = response.detection {
            self.mc_detections.push(d);
        }
    }

    /// Issues `cmd`, retrying on timing rejections and RCD nacks;
    /// advances the controller clock accordingly.
    ///
    /// Timing rejections self-clock (the device reports a strictly later
    /// ready instant) and are retried without limit. Nacks are retried
    /// under the configured [`RetryPolicy`] — attempt budget, exponential
    /// backoff, starvation watchdog — because an injected spurious nack
    /// carries no progress guarantee; exhausting the budget surfaces
    /// [`ControllerError::RetryExhausted`] instead of livelocking.
    ///
    /// # Errors
    ///
    /// [`ControllerError::RetryExhausted`] when the nack-retry budget or
    /// the watchdog is exhausted.
    fn issue(&mut self, rank: usize, cmd: DramCommand) -> Result<RcdOutcome, ControllerError> {
        // Chaos: command-bus jitter delays the command before it reaches
        // the RCD.
        if self.injector.fire(FaultKind::TimingJitter) {
            self.now += self.cfg.timings.clock * (1 + self.injector.draw(4));
        }
        let mut retry = RetryState::begin(self.now);
        let mut guard = 0u32;
        loop {
            match self.rcd.issue(rank, cmd, self.now) {
                Ok(RcdOutcome::Nack { retry_at, .. }) => {
                    debug_assert!(retry_at > self.now);
                    twice_obs::bump(twice_obs::Ctr::MemctrlCmdRetries);
                    self.now = retry.on_nack(&self.cfg.retry, cmd, retry_at, self.now)?;
                }
                Ok(outcome) => {
                    // One command-bus slot per issued command.
                    self.now += self.cfg.timings.clock;
                    return Ok(outcome);
                }
                Err(DramError::Timing(v)) => {
                    debug_assert!(v.ready_at > self.now, "{v}");
                    if matches!(cmd, DramCommand::Refresh { .. }) {
                        twice_obs::bump(twice_obs::Ctr::DramRefreshStalls);
                    }
                    self.now = v.ready_at;
                }
                Err(e) => panic!("controller issued an illegal command {cmd}: {e}"),
            }
            guard += 1;
            assert!(guard < 1_000_000, "issue retry livelock for {cmd}");
        }
    }

    // ------------------------------------------------------------------
    // Introspection for experiments.
    // ------------------------------------------------------------------

    /// The current controller clock.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Corruption events reported by the RCD-resident defense so far.
    #[inline]
    pub fn corruption_events(&self) -> u64 {
        self.rcd.defense().corruption_events()
    }

    /// Faults the RCD-resident defense's own injector has landed in its
    /// internal state (counter-SRAM SEUs).
    #[inline]
    pub fn defense_faults_injected(&self) -> u64 {
        self.rcd.defense().faults_injected()
    }

    /// Whether the corruption fallback window is currently open.
    #[inline]
    pub fn fallback_active(&self) -> bool {
        self.fallback.is_some() && self.now < self.fallback_until
    }

    /// Distinct corruption fallback windows opened so far.
    #[inline]
    pub fn fallback_windows(&self) -> u64 {
        self.fallback_windows
    }

    /// The MC's own fault-injection stream (refresh postponement and
    /// bus jitter opportunities/injections).
    #[inline]
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Requests fully serviced.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Normal (MC-issued) row activations across the channel's ranks.
    pub fn normal_acts(&self) -> u64 {
        self.rank_stats().map(|s| s.acts).sum()
    }

    /// Additional row activations caused by the defense: ARR victim
    /// refreshes, explicit defense refreshes, and metadata traffic.
    pub fn additional_acts(&self) -> u64 {
        let device: u64 = self
            .rank_stats()
            .map(|s| s.arr_victim_acts + s.explicit_refresh_acts)
            .sum();
        device + self.metadata_acts
    }

    /// Figure 7's metric: additional ACTs relative to normal ACTs.
    pub fn additional_act_ratio(&self) -> f64 {
        let normal = self.normal_acts();
        if normal == 0 {
            0.0
        } else {
            self.additional_acts() as f64 / normal as f64
        }
    }

    /// Per-rank DRAM statistics.
    pub fn rank_stats(&self) -> impl Iterator<Item = &DramStats> + '_ {
        self.rcd.ranks().iter().map(|r| r.stats())
    }

    /// Total DRAM energy (pJ).
    pub fn energy_pj(&self, model: &DramEnergyModel) -> u64 {
        self.rcd.ranks().iter().map(|r| r.energy_pj(model)).sum()
    }

    /// Attack detections (RCD-side and MC-side).
    pub fn detections(&self) -> Vec<Detection> {
        let mut out = self.rcd.detections().to_vec();
        out.extend_from_slice(&self.mc_detections);
        out
    }

    /// Row-hammer bit flips recorded by the fault model, across ranks.
    pub fn bit_flip_count(&self) -> usize {
        self.rcd.ranks().iter().map(|r| r.bit_flip_count()).sum()
    }

    /// Highest disturbance any row behind this channel ever reached
    /// (monotone; survives refreshes).
    pub fn peak_disturbance(&self) -> u64 {
        self.rcd
            .ranks()
            .iter()
            .map(|r| r.peak_disturbance())
            .max()
            .unwrap_or(0)
    }

    /// Combined pressure reading from every defense watching this
    /// channel (RCD-resident, MC-resident, and the engaged fallback):
    /// triggers add, near-miss takes the hottest.
    pub fn defense_pressure(&self) -> twice_common::DefensePressure {
        let mut p = self.rcd.defense().pressure();
        if let Some(d) = &self.mc_defense {
            p = p.merge(d.pressure());
        }
        if let Some(d) = &self.fallback {
            p = p.merge(d.pressure());
        }
        p
    }

    /// Commands nacked by the RCD.
    pub fn nacks(&self) -> u64 {
        self.rcd.nacks()
    }

    /// Defense stats accumulated for an MC-side defense (empty for RCD
    /// placement; use the device stats instead).
    pub fn mc_defense_stats(&self) -> DefenseStats {
        self.defense_stats
    }

    /// Queue-to-completion request latencies.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Mutable access to the RCD (for fault-model inspection in tests).
    pub fn rcd_mut(&mut self) -> &mut Rcd {
        &mut self.rcd
    }

    /// The RCD.
    pub fn rcd(&self) -> &Rcd {
        &self.rcd
    }
}

fn save_queued(w: &mut SnapshotWriter, q: &QueuedRequest) {
    w.put_u64(q.id);
    w.put_u64(q.req.addr);
    w.put_bool(q.req.kind == AccessKind::Write);
    w.put_u32(u32::from(q.req.source));
    w.put_u64(q.req.arrival.as_ps());
    w.put_u8(q.access.channel.0);
    w.put_u8(q.access.rank.0);
    w.put_u32(u32::from(q.access.bank));
    w.put_u32(q.access.row.0);
    w.put_u32(u32::from(q.access.col.0));
}

fn load_queued(r: &mut SnapshotReader<'_>) -> Result<QueuedRequest, SnapshotError> {
    let id = r.take_u64()?;
    let addr = r.take_u64()?;
    let kind = if r.take_bool()? {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    let source = r.take_u32()? as u16;
    let arrival = Time::from_ps(r.take_u64()?);
    let channel = ChannelId(r.take_u8()?);
    let rank = RankId(r.take_u8()?);
    let bank = r.take_u32()? as u16;
    let row = RowId(r.take_u32()?);
    let col = ColId(r.take_u32()? as u16);
    Ok(QueuedRequest {
        id,
        req: MemRequest {
            addr,
            kind,
            source,
            arrival,
        },
        access: DecodedAccess {
            channel,
            rank,
            bank,
            row,
            col,
        },
    })
}

impl Snapshot for ChannelController {
    fn save_state(&self, w: &mut SnapshotWriter) {
        // The RCD blob carries the ranks (banks, fault model, data,
        // stats), the RCD-resident defense, and the ARR/nack state.
        self.rcd.save_state(w);
        w.put_bool(self.mc_defense.is_some());
        if let Some(d) = &self.mc_defense {
            d.save_state(w);
        }
        w.put_bool(self.fallback.is_some());
        if let Some(d) = &self.fallback {
            d.save_state(w);
        }
        self.scheduler.save_state(w);
        // Queue order is behavioral: pick() returns indices and the
        // controller swap_removes, so entries are saved verbatim.
        w.put_usize(self.queue.len());
        for q in &self.queue {
            save_queued(w, q);
        }
        w.put_u64(self.next_id);
        w.put_u64(self.now.as_ps());
        w.put_usize(self.next_ref.len());
        for t in &self.next_ref {
            w.put_u64(t.as_ps());
        }
        for &h in &self.hits_served {
            w.put_u32(h);
        }
        self.defense_stats.save_state(w);
        w.put_usize(self.mc_detections.len());
        for d in &self.mc_detections {
            w.put_u32(d.bank.0);
            w.put_u32(d.row.0);
            w.put_u64(d.at.as_ps());
            w.put_u64(d.act_count);
        }
        w.put_u64(self.metadata_acts);
        w.put_u64(self.served);
        self.latency.save_state(w);
        self.injector.save_state(w);
        w.put_u64(self.fallback_until.as_ps());
        w.put_u64(self.last_corruption_events);
        w.put_u64(self.fallback_windows);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rcd.load_state(r)?;
        let has_mc_defense = r.take_bool()?;
        if has_mc_defense != self.mc_defense.is_some() {
            return Err(SnapshotError::StateMismatch(format!(
                "snapshot {} an MC-side defense, controller {}",
                if has_mc_defense { "has" } else { "lacks" },
                if self.mc_defense.is_some() {
                    "has one"
                } else {
                    "lacks one"
                },
            )));
        }
        if let Some(d) = &mut self.mc_defense {
            d.load_state(r)?;
        }
        let has_fallback = r.take_bool()?;
        if has_fallback != self.fallback.is_some() {
            return Err(SnapshotError::StateMismatch(format!(
                "snapshot {} a fallback defense, controller {}",
                if has_fallback { "has" } else { "lacks" },
                if self.fallback.is_some() {
                    "has one"
                } else {
                    "lacks one"
                },
            )));
        }
        if let Some(d) = &mut self.fallback {
            d.load_state(r)?;
        }
        self.scheduler.load_state(r)?;
        let queued = r.take_usize()?;
        if queued > self.cfg.queue_capacity {
            return Err(SnapshotError::StateMismatch(format!(
                "snapshot queue of {queued} exceeds capacity {}",
                self.cfg.queue_capacity
            )));
        }
        // A restored entry passes the checks `submit` makes, and its id
        // is unique and already issued, so no later arrival repeats it:
        // `queued_hits` and PAR-BS's slot search both rely on unique ids.
        self.queue.clear();
        self.queue_keys.clear();
        for _ in 0..queued {
            let q = load_queued(r)?;
            if !self.in_range(&q.access) {
                return Err(SnapshotError::StateMismatch(format!(
                    "queued request {} is out of range for this channel",
                    q.id
                )));
            }
            if self.queue.iter().any(|o| o.id == q.id) {
                return Err(SnapshotError::StateMismatch(format!(
                    "queued request id {} appears twice",
                    q.id
                )));
            }
            self.queue_keys.push(self.row_key(&q.access));
            self.queue.push(q);
        }
        self.next_id = r.take_u64()?;
        if let Some(q) = self.queue.iter().find(|q| q.id >= self.next_id) {
            return Err(SnapshotError::StateMismatch(format!(
                "queued request id {} is not below the next id {}",
                q.id, self.next_id
            )));
        }
        self.now = Time::from_ps(r.take_u64()?);
        let banks = r.take_usize()?;
        if banks != self.next_ref.len() {
            return Err(SnapshotError::StateMismatch(format!(
                "controller has {} banks, snapshot has {banks}",
                self.next_ref.len()
            )));
        }
        for slot in &mut self.next_ref {
            *slot = Time::from_ps(r.take_u64()?);
        }
        for slot in &mut self.hits_served {
            *slot = r.take_u32()?;
        }
        self.defense_stats.load_state(r)?;
        let detections = r.take_usize()?;
        self.mc_detections.clear();
        for _ in 0..detections {
            let bank = BankId(r.take_u32()?);
            let row = RowId(r.take_u32()?);
            let at = Time::from_ps(r.take_u64()?);
            let act_count = r.take_u64()?;
            self.mc_detections.push(Detection {
                bank,
                row,
                at,
                act_count,
            });
        }
        self.metadata_acts = r.take_u64()?;
        self.served = r.take_u64()?;
        self.latency.load_state(r)?;
        self.injector.load_state(r)?;
        self.fallback_until = Time::from_ps(r.take_u64()?);
        self.last_corruption_events = r.take_u64()?;
        self.fallback_windows = r.take_u64()?;
        self.recompute_min_next_ref();
        Ok(())
    }

    fn digest_state(&self, d: &mut StateDigest) {
        self.rcd.digest_state(d);
        if let Some(def) = &self.mc_defense {
            def.digest_state(d);
        }
        if let Some(def) = &self.fallback {
            def.digest_state(d);
        }
        self.scheduler.digest_state(d);
        d.write_usize(self.queue.len());
        for q in &self.queue {
            d.write_u64(q.id);
            d.write_u64(q.req.addr);
            d.write_bool(q.req.kind == AccessKind::Write);
            d.write_u16(q.req.source);
            d.write_u64(q.req.arrival.as_ps());
            d.write_u8(q.access.channel.0);
            d.write_u8(q.access.rank.0);
            d.write_u16(q.access.bank);
            d.write_u32(q.access.row.0);
            d.write_u16(q.access.col.0);
        }
        d.write_u64(self.next_id);
        d.write_u64(self.now.as_ps());
        for t in &self.next_ref {
            d.write_u64(t.as_ps());
        }
        for &h in &self.hits_served {
            d.write_u32(h);
        }
        self.defense_stats.digest_state(d);
        d.write_usize(self.mc_detections.len());
        for det in &self.mc_detections {
            d.write_u32(det.bank.0);
            d.write_u32(det.row.0);
            d.write_u64(det.at.as_ps());
            d.write_u64(det.act_count);
        }
        d.write_u64(self.metadata_acts);
        d.write_u64(self.served);
        self.latency.digest_state(d);
        self.injector.digest_state(d);
        d.write_u64(self.fallback_until.as_ps());
        d.write_u64(self.last_corruption_events);
        d.write_u64(self.fallback_windows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::AddressMapper;
    use twice_common::{ChannelId, ColId, RankId, Topology};

    fn small_topo() -> Topology {
        Topology {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 2,
            rows_per_bank: 64,
            cols_per_row: 128,
            row_bytes: 8_192,
            devices_per_rank: 8,
        }
    }

    fn controller() -> ChannelController {
        ChannelController::without_defense(ControllerConfig::for_test(64))
    }

    fn req(mapper: &AddressMapper, bank: u16, row: u32, col: u16) -> (MemRequest, DecodedAccess) {
        let access = DecodedAccess {
            channel: ChannelId(0),
            rank: RankId(0),
            bank,
            row: RowId(row),
            col: ColId(col),
        };
        let addr = mapper.encode(access.channel, access.rank, bank, access.row, access.col);
        (MemRequest::read(addr, 0, Time::ZERO), access)
    }

    #[test]
    fn serves_a_simple_trace() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut c = controller();
        let trace: Vec<_> = (0..100u32).map(|i| req(&mapper, 0, i % 8, 0)).collect();
        c.run(trace).expect("fault-free run");
        assert_eq!(c.served(), 100);
        assert!(c.normal_acts() > 0);
        assert_eq!(c.additional_acts(), 0, "no defense, no extra ACTs");
        assert_eq!(c.bit_flip_count(), 0);
    }

    #[test]
    fn row_hits_reuse_open_row() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut c = controller();
        // 4 hits to the same row: minimalist-open serves them on one ACT.
        let trace: Vec<_> = (0..4u16).map(|col| req(&mapper, 0, 5, col)).collect();
        c.run(trace).expect("fault-free run");
        assert_eq!(c.served(), 4);
        assert_eq!(c.normal_acts(), 1, "one ACT for four hits");
    }

    #[test]
    fn minimalist_open_recloses_after_hit_budget() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut c = controller();
        // 8 hits: budget of 4 per activation -> 2 ACTs.
        let trace: Vec<_> = (0..8u16).map(|col| req(&mapper, 0, 5, col)).collect();
        c.run(trace).expect("fault-free run");
        assert_eq!(c.normal_acts(), 2);
    }

    #[test]
    fn refreshes_are_issued_on_schedule() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut c = controller();
        // Run enough conflicting traffic to pass several tREFI (7.8125us):
        // each row miss costs ~45ns, so ~1000 requests ~ 45us ~ 5 tREFI.
        let trace: Vec<_> = (0..1000u32).map(|i| req(&mapper, 0, i % 64, 0)).collect();
        c.run(trace).expect("fault-free run");
        let refs: u64 = c.rank_stats().map(|s| s.refreshes).sum();
        let expected = c.now().as_ps() / c.config().timings.t_refi.as_ps() * 2; // 2 banks
        assert!(refs > 0, "refreshes must be issued");
        assert!(
            refs >= expected.saturating_sub(2) && refs <= expected + 2,
            "got {refs}, expected about {expected}"
        );
    }

    #[test]
    fn unprotected_hammer_produces_bit_flips() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut c = controller(); // n_th = 100
                                  // Alternate two conflicting rows in one bank: every access is a
                                  // row miss, hammering both rows' neighbors.
                                  // FR-FCFS coalesces up to 4 queued hits per ACT, so 2000 requests
                                  // still yield ~250 ACTs per row, past N_th = 100.
        let trace: Vec<_> = (0..2000u32)
            .map(|i| req(&mapper, 0, 8 + (i % 2) * 4, 0))
            .collect();
        c.run(trace).expect("fault-free run");
        assert!(c.bit_flip_count() > 0, "N_th=100 must be exceeded");
    }

    #[test]
    fn queue_capacity_is_respected() {
        let mut c = controller();
        let mapper = AddressMapper::row_interleaved(&small_topo());
        for i in 0..c.config().queue_capacity {
            let (r, a) = req(&mapper, 0, (i % 64) as u32, 0);
            c.submit(r, a);
        }
        assert!(!c.has_capacity());
    }

    #[test]
    #[should_panic(expected = "request queue overflow")]
    fn overflow_panics() {
        let mut c = controller();
        let mapper = AddressMapper::row_interleaved(&small_topo());
        for i in 0..=c.config().queue_capacity {
            let (r, a) = req(&mapper, 0, (i % 64) as u32, 0);
            c.submit(r, a);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn submit_validates_coordinates() {
        let mut c = controller();
        let access = DecodedAccess {
            channel: ChannelId(0),
            rank: RankId(0),
            bank: 0,
            row: RowId(64), // out of range
            col: ColId(0),
        };
        c.submit(MemRequest::read(0, 0, Time::ZERO), access);
    }

    #[test]
    fn all_bank_refresh_mode_covers_the_same_schedule() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut cfg = ControllerConfig::for_test(64);
        cfg.refresh_mode = RefreshMode::AllBank;
        let mut c = ChannelController::without_defense(cfg);
        let trace: Vec<_> = (0..1000u32).map(|i| req(&mapper, 0, i % 64, 0)).collect();
        c.run(trace).expect("fault-free run");
        assert_eq!(c.served(), 1000);
        let refs: u64 = c.rank_stats().map(|s| s.refreshes).sum();
        // One REFab per tREFI refreshes both banks: same per-bank REF
        // count as the staggered per-bank schedule (+/- phase).
        let expected = c.now().as_ps() / c.config().timings.t_refi.as_ps() * 2;
        assert!(
            refs + 2 >= expected && refs <= expected + 2,
            "got {refs}, expected about {expected}"
        );
        assert_eq!(c.bit_flip_count(), 0);
    }

    #[test]
    fn all_bank_refresh_still_lets_twice_prune() {
        // TWiCe in the RCD prunes on every bank's refresh hook; the
        // REFab path must fire those hooks too.
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut cfg = ControllerConfig::for_test(64);
        cfg.refresh_mode = RefreshMode::AllBank;
        cfg.n_th = 1_000_000;
        struct Probe {
            prunes: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl RowHammerDefense for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_activate(&mut self, _: BankId, _: RowId, _: Time) -> DefenseResponse {
                DefenseResponse::none()
            }
            fn on_auto_refresh(&mut self, _: BankId, _: Time) -> DefenseResponse {
                self.prunes
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                DefenseResponse::none()
            }
        }
        let prunes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut c = ChannelController::new(
            cfg,
            Box::new(Probe {
                prunes: prunes.clone(),
            }),
            DefenseLocation::Rcd,
        );
        let trace: Vec<_> = (0..500u32).map(|i| req(&mapper, 0, i % 64, 0)).collect();
        c.run(trace).expect("fault-free run");
        let refs: u64 = c.rank_stats().map(|s| s.refreshes).sum();
        assert!(refs > 0);
        assert_eq!(prunes.load(std::sync::atomic::Ordering::Relaxed), refs);
    }

    #[test]
    fn move_data_round_trips_written_lines() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut cfg = ControllerConfig::for_test(64);
        cfg.move_data = true;
        cfg.n_th = 1_000_000; // keep the fault model quiet
        let mut c = ChannelController::without_defense(cfg);
        let (mut req, access) = req(&mapper, 0, 5, 3);
        req.kind = AccessKind::Write;
        let addr = req.addr;
        c.submit(req, access);
        while c.service_one().expect("fault-free run") {}
        // The written line is present in the device's data array and
        // matches the deterministic payload.
        let line = c.rcd().ranks()[0].read_data(0, RowId(5), 3 * 64, 64);
        let expected_first = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes();
        assert_eq!(&line[..8], &expected_first);
        // Integrity: no corruption happened.
        assert!(!c.rcd().ranks()[0].verify_row(0, RowId(5)).is_corrupted());
    }

    /// An MC-side defense that refreshes logical neighbors of every 10th ACT.
    struct Every10;
    impl RowHammerDefense for Every10 {
        fn name(&self) -> &str {
            "every10"
        }
        fn on_activate(&mut self, _: BankId, row: RowId, _: Time) -> DefenseResponse {
            if row.0.is_multiple_of(10) {
                DefenseResponse::arr(row)
            } else {
                DefenseResponse::none()
            }
        }
    }

    fn digest(c: &ChannelController) -> u64 {
        let mut d = StateDigest::new();
        c.digest_state(&mut d);
        d.finish()
    }

    #[test]
    fn snapshot_round_trip_mid_run_resumes_identically() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let make = || {
            ChannelController::new(
                ControllerConfig::for_test(64),
                Box::new(Every10),
                DefenseLocation::MemoryController,
            )
        };
        let mut a = make();
        // Fill the queue and service half the trace, leaving requests
        // queued so the snapshot captures a genuinely mid-flight state.
        for i in 0..40u32 {
            let (req, access) = req(&mapper, (i % 2) as u16, i % 64, (i % 8) as u16);
            if a.has_capacity() {
                a.submit(req, access);
            }
        }
        for _ in 0..20 {
            a.service_one().expect("fault-free run");
        }
        assert!(!a.queue.is_empty(), "snapshot must capture queued work");
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let blob = w.finish();
        let mut b = make();
        b.load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
            .expect("restore");
        assert_eq!(digest(&a), digest(&b), "restore must be exact");
        // Lockstep from here: the restored controller must make the same
        // decisions (scheduler picks, refreshes, defense actions).
        for _ in 0..40 {
            let ra = a.service_one().expect("fault-free run");
            let rb = b.service_one().expect("fault-free run");
            assert_eq!(ra, rb);
        }
        assert_eq!(a.served(), b.served());
        assert_eq!(a.now(), b.now());
        assert_eq!(digest(&a), digest(&b), "divergence after resume");
    }

    #[test]
    fn key_mirror_counts_queued_hits_like_a_rescan() {
        let mut cfg = ControllerConfig::for_test(8);
        cfg.ranks = 2;
        cfg.queue_capacity = 16;
        let make = || ChannelController::without_defense(cfg.clone());
        // Every slot's mirror count against a rescan of the queue; returns
        // the hits seen, so the test cannot pass on a queue without any.
        let check = |c: &ChannelController| -> usize {
            assert_eq!(c.queue_keys.len(), c.queue.len());
            let mut hits = 0;
            for (i, q) in c.queue.iter().enumerate() {
                let rescan = c
                    .queue
                    .iter()
                    .filter(|o| {
                        o.id != q.id
                            && o.access.rank == q.access.rank
                            && o.access.bank == q.access.bank
                            && o.access.row == q.access.row
                    })
                    .count();
                assert_eq!(c.queued_hits(i), rescan, "slot {i} of {:?}", c.queue);
                hits += rescan;
            }
            hits
        };
        let mut rng = twice_common::rng::SplitMix64::new(0x51DE);
        let mut c = make();
        let (mut hits, mut restored) = (0, false);
        for step in 0..3_000 {
            while c.has_capacity() && rng.chance(0.6) {
                let access = DecodedAccess {
                    channel: ChannelId(0),
                    rank: RankId(rng.next_below(2) as u8),
                    bank: rng.next_below(2) as u16,
                    row: RowId(rng.next_below(8) as u32),
                    col: ColId(rng.next_below(128) as u16),
                };
                let source = rng.next_below(4) as u16;
                c.submit(MemRequest::read(0, source, Time::ZERO), access);
            }
            c.service_one().expect("fault-free run");
            hits += check(&c);
            if !restored && step >= 1_500 && c.queue.len() >= 4 {
                let mut w = SnapshotWriter::new();
                c.save_state(&mut w);
                let blob = w.finish();
                let mut b = make();
                b.load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
                    .expect("restore");
                assert_eq!(digest(&b), digest(&c));
                hits += check(&b);
                c = b;
                restored = true;
            }
        }
        assert!(
            restored,
            "the queue never held four requests after step 1,500"
        );
        assert!(hits > 1_000, "only {hits} queued hits seen");
    }

    #[test]
    fn snapshot_rejects_wrong_defense_placement() {
        let mut a = ChannelController::without_defense(ControllerConfig::for_test(64));
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let blob = w.finish();
        let mut b = ChannelController::new(
            ControllerConfig::for_test(64),
            Box::new(Every10),
            DefenseLocation::MemoryController,
        );
        let err = b
            .load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
            .unwrap_err();
        assert!(matches!(err, SnapshotError::StateMismatch(_)), "{err:?}");
        let _ = a.service_one();
    }

    #[test]
    fn snapshot_rejects_queued_requests_submit_would_refuse() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let queued = || {
            let mut c = ChannelController::without_defense(ControllerConfig::for_test(64));
            for i in 0..4u32 {
                let (req, access) = req(&mapper, 0, i, 0);
                c.submit(req, access);
            }
            c
        };
        let restore = |c: &ChannelController| {
            let mut w = SnapshotWriter::new();
            c.save_state(&mut w);
            let blob = w.finish();
            let mut b = ChannelController::without_defense(ControllerConfig::for_test(64));
            b.load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
        };
        restore(&queued()).expect("an untampered blob restores");
        let tampered: [fn(&mut ChannelController); 5] = [
            |c| c.queue[0].access.rank = RankId(7),
            |c| c.queue[1].access.bank = 2,
            |c| c.queue[2].access.row = RowId(64),
            |c| c.queue[3].id = c.queue[0].id,
            |c| c.queue[0].id = c.next_id,
        ];
        for tamper in tampered {
            let mut c = queued();
            tamper(&mut c);
            let err = restore(&c).unwrap_err();
            assert!(matches!(err, SnapshotError::StateMismatch(_)), "{err:?}");
        }
    }

    #[test]
    fn mc_side_defense_refreshes_logical_neighbors() {
        let mapper = AddressMapper::row_interleaved(&small_topo());
        let mut c = ChannelController::new(
            ControllerConfig::for_test(64),
            Box::new(Every10),
            DefenseLocation::MemoryController,
        );
        let trace: Vec<_> = (0..40u32).map(|i| req(&mapper, 0, i, 0)).collect();
        c.run(trace).expect("fault-free run");
        // Rows 0,10,20,30 trigger; row 0 has 1 logical neighbor, others 2.
        assert_eq!(c.additional_acts(), 1 + 2 + 2 + 2);
        let stats = c.mc_defense_stats();
        assert_eq!(stats.arr_issued, 4);
    }
}
