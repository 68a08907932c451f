//! The `defense-hooks` workload: ACT/REF streams fed straight into each
//! defense's `on_activate` / `on_auto_refresh`, with no controller and no
//! DRAM.
//!
//! Set-up derives the streams by running the decoded traces through a
//! copy of the channel controller's service loop ([`derive`]) rather than
//! capturing them through `System`: a `System` replay also runs the
//! hammer model, the stats and the defense, and costs microseconds per
//! ACT. Without a cap the copy issues exactly what `System` issues under
//! `none` (a test pins every channel's ACTs, REFs and final clock). That
//! stream lets a bank take `maxact + 1` ACTs between two REFs: a REF
//! waits `tRC` after the bank's last ACT, but the next one stays on its
//! `tREFI` grid, so one interval stretches. TWiCe's tables are sized for
//! `maxact`, so the benchmark's streams keep the cap: a bank that took
//! `maxact` ACTs since its last REF waits for its next one. Each run
//! replays the same traces through `System` ([`replay_system`]) and
//! prints what that departure changes.

use crate::spans::Recorder;
use std::time::Instant;
use twice::TwiceParams;
use twice_common::snapshot::StateDigest;
use twice_common::{BankId, DdrTimings, DefenseResponse, RankId, RowHammerDefense, RowId, Time};
use twice_dram::bank::Bank;
use twice_dram::rank::RankActWindow;
use twice_dram::DramError;
use twice_memctrl::latency::LatencyHistogram;
use twice_memctrl::pagepolicy::PagePolicy;
use twice_memctrl::scheduler::{make_scheduler, QueuedRequest, Scheduler};
use twice_memctrl::RefreshMode;
use twice_mitigations::{make_defense, DefenseKind};
use twice_obs::Log2Hist;
use twice_sim::{SimConfig, System};
use twice_workloads::TraceItem;

/// One hook call: an ACT of `row`, or a per-bank REF when `row` is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated instant the controller issued the command.
    pub at: Time,
    /// Bank within the channel, as the channel's defense numbers it.
    pub bank: BankId,
    /// The activated row; `None` for a REF.
    pub row: Option<RowId>,
}

/// The commands one channel's controller issues. `System` builds one
/// defense per channel, so each channel feeds a defense of its own.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Seed `System` gives this channel's defense.
    pub seed: u64,
    /// The commands, in issue order.
    pub events: Vec<Event>,
    /// ACT events.
    pub acts: u64,
    /// REF events.
    pub refs: u64,
    /// The channel's clock once its queue drained.
    pub end: Time,
    /// ACTs the `maxact` cap made wait for the bank's next REF.
    pub capped: u64,
}

/// A derived ACT/REF stream and the system it was derived for.
#[derive(Debug, Clone)]
pub struct Stream {
    /// `benign` or `hammer`.
    pub name: &'static str,
    /// Thresholds and timings the defenses are built with.
    pub params: TwiceParams,
    /// Banks per channel: each channel's defense covers these.
    pub banks: u32,
    /// One stream per channel.
    pub channels: Vec<Channel>,
    /// Trace requests the stream was derived from.
    pub requests: u64,
    /// ACT events over every channel.
    pub acts: u64,
}

impl Stream {
    /// Hook calls over every channel.
    pub fn events(&self) -> u64 {
        self.channels.iter().map(|c| c.events.len() as u64).sum()
    }

    /// ACTs the `maxact` cap made wait, over every channel.
    pub fn capped(&self) -> u64 {
        self.channels.iter().map(|c| c.capped).sum()
    }
}

/// Derives the ACT/REF stream `traces`, fed one after another into one
/// `System` on `cfg`, make its controllers issue with no defense. With
/// `cap`, a bank that took `maxact` ACTs since its last REF waits for its
/// next REF before it opens another row. Traces are taken one at a time,
/// so only one is held decoded.
///
/// # Errors
///
/// An error `traces` yields, a configuration the copied loop does not
/// cover (all-bank refresh), or a command the DRAM's timing checks
/// reject as illegal.
pub fn derive(
    name: &'static str,
    cfg: &SimConfig,
    traces: impl IntoIterator<Item = Result<Vec<TraceItem>, String>>,
    cap: bool,
) -> Result<Stream, String> {
    if cfg.refresh_mode != RefreshMode::PerBank {
        return Err("defense-hooks streams cover per-bank refresh only".into());
    }
    let max_act = if cap { cfg.params.max_act() } else { u64::MAX };
    let mut ctrls: Vec<Controller> = (0..cfg.topology.channels)
        .map(|_| Controller::new(cfg, max_act))
        .collect();
    let mut requests = 0u64;
    for trace in traces {
        for item in trace? {
            ctrls[item.1.channel.index()].feed(item)?;
            requests += 1;
        }
    }
    let mut channels = Vec::with_capacity(ctrls.len());
    for (ch, mut c) in ctrls.into_iter().enumerate() {
        while c.service_one()? {}
        channels.push(Channel {
            // As `System::new` seeds each channel's defense.
            seed: cfg.seed ^ ((ch as u64) << 40),
            events: c.events,
            acts: c.acts,
            refs: c.refs,
            end: c.now,
            capped: c.capped,
        });
    }
    Ok(Stream {
        name,
        params: cfg.params.clone(),
        banks: cfg.banks_per_channel(),
        acts: channels.iter().map(|c| c.acts).sum(),
        channels,
        requests,
    })
}

/// A command of the copied loop.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Act(RowId),
    Pre,
    Column,
    Ref,
}

/// One channel's controller as `ChannelController` runs with no defense
/// and no injected faults: the program's own scheduler, page policy and
/// bank and rank timing checks, in the controller's order — refreshes
/// that came due, the scheduler's pick, PRE/ACT as needed, the column
/// access, and a PRE when the page policy closes the row. A rejected
/// command waits until the instant the check names; an issued one takes
/// one bus clock. Left out are the hammer model, the stats and the data
/// path, none of which moves a command. The one addition is the
/// `max_act` cap (off at `u64::MAX`).
struct Controller {
    timings: DdrTimings,
    banks_per_rank: usize,
    capacity: usize,
    policy: PagePolicy,
    scheduler: Box<dyn Scheduler>,
    queue: Vec<QueuedRequest>,
    next_id: u64,
    now: Time,
    next_ref: Vec<Time>,
    min_next_ref: Time,
    banks: Vec<Bank>,
    /// Column accesses served on each bank's open row.
    hits: Vec<u32>,
    windows: Vec<RankActWindow>,
    /// ACTs per bank since its last REF, and the cap on them.
    since_ref: Vec<u64>,
    max_act: u64,
    events: Vec<Event>,
    acts: u64,
    refs: u64,
    capped: u64,
}

impl Controller {
    fn new(cfg: &SimConfig, max_act: u64) -> Controller {
        let timings = cfg.params.timings.clone();
        let ranks = cfg.topology.ranks_per_channel;
        let banks_per_rank = cfg.topology.banks_per_rank;
        let total = usize::from(ranks) * usize::from(banks_per_rank);
        // The controller staggers per-bank refreshes evenly over tREFI.
        let next_ref: Vec<Time> = (0..total)
            .map(|i| Time::ZERO + timings.t_refi / total as u64 * i as u64)
            .collect();
        Controller {
            banks_per_rank: usize::from(banks_per_rank),
            capacity: cfg.queue_capacity,
            policy: cfg.page_policy,
            scheduler: make_scheduler(cfg.scheduler),
            queue: Vec::with_capacity(cfg.queue_capacity),
            next_id: 0,
            now: Time::ZERO,
            min_next_ref: next_ref.iter().copied().min().unwrap_or(Time::ZERO),
            next_ref,
            banks: vec![Bank::new(timings.clone()); total],
            hits: vec![0; total],
            windows: (0..ranks)
                .map(|_| RankActWindow::new(&timings, banks_per_rank))
                .collect(),
            timings,
            since_ref: vec![0; total],
            max_act,
            events: Vec::new(),
            acts: 0,
            refs: 0,
            capped: 0,
        }
    }

    /// `System::feed`: makes room, then enqueues.
    fn feed(&mut self, (mut req, access): TraceItem) -> Result<(), String> {
        while self.queue.len() >= self.capacity {
            self.service_one()?;
        }
        req.arrival = self.now;
        self.queue.push(QueuedRequest {
            id: self.next_id,
            req,
            access,
        });
        self.next_id += 1;
        Ok(())
    }

    fn flat(&self, rank: RankId, bank: u16) -> usize {
        usize::from(rank.0) * self.banks_per_rank + usize::from(bank)
    }

    /// `ChannelController::service_one`.
    fn service_one(&mut self) -> Result<bool, String> {
        if self.now >= self.min_next_ref {
            self.refresh_due()?;
        }
        let pick = {
            let (banks, per_rank) = (&self.banks, self.banks_per_rank);
            let open = |rank: RankId, bank: u16| {
                banks[usize::from(rank.0) * per_rank + usize::from(bank)].open_row()
            };
            self.scheduler.pick(&self.queue, &open)
        };
        let Some(idx) = pick else { return Ok(false) };
        let q = self.queue[idx];
        let fb = self.flat(q.access.rank, q.access.bank);
        match self.banks[fb].open_row() {
            Some(r) if r == q.access.row => {}
            Some(_) => {
                self.issue(fb, Cmd::Pre)?;
                self.activate(fb, q.access.row)?;
            }
            None => self.activate(fb, q.access.row)?,
        }
        self.issue(fb, Cmd::Column)?;
        self.hits[fb] += 1;
        let queued_hits = self
            .queue
            .iter()
            .filter(|o| {
                o.id != q.id
                    && o.access.rank == q.access.rank
                    && o.access.bank == q.access.bank
                    && o.access.row == q.access.row
            })
            .count();
        if self.policy.close_after_access(self.hits[fb], queued_hits) {
            self.issue(fb, Cmd::Pre)?;
        }
        self.queue.swap_remove(idx);
        self.scheduler.on_complete(q.id);
        Ok(true)
    }

    /// Opens `row`; under the cap, first waits for the bank's next REF
    /// (the refresh pass then issues it, with any other that came due).
    fn activate(&mut self, fb: usize, row: RowId) -> Result<(), String> {
        if self.since_ref[fb] >= self.max_act {
            self.now = self.now.max(self.next_ref[fb]);
            self.refresh_due()?;
            self.capped += 1;
        }
        self.issue(fb, Cmd::Act(row))
    }

    /// The per-bank refresh pass, rank by rank and bank by bank. A
    /// backlog over eight REFs is retired without a command, as the
    /// controller's coalesced refresh is; the defense still sees it.
    fn refresh_due(&mut self) -> Result<(), String> {
        const MAX_POSTPONED: u64 = 8;
        let t_refi = self.timings.t_refi;
        for fb in 0..self.banks.len() {
            while self.next_ref[fb] <= self.now {
                let backlog = self.now.saturating_since(self.next_ref[fb]) / t_refi;
                if backlog > MAX_POSTPONED {
                    self.push(fb, None);
                } else {
                    if self.banks[fb].open_row().is_some() {
                        self.issue(fb, Cmd::Pre)?;
                    }
                    self.issue(fb, Cmd::Ref)?;
                }
                self.next_ref[fb] += t_refi;
            }
        }
        self.min_next_ref = self.next_ref.iter().copied().min().unwrap_or(self.now);
        Ok(())
    }

    fn push(&mut self, fb: usize, row: Option<RowId>) {
        self.events.push(Event {
            at: self.now,
            bank: BankId(fb as u32),
            row,
        });
        match row {
            Some(_) => {
                self.acts += 1;
                self.since_ref[fb] += 1;
            }
            None => {
                self.refs += 1;
                self.since_ref[fb] = 0;
            }
        }
    }

    /// `ChannelController::issue`: retries at the instant a timing check
    /// names until the command is legal, then takes one bus clock.
    fn issue(&mut self, fb: usize, cmd: Cmd) -> Result<(), String> {
        let (rank, bank) = (fb / self.banks_per_rank, (fb % self.banks_per_rank) as u16);
        loop {
            let now = self.now;
            let b = &mut self.banks[fb];
            let done = match cmd {
                Cmd::Act(row) => self.windows[rank]
                    .check(bank, now)
                    .map_err(DramError::Timing)
                    .and_then(|()| b.activate(row, now)),
                Cmd::Pre => b.precharge(now),
                Cmd::Column => b.column_access(now).map(drop),
                Cmd::Ref => b.refresh(now),
            };
            match done {
                Ok(()) => {
                    match cmd {
                        Cmd::Act(row) => {
                            self.windows[rank].record(bank, now);
                            self.hits[fb] = 0;
                            self.push(fb, Some(row));
                        }
                        Cmd::Ref => self.push(fb, None),
                        Cmd::Pre | Cmd::Column => {}
                    }
                    self.now = now + self.timings.clock;
                    return Ok(());
                }
                Err(DramError::Timing(v)) => self.now = v.ready_at,
                Err(e) => {
                    return Err(format!(
                        "the copied controller issued an illegal {cmd:?}: {e}"
                    ))
                }
            }
        }
    }
}

/// Set-up's guard: each channel's commands are in time order and no bank
/// takes more than `TwiceParams::max_act()` ACTs between two of its REFs
/// (nor before its first one). TWiCe's pruning proof rests on that bound.
///
/// # Errors
///
/// The first violation found.
pub fn guard(stream: &Stream) -> Result<(), String> {
    let max_act = stream.params.max_act();
    for (ch, c) in stream.channels.iter().enumerate() {
        let mut since_ref = vec![0u64; stream.banks as usize];
        let mut last = Time::ZERO;
        for (i, e) in c.events.iter().enumerate() {
            if e.at < last {
                return Err(format!(
                    "{} stream: channel {ch} event {i} goes back in time",
                    stream.name
                ));
            }
            last = e.at;
            let n = &mut since_ref[e.bank.0 as usize];
            if e.row.is_none() {
                *n = 0;
            } else {
                *n += 1;
                if *n > max_act {
                    return Err(format!(
                        "{} stream: channel {ch} bank {} takes {} ACTs between REFs, \
                         over maxact {max_act}",
                        stream.name, e.bank.0, *n
                    ));
                }
            }
        }
    }
    Ok(())
}

/// What `System` reports for a stream's traces under `none`.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Requests fed.
    pub requests: u64,
    /// MC-issued ACTs.
    pub normal_acts: u64,
    /// Per channel: ACTs, REFs, and the clock once drained.
    pub channels: Vec<(u64, u64, Time)>,
    /// Simulated ps at the end of the run.
    pub sim_ps: u64,
    /// Request latencies over every channel.
    pub latency: LatencyHistogram,
}

/// Replays `traces` through `System` on `cfg` under `none`, as [`derive`]
/// takes them.
///
/// # Errors
///
/// An error `traces` yields, or the controller error that stopped the
/// replay.
pub fn replay_system(
    cfg: &SimConfig,
    traces: impl IntoIterator<Item = Result<Vec<TraceItem>, String>>,
) -> Result<SystemRun, String> {
    let mut sys = System::new(cfg, DefenseKind::None);
    for trace in traces {
        for item in trace? {
            sys.feed(item).map_err(|e| e.to_string())?;
        }
    }
    sys.drain().map_err(|e| e.to_string())?;
    let m = sys.metrics("");
    let mut latency = LatencyHistogram::new();
    for c in sys.controllers() {
        latency.merge(c.latency());
    }
    Ok(SystemRun {
        requests: m.requests,
        normal_acts: m.normal_acts,
        channels: sys
            .controllers()
            .iter()
            .map(|c| {
                let refs = c.rank_stats().map(|s| s.refreshes).sum();
                (c.normal_acts(), refs, c.now())
            })
            .collect(),
        sim_ps: m.sim_time.as_ps(),
        latency,
    })
}

/// What a defense asked for over one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// ARRs requested.
    pub arrs: u64,
    /// Explicit row refreshes requested.
    pub refresh_rows: u64,
    /// Metadata ACTs (CRA's counter-cache traffic).
    pub metadata_acts: u64,
    /// Detections raised.
    pub detections: u64,
}

impl Tally {
    #[inline]
    fn add(&mut self, r: &DefenseResponse) {
        self.arrs += u64::from(r.arr.is_some());
        self.refresh_rows += r.refresh_rows.len() as u64;
        self.metadata_acts += u64::from(r.metadata_acts);
        self.detections += u64::from(r.detection.is_some());
    }

    /// Additional ACTs, counting an ARR as its two interior neighbours.
    pub fn added_acts(&self) -> u64 {
        2 * self.arrs + self.refresh_rows + self.metadata_acts
    }

    /// ARRs plus refreshed rows.
    pub fn actions(&self) -> u64 {
        self.arrs + self.refresh_rows
    }
}

/// One stream × defense pass.
#[derive(Debug, Clone)]
pub struct HookRun {
    /// ns of hook calls over every channel (construction excluded).
    pub wall_ns: u64,
    /// What the defense asked for.
    pub tally: Tally,
    /// Digest of every channel's defense state after the pass.
    pub digest: u64,
}

fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

fn build(stream: &Stream, c: &Channel, kind: DefenseKind) -> Box<dyn RowHammerDefense> {
    make_defense(kind, &stream.params, stream.banks, c.seed)
}

/// Feeds each channel of `stream` into a fresh `kind`, one channel's
/// defense alive at a time, timing each channel's calls with one clock
/// pair: most defenses spend less per ACT than a clock read costs.
pub fn run_untraced(stream: &Stream, kind: DefenseKind) -> HookRun {
    let mut tally = Tally::default();
    let mut sd = StateDigest::new();
    let mut wall_ns = 0;
    for c in &stream.channels {
        let mut d = build(stream, c, kind);
        let t0 = Instant::now();
        for e in &c.events {
            let r = match e.row {
                Some(row) => d.on_activate(e.bank, row, e.at),
                None => d.on_auto_refresh(e.bank, e.at),
            };
            tally.add(&r);
        }
        wall_ns += ns(t0, Instant::now());
        d.digest_state(&mut sd);
    }
    HookRun {
        wall_ns,
        tally,
        digest: sd.finish(),
    }
}

/// Like [`run_untraced`], recording spans: per channel, the run of ACTs
/// between two REFs is timed as one batch (its ns per ACT goes to the
/// histogram) and each REF call is timed on its own. The timestamps
/// chain, so the batches and REFs cover the channel's whole pass.
pub fn run_traced(stream: &Stream, kind: DefenseKind, rec: &mut Recorder, cell: u32) -> HookRun {
    let root = rec.open("hooks_pass", cell, None);
    let mut tally = Tally::default();
    let mut sd = StateDigest::new();
    let mut wall_ns = 0;
    // Freed after the root span closes, as the untraced pass frees them
    // outside its timed calls.
    let mut done = Vec::with_capacity(stream.channels.len());
    for c in &stream.channels {
        let new = rec.open("make_defense", cell, Some(root));
        let mut d = build(stream, c, kind);
        rec.close(new);
        let (mut act_hist, mut ref_hist) = (Log2Hist::new(), Log2Hist::new());
        let (mut act_ns, mut ref_ns, mut batch) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        let mut mark = start;
        for e in &c.events {
            match e.row {
                Some(row) => {
                    tally.add(&d.on_activate(e.bank, row, e.at));
                    batch += 1;
                }
                None => {
                    let t = Instant::now();
                    if let Some(per_act) = ns(mark, t).checked_div(batch) {
                        act_ns += ns(mark, t);
                        act_hist.record(per_act);
                        batch = 0;
                    }
                    tally.add(&d.on_auto_refresh(e.bank, e.at));
                    mark = Instant::now();
                    ref_ns += ns(t, mark);
                    ref_hist.record(ns(t, mark));
                }
            }
        }
        let end = Instant::now();
        if let Some(per_act) = ns(mark, end).checked_div(batch) {
            act_ns += ns(mark, end);
            act_hist.record(per_act);
        }
        wall_ns += ns(start, end);
        let parent = Some(root);
        rec.aggregate(
            "on_activate",
            cell,
            parent,
            start,
            end,
            c.acts,
            act_ns,
            act_hist,
        );
        rec.aggregate(
            "on_auto_refresh",
            cell,
            parent,
            start,
            end,
            c.refs,
            ref_ns,
            ref_hist,
        );
        let dg = rec.open("digest_state", cell, Some(root));
        d.digest_state(&mut sd);
        rec.close(dg);
        done.push(d);
    }
    rec.close(root);
    drop(done);
    HookRun {
        wall_ns,
        tally,
        digest: sd.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{benign_traces, decode, hammer_traces, GenCost, TraceInput};
    use twice::TableOrganization;

    fn traces(seed: u64, benign: bool, requests: u64) -> Vec<TraceInput> {
        let mut cost = GenCost::default();
        if benign {
            benign_traces(seed, requests, &mut cost)
        } else {
            hammer_traces(seed, requests, &mut cost)
        }
    }

    fn decoded(traces: &[TraceInput]) -> impl Iterator<Item = Result<Vec<TraceItem>, String>> + '_ {
        traces.iter().map(decode)
    }

    fn streams(seed: u64) -> (Stream, Stream) {
        let (benign, hammer) = (traces(seed, true, 20_000), traces(seed, false, 10_000));
        (
            derive(
                "benign",
                &SimConfig::paper_default(),
                decoded(&benign),
                true,
            )
            .unwrap(),
            derive("hammer", &SimConfig::fast_test(), decoded(&hammer), true).unwrap(),
        )
    }

    /// Uncapped, the derived stream is the one `System` issues: every
    /// channel's ACTs, REFs and final clock agree, on the paper system
    /// (two channels, PAR-BS across many sources) and the fast-test one.
    /// That stream breaks TWiCe's `maxact` premise; the capped one keeps
    /// it and stays within 1% of `System`'s ACTs (seeds 1-4 at full size:
    /// 0.01-0.03% fewer on the paper system, 0.3-0.8% on fast-test).
    #[test]
    fn stream_matches_the_system_it_copies() {
        for (cfg, benign) in [
            (SimConfig::paper_default(), true),
            (SimConfig::fast_test(), false),
        ] {
            let traces = traces(3, benign, 20_000);
            let sys = replay_system(&cfg, decoded(&traces)).unwrap();
            let exact = derive("s", &cfg, decoded(&traces), false).unwrap();
            let got: Vec<_> = exact
                .channels
                .iter()
                .map(|c| (c.acts, c.refs, c.end))
                .collect();
            assert_eq!(got, sys.channels);
            assert_eq!(exact.capped(), 0);
            assert!(
                guard(&exact).is_err(),
                "the controller's stream exceeds maxact"
            );
            let capped = derive("s", &cfg, decoded(&traces), true).unwrap();
            guard(&capped).unwrap();
            assert!(capped.capped() > 0);
            let gap = capped.acts.abs_diff(sys.normal_acts) as f64 / sys.normal_acts as f64;
            assert!(gap < 1e-2, "capped stream is {gap} off System's ACTs");
        }
    }

    #[test]
    fn maxact_bound_holds_and_is_guarded() {
        for seed in [1, 7] {
            let (benign, hammer) = streams(seed);
            for s in [&benign, &hammer] {
                guard(s).unwrap();
                assert!(
                    s.acts > 0 && s.events() > s.acts,
                    "{} has ACTs and REFs",
                    s.name
                );
            }
            // The hammer stream runs into the bound, so the cap is
            // exercised.
            let max_act = hammer.params.max_act();
            let mut since = vec![0u64; hammer.banks as usize];
            let mut peak = 0;
            for e in &hammer.channels[0].events {
                let n = &mut since[e.bank.0 as usize];
                *n = if e.row.is_some() { *n + 1 } else { 0 };
                peak = peak.max(*n);
            }
            assert_eq!(peak, max_act);
            assert!(hammer.capped() > 0);
        }
        // The guard catches a stream over the bound.
        let (_, mut hammer) = streams(3);
        let events = &mut hammer.channels[0].events;
        let first = events.iter().position(|e| e.row.is_some()).unwrap();
        let extra = vec![events[first]; hammer.params.max_act() as usize + 1];
        events.splice(first..first, extra);
        assert!(guard(&hammer).is_err());
    }

    #[test]
    fn same_seed_same_stream() {
        let (a_benign, a_hammer) = streams(11);
        let (b_benign, b_hammer) = streams(11);
        for (a, b) in [(&a_benign, &b_benign), (&a_hammer, &b_hammer)] {
            for (x, y) in a.channels.iter().zip(&b.channels) {
                assert_eq!(x.events, y.events);
            }
        }
        let (c_benign, _) = streams(12);
        assert_ne!(
            a_benign.channels[0].events, c_benign.channels[0].events,
            "the seed must matter"
        );
    }

    #[test]
    fn twice_is_silent_on_benign_and_fires_on_s3() {
        let twice = DefenseKind::Twice(TableOrganization::FullyAssociative);
        let (benign, _) = streams(5);
        assert_eq!(run_untraced(&benign, twice).tally.arrs, 0);
        let s3: Vec<TraceInput> = traces(5, false, 10_000)
            .into_iter()
            .filter(|t| t.name == "s3")
            .collect();
        let stream = derive("s3", &SimConfig::fast_test(), decoded(&s3), true).unwrap();
        assert!(run_untraced(&stream, twice).tally.arrs >= 1);
    }

    #[test]
    fn traced_pass_matches_untraced() {
        let (_, hammer) = streams(2);
        for kind in DefenseKind::verify_lineup() {
            let plain = run_untraced(&hammer, kind);
            let traced = run_traced(&hammer, kind, &mut Recorder::default(), 0);
            assert_eq!(plain.tally, traced.tally, "{kind}");
            assert_eq!(plain.digest, traced.digest, "{kind}");
        }
    }
}
