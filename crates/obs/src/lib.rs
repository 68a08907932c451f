//! `twice-obs`: allocation-free instrumentation for the TWiCe hot path.
//!
//! Three primitives, all static-registry based (no strings, no maps, no
//! per-event allocation on the recording path):
//!
//! * **Counters** — the fixed [`Ctr`] registry, bumped with
//!   [`bump`]/[`add`]. One array slot per counter in a thread-local
//!   arena; a bump is an index into a TLS array.
//! * **Histograms** — [`Log2Hist`], 64 log2 buckets over `u64` values,
//!   with *exact* quantile **bounds**: [`Log2Hist::quantile_bounds`]
//!   returns `(lo, hi)` guaranteed to bracket the exact quantile of the
//!   inserted samples (property-tested in `tests/properties.rs`).
//!   Value histograms live in the [`HistId`] registry; every [`SpanId`]
//!   additionally owns a duration histogram in nanoseconds.
//! * **Spans** — [`span`] returns an RAII [`SpanGuard`]; on drop the
//!   elapsed wall time lands in the span's histogram and, when tracing
//!   is armed via [`set_tracing`], a [`TraceEvent`] is appended to a
//!   bounded thread-local buffer (overflow is drop-counted, never
//!   grown).
//!
//! Recording goes to **thread-local arenas** that merge into a global
//! registry when the thread exits (or on an explicit [`flush`]); merges
//! are commutative and associative, so totals are independent of thread
//! scheduling. [`snapshot`] flushes the calling thread and returns the
//! merged view; [`ObsSnapshot::chrome_trace_json`] renders the span
//! events in Chrome `trace_event` JSON (load it in `chrome://tracing`
//! or Perfetto).
//!
//! Under the `obs-off` feature every recording function compiles to a
//! no-op against a no-op registry and [`SpanGuard`] is zero-sized; the
//! data structures ([`Log2Hist`], [`ObsSnapshot`]) remain available so
//! downstream code type-checks identically (`tests/off_noop.rs` holds
//! the contract).

// ---------------------------------------------------------------------
// Static registries.
// ---------------------------------------------------------------------

/// Every monotonic counter in the system, named `layer.event`.
///
/// The registry is closed on purpose: a counter is an array index, so
/// recording never hashes, allocates, or locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Ctr {
    /// ACTs observed by the TWiCe engine (all banks).
    CoreActs,
    /// ARRs the engine issued (threshold, fail-safe, and scrub).
    CoreArrs,
    /// Prune passes (one per per-bank auto-refresh).
    CorePrunePasses,
    /// Entries evicted by pruning (`life` expired under `thPI`).
    CorePrunedEntries,
    /// pa-TWiCe set probes (preferred + borrowed-chase).
    CorePaSetProbes,
    /// pa-TWiCe insertions that had to borrow a foreign set's slot.
    CorePaBorrowedInserts,
    /// Bank FSM transitions (ACT, PRE, REF, ARR state changes).
    DramBankTransitions,
    /// Refresh commands that stalled and were retried (busy bank or
    /// timing rejection).
    DramRefreshStalls,
    /// RCD nacks with reason `ArrInProgress`.
    DramNacksArr,
    /// RCD nacks injected by the fault plan.
    DramNacksInjected,
    /// Requests submitted to a controller queue.
    MemctrlRequests,
    /// Command retry iterations in the nack-resend loop.
    MemctrlCmdRetries,
    /// Simulation epochs executed by `ResumableRun`.
    SimEpochs,
    /// Cell/shard checkpoints written.
    SimCkptWrites,
    /// Checkpoint bytes written.
    SimCkptBytes,
    /// Journal lines appended.
    SimJournalAppends,
    /// Storage-op retries taken by the campaign I/O retry ladder.
    SimIoRetries,
    /// Binary trace frames decoded cleanly.
    SimTraceFramesRead,
    /// Binary trace corrupt regions skipped by the salvage reader.
    SimTraceFramesDropped,
    /// Binary trace bytes quarantined by the salvage reader.
    SimTraceBytesQuarantined,
    /// Red-team genome evaluations run (live, not journal-cached).
    SimRedteamEvals,
    /// Red-team genomes quarantined (panic or budget blowout).
    SimRedteamQuarantined,
    /// Corpus replays where a protected defense let a victim cross
    /// `N_th` unmitigated.
    SimRedteamBreaks,
}

/// Number of registered counters.
pub const NUM_CTRS: usize = 23;

impl Ctr {
    /// Every registered counter, in declaration order.
    pub const ALL: [Ctr; NUM_CTRS] = [
        Ctr::CoreActs,
        Ctr::CoreArrs,
        Ctr::CorePrunePasses,
        Ctr::CorePrunedEntries,
        Ctr::CorePaSetProbes,
        Ctr::CorePaBorrowedInserts,
        Ctr::DramBankTransitions,
        Ctr::DramRefreshStalls,
        Ctr::DramNacksArr,
        Ctr::DramNacksInjected,
        Ctr::MemctrlRequests,
        Ctr::MemctrlCmdRetries,
        Ctr::SimEpochs,
        Ctr::SimCkptWrites,
        Ctr::SimCkptBytes,
        Ctr::SimJournalAppends,
        Ctr::SimIoRetries,
        Ctr::SimTraceFramesRead,
        Ctr::SimTraceFramesDropped,
        Ctr::SimTraceBytesQuarantined,
        Ctr::SimRedteamEvals,
        Ctr::SimRedteamQuarantined,
        Ctr::SimRedteamBreaks,
    ];

    /// The counter's canonical `layer.event` name.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::CoreActs => "core.acts",
            Ctr::CoreArrs => "core.arrs",
            Ctr::CorePrunePasses => "core.prune_passes",
            Ctr::CorePrunedEntries => "core.pruned_entries",
            Ctr::CorePaSetProbes => "core.pa_set_probes",
            Ctr::CorePaBorrowedInserts => "core.pa_borrowed_inserts",
            Ctr::DramBankTransitions => "dram.bank_transitions",
            Ctr::DramRefreshStalls => "dram.refresh_stalls",
            Ctr::DramNacksArr => "dram.nacks_arr",
            Ctr::DramNacksInjected => "dram.nacks_injected",
            Ctr::MemctrlRequests => "memctrl.requests",
            Ctr::MemctrlCmdRetries => "memctrl.cmd_retries",
            Ctr::SimEpochs => "sim.epochs",
            Ctr::SimCkptWrites => "sim.ckpt_writes",
            Ctr::SimCkptBytes => "sim.ckpt_bytes",
            Ctr::SimJournalAppends => "sim.journal_appends",
            Ctr::SimIoRetries => "sim.io_retries",
            Ctr::SimTraceFramesRead => "sim.trace_frames_read",
            Ctr::SimTraceFramesDropped => "sim.trace_frames_dropped",
            Ctr::SimTraceBytesQuarantined => "sim.trace_bytes_quarantined",
            Ctr::SimRedteamEvals => "sim.redteam_evals",
            Ctr::SimRedteamQuarantined => "sim.redteam_quarantined",
            Ctr::SimRedteamBreaks => "sim.redteam_breaks",
        }
    }

    /// The crate layer the counter belongs to (`core`, `dram`,
    /// `memctrl`, `sim`).
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("every counter name is layer.event")]
    }
}

/// Value histograms (log2-bucketed, exact quantile bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum HistId {
    /// pa-TWiCe sets probed per ACT.
    CoreProbeSets,
    /// Controller queue depth at submit time.
    MemctrlQueueDepth,
}

/// Number of registered value histograms.
pub const NUM_HISTS: usize = 2;

impl HistId {
    /// Every registered histogram, in declaration order.
    pub const ALL: [HistId; NUM_HISTS] = [HistId::CoreProbeSets, HistId::MemctrlQueueDepth];

    /// The histogram's canonical `layer.metric` name.
    pub fn name(self) -> &'static str {
        match self {
            HistId::CoreProbeSets => "core.probe_sets",
            HistId::MemctrlQueueDepth => "memctrl.queue_depth",
        }
    }
}

/// Timing spans. Each owns a duration histogram (nanoseconds) and, with
/// tracing armed, emits Chrome `trace_event` complete events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum SpanId {
    /// A TWiCe prune pass (per-bank auto-refresh table update).
    CorePrune,
    /// A rank-wide refresh round through the RCD.
    DramRefresh,
    /// Draining one controller's queue to empty.
    MemctrlDrain,
    /// One `ResumableRun` epoch.
    SimEpoch,
    /// One checkpoint write/read through the `CampaignIo` seam.
    SimCkptIo,
    /// One journal append through the `CampaignIo` seam.
    SimJournalIo,
}

/// Number of registered spans.
pub const NUM_SPANS: usize = 6;

impl SpanId {
    /// Every registered span, in declaration order.
    pub const ALL: [SpanId; NUM_SPANS] = [
        SpanId::CorePrune,
        SpanId::DramRefresh,
        SpanId::MemctrlDrain,
        SpanId::SimEpoch,
        SpanId::SimCkptIo,
        SpanId::SimJournalIo,
    ];

    /// The span's canonical `layer.phase` name.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::CorePrune => "core.prune",
            SpanId::DramRefresh => "dram.refresh",
            SpanId::MemctrlDrain => "memctrl.drain",
            SpanId::SimEpoch => "sim.epoch",
            SpanId::SimCkptIo => "sim.ckpt_io",
            SpanId::SimJournalIo => "sim.journal_io",
        }
    }

    /// The crate layer the span belongs to.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("every span name is layer.phase")]
    }
}

// ---------------------------------------------------------------------
// Log2Hist: the shared histogram structure (compiled in both modes).
// ---------------------------------------------------------------------

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b`
/// (1..=62) holds `[2^(b-1), 2^b - 1]`, bucket 63 holds `[2^62, u64::MAX]`.
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram over `u64` values.
///
/// Constant memory, O(1) insert, exact `count`/`sum`/`max`, and
/// quantile *bounds* guaranteed to bracket the exact quantile of the
/// inserted samples. Merging is element-wise and therefore commutative
/// and associative (property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Hist {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u128,
    max: u64,
}

impl Log2Hist {
    /// An empty histogram.
    pub const fn new() -> Log2Hist {
        Log2Hist {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Rebuilds a histogram from the raw parts a snapshot codec saved:
    /// bucket counts, sample count, exact sum and exact max. The parts
    /// are taken as given.
    pub const fn from_raw_parts(
        counts: [u64; BUCKETS],
        total: u64,
        sum: u128,
        max: u64,
    ) -> Log2Hist {
        Log2Hist {
            counts,
            total,
            sum,
            max,
        }
    }

    /// The bucket index of `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The inclusive value range covered by `bucket`.
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        assert!(bucket < BUCKETS, "bucket {bucket} out of {BUCKETS}");
        match bucket {
            0 => (0, 0),
            63 => (1u64 << 62, u64::MAX),
            b => (1u64 << (b - 1), (1u64 << b) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all samples.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact largest sample (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / u128::from(self.total)) as u64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Inclusive bounds `(lo, hi)` bracketing the exact `q`-quantile of
    /// the inserted samples: if the samples were sorted, the one at rank
    /// `ceil(q * n)` (1-based, clamped to `[1, n]`) satisfies
    /// `lo <= sample <= hi`. Returns `(0, 0)` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return (0, 0);
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (lo, hi) = Self::bucket_range(bucket);
                // The quantile sample can't exceed the exact max.
                return (lo, hi.min(self.max));
            }
        }
        (self.max, self.max)
    }

    /// Merges `other` into `self` (element-wise: commutative and
    /// associative, so arena merge order never changes the result).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist::new()
    }
}

// ---------------------------------------------------------------------
// Snapshot types (compiled in both modes).
// ---------------------------------------------------------------------

/// One span's start/duration record for trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which span.
    pub id: SpanId,
    /// Recording thread (dense ids in first-use order).
    pub tid: u32,
    /// Start, nanoseconds since the process trace epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A merged, read-only view of everything recorded so far.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Counter values, indexed by `Ctr as usize`.
    pub counters: [u64; NUM_CTRS],
    /// Value histograms, indexed by `HistId as usize`.
    pub hists: [Log2Hist; NUM_HISTS],
    /// Span duration histograms (ns), indexed by `SpanId as usize`.
    pub spans: [Log2Hist; NUM_SPANS],
    /// Collected trace events (empty unless tracing was armed).
    pub trace: Vec<TraceEvent>,
    /// Events dropped because a thread's bounded buffer filled.
    pub trace_dropped: u64,
}

impl ObsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// One span's duration histogram.
    pub fn span_hist(&self, s: SpanId) -> &Log2Hist {
        &self.spans[s as usize]
    }

    /// One value histogram.
    pub fn hist(&self, h: HistId) -> &Log2Hist {
        &self.hists[h as usize]
    }

    /// Whether any counter, histogram, or trace event was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.hists.iter().all(Log2Hist::is_empty)
            && self.spans.iter().all(Log2Hist::is_empty)
            && self.trace.is_empty()
    }

    /// Renders the trace buffer as Chrome `trace_event` JSON (the
    /// "JSON Array Format" with complete `ph:"X"` events), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps are microseconds
    /// with nanosecond precision. Events are sorted by start time so
    /// the output is stable for a given recording.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = self.trace.clone();
        events.sort_by_key(|e| (e.t0_ns, e.tid, e.id as usize));
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}}}",
                e.id.name(),
                e.id.layer(),
                e.t0_ns / 1_000,
                e.t0_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
                e.tid,
            ));
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------
// The live registry (default build).
// ---------------------------------------------------------------------

#[cfg(not(feature = "obs-off"))]
mod registry {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Per-thread cap on buffered trace events; overflow increments
    /// `trace_dropped` instead of growing the buffer.
    const MAX_TRACE_EVENTS: usize = 1 << 16;

    struct Arena {
        ctrs: [u64; NUM_CTRS],
        hists: [Log2Hist; NUM_HISTS],
        spans: [Log2Hist; NUM_SPANS],
        trace: Vec<TraceEvent>,
        trace_dropped: u64,
    }

    impl Arena {
        const fn new() -> Arena {
            Arena {
                ctrs: [0; NUM_CTRS],
                hists: [Log2Hist::new(); NUM_HISTS],
                spans: [Log2Hist::new(); NUM_SPANS],
                trace: Vec::new(),
                trace_dropped: 0,
            }
        }

        fn merge_into(&mut self, global: &mut Arena) {
            for (g, l) in global.ctrs.iter_mut().zip(self.ctrs.iter()) {
                *g += l;
            }
            for (g, l) in global.hists.iter_mut().zip(self.hists.iter()) {
                g.merge(l);
            }
            for (g, l) in global.spans.iter_mut().zip(self.spans.iter()) {
                g.merge(l);
            }
            global.trace.append(&mut self.trace);
            global.trace_dropped += self.trace_dropped;
            *self = Arena::new();
        }
    }

    static GLOBAL: Mutex<Arena> = Mutex::new(Arena::new());
    static TRACING: AtomicBool = AtomicBool::new(false);
    static NEXT_TID: AtomicU32 = AtomicU32::new(0);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    fn epoch() -> Instant {
        *EPOCH.get_or_init(Instant::now)
    }

    /// A thread's arena; `Drop` merges it into the global registry, so
    /// worker-pool threads contribute their totals when they exit.
    struct LocalArena {
        arena: Arena,
        tid: u32,
    }

    impl LocalArena {
        fn new() -> LocalArena {
            LocalArena {
                arena: Arena::new(),
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            }
        }
    }

    impl Drop for LocalArena {
        fn drop(&mut self) {
            let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
            self.arena.merge_into(&mut g);
        }
    }

    thread_local! {
        static LOCAL: RefCell<LocalArena> = RefCell::new(LocalArena::new());
    }

    /// Runs `f` on the thread's arena; silently drops the record during
    /// thread teardown (TLS already destroyed) rather than panicking.
    #[inline]
    fn with_local<R>(f: impl FnOnce(&mut LocalArena) -> R) -> Option<R> {
        LOCAL.try_with(|l| f(&mut l.borrow_mut())).ok()
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(c: Ctr, n: u64) {
        with_local(|l| l.arena.ctrs[c as usize] += n);
    }

    /// Increments counter `c`.
    #[inline]
    pub fn bump(c: Ctr) {
        add(c, 1);
    }

    /// Records `v` into histogram `h`.
    #[inline]
    pub fn record(h: HistId, v: u64) {
        with_local(|l| l.arena.hists[h as usize].record(v));
    }

    /// Arms or disarms trace-event collection (spans always feed their
    /// duration histograms; only the per-event buffer is gated).
    pub fn set_tracing(on: bool) {
        // Pin the epoch before the first event so t0 is never negative.
        let _ = epoch();
        TRACING.store(on, Ordering::Relaxed);
    }

    /// Whether trace-event collection is armed.
    #[inline]
    pub fn tracing() -> bool {
        TRACING.load(Ordering::Relaxed)
    }

    /// An RAII timing span: created by [`span`], records on drop.
    #[must_use = "a span measures the scope it is bound to"]
    pub struct SpanGuard {
        id: SpanId,
        start: Instant,
    }

    /// Opens a timing span for `id`.
    #[inline]
    pub fn span(id: SpanId) -> SpanGuard {
        SpanGuard {
            id,
            start: Instant::now(),
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let id = self.id;
            let traced = tracing();
            let t0_ns = if traced {
                u64::try_from(self.start.saturating_duration_since(epoch()).as_nanos())
                    .unwrap_or(u64::MAX)
            } else {
                0
            };
            with_local(|l| {
                l.arena.spans[id as usize].record(dur_ns);
                if traced {
                    if l.arena.trace.len() < MAX_TRACE_EVENTS {
                        l.arena.trace.push(TraceEvent {
                            id,
                            tid: l.tid,
                            t0_ns,
                            dur_ns,
                        });
                    } else {
                        l.arena.trace_dropped += 1;
                    }
                }
            });
        }
    }

    /// The calling thread's counter values (its arena only — global
    /// totals are in [`snapshot`]). The before/after delta around a
    /// single-threaded piece of work attributes counters to exactly
    /// that work.
    pub fn local_counters() -> [u64; NUM_CTRS] {
        with_local(|l| l.arena.ctrs).unwrap_or([0; NUM_CTRS])
    }

    /// Merges the calling thread's arena into the global registry.
    pub fn flush() {
        with_local(|l| {
            let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
            l.arena.merge_into(&mut g);
        });
    }

    /// Flushes the calling thread and returns the merged global view.
    ///
    /// Threads still running keep their unflushed arenas; join (or
    /// [`flush`] from) them first for a complete picture — the worker
    /// pools in this workspace all join before results are read.
    pub fn snapshot() -> ObsSnapshot {
        flush();
        let g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        ObsSnapshot {
            counters: g.ctrs,
            hists: g.hists,
            spans: g.spans,
            trace: g.trace.clone(),
            trace_dropped: g.trace_dropped,
        }
    }

    /// Zeroes the global registry and the calling thread's arena (other
    /// live threads keep theirs). Benches call this between phases.
    pub fn reset() {
        with_local(|l| l.arena = Arena::new());
        let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        *g = Arena::new();
    }
}

// ---------------------------------------------------------------------
// The no-op registry (`obs-off`): every probe compiles away.
// ---------------------------------------------------------------------

#[cfg(feature = "obs-off")]
mod registry {
    use super::*;

    /// Adds `n` to counter `c` (no-op under `obs-off`).
    #[inline(always)]
    pub fn add(c: Ctr, n: u64) {
        let _ = (c, n);
    }

    /// Increments counter `c` (no-op under `obs-off`).
    #[inline(always)]
    pub fn bump(c: Ctr) {
        let _ = c;
    }

    /// Records `v` into histogram `h` (no-op under `obs-off`).
    #[inline(always)]
    pub fn record(h: HistId, v: u64) {
        let _ = (h, v);
    }

    /// No-op under `obs-off`.
    #[inline(always)]
    pub fn set_tracing(on: bool) {
        let _ = on;
    }

    /// Always `false` under `obs-off`.
    #[inline(always)]
    pub fn tracing() -> bool {
        false
    }

    /// Zero-sized stand-in for the RAII span guard.
    #[must_use = "a span measures the scope it is bound to"]
    pub struct SpanGuard;

    /// Opens a (zero-cost) span for `id`.
    #[inline(always)]
    pub fn span(id: SpanId) -> SpanGuard {
        let _ = id;
        SpanGuard
    }

    /// All zeroes under `obs-off`.
    #[inline(always)]
    pub fn local_counters() -> [u64; NUM_CTRS] {
        [0; NUM_CTRS]
    }

    /// No-op under `obs-off`.
    #[inline(always)]
    pub fn flush() {}

    /// An empty snapshot under `obs-off`.
    #[inline(always)]
    pub fn snapshot() -> ObsSnapshot {
        ObsSnapshot::default()
    }

    /// No-op under `obs-off`.
    #[inline(always)]
    pub fn reset() {}
}

pub use registry::{
    add, bump, flush, local_counters, record, reset, set_tracing, snapshot, span, tracing,
    SpanGuard,
};

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that reset it must not
    /// interleave; one lock serializes them.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _guard = serial();
        reset();
        bump(Ctr::CoreActs);
        add(Ctr::CoreActs, 4);
        bump(Ctr::DramBankTransitions);
        let s = snapshot();
        assert_eq!(s.counter(Ctr::CoreActs), 5);
        assert_eq!(s.counter(Ctr::DramBankTransitions), 1);
        assert_eq!(s.counter(Ctr::SimEpochs), 0);
    }

    #[test]
    fn threads_merge_on_exit() {
        let _guard = serial();
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        bump(Ctr::MemctrlRequests);
                    }
                    record(HistId::MemctrlQueueDepth, 7);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let s = snapshot();
        assert_eq!(s.counter(Ctr::MemctrlRequests), 400);
        assert_eq!(s.hist(HistId::MemctrlQueueDepth).count(), 4);
    }

    #[test]
    fn spans_feed_their_histogram_and_trace_when_armed() {
        let _guard = serial();
        reset();
        set_tracing(true);
        {
            let _s = span(SpanId::CorePrune);
            std::hint::black_box(0u64);
        }
        {
            let _s = span(SpanId::SimEpoch);
        }
        set_tracing(false);
        let s = snapshot();
        assert_eq!(s.span_hist(SpanId::CorePrune).count(), 1);
        assert_eq!(s.span_hist(SpanId::SimEpoch).count(), 1);
        assert_eq!(s.trace.len(), 2);
        let json = s.chrome_trace_json();
        assert!(json.contains("\"name\":\"core.prune\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn spans_skip_the_trace_buffer_when_disarmed() {
        let _guard = serial();
        reset();
        {
            let _s = span(SpanId::DramRefresh);
        }
        let s = snapshot();
        assert_eq!(s.span_hist(SpanId::DramRefresh).count(), 1);
        assert!(s.trace.is_empty());
    }

    #[test]
    fn local_counters_give_a_per_thread_delta() {
        let _guard = serial();
        reset();
        let before = local_counters();
        bump(Ctr::CoreArrs);
        bump(Ctr::CoreArrs);
        let after = local_counters();
        assert_eq!(
            after[Ctr::CoreArrs as usize] - before[Ctr::CoreArrs as usize],
            2
        );
        // Another thread's work never shows in this thread's counters.
        std::thread::spawn(|| bump(Ctr::CoreArrs))
            .join()
            .expect("worker");
        let third = local_counters();
        assert_eq!(third[Ctr::CoreArrs as usize], after[Ctr::CoreArrs as usize]);
    }

    #[test]
    fn names_and_layers_are_consistent() {
        for c in Ctr::ALL {
            assert!(c.name().contains('.'), "{}", c.name());
            assert!(["core", "dram", "memctrl", "sim"].contains(&c.layer()));
        }
        for s in SpanId::ALL {
            assert!(["core", "dram", "memctrl", "sim"].contains(&s.layer()));
        }
    }
}
