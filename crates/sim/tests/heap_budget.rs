//! Per-row model state must follow the rows in use, not the row space.
//!
//! TWiCe's premise (§4.4, Table 2) is that a bank needs counters for a
//! few hundred rows, not its 131,072. The simulator's own per-row state
//! holds to the same rule while few rows are in use: the TWiCe tables'
//! row index keeps one key per entry, and the hammer model keeps a map
//! of a bank's disturbed rows until one row in 32 is disturbed (20k S1
//! requests leave about 1 in 200). This binary counts every heap byte
//! through a global allocator and bounds the peak a paper-size `System`
//! reaches from `System::new` through 20k S1 requests and a drain.
//!
//! It has one test, so no other test's allocations share the counters.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};
use twice::TableOrganization;
use twice_mitigations::DefenseKind;
use twice_sim::config::SimConfig;
use twice_sim::runner::{build_source, WorkloadKind};
use twice_sim::system::System;
use twice_workloads::AccessSource;

/// Forwards to the system allocator, tracking live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `std::alloc::System` with the
// caller's arguments unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = Heap.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = Heap.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = Heap.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;

/// Peak heap bytes above the starting level, from `System::new` through
/// `requests` S1 requests and a drain.
fn peak_heap(cfg: &SimConfig, kind: DefenseKind, requests: u64) -> usize {
    let mut source = build_source(cfg, &WorkloadKind::S1);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut system = System::new(cfg, kind);
    for _ in 0..requests {
        system
            .feed(source.next_access())
            .expect("fault-free runs never exhaust their retries");
    }
    system.drain().expect("drain");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(system);
    peak
}

#[test]
fn a_paper_size_system_allocates_for_the_rows_in_use() {
    let cfg = SimConfig::paper_default();
    let cases = [
        (DefenseKind::None, 8 * MIB),
        (
            DefenseKind::Twice(TableOrganization::FullyAssociative),
            24 * MIB,
        ),
        (
            DefenseKind::Twice(TableOrganization::PseudoAssociative),
            24 * MIB,
        ),
        (DefenseKind::Twice(TableOrganization::Split), 24 * MIB),
    ];
    let mut report = String::new();
    let mut over = false;
    for (kind, budget) in cases {
        let peak = peak_heap(&cfg, kind, 20_000);
        report += &format!(
            "{kind}: {:.1} MiB (budget {} MiB)\n",
            peak as f64 / MIB as f64,
            budget / MIB
        );
        over |= peak >= budget;
    }
    print!("{report}");
    assert!(!over, "peak heap over budget:\n{report}");
}
