//! Differential test: the production PAR-BS scheduler against the
//! reference in `reference/mod.rs`, the implementation it replaced.
//!
//! Each case draws 1–16 sources (sparse numbers such as 900 and
//! `u16::MAX` included), a batch cap of 1–6 and a queue depth of up to
//! 64, then runs a random script of submits, controller-style
//! pick-and-complete steps, out-of-order completions, bare picks,
//! open-row changes and restores. After every step both schedulers must
//! have made the same pick and must produce the same `save_state`
//! bytes, and with them the same digest.
//!
//! Restores load one snapshot into both schedulers: a batch saved
//! mid-script, that batch plus ids that are not queued (completed ones,
//! and ones the script issues only later), or an arbitrary subset of the
//! queue. The reference drops unqueued ids at its next pick; the
//! production scheduler must drop the same ones at the same point.
//!
//! Scripts are drawn from the in-tree seeded `SplitMix64` (the proptest
//! crate is unavailable offline); every seed is a reproducible case.

mod reference;

use reference::ReferenceParBs;
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{SnapshotReader, SnapshotWriter};
use twice_common::{ChannelId, ColId, RankId, RowId, Time};
use twice_memctrl::addrmap::DecodedAccess;
use twice_memctrl::request::MemRequest;
use twice_memctrl::scheduler::{ParBs, QueuedRequest, Scheduler};

const BANKS: usize = 4;
const ROWS: u64 = 6;

/// The source numbers a case draws from: dense core ids and sparse ones.
fn source_pool() -> Vec<u16> {
    (0..16).chain([900, 40_000, u16::MAX]).collect()
}

/// How often each kind of restore ran, so no case family goes untested.
#[derive(Debug, Default)]
struct Restores {
    saved: u64,
    stale: u64,
    subset: u64,
}

struct Case {
    rng: SplitMix64,
    cap: usize,
    sources: Vec<u16>,
    depth: usize,
    queue: Vec<QueuedRequest>,
    next_id: u64,
    open: [Option<RowId>; BANKS],
    new: ParBs,
    reference: ReferenceParBs,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut rng = SplitMix64::new(seed);
        let mut pool = source_pool();
        let n_sources = 1 + rng.next_below(16) as usize;
        let mut sources = Vec::new();
        for _ in 0..n_sources {
            sources.push(pool.swap_remove(rng.next_below(pool.len() as u64) as usize));
        }
        let cap = 1 + rng.next_below(6) as usize;
        Case {
            cap,
            sources,
            depth: 1 + rng.next_below(64) as usize,
            queue: Vec::new(),
            next_id: rng.next_below(1_000),
            open: [None; BANKS],
            new: ParBs::new(cap),
            reference: ReferenceParBs::new(cap),
            rng,
        }
    }

    fn submit(&mut self) {
        let source = self.sources[self.rng.next_below(self.sources.len() as u64) as usize];
        let bank = self.rng.next_below(BANKS as u64) as u16;
        let row = RowId(self.rng.next_below(ROWS) as u32);
        self.queue.push(QueuedRequest {
            id: self.next_id,
            req: MemRequest::read(self.next_id * 64, source, Time::ZERO),
            access: DecodedAccess {
                channel: ChannelId(0),
                rank: RankId(0),
                bank,
                row,
                col: ColId(0),
            },
        });
        self.next_id += 1;
    }

    /// Both schedulers pick; the picks must agree.
    fn pick(&mut self) -> Option<usize> {
        let open = self.open;
        let open_row = move |_: RankId, bank: u16| open[usize::from(bank)];
        let a = self.new.pick(&self.queue, &open_row);
        let b = self.reference.pick(&self.queue, &open_row);
        assert_eq!(a, b, "picks differ on queue {:?}", self.ids());
        a
    }

    /// Removes queue entry `i` the way the controller does.
    fn complete(&mut self, i: usize) {
        let id = self.queue.swap_remove(i).id;
        self.new.on_complete(id);
        self.reference.on_complete(id);
    }

    fn ids(&self) -> Vec<(u64, u16)> {
        self.queue.iter().map(|q| (q.id, q.req.source)).collect()
    }

    /// Loads `batch` into both schedulers, into fresh ones half the time.
    fn restore(&mut self, batch: &[u64]) {
        let mut w = SnapshotWriter::new();
        w.put_usize(batch.len());
        for &id in batch {
            w.put_u64(id);
        }
        let blob = w.finish();
        if self.rng.chance(0.5) {
            self.new = ParBs::new(self.cap);
            self.reference = ReferenceParBs::new(self.cap);
        }
        for s in [&mut self.new as &mut dyn Scheduler, &mut self.reference] {
            s.load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
                .expect("restore");
        }
    }

    fn saved_batch(&self) -> Vec<u64> {
        let mut w = SnapshotWriter::new();
        self.reference.save_state(&mut w);
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).expect("valid header");
        let n = r.take_usize().expect("length");
        (0..n).map(|_| r.take_u64().expect("id")).collect()
    }

    fn step(&mut self, restores: &mut Restores) {
        match self.rng.next_below(100) {
            0..40 if self.queue.len() < self.depth => self.submit(),
            0..75 => {
                if let Some(i) = self.pick() {
                    self.complete(i);
                }
            }
            75..85 if !self.queue.is_empty() => {
                let i = self.rng.next_below(self.queue.len() as u64) as usize;
                self.complete(i);
            }
            75..93 => {
                let bank = self.rng.next_below(BANKS as u64) as usize;
                self.open[bank] = self
                    .rng
                    .chance(0.8)
                    .then(|| RowId(self.rng.next_below(ROWS) as u32));
            }
            93..96 => {
                self.pick();
            }
            96..98 => {
                restores.saved += 1;
                let batch = self.saved_batch();
                self.restore(&batch);
            }
            98 => {
                // Completed ids, ids the script has yet to issue, and
                // ids it never will.
                restores.stale += 1;
                let mut batch = self.saved_batch();
                for _ in 0..1 + self.rng.next_below(3) {
                    let stale = match self.rng.next_below(3) {
                        0 => self.rng.next_below(self.next_id.max(1)),
                        1 => self.next_id + self.rng.next_below(4),
                        _ => self.rng.next_u64(),
                    };
                    batch.push(stale);
                }
                self.restore(&batch);
            }
            _ => {
                // Any subset of the queue, not only each source's oldest.
                restores.subset += 1;
                let batch: Vec<u64> = self
                    .queue
                    .iter()
                    .filter(|_| self.rng.chance(0.5))
                    .map(|q| q.id)
                    .collect();
                self.restore(&batch);
            }
        }
    }

    /// Same `save_state` bytes: a digest is their checksum, so equal
    /// bytes are equal digests.
    fn check_state(&self, seed: u64, step: usize) {
        let saved = |s: &dyn Scheduler| {
            let mut w = SnapshotWriter::new();
            s.save_state(&mut w);
            w.finish()
        };
        assert_eq!(
            saved(&self.new),
            saved(&self.reference),
            "snapshot differs: seed {seed} step {step}"
        );
    }
}

#[test]
fn parbs_matches_the_reference_on_random_scripts() {
    let mut restores = Restores::default();
    let mut sparse_cases = 0;
    for seed in 0..400 {
        let mut case = Case::new(seed);
        if case.sources.iter().any(|&s| s >= 900) {
            sparse_cases += 1;
        }
        for step in 0..600 {
            case.step(&mut restores);
            case.check_state(seed, step);
        }
        // Drain what is left, pick by pick.
        while let Some(i) = case.pick() {
            case.complete(i);
            case.check_state(seed, usize::MAX);
        }
    }
    assert!(
        sparse_cases > 100,
        "{sparse_cases} cases with sparse sources"
    );
    assert!(
        restores.saved > 100 && restores.stale > 100 && restores.subset > 100,
        "{restores:?}"
    );
}

#[test]
fn restored_batch_drops_unqueued_ids_at_the_next_pick() {
    let q = |id: u64, source: u16| QueuedRequest {
        id,
        req: MemRequest::read(0, source, Time::ZERO),
        access: DecodedAccess {
            channel: ChannelId(0),
            rank: RankId(0),
            bank: 0,
            row: RowId(0),
            col: ColId(0),
        },
    };
    let saved = |s: &ParBs| {
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        w.finish()
    };
    let mut w = SnapshotWriter::new();
    w.put_usize(3);
    for id in [4, 7, 99] {
        w.put_u64(id);
    }
    let blob = w.finish();
    let mut s = ParBs::new(2);
    s.load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
        .expect("restore");
    // Until the next pick, the restored batch is kept verbatim.
    assert_eq!(saved(&s), blob);
    let queue = [q(7, 1), q(4, 0), q(5, 0)];
    let none = |_: RankId, _: u16| None;
    assert_eq!(s.pick(&queue, &none), Some(1), "oldest member is id 4");
    let mut w = SnapshotWriter::new();
    w.put_usize(2);
    w.put_u64(4);
    w.put_u64(7);
    assert_eq!(saved(&s), w.finish(), "id 99 is not queued and is dropped");
}
