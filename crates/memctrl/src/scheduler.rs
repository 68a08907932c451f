//! Request schedulers: FCFS, FR-FCFS, and PAR-BS.
//!
//! The evaluation system schedules with **PAR-BS** (Table 4,
//! [Mutlu & Moscibroda, ISCA'08]): requests are grouped into batches with
//! a per-source cap; the current batch is serviced to completion before
//! newer requests, which bounds inter-thread interference. Within a batch
//! (and for the simpler policies) the classic **FR-FCFS** rule applies:
//! row-buffer hits first, then oldest first.
//!
//! A pick is one pass over the queue. PAR-BS tests batch membership
//! with a per-source id bound set when the batch forms, and forming a
//! batch takes one more pass that keeps each source's oldest ids (see
//! [`ParBs`]).

use crate::addrmap::DecodedAccess;
use crate::request::MemRequest;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, StateDigest};
use twice_common::{RankId, RowId};

/// A request waiting in the controller queue, with its decoded coordinate.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// Monotonic id assigned by the controller at enqueue.
    pub id: u64,
    /// The request.
    pub req: MemRequest,
    /// Its decoded DRAM coordinate.
    pub access: DecodedAccess,
}

/// Which scheduling policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Strict arrival order.
    Fcfs,
    /// Row-hit-first, then oldest.
    FrFcfs,
    /// Batch scheduling with FR-FCFS inside the batch (Table 4 default).
    #[default]
    ParBs,
}

/// A request scheduler.
///
/// `open_row` reports the currently open row of `(rank, bank)` so the
/// scheduler can prefer row hits.
pub trait Scheduler: Send {
    /// The policy's display name.
    fn name(&self) -> &str;

    /// Picks the index (into `queue`) of the request to service next.
    /// Returns `None` iff `queue` is empty.
    fn pick(
        &mut self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize>;

    /// Notifies the scheduler that request `id` completed.
    fn on_complete(&mut self, id: u64) {
        let _ = id;
    }

    /// Serializes mutable scheduling state (checkpointing hook). FCFS and
    /// FR-FCFS are stateless; PAR-BS overrides this to save its batch.
    fn save_state(&self, w: &mut SnapshotWriter) {
        let _ = w;
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Decode errors from a truncated or mismatched snapshot.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
    }

    /// Folds mutable scheduling state into a digest.
    fn digest_state(&self, d: &mut StateDigest) {
        let _ = d;
    }
}

/// Creates a boxed scheduler of the given kind (PAR-BS uses the paper's
/// batching cap of 5 requests per source).
pub fn make_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Fcfs => Box::new(Fcfs),
        SchedulerKind::FrFcfs => Box::new(FrFcfs),
        SchedulerKind::ParBs => Box::new(ParBs::new(5)),
    }
}

/// First-come first-served.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn pick(
        &mut self,
        queue: &[QueuedRequest],
        _open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        oldest(queue, |_| true)
    }
}

/// Row-hit-first, then oldest-first.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl Scheduler for FrFcfs {
    fn name(&self) -> &str {
        "FR-FCFS"
    }

    fn pick(
        &mut self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        pick_fr_fcfs(queue, open_row, |_| true)
    }
}

/// Parallelism-aware batch scheduling.
///
/// A batch takes each source's `batch_cap` oldest queued requests, and
/// every later arrival carries a larger id. So a source's batch members
/// are exactly its queued requests with `id < limit[source]`, where the
/// limit is one past the newest id the source was granted when the
/// batch formed: completions leave it exact, and arrivals fall past it.
/// Membership costs one table load per queued request.
///
/// The ascending id vector `batch` stays as the snapshot and digest
/// encoding (length, then ascending ids) and tells when the batch has
/// drained. A restored batch may name ids that are no longer queued;
/// the first pick after a restore drops them, as a per-pick sweep did
/// before, and derives the limits from what remains.
#[derive(Debug, Clone)]
pub struct ParBs {
    batch_cap: usize,
    batch: Vec<u64>,
    /// Membership bound per source, indexed by source; sources past the
    /// end have no members.
    limit: Vec<u64>,
    membership: Membership,
    /// Scratch for batch formation: each queued source and how many of
    /// its ids `oldest` holds.
    grants: Vec<(u16, usize)>,
    /// Scratch for batch formation: `batch_cap` slots per grant, holding
    /// that source's oldest ids in ascending order.
    oldest: Vec<u64>,
}

/// How [`ParBs`] decides whether a queued request is in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// `id < limit[source]`.
    Limits,
    /// `load_state` replaced the batch; the next pick re-derives the
    /// limits from the queue.
    Restored,
    /// A restored batch that is not each source's oldest queued
    /// requests, which only a hand-made snapshot holds: search `batch`
    /// until it drains.
    Search,
}

impl ParBs {
    /// Creates a PAR-BS scheduler with `batch_cap` requests per source
    /// per batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap` is zero.
    pub fn new(batch_cap: usize) -> ParBs {
        assert!(batch_cap > 0, "batch cap must be non-zero");
        ParBs {
            batch_cap,
            batch: Vec::new(),
            limit: Vec::new(),
            membership: Membership::Limits,
            grants: Vec::new(),
            oldest: Vec::new(),
        }
    }

    fn limit_of(&mut self, source: u16) -> &mut u64 {
        let s = usize::from(source);
        if self.limit.len() <= s {
            self.limit.resize(s + 1, 0);
        }
        &mut self.limit[s]
    }

    fn form_batch(&mut self, queue: &[QueuedRequest]) {
        // One pass over the (unsorted) queue: each source's grant keeps
        // its `cap` oldest ids, ascending.
        let cap = self.batch_cap;
        self.grants.clear();
        self.oldest.clear();
        for q in queue {
            let slot = match self.grants.iter().position(|&(s, _)| s == q.req.source) {
                Some(slot) => slot,
                None => {
                    self.grants.push((q.req.source, 0));
                    self.oldest.resize(self.oldest.len() + cap, 0);
                    self.grants.len() - 1
                }
            };
            let kept = &mut self.grants[slot].1;
            let ids = &mut self.oldest[slot * cap..][..cap];
            if *kept == cap && q.id >= ids[cap - 1] {
                continue;
            }
            let at = ids[..*kept].partition_point(|&id| id < q.id);
            *kept = (*kept + 1).min(cap);
            ids.copy_within(at..*kept - 1, at + 1);
            ids[at] = q.id;
        }
        // A source with nothing queued keeps its old limit: its requests
        // below it have all completed, and later arrivals get larger ids.
        self.batch.clear();
        for slot in 0..self.grants.len() {
            let (source, kept) = self.grants[slot];
            let ids = &self.oldest[slot * cap..][..kept];
            self.batch.extend_from_slice(ids);
            // Ids stay below `u64::MAX`: the controller's counter
            // cannot reach it.
            let newest = ids[kept - 1];
            *self.limit_of(source) = newest + 1;
        }
        self.batch.sort_unstable();
        self.membership = Membership::Limits;
    }

    /// Drops restored ids that are no longer queued and derives the
    /// limits from the rest.
    fn adopt_restored(&mut self, queue: &[QueuedRequest]) {
        self.batch.retain(|id| queue.iter().any(|q| q.id == *id));
        self.limit.fill(0);
        for q in queue {
            if self.batch.binary_search(&q.id).is_ok() {
                let limit = self.limit_of(q.req.source);
                *limit = (*limit).max(q.id.saturating_add(1));
            }
        }
        let exact = queue
            .iter()
            .all(|q| self.within_limit(q) == self.batch.binary_search(&q.id).is_ok());
        self.membership = if exact {
            Membership::Limits
        } else {
            Membership::Search
        };
    }

    fn within_limit(&self, q: &QueuedRequest) -> bool {
        self.limit
            .get(usize::from(q.req.source))
            .is_some_and(|&limit| q.id < limit)
    }

    fn pick_member(
        &self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        match self.membership {
            Membership::Search => {
                pick_fr_fcfs(queue, open_row, |q| self.batch.binary_search(&q.id).is_ok())
            }
            _ => pick_fr_fcfs(queue, open_row, |q| self.within_limit(q)),
        }
    }
}

impl Scheduler for ParBs {
    fn name(&self) -> &str {
        "PAR-BS"
    }

    fn pick(
        &mut self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        if self.membership == Membership::Restored {
            self.adopt_restored(queue);
        }
        if self.batch.is_empty() {
            self.form_batch(queue);
        }
        self.pick_member(queue, open_row).or_else(|| {
            // Every batch id left the queue without `on_complete`, which
            // the controller never does: start a new batch.
            self.batch.clear();
            self.form_batch(queue);
            self.pick_member(queue, open_row)
        })
    }

    fn on_complete(&mut self, id: u64) {
        if let Ok(i) = self.batch.binary_search(&id) {
            self.batch.remove(i);
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        // The batch is a pure set, kept sorted: canonical as-is.
        w.put_usize(self.batch.len());
        for id in &self.batch {
            w.put_u64(*id);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.membership = Membership::Restored;
        let n = r.take_usize()?;
        self.batch.clear();
        for _ in 0..n {
            self.batch.push(r.take_u64()?);
        }
        // Snapshots we write are ascending, but the set semantics never
        // depended on blob order — normalize rather than reject.
        self.batch.sort_unstable();
        self.batch.dedup();
        Ok(())
    }

    fn digest_state(&self, d: &mut StateDigest) {
        for id in &self.batch {
            d.write_u64(*id);
        }
    }
}

/// One pass over the eligible requests: the oldest row hit, else the
/// oldest. `open_row` is asked only about a request that would beat the
/// best hit so far. Strict comparisons keep the lowest index among
/// equal ids.
fn pick_fr_fcfs(
    queue: &[QueuedRequest],
    open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    eligible: impl Fn(&QueuedRequest) -> bool,
) -> Option<usize> {
    let mut hit: Option<(u64, usize)> = None;
    let mut first: Option<(u64, usize)> = None;
    for (i, q) in queue.iter().enumerate() {
        if !eligible(q) {
            continue;
        }
        if first.is_none_or(|(id, _)| q.id < id) {
            first = Some((q.id, i));
        }
        if hit.is_none_or(|(id, _)| q.id < id)
            && open_row(q.access.rank, q.access.bank) == Some(q.access.row)
        {
            hit = Some((q.id, i));
        }
    }
    hit.or(first).map(|(_, i)| i)
}

fn oldest(queue: &[QueuedRequest], pred: impl Fn(&QueuedRequest) -> bool) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, q)| pred(q))
        .min_by_key(|(_, q)| q.id)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::{ChannelId, ColId, Time};

    fn q(id: u64, source: u16, bank: u16, row: u32) -> QueuedRequest {
        QueuedRequest {
            id,
            req: MemRequest::read(0, source, Time::ZERO),
            access: DecodedAccess {
                channel: ChannelId(0),
                rank: RankId(0),
                bank,
                row: RowId(row),
                col: ColId(0),
            },
        }
    }

    fn no_open(_: RankId, _: u16) -> Option<RowId> {
        None
    }

    #[test]
    fn fcfs_picks_oldest() {
        let mut s = Fcfs;
        let queue = vec![q(5, 0, 0, 1), q(2, 0, 1, 2), q(9, 0, 2, 3)];
        assert_eq!(s.pick(&queue, &no_open), Some(1));
        assert_eq!(s.pick(&[], &no_open), None);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut s = FrFcfs;
        let queue = vec![q(1, 0, 0, 10), q(2, 0, 0, 20), q(3, 0, 0, 20)];
        let open = |_: RankId, b: u16| if b == 0 { Some(RowId(20)) } else { None };
        // Oldest row hit is id 2 (index 1), despite id 1 being older.
        assert_eq!(s.pick(&queue, &open), Some(1));
        // Without an open row, oldest wins.
        assert_eq!(s.pick(&queue, &no_open), Some(0));
    }

    #[test]
    fn parbs_caps_per_source_and_prioritizes_batch() {
        let mut s = ParBs::new(1);
        // Source 0 floods; source 1 has one old request.
        let queue = vec![q(1, 0, 0, 1), q(2, 0, 0, 2), q(3, 1, 1, 3)];
        // Batch = {1 (src0 oldest), 3 (src1 oldest)}. Pick oldest in batch.
        assert_eq!(s.pick(&queue, &no_open), Some(0));
        s.on_complete(1);
        let queue = vec![q(2, 0, 0, 2), q(3, 1, 1, 3)];
        // Request 2 is NOT in the batch; 3 is.
        assert_eq!(s.pick(&queue, &no_open), Some(1));
        s.on_complete(3);
        // Batch drained: a new batch forms and 2 is serviced.
        let queue = vec![q(2, 0, 0, 2)];
        assert_eq!(s.pick(&queue, &no_open), Some(0));
    }

    #[test]
    fn parbs_prefers_row_hits_within_batch() {
        let mut s = ParBs::new(2);
        let queue = vec![q(1, 0, 0, 10), q(2, 0, 0, 20)];
        let open = |_: RankId, _: u16| Some(RowId(20));
        assert_eq!(s.pick(&queue, &open), Some(1));
    }

    #[test]
    fn parbs_picks_while_requests_are_queued_even_without_on_complete() {
        let mut s = ParBs::new(1);
        assert_eq!(s.pick(&[q(1, 0, 0, 1), q(2, 0, 0, 2)], &no_open), Some(0));
        // Id 1 leaves the queue unannounced, so the batch names only a
        // request that is gone; the pick must still serve id 2.
        assert_eq!(s.pick(&[q(2, 0, 0, 2)], &no_open), Some(0));
    }

    #[test]
    fn factory_names() {
        assert_eq!(make_scheduler(SchedulerKind::Fcfs).name(), "FCFS");
        assert_eq!(make_scheduler(SchedulerKind::FrFcfs).name(), "FR-FCFS");
        assert_eq!(make_scheduler(SchedulerKind::ParBs).name(), "PAR-BS");
    }
}
