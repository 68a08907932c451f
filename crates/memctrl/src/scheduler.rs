//! Request schedulers: FCFS, FR-FCFS, and PAR-BS.
//!
//! The evaluation system schedules with **PAR-BS** (Table 4,
//! [Mutlu & Moscibroda, ISCA'08]): requests are grouped into batches with
//! a per-source cap; the current batch is serviced to completion before
//! newer requests, which bounds inter-thread interference. Within a batch
//! (and for the simpler policies) the classic **FR-FCFS** rule applies:
//! row-buffer hits first, then oldest first.
//!
//! FCFS and FR-FCFS pick in one pass over the queue. PAR-BS records its
//! members' coordinates when a batch forms, in one pass that keeps each
//! source's oldest requests. A pick then walks the member list, not the
//! queue, and scans the queue only for the chosen member's id (see
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
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| q.id)
            .map(|(i, _)| i)
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
        // One pass: the oldest row hit, else the oldest. `open_row` is
        // asked only about a request that would beat the best hit so
        // far. Strict comparisons keep the lowest index among equal ids.
        let mut hit: Option<(u64, usize)> = None;
        let mut first: Option<(u64, usize)> = None;
        for (i, q) in queue.iter().enumerate() {
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
}

/// Parallelism-aware batch scheduling.
///
/// A batch takes each source's `batch_cap` oldest queued requests. When
/// it forms, `ParBs` records each member's id, rank, bank and row,
/// ascending by id. A pick walks that member list: the first member
/// whose row is open wins, otherwise the first member, and the queue is
/// then searched for that member's id. A pick therefore asks `open_row`
/// about members only, up to the first hit, and reads at most one id per
/// queued request.
///
/// Membership is "is in the batch". The ascending member ids are the
/// snapshot and digest encoding and tell when the batch has drained.
/// `load_state` restores ids only: the first pick after a restore drops
/// the ids that are no longer queued and reads the rest's coordinates
/// from the queue.
#[derive(Debug, Clone)]
pub struct ParBs {
    batch_cap: usize,
    /// The batch, ascending by id.
    members: Vec<Member>,
    /// `load_state` replaced the batch, and the next pick resolves it
    /// against the queue.
    restored: bool,
    /// Scratch for batch formation: each queued source and how many of
    /// its requests `oldest` holds.
    grants: Vec<(u16, usize)>,
    /// Scratch for batch formation: `batch_cap` slots per grant, holding
    /// that source's oldest requests in ascending id order.
    oldest: Vec<Member>,
}

/// A batch member: a queued request's id and the row it needs open.
#[derive(Debug, Clone, Copy, Default)]
struct Member {
    id: u64,
    rank: RankId,
    bank: u16,
    row: RowId,
}

impl Member {
    fn of(q: &QueuedRequest) -> Member {
        Member {
            id: q.id,
            rank: q.access.rank,
            bank: q.access.bank,
            row: q.access.row,
        }
    }
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
            members: Vec::new(),
            restored: false,
            grants: Vec::new(),
            oldest: Vec::new(),
        }
    }

    fn form_batch(&mut self, queue: &[QueuedRequest]) {
        // One pass over the (unsorted) queue: each source's grant keeps
        // its `cap` oldest requests, ascending.
        let cap = self.batch_cap;
        self.grants.clear();
        self.oldest.clear();
        for q in queue {
            let slot = match self.grants.iter().position(|&(s, _)| s == q.req.source) {
                Some(slot) => slot,
                None => {
                    self.grants.push((q.req.source, 0));
                    self.oldest
                        .resize(self.oldest.len() + cap, Member::default());
                    self.grants.len() - 1
                }
            };
            let kept = &mut self.grants[slot].1;
            let held = &mut self.oldest[slot * cap..][..cap];
            if *kept == cap && q.id >= held[cap - 1].id {
                continue;
            }
            let at = held[..*kept].partition_point(|m| m.id < q.id);
            *kept = (*kept + 1).min(cap);
            held.copy_within(at..*kept - 1, at + 1);
            held[at] = Member::of(q);
        }
        self.members.clear();
        for (slot, &(_, kept)) in self.grants.iter().enumerate() {
            self.members
                .extend_from_slice(&self.oldest[slot * cap..][..kept]);
        }
        self.members.sort_unstable_by_key(|m| m.id);
    }

    /// Drops restored ids that are no longer queued and reads the
    /// coordinates of the rest from the queue.
    fn adopt_restored(&mut self, queue: &[QueuedRequest]) {
        self.restored = false;
        self.members
            .retain_mut(|m| match queue.iter().find(|q| q.id == m.id) {
                Some(q) => {
                    *m = Member::of(q);
                    true
                }
                None => false,
            });
    }

    /// The queue slot of the oldest queued member whose row is open,
    /// else of the oldest queued member. A member that left the queue
    /// without `on_complete` is passed over.
    fn walk_members(
        &self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        let slot = |m: &Member| queue.iter().position(|q| q.id == m.id);
        self.members
            .iter()
            .filter(|m| open_row(m.rank, m.bank) == Some(m.row))
            .find_map(slot)
            .or_else(|| self.members.iter().find_map(slot))
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
        if self.restored {
            self.adopt_restored(queue);
        }
        if self.members.is_empty() {
            self.form_batch(queue);
        }
        self.walk_members(queue, open_row).or_else(|| {
            // Every member left the queue without `on_complete`, which
            // the controller never does: start a new batch.
            self.form_batch(queue);
            self.walk_members(queue, open_row)
        })
    }

    fn on_complete(&mut self, id: u64) {
        if let Ok(i) = self.members.binary_search_by_key(&id, |m| m.id) {
            self.members.remove(i);
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        // The batch is a pure set, kept sorted: canonical as-is.
        w.put_usize(self.members.len());
        for m in &self.members {
            w.put_u64(m.id);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.restored = true;
        let n = r.take_usize()?;
        self.members.clear();
        for _ in 0..n {
            let id = r.take_u64()?;
            self.members.push(Member {
                id,
                ..Member::default()
            });
        }
        // Snapshots we write are ascending, but the set semantics never
        // depended on blob order — normalize rather than reject.
        self.members.sort_unstable_by_key(|m| m.id);
        self.members.dedup_by_key(|m| m.id);
        Ok(())
    }

    fn digest_state(&self, d: &mut StateDigest) {
        for m in &self.members {
            d.write_u64(m.id);
        }
    }
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

    fn batch_ids(s: &ParBs) -> Vec<u64> {
        s.members.iter().map(|m| m.id).collect()
    }

    #[test]
    fn parbs_passes_over_members_that_leave_without_on_complete() {
        let mut s = ParBs::new(2);
        let queue = vec![
            q(1, 0, 0, 10),
            q(2, 0, 1, 20),
            q(3, 1, 0, 30),
            q(4, 1, 1, 20),
            q(5, 0, 1, 20),
        ];
        assert_eq!(s.pick(&queue, &no_open), Some(0));
        assert_eq!(batch_ids(&s), [1, 2, 3, 4]);
        // Ids 1 and 2 leave unannounced. Row 20 is open: id 2 is the
        // oldest member on it but is gone, and id 5 is not a member, so
        // the pick is id 4, ahead of the older member id 3.
        let open = |_: RankId, b: u16| (b == 1).then_some(RowId(20));
        let queue = vec![q(5, 0, 1, 20), q(3, 1, 0, 30), q(4, 1, 1, 20)];
        assert_eq!(s.pick(&queue, &open), Some(2));
        assert_eq!(batch_ids(&s), [1, 2, 3, 4], "kept until the batch re-forms");
        // Ids 3 and 4 leave unannounced too. No member is queued, so a
        // new batch forms from what is.
        let queue = vec![q(6, 1, 0, 30), q(5, 0, 1, 20)];
        assert_eq!(s.pick(&queue, &open), Some(1));
        assert_eq!(batch_ids(&s), [5, 6]);
    }

    #[test]
    fn parbs_serves_a_restored_batch_that_is_not_the_oldest_requests() {
        // A hand-made batch: source 0's id 3 but not its older id 1,
        // source 1's id 2, and id 9, which is not queued.
        let mut w = SnapshotWriter::new();
        w.put_usize(3);
        for id in [3, 2, 9] {
            w.put_u64(id);
        }
        let blob = w.finish();
        let mut s = ParBs::new(1);
        s.load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
            .expect("restore");
        let mut queue = vec![
            q(1, 0, 0, 10),
            q(2, 1, 1, 20),
            q(3, 0, 0, 30),
            q(4, 1, 1, 40),
        ];
        let open = |_: RankId, b: u16| (b == 0).then_some(RowId(30));
        // Id 3's row is open: a member hit beats the older members.
        assert_eq!(s.pick(&queue, &open), Some(2));
        assert_eq!(batch_ids(&s), [2, 3], "id 9 is not queued and is dropped");
        s.on_complete(queue.swap_remove(2).id);
        // Id 2 is a member and the older id 1 is not.
        assert_eq!(s.pick(&queue, &no_open), Some(1));
        s.on_complete(queue.swap_remove(1).id);
        // Drained: the next batch is each source's oldest request.
        assert_eq!(s.pick(&queue, &no_open), Some(0));
        assert_eq!(batch_ids(&s), [1, 4]);
    }

    #[test]
    fn parbs_batches_sparse_source_numbers() {
        let mut s = ParBs::new(2);
        let mut queue = vec![
            q(10, u16::MAX, 0, 1),
            q(11, 900, 1, 2),
            q(12, 40_000, 0, 3),
            q(13, u16::MAX, 1, 4),
            q(14, 900, 0, 5),
            q(15, u16::MAX, 0, 6),
            q(16, 900, 1, 7),
            q(17, 40_000, 1, 8),
        ];
        // Ids 15 and 17 have their rows open; only 17 is a member.
        let open = |_: RankId, b: u16| Some(if b == 0 { RowId(6) } else { RowId(8) });
        assert_eq!(s.pick(&queue, &open), Some(7));
        assert_eq!(batch_ids(&s), [10, 11, 12, 13, 14, 17]);
        let mut served = Vec::new();
        while let Some(i) = s.pick(&queue, &no_open) {
            let id = queue.swap_remove(i).id;
            s.on_complete(id);
            served.push(id);
        }
        // The first pick was never completed, so id 17 is still a member.
        assert_eq!(served, [10, 11, 12, 13, 14, 17, 15, 16]);
    }

    #[test]
    fn factory_names() {
        assert_eq!(make_scheduler(SchedulerKind::Fcfs).name(), "FCFS");
        assert_eq!(make_scheduler(SchedulerKind::FrFcfs).name(), "FR-FCFS");
        assert_eq!(make_scheduler(SchedulerKind::ParBs).name(), "PAR-BS");
    }
}
