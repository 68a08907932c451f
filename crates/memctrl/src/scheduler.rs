//! The PAR-BS request scheduler.
//!
//! The evaluation system schedules with **PAR-BS** (Table 4,
//! [Mutlu & Moscibroda, ISCA'08]): requests are grouped into batches with
//! a per-source cap; the current batch is serviced to completion before
//! newer requests, which bounds inter-thread interference. Within a batch
//! the FR-FCFS rule applies: row-buffer hits first, then oldest first.
//!
//! PAR-BS records its members' coordinates and queue slots when a batch
//! forms, in one pass that keeps each source's oldest requests. A pick
//! then walks the member list, not the queue, and reads the chosen
//! member's recorded slot; it scans the queue for the member's id only
//! when a removal has moved it (see [`ParBs`]).
//!
//! [`ChannelController`](crate::controller::ChannelController) holds a
//! [`ParBs`] by value. The [`Scheduler`] trait, [`make_scheduler`],
//! [`QueuedRequest`] and the one-variant [`SchedulerKind`] stay public
//! because layerbench keeps its own copy of the controller's service
//! loop (`layerbench/src/hooks.rs`), which builds its scheduler through
//! them.

use crate::addrmap::DecodedAccess;
use crate::request::MemRequest;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{RankId, RowId};

/// A request waiting in the controller queue, with its decoded coordinate.
///
/// layerbench's controller copy builds these field by field, so the
/// three fields are part of the API.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// Monotonic id assigned by the controller at enqueue.
    pub id: u64,
    /// The request.
    pub req: MemRequest,
    /// Its decoded DRAM coordinate.
    pub access: DecodedAccess,
}

/// Which scheduling policy to instantiate. PAR-BS is the only one; the
/// enum stays because `SimConfig::scheduler` names it and layerbench's
/// controller copy passes it to [`make_scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Batch scheduling with FR-FCFS inside the batch (Table 4).
    #[default]
    ParBs,
}

/// A request scheduler.
///
/// `open_row` reports the currently open row of `(rank, bank)` so the
/// scheduler can prefer row hits. [`ParBs`] implements it, and so does
/// the reference PAR-BS the lockstep test checks it against;
/// layerbench's controller copy calls it through a `Box<dyn Scheduler>`.
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
    fn on_complete(&mut self, id: u64);

    /// Serializes mutable scheduling state (checkpointing hook).
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Decode errors from a truncated or mismatched snapshot.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Creates a boxed scheduler of the given kind: the Table 4 PAR-BS of
/// [`ParBs::paper_default`]. layerbench's controller copy builds its
/// scheduler here.
pub fn make_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::ParBs => Box::new(ParBs::paper_default()),
    }
}

/// Parallelism-aware batch scheduling.
///
/// A batch takes each source's `batch_cap` oldest queued requests. When
/// it forms, `ParBs` records each member's id, rank, bank, row and queue
/// slot, ascending by id. A pick walks that member list: the first
/// member whose row is open wins, otherwise the first member. A pick
/// therefore asks `open_row` about members only, up to the first hit.
///
/// The recorded slot is a hint. A pick checks the queue at that slot
/// for the member's id, and scans the queue for the id only when the
/// check fails, which happens when the controller's `swap_remove` moved
/// the member; the scan then refreshes the hint. Queued ids are unique,
/// so the hint finds the slot a scan would.
///
/// Membership is "is in the batch". The ascending member ids are the
/// snapshot and digest encoding and tell when the batch has drained.
/// `load_state` restores ids only: the first pick after a restore drops
/// the ids that are no longer queued and reads the rest's coordinates
/// and slots from the queue.
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
    /// Scratch for batch formation: `batch_cap` places per grant, holding
    /// the `(id, queue slot)` of that source's oldest requests, ascending
    /// by id.
    oldest: Vec<(u64, usize)>,
}

/// A batch member: a queued request's id, the row it needs open, and
/// where in the queue it was last seen.
#[derive(Debug, Clone, Copy, Default)]
struct Member {
    id: u64,
    rank: RankId,
    bank: u16,
    row: RowId,
    /// The queue slot that held this member when it was last located.
    slot: usize,
}

impl Member {
    fn at(queue: &[QueuedRequest], slot: usize) -> Member {
        let q = &queue[slot];
        Member {
            id: q.id,
            rank: q.access.rank,
            bank: q.access.bank,
            row: q.access.row,
            slot,
        }
    }
}

impl ParBs {
    /// The Table 4 scheduler: at most 5 requests per source per batch.
    pub fn paper_default() -> ParBs {
        ParBs::new(5)
    }

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
        // the ids and slots of its `cap` oldest requests, ascending.
        let cap = self.batch_cap;
        self.grants.clear();
        self.oldest.clear();
        for (slot, q) in queue.iter().enumerate() {
            let g = match self.grants.iter().position(|&(s, _)| s == q.req.source) {
                Some(g) => g,
                None => {
                    self.grants.push((q.req.source, 0));
                    self.oldest.resize(self.oldest.len() + cap, (0, 0));
                    self.grants.len() - 1
                }
            };
            let kept = &mut self.grants[g].1;
            let held = &mut self.oldest[g * cap..][..cap];
            if *kept == cap && q.id >= held[cap - 1].0 {
                continue;
            }
            // Insertion step: a full grant drops its newest id.
            let mut at = (*kept).min(cap - 1);
            while at > 0 && held[at - 1].0 > q.id {
                held[at] = held[at - 1];
                at -= 1;
            }
            held[at] = (q.id, slot);
            *kept = (*kept + 1).min(cap);
        }
        self.members.clear();
        for (g, &(_, kept)) in self.grants.iter().enumerate() {
            let held = &self.oldest[g * cap..][..kept];
            self.members
                .extend(held.iter().map(|&(_, slot)| Member::at(queue, slot)));
        }
        self.members.sort_unstable_by_key(|m| m.id);
    }

    /// Drops restored ids that are no longer queued and reads the
    /// coordinates and slots of the rest from the queue.
    fn adopt_restored(&mut self, queue: &[QueuedRequest]) {
        self.restored = false;
        self.members
            .retain_mut(|m| match queue.iter().position(|q| q.id == m.id) {
                Some(slot) => {
                    *m = Member::at(queue, slot);
                    true
                }
                None => false,
            });
    }

    /// Member `i`'s queue slot, or `None` if it is no longer queued. The
    /// recorded slot is tried first; a scan by id refreshes it.
    fn locate(&mut self, i: usize, queue: &[QueuedRequest]) -> Option<usize> {
        let m = &mut self.members[i];
        if queue.get(m.slot).is_some_and(|q| q.id == m.id) {
            return Some(m.slot);
        }
        m.slot = queue.iter().position(|q| q.id == m.id)?;
        Some(m.slot)
    }

    /// The queue slot of the oldest queued member whose row is open,
    /// else of the oldest queued member. A member that left the queue
    /// without `on_complete` is passed over.
    fn walk_members(
        &mut self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        for i in 0..self.members.len() {
            let m = &self.members[i];
            if open_row(m.rank, m.bank) == Some(m.row) {
                if let Some(slot) = self.locate(i, queue) {
                    return Some(slot);
                }
            }
        }
        (0..self.members.len()).find_map(|i| self.locate(i, queue))
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
        assert_eq!(make_scheduler(SchedulerKind::ParBs).name(), "PAR-BS");
    }
}
