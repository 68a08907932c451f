//! The PAR-BS scheduler as it was before batch membership became a
//! per-source id bound, kept as the reference the production
//! [`ParBs`](twice_memctrl::scheduler::ParBs) is checked against.
//!
//! The batch is a sorted id vector with binary-search membership. Every
//! pick first sweeps out batch ids that are no longer queued, then
//! re-forms the batch from the whole queue, sorted, once it drains. The
//! pick itself tracks three FR-FCFS tiers with `(id, index)` keys: the
//! oldest member row hit, the oldest member, the oldest request.

use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use twice_common::{RankId, RowId};
use twice_memctrl::scheduler::{QueuedRequest, Scheduler};

/// The reference PAR-BS.
#[derive(Debug, Clone)]
pub struct ReferenceParBs {
    batch_cap: usize,
    batch: Vec<u64>,
    per_source: Vec<(u16, usize)>,
}

impl ReferenceParBs {
    pub fn new(batch_cap: usize) -> ReferenceParBs {
        assert!(batch_cap > 0, "batch cap must be non-zero");
        ReferenceParBs {
            batch_cap,
            batch: Vec::new(),
            per_source: Vec::new(),
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.batch.binary_search(&id).is_ok()
    }

    fn form_batch(&mut self, queue: &[QueuedRequest]) {
        let mut order: Vec<(u64, u16)> = queue.iter().map(|q| (q.id, q.req.source)).collect();
        order.sort_unstable();
        self.per_source.clear();
        for (id, source) in order {
            let n = match self.per_source.iter_mut().find(|(s, _)| *s == source) {
                Some((_, n)) => n,
                None => {
                    self.per_source.push((source, 0));
                    &mut self.per_source.last_mut().expect("just pushed").1
                }
            };
            if *n < self.batch_cap {
                *n += 1;
                self.batch.push(id);
            }
        }
    }
}

impl Scheduler for ReferenceParBs {
    fn name(&self) -> &str {
        "PAR-BS (reference)"
    }

    fn pick(
        &mut self,
        queue: &[QueuedRequest],
        open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    ) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        self.batch.retain(|id| queue.iter().any(|q| q.id == *id));
        if self.batch.is_empty() {
            self.form_batch(queue);
        }
        pick_fr_fcfs(queue, open_row, |q| self.contains(q.id))
    }

    fn on_complete(&mut self, id: u64) {
        if let Ok(i) = self.batch.binary_search(&id) {
            self.batch.remove(i);
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.batch.len());
        for id in &self.batch {
            w.put_u64(*id);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.take_usize()?;
        self.batch.clear();
        for _ in 0..n {
            self.batch.push(r.take_u64()?);
        }
        self.batch.sort_unstable();
        self.batch.dedup();
        Ok(())
    }
}

fn pick_fr_fcfs(
    queue: &[QueuedRequest],
    open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    eligible: impl Fn(&QueuedRequest) -> bool,
) -> Option<usize> {
    let mut hit: Option<(u64, usize)> = None;
    let mut elig: Option<(u64, usize)> = None;
    let mut any: Option<(u64, usize)> = None;
    for (i, q) in queue.iter().enumerate() {
        let key = (q.id, i);
        if any.is_none_or(|b| key < b) {
            any = Some(key);
        }
        if eligible(q) {
            if elig.is_none_or(|b| key < b) {
                elig = Some(key);
            }
            if open_row(q.access.rank, q.access.bank) == Some(q.access.row)
                && hit.is_none_or(|b| key < b)
            {
                hit = Some(key);
            }
        }
    }
    hit.or(elig).or(any).map(|(_, i)| i)
}
