//! DRAM page (row-buffer) management.
//!
//! After serving a column access the controller must decide whether to
//! keep the row open. The evaluation system uses the **minimalist-open**
//! policy (Table 4, [Kaseridis et al., MICRO'11]): keep the row open only
//! long enough to capture a small burst of spatially-adjacent hits, then
//! precharge — a middle ground that both bounds row-buffer-conflict
//! latency and, relevant to row-hammering, avoids the one-ACT-per-access
//! pathology of a strict closed-page policy.

/// When to close an open row. Minimalist-open is the only policy; the
/// enum stays because Table 4 prints its `Debug` form and layerbench's
/// controller copy calls [`close_after_access`](Self::close_after_access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Keep the row open for at most `max_hits` column accesses
    /// (minimalist-open; the paper's system uses 4).
    MinimalistOpen {
        /// Column accesses served before the row is closed.
        max_hits: u32,
    },
}

impl PagePolicy {
    /// The Table 4 configuration.
    pub fn paper_default() -> PagePolicy {
        PagePolicy::MinimalistOpen { max_hits: 4 }
    }

    /// Decides whether to precharge after a column access that leaves the
    /// row with `hits_served` accesses, with `queued_hits` more row hits
    /// waiting in the queue.
    pub fn close_after_access(&self, hits_served: u32, queued_hits: usize) -> bool {
        match *self {
            PagePolicy::MinimalistOpen { max_hits } => hits_served >= max_hits || queued_hits == 0,
        }
    }
}

impl Default for PagePolicy {
    fn default() -> Self {
        PagePolicy::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimalist_open_bounds_hits() {
        let p = PagePolicy::paper_default();
        assert!(!p.close_after_access(1, 5));
        assert!(!p.close_after_access(3, 5));
        assert!(p.close_after_access(4, 5), "hit budget exhausted");
        assert!(p.close_after_access(1, 0), "no queued hits");
    }
}
