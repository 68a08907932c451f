//! The traced run's span record, kept in memory and written out at the
//! end. Spans are recorded by this benchmark around its calls into the
//! program. A call made once per cell gets a span of its own; calls
//! made per request or per ACT are aggregated into one span per cell
//! with a call count, the busy time they sum to, and a log2 histogram.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;
use twice_obs::Log2Hist;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call (`decode`, `system_new`, `feed`, ...).
    pub name: &'static str,
    /// The cell (trace × defense, or stream × defense) it belongs to.
    pub cell: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
    /// Time inside those calls (equals `end_ns - start_ns` for a single
    /// call).
    pub busy_ns: u64,
    /// Per-call distribution of an aggregated span: ns per call, or for
    /// ACT batches ns per ACT.
    pub hist: Option<Box<Log2Hist>>,
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a single-call span now; returns its id for [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, cell: u32, parent: Option<usize>) -> usize {
        let start_ns = self.offset(Instant::now());
        self.spans.push(SpanRec {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
            hist: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.offset(Instant::now());
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns.saturating_sub(s.start_ns);
        s.busy_ns
    }

    /// Records an aggregated span of `calls` calls between `start` and
    /// `end` that were busy for `busy_ns`.
    #[allow(clippy::too_many_arguments)] // one field per SpanRec column
    pub fn aggregate(
        &mut self,
        name: &'static str,
        cell: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
        hist: Log2Hist,
    ) {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(SpanRec {
            name,
            cell,
            parent,
            start_ns,
            end_ns,
            calls,
            busy_ns,
            hist: Some(Box::new(hist)),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span name: busy time minus the busy time of
    /// its direct children, summed per name, in first-seen order.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(child_busy) {
            let own = s.busy_ns.saturating_sub(kids);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(row) => row.1 += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"cell\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}",
                s.name, s.cell, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
            if let Some(h) = &s.hist {
                // Non-empty log2 buckets as [bucket, count] pairs.
                out.push_str(", \"log2_hist\": [");
                let mut first = true;
                for (b, &c) in h.buckets().iter().enumerate().filter(|(_, &c)| c > 0) {
                    let sep = if first { "" } else { ", " };
                    let _ = write!(out, "{sep}[{b}, {c}]");
                    first = false;
                }
                out.push(']');
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::default();
        let root = r.open("cell", 0, None);
        let kid = r.open("decode", 0, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(kid);
        r.close(root);
        let by_name = r.self_ns_by_name();
        let get = |n: &str| by_name.iter().find(|(k, _)| *k == n).map(|r| r.1).unwrap();
        let (root_busy, kid_busy) = (r.spans()[root].busy_ns, r.spans()[kid].busy_ns);
        assert!(kid_busy >= 2_000_000);
        assert_eq!(get("decode"), kid_busy);
        assert_eq!(get("cell"), root_busy - kid_busy);
    }
}
