//! A fixed-size `std::thread` worker pool for independent grid cells.
//!
//! The workspace stays offline (no rayon), so the experiment grids and
//! the supervised [`crate::grid`] runner share this one primitive:
//! [`parallel_map`] claims item indices from an atomic counter, runs
//! each item to completion on whichever worker claimed it, and returns
//! the results **in input order** — callers see exactly what a serial
//! loop would have produced, which is what makes the runners'
//! `--jobs`-equivalence guarantee (DESIGN.md §5e) testable. With one
//! worker it *is* that serial loop, on the calling thread, so there is
//! no separate `--jobs 1` code path to keep in step.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: the host's available parallelism, or 1 when
/// it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` across at most `jobs` worker
/// threads and returns the results in input order.
///
/// `jobs <= 1` degenerates to the plain serial loop on the calling
/// thread — same closure, same order, no threads — so a `--jobs 1` run
/// is the serial run, not an emulation of it. Each item is claimed by
/// exactly one worker and owned end-to-end; a panicking closure
/// propagates out of the pool after the remaining workers finish.
pub fn parallel_map<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        produced.push((i, f(i, &items[i])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => {
                    for (i, out) in part {
                        slots[i] = Some(out);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(1, &items, |i, v| (i as u64) * 1000 + v * v);
        for jobs in [2, 3, 8, 200] {
            let parallel = parallel_map(jobs, &items, |i, v| (i as u64) * 1000 + v * v);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let out = parallel_map(7, &items, |_, v| {
            hits.fetch_add(1, Ordering::Relaxed);
            *v
        });
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        assert!(parallel_map(4, &items, |_, v| *v).is_empty());
    }

    #[test]
    fn worker_panics_propagate() {
        let items = [1u8, 2, 3];
        let result = std::panic::catch_unwind(|| {
            parallel_map(2, &items, |_, v| {
                if *v == 2 {
                    panic!("boom");
                }
                *v
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }
}
