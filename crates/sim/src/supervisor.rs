//! Cell supervision: panic isolation and the retry → quarantine ladder.
//!
//! Every fresh cell of a [`crate::grid`] run runs inside
//! [`Supervisor::supervise`]: `catch_unwind` around each attempt, linear
//! backoff between attempts, [`CellError::Quarantined`] once the budget
//! is spent — the run degrades instead of aborting.
//!
//! One retry rule holds for every driver: only [`CellError::Io`] earns
//! another attempt. Chaos cells and red-team evaluations are
//! deterministic — a panic, an exhausted sim-time budget or a seeded
//! device fault strikes before the epoch's checkpoint is written, so a
//! retry would replay it — and a wall-clock overrun is the cell's
//! result, not a fault to wait out. Storage is the one thing that heals.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use crate::outcome::CellError;

thread_local! {
    // True while this thread is inside a supervised body. The quiet
    // panic hook consults it: a panic raised here is caught and becomes
    // the cell's error, so the default "thread panicked" report (and
    // backtrace) would only flood stderr.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a forwarding panic hook that stays
/// silent for panics raised inside [`Supervisor::supervise`] and
/// delegates everything else to the previously installed hook.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPERVISED.with(Cell::get) {
                return;
            }
            prev(info);
        }));
    });
}

/// RAII marker for the supervised section; restores the flag's prior
/// value so nested supervisors stay quiet for their whole extent.
struct SupervisedScope {
    prior: bool,
}

impl SupervisedScope {
    fn enter() -> SupervisedScope {
        let prior = SUPERVISED.with(|f| f.replace(true));
        SupervisedScope { prior }
    }
}

impl Drop for SupervisedScope {
    fn drop(&mut self) {
        let prior = self.prior;
        SUPERVISED.with(|f| f.set(prior));
    }
}

/// Renders a `catch_unwind` payload: string payloads verbatim, anything
/// else a fixed marker.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The retry → quarantine ladder for one cell.
#[derive(Debug, Clone, Copy)]
pub struct Supervisor {
    attempts: u32,
    backoff_ms: u64,
}

impl Supervisor {
    /// A supervisor making up to `attempts` attempts (floored at 1)
    /// with linear backoff between them.
    pub fn new(attempts: u32, backoff_ms: u64) -> Supervisor {
        Supervisor {
            attempts: attempts.max(1),
            backoff_ms,
        }
    }

    /// Runs `body` under `catch_unwind` until it succeeds, fails with
    /// anything but [`CellError::Io`] (returned as is), or the attempt
    /// budget is spent on I/O failures — then quarantines, preserving
    /// the final attempt's failure as the cause. `on_retry` is called
    /// before each re-attempt with the attempt number that just failed
    /// (so the caller can count first retries on its ledger).
    ///
    /// Panics raised inside `body` do not reach the default panic hook:
    /// they are caught here, converted to [`CellError::Panicked`], and
    /// reported through the ladder instead of spraying backtraces on
    /// stderr once per attempt.
    pub fn supervise<T>(
        &self,
        mut body: impl FnMut(u32) -> Result<T, CellError>,
        mut on_retry: impl FnMut(u32),
    ) -> Result<T, CellError> {
        install_quiet_hook();
        let mut attempt = 1;
        loop {
            let outcome = {
                let _quiet = SupervisedScope::enter();
                catch_unwind(AssertUnwindSafe(|| body(attempt)))
            };
            let err = match outcome {
                Ok(Ok(value)) => return Ok(value),
                Ok(Err(e)) => e,
                Err(payload) => CellError::Panicked(panic_message(payload)),
            };
            let CellError::Io(why) = err else {
                return Err(err);
            };
            if attempt >= self.attempts {
                // The bare OS message: `CellError::Io` renders as a
                // journal failure, but the write that kept failing is as
                // often a checkpoint.
                return Err(CellError::Quarantined {
                    attempts: attempt,
                    cause: why,
                });
            }
            on_retry(attempt);
            if self.backoff_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(
                    self.backoff_ms.saturating_mul(u64::from(attempt)),
                ));
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_never_retries() {
        let mut retries = 0;
        let out = Supervisor::new(3, 0).supervise(|_| Ok::<_, CellError>(7), |_| retries += 1);
        assert_eq!(out, Ok(7));
        assert_eq!(retries, 0);
    }

    #[test]
    fn transient_failures_heal_on_retry() {
        let mut retries = 0;
        let out = Supervisor::new(3, 0).supervise(
            |attempt| {
                if attempt < 3 {
                    Err(CellError::Io("flaky disk".to_string()))
                } else {
                    Ok(attempt)
                }
            },
            |_| retries += 1,
        );
        assert_eq!(out, Ok(3));
        assert_eq!(retries, 2);
    }

    #[test]
    fn persistent_io_failures_are_quarantined() {
        let out: Result<(), _> =
            Supervisor::new(2, 0).supervise(|_| Err(CellError::Io("ENOSPC".to_string())), |_| {});
        assert_eq!(
            out,
            Err(CellError::Quarantined {
                attempts: 2,
                cause: "ENOSPC".to_string()
            })
        );
    }

    #[test]
    fn panics_are_caught_and_never_retried() {
        let mut tries = 0u32;
        let out: Result<(), _> = Supervisor::new(3, 0).supervise(
            |attempt| {
                tries += 1;
                panic!("injected cell panic on attempt {attempt}")
            },
            |_| panic!("a panic must not be retried"),
        );
        assert_eq!(
            out,
            Err(CellError::Panicked(
                "injected cell panic on attempt 1".to_string()
            ))
        );
        assert_eq!(tries, 1);
    }

    #[test]
    fn deadline_overruns_are_returned_unretried() {
        let mut tries = 0u32;
        let overrun = CellError::SimTimeExceeded {
            budget_ps: 1,
            done: 128,
        };
        let out: Result<(), _> = Supervisor::new(3, 0).supervise(
            |_| {
                tries += 1;
                Err(overrun.clone())
            },
            |_| panic!("an overrun must not be retried"),
        );
        assert_eq!(out, Err(overrun));
        assert_eq!(tries, 1);
    }

    #[test]
    fn attempt_floor_is_one() {
        let mut tries = 0u32;
        let _ = Supervisor::new(0, 0).supervise(
            |_| -> Result<(), _> {
                tries += 1;
                Err(CellError::Io("x".to_string()))
            },
            |_| {},
        );
        assert_eq!(tries, 1);
    }
}
