//! Typed per-cell results for experiment grids.
//!
//! Long campaigns are grids of independent cells (workload × defense ×
//! fault configuration). A malformed configuration, an exhausted retry
//! budget, or a panic inside one cell must degrade *that cell*, not the
//! whole process — so every experiment records a [`Cell`] per grid
//! position and renders failures as table rows instead of unwinding.

use std::fmt;

/// Why a grid cell failed to produce its metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// A SPEC application name had no model.
    UnknownApp(String),
    /// The simulation configuration failed validation.
    InvalidConfig(String),
    /// The controller's nack-retry budget ran out where the experiment
    /// did not expect faults.
    RetryExhausted(String),
    /// A checkpoint blob was rejected (checksum, shape, or digest).
    BadCheckpoint(String),
    /// An expected row was missing from a result set.
    MissingResult(String),
    /// The cell's body panicked; the payload message is salvaged.
    Panicked(String),
    /// The cell exceeded its host wall-clock budget.
    WallClockExceeded {
        /// The configured budget, in milliseconds.
        budget_ms: u64,
        /// Requests fed before the watchdog fired.
        done: u64,
    },
    /// The cell exceeded its simulated-time budget.
    SimTimeExceeded {
        /// The configured budget, in picoseconds of simulated time.
        budget_ps: u64,
        /// Requests fed before the watchdog fired.
        done: u64,
    },
    /// Journal or checkpoint I/O failed.
    Io(String),
    /// The cell's I/O kept failing and it was quarantined after
    /// exhausting its retry budget (only I/O failures are retried, see
    /// [`crate::supervisor`]); the run completed in degraded mode
    /// without it.
    Quarantined {
        /// How many whole-cell attempts were made before giving up.
        attempts: u32,
        /// The final attempt's failure.
        cause: String,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::UnknownApp(name) => write!(f, "unknown SPEC app {name}"),
            CellError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            CellError::RetryExhausted(why) => write!(f, "retry budget exhausted: {why}"),
            CellError::BadCheckpoint(why) => write!(f, "checkpoint rejected: {why}"),
            CellError::MissingResult(what) => write!(f, "missing result: {what}"),
            CellError::Panicked(msg) => write!(f, "panicked: {msg}"),
            CellError::WallClockExceeded { budget_ms, done } => {
                write!(
                    f,
                    "wall-clock budget {budget_ms} ms exceeded after {done} requests"
                )
            }
            CellError::SimTimeExceeded { budget_ps, done } => {
                write!(
                    f,
                    "sim-time budget {budget_ps} ps exceeded after {done} requests"
                )
            }
            CellError::Io(why) => write!(f, "journal I/O failed: {why}"),
            CellError::Quarantined { attempts, cause } => {
                write!(f, "quarantined after {attempts} attempts: {cause}")
            }
        }
    }
}

impl std::error::Error for CellError {}

/// One grid cell's outcome: which experiment, which cell, and either the
/// measured value or the typed failure.
#[derive(Debug, Clone)]
pub struct Cell<T> {
    /// The experiment this cell belongs to (e.g. `"table1"`).
    pub experiment: &'static str,
    /// The cell's position in the grid (e.g. `"S3/CBT-256"`).
    pub cell: String,
    /// The measurement, or why it could not be taken.
    pub result: Result<T, CellError>,
}

impl<T> Cell<T> {
    /// Wraps a successful measurement.
    pub fn ok(experiment: &'static str, cell: impl Into<String>, value: T) -> Cell<T> {
        Cell {
            experiment,
            cell: cell.into(),
            result: Ok(value),
        }
    }

    /// Wraps a typed failure.
    pub fn err(experiment: &'static str, cell: impl Into<String>, error: CellError) -> Cell<T> {
        Cell {
            experiment,
            cell: cell.into(),
            result: Err(error),
        }
    }

    /// The measurement, if the cell completed.
    pub fn value(&self) -> Option<&T> {
        self.result.as_ref().ok()
    }

    /// A one-line `experiment=… cell=… cause=…` description of a failed
    /// cell (None for completed cells).
    pub fn error_line(&self) -> Option<String> {
        self.result.as_ref().err().map(|e| {
            format!(
                "experiment={} cell={} cause=\"{e}\"",
                self.experiment, self.cell
            )
        })
    }
}

/// Iterates the completed values of a cell slice.
pub fn completed<T>(cells: &[Cell<T>]) -> impl Iterator<Item = &T> {
    cells.iter().filter_map(|c| c.result.as_ref().ok())
}

/// Finds the completed cell whose value satisfies `pred`, or returns a
/// typed [`CellError::MissingResult`] describing `what`.
pub fn require<'a, T>(
    cells: &'a [Cell<T>],
    what: &str,
    mut pred: impl FnMut(&T) -> bool,
) -> Result<&'a T, CellError> {
    completed(cells)
        .find(|v| pred(v))
        .ok_or_else(|| CellError::MissingResult(what.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_line_is_structured() {
        let c: Cell<u32> = Cell::err("table1", "S3/CBT", CellError::UnknownApp("nope".into()));
        assert_eq!(
            c.error_line().unwrap(),
            "experiment=table1 cell=S3/CBT cause=\"unknown SPEC app nope\""
        );
        assert!(Cell::ok("table1", "S3/CBT", 1u32).error_line().is_none());
    }

    #[test]
    fn require_reports_missing_rows() {
        let cells = vec![
            Cell::ok("t", "a", 1u32),
            Cell::err("t", "b", CellError::Panicked("boom".into())),
        ];
        assert_eq!(*require(&cells, "a", |v| *v == 1).unwrap(), 1);
        let err = require(&cells, "value 2", |v| *v == 2).unwrap_err();
        assert!(matches!(err, CellError::MissingResult(_)), "{err:?}");
    }
}
