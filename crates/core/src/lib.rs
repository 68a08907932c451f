#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

//! TWiCe: Time Window Counter based row-hammer prevention (ISCA 2019).
//!
//! This crate implements the paper's contribution: a per-bank activation
//! counter table whose size is **provably bounded** by DRAM timing, which
//! detects every row whose activation count could reach the row-hammer
//! threshold within a refresh window and refreshes its physical neighbors
//! (via the ARR command) before corruption is possible — with **no false
//! negatives** and negligible extra DRAM traffic.
//!
//! The key observation (§4.1): a bank accepts at most one ACT per `tRC`
//! and every row is refreshed once per `tREFW`, so only a bounded number
//! of rows can be activation-hot enough to matter. TWiCe tracks *only*
//! those rows, pruning cold entries at every auto-refresh.
//!
//! Module map:
//!
//! * [`params`] — [`TwiceParams`]: thresholds and the derived Table 2
//!   values (`thPI`, `maxact`, `maxlife`).
//! * [`entry`] — the counter-table entry and the pruning rule.
//! * [`table`] — the [`table::CounterTable`] abstraction.
//! * [`soa`] — the three organizations on one struct-of-arrays layout
//!   with generation-stamped lazy pruning: fa-TWiCe, the
//!   fully-associative (CAM) table; pa-TWiCe, the pseudo-associative
//!   table with set-borrowing indicators (§6.1); and the split
//!   short/long-entry table (§6.2). Their observable behavior is pinned
//!   against a test-only executable spec (`tests/spec/mod.rs`).
//! * [`engine`] — [`TwiceEngine`], the
//!   [`twice_common::RowHammerDefense`] implementation.
//! * [`bound`] — the §4.4 analytic capacity bound and an adversarial
//!   cross-check.
//! * [`cost`] — the Table 3 area/energy/latency model.
//! * [`forensics`] — detection aggregation and incident reports (the
//!   "take action" capability counter-based schemes enable).
//!
//! # Examples
//!
//! Detecting a hammering row:
//!
//! ```
//! use twice::{TwiceEngine, TwiceParams};
//! use twice_common::{BankId, RowId, RowHammerDefense, Time};
//!
//! let params = TwiceParams::paper_default();
//! let th_rh = params.th_rh;
//! let mut engine = TwiceEngine::new(params, 1);
//!
//! let mut now = Time::ZERO;
//! let step = engine.params().timings.t_rc;
//! let mut detected = false;
//! for _ in 0..th_rh {
//!     let resp = engine.on_activate(BankId(0), RowId(0x50), now);
//!     detected |= resp.detection.is_some();
//!     now += step;
//! }
//! assert!(detected, "thRH activations must be detected");
//! ```

pub mod bound;
pub mod cost;
pub mod engine;
pub mod entry;
pub mod forensics;
pub mod params;
pub mod soa;
pub mod table;

pub use bound::CapacityBound;
pub use engine::{TableOrganization, TwiceEngine};
pub use entry::TableEntry;
pub use forensics::DetectionLog;
pub use params::TwiceParams;
pub use soa::{SoaFa, SoaPa, SoaSplit};
pub use table::{CounterTable, RecordOutcome};
