#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

//! Full-system simulation and experiment harness for the TWiCe
//! reproduction.
//!
//! This crate plays the role McSimA+ plays in the paper: it assembles
//! the Table 4 system (workload generators → per-channel memory
//! controllers → RCDs → DRAM ranks with the row-hammer fault model),
//! runs a workload under a chosen defense, and collects the metrics the
//! evaluation reports — above all Figure 7's *additional-ACT ratio*.
//!
//! * [`config`] — the simulated-system configuration (Table 4).
//! * [`system`] — the multi-channel [`system::System`].
//! * [`metrics`] — per-run metric records.
//! * [`runner`] — workload × defense runners.
//! * [`report`] — ASCII table rendering for experiment output.
//! * [`verify`] — end-to-end protection checks (DESIGN.md V1).
//! * [`experiments`] — one module per paper table/figure.
//! * [`outcome`] — typed per-cell results for experiment grids.
//! * [`checkpoint`] — epoch-based resumable runs with digests.
//! * [`journal`] — the JSONL cell-outcome journal.
//! * [`grid`] — the one supervised grid runner behind `chaos` and
//!   `redteam`: sweeps, the journal-shape check, journal salvage, the
//!   pooled cell loop, the epoch loop.
//! * [`campaign`] — the supervised, crash-safe chaos campaign (E4): the
//!   fault grid, its device-fault row and the `--sabotage` cells.
//! * [`parallel`] — the fixed-size worker pool behind `--jobs`.
//! * [`profile`] — the instrumented single-cell profiler behind
//!   `twice-exp profile` (Chrome trace_event export).
//! * [`cio`] — campaign storage I/O: durable writes, injectable
//!   storage faults, and the self-healing recovery ledger.
//! * [`supervisor`] — panic isolation and the I/O retry → quarantine
//!   ladder.
//! * [`tracecli`] — binary trace record/replay/verify through the
//!   campaign storage seam (`twice-exp trace …`).
//! * [`redteam`] — the adversarial hammer-pattern search and its
//!   regression corpus behind `twice-exp redteam`.
//!
//! # Examples
//!
//! Run the S3 attack under TWiCe on a scaled-down system:
//!
//! ```
//! use twice_sim::config::SimConfig;
//! use twice_sim::runner::{run, WorkloadKind};
//! use twice_mitigations::DefenseKind;
//! use twice::TableOrganization;
//!
//! let cfg = SimConfig::fast_test();
//! let m = run(
//!     &cfg,
//!     WorkloadKind::S3,
//!     DefenseKind::Twice(TableOrganization::FullyAssociative),
//!     20_000,
//! );
//! assert_eq!(m.bit_flips, 0, "TWiCe must prevent flips");
//! ```

pub mod campaign;
pub mod checkpoint;
pub mod cio;
pub mod config;
pub mod experiments;
pub mod grid;
pub mod journal;
pub mod metrics;
pub mod outcome;
pub mod parallel;
pub mod profile;
pub mod redteam;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod system;
pub mod tracecli;
pub mod verify;

pub use config::SimConfig;
pub use metrics::RunMetrics;
pub use runner::{run, WorkloadKind};
pub use system::System;
