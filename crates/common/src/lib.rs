#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

//! Shared model types for the TWiCe reproduction.
//!
//! This crate is the vocabulary layer of the workspace: strongly-typed
//! identifiers for DRAM structures ([`ids`]), picosecond-resolution time
//! ([`time`]), DDR timing parameter sets ([`timing`]), main-memory topology
//! ([`topology`]), a deterministic RNG ([`rng`]), a row-keyed map for
//! sparse per-row state ([`rowmap`]), and — most importantly —
//! the [`defense::RowHammerDefense`] trait through which the TWiCe engine
//! and every baseline defense (PARA, PRoHIT, CBT, CRA, …) plug into the
//! memory-system simulator interchangeably.
//!
//! # Examples
//!
//! ```
//! use twice_common::timing::DdrTimings;
//!
//! let t = DdrTimings::ddr4_2400();
//! // Table 2 of the paper: refreshes per window and max ACTs per tREFI.
//! assert_eq!(t.refreshes_per_window(), 8192);
//! assert_eq!(t.max_acts_per_refi(), 165);
//! ```

pub mod crc32;
pub mod defense;
pub mod error;
pub mod fault;
pub mod ids;
pub mod rng;
pub mod rowmap;
pub mod snapshot;
pub mod time;
pub mod timing;
pub mod topology;

pub use defense::{DefensePressure, DefenseResponse, DefenseStats, Detection, RowHammerDefense};
pub use error::ConfigError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultTargeting};
pub use ids::{BankId, ChannelId, ColId, DeviceId, RankId, RowId};
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StateDigest};
pub use time::{Span, Time};
pub use timing::DdrTimings;
pub use topology::Topology;
