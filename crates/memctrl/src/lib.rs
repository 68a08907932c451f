#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

//! A memory-controller simulator for the TWiCe reproduction.
//!
//! Models the MC half of the Table 4 system: row-interleaved
//! physical-address mapping, 64-entry per-channel request queues, PAR-BS
//! scheduling, the minimalist-open page policy, per-bank auto-refresh
//! management, and the nack/resend protocol the paper adds between the
//! RCD and the MC (§5.2). That one controller is the only one built.
//!
//! The controller drives the [`twice_dram`] device model, so every command
//! it emits is checked against real DDR4 timing — the activation-rate
//! bounds TWiCe's capacity proof relies on are enforced, not assumed.
//!
//! Module map:
//!
//! * [`request`] — memory requests and decoded DRAM coordinates.
//! * [`addrmap`] — physical-address → (channel, rank, bank, row, col).
//! * [`pagepolicy`] — when to close an open row.
//! * [`scheduler`] — the PAR-BS request scheduler.
//! * [`controller`] — the per-channel controller event loop.
//! * [`resilience`] — bounded nack retry, backoff, and the starvation
//!   watchdog that turn protocol faults into structured errors.
//!
//! # Examples
//!
//! ```
//! use twice_memctrl::addrmap::AddressMapper;
//! use twice_common::Topology;
//!
//! let topo = Topology::paper_default();
//! let mapper = AddressMapper::row_interleaved(&topo);
//! let a = mapper.decode(0x1234_5678);
//! assert!(topo.contains_row(a.row));
//! ```

pub mod addrmap;
pub mod controller;
pub mod latency;
pub mod pagepolicy;
pub mod request;
pub mod resilience;
pub mod scheduler;

pub use addrmap::{AddressMapper, DecodedAccess};
pub use controller::{ChannelController, ControllerConfig, DefenseLocation, RefreshMode};
pub use latency::LatencyHistogram;
pub use pagepolicy::PagePolicy;
pub use request::{AccessKind, MemRequest};
pub use resilience::{ControllerError, RetryPolicy, RetryState};
pub use scheduler::{make_scheduler, SchedulerKind};
