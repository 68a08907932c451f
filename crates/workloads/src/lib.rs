#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

//! Memory-trace generators for the TWiCe evaluation.
//!
//! The paper drives its simulated system with SPEC CPU2006 (29 SPECrate
//! configurations plus two mixes), four multi-threaded applications
//! (SPLASH-2X FFT and RADIX, MICA, GAP PageRank), and three synthetic
//! patterns (S1 random, S2 CBT-adversarial, S3 single-row hammer). None
//! of those suites can be redistributed, so this crate provides
//! **pattern-faithful generators**: what a row-hammer defense observes is
//! the per-bank row-activation sequence, and each generator reproduces
//! the row-touch distribution and locality structure of its namesake
//! (see DESIGN.md §5 for the substitution argument).
//!
//! * [`spec`] — 29 MAPKI-calibrated application models (SPECrate mode).
//! * [`mix`] — the `mix-high` and `mix-blend` multi-programmed mixes.
//! * [`fft`] / [`radix`] — SPLASH-2X-style strided/scatter kernels.
//! * [`mica`] — skewed key-value GET/SET traffic.
//! * [`pagerank`] — CSR scan + power-law gather traffic.
//! * [`synth`] — S1/S2/S3 from §7.2.
//! * [`tracev2`] — the CRC-framed binary trace format with salvage.
//! * [`stats`] — one-pass trace characterization (row reuse, bank
//!   spread, hot-row share).
//! * [`attack`] — a row-hammer attack kit (single/double/many-sided).
//! * [`zipf`] — the Zipf sampler the above share.
//! * [`trace`] — the generator trait and combinators.
//!
//! # Examples
//!
//! ```
//! use twice_workloads::synth::S3SingleRowHammer;
//! use twice_workloads::trace::AccessSource;
//! use twice_common::Topology;
//!
//! let topo = Topology::paper_default();
//! let mut s3 = S3SingleRowHammer::new(&topo, 7);
//! let (_, first) = s3.next_access();
//! let (_, second) = s3.next_access();
//! assert_eq!(first.row, second.row, "S3 hammers a single row");
//! ```

pub mod attack;
pub mod fft;
pub mod genome;
pub mod mica;
pub mod mix;
pub mod pagerank;
pub mod radix;
pub mod spec;
pub mod stats;
pub mod synth;
pub mod trace;
pub mod tracev2;
pub mod zipf;

pub use trace::{AccessSource, Bounded, TraceItem};
pub use tracev2::{SalvageSummary, SalvagedTrace, TraceHealth, TraceV2Writer};
