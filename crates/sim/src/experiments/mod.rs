//! One module per paper table/figure (see DESIGN.md's experiment index).
//!
//! Each module exposes a function that computes its experiment and
//! renders a [`crate::report::Table`]; the `twice-exp` commands print
//! these, and EXPERIMENTS.md records the outcomes against the paper's
//! numbers.

pub mod ablation;
pub mod capacity;
pub mod chaos;
pub mod ecc;
pub mod fig7;
pub mod latency;
pub mod storage;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
