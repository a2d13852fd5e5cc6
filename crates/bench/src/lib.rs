//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation (Section IV) from this workspace's implementation.
//!
//! The `repro` binary exposes one subcommand per experiment
//! (`repro table3`, `repro fig5`, …, `repro all`), the crash matrices,
//! the network smoke/serve/load trio and one wall-clock grid
//! (`repro kv-bench`); see EXPERIMENTS.md for the paper-vs-measured
//! record. Comparing commits is the repo benchmark's job (`benchmark/`),
//! not this crate's. Criterion benches in `benches/` cover component
//! costs (LRU ops, linear-time MRC, policy throughput) and the ablations
//! called out in DESIGN.md.

#![warn(missing_docs)]

pub mod calibrate;
pub mod experiments;
#[cfg(test)]
mod jsonv;
pub mod pool;
pub mod report;
pub mod telemetry;

pub use calibrate::{adaptive_config_for, machine_for, offline_capacity, Calibration};
pub use pool::{par_map, par_map_with};
pub use report::Table;
