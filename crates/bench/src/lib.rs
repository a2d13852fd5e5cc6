//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation (Section IV) from this workspace's implementation.
//!
//! The `repro` binary exposes one subcommand per experiment
//! (`repro table3`, `repro fig5`, …, `repro all`), the TCP pair
//! `repro kv-serve` / `repro kv-load`, and one wall-clock grid
//! (`repro kv-bench`); EXPERIMENTS.md quotes every experiment's
//! `--markdown` block next to the paper's values. Correctness is the
//! test suites' job, not a subcommand's. Comparing commits is the repo
//! benchmark's job (`benchmark/`), not this crate's, and so are
//! component costs
//! (`core.replay_ns_per_store.*`, `locality.mrc_ns_per_line`, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod experiments;
#[cfg(test)]
mod jsonv;
pub mod report;
pub mod telemetry;

pub use calibrate::{adaptive_config_for, machine_for, offline_capacity, Calibration};
pub use report::Table;

/// Apply `f` to every item of an experiment grid on one worker per
/// hardware thread, returning results in input order — printed tables
/// are byte-identical to a sequential run.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = nvcache_core::ReplayOptions::parallel().parallelism;
    nvcache_core::fan_out(items, workers, |_, t| f(t))
}
