//! Evaluation workloads (paper Section IV-B).
//!
//! Three families, all emitting the instrumented event stream
//! (persistent writes + FASE boundaries + work markers) that the
//! persistence policies consume:
//!
//! * [`micro`] — the four micro-benchmarks: `persistent-array` (the
//!   paper's two-level nested loop), a Michael–Scott-style persistent
//!   queue, an open-chaining hash table, and a perfect-shuffle linked
//!   list. These run as *real data structures* over the FASE runtime
//!   (crash-recoverable), and double as trace generators.
//! * [`splash2`] — scaled-down computational kernels reproducing the
//!   persistent-write locality of the seven SPLASH2 programs the paper
//!   evaluates (substitution documented in DESIGN.md §2.2): genuine
//!   little computations whose per-FASE working sets and reuse structure
//!   put the MRC knees where Section IV-G reports them.
//! * [`mdb`] — the Mtest workload (1M inserts with traversals and
//!   deletions, scaled) over `nvcache-treestore`'s LMDB-style
//!   copy-on-write B+-tree.
//!
//! [`Workload`] is the uniform interface the reproduction harness
//! drives; [`registry::all_workloads`] enumerates the paper's twelve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mdb;
pub mod micro;
pub mod registry;
pub mod splash2;
pub mod workload;

pub use registry::all_workloads;
pub use workload::{PaperRow, Workload};
