//! Atlas-style failure-atomic sections (FASEs) over emulated NVRAM.
//!
//! The paper's system sits on Atlas (Chakrabarti et al., OOPSLA'14):
//! programs group invariant-violating updates into FASEs; upon failure,
//! either all or none of a FASE's updates are visible in NVRAM. Atlas
//! implements this with undo logging — a log entry holding the old value
//! is made durable *before* the data store — plus cache-line write-backs
//! of the modified data before the FASE commits.
//!
//! This crate provides:
//!
//! * [`log::UndoLog`] — the in-region undo log (self-validating record
//!   groups, commit by epoch bump, recovery scan) with the
//!   log-before-data ordering discipline; optional, and owned by the
//!   programs that log. Neither engine has one: both commit by [`seal`].
//! * [`runtime::FaseRuntime`] — the per-thread runtime that Atlas's LLVM
//!   instrumentation pass would drive (DESIGN.md §2.4): every persistent
//!   store routes through [`runtime::FaseRuntime::store`], which logs,
//!   writes, and hands the touched cache line to the pluggable
//!   persistence policy (ER/LA/AT/SC/…) from `nvcache-core`. A FASE
//!   whose stores seal themselves ([`seal`]) logs nothing and ends with
//!   one drain and one fence; [`runtime::FaseRuntime::persist`] makes
//!   one line durable at once.
//! * [`segments::SegmentTable`] — the class table both engines carve
//!   their data areas by and recovery surveys.
//! * [`nodes::Nodes`] — the hash shard's node store: the node layout,
//!   its sealed slots, the per-class free lists and the recovery
//!   passes; the shard keeps only its key index over it.
//! * [`seal`] — both engines' commit rule: one checksum, one stamp
//!   limit and the fold by which recovery decides what committed.
//! * crash/recovery — [`runtime::FaseRuntime::crash_and_recover`]
//!   injects a power failure via any [`nvcache_pmem::CrashMode`] and
//!   rolls back incomplete FASEs, restoring the "all or none" guarantee
//!   that the property tests in `tests/` verify.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod log;
pub mod nodes;
pub mod runtime;
pub mod seal;
pub mod segments;

pub use error::RecoveryError;
pub use log::{LogStats, UndoLog};
pub use runtime::{FaseRuntime, FaseStats, FlushMode};
pub use seal::SealError;
pub use segments::{SegmentError, SegmentTable};
