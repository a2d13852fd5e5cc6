//! Persistent-write trace model for NVRAM persistence studies.
//!
//! A *trace* is the unit of exchange between workloads, persistence
//! policies, locality analysis and the machine timing model. It records,
//! per thread, the sequence of persistent-memory events a program emits:
//! writes to cache lines, failure-atomic-section (FASE) boundaries, reads
//! (used only by the hardware-cache model) and `Work` markers carrying the
//! amount of computation between persistent stores (used only by the
//! timing model).
//!
//! The model matches the paper's setting: persistence policies observe
//! only *writes* at cache-line granularity plus FASE begin/end events;
//! everything else is opaque computation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hash;
pub mod record;
pub mod stats;
pub mod synth;
pub mod trace;

pub use event::{Event, Line, LINE_SIZE};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use record::{NullSink, StoreSink, TraceRecorder};
pub use stats::TraceStats;
pub use trace::{ThreadTrace, Trace};
