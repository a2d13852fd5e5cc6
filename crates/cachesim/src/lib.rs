//! Hardware-cache and machine timing simulation.
//!
//! The paper evaluates on a 60-core Xeon with DRAM emulating NVRAM and
//! measures (a) cache-line flush counts, (b) L1 miss ratios via perf, and
//! (c) wall-clock time. Flush counts are exact properties of policy ×
//! trace; for (b) and (c) this crate provides the simulated substrate
//! (DESIGN.md §2.1):
//!
//! * [`cache`] — a set-associative, write-back, write-allocate LRU cache
//!   with `clflush`-style invalidation, standing in for the L1D and the
//!   perf counters.
//! * [`timing`] — a deterministic cost model: per-store and per-work
//!   cycle costs, an asynchronous write-back queue with bounded
//!   outstanding slots (flushes overlap computation until the queue
//!   saturates — how the eager policy degrades), and synchronous
//!   end-of-FASE drains (how the lazy policy degrades).
//! * [`machine`] — one simulated hardware context per thread, combining
//!   both plus a thread-count-dependent contention model, producing a
//!   [`machine::MachineReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod machine;
pub mod timing;

pub use cache::{AccessKind, CacheConfig, CacheStats, SetAssocCache};
pub use machine::{Machine, MachineConfig, MachineReport};
pub use timing::{FlushQueue, TimingConfig};
