//! # nvcache — adaptive software caching for NVRAM data persistence
//!
//! A from-scratch Rust reproduction of *"Adaptive Software Caching for
//! Efficient NVRAM Data Persistence"* (Li, Chakrabarti, Ding, Yuan;
//! IPDPS 2017): a per-thread, fully-associative, LRU **write-combining
//! software cache** that buffers the cache-line flushes an Atlas-style
//! failure-atomic-section (FASE) runtime must issue, sized online from a
//! **reuse-based timescale locality** analysis (linear-time MRC + knee
//! selection).
//!
//! This crate is the umbrella: it re-exports the workspace's component
//! crates under one namespace.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `nvcache-trace` | persistent-write event model, recorder, synthetic generators |
//! | [`locality`] | `nvcache-locality` | `reuse(k)`, footprint, MRC, knees, bursty sampling, exact LRU oracle |
//! | [`cachesim`] | `nvcache-cachesim` | L1 simulator + machine timing model |
//! | [`pmem`] | `nvcache-pmem` | emulated NVRAM: dual-image regions, flush ring, allocators, crash injection |
//! | [`core`] | `nvcache-core` | the software cache and the six persistence policies |
//! | [`fase`] | `nvcache-fase` | FASE runtime: optional undo log, recovery, instrumentation API, the engines' segment table and commit rule |
//! | [`kvstore`] | `nvcache-kvstore` | sharded persistent KV store, YCSB loadgen, live MRC-driven adaptation |
//! | [`treestore`] | `nvcache-treestore` | recoverable copy-on-write B+-tree engine: MVCC snapshots, range scans |
//! | [`workloads`] | `nvcache-workloads` | micro-benchmarks, SPLASH2-style kernels, MDB's Mtest over `treestore` |
//!
//! ## Quickstart
//!
//! ```
//! use nvcache::core::{flush_stats, AdaptiveConfig, PolicyKind};
//! use nvcache::trace::synth::{cyclic, SynthOpts};
//!
//! // a workload writing a 23-line working set round-robin
//! let trace = cyclic(23, 2_000, &SynthOpts::default());
//!
//! // Atlas's 8-entry table thrashes; the adaptive software cache
//! // samples a burst, sizes itself to the MRC knee, and reaches the
//! // lazy minimum
//! let adaptive = AdaptiveConfig { burst_len: 2_000, ..Default::default() };
//! let at = flush_stats(&trace, &PolicyKind::Atlas { size: 8 });
//! let sc = flush_stats(&trace, &PolicyKind::ScAdaptive(adaptive));
//! assert!(sc.flushes() < at.flushes() / 5);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `nvcache-bench` crate's `repro` binary for the paper's tables and
//! figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nvcache_cachesim as cachesim;
pub use nvcache_core as core;
pub use nvcache_fase as fase;
pub use nvcache_kvstore as kvstore;
pub use nvcache_locality as locality;
pub use nvcache_pmem as pmem;
pub use nvcache_telemetry as telemetry;
pub use nvcache_trace as trace;
pub use nvcache_treestore as treestore;
pub use nvcache_workloads as workloads;

/// Convenience re-exports of the most-used types.
pub mod prelude {
    pub use nvcache_core::{
        flush_stats, run_policy, AdaptiveConfig, AdaptiveScPolicy, LruCache, PersistPolicy,
        PolicyKind, RunConfig,
    };
    pub use nvcache_fase::FaseRuntime;
    pub use nvcache_locality::{lru_mrc, reuse_all_k, select_cache_size, KneeConfig, Mrc};
    pub use nvcache_pmem::{CrashMode, PmemRegion};
    pub use nvcache_trace::{Event, Line, Trace};
}
