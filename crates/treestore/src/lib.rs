//! A recoverable copy-on-write B+-tree storage engine with MVCC
//! snapshot reads, layered on the same emulated-NVRAM persistence
//! stack (`nvcache-pmem` + `nvcache-fase`) as the hash-based KV
//! shards.
//!
//! The paper's MDB benchmark drives a persistent B+-tree through
//! failure-atomic sections; this crate promotes that workload's toy
//! tree into a first-class engine:
//!
//! * [`pager`] — the split storage trait surface ([`PageRead`] /
//!   [`PageWrite`]) and its two backends: the production [`FasePager`]
//!   over a [`nvcache_fase::FaseRuntime`] with no undo log (the hash
//!   shards' segment table, flush ring, crash-point injection) and the
//!   volatile [`MemPager`] test double.
//! * [`tree`] — the [`Tree`] itself: 256-byte pages in segments carved
//!   from its store's class table, placed by their id, read by borrow,
//!   logical-page indirection (a slot table indexed by logical id:
//!   newest committed copy, staged copy, copies pins still reach, and
//!   for a leaf overwritten in place the spare: the superseded copy the
//!   next copy lands on, storing only the lines that need a write-back)
//!   so copy-on-write never
//!   rewrites ancestors and a descent hashes and copies nothing, transactions that commit a whole group of updates
//!   in one FASE by their own sealed pages (one drain, one fence, no
//!   commit record), [`Snapshot`] pinning for non-blocking consistent
//!   reads and range scans, free-list reclamation bounded by the oldest
//!   pin, and typed recovery that checks the class table, judges the
//!   last transaction by counting its whole pages, rebuilds the remap table, root and
//!   counts from a scan of the page headers, and voids what a dead
//!   transaction left.
//!
//! The `kvstore` crate wires [`Tree`] behind its submission queues as
//! a second engine, so group commit, crash fuzzing, telemetry spans,
//! and the network layer apply to both the hash and tree stores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pager;
pub mod tree;

pub use pager::{FasePager, MemPager, PageRead, PageStore, PageWrite, TreeConfig, PAGE};
pub use tree::{Snapshot, Tree, TreeError, MAX_VALUE};
