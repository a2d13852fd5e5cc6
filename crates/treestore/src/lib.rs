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
//!   [`PageWrite`] / [`RootStore`]) and its two backends: the
//!   production [`FasePager`] over a [`nvcache_fase::FaseRuntime`]
//!   (PAlloc heap, undo log, flush ring, crash-point injection) and
//!   the volatile [`MemPager`] test double.
//! * [`tree`] — the [`Tree`] itself: 256-byte pages read by borrow,
//!   logical-page indirection (a slot table indexed by logical id:
//!   newest committed copy, staged copy, copies pins still reach) so
//!   copy-on-write never rewrites ancestors and a descent hashes and
//!   copies nothing, transactions that publish a whole group of
//!   updates in one FASE commit, [`Snapshot`] pinning for
//!   non-blocking consistent reads and range scans, free-list
//!   reclamation bounded by the oldest pin, and typed recovery that
//!   rebuilds the remap table from the durable root while sweeping
//!   orphaned CoW pages.
//!
//! The `kvstore` crate wires [`Tree`] behind its submission queues as
//! a second engine, so group commit, crash fuzzing, telemetry spans,
//! and the network layer apply to both the hash and tree stores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pager;
pub mod tree;

pub use pager::{FasePager, MemPager, PageRead, PageStore, PageWrite, RootStore, TreeConfig, PAGE};
pub use tree::{Snapshot, Tree, TreeError, MAX_VALUE};
