//! `mdb` — the paper's memory-mapped-database case study (Section
//! IV-B/C): the Mtest workload, driven straight against the
//! copy-on-write B+-tree engine in `nvcache-treestore` (snapshot reads,
//! failure-atomic write transactions, LMDB/MDB style).

pub mod mtest;

pub use mtest::MdbWorkload;
