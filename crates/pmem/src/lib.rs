//! Emulated byte-addressable persistent memory (NVRAM).
//!
//! The paper tests on DRAM emulating NVRAM through `tmpfs`: a directly
//! mapped, byte-addressable region that survives process termination.
//! This crate reproduces that substrate in safe Rust, with the extra
//! capability a real emulator lacks: **deterministic crash injection**.
//!
//! A [`region::PmemRegion`] keeps two images of its bytes:
//!
//! * the **volatile image** — what the program sees (memory + the dirty
//!   lines still sitting in the transient CPU cache), and
//! * the **durable image** — what NVRAM would actually contain after a
//!   power failure.
//!
//! Writes touch only the volatile image and mark their cache lines
//! dirty. A *flush* captures the line's bytes at flush time; a *fence*
//! commits captured lines to the durable image (`clflush` + `sfence`
//! semantics). [`crash::CrashMode`] then simulates failure: the program
//! state is reset to the durable image, optionally plus an adversarially
//! chosen subset of un-fenced lines (a real cache may or may not have
//! evicted them on its own) — exactly the uncertainty that makes
//! persistence ordering bugs observable.
//!
//! No real flush instruction is issued anywhere: a flush is a state
//! transition of the emulated region, and its cost belongs to the cycle
//! model in `nvcache-cachesim`.
//!
//! [`alloc::PAlloc`] is a small recoverable allocator over a region
//! (bump + size-segregated free lists, metadata in-region), standing in
//! for the Makalu-style allocation Atlas relies on.
//!
//! [`ring::FlushRing`] is the asynchronous flush pipeline: a mutex-free
//! submission ring whose drain side sorts, dedups and coalesces lines
//! into ranged sweeps — while keeping every swept line
//! an individual crash-visible micro-step. [`slab::SlabAlloc`] layers
//! volatile size-classed free lists over `PAlloc` so hot-path node
//! allocation stops paying a fence per block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod crash;
pub mod region;
pub mod ring;
pub mod slab;

pub use alloc::PAlloc;
pub use crash::{CrashMode, CrashPlan};
pub use region::{PmemRegion, PmemStats, LINE_SIZE};
pub use ring::{coalesce_sorted, FenceToken, FlushRing, RingStats};
pub use slab::{SlabAlloc, SlabStats};
