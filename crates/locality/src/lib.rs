//! Reuse-based timescale locality theory (paper Section III).
//!
//! This crate implements the paper's analytical machinery:
//!
//! * [`reuse`] — the timescale reuse metric `reuse(k)`: the average number
//!   of intra-window reuses over all windows of length `k`, computed for
//!   **all** `k` in linear time via interval counting (paper Eq. 2).
//! * [`footprint`] — Xiang et al.'s average working-set-size `fp(k)`
//!   (paper Eq. 4), also all-`k` linear time; the duality
//!   `reuse(k) + fp(k) = k` (paper Eq. 5) is enforced by tests.
//! * [`mrc`] — miss-ratio curves derived from `reuse(k)` by discrete
//!   differentiation (`hr(c) = reuse(k+1) − reuse(k)` at
//!   `c = k − reuse(k)`, paper Eq. 3).
//! * [`sim`] — exact LRU miss-ratio curves (Mattson stack simulation),
//!   the ground truth that Figure 7 compares against.
//! * [`knee`] — MRC knee detection and cache-size selection
//!   (Section III-C).
//! * [`sampling`] — bursty sampling for online MRC analysis.
//!
//! Inputs are sequences of `u64` identifiers — typically a persistent
//! write trace after FASE renaming
//! (`nvcache_trace::ThreadTrace::renamed_writes`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod footprint;
pub mod knee;
pub mod mrc;
pub mod reuse;
pub mod sampling;
pub mod sim;

pub use footprint::footprint_all_k;
pub use knee::{select_cache_size, KneeConfig};
pub use mrc::Mrc;
pub use reuse::{reuse_all_k, reuse_intervals, ReuseInterval};
pub use sampling::BurstSampler;
pub use sim::lru_mrc;
