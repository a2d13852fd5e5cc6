//! The adaptive software write-combining cache (the paper's primary
//! contribution) and the persistence policies it is evaluated against.
//!
//! A persistence policy decides *when* each dirty cache line written
//! inside a failure-atomic section (FASE) is flushed to NVRAM:
//!
//! | Policy | Paper name | Behaviour |
//! |---|---|---|
//! | [`EagerPolicy`] | ER | flush at every persistent store |
//! | [`LazyPolicy`] | LA | record addresses, flush all at FASE end |
//! | [`AtlasPolicy`] | AT | 8-entry direct-mapped address table (state of the art) |
//! | [`ScPolicy`] | SC-offline | fully-associative LRU software cache, fixed capacity |
//! | [`AdaptiveScPolicy`] | SC | LRU cache whose capacity is chosen online from a burst-sampled MRC knee |
//! | [`BestPolicy`] | BEST | no flushes (upper bound, not crash-consistent) |
//!
//! The cache itself ([`lru::LruCache`]) is the paper's hash-map +
//! doubly-linked-list design with O(1) lookup, insertion, promotion,
//! eviction and resize. It is strictly per-thread by ownership: each
//! real thread builds and owns its own policy instance (the replay
//! driver builds one per group of simulated threads that replay one
//! recorded buffer, whose decisions are each thread's own) and every
//! call takes `&mut self`, so there is no locking anywhere on the store
//! path (paper Section II-B).
//!
//! [`driver`] replays recorded traces through a policy, either counting
//! flushes exactly (Table III) or against the full machine timing model
//! (Tables I/II/IV, Figures 4–6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod atlas;
pub mod best;
pub mod driver;
pub mod eager;
pub mod group;
pub mod lazy;
pub mod lru;
pub mod policy;
pub mod sc;

pub use adaptive::{AdaptiveConfig, AdaptiveScPolicy, CapacityChoice};
pub use atlas::AtlasPolicy;
pub use best::BestPolicy;
pub use driver::{
    fan_out, flush_stats, flush_stats_dyn, flush_stats_traced, flush_stats_with, run_policy,
    run_policy_dyn, run_policy_traced, run_policy_with, FlushStats, ReplayOptions, RunConfig,
    RunReport,
};
pub use eager::EagerPolicy;
pub use group::{group_threads, grouped_capacities, ThreadGroup};
pub use lazy::LazyPolicy;
pub use lru::LruCache;
pub use policy::{PersistPolicy, Policy, PolicyKind, StoreOutcome};
pub use sc::ScPolicy;
