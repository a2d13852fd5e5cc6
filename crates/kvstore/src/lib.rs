//! # nvcache-kvstore — sharded persistent KV serving with live adaptation
//!
//! The serving-layer reproduction of the paper's headline use case: a
//! memcached-style store whose *persistence* cost is governed by a
//! software write-combining cache, resized online from a miss-ratio
//! curve sampled off the store's own write stream.
//!
//! Nine modules, bottom up:
//!
//! - [`shard`] — one persistent hash map per shard (every
//!   `put`/`delete` is one FASE): a volatile index over the node store
//!   of `nvcache_fase::nodes`, which owns a private `FaseRuntime`, the
//!   node layout and recovery. A node holds its value in two stamped,
//!   sealed slots, so every FASE writes slots no committed state reads
//!   and commits by its one fence, with no undo record; a value is at
//!   most [`MAX_VALUE_LEN`] = 2 024 bytes (the tree engine's cap is 232).
//!   Under SC the runtime's `AdaptiveScPolicy` is the one adaptive
//!   controller, for hash and tree lanes alike: it samples the lane's
//!   FASE-renamed store lines and resizes its cache at the store that
//!   completes a burst, while the lane keeps serving. Capacity changes
//!   are pinned in the telemetry timeline.
//! - [`engine`] — what a lane needs from the structure it serves
//!   (`serve_batch`, crash / heal / sync, stats); [`Shard`] and the
//!   CoW B+-tree of `nvcache-treestore` ([`TreeEngine`]) implement it.
//! - [`store`] — [`KvStore`], the embedded store: a [`KvServer`] over
//!   hash shards whose calls run the shard on the caller's thread, with
//!   borrowed arguments, when its lane is idle. Different shards serve
//!   in parallel; each runtime stays single-owner.
//! - [`queue`] — the bounded submission queue and completion slots of
//!   a busy lane.
//! - [`server`] — [`KvServer`]: a lane is one engine behind a mutex and
//!   one queue, no thread: it is served by whichever thread finds it
//!   idle, or else by the first queued submitter to get its lock;
//!   everything queued behind a FASE in progress commits as one
//!   cross-client group. Acknowledged ⇒ durable.
//! - [`proto`] — the length-prefixed, checksummed wire frames.
//! - [`net`] — [`NetServer`] over a [`Transport`] (TCP, or in-process
//!   pipes for tests): one thread per connection decodes frames into
//!   lane groups, replies go out after the owning FASE commits.
//! - [`ycsb`] — a YCSB-style load generator (zipfian/uniform key
//!   popularity, mixes A–F, deterministic per-worker seeds, closed-loop
//!   issue) with live per-window `FaseStats` scraping, over
//!   any [`KvTarget`] (the direct store or the server).
//! - [`netload`] — the open-loop pipelined loadgen for the wire path,
//!   with ack tracking and the post-crash ack audit ([`verify_acked`]).
//!
//! ```
//! use nvcache_kvstore::{load, run, KvConfig, KvStore, Mix, YcsbConfig};
//!
//! let store = KvStore::new(&KvConfig::default());
//! load(&store, 1_000, 32);
//! let rep = run(
//!     &store,
//!     &YcsbConfig {
//!         keys: 1_000,
//!         ops_per_worker: 2_000,
//!         workers: 2,
//!         mix: Mix::B,
//!         value_len: 32,
//!         ..Default::default()
//!     },
//! );
//! assert_eq!(rep.ops, 4_000);
//! assert!(store.stats().data_flushes > 0);
//! let qs = store.queue_stats();
//! assert_eq!(qs.enqueued, qs.drained, "every call was served");
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod net;
pub mod netload;
pub mod proto;
pub mod queue;
pub mod server;
pub mod shard;
pub mod store;
pub mod ycsb;

pub use engine::{Engine, TreeEngine, TreeEngineConfig};
pub use net::{
    listen_addr, Conn, InProcTransport, Listener, NetClient, NetServer, TcpTransport, Transport,
};
pub use netload::{
    run_net, stored_version, verify_acked, versioned_value, NetLoadConfig, NetLoadReport,
};
pub use queue::{Backpressure, Completion, PushError, QueueStats, SubmissionQueue};
pub use server::{KvClient, KvServer, ServerConfig};
pub use shard::{
    AdaptConfig, BatchReply, BatchRequest, CapacityChoice, Shard, ShardConfig, ShardImageError,
    MAX_VALUE_LEN,
};
pub use store::{KvConfig, KvStore};
pub use ycsb::{
    load, run, scheduled_latency_ns, value_bytes, KeyDist, KvTarget, Mix, OpMix, ThetaShift,
    WindowStats, YcsbConfig, YcsbReport, Zipfian,
};
