//! # nvcache-kvstore — sharded persistent KV serving with live adaptation
//!
//! The serving-layer reproduction of the paper's headline use case: a
//! memcached-style store whose *persistence* cost is governed by a
//! software write-combining cache, resized online from a miss-ratio
//! curve sampled off the store's own write stream.
//!
//! Seven modules, bottom up:
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
//!
//! The load generators that drive it (closed-loop YCSB and the
//! open-loop wire loadgen with its ack audit) are the harness's, in
//! `nvcache-bench`.
//!
//! ```
//! use nvcache_kvstore::{KvConfig, KvStore};
//!
//! let store = KvStore::new(&KvConfig::default());
//! assert!(store.put(7, b"seven"));
//! assert_eq!(store.get(7).as_deref(), Some(&b"seven"[..]));
//! // one FASE per involved shard
//! assert!(store.put_many(&[(1, b"one".to_vec()), (2, b"two".to_vec())]));
//! assert_eq!(store.len(), 3);
//! assert!(store.stats().data_flushes > 0);
//! let qs = store.queue_stats();
//! assert_eq!(qs.enqueued, qs.drained, "every call was served");
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod net;
pub mod proto;
pub mod queue;
pub mod server;
pub mod shard;
pub mod store;

pub use engine::{Engine, TreeEngine, TreeEngineConfig};
pub use net::{
    listen_addr, Conn, InProcTransport, Listener, NetClient, NetServer, TcpTransport, Transport,
};
pub use queue::{Backpressure, Completion, PushError, QueueStats, SubmissionQueue};
pub use server::{KvClient, KvServer, ServerConfig};
pub use shard::{
    AdaptConfig, BatchReply, BatchRequest, CapacityChoice, Shard, ShardConfig, ShardImageError,
    MAX_VALUE_LEN,
};
pub use store::{KvConfig, KvStore};
