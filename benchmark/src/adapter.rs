//! The only file of the benchmark that calls into the program.
//!
//! Engine construction, `get`/`put`/`put_many`/`serve_batch`, the wire
//! codec, stats scraping, crash/recover and the replay entry points are
//! all wrapped here, behind types the rest of the benchmark owns. The
//! API churn ROADMAP direction 4 plans (`KvStore`/`KvServer` merge,
//! `dyn` engine removal, `FlushMode` collapse) is then a one-file
//! follow-up. Nothing here times anything: callers own the clock.

use std::sync::Arc;

use nvcache_bench::{adaptive_config_for, machine_for, offline_capacity};
use nvcache_core::{
    flush_stats, flush_stats_dyn, flush_stats_with, run_policy, run_policy_dyn, run_policy_traced,
    run_policy_with, AdaptiveConfig, PolicyKind, ReplayOptions, RunConfig,
};
use nvcache_fase::FaseRuntime;
use nvcache_kvstore::proto::{encode_request, encode_response, FrameDecoder, Request, Response};
use nvcache_kvstore::{
    AdaptConfig, Backpressure, BatchReply, BatchRequest, Completion, Conn, Engine, InProcTransport,
    KvClient, KvConfig, KvServer, KvStore, NetClient, NetServer, ServerConfig, Shard, ShardConfig,
    SubmissionQueue, Transport, TreeEngine, TreeEngineConfig,
};
use nvcache_locality::{lru_mrc, select_cache_size, BurstSampler, KneeConfig};
use nvcache_pmem::{CrashMode, FlushRing, PmemRegion};
use nvcache_telemetry::{CounterId, TelemetryConfig};
use nvcache_trace::Trace;
use nvcache_treestore::{FasePager, MemPager, Tree, TreeConfig, PAGE};
use nvcache_workloads::mdb::MdbWorkload;
use nvcache_workloads::micro::{HashWorkload, LinkedListWorkload, PersistentArray, QueueWorkload};
use nvcache_workloads::registry::splash2_workloads;
use nvcache_workloads::Workload;

/// One `(key, value)` write as the program's batch calls take it.
pub type Item = (u64, Vec<u8>);
/// One request of a `serve_batch` call.
pub type Req = BatchRequest;
/// One positional reply of a `serve_batch` call.
pub type Reply = BatchReply;

/// Bytes per tree page (space accounting).
pub const PAGE_BYTES: u64 = PAGE as u64;
/// Cache-line bytes of the emulated NVRAM.
pub const LINE_BYTES: usize = nvcache_pmem::LINE_SIZE;

// ---- counters ----------------------------------------------------------

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Persistence counters of one or more engines, summed: the
        /// FASE runtime's, its region's, its flush ring's and its slab's.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl std::ops::Add for Counters {
            type Output = Counters;
            fn add(self, o: Counters) -> Counters {
                Counters { $($field: self.$field + o.$field,)* }
            }
        }

        impl std::ops::Sub for Counters {
            type Output = Counters;
            fn sub(self, o: Counters) -> Counters {
                Counters { $($field: self.$field - o.$field,)* }
            }
        }
    };
}

counters! {
    /// `FaseStats.fases`: outermost FASEs completed.
    fases,
    /// `FaseStats.stores`.
    stores,
    /// `FaseStats.store_lines`: cache lines touched by stores.
    store_lines,
    /// `FaseStats.data_flushes`: policy-issued data-line flushes.
    data_flushes,
    /// `FaseStats.fences` (data ordering).
    fences,
    /// `FaseStats.rollbacks`.
    rollbacks,
    /// `PmemStats.bytes_written` (data + undo log).
    pm_bytes_written,
    /// `PmemStats.flushes` (data + undo-log lines).
    pm_flushes,
    /// `PmemStats.fences`.
    pm_fences,
    /// `RingStats.submitted`.
    ring_submitted,
    /// `RingStats.flushed`.
    ring_flushed,
    /// `RingStats.elided`.
    ring_elided,
    /// `RingStats.sweeps`.
    ring_sweeps,
    /// `RingStats.drains`.
    ring_drains,
    /// `SlabStats.fast_allocs`.
    slab_fast,
    /// `SlabStats.chunks + fallback_allocs`: allocations that persisted.
    slab_slow,
}

fn runtime_counters(rt: &FaseRuntime) -> Counters {
    let f = rt.stats();
    let p = rt.region().stats();
    let r = rt.ring_stats();
    let s = rt.slab_stats().unwrap_or_default();
    Counters {
        fases: f.fases,
        stores: f.stores,
        store_lines: f.store_lines,
        data_flushes: f.data_flushes,
        fences: f.fences,
        rollbacks: f.rollbacks,
        pm_bytes_written: p.bytes_written,
        pm_flushes: p.flushes,
        pm_fences: p.fences,
        ring_submitted: r.submitted,
        ring_flushed: r.flushed,
        ring_elided: r.elided,
        ring_sweeps: r.sweeps,
        ring_drains: r.drains,
        slab_fast: s.fast_allocs,
        slab_slow: s.chunks + s.fallback_allocs,
    }
}

/// Capacity decisions of the live MRC controllers: `(count, mean
/// installed capacity)`.
fn capacity_summary<'a>(
    chosen: impl Iterator<Item = &'a nvcache_kvstore::CapacityChoice>,
) -> (u64, f64) {
    let (mut n, mut sum) = (0u64, 0u64);
    for c in chosen {
        n += 1;
        sum += c.capacity as u64;
    }
    (n, if n == 0 { 0.0 } else { sum as f64 / n as f64 })
}

// ---- hash engine: direct shard, store, queued server, wire -------------

/// The shard shape of `repro kv-bench`: 512 buckets, 2 MiB heap,
/// 128 KiB log, SC-adaptive under an external live controller with
/// 4096-line bursts, pipelined flush path.
fn shard_config(record_stream: bool) -> ShardConfig {
    ShardConfig {
        buckets: 512,
        data_len: 1 << 21,
        log_len: 1 << 17,
        policy: PolicyKind::ScAdaptive(AdaptiveConfig {
            external_control: true,
            ..Default::default()
        }),
        adapt: Some(AdaptConfig {
            burst_len: 4096,
            record_stream,
            ..Default::default()
        }),
        pipelined: true,
    }
}

/// Shards of the embedded store.
pub const STORE_SHARDS: usize = 4;
/// Lanes of the served store.
pub const SERVER_LANES: usize = 2;

/// One hash shard driven directly (the bottom rung of the ladder).
pub struct HashShard(Shard);

impl HashShard {
    /// A fresh shard; `record_stream` keeps the renamed store-line
    /// stream for the locality measurements.
    pub fn new(record_stream: bool) -> HashShard {
        HashShard(Shard::new(&shard_config(record_stream)))
    }

    /// `Shard::get`.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    /// `Shard::put`.
    #[inline]
    pub fn put(&mut self, key: u64, value: &[u8]) -> bool {
        self.0.put(key, value)
    }

    /// `Shard::put_many`.
    #[inline]
    pub fn put_many(&mut self, items: &[Item]) -> bool {
        self.0.put_many(items)
    }

    /// `Shard::serve_batch`.
    #[inline]
    pub fn serve_batch(&mut self, reqs: &[Req]) -> Vec<Reply> {
        self.0.serve_batch(reqs)
    }

    /// Forget what the load phase taught the controller.
    pub fn reset_sampler(&mut self) {
        self.0.reset_sampler();
    }

    /// The recorded FASE-renamed store-line stream.
    pub fn stream(&self) -> &[u64] {
        self.0.stream().unwrap_or(&[])
    }
}

/// The embedded store: `KvStore`, mutex per shard.
pub struct HashStore(KvStore);

impl HashStore {
    /// A fresh store of `shards` shards ([`STORE_SHARDS`] in the
    /// workload, 1 on the ladder).
    pub fn new(shards: usize) -> HashStore {
        HashStore(KvStore::new(&KvConfig {
            shards,
            shard: shard_config(false),
        }))
    }

    /// `KvStore::get`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    /// `KvStore::put` (one FASE).
    #[inline]
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        self.0.put(key, value)
    }

    /// `KvStore::put_many` (one FASE per involved shard).
    #[inline]
    pub fn put_many(&self, items: &[Item]) -> bool {
        self.0.put_many(items)
    }

    /// Restart every shard's adaptation measurement (after preload).
    pub fn reset_samplers(&self) {
        self.0.reset_samplers();
    }

    /// Counters summed over shards, cumulative since creation.
    pub fn counters(&self) -> Counters {
        (0..self.0.num_shards())
            .map(|i| self.0.with_shard(i, |s| runtime_counters(s.runtime_mut())))
            .fold(Counters::default(), |a, b| a + b)
    }

    /// `(decisions, mean installed capacity)` of the live controllers.
    pub fn capacity_choices(&self) -> (u64, f64) {
        capacity_summary(self.0.chosen().iter().flatten())
    }

    /// Power-fail every shard keeping only fenced data, recover, and
    /// return every surviving pair sorted by key.
    pub fn crash_recover_dump(&self) -> Vec<Item> {
        self.0.crash_and_recover_all(&CrashMode::StrictDurableOnly);
        self.0.dump()
    }
}

/// A `KvServer` over hash shards with its resident blocking client: the
/// queue rung of the ladder.
pub struct QueuedStore {
    server: Arc<KvServer>,
    client: KvClient,
}

impl QueuedStore {
    /// `lanes` worker lanes; `max_batch` 1 disables group commit.
    pub fn new(lanes: usize, max_batch: Option<usize>) -> QueuedStore {
        let server = Arc::new(KvServer::new(
            &KvConfig {
                shards: lanes,
                shard: shard_config(false),
            },
            &ServerConfig {
                max_batch: max_batch.unwrap_or(ServerConfig::default().max_batch),
                ..ServerConfig::default()
            },
        ));
        let client = server.client();
        QueuedStore { server, client }
    }

    /// A further client handle for another thread.
    pub fn client(&self) -> QueuedClient {
        QueuedClient(self.server.client())
    }

    /// Blocking `KvClient::get`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.client.get(key)
    }

    /// Blocking `KvClient::put`.
    #[inline]
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        self.client.put(key, value)
    }

    /// Blocking `KvClient::put_many`.
    pub fn put_many(&self, items: &[Item]) -> bool {
        self.client.put_many(items)
    }

    /// Restart adaptation measurement on every lane.
    pub fn reset_samplers(&self) {
        self.server.reset_samplers();
    }

    /// `(mean drained-batch occupancy, rejected pushes)`.
    pub fn queue_stats(&self) -> (f64, u64) {
        let q = self.server.queue_stats();
        (q.occupancy_mean(), q.rejected)
    }

    /// Counters summed over lanes, cumulative since creation.
    pub fn counters(&self) -> Counters {
        (0..self.server.num_shards())
            .map(|i| {
                self.server
                    .with_shard(i, |s| runtime_counters(s.runtime_mut()))
            })
            .fold(Counters::default(), |a, b| a + b)
    }

    /// Power-fail every lane keeping only fenced data, recover, dump.
    pub fn crash_recover_dump(&self) -> Vec<Item> {
        self.server
            .crash_and_recover_all(&CrashMode::StrictDurableOnly);
        self.server.dump()
    }

    /// Join the workers.
    pub fn close(&self) {
        self.server.close();
    }
}

/// A cloned blocking client of a [`QueuedStore`].
pub struct QueuedClient(KvClient);

impl QueuedClient {
    /// Blocking `KvClient::get`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    /// Blocking `KvClient::put`.
    #[inline]
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        self.0.put(key, value)
    }
}

/// The served path: `NetServer` over the in-process transport in front
/// of a [`QueuedStore`] with default `ServerConfig`.
pub struct ServedStore {
    store: QueuedStore,
    net: Option<NetServer>,
    transport: InProcTransport,
}

/// One raw client connection (the benchmark pipelines frames itself).
pub struct RawConn(Box<dyn Conn>);

impl RawConn {
    /// Write whole frames.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> bool {
        self.0.write_all_bytes(bytes).is_ok()
    }

    /// Blocking read of whatever has arrived; 0 = closed.
    #[inline]
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        self.0.read_some(buf).unwrap_or(0)
    }
}

/// The blocking one-in-flight `NetClient`.
pub struct BlockingNetClient(NetClient);

impl BlockingNetClient {
    /// `NetClient::get`; `Err` folds into `None`.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key).ok().flatten()
    }

    /// `NetClient::put`; `Err` folds into `false`.
    #[inline]
    pub fn put(&mut self, key: u64, value: &[u8]) -> bool {
        self.0.put(key, value).unwrap_or(false)
    }
}

impl ServedStore {
    /// `lanes` lanes ([`SERVER_LANES`] in the workload, 1 on the
    /// ladder) behind a listening in-process server.
    pub fn new(lanes: usize) -> ServedStore {
        let store = QueuedStore::new(lanes, None);
        let transport = InProcTransport::new();
        let net = NetServer::start(&transport, "bench", Arc::clone(&store.server))
            .expect("in-process listen cannot fail");
        ServedStore {
            store,
            net: Some(net),
            transport,
        }
    }

    /// The store behind the wire (preload, counters, crash).
    pub fn store(&self) -> &QueuedStore {
        &self.store
    }

    /// Open a raw connection.
    pub fn connect(&self) -> RawConn {
        RawConn(
            self.transport
                .connect("bench")
                .expect("in-process connect cannot fail"),
        )
    }

    /// Open a blocking client.
    pub fn client(&self) -> BlockingNetClient {
        BlockingNetClient(
            NetClient::connect(&self.transport, "bench").expect("in-process connect cannot fail"),
        )
    }

    /// `(frames_in, frames_out, proto_errors)` so far.
    pub fn net_stats(&self) -> (u64, u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let s = self.net.as_ref().expect("server running").stats();
        (
            s.frames_in.load(Relaxed),
            s.frames_out.load(Relaxed),
            s.proto_errors.load(Relaxed),
        )
    }

    /// Stop the wire server, then the lanes; joins every thread.
    pub fn shutdown(mut self) {
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        self.store.close();
    }
}

// ---- wire codec ----------------------------------------------------------

/// A complete `Get` request frame.
pub fn frame_get(id: u64, key: u64) -> Vec<u8> {
    encode_request(&Request::Get { id, key })
}

/// A complete `Put` request frame.
pub fn frame_put(id: u64, key: u64, value: &[u8]) -> Vec<u8> {
    encode_request(&Request::Put {
        id,
        key,
        value: value.to_vec(),
    })
}

/// A complete `Value` response frame.
pub fn frame_value(id: u64, value: &[u8]) -> Vec<u8> {
    encode_response(&Response::Value {
        id,
        value: Some(value.to_vec()),
    })
}

/// What a decoded response says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// `Get` result.
    Value(Option<Vec<u8>>),
    /// Write outcome.
    Done(bool),
    /// The server refused the request.
    Rejected,
    /// Any other frame kind (none is expected by the workloads).
    Other,
}

/// Incremental frame decoder (`proto::FrameDecoder`).
#[derive(Default)]
pub struct Decoder(FrameDecoder);

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append received bytes.
    #[inline]
    pub fn feed(&mut self, bytes: &[u8]) {
        self.0.extend_from(bytes);
    }

    /// Next complete response as `(id, answer)`; `Ok(None)` needs more
    /// bytes; `Err` is a protocol error (counted as a failed op).
    #[inline]
    pub fn next_response(&mut self) -> Result<Option<(u64, Answer)>, ()> {
        match self.0.next_response() {
            Ok(None) => Ok(None),
            Ok(Some(r)) => {
                let id = r.id();
                Ok(Some((
                    id,
                    match r {
                        Response::Value { value, .. } => Answer::Value(value),
                        Response::Done { ok, .. } => Answer::Done(ok),
                        Response::Rejected { .. } => Answer::Rejected,
                        _ => Answer::Other,
                    },
                )))
            }
            Err(_) => Err(()),
        }
    }

    /// Next complete request; `true` when one decoded.
    #[inline]
    pub fn next_request(&mut self) -> bool {
        matches!(self.0.next_request(), Ok(Some(_)))
    }
}

// ---- tree engine ---------------------------------------------------------

/// The tree shape of `repro tree-bench` (512 KiB log, `ScFixed{8}`,
/// pipelined) over a heap of `heap_bytes`.
fn tree_config(heap_bytes: usize) -> TreeConfig {
    TreeConfig {
        data_len: heap_bytes,
        log_len: 1 << 19,
        policy: PolicyKind::ScFixed { capacity: 8 },
        pipelined: true,
    }
}

/// Structural numbers of a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TreeShape {
    /// Live keys.
    pub len: u64,
    /// Levels (1 = the root is a leaf).
    pub height: u64,
    /// Physical pages ever allocated (high-water mark).
    pub pages_allocated: u64,
    /// Recycled pages ready for reuse.
    pub free_pages: u64,
    /// Superseded pages still held back.
    pub retired_pages: u64,
}

fn shape_of<S: nvcache_treestore::PageStore>(t: &Tree<S>) -> TreeShape {
    TreeShape {
        len: t.len(),
        height: t.height(),
        pages_allocated: t.pages_allocated(),
        free_pages: t.free_pages() as u64,
        retired_pages: t.retired_pages() as u64,
    }
}

/// One `TreeEngine` lane driven on the caller's thread.
pub struct TreeLane(TreeEngine);

impl TreeLane {
    /// A fresh engine over a heap of `heap_bytes`.
    pub fn new(heap_bytes: usize) -> TreeLane {
        TreeLane(TreeEngine::new(&TreeEngineConfig {
            tree: tree_config(heap_bytes),
            ..Default::default()
        }))
    }

    /// `Engine::serve_batch`.
    #[inline]
    pub fn serve_batch(&mut self, reqs: &[Req]) -> Vec<Reply> {
        Engine::serve_batch(&mut self.0, reqs)
    }

    /// Cumulative counters since creation.
    pub fn counters(&mut self) -> Counters {
        runtime_counters(self.0.tree_mut().store_mut().runtime_mut())
    }

    /// Structural numbers now.
    pub fn shape(&self) -> TreeShape {
        shape_of(self.0.tree())
    }

    /// Power-fail keeping only fenced data, recover, dump.
    pub fn crash_recover_dump(&mut self) -> Vec<Item> {
        Engine::crash_and_recover(&mut self.0, &CrashMode::StrictDurableOnly);
        Engine::dump(&mut self.0)
    }

    /// One crash → recover cycle (timed by the caller).
    pub fn crash_recover(&mut self) {
        Engine::crash_and_recover(&mut self.0, &CrashMode::StrictDurableOnly);
    }
}

/// `Tree` driven directly, below the engine: over the FASE pager (the
/// production store) or the volatile `MemPager` (no `fase`/`pmem` at
/// all) — the difference between the two is the persistence share.
pub struct BareTree<S: nvcache_treestore::PageStore>(Tree<S>);

impl BareTree<FasePager> {
    /// A fresh persistent tree over a heap of `heap_bytes`.
    pub fn persistent(heap_bytes: usize) -> Self {
        BareTree(Tree::create(&tree_config(heap_bytes)).expect("format tree heap"))
    }
}

impl BareTree<MemPager> {
    /// A fresh volatile tree.
    pub fn volatile() -> Self {
        BareTree(Tree::format(MemPager::new()).expect("format mem tree"))
    }
}

/// What the tree ladder drives, whichever pager is underneath.
pub trait TreeOps {
    /// `Tree::get`.
    fn get(&self, key: u64) -> Option<Vec<u8>>;
    /// One transaction: `begin`, every put, `commit`, `reclaim`.
    fn txn_put(&mut self, items: &[Item]) -> bool;
    /// `Tree::scan` from `lo` upward, at most `limit` entries; returns
    /// how many came back.
    fn scan(&self, lo: u64, limit: usize) -> usize;
}

impl<S: nvcache_treestore::PageStore> TreeOps for BareTree<S> {
    #[inline]
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    #[inline]
    fn txn_put(&mut self, items: &[Item]) -> bool {
        self.0.begin();
        let mut ok = true;
        for (k, v) in items {
            ok &= self.0.put(*k, v).is_ok();
        }
        self.0.commit();
        self.0.reclaim();
        ok
    }

    #[inline]
    fn scan(&self, lo: u64, limit: usize) -> usize {
        self.0.scan(None, lo, u64::MAX, limit).len()
    }
}

/// A single-`Get` request.
pub fn req_get(key: u64) -> Req {
    BatchRequest::Get(key)
}

/// A single-`Put` request.
pub fn req_put(key: u64, value: &[u8]) -> Req {
    BatchRequest::Put(key, value.to_vec())
}

/// A `Scan` from `lo` upward, at most `limit` entries.
pub fn req_scan(lo: u64, limit: u32) -> Req {
    BatchRequest::Scan(lo, u64::MAX, limit)
}

/// What a generated request asks for, in the benchmark's own terms (the
/// verify pass replays requests against its model).
pub enum Asked<'a> {
    /// Look the key up.
    Get(u64),
    /// Write the value under the key.
    Put(u64, &'a [u8]),
    /// Up to `limit` entries from `lo` upward.
    Scan(u64, usize),
    /// A request kind no workload generates.
    Other,
}

/// Read a request built by [`req_get`], [`req_put`] or [`req_scan`].
pub fn asked(req: &Req) -> Asked<'_> {
    match req {
        BatchRequest::Get(k) => Asked::Get(*k),
        BatchRequest::Put(k, v) => Asked::Put(*k, v),
        BatchRequest::Scan(lo, _, limit) => Asked::Scan(*lo, *limit as usize),
        _ => Asked::Other,
    }
}

/// The value of a `Get` reply (`None` also for a non-`Get` reply).
pub fn reply_value(r: &Reply) -> Option<&[u8]> {
    match r {
        BatchReply::Value(Some(v)) => Some(v),
        _ => None,
    }
}

/// Did a write reply report success?
pub fn reply_done(r: &Reply) -> bool {
    matches!(r, BatchReply::Done(true))
}

/// The entries of a `Scan` reply.
pub fn reply_entries(r: &Reply) -> &[Item] {
    match r {
        BatchReply::Entries(e) => e,
        _ => &[],
    }
}

// ---- bare components -----------------------------------------------------

/// A bare `FlushRing` over a `PmemRegion`: the cost of the flush
/// pipeline with no FASE runtime above it.
pub struct BareRing {
    ring: FlushRing,
    region: PmemRegion,
}

impl BareRing {
    /// A ring of `capacity` slots over a region of `lines` lines.
    pub fn new(capacity: usize, lines: usize) -> BareRing {
        BareRing {
            ring: FlushRing::new(capacity),
            region: PmemRegion::new(lines * LINE_BYTES),
        }
    }

    /// One commit's worth of pipeline work: dirty each line, submit it,
    /// publish the fence token, drain up to it, fence, close the epoch.
    #[inline]
    pub fn commit(&mut self, lines: &[u64]) {
        for &l in lines {
            self.region.write_u64(l as usize * LINE_BYTES, l);
            while !self.ring.submit(l) {
                self.ring.drain_all(&mut self.region);
            }
        }
        let token = self.ring.fence_token();
        self.ring.drain_upto(token, &mut self.region);
        self.region.fence();
        self.ring.end_epoch();
    }
}

/// A bare `FaseRuntime` with the hash shards' policy and flush path.
pub struct BareFase(FaseRuntime);

impl BareFase {
    /// A runtime over `data_len` data bytes and a 128 KiB log.
    pub fn new(data_len: usize) -> BareFase {
        let cfg = shard_config(false);
        let mut rt = FaseRuntime::new(data_len, cfg.log_len, &cfg.policy);
        rt.set_flush_mode(nvcache_fase::FlushMode::Pipelined);
        BareFase(rt)
    }

    /// One FASE: begin, one 8-byte store per offset, end.
    #[inline]
    pub fn fase(&mut self, offsets: &[usize], v: u64) {
        self.0.begin_fase();
        for &o in offsets {
            self.0.store_u64(o, v);
        }
        self.0.end_fase();
    }

    /// One crash → recover cycle keeping only fenced data.
    pub fn crash_recover(&mut self) {
        self.0.crash_and_recover(&CrashMode::StrictDurableOnly);
        self.0.set_flush_mode(nvcache_fase::FlushMode::Pipelined);
    }
}

/// A bare `SubmissionQueue` on one thread.
pub struct BareQueue {
    q: SubmissionQueue<u64>,
    out: Vec<u64>,
}

impl BareQueue {
    /// A queue with the server's default capacity.
    pub fn new() -> BareQueue {
        BareQueue {
            q: SubmissionQueue::new(ServerConfig::default().queue_capacity, Backpressure::Block),
            out: Vec::with_capacity(8),
        }
    }

    /// `push` one item, `drain_into` it back out.
    #[inline]
    pub fn push_drain(&mut self, v: u64) -> bool {
        self.out.clear();
        self.q.push(v).is_ok() && self.q.drain_into(&mut self.out, 1)
    }
}

/// `Completion` new → fill → wait on one thread.
#[inline]
pub fn completion_cycle(v: u64) -> u64 {
    let c: Completion<u64> = Completion::new();
    let filler = c.clone();
    filler.fill(v);
    c.wait()
}

/// The online analysis of one burst: push every line through a
/// `BurstSampler` sized to the burst, then `select_cache_size`. Returns
/// the knee.
pub fn online_knee(burst: &[u64]) -> usize {
    let cfg = KneeConfig::default();
    let mut sampler = BurstSampler::new(burst.len().max(1), cfg.max_size, None);
    let mut knee = cfg.default_size;
    for &l in burst {
        if let Some(mrc) = sampler.push(l) {
            knee = select_cache_size(&mrc, &cfg);
        }
    }
    knee
}

/// The exact (Mattson) knee of the same burst.
pub fn offline_knee(burst: &[u64]) -> usize {
    let cfg = KneeConfig::default();
    select_cache_size(&lru_mrc(burst, cfg.max_size), &cfg)
}

// ---- replay ----------------------------------------------------------------

/// One recorded program ready for replay.
pub struct ReplayInput {
    /// Program name (Table III).
    pub name: &'static str,
    /// The paper's SC flush ratio for it.
    pub paper_sc: f64,
    trace: Trace,
    /// ER, AT, SC-adaptive, SC-offline, BEST — in [`POLICIES`] order.
    kinds: [PolicyKind; 5],
}

/// Labels of the five replayed policies, in replay order.
pub const POLICIES: [&str; 5] = ["er", "at", "sc", "sco", "best"];
/// Index of SC-adaptive in [`POLICIES`].
pub const SC: usize = 2;

/// Threads every trace is recorded with.
pub const TRACE_THREADS: usize = 8;

fn replay_input(w: &dyn Workload) -> ReplayInput {
    let trace = w.trace(TRACE_THREADS);
    let kinds = [
        PolicyKind::Eager,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScAdaptive(adaptive_config_for(&trace)),
        PolicyKind::ScFixed {
            capacity: offline_capacity(&trace, &KneeConfig::default()),
        },
        PolicyKind::Best,
    ];
    ReplayInput {
        name: w.name(),
        paper_sc: w
            .paper_row()
            .expect("every replayed program is in Table III")
            .sc,
        trace,
        kinds,
    }
}

/// Record the seven SPLASH-2 kernels and the four micro workloads at
/// `scale`.
pub fn splash_inputs(scale: f64) -> Vec<ReplayInput> {
    let mut ws = splash2_workloads(scale);
    ws.push(Box::new(LinkedListWorkload::scaled(scale)));
    ws.push(Box::new(PersistentArray::scaled(scale)));
    ws.push(Box::new(QueueWorkload::scaled(scale)));
    ws.push(Box::new(HashWorkload::scaled(scale)));
    ws.iter().map(|w| replay_input(w.as_ref())).collect()
}

/// Record Mtest over `treestore` at `scale`.
pub fn mdb_inputs(scale: f64) -> Vec<ReplayInput> {
    vec![replay_input(&MdbWorkload::scaled(scale))]
}

/// Exact flush accounting of one policy over one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushCount {
    /// Persistent stores.
    pub stores: u64,
    /// Flushes issued (mid-FASE + FASE end).
    pub flushes: u64,
}

impl FlushCount {
    /// Flushes per store.
    pub fn ratio(&self) -> f64 {
        self.flushes as f64 / self.stores.max(1) as f64
    }
}

/// One timed-model replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRun {
    /// Persistent stores replayed.
    pub stores: u64,
    /// Simulated cycles (max over threads).
    pub cycles: u64,
    /// Flushes issued.
    pub flushes: u64,
    /// Aggregate simulated L1 miss ratio.
    pub l1_miss_ratio: f64,
    /// Simulated cycles stalled on the write-back queue mid-FASE.
    pub queue_stall_cycles: u64,
    /// Simulated cycles stalled in FASE-end drains and fences.
    pub fase_stall_cycles: u64,
}

fn sim_run(r: &nvcache_core::RunReport) -> SimRun {
    SimRun {
        stores: r.stores,
        cycles: r.cycles,
        flushes: r.flushes(),
        l1_miss_ratio: r.l1_miss_ratio,
        queue_stall_cycles: r.per_thread.iter().map(|t| t.queue_stall_cycles).sum(),
        fase_stall_cycles: r.per_thread.iter().map(|t| t.fase_stall_cycles).sum(),
    }
}

/// Which replay engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEngine {
    /// Monomorphised, sequential (the default everywhere).
    Mono,
    /// The boxed-`dyn` reference engine.
    Dyn,
    /// Monomorphised, trace threads spread over OS threads.
    Parallel,
}

impl ReplayInput {
    /// Persistent stores in the trace.
    pub fn stores(&self) -> u64 {
        self.trace.total_writes() as u64
    }

    /// Outermost FASEs in the trace.
    pub fn fases(&self) -> u64 {
        self.trace.total_fases() as u64
    }

    /// The first `n` FASE-renamed store lines of thread 0.
    pub fn renamed_prefix(&self, n: usize) -> Vec<u64> {
        let mut v = self.trace.threads[0].renamed_writes();
        v.truncate(n);
        v
    }

    fn run_config(&self, seed: u64) -> RunConfig {
        let mut machine = machine_for(self.trace.num_threads());
        // the benchmark seed perturbs the simulated contention schedule
        // (seed 0 = the repo's default machine)
        machine.seed = machine.seed.wrapping_add(seed);
        RunConfig {
            machine,
            ..Default::default()
        }
    }

    /// Timed-model replay of policy `p` (index into [`POLICIES`]).
    pub fn simulate(&self, p: usize, seed: u64, engine: ReplayEngine) -> SimRun {
        let cfg = self.run_config(seed);
        let kind = &self.kinds[p];
        sim_run(&match engine {
            ReplayEngine::Mono => run_policy(&self.trace, kind, &cfg),
            ReplayEngine::Dyn => {
                run_policy_dyn(&self.trace, kind, &cfg, &ReplayOptions::sequential())
            }
            ReplayEngine::Parallel => run_policy_with(&self.trace, kind, &cfg, &parallel_replay()),
        })
    }

    /// Timed-model replay of SC-adaptive with the telemetry recorder
    /// on: `(run, capacity changes, mean installed capacity)`.
    pub fn simulate_recorded(&self, seed: u64) -> (SimRun, u64, f64) {
        let (r, snap) = run_policy_traced(
            &self.trace,
            &self.kinds[SC],
            &self.run_config(seed),
            &ReplayOptions::sequential(),
            &TelemetryConfig::default(),
        );
        let timeline = snap.capacity_timeline();
        let mean = if timeline.is_empty() {
            0.0
        } else {
            timeline.iter().map(|e| e.3 as f64).sum::<f64>() / timeline.len() as f64
        };
        (sim_run(&r), snap.counter(CounterId::CapacityChanges), mean)
    }

    /// Exact flush counts of policy `p` (index into [`POLICIES`]).
    pub fn count_flushes(&self, p: usize, engine: ReplayEngine) -> FlushCount {
        let kind = &self.kinds[p];
        flush_count(&match engine {
            ReplayEngine::Mono => flush_stats(&self.trace, kind),
            ReplayEngine::Dyn => flush_stats_dyn(&self.trace, kind, &ReplayOptions::sequential()),
            ReplayEngine::Parallel => flush_stats_with(&self.trace, kind, &parallel_replay()),
        })
    }

    /// Exact flush counts of LA (flush everything at FASE end): the
    /// attainable minimum every other policy is compared to.
    pub fn count_flushes_lazy(&self) -> FlushCount {
        flush_count(&flush_stats(&self.trace, &PolicyKind::Lazy))
    }
}

fn flush_count(s: &nvcache_core::FlushStats) -> FlushCount {
    FlushCount {
        stores: s.stores,
        flushes: s.flushes(),
    }
}

/// Hardware threads the host offers (recorded with every result).
/// Latched on first call — `main` asks before pinning, because the
/// answer follows the affinity mask afterwards.
pub fn host_parallelism() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker threads of the "parallel" replay engine: the host's, but at
/// least two, so the threaded path runs even on a one-CPU host.
fn parallel_replay() -> ReplayOptions {
    ReplayOptions::with_parallelism(host_parallelism().max(2))
}
