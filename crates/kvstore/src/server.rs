//! The concurrent shard runtime: a lane is one [`Engine`] behind a
//! mutex and one bounded [`SubmissionQueue`] — **no thread**. Whoever
//! queued serves the queue.
//!
//! A submitter (a blocking [`KvClient`] call, or a network connection's
//! thread with every frame of one read grouped per lane) `try_lock`s
//! the lane's engine. If it gets the lock while the queue is open and
//! empty and its group fits [`ServerConfig::max_batch`], it runs
//! [`Engine::serve_batch`] itself and has its replies in hand: no
//! queue entry, no completion slot, no thread hand-off. Otherwise the
//! lane is busy, and the whole group goes into the queue under one
//! lock, each request carrying a [`Completion`] slot. Whoever next
//! holds the engine lock with work queued drains everything in flight
//! (up to `max_batch`) *under that lock* and serves the convoy as one
//! grouped FASE: cross-client group commit. All of them run the one
//! `serve_group`.
//!
//! There is one way to wait for a lane: a submitter — client call or
//! connection thread alike — hands every lane its group first and only
//! then waits for what it queued, and it waits **on the engine lock**:
//! it takes the lock, blocking, and serves queued batches until its own
//! slot is filled or the queue is empty. Only then — its request left
//! the queue in a batch another holder is still answering — does it
//! sleep in [`Completion::wait`]. A submitter that finds the queue full
//! under [`Backpressure::Block`] makes room the same way (lock, serve
//! one batch, push the rest), so a group larger than the queue needs
//! nobody else to come by.
//!
//! Liveness rests on one fact: **every queued request has a live
//! submitter that will take the engine lock.** While someone holds a
//! lane ([`KvServer::with_shard`], a long batch) the queued submitters
//! line up on that lock, and the first one in serves them all; the rest
//! find their slots filled. A [`KvServer::close`] with a tail still
//! queued serves nothing itself — the tail's own submitters do.
//!
//! Which path serves a request is decided from what the code observes
//! (engine lock free, queue empty), not from configuration. The batch
//! size stays adaptive by construction: an idle lane serves a caller's
//! own group at per-op latency, a contended lane amortizes its log
//! persists and commit fence over every client that queued behind the
//! FASE in progress. `max_batch: 1` means one request per FASE on both
//! paths.
//!
//! Ordering: a client's later request never runs ahead of an earlier
//! one. Requests leave the queue only under the engine lock, so
//! whenever that lock is free, everything not yet served is still in
//! the queue — and a submitter that finds the queue non-empty lines up
//! behind it (per-client FIFO, the committed-prefix oracle's premise).
//!
//! Ack contract: a reply exists only after [`Engine::serve_batch`]
//! returned, i.e. after the FASE holding the request committed — the
//! caller-run path returns it, the queued path fills the completion
//! with it; which thread ran the batch does not enter into it.
//! **Acknowledged ⇒ durable**: a crash can only take back
//! requests that were never answered (they roll back whole — the
//! committed-prefix sweep in `tests/engine_crash.rs` checks exactly
//! this, on both engines).
//! The converse does not hold: a `serve_batch` that panics fails every
//! request of its group, including those whose segment had already
//! committed — acks are at-most-once, not exactly-once.
//!
//! Panics do not wedge the lane, on any path: `serve_group`
//! catches the unwind, heals the engine in place
//! ([`Engine::heal_after_panic`] rolls the abandoned FASE back and drops
//! volatile runtime residue), fails that group's requests, and the lane
//! keeps serving. A panic out of any other holder of the engine lock
//! ([`KvServer::with_shard`], an embedded [`KvStore`] call) poisons it,
//! and whoever takes the lock next heals the engine first. Both count
//! in [`KvServer::healed_panics`].
//!
//! [`KvStore`]: crate::store::KvStore

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use nvcache_fase::FaseStats;
use nvcache_pmem::CrashMode;

use crate::engine::{Engine, TreeEngine, TreeEngineConfig};
use crate::queue::{Backpressure, Completion, QueueStats, SubmissionQueue};
use crate::shard::{BatchReply, BatchRequest, CapacityChoice, Shard};
use crate::store::{route_hash, KvConfig};

/// Shape of the concurrent serving layer (per shard lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bound on requests in flight per shard queue.
    pub queue_capacity: usize,
    /// What a producer experiences at capacity.
    pub backpressure: Backpressure,
    /// Largest batch one FASE group may hold (clamped to
    /// `queue_capacity`), on both lane paths: a drain takes at most
    /// this many, and a submitter's group larger than this goes through
    /// the queue. `1` degenerates to per-request FASEs — the
    /// `speedup_vs_unbatched` baseline.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            backpressure: Backpressure::Block,
            max_batch: usize::MAX,
        }
    }
}

/// A request on the busy-lane path: the operation plus the completion
/// slot its reply flows back through.
struct Queued {
    req: BatchRequest,
    slot: Completion<BatchReply>,
}

/// Negative reply for a request that was accepted but could not be
/// served (panic path): reads report absent, writes report failure.
fn failed_reply(req: &BatchRequest) -> BatchReply {
    match req {
        BatchRequest::Get(_) => BatchReply::Value(None),
        BatchRequest::Put(..) | BatchRequest::PutMany(_) | BatchRequest::Delete(_) => {
            BatchReply::Done(false)
        }
        BatchRequest::Scan(..) => BatchReply::Entries(Vec::new()),
    }
}

/// Serve one group as one batch on the calling thread under the engine
/// lock the caller holds. Replies are positional and exist only after
/// the batch committed. A panic inside the engine is caught here: the
/// lane heals and every request of this group, and only of this group,
/// gets its negative reply.
fn serve_group<E: Engine>(
    engine: &mut E,
    reqs: &[BatchRequest],
    healed: &AtomicU64,
) -> Vec<BatchReply> {
    match catch_unwind(AssertUnwindSafe(|| engine.serve_batch(reqs))) {
        Ok(replies) => {
            debug_assert_eq!(replies.len(), reqs.len());
            replies
        }
        Err(_) => {
            // the unwind may have abandoned a FASE mid-flight: roll it
            // back and drop volatile residue so the lane lives on
            engine.heal_after_panic();
            healed.fetch_add(1, Ordering::Relaxed);
            reqs.iter().map(failed_reply).collect()
        }
    }
}

/// A lane: the engine, the busy-lane queue and the batch cap. It has no
/// thread; its submitters serve it.
pub(crate) struct Lane<E> {
    engine: Mutex<E>,
    queue: SubmissionQueue<Queued>,
    max_batch: usize,
    /// Panics healed without losing a lane (shared by all lanes).
    healed: Arc<AtomicU64>,
}

/// The engine-erased face of a lane that [`KvClient`] submits through.
trait LanePort: Send + Sync {
    /// The idle-lane path: serve `reqs` on this thread if the engine
    /// lock is free, the queue open and empty and the group within the
    /// batch cap; `None` means the lane is busy (or shut) — queue.
    fn try_serve(&self, reqs: &[BatchRequest]) -> Option<Vec<BatchReply>>;

    /// The busy-lane path: queue the group (see
    /// [`SubmissionQueue::push_group`]), making room by serving a batch
    /// when the queue is full under [`Backpressure::Block`]; then serve
    /// the queue on this thread if the engine lock is free by now.
    /// Returns how many requests the lane accepted.
    fn enqueue(&self, items: &mut Vec<Queued>) -> usize;

    /// The reply to a request this thread queued: serve the queue under
    /// the engine lock until `slot` is filled or nothing is queued,
    /// then wait for whoever has the request in a batch in flight.
    fn wait(&self, slot: &Completion<BatchReply>) -> BatchReply;
}

impl<E: Engine> LanePort for Lane<E> {
    fn try_serve(&self, reqs: &[BatchRequest]) -> Option<Vec<BatchReply>> {
        self.try_run(reqs.len(), |engine| serve_group(engine, reqs, &self.healed))
    }

    fn enqueue(&self, items: &mut Vec<Queued>) -> usize {
        let mut accepted = self.queue.push_group(items);
        while !items.is_empty() && self.queue.makes_room() {
            self.serve_queued(self.lock());
            accepted += self.queue.push_group(items);
        }
        if accepted > 0 {
            // The lane may be free by now, or may have been free all
            // along with other clients' requests queued ahead of this
            // group: then serve a batch now rather than after the other
            // lanes have their groups — everything queued, this group
            // included, commits as one FASE on this thread.
            if let Some(engine) = self.try_lock() {
                self.serve_queued(engine);
            }
        }
        accepted
    }

    fn wait(&self, slot: &Completion<BatchReply>) -> BatchReply {
        loop {
            if let Some(reply) = slot.try_take() {
                return reply;
            }
            // unfilled, so the request is still queued or in a batch a
            // holder of this lock is serving: line up behind that holder
            if !self.serve_queued(self.lock()) {
                // nothing queued: that batch's server has released the
                // lock and is filling its slots
                return slot.wait();
            }
        }
    }
}

impl<E: Engine> Lane<E> {
    /// The idle-lane path, for any work on the engine (a group of
    /// requests, or an embedded [`KvStore`] call with borrowed
    /// arguments): run `f` on this thread, counted as a caller-run batch
    /// of `n` requests, if `n` is within the batch cap, the engine lock
    /// is free and the queue open and empty. `None` means the lane is
    /// busy (or shut) and nothing ran.
    ///
    /// [`KvStore`]: crate::store::KvStore
    pub(crate) fn try_run<R>(&self, n: usize, f: impl FnOnce(&mut E) -> R) -> Option<R> {
        if n > self.max_batch {
            return None;
        }
        let mut engine = self.try_lock()?;
        // holding the engine lock: whatever is not yet served is still
        // in the queue (it is drained only under this lock), so an
        // empty queue means nothing of anyone's is ahead of this group
        if !self.queue.claim_idle(n) {
            return None;
        }
        Some(f(&mut engine))
    }

    /// The engine lock, blocking.
    fn lock(&self) -> MutexGuard<'_, E> {
        self.engine.lock().unwrap_or_else(|e| self.heal(e))
    }

    /// The engine lock if it is free.
    fn try_lock(&self) -> Option<MutexGuard<'_, E>> {
        match self.engine.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(self.heal(e)),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// A thread panicked holding the engine outside `serve_group`'s
    /// catch, possibly mid-FASE: handed out as it is, the next batch
    /// would nest inside the abandoned section and nothing would commit
    /// again. Roll it back and drop volatile residue first.
    fn heal<'a>(&'a self, poisoned: PoisonError<MutexGuard<'a, E>>) -> MutexGuard<'a, E> {
        let mut engine = poisoned.into_inner();
        engine.heal_after_panic();
        self.engine.clear_poison();
        self.healed.fetch_add(1, Ordering::Relaxed);
        engine
    }

    /// Drain everything in flight (up to `max_batch`) under the engine
    /// lock the caller took and serve it as one grouped batch; ack after
    /// commit. `false` if nothing was queued. Draining under the lock is
    /// what keeps per-client FIFO across the two paths — a request is
    /// never out of the queue and unserved while a submitter could get
    /// the lock.
    fn serve_queued(&self, mut engine: MutexGuard<'_, E>) -> bool {
        let mut batch: Vec<Queued> = Vec::new();
        if self.queue.drain_ready(&mut batch, self.max_batch) == 0 {
            return false; // another thread served it already
        }
        let (reqs, slots): (Vec<BatchRequest>, Vec<Completion<BatchReply>>) =
            batch.into_iter().map(|q| (q.req, q.slot)).unzip();
        let replies = serve_group(&mut *engine, &reqs, &self.healed);
        drop(engine);
        // acks go out with the lane already released
        for (slot, reply) in slots.iter().zip(replies) {
            slot.fill(reply);
        }
        true
    }
}

/// A sharded store of engine lanes, each served by its own submitters
/// (see the module docs), generic over the lane [`Engine`]: hash shards
/// by default ([`KvServer::new`]), B+-tree lanes via
/// [`KvServer::new_tree`], arbitrary engines via
/// [`KvServer::with_engines`]. Hand out cheap [`KvClient`] handles with
/// [`KvServer::client`], and shut down with [`KvServer::shutdown`] (or
/// let `Drop` do it). The embedded [`KvStore`] is this over hash shards,
/// with calls that borrow.
///
/// [`KvStore`]: crate::store::KvStore
pub struct KvServer<E: Engine = Shard> {
    pub(crate) lanes: Vec<Arc<Lane<E>>>,
    /// A resident client handle for callers that drive the server
    /// directly (e.g. the loadgen's `KvTarget` impl) without paying a
    /// handle allocation per op.
    client: KvClient,
    /// Panics healed without losing the lane.
    healed_panics: Arc<AtomicU64>,
}

impl<E: Engine> std::fmt::Debug for KvServer<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl KvServer<Shard> {
    /// One lane (engine and queue) per hash shard of `cfg`.
    pub fn new(cfg: &KvConfig, scfg: &ServerConfig) -> Self {
        assert!(cfg.shards >= 1, "at least one shard");
        KvServer::with_engines((0..cfg.shards).map(|_| Shard::new(&cfg.shard)), scfg)
    }
}

impl KvServer<TreeEngine> {
    /// `lanes` B+-tree engine lanes (each a private CoW tree over its
    /// own FASE heap) behind the same queues and group commit.
    pub fn new_tree(lanes: usize, cfg: &TreeEngineConfig, scfg: &ServerConfig) -> Self {
        assert!(lanes >= 1, "at least one lane");
        KvServer::with_engines((0..lanes).map(|_| TreeEngine::new(cfg)), scfg)
    }
}

impl<E: Engine> KvServer<E> {
    /// One lane per engine. Starts no thread.
    pub fn with_engines(engines: impl IntoIterator<Item = E>, scfg: &ServerConfig) -> Self {
        assert!(scfg.max_batch >= 1, "a batch holds at least one request");
        let healed_panics = Arc::new(AtomicU64::new(0));
        let max_batch = scfg.max_batch.min(scfg.queue_capacity);
        let lanes: Vec<Arc<Lane<E>>> = engines
            .into_iter()
            .map(|engine| {
                Arc::new(Lane {
                    engine: Mutex::new(engine),
                    queue: SubmissionQueue::new(scfg.queue_capacity, scfg.backpressure),
                    max_batch,
                    healed: Arc::clone(&healed_panics),
                })
            })
            .collect();
        assert!(!lanes.is_empty(), "at least one engine lane");
        let client = KvClient {
            lanes: lanes
                .iter()
                .map(|l| Arc::clone(l) as Arc<dyn LanePort>)
                .collect(),
        };
        KvServer {
            lanes,
            client,
            healed_panics,
        }
    }

    /// A client handle: routes per key, serves an idle lane itself or
    /// enqueues and blocks on completion.
    pub fn client(&self) -> KvClient {
        self.client.clone()
    }

    /// Borrow the server's resident client (no allocation).
    pub fn handle(&self) -> &KvClient {
        &self.client
    }

    /// Number of shard lanes.
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// Shard lane serving `key` (same routing as [`KvClient::lane_of`]).
    pub fn shard_of(&self, key: u64) -> usize {
        (route_hash(key) % self.lanes.len() as u64) as usize
    }

    fn engines(&self) -> impl Iterator<Item = MutexGuard<'_, E>> {
        self.lanes.iter().map(|l| l.lock())
    }

    /// Run `f` with engine `i` locked (stats scraping, crash plumbing in
    /// tests). Serializes with the lane's batches: whoever serves holds
    /// the same lock while serving, never between batches — and while
    /// `f` runs the lane is busy, so submissions queue and their
    /// submitters line up on the lock; when `f` returns, the first one
    /// in serves them all. A panic inside `f` poisons the lock; the next
    /// holder heals the engine and counts it in
    /// [`healed_panics`](KvServer::healed_panics).
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut E) -> R) -> R {
        f(&mut self.lanes[i].lock())
    }

    /// Cumulative runtime counters summed over shards.
    pub fn stats(&self) -> FaseStats {
        self.engines().map(|e| e.stats()).sum()
    }

    /// Per-window counters summed over shards.
    pub fn take_stats(&self) -> FaseStats {
        self.engines().map(|mut e| e.take_stats()).sum()
    }

    /// Batch-formation counters merged over every lane — the source of
    /// the benchmark's `batch_occupancy_mean` column, caller-run batches
    /// included.
    pub fn queue_stats(&self) -> QueueStats {
        let mut s = QueueStats::default();
        for l in &self.lanes {
            s.merge(&l.queue.stats());
        }
        s
    }

    /// Panics healed in place so far (on either lane path).
    pub fn healed_panics(&self) -> u64 {
        self.healed_panics.load(Ordering::Relaxed)
    }

    /// Restart every shard's adaptation measurement (post-load).
    pub fn reset_samplers(&self) {
        self.engines().for_each(|mut e| e.reset_sampler());
    }

    /// The adaptive policy's capacity decisions, per lane.
    pub fn chosen(&self) -> Vec<Vec<CapacityChoice>> {
        self.engines().map(|e| e.chosen()).collect()
    }

    /// Total live keys across shards.
    pub fn len(&self) -> usize {
        self.engines().map(|e| e.len()).sum()
    }

    /// Is every shard empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `(key, value)` pair across shards, sorted by key.
    pub fn dump(&self) -> Vec<(u64, Vec<u8>)> {
        let mut all: Vec<(u64, Vec<u8>)> = self.engines().flat_map(|mut e| e.dump()).collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all
    }

    /// Inject a power failure on every shard and recover in place,
    /// while the lanes keep serving. Each shard's crash lands *between*
    /// batches (the crash takes the same lock every batch is served
    /// under), so acknowledged — committed — requests survive and
    /// in-flight ones are simply not yet in the region.
    pub fn crash_and_recover_all(&self, mode: &CrashMode) {
        self.engines().for_each(|mut e| e.crash_and_recover(mode));
    }

    /// Flush every shard's buffered state (clean shutdown).
    pub fn sync_all(&self) {
        self.engines().for_each(|mut e| e.sync());
    }

    /// Close every lane's queue. Requests already queued are still
    /// served — by their own submitters, which are waiting on the lane;
    /// submissions racing the close are refused, on both lane paths.
    pub fn shutdown(self) {
        self.close();
    }

    /// [`shutdown`](KvServer::shutdown) through a shared reference —
    /// what the network layer calls on its `Arc<KvServer>`. Idempotent;
    /// waits for nothing.
    pub fn close(&self) {
        for l in &self.lanes {
            l.queue.close();
        }
    }
}

impl<E: Engine> Drop for KvServer<E> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A cheap, cloneable client handle over a [`KvServer`]'s lanes. Every
/// public call is blocking: serve the lane on this thread if it is
/// idle, otherwise enqueue and wait on the completion slot. Either way
/// the call returns only after the owning batch's FASE committed.
#[derive(Clone)]
pub struct KvClient {
    lanes: Vec<Arc<dyn LanePort>>,
}

impl std::fmt::Debug for KvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvClient")
            .field("shards", &self.lanes.len())
            .finish()
    }
}

/// A request queued on a busy lane: the slot whoever serves its batch
/// fills, and the lane its submitter helps serve while it waits.
pub(crate) struct Pending {
    slot: Completion<BatchReply>,
    lane: Arc<dyn LanePort>,
}

impl Pending {
    /// The reply, once the batch holding the request has committed —
    /// served on this thread if nobody else got to it (see
    /// `LanePort::wait`).
    pub(crate) fn wait(self) -> BatchReply {
        self.lane.wait(&self.slot)
    }
}

/// Where one submitted request stands: every submitter — a blocking
/// [`KvClient`] call, a connection's thread — submits all it has, then
/// [`wait`](Answer::wait)s.
pub(crate) enum Answer {
    /// The lane was idle: served on the submitter's thread.
    Served(BatchReply),
    /// Queued on a busy lane.
    Queued(Pending),
    /// The lane refused it (full under [`Backpressure::Reject`], or
    /// shut down).
    Refused,
}

impl Answer {
    /// The reply, blocking for a queued one; `None` for a refusal.
    pub(crate) fn wait(self) -> Option<BatchReply> {
        match self {
            Answer::Served(r) => Some(r),
            Answer::Queued(p) => Some(p.wait()),
            Answer::Refused => None,
        }
    }

    /// Did the write succeed? `false` for a failed write and a refusal.
    pub(crate) fn done(self) -> bool {
        matches!(self.wait(), Some(BatchReply::Done(true)))
    }
}

impl KvClient {
    /// Number of shard lanes behind this handle.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane index serving `key` (same routing as the store).
    pub fn lane_of(&self, key: u64) -> usize {
        (route_hash(key) % self.lanes.len() as u64) as usize
    }

    /// A multi-put's items split by the lane serving each key, in item
    /// order: `(lane, slice)` for every lane the batch touches. `entry`
    /// turns an item into what the slice holds — the item itself, moved
    /// (the wire's owned `PutMany`), or its value borrowed or copied. A
    /// counting pass over the keys sizes every slice exactly, so what
    /// this allocates depends on the lane count alone.
    pub(crate) fn split_by_lane<I, W, V>(
        &self,
        items: I,
        entry: impl FnMut(I::Item) -> (u64, V),
    ) -> impl Iterator<Item = (usize, Vec<(u64, V)>)>
    where
        I: IntoIterator + AsRef<[(u64, W)]>,
    {
        let mut counts = vec![0usize; self.lanes.len()];
        for (k, _) in items.as_ref() {
            counts[self.lane_of(*k)] += 1;
        }
        let mut by_lane: Vec<Vec<(u64, V)>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (k, v) in items.into_iter().map(entry) {
            by_lane[self.lane_of(k)].push((k, v));
        }
        let touched = |(_, slice): &(usize, Vec<_>)| !slice.is_empty();
        by_lane.into_iter().enumerate().filter(touched)
    }

    /// The idle-lane path for a submitter that handles its own replies
    /// (a network connection's thread): serve `reqs` on this thread if
    /// `lane` is idle. `None`: the lane is busy —
    /// [`enqueue`](KvClient::enqueue).
    pub(crate) fn try_serve(&self, lane: usize, reqs: &[BatchRequest]) -> Option<Vec<BatchReply>> {
        self.lanes[lane].try_serve(reqs)
    }

    /// The busy-lane path: queue `reqs` on `lane`, in order, under one
    /// lock, and serve the queue from this thread if the lane turns out
    /// to be free. One [`Answer`] per request: `Queued` with what to
    /// wait on, `Refused` for the tail the lane did not accept (full
    /// queue under [`Backpressure::Reject`], or a closed server).
    pub(crate) fn enqueue(
        &self,
        lane: usize,
        reqs: impl IntoIterator<Item = BatchRequest>,
    ) -> Vec<Answer> {
        let (mut items, mut answers) = (Vec::new(), Vec::new());
        for req in reqs {
            let slot = Completion::new();
            answers.push(Answer::Queued(Pending {
                slot: slot.clone(),
                lane: Arc::clone(&self.lanes[lane]),
            }));
            items.push(Queued { req, slot });
        }
        // the refused tail stays in `items`; its slots are never filled
        let accepted = self.lanes[lane].enqueue(&mut items);
        answers[accepted..].fill_with(|| Answer::Refused);
        answers
    }

    /// Submit one request to `lane` without waiting for a queued reply.
    pub(crate) fn submit(&self, lane: usize, req: BatchRequest) -> Answer {
        let reqs = [req];
        if let Some(mut replies) = self.try_serve(lane, &reqs) {
            return Answer::Served(replies.pop().expect("one reply per request"));
        }
        let mut answers = self.enqueue(lane, reqs);
        answers.pop().expect("one answer per request")
    }

    /// Look up `key`. `None` covers both absence and a refused
    /// submission (full queue under [`Backpressure::Reject`], or a
    /// server that shut down).
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        match self
            .submit(self.lane_of(key), BatchRequest::Get(key))
            .wait()
        {
            Some(BatchReply::Value(v)) => v,
            _ => None,
        }
    }

    /// Insert or update `key → value`; `false` when the shard rejected
    /// the write *or* the submission itself was refused.
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        self.write(self.lane_of(key), BatchRequest::Put(key, value.to_vec()))
    }

    /// Remove `key`; `false` for absent keys and refused submissions.
    pub fn delete(&self, key: u64) -> bool {
        self.write(self.lane_of(key), BatchRequest::Delete(key))
    }

    fn write(&self, lane: usize, req: BatchRequest) -> bool {
        self.submit(lane, req).done()
    }

    /// Apply a client-side batch: split by shard, submit one `PutMany`
    /// per involved lane, wait for all acks. Per-lane slices keep the
    /// store's per-shard atomicity contract; a busy lane's FASE may
    /// additionally absorb other clients' concurrent writes (that is
    /// the point).
    pub fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool {
        // submit to every lane before waiting on any
        let answers: Vec<Answer> = self
            .split_by_lane(items, |(k, v)| (*k, v.clone()))
            .map(|(lane, group)| self.submit(lane, BatchRequest::PutMany(group)))
            .collect();
        answers.into_iter().fold(true, |ok, a| ok & a.done())
    }

    /// Range scan `lo..=hi`, at most `limit` entries, sorted by key:
    /// one `Scan` per lane (keys are hash-routed, so every lane may
    /// hold part of the range; each lane snapshots its slice inside its
    /// own serve barrier), merged and truncated client-side. Per-lane
    /// results are each consistent; the merged view spans lanes like
    /// any multi-shard read does.
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        if lo > hi || limit == 0 {
            return Vec::new();
        }
        let per_lane = limit.min(u32::MAX as usize) as u32;
        let answers: Vec<Answer> = (0..self.lanes.len())
            .map(|lane| self.submit(lane, BatchRequest::Scan(lo, hi, per_lane)))
            .collect();
        merge_scan(answers.into_iter().filter_map(Answer::wait), limit)
    }
}

/// The answer to a scan fanned out over every lane: the lanes' entries
/// merged, sorted by key and cut to `limit`.
pub(crate) fn merge_scan(
    replies: impl IntoIterator<Item = BatchReply>,
    limit: usize,
) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = replies
        .into_iter()
        .flat_map(|r| match r {
            BatchReply::Entries(e) => e,
            _ => Vec::new(),
        })
        .collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out.truncate(limit);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use crate::store::KvStore;
    use nvcache_core::PolicyKind;

    fn cfg(shards: usize) -> KvConfig {
        KvConfig {
            shards,
            shard: ShardConfig {
                buckets: 64,
                data_len: 1 << 19,
                log_len: 1 << 15,
                policy: PolicyKind::ScFixed { capacity: 8 },
                adapt: None,
                pipelined: true,
            },
        }
    }

    #[test]
    fn single_client_roundtrip() {
        let server = KvServer::new(&cfg(2), &ServerConfig::default());
        let c = server.client();
        for k in 0..200u64 {
            assert!(c.put(k, &k.to_le_bytes()));
        }
        for k in 0..200u64 {
            assert_eq!(c.get(k).as_deref(), Some(&k.to_le_bytes()[..]), "key {k}");
        }
        assert!(c.delete(7));
        assert!(!c.delete(7));
        assert_eq!(c.get(7), None);
        assert_eq!(server.len(), 199);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_disjoint_keys() {
        let server = KvServer::new(&cfg(4), &ServerConfig::default());
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let c = server.client();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = w * 1000 + i;
                        assert!(c.put(k, &k.to_le_bytes()));
                        assert_eq!(c.get(k).as_deref(), Some(&k.to_le_bytes()[..]));
                    }
                });
            }
        });
        assert_eq!(server.len(), 800);
        let qs = server.queue_stats();
        assert_eq!(qs.enqueued, qs.drained, "nothing left behind");
        assert!(qs.occupancy_mean() >= 1.0);
        server.shutdown();
    }

    #[test]
    fn put_many_spans_shards_and_commits_per_lane() {
        let server = KvServer::new(&cfg(4), &ServerConfig::default());
        let c = server.client();
        let items: Vec<(u64, Vec<u8>)> = (0..64u64).map(|i| (i, vec![i as u8; 24])).collect();
        assert!(c.put_many(&items));
        for i in 0..64u64 {
            assert_eq!(c.get(i).as_deref(), Some(&vec![i as u8; 24][..]));
        }
        server.shutdown();
    }

    #[test]
    fn max_batch_one_still_serves_correctly() {
        let server = KvServer::new(
            &cfg(2),
            &ServerConfig {
                max_batch: 1,
                ..Default::default()
            },
        );
        let c = server.client();
        for k in 0..100u64 {
            assert!(c.put(k, b"v"));
        }
        assert_eq!(server.len(), 100);
        let qs = server.queue_stats();
        assert_eq!(qs.max_batch, 1, "unbatched lanes never group");
        server.shutdown();
    }

    #[test]
    fn acks_only_after_commit() {
        // every acked write must already be durable: crash immediately
        // after the ack and the value must survive
        let server = KvServer::new(&cfg(2), &ServerConfig::default());
        let c = server.client();
        for k in 0..50u64 {
            assert!(c.put(k, &(k * 7).to_le_bytes()));
            server.crash_and_recover_all(&CrashMode::StrictDurableOnly);
            assert_eq!(
                c.get(k).as_deref(),
                Some(&(k * 7).to_le_bytes()[..]),
                "acked write lost at key {k}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tail_and_fails_late_pushes() {
        let server = KvServer::new(&cfg(1), &ServerConfig::default());
        let c = server.client();
        assert!(c.put(1, b"x"));
        let dump = {
            let s = &server;
            let d: Vec<_> = (0..s.num_shards())
                .flat_map(|i| s.with_shard(i, |sh| sh.dump()))
                .collect();
            d
        };
        assert_eq!(dump.len(), 1);
        server.shutdown();
        // the client outlives the server: calls fail cleanly
        assert!(!c.put(2, b"y"));
        assert_eq!(c.get(1), None, "closed queue refuses the submission");
        assert!(!c.delete(1));
    }

    /// Reads see every earlier write of their own batch (overlay), and
    /// cross-client grouping actually happens under contention.
    #[test]
    fn grouped_lanes_form_multi_request_batches() {
        let server = KvServer::new(&cfg(1), &ServerConfig::default());
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let c = server.client();
                scope.spawn(move || {
                    for i in 0..300u64 {
                        let k = w * 10_000 + i;
                        assert!(c.put(k, &k.to_le_bytes()));
                    }
                });
            }
        });
        let qs = server.queue_stats();
        assert_eq!(qs.drained, 1200);
        assert!(qs.batches >= 1);
        assert!(
            qs.max_batch <= 256,
            "occupancy bounded by queue capacity, got {}",
            qs.max_batch
        );
        server.shutdown();
    }
    // ---- the two lane paths ------------------------------------------

    use nvcache_fase::FaseRuntime;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Condvar};

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap()
    }

    /// A turnstile `GateEngine::serve_batch` passes through: one permit
    /// per batch, so a test decides when a batch may run — and can see a
    /// batch parked *inside* `serve_batch`, engine lock held.
    #[derive(Default)]
    struct Gate {
        state: Mutex<(usize, usize)>, // (permits, parked)
        cv: Condvar,
    }

    const OPEN: usize = usize::MAX / 2;

    impl Gate {
        fn open() -> Arc<Gate> {
            let g = Arc::new(Gate::default());
            g.set(OPEN);
            g
        }

        fn set(&self, permits: usize) {
            lock(&self.state).0 = permits;
            self.cv.notify_all();
        }

        fn pass(&self) {
            let mut g = lock(&self.state);
            g.1 += 1;
            while g.0 == 0 {
                g = self.cv.wait(g).unwrap();
            }
            g.0 -= 1;
            g.1 -= 1;
        }

        fn parked(&self) -> usize {
            lock(&self.state).1
        }
    }

    /// Panics any batch that touches it.
    const POISON_KEY: u64 = u64::MAX;

    /// A volatile map behind the `Engine` seam: batches pass the gate,
    /// then apply in order.
    struct GateEngine {
        map: BTreeMap<u64, Vec<u8>>,
        gate: Arc<Gate>,
        heals: usize,
        /// Counts nothing: the map persists nothing.
        rt: FaseRuntime,
    }

    impl GateEngine {
        fn new(gate: &Arc<Gate>) -> GateEngine {
            GateEngine {
                map: BTreeMap::new(),
                gate: Arc::clone(gate),
                heals: 0,
                rt: FaseRuntime::new(64, 0, &PolicyKind::Lazy),
            }
        }
    }

    impl Engine for GateEngine {
        fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply> {
            self.gate.pass();
            reqs.iter()
                .map(|r| match r {
                    BatchRequest::Get(k) => BatchReply::Value(self.map.get(k).cloned()),
                    BatchRequest::Put(k, v) => {
                        assert_ne!(*k, POISON_KEY, "poisoned batch");
                        self.map.insert(*k, v.clone());
                        BatchReply::Done(true)
                    }
                    BatchRequest::PutMany(items) => {
                        self.map.extend(items.iter().cloned());
                        BatchReply::Done(true)
                    }
                    BatchRequest::Delete(k) => BatchReply::Done(self.map.remove(k).is_some()),
                    BatchRequest::Scan(lo, hi, limit) => BatchReply::Entries(
                        self.map
                            .range(*lo..=*hi)
                            .take(*limit as usize)
                            .map(|(k, v)| (*k, v.clone()))
                            .collect(),
                    ),
                })
                .collect()
        }
        fn heal_after_panic(&mut self) -> bool {
            self.heals += 1;
            true
        }
        fn crash_and_recover(&mut self, _: &CrashMode) {}
        fn len(&self) -> usize {
            self.map.len()
        }
        fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
            self.map.iter().map(|(k, v)| (*k, v.clone())).collect()
        }
        fn runtime(&self) -> &FaseRuntime {
            &self.rt
        }
        fn runtime_mut(&mut self) -> &mut FaseRuntime {
            &mut self.rt
        }
    }

    fn gate_server(gate: &Arc<Gate>) -> KvServer<GateEngine> {
        KvServer::with_engines([GateEngine::new(gate)], &ServerConfig::default())
    }

    fn spin_until(what: &str, mut cond: impl FnMut() -> bool) {
        let t0 = std::time::Instant::now();
        while !cond() {
            assert!(t0.elapsed().as_secs() < 20, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Hold lane 0's engine lock (as `with_shard` callers do) until the
    /// returned sender is dropped or sent to.
    fn hold_lane<'s, E: Engine>(
        scope: &'s std::thread::Scope<'s, '_>,
        server: &'s KvServer<E>,
    ) -> mpsc::Sender<()> {
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        scope.spawn(move || {
            server.with_shard(0, |_| {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        });
        held_rx.recv().unwrap();
        release_tx
    }

    /// Idle lane: a blocking client's whole session is served on its own
    /// thread — nothing ever goes through the queue.
    #[test]
    fn idle_lanes_are_served_by_the_caller() {
        let server = KvServer::new(&cfg(2), &ServerConfig::default());
        let c = server.client();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for i in 0..1000u64 {
            let k = (i * 7919) % 97;
            match i % 5 {
                0 | 1 => {
                    let v = i.to_le_bytes().to_vec();
                    assert!(c.put(k, &v));
                    model.insert(k, v);
                }
                2 => assert_eq!(c.get(k), model.get(&k).cloned(), "op {i}"),
                3 => assert_eq!(c.delete(k), model.remove(&k).is_some(), "op {i}"),
                _ => {
                    let items: Vec<(u64, Vec<u8>)> =
                        (0..4).map(|j| (k + j, vec![j as u8; 8])).collect();
                    assert!(c.put_many(&items));
                    model.extend(items);
                    let want: Vec<_> = model
                        .range(k..=k + 3)
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    assert_eq!(c.scan(k, k + 3, 16), want, "op {i}");
                }
            }
        }
        assert_eq!(server.dump(), model.into_iter().collect::<Vec<_>>());
        let qs = server.queue_stats();
        assert!(qs.batches >= 1000);
        assert_eq!(qs.queued_batches(), 0, "nothing was queued");
        assert_eq!(qs.inline_requests, qs.drained);
        assert_eq!(qs.enqueued, qs.drained);
        assert!(qs.occupancy_mean() >= 1.0);
        server.shutdown();
    }

    /// Busy lane: while someone holds the engine, submissions queue up
    /// and their submitters line up on the engine lock; the first one in
    /// then serves all of them as one grouped batch.
    #[test]
    fn a_busy_lane_queues_and_the_first_submitter_in_serves_one_grouped_batch() {
        let server = KvServer::new(&cfg(1), &ServerConfig::default());
        std::thread::scope(|scope| {
            let release = hold_lane(scope, &server);
            for w in 0..8u64 {
                let c = server.client();
                scope.spawn(move || assert!(c.put(w, &w.to_le_bytes())));
            }
            spin_until("8 queued puts", || server.lanes[0].queue.len() == 8);
            drop(release);
        });
        let qs = server.queue_stats();
        assert_eq!((qs.batches, qs.drained, qs.max_batch), (1, 8, 8));
        assert_eq!(qs.inline_batches, 0);
        assert_eq!(server.len(), 8);
        server.shutdown();
    }

    /// The embedded store's fallback: a `KvStore` call that finds its
    /// lane held queues an owned copy behind the clients' requests, in
    /// submission order, and its thread lines up on the lane like any
    /// client's. An embedded call on an idle lane is a caller-run batch.
    #[test]
    fn an_embedded_call_on_a_busy_lane_queues_behind_the_clients() {
        let store = KvStore::new(&cfg(1));
        let queue = &store.lanes[0].queue;
        std::thread::scope(|scope| {
            let release = hold_lane(scope, &*store);
            let store = &store;
            let c = store.client();
            scope.spawn(move || assert!(c.put(1, b"client")));
            spin_until("client put queued", || queue.len() == 1);
            scope.spawn(move || assert!(store.put(1, b"stored")));
            spin_until("embedded put queued", || queue.len() == 2);
            let c = store.client();
            scope.spawn(move || assert!(c.put(2, b"client")));
            spin_until("second client put queued", || queue.len() == 3);
            scope.spawn(move || assert!(store.put_many(&[(2, b"stored".to_vec())])));
            spin_until("embedded put_many queued", || queue.len() == 4);
            drop(release);
        });
        assert_eq!(store.get(1).as_deref(), Some(&b"stored"[..]), "in order");
        assert_eq!(store.get(2).as_deref(), Some(&b"stored"[..]), "in order");
        let qs = store.queue_stats();
        assert_eq!((qs.batches, qs.drained, qs.max_batch), (3, 6, 4));
        assert_eq!(
            (qs.inline_batches, qs.inline_requests),
            (2, 2),
            "the two gets"
        );
        assert_eq!(qs.enqueued, qs.drained);
    }

    /// A submitter that queues and finds the lane free serves everything
    /// queued — other clients' requests and its own, in queue order — as
    /// one batch on its own thread, before it goes on to its other lanes.
    #[test]
    fn a_submitter_that_finds_the_lane_free_serves_what_is_queued() {
        fn queued(k: u64, v: u8) -> (Queued, Completion<BatchReply>) {
            let slot = Completion::new();
            let req = BatchRequest::Put(k, vec![v]);
            (
                Queued {
                    req,
                    slot: slot.clone(),
                },
                slot,
            )
        }
        let lane = |max_batch| Lane {
            engine: Mutex::new(GateEngine::new(&Gate::open())),
            queue: SubmissionQueue::new(16, Backpressure::Block),
            max_batch,
            healed: Arc::new(AtomicU64::new(0)),
        };

        let core = lane(usize::MAX);
        // two other clients queued while the lane was busy ...
        let (a, a_slot) = queued(1, 1);
        let (b, b_slot) = queued(1, 2);
        assert_eq!(core.queue.push_group(&mut vec![a, b]), 2);
        // ... so a third finds the lock free but the queue non-empty
        assert!(core.try_serve(&[BatchRequest::Get(1)]).is_none());
        let (c, c_slot) = queued(1, 3);
        assert_eq!(core.enqueue(&mut vec![c]), 1);
        for slot in [a_slot, b_slot, c_slot] {
            assert_eq!(slot.try_take(), Some(BatchReply::Done(true)));
        }
        assert_eq!(core.lock().map.get(&1), Some(&vec![3]), "in order");
        let qs = core.queue.stats();
        assert_eq!((qs.batches, qs.drained, qs.max_batch), (1, 3, 3));
        assert_eq!((qs.inline_batches, qs.enqueued), (0, 3));

        // `max_batch: 1` holds on this path too: one request per batch,
        // the head of the queue first
        let core = lane(1);
        let (a, a_slot) = queued(1, 1);
        assert_eq!(core.queue.push_group(&mut vec![a]), 1);
        let (b, b_slot) = queued(1, 2);
        assert_eq!(core.enqueue(&mut vec![b]), 1);
        assert_eq!(a_slot.try_take(), Some(BatchReply::Done(true)));
        assert_eq!(b_slot.try_take(), None, "left for the next batch");
        assert_eq!(core.queue.len(), 1);
        assert_eq!(core.queue.stats().max_batch, 1);
    }

    /// Per-client FIFO across the two paths. `Put(k, 1)` is queued on a
    /// busy lane; its submitter drains it and parks inside `serve_batch`.
    /// The moment the queue reads empty the client submits `Put(k, 2)`.
    /// Because the drain happened *under* the engine lock, that second
    /// put cannot find the lane idle: it queues behind, and `k` ends at
    /// 2. A server that drained before locking would leave a window —
    /// queue empty, lock free, `Put(k, 1)` unserved — in which the
    /// second put is served on the caller's thread first.
    #[test]
    fn a_later_request_never_overtakes_an_earlier_one() {
        let gate = Arc::new(Gate::default());
        let server = gate_server(&gate);
        let queue = &server.lanes[0].queue;
        let k = 5u64;
        for round in 0..1000u32 {
            gate.set(0);
            let enqueued0 = queue.stats().enqueued;
            let holder_done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                // someone else's request holds the lane, parked at the gate
                let c = server.client();
                let holder_done = &holder_done;
                scope.spawn(move || {
                    assert!(c.put(1000, b"x"));
                    holder_done.store(true, Ordering::Release);
                });
                spin_until("holder parked", || gate.parked() == 1);
                // the client's first put finds the lane busy and queues
                let c = server.client();
                scope.spawn(move || assert!(c.put(k, &[1])));
                spin_until("first put queued", || {
                    queue.stats().enqueued == enqueued0 + 2
                });
                // its second put goes in the instant the holder is
                // through and the queue reads empty
                let c = server.client();
                scope.spawn(move || {
                    while !holder_done.load(Ordering::Acquire) || !queue.is_empty() {
                        std::hint::spin_loop();
                    }
                    assert!(c.put(k, &[2]));
                });
                gate.set(1); // the holder's batch, and only that one
                spin_until("second put submitted", || {
                    queue.stats().enqueued == enqueued0 + 3
                });
                gate.set(OPEN);
            });
            assert_eq!(
                server.with_shard(0, |e| e.map.get(&k).cloned()),
                Some(vec![2]),
                "round {round}: the later put was overtaken"
            );
        }
        server.shutdown();
    }

    /// A panic on the caller's thread heals the lane, fails only that
    /// group, and the lane keeps serving — on the same path.
    #[test]
    fn a_panic_on_the_callers_thread_heals_the_lane() {
        let gate = Gate::open();
        let server = gate_server(&gate);
        let c = server.client();
        assert!(c.put(1, b"before"));
        assert!(!c.put(POISON_KEY, b"boom"), "the poisoned group fails");
        assert_eq!(server.healed_panics(), 1);
        assert_eq!(server.with_shard(0, |e| e.heals), 1);
        assert_eq!(c.get(1).as_deref(), Some(&b"before"[..]));
        assert!(c.put(2, b"after"), "the lane lives on");
        assert_eq!(server.queue_stats().queued_batches(), 0, "all caller-run");
        // and the same on the queued path: only the poisoned batch
        // fails, its neighbours in the queue are served
        std::thread::scope(|scope| {
            gate.set(0);
            let c0 = server.client();
            scope.spawn(move || assert!(c0.put(1000, b"x")));
            spin_until("holder parked", || gate.parked() == 1);
            let c1 = server.client();
            scope.spawn(move || assert!(!c1.put(POISON_KEY, b"boom")));
            spin_until("poison queued", || server.lanes[0].queue.len() == 1);
            gate.set(OPEN);
        });
        assert_eq!(server.healed_panics(), 2);
        assert!(c.put(3, b"still"));
        server.shutdown();
    }

    /// `close()` with work queued behind a held lane and no further
    /// submitter: the tail's own submitters still serve it, every queued
    /// request is acked, and submissions after the close are refused.
    #[test]
    fn close_drains_the_queued_tail_without_a_further_submitter() {
        let server = KvServer::new(&cfg(1), &ServerConfig::default());
        let queue = &server.lanes[0].queue;
        std::thread::scope(|scope| {
            let release = hold_lane(scope, &server);
            for w in 0..3u64 {
                let c = server.client();
                scope.spawn(move || assert!(c.put(w, b"tail"), "queued before close: acked"));
            }
            spin_until("3 queued puts", || queue.len() == 3);
            scope.spawn(|| server.close());
            spin_until("queue closed", || queue.is_closed());
            assert!(!server.client().put(9, b"late"), "refused after close");
            drop(release);
        });
        assert_eq!(server.len(), 3);
        assert_eq!(queue.stats().queued_batches(), 1);
    }
}
