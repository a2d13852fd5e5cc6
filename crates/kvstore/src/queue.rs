//! Bounded submission queue and completion slots — the busy-lane half
//! of the serving layer.
//!
//! A shard lane has no thread of its own: it is served by whichever
//! thread holds its engine lock (see [`crate::server`]). A submitter
//! that finds the lane's engine locked [`push_group`]s its requests —
//! under one queue lock — into the lane's [`SubmissionQueue`], and then
//! lines up on the engine lock itself. Whoever next holds that lock with
//! work queued drains *everything in flight* (up to the batch cap,
//! [`drain_ready`]) and serves the whole batch as a single FASE. The
//! queue is the batch-formation mechanism: under contention the drain
//! returns multi-client convoys, and the group commit amortizes the log
//! persists and the commit fence over all of them. A submitter that
//! gets the engine lock first instead asks [`claim_idle`] whether the
//! queue is open and empty, and if so serves its own group without ever
//! touching the buffer.
//!
//! The queue is one mutex around a bounded list and never makes anyone
//! wait: at capacity [`push`] and [`push_group`] hand back what did not
//! fit, and it is the submitter's business to make room — by serving a
//! batch — or to give up ([`Backpressure`]). Nobody sleeps on the queue,
//! so nobody has to be woken: every queued request has a live submitter
//! that will take the engine lock, and the first one in serves them all.
//!
//! Ordering contract: the queue is FIFO and is drained only by the
//! holder of the lane's engine lock, so a single client's requests are
//! drained — and served — in the order it pushed them, and nothing is
//! ever drained-but-unserved while the lock is free. This keeps
//! per-client FIFO across the two paths — what the committed-prefix
//! crash oracle relies on.
//!
//! Completion flows back through a [`Completion`] slot carried inside
//! a queued request: whoever served the batch fills it *after* the
//! batch's FASE committed, so a client that observed its ack may rely
//! on durability (acknowledged ⇒ committed ⇒ survives any crash). The
//! slot's condvar is the one place a thread sleeps in this module — a
//! submitter whose request is in a batch another thread is serving —
//! and it is notified only when that waiter has registered itself under
//! the slot's mutex: a fill nobody waits for costs no `futex` call.
//!
//! [`push`]: SubmissionQueue::push
//! [`push_group`]: SubmissionQueue::push_group
//! [`drain_ready`]: SubmissionQueue::drain_ready
//! [`claim_idle`]: SubmissionQueue::claim_idle

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What a submitter does when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Make room: the submitter serves a queued batch itself and pushes
    /// the rest (closed loop — clients self-pace to the shard's service
    /// rate).
    Block,
    /// Give up: the request is handed back (open loop — the caller
    /// counts the rejection and moves on; nothing is ever silently
    /// dropped).
    Reject,
}

/// Why a [`SubmissionQueue::push`] did not enqueue. The request rides
/// back to the caller in both cases — a bounded queue may refuse work,
/// but it never swallows it.
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity (counted in [`QueueStats::rejected`] under
    /// [`Backpressure::Reject`]).
    Full(T),
    /// Queue closed (the server shut down).
    Closed(T),
}

/// Counters the serving layer scrapes for the `batch_occupancy_mean`
/// benchmark column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests accepted by the lane: pushed into the queue, or served
    /// on the submitter's thread ([`SubmissionQueue::claim_idle`]).
    pub enqueued: u64,
    /// Pushes refused at capacity (Reject policy only).
    pub rejected: u64,
    /// Batches formed: drain calls that returned at least one request,
    /// plus caller-run groups.
    pub batches: u64,
    /// Requests handed out across all batches (both paths).
    pub drained: u64,
    /// Largest single batch formed.
    pub max_batch: usize,
    /// Of `batches`, those a submitter served itself on an idle lane.
    pub inline_batches: u64,
    /// Of `drained`, the requests in those caller-run batches.
    pub inline_requests: u64,
}

impl QueueStats {
    /// Mean requests per formed batch (the group-commit occupancy).
    pub fn occupancy_mean(&self) -> f64 {
        mean(self.drained, self.batches)
    }

    /// Batches drained from the queue (the busy-lane path) by a
    /// submitter that held the lane's engine lock.
    pub fn queued_batches(&self) -> u64 {
        self.batches - self.inline_batches
    }

    /// Mean requests per caller-run batch.
    pub fn inline_occupancy_mean(&self) -> f64 {
        mean(self.inline_requests, self.inline_batches)
    }

    /// Mean requests per batch drained from the queue.
    pub fn queued_occupancy_mean(&self) -> f64 {
        mean(self.drained - self.inline_requests, self.queued_batches())
    }

    /// Fold another queue's counters in (per-store aggregation over
    /// shard lanes).
    pub fn merge(&mut self, other: &QueueStats) {
        self.enqueued += other.enqueued;
        self.rejected += other.rejected;
        self.batches += other.batches;
        self.drained += other.drained;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.inline_batches += other.inline_batches;
        self.inline_requests += other.inline_requests;
    }

    fn count_batch(&mut self, n: usize) {
        self.batches += 1;
        self.drained += n as u64;
        self.max_batch = self.max_batch.max(n);
    }
}

fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// Bounded multi-producer request queue, drained by whoever holds the
/// lane's engine lock (see the module docs for the role it plays in
/// group commit). No call on it ever waits.
#[derive(Debug)]
pub struct SubmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    backpressure: Backpressure,
}

type Guard<'a, T> = std::sync::MutexGuard<'a, Inner<T>>;

impl<T> SubmissionQueue<T> {
    /// A queue holding at most `capacity` in-flight requests.
    pub fn new(capacity: usize, backpressure: Backpressure) -> Self {
        assert!(capacity >= 1, "a zero-capacity queue can accept nothing");
        SubmissionQueue {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
                stats: QueueStats::default(),
            }),
            capacity,
            backpressure,
        }
    }

    /// The bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue one request, or hand it back: [`PushError::Full`] at
    /// capacity, [`PushError::Closed`] once the queue is shut. The
    /// request is returned inside every error — a refused push never
    /// loses it.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.buf.len() == self.capacity {
            self.count_refused(&mut g, 1);
            return Err(PushError::Full(item));
        }
        g.buf.push_back(item);
        g.stats.enqueued += 1;
        Ok(())
    }

    /// Enqueue `items` in order, as many as fit, under one lock
    /// acquisition. Accepted requests are removed from the front of
    /// `items`; the return value counts them. Whatever did not fit — or
    /// everything, on a closed queue — stays in `items`: refused
    /// requests ride back, as with [`push`](Self::push). Under
    /// [`Backpressure::Block`] the caller makes room (it serves a batch
    /// under the engine lock) and pushes the rest; under
    /// [`Backpressure::Reject`] the remainder is counted in
    /// [`QueueStats::rejected`] and the caller gives up.
    pub fn push_group(&self, items: &mut Vec<T>) -> usize {
        let mut g = self.lock();
        if g.closed {
            return 0;
        }
        let n = (self.capacity - g.buf.len()).min(items.len());
        g.buf.extend(items.drain(..n));
        g.stats.enqueued += n as u64;
        self.count_refused(&mut g, items.len());
        n
    }

    fn count_refused(&self, g: &mut Guard<'_, T>, n: usize) {
        if self.backpressure == Backpressure::Reject {
            g.stats.rejected += n as u64;
        }
    }

    /// Should a submitter whose requests did not all fit make room and
    /// push again? Yes under [`Backpressure::Block`], while the queue
    /// is open.
    pub(crate) fn makes_room(&self) -> bool {
        self.backpressure == Backpressure::Block && !self.is_closed()
    }

    /// [`drain_ready`](Self::drain_ready) as a yes / no: did the drain
    /// move anything? Kept for the repo benchmark's adapter, which
    /// times a bare `push` + `drain_into` pair.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> bool {
        self.drain_ready(out, max) > 0
    }

    /// Move whatever is in flight right now (up to `max`, at least one)
    /// into `out` in FIFO order and return how many that was — `0` when
    /// another thread got there first. What a lane's threads call once
    /// they hold the engine lock.
    pub fn drain_ready(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut g = self.lock();
        let n = g.buf.len().min(max.max(1));
        if n > 0 {
            out.extend(g.buf.drain(..n));
            g.stats.count_batch(n);
        }
        n
    }

    /// Submitter side of the idle-lane path: if the queue is open and
    /// empty, count a caller-run batch of `n` requests and return
    /// `true` — the caller, who holds the lane's engine lock, serves
    /// them itself. `false` means queued work (or shutdown) comes
    /// first, and nothing was counted.
    pub fn claim_idle(&self, n: usize) -> bool {
        let mut g = self.lock();
        if g.closed || !g.buf.is_empty() {
            return false;
        }
        g.stats.enqueued += n as u64;
        g.stats.count_batch(n);
        g.stats.inline_batches += 1;
        g.stats.inline_requests += n as u64;
        true
    }

    /// Requests currently in flight.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Nothing in flight?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: subsequent pushes fail with
    /// [`PushError::Closed`]; what is already queued stays and is
    /// drained by its own submitters.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Has [`SubmissionQueue::close`] run?
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Snapshot of the batch-formation counters.
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }

    fn lock(&self) -> Guard<'_, T> {
        // a submitter can die inside a push without leaving the queue
        // in a torn state; keep serving
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[derive(Debug)]
struct Slot<T> {
    value: Option<T>,
    /// The issuing client is asleep in [`Completion::wait`].
    waiting: bool,
}

/// One-shot completion slot: whoever served the batch [`fill`]s it after
/// the batch's FASE committed; the issuing client [`wait`]s on it.
/// Cloning shares the slot (one clone rides inside the request, the
/// other stays with the client). Only requests that go through the
/// queue carry one — a submitter that serves an idle lane itself has
/// its replies in hand.
///
/// [`fill`]: Completion::fill
/// [`wait`]: Completion::wait
#[derive(Debug)]
pub struct Completion<T> {
    slot: Arc<(Mutex<Slot<T>>, std::sync::Condvar)>,
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion {
            slot: Arc::clone(&self.slot),
        }
    }
}

impl<T> Default for Completion<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Completion<T> {
    /// An unfilled slot.
    pub fn new() -> Self {
        Completion {
            slot: Arc::new((
                Mutex::new(Slot {
                    value: None,
                    waiting: false,
                }),
                std::sync::Condvar::new(),
            )),
        }
    }

    /// Deliver the result (exactly once; a second fill is a bug).
    pub fn fill(&self, value: T) {
        let (m, cv) = &*self.slot;
        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.value.is_none(), "completion filled twice");
        g.value = Some(value);
        if std::mem::take(&mut g.waiting) {
            drop(g);
            cv.notify_all();
        }
    }

    /// Block until the slot is filled, then take the result.
    pub fn wait(&self) -> T {
        let (m, cv) = &*self.slot;
        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = g.value.take() {
                return v;
            }
            g.waiting = true;
            g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking probe: the result if already delivered.
    pub fn try_take(&self) -> Option<T> {
        let (m, _) = &*self.slot;
        m.lock().unwrap_or_else(|e| e.into_inner()).value.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_and_across_pushes() {
        let q = SubmissionQueue::new(16, Backpressure::Block);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.drain_into(&mut out, 64));
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_drain_leaves_the_tail_in_order() {
        let q = SubmissionQueue::new(16, Backpressure::Block);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.drain_into(&mut out, 4));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        assert!(q.drain_into(&mut out, 64));
        assert_eq!(out, (4..10).collect::<Vec<_>>());
        let s = q.stats();
        assert_eq!((s.batches, s.drained, s.max_batch), (2, 10, 6));
    }

    #[test]
    fn reject_policy_returns_the_request() {
        let q = SubmissionQueue::new(2, Backpressure::Reject);
        q.push("a").unwrap();
        q.push("b").unwrap();
        match q.push("c") {
            Err(PushError::Full("c")) => {}
            other => panic!("expected Full(c), got {other:?}"),
        }
        assert_eq!(q.stats().rejected, 1);
        let mut out = Vec::new();
        q.drain_into(&mut out, 64);
        assert_eq!(out, vec!["a", "b"], "the rejected push left no trace");
    }

    #[test]
    fn close_fails_pushes_and_drains_the_tail() {
        let q = SubmissionQueue::new(4, Backpressure::Block);
        q.push(1).unwrap();
        q.close();
        assert!(matches!(q.push(2), Err(PushError::Closed(2))));
        let mut out = Vec::new();
        assert!(q.drain_into(&mut out, 64), "queued tail still drains");
        assert_eq!(out, vec![1]);
        out.clear();
        assert!(!q.drain_into(&mut out, 64), "closed and empty: exit");
    }

    #[test]
    fn push_group_is_one_batch_in_order() {
        let q = SubmissionQueue::new(16, Backpressure::Block);
        q.push(0).unwrap();
        let mut items = vec![1, 2, 3, 4];
        assert_eq!(q.push_group(&mut items), 4);
        assert!(items.is_empty());
        let mut out = Vec::new();
        assert!(q.drain_into(&mut out, 64));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.stats().enqueued, 5);
    }

    #[test]
    fn push_group_under_reject_hands_the_tail_back() {
        let q = SubmissionQueue::new(3, Backpressure::Reject);
        let mut items = vec![1, 2, 3, 4, 5];
        assert_eq!(q.push_group(&mut items), 3, "the prefix that fits");
        assert_eq!(items, vec![4, 5], "refused requests ride back");
        assert_eq!(q.stats().rejected, 2);
        let mut more = vec![6];
        assert_eq!(q.push_group(&mut more), 0);
        assert_eq!(more, vec![6]);
        let mut out = Vec::new();
        q.drain_into(&mut out, 64);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn claim_idle_counts_a_caller_run_batch_only_on_an_open_empty_queue() {
        let q = SubmissionQueue::new(8, Backpressure::Block);
        assert!(q.claim_idle(3));
        let s = q.stats();
        assert_eq!(
            (s.enqueued, s.drained, s.batches, s.max_batch),
            (3, 3, 1, 3)
        );
        assert_eq!((s.inline_batches, s.inline_requests), (1, 3));
        q.push(7).unwrap();
        assert!(!q.claim_idle(1), "queued work comes first");
        let mut out = Vec::new();
        q.drain_into(&mut out, 8);
        assert!(q.claim_idle(1));
        let s = q.stats();
        assert_eq!(s.enqueued, s.drained);
        assert_eq!((s.batches, s.inline_batches, s.queued_batches()), (3, 2, 1));
        assert!((s.inline_occupancy_mean() - 2.0).abs() < 1e-9);
        assert!((s.queued_occupancy_mean() - 1.0).abs() < 1e-9);
        q.close();
        assert!(!q.claim_idle(1), "a closed lane serves nobody");
        assert_eq!(q.stats(), s, "a refused claim counts nothing");
    }

    #[test]
    fn completion_roundtrip_across_threads() {
        let c: Completion<u32> = Completion::new();
        let worker_side = c.clone();
        std::thread::scope(|s| {
            s.spawn(move || worker_side.fill(7));
            assert_eq!(c.wait(), 7);
        });
        assert_eq!(c.try_take(), None, "wait consumed the value");
    }

    #[test]
    fn occupancy_mean_reflects_batches() {
        let q = SubmissionQueue::new(8, Backpressure::Block);
        let mut out = Vec::new();
        for batch in [3usize, 5, 1] {
            for i in 0..batch {
                q.push(i).unwrap();
            }
            out.clear();
            q.drain_into(&mut out, 8);
            assert_eq!(out.len(), batch);
        }
        let s = q.stats();
        assert!((s.occupancy_mean() - 3.0).abs() < 1e-9);
        assert_eq!(s.max_batch, 5);
    }
}
