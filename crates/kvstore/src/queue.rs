//! Bounded MPSC submission queue and completion slots — the busy-lane
//! half of the serving layer.
//!
//! A shard lane is served by whichever thread finds it idle (see
//! [`crate::server`]). A submitter that finds the lane's engine locked
//! [`push`]es — or [`push_group`]s, under one lock and one wake-up —
//! into the lane's [`SubmissionQueue`]. Whoever next holds the engine
//! lock with work queued — the lane's worker, which waits for the queue
//! to hold something ([`wait_ready`]) and then takes the lock, or a
//! submitter that has just pushed and finds the lock free — drains
//! *everything in flight* (up to the batch cap, [`drain_ready`]) and
//! serves the whole batch as a single FASE. The queue is the
//! batch-formation mechanism: under contention the drain returns
//! multi-client convoys, and the group commit amortizes the log
//! persists and the commit fence over all of them. A submitter that
//! gets the engine lock first instead asks [`claim_idle`] whether the
//! queue is open and empty, and if so serves its own group without ever
//! touching the buffer.
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
//! on durability (acknowledged ⇒ committed ⇒ survives any crash).
//!
//! Every condvar in this module is notified only when a waiter has
//! registered itself under the same mutex: the notifier takes the
//! registration off as it wakes, so a burst of pushes or fills against
//! one sleeper costs one `futex` call, and none at all when nobody
//! sleeps.
//!
//! [`push`]: SubmissionQueue::push
//! [`push_group`]: SubmissionQueue::push_group
//! [`wait_ready`]: SubmissionQueue::wait_ready
//! [`drain_into`]: SubmissionQueue::drain_into
//! [`drain_ready`]: SubmissionQueue::drain_ready
//! [`claim_idle`]: SubmissionQueue::claim_idle

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// What a producer experiences when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the producer until the worker drains (closed loop —
    /// clients self-pace to the shard's service rate).
    Block,
    /// Fail the push immediately, handing the request back (open loop —
    /// the caller counts the rejection and moves on; nothing is ever
    /// silently dropped).
    Reject,
}

/// Why a [`SubmissionQueue::push`] did not enqueue. The request rides
/// back to the caller in both cases — a bounded queue may refuse work,
/// but it never swallows it.
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity under [`Backpressure::Reject`].
    Full(T),
    /// Queue closed (worker shut down).
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

    /// Batches drained from the queue (the busy-lane path), by the
    /// lane's worker or by a submitter that found the lane free.
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
    /// Producers asleep on `not_full`.
    producers_waiting: usize,
    /// The consumer is asleep on `not_empty`.
    consumer_waiting: bool,
}

/// Bounded multi-producer single-consumer request queue (see the module
/// docs for the role it plays in group commit).
#[derive(Debug)]
pub struct SubmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Producers park here under [`Backpressure::Block`].
    not_full: Condvar,
    /// The worker parks here when nothing is in flight.
    not_empty: Condvar,
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
                producers_waiting: 0,
                consumer_waiting: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            backpressure,
        }
    }

    /// The bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue one request. Blocks at capacity under
    /// [`Backpressure::Block`]; returns [`PushError::Full`] under
    /// [`Backpressure::Reject`]; returns [`PushError::Closed`] once the
    /// worker has shut the queue. The request is returned inside every
    /// error — a refused push never loses it.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return Err(PushError::Closed(item));
            }
            if g.buf.len() < self.capacity {
                g.buf.push_back(item);
                g.stats.enqueued += 1;
                self.wake_consumer(g);
                return Ok(());
            }
            match self.backpressure {
                Backpressure::Reject => {
                    g.stats.rejected += 1;
                    return Err(PushError::Full(item));
                }
                Backpressure::Block => g = self.wait_not_full(g),
            }
        }
    }

    /// Enqueue `items` in order: as many as fit go in under one lock
    /// acquisition. Accepted requests are removed from the front of
    /// `items`; the return value counts them. Under
    /// [`Backpressure::Block`] the call waits for room as often as it
    /// takes, so it returns short only when the queue closed; under
    /// [`Backpressure::Reject`] whatever did not fit at once stays in
    /// `items` (counted in [`QueueStats::rejected`]) — refused requests
    /// ride back, as with [`push`](Self::push).
    ///
    /// Unlike `push` this does not wake the consumer (except to make
    /// room): the producer may be about to serve the queue itself.
    /// Follow with [`kick`](Self::kick) once that is decided.
    pub fn push_group(&self, items: &mut Vec<T>) -> usize {
        let mut accepted = 0;
        let mut g = self.lock();
        while !items.is_empty() && !g.closed {
            let n = (self.capacity - g.buf.len()).min(items.len());
            g.buf.extend(items.drain(..n));
            g.stats.enqueued += n as u64;
            accepted += n;
            if items.is_empty() {
                break;
            }
            match self.backpressure {
                Backpressure::Reject => {
                    g.stats.rejected += items.len() as u64;
                    break;
                }
                Backpressure::Block => {
                    // the worker must run before there is room again
                    if std::mem::take(&mut g.consumer_waiting) {
                        self.not_empty.notify_one();
                    }
                    g = self.wait_not_full(g);
                }
            }
        }
        accepted
    }

    /// Wake the consumer if it sleeps while requests are in flight —
    /// the one wake-up a [`push_group`](Self::push_group) that leaves
    /// its requests to the worker owes it. Free when the queue has been
    /// served in the meantime or the worker is already up.
    pub fn kick(&self) {
        let g = self.lock();
        if !g.buf.is_empty() {
            self.wake_consumer(g);
        }
    }

    /// Worker side: block until at least one request is in flight (or
    /// the queue is closed), then move up to `max` requests into `out`
    /// in FIFO order — everything in flight when the drain runs, capped.
    /// Returns `false` only when the queue is closed *and* empty: the
    /// worker's signal to exit after the final batch.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> bool {
        let Some(g) = self.wait_nonempty() else {
            return false;
        };
        self.take(g, out, max);
        true
    }

    /// [`drain_into`](Self::drain_into) without the wait: move whatever
    /// is in flight right now (up to `max`) into `out` and return how
    /// many that was — `0` when another thread got there first. What
    /// the lane's threads call once they hold the engine lock.
    pub fn drain_ready(&self, out: &mut Vec<T>, max: usize) -> usize {
        let g = self.lock();
        if g.buf.is_empty() {
            return 0;
        }
        self.take(g, out, max)
    }

    fn take(&self, mut g: Guard<'_, T>, out: &mut Vec<T>, max: usize) -> usize {
        let n = g.buf.len().min(max.max(1));
        out.extend(g.buf.drain(..n));
        g.stats.count_batch(n);
        // only a bounded drain can leave producers still blocked on a
        // full buffer; wake them all — the buffer has `n` free slots now
        if g.producers_waiting > 0 {
            g.producers_waiting = 0;
            drop(g);
            self.not_full.notify_all();
        }
        n
    }

    /// Worker side: block until at least one request is in flight,
    /// taking nothing. Returns `false` when the queue is closed and
    /// empty. The lane worker waits here, *then* takes the engine lock,
    /// and drains only under it.
    pub fn wait_ready(&self) -> bool {
        self.wait_nonempty().is_some()
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
    /// [`PushError::Closed`]; the worker drains what is already queued
    /// and then sees the closed-and-empty signal.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        g.producers_waiting = 0;
        g.consumer_waiting = false;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
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
        // a producer can die between push and notify without leaving the
        // queue in a torn state; keep serving
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Release the lock, then wake the consumer if it sleeps.
    fn wake_consumer(&self, mut g: Guard<'_, T>) {
        let asleep = std::mem::take(&mut g.consumer_waiting);
        drop(g);
        if asleep {
            self.not_empty.notify_one();
        }
    }

    fn wait_not_full<'a>(&self, mut g: Guard<'a, T>) -> Guard<'a, T> {
        g.producers_waiting += 1;
        self.not_full.wait(g).unwrap_or_else(|e| e.into_inner())
    }

    /// The lock, held, with the buffer non-empty; `None` once the queue
    /// is closed and empty.
    fn wait_nonempty(&self) -> Option<Guard<'_, T>> {
        let mut g = self.lock();
        while g.buf.is_empty() {
            if g.closed {
                return None;
            }
            g.consumer_waiting = true;
            g = self.not_empty.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        Some(g)
    }
}

#[derive(Debug)]
struct Slot<T> {
    value: Option<T>,
    /// The issuing client is asleep in [`Completion::wait`].
    waiting: bool,
}

/// One-shot completion slot: the worker [`fill`]s it after the batch's
/// FASE committed; the issuing client [`wait`]s on it. Cloning shares
/// the slot (one clone rides inside the request, the other stays with
/// the client). Only requests that go through the queue carry one — a
/// submitter that serves an idle lane itself has its replies in hand.
///
/// [`fill`]: Completion::fill
/// [`wait`]: Completion::wait
#[derive(Debug)]
pub struct Completion<T> {
    slot: Arc<(Mutex<Slot<T>>, Condvar)>,
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
                Condvar::new(),
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

    /// Block until the worker fills the slot, then take the result.
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
    fn blocking_producer_resumes_after_drain() {
        let q = SubmissionQueue::new(2, Backpressure::Block);
        q.push(0).unwrap();
        q.push(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| q.push(2).unwrap()); // blocks at capacity
            let mut out = Vec::new();
            // drain until the blocked push lands (the producer wakes on
            // the not_full signal and finishes)
            let mut got = Vec::new();
            while got.len() < 3 {
                out.clear();
                assert!(q.drain_into(&mut out, 64));
                got.extend(out.iter().copied());
            }
            assert_eq!(got, vec![0, 1, 2]);
        });
    }

    /// Regression: a producer parked in `Backpressure::Block` on a full
    /// queue must be woken by `close()` and handed `Closed` back in
    /// bounded time — not left asleep on the condvar forever. (`close`
    /// must notify `not_full`, and the woken `push` must re-check
    /// `closed` *before* re-checking capacity, since the buffer is
    /// still full.)
    #[test]
    fn close_wakes_blocked_producer_in_bounded_time() {
        use std::sync::mpsc;
        use std::time::Duration;

        let q = Arc::new(SubmissionQueue::new(1, Backpressure::Block));
        q.push(0u32).unwrap();
        let (tx, rx) = mpsc::channel();
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            // blocks: queue is at capacity and nothing ever drains it
            let res = qp.push(1u32);
            tx.send(()).unwrap();
            res
        });
        // give the producer time to actually park on not_full
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("blocked producer not woken by close() within 5s");
        match producer.join().unwrap() {
            Err(PushError::Closed(1)) => {}
            other => panic!("expected Closed(1), got {other:?}"),
        }
        // the pre-close item still drains; the refused one left no trace
        let mut out = Vec::new();
        assert!(q.drain_into(&mut out, 64));
        assert_eq!(out, vec![0]);
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
    fn push_group_under_block_feeds_a_group_larger_than_the_queue() {
        let q = SubmissionQueue::new(4, Backpressure::Block);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut items: Vec<u32> = (0..50).collect();
                assert_eq!(q.push_group(&mut items), 50);
                q.kick();
            });
            let mut got = Vec::new();
            let mut out = Vec::new();
            while got.len() < 50 {
                out.clear();
                assert!(q.drain_into(&mut out, 64));
                assert!(out.len() <= 4, "never past capacity");
                got.extend(out.iter().copied());
            }
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        });
    }

    #[test]
    fn push_group_returns_short_when_closed_mid_wait() {
        let q = SubmissionQueue::new(2, Backpressure::Block);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let mut items = vec![1, 2, 3, 4];
                let n = q.push_group(&mut items);
                (n, items)
            });
            // the producer is parked on the full queue, two items in
            while q.lock().producers_waiting == 0 {
                std::thread::yield_now();
            }
            q.close();
            let (n, left) = h.join().unwrap();
            assert_eq!((n, left), (2, vec![3, 4]));
        });
    }

    #[test]
    fn push_group_leaves_the_wake_up_to_kick() {
        let q = SubmissionQueue::new(4, Backpressure::Block);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.wait_ready());
            while !q.lock().consumer_waiting {
                std::thread::yield_now();
            }
            q.kick(); // nothing queued: nobody to wake
            assert!(q.lock().consumer_waiting);
            assert_eq!(q.push_group(&mut vec![1, 2]), 2);
            assert!(q.lock().consumer_waiting, "the producer may serve it");
            q.kick();
            assert!(h.join().unwrap());
        });
        let mut out = Vec::new();
        assert_eq!(q.drain_ready(&mut out, 8), 2);
        assert_eq!(q.drain_ready(&mut out, 8), 0, "empty: no wait, no batch");
        assert_eq!(q.stats().batches, 1);
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
    fn wait_ready_reports_work_without_taking_it() {
        let q = SubmissionQueue::new(4, Backpressure::Block);
        std::thread::scope(|s| {
            let h = s.spawn(|| q.wait_ready());
            while !q.lock().consumer_waiting {
                std::thread::yield_now();
            }
            q.push(1).unwrap();
            assert!(h.join().unwrap());
        });
        assert_eq!(q.len(), 1, "still queued");
        q.close();
        assert!(q.wait_ready(), "closed, but the tail is still there");
        let mut out = Vec::new();
        assert!(q.drain_into(&mut out, 4));
        assert!(!q.wait_ready(), "closed and empty");
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
