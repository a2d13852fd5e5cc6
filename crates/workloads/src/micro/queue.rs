//! A persistent FIFO queue after Michael & Scott's two-lock blocking
//! algorithm (paper Section IV-B cites \[35\]): head and tail operate
//! independently; every mutation is one FASE so the queue is always
//! recoverable to a consistent prefix of operations.
//!
//! Nodes live in the persistent heap; `head`/`tail` pointers live at
//! fixed offsets in the data area. In the paper's multi-threaded runs
//! each thread's operations form its own FASE/write stream — trace
//! generation mirrors that by partitioning the operations.

use crate::workload::{paper_row, PaperRow, Workload};
use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_trace::{ThreadTrace, Trace};

const OFF_HEAD: usize = 0;
const OFF_TAIL: usize = 8;
const NODE_SIZE: usize = 16; // value u64 + next u64

/// A persistent queue over a FASE runtime with heap.
#[derive(Debug)]
pub struct PQueue {
    rt: FaseRuntime,
}

impl PQueue {
    /// Create a queue with capacity for roughly `max_nodes` live nodes.
    pub fn new(max_nodes: usize, policy: &PolicyKind) -> Self {
        let data = 4096 + max_nodes * NODE_SIZE * 2;
        let log = 64 * 1024;
        let mut rt = FaseRuntime::with_heap(data, log, policy);
        rt.fase(|rt| {
            rt.store_u64(OFF_HEAD, 0);
            rt.store_u64(OFF_TAIL, 0);
        });
        PQueue { rt }
    }

    /// Enable trace recording on the underlying runtime.
    pub fn record_trace(&mut self) {
        self.rt.record_trace();
    }

    /// Access the runtime (crash injection, stats, trace retrieval).
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.rt
    }

    /// Enqueue `v` (one FASE).
    pub fn enqueue(&mut self, v: u64) {
        let node = self.rt.alloc(NODE_SIZE).expect("queue heap exhausted") as usize;
        self.rt.begin_fase();
        self.rt.store_u64(node, v);
        self.rt.store_u64(node + 8, 0); // next = null
        let tail = self.rt.load_u64(OFF_TAIL) as usize;
        if tail != 0 {
            self.rt.store_u64(tail + 8, node as u64);
        } else {
            self.rt.store_u64(OFF_HEAD, node as u64);
        }
        self.rt.store_u64(OFF_TAIL, node as u64);
        self.rt.work(2);
        self.rt.end_fase();
    }

    /// Dequeue the oldest value (one FASE); `None` when empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        let head = self.rt.load_u64(OFF_HEAD) as usize;
        if head == 0 {
            return None;
        }
        self.rt.begin_fase();
        let v = self.rt.load_u64(head);
        let next = self.rt.load_u64(head + 8);
        self.rt.store_u64(OFF_HEAD, next);
        if next == 0 {
            self.rt.store_u64(OFF_TAIL, 0);
        }
        self.rt.work(2);
        self.rt.end_fase();
        self.rt.free(head as u64, NODE_SIZE);
        Some(v)
    }

    /// Number of elements (walks the list; test helper).
    pub fn len(&mut self) -> usize {
        let mut n = 0;
        let mut p = self.rt.load_u64(OFF_HEAD) as usize;
        while p != 0 {
            n += 1;
            p = self.rt.load_u64(p + 8) as usize;
        }
        n
    }

    /// True iff the queue has no elements.
    pub fn is_empty(&mut self) -> bool {
        self.rt.load_u64(OFF_HEAD) == 0
    }
}

/// The queue micro-benchmark: `ops` enqueue/dequeue pairs.
#[derive(Debug, Clone)]
pub struct QueueWorkload {
    /// Total operations across all threads (paper: 400 000).
    pub ops: usize,
}

impl QueueWorkload {
    /// Paper-shaped instance scaled by `scale`.
    pub fn scaled(scale: f64) -> Self {
        QueueWorkload {
            ops: ((400_000.0 * scale) as usize).max(16),
        }
    }

    /// Thread `t`'s program: `per` operations on a fresh queue, recorded.
    fn record(&self, t: usize, per: usize) -> ThreadTrace {
        let mut q = PQueue::new(per / 2 + 8, &PolicyKind::Best);
        q.record_trace();
        // alternate enqueue/dequeue with a warm prefix, like Mtest's
        // producer/consumer phases
        for i in 0..per {
            if i % 4 < 3 {
                q.enqueue((t * per + i) as u64);
            } else {
                q.dequeue();
            }
        }
        q.runtime_mut().take_trace().expect("recording was on")
    }
}

impl Workload for QueueWorkload {
    fn name(&self) -> &'static str {
        "queue"
    }

    /// Every thread runs the same operations on a queue of its own, and
    /// its index reaches only the enqueued values, never an address: the
    /// program is recorded once and its threads share the one buffer.
    fn trace(&self, threads: usize) -> Trace {
        let threads = threads.max(1);
        Trace::replicated(self.record(0, self.ops / threads), threads)
    }

    fn paper_row(&self) -> Option<PaperRow> {
        paper_row("queue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::flush_stats;
    use nvcache_pmem::CrashMode;

    #[test]
    fn fifo_order() {
        let mut q = PQueue::new(64, &PolicyKind::ScFixed { capacity: 8 });
        for i in 0..10 {
            q.enqueue(i);
        }
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_ops() {
        let mut q = PQueue::new(64, &PolicyKind::Atlas { size: 8 });
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn committed_operations_survive_crash() {
        let mut q = PQueue::new(64, &PolicyKind::ScFixed { capacity: 4 });
        for i in 0..5 {
            q.enqueue(i);
        }
        q.runtime_mut()
            .crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn crash_with_all_inflight_landing_preserves_queue_invariants() {
        let mut q = PQueue::new(64, &PolicyKind::Lazy);
        for i in 0..8 {
            q.enqueue(i);
        }
        q.runtime_mut()
            .crash_and_recover(&CrashMode::random(0.7, 0.7, 5));
        // every committed enqueue either fully present: list is intact
        let n = q.len();
        assert_eq!(n, 8);
    }

    #[test]
    fn trace_has_one_fase_per_operation() {
        let w = QueueWorkload { ops: 100 };
        let tr = w.trace(1);
        // recording starts after the constructor FASE
        assert_eq!(tr.total_fases(), 100);
        assert!(tr.total_writes() > 100);
    }

    #[test]
    fn flush_ratio_is_policy_insensitive_like_paper() {
        // Table III: linked structures with tiny FASEs give LA = AT = SC
        // (nothing to combine beyond the FASE's own few lines).
        let w = QueueWorkload { ops: 400 };
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy).flush_ratio();
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 }).flush_ratio();
        let sc = flush_stats(&tr, &PolicyKind::ScFixed { capacity: 50 }).flush_ratio();
        assert!((la - at).abs() < 0.02, "LA {la} vs AT {at}");
        assert!((la - sc).abs() < 0.02, "LA {la} vs SC {sc}");
        assert!(la > 0.3 && la < 0.9, "combinable but not free: {la}");
    }

    #[test]
    fn concurrent_producers_and_consumers_on_a_shared_queue() {
        // The two-lock algorithm's real use: one queue shared by
        // threads. We serialize whole operations with a lock (each op is
        // one FASE; the software cache stays per-thread in the paper's
        // design — here the queue itself is the shared object).
        use std::sync::Mutex;
        let q = Mutex::new(PQueue::new(4096, &PolicyKind::ScFixed { capacity: 8 }));
        let produced = 4 * 300;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..300u64 {
                        q.lock().unwrap().enqueue(t * 1000 + i);
                    }
                });
            }
        });
        let mut per_consumer: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            let q = &q;
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.lock().unwrap().dequeue() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                per_consumer.push(h.join().unwrap());
            }
        });
        let total: usize = per_consumer.iter().map(|c| c.len()).sum();
        assert_eq!(total, produced);
        // each element dequeued exactly once
        let mut all: Vec<u64> = per_consumer.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), produced, "no duplicates, no losses");
        // per-producer FIFO order holds within each consumer's stream
        for (ci, c) in per_consumer.iter().enumerate() {
            for t in 0..4u64 {
                let mine: Vec<u64> = c.iter().copied().filter(|v| v / 1000 == t).collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "consumer {ci} producer {t} order"
                );
            }
        }
        // and the queue survives a crash afterwards
        let mut q = q.into_inner().unwrap();
        q.runtime_mut()
            .crash_and_recover(&nvcache_pmem::CrashMode::StrictDurableOnly);
        assert!(q.is_empty());
    }

    /// The trace as it was recorded before threads shared a buffer: one
    /// run of the program per thread, each with its own index.
    fn trace_per_thread(w: &QueueWorkload, threads: usize) -> Trace {
        let threads = threads.max(1);
        let per = w.ops / threads;
        Trace::from_threads((0..threads).map(|t| w.record(t, per)).collect())
    }

    #[test]
    fn one_recording_equals_one_per_thread() {
        let w = QueueWorkload { ops: 400 };
        for threads in [0, 1, 3, 8] {
            let tr = w.trace(threads);
            assert_eq!(tr, trace_per_thread(&w, threads), "{threads} threads");
            let first = &tr.threads[0];
            assert!(
                tr.threads.iter().all(|t| std::sync::Arc::ptr_eq(t, first)),
                "{threads} threads: one buffer"
            );
        }
    }

    #[test]
    fn multithreaded_trace_partitions_ops() {
        let w = QueueWorkload { ops: 400 };
        let tr = w.trace(4);
        assert_eq!(tr.num_threads(), 4);
        // strong scaling: total roughly constant
        let single = w.trace(1);
        let ratio = tr.total_writes() as f64 / single.total_writes() as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }
}
