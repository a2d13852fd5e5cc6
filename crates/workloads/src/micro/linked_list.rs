//! A persistent sorted singly-linked list, populated in a *perfect
//! shuffle* pattern (paper Section IV-B): keys arrive in bit-reversed
//! order so inserts scatter across the list, defeating spatial locality
//! — each insert FASE touches the new node's line plus the
//! predecessor's line, which is why no policy beats LA here (Table III:
//! LA = AT = SC = 0.6).

use crate::workload::{paper_row, PaperRow, Workload};
use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_trace::{ThreadTrace, Trace};

const NODE_SIZE: usize = 16; // key u64 + next u64
const OFF_LIST_HEAD: usize = 0;

/// A persistent sorted singly-linked list.
#[derive(Debug)]
pub struct PLinkedList {
    rt: FaseRuntime,
}

impl PLinkedList {
    /// New list with room for `max_nodes` nodes.
    pub fn new(max_nodes: usize, policy: &PolicyKind) -> Self {
        let data = 4096 + max_nodes * NODE_SIZE * 2;
        let mut rt = FaseRuntime::with_heap(data, 64 * 1024, policy);
        rt.fase(|rt| rt.store_u64(OFF_LIST_HEAD, 0));
        PLinkedList { rt }
    }

    /// Enable trace recording.
    pub fn record_trace(&mut self) {
        self.rt.record_trace();
    }

    /// Access the runtime.
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.rt
    }

    /// Insert `key` keeping the list sorted (one FASE).
    pub fn insert(&mut self, key: u64) {
        // find predecessor (reads happen outside the FASE, like Atlas
        // programs that search and then lock)
        let mut prev: Option<usize> = None;
        let mut p = self.rt.load_u64(OFF_LIST_HEAD) as usize;
        while p != 0 && self.rt.load_u64(p) < key {
            prev = Some(p);
            p = self.rt.load_u64(p + 8) as usize;
        }
        let node = self.rt.alloc(NODE_SIZE).expect("list heap exhausted") as usize;
        self.rt.begin_fase();
        self.rt.store_u64(node, key);
        self.rt.store_u64(node + 8, p as u64);
        match prev {
            Some(pr) => self.rt.store_u64(pr + 8, node as u64),
            None => self.rt.store_u64(OFF_LIST_HEAD, node as u64),
        }
        self.rt.work(2);
        self.rt.end_fase();
    }

    /// Is `key` present?
    pub fn contains(&mut self, key: u64) -> bool {
        let mut p = self.rt.load_u64(OFF_LIST_HEAD) as usize;
        while p != 0 {
            let k = self.rt.load_u64(p);
            if k == key {
                return true;
            }
            if k > key {
                return false;
            }
            p = self.rt.load_u64(p + 8) as usize;
        }
        false
    }

    /// Keys in order (test helper).
    pub fn to_vec(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut p = self.rt.load_u64(OFF_LIST_HEAD) as usize;
        while p != 0 {
            out.push(self.rt.load_u64(p));
            p = self.rt.load_u64(p + 8) as usize;
        }
        out
    }
}

/// Bit-reversal of `i` within `bits` bits — the perfect-shuffle
/// insertion order.
pub fn bit_reverse(i: u64, bits: u32) -> u64 {
    i.reverse_bits() >> (64 - bits)
}

/// The linked-list micro-benchmark: insert `n` keys in perfect-shuffle
/// order (paper: 10 000).
#[derive(Debug, Clone)]
pub struct LinkedListWorkload {
    /// Keys inserted.
    pub n: usize,
}

impl LinkedListWorkload {
    /// Paper-shaped instance scaled by `scale`.
    pub fn scaled(scale: f64) -> Self {
        LinkedListWorkload {
            n: ((10_000.0 * scale) as usize).max(16),
        }
    }

    /// Thread `t` of `threads`: its share of the keys inserted in
    /// perfect-shuffle order into a fresh list, recorded.
    fn record(&self, t: usize, threads: usize) -> ThreadTrace {
        let per = (self.n / threads).max(2);
        let bits = (64 - (per as u64 - 1).leading_zeros()).max(1);
        let mut l = PLinkedList::new(per + 8, &PolicyKind::Best);
        l.record_trace();
        for i in 0..per as u64 {
            let key = bit_reverse(i % (1 << bits), bits) + ((t as u64) << 40);
            l.insert(key);
        }
        l.runtime_mut().take_trace().expect("recording was on")
    }
}

impl Workload for LinkedListWorkload {
    fn name(&self) -> &'static str {
        "linked-list"
    }

    /// Every thread inserts the same shuffled keys into a list of its
    /// own, its index only in the keys' high bits, which never change
    /// their order: the program is recorded once and its threads share
    /// the one buffer.
    fn trace(&self, threads: usize) -> Trace {
        let threads = threads.max(1);
        Trace::replicated(self.record(0, threads), threads)
    }

    fn paper_row(&self) -> Option<PaperRow> {
        paper_row("linked-list")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::flush_stats;
    use nvcache_pmem::CrashMode;

    #[test]
    fn bit_reverse_is_a_permutation() {
        let mut seen: Vec<u64> = (0..16).map(|i| bit_reverse(i, 4)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
        assert_eq!(bit_reverse(1, 4), 8);
        assert_eq!(bit_reverse(3, 4), 12);
    }

    #[test]
    fn list_stays_sorted_under_shuffled_inserts() {
        let mut l = PLinkedList::new(64, &PolicyKind::ScFixed { capacity: 8 });
        for i in 0..32u64 {
            l.insert(bit_reverse(i, 5));
        }
        let v = l.to_vec();
        assert_eq!(v, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_and_lookup() {
        let mut l = PLinkedList::new(64, &PolicyKind::Lazy);
        l.insert(5);
        l.insert(1);
        l.insert(9);
        assert!(l.contains(5));
        assert!(!l.contains(4));
        assert_eq!(l.to_vec(), vec![1, 5, 9]);
    }

    #[test]
    fn survives_crash() {
        let mut l = PLinkedList::new(64, &PolicyKind::Atlas { size: 8 });
        for i in 0..20u64 {
            l.insert(bit_reverse(i, 5));
        }
        l.runtime_mut()
            .crash_and_recover(&CrashMode::StrictDurableOnly);
        let v = l.to_vec();
        assert_eq!(v.len(), 20);
        assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted after recovery");
    }

    #[test]
    fn all_policies_tie_like_paper() {
        // Table III: linked-list LA = AT = SC = 0.60001 — tiny FASEs
        // scattered over the heap leave nothing for any cache to combine.
        let w = LinkedListWorkload { n: 512 };
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy).flush_ratio();
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 }).flush_ratio();
        let sc = flush_stats(&tr, &PolicyKind::ScFixed { capacity: 50 }).flush_ratio();
        assert!((la - at).abs() < 0.03, "LA {la} AT {at}");
        assert!((la - sc).abs() < 0.03, "LA {la} SC {sc}");
        assert!(la > 0.3, "small FASEs keep the ratio high: {la}");
    }

    /// The trace as it was recorded before threads shared a buffer: one
    /// run of the program per thread, each with its own index.
    fn trace_per_thread(w: &LinkedListWorkload, threads: usize) -> Trace {
        let threads = threads.max(1);
        Trace::from_threads((0..threads).map(|t| w.record(t, threads)).collect())
    }

    #[test]
    fn one_recording_equals_one_per_thread() {
        let w = LinkedListWorkload { n: 512 };
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
}
