//! A persistent open-chaining hash table (the paper's `hash`
//! micro-benchmark is Clark's C hash table made persistent). Buckets are
//! an in-region pointer array; entries are heap nodes `{key, value,
//! next}`. Every mutation is a FASE.

use crate::workload::{paper_row, PaperRow, Workload};
use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_trace::Trace;

const ENTRY_SIZE: usize = 24; // key u64 + value u64 + next u64

/// A persistent hash table.
#[derive(Debug)]
pub struct PHashTable {
    rt: FaseRuntime,
    buckets: usize,
}

impl PHashTable {
    /// New table with `buckets` chains and room for ~`capacity` entries.
    pub fn new(buckets: usize, capacity: usize, policy: &PolicyKind) -> Self {
        let data = buckets * 8 + capacity * ENTRY_SIZE * 2 + 4096;
        let mut rt = FaseRuntime::with_heap(data, 64 * 1024, policy);
        // bucket array sits right after the heap header — reserve it by
        // allocating a block per 512 bucket pointers
        let base = rt.alloc(4096).expect("bucket array allocation") as usize;
        assert!(buckets * 8 <= 4096, "at most 512 buckets in this layout");
        rt.set_root(base as u64);
        rt.fase(|rt| {
            for b in 0..buckets {
                rt.store_u64(base + b * 8, 0);
            }
        });
        PHashTable { rt, buckets }
    }

    fn bucket_off(&self, key: u64) -> usize {
        let base = self.rt.root() as usize;
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
        base + (h as usize % self.buckets) * 8
    }

    /// Enable trace recording.
    pub fn record_trace(&mut self) {
        self.rt.record_trace();
    }

    /// Access the runtime.
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.rt
    }

    /// Insert or update `key → value` (one FASE).
    pub fn insert(&mut self, key: u64, value: u64) {
        let boff = self.bucket_off(key);
        // search chain
        let mut p = self.rt.load_u64(boff) as usize;
        while p != 0 {
            if self.rt.load_u64(p) == key {
                self.rt.fase(|rt| {
                    rt.store_u64(p + 8, value);
                    rt.work(1);
                });
                return;
            }
            p = self.rt.load_u64(p + 16) as usize;
        }
        let node = self.rt.alloc(ENTRY_SIZE).expect("hash heap exhausted") as usize;
        let head = self.rt.load_u64(boff);
        self.rt.fase(|rt| {
            rt.store_u64(node, key);
            rt.store_u64(node + 8, value);
            rt.store_u64(node + 16, head);
            rt.store_u64(boff, node as u64);
            rt.work(2);
        });
    }

    /// Look up `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let mut p = self.rt.load_u64(self.bucket_off(key)) as usize;
        while p != 0 {
            if self.rt.load_u64(p) == key {
                return Some(self.rt.load_u64(p + 8));
            }
            p = self.rt.load_u64(p + 16) as usize;
        }
        None
    }

    /// Remove `key`; returns its value if present (one FASE when found).
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let boff = self.bucket_off(key);
        let mut prev: Option<usize> = None;
        let mut p = self.rt.load_u64(boff) as usize;
        while p != 0 {
            if self.rt.load_u64(p) == key {
                let v = self.rt.load_u64(p + 8);
                let next = self.rt.load_u64(p + 16);
                self.rt.fase(|rt| {
                    match prev {
                        Some(pr) => rt.store_u64(pr + 16, next),
                        None => rt.store_u64(boff, next),
                    }
                    rt.work(1);
                });
                self.rt.free(p as u64, ENTRY_SIZE);
                return Some(v);
            }
            prev = Some(p);
            p = self.rt.load_u64(p + 16) as usize;
        }
        None
    }
}

/// The hash micro-benchmark: `keys` inserts with periodic updates and
/// removals (≈ paper: 4000 keys, ~7K FASEs).
#[derive(Debug, Clone)]
pub struct HashWorkload {
    /// Distinct keys inserted.
    pub keys: usize,
}

impl HashWorkload {
    /// Paper-shaped instance scaled by `scale`.
    pub fn scaled(scale: f64) -> Self {
        HashWorkload {
            keys: ((4000.0 * scale) as usize).max(16),
        }
    }
}

impl Workload for HashWorkload {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn trace(&self, threads: usize) -> Trace {
        let threads = threads.max(1);
        let per = self.keys / threads;
        let mut recs = Vec::with_capacity(threads);
        for t in 0..threads {
            let mut h = PHashTable::new(512, per + per / 2 + 8, &PolicyKind::Best);
            h.record_trace();
            for i in 0..per {
                let k = (t * per + i) as u64;
                h.insert(k, k * 10);
                if i % 2 == 0 {
                    h.insert(k, k * 10 + 1); // update: extra FASE
                }
                if i % 4 == 3 {
                    h.remove(k - 1);
                }
            }
            recs.push(h.runtime_mut().take_trace().unwrap());
        }
        Trace::from_threads(recs)
    }

    fn paper_row(&self) -> Option<PaperRow> {
        paper_row("hash")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::flush_stats;
    use nvcache_pmem::CrashMode;

    #[test]
    fn insert_get_update_remove() {
        let mut h = PHashTable::new(64, 256, &PolicyKind::ScFixed { capacity: 8 });
        for i in 0..100u64 {
            h.insert(i, i * 2);
        }
        for i in 0..100u64 {
            assert_eq!(h.get(i), Some(i * 2));
        }
        h.insert(5, 999);
        assert_eq!(h.get(5), Some(999));
        assert_eq!(h.remove(5), Some(999));
        assert_eq!(h.get(5), None);
        assert_eq!(h.remove(5), None);
        assert_eq!(h.get(100), None);
    }

    #[test]
    fn chains_handle_collisions() {
        // single bucket forces every key into one chain
        let mut h = PHashTable::new(1, 64, &PolicyKind::Lazy);
        for i in 0..20u64 {
            h.insert(i, i);
        }
        for i in 0..20u64 {
            assert_eq!(h.get(i), Some(i), "key {i}");
        }
        // remove from middle of chain
        assert_eq!(h.remove(10), Some(10));
        assert_eq!(h.get(10), None);
        assert_eq!(h.get(11), Some(11));
    }

    #[test]
    fn survives_crash_after_commits() {
        let mut h = PHashTable::new(64, 256, &PolicyKind::Atlas { size: 8 });
        for i in 0..50u64 {
            h.insert(i, i + 1000);
        }
        h.runtime_mut()
            .crash_and_recover(&CrashMode::StrictDurableOnly);
        for i in 0..50u64 {
            assert_eq!(h.get(i), Some(i + 1000), "key {i} lost");
        }
    }

    #[test]
    fn trace_ratio_in_paper_ballpark() {
        // Table III hash: LA ≈ 0.50, AT ≈ 0.62, SC ≈ 0.60
        let w = HashWorkload { keys: 800 };
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy).flush_ratio();
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 }).flush_ratio();
        assert!(la > 0.25 && la < 0.8, "LA {la}");
        assert!(at >= la - 0.02, "AT {at} must not beat LA {la}");
    }

    #[test]
    fn workload_trace_counts() {
        let w = HashWorkload { keys: 100 };
        let tr = w.trace(2);
        assert_eq!(tr.num_threads(), 2);
        assert!(tr.total_fases() > 100, "inserts + updates + removals");
    }
}
