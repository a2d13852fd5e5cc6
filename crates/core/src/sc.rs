//! SC with a fixed capacity — the software write-combining cache of
//! Section II-B: fully associative, LRU, per thread. With the capacity
//! supplied by offline MRC profiling this is the paper's **SC-offline**
//! configuration; [`crate::AdaptiveScPolicy`] adds online selection.

use crate::lru::{LruCache, Touch};
use crate::policy::{PersistPolicy, StoreOutcome};
use nvcache_trace::Line;

/// The fixed-capacity software-cache policy.
#[derive(Debug, Clone)]
pub struct ScPolicy {
    cache: LruCache,
    hits: u64,
    misses: u64,
}

impl ScPolicy {
    /// New software cache holding `capacity` line addresses.
    pub fn new(capacity: usize) -> Self {
        ScPolicy {
            cache: LruCache::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Resize the cache, appending evicted lines to `out` (the
    /// allocation-free path the adaptive controller uses mid-replay).
    pub fn set_capacity_into(&mut self, capacity: usize, out: &mut Vec<Line>) {
        self.cache.set_capacity_into(capacity, out);
    }

    /// Software-cache hits (combined writes) so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Software-cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Software-cache miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

impl PersistPolicy for ScPolicy {
    fn name(&self) -> &'static str {
        "SC-offline"
    }

    fn sc_capacity(&self) -> Option<usize> {
        Some(self.capacity())
    }

    #[inline]
    fn on_store(&mut self, line: Line, out: &mut Vec<Line>) -> StoreOutcome {
        match self.cache.touch(line) {
            Touch::Hit => {
                self.hits += 1;
                StoreOutcome::Combined
            }
            Touch::Miss { evicted } => {
                self.misses += 1;
                if let Some(victim) = evicted {
                    out.push(victim);
                }
                StoreOutcome::Inserted
            }
        }
    }

    fn on_fase_end(&mut self, out: &mut Vec<Line>) {
        self.cache.drain_lru_first_into(out);
    }

    fn store_overhead_instrs(&self) -> u64 {
        4 // hash probe + list splice
    }

    fn reset(&mut self) {
        self.cache.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combines_within_capacity() {
        let mut p = ScPolicy::new(4);
        let mut out = Vec::new();
        for _ in 0..10 {
            for i in 0..4u64 {
                p.on_store(Line(i), &mut out);
            }
        }
        assert!(out.is_empty(), "working set fits: no mid-FASE flush");
        p.on_fase_end(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(p.hits(), 36);
        assert_eq!(p.misses(), 4);
    }

    #[test]
    fn eviction_flushes_lru_line() {
        let mut p = ScPolicy::new(2);
        let mut out = Vec::new();
        p.on_store(Line(1), &mut out);
        p.on_store(Line(2), &mut out);
        p.on_store(Line(1), &mut out); // promote 1
        p.on_store(Line(3), &mut out); // evicts 2
        assert_eq!(out, vec![Line(2)]);
    }

    #[test]
    fn full_associativity_beats_direct_mapping() {
        // The AtlasPolicy thrash case: lines 0 and 8 conflict in a
        // direct-mapped table but coexist in an LRU cache of size 2.
        let mut p = ScPolicy::new(2);
        let mut out = Vec::new();
        for i in 0..100 {
            p.on_store(Line(if i % 2 == 0 { 0 } else { 8 }), &mut out);
        }
        assert!(out.is_empty());
        p.on_fase_end(&mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn fase_end_drains_lru_first() {
        let mut p = ScPolicy::new(3);
        let mut out = Vec::new();
        p.on_store(Line(1), &mut out);
        p.on_store(Line(2), &mut out);
        p.on_store(Line(3), &mut out);
        p.on_fase_end(&mut out);
        assert_eq!(out, vec![Line(1), Line(2), Line(3)]);
        out.clear();
        p.on_fase_end(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn resize_returns_evictions() {
        let mut p = ScPolicy::new(4);
        let mut out = Vec::new();
        for i in 0..4u64 {
            p.on_store(Line(i), &mut out);
        }
        p.set_capacity_into(2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn miss_ratio_accounting() {
        let mut p = ScPolicy::new(2);
        let mut out = Vec::new();
        p.on_store(Line(1), &mut out); // miss
        p.on_store(Line(1), &mut out); // hit
        assert!((p.miss_ratio() - 0.5).abs() < 1e-12);
        p.reset();
        assert_eq!(p.miss_ratio(), 0.0);
    }
}
