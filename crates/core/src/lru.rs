//! The software cache data structure: hash map + intrusive doubly-linked
//! list over a slab, exactly the design of paper Section III-C ("The
//! Cache"): all operations — lookup, insert, promote, evict, resize —
//! are O(1) (resize is O(1) per evicted entry).

use nvcache_trace::hash::{fx_map_with_capacity, FxHashMap};
use nvcache_trace::Line;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    line: Line,
}

/// Result of inserting/touching a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The line was already cached (a write was combined).
    Hit,
    /// The line was inserted; `evicted` is the LRU victim if the cache
    /// was full.
    Miss {
        /// Evicted LRU line to be flushed, if the cache was at capacity.
        evicted: Option<Line>,
    },
}

/// Fully-associative LRU cache of cache-line addresses.
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Line → slab index. Fx-hashed: `touch` probes this map on every
    /// persistent store, making it the hottest map in the simulator.
    map: FxHashMap<Line, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
    capacity: usize,
}

impl LruCache {
    /// New cache holding at most `capacity` lines (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        LruCache {
            map: fx_map_with_capacity(capacity * 2),
            nodes: Vec::with_capacity(capacity),
            // every evict/remove pushes here before the next insert pops,
            // so the free list can reach `capacity` entries; pre-size it
            free: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current number of cached lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is `line` cached?
    pub fn contains(&self, line: Line) -> bool {
        self.map.contains_key(&line)
    }

    #[inline]
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    #[inline]
    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn pop_lru(&mut self) -> Line {
        debug_assert_ne!(self.tail, NIL);
        let idx = self.tail;
        let line = self.nodes[idx as usize].line;
        self.unlink(idx);
        self.free.push(idx);
        self.map.remove(&line);
        line
    }

    /// Write to `line`: promote it to MRU if present (the write is
    /// *combined*), otherwise insert it, evicting the LRU line when full.
    pub fn touch(&mut self, line: Line) -> Touch {
        if let Some(&idx) = self.map.get(&line) {
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return Touch::Hit;
        }
        let evicted = if self.map.len() == self.capacity {
            Some(self.pop_lru())
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].line = line;
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node {
                    prev: NIL,
                    next: NIL,
                    line,
                });
                i
            }
        };
        self.push_front(idx);
        self.map.insert(line, idx);
        Touch::Miss { evicted }
    }

    /// Remove a specific line (e.g. it was flushed for another reason).
    pub fn remove(&mut self, line: Line) -> bool {
        match self.map.remove(&line) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Remove every cached line, appending them to `out` LRU first (the
    /// order flushes are issued at a FASE end — oldest data first).
    /// Allocation-free when `out` has capacity: the FASE-end drain on
    /// the replay hot path reuses one buffer per thread.
    pub fn drain_lru_first_into(&mut self, out: &mut Vec<Line>) {
        out.reserve(self.map.len());
        while !self.map.is_empty() {
            out.push(self.pop_lru());
        }
    }

    /// Change the capacity; if shrinking below the current length,
    /// evicts LRU lines, appending them to `out`.
    pub fn set_capacity_into(&mut self, capacity: usize, out: &mut Vec<Line>) {
        assert!(capacity >= 1);
        self.capacity = capacity;
        while self.map.len() > capacity {
            out.push(self.pop_lru());
        }
    }

    /// Forget every cached line without reporting them (reset path —
    /// nothing is flushed). Keeps the map, slab and free-list storage.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Cached lines from MRU to LRU (test/diagnostic helper).
    pub fn iter_mru(&self) -> impl Iterator<Item = Line> + '_ {
        struct It<'a> {
            cache: &'a LruCache,
            cur: u32,
        }
        impl Iterator for It<'_> {
            type Item = Line;
            fn next(&mut self) -> Option<Line> {
                if self.cur == NIL {
                    return None;
                }
                let n = &self.cache.nodes[self.cur as usize];
                self.cur = n.next;
                Some(n.line)
            }
        }
        It {
            cache: self,
            cur: self.head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u64) -> Line {
        Line(x)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert_eq!(c.touch(l(1)), Touch::Miss { evicted: None });
        assert_eq!(c.touch(l(1)), Touch::Hit);
        assert_eq!(c.touch(l(2)), Touch::Miss { evicted: None });
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_is_lru() {
        let mut c = LruCache::new(2);
        c.touch(l(1));
        c.touch(l(2));
        c.touch(l(1)); // promote 1
        assert_eq!(
            c.touch(l(3)),
            Touch::Miss {
                evicted: Some(l(2))
            }
        );
        assert!(c.contains(l(1)));
        assert!(!c.contains(l(2)));
    }

    #[test]
    fn mru_order() {
        let mut c = LruCache::new(3);
        c.touch(l(1));
        c.touch(l(2));
        c.touch(l(3));
        c.touch(l(2));
        let order: Vec<u64> = c.iter_mru().map(|x| x.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn drain_into_appends_without_clearing_destination() {
        let mut c = LruCache::new(3);
        c.touch(l(1));
        c.touch(l(2));
        let mut out = vec![l(99)];
        c.drain_lru_first_into(&mut out);
        assert_eq!(out, vec![l(99), l(1), l(2)]);
        assert!(c.is_empty());
        // reusable after drain
        c.touch(l(9));
        assert!(c.contains(l(9)));
    }

    #[test]
    fn set_capacity_into_appends_evictions() {
        let mut c = LruCache::new(4);
        for i in 1..=4 {
            c.touch(l(i));
        }
        let mut out = vec![l(99)];
        c.set_capacity_into(2, &mut out);
        assert_eq!(out, vec![l(99), l(1), l(2)]);
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(l(3)) && c.contains(l(4)));
    }

    #[test]
    fn clear_empties_and_cache_is_reusable() {
        let mut c = LruCache::new(3);
        c.touch(l(1));
        c.touch(l(2));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 3);
        c.touch(l(7));
        c.touch(l(8));
        let order: Vec<u64> = c.iter_mru().map(|x| x.0).collect();
        assert_eq!(order, vec![8, 7]);
    }

    #[test]
    fn grow_keeps_contents() {
        let mut c = LruCache::new(2);
        c.touch(l(1));
        c.touch(l(2));
        let mut evicted = Vec::new();
        c.set_capacity_into(5, &mut evicted);
        assert!(evicted.is_empty());
        c.touch(l(3));
        assert_eq!(c.len(), 3);
        assert!(c.contains(l(1)));
    }

    #[test]
    fn remove_specific() {
        let mut c = LruCache::new(3);
        c.touch(l(1));
        c.touch(l(2));
        assert!(c.remove(l(1)));
        assert!(!c.remove(l(1)));
        assert_eq!(c.len(), 1);
        // list stays consistent
        c.touch(l(3));
        c.touch(l(4));
        let order: Vec<u64> = c.iter_mru().map(|x| x.0).collect();
        assert_eq!(order, vec![4, 3, 2]);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        assert_eq!(c.touch(l(1)), Touch::Miss { evicted: None });
        assert_eq!(
            c.touch(l(2)),
            Touch::Miss {
                evicted: Some(l(1))
            }
        );
        assert_eq!(c.touch(l(2)), Touch::Hit);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        LruCache::new(0);
    }

    #[test]
    fn slab_reuse_after_heavy_churn() {
        let mut c = LruCache::new(8);
        for i in 0..10_000u64 {
            c.touch(l(i));
        }
        // slab never grows past capacity + a small constant
        assert!(c.nodes.len() <= 9, "slab grew to {}", c.nodes.len());
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn behaves_like_reference_lru() {
        // differential test against the locality crate's simple oracle
        let mut c = LruCache::new(5);
        let mut oracle: Vec<u64> = Vec::new(); // back = MRU
        let mut hits = 0u32;
        let mut oracle_hits = 0u32;
        for i in 0..2000u64 {
            let line = (i * 7 + i / 3) % 13;
            if c.touch(l(line)) == Touch::Hit {
                hits += 1;
            }
            if let Some(p) = oracle.iter().position(|&x| x == line) {
                oracle.remove(p);
                oracle.push(line);
                oracle_hits += 1;
            } else {
                if oracle.len() == 5 {
                    oracle.remove(0);
                }
                oracle.push(line);
            }
        }
        assert_eq!(hits, oracle_hits);
        let mru: Vec<u64> = c.iter_mru().map(|x| x.0).collect();
        let mut expect = oracle.clone();
        expect.reverse();
        assert_eq!(mru, expect);
    }

    #[test]
    fn behaves_like_reference_lru_with_removes_and_resizes() {
        // the same oracle, with interleaved removes and capacity changes
        // exercising the Fx-hashed map's remove/rehash paths
        let mut cap = 6usize;
        let mut c = LruCache::new(cap);
        let mut oracle: Vec<u64> = Vec::new(); // back = MRU
        for i in 0..5000u64 {
            let line = (i * 11 + i / 5) % 23;
            match i % 7 {
                3 => {
                    let expected = if let Some(p) = oracle.iter().position(|&x| x == line) {
                        oracle.remove(p);
                        true
                    } else {
                        false
                    };
                    assert_eq!(c.remove(l(line)), expected, "i={i}");
                }
                5 if i % 35 == 5 => {
                    cap = if cap == 6 { 3 } else { 6 };
                    let mut evicted = Vec::new();
                    c.set_capacity_into(cap, &mut evicted);
                    let mut expect_ev = Vec::new();
                    while oracle.len() > cap {
                        expect_ev.push(oracle.remove(0));
                    }
                    let got: Vec<u64> = evicted.iter().map(|x| x.0).collect();
                    assert_eq!(got, expect_ev, "i={i}");
                }
                _ => {
                    let hit = if let Some(p) = oracle.iter().position(|&x| x == line) {
                        oracle.remove(p);
                        oracle.push(line);
                        true
                    } else {
                        if oracle.len() == cap {
                            oracle.remove(0);
                        }
                        oracle.push(line);
                        false
                    };
                    assert_eq!(c.touch(l(line)) == Touch::Hit, hit, "i={i}");
                }
            }
            assert_eq!(c.len(), oracle.len(), "i={i}");
        }
        let mru: Vec<u64> = c.iter_mru().map(|x| x.0).collect();
        let mut expect = oracle.clone();
        expect.reverse();
        assert_eq!(mru, expect);
    }
}
