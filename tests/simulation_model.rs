//! Property-based invariants of the simulation substrate: the
//! set-associative cache against a reference model, timing-model
//! monotonicity, and the persistent-region flush/fence semantics.

use nvcache::cachesim::cache::AccessResult;
use nvcache::cachesim::{
    AccessKind, CacheConfig, CacheStats, Machine, MachineConfig, SetAssocCache,
};
use nvcache::pmem::{CrashMode, PmemRegion};
use nvcache::trace::Line;
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model of the whole cache: per set, a plain LRU list of
/// `(tag, dirty)` with the most recent line at the back, and the
/// counters [`SetAssocCache::stats`] keeps.
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.sets()],
            assoc: cfg.associativity,
            stats: CacheStats::default(),
        }
    }

    /// The line's set, its tag and, when resident, its position in the set.
    fn find(&mut self, line: Line) -> (&mut Vec<(u64, bool)>, u64, Option<usize>) {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line.0 % n) as usize];
        let tag = line.0 / n;
        let p = set.iter().position(|&(t, _)| t == tag);
        (set, tag, p)
    }

    fn access(&mut self, line: Line, write: bool) -> AccessResult {
        let n = self.sets.len() as u64;
        let assoc = self.assoc;
        let (set, tag, p) = self.find(line);
        if let Some(p) = p {
            let (t, d) = set.remove(p);
            set.push((t, d || write));
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        let mut writeback = None;
        if set.len() == assoc {
            let (t, dirty) = set.remove(0);
            if dirty {
                writeback = Some(Line(t * n + line.0 % n));
            }
        }
        set.push((tag, write));
        self.stats.misses += 1;
        self.stats.evict_writebacks += writeback.is_some() as u64;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// `clflush` (`keep: false`) or `clwb` (`keep: true`).
    fn flush(&mut self, line: Line, keep: bool) -> bool {
        let (set, _, p) = self.find(line);
        let present = p.is_some();
        match p {
            Some(p) if keep => set[p].1 = false,
            Some(p) => drop(set.remove(p)),
            None => {}
        }
        if present {
            self.stats.flush_present += 1;
        } else {
            self.stats.flush_absent += 1;
        }
        present
    }

    fn invalidate_silent(&mut self, line: Line) -> bool {
        let (set, _, p) = self.find(line);
        p.map(|p| set.remove(p)).is_some()
    }

    fn contains(&mut self, line: Line) -> bool {
        self.find(line).2.is_some()
    }

    fn is_dirty(&mut self, line: Line) -> bool {
        let (set, _, p) = self.find(line);
        p.is_some_and(|p| set[p].1)
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// An access that finds its line evicted from outside first, as the
/// machine's contention draw does.
fn contended_access(dut: &mut SetAssocCache, line: Line, kind: AccessKind) -> AccessResult {
    dut.access_or_evicted(line, kind, true)
}

/// The geometries the model is checked on: 4 sets × 4 ways, 6 sets × 2
/// ways (the div/mod set split), direct-mapped, and one fully
/// associative set.
const GEOMETRIES: [CacheConfig; 4] = [
    CacheConfig {
        lines: 16,
        associativity: 4,
    },
    CacheConfig {
        lines: 12,
        associativity: 2,
    },
    CacheConfig {
        lines: 8,
        associativity: 1,
    },
    CacheConfig {
        lines: 8,
        associativity: 8,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The set-associative cache agrees with an independent per-set LRU
    /// reference on every operation of its API: each access's hit and
    /// written-back line, each flush's, write-back's and silent
    /// invalidation's outcome, an access contended from outside, and,
    /// after every operation, the line's residency and dirtiness, the
    /// resident count and every counter.
    #[test]
    fn cache_matches_reference(
        geometry in 0..GEOMETRIES.len(),
        ops in prop::collection::vec((0u64..64, 0u8..7), 0..400),
    ) {
        let cfg = GEOMETRIES[geometry];
        let mut dut = SetAssocCache::new(cfg);
        let mut oracle = RefCache::new(cfg);
        for (line, op) in ops {
            let line = Line(line);
            let write = op == 1 || op == 6;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            match op {
                0 | 1 => {
                    let r = dut.access(line, kind);
                    prop_assert_eq!(r, oracle.access(line, write));
                }
                2 => prop_assert_eq!(dut.flush(line), oracle.flush(line, false)),
                3 => prop_assert_eq!(dut.writeback_keep(line), oracle.flush(line, true)),
                4 => prop_assert_eq!(dut.invalidate_silent(line), oracle.invalidate_silent(line)),
                _ => {
                    let r = contended_access(&mut dut, line, kind);
                    oracle.invalidate_silent(line);
                    prop_assert_eq!(r, oracle.access(line, write));
                }
            }
            prop_assert_eq!(dut.contains(line), oracle.contains(line));
            prop_assert_eq!(dut.is_dirty(line), oracle.is_dirty(line));
            prop_assert_eq!(dut.resident(), oracle.resident());
            prop_assert_eq!(dut.stats(), oracle.stats);
        }
    }

    /// More flushes never make a run faster: adding a flush to an event
    /// stream is monotone in simulated cycles.
    #[test]
    fn extra_flushes_never_speed_up(
        lines in prop::collection::vec(0u64..32, 1..200),
        flush_every in 1usize..8,
    ) {
        let run = |with_flushes: bool| {
            let mut m = Machine::new(MachineConfig::default());
            for (i, &l) in lines.iter().enumerate() {
                m.store(Line(l));
                if with_flushes && i % flush_every == 0 {
                    m.flush_async(Line(l));
                }
                m.work(2);
            }
            m.finish().cycles
        };
        prop_assert!(run(true) >= run(false));
    }

    /// Work is exactly additive in the absence of memory events.
    #[test]
    fn work_is_additive(chunks in prop::collection::vec(1u32..1000, 1..20)) {
        let mut m = Machine::new(MachineConfig::default());
        for &c in &chunks {
            m.work(c);
        }
        let total: u64 = chunks.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(m.finish().cycles, total);
    }

    /// Region semantics: an arbitrary interleaving of writes, flushes and
    /// fences, then a strict crash — exactly the fenced prefix of each
    /// line's flush captures survives.
    #[test]
    fn region_crash_exposes_fenced_captures_only(
        ops in prop::collection::vec((0usize..8, 0u8..3, any::<u64>()), 0..100),
    ) {
        let mut r = PmemRegion::new(8 * 64);
        // model: per line, the value captured by the last fence-committed flush
        let mut durable: HashMap<usize, u64> = HashMap::new();
        let mut pending: HashMap<usize, u64> = HashMap::new();
        let mut volatile: HashMap<usize, u64> = HashMap::new();
        for (slot, op, val) in ops {
            match op {
                0 => {
                    r.write_u64(slot * 64, val);
                    volatile.insert(slot, val);
                }
                1 => {
                    r.flush_line(slot as u64);
                    if let Some(&v) = volatile.get(&slot) {
                        // capture only if the line is dirty (differs from
                        // what a previous capture recorded)
                        pending.insert(slot, v);
                    }
                }
                _ => {
                    r.fence();
                    for (s, v) in pending.drain() {
                        durable.insert(s, v);
                    }
                }
            }
        }
        r.crash(&CrashMode::StrictDurableOnly);
        for slot in 0..8usize {
            let expect = durable.get(&slot).copied().unwrap_or(0);
            prop_assert_eq!(r.read_u64(slot * 64), expect, "slot {}", slot);
        }
    }

    /// Crashing with `AllInFlightLands` exposes each line's *latest*
    /// volatile value — never a torn mixture within a line.
    #[test]
    fn all_inflight_crash_exposes_latest_values(
        ops in prop::collection::vec((0usize..8, any::<u64>()), 1..60),
    ) {
        let mut r = PmemRegion::new(8 * 64);
        let mut latest: HashMap<usize, u64> = HashMap::new();
        for (slot, val) in ops {
            r.write_u64(slot * 64, val);
            latest.insert(slot, val);
        }
        r.crash(&CrashMode::AllInFlightLands);
        for (slot, v) in latest {
            prop_assert_eq!(r.read_u64(slot * 64), v);
        }
    }
}
