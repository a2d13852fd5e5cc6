//! Set-associative write-back LRU cache with flush/invalidate support.
//!
//! Models the hardware L1D the paper measures with perf: `clflush`
//! invalidates the line, so the program's next access to flushed data
//! misses — the *indirect* cost of persistence (paper Section II-A).
//!
//! Each set holds its resident lines in recency order, most recent
//! first, with no LRU ticks: an access scans its set once, moves a hit
//! to the front, and on a miss inserts at the front and evicts the
//! last line of a full set, so finding the victim takes no search.

use nvcache_trace::Line;

/// Whether an access is a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (allocates and dirties the line).
    Write,
}

/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in lines.
    pub lines: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// A 32 KiB, 8-way L1D with 64-byte lines (the paper's Xeon E7-4890).
    pub fn l1d() -> Self {
        CacheConfig {
            lines: 512,
            associativity: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.lines / self.associativity).max(1)
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub evict_writebacks: u64,
    /// Explicit flushes that found the line present.
    pub flush_present: u64,
    /// Explicit flushes of absent lines (no-ops at the cache).
    pub flush_absent: u64,
}

impl CacheStats {
    /// Misses / accesses (0.0 for no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    dirty: bool,
}

/// The outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Did the access hit?
    pub hit: bool,
    /// A dirty line written back to satisfy the allocation, if any.
    pub writeback: Option<Line>,
}

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement within each set.
///
/// Each set keeps its resident lines in recency order, most recent
/// first, in `associativity` slots of one flat array: a hit moves its
/// line to the front, a miss shifts the set down one slot and inserts
/// at the front, evicting the last line only when the set is full, and
/// a flush closes the gap it leaves. The victim is therefore always the
/// least recently used resident line, found without a search, and no
/// per-line age is kept.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    assoc: usize,
    /// `assoc` slots per set; set `s`'s resident lines are
    /// `ways[s * assoc..][..len[s]]`, most recent first.
    ways: Vec<Way>,
    len: Vec<usize>,
    // Set-index fast path: when the set count is a power of two (every
    // realistic geometry, incl. the 64-set L1D) the per-access div/mod
    // folds to shift/mask. `set_shift == u32::MAX` marks the generic
    // div/mod path for odd set counts.
    set_mask: u64,
    set_shift: u32,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache with the given geometry. Panics unless `lines` is a
    /// nonzero multiple of `associativity`.
    pub fn new(cfg: CacheConfig) -> Self {
        let CacheConfig {
            lines,
            associativity: assoc,
        } = cfg;
        assert!(
            assoc > 0 && lines >= assoc && lines % assoc == 0,
            "cache geometry {lines} lines × {assoc} ways: lines must be a nonzero multiple of ways"
        );
        let n = cfg.sets() as u64;
        let (set_mask, set_shift) = if n.is_power_of_two() {
            (n - 1, n.trailing_zeros())
        } else {
            (0, u32::MAX)
        };
        SetAssocCache {
            assoc,
            ways: vec![Way::default(); lines],
            len: vec![0; cfg.sets()],
            set_mask,
            set_shift,
            stats: CacheStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Decompose a line id into (set index, tag). Identical results on
    /// both paths: for a power-of-two set count `n`, `x & (n−1) == x % n`
    /// and `x >> log2(n) == x / n`.
    #[inline(always)]
    fn split(&self, line: Line) -> (usize, u64) {
        if self.set_shift != u32::MAX {
            ((line.0 & self.set_mask) as usize, line.0 >> self.set_shift)
        } else {
            let n = self.len.len() as u64;
            ((line.0 % n) as usize, line.0 / n)
        }
    }

    /// The line's set, and the line's position in it when resident.
    #[inline(always)]
    fn find(&self, line: Line) -> (usize, Option<usize>) {
        let (sidx, tag) = self.split(line);
        let base = sidx * self.assoc;
        let set = &self.ways[base..base + self.len[sidx]];
        (sidx, set.iter().position(|w| w.tag == tag))
    }

    /// Drop the line at position `p` of set `sidx` and close the gap.
    #[inline(always)]
    fn remove(&mut self, sidx: usize, p: usize) {
        let (base, n) = (sidx * self.assoc, self.len[sidx]);
        let set = &mut self.ways[base..base + n];
        for i in p + 1..n {
            set[i - 1] = set[i];
        }
        self.len[sidx] = n - 1;
    }

    /// Perform a load or store of `line`.
    #[inline]
    pub fn access(&mut self, line: Line, kind: AccessKind) -> AccessResult {
        self.access_or_evicted(line, kind, false)
    }

    /// Perform a load or store of `line` that, when `evicted`, first
    /// finds the line evicted from outside: a resident line is dropped
    /// uncounted, as [`SetAssocCache::invalidate_silent`] drops it, and
    /// the access misses. One scan of the set either way.
    #[inline(always)]
    pub fn access_or_evicted(
        &mut self,
        line: Line,
        kind: AccessKind,
        evicted: bool,
    ) -> AccessResult {
        let (sidx, tag) = self.split(line);
        let (base, mut n) = (sidx * self.assoc, self.len[sidx]);
        let write = kind == AccessKind::Write;
        if let Some(p) = self.ways[base..base + n].iter().position(|w| w.tag == tag) {
            if !evicted {
                let set = &mut self.ways[base..base + n];
                let mut hit = set[p];
                hit.dirty |= write;
                for i in (0..p).rev() {
                    set[i + 1] = set[i];
                }
                set[0] = hit;
                self.stats.hits += 1;
                return AccessResult {
                    hit: true,
                    writeback: None,
                };
            }
            self.remove(sidx, p);
            n -= 1;
        }
        self.stats.misses += 1;
        let mut writeback = None;
        let set = &mut self.ways[base..base + self.assoc];
        let last = if n == set.len() {
            let victim = set[n - 1];
            if victim.dirty {
                let sets = self.len.len() as u64;
                writeback = Some(Line(victim.tag * sets + sidx as u64));
                self.stats.evict_writebacks += 1;
            }
            n - 1
        } else {
            self.len[sidx] = n + 1;
            n
        };
        for i in (0..last).rev() {
            set[i + 1] = set[i];
        }
        set[0] = Way { tag, dirty: write };
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// `clflush` semantics: write back (if dirty) and invalidate the
    /// line. Returns true iff the line was present.
    #[inline(always)]
    pub fn flush(&mut self, line: Line) -> bool {
        let present = self.invalidate_silent(line);
        if present {
            self.stats.flush_present += 1;
        } else {
            self.stats.flush_absent += 1;
        }
        present
    }

    /// `clwb` semantics: write the line back (clear dirty) but keep it
    /// resident — the program's next access still hits.
    #[inline]
    pub fn writeback_keep(&mut self, line: Line) -> bool {
        if let (sidx, Some(p)) = self.find(line) {
            self.ways[sidx * self.assoc + p].dirty = false;
            self.stats.flush_present += 1;
            true
        } else {
            self.stats.flush_absent += 1;
            false
        }
    }

    /// Invalidate without counting as a flush — used by the contention
    /// model to evict a line "from outside" (another core / the OS).
    #[inline(always)]
    pub fn invalidate_silent(&mut self, line: Line) -> bool {
        let (sidx, pos) = self.find(line);
        if let Some(p) = pos {
            self.remove(sidx, p);
        }
        pos.is_some()
    }

    /// Is the line currently cached?
    pub fn contains(&self, line: Line) -> bool {
        self.find(line).1.is_some()
    }

    /// Is the line cached and dirty?
    pub fn is_dirty(&self, line: Line) -> bool {
        let (sidx, pos) = self.find(line);
        pos.is_some_and(|p| self.ways[sidx * self.assoc + p].dirty)
    }

    /// Number of valid lines currently resident.
    pub fn resident(&self) -> usize {
        self.len.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            lines: 8,
            associativity: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(Line(1), AccessKind::Read).hit);
        assert!(c.access(Line(1), AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_dirties_line() {
        let mut c = small();
        c.access(Line(1), AccessKind::Write);
        assert!(c.is_dirty(Line(1)));
        c.access(Line(2), AccessKind::Read);
        assert!(!c.is_dirty(Line(2)));
    }

    #[test]
    fn lru_within_set_evicts_oldest() {
        let mut c = small(); // 4 sets × 2 ways
                             // lines 0, 4, 8 all map to set 0
        c.access(Line(0), AccessKind::Read);
        c.access(Line(4), AccessKind::Read);
        c.access(Line(0), AccessKind::Read); // refresh 0
        c.access(Line(8), AccessKind::Read); // evicts 4 (LRU)
        assert!(c.contains(Line(0)));
        assert!(!c.contains(Line(4)));
        assert!(c.contains(Line(8)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(Line(0), AccessKind::Write);
        c.access(Line(4), AccessKind::Read);
        let r = c.access(Line(8), AccessKind::Read); // evicts dirty 0
        assert_eq!(r.writeback, Some(Line(0)));
        assert_eq!(c.stats().evict_writebacks, 1);
    }

    #[test]
    fn flush_invalidates_and_next_access_misses() {
        let mut c = small();
        c.access(Line(3), AccessKind::Write);
        assert!(c.flush(Line(3)));
        assert!(!c.contains(Line(3)));
        assert!(!c.access(Line(3), AccessKind::Read).hit);
        assert!(!c.flush(Line(99)));
        assert_eq!(c.stats().flush_present, 1);
        assert_eq!(c.stats().flush_absent, 1);
    }

    #[test]
    fn writeback_keep_clears_dirty_but_stays_resident() {
        let mut c = small();
        c.access(Line(3), AccessKind::Write);
        assert!(c.is_dirty(Line(3)));
        assert!(c.writeback_keep(Line(3)));
        assert!(!c.is_dirty(Line(3)));
        assert!(c.contains(Line(3)), "clwb keeps the line");
        assert!(c.access(Line(3), AccessKind::Read).hit);
        assert!(!c.writeback_keep(Line(99)));
    }

    #[test]
    fn silent_invalidate_does_not_count() {
        let mut c = small();
        c.access(Line(3), AccessKind::Write);
        assert!(c.invalidate_silent(Line(3)));
        assert!(!c.invalidate_silent(Line(3)));
        assert_eq!(c.stats().flush_present, 0);
        assert_eq!(c.stats().flush_absent, 0);
    }

    #[test]
    fn resident_count_tracks_validity() {
        let mut c = small();
        for i in 0..5 {
            c.access(Line(i), AccessKind::Read);
        }
        assert_eq!(c.resident(), 5);
        c.flush(Line(0));
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = SetAssocCache::new(CacheConfig::l1d());
        // 256-line working set fits in a 512-line cache
        for round in 0..10 {
            for i in 0..256u64 {
                let r = c.access(Line(i), AccessKind::Write);
                if round > 0 {
                    assert!(r.hit, "round {round} line {i}");
                }
            }
        }
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = small();
        c.access(Line(1), AccessKind::Read); // miss
        c.access(Line(1), AccessKind::Read); // hit
        c.access(Line(1), AccessKind::Read); // hit
        c.access(Line(2), AccessKind::Read); // miss
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.stats().accesses(), 4);
    }

    #[test]
    fn split_matches_divmod_on_both_paths() {
        // 64 sets (shift/mask path) and 6 sets (generic path) must both
        // agree with the reference div/mod decomposition.
        for cfg in [
            CacheConfig::l1d(),
            CacheConfig {
                lines: 12,
                associativity: 2,
            },
        ] {
            let c = SetAssocCache::new(cfg);
            let n = cfg.sets() as u64;
            for line in (0..4096u64).chain([u64::MAX, u64::MAX - 63]) {
                let (sidx, tag) = c.split(Line(line));
                assert_eq!(sidx as u64, line % n, "sets={n} line={line}");
                assert_eq!(tag, line / n, "sets={n} line={line}");
            }
        }
    }

    #[test]
    fn non_pow2_geometry_behaves_like_pow2_semantics() {
        // Full behavioural pass on a 6-set cache: hits, flush, writeback
        // reconstruction all work off the generic div/mod path.
        let mut c = SetAssocCache::new(CacheConfig {
            lines: 12,
            associativity: 2,
        });
        let a = Line(7 * 6 + 3); // set 3
        let b = Line(9 * 6 + 3); // set 3
        let d = Line(11 * 6 + 3); // set 3
        c.access(a, AccessKind::Write);
        c.access(b, AccessKind::Read);
        let r = c.access(d, AccessKind::Read); // evicts dirty a
        assert_eq!(r.writeback, Some(a));
        assert!(c.contains(b) && c.contains(d) && !c.contains(a));
        assert!(c.flush(d));
        assert!(!c.contains(d));
    }

    #[test]
    #[should_panic(expected = "12 lines × 5 ways")]
    fn a_geometry_that_is_not_whole_sets_is_refused() {
        // two 5-way sets hold 10 lines, not the 12 asked for
        SetAssocCache::new(CacheConfig {
            lines: 12,
            associativity: 5,
        });
    }

    #[test]
    fn tag_reconstruction_on_writeback_is_correct() {
        // Make sure the reported writeback line id round-trips through
        // set/tag decomposition.
        let mut c = SetAssocCache::new(CacheConfig {
            lines: 4,
            associativity: 1,
        });
        let victim = Line(0x1234 * 4 + 2); // maps to set 2
        c.access(victim, AccessKind::Write);
        let r = c.access(Line(0x9999 * 4 + 2), AccessKind::Read);
        assert_eq!(r.writeback, Some(victim));
    }
}
