//! One simulated hardware context per thread: L1 cache + write-back
//! queue + cycle/instruction accounting + contention model.
//!
//! Persistence-policy drivers (in `nvcache-core`) feed the machine the
//! program's memory events and the policy's flush decisions; the machine
//! produces the quantities the paper reports: cycles (→ execution time),
//! instruction counts, L1 miss ratios, and flush counts (Table IV).

use crate::cache::{AccessKind, CacheConfig, CacheStats, SetAssocCache};
use crate::timing::{FlushQueue, TimingConfig};
use nvcache_trace::Line;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Configuration of a simulated hardware context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Cycle cost model.
    pub timing: TimingConfig,
    /// Probability that an access finds its line evicted by cross-thread
    /// / OS contention (paper Section IV-F attributes BEST's rising L1
    /// miss ratio at high thread counts to such contention). Set per
    /// thread count by the harness; 0.0 for single-thread runs.
    pub contention_miss_prob: f64,
    /// RNG seed for the contention process (deterministic runs).
    pub seed: u64,
    /// Instructions per work unit.
    pub instr_work: u64,
    /// Instructions per persistent store (the store + Atlas-style
    /// bookkeeping entry).
    pub instr_store: u64,
    /// Instructions per issued flush.
    pub instr_flush: u64,
    /// Does a flush invalidate the L1 line (`clflush`, Atlas's choice and
    /// the default) or write it back in place (`clwb`, paper Section
    /// II-A: avoids the indirect re-miss cost but may leave stale lines
    /// visible to other threads)?
    pub flush_invalidates: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            l1: CacheConfig::l1d(),
            timing: TimingConfig::default(),
            contention_miss_prob: 0.0,
            seed: 0xace,
            instr_work: 1,
            instr_store: 8,
            instr_flush: 3,
            flush_invalidates: true,
        }
    }
}

/// Measured outcome of one thread's simulated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineReport {
    /// Total cycles (the paper's execution time proxy).
    pub cycles: u64,
    /// Total instructions executed (Table IV "inst.").
    pub instructions: u64,
    /// L1 counters (Table IV "hw L1 cache mr").
    pub l1: CacheStats,
    /// Flushes issued asynchronously (mid-FASE evictions / eager).
    pub flushes_async: u64,
    /// Flushes issued synchronously (end-of-FASE drains).
    pub flushes_sync: u64,
    /// Cycles stalled waiting on the write-back queue *mid-FASE* (the
    /// end-of-FASE drain portion is reported separately below).
    pub queue_stall_cycles: u64,
    /// Cycles stalled in end-of-FASE drains and fences.
    pub fase_stall_cycles: u64,
}

impl MachineReport {
    /// Total flushes.
    pub fn flushes(&self) -> u64 {
        self.flushes_async + self.flushes_sync
    }

    /// Flushes / persistent stores, using the caller-known store count.
    pub fn flush_ratio(&self, stores: u64) -> f64 {
        if stores == 0 {
            0.0
        } else {
            self.flushes() as f64 / stores as f64
        }
    }
}

/// The integer form of the contention draw. A uniform `f64` draw is
/// `m · 2⁻⁵³` for `m = next_u64() >> 11`, so `m · 2⁻⁵³ < p` holds exactly
/// when `m < ⌈p · 2⁵³⌉` (scaling by a power of two is exact). The bound is
/// capped at 2⁵³, which every `m` is below, and is 0, meaning no draw at
/// all, unless `p > 0` (0, negative and NaN probabilities draw nothing).
fn contention_bound(p: f64) -> u64 {
    const SCALE: f64 = (1u64 << 53) as f64;
    if p > 0.0 {
        (p * SCALE).ceil().min(SCALE) as u64
    } else {
        0
    }
}

/// A simulated hardware context (one per thread).
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    l1: SetAssocCache,
    queue: FlushQueue,
    rng: SmallRng,
    /// `contention_miss_prob` as a bound on 53-bit draws
    /// ([`contention_bound`]).
    contention_bound: u64,
    now: u64,
    instructions: u64,
    flushes_async: u64,
    flushes_sync: u64,
    fase_stall: u64,
}

impl Machine {
    /// New context.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            l1: SetAssocCache::new(cfg.l1),
            queue: FlushQueue::new(cfg.timing.flush_slots, cfg.timing.t_flush_service),
            rng: SmallRng::seed_from_u64(cfg.seed),
            contention_bound: contention_bound(cfg.contention_miss_prob),
            now: 0,
            instructions: 0,
            flushes_async: 0,
            flushes_sync: 0,
            fase_stall: 0,
            cfg,
        }
    }

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Write-back queue depth right now (pure probe — telemetry's
    /// depth-sampling point).
    #[inline]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth_at(self.now)
    }

    /// Cycles stalled so far in end-of-FASE drains and fences.
    #[inline]
    pub fn fase_stall_cycles(&self) -> u64 {
        self.fase_stall
    }

    /// Total queue stall cycles so far (mid-FASE *and* end-of-FASE; the
    /// final report splits them).
    #[inline]
    pub fn total_stall_cycles(&self) -> u64 {
        self.queue.stall_cycles
    }

    /// Execute `units` of opaque computation.
    #[inline]
    pub fn work(&mut self, units: u32) {
        self.now += units as u64 * self.cfg.timing.t_work;
        self.instructions += units as u64 * self.cfg.instr_work;
    }

    /// Account extra software instructions (policy bookkeeping); each
    /// costs one cycle.
    #[inline]
    pub fn software_overhead(&mut self, instructions: u64) {
        self.instructions += instructions;
        self.now += instructions;
    }

    #[inline]
    fn contended(&mut self, line: Line) {
        if self.contention_bound > 0 && self.rng.next_u64() >> 11 < self.contention_bound {
            self.l1.invalidate_silent(line);
        }
    }

    #[inline]
    fn access(&mut self, line: Line, kind: AccessKind, base: u64) {
        self.contended(line);
        let r = self.l1.access(line, kind);
        self.now += base;
        if !r.hit {
            self.now += self.cfg.timing.t_miss;
        }
    }

    /// A persistent store to `line`.
    #[inline]
    pub fn store(&mut self, line: Line) {
        self.instructions += self.cfg.instr_store;
        self.access(line, AccessKind::Write, self.cfg.timing.t_store);
    }

    /// A load from `line`.
    #[inline]
    pub fn load(&mut self, line: Line) {
        self.instructions += 1;
        self.access(line, AccessKind::Read, 1);
    }

    /// Issue an asynchronous flush of `line` (mid-FASE eviction): the
    /// write-back overlaps computation unless the queue is saturated.
    #[inline]
    pub fn flush_async(&mut self, line: Line) {
        self.instructions += self.cfg.instr_flush;
        if self.cfg.flush_invalidates {
            self.l1.flush(line);
        } else {
            self.l1.writeback_keep(line);
        }
        self.now += self.cfg.timing.t_flush_issue;
        self.now = self.queue.issue_async(self.now);
        self.flushes_async += 1;
    }

    /// Issue a synchronous flush (end-of-FASE): the thread waits for the
    /// write-back to complete before continuing.
    #[inline]
    pub fn flush_sync(&mut self, line: Line) {
        self.instructions += self.cfg.instr_flush;
        if self.cfg.flush_invalidates {
            self.l1.flush(line);
        } else {
            self.l1.writeback_keep(line);
        }
        self.now += self.cfg.timing.t_flush_issue;
        let before = self.now;
        self.now = self.queue.issue_sync(self.now);
        self.fase_stall += self.now - before;
        self.flushes_sync += 1;
    }

    /// Fence at the end of a FASE: drain the write-back queue and pay the
    /// ordering cost.
    #[inline]
    pub fn fence(&mut self) {
        let before = self.now;
        self.now = self.queue.drain(self.now);
        self.fase_stall += self.now - before;
        self.now += self.cfg.timing.t_fence;
    }

    /// Finish: drain outstanding flushes and report.
    pub fn finish(mut self) -> MachineReport {
        self.now = self.queue.drain(self.now);
        MachineReport {
            cycles: self.now,
            instructions: self.instructions,
            l1: self.l1.stats(),
            flushes_async: self.flushes_async,
            flushes_sync: self.flushes_sync,
            // the queue's stall counter includes the end-of-FASE drains;
            // report the mid-FASE portion only
            queue_stall_cycles: self.queue.stall_cycles.saturating_sub(self.fase_stall),
            fase_stall_cycles: self.fase_stall,
        }
    }

    /// Peek at the L1 (tests).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn work_advances_clock_and_instructions() {
        let mut m = machine();
        m.work(100);
        let r = m.finish();
        assert_eq!(r.cycles, 100);
        assert_eq!(r.instructions, 100);
    }

    #[test]
    fn store_hit_vs_miss_cost() {
        let mut m = machine();
        m.store(Line(1)); // miss
        let after_miss = m.now();
        m.store(Line(1)); // hit
        let after_hit = m.now() - after_miss;
        assert!(after_miss > after_hit, "miss must cost more than hit");
        let r = m.finish();
        assert_eq!(r.l1.hits, 1);
        assert_eq!(r.l1.misses, 1);
    }

    #[test]
    fn flush_invalidates_so_next_store_misses() {
        let mut m = machine();
        m.store(Line(7));
        m.flush_async(Line(7));
        m.store(Line(7));
        let r = m.finish();
        assert_eq!(r.l1.misses, 2, "post-flush access must miss");
    }

    #[test]
    fn sync_flush_stalls_async_overlaps() {
        let cfg = MachineConfig::default();
        let mut a = Machine::new(cfg);
        a.store(Line(1));
        a.flush_async(Line(1));
        a.work(1000); // plenty of time to overlap
        let ra = a.finish();

        let mut s = Machine::new(cfg);
        s.store(Line(1));
        s.flush_sync(Line(1));
        s.work(1000);
        let rs = s.finish();

        assert!(
            rs.cycles > ra.cycles,
            "sync {0} !> async {1}",
            rs.cycles,
            ra.cycles
        );
        assert!(rs.fase_stall_cycles > 0);
        assert_eq!(ra.fase_stall_cycles, 0);
    }

    #[test]
    fn eager_storm_is_flush_bound() {
        // One flush per store: the run is bound by serialized write-back
        // service (issue cost + queue stalls), the Table I mechanism.
        let cfg = MachineConfig::default();
        let mut m = Machine::new(cfg);
        for i in 0..1000u64 {
            m.store(Line(i));
            m.flush_async(Line(i));
            m.work(1);
        }
        let r = m.finish();
        assert!(
            r.cycles >= 1000 * cfg.timing.t_flush_service * 9 / 10,
            "storm must be service-bound: {} cycles",
            r.cycles
        );
    }

    #[test]
    fn fence_drains_queue() {
        let mut m = machine();
        m.store(Line(1));
        m.flush_async(Line(1));
        m.fence();
        let stall = m.finish().fase_stall_cycles;
        assert!(stall > 0, "fence right after flush must wait");
    }

    #[test]
    fn contention_raises_miss_ratio() {
        let mk = |p: f64| {
            let cfg = MachineConfig {
                contention_miss_prob: p,
                ..Default::default()
            };
            let mut m = Machine::new(cfg);
            for i in 0..20_000u64 {
                m.store(Line(i % 64)); // fits easily in L1
            }
            m.finish().l1.miss_ratio()
        };
        let quiet = mk(0.0);
        let noisy = mk(0.3);
        assert!(quiet < 0.01, "quiet={quiet}");
        assert!(noisy > 0.1, "noisy={noisy}");
    }

    #[test]
    fn contention_bound_decides_as_the_float_draw_does() {
        use rand::Rng;
        let probs = [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            f64::EPSILON,
            1.0 / (1u64 << 53) as f64,
            1.5 / (1u64 << 53) as f64,
            0.035,
            0.035 * 5.0,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            f64::INFINITY,
        ];
        for p in probs {
            let bound = contention_bound(p);
            assert_eq!(bound > 0, p > 0.0, "p = {p:e}: draws only when p > 0");
            let (mut a, mut b) = (SmallRng::seed_from_u64(7), SmallRng::seed_from_u64(7));
            for _ in 0..20_000 {
                let float = a.gen::<f64>() < p;
                let int = b.next_u64() >> 11 < bound;
                assert_eq!(int, float, "p = {p:e}");
            }
            // the draws at the edge of the bound, where rounding would show
            for m in [bound.saturating_sub(1), bound, bound + 1] {
                let x = m as f64 / (1u64 << 53) as f64;
                if m < 1 << 53 {
                    assert_eq!(m < bound, x < p, "p = {p:e}, m = {m}");
                }
            }
        }
    }

    #[test]
    fn contention_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = MachineConfig {
                contention_miss_prob: 0.2,
                seed,
                ..Default::default()
            };
            let mut m = Machine::new(cfg);
            for i in 0..5000u64 {
                m.store(Line(i % 50));
            }
            m.finish()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).l1, run(2).l1);
    }

    #[test]
    fn clwb_mode_keeps_the_line_resident() {
        let cfg = MachineConfig {
            flush_invalidates: false,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        m.store(Line(7));
        m.flush_async(Line(7));
        m.store(Line(7)); // would miss under clflush; hits under clwb
        let r = m.finish();
        assert_eq!(r.l1.misses, 1, "only the cold miss");
        assert_eq!(r.l1.hits, 1);
    }

    #[test]
    fn clwb_is_faster_than_clflush_on_reuse_heavy_streams() {
        let run = |invalidate: bool| {
            let cfg = MachineConfig {
                flush_invalidates: invalidate,
                ..Default::default()
            };
            let mut m = Machine::new(cfg);
            for i in 0..5_000u64 {
                let l = Line(i % 8);
                m.store(l);
                if i % 4 == 3 {
                    m.flush_async(l);
                }
                m.work(20);
            }
            m.finish().cycles
        };
        assert!(run(false) < run(true), "clwb must avoid the re-miss cost");
    }

    #[test]
    fn report_flush_ratio() {
        let mut m = machine();
        for i in 0..10u64 {
            m.store(Line(i));
        }
        m.flush_async(Line(0));
        m.flush_sync(Line(1));
        let r = m.finish();
        assert_eq!(r.flushes(), 2);
        assert!((r.flush_ratio(10) - 0.2).abs() < 1e-12);
        assert_eq!(r.flush_ratio(0), 0.0);
    }

    #[test]
    fn finish_drains_outstanding() {
        let mut m = machine();
        m.store(Line(1));
        m.flush_async(Line(1));
        let r = m.finish();
        // completion time of the flush is included in cycles
        assert!(r.cycles >= TimingConfig::default().t_flush_service);
    }
}
