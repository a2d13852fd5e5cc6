//! SC — the online adaptive software cache (paper Sections III-B/C).
//!
//! Wraps the fixed-capacity [`ScPolicy`] with the full online pipeline:
//! FASE renaming of the write stream → bursty sampling → linear-time
//! `reuse(k)` → MRC → knee selection → cache resize. The cache starts at
//! the default capacity (8) and is resized once when the first burst
//! completes (hibernation is infinite by default, as in the paper's
//! evaluation; finite hibernation re-adapts periodically — the paper's
//! future-work extension).

use crate::policy::{PersistPolicy, StoreOutcome};
use crate::sc::ScPolicy;
use nvcache_locality::{select_cache_size, BurstSampler, KneeConfig};
use nvcache_trace::Line;

/// Configuration of the adaptive controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Knee selection parameters (default size 8, max 50 — paper values).
    pub knee: KneeConfig,
    /// Writes per sampling burst. The paper uses 64M on full-size runs;
    /// the default here matches the scaled-down workloads and is
    /// overridden by the harness (`--scale`).
    pub burst_len: usize,
    /// Writes to skip between bursts; `None` analyzes exactly once
    /// (paper behaviour).
    pub hibernation: Option<u64>,
    /// Selects nothing: the policy is the only adaptive controller. Kept
    /// for `benchmark/src/adapter.rs`, which sets it.
    pub external_control: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            knee: KneeConfig::default(),
            burst_len: 1 << 16,
            hibernation: None,
            external_control: false,
        }
    }
}

/// One capacity decision of the adaptive policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityChoice {
    /// The policy's renaming epoch (FASEs ended) at the resize.
    pub fase: u64,
    /// The MRC knee the analysis found.
    pub knee: usize,
    /// The capacity it installed (knee + 1 safety entry, clamped).
    pub capacity: usize,
}

/// The online adaptive software-cache policy ("SC").
#[derive(Debug, Clone)]
pub struct AdaptiveScPolicy {
    sc: ScPolicy,
    sampler: BurstSampler,
    cfg: AdaptiveConfig,
    /// FASE epoch for renaming sampled writes.
    epoch: u64,
    /// Modeled instruction overhead not yet charged to the machine.
    pending_instrs: u64,
    /// Decisions made so far (diagnostics; Fig. 8 / Section IV-G).
    choices: Vec<CapacityChoice>,
    /// Most recent resize as `(knee, new_capacity)`, drained by the
    /// telemetry-enabled driver via `take_capacity_change`.
    last_change: Option<(usize, usize)>,
}

impl AdaptiveScPolicy {
    /// New adaptive cache starting at `cfg.knee.default_size`.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveScPolicy {
            sc: ScPolicy::new(cfg.knee.default_size),
            sampler: BurstSampler::new(cfg.burst_len, cfg.knee.max_size, cfg.hibernation),
            epoch: 0,
            pending_instrs: 0,
            choices: Vec::new(),
            last_change: None,
            cfg,
        }
    }

    /// Current cache capacity.
    pub fn capacity(&self) -> usize {
        self.sc.capacity()
    }

    /// Decisions of the completed analyses, in order.
    pub fn choices(&self) -> &[CapacityChoice] {
        &self.choices
    }

    /// The FASE-renamed store lines the last completed burst analysed
    /// (empty before the first analysis and while a later burst fills).
    pub fn last_window(&self) -> &[u64] {
        self.sampler.last_window()
    }

    /// The wrapped fixed-capacity cache (hit/miss counters).
    pub fn sc(&self) -> &ScPolicy {
        &self.sc
    }

    /// Restart measurement: a fresh sampler and an empty decision list,
    /// at the current capacity, so the next burst begins at the next
    /// store. A server calls this after a bulk load, so that decisions
    /// reflect the serving write stream, not the loader's.
    pub fn restart_sampling(&mut self) {
        self.sampler = BurstSampler::new(
            self.cfg.burst_len,
            self.cfg.knee.max_size,
            self.cfg.hibernation,
        );
        self.choices.clear();
    }
}

/// Modeled bookkeeping instructions to record one sampled write.
const SAMPLE_INSTR_PER_WRITE: u64 = 1;
/// Modeled instructions per sampled write for the linear-time MRC
/// analysis at burst end (reuse(k) for all k + knee pick).
const ANALYSIS_INSTR_PER_WRITE: u64 = 10;

/// Low line-address bits preserved by FASE renaming.
const RENAME_ADDR_BITS: u32 = 40;
/// Epoch bits folded above the address bits. The renamed key is
/// `epoch[23:0] ++ line[39:0]`.
const RENAME_EPOCH_BITS: u32 = 64 - RENAME_ADDR_BITS;

/// FASE renaming: combine the FASE epoch with a line address so that an
/// address reused across FASEs looks like a fresh datum to the sampler.
///
/// The epoch is masked into a 24-bit window **explicitly**: renamed keys
/// alias with period 2^24 FASEs (epoch e and e + 2^24 rename a line
/// identically). That is harmless for reuse sampling — a burst spans a
/// handful of FASEs, nowhere near 16M — but the masking must be explicit
/// rather than relying on `epoch << 40` discarding high bits, which
/// reads as (and previously was) a silent overflow.
#[inline]
fn rename_for_epoch(epoch: u64, line: u64) -> u64 {
    let window = epoch & ((1u64 << RENAME_EPOCH_BITS) - 1);
    (window << RENAME_ADDR_BITS) | (line & ((1u64 << RENAME_ADDR_BITS) - 1))
}

impl PersistPolicy for AdaptiveScPolicy {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn sc_capacity(&self) -> Option<usize> {
        Some(self.capacity())
    }

    #[inline]
    fn on_store(&mut self, line: Line, out: &mut Vec<Line>) -> StoreOutcome {
        // Sample with FASE renaming (Section III-B): an address reused
        // across FASEs must look like a fresh datum.
        let renamed = rename_for_epoch(self.epoch, line.0);
        if matches!(
            self.sampler.phase(),
            nvcache_locality::sampling::SamplerPhase::Burst
        ) {
            self.pending_instrs += SAMPLE_INSTR_PER_WRITE;
        }
        if let Some(mrc) = self.sampler.push(renamed) {
            // +1 safety entry: the timescale conversion's c-axis is
            // quantized by the running average c = k − reuse(k), which
            // can place a sharp cliff one size early; one spare entry
            // guards the cliff foot at negligible cost.
            let knee = select_cache_size(&mrc, &self.cfg.knee);
            let size = (knee + 1).min(self.cfg.knee.max_size);
            self.choices.push(CapacityChoice {
                fase: self.epoch,
                knee,
                capacity: size,
            });
            self.last_change = Some((knee, size));
            self.pending_instrs += ANALYSIS_INSTR_PER_WRITE * self.cfg.burst_len as u64;
            self.sc.set_capacity_into(size, out);
        }
        self.sc.on_store(line, out)
    }

    fn on_fase_end(&mut self, out: &mut Vec<Line>) {
        self.epoch += 1;
        self.sc.on_fase_end(out);
    }

    fn store_overhead_instrs(&self) -> u64 {
        self.sc.store_overhead_instrs()
    }

    fn drain_extra_instrs(&mut self) -> u64 {
        std::mem::take(&mut self.pending_instrs)
    }

    fn take_capacity_change(&mut self) -> Option<(usize, usize)> {
        self.last_change.take()
    }

    fn reset(&mut self) {
        let cfg = self.cfg.clone();
        *self = AdaptiveScPolicy::new(cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_preserves_line_at_epoch_zero() {
        assert_eq!(rename_for_epoch(0, 0xABCD), 0xABCD);
    }

    #[test]
    fn rename_distinguishes_epochs_within_the_window() {
        let line = 0x1234;
        let keys: Vec<u64> = (0..4).map(|e| rename_for_epoch(e, line)).collect();
        assert!(keys.windows(2).all(|w| w[0] != w[1]));
        // the line bits survive untouched under every epoch
        assert!(keys
            .iter()
            .all(|k| k & ((1u64 << RENAME_ADDR_BITS) - 1) == line));
    }

    #[test]
    fn rename_epoch_wraps_with_documented_period() {
        // Aliasing period is exactly 2^24 FASEs — and, critically, an
        // epoch past the window masks cleanly instead of overflowing
        // the shift (regression: `epoch << 40` truncated silently).
        let line = 0x42;
        let period = 1u64 << RENAME_EPOCH_BITS;
        assert_eq!(rename_for_epoch(period, line), rename_for_epoch(0, line));
        assert_eq!(
            rename_for_epoch(period + 5, line),
            rename_for_epoch(5, line)
        );
        assert_ne!(
            rename_for_epoch(period - 1, line),
            rename_for_epoch(period, line)
        );
        // no bits of a huge epoch leak above the 64-bit key
        let k = rename_for_epoch(u64::MAX, line);
        assert_eq!(k >> RENAME_ADDR_BITS, (1u64 << RENAME_EPOCH_BITS) - 1);
    }

    fn small_cfg(burst: usize) -> AdaptiveConfig {
        AdaptiveConfig {
            burst_len: burst,
            ..Default::default()
        }
    }

    /// Feed `rounds` round-robin passes over `wss` lines within one FASE.
    fn feed_cyclic(p: &mut AdaptiveScPolicy, wss: u64, rounds: usize, out: &mut Vec<Line>) {
        for _ in 0..rounds {
            for i in 0..wss {
                p.on_store(Line(i), out);
            }
        }
    }

    #[test]
    fn starts_at_default_capacity() {
        let p = AdaptiveScPolicy::new(AdaptiveConfig::default());
        assert_eq!(p.capacity(), KneeConfig::default().default_size);
    }

    #[test]
    fn adapts_to_working_set_knee() {
        let mut p = AdaptiveScPolicy::new(small_cfg(2000));
        let mut out = Vec::new();
        feed_cyclic(&mut p, 23, 200, &mut out);
        assert_eq!(p.choices().len(), 1, "one burst analyzed");
        let cap = p.capacity();
        assert!(
            (21..=24).contains(&cap),
            "capacity should land at the knee (≈23, +1 safety), got {cap}"
        );
    }

    #[test]
    fn growing_capacity_eliminates_evictions() {
        let mut p = AdaptiveScPolicy::new(small_cfg(1000));
        let mut out = Vec::new();
        feed_cyclic(&mut p, 20, 200, &mut out);
        let evictions_before = out.len();
        assert!(evictions_before > 0, "default size 8 thrashes on wss 20");
        out.clear();
        feed_cyclic(&mut p, 20, 200, &mut out);
        assert!(
            out.is_empty(),
            "after adaptation the working set fits: {} evictions",
            out.len()
        );
    }

    #[test]
    fn analysis_happens_once_with_infinite_hibernation() {
        let mut p = AdaptiveScPolicy::new(small_cfg(500));
        let mut out = Vec::new();
        feed_cyclic(&mut p, 10, 1000, &mut out);
        assert_eq!(p.choices().len(), 1);
    }

    #[test]
    fn finite_hibernation_readapts_to_phase_change() {
        let mut cfg = small_cfg(1000);
        cfg.hibernation = Some(100);
        let mut p = AdaptiveScPolicy::new(cfg);
        let mut out = Vec::new();
        feed_cyclic(&mut p, 10, 300, &mut out);
        let first = p.capacity();
        // phase change: much larger working set (different lines)
        for _ in 0..300 {
            for i in 0..40u64 {
                p.on_store(Line(1000 + i), &mut out);
            }
        }
        let second = p.capacity();
        assert!(p.choices().len() >= 2);
        assert!(
            second > first,
            "re-adaptation must grow the cache: {first} → {second}"
        );
    }

    #[test]
    fn fase_renaming_prevents_cross_fase_reuse_inflation() {
        // ab|ab|ab…: without renaming the MRC would show a perfect
        // 2-line cache; with renaming every write is a cold miss, the
        // MRC is knee-less, and selection falls back to max_size.
        let mut p = AdaptiveScPolicy::new(small_cfg(600));
        let mut out = Vec::new();
        for _ in 0..400 {
            p.on_store(Line(1), &mut out);
            p.on_store(Line(2), &mut out);
            p.on_fase_end(&mut out);
        }
        assert_eq!(p.choices().len(), 1);
        assert_eq!(
            p.capacity(),
            KneeConfig::default().max_size,
            "no intra-FASE reuse ⇒ flat MRC ⇒ max size"
        );
    }

    #[test]
    fn overhead_instrs_are_charged_and_drained() {
        let mut p = AdaptiveScPolicy::new(small_cfg(100));
        let mut out = Vec::new();
        feed_cyclic(&mut p, 5, 30, &mut out);
        let drained = p.drain_extra_instrs();
        assert!(drained > 0, "sampling + analysis must cost something");
        assert_eq!(p.drain_extra_instrs(), 0, "drain empties the counter");
    }

    #[test]
    fn restart_sampling_keeps_the_capacity_and_decides_again() {
        let mut p = AdaptiveScPolicy::new(small_cfg(500));
        let mut out = Vec::new();
        feed_cyclic(&mut p, 20, 100, &mut out);
        let first = p.choices().to_vec();
        assert_eq!(first.len(), 1);
        assert_eq!(p.last_window().len(), 500);
        p.on_fase_end(&mut out);
        p.restart_sampling();
        assert!(p.choices().is_empty());
        assert!(p.last_window().is_empty());
        assert_eq!(p.capacity(), first[0].capacity, "the capacity stays");
        feed_cyclic(&mut p, 20, 100, &mut out);
        let again = p.choices();
        assert_eq!(again.len(), 1, "the next burst decides again");
        assert_eq!(again[0].fase, 1, "one FASE ended before it");
        assert_eq!(again[0].knee, first[0].knee);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = AdaptiveScPolicy::new(small_cfg(100));
        let mut out = Vec::new();
        feed_cyclic(&mut p, 30, 50, &mut out);
        p.reset();
        assert_eq!(p.capacity(), KneeConfig::default().default_size);
        assert!(p.choices().is_empty());
    }
}
