//! Machine-model calibration shared by all experiments.
//!
//! Absolute cycle costs are arbitrary; what is calibrated is the set of
//! *ratios* the paper's conclusions rest on (DESIGN.md §4.7, the
//! calibration table): flush service time vs per-store compute (drives
//! ER's ~22× Table I slowdown), the async queue depth (how much overlap
//! mid-FASE flushes get), and a contention term that reproduces the
//! rising BEST L1 miss ratios of Table IV as thread counts grow.

use nvcache_cachesim::MachineConfig;
use nvcache_core::adaptive::AdaptiveConfig;
use nvcache_locality::{lru_mrc, select_cache_size, KneeConfig};
use nvcache_trace::{Event, ThreadTrace, Trace};

/// Calibration constants.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Cross-thread/OS contention factor per log2(threads)
    /// (probability an L1 line was evicted externally).
    pub contention_per_log2_thread: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            contention_per_log2_thread: 0.035,
        }
    }
}

/// The hardware context configuration for a run with `threads` threads.
pub fn machine_for(threads: usize) -> MachineConfig {
    let cal = Calibration::default();
    let t = threads.max(1) as f64;
    MachineConfig {
        contention_miss_prob: cal.contention_per_log2_thread * t.log2(),
        ..MachineConfig::default()
    }
}

/// Offline profiling (the paper's SC-offline): exact MRC of the whole
/// FASE-renamed write trace, knee-selected capacity.
pub fn offline_capacity(trace: &Trace, knee: &KneeConfig) -> usize {
    // profile thread 0 (threads are homogeneous in these workloads)
    let renamed = trace.threads[0].renamed_writes();
    let mrc = lru_mrc(&renamed, knee.max_size);
    select_cache_size(&mrc, knee)
}

/// Word stores per 64-byte line, the unit that turns the knee search's
/// largest capacity (in lines) into a burst length (in stores).
const WORD_STORES_PER_LINE: usize = 8;

/// The online adaptive configuration for a trace. The paper samples one
/// 64M-write burst, a small fraction of its runs; a burst sized as a
/// share of a scaled-down run would instead hold SC at its default
/// capacity (AT's table size) for that share of every run. So the burst
/// is sized in stores: an eighth of thread 0's writes, at most one pass
/// over the largest working set the knee search can choose
/// (`KneeConfig::max_size` lines of word stores, rounded up to a power
/// of two: 512) and at least half that, so that a short trace still
/// samples a window the MRC can resolve.
///
/// FASE renaming restarts reuse at every FASE, so a burst that stops
/// early in a FASE analyses that FASE's cold stores without their
/// reuses, and the flat tail it adds to the MRC picks a large cache (on
/// Mtest, 50 lines against an exact knee of 6). The burst therefore runs
/// on to the end of the FASE it stops in, unless that FASE is long
/// enough to double it.
pub fn adaptive_config_for(trace: &Trace) -> AdaptiveConfig {
    let cfg = AdaptiveConfig::default();
    let cap = (cfg.knee.max_size * WORD_STORES_PER_LINE).next_power_of_two();
    let burst_len = trace.threads.first().map_or(cap / 2, |thread| {
        let target = (thread.write_count() / 8).clamp(cap / 2, cap);
        match writes_through_fase_of(thread, target) {
            Some(end) if end <= 2 * target => end,
            _ => target,
        }
    });
    AdaptiveConfig { burst_len, ..cfg }
}

/// The writes of `thread` up to the end of the outermost FASE that holds
/// its `n`-th write, or `None` if no FASE ends after it.
fn writes_through_fase_of(thread: &ThreadTrace, n: usize) -> Option<usize> {
    let (mut writes, mut depth) = (0usize, 0usize);
    for e in &thread.events {
        match e {
            Event::Write(_) => writes += 1,
            Event::FaseBegin => depth += 1,
            Event::FaseEnd => {
                depth = depth.saturating_sub(1);
                if depth == 0 && writes >= n {
                    return Some(writes);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_trace::synth::{cyclic, sequential, SynthOpts};

    #[test]
    fn contention_grows_with_threads() {
        assert_eq!(machine_for(1).contention_miss_prob, 0.0);
        assert!(machine_for(8).contention_miss_prob > 0.0);
        assert!(machine_for(32).contention_miss_prob > machine_for(8).contention_miss_prob);
    }

    #[test]
    fn offline_capacity_finds_working_set() {
        let tr = cyclic(23, 2000, &SynthOpts::default());
        let cap = offline_capacity(&tr, &KneeConfig::default());
        assert_eq!(cap, 23);
    }

    #[test]
    fn adaptive_burst_is_proportional_and_bounded() {
        let burst = |writes: usize, writes_per_fase: usize| {
            let opts = SynthOpts {
                writes_per_fase,
                ..SynthOpts::default()
            };
            let tr = sequential(writes as u64, 1, &opts);
            assert_eq!(tr.threads[0].write_count(), writes);
            adaptive_config_for(&tr).burst_len
        };
        // one FASE around each trace: floor, an eighth, cap
        assert_eq!(burst(10, 0), 256);
        assert_eq!(burst(2_048, 0), 256);
        assert_eq!(burst(3_000, 0), 375);
        assert_eq!(burst(4_096, 0), 512);
        assert_eq!(burst(10_000, 0), 512);
        assert_eq!(burst(1 << 20, 0), 512);
        // the cap is one pass over the knee search's largest working set
        let max_pass = KneeConfig::default().max_size * WORD_STORES_PER_LINE;
        assert!(max_pass <= 512 && 512 < 2 * max_pass);
        // short FASEs: the burst ends with the FASE it stops in
        assert_eq!(burst(10_000, 100), 600);
        assert_eq!(burst(10_000, 1_024), 1_024);
        assert_eq!(burst(3_000, 400), 400);
        // a FASE that would double the burst is cut
        assert_eq!(burst(10_000, 1_025), 512);
        assert_eq!(burst(1 << 20, 4_096), 512);
    }
}
