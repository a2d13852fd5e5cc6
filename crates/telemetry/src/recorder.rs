//! The [`Recorder`] trait and its two implementations: the no-op
//! [`NullRecorder`] (compiles to nothing) and the per-thread
//! [`ThreadRecorder`] shard.

use crate::clock::Clock;
use crate::hist::Histogram;
use crate::ring::{EventKind, EventRing};
use crate::series::{Sample, SeriesRing};
use crate::span::{SpanGuard, SpanId};

/// Enumerated monotonic counters. Each simulated thread owns one flat
/// `[u64; NUM_COUNTERS]` shard; snapshots sum the shards in tid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Persistent stores observed.
    Stores = 0,
    /// Flushes issued asynchronously (mid-FASE).
    FlushesAsync,
    /// Flushes issued synchronously (end-of-FASE drains).
    FlushesSync,
    /// Stores combined into already-buffered state (software-cache hits
    /// — the paper's write-combining events).
    ScHits,
    /// Stores that inserted a new line into the policy's buffer.
    ScMisses,
    /// Mid-FASE evictions of buffered lines.
    ScEvictions,
    /// Outermost FASEs begun.
    FaseBegins,
    /// Outermost FASEs committed.
    FaseEnds,
    /// Adaptive capacity changes.
    CapacityChanges,
    /// Ordering fences issued.
    Fences,
    /// Cycles stalled on the write-back queue mid-FASE.
    QueueStallCycles,
    /// Cycles stalled in end-of-FASE drains and fences.
    FaseStallCycles,
    /// Undo-log bytes appended (FASE runtime only).
    LogBytes,
    /// Recoveries that rolled back an incomplete FASE (FASE runtime
    /// only: crash injection or reopen found un-committed undo records).
    Rollbacks,
}

/// Number of counters (length of a shard).
pub const NUM_COUNTERS: usize = 14;

/// All counters, in shard order.
pub const ALL_COUNTERS: [CounterId; NUM_COUNTERS] = [
    CounterId::Stores,
    CounterId::FlushesAsync,
    CounterId::FlushesSync,
    CounterId::ScHits,
    CounterId::ScMisses,
    CounterId::ScEvictions,
    CounterId::FaseBegins,
    CounterId::FaseEnds,
    CounterId::CapacityChanges,
    CounterId::Fences,
    CounterId::QueueStallCycles,
    CounterId::FaseStallCycles,
    CounterId::LogBytes,
    CounterId::Rollbacks,
];

impl CounterId {
    /// Stable snake_case name (JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            CounterId::Stores => "stores",
            CounterId::FlushesAsync => "flushes_async",
            CounterId::FlushesSync => "flushes_sync",
            CounterId::ScHits => "sc_hits",
            CounterId::ScMisses => "sc_misses",
            CounterId::ScEvictions => "sc_evictions",
            CounterId::FaseBegins => "fase_begins",
            CounterId::FaseEnds => "fase_ends",
            CounterId::CapacityChanges => "capacity_changes",
            CounterId::Fences => "fences",
            CounterId::QueueStallCycles => "queue_stall_cycles",
            CounterId::FaseStallCycles => "fase_stall_cycles",
            CounterId::LogBytes => "log_bytes",
            CounterId::Rollbacks => "rollbacks",
        }
    }
}

/// Enumerated histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Write-back queue depth sampled at each asynchronous flush issue.
    QueueDepth = 0,
    /// Stall cycles per synchronous (end-of-FASE) flush.
    SyncFlushStall,
    /// Stall cycles per fence-drain of the write-back queue.
    DrainStall,
    /// Persistent stores per outermost FASE.
    FaseStores,
    /// Undo-log bytes per outermost FASE (FASE runtime only).
    FaseLogBytes,
    /// KV `get` latency in nanoseconds (span-timed).
    KvGetNs,
    /// KV `put`/`delete` latency in nanoseconds (span-timed).
    KvPutNs,
    /// KV `put_many` group-commit latency in nanoseconds (span-timed).
    KvPutManyNs,
    /// KV `scan` (range read) latency in nanoseconds (span-timed).
    KvScanNs,
    /// FASE commit (`end_fase`) latency in nanoseconds (span-timed).
    FaseCommitNs,
    /// Flush-ring drain-pass latency in nanoseconds (span-timed).
    RingDrainNs,
    /// Recovery / reopen latency in nanoseconds (span-timed).
    RecoveryNs,
}

/// Number of histograms.
pub const NUM_HISTS: usize = 12;

/// All histograms, in shard order.
pub const ALL_HISTS: [HistId; NUM_HISTS] = [
    HistId::QueueDepth,
    HistId::SyncFlushStall,
    HistId::DrainStall,
    HistId::FaseStores,
    HistId::FaseLogBytes,
    HistId::KvGetNs,
    HistId::KvPutNs,
    HistId::KvPutManyNs,
    HistId::KvScanNs,
    HistId::FaseCommitNs,
    HistId::RingDrainNs,
    HistId::RecoveryNs,
];

impl HistId {
    /// Stable snake_case name (JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            HistId::QueueDepth => "queue_depth",
            HistId::SyncFlushStall => "sync_flush_stall_cycles",
            HistId::DrainStall => "drain_stall_cycles",
            HistId::FaseStores => "fase_stores",
            HistId::FaseLogBytes => "fase_log_bytes",
            HistId::KvGetNs => "kv_get_ns",
            HistId::KvPutNs => "kv_put_ns",
            HistId::KvPutManyNs => "kv_put_many_ns",
            HistId::KvScanNs => "kv_scan_ns",
            HistId::FaseCommitNs => "fase_commit_ns",
            HistId::RingDrainNs => "ring_drain_ns",
            HistId::RecoveryNs => "recovery_ns",
        }
    }
}

/// Telemetry capture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Per-thread event-ring capacity (the timeline keeps the last N
    /// events of each thread).
    pub ring_capacity: usize,
    /// Runtime-sampler cadence: take one [`Sample`] every N ops (FASEs
    /// in the FASE runtime, outermost FASE commits in the replay
    /// engine). 0 disables the sampler.
    pub sample_every: u64,
    /// Per-thread bound on retained samples; the series decimates
    /// (keeps every other sample, doubles its stride) when full, so it
    /// always spans the whole run.
    pub series_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 4096,
            sample_every: 1024,
            series_capacity: 256,
        }
    }
}

/// The instrumentation sink. Hot paths are generic over `R: Recorder`;
/// every call site is guarded by `R::ENABLED`, a constant the optimizer
/// folds, so the [`NullRecorder`] variant costs nothing.
pub trait Recorder {
    /// Is this recorder live? `false` lets the compiler delete
    /// instrumentation blocks wholesale.
    const ENABLED: bool;

    /// Add `delta` to a counter.
    fn add(&mut self, id: CounterId, delta: u64);

    /// Increment a counter by one.
    #[inline(always)]
    fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Record one histogram sample.
    fn observe(&mut self, id: HistId, value: u64);

    /// Append a timeline event at time `t` with payload `(a, b)`.
    fn emit(&mut self, kind: EventKind, t: u64, a: u64, b: u64);

    /// Offer one runtime-sampler observation to the time series.
    fn sample(&mut self, s: Sample);

    /// Should the sampler fire for op ordinal `n`? Callers guard the
    /// (possibly costly) assembly of a [`Sample`] behind this. Always
    /// `false` for disabled recorders.
    #[inline(always)]
    fn sample_due(&self, _n: u64) -> bool {
        false
    }

    /// Open a span: measures from this call until the guard drops,
    /// recording elapsed nanoseconds into `id`'s latency histogram.
    /// Through [`NullRecorder`] the clock is never read.
    #[inline]
    fn span<'a, C: Clock>(&'a mut self, clock: &'a C, id: SpanId) -> SpanGuard<'a, Self, C>
    where
        Self: Sized,
    {
        SpanGuard::start(self, clock, id)
    }
}

/// The disabled recorder: every method is an empty inline body and
/// `ENABLED` is `false`, so instrumented code monomorphizes to exactly
/// the uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _id: CounterId, _delta: u64) {}

    #[inline(always)]
    fn observe(&mut self, _id: HistId, _value: u64) {}

    #[inline(always)]
    fn emit(&mut self, _kind: EventKind, _t: u64, _a: u64, _b: u64) {}

    #[inline(always)]
    fn sample(&mut self, _s: Sample) {}
}

/// A live per-thread shard: flat counter array, fixed histogram array,
/// bounded event ring. Strictly thread-local — merging happens only at
/// snapshot time, in tid order.
#[derive(Debug, Clone)]
pub struct ThreadRecorder {
    tid: u32,
    counters: [u64; NUM_COUNTERS],
    hists: [Histogram; NUM_HISTS],
    ring: EventRing,
    series: SeriesRing,
    sample_every: u64,
}

impl ThreadRecorder {
    /// New shard for thread `tid`.
    pub fn new(tid: u32, cfg: &TelemetryConfig) -> Self {
        ThreadRecorder {
            tid,
            counters: [0; NUM_COUNTERS],
            hists: std::array::from_fn(|_| Histogram::new()),
            ring: EventRing::new(cfg.ring_capacity),
            series: SeriesRing::new(cfg.series_capacity),
            sample_every: cfg.sample_every,
        }
    }

    /// This shard's thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Current value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// One histogram.
    pub fn hist(&self, id: HistId) -> &Histogram {
        &self.hists[id as usize]
    }

    /// The event ring (read access).
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The sampler's time series (read access).
    pub fn series(&self) -> &SeriesRing {
        &self.series
    }

    /// Decompose into (tid, counters, histograms, timeline events,
    /// sampler series).
    pub fn into_parts(
        self,
    ) -> (
        u32,
        [u64; NUM_COUNTERS],
        [Histogram; NUM_HISTS],
        Vec<crate::ring::Event>,
        Vec<Sample>,
    ) {
        (
            self.tid,
            self.counters,
            self.hists,
            self.ring.into_vec(),
            self.series.into_vec(),
        )
    }
}

impl Recorder for ThreadRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id as usize] += delta;
    }

    #[inline]
    fn observe(&mut self, id: HistId, value: u64) {
        self.hists[id as usize].observe(value);
    }

    #[inline]
    fn emit(&mut self, kind: EventKind, t: u64, a: u64, b: u64) {
        self.ring.push(t, self.tid, kind, a, b);
    }

    #[inline]
    fn sample(&mut self, s: Sample) {
        self.series.push(s);
    }

    #[inline]
    fn sample_due(&self, n: u64) -> bool {
        self.sample_every != 0 && n.is_multiple_of(self.sample_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ids_match_shard_order() {
        for (i, id) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(*id as usize, i, "{}", id.name());
        }
        for (i, id) in ALL_HISTS.iter().enumerate() {
            assert_eq!(*id as usize, i, "{}", id.name());
        }
    }

    #[test]
    fn thread_recorder_accumulates() {
        let mut r = ThreadRecorder::new(3, &TelemetryConfig::default());
        r.incr(CounterId::Stores);
        r.add(CounterId::Stores, 4);
        r.observe(HistId::QueueDepth, 2);
        r.emit(EventKind::FaseBegin, 10, 0, 0);
        assert_eq!(r.counter(CounterId::Stores), 5);
        assert_eq!(r.hist(HistId::QueueDepth).count, 1);
        assert_eq!(r.ring().len(), 1);
        assert_eq!(r.ring().iter().next().unwrap().tid, 3);
    }

    #[test]
    fn thread_recorder_sampling_follows_cadence() {
        let cfg = TelemetryConfig {
            sample_every: 4,
            ..Default::default()
        };
        let mut r = ThreadRecorder::new(1, &cfg);
        let mut taken = 0u64;
        for n in 1..=16u64 {
            if r.sample_due(n) {
                taken += 1;
                r.sample(Sample {
                    t: n,
                    tid: 1,
                    ring_depth: 0,
                    capacity: 8,
                    hit_ratio_bp: 0,
                    stalls: 0,
                });
            }
        }
        assert_eq!(taken, 4, "n = 4, 8, 12, 16");
        assert_eq!(r.series().len(), 4);
        // cadence 0 disables
        let off = ThreadRecorder::new(
            1,
            &TelemetryConfig {
                sample_every: 0,
                ..Default::default()
            },
        );
        assert!(!off.sample_due(0));
        assert!(!off.sample_due(1024));
    }

    #[test]
    fn null_recorder_is_inert() {
        let mut r = NullRecorder;
        r.incr(CounterId::Stores);
        r.observe(HistId::QueueDepth, 9);
        r.emit(EventKind::ScHit, 1, 2, 3);
        // read through a runtime binding so the flag values are
        // asserted without tripping clippy::assertions_on_constants
        let (null_on, thread_on) = (NullRecorder::ENABLED, ThreadRecorder::ENABLED);
        assert!(!null_on);
        assert!(thread_on);
    }
}
