//! RAII span timing: a [`SpanGuard`] reads the clock on construction
//! and records the elapsed nanoseconds into a latency histogram on
//! drop. Through [`NullRecorder`](crate::NullRecorder) the guard holds
//! no live data and both clock reads fold away (`ENABLED` is a
//! compile-time constant), so uninstrumented builds pay nothing.

use crate::clock::Clock;
use crate::recorder::{HistId, Recorder};

/// Named operation spans; each maps onto one latency [`HistId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// One KV `get`.
    KvGet,
    /// One KV `put` (or `delete`).
    KvPut,
    /// One KV `put_many` group commit.
    KvPutMany,
    /// One KV `scan` (range read).
    KvScan,
    /// One FASE commit (`end_fase` of the outermost section).
    FaseCommit,
    /// One flush-ring drain pass.
    RingDrain,
    /// One recovery / reopen.
    Recovery,
}

impl SpanId {
    /// The latency histogram this span feeds.
    #[inline]
    pub fn hist(self) -> HistId {
        match self {
            SpanId::KvGet => HistId::KvGetNs,
            SpanId::KvPut => HistId::KvPutNs,
            SpanId::KvPutMany => HistId::KvPutManyNs,
            SpanId::KvScan => HistId::KvScanNs,
            SpanId::FaseCommit => HistId::FaseCommitNs,
            SpanId::RingDrain => HistId::RingDrainNs,
            SpanId::Recovery => HistId::RecoveryNs,
        }
    }

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        self.hist().name()
    }
}

/// Live span: measures from construction to drop and records into
/// `R`'s histogram for the span's id. Create via
/// [`Recorder::span`].
pub struct SpanGuard<'a, R: Recorder, C: Clock> {
    rec: &'a mut R,
    clock: &'a C,
    id: SpanId,
    start: u64,
}

impl<'a, R: Recorder, C: Clock> SpanGuard<'a, R, C> {
    /// Start a span now. Prefer [`Recorder::span`].
    #[inline]
    pub fn start(rec: &'a mut R, clock: &'a C, id: SpanId) -> Self {
        // Guarded by the const: the NullRecorder instantiation never
        // touches the clock.
        let start = if R::ENABLED { clock.now_ns() } else { 0 };
        SpanGuard {
            rec,
            clock,
            id,
            start,
        }
    }
}

impl<R: Recorder, C: Clock> Drop for SpanGuard<'_, R, C> {
    #[inline]
    fn drop(&mut self) {
        if R::ENABLED {
            let dt = self.clock.now_ns().saturating_sub(self.start);
            self.rec.observe(self.id.hist(), dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use crate::recorder::{NullRecorder, TelemetryConfig, ThreadRecorder};

    #[test]
    fn span_measures_elapsed_fake_time() {
        let clock = FakeClock::new(0, 0);
        let mut rec = ThreadRecorder::new(0, &TelemetryConfig::default());
        {
            let _g = rec.span(&clock, SpanId::KvGet);
            clock.advance(250);
        }
        let h = rec.hist(HistId::KvGetNs);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 250);
        assert_eq!(h.max, 250);
    }

    #[test]
    fn nested_distinct_spans_each_record() {
        let clock = FakeClock::new(0, 0);
        let mut rec = ThreadRecorder::new(0, &TelemetryConfig::default());
        {
            let g = rec.span(&clock, SpanId::FaseCommit);
            clock.advance(10);
            drop(g);
            let g2 = rec.span(&clock, SpanId::RingDrain);
            clock.advance(5);
            drop(g2);
        }
        assert_eq!(rec.hist(HistId::FaseCommitNs).sum, 10);
        assert_eq!(rec.hist(HistId::RingDrainNs).sum, 5);
    }

    #[test]
    fn null_recorder_span_is_inert_and_reads_no_clock() {
        // auto-advance step 1: every read would move the clock, so a
        // final read equal to start proves the span never touched it
        let clock = FakeClock::new(7, 1);
        let mut rec = NullRecorder;
        {
            let _g = rec.span(&clock, SpanId::KvPut);
        }
        assert_eq!(clock.now_ns(), 7);
    }

    #[test]
    fn every_span_maps_to_a_distinct_latency_hist() {
        let all = [
            SpanId::KvGet,
            SpanId::KvPut,
            SpanId::KvPutMany,
            SpanId::KvScan,
            SpanId::FaseCommit,
            SpanId::RingDrain,
            SpanId::Recovery,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.name().ends_with("_ns"), "{}", a.name());
            for b in all.iter().skip(i + 1) {
                assert_ne!(a.hist(), b.hist());
            }
        }
    }
}
