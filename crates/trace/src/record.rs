//! Recording sinks: the glue that lets a real runtime (the FASE runtime,
//! the MDB store, the micro-benchmarks) emit the same event stream a
//! compiler instrumentation pass would.
//!
//! In the paper, an LLVM pass instruments every store and every FASE
//! lock/unlock. Here, workloads call into a [`StoreSink`] at the same
//! program points; the substitution is documented in DESIGN.md §2.4.

use crate::event::Line;
use crate::trace::{ThreadTrace, Trace};

/// Receiver of instrumentation callbacks from a running workload.
///
/// One sink instance per thread; implementations need not be thread-safe.
pub trait StoreSink {
    /// A persistent store touched `line`.
    fn persistent_store(&mut self, line: Line);
    /// A load touched `line` (optional; default ignores).
    fn load(&mut self, _line: Line) {}
    /// An outermost-or-nested FASE was entered.
    fn fase_begin(&mut self);
    /// A FASE was exited.
    fn fase_end(&mut self);
    /// `units` of computation happened since the last event.
    fn work(&mut self, _units: u32) {}
}

/// A sink that discards everything (running workloads for effect only).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl StoreSink for NullSink {
    fn persistent_store(&mut self, _line: Line) {}
    fn fase_begin(&mut self) {}
    fn fase_end(&mut self) {}
}

/// A sink that records a [`ThreadTrace`] for later analysis or replay.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: ThreadTrace,
}

impl TraceRecorder {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recorded trace, leaving the recorder empty.
    pub fn finish(&mut self) -> ThreadTrace {
        std::mem::take(&mut self.inner)
    }

    /// Peek at the trace recorded so far.
    pub fn trace(&self) -> &ThreadTrace {
        &self.inner
    }

    /// Merge recorders (one per thread) into a whole-program [`Trace`].
    pub fn merge(recorders: Vec<TraceRecorder>) -> Trace {
        Trace::from_threads(recorders.into_iter().map(|r| r.inner).collect())
    }
}

impl StoreSink for TraceRecorder {
    #[inline]
    fn persistent_store(&mut self, line: Line) {
        self.inner.write(line);
    }
    #[inline]
    fn load(&mut self, line: Line) {
        self.inner.read(line);
    }
    #[inline]
    fn fase_begin(&mut self) {
        self.inner.fase_begin();
    }
    #[inline]
    fn fase_end(&mut self) {
        self.inner.fase_end();
    }
    #[inline]
    fn work(&mut self, units: u32) {
        self.inner.work(units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_captures_program_order() {
        let mut r = TraceRecorder::new();
        r.fase_begin();
        r.persistent_store(Line(1));
        r.work(10);
        r.load(Line(2));
        r.persistent_store(Line(1));
        r.fase_end();
        let t = r.finish();
        assert_eq!(t.write_count(), 2);
        assert_eq!(t.fase_count(), 1);
        assert_eq!(t.events.len(), 6);
        // recorder is drained
        assert_eq!(r.trace().events.len(), 0);
    }

    #[test]
    fn merge_builds_multithread_trace() {
        let mut a = TraceRecorder::new();
        a.persistent_store(Line(1));
        let mut b = TraceRecorder::new();
        b.persistent_store(Line(2));
        b.persistent_store(Line(3));
        let tr = TraceRecorder::merge(vec![a, b]);
        assert_eq!(tr.num_threads(), 2);
        assert_eq!(tr.total_writes(), 3);
    }

    #[test]
    fn null_sink_compiles_and_ignores() {
        let mut s = NullSink;
        s.fase_begin();
        s.persistent_store(Line(5));
        s.load(Line(5));
        s.work(1);
        s.fase_end();
    }
}
