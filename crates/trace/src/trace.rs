//! Trace containers: per-thread event sequences and whole-program traces.

use crate::event::{Event, Line};
use crate::stats::TraceStats;
use std::collections::HashSet;
use std::sync::Arc;

/// The event sequence observed by one thread.
///
/// Per the paper, each thread has its own software cache and its own
/// persistent write stream; there is no data sharing between software
/// caches even when two threads write the same line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadTrace {
    /// Events in program order.
    pub events: Vec<Event>,
}

impl ThreadTrace {
    /// An empty thread trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a persistent store.
    #[inline]
    pub fn write(&mut self, line: Line) {
        self.events.push(Event::Write(line));
    }

    /// Append a load.
    #[inline]
    pub fn read(&mut self, line: Line) {
        self.events.push(Event::Read(line));
    }

    /// Append a FASE begin marker.
    #[inline]
    pub fn fase_begin(&mut self) {
        self.events.push(Event::FaseBegin);
    }

    /// Append a FASE end marker.
    #[inline]
    pub fn fase_end(&mut self) {
        self.events.push(Event::FaseEnd);
    }

    /// Append `units` of opaque computation. Consecutive work events are
    /// coalesced to keep traces compact.
    #[inline]
    pub fn work(&mut self, units: u32) {
        if units == 0 {
            return;
        }
        if let Some(Event::Work(w)) = self.events.last_mut() {
            *w = w.saturating_add(units);
            return;
        }
        self.events.push(Event::Work(units));
    }

    /// The persistent writes only, in order, ignoring everything else.
    pub fn writes(&self) -> impl Iterator<Item = Line> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Write(l) => Some(*l),
            _ => None,
        })
    }

    /// Number of persistent writes.
    pub fn write_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_write()).count()
    }

    /// Number of outermost FASEs (counted by `FaseEnd` at depth 1).
    pub fn fase_count(&self) -> usize {
        let mut depth = 0usize;
        let mut n = 0usize;
        for e in &self.events {
            match e {
                Event::FaseBegin => depth += 1,
                Event::FaseEnd => {
                    if depth == 1 {
                        n += 1;
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        n
    }

    /// The write sequence with *FASE renaming* applied (paper Section
    /// III-B, "Adaptation to FASE Semantics"): the same line written in
    /// different outermost FASEs is renamed to a fresh identifier, so that
    /// cross-FASE reuses — which the runtime's end-of-FASE flush
    /// invalidates — do not count as reuses in the locality analysis.
    ///
    /// Returned identifiers are dense-ish composites `(epoch << 40) | line`
    /// folded into `u64`; only equality matters to the analysis.
    pub fn renamed_writes(&self) -> Vec<u64> {
        let mut depth = 0usize;
        let mut epoch: u64 = 0;
        let mut out = Vec::with_capacity(self.events.len());
        for e in &self.events {
            match e {
                Event::FaseBegin => depth += 1,
                Event::FaseEnd => {
                    if depth <= 1 {
                        epoch += 1;
                    }
                    depth = depth.saturating_sub(1);
                }
                Event::Write(l) => {
                    // Mix the epoch into the id; collisions across epochs
                    // are avoided by reserving the top 24 bits.
                    out.push((epoch << 40) ^ (l.0 & ((1 << 40) - 1)));
                }
                _ => {}
            }
        }
        out
    }
}

/// A whole-program trace: one [`ThreadTrace`] per thread.
///
/// Threads are shared, read-only buffers: threads that ran the same
/// program (a workload whose threads never read their index) hold one
/// buffer between them, so a trace of `n` such threads costs one
/// recording and one buffer, not `n`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Per-thread event streams, indexed by thread id.
    pub threads: Vec<Arc<ThreadTrace>>,
}

impl Trace {
    /// A trace of the given threads, in thread-id order, each its own
    /// buffer.
    pub fn from_threads(threads: Vec<ThreadTrace>) -> Self {
        Trace {
            threads: threads.into_iter().map(Arc::new).collect(),
        }
    }

    /// A trace of `n` threads that all ran `thread`'s program: one
    /// buffer, shared.
    pub fn replicated(thread: impl Into<Arc<ThreadTrace>>, n: usize) -> Self {
        Trace {
            threads: vec![thread.into(); n],
        }
    }

    /// Single-threaded trace from an explicit event list.
    pub fn single(events: Vec<Event>) -> Self {
        Trace::from_threads(vec![ThreadTrace { events }])
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total persistent writes across threads.
    pub fn total_writes(&self) -> usize {
        self.threads.iter().map(|t| t.write_count()).sum()
    }

    /// Total outermost FASEs across threads.
    pub fn total_fases(&self) -> usize {
        self.threads.iter().map(|t| t.fase_count()).sum()
    }

    /// Number of distinct lines written anywhere in the trace.
    pub fn distinct_lines(&self) -> usize {
        let mut set = HashSet::new();
        for t in &self.threads {
            for l in t.writes() {
                set.insert(l);
            }
        }
        set.len()
    }

    /// Summary statistics.
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u64) -> Line {
        Line(x)
    }

    #[test]
    fn builder_and_counts() {
        let mut t = ThreadTrace::new();
        t.fase_begin();
        t.write(l(1));
        t.work(3);
        t.work(2);
        t.write(l(2));
        t.fase_end();
        t.fase_begin();
        t.write(l(1));
        t.fase_end();
        assert_eq!(t.write_count(), 3);
        assert_eq!(t.fase_count(), 2);
        // consecutive work coalesced
        assert_eq!(
            t.events
                .iter()
                .filter(|e| matches!(e, Event::Work(_)))
                .count(),
            1
        );
        assert_eq!(
            t.events.iter().find_map(|e| match e {
                Event::Work(w) => Some(*w),
                _ => None,
            }),
            Some(5)
        );
    }

    #[test]
    fn nested_fases_count_outermost_only() {
        let mut t = ThreadTrace::new();
        t.fase_begin();
        t.fase_begin();
        t.write(l(9));
        t.fase_end();
        t.fase_end();
        assert_eq!(t.fase_count(), 1);
    }

    #[test]
    fn renamed_writes_distinguish_fases() {
        let mut t = ThreadTrace::new();
        // ab|ab  → four distinct ids (paper's abcdef example)
        t.fase_begin();
        t.write(l(1));
        t.write(l(2));
        t.fase_end();
        t.fase_begin();
        t.write(l(1));
        t.write(l(2));
        t.fase_end();
        let r = t.renamed_writes();
        assert_eq!(r.len(), 4);
        let set: HashSet<_> = r.iter().collect();
        assert_eq!(set.len(), 4, "cross-FASE reuse must disappear");
    }

    #[test]
    fn renamed_writes_preserve_intra_fase_reuse() {
        let mut t = ThreadTrace::new();
        t.fase_begin();
        t.write(l(1));
        t.write(l(1));
        t.fase_end();
        let r = t.renamed_writes();
        assert_eq!(r[0], r[1], "intra-FASE reuse must survive renaming");
    }

    #[test]
    fn renaming_inside_nested_fase_uses_outermost_epoch() {
        let mut t = ThreadTrace::new();
        t.fase_begin();
        t.write(l(7));
        t.fase_begin();
        t.write(l(7));
        t.fase_end(); // inner end: no epoch bump
        t.write(l(7));
        t.fase_end();
        let r = t.renamed_writes();
        assert_eq!(r[0], r[1]);
        assert_eq!(r[1], r[2]);
    }

    #[test]
    fn trace_totals_and_distinct() {
        let (mut a, mut b) = (ThreadTrace::new(), ThreadTrace::new());
        a.fase_begin();
        a.write(l(1));
        a.write(l(2));
        a.fase_end();
        b.fase_begin();
        b.write(l(2));
        b.fase_end();
        let tr = Trace::from_threads(vec![a, b]);
        assert_eq!(tr.total_writes(), 3);
        assert_eq!(tr.total_fases(), 2);
        assert_eq!(tr.distinct_lines(), 2);
        assert_eq!(tr.num_threads(), 2);
        assert!(!Arc::ptr_eq(&tr.threads[0], &tr.threads[1]));
    }
}
