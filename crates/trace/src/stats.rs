//! Summary statistics over traces, mirroring the "benchmark statistics"
//! columns of the paper's Table III (problem size, total FASEs, total
//! persistent stores, writes per FASE).

use crate::event::Event;
use crate::hash::FxHashSet;
use crate::trace::Trace;

/// Aggregate statistics of a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of threads.
    pub threads: usize,
    /// Total persistent stores across all threads.
    pub total_writes: usize,
    /// Total loads across all threads.
    pub total_reads: usize,
    /// Total outermost FASEs.
    pub total_fases: usize,
    /// Distinct cache lines written.
    pub distinct_lines: usize,
    /// Mean persistent stores per outermost FASE.
    pub writes_per_fase: f64,
    /// Mean distinct lines written per outermost FASE (per-FASE working
    /// set, the quantity the software cache capacity is chasing).
    pub mean_fase_wss: f64,
    /// Largest per-FASE distinct-line working set observed.
    pub max_fase_wss: usize,
    /// Total `Work` units (abstract computation).
    pub total_work: u64,
}

impl TraceStats {
    /// Compute statistics for `trace`.
    pub fn of(trace: &Trace) -> Self {
        let mut total_writes = 0usize;
        let mut total_reads = 0usize;
        let mut total_fases = 0usize;
        let mut total_work = 0u64;
        let mut all_lines = FxHashSet::default();
        let mut wss_sum = 0usize;
        let mut wss_max = 0usize;

        for t in &trace.threads {
            let mut depth = 0usize;
            let mut cur: FxHashSet<u64> = FxHashSet::default();
            for e in &t.events {
                match e {
                    Event::Write(l) => {
                        total_writes += 1;
                        all_lines.insert(l.0);
                        if depth > 0 {
                            cur.insert(l.0);
                        }
                    }
                    Event::Read(_) => total_reads += 1,
                    Event::FaseBegin => depth += 1,
                    Event::FaseEnd => {
                        if depth == 1 {
                            total_fases += 1;
                            wss_sum += cur.len();
                            wss_max = wss_max.max(cur.len());
                            cur.clear();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    Event::Work(w) => total_work += *w as u64,
                }
            }
        }

        TraceStats {
            threads: trace.num_threads(),
            total_writes,
            total_reads,
            total_fases,
            distinct_lines: all_lines.len(),
            writes_per_fase: if total_fases > 0 {
                total_writes as f64 / total_fases as f64
            } else {
                0.0
            },
            mean_fase_wss: if total_fases > 0 {
                wss_sum as f64 / total_fases as f64
            } else {
                0.0
            },
            max_fase_wss: wss_max,
            total_work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Line;

    #[test]
    fn stats_basic() {
        let mut t = crate::ThreadTrace::new();
        t.fase_begin();
        t.write(Line(1));
        t.write(Line(2));
        t.write(Line(1));
        t.work(4);
        t.fase_end();
        t.fase_begin();
        t.write(Line(3));
        t.fase_end();
        let s = Trace::from_threads(vec![t]).stats();
        assert_eq!(s.total_writes, 4);
        assert_eq!(s.total_fases, 2);
        assert_eq!(s.distinct_lines, 3);
        assert!((s.writes_per_fase - 2.0).abs() < 1e-12);
        assert!((s.mean_fase_wss - 1.5).abs() < 1e-12); // {1,2} then {3}
        assert_eq!(s.max_fase_wss, 2);
        assert_eq!(s.total_work, 4);
    }

    #[test]
    fn stats_empty_trace() {
        let s = Trace::default().stats();
        assert_eq!(s.total_writes, 0);
        assert_eq!(s.writes_per_fase, 0.0);
        assert_eq!(s.mean_fase_wss, 0.0);
    }
}
