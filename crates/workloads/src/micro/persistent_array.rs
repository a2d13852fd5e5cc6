//! `persistent-array` — the paper's didactic micro-benchmark
//! (Section IV-B): one FASE containing a two-level nested loop. The
//! inner loop writes 4-byte integers to elements `0..inner` of an array;
//! the outer loop repeats it `outer` times. On 64-byte lines the inner
//! loop touches `⌈inner·4/64⌉` ≈ 25–26 lines — Atlas's 8-entry table
//! thrashes (flush ratio 1/16 from spatial locality alone) while a
//! 26-entry software cache removes virtually every flush (ratio
//! ≈ `26/(inner·outer)` ≈ 0.00003 at paper scale).

use crate::workload::{paper_row, PaperRow, Workload};
use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_trace::Trace;

/// The persistent-array workload.
#[derive(Debug, Clone)]
pub struct PersistentArray {
    /// Elements written per inner pass (paper: 400).
    pub inner: usize,
    /// Inner-pass repetitions (paper: 2500).
    pub outer: usize,
}

impl PersistentArray {
    /// Paper-shaped instance scaled by `scale` (outer loop repetitions;
    /// `scale = 1.0` reproduces the paper's 1M stores).
    pub fn scaled(scale: f64) -> Self {
        PersistentArray {
            inner: 400,
            outer: ((2500.0 * scale) as usize).max(2),
        }
    }

    /// Run against a FASE runtime (real stores; recoverable).
    pub fn run(&self, rt: &mut FaseRuntime) {
        rt.begin_fase();
        for _ in 0..self.outer {
            for i in 0..self.inner {
                // i-th 4-byte element, exactly as in the paper
                rt.store(i * 4, &(i as u32).to_le_bytes());
                rt.work(1);
            }
        }
        rt.end_fase();
    }

    /// Lines the inner loop touches.
    pub fn working_set_lines(&self) -> usize {
        (self.inner * 4).div_ceil(64)
    }
}

impl Workload for PersistentArray {
    fn name(&self) -> &'static str {
        "persistent-array"
    }

    fn trace(&self, threads: usize) -> Trace {
        // sequential benchmark: thread 0 does the work; extra threads
        // replicate the paper's single-thread behaviour, so they share
        // its one recording
        let mut rt = FaseRuntime::new(
            self.inner * 4 + 64,
            // log holds the old value of every store in the single
            // FASE: a group header, a record header and the padded
            // pre-image each
            (self.inner * self.outer) * 32 + 4096,
            &PolicyKind::Best,
        );
        rt.record_trace();
        self.run(&mut rt);
        Trace::replicated(rt.take_trace().unwrap(), threads.max(1))
    }

    fn paper_row(&self) -> Option<PaperRow> {
        paper_row("persistent-array")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::{flush_stats, PolicyKind};

    fn small() -> PersistentArray {
        PersistentArray {
            inner: 400,
            outer: 50,
        }
    }

    #[test]
    fn trace_shape_matches_paper_description() {
        let w = small();
        let tr = w.trace(1);
        assert_eq!(tr.total_fases(), 1, "exactly one FASE");
        assert_eq!(tr.total_writes(), 400 * 50);
        assert_eq!(tr.distinct_lines(), 25, "400 ints = 25 lines");
    }

    #[test]
    fn atlas_ratio_is_one_sixteenth() {
        // Spatial locality leaves AT with a flush per line transition:
        // 25 lines per pass / 400 writes = 1/16 (paper's 0.0625).
        let tr = small().trace(1);
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 });
        assert!(
            (at.flush_ratio() - 0.0625).abs() < 0.002,
            "AT ratio {} ≉ 0.0625",
            at.flush_ratio()
        );
    }

    #[test]
    fn sized_sc_removes_almost_all_flushes() {
        let w = small();
        let tr = w.trace(1);
        let sc = flush_stats(
            &tr,
            &PolicyKind::ScFixed {
                capacity: w.working_set_lines() + 1,
            },
        );
        // only the 25 cold lines are ever flushed (at FASE end)
        assert_eq!(sc.flushes(), 25);
        let expected = 25.0 / (400.0 * 50.0);
        assert!((sc.flush_ratio() - expected).abs() < 1e-9);
    }

    #[test]
    fn la_equals_right_sized_sc() {
        let w = small();
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy);
        let sc = flush_stats(&tr, &PolicyKind::ScFixed { capacity: 26 });
        assert_eq!(la.flushes(), sc.flushes());
    }

    #[test]
    fn runs_recoverably() {
        use nvcache_pmem::CrashMode;
        let w = PersistentArray {
            inner: 64,
            outer: 3,
        };
        let mut rt = FaseRuntime::new(
            64 * 4 + 64,
            64 * 3 * 32 + 4096,
            &PolicyKind::ScFixed { capacity: 8 },
        );
        w.run(&mut rt);
        rt.crash_and_recover(&CrashMode::StrictDurableOnly);
        // FASE committed: final values visible
        for i in 0..64usize {
            let mut b = [0u8; 4];
            rt.load(i * 4, &mut b);
            assert_eq!(u32::from_le_bytes(b), i as u32);
        }
    }

    /// The trace as it was recorded before threads shared a buffer: one
    /// run of the program per thread.
    fn trace_per_thread(w: &PersistentArray, threads: usize) -> Trace {
        let mut recs = Vec::with_capacity(threads);
        for _ in 0..threads.max(1) {
            let mut rt = FaseRuntime::new(
                w.inner * 4 + 64,
                (w.inner * w.outer) * 32 + 4096,
                &PolicyKind::Best,
            );
            rt.record_trace();
            w.run(&mut rt);
            recs.push(rt.take_trace().unwrap());
        }
        Trace::from_threads(recs)
    }

    #[test]
    fn one_recording_equals_one_per_thread() {
        let w = small();
        for threads in [0, 1, 3, 8] {
            let tr = w.trace(threads);
            assert_eq!(tr, trace_per_thread(&w, threads), "{threads} threads");
            let first = &tr.threads[0];
            assert!(
                tr.threads.iter().all(|t| std::sync::Arc::ptr_eq(t, first)),
                "{threads} threads: one buffer"
            );
        }
    }

    #[test]
    fn scaled_constructor() {
        let w = PersistentArray::scaled(1.0);
        assert_eq!(w.inner, 400);
        assert_eq!(w.outer, 2500);
        assert_eq!(w.working_set_lines(), 25);
    }
}
