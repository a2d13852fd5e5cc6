//! The uniform workload interface and the paper's reference numbers.

use nvcache_trace::Trace;

/// One row of the paper's Table III: the reference flush ratios this
/// reproduction compares against (the `paper` columns of `repro table3`,
/// EXPERIMENTS.md's Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Problem size column (paper's own units).
    pub problem_size: &'static str,
    /// Total outermost FASEs.
    pub fases: u64,
    /// Total flushes under ER (= total persistent stores).
    pub total_flushes: u64,
    /// LA flush ratio (the attainable minimum).
    pub la: f64,
    /// AT flush ratio (state of the art).
    pub at: f64,
    /// SC flush ratio.
    pub sc: f64,
    /// Cache size the paper's MRC analysis selects (Section IV-G), if
    /// reported.
    pub knee: Option<usize>,
}

/// A benchmark: generates per-thread persistent-write traces at a given
/// scale and knows its paper reference numbers.
///
/// `Send + Sync` so boxed workloads can be fanned out across the bench
/// harness's worker pool (trace generation is pure).
pub trait Workload: Send + Sync {
    /// Short name (matches the paper's Table III).
    fn name(&self) -> &'static str;

    /// Generate the instrumented event trace for `threads` threads.
    /// SPLASH2-style workloads are strong-scaling: total work is fixed
    /// and partitioned, so total writes stay ~constant while FASE count
    /// grows with `threads`.
    fn trace(&self, threads: usize) -> Trace;

    /// The paper's Table III row, when this workload appears there.
    fn paper_row(&self) -> Option<PaperRow> {
        None
    }
}

/// The paper's Table III reference data (flush ratios; ER is 1.0 by
/// definition) and the selected cache sizes of Section IV-G.
pub const PAPER_TABLE3: &[PaperRow] = &[
    PaperRow {
        name: "linked-list",
        problem_size: "10000",
        fases: 10_000,
        total_flushes: 49_999,
        la: 0.60001,
        at: 0.60001,
        sc: 0.60001,
        knee: None,
    },
    PaperRow {
        name: "persistent-array",
        problem_size: "100000",
        fases: 1,
        total_flushes: 1_000_001,
        la: 0.00003,
        at: 0.06250,
        sc: 0.00003,
        knee: Some(26),
    },
    PaperRow {
        name: "queue",
        problem_size: "400000",
        fases: 300_000,
        total_flushes: 400_006,
        la: 0.62500,
        at: 0.62500,
        sc: 0.62500,
        knee: None,
    },
    PaperRow {
        name: "hash",
        problem_size: "4000",
        fases: 7_000,
        total_flushes: 83_061,
        la: 0.50092,
        at: 0.62128,
        sc: 0.59531,
        knee: None,
    },
    PaperRow {
        name: "barnes",
        problem_size: "16384",
        fases: 69_000,
        total_flushes: 270_762_562,
        la: 0.00295,
        at: 0.08206,
        sc: 0.00391,
        knee: Some(15),
    },
    PaperRow {
        name: "fmm",
        problem_size: "16384",
        fases: 43_000,
        total_flushes: 87_711_754,
        la: 0.00246,
        at: 0.01683,
        sc: 0.00328,
        knee: Some(10),
    },
    PaperRow {
        name: "ocean",
        problem_size: "1026",
        fases: 648,
        total_flushes: 25_242_763,
        la: 0.09203,
        at: 0.40290,
        sc: 0.16467,
        knee: Some(2),
    },
    PaperRow {
        name: "raytrace",
        problem_size: "car",
        fases: 346_000,
        total_flushes: 65_509_589,
        la: 0.07140,
        at: 0.13952,
        sc: 0.07918,
        knee: Some(8),
    },
    PaperRow {
        name: "volrend",
        problem_size: "head",
        fases: 45,
        total_flushes: 391_692_398,
        la: 0.00219,
        at: 0.03189,
        sc: 0.00219,
        knee: Some(3),
    },
    PaperRow {
        name: "water-nsquared",
        problem_size: "512",
        fases: 2_100,
        total_flushes: 45_338_822,
        la: 0.00107,
        at: 0.05334,
        sc: 0.00411,
        knee: Some(28),
    },
    PaperRow {
        name: "water-spatial",
        problem_size: "512",
        fases: 77,
        total_flushes: 40_981_496,
        la: 0.00103,
        at: 0.07122,
        sc: 0.00157,
        knee: Some(23),
    },
    PaperRow {
        name: "mdb",
        problem_size: "1000000",
        fases: 100_516,
        total_flushes: 65_558_123,
        la: 0.05163,
        at: 0.30140,
        sc: 0.11289,
        knee: Some(20),
    },
];

/// Look up the paper's Table III row by workload name.
pub fn paper_row(name: &str) -> Option<PaperRow> {
    PAPER_TABLE3.iter().find(|r| r.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_twelve_rows() {
        assert_eq!(PAPER_TABLE3.len(), 12);
    }

    #[test]
    fn lookup_by_name() {
        assert!(paper_row("mdb").is_some());
        assert!(paper_row("water-spatial").unwrap().knee == Some(23));
        assert!(paper_row("nonexistent").is_none());
    }

    #[test]
    fn reference_ratios_are_ordered_sanely() {
        for r in PAPER_TABLE3 {
            assert!(r.la <= r.at + 1e-9, "{}: LA must be the minimum", r.name);
            assert!(r.la <= r.sc + 1e-9, "{}", r.name);
            assert!(r.sc <= r.at + 1e-9, "{}: SC never worse than AT", r.name);
        }
    }
}
