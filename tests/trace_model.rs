//! Property-based invariants of the trace model, centered on FASE
//! renaming (paper Section III-B): the transformation that makes the
//! locality analysis respect failure-atomic-section semantics.

use nvcache::trace::synth::{cyclic, phased, uniform, zipf, SynthOpts};
use nvcache::trace::{Line, ThreadTrace, Trace};
use proptest::prelude::*;

fn fase_program() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..16, 1..20), 1..10)
}

fn build(fases: &[Vec<u64>]) -> ThreadTrace {
    let mut t = ThreadTrace::new();
    for f in fases {
        t.fase_begin();
        for &l in f {
            t.write(Line(l));
        }
        t.fase_end();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming preserves the write count and the *within-FASE* equality
    /// structure exactly.
    #[test]
    fn renaming_preserves_intra_fase_structure(fases in fase_program()) {
        let t = build(&fases);
        let renamed = t.renamed_writes();
        let flat: Vec<u64> = fases.iter().flatten().copied().collect();
        prop_assert_eq!(renamed.len(), flat.len());
        // walk per fase: equal lines within a fase ⇔ equal renamed ids
        let mut idx = 0;
        for f in &fases {
            for i in 0..f.len() {
                for j in (i + 1)..f.len() {
                    prop_assert_eq!(
                        f[i] == f[j],
                        renamed[idx + i] == renamed[idx + j],
                        "within-FASE pair ({}, {})", i, j
                    );
                }
            }
            idx += f.len();
        }
    }

    /// Renaming kills every cross-FASE equality: the same line in two
    /// different FASEs gets two different identifiers.
    #[test]
    fn renaming_kills_cross_fase_reuse(fases in fase_program()) {
        let t = build(&fases);
        let renamed = t.renamed_writes();
        let mut idx = 0;
        let mut spans = Vec::new();
        for f in &fases {
            spans.push((idx, idx + f.len()));
            idx += f.len();
        }
        for (a, &(s1, e1)) in spans.iter().enumerate() {
            for &(s2, e2) in spans.iter().skip(a + 1) {
                for i in s1..e1 {
                    for j in s2..e2 {
                        prop_assert_ne!(
                            renamed[i], renamed[j],
                            "cross-FASE ids must differ (positions {}, {})", i, j
                        );
                    }
                }
            }
        }
    }

    /// Trace statistics are mutually consistent.
    #[test]
    fn stats_are_consistent(fases in fase_program()) {
        let tr = Trace::from_threads(vec![build(&fases)]);
        let s = tr.stats();
        prop_assert_eq!(s.total_fases, fases.len());
        let writes: usize = fases.iter().map(|f| f.len()).sum();
        prop_assert_eq!(s.total_writes, writes);
        let wpf = writes as f64 / fases.len() as f64;
        prop_assert!((s.writes_per_fase - wpf).abs() < 1e-9);
        prop_assert!(s.mean_fase_wss <= s.writes_per_fase + 1e-9);
        prop_assert!(s.max_fase_wss as f64 >= s.mean_fase_wss - 1e-9);
        prop_assert!(s.distinct_lines <= 16);
    }

    /// Generators are deterministic for a fixed seed and honour their
    /// size parameters.
    #[test]
    fn generators_are_deterministic(seed in any::<u64>(), lines in 1u64..64, n in 1usize..500) {
        let opts = SynthOpts { seed, ..Default::default() };
        prop_assert_eq!(uniform(lines, n, &opts), uniform(lines, n, &opts));
        prop_assert_eq!(zipf(lines, n, 1.1, &opts), zipf(lines, n, 1.1, &opts));
        let u = uniform(lines, n, &opts);
        prop_assert_eq!(u.total_writes(), n);
        prop_assert!(u.distinct_lines() as u64 <= lines);
    }

    /// `cyclic` has exactly its working set as distinct lines, and
    /// `phased` the sum of both phases' sets.
    #[test]
    fn structured_generators_have_exact_footprints(w1 in 1u64..32, w2 in 1u64..32, rounds in 1usize..20) {
        let opts = SynthOpts::default();
        let c = cyclic(w1, rounds, &opts);
        prop_assert_eq!(c.distinct_lines() as u64, w1);
        let p = phased(w1, (w1 as usize) * rounds, w2, (w2 as usize) * rounds, &opts);
        prop_assert_eq!(p.distinct_lines() as u64, w1 + w2);
    }
}
