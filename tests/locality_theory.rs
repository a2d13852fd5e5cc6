//! Property-based verification of the paper's locality theory
//! (Section III): the linear-time algorithms against brute force, the
//! reuse/footprint duality (Eq. 5), and the MRC conversion (Eq. 3)
//! against exact LRU simulation.

use nvcache::locality::{
    footprint::{footprint_all_k, footprint_all_k_naive},
    lru_mrc,
    reuse::{reuse_all_k, reuse_all_k_naive},
    select_cache_size,
    sim::{lru_hits_at, stack_distances},
    KneeConfig, Mrc,
};
use proptest::prelude::*;

fn trace_strategy(max_len: usize, alphabet: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..alphabet, 1..max_len)
}

/// Traces made of runs: each drawn datum repeated 1..=9 times, the way
/// a word-by-word copy of a page repeats its lines.
fn run_trace_strategy(max_runs: usize, alphabet: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0..alphabet, 1usize..10), 1..max_runs).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(id, n)| std::iter::repeat_n(id, n))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The O(n) interval-counting algorithm equals the brute-force
    /// window scan for every k (paper Eq. 2).
    #[test]
    fn linear_reuse_matches_bruteforce(trace in trace_strategy(60, 8)) {
        let fast = reuse_all_k(&trace);
        let slow = reuse_all_k_naive(&trace);
        for k in 0..=trace.len() {
            prop_assert!((fast[k] - slow[k]).abs() < 1e-9, "k={k}");
        }
    }

    /// Same for the footprint formula (paper Eq. 4).
    #[test]
    fn linear_footprint_matches_bruteforce(trace in trace_strategy(60, 8)) {
        let fast = footprint_all_k(&trace);
        let slow = footprint_all_k_naive(&trace);
        for k in 1..=trace.len() {
            prop_assert!((fast[k] - slow[k]).abs() < 1e-9, "k={k}");
        }
    }

    /// The duality reuse(k) + fp(k) = k (paper Eq. 5) holds exactly on
    /// every trace.
    #[test]
    fn reuse_footprint_duality(trace in trace_strategy(200, 16)) {
        let r = reuse_all_k(&trace);
        let f = footprint_all_k(&trace);
        for k in 1..=trace.len() {
            prop_assert!((r[k] + f[k] - k as f64).abs() < 1e-6, "k={k}");
        }
    }

    /// reuse(k) is monotone non-decreasing with slope in [0, 1] — the
    /// property that makes its derivative a valid hit ratio.
    #[test]
    fn reuse_is_monotone_with_unit_slope(trace in trace_strategy(200, 12)) {
        let r = reuse_all_k(&trace);
        for k in 1..trace.len() {
            let d = r[k + 1] - r[k];
            prop_assert!(d >= -1e-9, "k={k}: decreasing");
            prop_assert!(d <= 1.0 + 1e-9, "k={k}: slope > 1");
        }
    }

    /// The derived MRC is a valid, monotone curve, and for LRU-friendly
    /// traces it tracks exact simulation.
    #[test]
    fn derived_mrc_is_valid(trace in trace_strategy(400, 12)) {
        let mrc = Mrc::from_reuse(&reuse_all_k(&trace), 24);
        prop_assert_eq!(mrc.mr(0), 1.0);
        for c in 1..=24 {
            prop_assert!(mrc.mr(c) <= mrc.mr(c - 1) + 1e-12);
            prop_assert!((0.0..=1.0).contains(&mrc.mr(c)));
        }
    }

    /// The exact Mattson curve dominates: at the full alphabet size the
    /// only misses are cold, and the timescale prediction agrees within
    /// a loose bound.
    #[test]
    fn exact_mrc_cold_miss_floor(trace in trace_strategy(300, 10)) {
        let distinct = {
            let mut v = trace.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let mrc = lru_mrc(&trace, 16);
        let floor = distinct as f64 / trace.len() as f64;
        prop_assert!((mrc.mr(10) - floor).abs() < 1.0); // sanity
        prop_assert!(
            (mrc.mr(16) - floor).abs() < 1e-9 || distinct > 16,
            "cache ≥ alphabet ⇒ only cold misses"
        );
    }

    /// `lru_mrc` sends only the head of each run of one datum through
    /// the stack (a repeat is a distance-1 hit that moves nothing): the
    /// curve equals the histogram of every access's Mattson distance,
    /// and the hit count of a direct LRU simulation at every size.
    #[test]
    fn run_compressed_mrc_equals_uncompressed_mattson(trace in run_trace_strategy(120, 14)) {
        let mrc = lru_mrc(&trace, 16);
        let dists = stack_distances(&trace);
        for c in 0..=16 {
            let hits = dists.iter().flatten().filter(|&&d| d <= c).count();
            let want = 1.0 - hits as f64 / trace.len() as f64;
            prop_assert!((mrc.mr(c) - want).abs() < 1e-12, "c={c}: {} vs {want}", mrc.mr(c));
            prop_assert_eq!(hits as u64, lru_hits_at(&trace, c), "c={}", c);
        }
    }

    /// Knee selection always lands inside the configured bounds and is
    /// deterministic.
    #[test]
    fn knee_selection_bounded_and_deterministic(trace in trace_strategy(300, 24)) {
        let cfg = KneeConfig::default();
        let mrc = lru_mrc(&trace, cfg.max_size);
        let a = select_cache_size(&mrc, &cfg);
        let b = select_cache_size(&mrc, &cfg);
        prop_assert_eq!(a, b);
        prop_assert!(a >= cfg.min_size && a <= cfg.max_size);
    }

    /// Miss ratio at the selected size is within tolerance of the best
    /// achievable inside the bound — the selection's contract.
    #[test]
    fn selected_size_is_near_optimal(trace in trace_strategy(400, 24)) {
        let cfg = KneeConfig::default();
        let mrc = lru_mrc(&trace, cfg.max_size);
        let pick = select_cache_size(&mrc, &cfg);
        let best = mrc.mr(cfg.max_size);
        let total = mrc.mr(0) - best;
        prop_assert!(
            mrc.mr(pick) <= best + cfg.tolerance_frac * total + 1e-9,
            "mr({pick}) = {} vs best {}",
            mrc.mr(pick),
            best
        );
    }
}
