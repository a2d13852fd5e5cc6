//! Differential suite for the replay dispatch engines: the
//! monomorphized entry points (`flush_stats_with` / `run_policy_with`,
//! which match on `PolicyKind` once and run devirtualized loops) must
//! produce **byte-identical** results to the reference engine that
//! drives the same generic loops through the boxed `dyn PersistPolicy`
//! shim (`*_dyn`). Any divergence — in `FlushStats` or `RunReport` — is
//! a dispatch bug, not a modelling question. (The traced entry points
//! exist in the monomorphized form only; that telemetry perturbs
//! nothing and that snapshots are parallelism-invariant is pinned by
//! `nvcache-core`'s driver tests.)

use nvcache::core::{
    flush_stats_dyn, flush_stats_with, run_policy_dyn, run_policy_with, AdaptiveConfig, PolicyKind,
    ReplayOptions, RunConfig,
};
use nvcache::trace::synth::{cyclic, replicate, SynthOpts};
use nvcache::trace::Trace;
use nvcache::workloads::registry::splash2_workloads;

const SCALE: f64 = 0.01;

/// All six policy kinds, sized so SC genuinely evicts and the adaptive
/// variant genuinely resizes on the synthetic trace below.
fn all_kinds(writes_per_thread: usize) -> Vec<PolicyKind> {
    vec![
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 12 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: (writes_per_thread / 8).clamp(256, 1 << 26),
            ..Default::default()
        }),
        PolicyKind::Best,
    ]
}

/// Working set (23) chosen above both the Atlas table (8) and the SC
/// default capacity so every eviction path runs.
fn synthetic() -> Trace {
    let opts = SynthOpts {
        writes_per_fase: 100,
        work_per_write: 2,
        ..Default::default()
    };
    replicate(&cyclic(23, 400, &opts), 4)
}

#[test]
fn flush_stats_matches_dyn_for_all_kinds_seq_and_parallel() {
    let tr = synthetic();
    let writes = tr.threads[0].write_count();
    for kind in all_kinds(writes) {
        for par in [1usize, 4] {
            let opts = ReplayOptions::with_parallelism(par);
            let mono = flush_stats_with(&tr, &kind, &opts);
            let dyn_ = flush_stats_dyn(&tr, &kind, &opts);
            assert_eq!(mono, dyn_, "{} parallelism={par}", kind.label());
        }
    }
}

#[test]
fn run_policy_matches_dyn_for_all_kinds_seq_and_parallel() {
    let tr = synthetic();
    let writes = tr.threads[0].write_count();
    let cfg = RunConfig::default();
    for kind in all_kinds(writes) {
        for par in [1usize, 4] {
            let opts = ReplayOptions::with_parallelism(par);
            let mono = run_policy_with(&tr, &kind, &cfg, &opts);
            let dyn_ = run_policy_dyn(&tr, &kind, &cfg, &opts);
            assert_eq!(mono, dyn_, "{} parallelism={par}", kind.label());
        }
    }
}

#[test]
fn splash2_workloads_match_dyn_end_to_end() {
    // Real (modelled) workload traces, not just the synthetic shape:
    // flush accounting and timed replay agree across engines on every
    // SPLASH-2 workload at test scale, sequentially and in parallel.
    let cfg = RunConfig::default();
    for w in splash2_workloads(SCALE) {
        let tr = w.trace(2);
        let writes = tr.threads[0].write_count();
        for kind in all_kinds(writes) {
            let opts = ReplayOptions::with_parallelism(2);
            let mono = flush_stats_with(&tr, &kind, &opts);
            let dyn_ = flush_stats_dyn(&tr, &kind, &opts);
            assert_eq!(mono, dyn_, "{}: {}", w.name(), kind.label());
        }
        // timed on one representative adaptive policy per workload
        // (the heaviest path) keeps the suite fast
        let kind = all_kinds(writes).remove(4);
        let opts = ReplayOptions::sequential();
        let mono = run_policy_with(&tr, &kind, &cfg, &opts);
        let dyn_ = run_policy_dyn(&tr, &kind, &cfg, &opts);
        assert_eq!(mono, dyn_, "{}", w.name());
    }
}
