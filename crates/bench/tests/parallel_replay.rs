//! Differential test: parallel trace replay must be bit-identical to
//! sequential replay — full `RunReport` and `FlushStats` equality,
//! including the per-thread vectors — for every policy kind, on both
//! synthetic and SPLASH-2-style recorded traces.

use nvcache_bench::adaptive_config_for;
use nvcache_core::{flush_stats_with, run_policy_with, PolicyKind, ReplayOptions, RunConfig};
use nvcache_trace::synth::{cyclic, zipf, SynthOpts};
use nvcache_trace::Trace;
use nvcache_workloads::registry::workload_by_name;

fn all_kinds(trace: &Trace) -> Vec<PolicyKind> {
    vec![
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 23 },
        PolicyKind::ScAdaptive(adaptive_config_for(trace)),
        PolicyKind::Best,
    ]
}

fn assert_identical(trace: &Trace, label: &str) {
    let cfg = RunConfig::default();
    for kind in all_kinds(trace) {
        let seq_run = run_policy_with(trace, &kind, &cfg, &ReplayOptions::sequential());
        let seq_fl = flush_stats_with(trace, &kind, &ReplayOptions::sequential());
        for par in [2usize, 3, 8, 32] {
            let opts = ReplayOptions::with_parallelism(par);
            let run = run_policy_with(trace, &kind, &cfg, &opts);
            assert_eq!(
                run,
                seq_run,
                "{label}: RunReport diverged for {} at parallelism {par}",
                kind.label()
            );
            let fl = flush_stats_with(trace, &kind, &opts);
            assert_eq!(
                fl,
                seq_fl,
                "{label}: FlushStats diverged for {} at parallelism {par}",
                kind.label()
            );
        }
        // the per-thread vectors must really carry per-thread data
        assert_eq!(seq_run.per_thread.len(), trace.num_threads(), "{label}");
    }
}

#[test]
fn synthetic_traces_replay_identically() {
    let cyc = Trace::replicated(cyclic(12, 300, &SynthOpts::default()).threads[0].clone(), 8);
    assert_identical(&cyc, "cyclic x8");
    let zp = Trace::replicated(
        zipf(
            64,
            2_000,
            0.9,
            &SynthOpts {
                writes_per_fase: 24,
                ..Default::default()
            },
        )
        .threads[0]
            .clone(),
        4,
    );
    assert_identical(&zp, "zipf x4");
}

#[test]
fn splash2_traces_replay_identically() {
    for name in ["water-spatial", "ocean"] {
        let w = workload_by_name(name, 0.004).expect("known workload");
        let tr = w.trace(4);
        assert_identical(&tr, name);
    }
}
