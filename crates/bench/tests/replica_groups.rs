//! Differential test for replica groups: the replay drivers run one
//! policy pass per group of threads that share a buffer
//! ([`Trace::replicated`]), and that must give exactly what replaying
//! every thread against its own policy gives. The reference is the same
//! trace with every thread in a buffer of its own (groups of one):
//! `RunReport` (per-thread reports included), `FlushStats` and, with the
//! recorder on, the whole `TelemetrySnapshot` must be equal, for every
//! policy kind and parallelism.

use std::sync::Arc;

use nvcache_bench::{adaptive_config_for, machine_for};
use nvcache_core::{
    flush_stats_traced, flush_stats_with, run_policy_traced, run_policy_with, PolicyKind,
    ReplayOptions, RunConfig,
};
use nvcache_telemetry::TelemetryConfig;
use nvcache_trace::synth::{cyclic, SynthOpts};
use nvcache_trace::{ThreadTrace, Trace};
use nvcache_workloads::mdb::MdbWorkload;
use nvcache_workloads::Workload;

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

/// `shared` and `own` hold the same events thread for thread; `own`
/// gives every thread a buffer of its own.
fn assert_same_replay(shared: &Trace, own: &Trace, label: &str) {
    assert_eq!(
        shared, own,
        "{label}: the two traces must hold the same events"
    );
    assert!(
        own.threads
            .iter()
            .enumerate()
            .all(|(i, a)| own.threads[..i].iter().all(|b| !Arc::ptr_eq(a, b))),
        "{label}: the reference must be groups of one"
    );
    // the calibrated machine of `n` threads: with contention on, each
    // machine's seed (a function of its thread id) shows in its report
    let cfg = RunConfig {
        machine: machine_for(shared.num_threads()),
    };
    let tcfg = TelemetryConfig::default();
    for kind in all_kinds(shared) {
        for par in [1usize, 2, 3, 8] {
            let opts = ReplayOptions::with_parallelism(par);
            let ctx = format!("{label}/{}/par={par}", kind.label());

            let run = run_policy_with(shared, &kind, &cfg, &opts);
            assert_eq!(run, run_policy_with(own, &kind, &cfg, &opts), "{ctx}");
            assert_eq!(run.per_thread.len(), shared.num_threads(), "{ctx}");
            let fl = flush_stats_with(shared, &kind, &opts);
            assert_eq!(fl, flush_stats_with(own, &kind, &opts), "{ctx}");

            let traced = run_policy_traced(shared, &kind, &cfg, &opts, &tcfg);
            assert_eq!(traced.0, run, "{ctx}: the recorder changed the run");
            assert_eq!(
                traced,
                run_policy_traced(own, &kind, &cfg, &opts, &tcfg),
                "{ctx}: traced run"
            );
            assert_eq!(traced.1.threads, shared.num_threads(), "{ctx}");
            let traced = flush_stats_traced(shared, &kind, &opts, &tcfg);
            assert_eq!(traced.0, fl, "{ctx}: the recorder changed the counts");
            assert_eq!(
                traced,
                flush_stats_traced(own, &kind, &opts, &tcfg),
                "{ctx}: traced counts"
            );
        }
    }
}

/// `Trace::replicated(t, n)` against `n` clones of `t`, each its own
/// buffer.
fn assert_replicas_match_clones(t: &ThreadTrace, label: &str) {
    for n in [1usize, 3, 8] {
        let shared = Trace::replicated(t.clone(), n);
        let own = Trace::from_threads(vec![t.clone(); n]);
        assert_same_replay(&shared, &own, &format!("{label} x{n}"));
    }
}

fn cyclic_thread() -> ThreadTrace {
    let opts = SynthOpts {
        writes_per_fase: 50,
        ..Default::default()
    };
    (*cyclic(12, 300, &opts).threads[0]).clone()
}

fn mtest_thread() -> ThreadTrace {
    let w = MdbWorkload { n: 200, batch: 10 };
    (*w.trace(1).threads[0]).clone()
}

#[test]
fn replicated_cyclic_replays_like_its_clones() {
    assert_replicas_match_clones(&cyclic_thread(), "cyclic");
}

#[test]
fn replicated_mtest_replays_like_its_clones() {
    assert_replicas_match_clones(&mtest_thread(), "mtest");
}

#[test]
fn mixed_groups_keep_thread_order() {
    let (a, b) = (Arc::new(cyclic_thread()), Arc::new(mtest_thread()));
    let shared = Trace {
        threads: vec![a.clone(), b.clone(), a.clone(), a.clone(), b.clone()],
    };
    let own = Trace::from_threads(shared.threads.iter().map(|t| (**t).clone()).collect());
    assert_same_replay(&shared, &own, "[a, b, a, a, b]");
    // the two programs differ, and so do two replicas' seeds, so a
    // result put back at the wrong tid would show
    let run = run_policy_with(
        &shared,
        &PolicyKind::Atlas { size: 8 },
        &RunConfig {
            machine: machine_for(5),
        },
        &ReplayOptions::sequential(),
    );
    assert_ne!(run.per_thread[0].flushes(), run.per_thread[1].flushes());
    assert_ne!(run.per_thread[0], run.per_thread[2]);
}
