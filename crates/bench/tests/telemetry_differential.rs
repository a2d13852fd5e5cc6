//! Differential test for the telemetry layer: instrumented counters
//! must **exactly** equal the replay drivers' own accounting — per run
//! and per thread — for every policy kind, on synthetic and
//! SPLASH-2-style traces, sequentially and in parallel. Telemetry
//! observes a run; it must never change one, and it must never drift
//! from the numbers the paper tables are built from.

use nvcache_bench::adaptive_config_for;
use nvcache_core::{
    flush_stats_traced, flush_stats_with, run_policy_traced, run_policy_with, PolicyKind,
    ReplayOptions, RunConfig,
};
use nvcache_telemetry::{CounterId, TelemetryConfig};
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

fn assert_counters_match(trace: &Trace, label: &str) {
    let cfg = RunConfig::default();
    let tcfg = TelemetryConfig::default();
    for kind in all_kinds(trace) {
        for opts in [
            ReplayOptions::sequential(),
            ReplayOptions::with_parallelism(4),
        ] {
            let ctx = format!("{label}/{}/par={}", kind.label(), opts.parallelism);

            // flush-counting driver: FlushStats vs counters
            let plain = flush_stats_with(trace, &kind, &opts);
            let (stats, snap) = flush_stats_traced(trace, &kind, &opts, &tcfg);
            assert_eq!(plain, stats, "{ctx}: tracing perturbed FlushStats");
            assert_eq!(snap.counter(CounterId::Stores), stats.stores, "{ctx}");
            assert_eq!(
                snap.counter(CounterId::FlushesAsync),
                stats.flushes_async,
                "{ctx}"
            );
            assert_eq!(
                snap.counter(CounterId::FlushesSync),
                stats.flushes_sync,
                "{ctx}"
            );
            assert_eq!(
                snap.counter(CounterId::ScHits) + snap.counter(CounterId::ScMisses),
                stats.stores,
                "{ctx}: every store is a hit or a miss"
            );
            assert_eq!(
                snap.counter(CounterId::ScEvictions),
                stats.flushes_async,
                "{ctx}: mid-FASE flushes are exactly the evictions"
            );

            // timed driver: RunReport / per-thread MachineReports vs counters
            let plain_run = run_policy_with(trace, &kind, &cfg, &opts);
            let (report, tsnap) = run_policy_traced(trace, &kind, &cfg, &opts, &tcfg);
            assert_eq!(plain_run, report, "{ctx}: tracing perturbed RunReport");
            assert_eq!(tsnap.counter(CounterId::Stores), report.stores, "{ctx}");
            assert_eq!(tsnap.flushes(), report.flushes(), "{ctx}");
            assert_eq!(tsnap.threads, trace.num_threads(), "{ctx}");
            for (tid, mr) in report.per_thread.iter().enumerate() {
                let shard = &tsnap.per_thread[tid];
                assert_eq!(
                    shard[CounterId::FlushesAsync as usize]
                        + shard[CounterId::FlushesSync as usize],
                    mr.flushes(),
                    "{ctx}: thread {tid} flush count"
                );
            }
            assert_eq!(
                tsnap.counter(CounterId::FaseStallCycles),
                report.per_thread.iter().map(|r| r.fase_stall_cycles).sum(),
                "{ctx}: FASE stall attribution"
            );
        }
    }
}

#[test]
fn synthetic_telemetry_matches_driver_accounting() {
    let cyc = Trace::replicated(cyclic(12, 300, &SynthOpts::default()).threads[0].clone(), 8);
    assert_counters_match(&cyc, "cyclic x8");
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
    assert_counters_match(&zp, "zipf x4");
}

#[test]
fn splash2_telemetry_matches_driver_accounting() {
    for name in ["water-spatial", "ocean"] {
        let w = workload_by_name(name, 0.004).expect("known workload");
        let tr = w.trace(4);
        assert_counters_match(&tr, name);
    }
}
