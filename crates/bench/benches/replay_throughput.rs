//! Criterion: trace-replay engine throughput, sequential vs parallel,
//! recorder off vs on.
//!
//! The unit of work is one full `run_policy_with` replay of an 8-thread
//! trace; throughput is reported in persistent stores (elements) per
//! second. Parallel replays are bit-identical to sequential (see
//! `tests/parallel_replay.rs`), so any wall-clock difference here is
//! pure engine speedup. The `*_telemetry` variants replay through
//! `run_policy_traced`; comparing them against the plain rows is the
//! telemetry layer's overhead budget (the recorder-off path must be
//! indistinguishable from the pre-telemetry engine — the `NullRecorder`
//! blocks compile away).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nvcache_core::{run_policy_traced, run_policy_with, PolicyKind, ReplayOptions, RunConfig};
use nvcache_telemetry::TelemetryConfig;
use nvcache_trace::synth::{cyclic, replicate, SynthOpts};
use nvcache_trace::Trace;

fn eight_thread_trace() -> Trace {
    let single = cyclic(23, 4_000, &SynthOpts::default());
    replicate(&single, 8)
}

fn bench_throughput(c: &mut Criterion) {
    let tr = eight_thread_trace();
    let stores = tr.stats().total_writes as u64;
    let cfg = RunConfig::default();
    let mut g = c.benchmark_group("replay");
    g.throughput(Throughput::Elements(stores));
    for kind in [PolicyKind::Eager, PolicyKind::Atlas { size: 8 }] {
        for par in [1usize, 2, 4, 8] {
            let opts = ReplayOptions::with_parallelism(par);
            let id = BenchmarkId::new(format!("{}_p", kind.label()), par);
            g.bench_with_input(id, &par, |b, _| {
                b.iter(|| black_box(run_policy_with(&tr, &kind, &cfg, &opts)))
            });
        }
    }
    g.finish();

    let tcfg = TelemetryConfig::default();
    let mut g = c.benchmark_group("replay_telemetry");
    g.throughput(Throughput::Elements(stores));
    for kind in [PolicyKind::Eager, PolicyKind::Atlas { size: 8 }] {
        for par in [1usize, 8] {
            let opts = ReplayOptions::with_parallelism(par);
            let id = BenchmarkId::new(format!("{}_p", kind.label()), par);
            g.bench_with_input(id, &par, |b, _| {
                b.iter(|| black_box(run_policy_traced(&tr, &kind, &cfg, &opts, &tcfg)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
