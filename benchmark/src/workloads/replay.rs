//! `replay_splash` and `replay_mdb`: recorded programs replayed through
//! ER / AT / SC / SC-offline / BEST on the simulated machine. No KV code
//! runs; `core`, `cachesim` and `locality` do all the work.
//!
//! Two kinds of number come out and are kept apart: *simulated*
//! statistics (cycles, flush ratios — exact for one seed, compared
//! bit-for-bit) and *host* time (how fast the replay engine produces
//! them).

use std::time::Instant;

use super::{expect_same, ns_per_iter, quiet_rate, timed_setup, Ctx, Outcome};
use crate::adapter::{
    mdb_inputs, offline_knee, online_knee, splash_inputs, ReplayEngine, ReplayInput, SimRun,
    POLICIES, SC,
};
use crate::span::{Sink, SpanBuf};
use crate::stats::Stat;

/// Which recorded programs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Seven SPLASH-2 kernels + four micro workloads.
    Splash,
    /// Mtest over `treestore`.
    Mdb,
}

/// Trace scale of a 10-second run and the timed passes made over it:
/// one pass takes ≈ 0.13 s (`replay_splash`, 55 replay calls) or
/// ≈ 0.19 s (`replay_mdb`, 5 calls) on the reference host. The calls
/// are the slices, and the only handle on their length is the scale:
/// at `replay_mdb`'s scale 0.5 — where ROADMAP's "Fix first" numbers
/// (SC ≈ 1.08× ER, flush ratio 0.77) were taken, and which
/// `--seconds 50` reproduces — a call is 200 ms long and met too few
/// quiet stretches of the host to be timed steadily (ten-seed spread
/// of `ops_s` 11–14 %).
fn base_scale(which: Which) -> (f64, usize) {
    match which {
        Which::Splash => (0.05, 64),
        Which::Mdb => (0.1, 44),
    }
}

/// Lines in the burst the locality measurements analyse.
const BURST: usize = 4096;

/// Passes of each engine variant and recorder setting in the traced run.
const VARIANT_ROUNDS: usize = 3;

/// One pass: every program through every policy. Returns the simulated
/// results and the host nanoseconds of each replay call (both
/// program-major — the calls are the pass's slices), and the host
/// seconds of the whole pass.
fn pass<S: Sink>(
    inputs: &[ReplayInput],
    seed: u64,
    engine: ReplayEngine,
    spans: &mut S,
    span_names: &[u16; 5],
    origin: Instant,
) -> (Vec<SimRun>, Vec<u64>, f64) {
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut sims = Vec::with_capacity(inputs.len() * POLICIES.len());
    let mut call_ns = Vec::with_capacity(inputs.len() * POLICIES.len());
    let began = now_ns();
    let mut t0 = began;
    for (i, input) in inputs.iter().enumerate() {
        for (p, name) in span_names.iter().enumerate() {
            let sim = std::hint::black_box(input.simulate(p, seed, engine));
            let t1 = now_ns();
            if S::ON {
                spans.call(*name, i as u32, t0, t1);
            }
            call_ns.push(t1 - t0);
            sims.push(sim);
            t0 = t1;
        }
    }
    (sims, call_ns, (t0 - began) as f64 / 1e9)
}

fn untraced_pass(
    inputs: &[ReplayInput],
    seed: u64,
    engine: ReplayEngine,
) -> (Vec<SimRun>, Vec<u64>, f64) {
    pass(
        inputs,
        seed,
        engine,
        &mut crate::span::NoSpans,
        &[0; 5],
        Instant::now(),
    )
}

/// Replay invariants, checked once before timing. Returns
/// `(checked, violated)`.
fn check_invariants(inputs: &[ReplayInput], out: &mut Outcome) -> (u64, u64) {
    let (mut checked, mut violated) = (0u64, 0u64);
    let mut check = |ok: bool, what: String, out: &mut Outcome| {
        checked += 1;
        if !ok {
            violated += 1;
            out.problem(what);
        }
    };
    for input in inputs {
        let name = input.name;
        let counts: Vec<_> = (0..POLICIES.len())
            .map(|p| input.count_flushes(p, ReplayEngine::Mono))
            .collect();
        let la = input.count_flushes_lazy();
        let (er, at, sc) = (counts[0], counts[1], counts[SC]);
        check(
            er.flushes == er.stores,
            format!("{name}: ER flush ratio is {}, not 1", er.ratio()),
            out,
        );
        check(
            la.flushes <= at.flushes,
            format!("{name}: LA {} > AT {}", la.flushes, at.flushes),
            out,
        );
        check(
            la.flushes <= sc.flushes,
            format!("{name}: LA {} > SC {}", la.flushes, sc.flushes),
            out,
        );
        for (p, mono) in counts.iter().enumerate() {
            let label = POLICIES[p];
            let par = input.count_flushes(p, ReplayEngine::Parallel);
            check(
                par == *mono,
                format!("{name}/{label}: parallel {par:?} != sequential {mono:?}"),
                out,
            );
            let dynamic = input.count_flushes(p, ReplayEngine::Dyn);
            check(
                dynamic == *mono,
                format!("{name}/{label}: dyn {dynamic:?} != mono {mono:?}"),
                out,
            );
        }
    }
    (checked, violated)
}

/// Sum of `f` over the SC-adaptive (or any policy `p`) results.
fn sum_policy(sims: &[SimRun], p: usize, f: impl Fn(&SimRun) -> u64) -> u64 {
    sims.iter().skip(p).step_by(POLICIES.len()).map(f).sum()
}

/// Run the workload.
pub fn run(which: Which, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(match which {
        Which::Splash => "replay_splash",
        Which::Mdb => "replay_mdb",
    });
    let (scale, passes) = base_scale(which);
    let scale = scale * ctx.seconds / 10.0;

    // set-up = trace recording + policy calibration (offline knee)
    let (inputs, setup) = timed_setup(ctx, || match which {
        Which::Splash => splash_inputs(scale),
        Which::Mdb => mdb_inputs(scale),
    });
    let stores: u64 = inputs.iter().map(ReplayInput::stores).sum();
    let fases: u64 = inputs.iter().map(ReplayInput::fases).sum();

    let (checked, violated) = check_invariants(&inputs, &mut out);
    out.attempted += checked;
    out.failed += violated;

    // timed passes: monomorphised sequential engine, recorder off
    let repeats = ctx.repeats(passes);
    let mut first: Option<Vec<SimRun>> = None;
    let (mut stores_s, mut calls) = (Vec::new(), Vec::new());
    for r in 0..repeats {
        let (sims, call_ns, secs) = untraced_pass(&inputs, ctx.seed, ReplayEngine::Mono);
        out.attempted += sims.len() as u64;
        stores_s.push(stores as f64 * POLICIES.len() as f64 / secs);
        calls.push(call_ns);
        match &first {
            None => first = Some(sims),
            Some(f) => expect_same(&mut out, "simulated statistics", r, f, &sims),
        }
    }
    let sims = first.expect("at least one pass");
    let ops = quiet_rate(stores * POLICIES.len() as u64, &calls);

    // simulated statistics (exact for one seed)
    let sc_flushes = sum_policy(&sims, SC, |s| s.flushes);
    let sc_stores = sum_policy(&sims, SC, |s| s.stores);
    let log_speedups: Vec<f64> = sims
        .chunks_exact(POLICIES.len())
        .map(|per| (per[0].cycles as f64 / per[SC].cycles as f64).ln())
        .collect();
    let geomean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    let paper_gap = inputs
        .iter()
        .zip(sims.chunks_exact(POLICIES.len()))
        .map(|(input, per)| {
            let measured = per[SC].flushes as f64 / per[SC].stores.max(1) as f64;
            (measured / input.paper_sc).log10().abs()
        })
        .sum::<f64>()
        / inputs.len() as f64;

    out.e2e("setup_s", setup);
    // an op of a replayed program is one store, of its NVRAM traffic
    // one FASE (BENCHMARK.json says so beside the workloads)
    out.e2e("ops_s", ops);
    out.e2e(
        "flush_ratio",
        Stat::one(sc_flushes as f64 / sc_stores as f64),
    );
    out.e2e(
        "nvm_flushes_per_op",
        Stat::one(sc_flushes as f64 / fases as f64),
    );
    out.e2e("sim_speedup_sc_vs_er", Stat::one(geomean));
    out.e2e("paper_gap_log10", Stat::one(paper_gap));

    if ctx.trace {
        layers(ctx, &inputs, &sims, &calls, &stores_s, setup, &mut out);
    }
    out.finish()
}

/// The traced run: one pass under spans, the engine variants, the
/// recorder-on run and the bare locality analysis.
fn layers(
    ctx: &Ctx,
    inputs: &[ReplayInput],
    sims: &[SimRun],
    calls: &[Vec<u64>],
    stores_s: &[f64],
    setup: Stat,
    out: &mut Outcome,
) {
    let stores: u64 = inputs.iter().map(ReplayInput::stores).sum();
    let fases: u64 = inputs.iter().map(ReplayInput::fases).sum();

    // workloads / trace
    out.layer(
        "workloads.tracegen_stores_s",
        Stat::one(stores as f64 / setup.value),
    );
    out.layer("trace.stores", Stat::one(stores as f64));
    out.layer("trace.fases", Stat::one(fases as f64));
    out.layer(
        "trace.stores_per_fase",
        Stat::one(stores as f64 / fases as f64),
    );

    // locality: the MRC + knee selection on one recorded burst, online
    // (timescale sampling) against exact Mattson
    let burst = inputs[0].renamed_prefix(BURST);
    let mut knee = 0usize;
    let mrc = ns_per_iter(5, 1, |_| knee = std::hint::black_box(online_knee(&burst)));
    let exact = offline_knee(&burst);
    out.layer(
        "locality.mrc_ns_per_line",
        mrc.map(|ns| ns / burst.len() as f64),
    );
    out.layer("locality.knee_online", Stat::one(knee as f64));
    out.layer("locality.knee_offline", Stat::one(exact as f64));
    out.layer(
        "locality.knee_abs_err",
        Stat::one(knee.abs_diff(exact) as f64),
    );

    // core: host cost per policy, exact flush ratios, engine variants
    const REPLAY_NS: [&str; 5] = [
        "core.replay_ns_per_store.er",
        "core.replay_ns_per_store.at",
        "core.replay_ns_per_store.sc",
        "core.replay_ns_per_store.sco",
        "core.replay_ns_per_store.best",
    ];
    const CYCLES: [&str; 5] = [
        "cachesim.cycles.er",
        "cachesim.cycles.at",
        "cachesim.cycles.sc",
        "cachesim.cycles.sco",
        "cachesim.cycles.best",
    ];
    for p in 0..POLICIES.len() {
        // each policy's calls at their fastest over the passes
        let of_policy: Vec<Vec<u64>> = calls
            .iter()
            .map(|c| c.iter().skip(p).step_by(POLICIES.len()).copied().collect())
            .collect();
        let rate = quiet_rate(stores, &of_policy);
        out.layer(
            REPLAY_NS[p],
            Stat {
                value: 1e9 / rate.value,
                q1: 1e9 / rate.q3,
                q3: 1e9 / rate.q1,
                n: rate.n,
            },
        );
        out.layer(
            CYCLES[p],
            Stat::one(sum_policy(sims, p, |s| s.cycles) as f64),
        );
    }
    let ratio = |p: usize| {
        sum_policy(sims, p, |s| s.flushes) as f64 / sum_policy(sims, p, |s| s.stores) as f64
    };
    let la: u64 = inputs.iter().map(|i| i.count_flushes_lazy().flushes).sum();
    out.layer("core.flush_ratio.la", Stat::one(la as f64 / stores as f64));
    out.layer("core.flush_ratio.at", Stat::one(ratio(1)));
    out.layer("core.flush_ratio.sc", Stat::one(ratio(SC)));
    out.layer("core.flush_ratio.sco", Stat::one(ratio(3)));

    // traced pass (spans around every replay call) and the variants,
    // each against a fresh untraced mono pass taken right beside it
    let mut spans = SpanBuf::with_capacity(inputs.len() * POLICIES.len() + 8);
    let names = POLICIES.map(|p| spans.name(&format!("run_policy.{p}")));
    let root = spans.open("repeat");
    let origin = spans.origin();
    let (traced_sims, traced_calls, _) = pass(
        inputs,
        ctx.seed,
        ReplayEngine::Mono,
        &mut spans,
        &names,
        origin,
    );
    spans.close(root);
    if traced_sims != sims {
        out.problem("traced pass changed the simulated statistics".into());
    }
    out.layer(
        "telemetry.trace_overhead_frac",
        Stat::one(super::trace_overhead(calls, &traced_calls)),
    );
    if let Err(e) = spans.write_jsonl(
        &ctx.out_dir.join(format!("trace-{}.jsonl", out.workload)),
        out.workload,
    ) {
        out.problem(format!("cannot write trace file: {e}"));
    }

    // the other engines, alternated, every call at its fastest like the
    // mono passes they are compared with
    let (mut dyn_calls, mut par_calls) = (Vec::new(), Vec::new());
    for _ in 0..VARIANT_ROUNDS {
        for (engine, into) in [
            (ReplayEngine::Dyn, &mut dyn_calls),
            (ReplayEngine::Parallel, &mut par_calls),
        ] {
            let (variant_sims, call_ns, _) = untraced_pass(inputs, ctx.seed, engine);
            if variant_sims != sims {
                out.problem(format!(
                    "{engine:?} engine changed the simulated statistics"
                ));
            }
            into.push(call_ns);
        }
    }
    let mono = quiet_rate(1, calls).value;
    out.layer(
        "core.dyn_over_mono",
        Stat::one(mono / quiet_rate(1, &dyn_calls).value),
    );
    out.layer(
        "core.par_over_seq",
        Stat::one(mono / quiet_rate(1, &par_calls).value),
    );

    // recorder on: SC-adaptive only (the policy with decisions to log)
    let (mut off_ns, mut on_ns) = (Vec::new(), Vec::new());
    let mut on = Vec::new();
    for _ in 0..VARIANT_ROUNDS {
        let (mut off_round, mut on_round) = (Vec::new(), Vec::new());
        on.clear();
        for input in inputs {
            let t = Instant::now();
            let off = input.simulate(SC, ctx.seed, ReplayEngine::Mono);
            off_round.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            let recorded = input.simulate_recorded(ctx.seed);
            on_round.push(t.elapsed().as_nanos() as u64);
            if recorded.0 != off {
                out.problem("recorder changed the simulated statistics".into());
            }
            on.push(recorded);
        }
        off_ns.push(off_round);
        on_ns.push(on_round);
    }
    out.layer(
        "telemetry.recorder_on_over_off",
        Stat::one(quiet_rate(1, &off_ns).value / quiet_rate(1, &on_ns).value),
    );
    let changes: u64 = on.iter().map(|r| r.1).sum();
    let caps: Vec<f64> = on.iter().filter(|r| r.1 > 0).map(|r| r.2).collect();
    out.layer("core.capacity_changes", Stat::one(changes as f64));
    out.layer(
        "core.chosen_capacity_mean",
        Stat::one(if caps.is_empty() {
            0.0
        } else {
            caps.iter().sum::<f64>() / caps.len() as f64
        }),
    );

    // cachesim: the SC-adaptive run's simulated memory-system numbers
    let sc_stores = sum_policy(sims, SC, |s| s.stores) as f64;
    let l1 = sims
        .iter()
        .skip(SC)
        .step_by(POLICIES.len())
        .map(|s| s.l1_miss_ratio * s.stores as f64)
        .sum::<f64>()
        / sc_stores;
    out.layer("cachesim.l1_miss_ratio.sc", Stat::one(l1));
    out.layer(
        "cachesim.queue_stall_cycles.sc",
        Stat::one(sum_policy(sims, SC, |s| s.queue_stall_cycles) as f64),
    );
    out.layer(
        "cachesim.fase_stall_cycles.sc",
        Stat::one(sum_policy(sims, SC, |s| s.fase_stall_cycles) as f64),
    );

    out.layer(
        "client.ops_s_iqr_frac",
        Stat::one(Stat::of(stores_s).spread()),
    );
}
