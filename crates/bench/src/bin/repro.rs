//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale S] [--threads a,b,c] [--json]
//!                    [--telemetry FILE]
//!
//! experiments: table1 table2 table3 table4
//!              fig2 fig4 fig5 fig6 fig7 fig8
//!              ablation-knee ablation-atlas ablation-bound ablation-burst
//!              ablation-clwb ablation-phased ablation-groups
//!              kv-bench     (YCSB grids over the sharded KV store
//!                            → BENCH_kv.json; --smoke for CI sizes,
//!                            checks only, no file)
//!              tree-crash   (crash-point sweep over tree transactions:
//!                            committed-prefix oracle on both flush
//!                            paths × crash modes; nonzero on failure)
//!              crash-matrix (crash-point fuzz: all policies × crash
//!                            modes × seeds; exits nonzero on failure)
//!              all          (tables + figures)
//!              ablations    (all seven ablations)
//! ```
//!
//! `crash-matrix` takes `--seeds N` (default 3): programs per cell. It
//! is the CI smoke form of `tests/crash_fuzz.rs` — every micro-step of
//! each program is crashed, recovered and checked against the oracle.
//!
//! Comparing two commits is not `repro`'s job: the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`) runs and judges them.
//!
//! `repro net-smoke` runs the network serving path end to end over the
//! in-process transport — pipelined multi-connection loadgen, crash,
//! recover, ack-after-commit audit — and exits nonzero if any acked
//! write did not survive. `repro kv-serve` / `repro kv-load` are the
//! real-TCP forms: a server that runs until killed and an open-loop
//! loadgen printing one JSON summary line.
//!
//! `--scale` is the fraction of the paper's problem sizes (default
//! 0.05); absolute numbers shrink with it but orderings and ratios are
//! scale-stable (EXPERIMENTS.md). Use `--scale 1.0` for paper sizes
//! (minutes, not seconds).
//!
//! `--telemetry FILE` additionally instruments every timed replay the
//! experiment performs (counters, histograms, FASE/flush timeline),
//! prints a summary table and writes the full per-run snapshots to
//! FILE as JSON. Simulated results are identical with or without it.

use nvcache_bench::experiments::{ablations, figs, kv, tables, DEFAULT_SCALE, THREAD_SWEEP};
use nvcache_bench::report::{telemetry_envelope, telemetry_table};
use nvcache_bench::{telemetry, Table};
use nvcache_core::{AdaptiveConfig, PolicyKind};
use nvcache_fase::{crash_fuzz, CrashFuzzConfig};
use nvcache_pmem::CrashMode;

struct Args {
    experiment: String,
    scale: f64,
    threads: Vec<usize>,
    json: bool,
    telemetry: Option<String>,
    seeds: u64,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: DEFAULT_SCALE,
        threads: THREAD_SWEEP.to_vec(),
        json: false,
        telemetry: None,
        seeds: 3,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --scale"));
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage("missing --threads"));
                args.threads = v
                    .split(',')
                    .map(|x| x.parse().unwrap_or_else(|_| usage("bad thread count")))
                    .collect();
            }
            "--json" => args.json = true,
            "--smoke" => args.smoke = true,
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("missing or bad value for --seeds"));
            }
            "--telemetry" => {
                args.telemetry = Some(it.next().unwrap_or_else(|| usage("missing --telemetry")));
            }
            "--help" | "-h" => usage(""),
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    if args.experiment.is_empty() {
        usage("missing experiment name");
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro <experiment> [--scale S] [--threads a,b,c] [--json] [--telemetry FILE]\n\
         \x20      repro crash-matrix [--seeds N] [--json]\n\
         experiments: table1 table2 table3 table4 fig2 fig4 fig5 fig6 fig7 fig8\n\
         \x20            ablation-knee ablation-atlas ablation-bound ablation-burst\n\
         \x20            ablation-clwb ablation-phased ablation-groups\n\
         \x20            kv-bench [--smoke] (YCSB grids; writes BENCH_kv.json\n\
         \x20                     unless --smoke)\n\
         \x20            tree-crash [--seeds N] (tree txn crash-point sweep;\n\
         \x20                       nonzero exit on a torn transaction)\n\
         \x20            crash-matrix (crash-point fuzz; nonzero exit on failure)\n\
         \x20            net-smoke [--connections N] [--depth D] [--ops N]\n\
         \x20                      (in-process wire-protocol sweep + crash audit)\n\
         \x20            kv-serve [--addr HOST:PORT] (TCP server; SIGINT/SIGTERM prints a summary)\n\
         \x20            kv-load  [--addr HOST:PORT] [--connections N] [--depth D]\n\
         \x20                     [--ops N] [--rate R] (open-loop TCP loadgen)\n\
         \x20            all | ablations"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn run_one(name: &str, scale: f64, threads: &[usize], smoke: bool) -> Vec<Table> {
    match name {
        "table1" => vec![tables::table1(scale)],
        "table2" => vec![tables::table2(scale)],
        "table3" => vec![tables::table3(scale)],
        "table4" => vec![tables::table4(scale, threads)],
        "fig2" => vec![figs::fig2(scale)],
        "fig4" => vec![figs::fig4(scale)],
        "fig5" => vec![figs::fig5(scale, threads)],
        "fig6" => vec![figs::fig6(scale, threads)],
        "fig7" => vec![figs::fig7(scale)],
        "fig8" => vec![figs::fig8(scale)],
        "ablation-knee" => vec![ablations::ablation_knee(scale)],
        "ablation-clwb" => vec![ablations::ablation_clwb(scale)],
        "ablation-phased" => vec![ablations::ablation_phased(scale)],
        "ablation-groups" => vec![ablations::ablation_groups(scale, 8)],
        "ablation-atlas" => vec![ablations::ablation_atlas(scale)],
        "ablation-bound" => vec![ablations::ablation_bound(scale)],
        "ablation-burst" => vec![ablations::ablation_burst(scale)],
        "all" => {
            let mut v = Vec::new();
            for e in [
                "table1", "table2", "table3", "table4", "fig2", "fig4", "fig5", "fig6", "fig7",
                "fig8",
            ] {
                v.extend(run_one(e, scale, threads, smoke));
            }
            v
        }
        "ablations" => {
            let mut v = Vec::new();
            for e in [
                "ablation-knee",
                "ablation-atlas",
                "ablation-bound",
                "ablation-burst",
                "ablation-clwb",
                "ablation-phased",
                "ablation-groups",
            ] {
                v.extend(run_one(e, scale, threads, smoke));
            }
            v
        }
        "kv-bench" => vec![kv::kv_bench(scale, smoke)],
        other => usage(&format!("unknown experiment {other}")),
    }
}

/// Crash-point fuzz matrix: every policy × every crash adversary ×
/// `seeds` deterministic programs, a crash injected at every micro-step
/// of each, recovery checked against the atomicity oracle. Returns the
/// per-cell table, the total schedule count, and whether all passed.
fn crash_matrix(seeds: u64) -> (Table, u64, bool) {
    let cfg = CrashFuzzConfig::default();
    let policies = [
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 4 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 16,
            ..Default::default()
        }),
        PolicyKind::Best,
    ];
    let mut t = Table::new(
        &format!(
            "Crash-point matrix: {} FASEs/program, {seeds} seeds, crash at every micro-step",
            cfg.fases
        ),
        &[
            "policy",
            "mode",
            "clients",
            "seeds",
            "schedules",
            "failures",
            "result",
        ],
    );
    let mut total = 0u64;
    let mut all_ok = true;
    for kind in &policies {
        for mode_name in ["strict", "all-in-flight", "random"] {
            // clients > 1 sweeps the concurrent submission path: each
            // FASE is a cross-client group commit (a smaller program,
            // since per-FASE step mass grows with the merge width).
            for clients in [1usize, 4] {
                let cell_cfg = if clients == 1 {
                    cfg.clone()
                } else {
                    CrashFuzzConfig {
                        fases: 3,
                        stores_per_fase: 4,
                        clients,
                        ..cfg.clone()
                    }
                };
                let mut schedules = 0u64;
                let mut failures = 0u64;
                for seed in 0..seeds {
                    let mode = match mode_name {
                        "strict" => CrashMode::StrictDurableOnly,
                        "all-in-flight" => CrashMode::AllInFlightLands,
                        _ => CrashMode::random(0.5, 0.5, seed),
                    };
                    let r = crash_fuzz(kind, &mode, seed, &cell_cfg);
                    schedules += r.schedules;
                    failures += r.failure_count;
                    if let Some(f) = r.failures.first() {
                        eprintln!(
                            "FAIL {} {mode_name} clients {clients} seed {seed} step {}: {}",
                            kind.label(),
                            f.step,
                            f.detail
                        );
                    }
                }
                total += schedules;
                all_ok &= failures == 0;
                t.row(vec![
                    kind.label().to_string(),
                    mode_name.to_string(),
                    clients.to_string(),
                    seeds.to_string(),
                    schedules.to_string(),
                    failures.to_string(),
                    if failures == 0 { "pass" } else { "FAIL" }.to_string(),
                ]);
            }
        }
    }
    (t, total, all_ok)
}

/// `repro tree-crash [--seeds N]` — the CI smoke form of
/// `tests/tree_crash.rs`: deterministic programs of committed CoW
/// transactions per seed, a crash injected at strided micro-steps under
/// all three adversaries on both flush paths, recovery via
/// `Tree::reopen_from_image`, and the committed-prefix oracle — the
/// recovered tree must equal the state after a whole number of
/// committed transactions. Every recovered image then goes a second
/// round (one-leaf retry commit, strict power failure, in-place
/// recovery, exact state), because a stale shadow page only shows at
/// the recovery *after* a retry. Returns the per-cell table, the total
/// recovery count, and whether all held.
fn tree_crash_matrix(seeds: u64) -> (Table, u64, bool) {
    use nvcache_pmem::CrashPlan;
    use nvcache_treestore::{Tree, TreeConfig};
    fn mix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Key universe of the programs.
    const KEYS: u64 = 32;
    // one txn = (key, Some(value-tag)) puts and (key, None) deletes
    type Txn = Vec<(u64, Option<u64>)>;
    fn program(seed: u64, txns: usize, keys: u64) -> Vec<Txn> {
        let mut s = seed;
        (0..txns)
            .map(|_| {
                let n = 3 + (mix64(&mut s) % 6) as usize;
                (0..n)
                    .map(|_| {
                        let r = mix64(&mut s);
                        let key = mix64(&mut s) % keys;
                        if r.is_multiple_of(5) {
                            (key, None)
                        } else {
                            (key, Some(mix64(&mut s)))
                        }
                    })
                    .collect()
            })
            .collect()
    }
    fn apply(t: &mut nvcache_treestore::Tree, txn: &Txn) {
        t.begin();
        for (key, tag) in txn {
            match tag {
                Some(tag) => {
                    let len = 8 + (tag % 40) as usize;
                    let v: Vec<u8> = (0..len).map(|i| (tag >> (8 * (i % 8))) as u8).collect();
                    t.put(*key, &v).expect("put within capacity");
                }
                None => {
                    t.delete(*key).expect("delete");
                }
            }
        }
        t.commit();
    }
    let cfg_for = |pipelined| TreeConfig {
        data_len: 1 << 21,
        log_len: 1 << 18,
        policy: PolicyKind::ScFixed { capacity: 8 },
        pipelined,
    };
    let dump = |t: &nvcache_treestore::Tree| t.scan(None, 0, u64::MAX, usize::MAX);
    let mut t = Table::new(
        &format!("Tree crash-point matrix: 12 txns/program, {seeds} seeds, strided micro-steps"),
        &["path", "mode", "seeds", "recoveries", "failures", "result"],
    );
    let mut total = 0u64;
    let mut all_ok = true;
    for pipelined in [false, true] {
        let cfg = cfg_for(pipelined);
        let path = if pipelined { "pipelined" } else { "sync" };
        for mode_name in ["strict", "all-in-flight", "random"] {
            let mut recoveries = 0u64;
            let mut failures = 0u64;
            for seed in 0..seeds {
                let prog = program(0xa11ce + seed, 12, KEYS);
                let mut rec_tree = Tree::create(&cfg).expect("format tree heap");
                let mut commit_steps = vec![rec_tree.steps()];
                let mut snaps = vec![dump(&rec_tree)];
                for txn in &prog {
                    apply(&mut rec_tree, txn);
                    commit_steps.push(rec_tree.steps());
                    snaps.push(dump(&rec_tree));
                }
                let setup = commit_steps[0];
                let total_steps = *commit_steps.last().unwrap();
                let stride = ((total_steps - setup) / 12).max(1);
                let mut k = setup + 1;
                while k < total_steps {
                    let mode = match mode_name {
                        "strict" => CrashMode::StrictDurableOnly,
                        "all-in-flight" => CrashMode::AllInFlightLands,
                        _ => CrashMode::random(0.5, 0.5, seed),
                    };
                    let mut tr = Tree::create(&cfg).expect("format tree heap");
                    tr.arm_crash(CrashPlan { at_step: k, mode });
                    for txn in &prog {
                        apply(&mut tr, txn);
                    }
                    let image = tr.take_crash_image().expect("crash step within program");
                    recoveries += 1;
                    match Tree::reopen_from_image(image, &cfg) {
                        Ok(mut rec) => {
                            let committed = commit_steps.iter().rposition(|&c| c <= k).unwrap();
                            let got = dump(&rec);
                            if !(got == snaps[committed] || Some(&got) == snaps.get(committed + 1))
                            {
                                failures += 1;
                                eprintln!(
                                    "FAIL {path} {mode_name} seed {seed} step {k}: \
                                     torn transaction (neither txn {committed}'s \
                                     state nor txn {}'s)",
                                    committed + 1
                                );
                            }
                            // round two: a one-leaf retry commits under
                            // the version the dead attempt used, then
                            // power fails again — a shadow header the
                            // first recovery left behind would win here
                            apply(&mut rec, &vec![(k % KEYS, Some(k))]);
                            let want = dump(&rec);
                            recoveries += 1;
                            match rec.crash_and_recover(&CrashMode::StrictDurableOnly) {
                                Ok(()) if dump(&rec) == want => {}
                                Ok(()) => {
                                    failures += 1;
                                    eprintln!(
                                        "FAIL {path} {mode_name} seed {seed} step {k}: \
                                         retry commit lost or mixed with the dead attempt"
                                    );
                                }
                                Err(e) => {
                                    failures += 1;
                                    eprintln!(
                                        "FAIL {path} {mode_name} seed {seed} step {k} \
                                         (second recovery): {e:?}"
                                    );
                                }
                            }
                        }
                        Err(e) => {
                            failures += 1;
                            eprintln!("FAIL {path} {mode_name} seed {seed} step {k}: {e:?}");
                        }
                    }
                    k += stride;
                }
            }
            total += recoveries;
            all_ok &= failures == 0;
            t.row(vec![
                path.to_string(),
                mode_name.to_string(),
                seeds.to_string(),
                recoveries.to_string(),
                failures.to_string(),
                if failures == 0 { "pass" } else { "FAIL" }.to_string(),
            ]);
        }
    }
    (t, total, all_ok)
}

/// Build the KV server the network subcommands share: SC-adaptive
/// policy, pipelined flush path, group commit on.
fn net_kv_server(shards: usize) -> std::sync::Arc<nvcache_kvstore::KvServer> {
    use nvcache_kvstore::{AdaptConfig, KvConfig, KvServer, ServerConfig, ShardConfig};
    std::sync::Arc::new(KvServer::new(
        &KvConfig {
            shards,
            shard: ShardConfig {
                buckets: 512,
                data_len: 1 << 21,
                log_len: 1 << 17,
                policy: PolicyKind::ScAdaptive(AdaptiveConfig {
                    external_control: true,
                    ..Default::default()
                }),
                adapt: Some(AdaptConfig::default()),
                pipelined: true,
            },
        },
        &ServerConfig::default(),
    ))
}

/// Which lane path served how much: caller-run batches (a submitter
/// found the lane idle) vs batches drained from the lane queues, with
/// the mean occupancy of each.
fn lane_paths(qs: &nvcache_kvstore::QueueStats) -> String {
    format!(
        "{} caller-run batches (mean {:.2} req) + {} queued batches (mean {:.2} req), {} rejected",
        qs.inline_batches,
        qs.inline_occupancy_mean(),
        qs.queued_batches(),
        qs.queued_occupancy_mean(),
        qs.rejected,
    )
}

/// `repro net-smoke [--connections N] [--depth D] [--ops N]` — the CI
/// acceptance sweep for the network serving path: an in-process
/// transport, an open-loop pipelined loadgen with ack tracking, then a
/// crash + recover and the ack-after-commit audit. Exits nonzero if any
/// acked write is missing, stale, or corrupt after recovery.
fn net_smoke(rest: Vec<String>) -> ! {
    use nvcache_kvstore::{run_net, verify_acked, InProcTransport, NetLoadConfig, NetServer};
    let (mut connections, mut depth, mut ops) = (8usize, 4usize, 2_000u64);
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| usage(&format!("missing or bad value for {name}")))
        };
        match a.as_str() {
            "--connections" => connections = num("--connections") as usize,
            "--depth" => depth = num("--depth") as usize,
            "--ops" => ops = num("--ops"),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    let kv = net_kv_server(2);
    let transport = InProcTransport::new();
    let srv = NetServer::start(&transport, "inproc", std::sync::Arc::clone(&kv))
        .expect("in-process listener");
    let rep = run_net(
        &transport,
        "inproc",
        &NetLoadConfig {
            connections,
            pipeline_depth: depth,
            ops_per_conn: ops,
            keys: 512,
            track_acks: true,
            target_ops_per_sec: 100_000.0,
            ..Default::default()
        },
    );
    let frames_in = srv
        .stats()
        .frames_in
        .load(std::sync::atomic::Ordering::Relaxed);
    srv.shutdown();
    let lanes = lane_paths(&kv.queue_stats());
    let answered_all = rep.ops_answered == rep.ops_sent;
    // the audit only means something after the server actually died:
    // drop every non-durable line, recover, then check the acks
    kv.crash_and_recover_all(&CrashMode::StrictDurableOnly);
    let audit = verify_acked(&kv, &rep);
    kv.close();
    let snap = &rep.snapshot;
    let mut merged = nvcache_telemetry::Histogram::new();
    merged.merge(snap.hist(nvcache_telemetry::HistId::KvGetNs));
    merged.merge(snap.hist(nvcache_telemetry::HistId::KvPutNs));
    let (p50, p99, p999) = merged.percentiles();
    eprintln!(
        "[net-smoke: {connections} conns x depth {depth}, {}/{} answered, \
         {} frames in, {:.0} ops/s, p50/p99/p999 {p50}/{p99}/{p999} ns]",
        rep.ops_answered,
        rep.ops_sent,
        frames_in,
        rep.ops_per_sec(),
    );
    eprintln!("[net-smoke: lanes served {lanes}]");
    match (&audit, answered_all) {
        (Ok(()), true) => {
            eprintln!("[net-smoke: every acked write survived crash + recover]");
            std::process::exit(0);
        }
        (Ok(()), false) => {
            eprintln!(
                "error: {} requests went unanswered",
                rep.ops_sent - rep.ops_answered
            );
            std::process::exit(1);
        }
        (Err(e), _) => {
            eprintln!("error: ack-after-commit violated: {e}");
            std::process::exit(1);
        }
    }
}

/// Set by SIGINT/SIGTERM so `kv-serve` can shut down and print its
/// summary instead of dying mid-line.
static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn stop_on_signals() {
    extern "C" fn on_signal(_: i32) {
        STOP.store(true, std::sync::atomic::Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is libc's (std links it); the handler only
    // stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn stop_on_signals() {}

/// `repro kv-serve [--addr HOST:PORT]` — serve the framed wire protocol
/// over TCP until interrupted (SIGINT/SIGTERM), then shut down and
/// print which lane path served how much. Address precedence: `--addr`
/// > `NVKV_ADDR` > `NVKV_PORT` > the built-in default.
fn kv_serve(rest: Vec<String>) -> ! {
    use nvcache_kvstore::{listen_addr, NetServer, TcpTransport};
    let mut addr_cli: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr_cli = Some(it.next().unwrap_or_else(|| usage("missing --addr"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    let addr = listen_addr(addr_cli.as_deref());
    let kv = net_kv_server(4);
    let transport = TcpTransport;
    let srv = NetServer::start(&transport, &addr, std::sync::Arc::clone(&kv)).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {addr}: {e}");
        std::process::exit(2);
    });
    stop_on_signals();
    eprintln!(
        "[kv-serve: listening on {} — interrupt to stop]",
        srv.local_addr()
    );
    while !STOP.load(std::sync::atomic::Ordering::Acquire) {
        std::thread::park_timeout(std::time::Duration::from_millis(200));
    }
    let net = srv.stats();
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    let (conns, frames_in, frames_out, proto_errors) = (
        net.connections.load(relaxed),
        net.frames_in.load(relaxed),
        net.frames_out.load(relaxed),
        net.proto_errors.load(relaxed),
    );
    srv.shutdown();
    kv.close();
    eprintln!(
        "[kv-serve: {conns} connections, {frames_in} frames in, {frames_out} out, \
         {proto_errors} protocol errors]"
    );
    eprintln!("[kv-serve: lanes served {}]", lane_paths(&kv.queue_stats()));
    std::process::exit(0);
}

/// `repro kv-load [--addr HOST:PORT] [--connections N] [--depth D]
/// [--ops N] [--rate R]` — open-loop TCP loadgen against a running
/// `kv-serve`, reporting throughput and intended-arrival percentiles.
fn kv_load(rest: Vec<String>) -> ! {
    use nvcache_kvstore::{listen_addr, run_net, NetLoadConfig, TcpTransport};
    let mut addr_cli: Option<String> = None;
    let (mut connections, mut depth, mut ops) = (8usize, 4usize, 10_000u64);
    let mut rate = 50_000.0f64;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr_cli = Some(it.next().unwrap_or_else(|| usage("missing --addr"))),
            "--connections" | "--depth" | "--ops" | "--rate" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage(&format!("missing value for {a}")));
                match a.as_str() {
                    "--connections" => {
                        connections = v.parse().unwrap_or_else(|_| usage("bad --connections"))
                    }
                    "--depth" => depth = v.parse().unwrap_or_else(|_| usage("bad --depth")),
                    "--ops" => ops = v.parse().unwrap_or_else(|_| usage("bad --ops")),
                    _ => rate = v.parse().unwrap_or_else(|_| usage("bad --rate")),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    let addr = listen_addr(addr_cli.as_deref());
    let rep = run_net(
        &TcpTransport,
        &addr,
        &NetLoadConfig {
            connections,
            pipeline_depth: depth,
            ops_per_conn: ops,
            target_ops_per_sec: rate,
            ..Default::default()
        },
    );
    let mut merged = nvcache_telemetry::Histogram::new();
    merged.merge(rep.snapshot.hist(nvcache_telemetry::HistId::KvGetNs));
    merged.merge(rep.snapshot.hist(nvcache_telemetry::HistId::KvPutNs));
    let (p50, p99, p999) = merged.percentiles();
    println!(
        "{{\"connections\": {connections}, \"pipeline_depth\": {depth}, \
         \"ops_sent\": {}, \"ops_answered\": {}, \"rejected\": {}, \
         \"throughput_ops_s\": {:.0}, \
         \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"p999_ns\": {p999}}}",
        rep.ops_sent,
        rep.ops_answered,
        rep.rejected,
        rep.ops_per_sec(),
    );
    std::process::exit(if rep.ops_answered == rep.ops_sent {
        0
    } else {
        1
    });
}

fn main() {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("net-smoke") => net_smoke(argv.collect()),
        Some("kv-serve") => kv_serve(argv.collect()),
        Some("kv-load") => kv_load(argv.collect()),
        _ => {}
    }
    let args = parse_args();
    if args.experiment == "crash-matrix" {
        let start = std::time::Instant::now();
        let (t, schedules, ok) = crash_matrix(args.seeds);
        if args.json {
            println!("{}", t.to_json());
        } else {
            t.print();
        }
        eprintln!(
            "[crash-matrix: {schedules} schedules, {} in {:.1}s]",
            if ok {
                "all consistent"
            } else {
                "ORACLE VIOLATED"
            },
            start.elapsed().as_secs_f64()
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.experiment == "tree-crash" {
        let start = std::time::Instant::now();
        let (t, recoveries, ok) = tree_crash_matrix(args.seeds);
        if args.json {
            println!("{}", t.to_json());
        } else {
            t.print();
        }
        eprintln!(
            "[tree-crash: {recoveries} recoveries, {} in {:.1}s]",
            if ok {
                "all committed-prefix"
            } else {
                "ORACLE VIOLATED"
            },
            start.elapsed().as_secs_f64()
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.telemetry.is_some() {
        telemetry::enable();
    }
    let start = std::time::Instant::now();
    let results = run_one(&args.experiment, args.scale, &args.threads, args.smoke);
    for t in &results {
        if args.json {
            println!("{}", t.to_json());
        } else {
            t.print();
        }
    }
    if let Some(path) = &args.telemetry {
        let runs = telemetry::drain();
        if runs.is_empty() {
            eprintln!(
                "warning: --telemetry captured no runs \
                 ({} performs no timed replays)",
                args.experiment
            );
        }
        let t = telemetry_table(&runs);
        if args.json {
            println!("{}", t.to_json());
        } else {
            t.print();
        }
        let envelope = telemetry_envelope(&args.experiment, args.scale, &runs);
        match std::fs::write(path, &envelope) {
            Ok(()) => eprintln!("[telemetry: {} runs -> {path}]", runs.len()),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    eprintln!(
        "[{} at scale {} in {:.1}s]",
        args.experiment,
        args.scale,
        start.elapsed().as_secs_f64()
    );
}
