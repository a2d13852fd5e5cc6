//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale S] [--threads a,b,c] [--json | --markdown]
//!                    [--telemetry FILE]
//!
//! experiments: table1 table2 table3 table4
//!              fig2 fig4 fig5 fig6 fig7 fig8
//!              ablation-knee ablation-atlas ablation-bound ablation-burst
//!              ablation-clwb ablation-phased ablation-groups
//!              kv-bench     (YCSB grids over the sharded KV store
//!                            → BENCH_kv.json; --smoke for CI sizes,
//!                            checks only, no file)
//!              all          (tables + figures)
//!              ablations    (all seven ablations)
//! ```
//!
//! `repro` measures; it judges nothing. Comparing two commits is the
//! repo benchmark's job (`benchmark/`, `BENCHMARK.json`), and crash
//! consistency is the test suites' (`tests/crash_fuzz.rs`,
//! `tests/engine_crash.rs`, `crates/kvstore/tests/net_e2e.rs` —
//! DESIGN.md §6.2, §9–§11).
//!
//! `repro kv-serve` / `repro kv-load` drive the network serving path
//! over real TCP: a server that runs until killed and an open-loop
//! loadgen printing one JSON summary line.
//!
//! `--scale` is the fraction of the paper's problem sizes (default
//! 0.05); absolute numbers shrink with it but orderings and ratios are
//! scale-stable (EXPERIMENTS.md's introduction). Use `--scale 1.0` for paper sizes
//! (minutes, not seconds).
//!
//! `--markdown` prints each table as a GitHub markdown table, the form
//! EXPERIMENTS.md quotes: each of its paper and ablation sections holds
//! `repro <name> --markdown` verbatim, and
//! `crates/bench/tests/experiments_doc.rs` checks every block.
//!
//! `--telemetry FILE` additionally instruments every timed replay the
//! experiment performs (counters, histograms, FASE/flush timeline),
//! prints a summary table and writes the full per-run snapshots to
//! FILE as JSON. Simulated results are identical with or without it.

use nvcache_bench::experiments::{self, kv, DEFAULT_SCALE, THREAD_SWEEP};
use nvcache_bench::report::{telemetry_envelope, telemetry_table};
use nvcache_bench::telemetry;
use nvcache_core::{AdaptiveConfig, PolicyKind};

struct Args {
    experiment: String,
    scale: f64,
    threads: Vec<usize>,
    json: bool,
    markdown: bool,
    telemetry: Option<String>,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: DEFAULT_SCALE,
        threads: THREAD_SWEEP.to_vec(),
        json: false,
        markdown: false,
        telemetry: None,
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
            "--markdown" => args.markdown = true,
            "--smoke" => args.smoke = true,
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
    if args.json && args.markdown {
        usage("--json and --markdown exclude each other");
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro <experiment> [--scale S] [--threads a,b,c] [--json | --markdown]\n\
         \x20                         [--telemetry FILE]\n\
         experiments: {}\n\
         \x20            {}\n\
         \x20            kv-bench [--smoke] (YCSB grids; writes BENCH_kv.json\n\
         \x20                     unless --smoke)\n\
         \x20            kv-serve [--addr HOST:PORT] (TCP server; SIGINT/SIGTERM prints a summary)\n\
         \x20            kv-load  [--addr HOST:PORT] [--connections N] [--depth D]\n\
         \x20                     [--ops N] [--rate R] (open-loop TCP loadgen)\n\
         \x20            all | ablations",
        experiments::PAPER.join(" "),
        experiments::ABLATIONS.join(" "),
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Build the KV server `kv-serve` runs: SC-adaptive policy, group
/// commit on.
fn net_kv_server(shards: usize) -> std::sync::Arc<nvcache_kvstore::KvServer> {
    use nvcache_kvstore::{KvConfig, KvServer, ServerConfig, ShardConfig};
    std::sync::Arc::new(KvServer::new(
        &KvConfig {
            shards,
            shard: ShardConfig {
                buckets: 512,
                data_len: 1 << 21,
                policy: PolicyKind::ScAdaptive(AdaptiveConfig {
                    burst_len: 4096,
                    ..Default::default()
                }),
                adapt: None,
                pipelined: true,
                ..ShardConfig::default()
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
        Some("kv-serve") => kv_serve(argv.collect()),
        Some("kv-load") => kv_load(argv.collect()),
        _ => {}
    }
    let args = parse_args();
    if args.telemetry.is_some() {
        telemetry::enable();
    }
    let start = std::time::Instant::now();
    let results = match args.experiment.as_str() {
        "kv-bench" => vec![kv::kv_bench(args.scale, args.smoke)],
        name => experiments::run(name, args.scale, &args.threads)
            .unwrap_or_else(|| usage(&format!("unknown experiment {name}"))),
    };
    for t in &results {
        if args.json {
            println!("{}", t.to_json());
        } else if args.markdown {
            println!("{}", t.to_markdown());
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
