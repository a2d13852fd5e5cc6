//! `repro kv-bench` — YCSB mixes over the sharded persistent KV store
//! (the serving-layer experiment): closed-loop workers against 4+
//! shards, each shard one FASE runtime behind ER / AT / live-adaptive
//! SC, writes issued in group-commit batches. Reports wall-clock
//! throughput, the serving-phase flush ratio, and — for SC — the
//! capacity each shard's adaptive policy chose, alongside the knee an
//! *offline* exact-Mattson analysis of the store-line window that
//! policy analysed would have picked. A full-size run writes `BENCH_kv.json`; a
//! `--smoke` run only checks what must hold on any host and exits
//! non-zero (panics) when it does not.

use std::sync::Arc;

use crate::netload::{run_net, NetLoadConfig};
use crate::report::{json_str, Table};
use crate::ycsb::{load, run, Mix, YcsbConfig};
use nvcache_core::{AdaptiveConfig, PolicyKind};
use nvcache_fase::FaseStats;
use nvcache_kvstore::{
    InProcTransport, KvConfig, KvServer, KvStore, NetServer, QueueStats, ServerConfig, ShardConfig,
};
use nvcache_locality::{lru_mrc, select_cache_size, KneeConfig};
use nvcache_telemetry::{
    convergence, CapacityEvent, ConvergenceConfig, HistId, Histogram, TelemetrySnapshot,
};

/// Shards in the grid (acceptance floor: ≥ 4).
const SHARDS: usize = 4;
/// Values stay inside one 64-byte node class → one line per update.
const VALUE_LEN: usize = 40;
/// Writes per group-commit batch (what gives FASEs intra-FASE reuse).
const BATCH: usize = 128;

fn config_for(policy_label: &str, burst: usize) -> KvConfig {
    let policy = match policy_label {
        "ER" => PolicyKind::Eager,
        "AT" => PolicyKind::Atlas { size: 8 },
        "SC" => PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: burst,
            ..Default::default()
        }),
        other => unreachable!("unknown policy label {other}"),
    };
    KvConfig {
        shards: SHARDS,
        shard: ShardConfig {
            // the layout's per-shard maximum: keeps hash chains short so
            // the measurement exercises the persistence path, not
            // linked-list traversal
            buckets: 512,
            data_len: 1 << 21,
            policy,
            adapt: None,
            pipelined: true,
            ..ShardConfig::default()
        },
    }
}

fn store_for(policy_label: &str, burst: usize) -> KvStore {
    KvStore::new(&config_for(policy_label, burst))
}

/// One timed run; the one a row reports is the median by throughput of
/// the row's repeats ([`median_run`]).
struct Run {
    throughput: f64,
    /// `[q1, q3]` of throughput over the repeats this run is the median
    /// of (itself, until `median_run` says otherwise).
    quartiles: [f64; 2],
    serving: FaseStats,
    /// Merged op-latency percentiles (ns).
    p50: u64,
    p99: u64,
    p999: u64,
    /// Mean requests per served batch, caller-run batches of 1 included
    /// (concurrent and network grids).
    occupancy: Option<f64>,
    /// Per-shard adaptive-policy outcomes (first grid, SC only; all
    /// `None` otherwise): chosen capacity, its online knee, the offline
    /// exact-Mattson knee over the same analysed window, and
    /// windows-to-knee from the decision stream.
    caps: Vec<Option<usize>>,
    online: Vec<Option<usize>>,
    offline: Vec<Option<usize>>,
    wtk: Vec<Option<usize>>,
}

impl Run {
    /// Percentiles are merged over every op span kind a load generator
    /// records (get + put + batched put_many).
    fn new(throughput: f64, serving: FaseStats, lat: &TelemetrySnapshot) -> Run {
        let mut merged = Histogram::new();
        for id in [HistId::KvGetNs, HistId::KvPutNs, HistId::KvPutManyNs] {
            merged.merge(lat.hist(id));
        }
        let (p50, p99, p999) = merged.percentiles();
        Run {
            throughput,
            quartiles: [throughput; 2],
            serving,
            p50,
            p99,
            p999,
            occupancy: None,
            caps: vec![None; SHARDS],
            online: vec![None; SHARDS],
            offline: vec![None; SHARDS],
            wtk: vec![None; SHARDS],
        }
    }
}

/// The median run by throughput (the lower middle of an even count),
/// carrying the quartiles of all the runs' throughputs. Host noise —
/// preemption, frequency shifts — moves single repeats by tens of
/// percent, so a row is a run from the middle, shown with its spread.
fn median_run(mut runs: Vec<Run>) -> Run {
    assert!(!runs.is_empty(), "at least one repeat");
    runs.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
    let at = |quarter: usize| (runs.len() - 1) * quarter / 4;
    let quartiles = [runs[at(1)].throughput, runs[at(3)].throughput];
    let mut median = runs.swap_remove(at(2));
    median.quartiles = quartiles;
    median
}

/// Mean requests per batch served between two queue snapshots.
fn occupancy_between(before: &QueueStats, after: &QueueStats) -> f64 {
    match after.batches - before.batches {
        0 => 0.0,
        batches => (after.drained - before.drained) as f64 / batches as f64,
    }
}

/// Per-shard outcomes as one cell, `absent` standing in for a shard
/// without one; `None` when no shard has any.
fn per_shard(v: &[Option<usize>], absent: &str, sep: &str) -> Option<String> {
    v.iter().any(Option::is_some).then(|| {
        let cells: Vec<String> = v
            .iter()
            .map(|x| x.map_or(absent.to_string(), |n| n.to_string()))
            .collect();
        cells.join(sep)
    })
}

/// One row of `BENCH_kv.json` and of the printed table: what identifies
/// it, what its ratios are anchored to, and the run it reports.
struct Row<'a> {
    mix: &'a str,
    policy: &'a str,
    /// The `flush_path` column: "direct", "mpsc-unbatched" /
    /// "mpsc-grouped", or "net".
    path: &'a str,
    clients: usize,
    /// (connections, pipeline depth) — the network grid's axes.
    net: Option<(usize, usize)>,
    speedup_vs_unbatched: Option<f64>,
    run: &'a Run,
}

impl Row<'_> {
    /// What every row must satisfy, whatever the host: nonzero, ordered
    /// latency percentiles.
    fn check(&self) {
        let r = self.run;
        assert!(
            0 < r.p50 && r.p50 <= r.p99 && r.p99 <= r.p999,
            "{}/{}/{}: latency percentiles out of order: {}/{}/{}",
            self.mix,
            self.policy,
            self.path,
            r.p50,
            r.p99,
            r.p999
        );
    }

    fn table_cells(&self) -> Vec<String> {
        let r = self.run;
        let ratio = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
        let shards = |v| per_shard(v, "-", "/").unwrap_or("-".to_string());
        vec![
            self.mix.to_string(),
            self.policy.to_string(),
            match self.net {
                Some((conns, depth)) => format!("net c{conns} d{depth}"),
                None => self.path.to_string(),
            },
            self.clients.to_string(),
            format!(
                "{:.0} [{:.0}, {:.0}]",
                r.throughput / 1e3,
                r.quartiles[0] / 1e3,
                r.quartiles[1] / 1e3
            ),
            ratio(self.speedup_vs_unbatched),
            r.occupancy.map_or("-".to_string(), |o| format!("{o:.1}")),
            format!("{:.4}", r.serving.flush_ratio()),
            format!("{}/{}/{}", r.p50, r.p99, r.p999),
            shards(&r.caps),
            shards(&r.online),
            shards(&r.offline),
            shards(&r.wtk),
        ]
    }

    fn json(&self) -> String {
        let r = self.run;
        let num = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
        let int = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        let shards =
            |v| per_shard(v, "null", ", ").map_or("null".to_string(), |s| format!("[{s}]"));
        format!(
            "    {{\"mix\": {}, \"policy\": {}, \"flush_path\": {}, \
             \"clients\": {}, \
             \"connections\": {}, \"pipeline_depth\": {}, \
             \"throughput_ops_s\": {:.0}, \
             \"speedup_vs_unbatched\": {}, \"batch_occupancy_mean\": {}, \
             \"flush_ratio\": {:.6}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"store_lines\": {}, \"data_flushes\": {}, \
             \"chosen_capacity\": {}, \"online_knee\": {}, \"offline_knee\": {}, \
             \"windows_to_knee\": {}}}",
            json_str(self.mix),
            json_str(self.policy),
            json_str(self.path),
            self.clients,
            int(self.net.map(|n| n.0)),
            int(self.net.map(|n| n.1)),
            r.throughput,
            num(self.speedup_vs_unbatched),
            num(r.occupancy),
            r.serving.flush_ratio(),
            r.p50,
            r.p99,
            r.p999,
            r.serving.store_lines,
            r.serving.data_flushes,
            shards(&r.caps),
            shards(&r.online),
            shards(&r.offline),
            shards(&r.wtk),
        )
    }
}

/// The `BENCH_kv.json` file around its row records.
fn envelope(workers: usize, keys: usize, ops: u64, records: &[String]) -> String {
    format!(
        "{{\n  \"experiment\": \"kv_ycsb\",\n  \"shards\": {SHARDS},\n  \
         \"workers\": {workers},\n  \"keys\": {keys},\n  \"ops\": {ops},\n  \
         \"value_len\": {VALUE_LEN},\n  \"batch\": {BATCH},\n  \
         \"zipfian_theta\": 0.99,\n  \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    )
}

/// Run the YCSB grid (mixes A/B/C × ER/AT/SC-adaptive at `SHARDS`
/// shards, one `direct` row per cell: workers call the embedded
/// [`KvStore`], running a shard on their own thread when its lane is
/// idle), print the table, and write `BENCH_kv.json`.
///
/// A second, *concurrent* grid (mixes A/B, 8 closed-loop clients on
/// one contended lane) drives a [`KvServer`] — each lane served by the
/// client that finds it idle, or else by the first queued client to get
/// the lane's lock — once with group commit off (`mpsc-unbatched`,
/// `max_batch = 1`: one request per FASE) and once with everything
/// queued behind a busy lane drained into a single cross-client FASE
/// (`mpsc-grouped`); `speedup_vs_unbatched` and the mean batch
/// occupancy (caller-run batches included) land in the same JSON.
///
/// A third, *network* grid drives the same single-lane grouped server
/// through [`NetServer`] and the framed wire protocol over the
/// in-process transport: connections × pipeline-depth cells
/// ({1,8} × {1,4}), each an open-window loadgen against a server whose
/// one thread per connection serves idle lanes itself and queues on
/// busy ones, and whose acks return by id after commit. Rows carry
/// `connections`/`pipeline_depth`
/// (null on the other grids' rows). `smoke` shrinks the sizes to CI
/// scale (same grids, same checks) and writes no file.
///
/// Every row is the median run by throughput of a fixed number of
/// repeats (the concurrent grid interleaves its two rows' repeats); the
/// table shows the repeats' `[q1, q3]` next to it (`throughput_ops_s`
/// in the JSON is the median).
///
/// # Panics
/// When a row breaks what must hold on any host: ordered nonzero
/// latency percentiles, an adaptive shard on smoke-size mix A and none
/// under ER/AT, `max_batch = 1` occupancy of exactly 1, net c8×d4
/// occupancy above 1, every net request answered.
pub fn kv_bench(scale: f64, smoke: bool) -> Table {
    // Oversubscribing the host measures scheduler churn, not the
    // store: cap the worker pool at the hardware's parallelism (a
    // single-core box runs one worker per shard group, a 4-core box
    // the full 4).
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (keys, ops_per_worker, workers, burst) = if smoke {
        (400, 4_000, 2.min(host), 512)
    } else {
        (
            ((40_000.0 * scale) as usize).max(1_000),
            ((250_000.0 * scale) as usize).max(4_000),
            4.min(host),
            4_096,
        )
    };
    // Wall-clock repeats per row, interleaved across the rows they are
    // compared with; the median run is reported, with [q1, q3].
    let repeats = if smoke { 1 } else { 5 };
    let mut t = Table::new(
        &format!(
            "KV serving: YCSB A/B/C, {SHARDS} shards, {workers} workers, \
             {keys} keys, batch {BATCH}"
        ),
        &[
            "mix",
            "policy",
            "path",
            "clients",
            "Kops/s [q1, q3]",
            "x unbatch",
            "occ",
            "flush ratio",
            "p50/p99/p999 ns",
            "capacity/shard",
            "online knee",
            "offline knee",
            "wins-to-knee",
        ],
    );
    let mut records = Vec::new();
    let mut emit = |row: Row| {
        row.check();
        t.row(row.table_cells());
        records.push(row.json());
    };
    // what every YCSB run of the grids shares; closed loop, 4 windows
    let ycsb = YcsbConfig {
        keys,
        theta: 0.99,
        value_len: VALUE_LEN,
        seed: 42,
        windows: 4,
        ..Default::default()
    };
    let knee_cfg = KneeConfig::default();
    let mut total_ops = 0u64;
    for mix in [Mix::A, Mix::B, Mix::C] {
        for policy in ["ER", "AT", "SC"] {
            let cell = format!("{}/{policy}", mix.label());
            let mut repeated = Vec::new();
            for _ in 0..repeats {
                let store = store_for(policy, burst);
                load(&store, keys, VALUE_LEN);
                let cfg = YcsbConfig {
                    mix,
                    ops_per_worker,
                    workers,
                    batch: BATCH,
                    ..ycsb.clone()
                };
                let rep = run(&store, &cfg);
                total_ops = rep.ops;
                let mut this = Run::new(
                    rep.throughput_ops_per_sec,
                    rep.windows.iter().map(|w| w.stats).sum(),
                    &rep.latency,
                );
                // adaptive-policy outcomes (SC only), gathered while the
                // store is still alive
                if policy == "SC" {
                    for s in 0..SHARDS {
                        store.with_shard(s, |sh| {
                            if let Some(c) = sh.chosen().first() {
                                this.caps[s] = Some(c.capacity);
                                this.online[s] = Some(c.knee);
                            }
                            // convergence over the shard's full decision
                            // stream: how many MRC windows until the
                            // policy landed on (and kept) the knee
                            let evs: Vec<CapacityEvent> = sh
                                .chosen()
                                .iter()
                                .map(|c| CapacityEvent {
                                    t: c.fase,
                                    knee: c.knee as u64,
                                    capacity: c.capacity as u64,
                                })
                                .collect();
                            this.wtk[s] = convergence::analyze(&evs, &ConvergenceConfig::default())
                                .windows_to_knee;
                            if let Some(w) = sh.stream().and_then(|st| st.get(..burst)) {
                                this.offline[s] = Some(select_cache_size(
                                    &lru_mrc(w, knee_cfg.max_size),
                                    &knee_cfg,
                                ));
                            }
                        });
                    }
                }
                repeated.push(this);
            }
            let r = median_run(repeated);
            if policy != "SC" {
                assert!(
                    r.caps.iter().chain(&r.wtk).all(Option::is_none),
                    "{cell}: a fixed policy reports controller decisions"
                );
            } else if smoke && mix == Mix::A {
                // smoke sizes are fixed: load + the write-heavy mix fill
                // the first 512-line MRC window of the busier shards, so
                // some shard's policy must have chosen a capacity and
                // settled on its knee
                assert!(
                    r.wtk.iter().any(|w| w.is_some_and(|w| w >= 1)),
                    "{cell}: no shard adapted: capacities {:?}, windows to knee {:?}",
                    r.caps,
                    r.wtk
                );
            }
            emit(Row {
                mix: mix.label(),
                policy,
                path: "direct",
                clients: workers,
                net: None,
                speedup_vs_unbatched: None,
                run: &r,
            });
        }
    }

    // ---- concurrent shard runtime: MPSC submission + group commit ----
    //
    // N closed-loop clients submit single-op requests (batch = 1, so the
    // loadgen does no client-side write combining) to one lane. A client
    // that finds the lane idle serves its request itself; the ones that
    // collide with it queue and line up on the lane's lock, and the
    // first of them to get it serves the queue: one request per FASE
    // ("mpsc-unbatched", max_batch = 1 — the no-group-commit baseline)
    // or everything in flight as one cross-client FASE
    // ("mpsc-grouped"). Same server, same lane; the variable is
    // `max_batch`. `speedup_vs_unbatched` is not the price
    // of the saved FASEs alone: a grouped drain empties the queue, which
    // puts the lane back on the caller-runs path, while an unbatched
    // lane with a backlog works it off one request per lock hold. The
    // column measures both; `batch_occupancy_mean` (caller-run batches
    // of 1 included) says how much merging there was — measured, never
    // asserted: how often eight clients collide is the host's business.
    let clients = 8usize;
    // One lane: group commit needs requests *piling up* behind a busy
    // lane, so the contended regime is clients ≥ lanes. (The legacy
    // grid above measures shard-parallel scaling; this grid measures
    // per-lane batching.)
    let lane_cfg = KvConfig {
        shards: 1,
        ..config_for("SC", burst)
    };
    // Long enough per run (~0.3 s at single-core throughput) that a
    // scheduler burst can't swallow a whole repeat — the queue handoff
    // makes these runs an order of magnitude slower per op than the
    // direct grid, so they need fewer ops, not more.
    let conc_ops = if smoke {
        2_000
    } else {
        ops_per_worker.max(10_000)
    };
    for mix in [Mix::A, Mix::B] {
        let mut repeated: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..repeats {
            for (runs, max_batch) in repeated.iter_mut().zip([1, usize::MAX]) {
                let server = KvServer::new(
                    &lane_cfg,
                    &ServerConfig {
                        max_batch,
                        ..Default::default()
                    },
                );
                load(&server, keys, VALUE_LEN);
                // queue counters accumulate from birth; snapshot after
                // the load phase so occupancy reflects the measurement
                let qs0 = server.queue_stats();
                let cfg = YcsbConfig {
                    mix,
                    ops_per_worker: conc_ops,
                    workers: clients,
                    batch: 1,
                    ..ycsb.clone()
                };
                let rep = run(&server, &cfg);
                let mut this = Run::new(
                    rep.throughput_ops_per_sec,
                    rep.windows.iter().map(|w| w.stats).sum(),
                    &rep.latency,
                );
                this.occupancy = Some(occupancy_between(&qs0, &server.queue_stats()));
                runs.push(this);
            }
        }
        let runs = repeated.map(median_run);
        assert_eq!(
            runs[0].occupancy,
            Some(1.0),
            "{}: max_batch = 1 served a batch of more than one request",
            mix.label()
        );
        for (r, path) in runs.iter().zip(["mpsc-unbatched", "mpsc-grouped"]) {
            emit(Row {
                mix: mix.label(),
                policy: "SC",
                path,
                clients,
                net: None,
                speedup_vs_unbatched: Some(r.throughput / runs[0].throughput),
                run: r,
            });
        }
    }
    // ---- network serving: framed wire protocol over the MPSC runtime ----
    //
    // The same single-lane grouped server, now behind the in-process
    // transport and the length-prefixed frame protocol: N loadgen
    // connections pipeline requests up to `depth` in flight, each
    // connection's thread serves the lane when it is idle and feeds
    // the submission queue (and waits) when it is not, and responses
    // are acked by id after the owning FASE commits. The grid
    // varies connections × pipeline depth; with both at their high
    // setting a connection groups the frames of one read into one batch
    // (occupancy ≈ depth), so batch occupancy > 1 there is structural —
    // the acceptance signal that pipelining reaches group commit rather
    // than serializing at the socket.
    for (conns, depth) in [(1usize, 1usize), (1, 4), (8, 1), (8, 4)] {
        let mut repeated: Vec<Run> = Vec::new();
        for _ in 0..repeats {
            let server = Arc::new(KvServer::new(&lane_cfg, &ServerConfig::default()));
            load(server.as_ref(), keys, VALUE_LEN);
            server.take_stats(); // isolate the serving phase
            let qs0 = server.queue_stats();
            let transport = InProcTransport::new();
            let net = NetServer::start(&transport, "inproc", Arc::clone(&server))
                .expect("in-process listener");
            let rep = run_net(
                &transport,
                "inproc",
                &NetLoadConfig {
                    connections: conns,
                    pipeline_depth: depth,
                    ops_per_conn: conc_ops as u64,
                    keys: keys as u64,
                    mix: Mix::A,
                    theta: 0.99,
                    value_len: VALUE_LEN,
                    seed: 42,
                    target_ops_per_sec: 0.0, // closed by the window only
                    track_acks: false,
                },
            );
            assert_eq!(rep.ops_answered, rep.ops_sent, "every request answered");
            net.shutdown();
            let mut this = Run::new(rep.ops_per_sec(), server.stats(), &rep.snapshot);
            this.occupancy = Some(occupancy_between(&qs0, &server.queue_stats()));
            server.close();
            repeated.push(this);
        }
        let r = median_run(repeated);
        assert!(
            (conns, depth) != (8, 4) || r.occupancy > Some(1.0),
            "net c{conns} d{depth}: pipelined connections never reached group commit"
        );
        emit(Row {
            mix: "A",
            policy: "SC",
            path: "net",
            clients: conns,
            net: Some((conns, depth)),
            speedup_vs_unbatched: None,
            run: &r,
        });
    }
    // smoke sizes are for the checks above, not for publication
    if !smoke {
        let json = envelope(workers, keys, total_ops, &records);
        if let Err(e) = std::fs::write("BENCH_kv.json", &json) {
            eprintln!("warning: could not write BENCH_kv.json: {e}");
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::{parse, Json};

    const ROW_KEYS: &str = "mix policy flush_path clients connections pipeline_depth \
        throughput_ops_s speedup_vs_unbatched batch_occupancy_mean flush_ratio \
        p50_ns p99_ns p999_ns store_lines data_flushes \
        chosen_capacity online_knee offline_knee windows_to_knee";

    fn a_run(occupancy: Option<f64>) -> Run {
        let no_latency = TelemetrySnapshot::from_threads(vec![]);
        let mut r = Run::new(123_456.4, FaseStats::default(), &no_latency);
        (r.p50, r.p99, r.p999, r.occupancy) = (100, 900, 9_000, occupancy);
        r
    }

    fn row<'a>(path: &'a str, net: Option<(usize, usize)>, run: &'a Run) -> Row<'a> {
        Row {
            mix: "A",
            policy: "S\"C",
            path,
            clients: 8,
            net,
            speedup_vs_unbatched: (path == "mpsc-unbatched").then_some(1.0),
            run,
        }
    }

    /// What CI's `kv-bench smoke` script did with `json.load`: one row
    /// of each grid and the file around them, through the functions
    /// `kv_bench` uses, must be JSON with one column set.
    #[test]
    fn a_row_of_each_grid_and_the_envelope_parse_back() {
        let mut adaptive = a_run(None);
        adaptive.caps = vec![Some(24), None, Some(24), Some(25)];
        adaptive.wtk = vec![Some(1), None, Some(2), Some(1)];
        let (queued, served) = (a_run(Some(1.0)), a_run(Some(4.0)));
        let rows = [
            row("direct", None, &adaptive),
            row("mpsc-unbatched", None, &queued),
            row("net", Some((8, 4)), &served),
        ];
        for r in &rows {
            r.check();
            assert_eq!(r.table_cells().len(), 13, "one cell per table header");
        }
        assert_eq!(rows[2].table_cells()[2], "net c8 d4");
        let records: Vec<String> = rows.iter().map(Row::json).collect();
        let v = parse(&envelope(2, 400, 8_000, &records)).expect("BENCH_kv.json is JSON");
        assert_eq!(v.get("experiment").and_then(Json::as_str), Some("kv_ycsb"));
        assert_eq!(v.get("shards").and_then(Json::as_f64), Some(SHARDS as f64));
        for key in [
            "workers",
            "keys",
            "ops",
            "value_len",
            "batch",
            "zipfian_theta",
        ] {
            assert!(v.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        let parsed = v.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(parsed.len(), 3);
        for rec in parsed {
            let Json::Obj(members) = rec else {
                panic!("a row is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ROW_KEYS.split_whitespace().collect::<Vec<_>>());
            assert_eq!(rec.get("policy").and_then(Json::as_str), Some("S\"C"));
            assert_eq!(rec.get("throughput_ops_s"), Some(&Json::Num(123_456.0)));
        }
        let (first, conc, net) = (&parsed[0], &parsed[1], &parsed[2]);
        let caps = first.get("chosen_capacity").and_then(Json::as_arr).unwrap();
        assert_eq!(caps.len(), SHARDS);
        assert_eq!((&caps[0], &caps[1]), (&Json::Num(24.0), &Json::Null));
        assert_eq!(first.get("online_knee"), Some(&Json::Null));
        assert_eq!(first.get("connections"), Some(&Json::Null));
        assert_eq!(conc.get("batch_occupancy_mean"), Some(&Json::Num(1.0)));
        assert_eq!(conc.get("windows_to_knee"), Some(&Json::Null));
        assert_eq!(net.get("flush_path").and_then(Json::as_str), Some("net"));
        assert_eq!(net.get("connections"), Some(&Json::Num(8.0)));
        assert_eq!(net.get("pipeline_depth"), Some(&Json::Num(4.0)));
        assert_eq!(net.get("batch_occupancy_mean"), Some(&Json::Num(4.0)));
    }

    /// The committed `BENCH_kv.json` is what `kv_bench` writes today:
    /// the three grids' 9 + 4 + 4 rows, each with exactly this column
    /// set. A grid or column change that is not regenerated fails here.
    #[test]
    fn the_committed_bench_kv_json_has_the_grids_rows_and_columns() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kv.json"));
        let v = parse(text).expect("BENCH_kv.json is JSON");
        assert_eq!(v.get("experiment").and_then(Json::as_str), Some("kv_ycsb"));
        let rows = v.get("results").and_then(Json::as_arr).unwrap();
        let path_count = |prefix: &str| {
            rows.iter()
                .filter_map(|r| r.get("flush_path").and_then(Json::as_str))
                .filter(|p| p.starts_with(prefix))
                .count()
        };
        assert_eq!(
            [path_count("direct"), path_count("mpsc-"), path_count("net")],
            [9, 4, 4],
            "direct, mpsc-* and net rows"
        );
        assert_eq!(rows.len(), 17, "no row of another path");
        for rec in rows {
            let Json::Obj(members) = rec else {
                panic!("a row is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ROW_KEYS.split_whitespace().collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_row_reports_the_median_run_and_the_quartiles_of_its_repeats() {
        let repeats = |tputs: &[f64]| {
            let runs = tputs.iter().map(|&t| {
                let mut r = a_run(Some(t));
                r.throughput = t;
                r
            });
            median_run(runs.collect())
        };
        let r = repeats(&[500.0, 100.0, 300.0, 900.0, 200.0]);
        assert_eq!((r.throughput, r.quartiles), (300.0, [200.0, 500.0]));
        assert_eq!(r.occupancy, Some(300.0), "the median *run*, whole");
        let r = repeats(&[7.0]);
        assert_eq!((r.throughput, r.quartiles), (7.0, [7.0, 7.0]));
        let r = repeats(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((r.throughput, r.quartiles), (2.0, [1.0, 3.0]));
        let cells = row("net", Some((8, 1)), &repeats(&[3e3, 1e3, 2e3])).table_cells();
        assert_eq!(cells[4], "2 [1, 2]");
    }

    #[test]
    #[should_panic(expected = "latency percentiles out of order")]
    fn a_row_with_disordered_percentiles_fails_the_check() {
        let mut run = a_run(None);
        run.p99 = run.p50 - 1;
        row("direct", None, &run).check();
    }
}
