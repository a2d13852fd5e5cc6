//! `repro kv-bench` — YCSB mixes over the sharded persistent KV store
//! (the serving-layer experiment): closed-loop workers against 4+
//! shards, each shard one FASE runtime behind ER / AT / live-adaptive
//! SC, writes issued in group-commit batches. Reports wall-clock
//! throughput, the serving-phase flush ratio, and — for SC — the
//! capacity each shard's live controller chose, alongside the knee an
//! *offline* exact-Mattson analysis of the same recorded store-line
//! window would have picked. Results land in `BENCH_kv.json`.

use std::sync::Arc;

use crate::report::{json_str, Table};
use nvcache_core::{AdaptiveConfig, PolicyKind};
use nvcache_fase::FaseStats;
use nvcache_kvstore::{
    load, load_on, run, run_net, run_on, AdaptConfig, InProcTransport, KeyDist, KvConfig, KvServer,
    KvStore, Mix, NetLoadConfig, NetServer, ServerConfig, ShardConfig, YcsbConfig,
};
use nvcache_locality::{lru_mrc, select_cache_size, KneeConfig};
use nvcache_telemetry::{convergence, CapacityEvent, ConvergenceConfig, HistId, Histogram};

/// Shards in the grid (acceptance floor: ≥ 4).
const SHARDS: usize = 4;
/// Values stay inside one 64-byte node class → one line per update.
const VALUE_LEN: usize = 40;
/// Writes per group-commit batch (what gives FASEs intra-FASE reuse).
const BATCH: usize = 128;

struct Cell {
    mix: Mix,
    policy_label: &'static str,
}

fn config_for(policy_label: &str, burst: usize, pipelined: bool) -> KvConfig {
    let (policy, adapt) = match policy_label {
        "ER" => (PolicyKind::Eager, None),
        "AT" => (PolicyKind::Atlas { size: 8 }, None),
        "SC" => (
            PolicyKind::ScAdaptive(AdaptiveConfig {
                external_control: true,
                ..Default::default()
            }),
            Some(AdaptConfig {
                burst_len: burst,
                record_stream: true,
                ..Default::default()
            }),
        ),
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
            log_len: 1 << 17,
            policy,
            adapt,
            pipelined,
        },
    }
}

fn store_for(policy_label: &str, burst: usize, pipelined: bool) -> KvStore {
    KvStore::new(&config_for(policy_label, burst, pipelined))
}

fn json_opt_list(v: &[Option<usize>]) -> String {
    if v.iter().all(Option::is_none) {
        "null".to_string()
    } else {
        let items: Vec<String> = v
            .iter()
            .map(|x| x.map_or("null".to_string(), |n| n.to_string()))
            .collect();
        format!("[{}]", items.join(", "))
    }
}

/// One sync-or-pipelined run of a grid cell, with the SC live-controller
/// outcomes gathered while the store is still alive.
struct PathRun {
    path: &'static str,
    throughput: f64,
    serving: FaseStats,
    caps: Vec<Option<usize>>,
    online: Vec<Option<usize>>,
    offline: Vec<Option<usize>>,
    /// Merged get+put+put_many latency percentiles (ns).
    p50: u64,
    p99: u64,
    p999: u64,
    /// Per-shard windows-to-knee from the live controller's decision
    /// stream (SC only).
    wtk: Vec<Option<usize>>,
}

/// One run of a network-grid cell: pipelined loadgen connections over
/// the framed wire protocol against a [`NetServer`].
struct NetRun {
    throughput: f64,
    /// Mean requests per drained batch over the serving phase.
    occupancy: f64,
    serving: FaseStats,
    p50: u64,
    p99: u64,
    p999: u64,
}

/// One run of a concurrent-grid cell: N clients driving the MPSC
/// submission queues of a live [`KvServer`].
struct ConcRun {
    path: &'static str,
    throughput: f64,
    /// Mean requests per drained batch over the measurement phase.
    occupancy: f64,
    serving: FaseStats,
    p50: u64,
    p99: u64,
    p999: u64,
}

/// Run the YCSB grid (mixes A/B/C × ER/AT/SC-adaptive at [`SHARDS`]
/// shards), each cell once over the sync flush path and once over the
/// pipelined one (submission ring + grouped prelog + slab), print the
/// table, and write `BENCH_kv.json`. Per cell, a deterministic
/// single-worker parity run asserts that the two paths agree
/// bit-for-bit on store lines and policy flush counts — only wall-clock
/// may differ.
///
/// A second, *concurrent* grid (mixes A/B, 8 closed-loop clients on
/// one contended lane) drives a [`KvServer`] — each lane served by the
/// client that finds it idle, or else queued for the lane's worker —
/// once with group commit off (`mpsc-unbatched`, `max_batch = 1`: one
/// request per FASE on both paths) and once with everything queued
/// behind a busy lane drained into a single cross-client FASE
/// (`mpsc-grouped`); `speedup_vs_unbatched` and the mean batch
/// occupancy (caller-run batches included) land in the same JSON.
///
/// A third, *network* grid drives the same single-lane grouped server
/// through [`NetServer`] and the framed wire protocol over the
/// in-process transport: connections × pipeline-depth cells
/// ({1,8} × {1,4}), each an open-window loadgen whose per-connection
/// reader serves idle lanes itself and queues on busy ones, and whose
/// acks return out of order after commit. Rows carry `connections`/`pipeline_depth`
/// (null on the other grids' rows). `smoke` shrinks the sizes to CI
/// scale (same grids, same schema).
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
    // Wall-clock repeats per path; the best run is reported (noise —
    // preemption, frequency shifts — only ever slows a run down).
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
            "Kops/s",
            "x sync",
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
    let grid: Vec<Cell> = [Mix::A, Mix::B, Mix::C]
        .into_iter()
        .flat_map(|mix| {
            ["ER", "AT", "SC"]
                .into_iter()
                .map(move |policy_label| Cell { mix, policy_label })
        })
        .collect();
    let knee_cfg = KneeConfig::default();
    let mut total_ops = 0u64;
    for cell in &grid {
        // Deterministic parity check first: one worker (no cross-worker
        // interleaving on the shard locks), sync vs pipelined. The
        // pipeline reorders and elides *region* flushes, never the
        // policy's decisions, so these counts must match bit-for-bit.
        // The multi-worker measurement below reuses the same grid cell
        // but its shard-level op interleaving is scheduler-dependent,
        // which is why the exactness contract is checked here.
        let parity: Vec<FaseStats> = [false, true]
            .into_iter()
            .map(|pipelined| {
                let store = store_for(cell.policy_label, burst, pipelined);
                load(&store, keys, VALUE_LEN);
                let rep = run(
                    &store,
                    &YcsbConfig {
                        keys,
                        ops_per_worker: ops_per_worker.min(20_000),
                        workers: 1,
                        mix: cell.mix,
                        dist: KeyDist::Zipfian { theta: 0.99 },
                        value_len: VALUE_LEN,
                        seed: 42,
                        batch: BATCH,
                        target_ops_per_sec: None,
                        windows: 1,
                        ..Default::default()
                    },
                );
                rep.windows.iter().map(|w| w.stats).sum()
            })
            .collect();
        assert_eq!(
            parity[0].store_lines,
            parity[1].store_lines,
            "{}/{}: store lines diverge between flush paths",
            cell.mix.label(),
            cell.policy_label
        );
        assert_eq!(
            parity[0].data_flushes,
            parity[1].data_flushes,
            "{}/{}: policy flush counts diverge between flush paths",
            cell.mix.label(),
            cell.policy_label
        );
        // Interleave the repeats (sync, pipelined, sync, ...) so any
        // monotonic drift of the host (thermal, frequency) hits both
        // paths equally instead of biasing whichever ran last.
        let mut best: [Option<PathRun>; 2] = [None, None];
        for _ in 0..repeats {
            for pipelined in [false, true] {
                let store = store_for(cell.policy_label, burst, pipelined);
                load(&store, keys, VALUE_LEN);
                let rep = run(
                    &store,
                    &YcsbConfig {
                        keys,
                        ops_per_worker,
                        workers,
                        mix: cell.mix,
                        dist: KeyDist::Zipfian { theta: 0.99 },
                        value_len: VALUE_LEN,
                        seed: 42,
                        batch: BATCH,
                        target_ops_per_sec: None,
                        windows: 4,
                        latency: true,
                        ..Default::default()
                    },
                );
                total_ops = rep.ops;
                let serving: FaseStats = rep.windows.iter().map(|w| w.stats).sum();
                // live-controller outcomes (SC only): chosen capacity +
                // online knee per shard, and the offline exact-Mattson
                // knee over the same recorded window
                // merged op-latency percentiles over every span kind the
                // workers record (get + put + batched put_many)
                let lat = rep.latency.as_ref().expect("latency recording on");
                let mut merged = Histogram::new();
                for id in [HistId::KvGetNs, HistId::KvPutNs, HistId::KvPutManyNs] {
                    merged.merge(lat.hist(id));
                }
                let (p50, p99, p999) = merged.percentiles();
                let mut caps: Vec<Option<usize>> = vec![None; SHARDS];
                let mut online: Vec<Option<usize>> = vec![None; SHARDS];
                let mut offline: Vec<Option<usize>> = vec![None; SHARDS];
                let mut wtk: Vec<Option<usize>> = vec![None; SHARDS];
                if cell.policy_label == "SC" {
                    for s in 0..SHARDS {
                        store.with_shard(s, |sh| {
                            if let Some(c) = sh.chosen().first() {
                                caps[s] = Some(c.capacity);
                                online[s] = Some(c.knee);
                            }
                            // convergence over the shard's full decision
                            // stream: how many MRC windows until the
                            // controller landed on (and kept) the knee
                            let evs: Vec<CapacityEvent> = sh
                                .chosen()
                                .iter()
                                .map(|c| CapacityEvent {
                                    t: c.op,
                                    knee: c.knee as u64,
                                    capacity: c.capacity as u64,
                                })
                                .collect();
                            wtk[s] = convergence::analyze(&evs, &ConvergenceConfig::default())
                                .windows_to_knee;
                            if let Some(w) = sh.stream().and_then(|st| st.get(..burst)) {
                                offline[s] = Some(select_cache_size(
                                    &lru_mrc(w, knee_cfg.max_size),
                                    &knee_cfg,
                                ));
                            }
                        });
                    }
                }
                let this = PathRun {
                    path: if pipelined { "pipelined" } else { "sync" },
                    throughput: rep.throughput_ops_per_sec,
                    serving,
                    caps,
                    online,
                    offline,
                    p50,
                    p99,
                    p999,
                    wtk,
                };
                let slot = &mut best[pipelined as usize];
                if slot.as_ref().is_none_or(|b| this.throughput > b.throughput) {
                    *slot = Some(this);
                }
            }
        }
        let runs: Vec<PathRun> = best
            .into_iter()
            .map(|b| b.expect("at least one repeat"))
            .collect();
        let sync_tput = runs[0].throughput;
        let fmt_opt = |v: &[Option<usize>]| {
            if v.iter().all(Option::is_none) {
                "-".to_string()
            } else {
                v.iter()
                    .map(|x| x.map_or("-".into(), |n: usize| n.to_string()))
                    .collect::<Vec<_>>()
                    .join("/")
            }
        };
        for r in &runs {
            let flush_ratio = r.serving.flush_ratio();
            let speedup = r.throughput / sync_tput;
            t.row(vec![
                cell.mix.label().to_string(),
                cell.policy_label.to_string(),
                r.path.to_string(),
                workers.to_string(),
                format!("{:.0}", r.throughput / 1e3),
                format!("{speedup:.2}"),
                "-".to_string(),
                "-".to_string(),
                format!("{flush_ratio:.4}"),
                format!("{}/{}/{}", r.p50, r.p99, r.p999),
                fmt_opt(&r.caps),
                fmt_opt(&r.online),
                fmt_opt(&r.offline),
                fmt_opt(&r.wtk),
            ]);
            records.push(format!(
                "    {{\"mix\": {}, \"policy\": {}, \"flush_path\": {}, \
                 \"clients\": {workers}, \
                 \"connections\": null, \"pipeline_depth\": null, \
                 \"throughput_ops_s\": {:.0}, \"speedup_vs_sync\": {:.4}, \
                 \"speedup_vs_unbatched\": null, \"batch_occupancy_mean\": null, \
                 \"flush_ratio\": {:.6}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                 \"store_lines\": {}, \"data_flushes\": {}, \
                 \"chosen_capacity\": {}, \"online_knee\": {}, \"offline_knee\": {}, \
                 \"windows_to_knee\": {}, \
                 \"engine\": \"hash\", \"scan_p99_ns\": null}}",
                json_str(cell.mix.label()),
                json_str(cell.policy_label),
                json_str(r.path),
                r.throughput,
                speedup,
                flush_ratio,
                r.p50,
                r.p99,
                r.p999,
                r.serving.store_lines,
                r.serving.data_flushes,
                json_opt_list(&r.caps),
                json_opt_list(&r.online),
                json_opt_list(&r.offline),
                json_opt_list(&r.wtk),
            ));
        }
    }

    // ---- concurrent shard runtime: MPSC submission + group commit ----
    //
    // N closed-loop clients submit single-op requests (batch = 1, so the
    // loadgen does no client-side write combining) to one lane. A client
    // that finds the lane idle serves its request itself; the ones that
    // collide with it queue, and whoever holds the lane next — the
    // worker, or a client that has just queued — serves the queue: one
    // request per FASE ("mpsc-unbatched", max_batch = 1 — the
    // no-group-commit baseline) or everything in flight as one
    // cross-client FASE ("mpsc-grouped"). Same server, same lane; the
    // variable is `max_batch`. `speedup_vs_unbatched` is not the price
    // of the saved FASEs alone: a grouped drain empties the queue, which
    // puts the lane back on the caller-runs path, while an unbatched
    // lane with a backlog works it off one request per lock hold. The
    // column measures both; `batch_occupancy_mean` (caller-run batches
    // of 1 included) says how much merging there was.
    let clients = 8usize;
    // One lane: group commit needs requests *piling up* behind a busy
    // worker, so the contended regime is clients ≥ lanes. (The legacy
    // grid above measures shard-parallel scaling; this grid measures
    // per-lane batching.)
    let conc_shards = 1usize;
    // Long enough per run (~0.3 s at single-core throughput) that a
    // scheduler burst can't swallow a whole repeat — the queue handoff
    // makes these runs an order of magnitude slower per op than the
    // direct grid, so they need fewer ops, not more.
    let conc_ops = if smoke {
        2_000
    } else {
        ops_per_worker.max(10_000)
    };
    // The measured effect on the read-heavy mix is a few percent —
    // close to host noise on a shared single-core machine. That noise
    // is one-sided (load only ever slows a run down), so each path's
    // best-observed throughput converges to its true ceiling from
    // below: keep interleaving repeats until neither path's best has
    // improved for `settle` consecutive rounds, rather than trusting a
    // fixed repeat count to have sampled both ceilings.
    let (min_rounds, settle, max_rounds) = if smoke { (1, 0, 1) } else { (repeats, 3, 24) };
    for mix in [Mix::A, Mix::B] {
        let mut best: [Option<ConcRun>; 2] = [None, None];
        let (mut rounds, mut stale) = (0usize, 0usize);
        while rounds < min_rounds || (stale < settle && rounds < max_rounds) {
            let mut improved = false;
            for (pi, path) in ["mpsc-unbatched", "mpsc-grouped"].into_iter().enumerate() {
                let server = KvServer::new(
                    &KvConfig {
                        shards: conc_shards,
                        ..config_for("SC", burst, true)
                    },
                    &ServerConfig {
                        max_batch: if pi == 0 { 1 } else { usize::MAX },
                        ..Default::default()
                    },
                );
                load_on(&server, keys, VALUE_LEN);
                // queue counters accumulate from birth; snapshot after
                // the load phase so occupancy reflects the measurement
                let qs0 = server.queue_stats();
                let rep = run_on(
                    &server,
                    &YcsbConfig {
                        keys,
                        ops_per_worker: conc_ops,
                        workers: clients,
                        mix,
                        dist: KeyDist::Zipfian { theta: 0.99 },
                        value_len: VALUE_LEN,
                        seed: 42,
                        batch: 1,
                        target_ops_per_sec: None,
                        windows: 4,
                        latency: true,
                        ..Default::default()
                    },
                );
                let qs1 = server.queue_stats();
                let batches = qs1.batches - qs0.batches;
                let occupancy = if batches == 0 {
                    0.0
                } else {
                    (qs1.drained - qs0.drained) as f64 / batches as f64
                };
                let serving: FaseStats = rep.windows.iter().map(|w| w.stats).sum();
                let lat = rep.latency.as_ref().expect("latency recording on");
                let mut merged = Histogram::new();
                for id in [HistId::KvGetNs, HistId::KvPutNs, HistId::KvPutManyNs] {
                    merged.merge(lat.hist(id));
                }
                let (p50, p99, p999) = merged.percentiles();
                let this = ConcRun {
                    path,
                    throughput: rep.throughput_ops_per_sec,
                    occupancy,
                    serving,
                    p50,
                    p99,
                    p999,
                };
                let slot = &mut best[pi];
                if slot.as_ref().is_none_or(|b| this.throughput > b.throughput) {
                    *slot = Some(this);
                    improved = true;
                }
            }
            rounds += 1;
            if improved {
                stale = 0;
            } else {
                stale += 1;
            }
        }
        let runs: Vec<ConcRun> = best
            .into_iter()
            .map(|b| b.expect("at least one repeat"))
            .collect();
        let unbatched_tput = runs[0].throughput;
        for r in &runs {
            let speedup_vs_unbatched = r.throughput / unbatched_tput;
            let flush_ratio = r.serving.flush_ratio();
            t.row(vec![
                mix.label().to_string(),
                "SC".to_string(),
                r.path.to_string(),
                clients.to_string(),
                format!("{:.0}", r.throughput / 1e3),
                "-".to_string(),
                format!("{speedup_vs_unbatched:.2}"),
                format!("{:.1}", r.occupancy),
                format!("{flush_ratio:.4}"),
                format!("{}/{}/{}", r.p50, r.p99, r.p999),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            records.push(format!(
                "    {{\"mix\": {}, \"policy\": \"SC\", \"flush_path\": {}, \
                 \"clients\": {clients}, \
                 \"connections\": null, \"pipeline_depth\": null, \
                 \"throughput_ops_s\": {:.0}, \"speedup_vs_sync\": null, \
                 \"speedup_vs_unbatched\": {:.4}, \"batch_occupancy_mean\": {:.4}, \
                 \"flush_ratio\": {:.6}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                 \"store_lines\": {}, \"data_flushes\": {}, \
                 \"chosen_capacity\": null, \"online_knee\": null, \
                 \"offline_knee\": null, \"windows_to_knee\": null, \
                 \"engine\": \"hash\", \"scan_p99_ns\": null}}",
                json_str(mix.label()),
                json_str(r.path),
                r.throughput,
                speedup_vs_unbatched,
                r.occupancy,
                flush_ratio,
                r.p50,
                r.p99,
                r.p999,
                r.serving.store_lines,
                r.serving.data_flushes,
            ));
        }
    }
    // ---- network serving: framed wire protocol over the MPSC runtime ----
    //
    // The same single-lane grouped server, now behind the in-process
    // transport and the length-prefixed frame protocol: N loadgen
    // connections pipeline requests up to `depth` in flight, the
    // per-connection reader serves the lane when it is idle and feeds
    // the submission queue when it is not, and responses are acked out
    // of order after the owning FASE commits. The grid
    // varies connections × pipeline depth; with both at their high
    // setting the per-lane pile-up reappears through the network path
    // (batch occupancy > 1), which is the acceptance signal that
    // pipelining reaches group commit rather than serializing at the
    // socket.
    for (conns, depth) in [(1usize, 1usize), (1, 4), (8, 1), (8, 4)] {
        let mut best: Option<NetRun> = None;
        for _ in 0..repeats {
            let server = Arc::new(KvServer::new(
                &KvConfig {
                    shards: conc_shards,
                    ..config_for("SC", burst, true)
                },
                &ServerConfig::default(),
            ));
            load_on(server.as_ref(), keys, VALUE_LEN);
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
                    dist: KeyDist::Zipfian { theta: 0.99 },
                    value_len: VALUE_LEN,
                    seed: 42,
                    target_ops_per_sec: 0.0, // closed by the window only
                    track_acks: false,
                    scan_len: 16,
                },
            );
            assert_eq!(rep.ops_answered, rep.ops_sent, "every request answered");
            net.shutdown();
            let qs1 = server.queue_stats();
            let batches = qs1.batches - qs0.batches;
            let occupancy = if batches == 0 {
                0.0
            } else {
                (qs1.drained - qs0.drained) as f64 / batches as f64
            };
            let serving = server.stats();
            let mut merged = Histogram::new();
            merged.merge(rep.snapshot.hist(HistId::KvGetNs));
            merged.merge(rep.snapshot.hist(HistId::KvPutNs));
            let (p50, p99, p999) = merged.percentiles();
            server.close();
            let this = NetRun {
                throughput: rep.ops_per_sec(),
                occupancy,
                serving,
                p50,
                p99,
                p999,
            };
            if best.as_ref().is_none_or(|b| this.throughput > b.throughput) {
                best = Some(this);
            }
        }
        let r = best.expect("at least one repeat");
        let flush_ratio = r.serving.flush_ratio();
        t.row(vec![
            "A".to_string(),
            "SC".to_string(),
            format!("net c{conns} d{depth}"),
            conns.to_string(),
            format!("{:.0}", r.throughput / 1e3),
            "-".to_string(),
            "-".to_string(),
            format!("{:.1}", r.occupancy),
            format!("{flush_ratio:.4}"),
            format!("{}/{}/{}", r.p50, r.p99, r.p999),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        records.push(format!(
            "    {{\"mix\": \"A\", \"policy\": \"SC\", \"flush_path\": \"net\", \
             \"clients\": {conns}, \
             \"connections\": {conns}, \"pipeline_depth\": {depth}, \
             \"throughput_ops_s\": {:.0}, \"speedup_vs_sync\": null, \
             \"speedup_vs_unbatched\": null, \"batch_occupancy_mean\": {:.4}, \
             \"flush_ratio\": {:.6}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"store_lines\": {}, \"data_flushes\": {}, \
             \"chosen_capacity\": null, \"online_knee\": null, \
             \"offline_knee\": null, \"windows_to_knee\": null, \
             \"engine\": \"hash\", \"scan_p99_ns\": null}}",
            r.throughput,
            r.occupancy,
            flush_ratio,
            r.p50,
            r.p99,
            r.p999,
            r.serving.store_lines,
            r.serving.data_flushes,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"kv_ycsb\",\n  \"shards\": {SHARDS},\n  \
         \"workers\": {workers},\n  \"keys\": {keys},\n  \"ops\": {total_ops},\n  \
         \"value_len\": {VALUE_LEN},\n  \"batch\": {BATCH},\n  \
         \"zipfian_theta\": 0.99,\n  \"results\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_kv.json", &json) {
        eprintln!("warning: could not write BENCH_kv.json: {e}");
    }
    t
}
