//! `repro tree-bench` — ordered-workload serving over the CoW B+-tree
//! engine: YCSB C (point-read baseline), E (95% range scans with
//! zipfian lengths), and F (read-modify-write) against a
//! [`KvServer<TreeEngine>`] — the same lanes (caller-run when idle,
//! queued and group-committed when busy) as the hash grid, but every
//! batch becomes one or more copy-on-write transactions and scans
//! stream leaves in key order.
//!
//! Rows carry `engine: "tree"` and, on the scan mix, the dedicated
//! `scan_p99_ns` percentile, and are **appended to `BENCH_kv.json`**
//! (same record schema as the hash grid, one artifact for the serving
//! layer) when a `kv-bench` artifact is present; otherwise a fresh
//! envelope is written.

use nvcache_core::PolicyKind;
use nvcache_fase::FaseStats;
use nvcache_kvstore::{
    load_on, run_on, KeyDist, KvServer, Mix, ServerConfig, TreeEngine, TreeEngineConfig, YcsbConfig,
};
use nvcache_telemetry::{HistId, Histogram};
use nvcache_treestore::TreeConfig;

use crate::report::{json_str, Table};

/// Tree lanes (one worker thread + one CoW tree each).
const LANES: usize = 2;
/// Same value class as the hash grid, for comparable rows.
const VALUE_LEN: usize = 40;
/// Upper bound on YCSB E scan lengths (lengths are zipfian in
/// `1..=MAX_SCAN`).
const MAX_SCAN: usize = 64;

struct TreeRun {
    throughput: f64,
    serving: FaseStats,
    p50: u64,
    p99: u64,
    p999: u64,
    /// p99 over the scan-op histogram alone (scan mixes only).
    scan_p99: Option<u64>,
    scans: u64,
    rmws: u64,
}

fn engine_cfg() -> TreeEngineConfig {
    TreeEngineConfig {
        tree: TreeConfig {
            // CoW churn needs transient headroom beyond the live set:
            // every txn shadows its root-to-leaf paths before reclaim
            // frees the old versions at batch end
            data_len: 1 << 23,
            log_len: 1 << 19,
            policy: PolicyKind::ScFixed { capacity: 8 },
            pipelined: true,
        },
    }
}

/// One JSON record in the `BENCH_kv.json` row schema (hash-grid columns
/// carried as nulls, plus the `engine` / `scan_p99_ns` columns).
fn record(mix: Mix, clients: usize, r: &TreeRun) -> String {
    format!(
        "    {{\"mix\": {}, \"policy\": \"SC\", \"flush_path\": \"tree\", \
         \"clients\": {clients}, \
         \"connections\": null, \"pipeline_depth\": null, \
         \"throughput_ops_s\": {:.0}, \"speedup_vs_sync\": null, \
         \"speedup_vs_unbatched\": null, \"batch_occupancy_mean\": null, \
         \"flush_ratio\": {:.6}, \
         \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
         \"store_lines\": {}, \"data_flushes\": {}, \
         \"chosen_capacity\": null, \"online_knee\": null, \
         \"offline_knee\": null, \"windows_to_knee\": null, \
         \"engine\": \"tree\", \"scan_p99_ns\": {}}}",
        json_str(mix.label()),
        r.throughput,
        r.serving.flush_ratio(),
        r.p50,
        r.p99,
        r.p999,
        r.serving.store_lines,
        r.serving.data_flushes,
        r.scan_p99.map_or("null".to_string(), |p| p.to_string()),
    )
}

/// Append `records` to an existing `kv-bench` artifact's results array,
/// or write a fresh envelope if none is present. The splice relies on
/// the exact tail `kv_bench` writes, so a hand-edited file falls back
/// to the fresh envelope rather than corrupting the artifact.
fn emit(records: &[String], clients: usize, keys: usize, ops: u64) {
    const TAIL: &str = "\n  ]\n}\n";
    let json = match std::fs::read_to_string("BENCH_kv.json") {
        Ok(text)
            if text.contains("\"experiment\": \"kv_ycsb\"")
                && text.ends_with(TAIL)
                && !text.contains("\"engine\": \"tree\"") =>
        {
            let body = &text[..text.len() - TAIL.len()];
            format!("{body},\n{}{TAIL}", records.join(",\n"))
        }
        _ => format!(
            "{{\n  \"experiment\": \"kv_ycsb\",\n  \"shards\": {LANES},\n  \
             \"workers\": {clients},\n  \"keys\": {keys},\n  \"ops\": {ops},\n  \
             \"value_len\": {VALUE_LEN},\n  \"batch\": 1,\n  \
             \"zipfian_theta\": 0.99,\n  \"results\": [\n{}\n  ]\n}}\n",
            records.join(",\n")
        ),
    };
    if let Err(e) = std::fs::write("BENCH_kv.json", &json) {
        eprintln!("warning: could not write BENCH_kv.json: {e}");
    }
}

/// Run the tree-engine grid (YCSB C / E / F over [`LANES`] tree lanes,
/// closed-loop clients on the submission queues), print the table, and
/// append `engine: "tree"` rows to `BENCH_kv.json`. `smoke` shrinks the
/// sizes to CI scale (same grid, same schema).
pub fn tree_bench(scale: f64, smoke: bool) -> Table {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = 4.min(host).max(2);
    let (keys, ops_per_worker) = if smoke {
        (400usize, 1_500u64)
    } else {
        (
            ((20_000.0 * scale) as usize).max(1_000),
            ((60_000.0 * scale) as u64).max(3_000),
        )
    };
    let repeats = if smoke { 1 } else { 3 };
    let mut t = Table::new(
        &format!(
            "Tree engine serving: YCSB C/E/F, {LANES} lanes, {clients} clients, \
             {keys} keys, scans <= {MAX_SCAN}"
        ),
        &[
            "mix",
            "engine",
            "clients",
            "Kops/s",
            "scans",
            "rmws",
            "flush ratio",
            "p50/p99/p999 ns",
            "scan p99 ns",
        ],
    );
    let mut records = Vec::new();
    let mut total_ops = 0u64;
    for mix in [Mix::C, Mix::E, Mix::F] {
        let mut best: Option<TreeRun> = None;
        for _ in 0..repeats {
            let server =
                KvServer::<TreeEngine>::new_tree(LANES, &engine_cfg(), &ServerConfig::default());
            load_on(&server, keys, VALUE_LEN);
            server.take_stats(); // isolate the serving phase
            let rep = run_on(
                &server,
                &YcsbConfig {
                    keys,
                    ops_per_worker: ops_per_worker as usize,
                    workers: clients,
                    mix,
                    dist: KeyDist::Zipfian { theta: 0.99 },
                    value_len: VALUE_LEN,
                    seed: 42,
                    batch: 1,
                    target_ops_per_sec: None,
                    windows: 2,
                    latency: true,
                    max_scan_len: MAX_SCAN,
                    ..Default::default()
                },
            );
            total_ops = rep.ops;
            let serving: FaseStats = rep.windows.iter().map(|w| w.stats).sum();
            let lat = rep.latency.as_ref().expect("latency recording on");
            let mut merged = Histogram::new();
            for id in [
                HistId::KvGetNs,
                HistId::KvPutNs,
                HistId::KvPutManyNs,
                HistId::KvScanNs,
            ] {
                merged.merge(lat.hist(id));
            }
            let (p50, p99, p999) = merged.percentiles();
            let scan_p99 = (rep.scans > 0).then(|| lat.hist(HistId::KvScanNs).percentiles().1);
            server.close();
            let this = TreeRun {
                throughput: rep.throughput_ops_per_sec,
                serving,
                p50,
                p99,
                p999,
                scan_p99,
                scans: rep.scans,
                rmws: rep.rmws,
            };
            if best.as_ref().is_none_or(|b| this.throughput > b.throughput) {
                best = Some(this);
            }
        }
        let r = best.expect("at least one repeat");
        t.row(vec![
            mix.label().to_string(),
            "tree".to_string(),
            clients.to_string(),
            format!("{:.0}", r.throughput / 1e3),
            r.scans.to_string(),
            r.rmws.to_string(),
            format!("{:.4}", r.serving.flush_ratio()),
            format!("{}/{}/{}", r.p50, r.p99, r.p999),
            r.scan_p99.map_or("-".to_string(), |p| p.to_string()),
        ]);
        records.push(record(mix, clients, &r));
    }
    emit(&records, clients, keys, total_ops);
    t
}
