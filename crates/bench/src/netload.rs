//! Open-loop network load generator: N concurrent client connections,
//! each pipelining requests over the framed wire protocol with a
//! bounded in-flight window and **scheduled** send times. Keys, ops and
//! values come from the closed loop's core ([`crate::ycsb`]).
//!
//! ## Open loop and coordinated omission
//!
//! Each connection owns an arrival schedule: request `i` is *intended*
//! at `t0 + i / rate`. The sender issues it no earlier than that, and
//! the receiver measures latency from the **intended** time, not the
//! actual send time (`ycsb::scheduled_latency_ns`). When the
//! server stalls and the sender falls behind schedule, the queueing
//! delay the stall imposed on every scheduled-but-unsent request is
//! charged to those requests — the p99/p999 inflation is *recorded*
//! instead of silently omitted.
//!
//! ## Ack tracking (durability audit)
//!
//! Under [`NetLoadConfig::track_acks`], connections write versioned
//! values to **disjoint per-connection key ranges** and record, per
//! key, the newest version the server acked and the newest version
//! sent. Because one connection's writes to one key flow FIFO through
//! one shard lane, the store must afterwards hold a version in
//! `[max acked, max sent]` for every key — exactly the ack-after-
//! commit contract, checked by [`verify_acked`] after a crash.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use nvcache_kvstore::proto::{encode_request, FrameDecoder, Request, Response};
use nvcache_kvstore::{Conn, Engine, KvServer, Transport};
use nvcache_telemetry::{
    Clock, HistId, MonoClock, Recorder, TelemetryConfig, TelemetrySnapshot, ThreadRecorder,
};

use crate::ycsb::{scheduled_latency_ns, versioned_value, Mix, Stream, Zipfian};

/// Shape of one network load run.
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Bounded in-flight window per connection (pipeline depth). `1`
    /// degenerates to a blocking client.
    pub pipeline_depth: usize,
    /// Requests each connection issues.
    pub ops_per_conn: u64,
    /// Key-space size per connection, at least 2 (ranges are disjoint
    /// across connections when `track_acks`, shared otherwise).
    pub keys: u64,
    /// Operation mix: reads issue `Get`, updates versioned `Put`s.
    pub mix: Mix,
    /// Zipfian skew of key popularity.
    pub theta: f64,
    /// Value length (forced ≥ 16 under `track_acks` to carry the
    /// version header).
    pub value_len: usize,
    /// Base seed; connection `c` derives its own stream.
    pub seed: u64,
    /// Intended arrival rate per connection (open loop). `0.0` issues
    /// as fast as the window allows and measures from send time.
    pub target_ops_per_sec: f64,
    /// Record per-key acked/sent versions for [`verify_acked`].
    pub track_acks: bool,
}

impl Default for NetLoadConfig {
    fn default() -> Self {
        NetLoadConfig {
            connections: 4,
            pipeline_depth: 4,
            ops_per_conn: 1_000,
            keys: 1_000,
            mix: Mix::A,
            theta: 0.99,
            value_len: 56,
            seed: 42,
            target_ops_per_sec: 50_000.0,
            track_acks: false,
        }
    }
}

/// What one network load run produced.
#[derive(Debug)]
pub struct NetLoadReport {
    /// Requests sent (== responses received barring connection loss).
    pub ops_sent: u64,
    /// Responses received.
    pub ops_answered: u64,
    /// `Rejected` responses among them (server refused the submission).
    pub rejected: u64,
    /// Get responses that found no value.
    pub not_found: u64,
    /// Wall-clock span of the run.
    pub elapsed_ns: u64,
    /// Merged per-connection latency histograms (`KvGetNs` for reads,
    /// `KvPutNs` for writes — intended-arrival based).
    pub snapshot: TelemetrySnapshot,
    /// Per key: newest acked version (`track_acks` only).
    pub acked: Option<HashMap<u64, u64>>,
    /// Per key: newest sent version (`track_acks` only).
    pub sent: Option<HashMap<u64, u64>>,
    /// Value length actually used (post `track_acks` clamp).
    pub value_len: usize,
}

impl NetLoadReport {
    /// Aggregate throughput over the run.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops_answered as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

/// Decode the version header of a stored `versioned_value`; `None`
/// when the bytes are not a versioned value for `key`.
fn stored_version(key: u64, bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 16 || bytes[..8] != key.to_le_bytes() {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
}

/// Per-connection window gate: sender blocks at `depth` in flight,
/// receiver releases.
struct Window {
    inflight: Mutex<usize>,
    cv: Condvar,
}

impl Window {
    fn acquire(&self, depth: usize) {
        let mut g = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        while *g >= depth {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        *g += 1;
    }

    fn release(&self) {
        let mut g = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *g = g.saturating_sub(1);
        drop(g);
        self.cv.notify_one();
    }
}

/// What the sender tells the receiver about request `id`: op class and
/// the data needed for intended-time latency and ack auditing.
#[derive(Clone, Copy)]
struct SentMeta {
    /// Intended arrival in the connection clock's time base.
    intended_ns: u64,
    /// `Some((key, version))` for writes, `None` for reads.
    write: Option<(u64, u64)>,
}

/// Run the load against `transport`/`addr`. Returns after every
/// connection has received a response (or lost its connection) for
/// every request it sent.
pub fn run_net(transport: &dyn Transport, addr: &str, cfg: &NetLoadConfig) -> NetLoadReport {
    assert!(cfg.connections >= 1 && cfg.pipeline_depth >= 1);
    let value_len = if cfg.track_acks {
        cfg.value_len.max(16)
    } else {
        cfg.value_len
    };
    let zipf = Zipfian::new(cfg.keys as usize, cfg.theta);
    let answered = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let not_found = AtomicU64::new(0);
    let recorders: Mutex<Vec<ThreadRecorder>> = Mutex::new(Vec::new());
    let acked: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let sent_versions: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let wall = MonoClock::new();
    let t_start = wall.now_ns();
    let total_sent = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for c in 0..cfg.connections {
            let conn = transport.connect(addr).expect("loadgen connect failed");
            let (zipf, answered, rejected, not_found) = (&zipf, &answered, &rejected, &not_found);
            let (recorders, acked, sent_versions) = (&recorders, &acked, &sent_versions);
            let total_sent = &total_sent;
            scope.spawn(move || {
                let read_half = conn.try_clone_conn().expect("clone conn");
                let window = Arc::new(Window {
                    inflight: Mutex::new(0),
                    cv: Condvar::new(),
                });
                // sender fills metadata before sending; receiver reads
                // it after matching the response id
                let meta: Arc<Mutex<HashMap<u64, SentMeta>>> = Arc::new(Mutex::new(HashMap::new()));
                let clock = MonoClock::new(); // shared origin via clone
                let rec_clock = clock.clone();
                let period_ns = if cfg.target_ops_per_sec > 0.0 {
                    1e9 / cfg.target_ops_per_sec
                } else {
                    0.0
                };
                // disjoint ranges under track_acks so per-key version
                // order is owned by exactly one connection
                let key_base = if cfg.track_acks {
                    c as u64 * cfg.keys
                } else {
                    0
                };

                let receiver = {
                    let window = Arc::clone(&window);
                    let meta = Arc::clone(&meta);
                    let ops = cfg.ops_per_conn;
                    std::thread::spawn(move || {
                        receiver_loop(read_half, rec_clock, window, meta, ops, c as u32)
                    })
                };

                // ---- sender ----
                let mut conn = conn;
                let mut stream = Stream::new(cfg.seed, c, cfg.mix, key_base);
                let mut versions: HashMap<u64, u64> = HashMap::new();
                for i in 0..cfg.ops_per_conn {
                    let intended_ns = (i as f64 * period_ns) as u64;
                    // pace to the schedule: coarse sleep, fine spin
                    loop {
                        let now = clock.now_ns();
                        if now >= intended_ns {
                            break;
                        }
                        let ahead = intended_ns - now;
                        if ahead > 2_000_000 {
                            std::thread::sleep(Duration::from_nanos(ahead / 2));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    window.acquire(cfg.pipeline_depth);
                    let (key, read) = stream.next(zipf);
                    let intended_ns = if period_ns > 0.0 {
                        intended_ns
                    } else {
                        clock.now_ns() // unpaced: measure from send
                    };
                    let (req, write) = if read {
                        (Request::Get { id: i, key }, None)
                    } else {
                        let version = versions.entry(key).or_insert(0);
                        *version += 1;
                        let value = versioned_value(key, *version, value_len);
                        let write = Some((key, *version));
                        (Request::Put { id: i, key, value }, write)
                    };
                    meta.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(i, SentMeta { intended_ns, write });
                    if conn.write_all_bytes(&encode_request(&req)).is_err() {
                        // connection lost: undo the window slot, wake
                        // the receiver with EOF, and stop
                        window.release();
                        meta.lock().unwrap_or_else(|e| e.into_inner()).remove(&i);
                        conn.shutdown_conn();
                        break;
                    }
                    total_sent.fetch_add(1, Ordering::Relaxed);
                }

                let outcome = receiver.join().expect("receiver panicked");
                answered.fetch_add(outcome.answered, Ordering::Relaxed);
                rejected.fetch_add(outcome.rejected, Ordering::Relaxed);
                not_found.fetch_add(outcome.not_found, Ordering::Relaxed);
                recorders
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(outcome.recorder);
                if cfg.track_acks {
                    // the connection's key range is its own: its maps
                    // merge without conflict
                    acked
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend(outcome.acked);
                    sent_versions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend(versions);
                }
            });
        }
    });

    let elapsed_ns = wall.now_ns() - t_start;
    let mut shards = recorders.into_inner().unwrap_or_else(|e| e.into_inner());
    shards.sort_by_key(|r| r.tid());
    NetLoadReport {
        ops_sent: total_sent.into_inner(),
        ops_answered: answered.into_inner(),
        rejected: rejected.into_inner(),
        not_found: not_found.into_inner(),
        elapsed_ns,
        snapshot: TelemetrySnapshot::from_threads(shards),
        acked: cfg
            .track_acks
            .then(|| acked.into_inner().unwrap_or_else(|e| e.into_inner())),
        sent: cfg.track_acks.then(|| {
            sent_versions
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
        }),
        value_len,
    }
}

struct RecvOutcome {
    answered: u64,
    rejected: u64,
    not_found: u64,
    acked: HashMap<u64, u64>,
    recorder: ThreadRecorder,
}

fn receiver_loop(
    mut conn: Box<dyn Conn>,
    clock: MonoClock,
    window: Arc<Window>,
    meta: Arc<Mutex<HashMap<u64, SentMeta>>>,
    expect: u64,
    tid: u32,
) -> RecvOutcome {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut out = RecvOutcome {
        answered: 0,
        rejected: 0,
        not_found: 0,
        acked: HashMap::new(),
        recorder: ThreadRecorder::new(tid, &TelemetryConfig::default()),
    };
    'io: while out.answered < expect {
        let n = match conn.read_some(&mut buf) {
            Ok(0) | Err(_) => break 'io, // sender may have stopped early
            Ok(n) => n,
        };
        dec.extend_from(&buf[..n]);
        loop {
            let resp = match dec.next_response() {
                Ok(Some(r)) => r,
                Ok(None) => break,
                Err(e) if e.is_fatal() => break 'io,
                Err(_) => continue,
            };
            let id = resp.id();
            let m = meta.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
            let Some(m) = m else { continue };
            let lat = scheduled_latency_ns(m.intended_ns, clock.now_ns());
            match &resp {
                Response::Value { value, .. } => {
                    out.recorder.observe(HistId::KvGetNs, lat);
                    if value.is_none() {
                        out.not_found += 1;
                    }
                }
                Response::Done { ok, .. } => {
                    out.recorder.observe(HistId::KvPutNs, lat);
                    if let (true, Some((key, version))) = (*ok, m.write) {
                        let e = out.acked.entry(key).or_insert(0);
                        *e = (*e).max(version);
                    }
                }
                Response::Rejected { .. } => {
                    out.recorder.observe(HistId::KvPutNs, lat);
                    out.rejected += 1;
                }
                // the loadgen sends no scan or ping
                Response::Entries { .. } | Response::Pong { .. } => {}
            }
            out.answered += 1;
            window.release();
        }
    }
    out
}

/// The durability audit: every key the server acked must, after a
/// crash + recover, hold a versioned value no older than the newest
/// acked version and no newer than the newest sent version. Returns
/// the first violation as an error string.
pub fn verify_acked<E: Engine>(kv: &KvServer<E>, report: &NetLoadReport) -> Result<(), String> {
    let acked = report
        .acked
        .as_ref()
        .ok_or("report has no ack tracking (set track_acks)")?;
    let sent = report.sent.as_ref().unwrap();
    let client = kv.client();
    for (&key, &acked_v) in acked {
        let got = client
            .get(key)
            .ok_or_else(|| format!("acked key {key} missing after recover"))?;
        let v = stored_version(key, &got)
            .ok_or_else(|| format!("key {key}: stored bytes are not a versioned value"))?;
        if v < acked_v {
            return Err(format!(
                "key {key}: stored version {v} older than acked {acked_v} — \
                 ack-after-commit violated"
            ));
        }
        let sent_v = sent.get(&key).copied().unwrap_or(acked_v);
        if v > sent_v {
            return Err(format!(
                "key {key}: stored version {v} newer than anything sent ({sent_v})"
            ));
        }
        if got != versioned_value(key, v, report.value_len) {
            return Err(format!("key {key}: stored bytes corrupt at version {v}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::PolicyKind;
    use nvcache_kvstore::{InProcTransport, KvConfig, NetServer, ServerConfig, ShardConfig};

    fn kv(shards: usize) -> Arc<KvServer> {
        Arc::new(KvServer::new(
            &KvConfig {
                shards,
                shard: ShardConfig {
                    buckets: 128,
                    data_len: 1 << 20,
                    log_len: 1 << 16,
                    policy: PolicyKind::ScFixed { capacity: 8 },
                    adapt: None,
                    pipelined: true,
                },
            },
            &ServerConfig::default(),
        ))
    }

    #[test]
    fn versioned_value_roundtrips() {
        let v = versioned_value(77, 4, 56);
        assert_eq!(v.len(), 56);
        assert_eq!(stored_version(77, &v), Some(4));
        assert_eq!(stored_version(78, &v), None, "wrong key rejected");
        assert_eq!(stored_version(77, &v[..10]), None, "short rejected");
    }

    #[test]
    fn open_loop_run_answers_everything() {
        let kv = kv(2);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let cfg = NetLoadConfig {
            connections: 3,
            pipeline_depth: 4,
            ops_per_conn: 400,
            keys: 200,
            target_ops_per_sec: 200_000.0,
            track_acks: true,
            ..Default::default()
        };
        let rep = run_net(&t, "inproc", &cfg);
        assert_eq!(rep.ops_sent, 3 * 400);
        assert_eq!(rep.ops_answered, rep.ops_sent, "every request answered");
        assert_eq!(rep.rejected, 0);
        let merged = {
            let mut h = nvcache_telemetry::Histogram::new();
            h.merge(rep.snapshot.hist(HistId::KvGetNs));
            h.merge(rep.snapshot.hist(HistId::KvPutNs));
            h
        };
        assert_eq!(merged.count, rep.ops_answered);
        let (p50, p99, p999) = merged.percentiles();
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
        // acked writes survive crash + recover
        kv.crash_and_recover_all(&nvcache_pmem::CrashMode::StrictDurableOnly);
        verify_acked(&kv, &rep).unwrap();
        srv.shutdown();
        kv.close();
    }

    #[test]
    fn ack_audit_catches_a_tampered_store() {
        let kv = kv(1);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let cfg = NetLoadConfig {
            connections: 1,
            pipeline_depth: 2,
            ops_per_conn: 100,
            keys: 20,
            mix: Mix::A,
            target_ops_per_sec: 0.0,
            track_acks: true,
            ..Default::default()
        };
        let rep = run_net(&t, "inproc", &cfg);
        verify_acked(&kv, &rep).unwrap();
        // simulate an ack-durability hole: delete one acked key
        let victim = *rep.acked.as_ref().unwrap().keys().next().unwrap();
        assert!(kv.client().delete(victim));
        let err = verify_acked(&kv, &rep).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        srv.shutdown();
        kv.close();
    }
}
