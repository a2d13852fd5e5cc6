//! End-to-end acceptance for the network serving layer:
//!
//! - the blocking [`NetClient`] round-trips every opcode over the
//!   in-process transport and over real TCP on localhost;
//! - a lane needs no thread of its own: one connection alone gets a
//!   burst larger than a held lane's queue served, acked and durable.
//!
//! The ack-after-commit sweep under the harness's open-loop load is
//! `nvcache-bench`'s `tests/net_e2e.rs`.

use std::sync::Arc;

use nvcache_core::PolicyKind;
use nvcache_kvstore::proto::{encode_request, FrameDecoder, Request, Response};
use nvcache_kvstore::{
    InProcTransport, KvConfig, KvServer, NetClient, NetServer, ServerConfig, ShardConfig,
    TcpTransport, Transport,
};
use nvcache_pmem::CrashMode;

fn kv(shards: usize) -> Arc<KvServer> {
    kv_with(shards, &ServerConfig::default())
}

fn kv_with(shards: usize, scfg: &ServerConfig) -> Arc<KvServer> {
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
        scfg,
    ))
}

#[test]
fn blocking_client_round_trips_every_opcode_inproc() {
    let kv = kv(2);
    let t = InProcTransport::new();
    let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
    let mut c = NetClient::connect(&t, "inproc").unwrap();

    c.ping().unwrap();
    assert_eq!(c.get(1).unwrap(), None);
    assert!(c.put(1, b"hello").unwrap());
    assert_eq!(c.get(1).unwrap().as_deref(), Some(&b"hello"[..]));
    assert!(c
        .put_many(&[(2, b"a".to_vec()), (3, b"b".to_vec()), (4, b"c".to_vec())])
        .unwrap());
    assert_eq!(c.get(3).unwrap().as_deref(), Some(&b"b"[..]));
    assert!(c.delete(1).unwrap());
    assert!(!c.delete(1).unwrap(), "second delete finds nothing");
    assert_eq!(c.get(1).unwrap(), None);

    srv.shutdown();
    kv.close();
}

#[test]
fn blocking_client_round_trips_over_tcp() {
    let kv = kv(1);
    let t = TcpTransport;
    // port 0: the OS picks a free port; local_addr reports it
    let srv = NetServer::start(&t, "127.0.0.1:0", Arc::clone(&kv)).unwrap();
    let addr = srv.local_addr();
    let mut c = NetClient::connect(&t, &addr).unwrap();
    c.ping().unwrap();
    assert!(c.put(42, b"over tcp").unwrap());
    assert_eq!(c.get(42).unwrap().as_deref(), Some(&b"over tcp"[..]));
    srv.shutdown();
    kv.close();
}

/// The path a lane thread used to exist for: one connection sends,
/// in one write, more puts for a held lane than the lane's queue
/// holds (plus a multi-put and a scan over both lanes). Nobody but
/// the connection's own thread can make room or serve the tail —
/// the holder only lets go — and still every id is answered once,
/// nothing is refused, and what was acked is durable.
#[test]
fn a_burst_larger_than_the_queue_needs_no_thread_but_its_own() {
    const CAPACITY: usize = 8;
    let kv = kv_with(
        2,
        &ServerConfig {
            queue_capacity: CAPACITY,
            ..ServerConfig::default()
        },
    );
    let t = InProcTransport::new();
    let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
    let client = kv.client();
    let value = |k: u64| (k * 31).to_le_bytes().to_vec();
    let held: Vec<u64> = (0u64..)
        .filter(|&k| client.lane_of(k) == 0)
        .take(3 * CAPACITY)
        .collect();
    let many: Vec<(u64, Vec<u8>)> = (1000..1016).map(|k| (k, value(k))).collect();
    assert!(many.iter().any(|&(k, _)| client.lane_of(k) == 1), "spans");
    let mut burst: Vec<Request> = Vec::new();
    burst.extend(held.iter().enumerate().map(|(id, &key)| Request::Put {
        id: id as u64,
        key,
        value: value(key),
    }));
    let (many_id, scan_id) = (held.len() as u64, held.len() as u64 + 1);
    let items = many.clone();
    burst.push(Request::PutMany { id: many_id, items });
    let (id, lo, hi, limit) = (scan_id, 1000, 1015, 100);
    burst.push(Request::Scan { id, lo, hi, limit });
    let mut wire = Vec::new();
    for req in &burst {
        wire.extend_from_slice(&encode_request(req));
    }
    assert!(wire.len() < 64 * 1024, "one read, so one group per lane");

    let mut conn = t.connect("inproc").unwrap();
    let gate = std::sync::Barrier::new(2);
    let mut got: Vec<Response> = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            kv.with_shard(0, |_| {
                gate.wait(); // the lane is held ...
                gate.wait(); // ... until its queue is full
            })
        });
        gate.wait();
        conn.write_all_bytes(&wire).unwrap();
        let t0 = std::time::Instant::now();
        while {
            let qs = kv.queue_stats();
            qs.enqueued - qs.drained < CAPACITY as u64
        } {
            assert!(t0.elapsed().as_secs() < 20, "the burst never queued");
            std::thread::yield_now();
        }
        gate.wait();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 4096];
        while got.len() < burst.len() {
            let n = conn.read_some(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            dec.extend_from(&buf[..n]);
            while let Some(resp) = dec.next_response().unwrap() {
                got.push(resp);
            }
        }
    });
    got.sort_unstable_by_key(|r| r.id());
    let mut want: Vec<Response> = (0..many_id)
        .map(|id| Response::Done { id, ok: true })
        .collect();
    want.push(Response::Done {
        id: many_id,
        ok: true,
    });
    let items = many.clone();
    want.push(Response::Entries { id: scan_id, items });
    assert_eq!(got, want, "every id once, none rejected");
    let qs = kv.queue_stats();
    assert!(qs.max_batch <= CAPACITY);
    assert_eq!(qs.rejected, 0);
    assert_eq!(qs.enqueued, qs.drained, "nothing left behind");
    // ack => durable
    kv.crash_and_recover_all(&CrashMode::StrictDurableOnly);
    for (k, v) in held.iter().map(|&k| (k, value(k))).chain(many) {
        assert_eq!(client.get(k), Some(v), "acked key {k} lost");
    }
    srv.shutdown();
    kv.close();
}
