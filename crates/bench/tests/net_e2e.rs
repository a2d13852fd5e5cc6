//! The ack-after-commit contract under a *sweep* of crash adversaries —
//! strict (only durable lines survive), all-in-flight lands, and
//! randomized partial landings — for a pipelined multi-connection
//! open-loop load through the wire protocol: every write the server
//! acked is readable, at an acked-or-newer version, after crash +
//! recover. The serving layer's own end-to-end tests are
//! `nvcache-kvstore`'s `tests/net_e2e.rs`.

use std::sync::Arc;

use nvcache_bench::netload::{run_net, verify_acked, NetLoadConfig};
use nvcache_core::PolicyKind;
use nvcache_kvstore::{InProcTransport, KvConfig, KvServer, NetServer, ServerConfig, ShardConfig};
use nvcache_pmem::CrashMode;

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

/// The acceptance sweep: for each crash adversary, run a pipelined
/// multi-connection load with ack tracking through the wire protocol,
/// crash every shard, recover, and audit that each acked write is
/// present at a version in `[max acked, max sent]`.
#[test]
fn every_acked_write_survives_each_crash_mode() {
    for (name, mode) in [
        ("strict", CrashMode::StrictDurableOnly),
        ("all-in-flight", CrashMode::AllInFlightLands),
        ("random-a", CrashMode::random(0.5, 0.5, 7)),
        ("random-b", CrashMode::random(0.9, 0.1, 23)),
    ] {
        let kv = kv(2);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let rep = run_net(
            &t,
            "inproc",
            &NetLoadConfig {
                connections: 4,
                pipeline_depth: 4,
                ops_per_conn: 300,
                keys: 64,
                target_ops_per_sec: 0.0,
                track_acks: true,
                seed: 0xC0FFEE ^ mode_seed(name),
                ..Default::default()
            },
        );
        assert_eq!(rep.ops_answered, rep.ops_sent, "{name}: all answered");
        srv.shutdown();
        kv.crash_and_recover_all(&mode);
        verify_acked(&kv, &rep)
            .unwrap_or_else(|e| panic!("{name}: ack-after-commit violated after crash: {e}"));
        kv.close();
    }
}

fn mode_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31) + b as u64)
}
