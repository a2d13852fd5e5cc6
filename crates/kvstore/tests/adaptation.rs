//! Live adaptation is per shard: two shards with different per-FASE
//! working sets choose different capacities. How close the online knee
//! lands to the offline exact-Mattson one, and whether the controller
//! re-converges after a popularity shift, are checked under the
//! harness's YCSB load in `nvcache-bench`'s `tests/adaptation.rs`.

use nvcache_core::{AdaptiveConfig, PolicyKind};
use nvcache_kvstore::{KvConfig, KvStore, ShardConfig};
use nvcache_locality::KneeConfig;

const BURST: usize = 4096;

fn adaptive_store(shards: usize) -> KvStore {
    KvStore::new(&KvConfig {
        shards,
        shard: ShardConfig {
            buckets: 256,
            data_len: 1 << 21,
            log_len: 1 << 17,
            policy: PolicyKind::ScAdaptive(AdaptiveConfig {
                burst_len: BURST,
                ..Default::default()
            }),
            adapt: None,
            pipelined: false,
        },
    })
}

#[test]
fn adaptation_decisions_are_per_shard() {
    // two shards with very different per-FASE working sets must be free
    // to choose different capacities: the hot shard cycles a tight key
    // set inside each batch (small knee), the cold one sweeps a set far
    // beyond max_size (knee-less curve → max capacity)
    let store = adaptive_store(2);
    let hot_shard = store.shard_of(0);
    let hot_keys: Vec<u64> = (0..40_000u64)
        .filter(|&k| store.shard_of(k) == hot_shard)
        .take(8)
        .collect();
    let cold_keys: Vec<u64> = (0..80_000u64)
        .filter(|&k| store.shard_of(k) != hot_shard)
        .take(150)
        .collect();
    let val = |round: u8| vec![round; 56];
    for &k in hot_keys.iter().chain(&cold_keys) {
        assert!(store.put(k, &val(0)));
    }
    store.reset_samplers();
    let mut round = 0u8;
    loop {
        let fired = store.chosen().iter().filter(|c| !c.is_empty()).count();
        if fired == 2 {
            break;
        }
        assert!(round < 200, "controllers never fired on both shards");
        // hot: 4 passes over 8 keys in one FASE → reuse distance ≈ WSS
        let hot_batch: Vec<(u64, Vec<u8>)> = (0..4)
            .flat_map(|_| hot_keys.iter().map(|&k| (k, val(round))))
            .collect();
        assert!(store.put_many(&hot_batch));
        // cold: one pass over 150 keys per FASE → distances ≫ max_size
        let cold_batch: Vec<(u64, Vec<u8>)> = cold_keys.iter().map(|&k| (k, val(round))).collect();
        assert!(store.put_many(&cold_batch));
        round = round.wrapping_add(1);
    }
    let cap = |s: usize| store.with_shard(s, |sh| sh.sc_capacity()).unwrap();
    let (hot_cap, cold_cap) = (cap(hot_shard), cap(1 - hot_shard));
    assert!(
        hot_cap < cold_cap,
        "tight per-FASE working set ({hot_cap}) must pick a smaller cache \
         than the sweeping one ({cold_cap})"
    );
    assert_eq!(
        cold_cap,
        KneeConfig::default().max_size,
        "knee-less curve falls back to the maximal size (paper rule)"
    );
}
