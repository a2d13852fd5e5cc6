//! Property test pinning the persistent KV store against a
//! `std::collections::HashMap` model: a single shard (no crashes)
//! driven through random put/delete/get sequences must agree with the
//! volatile map at every step and on the final full dump — regardless
//! of persistence policy.

use std::collections::HashMap;

use nvcache_core::PolicyKind;
use nvcache_kvstore::{KvConfig, KvStore, ShardConfig};
use proptest::prelude::*;

/// `len` deterministic bytes for `(key, version)`.
fn value_bytes(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut z = key ^ version.rotate_left(17) ^ 0x5bf0_3635;
    while v.len() < len {
        z = z
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        v.extend_from_slice(&z.to_le_bytes());
    }
    v.truncate(len);
    v
}

fn single_shard(policy: PolicyKind) -> KvStore {
    KvStore::new(&KvConfig {
        shards: 1,
        shard: ShardConfig {
            buckets: 32, // selects nothing
            // five 4 KiB segments: as many as 24 keys can need at the
            // five lengths below (one segment per class, two for 52
            // bytes), so a deleted block is the next insert's and a key
            // that changes class leaves one for the next move
            data_len: 21 << 10,
            log_len: 1 << 16,
            policy,
            adapt: None,
            pipelined: false,
        },
    })
}

fn policies() -> [PolicyKind; 5] {
    [
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 8 },
        PolicyKind::ScAdaptive(Default::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op soup over a small key space (in-place updates, class
    /// moves, deletes of absent keys, block reuse) matches the model.
    #[test]
    fn store_matches_hashmap_model(
        ops in prop::collection::vec((0u8..4, 0u64..24, 0u8..5), 0..250),
    ) {
        for policy in policies() {
            let store = single_shard(policy.clone());
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            for (i, &(op, key, lensel)) in ops.iter().enumerate() {
                match op {
                    // put: value length varies with lensel so updates
                    // exercise both the in-place and the class-move paths
                    0 | 1 => {
                        let v = value_bytes(key, i as u64, lensel as usize * 13);
                        prop_assert!(store.put(key, &v), "heap sized for the op count");
                        model.insert(key, v);
                    }
                    2 => {
                        prop_assert_eq!(
                            store.delete(key),
                            model.remove(&key).is_some(),
                            "delete presence must agree (key {}, step {})", key, i
                        );
                    }
                    _ => {
                        prop_assert_eq!(
                            store.get(key),
                            model.get(&key).cloned(),
                            "lookup mismatch (key {}, step {}, policy {:?})", key, i, policy
                        );
                    }
                }
                prop_assert_eq!(store.len(), model.len());
            }
            // final state: every key agrees, dump is the sorted model
            let mut expect: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
            expect.sort_unstable_by_key(|&(k, _)| k);
            prop_assert_eq!(store.dump(), expect, "policy {:?}", policy);
        }
    }

    /// Interleaving reads between writes never perturbs state: a pure
    /// read sequence after any write prefix is side-effect free.
    #[test]
    fn reads_are_side_effect_free(
        writes in prop::collection::vec((0u64..16, 1u8..4), 1..60),
        probes in prop::collection::vec(0u64..32, 0..40),
    ) {
        let store = single_shard(PolicyKind::ScFixed { capacity: 4 });
        for (i, &(key, lensel)) in writes.iter().enumerate() {
            store.put(key, &value_bytes(key, i as u64, lensel as usize * 9));
        }
        let before = store.dump();
        let stores_before = store.stats().stores;
        for &k in &probes {
            let _ = store.get(k);
        }
        prop_assert_eq!(store.dump(), before);
        prop_assert_eq!(store.stats().stores, stores_before, "gets issue no stores");
    }
}
