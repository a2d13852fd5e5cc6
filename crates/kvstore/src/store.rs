//! The embedded store: a [`KvServer`] over hash-routed [`Shard`]s,
//! called directly. Each shard lane owns one `FaseRuntime` (and its
//! persistence policy) — the paper's per-thread cache model mapped onto
//! a serving layer — and a call on an idle lane runs the shard on the
//! caller's thread with its arguments borrowed, so the embedded path
//! pays a `try_lock` and an idle check over a plain shard call, and
//! shares every other line with the served one.

use crate::server::{KvServer, ServerConfig};
use crate::shard::{BatchRequest, Shard, ShardConfig};

/// Configuration of a sharded store.
#[derive(Debug, Clone, PartialEq)]
pub struct KvConfig {
    /// Shard count (keys are hash-routed; each shard owns one runtime).
    pub shards: usize,
    /// Per-shard shape.
    pub shard: ShardConfig,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            shards: 4,
            shard: ShardConfig::default(),
        }
    }
}

/// SplitMix64 finalizer — the shard router. A shard's index hashes with
/// `std`'s keyed hasher, so shard choice and a key's place in its
/// shard's index are uncorrelated. Every lane router (`KvServer::shard_of`,
/// `KvClient::lane_of`) is this modulo the lane count.
pub(crate) fn route_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The embedded store: a [`KvServer`] over hash [`Shard`]s whose point
/// calls borrow. `get` / `put` / `put_many` / `delete` take the lane's
/// idle path with their arguments as they are — the shard runs on this
/// thread and nothing is copied — and only on a busy lane queue through
/// the server's resident [`KvClient`](crate::server::KvClient), copying
/// the values the queue must own. Everything else — routing, `scan`
/// (through [`KvServer::handle`]), `len`, `stats`, `with_shard`, crash
/// plumbing — is the server's, through `Deref`.
#[derive(Debug)]
pub struct KvStore(KvServer<Shard>);

impl std::ops::Deref for KvStore {
    type Target = KvServer<Shard>;

    fn deref(&self) -> &KvServer<Shard> {
        &self.0
    }
}

impl KvStore {
    /// Build a store with `cfg.shards` fresh shards, one lane each, under
    /// the default [`ServerConfig`].
    pub fn new(cfg: &KvConfig) -> Self {
        KvStore(KvServer::new(cfg, &ServerConfig::default()))
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.lanes[self.shard_of(key)]
            .try_run(1, |s| s.get(key))
            .unwrap_or_else(|| self.handle().get(key))
    }

    /// Insert or update `key → value`; `false` when the owning shard's
    /// heap is exhausted (the map is unchanged then).
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        self.lanes[self.shard_of(key)]
            .try_run(1, |s| s.put(key, value))
            .unwrap_or_else(|| self.handle().put(key, value))
    }

    /// Apply a batch of writes as one FASE **per involved shard**
    /// (group commit): items are split by routing hash, each shard's
    /// slice commits atomically in item order. Repeated keys are
    /// written repeatedly — intra-FASE reuse is what the per-shard
    /// software cache (and its MRC sampler) feeds on. Returns `false`
    /// if any shard rejected its slice (that slice is unapplied; other
    /// shards' slices still commit — atomicity is per shard).
    pub fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool {
        let client = self.handle();
        let (mut ok, mut queued) = (true, Vec::new());
        for (lane, group) in client.split_by_lane(items, |(k, v)| (*k, v.as_slice())) {
            match self.lanes[lane].try_run(1, |s| s.put_many(&group)) {
                Some(done) => ok &= done,
                None => {
                    let owned = group.iter().map(|&(k, v)| (k, v.to_vec())).collect();
                    queued.push(client.submit(lane, BatchRequest::PutMany(owned)));
                }
            }
        }
        queued.into_iter().fold(ok, |ok, a| ok & a.done())
    }

    /// Remove `key`; returns whether it existed.
    pub fn delete(&self, key: u64) -> bool {
        self.lanes[self.shard_of(key)]
            .try_run(1, |s| s.delete(key))
            .unwrap_or_else(|| self.handle().delete(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::PolicyKind;
    use nvcache_pmem::CrashMode;

    fn cfg(shards: usize) -> KvConfig {
        KvConfig {
            shards,
            shard: ShardConfig {
                buckets: 64,
                data_len: 1 << 18,
                log_len: 1 << 15,
                policy: PolicyKind::ScFixed { capacity: 8 },
                adapt: None,
                pipelined: false,
            },
        }
    }

    #[test]
    fn routing_is_stable_and_total() {
        let store = KvStore::new(&cfg(4));
        for k in 0..1000u64 {
            let s = store.shard_of(k);
            assert!(s < 4);
            assert_eq!(s, store.shard_of(k), "stable");
        }
    }

    #[test]
    fn routing_spreads_keys_across_shards() {
        let store = KvStore::new(&cfg(8));
        let mut counts = [0usize; 8];
        for k in 0..8000u64 {
            counts[store.shard_of(k)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1500).contains(&c),
                "shard {i} got {c} of 8000 sequential keys"
            );
        }
    }

    #[test]
    fn cross_shard_roundtrip_and_dump() {
        let store = KvStore::new(&cfg(4));
        for k in 0..500u64 {
            assert!(store.put(k, &k.to_le_bytes()));
        }
        assert_eq!(store.len(), 500);
        for k in 0..500u64 {
            assert_eq!(store.get(k).as_deref(), Some(&k.to_le_bytes()[..]));
        }
        for k in (0..500u64).step_by(2) {
            assert!(store.delete(k));
        }
        assert_eq!(store.len(), 250);
        let d = store.dump();
        assert_eq!(d.len(), 250);
        assert!(d.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no dupes");
    }

    #[test]
    fn concurrent_workers_disjoint_keys() {
        let store = KvStore::new(&cfg(4));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..250u64 {
                        let k = w * 1000 + i;
                        assert!(store.put(k, &k.to_le_bytes()));
                        assert_eq!(store.get(k).as_deref(), Some(&k.to_le_bytes()[..]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 1000);
    }

    /// Regression: a thread panicking mid-FASE inside `with_shard` left
    /// the shard's runtime with an open section behind a poisoned lock;
    /// the next op nested inside it (no commit ever ran again — a
    /// client's `put` failed, its batch refused by the prelog check) and
    /// the in-flight flush buffer leaked. Whoever takes the poisoned lock
    /// next must heal the runtime so the lane keeps committing.
    #[test]
    fn poisoned_shard_lock_heals_the_abandoned_fase() {
        let server = KvServer::new(&cfg(2), &ServerConfig::default());
        let c = server.client();
        for k in 0..100u64 {
            assert!(c.put(k, &k.to_le_bytes()));
        }
        let victim = server.shard_of(7);
        let fases_before = server.stats().fases;
        // panic while holding the shard mid-FASE (poisons the lock)
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.with_shard(victim, |sh| {
                let rt = sh.runtime_mut();
                rt.begin_fase();
                rt.store_u64(4096, 0xDEAD_BEEF);
                panic!("worker dies mid-FASE");
            })
        }));
        assert!(res.is_err());
        // the next access, a client's same-length update (one prelogged
        // batch FASE), heals first and commits
        assert!(c.put(7, b"healed!!"));
        assert_eq!(server.healed_panics(), 1);
        server.with_shard(victim, |sh| {
            assert_eq!(sh.runtime_mut().depth(), 0, "abandoned FASE closed");
        });
        assert_eq!(server.stats().rollbacks, 1);
        assert!(server.stats().fases > fases_before);
        assert_eq!(c.get(7).as_deref(), Some(&b"healed!!"[..]));
        // and the healed state is crash-consistent
        let expect = server.dump();
        server.crash_and_recover_all(&CrashMode::StrictDurableOnly);
        assert_eq!(server.dump(), expect);
    }

    #[test]
    fn store_survives_crash_on_every_shard() {
        let store = KvStore::new(&cfg(4));
        for k in 0..400u64 {
            store.put(k, &(k ^ 0xff).to_le_bytes());
        }
        let expect = store.dump();
        store.crash_and_recover_all(&CrashMode::AllInFlightLands);
        assert_eq!(store.dump(), expect);
    }
}
