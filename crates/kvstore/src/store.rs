//! The sharded store: keys routed by hash to [`Shard`]s, each behind
//! its own mutex so operations on different shards proceed in parallel
//! while every shard's `FaseRuntime` (and its persistence policy) stays
//! strictly single-owner — the paper's per-thread cache model mapped
//! onto a serving layer.

use std::sync::Mutex;

use nvcache_fase::FaseStats;
use nvcache_pmem::CrashMode;

use crate::shard::{CapacityChoice, Shard, ShardConfig};

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

/// SplitMix64 finalizer — the shard router. Deliberately a different
/// mix than the in-shard bucket hash so shard choice and bucket choice
/// are uncorrelated. Shared with the concurrent serving layer
/// (`server.rs`) so a [`KvStore`] and a `KvServer` over the same config
/// route identically.
pub(crate) fn route_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A concurrent, sharded, persistent KV store.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<Mutex<Shard>>,
}

impl KvStore {
    /// Build a store with `cfg.shards` fresh shards.
    pub fn new(cfg: &KvConfig) -> Self {
        assert!(cfg.shards >= 1, "at least one shard");
        KvStore {
            shards: (0..cfg.shards)
                .map(|_| Mutex::new(Shard::new(&cfg.shard)))
                .collect(),
        }
    }

    /// Shard index serving `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        (route_hash(key) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.shard(self.shard_of(key)).get(key)
    }

    /// Insert or update `key → value`; `false` when the owning shard's
    /// heap is exhausted (the map is unchanged then).
    pub fn put(&self, key: u64, value: &[u8]) -> bool {
        self.shard(self.shard_of(key)).put(key, value)
    }

    /// Apply a batch of writes as one FASE **per involved shard**
    /// (group commit): items are split by routing hash, each shard's
    /// slice commits atomically in item order. Repeated keys are
    /// written repeatedly — intra-FASE reuse is what the per-shard
    /// software cache (and its MRC sampler) feeds on. Returns `false`
    /// if any shard rejected its slice (that slice is unapplied; other
    /// shards' slices still commit — atomicity is per shard).
    pub fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool {
        // route borrowed values into vectors sized by a counting pass:
        // what this allocates depends on the shard count alone
        let mut counts = vec![0usize; self.shards.len()];
        for (k, _) in items {
            counts[self.shard_of(*k)] += 1;
        }
        let mut by_shard: Vec<Vec<(u64, &[u8])>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for (k, v) in items {
            by_shard[self.shard_of(*k)].push((*k, v));
        }
        let mut ok = true;
        for (i, group) in by_shard.into_iter().enumerate() {
            if !group.is_empty() {
                ok &= self.shard(i).put_many(&group);
            }
        }
        ok
    }

    /// Remove `key`; returns whether it existed.
    pub fn delete(&self, key: u64) -> bool {
        self.shard(self.shard_of(key)).delete(key)
    }

    /// Range scan `lo..=hi`, at most `limit` entries, sorted by key:
    /// every shard is visited (keys are hash-routed) and the slices
    /// merged. Shards are scanned one at a time under their own locks —
    /// per-shard consistency, cross-shard best effort, same as any
    /// multi-shard read.
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
        for s in &self.shards {
            out.extend(lock(s).scan(lo, hi, limit));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out.truncate(limit);
        out
    }

    /// Total live keys across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Is every shard empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` with shard `i` locked (stats scraping, telemetry, crash
    /// plumbing in tests).
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut self.shard(i))
    }

    /// Cumulative runtime counters summed over shards.
    pub fn stats(&self) -> FaseStats {
        self.shards.iter().map(|s| lock(s).stats()).sum()
    }

    /// Per-window counters summed over shards (each shard's
    /// [`Shard::take_stats`] interval delta).
    pub fn take_stats(&self) -> FaseStats {
        self.shards.iter().map(|s| lock(s).take_stats()).sum()
    }

    /// Current software-cache capacity per shard (`None` entries for
    /// non-SC policies).
    pub fn sc_capacities(&self) -> Vec<Option<usize>> {
        self.shards.iter().map(|s| lock(s).sc_capacity()).collect()
    }

    /// Live-controller capacity decisions per shard.
    pub fn chosen(&self) -> Vec<Vec<CapacityChoice>> {
        self.shards
            .iter()
            .map(|s| lock(s).chosen().to_vec())
            .collect()
    }

    /// Every `(key, value)` pair across shards, sorted by key.
    pub fn dump(&self) -> Vec<(u64, Vec<u8>)> {
        let mut all: Vec<(u64, Vec<u8>)> =
            self.shards.iter().flat_map(|s| lock(s).dump()).collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all
    }

    /// Crash every shard under `mode` and recover them all.
    pub fn crash_and_recover_all(&self, mode: &CrashMode) {
        for s in &self.shards {
            lock(s).crash_and_recover(mode);
        }
    }

    /// Restart every shard's adaptation measurement (see
    /// [`Shard::reset_sampler`]); done after bulk load so capacity
    /// decisions reflect the serving stream.
    pub fn reset_samplers(&self) {
        for s in &self.shards {
            lock(s).reset_sampler();
        }
    }

    /// Flush every shard's buffered state (clean shutdown).
    pub fn sync_all(&self) {
        for s in &self.shards {
            lock(s).sync();
        }
    }

    fn shard(&self, i: usize) -> std::sync::MutexGuard<'_, Shard> {
        lock(&self.shards[i])
    }
}

fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            // A worker panicked while holding this shard — possibly
            // mid-FASE, leaving an open section, a stale flush buffer,
            // and undrained ring entries. Merely taking the guard (the
            // old behaviour) leaked all of that: the next op nested
            // inside the abandoned section and nothing ever committed
            // again. Heal the runtime (rollback + drop volatile
            // residue) before handing the shard out.
            let mut g = poisoned.into_inner();
            g.heal_after_panic();
            m.clear_poison();
            g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::PolicyKind;

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

    /// Regression: a worker panicking mid-FASE used to leave the shard's
    /// runtime with an open section behind a poisoned lock; every later
    /// op then nested inside it (no commit ever ran again) and the
    /// in-flight flush buffer leaked. The poisoned-lock path must heal
    /// the runtime so the store keeps committing.
    #[test]
    fn poisoned_shard_lock_heals_the_abandoned_fase() {
        let store = KvStore::new(&cfg(2));
        for k in 0..100u64 {
            assert!(store.put(k, &k.to_le_bytes()));
        }
        let victim = store.shard_of(7);
        let fases_before = store.stats().fases;
        // panic while holding the shard mid-FASE (poisons the lock)
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.with_shard(victim, |sh| {
                let rt = sh.runtime_mut();
                rt.begin_fase();
                rt.store_u64(4096, 0xDEAD_BEEF);
                panic!("worker dies mid-FASE");
            })
        }));
        assert!(res.is_err());
        // the next access heals: rollback recorded, depth cleared
        store.with_shard(victim, |sh| {
            assert_eq!(sh.runtime_mut().depth(), 0, "abandoned FASE closed");
        });
        assert_eq!(store.stats().rollbacks, 1);
        // ops on the healed shard commit again (the regression froze
        // the fase counter forever)
        assert!(store.put(7, b"after-heal"));
        assert!(store.stats().fases > fases_before);
        assert_eq!(store.get(7).as_deref(), Some(&b"after-heal"[..]));
        // and the healed state is crash-consistent
        let expect = store.dump();
        store.crash_and_recover_all(&CrashMode::StrictDurableOnly);
        assert_eq!(store.dump(), expect);
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
