//! The MDB B+-tree workload surface, now a compatibility shim over the
//! first-class [`nvcache_treestore::Tree`] engine.
//!
//! Earlier revisions carried a self-contained toy CoW tree here; the
//! engine it prototyped graduated into `crates/treestore` (logical-page
//! remap table, MVCC snapshot pins, free-list reclamation, typed
//! recovery). This module keeps the `u64 -> u64` API the Mtest workload
//! and the registry were written against, mapping it onto the engine:
//!
//! * `begin_txn`/`commit` — one engine transaction = one FASE, same as
//!   before.
//! * `snapshot()` — pins an engine [`Snapshot`] and hands back a compact
//!   token; `get_at(token, …)` reads through the pin. The toy returned a
//!   raw root offset with no lifetime tracking; tokens let the engine
//!   reclaim CoW garbage the moment [`PBTree::release`] drops the pin.
//! * `reclaim()` — delegates to the engine's pin-bounded page
//!   reclamation (the toy freed unconditionally and relied on callers
//!   to never hold snapshots across it).
//! * per-op meta bookkeeping — the toy updated LMDB-style meta-page
//!   fields (txnid, dirty count) on every insert; the shim keeps those
//!   stores so the workload's cache-locality profile (the Table 3 /
//!   knee pins in `mtest`) still reflects MDB's meta-page traffic.

use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_pmem::CrashMode;
use nvcache_treestore::{FasePager, Snapshot, Tree, TreeConfig};
use std::collections::HashMap;

/// The persistent B+-tree the MDB workload drives (engine shim).
pub struct PBTree {
    t: Tree<FasePager>,
    /// LMDB-style meta fields (txnid, dirty count) updated per op —
    /// heap offset inside the engine's region.
    meta: usize,
    /// Monotone transaction-op counter (LMDB meta-page txnid).
    txid: u64,
    /// Live snapshot tokens -> engine pins.
    snaps: HashMap<u64, Snapshot>,
    next_snap: u64,
}

impl PBTree {
    /// New tree with room for roughly `capacity` key/value pairs.
    pub fn new(capacity: usize, policy: &PolicyKind) -> Self {
        let cap = capacity.max(64);
        // each live key needs one 256 B value cell plus its share of a
        // leaf; double it for CoW churn between reclaims and add fixed
        // slack for meta/table blocks and allocator overhead
        let data = (cap * 2 + 1024) * 256;
        // tree pages are unlogged shadow memory; what a transaction
        // logs is its commit head plus 48 B per `touch_meta`
        let cfg = TreeConfig {
            data_len: data,
            log_len: 1 << 20,
            policy: policy.clone(),
            pipelined: false,
        };
        let mut t = Tree::create(&cfg).expect("format tree heap");
        let meta = t.store_mut().runtime_mut().alloc(64).expect("meta block") as usize;
        PBTree {
            t,
            meta,
            txid: 0,
            snaps: HashMap::new(),
            next_snap: 1,
        }
    }

    /// Enable trace recording on the runtime.
    pub fn record_trace(&mut self) {
        self.t.store_mut().runtime_mut().record_trace();
    }

    /// The underlying runtime.
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        self.t.store_mut().runtime_mut()
    }

    /// The underlying engine.
    pub fn tree(&self) -> &Tree<FasePager> {
        &self.t
    }

    /// Pin the current version for stable reads; returns a token for
    /// [`PBTree::get_at`]. Release it with [`PBTree::release`] so the
    /// engine can recycle the pages it holds.
    pub fn snapshot(&mut self) -> u64 {
        let snap = self.t.pin();
        let tok = self.next_snap;
        self.next_snap += 1;
        self.snaps.insert(tok, snap);
        tok
    }

    /// Drop a snapshot token (unpins the engine version).
    pub fn release(&mut self, token: u64) {
        if let Some(s) = self.snaps.remove(&token) {
            self.t.unpin(s);
        }
    }

    // ---- transactions ----------------------------------------------------

    /// Open a write transaction (one FASE).
    pub fn begin_txn(&mut self) {
        self.t.begin();
    }

    /// Commit the open write transaction.
    pub fn commit(&mut self) {
        self.t.commit();
    }

    /// Power-fail under `mode` and recover runtime *and* tree (an open
    /// transaction vanishes, snapshot tokens are invalidated). Crashing
    /// the bare runtime instead leaves the tree's volatile maps
    /// pointing at the dead transaction's pages.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) {
        self.snaps.clear();
        self.t.crash_and_recover(mode).expect("tree recovery");
    }

    /// Recycle pages retired by CoW that no live snapshot can reach.
    pub fn reclaim(&mut self) {
        self.t.reclaim();
    }

    // ---- reads -------------------------------------------------------------

    /// Look up `key` in the current tree.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.t.get(key).map(decode)
    }

    /// Look up `key` as of snapshot `token`.
    pub fn get_at(&mut self, token: u64, key: u64) -> Option<u64> {
        let snap = *self.snaps.get(&token).expect("unknown snapshot token");
        self.t.get_at(&snap, key).map(decode)
    }

    /// In-order key/value pairs (test helper / traversal workload).
    pub fn scan(&mut self) -> Vec<(u64, u64)> {
        self.t
            .scan(None, 0, u64::MAX, usize::MAX)
            .into_iter()
            .map(|(k, v)| (k, decode(v)))
            .collect()
    }

    /// Number of keys.
    pub fn len(&mut self) -> usize {
        self.t.len() as usize
    }

    /// True iff no keys.
    pub fn is_empty(&mut self) -> bool {
        self.t.is_empty()
    }

    // ---- writes ------------------------------------------------------------

    /// Insert or update `key → value` inside the open transaction.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn insert(&mut self, key: u64, value: u64) {
        assert!(self.t.in_txn(), "insert requires an open transaction");
        self.t
            .put(key, &value.to_le_bytes())
            .expect("btree heap exhausted");
        self.touch_meta();
    }

    /// Remove `key` inside the open transaction (lazy: no rebalancing,
    /// like LMDB's page-level deletes before compaction).
    pub fn delete(&mut self, key: u64) {
        assert!(self.t.in_txn(), "delete requires an open transaction");
        self.t.delete(key).expect("btree heap exhausted");
        self.touch_meta();
    }

    /// LMDB-style meta-page bookkeeping: txnid + dirty-page count share
    /// one hot cache line, stored on every operation.
    fn touch_meta(&mut self) {
        self.txid += 1;
        let (m, txid) = (self.meta, self.txid);
        let rt = self.t.store_mut().runtime_mut();
        rt.store_u64(m, txid);
        rt.store_u64(m + 8, txid & 0x3f);
        rt.work(4);
    }
}

fn decode(v: Vec<u8>) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&v[..8]);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(cap: usize) -> PBTree {
        PBTree::new(cap, &PolicyKind::ScFixed { capacity: 20 })
    }

    #[test]
    fn insert_and_get() {
        let mut t = tree(256);
        t.begin_txn();
        for i in 0..100u64 {
            t.insert(i * 7 % 101, i);
        }
        t.commit();
        for i in 0..100u64 {
            assert_eq!(t.get(i * 7 % 101), Some(i), "key {}", i * 7 % 101);
        }
        assert_eq!(t.get(777), None);
    }

    #[test]
    fn update_in_place() {
        let mut t = tree(64);
        t.begin_txn();
        t.insert(5, 1);
        t.insert(5, 2);
        t.commit();
        assert_eq!(t.get(5), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scan_is_sorted() {
        let mut t = tree(512);
        t.begin_txn();
        for i in (0..200u64).rev() {
            t.insert(i, i * 2);
        }
        t.commit();
        let v = t.scan();
        assert_eq!(v.len(), 200);
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(v.iter().all(|&(k, val)| val == k * 2));
    }

    #[test]
    fn splits_build_a_deep_tree() {
        let mut t = tree(2048);
        t.begin_txn();
        for i in 0..1000u64 {
            t.insert(i, i);
        }
        t.commit();
        assert_eq!(t.len(), 1000);
        assert!(t.tree().height() > 2, "1000 keys must split");
        for i in (0..1000u64).step_by(37) {
            assert_eq!(t.get(i), Some(i));
        }
    }

    #[test]
    fn delete_removes_and_preserves_rest() {
        let mut t = tree(256);
        t.begin_txn();
        for i in 0..100u64 {
            t.insert(i, i);
        }
        t.commit();
        t.begin_txn();
        for i in (0..100u64).step_by(3) {
            t.delete(i);
        }
        t.commit();
        for i in 0..100u64 {
            if i % 3 == 0 {
                assert_eq!(t.get(i), None, "key {i}");
            } else {
                assert_eq!(t.get(i), Some(i), "key {i}");
            }
        }
    }

    #[test]
    fn delete_absent_key_is_noop() {
        let mut t = tree(64);
        t.begin_txn();
        t.insert(1, 1);
        t.delete(99);
        t.commit();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn committed_txn_survives_crash() {
        let mut t = tree(256);
        t.begin_txn();
        for i in 0..50u64 {
            t.insert(i, i + 1);
        }
        t.commit();
        t.crash_and_recover(&CrashMode::StrictDurableOnly);
        for i in 0..50u64 {
            assert_eq!(t.get(i), Some(i + 1));
        }
    }

    #[test]
    fn uncommitted_txn_rolls_back_atomically() {
        let mut t = tree(256);
        t.begin_txn();
        for i in 0..20u64 {
            t.insert(i, 1);
        }
        t.commit();
        t.begin_txn();
        for i in 0..20u64 {
            t.insert(i, 2);
        }
        t.insert(1000, 1000);
        // crash mid-transaction, worst case: everything in flight lands
        t.crash_and_recover(&CrashMode::AllInFlightLands);
        for i in 0..20u64 {
            assert_eq!(t.get(i), Some(1), "old value visible for {i}");
        }
        assert_eq!(t.get(1000), None, "uncommitted insert rolled back");
    }

    #[test]
    fn snapshot_isolation() {
        let mut t = tree(256);
        t.begin_txn();
        for i in 0..30u64 {
            t.insert(i, 1);
        }
        t.commit();
        let snap = t.snapshot();
        // writer moves on (CoW: pinned pages intact, not reclaimed)
        t.begin_txn();
        for i in 0..30u64 {
            t.insert(i, 2);
        }
        t.insert(500, 9);
        t.commit();
        // reader still sees version 1 everywhere through its snapshot
        for i in 0..30u64 {
            assert_eq!(t.get_at(snap, i), Some(1), "snapshot sees v1 for {i}");
        }
        assert_eq!(t.get_at(snap, 500), None);
        // current tree sees version 2
        assert_eq!(t.get(5), Some(2));
        assert_eq!(t.get(500), Some(9));
        // releasing the pin lets the engine recycle the old version
        let held = t.tree().retired_pages();
        assert!(held > 0, "pin must hold retired pages");
        t.release(snap);
        assert_eq!(t.tree().retired_pages(), 0);
    }

    #[test]
    fn reclaim_recycles_pages() {
        let mut t = tree(256);
        for round in 0..30 {
            t.begin_txn();
            for i in 0..10u64 {
                t.insert(i, round);
            }
            t.commit();
            t.reclaim();
        }
        assert_eq!(t.len(), 10);
        // 10 live keys: a handful of pages, not 30 rounds' worth
        assert!(
            t.tree().pages_allocated() < 128,
            "rounds leaked pages: {}",
            t.tree().pages_allocated()
        );
    }

    #[test]
    #[should_panic(expected = "insert requires an open transaction")]
    fn insert_outside_txn_panics() {
        let mut t = tree(64);
        t.insert(1, 1);
    }
}
