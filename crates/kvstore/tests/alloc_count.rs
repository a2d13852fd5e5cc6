//! Heap allocations on the batched write paths, counted.
//!
//! `Shard::put_many` plans a batch in scratch buffers the shard owns
//! and every layer below it (undo log, flush ring, region) reuses its
//! own, so a steady-state batch of in-place updates allocates nothing;
//! a shard finds a node through its volatile index — a probe, not a
//! plan — so a point read allocates the value it returns, a miss
//! nothing, a scan what it returns plus two buffers, and a batch of
//! fresh keys only what the index's amortised doubling costs;
//! `KvStore::put_many` and `Shard::serve_batch` route *borrowed* values
//! down to it, so what they allocate does not grow with the number of
//! values written, and `KvStore::get` runs `Shard::get` on an idle lane
//! with nothing around it, so it allocates what `Shard::get` does. The
//! tree lane is bounded the same way: a
//! transaction's staged / retired lists and `put`'s path are buffers the
//! tree owns, its remap is an array indexed by logical page id and a
//! page read is a borrow, so a steady-state transaction (no split — the
//! slot table grows by amortised doubling, and no claim is made about
//! that) allocates nothing and a point read allocates the value it
//! returns. This is an integration test — a crate of its own — because a
//! counting `GlobalAlloc` needs `unsafe`, which every library crate
//! forbids.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nvcache_core::PolicyKind;
use nvcache_kvstore::{
    BatchReply, BatchRequest, Engine, KvConfig, KvStore, Shard, ShardConfig, TreeEngine,
    TreeEngineConfig,
};
use nvcache_treestore::{MemPager, PageStore, Tree, TreeConfig};

thread_local! {
    /// Allocations made by this thread (the test harness runs the
    /// tests of one binary on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local counter, which
// neither allocates nor unwinds (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded with the caller's own arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// A fixed-capacity shard with no live controller: nothing
/// but the write path itself runs inside a `put_many`.
fn shard_config() -> ShardConfig {
    ShardConfig {
        buckets: 64,
        data_len: 1 << 18,
        log_len: 1 << 15,
        policy: PolicyKind::ScFixed { capacity: 8 },
        adapt: None,
        pipelined: true,
    }
}

fn batch(keys: impl Iterator<Item = u64>, tag: u8) -> Vec<(u64, Vec<u8>)> {
    keys.map(|k| (k, vec![tag; 40])).collect()
}

#[test]
fn steady_state_put_many_allocates_nothing() {
    let mut shard = Shard::new(&shard_config());
    assert!(shard.put_many(&batch(0..32, 0)), "preload: 32 inserts");
    assert!(
        shard.put_many(&batch(0..32, 1)),
        "warm-up: sizes the scratch"
    );
    let updates = batch(0..32, 2);
    let (n, ok) = allocations(|| shard.put_many(&updates));
    assert!(ok);
    assert_eq!(n, 0, "32 in-place 40-byte updates must not allocate");
    assert_eq!(shard.get(31).as_deref(), Some(&[2u8; 40][..]));
}

#[test]
fn shard_get_allocates_only_the_value_it_returns() {
    let mut shard = Shard::new(&shard_config());
    assert!(shard.put_many(&batch(0..200, 7)), "chains of three nodes");
    let (n, hit) = allocations(|| shard.get(137));
    assert_eq!(hit.as_deref(), Some(&[7u8; 40][..]));
    assert_eq!(n, 1, "a hit allocates the returned value and nothing else");
    let (n, miss) = allocations(|| shard.get(200));
    assert_eq!(miss, None);
    assert_eq!(n, 0, "a miss is one index probe");
}

#[test]
fn fresh_key_put_many_allocates_for_index_growth_only() {
    let mut shard = Shard::new(&shard_config());
    assert!(shard.put_many(&batch(0..32, 0)), "sizes the scratch");
    let batches: Vec<_> = (1..32u64)
        .map(|b| batch(32 * b..32 * (b + 1), b as u8))
        .collect();
    let (n, ok) = allocations(|| batches.iter().all(|b| shard.put_many(b)));
    assert!(ok);
    assert_eq!(shard.len(), 1024);
    assert!(
        n <= 8,
        "992 fresh keys in 31 batches allocated {n} times: the index \
         doubles five times, nothing is per key or per batch"
    );
}

#[test]
fn shard_scan_allocates_what_it_returns() {
    let mut shard = Shard::new(&shard_config());
    assert!(shard.put_many(&batch(0..200, 3)));
    let (n, hits) = allocations(|| shard.scan(20, 180, 10));
    let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, (20..30).collect::<Vec<_>>());
    assert!(
        n <= 10 + 2,
        "161 keys in range, 10 returned, {n} allocations: the selection, \
         the result and ten values, not a copy of every value in range"
    );
}

#[test]
fn store_put_many_allocates_per_shard_not_per_item() {
    const SHARDS: usize = 4;
    let store = KvStore::new(&KvConfig {
        shards: SHARDS,
        shard: shard_config(),
    });
    let keys = || (0..128u64).map(|i| i % 96);
    assert!(store.put_many(&batch(keys(), 0)), "preload");
    assert!(store.put_many(&batch(keys(), 1)), "warm-up");
    let updates = batch(keys(), 2);
    let (n, ok) = allocations(|| store.put_many(&updates));
    assert!(ok);
    assert!(
        n <= 2 * SHARDS as u64,
        "128 items over {SHARDS} shards allocated {n} times: routing may \
         allocate per shard, never per item"
    );
    assert_eq!(store.get(95).as_deref(), Some(&[2u8; 40][..]));
}

#[test]
fn store_get_allocates_only_the_value_it_returns() {
    let store = KvStore::new(&KvConfig {
        shards: 4,
        shard: shard_config(),
    });
    assert!(store.put_many(&batch(0..200, 7)));
    let (n, hit) = allocations(|| store.get(137));
    assert_eq!(hit.as_deref(), Some(&[7u8; 40][..]));
    assert_eq!(
        n, 1,
        "a hit allocates the returned value and nothing else: no request, \
         no reply vector"
    );
    let (n, miss) = allocations(|| store.get(200));
    assert_eq!(miss, None);
    assert_eq!(n, 0, "a miss is one route and one index probe");
}

#[test]
fn serve_batch_does_not_clone_written_values() {
    let mut shard = Shard::new(&shard_config());
    let puts = |tag: u8| -> Vec<BatchRequest> {
        (0..64u64)
            .map(|k| BatchRequest::Put(k, vec![tag; 40]))
            .collect()
    };
    shard.serve_batch(&puts(0)); // preload: 64 inserts
    shard.serve_batch(&puts(1)); // warm-up
    let reqs = puts(2);
    let (n, replies) = allocations(|| shard.serve_batch(&reqs));
    assert!(replies.iter().all(|r| *r == BatchReply::Done(true)));
    assert!(
        n <= 16,
        "64 Puts allocated {n} times: the reply vector and the growth of \
         the group and its overlay, not one clone per value"
    );
    assert_eq!(shard.get(63).as_deref(), Some(&[2u8; 40][..]));
}

/// A fixed-capacity tree heap, as the tree lanes run it.
fn tree_config() -> TreeConfig {
    TreeConfig {
        data_len: 1 << 20,
        log_len: 1 << 16,
        policy: PolicyKind::ScFixed { capacity: 8 },
        pipelined: true,
    }
}

/// One transaction over `keys`: `begin`, a 40-byte `put` each,
/// `commit`, `reclaim`.
fn tree_txn<S: PageStore>(t: &mut Tree<S>, keys: &[u64], tag: u8) {
    t.begin();
    for &k in keys {
        t.put(k, &[tag; 40]).expect("put within capacity");
    }
    t.commit();
    t.reclaim();
}

/// 200 preloaded keys (three levels), two warm-up transactions over
/// eight of them, then the counted one over the same eight.
fn steady_state_tree_txn_allocations<S: PageStore>(mut t: Tree<S>) -> u64 {
    let preload: Vec<u64> = (0..200).collect();
    tree_txn(&mut t, &preload, 0);
    assert!(t.height() >= 3, "reads must cross inner pages");
    let keys: Vec<u64> = (0..8).map(|i| 3 + 25 * i).collect();
    tree_txn(&mut t, &keys, 1);
    tree_txn(&mut t, &keys, 2);
    let (n, ()) = allocations(|| tree_txn(&mut t, &keys, 3));
    assert_eq!(t.get(178).as_deref(), Some(&[3u8; 40][..]));
    assert_eq!(t.len(), 200);
    n
}

#[test]
fn steady_state_tree_txn_allocates_nothing() {
    let persistent = Tree::create(&tree_config()).expect("format tree heap");
    assert_eq!(
        steady_state_tree_txn_allocations(persistent),
        0,
        "begin + 8 puts + commit + reclaim over the FASE pager"
    );
    let volatile = Tree::format(MemPager::new()).expect("format mem tree");
    assert_eq!(
        steady_state_tree_txn_allocations(volatile),
        0,
        "begin + 8 puts + commit + reclaim over the volatile pager"
    );
}

#[test]
fn tree_get_allocates_only_the_value_it_returns() {
    let mut t = Tree::create(&tree_config()).expect("format tree heap");
    let preload: Vec<u64> = (0..200).map(|k| 2 * k).collect();
    tree_txn(&mut t, &preload, 7);
    let (n, hit) = allocations(|| t.get(246));
    assert_eq!(hit.as_deref(), Some(&[7u8; 40][..]));
    assert_eq!(n, 1, "a hit allocates the returned value and nothing else");
    let (n, miss) = allocations(|| t.get(247));
    assert_eq!(miss, None);
    assert_eq!(n, 0, "a miss borrows its way down and returns");
}

#[test]
fn tree_engine_serve_batch_allocates_the_reply_vector_only() {
    let mut e = TreeEngine::new(&TreeEngineConfig {
        tree: tree_config(),
    });
    let puts = |tag: u8| -> Vec<BatchRequest> {
        (0..64u64)
            .map(|k| BatchRequest::Put(k, vec![tag; 40]))
            .collect()
    };
    for tag in 0..3 {
        e.serve_batch(&puts(tag)); // inserts, then two rounds of updates
    }
    let reqs = puts(3);
    let (n, replies) = allocations(|| e.serve_batch(&reqs));
    assert!(replies.iter().all(|r| *r == BatchReply::Done(true)));
    assert!(
        n <= 2,
        "64 Puts in one transaction allocated {n} times: the reply \
         vector, not a map, a path or a page list per put"
    );

    let get = [BatchRequest::Get(63)];
    let (n, replies) = allocations(|| e.serve_batch(&get));
    assert_eq!(replies, [BatchReply::Value(Some(vec![3u8; 40]))]);
    assert!(
        n <= 2,
        "one Get allocated {n} times: the reply vector and the value"
    );
}
