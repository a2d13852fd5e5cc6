//! A persistent key-value store session: failure-atomic write
//! transactions, snapshot reads, crash injection and recovery — the
//! MDB-style copy-on-write B+-tree from the paper's case study.
//!
//! ```text
//! cargo run --example kvstore
//! ```

use nvcache::core::PolicyKind;
use nvcache::pmem::CrashMode;
use nvcache::workloads::mdb::PBTree;

fn main() {
    // the store persists through an adaptive software cache
    let mut db = PBTree::new(10_000, &PolicyKind::ScAdaptive(Default::default()));

    // --- transactional writes -----------------------------------------
    db.begin_txn();
    for i in 0..1_000u64 {
        db.insert(i, i * i);
    }
    db.commit();
    println!("loaded 1000 keys; len = {}", db.len());

    // --- snapshot isolation ---------------------------------------------
    let snap = db.snapshot();
    db.begin_txn();
    for i in 0..1_000u64 {
        db.insert(i, 0xdead);
    }
    db.commit();
    println!(
        "after overwrite: current get(7) = {:?}, snapshot get(7) = {:?}",
        db.get(7),
        db.get_at(snap, 7)
    );
    assert_eq!(db.get_at(snap, 7), Some(49), "reader still sees version 1");

    // --- crash in the middle of a transaction ---------------------------
    db.begin_txn();
    for i in 0..500u64 {
        db.insert(i, 0xbeef);
    }
    // power fails before commit — worst case: every in-flight line lands
    db.crash_and_recover(&CrashMode::AllInFlightLands);
    println!(
        "after mid-transaction crash: get(7) = {:?} (rolled back)",
        {
            let v = db.get(7);
            assert_eq!(v, Some(0xdead), "uncommitted txn must vanish");
            v
        }
    );

    // --- deletes --------------------------------------------------------
    // (fresh txn state after recovery)
    let mut db2 = PBTree::new(1_000, &PolicyKind::ScFixed { capacity: 20 });
    db2.begin_txn();
    for i in 0..100u64 {
        db2.insert(i, i);
    }
    for i in (0..100u64).step_by(2) {
        db2.delete(i);
    }
    db2.commit();
    println!("insert 100 / delete evens: len = {}", db2.len());
    assert_eq!(db2.len(), 50);

    let stats = db2.runtime_mut().stats();
    println!(
        "runtime: {} stores, {} data flushes (ratio {:.4}), {} FASEs",
        stats.stores,
        stats.data_flushes,
        stats.flush_ratio(),
        stats.fases
    );
}
