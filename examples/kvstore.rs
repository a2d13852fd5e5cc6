//! A persistent key-value store session: failure-atomic write
//! transactions, snapshot reads, crash injection and recovery — the
//! MDB-style copy-on-write B+-tree from the paper's case study.
//!
//! ```text
//! cargo run --example kvstore
//! ```

use nvcache::core::PolicyKind;
use nvcache::pmem::CrashMode;
use nvcache::treestore::{Tree, TreeConfig};

fn value(v: Option<Vec<u8>>) -> Option<u64> {
    v.map(|b| u64::from_le_bytes(b[..8].try_into().expect("8-byte value")))
}

fn main() {
    // the store persists through an adaptive software cache
    let mut db = Tree::create(&TreeConfig {
        data_len: 8 << 20,
        policy: PolicyKind::ScAdaptive(Default::default()),
        ..Default::default()
    })
    .expect("format tree heap");

    // --- transactional writes -----------------------------------------
    db.begin();
    for i in 0..1_000u64 {
        db.put(i, &(i * i).to_le_bytes()).expect("heap space");
    }
    db.commit();
    println!("loaded 1000 keys; len = {}", db.len());

    // --- snapshot isolation ---------------------------------------------
    let snap = db.pin();
    db.begin();
    for i in 0..1_000u64 {
        db.put(i, &0xdead_u64.to_le_bytes()).expect("heap space");
    }
    db.commit();
    println!(
        "after overwrite: current get(7) = {:?}, snapshot get(7) = {:?}",
        value(db.get(7)),
        value(db.get_at(&snap, 7))
    );
    assert_eq!(
        value(db.get_at(&snap, 7)),
        Some(49),
        "reader still sees version 1"
    );
    db.unpin(snap);

    // --- crash in the middle of a transaction ---------------------------
    db.begin();
    for i in 0..500u64 {
        db.put(i, &0xbeef_u64.to_le_bytes()).expect("heap space");
    }
    // power fails before commit — worst case: every in-flight line lands
    db.crash_and_recover(&CrashMode::AllInFlightLands)
        .expect("tree recovery");
    let v = value(db.get(7));
    assert_eq!(v, Some(0xdead), "uncommitted txn must vanish");
    println!("after mid-transaction crash: get(7) = {v:?} (rolled back)");

    // --- deletes --------------------------------------------------------
    db.begin();
    for i in (0..1_000u64).step_by(2) {
        db.delete(i).expect("heap space");
    }
    db.commit();
    println!("delete evens: len = {}", db.len());
    assert_eq!(db.len(), 500);

    let stats = db.store().runtime().stats();
    println!(
        "runtime: {} stores, {} data flushes (ratio {:.4}), {} FASEs",
        stats.stores,
        stats.data_flushes,
        stats.flush_ratio(),
        stats.fases
    );
}
