//! The persistence counts of two fixed programs, as literals.
//!
//! Every layer under `Shard::put_many` — the region's line tracking,
//! the flush ring's drain, the undo log's grouped append, the shard's
//! own planning — and every volatile structure of the tree — its remap,
//! its free list, its transaction bookkeeping — may get faster, but
//! none may execute one store, flush or fence more or less than it did:
//! the crash matrices index crash points by micro-step, and the
//! benchmark's `flush_ratio` / `nvm_flushes_per_op` are these counters
//! divided. The shard program's numbers were recorded before PR 17
//! replaced the region's hash maps with a dense line-state array, the
//! tree program's before PR 18 replaced the tree's hashed remap with a
//! slot table and its page copies with borrows; both were carried over
//! unchanged until PR 21 changed the undo log's on-media protocol on
//! purpose (self-validating groups written with one store, one record
//! per location, unlogged fresh nodes, commit by epoch bump): `steps()`
//! and `PmemStats` were re-recorded there, with the log's share of the
//! flushes pinned by kind — while `FaseStats`, `RingStats` and the tree's
//! shape stayed the literals they had always been, because what the
//! programs store, and what the policy flushes, did not move. PR 22
//! changed what the *tree* program stores, on purpose: a put writes the
//! bytes it changed (used-byte shadow copies, in-place edits of pages
//! the transaction already holds) instead of the page, so that
//! program's `steps()`, `PmemStats`, `FaseStats`, `RingStats` and the
//! log's record lines (`format` logs a header, not a page) were
//! re-recorded — more, smaller stores (1 860 → 3 019), fewer flushes
//! (4 532 → 4 116) — while its `len`, `height`, page and free-page
//! counts and every literal of the shard program did not move. When the
//! ring became the runtime's only flush path, the shard program's
//! set-up FASE, which had run before the shard switched to the ring,
//! joined it: the shard's `RingStats` gained that FASE's four lines, one
//! sweep and one drain, and no other literal of either program moved.
//! The log's layout moved again when its record area moved to a line of
//! its own (byte 16 → 64, so a FASE's first group no longer shares the
//! header's line) and a per-store logged write began to record only the
//! runs of words it changes: `steps()`, `PmemStats` and `LogStats` were
//! re-recorded for both programs, nothing else. The shard's set-up FASE
//! writes zeros onto a fresh heap, so it logs nothing and commits for
//! free (32 records, 100 record lines — 48 of them its own — and one
//! epoch line fewer); the tree's commits log the 2–4 words of the meta
//! head that change instead of all 64 bytes (records 154 → 261, bytes
//! logged 9 704 → 3 368, record lines 307 → 171). `FaseStats`,
//! `RingStats` and the tree's shape stayed the literals they were: what
//! the programs store, and what the policy flushes, did not move. Then
//! the tree stopped logging its commits: the meta head became the FASE's
//! commit record (`FaseRuntime::publish`), written after the data fence
//! into one of two self-checking slots, flushed through the ring and
//! fenced, and the attach's void pass became unlogged. Only the tree
//! program was re-recorded. Its log went to no group at all (records
//! 261 → 0, record lines 171 → 0, commit lines 152 → 1, the recovery's),
//! its fences to two per FASE (462 → 308) and its flushes 3 980 →
//! 3 658. In `RingStats`, only `drains` (151 → 300) and `sweeps`
//! (1 622 → 1 623) moved, for the reasons given at the literal. The
//! head is still one store of one line and one data flush, so
//! `FaseStats` and the tree's shape did not move, and the shard program
//! was not touched.

use nvcache::core::PolicyKind;
use nvcache::fase::{FaseStats, LogStats};
use nvcache::kvstore::{Shard, ShardConfig};
use nvcache::pmem::{CrashMode, PmemStats, RingStats};
use nvcache::treestore::{Tree, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 200 seeded `put_many` batches of 1..=32 items over 96 keys on a
/// slab shard: fresh inserts, in-place updates, repeated keys
/// inside one batch, bucket-head threading, 100-byte values that
/// straddle cache lines, and — every 16th key — empty values, whose
/// in-place update is a zero-length region write.
#[test]
fn put_many_program_counts_are_pinned() {
    let mut shard = Shard::new(&ShardConfig {
        buckets: 32,
        data_len: 1 << 18,
        log_len: 1 << 15,
        policy: PolicyKind::ScFixed { capacity: 8 },
        adapt: None,
        pipelined: true,
    });
    let mut rng = SmallRng::seed_from_u64(0x17_c0de);
    for op in 0..200u64 {
        let n = rng.gen_range(1..33usize);
        let batch: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|_| {
                let key = rng.gen_range(0..96u64);
                let len = match key % 16 {
                    0 => 0,
                    1..=3 => 100,
                    _ => 40,
                };
                (key, vec![op as u8; len])
            })
            .collect();
        assert!(shard.put_many(&batch), "batch {op}");
    }
    assert_eq!(shard.len(), 96, "every key was inserted");
    assert_eq!(shard.steps(), 11_885);
    let rt = shard.runtime_mut();
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 355_584,
            stores: 4_361,
            flushes: 6_914,
            fences: 610,
            crashes: 0,
        }
    );
    assert_eq!(
        rt.log_stats(),
        LogStats {
            entries: 2_977,
            elided: 302,
            commits: 201,
            rollbacks: 0,
            bytes_logged: 150_764,
            record_lines: 2_889,
            commit_lines: 200,
        }
    );
    // the flushes by kind: data through the ring, the log's groups and
    // epoch bumps, the heap's own ten persists
    let (pmem, ring, log) = (rt.region().stats(), rt.ring_stats(), rt.log_stats());
    assert_eq!(
        pmem.flushes,
        ring.flushed + log.record_lines + log.commit_lines + 10
    );
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 201,
            stores: 3_939,
            store_lines: 4_587,
            data_flushes: 4_016,
            fences: 201,
            rollbacks: 0,
        }
    );
    assert_eq!(
        rt.ring_stats(),
        RingStats {
            submitted: 4_016,
            flushed: 3_815,
            elided: 0,
            sweeps: 2_539,
            drains: 201,
        }
    );
}

/// 150 seeded transactions of 1..=12 puts and deletes over 400 keys on
/// a slab tree: leaf and inner splits, in-transaction second
/// touches, a snapshot pinned across fifteen commits (retired pages
/// held back, then recycled in one sweep) and a power failure two
/// thirds of the way through. Which physical page a transaction gets
/// is decided by the order pages entered the free list, and a different
/// page is a different line under the cache — so these literals also
/// pin the order `reclaim` and recovery free pages in.
#[test]
fn tree_txn_program_counts_are_pinned() {
    let mut t = Tree::create(&TreeConfig {
        data_len: 1 << 21,
        log_len: 1 << 16,
        policy: PolicyKind::ScFixed { capacity: 8 },
        pipelined: true,
    })
    .expect("format tree heap");
    let mut rng = SmallRng::seed_from_u64(0x18_c0de);
    let mut snap = None;
    for txn in 0..150u64 {
        match txn {
            40 => snap = Some(t.pin()),
            55 => t.unpin(snap.take().expect("pinned at 40")),
            100 => t
                .crash_and_recover(&CrashMode::StrictDurableOnly)
                .expect("recover"),
            _ => {}
        }
        t.begin();
        for _ in 0..rng.gen_range(1..13usize) {
            let key = rng.gen_range(0..400u64);
            if rng.gen_range(0..8u32) == 0 {
                t.delete(key).expect("delete");
            } else {
                let len = match key % 16 {
                    0 => 0,
                    1..=3 => 100,
                    _ => 40,
                };
                t.put(key, &vec![txn as u8; len]).expect("put");
            }
        }
        t.commit();
    }
    assert_eq!(t.len(), 301);
    assert_eq!(t.height(), 3);
    assert_eq!(t.pages_allocated(), 357);
    assert_eq!(t.free_pages(), 22);
    assert_eq!(t.steps(), 7_004);
    let rt = t.store_mut().runtime_mut();
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 242_456,
            stores: 3_038,
            flushes: 3_658,
            fences: 308,
            crashes: 1,
        }
    );
    assert_eq!(
        rt.log_stats(),
        LogStats {
            entries: 0,
            elided: 0,
            commits: 151,
            rollbacks: 0,
            bytes_logged: 0,
            record_lines: 0,
            commit_lines: 1,
        }
    );
    // the flushes by kind: data through the ring — the policy's lines
    // and each FASE's published head — the recovery's epoch bump, the
    // heap's six persists; the log holds no group
    let (pmem, ring, log, fase) = (
        rt.region().stats(),
        rt.ring_stats(),
        rt.log_stats(),
        rt.stats(),
    );
    assert_eq!(
        pmem.flushes,
        ring.flushed + log.record_lines + log.commit_lines + 6
    );
    // and the fences: a data fence and a publish fence per FASE, the
    // recovery's epoch bump, and five for those six persisted lines
    assert_eq!(pmem.fences, fase.fences + fase.fases + log.commit_lines + 5);
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 151,
            stores: 3_019,
            store_lines: 5_467,
            data_flushes: 3_853,
            fences: 151,
            rollbacks: 0,
        }
    );
    // a published head is a drain and a sweep of its own: 151 more
    // drains, less the two FASEs (empty transactions) whose head was all
    // their data, so their data drain now finds nothing; one more sweep,
    // because the format FASE's head no longer shares a sweep with the
    // adjacent line of the segment-table directory
    assert_eq!(
        rt.ring_stats(),
        RingStats {
            submitted: 3_853,
            flushed: 3_651,
            elided: 0,
            sweeps: 1_623,
            drains: 300,
        }
    );
}
