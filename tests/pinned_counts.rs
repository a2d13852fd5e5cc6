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
//! was not touched. Then the volatile slab went, and both programs
//! allocate from the persistent heap alone, which persists each fresh
//! block and each free instead of one cursor update per 32-block chunk.
//! The heap places a fresh block on a multiple of `min(block, 64)`, as
//! the slab's per-class chunks did, so the shard program's nodes sit on
//! the lines they sat on and `store_lines` stayed 4 587. Re-recorded:
//! the shard's `steps()` (11 885 → 12 171), `PmemStats` (flushes
//! 6 914 → 7 018, fences 610 → 701), `FaseStats.data_flushes` (4 016 →
//! 4 026) and `RingStats` (the policy sees the same lines in other
//! places, so it evicts and sweeps a little differently); the tree's
//! `steps()` (7 004 → 7 073) and `PmemStats` (flushes 3 658 → 3 681,
//! fences 308 → 331), one persist per 4 KiB segment. The heap's term in
//! each flush and fence identity moved with them. The tree's
//! `FaseStats`, `RingStats`, shape and the shard's `LogStats` did not.
//! Then hash updates stopped logging: a node holds two stamped value
//! slots, an update writes the one not committed and the FASE commits
//! by publishing the shard's epoch word, which a one-line head block
//! now holds beside the bucket array's offset. Only the shard program
//! was re-recorded, every literal of it: `steps()` 12 171 → 9 101;
//! `PmemStats` flushes 7 018 → 4 567, fences 701 → 523, stores 4 452 →
//! 4 011 (a fresh node is one store, a slot is one store), bytes written
//! 356 312 → 206 672; `LogStats` records 2 977 → 107, record lines 2 889
//! → 37 and commit lines 200 → 20, all of them now the 20 batches that
//! insert; `FaseStats` stores 3 939 → 3 857, store lines 4 587 → 4 906
//! (the published epoch, a fresh node's void second slot header on the
//! next line, and 100-byte slots that span three lines) and data
//! flushes 4 026 → 4 647; `RingStats` submitted 4 647, flushed 4 408,
//! sweeps 3 175 and drains 382 (each published epoch drains on its
//! own). The heap's term in the flush identity went 101 → 102 (the
//! head block), and the program gained the fence identity the tree's
//! has. The tree program did not move.

use nvcache::core::PolicyKind;
use nvcache::fase::{FaseStats, LogStats};
use nvcache::kvstore::{Shard, ShardConfig};
use nvcache::pmem::{CrashMode, PmemStats, RingStats};
use nvcache::treestore::{Tree, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 200 seeded `put_many` batches of 1..=32 items over 96 keys on a
/// shard: fresh inserts, slot updates, repeated keys
/// inside one batch, bucket-head threading, 100-byte values that
/// straddle cache lines, and — every 16th key — empty values, whose
/// update writes a slot header and nothing else.
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
    assert_eq!(shard.steps(), 9_101);
    let rt = shard.runtime_mut();
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 206_672,
            stores: 4_011,
            flushes: 4_567,
            fences: 523,
            crashes: 0,
        }
    );
    // only the 20 batches that insert log: their bucket heads, and the
    // epoch word when they also update
    assert_eq!(
        rt.log_stats(),
        LogStats {
            entries: 107,
            elided: 8,
            commits: 201,
            rollbacks: 0,
            bytes_logged: 856,
            record_lines: 37,
            commit_lines: 20,
        }
    );
    // the flushes by kind: data through the ring — the policy's lines
    // and each published epoch word — the log's groups and epoch bumps,
    // and 102 persists of the heap and the log's format: one per node,
    // the bucket array, the head block and the root, three to format
    let (pmem, ring, log, fase) = (
        rt.region().stats(),
        rt.ring_stats(),
        rt.log_stats(),
        rt.stats(),
    );
    assert_eq!(
        pmem.flushes,
        ring.flushed + log.record_lines + log.commit_lines + 102
    );
    // and the fences: a data fence and a commit fence — the published
    // epoch's or the log's bump — per FASE, the prelog's fence of each
    // FASE that logged, and 101 for those 102 persisted lines
    assert_eq!(
        pmem.fences,
        fase.fences + fase.fases + log.commit_lines + 101
    );
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 201,
            stores: 3_857,
            store_lines: 4_906,
            data_flushes: 4_647,
            fences: 201,
            rollbacks: 0,
        }
    );
    // a published epoch is a drain of its own: 181 more drains, one per
    // FASE that logged nothing (the set-up FASE among them)
    assert_eq!(
        rt.ring_stats(),
        RingStats {
            submitted: 4_647,
            flushed: 4_408,
            elided: 0,
            sweeps: 3_175,
            drains: 382,
        }
    );
}

/// 150 seeded transactions of 1..=12 puts and deletes over 400 keys on
/// a tree: leaf and inner splits, in-transaction second
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
    assert_eq!(t.steps(), 7_073);
    let rt = t.store_mut().runtime_mut();
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 242_640,
            stores: 3_061,
            flushes: 3_681,
            fences: 331,
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
    // 29 persisted lines of the heap and the log's format; the log
    // holds no group
    let (pmem, ring, log, fase) = (
        rt.region().stats(),
        rt.ring_stats(),
        rt.log_stats(),
        rt.stats(),
    );
    assert_eq!(
        pmem.flushes,
        ring.flushed + log.record_lines + log.commit_lines + 29
    );
    // and the fences: a data fence and a publish fence per FASE, the
    // recovery's epoch bump, and 28 for those 29 persisted lines
    assert_eq!(
        pmem.fences,
        fase.fences + fase.fases + log.commit_lines + 28
    );
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
