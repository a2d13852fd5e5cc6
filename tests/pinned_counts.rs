//! The persistence counts of three fixed programs, as literals.
//!
//! Every layer under `Shard::put_many` — the region's line tracking,
//! the flush ring's drain, the shard's own planning — and every volatile structure of the tree — its remap,
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
//! Then the shard stopped storing pointers: its data area became a head
//! line, a class table and 4 KiB segments of equal blocks that recovery
//! scans, and inserts, deletes and class moves began to commit as
//! updates do, by the published epoch word. Only the shard program was
//! re-recorded, every literal of it: `steps()` 9 101 → 8 126;
//! `PmemStats` flushes 4 567 → 3 973, fences 523 → 415, stores 4 011 →
//! 3 738, bytes written 206 672 → 201 080; `LogStats` records 107 → 0,
//! record lines 37 → 0 and commit lines 20 → 0 — the shard logs
//! nothing; `FaseStats` FASEs 201 → 207 (six segments carved, each by a
//! FASE of its own), stores 3 857 → 3 736, store lines 4 906 → 4 384
//! (a fresh node is its key and one slot, no bucket head, no void
//! second header, and a slot's offset follows its class: a 100-byte
//! slot spans two lines, not three) and data flushes 4 647 → 4 153;
//! `RingStats` submitted 4 153, flushed 3 972, sweeps 3 183 and drains
//! 407 (every FASE's commit record drains on its own). Neither heap nor
//! root persists any more: the flush identity's constant went 102 → 1,
//! the log's format. The tree program did not move.
//! Then hash FASEs began to commit by their own sealed slots: the head
//! lost its epoch word, a slot gained a seal word (its FASE's slot count
//! and a checksum), a FASE ends with one drain and one fence, and the
//! set-up's head and a carve's class byte are persisted outside any FASE
//! (one store, one flush, one fence each). Only the shard program was
//! re-recorded, every literal of it: `steps()` 8 126 → 7 539;
//! `PmemStats` flushes 3 973 → 3 793, fences 415 → 208, stores 3 738 →
//! 3 538, bytes written 201 080 → 227 662 (a seal word per slot);
//! `LogStats` commits 207 → 200; `FaseStats` FASEs 207 → 200 (the set-up
//! and the six carves are no FASEs), stores 3 736 → 3 536 and store
//! lines 4 384 → 4 184 (200 epoch words fewer: the data stores and
//! their lines did not move), data flushes 4 153 → 3 968; `RingStats`
//! submitted 3 968, flushed 3 972 → 3 792, sweeps 3 183 → 3 019, drains
//! 407 → 207 (one per FASE and per persist). Empty values moved from
//! 32- to 64-byte blocks — a 32-byte block has no room for a sealed
//! slot — so two of their nodes no longer share a line: the policy's
//! own flushes grew by 15, its flushed lines by 20. The identities
//! became `flushes = ring.flushed + 1` and `fences = fase.fences + 1`.
//! The tree program did not move.
//! Then tree transactions began to commit by their own sealed pages, as
//! hash FASEs do: the meta head and its publish went; a page header
//! gained a seal (a checksum in w0's upper half and, on the page a
//! transaction writes last, the count of pages it leaves live, stored by
//! one closing store at commit); an overwrite of a committed key stores
//! the leaf's w0 beside the value pointer; a key put twice in one
//! transaction rewrites the value cell it allocated; and a transaction
//! that writes nothing stamps nothing. Only the tree program was
//! re-recorded: `steps()` 7 073 → 7 156; `PmemStats` bytes written
//! 242 640 → 238 552, stores 3 061 → 3 457, flushes 3 681 → 3 519,
//! fences 331 → 180; `FaseStats` stores 3 019 → 3 415 and store lines
//! 5 467 → 5 863 (an overwrite's w0 and a closing store per transaction
//! against 151 head records), data flushes 3 853 → 3 719; `RingStats`
//! submitted 3 853 → 3 719, flushed 3 651 → 3 489, sweeps 1 623 → 1 465
//! and drains 300 → 149 (one per FASE that stored anything). The fence
//! identity lost its publish term. The tree's `len`, `height`, pages and
//! free pages, its `LogStats` and its FASEs and fences did not move,
//! nor did the shard program.
//! Then `RingStats::elided`, until then a constant 0, began to count
//! the submissions a drain collapses (a line submitted twice before one
//! drain is swept once), so `submitted == flushed + elided`: the
//! shard's reads 176, the tree's 230. Nothing either program does moved,
//! and no other literal did. The tree program became a function of its
//! policy, so a second test runs it unchanged under Eager, SC-8 and
//! Lazy.
//! Then the tree's image became the hash shard's segment table: the
//! heap, its root pointer, the meta block and the two-level segment
//! table went, and a segment is carved by persisting its class byte —
//! one store, one flush of its own line, one fence, inside the
//! transaction and without draining its ring — where the heap persisted
//! its cursor and the transaction stored a table entry. For that,
//! `FaseRuntime::persist` stopped passing its line through the ring, so
//! the shard program's `RingStats` lost its seven persists' submissions,
//! sweeps and drains (submitted 3 968 → 3 961, flushed 3 792 → 3 785,
//! sweeps 3 019 → 3 012, drains 207 → 200) and its flush identity gained
//! them; no other literal of it moved. The tree program was re-recorded:
//! `steps()` 7 156 → 7 085; `PmemStats` bytes written 238 552 → 238 079,
//! stores 3 457 → 3 418, flushes 3 519 → 3 491, fences 180 → 176;
//! `FaseStats` data flushes 3 719 → 3 714 and fences 151 → 174 (a carve
//! counts a store, a line, a data flush and a fence, where the table
//! entry it replaces counted a store and a line); `RingStats` submitted
//! 3 719 → 3 691, flushed 3 489 → 3 466, elided 230 → 225, sweeps
//! 1 465 → 1 442. The identities' 29 persisted lines of the heap became
//! the log's format and one line per carve (23). The tree's shape,
//! `LogStats` and FASEs did not move.
//! Then the undo log became optional in `FaseRuntime` and both engines
//! dropped theirs: no engine formats a log, and a crash bumps no epoch.
//! Re-recorded, both programs: the shard's `steps()` 7 539 → 7 535 and
//! `PmemStats` bytes written 227 662 → 227 646, stores 3 538 → 3 536,
//! flushes 3 793 → 3 792, fences 208 → 207 (the format's two words, its
//! line and its fence); the tree's `steps()` 7 085 → 7 078 and
//! `PmemStats` bytes written 238 079 → 238 055, stores 3 418 → 3 415,
//! flushes 3 491 → 3 489, fences 176 → 174 (the format's, and the
//! recovery's epoch bump: a store, a line and a fence). `LogStats` went
//! to all zeros (commits 200 → 0 and 151 → 0, the tree's commit lines
//! 1 → 0), and the flush and fence identities lost their format and
//! recovery terms. `FaseStats`, `RingStats` and the tree's shape did not
//! move: what the programs store, and what the policy flushes, is what
//! it was.
//! Then a leaf overwritten in place began to keep its superseded copy
//! as a spare, and a page's Clean copy to land on its spare, leaving
//! out each line that needs no write-back: one whose used bytes the
//! spare already holds and that the edit after the copy does not store
//! into. A page without a spare is still copied whole onto a page of
//! the free list. Only the tree program was re-recorded: pages 357 →
//! 367 and free pages 22 → 32 (the free list and the spares: a spare
//! keeps its page off the free list, so value cells take more pages
//! from the high-water mark); `steps()` 7 078 → 6 970; `PmemStats`
//! bytes written 238 055 → 229 295, stores 3 415 → 3 490 (a copy onto
//! a spare is a store per run of lines), flushes 3 489 → 3 306;
//! `FaseStats` stores 3 415 → 3 490, store lines 5 863 → 5 663 and data
//! flushes 3 714 → 3 518; `RingStats` submitted 3 691 → 3 495, flushed
//! 3 466 → 3 283, elided 225 → 212 and sweeps 1 442 → 1 520. The tree's
//! `len` and `height`, its segments, FASEs, fences and drains,
//! `LogStats` and the shard program did not move.
//! Neither engine logs, so a third program pins the undo log's own
//! traffic: a bare runtime whose every store is logged as one group of
//! the words it changes. Its literals were recorded before the runtime's
//! second append path (a FASE's whole write set announced up front as
//! one covering group) went, and did not move when it did: the group a
//! store logs is the log's only writer, and its bytes are what they
//! were.

use nvcache::cachesim::{CacheStats, MachineConfig, MachineReport};
use nvcache::core::{run_policy, AdaptiveConfig, PolicyKind, RunConfig};
use nvcache::fase::{FaseRuntime, FaseStats, LogStats};
use nvcache::kvstore::{Shard, ShardConfig};
use nvcache::pmem::{CrashMode, PmemStats, RingStats};
use nvcache::trace::{Line, ThreadTrace, Trace};
use nvcache::treestore::{Tree, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 200 seeded `put_many` batches of 1..=32 items over 96 keys on a
/// shard: fresh inserts, slot updates, repeated keys inside one batch,
/// segments of three classes carved, 100-byte values that straddle
/// cache lines, and — every 16th key — empty values, whose update
/// writes a slot header and nothing else.
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
    let rt = shard.runtime_mut();
    assert_eq!(rt.steps(), 7_535);
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 227_646,
            stores: 3_536,
            flushes: 3_792,
            fences: 207,
            crashes: 0,
        }
    );
    // the shard has no undo log: every FASE commits by its sealed slots
    assert_eq!(rt.log_stats(), LogStats::default());
    // the flushes by kind: the policy's lines through the ring and the
    // seven persists (the head and the class bytes)
    let (pmem, ring, fase) = (rt.region().stats(), rt.ring_stats(), rt.stats());
    assert_eq!(pmem.flushes, ring.flushed + 7);
    // and the fences: one per FASE and one per persist
    assert_eq!(pmem.fences, fase.fences);
    // 200 batches; seven persists (the head and six carves: one segment
    // of empty values, two of 100-byte, three of 40-byte) count a store,
    // a line, a data flush and a fence each
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 200,
            stores: 3_536,
            store_lines: 4_184,
            data_flushes: 3_968,
            fences: 207,
            rollbacks: 0,
        }
    );
    // one drain per FASE: a persist flushes its line itself
    assert_eq!(
        rt.ring_stats(),
        RingStats {
            submitted: 3_961,
            flushed: 3_785,
            elided: 176,
            sweeps: 3_012,
            drains: 200,
        }
    );
}

/// 150 seeded transactions of 1..=12 puts and deletes over 400 keys on
/// a tree under `policy`: leaf and inner splits, in-transaction second
/// touches, a snapshot pinned across fifteen commits (retired pages
/// held back, then recycled in one sweep) and a power failure two
/// thirds of the way through.
fn tree_txn_program(policy: PolicyKind) -> Tree {
    let mut t = Tree::create(&TreeConfig {
        data_len: 1 << 21,
        log_len: 1 << 16,
        policy,
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
    t
}

/// The tree program under SC-8. Which physical page a transaction gets
/// is decided by the order pages entered the free list, and a different
/// page is a different line under the cache — so these literals also
/// pin the order `reclaim` and recovery free pages in.
#[test]
fn tree_txn_program_counts_are_pinned() {
    let mut t = tree_txn_program(PolicyKind::ScFixed { capacity: 8 });
    assert_eq!(t.len(), 301);
    assert_eq!(t.height(), 3);
    assert_eq!(t.pages_allocated(), 367);
    assert_eq!(t.free_pages(), 32);
    // 367 pages: 23 segments carved
    assert_eq!(t.pages_allocated().div_ceil(16), 23);
    assert_eq!(t.store().runtime().steps(), 6_970);
    let rt = t.store_mut().runtime_mut();
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 229_295,
            stores: 3_490,
            flushes: 3_306,
            fences: 174,
            crashes: 1,
        }
    );
    // the tree has no undo log
    assert_eq!(rt.log_stats(), LogStats::default());
    // the flushes by kind: data through the ring — the policy's lines,
    // the head's among them — and the class byte of each of the 23
    // carves
    let (pmem, ring, fase) = (rt.region().stats(), rt.ring_stats(), rt.stats());
    assert_eq!(pmem.flushes, ring.flushed + 23);
    // and the fences: one per FASE and one per carve
    assert_eq!(fase.fences, fase.fases + 23);
    assert_eq!(pmem.fences, fase.fences);
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 151,
            stores: 3_490,
            store_lines: 5_663,
            data_flushes: 3_518,
            fences: 174,
            rollbacks: 0,
        }
    );
    // one drain per FASE that stored anything: the two empty
    // transactions drain nothing
    assert_eq!(
        rt.ring_stats(),
        RingStats {
            submitted: 3_495,
            flushed: 3_283,
            elided: 212,
            sweeps: 1_520,
            drains: 149,
        }
    );
}

/// The tree program's NVM flushes do not depend on the policy. Every
/// transaction drains its ring at its end, and a drain sweeps a line
/// submitted twice only once, so the lines a transaction flushes are the
/// lines it stored, however early the policy submits them. Eager submits
/// a store's lines at every store, SC-8 at each eviction and at the end,
/// and Lazy each line once, at the end. On an engine lane the cache
/// moves submissions, not flushes.
#[test]
fn tree_program_flushes_do_not_depend_on_the_policy() {
    let policies = [
        PolicyKind::Eager,
        PolicyKind::ScFixed { capacity: 8 },
        PolicyKind::Lazy,
    ];
    let [eager, sc, lazy] = policies.map(|policy| {
        let mut t = tree_txn_program(policy);
        let rt = t.store_mut().runtime_mut();
        (rt.region().stats().flushes, rt.ring_stats())
    });
    assert_eq!(eager.0, sc.0, "Eager and SC-8 flush alike");
    assert_eq!(sc.0, lazy.0, "SC-8 and Lazy flush alike");
    assert!(
        eager.1.submitted >= sc.1.submitted && sc.1.submitted >= lazy.1.submitted,
        "submissions: Eager {} ≥ SC-8 {} ≥ Lazy {}",
        eager.1.submitted,
        sc.1.submitted,
        lazy.1.submitted
    );
    assert_eq!(lazy.1.submitted, lazy.1.flushed, "Lazy submits a line once");
    for (_, ring) in [eager, sc, lazy] {
        assert_eq!(ring.submitted - ring.flushed, ring.elided);
    }
}

/// 200 seeded FASEs on a bare runtime with an undo log under SC-8,
/// every store logged: 8-byte stores at seeded offsets, 40-byte stores
/// that change two runs of words (words 0 and 3 of five, so the runs do
/// not merge), rewrites of the value a word already holds (no group),
/// and a power failure inside FASE 130. No engine logs, so this is the
/// program that pins the undo log's own traffic.
#[test]
fn logged_fase_program_counts_are_pinned() {
    const WORDS: usize = 256;
    let mut rt = FaseRuntime::new(WORDS * 8, 1 << 14, &PolicyKind::ScFixed { capacity: 8 });
    let mut rng = SmallRng::seed_from_u64(0x54_c0de);
    for fase in 0..200u64 {
        rt.begin_fase();
        for _ in 0..rng.gen_range(1..9usize) {
            let at = rng.gen_range(0..WORDS - 5) * 8;
            match rng.gen_range(0..4u32) {
                0 => {
                    let mut bytes = rt.region().slice(at, 40).to_vec();
                    bytes[..8].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                    bytes[24..32].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                    rt.store(at, &bytes);
                }
                1 => {
                    let same = rt.load_u64(at);
                    rt.store_u64(at, same);
                }
                _ => rt.store_u64(at, rng.gen()),
            }
        }
        if fase == 130 {
            rt.crash_and_recover(&CrashMode::AllInFlightLands);
        } else {
            rt.end_fase();
        }
    }
    assert_eq!(rt.steps(), 4_589);
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 38_472,
            stores: 1_689,
            flushes: 1_886,
            fences: 1_014,
            crashes: 1,
        }
    );
    // every record is one changed word (a 40-byte store logs two), and
    // 19 committed FASEs only rewrote what they found: they logged
    // nothing and committed without an epoch line (181 = 199 − 19 + the
    // recovery's)
    let log = rt.log_stats();
    assert_eq!(log.entries, 836);
    assert_eq!(log.commits, 199);
    assert_eq!(log.rollbacks, 1);
    assert_eq!(log.bytes_logged, 836 * 8);
    assert_eq!(log.record_lines, 798);
    assert_eq!(log.commit_lines, 181);
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 199,
            stores: 862,
            store_lines: 977,
            data_flushes: 895,
            fences: 199,
            rollbacks: 1,
        }
    );
}

/// One replayed thread's program: 150 seeded FASEs of 1..=48 stores,
/// 70 % of them to 48 hot lines and the rest over 1 024, with loads
/// and work between them. One FASE in eight streams 600 loads through
/// the 512-line L1 halfway through, so dirty lines are evicted before
/// the policy flushes them.
fn replay_thread(seed: u64) -> ThreadTrace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = ThreadTrace::new();
    for _ in 0..150 {
        t.fase_begin();
        let stores = rng.gen_range(1..49u32);
        let stream = rng.gen_range(0..8u32) == 0;
        for i in 0..stores {
            let line = if rng.gen_range(0..10u32) < 7 {
                rng.gen_range(0..48u64)
            } else {
                rng.gen_range(0..1_024u64)
            };
            t.write(Line(line));
            if rng.gen_range(0..10u32) < 3 {
                t.read(Line(rng.gen_range(0..2_048u64)));
            }
            if stream && i == stores / 2 {
                let base = rng.gen_range(4_096..8_192u64);
                (base..base + 600).for_each(|l| t.read(Line(l)));
            }
            t.work(rng.gen_range(0..6u32));
        }
        t.fase_end();
        t.work(rng.gen_range(0..40u32));
    }
    t
}

/// A [`MachineReport`] as a row of named fields; the destructuring is
/// exhaustive, so a field added to the report fails to compile here.
fn report_fields(r: &MachineReport) -> [(&'static str, u64); 11] {
    let MachineReport {
        cycles,
        instructions,
        l1:
            CacheStats {
                hits,
                misses,
                evict_writebacks,
                flush_present,
                flush_absent,
            },
        flushes_async,
        flushes_sync,
        queue_stall_cycles,
        fase_stall_cycles,
    } = *r;
    [
        ("cycles", cycles),
        ("instructions", instructions),
        ("hits", hits),
        ("misses", misses),
        ("evict_writebacks", evict_writebacks),
        ("flush_present", flush_present),
        ("flush_absent", flush_absent),
        ("flushes_async", flushes_async),
        ("flushes_sync", flushes_sync),
        ("queue_stall_cycles", queue_stall_cycles),
        ("fase_stall_cycles", fase_stall_cycles),
    ]
}

/// Every [`MachineReport`] field of every thread of one replayed
/// program, under all six policies, with `clflush` and with `clwb`:
/// the simulated L1, write-back queue and contention draw may get
/// faster, but no cycle, miss, write-back or flush may move. Threads 0
/// and 1 share one buffer (one replica group, one policy pass, two
/// machines seeded apart); threads 2 and 3 each own theirs. The
/// contention probability is the 8-thread calibration's, so the draw
/// evicts lines on every thread. `flush_present`, `flush_absent` and
/// `evict_writebacks` appear in no printed table, so this is their
/// only check.
#[test]
fn replay_program_reports_are_pinned() {
    let mut trace = Trace::replicated(replay_thread(1), 2);
    trace.threads.push(replay_thread(2).into());
    trace.threads.push(replay_thread(3).into());
    let policies = [
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 16 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 256,
            ..Default::default()
        }),
        PolicyKind::Best,
    ];
    let mut want = REPLAY_REPORTS.iter();
    for flush_invalidates in [true, false] {
        for kind in &policies {
            let cfg = RunConfig {
                machine: MachineConfig {
                    contention_miss_prob: 0.105,
                    flush_invalidates,
                    ..Default::default()
                },
            };
            let report = run_policy(&trace, kind, &cfg);
            assert_eq!(report.per_thread.len(), 4);
            for (tid, r) in report.per_thread.iter().enumerate() {
                let row = want.next().expect("a pinned row per thread");
                let at = format!("{} flush_invalidates={flush_invalidates}", kind.label());
                for ((name, v), w) in report_fields(r).into_iter().zip(row) {
                    assert_eq!(v, *w, "{at} thread {tid}: {name}");
                }
            }
        }
    }
    assert!(want.next().is_none(), "every pinned row was compared");
}

/// One row per thread, in the order `cycles`, `instructions`, `hits`,
/// `misses`, `evict_writebacks`, `flush_present`, `flush_absent`,
/// `flushes_async`, `flushes_sync`, `queue_stall_cycles`,
/// `fase_stall_cycles` ([`report_fields`]).
#[rustfmt::skip]
const REPLAY_REPORTS: [[u64; 11]; 48] = [
    // ER, clflush
    [1734317, 74218, 1127, 19913,    0, 3735,   0, 3735,    0,    0,   7259],
    [1733850, 74218, 1132, 19908,    0, 3735,   0, 3735,    0,    0,   7192],
    [1202747, 64383,  726, 13435,    0, 3488,   0, 3488,    0,    0,   7469],
    [1759993, 75734,  971, 20205,    0, 3814,   0, 3814,    0,    0,   6874],
    // LA, clflush
    [1913668, 79993, 1492, 19548,  359, 2855, 315,    0, 3170,    0, 221900],
    [1913028, 79993, 1500, 19540,  359, 2855, 315,    0, 3170,    0, 221900],
    [1374240, 69916, 1063, 13098,  160, 2868, 139,    0, 3007,    0, 210490],
    [1942547, 81772, 1413, 19763,  323, 2997, 287,    0, 3284,    0, 229880],
    // AT, clflush
    [1786202, 77236, 1307, 19733,  172, 3334, 162, 2468, 1028,    0,  75545],
    [1785247, 77236, 1318, 19722,  172, 3334, 162, 2468, 1028,    0,  75470],
    [1256820, 67205,  874, 13287,   88, 3184,  82, 2244, 1022,    0,  75222],
    [1812552, 78837, 1168, 20008,  164, 3425, 152, 2530, 1047,    0,  77067],
    // SC-offline, clflush
    [1849481, 84055, 1416, 19624,  333, 2974, 305, 1242, 2037,    0, 145282],
    [1848761, 84055, 1425, 19615,  333, 2974, 305, 1242, 2037,    0, 145282],
    [1315345, 73719,  984, 13177,  146, 2978, 134, 1159, 1953,    0, 139267],
    [1874498, 85880, 1342, 19834,  297, 3108, 274, 1276, 2106,    0, 149985],
    // SC, clflush
    [1912646, 86595, 1478, 19562,  350, 2877, 310,  152, 3035,    0, 212799],
    [1912006, 86595, 1486, 19554,  350, 2877, 310,  152, 3035,    0, 212799],
    [1369559, 76283, 1044, 13117,  160, 2889, 139,  216, 2812,    0, 197481],
    [1941738, 88471, 1391, 19785,  323, 3020, 287,  166, 3141,    0, 220129],
    // BEST, clflush
    [1531363, 59278, 2406, 18634, 1852,    0,   0,    0,    0,    0,      0],
    [1531283, 59278, 2407, 18633, 1850,    0,   0,    0,    0,    0,      0],
    [ 984478, 50431, 2271, 11890, 1506,    0,   0,    0,    0,    0,      0],
    [1536969, 60478, 2481, 18695, 2014,    0,   0,    0,    0,    0,      0],
    // ER, clwb
    [1638693, 74218, 2406, 18634,    0, 3735,   0, 3735,    0, 1396,  12559],
    [1638605, 74218, 2407, 18633,    0, 3735,   0, 3735,    0, 1520,  12427],
    [1087008, 64383, 2271, 11890,    0, 3488,   0, 3488,    0, 1723,  13607],
    [1645232, 75734, 2481, 18695,    0, 3814,   0, 3814,    0, 1198,  11715],
    // LA, clwb
    [1840548, 79993, 2406, 18634,  359, 2855, 315,    0, 3170,    0, 221900],
    [1840468, 79993, 2407, 18633,  359, 2855, 315,    0, 3170,    0, 221900],
    [1277600, 69916, 2271, 11890,  160, 2868, 139,    0, 3007,    0, 210490],
    [1857107, 81772, 2481, 18695,  323, 2997, 287,    0, 3284,    0, 229880],
    // AT, clwb
    [1701359, 77236, 2406, 18634,  172, 3334, 162, 2468, 1028,  270,  78352],
    [1701281, 77236, 2407, 18633,  172, 3334, 162, 2468, 1028,  507,  78117],
    [1148624, 67205, 2271, 11890,   88, 3184,  82, 2244, 1022,  186,  78600],
    [1710577, 78837, 2481, 18695,  164, 3425, 152, 2530, 1047,  147,  79985],
    // SC-offline, clwb
    [1771654, 84055, 2406, 18634,  333, 2974, 305, 1242, 2037,   90, 146565],
    [1771521, 84055, 2407, 18633,  333, 2974, 305, 1242, 2037,  280, 146322],
    [1214390, 73719, 2271, 11890,  146, 2978, 134, 1159, 1953,    0, 141272],
    [1784525, 85880, 2481, 18695,  297, 3108, 274, 1276, 2106,    0, 151132],
    // SC, clwb
    [1838620, 86595, 2406, 18634,  350, 2877, 310,  152, 3035,    0, 213013],
    [1838620, 86595, 2407, 18633,  350, 2877, 310,  152, 3035,    0, 213093],
    [1271981, 76283, 2271, 11890,  160, 2889, 139,  216, 2812,    0, 198063],
    [1854767, 88471, 2481, 18695,  323, 3020, 287,  166, 3141,    0, 220358],
    // BEST, clwb
    [1531363, 59278, 2406, 18634, 1852,    0,   0,    0,    0,    0,      0],
    [1531283, 59278, 2407, 18633, 1850,    0,   0,    0,    0,    0,      0],
    [ 984478, 50431, 2271, 11890, 1506,    0,   0,    0,    0,    0,      0],
    [1536969, 60478, 2481, 18695, 2014,    0,   0,    0,    0,    0,      0],
];
