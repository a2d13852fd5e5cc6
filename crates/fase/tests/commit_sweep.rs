//! The commit point, swept: a crash is armed at every micro-step from
//! the first log append of a FASE to the return of `UndoLog::commit`,
//! under three kinds of adversary, for a FASE of three logged stores,
//! and for one whose stores log only the words they change (none, two
//! runs, an identical rewrite, an unaligned store across a word
//! boundary, two runs merged across one word). The epoch write — the
//! log's truncation: it retires every group at once — is the only
//! thing that separates "rolled back" from "committed", so:
//!
//! * before that write executes, recovery yields the pre-FASE image;
//! * after its fence, the post-FASE image;
//! * in the two steps between (written, not yet fenced) the outcome is
//!   the adversary's: strict keeps the groups valid (pre), all-lands
//!   lets the epoch line land (post), random picks either — never a mix.
//!
//! The sweep is what fails when the epoch is bumped before the data
//! fence (the bump then lands while data lines are still in flight, and
//! the recovered bytes are neither image), when a group is applied
//! that only partly reached NVRAM (the log area is full of an earlier
//! FASE's groups, so the part that did not land is *their* bytes), or
//! when leaving an unchanged word out of a store's records loses a
//! pre-image.

use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_pmem::{CrashMode, CrashPlan, PmemRegion};

const DATA: usize = 1024;
const LOG: usize = 8192;

/// The `(offset, len)` of a swept FASE's stores, in order: three
/// lines, one store spanning a line boundary, so three groups.
const PER_STORE: &[(u64, u64)] = &[(0, 8), (120, 16), (512, 8)];
/// Groups of 32, 40 and 32 bytes from log offset 64: the second
/// straddles a line.
const PER_STORE_RECORD_LINES: u64 = 4;

fn policy() -> PolicyKind {
    PolicyKind::ScFixed { capacity: 2 }
}

/// A runtime whose data area holds a committed, fully durable pattern
/// (and whose log area holds the 128 groups that wrote it).
fn seeded() -> FaseRuntime {
    let mut rt = FaseRuntime::new(DATA, LOG, &policy());
    rt.begin_fase();
    for i in 0..(DATA / 8) {
        rt.store_u64(i * 8, 0x1111_0000 + i as u64);
    }
    rt.end_fase();
    rt
}

fn data_of(rt: &FaseRuntime) -> Vec<u8> {
    rt.region().slice(0, DATA).to_vec()
}

/// What a reader recovers of a FASE that logs every store: all of it.
fn whole(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}

fn swept_fase(rt: &mut FaseRuntime, stores: &[(u64, u64)]) {
    rt.begin_fase();
    for (i, &(off, len)) in stores.iter().enumerate() {
        let bytes = vec![0xA0 + i as u8; len as usize];
        rt.store(off as usize, &bytes);
    }
    rt.end_fase();
}

fn reopened(image: Vec<u8>) -> FaseRuntime {
    FaseRuntime::try_reopen(PmemRegion::from_image(image), DATA, LOG, &policy())
        .expect("a crash image always reopens")
}

fn adversaries() -> Vec<CrashMode> {
    let mut modes = vec![CrashMode::StrictDurableOnly, CrashMode::AllInFlightLands];
    modes.extend((0..16).map(|seed| CrashMode::random(0.5, 0.5, seed)));
    modes
}

/// Run `fase` on a seeded runtime with a crash armed at every step from
/// its first micro-step to the return of its commit, under every
/// adversary, and check what a reader recovers — `view` of the data
/// area — against the pre- and post-FASE views (see the module doc).
fn sweep(name: &str, fase: impl Fn(&mut FaseRuntime), view: impl Fn(&[u8]) -> Vec<u8>) {
    let view_of = |rt: &FaseRuntime| view(rt.region().slice(0, DATA));
    // counting run: where the FASE's log activity begins and where
    // commit returns
    let mut rt = seeded();
    let pre = view_of(&rt);
    let first = rt.steps();
    fase(&mut rt);
    let end = rt.steps();
    let post = view_of(&rt);
    assert_ne!(pre, post);
    // commit = epoch write, its line's flush, fence
    let epoch_write = end - 3;
    for mode in &adversaries() {
        for at in first..=end {
            let mut rt = seeded();
            rt.arm_crash(CrashPlan {
                at_step: at,
                mode: mode.clone(),
            });
            fase(&mut rt);
            let image = if at == end {
                // power fails the instant commit returned
                rt.region().image_after_crash(mode)
            } else {
                rt.take_crash_image().expect("armed step reached")
            };
            let got = view_of(&reopened(image));
            let ctx = format!("{name} {mode:?} step {at} of {first}..={end}");
            if at <= epoch_write {
                assert_eq!(got, pre, "not rolled back: {ctx}");
            } else if at == end {
                assert_eq!(got, post, "committed FASE lost: {ctx}");
            } else {
                match mode {
                    CrashMode::StrictDurableOnly => assert_eq!(got, pre, "{ctx}"),
                    CrashMode::AllInFlightLands => assert_eq!(got, post, "{ctx}"),
                    CrashMode::Random { .. } | CrashMode::Exactly { .. } => {
                        assert!(got == pre || got == post, "torn FASE: {ctx}")
                    }
                }
            }
        }
    }
}

#[test]
fn every_step_up_to_the_truncate_fence_recovers_pre_and_after_it_post() {
    sweep("per-store", |rt| swept_fase(rt, PER_STORE), whole);
}

/// The shadow area a log-free FASE fills, and the word a logged one
/// stores first.
const NEW_AREA: usize = 512;
const AREA: usize = 256;
const LOGGED: usize = 0;

/// Fill the new area with unlogged stores (unaligned, across lines) —
/// after one logged store when `log_first`.
fn fresh_fase(rt: &mut FaseRuntime, log_first: bool) {
    rt.begin_fase();
    if log_first {
        rt.store_u64(LOGGED, 0xF00D);
    }
    rt.store_fresh(NEW_AREA, &[0xA1; 100]);
    rt.store_fresh(NEW_AREA + 100, &[0xA2; AREA - 100]);
    rt.end_fase();
}

/// A FASE that logged nothing commits by its data fence alone: one
/// fence, and no log line. One that logged first pays the log as ever:
/// its group's persist, the data fence and the epoch bump.
#[test]
fn a_log_free_fase_pays_one_fence_and_no_log_line() {
    for (log_first, fences, commit_lines) in [(false, 1, 0), (true, 3, 1)] {
        let mut rt = seeded();
        let (pmem0, log0, ring0) = (rt.region().stats(), rt.log_stats(), rt.ring_stats());
        fresh_fase(&mut rt, log_first);
        let (pmem, log, ring) = (rt.region().stats(), rt.log_stats(), rt.ring_stats());
        assert_eq!(
            pmem.fences - pmem0.fences,
            fences,
            "logged first: {log_first}"
        );
        assert_eq!(log.commit_lines - log0.commit_lines, commit_lines);
        if !log_first {
            assert_eq!(log.record_lines, log0.record_lines, "no record line");
            assert_eq!(
                pmem.flushes - pmem0.flushes,
                ring.flushed - ring0.flushed,
                "every flush is data's"
            );
        }
    }
}

/// `store` `bytes` at `off` and return what it cost the log: (records,
/// flushes, fences). The data's flushes wait in the ring until commit,
/// so every flush and fence here is the store's group.
fn logged_store(rt: &mut FaseRuntime, off: usize, bytes: &[u8]) -> (u64, u64, u64) {
    let (log0, pmem0) = (rt.log_stats(), rt.region().stats());
    rt.store(off, bytes);
    let (log, pmem) = (rt.log_stats(), rt.region().stats());
    (
        log.entries - log0.entries,
        pmem.flushes - pmem0.flushes,
        pmem.fences - pmem0.fences,
    )
}

/// A per-store FASE whose stores change some of the words they write.
fn changed_words_fase(rt: &mut FaseRuntime) {
    let current = |rt: &FaseRuntime, off: usize, len: usize| rt.region().slice(off, len).to_vec();
    rt.begin_fase();
    let same = current(rt, 256, 24);
    assert_eq!(logged_store(rt, 256, &same), (0, 0, 0), "all unchanged");
    // words 40 and 43 change, the two between do not: two records in a
    // 48-byte group — the FASE's first, so one line
    let mut two = current(rt, 320, 32);
    two[0] ^= 0xFF;
    two[24] ^= 0xFF;
    assert_eq!(logged_store(rt, 320, &two), (2, 1, 1), "two runs");
    assert_eq!(
        logged_store(rt, 320, &two[..8]),
        (0, 0, 0),
        "a rewrite of what this FASE already changed"
    );
    // bytes 405..410 straddle words 50 and 51: one record of 5 bytes in
    // a 32-byte group at log offset 112, across lines 1 and 2
    assert_eq!(logged_store(rt, 405, &[0xEE; 5]), (1, 2, 1), "unaligned");
    // words 60 and 62 change, the one between does not: one record of
    // 24 bytes, since a second record's header would cost what the
    // word does — a 48-byte group at log offset 144, inside line 2
    let mut merged = current(rt, 480, 24);
    merged[0] ^= 0xFF;
    merged[16] ^= 0xFF;
    assert_eq!(logged_store(rt, 480, &merged), (1, 1, 1), "merged runs");
    rt.end_fase();
}

#[test]
fn every_step_of_a_fase_of_changed_word_runs_recovers_pre_or_post() {
    sweep("changed words", changed_words_fase, whole);
    let mut rt = seeded();
    let log0 = rt.log_stats();
    changed_words_fase(&mut rt);
    let log = rt.log_stats();
    assert_eq!(log.entries - log0.entries, 4);
    assert_eq!(log.bytes_logged - log0.bytes_logged, 8 + 8 + 5 + 24);
    assert_eq!(log.record_lines - log0.record_lines, 4);
}

#[test]
fn a_group_of_which_any_proper_subset_of_lines_landed_is_never_applied() {
    let mut rt = seeded();
    let pre = data_of(&rt);
    let before = rt.region().durable_image().to_vec();
    rt.begin_fase();
    // 72 changed bytes: one record, a 96-byte group across log lines
    // 1 and 2 — durable and valid, and the store it protects is not
    rt.store(120, &[0xA0; 72]);
    let after = rt.region().durable_image().to_vec();
    assert_eq!(after[..DATA], before[..DATA], "no data line landed");
    let lines: Vec<usize> = (DATA..DATA + LOG)
        .step_by(64)
        .filter(|&l| before[l..l + 64] != after[l..l + 64])
        .collect();
    assert_eq!(lines, [DATA + 64, DATA + 128]);
    for landed in 0u32..(1 << lines.len()) {
        let mut image = before.clone();
        for (i, &l) in lines.iter().enumerate() {
            if landed >> i & 1 == 1 {
                image[l..l + 64].copy_from_slice(&after[l..l + 64]);
            }
        }
        // the rest of the group's span is the seeding FASE's groups:
        // applying them would restore the zeroes they saved
        let rt = reopened(image);
        let all = landed == (1 << lines.len()) - 1;
        assert_eq!(rt.stats().rollbacks, all as u64, "subset {landed:#b}");
        assert_eq!(data_of(&rt), pre, "subset {landed:#b}");
    }
}

#[test]
fn a_fase_costs_one_log_persist_per_group_and_the_epoch_bump() {
    // flush instructions the data took: what the ring's dedup left of
    // the policy's obligations
    let data_flushes = |rt: &FaseRuntime| rt.ring_stats().flushed;
    let mut rt = seeded();
    let (pmem0, log0, data0) = (rt.region().stats(), rt.log_stats(), data_flushes(&rt));
    swept_fase(&mut rt, PER_STORE);
    let (pmem, log) = (rt.region().stats(), rt.log_stats());
    assert_eq!(
        pmem.fences - pmem0.fences,
        3 + 2,
        "one per group, data, epoch"
    );
    assert_eq!(log.record_lines - log0.record_lines, PER_STORE_RECORD_LINES);
    assert_eq!(log.commit_lines - log0.commit_lines, 1);
    assert_eq!(
        pmem.flushes - pmem0.flushes - (data_flushes(&rt) - data0),
        PER_STORE_RECORD_LINES + 1,
        "the log's share is record lines + 1"
    );
    // an empty FASE logs nothing, so only the data fence remains
    let before = rt.region().stats();
    rt.begin_fase();
    rt.end_fase();
    let after = rt.region().stats();
    assert_eq!(after.fences - before.fences, 1);
    assert_eq!(after.flushes - before.flushes, 0);
    assert_eq!(after.stores - before.stores, 0);
}
