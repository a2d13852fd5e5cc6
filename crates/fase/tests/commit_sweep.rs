//! The commit point, swept: a crash is armed at every micro-step from
//! the first log append of a FASE to the return of `UndoLog::commit`,
//! under three adversaries and on both flush paths. The truncating tail
//! write is the only thing that separates "rolled back" from
//! "committed", so:
//!
//! * before that write executes, recovery yields the pre-FASE image;
//! * after its fence, the post-FASE image;
//! * in the two steps between (written, not yet fenced) the outcome is
//!   the adversary's: strict keeps the records live (pre), all-lands
//!   lets the tail line land (post), random picks either — never a mix.
//!
//! The sweep is what fails when the truncation is issued before the
//! data fence: the tail then lands while data lines are still in
//! flight, and the recovered bytes are neither image.

use nvcache_core::PolicyKind;
use nvcache_fase::{FaseRuntime, FlushMode};
use nvcache_pmem::{CrashMode, CrashPlan, PmemRegion};

const DATA: usize = 1024;
const LOG: usize = 8192;
/// `(offset, len)` the swept FASE rewrites: three lines, one of them
/// spanning a line boundary.
const RANGES: [(u64, u64); 3] = [(0, 8), (120, 16), (512, 8)];

fn policy() -> PolicyKind {
    PolicyKind::ScFixed { capacity: 2 }
}

/// A runtime whose data area holds a committed, fully durable pattern.
fn seeded(mode: FlushMode) -> FaseRuntime {
    let mut rt = FaseRuntime::new(DATA, LOG, &policy());
    rt.set_flush_mode(mode);
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

/// The swept FASE, grouped (`prelog` → `append_group`) or per-store
/// (`append_entry`).
fn swept_fase(rt: &mut FaseRuntime, grouped: bool) {
    rt.begin_fase();
    if grouped {
        rt.prelog(&RANGES);
    }
    for (i, &(off, len)) in RANGES.iter().enumerate() {
        let bytes = vec![0xA0 + i as u8; len as usize];
        rt.store(off as usize, &bytes);
    }
    rt.end_fase();
}

fn recovered_data(image: Vec<u8>) -> Vec<u8> {
    let rt = FaseRuntime::try_reopen(PmemRegion::from_image(image), DATA, LOG, &policy())
        .expect("a crash image always reopens");
    data_of(&rt)
}

#[test]
fn every_step_up_to_the_truncate_fence_recovers_pre_and_after_it_post() {
    let mut modes = vec![CrashMode::StrictDurableOnly, CrashMode::AllInFlightLands];
    modes.extend((0..16).map(|seed| CrashMode::random(0.5, 0.5, seed)));
    for flush in [FlushMode::Sync, FlushMode::Pipelined] {
        for grouped in [true, false] {
            // counting run: where the FASE's log activity begins and
            // where commit returns
            let mut rt = seeded(flush);
            let pre = data_of(&rt);
            let first = rt.steps();
            swept_fase(&mut rt, grouped);
            let end = rt.steps();
            let post = data_of(&rt);
            assert_ne!(pre, post);
            // commit = tail write, tail-line flush, fence
            let truncate_write = end - 3;
            for mode in &modes {
                for at in first..=end {
                    let mut rt = seeded(flush);
                    rt.arm_crash(CrashPlan {
                        at_step: at,
                        mode: mode.clone(),
                    });
                    swept_fase(&mut rt, grouped);
                    let image = if at == end {
                        // power fails the instant commit returned
                        rt.region().image_after_crash(mode)
                    } else {
                        rt.take_crash_image().expect("armed step reached")
                    };
                    let got = recovered_data(image);
                    let ctx = format!(
                        "{flush:?} grouped={grouped} {mode:?} step {at} of {first}..={end}"
                    );
                    if at <= truncate_write {
                        assert_eq!(got, pre, "not rolled back: {ctx}");
                    } else if at == end {
                        assert_eq!(got, post, "committed FASE lost: {ctx}");
                    } else {
                        match mode {
                            CrashMode::StrictDurableOnly => assert_eq!(got, pre, "{ctx}"),
                            CrashMode::AllInFlightLands => assert_eq!(got, post, "{ctx}"),
                            CrashMode::Random { .. } => {
                                assert!(got == pre || got == post, "torn FASE: {ctx}")
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_fase_costs_two_fixed_log_persists_and_four_fences() {
    for flush in [FlushMode::Sync, FlushMode::Pipelined] {
        let mut rt = seeded(flush);
        let before = rt.region().stats();
        swept_fase(&mut rt, true);
        let after = rt.region().stats();
        assert_eq!(
            after.fences - before.fences,
            4,
            "{flush:?}: records, tail publish, data, truncate"
        );
        // an empty FASE logs nothing, so only the data fence remains
        let before = rt.region().stats();
        rt.begin_fase();
        rt.end_fase();
        let after = rt.region().stats();
        assert_eq!(after.fences - before.fences, 1, "{flush:?}");
        assert_eq!(after.flushes - before.flushes, 0, "{flush:?}");
        assert_eq!(after.stores - before.stores, 0, "{flush:?}");
    }
}
