//! Heap allocations of the replay drivers, counted.
//!
//! The replay hot path allocates nothing per event: each trace thread
//! gets one pre-sized flush buffer, the policies keep their state in
//! structures sized at construction, and LRU evictions append into the
//! caller's buffer. So what `flush_stats` and `run_policy` allocate is a
//! per-run constant (the policy, the buffer, the report), the same for a
//! trace of 2 300 stores as for one of 230 000. This is an integration
//! test — a crate of its own — because a counting `GlobalAlloc` needs
//! `unsafe`, which `nvcache-core` forbids.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nvcache_core::{flush_stats, run_policy, AdaptiveConfig, PolicyKind, RunConfig};
use nvcache_trace::synth::{cyclic, SynthOpts};
use nvcache_trace::Trace;

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

/// All six kinds, sized so AT and SC-offline evict on the 23-line
/// working set and SC completes its one burst on both trace lengths.
fn all_kinds() -> [PolicyKind; 6] {
    [
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 12 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 1024,
            ..Default::default()
        }),
        PolicyKind::Best,
    ]
}

/// One thread cycling over 23 lines, 100 stores per FASE.
fn trace(rounds: usize) -> Trace {
    let opts = SynthOpts {
        writes_per_fase: 100,
        ..Default::default()
    };
    cyclic(23, rounds, &opts)
}

#[test]
fn replay_allocations_do_not_grow_with_the_trace() {
    let (short, long) = (trace(100), trace(10_000));
    let cfg = RunConfig::default();
    for kind in all_kinds() {
        let label = kind.label();
        let (a, s) = allocations(|| flush_stats(&short, &kind));
        let (b, l) = allocations(|| flush_stats(&long, &kind));
        assert_eq!(l.stores, 100 * s.stores, "{label}");
        assert_eq!(
            a, b,
            "{label}: flush_stats allocated {a} for 100 rounds, {b} for 10 000"
        );
        let (a, _) = allocations(|| run_policy(&short, &kind, &cfg));
        let (b, _) = allocations(|| run_policy(&long, &kind, &cfg));
        assert_eq!(
            a, b,
            "{label}: run_policy allocated {a} for 100 rounds, {b} for 10 000"
        );
    }
}
