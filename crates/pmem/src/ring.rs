//! The flush pipeline: a bounded batch of submitted lines that commit
//! turns into sorted, coalesced ranged sweeps instead of per-line
//! blocking flushes.
//!
//! The paper's central mechanism is overlapping cache-line write-backs
//! with computation; the remaining software cost is the *submission*
//! path itself. This module provides the FASE runtime's one flush path,
//! owned by that runtime alone:
//!
//! * **Submission** — [`FlushRing::submit`] appends a line to a bounded
//!   batch. A full batch returns `false` and the caller drains inline,
//!   then submits again.
//! * **Fence tokens** — commit does not walk a buffer flushing line by
//!   line. It takes a [`FenceToken`] (a position in the submission
//!   stream) and retires everything submitted before it
//!   ([`FlushRing::drain_upto`]).
//! * **Ranged sweeps** — the drain sorts the retired lines, then walks
//!   them once, sweeping each maximal run of adjacent lines (the runs
//!   [`coalesce_sorted`] returns) with one ranged
//!   `clwb`/`clflushopt`-style pass. A line submitted twice before one
//!   drain is swept once.
//!
//! **Crash visibility.** Every line actually swept still executes its
//! own `flush_line` micro-step against the region (hardware executes
//! one write-back per line inside a ranged sweep too), so an armed
//! [`crate::CrashPlan`] can cut execution *inside* a drain exactly as
//! it could inside the old blocking loop. Submits and fence tokens are
//! volatile transitions — they move bytes into no cache and therefore
//! are not persistence micro-steps; a crash between submit and drain
//! simply loses the (still volatile, still dirty) lines, which the
//! dirty-eviction adversaries already model.

use crate::region::PmemRegion;

/// Counters of one [`FlushRing`]'s lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Lines accepted by [`FlushRing::submit`].
    pub submitted: u64,
    /// Lines actually swept (flush instructions issued).
    pub flushed: u64,
    /// Submissions a drain collapsed: a line submitted more than once
    /// before one drain is swept once (`submitted == flushed + elided`).
    pub elided: u64,
    /// Contiguous ranged sweeps issued (≤ `flushed`).
    pub sweeps: u64,
    /// Drain passes executed.
    pub drains: u64,
}

/// A position in the submission stream: everything submitted strictly
/// before the token is covered by a drain up to it. Obtained from
/// [`FlushRing::fence_token`] at commit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FenceToken(u64);

/// Coalesce a **sorted, deduplicated** slice of line indices into
/// maximal contiguous runs `(start, len)`.
///
/// The union of the returned runs is exactly the input set — no line is
/// flushed twice and none is dropped (property-tested in the workspace
/// suite). Unsorted or duplicated input is a logic error; debug builds
/// assert.
pub fn coalesce_sorted(lines: &[u64]) -> Vec<(u64, u64)> {
    debug_assert!(
        lines.windows(2).all(|w| w[0] < w[1]),
        "input must be sorted+deduped"
    );
    lines
        .chunk_by(|a, b| a + 1 == *b)
        .map(|run| (run[0], run.len() as u64))
        .collect()
}

/// The flush submission batch of one owner (`&mut self` throughout):
/// at most `capacity` lines wait for a drain.
#[derive(Debug, Clone)]
pub struct FlushRing {
    /// Submitted lines not yet drained, in submission order.
    batch: Vec<u64>,
    /// The most lines `batch` holds.
    capacity: usize,
    /// Lines drained or dropped so far: the stream position of
    /// `batch[0]`.
    retired: u64,
    stats: RingStats,
}

impl FlushRing {
    /// A ring that holds at most `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlushRing {
            batch: Vec::with_capacity(capacity),
            capacity,
            retired: 0,
            stats: RingStats::default(),
        }
    }

    /// Lines submitted but not yet drained.
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// True iff no submitted line awaits a drain.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Append one line. Returns `false` when the ring is full — the
    /// caller must drain (inline-drain fallback) and retry.
    #[inline]
    pub fn submit(&mut self, line: u64) -> bool {
        if self.batch.len() == self.capacity {
            return false;
        }
        self.batch.push(line);
        true
    }

    /// Snapshot the submission stream: a subsequent
    /// [`FlushRing::drain_upto`] with this token retires every line
    /// submitted before the snapshot.
    #[inline]
    pub fn fence_token(&self) -> FenceToken {
        FenceToken(self.retired + self.batch.len() as u64)
    }

    /// Retire every submitted line up to `token`: sort them, then sweep
    /// them as coalesced contiguous runs of per-line flushes, each line
    /// once. Each swept line is one persistence micro-step on `region`
    /// (crash plans can fire inside the drain). Returns the number of
    /// flush instructions issued.
    pub fn drain_upto(&mut self, token: FenceToken, region: &mut PmemRegion) -> u64 {
        let n = (token.0.saturating_sub(self.retired) as usize).min(self.batch.len());
        if n == 0 {
            return 0;
        }
        self.retired += n as u64;
        self.stats.submitted += n as u64;
        let lines = &mut self.batch[..n];
        lines.sort_unstable();
        let mut issued = 0;
        // sorted, so a run of adjacent lines may repeat one: it spans
        // its first line to its last
        for run in lines.chunk_by(|a, b| b - a <= 1) {
            let len = run[run.len() - 1] - run[0] + 1;
            region.flush_line_run(run[0], len);
            issued += len;
            self.stats.sweeps += 1;
        }
        self.batch.drain(..n);
        self.stats.flushed += issued;
        self.stats.elided += n as u64 - issued;
        self.stats.drains += 1;
        issued
    }

    /// Drain everything currently submitted.
    pub fn drain_all(&mut self, region: &mut PmemRegion) -> u64 {
        let token = self.fence_token();
        self.drain_upto(token, region)
    }

    /// Does nothing: the ring keeps no state across commits. Kept for
    /// `benchmark/src/adapter.rs`, which still calls it after a fence.
    pub fn end_epoch(&mut self) {}

    /// Forget all submitted-but-undrained lines. Used on crash
    /// recovery: the cache content is gone, so the ring's view of it
    /// must go too.
    pub fn reset(&mut self) {
        self.retired += self.batch.len() as u64;
        self.batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashMode;

    #[test]
    fn coalesce_basic() {
        assert_eq!(coalesce_sorted(&[]), vec![]);
        assert_eq!(coalesce_sorted(&[5]), vec![(5, 1)]);
        assert_eq!(coalesce_sorted(&[1, 2, 3]), vec![(1, 3)]);
        assert_eq!(coalesce_sorted(&[1, 3, 4, 9]), vec![(1, 1), (3, 2), (9, 1)]);
    }

    #[test]
    fn submit_drain_flushes_exactly_the_set() {
        let mut ring = FlushRing::new(8);
        let mut r = PmemRegion::new(1024);
        for off in [0usize, 64, 128, 320] {
            r.write(off, b"x");
        }
        for line in [5u64, 0, 2, 1, 5, 0] {
            assert!(ring.submit(line));
        }
        let issued = ring.drain_all(&mut r);
        assert_eq!(issued, 4, "dedup to {{0,1,2,5}}");
        assert_eq!(ring.stats().sweeps, 2, "runs [0..3) and [5]");
        assert_eq!(ring.stats().elided, 2, "6 lines submitted, 4 swept");
        r.fence();
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(r.slice(0, 1), b"x");
        assert_eq!(r.slice(64, 1), b"x");
        assert_eq!(r.slice(128, 1), b"x");
        assert_eq!(r.slice(320, 1), b"x");
    }

    #[test]
    fn full_ring_rejects_submit() {
        let mut ring = FlushRing::new(4);
        for i in 0..4 {
            assert!(ring.submit(i));
        }
        assert!(!ring.submit(99), "full ring must refuse");
        assert_eq!(ring.pending(), 4);
    }

    #[test]
    fn drain_frees_capacity() {
        let mut ring = FlushRing::new(4);
        let mut r = PmemRegion::new(1024);
        for i in 0..4 {
            assert!(ring.submit(i));
        }
        ring.drain_all(&mut r);
        assert!(ring.is_empty());
        assert!(ring.submit(7), "capacity reclaimed");
    }

    #[test]
    fn fence_token_bounds_the_drain() {
        let mut ring = FlushRing::new(16);
        let mut r = PmemRegion::new(1024);
        ring.submit(1);
        ring.submit(2);
        let tok = ring.fence_token();
        ring.submit(3);
        assert_eq!(ring.drain_upto(tok, &mut r), 2, "line 3 is past the token");
        assert_eq!(ring.pending(), 1);
        assert_eq!(ring.drain_all(&mut r), 1);
    }

    #[test]
    fn drain_micro_steps_match_blocking_loop() {
        // the pipelined sweep must expose the same per-line micro-step
        // space a blocking flush loop would for the same (deduped) set
        let mut ring = FlushRing::new(16);
        let mut a = PmemRegion::new(1024);
        let mut b = PmemRegion::new(1024);
        for off in [0usize, 64, 128] {
            a.write(off, b"x");
            b.write(off, b"x");
        }
        for line in [2u64, 0, 1] {
            ring.submit(line);
        }
        ring.drain_all(&mut a);
        for line in [0u64, 1, 2] {
            b.flush_line(line);
        }
        assert_eq!(a.step(), b.step(), "identical crash-point index space");
        assert_eq!(a.stats().flushes, b.stats().flushes);
    }

    #[test]
    fn reset_clears_pending_and_elision_history() {
        let mut ring = FlushRing::new(8);
        let mut r = PmemRegion::new(1024);
        r.write(0, b"a");
        ring.submit(0);
        ring.drain_all(&mut r);
        ring.submit(0);
        ring.reset();
        assert!(ring.is_empty());
        r.write(0, b"b");
        ring.submit(0);
        assert_eq!(ring.drain_all(&mut r), 1, "serves on after a reset");
        assert_eq!(ring.stats().submitted, 2, "the dropped line never drained");
    }

    #[test]
    fn wraparound_preserves_fifo_set() {
        let mut ring = FlushRing::new(4);
        let mut r = PmemRegion::new(64 * 64);
        let mut total = 0;
        for round in 0..10u64 {
            for i in 0..4u64 {
                let line = round * 4 + i;
                r.write(line as usize * 64, b"w");
                assert!(ring.submit(line));
            }
            total += ring.drain_all(&mut r);
        }
        assert_eq!(total, 40);
        assert_eq!(ring.stats().drains, 10);
    }
}
