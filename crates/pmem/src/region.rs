//! The persistent region: volatile/durable dual image with line-granular
//! flush tracking, plus file-backed persistence across "processes".

use crate::crash::{CrashMode, CrashPlan};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// Cache-line size in bytes (matches the trace model).
pub const LINE_SIZE: usize = 64;

/// Bit of a line's state word set while the line is dirty; the bits
/// below it hold 1 + the index of the line's pending capture (0 = none).
const DIRTY: u32 = 1 << 31;

/// Flush/fence/write counters of a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmemStats {
    /// Bytes written (volatile image).
    pub bytes_written: u64,
    /// Individual store operations.
    pub stores: u64,
    /// Line flushes issued.
    pub flushes: u64,
    /// Fences issued.
    pub fences: u64,
    /// Crashes injected.
    pub crashes: u64,
}

/// An emulated persistent memory region.
///
/// Offsets are region-relative byte addresses. Line `i` covers bytes
/// `[i*64, (i+1)*64)`.
#[derive(Debug, Clone)]
pub struct PmemRegion {
    volatile: Vec<u8>,
    durable: Vec<u8>,
    /// One word per line. [`DIRTY`] is set while the line's volatile
    /// bytes differ from the last flush capture (i.e. it is dirty in
    /// the transient CPU cache); the low bits are 1 + the line's index
    /// in `pending_lines` while a capture of it awaits a fence.
    state: Vec<u32>,
    /// Lines whose [`DIRTY`] bit is set.
    dirty_count: usize,
    /// Lines flushed but not yet fenced, in first-flush order.
    pending_lines: Vec<u64>,
    /// Their bytes as captured at flush time, `LINE_SIZE` per entry of
    /// `pending_lines`.
    pending_bytes: Vec<u8>,
    stats: PmemStats,
    /// Persistence micro-steps executed (stores + flushes + fences).
    step: u64,
    /// Armed crash point, if any.
    plan: Option<CrashPlan>,
    /// NVRAM image captured when the armed crash point was reached.
    crash_image: Option<Vec<u8>>,
}

impl PmemRegion {
    /// A fresh zeroed region of `len` bytes (rounded up to a line).
    pub fn new(len: usize) -> Self {
        // two zeroed allocations, not one and a copy of it: the pages
        // of a large region stay untouched until something writes them
        let len = len.div_ceil(LINE_SIZE) * LINE_SIZE;
        Self::with_images(vec![0; len], vec![0; len])
    }

    /// A quiescent region over two equal images (a whole number of
    /// lines each).
    fn with_images(volatile: Vec<u8>, durable: Vec<u8>) -> Self {
        let lines = durable.len() / LINE_SIZE;
        assert!(lines < DIRTY as usize, "region too large: {lines} lines");
        PmemRegion {
            volatile,
            durable,
            state: vec![0; lines],
            dirty_count: 0,
            pending_lines: Vec::new(),
            pending_bytes: Vec::new(),
            stats: PmemStats::default(),
            step: 0,
            plan: None,
            crash_image: None,
        }
    }

    /// Rebuild a region from a raw NVRAM image (e.g. one captured by an
    /// armed [`CrashPlan`]): both the volatile and durable views start
    /// from `image`, exactly as after a power cycle.
    ///
    /// # Panics
    /// When `image` is not a whole number of cache lines.
    pub fn from_image(image: Vec<u8>) -> Self {
        assert!(
            image.len().is_multiple_of(LINE_SIZE),
            "image not line-aligned: {} bytes",
            image.len()
        );
        Self::with_images(image.clone(), image)
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.volatile.len()
    }

    /// True iff zero-length.
    pub fn is_empty(&self) -> bool {
        self.volatile.is_empty()
    }

    /// Number of cache lines.
    pub fn line_count(&self) -> u64 {
        (self.volatile.len() / LINE_SIZE) as u64
    }

    /// Counters.
    pub fn stats(&self) -> PmemStats {
        self.stats
    }

    /// Lines currently dirty (unflushed) — what a whole-cache flush
    /// would have to write back.
    pub fn dirty_lines(&self) -> usize {
        self.dirty_count
    }

    // ----- crash-point enumeration ---------------------------------------

    /// Persistence micro-steps executed so far: one per store, per line
    /// flush, and per fence — the crash-point index space. Log appends
    /// and commit sub-steps count automatically because the undo log
    /// performs them through these same primitives.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Arm a [`CrashPlan`]: when the next micro-step to execute is
    /// `plan.at_step`, capture the NVRAM image a [`PmemRegion::crash`]
    /// with `plan.mode` would leave at that instant, then keep running.
    /// Retrieve the image with [`PmemRegion::take_crash_image`].
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.plan = Some(plan);
        self.crash_image = None;
    }

    /// The image captured by an armed plan, if its step was reached.
    /// Draining: subsequent calls return `None`.
    pub fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        self.crash_image.take()
    }

    /// One persistence micro-step is about to execute: fire the armed
    /// crash plan if this is its step, then advance the counter.
    #[inline]
    fn micro_step(&mut self) {
        if let Some(plan) = &self.plan {
            if plan.at_step == self.step && self.crash_image.is_none() {
                let mode = plan.mode.clone();
                self.crash_image = Some(self.image_after_crash(&mode));
            }
        }
        self.step += 1;
    }

    /// The NVRAM image a crash under `mode` would leave right now: the
    /// durable image, plus whichever un-fenced lines `mode` lets land.
    /// Pending flushes land their flush-time captures; dirty lines land
    /// their current volatile bytes. A line that was flushed and then
    /// re-dirtied can be selected through both lists — the dirty copy
    /// is the newer write and wins.
    pub fn image_after_crash(&self, mode: &CrashMode) -> Vec<u8> {
        // the one O(lines) pass over the state words, and only on the
        // crash path (which clones the whole durable image anyway)
        let dirty: Vec<u64> = if self.dirty_count == 0 {
            Vec::new()
        } else {
            (0u64..)
                .zip(&self.state)
                .filter_map(|(line, s)| (s & DIRTY != 0).then_some(line))
                .collect()
        };
        let (landed_pending, landed_dirty) = mode.select_landed_split(&self.pending_lines, &dirty);
        let mut image = self.durable.clone();
        for line in landed_pending {
            let slot = (self.state[line as usize] & !DIRTY) as usize - 1;
            let off = line as usize * LINE_SIZE;
            image[off..off + LINE_SIZE]
                .copy_from_slice(&self.pending_bytes[slot * LINE_SIZE..][..LINE_SIZE]);
        }
        for line in landed_dirty {
            let off = line as usize * LINE_SIZE;
            image[off..off + LINE_SIZE].copy_from_slice(&self.volatile[off..off + LINE_SIZE]);
        }
        image
    }

    /// Read `buf.len()` bytes at `offset` from the program's view.
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.volatile[offset..offset + buf.len()]);
    }

    /// Read a little-endian u64 at `offset`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Borrow the program's view of `[offset, offset+len)`.
    pub fn slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.volatile[offset..offset + len]
    }

    /// Write `bytes` at `offset` into the volatile image, dirtying the
    /// covered lines (callers instrumenting per-line notify their policy
    /// via [`PmemRegion::lines_of`]). An empty write still counts as a
    /// store and dirties the line `offset` lies in, if there is one.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= self.volatile.len(),
            "write beyond region: {}+{} > {}",
            offset,
            bytes.len(),
            self.volatile.len()
        );
        self.micro_step();
        self.volatile[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.stats.stores += 1;
        self.stats.bytes_written += bytes.len() as u64;
        for l in Self::lines_of(offset, bytes.len()) {
            // an empty write at the very end names a line past the
            // region: nothing to mark
            if let Some(s) = self.state.get_mut(l as usize) {
                self.dirty_count += (*s & DIRTY == 0) as usize;
                *s |= DIRTY;
            }
        }
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Region-relative line indices covering `[offset, offset+len)`.
    pub fn lines_of(offset: usize, len: usize) -> impl Iterator<Item = u64> {
        let first = (offset / LINE_SIZE) as u64;
        let last = if len == 0 {
            first
        } else {
            ((offset + len - 1) / LINE_SIZE) as u64
        };
        first..=last
    }

    /// `clflush` line `line`: capture its current volatile bytes; they
    /// become durable at the next [`PmemRegion::fence`]. Flushing a clean
    /// line is a no-op (but still counted — the instruction executes).
    pub fn flush_line(&mut self, line: u64) {
        self.micro_step();
        self.stats.flushes += 1;
        let Some(s) = self.state.get_mut(line as usize) else {
            return;
        };
        if *s & DIRTY == 0 {
            return;
        }
        *s &= !DIRTY;
        self.dirty_count -= 1;
        let off = line as usize * LINE_SIZE;
        let bytes = &self.volatile[off..off + LINE_SIZE];
        if *s == 0 {
            self.pending_lines.push(line);
            self.pending_bytes.extend_from_slice(bytes);
            *s = self.pending_lines.len() as u32;
        } else {
            // re-flush of a re-dirtied pending line: the newer capture
            // replaces the older one in place
            let slot = *s as usize - 1;
            self.pending_bytes[slot * LINE_SIZE..][..LINE_SIZE].copy_from_slice(bytes);
        }
    }

    /// Flush every line covering `[offset, offset+len)`.
    pub fn flush_range(&mut self, offset: usize, len: usize) {
        for l in Self::lines_of(offset, len) {
            self.flush_line(l);
        }
    }

    /// Ranged sweep: flush `n` consecutive lines starting at `start`.
    /// Hardware executes one write-back per covered line inside a
    /// ranged `clwb` sweep, so each line is still its own persistence
    /// micro-step — armed crash plans can cut execution mid-sweep.
    pub fn flush_line_run(&mut self, start: u64, n: u64) {
        for l in start..start + n {
            self.flush_line(l);
        }
    }

    /// Is `line` dirty (volatile bytes newer than any flush capture)?
    #[cfg(test)]
    pub fn line_is_dirty(&self, line: u64) -> bool {
        self.state
            .get(line as usize)
            .is_some_and(|s| s & DIRTY != 0)
    }

    /// `sfence`: commit all pending flush captures to the durable image.
    pub fn fence(&mut self) {
        self.micro_step();
        self.stats.fences += 1;
        let captures = self.pending_bytes.chunks_exact(LINE_SIZE);
        for (&line, bytes) in self.pending_lines.iter().zip(captures) {
            let off = line as usize * LINE_SIZE;
            self.durable[off..off + LINE_SIZE].copy_from_slice(bytes);
            self.state[line as usize] &= DIRTY;
        }
        self.pending_lines.clear();
        self.pending_bytes.clear();
    }

    /// Convenience: flush a range and fence (persist).
    pub fn persist(&mut self, offset: usize, len: usize) {
        self.flush_range(offset, len);
        self.fence();
    }

    /// Inject a power failure. The program's view becomes exactly what
    /// NVRAM holds: the durable image, plus whichever un-fenced lines the
    /// crash mode decides "happened to land" (pending flushes racing the
    /// failure, dirty lines the hardware cache evicted on its own).
    /// Dirty/pending state is cleared — the cache contents are gone.
    pub fn crash(&mut self, mode: &CrashMode) {
        self.stats.crashes += 1;
        self.durable = self.image_after_crash(mode);
        self.pending_lines.clear();
        self.pending_bytes.clear();
        self.state.fill(0);
        self.dirty_count = 0;
        self.volatile.copy_from_slice(&self.durable);
    }

    /// The durable image (what a crash right now would preserve, before
    /// considering in-flight lines).
    pub fn durable_image(&self) -> &[u8] {
        &self.durable
    }

    /// Is the whole region persisted (no dirty or pending lines)?
    pub fn is_quiescent(&self) -> bool {
        self.dirty_count == 0 && self.pending_lines.is_empty()
    }

    /// Write the durable image to `path` (tmpfs-style persistence across
    /// process termination).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(&self.durable)?;
        f.sync_all()
    }

    /// Reopen a region saved by [`PmemRegion::save`]: both images start
    /// from the file content, as after a clean restart.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut f = fs::File::open(path)?;
        let mut durable = Vec::new();
        f.read_to_end(&mut durable)?;
        if durable.len() % LINE_SIZE != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "region file not line-aligned",
            ));
        }
        Ok(Self::with_images(durable.clone(), durable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashMode;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};

    #[test]
    fn write_then_read() {
        let mut r = PmemRegion::new(256);
        r.write(10, b"hello");
        let mut buf = [0u8; 5];
        r.read(10, &mut buf);
        assert_eq!(&buf, b"hello");
        assert_eq!(r.stats().stores, 1);
        assert_eq!(r.stats().bytes_written, 5);
    }

    #[test]
    fn u64_roundtrip() {
        let mut r = PmemRegion::new(128);
        r.write_u64(64, 0xdead_beef_cafe);
        assert_eq!(r.read_u64(64), 0xdead_beef_cafe);
    }

    #[test]
    fn unflushed_writes_do_not_survive_crash() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"gone");
        r.crash(&CrashMode::StrictDurableOnly);
        let mut buf = [0u8; 4];
        r.read(0, &mut buf);
        assert_eq!(&buf, &[0, 0, 0, 0]);
    }

    #[test]
    fn flushed_and_fenced_writes_survive() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"kept");
        r.persist(0, 4);
        r.write(64, b"lost");
        r.crash(&CrashMode::StrictDurableOnly);
        let mut buf = [0u8; 4];
        r.read(0, &mut buf);
        assert_eq!(&buf, b"kept");
        r.read(64, &mut buf);
        assert_eq!(&buf, &[0; 4]);
    }

    #[test]
    fn flush_without_fence_is_not_durable_under_strict_mode() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"racy");
        r.flush_range(0, 4); // no fence
        r.crash(&CrashMode::StrictDurableOnly);
        let mut buf = [0u8; 4];
        r.read(0, &mut buf);
        assert_eq!(&buf, &[0; 4], "pending lines may be lost");
    }

    #[test]
    fn pending_lines_land_under_optimistic_mode() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"land");
        r.flush_range(0, 4);
        r.crash(&CrashMode::AllInFlightLands);
        let mut buf = [0u8; 4];
        r.read(0, &mut buf);
        assert_eq!(&buf, b"land");
    }

    #[test]
    fn flush_captures_bytes_at_flush_time() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"AAAA");
        r.flush_range(0, 4);
        r.write(0, b"BBBB"); // re-dirties after capture
        r.fence();
        r.crash(&CrashMode::StrictDurableOnly);
        let mut buf = [0u8; 4];
        r.read(0, &mut buf);
        assert_eq!(&buf, b"AAAA", "fence commits the captured bytes");
    }

    #[test]
    fn dirty_line_may_land_with_natural_eviction() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"evict");
        // probability 1 ⇒ the dirty line always lands
        r.crash(&CrashMode::random(1.0, 1.0, 7));
        let mut buf = [0u8; 5];
        r.read(0, &mut buf);
        assert_eq!(&buf, b"evict");
    }

    #[test]
    fn quiescence_tracking() {
        let mut r = PmemRegion::new(256);
        assert!(r.is_quiescent());
        r.write(0, b"x");
        assert!(!r.is_quiescent());
        assert_eq!(r.dirty_lines(), 1);
        r.flush_range(0, 1);
        assert!(!r.is_quiescent(), "pending fence");
        r.fence();
        assert!(r.is_quiescent());
    }

    #[test]
    fn lines_of_spans() {
        let v: Vec<u64> = PmemRegion::lines_of(60, 8).collect();
        assert_eq!(v, vec![0, 1]);
        let v: Vec<u64> = PmemRegion::lines_of(128, 64).collect();
        assert_eq!(v, vec![2]);
    }

    #[test]
    fn save_and_open_roundtrip() {
        let dir = std::env::temp_dir().join("nvcache_pmem_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.img");
        let mut r = PmemRegion::new(256);
        r.write(5, b"persist me");
        r.persist(5, 10);
        r.write(100, b"not me");
        r.save(&path).unwrap();
        let r2 = PmemRegion::open(&path).unwrap();
        assert_eq!(r2.slice(5, 10), b"persist me");
        assert_eq!(r2.slice(100, 6), &[0u8; 6], "unfenced data not saved");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "write beyond region")]
    fn out_of_bounds_write_panics() {
        let mut r = PmemRegion::new(64);
        r.write(60, b"overflow!");
    }

    #[test]
    fn flush_clean_line_is_counted_noop() {
        let mut r = PmemRegion::new(128);
        r.flush_line(0);
        assert_eq!(r.stats().flushes, 1);
        assert!(r.is_quiescent());
    }

    #[test]
    fn len_rounds_to_line() {
        let r = PmemRegion::new(100);
        assert_eq!(r.len(), 128);
        assert_eq!(r.line_count(), 2);
    }

    #[test]
    fn redirtied_line_lands_its_newer_bytes_via_dirty_selection() {
        // flush captures AAAA, the line is re-dirtied with BBBB, then a
        // crash whose adversary evicts dirty lines (but drops pending
        // flushes) must land the *newer* bytes — the dirty copy used to
        // be shadowed by the stale pending capture
        let mut r = PmemRegion::new(256);
        r.write(0, b"AAAA");
        r.flush_range(0, 4); // pending: AAAA
        r.write(0, b"BBBB"); // dirty again: BBBB
        r.crash(&CrashMode::random(0.0, 1.0, 5));
        assert_eq!(r.slice(0, 4), b"BBBB", "dirty eviction carries BBBB");
    }

    #[test]
    fn dirty_copy_wins_when_both_selections_land() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"AAAA");
        r.flush_range(0, 4);
        r.write(0, b"BBBB");
        r.crash(&CrashMode::AllInFlightLands);
        assert_eq!(r.slice(0, 4), b"BBBB", "newer write wins");
    }

    #[test]
    fn pending_capture_lands_when_only_pending_selected() {
        let mut r = PmemRegion::new(256);
        r.write(0, b"AAAA");
        r.flush_range(0, 4);
        r.write(0, b"BBBB");
        r.crash(&CrashMode::random(1.0, 0.0, 5));
        assert_eq!(r.slice(0, 4), b"AAAA", "flush capture is the old bytes");
    }

    #[test]
    fn steps_count_stores_flushes_fences() {
        let mut r = PmemRegion::new(256);
        assert_eq!(r.step(), 0);
        r.write(0, b"x"); // 1 store
        r.persist(0, 1); // 1 flush + 1 fence
        assert_eq!(r.step(), 3);
    }

    #[test]
    fn armed_plan_captures_crash_image_at_step() {
        let mut r = PmemRegion::new(256);
        r.arm_crash(CrashPlan {
            at_step: 2, // just before the fence: AAAA pending, lost
            mode: CrashMode::StrictDurableOnly,
        });
        r.write(0, b"AAAA");
        r.flush_range(0, 4);
        r.fence();
        r.write(0, b"BBBB");
        r.persist(0, 4);
        let img = r.take_crash_image().expect("step 2 was executed");
        assert_eq!(&img[0..4], &[0u8; 4], "pre-fence: nothing durable");
        assert!(r.take_crash_image().is_none(), "image drains");
        // execution continued unperturbed
        assert_eq!(r.slice(0, 4), b"BBBB");
    }

    #[test]
    fn armed_plan_image_matches_direct_crash() {
        // run the same micro-op sequence twice: once capturing at step
        // k, once crashing at step k — images must agree byte-for-byte.
        // Each iteration performs exactly one micro-op so the direct run
        // can stop at any step.
        const OPS: u64 = 15;
        let one_op = |r: &mut PmemRegion, j: u64| match j % 5 {
            0..=2 => r.write(((j % 3) * 64) as usize, &[j as u8; 8]),
            3 => r.flush_line(j % 3),
            _ => r.fence(),
        };
        let mode = CrashMode::random(0.7, 0.3, 99);
        for k in 0..OPS {
            let mut armed = PmemRegion::new(256);
            armed.arm_crash(CrashPlan {
                at_step: k,
                mode: mode.clone(),
            });
            let mut direct = PmemRegion::new(256);
            for j in 0..OPS {
                one_op(&mut armed, j);
                if direct.step() == k {
                    direct.crash(&mode);
                    break;
                }
                one_op(&mut direct, j);
            }
            let captured = armed.take_crash_image().expect("step reached");
            assert_eq!(
                captured,
                direct.durable_image().to_vec(),
                "crash at step {k}"
            );
        }
    }

    #[test]
    fn from_image_round_trips() {
        let mut r = PmemRegion::new(128);
        r.write(0, b"payload!");
        r.persist(0, 8);
        let img = r.durable_image().to_vec();
        let r2 = PmemRegion::from_image(img);
        assert_eq!(r2.slice(0, 8), b"payload!");
        assert!(r2.is_quiescent());
        assert_eq!(r2.step(), 0);
    }

    #[test]
    #[should_panic(expected = "image not line-aligned")]
    fn from_image_rejects_unaligned() {
        PmemRegion::from_image(vec![0u8; 100]);
    }

    #[test]
    fn empty_write_at_region_end_dirties_no_line() {
        // `lines_of(len(), 0)` names line `line_count()`; marking it
        // dirty left the region non-quiescent with nothing to flush and
        // made the next crash slice the volatile image out of range
        let mut r = PmemRegion::new(128);
        r.write(r.len(), &[]);
        assert_eq!(r.step(), 1, "still a micro-step");
        assert_eq!(r.stats().stores, 1, "still a store");
        assert_eq!(r.stats().bytes_written, 0);
        assert_eq!(r.dirty_lines(), 0);
        assert!(r.is_quiescent());
        assert_eq!(r.image_after_crash(&CrashMode::AllInFlightLands), [0; 128]);
        r.crash(&CrashMode::AllInFlightLands);
        // inside the region an empty write keeps dirtying its line
        r.write(64, &[]);
        assert!(r.line_is_dirty(1));
        assert_eq!(r.dirty_lines(), 1);
    }

    #[test]
    fn lines_past_the_region_are_counted_noops() {
        // the flush ring probes and sweeps whatever line it was handed
        let mut r = PmemRegion::new(128);
        r.write(0, b"x");
        let lines = r.line_count();
        assert!(!r.line_is_dirty(lines));
        assert!(!r.line_is_dirty(u64::MAX));
        r.flush_line(lines);
        r.flush_line_run(lines + 3, 2);
        r.flush_line_run(1, 3); // lines 1, 2, 3: one inside, two past
        assert_eq!(r.stats().flushes, 6, "every instruction is counted");
        assert_eq!(r.step(), 7);
        assert_eq!(r.dirty_lines(), 1, "line 0 untouched");
        r.fence();
        assert_eq!(r.durable_image(), [0; 128], "nothing was captured");
    }

    /// The region as it tracked lines before the dense state array: a
    /// `HashSet` of dirty lines and a `HashMap` of flush captures. Kept
    /// as the reference the real region is driven against.
    struct ModelRegion {
        volatile: Vec<u8>,
        durable: Vec<u8>,
        dirty: HashSet<u64>,
        pending: HashMap<u64, [u8; LINE_SIZE]>,
        stats: PmemStats,
        step: u64,
        plan: Option<CrashPlan>,
        crash_image: Option<Vec<u8>>,
    }

    impl ModelRegion {
        fn new(len: usize) -> Self {
            ModelRegion {
                volatile: vec![0; len],
                durable: vec![0; len],
                dirty: HashSet::new(),
                pending: HashMap::new(),
                stats: PmemStats::default(),
                step: 0,
                plan: None,
                crash_image: None,
            }
        }

        fn micro_step(&mut self) {
            if let Some(plan) = self.plan.clone() {
                if plan.at_step == self.step && self.crash_image.is_none() {
                    self.crash_image = Some(self.image_after_crash(&plan.mode));
                }
            }
            self.step += 1;
        }

        fn image_after_crash(&self, mode: &CrashMode) -> Vec<u8> {
            let pending: Vec<u64> = self.pending.keys().copied().collect();
            let dirty: Vec<u64> = self.dirty.iter().copied().collect();
            let (landed_pending, landed_dirty) = mode.select_landed_split(&pending, &dirty);
            let mut image = self.durable.clone();
            for line in landed_pending {
                let off = line as usize * LINE_SIZE;
                image[off..off + LINE_SIZE].copy_from_slice(&self.pending[&line]);
            }
            for line in landed_dirty {
                let off = line as usize * LINE_SIZE;
                image[off..off + LINE_SIZE].copy_from_slice(&self.volatile[off..off + LINE_SIZE]);
            }
            image
        }

        fn write(&mut self, offset: usize, bytes: &[u8]) {
            self.micro_step();
            self.volatile[offset..offset + bytes.len()].copy_from_slice(bytes);
            self.stats.stores += 1;
            self.stats.bytes_written += bytes.len() as u64;
            let lines = (self.volatile.len() / LINE_SIZE) as u64;
            self.dirty
                .extend(PmemRegion::lines_of(offset, bytes.len()).filter(|&l| l < lines));
        }

        fn flush_line(&mut self, line: u64) {
            self.micro_step();
            self.stats.flushes += 1;
            if self.dirty.remove(&line) {
                let off = line as usize * LINE_SIZE;
                let capture = self.volatile[off..off + LINE_SIZE].try_into().unwrap();
                self.pending.insert(line, capture);
            }
        }

        fn flush_line_run(&mut self, start: u64, n: u64) {
            (start..start + n).for_each(|l| self.flush_line(l));
        }

        fn fence(&mut self) {
            self.micro_step();
            self.stats.fences += 1;
            for (line, bytes) in self.pending.drain() {
                let off = line as usize * LINE_SIZE;
                self.durable[off..off + LINE_SIZE].copy_from_slice(&bytes);
            }
        }

        fn crash(&mut self, mode: &CrashMode) {
            self.stats.crashes += 1;
            self.durable = self.image_after_crash(mode);
            self.pending.clear();
            self.dirty.clear();
            self.volatile.clone_from(&self.durable);
        }
    }

    enum Op {
        Write(usize, Vec<u8>),
        Flush(u64),
        Run(u64, u64),
        Fence,
        Crash(CrashMode),
    }

    /// The same op on either region type.
    macro_rules! apply {
        ($region:expr, $op:expr) => {
            match $op {
                Op::Write(off, bytes) => $region.write(*off, bytes),
                Op::Flush(line) => $region.flush_line(*line),
                Op::Run(start, n) => $region.flush_line_run(*start, *n),
                Op::Fence => $region.fence(),
                Op::Crash(mode) => $region.crash(mode),
            }
        };
    }

    const MODEL_LEN: usize = 16 * LINE_SIZE;

    fn random_mode(rng: &mut SmallRng) -> CrashMode {
        match rng.gen_range(0..4u32) {
            0 => CrashMode::StrictDurableOnly,
            1 => CrashMode::AllInFlightLands,
            _ => {
                let p = [0.0, 0.3, 0.5, 0.7, 1.0];
                CrashMode::random(
                    p[rng.gen_range(0..p.len())],
                    p[rng.gen_range(0..p.len())],
                    rng.gen(),
                )
            }
        }
    }

    /// Writes of 0–200 bytes anywhere they fit (line-straddling, empty,
    /// empty at the very end), flushes and sweeps that may run past the
    /// last line, fences, and `crash_per_mille` ‰ crashes.
    fn random_op(rng: &mut SmallRng, crash_per_mille: u32) -> Op {
        if rng.gen_range(0..1000u32) < crash_per_mille {
            return Op::Crash(random_mode(rng));
        }
        let lines = (MODEL_LEN / LINE_SIZE) as u64;
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let len = rng.gen_range(0..201usize);
                let off = rng.gen_range(0..MODEL_LEN - len + 1);
                Op::Write(off, (0..len).map(|_| rng.gen::<u64>() as u8).collect())
            }
            5..=6 => Op::Flush(rng.gen_range(0..lines + 2)),
            7 => Op::Run(rng.gen_range(0..lines + 2), rng.gen_range(0..5u64)),
            _ => Op::Fence,
        }
    }

    #[test]
    fn dense_line_state_matches_the_hash_map_model() {
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + seed);
            let mut real = PmemRegion::new(MODEL_LEN);
            let mut model = ModelRegion::new(MODEL_LEN);
            for i in 0..400 {
                let op = random_op(&mut rng, 30);
                apply!(real, &op);
                apply!(model, &op);
                let at = format!("seed {seed}, op {i}");
                assert_eq!(real.step(), model.step, "{at}");
                assert_eq!(real.stats(), model.stats, "{at}");
                assert_eq!(real.dirty_lines(), model.dirty.len(), "{at}");
                assert_eq!(
                    real.is_quiescent(),
                    model.dirty.is_empty() && model.pending.is_empty(),
                    "{at}"
                );
                for l in 0..real.line_count() + 2 {
                    assert_eq!(
                        real.line_is_dirty(l),
                        model.dirty.contains(&l),
                        "{at}, line {l}"
                    );
                }
                assert_eq!(real.durable_image(), model.durable, "{at}");
                assert_eq!(real.volatile, model.volatile, "{at}");
                for mode in [
                    CrashMode::StrictDurableOnly,
                    CrashMode::AllInFlightLands,
                    CrashMode::random(0.5, 0.5, seed * 1000 + i),
                ] {
                    assert_eq!(
                        real.image_after_crash(&mode),
                        model.image_after_crash(&mode),
                        "{at}, {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn armed_plan_captures_the_models_image_at_every_step() {
        let mut rng = SmallRng::seed_from_u64(0xa53d);
        let program: Vec<Op> = (0..120).map(|_| random_op(&mut rng, 0)).collect();
        let steps = {
            let mut probe = PmemRegion::new(MODEL_LEN);
            program.iter().for_each(|op| apply!(probe, op));
            probe.step()
        };
        assert!(steps >= 120, "one micro-step per op at least");
        for at_step in 0..steps {
            let plan = CrashPlan {
                at_step,
                mode: random_mode(&mut rng),
            };
            let mut real = PmemRegion::new(MODEL_LEN);
            let mut model = ModelRegion::new(MODEL_LEN);
            real.arm_crash(plan.clone());
            model.plan = Some(plan.clone());
            for op in &program {
                apply!(real, op);
                apply!(model, op);
            }
            let image = real.take_crash_image();
            assert!(image.is_some(), "step {at_step} was executed");
            assert_eq!(image, model.crash_image, "{plan:?}");
        }
    }
}
