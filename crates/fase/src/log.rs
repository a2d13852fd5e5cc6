//! The persistent undo log.
//!
//! Lives in a reserved suffix of the data region so that crash injection
//! hits data and log with a single consistent cut. Layout (offsets
//! relative to the log base):
//!
//! ```text
//! 0   magic   u64
//! 8   tail    u64   (next free offset, starts at 16)
//! 16… records: [offset u64][len u64][old bytes, padded to 8]
//! ```
//!
//! Discipline:
//! * `append_entry` persists the record **and then** the tail bump, each
//!   with flush+fence, before returning — so by the time the caller
//!   performs the data store, the undo information is durable
//!   (log-before-data).
//! * `commit` is the truncation and nothing else: `tail ← 16`, one
//!   persist. The caller has already flushed and fenced the FASE's data
//!   (`FaseRuntime::end_fase`), and the tail is one 8-byte word inside
//!   one cache line, which the region's crash model lands whole or not
//!   at all — so the truncation *is* the commit point. Before it is
//!   durable the records are live and recovery rolls the FASE back;
//!   after, the log is empty and the FASE stands. A FASE that logged
//!   nothing has nothing to truncate and commits for free.
//! * `recover` rolls back whatever records the durable tail covers, in
//!   reverse order, persisting each restored value, then truncates.
//!
//! Fixed log cost per FASE is therefore records persist + tail publish
//! (`append_group`; per record on the `append_entry` path) + truncate:
//! three flush+fence pairs with the grouped append, and the data fence
//! between them makes four fences.
//!
//! Recovery never trusts durable bytes: the tail word is clamped into
//! the log area and records are sanity-checked before use. Anything a
//! torn write could have produced (tail beyond the area, a record whose
//! length runs past the tail, an offset outside the data area) is
//! treated as a torn log — parsing stops there, since log-before-data
//! ordering guarantees the corresponding data store never happened.

use crate::error::RecoveryError;
use nvcache_pmem::PmemRegion;

const LOG_MAGIC: u64 = 0x4641_5345_4c4f_4731; // "FASELOG1"
const OFF_MAGIC: usize = 0;
const OFF_TAIL: usize = 8;
const RECORDS_START: u64 = 16;

/// Counters for log activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Undo entries appended.
    pub entries: u64,
    /// Commits.
    pub commits: u64,
    /// Rollbacks performed by recovery.
    pub rollbacks: u64,
    /// Bytes of old-value data logged.
    pub bytes_logged: u64,
}

/// An undo log occupying `[base, base+len)` of a region.
#[derive(Debug, Clone)]
pub struct UndoLog {
    base: usize,
    len: usize,
    stats: LogStats,
    /// Pre-image scratch of [`UndoLog::append_group`] (reused, never
    /// shrunk).
    old: Vec<u8>,
}

impl UndoLog {
    /// Format a fresh log in `[base, base+len)`.
    pub fn format(region: &mut PmemRegion, base: usize, len: usize) -> Self {
        assert!(base + len <= region.len());
        assert!(len >= 64, "log area too small");
        region.write_u64(base + OFF_MAGIC, LOG_MAGIC);
        region.write_u64(base + OFF_TAIL, RECORDS_START);
        region.persist(base, 16);
        UndoLog {
            base,
            len,
            stats: LogStats::default(),
            old: Vec::new(),
        }
    }

    /// Attach to an existing log formatted at `[base, base+len)`.
    ///
    /// Validates that the region can hold the advertised areas and that
    /// the header carries the log magic; a corrupt or unformatted image
    /// surfaces as a typed [`RecoveryError`], never a panic.
    pub fn open(region: &PmemRegion, base: usize, len: usize) -> Result<Self, RecoveryError> {
        let need = base
            .checked_add(len.max(16))
            .ok_or(RecoveryError::RegionTooSmall {
                region_len: region.len(),
                need: usize::MAX,
            })?;
        if len < 64 || need > region.len() {
            return Err(RecoveryError::RegionTooSmall {
                region_len: region.len(),
                need,
            });
        }
        let found = region.read_u64(base + OFF_MAGIC);
        if found != LOG_MAGIC {
            return Err(RecoveryError::BadMagic { found });
        }
        Ok(UndoLog {
            base,
            len,
            stats: LogStats::default(),
            old: Vec::new(),
        })
    }

    /// Activity counters.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    fn tail(&self, region: &PmemRegion) -> u64 {
        region.read_u64(self.base + OFF_TAIL)
    }

    fn set_tail(&self, region: &mut PmemRegion, tail: u64) {
        region.write_u64(self.base + OFF_TAIL, tail);
        region.persist(self.base + OFF_TAIL, 8);
    }

    /// Bytes currently used by records.
    pub fn used(&self, region: &PmemRegion) -> u64 {
        self.tail(region) - RECORDS_START
    }

    /// Record the old value of `[offset, offset+old.len())` durably.
    /// Must be called *before* the data store it protects.
    ///
    /// # Panics
    /// When the log area overflows (size the log for the largest FASE).
    pub fn append_entry(&mut self, region: &mut PmemRegion, offset: u64, old: &[u8]) {
        let tail = self.tail(region);
        let padded = old.len().div_ceil(8) * 8;
        let rec_len = 16 + padded as u64;
        assert!(
            (tail + rec_len) as usize <= self.len,
            "undo log overflow: FASE touches more than {} bytes of log",
            self.len
        );
        let at = self.base + tail as usize;
        region.write_u64(at, offset);
        region.write_u64(at + 8, old.len() as u64);
        if !old.is_empty() {
            region.write(at + 16, old);
        }
        region.persist(at, 16 + old.len());
        self.set_tail(region, tail + rec_len);
        self.stats.entries += 1;
        self.stats.bytes_logged += old.len() as u64;
    }

    /// Record the old values of several `(offset, len)` ranges as one
    /// grouped append: every record is written contiguously, the whole
    /// span is persisted with a **single** ranged flush + fence, then
    /// the tail advances with one more persist — two fences per group
    /// instead of two per entry (the pipelined commit path's log-side
    /// win). Records are durable *before* the tail publishes, so a
    /// crash anywhere inside the group leaves the durable tail at its
    /// old value and recovery sees none of the group — safe, because
    /// the caller has not yet stored to any of the ranges
    /// (group-log-before-data). Zero-length ranges are skipped
    /// (recovery treats `len == 0` as a torn record); duplicate or
    /// overlapping ranges are harmless — each captures the same
    /// pre-group bytes, and reverse rollback converges to them.
    ///
    /// # Panics
    /// When the log area overflows.
    pub fn append_group(&mut self, region: &mut PmemRegion, ranges: &[(u64, u64)]) {
        let tail = self.tail(region);
        let mut pos = tail;
        for &(offset, len) in ranges {
            if len == 0 {
                continue;
            }
            let padded = len.div_ceil(8) * 8;
            let rec_len = 16 + padded;
            assert!(
                (pos + rec_len) as usize <= self.len,
                "undo log overflow: grouped FASE write set exceeds {} bytes of log",
                self.len
            );
            let at = self.base + pos as usize;
            self.old.clear();
            self.old
                .extend_from_slice(region.slice(offset as usize, len as usize));
            region.write_u64(at, offset);
            region.write_u64(at + 8, len);
            region.write(at + 16, &self.old);
            pos += rec_len;
            self.stats.entries += 1;
            self.stats.bytes_logged += len;
        }
        if pos == tail {
            return;
        }
        region.persist(self.base + tail as usize, (pos - tail) as usize);
        self.set_tail(region, pos);
    }

    /// Commit the open FASE by truncating the log: one persisted
    /// `tail ← RECORDS_START`. The caller must have flushed **and
    /// fenced** every data store of the FASE first — the moment the
    /// truncated tail is durable nothing can roll them back. A FASE
    /// that logged no record costs nothing here.
    pub fn commit(&mut self, region: &mut PmemRegion) {
        if self.tail(region) != RECORDS_START {
            self.set_tail(region, RECORDS_START);
        }
        self.stats.commits += 1;
    }

    /// Scan the log after a restart and roll back an incomplete FASE, if
    /// any. Restored bytes are persisted before the log is truncated.
    /// Returns the number of undo entries applied.
    ///
    /// The durable `tail` word and every record header are validated
    /// before use: the tail is clamped into the log area and 8-aligned
    /// down, and a record whose length overruns the tail or whose target
    /// range leaves the data area stops the scan (treated as torn — its
    /// data store can never have happened under log-before-data). Only a
    /// missing magic word — an image that was never this log — is a hard
    /// [`RecoveryError`].
    pub fn recover(&mut self, region: &mut PmemRegion) -> Result<usize, RecoveryError> {
        let found = region.read_u64(self.base + OFF_MAGIC);
        if found != LOG_MAGIC {
            return Err(RecoveryError::BadMagic { found });
        }
        // Clamp the durable tail: a torn tail write may carry any value.
        let raw_tail = self.tail(region);
        let tail = raw_tail.min(self.len as u64) & !7;
        if tail <= RECORDS_START {
            if raw_tail != RECORDS_START {
                self.set_tail(region, RECORDS_START);
            }
            return Ok(0);
        }
        // Parse records into (offset, len, data_at).
        let mut recs: Vec<(u64, usize, usize)> = Vec::new();
        let mut pos = RECORDS_START;
        while pos + 16 <= tail {
            let at = self.base + pos as usize;
            let offset = region.read_u64(at);
            let len_w = region.read_u64(at + 8);
            // Record sanity: a real entry restores 1+ bytes that lie
            // entirely inside the data area [0, base). Anything else is
            // garbage past the true tail — stop there.
            let sane = len_w > 0
                && matches!(offset.checked_add(len_w),
                            Some(end) if end <= self.base as u64);
            if !sane {
                break;
            }
            let padded = (len_w + 7) & !7;
            if pos + 16 + padded > tail {
                break; // torn final record: its data store never happened
            }
            recs.push((offset, len_w as usize, at + 16));
            pos += 16 + padded;
        }

        for &(offset, len, data_at) in recs.iter().rev() {
            let mut old = vec![0u8; len];
            region.read(data_at, &mut old);
            region.write(offset as usize, &old);
            region.persist(offset as usize, len);
        }
        if !recs.is_empty() {
            self.stats.rollbacks += 1;
        }
        self.set_tail(region, RECORDS_START);
        Ok(recs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_pmem::CrashMode;

    const LOG_BASE: usize = 4096;
    const LOG_LEN: usize = 4096;

    fn setup() -> (PmemRegion, UndoLog) {
        let mut r = PmemRegion::new(LOG_BASE + LOG_LEN);
        let l = UndoLog::format(&mut r, LOG_BASE, LOG_LEN);
        (r, l)
    }

    #[test]
    fn entry_then_commit_truncates() {
        let (mut r, mut l) = setup();
        l.append_entry(&mut r, 0, &[1, 2, 3, 4]);
        assert!(l.used(&r) > 0);
        l.commit(&mut r);
        assert_eq!(l.used(&r), 0);
        assert_eq!(l.stats().entries, 1);
        assert_eq!(l.stats().commits, 1);
    }

    #[test]
    fn rollback_restores_old_values_in_reverse() {
        let (mut r, mut l) = setup();
        // initial durable state
        r.write(0, b"AAAA");
        r.persist(0, 4);
        // FASE: log old, then mutate — twice on the same location
        let mut old = [0u8; 4];
        r.read(0, &mut old);
        l.append_entry(&mut r, 0, &old);
        r.write(0, b"BBBB");
        r.persist(0, 4); // data may be durable — log already is
        r.read(0, &mut old);
        l.append_entry(&mut r, 0, &old);
        r.write(0, b"CCCC");
        r.persist(0, 4);
        // crash before commit
        r.crash(&CrashMode::AllInFlightLands);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        let applied = l2.recover(&mut r).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(r.slice(0, 4), b"AAAA", "reverse order restores oldest");
    }

    #[test]
    fn committed_fase_is_not_rolled_back() {
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.persist(0, 4);
        l.append_entry(&mut r, 0, b"AAAA");
        r.write(0, b"BBBB");
        r.persist(0, 4);
        l.commit(&mut r);
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 0);
        assert_eq!(r.slice(0, 4), b"BBBB");
    }

    #[test]
    fn commit_is_one_flush_and_one_fence() {
        let (mut r, mut l) = setup();
        l.append_entry(&mut r, 0, b"AAAA");
        r.write(0, b"BBBB");
        r.persist(0, 4);
        let before = r.stats();
        l.commit(&mut r);
        let after = r.stats();
        assert_eq!(after.flushes - before.flushes, 1, "the tail line");
        assert_eq!(after.fences - before.fences, 1);
        assert_eq!(after.stores - before.stores, 1, "the 8-byte tail word");
    }

    #[test]
    fn commit_of_a_fase_that_logged_nothing_is_free() {
        let (mut r, mut l) = setup();
        let before = r.stats();
        l.commit(&mut r);
        assert_eq!(r.stats(), before, "no store, no flush, no fence");
        assert_eq!(l.stats().commits, 1, "still a commit");
    }

    #[test]
    fn truncation_is_the_commit_point() {
        // Data flushed and fenced, truncation written but not yet
        // durable: under the strict adversary the records are still
        // live and the FASE rolls back; once the truncated tail line
        // lands (here: every in-flight line does) the FASE stands.
        for (mode, want) in [
            (CrashMode::StrictDurableOnly, b"AAAA"),
            (CrashMode::AllInFlightLands, b"BBBB"),
        ] {
            let (mut r, mut l) = setup();
            r.write(0, b"AAAA");
            r.persist(0, 4);
            l.append_entry(&mut r, 0, b"AAAA");
            r.write(0, b"BBBB");
            r.persist(0, 4);
            r.write_u64(LOG_BASE + OFF_TAIL, RECORDS_START); // commit, unflushed
            r.crash(&mode);
            let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
            l2.recover(&mut r).unwrap();
            assert_eq!(r.slice(0, 4), want, "{mode:?}");
            assert_eq!(r.read_u64(LOG_BASE + OFF_TAIL), RECORDS_START);
        }
    }

    #[test]
    fn commit_shaped_record_is_garbage_that_stops_the_scan() {
        // No COMMIT record exists any more. The word pair the old
        // format used (offset == u64::MAX, len == 0) is just a record
        // whose target lies outside the data area: even as the final
        // record inside the tail window it commits nothing — the scan
        // stops there and the records before it roll back.
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.persist(0, 4);
        l.append_entry(&mut r, 0, b"AAAA");
        r.write(0, b"BBBB");
        r.persist(0, 4);
        let tail = r.read_u64(LOG_BASE + OFF_TAIL);
        let at = LOG_BASE + tail as usize;
        r.write_u64(at, u64::MAX);
        r.write_u64(at + 8, 0);
        r.persist(at, 16);
        r.write_u64(LOG_BASE + OFF_TAIL, tail + 16);
        r.persist(LOG_BASE + OFF_TAIL, 8);
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 1, "the real record rolls back");
        assert_eq!(r.slice(0, 4), b"AAAA");
    }

    #[test]
    fn stale_records_past_the_tail_are_never_replayed() {
        // A committed FASE leaves its records in place beyond the
        // truncated tail. The next FASE's shorter record overwrites
        // only the front of them; recovery must replay exactly what the
        // new tail covers and nothing of the stale remainder.
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.write(64, b"XXXX");
        r.persist(0, 68);
        l.append_group(&mut r, &[(0, 4), (64, 4)]);
        r.write(0, b"BBBB");
        r.write(64, b"YYYY");
        r.persist(0, 68);
        l.commit(&mut r);
        l.append_entry(&mut r, 0, b"BBBB");
        r.write(0, b"CCCC");
        r.persist(0, 4);
        r.crash(&CrashMode::AllInFlightLands);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 1);
        assert_eq!(r.slice(0, 4), b"BBBB", "second FASE rolled back");
        assert_eq!(r.slice(64, 4), b"YYYY", "first FASE's stale record ignored");
    }

    #[test]
    fn log_before_data_makes_early_durable_data_safe() {
        // The dangerous interleaving: data lands in NVRAM, log entry is
        // required to undo it. Because append_entry persists before the
        // data store, rollback always has what it needs.
        let (mut r, mut l) = setup();
        r.write(100, b"OLD!");
        r.persist(100, 4);
        l.append_entry(&mut r, 100, b"OLD!");
        r.write(100, b"NEW!");
        // crash where the dirty data line *lands* but nothing else
        r.crash(&CrashMode::random(0.0, 1.0, 3));
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        l2.recover(&mut r).unwrap();
        assert_eq!(r.slice(100, 4), b"OLD!");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.persist(0, 4);
        l.append_entry(&mut r, 0, b"AAAA");
        r.write(0, b"BBBB");
        r.persist(0, 4);
        r.crash(&CrashMode::AllInFlightLands);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        l2.recover(&mut r).unwrap();
        assert_eq!(r.slice(0, 4), b"AAAA");
        // crash again mid-"nothing" and recover again
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l3 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l3.recover(&mut r).unwrap(), 0);
        assert_eq!(r.slice(0, 4), b"AAAA");
    }

    #[test]
    fn open_rejects_unformatted_area() {
        let r = PmemRegion::new(8192);
        match UndoLog::open(&r, 4096, 4096) {
            Err(RecoveryError::BadMagic { found }) => assert_eq!(found, 0),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_undersized_region() {
        let r = PmemRegion::new(1024);
        match UndoLog::open(&r, 4096, 4096) {
            Err(RecoveryError::RegionTooSmall { region_len, need }) => {
                assert_eq!(region_len, 1024);
                assert_eq!(need, 8192);
            }
            other => panic!("expected RegionTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn recover_clamps_corrupt_tail() {
        // A torn tail write can carry any value. Recovery must neither
        // panic nor read outside the log area: the tail is clamped and
        // the record scan stops at the first insane header.
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.persist(0, 4);
        l.append_entry(&mut r, 0, b"AAAA");
        r.write(0, b"BBBB");
        r.persist(0, 4);
        // corrupt the durable tail: way past the log area, unaligned
        r.write_u64(LOG_BASE + OFF_TAIL, u64::MAX - 3);
        r.persist(LOG_BASE + OFF_TAIL, 8);
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        let applied = l2.recover(&mut r).unwrap();
        assert_eq!(applied, 1, "the one sane record still rolls back");
        assert_eq!(r.slice(0, 4), b"AAAA");
        assert_eq!(r.read_u64(LOG_BASE + OFF_TAIL), RECORDS_START);
    }

    #[test]
    fn recover_stops_at_out_of_range_record() {
        // A record claiming to restore bytes outside the data area is
        // garbage past the true tail — the scan must treat it as torn,
        // not index out of bounds.
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.persist(0, 4);
        l.append_entry(&mut r, 0, b"AAAA");
        r.write(0, b"BBBB");
        r.persist(0, 4);
        // forge a second record whose target overruns the region, and a
        // tail that covers it
        let tail = r.read_u64(LOG_BASE + OFF_TAIL);
        let at = LOG_BASE + tail as usize;
        r.write_u64(at, u64::MAX - 64); // offset far outside the data area
        r.write_u64(at + 8, 1 << 40); // absurd length
        r.persist(at, 16);
        r.write_u64(LOG_BASE + OFF_TAIL, tail + 16 + 8);
        r.persist(LOG_BASE + OFF_TAIL, 8);
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 1);
        assert_eq!(r.slice(0, 4), b"AAAA");
    }

    #[test]
    fn recover_rejects_clobbered_magic() {
        let (mut r, mut l) = setup();
        l.append_entry(&mut r, 0, b"AAAA");
        r.write_u64(LOG_BASE + OFF_MAGIC, 0xDEAD_BEEF);
        r.persist(LOG_BASE + OFF_MAGIC, 8);
        r.crash(&CrashMode::StrictDurableOnly);
        assert!(matches!(
            l.recover(&mut r),
            Err(RecoveryError::BadMagic { found: 0xDEAD_BEEF })
        ));
    }

    #[test]
    #[should_panic(expected = "undo log overflow")]
    fn overflow_panics() {
        let mut r = PmemRegion::new(4096 + 128);
        let mut l = UndoLog::format(&mut r, 4096, 128);
        for i in 0..10 {
            l.append_entry(&mut r, i * 8, &[0u8; 32]);
        }
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let (mut r, mut l) = setup();
        assert_eq!(l.recover(&mut r).unwrap(), 0);
    }

    #[test]
    fn group_append_costs_two_fences_for_any_range_count() {
        let (mut r, mut l) = setup();
        for i in 0..8u64 {
            r.write_u64(i as usize * 8, 100 + i);
        }
        r.persist(0, 64);
        let before = r.stats().fences;
        let ranges: Vec<(u64, u64)> = (0..8u64).map(|i| (i * 8, 8)).collect();
        l.append_group(&mut r, &ranges);
        assert_eq!(
            r.stats().fences - before,
            2,
            "record span + tail publish, regardless of range count"
        );
        assert_eq!(l.stats().entries, 8);
    }

    #[test]
    fn group_rollback_restores_pre_group_values() {
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.write(64, b"XXXX");
        r.persist(0, 68);
        l.append_group(&mut r, &[(0, 4), (64, 4)]);
        r.write(0, b"BBBB");
        r.write(64, b"YYYY");
        r.persist(0, 68);
        r.crash(&CrashMode::AllInFlightLands);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 2);
        assert_eq!(r.slice(0, 4), b"AAAA");
        assert_eq!(r.slice(64, 4), b"XXXX");
    }

    #[test]
    fn crash_inside_group_before_tail_publish_is_safe() {
        // The group's records land but the tail publish does not: the
        // durable tail still reads RECORDS_START, recovery sees an
        // empty log — correct, because group-log-before-data means no
        // protected store has happened yet.
        let (mut r, mut l) = setup();
        r.write(0, b"AAAA");
        r.persist(0, 4);
        let mut probe = r.clone();
        l.append_group(&mut probe, &[(0, 4), (8, 8)]);
        // replay the group on `r` but crash (strict) before set_tail:
        // emulate by writing the records without touching the tail
        let at = LOG_BASE + 16;
        r.write_u64(at, 0);
        r.write_u64(at + 8, 4);
        r.write(at + 16, b"AAAA");
        r.persist(at, 28); // records durable, tail not published
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(
            l2.recover(&mut r).unwrap(),
            0,
            "unpublished group invisible"
        );
        assert_eq!(r.slice(0, 4), b"AAAA");
    }

    #[test]
    fn group_with_duplicate_and_empty_ranges_converges() {
        let (mut r, mut l) = setup();
        r.write(0, b"OLD!");
        r.persist(0, 4);
        l.append_group(&mut r, &[(0, 4), (16, 0), (0, 4)]);
        assert_eq!(l.stats().entries, 2, "empty range skipped");
        r.write(0, b"NEW!");
        r.persist(0, 4);
        r.crash(&CrashMode::AllInFlightLands);
        let mut l2 = UndoLog::open(&r, LOG_BASE, LOG_LEN).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 2);
        assert_eq!(r.slice(0, 4), b"OLD!", "duplicates restore the same bytes");
    }
}
