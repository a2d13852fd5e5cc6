//! The persistent undo log.
//!
//! Lives in a reserved suffix of the data region so that crash injection
//! hits data and log with a single consistent cut. Layout (offsets
//! relative to the log base):
//!
//! ```text
//! 0   magic   u64
//! 8   epoch   u64   (the durable commit counter)
//! 16… unused: the header has its cache line to itself
//! 64… groups, back to back:
//!       [payload bytes u64][checksum u64]            group header
//!       [offset << 16 | len][old bytes, padded to 8]  one record, 1+ times
//! ```
//!
//! The header line holds only what the commit rewrites, so a FASE's
//! first group starts on a line of its own: a group of up to 64 bytes
//! is one line, not two.
//!
//! A group is one append: the words one store changes — one record per
//! run of changed 8-byte words, and no group at all when the store
//! changes nothing (`FaseRuntime::store` compares the new bytes with
//! the region before it appends). Its checksum is Fx over the
//! **epoch**, the payload length and the payload — so a group validates
//! only against the epoch it was written under. Each Fx step is a
//! bijection of the state, so the same bytes under another epoch, or
//! bytes that differ in one word, never produce the same sum; any other
//! mismatch passes with 2⁻⁶⁴. A record names at most 65 528 bytes
//! below 2⁴⁸; a longer range is logged as several records.
//!
//! The tail (where the next group goes) is volatile: nothing durable
//! says how many groups are live. Recovery finds them.
//!
//! Discipline:
//! * `append_group` builds the group, writes it after the last one and
//!   persists it with **one** flush + fence before returning — by the
//!   time the caller performs the data stores, their pre-images are
//!   durable *and* valid (log-before-data). There is no second persist
//!   that publishes them: a group of which only some lines reached
//!   NVRAM fails its checksum, and its data stores never happened.
//! * `commit` is the epoch bump and nothing else: `epoch ← epoch + 1`,
//!   one persist. The caller has already flushed and fenced the FASE's
//!   data (`FaseRuntime::end_fase`), and the epoch is one 8-byte word
//!   inside one cache line, which the region's crash model lands whole
//!   or not at all — so the bump *is* the commit point. Before it is
//!   durable the FASE's groups validate and recovery rolls the FASE
//!   back; after, none does and the FASE stands. A FASE that logged
//!   nothing has nothing to invalidate and commits for free.
//! * `recover` walks the groups from the start of the record area for
//!   as long as they validate against the durable epoch, restores their
//!   records in reverse order, persists the restored bytes and then
//!   bumps the epoch — always, so every group that carries the durable
//!   epoch was appended by the FASE that is open now.
//!
//! Log cost per FASE is therefore one persist per group plus the epoch
//! bump: (group lines + 1) log flushes, where the group lines are the
//! lines the FASE's groups span from byte 64 on, and one fence per
//! group plus two — the data fence and the epoch's. A FASE that logged
//! nothing pays **one** fence — the data fence — and no log line.
//!
//! Recovery never trusts durable bytes: a group whose length runs past
//! the log area, whose checksum fails (torn, stale, or of another
//! epoch), or one of whose records is empty, overruns the group or
//! targets bytes outside the data area ends the scan — nothing of it is
//! applied, since log-before-data ordering guarantees its data stores
//! never happened.

use crate::error::RecoveryError;
use nvcache_pmem::PmemRegion;
use nvcache_trace::FxHasher;
use std::hash::Hasher;

/// "FASELOG3". An image of an earlier layout ("FASELOG2" put its first
/// group at byte 16) is refused as [`RecoveryError::BadMagic`] instead
/// of being scanned from the wrong offset.
const LOG_MAGIC: u64 = 0x4641_5345_4c4f_4733;
const OFF_MAGIC: usize = 0;
const OFF_EPOCH: usize = 8;
/// Log offset of the first group: the line after the header's.
pub const RECORDS_START: usize = 64;
/// Bytes of a group's header, `[payload bytes][checksum]`; its first
/// record follows.
pub const GROUP_HEADER: usize = 16;
/// Low bits of a record's header word that hold its length.
const LEN_BITS: u32 = 16;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
/// Longest range one record restores (8-aligned, so a split range's
/// pieces need no padding).
const MAX_RECORD_LEN: u64 = (1 << LEN_BITS) - 8;

/// Counters for log activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Undo records written.
    pub entries: u64,
    /// Commits.
    pub commits: u64,
    /// Rollbacks performed by recovery.
    pub rollbacks: u64,
    /// Bytes of old-value data logged.
    pub bytes_logged: u64,
    /// Lines flushed to persist groups.
    pub record_lines: u64,
    /// Lines flushed to persist the epoch word (one per commit that had
    /// logged something, one per recovery).
    pub commit_lines: u64,
}

/// An undo log occupying `[base, base+len)` of a region.
#[derive(Debug, Clone)]
pub struct UndoLog {
    base: usize,
    len: usize,
    /// Log-relative offset of the next group (volatile).
    tail: usize,
    stats: LogStats,
    /// Header words of the group being appended's records (reused,
    /// never shrunk).
    heads: Vec<u64>,
    /// The group being appended, or the pre-image being restored
    /// (reused, never shrunk).
    buf: Vec<u8>,
}

/// `(data offset, len)` of a record's header word.
fn unpack(word: u64) -> (usize, usize) {
    ((word >> LEN_BITS) as usize, (word & LEN_MASK) as usize)
}

/// Log bytes of a record that restores `len` bytes.
fn record_bytes(len: usize) -> usize {
    8 + len.next_multiple_of(8)
}

/// Fx over `seed`, the payload's length and its 8-byte words (a trailing
/// partial word zero-padded), as four interleaved streams folded at the
/// end (one stream's multiply chain would be most of the cost of
/// appending a 1 KiB group). A word goes to one stream and every Fx step
/// is a bijection of the state, so the guarantees of a single stream
/// hold: another seed, or a change in one word, always changes the sum.
/// The log seeds a group's sum with the epoch it is written under, so
/// that a torn or stale group fails its check.
pub fn checksum(seed: u64, payload: &[u8]) -> u64 {
    let mut lanes = [FxHasher::default(); 4];
    lanes[0].write_u64(seed);
    lanes[1].write_u64(payload.len() as u64);
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    let mut quads = payload.chunks_exact(32);
    for quad in &mut quads {
        for (lane, bytes) in lanes.iter_mut().zip(quad.chunks_exact(8)) {
            lane.write_u64(word(bytes));
        }
    }
    for (lane, bytes) in lanes.iter_mut().zip(quads.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..bytes.len()].copy_from_slice(bytes);
        lane.write_u64(u64::from_le_bytes(padded));
    }
    let [mut sum, b, c, d] = lanes;
    for lane in [b, c, d] {
        sum.write_u64(lane.finish());
    }
    sum.finish()
}

impl UndoLog {
    fn attached(base: usize, len: usize) -> Self {
        assert!(
            (base as u64) < 1 << (64 - LEN_BITS),
            "a record's header word has 48 bits for the data offset"
        );
        UndoLog {
            base,
            len,
            tail: RECORDS_START,
            stats: LogStats::default(),
            heads: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Format a fresh log in `[base, base+len)`.
    pub fn format(region: &mut PmemRegion, base: usize, len: usize) -> Self {
        assert!(base + len <= region.len());
        assert!(len >= 64, "log area too small");
        region.write_u64(base + OFF_MAGIC, LOG_MAGIC);
        region.write_u64(base + OFF_EPOCH, 0);
        region.persist(base, RECORDS_START);
        Self::attached(base, len)
    }

    /// Attach to an existing log formatted at `[base, base+len)`; run
    /// [`UndoLog::recover`] before appending to it.
    ///
    /// Validates that the region can hold the advertised areas and that
    /// the header carries the log magic; a corrupt or unformatted image
    /// — or one in an earlier on-media format — surfaces as a typed
    /// [`RecoveryError`], never a panic.
    pub fn open(region: &PmemRegion, base: usize, len: usize) -> Result<Self, RecoveryError> {
        let need =
            base.checked_add(len.max(RECORDS_START))
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
        Ok(Self::attached(base, len))
    }

    /// Activity counters.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Bytes the open FASE's groups occupy.
    pub fn used(&self) -> u64 {
        (self.tail - RECORDS_START) as u64
    }

    fn epoch(&self, region: &PmemRegion) -> u64 {
        region.read_u64(self.base + OFF_EPOCH)
    }

    fn bump_epoch(&mut self, region: &mut PmemRegion) {
        let at = self.base + OFF_EPOCH;
        region.write_u64(at, self.epoch(region).wrapping_add(1));
        region.persist(at, 8);
        self.tail = RECORDS_START;
        self.stats.commit_lines += 1;
    }

    /// Record the current contents of several disjoint `(offset, len)`
    /// ranges durably, as one group: a record per range, in the order
    /// given, a range longer than a record holds split into several.
    /// Must be called *before* the data stores it protects; when it
    /// returns, the group is durable and valid — one ranged flush + one
    /// fence for any number of ranges. A crash anywhere inside leaves a
    /// group recovery rejects, which is safe because the caller has not
    /// yet stored to any of the ranges (group-log-before-data). No
    /// range, or only empty ones, appends nothing.
    ///
    /// # Panics
    /// When a range leaves the data area `[0, base)`, and when the
    /// group does not fit in what is left of the log area — before
    /// anything is written.
    pub fn append_group(&mut self, region: &mut PmemRegion, ranges: &[(u64, u64)]) {
        // one header word per record; a long range is several
        self.heads.clear();
        for &(mut offset, mut len) in ranges {
            assert!(
                offset
                    .checked_add(len)
                    .is_some_and(|end| end <= self.base as u64),
                "undo range outside the data area"
            );
            while len > 0 {
                let n = len.min(MAX_RECORD_LEN);
                self.heads.push(offset << LEN_BITS | n);
                offset += n;
                len -= n;
            }
        }
        if self.heads.is_empty() {
            return;
        }
        let records = self.heads.iter().map(|&word| record_bytes(unpack(word).1));
        let need = GROUP_HEADER + records.sum::<usize>();
        let have = self.len - self.tail;
        assert!(
            need <= have,
            "undo log overflow: the write set needs {need} bytes of log, {have} are free"
        );
        self.buf.clear();
        self.buf.resize(need, 0);
        let mut at = GROUP_HEADER;
        for &word in &self.heads {
            let (offset, len) = unpack(word);
            self.buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
            self.buf[at + 8..at + 8 + len].copy_from_slice(region.slice(offset, len));
            at += record_bytes(len);
            self.stats.bytes_logged += len as u64;
        }
        self.stats.entries += self.heads.len() as u64;
        debug_assert_eq!(at, need);
        let payload = need - GROUP_HEADER;
        let sum = checksum(self.epoch(region), &self.buf[GROUP_HEADER..]);
        self.buf[..8].copy_from_slice(&(payload as u64).to_le_bytes());
        self.buf[8..GROUP_HEADER].copy_from_slice(&sum.to_le_bytes());
        let at = self.base + self.tail;
        region.write(at, &self.buf);
        region.persist(at, need);
        self.stats.record_lines += PmemRegion::lines_of(at, need).count() as u64;
        self.tail += need;
    }

    /// Commit the open FASE by bumping the durable epoch: one persisted
    /// word, after which none of the FASE's groups validates. The
    /// caller must have flushed **and fenced** every data store of the
    /// FASE first — the moment the new epoch is durable nothing can
    /// roll them back. A FASE that logged no record costs nothing here.
    pub fn commit(&mut self, region: &mut PmemRegion) {
        if self.tail != RECORDS_START {
            self.bump_epoch(region);
        }
        self.stats.commits += 1;
    }

    /// The records of the group at log offset `pos`, pushed onto `recs`
    /// as `(data offset, len, log offset of the old bytes)`, and the
    /// log offset just past it — or `None` (and `recs` untouched) when
    /// no group of epoch `epoch` is there.
    fn parse_group(
        &self,
        region: &PmemRegion,
        epoch: u64,
        pos: usize,
        recs: &mut Vec<(usize, usize, usize)>,
    ) -> Option<usize> {
        let room = self.len.checked_sub(pos + GROUP_HEADER)?;
        let at = self.base + pos;
        let payload = region.read_u64(at);
        if payload == 0 || !payload.is_multiple_of(8) || payload > room as u64 {
            return None;
        }
        let start = at + GROUP_HEADER;
        let end = start + payload as usize;
        if checksum(epoch, region.slice(start, payload as usize)) != region.read_u64(at + 8) {
            return None;
        }
        let first = recs.len();
        let mut p = start;
        while p < end {
            let (offset, len) = unpack(region.read_u64(p));
            let next = p + record_bytes(len);
            // a real record restores 1+ bytes that lie inside the data
            // area [0, base) from bytes that lie inside its group
            if len == 0 || offset + len > self.base || next > end {
                recs.truncate(first);
                return None;
            }
            recs.push((offset, len, p + 8));
            p = next;
        }
        Some(pos + GROUP_HEADER + payload as usize)
    }

    /// Scan the log after a restart and roll back an incomplete FASE, if
    /// any: every group from the start of the record area that
    /// validates against the durable epoch is live, the first that does
    /// not ends the scan. Restored bytes are persisted before the epoch
    /// bump that retires the groups. Returns the number of undo records
    /// applied.
    ///
    /// Every length and offset read from the log is checked before use
    /// (see the module doc). Only a missing magic word — an image that
    /// was never this log — is a hard [`RecoveryError`].
    pub fn recover(&mut self, region: &mut PmemRegion) -> Result<usize, RecoveryError> {
        let found = region.read_u64(self.base + OFF_MAGIC);
        if found != LOG_MAGIC {
            return Err(RecoveryError::BadMagic { found });
        }
        let epoch = self.epoch(region);
        let mut recs = Vec::new();
        let mut pos = RECORDS_START;
        while let Some(next) = self.parse_group(region, epoch, pos, &mut recs) {
            pos = next;
        }
        for &(offset, len, data_at) in recs.iter().rev() {
            self.buf.clear();
            self.buf.extend_from_slice(region.slice(data_at, len));
            region.write(offset, &self.buf);
            region.flush_range(offset, len);
        }
        if !recs.is_empty() {
            region.fence();
            self.stats.rollbacks += 1;
        }
        self.bump_epoch(region);
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

    /// Durable `bytes` at `offset`.
    fn seed(r: &mut PmemRegion, offset: usize, bytes: &[u8]) {
        r.write(offset, bytes);
        r.persist(offset, bytes.len());
    }

    /// Log `[offset, offset+new.len())` as a group of one, then store
    /// `new` there and persist it — a per-store FASE step whose data
    /// reached NVRAM.
    fn logged_store(l: &mut UndoLog, r: &mut PmemRegion, offset: usize, new: &[u8]) {
        l.append_group(r, &[(offset as u64, new.len() as u64)]);
        seed(r, offset, new);
    }

    fn reopened(r: &PmemRegion) -> UndoLog {
        UndoLog::open(r, LOG_BASE, LOG_LEN).unwrap()
    }

    fn epoch(r: &PmemRegion) -> u64 {
        r.read_u64(LOG_BASE + OFF_EPOCH)
    }

    /// Forge a durable, checksum-valid group of `epoch` at log offset
    /// `pos` from raw `(header word, old bytes)` records.
    fn forge_group(r: &mut PmemRegion, pos: usize, epoch: u64, recs: &[(u64, &[u8])]) {
        let mut payload = Vec::new();
        for (word, old) in recs {
            payload.extend_from_slice(&word.to_le_bytes());
            payload.extend_from_slice(old);
            payload.resize(payload.len().next_multiple_of(8), 0);
        }
        let at = LOG_BASE + pos;
        r.write_u64(at, payload.len() as u64);
        r.write_u64(at + 8, checksum(epoch, &payload));
        r.write(at + GROUP_HEADER, &payload);
        r.persist(at, GROUP_HEADER + payload.len());
    }

    #[test]
    fn entry_then_commit_truncates() {
        let (mut r, mut l) = setup();
        logged_store(&mut l, &mut r, 0, &[1, 2, 3, 4]);
        assert_eq!(l.used(), (GROUP_HEADER + 8 + 8) as u64);
        l.commit(&mut r);
        assert_eq!(l.used(), 0);
        assert_eq!(epoch(&r), 1);
        let s = l.stats();
        assert_eq!((s.entries, s.commits, s.bytes_logged), (1, 1, 4));
        assert_eq!((s.record_lines, s.commit_lines), (1, 1));
    }

    #[test]
    fn rollback_restores_old_values_in_reverse() {
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        // FASE: two groups on the same location; the data may be
        // durable — the log already is
        logged_store(&mut l, &mut r, 0, b"BBBB");
        logged_store(&mut l, &mut r, 0, b"CCCC");
        r.crash(&CrashMode::AllInFlightLands);
        let mut l2 = reopened(&r);
        assert_eq!(l2.recover(&mut r).unwrap(), 2);
        assert_eq!(r.slice(0, 4), b"AAAA", "reverse order restores oldest");
        assert_eq!(l2.stats().rollbacks, 1);
    }

    #[test]
    fn committed_fase_is_not_rolled_back() {
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        l.commit(&mut r);
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 0);
        assert_eq!(r.slice(0, 4), b"BBBB");
    }

    #[test]
    fn commit_is_one_flush_and_one_fence() {
        let (mut r, mut l) = setup();
        logged_store(&mut l, &mut r, 0, b"BBBB");
        let before = r.stats();
        l.commit(&mut r);
        let after = r.stats();
        assert_eq!(after.flushes - before.flushes, 1, "the epoch line");
        assert_eq!(after.fences - before.fences, 1);
        assert_eq!(after.stores - before.stores, 1, "the 8-byte epoch word");
    }

    #[test]
    fn commit_of_a_fase_that_logged_nothing_is_free() {
        let (mut r, mut l) = setup();
        let before = r.stats();
        l.commit(&mut r);
        assert_eq!(r.stats(), before, "no store, no flush, no fence");
        assert_eq!(l.stats().commits, 1, "still a commit");
        assert_eq!(l.stats().commit_lines, 0);
    }

    #[test]
    fn truncation_is_the_commit_point() {
        // The epoch bump is what truncates the log: it retires every
        // group at once. Data flushed and fenced, new epoch written but
        // not yet
        // durable: under the strict adversary the group still validates
        // and the FASE rolls back; once the epoch line lands (here:
        // every in-flight line does) the FASE stands.
        for (mode, want) in [
            (CrashMode::StrictDurableOnly, b"AAAA"),
            (CrashMode::AllInFlightLands, b"BBBB"),
        ] {
            let (mut r, mut l) = setup();
            seed(&mut r, 0, b"AAAA");
            logged_store(&mut l, &mut r, 0, b"BBBB");
            r.write_u64(LOG_BASE + OFF_EPOCH, 1); // commit, unflushed
            r.crash(&mode);
            reopened(&r).recover(&mut r).unwrap();
            assert_eq!(r.slice(0, 4), want, "{mode:?}");
        }
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let (mut r, mut l) = setup();
        assert_eq!(l.recover(&mut r).unwrap(), 0);
    }

    #[test]
    fn recovery_always_bumps_the_epoch() {
        let (mut r, mut l) = setup();
        assert_eq!(l.recover(&mut r).unwrap(), 0, "empty log");
        assert_eq!(epoch(&r), 1);
        logged_store(&mut l, &mut r, 0, b"BBBB");
        assert_eq!(l.recover(&mut r).unwrap(), 1);
        assert_eq!(epoch(&r), 2);
        assert_eq!(l.used(), 0);
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(epoch(&r), 2, "the bump was persisted");
    }

    #[test]
    fn stale_records_past_the_tail_are_never_replayed() {
        // A committed FASE leaves its groups in place. The next FASE's
        // shorter group overwrites only the front of them; what follows
        // it is a well-formed group — of an older epoch.
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        seed(&mut r, 64, b"XXXX");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        logged_store(&mut l, &mut r, 64, b"YYYY");
        l.commit(&mut r);
        logged_store(&mut l, &mut r, 0, b"CCCC");
        r.crash(&CrashMode::AllInFlightLands);
        let stale = RECORDS_START + GROUP_HEADER + 16;
        let mut recs = Vec::new();
        assert!(
            reopened(&r).parse_group(&r, 0, stale, &mut recs).is_some(),
            "the leftover is intact under its own epoch"
        );
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 1);
        assert_eq!(r.slice(0, 4), b"BBBB", "second FASE rolled back");
        assert_eq!(r.slice(64, 4), b"YYYY", "first FASE's group ignored");
    }

    #[test]
    fn log_before_data_makes_early_durable_data_safe() {
        // The dangerous interleaving: data lands in NVRAM, the group is
        // required to undo it. Because append_group persists before
        // the data store, rollback always has what it needs.
        let (mut r, mut l) = setup();
        seed(&mut r, 100, b"OLD!");
        l.append_group(&mut r, &[(100, 4)]);
        r.write(100, b"NEW!");
        // crash where the dirty data line *lands* but nothing else
        r.crash(&CrashMode::random(0.0, 1.0, 3));
        reopened(&r).recover(&mut r).unwrap();
        assert_eq!(r.slice(100, 4), b"OLD!");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        r.crash(&CrashMode::AllInFlightLands);
        reopened(&r).recover(&mut r).unwrap();
        assert_eq!(r.slice(0, 4), b"AAAA");
        // crash again mid-"nothing" and recover again
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 0);
        assert_eq!(r.slice(0, 4), b"AAAA");
    }

    #[test]
    fn a_crash_inside_recovery_recovers_again() {
        // restores written and flushed, epoch not yet bumped: the
        // groups still validate and the second recovery redoes them
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        seed(&mut r, 512, b"XXXX");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        logged_store(&mut l, &mut r, 512, b"YYYY");
        r.crash(&CrashMode::AllInFlightLands);
        r.write(512, b"XXXX");
        r.flush_range(512, 4);
        r.crash(&CrashMode::random(0.5, 0.5, 1));
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 2);
        assert_eq!(r.slice(0, 4), b"AAAA");
        assert_eq!(r.slice(512, 4), b"XXXX");
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
    fn open_rejects_an_image_of_the_old_format() {
        // "FASELOG1": a durable tail word and 16-byte record headers
        let (mut r, _) = setup();
        r.write_u64(LOG_BASE + OFF_MAGIC, 0x4641_5345_4c4f_4731);
        r.write_u64(LOG_BASE + 8, 16);
        r.persist(LOG_BASE, 16);
        assert!(matches!(
            UndoLog::open(&r, LOG_BASE, LOG_LEN),
            Err(RecoveryError::BadMagic {
                found: 0x4641_5345_4c4f_4731
            })
        ));
    }

    #[test]
    fn open_rejects_an_image_of_the_second_format() {
        // "FASELOG2": this header, but the first group at byte 16 — a
        // live one here, which a scan from byte 64 would never see
        let (mut r, _) = setup();
        seed(&mut r, 0, b"AAAA");
        r.write_u64(LOG_BASE + OFF_MAGIC, 0x4641_5345_4c4f_4732);
        r.persist(LOG_BASE, 16);
        forge_group(&mut r, 16, 0, &[(4, b"ZZZZ")]);
        assert!(matches!(
            UndoLog::open(&r, LOG_BASE, LOG_LEN),
            Err(RecoveryError::BadMagic {
                found: 0x4641_5345_4c4f_4732
            })
        ));
        assert_eq!(r.slice(0, 4), b"AAAA", "nothing applied");
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
    fn recover_ignores_a_corrupt_epoch_word() {
        // no group validates against an epoch none was written under
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        r.write_u64(LOG_BASE + OFF_EPOCH, u64::MAX);
        r.persist(LOG_BASE + OFF_EPOCH, 8);
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 0);
        assert_eq!(r.slice(0, 4), b"BBBB", "nothing applied");
        assert_eq!(epoch(&r), 0, "the bump wraps");
    }

    #[test]
    fn recover_ignores_a_group_whose_length_leaves_the_log_area() {
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        let second = LOG_BASE + l.used() as usize + RECORDS_START;
        for bytes in [LOG_LEN as u64, !7u64, 12] {
            let mut r = r.clone();
            r.write_u64(second, bytes);
            r.persist(second, 8);
            r.crash(&CrashMode::StrictDurableOnly);
            assert_eq!(reopened(&r).recover(&mut r).unwrap(), 1, "{bytes}");
            assert_eq!(r.slice(0, 4), b"AAAA");
        }
        // and as the first group: nothing is live
        r.write_u64(LOG_BASE + RECORDS_START, 1 << 40);
        r.persist(LOG_BASE + RECORDS_START, 8);
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 0);
        assert_eq!(r.slice(0, 4), b"BBBB");
    }

    /// A live group followed by a forged one — right epoch, matching
    /// checksum — that holds a sane record and `bad`: the scan must end
    /// at the forgery and apply none of it.
    fn insane_record_ends_the_scan(bad: (u64, &[u8])) {
        let sane = (8u64 << LEN_BITS | 4, &b"ZZZZ"[..]);
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        logged_store(&mut l, &mut r, 0, b"BBBB");
        let pos = RECORDS_START + l.used() as usize;
        forge_group(&mut r, pos, 0, &[sane, bad]);
        r.crash(&CrashMode::StrictDurableOnly);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 1, "{:#x}", bad.0);
        assert_eq!(r.slice(0, 4), b"AAAA");
        assert_eq!(r.slice(8, 4), [0; 4], "the sane record of the bad group");
        // the forgery itself is sound: without the bad record it applies
        let (mut r, _) = setup();
        forge_group(&mut r, RECORDS_START, 0, &[sane]);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 1);
        assert_eq!(r.slice(8, 4), b"ZZZZ");
    }

    #[test]
    fn recover_stops_at_out_of_range_record() {
        // A record claiming to restore bytes outside the data area, or
        // from bytes outside its group, cannot come from a crash: even
        // under a matching checksum it must stop the scan, not index
        // out of bounds.
        insane_record_ends_the_scan(((LOG_BASE as u64 - 2) << LEN_BITS | 4, b"!!!!"));
        insane_record_ends_the_scan((u64::MAX, b"!!!!"));
        insane_record_ends_the_scan((16 << LEN_BITS | 400, b"!!!!"));
    }

    #[test]
    fn commit_shaped_record_is_garbage_that_stops_the_scan() {
        // No COMMIT record exists. The word the first format used for
        // one (all ones: no data offset) and an empty record commit
        // nothing — each is just a record no append writes.
        insane_record_ends_the_scan((u64::MAX << LEN_BITS, b""));
        insane_record_ends_the_scan((16 << LEN_BITS, b""));
    }

    #[test]
    fn recover_rejects_clobbered_magic() {
        let (mut r, mut l) = setup();
        logged_store(&mut l, &mut r, 0, b"AAAA");
        seed(&mut r, LOG_BASE + OFF_MAGIC, &0xDEAD_BEEFu64.to_le_bytes());
        r.crash(&CrashMode::StrictDurableOnly);
        assert!(matches!(
            l.recover(&mut r),
            Err(RecoveryError::BadMagic { found: 0xDEAD_BEEF })
        ));
    }

    #[test]
    fn a_group_that_does_not_fit_is_refused_whole() {
        // the overflow panic's message, or None when the group fit
        fn refusal(l: &mut UndoLog, r: &mut PmemRegion, ranges: &[(u64, u64)]) -> Option<String> {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                l.append_group(r, ranges);
            }));
            refused.err().map(|message| {
                message
                    .downcast_ref::<String>()
                    .cloned()
                    .expect("a formatted panic message")
            })
        }
        // 112 bytes for groups
        let log_len = RECORDS_START + 112;
        let mut r = PmemRegion::new(4096 + log_len);
        let mut l = UndoLog::format(&mut r, 4096, log_len);
        l.append_group(&mut r, &[(0, 32)]);
        let (used, stats, pmem) = (l.used(), l.stats(), r.stats());
        // 16 + 3 × (8 + 32) against the 56 bytes left
        let ranges = [(64, 32), (128, 32), (192, 32)];
        assert_eq!(
            refusal(&mut l, &mut r, &ranges).as_deref(),
            Some("undo log overflow: the write set needs 136 bytes of log, 56 are free")
        );
        assert_eq!((l.used(), l.stats(), r.stats()), (used, stats, pmem));
        l.append_group(&mut r, &[(64, 32)]);
        assert_eq!(l.used(), 112, "exactly full");
        assert_eq!(
            refusal(&mut l, &mut r, &[(128, 1)]).as_deref(),
            Some("undo log overflow: the write set needs 32 bytes of log, 0 are free")
        );
    }

    #[test]
    fn group_append_costs_one_fence_for_any_range_count() {
        let (mut r, mut l) = setup();
        let before = r.stats();
        let ranges: Vec<(u64, u64)> = (0..8u64).map(|i| (i * 8, 8)).collect();
        l.append_group(&mut r, &ranges);
        let after = r.stats();
        assert_eq!(
            after.fences - before.fences,
            1,
            "records publish themselves"
        );
        assert_eq!(after.stores - before.stores, 1, "one write of the group");
        // 16 + 8 × 16 bytes from offset 64: lines 1..=3 of the log
        assert_eq!(after.flushes - before.flushes, 3);
        assert_eq!(l.stats().record_lines, 3);
        assert_eq!(l.stats().entries, 8);
    }

    #[test]
    fn a_first_group_of_64_bytes_is_one_line() {
        // 16 + 8 + 40 bytes: exactly the line after the header's
        let (mut r, mut l) = setup();
        let before = r.stats().flushes;
        l.append_group(&mut r, &[(0, 40)]);
        assert_eq!(l.used(), 64);
        assert_eq!(r.stats().flushes - before, 1);
        assert_eq!(l.stats().record_lines, 1);
    }

    #[test]
    fn group_rollback_restores_pre_group_values() {
        let (mut r, mut l) = setup();
        seed(&mut r, 0, b"AAAA");
        seed(&mut r, 64, b"XXXX");
        l.append_group(&mut r, &[(0, 4), (64, 4)]);
        seed(&mut r, 0, b"BBBB");
        seed(&mut r, 64, b"YYYY");
        r.crash(&CrashMode::AllInFlightLands);
        assert_eq!(reopened(&r).recover(&mut r).unwrap(), 2);
        assert_eq!(r.slice(0, 4), b"AAAA");
        assert_eq!(r.slice(64, 4), b"XXXX");
    }

    #[test]
    fn a_group_of_which_only_some_lines_landed_is_invisible() {
        // three log lines; every proper subset that reaches NVRAM
        // leaves a group recovery rejects — safe, because
        // group-log-before-data means no protected store has happened
        let (mut base, mut l) = setup();
        for i in 0..16usize {
            seed(&mut base, i * 8, &[0xA0 + i as u8; 8]);
        }
        let ranges: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 8, 8)).collect();
        let mut full = base.clone();
        l.append_group(&mut full, &ranges);
        let lines = PmemRegion::lines_of(LOG_BASE + RECORDS_START, l.used() as usize);
        let lines: Vec<usize> = lines.map(|l| l as usize * 64).collect();
        assert_eq!(lines.len(), 5);
        for landed in 0u32..(1 << lines.len()) {
            let mut r = base.clone();
            for (i, &at) in lines.iter().enumerate() {
                if landed >> i & 1 == 1 {
                    seed(&mut r, at, full.slice(at, 64));
                }
            }
            // the stores the group would have protected never ran, so
            // applying any of it is visible only through the count
            let applied = reopened(&r).recover(&mut r).unwrap();
            let all = landed == (1 << lines.len()) - 1;
            assert_eq!(applied, if all { 16 } else { 0 }, "subset {landed:#b}");
        }
    }

    #[test]
    fn a_long_range_splits_into_records_and_rolls_back_whole() {
        let len = MAX_RECORD_LEN as usize * 2 + 5;
        let base = (len + 64).next_multiple_of(64);
        let log_len = len + 4096;
        let mut r = PmemRegion::new(base + log_len);
        let mut l = UndoLog::format(&mut r, base, log_len);
        let old: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        seed(&mut r, 3, &old);
        l.append_group(&mut r, &[(3, len as u64)]);
        assert_eq!(l.stats().entries, 3);
        assert_eq!(
            l.used() as usize,
            GROUP_HEADER + 3 * 8 + len.next_multiple_of(8)
        );
        seed(&mut r, 3, &vec![0xEE; len]);
        r.crash(&CrashMode::StrictDurableOnly);
        let mut l2 = UndoLog::open(&r, base, log_len).unwrap();
        assert_eq!(l2.recover(&mut r).unwrap(), 3);
        assert_eq!(r.slice(3, len), &old[..]);
    }
}
