//! The per-thread FASE runtime: the piece Atlas implements with an LLVM
//! instrumentation pass plus a runtime library. Every persistent store
//! goes through [`FaseRuntime::store`], which
//!
//! 1. makes the undo entry durable (log-before-data) — the pre-image of
//!    the words the store changes, nothing for a store that changes
//!    nothing,
//! 2. updates the data in place (volatile),
//! 3. reports the touched cache line(s) to the pluggable persistence
//!    policy, and submits whatever flushes the policy requests to the
//!    runtime's [`FlushRing`],
//! 4. optionally records the event stream for offline analysis.
//!
//! Shadow memory — bytes no committed state names until the FASE
//! commits — skips step 1 through [`FaseRuntime::store_fresh`]; steps
//! 2–4 and the commit are the same.
//!
//! The undo log is optional, as the heap is, and belongs to the programs
//! that log. A `log_len` of 0 makes a runtime whose region is the data
//! area alone and whose logged stores panic: both engines run so, and
//! commit by their own sealed units ([`crate::seal`]).
//!
//! At the end of an outermost FASE the policy's buffered lines join the
//! ring, the ring drains as sorted, coalesced ranged sweeps, and a fence
//! orders them. Then the log's epoch bump commits whatever the FASE
//! logged (one persisted word — the commit point); a FASE that logged
//! nothing, or ran with no log, commits by the data fence alone, so it
//! must be able to tell from its own stores whether they all landed
//! (the hash shard's sealed slots, the tree's sealed pages).
//!
//! The ring is the only flush path: a flush reaches NVRAM before commit
//! only when a full ring drains inline.

use nvcache_core::{AdaptiveScPolicy, PersistPolicy, Policy, PolicyKind, StoreOutcome};
use nvcache_pmem::{CrashMode, CrashPlan, FlushRing, PAlloc, PmemRegion, RingStats, LINE_SIZE};
use nvcache_telemetry::{
    Clock, ClockSource, CounterId, EventKind, HistId, Recorder, Sample, TelemetryConfig,
    TelemetrySnapshot, ThreadRecorder,
};
use nvcache_trace::{Line, StoreSink, ThreadTrace, TraceRecorder};

use crate::error::RecoveryError;
use crate::log::{LogStats, UndoLog};

/// Policy flush buffer capacity reserved up front (and preserved across
/// FASEs) — sized for the largest per-store eviction burst the policies
/// emit plus typical FASE-end batches.
const FLUSH_BUF_CAPACITY: usize = 64;

/// Submission-ring slots. Sized so whole KV batches fit without
/// tripping the inline-drain fallback.
const RING_CAPACITY: usize = 1024;

/// The runtime's flush path. There is one, so this names it and selects
/// nothing; it is kept, with [`FaseRuntime::set_flush_mode`], for
/// `benchmark/src/adapter.rs`, which asks for it by name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlushMode {
    /// Policy flushes are submitted into a [`FlushRing`]; commit
    /// publishes a fence token and drains sorted, coalesced ranged
    /// sweeps before the ordering fence.
    #[default]
    Pipelined,
}

/// Counters of the volatile slab allocator that heaps no longer have:
/// [`FaseRuntime::slab_stats`] never returns one. Kept, with it, for
/// `benchmark/src/adapter.rs`, which reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Allocations served without a persist.
    pub fast_allocs: u64,
    /// Chunks carved from the heap.
    pub chunks: u64,
    /// Allocations that fell back to the heap's free lists.
    pub fallback_allocs: u64,
}

/// Counters of runtime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaseStats {
    /// Outermost FASEs completed.
    pub fases: u64,
    /// Persistent store operations.
    pub stores: u64,
    /// Cache lines touched by stores (≥ stores; a store may span lines).
    pub store_lines: u64,
    /// Data-line flushes issued by the policy (the paper's flush count),
    /// and one per [`FaseRuntime::persist`].
    pub data_flushes: u64,
    /// Fences issued for data ordering: one per FASE and one per
    /// [`FaseRuntime::persist`]. A commit's own fence — the log's epoch
    /// persist — is not counted.
    pub fences: u64,
    /// Recoveries that rolled back an incomplete FASE.
    pub rollbacks: u64,
}

impl FaseStats {
    /// Data flushes per store-line — the paper's flush ratio.
    pub fn flush_ratio(&self) -> f64 {
        if self.store_lines == 0 {
            0.0
        } else {
            self.data_flushes as f64 / self.store_lines as f64
        }
    }
}

impl std::ops::Sub for FaseStats {
    type Output = FaseStats;

    /// Counter-wise difference — the interval delta between two
    /// snapshots of the same runtime (`self` the later one).
    fn sub(self, earlier: FaseStats) -> FaseStats {
        FaseStats {
            fases: self.fases - earlier.fases,
            stores: self.stores - earlier.stores,
            store_lines: self.store_lines - earlier.store_lines,
            data_flushes: self.data_flushes - earlier.data_flushes,
            fences: self.fences - earlier.fences,
            rollbacks: self.rollbacks - earlier.rollbacks,
        }
    }
}

impl std::ops::Add for FaseStats {
    type Output = FaseStats;

    /// Counter-wise sum — aggregate across shards or windows.
    fn add(self, other: FaseStats) -> FaseStats {
        FaseStats {
            fases: self.fases + other.fases,
            stores: self.stores + other.stores,
            store_lines: self.store_lines + other.store_lines,
            data_flushes: self.data_flushes + other.data_flushes,
            fences: self.fences + other.fences,
            rollbacks: self.rollbacks + other.rollbacks,
        }
    }
}

impl std::iter::Sum for FaseStats {
    fn sum<I: Iterator<Item = FaseStats>>(iter: I) -> FaseStats {
        iter.fold(FaseStats::default(), |a, b| a + b)
    }
}

/// A per-thread failure-atomic-section runtime over one region.
pub struct FaseRuntime {
    region: PmemRegion,
    /// `None` for a runtime created with no log area.
    log: Option<UndoLog>,
    /// Enum-dispatched: the store path calls `on_store` through a match
    /// on six concrete types, not a vtable (same engine as the replay
    /// drivers' monomorphized loops).
    policy: Policy,
    heap: Option<PAlloc>,
    data_len: usize,
    depth: usize,
    flush_buf: Vec<Line>,
    recorder: Option<TraceRecorder>,
    stats: FaseStats,
    /// Cumulative counters at the last [`FaseRuntime::take_stats`] call
    /// (the interval-delta baseline).
    stats_taken: FaseStats,
    /// Optional telemetry shard (one branch per store when disabled);
    /// timeline time axis = store-line ordinal.
    telemetry: Option<ThreadRecorder>,
    /// Span-timing clock; swap in a [`ClockSource::fake`] for
    /// deterministic latency tests. Only read when telemetry is on.
    clock: ClockSource,
    /// Ring-full inline-drain fallbacks (the flush path's stall analog,
    /// reported by the runtime sampler).
    ring_fallbacks: u64,
    /// Wall nanoseconds the most recent recovery took
    /// (`try_reopen`/`reopen` or `crash_and_recover`); `None` until one
    /// runs.
    last_recovery_ns: Option<u64>,
    /// Store lines inside the current outermost FASE.
    fase_store_lines: u64,
    /// The flush submission ring every policy flush goes through.
    ring: FlushRing,
    /// The changed-word runs of the store being logged (reused, never
    /// shrunk: the store path allocates nothing once warm).
    runs: Vec<(u64, u64)>,
}

impl std::fmt::Debug for FaseRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaseRuntime")
            .field("data_len", &self.data_len)
            .field("depth", &self.depth)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FaseRuntime {
    /// Create a runtime over a fresh region: `data_len` bytes of user
    /// data followed by a `log_len`-byte undo log, or no log at all for
    /// a `log_len` of 0.
    pub fn new(data_len: usize, log_len: usize, policy: &PolicyKind) -> Self {
        let data_len = data_len.div_ceil(64) * 64;
        let mut region = PmemRegion::new(data_len + log_len);
        let log = (log_len > 0).then(|| UndoLog::format(&mut region, data_len, log_len));
        Self::from_parts(region, log, policy, data_len)
    }

    /// A runtime over `region` and its `log`, with no FASE open, an
    /// empty ring and zeroed counters: what both constructors share.
    fn from_parts(
        region: PmemRegion,
        log: Option<UndoLog>,
        policy: &PolicyKind,
        data_len: usize,
    ) -> Self {
        FaseRuntime {
            region,
            log,
            policy: policy.build_policy(),
            heap: None,
            data_len,
            depth: 0,
            flush_buf: Vec::with_capacity(FLUSH_BUF_CAPACITY),
            recorder: None,
            stats: FaseStats::default(),
            stats_taken: FaseStats::default(),
            telemetry: None,
            clock: ClockSource::mono(),
            ring_fallbacks: 0,
            last_recovery_ns: None,
            fase_store_lines: 0,
            ring: FlushRing::new(RING_CAPACITY),
            runs: Vec::new(),
        }
    }

    /// Like [`FaseRuntime::new`], with a persistent heap formatted over
    /// the data area (for pointer-based structures such as the MDB
    /// B+-tree).
    pub fn with_heap(data_len: usize, log_len: usize, policy: &PolicyKind) -> Self {
        let mut rt = Self::new(data_len, log_len, policy);
        rt.heap = Some(PAlloc::format_with_limit(
            &mut rt.region,
            rt.data_len as u64,
        ));
        rt
    }

    /// Re-attach to a region that previously backed a runtime (e.g.
    /// reopened from disk or after a crash), running recovery first. A
    /// region that was never formatted as a FASE runtime (or whose log
    /// header is corrupted beyond what a crash can produce) surfaces as
    /// a typed [`RecoveryError`] instead of a panic, so callers handling
    /// untrusted images — disk files, fuzzer crash captures — can
    /// report the condition. With a `log_len` of 0 there is nothing to
    /// recover: the region need only hold the data area. A reopened
    /// runtime has no heap ([`FaseRuntime::with_heap`]): no image that
    /// is reopened keeps one.
    pub fn try_reopen(
        mut region: PmemRegion,
        data_len: usize,
        log_len: usize,
        policy: &PolicyKind,
    ) -> Result<Self, RecoveryError> {
        let clock = ClockSource::mono();
        let t0 = clock.now_ns();
        let data_len = data_len.div_ceil(64) * 64;
        let (region_len, need) = (region.len(), data_len + log_len);
        if region_len < need {
            return Err(RecoveryError::RegionTooSmall { region_len, need });
        }
        let opened = (log_len > 0).then(|| UndoLog::open(&region, data_len, log_len));
        let mut log = opened.transpose()?;
        let rolled = log.as_mut().map_or(Ok(0), |log| log.recover(&mut region))?;
        let recovery_ns = clock.now_ns().saturating_sub(t0);
        let mut rt = Self::from_parts(region, log, policy, data_len);
        rt.stats.rollbacks = u64::from(rolled > 0);
        rt.clock = clock;
        rt.last_recovery_ns = Some(recovery_ns);
        Ok(rt)
    }

    /// Enable event recording; the trace is retrieved with
    /// [`FaseRuntime::take_trace`].
    pub fn record_trace(&mut self) {
        self.recorder = Some(TraceRecorder::new());
    }

    /// The recorded event stream so far (drains the recorder).
    pub fn take_trace(&mut self) -> Option<ThreadTrace> {
        self.recorder.as_mut().map(|r| r.finish())
    }

    /// Enable telemetry recording (counters, histograms, event
    /// timeline); retrieved with [`FaseRuntime::take_telemetry`].
    pub fn enable_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.telemetry = Some(ThreadRecorder::new(0, cfg));
    }

    /// Snapshot and drain the telemetry recorded so far. `None` if
    /// telemetry was never enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySnapshot> {
        self.telemetry
            .take()
            .map(|rec| TelemetrySnapshot::from_threads(vec![rec]))
    }

    /// Replace the span-timing clock (tests install a
    /// [`ClockSource::fake`] for deterministic latency histograms).
    pub fn set_clock(&mut self, clock: ClockSource) {
        self.clock = clock;
    }

    /// Wall nanoseconds the most recent recovery took (`try_reopen` or
    /// [`FaseRuntime::crash_and_recover`]); `None` until one runs.
    pub fn last_recovery_ns(&self) -> Option<u64> {
        self.last_recovery_ns
    }

    /// Usable data bytes.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Runtime counters.
    pub fn stats(&self) -> FaseStats {
        self.stats
    }

    /// Undo-log counters: records written, and the log's share of the
    /// region's flushes by kind. All zero with no log.
    pub fn log_stats(&self) -> LogStats {
        self.log.as_ref().map(UndoLog::stats).unwrap_or_default()
    }

    /// Counters accumulated since the previous `take_stats` call (or
    /// since creation, on the first call) — the per-window delta a
    /// serving loop reports without re-diffing the cumulative counters.
    /// [`FaseStats::flush_ratio`] on the returned value is the window's
    /// flush ratio. Cumulative [`FaseRuntime::stats`] is unaffected.
    pub fn take_stats(&mut self) -> FaseStats {
        let delta = self.stats - self.stats_taken;
        self.stats_taken = self.stats;
        delta
    }

    /// Current software-cache capacity (`None` for policies without a
    /// resizable cache).
    pub fn sc_capacity(&self) -> Option<usize> {
        self.policy.sc_capacity()
    }

    /// The adaptive policy, when the runtime runs SC: its decisions,
    /// the window it analysed, and [`AdaptiveScPolicy::restart_sampling`]
    /// through [`FaseRuntime::adaptive_mut`]. It samples and resizes
    /// inside the store path; a resize is pinned on the telemetry
    /// timeline as a `CapacityChange` event.
    pub fn adaptive(&self) -> Option<&AdaptiveScPolicy> {
        match &self.policy {
            Policy::ScAdaptive(p) => Some(p),
            _ => None,
        }
    }

    /// [`FaseRuntime::adaptive`], mutably.
    pub fn adaptive_mut(&mut self) -> Option<&mut AdaptiveScPolicy> {
        match &mut self.policy {
            Policy::ScAdaptive(p) => Some(p),
            _ => None,
        }
    }

    /// The underlying region (read access for verification).
    pub fn region(&self) -> &PmemRegion {
        &self.region
    }

    /// Does nothing: the ring is the only flush path ([`FlushMode`]).
    /// Kept for `benchmark/src/adapter.rs`, which still calls it.
    pub fn set_flush_mode(&mut self, _mode: FlushMode) {}

    /// Submission-ring counters.
    pub fn ring_stats(&self) -> RingStats {
        self.ring.stats()
    }

    /// Always `None`: the heap ([`PAlloc`]) is the only allocator. Kept
    /// for `benchmark/src/adapter.rs`, which reads [`SlabStats`].
    pub fn slab_stats(&self) -> Option<SlabStats> {
        None
    }

    /// Submit the policy's buffered flush obligations to the ring,
    /// counting them into `data_flushes` at emission time — the paper's
    /// count, before the drain dedups the instructions. Returns the
    /// obligation count.
    fn emit_flushes(&mut self) -> u64 {
        let n = self.flush_buf.len() as u64;
        for line in self.flush_buf.drain(..) {
            if !self.ring.submit(line.0) {
                // inline-drain fallback: single-thread mode empties the
                // full ring, then the submit retries
                self.ring_fallbacks += 1;
                self.ring.drain_all(&mut self.region);
                let ok = self.ring.submit(line.0);
                debug_assert!(ok, "ring accepts after a full drain");
            }
        }
        self.stats.data_flushes += n;
        n
    }

    /// Current FASE nesting depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    // ----- FASE control -------------------------------------------------

    /// Enter a FASE (sections nest; only the outermost pair commits).
    pub fn begin_fase(&mut self) {
        self.depth += 1;
        if self.depth == 1 {
            self.policy.on_fase_begin();
            if self.telemetry.is_some() {
                self.fase_store_lines = 0;
                let t = self.stats.store_lines;
                if let Some(tel) = &mut self.telemetry {
                    tel.incr(CounterId::FaseBegins);
                    tel.emit(EventKind::FaseBegin, t, 0, 0);
                }
            }
        }
        if let Some(r) = &mut self.recorder {
            r.fase_begin();
        }
    }

    /// Leave a FASE; the outermost exit flushes, fences and commits.
    pub fn end_fase(&mut self) {
        assert!(self.depth > 0, "end_fase without begin_fase");
        if let Some(r) = &mut self.recorder {
            r.fase_end();
        }
        if self.depth == 1 {
            // span-time the whole commit (and the ring drain within it);
            // the clock is only read when telemetry is live
            let commit_t0 = if self.telemetry.is_some() {
                self.clock.now_ns()
            } else {
                0
            };
            self.policy.on_fase_end(&mut self.flush_buf);
            let n = self.emit_flushes();
            // publish the epoch fence token, then retire everything
            // submitted ≤ token as coalesced ranged sweeps
            let drain_t0 = if self.telemetry.is_some() {
                self.clock.now_ns()
            } else {
                0
            };
            let token = self.ring.fence_token();
            self.ring.drain_upto(token, &mut self.region);
            if let Some(tel) = &mut self.telemetry {
                let dt = self.clock.now_ns().saturating_sub(drain_t0);
                tel.observe(HistId::RingDrainNs, dt);
            }
            self.region.fence();
            self.stats.fences += 1;
            if self.telemetry.is_some() {
                let log_bytes = self.log.as_ref().map_or(0, UndoLog::used);
                let t = self.stats.store_lines;
                let stores = self.fase_store_lines;
                if let Some(tel) = &mut self.telemetry {
                    tel.incr(CounterId::FaseEnds);
                    tel.incr(CounterId::Fences);
                    tel.add(CounterId::FlushesSync, n);
                    tel.add(CounterId::LogBytes, log_bytes);
                    tel.observe(HistId::FaseStores, stores);
                    tel.observe(HistId::FaseLogBytes, log_bytes);
                    tel.emit(EventKind::FaseEnd, t, stores, n);
                }
            }
            if let Some(log) = &mut self.log {
                log.commit(&mut self.region);
            }
            self.stats.fases += 1;
            if self.telemetry.is_some() {
                let fases = self.stats.fases;
                let t = self.stats.store_lines;
                let ring_depth = self.ring.pending() as u64;
                let capacity = self.policy.sc_capacity().map_or(0, |c| c as u64);
                let stalls = self.ring_fallbacks;
                if let Some(tel) = &mut self.telemetry {
                    let dt = self.clock.now_ns().saturating_sub(commit_t0);
                    tel.observe(HistId::FaseCommitNs, dt);
                    // runtime sampler: one time-series point every
                    // `sample_every` FASEs (time axis = store-line
                    // ordinal, like the event timeline)
                    if tel.sample_due(fases) {
                        let hits = tel.counter(CounterId::ScHits);
                        let misses = tel.counter(CounterId::ScMisses);
                        let total = hits + misses;
                        tel.sample(Sample {
                            t,
                            tid: tel.tid(),
                            ring_depth,
                            capacity,
                            hit_ratio_bp: (hits * 10_000).checked_div(total).unwrap_or(0) as u32,
                            stalls,
                        });
                    }
                }
            }
        }
        self.depth -= 1;
    }

    /// Run `f` inside a FASE (exception-safe only insofar as Rust
    /// unwinding is not used across it; panics abort the section).
    pub fn fase<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin_fase();
        let r = f(self);
        self.end_fase();
        r
    }

    // ----- persistent accesses -------------------------------------------

    /// Persistent store of `bytes` at `offset` (must lie in the data
    /// area). Inside a FASE, the old value of what the store changes is
    /// undo-logged first, as one group of one record per run of changed
    /// 8-byte words; a store that changes nothing logs nothing.
    ///
    /// # Panics
    /// On a runtime with no undo log, and when the log area overflows
    /// (size the log for the largest FASE).
    pub fn store(&mut self, offset: usize, bytes: &[u8]) {
        assert!(self.log.is_some(), "runtime has no undo log");
        assert!(
            offset + bytes.len() <= self.data_len,
            "store outside data area"
        );
        if self.depth > 0 {
            self.log_changed_words(offset, bytes);
        }
        self.store_fresh(offset, bytes);
    }

    /// Undo-log the 8-byte-aligned words a store of `new` at `offset`
    /// changes: one group, one record per run of changed words (the
    /// run's ends clipped to the store). Runs one unchanged word apart
    /// merge, since a record header costs as much as that word. A store
    /// that changes nothing appends no group — no flush, no fence.
    ///
    /// Leaving an unchanged word out loses nothing: the value it holds
    /// is either the committed one, or one an earlier store of this
    /// FASE wrote after logging its pre-image, which the reverse replay
    /// then restores.
    fn log_changed_words(&mut self, offset: usize, new: &[u8]) {
        let old = self.region.slice(offset, new.len());
        self.runs.clear();
        let mut from = 0;
        while from < new.len() {
            // the store's bytes inside one aligned word
            let to = (((offset + from) | 7) + 1 - offset).min(new.len());
            if old[from..to] != new[from..to] {
                let (at, end) = ((offset + from) as u64, (offset + to) as u64);
                match self.runs.last_mut() {
                    Some((start, len)) if at - (*start + *len) <= 8 => *len = end - *start,
                    _ => self.runs.push((at, end - at)),
                }
            }
            from = to;
        }
        let log = self.log.as_mut().expect("runtime has no undo log");
        log.append_group(&mut self.region, &self.runs);
    }

    /// Persistent store into **shadow memory**: bytes no committed
    /// state names until this FASE commits (a freshly allocated
    /// copy-on-write page, a slot no committed state reads). Identical to
    /// [`FaseRuntime::store`] — policy cache, trace, telemetry, flushed
    /// and fenced by the outermost `end_fase` — except that no undo
    /// entry is written: if the FASE rolls back, the range keeps
    /// whatever part of the store reached NVRAM, so the caller must
    /// be able to tell it from committed data.
    pub fn store_fresh(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= self.data_len,
            "store outside data area"
        );
        self.region.write(offset, bytes);
        self.stats.stores += 1;
        for line in PmemRegion::lines_of(offset, bytes.len()) {
            self.stats.store_lines += 1;
            if let Some(r) = &mut self.recorder {
                // the recorded trace is what an instrumentation pass
                // sees: a multi-word store is the `memcpy` it stands
                // for, one store event per started word inside the line
                // (an empty store still shows the policy a line: one)
                let base = line as usize * LINE_SIZE;
                let end = (offset + bytes.len()).min(base + LINE_SIZE);
                let in_line = end - offset.max(base);
                for _ in 0..in_line.div_ceil(8).max(1) {
                    r.persistent_store(Line(line));
                }
            }
            let outcome = self.policy.on_store(Line(line), &mut self.flush_buf);
            if let Some(tel) = &mut self.telemetry {
                self.fase_store_lines += 1;
                let t = self.stats.store_lines;
                tel.incr(CounterId::Stores);
                match outcome {
                    StoreOutcome::Combined => {
                        tel.incr(CounterId::ScHits);
                        tel.emit(EventKind::ScHit, t, line, 0);
                    }
                    StoreOutcome::Inserted => {
                        tel.incr(CounterId::ScMisses);
                        tel.emit(EventKind::ScInsert, t, line, 0);
                    }
                }
                for victim in &self.flush_buf {
                    tel.incr(CounterId::ScEvictions);
                    tel.incr(CounterId::FlushesAsync);
                    tel.emit(EventKind::ScEvict, t, victim.0, 0);
                }
                if let Some((knee, cap)) = self.policy.take_capacity_change() {
                    tel.incr(CounterId::CapacityChanges);
                    tel.emit(EventKind::CapacityChange, t, knee as u64, cap as u64);
                }
            }
            self.emit_flushes();
        }
    }

    /// Persist `bytes` at `offset` now, under every policy: one store,
    /// one flush of its line, one fence — for a record that must be
    /// durable before what depends on it is written (a segment's class
    /// byte). It counts as one store of one line, one data flush and one
    /// fence; the policy and the ring never see it, nor does the trace.
    /// Inside a FASE it drains none of the FASE's flushes, so its line
    /// must be one the FASE does not store.
    ///
    /// # Panics
    /// For a range that is empty or leaves its line or the data area.
    pub fn persist(&mut self, offset: usize, bytes: &[u8]) {
        let len = bytes.len();
        assert!(
            len > 0 && offset % LINE_SIZE + len <= LINE_SIZE && offset + len <= self.data_len,
            "a persisted range is inside one line of the data area"
        );
        self.stats.stores += 1;
        self.stats.store_lines += 1;
        self.region.write(offset, bytes);
        self.region.flush_line((offset / LINE_SIZE) as u64);
        self.stats.data_flushes += 1;
        self.region.fence();
        self.stats.fences += 1;
        if let Some(tel) = &mut self.telemetry {
            tel.incr(CounterId::Stores);
            tel.incr(CounterId::Fences);
        }
    }

    /// Persistent store of a little-endian u64.
    pub fn store_u64(&mut self, offset: usize, v: u64) {
        self.store(offset, &v.to_le_bytes());
    }

    /// Load bytes (records a read event when tracing).
    pub fn load(&mut self, offset: usize, buf: &mut [u8]) {
        self.region.read(offset, buf);
        if let Some(r) = &mut self.recorder {
            for line in PmemRegion::lines_of(offset, buf.len()) {
                r.load(Line(line));
            }
        }
    }

    /// Load a little-endian u64.
    pub fn load_u64(&mut self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.load(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Mark `units` of computation (for the recorded trace's timing).
    pub fn work(&mut self, units: u32) {
        if let Some(r) = &mut self.recorder {
            r.work(units);
        }
    }

    // ----- heap ----------------------------------------------------------

    /// Allocate from the persistent heap (requires
    /// [`FaseRuntime::with_heap`]); durable when it returns.
    pub fn alloc(&mut self, size: usize) -> Option<u64> {
        let heap = self.heap.expect("runtime has no heap");
        heap.alloc(&mut self.region, size)
    }

    /// Free a heap block onto the heap's persistent free list: a power
    /// failure after this returns keeps it free.
    pub fn free(&mut self, offset: u64, size: usize) {
        let heap = self.heap.expect("runtime has no heap");
        heap.free(&mut self.region, offset, size);
    }

    /// Durable root pointer.
    pub fn root(&self) -> u64 {
        self.heap.expect("runtime has no heap").root(&self.region)
    }

    /// Set the durable root pointer.
    pub fn set_root(&mut self, offset: u64) {
        let heap = self.heap.expect("runtime has no heap");
        heap.set_root(&mut self.region, offset);
    }

    // ----- shutdown / failure ---------------------------------------------

    /// Persist everything the policy still buffers (clean shutdown).
    pub fn sync(&mut self) {
        self.policy.on_fase_end(&mut self.flush_buf);
        let n = self.emit_flushes();
        self.ring.drain_all(&mut self.region);
        self.region.fence();
        self.stats.fences += 1;
        if let Some(tel) = &mut self.telemetry {
            tel.add(CounterId::FlushesSync, n);
            tel.incr(CounterId::Fences);
        }
    }

    /// Inject a power failure under `mode`, then run recovery; the
    /// runtime continues over the recovered state. Any open FASE is
    /// rolled back through the undo log, if there is one.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) {
        let recovery_t0 = self.clock.now_ns();
        self.region.crash(mode);
        let crashes = self.region.stats().crashes;
        self.roll_back(crashes);
        let recovery_ns = self.clock.now_ns().saturating_sub(recovery_t0);
        self.last_recovery_ns = Some(recovery_ns);
        if let Some(tel) = &mut self.telemetry {
            tel.observe(HistId::RecoveryNs, recovery_ns);
        }
    }

    /// Recover the runtime after a *panic* unwound through an open FASE
    /// (no power failure — the region keeps every line it holds). A
    /// worker that dies mid-section leaves `depth > 0`, a partially
    /// filled flush buffer, possibly logged-but-uncommitted groups, and
    /// submitted-but-undrained ring entries; without healing,
    /// the next caller through a poisoned lock would nest its sections
    /// inside the abandoned one forever (no outermost `end_fase` ever
    /// runs, so nothing commits and the in-flight flush buffer leaks).
    ///
    /// Healing drops all of that volatile residue, rolls the abandoned
    /// section back through the undo log if there is one (its entries
    /// were durable before any data store, so the pre-section state is
    /// recoverable in place), and leaves the runtime serving again.
    /// Returns whether there was anything to heal.
    pub fn heal_after_panic(&mut self) -> bool {
        let open = self.depth > 0 || !self.flush_buf.is_empty() || !self.ring.is_empty();
        if !open {
            // nothing abandoned, so nothing logged: the tail is
            // volatile and only an open FASE moves it
            debug_assert_eq!(self.log.as_ref().map_or(0, UndoLog::used), 0);
            return false;
        }
        self.roll_back(0);
        true
    }

    /// Drop the volatile residue of whatever FASE was open — depth,
    /// flush buffer, the policy's cache, submitted-but-undrained lines
    /// — and roll the region back through the undo log, if there is
    /// one. The rollback's telemetry event carries `crashes`.
    fn roll_back(&mut self, crashes: u64) {
        self.depth = 0;
        self.flush_buf.clear();
        self.policy.reset();
        self.ring.reset();
        let Some(log) = &mut self.log else {
            return;
        };
        // The log was formatted by this runtime; a crash can tear it but
        // never strip the magic, so recovery cannot fail here.
        let rolled = log
            .recover(&mut self.region)
            .expect("in-process log lost its header");
        if rolled > 0 {
            self.stats.rollbacks += 1;
            if let Some(tel) = &mut self.telemetry {
                let t = self.stats.store_lines;
                tel.incr(CounterId::Rollbacks);
                tel.emit(EventKind::Rollback, t, rolled as u64, crashes);
            }
        }
    }

    /// Arm a crash plan on the underlying region: the crash image is
    /// captured when the region's micro-step counter reaches the plan's
    /// step (see [`PmemRegion::arm_crash`]); execution continues
    /// unperturbed. Retrieve it with [`FaseRuntime::take_crash_image`].
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.region.arm_crash(plan);
    }

    /// The crash image captured by an armed plan, if the step was
    /// reached (drains it). Rebuild with [`PmemRegion::from_image`] and
    /// [`FaseRuntime::try_reopen`] to simulate the post-crash restart.
    pub fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        self.region.take_crash_image()
    }

    /// Micro-steps (stores, line flushes, fences) the region has
    /// executed — the crash-point index space.
    pub fn steps(&self) -> u64 {
        self.region.step()
    }

    /// Tear down, returning the region (e.g. to save it to disk).
    pub fn into_region(mut self) -> PmemRegion {
        self.sync();
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(kind: PolicyKind) -> FaseRuntime {
        FaseRuntime::new(1 << 16, 1 << 16, &kind)
    }

    #[test]
    fn committed_fase_survives_strict_crash() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.fase(|r| {
            r.store(0, b"hello persistent world");
        });
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.region().slice(0, 22), b"hello persistent world");
    }

    /// A persist is durable under every policy, `BEST` included, when it
    /// returns: one store of one line, one data flush, one fence, no FASE.
    #[test]
    fn persist_is_one_store_one_flush_one_fence_under_every_policy() {
        for kind in [
            PolicyKind::Eager,
            PolicyKind::ScFixed { capacity: 8 },
            PolicyKind::Best,
        ] {
            let mut r = rt(kind);
            let (stats, pmem) = (r.stats(), r.region().stats());
            r.persist(72, &[7]);
            let (s, p) = (r.stats(), r.region().stats());
            assert_eq!((s.fases, s.stores, s.store_lines), (0, 1, 1));
            assert_eq!((s.data_flushes, s.fences), (1, 1));
            assert_eq!(
                (
                    stats.fences,
                    p.flushes - pmem.flushes,
                    p.fences - pmem.fences
                ),
                (0, 1, 1)
            );
            r.crash_and_recover(&CrashMode::StrictDurableOnly);
            assert_eq!(r.region().slice(72, 1), [7]);
        }
    }

    /// Inside a FASE a persist flushes its own line and nothing of the
    /// FASE's: the ring does not drain, and a power failure keeps the
    /// persisted byte and rolls the FASE back.
    #[test]
    fn a_persist_inside_a_fase_leaves_its_flushes_alone() {
        for kind in [PolicyKind::Eager, PolicyKind::ScFixed { capacity: 8 }] {
            let mut r = rt(kind);
            r.begin_fase();
            r.store_u64(0, 5);
            let (ring, fences) = (r.ring_stats(), r.region().stats().fences);
            r.persist(72, &[7]);
            assert_eq!(r.ring_stats(), ring);
            assert_eq!(r.region().stats().fences, fences + 1);
            r.crash_and_recover(&CrashMode::AllInFlightLands);
            assert_eq!((r.load_u64(0), r.region().slice(72, 1)), (0, &[7][..]));
        }
    }

    #[test]
    fn uncommitted_fase_rolls_back() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.fase(|r| r.store_u64(0, 111));
        r.begin_fase();
        r.store_u64(0, 222);
        r.store_u64(8, 333);
        // crash with everything in flight landing — worst case for
        // atomicity
        r.crash_and_recover(&CrashMode::AllInFlightLands);
        assert_eq!(r.load_u64(0), 111, "rolled back to committed value");
        assert_eq!(r.load_u64(8), 0, "uncommitted store undone");
        assert_eq!(r.stats().rollbacks, 1);
    }

    #[test]
    fn all_policies_preserve_atomicity() {
        for kind in [
            PolicyKind::Eager,
            PolicyKind::Lazy,
            PolicyKind::Atlas { size: 8 },
            PolicyKind::ScFixed { capacity: 4 },
            PolicyKind::ScAdaptive(Default::default()),
        ] {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, 17),
            ] {
                let mut r = rt(kind.clone());
                r.fase(|r| {
                    for i in 0..32 {
                        r.store_u64(i * 8, 1000 + i as u64);
                    }
                });
                r.begin_fase();
                for i in 0..32 {
                    r.store_u64(i * 8, 2000 + i as u64);
                }
                r.crash_and_recover(&mode);
                for i in 0..32 {
                    assert_eq!(
                        r.load_u64(i * 8),
                        1000 + i as u64,
                        "policy {} mode {:?} slot {i}",
                        kind.label(),
                        mode
                    );
                }
            }
        }
    }

    #[test]
    fn best_policy_is_not_crash_consistent_outside_log_protection() {
        // BEST never flushes; committed FASE data is still protected by
        // the undo log only while a FASE is open. After commit with no
        // flush, a strict crash loses data — demonstrating why BEST is
        // an upper bound, not a technique.
        let mut r = rt(PolicyKind::Best);
        r.fase(|r| r.store_u64(0, 777));
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.load_u64(0), 0, "BEST loses unflushed data");
    }

    #[test]
    fn nested_fases_commit_once_at_outermost() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.begin_fase();
        r.store_u64(0, 1);
        r.begin_fase();
        r.store_u64(8, 2);
        r.end_fase(); // inner: no commit
        assert_eq!(r.stats().fases, 0);
        r.end_fase();
        assert_eq!(r.stats().fases, 1);
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.load_u64(0), 1);
        assert_eq!(r.load_u64(8), 2);
    }

    #[test]
    fn nested_rollback_undoes_inner_updates_too() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.begin_fase();
        r.store_u64(0, 1);
        r.begin_fase();
        r.store_u64(8, 2);
        r.end_fase();
        // outer still open → crash rolls back everything
        r.crash_and_recover(&CrashMode::AllInFlightLands);
        assert_eq!(r.load_u64(0), 0);
        assert_eq!(r.load_u64(8), 0);
    }

    #[test]
    fn flush_counting_matches_policy_expectation() {
        // 4-line working set in an 8-capacity SC: exactly 4 flushes per
        // FASE (all at the end), like LA.
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        for _ in 0..10 {
            r.fase(|r| {
                for rep in 0..5 {
                    for i in 0..4usize {
                        r.store_u64(i * 64, rep * 10 + i as u64);
                    }
                }
            });
        }
        let s = r.stats();
        assert_eq!(s.stores, 200);
        assert_eq!(s.data_flushes, 40, "4 lines × 10 FASEs");
        assert!((s.flush_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn eager_flushes_every_store_line() {
        let mut r = rt(PolicyKind::Eager);
        r.fase(|r| {
            for i in 0..10usize {
                r.store_u64(i * 8, i as u64);
            }
        });
        assert_eq!(r.stats().data_flushes, 10);
    }

    #[test]
    fn trace_recording_captures_events() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.record_trace();
        r.fase(|r| {
            r.store_u64(0, 1);
            r.work(5);
            r.store_u64(128, 2);
        });
        let t = r.take_trace().unwrap();
        assert_eq!(t.write_count(), 2);
        assert_eq!(t.fase_count(), 1);
        assert_eq!(
            t.events
                .iter()
                .filter(|e| matches!(e, nvcache_trace::Event::Work(_)))
                .count(),
            1
        );
    }

    #[test]
    fn a_multi_word_store_is_recorded_word_by_word() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.record_trace();
        // 152 B from a line boundary: 64 + 64 + 24 bytes on three lines
        r.fase(|r| r.store_fresh(64, &[7u8; 152]));
        let t = r.take_trace().unwrap();
        let lines: Vec<u64> = t
            .events
            .iter()
            .filter_map(|e| match e {
                nvcache_trace::Event::Write(l) => Some(l.0),
                _ => None,
            })
            .collect();
        let mut want = vec![1u64; 8];
        want.extend([2; 8]);
        want.extend([3; 3]);
        assert_eq!(lines, want, "8 + 8 + 3 word events, line by line");
        // the live side still counts (and calls the policy) per line
        let s = r.stats();
        assert_eq!((s.stores, s.store_lines, s.data_flushes), (1, 3, 3));

        // a store of at most a word inside one line is one event, as
        // ever — aligned or not — and a straddling one is one per line
        r.record_trace();
        r.fase(|r| {
            r.store_u64(256, 1);
            r.store(323, &[1u8; 8]);
            r.store(380, &[1u8; 8]);
        });
        let t = r.take_trace().unwrap();
        assert_eq!(t.write_count(), 4);
    }

    #[test]
    fn telemetry_reconciles_with_runtime_stats() {
        use nvcache_telemetry::CounterId;
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.enable_telemetry(&TelemetryConfig::default());
        for _ in 0..10 {
            r.fase(|r| {
                for rep in 0..5 {
                    for i in 0..12usize {
                        r.store_u64(i * 64, rep * 100 + i as u64);
                    }
                }
            });
        }
        r.sync();
        let s = r.stats();
        let snap = r.take_telemetry().unwrap();
        assert_eq!(snap.counter(CounterId::Stores), s.store_lines);
        assert_eq!(snap.flushes(), s.data_flushes, "telemetry == FaseStats");
        assert_eq!(snap.counter(CounterId::Fences), s.fences);
        assert_eq!(snap.counter(CounterId::FaseEnds), s.fases);
        assert!(snap.counter(CounterId::LogBytes) > 0, "stores were logged");
        let h = snap.hist(nvcache_telemetry::HistId::FaseStores);
        assert_eq!(h.count, 10, "one sample per FASE");
        assert_eq!(h.max, 60, "5 reps × 12 lines");
        assert!(r.take_telemetry().is_none(), "drained");
    }

    #[test]
    fn commit_spans_are_deterministic_under_fake_clock() {
        use nvcache_telemetry::HistId;
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.enable_telemetry(&TelemetryConfig::default());
        // every clock read advances by exactly 10ns: a commit reads the
        // clock four times (start, drain start, drain end, observe), so
        // each FaseCommitNs sample is exactly 30 and each drain 10
        r.set_clock(ClockSource::fake(0, 10));
        for i in 0..4 {
            r.fase(|r| r.store_u64(i * 8, i as u64));
        }
        let snap = r.take_telemetry().unwrap();
        let h = snap.hist(HistId::FaseCommitNs);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 120, "30ns per commit, deterministic");
        assert_eq!(h.max, 30);
        // p50 interpolates inside the [16, 32) bucket; the tail is `max`
        let (p50, p99, p999) = h.percentiles();
        assert_eq!((p50, p99, p999), (24, 30, 30));
        let d = snap.hist(HistId::RingDrainNs);
        assert_eq!((d.count, d.sum), (4, 40), "a 10ns drain per commit");
    }

    #[test]
    fn pipelined_commits_record_ring_drain_spans() {
        use nvcache_telemetry::HistId;
        let mut r = rt(PolicyKind::Lazy);
        r.enable_telemetry(&TelemetryConfig::default());
        r.set_clock(ClockSource::fake(0, 5));
        for i in 0..3 {
            r.fase(|r| r.store_u64(i * 64, 7));
        }
        let snap = r.take_telemetry().unwrap();
        assert_eq!(snap.hist(HistId::RingDrainNs).count, 3);
        assert_eq!(snap.hist(HistId::FaseCommitNs).count, 3);
        // the drain span nests inside the commit span
        assert!(snap.hist(HistId::FaseCommitNs).max >= snap.hist(HistId::RingDrainNs).max);
    }

    #[test]
    fn recovery_is_span_timed() {
        use nvcache_telemetry::HistId;
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.enable_telemetry(&TelemetryConfig::default());
        r.set_clock(ClockSource::fake(0, 3));
        assert_eq!(r.last_recovery_ns(), None);
        r.fase(|r| r.store_u64(0, 1));
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert!(r.last_recovery_ns().is_some());
        let snap = r.take_telemetry().unwrap();
        assert_eq!(snap.hist(HistId::RecoveryNs).count, 1);
    }

    #[test]
    fn reopen_records_recovery_duration() {
        let mut r = rt(PolicyKind::Lazy);
        r.fase(|r| r.store_u64(0, 42));
        let region = r.into_region();
        let r2 = FaseRuntime::try_reopen(region, 1 << 16, 1 << 16, &PolicyKind::Lazy)
            .expect("region was formatted by this test");
        assert!(r2.last_recovery_ns().is_some(), "reopen timed its recovery");
    }

    #[test]
    fn runtime_sampler_emits_series_at_fase_cadence() {
        let cfg = TelemetryConfig {
            sample_every: 8,
            ..Default::default()
        };
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.enable_telemetry(&cfg);
        for i in 0..32 {
            r.fase(|r| r.store_u64((i % 16) * 8, i as u64));
        }
        let snap = r.take_telemetry().unwrap();
        assert_eq!(snap.series.len(), 4, "32 FASEs / cadence 8");
        for s in &snap.series {
            assert_eq!(s.capacity, 8, "ScFixed capacity on the series");
            assert!(s.hit_ratio_bp <= 10_000);
            assert_eq!(s.ring_depth, 0, "the commit drained the ring");
        }
        // time axis is the store-line ordinal: strictly increasing here
        assert!(snap.series.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn telemetry_fase_log_bytes_tracks_undo_traffic() {
        let mut r = rt(PolicyKind::Lazy);
        r.enable_telemetry(&TelemetryConfig::default());
        // stores outside a FASE are not undo-logged
        r.store_u64(0, 1);
        r.fase(|r| {
            r.store_u64(0, 2);
            r.store_u64(64, 3);
        });
        let snap = r.take_telemetry().unwrap();
        let h = snap.hist(nvcache_telemetry::HistId::FaseLogBytes);
        assert_eq!(h.count, 1);
        assert!(h.max >= 16, "two 8-byte undo images: {}", h.max);
        assert_eq!(
            snap.counter(nvcache_telemetry::CounterId::LogBytes),
            h.sum,
            "counter aggregates the per-FASE samples"
        );
    }

    #[test]
    fn take_stats_yields_interval_deltas() {
        let mut r = rt(PolicyKind::Lazy);
        r.fase(|r| {
            for i in 0..4usize {
                r.store_u64(i * 64, 1);
            }
        });
        let w1 = r.take_stats();
        assert_eq!(w1.fases, 1);
        assert_eq!(w1.store_lines, 4);
        assert_eq!(w1.data_flushes, 4, "LA flushes all at FASE end");
        assert!((w1.flush_ratio() - 1.0).abs() < 1e-12);
        // second window: two FASEs over one line
        for _ in 0..2 {
            r.fase(|r| r.store_u64(0, 2));
        }
        let w2 = r.take_stats();
        assert_eq!(w2.fases, 2);
        assert_eq!(w2.store_lines, 2);
        // cumulative counters still intact; windows sum back to them
        assert_eq!(r.stats().fases, 3);
        assert_eq!(w1 + w2, r.stats());
        // empty window is all-zero
        assert_eq!(r.take_stats(), FaseStats::default());
    }

    #[test]
    fn an_adaptive_resize_is_pinned_on_the_timeline() {
        use nvcache_core::AdaptiveConfig;
        use nvcache_telemetry::CounterId;
        let mut r = rt(PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 400,
            ..Default::default()
        }));
        r.enable_telemetry(&TelemetryConfig::default());
        assert_eq!(r.sc_capacity(), Some(8));
        // 40 passes over 20 lines inside each FASE: a knee near 20
        for _ in 0..2 {
            r.fase(|r| {
                for i in 0..800usize {
                    r.store_u64(i % 20 * 64, i as u64);
                }
            });
        }
        let choices = r.adaptive().unwrap().choices().to_vec();
        assert_eq!(choices.len(), 1, "one burst, one decision");
        assert_eq!(choices[0].fase, 0, "the first FASE's burst");
        assert_eq!(r.sc_capacity(), Some(choices[0].capacity));
        assert_eq!(r.adaptive().unwrap().last_window().len(), 400);
        let snap = r.take_telemetry().unwrap();
        assert_eq!(snap.counter(CounterId::CapacityChanges), 1);
        let ev: Vec<_> = snap
            .timeline
            .iter()
            .filter(|e| e.kind == EventKind::CapacityChange)
            .collect();
        assert_eq!(ev.len(), 1, "resize pinned exactly once on the timeline");
        assert_eq!(ev[0].t, 400, "at the store that completed the burst");
        assert_eq!(ev[0].a, choices[0].knee as u64, "knee recorded");
        assert_eq!(ev[0].b, choices[0].capacity as u64, "capacity recorded");
        assert!(rt(PolicyKind::Eager).adaptive().is_none());
    }

    #[test]
    fn stores_outside_fases_persist_on_sync() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.store_u64(0, 42); // not atomic, but must be persistable
        r.sync();
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.load_u64(0), 42);
    }

    #[test]
    fn reopen_recovers_incomplete_fase() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.fase(|r| r.store_u64(0, 5));
        r.begin_fase();
        r.store_u64(0, 99);
        // simulate process death: crash the raw region, then reopen
        let data_len = r.data_len();
        let mut region = {
            // take the region with the open FASE still in the log
            let FaseRuntime { region, .. } = r;
            region
        };
        region.crash(&CrashMode::AllInFlightLands);
        let mut r2 = FaseRuntime::try_reopen(
            region,
            data_len,
            1 << 16,
            &PolicyKind::ScFixed { capacity: 8 },
        )
        .expect("region was formatted by this test");
        assert_eq!(r2.load_u64(0), 5, "reopen rolled back the open FASE");
        assert_eq!(r2.stats().rollbacks, 1);
    }

    #[test]
    fn try_reopen_rejects_unformatted_image() {
        // A region that never held a FASE runtime must surface a typed
        // error, not panic (regression: reopen used to .expect()).
        let region = PmemRegion::new(1 << 16);
        let res = FaseRuntime::try_reopen(region, 1 << 15, 1 << 15, &PolicyKind::Lazy);
        assert!(matches!(
            res,
            Err(crate::error::RecoveryError::BadMagic { found: 0 })
        ));
    }

    #[test]
    fn try_reopen_rejects_corrupted_header() {
        // Build a real runtime, persist state, then clobber the log
        // magic — as a misdirected write or media corruption would.
        let mut r = rt(PolicyKind::Lazy);
        r.fase(|r| r.store_u64(0, 5));
        let data_len = r.data_len();
        let mut region = r.into_region();
        region.write_u64(data_len, 0xBAD0_BAD0);
        region.persist(data_len, 8);
        let res = FaseRuntime::try_reopen(region, data_len, 1 << 16, &PolicyKind::Lazy);
        assert!(matches!(
            res,
            Err(crate::error::RecoveryError::BadMagic { found: 0xBAD0_BAD0 })
        ));
    }

    #[test]
    fn try_reopen_rejects_undersized_region() {
        let region = PmemRegion::new(128);
        let res = FaseRuntime::try_reopen(region, 1 << 15, 1 << 15, &PolicyKind::Lazy);
        assert!(matches!(
            res,
            Err(crate::error::RecoveryError::RegionTooSmall { .. })
        ));
    }

    #[test]
    fn mid_fase_crash_records_rollback_telemetry() {
        use nvcache_telemetry::CounterId;
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.enable_telemetry(&TelemetryConfig::default());
        r.fase(|r| r.store_u64(0, 1));
        r.begin_fase();
        r.store_u64(0, 2);
        r.crash_and_recover(&CrashMode::AllInFlightLands);
        assert_eq!(r.stats().rollbacks, 1);
        let snap = r.take_telemetry().unwrap();
        assert_eq!(snap.counter(CounterId::Rollbacks), 1);
        let rb: Vec<_> = snap
            .timeline
            .iter()
            .filter(|e| e.kind == EventKind::Rollback)
            .collect();
        assert_eq!(rb.len(), 1, "one rollback event on the timeline");
        assert!(rb[0].a >= 1, "undo entries applied");
        assert_eq!(rb[0].b, 1, "first injected crash");
    }

    #[test]
    fn heap_allocation_roundtrip() {
        let mut r = FaseRuntime::with_heap(1 << 16, 1 << 16, &PolicyKind::ScFixed { capacity: 8 });
        let a = r.alloc(64).unwrap() as usize;
        r.fase(|r| r.store_u64(a, 123));
        r.set_root(a as u64);
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        let root = r.root() as usize;
        assert_eq!(root, a);
        assert_eq!(r.load_u64(root), 123);
    }

    /// A runtime made with no log area is its data area alone, and a
    /// logged store on it panics as a heap call on a runtime without a
    /// heap does.
    #[test]
    #[should_panic(expected = "runtime has no undo log")]
    fn a_runtime_without_a_log_refuses_a_logged_store() {
        let mut r = FaseRuntime::new(1000, 0, &PolicyKind::ScFixed { capacity: 8 });
        assert_eq!(r.region().len(), 1024);
        r.fase(|r| r.store_fresh(0, &[1; 8]));
        r.begin_fase();
        r.store_u64(8, 2);
    }

    #[test]
    fn pipelined_path_preserves_atomicity() {
        for kind in [
            PolicyKind::Eager,
            PolicyKind::Atlas { size: 8 },
            PolicyKind::ScFixed { capacity: 4 },
        ] {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, 23),
            ] {
                let mut r = rt(kind.clone());
                r.fase(|r| {
                    for i in 0..16 {
                        r.store_u64(i * 8, 1000 + i as u64);
                    }
                });
                r.begin_fase();
                for i in 0..16 {
                    r.store_u64(i * 8, 2000 + i as u64);
                }
                r.crash_and_recover(&mode);
                for i in 0..16 {
                    assert_eq!(
                        r.load_u64(i * 8),
                        1000 + i as u64,
                        "policy {} mode {:?}",
                        kind.label(),
                        mode
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "undo log overflow")]
    fn a_per_store_fase_that_outgrows_the_log_panics() {
        let mut r = FaseRuntime::new(1 << 12, 128, &PolicyKind::Lazy);
        r.begin_fase();
        for i in 0..10 {
            r.store(i * 64, &[1u8; 32]);
        }
    }

    #[test]
    fn store_fresh_skips_the_undo_log_and_its_fences() {
        let mut r = rt(PolicyKind::Lazy);
        r.begin_fase();
        let (log0, fences0) = (r.log_stats(), r.region().stats().fences);
        r.store_fresh(0, &[7u8; 256]);
        assert_eq!(r.log_stats(), log0, "no entry, no bytes logged");
        assert_eq!(r.region().stats().fences, fences0, "no log fence");
        r.store_u64(512, 1);
        assert_eq!(r.log_stats().entries, log0.entries + 1);
        assert_eq!(r.log_stats().bytes_logged, log0.bytes_logged + 8);
        assert_eq!(r.region().stats().fences, fences0 + 1, "the record");
        r.end_fase();
    }

    #[test]
    fn store_fresh_is_durable_after_end_fase() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 2 });
        r.fase(|r| r.store_fresh(64, &[0x5au8; 640]));
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.region().slice(64, 640), &[0x5au8; 640][..]);
    }

    #[test]
    fn open_fase_crash_rolls_back_logged_neighbours_only() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 8 });
        r.fase(|r| {
            r.store_u64(0, 11);
            r.store_u64(192, 22);
        });
        r.begin_fase();
        r.store_u64(0, 111);
        r.store_fresh(64, &[9u8; 128]);
        r.store_u64(192, 222);
        r.crash_and_recover(&CrashMode::AllInFlightLands);
        assert_eq!(r.load_u64(0), 11, "logged neighbour below rolled back");
        assert_eq!(r.load_u64(192), 22, "logged neighbour above rolled back");
        assert_eq!(r.stats().rollbacks, 1);
        // the fresh range is unspecified after a rollback: here every
        // in-flight line landed and nothing restored it
        assert_eq!(r.region().slice(64, 128), &[9u8; 128][..]);
    }

    #[test]
    fn store_fresh_counts_exactly_as_store() {
        // same stores, logged vs fresh: every FaseStats counter (and so
        // the flush ratio) agrees; only the log traffic differs
        let run = |fresh: bool| {
            let mut r = rt(PolicyKind::ScFixed { capacity: 4 });
            for round in 0..4usize {
                r.begin_fase();
                for i in 0..12usize {
                    let (off, bytes) = ((i * 5 % 12) * 96, [round as u8; 200]);
                    if fresh {
                        r.store_fresh(off, &bytes);
                    } else {
                        r.store(off, &bytes);
                    }
                }
                r.end_fase();
            }
            (r.stats(), r.log_stats().entries)
        };
        let (logged, logged_entries) = run(false);
        let (fresh, fresh_entries) = run(true);
        assert_eq!(logged, fresh);
        assert!(fresh.store_lines > fresh.stores, "stores span lines");
        assert!(fresh.data_flushes > 0);
        // a logged store records only what it changes: round 0 writes
        // zeros over zeros, and in each later round slots 4, 9, 2 and 7
        // (both neighbours already written this FASE) rewrite only bytes
        // their neighbours did — 3 rounds × 8 stores of one run each
        assert_eq!((logged_entries, fresh_entries), (24, 0));
    }

    #[test]
    #[should_panic(expected = "store outside data area")]
    fn store_into_log_area_panics() {
        let mut r = rt(PolicyKind::Best);
        let off = r.data_len();
        r.store_u64(off, 1);
    }

    #[test]
    #[should_panic(expected = "end_fase without begin_fase")]
    fn unbalanced_end_panics() {
        let mut r = rt(PolicyKind::Best);
        r.end_fase();
    }

    /// Regression (panic mid-FASE): before healing existed, an unwind
    /// through an open section left `depth > 0` and a stale flush
    /// buffer, so every later section nested inside the abandoned one —
    /// no outermost commit ever ran again. `heal_after_panic` must roll
    /// the abandoned section back and restore normal commit behaviour.
    #[test]
    fn heal_after_panic_rolls_back_and_resumes_commits() {
        let mut r = rt(PolicyKind::ScFixed { capacity: 4 });
        r.fase(|r| r.store_u64(64, 0xAAAA));
        let committed_fases = r.stats().fases;
        // simulate the unwound worker: open section, stores issued,
        // never closed
        r.begin_fase();
        r.store_u64(64, 0xBBBB);
        r.store_u64(128, 0xCCCC);
        assert!(r.heal_after_panic(), "abandoned section must be healed");
        assert_eq!(r.depth(), 0);
        assert_eq!(r.stats().rollbacks, 1);
        // the torn writes rolled back in place
        assert_eq!(r.load_u64(64), 0xAAAA);
        assert_eq!(r.load_u64(128), 0);
        // sections commit again (the regression: fases stayed frozen)
        r.fase(|r| r.store_u64(64, 0xDDDD));
        assert_eq!(r.stats().fases, committed_fases + 1);
        assert_eq!(r.load_u64(64), 0xDDDD);
        // the healed state is crash-consistent
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.load_u64(64), 0xDDDD);
    }

    /// The ring is the only flush path, so a full ring's inline drain is
    /// the only way a flush reaches NVRAM before its FASE commits. One
    /// FASE whose obligations outnumber the ring's slots drains in the
    /// middle, the sampler reports the stall, and a power failure at any
    /// step of it still recovers one whole image.
    #[test]
    fn a_fase_that_overflows_the_ring_drains_inline_and_stays_atomic() {
        const LINES: usize = RING_CAPACITY + 76;
        let (data, log) = (LINES * LINE_SIZE, 1 << 16);
        let fase_of = |r: &mut FaseRuntime, v: u64| {
            r.fase(|r| (0..LINES).for_each(|l| r.store_u64(l * LINE_SIZE, v)));
        };
        let seeded = || {
            let mut r = FaseRuntime::new(data, log, &PolicyKind::Eager);
            r.enable_telemetry(&TelemetryConfig {
                sample_every: 1,
                ..Default::default()
            });
            fase_of(&mut r, 1);
            r
        };
        let mut r = seeded();
        let (pre, first, drains) = (
            r.region().slice(0, data).to_vec(),
            r.steps(),
            r.ring_stats().drains,
        );
        fase_of(&mut r, 2);
        let (post, end) = (r.region().slice(0, data).to_vec(), r.steps());
        assert_eq!(r.ring_stats().drains - drains, 2, "inline + commit drain");
        let series = r.take_telemetry().unwrap().series;
        let stalls: Vec<u64> = series.iter().map(|s| s.stalls).collect();
        assert_eq!(stalls, [1, 2], "one inline drain per FASE");
        // commit = epoch write, epoch-line flush, fence
        let epoch_write = end - 3;
        for mode in [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, 41),
        ] {
            for at in (first..end).step_by(97) {
                let mut r = seeded();
                r.arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
                fase_of(&mut r, 2);
                let image = r.take_crash_image().expect("armed step reached");
                let back = FaseRuntime::try_reopen(
                    PmemRegion::from_image(image),
                    data,
                    log,
                    &PolicyKind::Eager,
                )
                .expect("a crash image reopens");
                let got = back.region().slice(0, data);
                if at < epoch_write {
                    assert!(got == pre, "{mode:?} step {at}: not rolled back");
                } else {
                    assert!(got == pre || got == post, "{mode:?} step {at}: torn FASE");
                }
            }
        }
    }

    /// Healing also drops submitted-but-undrained ring entries and rolls
    /// back the groups the abandoned FASE logged.
    #[test]
    fn heal_after_panic_clears_pipelined_residue() {
        let mut r = rt(PolicyKind::Eager);
        r.fase(|r| r.store_u64(64, 1));
        r.begin_fase();
        r.store_u64(128, 2);
        assert!(r.heal_after_panic());
        assert_eq!(r.load_u64(128), 0, "logged store rolled back");
        // ring is usable again: a clean FASE commits
        r.fase(|r| r.store_u64(128, 3));
        assert_eq!(r.load_u64(128), 3);
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.load_u64(128), 3);
    }

    /// Healing a quiescent runtime is a no-op.
    #[test]
    fn heal_after_panic_is_noop_when_clean() {
        let mut r = rt(PolicyKind::Lazy);
        r.fase(|r| r.store_u64(64, 5));
        assert!(!r.heal_after_panic());
        assert_eq!(r.stats().rollbacks, 0);
        assert_eq!(r.load_u64(64), 5);
    }
}
