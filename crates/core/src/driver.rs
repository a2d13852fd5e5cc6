//! Trace replay drivers: policy × trace → flush counts and/or simulated
//! execution.
//!
//! Two modes:
//! * [`flush_stats`] — exact flush accounting only (no timing); this is
//!   how Table III's flush ratios are produced, and it is fast enough
//!   for the paper-size write counts.
//! * [`run_policy`] — full machine simulation: cycles, instructions and
//!   L1 behaviour per thread (Tables I/II/IV, Figures 4–6). Each thread
//!   has its own software cache and its own machine (per-thread
//!   software caches share nothing, paper Section II-B); parallel
//!   execution time is the maximum per-thread cycle count.
//!
//! Replica groups: threads whose buffers are one `Arc` (a
//! [`Trace::replicated`] recording) form a *replica group*, found by
//! pointer identity alone. A group is replayed by **one** policy pass:
//! each event, and each flush decision the policy makes, goes to every
//! replica's own [`Machine`] (seeded from that replica's thread id) and
//! to every replica's own telemetry recorder (stamped with that
//! machine's clock). A policy's decisions depend only on the events it
//! sees, never on the machine, so the replicas' policies would all
//! decide the same and one pass stands for all of them: every result is
//! bit-identical to replaying each thread against its own policy. A
//! thread with a buffer of its own is a group of one.
//!
//! Both drivers replay groups on real OS threads when asked to via
//! [`ReplayOptions`] (`flush_stats_with` / `run_policy_with`): a group
//! is one unit of work, so parallelism spreads across groups only and
//! no policy pass is ever repeated. Because groups share nothing and
//! per-thread RNG seeds are fixed functions of the thread id, the
//! parallel result is **bit-identical** to the sequential one: every
//! per-thread result is put back in tid order before any aggregation
//! happens.
//!
//! Dispatch: each replica group builds its policy with
//! [`PolicyKind::build_policy`] and matches on the
//! [`Policy`](crate::Policy) variant **once**, outside the loop, so the
//! replay loops (generic over `P: PersistPolicy`) compile once per
//! concrete policy × recorder. Every `on_store` in the hot loop is a
//! direct, inlinable call — no per-event match, no vtable, no box.

use crate::policy::{each_variant, PersistPolicy, PolicyKind, StoreOutcome};
use nvcache_cachesim::{Machine, MachineConfig, MachineReport};
use nvcache_telemetry::{
    CounterId, EventKind, HistId, NullRecorder, Recorder, Sample, TelemetryConfig,
    TelemetrySnapshot, ThreadRecorder,
};
use nvcache_trace::{Event, Line, ThreadTrace, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How replay work is scheduled across OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Maximum number of OS threads used to simulate trace threads.
    /// `1` replays sequentially on the calling thread (the default).
    pub parallelism: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { parallelism: 1 }
    }
}

impl ReplayOptions {
    /// Sequential replay on the calling thread.
    pub fn sequential() -> Self {
        ReplayOptions::default()
    }

    /// Use up to `n` OS threads (clamped to at least 1).
    pub fn with_parallelism(n: usize) -> Self {
        ReplayOptions {
            parallelism: n.max(1),
        }
    }

    /// Use every hardware thread the host offers.
    pub fn parallel() -> Self {
        Self::with_parallelism(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// Run `f` over `items` on up to `workers` scoped OS threads, returning
/// results in item order. Work is claimed from a shared atomic cursor,
/// so scheduling is dynamic, but each result is keyed by its index —
/// the output is independent of which worker ran what.
pub fn fan_out<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // one result buffer per worker thread, pre-sized to
                    // the worst case (this worker claims every item) so
                    // the claim loop never reallocates
                    let mut done = Vec::with_capacity(items.len());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("replay worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item processed"))
        .collect()
}

/// Exact flush accounting of one policy over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushStats {
    /// Technique label ("ER", "AT", …).
    pub label: String,
    /// Persistent stores observed.
    pub stores: u64,
    /// Flushes issued mid-FASE (async-eligible).
    pub flushes_async: u64,
    /// Flushes issued at FASE ends.
    pub flushes_sync: u64,
}

impl FlushStats {
    /// Total flushes.
    pub fn flushes(&self) -> u64 {
        self.flushes_async + self.flushes_sync
    }

    /// Flushes per persistent store — the paper's "data flush ratio"
    /// (Table III).
    pub fn flush_ratio(&self) -> f64 {
        if self.stores == 0 {
            0.0
        } else {
            self.flushes() as f64 / self.stores as f64
        }
    }
}

/// Flush accounting of a single trace thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ThreadFlushes {
    stores: u64,
    fl_async: u64,
    fl_sync: u64,
}

/// Events per inner replay chunk. The replay loops walk the trace in
/// fixed-size chunks: the event slice of one chunk stays L1-resident
/// while the policy and machine state churn, and the telemetry batch
/// below is drained once per chunk instead of once per event.
const REPLAY_CHUNK: usize = 1024;

/// Per-chunk batch of the per-store telemetry counters. Counter sums
/// are order-independent, so accumulating them in registers and
/// draining at chunk boundaries (and before any rare event that also
/// writes counters) leaves every snapshot bit-identical while keeping
/// shard-array traffic off the per-event path. Timeline `emit`s and
/// histogram `observe`s are *not* batched — the ring is bounded (drop
/// order matters) and histogram samples depend on in-loop state. The
/// counts are the policy's alone, so one batch serves every replica.
#[derive(Default, Clone, Copy)]
struct StoreBatch {
    stores: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl StoreBatch {
    /// Add the batched counts to every replica's recorder and reset.
    /// Evictions and async flushes are counted 1:1 on this path.
    #[inline]
    fn drain_into<R: Recorder>(&mut self, recs: &mut [R]) {
        if R::ENABLED {
            for rec in recs.iter_mut() {
                rec.add(CounterId::Stores, self.stores);
                rec.add(CounterId::ScHits, self.hits);
                rec.add(CounterId::ScMisses, self.misses);
                rec.add(CounterId::ScEvictions, self.evictions);
                rec.add(CounterId::FlushesAsync, self.evictions);
            }
            *self = StoreBatch::default();
        }
    }
}

/// Replay one replica group through `policy`, counting flushes: every
/// replica sees the same events and decisions, so one count serves the
/// whole group, and each replica's recorder in `recs` gets the same
/// telemetry.
///
/// Generic over the concrete policy and the telemetry [`Recorder`]: with
/// [`NullRecorder`] every `R::ENABLED` block is a constant-false branch
/// the optimizer deletes, so the uninstrumented path is byte-for-byte
/// the pre-telemetry loop. Timeline timestamps in this (untimed) driver
/// are the per-thread trace-event ordinal.
fn flush_group<P: PersistPolicy, R: Recorder>(
    thread: &ThreadTrace,
    policy: &mut P,
    recs: &mut [R],
) -> ThreadFlushes {
    let mut acc = ThreadFlushes::default();
    let mut depth = 0usize;
    let mut buf = Vec::with_capacity(FLUSH_BUF_CAPACITY);
    let mut t = 0u64; // event ordinal (telemetry time axis)
    let mut fase_stores = 0u64;
    let mut batch = StoreBatch::default();
    for chunk in thread.events.chunks(REPLAY_CHUNK) {
        for e in chunk {
            t += 1;
            match e {
                Event::Write(l) => {
                    acc.stores += 1;
                    let outcome = policy.on_store(*l, &mut buf);
                    acc.fl_async += buf.len() as u64;
                    if R::ENABLED {
                        fase_stores += 1;
                        batch.stores += 1;
                        let kind = match outcome {
                            StoreOutcome::Combined => {
                                batch.hits += 1;
                                EventKind::ScHit
                            }
                            StoreOutcome::Inserted => {
                                batch.misses += 1;
                                EventKind::ScInsert
                            }
                        };
                        batch.evictions += buf.len() as u64;
                        let change = policy.take_capacity_change();
                        for rec in recs.iter_mut() {
                            rec.emit(kind, t, l.0, 0);
                            for victim in &buf {
                                rec.emit(EventKind::ScEvict, t, victim.0, 0);
                            }
                            if let Some((knee, cap)) = change {
                                rec.incr(CounterId::CapacityChanges);
                                rec.emit(EventKind::CapacityChange, t, knee as u64, cap as u64);
                            }
                        }
                    }
                    buf.clear();
                }
                Event::FaseBegin => {
                    depth += 1;
                    if depth == 1 {
                        policy.on_fase_begin();
                        if R::ENABLED {
                            for rec in recs.iter_mut() {
                                rec.incr(CounterId::FaseBegins);
                                rec.emit(EventKind::FaseBegin, t, 0, 0);
                            }
                            fase_stores = 0;
                        }
                    }
                }
                Event::FaseEnd => {
                    if depth == 1 {
                        policy.on_fase_end(&mut buf);
                        acc.fl_sync += buf.len() as u64;
                        if R::ENABLED {
                            for rec in recs.iter_mut() {
                                rec.incr(CounterId::FaseEnds);
                                rec.add(CounterId::FlushesSync, buf.len() as u64);
                                rec.observe(HistId::FaseStores, fase_stores);
                                rec.emit(EventKind::FaseEnd, t, fase_stores, buf.len() as u64);
                            }
                        }
                        buf.clear();
                    }
                    depth = depth.saturating_sub(1);
                }
                Event::Read(_) | Event::Work(_) => {}
            }
        }
        batch.drain_into(recs);
    }
    // program exit: remaining buffered lines must still be persisted
    policy.on_fase_end(&mut buf);
    acc.fl_sync += buf.len() as u64;
    if R::ENABLED {
        for rec in recs.iter_mut() {
            rec.add(CounterId::FlushesSync, buf.len() as u64);
        }
    }
    acc
}

/// One unit of replay work: a shared event buffer and the ids of the
/// threads (all of them replicas of that buffer) replayed from it by
/// one policy pass.
type ReplicaGroup<'a> = (&'a ThreadTrace, Vec<usize>);

/// The replica groups of `trace`: threads whose buffers are one `Arc`,
/// found by pointer identity, in order of first appearance.
fn replica_groups(trace: &Trace) -> Vec<ReplicaGroup<'_>> {
    let mut groups: Vec<(&Arc<ThreadTrace>, Vec<usize>)> = Vec::new();
    for (tid, t) in trace.threads.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| Arc::ptr_eq(g, t)) {
            Some((_, tids)) => tids.push(tid),
            None => groups.push((t, vec![tid])),
        }
    }
    groups.into_iter().map(|(t, tids)| (&**t, tids)).collect()
}

/// Run `f` once per replica group of `trace` on up to
/// `opts.parallelism` OS threads. `f(buffer, tids)` returns one result
/// per id of `tids`, in that order; the results come back in thread-id
/// order.
fn fan_out_groups<T, F>(trace: &Trace, opts: &ReplayOptions, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ThreadTrace, &[usize]) -> Vec<T> + Sync,
{
    let groups = replica_groups(trace);
    let per_group = fan_out(&groups, opts.parallelism, |_, (t, tids)| f(t, tids));
    let mut slots: Vec<Option<T>> = Vec::with_capacity(trace.num_threads());
    slots.resize_with(trace.num_threads(), || None);
    for ((_, tids), results) in groups.iter().zip(per_group) {
        for (&tid, r) in tids.iter().zip(results) {
            slots[tid] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every thread replayed"))
        .collect()
}

/// One telemetry recorder per thread of `tids`.
fn recorders(tids: &[usize], tcfg: &TelemetryConfig) -> Vec<ThreadRecorder> {
    tids.iter()
        .map(|&tid| ThreadRecorder::new(tid as u32, tcfg))
        .collect()
}

/// Count flushes exactly, without the timing model (sequentially).
pub fn flush_stats(trace: &Trace, kind: &PolicyKind) -> FlushStats {
    flush_stats_with(trace, kind, &ReplayOptions::sequential())
}

/// Count flushes exactly, replaying replica groups on up to
/// `opts.parallelism` OS threads. Identical output to [`flush_stats`]
/// for every `opts`.
pub fn flush_stats_with(trace: &Trace, kind: &PolicyKind, opts: &ReplayOptions) -> FlushStats {
    let per = fan_out_groups(trace, opts, |t, tids| {
        let mut policy = kind.build_policy();
        let flushes = each_variant!(&mut policy, p => flush_group(t, p, &mut [NullRecorder]));
        vec![flushes; tids.len()]
    });
    aggregate_flushes(kind, per)
}

/// Count flushes exactly with telemetry enabled: same accounting as
/// [`flush_stats_with`], plus a [`TelemetrySnapshot`] of counters,
/// histograms and the merged event timeline. Per-thread shards are
/// merged in thread-id order, so the snapshot is identical for every
/// `opts.parallelism`.
pub fn flush_stats_traced(
    trace: &Trace,
    kind: &PolicyKind,
    opts: &ReplayOptions,
    tcfg: &TelemetryConfig,
) -> (FlushStats, TelemetrySnapshot) {
    let per = fan_out_groups(trace, opts, |t, tids| {
        let (mut policy, mut recs) = (kind.build_policy(), recorders(tids, tcfg));
        let flushes = each_variant!(&mut policy, p => flush_group(t, p, &mut recs));
        recs.into_iter().map(|rec| (flushes, rec)).collect()
    });
    let (flushes, snapshot) = split_shards(per);
    (aggregate_flushes(kind, flushes), snapshot)
}

/// Split a traced replay's per-thread `(result, recorder)` pairs (in
/// thread-id order) into the results and the merged snapshot.
fn split_shards<T>(per: Vec<(T, ThreadRecorder)>) -> (Vec<T>, TelemetrySnapshot) {
    let (results, shards): (Vec<T>, Vec<ThreadRecorder>) = per.into_iter().unzip();
    (results, TelemetrySnapshot::from_threads(shards))
}

/// [`flush_stats_with`] under a second name, kept only because the repo
/// benchmark (`benchmark/src/adapter.rs`) calls it.
pub fn flush_stats_dyn(trace: &Trace, kind: &PolicyKind, opts: &ReplayOptions) -> FlushStats {
    flush_stats_with(trace, kind, opts)
}

fn aggregate_flushes(kind: &PolicyKind, per: Vec<ThreadFlushes>) -> FlushStats {
    let mut stats = FlushStats {
        label: kind.label().to_string(),
        stores: 0,
        flushes_async: 0,
        flushes_sync: 0,
    };
    for t in per {
        stats.stores += t.stores;
        stats.flushes_async += t.fl_async;
        stats.flushes_sync += t.fl_sync;
    }
    stats
}

/// Configuration of a timed run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunConfig {
    /// Per-thread hardware context configuration.
    pub machine: MachineConfig,
}

/// Outcome of a timed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Technique label.
    pub label: String,
    /// Persistent stores.
    pub stores: u64,
    /// Simulated execution time: max cycles over threads.
    pub cycles: u64,
    /// Total instructions over threads.
    pub instructions: u64,
    /// Aggregate L1 miss ratio over threads.
    pub l1_miss_ratio: f64,
    /// Per-thread machine reports.
    pub per_thread: Vec<MachineReport>,
}

impl RunReport {
    /// Total flushes over threads.
    pub fn flushes(&self) -> u64 {
        self.per_thread.iter().map(|r| r.flushes()).sum()
    }

    /// Flush ratio over the whole run.
    pub fn flush_ratio(&self) -> f64 {
        if self.stores == 0 {
            0.0
        } else {
            self.flushes() as f64 / self.stores as f64
        }
    }

    /// Speedup of this run over `base` (cycles ratio).
    pub fn speedup_over(&self, base: &RunReport) -> f64 {
        base.cycles as f64 / self.cycles as f64
    }
}

/// Pre-sized capacity for the per-event flush buffer: policies emit at
/// most a handful of victims per store and a working set per FASE end;
/// starting at 64 avoids regrowth in the hot loop for every workload in
/// the harness.
const FLUSH_BUF_CAPACITY: usize = 64;

/// Drain one FASE-boundary flush batch into the machine: one
/// synchronous flush per line, in policy emission order, with per-flush
/// telemetry when enabled. The caller's fence pays the drain.
fn drain_fase_buf<R: Recorder>(m: &mut Machine, lines: &[Line], rec: &mut R) {
    for &line in lines {
        m.flush_sync(line);
        if R::ENABLED {
            rec.incr(CounterId::FlushesSync);
            rec.emit(EventKind::FlushSync, m.now(), line.0, 0);
            rec.observe(HistId::QueueDepth, m.queue_depth() as u64);
        }
    }
}

/// Simulate one replica group with full timing: `policy` replays
/// `thread` once, and each event and each of its flush decisions goes
/// to the machine of every thread in `tids`. A thread's machine is
/// seeded from its id (a pure function of the config seed and the
/// thread id, never of scheduling or grouping), so each replica's
/// report is the one a replay of that thread alone would give. Returns
/// `(stores, report)` per thread of `tids`, in that order.
///
/// Generic over the telemetry [`Recorder`] like [`flush_group`]; `recs`
/// holds one recorder per thread of `tids`. Here the timeline time axis
/// is the replica's own simulated cycle clock, and the instrumentation
/// additionally samples flush-queue depth and attributes stall cycles
/// to sync flushes vs. FASE-end drains.
fn replay_group<P: PersistPolicy, R: Recorder>(
    thread: &ThreadTrace,
    tids: &[usize],
    policy: &mut P,
    cfg: &RunConfig,
    recs: &mut [R],
) -> Vec<(u64, MachineReport)> {
    let mut machines: Vec<Machine> = tids
        .iter()
        .map(|&tid| {
            let mut mcfg = cfg.machine;
            mcfg.seed = cfg.machine.seed.wrapping_add(tid as u64 * 0x9e37_79b9);
            Machine::new(mcfg)
        })
        .collect();
    let mut stores = 0u64;
    let mut depth = 0usize;
    let mut buf = Vec::with_capacity(FLUSH_BUF_CAPACITY);
    let mut fase_stores = 0u64;
    let mut batch = StoreBatch::default();
    // runtime-sampler state (recorder-on only): FASE ordinal drives the
    // cadence; hit/miss running totals survive the per-chunk batch
    // drain. Everything sampled is a pure function of the workload
    // (simulated cycles, queue depth, counters) — never wall-clock — so
    // parallel replay snapshots stay bit-identical to sequential.
    let mut fases = 0u64;
    let (mut cum_hits, mut cum_misses) = (0u64, 0u64);
    for chunk in thread.events.chunks(REPLAY_CHUNK) {
        for e in chunk {
            match e {
                Event::Write(l) => {
                    stores += 1;
                    let outcome = policy.on_store(*l, &mut buf);
                    let overhead = policy.store_overhead_instrs();
                    let extra = policy.drain_extra_instrs();
                    let mut change = None;
                    let mut kind = EventKind::ScHit;
                    if R::ENABLED {
                        fase_stores += 1;
                        batch.stores += 1;
                        batch.evictions += buf.len() as u64;
                        if outcome == StoreOutcome::Combined {
                            batch.hits += 1;
                            cum_hits += 1;
                        } else {
                            batch.misses += 1;
                            cum_misses += 1;
                            kind = EventKind::ScInsert;
                        }
                        change = policy.take_capacity_change();
                    }
                    for (m, rec) in machines.iter_mut().zip(recs.iter_mut()) {
                        m.store(*l);
                        m.software_overhead(overhead);
                        if extra > 0 {
                            m.software_overhead(extra);
                        }
                        if R::ENABLED {
                            rec.emit(kind, m.now(), l.0, 0);
                            if let Some((knee, cap)) = change {
                                rec.incr(CounterId::CapacityChanges);
                                rec.emit(
                                    EventKind::CapacityChange,
                                    m.now(),
                                    knee as u64,
                                    cap as u64,
                                );
                            }
                        }
                        for &victim in &buf {
                            m.flush_async(victim);
                            if R::ENABLED {
                                rec.emit(EventKind::FlushAsync, m.now(), victim.0, 0);
                                rec.observe(HistId::QueueDepth, m.queue_depth() as u64);
                            }
                        }
                    }
                    buf.clear();
                }
                Event::Read(l) => machines.iter_mut().for_each(|m| m.load(*l)),
                Event::Work(u) => machines.iter_mut().for_each(|m| m.work(*u)),
                Event::FaseBegin => {
                    depth += 1;
                    if depth == 1 {
                        policy.on_fase_begin();
                        if R::ENABLED {
                            for (m, rec) in machines.iter().zip(recs.iter_mut()) {
                                rec.incr(CounterId::FaseBegins);
                                rec.emit(EventKind::FaseBegin, m.now(), 0, 0);
                            }
                            fase_stores = 0;
                        }
                    }
                }
                Event::FaseEnd => {
                    if depth == 1 {
                        policy.on_fase_end(&mut buf);
                        if R::ENABLED {
                            fases += 1;
                            let n = buf.len() as u64;
                            let replicas = machines.iter_mut().zip(recs.iter_mut()).zip(tids);
                            for ((m, rec), &tid) in replicas {
                                let stall_before = m.fase_stall_cycles();
                                drain_fase_buf(m, &buf, rec);
                                let sync_stall = m.fase_stall_cycles() - stall_before;
                                rec.observe(HistId::SyncFlushStall, sync_stall);
                                let drain_before = m.fase_stall_cycles();
                                m.fence();
                                let drain_stall = m.fase_stall_cycles() - drain_before;
                                rec.observe(HistId::DrainStall, drain_stall);
                                rec.incr(CounterId::Fences);
                                rec.incr(CounterId::FaseEnds);
                                rec.observe(HistId::FaseStores, fase_stores);
                                rec.emit(EventKind::QueueDrain, m.now(), drain_stall, 0);
                                rec.emit(EventKind::FaseEnd, m.now(), fase_stores, n);
                                if rec.sample_due(fases) {
                                    let total = cum_hits + cum_misses;
                                    rec.sample(Sample {
                                        t: m.now(),
                                        tid: tid as u32,
                                        ring_depth: m.queue_depth() as u64,
                                        capacity: policy.sc_capacity().map_or(0, |c| c as u64),
                                        hit_ratio_bp: (cum_hits * 10_000)
                                            .checked_div(total)
                                            .unwrap_or(0)
                                            as u32,
                                        stalls: m.fase_stall_cycles(),
                                    });
                                }
                            }
                        } else {
                            for (m, rec) in machines.iter_mut().zip(recs.iter_mut()) {
                                drain_fase_buf(m, &buf, rec);
                                m.fence();
                            }
                        }
                        buf.clear();
                    }
                    depth = depth.saturating_sub(1);
                }
            }
        }
        batch.drain_into(recs);
    }
    // flush whatever the policy still buffers at program end
    policy.on_fase_end(&mut buf);
    for (m, rec) in machines.iter_mut().zip(recs.iter_mut()) {
        drain_fase_buf(m, &buf, rec);
        m.fence();
        if R::ENABLED {
            rec.incr(CounterId::Fences);
            rec.add(CounterId::FaseStallCycles, m.fase_stall_cycles());
            rec.add(CounterId::QueueStallCycles, m.total_stall_cycles());
        }
    }
    machines.into_iter().map(|m| (stores, m.finish())).collect()
}

/// Replay `trace` under `kind` with full timing (sequentially). Each
/// thread gets its own hardware context and, through its replica
/// group's policy pass, its own software cache (per-thread seeds differ
/// so contention schedules decorrelate).
pub fn run_policy(trace: &Trace, kind: &PolicyKind, cfg: &RunConfig) -> RunReport {
    run_policy_with(trace, kind, cfg, &ReplayOptions::sequential())
}

/// Replay `trace` under `kind` with full timing, simulating replica
/// groups on up to `opts.parallelism` OS threads. Identical output to
/// [`run_policy`] for every `opts`: groups share nothing, and
/// per-thread results are aggregated in thread-id order.
pub fn run_policy_with(
    trace: &Trace,
    kind: &PolicyKind,
    cfg: &RunConfig,
    opts: &ReplayOptions,
) -> RunReport {
    let per = fan_out_groups(trace, opts, |t, tids| {
        let mut policy = kind.build_policy();
        let mut recs = vec![NullRecorder; tids.len()];
        each_variant!(&mut policy, p => replay_group(t, tids, p, cfg, &mut recs))
    });
    aggregate_runs(kind, per)
}

/// Timed replay with telemetry enabled: same [`RunReport`] as
/// [`run_policy_with`], plus a [`TelemetrySnapshot`] whose timeline is
/// stamped with simulated machine cycles. Deterministic across
/// `opts.parallelism` (shards merge in thread-id order).
pub fn run_policy_traced(
    trace: &Trace,
    kind: &PolicyKind,
    cfg: &RunConfig,
    opts: &ReplayOptions,
    tcfg: &TelemetryConfig,
) -> (RunReport, TelemetrySnapshot) {
    let per = fan_out_groups(trace, opts, |t, tids| {
        let (mut policy, mut recs) = (kind.build_policy(), recorders(tids, tcfg));
        let runs = each_variant!(&mut policy, p => replay_group(t, tids, p, cfg, &mut recs));
        runs.into_iter().zip(recs).collect()
    });
    let (runs, snapshot) = split_shards(per);
    (aggregate_runs(kind, runs), snapshot)
}

/// [`run_policy_with`] under a second name, kept only because the repo
/// benchmark (`benchmark/src/adapter.rs`) calls it.
pub fn run_policy_dyn(
    trace: &Trace,
    kind: &PolicyKind,
    cfg: &RunConfig,
    opts: &ReplayOptions,
) -> RunReport {
    run_policy_with(trace, kind, cfg, opts)
}

fn aggregate_runs(kind: &PolicyKind, per: Vec<(u64, MachineReport)>) -> RunReport {
    let stores = per.iter().map(|(s, _)| *s).sum();
    let per_thread: Vec<MachineReport> = per.into_iter().map(|(_, r)| r).collect();

    let cycles = per_thread.iter().map(|r| r.cycles).max().unwrap_or(0);
    let instructions = per_thread.iter().map(|r| r.instructions).sum();
    let (hits, misses) = per_thread
        .iter()
        .fold((0u64, 0u64), |(h, m_), r| (h + r.l1.hits, m_ + r.l1.misses));
    let l1_miss_ratio = if hits + misses == 0 {
        0.0
    } else {
        misses as f64 / (hits + misses) as f64
    };

    RunReport {
        label: kind.label().to_string(),
        stores,
        cycles,
        instructions,
        l1_miss_ratio,
        per_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_trace::synth::{cyclic, sequential, SynthOpts};
    use nvcache_trace::{Line, ThreadTrace};

    fn opts(wpf: usize) -> SynthOpts {
        SynthOpts {
            writes_per_fase: wpf,
            work_per_write: 2,
            ..Default::default()
        }
    }

    #[test]
    fn eager_flush_ratio_is_one() {
        let tr = cyclic(8, 100, &opts(50));
        let s = flush_stats(&tr, &PolicyKind::Eager);
        assert_eq!(s.stores, 800);
        assert!((s.flush_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_reaches_minimum_flush_count() {
        // 8-line working set, 50 writes per FASE → ≥ 8 flushes per FASE
        let tr = cyclic(8, 100, &opts(50));
        let s = flush_stats(&tr, &PolicyKind::Lazy);
        // 800 writes / 50 per fase = 16 fases; each flushes 8 lines
        assert_eq!(s.flushes(), 16 * 8);
        assert_eq!(s.flushes_async, 0, "LA never flushes mid-FASE");
    }

    #[test]
    fn best_never_flushes() {
        let tr = cyclic(8, 100, &opts(50));
        let s = flush_stats(&tr, &PolicyKind::Best);
        assert_eq!(s.flushes(), 0);
    }

    #[test]
    fn policy_ordering_on_thrashy_trace() {
        // Working set 12 > Atlas table 8 but ≤ SC capacity 12:
        // ER > AT > SC = LA must hold on flush counts. (12 is chosen so
        // only slots 0–3 of the mod-8 table conflict; a multiple of 8
        // would conflict on every store and degenerate AT to ER.)
        let tr = cyclic(12, 200, &opts(100));
        let er = flush_stats(&tr, &PolicyKind::Eager).flushes();
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 }).flushes();
        let sc = flush_stats(&tr, &PolicyKind::ScFixed { capacity: 12 }).flushes();
        let la = flush_stats(&tr, &PolicyKind::Lazy).flushes();
        assert!(er > at, "ER {er} !> AT {at}");
        assert!(at > sc, "AT {at} !> SC {sc}");
        assert_eq!(sc, la, "right-sized SC reaches the LA minimum");
    }

    #[test]
    fn adaptive_sc_approaches_lazy_minimum() {
        // Long enough that the pre-adaptation thrash (cache still at the
        // default size 8 during the first burst) is amortized away.
        let tr = cyclic(23, 10_000, &opts(500));
        let cfg = crate::adaptive::AdaptiveConfig {
            burst_len: 2000,
            ..Default::default()
        };
        let sc = flush_stats(&tr, &PolicyKind::ScAdaptive(cfg));
        let la = flush_stats(&tr, &PolicyKind::Lazy);
        let ratio = sc.flushes() as f64 / la.flushes() as f64;
        assert!(
            ratio < 1.3,
            "adaptive SC must be near the LA minimum: {ratio}"
        );
    }

    #[test]
    fn exit_flushes_unterminated_fase_state() {
        // a trace ending mid-FASE still persists buffered lines
        let mut t = ThreadTrace::new();
        t.fase_begin();
        t.write(Line(1));
        t.write(Line(2));
        let tr = Trace::from_threads(vec![t]);
        let s = flush_stats(&tr, &PolicyKind::ScFixed { capacity: 8 });
        assert_eq!(s.flushes(), 2);
    }

    #[test]
    fn timed_run_ordering_matches_paper_figure4() {
        // On a thrashy working set (12 lines vs AT's 8-entry table),
        // simulated times must order ER > AT > SC > BEST.
        let tr = cyclic(12, 500, &opts(100));
        let cfg = RunConfig::default();
        let er = run_policy(&tr, &PolicyKind::Eager, &cfg);
        let at = run_policy(&tr, &PolicyKind::Atlas { size: 8 }, &cfg);
        let sc = run_policy(&tr, &PolicyKind::ScFixed { capacity: 12 }, &cfg);
        let best = run_policy(&tr, &PolicyKind::Best, &cfg);
        assert!(
            er.cycles > at.cycles,
            "ER {} !> AT {}",
            er.cycles,
            at.cycles
        );
        assert!(
            at.cycles > sc.cycles,
            "AT {} !> SC {}",
            at.cycles,
            sc.cycles
        );
        assert!(
            sc.cycles > best.cycles,
            "SC {} !> BEST {}",
            sc.cycles,
            best.cycles
        );
    }

    #[test]
    fn lazy_pays_fase_end_stall() {
        let tr = cyclic(32, 200, &opts(64));
        let cfg = RunConfig::default();
        let la = run_policy(&tr, &PolicyKind::Lazy, &cfg);
        let sc = run_policy(&tr, &PolicyKind::ScFixed { capacity: 32 }, &cfg);
        let la_stall: u64 = la.per_thread.iter().map(|r| r.fase_stall_cycles).sum();
        let sc_stall: u64 = sc.per_thread.iter().map(|r| r.fase_stall_cycles).sum();
        // LA and right-sized SC flush identical line sets at FASE end;
        // both stall — but LA must not stall *less* (it has no async
        // head start). Equal sets ⇒ similar stalls; key property is the
        // flush counts match while ER's stall profile differs.
        assert!(la_stall > 0 && sc_stall > 0);
        assert_eq!(la.flushes(), sc.flushes());
    }

    #[test]
    fn fewer_flushes_means_fewer_l1_misses() {
        let tr = sequential(16, 400, &opts(100));
        let cfg = RunConfig::default();
        let er = run_policy(&tr, &PolicyKind::Eager, &cfg);
        let best = run_policy(&tr, &PolicyKind::Best, &cfg);
        assert!(
            er.l1_miss_ratio > best.l1_miss_ratio,
            "flushing must hurt L1: ER {} vs BEST {}",
            er.l1_miss_ratio,
            best.l1_miss_ratio
        );
    }

    #[test]
    fn multithreaded_cycles_is_max_not_sum() {
        let single = cyclic(8, 100, &opts(50));
        let tr = Trace::replicated(single.threads[0].clone(), 4);
        let cfg = RunConfig::default();
        let r1 = run_policy(&single, &PolicyKind::Atlas { size: 8 }, &cfg);
        let r4 = run_policy(&tr, &PolicyKind::Atlas { size: 8 }, &cfg);
        assert_eq!(r4.per_thread.len(), 4);
        // identical per-thread work ⇒ parallel time ≈ single time
        assert!(r4.cycles <= r1.cycles * 11 / 10);
        assert!(r4.instructions >= r1.instructions * 4);
    }

    #[test]
    fn replay_options_clamp_and_probe() {
        assert_eq!(ReplayOptions::default().parallelism, 1);
        assert_eq!(ReplayOptions::sequential().parallelism, 1);
        assert_eq!(ReplayOptions::with_parallelism(0).parallelism, 1);
        assert_eq!(ReplayOptions::with_parallelism(6).parallelism, 6);
        assert!(ReplayOptions::parallel().parallelism >= 1);
    }

    #[test]
    fn replica_groups_follow_pointer_identity() {
        let a = Arc::new(cyclic(4, 10, &opts(5)).threads[0].as_ref().clone());
        let b = Arc::new(cyclic(6, 10, &opts(5)).threads[0].as_ref().clone());
        let mixed = Trace {
            threads: vec![a.clone(), b.clone(), a.clone(), a.clone(), b.clone()],
        };
        let groups = replica_groups(&mixed);
        for (t, tids) in &groups {
            assert!(tids
                .iter()
                .all(|&tid| std::ptr::eq(*t, &*mixed.threads[tid])));
        }
        let tids: Vec<Vec<usize>> = groups.into_iter().map(|(_, tids)| tids).collect();
        assert_eq!(tids, [vec![0, 2, 3], vec![1, 4]]);
        // equal contents in buffers of their own are groups of one
        let own = Trace::from_threads(vec![(*a).clone(); 3]);
        assert_eq!(replica_groups(&own).len(), 3);
        assert!(replica_groups(&Trace::default()).is_empty());
    }

    #[test]
    fn fan_out_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = fan_out(&items, workers, |i, &x| (i, x * 2));
            assert_eq!(out.len(), 37, "workers={workers}");
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*doubled, i * 2);
            }
        }
        let empty: Vec<usize> = Vec::new();
        assert!(fan_out(&empty, 8, |_, &x| x).is_empty());
    }

    #[test]
    fn parallel_replay_is_bit_identical_to_sequential() {
        let single = cyclic(12, 200, &opts(50));
        let tr = Trace::replicated(single.threads[0].clone(), 8);
        let cfg = RunConfig::default();
        for kind in [
            PolicyKind::Eager,
            PolicyKind::Atlas { size: 8 },
            PolicyKind::ScFixed { capacity: 12 },
        ] {
            let seq = run_policy_with(&tr, &kind, &cfg, &ReplayOptions::sequential());
            for par in [2, 4, 8, 32] {
                let p = run_policy_with(&tr, &kind, &cfg, &ReplayOptions::with_parallelism(par));
                assert_eq!(seq, p, "{} parallelism={par}", kind.label());
            }
            let fseq = flush_stats_with(&tr, &kind, &ReplayOptions::sequential());
            let fpar = flush_stats_with(&tr, &kind, &ReplayOptions::with_parallelism(4));
            assert_eq!(fseq, fpar, "{}", kind.label());
        }
    }

    #[test]
    fn traced_flush_stats_match_untraced_and_counters_agree() {
        use nvcache_telemetry::CounterId;
        let single = cyclic(12, 200, &opts(50));
        let tr = Trace::replicated(single.threads[0].clone(), 4);
        let tcfg = TelemetryConfig::default();
        for kind in [
            PolicyKind::Eager,
            PolicyKind::Lazy,
            PolicyKind::Atlas { size: 8 },
            PolicyKind::ScFixed { capacity: 12 },
            PolicyKind::Best,
        ] {
            let plain = flush_stats(&tr, &kind);
            let (stats, snap) = flush_stats_traced(&tr, &kind, &ReplayOptions::sequential(), &tcfg);
            assert_eq!(
                plain,
                stats,
                "{}: telemetry must not perturb results",
                kind.label()
            );
            assert_eq!(snap.counter(CounterId::Stores), stats.stores);
            assert_eq!(snap.counter(CounterId::FlushesAsync), stats.flushes_async);
            assert_eq!(snap.counter(CounterId::FlushesSync), stats.flushes_sync);
            assert_eq!(
                snap.counter(CounterId::ScHits) + snap.counter(CounterId::ScMisses),
                stats.stores
            );
        }
    }

    #[test]
    fn traced_snapshot_is_parallelism_invariant() {
        let single = cyclic(12, 200, &opts(50));
        let tr = Trace::replicated(single.threads[0].clone(), 8);
        let tcfg = TelemetryConfig::default();
        let kind = PolicyKind::ScFixed { capacity: 12 };
        let (seq_stats, seq_snap) =
            flush_stats_traced(&tr, &kind, &ReplayOptions::sequential(), &tcfg);
        for par in [2, 4, 8] {
            let (s, snap) =
                flush_stats_traced(&tr, &kind, &ReplayOptions::with_parallelism(par), &tcfg);
            assert_eq!(seq_stats, s);
            assert_eq!(seq_snap.counters, snap.counters, "parallelism={par}");
            assert_eq!(seq_snap.per_thread, snap.per_thread);
            assert_eq!(seq_snap.timeline, snap.timeline);
        }
        let cfg = RunConfig::default();
        let (seq_rep, seq_tsnap) =
            run_policy_traced(&tr, &kind, &cfg, &ReplayOptions::sequential(), &tcfg);
        let (par_rep, par_tsnap) =
            run_policy_traced(&tr, &kind, &cfg, &ReplayOptions::with_parallelism(4), &tcfg);
        assert_eq!(seq_rep, par_rep);
        assert_eq!(seq_tsnap.counters, par_tsnap.counters);
        assert_eq!(seq_tsnap.timeline, par_tsnap.timeline);
    }

    #[test]
    fn traced_timed_run_matches_untraced_report() {
        use nvcache_telemetry::CounterId;
        let tr = cyclic(12, 300, &opts(80));
        let cfg = RunConfig::default();
        let tcfg = TelemetryConfig::default();
        for kind in [
            PolicyKind::Eager,
            PolicyKind::Atlas { size: 8 },
            PolicyKind::ScFixed { capacity: 12 },
        ] {
            let plain = run_policy(&tr, &kind, &cfg);
            let (rep, snap) =
                run_policy_traced(&tr, &kind, &cfg, &ReplayOptions::sequential(), &tcfg);
            assert_eq!(
                plain,
                rep,
                "{}: telemetry must not perturb timing",
                kind.label()
            );
            assert_eq!(
                snap.counter(CounterId::FlushesAsync) + snap.counter(CounterId::FlushesSync),
                rep.flushes(),
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn adaptive_capacity_changes_hit_the_timeline() {
        let tr = cyclic(23, 5_000, &opts(500));
        let cfg = crate::adaptive::AdaptiveConfig {
            burst_len: 2000,
            ..Default::default()
        };
        let (_, snap) = flush_stats_traced(
            &tr,
            &PolicyKind::ScAdaptive(cfg),
            &ReplayOptions::sequential(),
            &TelemetryConfig::default(),
        );
        let changes = snap.capacity_timeline();
        assert_eq!(changes.len(), 1, "one burst ⇒ one resize event");
        let (_, _, knee, cap) = changes[0];
        assert!((21..=24).contains(&cap), "capacity near the knee: {cap}");
        assert!(knee <= cap);
        assert_eq!(
            snap.counter(nvcache_telemetry::CounterId::CapacityChanges),
            1
        );
    }

    #[test]
    fn flush_stats_and_run_policy_agree_on_counts() {
        let tr = cyclic(12, 300, &opts(80));
        for kind in [
            PolicyKind::Eager,
            PolicyKind::Lazy,
            PolicyKind::Atlas { size: 8 },
            PolicyKind::ScFixed { capacity: 12 },
            PolicyKind::Best,
        ] {
            let fast = flush_stats(&tr, &kind);
            let timed = run_policy(&tr, &kind, &RunConfig::default());
            assert_eq!(fast.flushes(), timed.flushes(), "{}", kind.label());
            assert_eq!(fast.stores, timed.stores);
        }
    }
}
