//! YCSB-style concurrent load generation for [`KvStore`]: zipfian or
//! uniform key choice, the classic mixes A–F (reads, updates, inserts,
//! short range scans, read-modify-writes), deterministic per-worker
//! seeds, closed-loop issue (the open-loop generator is
//! [`crate::netload`]).
//!
//! The harness mirrors the paper's memcached evaluation shape: a
//! long-running store serving a skewed key-popularity stream while each
//! shard's adaptive policy samples its store lines and resizes its
//! software cache. The main thread scrapes per-window [`FaseStats`] deltas from
//! the shards *while they serve* (via [`Shard::take_stats`]), yielding
//! the per-window flush ratios `repro kv-bench` reports.
//!
//! [`Shard::take_stats`]: crate::shard::Shard::take_stats

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nvcache_fase::FaseStats;
use nvcache_telemetry::{
    MonoClock, Recorder, SpanId, TelemetryConfig, TelemetrySnapshot, ThreadRecorder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;
use crate::server::KvServer;
use crate::store::KvStore;

/// Anything the loadgen can drive: the embedded [`KvStore`] (an idle
/// lane runs the shard on the caller's thread with borrowed arguments)
/// or the concurrent [`KvServer`] through its client (an idle lane
/// serves the caller's request on its thread, a busy one queues
/// requests into cross-client group commits).
/// Data ops are issued from the worker threads; the stats pair is
/// scraped from the main thread while the run serves.
pub trait KvTarget: Sync {
    /// Look up `key`.
    fn get(&self, key: u64) -> Option<Vec<u8>>;
    /// Insert or update `key → value`.
    fn put(&self, key: u64, value: &[u8]) -> bool;
    /// Apply a write batch (one FASE per involved shard).
    fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool;
    /// Range scan `lo..=hi`, at most `limit` entries, sorted by key.
    fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)>;
    /// Interval-delta counters summed over shards.
    fn take_stats(&self) -> FaseStats;
    /// Restart adaptation measurement (post-load).
    fn reset_samplers(&self);
}

impl KvTarget for KvStore {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        KvStore::get(self, key)
    }
    fn put(&self, key: u64, value: &[u8]) -> bool {
        KvStore::put(self, key, value)
    }
    fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool {
        KvStore::put_many(self, items)
    }
    fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        self.handle().scan(lo, hi, limit)
    }
    fn take_stats(&self) -> FaseStats {
        KvServer::take_stats(self)
    }
    fn reset_samplers(&self) {
        KvServer::reset_samplers(self)
    }
}

impl<E: Engine> KvTarget for KvServer<E> {
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.handle().get(key)
    }
    fn put(&self, key: u64, value: &[u8]) -> bool {
        self.handle().put(key, value)
    }
    fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool {
        self.handle().put_many(items)
    }
    fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        self.handle().scan(lo, hi, limit)
    }
    fn take_stats(&self) -> FaseStats {
        KvServer::take_stats(self)
    }
    fn reset_samplers(&self) {
        KvServer::reset_samplers(self)
    }
}

/// The standard YCSB core mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% reads / 50% updates (update-heavy).
    A,
    /// 95% reads / 5% updates (read-mostly).
    B,
    /// 100% reads.
    C,
    /// 90% reads / 5% updates / 5% inserts of fresh keys (the
    /// insert-bearing mix; YCSB-D-shaped working-set growth).
    D,
    /// 95% short range scans / 5% inserts (YCSB-E; the ordered-engine
    /// workload — scan lengths drawn zipfian over `1..=100`).
    E,
    /// 50% reads / 50% read-modify-writes (YCSB-F).
    F,
}

/// Largest range-scan length of the scan-bearing mixes (YCSB-E):
/// per-scan lengths are drawn zipfian over `1..=MAX_SCAN_LEN`, so most
/// scans are short and a few sweep the full window.
const MAX_SCAN_LEN: usize = 100;

/// Per-op-type fractions of one [`Mix`]; sums to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Point reads.
    pub read: f64,
    /// In-place updates of loaded keys.
    pub update: f64,
    /// Inserts of fresh keys.
    pub insert: f64,
    /// Short range scans.
    pub scan: f64,
    /// Read-modify-writes.
    pub rmw: f64,
}

impl Mix {
    /// `(read, update, insert)` fractions; sums to 1 for the scan-free
    /// mixes A–D (E and F carry scan/rmw weight — see
    /// [`Mix::op_mix`]).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let m = self.op_mix();
        (m.read, m.update, m.insert)
    }

    /// Full per-op-type fractions (always sums to 1).
    pub fn op_mix(&self) -> OpMix {
        let (read, update, insert, scan, rmw) = match self {
            Mix::A => (0.50, 0.50, 0.0, 0.0, 0.0),
            Mix::B => (0.95, 0.05, 0.0, 0.0, 0.0),
            Mix::C => (1.0, 0.0, 0.0, 0.0, 0.0),
            Mix::D => (0.90, 0.05, 0.05, 0.0, 0.0),
            Mix::E => (0.0, 0.0, 0.05, 0.95, 0.0),
            Mix::F => (0.50, 0.0, 0.0, 0.0, 0.50),
        };
        OpMix {
            read,
            update,
            insert,
            scan,
            rmw,
        }
    }

    /// YCSB letter.
    pub fn label(&self) -> &'static str {
        match self {
            Mix::A => "A",
            Mix::B => "B",
            Mix::C => "C",
            Mix::D => "D",
            Mix::E => "E",
            Mix::F => "F",
        }
    }
}

/// Key-popularity distribution over the loaded key space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with parameter `theta` (YCSB default 0.99).
    Zipfian {
        /// Skew; 0 degenerates to uniform, 0.99 is the YCSB default.
        theta: f64,
    },
}

/// Precomputed zipfian sampler (Gray et al., the YCSB generator): rank
/// `k` is drawn with probability ∝ `1/(k+1)^theta`. Hot ranks are the
/// low ids; the store's routing hash scatters them over shards.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Sampler over ranks `0..n`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n: n as f64,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Map a uniform draw `u ∈ [0,1)` to a rank.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n as u64 - 1)
    }
}

/// A single mid-run change of the zipfian skew: the minimal workload
/// phase shift the adaptation-convergence checker needs. After
/// `at_frac` of each worker's ops, key popularity switches to a
/// zipfian with the new `theta` (regardless of the initial
/// distribution), moving the working-set knee so the controller must
/// re-find it. A fuller non-stationary suite is future work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaShift {
    /// Fraction of each worker's ops after which the shift happens
    /// (clamped into `[0, 1]`).
    pub at_frac: f64,
    /// Post-shift zipfian theta (must satisfy `0 < theta < 1`).
    pub theta: f64,
}

/// Shape of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbConfig {
    /// Keys preloaded before the timed run.
    pub keys: usize,
    /// Operations each worker issues.
    pub ops_per_worker: usize,
    /// Concurrent workers (closed loop: one outstanding op each).
    pub workers: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Value bytes (fixed length keeps updates on the one-FASE slot
    /// path, where they log nothing).
    pub value_len: usize,
    /// Base seed; worker `w` derives its own deterministic stream.
    pub seed: u64,
    /// Writes per group-commit transaction: `1` issues each write as
    /// its own FASE; `> 1` buffers writes and applies them with
    /// [`KvStore::put_many`] (one FASE per involved shard). Batching is
    /// what gives write FASEs intra-FASE locality for the software
    /// cache — single-write FASEs have none, by construction.
    pub batch: usize,
    /// Stat windows sampled live during the run.
    pub windows: usize,
    /// Optional single mid-run zipfian skew change (workload phase
    /// shift for convergence measurement).
    pub theta_shift: Option<ThetaShift>,
    /// Span-time every op into per-worker latency histograms
    /// (`kv_get_ns`/`kv_put_ns`/`kv_put_many_ns`/`kv_scan_ns`), merged
    /// in tid order into [`YcsbReport::latency`]. Off by default: the
    /// timed closed loop stays free of clock reads.
    pub latency: bool,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            keys: 10_000,
            ops_per_worker: 25_000,
            workers: 4,
            mix: Mix::A,
            dist: KeyDist::Zipfian { theta: 0.99 },
            value_len: 56,
            seed: 42,
            batch: 1,
            windows: 8,
            theta_shift: None,
            latency: false,
        }
    }
}

/// One live stat window scraped mid-run.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Total operations completed when the window closed.
    pub ops: u64,
    /// Interval-delta counters across all shards for the window.
    pub stats: FaseStats,
}

/// Outcome of a [`run`].
#[derive(Debug, Clone)]
pub struct YcsbReport {
    /// Operations completed (= workers × ops_per_worker).
    pub ops: u64,
    /// Reads issued.
    pub reads: u64,
    /// Updates issued.
    pub updates: u64,
    /// Inserts issued.
    pub inserts: u64,
    /// Range scans issued (mix E).
    pub scans: u64,
    /// Read-modify-writes issued (mix F).
    pub rmws: u64,
    /// Reads that found no value (0 for mixes without deletes).
    pub not_found: u64,
    /// Inserts/updates refused by a full shard heap.
    pub rejected: u64,
    /// Timed-run wall seconds.
    pub elapsed_secs: f64,
    /// `ops / elapsed`.
    pub throughput_ops_per_sec: f64,
    /// Live per-window stats (flush ratio per window via
    /// [`FaseStats::flush_ratio`]).
    pub windows: Vec<WindowStats>,
    /// Merged per-op latency telemetry (worker shards merged in tid
    /// order); `Some` iff [`YcsbConfig::latency`] was set.
    pub latency: Option<TelemetrySnapshot>,
}

/// Deterministic value bytes for `(key, version)`.
pub fn value_bytes(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut z = key ^ version.rotate_left(17) ^ 0x5bf0_3635;
    while v.len() < len {
        z = z
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        v.extend_from_slice(&z.to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Preload `keys` keys (version-0 values) into any [`KvTarget`] — the
/// YCSB load phase. Returns how many inserts the target accepted (all,
/// unless a shard heap is undersized).
pub fn load<T: KvTarget>(target: &T, keys: usize, value_len: usize) -> usize {
    (0..keys as u64)
        .filter(|&k| target.put(k, &value_bytes(k, 0, value_len)))
        .count()
}

/// Open-loop latency accounting (what [`crate::netload`] charges each
/// request): elapsed nanoseconds from an op's
/// *intended* (scheduled) arrival to its completion. Measuring from
/// the intended time — not the actual submit time — is what defeats
/// coordinated omission: when the store stalls and the issuing loop
/// falls behind its schedule, every scheduled-but-delayed op is
/// charged the queueing delay the stall imposed on it, instead of the
/// stall silently compressing into one long sample.
#[inline]
pub fn scheduled_latency_ns(intended_ns: u64, completed_ns: u64) -> u64 {
    completed_ns.saturating_sub(intended_ns)
}

/// Run `f` under a latency span when a recorder is live (the span guard
/// reads the clock twice); plain call otherwise.
#[inline]
fn timed<T>(
    rec: &mut Option<ThreadRecorder>,
    clock: &MonoClock,
    id: SpanId,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => {
            let _g = r.span(clock, id);
            f()
        }
        None => f(),
    }
}

/// Run the timed phase of `cfg` against `store` (already loaded) — any
/// [`KvTarget`]: the same loadgen drives the direct store and the
/// concurrent server, so their measurements differ only in the serving
/// path.
///
/// Closed loop: every worker issues as fast as the store serves. Worker
/// `w` uses seed `cfg.seed ⊕ mix(w)`, so runs are reproducible per
/// worker regardless of interleaving.
pub fn run<T: KvTarget>(store: &T, cfg: &YcsbConfig) -> YcsbReport {
    assert!(cfg.workers >= 1 && cfg.ops_per_worker >= 1);
    // One read-only zipfian table, shared by reference across every
    // client thread below. The zetan normalizer is an O(keys) sum — at
    // memcached-scale key counts, recomputing (or deep-copying) it per
    // worker is measurable setup cost for zero benefit: sampling only
    // ever reads the five precomputed constants.
    let zipf = match cfg.dist {
        KeyDist::Zipfian { theta } => Some(Zipfian::new(cfg.keys.max(2), theta)),
        KeyDist::Uniform => None,
    };
    // the post-shift sampler (precomputed once; zetan is O(keys))
    let zipf_shifted = cfg
        .theta_shift
        .map(|s| Zipfian::new(cfg.keys.max(2), s.theta));
    let shift_at = cfg
        .theta_shift
        .map(|s| (s.at_frac.clamp(0.0, 1.0) * cfg.ops_per_worker as f64) as usize);
    let m = cfg.mix.op_mix();
    let (read_f, update_f, insert_f, scan_f) = (m.read, m.update, m.insert, m.scan);
    // scan lengths are themselves zipfian (YCSB-E: mostly-short scans
    // with an occasional window-wide sweep)
    let scan_len = (scan_f > 0.0).then(|| Zipfian::new(MAX_SCAN_LEN, 0.99));
    let recorders: Mutex<Vec<ThreadRecorder>> = Mutex::new(Vec::new());
    let completed = AtomicU64::new(0);
    let next_key = AtomicU64::new(cfg.keys as u64);
    let reads = AtomicU64::new(0);
    let updates = AtomicU64::new(0);
    let inserts = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    let rmws = AtomicU64::new(0);
    let not_found = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let total_ops = (cfg.workers * cfg.ops_per_worker) as u64;

    // drop counters accumulated during the load phase so windows report
    // the serving phase only, and restart adaptation measurement so the
    // samplers see the serving stream, not the loader's
    store.take_stats();
    store.reset_samplers();

    let start = Instant::now();
    let mut windows = Vec::with_capacity(cfg.windows + 1);
    std::thread::scope(|scope| {
        for w in 0..cfg.workers {
            // shared read-only tables — not per-worker clones
            let zipf = &zipf;
            let zipf_shifted = &zipf_shifted;
            let scan_len = &scan_len;
            let (completed, next_key) = (&completed, &next_key);
            let (reads, updates, inserts) = (&reads, &updates, &inserts);
            let (scans, rmws) = (&scans, &rmws);
            let (not_found, rejected) = (&not_found, &rejected);
            let recorders = &recorders;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(
                    cfg.seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                );
                let clock = MonoClock::new();
                let mut rec = cfg
                    .latency
                    .then(|| ThreadRecorder::new(w as u32, &TelemetryConfig::default()));
                // group-commit buffer (batch > 1): writes park here and
                // land together via put_many as one FASE per shard
                let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
                let flush = |pending: &mut Vec<(u64, Vec<u8>)>,
                             rec: &mut Option<ThreadRecorder>| {
                    if pending.is_empty() {
                        return;
                    }
                    if !timed(rec, &clock, SpanId::KvPutMany, || store.put_many(pending)) {
                        rejected.fetch_add(pending.len() as u64, Ordering::Relaxed);
                    }
                    completed.fetch_add(pending.len() as u64, Ordering::Relaxed);
                    pending.clear();
                };
                for i in 0..cfg.ops_per_worker {
                    // after the phase shift, key popularity follows the
                    // shifted zipfian (every worker shifts at the same
                    // local op index: deterministic per worker)
                    let sampler = match (&zipf_shifted, shift_at) {
                        (Some(z2), Some(at)) if i >= at => Some(z2),
                        _ => zipf.as_ref(),
                    };
                    let key = match sampler {
                        Some(z) => z.rank(rng.gen::<f64>()),
                        None => rng.gen_range(0..cfg.keys as u64),
                    };
                    let r = rng.gen::<f64>();
                    if r < read_f {
                        reads.fetch_add(1, Ordering::Relaxed);
                        if timed(&mut rec, &clock, SpanId::KvGet, || store.get(key)).is_none() {
                            not_found.fetch_add(1, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if r >= read_f + update_f + insert_f {
                        if r < read_f + update_f + insert_f + scan_f {
                            // range scan from the sampled key (mix E)
                            scans.fetch_add(1, Ordering::Relaxed);
                            let len = scan_len
                                .as_ref()
                                .map_or(1, |z| z.rank(rng.gen::<f64>()) + 1)
                                as usize;
                            let hi = key.saturating_add(len as u64 - 1);
                            let got = timed(&mut rec, &clock, SpanId::KvScan, || {
                                store.scan(key, hi, len)
                            });
                            if got.is_empty() {
                                not_found.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            // read-modify-write (mix F): reread the
                            // current value, then write a successor
                            // version; the composite is charged to the
                            // put histogram as one sample
                            rmws.fetch_add(1, Ordering::Relaxed);
                            let v = value_bytes(key, i as u64 + 1, cfg.value_len);
                            let ok = timed(&mut rec, &clock, SpanId::KvPut, || {
                                if store.get(key).is_none() {
                                    not_found.fetch_add(1, Ordering::Relaxed);
                                }
                                store.put(key, &v)
                            });
                            if !ok {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let (k, v) = if r < read_f + update_f {
                        updates.fetch_add(1, Ordering::Relaxed);
                        (key, value_bytes(key, i as u64 + 1, cfg.value_len))
                    } else {
                        inserts.fetch_add(1, Ordering::Relaxed);
                        let k = next_key.fetch_add(1, Ordering::Relaxed);
                        (k, value_bytes(k, 0, cfg.value_len))
                    };
                    if cfg.batch > 1 {
                        pending.push((k, v));
                        if pending.len() >= cfg.batch {
                            flush(&mut pending, &mut rec);
                        }
                    } else {
                        if !timed(&mut rec, &clock, SpanId::KvPut, || store.put(k, &v)) {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                flush(&mut pending, &mut rec);
                if let Some(r) = rec {
                    recorders.lock().unwrap_or_else(|e| e.into_inner()).push(r);
                }
            });
        }
        // live window scraping while the workers serve
        let mut next_window = 1u64;
        while completed.load(Ordering::Relaxed) < total_ops {
            let done = completed.load(Ordering::Relaxed);
            if cfg.windows > 0 && done * cfg.windows as u64 >= next_window * total_ops {
                windows.push(WindowStats {
                    ops: done,
                    stats: store.take_stats(),
                });
                next_window += 1;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    // close the final window
    let tail = store.take_stats();
    if tail != FaseStats::default() || windows.is_empty() {
        windows.push(WindowStats {
            ops: total_ops,
            stats: tail,
        });
    }
    // merge worker latency shards in tid order (the snapshot
    // determinism contract; arrival order here is scheduling-dependent)
    let latency = cfg.latency.then(|| {
        let mut shards = recorders.into_inner().unwrap_or_else(|e| e.into_inner());
        shards.sort_by_key(|r| r.tid());
        TelemetrySnapshot::from_threads(shards)
    });
    YcsbReport {
        ops: total_ops,
        reads: reads.into_inner(),
        updates: updates.into_inner(),
        inserts: inserts.into_inner(),
        scans: scans.into_inner(),
        rmws: rmws.into_inner(),
        not_found: not_found.into_inner(),
        rejected: rejected.into_inner(),
        elapsed_secs: elapsed,
        throughput_ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        windows,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use crate::store::KvConfig;
    use nvcache_core::PolicyKind;

    fn small_store(shards: usize) -> KvStore {
        KvStore::new(&KvConfig {
            shards,
            shard: ShardConfig {
                buckets: 128,
                data_len: 1 << 19,
                log_len: 1 << 15,
                policy: PolicyKind::ScFixed { capacity: 8 },
                adapt: None,
                pipelined: false,
            },
        })
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            counts[z.rank(rng.gen::<f64>()) as usize] += 1;
        }
        let head: u64 = counts[..10].iter().sum();
        assert!(
            head > 15_000,
            "top-10 ranks should draw >30% of a theta=0.99 stream, got {head}"
        );
        assert!(counts[0] > counts[500], "rank 0 beats the tail");
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        for m in [Mix::A, Mix::B, Mix::C, Mix::D] {
            let (r, u, i) = m.fractions();
            assert!((r + u + i - 1.0).abs() < 1e-12, "mix {}", m.label());
        }
        for m in [Mix::A, Mix::B, Mix::C, Mix::D, Mix::E, Mix::F] {
            let om = m.op_mix();
            let sum = om.read + om.update + om.insert + om.scan + om.rmw;
            assert!((sum - 1.0).abs() < 1e-12, "op_mix {}", m.label());
        }
    }

    /// Regression for coordinated omission: latency must be charged
    /// from the op's *intended* (scheduled) arrival, so a server stall
    /// inflates the tail of the fixed accounting while the buggy
    /// from-submit accounting hides it — and throughput (one and the
    /// same execution) is identical under both.
    #[test]
    fn open_loop_stall_shifts_p999_not_throughput() {
        use nvcache_telemetry::{Clock, FakeClock, Histogram};

        let period_ns = 1_000u64; // one op intended every µs
        let service_ns = 400u64; // store serves in 0.4 µs
        let stall_ns = 2_000_000u64; // a 2 ms server stall
        let ops = 4_000u64;
        let stall_at = 500u64;

        // deterministic simulation of the worker loop: FakeClock time
        // passes only when we advance it (waiting or being served)
        let clock = FakeClock::new(0, 0);
        let mut fixed = Histogram::new(); // from intended arrival
        let mut buggy = Histogram::new(); // from actual submit
        for i in 0..ops {
            let intended = i * period_ns;
            let now = clock.now_ns();
            if now < intended {
                clock.advance(intended - now); // pacing wait
            }
            if i == stall_at {
                clock.advance(stall_ns); // the deliberate stall
            }
            let submit = clock.now_ns();
            clock.advance(service_ns); // the op itself
            let done = clock.now_ns();
            fixed.observe(scheduled_latency_ns(intended, done));
            buggy.observe(done - submit);
        }
        let end_ns = clock.now_ns();

        // same execution ⇒ same throughput either way
        let throughput = ops as f64 / (end_ns as f64 / 1e9);
        assert!(throughput > 0.0);

        let (_, _, fixed_p999) = fixed.percentiles();
        let (_, _, buggy_p999) = buggy.percentiles();
        // the buggy accounting sees every op at ~service time, hiding
        // the stall entirely except for one sample out of 4000 (below
        // p999 resolution); the fixed accounting charges the backlog
        // to every op scheduled during the stall's drain
        assert!(
            buggy_p999 < 10 * service_ns,
            "from-submit accounting should hide the stall, p999 = {buggy_p999}"
        );
        assert!(
            fixed_p999 >= stall_ns / 2,
            "from-intended accounting must surface the stall in p999, \
             got {fixed_p999} vs stall {stall_ns}"
        );
        assert_eq!(
            fixed.count, buggy.count,
            "both accountings observed every op (throughput unchanged)"
        );
    }

    #[test]
    fn value_bytes_deterministic_and_sized() {
        assert_eq!(value_bytes(5, 1, 56), value_bytes(5, 1, 56));
        assert_ne!(value_bytes(5, 1, 56), value_bytes(5, 2, 56));
        assert_eq!(value_bytes(9, 0, 13).len(), 13);
        assert_eq!(value_bytes(9, 0, 0).len(), 0);
    }

    #[test]
    fn closed_loop_run_counts_reconcile() {
        let store = small_store(4);
        assert_eq!(load(&store, 500, 32), 500);
        let cfg = YcsbConfig {
            keys: 500,
            ops_per_worker: 1000,
            workers: 4,
            mix: Mix::A,
            value_len: 32,
            windows: 4,
            ..Default::default()
        };
        let loaded_stores = store.stats().stores;
        let rep = run(&store, &cfg);
        assert_eq!(rep.ops, 4000);
        assert_eq!(rep.reads + rep.updates + rep.inserts, 4000);
        assert_eq!(rep.not_found, 0, "all read keys were loaded");
        assert_eq!(rep.rejected, 0);
        assert!(rep.throughput_ops_per_sec > 0.0);
        assert!(!rep.windows.is_empty());
        let win_stores: u64 = rep.windows.iter().map(|w| w.stats.stores).sum();
        assert_eq!(
            win_stores,
            store.stats().stores - loaded_stores,
            "windows cover exactly the serving phase (load excluded)"
        );
        // mix A updated roughly half the ops; every update is one FASE
        assert!(rep.updates > 1500 && rep.updates < 2500, "{}", rep.updates);
    }

    #[test]
    fn mix_c_is_read_only() {
        let store = small_store(2);
        load(&store, 200, 16);
        let before = store.stats();
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 200,
                ops_per_worker: 500,
                workers: 2,
                mix: Mix::C,
                value_len: 16,
                ..Default::default()
            },
        );
        assert_eq!(rep.updates + rep.inserts, 0);
        assert_eq!(store.stats().stores, before.stores, "no persistent writes");
    }

    #[test]
    fn mix_d_inserts_fresh_keys() {
        let store = small_store(2);
        load(&store, 300, 16);
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 300,
                ops_per_worker: 800,
                workers: 2,
                mix: Mix::D,
                value_len: 16,
                seed: 9,
                ..Default::default()
            },
        );
        assert!(rep.inserts > 0);
        assert_eq!(store.len(), 300 + rep.inserts as usize);
    }

    #[test]
    fn mix_e_scans_with_zipfian_lengths() {
        use nvcache_telemetry::HistId;
        let store = small_store(2);
        load(&store, 300, 16);
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 300,
                ops_per_worker: 400,
                workers: 2,
                mix: Mix::E,
                value_len: 16,
                seed: 11,
                windows: 0,
                latency: true,
                ..Default::default()
            },
        );
        assert_eq!(rep.ops, 800);
        assert_eq!(rep.reads + rep.updates + rep.rmws, 0);
        assert_eq!(rep.scans + rep.inserts, 800);
        assert!(rep.scans > 700, "~95% scans, got {}", rep.scans);
        assert!(rep.inserts > 0, "~5% inserts");
        assert_eq!(
            rep.not_found, 0,
            "every scan starts at a loaded key: none comes back empty"
        );
        let snap = rep.latency.unwrap();
        assert_eq!(snap.hist(HistId::KvScanNs).count, rep.scans);
    }

    #[test]
    fn mix_f_read_modify_writes() {
        let store = small_store(2);
        load(&store, 300, 16);
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 300,
                ops_per_worker: 400,
                workers: 2,
                mix: Mix::F,
                value_len: 16,
                seed: 13,
                windows: 0,
                ..Default::default()
            },
        );
        assert_eq!(rep.reads + rep.rmws, 800);
        assert!(rep.rmws > 300 && rep.rmws < 500, "~half rmw: {}", rep.rmws);
        assert_eq!(rep.not_found, 0, "rmw rereads always hit loaded keys");
        assert_eq!(store.len(), 300, "rmw rewrites in place, no growth");
        assert!(store.stats().stores > 0, "rmws persisted new versions");
    }

    #[test]
    fn latency_recording_spans_every_op() {
        use nvcache_telemetry::HistId;
        let store = small_store(2);
        load(&store, 200, 24);
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 200,
                ops_per_worker: 400,
                workers: 2,
                mix: Mix::A,
                value_len: 24,
                windows: 0,
                latency: true,
                ..Default::default()
            },
        );
        let snap = rep.latency.expect("latency snapshot requested");
        assert_eq!(snap.threads, 2, "one shard per worker");
        assert_eq!(snap.hist(HistId::KvGetNs).count, rep.reads);
        assert_eq!(
            snap.hist(HistId::KvPutNs).count,
            rep.updates + rep.inserts,
            "batch=1: every write is one put span"
        );
        assert!(snap.hist(HistId::KvPutManyNs).is_empty());
        let (p50, p99, p999) = snap.hist(HistId::KvGetNs).percentiles();
        assert!(p50 <= p99 && p99 <= p999);
    }

    #[test]
    fn batched_runs_record_put_many_spans() {
        use nvcache_telemetry::HistId;
        let store = small_store(2);
        load(&store, 200, 24);
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 200,
                ops_per_worker: 400,
                workers: 1,
                mix: Mix::A,
                value_len: 24,
                batch: 32,
                windows: 0,
                latency: true,
                ..Default::default()
            },
        );
        let snap = rep.latency.unwrap();
        assert!(snap.hist(HistId::KvPutManyNs).count > 0);
        assert!(snap.hist(HistId::KvPutNs).is_empty(), "writes all batched");
    }

    #[test]
    fn latency_off_reports_none() {
        let store = small_store(2);
        load(&store, 100, 16);
        let rep = run(
            &store,
            &YcsbConfig {
                keys: 100,
                ops_per_worker: 100,
                workers: 1,
                value_len: 16,
                windows: 0,
                ..Default::default()
            },
        );
        assert!(rep.latency.is_none());
    }

    #[test]
    fn theta_shift_is_deterministic_and_changes_the_stream() {
        let mk = |shift: Option<ThetaShift>| {
            let store = small_store(2);
            load(&store, 400, 24);
            run(
                &store,
                &YcsbConfig {
                    keys: 400,
                    ops_per_worker: 600,
                    workers: 1,
                    mix: Mix::A,
                    value_len: 24,
                    seed: 77,
                    windows: 0,
                    theta_shift: shift,
                    ..Default::default()
                },
            );
            store.dump()
        };
        let shift = Some(ThetaShift {
            at_frac: 0.5,
            theta: 0.2,
        });
        assert_eq!(mk(shift), mk(shift), "shifted runs stay reproducible");
        assert_ne!(
            mk(shift),
            mk(None),
            "the shift must actually change the key stream"
        );
    }

    /// The same loadgen drives the concurrent server: counts reconcile
    /// over both lane paths (caller-run and queued) under 4 closed-loop
    /// clients, and nothing is stranded.
    #[test]
    fn run_drives_the_concurrent_server() {
        use crate::server::{KvServer, ServerConfig};
        use crate::shard::ShardConfig;
        use crate::store::KvConfig;
        use nvcache_core::PolicyKind;
        let server = KvServer::new(
            &KvConfig {
                shards: 2,
                shard: ShardConfig {
                    buckets: 128,
                    data_len: 1 << 19,
                    log_len: 1 << 15,
                    policy: PolicyKind::ScFixed { capacity: 8 },
                    adapt: None,
                    pipelined: true,
                },
            },
            &ServerConfig::default(),
        );
        assert_eq!(load(&server, 400, 24), 400);
        let rep = run(
            &server,
            &YcsbConfig {
                keys: 400,
                ops_per_worker: 800,
                workers: 4,
                mix: Mix::A,
                value_len: 24,
                windows: 2,
                ..Default::default()
            },
        );
        assert_eq!(rep.ops, 3200);
        assert_eq!(rep.not_found, 0);
        assert_eq!(rep.rejected, 0);
        assert!(!rep.windows.is_empty());
        let qs = server.queue_stats();
        assert_eq!(qs.enqueued, qs.drained, "no request stranded");
        // load (400) + serving ops all went through the lanes
        assert!(qs.drained >= 3200);
        assert_eq!(server.healed_panics(), 0);
        server.shutdown();
    }

    #[test]
    fn deterministic_per_worker_streams() {
        // same seed, same single worker → identical end state
        let mk = || {
            let store = small_store(2);
            load(&store, 200, 24);
            run(
                &store,
                &YcsbConfig {
                    keys: 200,
                    ops_per_worker: 600,
                    workers: 1,
                    mix: Mix::A,
                    value_len: 24,
                    seed: 1234,
                    windows: 0,
                    ..Default::default()
                },
            );
            store.dump()
        };
        assert_eq!(mk(), mk());
    }
}
