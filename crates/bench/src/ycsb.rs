//! YCSB-style load generation for the KV store, and the one key, op and
//! value core the harness's two load generators share: closed loop here
//! ([`run`], over any [`KvTarget`]), open loop over the wire in
//! [`crate::netload`].
//!
//! The core is one stream per worker or connection: a SplitMix64
//! generator seeded by one rule, a key drawn from a zipfian table shared
//! by every stream of a run (plus an optional per-connection key base),
//! then an op drawn from the [`Mix`]. Values carry their key and version
//! in their first 16 bytes, which the open loop's ack audit reads back.
//!
//! The closed loop mirrors the paper's memcached evaluation shape: a
//! long-running store serving a skewed key-popularity stream while each
//! shard's adaptive policy samples its store lines and resizes its
//! software cache. The main thread scrapes per-window [`FaseStats`]
//! deltas from the shards *while they serve*, yielding the per-window
//! flush ratios `repro kv-bench` reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nvcache_fase::FaseStats;
use nvcache_kvstore::{Engine, KvServer, KvStore};
use nvcache_telemetry::{
    MonoClock, Recorder, SpanId, TelemetryConfig, TelemetrySnapshot, ThreadRecorder,
};

/// Anything the closed loop can drive: the embedded [`KvStore`] (an
/// idle lane runs the shard on the caller's thread with borrowed
/// arguments) or the concurrent [`KvServer`] through its client (an
/// idle lane serves the caller's request on its thread, a busy one
/// queues requests into cross-client group commits).
/// Data ops are issued from the worker threads; the stats pair is
/// scraped from the main thread while the run serves.
pub trait KvTarget: Sync {
    /// Look up `key`.
    fn get(&self, key: u64) -> Option<Vec<u8>>;
    /// Insert or update `key → value`.
    fn put(&self, key: u64, value: &[u8]) -> bool;
    /// Apply a write batch (one FASE per involved shard).
    fn put_many(&self, items: &[(u64, Vec<u8>)]) -> bool;
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
    fn take_stats(&self) -> FaseStats {
        KvServer::take_stats(self)
    }
    fn reset_samplers(&self) {
        KvServer::reset_samplers(self)
    }
}

/// The YCSB core mixes the harness runs: point reads and in-place
/// updates of loaded keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% reads / 50% updates (update-heavy).
    A,
    /// 95% reads / 5% updates (read-mostly).
    B,
    /// 100% reads.
    C,
}

impl Mix {
    /// Fraction of ops that read; the rest update.
    fn read_frac(self) -> f64 {
        match self {
            Mix::A => 0.50,
            Mix::B => 0.95,
            Mix::C => 1.0,
        }
    }

    /// YCSB letter.
    pub fn label(&self) -> &'static str {
        match self {
            Mix::A => "A",
            Mix::B => "B",
            Mix::C => "C",
        }
    }
}

/// The `rand` shim's `SmallRng` step (SplitMix64), bit for bit, so the
/// harness draws the streams it always drew without a `rand` dependency.
#[derive(Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2^-53.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Precomputed zipfian sampler (Gray et al., the YCSB generator): rank
/// `k` is drawn with probability ∝ `1/(k+1)^theta`. Hot ranks are the
/// low ids; the store's routing hash scatters them over shards. The
/// `zetan` normalizer is an O(n) sum, so one table is built per run and
/// shared by reference across every worker or connection.
#[derive(Debug)]
pub(crate) struct Zipfian {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Sampler over ranks `0..n`.
    pub(crate) fn new(n: usize, theta: f64) -> Self {
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
    fn rank(&self, u: f64) -> u64 {
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

/// One worker's or connection's request stream: the key draw, then the
/// op draw, from its own generator.
pub(crate) struct Stream {
    rng: SplitMix,
    read_frac: f64,
    /// Added to every drawn rank (disjoint per-connection key ranges).
    base: u64,
}

impl Stream {
    /// Stream `w` of base seed `seed`: every worker and connection
    /// seeds by this one rule, so runs reproduce per worker regardless
    /// of interleaving.
    pub(crate) fn new(seed: u64, w: usize, mix: Mix, base: u64) -> Self {
        Stream {
            rng: SplitMix(seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f)),
            read_frac: mix.read_frac(),
            base,
        }
    }

    /// The next `(key, is_read)`, the key drawn from `keys`.
    pub(crate) fn next(&mut self, keys: &Zipfian) -> (u64, bool) {
        let key = self.base + keys.rank(self.rng.next_f64());
        (key, self.rng.next_f64() < self.read_frac)
    }
}

/// A single mid-run change of the zipfian skew: the minimal workload
/// phase shift the adaptation-convergence checker needs. After
/// `at_frac` of each worker's ops, key popularity switches to a
/// zipfian with the new `theta`, moving the working-set knee so the
/// controller must re-find it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaShift {
    /// Fraction of each worker's ops after which the shift happens
    /// (clamped into `[0, 1]`).
    pub at_frac: f64,
    /// Post-shift zipfian theta (must satisfy `0 < theta < 1`).
    pub theta: f64,
}

/// Shape of one closed-loop run.
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
    /// Zipfian skew of key popularity (YCSB default 0.99).
    pub theta: f64,
    /// Value bytes (fixed length keeps updates on the one-FASE slot
    /// path, where they log nothing).
    pub value_len: usize,
    /// Base seed; worker `w` derives its own deterministic stream.
    pub seed: u64,
    /// Writes per group-commit transaction: `1` issues each write as
    /// its own FASE; `> 1` buffers writes and applies them with
    /// [`KvTarget::put_many`] (one FASE per involved shard). Batching is
    /// what gives write FASEs intra-FASE locality for the software
    /// cache — single-write FASEs have none, by construction.
    pub batch: usize,
    /// Stat windows sampled live during the run.
    pub windows: usize,
    /// Optional single mid-run zipfian skew change (workload phase
    /// shift for convergence measurement).
    pub theta_shift: Option<ThetaShift>,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            keys: 10_000,
            ops_per_worker: 25_000,
            workers: 4,
            mix: Mix::A,
            theta: 0.99,
            value_len: 56,
            seed: 42,
            batch: 1,
            windows: 8,
            theta_shift: None,
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
    /// Reads that found no value.
    pub not_found: u64,
    /// Updates refused by a full shard heap.
    pub rejected: u64,
    /// Timed-run wall seconds.
    pub elapsed_secs: f64,
    /// `ops / elapsed`.
    pub throughput_ops_per_sec: f64,
    /// Live per-window stats (flush ratio per window via
    /// [`FaseStats::flush_ratio`]).
    pub windows: Vec<WindowStats>,
    /// Per-op latency (`kv_get_ns` / `kv_put_ns` / `kv_put_many_ns`),
    /// worker shards merged in tid order.
    pub latency: TelemetrySnapshot,
}

/// A versioned value of `len` bytes: `[key u64 LE][version u64 LE]`,
/// then a fill derived from both, so the durability audit can read the
/// stored version straight back (the header is cut short when
/// `len < 16`).
pub(crate) fn versioned_value(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(16));
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut z = key ^ version.rotate_left(23) ^ 0x9e37_79b9;
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
        .filter(|&k| target.put(k, &versioned_value(k, 0, value_len)))
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
pub(crate) fn scheduled_latency_ns(intended_ns: u64, completed_ns: u64) -> u64 {
    completed_ns.saturating_sub(intended_ns)
}

/// Run `f` under a latency span (the guard reads the clock twice).
#[inline]
fn timed<T>(rec: &mut ThreadRecorder, clock: &MonoClock, id: SpanId, f: impl FnOnce() -> T) -> T {
    let _g = rec.span(clock, id);
    f()
}

/// Run the timed phase of `cfg` against `store` (already loaded) — any
/// [`KvTarget`]: the same loadgen drives the direct store and the
/// concurrent server, so their measurements differ only in the serving
/// path.
///
/// Closed loop: every worker issues as fast as the store serves, from
/// its own stream.
pub fn run<T: KvTarget>(store: &T, cfg: &YcsbConfig) -> YcsbReport {
    assert!(cfg.workers >= 1 && cfg.ops_per_worker >= 1);
    let zipf = Zipfian::new(cfg.keys.max(2), cfg.theta);
    // the post-shift sampler and the local op index it takes over at
    let shifted = cfg.theta_shift.map(|s| {
        let at = (s.at_frac.clamp(0.0, 1.0) * cfg.ops_per_worker as f64) as usize;
        (at, Zipfian::new(cfg.keys.max(2), s.theta))
    });
    let recorders: Mutex<Vec<ThreadRecorder>> = Mutex::new(Vec::new());
    let completed = AtomicU64::new(0);
    let [reads, updates, not_found, rejected] = [(); 4].map(|_| AtomicU64::new(0));
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
            let (zipf, shifted, recorders) = (&zipf, &shifted, &recorders);
            let (completed, reads, updates) = (&completed, &reads, &updates);
            let (not_found, rejected) = (&not_found, &rejected);
            scope.spawn(move || {
                let mut stream = Stream::new(cfg.seed, w, cfg.mix, 0);
                let clock = MonoClock::new();
                let mut rec = ThreadRecorder::new(w as u32, &TelemetryConfig::default());
                // group-commit buffer (batch > 1): writes park here and
                // land together via put_many as one FASE per shard
                let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
                let flush = |pending: &mut Vec<(u64, Vec<u8>)>, rec: &mut ThreadRecorder| {
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
                    // every worker shifts at the same local op index
                    let keys = match shifted {
                        Some((at, z)) if i >= *at => z,
                        _ => zipf,
                    };
                    let (key, read) = stream.next(keys);
                    if read {
                        reads.fetch_add(1, Ordering::Relaxed);
                        if timed(&mut rec, &clock, SpanId::KvGet, || store.get(key)).is_none() {
                            not_found.fetch_add(1, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    updates.fetch_add(1, Ordering::Relaxed);
                    let v = versioned_value(key, i as u64 + 1, cfg.value_len);
                    if cfg.batch > 1 {
                        pending.push((key, v));
                        if pending.len() >= cfg.batch {
                            flush(&mut pending, &mut rec);
                        }
                    } else {
                        if !timed(&mut rec, &clock, SpanId::KvPut, || store.put(key, &v)) {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                flush(&mut pending, &mut rec);
                recorders
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(rec);
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
    let mut shards = recorders.into_inner().unwrap_or_else(|e| e.into_inner());
    shards.sort_by_key(|r| r.tid());
    YcsbReport {
        ops: total_ops,
        reads: reads.into_inner(),
        updates: updates.into_inner(),
        not_found: not_found.into_inner(),
        rejected: rejected.into_inner(),
        elapsed_secs: elapsed,
        throughput_ops_per_sec: total_ops as f64 / elapsed.max(1e-9),
        windows,
        latency: TelemetrySnapshot::from_threads(shards),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::PolicyKind;
    use nvcache_kvstore::{KvConfig, ShardConfig};

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

    /// The harness's generator is the `rand` shim's `SmallRng`, draw for
    /// draw: the raw `u64`, the `f64` draw, and `gen_range` (which is
    /// the next `u64` modulo the span) — so the streams the harness drew
    /// through `rand` are the streams it draws now.
    #[test]
    fn splitmix_is_the_rand_shims_small_rng() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        for seed in [0, 42, 0xa076_1d64_78bd_642f] {
            let (mut ours, mut theirs) = (SplitMix(seed), SmallRng::seed_from_u64(seed));
            for i in 0..1_000u64 {
                assert_eq!(ours.next_u64(), theirs.next_u64(), "seed {seed} draw {i}");
                assert_eq!(ours.next_f64(), theirs.gen::<f64>(), "seed {seed} draw {i}");
                let span = i + 1;
                assert_eq!(ours.next_u64() % span, theirs.gen_range(0..span));
            }
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SplitMix(7);
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            counts[z.rank(rng.next_f64()) as usize] += 1;
        }
        let head: u64 = counts[..10].iter().sum();
        assert!(
            head > 15_000,
            "top-10 ranks should draw >30% of a theta=0.99 stream, got {head}"
        );
        assert!(counts[0] > counts[500], "rank 0 beats the tail");
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
        assert_eq!(versioned_value(5, 1, 56), versioned_value(5, 1, 56));
        assert_ne!(versioned_value(5, 1, 56), versioned_value(5, 2, 56));
        assert_eq!(versioned_value(9, 0, 13).len(), 13);
        assert_eq!(versioned_value(9, 0, 0).len(), 0);
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
        assert_eq!(rep.reads + rep.updates, 4000);
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
        assert_eq!(rep.updates, 0);
        assert_eq!(store.stats().stores, before.stores, "no persistent writes");
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
                ..Default::default()
            },
        );
        let snap = rep.latency;
        assert_eq!(snap.threads, 2, "one shard per worker");
        assert_eq!(snap.hist(HistId::KvGetNs).count, rep.reads);
        assert_eq!(
            snap.hist(HistId::KvPutNs).count,
            rep.updates,
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
                ..Default::default()
            },
        );
        let snap = rep.latency;
        assert!(snap.hist(HistId::KvPutManyNs).count > 0);
        assert!(snap.hist(HistId::KvPutNs).is_empty(), "writes all batched");
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
        use nvcache_kvstore::ServerConfig;
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
