//! The six workloads. Each follows the same protocol (README,
//! "Measurement protocol"): set up from the seed, one untimed
//! warm-up/verify repeat, then timed repeats on freshly built state fed
//! the identical input — so every count must repeat exactly where one
//! thread drives the program, and every slice of the input is timed once
//! per repeat and counted at its fastest ([`quiet_rate`]).

pub mod hash;
pub mod replay;
pub mod tree;

use std::path::PathBuf;
use std::time::Instant;

use crate::hist::Hist;
use crate::stats::Stat;

/// What one `run` invocation asked for.
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the timed repeats should take in total on the reference
    /// host; every op count scales with it.
    pub seconds: f64,
    /// `--smoke`: two timed repeats instead of the workload's own count.
    pub smoke: bool,
    /// Traced run: spans, ladder and per-layer metrics.
    pub trace: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `base` ops (sized for a 10-second run) scaled to `--seconds`.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.seconds / 10.0) as usize).max(64)
    }

    /// Timed repeats of a workload whose full run makes `full`: 2 under
    /// `--smoke`; 3 in a traced run, whose time goes to the ladder.
    pub fn repeats(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else if self.trace {
            3
        } else {
            full
        }
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Outputs verified, counts repeated, nothing acked was lost.
    pub correct: bool,
    /// Operations (or replay invariants) attempted.
    pub attempted: u64,
    /// Of those, rejected, wrong, unanswered or violated.
    pub failed: u64,
    /// End-to-end metrics measured (untraced repeats).
    pub e2e: Vec<(&'static str, Stat)>,
    /// Per-layer metrics measured (traced run only).
    pub layer: Vec<(&'static str, Stat)>,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            correct: true,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layer: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    fn e2e(&mut self, name: &'static str, s: Stat) {
        // a name BENCHMARK.json does not list would drop out of every report
        let r = crate::metrics::registry();
        assert!(r.end_to_end().any(|m| m.name == name), "{name}");
        self.e2e.push((name, s));
    }

    fn layer(&mut self, name: &'static str, s: Stat) {
        let r = crate::metrics::registry();
        assert!(r.per_layer.iter().any(|m| m.name == name), "{name}");
        self.layer.push((name, s));
    }

    /// Settle `failed_frac` and `correct` once every repeat is in.
    fn finish(mut self) -> Outcome {
        self.attempted = self.attempted.max(1);
        if self.failed > 0 {
            self.problem(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        let frac = self.failed as f64 / self.attempted as f64;
        self.e2e("failed_frac", Stat::one(frac));
        self
    }
}

/// Run workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "replay_splash" => replay::run(replay::Which::Splash, ctx),
        "replay_mdb" => replay::run(replay::Which::Mdb, ctx),
        "embed_hash_a" => hash::run_embedded(ctx),
        "serve_hash_a" => hash::run_served(ctx),
        "embed_tree_f" => tree::run(tree::Mix::F, ctx),
        "embed_tree_e" => tree::run(tree::Mix::E, ctx),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// Set-ups timed per run: as many as fit the budget, up to the
/// maximum. The fastest is reported, with the quartiles of all beside
/// it — set-up is one long call that cannot be sliced, and the host's
/// interference only ever adds to it (the median of 5 moved 14–26 %
/// between identical runs, the fastest of 9 moved 6 %). The more
/// samples and the longer they take together, the likelier one meets a
/// quiet stretch of the host: `replay_mdb`'s 0.4-second trace recording
/// fits ten, and is the set-up that moves most (README).
const SETUP_SAMPLES: usize = 25;
const SETUP_BUDGET_S: f64 = 4.0;

/// Build the workload's state several times, timing each; returns the
/// last build and the set-up time statistic. A traced run sets up once.
fn timed_setup<T>(ctx: &Ctx, mut build: impl FnMut() -> T) -> (T, Stat) {
    let mut samples = Vec::new();
    let began = Instant::now();
    loop {
        let t = Instant::now();
        let built = build();
        samples.push(t.elapsed().as_secs_f64());
        let enough = ctx.trace
            || samples.len() >= SETUP_SAMPLES
            || began.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        if enough {
            return (built, Stat::lowest(&samples));
        }
    }
}

/// Nanoseconds per iteration of `f`, as the fastest of `rounds` timed
/// rounds of `iters` iterations each (bare-component measurements).
fn ns_per_iter(rounds: usize, iters: usize, mut f: impl FnMut(usize)) -> Stat {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    Stat::lowest(&samples)
}

/// Slices a timed pass is cut into (≈ 7 ms each at a 10-second run).
pub const SLICES: u64 = 200;

/// Wall-clock marks of one timed pass, one every `every` logical ops.
/// Every repeat executes the identical op stream, so slice `i` is the
/// same work in every repeat and can be compared across them
/// ([`quiet_rate`]). Preallocated: `tick` never allocates.
pub struct Marks {
    every: u64,
    next: u64,
    last_ns: u64,
    slice_ns: Vec<u64>,
}

impl Marks {
    /// Marks for passes of `ops` logical ops each.
    pub fn new(ops: u64) -> Marks {
        Marks {
            every: (ops / SLICES).max(1),
            next: 0,
            last_ns: 0,
            slice_ns: Vec::with_capacity(SLICES as usize + 2),
        }
    }

    /// Start a pass at `now_ns`.
    pub fn start(&mut self, now_ns: u64) {
        self.next = self.every;
        self.last_ns = now_ns;
        self.slice_ns.clear();
    }

    /// `ops_done` logical ops have completed by `now_ns`.
    #[inline]
    pub fn tick(&mut self, ops_done: u64, now_ns: u64) {
        if ops_done >= self.next {
            self.close(now_ns);
            // one call may complete more than a slice's worth of ops
            self.next = (ops_done / self.every + 1) * self.every;
        }
    }

    fn close(&mut self, now_ns: u64) {
        if self.slice_ns.len() < self.slice_ns.capacity() {
            self.slice_ns.push(now_ns - self.last_ns);
            self.last_ns = now_ns;
        }
    }

    /// End the pass at `now_ns`: the nanoseconds each slice took.
    pub fn finish(&mut self, now_ns: u64) -> Vec<u64> {
        if now_ns > self.last_ns {
            self.close(now_ns);
        }
        self.slice_ns.clone()
    }
}

/// Throughput of `ops` logical ops with every slice counted at the
/// fastest of its executions: `ops / Σᵢ minᵣ ns[r][i]`.
///
/// The reference host is a shared VM whose speed drifts by 10–25 % over
/// seconds (other tenants on the core's caches and sibling thread), and
/// that interference only ever slows a slice down. The median of
/// whole-pass throughputs moved 8–20 % between identical runs; this
/// estimate moved ≈ 1 % (README, "Quiet-host estimators"). Every slice
/// of the stream is counted exactly once, so a stall the program causes
/// — it recurs in every repeat — stays in the figure.
///
/// For passes one thread drives: there slice `i` is the same work in
/// every pass ([`quiet_rate_past`] otherwise). The quartiles are those of
/// the whole passes' throughputs — what the host did to the run — so the
/// value lies above them.
pub fn quiet_rate(ops: u64, passes: &[Vec<u64>]) -> Stat {
    quiet_rate_past(0, ops, passes)
}

/// [`quiet_rate`] with every slice counted at its fastest execution but
/// `lucky`: for passes whose slices are the same amount of work but not
/// the same work (`serve_hash_a`, where two connections race), so that
/// the fastest execution of a slice is partly luck.
pub fn quiet_rate_past(lucky: usize, ops: u64, passes: &[Vec<u64>]) -> Stat {
    let slices = passes.iter().map(Vec::len).min().unwrap_or(0);
    assert!(slices > 0, "a timed pass has at least one slice");
    assert!(
        lucky < passes.len(),
        "a slice is counted at one of its executions"
    );
    let rate = |ns: u64| ops as f64 * 1e9 / ns.max(1) as f64;
    let quiet: u64 = (0..slices)
        .map(|i| {
            let mut ns: Vec<u64> = passes.iter().map(|p| p[i]).collect();
            *ns.select_nth_unstable(lucky).1
        })
        .sum();
    let whole: Vec<f64> = passes.iter().map(|p| rate(p.iter().sum())).collect();
    Stat {
        value: rate(quiet),
        ..Stat::of(&whole)
    }
}

/// `telemetry.trace_overhead_frac`: the share of throughput the spans
/// cost, slice by slice — one minus the median over slices of (median
/// untraced time of the slice / its time in the traced pass) — so a
/// slow stretch of the host during the single traced pass does not read
/// as tracing cost.
pub fn trace_overhead(untraced: &[Vec<u64>], traced: &[u64]) -> f64 {
    let ratios: Vec<f64> = traced
        .iter()
        .enumerate()
        .filter_map(|(i, &t)| {
            let same: Vec<f64> = untraced
                .iter()
                .filter_map(|p| p.get(i))
                .map(|&ns| ns as f64)
                .collect();
            (!same.is_empty() && t > 0).then(|| crate::stats::median(&same) / t as f64)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        1.0 - crate::stats::median(&ratios)
    }
}

/// Compare one repeat's counts with the first repeat's; on single-client
/// workloads any difference is a failure of the run.
fn expect_same<T: PartialEq + std::fmt::Debug>(
    out: &mut Outcome,
    what: &str,
    repeat: usize,
    first: &T,
    this: &T,
) {
    if first != this {
        out.problem(format!(
            "{what} differ between repeat 0 and repeat {repeat}: {first:?} vs {this:?}"
        ));
    }
}

/// Compare a post-crash dump with the model (`key → version`, values
/// recomputed): `(acked writes whose value the dump does not return,
/// pairs the dump should not hold)`.
fn audit_dump(
    dump: &[crate::adapter::Item],
    model: &std::collections::BTreeMap<u64, u32>,
) -> (u64, u64) {
    use crate::gen::value_of;
    let held: std::collections::BTreeMap<u64, &[u8]> =
        dump.iter().map(|(k, v)| (*k, v.as_slice())).collect();
    let lost = model
        .iter()
        .filter(|(k, v)| held.get(k).copied() != Some(&value_of(**k, **v)[..]))
        .count() as u64;
    let extra = held.keys().filter(|k| !model.contains_key(k)).count() as u64;
    (lost, extra)
}

/// Call classes the KV workloads time separately.
pub const GET: usize = 0;
/// A write call as issued (`put_many(128)`, 8-`Put` batch, one frame).
pub const WRITE: usize = 1;
/// A single-`Scan` batch.
pub const SCAN: usize = 2;

const P50_NAMES: [&str; 3] = ["get_p50_ns", "write_p50_ns", "scan_p50_ns"];
const P99_NAMES: [&str; 3] = ["get_p99_ns", "write_p99_ns", "scan_p99_ns"];

/// The latency of every call of one pass over the op stream, in
/// nanoseconds saturating at `u32::MAX` (4.3 s, which also marks a call
/// that never ran). Allocated once: `record` never allocates.
pub struct CallLat(Vec<u32>);

impl CallLat {
    /// A table for a stream of `calls` calls, none executed yet.
    pub fn new(calls: usize) -> CallLat {
        CallLat(vec![u32::MAX; calls])
    }

    /// Call `call` took `ns` in this pass.
    #[inline]
    pub fn record(&mut self, call: usize, ns: u64) {
        self.0[call] = ns.min(u32::MAX as u64) as u32;
    }

    /// Continue with another connection's calls after this one's.
    pub fn append(&mut self, other: &CallLat) {
        self.0.extend_from_slice(&other.0);
    }

    /// Histograms of the executed calls, one per class.
    pub fn by_class(&self, class_of: impl Fn(usize) -> usize) -> [Hist; 3] {
        let mut hists: [Hist; 3] = Default::default();
        for (call, &ns) in self.0.iter().enumerate() {
            if ns != u32::MAX {
                hists[class_of(call)].record(ns as u64);
            }
        }
        hists
    }
}

/// Every call of the op stream at the fastest of its executions over
/// the timed repeats — the calls are the same in every repeat, and the
/// host's interference only ever adds to one (README, "Quiet-host
/// estimators") — beside the percentiles of each single repeat, which
/// show what the host did to the run.
pub struct CallFloors {
    floor: CallLat,
    /// `[class][p50, p99]` of every folded repeat that had them.
    per_pass: [[Vec<f64>; 2]; 3],
}

impl CallFloors {
    /// Floors for a stream of `calls` calls, no repeat folded in yet.
    pub fn new(calls: usize) -> CallFloors {
        CallFloors {
            floor: CallLat::new(calls),
            per_pass: Default::default(),
        }
    }

    /// Take in one finished repeat (outside the timed region).
    pub fn fold(&mut self, pass: &CallLat, class_of: impl Fn(usize) -> usize) {
        for (floor, &ns) in self.floor.0.iter_mut().zip(&pass.0) {
            *floor = (*floor).min(ns);
        }
        for (seen, h) in self.per_pass.iter_mut().zip(pass.by_class(class_of)) {
            seen[0].extend(h.p50());
            seen[1].extend(h.p99());
        }
    }

    /// Report p50 of every class that saw calls and p99 of every class
    /// with ≥ 10 calls beyond it: the percentile of the floors, with the
    /// quartiles of the single repeats' percentiles.
    fn report(&self, out: &mut Outcome, class_of: impl Fn(usize) -> usize) {
        let floors = self.floor.by_class(class_of);
        for (c, (h, seen)) in floors.iter().zip(&self.per_pass).enumerate() {
            for (name, value, seen) in [
                (P50_NAMES[c], h.p50(), &seen[0]),
                (P99_NAMES[c], h.p99(), &seen[1]),
            ] {
                if let (Some(value), false) = (value, seen.is_empty()) {
                    out.e2e(
                        name,
                        Stat {
                            value,
                            ..Stat::of(seen)
                        },
                    );
                }
            }
        }
    }
}

/// The `fase.*` and `pmem.*` counts of one traced repeat.
fn persistence_layers(out: &mut Outcome, c: &crate::adapter::Counters, user_bytes: u64) {
    let n = |v: u64| Stat::one(v as f64);
    let per = |a: u64, b: u64| Stat::one(if b == 0 { 0.0 } else { a as f64 / b as f64 });
    out.layer("pmem.flushes", n(c.pm_flushes));
    out.layer("pmem.fences", n(c.pm_fences));
    out.layer("pmem.bytes_written", n(c.pm_bytes_written));
    out.layer("pmem.write_amp", per(c.pm_bytes_written, user_bytes));
    out.layer("pmem.ring_submitted", n(c.ring_submitted));
    out.layer("pmem.ring_flushed", n(c.ring_flushed));
    out.layer("pmem.ring_elided", n(c.ring_elided));
    out.layer("pmem.ring_sweeps", n(c.ring_sweeps));
    out.layer("pmem.ring_drains", n(c.ring_drains));
    out.layer("pmem.lines_per_sweep", per(c.ring_flushed, c.ring_sweeps));
    out.layer(
        "pmem.slab_fast_frac",
        per(c.slab_fast, c.slab_fast + c.slab_slow),
    );
    out.layer("fase.fases", n(c.fases));
    out.layer("fase.stores_per_fase", per(c.stores, c.fases));
    out.layer("fase.store_lines", n(c.store_lines));
    out.layer("fase.data_flushes", n(c.data_flushes));
    out.layer("fase.fences_per_fase", per(c.fences, c.fases));
    out.layer(
        "fase.log_flushes_per_fase",
        per(c.pm_flushes.saturating_sub(c.data_flushes), c.fases),
    );
    out.layer("fase.rollbacks", n(c.rollbacks));
}

/// Bare `pmem` and `fase` costs at the workload's mean FASE size:
/// `pmem.ring_ns_per_line`, `fase.commit_ns`, `fase.recover_us`.
fn persistence_micros(out: &mut Outcome, lines_per_fase: usize) {
    use crate::adapter::{BareFase, BareRing, LINE_BYTES};
    let k = lines_per_fase.clamp(1, 512);
    // distinct lines, scattered like node writes, revisited every round
    let lines: Vec<u64> = (0..k as u64).map(|i| (i * 37) % 4096).collect();
    let mut ring = BareRing::new(1024, 4096);
    let per_commit = ns_per_iter(7, 2000, |_| ring.commit(&lines));
    out.layer("pmem.ring_ns_per_line", per_commit.map(|ns| ns / k as f64));
    let offsets: Vec<usize> = lines.iter().map(|l| *l as usize * LINE_BYTES).collect();
    let mut rt = BareFase::new(4096 * LINE_BYTES);
    out.layer(
        "fase.commit_ns",
        ns_per_iter(7, 2000, |i| rt.fase(&offsets, i as u64)),
    );
    let recover: Vec<f64> = (0..5)
        .map(|i| {
            rt.fase(&offsets, i);
            let t = Instant::now();
            rt.crash_recover();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.layer("fase.recover_us", Stat::of(&recover));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_cut_a_pass_into_slices_by_ops() {
        let mut m = Marks::new(1000); // a slice every 5 ops
        m.start(100);
        for op in 1..=20u64 {
            m.tick(op, 100 + op * 10);
        }
        // marks at ops 5, 10, 15, 20; nothing is left for `finish`
        assert_eq!(m.finish(300), vec![50, 50, 50, 50]);
        // a call that completes several slices' worth closes one slice
        m.start(0);
        m.tick(128, 1_000);
        m.tick(129, 1_010);
        m.tick(130, 1_020);
        assert_eq!(m.finish(1_050), vec![1_000, 20, 30]);
        // the buffer never grows past what was allocated for it
        let mut tiny = Marks::new(1);
        tiny.start(0);
        let cap = tiny.slice_ns.capacity() as u64;
        for op in 1..=cap + 50 {
            tiny.tick(op, op);
        }
        assert_eq!(tiny.finish(cap + 51).len() as u64, cap);
    }

    #[test]
    fn quiet_rate_counts_each_slice_at_its_fastest() {
        // three repeats of a four-slice stream; a disturbance hits a
        // different slice in each
        let passes = vec![
            vec![100, 300, 100, 100],
            vec![100, 100, 250, 100],
            vec![110, 100, 100, 400],
        ];
        let s = quiet_rate(4_000, &passes);
        assert_eq!(s.value, 4_000.0 * 1e9 / 400.0);
        // the quartiles are the whole passes' (600, 550 and 710 ns)
        assert_eq!(s.n, 3);
        assert_eq!(s.q1, 4_000.0 * 1e9 / 710.0);
        assert_eq!(s.q3, 4_000.0 * 1e9 / 550.0);
        assert!(s.q3 < s.value);
        // a stall the program causes recurs in every repeat and stays in
        let stalled = vec![vec![100, 900, 100], vec![100, 900, 100]];
        assert_eq!(quiet_rate(3, &stalled).value, 3.0 * 1e9 / 1_100.0);
        // past the luckiest: every slice at its second-fastest execution
        let raced = vec![vec![100, 80], vec![60, 100], vec![110, 120]];
        assert_eq!(quiet_rate_past(1, 2, &raced).value, 2.0 * 1e9 / 200.0);
        // one repeat: it is its own quartiles
        let one = quiet_rate(10, &[vec![5, 5]]);
        assert_eq!((one.value, one.q1, one.q3), (1e9, 1e9, 1e9));
    }

    #[test]
    fn call_floors_keep_the_fastest_execution_of_each_call() {
        // even calls are gets, odd ones writes; call 3 never runs
        let class_of = |call: usize| call % 2;
        let mut f = CallFloors::new(4);
        let mut pass = CallLat::new(4);
        for repeat in [[50, 9, 70], [30, 12, 65], [u64::MAX, 10, 90]] {
            for (call, ns) in repeat.into_iter().enumerate() {
                pass.record(call, ns); // u64::MAX saturates, never wins
            }
            f.fold(&pass, class_of);
        }
        assert_eq!(f.floor.0, [30, 9, 65, u32::MAX]);
        let h = f.floor.by_class(class_of);
        assert_eq!(h[GET].p50(), Some(30.0));
        assert_eq!(h[GET].quantile(1.0), Some(65.0));
        assert_eq!(h[WRITE].p50(), Some(9.0));
        assert_eq!(h[SCAN].p50(), None);
        // the single repeats' medians: 50, 30 and 90 for gets (the
        // saturated call counts as never run), 9, 12 and 10 for writes
        assert_eq!(f.per_pass[GET][0], [50.0, 30.0, 90.0]);
        assert_eq!(f.per_pass[WRITE][0], [9.0, 12.0, 10.0]);
        let mut out = Outcome::new("embed_hash_a");
        f.report(&mut out, class_of);
        let get = out.e2e.iter().find(|(n, _)| *n == "get_p50_ns").unwrap().1;
        assert_eq!((get.value, get.q1, get.q3, get.n), (30.0, 30.0, 90.0, 3));
        assert!(!out.e2e.iter().any(|(n, _)| n.contains("p99")));
        // connections of the served workload pool their calls
        let mut pooled = CallLat::new(0);
        pooled.append(&pass);
        pooled.append(&pass);
        assert_eq!(pooled.by_class(class_of)[WRITE].p50(), Some(10.0));
    }

    #[test]
    fn trace_overhead_compares_slice_by_slice() {
        let untraced = vec![vec![100, 100, 100], vec![102, 98, 300]];
        // 10 % slower in every slice → 1 − 1/1.1 of the throughput
        let f = trace_overhead(&untraced, &[111, 109, 220]);
        assert!((f - (1.0 - 1.0 / 1.1)).abs() < 0.01, "{f}");
        assert_eq!(trace_overhead(&untraced, &[]), 0.0);
    }
}
