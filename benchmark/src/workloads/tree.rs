//! `embed_tree_f` and `embed_tree_e`: one `TreeEngine` driven on the
//! caller's thread through `Engine::serve_batch`, 8 000 keys × 40 B,
//! zipf 0.99.
//!
//! * F — 50 % single-`Get` batches, 50 % read-modify-write whose writes
//!   commit as 8-`Put` batches: the CoW write path.
//! * E — 95 % single-`Scan` batches (length zipf 1..=64), 5 %
//!   single-`Put` inserts of fresh keys: leaf streaming and MVCC reads
//!   beside inserts, on a heap sized so the tree stays below half of it.
//!
//! The traced run also walks the tree ladder with one stream:
//! `Tree<MemPager>` → `Tree<FasePager>` → `TreeEngine::serve_batch`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use super::{
    audit_dump, expect_same, ns_per_iter, persistence_layers, persistence_micros, quiet_rate,
    timed_setup, trace_overhead, CallFloors, CallLat, Ctx, Marks, Outcome, GET, SCAN, WRITE,
};
use crate::adapter::{
    self, Asked, BareTree, Counters, Item, Req, TreeLane, TreeOps, TreeShape, PAGE_BYTES,
};
use crate::gen::{permutation, value_of, version_of, Rng, Zipfian, VALUE_LEN};
use crate::hist::Hist;
use crate::span::{NoSpans, Sink, SpanBuf};
use crate::stats::Stat;

/// Which YCSB mix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Read-modify-write.
    F,
    /// Scan-heavy with inserts.
    E,
}

const KEYS: usize = 8_000;
const THETA: f64 = 0.99;
/// Loaded keys sit `KEY_STRIDE` apart; fresh inserts land in the gaps.
const KEY_STRIDE: u64 = 16;
/// Writes per committed batch on mix F.
const RMW_BATCH: usize = 8;
/// Longest scan of mix E.
const MAX_SCAN: usize = 64;
const INSERT_SHARE: f64 = 0.05;
/// Timed repeats, and logical ops per repeat of a 10-second run (≈ 0.25 s
/// on the quiet reference host; short and many for the reason given in
/// `hash.rs`).
const REPEATS: usize = 32;
const F_OPS: usize = 190_000;
const E_OPS: usize = 160_000;
/// Heap bytes: `repro tree-bench`'s 8 MiB for F; 32 MiB for E, where
/// inserts grow the tree and it must stay below half of the heap.
const F_HEAP: usize = 8 << 20;
const E_HEAP: usize = 32 << 20;
/// Preload transaction size.
const LOAD_BATCH: usize = 128;
/// Ops of the tree ladder stream.
const LADDER_OPS: usize = 60_000;

/// One `serve_batch` call: `reqs[at..at + len]`, all of one class.
struct Call {
    at: u32,
    len: u32,
    class: usize,
}

struct TreeStream {
    /// Loaded keys, hottest first.
    keys: Vec<u64>,
    reqs: Vec<Req>,
    calls: Vec<Call>,
    /// Logical ops (a read-modify-write is one).
    ops: u64,
    /// Writes among them.
    writes: u64,
}

impl TreeStream {
    fn push(&mut self, class: usize, reqs: impl IntoIterator<Item = Req>) {
        let at = self.reqs.len();
        self.reqs.extend(reqs);
        self.calls.push(Call {
            at: at as u32,
            len: (self.reqs.len() - at) as u32,
            class,
        });
    }
}

fn stream(mix: Mix, seed: u64, ops: usize) -> TreeStream {
    let mut rng = Rng::new(seed, if mix == Mix::F { 0xf0 } else { 0xe0 });
    let keys: Vec<u64> = permutation(KEYS, &mut rng)
        .into_iter()
        .map(|s| s as u64 * KEY_STRIDE)
        .collect();
    let zipf = Zipfian::new(KEYS, THETA);
    let lengths = Zipfian::new(MAX_SCAN, THETA);
    let mut s = TreeStream {
        keys,
        reqs: Vec::with_capacity(ops + ops / 2),
        calls: Vec::with_capacity(ops + ops / 2),
        ops: ops as u64,
        writes: 0,
    };
    let mut version: BTreeMap<u64, u32> = BTreeMap::new();
    let mut fresh: BTreeSet<u64> = BTreeSet::new();
    let mut pending: Vec<Req> = Vec::with_capacity(RMW_BATCH);
    for _ in 0..ops {
        let key = s.keys[zipf.rank(rng.unit()) as usize];
        match mix {
            Mix::F => {
                s.push(GET, [adapter::req_get(key)]);
                if rng.unit() >= 0.5 {
                    // the modify-write half: buffered, committed by eight
                    let v = version.entry(key).or_insert(0);
                    *v += 1;
                    pending.push(adapter::req_put(key, &value_of(key, *v)));
                    s.writes += 1;
                    if pending.len() == RMW_BATCH {
                        s.push(WRITE, pending.drain(..));
                    }
                }
            }
            Mix::E => {
                if rng.unit() < INSERT_SHARE {
                    // a key no one holds yet: inside a random gap
                    let new = loop {
                        let k = rng.below(KEYS as u64) * KEY_STRIDE + 1 + rng.below(KEY_STRIDE - 1);
                        if fresh.insert(k) {
                            break k;
                        }
                    };
                    s.push(WRITE, [adapter::req_put(new, &value_of(new, 1))]);
                    s.writes += 1;
                } else {
                    let limit = 1 + lengths.rank(rng.unit()) as u32;
                    s.push(SCAN, [adapter::req_scan(key, limit)]);
                }
            }
        }
    }
    if !pending.is_empty() {
        s.push(WRITE, pending.drain(..));
    }
    s
}

fn preload(keys: &[u64]) -> Vec<Vec<Req>> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted
        .chunks(LOAD_BATCH)
        .map(|c| {
            c.iter()
                .map(|&k| adapter::req_put(k, &value_of(k, 0)))
                .collect()
        })
        .collect()
}

fn build(heap: usize, load: &[Vec<Req>]) -> (TreeLane, u64) {
    let mut lane = TreeLane::new(heap);
    let mut failed = 0u64;
    for batch in load {
        failed += lane
            .serve_batch(batch)
            .iter()
            .filter(|r| !adapter::reply_done(r))
            .count() as u64;
    }
    (lane, failed)
}

/// One timed repeat. Returns seconds, failed calls (a missing key, an
/// empty scan, a refused write — never expected) and the nanoseconds
/// each slice of the stream took (slices are cut by calls here: a
/// read-modify-write is two of them).
fn pass<S: Sink>(
    lane: &mut TreeLane,
    s: &TreeStream,
    lat: &mut CallLat,
    marks: &mut Marks,
    spans: &mut S,
    names: [u16; 3],
    origin: Instant,
) -> (f64, u64, Vec<u64>) {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut failed = 0u64;
    let began = now();
    let mut t0 = began;
    marks.start(began);
    for (i, call) in s.calls.iter().enumerate() {
        let reqs = &s.reqs[call.at as usize..(call.at + call.len) as usize];
        let replies = lane.serve_batch(reqs);
        failed += match call.class {
            GET => adapter::reply_value(&replies[0]).is_none() as u64,
            SCAN => adapter::reply_entries(&replies[0]).is_empty() as u64,
            _ => replies.iter().filter(|r| !adapter::reply_done(r)).count() as u64,
        };
        std::hint::black_box(replies);
        let t1 = now();
        lat.record(i, t1 - t0);
        marks.tick(i as u64 + 1, t1);
        if S::ON {
            spans.call(names[call.class], i as u32, t0, t1);
        }
        t0 = t1;
    }
    ((t0 - began) as f64 / 1e9, failed, marks.finish(t0))
}

/// The warm-up repeat: every `Get` and `Scan` reply checked against a
/// `BTreeMap` model, then a crash keeping only fenced data. Returns
/// `(calls wrong, acked writes lost)`.
fn verify(lane: &mut TreeLane, s: &TreeStream) -> (u64, u64) {
    let mut model: BTreeMap<u64, u32> = s.keys.iter().map(|&k| (k, 0)).collect();
    let mut wrong = 0u64;
    for call in &s.calls {
        let reqs = &s.reqs[call.at as usize..(call.at + call.len) as usize];
        let replies = lane.serve_batch(reqs);
        for (req, reply) in reqs.iter().zip(&replies) {
            match adapter::asked(req) {
                Asked::Get(k) => {
                    let expect = model.get(&k).map(|v| value_of(k, *v));
                    wrong +=
                        (adapter::reply_value(reply) != expect.as_ref().map(|e| &e[..])) as u64;
                }
                Asked::Put(k, v) => {
                    if adapter::reply_done(reply) {
                        model.insert(k, version_of(v).expect("generated value"));
                    } else {
                        wrong += 1;
                    }
                }
                Asked::Scan(lo, limit) => {
                    let got = adapter::reply_entries(reply);
                    let same = got.len() == model.range(lo..).take(limit).count()
                        && got
                            .iter()
                            .zip(model.range(lo..))
                            .all(|((gk, gv), (k, v))| gk == k && gv[..] == value_of(*k, *v)[..]);
                    wrong += !same as u64;
                }
                Asked::Other => wrong += 1,
            }
        }
    }
    let (lost, extra) = audit_dump(&lane.crash_recover_dump(), &model);
    (wrong + extra, lost)
}

fn space_amp(shape: &TreeShape) -> f64 {
    (shape.pages_allocated * PAGE_BYTES) as f64 / (shape.len * (8 + VALUE_LEN as u64)) as f64
}

/// Run `embed_tree_f` or `embed_tree_e`.
pub fn run(mix: Mix, ctx: &Ctx) -> Outcome {
    let (name, base_ops, heap) = match mix {
        Mix::F => ("embed_tree_f", F_OPS, F_HEAP),
        Mix::E => ("embed_tree_e", E_OPS, E_HEAP),
    };
    let mut out = Outcome::new(name);
    let ops = ctx.scaled(base_ops);

    let mut gen_secs = 0.0;
    let ((s, load, lane, load_failed), setup) = timed_setup(ctx, || {
        let t = Instant::now();
        let s = stream(mix, ctx.seed, ops);
        gen_secs = t.elapsed().as_secs_f64();
        let load = preload(&s.keys);
        let (lane, failed) = build(heap, &load);
        (s, load, lane, failed)
    });
    out.failed += load_failed;

    let mut lane = lane;
    let (wrong, lost) = verify(&mut lane, &s);
    drop(lane);
    out.attempted += s.calls.len() as u64;
    out.failed += wrong;
    if lost > 0 {
        out.problem(format!("{lost} acked writes lost across crash_and_recover"));
    }

    let repeats = ctx.repeats(REPEATS);
    let mut floors = CallFloors::new(s.calls.len());
    let mut lat = CallLat::new(s.calls.len());
    let mut marks = Marks::new(s.calls.len() as u64);
    let (mut ops_s, mut slices) = (Vec::new(), Vec::new());
    let mut first: Option<(Counters, TreeShape)> = None;
    for r in 0..repeats {
        let (mut lane, load_failed) = build(heap, &load);
        let before = lane.counters();
        let (secs, failed, slice_ns) = pass(
            &mut lane,
            &s,
            &mut lat,
            &mut marks,
            &mut NoSpans,
            [0; 3],
            Instant::now(),
        );
        let this = (lane.counters() - before, lane.shape());
        floors.fold(&lat, |call| s.calls[call].class);
        out.attempted += s.calls.len() as u64;
        out.failed += failed + load_failed;
        ops_s.push(s.ops as f64 / secs);
        slices.push(slice_ns);
        match &first {
            None => first = Some(this),
            Some(f) => expect_same(&mut out, "fase/pmem/treestore counts", r, f, &this),
        }
    }
    let (counts, shape) = first.expect("at least one repeat");
    let throughput = quiet_rate(s.ops, &slices);
    if mix == Mix::E && shape.pages_allocated * PAGE_BYTES * 2 > heap as u64 {
        out.problem(format!(
            "tree grew past half of its heap ({} pages of {})",
            shape.pages_allocated,
            heap as u64 / PAGE_BYTES
        ));
    }

    out.e2e("setup_s", setup);
    out.e2e("ops_s", throughput);
    floors.report(&mut out, |call| s.calls[call].class);
    out.e2e(
        "flush_ratio",
        Stat::one(counts.data_flushes as f64 / counts.store_lines as f64),
    );
    out.e2e(
        "nvm_flushes_per_op",
        Stat::one(counts.pm_flushes as f64 / s.ops as f64),
    );
    out.e2e("space_amp", Stat::one(space_amp(&shape)));
    out.e2e("acked_lost", Stat::one(lost as f64));

    if ctx.trace {
        let (mut lane, _) = build(heap, &load);
        let before = lane.counters();
        let mut spans = SpanBuf::with_capacity(s.calls.len() + 8);
        let names = [
            spans.name("serve_batch.get"),
            spans.name("serve_batch.put"),
            spans.name("serve_batch.scan"),
        ];
        let root = spans.open("repeat");
        let origin = spans.origin();
        let (_, _, slice_ns) = pass(
            &mut lane, &s, &mut lat, &mut marks, &mut spans, names, origin,
        );
        spans.close(root);
        let traced = (lane.counters() - before, lane.shape());
        expect_same(
            &mut out,
            "counts (traced)",
            repeats,
            &(counts, shape),
            &traced,
        );
        out.layer(
            "telemetry.trace_overhead_frac",
            Stat::one(trace_overhead(&slices, &slice_ns)),
        );
        let path = ctx.out_dir.join(format!("trace-{name}.jsonl"));
        if let Err(e) = spans.write_jsonl(&path, name) {
            out.problem(format!("cannot write {}: {e}", path.display()));
        }

        persistence_layers(&mut out, &counts, s.writes * (8 + VALUE_LEN as u64));
        out.layer("treestore.height", Stat::one(shape.height as f64));
        out.layer(
            "treestore.pages_allocated",
            Stat::one(shape.pages_allocated as f64),
        );
        out.layer("treestore.free_pages", Stat::one(shape.free_pages as f64));
        out.layer(
            "treestore.retired_pages",
            Stat::one(shape.retired_pages as f64),
        );
        out.layer(
            "treestore.lines_per_put",
            Stat::one(counts.store_lines as f64 / s.writes.max(1) as f64),
        );
        let recover: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                lane.crash_recover();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.layer("treestore.recover_us", Stat::of(&recover));
        persistence_micros(
            &mut out,
            (counts.store_lines / counts.fases.max(1)) as usize,
        );
        out.layer(
            "client.gen_ns_per_op",
            Stat::one(gen_secs * 1e9 / ops as f64),
        );
        out.layer(
            "client.ops_s_iqr_frac",
            Stat::one(Stat::of(&ops_s).spread()),
        );
        ladder(ctx, heap, &load, &mut out);
    }
    out.finish()
}

/// The tree ladder: one stream of gets and 8-put transactions through
/// the volatile tree, the persistent tree, and the engine.
fn ladder(ctx: &Ctx, heap: usize, load: &[Vec<Req>], out: &mut Outcome) {
    let n = ctx.scaled(LADDER_OPS);
    let mut rng = Rng::new(ctx.seed, 0x7add);
    let keys: Vec<u64> = permutation(KEYS, &mut rng)
        .into_iter()
        .map(|s| s as u64 * KEY_STRIDE)
        .collect();
    let zipf = Zipfian::new(KEYS, THETA);
    let gets: Vec<u64> = (0..n / 2)
        .map(|_| keys[zipf.rank(rng.unit()) as usize])
        .collect();
    let txns: Vec<Vec<Item>> = (0..n / 2 / RMW_BATCH)
        .map(|t| {
            (0..RMW_BATCH)
                .map(|_| {
                    let k = keys[zipf.rank(rng.unit()) as usize];
                    (k, value_of(k, t as u32 + 1).to_vec())
                })
                .collect()
        })
        .collect();
    let loaded: Vec<Vec<Item>> = load
        .iter()
        .map(|b| {
            b.iter()
                .filter_map(|r| match adapter::asked(r) {
                    Asked::Put(k, v) => Some((k, v.to_vec())),
                    _ => None,
                })
                .collect()
        })
        .collect();

    let mut mem = BareTree::volatile();
    let mut per = BareTree::persistent(heap);
    for b in &loaded {
        assert!(mem.txn_put(b) && per.txn_put(b), "ladder preload");
    }
    let (mem_get, mem_put) = drive_bare(&mut mem, &gets, &txns);
    let (get, put) = drive_bare(&mut per, &gets, &txns);
    out.layer("treestore.mem_get_ns", Stat::one(mem_get));
    out.layer("treestore.mem_txn_ns_per_put", Stat::one(mem_put));
    out.layer("treestore.get_ns", Stat::one(get));
    out.layer("treestore.txn_ns_per_put", Stat::one(put));

    // scans of the longest length over the persistent tree
    let mut entries = 0usize;
    let scan = ns_per_iter(1, gets.len().min(20_000), |i| {
        entries += std::hint::black_box(per.scan(gets[i], MAX_SCAN));
    });
    out.layer(
        "treestore.scan_ns_per_entry",
        Stat::one(scan.value * gets.len().min(20_000) as f64 / entries.max(1) as f64),
    );
    drop((mem, per));

    // the engine above the persistent tree: same gets, same transactions
    let (mut lane, _) = build(heap, load);
    let get_reqs: Vec<[Req; 1]> = gets.iter().map(|&k| [adapter::req_get(k)]).collect();
    let put_reqs: Vec<Vec<Req>> = txns
        .iter()
        .map(|t| t.iter().map(|(k, v)| adapter::req_put(*k, v)).collect())
        .collect();
    let t = Instant::now();
    for (i, g) in get_reqs.iter().enumerate() {
        std::hint::black_box(lane.serve_batch(g));
        if i % RMW_BATCH == RMW_BATCH - 1 {
            if let Some(p) = put_reqs.get(i / RMW_BATCH) {
                std::hint::black_box(lane.serve_batch(p));
            }
        }
    }
    let reqs = get_reqs.len() + put_reqs.iter().map(Vec::len).sum::<usize>();
    out.layer(
        "engine.tree_serve_batch_ns_per_req",
        Stat::one(t.elapsed().as_nanos() as f64 / reqs as f64),
    );
}

/// Drive gets and 8-put transactions, interleaved as mix F issues them,
/// through a bare tree: `(p50 ns per get, p50 ns per put inside a
/// transaction)`.
fn drive_bare(tree: &mut impl TreeOps, gets: &[u64], txns: &[Vec<Item>]) -> (f64, f64) {
    let (mut g, mut p) = (Hist::new(), Hist::new());
    let began = Instant::now();
    let mut t0 = 0u64;
    for (i, &k) in gets.iter().enumerate() {
        std::hint::black_box(tree.get(k));
        let t1 = began.elapsed().as_nanos() as u64;
        g.record(t1 - t0);
        t0 = t1;
        if i % RMW_BATCH == RMW_BATCH - 1 {
            if let Some(txn) = txns.get(i / RMW_BATCH) {
                assert!(tree.txn_put(txn), "ladder transaction");
                let t1 = began.elapsed().as_nanos() as u64;
                p.record((t1 - t0) / txn.len() as u64);
                t0 = t1;
            }
        }
    }
    (g.p50().unwrap_or(0.0), p.p50().unwrap_or(0.0))
}
