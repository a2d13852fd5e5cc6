//! One crash harness at the `Engine` boundary, for both engines: the
//! hash [`Shard`] and the copy-on-write B+-tree [`TreeEngine`].
//!
//! [`sweep`] serves a program of `BatchRequest` batches once to count —
//! the micro-step counter, the replies and a dump after every batch —
//! then once per crash cut: a `CrashPlan` armed at micro-step `k` under
//! each of the three adversaries, and the image reopened as a fresh
//! engine. The oracle is one `BTreeMap` committed-prefix model that
//! applies a write only if the engine's own reply acknowledged it
//! (*Durable Queues*' rule: an acknowledged operation is durable, a
//! crash exposes a prefix of the operations). A batch the counting pass
//! saw commit at most one FASE must recover whole or not at all; any
//! other batch may recover to any prefix of its requests. Every
//! recovery is also checked for `len()` and point reads against its
//! dump, and one that lands before the batch in flight must reach the
//! counting pass's final state by serving the rest of the program.
//!
//! What is engine-specific is a generator and a closure: the hash
//! shard's direct calls (`KvStore`'s idle path) and its fixed-length and
//! resizing `serve_batch` programs; the tree's transaction, mid-split
//! and dirty-leaf programs. Two pieces are tree-only: torn meta-head
//! images and the two-round same-version retry. The three server-level
//! tests run one generic function each on hash and on tree lanes.

use nvcache::core::{AdaptiveConfig, PolicyKind};
use nvcache::kvstore::{
    BatchReply, BatchRequest, Engine, KvConfig, KvServer, KvStore, ServerConfig, Shard,
    ShardConfig, TreeEngine, TreeEngineConfig,
};
use nvcache::pmem::{CrashMode, CrashPlan};
use nvcache::treestore::{RootStore, Tree, TreeConfig};
use std::collections::{BTreeMap, HashMap};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn value(tag: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag >> (8 * (i % 8))) as u8).collect()
}

fn modes(seed: u64) -> [CrashMode; 3] {
    [
        CrashMode::StrictDurableOnly,
        CrashMode::AllInFlightLands,
        CrashMode::random(0.5, 0.5, seed),
    ]
}

type Program = Vec<Vec<BatchRequest>>;
type State = Vec<(u64, Vec<u8>)>;

/// `n` seeded batches: `len` draws a batch's length, `req` draws one
/// request from a fresh random word.
fn program(
    seed: u64,
    n: usize,
    len: impl Fn(&mut u64) -> usize,
    mut req: impl FnMut(u64, &mut u64) -> BatchRequest,
) -> Program {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let m = len(&mut s);
            (0..m)
                .map(|_| {
                    let r = splitmix(&mut s);
                    req(r, &mut s)
                })
                .collect()
        })
        .collect()
}

/// A group of `n` 24-byte writes over `keys` keys.
fn group(s: &mut u64, n: usize, keys: u64) -> BatchRequest {
    BatchRequest::PutMany(
        (0..n)
            .map(|_| (splitmix(s) % keys, value(splitmix(s), 24)))
            .collect(),
    )
}

/// A group one of whose values fits neither engine: refused whole.
fn refused(key: u64) -> BatchRequest {
    BatchRequest::PutMany(vec![(key, value(key, 24)), (key + 1, vec![0; 5000])])
}

/// One engine under test: a fresh one, one reopened from a crash image,
/// and how a batch is applied to it.
struct Rig<E> {
    fresh: Box<dyn Fn() -> E>,
    reopen: Box<dyn Fn(Vec<u8>) -> Result<E, String>>,
    apply: fn(&mut E, &[BatchRequest]) -> Vec<BatchReply>,
}

/// A shard that has served `preload` as its first batch.
fn shard_rig(cfg: ShardConfig, preload: Vec<BatchRequest>) -> Rig<Shard> {
    let c = cfg.clone();
    Rig {
        fresh: Box::new(move || {
            let mut s = Shard::new(&c);
            s.serve_batch(&preload);
            s
        }),
        reopen: Box::new(move |image| {
            Shard::reopen_from_image(image, &cfg).map_err(|e| e.to_string())
        }),
        apply: Engine::serve_batch,
    }
}

/// A tree engine that has committed `preload` as its first batch.
fn tree_rig(cfg: TreeEngineConfig, preload: Vec<BatchRequest>) -> Rig<TreeEngine> {
    let c = cfg.clone();
    Rig {
        fresh: Box::new(move || {
            let mut e = TreeEngine::new(&c);
            e.serve_batch(&preload);
            e
        }),
        reopen: Box::new(move |image| {
            TreeEngine::reopen_from_image(image, &cfg).map_err(|e| e.to_string())
        }),
        apply: Engine::serve_batch,
    }
}

/// `KvStore`'s idle path: every request is its own `Shard` call.
fn direct(s: &mut Shard, batch: &[BatchRequest]) -> Vec<BatchReply> {
    let mut done = |req: &BatchRequest| match req {
        BatchRequest::Put(k, v) => s.put(*k, v),
        BatchRequest::PutMany(items) => s.put_many(items),
        BatchRequest::Delete(k) => s.delete(*k),
        other => unreachable!("{other:?} is not a write"),
    };
    batch
        .iter()
        .map(|req| BatchReply::Done(done(req)))
        .collect()
}

/// Serve `prog` on a fresh engine with a crash armed at micro-step `k`,
/// up to the cut: the image the power failure left.
fn image_at<E: Engine>(
    rig: &Rig<E>,
    prog: &[Vec<BatchRequest>],
    k: u64,
    mode: &CrashMode,
) -> Vec<u8> {
    let mut e = (rig.fresh)();
    e.arm_crash(CrashPlan {
        at_step: k,
        mode: mode.clone(),
    });
    for batch in prog {
        if e.steps() > k {
            break;
        }
        (rig.apply)(&mut e, batch);
    }
    e.take_crash_image()
        .expect("the cut falls inside the program")
}

/// The cut schedule that crashes at every micro-step.
const EVERY: u64 = u64::MAX;

/// What a sweep checked.
struct Swept {
    /// Crash images recovered and judged.
    recoveries: usize,
    /// Batches that committed at most one FASE: whole or nothing.
    whole: usize,
    /// Puts and groups the engine answered `Done(false)`.
    refused: usize,
}

/// Crash `prog` on `rig` at about `cuts` evenly spaced micro-steps
/// ([`EVERY`]: at each one) under the three adversaries, and judge every
/// recovery against the committed-prefix model of the module doc.
fn sweep<E: Engine>(rig: &Rig<E>, prog: &[Vec<BatchRequest>], cuts: u64) -> Swept {
    let mut e = (rig.fresh)();
    let mut model: BTreeMap<u64, Vec<u8>> = e.dump().into_iter().collect();
    let snapshot = |m: &BTreeMap<u64, Vec<u8>>| -> State { m.clone().into_iter().collect() };
    // per batch: the step it ends at, and the states a cut inside it may leave
    let (mut ends, mut legal) = (vec![e.steps()], Vec::<Vec<State>>::new());
    let (mut whole, mut refused) = (0, 0);
    for (j, batch) in prog.iter().enumerate() {
        let fases = e.stats().fases;
        let replies = (rig.apply)(&mut e, batch);
        let mut states = vec![snapshot(&model)];
        for (req, reply) in batch.iter().zip(&replies) {
            let done = *reply == BatchReply::Done(true);
            match req {
                BatchRequest::Put(k, v) if done => drop(model.insert(*k, v.clone())),
                BatchRequest::PutMany(items) if done => model.extend(items.iter().cloned()),
                BatchRequest::Delete(k) if done => drop(model.remove(k)),
                BatchRequest::Put(..) | BatchRequest::PutMany(_) => refused += 1,
                _ => {}
            }
            states.push(snapshot(&model));
        }
        assert_eq!(
            e.dump(),
            states[states.len() - 1],
            "batch {j}: state vs replies"
        );
        if e.stats().fases - fases <= 1 {
            whole += 1;
            states.drain(1..states.len() - 1);
        }
        ends.push(e.steps());
        legal.push(states);
    }
    let (setup, total) = (ends[0], ends[prog.len()]);
    let last = legal[prog.len() - 1].last().unwrap().clone();
    let mut recoveries = 0;
    let stride = ((total - setup) / cuts).max(1) as usize;
    for k in (setup + 1..total).step_by(stride) {
        let j = ends.iter().rposition(|&c| c <= k).unwrap();
        for mode in modes(k) {
            let ctx = format!("{mode:?} crash at step {k} in batch {j}");
            let mut rec = (rig.reopen)(image_at(rig, prog, k, &mode))
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            let got = rec.dump();
            assert!(legal[j].contains(&got), "{ctx}: not a committed prefix");
            assert_eq!(rec.len(), got.len(), "{ctx}: len() vs dump");
            let gets: Vec<_> = got.iter().map(|(k, _)| BatchRequest::Get(*k)).collect();
            let reads = got.iter().map(|(_, v)| BatchReply::Value(Some(v.clone())));
            assert!(
                rec.serve_batch(&gets).into_iter().eq(reads),
                "{ctx}: reads vs dump"
            );
            if got == legal[j][0] {
                for batch in &prog[j..] {
                    (rig.apply)(&mut rec, batch);
                }
                assert!(rec.dump() == last, "{ctx}: serving the rest of the program");
            }
            recoveries += 1;
        }
    }
    Swept {
        recoveries,
        whole,
        refused,
    }
}

fn shard_cfg(policy: PolicyKind) -> ShardConfig {
    ShardConfig {
        buckets: 16, // selects nothing
        data_len: 1 << 18,
        log_len: 1 << 15,
        policy,
        adapt: None,
        pipelined: true,
    }
}

fn tree_cfg(data_len: usize) -> TreeEngineConfig {
    TreeEngineConfig {
        tree: TreeConfig {
            data_len,
            log_len: 1 << 18,
            policy: PolicyKind::ScFixed { capacity: 8 },
            pipelined: true,
        },
    }
}

/// The hash shard's direct calls — puts of varying value classes
/// (in-place updates and node replacements), deletes, groups (one
/// refused whole) — crashed at ~84 micro-steps per policy × adversary.
#[test]
fn shard_recovers_committed_prefix_at_sampled_micro_steps() {
    let mut prog = program(
        2017,
        30,
        |_| 1,
        |r, s| {
            let key = splitmix(s) % 24;
            match r % 6 {
                0..=2 => BatchRequest::Put(key, value(splitmix(s), 8 + (r % 40) as usize)),
                3 => BatchRequest::Delete(key),
                _ => group(s, 2 + (r % 5) as usize, 24),
            }
        },
    );
    prog.insert(15, vec![refused(3)]);
    let mut recoveries = 0;
    for policy in [
        PolicyKind::Eager,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 8 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 64,
            ..Default::default()
        }),
    ] {
        let rig = Rig {
            apply: direct,
            ..shard_rig(shard_cfg(policy), Vec::new())
        };
        let r = sweep(&rig, &prog, 84);
        assert!(r.refused >= 1, "the model never saw a refusal");
        recoveries += r.recoveries;
    }
    assert!(recoveries >= 1248, "{recoveries} recoveries");
}

/// A put and a delete of each length in `lens` on keys no program
/// names: a shard that serves them has carved a segment of each class,
/// so a batch of the program commits as one FASE.
fn carve(lens: &[usize]) -> Vec<BatchRequest> {
    let keys = 1000..1000 + lens.len() as u64;
    let puts = keys
        .clone()
        .zip(lens)
        .map(|(k, &n)| BatchRequest::Put(k, value(k, n)));
    puts.chain(keys.map(BatchRequest::Delete)).collect()
}

/// The cross-client group commit through `serve_batch`. Fixed-length
/// Gets, Puts and groups with no deletes: every batch commits as one
/// FASE and must recover whole or not at all (~108 cuts per policy).
/// Then resizing Puts over acknowledged keys, whose group moves a key
/// to another class's node and tombstones the old one in the same
/// FASE: every micro-step.
#[test]
fn serve_batch_recovers_a_committed_prefix_of_acked_batches() {
    let fixed = program(
        4242,
        14,
        |s| 2 + (splitmix(s) % 6) as usize,
        |r, s| {
            let key = splitmix(s) % 24;
            match r % 4 {
                0 => BatchRequest::Get(key),
                1 => group(s, 2 + (r % 3) as usize, 24),
                _ => BatchRequest::Put(key, value(splitmix(s), 24)),
            }
        },
    );
    let mut recoveries = 0;
    for policy in [
        PolicyKind::ScFixed { capacity: 8 },
        PolicyKind::Eager,
        PolicyKind::Atlas { size: 8 },
    ] {
        let r = sweep(&shard_rig(shard_cfg(policy), carve(&[24])), &fixed, 108);
        assert_eq!(r.whole, fixed.len(), "a fixed-length batch is one FASE");
        recoveries += r.recoveries;
    }
    assert!(recoveries >= 1107, "{recoveries} recoveries");

    // 34 batches: a batch commits in about thirteen micro-steps, and the
    // sweep keeps the 1 206 cuts it made when a class move was logged
    let resizing = program(
        77,
        34,
        |_| 3,
        |r, s| BatchRequest::Put(r % 6, value(splitmix(s), 8 + 16 * (r >> 8 & 3) as usize)),
    );
    // a small region: one image is copied per cut
    let cfg = ShardConfig {
        data_len: 1 << 14,
        log_len: 1 << 13,
        ..shard_cfg(PolicyKind::ScFixed { capacity: 8 })
    };
    let r = sweep(&shard_rig(cfg, carve(&[8, 24, 56])), &resizing, EVERY);
    assert_eq!(r.refused, 0);
    assert_eq!(r.whole, resizing.len(), "a resizing batch is one FASE");
    assert!(r.recoveries >= 1206, "{} recoveries", r.recoveries);
}

/// Committed CoW transactions — puts of varying value classes (leaf
/// churn, splits, value-cell reallocation), deletes (free-list
/// traffic), one refused group — crashed at ~98 micro-steps per
/// adversary: a transaction is never visible in part.
#[test]
fn tree_recovers_committed_prefix_at_sampled_micro_steps() {
    let mut prog = program(
        1986,
        24,
        |s| 3 + (splitmix(s) % 10) as usize,
        |r, s| {
            let key = splitmix(s) % 48;
            if r.is_multiple_of(5) {
                BatchRequest::Delete(key)
            } else {
                BatchRequest::Put(key, value(splitmix(s), 8 + (r % 40) as usize))
            }
        },
    );
    prog[5].push(refused(7));
    let r = sweep(&tree_rig(tree_cfg(1 << 21), Vec::new()), &prog, 98);
    assert_eq!((r.whole, r.refused), (prog.len(), 1));
    assert!(r.recoveries >= 294, "{} recoveries", r.recoveries);
}

/// A crash inside one structure-heavy transaction — 300 inserts over 40
/// committed keys, a cascade of leaf splits and a root swing — recovers
/// the old root's page graph or the whole new one: CoW never modifies
/// the old graph in place.
#[test]
fn mid_split_crash_recovers_the_old_root_graph() {
    let base = (0..40u64)
        .map(|k| BatchRequest::Put(k, value(k, 16)))
        .collect();
    let big = vec![(1000..1300u64)
        .map(|k| BatchRequest::Put(k, value(k, 24)))
        .collect()];
    let r = sweep(&tree_rig(tree_cfg(1 << 21), base), &big, 60);
    assert_eq!(r.whole, 1);
    assert!(r.recoveries >= 93, "{} recoveries", r.recoveries);
}

/// Hardware lands 8-byte words, not lines. When the one line in flight
/// at a cut is a meta-head slot — the first two lines of the meta block
/// at `meta`, written by the commit's publish — every proper mix of its
/// durable and in-flight words, as images. Any other cut: none.
fn torn_head_images(durable: &[u8], landed: &[u8], meta: usize) -> Vec<Vec<u8>> {
    let mut in_flight = (0..durable.len())
        .step_by(64)
        .filter(|&l| durable[l..l + 64] != landed[l..l + 64]);
    let (Some(line), None) = (in_flight.next(), in_flight.next()) else {
        return Vec::new();
    };
    if !(meta..meta + 128).contains(&line) {
        return Vec::new();
    }
    (1u32..255)
        .map(|mask| {
            let mut image = durable.to_vec();
            for w in (0..8).filter(|w| mask >> w & 1 == 1) {
                let at = line + 8 * w;
                image[at..at + 8].copy_from_slice(&landed[at..at + 8]);
            }
            image
        })
        .collect()
}

/// The torn-head adversary over every cut of `prog` (one transaction):
/// a torn head must recover the old tree, only the whole new head the
/// new one. Returns the torn images recovered.
fn torn_heads(rig: &Rig<TreeEngine>, prog: &[Vec<BatchRequest>]) -> usize {
    let mut e = (rig.fresh)();
    let (meta, setup, base) = (e.tree().store().root() as usize, e.steps(), e.dump());
    (rig.apply)(&mut e, &prog[0]);
    let (total, full) = (e.steps(), e.dump());
    assert_eq!(e.tree().height(), 2, "the staged leaf must have split");
    let (mut images, mut cuts) = (0, 0);
    for k in setup + 1..total {
        let strict = image_at(rig, prog, k, &CrashMode::StrictDurableOnly);
        let landed = image_at(rig, prog, k, &CrashMode::AllInFlightLands);
        let torn = torn_head_images(&strict, &landed, meta);
        cuts += usize::from(!torn.is_empty());
        for image in torn {
            let want = if image == landed { &full } else { &base };
            let mut rec = (rig.reopen)(image)
                .unwrap_or_else(|e| panic!("torn head at step {k}: recovery failed: {e}"));
            assert!(
                rec.dump() == *want,
                "step {k}: a torn head was taken for a commit"
            );
            images += 1;
        }
    }
    assert_eq!(cuts, 2, "the publish window: written, then flushed");
    images
}

/// One transaction that keeps coming back to a leaf it has staged — an
/// insert (the first touch: shadow page + used-byte copy), an overwrite
/// and a delete edited in place, then enough inserts to fill the staged
/// leaf and split it while Dirty — crashed at *every* micro-step, under
/// every adversary. In-place edits of a shadow
/// page are stores of a few words each, landing (or not) line by line:
/// none of them may be visible before the head flip, all of them after.
/// The head itself may land torn: a fourth adversary tears it word by
/// word in the publish window, and only the whole new head may commit.
#[test]
fn dirty_leaf_edits_and_split_are_atomic_at_every_micro_step() {
    let base: Vec<_> = (0..10u64)
        .map(|k| BatchRequest::Put(k * 10, value(k, 24)))
        .collect();
    let mut dirty = vec![
        BatchRequest::Put(5, value(5, 24)),    // insert: Clean touch
        BatchRequest::Put(10, value(0xa, 40)), // overwrite: Dirty
        BatchRequest::Delete(20),              // delete: Dirty, third touch
    ];
    // 10 entries now; five more overflow the 14-entry leaf while Dirty
    dirty.extend((11..=15u64).map(|k| BatchRequest::Put(k, value(k, 8))));
    let prog = [dirty];
    let rig = tree_rig(tree_cfg(1 << 18), base);
    let r = sweep(&rig, &prog, EVERY);
    assert_eq!(r.whole, 1);
    assert!(r.recoveries >= 132, "{} recoveries", r.recoveries);
    let torn = torn_heads(&rig, &prog);
    assert!(torn >= 508, "{torn} torn heads");
}

/// The hazard un-logging the shadow pages opens: a rolled-back attempt
/// leaves node pages stamped `(lpid, N+1)` on the free list, the retry
/// commits under the same version N+1 without touching them, and the
/// *next* recovery's header scan would prefer them to the live, older
/// copies. Recovery must void such headers before accepting writes —
/// two crash rounds are needed to see it (one recovery alone passes).
#[test]
fn retry_under_the_same_version_never_resurrects_a_dead_attempt() {
    let cfg = tree_cfg(1 << 21).tree;
    let mut first_modes = vec![CrashMode::AllInFlightLands];
    first_modes.extend((0..16).map(|seed| CrashMode::random(0.5, 0.5, seed)));
    for mode in first_modes {
        let mut t = Tree::create(&cfg).expect("format tree heap");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        // several commits, overwrites included, so the free list
        // holds recycled node pages for the next attempt to reuse
        for round in 0..8u64 {
            t.begin();
            for i in 0..25u64 {
                let key = (round * 25 + i) * 10;
                let v = value(key ^ 0xabcd, 24);
                t.put(key, &v).unwrap();
                model.insert(key, v);
            }
            for i in 0..10u64 {
                let key = ((round * 7 + i * 19) % (round * 25 + 25)) * 10;
                let v = value(key + round, 16);
                t.put(key, &v).unwrap();
                model.insert(key, v);
            }
            t.commit();
        }
        assert_eq!(t.len(), 200);
        assert!(t.free_pages() > 0, "load must populate the free list");

        // the doomed attempt: three far-apart leaves + a fresh key
        t.begin();
        for key in [10u64, 990, 1950] {
            t.put(key, b"doomed").unwrap();
        }
        t.put(5, b"doomed-insert").unwrap();
        t.crash_and_recover(&mode)
            .unwrap_or_else(|e| panic!("first recovery under {mode:?}: {e:?}"));
        if mode == CrashMode::AllInFlightLands {
            assert!(
                t.voided_pages() > 0,
                "every shadow header landed, so recovery must void some"
            );
        }

        // the retry commits under the same version, elsewhere
        t.begin();
        t.put(1500, b"retry").unwrap();
        t.commit();
        model.insert(1500, b"retry".to_vec());

        t.crash_and_recover(&CrashMode::StrictDurableOnly)
            .unwrap_or_else(|e| panic!("second recovery after {mode:?}: {e:?}"));
        assert_eq!(t.voided_pages(), 0, "nothing was in flight");
        let want: State = model.into_iter().collect();
        assert!(
            t.scan(None, 0, u64::MAX, usize::MAX) == want,
            "first crash {mode:?}: a dead attempt's page won the header scan",
        );
    }
}

fn hash_lanes(shards: usize) -> KvConfig {
    KvConfig {
        shards,
        shard: shard_cfg(PolicyKind::ScFixed { capacity: 8 }),
    }
}

/// Crashes between batches: with no FASE open, every acknowledged write
/// must survive each round's power failure of every lane under a
/// rotating adversary, and the healed lanes keep taking writes.
fn survives_crashes_between_batches<E: Engine>(
    server: &KvServer<E>,
    put: impl Fn(u64, &[u8]) -> bool,
    delete: impl Fn(u64) -> bool,
) {
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut s = 99u64;
    for round in 0..6u64 {
        for _ in 0..40 {
            let r = splitmix(&mut s);
            let key = splitmix(&mut s) % 64;
            if r.is_multiple_of(4) {
                assert_eq!(delete(key), model.remove(&key).is_some());
            } else {
                let v = value(splitmix(&mut s), 8 + (r % 32) as usize);
                assert!(put(key, &v));
                model.insert(key, v);
            }
        }
        server.crash_and_recover_all(&modes(round)[(round % 3) as usize]);
        assert_eq!(server.len(), model.len(), "round {round}");
        for (k, v) in &model {
            let got = server.handle().get(*k);
            assert_eq!(got.as_deref(), Some(&v[..]), "round {round} key {k}");
        }
        let want: State = model.clone().into_iter().collect();
        assert!(server.dump() == want, "round {round}: acked writes lost");
    }
    assert!(put(u64::MAX, b"last"));
    assert_eq!(server.handle().get(u64::MAX).as_deref(), Some(&b"last"[..]));
}

/// [`survives_crashes_between_batches`] on four hash lanes written
/// through `KvStore`'s embedded calls.
#[test]
fn store_survives_repeated_all_shard_crashes_between_ops() {
    let store = KvStore::new(&hash_lanes(4));
    survives_crashes_between_batches(&store, |k, v| store.put(k, v), |k| store.delete(k));
}

/// [`survives_crashes_between_batches`] on four tree lanes written
/// through a client, one transaction per call.
#[test]
fn tree_survives_repeated_crashes_between_transactions() {
    let tree = KvServer::new_tree(4, &tree_cfg(1 << 21), &ServerConfig::default());
    let c = tree.handle();
    survives_crashes_between_batches(&tree, |k, v| c.put(k, v), |k| c.delete(k));
}

/// Live concurrent crash-recovery: four closed-loop clients with
/// disjoint key spaces drive `server`'s lanes while the main thread
/// power-fails and recovers every lane five times under the strictest
/// adversary. Every write a client saw acked must be present with its
/// exact final value, and per-lane FIFO gives each client
/// read-your-writes across the crashes.
fn acked_writes_survive<E: Engine>(server: KvServer<E>) {
    const CLIENTS: u64 = 4;
    const KEYS_PER: u64 = 24;
    const ROUNDS: u64 = 150;
    let acked: Vec<HashMap<u64, Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut mine: HashMap<u64, Vec<u8>> = HashMap::new();
                    let mut s = 0xc0ff_ee00 + c;
                    for round in 0..ROUNDS {
                        let key = c * 1000 + splitmix(&mut s) % KEYS_PER;
                        let v = value(splitmix(&mut s), 24);
                        if client.put(key, &v) {
                            mine.insert(key, v);
                        }
                        if round.is_multiple_of(5) {
                            if let Some(expect) = mine.get(&key) {
                                assert_eq!(
                                    client.get(key).as_deref(),
                                    Some(&expect[..]),
                                    "client {c} lost read-your-writes on key {key}"
                                );
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            server.crash_and_recover_all(&CrashMode::StrictDurableOnly);
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.crash_and_recover_all(&CrashMode::StrictDurableOnly);
    let mut want: State = acked.into_iter().flatten().collect();
    want.sort();
    for (k, v) in &want {
        let got = server.handle().get(*k);
        assert_eq!(got.as_deref(), Some(&v[..]), "acked write to key {k} lost");
    }
    assert!(
        server.dump() == want,
        "the store holds exactly the acked writes"
    );
}

/// [`acked_writes_survive`] on two hash lanes and on two tree lanes.
#[test]
fn acked_writes_survive_live_crashes_under_concurrent_clients() {
    acked_writes_survive(KvServer::new(&hash_lanes(2), &ServerConfig::default()));
    let tree = tree_cfg(1 << 21);
    acked_writes_survive(KvServer::new_tree(2, &tree, &ServerConfig::default()));
}

/// Group commit is per-lane atomic: a crash armed a few micro-steps
/// into each lane's FASE, one client `put_many` spanning every lane, and
/// each captured image recovers either the lane's entire slice of the
/// group or none of it. Returns the images recovered.
fn put_many_cuts<E: Engine>(rig: Rig<E>) -> usize {
    const LANES: usize = 2;
    let mut recoveries = 0;
    for (delta, mode_seed) in [(1u64, 0u64), (3, 1), (7, 2), (13, 3), (29, 4), (53, 5)] {
        let lanes = (0..LANES).map(|_| (rig.fresh)());
        let server = KvServer::with_engines(lanes, &ServerConfig::default());
        let c = server.handle();
        // fixed-length values: updates stay in place, groups never refused
        for k in 0..64u64 {
            assert!(c.put(k, &value(k, 24)));
        }
        let pre: Vec<_> = (0..LANES).map(|i| server.with_shard(i, E::dump)).collect();
        let mode = modes(mode_seed)[(mode_seed % 3) as usize].clone();
        for i in 0..LANES {
            server.with_shard(i, |e| {
                let at_step = e.steps() + delta;
                e.arm_crash(CrashPlan {
                    at_step,
                    mode: mode.clone(),
                });
            });
        }
        let items: Vec<_> = (0..64u64).map(|k| (k, value(k ^ 0xbeef, 24))).collect();
        assert!(c.put_many(&items));
        for (i, pre) in pre.iter().enumerate() {
            let post = server.with_shard(i, E::dump);
            let image = server
                .with_shard(i, E::take_crash_image)
                .unwrap_or_else(|| panic!("delta {delta}: lane {i}'s group too short to trip"));
            let got = (rig.reopen)(image).expect("recovery").dump();
            assert!(
                got == *pre || got == post,
                "delta {delta} {mode:?} lane {i}: part of a group visible \
                 ({} of {} keys updated)",
                got.iter().filter(|e| !pre.contains(e)).count(),
                post.iter().filter(|e| !pre.contains(e)).count(),
            );
            recoveries += 1;
        }
    }
    recoveries
}

/// [`put_many_cuts`] on hash lanes and on tree lanes, both under ATLAS.
#[test]
fn put_many_is_all_or_nothing_per_shard_at_every_armed_cut() {
    let atlas = PolicyKind::Atlas { size: 8 };
    let hash = put_many_cuts(shard_rig(shard_cfg(atlas.clone()), Vec::new()));
    let mut cfg = tree_cfg(1 << 21);
    cfg.tree.policy = atlas;
    let tree = put_many_cuts(tree_rig(cfg, Vec::new()));
    assert!(hash >= 12 && tree >= 12, "{hash} + {tree} recoveries");
}
