//! Crash-point sweeps over the persistent KV layer: deterministic op
//! programs against live shards, a crash injected at sampled
//! persistence micro-steps under all three crash adversaries, recovery
//! via `Shard::reopen_from_image` — the recovered table must equal the
//! state after the last *committed* operation, exactly (each put /
//! delete / group-commit batch is one FASE; "all or none").
//!
//! This is the serving-layer analogue of `crash_fuzz.rs`: that suite
//! enumerates crash points of raw FASE programs; this one drives the
//! hash-table code paths on top (bucket threading, node replacement,
//! allocator traffic between FASEs) where an atomicity bug would
//! corrupt real structure, not just slot values.

use nvcache::core::{AdaptiveConfig, PolicyKind};
use nvcache::kvstore::{
    BatchReply, BatchRequest, KvConfig, KvServer, KvStore, ServerConfig, Shard, ShardConfig,
};
use nvcache::pmem::{CrashMode, CrashPlan};
use std::collections::HashMap;

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

#[derive(Clone, Debug)]
enum Op {
    Put(u64, Vec<u8>),
    PutMany(Vec<(u64, Vec<u8>)>),
    Delete(u64),
}

/// A deterministic program over a small key universe: single puts with
/// varying value classes (in-place updates and node replacements),
/// deletes, and multi-key group-commit batches.
fn program(seed: u64, ops: usize, keys: u64) -> Vec<Op> {
    let mut s = seed;
    (0..ops)
        .map(|_| {
            let r = splitmix(&mut s);
            let key = splitmix(&mut s) % keys;
            match r % 6 {
                0..=2 => Op::Put(key, value(splitmix(&mut s), 8 + (r % 40) as usize)),
                3 => Op::Delete(key),
                _ => {
                    let n = 2 + (r % 5) as usize;
                    Op::PutMany(
                        (0..n)
                            .map(|_| {
                                let k = splitmix(&mut s) % keys;
                                (k, value(splitmix(&mut s), 24))
                            })
                            .collect(),
                    )
                }
            }
        })
        .collect()
}

fn apply(s: &mut Shard, op: &Op) {
    // A `false` return (e.g. a batch aborted because a key's value
    // length changed) is a legal no-op; determinism is what matters.
    match op {
        Op::Put(k, v) => {
            s.put(*k, v);
        }
        Op::PutMany(items) => {
            s.put_many(items);
        }
        Op::Delete(k) => {
            s.delete(*k);
        }
    }
}

fn shard_cfg(policy: PolicyKind, slab: bool) -> ShardConfig {
    ShardConfig {
        buckets: 16, // few buckets → long chains → bucket threading under stress
        data_len: 1 << 18,
        log_len: 1 << 15,
        policy,
        adapt: None,
        pipelined: slab,
    }
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Eager,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 8 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 64,
            ..Default::default()
        }),
    ]
}

fn modes(seed: u64) -> Vec<CrashMode> {
    vec![
        CrashMode::StrictDurableOnly,
        CrashMode::AllInFlightLands,
        CrashMode::random(0.5, 0.5, seed),
    ]
}

type Snapshot = Vec<(u64, Vec<u8>)>;

/// Record, per committed op, the micro-step counter and a full dump.
/// `commit_steps[j]` / `snaps[j]` describe the state after `j` ops.
fn record(cfg: &ShardConfig, prog: &[Op]) -> (Vec<u64>, Vec<Snapshot>) {
    let mut s = Shard::new(cfg);
    let mut commit_steps = vec![s.steps()];
    let mut snaps = vec![s.dump()];
    for op in prog {
        apply(&mut s, op);
        commit_steps.push(s.steps());
        snaps.push(s.dump());
    }
    (commit_steps, snaps)
}

/// Crash at micro-step `k` (sampled), recover, compare to the snapshot
/// of the last op whose commit step is ≤ `k`.
#[test]
fn shard_recovers_committed_prefix_at_sampled_micro_steps() {
    let prog = program(2017, 30, 24);
    for (policy, slab) in policies()
        .into_iter()
        .flat_map(|p| [(p.clone(), false), (p, true)])
    {
        let cfg = shard_cfg(policy, slab);
        let (commit_steps, snaps) = record(&cfg, &prog);
        let setup = commit_steps[0];
        let total = *commit_steps.last().unwrap();
        assert!(total > setup + 100, "program must generate real step mass");
        // ~40 crash points per (policy, mode), spread over the program
        let stride = ((total - setup) / 40).max(1);
        for (mi, mode_seed) in [7u64, 8, 9].into_iter().enumerate() {
            let mut k = setup + 1;
            while k < total {
                let mode = modes(mode_seed).swap_remove(mi);
                let mut s = Shard::new(&cfg);
                s.arm_crash(CrashPlan {
                    at_step: k,
                    mode: mode.clone(),
                });
                for op in &prog {
                    apply(&mut s, op);
                }
                let image = s.take_crash_image().expect("crash step within program");
                let mut rec = Shard::reopen_from_image(image, &cfg)
                    .unwrap_or_else(|e| panic!("recovery failed at step {k}: {e:?}"));
                let committed = commit_steps.iter().rposition(|&c| c <= k).unwrap();
                let got = rec.dump();
                // The op in progress may already have committed its
                // FASE (post-commit bookkeeping — freeing an unlinked
                // or replaced node, applying a pending capacity — also
                // advances the step counter), so its own snapshot is
                // legal too. Nothing else is: a size-changing put
                // replaces its node inside one FASE.
                assert!(
                    got == snaps[committed] || Some(&got) == snaps.get(committed + 1),
                    "policy {} alloc {} mode {mode:?} crash at step {k}: state is \
                     neither op {committed}'s snapshot nor op {}'s",
                    cfg.policy.label(),
                    if slab { "slab" } else { "heap" },
                    committed + 1,
                );
                assert_eq!(rec.len(), got.len());
                k += stride;
            }
        }
    }
}

/// Whole-store kill between operations: every shard power-fails and
/// recovers in-process; since no FASE is open, *every* completed op
/// must survive, across repeated crashes under rotating adversaries.
#[test]
fn store_survives_repeated_all_shard_crashes_between_ops() {
    let store = KvStore::new(&KvConfig {
        shards: 4,
        shard: shard_cfg(PolicyKind::ScFixed { capacity: 8 }, true),
    });
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut s = 99u64;
    for round in 0..6u64 {
        for _ in 0..40 {
            let r = splitmix(&mut s);
            let key = splitmix(&mut s) % 64;
            if r.is_multiple_of(4) {
                store.delete(key);
                model.remove(&key);
            } else {
                let v = value(splitmix(&mut s), 8 + (r % 32) as usize);
                assert!(store.put(key, &v));
                model.insert(key, v);
            }
        }
        let mode = modes(round).swap_remove((round % 3) as usize);
        store.crash_and_recover_all(&mode);
        assert_eq!(store.len(), model.len(), "round {round}");
        for (k, v) in &model {
            assert_eq!(
                store.get(*k).as_deref(),
                Some(&v[..]),
                "round {round} key {k}"
            );
        }
    }
    let mut dump = store.dump();
    dump.sort();
    let mut want: Vec<_> = model.into_iter().collect();
    want.sort();
    assert_eq!(dump, want);
}

/// Deterministic request batches for the concurrent submission path:
/// Gets, Puts, and PutManys with fixed-length values and no Deletes, so
/// each batch the worker drains is exactly one cross-client FASE (no
/// segment barriers, no length-change rejection replay).
fn batch_program(seed: u64, batches: usize, keys: u64) -> Vec<Vec<BatchRequest>> {
    let mut s = seed;
    (0..batches)
        .map(|_| {
            let n = 2 + (splitmix(&mut s) % 6) as usize;
            (0..n)
                .map(|_| {
                    let r = splitmix(&mut s);
                    let key = splitmix(&mut s) % keys;
                    match r % 4 {
                        0 => BatchRequest::Get(key),
                        1 => {
                            let m = 2 + (r % 3) as usize;
                            BatchRequest::PutMany(
                                (0..m)
                                    .map(|_| {
                                        let k = splitmix(&mut s) % keys;
                                        (k, value(splitmix(&mut s), 24))
                                    })
                                    .collect(),
                            )
                        }
                        _ => BatchRequest::Put(key, value(splitmix(&mut s), 24)),
                    }
                })
                .collect()
        })
        .collect()
}

/// Serve `prog` on a fresh shard with a crash armed at micro-step `k`,
/// then recover the captured image.
fn recover_at(cfg: &ShardConfig, prog: &[Vec<BatchRequest>], k: u64, mode: &CrashMode) -> Shard {
    let mut s = Shard::new(cfg);
    s.arm_crash(CrashPlan {
        at_step: k,
        mode: mode.clone(),
    });
    for batch in prog {
        s.serve_batch(batch);
    }
    let image = s.take_crash_image().expect("crash step within program");
    Shard::reopen_from_image(image, cfg)
        .unwrap_or_else(|e| panic!("recovery failed at step {k}: {e:?}"))
}

/// The concurrent submission path's committed-prefix oracle: drive a
/// shard through `serve_batch` group commits, crash at sampled
/// micro-steps, recover. The recovered table must equal the state after
/// a whole number of *acknowledged* batches (the last one whose commit
/// step precedes the cut, or the one mid-commit at the cut) — a batch
/// merging several clients' writes is never visible in part.
#[test]
fn serve_batch_recovers_a_committed_prefix_of_acked_batches() {
    let prog = batch_program(4242, 14, 24);
    for (policy, slab) in [
        (PolicyKind::ScFixed { capacity: 8 }, true),
        (PolicyKind::ScFixed { capacity: 8 }, false),
        (PolicyKind::Eager, true),
        (PolicyKind::Atlas { size: 8 }, false),
    ] {
        let cfg = shard_cfg(policy, slab);
        // counting pass: commit step + full dump after each acked batch
        let mut s = Shard::new(&cfg);
        let mut commit_steps = vec![s.steps()];
        let mut snaps = vec![s.dump()];
        for batch in &prog {
            s.serve_batch(batch);
            commit_steps.push(s.steps());
            snaps.push(s.dump());
        }
        let setup = commit_steps[0];
        let total = *commit_steps.last().unwrap();
        assert!(total > setup + 100, "program must generate real step mass");
        let stride = ((total - setup) / 50).max(1);
        for (mi, mode_seed) in [21u64, 22, 23].into_iter().enumerate() {
            let mut k = setup + 1;
            while k < total {
                let mode = modes(mode_seed).swap_remove(mi);
                let mut rec = recover_at(&cfg, &prog, k, &mode);
                let committed = commit_steps.iter().rposition(|&c| c <= k).unwrap();
                let got = rec.dump();
                assert!(
                    got == snaps[committed] || Some(&got) == snaps.get(committed + 1),
                    "policy {} alloc {} mode {mode:?} crash at step {k}: torn group \
                     commit — state is neither batch {committed}'s snapshot nor \
                     batch {}'s",
                    cfg.policy.label(),
                    if slab { "slab" } else { "heap" },
                    committed + 1,
                );
                k += stride;
            }
        }
    }

    // Resizing `Put`s over acknowledged keys (3 per batch, a length
    // class drawn per request over 6 keys): the grouped commit rejects
    // the segment and `serve_batch` replays it request by request
    // through `Shard::put`'s node replacement, so the cut may fall
    // between two requests of one batch and the oracle is per key. A key
    // recovers to the value the last acknowledged batch left or to one
    // the batch in flight writes to it, and an acknowledged key is never
    // absent. Every micro-step, slab and heap allocation, all three
    // adversaries.
    let mut seed = 77u64;
    let prog: Vec<Vec<BatchRequest>> = (0..8)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let r = splitmix(&mut seed);
                    let len = 8 + 16 * (r >> 8 & 3) as usize;
                    BatchRequest::Put(r % 6, value(splitmix(&mut seed), len))
                })
                .collect()
        })
        .collect();
    for slab in [false, true] {
        // a small region: one image is copied per cut
        let cfg = ShardConfig {
            data_len: 1 << 14,
            log_len: 1 << 13,
            ..shard_cfg(PolicyKind::ScFixed { capacity: 8 }, slab)
        };
        let mut s = Shard::new(&cfg);
        let mut commit_steps = vec![s.steps()];
        let mut snaps = vec![s.dump()];
        let mut resizes = 0;
        for batch in &prog {
            for req in batch {
                if let BatchRequest::Put(key, v) = req {
                    resizes += usize::from(s.get(*key).is_some_and(|old| old.len() != v.len()));
                }
            }
            let replies = s.serve_batch(batch);
            assert!(replies.iter().all(|r| *r == BatchReply::Done(true)));
            commit_steps.push(s.steps());
            snaps.push(s.dump());
        }
        assert!(resizes >= 10, "only {resizes} puts resize an acked key");
        for (mi, mode_seed) in [31u64, 32, 33].into_iter().enumerate() {
            let mode = modes(mode_seed).swap_remove(mi);
            for k in commit_steps[0] + 1..*commit_steps.last().unwrap() {
                let got = recover_at(&cfg, &prog, k, &mode).dump();
                let committed = commit_steps.iter().rposition(|&c| c <= k).unwrap();
                let acked = &snaps[committed];
                let ctx = || format!("slab {slab} mode {mode:?} crash at step {k}");
                for (key, _) in acked {
                    assert!(
                        got.iter().any(|(k2, _)| k2 == key),
                        "{}: acknowledged key {key} is absent after recovery",
                        ctx()
                    );
                }
                for (key, v) in &got {
                    let put = BatchRequest::Put(*key, v.clone());
                    assert!(
                        acked.contains(&(*key, v.clone())) || prog[committed].contains(&put),
                        "{}: key {key} recovered a value no request wrote",
                        ctx()
                    );
                }
            }
        }
    }
}

/// Live concurrent crash-recovery: four closed-loop clients with
/// disjoint key spaces drive a running `KvServer` through its MPSC
/// lanes while the main thread repeatedly power-fails and recovers
/// every shard under the strictest adversary. Acknowledged means
/// durable: every write a client saw acked must be present with its
/// exact final value once the dust settles, and per-lane FIFO gives
/// each client read-your-writes across the crashes.
#[test]
fn acked_writes_survive_live_crashes_under_concurrent_clients() {
    const CLIENTS: u64 = 4;
    const KEYS_PER: u64 = 24;
    const ROUNDS: u64 = 150;
    let server = KvServer::new(
        &KvConfig {
            shards: 2,
            shard: shard_cfg(PolicyKind::ScFixed { capacity: 8 }, true),
        },
        &ServerConfig::default(),
    );
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
        // main thread: power-fail every shard mid-run, repeatedly
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            server.crash_and_recover_all(&CrashMode::StrictDurableOnly);
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.crash_and_recover_all(&CrashMode::StrictDurableOnly);
    let handle = server.client();
    let mut want: Vec<(u64, Vec<u8>)> = acked.into_iter().flatten().collect();
    want.sort();
    for (k, v) in &want {
        assert_eq!(
            handle.get(*k).as_deref(),
            Some(&v[..]),
            "acked write to key {k} lost"
        );
    }
    let mut dump = server.dump();
    dump.sort();
    assert_eq!(dump, want, "store holds exactly the acked writes");
}

/// Group commit is per-shard atomic: arm a crash a few micro-steps into
/// each shard's batch FASE, run one `put_many` spanning all shards, and
/// reopen every captured image — each shard must surface either its
/// entire slice of the batch or none of it, never a partial batch.
#[test]
fn put_many_is_all_or_nothing_per_shard_at_every_armed_cut() {
    const SHARDS: usize = 2;
    for (delta, mode_seed) in [(1u64, 0u64), (3, 1), (7, 2), (13, 3), (29, 4), (53, 5)] {
        let cfg = shard_cfg(PolicyKind::Atlas { size: 8 }, mode_seed.is_multiple_of(2));
        let store = KvStore::new(&KvConfig {
            shards: SHARDS,
            shard: cfg.clone(),
        });
        // fixed-length values: updates stay in place, batches never abort
        for k in 0..64u64 {
            assert!(store.put(k, &value(k, 24)));
        }
        let pre: Vec<_> = (0..SHARDS)
            .map(|i| store.with_shard(i, |s| s.dump()))
            .collect();
        let mode = modes(mode_seed).swap_remove((mode_seed % 3) as usize);
        for i in 0..SHARDS {
            store.with_shard(i, |s| {
                let at = s.steps() + delta;
                s.arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
            });
        }
        let batch: Vec<_> = (0..64u64).map(|k| (k, value(k ^ 0xbeef, 24))).collect();
        assert!(store.put_many(&batch));
        let post: Vec<_> = (0..SHARDS)
            .map(|i| store.with_shard(i, |s| s.dump()))
            .collect();
        for i in 0..SHARDS {
            let image = store
                .with_shard(i, |s| s.take_crash_image())
                .unwrap_or_else(|| panic!("delta {delta}: shard {i} batch too short to trip"));
            let mut rec = Shard::reopen_from_image(image, &cfg).expect("recovery");
            let got = rec.dump();
            assert!(
                got == pre[i] || got == post[i],
                "delta {delta} mode {mode:?} shard {i}: partial batch visible \
                 ({} of {} keys updated)",
                got.iter().filter(|e| !pre[i].contains(e)).count(),
                post[i].iter().filter(|e| !pre[i].contains(e)).count(),
            );
        }
    }
}
