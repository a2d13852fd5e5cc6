//! Crash-point sweeps over the CoW B+-tree engine: deterministic
//! programs of committed transactions, a crash injected at sampled
//! persistence micro-steps under all three crash adversaries (and, in
//! the every-step sweep, a fourth that tears the meta head), recovery
//! via `Tree::reopen_from_image` — the recovered tree must equal the
//! state after the last *committed* transaction, exactly (each
//! `begin()..commit()` is one FASE: the whole batch of puts and
//! deletes lands or none of it does).
//!
//! This is the tree-engine analogue of `kv_crash.rs`: that suite
//! stresses hash-table structure (bucket threading, node replacement);
//! this one stresses copy-on-write structure — page splits, inner-node
//! rebuilds, root swings, free-list pushes — where a torn commit would
//! surface as a broken tree, not just a stale value.

use nvcache::core::PolicyKind;
use nvcache::pmem::{CrashMode, CrashPlan};
use nvcache::treestore::{RootStore, Tree, TreeConfig};
use std::collections::BTreeMap;

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
enum TxnOp {
    Put(u64, Vec<u8>),
    Delete(u64),
}

/// A deterministic program of transactions over a small key universe:
/// each txn mixes puts (varying value classes → leaf churn, splits,
/// value-extent reallocation) with deletes (merges, free-list traffic).
fn program(seed: u64, txns: usize, keys: u64) -> Vec<Vec<TxnOp>> {
    let mut s = seed;
    (0..txns)
        .map(|_| {
            let n = 3 + (splitmix(&mut s) % 10) as usize;
            (0..n)
                .map(|_| {
                    let r = splitmix(&mut s);
                    let key = splitmix(&mut s) % keys;
                    if r.is_multiple_of(5) {
                        TxnOp::Delete(key)
                    } else {
                        TxnOp::Put(key, value(splitmix(&mut s), 8 + (r % 40) as usize))
                    }
                })
                .collect()
        })
        .collect()
}

fn apply_txn(t: &mut Tree, txn: &[TxnOp]) {
    t.begin();
    for op in txn {
        match op {
            TxnOp::Put(k, v) => {
                t.put(*k, v).expect("put within capacity");
            }
            TxnOp::Delete(k) => {
                t.delete(*k).expect("delete");
            }
        }
    }
    t.commit();
}

fn cfg(slab: bool) -> TreeConfig {
    TreeConfig {
        data_len: 1 << 21,
        log_len: 1 << 18,
        policy: PolicyKind::ScFixed { capacity: 8 },
        pipelined: slab,
    }
}

fn modes(seed: u64) -> Vec<CrashMode> {
    vec![
        CrashMode::StrictDurableOnly,
        CrashMode::AllInFlightLands,
        CrashMode::random(0.5, 0.5, seed),
    ]
}

type Snapshot = Vec<(u64, Vec<u8>)>;

fn dump(t: &Tree) -> Snapshot {
    t.scan(None, 0, u64::MAX, usize::MAX)
}

/// Record, per committed txn, the micro-step counter and a full dump.
/// `commit_steps[j]` / `snaps[j]` describe the state after `j` txns.
fn record(cfg: &TreeConfig, prog: &[Vec<TxnOp>]) -> (Vec<u64>, Vec<Snapshot>) {
    let mut t = Tree::create(cfg).expect("format tree heap");
    let mut commit_steps = vec![t.steps()];
    let mut snaps = vec![dump(&t)];
    for txn in prog {
        apply_txn(&mut t, txn);
        commit_steps.push(t.steps());
        snaps.push(dump(&t));
    }
    (commit_steps, snaps)
}

/// Crash at micro-step `k` (sampled), recover, compare to the snapshot
/// of the last txn whose commit step is ≤ `k` — committed-prefix
/// semantics over whole transactions, with the slab and without.
#[test]
fn tree_recovers_committed_prefix_at_sampled_micro_steps() {
    let prog = program(1986, 24, 48);
    for slab in [false, true] {
        let cfg = cfg(slab);
        let (commit_steps, snaps) = record(&cfg, &prog);
        let setup = commit_steps[0];
        let total = *commit_steps.last().unwrap();
        assert!(total > setup + 200, "program must generate real step mass");
        // ~45 crash points per mode, spread over the program
        let stride = ((total - setup) / 45).max(1);
        for (mi, mode_seed) in [11u64, 12, 13].into_iter().enumerate() {
            let mut k = setup + 1;
            while k < total {
                let mode = modes(mode_seed).swap_remove(mi);
                let mut t = Tree::create(&cfg).expect("format tree heap");
                t.arm_crash(CrashPlan {
                    at_step: k,
                    mode: mode.clone(),
                });
                for txn in &prog {
                    apply_txn(&mut t, txn);
                }
                let image = t.take_crash_image().expect("crash step within program");
                let rec = Tree::reopen_from_image(image, &cfg)
                    .unwrap_or_else(|e| panic!("recovery failed at step {k}: {e:?}"));
                let committed = commit_steps.iter().rposition(|&c| c <= k).unwrap();
                let got = dump(&rec);
                // The txn in progress may already have committed its
                // FASE at the cut (post-commit bookkeeping — version
                // bumps, free-list pushes — also advances the step
                // counter), so its own snapshot is legal too. Nothing
                // in between ever is: a txn is never visible in part.
                assert!(
                    got == snaps[committed] || Some(&got) == snaps.get(committed + 1),
                    "alloc {} mode {mode:?} crash at step {k}: torn transaction — \
                     state is neither txn {committed}'s snapshot nor txn {}'s",
                    if slab { "slab" } else { "heap" },
                    committed + 1,
                );
                // recovered structural metadata must agree with the data
                assert_eq!(rec.len(), got.len() as u64, "len() vs full scan");
                for (key, v) in &got {
                    assert_eq!(
                        rec.get(*key).as_deref(),
                        Some(&v[..]),
                        "point read disagrees with scan after recovery at step {k}"
                    );
                }
                k += stride;
            }
        }
    }
}

/// In-process power-fail between transactions under rotating
/// adversaries: with no txn open, *every* committed txn must survive
/// `crash_and_recover`, and the recovered tree must stay fully usable
/// (new txns commit, scans agree with a shadow model, reclamation
/// still drains retired pages).
#[test]
fn tree_survives_repeated_crashes_between_transactions() {
    let cfg = cfg(true);
    let mut t = Tree::create(&cfg).expect("format tree heap");
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut s = 777u64;
    for round in 0..8u64 {
        for _ in 0..5 {
            t.begin();
            for _ in 0..12 {
                let r = splitmix(&mut s);
                let key = splitmix(&mut s) % 96;
                if r.is_multiple_of(5) {
                    t.delete(key).unwrap();
                    model.remove(&key);
                } else {
                    let v = value(splitmix(&mut s), 8 + (r % 48) as usize);
                    t.put(key, &v).unwrap();
                    model.insert(key, v);
                }
            }
            t.commit();
        }
        let mode = modes(round).swap_remove((round % 3) as usize);
        t.crash_and_recover(&mode)
            .unwrap_or_else(|e| panic!("round {round}: recovery failed: {e:?}"));
        assert_eq!(t.len(), model.len() as u64, "round {round}: live-key count");
        let want: Snapshot = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(dump(&t), want, "round {round}: committed txns lost");
        t.reclaim();
    }
    // the healed tree still takes new commits
    t.begin();
    t.put(u64::MAX, b"last").unwrap();
    t.commit();
    assert_eq!(t.get(u64::MAX).as_deref(), Some(&b"last"[..]));
}

/// A crash *inside* a structure-heavy transaction — one that forces a
/// cascade of leaf splits and a root swing from a cold start — must
/// recover to the exact pre-txn state at every early micro-step: CoW
/// means the old root's page graph is never modified in place.
#[test]
fn mid_split_crash_recovers_the_old_root_graph() {
    let cfg = cfg(true);
    // baseline: 40 keys committed, then one txn inserting 300 more
    let big: Vec<TxnOp> = (1000..1300u64)
        .map(|k| TxnOp::Put(k, value(k, 24)))
        .collect();
    let mut t = Tree::create(&cfg).unwrap();
    apply_txn(
        &mut t,
        &(0..40u64)
            .map(|k| TxnOp::Put(k, value(k, 16)))
            .collect::<Vec<_>>(),
    );
    let base_steps = t.steps();
    let base = dump(&t);
    apply_txn(&mut t, &big);
    let end_steps = t.steps();
    let full = dump(&t);
    assert!(
        end_steps > base_steps + 300,
        "split cascade must cost steps"
    );

    let stride = ((end_steps - base_steps) / 30).max(1);
    let mut k = base_steps + 1;
    while k < end_steps {
        let mut t = Tree::create(&cfg).unwrap();
        apply_txn(
            &mut t,
            &(0..40u64)
                .map(|k| TxnOp::Put(k, value(k, 16)))
                .collect::<Vec<_>>(),
        );
        t.arm_crash(CrashPlan {
            at_step: k,
            mode: CrashMode::StrictDurableOnly,
        });
        apply_txn(&mut t, &big);
        let image = t.take_crash_image().expect("crash inside the big txn");
        let rec = Tree::reopen_from_image(image, &cfg)
            .unwrap_or_else(|e| panic!("recovery failed at step {k}: {e:?}"));
        let got = dump(&rec);
        assert!(
            got == base || got == full,
            "crash at step {k}: partial split cascade visible \
             ({} of 300 inserted keys present)",
            got.len().saturating_sub(base.len()),
        );
        k += stride;
    }
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

/// One transaction that keeps coming back to a leaf it has staged — an
/// insert (the first touch: shadow page + used-byte copy), an overwrite
/// and a delete edited in place, then enough inserts to fill the staged
/// leaf and split it while Dirty — crashed at *every* micro-step, under
/// every adversary, with the slab and without. In-place edits of a shadow
/// page are stores of a few words each, landing (or not) line by line:
/// none of them may be visible before the head flip, all of them after.
/// The head itself may land torn: a fourth adversary tears it word by
/// word in the publish window, and only the whole new head may commit.
#[test]
fn dirty_leaf_edits_and_split_are_atomic_at_every_micro_step() {
    let base_txn: Vec<TxnOp> = (0..10u64)
        .map(|k| TxnOp::Put(k * 10, value(k, 24)))
        .collect();
    let mut dirty_txn = vec![
        TxnOp::Put(5, value(5, 24)),    // insert: Clean touch
        TxnOp::Put(10, value(0xa, 40)), // overwrite: Dirty
        TxnOp::Delete(20),              // delete: Dirty, third touch
    ];
    // 10 entries now; five more overflow the 14-entry leaf while Dirty
    dirty_txn.extend((11..=15u64).map(|k| TxnOp::Put(k, value(k, 8))));
    for slab in [false, true] {
        let cfg = TreeConfig {
            data_len: 1 << 18,
            ..cfg(slab)
        };
        let mut t = Tree::create(&cfg).unwrap();
        let meta = t.store().root() as usize;
        apply_txn(&mut t, &base_txn);
        let (base_steps, base) = (t.steps(), dump(&t));
        apply_txn(&mut t, &dirty_txn);
        let (end_steps, full) = (t.steps(), dump(&t));
        assert_eq!(t.height(), 2, "the staged leaf must have split");
        assert_eq!(full.len(), base.len() + 5);
        let mut torn_cuts = 0;
        for k in base_steps + 1..end_steps {
            let mut images = Vec::new();
            for mode in modes(k) {
                let mut t = Tree::create(&cfg).unwrap();
                apply_txn(&mut t, &base_txn);
                t.arm_crash(CrashPlan {
                    at_step: k,
                    mode: mode.clone(),
                });
                apply_txn(&mut t, &dirty_txn);
                let image = t.take_crash_image().expect("crash inside the txn");
                images.push(image.clone());
                let mut rec = Tree::reopen_from_image(image, &cfg)
                    .unwrap_or_else(|e| panic!("recovery failed at step {k}: {e:?}"));
                let got = dump(&rec);
                assert!(
                    got == base || got == full,
                    "alloc {} mode {mode:?} crash at step {k}: torn transaction \
                     ({} entries, base {}, full {})",
                    if slab { "slab" } else { "heap" },
                    got.len(),
                    base.len(),
                    full.len(),
                );
                assert_eq!(rec.len(), got.len() as u64, "len() vs full scan");
                // the retry runs over whatever the dead attempt left in
                // its shadow pages
                if got == base {
                    apply_txn(&mut rec, &dirty_txn);
                    assert_eq!(dump(&rec), full, "retry after a crash at step {k}");
                }
            }
            // modes() is strict, all-lands, random
            let (strict, landed) = (&images[0], &images[1]);
            let torn = torn_head_images(strict, landed, meta);
            torn_cuts += !torn.is_empty() as usize;
            for image in torn {
                let whole = image == *landed;
                let rec = Tree::reopen_from_image(image, &cfg)
                    .unwrap_or_else(|e| panic!("torn head at step {k}: recovery failed: {e:?}"));
                let want = if whole { &full } else { &base };
                assert!(
                    dump(&rec) == *want,
                    "alloc {} step {k}: a torn head was taken for a commit",
                    if slab { "slab" } else { "heap" },
                );
            }
        }
        assert_eq!(torn_cuts, 2, "the publish window: written, then flushed");
    }
}

/// The hazard un-logging the shadow pages opens: a rolled-back attempt
/// leaves node pages stamped `(lpid, N+1)` on the free list, the retry
/// commits under the same version N+1 without touching them, and the
/// *next* recovery's header scan would prefer them to the live, older
/// copies. Recovery must void such headers before accepting writes —
/// two crash rounds are needed to see it (one recovery alone passes).
#[test]
fn retry_under_the_same_version_never_resurrects_a_dead_attempt() {
    for slab in [false, true] {
        let cfg = cfg(slab);
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
            let want: Snapshot = model.iter().map(|(k, v)| (*k, v.clone())).collect();
            assert!(
                dump(&t) == want,
                "alloc {} first crash {mode:?}: a dead attempt's page won the header scan",
                if slab { "slab" } else { "heap" },
            );
        }
    }
}
