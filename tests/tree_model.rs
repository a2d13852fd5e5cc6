//! Differential model tests for the CoW B+-tree engine: the tree must
//! agree with `std::collections::BTreeMap` — the obviously-correct
//! ordered-map oracle — over long randomized op streams (puts with
//! varying value classes, deletes, point gets, bounded range scans),
//! and its MVCC snapshots must stay frozen while writers commit.

use nvcache::core::PolicyKind;
use nvcache::fase::SegmentTable;
use nvcache::pmem::CrashMode;
use nvcache::treestore::{Snapshot, Tree, TreeConfig, TreeError, MAX_VALUE};
use std::collections::BTreeMap;
use std::sync::Mutex;

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

fn cfg() -> TreeConfig {
    TreeConfig {
        data_len: 1 << 21,
        log_len: 1 << 18,
        policy: PolicyKind::ScFixed { capacity: 8 },
        pipelined: true,
    }
}

/// Model scan: the BTreeMap's answer to `scan(lo..=hi, limit)`.
fn model_scan(
    model: &BTreeMap<u64, Vec<u8>>,
    lo: u64,
    hi: u64,
    limit: usize,
) -> Vec<(u64, Vec<u8>)> {
    if lo > hi {
        return Vec::new();
    }
    model
        .range(lo..=hi)
        .take(limit)
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

/// 3000 randomized ops over a small key universe (forcing updates,
/// replacements, and delete/re-insert churn), chunked into
/// transactions, interleaved with point-get and range-scan probes —
/// every probe must match the BTreeMap oracle exactly.
#[test]
fn tree_matches_btreemap_over_randomized_streams() {
    for seed in [3u64, 1717, 0xdead_beef] {
        let mut t = Tree::create(&cfg()).expect("format tree heap");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut s = seed;
        let keys = 160u64;
        let mut in_txn_ops = 0;
        t.begin();
        for _ in 0..3000 {
            let r = splitmix(&mut s);
            let key = splitmix(&mut s) % keys;
            match r % 10 {
                // puts dominate so the tree grows, splits, and churns
                0..=4 => {
                    // vary the value class: empty, short, spanning, max
                    let len = match r % 4 {
                        0 => 0,
                        1 => 1 + (splitmix(&mut s) % 40) as usize,
                        2 => 100 + (splitmix(&mut s) % 100) as usize,
                        _ => MAX_VALUE,
                    };
                    let v = value(splitmix(&mut s), len);
                    t.put(key, &v).expect("put within capacity");
                    model.insert(key, v);
                }
                5..=6 => {
                    let existed = t.delete(key).expect("delete");
                    assert_eq!(existed, model.remove(&key).is_some(), "delete({key})");
                }
                7..=8 => {
                    assert_eq!(t.get(key), model.get(&key).cloned(), "get({key})");
                }
                _ => {
                    let a = splitmix(&mut s) % (keys + 20);
                    let b = splitmix(&mut s) % (keys + 20);
                    let limit = (splitmix(&mut s) % 32) as usize + 1;
                    // both orientations: forward ranges and inverted
                    // (lo > hi ⇒ empty) must agree with the model
                    assert_eq!(
                        t.scan(None, a, b, limit),
                        model_scan(&model, a, b, limit),
                        "scan({a}..={b}, {limit})"
                    );
                }
            }
            in_txn_ops += 1;
            if in_txn_ops >= 64 {
                t.commit();
                t.begin();
                in_txn_ops = 0;
            }
        }
        t.commit();
        assert_eq!(t.len(), model.len() as u64, "live-key count");
        assert_eq!(
            t.scan(None, 0, u64::MAX, usize::MAX),
            model_scan(&model, 0, u64::MAX, usize::MAX),
            "full dump"
        );
    }
}

/// Scan boundary semantics, pinned explicitly: inclusive bounds,
/// lo == hi point ranges, inverted ranges, limit truncation, and
/// scanning past the last key.
#[test]
fn scan_boundaries_are_inclusive_and_limit_bounded() {
    let mut t = Tree::create(&cfg()).unwrap();
    t.begin();
    for k in (10..=100u64).step_by(10) {
        t.put(k, &k.to_le_bytes()).unwrap();
    }
    t.commit();

    // inclusive on both ends
    let got = t.scan(None, 20, 40, usize::MAX);
    assert_eq!(
        got.iter().map(|e| e.0).collect::<Vec<_>>(),
        vec![20, 30, 40]
    );
    // bounds between keys
    let got = t.scan(None, 21, 39, usize::MAX);
    assert_eq!(got.iter().map(|e| e.0).collect::<Vec<_>>(), vec![30]);
    // point range: hit and miss
    assert_eq!(t.scan(None, 50, 50, usize::MAX).len(), 1);
    assert_eq!(t.scan(None, 51, 51, usize::MAX).len(), 0);
    // inverted range is empty
    assert_eq!(t.scan(None, 60, 20, usize::MAX).len(), 0);
    // limit cuts the front of the range, preserving order
    let got = t.scan(None, 0, u64::MAX, 3);
    assert_eq!(
        got.iter().map(|e| e.0).collect::<Vec<_>>(),
        vec![10, 20, 30]
    );
    // zero limit, and ranges wholly past the data
    assert_eq!(t.scan(None, 0, u64::MAX, 0).len(), 0);
    assert_eq!(t.scan(None, 101, u64::MAX, usize::MAX).len(), 0);
}

/// MVCC: a pinned snapshot must keep answering with its frozen state
/// while a concurrent writer thread commits transaction after
/// transaction over the same tree (shared behind a mutex — the reader
/// never holds the lock across a writer commit, so stability can only
/// come from version pinning, not mutual exclusion).
#[test]
fn pinned_snapshot_stays_frozen_under_concurrent_writer_commits() {
    let t = Mutex::new(Tree::create(&cfg()).unwrap());
    {
        let mut g = t.lock().unwrap();
        g.begin();
        for k in 0..100u64 {
            g.put(k, &k.to_le_bytes()).unwrap();
        }
        g.commit();
    }
    let (snap, frozen) = {
        let mut g = t.lock().unwrap();
        let snap = g.pin();
        let frozen = g.scan(Some(&snap), 0, u64::MAX, usize::MAX);
        (snap, frozen)
    };
    assert_eq!(frozen.len(), 100);

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // 20 committed transactions: overwrites, deletes, inserts
            for round in 0..20u64 {
                let mut g = t.lock().unwrap();
                g.begin();
                for k in 0..40u64 {
                    g.put(k, &(k ^ round.rotate_left(13)).to_le_bytes())
                        .unwrap();
                }
                g.delete(40 + round).unwrap();
                g.put(1000 + round, b"fresh").unwrap();
                g.commit();
            }
        });
        // reader: between writer commits, the pinned snapshot must not
        // move — point reads and scans both answer from version `snap`
        for probe in 0..40 {
            {
                let g = t.lock().unwrap();
                assert_eq!(
                    g.scan(Some(&snap), 0, u64::MAX, usize::MAX),
                    frozen,
                    "snapshot drifted at probe {probe}"
                );
                assert_eq!(
                    g.get_at(&snap, 17).as_deref(),
                    Some(&17u64.to_le_bytes()[..])
                );
                assert_eq!(g.get_at(&snap, 1005), None, "future insert invisible");
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
    });

    let mut g = t.lock().unwrap();
    // the live view moved on...
    assert_eq!(g.get(1005).as_deref(), Some(&b"fresh"[..]));
    assert_eq!(g.get(45), None, "live delete applied");
    // ...while the snapshot still answers the original state
    assert_eq!(g.scan(Some(&snap), 0, u64::MAX, usize::MAX), frozen);
    // releasing the pin lets retired CoW pages be reclaimed
    let retired_before = g.retired_pages();
    assert!(retired_before > 0, "writer CoW must have retired pages");
    g.unpin(snap);
    g.reclaim();
    assert_eq!(g.retired_pages(), 0, "unpinned versions reclaimed");
}

/// Snapshots taken at different versions each see exactly their own
/// history point (version-ordered reads).
#[test]
fn snapshots_observe_version_ordered_history() {
    let mut t = Tree::create(&cfg()).unwrap();
    let mut pins = Vec::new();
    for round in 0..5u64 {
        t.begin();
        t.put(7, &round.to_le_bytes()).unwrap();
        t.put(100 + round, &round.to_le_bytes()).unwrap();
        t.commit();
        pins.push((round, t.pin()));
    }
    for (round, snap) in &pins {
        assert_eq!(
            t.get_at(snap, 7).as_deref(),
            Some(&round.to_le_bytes()[..]),
            "snapshot of round {round} sees its own overwrite"
        );
        assert_eq!(
            t.scan(Some(snap), 100, 200, usize::MAX).len(),
            *round as usize + 1,
            "snapshot of round {round} sees exactly its inserts"
        );
    }
    for (_, snap) in pins {
        t.unpin(snap);
    }
    t.reclaim();
    assert_eq!(t.retired_pages(), 0);
}

/// A snapshot pinned over two commits that overwrite the leaf it reads.
/// A Clean copy lands on its page's spare, the copy an overwrite
/// superseded once no pin reaches it: the copy the snapshot reads must
/// never become one, or the second commit would write over what the
/// snapshot reads.
#[test]
fn a_pinned_copy_never_becomes_a_spare() {
    let mut t = Tree::create(&cfg()).unwrap();
    let commit = |t: &mut Tree, key: u64, tag: u64| {
        t.begin();
        t.put(key, &value(tag, 24)).unwrap();
        t.commit();
    };
    for k in 0..10u64 {
        commit(&mut t, k, k);
    }
    // an overwrite, so the leaf holds a spare when the pin is taken
    commit(&mut t, 9, 9);
    assert_eq!(t.height(), 1, "one leaf");
    let snap = t.pin();
    let frozen = t.scan(Some(&snap), 0, u64::MAX, usize::MAX);
    commit(&mut t, 3, 0x33);
    commit(&mut t, 7, 0x77);
    assert_eq!(t.scan(Some(&snap), 0, u64::MAX, usize::MAX), frozen);
    assert_eq!(t.get(3), Some(value(0x33, 24)));
    assert_eq!(t.get(7), Some(value(0x77, 24)));
    t.unpin(snap);
    assert_eq!(t.retired_pages(), 0);
    commit(&mut t, 5, 0x55);
    let mut want: Model = frozen.into_iter().collect();
    for k in [3u64, 7, 5] {
        want.insert(k, value(k * 0x11, 24));
    }
    assert_eq!(
        t.scan(None, 0, u64::MAX, usize::MAX),
        model_scan(&want, 0, u64::MAX, usize::MAX)
    );
}

type Model = BTreeMap<u64, Vec<u8>>;

/// Pin a new snapshot (at most four live, each with a clone of the
/// committed model) or release a random live one.
fn churn_pins(t: &mut Tree, pins: &mut Vec<(Snapshot, Model)>, committed: &Model, s: &mut u64) {
    match splitmix(s) % 4 {
        0 if pins.len() < 4 => pins.push((t.pin(), committed.clone())),
        1 if !pins.is_empty() => {
            let (snap, _) = pins.swap_remove(splitmix(s) as usize % pins.len());
            t.unpin(snap);
        }
        _ => {}
    }
}

/// The current view must answer from `view`, every live snapshot from
/// the model cloned when it was pinned: point reads and bounded scans.
fn check_views(t: &Tree, view: &Model, pins: &[(Snapshot, Model)], keys: u64, s: &mut u64) {
    for _ in 0..4 {
        let key = splitmix(s) % keys;
        let (a, b) = (splitmix(s) % keys, splitmix(s) % (keys + 20));
        let limit = (splitmix(s) % 24) as usize + 1;
        assert_eq!(t.get(key), view.get(&key).cloned(), "get({key})");
        assert_eq!(
            t.scan(None, a, b, limit),
            model_scan(view, a, b, limit),
            "scan({a}..={b}, {limit})"
        );
        for (snap, frozen) in pins {
            let v = snap.version();
            assert_eq!(
                t.get_at(snap, key),
                frozen.get(&key).cloned(),
                "get_at(v{v}, {key})"
            );
            assert_eq!(
                t.scan(Some(snap), a, b, limit),
                model_scan(frozen, a, b, limit),
                "scan(v{v}, {a}..={b}, {limit})"
            );
        }
    }
}

/// Randomized MVCC differential: transactions of 1..=12 puts and
/// deletes over 300 keys with up to four live snapshots, pinned between
/// *and inside* transactions and released in random order, and a power
/// failure every hundred rounds. While each transaction is open the
/// current view must answer from the staged model and every snapshot
/// from its own clone — and again once it has committed.
#[test]
fn snapshots_and_the_open_transaction_each_read_their_own_version() {
    const KEYS: u64 = 300;
    for seed in [18u64, 0x5eed, 0xfeed_f00d] {
        let mut t = Tree::create(&cfg()).expect("format tree heap");
        let mut committed = Model::new();
        let mut pins: Vec<(Snapshot, Model)> = Vec::new();
        let mut s = seed;
        for round in 1..=400 {
            if round % 100 == 0 {
                t.crash_and_recover(&CrashMode::StrictDurableOnly)
                    .expect("recover");
                pins.clear(); // a crash drops every pin
                assert_eq!(
                    t.retired_pages(),
                    0,
                    "round {round}: recovery holds nothing"
                );
                assert_eq!(t.min_pinned(), None);
            }
            churn_pins(&mut t, &mut pins, &committed, &mut s);

            t.begin();
            let mut staged = committed.clone();
            for _ in 0..1 + splitmix(&mut s) % 12 {
                let key = splitmix(&mut s) % KEYS;
                if splitmix(&mut s).is_multiple_of(4) {
                    let existed = t.delete(key).expect("delete");
                    assert_eq!(existed, staged.remove(&key).is_some(), "delete({key})");
                } else {
                    let len = match key % 8 {
                        0 => 0,
                        1 => 100 + (splitmix(&mut s) % 100) as usize,
                        _ => 8 + (splitmix(&mut s) % 40) as usize,
                    };
                    let v = value(splitmix(&mut s), len);
                    t.put(key, &v).expect("put within capacity");
                    staged.insert(key, v);
                }
                // a pin taken inside a transaction freezes the last
                // *committed* state, not what is staged
                churn_pins(&mut t, &mut pins, &committed, &mut s);
            }
            check_views(&t, &staged, &pins, KEYS, &mut s);
            t.commit();
            committed = staged;
            check_views(&t, &committed, &pins, KEYS, &mut s);
            assert_eq!(t.len(), committed.len() as u64, "round {round}");
            if pins.is_empty() {
                assert_eq!(
                    t.retired_pages(),
                    0,
                    "round {round}: nothing to hold a superseded page back"
                );
            }
        }
        for (snap, frozen) in pins.drain(..) {
            assert_eq!(
                t.scan(Some(&snap), 0, u64::MAX, usize::MAX),
                model_scan(&frozen, 0, u64::MAX, usize::MAX),
                "full dump at v{}",
                snap.version()
            );
            t.unpin(snap);
        }
        assert_eq!(t.retired_pages(), 0);
        assert_eq!(
            t.scan(None, 0, u64::MAX, usize::MAX),
            model_scan(&committed, 0, u64::MAX, usize::MAX),
            "full dump"
        );
    }
}

/// Every scan whose `lo` and `hi` each sit at a sampled key, one below
/// it or one above it, under limits of 1, one leaf's worth (14 entries)
/// and none, must answer what `model_scan` does over `view` (`snap =
/// None`: the current view).
fn check_scan_bounds(t: &Tree, snap: Option<&Snapshot>, view: &Model, samples: &[u64]) {
    let around = |k: u64| [k.saturating_sub(1), k, k.saturating_add(1)];
    for &a in samples {
        for &b in samples {
            for (lo, hi) in around(a)
                .into_iter()
                .flat_map(|lo| around(b).map(|hi| (lo, hi)))
            {
                for limit in [1, 14, usize::MAX] {
                    assert_eq!(
                        t.scan(snap, lo, hi, limit),
                        model_scan(view, lo, hi, limit),
                        "scan({lo}..={hi}, {limit}) at {:?}",
                        snap.map(Snapshot::version)
                    );
                }
            }
        }
    }
}

/// Scan boundaries against the model, where a scan's walk from leaf to
/// leaf can go wrong: a three-level tree whose deletes emptied a run of
/// leaves (the walk must cross them and stop at the right separator), a
/// snapshot pinned before a burst of splits (it reads the pages those
/// splits superseded), and a scan inside an open transaction whose puts
/// split leaves (the staged view).
#[test]
fn scans_at_key_boundaries_match_the_model() {
    let mut t = Tree::create(&cfg()).expect("format tree heap");
    let mut model = Model::new();
    // keys 4 apart, so neither neighbour of a key is one
    t.begin();
    for key in (0..600u64).map(|i| 10 + 4 * i) {
        let v = value(key, 8);
        t.put(key, &v).unwrap();
        model.insert(key, v);
    }
    t.commit();
    assert!(t.height() >= 3, "a three-level tree");
    // empty a run of leaves: 200 keys, 14 leaves' worth and more
    t.begin();
    for key in (800..1600).step_by(4).map(|k| k + 2) {
        assert!(t.delete(key).unwrap());
        model.remove(&key);
    }
    t.commit();
    let edges = [0, 10, 798, 1602, 2406, u64::MAX];
    let samples = |m: &Model| -> Vec<u64> {
        let mut s: Vec<u64> = m.keys().copied().step_by(37).chain(edges).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    check_scan_bounds(&t, None, &model, &samples(&model));

    let snap = t.pin();
    let frozen = model.clone();
    // a burst of splits: a key between every two of a third of the tree
    // (8 keys a leaf become 15 or 16)
    t.begin();
    for key in (400..1200).step_by(4).map(|k| k + 4) {
        let v = value(key ^ 0xff, 24);
        t.put(key, &v).unwrap();
        model.insert(key, v);
    }
    t.commit();
    check_scan_bounds(&t, Some(&snap), &frozen, &samples(&frozen));
    check_scan_bounds(&t, None, &model, &samples(&model));

    // the staged view: an open transaction's puts refill part of the
    // emptied run and split leaves again (a sequential load leaves 8
    // keys a leaf, and one between every two of them makes 15), then
    // deletes thin the tail
    t.begin();
    let mut staged = model.clone();
    for key in (1200..2000).step_by(4).map(|k| k + 3) {
        let v = value(key, 40);
        t.put(key, &v).unwrap();
        staged.insert(key, v);
    }
    for key in (2000..2400).step_by(8).map(|k| k + 2) {
        assert!(t.delete(key).unwrap());
        staged.remove(&key);
    }
    check_scan_bounds(&t, None, &staged, &samples(&staged));
    check_scan_bounds(&t, Some(&snap), &frozen, &samples(&frozen));
    t.commit();
    check_scan_bounds(&t, None, &staged, &samples(&staged));
    t.unpin(snap);
}

/// Full means full. A small tree filled until fewer pages are free than
/// `put`'s fast bound (`2·height + 4`) still takes overwrites:
/// one needs a value cell and, in a leaf its transaction has not copied
/// yet, a leaf copy; a key the transaction already put needs no page at
/// all. An overwrite — alone or in a group — is refused, and stages
/// nothing, only once fewer pages are free than it needs.
#[test]
fn a_full_tree_takes_every_overwrite_it_has_pages_for() {
    let cfg = TreeConfig {
        data_len: 64 + 64 + 8 * 4096,
        ..cfg()
    };
    let pages = SegmentTable::new(cfg.data_len).segments() as u64 * 16;
    let free = |t: &Tree| t.free_pages() as u64 + pages - t.pages_allocated();
    let mut t = Tree::create(&cfg).unwrap();
    let mut model = Model::new();
    for key in 0.. {
        if free(&t) < 2 * t.height() + 4 {
            break;
        }
        t.begin();
        t.put(key, &value(key, 24)).unwrap();
        t.commit();
        model.insert(key, value(key, 24));
    }
    let worst = 2 * t.height() + 4;
    assert!(
        (2..worst).contains(&free(&t)),
        "{} of {worst} free",
        free(&t)
    );

    // one overwrite a transaction: each gives back what it takes
    for (&key, v) in model.iter_mut() {
        t.begin();
        *v = value(key ^ 1, 24);
        t.put(key, v).unwrap();
        t.commit();
    }
    // a group of overwrites of two keys, the second written twice
    let group = [(0, value(2, 24)), (1, value(3, 24)), (1, value(4, 24))];
    t.begin();
    t.put_many(&group).unwrap();
    t.commit();
    model.extend(group);

    // one transaction of overwrites until the pages run out
    t.begin();
    let mut staged = model.clone();
    let mut refused = 0;
    for &key in model.keys() {
        let before = free(&t);
        match t.put(key, &value(!key, 24)) {
            Ok(()) => {
                staged.insert(key, value(!key, 24));
            }
            Err(e) => {
                assert_eq!(e, TreeError::Full, "key {key}");
                assert!(before < 2, "key {key} refused with {before} pages free");
                assert_eq!(free(&t), before, "key {key}: the refused put took a page");
                assert_eq!(t.get(key), model.get(&key).cloned(), "key {key}");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "the pages never ran out");
    // a key the transaction put is rewritten in its own cell
    let (&own, _) = staged.iter().find(|(k, _)| model[k] != staged[k]).unwrap();
    let before = free(&t);
    t.put(own, &value(7, 24)).unwrap();
    staged.insert(own, value(7, 24));
    assert_eq!(free(&t), before, "its own cell");
    // a group refused whole stages nothing
    let last = *model.keys().last().unwrap();
    assert_eq!(
        t.put_many(&[(own, value(8, 24)), (last, value(8, 24))]),
        Err(TreeError::Full)
    );
    assert_eq!(t.get(own), Some(value(7, 24)));
    t.commit();
    assert_eq!(
        t.scan(None, 0, u64::MAX, usize::MAX),
        model_scan(&staged, 0, u64::MAX, usize::MAX)
    );
}

/// Full means full for inserts too. An insert reserves its own worst
/// case from its path — a value cell, a copy of a leaf its transaction
/// has not copied, and only for a full leaf the split's pages up the
/// path — not `2·height + 4`. A twin tree with room to spare, given the
/// same puts, says what each insert takes: the small tree takes exactly
/// that, and refuses an insert only when fewer pages are free, staging
/// nothing. Inserts into leaves with room succeed with fewer than
/// `2·height + 4` pages free, one to three keys a transaction.
#[test]
fn a_full_tree_takes_every_insert_it_has_pages_for() {
    let small = TreeConfig {
        data_len: 64 + 64 + 8 * 4096,
        ..cfg()
    };
    let pages = |c: &TreeConfig| SegmentTable::new(c.data_len).segments() as u64 * 16;
    let (small_pages, twin_pages) = (pages(&small), pages(&cfg()));
    let free = |t: &Tree, pages: u64| t.free_pages() as u64 + pages - t.pages_allocated();
    let (mut t, mut twin) = (Tree::create(&small).unwrap(), Tree::create(&cfg()).unwrap());
    let mut model = Model::new();
    let mut below_worst = 0;
    let mut s = 0x1dea_u64;
    'fill: loop {
        t.begin();
        twin.begin();
        for _ in 0..=splitmix(&mut s) % 3 {
            let key = splitmix(&mut s) >> 32;
            let (before, worst) = (free(&t, small_pages), 2 * t.height() + 4);
            let twin_before = free(&twin, twin_pages);
            twin.put(key, &value(key, 24)).unwrap();
            let need = twin_before - free(&twin, twin_pages);
            match t.put(key, &value(key, 24)) {
                Ok(()) => {
                    assert_eq!(before - free(&t, small_pages), need, "key {key}");
                    model.insert(key, value(key, 24));
                    below_worst += usize::from(before < worst);
                }
                Err(e) => {
                    assert_eq!(e, TreeError::Full, "key {key}");
                    assert!(before < need, "key {key} refused, {before} of {need} free");
                    assert_eq!(free(&t, small_pages), before, "key {key} took a page");
                    assert_eq!(t.get(key), None, "key {key}");
                    break 'fill;
                }
            }
        }
        t.commit();
        twin.commit();
    }
    t.commit();
    assert!(
        below_worst > 0,
        "no insert with fewer than 2·height + 4 free"
    );
    assert_eq!(
        t.scan(None, 0, u64::MAX, usize::MAX),
        model_scan(&model, 0, u64::MAX, usize::MAX)
    );
}
