//! Acceptance test for live adaptation accuracy: on a zipfian YCSB mix,
//! every shard's *online* knee (timescale-approximate MRC computed by
//! the burst sampler of the shard runtime's `AdaptiveScPolicy`) must
//! land within one MRC bucket of the *offline* exact-Mattson knee
//! computed from the store-line window that burst analysed — the
//! paper's claim that the cheap approximation picks (nearly) the same
//! capacity as exact stack-distance profiling.
//!
//! Writes are issued in group-commit batches (one FASE per shard per
//! batch): single-write FASEs carry no intra-FASE reuse by construction
//! (FASE renaming hides reuse across commits), so batching is what
//! gives the software cache — and both MRC estimators — a real locality
//! signal to agree on.

use nvcache_core::{AdaptiveConfig, PolicyKind};
use nvcache_kvstore::{
    load, run, KeyDist, KvConfig, KvStore, Mix, ShardConfig, ThetaShift, YcsbConfig,
};
use nvcache_locality::{lru_mrc, select_cache_size, KneeConfig};
use nvcache_telemetry::{convergence, CapacityEvent, ConvergenceConfig};

const BURST: usize = 4096;

fn adaptive_store(shards: usize) -> KvStore {
    KvStore::new(&KvConfig {
        shards,
        shard: ShardConfig {
            buckets: 256,
            data_len: 1 << 21,
            log_len: 1 << 17,
            policy: PolicyKind::ScAdaptive(AdaptiveConfig {
                burst_len: BURST,
                ..Default::default()
            }),
            adapt: None,
            pipelined: false,
        },
    })
}

#[test]
fn online_knee_matches_offline_mattson_within_one_bucket() {
    let shards = 4;
    let store = adaptive_store(shards);
    let keys = 2000;
    // value_len ≤ 40 keeps header+value inside one 64-byte class block,
    // so an in-place update is exactly one store line and the exact MRC
    // steps at every size (2-line values quantize it to even sizes);
    // one worker keeps the recorded stream deterministic
    let value_len = 40;
    assert_eq!(load(&store, keys, value_len), keys);
    let rep = run(
        &store,
        &YcsbConfig {
            keys,
            ops_per_worker: 60_000,
            workers: 1,
            mix: Mix::A,
            dist: KeyDist::Zipfian { theta: 0.99 },
            value_len,
            seed: 20_17,
            batch: 128,
            windows: 4,
            ..Default::default()
        },
    );
    assert_eq!(rep.not_found, 0);
    assert_eq!(rep.rejected, 0);

    let knee_cfg = KneeConfig::default();
    for s in 0..shards {
        let (choices, window) = store.with_shard(s, |sh| {
            (
                sh.chosen().to_vec(),
                sh.stream().expect("an adaptive policy")[..BURST].to_vec(),
            )
        });
        assert!(
            !choices.is_empty(),
            "shard {s}: the controller must have fired (enough stores per shard)"
        );
        let online = choices[0];

        // offline oracle: exact Mattson stack-distance MRC over the very
        // window the sampler analyzed, same knee selector
        let exact = lru_mrc(&window, knee_cfg.max_size);
        let offline_knee = select_cache_size(&exact, &knee_cfg);

        let diff = online.knee.abs_diff(offline_knee);
        assert!(
            diff <= 1,
            "shard {s}: online knee {} vs offline exact-Mattson knee {} \
             differ by {} (> one MRC bucket)",
            online.knee,
            offline_knee,
            diff
        );
        // and the installed capacity is the knee plus the safety entry
        assert_eq!(
            online.capacity,
            (online.knee + 1).min(knee_cfg.max_size),
            "shard {s}"
        );
        assert_eq!(
            store.with_shard(s, |sh| sh.sc_capacity()),
            Some(online.capacity),
            "shard {s}: the live cache runs at the chosen capacity"
        );
    }
}

#[test]
fn controller_reconverges_after_theta_shift() {
    // A periodic controller (hibernation on) under a mid-run popularity
    // phase shift: the convergence checker over each shard's decision
    // stream must report a settled pre-phase AND a settled post-phase —
    // the ROADMAP's "does it re-converge" question, asked end to end
    // through the YCSB theta-shift hook rather than on synthetic event
    // streams.
    let shards = 4;
    let store = KvStore::new(&KvConfig {
        shards,
        shard: ShardConfig {
            buckets: 256,
            data_len: 1 << 21,
            log_len: 1 << 17,
            policy: PolicyKind::ScAdaptive(AdaptiveConfig {
                burst_len: 2048,
                hibernation: Some(1024),
                ..Default::default()
            }),
            adapt: None,
            pipelined: false,
        },
    });
    let keys = 2000;
    let value_len = 40;
    assert_eq!(load(&store, keys, value_len), keys);
    // the shard's FASE counter also ticks during load; record it so the
    // serving-phase midpoint can be located on each shard's FASE axis,
    // the axis a decision's `fase` is on
    let load_fases: Vec<u64> = (0..shards)
        .map(|s| store.with_shard(s, |sh| sh.runtime_mut().stats().fases))
        .collect();
    let rep = run(
        &store,
        &YcsbConfig {
            keys,
            ops_per_worker: 240_000,
            workers: 1,
            mix: Mix::A,
            dist: KeyDist::Zipfian { theta: 0.99 },
            value_len,
            seed: 20_17,
            batch: 128,
            windows: 1,
            // halfway through, popularity flattens sharply
            theta_shift: Some(ThetaShift {
                at_frac: 0.5,
                theta: 0.2,
            }),
            ..Default::default()
        },
    );
    assert_eq!(rep.rejected, 0);
    // The controller's knee jitters a few lines between MRC windows
    // even in steady state (sampled bursts over a zipfian stream), so
    // "settled" here means a 2-decision suffix within 5 lines — tight
    // enough to distinguish hunting (20+ line swings right after the
    // shift) from convergence.
    let cfg = ConvergenceConfig {
        tol: 5,
        min_stable: 2,
    };
    let (mut pre_caps, mut post_caps) = (0u64, 0u64);
    for (s, choices) in store.chosen().into_iter().enumerate() {
        let evs: Vec<CapacityEvent> = choices
            .iter()
            .map(|c| CapacityEvent {
                t: c.fase,
                knee: c.knee as u64,
                capacity: c.capacity as u64,
            })
            .collect();
        assert!(
            evs.len() >= 4,
            "shard {s}: periodic controller must keep deciding (got {})",
            evs.len()
        );
        // A single worker spreads ops evenly over shards, so the shift
        // lands at the midpoint of each shard's serving FASEs. Add a 10%
        // settle margin: the MRC window straddling the shift mixes both
        // phases and belongs to neither.
        let serving = store.with_shard(s, |sh| sh.runtime_mut().stats().fases) - load_fases[s];
        let shift_t = load_fases[s] + serving / 2 + serving / 10;
        let r = convergence::analyze_shift(&evs, shift_t, &cfg);
        assert!(r.pre.windows >= 1, "shard {s}: no pre-shift decisions");
        assert!(
            r.reconverged,
            "shard {s}: controller failed to settle after the phase \
             shift: {r:?}"
        );
        pre_caps += r.pre.final_capacity;
        post_caps += r.post.final_capacity;
        // and the full-stream verdict agrees with what kv-bench reports
        let full = convergence::analyze(&evs, &ConvergenceConfig::default());
        assert!(full.windows_to_knee.is_some());
    }
    // flattening popularity (theta 0.99 -> 0.2) widens each batch's
    // working set, so the re-converged capacities must be larger in
    // aggregate than the pre-shift ones
    assert!(
        post_caps > pre_caps,
        "flatter popularity must need bigger caches ({pre_caps} -> {post_caps})"
    );
}

#[test]
fn adaptation_decisions_are_per_shard() {
    // two shards with very different per-FASE working sets must be free
    // to choose different capacities: the hot shard cycles a tight key
    // set inside each batch (small knee), the cold one sweeps a set far
    // beyond max_size (knee-less curve → max capacity)
    let store = adaptive_store(2);
    let hot_shard = store.shard_of(0);
    let hot_keys: Vec<u64> = (0..40_000u64)
        .filter(|&k| store.shard_of(k) == hot_shard)
        .take(8)
        .collect();
    let cold_keys: Vec<u64> = (0..80_000u64)
        .filter(|&k| store.shard_of(k) != hot_shard)
        .take(150)
        .collect();
    let val = |round: u8| vec![round; 56];
    for &k in hot_keys.iter().chain(&cold_keys) {
        assert!(store.put(k, &val(0)));
    }
    store.reset_samplers();
    let mut round = 0u8;
    loop {
        let fired = store.chosen().iter().filter(|c| !c.is_empty()).count();
        if fired == 2 {
            break;
        }
        assert!(round < 200, "controllers never fired on both shards");
        // hot: 4 passes over 8 keys in one FASE → reuse distance ≈ WSS
        let hot_batch: Vec<(u64, Vec<u8>)> = (0..4)
            .flat_map(|_| hot_keys.iter().map(|&k| (k, val(round))))
            .collect();
        assert!(store.put_many(&hot_batch));
        // cold: one pass over 150 keys per FASE → distances ≫ max_size
        let cold_batch: Vec<(u64, Vec<u8>)> = cold_keys.iter().map(|&k| (k, val(round))).collect();
        assert!(store.put_many(&cold_batch));
        round = round.wrapping_add(1);
    }
    let cap = |s: usize| store.with_shard(s, |sh| sh.sc_capacity()).unwrap();
    let (hot_cap, cold_cap) = (cap(hot_shard), cap(1 - hot_shard));
    assert!(
        hot_cap < cold_cap,
        "tight per-FASE working set ({hot_cap}) must pick a smaller cache \
         than the sweeping one ({cold_cap})"
    );
    assert_eq!(
        cold_cap,
        KneeConfig::default().max_size,
        "knee-less curve falls back to the maximal size (paper rule)"
    );
}
