//! Property-based invariants of the persistence policies: the
//! crash-consistency contract (every line written in a FASE is flushed
//! by its commit), ordering relations between techniques, and LRU
//! behaviour of the software cache against a reference model.

use nvcache::core::{AdaptiveConfig, LruCache, PersistPolicy, PolicyKind};
use nvcache::trace::{Line, ThreadTrace, Trace};
use proptest::prelude::*;
use std::collections::HashSet;

/// Arbitrary FASE-structured write streams over a small line alphabet.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec(prop::collection::vec(0u64..24, 1..40), 1..12).prop_map(|fases| {
        let mut t = ThreadTrace::new();
        for fase in fases {
            t.fase_begin();
            for l in fase {
                t.write(Line(l));
            }
            t.fase_end();
        }
        Trace::from_threads(vec![t])
    })
}

fn all_consistent_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 1 },
        PolicyKind::ScFixed { capacity: 5 },
        PolicyKind::ScFixed { capacity: 50 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 32,
            hibernation: Some(16),
            ..Default::default()
        }),
    ]
}

/// Replay a trace through a policy, verifying the consistency contract:
/// at each outermost FASE end, every line written since its last flush
/// has been emitted for flushing.
fn check_consistency(trace: &Trace, kind: &PolicyKind) -> Result<u64, String> {
    let mut flushes = 0u64;
    for thread in &trace.threads {
        let mut policy = kind.build_policy();
        let mut unflushed: HashSet<Line> = HashSet::new();
        let mut out = Vec::new();
        for e in &thread.events {
            match e {
                nvcache::trace::Event::FaseBegin => policy.on_fase_begin(),
                nvcache::trace::Event::Write(l) => {
                    unflushed.insert(*l);
                    policy.on_store(*l, &mut out);
                    for f in out.drain(..) {
                        flushes += 1;
                        unflushed.remove(&f);
                    }
                }
                nvcache::trace::Event::FaseEnd => {
                    policy.on_fase_end(&mut out);
                    for f in out.drain(..) {
                        flushes += 1;
                        unflushed.remove(&f);
                    }
                    if !unflushed.is_empty() {
                        return Err(format!(
                            "{}: lines {:?} never flushed by FASE end",
                            kind.label(),
                            unflushed
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    Ok(flushes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The crash-consistency contract holds for every policy except
    /// BEST (which is the documented invalid upper bound).
    #[test]
    fn every_policy_flushes_all_dirty_lines_by_commit(trace in trace_strategy()) {
        for kind in all_consistent_policies() {
            prop_assert!(check_consistency(&trace, &kind).is_ok(),
                "{:?}", check_consistency(&trace, &kind));
        }
    }

    /// LA is the flush-count lower bound among consistent policies, ER
    /// the upper bound, and a max-capacity SC matches LA exactly.
    #[test]
    fn flush_count_ordering(trace in trace_strategy()) {
        let la = check_consistency(&trace, &PolicyKind::Lazy).unwrap();
        let er = check_consistency(&trace, &PolicyKind::Eager).unwrap();
        for kind in all_consistent_policies() {
            let f = check_consistency(&trace, &kind).unwrap();
            prop_assert!(f >= la, "{} beat the LA minimum", kind.label());
            prop_assert!(f <= er, "{} exceeded the ER maximum", kind.label());
        }
        // 24-line alphabet fits in a 50-capacity cache: SC(50) == LA
        let sc_big = check_consistency(&trace, &PolicyKind::ScFixed { capacity: 50 }).unwrap();
        prop_assert_eq!(sc_big, la);
    }

    /// Growing SC capacity never increases the flush count
    /// (LRU inclusion property lifted to write-combining).
    #[test]
    fn sc_flushes_monotone_in_capacity(trace in trace_strategy()) {
        let mut prev = u64::MAX;
        for cap in [1usize, 2, 4, 8, 16, 32] {
            let f = check_consistency(&trace, &PolicyKind::ScFixed { capacity: cap }).unwrap();
            prop_assert!(f <= prev, "capacity {cap}: {f} > {prev}");
            prev = f;
        }
    }

    /// The slab/intrusive-list LRU behaves identically to a reference
    /// implementation under arbitrary operation sequences.
    #[test]
    fn lru_cache_matches_reference(
        capacity in 1usize..12,
        ops in prop::collection::vec((0u64..32, any::<bool>()), 0..300),
    ) {
        let mut cache = LruCache::new(capacity);
        let mut oracle: Vec<u64> = Vec::new(); // back = MRU
        for (line, remove) in ops {
            if remove {
                let expected = oracle.iter().position(|&x| x == line).map(|p| {
                    oracle.remove(p);
                });
                prop_assert_eq!(cache.remove(Line(line)), expected.is_some());
            } else {
                let hit = if let Some(p) = oracle.iter().position(|&x| x == line) {
                    oracle.remove(p);
                    oracle.push(line);
                    true
                } else {
                    if oracle.len() == capacity {
                        oracle.remove(0);
                    }
                    oracle.push(line);
                    false
                };
                let r = cache.touch(Line(line));
                prop_assert_eq!(matches!(r, nvcache::core::lru::Touch::Hit), hit);
            }
            prop_assert_eq!(cache.len(), oracle.len());
        }
        let mru: Vec<u64> = cache.iter_mru().map(|l| l.0).collect();
        let mut expect = oracle.clone();
        expect.reverse();
        prop_assert_eq!(mru, expect);
    }

    /// Policies are deterministic: two replays produce identical flush
    /// streams.
    #[test]
    fn policies_are_deterministic(trace in trace_strategy()) {
        for kind in all_consistent_policies() {
            let a = check_consistency(&trace, &kind).unwrap();
            let b = check_consistency(&trace, &kind).unwrap();
            prop_assert_eq!(a, b, "{}", kind.label());
        }
    }
}
