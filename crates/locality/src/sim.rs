//! Exact LRU miss-ratio curves via Mattson stack simulation.
//!
//! Used as the "actual MRC" ground truth in Figure 7 and as the oracle
//! that the timescale prediction ([`crate::Mrc::from_reuse`]) is tested
//! against. One pass computes hits for **all** cache sizes at once: an
//! access hits in every cache at least as large as its LRU stack
//! distance. [`lru_mrc`] needs distances only up to the largest size
//! it reports, so it keeps just the top `max_size` entries of the LRU
//! stack, in a move-to-front array: `O(n · max_size)` in the worst
//! case, with no hashing and no allocation past the array, and every
//! caller asks for at most 120 sizes. [`stack_distances`] gives the
//! unbounded distance of every access from a Fenwick tree over access
//! times (`O(n log n)`); it is the oracle the bounded stack is tested
//! against.

use crate::mrc::Mrc;
use nvcache_trace::hash::{fx_map_with_capacity, FxHashMap};

/// Fenwick (binary indexed) tree over `n` positions, prefix sums of 0/1
/// marks.
struct Fenwick {
    tree: Vec<i32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }
    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }
    /// Sum of marks at positions `0..=i`.
    fn prefix(&self, mut i: usize) -> i32 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// LRU stack distance of every access: `dist[t]` is the number of
/// distinct data accessed since the previous access to `trace[t]`,
/// inclusive of the datum itself (i.e. its LRU stack depth), or `None`
/// for a cold (first) access.
pub fn stack_distances(trace: &[u64]) -> Vec<Option<usize>> {
    let n = trace.len();
    let mut bit = Fenwick::new(n);
    let mut last: FxHashMap<u64, usize> = fx_map_with_capacity(n / 2 + 1);
    let mut out = Vec::with_capacity(n);
    for (t, &id) in trace.iter().enumerate() {
        match last.get(&id).copied() {
            Some(p) => {
                // distinct data accessed in (p, t): marked latest-accesses
                let between = bit.prefix(t.saturating_sub(1)) - bit.prefix(p);
                out.push(Some(between as usize + 1));
                bit.add(p, -1);
            }
            None => out.push(None),
        }
        bit.add(t, 1);
        last.insert(id, t);
    }
    out
}

/// Exact LRU MRC up to `max_size`, from Mattson stack distances.
///
/// Walks a move-to-front stack of the `max_size` most recently
/// accessed ids: an access found at depth `d` is a hit for every size
/// `≥ d` and moves to the top. One not found — a cold access, or one
/// whose distance exceeds `max_size` — misses at every reported size
/// and pushes the deepest id out. Costs `O(d)` per access found at
/// depth `d` and `O(max_size)` per miss; the hits equal those the
/// distances of [`stack_distances`] imply.
pub fn lru_mrc(trace: &[u64], max_size: usize) -> Mrc {
    // hist[d]: accesses found at depth d (1-based; hist[0] stays 0)
    let mut hist = vec![0u64; max_size + 1];
    let mut stack: Vec<u64> = Vec::with_capacity(max_size);
    for &id in trace {
        match stack.iter().position(|&x| x == id) {
            Some(at) => {
                hist[at + 1] += 1;
                stack[..=at].rotate_right(1);
            }
            None if max_size == 0 => {}
            None => {
                if stack.len() < max_size {
                    stack.push(id);
                } else {
                    stack[max_size - 1] = id;
                }
                stack.rotate_right(1);
            }
        }
    }
    // hits(c) = Σ_{d ≤ c} hist[d]
    let mut acc = 0u64;
    for h in hist.iter_mut() {
        acc += *h;
        *h = acc;
    }
    Mrc::from_hits(&hist, trace.len())
}

/// Direct LRU cache simulation at a single capacity — an independent
/// second oracle used to cross-check [`lru_mrc`] in tests and to measure
/// the real software cache against theory.
pub fn lru_hits_at(trace: &[u64], capacity: usize) -> u64 {
    if capacity == 0 {
        return 0;
    }
    // simple ordered vec: fine for oracle use at small capacities
    let mut stack: Vec<u64> = Vec::with_capacity(capacity + 1);
    let mut hits = 0u64;
    for &id in trace {
        if let Some(pos) = stack.iter().position(|&x| x == id) {
            stack.remove(pos);
            stack.push(id);
            hits += 1;
        } else {
            if stack.len() == capacity {
                stack.remove(0);
            }
            stack.push(id);
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_distance_basics() {
        // a b a  → a's reuse crosses b: distance 2
        let d = stack_distances(&[1, 2, 1]);
        assert_eq!(d, vec![None, None, Some(2)]);
        // a a → distance 1
        let d = stack_distances(&[1, 1]);
        assert_eq!(d, vec![None, Some(1)]);
    }

    #[test]
    fn stack_distance_counts_distinct_not_total() {
        // a b b b a: only one distinct datum (b) between the a's
        let d = stack_distances(&[1, 2, 2, 2, 1]);
        assert_eq!(d[4], Some(2));
    }

    #[test]
    fn lru_mrc_matches_direct_simulation() {
        let trace: Vec<u64> = (0..4000).map(|i| ((i * 31 + i / 7) % 29) as u64).collect();
        let mrc = lru_mrc(&trace, 32);
        for c in [1usize, 2, 4, 8, 16, 29, 32] {
            let hits = lru_hits_at(&trace, c);
            let expect = 1.0 - hits as f64 / trace.len() as f64;
            assert!(
                (mrc.mr(c) - expect).abs() < 1e-12,
                "c={c} mattson={} direct={}",
                mrc.mr(c),
                expect
            );
        }
    }

    #[test]
    fn cyclic_cliff_is_exact() {
        let w = 8u64;
        let trace: Vec<u64> = (0..800).map(|i| i % w).collect();
        let mrc = lru_mrc(&trace, 16);
        // below W: zero hits; at W: only cold misses
        assert!((mrc.mr(7) - 1.0).abs() < 1e-12);
        let cold = w as f64 / trace.len() as f64;
        assert!((mrc.mr(8) - cold).abs() < 1e-12);
    }

    #[test]
    fn timescale_prediction_tracks_exact_mrc() {
        // The paper's correctness condition (reuse-window hypothesis)
        // holds well for mixed periodic traces; prediction should be
        // close to exact.
        let trace: Vec<u64> = (0..20_000)
            .map(|i| {
                if i % 3 == 0 {
                    (i % 5) as u64
                } else {
                    5 + ((i / 3) % 20) as u64
                }
            })
            .collect();
        let exact = lru_mrc(&trace, 30);
        let pred = crate::mrc::Mrc::from_reuse(&crate::reuse::reuse_all_k(&trace), 30);
        let err = pred.mean_abs_error(&exact);
        assert!(err < 0.08, "mean abs error {err}");
    }

    #[test]
    fn monotone_exact_curve() {
        let trace: Vec<u64> = (0..2000).map(|i| ((i * 17) % 41) as u64).collect();
        let mrc = lru_mrc(&trace, 48);
        for c in 1..=48 {
            assert!(mrc.mr(c) <= mrc.mr(c - 1) + 1e-15);
        }
    }

    #[test]
    fn capacity_zero_never_hits() {
        assert_eq!(lru_hits_at(&[1, 1, 1], 0), 0);
    }

    #[test]
    fn empty_trace_mrc() {
        let mrc = lru_mrc(&[], 4);
        assert!(mrc.miss_ratio.iter().all(|&v| v == 1.0));
    }

    /// The curve the unbounded distances of [`stack_distances`] imply:
    /// an access hits at every size `≥` its distance.
    fn mrc_from_distances(trace: &[u64], max_size: usize) -> Mrc {
        let mut hits = vec![0u64; max_size + 1];
        for d in stack_distances(trace).into_iter().flatten() {
            for h in hits.iter_mut().skip(d) {
                *h += 1;
            }
        }
        Mrc::from_hits(&hits, trace.len())
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A trace of `len` accesses over `alphabet` ids, of one of five
    /// shapes: uniform random, cyclic, FASE-renamed random writes, runs
    /// of repeats, or a random walk that stays near its last id.
    fn shaped(shape: u8, seed: u64, len: usize, alphabet: u64) -> Vec<u64> {
        let mut s = seed;
        let mut draw = move || splitmix(&mut s) % alphabet;
        match shape {
            0 => (0..len).map(|_| draw()).collect(),
            1 => (0..len as u64).map(|i| i % alphabet).collect(),
            2 => {
                let mut t = nvcache_trace::ThreadTrace::new();
                t.fase_begin();
                for i in 0..len {
                    if i % 7 == 6 && draw() % 3 == 0 {
                        t.fase_end();
                        t.fase_begin();
                    }
                    t.write(nvcache_trace::Line(draw()));
                }
                t.fase_end();
                t.renamed_writes()
            }
            3 => {
                let mut v = Vec::with_capacity(len);
                while v.len() < len {
                    let (id, run) = (draw(), 1 + draw() % 5);
                    v.extend(std::iter::repeat_n(id, run as usize));
                }
                v.truncate(len);
                v
            }
            _ => {
                let mut at = 0u64;
                (0..len)
                    .map(|_| {
                        at = (at + 2 * alphabet + draw() % 5 - 2) % alphabet;
                        at
                    })
                    .collect()
            }
        }
    }

    const SIZES: [usize; 5] = [0, 1, 2, 50, 120];

    #[test]
    fn bounded_stack_matches_the_distances_on_edge_traces() {
        let cyclic = |w: u64| (0..600).map(|i| i % w).collect::<Vec<u64>>();
        let traces = [
            vec![],
            vec![7],
            vec![7; 40],
            cyclic(50),
            cyclic(51),
            cyclic(120),
            cyclic(121),
            (0..300).collect(),
        ];
        for trace in &traces {
            for max_size in SIZES {
                let want = mrc_from_distances(trace, max_size);
                assert_eq!(
                    lru_mrc(trace, max_size),
                    want,
                    "{} accesses, {max_size}",
                    trace.len()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// The bounded move-to-front stack and the Fenwick tree's
        /// unbounded distances agree on every size: hits past the
        /// deepest size reported count nowhere either way.
        #[test]
        fn bounded_stack_matches_the_distances(
            shape in 0u8..5,
            seed in proptest::any::<u64>(),
            len in 0usize..2500,
            alphabet in 1u64..300,
        ) {
            let trace = shaped(shape, seed, len, alphabet);
            for max_size in SIZES {
                let want = mrc_from_distances(&trace, max_size);
                proptest::prop_assert_eq!(
                    lru_mrc(&trace, max_size),
                    want,
                    "shape {} seed {} max_size {}",
                    shape,
                    seed,
                    max_size
                );
            }
        }
    }
}
