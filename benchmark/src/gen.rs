//! The benchmark's own input generator: a seeded RNG, a zipfian rank
//! sampler, key tables, and deterministic value bytes. Everything a
//! workload feeds the program is built here from `--seed` *before*
//! timing starts; the program only ever sees the generated inputs.
//!
//! The repo's `ycsb` loadgen is deliberately not reused: its driver
//! thread wakes every 200 µs to scrape windows, which on one pinned CPU
//! preempts the threads being measured (README, "Measurement protocol").

/// Bytes per value: one 64-byte hash node (24 B header + 40 B) — the
/// value class of `repro kv-bench` and `repro tree-bench`.
pub const VALUE_LEN: usize = 40;

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed
    /// are independent (workload, connection, purpose).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut st = seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95);
        Rng {
            s: [
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
            ],
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform draw in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `0..n` (`n ≥ 1`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// YCSB's zipfian rank sampler (Gray et al.): rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Sampler over ranks `0..n` with skew `theta` in `(0, 1)`.
    pub fn new(n: usize, theta: f64) -> Zipfian {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipfian {
            n: n as f64,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Map a uniform draw `u ∈ [0,1)` to a rank in `0..n`.
    #[inline]
    pub fn rank(&self, u: f64) -> u64 {
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

/// A seeded permutation of `0..n`: popularity rank → key slot, so hot
/// keys are scattered over buckets and leaves like YCSB's scrambled
/// zipfian instead of sitting side by side.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// The value a key holds at `version`: 40 bytes any reader can
/// recompute, so every `Get`/`Scan` reply is checkable without storing
/// the bytes in the model.
pub fn value_of(key: u64, version: u32) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    let mut st = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((version as u64) << 32 | 0x5bd1);
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix(&mut st).to_le_bytes());
    }
    // the version rides in clear so a wrong reply names what it held
    out[..4].copy_from_slice(&version.to_le_bytes());
    out
}

/// The version stamped into a value produced by [`value_of`].
pub fn version_of(value: &[u8]) -> Option<u32> {
    let head: [u8; 4] = value.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(head))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(42, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn zipfian_ranks_are_bounded_and_skewed() {
        let z = Zipfian::new(1000, 0.99);
        assert_eq!(z.rank(0.0), 0);
        assert!(z.rank(1.0 - f64::EPSILON) < 1000);
        let mut r = Rng::new(3, 0);
        let mut head = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let k = z.rank(r.unit());
            assert!(k < 1000);
            head += (k < 10) as usize;
        }
        // theta 0.99 over 1000 items: the top 1% of ranks draws well
        // over a third of the accesses
        assert!(head > n / 3, "head share {head}/{n}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut r = Rng::new(9, 0);
        let mut p = permutation(257, &mut r);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn values_carry_their_version() {
        let v = value_of(17, 5);
        assert_eq!(version_of(&v), Some(5));
        assert_ne!(value_of(17, 5), value_of(18, 5));
        assert_ne!(value_of(17, 5), value_of(17, 6));
        assert_eq!(version_of(&[1, 2]), None);
    }
}
