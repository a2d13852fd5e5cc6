//! Deterministic pseudo-random number generation for the simulator.
//!
//! This crate is an in-repo stand-in for the tiny slice of the `rand`
//! crate the workspace actually uses (`SmallRng::seed_from_u64`,
//! `Rng::gen`, `Rng::gen_range`, and a uniform `f64` distribution).
//! It exists so the workspace builds with zero external dependencies
//! in network-restricted environments; call sites are unchanged
//! because Cargo renames this package to `rand`.
//!
//! The generator is SplitMix64: a 64-bit state advanced by a Weyl
//! constant and finalized with two xor-shift-multiply rounds. It is
//! statistically strong for simulation workloads, passes the obvious
//! equidistribution checks, and — the property everything downstream
//! relies on — is exactly reproducible for a given seed on every
//! platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Core trait for generators: produce the next 64 random bits.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly distributed bits (upper half of `next_u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Values that can be drawn uniformly from a generator's raw bits.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in [0, 1): the top 53 bits scaled by 2^-53, the exact
    /// construction rand uses, so every f64 is representable.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that `Rng::gen_range` accepts.
pub trait SampleRange {
    /// Element type produced by the range.
    type Output;
    /// Draw a value uniformly from the (half-open) range.
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Convenience methods layered over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of type `T` from the generator's raw bits.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draw uniformly from a half-open range.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng { state: seed }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

/// Distributions, mirroring `rand::distributions`.
pub mod distributions {
    use super::{Rng, RngCore};

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform distribution over a half-open `f64` interval.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform {
        low: f64,
        span: f64,
    }

    impl Uniform {
        /// Uniform over `[low, high)`.
        pub fn new(low: f64, high: f64) -> Self {
            assert!(low < high, "Uniform::new: empty interval");
            Uniform {
                low,
                span: high - low,
            }
        }
    }

    impl Distribution<f64> for Uniform {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            self.low + rng.gen::<f64>() * self.span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_centered() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0u64..10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn uniform_distribution_spans_interval() {
        use distributions::Distribution;
        let d = distributions::Uniform::new(2.0, 6.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 2.1 && hi > 5.9);
    }

    #[test]
    fn bool_is_roughly_balanced() {
        let mut rng = SmallRng::seed_from_u64(9);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4500..5500).contains(&trues), "{trues}");
    }
}
