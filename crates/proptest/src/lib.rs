//! Property-based testing for the workspace.
//!
//! An in-repo stand-in for the slice of the `proptest` API the test
//! suite uses: the [`Strategy`] trait with `prop_map`, integer-range
//! and tuple strategies, [`collection::vec`], [`any`], the
//! [`proptest!`] macro with an optional `#![proptest_config(..)]`
//! header, and the `prop_assert*` macros. Cargo renames this package
//! to `proptest`, so test files are unchanged.
//!
//! Semantics: each test body runs `cases` times against values drawn
//! from a generator seeded deterministically from the test's module
//! path and name, so failures are reproducible run-to-run. There is
//! no shrinking — a failing case panics with the assertion message —
//! which keeps the engine small while preserving the suite's power to
//! detect invariant violations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;

pub use strategy::{any, Arbitrary, Strategy};

/// Runner configuration and the deterministic test generator.
pub mod test_runner {
    use rand::rngs::SmallRng;
    pub use rand::Rng;
    use rand::{RngCore, SeedableRng};

    /// How many cases each property runs (the only knob the suite uses).
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic generator driving all strategies in one test.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: SmallRng,
    }

    impl TestRng {
        /// Seeded from the test's fully qualified name: stable across
        /// runs and platforms, distinct across tests.
        pub fn for_test(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                inner: SmallRng::seed_from_u64(h),
            }
        }

        /// Next 64 raw bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }

        /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.inner.next_u64() % bound
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::Range;

    /// Strategy producing `Vec`s of `element` with length in `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` strategy with length drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "collection::vec: empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace mirror so `prop::collection::vec` resolves as upstream.
pub mod prop {
    pub use crate::collection;
}

/// One-stop imports for test files (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assert a condition inside a property; supports format arguments.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property; supports format arguments.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property; supports format arguments.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running the body over generated inputs. An
/// optional leading `#![proptest_config(expr)]` sets the case count.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr)) => {};
    (@run ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let u = (0usize..4).sample(&mut rng);
            assert!(u < 4);
        }
    }

    #[test]
    fn vec_strategy_honours_size() {
        let mut rng = TestRng::for_test("vecs");
        for _ in 0..500 {
            let v = prop::collection::vec(0u64..8, 2..6).sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 8));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_test_name() {
        let strat = prop::collection::vec((0u64..100, any::<bool>()), 1..20);
        let mut a = TestRng::for_test("det");
        let mut b = TestRng::for_test("det");
        for _ in 0..100 {
            assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
        }
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = TestRng::for_test("map");
        let strat = (1u32..5).prop_map(|x| x * 10);
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!((10..50).contains(&v) && v % 10 == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: generated args obey their strategies.
        #[test]
        fn macro_generates_valid_inputs(
            xs in prop::collection::vec(0u64..24, 1..12),
            flag in any::<bool>(),
            k in 1usize..8,
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 12);
            prop_assert!(xs.iter().all(|&x| x < 24));
            prop_assert!((1..8).contains(&k));
            let _ = flag;
        }
    }

    proptest! {
        /// Default config path (no header) also compiles and runs.
        #[test]
        fn macro_default_config(x in 0u8..3) {
            prop_assert!(x < 3);
        }
    }
}
