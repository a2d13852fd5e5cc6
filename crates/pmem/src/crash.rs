//! Crash-injection policies: which un-fenced lines survive a power
//! failure.
//!
//! A correct persistence protocol must recover no matter which subset of
//! in-flight lines reached NVRAM. Testing under several adversarial
//! selections (none, all, random subsets across seeds) is how the
//! integration suite demonstrates FASE atomicity.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What happens to un-fenced lines at a crash.
#[derive(Debug, Clone, PartialEq)]
pub enum CrashMode {
    /// Only fenced data survives: all pending flushes and dirty lines are
    /// lost. Adversarial for missing-flush bugs.
    StrictDurableOnly,
    /// Every pending flush *and* every dirty line lands (the cache
    /// happened to write everything back). Adversarial for
    /// ordering bugs — data may become durable *before* its log entry if
    /// the protocol relies on "not flushed ⇒ not durable".
    AllInFlightLands,
    /// Each pending flush lands with probability `p_pending`; each dirty
    /// line lands with probability `p_dirty` (natural eviction).
    Random {
        /// Probability a flushed-but-unfenced line landed.
        p_pending: f64,
        /// Probability a dirty (never flushed) line landed.
        p_dirty: f64,
        /// RNG seed (deterministic failure schedules).
        seed: u64,
    },
    /// Exactly the named lines land: each pending flush among `pending`
    /// and each dirty line among `dirty`; a named line not in flight
    /// changes nothing. A test's way to name one landed set, so that it
    /// can enumerate every set instead of sampling.
    Exactly {
        /// Pending flushes that land.
        pending: Vec<u64>,
        /// Dirty lines that land.
        dirty: Vec<u64>,
    },
}

impl CrashMode {
    /// Shorthand for [`CrashMode::Random`].
    pub fn random(p_pending: f64, p_dirty: f64, seed: u64) -> Self {
        CrashMode::Random {
            p_pending,
            p_dirty,
            seed,
        }
    }

    /// Select the lines that reach NVRAM, given the pending-flush lines
    /// and the dirty lines at the instant of failure. Union of the two
    /// selections from [`CrashMode::select_landed_split`].
    pub fn select_landed(&self, pending: &[u64], dirty: &[u64]) -> Vec<u64> {
        let (p, d) = self.select_landed_split(pending, dirty);
        let mut v = p;
        v.extend(d);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Like [`CrashMode::select_landed`], but keeps the two selections
    /// apart: the first vector is the pending flushes that landed (their
    /// flush-time captures reach NVRAM), the second the dirty lines the
    /// hardware cache evicted on its own (their *current* bytes reach
    /// NVRAM). A line flushed and then re-dirtied can appear in both —
    /// the dirty copy is the newer write and wins.
    pub fn select_landed_split(&self, pending: &[u64], dirty: &[u64]) -> (Vec<u64>, Vec<u64>) {
        match self {
            CrashMode::StrictDurableOnly => (Vec::new(), Vec::new()),
            CrashMode::AllInFlightLands => {
                let mut p = pending.to_vec();
                p.sort_unstable();
                p.dedup();
                let mut d = dirty.to_vec();
                d.sort_unstable();
                d.dedup();
                (p, d)
            }
            CrashMode::Random {
                p_pending,
                p_dirty,
                seed,
            } => {
                let mut rng = SmallRng::seed_from_u64(*seed);
                // sort for determinism independent of hash iteration order
                let mut p: Vec<u64> = pending.to_vec();
                p.sort_unstable();
                let mut d: Vec<u64> = dirty.to_vec();
                d.sort_unstable();
                let mut lp = Vec::new();
                for &l in &p {
                    if rng.gen::<f64>() < *p_pending {
                        lp.push(l);
                    }
                }
                let mut ld = Vec::new();
                for &l in &d {
                    if rng.gen::<f64>() < *p_dirty {
                        ld.push(l);
                    }
                }
                (lp, ld)
            }
            CrashMode::Exactly {
                pending: p,
                dirty: d,
            } => {
                let named = |lines: &[u64], named: &[u64]| {
                    let mut v: Vec<u64> = lines
                        .iter()
                        .copied()
                        .filter(|l| named.contains(l))
                        .collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                (named(pending, p), named(dirty, d))
            }
        }
    }
}

/// A scheduled crash: inject a power failure (under `mode`) at the
/// moment the region is about to execute persistence micro-step
/// `at_step`.
///
/// Micro-steps are the unit of crash-point enumeration: every store,
/// line flush, and fence the region executes — which transitively
/// covers undo-log appends, tail bumps, and commit sub-steps, since the
/// log performs them through the region. Arm a plan with
/// [`crate::PmemRegion::arm_crash`]; when the step counter reaches
/// `at_step`, the region captures the exact NVRAM image a
/// [`crate::PmemRegion::crash`] at that instant would leave (durable
/// image plus the lines `mode` lets land). Execution then continues
/// unperturbed, so one deterministic program run yields the crash image
/// for any chosen step; the driver rebuilds a region from the image and
/// runs recovery against it.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    /// Micro-step index at which the failure strikes: the power fails
    /// after `at_step` micro-steps completed, before step `at_step`
    /// executes.
    pub at_step: u64,
    /// Which un-fenced lines survive.
    pub mode: CrashMode,
}

/// Every image a power failure at micro-step `step` can leave, where
/// `run(plan)` runs a program with `plan` armed and returns its crash
/// image. The lines in flight at the cut are found by landing every
/// pending flush, then every dirty line, of a region of `lines` lines;
/// then each subset of them lands, named by [`CrashMode::Exactly`]:
/// every subset when there are at most 12, else 4 096 subsets seeded
/// by `step`. The images come one at a time, each from its own run.
/// Test-facing: the crash-state tests of both engines judge each
/// image against their committed-prefix oracle.
pub fn landings<'a>(
    run: &'a dyn Fn(CrashPlan) -> Vec<u8>,
    step: u64,
    lines: u64,
) -> impl Iterator<Item = Vec<u8>> + 'a {
    let image = move |pending, dirty| {
        let mode = CrashMode::Exactly { pending, dirty };
        run(CrashPlan {
            at_step: step,
            mode,
        })
    };
    let none = image(Vec::new(), Vec::new());
    let in_flight = |landed: Vec<u8>| -> Vec<u64> {
        let line = |l: u64| l as usize * 64..(l as usize + 1) * 64;
        let moved = |&l: &u64| landed[line(l)] != none[line(l)];
        (0..lines).filter(moved).collect()
    };
    let pending = in_flight(image((0..lines).collect(), Vec::new()));
    let dirty = in_flight(image(Vec::new(), (0..lines).collect()));
    let n = pending.len() + dirty.len();
    let mut rng = SmallRng::seed_from_u64(step);
    let subsets: Vec<Vec<bool>> = if n <= 12 {
        let bits = |mask: usize| (0..n).map(|i| mask >> i & 1 == 1).collect();
        (0..1 << n).map(bits).collect()
    } else {
        (0..4096)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect()
    };
    fn pick(lines: &[u64], landed: &[bool]) -> Vec<u64> {
        let picked = lines.iter().zip(landed).filter(|(_, &l)| l);
        picked.map(|(&line, _)| line).collect()
    }
    subsets.into_iter().map(move |landed| {
        let (p, d) = landed.split_at(pending.len());
        image(pick(&pending, p), pick(&dirty, d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_drops_everything() {
        let m = CrashMode::StrictDurableOnly;
        assert!(m.select_landed(&[1, 2], &[3]).is_empty());
    }

    #[test]
    fn all_lands_everything_deduped() {
        let m = CrashMode::AllInFlightLands;
        assert_eq!(m.select_landed(&[2, 1], &[2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let m = CrashMode::random(0.5, 0.5, 42);
        let pending: Vec<u64> = (0..100).collect();
        let dirty: Vec<u64> = (100..200).collect();
        assert_eq!(
            m.select_landed(&pending, &dirty),
            m.select_landed(&pending, &dirty)
        );
    }

    #[test]
    fn random_extremes() {
        let none = CrashMode::random(0.0, 0.0, 1);
        assert!(none.select_landed(&[1, 2], &[3]).is_empty());
        let all = CrashMode::random(1.0, 1.0, 1);
        assert_eq!(all.select_landed(&[1, 2], &[3]).len(), 3);
    }

    #[test]
    fn random_order_independent() {
        let m = CrashMode::random(0.5, 0.5, 9);
        let a = m.select_landed(&[5, 1, 9], &[7, 3]);
        let b = m.select_landed(&[9, 5, 1], &[3, 7]);
        assert_eq!(a, b, "selection must not depend on input order");
    }

    /// Exactly the named lines of each list land: a line named for the
    /// other list, or named but not in flight, does not.
    #[test]
    fn exactly_lands_the_named_lines_in_flight() {
        let m = CrashMode::Exactly {
            pending: vec![2, 3, 8],
            dirty: vec![1, 5],
        };
        let (p, d) = m.select_landed_split(&[3, 1, 2], &[5, 3, 4]);
        assert_eq!((p, d), (vec![2, 3], vec![5]));
    }
}
