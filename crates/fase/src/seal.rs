//! The commit rule both engines share (DESIGN.md §6.3): a FASE that
//! logs nothing commits by its own **sealed units** — a hash shard's
//! value slots, a tree transaction's pages. Every unit carries its
//! FASE's **stamp** and a [`checksum`] of the bytes it covers (it is
//! **whole** when that holds); the FASE's **closing unit** also carries
//! the number *n* of units the FASE leaves, every other unit 0. Only the
//! FASE with the highest stamp *E* can be torn — FASE *E* + 1 stores
//! nothing before *E*'s fence — so recovery judges it alone
//! ([`committed`]), and the owner voids every unit stamped above the
//! verdict before its next FASE reuses that stamp.

use std::fmt;

use crate::log;

/// Stamps lie below this: a stamp past it is damage, and a stamp never
/// wraps. It fits a hash slot's header and a tree page's stamp word.
pub const STAMP_LIMIT: u64 = 1 << 48;

/// The stamp of the FASE after the one stamped `committed`.
///
/// # Panics
/// When that stamp would reach [`STAMP_LIMIT`].
pub fn next(committed: u64) -> u64 {
    assert!(committed + 1 < STAMP_LIMIT, "2⁴⁸ − 1 FASEs stamped");
    committed + 1
}

/// The 32-bit checksum of a unit that covers the bytes `runs`, seeded
/// with its owner's magic word: [`log::checksum`] chained run by run.
pub fn checksum<'a>(magic: u64, runs: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    runs.into_iter().fold(magic, log::checksum) >> 32
}

/// A unit that breaks the commit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealError {
    /// The owner's name for the unit (an offset, a page id).
    pub unit: u64,
    /// Which rule broke.
    pub why: &'static str,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad seal of unit {:#x}: {}", self.unit, self.why)
    }
}

impl std::error::Error for SealError {}

/// The stamp of the last committed FASE of an image whose units are
/// `units`, each `(unit, stamp, seal)`: the owner's name for it, its
/// stamp, and what its seal says — `None` when it is not whole, else
/// `Some(n)` (0 but on a closing unit), asked only of units at the
/// highest stamp so far. *E*, the highest stamp, is committed when one
/// whole closing unit carries it and exactly its *n* whole units do;
/// otherwise *E* − 1 is (0 when no unit carries a stamp).
///
/// An image is hostile, and the error names the unit, when it holds a
/// stamp in the reserved range, two whole closing units of one FASE
/// while its stamp is the highest so far, or more whole units of *E*
/// than its closing unit counts.
pub fn committed<S>(units: impl IntoIterator<Item = (u64, u64, S)>) -> Result<u64, SealError>
where
    S: FnOnce() -> Option<u64>,
{
    let bad = |unit, why| Err(SealError { unit, why });
    let (mut top, mut whole, mut closing) = (0, 0, None);
    for (unit, stamp, seal) in units {
        if stamp >= STAMP_LIMIT {
            return bad(unit, "a stamp in the reserved range");
        }
        if stamp > top {
            (top, whole, closing) = (stamp, 0, None);
        }
        let Some(n) = (stamp == top && top > 0).then(seal).flatten() else {
            continue;
        };
        whole += 1;
        if n != 0 && closing.replace((unit, n)).is_some() {
            return bad(unit, "a second closing unit of one FASE");
        }
    }
    match closing {
        Some((unit, n)) if whole > n => bad(unit, "more whole units than their FASE wrote"),
        Some((_, n)) if whole == n => Ok(top),
        _ => Ok(top.saturating_sub(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`committed`] over `units`, each `(stamp, seal)`, named by index.
    fn fold(units: &[(u64, Option<u64>)]) -> Result<u64, SealError> {
        let named = units.iter().zip(0..);
        committed(named.map(|(&(stamp, seal), unit)| (unit, stamp, move || seal)))
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// FASE `e` writes `n` units in some order, its closing unit
        /// anywhere in it, over the closing unit of FASE `e` − 1 and
        /// `older` units of earlier FASEs (or void ones). Cut after any
        /// prefix of its writes — the next one torn or not — the image
        /// commits `e` when every unit landed whole and `e` − 1
        /// otherwise, and is never an error.
        #[test]
        fn every_prefix_cut_commits_e_or_the_one_before(
            e in 1u64..STAMP_LIMIT,
            n in 1u64..12,
            older in prop::collection::vec(any::<u64>(), 0..24),
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let close = splitmix(&mut rng) % n;
            // a stamp below `e` − 1: what a unit held before
            let earlier = |s: u64| s % (e - 1).max(1);
            for cut in 0..=n {
                for torn in [false, true] {
                    let mut units: Vec<_> = older.iter().map(|&s| (earlier(s), Some(0))).collect();
                    units.push((e - 1, Some(1)));
                    for j in 0..n {
                        units.push(if j < cut {
                            (e, Some(if j == close { n } else { 0 }))
                        } else if j == cut && torn {
                            (e, None)
                        } else {
                            (earlier(splitmix(&mut rng)), Some(0))
                        });
                    }
                    // the survey reads units in address order, not in
                    // the order they were written
                    for i in (1..units.len()).rev() {
                        units.swap(i, splitmix(&mut rng) as usize % (i + 1));
                    }
                    let want = if cut == n { e } else { e - 1 };
                    prop_assert_eq!(fold(&units), Ok(want), "cut {} of {}", cut, n);
                }
            }
        }
    }

    /// The vocabulary of the rule: one hostile set of units per way an
    /// image can break it, each refused with the unit that breaks it,
    /// and the images a crash can leave, each judged.
    #[test]
    fn each_rule_of_the_fold_has_its_hostile_units() {
        // FASE 5 wrote three units, unit 2 its closing one, over a unit
        // of FASE 4
        let sound = [(4, Some(1)), (5, Some(0)), (5, Some(3)), (5, Some(0))];
        let with = |extra: &[(u64, Option<u64>)]| [&sound[..], extra].concat();
        let bad = |unit, why| Err(SealError { unit, why });
        let cases = [
            (
                with(&[(STAMP_LIMIT, Some(0))]),
                bad(4, "a stamp in the reserved range"),
            ),
            (
                with(&[(5, Some(3))]),
                bad(4, "a second closing unit of one FASE"),
            ),
            (
                with(&[(5, Some(0))]),
                bad(2, "more whole units than their FASE wrote"),
            ),
            (with(&[]), Ok(5)),
            // a FASE is judged while its stamp is the highest so far
            (with(&[(4, Some(1)), (3, Some(0))]), Ok(5)),
            (
                [&[(4, Some(1))], &sound[..]].concat(),
                bad(1, "a second closing unit of one FASE"),
            ),
            (with(&[(5, None)]), Ok(5)),
            (with(&[(6, Some(2))]), Ok(5)),
            (with(&[(6, None), (6, Some(0))]), Ok(5)),
            (sound[..2].to_vec(), Ok(4)),
            (vec![(0, None), (0, Some(7))], Ok(0)),
            (vec![(STAMP_LIMIT - 1, Some(1))], Ok(STAMP_LIMIT - 1)),
        ];
        for (units, want) in cases {
            assert_eq!(fold(&units), want, "{units:?}");
        }
    }

    /// The checksum is the log's, run by run: a change in any run, or a
    /// byte moved across two runs, changes it.
    #[test]
    fn a_checksum_covers_each_run_in_order() {
        let sum = checksum(7, [&b"header"[..], b"value"]);
        assert_eq!(
            sum,
            log::checksum(log::checksum(7, b"header"), b"value") >> 32
        );
        assert!(sum < 1 << 32);
        assert_ne!(sum, checksum(7, [&b"headerv"[..], b"alue"]));
        assert_ne!(sum, checksum(8, [&b"header"[..], b"value"]));
    }

    #[test]
    #[should_panic(expected = "FASEs stamped")]
    fn no_stamp_reaches_the_limit() {
        assert_eq!(next(STAMP_LIMIT - 2), STAMP_LIMIT - 1);
        next(STAMP_LIMIT - 1);
    }
}
