//! Property tests for the flush path: the submission ring's
//! sorted + coalesced drain must flush **exactly** the submitted line
//! set — duplicates collapse, adjacent lines merge into ranged sweeps,
//! nothing is dropped — and the bytes that become durable must be
//! byte-identical to a blocking per-line flush loop over the same set.

use nvcache::pmem::{coalesce_sorted, CrashMode, FlushRing, PmemRegion};
use proptest::prelude::*;

const LINES: u64 = 64;

/// Dirty `line` with a byte derived from its index so every line's
/// durable content is distinguishable.
fn dirty(r: &mut PmemRegion, line: u64) {
    r.write(line as usize * 64, &[line as u8 ^ 0xa5; 8]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `coalesce_sorted` partitions its input exactly: the expanded
    /// union of the runs is the input sequence itself, and runs are
    /// maximal (no two adjacent runs touch).
    #[test]
    fn coalesced_runs_are_an_exact_maximal_partition(
        raw in prop::collection::vec(0u64..LINES, 0..48),
    ) {
        let mut lines = raw;
        lines.sort_unstable();
        lines.dedup();
        let runs = coalesce_sorted(&lines);
        let expanded: Vec<u64> = runs
            .iter()
            .flat_map(|&(s, n)| s..s + n)
            .collect();
        prop_assert_eq!(&expanded, &lines, "runs must cover exactly the input set");
        for w in runs.windows(2) {
            prop_assert!(
                w[0].0 + w[0].1 < w[1].0,
                "adjacent runs {:?} and {:?} should have merged",
                w[0],
                w[1]
            );
        }
    }

    /// Submitting an arbitrary line sequence (duplicates and adjacent
    /// lines included) and draining flushes exactly the deduplicated
    /// set: one flush instruction per distinct line, and the durable
    /// image equals a blocking per-line loop's.
    #[test]
    fn drain_flushes_exactly_the_submitted_set(
        submits in prop::collection::vec(0u64..LINES, 1..96),
    ) {
        let mut ring = FlushRing::new(128);
        let mut piped = PmemRegion::new((LINES * 64) as usize);
        let mut blocking = PmemRegion::new((LINES * 64) as usize);
        for &l in &submits {
            dirty(&mut piped, l);
            dirty(&mut blocking, l);
        }
        for &l in &submits {
            prop_assert!(ring.submit(l));
        }
        let mut distinct = submits.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let issued = ring.drain_all(&mut piped);
        prop_assert_eq!(issued, distinct.len() as u64, "one flush per distinct line");
        prop_assert_eq!(piped.stats().flushes, distinct.len() as u64);
        let st = ring.stats();
        prop_assert_eq!(st.submitted, st.flushed + st.elided, "a duplicate is elided");
        prop_assert!(ring.is_empty());
        for &l in &distinct {
            blocking.flush_line(l);
        }
        piped.fence();
        blocking.fence();
        piped.crash(&CrashMode::StrictDurableOnly);
        blocking.crash(&CrashMode::StrictDurableOnly);
        prop_assert_eq!(
            piped.durable_image(),
            blocking.durable_image(),
            "coalesced sweeps persist the same bytes as the blocking loop"
        );
    }

    /// Interleaved writes, submits, mid-stream drains and commits:
    /// whatever the program wrote and submitted before its final
    /// drain+fence must be durable — the ring never loses a line, under
    /// any interleaving.
    #[test]
    fn interleaved_drains_never_lose_a_submitted_write(
        ops in prop::collection::vec((0u64..LINES, 0u8..4), 1..64),
    ) {
        let mut ring = FlushRing::new(256);
        let mut r = PmemRegion::new((LINES * 64) as usize);
        let mut reference = PmemRegion::new((LINES * 64) as usize);
        for &(line, kind) in &ops {
            match kind {
                // write + submit (the runtime's store-then-flush shape)
                0 | 1 => {
                    dirty(&mut r, line);
                    dirty(&mut reference, line);
                    prop_assert!(ring.submit(line));
                }
                // mid-epoch drain (ring-full fallback path)
                2 => {
                    ring.drain_all(&mut r);
                }
                // commit boundary: drain, fence
                _ => {
                    ring.drain_all(&mut r);
                    r.fence();
                    reference.fence();
                }
            }
        }
        ring.drain_all(&mut r);
        r.fence();
        for l in 0..LINES {
            reference.flush_line(l);
        }
        reference.fence();
        r.crash(&CrashMode::StrictDurableOnly);
        reference.crash(&CrashMode::StrictDurableOnly);
        prop_assert_eq!(
            r.durable_image(),
            reference.durable_image(),
            "every submitted write is durable after the final drain+fence"
        );
    }
}
