//! The Mtest workload (paper Section IV-C): insert `n` key/value pairs
//! in write transactions of ~10 operations, interleaved with traversals
//! and deletions — ~650 persistent stores per durable FASE at paper
//! scale (65.5M stores / 100.5K FASEs).
//!
//! The store underneath is [`nvcache_treestore::Tree`] over a
//! [`FasePager`]; one engine transaction is one FASE.

use crate::workload::{paper_row, PaperRow, Workload};
use nvcache_core::PolicyKind;
use nvcache_trace::Trace;
use nvcache_treestore::{FasePager, Tree, TreeConfig};

/// The MDB/Mtest workload.
#[derive(Debug, Clone)]
pub struct MdbWorkload {
    /// Keys inserted (paper: 1 000 000).
    pub n: usize,
    /// Operations per write transaction (paper: ~10).
    pub batch: usize,
}

/// Where Mtest's LMDB-style meta words live: the second and third
/// words of the tree's head line, which the tree writes once, at
/// format (its magic word is the first), and never again.
const META: usize = 8;

/// The tree Mtest runs against, sized for roughly `capacity` key/value
/// pairs.
fn mtest_tree(capacity: usize, policy: &PolicyKind) -> Tree<FasePager> {
    let cap = capacity.max(64);
    // each live key needs one 256 B value cell plus its share of a
    // leaf; double it for CoW churn between reclaims and add fixed
    // slack for the head line and the class table
    let cfg = TreeConfig {
        data_len: (cap * 2 + 1024) * 256,
        policy: policy.clone(),
        ..TreeConfig::default()
    };
    Tree::create(&cfg).expect("format tree")
}

/// Mtest's LMDB meta-page traffic: txnid + dirty-page count share one
/// hot cache line, stored on every insert and delete. The stores are
/// unlogged, as the tree's own are (its runtime has no undo log), and
/// no recovery reads them: Mtest records a trace and never recovers
/// one.
fn touch_meta(t: &mut Tree<FasePager>, txid: &mut u64) {
    *txid += 1;
    let rt = t.store_mut().runtime_mut();
    rt.store_fresh(META, &txid.to_le_bytes());
    rt.store_fresh(META + 8, &(*txid & 0x3f).to_le_bytes());
    rt.work(4);
}

/// Mtest's shuffled insert order.
fn key_of(k: usize) -> u64 {
    (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16
}

impl MdbWorkload {
    /// Paper-shaped instance scaled by `scale` (`1.0` = 1M inserts).
    pub fn scaled(scale: f64) -> Self {
        MdbWorkload {
            n: ((1_000_000.0 * scale) as usize).max(64),
            batch: 10,
        }
    }

    /// Run the workload against a tree; returns (inserted, deleted,
    /// traversed) op counts for verification.
    fn run(&self, t: &mut Tree<FasePager>) -> (usize, usize, usize) {
        let mut inserted = 0usize;
        let mut deleted = 0usize;
        let mut traversed = 0usize;
        let mut txid = 0u64;
        let mut i = 0usize;
        while i < self.n {
            let hi = (i + self.batch).min(self.n);
            t.begin();
            for k in i..hi {
                t.put(key_of(k), &(k as u64).to_le_bytes())
                    .expect("btree heap exhausted");
                touch_meta(t, &mut txid);
                inserted += 1;
            }
            t.commit();
            t.reclaim();
            // periodic traversal (read-only; exercises snapshot reads)
            if (i / self.batch) % 64 == 63 {
                t.visit(None, 0, u64::MAX, |_, _| {
                    traversed += 1;
                    true
                });
            }
            // periodic deletions
            if (i / self.batch) % 16 == 15 {
                t.begin();
                for k in (i.saturating_sub(8))..i {
                    t.delete(key_of(k)).expect("btree heap exhausted");
                    touch_meta(t, &mut txid);
                    deleted += 1;
                }
                t.commit();
                t.reclaim();
            }
            i = hi;
        }
        (inserted, deleted, traversed)
    }
}

impl Workload for MdbWorkload {
    fn name(&self) -> &'static str {
        "mdb"
    }

    /// Every thread runs the same program, its share of the keys on a
    /// fresh tree, and none reads its index: the program is recorded
    /// once and its threads share the one buffer.
    fn trace(&self, threads: usize) -> Trace {
        let threads = threads.max(1);
        let w = MdbWorkload {
            n: (self.n / threads).max(self.batch),
            batch: self.batch,
        };
        let mut tree = mtest_tree(w.n + 64, &PolicyKind::Best);
        tree.store_mut().runtime_mut().record_trace();
        w.run(&mut tree);
        let rec = tree.store_mut().runtime_mut().take_trace().unwrap();
        Trace::replicated(rec, threads)
    }

    fn paper_row(&self) -> Option<PaperRow> {
        paper_row("mdb")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::{flush_stats, PolicyKind};
    use nvcache_locality::{lru_mrc, select_cache_size, KneeConfig};

    #[test]
    fn run_keeps_tree_consistent() {
        let w = MdbWorkload { n: 500, batch: 10 };
        let mut t = mtest_tree(600, &PolicyKind::ScFixed { capacity: 20 });
        let (ins, del, _) = w.run(&mut t);
        assert_eq!(ins, 500);
        assert!(del > 0);
        assert_eq!(t.len() as usize, ins - del);
        let v = t.scan(None, 0, u64::MAX, usize::MAX);
        assert!(v.windows(2).all(|x| x[0].0 < x[1].0), "sorted");
    }

    #[test]
    fn trace_has_batched_fases() {
        let w = MdbWorkload { n: 400, batch: 10 };
        let tr = w.trace(1);
        // ~40 insert txns + constructor + delete txns
        assert!(tr.total_fases() >= 40, "fases = {}", tr.total_fases());
        let s = tr.stats();
        assert!(
            s.writes_per_fase > 50.0,
            "COW path copies give big FASEs: {}",
            s.writes_per_fase
        );
    }

    #[test]
    fn knee_is_moderate_like_paper() {
        // paper Section IV-G: mdb selects 20, over LMDB's 4 KiB pages.
        // Here a put's working set is the value cell's line, the ≤ 4
        // lines of a 256 B leaf and the meta line `touch_meta` stores
        // after every operation: 1 + 4 + 1 = 6 lines, and that is where
        // the exact MRC's knee sits. Pinned as measured — still
        // moderate: above the tight kernels, far below the 50-line cap.
        let w = MdbWorkload { n: 1500, batch: 10 };
        let tr = w.trace(1);
        let renamed = tr.threads[0].renamed_writes();
        let mrc = lru_mrc(&renamed, 50);
        let knee = select_cache_size(&mrc, &KneeConfig::default());
        assert_eq!(knee, 6, "mdb knee = value line + leaf lines + meta line");
    }

    #[test]
    fn policy_ordering_matches_table3() {
        // paper: LA 0.052, SC 0.113, AT 0.301
        let w = MdbWorkload { n: 1000, batch: 10 };
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy).flush_ratio();
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 }).flush_ratio();
        let sc = flush_stats(&tr, &PolicyKind::ScFixed { capacity: 20 }).flush_ratio();
        assert!(la <= sc + 1e-9, "LA {la} ≤ SC {sc}");
        assert!(sc < at, "SC {sc} < AT {at}");
    }

    #[test]
    fn recorded_trace_is_pinned() {
        // `replay_mdb`'s flush_ratio / nvm_flushes_per_op and Tables
        // II/III are functions of this event stream: a change that
        // moves it must say so by moving these constants. (PR 22 did:
        // 3 269 → 16 600 writes over the same 42 FASEs — the tree
        // stores the bytes a put changed and a multi-word store is
        // recorded word by word. The hash moved once more when the meta
        // head got two slots: a commit's eight head words alternate
        // between two lines, and the segment-table writes come before
        // them; the counts did not move. It moved again when the head
        // went: a transaction commits by its sealed pages, so each of
        // the 42 FASEs lost the head's eight word stores and gained the
        // two of its closing store — 16 600 → 16 348 writes. It moved
        // again when the tree's image became the hash shard's segment
        // table: each of the 27 segments the run carves lost the
        // table-entry store its transaction made, and the meta words
        // moved from a heap block to the head line — 16 348 → 16 321
        // writes over the same 42 FASEs.)
        use std::hash::Hasher;
        let tr = MdbWorkload { n: 400, batch: 10 }.trace(1);
        let mut h = nvcache_trace::FxHasher::default();
        for w in tr.threads[0].renamed_writes() {
            h.write_u64(w);
        }
        assert_eq!(tr.total_writes(), 16_321);
        assert_eq!(tr.total_fases(), 42);
        assert_eq!(h.finish(), 0xd6d9_d28a_fd4c_99ba);
    }

    #[test]
    fn multithreaded_trace() {
        let w = MdbWorkload { n: 400, batch: 10 };
        let tr = w.trace(8);
        assert_eq!(tr.num_threads(), 8);
    }

    /// The trace as it was recorded before threads shared a buffer: one
    /// run of the program per thread, each on its own tree.
    fn trace_per_thread(w: &MdbWorkload, threads: usize) -> Trace {
        let threads = threads.max(1);
        let per = (w.n / threads).max(w.batch);
        let mut recs = Vec::with_capacity(threads);
        for _t in 0..threads {
            let w = MdbWorkload {
                n: per,
                batch: w.batch,
            };
            let mut tree = mtest_tree(per + 64, &PolicyKind::Best);
            tree.store_mut().runtime_mut().record_trace();
            w.run(&mut tree);
            recs.push(tree.store_mut().runtime_mut().take_trace().unwrap());
        }
        Trace::from_threads(recs)
    }

    #[test]
    fn one_recording_equals_one_per_thread() {
        let w = MdbWorkload { n: 400, batch: 10 };
        for threads in [0, 1, 3, 8] {
            let tr = w.trace(threads);
            assert_eq!(tr, trace_per_thread(&w, threads), "{threads} threads");
            let first = &tr.threads[0];
            assert!(
                tr.threads.iter().all(|t| std::sync::Arc::ptr_eq(t, first)),
                "{threads} threads: one buffer"
            );
        }
    }
}
