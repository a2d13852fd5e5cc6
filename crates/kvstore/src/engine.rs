//! The engine seam: what a shard lane needs from the storage structure
//! it serves. Two implementations ride behind the same lanes (caller-
//! run when idle, queued and group-committed when busy), crash
//! plumbing, and network layer:
//!
//! * [`Shard`] — the persistent hash map (point ops in O(1) through its
//!   volatile index; a scan is a pass over the index that keeps the
//!   `limit` smallest keys in range);
//! * [`TreeEngine`] — the copy-on-write B+-tree from `nvcache-treestore`
//!   (ordered scans stream leaves; every batch with a write is one CoW
//!   transaction published by one FASE commit).
//!
//! Whoever serves a lane — a submitter that found it idle, or one that
//! queued and then got the lane's lock — drives exactly
//! [`Engine::serve_batch`] + [`Engine::heal_after_panic`]; everything
//! else is server plumbing (stats scraping, crash injection,
//! verification dumps).

use nvcache_fase::FaseStats;
use nvcache_pmem::{CrashMode, CrashPlan};
use nvcache_treestore::{FasePager, Tree, TreeConfig, TreeError};

use crate::shard::{BatchReply, BatchRequest, CapacityChoice, Shard};

/// A storage engine servable by a `KvServer` lane.
#[allow(clippy::len_without_is_empty)]
pub trait Engine: Send + 'static {
    /// Serve one batch (a submitter's own group, or what the lane's
    /// holder drained from the submission queue) with sequential
    /// semantics (a request observes every earlier request of its own
    /// batch) and the committed-prefix crash contract: after this
    /// returns, every reply's effect is durable; a crash mid-batch
    /// exposes only a prefix of the batch's commits, never a torn one.
    fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply>;

    /// Roll back whatever a panic unwinding through `serve_batch` left
    /// open and rebuild volatile state. Returns whether anything needed
    /// healing.
    fn heal_after_panic(&mut self) -> bool;

    /// Inject a power failure and recover in place.
    fn crash_and_recover(&mut self, mode: &CrashMode);

    /// Flush buffered state (clean shutdown).
    fn sync(&mut self);

    /// Live keys.
    fn len(&self) -> usize;

    /// Every `(key, value)` pair, sorted by key (verification).
    fn dump(&mut self) -> Vec<(u64, Vec<u8>)>;

    /// Cumulative runtime counters.
    fn stats(&self) -> FaseStats;

    /// Counters since the last take.
    fn take_stats(&mut self) -> FaseStats;

    /// Persistence micro-steps executed (crash-point index space).
    fn steps(&self) -> u64;

    /// Arm a crash plan on the engine's region.
    fn arm_crash(&mut self, plan: CrashPlan);

    /// The crash image captured by an armed plan, if reached.
    fn take_crash_image(&mut self) -> Option<Vec<u8>>;

    /// Restart adaptation measurement (no-op for engines without a
    /// live controller).
    fn reset_sampler(&mut self) {}

    /// Capacity decisions the live controller has made, in order
    /// (empty for engines without one).
    fn chosen(&self) -> Vec<CapacityChoice> {
        Vec::new()
    }
}

impl Engine for Shard {
    fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply> {
        Shard::serve_batch(self, reqs)
    }
    fn heal_after_panic(&mut self) -> bool {
        Shard::heal_after_panic(self)
    }
    fn crash_and_recover(&mut self, mode: &CrashMode) {
        Shard::crash_and_recover(self, mode)
    }
    fn sync(&mut self) {
        Shard::sync(self)
    }
    fn len(&self) -> usize {
        Shard::len(self)
    }
    fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
        Shard::dump(self)
    }
    fn stats(&self) -> FaseStats {
        Shard::stats(self)
    }
    fn take_stats(&mut self) -> FaseStats {
        Shard::take_stats(self)
    }
    fn steps(&self) -> u64 {
        Shard::steps(self)
    }
    fn arm_crash(&mut self, plan: CrashPlan) {
        Shard::arm_crash(self, plan)
    }
    fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        Shard::take_crash_image(self)
    }
    fn reset_sampler(&mut self) {
        Shard::reset_sampler(self)
    }
    fn chosen(&self) -> Vec<CapacityChoice> {
        Shard::chosen(self).to_vec()
    }
}

/// Shape of one tree lane.
#[derive(Debug, Clone, Default)]
pub struct TreeEngineConfig {
    /// The underlying tree heap/log/policy shape.
    pub tree: TreeConfig,
}

/// The B+-tree lane engine: a batch becomes one CoW transaction.
///
/// A batch lazily opens a transaction at its first write and commits at
/// the end; reads inside the batch go through the staged root, so
/// read-your-batch holds without an overlay and scans need no barrier.
/// The transaction's pages are unlogged shadow memory and its meta head
/// is the FASE's published commit record, so the transaction logs
/// nothing and no batch size can outgrow the log; one batch = one
/// commit satisfies the committed-prefix contract trivially: a crash
/// exposes the batch whole or not at all.
pub struct TreeEngine {
    t: Tree<FasePager>,
}

impl TreeEngine {
    /// Fresh engine over a new tree heap.
    pub fn new(cfg: &TreeEngineConfig) -> Self {
        TreeEngine {
            t: Tree::create(&cfg.tree).expect("format tree heap"),
        }
    }

    /// Re-attach to a crash image: FASE recovery, then tree state
    /// rebuild from the durable root.
    pub fn reopen_from_image(image: Vec<u8>, cfg: &TreeEngineConfig) -> Result<Self, TreeError> {
        Ok(TreeEngine {
            t: Tree::reopen_from_image(image, &cfg.tree)?,
        })
    }

    /// The underlying tree (snapshot pins, reclamation, telemetry).
    pub fn tree(&self) -> &Tree<FasePager> {
        &self.t
    }

    /// The underlying tree, mutably.
    pub fn tree_mut(&mut self) -> &mut Tree<FasePager> {
        &mut self.t
    }

    /// Open the batch's transaction at its first write.
    fn stage(&mut self) {
        if !self.t.in_txn() {
            self.t.begin();
        }
    }
}

impl Engine for TreeEngine {
    fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply> {
        let mut replies = Vec::with_capacity(reqs.len());
        for req in reqs {
            match req {
                BatchRequest::Get(k) => {
                    // in-txn reads resolve through the staged root:
                    // read-your-batch without an overlay
                    replies.push(BatchReply::Value(self.t.get(*k)));
                }
                BatchRequest::Put(k, v) => {
                    self.stage();
                    replies.push(BatchReply::Done(self.t.put(*k, v).is_ok()));
                }
                BatchRequest::PutMany(items) => {
                    self.stage();
                    replies.push(BatchReply::Done(self.t.put_many(items).is_ok()));
                }
                BatchRequest::Delete(k) => {
                    self.stage();
                    let existed = self.t.delete(*k).unwrap_or(false);
                    replies.push(BatchReply::Done(existed));
                }
                BatchRequest::Scan(lo, hi, limit) => {
                    replies.push(BatchReply::Entries(self.t.scan(
                        None,
                        *lo,
                        *hi,
                        *limit as usize,
                    )));
                }
            }
        }
        if self.t.in_txn() {
            self.t.commit();
        }
        self.t.reclaim();
        replies
    }

    fn heal_after_panic(&mut self) -> bool {
        self.t.heal_after_panic().expect("tree heal after panic")
    }

    fn crash_and_recover(&mut self, mode: &CrashMode) {
        self.t.crash_and_recover(mode).expect("tree crash recovery");
    }

    fn sync(&mut self) {
        self.t.sync();
    }

    fn len(&self) -> usize {
        self.t.len() as usize
    }

    fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.t.scan(None, 0, u64::MAX, usize::MAX)
    }

    fn stats(&self) -> FaseStats {
        self.t.stats()
    }

    fn take_stats(&mut self) -> FaseStats {
        self.t.take_stats()
    }

    fn steps(&self) -> u64 {
        self.t.steps()
    }

    fn arm_crash(&mut self, plan: CrashPlan) {
        self.t.arm_crash(plan);
    }

    fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        self.t.take_crash_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TreeEngineConfig {
        TreeEngineConfig {
            tree: TreeConfig {
                data_len: 1 << 20,
                log_len: 1 << 18,
                ..Default::default()
            },
        }
    }

    #[test]
    fn tree_engine_serves_mixed_batches() {
        let mut e = TreeEngine::new(&small());
        let replies = e.serve_batch(&[
            BatchRequest::Put(10, b"ten".to_vec()),
            BatchRequest::Get(10), // read-your-batch through staged root
            BatchRequest::PutMany(vec![(11, b"eleven".to_vec()), (10, b"TEN".to_vec())]),
            BatchRequest::Scan(0, 100, 10), // sees its own batch's writes
            BatchRequest::Delete(11),
            BatchRequest::Get(11),
        ]);
        assert_eq!(replies[0], BatchReply::Done(true));
        assert_eq!(replies[1], BatchReply::Value(Some(b"ten".to_vec())));
        assert_eq!(replies[2], BatchReply::Done(true));
        assert_eq!(
            replies[3],
            BatchReply::Entries(vec![(10, b"TEN".to_vec()), (11, b"eleven".to_vec())])
        );
        assert_eq!(replies[4], BatchReply::Done(true));
        assert_eq!(replies[5], BatchReply::Value(None));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn batch_commits_once_and_survives_crash() {
        let mut e = TreeEngine::new(&small());
        let reqs: Vec<BatchRequest> = (0..50u64)
            .map(|i| BatchRequest::Put(i, vec![i as u8; 16]))
            .collect();
        let replies = e.serve_batch(&reqs);
        assert!(replies.iter().all(|r| *r == BatchReply::Done(true)));
        assert_eq!(
            Engine::stats(&e).fases,
            2,
            "format + one commit for 50 writes"
        );
        Engine::crash_and_recover(&mut e, &CrashMode::AllInFlightLands);
        assert_eq!(e.len(), 50);
        for i in 0..50u64 {
            assert_eq!(e.t.get(i).as_deref(), Some(&vec![i as u8; 16][..]));
        }
    }

    #[test]
    fn oversized_value_fails_precisely() {
        let mut e = TreeEngine::new(&small());
        let replies = e.serve_batch(&[
            BatchRequest::Put(1, vec![0u8; nvcache_treestore::MAX_VALUE + 1]),
            BatchRequest::Put(2, b"fits".to_vec()),
        ]);
        assert_eq!(replies[0], BatchReply::Done(false));
        assert_eq!(replies[1], BatchReply::Done(true));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn hash_and_tree_agree_on_mixed_stream() {
        use crate::shard::ShardConfig;
        use nvcache_core::PolicyKind;
        let mut tree = TreeEngine::new(&small());
        let mut hash = Shard::new(&ShardConfig {
            buckets: 64,
            data_len: 1 << 19,
            log_len: 1 << 15,
            policy: PolicyKind::ScFixed { capacity: 8 },
            adapt: None,
            pipelined: false,
        });
        let mut reqs: Vec<BatchRequest> = Vec::new();
        let mut x = 31u64;
        for i in 0..200u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 32;
            reqs.push(match x % 5 {
                0 => BatchRequest::Get(key),
                1 => BatchRequest::Delete(key),
                2 => BatchRequest::Scan(key, key + 8, 4),
                _ => BatchRequest::Put(key, vec![i as u8; 16]),
            });
        }
        // a `PutMany` one of whose values fits no engine is refused whole
        let refused = vec![BatchRequest::PutMany(vec![
            (1, b"fits".to_vec()),
            (2, vec![0; 5000]),
        ])];
        for reqs in [reqs, refused] {
            let a = Engine::serve_batch(&mut tree, &reqs);
            let b = Engine::serve_batch(&mut hash, &reqs);
            assert_eq!(a, b, "engines diverge on replies");
            assert_eq!(
                Engine::dump(&mut tree),
                Engine::dump(&mut hash),
                "engines diverge on end state"
            );
        }
    }
}
