//! One KV shard: a persistent hash map owning a private [`FaseRuntime`]
//! (per-thread cache model, paper Section II-B) whose image holds no
//! pointers. Under SC the runtime's
//! [`AdaptiveScPolicy`](nvcache_core::AdaptiveScPolicy) samples the
//! shard's store lines and resizes the software cache while the shard
//! keeps serving; [`Shard::chosen`] reads its decisions.
//!
//! The shard is a volatile index over the node store of
//! [`nvcache_fase::nodes`], which owns the runtime, the layout, the free
//! lists and the recovery passes. Every mutation is one FASE of sealed
//! slots no committed state reads, its last slot the closing one, and
//! ends with one drain and one fence: no undo record, no commit record.
//! A `put` is a group of one; a group that writes one key more than once
//! seals all but the last write with a checksum that fails.
//!
//! - **Update** (an indexed key whose new length keeps its class): the
//!   value goes into the node's *other* slot. Repeated keys of one group
//!   rewrite the same slot.
//! - **Insert**: the key and the value go into a free block's slot that
//!   does not decide it (slot 0 of a never-used block).
//! - **Delete**: a tombstone into the node's other slot.
//! - **Length change to another class**: an insert into a block of the
//!   new class plus a tombstone on the old node, in the one FASE.
//!
//! # What is volatile
//!
//! The **index**, a DRAM map from each live key to one word — its node's
//! offset and class, the committed slot and the value length
//! ([`Shard::len`] is its size) — is the only way a lookup (`get`,
//! `put_many`'s planner, `serve_batch`'s reads, `scan`, `delete`)
//! locates a value: one probe, then the value itself. It and the node
//! store's free lists change only **after the commit point** of the FASE
//! that justifies them (a refused group gives back the blocks it took),
//! and are rebuilt by the node store's recovery passes after anything
//! that can leave a FASE half done: reopening an image, an injected
//! crash, a healed panic ([`Shard::voided_slots`]).

use std::collections::{BinaryHeap, HashMap};

pub use nvcache_core::CapacityChoice;
use nvcache_core::{AdaptiveConfig, PolicyKind};
use nvcache_fase::nodes::{class_of, Entry, Nodes};
pub use nvcache_fase::nodes::{ImageError as ShardImageError, MAX_VALUE_LEN};
use nvcache_fase::FaseRuntime;
use nvcache_locality::KneeConfig;
use nvcache_pmem::{CrashMode, PmemRegion};
use nvcache_trace::FxHashMap;

/// One request of a lane batch — a submitter's own group, or what the
/// worker drained from the submission queue — without any completion
/// slot (the serving layer holds those; [`Shard::serve_batch`] answers
/// positionally).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchRequest {
    /// Look a key up (answered from the batch's pending-write overlay
    /// first, so it sees earlier writes of its own batch).
    Get(u64),
    /// Insert or update one key.
    Put(u64, Vec<u8>),
    /// A client-side group that must stay per-request atomic even on
    /// the replay path. Either engine refuses a group whole only when a
    /// value is longer than it holds or its heap is full.
    PutMany(Vec<(u64, Vec<u8>)>),
    /// Remove a key. Acts as a segment barrier inside a batch.
    Delete(u64),
    /// Range scan `lo..=hi` (inclusive), at most `limit` entries, in
    /// key order. Also a segment barrier: the pending write group
    /// commits first, so the scan observes every earlier write of its
    /// own batch.
    Scan(u64, u64, u32),
}

/// Positional reply to one [`BatchRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// `Get` result.
    Value(Option<Vec<u8>>),
    /// `Put`/`PutMany`/`Delete` outcome.
    Done(bool),
    /// `Scan` result: sorted, gap-free within the shard.
    Entries(Vec<(u64, Vec<u8>)>),
}

/// Sampling settings for a shard whose policy is `ScAdaptive`: they
/// replace the policy's own `burst_len`, `knee` and `hibernation`
/// (see `ShardConfig::runtime_policy`). Kept for
/// `benchmark/src/adapter.rs`, which sets it; set [`AdaptiveConfig`]
/// instead.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// Store lines per sampling burst.
    pub burst_len: usize,
    /// Knee-selection tunables (bounds, tolerance).
    pub knee: KneeConfig,
    /// Store lines to skip between bursts; `None` analyzes once.
    pub hibernation: Option<u64>,
    /// Selects nothing: [`Shard::stream`] is always the analysed window.
    pub record_stream: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            burst_len: 1 << 12,
            knee: KneeConfig::default(),
            hibernation: None,
            record_stream: false,
        }
    }
}

/// Static shape of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Selects nothing: the image has no buckets. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub buckets: usize,
    /// Data-area bytes: the head line, the class table and as many
    /// 4 KiB segments as fit.
    pub data_len: usize,
    /// Selects nothing: a shard's runtime has no undo log. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub log_len: usize,
    /// Persistence policy for this shard's runtime.
    pub policy: PolicyKind,
    /// Overrides an `ScAdaptive` policy's sampling settings
    /// ([`AdaptConfig`]); `None` keeps them.
    pub adapt: Option<AdaptConfig>,
    /// Selects nothing: every shard flushes through its runtime's ring
    /// and commits a `put_many` group as one FASE. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub pipelined: bool,
}

impl ShardConfig {
    /// The policy the shard's runtime runs: `policy`, with an
    /// `ScAdaptive` policy's burst, knee and hibernation taken from
    /// `adapt` when it is set.
    fn runtime_policy(&self) -> PolicyKind {
        match (&self.policy, &self.adapt) {
            (PolicyKind::ScAdaptive(cfg), Some(a)) => PolicyKind::ScAdaptive(AdaptiveConfig {
                knee: a.knee.clone(),
                burst_len: a.burst_len,
                hibernation: a.hibernation,
                ..cfg.clone()
            }),
            (policy, _) => policy.clone(),
        }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            buckets: 256,
            data_len: 1 << 20,
            log_len: 0,
            policy: PolicyKind::ScAdaptive(Default::default()),
            adapt: None,
            pipelined: false,
        }
    }
}

/// A single-owner persistent KV shard.
#[derive(Debug)]
pub struct Shard {
    /// The runtime, the segments and the free lists.
    pub(crate) nodes: Nodes,
    /// Volatile: every live key → its node's committed slot and value
    /// length (module doc, "What is volatile").
    /// Keys are the clients', so the hasher is
    /// `std`'s keyed one: under the unkeyed multiplicative `FxHashMap`,
    /// 4 000 keys that differ only above bit 20 share one probe sequence
    /// (440 ns a `get` against 46).
    index: HashMap<u64, Entry>,
    /// [`Shard::put_many`]'s plan, kept between batches.
    plan: PutPlan,
    /// [`Shard::serve_batch`]'s write group and overlay, kept between
    /// batches.
    batch: BatchScratch,
}

/// What [`Shard::put_many`] works out before it opens the FASE. The
/// shard owns it so that a group clears these buffers instead of
/// building and dropping them.
#[derive(Debug, Default)]
struct PutPlan {
    /// Key → the slot the group writes for it, at the length of its last
    /// write; whether the key itself is still to be written; and the
    /// index of its last write, the one that is sealed.
    targets: FxHashMap<u64, (Entry, bool, usize)>,
    /// Blocks taken off the free lists (given back if the group is
    /// refused).
    taken: Vec<Entry>,
    /// Nodes whose keys move to another class: each gets a tombstone,
    /// then goes to its free list.
    moved: Vec<Entry>,
    /// The writes: the slot, the index of the item whose value it
    /// carries, whether it stores the key too (the first write into a
    /// block taken off a free list) and whether it is its key's last.
    ops: Vec<(Entry, usize, bool, bool)>,
}

impl PutPlan {
    fn clear(&mut self) {
        self.targets.clear();
        self.taken.clear();
        self.moved.clear();
        self.ops.clear();
    }
}

/// [`Shard::serve_batch`]'s scratch, kept between batches: the pending
/// segment's writes, each as the index of its request and of the item
/// inside a `PutMany`, and the overlay from each key to its last write
/// in the group.
#[derive(Debug, Default)]
struct BatchScratch {
    group: Vec<(usize, usize)>,
    overlay: FxHashMap<u64, usize>,
}

/// The write a group entry of [`BatchScratch`] names: a `Put`, or one
/// item of a `PutMany`.
fn write_of(reqs: &[BatchRequest], (req, item): (usize, usize)) -> (u64, &[u8]) {
    match &reqs[req] {
        BatchRequest::Put(key, value) => (*key, value),
        BatchRequest::PutMany(items) => (items[item].0, &items[item].1),
        _ => unreachable!("a group holds writes only"),
    }
}

impl Shard {
    /// Create a fresh shard.
    pub fn new(cfg: &ShardConfig) -> Self {
        let rt = FaseRuntime::new(cfg.data_len, 0, &cfg.runtime_policy());
        Self::over(Nodes::new(rt), HashMap::new())
    }

    /// Re-attach to a crash image (or saved region): the node store finds
    /// the last committed FASE, rebuilds the free lists and the index by
    /// one pass over the segments and voids what a dead FASE left. The
    /// image may be anything: one the passes cannot vouch for is a typed
    /// error, never a hang or a panic.
    pub fn reopen_from_image(image: Vec<u8>, cfg: &ShardConfig) -> Result<Self, ShardImageError> {
        let region = PmemRegion::from_image(image);
        let policy = cfg.runtime_policy();
        let rt = FaseRuntime::try_reopen(region, cfg.data_len, 0, &policy)?;
        let (nodes, index) = Nodes::open(rt)?;
        Ok(Self::over(nodes, index))
    }

    /// The shard indexing `nodes` by `index`, with empty scratch.
    fn over(nodes: Nodes, index: HashMap<u64, Entry>) -> Self {
        Shard {
            nodes,
            index,
            plan: PutPlan::default(),
            batch: BatchScratch::default(),
        }
    }

    /// `key`'s index entry: one probe.
    fn locate(&self, key: u64) -> Option<Entry> {
        self.index.get(&key).copied()
    }

    /// Look up `key`.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        let entry = self.locate(key)?;
        Some(self.nodes.value(entry))
    }

    /// Insert or update `key → value` in one FASE: a group of one.
    /// Returns `false` if the heap is exhausted or the value exceeds
    /// [`MAX_VALUE_LEN`] — the map is unchanged in that case.
    pub fn put(&mut self, key: u64, value: &[u8]) -> bool {
        self.put_many(&[(key, value)])
    }

    /// Apply a whole batch of writes as **one FASE** (group commit):
    /// every item writes a node's other slot or a free block, a key that
    /// changes class leaves a tombstone behind, and the batch commits or
    /// rolls back atomically by its sealed slots (module doc).
    /// This is the serving configuration that actually gives the
    /// software cache something to do — per-op FASEs of one or two
    /// lines carry no intra-FASE reuse (FASE renaming hides reuse across
    /// commits, by design), while a transaction over a skewed key set
    /// revisits its hot lines before the commit flush.
    ///
    /// Repeated keys in `items` are written repeatedly (that reuse is
    /// the point) into one slot, in the class of the key's last write;
    /// an earlier write of another class is superseded within the group
    /// and not stored. Returns `false` — with the map unchanged — when
    /// any value is oversized or the heap has no block left for a node.
    pub fn put_many<V: AsRef<[u8]>>(&mut self, items: &[(u64, V)]) -> bool {
        self.put_writes(items.len(), |i| (items[i].0, items[i].1.as_ref()))
    }

    /// [`Shard::put_many`] of the `len` writes `item` names, planned in
    /// the plan the shard keeps.
    fn put_writes<'a>(&mut self, len: usize, item: impl Fn(usize) -> (u64, &'a [u8])) -> bool {
        if len == 0 {
            return true;
        }
        let mut plan = std::mem::take(&mut self.plan);
        let ok = self.plan_group(len, &item, &mut plan);
        if ok {
            let stamp = self.nodes.begin();
            self.write_group(&item, &plan, stamp);
            self.nodes.commit(stamp);
            for (&key, &(target, ..)) in &plan.targets {
                self.index.insert(key, target);
            }
            for &old in &plan.moved {
                self.nodes.release(old);
            }
        }
        self.plan = plan;
        ok
    }

    /// Plan a group outside the FASE: each key's slot at the length of
    /// its last write, the blocks it takes and the nodes it moves out
    /// of. `false` — with every block given back — when a value is
    /// oversized or the heap is full.
    fn plan_group<'a>(
        &mut self,
        len: usize,
        item: &impl Fn(usize) -> (u64, &'a [u8]),
        plan: &mut PutPlan,
    ) -> bool {
        // each key's last length and write (on node 0, which is the head
        // line: not yet placed), then its slot
        plan.clear();
        for i in 0..len {
            let (key, value) = item(i);
            if value.len() > MAX_VALUE_LEN {
                return false;
            }
            let unplaced = Entry::new(0, 0, 0, value.len());
            plan.targets.insert(key, (unplaced, false, i));
        }
        for i in 0..len {
            let (key, value) = item(i);
            let (target, unkeyed, last) = plan.targets.get_mut(&key).expect("planned above");
            if target.node() == 0 {
                let (vlen, old) = (target.vlen(), self.locate(key));
                let class = class_of(vlen);
                *target = match old {
                    Some(old) if old.class() == class => old.other(),
                    _ => {
                        let Some(block) = self.nodes.take(class) else {
                            for &block in plan.taken.iter().rev() {
                                self.nodes.release(block);
                            }
                            return false;
                        };
                        plan.taken.push(block);
                        plan.moved.extend(old);
                        *unkeyed = true;
                        block
                    }
                }
                .with_len(vlen);
            }
            if class_of(value.len()) == target.class() {
                let slot = target.with_len(value.len());
                plan.ops.push((slot, i, *unkeyed, i == *last));
                *unkeyed = false;
            }
        }
        true
    }

    /// The stores of a planned group, inside its open FASE stamped
    /// `stamp`: the moved nodes' tombstones, then every write, sealed
    /// when it is its key's last, and the last write the closing slot.
    fn write_group<'a>(
        &mut self,
        item: &impl Fn(usize) -> (u64, &'a [u8]),
        plan: &PutPlan,
        stamp: u64,
    ) {
        // one slot per key, one tombstone per move
        let n = (plan.targets.len() + plan.moved.len()) as u64;
        for &old in &plan.moved {
            self.nodes
                .store_slot(old.other(), (stamp, Some(0)), 0, false, None);
        }
        let closing = plan.ops.len() - 1;
        for (j, &(slot, i, keyed, last)) in plan.ops.iter().enumerate() {
            let (key, value) = item(i);
            let n = last.then_some(if j == closing { n } else { 0 });
            self.nodes
                .store_slot(slot, (stamp, n), key, keyed, Some(value));
        }
    }

    /// Serve one drained submission-queue batch: the cross-client group
    /// commit at the heart of the concurrent shard runtime. Requests are
    /// processed in drain (= FIFO submission) order with *sequential*
    /// semantics, but all writes between delete barriers accumulate into
    /// a single [`Shard::put_many`] group — one FASE, one commit, one
    /// ring drain — regardless of how many clients
    /// contributed them. Reads are answered from the pending-write
    /// overlay first, so a `Get` observes every earlier write of its own
    /// batch exactly as it would have under per-op execution.
    ///
    /// Deletes split the batch into segments (a group writes the values
    /// its keys end with, so a delete between two writes of one key
    /// would need ordering the group can't express); each segment
    /// commits before the delete runs. When a segment's group is
    /// rejected (oversized value, heap exhaustion), the segment — whose
    /// group left no trace — is replayed with per-request ops, so
    /// per-request failure is precise and the surviving requests still
    /// land.
    ///
    /// Crash contract: replies must only be released to clients after
    /// this returns. Every state the region can expose after a crash
    /// mid-batch is then a committed *prefix* of the batch's segment
    /// FASEs — an acknowledged request is durable, an unacknowledged one
    /// rolls back whole, never torn.
    pub fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply> {
        let mut replies: Vec<BatchReply> = Vec::with_capacity(reqs.len());
        // the current segment: its grouped writes, by index into the
        // requests (values stay where the requests hold them), and the
        // first request it covers
        let mut scratch = std::mem::take(&mut self.batch);
        let mut seg_start = 0usize;
        for (i, req) in reqs.iter().enumerate() {
            match req {
                BatchRequest::Get(k) => {
                    let value = match scratch.overlay.get(k) {
                        Some(&gi) => Some(write_of(reqs, scratch.group[gi]).1.to_vec()),
                        None => self.get(*k),
                    };
                    replies.push(BatchReply::Value(value));
                }
                BatchRequest::Put(k, _) => {
                    scratch.overlay.insert(*k, scratch.group.len());
                    scratch.group.push((i, 0));
                    replies.push(BatchReply::Done(true));
                }
                BatchRequest::PutMany(items) => {
                    // overlay points at each key's *last* write in the
                    // group (later inserts overwrite earlier ones)
                    for (j, (k, _)) in items.iter().enumerate() {
                        scratch.overlay.insert(*k, scratch.group.len());
                        scratch.group.push((i, j));
                    }
                    replies.push(BatchReply::Done(true));
                }
                BatchRequest::Delete(k) => {
                    self.close_segment(reqs, &mut replies, &mut scratch, seg_start..i);
                    replies.push(BatchReply::Done(self.delete(*k)));
                    seg_start = i + 1;
                }
                BatchRequest::Scan(lo, hi, limit) => {
                    self.close_segment(reqs, &mut replies, &mut scratch, seg_start..i);
                    replies.push(BatchReply::Entries(self.scan(*lo, *hi, *limit as usize)));
                    seg_start = i + 1;
                }
            }
        }
        self.close_segment(reqs, &mut replies, &mut scratch, seg_start..reqs.len());
        self.batch = scratch;
        replies
    }

    /// Commit the pending segment's group; on rejection, replay the
    /// segment's requests individually (recomputing their replies).
    fn close_segment(
        &mut self,
        reqs: &[BatchRequest],
        replies: &mut Vec<BatchReply>,
        scratch: &mut BatchScratch,
        segment: std::ops::Range<usize>,
    ) {
        let group = &scratch.group;
        if !self.put_writes(group.len(), |g| write_of(reqs, group[g])) {
            // the grouped commit left no trace: replay this segment
            // sequentially for exact per-request outcomes
            replies.truncate(segment.start);
            for req in &reqs[segment] {
                replies.push(match req {
                    BatchRequest::Get(k) => BatchReply::Value(self.get(*k)),
                    BatchRequest::Put(k, v) => BatchReply::Done(self.put(*k, v)),
                    BatchRequest::PutMany(items) => BatchReply::Done(self.put_many(items)),
                    BatchRequest::Delete(_) | BatchRequest::Scan(..) => {
                        unreachable!("barriers end segments")
                    }
                });
            }
        }
        scratch.group.clear();
        scratch.overlay.clear();
    }

    /// Range scan `lo..=hi`, at most `limit` entries, sorted by key.
    /// A hash table has no key order, so this is a pass over every
    /// indexed key, keeping the `limit` smallest in range — the
    /// structural price the tree engine's B+-tree avoids (that contrast
    /// is exactly what YCSB-E measures across engines). Only the values
    /// it returns are read from the region.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        let limit = limit.min(self.index.len());
        if lo > hi || limit == 0 {
            return Vec::new();
        }
        let mut hits = BinaryHeap::with_capacity(limit + 1);
        for (&key, &entry) in &self.index {
            if (lo..=hi).contains(&key) {
                hits.push((key, entry));
                if hits.len() > limit {
                    hits.pop(); // the largest: out of the first `limit`
                }
            }
        }
        let mut out = Vec::with_capacity(hits.len());
        for (key, entry) in hits.into_sorted_vec() {
            out.push((key, self.nodes.value(entry)));
        }
        out
    }

    /// Recover the shard after a panic unwound through one of its
    /// operations (see [`FaseRuntime::heal_after_panic`]): the abandoned
    /// FASE is dropped, volatile runtime residue with it; its slots are
    /// voided, however many of them it stored; and the index and free
    /// lists are rebuilt from the region. Returns whether anything was
    /// healed.
    pub fn heal_after_panic(&mut self) -> bool {
        let Some(index) = self.nodes.heal_after_panic() else {
            return false;
        };
        self.index = index;
        true
    }

    /// Remove `key` (one FASE when present): a tombstone into its node's
    /// other slot. Returns whether it existed.
    pub fn delete(&mut self, key: u64) -> bool {
        let Some(entry) = self.locate(key) else {
            return false;
        };
        let stamp = self.nodes.begin();
        self.nodes
            .store_slot(entry.other(), (stamp, Some(1)), key, false, None);
        self.nodes.commit(stamp);
        self.index.remove(&key);
        self.nodes.release(entry);
        true
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the shard empty?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Slots the last recovery voided — reopening an image, an injected
    /// crash or a healed panic: those of a FASE that did not commit. 0
    /// for a fresh shard.
    pub fn voided_slots(&self) -> usize {
        self.nodes.voided()
    }

    /// Every `(key, value)` pair, sorted by key. A pass over the
    /// segments that never consults the index: this is what recovery
    /// verification compares, so it reads what is persistent.
    pub fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
        let live = self.nodes.live();
        let mut out: Vec<_> = live
            .into_iter()
            .map(|(key, entry)| (key, self.nodes.value(entry)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    // ----- adaptation introspection --------------------------------------

    /// Capacity decisions the runtime's adaptive policy has made since
    /// it started or last restarted sampling, in order (none under
    /// other policies).
    pub fn chosen(&self) -> &[CapacityChoice] {
        self.nodes.rt.adaptive().map_or(&[], |p| p.choices())
    }

    /// Current software-cache capacity (`None` for non-SC policies).
    pub fn sc_capacity(&self) -> Option<usize> {
        self.nodes.rt.sc_capacity()
    }

    /// The FASE-renamed store lines the adaptive policy's last burst
    /// analysed (`None` under other policies).
    pub fn stream(&self) -> Option<&[u64]> {
        self.nodes.rt.adaptive().map(|p| p.last_window())
    }

    /// Restart adaptation measurement at the current capacity
    /// ([`nvcache_core::AdaptiveScPolicy::restart_sampling`]). The
    /// serving layer calls this after a bulk-load phase so that capacity
    /// decisions (and [`Shard::chosen`]) reflect the *serving* write
    /// stream, not the loader's.
    pub fn reset_sampler(&mut self) {
        if let Some(p) = self.nodes.rt.adaptive_mut() {
            p.restart_sampling();
        }
    }

    // ----- crash plumbing -------------------------------------------------

    /// The underlying runtime (counters, telemetry, tracing, crash
    /// plans).
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.nodes.rt
    }

    /// Inject a power failure in-process and recover; the index and the
    /// free lists are rebuilt from the recovered region.
    ///
    /// # Panics
    /// When the recovered segments are unsound, which takes a policy
    /// that is not crash-consistent (`Best`) under an adversary that
    /// tears.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) {
        self.index = self.nodes.crash_and_recover(mode);
    }
}

#[cfg(test)]
impl Shard {
    /// The index and the free lists are the heap: the pass over the
    /// segments finds exactly the live keys the index holds, each in the
    /// slot it names, and exactly the free blocks the free lists hold,
    /// each with the slot an insert would write (so a key in two nodes,
    /// a stale entry or slot, a missing one and a leaked block all fail).
    fn index_matches_heap(&mut self) -> Result<(), String> {
        let survey = self.nodes.survey().map_err(|e| e.to_string())?;
        if survey.live != self.index {
            return Err(format!(
                "{} keys live on the heap, {} indexed; first difference: {:x?}",
                survey.live.len(),
                self.index.len(),
                survey
                    .live
                    .iter()
                    .find(|(k, e)| self.index.get(k) != Some(e))
            ));
        }
        for (class, found) in survey.free.into_iter().enumerate() {
            let mut listed = self.nodes.free_lists()[class].clone();
            listed.sort_unstable();
            if found != listed {
                return Err(format!(
                    "class {class}: free {found:x?}, listed {listed:x?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_fase::nodes::SLOT_HEADER;
    use nvcache_fase::FaseStats;
    use nvcache_pmem::{crash, CrashPlan};

    fn small(policy: PolicyKind) -> ShardConfig {
        ShardConfig {
            buckets: 64,
            data_len: 1 << 18,
            log_len: 1 << 15,
            policy,
            adapt: None,
            pipelined: false,
        }
    }

    #[test]
    fn put_get_update_delete_roundtrip() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        assert!(s.is_empty());
        for i in 0..200u64 {
            assert!(s.put(i, &i.to_le_bytes()));
        }
        assert_eq!(s.len(), 200);
        for i in 0..200u64 {
            assert_eq!(s.get(i).as_deref(), Some(&i.to_le_bytes()[..]), "key {i}");
        }
        assert!(s.put(7, b"same-len"));
        assert_eq!(s.get(7).as_deref(), Some(&b"same-len"[..]));
        // a value of another class moves the key to another node
        assert!(s.put(7, b"a much longer value than before"));
        assert_eq!(
            s.get(7).as_deref(),
            Some(&b"a much longer value than before"[..])
        );
        assert_eq!(s.len(), 200);
        assert!(s.delete(7));
        assert!(!s.delete(7));
        assert_eq!(s.get(7), None);
        assert_eq!(s.len(), 199);
        assert_eq!(s.get(1000), None);
        s.index_matches_heap().unwrap();
    }

    #[test]
    fn empty_and_oversized_values() {
        let mut s = Shard::new(&small(PolicyKind::Lazy));
        assert!(s.put(1, b""));
        assert_eq!(s.get(1).as_deref(), Some(&b""[..]));
        assert!(!s.put(2, &vec![0u8; MAX_VALUE_LEN + 1]), "over max class");
        assert_eq!(s.get(2), None);
        assert!(s.put(3, &vec![7u8; MAX_VALUE_LEN]), "exactly max fits");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn heap_exhaustion_fails_put_cleanly() {
        let cfg = ShardConfig {
            buckets: 8,
            data_len: 8 << 10,
            log_len: 1 << 14,
            policy: PolicyKind::Lazy,
            adapt: None,
            pipelined: false,
        };
        let mut s = Shard::new(&cfg);
        let mut inserted = 0u64;
        while s.put(inserted, &[0u8; 100]) {
            inserted += 1;
            assert!(inserted < 10_000, "must exhaust eventually");
        }
        assert!(inserted > 0);
        assert_eq!(s.len() as u64, inserted);
        // the failed put left the map readable and consistent
        for i in 0..inserted {
            assert!(s.get(i).is_some(), "key {i} survived the failed put");
        }
        // nor is an acknowledged value the price of finding out that
        // its replacement (another class, so another node) does not fit
        assert!(!s.put(1, &[2u8; 200]));
        assert_eq!(s.get(1).as_deref(), Some(&[0u8; 100][..]));
        assert_eq!(s.len() as u64, inserted);
        // deleting frees a node the next put can reuse
        assert!(s.delete(0));
        assert!(s.put(99_999, &[1u8; 100]), "free list satisfies the put");
        s.index_matches_heap().unwrap();
    }

    /// `crash_and_recover` rebuilds the index from what the region
    /// kept: `Best` flushes no data, so a strict power failure loses
    /// acknowledged puts, and the index must lose them with it.
    #[test]
    fn crash_and_recover_rebuilds_the_index_from_the_region() {
        let mut s = Shard::new(&small(PolicyKind::Best));
        for k in 0..20u64 {
            assert!(s.put(k, &[1u8; 40]));
        }
        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert!(s.dump().len() < 20, "Best kept every put");
        s.index_matches_heap().unwrap();
        for k in 0..20u64 {
            let kept = s.dump().into_iter().find(|&(key, _)| key == k);
            assert_eq!(s.get(k), kept.map(|(_, v)| v), "key {k}");
        }
    }

    /// A deleted node's block stays free across a power failure — its
    /// tombstone decides it — so on a full heap, as many fresh keys fit
    /// after the crash as deleting half the keys gave back.
    #[test]
    fn freed_nodes_survive_a_power_failure() {
        let cfg = ShardConfig {
            data_len: 32 << 10,
            pipelined: true,
            ..small(PolicyKind::ScFixed { capacity: 8 })
        };
        let mut s = Shard::new(&cfg);
        let mut n = 0u64;
        while s.put(n, &[1u8; 40]) {
            n += 1;
        }
        let deleted = (0..n).step_by(2).filter(|&k| s.delete(k)).count() as u64;
        assert!(deleted >= 64, "{n} keys filled the heap");
        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        for k in n..n + deleted {
            assert!(s.put(k, &[2u8; 40]), "fresh key {k} after the crash");
        }
        assert_eq!(s.len() as u64, n);
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let mut s = Shard::new(&small(PolicyKind::Eager));
        for i in [5u64, 1, 9, 3, 7] {
            s.put(i, &[i as u8]);
        }
        let d = s.dump();
        assert_eq!(
            d,
            vec![
                (1, vec![1u8]),
                (3, vec![3]),
                (5, vec![5]),
                (7, vec![7]),
                (9, vec![9])
            ]
        );
    }

    #[test]
    fn committed_ops_survive_crash_and_recover() {
        for mode in [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, 3),
        ] {
            let mut s = Shard::new(&small(PolicyKind::ScAdaptive(Default::default())));
            for i in 0..100u64 {
                s.put(i, &(i * 3).to_le_bytes());
            }
            for i in (0..100u64).step_by(3) {
                s.delete(i);
            }
            let expect = s.dump();
            s.crash_and_recover(&mode);
            assert_eq!(s.dump(), expect, "mode {mode:?}");
            assert_eq!(s.len(), expect.len(), "len rebuilt from the region");
        }
    }

    #[test]
    fn put_many_commits_mixed_batch_atomically() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        assert!(s.put(1, b"one-ost"));
        assert!(s.put(2, b"two-old"));
        let fases_before = s.nodes.rt.stats().fases;
        // one batch: two slot updates (one key twice — last wins), two
        // fresh inserts, and a key that moves to another class
        let batch: Vec<(u64, Vec<u8>)> = vec![
            (1, b"one-new".to_vec()),
            (10, b"ten".to_vec()),
            (1, b"one-fin".to_vec()),
            (11, b"eleven".to_vec()),
            (10, b"TEN".to_vec()), // insert then update, same batch
            (2, b"two, now in a 128-byte block".to_vec()),
        ];
        let fences = s.nodes.rt.region().stats().fences;
        assert!(s.put_many(&batch));
        assert_eq!(
            s.nodes.rt.stats().fases,
            fases_before + 1,
            "the batch: a carve is no FASE"
        );
        let fences = s.nodes.rt.region().stats().fences - fences;
        assert_eq!(fences, 2, "one for the carve, one for the batch");
        assert_eq!(s.get(1).as_deref(), Some(&b"one-fin"[..]));
        assert_eq!(s.get(2).as_deref(), Some(&batch[5].1[..]));
        assert_eq!(s.get(10).as_deref(), Some(&b"TEN"[..]));
        assert_eq!(s.get(11).as_deref(), Some(&b"eleven"[..]));
        assert_eq!(s.len(), 4);
        // the committed batch survives a crash in one piece
        let expect = s.dump();
        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(s.dump(), expect);
    }

    /// A group may write one key at lengths of several classes: the
    /// last write's class places the node, and an earlier write of
    /// another class is superseded without a store.
    #[test]
    fn a_group_places_a_key_by_its_last_write() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        assert!(s.put(1, &[1; 8]));
        let stores = s.nodes.rt.stats().stores;
        let group = [
            (1, vec![2; 40]),
            (1, vec![3; 4]),
            (2, vec![4; 100]),
            (2, vec![5; 40]),
        ];
        assert!(s.put_many(&group));
        assert_eq!(s.get(1).as_deref(), Some(&[3u8; 4][..]));
        assert_eq!(s.get(2).as_deref(), Some(&[5u8; 40][..]));
        // key 1: an update of its 64-byte node; key 2: an insert into a
        // 128-byte block, whose segment is carved first
        assert_eq!(s.nodes.rt.stats().stores - stores, 3);
        s.index_matches_heap().unwrap();
    }

    #[test]
    fn put_many_rejects_without_side_effects() {
        let mut s = Shard::new(&small(PolicyKind::Lazy));
        assert!(s.put(5, b"12345"));
        let (before, free) = (s.dump(), s.nodes.free_lists().clone());
        // an oversized value refuses the whole batch before a block is
        // taken…
        let mut group = vec![
            (9, b"nine".to_vec()),
            (5, b"much-longer-than-sixteen".to_vec()),
            (7, vec![0u8; MAX_VALUE_LEN + 1]),
        ];
        assert!(!s.put_many(&group));
        assert_eq!(s.nodes.free_lists(), &free);
        // …and a full heap after the fresh key and the key that moves to
        // another class took theirs: they go back, and the segments the
        // group carved stay carved, every block free
        group.truncate(2);
        let huge = (100..200).map(|k| (k, vec![1; 2000]));
        assert!(!s.put_many(&group.iter().cloned().chain(huge).collect::<Vec<_>>()));
        assert_eq!(s.dump(), before, "refused batches leave no trace");
        assert_eq!(s.nodes.free_lists()[class_of(4)], free[class_of(4)]);
        s.index_matches_heap().unwrap();
        assert!(s.put_many(&group));
        assert_eq!(s.get(9).as_deref(), Some(&b"nine"[..]));
    }

    fn adaptive(burst_len: usize) -> ShardConfig {
        small(PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len,
            ..Default::default()
        }))
    }

    /// Update groups of 4 passes over `keys` keys until the shard has
    /// made `want` capacity decisions.
    fn serve_until_chosen(s: &mut Shard, keys: u64, want: usize) {
        let mut round = 0u8;
        while s.chosen().len() < want {
            let group: Vec<(u64, [u8; 40])> =
                (0..4 * keys).map(|i| (i % keys, [round; 40])).collect();
            assert!(s.put_many(&group));
            round = round.wrapping_add(1);
            assert!(
                s.nodes.rt.stats().fases < 50_000,
                "the policy never decided"
            );
        }
    }

    #[test]
    fn live_adaptation_resizes_while_serving() {
        let mut s = Shard::new(&adaptive(2000));
        let default_cap = s.sc_capacity().unwrap();
        // steady-state updates over a fixed working set: the store
        // stream cycles over the slot lines of `wss` keys
        let wss = 40u64;
        for i in 0..wss {
            s.put(i, &[0u8; 56]);
        }
        let mut round = 0u8;
        while s.chosen().is_empty() {
            for i in 0..wss {
                s.put(i, &[round; 56]);
            }
            round = round.wrapping_add(1);
            assert!(
                s.nodes.rt.stats().fases < 50_000,
                "the policy never decided"
            );
        }
        let choice = s.chosen()[0];
        assert_eq!(s.sc_capacity(), Some(choice.capacity));
        assert_ne!(
            choice.capacity, default_cap,
            "a 40-key working set must move the capacity off the default"
        );
        assert!(choice.knee >= 1);
        // serving continues after the resize
        for i in 0..wss {
            assert!(s.get(i).is_some());
        }
        assert_eq!(s.stream().unwrap().len(), 2000, "the analysed window");
    }

    /// A crash or a healed panic restarts the policy at the default
    /// capacity with no decisions; what `chosen` reports is what the
    /// cache runs at, and the next burst decides again.
    #[test]
    fn an_adaptive_shard_readapts_after_a_crash() {
        let mut s = Shard::new(&adaptive(1000));
        let default_cap = s.sc_capacity().unwrap();
        let runs_at_its_last_choice = |s: &Shard| {
            let last = s.chosen().last().map_or(default_cap, |c| c.capacity);
            assert_eq!(s.sc_capacity(), Some(last));
        };
        serve_until_chosen(&mut s, 12, 1);
        assert_ne!(s.sc_capacity(), Some(default_cap));
        runs_at_its_last_choice(&s);

        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        runs_at_its_last_choice(&s);
        serve_until_chosen(&mut s, 12, 1);
        runs_at_its_last_choice(&s);

        // a worker dies inside an update's FASE
        let entry = s.locate(0).unwrap();
        let stamp = s.nodes.begin();
        s.nodes
            .store_slot(entry.other(), (stamp, Some(1)), 0, false, Some(&[9; 40]));
        assert!(s.heal_after_panic());
        assert_eq!(s.voided_slots(), 1);
        runs_at_its_last_choice(&s);
        serve_until_chosen(&mut s, 12, 1);
        runs_at_its_last_choice(&s);
        assert_eq!(s.get(0).as_deref().map(<[u8]>::len), Some(40));
    }

    #[test]
    fn a_default_shard_reports_its_decisions() {
        let mut s = Shard::new(&ShardConfig::default());
        serve_until_chosen(&mut s, 30, 1);
        assert_eq!(s.chosen().last().map(|c| c.capacity), s.sc_capacity());
        assert_eq!(
            s.stream().map(<[u64]>::len),
            Some(AdaptiveConfig::default().burst_len)
        );
    }

    /// The forward: an `AdaptConfig` on an `ScAdaptive` policy that
    /// asks for external control samples exactly as the same settings
    /// in the policy's own `AdaptiveConfig` do.
    #[test]
    fn adapt_config_forwards_to_the_policy() {
        let forwarded = ShardConfig {
            adapt: Some(AdaptConfig {
                burst_len: 4096,
                hibernation: Some(512),
                ..Default::default()
            }),
            ..small(PolicyKind::ScAdaptive(AdaptiveConfig {
                external_control: true,
                ..Default::default()
            }))
        };
        let direct = small(PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 4096,
            hibernation: Some(512),
            ..Default::default()
        }));
        let [mut a, mut b] = [forwarded, direct].map(|cfg| Shard::new(&cfg));
        for keys in [10, 30, 20] {
            let want = a.chosen().len() + 1;
            serve_until_chosen(&mut a, keys, want);
            serve_until_chosen(&mut b, keys, want);
        }
        assert_eq!(a.chosen().len(), 3);
        assert_eq!(a.chosen(), b.chosen());
        assert_eq!(a.stream(), b.stream());
        assert_eq!(a.sc_capacity(), b.sc_capacity());
    }

    #[test]
    fn serve_batch_groups_writes_into_one_fase() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        assert!(s.put(1, b"one"));
        let fases = s.nodes.rt.stats().fases;
        let replies = s.serve_batch(&[
            BatchRequest::Put(10, b"ten".to_vec()),
            BatchRequest::Get(10), // sees its own batch's write (overlay)
            BatchRequest::Get(1),  // pre-batch value
            BatchRequest::PutMany(vec![(11, b"eleven".to_vec()), (10, b"TEN".to_vec())]),
            BatchRequest::Get(10), // sees the overlay's *last* write
            BatchRequest::Get(99), // absent
        ]);
        assert_eq!(
            replies,
            vec![
                BatchReply::Done(true),
                BatchReply::Value(Some(b"ten".to_vec())),
                BatchReply::Value(Some(b"one".to_vec())),
                BatchReply::Done(true),
                BatchReply::Value(Some(b"TEN".to_vec())),
                BatchReply::Value(None),
            ]
        );
        assert_eq!(
            s.nodes.rt.stats().fases,
            fases + 1,
            "three writes from the batch formed one group-commit FASE"
        );
        assert_eq!(s.get(10).as_deref(), Some(&b"TEN"[..]));
        assert_eq!(s.get(11).as_deref(), Some(&b"eleven"[..]));
    }

    #[test]
    fn serve_batch_delete_barrier_splits_segments() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        // carves the segment the batch's 1-byte values go to
        assert!(s.put(9, b"z"));
        let fases = s.nodes.rt.stats().fases;
        let replies = s.serve_batch(&[
            BatchRequest::Put(1, b"a".to_vec()),
            BatchRequest::Put(2, b"b".to_vec()),
            BatchRequest::Delete(1), // barrier: segment 1 commits first
            BatchRequest::Get(1),    // post-delete view
            BatchRequest::Put(3, b"c".to_vec()),
        ]);
        assert_eq!(
            replies,
            vec![
                BatchReply::Done(true),
                BatchReply::Done(true),
                BatchReply::Done(true),
                BatchReply::Value(None),
                BatchReply::Done(true),
            ]
        );
        // segment group + delete + trailing segment group = 3 FASEs
        assert_eq!(s.nodes.rt.stats().fases, fases + 3);
        assert_eq!(s.len(), 3);
    }

    /// A segment whose grouped commit is rejected (here: an oversized
    /// value) replays per-request: the length change beside it still
    /// lands, replies are exact.
    #[test]
    fn serve_batch_replays_rejected_segment_per_request() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        assert!(s.put(5, b"short"));
        let replies = s.serve_batch(&[
            BatchRequest::Put(6, b"six".to_vec()),
            BatchRequest::Put(5, b"a-much-longer-value".to_vec()),
            BatchRequest::Get(5),
            BatchRequest::Put(7, vec![0u8; MAX_VALUE_LEN + 1]), // always refused
        ]);
        assert_eq!(replies[0], BatchReply::Done(true));
        assert_eq!(replies[1], BatchReply::Done(true));
        assert_eq!(
            replies[2],
            BatchReply::Value(Some(b"a-much-longer-value".to_vec()))
        );
        assert_eq!(
            replies[3],
            BatchReply::Done(false),
            "oversized put fails precisely"
        );
        assert_eq!(s.get(5).as_deref(), Some(&b"a-much-longer-value"[..]));
        assert_eq!(s.get(6).as_deref(), Some(&b"six"[..]));
        assert_eq!(s.get(7), None);
    }

    /// `serve_batch` must equal sequential per-op execution — same
    /// replies, same end state — on a deterministic mixed stream.
    #[test]
    fn serve_batch_matches_sequential_semantics() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let mut batched = Shard::new(&cfg);
        let mut seq = Shard::new(&cfg);
        let mut reqs: Vec<BatchRequest> = Vec::new();
        let mut x = 9_u64;
        for i in 0..120u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 24;
            reqs.push(match x % 5 {
                0 => BatchRequest::Get(key),
                1 => BatchRequest::Delete(key),
                2 => BatchRequest::PutMany(vec![
                    (key, vec![i as u8; 16]),
                    ((key + 1) % 24, vec![i as u8; 16]),
                ]),
                3 => BatchRequest::Scan(key, key + 7, 5),
                _ => BatchRequest::Put(key, vec![i as u8; 16]),
            });
        }
        let got = batched.serve_batch(&reqs);
        let want: Vec<BatchReply> = reqs
            .iter()
            .map(|r| match r {
                BatchRequest::Get(k) => BatchReply::Value(seq.get(*k)),
                BatchRequest::Put(k, v) => BatchReply::Done(seq.put(*k, v)),
                BatchRequest::PutMany(items) => BatchReply::Done(seq.put_many(items)),
                BatchRequest::Delete(k) => BatchReply::Done(seq.delete(*k)),
                BatchRequest::Scan(lo, hi, l) => {
                    BatchReply::Entries(seq.scan(*lo, *hi, *l as usize))
                }
            })
            .collect();
        assert_eq!(got, want, "replies diverge from sequential execution");
        assert_eq!(batched.dump(), seq.dump(), "end states diverge");
    }

    /// A crash among a batch's stores rolls the whole group back: the
    /// slots it had not landed leave its stamp short of its `n`, which
    /// keeps the all-or-nothing FASE contract.
    #[test]
    fn pipelined_put_many_is_atomic_under_crash() {
        let cfg = small(PolicyKind::ScFixed { capacity: 4 });
        for mode in [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, 11),
        ] {
            let mut s = Shard::new(&cfg);
            let before: Vec<(u64, Vec<u8>)> = (0..16u64).map(|i| (i, vec![1u8; 16])).collect();
            assert!(s.put_many(&before));
            s.nodes.rt.sync();
            // updates + fresh inserts in one batch, crashed among its
            // 24 stores
            let batch: Vec<(u64, Vec<u8>)> = (8..32u64).map(|i| (i, vec![2u8; 16])).collect();
            let step = s.nodes.rt.steps() + 10;
            s.nodes.rt.arm_crash(CrashPlan {
                at_step: step,
                mode: mode.clone(),
            });
            assert!(s.put_many(&batch));
            let image = s.nodes.rt.take_crash_image().expect("plan must have fired");
            let mut r = Shard::reopen_from_image(image, &cfg).expect("recovery");
            for i in 0..16u64 {
                assert_eq!(
                    r.get(i).as_deref(),
                    Some(&[1u8; 16][..]),
                    "key {i} ({mode:?})"
                );
            }
            for i in 16..32u64 {
                assert_eq!(r.get(i), None, "key {i} must not survive ({mode:?})");
            }
            // the shard keeps serving on the recovered image
            assert!(r.put(100, b"after"));
            assert_eq!(r.get(100).as_deref(), Some(&b"after"[..]));
        }
    }

    /// The counters one call moves: region, ring and runtime.
    fn counters(s: &Shard) -> (nvcache_pmem::PmemStats, u64, FaseStats) {
        let rt = &s.nodes.rt;
        (rt.region().stats(), rt.ring_stats().flushed, rt.stats())
    }

    /// Assert that `op` committed as one FASE by its sealed slots alone:
    /// no undo record, no commit record, one fence, and `lines` data
    /// lines, each flushed once off the ring.
    fn commits_by_its_slots(
        s: &mut Shard,
        what: &str,
        lines: u64,
        op: impl Fn(&mut Shard) -> bool,
    ) {
        let (pmem, ring, fase) = counters(s);
        assert!(op(s), "{what}");
        let (p, r, f) = counters(s);
        assert_eq!(f.fases - fase.fases, 1, "{what}");
        assert_eq!(p.fences - pmem.fences, 1, "{what}: one fence");
        assert_eq!(f.data_flushes - fase.data_flushes, lines, "{what}");
        assert_eq!(r - ring, lines, "{what}");
        assert_eq!(
            p.flushes - pmem.flushes,
            lines,
            "{what}: a flush off the ring"
        );
    }

    /// An update-only group and a same-length `put` write no undo
    /// record and no commit record: each commits by its sealed slots
    /// with one fence, and every flush is a data line through the ring,
    /// one per updated slot.
    #[test]
    fn an_update_commits_by_its_slots_alone() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        let group = |tag| (0..32u64).map(|k| (k, vec![tag; 40])).collect::<Vec<_>>();
        assert!(s.put_many(&group(1)));
        commits_by_its_slots(&mut s, "put_many", 32, |s| s.put_many(&group(2)));
        commits_by_its_slots(&mut s, "put", 1, |s| s.put(7, &[3; 40]));
        assert_eq!(s.get(7).as_deref(), Some(&[3u8; 40][..]));
        assert_eq!(s.get(8).as_deref(), Some(&[2u8; 40][..]));
    }

    /// A delete writes no undo record either: one tombstone line, one
    /// fence — and so does an insert into a carved segment. Carving a
    /// segment is one store, one flush and one fence, and no FASE.
    #[test]
    fn a_delete_commits_by_its_slot_alone() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        // 24 of the segment's 32 blocks
        assert!(s.put_many(&(0..24u64).map(|k| (k, [1; 40])).collect::<Vec<_>>()));
        commits_by_its_slots(&mut s, "delete", 1, |s| s.delete(7));
        commits_by_its_slots(&mut s, "reuse", 1, |s| s.put(7, &[3; 40]));
        commits_by_its_slots(&mut s, "insert", 1, |s| s.put(40, &[2; 40]));
        commits_by_its_slots(&mut s, "delete", 1, |s| s.delete(40));
        assert_eq!(s.get(40), None);
        assert_eq!(s.get(7).as_deref(), Some(&[3u8; 40][..]));
        s.index_matches_heap().unwrap();
        // a 100-byte value's class has no segment yet: the carve's one
        // line and fence come before the insert's FASE
        let (pmem, _, fase) = counters(&s);
        assert!(s.put(50, &[4; 100]));
        let (p, _, f) = counters(&s);
        assert_eq!((f.fases - fase.fases, p.fences - pmem.fences), (1, 2));
        assert_eq!((f.stores - fase.stores, p.flushes - pmem.flushes), (2, 3));
    }

    /// The three adversaries.
    fn modes(seed: u64) -> [CrashMode; 3] {
        [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, seed),
        ]
    }

    /// A power failure at every micro-step of an update group up to its
    /// fence, under every adversary: the image reopens to the old values
    /// or the new ones, and to the old ones at every cut under the
    /// adversary that lands only fenced lines; a second reopen voids
    /// nothing; and the next update, which reuses the stamp a dead group
    /// stamped its slots with, does not bring them back. The group
    /// writes one key twice, so its first write — whose checksum fails —
    /// may land without its second.
    #[test]
    fn a_crashed_update_stays_dead() {
        let cfg = small(PolicyKind::ScFixed { capacity: 4 });
        let old: Vec<(u64, Vec<u8>)> = (0..13u64).map(|k| (k, vec![1u8; 40])).collect();
        let mut dead: Vec<(u64, Vec<u8>)> = (0..12u64).map(|k| (k, vec![2u8; 40])).collect();
        dead.insert(1, (11, vec![5u8; 40]));
        let new: Vec<(u64, Vec<u8>)> = (0..13u64)
            .map(|k| (k, vec![1 + u8::from(k < 12); 40]))
            .collect();
        let loaded = || {
            let mut s = Shard::new(&cfg);
            assert!(s.put_many(&old));
            s
        };
        let mut probe = loaded();
        let start = probe.nodes.rt.steps();
        assert!(probe.put_many(&dead));
        let end = probe.nodes.rt.steps();
        let (mut voided, mut whole) = (0, 0);
        for k in start..end {
            for mode in modes(k) {
                let ctx = format!("{mode:?} crash at step {k}");
                let strict = mode == CrashMode::StrictDurableOnly;
                let mut s = loaded();
                s.nodes.rt.arm_crash(CrashPlan { at_step: k, mode });
                assert!(s.put_many(&dead));
                let image = s
                    .nodes
                    .rt
                    .take_crash_image()
                    .expect("the cut falls in the group");
                let mut r = Shard::reopen_from_image(image, &cfg).expect(&ctx);
                let got = r.dump();
                assert!(
                    got == old || got == new && !strict,
                    "{ctx}: the group is torn"
                );
                voided += r.voided_slots();
                whole += usize::from(got == new);
                let recovered = r.nodes.rt.region().durable_image().to_vec();
                let mut again = Shard::reopen_from_image(recovered, &cfg).expect(&ctx);
                assert_eq!(again.voided_slots(), 0, "{ctx}: voided twice");
                assert_eq!(again.dump(), got, "{ctx}");
                assert!(r.put(12, &[3; 40]), "{ctx}: the dead group's stamp");
                let mut after = got;
                after[12].1 = vec![3u8; 40];
                assert_eq!(r.dump(), after, "{ctx}: the group came back");
                r.crash_and_recover(&CrashMode::StrictDurableOnly);
                assert_eq!(r.dump(), after, "{ctx}: the group came back");
            }
        }
        assert!(voided > 0, "no cut left a slot to void");
        assert!(whole > 0, "no cut landed the whole group");
    }

    /// A group that writes key 1 twice, then key 2 — its closing slot.
    /// After a ring drain between the two writes of key 1 the first can
    /// be durable and the second not: that image, with key 2's slot
    /// landed, holds the group's closing slot and one slot of key 1, and
    /// commits nothing, because only the last write of a key is sealed
    /// with a checksum that holds.
    #[test]
    fn a_repeated_write_that_lands_alone_is_not_whole() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let loaded = || {
            let mut s = Shard::new(&cfg);
            assert!(s.put_many(&[(1, [1u8; 40]), (2, [1; 40])]));
            s
        };
        let group = [(1, [5u8; 40]), (1, [6; 40]), (2, [7; 40])];
        let mut s = loaded();
        let (old, start) = (s.dump(), s.nodes.rt.steps());
        let before = s.nodes.rt.region().durable_image().to_vec();
        let at = s.locate(1).unwrap().other().slot_off();
        let slot = at..at + SLOT_HEADER + 40;
        assert!(s.put_many(&group));
        s.nodes.rt.sync();
        // the first cut at which key 1's first write has landed
        let first = (start..s.nodes.rt.steps())
            .map(|at_step| {
                let mut s = loaded();
                let mode = CrashMode::AllInFlightLands;
                s.nodes.rt.arm_crash(CrashPlan { at_step, mode });
                assert!(s.put_many(&group));
                s.nodes.rt.take_crash_image().unwrap()
            })
            .find(|image| image[slot.clone()] != before[slot.clone()])
            .unwrap();
        assert_eq!(first[slot.start + SLOT_HEADER..slot.end], [5; 40]);
        let after = s.nodes.rt.region().durable_image();
        let image = patched(after, slot.start, &first[slot.clone()]);
        let mut r = Shard::reopen_from_image(image, &cfg).unwrap();
        assert_eq!((r.dump(), r.voided_slots()), (old, 2));
    }

    /// Delete A, then insert B into the block A held — once with A's
    /// value in slot 0, once (after an update) in slot 1 — with a power
    /// failure at every micro-step of the insert under every adversary:
    /// A never comes back, B is whole or absent (absent under the
    /// adversary that lands only fenced lines), the next FASE, which
    /// reuses the stamp B's dead insert was stamped with, brings neither
    /// back, and B's retry takes the block again.
    #[test]
    fn a_crashed_insert_into_a_freed_block_stays_dead() {
        let cfg = small(PolicyKind::ScFixed { capacity: 4 });
        let (a, b) = (1u64, 2u64);
        for updates in 0..2 {
            let loaded = || {
                let mut s = Shard::new(&cfg);
                assert!(s.put_many(&[(a, [1u8; 40]), (9, [9u8; 40])]));
                for _ in 0..updates {
                    assert!(s.put(a, &[3u8; 40]));
                }
                let block = s.locate(a).unwrap().node();
                assert!(s.delete(a));
                (s, block)
            };
            let (mut probe, block) = loaded();
            let start = probe.nodes.rt.steps();
            assert!(probe.put(b, &[2u8; 40]));
            assert_eq!(probe.locate(b).unwrap().node(), block, "B takes A's block");
            for k in start..probe.nodes.rt.steps() {
                for mode in modes(k) {
                    let ctx = format!("{updates} updates: {mode:?} crash at step {k}");
                    let strict = mode == CrashMode::StrictDurableOnly;
                    let (mut s, _) = loaded();
                    s.nodes.rt.arm_crash(CrashPlan { at_step: k, mode });
                    assert!(s.put(b, &[2u8; 40]));
                    let image = s
                        .nodes
                        .rt
                        .take_crash_image()
                        .expect("the cut falls in the insert");
                    let mut r = Shard::reopen_from_image(image, &cfg).expect(&ctx);
                    let got = r.dump();
                    let with_b = got.len() == 2;
                    assert!(!(with_b && strict), "{ctx}: B before its fence");
                    let nine = (9, vec![9u8; 40]);
                    let want = if with_b {
                        vec![(b, vec![2u8; 40]), nine]
                    } else {
                        vec![nine]
                    };
                    assert_eq!(got, want, "{ctx}");
                    assert!(r.put(9, &[4u8; 40]), "{ctx}: the dead insert's stamp");
                    assert_eq!(r.get(a), None, "{ctx}");
                    assert_eq!(r.dump().len(), got.len(), "{ctx}");
                    assert!(r.put(b, &[5u8; 40]));
                    let got = r.locate(b).map(|entry| entry.node());
                    assert_eq!(got, Some(block), "{ctx}: the dead insert's block leaked");
                    r.crash_and_recover(&CrashMode::StrictDurableOnly);
                    let want = vec![(b, vec![5u8; 40]), (9, vec![4u8; 40])];
                    assert_eq!(r.dump(), want, "{ctx}");
                }
            }
        }
    }

    /// The heap a crashed insert took a block from is whole again after
    /// recovery: after eight groups of two inserts, each cut short by a
    /// power failure after its first slot landed, as many keys fit as in
    /// a shard that never crashed.
    #[test]
    fn a_block_a_crashed_insert_took_is_free_after_recovery() {
        let cfg = ShardConfig {
            data_len: 16 << 10,
            ..small(PolicyKind::ScFixed { capacity: 4 })
        };
        let fill = |s: &mut Shard| (1000u64..).take_while(|&k| s.put(k, &[1u8; 40])).count();
        let fits = fill(&mut Shard::new(&cfg));
        let mut image = Shard::new(&cfg).nodes.rt.region().durable_image().to_vec();
        for key in (0..16u64).step_by(2) {
            let group = [(key, [2u8; 40]), (key + 1, [2u8; 40])];
            let mut s = Shard::reopen_from_image(image, &cfg).unwrap();
            // after the first slot's store; the first group carves its
            // segment first: a store, a flush and a fence
            let carve = if key == 0 { 3 } else { 0 };
            s.nodes.rt.arm_crash(CrashPlan {
                at_step: s.nodes.rt.steps() + carve + 1,
                mode: CrashMode::AllInFlightLands,
            });
            assert!(s.put_many(&group));
            image = s
                .nodes
                .rt
                .take_crash_image()
                .expect("the cut falls in the group");
            let r = Shard::reopen_from_image(image.clone(), &cfg).unwrap();
            assert_eq!((r.len(), r.voided_slots()), (0, 1), "group at {key}");
        }
        let mut s = Shard::reopen_from_image(image, &cfg).unwrap();
        assert!(s.is_empty());
        assert_eq!(fill(&mut s), fits, "blocks leaked");
    }

    /// Images a FASE can leave on hardware that lands 8-byte words, one
    /// pair per word it changed: `before` with that word landed alone,
    /// and `after` with that word alone missing.
    fn word_tears(before: &[u8], after: &[u8]) -> Vec<Vec<u8>> {
        let mut tears = Vec::new();
        for at in (0..before.len()).step_by(8) {
            let (old, new) = (&before[at..at + 8], &after[at..at + 8]);
            if old != new {
                tears.push(patched(before, at, new));
                tears.push(patched(after, at, old));
            }
        }
        tears
    }

    /// Recover every image [`word_tears`] makes of `op` on the shard
    /// `loaded` builds: each reopens to the state before `op`, a second
    /// reopen voids nothing, and the FASE that reuses `op`'s stamp
    /// brings none of it back across a power failure. Returns how many
    /// images left slots to void.
    fn recovers_every_word_tear(
        cfg: &ShardConfig,
        loaded: &dyn Fn() -> Shard,
        op: &dyn Fn(&mut Shard) -> bool,
    ) -> usize {
        let mut s = loaded();
        let old = s.dump();
        let before = s.nodes.rt.region().durable_image().to_vec();
        assert!(op(&mut s));
        s.nodes.rt.sync();
        let new = s.dump();
        assert_ne!(new, old);
        let after = s.nodes.rt.region().durable_image();
        let whole = Shard::reopen_from_image(after.to_vec(), cfg)
            .unwrap()
            .dump();
        assert_eq!(whole, new, "the whole FASE");
        let mut voided = 0;
        for (i, image) in word_tears(&before, after).into_iter().enumerate() {
            let ctx = format!("torn image {i}");
            let mut r = Shard::reopen_from_image(image, cfg).expect(&ctx);
            assert_eq!(r.dump(), old, "{ctx}");
            voided += usize::from(r.voided_slots() > 0);
            let recovered = r.nodes.rt.region().durable_image().to_vec();
            let again = Shard::reopen_from_image(recovered, cfg).expect(&ctx);
            assert_eq!(again.voided_slots(), 0, "{ctx}: voided twice");
            assert!(r.put(1 << 40, &[6; 8]), "{ctx}: the torn FASE's stamp");
            let mut want = old.clone();
            want.push((1 << 40, vec![6; 8]));
            r.crash_and_recover(&CrashMode::StrictDurableOnly);
            assert_eq!(r.dump(), want, "{ctx}: the torn FASE came back");
        }
        voided
    }

    /// A FASE torn word by word is absent after recovery, also where its
    /// slots share lines with committed ones: a 64-byte node holds its
    /// key and both slots in one line, so an update of one writes the
    /// line its committed slot lives in, and so does the void pass that
    /// takes a torn update back. Updates into either slot, an insert
    /// into a freed block, a class move and a delete.
    #[test]
    fn a_fase_torn_word_by_word_is_absent() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let loaded = || {
            let mut s = Shard::new(&cfg);
            assert!(s.put_many(&(0..6u64).map(|k| (k, [k as u8; 8])).collect::<Vec<_>>()));
            assert!(s.put(3, &[33; 8]), "key 3's slot 1 decides");
            assert!(s.delete(5));
            assert!(s.put(9, &[9; 40]));
            s
        };
        let updates = |s: &mut Shard| s.put_many(&[(0, [1; 8]), (3, [2; 8]), (1, [3; 8])]);
        let voided = [
            recovers_every_word_tear(&cfg, &loaded, &updates),
            recovers_every_word_tear(&cfg, &loaded, &|s| s.put(7, &[7; 8])),
            recovers_every_word_tear(&cfg, &loaded, &|s| s.put(2, &[4; 40])),
            recovers_every_word_tear(&cfg, &loaded, &|s| s.delete(4)),
        ];
        for (what, voided) in ["updates", "an insert", "a class move", "a delete"]
            .iter()
            .zip(voided)
        {
            assert!(voided > 0, "{what}: no tear left a slot to void");
        }
    }

    /// Delete A, whose slot 1 decides, so that its tombstone lands in
    /// slot 0; then insert B into A's block: B's key word shares line 0
    /// with the tombstone and B's slot goes to line 1. When only the key
    /// word lands, the tombstone's FASE — the last one — is still whole,
    /// because its seal leaves the key out: A stays deleted, nothing is
    /// voided, and B is absent.
    #[test]
    fn a_key_word_that_lands_without_its_slot_tears_nothing() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let (a, b) = (1u64, 2u64);
        let mut s = Shard::new(&cfg);
        assert!(s.put_many(&[(a, [1u8; 40]), (9, [9u8; 40])]));
        assert!(s.put(a, &[3u8; 40]));
        let tombstone = s.locate(a).unwrap().other();
        assert_eq!(tombstone.slot(), 0);
        assert!(s.delete(a));
        s.nodes.rt.sync();
        let before = s.nodes.rt.region().durable_image().to_vec();
        let key_word = tombstone.node();
        let image = patched(&before, key_word, &word(b));
        let mut r = Shard::reopen_from_image(image, &cfg).expect("a key word alone");
        assert_eq!(r.voided_slots(), 0, "the tombstone's FASE is whole");
        assert_eq!(r.dump(), vec![(9, vec![9u8; 40])]);
        assert!(r.put(b, &[2u8; 40]));
        assert_eq!(r.locate(b).unwrap().node(), key_word, "B takes A's block");
        r.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(r.dump(), vec![(b, vec![2u8; 40]), (9, vec![9u8; 40])]);
    }

    /// A group abandoned by a panic after its last store — every slot
    /// stored, whole and sealed, so that counting them would commit it —
    /// rolls back: healing voids its stamp outright, and neither the FASE
    /// that reuses the stamp nor a power failure that lands every line
    /// brings it back.
    #[test]
    fn a_fase_abandoned_after_its_last_store_rolls_back() {
        let cfg = small(PolicyKind::ScFixed { capacity: 4 });
        let mut s = Shard::new(&cfg);
        assert!(s.put_many(&(0..8u64).map(|k| (k, [1u8; 40])).collect::<Vec<_>>()));
        let old = s.dump();
        // two updates, an insert and a class move
        let items = [
            (0, vec![7u8; 40]),
            (1, vec![7; 40]),
            (20, vec![7; 40]),
            (2, vec![7; 100]),
        ];
        let item = |i: usize| (items[i].0, &items[i].1[..]);
        let mut plan = PutPlan::default();
        assert!(s.plan_group(items.len(), &item, &mut plan));
        let stamp = s.nodes.begin();
        s.write_group(&item, &plan, stamp);
        assert_eq!(
            s.nodes.last_committed(),
            Ok(stamp),
            "the group's slots are whole"
        );
        assert!(s.heal_after_panic());
        assert_eq!(s.voided_slots(), 5, "four writes and a tombstone");
        assert_eq!(s.dump(), old);
        s.index_matches_heap().unwrap();
        assert!(s.put(5, &[8u8; 40]), "the abandoned group's stamp");
        s.crash_and_recover(&CrashMode::AllInFlightLands);
        let mut want = old;
        want[5].1 = vec![8u8; 40];
        assert_eq!(s.dump(), want);
        s.index_matches_heap().unwrap();
    }

    // ----- every crash state --------------------------------------------

    /// Every crash state of a program: the shard `start` builds, then
    /// `ops`, each one FASE (or a recovery). At every micro-step of
    /// `ops`, every image [`crash::landings`] names reopens to the state
    /// before the FASE the cut falls in or the state after it — the
    /// committed-prefix oracle — with the index and the free lists equal
    /// to the heap. Returns the images checked and the cuts.
    fn every_crash_state(
        cfg: &ShardConfig,
        start: &dyn Fn() -> Shard,
        ops: &[&dyn Fn(&mut Shard)],
    ) -> (usize, usize) {
        let mut s = start();
        let (mut ends, mut states) = (vec![s.nodes.rt.steps()], vec![s.dump()]);
        for op in ops {
            op(&mut s);
            ends.push(s.nodes.rt.steps());
            states.push(s.dump());
        }
        let lines = s.nodes.rt.region().line_count();
        let run = |plan| {
            let mut s = start();
            s.nodes.rt.arm_crash(plan);
            ops.iter().for_each(|op| op(&mut s));
            s.nodes
                .rt
                .take_crash_image()
                .expect("the cut falls in the program")
        };
        let mut images = 0;
        for step in ends[0]..ends[ops.len()] {
            let j = ends.iter().rposition(|&e| e <= step).unwrap();
            for (i, image) in crash::landings(&run, step, lines).enumerate() {
                let ctx = format!("step {step}, landing {i}");
                let mut r = Shard::reopen_from_image(image, cfg).expect(&ctx);
                let got = r.dump();
                assert!(
                    got == states[j] || got == states[j + 1],
                    "{ctx}: not a committed prefix"
                );
                if let Err(e) = r.index_matches_heap() {
                    panic!("{ctx}: {e}");
                }
                images += 1;
            }
        }
        (images, (ends[ops.len()] - ends[0]) as usize)
    }

    /// Every crash state — every subset of the lines in flight at every
    /// micro-step, named by `CrashMode::Exactly` — of four node programs:
    /// an update group (one key written twice), a group with a class
    /// change (a tombstone and an insert, after a carve), a delete and
    /// an insert into the block it freed (the insert's key word shares
    /// its line with the tombstone), and the void pass after a torn
    /// group. Each image holds a committed prefix, and its index and
    /// free lists are its heap.
    ///
    /// Mutants this test kills (each checked on a copy):
    /// - a tombstone sealed over its node's key word, which the insert
    ///   into its block rewrites: the key word landing alone tears the
    ///   delete;
    /// - a closing slot whose `n` counts one unit too few: the image with
    ///   every slot of the group landed is hostile.
    #[test]
    fn every_crash_state_of_the_node_programs_is_a_committed_prefix() {
        let cfg = ShardConfig {
            data_len: 16 << 10,
            ..small(PolicyKind::ScFixed { capacity: 4 })
        };
        let loaded = || {
            let mut s = Shard::new(&cfg);
            assert!(s.put_many(&(0..6u64).map(|k| (k, [1u8; 40])).collect::<Vec<_>>()));
            assert!(s.put(1, &[3; 40]), "key 1's slot 1 decides");
            s
        };
        let update =
            |s: &mut Shard| assert!(s.put_many(&[(0, [2; 40]), (2, [4; 40]), (0, [5; 40])]));
        let class_change =
            |s: &mut Shard| assert!(s.put_many(&[(3, vec![6; 100]), (4, vec![7; 40])]));
        let delete = |s: &mut Shard| assert!(s.delete(1));
        let insert = |s: &mut Shard| assert!(s.put(9, &[9; 40]));
        // a group torn after two of its three slots, which a power
        // failure lands, and the recovery that voids them
        let torn = || {
            let mut s = loaded();
            let stamp = s.nodes.begin();
            for key in [0, 2] {
                let slot = s.locate(key).unwrap().other();
                s.nodes
                    .store_slot(slot, (stamp, Some(0)), key, false, Some(&[8; 40]));
            }
            s
        };
        let recover = |s: &mut Shard| {
            s.crash_and_recover(&CrashMode::AllInFlightLands);
            assert_eq!(s.voided_slots(), 2);
        };
        let images = [
            every_crash_state(&cfg, &loaded, &[&update]),
            every_crash_state(&cfg, &loaded, &[&class_change]),
            every_crash_state(&cfg, &loaded, &[&delete, &insert]),
            every_crash_state(&cfg, &torn, &[&recover]),
        ];
        for (what, n) in ["update", "class change", "delete and insert", "void pass"]
            .iter()
            .zip(images)
        {
            assert!(n.0 > n.1, "{what}: no cut of {} had a line in flight", n.1);
        }
    }

    /// Where a key hashes does not matter any more: deleting a key of a
    /// sparse set (`i << 48`) and one of a dense set, and moving each to
    /// another class, take the same micro-steps and persistence counts.
    #[test]
    fn sparse_and_dense_keys_cost_the_same() {
        let cost = |keys: &[u64], op: &dyn Fn(&mut Shard, u64) -> bool| {
            let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
            assert!(s.put_many(&keys.iter().map(|&k| (k, [1u8; 40])).collect::<Vec<_>>()));
            let (steps, pmem) = (s.nodes.rt.steps(), s.nodes.rt.region().stats());
            assert!(op(&mut s, keys[300]));
            let p = s.nodes.rt.region().stats();
            let delta = [p.bytes_written, p.stores, p.flushes, p.fences]
                .iter()
                .zip([pmem.bytes_written, pmem.stores, pmem.flushes, pmem.fences])
                .map(|(now, then)| now - then)
                .collect::<Vec<_>>();
            (s.nodes.rt.steps() - steps, delta)
        };
        let sparse: Vec<u64> = (0..1000u64).map(|i| i << 48).collect();
        let dense: Vec<u64> = (0..1000u64).collect();
        let delete = |s: &mut Shard, k| s.delete(k);
        let resize = |s: &mut Shard, k| s.put(k, &[2u8; 100]);
        assert_eq!(cost(&sparse, &delete), cost(&dense, &delete));
        assert_eq!(cost(&sparse, &resize), cost(&dense, &resize));
    }

    fn patched(image: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut image = image.to_vec();
        image[at..at + bytes.len()].copy_from_slice(bytes);
        image
    }

    fn word(w: u64) -> [u8; 8] {
        w.to_le_bytes()
    }

    // ----- the index is the heap -----------------------------------------

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Keys of the differential.
    const KEYS: u64 = 28;

    /// The length a key keeps across `put_many` groups.
    fn group_len(model: &BTreeMap<u64, Vec<u8>>, key: u64) -> usize {
        model.get(&key).map_or(13 * (key % 4) as usize, Vec::len)
    }

    /// The three adversaries; `Best` is not crash-consistent, so it only
    /// meets the two that tear nothing.
    fn adversary(sel: u64, cfg: &ShardConfig) -> CrashMode {
        match sel % if cfg.policy == PolicyKind::Best { 2 } else { 3 } {
            0 => CrashMode::StrictDurableOnly,
            1 => CrashMode::AllInFlightLands,
            _ => CrashMode::random(0.5, 0.5, sel),
        }
    }

    /// After every step: index and free lists ↔ heap, `len`, and `get`
    /// of every key the program can name (present or not) against the
    /// model.
    fn check(s: &mut Shard, model: &BTreeMap<u64, Vec<u8>>, step: &str) {
        if let Err(e) = s.index_matches_heap() {
            panic!("after {step}: {e}");
        }
        assert_eq!(s.len(), model.len(), "after {step}");
        for key in 0..KEYS + 2 {
            assert_eq!(
                s.get(key),
                model.get(&key).cloned(),
                "get({key}) after {step}"
            );
        }
    }

    /// Apply a committed group to the model.
    fn commit(model: &mut BTreeMap<u64, Vec<u8>>, group: &[(u64, Vec<u8>)]) {
        model.extend(group.iter().cloned());
    }

    fn run_differential(cfg: &ShardConfig, prog: &[(u8, u64, u8, u64)]) {
        let consistent = cfg.policy != PolicyKind::Best;
        let mut s = Shard::new(cfg);
        let mut model = BTreeMap::new();
        for (i, &(op, key, sel, aux)) in prog.iter().enumerate() {
            let tag = i as u8;
            // a group of `n` writes over keys drawn from `aux`: repeats
            // and fresh keys both turn up, every key keeps its length
            let group = |model: &BTreeMap<u64, Vec<u8>>, n: u64| -> Vec<(u64, Vec<u8>)> {
                (0..n)
                    .map(|j| (aux.wrapping_mul(2 * j + 3) >> 3) % KEYS)
                    .map(|k| (k, vec![tag; group_len(model, k)]))
                    .collect()
            };
            let step = format!("step {i} {:?}", (op, key, sel, aux));
            match op {
                // put: fresh, same class (a slot) or another class
                0..=3 => {
                    let v = vec![tag; 13 * sel as usize];
                    if s.put(key, &v) {
                        model.insert(key, v);
                    }
                }
                4..=6 => {
                    let g = group(&model, 1 + aux % 12);
                    if s.put_many(&g) {
                        commit(&mut model, &g);
                    }
                }
                7 | 8 => assert_eq!(s.delete(key), model.remove(&key).is_some(), "{step}"),
                // one lane batch, replies checked in submission order
                9 | 10 => {
                    let reqs: Vec<BatchRequest> = (0..4 + aux % 6)
                        .map(|j| {
                            let x = aux.wrapping_mul(2 * j + 5) >> 2;
                            let k = (key + x) % KEYS;
                            match x % 6 {
                                0 => BatchRequest::Get(k),
                                1 => BatchRequest::Delete(k),
                                2 => BatchRequest::Scan(k, k + 9, 1 + sel as u32),
                                3 => BatchRequest::PutMany(group(&model, 3)),
                                // now and then another class: the key
                                // moves inside the segment's group
                                _ => BatchRequest::Put(k, vec![tag; 13 * (x % 5) as usize]),
                            }
                        })
                        .collect();
                    let replies = s.serve_batch(&reqs);
                    for (req, reply) in reqs.iter().zip(replies) {
                        let want = match req {
                            BatchRequest::Get(k) => BatchReply::Value(model.get(k).cloned()),
                            BatchRequest::Delete(k) => BatchReply::Done(model.remove(k).is_some()),
                            BatchRequest::Scan(lo, hi, limit) => BatchReply::Entries(
                                model
                                    .range(lo..=hi)
                                    .take(*limit as usize)
                                    .map(|(k, v)| (*k, v.clone()))
                                    .collect(),
                            ),
                            BatchRequest::Put(k, v) => {
                                if reply == BatchReply::Done(true) {
                                    model.insert(*k, v.clone());
                                }
                                reply.clone()
                            }
                            BatchRequest::PutMany(g) => {
                                if reply == BatchReply::Done(true) {
                                    commit(&mut model, g);
                                }
                                reply.clone()
                            }
                        };
                        assert_eq!(reply, want, "{step}: {req:?}");
                    }
                }
                // groups led by a fresh key and a key of another class,
                // whose blocks a refused group has to give back
                11 | 12 => {
                    let fresh = (KEYS + 1, vec![tag; 13]);
                    let other = (key, vec![tag; group_len(&model, key) + 100]);
                    let (g, refused): (Vec<(u64, Vec<u8>)>, bool) = match sel % 4 {
                        0 => (vec![fresh, other, (key, vec![0; MAX_VALUE_LEN + 1])], true),
                        // one key at two classes: the last write places it
                        1 => (vec![fresh, other, (key, vec![tag; 1])], false),
                        // more 4 KiB nodes than the heap has room for
                        2 => (
                            [fresh, other]
                                .into_iter()
                                .chain((0..80).map(|j| (2000 + j, vec![tag; 2000])))
                                .collect(),
                            true,
                        ),
                        // a worker that dies inside a FASE, half way
                        // through an update: healing drops the FASE and
                        // rebuilds the index and the free lists
                        _ => {
                            if let Some(entry) = s.locate(key) {
                                let stamp = s.nodes.begin();
                                let dead = vec![0xee; entry.vlen()];
                                s.nodes.store_slot(
                                    entry.other(),
                                    (stamp, Some(1)),
                                    key,
                                    false,
                                    Some(&dead),
                                );
                                assert!(s.heal_after_panic(), "{step}: a FASE was open");
                                assert_eq!(s.voided_slots(), 1, "{step}: the dead slot");
                            }
                            (Vec::new(), false)
                        }
                    };
                    if s.put_many(&g) {
                        assert!(!refused, "{step}: group must be refused");
                        commit(&mut model, &g);
                    }
                }
                // power failure at an armed micro-step of a group commit:
                // the image reopens to the state before or after it
                13 | 14 if consistent => {
                    let g = group(&model, 10);
                    s.nodes.rt.arm_crash(CrashPlan {
                        at_step: s.nodes.rt.steps() + 1 + aux % 90,
                        mode: adversary(sel as u64 + aux, cfg),
                    });
                    let before = model.clone();
                    if s.put_many(&g) {
                        commit(&mut model, &g);
                    }
                    if let Some(image) = s.nodes.rt.take_crash_image() {
                        s = Shard::reopen_from_image(image, cfg).expect("recovery");
                        let got: BTreeMap<_, _> = s.dump().into_iter().collect();
                        assert!(got == before || got == model, "{step}: torn group");
                        model = got;
                    }
                }
                // power failure between operations
                _ if consistent => {
                    s.crash_and_recover(&adversary(sel as u64 + aux, cfg));
                    let got: BTreeMap<_, _> = s.dump().into_iter().collect();
                    assert_eq!(got, model, "{step}: committed state lost");
                }
                // `Best` flushes no data, but persists its class bytes:
                // its image may hold a key's new node without the old
                // one's tombstone, or a void pass's slots that never
                // landed beside the FASE that reused their stamp, which
                // the passes cannot tell from a hostile image. It reopens as a foreign
                // image would, a typed refusal ends the program, and so
                // does the first check of a shard that reopened: nothing
                // it serves after is owed.
                _ => {
                    let mode = adversary(sel as u64 + aux, cfg);
                    let image = s.nodes.rt.region().image_after_crash(&mode);
                    let mut r = match Shard::reopen_from_image(image, cfg) {
                        Ok(r) => r,
                        Err(ShardImageError::BadNode { .. }) => return,
                        Err(e) => panic!("{step}: {e}"),
                    };
                    let kept = r.dump().into_iter().collect();
                    check(&mut r, &kept, &step);
                    return;
                }
            }
            check(&mut s, &model, &step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The index and the free lists never say anything the heap does
        /// not: after every step of a program of puts of all three kinds,
        /// groups, deletes, lane batches with barriers, refused groups,
        /// FASEs abandoned by a dying worker and power failures under
        /// every adversary.
        #[test]
        fn index_is_the_heap(
            prog in prop::collection::vec((0u8..16, 0u64..KEYS, 0u8..5, any::<u64>()), 1..70),
        ) {
            for policy in [
                PolicyKind::ScFixed { capacity: 8 },
                PolicyKind::Atlas { size: 8 },
                PolicyKind::Best,
            ] {
                let cfg = ShardConfig {
                    // seven segments: deleted blocks are reused, keys
                    // move between five classes, and 80 max-class nodes
                    // do not fit
                    data_len: 32 << 10,
                    ..small(policy)
                };
                run_differential(&cfg, &prog);
            }
        }
    }
}
