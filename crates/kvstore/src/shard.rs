//! One KV shard: a persistent open-chaining hash table owning a private
//! [`FaseRuntime`] (per-thread cache model, paper Section II-B) with
//! `PAlloc`-backed buckets and value nodes, plus the shard's **live
//! adaptation controller** — a [`BurstSampler`] fed the shard's own
//! store-line stream (FASE-renamed), whose MRC knee resizes the
//! software cache *while the shard keeps serving*.
//!
//! Persistent layout (all offsets inside the shard's region):
//!
//! ```text
//! [PAlloc header | bucket array | head (root) | value nodes …]  [undo log]
//! head := bucket array offset u64 | epoch u64
//! node := key u64 | next u64 | slot 0 | slot 1
//! slot := stamp << 12 | vlen  u64 | value bytes (vlen of them)
//! ```
//!
//! A node holds its value twice over: each slot carries the **stamp** of
//! the FASE that wrote it, and the head's **epoch word** says which
//! stamps are committed. A node's value is its slot with the highest
//! stamp in `1..=epoch`; stamp 0 is a void slot. With 40-byte values a
//! node is 112 bytes (a 128-byte block on a line boundary) and each slot
//! lies inside one cache line.
//!
//! Every mutation is one FASE, so recovery always lands on a
//! committed-prefix-consistent map:
//!
//! - **Update** (a `put` of an indexed key at its length, and every such
//!   item of a `put_many` group): the value goes into the node's *other*
//!   slot, stamped `epoch + 1`, as one unlogged store
//!   ([`FaseRuntime::store_fresh`]) — nothing committed reads that slot.
//!   The FASE then commits by publishing `epoch + 1` as the head's epoch
//!   word ([`FaseRuntime::publish`]): the data fence, then the word, its
//!   flush and its fence. No undo record, two fences. Repeated keys of
//!   one group rewrite the same slot.
//! - **Insert** (and a `put` to another length, whose new node takes the
//!   old one's place in its chain): a freshly allocated node is
//!   **shadow memory** until the 8-byte link store of the same FASE
//!   publishes it (the tree's rule for a copy-on-write page), so its
//!   fields and slot 0 are written unlogged, stamped with the epoch the
//!   FASE commits under, with slot 1 void (a reused block holds old
//!   bytes). Only the link is undo-logged; the log's epoch bump commits.
//!   A group that inserts *and* updates prelogs its bucket heads and the
//!   epoch word together, and the log's bump commits both.
//! - **Delete**: the unlink, logged.
//!
//! If a logged FASE rolls back, the link is restored and a fresh node
//! keeps whatever reached NVRAM — garbage nobody can see, in a block
//! that leaks like any other allocated in the gap: node allocation
//! happens *before* and `free` *after* the FASE, the same discipline as
//! the `hash` micro-benchmark and Atlas's Makalu heap. A rolled-back
//! update leaves slots stamped above the epoch word. Before the shard
//! opens another FASE, recovery **voids** them (stamp 0, by unlogged
//! stores in a FASE that publishes nothing — a crash inside it leaves
//! slots the next recovery voids again): otherwise the next FASE, which
//! publishes the same epoch, would commit them.
//!
//! # What is volatile
//!
//! Two things. The shard's copy of the epoch word, and the **index**, a
//! DRAM map from each reachable key to one word: its node's offset, the
//! committed slot in bit 0 and the value length in the top bits
//! ([`Shard::len`] is its size). The index is never stored through the
//! runtime, never logged, never flushed, and it is the only way a lookup
//! — `get`, `put`, `put_many`'s planner, `serve_batch`'s reads, `scan` —
//! locates a value: one probe, then the value itself; planning an update
//! reads nothing persistent. The chains are walked only to find the *link* that
//! points at a node about to be unlinked (`delete`, a `put` of another
//! length) and by `dump`, which audits what is persistent.
//!
//! NVTraverse's observation is the licence: in a durable structure only
//! the *destination* of a traversal has to be persistent, the *journey*
//! need not touch persistent memory at all; and of a destination, only
//! what a commit point makes reachable.
//!
//! The index changes only **after the commit point** of the FASE that
//! justifies it: a fresh or replacing node is entered, an updated key
//! moved to its other slot, a deleted key dropped, once `end_fase` has
//! returned; a refused batch (oversized value, length change, full heap,
//! full undo log) or a FASE abandoned by a panic never touches it. After
//! anything that can roll a FASE back — reopening an image, an injected
//! crash, a healed panic — it is rebuilt by one walk over the buckets,
//! followed by the void pass. The walk is also where a foreign image is
//! checked: the head must name a bucket array inside the data area and
//! an epoch below 2⁵² − 1, every link must be an 8-aligned node inside
//! the data area, every key in its own bucket and in one node only, and
//! every node must hold a committed slot ([`ShardImageError`]).

use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use nvcache_core::{rename_for_epoch, PolicyKind};
use nvcache_fase::{FaseRuntime, FaseStats, RecoveryError};
use nvcache_locality::{select_cache_size, BurstSampler, KneeConfig, Mrc};
use nvcache_pmem::{CrashMode, CrashPlan, PmemRegion};
use nvcache_trace::FxHashMap;

/// Node header bytes: key, next pointer.
const NODE_HEADER: usize = 16;
/// A slot's header: one word, its stamp above its value length.
const SLOT_HEADER: usize = 8;
/// Low bits of a slot header that hold the value length.
const LEN_BITS: u32 = 12;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
/// Epoch words stay below this: a stamp has the 52 bits a slot header
/// leaves, and the epoch after the word must fit one.
const EPOCH_LIMIT: u64 = (1 << (64 - LEN_BITS)) - 1;
/// The head block (the root): the bucket array's offset, then the epoch
/// word, on a line of their own.
const HEAD_BLOCK: usize = 64;
/// Offset of the epoch word inside the head block.
const EPOCH_WORD: usize = 8;
/// Bucket-array block (one `PAlloc` max-class allocation).
const BUCKET_BLOCK: usize = 4096;
/// Largest value the node layout can hold: two slots in a `PAlloc`
/// max-class block.
pub const MAX_VALUE_LEN: usize = (BUCKET_BLOCK - NODE_HEADER) / 2 - SLOT_HEADER;
/// The smallest node: two empty slots.
const MIN_NODE: usize = NODE_HEADER + 2 * SLOT_HEADER;
/// Why rebuilding the index cannot fail on the two in-process paths.
const OWN_REGION: &str = "a region only this shard wrote recovers to sound chains";

/// Bytes of a node whose values are `vlen` long.
fn node_size(vlen: usize) -> usize {
    NODE_HEADER + 2 * (SLOT_HEADER + vlen)
}

/// What the index holds for a key: its node's offset with the committed
/// slot in bit 0 (a node is at least 16-aligned), and the value length
/// from bit 48 up (data offsets stay below 2⁴⁸, as the undo log's
/// records require) — so a lookup reads the value and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u64);

impl Entry {
    const VLEN_SHIFT: u32 = 48;

    fn new(node: usize, slot: usize, vlen: usize) -> Self {
        Entry(node as u64 | slot as u64 | (vlen as u64) << Self::VLEN_SHIFT)
    }

    fn node(self) -> usize {
        (self.0 & ((1 << Self::VLEN_SHIFT) - 2)) as usize
    }

    fn vlen(self) -> usize {
        (self.0 >> Self::VLEN_SHIFT) as usize
    }

    /// The node's other slot.
    fn other(self) -> Self {
        Entry(self.0 ^ 1)
    }

    /// Offset of the slot's header.
    fn slot_off(self) -> usize {
        self.node() + NODE_HEADER + (self.0 & 1) as usize * (SLOT_HEADER + self.vlen())
    }
}

/// A slot header: the stamp above the value length.
fn slot_header(stamp: u64, vlen: usize) -> u64 {
    stamp << LEN_BITS | vlen as u64
}

/// What a node's slot headers say under an epoch word.
struct Slots {
    /// The node's index entry: the slot holding the committed value.
    entry: Entry,
    /// The headers of slots stamped above the epoch: a rolled-back
    /// FASE's, to be voided.
    above: [Option<usize>; 2],
}

/// Read `node`'s slot headers under the epoch word `epoch`, or say which
/// rule the node breaks.
fn read_slots(rt: &mut FaseRuntime, node: usize, epoch: u64) -> Result<Slots, &'static str> {
    let first = rt.load_u64(node + NODE_HEADER);
    let vlen = (first & LEN_MASK) as usize;
    if vlen > MAX_VALUE_LEN {
        return Err("value longer than a node holds");
    }
    if node + node_size(vlen) > rt.data_len() {
        return Err("value runs off the data area");
    }
    let slot0 = Entry::new(node, 0, vlen);
    let offs = [slot0.slot_off(), slot0.other().slot_off()];
    let second = rt.load_u64(offs[1]);
    if second & LEN_MASK != vlen as u64 {
        return Err("slots disagree on the value length");
    }
    let stamps = [first >> LEN_BITS, second >> LEN_BITS];
    let committed = stamps.map(|s| (1..=epoch).contains(&s));
    let slot = match committed {
        [false, false] => return Err("no committed slot"),
        [true, true] => usize::from(stamps[1] > stamps[0]),
        [c0, _] => usize::from(!c0),
    };
    let above = [0, 1].map(|i| (stamps[i] > epoch).then_some(offs[i]));
    Ok(Slots {
        entry: Entry::new(node, slot, vlen),
        above,
    })
}

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
    /// the replay path. The engines differ on one refusal: a hash shard
    /// refuses a group that changes an existing key's value length
    /// ([`Shard::put_many`]), the tree engine accepts it.
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

/// Live-adaptation controller configuration for one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// Store lines per sampling burst (paper: 64M on full-size runs;
    /// shards here serve scaled-down working sets).
    pub burst_len: usize,
    /// Knee-selection tunables (bounds, tolerance).
    pub knee: KneeConfig,
    /// Store lines to skip between bursts; `None` analyzes once
    /// (paper default), `Some(h)` re-adapts periodically.
    pub hibernation: Option<u64>,
    /// Also keep the full renamed store-line stream (offline
    /// exact-Mattson comparison in tests and `repro kv-bench`).
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

/// One capacity decision made by the live controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityChoice {
    /// Operation index (per shard) at which the resize was applied.
    pub op: u64,
    /// The MRC knee the controller found.
    pub knee: usize,
    /// The capacity it installed (knee + 1 safety entry, clamped).
    pub capacity: usize,
}

/// Static shape of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Hash-chain count (≤ 512: the bucket array is one 4 KiB block).
    pub buckets: usize,
    /// Data-area bytes (heap: buckets + nodes).
    pub data_len: usize,
    /// Undo-log bytes.
    pub log_len: usize,
    /// Persistence policy for this shard's runtime.
    pub policy: PolicyKind,
    /// Live adaptation; `None` = fixed policy behaviour.
    pub adapt: Option<AdaptConfig>,
    /// Selects nothing: every shard allocates from the runtime's heap,
    /// flushes through its ring and prelogs a `put_many` write set as
    /// one group. Kept for `benchmark/src/adapter.rs`, which sets it.
    pub pipelined: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            buckets: 256,
            data_len: 1 << 20,
            log_len: 1 << 16,
            policy: PolicyKind::ScAdaptive(Default::default()),
            adapt: None,
            pipelined: false,
        }
    }
}

/// Why an image cannot be served as a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardImageError {
    /// The FASE layer itself could not recover the image.
    Recovery(RecoveryError),
    /// The image has no heap (0), or its root is not a head block inside
    /// the data area naming a bucket array inside it and an epoch below
    /// 2⁵² − 1 (the root).
    BadRoot(u64),
    /// A hash chain breaks a structural invariant.
    BadChain {
        /// Index of the bucket whose chain holds the offender.
        bucket: usize,
        /// The offending link (a node offset).
        link: u64,
        /// Which invariant broke.
        why: &'static str,
    },
}

impl fmt::Display for ShardImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardImageError::Recovery(e) => write!(f, "FASE recovery failed: {e}"),
            ShardImageError::BadRoot(root) => write!(f, "no shard head at root {root:#x}"),
            ShardImageError::BadChain { bucket, link, why } => {
                write!(f, "bad chain in bucket {bucket} at link {link:#x}: {why}")
            }
        }
    }
}

impl std::error::Error for ShardImageError {}

impl From<RecoveryError> for ShardImageError {
    fn from(e: RecoveryError) -> Self {
        ShardImageError::Recovery(e)
    }
}

/// A single-owner persistent KV shard.
#[derive(Debug)]
pub struct Shard {
    rt: FaseRuntime,
    buckets: usize,
    /// The head block: the bucket array's offset, then the epoch word.
    head: usize,
    bucket_base: usize,
    /// Volatile: the epoch word. An update stamps its slot one above
    /// and publishes that.
    committed: u64,
    /// Volatile: every reachable key → its node's committed slot and
    /// value length (module doc, "What is volatile").
    /// Keys are the clients', so the hasher is
    /// `std`'s keyed one: under the unkeyed multiplicative `FxHashMap`,
    /// 4 000 keys that differ only above bit 20 share one probe sequence
    /// (440 ns a `get` against 46).
    index: HashMap<u64, Entry>,
    ops: u64,
    /// FASE epoch for store-line renaming (one op = one FASE).
    epoch: u64,
    sampler: Option<BurstSampler>,
    adapt: Option<AdaptConfig>,
    pending_mrc: Option<Mrc>,
    chosen: Vec<CapacityChoice>,
    stream: Option<Vec<u64>>,
    /// [`Shard::put_many`]'s plan, kept between batches.
    plan: PutPlan,
    /// A slot, or a fresh node's first bytes, composed for its one store
    /// (reused).
    slot_buf: Vec<u8>,
}

/// One planned write of a [`Shard::put_many`] batch.
#[derive(Debug, Clone, Copy)]
enum PlannedOp {
    /// Write the value into the slot an index entry names: an indexed
    /// node's other slot, or slot 0 of a node the batch allocated. It
    /// is the key's index entry once the batch commits.
    Write(Entry),
    /// Splice `node` at the head of its bucket chain.
    Insert {
        node: usize,
        boff: usize,
        key: u64,
        head: u64,
    },
}

/// What [`Shard::put_many`] works out before it opens the FASE. The
/// shard owns it so that a batch clears these buffers instead of
/// building and dropping them.
#[derive(Debug, Default)]
struct PutPlan {
    /// Key → index entry of the nodes this batch allocated: what the
    /// index cannot know before the batch commits.
    fresh: FxHashMap<u64, Entry>,
    /// Bucket offset → chain head after the batch's inserts so far.
    heads: FxHashMap<usize, u64>,
    /// Nodes allocated for the batch (given back if it is refused).
    new_allocs: Vec<(u64, usize)>,
    /// The writes, each with the index of the item it carries.
    ops: Vec<(PlannedOp, usize)>,
    /// The logged part of the write set — the inserts' bucket heads,
    /// and the epoch word if the batch also updates — handed to the
    /// grouped prelog.
    ranges: Vec<(u64, u64)>,
}

impl PutPlan {
    fn clear(&mut self) {
        self.fresh.clear();
        self.heads.clear();
        self.new_allocs.clear();
        self.ops.clear();
        self.ranges.clear();
    }
}

fn bucket_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

impl Shard {
    /// Create a fresh shard.
    pub fn new(cfg: &ShardConfig) -> Self {
        assert!(
            cfg.buckets >= 1 && cfg.buckets * 8 <= BUCKET_BLOCK,
            "1..=512 buckets per shard"
        );
        let mut rt = FaseRuntime::with_heap(cfg.data_len, cfg.log_len, &cfg.policy);
        let base = rt.alloc(BUCKET_BLOCK).expect("bucket array allocation") as usize;
        let head = rt.alloc(HEAD_BLOCK).expect("head block allocation") as usize;
        rt.fase(|rt| {
            for b in 0..cfg.buckets {
                rt.store_u64(base + b * 8, 0);
            }
            // the head is this FASE's commit record, so it is durable
            // under every policy before the root names it
            let mut words = [0u8; 16];
            words[..8].copy_from_slice(&(base as u64).to_le_bytes());
            words[EPOCH_WORD..].copy_from_slice(&1u64.to_le_bytes());
            rt.publish(head, &words);
        });
        rt.set_root(head as u64);
        Self::assemble(rt, head, cfg)
    }

    /// Re-attach to a crash image (or saved region): run recovery, then
    /// rebuild the index by walking the buckets and void what a
    /// rolled-back update left. The image may be anything: a table the
    /// walk cannot vouch for is a typed error, never a hang or a panic.
    pub fn reopen_from_image(image: Vec<u8>, cfg: &ShardConfig) -> Result<Self, ShardImageError> {
        let region = PmemRegion::from_image(image);
        let mut rt = FaseRuntime::try_reopen(region, cfg.data_len, cfg.log_len, &cfg.policy)?;
        if !rt.has_heap() {
            return Err(ShardImageError::BadRoot(0));
        }
        let root = rt.root();
        let data_len = rt.data_len() as u64;
        let inside = |off: u64, len: usize| {
            off != 0
                && off.is_multiple_of(8)
                && off
                    .checked_add(len as u64)
                    .is_some_and(|end| end <= data_len)
        };
        if !inside(root, HEAD_BLOCK) {
            return Err(ShardImageError::BadRoot(root));
        }
        let base = rt.load_u64(root as usize);
        let epoch = rt.load_u64(root as usize + EPOCH_WORD);
        if !inside(base, BUCKET_BLOCK) || !(1..EPOCH_LIMIT).contains(&epoch) {
            return Err(ShardImageError::BadRoot(root));
        }
        let mut shard = Self::assemble(rt, root as usize, cfg);
        shard.rebuild_volatile()?;
        Ok(shard)
    }

    fn assemble(mut rt: FaseRuntime, head: usize, cfg: &ShardConfig) -> Self {
        let bucket_base = rt.load_u64(head) as usize;
        let committed = rt.load_u64(head + EPOCH_WORD);
        let (sampler, stream) = match &cfg.adapt {
            Some(a) => (
                Some(BurstSampler::new(
                    a.burst_len,
                    a.knee.max_size,
                    a.hibernation,
                )),
                a.record_stream.then(Vec::new),
            ),
            None => (None, None),
        };
        Shard {
            rt,
            buckets: cfg.buckets,
            head,
            bucket_base,
            committed,
            index: HashMap::new(),
            ops: 0,
            epoch: 0,
            sampler,
            adapt: cfg.adapt.clone(),
            pending_mrc: None,
            chosen: Vec::new(),
            stream,
            plan: PutPlan::default(),
            slot_buf: Vec::new(),
        }
    }

    fn bucket_off(&self, key: u64) -> usize {
        self.bucket_base + (bucket_hash(key) as usize % self.buckets) * 8
    }

    /// Feed one persistent store into the controller's sampler (and the
    /// recorded stream), FASE-renamed exactly like the in-policy path.
    fn observe(&mut self, offset: usize, len: usize) {
        if self.sampler.is_none() && self.stream.is_none() {
            return;
        }
        for line in PmemRegion::lines_of(offset, len) {
            let renamed = rename_for_epoch(self.epoch, line);
            if let Some(s) = &mut self.stream {
                s.push(renamed);
            }
            if let Some(sam) = &mut self.sampler {
                if let Some(mrc) = sam.push(renamed) {
                    self.pending_mrc = Some(mrc);
                }
            }
        }
    }

    /// End-of-op bookkeeping: bump the renaming epoch and, if a burst
    /// just completed, pick the knee and resize the live cache. The
    /// resize happens *between* FASEs — the shard never stops serving.
    fn after_op(&mut self) {
        self.ops += 1;
        self.epoch += 1;
        if let Some(mrc) = self.pending_mrc.take() {
            let knee_cfg = &self.adapt.as_ref().expect("mrc implies adapt").knee;
            let knee = select_cache_size(&mrc, knee_cfg);
            // +1 safety entry, same rationale as AdaptiveScPolicy: the
            // timescale curve can put a sharp cliff one size early.
            let capacity = (knee + 1).min(knee_cfg.max_size);
            if self.rt.apply_capacity(knee, capacity) {
                self.chosen.push(CapacityChoice {
                    op: self.ops,
                    knee,
                    capacity,
                });
            }
        }
    }

    /// `key`'s index entry: one probe, no chain walk.
    fn locate(&self, key: u64) -> Option<Entry> {
        self.index.get(&key).copied()
    }

    /// The word that links `node` into `key`'s chain — its bucket head
    /// or its predecessor's `next` field. Only unlinking a node needs
    /// it, so this is the one chain walk left on the serving path.
    fn link_of(&mut self, key: u64, node: usize) -> usize {
        let mut link = self.bucket_off(key);
        loop {
            let p = self.rt.load_u64(link) as usize;
            if p == node {
                return link;
            }
            assert!(p != 0, "indexed node {node:#x} is not on its chain");
            link = p + 8;
        }
    }

    /// A copy of the value in the slot an index entry names.
    fn value_at(&mut self, entry: Entry) -> Vec<u8> {
        let mut v = vec![0u8; entry.vlen()];
        self.rt.load(entry.slot_off() + SLOT_HEADER, &mut v);
        v
    }

    /// Look up `key`.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        let entry = self.locate(key)?;
        Some(self.value_at(entry))
    }

    /// Insert or update `key → value` in one FASE. Returns `false` if
    /// the heap is exhausted or the value exceeds [`MAX_VALUE_LEN`] —
    /// the map is unchanged in that case.
    pub fn put(&mut self, key: u64, value: &[u8]) -> bool {
        if value.len() > MAX_VALUE_LEN {
            return false;
        }
        // a fresh key, or an update at the key's length, is a group of one
        let Some(old) = self.locate(key).filter(|old| old.vlen() != value.len()) else {
            return self.put_many(&[(key, value)]);
        };
        // A value of another length needs another node, which takes the
        // old one's place in the chain: the key is reachable with one
        // value or the other at every crash point, never absent.
        let Some(new) = self.rt.alloc(node_size(value.len())) else {
            return false;
        };
        let (new, node) = (new as usize, old.node());
        let (link, next) = (self.link_of(key, node), self.rt.load_u64(node + 8));
        self.rt.begin_fase();
        self.write_fresh_node(new, key, next, self.committed, value);
        self.rt.store_u64(link, new as u64);
        self.observe(link, 8);
        self.rt.end_fase();
        self.index.insert(key, Entry::new(new, 0, value.len()));
        self.rt.free(node as u64, node_size(old.vlen()));
        self.after_op();
        true
    }

    /// Write `value` into the slot an index entry names, stamped
    /// `stamp`: header and value as one unlogged store, since no
    /// committed state reads the slot until the FASE commits.
    fn write_slot(&mut self, entry: Entry, stamp: u64, value: &[u8]) {
        let at = entry.slot_off();
        self.slot_buf.clear();
        self.slot_buf
            .extend_from_slice(&slot_header(stamp, value.len()).to_le_bytes());
        self.slot_buf.extend_from_slice(value);
        self.rt.store_fresh(at, &self.slot_buf);
        self.observe(at, self.slot_buf.len());
    }

    /// Fill a freshly allocated node as one unlogged store — key, next,
    /// slot 0 stamped `stamp`, slot 1's header void: it is shadow memory
    /// until the caller's logged link store publishes it.
    fn write_fresh_node(&mut self, node: usize, key: u64, next: u64, stamp: u64, value: &[u8]) {
        self.slot_buf.clear();
        for word in [key, next, slot_header(stamp, value.len())] {
            self.slot_buf.extend_from_slice(&word.to_le_bytes());
        }
        self.slot_buf.extend_from_slice(value);
        self.slot_buf
            .extend_from_slice(&slot_header(0, value.len()).to_le_bytes());
        self.rt.store_fresh(node, &self.slot_buf);
        self.observe(node, self.slot_buf.len());
    }

    /// Apply a whole batch of writes as **one FASE** (group commit):
    /// every item either writes an existing node's other slot or splices
    /// a fresh node, and the batch commits or rolls back atomically — by
    /// its published epoch word alone when it only updates, through the
    /// undo log when it inserts (module doc). This
    /// is the serving configuration that actually gives the software
    /// cache something to do — per-op FASEs of one or two lines carry no
    /// intra-FASE reuse (FASE renaming hides reuse across commits, by
    /// design), while a transaction over a skewed key set revisits its
    /// hot lines before the commit flush.
    ///
    /// Repeated keys in `items` are written repeatedly (that reuse is
    /// the point); all writes to one key in a batch must keep its value
    /// length. Returns `false` — with the map unchanged — when any
    /// value is oversized, changes an existing length, allocation
    /// fails, or the bucket heads its inserts swing do not fit in the
    /// undo log (planned nodes are given back to the free list).
    pub fn put_many<V: AsRef<[u8]>>(&mut self, items: &[(u64, V)]) -> bool {
        if items.is_empty() {
            return true;
        }
        let mut plan = std::mem::take(&mut self.plan);
        let ok = self.put_many_with(items, &mut plan);
        self.plan = plan;
        ok
    }

    fn put_many_with<V: AsRef<[u8]>>(&mut self, items: &[(u64, V)], plan: &mut PutPlan) -> bool {
        // plan outside the FASE: locate nodes, allocate fresh ones, and
        // thread chain heads for multiple inserts into one bucket
        plan.clear();
        let mut ok = true;
        let mut updates = false;
        for (i, (key, value)) in items.iter().enumerate() {
            let vlen = value.as_ref().len();
            if vlen > MAX_VALUE_LEN {
                ok = false;
                break;
            }
            // an indexed key writes its node's other slot, the same one
            // each time the batch repeats it
            let known = match self.locate(*key) {
                Some(entry) => {
                    updates = true;
                    Some(entry.other())
                }
                None => plan.fresh.get(key).copied(),
            };
            match known {
                Some(slot) => {
                    if slot.vlen() != vlen {
                        ok = false; // batches are fixed-length per key
                        break;
                    }
                    plan.ops.push((PlannedOp::Write(slot), i));
                }
                None => {
                    let boff = self.bucket_off(*key);
                    let Some(new) = self.rt.alloc(node_size(vlen)) else {
                        ok = false;
                        break;
                    };
                    plan.new_allocs.push((new, node_size(vlen)));
                    let head = plan
                        .heads
                        .insert(boff, new)
                        .unwrap_or_else(|| self.rt.load_u64(boff));
                    plan.fresh.insert(*key, Entry::new(new as usize, 0, vlen));
                    plan.ops.push((
                        PlannedOp::Insert {
                            node: new as usize,
                            boff,
                            key: *key,
                            head,
                        },
                        i,
                    ));
                }
            }
        }
        if ok {
            self.rt.begin_fase();
            // Grouped prelog of what the batch logs: the bucket heads its
            // inserts swing, and the epoch word if it also updates, with
            // one log fence. Slots and fresh nodes are shadow memory. A
            // shared bucket head names its range again and the log keeps
            // one record. A batch that only updates logs nothing.
            for &(op, _) in &plan.ops {
                if let PlannedOp::Insert { boff, .. } = op {
                    plan.ranges.push((boff as u64, 8));
                }
            }
            if !plan.ranges.is_empty() {
                if updates {
                    plan.ranges.push(((self.head + EPOCH_WORD) as u64, 8));
                }
                if self.rt.prelog(&plan.ranges).is_err() {
                    // refused before anything was logged or stored
                    self.rt.end_fase();
                    ok = false;
                }
            }
        }
        if !ok {
            for &(off, size) in &plan.new_allocs {
                self.rt.free(off, size);
            }
            return false;
        }
        // every slot the batch writes carries the epoch it commits under:
        // one above the epoch word if it updates
        let stamp = self.committed + u64::from(updates);
        assert!(stamp <= EPOCH_LIMIT, "2⁵² − 1 updates stamped");
        for &(op, i) in &plan.ops {
            let value = items[i].1.as_ref();
            match op {
                PlannedOp::Write(slot) => self.write_slot(slot, stamp, value),
                PlannedOp::Insert {
                    node,
                    boff,
                    key,
                    head,
                } => {
                    self.write_fresh_node(node, key, head, stamp, value);
                    self.rt.store_u64(boff, node as u64);
                    self.observe(boff, 8);
                }
            }
        }
        if updates {
            self.rt
                .publish(self.head + EPOCH_WORD, &stamp.to_le_bytes());
        }
        self.rt.end_fase();
        self.committed = stamp;
        for &(op, i) in &plan.ops {
            let entry = match op {
                PlannedOp::Write(slot) => slot,
                PlannedOp::Insert { node, .. } => Entry::new(node, 0, items[i].1.as_ref().len()),
            };
            self.index.insert(items[i].0, entry);
        }
        self.after_op();
        true
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
    /// Deletes split the batch into segments (unlinking inside a grouped
    /// write set would need ordering the group can't express); each
    /// segment commits before the delete runs. When a segment's group is
    /// rejected (oversized value, length-changing update, heap
    /// exhaustion), the segment — whose group left no trace — is
    /// replayed with per-request ops, so per-request failure is precise
    /// and the surviving requests still land.
    ///
    /// Crash contract: replies must only be released to clients after
    /// this returns. Every state the region can expose after a crash
    /// mid-batch is then a committed *prefix* of the batch's segment
    /// FASEs — an acknowledged request is durable, an unacknowledged one
    /// rolls back whole, never torn.
    pub fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply> {
        let mut replies: Vec<BatchReply> = Vec::with_capacity(reqs.len());
        // current segment: grouped writes + the request span they cover
        // (values stay where the requests hold them)
        let mut group: Vec<(u64, &[u8])> = Vec::new();
        let mut overlay: FxHashMap<u64, usize> = FxHashMap::default();
        let mut seg_start = 0usize;

        // Commit the pending segment group; on rejection, replay the
        // segment's requests individually (recomputing its replies).
        fn close_segment(
            shard: &mut Shard,
            reqs: &[BatchRequest],
            replies: &mut Vec<BatchReply>,
            group: &mut Vec<(u64, &[u8])>,
            overlay: &mut FxHashMap<u64, usize>,
            seg_start: usize,
            seg_end: usize,
        ) {
            if !group.is_empty() && !shard.put_many(group) {
                // the grouped commit left no trace: replay this segment
                // sequentially for exact per-request outcomes
                replies.truncate(seg_start);
                for req in &reqs[seg_start..seg_end] {
                    replies.push(match req {
                        BatchRequest::Get(k) => BatchReply::Value(shard.get(*k)),
                        BatchRequest::Put(k, v) => BatchReply::Done(shard.put(*k, v)),
                        BatchRequest::PutMany(items) => BatchReply::Done(shard.put_many(items)),
                        BatchRequest::Delete(_) | BatchRequest::Scan(..) => {
                            unreachable!("barriers end segments")
                        }
                    });
                }
            }
            group.clear();
            overlay.clear();
        }

        for (i, req) in reqs.iter().enumerate() {
            match req {
                BatchRequest::Get(k) => {
                    let value = match overlay.get(k) {
                        Some(&gi) => Some(group[gi].1.to_vec()),
                        None => self.get(*k),
                    };
                    replies.push(BatchReply::Value(value));
                }
                BatchRequest::Put(k, v) => {
                    overlay.insert(*k, group.len());
                    group.push((*k, v));
                    replies.push(BatchReply::Done(true));
                }
                BatchRequest::PutMany(items) => {
                    // overlay points at each key's *last* write in the
                    // group (later inserts overwrite earlier ones)
                    for (j, (k, _)) in items.iter().enumerate() {
                        overlay.insert(*k, group.len() + j);
                    }
                    group.extend(items.iter().map(|(k, v)| (*k, &v[..])));
                    replies.push(BatchReply::Done(true));
                }
                BatchRequest::Delete(k) => {
                    close_segment(
                        self,
                        reqs,
                        &mut replies,
                        &mut group,
                        &mut overlay,
                        seg_start,
                        i,
                    );
                    replies.push(BatchReply::Done(self.delete(*k)));
                    seg_start = i + 1;
                }
                BatchRequest::Scan(lo, hi, limit) => {
                    close_segment(
                        self,
                        reqs,
                        &mut replies,
                        &mut group,
                        &mut overlay,
                        seg_start,
                        i,
                    );
                    replies.push(BatchReply::Entries(self.scan(*lo, *hi, *limit as usize)));
                    seg_start = i + 1;
                }
            }
        }
        close_segment(
            self,
            reqs,
            &mut replies,
            &mut group,
            &mut overlay,
            seg_start,
            reqs.len(),
        );
        replies
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
            out.push((key, self.value_at(entry)));
        }
        out
    }

    /// Recover the shard after a panic unwound through one of its
    /// operations (see [`FaseRuntime::heal_after_panic`]): the abandoned
    /// FASE rolls back, volatile runtime residue is dropped, and the
    /// index is rebuilt from the region. Returns whether anything was
    /// healed.
    pub fn heal_after_panic(&mut self) -> bool {
        let healed = self.rt.heal_after_panic();
        if healed {
            self.pending_mrc = None;
            self.rebuild_volatile().expect(OWN_REGION);
        }
        healed
    }

    /// Remove `key` (one FASE when present). Returns whether it existed.
    pub fn delete(&mut self, key: u64) -> bool {
        let Some(entry) = self.locate(key) else {
            return false;
        };
        let node = entry.node();
        let link = self.link_of(key, node);
        let next = self.rt.load_u64(node + 8);
        self.rt.begin_fase();
        self.rt.store_u64(link, next);
        self.observe(link, 8);
        self.rt.end_fase();
        self.index.remove(&key);
        self.rt.free(node as u64, node_size(entry.vlen()));
        self.after_op();
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

    /// Operations served so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Every `(key, value)` pair, sorted by key. A full bucket walk
    /// that never consults the index: this is what recovery
    /// verification compares, so it reads what is persistent.
    pub fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.len());
        for b in 0..self.buckets {
            let mut p = self.rt.load_u64(self.bucket_base + b * 8) as usize;
            while p != 0 {
                let key = self.rt.load_u64(p);
                let slots = read_slots(&mut self.rt, p, self.committed).expect(OWN_REGION);
                out.push((key, self.value_at(slots.entry)));
                p = self.rt.load_u64(p + 8) as usize;
            }
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Rebuild the index from the region — the one bucket walk that
    /// reopening, an injected crash and a healed panic share — then void
    /// the slots a rolled-back update stamped above the epoch word. The
    /// region may be a foreign image, so a link is checked before it is
    /// followed, and since every step enters a key the index did not
    /// hold, the walk ends within the number of nodes the data area has
    /// room for — a cycle is a node met twice. Only then are the nodes'
    /// slots read: overlapping nodes are a walk the bound must end.
    fn rebuild_volatile(&mut self) -> Result<(), ShardImageError> {
        let data_len = self.rt.data_len();
        self.committed = self.rt.load_u64(self.head + EPOCH_WORD);
        self.index.clear();
        for bucket in 0..self.buckets {
            let boff = self.bucket_base + bucket * 8;
            let mut link = self.rt.load_u64(boff);
            while link != 0 {
                let bad = |why| ShardImageError::BadChain { bucket, link, why };
                if !link.is_multiple_of(8) {
                    return Err(bad("misaligned link"));
                }
                if link > (data_len - MIN_NODE) as u64 {
                    return Err(bad("link outside the data area"));
                }
                let node = link as usize;
                let key = self.rt.load_u64(node);
                if self.bucket_off(key) != boff {
                    return Err(bad("key in another bucket's chain"));
                }
                // the node alone until its slots are read, below
                match self.index.insert(key, Entry::new(node, 0, 0)) {
                    None => {}
                    Some(first) if first.node() == node => return Err(bad("node linked twice")),
                    Some(_) => return Err(bad("key in two nodes")),
                }
                if self.index.len() > data_len / MIN_NODE {
                    return Err(bad("more nodes than the data area holds"));
                }
                link = self.rt.load_u64(node + 8);
            }
        }
        let mut stale = Vec::new();
        for (&key, entry) in &mut self.index {
            let node = entry.node();
            let slots = read_slots(&mut self.rt, node, self.committed).map_err(|why| {
                let bucket = bucket_hash(key) as usize % self.buckets;
                ShardImageError::BadChain {
                    bucket,
                    link: node as u64,
                    why,
                }
            })?;
            *entry = slots.entry;
            let vlen = entry.vlen();
            stale.extend(slots.above.into_iter().flatten().map(|at| (at, vlen)));
        }
        // The void pass: stamp 0 on what nothing committed reads, so the
        // stores need no undo record, in a FASE that publishes nothing —
        // a crash inside it leaves slots the next rebuild voids again.
        if !stale.is_empty() {
            stale.sort_unstable(); // the index's order is per process
            self.rt.begin_fase();
            for &(at, vlen) in &stale {
                self.rt.store_fresh(at, &slot_header(0, vlen).to_le_bytes());
            }
            self.rt.end_fase();
        }
        Ok(())
    }

    // ----- adaptation introspection --------------------------------------

    /// Capacity decisions the live controller has made, in order.
    pub fn chosen(&self) -> &[CapacityChoice] {
        &self.chosen
    }

    /// Current software-cache capacity (`None` for non-SC policies).
    pub fn sc_capacity(&self) -> Option<usize> {
        self.rt.sc_capacity()
    }

    /// The recorded FASE-renamed store-line stream, when
    /// [`AdaptConfig::record_stream`] was set.
    pub fn stream(&self) -> Option<&[u64]> {
        self.stream.as_deref()
    }

    /// Restart adaptation measurement: discard the sampler's partial
    /// burst, the recorded stream, any not-yet-applied MRC, and the
    /// decision history, so the next burst begins at the next store.
    /// The serving layer calls this after a bulk-load phase so capacity
    /// decisions (and [`Shard::chosen`]) reflect the *serving* write
    /// stream, not the loader's.
    pub fn reset_sampler(&mut self) {
        if let Some(a) = &self.adapt {
            self.sampler = Some(BurstSampler::new(
                a.burst_len,
                a.knee.max_size,
                a.hibernation,
            ));
            self.pending_mrc = None;
            self.chosen.clear();
            if let Some(s) = &mut self.stream {
                s.clear();
            }
        }
    }

    // ----- stats / crash plumbing ----------------------------------------

    /// Cumulative runtime counters.
    pub fn stats(&self) -> FaseStats {
        self.rt.stats()
    }

    /// Counters since the last call (per-window flush ratios).
    pub fn take_stats(&mut self) -> FaseStats {
        self.rt.take_stats()
    }

    /// The underlying runtime (telemetry, tracing, verification).
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.rt
    }

    /// Persistence micro-steps executed (crash-point index space).
    pub fn steps(&self) -> u64 {
        self.rt.steps()
    }

    /// Arm a crash plan on the shard's region (see
    /// [`FaseRuntime::arm_crash`]).
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.rt.arm_crash(plan);
    }

    /// The crash image captured by an armed plan, if reached.
    pub fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        self.rt.take_crash_image()
    }

    /// Inject a power failure in-process and recover; the index is
    /// rebuilt from the recovered region.
    ///
    /// # Panics
    /// When the recovered chains are unsound, which takes a policy that
    /// is not crash-consistent (`Best`) under an adversary that tears.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) {
        self.rt.crash_and_recover(mode);
        self.pending_mrc = None;
        self.rebuild_volatile().expect(OWN_REGION);
    }

    /// Persist everything still buffered (clean shutdown).
    pub fn sync(&mut self) {
        self.rt.sync();
    }
}

#[cfg(test)]
impl Shard {
    /// The index is the chains: every node reachable from a bucket, with
    /// its committed slot, is the index's entry for its key, and nothing
    /// else is indexed (so a key in two nodes, a stale entry or slot and
    /// a missing one all fail).
    fn index_matches_chains(&mut self) -> Result<(), String> {
        let mut reached = 0;
        for b in 0..self.buckets {
            let mut p = self.rt.load_u64(self.bucket_base + b * 8) as usize;
            while p != 0 {
                let key = self.rt.load_u64(p);
                let slots = read_slots(&mut self.rt, p, self.committed)
                    .map_err(|why| format!("key {key}: node {p:#x}: {why}"))?;
                let entry = slots.entry;
                if self.index.get(&key) != Some(&entry) {
                    let at = self.index.get(&key);
                    return Err(format!(
                        "key {key}: {entry:x?} on its chain, {at:x?} indexed"
                    ));
                }
                reached += 1;
                p = self.rt.load_u64(p + 8) as usize;
            }
        }
        if reached != self.len() {
            return Err(format!("{reached} nodes reachable, {} indexed", self.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_fase::LogStats;
    use nvcache_pmem::PAlloc;

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
        // size-changing update replaces the node
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
        // its replacement (another length, so another node) does not fit
        assert!(!s.put(1, &[2u8; 200]));
        assert_eq!(s.get(1).as_deref(), Some(&[0u8; 100][..]));
        assert_eq!(s.len() as u64, inserted);
        // deleting frees a node the next put can reuse
        assert!(s.delete(0));
        assert!(s.put(99_999, &[1u8; 100]), "free list satisfies the put");
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
        s.index_matches_chains().unwrap();
        for k in 0..20u64 {
            let kept = s.dump().into_iter().find(|&(key, _)| key == k);
            assert_eq!(s.get(k), kept.map(|(_, v)| v), "key {k}");
        }
    }

    /// A freed node is the heap's, durably: on a full heap, the nodes
    /// that deleting half the keys gave back are still free after a
    /// power failure, and as many fresh keys fit again.
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
        let fases_before = s.stats().fases;
        // one batch: two slot updates (one key twice — last wins),
        // two fresh inserts (one bucket-colliding pair is fine)
        let batch: Vec<(u64, Vec<u8>)> = vec![
            (1, b"one-new".to_vec()),
            (10, b"ten".to_vec()),
            (1, b"one-fin".to_vec()),
            (11, b"eleven".to_vec()),
            (10, b"TEN".to_vec()), // insert then update, same batch
        ];
        assert!(s.put_many(&batch));
        assert_eq!(s.stats().fases, fases_before + 1, "whole batch is one FASE");
        assert_eq!(s.get(1).as_deref(), Some(&b"one-fin"[..]));
        assert_eq!(s.get(2).as_deref(), Some(&b"two-old"[..]));
        assert_eq!(s.get(10).as_deref(), Some(&b"TEN"[..]));
        assert_eq!(s.get(11).as_deref(), Some(&b"eleven"[..]));
        assert_eq!(s.len(), 4);
        // the committed batch survives a crash in one piece
        let expect = s.dump();
        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(s.dump(), expect);
    }

    #[test]
    fn put_many_rejects_without_side_effects() {
        let mut s = Shard::new(&small(PolicyKind::Lazy));
        assert!(s.put(5, b"12345"));
        let before = s.dump();
        // length change for an existing key aborts the whole batch…
        assert!(!s.put_many(&[(9, b"nine".to_vec()), (5, b"much-longer".to_vec())]));
        // …as does an oversized value
        assert!(!s.put_many(&[(7, vec![0u8; MAX_VALUE_LEN + 1])]));
        assert_eq!(s.dump(), before, "aborted batches leave no trace");
        // aborted planned allocations went back to the free list: the
        // same insert succeeds afterwards
        assert!(s.put_many(&[(9, b"nine".to_vec())]));
        assert_eq!(s.get(9).as_deref(), Some(&b"nine"[..]));
    }

    #[test]
    fn live_adaptation_resizes_while_serving() {
        let cfg = ShardConfig {
            policy: PolicyKind::ScAdaptive(nvcache_core::AdaptiveConfig {
                external_control: true,
                ..Default::default()
            }),
            adapt: Some(AdaptConfig {
                burst_len: 2000,
                record_stream: true,
                ..Default::default()
            }),
            ..small(PolicyKind::Best)
        };
        let mut s = Shard::new(&cfg);
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
            assert!(s.ops() < 50_000, "controller never fired");
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
        assert!(s.stream().unwrap().len() >= 2000);
    }

    #[test]
    fn serve_batch_groups_writes_into_one_fase() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        assert!(s.put(1, b"one"));
        let fases = s.stats().fases;
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
            s.stats().fases,
            fases + 1,
            "three writes from the batch formed one group-commit FASE"
        );
        assert_eq!(s.get(10).as_deref(), Some(&b"TEN"[..]));
        assert_eq!(s.get(11).as_deref(), Some(&b"eleven"[..]));
    }

    #[test]
    fn serve_batch_delete_barrier_splits_segments() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        let fases = s.stats().fases;
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
        assert_eq!(s.stats().fases, fases + 3);
        assert_eq!(s.len(), 2);
    }

    /// A segment whose grouped commit is rejected (here: a
    /// length-changing update, which `put_many` refuses) replays
    /// per-request: the length change succeeds through the replace
    /// path, neighbours still land, replies are exact.
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

    /// A crash mid-batch rolls the whole group back: the prelogged
    /// bucket heads and epoch word keep the all-or-nothing FASE
    /// contract.
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
            s.sync();
            // updates + fresh inserts in one batch, crashed mid-FASE
            let batch: Vec<(u64, Vec<u8>)> = (8..32u64).map(|i| (i, vec![2u8; 16])).collect();
            let step = s.steps() + 40;
            s.arm_crash(CrashPlan {
                at_step: step,
                mode: mode.clone(),
            });
            assert!(s.put_many(&batch));
            let image = s.take_crash_image().expect("plan must have fired");
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

    /// An update-only group and a same-length `put` write no undo
    /// record: each commits by its published epoch word with two fences,
    /// and every flush is a data line through the ring — one per
    /// updated slot, one for the epoch word.
    #[test]
    fn an_update_commits_by_its_epoch_word_alone() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        let group = |tag| (0..32u64).map(|k| (k, vec![tag; 40])).collect::<Vec<_>>();
        assert!(s.put_many(&group(1)));
        type Update = Box<dyn Fn(&mut Shard) -> bool>;
        let updates: [(&str, Update, u64); 2] = [
            ("put_many", Box::new(move |s| s.put_many(&group(2))), 32),
            ("put", Box::new(|s| s.put(7, &[3; 40])), 1),
        ];
        for (what, update, slots) in updates {
            let (log, pmem) = (s.rt.log_stats(), s.rt.region().stats());
            let (ring, fase) = (s.rt.ring_stats(), s.rt.stats());
            assert!(update(&mut s));
            let one_more_commit = LogStats {
                commits: log.commits + 1,
                ..log
            };
            assert_eq!(s.rt.log_stats(), one_more_commit, "{what}: a record");
            let (p, r, f) = (s.rt.region().stats(), s.rt.ring_stats(), s.rt.stats());
            assert_eq!(p.fences - pmem.fences, 2, "{what}: data fence, epoch fence");
            assert_eq!(f.data_flushes - fase.data_flushes, slots + 1, "{what}");
            assert_eq!(r.flushed - ring.flushed, slots + 1, "{what}");
            assert_eq!(
                p.flushes - pmem.flushes,
                slots + 1,
                "{what}: a flush off the ring"
            );
        }
        assert_eq!(s.get(7).as_deref(), Some(&[3u8; 40][..]));
        assert_eq!(s.get(8).as_deref(), Some(&[2u8; 40][..]));
    }

    /// A power failure between an update group's slot writes and its
    /// epoch word, at every micro-step and under every adversary: the
    /// image reopens to the old values; reopening what that recovery
    /// left changes no byte of the data area; and the next update, which
    /// publishes the very epoch the dead group stamped its slots with,
    /// does not bring them back.
    #[test]
    fn a_crashed_update_stays_dead() {
        let cfg = small(PolicyKind::ScFixed { capacity: 4 });
        let data = cfg.data_len;
        let old: Vec<(u64, Vec<u8>)> = (0..13u64).map(|k| (k, vec![1u8; 40])).collect();
        let dead: Vec<(u64, Vec<u8>)> = (0..12u64).map(|k| (k, vec![2u8; 40])).collect();
        let loaded = || {
            let mut s = Shard::new(&cfg);
            assert!(s.put_many(&old));
            s
        };
        let mut probe = loaded();
        let start = probe.steps();
        assert!(probe.put_many(&dead));
        // the epoch word's write, flush and fence end the FASE
        let publish = probe.steps() - 3;
        let mut after = old.clone();
        after[12].1 = vec![3u8; 40];
        let mut voided = 0;
        for k in start..=publish {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, k),
            ] {
                let ctx = format!("{mode:?} crash at step {k}");
                let mut s = loaded();
                s.arm_crash(CrashPlan { at_step: k, mode });
                assert!(s.put_many(&dead));
                let image = s.take_crash_image().expect("the cut falls in the group");
                let mut r = Shard::reopen_from_image(image.clone(), &cfg).expect(&ctx);
                assert_eq!(r.dump(), old, "{ctx}: the group is visible");
                let recovered = r.rt.region().durable_image().to_vec();
                voided += usize::from(recovered[..data] != image[..data]);
                let mut again = Shard::reopen_from_image(recovered.clone(), &cfg).expect(&ctx);
                let twice = again.rt.region().durable_image();
                assert!(twice[..data] == recovered[..data], "{ctx}: voided twice");
                assert_eq!(again.dump(), old, "{ctx}");
                assert!(r.put(12, &[3; 40]), "{ctx}: the dead group's epoch");
                assert_eq!(r.dump(), after, "{ctx}: the group came back");
                r.crash_and_recover(&CrashMode::StrictDurableOnly);
                assert_eq!(r.dump(), after, "{ctx}: the group came back");
            }
        }
        assert!(voided > 0, "no cut left a slot to void");
    }

    /// A batch whose inserts swing more bucket heads than the undo log
    /// holds records for is refused whole — sized before anything is
    /// logged, never a panic inside an open FASE — and `serve_batch`
    /// falls back to per-request FASEs. Updates log nothing, so no
    /// number of them is refused.
    #[test]
    fn oversized_write_set_is_refused_not_a_panic() {
        // 448 bytes of records: a group of at most 27 bucket heads
        let cfg = ShardConfig {
            log_len: 512,
            ..small(PolicyKind::ScFixed { capacity: 4 })
        };
        let mut s = Shard::new(&cfg);
        let load: Vec<(u64, Vec<u8>)> = (0..1000u64).map(|k| (k, vec![1u8; 40])).collect();
        for chunk in load.chunks(25) {
            assert!(s.put_many(chunk), "25 inserts log at most 25 bucket heads");
        }
        let big: Vec<(u64, Vec<u8>)> = (0..1000u64).map(|k| (k, vec![2u8; 40])).collect();
        let logged = s.rt.log_stats().entries;
        assert!(s.put_many(&big), "1000 updates log nothing");
        assert_eq!(s.rt.log_stats().entries, logged);
        let before = s.dump();
        // 100 fresh keys over 64 buckets, alone or after the updates:
        // their planned nodes go back to the heap, so the same keys put
        // again carve no fresh block
        let fresh: Vec<(u64, Vec<u8>)> = (5000..5100u64).map(|k| (k, vec![3u8; 40])).collect();
        let mut mixed = big.clone();
        mixed.extend(fresh.iter().cloned());
        let bump = |s: &Shard| {
            let region = s.rt.region();
            PAlloc::open(region).expect("heap").bump_remaining(region)
        };
        assert!(!s.put_many(&fresh), "more bucket heads than records");
        assert!(!s.put_many(&mixed));
        assert_eq!(s.dump(), before, "map unchanged");
        assert_eq!(s.len(), 1000);
        let carved = bump(&s);
        assert!(s.put_many(&fresh[..20]));
        assert_eq!(bump(&s), carved, "freed nodes were reused");
        // the shard still serves, and a batch that fits commits
        assert!(s.put_many(&load[..32]));
        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(s.get(7).as_deref(), Some(&[1u8; 40][..]));
        assert_eq!(s.get(32).as_deref(), Some(&[2u8; 40][..]));
        assert_eq!(s.get(5000).as_deref(), Some(&[3u8; 40][..]));
        // through the lane, every request of the refused group gets a
        // definite answer from its own FASE
        let reqs: Vec<BatchRequest> = fresh[20..]
            .iter()
            .map(|(k, v)| BatchRequest::Put(*k, v.clone()))
            .collect();
        let replies = s.serve_batch(&reqs);
        assert!(replies.iter().all(|r| *r == BatchReply::Done(true)));
        assert_eq!(s.get(5099).as_deref(), Some(&[3u8; 40][..]));
        assert_eq!(s.len(), 1100);
    }

    /// Regression: a default-config shard used to log `put_many` store
    /// by store, so a write set too large for the undo log hit `panic!`
    /// in the middle of an open FASE. Every shard prelogs a group's
    /// bucket heads now, and a group with more than the log holds is
    /// refused whole; its 1000-byte updates log nothing at all.
    #[test]
    fn a_default_shard_refuses_an_oversized_group_instead_of_panicking() {
        let cfg = ShardConfig {
            log_len: 4096,
            ..Default::default()
        };
        let mut s = Shard::new(&cfg);
        // the set-up FASE writes zeros onto a fresh heap: nothing to log
        assert_eq!(s.rt.log_stats().entries, 0);
        for k in 0..5u64 {
            assert!(s.put(k, &[1u8; 1000]));
        }
        let big: Vec<(u64, Vec<u8>)> = (0..5u64).map(|k| (k, vec![2u8; 1000])).collect();
        assert!(s.put_many(&big), "5 KB of updates, 4 KiB of log");
        let before = s.dump();
        // 2000 fresh keys swing (nearly) all 256 bucket heads: past 251
        // records of 16 bytes, a group outgrows 4 032 bytes of log
        let fresh: Vec<(u64, Vec<u8>)> = (100..2100u64).map(|k| (k, vec![3u8; 8])).collect();
        assert!(!s.put_many(&fresh));
        assert_eq!(s.dump(), before, "map unchanged");
        // no FASE was left open: the shard keeps serving
        assert!(s.put_many(&fresh[..100]));
        assert!(s.put(7, b"after"));
        s.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(s.get(0).as_deref(), Some(&[2u8; 1000][..]));
        assert_eq!(s.get(199).as_deref(), Some(&[3u8; 8][..]));
        assert_eq!(s.get(7).as_deref(), Some(&b"after"[..]));
        assert_eq!(s.len(), 106);
    }

    // ----- hostile images ------------------------------------------------

    /// A sound two-bucket image holding keys `0..8`, with the offsets of
    /// two nodes that share a chain (`a` links to `b`).
    fn sound_image(cfg: &ShardConfig) -> (Vec<u8>, usize, usize) {
        let mut s = Shard::new(cfg);
        for k in 0..8u64 {
            assert!(s.put(k, &[k as u8; 16]));
        }
        s.sync();
        let mut nodes = s.index.values().map(|entry| entry.node());
        let a = nodes
            .find(|&node| s.rt.load_u64(node + 8) != 0)
            .expect("eight keys in two buckets: some node links to another");
        let b = s.rt.load_u64(a + 8) as usize;
        (s.rt.region().durable_image().to_vec(), a, b)
    }

    fn patched(image: &[u8], at: usize, word: u64) -> Vec<u8> {
        let mut image = image.to_vec();
        image[at..at + 8].copy_from_slice(&word.to_le_bytes());
        image
    }

    fn word_at(image: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
    }

    /// Every way a chain or a node can lie ends in a typed error — no
    /// walk past the data area, no spin on a cycle — and names the
    /// broken rule.
    #[test]
    fn reopen_rejects_hostile_chains_with_a_typed_error() {
        let cfg = ShardConfig {
            buckets: 2,
            ..small(PolicyKind::ScFixed { capacity: 8 })
        };
        let (sound, a, b) = sound_image(&cfg);
        let data_len = cfg.data_len;
        let mut back = Shard::reopen_from_image(sound.clone(), &cfg).expect("sound image");
        assert_eq!(back.len(), 8);
        back.index_matches_chains().unwrap();
        // a key that hashes to the other bucket of the two, and one
        // that is absent but would belong on `a`'s chain
        let key_a = word_at(&sound, a);
        let stranger = (100..)
            .find(|&k| back.bucket_off(k) != back.bucket_off(key_a))
            .unwrap();
        let kin = (100..)
            .find(|&k| back.bucket_off(k) == back.bucket_off(key_a))
            .unwrap();
        // `a`'s slot headers (its values are 16 bytes long), and a node
        // in the data area's last line
        let (next, first, second) = (a + 8, a + 16, a + 40);
        let epoch = back.committed;
        let last = data_len - 64;
        let at_the_end = patched(&patched(&sound, next, last as u64), last, kin);
        let cases: [(&str, Vec<u8>, &str); 13] = [
            (
                "self-cycle",
                patched(&sound, next, a as u64),
                "node linked twice",
            ),
            (
                "two-node cycle",
                patched(&sound, b + 8, a as u64),
                "node linked twice",
            ),
            (
                "link into the log area",
                patched(&sound, next, data_len as u64 + 64),
                "link outside the data area",
            ),
            (
                "link past the image",
                patched(&sound, next, sound.len() as u64 + 8),
                "link outside the data area",
            ),
            (
                "no room for two slot headers",
                patched(&sound, next, data_len as u64 - 24),
                "link outside the data area",
            ),
            (
                "misaligned link",
                patched(&sound, next, b as u64 + 4),
                "misaligned link",
            ),
            (
                "values of 232 bytes in the last 64",
                patched(&at_the_end, last + 16, slot_header(1, 100)),
                "value runs off the data area",
            ),
            (
                "a value no node holds",
                patched(&sound, first, slot_header(1, MAX_VALUE_LEN + 1)),
                "value longer than a node holds",
            ),
            (
                "slot lengths that differ",
                patched(&sound, second, slot_header(0, 17)),
                "slots disagree on the value length",
            ),
            (
                "both slots above the epoch",
                patched(
                    &patched(&sound, first, slot_header(epoch + 1, 16)),
                    second,
                    slot_header(epoch + 2, 16),
                ),
                "no committed slot",
            ),
            (
                "both slots void",
                patched(&sound, first, slot_header(0, 16)),
                "no committed slot",
            ),
            (
                "one key in two nodes",
                patched(&sound, b, key_a),
                "key in two nodes",
            ),
            (
                "key on a chain that is not its bucket's",
                patched(&sound, a, stranger),
                "key in another bucket's chain",
            ),
        ];
        for (name, image, rule) in cases {
            match Shard::reopen_from_image(image, &cfg) {
                Err(ShardImageError::BadChain { why, .. }) => assert_eq!(why, rule, "{name}"),
                other => panic!("{name}: expected BadChain, got {other:?}"),
            }
        }
    }

    /// Nodes may overlap in a hostile image, so distinct keys alone do
    /// not bound the walk by the heap's size: a chain of nodes 8 bytes
    /// apart, each word both a key and the link to the next node, is
    /// cut off at the number of nodes the data area has room for —
    /// before any node's slots are read.
    #[test]
    fn reopen_bounds_the_walk_by_the_nodes_the_heap_can_hold() {
        let cfg = ShardConfig {
            buckets: 1,
            ..small(PolicyKind::ScFixed { capacity: 8 })
        };
        let mut s = Shard::new(&cfg);
        s.sync();
        let mut image = s.rt.region().durable_image().to_vec();
        let first = s.head + HEAD_BLOCK;
        let nodes = cfg.data_len / MIN_NODE + 2;
        for i in 0..nodes + 2 {
            let at = first + 8 * i;
            image[at..at + 8].copy_from_slice(&(at as u64).to_le_bytes());
        }
        image = patched(&image, s.bucket_base, first as u64);
        match Shard::reopen_from_image(image, &cfg) {
            Err(ShardImageError::BadChain { why, .. }) => {
                assert_eq!(why, "more nodes than the data area holds")
            }
            other => panic!("expected BadChain, got {other:?}"),
        }
    }

    /// The table's root is input too: an image with no heap, no root, a
    /// root whose head would leave the data area, or a head that names a
    /// bucket array outside it or an epoch no stamp can follow is
    /// refused before a bucket is read.
    #[test]
    fn reopen_rejects_an_image_without_a_bucket_array() {
        let cfg = small(PolicyKind::Lazy);
        let s = Shard::new(&cfg);
        let head = s.head;
        let sound = s.rt.region().durable_image().to_vec();
        for (what, at, word) in [
            ("buckets past the data area", head, cfg.data_len as u64 - 8),
            ("no buckets", head, 0),
            ("epoch 0", head + EPOCH_WORD, 0),
            ("a 53-bit epoch", head + EPOCH_WORD, 1 << 52),
            ("the last 52-bit epoch", head + EPOCH_WORD, (1 << 52) - 1),
        ] {
            let got = Shard::reopen_from_image(patched(&sound, at, word), &cfg).map(|s| s.len());
            assert_eq!(got, Err(ShardImageError::BadRoot(head as u64)), "{what}");
        }
        let below = patched(&sound, head + EPOCH_WORD, (1 << 52) - 2);
        let mut r = Shard::reopen_from_image(below, &cfg).expect("one stamp left");
        assert!(r.put(1, b"one") && r.put(1, b"two"), "an insert, an update");
        assert_eq!(r.committed, (1 << 52) - 1);
        let bare = FaseRuntime::new(cfg.data_len, cfg.log_len, &cfg.policy);
        let image = bare.into_region().durable_image().to_vec();
        let got = Shard::reopen_from_image(image, &cfg).map(|s| s.len());
        assert_eq!(got, Err(ShardImageError::BadRoot(0)), "no heap");
        let mut rootless = FaseRuntime::with_heap(cfg.data_len, cfg.log_len, &cfg.policy);
        let image = rootless.region().durable_image().to_vec();
        let got = Shard::reopen_from_image(image, &cfg).map(|s| s.len());
        assert_eq!(got, Err(ShardImageError::BadRoot(0)), "root never set");
        for root in [
            cfg.data_len as u64 - 8,
            cfg.data_len as u64 + 64,
            4100,
            u64::MAX,
        ] {
            rootless.set_root(root);
            let image = rootless.region().durable_image().to_vec();
            let got = Shard::reopen_from_image(image, &cfg).map(|s| s.len());
            assert_eq!(got, Err(ShardImageError::BadRoot(root)));
        }
        let not_a_log = vec![0u8; cfg.data_len + cfg.log_len];
        assert!(matches!(
            Shard::reopen_from_image(not_a_log, &cfg),
            Err(ShardImageError::Recovery(RecoveryError::BadMagic { .. }))
        ));
    }

    /// The allocator's header is input as well: a bump cursor, limit or
    /// free-list head no allocator wrote means the image has no heap
    /// this shard will allocate from.
    #[test]
    fn reopen_rejects_a_hostile_allocator_header() {
        let cfg = ShardConfig {
            buckets: 2,
            ..small(PolicyKind::ScFixed { capacity: 8 })
        };
        let (sound, ..) = sound_image(&cfg);
        // `PAlloc`'s header words: cursor, limit, first free-list head
        let (bump, limit, free) = (16, 24, 32);
        let region_len = sound.len() as u64;
        for (what, image) in [
            ("cursor inside the header", patched(&sound, bump, 8)),
            (
                "64-byte free list outside the region",
                patched(&sound, free + 2 * 8, region_len + 64),
            ),
            (
                "a heap that runs on into the undo log",
                patched(&sound, limit, region_len),
            ),
        ] {
            let got = Shard::reopen_from_image(image, &cfg).map(|s| s.len());
            assert_eq!(got, Err(ShardImageError::BadRoot(0)), "{what}");
        }
    }

    // ----- the index is the chains ---------------------------------------

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

    /// After every step: index ↔ chains, `len`, and `get` of every key
    /// the program can name (present or not) against the model.
    fn check(s: &mut Shard, model: &BTreeMap<u64, Vec<u8>>, step: &str) {
        if let Err(e) = s.index_matches_chains() {
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
        // one absent key per bucket: a group of them logs every bucket
        // head, more records than the log holds
        let spread: Vec<(u64, Vec<u8>)> = (0..cfg.buckets)
            .map(|b| (3000..).find(|&k| s.bucket_off(k) == s.bucket_base + 8 * b))
            .map(|k| (k.expect("some key hashes to every bucket"), vec![1; 13]))
            .collect();
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
                // put: fresh, same length (a slot) or another length
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
                                // now and then another length: the
                                // segment's group is refused and replayed
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
                // groups that must be refused whole, each led by a fresh
                // key whose planned node has to leave no trace
                11 | 12 => {
                    let fresh = (KEYS + 1, vec![tag; 13]);
                    let (g, refused): (Vec<(u64, Vec<u8>)>, bool) = match sel % 4 {
                        0 => (vec![fresh, (key, vec![0; MAX_VALUE_LEN + 1])], true),
                        1 => {
                            let other = vec![tag; group_len(&model, key) + 1];
                            (vec![fresh, (key, other)], model.contains_key(&key))
                        }
                        // eight bucket heads on a seven-record log: the
                        // prelog's `LogFull`
                        2 => (std::iter::once(fresh).chain(spread.clone()).collect(), true),
                        // more 4 KiB nodes than the heap has room for
                        _ if aux % 4 == 0 => {
                            ((0..80).map(|j| (2000 + j, vec![tag; 2000])).collect(), true)
                        }
                        // a worker that dies inside a FASE: healing rolls
                        // its store back, persists the restored head and
                        // rebuilds the index (under `Best` that head may
                        // name a node that never reached NVRAM)
                        _ if consistent => {
                            s.rt.begin_fase();
                            s.rt.store_u64(s.bucket_off(key), 0);
                            assert!(s.heal_after_panic(), "{step}: a FASE was open");
                            (Vec::new(), false)
                        }
                        _ => continue,
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
                    s.arm_crash(CrashPlan {
                        at_step: s.steps() + 1 + aux % 90,
                        mode: adversary(sel as u64 + aux, cfg),
                    });
                    let before = model.clone();
                    if s.put_many(&g) {
                        commit(&mut model, &g);
                    }
                    if let Some(image) = s.take_crash_image() {
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
                // `Best` flushes no data, but a free persists the freed
                // node's line: its image may chain through a node the
                // heap holds free, which the walk cannot always tell. It
                // reopens as a foreign image would, a typed refusal ends
                // the program, and so does the first check of a shard
                // that reopened: nothing it serves after is owed.
                _ => {
                    let mode = adversary(sel as u64 + aux, cfg);
                    let image = s.rt.region().image_after_crash(&mode);
                    let mut r = match Shard::reopen_from_image(image, cfg) {
                        Ok(r) => r,
                        Err(ShardImageError::BadChain { .. }) => return,
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

        /// The index never says anything the chains do not: after every
        /// step of a program of puts of all three kinds, groups, deletes,
        /// lane batches with barriers, refused groups, FASEs abandoned
        /// by a dying worker and power failures under every adversary.
        #[test]
        fn index_is_the_chains(
            prog in prop::collection::vec((0u8..16, 0u64..KEYS, 0u8..5, any::<u64>()), 1..70),
        ) {
            for policy in [
                PolicyKind::ScFixed { capacity: 8 },
                PolicyKind::Atlas { size: 8 },
                PolicyKind::Best,
            ] {
                let cfg = ShardConfig {
                    buckets: 8, // chains of several nodes: link surgery
                    // a group of seven records: a FASE's logged ranges
                    // are bucket heads and the epoch word, so only
                    // inserts into seven or eight buckets outgrow it
                    log_len: 64 + 16 + 7 * 16,
                    ..small(policy)
                };
                run_differential(&cfg, &prog);
            }
        }
    }
}
