//! One KV shard: a persistent hash map owning a private [`FaseRuntime`]
//! (per-thread cache model, paper Section II-B) whose image holds no
//! pointers, plus the shard's **live adaptation controller** — a
//! [`BurstSampler`] fed the shard's own store-line stream (FASE-renamed),
//! whose MRC knee resizes the software cache *while the shard keeps
//! serving*.
//!
//! Persistent layout (offsets inside the shard's data area; the runtime
//! formats its undo log after it, and no shard FASE writes a record):
//!
//! ```text
//! [head line | class table | segment 0 | segment 1 | …]  [undo log]
//! head    := magic u64 | epoch u64
//! class   := u8 per segment: 0 = never carved, c = blocks of 16 << c bytes
//! segment := 4 KiB of equal blocks, one node each
//! node    := key u64 | slot 0 @ 8 | slot 1 @ block / 2
//! slot    := stamp << 12 | vlen  u64 | value bytes (vlen of them)
//! ```
//!
//! A node holds its value twice over: each slot carries the **stamp** of
//! the FASE that wrote it, and the head's **epoch word** says which
//! stamps are committed. The slot with the highest stamp in `1..=epoch`
//! **decides** the block: a value makes it a live node, a **tombstone**
//! (the reserved length `LEN_MASK`) or no committed slot makes it free.
//! Stamp 0 is a void slot. Slot offsets follow the class, not the value
//! length: a 40-byte value takes a 128-byte block with slot 0 in its
//! first line and slot 1 in its second.
//!
//! Every mutation is one FASE, and every FASE commits the same way: it
//! writes only slots no committed state reads, stamped `epoch + 1`, as
//! unlogged stores ([`FaseRuntime::store_fresh`]), then publishes
//! `epoch + 1` as the epoch word ([`FaseRuntime::publish`]): the data
//! fence, then the word, its flush and its fence. No undo record, two
//! fences. A `put` is a group of one.
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
//! A segment is **carved** — its class byte written and persisted in a
//! one-store FASE of its own — before its first node is written, so a
//! segment that was never carved is all zeros.
//!
//! A FASE that dies before its epoch word lands leaves slots stamped
//! above it. Before the shard opens another FASE, recovery **voids** them
//! (stamp 0, by unlogged stores in a FASE that publishes nothing — a
//! crash inside it leaves slots the next recovery voids again): otherwise
//! the next FASE, which publishes the same epoch, would commit them.
//!
//! # What is volatile
//!
//! The shard's copy of the epoch word; the **index**, a DRAM map from
//! each live key to one word — its node's offset and class, the committed
//! slot and the value length ([`Shard::len`] is its size); and, per
//! class, a **free list** of blocks with the slot an insert writes. None
//! of it is stored through the runtime. The index is the only way a
//! lookup — `get`, `put_many`'s planner, `serve_batch`'s reads, `scan`,
//! `delete` — locates a value: one probe, then the value itself.
//!
//! NVTraverse's observation is the licence: in a durable structure only
//! the *destination* of a traversal has to be persistent, the *journey*
//! need not touch persistent memory at all. *Durable Queues* finds its
//! nodes at recovery by scanning the area they were allocated from; so
//! does this shard.
//!
//! The index and the free lists change only **after the commit point**
//! of the FASE that justifies them; a refused group (oversized value,
//! full heap) gives back the blocks it took and a FASE abandoned by a
//! panic touches neither. After anything that can leave a FASE half done
//! — reopening an image, an injected crash, a healed panic — both are
//! rebuilt by one pass over the segments in order, followed by the void
//! pass: a block a crashed insert took is free again. The pass is also
//! where a foreign image is checked ([`ShardImageError`]): the head must
//! hold the magic word and an epoch in `1..2⁵² − 1`, every class byte
//! name a class, every segment never carved be zeros, and every block
//! hold committed slots its class can hold, stamped apart, with each key
//! live in one node only. Nothing in the image is an offset, so the pass
//! reads each segment once and cannot be led anywhere else.

use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use nvcache_core::{rename_for_epoch, PolicyKind};
use nvcache_fase::{FaseRuntime, FaseStats, RecoveryError};
use nvcache_locality::{select_cache_size, BurstSampler, KneeConfig, Mrc};
use nvcache_pmem::{CrashMode, CrashPlan, PmemRegion};
use nvcache_trace::FxHashMap;

/// The head line's first word.
const MAGIC: u64 = u64::from_le_bytes(*b"NVSHARD1");
/// Offset of the epoch word in the head line.
const EPOCH_WORD: usize = 8;
/// The class table starts on the line after the head.
const CLASS_TABLE: usize = 64;
/// Bytes of a segment: one `PAlloc` max-class block.
const SEGMENT: usize = 4096;
/// Classes `1..=MAX_CLASS`; class `c` holds blocks of `16 << c` bytes.
const MAX_CLASS: usize = 8;
/// A slot's header: one word, its stamp above its value length.
const SLOT_HEADER: usize = 8;
/// Low bits of a slot header that hold the value length.
const LEN_BITS: u32 = 12;
/// The length a tombstone's header carries: longer than any value.
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
/// Epoch words stay below this: a stamp has the 52 bits a slot header
/// leaves, and the epoch after the word must fit one.
const EPOCH_LIMIT: u64 = (1 << (64 - LEN_BITS)) - 1;
/// Largest value the node layout can hold: slot 1 of a max-class block.
pub const MAX_VALUE_LEN: usize = SEGMENT / 2 - 2 * SLOT_HEADER;
/// Why rebuilding the volatile state cannot fail on the in-process paths.
const OWN_REGION: &str = "a region only this shard wrote scans sound";

/// Bytes of a class's blocks.
fn block_of(class: usize) -> usize {
    16 << class
}

/// The longest value a class's slots hold: slot 1 has the smaller half,
/// after the key and slot 0's header.
fn capacity(class: usize) -> usize {
    block_of(class) / 2 - 2 * SLOT_HEADER
}

/// The class of a `vlen`-byte value's node: the smallest that holds it.
fn class_of(vlen: usize) -> usize {
    (1..=MAX_CLASS)
        .find(|&c| vlen <= capacity(c))
        .expect("values are checked against MAX_VALUE_LEN")
}

/// Segments a `data_len`-byte data area has room for after the head line
/// and a table byte each.
fn segments_in(data_len: usize) -> usize {
    data_len.saturating_sub(CLASS_TABLE + 63) / (SEGMENT + 1)
}

/// A slot of a node: its offset with the node's class in bits 1..5 and
/// the slot in bit 0 (a node is 32-aligned), and the value length from
/// bit 48 up (data offsets stay below 2⁴⁸) — so a lookup reads the value
/// and nothing else. The index holds a live node's committed slot, a
/// free list the slot an insert writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u64);

impl Entry {
    const VLEN_SHIFT: u32 = 48;
    const LOW: u64 = (1 << Self::VLEN_SHIFT) - 1;

    fn new(node: usize, class: usize, slot: usize, vlen: usize) -> Self {
        Entry(node as u64 | (class as u64) << 1 | slot as u64 | (vlen as u64) << Self::VLEN_SHIFT)
    }

    fn node(self) -> usize {
        (self.0 & Self::LOW & !31) as usize
    }

    fn class(self) -> usize {
        (self.0 >> 1 & 15) as usize
    }

    fn slot(self) -> usize {
        (self.0 & 1) as usize
    }

    fn vlen(self) -> usize {
        (self.0 >> Self::VLEN_SHIFT) as usize
    }

    fn with_len(self, vlen: usize) -> Self {
        Entry(self.0 & Self::LOW | (vlen as u64) << Self::VLEN_SHIFT)
    }

    /// The node's other slot.
    fn other(self) -> Self {
        Entry(self.0 ^ 1)
    }

    /// Offset of the slot's header.
    fn slot_off(self) -> usize {
        self.node() + [SLOT_HEADER, block_of(self.class()) / 2][self.slot()]
    }
}

/// A slot header: the stamp above the value length.
fn slot_header(stamp: u64, vlen: u64) -> u64 {
    stamp << LEN_BITS | vlen
}

/// What one pass over the segments finds.
struct Survey {
    /// Every live key's committed slot.
    live: HashMap<u64, Entry>,
    /// Per class, the free blocks in address order, each with the slot
    /// that does not decide it.
    free: [Vec<Entry>; MAX_CLASS + 1],
    /// Headers of slots stamped above the epoch: a dead FASE's, to void.
    stale: Vec<usize>,
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
    /// Selects nothing: the image has no buckets. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub buckets: usize,
    /// Data-area bytes: the head line, the class table and as many
    /// 4 KiB segments as fit.
    pub data_len: usize,
    /// Undo-log bytes. The runtime formats the log; the shard never
    /// writes a record to it.
    pub log_len: usize,
    /// Persistence policy for this shard's runtime.
    pub policy: PolicyKind,
    /// Live adaptation; `None` = fixed policy behaviour.
    pub adapt: Option<AdaptConfig>,
    /// Selects nothing: every shard flushes through its runtime's ring
    /// and commits a `put_many` group as one FASE. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
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
    /// The head line is not a shard's: the magic word is missing, or the
    /// epoch word is 0 or leaves no stamp to follow it.
    BadHead(&'static str),
    /// A class byte or a segment breaks a rule of the layout.
    BadSegment {
        /// Index of the segment.
        segment: usize,
        /// Which rule broke.
        why: &'static str,
    },
    /// A node breaks a rule of the layout.
    BadNode {
        /// The node's offset in the data area.
        at: usize,
        /// Which rule broke.
        why: &'static str,
    },
}

impl fmt::Display for ShardImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardImageError::Recovery(e) => write!(f, "FASE recovery failed: {e}"),
            ShardImageError::BadHead(why) => write!(f, "no shard head: {why}"),
            ShardImageError::BadSegment { segment, why } => {
                write!(f, "bad segment {segment}: {why}")
            }
            ShardImageError::BadNode { at, why } => write!(f, "bad node at {at:#x}: {why}"),
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
    /// Segments the data area holds, and the offset of the first.
    segments: usize,
    seg_base: usize,
    /// Volatile: the first segment never carved (`segments` if none).
    uncarved: usize,
    /// Volatile: the epoch word. Every FASE stamps its slots one above
    /// and publishes that.
    committed: u64,
    /// Volatile: every live key → its node's committed slot and value
    /// length (module doc, "What is volatile").
    /// Keys are the clients', so the hasher is
    /// `std`'s keyed one: under the unkeyed multiplicative `FxHashMap`,
    /// 4 000 keys that differ only above bit 20 share one probe sequence
    /// (440 ns a `get` against 46).
    index: HashMap<u64, Entry>,
    /// Volatile: per class, the free blocks, next one last.
    free: [Vec<Entry>; MAX_CLASS + 1],
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

/// One planned write of a [`Shard::put_many`] group: the value of the
/// item it carries into the slot the entry names.
#[derive(Debug, Clone, Copy)]
enum PlannedOp {
    /// A slot of a node that already holds the key.
    Write(Entry),
    /// The first write into a block taken off a free list: the key too.
    Insert(Entry),
}

/// What [`Shard::put_many`] works out before it opens the FASE. The
/// shard owns it so that a group clears these buffers instead of
/// building and dropping them.
#[derive(Debug, Default)]
struct PutPlan {
    /// Key → the slot the group writes for it, at the length of its last
    /// write, and whether the key itself is still to be written.
    targets: FxHashMap<u64, (Entry, bool)>,
    /// Blocks taken off the free lists (given back if the group is
    /// refused).
    taken: Vec<Entry>,
    /// Nodes whose keys move to another class: each gets a tombstone,
    /// then goes to its free list.
    moved: Vec<Entry>,
    /// The writes, each with the index of the item it carries.
    ops: Vec<(PlannedOp, usize)>,
}

impl PutPlan {
    fn clear(&mut self) {
        self.targets.clear();
        self.taken.clear();
        self.moved.clear();
        self.ops.clear();
    }
}

impl Shard {
    /// Create a fresh shard.
    pub fn new(cfg: &ShardConfig) -> Self {
        let mut rt = FaseRuntime::new(cfg.data_len, cfg.log_len, &cfg.policy);
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&MAGIC.to_le_bytes());
        head[EPOCH_WORD..].copy_from_slice(&1u64.to_le_bytes());
        rt.fase(|rt| rt.publish(0, &head));
        Self::assemble(rt, cfg)
    }

    /// Re-attach to a crash image (or saved region): run recovery, then
    /// rebuild the index and the free lists by one pass over the
    /// segments and void what a dead FASE left. The image may be
    /// anything: one the pass cannot vouch for is a typed error, never a
    /// hang or a panic.
    pub fn reopen_from_image(image: Vec<u8>, cfg: &ShardConfig) -> Result<Self, ShardImageError> {
        let region = PmemRegion::from_image(image);
        let mut rt = FaseRuntime::try_reopen(region, cfg.data_len, cfg.log_len, &cfg.policy)?;
        if rt.data_len() < CLASS_TABLE || rt.load_u64(0) != MAGIC {
            return Err(ShardImageError::BadHead("no magic word"));
        }
        if !(1..EPOCH_LIMIT).contains(&rt.load_u64(EPOCH_WORD)) {
            return Err(ShardImageError::BadHead("an epoch outside 1..2⁵² − 1"));
        }
        let mut shard = Self::assemble(rt, cfg);
        shard.rebuild_volatile()?;
        Ok(shard)
    }

    fn assemble(mut rt: FaseRuntime, cfg: &ShardConfig) -> Self {
        let segments = segments_in(rt.data_len());
        let committed = rt.load_u64(EPOCH_WORD);
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
            segments,
            seg_base: (CLASS_TABLE + segments).next_multiple_of(64),
            uncarved: 0,
            committed,
            index: HashMap::new(),
            free: Default::default(),
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

    /// `key`'s index entry: one probe.
    fn locate(&self, key: u64) -> Option<Entry> {
        self.index.get(&key).copied()
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

    /// Insert or update `key → value` in one FASE: a group of one.
    /// Returns `false` if the heap is exhausted or the value exceeds
    /// [`MAX_VALUE_LEN`] — the map is unchanged in that case.
    pub fn put(&mut self, key: u64, value: &[u8]) -> bool {
        self.put_many(&[(key, value)])
    }

    /// Segment `segment`'s class byte.
    fn class_byte(&self, segment: usize) -> usize {
        self.rt.region().slice(CLASS_TABLE + segment, 1)[0] as usize
    }

    /// The first segment at or after `from` never carved (`segments`
    /// if none).
    fn uncarved_from(&self, from: usize) -> usize {
        (from..self.segments)
            .find(|&s| self.class_byte(s) == 0)
            .unwrap_or(self.segments)
    }

    /// A free block of `class`, carving a segment for it if the class
    /// has none; `None` when every segment is carved.
    fn take(&mut self, class: usize) -> Option<Entry> {
        if self.free[class].is_empty() {
            let seg = self.uncarved;
            if seg == self.segments {
                return None;
            }
            // the class byte is the carve's commit record, durable under
            // every policy before a node of the segment is written
            let at = CLASS_TABLE + (seg & !7);
            let mut word = self.rt.load_u64(at).to_le_bytes();
            word[seg % 8] = class as u8;
            self.rt.fase(|rt| rt.publish(at, &word));
            let base = self.seg_base + seg * SEGMENT;
            let blocks = (base..base + SEGMENT).step_by(block_of(class)).rev();
            self.free[class].extend(blocks.map(|node| Entry::new(node, class, 0, 0)));
            self.uncarved = self.uncarved_from(seg + 1);
        }
        self.free[class].pop()
    }

    /// One unlogged store at `at`: `words`, then `value`. Nothing
    /// committed reads what it writes until the FASE publishes.
    fn store_words(&mut self, at: usize, words: &[u64], value: &[u8]) {
        self.slot_buf.clear();
        for word in words {
            self.slot_buf.extend_from_slice(&word.to_le_bytes());
        }
        self.slot_buf.extend_from_slice(value);
        self.rt.store_fresh(at, &self.slot_buf);
        self.observe(at, self.slot_buf.len());
    }

    /// The stamp of the FASE about to open.
    fn next_stamp(&self) -> u64 {
        let stamp = self.committed + 1;
        assert!(stamp <= EPOCH_LIMIT, "2⁵² − 1 FASEs stamped");
        stamp
    }

    /// Close the open FASE by publishing `stamp` as the epoch word.
    fn commit(&mut self, stamp: u64) {
        self.rt.publish(EPOCH_WORD, &stamp.to_le_bytes());
        self.rt.end_fase();
        self.committed = stamp;
    }

    /// Apply a whole batch of writes as **one FASE** (group commit):
    /// every item writes a node's other slot or a free block, a key that
    /// changes class leaves a tombstone behind, and the batch commits or
    /// rolls back atomically by its published epoch word (module doc).
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
        if items.is_empty() {
            return true;
        }
        let mut plan = std::mem::take(&mut self.plan);
        let ok = self.put_many_with(items, &mut plan);
        self.plan = plan;
        ok
    }

    fn put_many_with<V: AsRef<[u8]>>(&mut self, items: &[(u64, V)], plan: &mut PutPlan) -> bool {
        // plan outside the FASE: each key's last length (on node 0, which
        // is the head line: not yet placed), then its slot
        plan.clear();
        for (key, value) in items {
            let vlen = value.as_ref().len();
            if vlen > MAX_VALUE_LEN {
                return false;
            }
            plan.targets
                .insert(*key, (Entry::new(0, 0, 0, vlen), false));
        }
        for (i, (key, value)) in items.iter().enumerate() {
            let (target, unkeyed) = plan.targets.get_mut(key).expect("planned above");
            if target.node() == 0 {
                let (len, old) = (target.vlen(), self.locate(*key));
                let class = class_of(len);
                *target = match old {
                    Some(old) if old.class() == class => old.other(),
                    _ => {
                        let Some(block) = self.take(class) else {
                            for &block in plan.taken.iter().rev() {
                                self.free[block.class()].push(block);
                            }
                            return false;
                        };
                        plan.taken.push(block);
                        plan.moved.extend(old);
                        *unkeyed = true;
                        block
                    }
                }
                .with_len(len);
            }
            let vlen = value.as_ref().len();
            if class_of(vlen) == target.class() {
                let slot = target.with_len(vlen);
                let op = if *unkeyed {
                    PlannedOp::Insert(slot)
                } else {
                    PlannedOp::Write(slot)
                };
                plan.ops.push((op, i));
                *unkeyed = false;
            }
        }
        let stamp = self.next_stamp();
        self.rt.begin_fase();
        for &old in &plan.moved {
            self.store_words(old.other().slot_off(), &[slot_header(stamp, LEN_MASK)], &[]);
        }
        for &(op, i) in &plan.ops {
            let value = items[i].1.as_ref();
            let header = slot_header(stamp, value.len() as u64);
            match op {
                PlannedOp::Insert(slot) if slot.slot() == 0 => {
                    self.store_words(slot.node(), &[items[i].0, header], value)
                }
                PlannedOp::Insert(slot) => {
                    self.store_words(slot.node(), &[items[i].0], &[]);
                    self.store_words(slot.slot_off(), &[header], value);
                }
                PlannedOp::Write(slot) => self.store_words(slot.slot_off(), &[header], value),
            }
        }
        self.commit(stamp);
        for (&key, &(target, _)) in &plan.targets {
            self.index.insert(key, target);
        }
        for &old in &plan.moved {
            self.free[old.class()].push(old.with_len(0));
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
    /// FASE is dropped, volatile runtime residue with it, and the index
    /// and free lists are rebuilt from the region. Returns whether
    /// anything was healed.
    pub fn heal_after_panic(&mut self) -> bool {
        let healed = self.rt.heal_after_panic();
        if healed {
            self.pending_mrc = None;
            self.rebuild_volatile().expect(OWN_REGION);
        }
        healed
    }

    /// Remove `key` (one FASE when present): a tombstone into its node's
    /// other slot. Returns whether it existed.
    pub fn delete(&mut self, key: u64) -> bool {
        let Some(entry) = self.locate(key) else {
            return false;
        };
        let stamp = self.next_stamp();
        self.rt.begin_fase();
        let tomb = slot_header(stamp, LEN_MASK);
        self.store_words(entry.other().slot_off(), &[tomb], &[]);
        self.commit(stamp);
        self.index.remove(&key);
        self.free[entry.class()].push(entry.with_len(0));
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

    /// Every `(key, value)` pair, sorted by key. A pass over the
    /// segments that never consults the index: this is what recovery
    /// verification compares, so it reads what is persistent.
    pub fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
        let live = self.survey().expect(OWN_REGION).live;
        let mut out: Vec<_> = live
            .into_iter()
            .map(|(key, entry)| (key, self.value_at(entry)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The one pass over the segments that recovery, [`Shard::dump`] and
    /// the index check share. The region may be a foreign image, so
    /// every class byte, every segment never carved and every node is
    /// checked against the rules of the module doc.
    fn survey(&mut self) -> Result<Survey, ShardImageError> {
        let mut survey = Survey {
            live: HashMap::new(),
            free: Default::default(),
            stale: Vec::new(),
        };
        for segment in 0..self.segments {
            let base = self.seg_base + segment * SEGMENT;
            let bad = |why| ShardImageError::BadSegment { segment, why };
            let class = self.class_byte(segment);
            if class == 0 {
                // a fold, not a search: it vectorizes
                let bytes = self.rt.region().slice(base, SEGMENT);
                if bytes.iter().fold(0, |all, &b| all | b) != 0 {
                    return Err(bad("bytes in a segment never carved"));
                }
                continue;
            }
            if class > MAX_CLASS {
                return Err(bad("a class past the largest"));
            }
            for node in (base..base + SEGMENT).step_by(block_of(class)) {
                let slot0 = Entry::new(node, class, 0, 0);
                let slots = [slot0, slot0.other()];
                let headers = slots.map(|slot| self.rt.load_u64(slot.slot_off()));
                let (stamps, lens) = (
                    headers.map(|h| h >> LEN_BITS),
                    headers.map(|h| h & LEN_MASK),
                );
                let committed = stamps.map(|s| (1..=self.committed).contains(&s));
                let bad = |why| ShardImageError::BadNode { at: node, why };
                for (i, slot) in slots.into_iter().enumerate() {
                    if stamps[i] > self.committed {
                        survey.stale.push(slot.slot_off());
                    }
                    if committed[i] && lens[i] != LEN_MASK && lens[i] > capacity(class) as u64 {
                        return Err(bad("a slot longer than its class holds"));
                    }
                }
                let deciding = match committed {
                    [false, false] => None,
                    [true, true] if stamps[0] == stamps[1] => {
                        return Err(bad("two committed slots with one stamp"))
                    }
                    [true, true] => Some(usize::from(stamps[1] > stamps[0])),
                    [c0, _] => Some(usize::from(!c0)),
                };
                match deciding {
                    Some(d) if lens[d] != LEN_MASK => {
                        let key = self.rt.load_u64(node);
                        let entry = slots[d].with_len(lens[d] as usize);
                        if survey.live.insert(key, entry).is_some() {
                            return Err(bad("a key live in two nodes"));
                        }
                    }
                    // an insert writes the slot that does not decide
                    _ => survey.free[class].push(slots[deciding.map_or(0, |d| 1 - d)]),
                }
            }
        }
        Ok(survey)
    }

    /// Rebuild the index and the free lists from the region — the one
    /// pass that reopening, an injected crash and a healed panic share —
    /// then void the slots a dead FASE stamped above the epoch word.
    fn rebuild_volatile(&mut self) -> Result<(), ShardImageError> {
        self.committed = self.rt.load_u64(EPOCH_WORD);
        let survey = self.survey()?;
        self.index = survey.live;
        self.free = survey.free.map(|mut blocks| {
            blocks.reverse(); // the lowest address is taken first
            blocks
        });
        self.uncarved = self.uncarved_from(0);
        // The void pass: stamp 0 on what nothing committed reads, so the
        // stores need no undo record, in a FASE that publishes nothing —
        // a crash inside it leaves slots the next rebuild voids again.
        if !survey.stale.is_empty() {
            self.rt.begin_fase();
            for &at in &survey.stale {
                self.rt.store_fresh(at, &0u64.to_le_bytes());
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

    /// Inject a power failure in-process and recover; the index and the
    /// free lists are rebuilt from the recovered region.
    ///
    /// # Panics
    /// When the recovered segments are unsound, which takes a policy
    /// that is not crash-consistent (`Best`) under an adversary that
    /// tears.
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
    /// The index and the free lists are the heap: the pass over the
    /// segments finds exactly the live keys the index holds, each in the
    /// slot it names, and exactly the free blocks the free lists hold,
    /// each with the slot an insert would write (so a key in two nodes,
    /// a stale entry or slot, a missing one and a leaked block all fail).
    fn index_matches_heap(&mut self) -> Result<(), String> {
        let survey = self.survey().map_err(|e| e.to_string())?;
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
            let mut listed = self.free[class].clone();
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
    use nvcache_fase::LogStats;

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
        let fases_before = s.stats().fases;
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
        assert!(s.put_many(&batch));
        assert_eq!(s.stats().fases, fases_before + 2, "a carve, then the batch");
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
        let stores = s.stats().stores;
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
        // 128-byte block, whose segment is carved first; the epoch word
        assert_eq!(s.stats().stores - stores, 4);
        s.index_matches_heap().unwrap();
    }

    #[test]
    fn put_many_rejects_without_side_effects() {
        let mut s = Shard::new(&small(PolicyKind::Lazy));
        assert!(s.put(5, b"12345"));
        let (before, free) = (s.dump(), s.free.clone());
        // an oversized value refuses the whole batch before a block is
        // taken…
        let mut group = vec![
            (9, b"nine".to_vec()),
            (5, b"much-longer-than-sixteen".to_vec()),
            (7, vec![0u8; MAX_VALUE_LEN + 1]),
        ];
        assert!(!s.put_many(&group));
        assert_eq!(s.free, free);
        // …and a full heap after the fresh key and the key that moves to
        // another class took theirs: they go back, and the segments the
        // group carved stay carved, every block free
        group.truncate(2);
        let huge = (100..200).map(|k| (k, vec![1; 2000]));
        assert!(!s.put_many(&group.iter().cloned().chain(huge).collect::<Vec<_>>()));
        assert_eq!(s.dump(), before, "refused batches leave no trace");
        assert_eq!(s.free[class_of(4)], free[class_of(4)]);
        s.index_matches_heap().unwrap();
        assert!(s.put_many(&group));
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
        // carves the segment the batch's 1-byte values go to
        assert!(s.put(9, b"z"));
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

    /// A crash mid-batch rolls the whole group back: the epoch word it
    /// never published keeps the all-or-nothing FASE contract.
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

    /// The counters one call moves: log, region, ring and runtime.
    fn counters(s: &Shard) -> (LogStats, nvcache_pmem::PmemStats, u64, FaseStats) {
        let rt = &s.rt;
        let ring = rt.ring_stats().flushed;
        (rt.log_stats(), rt.region().stats(), ring, rt.stats())
    }

    /// Assert that `op` committed as one FASE by its epoch word alone:
    /// no undo record, two fences, and `lines` data lines plus the
    /// epoch word's, each flushed once off the ring.
    fn commits_by_its_epoch_word(
        s: &mut Shard,
        what: &str,
        lines: u64,
        op: impl Fn(&mut Shard) -> bool,
    ) {
        let (log, pmem, ring, fase) = counters(s);
        assert!(op(s), "{what}");
        let (log2, p, r, f) = counters(s);
        let one_more_commit = LogStats {
            commits: log.commits + 1,
            ..log
        };
        assert_eq!(log2, one_more_commit, "{what}: a record");
        assert_eq!(f.fases - fase.fases, 1, "{what}");
        assert_eq!(p.fences - pmem.fences, 2, "{what}: data fence, epoch fence");
        assert_eq!(f.data_flushes - fase.data_flushes, lines + 1, "{what}");
        assert_eq!(r - ring, lines + 1, "{what}");
        assert_eq!(
            p.flushes - pmem.flushes,
            lines + 1,
            "{what}: a flush off the ring"
        );
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
        commits_by_its_epoch_word(&mut s, "put_many", 32, |s| s.put_many(&group(2)));
        commits_by_its_epoch_word(&mut s, "put", 1, |s| s.put(7, &[3; 40]));
        assert_eq!(s.get(7).as_deref(), Some(&[3u8; 40][..]));
        assert_eq!(s.get(8).as_deref(), Some(&[2u8; 40][..]));
    }

    /// A delete writes no undo record either: one tombstone line, the
    /// epoch word's line, two fences — and so does an insert into a
    /// carved segment.
    #[test]
    fn a_delete_commits_by_its_epoch_word_alone() {
        let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
        // 24 of the segment's 32 blocks
        assert!(s.put_many(&(0..24u64).map(|k| (k, [1; 40])).collect::<Vec<_>>()));
        commits_by_its_epoch_word(&mut s, "delete", 1, |s| s.delete(7));
        commits_by_its_epoch_word(&mut s, "reuse", 1, |s| s.put(7, &[3; 40]));
        commits_by_its_epoch_word(&mut s, "insert", 1, |s| s.put(40, &[2; 40]));
        commits_by_its_epoch_word(&mut s, "delete", 1, |s| s.delete(40));
        assert_eq!(s.get(40), None);
        assert_eq!(s.get(7).as_deref(), Some(&[3u8; 40][..]));
        s.index_matches_heap().unwrap();
    }

    /// The three adversaries.
    fn modes(seed: u64) -> [CrashMode; 3] {
        [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, seed),
        ]
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
            for mode in modes(k) {
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

    /// Delete A, then insert B into the block A held — once with A's
    /// value in slot 0, once (after an update) in slot 1 — with a power
    /// failure at every micro-step of the insert under every adversary:
    /// A never comes back, B is whole or absent, the next FASE, which
    /// publishes the epoch B's dead insert was stamped with, brings
    /// neither back, and B's retry takes the block again.
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
            let start = probe.steps();
            assert!(probe.put(b, &[2u8; 40]));
            assert_eq!(probe.locate(b).unwrap().node(), block, "B takes A's block");
            let publish = probe.steps() - 3;
            for k in start..=publish {
                for mode in modes(k) {
                    let ctx = format!("{updates} updates: {mode:?} crash at step {k}");
                    let (mut s, _) = loaded();
                    s.arm_crash(CrashPlan { at_step: k, mode });
                    assert!(s.put(b, &[2u8; 40]));
                    let image = s.take_crash_image().expect("the cut falls in the insert");
                    let mut r = Shard::reopen_from_image(image, &cfg).expect(&ctx);
                    assert_eq!(r.dump(), vec![(9, vec![9u8; 40])], "{ctx}");
                    assert!(r.put(9, &[4u8; 40]), "{ctx}: the dead insert's epoch");
                    assert_eq!(r.dump(), vec![(9, vec![4u8; 40])], "{ctx}");
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
    /// recovery: after eight inserts each cut short by a power failure
    /// just before its epoch word, as many keys fit as in a shard that
    /// never crashed.
    #[test]
    fn a_block_a_crashed_insert_took_is_free_after_recovery() {
        let cfg = ShardConfig {
            data_len: 16 << 10,
            ..small(PolicyKind::ScFixed { capacity: 4 })
        };
        let fill = |s: &mut Shard| (1000u64..).take_while(|&k| s.put(k, &[1u8; 40])).count();
        let fits = fill(&mut Shard::new(&cfg));
        let mut image = Shard::new(&cfg).rt.region().durable_image().to_vec();
        for key in 0..8u64 {
            let mut probe = Shard::reopen_from_image(image.clone(), &cfg).unwrap();
            assert!(probe.put(key, &[2u8; 40]));
            let mut s = Shard::reopen_from_image(image, &cfg).unwrap();
            s.arm_crash(CrashPlan {
                at_step: probe.steps() - 3,
                mode: CrashMode::AllInFlightLands,
            });
            assert!(s.put(key, &[2u8; 40]));
            image = s.take_crash_image().expect("the cut falls in the insert");
        }
        let mut s = Shard::reopen_from_image(image, &cfg).unwrap();
        assert!(s.is_empty());
        assert_eq!(fill(&mut s), fits, "blocks leaked");
    }

    /// Where a key hashes does not matter any more: deleting a key of a
    /// sparse set (`i << 48`) and one of a dense set, and moving each to
    /// another class, take the same micro-steps and persistence counts.
    #[test]
    fn sparse_and_dense_keys_cost_the_same() {
        let cost = |keys: &[u64], op: &dyn Fn(&mut Shard, u64) -> bool| {
            let mut s = Shard::new(&small(PolicyKind::ScFixed { capacity: 8 }));
            assert!(s.put_many(&keys.iter().map(|&k| (k, [1u8; 40])).collect::<Vec<_>>()));
            let (steps, pmem) = (s.steps(), s.rt.region().stats());
            assert!(op(&mut s, keys[300]));
            let p = s.rt.region().stats();
            let delta = [p.bytes_written, p.stores, p.flushes, p.fences]
                .iter()
                .zip([pmem.bytes_written, pmem.stores, pmem.flushes, pmem.fences])
                .map(|(now, then)| now - then)
                .collect::<Vec<_>>();
            (s.steps() - steps, delta)
        };
        let sparse: Vec<u64> = (0..1000u64).map(|i| i << 48).collect();
        let dense: Vec<u64> = (0..1000u64).collect();
        let delete = |s: &mut Shard, k| s.delete(k);
        let resize = |s: &mut Shard, k| s.put(k, &[2u8; 100]);
        assert_eq!(cost(&sparse, &delete), cost(&dense, &delete));
        assert_eq!(cost(&sparse, &resize), cost(&dense, &resize));
    }

    // ----- hostile images ------------------------------------------------

    /// A sound image holding keys `0..8` with 16-byte values (64-byte
    /// nodes in segment 0), and the shard it came from.
    fn sound_image(cfg: &ShardConfig) -> (Vec<u8>, Shard) {
        let mut s = Shard::new(cfg);
        for k in 0..8u64 {
            assert!(s.put(k, &[k as u8; 16]));
        }
        s.sync();
        (s.rt.region().durable_image().to_vec(), s)
    }

    fn patched(image: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut image = image.to_vec();
        image[at..at + bytes.len()].copy_from_slice(bytes);
        image
    }

    fn word(w: u64) -> [u8; 8] {
        w.to_le_bytes()
    }

    /// An image whose head is not this layout's — another heap's magic,
    /// an epoch outside `1..2⁵² − 1`, not even a log — is refused with a
    /// typed error before any segment is read. (The name is the one the
    /// test had when a bucket array hung off the head.)
    #[test]
    fn reopen_rejects_an_image_without_a_bucket_array() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let (sound, _) = sound_image(&cfg);
        let head = |why| ShardImageError::BadHead(why);
        let cases: Vec<(&str, Vec<u8>, ShardImageError)> = vec![
            (
                "a heap of another kind",
                patched(&sound, 0, b"NVCACHE1"),
                head("no magic word"),
            ),
            (
                "epoch 0",
                patched(&sound, EPOCH_WORD, &word(0)),
                head("an epoch outside 1..2⁵² − 1"),
            ),
            (
                "the last 52-bit epoch",
                patched(&sound, EPOCH_WORD, &word((1 << 52) - 1)),
                head("an epoch outside 1..2⁵² − 1"),
            ),
            (
                "a 64-bit epoch",
                patched(&sound, EPOCH_WORD, &word(u64::MAX)),
                head("an epoch outside 1..2⁵² − 1"),
            ),
        ];
        for (name, image, want) in cases {
            let got = Shard::reopen_from_image(image, &cfg).map(|s| s.len());
            assert_eq!(got, Err(want), "{name}");
        }
        let not_a_log = vec![0u8; cfg.data_len + cfg.log_len];
        assert!(matches!(
            Shard::reopen_from_image(not_a_log, &cfg),
            Err(ShardImageError::Recovery(RecoveryError::BadMagic { .. }))
        ));
    }

    /// Every rule of the segment layout a hostile image can break below
    /// its head ends in a typed error that names it — no panic, no read
    /// outside the data area — and slots no FASE committed are not one
    /// of them. (The name is the one the test had when nodes were chained
    /// off a bucket array.)
    #[test]
    fn reopen_rejects_hostile_chains_with_a_typed_error() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let (sound, s) = sound_image(&cfg);
        let mut back = Shard::reopen_from_image(sound.clone(), &cfg).expect("sound image");
        assert_eq!(back.len(), 8);
        back.index_matches_heap().unwrap();
        let (a, b) = (s.index[&0], s.index[&1]);
        let (node, first, second) = (a.node(), a.slot_off(), a.other().slot_off());
        let epoch = s.committed;
        let uncarved = s.seg_base + SEGMENT;
        let segment = |segment, why| ShardImageError::BadSegment { segment, why };
        let bad_node = |at, why| ShardImageError::BadNode { at, why };
        let cases: Vec<(&str, Vec<u8>, ShardImageError)> = vec![
            (
                "a class past the largest",
                patched(&sound, CLASS_TABLE, &[MAX_CLASS as u8 + 1]),
                segment(0, "a class past the largest"),
            ),
            (
                "a class byte that never landed",
                patched(&sound, CLASS_TABLE, &[0]),
                segment(0, "bytes in a segment never carved"),
            ),
            (
                "one byte in a segment never carved",
                patched(&sound, uncarved + SEGMENT - 1, &[1]),
                segment(1, "bytes in a segment never carved"),
            ),
            (
                "a value longer than the class holds",
                patched(&sound, first, &word(slot_header(epoch, 17))),
                bad_node(node, "a slot longer than its class holds"),
            ),
            (
                "a length only a tombstone may have",
                patched(&sound, second, &word(slot_header(epoch, LEN_MASK - 1))),
                bad_node(node, "a slot longer than its class holds"),
            ),
            (
                "two committed slots with one stamp",
                patched(&sound, second, &sound[first..first + 8]),
                bad_node(node, "two committed slots with one stamp"),
            ),
            (
                "one key in two live nodes",
                patched(&sound, b.node(), &word(0)),
                bad_node(b.node().max(node), "a key live in two nodes"),
            ),
        ];
        for (name, image, want) in cases {
            let got = Shard::reopen_from_image(image, &cfg).map(|s| s.len());
            assert_eq!(got, Err(want), "{name}");
        }
        // slots no FASE committed decide nothing: a node whose slots are
        // both void, or both above the epoch, is a free block
        for (name, image) in [
            ("both void", patched(&sound, first, &word(0))),
            (
                "both above the epoch",
                patched(
                    &patched(&sound, first, &word(slot_header(epoch + 1, 9))),
                    second,
                    &word(slot_header(epoch + 2, 4000)),
                ),
            ),
        ] {
            let mut r = Shard::reopen_from_image(image, &cfg).expect(name);
            assert_eq!(r.len(), 7, "{name}");
            assert_eq!(r.get(0), None, "{name}");
            r.index_matches_heap().unwrap();
            assert_eq!(
                r.free[a.class()].last(),
                Some(&Entry::new(node, a.class(), 0, 0))
            );
        }
    }

    /// An image one stamp short of the limit serves one more FASE.
    #[test]
    fn the_last_stamp_is_served() {
        let cfg = small(PolicyKind::Lazy);
        let (sound, _) = sound_image(&cfg);
        let below = patched(&sound, EPOCH_WORD, &word((1 << 52) - 2));
        let mut r = Shard::reopen_from_image(below, &cfg).expect("one stamp left");
        assert!(r.put(1, b"one"), "an update");
        assert_eq!(r.committed, (1 << 52) - 1);
        assert_eq!(r.get(1).as_deref(), Some(&b"one"[..]));
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
                                let stamp = s.next_stamp();
                                s.rt.begin_fase();
                                let (at, len) = (entry.other().slot_off(), entry.vlen());
                                let dead = slot_header(stamp, len as u64);
                                s.store_words(at, &[dead], &vec![0xee; len]);
                                assert!(s.heal_after_panic(), "{step}: a FASE was open");
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
                // `Best` flushes no data, but publishes its epoch words
                // and class bytes: its image may hold a key's new node
                // without the old one's tombstone, which the pass cannot
                // tell from a hostile image. It reopens as a foreign
                // image would, a typed refusal ends the program, and so
                // does the first check of a shard that reopened: nothing
                // it serves after is owed.
                _ => {
                    let mode = adversary(sel as u64 + aux, cfg);
                    let image = s.rt.region().image_after_crash(&mode);
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
