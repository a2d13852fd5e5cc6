//! The node store of a hash shard: everything about a node but the
//! shard's index over it. [`Nodes`] owns the runtime (which has no undo
//! log) and its data area, the segment table of [`crate::segments`]:
//!
//! ```text
//! [head line | class table | segment 0 | segment 1 | …]
//! head    := magic u64
//! class   := u8 per segment: 0 = never carved, c = blocks of 16 << c bytes
//! segment := 4 KiB of equal blocks, one node each
//! node    := key u64 | slot 0 @ 8 | slot 1 @ block / 2
//! slot    := stamp << 12 | vlen  u64 | seal u64 | value bytes (vlen of them)
//! seal    := n << 32 | checksum (32 bits)
//! ```
//!
//! A node holds its value twice over. Each slot is a sealed unit of
//! [`crate::seal`] (DESIGN.md §6.3): the **stamp** of the FASE that
//! wrote it, and a **seal** — the FASE's slot count *n* on its closing
//! slot, 0 on the others — above a checksum of the slot's header, *n*,
//! its value and, for a value, the node's key. The slot with the highest
//! committed stamp **decides** the block: a value makes it a live node, a
//! **tombstone** (the reserved length `LEN_MASK`) or no committed slot
//! makes it free. Stamp 0 is a void slot. Slot offsets follow the class,
//! not the value length: a 40-byte value takes a 128-byte block, slot 0
//! (key, header, seal, value: 64 bytes) its first line and slot 1 its
//! second. A class holds values of up to half its block less three
//! words: class 1 (32-byte blocks) holds none and is never carved, class
//! 2 holds 8 bytes, class 3 40, class 4 104, and class 8
//! [`MAX_VALUE_LEN`] = 2 024. A slot is one unlogged store that nothing
//! committed reads ([`Nodes::store_slot`]); a segment is **carved**
//! ([`Nodes::take`]) before its first node is written, so a segment never
//! carved is all zeros.
//!
//! Recovery finds the last committed FASE by the commit rule and
//! **voids** every slot stamped above it (stamp 0, unlogged, in a FASE
//! that commits nothing) before the store opens another FASE. A seal
//! covers no word a later committed FASE may rewrite: an insert into a
//! free block rewrites its key word, so the tombstone that freed the
//! block leaves the key out of its seal. A FASE abandoned by a panic is
//! voided outright: healing knows the last committed stamp. One pass
//! over the slot headers folds them into the last committed FASE
//! (skipped after a panic), one over the segments ([`Nodes::survey`])
//! finds the live nodes and the free blocks, and the void pass follows.
//! The passes check a foreign image ([`ImageError`]) against the magic
//! word, the segment table's rules, the commit rule and the node layout:
//! slots their class can hold, a whole deciding slot, committed stamps
//! apart, each key live in one node. Nothing in the image is an offset,
//! so a pass reads each segment once and cannot be led anywhere else.
//! NVTraverse's observation is the licence: in a durable structure only
//! the *destination* of a traversal has to be persistent; *Durable
//! Queues* finds its nodes at recovery by scanning the area they were
//! allocated from, and so does this store.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use nvcache_pmem::CrashMode;

use crate::segments::{block_of, CLASS_TABLE, MAX_CLASS, SEGMENT};
use crate::{seal, FaseRuntime, RecoveryError, SealError, SegmentError, SegmentTable};

/// The head line's first word, and the seed of every slot's checksum.
const MAGIC: u64 = u64::from_le_bytes(*b"NVSHARD3");
/// Classes `MIN_CLASS..=MAX_CLASS` hold slots.
const MIN_CLASS: usize = 2;
/// A slot's header word (its stamp above its value length) and its seal.
pub const SLOT_HEADER: usize = 16;
/// Offset of a node's slot 0: after the key word.
const SLOT_0: usize = 8;
/// Low bits of a slot header that hold the value length.
const LEN_BITS: u32 = 12;
/// The length a tombstone's header carries: longer than any value.
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;
/// Largest value the node layout can hold: slot 0 of a max-class block.
pub const MAX_VALUE_LEN: usize = SEGMENT / 2 - SLOT_0 - SLOT_HEADER;
/// Why rebuilding the volatile state cannot fail on the in-process paths.
const OWN_REGION: &str = "a region only this shard wrote scans sound";

/// The longest value a class's slots hold: slot 0 has the smaller half,
/// after the key.
fn capacity(class: usize) -> usize {
    block_of(class) / 2 - SLOT_0 - SLOT_HEADER
}

/// The class of a `vlen`-byte value's node: the smallest that holds it.
/// Panics past [`MAX_VALUE_LEN`].
pub fn class_of(vlen: usize) -> usize {
    (MIN_CLASS..=MAX_CLASS)
        .find(|&c| vlen <= capacity(c))
        .expect("values are checked against MAX_VALUE_LEN")
}

/// A slot of a node: its offset with the node's class in bits 1..5 and
/// the slot in bit 0 (a node is 64-aligned), and the value length from
/// bit 48 up (data offsets stay below 2⁴⁸) — so a lookup reads the value
/// and nothing else. A shard's index holds a live node's committed slot,
/// a free list the slot an insert writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry(u64);

impl Entry {
    const VLEN_SHIFT: u32 = 48;
    const LOW: u64 = (1 << Self::VLEN_SHIFT) - 1;

    /// Slot `slot` of the `class` node at `node`, holding `vlen` bytes.
    #[inline]
    pub fn new(node: usize, class: usize, slot: usize, vlen: usize) -> Self {
        Entry(node as u64 | (class as u64) << 1 | slot as u64 | (vlen as u64) << Self::VLEN_SHIFT)
    }

    /// Offset of the node.
    #[inline]
    pub fn node(self) -> usize {
        (self.0 & Self::LOW & !31) as usize
    }

    /// The node's class.
    #[inline]
    pub fn class(self) -> usize {
        (self.0 >> 1 & 15) as usize
    }

    /// Which of the node's slots this is.
    #[inline]
    pub fn slot(self) -> usize {
        (self.0 & 1) as usize
    }

    /// Bytes of the value.
    #[inline]
    pub fn vlen(self) -> usize {
        (self.0 >> Self::VLEN_SHIFT) as usize
    }

    /// The slot holding `vlen` bytes.
    #[inline]
    pub fn with_len(self, vlen: usize) -> Self {
        Entry(self.0 & Self::LOW | (vlen as u64) << Self::VLEN_SHIFT)
    }

    /// The node's other slot.
    #[inline]
    pub fn other(self) -> Self {
        Entry(self.0 ^ 1)
    }

    /// Offset of the slot's header.
    #[inline]
    pub fn slot_off(self) -> usize {
        self.node() + [SLOT_0, block_of(self.class()) / 2][self.slot()]
    }

    /// The node's bytes: its key and both slots.
    pub fn block(self) -> Range<usize> {
        self.node()..self.node() + block_of(self.class())
    }
}

/// A slot header: the stamp above the value length.
fn slot_header(stamp: u64, vlen: u64) -> u64 {
    stamp << LEN_BITS | vlen
}

/// The seal word of a slot: `n` (0 but on a closing slot) above the
/// checksum of the header, `n`, the node's key (`None` for a tombstone,
/// which a later insert may outlive) and the value.
fn seal_word(header: u64, n: u64, key: Option<u64>, value: &[u8]) -> u64 {
    let words = [header, n, key.unwrap_or(0)].map(u64::to_le_bytes);
    n << 32 | seal::checksum(MAGIC, [words.as_flattened(), value])
}

/// The little-endian word at `at` of `data`.
fn word(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("eight bytes"))
}

/// Slot 0 of every node of data area `data`, in address order.
pub fn nodes(data: &[u8]) -> Result<Vec<Entry>, ImageError> {
    let blocks = SegmentTable::new(data.len()).blocks(data, MIN_CLASS);
    let blocks = blocks.map_err(ImageError::BadSegment)?.into_iter();
    Ok(blocks
        .map(|(at, class)| Entry::new(at, class, 0, 0))
        .collect())
}

/// A slot's header in data area `data`: its stamp and value length.
fn header(data: &[u8], slot: Entry) -> (u64, u64) {
    let h = word(data, slot.slot_off());
    (h >> LEN_BITS, h & LEN_MASK)
}

/// The *n* a slot's seal word carries, whole or not: 0 but on a closing
/// slot.
pub fn seal_n(data: &[u8], slot: Entry) -> u64 {
    word(data, slot.slot_off() + 8) >> 32
}

/// The seal's `n` of a whole slot; `None` for a torn one, or one whose
/// checksum fails.
fn whole(data: &[u8], slot: Entry) -> Option<u64> {
    let at = slot.slot_off();
    let header = word(data, at);
    let key = Some(word(data, slot.node()));
    let (key, len) = match header & LEN_MASK {
        LEN_MASK => (None, 0),
        len if len as usize <= capacity(slot.class()) => (key, len),
        _ => return None,
    };
    let value = &data[at + SLOT_HEADER..at + SLOT_HEADER + len as usize];
    let n = seal_n(data, slot);
    (seal_word(header, n, key, value) == word(data, at + 8)).then_some(n)
}

/// What one pass over the segments finds.
#[derive(Debug)]
pub struct Survey {
    /// Every live key's committed slot.
    pub live: HashMap<u64, Entry>,
    /// Per class, the free blocks in address order, each with the slot
    /// that does not decide it.
    pub free: [Vec<Entry>; MAX_CLASS + 1],
    /// Headers of slots stamped above the epoch: a dead FASE's, to void.
    stale: Vec<usize>,
}

/// Why an image cannot be served as a shard's node store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The image is shorter than the data area.
    Recovery(RecoveryError),
    /// The head line is not a shard's: the magic word is missing.
    BadHead(&'static str),
    /// A class byte or a segment breaks a rule of the segment table.
    BadSegment(SegmentError),
    /// A slot breaks the commit rule.
    BadSeal(SealError),
    /// A node breaks a rule of the layout.
    BadNode {
        /// The node's offset in the data area.
        at: usize,
        /// Which rule broke.
        why: &'static str,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Recovery(e) => write!(f, "FASE recovery failed: {e}"),
            ImageError::BadHead(why) => write!(f, "no shard head: {why}"),
            ImageError::BadSegment(e) => write!(f, "{e}"),
            ImageError::BadSeal(e) => write!(f, "{e}"),
            ImageError::BadNode { at, why } => write!(f, "bad node at {at:#x}: {why}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<RecoveryError> for ImageError {
    fn from(e: RecoveryError) -> Self {
        ImageError::Recovery(e)
    }
}

/// The nodes of one runtime's data area, and what is volatile about
/// them.
#[derive(Debug)]
pub struct Nodes {
    /// The runtime whose data area holds the nodes.
    pub rt: FaseRuntime,
    /// Where the class table and the segments lie.
    table: SegmentTable,
    /// Volatile: the first segment never carved (`segments` if none).
    uncarved: usize,
    /// Volatile: the stamp of the last committed FASE. Every FASE stamps
    /// its slots one above.
    committed: u64,
    /// Volatile: slots the last rebuild voided.
    voided: usize,
    /// Volatile: per class, the free blocks, next one last.
    free: [Vec<Entry>; MAX_CLASS + 1],
    /// A slot, or a fresh node's first bytes, composed for its one store
    /// (reused).
    slot_buf: Vec<u8>,
}

impl Nodes {
    /// An empty store over `rt`'s data area: its magic word persisted.
    pub fn new(mut rt: FaseRuntime) -> Self {
        rt.persist(0, &MAGIC.to_le_bytes());
        Self::assemble(rt)
    }

    /// Re-attach to a reopened runtime's image, which may be anything:
    /// the recovery passes and the void pass, then the store and every
    /// live key's committed slot — or a typed error, never a hang or a
    /// panic.
    pub fn open(rt: FaseRuntime) -> Result<(Self, HashMap<u64, Entry>), ImageError> {
        if rt.data_len() < CLASS_TABLE || rt.region().read_u64(0) != MAGIC {
            return Err(ImageError::BadHead("no magic word"));
        }
        let mut nodes = Self::assemble(rt);
        let live = nodes.recover(true)?;
        Ok((nodes, live))
    }

    fn assemble(rt: FaseRuntime) -> Self {
        Nodes {
            table: SegmentTable::new(rt.data_len()),
            rt,
            uncarved: 0,
            committed: 0,
            voided: 0,
            free: Default::default(),
            slot_buf: Vec::new(),
        }
    }

    /// Slots the last recovery voided: a FASE's that did not commit.
    pub fn voided(&self) -> usize {
        self.voided
    }

    /// Per class, the free blocks, the next one [`Nodes::take`] hands
    /// out last.
    pub fn free_lists(&self) -> &[Vec<Entry>; MAX_CLASS + 1] {
        &self.free
    }

    /// The data area: the head line, the class table and the segments.
    fn data(&self) -> &[u8] {
        self.rt.region().slice(0, self.rt.data_len())
    }

    /// A copy of the value in the slot `entry` names.
    #[inline]
    pub fn value(&mut self, entry: Entry) -> Vec<u8> {
        let mut v = vec![0u8; entry.vlen()];
        self.rt.load(entry.slot_off() + SLOT_HEADER, &mut v);
        v
    }

    /// A free block of `class`, carving a segment for it if the class
    /// has none; `None` when every segment is carved.
    pub fn take(&mut self, class: usize) -> Option<Entry> {
        if self.free[class].is_empty() {
            let seg = self.uncarved;
            if seg == self.table.segments() {
                return None;
            }
            // durable under every policy before a node of the segment
            // is written
            self.table.carve(&mut self.rt, seg, class);
            let blocks = self.table.blocks_of(seg, class).rev();
            self.free[class].extend(blocks.map(|node| Entry::new(node, class, 0, 0)));
            self.uncarved = self.table.first_uncarved(self.data(), seg + 1);
        }
        self.free[class].pop()
    }

    /// Put `block` back on its class's free list, to be taken next.
    #[inline]
    pub fn release(&mut self, block: Entry) {
        self.free[block.class()].push(block.with_len(0));
    }

    /// Open a FASE; returns the stamp its slots carry.
    pub fn begin(&mut self) -> u64 {
        let stamp = seal::next(self.committed);
        self.rt.begin_fase();
        stamp
    }

    /// One unlogged store of `slot` for the FASE stamped `stamp`: its
    /// header, its seal — `n` as the commit rule's fold reads it, or
    /// `None` for a write its FASE repeats, whose checksum fails — and
    /// `value`, or a tombstone for `None`. With `keyed`, the node's key
    /// word is stored too: in the same store in front of slot 0, on its
    /// own before slot 1. Nothing committed reads what it writes.
    pub fn store_slot(
        &mut self,
        slot: Entry,
        (stamp, n): (u64, Option<u64>),
        key: u64,
        keyed: bool,
        value: Option<&[u8]>,
    ) {
        self.slot_buf.clear();
        let at = match (keyed, slot.slot()) {
            (true, 0) => {
                self.slot_buf.extend_from_slice(&key.to_le_bytes());
                slot.node()
            }
            (true, _) => {
                self.rt.store_fresh(slot.node(), &key.to_le_bytes());
                slot.slot_off()
            }
            (false, _) => slot.slot_off(),
        };
        let (vlen, bytes) = value.map_or((LEN_MASK, &[][..]), |v| (v.len() as u64, v));
        let header = slot_header(stamp, vlen);
        let sum = seal_word(header, n.unwrap_or(0), value.map(|_| key), bytes);
        let seal = n.map_or(!sum & 0xffff_ffff, |_| sum);
        self.slot_buf.extend_from_slice(&header.to_le_bytes());
        self.slot_buf.extend_from_slice(&seal.to_le_bytes());
        self.slot_buf.extend_from_slice(bytes);
        self.rt.store_fresh(at, &self.slot_buf);
    }

    /// Close the open FASE stamped `stamp`: one drain, one fence. Its
    /// sealed slots are its commit.
    pub fn commit(&mut self, stamp: u64) {
        self.rt.end_fase();
        self.committed = stamp;
    }

    /// The stamp of the last committed FASE, after a power failure: the
    /// commit rule's fold over every slot, each named by its offset.
    pub fn last_committed(&self) -> Result<u64, ImageError> {
        let data = self.data();
        let slots = nodes(data)?.into_iter().flat_map(|n| [n, n.other()]);
        let units = slots.map(|slot| {
            let at = slot.slot_off() as u64;
            (at, header(data, slot).0, move || whole(data, slot))
        });
        seal::committed(units).map_err(ImageError::BadSeal)
    }

    /// The one pass over the segments that recovery, a shard's dump and
    /// its index check share, with stamps `1..=committed` committed. The
    /// region may be a foreign image, so every class byte, every segment
    /// never carved and every node is checked against the rules of the
    /// module doc.
    pub fn survey(&self) -> Result<Survey, ImageError> {
        let data = self.data();
        let mut survey = Survey {
            live: HashMap::new(),
            free: Default::default(),
            stale: Vec::new(),
        };
        for slot0 in nodes(data)? {
            let (node, class) = (slot0.node(), slot0.class());
            let slots = [slot0, slot0.other()];
            let [(s0, l0), (s1, l1)] = slots.map(|slot| header(data, slot));
            let (stamps, lens) = ([s0, s1], [l0, l1]);
            let committed = stamps.map(|s| (1..=self.committed).contains(&s));
            let bad = |why| ImageError::BadNode { at: node, why };
            for (i, slot) in slots.into_iter().enumerate() {
                if stamps[i] > self.committed {
                    survey.stale.push(slot.slot_off());
                }
                if stamps[i] != 0 && lens[i] != LEN_MASK && lens[i] > capacity(class) as u64 {
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
            if deciding.is_some_and(|d| whole(data, slots[d]).is_none()) {
                return Err(bad("a deciding slot whose seal fails"));
            }
            match deciding {
                Some(d) if lens[d] != LEN_MASK => {
                    let entry = slots[d].with_len(lens[d] as usize);
                    if survey.live.insert(word(data, node), entry).is_some() {
                        return Err(bad("a key live in two nodes"));
                    }
                }
                // an insert writes the slot that does not decide
                _ => survey.free[class].push(slots[deciding.map_or(0, |d| 1 - d)]),
            }
        }
        Ok(survey)
    }

    /// Every live key's committed slot, by [`Nodes::survey`].
    pub fn live(&self) -> HashMap<u64, Entry> {
        self.survey().expect(OWN_REGION).live
    }

    /// The recovery that reopening, an injected crash and a healed panic
    /// share: the fold into the last committed FASE (unless `fold` is
    /// off: healing knows it), the survey, which rebuilds the free lists,
    /// and the void pass. Returns every live key's committed slot.
    fn recover(&mut self, fold: bool) -> Result<HashMap<u64, Entry>, ImageError> {
        if fold {
            self.committed = self.last_committed()?;
        }
        let survey = self.survey()?;
        self.free = survey.free.map(|mut blocks| {
            blocks.reverse(); // the lowest address is taken first
            blocks
        });
        self.uncarved = self.table.first_uncarved(self.data(), 0);
        // The void pass: stamp 0 on what nothing committed reads, so the
        // stores need no undo record, in a FASE that commits nothing — a
        // crash inside it leaves slots the next rebuild voids again.
        self.voided = survey.stale.len();
        if !survey.stale.is_empty() {
            self.rt.begin_fase();
            for &at in &survey.stale {
                self.rt.store_fresh(at, &0u64.to_le_bytes());
            }
            self.rt.end_fase();
        }
        Ok(survey.live)
    }

    /// Inject a power failure in-process and recover; returns every live
    /// key's committed slot. Panics when the recovered segments are
    /// unsound, which takes a policy that is not crash-consistent
    /// (`Best`) under an adversary that tears.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) -> HashMap<u64, Entry> {
        self.rt.crash_and_recover(mode);
        self.recover(true).expect(OWN_REGION)
    }

    /// Recover after a panic unwound through a FASE
    /// ([`FaseRuntime::heal_after_panic`]): its slots are voided, however
    /// many it stored. `None` when no FASE was open.
    pub fn heal_after_panic(&mut self) -> Option<HashMap<u64, Entry>> {
        let healed = self.rt.heal_after_panic();
        healed.then(|| self.recover(false).expect(OWN_REGION))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::PolicyKind;
    use nvcache_pmem::PmemRegion;

    /// The shape of a store under test.
    struct Cfg {
        data_len: usize,
        policy: PolicyKind,
    }

    fn small(policy: PolicyKind) -> Cfg {
        Cfg {
            data_len: 1 << 18,
            policy,
        }
    }

    /// A node store with the index a shard keeps over it: just enough
    /// of a shard to write the images the tests below patch.
    struct Store {
        nodes: Nodes,
        index: HashMap<u64, Entry>,
    }

    impl Store {
        fn new(cfg: &Cfg) -> Self {
            let rt = FaseRuntime::new(cfg.data_len, 0, &cfg.policy);
            let (nodes, index) = (Nodes::new(rt), HashMap::new());
            Store { nodes, index }
        }

        fn reopen_from_image(image: Vec<u8>, cfg: &Cfg) -> Result<Self, ImageError> {
            let region = PmemRegion::from_image(image);
            let rt = FaseRuntime::try_reopen(region, cfg.data_len, 0, &cfg.policy)?;
            let (nodes, index) = Nodes::open(rt)?;
            Ok(Store { nodes, index })
        }

        /// A shard's group of one: an update into the node's other slot
        /// (of a value that keeps its class), or an insert into a free
        /// block.
        fn put(&mut self, key: u64, value: &[u8]) -> bool {
            let (slot, keyed) = match self.index.get(&key) {
                Some(entry) => (entry.other(), false),
                None => match self.nodes.take(class_of(value.len())) {
                    Some(block) => (block, true),
                    None => return false,
                },
            };
            let stamp = self.nodes.begin();
            self.nodes
                .store_slot(slot, (stamp, Some(1)), key, keyed, Some(value));
            self.nodes.commit(stamp);
            self.index.insert(key, slot.with_len(value.len()));
            true
        }

        fn get(&mut self, key: u64) -> Option<Vec<u8>> {
            let entry = *self.index.get(&key)?;
            Some(self.nodes.value(entry))
        }

        fn len(&self) -> usize {
            self.index.len()
        }

        fn voided_slots(&self) -> usize {
            self.nodes.voided()
        }

        /// The index and the free lists are the heap: one pass over the
        /// segments finds exactly the live keys the index holds and the
        /// free blocks the free lists hold.
        fn index_matches_heap(&mut self) -> Result<(), String> {
            let survey = self.nodes.survey().map_err(|e| e.to_string())?;
            if survey.live != self.index {
                return Err(format!(
                    "live {:x?}, indexed {:x?}",
                    survey.live, self.index
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

    /// A sound image holding keys `0..8` with 8-byte values (64-byte
    /// nodes in segment 0, key `k` put by the FASE stamped `k + 1`), and
    /// the store it came from.
    fn sound_image(cfg: &Cfg) -> (Vec<u8>, Store) {
        let mut s = Store::new(cfg);
        for k in 0..8u64 {
            assert!(s.put(k, &[k as u8; 8]));
        }
        s.nodes.rt.sync();
        (s.nodes.rt.region().durable_image().to_vec(), s)
    }

    fn patched(image: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut image = image.to_vec();
        image[at..at + bytes.len()].copy_from_slice(bytes);
        image
    }

    fn word(w: u64) -> [u8; 8] {
        w.to_le_bytes()
    }

    /// The bytes of a whole slot holding `value` (a tombstone for
    /// `None`) of node `key`, stamped `stamp` by a FASE of `n` slots.
    fn sealed_slot(stamp: u64, n: u64, key: u64, value: Option<&[u8]>) -> Vec<u8> {
        let vlen = value.map_or(LEN_MASK, |v| v.len() as u64);
        let header = slot_header(stamp, vlen);
        let bytes = value.unwrap_or_default();
        let mut slot = word(header).to_vec();
        slot.extend(word(seal_word(header, n, value.map(|_| key), bytes)));
        slot.extend(bytes);
        slot
    }

    /// An image whose head is not this layout's — another heap's magic,
    /// the magics of the layouts before slots were sealed and before one
    /// closing slot carried the count, all zeros — is refused with a
    /// typed error before any segment is read, and so is an image
    /// shorter than the data area, down to an empty one. A shard's
    /// region is its data area alone. (The name is the one the test had
    /// when a bucket array hung off the head.)
    #[test]
    fn reopen_rejects_an_image_without_a_bucket_array() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let (sound, s) = sound_image(&cfg);
        assert_eq!(s.nodes.rt.region().len(), cfg.data_len, "no log area");
        let reopened = |image| Store::reopen_from_image(image, &cfg).map(|s| s.len());
        for magic in [b"NVCACHE1", b"NVSHARD1", b"NVSHARD2"] {
            let got = reopened(patched(&sound, 0, magic));
            assert_eq!(got, Err(ImageError::BadHead("no magic word")));
        }
        let zeros = vec![0u8; cfg.data_len];
        assert_eq!(reopened(zeros), Err(ImageError::BadHead("no magic word")));
        for region_len in [cfg.data_len - 64, 0] {
            let short = RecoveryError::RegionTooSmall {
                region_len,
                need: cfg.data_len,
            };
            let got = reopened(sound[..region_len].to_vec());
            assert_eq!(got, Err(ImageError::Recovery(short)));
        }
    }

    /// Every rule of the node layout and of the commit point a hostile
    /// image can break below its head, and the shard's own bound on the
    /// segment table, ends in a typed error that names it — no panic, no
    /// read outside the data area — and a torn last FASE or a slot no
    /// FASE committed is not one of them. (The name is
    /// the one the test had when nodes were chained off a bucket array.)
    #[test]
    fn reopen_rejects_hostile_chains_with_a_typed_error() {
        let cfg = small(PolicyKind::ScFixed { capacity: 8 });
        let (sound, s) = sound_image(&cfg);
        let mut back = Store::reopen_from_image(sound.clone(), &cfg).expect("sound image");
        assert_eq!((back.len(), back.voided_slots()), (8, 0));
        back.index_matches_heap().unwrap();
        let (a, b, last) = (s.index[&0], s.index[&1], s.index[&7]);
        let (node, first, second) = (a.node(), a.slot_off(), a.other().slot_off());
        let top = s.nodes.committed;
        assert_eq!(top, 8);
        let segment = |segment, why| ImageError::BadSegment(SegmentError { segment, why });
        let bad_node = |at, why| ImageError::BadNode { at, why };
        let bad_seal = |unit: usize, why| {
            ImageError::BadSeal(SealError {
                unit: unit as u64,
                why,
            })
        };
        let forged = |stamp, n| sealed_slot(stamp, n, 0, Some(&[9; 8]));
        // the segment table's rules have their hostile images in
        // `crate::segments`; this one is the shard's own bound
        let cases: Vec<(&str, Vec<u8>, ImageError)> = vec![
            (
                "a class that holds no slot",
                patched(&sound, CLASS_TABLE, &[MIN_CLASS as u8 - 1]),
                segment(0, "a class too small for the owner"),
            ),
            (
                "a value longer than the class holds",
                patched(
                    &sound,
                    first,
                    &word(slot_header(1, capacity(a.class()) as u64 + 1)),
                ),
                bad_node(node, "a slot longer than its class holds"),
            ),
            (
                "a length only a tombstone may have",
                patched(&sound, second, &word(slot_header(top, LEN_MASK - 1))),
                bad_node(node, "a slot longer than its class holds"),
            ),
            (
                "two committed slots with one stamp",
                patched(&sound, second, &sound[first..first + 8]),
                bad_node(node, "two committed slots with one stamp"),
            ),
            (
                "one key in two live nodes",
                // key 0 in key 1's node, sealed by key 1's FASE
                patched(
                    &patched(&sound, b.node(), &word(0)),
                    b.slot_off(),
                    &sealed_slot(2, 1, 0, Some(&[0; 8])),
                ),
                bad_node(b.node(), "a key live in two nodes"),
            ),
            (
                "a seal that fails below the highest stamp",
                patched(&sound, first + SLOT_HEADER, &[7]),
                bad_node(node, "a deciding slot whose seal fails"),
            ),
            (
                "a stamp at the limit",
                patched(&sound, second, &word(slot_header(seal::STAMP_LIMIT, 0))),
                bad_seal(second, "a stamp in the reserved range"),
            ),
            (
                "more whole slots at one stamp than its n",
                patched(&sound, second, &forged(top, 0)),
                bad_seal(last.slot_off(), "more whole units than their FASE wrote"),
            ),
            (
                "two closing slots of one FASE",
                patched(&sound, second, &forged(top, 2)),
                bad_seal(last.slot_off(), "a second closing unit of one FASE"),
            ),
        ];
        for (name, image, want) in cases {
            let got = Store::reopen_from_image(image, &cfg).map(|s| s.len());
            assert_eq!(got, Err(want), "{name}");
        }
        // a torn last FASE is voided, and slots no FASE committed decide
        // nothing: a node whose slots are both void is a free block
        let torn = |slot: Entry| patched(&sound, slot.slot_off() + SLOT_HEADER, &[0xee]);
        for (name, image, gone, voided) in [
            ("both void", patched(&sound, first, &word(0)), a, 0),
            ("the last FASE torn", torn(last), last, 1),
        ] {
            let mut r = Store::reopen_from_image(image, &cfg).expect(name);
            assert_eq!((r.len(), r.voided_slots()), (7, voided), "{name}");
            r.index_matches_heap().unwrap();
            let key = s.index.iter().find(|&(_, &e)| e == gone).map(|(&k, _)| k);
            assert_eq!(r.get(key.unwrap()), None, "{name}");
            let free = Entry::new(gone.node(), gone.class(), 0, 0);
            assert_eq!(
                r.nodes.free_lists()[gone.class()].last(),
                Some(&free),
                "{name}"
            );
        }
        // a FASE after the last committed one that landed one slot of two
        let short = patched(&sound, second, &forged(top + 1, 2));
        let mut r = Store::reopen_from_image(short, &cfg).expect("one slot short");
        assert_eq!((r.len(), r.voided_slots(), r.nodes.committed), (8, 1, top));
        assert_eq!(r.get(0).as_deref(), Some(&[0u8; 8][..]));
        r.index_matches_heap().unwrap();
    }

    /// An image whose last stamp is one short of the last a slot can
    /// carry serves one more FASE, and reopens after it.
    #[test]
    fn the_last_stamp_is_served() {
        let cfg = small(PolicyKind::Lazy);
        let mut s = Store::new(&cfg);
        assert!(s.put(1, b"zero"));
        s.nodes.rt.sync();
        let only = s.index[&1];
        let last = seal::STAMP_LIMIT - 2;
        let slot = sealed_slot(last, 1, 1, Some(b"zero"));
        let image = patched(s.nodes.rt.region().durable_image(), only.slot_off(), &slot);
        let mut r = Store::reopen_from_image(image, &cfg).expect("one stamp left");
        assert_eq!(r.nodes.committed, last);
        assert!(r.put(1, b"one"), "an update");
        assert_eq!(r.nodes.committed, seal::STAMP_LIMIT - 1);
        r.nodes.rt.sync();
        let image = r.nodes.rt.region().durable_image().to_vec();
        let mut again = Store::reopen_from_image(image, &cfg).expect("the last stamp");
        assert_eq!(again.get(1).as_deref(), Some(&b"one"[..]));
    }
}
