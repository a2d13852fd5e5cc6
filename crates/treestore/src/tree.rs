//! The recoverable copy-on-write B+-tree with MVCC snapshot reads.
//!
//! # Layout
//!
//! Fixed 256-byte pages carved from 4 KiB segments (PAlloc's largest
//! size class), addressed by *physical page id* `phys` through a
//! durable segment table. Every tree page opens with a 24-byte header
//! of three little-endian words:
//!
//! ```text
//! w0: tag (low 8 bits) | count (bits 8..32)
//! w1: logical page id (value cells store LPID_NONE)
//! w2: version of the commit that wrote the page
//! ```
//!
//! Leaves hold up to 14 `(key, value-cell phys)` pairs; inner nodes up
//! to 14 separator keys and 15 child *logical* ids; value cells hold
//! up to 232 raw bytes (`count` = length). Values larger than one cell
//! are rejected up front (`TreeError::ValueTooLarge`) — the KV engine
//! layered above enforces the same cap at its boundary.
//!
//! # Logical indirection and MVCC
//!
//! Tree nodes reference children by **logical** page id; a volatile
//! slot table indexed by it (logical ids come from a counter and are
//! never freed, so the table is an array — see `Slot`) names which
//! physical copy serves which commit version. Copy-on-write keeps the
//! logical id stable, so rewriting a leaf touches *no* ancestor — only
//! structural changes (splits) edit parents. Reading a page is a borrow
//! of the store's bytes ([`crate::PageRead::page`]): a descent copies
//! nothing.
//!
//! A writer stages CoW copies under `version + 1` inside one
//! failure-atomic section and publishes the new root + remap entries at
//! commit. The staged pages are shadow memory — nothing committed can
//! reach them until the meta head flips — so they are written
//! **unlogged** ([`crate::PageWrite::write_fresh`]). The 64-byte meta
//! head is the only in-place update of a commit, and it is the commit
//! record itself ([`crate::PageWrite::publish`]): written after the
//! data fence, flushed and fenced, with nothing logged. The meta block
//! holds two head slots and a commit writes the one its version names
//! (`version & 1`), so the head it supersedes stays intact. Word 0 of a
//! slot is a checksum of words 1–7 seeded with the tree's magic
//! ([`nvcache_fase::checksum`]): hardware lands 8-byte words, not lines,
//! so a torn slot fails its check and attach falls back to the other
//! one — LMDB's two meta pages, one line each.
//!
//! # What a write stores
//!
//! A page is never written whole. The **used bytes** of a page are its
//! header plus what `count` covers — leaf `[0, HDR + 16·count)`, inner
//! `[0, HDR + 8·count)` and `[CHILD0, CHILD0 + 8·(count + 1))`, value
//! cell `[0, HDR + len)` — and nothing ever reads past them, so a
//! recycled page keeps whatever its tail held. `cow` tells the two
//! kinds of touch apart (crab-db's `LoadMut::{Clean, Dirty}`):
//!
//! - **Clean** — the transaction's first touch of the page: allocate
//!   the shadow page and copy the used bytes of the committed copy,
//!   version restamped (the page copy LMDB's `mdb_page_touch` makes);
//! - **Dirty** — `Slot::staged` already names the transaction's own
//!   copy: no copy at all.
//!
//! On either kind the edit then stores exactly the bytes it changed: an
//! overwrite is the 8-byte value pointer; an insert the shifted run of
//! entries `[pos, n]` and the count word; a delete the run
//! `[pos, n − 1)` and the count word; an inner insert the key run, the
//! child run and the count word. A page that splits is not copied
//! first: both halves (and a new root) are composed in memory and
//! written once, used bytes only. The persistence stack below sees
//! stores of the words the program changed — which is what lets the
//! paper's write-combining cache combine a transaction's second and
//! third touch of a leaf into the line flushes of the first.
//!
//! A reader calls [`Tree::pin`] to freeze a `(version, root)`
//! pair and scans it without blocking the writer. Superseded copies are
//! retired with the version that replaced them and recycled by
//! [`Tree::reclaim`] once no pin can still reach them.
//!
//! # Recovery
//!
//! The durable facts are: the meta block (root lpid, version, page
//! high-water mark, segment table, key count) published atomically per
//! commit, and the page headers. [`Tree::attach`] rebuilds everything
//! else: take the valid head slot with the higher version (two valid
//! slots of one version, or none, is `BadMeta`), check its fields
//! against each other (every logical page
//! owns a live physical one, so `next_lpid <= bump` — the slot table is
//! sized from it only after that), scan headers keeping the newest copy
//! per lpid at or below the committed version, walk the tree from the
//! durable root to mark reachable pages (validating tags, fanouts, key
//! order, and depth), and put every unreachable page — orphaned CoW
//! copies from the crashed transaction included — back on the free
//! list. Structural damage surfaces as a typed [`TreeError`], never as
//! undefined reads.
//!
//! A dead transaction's shadow pages keep whatever part of them
//! reached NVRAM, headers stamped `(lpid, committed + 1)` included —
//! and the retry commits under that same version. Left alone, such a
//! header would outrank the live, older copy of its lpid in the *next*
//! attach's scan. So before accepting writes, attach durably voids the
//! header of every node page below the high-water mark whose version
//! exceeds the committed one ([`Tree::voided_pages`] reports how many).
//! Voiding is zeroing, which is idempotent: the pages are dead, so the
//! zeroes are unlogged fresh writes in a section that publishes
//! nothing, and a crash mid-void leaves headers the next attach voids
//! again. Pages past the high-water
//! mark need no such care: the mark only advances over pages the
//! advancing transaction itself rewrites.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use nvcache_fase::{checksum, FaseStats, RecoveryError};
use nvcache_pmem::{CrashMode, CrashPlan};

use crate::pager::{FasePager, PageStore, TreeConfig, PAGE};

/// Page-header bytes (three u64 words).
const HDR: usize = 24;
/// Page tag: B+-tree leaf.
const TAG_LEAF: u64 = 1;
/// Page tag: B+-tree inner node.
const TAG_INNER: u64 = 2;
/// Page tag: immutable value cell.
const TAG_VAL: u64 = 3;
/// Entries per leaf.
const LEAF_CAP: usize = 14;
/// Separator keys per inner node (children = keys + 1).
const INNER_CAP: usize = 14;
/// Byte offset of child slot 0 in an inner page.
const CHILD0: usize = HDR + 8 * INNER_CAP;
/// Header lpid used by value cells (they have no logical id).
const LPID_NONE: u64 = u64::MAX;
/// "No physical page" in a [`Slot`].
const PHYS_NONE: u64 = u64::MAX;
/// Largest value a single cell can hold.
pub const MAX_VALUE: usize = PAGE - HDR;
/// Hard bound on tree depth (fanout 8+ makes real trees far shallower).
const MAX_DEPTH: u64 = 32;

/// Meta-head magic ("TREESTOR"): the seed of a head slot's checksum.
const MAGIC: u64 = 0x5452_4545_5354_4f52;
/// Meta block size (one PAlloc max-class allocation).
const META_BYTES: usize = 4096;
/// Bytes of one meta-head slot: one cache line. The meta block opens
/// with two of them.
const HEAD: usize = 64;
/// Byte offset of the table-block directory inside the meta block,
/// after the two head slots.
const SEG_TABLE: u64 = 2 * HEAD as u64;
/// Table-block directory capacity (meta block tail).
const SEG_SLOTS: usize = (META_BYTES - SEG_TABLE as usize) / 8;
/// Bytes per page segment (PAlloc's largest size class).
const SEG_BYTES: usize = 4096;
/// Pages per segment.
const PAGES_PER_SEG: u64 = (SEG_BYTES / PAGE) as u64;
/// Segment entries per table block. The segment table is two-level —
/// the meta block indexes table blocks, each indexing segments — so
/// the tree can address `SEG_SLOTS * SEG_TABLE_SLOTS` segments (~1 GiB
/// of pages) despite the heap's 4 KiB allocation cap.
const SEG_TABLE_SLOTS: usize = SEG_BYTES / 8;
/// Hard segment-count cap.
const MAX_SEGS: usize = SEG_SLOTS * SEG_TABLE_SLOTS;

// ---- byte helpers -----------------------------------------------------

#[inline]
fn get64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

#[inline]
fn set64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn hdr_write(buf: &mut [u8; PAGE], tag: u64, count: u64, lpid: u64, version: u64) {
    set64(buf, 0, tag | (count << 8));
    set64(buf, 8, lpid);
    set64(buf, 16, version);
}

#[inline]
fn hdr_tag(buf: &[u8; PAGE]) -> u64 {
    get64(buf, 0) & 0xff
}

#[inline]
fn hdr_count(buf: &[u8; PAGE]) -> usize {
    ((get64(buf, 0) >> 8) & 0xff_ffff) as usize
}

#[inline]
fn hdr_lpid(buf: &[u8; PAGE]) -> u64 {
    get64(buf, 8)
}

#[inline]
fn hdr_version(buf: &[u8; PAGE]) -> u64 {
    get64(buf, 16)
}

#[inline]
fn set_count(buf: &mut [u8; PAGE], count: usize) {
    let tag = get64(buf, 0) & 0xff;
    set64(buf, 0, tag | ((count as u64) << 8));
}

#[inline]
fn set_version(buf: &mut [u8; PAGE], version: u64) {
    set64(buf, 16, version);
}

#[inline]
fn leaf_key(buf: &[u8; PAGE], i: usize) -> u64 {
    get64(buf, HDR + 16 * i)
}

#[inline]
fn leaf_vptr(buf: &[u8; PAGE], i: usize) -> u64 {
    get64(buf, HDR + 16 * i + 8)
}

#[inline]
fn set_leaf_entry(buf: &mut [u8; PAGE], i: usize, key: u64, vptr: u64) {
    set64(buf, HDR + 16 * i, key);
    set64(buf, HDR + 16 * i + 8, vptr);
}

#[inline]
fn inner_key(buf: &[u8; PAGE], i: usize) -> u64 {
    get64(buf, HDR + 8 * i)
}

#[inline]
fn set_inner_key(buf: &mut [u8; PAGE], i: usize, key: u64) {
    set64(buf, HDR + 8 * i, key);
}

#[inline]
fn inner_child(buf: &[u8; PAGE], i: usize) -> u64 {
    get64(buf, CHILD0 + 8 * i)
}

#[inline]
fn set_inner_child(buf: &mut [u8; PAGE], i: usize, child: u64) {
    set64(buf, CHILD0 + 8 * i, child);
}

/// Byte range of leaf entries `[from, to)`.
#[inline]
fn leaf_run(from: usize, to: usize) -> Range<usize> {
    HDR + 16 * from..HDR + 16 * to
}

/// The value-pointer word of leaf entry `i`.
#[inline]
fn vptr_word(i: usize) -> Range<usize> {
    HDR + 16 * i + 8..HDR + 16 * i + 16
}

/// Byte range of inner separator keys `[from, to)`.
#[inline]
fn key_run(from: usize, to: usize) -> Range<usize> {
    HDR + 8 * from..HDR + 8 * to
}

/// Byte range of inner child slots `[from, to)`.
#[inline]
fn child_run(from: usize, to: usize) -> Range<usize> {
    CHILD0 + 8 * from..CHILD0 + 8 * to
}

/// The header word holding tag and count.
const COUNT_WORD: Range<usize> = 0..8;

/// The used bytes of node page `buf` — its header and what its count
/// covers: one run for a leaf, two for an inner page (the second run of
/// a leaf is empty). Nothing reads a node page outside them.
#[inline]
fn used_runs(buf: &[u8; PAGE]) -> [Range<usize>; 2] {
    let n = hdr_count(buf);
    if hdr_tag(buf) == TAG_LEAF {
        [0..leaf_run(0, n).end, 0..0]
    } else {
        [0..key_run(0, n).end, child_run(0, n + 1)]
    }
}

/// Index of the child of inner page `buf` whose range covers `key`.
#[inline]
fn child_index(buf: &[u8; PAGE], key: u64) -> usize {
    let n = hdr_count(buf);
    let mut idx = 0;
    while idx < n && key >= inner_key(buf, idx) {
        idx += 1;
    }
    idx
}

/// `(count, pos)` of leaf `buf`: `pos` is the first entry whose key is
/// not below `key` (`count` when there is none).
#[inline]
fn leaf_position(buf: &[u8; PAGE], key: u64) -> (usize, usize) {
    let n = hdr_count(buf);
    let mut pos = 0;
    while pos < n && leaf_key(buf, pos) < key {
        pos += 1;
    }
    (n, pos)
}

// ---- meta head --------------------------------------------------------

/// What a commit publishes, into one of the meta block's two slots:
///
/// ```text
/// w0: checksum of w1..w7, seeded with MAGIC
/// w1: version      w2: root lpid   w3: next lpid   w4: bump
/// w5: nsegs        w6: len         w7: height
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    version: u64,
    root_lpid: u64,
    next_lpid: u64,
    /// Physical-page high-water mark.
    bump: u64,
    nsegs: u64,
    len: u64,
    height: u64,
}

impl Head {
    /// Offset of the slot the head of `version` is published to: the
    /// slots alternate, so a commit never overwrites the head it
    /// supersedes.
    fn slot(meta_off: u64, version: u64) -> u64 {
        meta_off + HEAD as u64 * (version & 1)
    }

    /// The slot's bytes, sealed with their checksum.
    fn encode(&self) -> [u8; HEAD] {
        let Head {
            version,
            root_lpid,
            next_lpid,
            bump,
            nsegs,
            len,
            height,
        } = *self;
        let mut b = [0u8; HEAD];
        let words = [version, root_lpid, next_lpid, bump, nsegs, len, height];
        for (i, w) in words.into_iter().enumerate() {
            set64(&mut b, 8 * (i + 1), w);
        }
        let sum = checksum(MAGIC, &b[8..]);
        set64(&mut b, 0, sum);
        b
    }

    /// The head in slot bytes `b`, if their checksum holds: a torn or
    /// never-written slot reads as `None`.
    fn decode(b: &[u8]) -> Option<Head> {
        let w = |i: usize| get64(b, 8 * i);
        (w(0) == checksum(MAGIC, &b[8..HEAD])).then(|| Head {
            version: w(1),
            root_lpid: w(2),
            next_lpid: w(3),
            bump: w(4),
            nsegs: w(5),
            len: w(6),
            height: w(7),
        })
    }
}

// ---- errors -----------------------------------------------------------

/// Typed failures from the tree engine. Structural variants
/// (`BadMeta` / `BadPage` / `UnresolvedChild`) only arise when
/// attaching to a damaged image; live operations see `ValueTooLarge`
/// and `Full`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The value exceeds one cell ([`MAX_VALUE`] bytes).
    ValueTooLarge {
        /// Offered length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The backing heap (or the segment table) is exhausted.
    Full,
    /// The durable meta block is missing or inconsistent.
    BadMeta(&'static str),
    /// A reachable page violates a structural invariant.
    BadPage {
        /// Physical page id of the offender.
        phys: u64,
        /// Which invariant broke.
        why: &'static str,
    },
    /// A child logical id has no surviving physical copy.
    UnresolvedChild {
        /// The unresolvable logical page id.
        lpid: u64,
    },
    /// The FASE layer itself could not recover the image.
    Recovery(RecoveryError),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the {max}-byte cell cap")
            }
            TreeError::Full => write!(f, "tree storage exhausted"),
            TreeError::BadMeta(why) => write!(f, "bad tree meta block: {why}"),
            TreeError::BadPage { phys, why } => write!(f, "bad tree page {phys}: {why}"),
            TreeError::UnresolvedChild { lpid } => {
                write!(f, "no surviving copy of logical page {lpid}")
            }
            TreeError::Recovery(e) => write!(f, "FASE recovery failed: {e}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<RecoveryError> for TreeError {
    fn from(e: RecoveryError) -> Self {
        TreeError::Recovery(e)
    }
}

// ---- MVCC surface -----------------------------------------------------

/// A pinned read view: `(version, root)` frozen at [`Tree::pin`] time.
/// Reads through a snapshot never observe commits newer than its
/// version; the pages it can reach are not recycled until the snapshot
/// is passed back to [`Tree::unpin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    version: u64,
    root_lpid: u64,
}

impl Snapshot {
    /// The commit version this snapshot reads at.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// A retired physical page: superseded (or orphaned) by the commit at
/// `version`, freeable once no pin is older than that commit.
#[derive(Debug, Clone, Copy)]
struct Retired {
    phys: u64,
    /// The logical id whose remap entry must be pruned on free
    /// (`LPID_NONE` for value cells).
    lpid: u64,
    version: u64,
}

/// One entry of the remap table, indexed by logical page id: which
/// physical copy of the page a reader at a given version sees.
#[derive(Debug, Clone)]
struct Slot {
    /// Version of the newest committed copy (`u64::MAX` when there is
    /// none yet, so no reader's version reaches it).
    version: u64,
    /// The newest committed copy ([`PHYS_NONE`] when there is none).
    phys: u64,
    /// The open transaction's copy ([`PHYS_NONE`] when it has not
    /// touched the page): where its second write to the page lands and
    /// what a read at its version sees.
    staged: u64,
    /// Superseded copies a pin can still reach, ascending by version.
    /// Only ever non-empty while a snapshot is pinned: with no pin at
    /// commit time nothing can read below the new version and the
    /// commit's own `reclaim` frees every copy it superseded.
    older: Vec<(u64, u64)>,
}

impl Slot {
    const EMPTY: Slot = Slot {
        version: u64::MAX,
        phys: PHYS_NONE,
        staged: PHYS_NONE,
        older: Vec::new(),
    };
}

/// Open-transaction state: everything staged under `version`, published
/// to readers only when the FASE commits. What the transaction staged
/// and retired is listed in buffers the tree owns (`Tree::staged`,
/// `Tree::txn_retired`), so opening one allocates nothing.
struct Txn {
    version: u64,
    root_lpid: u64,
    next_lpid: u64,
    len: u64,
    height: u64,
    /// Index into `segs` where this transaction's new segments begin
    /// (their table entries are written at commit).
    first_new_seg: usize,
    /// Index into `seg_tables` where this transaction's new table
    /// blocks begin (their directory entries are written at commit).
    first_new_table: usize,
}

/// Volatile state rebuilt from the durable image by
/// [`rebuild_state`] — shared by [`Tree::attach`] and post-crash
/// reloads.
struct Volatile {
    meta_off: u64,
    head: Head,
    seg_tables: Vec<u64>,
    segs: Vec<u64>,
    free: Vec<u64>,
    slots: Vec<Slot>,
    /// Dead-transaction node pages whose headers were voided.
    voided: usize,
}

// ---- the tree ---------------------------------------------------------

/// The copy-on-write B+-tree engine over any [`PageStore`] backend
/// (production: [`FasePager`]; tests: `MemPager`).
///
/// Writes are transactional: [`Tree::begin`] opens a failure-atomic
/// section, [`Tree::put`] / [`Tree::delete`] stage CoW pages under the
/// next version, [`Tree::commit`] makes the whole group durable and
/// visible at once. Reads ([`Tree::get`], [`Tree::scan`]) take `&self`
/// and may target a pinned [`Snapshot`].
pub struct Tree<S: PageStore = FasePager> {
    store: S,
    meta_off: u64,
    /// Latest committed version.
    version: u64,
    root_lpid: u64,
    next_lpid: u64,
    /// Physical-page high-water mark.
    bump: u64,
    nsegs: u64,
    len: u64,
    height: u64,
    /// Table-block offsets (mirrors the durable directory).
    seg_tables: Vec<u64>,
    /// Segment base offsets (mirrors the durable two-level table).
    segs: Vec<u64>,
    /// Recycled physical pages.
    free: Vec<u64>,
    /// Superseded pages awaiting a safe reclaim horizon.
    retired: Vec<Retired>,
    /// The remap table: one [`Slot`] per logical page id.
    slots: Vec<Slot>,
    /// version -> pin count.
    pins: BTreeMap<u64, u64>,
    /// Stale shadow headers the last attach / recovery voided.
    voided: usize,
    txn: Option<Txn>,
    /// Logical ids the open transaction holds a staged copy of, in the
    /// order it first touched them (what `commit` publishes).
    staged: Vec<u64>,
    /// `(phys, lpid)` of the pages the open transaction supersedes, in
    /// the order it did (the order they later enter the free list).
    txn_retired: Vec<(u64, u64)>,
    /// The inner `(lpid, child index)` path of the `put` in progress.
    path: Vec<(u64, usize)>,
    /// The differential reference: every store of part of a page
    /// rewrites the whole page from the in-memory image instead.
    #[cfg(test)]
    whole_pages: bool,
}

impl<S: PageStore> Tree<S> {
    /// Format a fresh tree (empty root leaf, version 1) onto `store`
    /// and attach to it.
    pub fn format(mut store: S) -> Result<Tree<S>, TreeError> {
        let meta_off = store.alloc_block(META_BYTES).ok_or(TreeError::Full)?;
        let table0 = store.alloc_block(SEG_BYTES).ok_or(TreeError::Full)?;
        let seg0 = store.alloc_block(SEG_BYTES).ok_or(TreeError::Full)?;
        let mut leaf = [0u8; PAGE];
        hdr_write(&mut leaf, TAG_LEAF, 0, 0, 1);
        // page 0 is the root leaf; the other slot of the freshly carved
        // (zeroed) meta block fails its check
        let head = Head {
            version: 1,
            root_lpid: 0,
            next_lpid: 1,
            bump: 1,
            nsegs: 1,
            len: 0,
            height: 1,
        };
        store.begin();
        store.write_fresh(meta_off + SEG_TABLE, &table0.to_le_bytes());
        store.write_fresh(table0, &seg0.to_le_bytes());
        store.write_fresh(seg0, &leaf[..HDR]);
        store.publish(Head::slot(meta_off, head.version), &head.encode());
        store.commit();
        store.set_root(meta_off);
        Tree::attach(store)
    }

    /// Attach to a store already holding a formatted tree, rebuilding
    /// all volatile state (remap table, free list) from the durable
    /// root. Orphaned CoW pages from an interrupted transaction are
    /// swept onto the free list and their stale headers durably voided
    /// (see the module docs); structural damage is reported as a typed
    /// error before anything is written.
    pub fn attach(mut store: S) -> Result<Tree<S>, TreeError> {
        let v = rebuild_state(&mut store)?;
        Ok(Tree {
            store,
            meta_off: v.meta_off,
            version: v.head.version,
            root_lpid: v.head.root_lpid,
            next_lpid: v.head.next_lpid,
            bump: v.head.bump,
            nsegs: v.head.nsegs,
            len: v.head.len,
            height: v.head.height,
            seg_tables: v.seg_tables,
            segs: v.segs,
            free: v.free,
            retired: Vec::new(),
            slots: v.slots,
            pins: BTreeMap::new(),
            voided: v.voided,
            txn: None,
            staged: Vec::new(),
            txn_retired: Vec::new(),
            path: Vec::new(),
            #[cfg(test)]
            whole_pages: false,
        })
    }

    /// Re-derive volatile state from the durable image (after a crash
    /// or rollback). Discards pins and the retired list.
    fn reload(&mut self) -> Result<(), TreeError> {
        let v = rebuild_state(&mut self.store)?;
        self.meta_off = v.meta_off;
        self.version = v.head.version;
        self.root_lpid = v.head.root_lpid;
        self.next_lpid = v.head.next_lpid;
        self.bump = v.head.bump;
        self.nsegs = v.head.nsegs;
        self.len = v.head.len;
        self.height = v.head.height;
        self.seg_tables = v.seg_tables;
        self.segs = v.segs;
        self.free = v.free;
        self.slots = v.slots;
        self.voided = v.voided;
        self.retired.clear();
        self.pins.clear();
        self.staged.clear();
        self.txn_retired.clear();
        Ok(())
    }

    // ---- accessors ----

    /// Number of live keys (sees the open transaction's staged count).
    pub fn len(&self) -> u64 {
        self.txn.as_ref().map_or(self.len, |t| t.len)
    }

    /// True when no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latest committed version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current tree height (1 = root is a leaf).
    pub fn height(&self) -> u64 {
        self.txn.as_ref().map_or(self.height, |t| t.height)
    }

    /// Physical pages ever allocated (high-water mark).
    pub fn pages_allocated(&self) -> u64 {
        self.bump
    }

    /// Recycled pages ready for reuse.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Superseded pages still held back by pins.
    pub fn retired_pages(&self) -> usize {
        self.retired.len()
    }

    /// Node pages of dead transactions whose stale headers the last
    /// attach (or in-place recovery) voided.
    pub fn voided_pages(&self) -> usize {
        self.voided
    }

    /// Oldest pinned version, if any snapshot is live.
    pub fn min_pinned(&self) -> Option<u64> {
        self.pins.keys().next().copied()
    }

    /// The backing page store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The backing page store, mutably.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    // ---- MVCC ----

    /// Pin the latest committed version for stable reads. Must be
    /// released with [`Tree::unpin`] or the pages it reaches are never
    /// recycled.
    pub fn pin(&mut self) -> Snapshot {
        *self.pins.entry(self.version).or_insert(0) += 1;
        Snapshot {
            version: self.version,
            root_lpid: self.root_lpid,
        }
    }

    /// Release a pin taken with [`Tree::pin`] and reclaim anything it
    /// was holding back.
    pub fn unpin(&mut self, snap: Snapshot) {
        if let Some(c) = self.pins.get_mut(&snap.version) {
            *c -= 1;
            if *c == 0 {
                self.pins.remove(&snap.version);
            }
        }
        self.reclaim();
    }

    /// Free retired pages no live pin can still reach; returns how many
    /// were recycled. Runs automatically on commit and unpin.
    pub fn reclaim(&mut self) -> usize {
        let floor = self.min_pinned().unwrap_or(self.version);
        let before = self.retired.len();
        // in place and in order: the free list is a stack, so the order
        // pages enter it decides which page the next allocation gets
        self.retired.retain(|r| {
            if r.version > floor {
                return true;
            }
            if r.lpid != LPID_NONE {
                self.slots[r.lpid as usize]
                    .older
                    .retain(|&(_, p)| p != r.phys);
            }
            self.free.push(r.phys);
            false
        });
        before - self.retired.len()
    }

    // ---- transactions ----

    /// Open a write transaction (one failure-atomic section). All
    /// staged updates become durable and visible together at
    /// [`Tree::commit`]; a crash before that rolls every one back.
    ///
    /// # Panics
    /// When a transaction is already open (they do not nest).
    pub fn begin(&mut self) {
        assert!(self.txn.is_none(), "treestore transactions do not nest");
        self.store.begin();
        self.txn = Some(Txn {
            version: self.version + 1,
            root_lpid: self.root_lpid,
            next_lpid: self.next_lpid,
            len: self.len,
            height: self.height,
            first_new_seg: self.segs.len(),
            first_new_table: self.seg_tables.len(),
        });
        debug_assert!(self.staged.is_empty() && self.txn_retired.is_empty());
    }

    /// Commit the open transaction: publish the new meta head as the
    /// section's commit record, close it (durable), then expose the
    /// staged remap entries to readers and retire superseded pages.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn commit(&mut self) {
        let txn = self.txn.take().expect("commit without begin");
        // table slots at or past the committed `nsegs` are read by
        // nobody until the head that counts them is durable
        for i in txn.first_new_table..self.seg_tables.len() {
            let off = self.meta_off + SEG_TABLE + 8 * i as u64;
            self.store
                .write_fresh(off, &self.seg_tables[i].to_le_bytes());
        }
        for i in txn.first_new_seg..self.segs.len() {
            let off = self.seg_tables[i / SEG_TABLE_SLOTS] + 8 * (i % SEG_TABLE_SLOTS) as u64;
            self.store.write_fresh(off, &self.segs[i].to_le_bytes());
        }
        // the one in-place update of a commit, into the slot the head it
        // supersedes does not occupy
        let head = Head {
            version: txn.version,
            root_lpid: txn.root_lpid,
            next_lpid: txn.next_lpid,
            bump: self.bump,
            nsegs: self.nsegs,
            len: txn.len,
            height: txn.height,
        };
        self.store
            .publish(Head::slot(self.meta_off, txn.version), &head.encode());
        self.store.commit();
        // a superseded copy stays resolvable only if some pin can still
        // read below this commit; otherwise the `reclaim` below frees it
        let pinned = !self.pins.is_empty();
        for lpid in self.staged.drain(..) {
            let s = &mut self.slots[lpid as usize];
            if pinned && s.phys != PHYS_NONE {
                // versions only grow, so pushing keeps the list ascending
                s.older.push((s.version, s.phys));
            }
            s.version = txn.version;
            s.phys = std::mem::replace(&mut s.staged, PHYS_NONE);
        }
        for (phys, lpid) in self.txn_retired.drain(..) {
            self.retired.push(Retired {
                phys,
                lpid,
                version: txn.version,
            });
        }
        self.version = txn.version;
        self.root_lpid = txn.root_lpid;
        self.next_lpid = txn.next_lpid;
        self.len = txn.len;
        self.height = txn.height;
        self.reclaim();
    }

    /// True while a write transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Insert or overwrite `key`. Capacity and value-size checks run
    /// before any page is touched, so a failed put stages nothing.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn put(&mut self, key: u64, val: &[u8]) -> Result<(), TreeError> {
        assert!(self.txn.is_some(), "put outside a transaction");
        if val.len() > MAX_VALUE {
            return Err(TreeError::ValueTooLarge {
                len: val.len(),
                max: MAX_VALUE,
            });
        }
        // worst case: value cell + leaf CoW/split + one CoW and one
        // split per inner level + a new root
        let needed = 2 * self.height() + 4;
        self.ensure_capacity(needed)?;
        let tv = self.txn.as_ref().unwrap().version;

        // descend, remembering the inner path for possible splits
        self.path.clear();
        let mut lpid = self.txn.as_ref().unwrap().root_lpid;
        let (n, pos, hit) = loop {
            let b = self.load_page(lpid, tv)?;
            if hdr_tag(b) == TAG_LEAF {
                let (n, pos) = leaf_position(b, key);
                break (n, pos, pos < n && leaf_key(b, pos) == key);
            }
            let idx = child_index(b, key);
            let child = inner_child(b, idx);
            self.path.push((lpid, idx));
            lpid = child;
        };

        let vptr = self.write_value_cell(val)?;
        let splits = !hit && n == LEAF_CAP;
        let (lphys, mut lbuf) = self.cow(lpid, !splits)?;

        if hit {
            let old = leaf_vptr(&lbuf, pos);
            set_leaf_entry(&mut lbuf, pos, key, vptr);
            self.write_run(lphys, &lbuf, vptr_word(pos));
            self.txn_retired.push((old, LPID_NONE));
            return Ok(());
        }

        if !splits {
            lbuf.copy_within(leaf_run(pos, n), leaf_run(pos + 1, n + 1).start);
            set_leaf_entry(&mut lbuf, pos, key, vptr);
            set_count(&mut lbuf, n + 1);
            self.write_run(lphys, &lbuf, leaf_run(pos, n + 1));
            self.write_run(lphys, &lbuf, COUNT_WORD);
            self.txn.as_mut().unwrap().len += 1;
            return Ok(());
        }

        // leaf split: 15 entries -> left 8 (keeps the lpid) + right 7
        let mut ks = [0u64; LEAF_CAP + 1];
        let mut vs = [0u64; LEAF_CAP + 1];
        for (i, (k, v)) in ks.iter_mut().zip(vs.iter_mut()).enumerate() {
            if i < pos {
                *k = leaf_key(&lbuf, i);
                *v = leaf_vptr(&lbuf, i);
            } else if i == pos {
                *k = key;
                *v = vptr;
            } else {
                *k = leaf_key(&lbuf, i - 1);
                *v = leaf_vptr(&lbuf, i - 1);
            }
        }
        const LEFT: usize = LEAF_CAP / 2 + 1;
        for i in 0..LEFT {
            set_leaf_entry(&mut lbuf, i, ks[i], vs[i]);
        }
        set_count(&mut lbuf, LEFT);
        self.write_used(lphys, &lbuf);

        let rlpid = self.alloc_lpid();
        let rphys = self.alloc_page().ok_or(TreeError::Full)?;
        let mut rbuf = [0u8; PAGE];
        hdr_write(&mut rbuf, TAG_LEAF, (LEAF_CAP + 1 - LEFT) as u64, rlpid, tv);
        for i in LEFT..LEAF_CAP + 1 {
            set_leaf_entry(&mut rbuf, i - LEFT, ks[i], vs[i]);
        }
        self.write_used(rphys, &rbuf);
        self.stage(rlpid, rphys);
        self.txn.as_mut().unwrap().len += 1;

        self.insert_into_parents(ks[LEFT], rlpid)
    }

    /// Insert or overwrite every `(key, value)` of `items`, in order, as
    /// one all-or-nothing step of the open transaction: every value is
    /// checked and the group's worst case reserved (`put`'s bound per
    /// item) before any item is staged, so a refused group stages
    /// nothing.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn put_many<V: AsRef<[u8]>>(&mut self, items: &[(u64, V)]) -> Result<(), TreeError> {
        assert!(self.txn.is_some(), "put outside a transaction");
        if let Some(len) = items.iter().map(|(_, v)| v.as_ref().len()).max() {
            if len > MAX_VALUE {
                return Err(TreeError::ValueTooLarge {
                    len,
                    max: MAX_VALUE,
                });
            }
        }
        self.ensure_capacity(items.len() as u64 * (2 * self.height() + 4))?;
        for (key, val) in items {
            self.put(*key, val.as_ref())?;
        }
        Ok(())
    }

    /// Remove `key`; returns whether it was present. Deletes are lazy:
    /// leaves are never merged, so an emptied leaf simply stays.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn delete(&mut self, key: u64) -> Result<bool, TreeError> {
        assert!(self.txn.is_some(), "delete outside a transaction");
        self.ensure_capacity(2)?;
        let tv = self.txn.as_ref().unwrap().version;
        let mut lpid = self.txn.as_ref().unwrap().root_lpid;
        let (n, pos) = loop {
            let b = self.load_page(lpid, tv)?;
            if hdr_tag(b) == TAG_LEAF {
                let (n, pos) = leaf_position(b, key);
                if pos == n || leaf_key(b, pos) != key {
                    return Ok(false);
                }
                break (n, pos);
            }
            lpid = inner_child(b, child_index(b, key));
        };
        let (lphys, mut lbuf) = self.cow(lpid, true)?;
        let old = leaf_vptr(&lbuf, pos);
        lbuf.copy_within(leaf_run(pos + 1, n), leaf_run(pos, n - 1).start);
        set_count(&mut lbuf, n - 1);
        self.write_run(lphys, &lbuf, leaf_run(pos, n - 1));
        self.write_run(lphys, &lbuf, COUNT_WORD);
        self.txn_retired.push((old, LPID_NONE));
        self.txn.as_mut().unwrap().len -= 1;
        Ok(true)
    }

    // ---- reads ----

    /// Look up `key` in the current view (the open transaction's
    /// staged state if one is live, else the latest commit).
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let (v, root) = self.view();
        self.lookup(v, root, key).map(<[u8]>::to_vec)
    }

    /// Look up `key` as of a pinned snapshot.
    pub fn get_at(&self, snap: &Snapshot, key: u64) -> Option<Vec<u8>> {
        self.lookup(snap.version, snap.root_lpid, key)
            .map(<[u8]>::to_vec)
    }

    /// Range scan over `lo..=hi`, at most `limit` entries, in key
    /// order. `snap = None` reads the current view. The result is a
    /// consistent prefix of the range at that version; resume a
    /// truncated scan from `last_key + 1`.
    pub fn scan(
        &self,
        snap: Option<&Snapshot>,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        if limit > 0 {
            self.visit(snap, lo, hi, |k, v| {
                out.push((k, v.to_vec()));
                out.len() < limit
            });
        }
        out
    }

    /// Walk the entries of `lo..=hi` in key order, handing `f` each key
    /// with its value borrowed from the store (nothing is copied), until
    /// the range ends or `f` returns `false`. `snap = None` reads the
    /// current view.
    pub fn visit(
        &self,
        snap: Option<&Snapshot>,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, &[u8]) -> bool,
    ) {
        let (v, root) = snap.map_or_else(|| self.view(), |s| (s.version, s.root_lpid));
        if lo > hi {
            return;
        }
        let mut next = lo;
        loop {
            let (leaf, ub) = self.find_leaf(v, root, next);
            let n = hdr_count(leaf);
            for i in 0..n {
                let k = leaf_key(leaf, i);
                if k < next {
                    continue;
                }
                if k > hi || !f(k, self.read_value(leaf_vptr(leaf, i))) {
                    return;
                }
            }
            match ub {
                // separators are strictly above every key to their
                // left, so `next` advances every iteration
                Some(u) if u <= hi => next = u,
                _ => return,
            }
        }
    }

    /// `(version, root)` of the current read view.
    fn view(&self) -> (u64, u64) {
        self.txn
            .as_ref()
            .map_or((self.version, self.root_lpid), |t| (t.version, t.root_lpid))
    }

    /// The value under `key` at `version`, borrowed from the store.
    fn lookup(&self, version: u64, root: u64, key: u64) -> Option<&[u8]> {
        let (leaf, _) = self.find_leaf(version, root, key);
        let (n, pos) = leaf_position(leaf, key);
        (pos < n && leaf_key(leaf, pos) == key).then(|| self.read_value(leaf_vptr(leaf, pos)))
    }

    /// Descend to the leaf covering `key` at `version`, returning the
    /// leaf (borrowed from the store) and the smallest separator above
    /// the leaf's range (the next leaf's first possible key).
    fn find_leaf(&self, version: u64, root: u64, key: u64) -> (&[u8; PAGE], Option<u64>) {
        let mut lpid = root;
        let mut ub = None;
        let mut depth = 0u64;
        loop {
            let b = self
                .load_page(lpid, version)
                .unwrap_or_else(|e| panic!("treestore read at v{version}: {e}"));
            depth += 1;
            assert!(depth <= MAX_DEPTH, "treestore descent depth exceeded");
            if hdr_tag(b) == TAG_LEAF {
                return (b, ub);
            }
            let idx = child_index(b, key);
            if idx < hdr_count(b) {
                ub = Some(inner_key(b, idx));
            }
            lpid = inner_child(b, idx);
        }
    }

    /// The bytes of value cell `vptr`, borrowed from the store.
    fn read_value(&self, vptr: u64) -> &[u8] {
        let b = self.store.page(self.page_off(vptr));
        debug_assert_eq!(hdr_tag(b), TAG_VAL, "leaf points at a non-value page");
        &b[HDR..HDR + hdr_count(b).min(MAX_VALUE)]
    }

    // ---- internals ----

    /// Latest physical copy of `lpid` visible at `version` (the open
    /// transaction's staged copy when reading at its version).
    fn resolve(&self, lpid: u64, version: u64) -> Option<u64> {
        let s = self.slots.get(lpid as usize)?;
        // only the open transaction reads above the committed version
        if s.staged != PHYS_NONE && version > self.version {
            return Some(s.staged);
        }
        if s.version <= version {
            return Some(s.phys);
        }
        s.older
            .iter()
            .rev()
            .find(|&&(w, _)| w <= version)
            .map(|&(_, p)| p)
    }

    /// The copy of `lpid` visible at `version`, borrowed from the store.
    fn load_page(&self, lpid: u64, version: u64) -> Result<&[u8; PAGE], TreeError> {
        let phys = self
            .resolve(lpid, version)
            .ok_or(TreeError::UnresolvedChild { lpid })?;
        Ok(self.store.page(self.page_off(phys)))
    }

    /// Record `phys` as the open transaction's copy of `lpid`.
    fn stage(&mut self, lpid: u64, phys: u64) {
        let i = lpid as usize;
        if i >= self.slots.len() {
            // a logical id this transaction allocated
            self.slots.resize(i + 1, Slot::EMPTY);
        }
        self.slots[i].staged = phys;
        self.staged.push(lpid);
    }

    fn page_off(&self, phys: u64) -> u64 {
        self.segs[(phys / PAGES_PER_SEG) as usize] + (phys % PAGES_PER_SEG) * PAGE as u64
    }

    /// Store bytes `run` of `buf` at the same place in page `phys`, a
    /// page the open transaction allocated: shadow memory until the
    /// commit's head flip, hence unlogged. An empty run stores nothing.
    fn write_run(&mut self, phys: u64, buf: &[u8; PAGE], run: Range<usize>) {
        if run.is_empty() {
            return;
        }
        #[cfg(test)]
        let run = if self.whole_pages { 0..PAGE } else { run };
        let off = self.page_off(phys) + run.start as u64;
        self.store.write_fresh(off, &buf[run]);
    }

    /// Store the used bytes of node page `buf` to page `phys`.
    fn write_used(&mut self, phys: u64, buf: &[u8; PAGE]) {
        for run in used_runs(buf) {
            self.write_run(phys, buf, run);
        }
    }

    fn alloc_lpid(&mut self) -> u64 {
        let t = self.txn.as_mut().unwrap();
        let l = t.next_lpid;
        t.next_lpid += 1;
        l
    }

    /// Carve one more segment (and, every `SEG_TABLE_SLOTS` segments, a
    /// fresh table block) from the heap. The heap blocks are durable
    /// immediately; their table entries land with the commit. A crash
    /// in between leaks the blocks — bounded per crashed transaction.
    fn grow_segment(&mut self) -> Option<()> {
        if self.segs.len() >= MAX_SEGS {
            return None;
        }
        if self.segs.len() == self.seg_tables.len() * SEG_TABLE_SLOTS {
            let tb = self.store.alloc_block(SEG_BYTES)?;
            self.seg_tables.push(tb);
        }
        let seg = self.store.alloc_block(SEG_BYTES)?;
        debug_assert_eq!(seg % 64, 0, "page headers must not straddle lines");
        self.segs.push(seg);
        self.nsegs += 1;
        Some(())
    }

    /// Take a physical page from the free list, the bump cursor, or a
    /// freshly carved segment.
    fn alloc_page(&mut self) -> Option<u64> {
        if let Some(p) = self.free.pop() {
            return Some(p);
        }
        if self.bump >= self.nsegs * PAGES_PER_SEG {
            self.grow_segment()?;
        }
        let p = self.bump;
        self.bump += 1;
        Some(p)
    }

    /// Grow segments until at least `needed` pages are allocatable, so
    /// a multi-page operation cannot fail with half its pages staged.
    fn ensure_capacity(&mut self, needed: u64) -> Result<(), TreeError> {
        loop {
            let slack = self.nsegs * PAGES_PER_SEG - self.bump;
            if self.free.len() as u64 + slack >= needed {
                return Ok(());
            }
            self.grow_segment().ok_or(TreeError::Full)?;
        }
    }

    /// Copy-on-write `lpid` for the open transaction: returns the
    /// staged physical copy and an image of it in memory, for the
    /// caller to edit and store the changed bytes of. A *Clean* page —
    /// the transaction's first touch — gets a shadow page, retires the
    /// committed copy and, when `copy` is set, receives the committed
    /// copy's used bytes under the new version (a page about to split
    /// passes `false`: its halves are written once, after the split). A
    /// *Dirty* page is the staged copy itself: nothing is stored.
    fn cow(&mut self, lpid: u64, copy: bool) -> Result<(u64, [u8; PAGE]), TreeError> {
        let tv = self.txn.as_ref().unwrap().version;
        let old = self
            .resolve(lpid, tv)
            .ok_or(TreeError::UnresolvedChild { lpid })?;
        let mut b = *self.store.page(self.page_off(old));
        if self.slots[lpid as usize].staged == old {
            return Ok((old, b));
        }
        set_version(&mut b, tv);
        let p = self.alloc_page().ok_or(TreeError::Full)?;
        self.stage(lpid, p);
        self.txn_retired.push((old, lpid));
        if copy {
            self.write_used(p, &b);
        }
        Ok((p, b))
    }

    fn write_value_cell(&mut self, val: &[u8]) -> Result<u64, TreeError> {
        let tv = self.txn.as_ref().unwrap().version;
        let phys = self.alloc_page().ok_or(TreeError::Full)?;
        let mut b = [0u8; PAGE];
        hdr_write(&mut b, TAG_VAL, val.len() as u64, LPID_NONE, tv);
        b[HDR..HDR + val.len()].copy_from_slice(val);
        let off = self.page_off(phys);
        self.store.write_fresh(off, &b[..HDR + val.len()]);
        Ok(phys)
    }

    /// Propagate a split: insert `(sep, right)` into the parents along
    /// `self.path` (what `put`'s descent recorded), splitting them in
    /// turn as needed; an empty path grows a new root.
    fn insert_into_parents(&mut self, mut sep: u64, mut right: u64) -> Result<(), TreeError> {
        let tv = self.txn.as_ref().unwrap().version;
        loop {
            let Some((plpid, idx)) = self.path.pop() else {
                let nl = self.alloc_lpid();
                let np = self.alloc_page().ok_or(TreeError::Full)?;
                let old_root = self.txn.as_ref().unwrap().root_lpid;
                let mut b = [0u8; PAGE];
                hdr_write(&mut b, TAG_INNER, 1, nl, tv);
                set_inner_key(&mut b, 0, sep);
                set_inner_child(&mut b, 0, old_root);
                set_inner_child(&mut b, 1, right);
                self.write_used(np, &b);
                self.stage(nl, np);
                let t = self.txn.as_mut().unwrap();
                t.root_lpid = nl;
                t.height += 1;
                return Ok(());
            };
            let n = hdr_count(self.load_page(plpid, tv)?);
            let (pphys, mut pbuf) = self.cow(plpid, n < INNER_CAP)?;
            if n < INNER_CAP {
                pbuf.copy_within(key_run(idx, n), key_run(idx + 1, n + 1).start);
                pbuf.copy_within(child_run(idx + 1, n + 1), child_run(idx + 2, n + 2).start);
                set_inner_key(&mut pbuf, idx, sep);
                set_inner_child(&mut pbuf, idx + 1, right);
                set_count(&mut pbuf, n + 1);
                self.write_run(pphys, &pbuf, key_run(idx, n + 1));
                self.write_run(pphys, &pbuf, child_run(idx + 1, n + 2));
                self.write_run(pphys, &pbuf, COUNT_WORD);
                return Ok(());
            }
            // inner split: 15 keys / 16 children -> left 7/8, middle
            // key promoted, right 7/8
            let mut ks = [0u64; INNER_CAP + 1];
            let mut cs = [0u64; INNER_CAP + 2];
            for (i, k) in ks.iter_mut().enumerate() {
                *k = if i < idx {
                    inner_key(&pbuf, i)
                } else if i == idx {
                    sep
                } else {
                    inner_key(&pbuf, i - 1)
                };
            }
            for (i, c) in cs.iter_mut().enumerate() {
                *c = if i <= idx {
                    inner_child(&pbuf, i)
                } else if i == idx + 1 {
                    right
                } else {
                    inner_child(&pbuf, i - 1)
                };
            }
            const LEFTK: usize = INNER_CAP / 2;
            for (i, &k) in ks.iter().enumerate().take(LEFTK) {
                set_inner_key(&mut pbuf, i, k);
            }
            for (i, &c) in cs.iter().enumerate().take(LEFTK + 1) {
                set_inner_child(&mut pbuf, i, c);
            }
            set_count(&mut pbuf, LEFTK);
            self.write_used(pphys, &pbuf);

            let rlpid = self.alloc_lpid();
            let rphys = self.alloc_page().ok_or(TreeError::Full)?;
            let mut rbuf = [0u8; PAGE];
            hdr_write(&mut rbuf, TAG_INNER, (INNER_CAP - LEFTK) as u64, rlpid, tv);
            for (i, &k) in ks.iter().enumerate().take(INNER_CAP + 1).skip(LEFTK + 1) {
                set_inner_key(&mut rbuf, i - (LEFTK + 1), k);
            }
            for (i, &c) in cs.iter().enumerate().take(INNER_CAP + 2).skip(LEFTK + 1) {
                set_inner_child(&mut rbuf, i - (LEFTK + 1), c);
            }
            self.write_used(rphys, &rbuf);
            self.stage(rlpid, rphys);

            sep = ks[LEFTK];
            right = rlpid;
        }
    }
}

// ---- production-backend conveniences ----------------------------------

impl Tree<FasePager> {
    /// Format a fresh tree over a new FASE runtime.
    pub fn create(cfg: &TreeConfig) -> Result<Tree<FasePager>, TreeError> {
        Tree::format(FasePager::new(cfg))
    }

    /// Re-attach to a crash image: FASE recovery (undo-log rollback)
    /// first, then the structural rebuild.
    pub fn reopen_from_image(
        image: Vec<u8>,
        cfg: &TreeConfig,
    ) -> Result<Tree<FasePager>, TreeError> {
        let pager = FasePager::reopen_from_image(image, cfg)?;
        Tree::attach(pager)
    }

    /// In-process power failure + full recovery. An open transaction is
    /// rolled back; live pins are invalidated.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) -> Result<(), TreeError> {
        self.txn = None;
        self.store.crash_and_recover(mode);
        self.reload()
    }

    /// Roll back a transaction that panicked mid-flight and re-derive
    /// volatile state. Returns whether anything was rolled back.
    pub fn heal_after_panic(&mut self) -> Result<bool, TreeError> {
        self.txn = None;
        let healed = self.store.heal_after_panic();
        self.reload()?;
        Ok(healed)
    }

    /// Drain buffered flush obligations (clean shutdown).
    pub fn sync(&mut self) {
        self.store.sync();
    }

    /// Micro-step counter for crash-point injection.
    pub fn steps(&self) -> u64 {
        self.store.steps()
    }

    /// Arm a crash plan on the backing region.
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.store.arm_crash(plan);
    }

    /// Take the image captured by a tripped crash plan.
    pub fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        self.store.take_crash_image()
    }

    /// Persistence counters since creation.
    pub fn stats(&self) -> FaseStats {
        self.store.stats()
    }

    /// Persistence counters since the last take.
    pub fn take_stats(&mut self) -> FaseStats {
        self.store.take_stats()
    }
}

// ---- recovery ---------------------------------------------------------

/// Rebuild the volatile view from the durable image: read and validate
/// the meta block, scan page headers keeping the newest committed copy
/// per logical id (in the slot table itself), walk the tree from the
/// durable root (validating structure as it goes), free every
/// unreachable page, and — only once the image has proven sound — void
/// the headers dead transactions left above the committed version.
fn rebuild_state<S: PageStore>(store: &mut S) -> Result<Volatile, TreeError> {
    let meta_off = store.root();
    if meta_off == 0 {
        return Err(TreeError::BadMeta("no durable root pointer"));
    }
    // every offset read out of the image is looked at before it is
    // followed: a carved block is cache-line aligned and lies inside the
    // store (0 is "never set")
    let end = store.len();
    let block_ok = |off: u64, bytes: usize| {
        off != 0
            && off.is_multiple_of(64)
            && off.checked_add(bytes as u64).is_some_and(|e| e <= end)
    };
    if !block_ok(meta_off, META_BYTES) {
        return Err(TreeError::BadMeta("root pointer outside the store"));
    }
    // the newer of the two heads whose checksum holds: a commit that
    // never finished left its slot torn or stale, and the other intact
    let slot = |version| Head::decode(store.bytes(Head::slot(meta_off, version), HEAD));
    let head = match (slot(0), slot(1)) {
        (Some(a), Some(b)) if a.version == b.version => {
            return Err(TreeError::BadMeta("two head slots of one version"))
        }
        (Some(a), Some(b)) => std::cmp::max_by_key(a, b, |h| h.version),
        (Some(h), None) | (None, Some(h)) => h,
        (None, None) => return Err(TreeError::BadMeta("no valid head slot")),
    };
    let Head {
        version,
        root_lpid,
        next_lpid,
        bump,
        nsegs,
        len,
        height,
    } = head;
    // every logical page owns a live physical one (leaves never merge,
    // logical ids are never freed), so `next_lpid <= bump`; the slot
    // table below is sized from it, so it is checked here, first
    if nsegs as usize > MAX_SEGS
        || nsegs == 0
        || bump > nsegs * PAGES_PER_SEG
        || next_lpid > bump
        || root_lpid >= next_lpid
        || height == 0
        || height > MAX_DEPTH
    {
        return Err(TreeError::BadMeta("inconsistent header fields"));
    }
    let ntables = (nsegs as usize).div_ceil(SEG_TABLE_SLOTS);
    let mut seg_tables = Vec::with_capacity(ntables);
    for t in 0..ntables {
        let tb = store.read_u64_at(meta_off + SEG_TABLE + 8 * t as u64);
        if !block_ok(tb, SEG_BYTES) {
            return Err(TreeError::BadMeta("bad segment table block"));
        }
        seg_tables.push(tb);
    }
    let mut segs = Vec::with_capacity(nsegs as usize);
    for i in 0..nsegs as usize {
        let seg =
            store.read_u64_at(seg_tables[i / SEG_TABLE_SLOTS] + 8 * (i % SEG_TABLE_SLOTS) as u64);
        if !block_ok(seg, SEG_BYTES) {
            return Err(TreeError::BadMeta("bad page segment"));
        }
        segs.push(seg);
    }
    let page_off =
        |phys: u64| segs[(phys / PAGES_PER_SEG) as usize] + (phys % PAGES_PER_SEG) * PAGE as u64;

    // newest committed copy per logical id: stale copies of an lpid
    // always carry an older version than its live one (pages are only
    // retired when a newer commit supersedes them), so max-wins is safe
    let mut slots = vec![Slot::EMPTY; next_lpid as usize];
    // headers of a dead transaction's shadow pages (whatever their lpid:
    // the retry hands the same fresh lpids out again)
    let mut stale: Vec<u64> = Vec::new();
    for phys in 0..bump {
        let b = store.page(page_off(phys));
        let tag = hdr_tag(b);
        if tag != TAG_LEAF && tag != TAG_INNER {
            continue;
        }
        let l = hdr_lpid(b);
        let v = hdr_version(b);
        if v > version {
            stale.push(page_off(phys));
            continue;
        }
        if l >= next_lpid {
            continue;
        }
        let s = &mut slots[l as usize];
        if s.phys == PHYS_NONE || v > s.version {
            (s.version, s.phys) = (v, phys);
        }
    }

    // reachability walk from the durable root, validating structure
    let mut reach = vec![false; bump as usize];
    let mut counted = 0u64;
    let mut stack = vec![(root_lpid, 1u64)];
    while let Some((l, depth)) = stack.pop() {
        let phys = slots[l as usize].phys;
        if phys == PHYS_NONE {
            return Err(TreeError::UnresolvedChild { lpid: l });
        }
        // a node page carries one logical id, so reaching the page
        // twice is reaching its id twice (value cells, the other pages
        // marked below, are never node pages: their tag is checked)
        if std::mem::replace(&mut reach[phys as usize], true) {
            return Err(TreeError::BadPage {
                phys,
                why: "logical page reached twice (cycle)",
            });
        }
        let b = store.page(page_off(phys));
        let n = hdr_count(b);
        if hdr_tag(b) == TAG_LEAF {
            if n > LEAF_CAP {
                return Err(TreeError::BadPage {
                    phys,
                    why: "leaf fanout overflow",
                });
            }
            if depth != height {
                return Err(TreeError::BadPage {
                    phys,
                    why: "leaf at wrong depth",
                });
            }
            let mut prev: Option<u64> = None;
            for i in 0..n {
                let k = leaf_key(b, i);
                if prev.is_some_and(|p| p >= k) {
                    return Err(TreeError::BadPage {
                        phys,
                        why: "leaf keys out of order",
                    });
                }
                prev = Some(k);
                let vp = leaf_vptr(b, i);
                if vp >= bump {
                    return Err(TreeError::BadPage {
                        phys,
                        why: "value pointer out of range",
                    });
                }
                let vb = store.page(page_off(vp));
                if hdr_tag(vb) != TAG_VAL || hdr_count(vb) > MAX_VALUE {
                    return Err(TreeError::BadPage {
                        phys: vp,
                        why: "leaf points at a non-value page",
                    });
                }
                reach[vp as usize] = true;
                counted += 1;
            }
        } else {
            if n == 0 || n > INNER_CAP {
                return Err(TreeError::BadPage {
                    phys,
                    why: "inner fanout out of range",
                });
            }
            if depth >= height {
                return Err(TreeError::BadPage {
                    phys,
                    why: "inner node at leaf depth",
                });
            }
            for i in 0..=n {
                let c = inner_child(b, i);
                if c >= next_lpid {
                    return Err(TreeError::BadPage {
                        phys,
                        why: "child lpid out of range",
                    });
                }
                stack.push((c, depth + 1));
            }
        }
    }
    if counted != len {
        return Err(TreeError::BadMeta("key count does not match the tree"));
    }
    // a winner the root never reaches serves nobody (only a damaged
    // image has one); its page goes on the free list below
    for s in &mut slots {
        if s.phys != PHYS_NONE && !reach[s.phys as usize] {
            *s = Slot::EMPTY;
        }
    }
    let free = (0..bump).filter(|&p| !reach[p as usize]).collect();
    // the pages are dead, so their zeroes need no undo record, and the
    // section publishes nothing: a crash in it leaves headers the next
    // attach voids again
    if !stale.is_empty() {
        store.begin();
        for &off in &stale {
            store.write_fresh(off, &[0u8; HDR]);
        }
        store.commit();
    }
    Ok(Volatile {
        meta_off,
        head,
        seg_tables,
        segs,
        free,
        slots,
        voided: stale.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{MemPager, PageRead, PageWrite, RootStore};

    fn mem_tree() -> Tree<MemPager> {
        Tree::format(MemPager::new()).unwrap()
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn empty_tree_reads() {
        let t = mem_tree();
        assert!(t.is_empty());
        assert_eq!(t.get(42), None);
        assert!(t.scan(None, 0, u64::MAX, 100).is_empty());
    }

    #[test]
    fn put_get_overwrite_delete() {
        let mut t = mem_tree();
        t.begin();
        t.put(7, b"seven").unwrap();
        t.put(3, b"three").unwrap();
        t.commit();
        assert_eq!(t.get(7).as_deref(), Some(&b"seven"[..]));
        assert_eq!(t.get(3).as_deref(), Some(&b"three"[..]));
        assert_eq!(t.get(5), None);
        assert_eq!(t.len(), 2);

        t.begin();
        t.put(7, b"SEVEN").unwrap();
        assert!(t.delete(3).unwrap());
        assert!(!t.delete(99).unwrap());
        t.commit();
        assert_eq!(t.get(7).as_deref(), Some(&b"SEVEN"[..]));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn read_your_writes_inside_txn() {
        let mut t = mem_tree();
        t.begin();
        t.put(1, b"a").unwrap();
        assert_eq!(t.get(1).as_deref(), Some(&b"a"[..]));
        t.put(1, b"b").unwrap();
        assert_eq!(t.get(1).as_deref(), Some(&b"b"[..]));
        assert!(t.delete(1).unwrap());
        assert_eq!(t.get(1), None);
        t.commit();
        assert_eq!(t.get(1), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn thousand_keys_split_scan_sorted() {
        let mut t = mem_tree();
        let mut s = 0xfeedu64;
        let mut keys = Vec::new();
        t.begin();
        for _ in 0..1000 {
            let k = splitmix(&mut s);
            keys.push(k);
            t.put(k, &k.to_le_bytes()).unwrap();
        }
        t.commit();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(t.len(), keys.len() as u64);
        assert!(t.height() > 2, "1000 keys must split past two levels");
        let got = t.scan(None, 0, u64::MAX, usize::MAX);
        assert_eq!(got.len(), keys.len());
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(*k, keys[i], "scan order at {i}");
            assert_eq!(v.as_slice(), &k.to_le_bytes());
        }
        for &k in keys.iter().step_by(37) {
            assert_eq!(t.get(k).as_deref(), Some(&k.to_le_bytes()[..]));
        }
    }

    #[test]
    fn growth_spills_into_second_table_block() {
        // SEG_TABLE_SLOTS segments = 8192 pages; 20k keys need more,
        // so the segment table must go two-level
        let mut t = mem_tree();
        let mut s = 0x1234u64;
        for chunk in 0..20 {
            t.begin();
            for i in 0..1000u64 {
                let k = chunk * 1000 + i;
                let _ = splitmix(&mut s);
                t.put(k, &s.to_le_bytes()).unwrap();
            }
            t.commit();
        }
        assert_eq!(t.len(), 20_000);
        assert!(
            t.pages_allocated() > (SEG_TABLE_SLOTS as u64) * PAGES_PER_SEG,
            "test must outgrow one table block: bump={}",
            t.pages_allocated()
        );
        // volatile state from a cold rebuild matches
        let t2 = Tree::attach(t.store).unwrap();
        assert_eq!(t2.len(), 20_000);
        assert!(t2.get(19_999).is_some());
        assert_eq!(t2.scan(None, 500, 520, usize::MAX).len(), 21);
    }

    #[test]
    fn scan_bounds_and_limit() {
        let mut t = mem_tree();
        t.begin();
        for k in (0..100u64).map(|i| i * 10) {
            t.put(k, &[k as u8]).unwrap();
        }
        t.commit();
        let mid = t.scan(None, 205, 405, usize::MAX);
        let mid_keys: Vec<u64> = mid.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            mid_keys,
            vec![
                210, 220, 230, 240, 250, 260, 270, 280, 290, 300, 310, 320, 330, 340, 350, 360,
                370, 380, 390, 400
            ]
        );
        let capped = t.scan(None, 0, u64::MAX, 7);
        assert_eq!(capped.len(), 7);
        assert_eq!(capped[6].0, 60);
        // inclusive bounds on exact keys
        let exact = t.scan(None, 300, 320, usize::MAX);
        assert_eq!(
            exact.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![300, 310, 320]
        );
        assert!(t.scan(None, 401, 409, usize::MAX).is_empty());
        assert!(t.scan(None, 10, 5, usize::MAX).is_empty());
    }

    #[test]
    fn snapshot_reads_are_frozen() {
        let mut t = mem_tree();
        t.begin();
        for k in 0..50u64 {
            t.put(k, b"old").unwrap();
        }
        t.commit();
        let snap = t.pin();

        t.begin();
        for k in 25..75u64 {
            t.put(k, b"new").unwrap();
        }
        t.delete(0).unwrap();
        t.commit();

        // snapshot: original 50 keys, original values
        assert_eq!(t.get_at(&snap, 0).as_deref(), Some(&b"old"[..]));
        assert_eq!(t.get_at(&snap, 30).as_deref(), Some(&b"old"[..]));
        assert_eq!(t.get_at(&snap, 60), None);
        let s = t.scan(Some(&snap), 0, u64::MAX, usize::MAX);
        assert_eq!(s.len(), 50);
        assert!(s.iter().all(|(_, v)| v == b"old"));

        // current view: the new state
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(30).as_deref(), Some(&b"new"[..]));
        assert_eq!(t.get(60).as_deref(), Some(&b"new"[..]));
        assert_eq!(t.len(), 74);

        // pinned pages were withheld from reclaim, then recycled
        let held = t.retired_pages();
        assert!(held > 0, "snapshot must hold retired pages");
        t.unpin(snap);
        assert_eq!(t.retired_pages(), 0);
        assert!(t.free_pages() >= held);
    }

    #[test]
    fn overwrites_recycle_pages() {
        let mut t = mem_tree();
        for round in 0..200u64 {
            t.begin();
            t.put(1, &round.to_le_bytes()).unwrap();
            t.commit();
        }
        // one live leaf + one live value cell; everything else recycled
        assert!(
            t.pages_allocated() < 16,
            "200 overwrites leaked pages: bump={}",
            t.pages_allocated()
        );
    }

    #[test]
    fn value_size_edges() {
        let mut t = mem_tree();
        t.begin();
        let big = vec![0x5a; MAX_VALUE];
        t.put(1, &big).unwrap();
        t.put(2, b"").unwrap();
        let err = t.put(3, &vec![0; MAX_VALUE + 1]).unwrap_err();
        assert!(matches!(err, TreeError::ValueTooLarge { .. }));
        t.commit();
        assert_eq!(t.get(1).unwrap(), big);
        assert_eq!(t.get(2).unwrap(), Vec::<u8>::new());
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn attach_rebuilds_from_store() {
        let mut t = mem_tree();
        t.begin();
        for k in 0..500u64 {
            t.put(k, &k.to_le_bytes()).unwrap();
        }
        t.commit();
        t.begin();
        for k in 0..100u64 {
            t.delete(k * 5).unwrap();
        }
        t.commit();
        let (len, version) = (t.len(), t.version());
        let want = t.scan(None, 0, u64::MAX, usize::MAX);

        let t2 = Tree::attach(t.store).unwrap();
        assert_eq!(t2.len(), len);
        assert_eq!(t2.version(), version);
        assert_eq!(t2.scan(None, 0, u64::MAX, usize::MAX), want);
    }

    #[test]
    fn attach_voids_headers_above_the_committed_version() {
        let mut t = mem_tree();
        for round in 0..2u8 {
            t.begin();
            for k in 0..40u64 {
                t.put(k, &[round]).unwrap();
            }
            t.commit();
        }
        let want = t.scan(None, 0, u64::MAX, usize::MAX);
        // what a dead attempt leaves behind: a recycled page restamped
        // as the *root* lpid under the next version
        let off = t.page_off(*t.free.last().expect("overwrites freed pages"));
        let mut stale = [0u8; PAGE];
        hdr_write(&mut stale, TAG_LEAF, 0, t.root_lpid, t.version + 1);
        t.store.begin();
        t.store.write_fresh(off, &stale);
        t.store.commit();

        let t2 = Tree::attach(t.store).unwrap();
        assert_eq!(t2.voided_pages(), 1);
        let mut hdr = [0xffu8; HDR];
        t2.store.read_bytes(off, &mut hdr);
        assert_eq!(hdr, [0u8; HDR], "header zeroed in place");
        assert_eq!(t2.scan(None, 0, u64::MAX, usize::MAX), want);
        // idempotent: nothing left for the next attach
        let t3 = Tree::attach(t2.store).unwrap();
        assert_eq!(t3.voided_pages(), 0);
        assert_eq!(t3.scan(None, 0, u64::MAX, usize::MAX), want);
    }

    fn hundred_keys() -> Tree<MemPager> {
        let mut t = mem_tree();
        t.begin();
        for k in 0..100u64 {
            t.put(k, &k.to_le_bytes()).unwrap();
        }
        t.commit();
        t
    }

    /// A 100-key tree with one durable word overwritten — `word` picks
    /// its offset and its hostile value — then re-attached. A word of a
    /// head slot is resealed with the slot's checksum, so that attach
    /// judges the hostile field, not a torn slot.
    fn attach_with_word(
        word: impl Fn(&Tree<MemPager>) -> (u64, u64),
    ) -> Result<Tree<MemPager>, TreeError> {
        let mut t = hundred_keys();
        let (off, hostile) = word(&t);
        t.store.begin();
        t.store.write_fresh(off, &hostile.to_le_bytes());
        if (t.meta_off..t.meta_off + SEG_TABLE).contains(&off) {
            let slot = off - (off - t.meta_off) % HEAD as u64;
            let sum = checksum(MAGIC, t.store.bytes(slot + 8, HEAD - 8));
            t.store.write_fresh(slot, &sum.to_le_bytes());
        }
        t.store.commit();
        Tree::attach(t.store)
    }

    /// The durable `next_lpid` is word 3 of the winning head slot.
    fn attach_with_next_lpid(f: impl Fn(u64) -> u64) -> Result<Tree<MemPager>, TreeError> {
        attach_with_word(|t| (Head::slot(t.meta_off, t.version) + 24, f(t.bump)))
    }

    #[test]
    fn attach_rejects_a_meta_block_with_no_valid_head() {
        let mut t = hundred_keys();
        assert!(Head::decode(t.store.bytes(t.meta_off, HEAD)).is_some());
        assert!(Head::decode(t.store.bytes(t.meta_off + HEAD as u64, HEAD)).is_some());
        // one word of each slot changed, neither resealed
        t.store.begin();
        for slot in [t.meta_off, t.meta_off + HEAD as u64] {
            t.store.write_fresh(slot + 24, &7u64.to_le_bytes());
        }
        t.store.commit();
        let err = Tree::attach(t.store).map(|_| ()).unwrap_err();
        assert_eq!(err, TreeError::BadMeta("no valid head slot"));
    }

    #[test]
    fn attach_rejects_two_head_slots_of_one_version() {
        let mut t = hundred_keys();
        let (live, other) = (
            Head::slot(t.meta_off, t.version),
            Head::slot(t.meta_off, t.version + 1),
        );
        let copy = t.store.bytes(live, HEAD).to_vec();
        t.store.begin();
        t.store.write_fresh(other, &copy);
        t.store.commit();
        let err = Tree::attach(t.store).map(|_| ()).unwrap_err();
        assert_eq!(err, TreeError::BadMeta("two head slots of one version"));
    }

    /// Hardware lands a line as 8-byte words: a commit whose head slot
    /// landed only in part must read as not committed. Every mix of the
    /// newer slot's old and new words attaches to the older slot's
    /// version and tree, unless the mix is the new slot whole.
    #[test]
    fn a_torn_newer_head_falls_back_to_the_older_slot() {
        // version 2 holds 40 keys; version 3 rewrites them, adds 40 more
        // and splits the root, so the two heads differ in most words
        let two_commits = || {
            let mut t = mem_tree();
            t.begin();
            for k in 0..40u64 {
                t.put(k, &[1]).unwrap();
            }
            t.commit();
            let older = t.scan(None, 0, u64::MAX, usize::MAX);
            let slot = Head::slot(t.meta_off, t.version + 1);
            let before = t.store.bytes(slot, HEAD).to_vec();
            t.begin();
            for k in 0..80u64 {
                t.put(k, &[2]).unwrap();
            }
            t.commit();
            (t, older, slot, before)
        };
        let (t, _, slot, before) = two_commits();
        let after = t.store.bytes(slot, HEAD).to_vec();
        let differ = (0..8).filter(|w| before[8 * w..][..8] != after[8 * w..][..8]);
        assert!(differ.count() >= 6, "the heads must differ in most words");
        for mask in 0u32..256 {
            let (mut t, older, slot, _) = two_commits();
            let torn: Vec<u8> = (0..HEAD)
                .map(|i| {
                    if mask >> (i / 8) & 1 == 1 {
                        after[i]
                    } else {
                        before[i]
                    }
                })
                .collect();
            t.store.begin();
            t.store.write_fresh(slot, &torn);
            t.store.commit();
            let newer = t.scan(None, 0, u64::MAX, usize::MAX);
            let back = Tree::attach(t.store).unwrap_or_else(|e| panic!("mask {mask:#x}: {e}"));
            let (version, scan) = (back.version(), back.scan(None, 0, u64::MAX, usize::MAX));
            if torn == after {
                assert_eq!((version, scan), (3, newer), "mask {mask:#x}");
            } else {
                assert_eq!((version, scan), (2, older), "mask {mask:#x}");
            }
        }
    }

    #[test]
    fn attach_rejects_next_lpid_above_the_page_high_water_mark() {
        // every logical page owns a physical one, so no sound image
        // counts more of them than it has pages — and the slot table is
        // sized from this field
        for hostile in [|_| 1u64 << 40, |bump| bump + 1] {
            let err = attach_with_next_lpid(hostile).map(|_| ()).unwrap_err();
            assert_eq!(err, TreeError::BadMeta("inconsistent header fields"));
        }
        // the bound itself is legal: unused ids are merely skipped
        let t = attach_with_next_lpid(|bump| bump).unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(99).as_deref(), Some(&99u64.to_le_bytes()[..]));
    }

    #[test]
    fn attach_rejects_unformatted_store() {
        let err = Tree::attach(MemPager::new()).map(|_| ()).unwrap_err();
        assert!(matches!(err, TreeError::BadMeta(_)));
    }

    /// Every offset the image names is checked before it is followed:
    /// past the end, or off the cache-line grid, is `BadMeta`, not an
    /// out-of-range slice.
    #[test]
    fn attach_rejects_offsets_outside_the_store() {
        const FAR: u64 = 1 << 40;
        type Word = fn(&Tree<MemPager>) -> (u64, u64);
        let table_word: Word = |t| (t.meta_off + SEG_TABLE, FAR);
        let segment_word: Word = |t| (t.seg_tables[0], FAR);
        let misaligned: Word = |t| (t.seg_tables[0], t.segs[0] + 8);
        let past_the_end: Word = |t| (t.seg_tables[0], t.store.len() - 64);
        for word in [table_word, segment_word, misaligned, past_the_end] {
            let err = attach_with_word(word).map(|_| ()).unwrap_err();
            assert!(matches!(err, TreeError::BadMeta(_)), "{err:?}");
        }
        let mut t = mem_tree();
        t.store.set_root(FAR);
        let err = Tree::attach(t.store).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, TreeError::BadMeta(_)),
            "root pointer: {err:?}"
        );
    }

    // ---- what a write stores ----

    /// The used bytes of the node page at `phys` (header and what its
    /// count covers), with those of every value cell a leaf points at.
    fn used_bytes(t: &Tree<MemPager>, phys: u64) -> Vec<u8> {
        let b = t.store.page(t.page_off(phys));
        let [head, children] = used_runs(b);
        let mut out = [&b[head], &b[children]].concat();
        if hdr_tag(b) == TAG_LEAF {
            for i in 0..hdr_count(b) {
                let cell = t.store.page(t.page_off(leaf_vptr(b, i)));
                out.extend_from_slice(&cell[..HDR + hdr_count(cell)]);
            }
        }
        out
    }

    /// Transactions that come back to the leaves they staged: a run of
    /// adjacent fresh keys (the leaf fills and splits while Dirty), then
    /// overwrites and deletes among them.
    fn revisiting_txn(s: &mut u64) -> Vec<(u64, Option<Vec<u8>>)> {
        let base = splitmix(s) % 600;
        let mut ops = Vec::new();
        for i in 0..4 + splitmix(s) % 20 {
            ops.push((base + i, Some(vec![i as u8; (splitmix(s) % 60) as usize])));
        }
        for _ in 0..6 {
            let key = base + splitmix(s) % 24;
            let put = !splitmix(s).is_multiple_of(3);
            ops.push((key, put.then(|| vec![0xee; (splitmix(s) % 60) as usize])));
        }
        ops
    }

    #[test]
    fn changed_byte_writes_match_the_whole_page_reference() {
        let mut t = mem_tree();
        let mut r = mem_tree();
        r.whole_pages = true;
        let mut s = 0xd1ffu64;
        let mut snap = None;
        for round in 0..80 {
            match round {
                20 => snap = Some((t.pin(), r.pin())),
                35 => {
                    let (ts, rs) = snap.take().unwrap();
                    t.unpin(ts);
                    r.unpin(rs);
                }
                _ => {}
            }
            t.begin();
            r.begin();
            for (key, val) in revisiting_txn(&mut s) {
                match val {
                    Some(v) => {
                        t.put(key, &v).unwrap();
                        r.put(key, &v).unwrap();
                    }
                    None => assert_eq!(t.delete(key).unwrap(), r.delete(key).unwrap()),
                }
            }
            // the open transaction reads its own partial writes
            assert_eq!(
                t.scan(None, 0, u64::MAX, usize::MAX),
                r.scan(None, 0, u64::MAX, usize::MAX),
                "round {round}, staged"
            );
            t.commit();
            r.commit();
            if round == 0 {
                // the root leaf was staged by the first put: it split Dirty
                assert!(t.height() >= 2, "first transaction must split its leaf");
            }
            assert_eq!(
                (t.len(), t.height()),
                (r.len(), r.height()),
                "round {round}"
            );
            assert_eq!(
                t.scan(None, 0, u64::MAX, usize::MAX),
                r.scan(None, 0, u64::MAX, usize::MAX),
                "round {round}"
            );
        }
        assert!(t.height() >= 3, "inner pages must have split too");
        // both trees took the same pages in the same order, and hold
        // the same bytes wherever anything will ever read
        assert_eq!((t.bump, &t.free), (r.bump, &r.free));
        for lpid in 0..t.next_lpid as usize {
            let phys = t.slots[lpid].phys;
            assert_eq!(phys, r.slots[lpid].phys, "lpid {lpid}");
            assert_eq!(used_bytes(&t, phys), used_bytes(&r, phys), "lpid {lpid}");
        }
        let cold = Tree::attach(t.store).unwrap();
        assert_eq!(
            cold.scan(None, 0, u64::MAX, usize::MAX),
            r.scan(None, 0, u64::MAX, usize::MAX)
        );
    }

    #[test]
    fn a_recycled_page_with_a_longer_pages_tail_attaches_and_scans() {
        let mut t = mem_tree();
        let mut model = std::collections::BTreeMap::new();
        let mut s = 0x7a11u64;
        let check = |t: &Tree<MemPager>, model: &std::collections::BTreeMap<u64, Vec<u8>>| {
            let want: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
            assert_eq!(t.scan(None, 0, u64::MAX, usize::MAX), want);
            assert_eq!(t.len(), want.len() as u64);
        };
        for round in 0..2 {
            for _ in 0..40 {
                t.begin();
                for (key, val) in revisiting_txn(&mut s) {
                    match val {
                        Some(v) => {
                            t.put(key, &v).unwrap();
                            model.insert(key, v);
                        }
                        None => assert_eq!(t.delete(key).unwrap(), model.remove(&key).is_some()),
                    }
                }
                t.commit();
            }
            check(&t, &model);
            // the scenario is real: live node pages sit on recycled
            // pages whose bytes past the used ones are an older, longer
            // page's entries
            let stale_tails = (0..t.next_lpid as usize)
                .filter(|&lpid| {
                    let b = t.store.page(t.page_off(t.slots[lpid].phys));
                    let n = hdr_count(b);
                    let tail = match hdr_tag(b) {
                        TAG_LEAF => leaf_run(n, LEAF_CAP),
                        _ => key_run(n, INNER_CAP),
                    };
                    b[tail].iter().any(|&x| x != 0)
                })
                .count();
            assert!(
                stale_tails > 0,
                "round {round}: no live page has a stale tail"
            );
            t = Tree::attach(t.store).unwrap();
            check(&t, &model);
        }
    }

    // ---- FasePager-backed ----

    fn small_cfg() -> TreeConfig {
        TreeConfig {
            data_len: 1 << 19,
            log_len: 1 << 18,
            ..TreeConfig::default()
        }
    }

    #[test]
    fn reopen_from_image_rejects_a_segment_word_outside_the_store() {
        let cfg = small_cfg();
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        for k in 0..100u64 {
            t.put(k, &k.to_le_bytes()).unwrap();
        }
        t.commit();
        let word = t.seg_tables[0] as usize;
        let sound = t.store.runtime_mut().region().durable_image().to_vec();
        assert_eq!(
            Tree::reopen_from_image(sound.clone(), &cfg).unwrap().len(),
            100
        );
        // inside the region, but in the undo log behind the data area
        for hostile in [1u64 << 40, cfg.data_len as u64] {
            let mut image = sound.clone();
            image[word..word + 8].copy_from_slice(&hostile.to_le_bytes());
            let err = Tree::reopen_from_image(image, &cfg)
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, TreeError::BadMeta(_)),
                "{hostile:#x}: {err:?}"
            );
        }
    }

    /// The allocator's header is part of the image: one no allocator
    /// wrote (here a bump cursor inside the header) is a typed refusal —
    /// not a tree that allocates over its own root.
    #[test]
    fn reopen_from_image_rejects_a_hostile_allocator_header() {
        let cfg = small_cfg();
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        t.put(1, b"one").unwrap();
        t.commit();
        let mut image = t.store.runtime_mut().region().durable_image().to_vec();
        assert!(Tree::reopen_from_image(image.clone(), &cfg).is_ok());
        image[16..24].copy_from_slice(&8u64.to_le_bytes()); // `PAlloc`'s cursor
        let err = Tree::reopen_from_image(image, &cfg)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, TreeError::BadMeta("no durable root pointer"));
    }

    #[test]
    fn second_touch_of_a_staged_leaf_stores_only_the_changed_bytes() {
        let mut t = Tree::create(&small_cfg()).unwrap();
        t.begin();
        for k in [10u64, 20, 30, 40] {
            t.put(k, &[k as u8; 40]).unwrap();
        }
        t.commit();
        // bytes stored so far, pages in use
        let counts = |t: &mut Tree<FasePager>| {
            let bytes = t.store.runtime_mut().region().stats().bytes_written;
            (bytes, t.bump - t.free.len() as u64)
        };
        const CELL: u64 = (HDR + 40) as u64;

        t.begin();
        // first touch: shadow page, used-byte copy, then the edit
        t.put(25, &[1; 40]).unwrap();
        let shadow = t.slots[0].staged;
        assert_ne!(shadow, PHYS_NONE);
        let (b0, p0) = counts(&mut t);
        // insert at position 1 of 5: the value cell, the shifted run of
        // entries [1, 5] and the count word
        t.put(15, &[2; 40]).unwrap();
        let (b1, p1) = counts(&mut t);
        assert_eq!((b1 - b0, p1 - p0), (CELL + 5 * 16 + 8, 1));
        // overwrite: the value cell and the 8-byte pointer to it
        t.put(20, &[3; 40]).unwrap();
        let (b2, p2) = counts(&mut t);
        assert_eq!((b2 - b1, p2 - p1), (CELL + 8, 1));
        // delete position 3 of 6: the run [3, 5) and the count word
        assert!(t.delete(25).unwrap());
        let (b3, p3) = counts(&mut t);
        assert_eq!((b3 - b2, p3 - p2), (2 * 16 + 8, 0));
        // one staged copy throughout; only value cells were allocated
        assert_eq!(
            (t.slots[0].staged, t.staged.as_slice()),
            (shadow, &[0u64][..])
        );
        t.commit();
        let keys: Vec<u64> = t.scan(None, 0, u64::MAX, 9).iter().map(|e| e.0).collect();
        assert_eq!(keys, [10, 15, 20, 30, 40]);
        assert_eq!(t.get(20).as_deref(), Some(&[3u8; 40][..]));
    }

    #[test]
    fn fase_tree_survives_power_failure() {
        let mut t = Tree::create(&small_cfg()).unwrap();
        t.begin();
        for k in 0..200u64 {
            t.put(k, &k.to_be_bytes()).unwrap();
        }
        t.commit();
        let want = t.scan(None, 0, u64::MAX, usize::MAX);
        t.crash_and_recover(&CrashMode::StrictDurableOnly).unwrap();
        assert_eq!(t.scan(None, 0, u64::MAX, usize::MAX), want);
        assert_eq!(t.len(), 200);
        // still writable after recovery
        t.begin();
        t.put(1000, b"post").unwrap();
        t.commit();
        assert_eq!(t.get(1000).as_deref(), Some(&b"post"[..]));
    }

    #[test]
    fn fase_tree_rolls_back_open_txn_on_crash() {
        let mut t = Tree::create(&small_cfg()).unwrap();
        t.begin();
        for k in 0..50u64 {
            t.put(k, b"committed").unwrap();
        }
        t.commit();
        t.begin();
        for k in 25..60u64 {
            t.put(k, b"doomed").unwrap();
        }
        t.delete(0).unwrap();
        let high_water = t.pages_allocated();
        // crash with the transaction open: all of it must vanish
        t.crash_and_recover(&CrashMode::random(0.5, 0.5, 0x51ab))
            .unwrap();
        assert_eq!(t.len(), 50);
        assert_eq!(t.get(0).as_deref(), Some(&b"committed"[..]));
        assert_eq!(t.get(30).as_deref(), Some(&b"committed"[..]));
        assert_eq!(t.get(55), None);
        // the crashed transaction's pages (free-list reuse below the
        // durable bump, cursor slack above it) are all reusable, so
        // replaying the same writes must not grow the arena
        t.begin();
        for k in 25..60u64 {
            t.put(k, b"retry").unwrap();
        }
        t.commit();
        assert!(
            t.pages_allocated() <= high_water,
            "orphans were not recycled: {} > {high_water}",
            t.pages_allocated()
        );
    }

    #[test]
    fn fase_tree_crash_image_reopens() {
        let cfg = small_cfg();
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        for k in 0..100u64 {
            t.put(k, &[k as u8; 32]).unwrap();
        }
        t.commit();
        // arm a crash inside the next transaction's commit window
        let at = t.steps() + 40;
        t.arm_crash(CrashPlan {
            at_step: at,
            mode: CrashMode::StrictDurableOnly,
        });
        t.begin();
        for k in 100..140u64 {
            t.put(k, &[k as u8; 32]).unwrap();
        }
        t.commit();
        let image = t.take_crash_image().expect("plan must trip");
        let t2 = Tree::reopen_from_image(image, &cfg).unwrap();
        // committed prefix: either the first 100 keys alone or all 140
        let n = t2.len();
        assert!(n == 100 || n == 140, "len {n} is not a committed state");
        assert_eq!(t2.get(5).as_deref(), Some(&[5u8; 32][..]));
        let scanned = t2.scan(None, 0, u64::MAX, usize::MAX);
        assert_eq!(scanned.len() as u64, n);
    }

    /// The void pass is unlogged: a crash anywhere inside it, under any
    /// adversary, leaves headers the next attach voids again, and the
    /// tree it recovers is the committed one.
    #[test]
    fn a_crash_inside_the_void_pass_revoids_on_the_next_attach() {
        let cfg = small_cfg();
        let mut t = Tree::create(&cfg).unwrap();
        // rewrites, so the free list holds recycled node pages below the
        // high-water mark for the dead transaction to take
        for round in 0..3 {
            t.begin();
            for k in 0..60u64 {
                t.put(k, &[round; 24]).unwrap();
            }
            t.commit();
        }
        let model = t.scan(None, 0, u64::MAX, usize::MAX);
        // a dead transaction whose shadow pages all landed
        t.begin();
        for k in 0..60u64 {
            t.put(k * 7, &[2; 24]).unwrap();
        }
        let image = t
            .store
            .runtime_mut()
            .region()
            .image_after_crash(&CrashMode::AllInFlightLands);
        let reopened = || FasePager::reopen_from_image(image.clone(), &cfg).unwrap();
        let pager = reopened();
        let first = pager.steps();
        let clean = Tree::attach(pager).unwrap();
        let (voided, end) = (clean.voided_pages(), clean.steps());
        assert!(voided > 4, "the dead transaction left {voided} headers");
        assert_eq!(clean.scan(None, 0, u64::MAX, usize::MAX), model);
        for at in first..end {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, at),
            ] {
                let mut pager = reopened();
                pager.arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
                let mut cut = Tree::attach(pager).unwrap();
                let image = cut.take_crash_image().expect("the step is in the pass");
                let back = Tree::reopen_from_image(image, &cfg).unwrap();
                assert_eq!(
                    back.scan(None, 0, u64::MAX, usize::MAX),
                    model,
                    "{mode:?} step {at}"
                );
                if mode == CrashMode::StrictDurableOnly {
                    assert_eq!(back.voided_pages(), voided, "step {at}: nothing was fenced");
                }
                assert_eq!(Tree::attach(back.store).unwrap().voided_pages(), 0);
            }
        }
    }

    #[test]
    fn heal_after_panic_discards_open_txn() {
        let mut t = Tree::create(&small_cfg()).unwrap();
        t.begin();
        t.put(1, b"keep").unwrap();
        t.commit();
        t.begin();
        t.put(2, b"drop").unwrap();
        assert!(t.heal_after_panic().unwrap());
        assert_eq!(t.get(1).as_deref(), Some(&b"keep"[..]));
        assert_eq!(t.get(2), None);
        assert!(!t.in_txn());
    }
}
