//! The recoverable copy-on-write B+-tree with MVCC snapshot reads.
//!
//! # Layout
//!
//! The store's data area is a hash shard's segment table
//! ([`nvcache_fase::segments`]):
//!
//! ```text
//! [head line | class table | segment 0 | segment 1 | …]
//! head    := magic u64 | seven words the tree never writes (a caller's)
//! class   := u8 per segment: 0 = never carved, 4 = 256-byte pages
//! segment := 4 KiB: the pages 16·s … 16·s + 15 of segment s
//! ```
//!
//! Fixed 256-byte pages, addressed by *physical page id* `phys`: page
//! `phys` lies at `seg_base + phys · PAGE`. When the page high-water
//! mark enters a segment never carved, the tree carves it
//! ([`crate::PageWrite::carve`]) before writing its first page. Every
//! tree page opens with a 24-byte header of three little-endian words:
//!
//! ```text
//! w0: tag (low 8 bits) | count (bits 8..32) | checksum (bits 32..64)
//! w1: logical page id (low 32 bits; value cells store LPID_NONE)
//!     | n (bits 32..64; 0 except on a transaction's closing page)
//! w2: stamp: the version of the transaction that wrote the page
//! ```
//!
//! Leaves hold up to 14 `(key, value-cell phys)` pairs; inner nodes up
//! to 14 separator keys and 15 child *logical* ids; value cells hold
//! up to 232 raw bytes (`count` = length). Values larger than one cell
//! are rejected up front (`TreeError::ValueTooLarge`) — the KV engine
//! layered above enforces the same cap at its boundary.
//!
//! A page is a sealed unit of [`nvcache_fase::seal`]: its stamp, the
//! checksum of its **used bytes** (see below) — its header but for the
//! checksum itself, then what the count covers — and, on the one page a
//! transaction wrote last, its **closing page**, the number `n` of pages
//! the transaction leaves live. A page whose checksum holds is **whole**.
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
//! nothing. Every read and write descends through one `seek`, which
//! records the inner path it takes; a scan descends once, and at the
//! end of each leaf climbs that path to the next child and descends
//! only that child's leftmost spine.
//!
//! A writer stages CoW copies under `version + 1` inside one
//! failure-atomic section. The staged pages are shadow memory — no
//! committed page names them — so they are written **unlogged**
//! ([`crate::PageWrite::write_fresh`]), and the transaction commits by
//! its own sealed pages: [`Tree::commit`] stores `n` and the reseal into
//! the closing page's first two words, then ends the section — one
//! drain and one fence, no commit record. A transaction leaves no dead
//! page stamped with its version: a key it puts twice rewrites the
//! value cell it allocated for the first put, a key it puts and then
//! deletes voids that cell, and a transaction that writes nothing
//! stamps nothing (and takes no version).
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
//!   restamped and with no `n` (the page copy LMDB's `mdb_page_touch`
//!   makes). The shadow page is the page's **spare** when it has one:
//!   the copy its committed copy superseded, which [`Tree::reclaim`]
//!   keeps for the logical page (instead of freeing it) once no pin can
//!   reach it, when the copy that superseded it was made for an
//!   overwrite. The spare already holds the page as it was one commit
//!   back, so the copy leaves out every 64-byte line that needs no
//!   write-back — one whose used bytes the spare holds already and that
//!   the edit to follow does not store into — and stores each other
//!   line whole, as a copy onto any other page does. A page without a
//!   spare is copied whole onto a page of the free list;
//! - **Dirty** — `Slot::staged` already names the transaction's own
//!   copy: no copy at all.
//!
//! On either kind the edit then stores exactly the bytes it changed and
//! the header word that holds the page's new checksum: an overwrite is
//! the 8-byte value pointer and w0; an insert the shifted run of entries
//! `[pos, n]` and the count word (w0); a delete the run `[pos, n − 1)`
//! and the count word; an inner insert the key run, the child run and
//! the count word. A page that splits is not copied first: both halves
//! (and a new root) are composed in memory and written once, used bytes
//! only. The persistence stack below sees stores of the words the
//! program changed — which is what lets the paper's write-combining
//! cache combine a transaction's second and third touch of a leaf into
//! the line flushes of the first, and the closing store into the line
//! of the transaction's last edit.
//!
//! A reader calls [`Tree::pin`] to freeze a `(version, root)`
//! pair and scans it without blocking the writer. Superseded copies are
//! retired with the version that replaced them and recycled by
//! [`Tree::reclaim`] once no pin can still reach them: a leaf an
//! overwrite superseded becomes its logical page's spare (the older
//! spare it displaces is freed), and every other page goes on the free
//! list. An overwrite leaves the leaf's entries where they were, so its
//! next copy differs from the spare only where the last one changed
//! it; an insert or a delete shifts every entry after it, and the
//! lines a spare could save are few, while a spare pins the page's two
//! copies in place — copies onto the free list gather the tree's nodes
//! in the pages freed last, and scans cross fewer of them. Spares count
//! as free room: when the free list and the segments are used up, an
//! allocation takes some logical page's spare.
//!
//! # Recovery
//!
//! The durable facts are the head, the class table and the pages.
//! [`Tree::attach`] checks the magic word and every class byte (a
//! carved segment holds pages), folds the pages into the committed
//! version by the commit rule of [`nvcache_fase::seal`] (DESIGN.md
//! §6.3), keeps the newest **whole** copy per logical id at or below it
//! (a dead transaction's torn page can carry any older stamp, and is
//! never whole), takes as root the one logical id no inner page names,
//! and walks the tree from it, validating tags, fanouts, depth, every
//! value cell's checksum and key order: each page's keys ascend within
//! the bounds its parent's separators give it. `len`, `height`, the
//! next logical id and the page high-water mark come from that scan and
//! walk; every unreachable page goes on the free list, and no page is a
//! spare. Structural damage is a typed [`TreeError`], never an
//! undefined read.
//!
//! A copy onto a spare needs no rule of its own. Until the transaction
//! commits, the spare is a page no committed state reads, as any
//! shadow page is: torn, it fails its old checksum and its new one and
//! is not whole; landed whole, it carries the dead version and is
//! voided (below); untouched, it is whole at its old stamp, which is
//! older than its logical page's committed copy, so that copy wins.
//!
//! Attach then durably voids the header of every page stamped above
//! the committed version, value cells included
//! ([`Tree::voided_pages`]): a dead transaction's retry reuses its
//! version, and a dead page left alone would be counted with the
//! retry's, or outrank a live, older copy of its lpid. Voiding is
//! zeroing, by unlogged stores in a section that commits nothing, so a
//! crash mid-void leaves headers the next attach voids again.
//!
//! The count needs what the runtime guarantees: a transaction's lines
//! are flushed when its section ends, so a crash lands each word of its
//! pages either as it was at the last fence or as the transaction last
//! stored it. A section whose flushes overflow the runtime's flush ring
//! drains part of them early, and after such a drain a page the
//! transaction rewrote (a staged leaf, its own value cell, a voided
//! cell) could be durable in an earlier state that is whole too. So
//! when its ring drained early ([`crate::PageWrite::flushed_early`]),
//! [`Tree::commit`] ends the section first — a drain and a fence over
//! the last states — and makes its closing store in a section of its
//! own: two sections, each with one fence.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use nvcache_fase::segments::SEGMENT;
use nvcache_fase::{seal, RecoveryError, SealError, SegmentError, SegmentTable};
use nvcache_pmem::{CrashMode, LINE_SIZE};

use crate::pager::{FasePager, PageStore, TreeConfig, PAGE, PAGE_CLASS};

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
/// Header lpid used by value cells (they have no logical id); also the
/// mask of w1's lpid half.
const LPID_NONE: u64 = u32::MAX as u64;
/// "No physical page" in a [`Slot`].
const PHYS_NONE: u64 = u64::MAX;
/// Largest value a single cell can hold.
pub const MAX_VALUE: usize = PAGE - HDR;
/// Hard bound on tree depth (fanout 8+ makes real trees far shallower).
const MAX_DEPTH: usize = 32;

/// The tree's magic ("TREESTOR"): the head line's first word and the
/// seed of a page's checksum.
const MAGIC: u64 = 0x5452_4545_5354_4f52;
/// Pages per segment.
const PAGES_PER_SEG: u64 = (SEGMENT / PAGE) as u64;

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
    get64(buf, 8) & LPID_NONE
}

/// The `n` of a closing page (0 on any other page).
#[inline]
fn hdr_closing(buf: &[u8; PAGE]) -> u64 {
    get64(buf, 8) >> 32
}

#[inline]
fn hdr_version(buf: &[u8; PAGE]) -> u64 {
    get64(buf, 16)
}

/// Set the count, keeping the tag (the checksum is resealed later).
#[inline]
fn set_count(buf: &mut [u8; PAGE], count: usize) {
    let tag = get64(buf, 0) & 0xff;
    set64(buf, 0, tag | ((count as u64) << 8));
}

/// Restamp a page under `version`, with no `n`: what a copy carries.
#[inline]
fn restamp(buf: &mut [u8; PAGE], version: u64) {
    let lpid = hdr_lpid(buf);
    set64(buf, 8, lpid);
    set64(buf, 16, version);
}

/// Make the page the closing page of a transaction that leaves `n`
/// pages live.
#[inline]
fn set_closing(buf: &mut [u8; PAGE], n: u64) {
    let lpid = hdr_lpid(buf);
    set64(buf, 8, lpid | n << 32);
}

/// The checksum of the used bytes of a page whose tag and count are
/// sound: the header less the checksum's own half of w0, then each run
/// the count covers.
fn page_checksum(buf: &[u8; PAGE]) -> u64 {
    let [head, tail] = used_runs(buf);
    let low = (get64(buf, 0) & 0xffff_ffff).to_le_bytes();
    seal::checksum(MAGIC, [&low[..], &buf[8..head.end], &buf[tail]])
}

/// Seal page `buf` as stored: its checksum into w0's upper half.
#[inline]
fn seal(buf: &mut [u8; PAGE]) {
    let word = get64(buf, 0) & 0xffff_ffff | page_checksum(buf) << 32;
    set64(buf, 0, word);
}

/// Whether `buf` is a whole page: a tag, a count its tag can hold, and
/// a checksum that holds. Anything else — a never-written or voided
/// page, or one a dead transaction tore — is not.
fn whole(buf: &[u8; PAGE]) -> bool {
    let cap = match hdr_tag(buf) {
        TAG_LEAF => LEAF_CAP,
        TAG_INNER => INNER_CAP,
        TAG_VAL => MAX_VALUE,
        _ => return false,
    };
    hdr_count(buf) <= cap && get64(buf, 0) >> 32 == page_checksum(buf)
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

/// The used bytes of page `buf` — its header and what its count
/// covers: one run for a leaf or a value cell, two for an inner page
/// (the second run of the others is empty). Nothing reads a page
/// outside them.
#[inline]
fn used_runs(buf: &[u8; PAGE]) -> [Range<usize>; 2] {
    let n = hdr_count(buf);
    match hdr_tag(buf) {
        TAG_LEAF => [0..leaf_run(0, n).end, 0..0],
        TAG_INNER => [0..key_run(0, n).end, child_run(0, n + 1)],
        _ => [0..HDR + n, 0..0],
    }
}

/// Whether `keys` ascend strictly within `lo..hi` (no bound above for
/// `hi` = `None`): the keys of a page whose parent's separators give it
/// those bounds.
fn keys_within(mut keys: impl Iterator<Item = u64>, lo: u64, hi: Option<u64>) -> bool {
    let mut least = Some(lo);
    keys.all(|k| {
        let ok = least.is_some_and(|m| k >= m) && hi.is_none_or(|h| k < h);
        least = k.checked_add(1);
        ok
    })
}

/// `(count, pos, hit)` of leaf `buf`: `pos` is the first entry whose
/// key is not below `key` (`count` when there is none), `hit` its value
/// cell when its key is `key`.
#[inline]
fn leaf_position(buf: &[u8; PAGE], key: u64) -> (usize, usize, Option<u64>) {
    let n = hdr_count(buf);
    let mut pos = 0;
    while pos < n && leaf_key(buf, pos) < key {
        pos += 1;
    }
    let hit = (pos < n && leaf_key(buf, pos) == key).then(|| leaf_vptr(buf, pos));
    (n, pos, hit)
}

/// The inner levels one descent crossed, root first: `(logical id,
/// child index)` each. `put` pops it to propagate a split; a scan
/// climbs it to the next leaf.
#[derive(Default)]
struct Path {
    steps: [(u64, usize); MAX_DEPTH],
    depth: usize,
}

impl Path {
    fn push(&mut self, lpid: u64, idx: usize) {
        assert!(self.depth < MAX_DEPTH, "treestore descent depth exceeded");
        self.steps[self.depth] = (lpid, idx);
        self.depth += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        self.depth = self.depth.checked_sub(1)?;
        Some(self.steps[self.depth])
    }
}

/// A read's page, or its panic: reads return no error, because attach
/// validated every page a committed or staged view can reach.
fn read<T>(version: u64, r: Result<T, TreeError>) -> T {
    r.unwrap_or_else(|e| panic!("treestore read at v{version}: {e}"))
}

// ---- errors -----------------------------------------------------------

/// Typed failures from the tree engine. Structural variants
/// (`BadImage` / `BadSegment` / `BadPage` / `UnresolvedChild`) only
/// arise when attaching to a damaged image; live operations (and a
/// format) see `ValueTooLarge` and `Full`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The value exceeds one cell ([`MAX_VALUE`] bytes).
    ValueTooLarge {
        /// Offered length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// Every segment of the data area is full (or there is none).
    Full,
    /// The image is not a tree's (no magic word), or its last
    /// transactions cannot be judged.
    BadImage(&'static str),
    /// A class byte or a segment breaks a rule of the segment table.
    BadSegment(SegmentError),
    /// A page breaks the commit rule.
    BadSeal(SealError),
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
    /// The image is shorter than the data area.
    Recovery(RecoveryError),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the {max}-byte cell cap")
            }
            TreeError::Full => write!(f, "tree storage exhausted"),
            TreeError::BadImage(why) => write!(f, "bad tree image: {why}"),
            TreeError::BadSegment(e) => write!(f, "{e}"),
            TreeError::BadSeal(e) => write!(f, "{e}"),
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

/// Attach's verdict on page `phys`, which breaks rule `why`.
fn bad_page<T>(phys: u64, why: &'static str) -> Result<T, TreeError> {
    Err(TreeError::BadPage { phys, why })
}

// ---- MVCC surface -----------------------------------------------------

/// A pinned read view: `(version, root, len)` frozen at [`Tree::pin`]
/// time. Reads through a snapshot never observe commits newer than its
/// version; the pages it can reach are not recycled until the snapshot
/// is passed back to [`Tree::unpin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    version: u64,
    root_lpid: u64,
    len: u64,
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
    /// Whether the page becomes its logical page's spare instead of
    /// free: the copy that superseded it was made for an overwrite.
    spare: bool,
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
    /// The newest superseded copy no pin can reach, kept when an
    /// overwrite superseded it ([`PHYS_NONE`] when there is none): where
    /// the next Clean copy of the page lands.
    spare: u64,
}

impl Slot {
    const EMPTY: Slot = Slot {
        version: u64::MAX,
        phys: PHYS_NONE,
        staged: PHYS_NONE,
        older: Vec::new(),
        spare: PHYS_NONE,
    };
}

/// Open-transaction state: everything staged under `version`, made
/// visible to readers only when the FASE commits. What the transaction
/// staged and retired is listed in buffers the tree owns
/// (`Tree::staged`, `Tree::txn_retired`), so opening one allocates
/// nothing.
struct Txn {
    version: u64,
    root_lpid: u64,
    next_lpid: u64,
    len: u64,
    height: u64,
    /// Pages the transaction allocated and leaves live: the `n` its
    /// closing page carries.
    pages: u64,
    /// The live page it wrote last — its closing page ([`PHYS_NONE`]
    /// until it writes one).
    last: u64,
}

/// Volatile state rebuilt from the durable image by
/// [`rebuild_state`] — shared by [`Tree::attach`] and post-crash
/// reloads.
#[derive(Default)]
struct Volatile {
    version: u64,
    root_lpid: u64,
    next_lpid: u64,
    bump: u64,
    len: u64,
    height: u64,
    free: Vec<u64>,
    slots: Vec<Slot>,
    /// Pages of a dead transaction whose headers were voided.
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
    /// Where the class table and the segments of the store lie.
    table: SegmentTable,
    /// Latest committed version.
    version: u64,
    root_lpid: u64,
    next_lpid: u64,
    /// Physical-page high-water mark.
    bump: u64,
    len: u64,
    height: u64,
    /// Recycled physical pages.
    free: Vec<u64>,
    /// Slots holding a spare (see [`Slot::spare`]).
    spares: usize,
    /// Superseded pages awaiting a safe reclaim horizon.
    retired: Vec<Retired>,
    /// The remap table: one [`Slot`] per logical page id.
    slots: Vec<Slot>,
    /// version -> pin count.
    pins: BTreeMap<u64, u64>,
    /// Dead pages whose headers the last attach / recovery voided.
    voided: usize,
    txn: Option<Txn>,
    /// Logical ids the open transaction holds a staged copy of, in the
    /// order it first touched them (what `commit` makes visible).
    staged: Vec<u64>,
    /// `(phys, lpid, spare)` of the pages the open transaction
    /// supersedes (see [`Retired`]), in the order it did (the order
    /// they later enter the free list).
    txn_retired: Vec<(u64, u64, bool)>,
    /// The differential reference: every store of part of a page
    /// rewrites the whole page from the in-memory image instead.
    #[cfg(test)]
    whole_pages: bool,
}

impl<S: PageStore> Tree<S> {
    /// Format a fresh tree (empty root leaf, version 1) onto `store`, a
    /// store no segment of which is carved: its magic word, segment 0
    /// carved, and page 0 the root leaf. `Full` when the data area has
    /// no room for a segment.
    pub fn format(mut store: S) -> Result<Tree<S>, TreeError> {
        let table = SegmentTable::new(store.len() as usize);
        if table.segments() == 0 {
            return Err(TreeError::Full);
        }
        // page 0 is the root leaf, and the format's closing page
        let mut leaf = [0u8; PAGE];
        hdr_write(&mut leaf, TAG_LEAF, 0, 0, 1);
        set_closing(&mut leaf, 1);
        seal(&mut leaf);
        store.carve(0);
        store.begin();
        store.write_fresh(0, &MAGIC.to_le_bytes());
        store.write_fresh(table.segment(0) as u64, &leaf[..HDR]);
        store.commit();
        // what an attach would rebuild, without the survey
        let root = Slot {
            version: 1,
            phys: 0,
            ..Slot::EMPTY
        };
        let v = Volatile {
            version: 1,
            next_lpid: 1,
            bump: 1,
            height: 1,
            slots: vec![root],
            ..Volatile::default()
        };
        Ok(Tree::assemble(store, v))
    }

    /// Attach to a store already holding a formatted tree, rebuilding
    /// all volatile state (remap table, free list) from its segments. A
    /// dead transaction's pages are swept onto the free list and their
    /// headers durably voided (see the module docs); structural damage
    /// is reported as a typed error before anything is written.
    pub fn attach(mut store: S) -> Result<Tree<S>, TreeError> {
        let v = rebuild_state(&mut store)?;
        Ok(Tree::assemble(store, v))
    }

    /// The tree over `store` whose volatile state is `v`, with no pin,
    /// nothing retired and no transaction open.
    fn assemble(store: S, v: Volatile) -> Tree<S> {
        Tree {
            table: SegmentTable::new(store.len() as usize),
            store,
            version: v.version,
            root_lpid: v.root_lpid,
            next_lpid: v.next_lpid,
            bump: v.bump,
            len: v.len,
            height: v.height,
            free: v.free,
            spares: 0,
            retired: Vec::new(),
            slots: v.slots,
            pins: BTreeMap::new(),
            voided: v.voided,
            txn: None,
            staged: Vec::new(),
            txn_retired: Vec::new(),
            #[cfg(test)]
            whole_pages: false,
        }
    }

    /// Re-derive volatile state from the durable image (after a crash
    /// or rollback). Discards pins and the retired list.
    fn reload(&mut self) -> Result<(), TreeError> {
        let v = rebuild_state(&mut self.store)?;
        self.version = v.version;
        self.root_lpid = v.root_lpid;
        self.next_lpid = v.next_lpid;
        self.bump = v.bump;
        self.len = v.len;
        self.height = v.height;
        self.free = v.free;
        self.spares = 0;
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

    /// Recycled pages ready for reuse: the free list and the spares.
    pub fn free_pages(&self) -> usize {
        self.free.len() + self.spares
    }

    /// Superseded pages still held back by pins.
    pub fn retired_pages(&self) -> usize {
        self.retired.len()
    }

    /// Pages of a dead transaction — node pages and value cells —
    /// whose headers the last attach (or in-place recovery) voided.
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
            len: self.len,
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
    /// were recycled. A leaf an overwrite superseded becomes its logical
    /// page's spare, and the spare it displaces (an older copy) is
    /// freed. Runs automatically on commit and unpin.
    pub fn reclaim(&mut self) -> usize {
        let floor = self.min_pinned().unwrap_or(self.version);
        let before = self.retired.len();
        // in place and in order: the free list is a stack, so the order
        // pages enter it decides which page the next allocation gets;
        // and the list ascends by version, so an lpid's spare ends as
        // its newest superseded copy
        self.retired.retain(|r| {
            if r.version > floor {
                return true;
            }
            if r.lpid != LPID_NONE {
                self.slots[r.lpid as usize]
                    .older
                    .retain(|&(_, p)| p != r.phys);
            }
            if !r.spare {
                self.free.push(r.phys);
                return false;
            }
            match std::mem::replace(&mut self.slots[r.lpid as usize].spare, r.phys) {
                PHYS_NONE => self.spares += 1,
                older => self.free.push(older),
            }
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
        let version = seal::next(self.version);
        self.store.begin();
        self.txn = Some(Txn {
            version,
            root_lpid: self.root_lpid,
            next_lpid: self.next_lpid,
            len: self.len,
            height: self.height,
            pages: 0,
            last: PHYS_NONE,
        });
        debug_assert!(self.staged.is_empty() && self.txn_retired.is_empty());
    }

    /// Commit the open transaction: seal its closing page with the
    /// number of pages it leaves live, close the section (one drain and
    /// one fence: the commit point), then expose the staged remap
    /// entries to readers and retire superseded pages. A transaction
    /// whose flush ring drained before its end fences its pages first
    /// and seals in a second section (module docs, # Recovery). A
    /// transaction that wrote nothing stamps nothing and takes no
    /// version.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn commit(&mut self) {
        let txn = self.txn.take().expect("commit without begin");
        if txn.last != PHYS_NONE {
            if self.store.flushed_early() {
                // the ring drained mid-section, so an earlier state of a
                // page rewritten since may be durable: fence the last
                // states first, then seal in a section of its own
                self.store.commit();
                self.store.begin();
            }
            // the closing store: `n` beside the lpid and the reseal, the
            // page's first two words, in the line its last edit dirtied
            let off = self.page_off(txn.last);
            let mut b = *self.store.page(off);
            set_closing(&mut b, txn.pages);
            seal(&mut b);
            self.store.write_fresh(off, &b[..16]);
        }
        self.store.commit();
        if txn.last == PHYS_NONE {
            debug_assert!(self.staged.is_empty() && self.txn_retired.is_empty());
            return;
        }
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
        for (phys, lpid, spare) in self.txn_retired.drain(..) {
            self.retired.push(Retired {
                phys,
                lpid,
                version: txn.version,
                spare,
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
    /// before any page is touched, so a failed put stages nothing. A key
    /// the open transaction already put is overwritten in the value
    /// cell that put allocated.
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
        // split per inner level + a new root; short of that, what this
        // key needs
        let needed = 2 * self.height() + 4;
        if self.ensure_capacity(needed).is_err() {
            self.ensure_capacity(self.need(key, true)?)?;
        }
        let (tv, root) = self.view();

        // descend, remembering the inner path for possible splits
        let mut path = Path::default();
        let b = self.seek(tv, root, key, &mut path)?;
        let (lpid, (n, pos, old)) = (hdr_lpid(b), leaf_position(b, key));

        if let Some(cell) = old.filter(|&c| self.is_own_cell(lpid, c, tv)) {
            self.write_value_cell(cell, val);
            return Ok(());
        }
        let vptr = self.alloc_page().ok_or(TreeError::Full)?;
        self.write_value_cell(vptr, val);
        let splits = old.is_none() && n == LEAF_CAP;
        let edit = match old {
            Some(_) => [vptr_word(pos), 0..0],
            None => [leaf_run(pos, n + 1), 0..0],
        };
        let (lphys, mut lbuf) = self.cow(lpid, (!splits).then_some(&edit), old.is_some())?;

        if let Some(old) = old {
            set_leaf_entry(&mut lbuf, pos, key, vptr);
            self.write_edit(lphys, &mut lbuf, edit);
            self.txn_retired.push((old, LPID_NONE, false));
            return Ok(());
        }

        if !splits {
            lbuf.copy_within(leaf_run(pos, n), leaf_run(pos + 1, n + 1).start);
            set_leaf_entry(&mut lbuf, pos, key, vptr);
            set_count(&mut lbuf, n + 1);
            self.write_edit(lphys, &mut lbuf, edit);
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
        self.write_page(lphys, &mut lbuf);

        let rlpid = self.alloc_lpid();
        let rphys = self.alloc_page().ok_or(TreeError::Full)?;
        let mut rbuf = [0u8; PAGE];
        hdr_write(&mut rbuf, TAG_LEAF, (LEAF_CAP + 1 - LEFT) as u64, rlpid, tv);
        for i in LEFT..LEAF_CAP + 1 {
            set_leaf_entry(&mut rbuf, i - LEFT, ks[i], vs[i]);
        }
        self.write_page(rphys, &mut rbuf);
        self.stage(rlpid, rphys);
        self.txn.as_mut().unwrap().len += 1;

        self.insert_into_parents(&mut path, ks[LEFT], rlpid)
    }

    /// Insert or overwrite every `(key, value)` of `items`, in order, as
    /// one all-or-nothing step of the open transaction: every value is
    /// checked and the group's worst case reserved (`put`'s bound per
    /// item, or else what each key needs) before any item is staged, so
    /// a refused group stages nothing.
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
        let worst = items.len() as u64 * (2 * self.height() + 4);
        if self.ensure_capacity(worst).is_err() {
            let mut needed = 0;
            for (i, (key, _)) in items.iter().enumerate() {
                // a key the group put before needs nothing more
                if items[..i].iter().all(|(k, _)| k != key) {
                    needed += self.need(*key, false)?;
                }
            }
            self.ensure_capacity(needed)?;
        }
        for (key, val) in items {
            self.put(*key, val.as_ref())?;
        }
        Ok(())
    }

    /// Remove `key`; returns whether it was present. Deletes are lazy:
    /// leaves are never merged, so an emptied leaf simply stays. A key
    /// the open transaction put takes its value cell with it: the cell
    /// is voided and free again.
    ///
    /// # Panics
    /// When no transaction is open.
    pub fn delete(&mut self, key: u64) -> Result<bool, TreeError> {
        assert!(self.txn.is_some(), "delete outside a transaction");
        self.ensure_capacity(2)?;
        let (tv, root) = self.view();
        let b = self.seek(tv, root, key, &mut Path::default())?;
        let (lpid, (n, pos, Some(old))) = (hdr_lpid(b), leaf_position(b, key)) else {
            return Ok(false);
        };
        let own = self.is_own_cell(lpid, old, tv);
        let edit = [leaf_run(pos, n - 1), 0..0];
        let (lphys, mut lbuf) = self.cow(lpid, Some(&edit), false)?;
        if own {
            // a dead page must not stay stamped with the version
            let off = self.page_off(old);
            self.store.write_fresh(off, &[0u8; HDR]);
            self.txn.as_mut().unwrap().pages -= 1;
            self.free.push(old);
        } else {
            self.txn_retired.push((old, LPID_NONE, false));
        }
        lbuf.copy_within(leaf_run(pos + 1, n), leaf_run(pos, n - 1).start);
        set_count(&mut lbuf, n - 1);
        self.write_edit(lphys, &mut lbuf, edit);
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
        // sized once: no more entries than the limit, the view's keys
        // or the keys the range can hold
        let len = snap.map_or(self.len(), |s| s.len);
        let span = hi.saturating_sub(lo).saturating_add(1);
        let mut out = Vec::with_capacity((limit as u64).min(len).min(span) as usize);
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
    /// current view. One descent finds `lo`; from the end of each leaf
    /// the walk climbs its path to the next child and descends that
    /// child's leftmost spine.
    pub fn visit(
        &self,
        snap: Option<&Snapshot>,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, &[u8]) -> bool,
    ) {
        let (v, root) = snap.map_or_else(|| self.view(), |s| (s.version, s.root_lpid));
        let mut path = Path::default();
        let mut leaf = read(v, self.seek(v, root, lo, &mut path));
        loop {
            // past the first leaf every key is above `lo`: it starts at 0
            for i in leaf_position(leaf, lo).1..hdr_count(leaf) {
                let k = leaf_key(leaf, i);
                if k > hi || !f(k, self.read_value(leaf_vptr(leaf, i))) {
                    return;
                }
            }
            // climb to the lowest level with a child right of the path;
            // every key under that child is at or above its separator,
            // so seeking the separator descends the leftmost spine
            let (sep, child) = loop {
                let Some((lpid, idx)) = path.pop() else {
                    return;
                };
                let b = read(v, self.load_page(lpid, v));
                if idx < hdr_count(b) {
                    path.push(lpid, idx + 1);
                    break (inner_key(b, idx), inner_child(b, idx + 1));
                }
            };
            if sep > hi {
                return;
            }
            leaf = read(v, self.seek(v, child, sep, &mut path));
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
        let leaf = read(version, self.seek(version, root, key, &mut Path::default()));
        leaf_position(leaf, key).2.map(|vptr| self.read_value(vptr))
    }

    /// The one descent of every read and write: from `lpid` down to the
    /// leaf covering `key` at version `v`, borrowed from the store,
    /// pushing each inner level it crosses onto `path`.
    fn seek(
        &self,
        v: u64,
        mut lpid: u64,
        key: u64,
        path: &mut Path,
    ) -> Result<&[u8; PAGE], TreeError> {
        loop {
            let b = self.load_page(lpid, v)?;
            if hdr_tag(b) == TAG_LEAF {
                return Ok(b);
            }
            // the child whose range covers `key`
            let mut idx = 0;
            while idx < hdr_count(b) && key >= inner_key(b, idx) {
                idx += 1;
            }
            path.push(lpid, idx);
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
        self.table.segment(0) as u64 + phys * PAGE as u64
    }

    /// Store bytes `run` of `buf` at the same place in page `phys`, a
    /// page the open transaction allocated: shadow memory no committed
    /// page names, hence unlogged. An empty run stores nothing.
    fn write_run(&mut self, phys: u64, buf: &[u8; PAGE], run: Range<usize>) {
        if run.is_empty() {
            return;
        }
        #[cfg(test)]
        let run = if self.whole_pages { 0..PAGE } else { run };
        let off = self.page_off(phys) + run.start as u64;
        self.store.write_fresh(off, &buf[run]);
    }

    /// Seal node page `buf` and store its used bytes to page `phys`.
    fn write_page(&mut self, phys: u64, buf: &mut [u8; PAGE]) {
        seal(buf);
        for run in used_runs(buf) {
            self.write_run(phys, buf, run);
        }
        self.txn.as_mut().unwrap().last = phys;
    }

    /// Seal node page `buf` after an edit and store what the edit
    /// changed — `runs` — and then the header word that holds the new
    /// checksum (the count word, for an edit that changes the count).
    fn write_edit(&mut self, phys: u64, buf: &mut [u8; PAGE], runs: [Range<usize>; 2]) {
        seal(buf);
        for run in runs {
            self.write_run(phys, buf, run);
        }
        self.write_run(phys, buf, COUNT_WORD);
        self.txn.as_mut().unwrap().last = phys;
    }

    /// Whether value cell `vptr`, which leaf `lpid` names, is one the
    /// open transaction (stamped `tv`) allocated: a cell it may rewrite
    /// or void in place. Only a leaf the transaction has staged can name
    /// one, so the cell is read only then.
    fn is_own_cell(&self, lpid: u64, vptr: u64, tv: u64) -> bool {
        self.slots[lpid as usize].staged != PHYS_NONE
            && hdr_version(self.store.page(self.page_off(vptr))) == tv
    }

    fn alloc_lpid(&mut self) -> u64 {
        let t = self.txn.as_mut().unwrap();
        let l = t.next_lpid;
        t.next_lpid += 1;
        l
    }

    /// Take a physical page for the open transaction from the free
    /// list or the high-water mark, carving the mark's segment first
    /// when the mark enters one never carved, and when both are used up
    /// take some logical page's spare. A carve is durable before the
    /// page is written, and is not the transaction's: a crash keeps the
    /// segment carved.
    fn alloc_page(&mut self) -> Option<u64> {
        let p = match self.free.pop() {
            Some(p) => p,
            None if self.bump < self.table.segments() as u64 * PAGES_PER_SEG => {
                let p = self.bump;
                let segment = (p / PAGES_PER_SEG) as usize;
                let data = self.store.bytes(0, self.store.len() as usize);
                if p.is_multiple_of(PAGES_PER_SEG) && self.table.class_byte(data, segment) == 0 {
                    self.store.carve(segment);
                }
                self.bump += 1;
                p
            }
            None => {
                let lpid = self.slots.iter().position(|s| s.spare != PHYS_NONE)?;
                return self.take_spare(lpid as u64);
            }
        };
        self.txn.as_mut().unwrap().pages += 1;
        Some(p)
    }

    /// Take `lpid`'s spare, if it has one, for the open transaction.
    fn take_spare(&mut self, lpid: u64) -> Option<u64> {
        let spare = &mut self.slots[lpid as usize].spare;
        if *spare == PHYS_NONE {
            return None;
        }
        self.spares -= 1;
        self.txn.as_mut().unwrap().pages += 1;
        Some(std::mem::replace(spare, PHYS_NONE))
    }

    /// The pages a put of `key` needs at most: none for a key the open
    /// transaction put (its own cell); a value cell and, for a leaf the
    /// transaction has not copied yet, a leaf copy for an overwrite or
    /// an insert. An insert into a full leaf also needs the leaf's
    /// right half, and up the recorded path, at each inner level, a
    /// copy if the transaction has not copied it, plus a right half
    /// while the level is full, and a new root past a full root. An
    /// insert that is not `alone` — one of a group — reserves `put`'s
    /// worst case instead: the group's earlier inserts may fill the
    /// pages it lands on. Cold: only a nearly full tree gets here, and
    /// out of line it leaves `put`'s fast path as it was.
    #[cold]
    fn need(&self, key: u64, alone: bool) -> Result<u64, TreeError> {
        let (tv, root) = self.view();
        let mut path = Path::default();
        let b = self.seek(tv, root, key, &mut path)?;
        let (lpid, (n, _, old)) = (hdr_lpid(b), leaf_position(b, key));
        let clean = |lpid: u64| u64::from(self.slots[lpid as usize].staged == PHYS_NONE);
        match old {
            Some(cell) if self.is_own_cell(lpid, cell, tv) => return Ok(0),
            Some(_) => return Ok(1 + clean(lpid)),
            None if !alone => return Ok(2 * self.height() + 4),
            None if n < LEAF_CAP => return Ok(1 + clean(lpid)),
            None => {}
        }
        let mut needed = 1 + clean(lpid) + 1;
        while let Some((plpid, _)) = path.pop() {
            needed += clean(plpid);
            if hdr_count(self.load_page(plpid, tv)?) < INNER_CAP {
                return Ok(needed);
            }
            needed += 1;
        }
        Ok(needed + 1)
    }

    /// Whether at least `needed` pages are allocatable, so a multi-page
    /// operation cannot fail with half its pages staged.
    fn ensure_capacity(&self, needed: u64) -> Result<(), TreeError> {
        let slack = self.table.segments() as u64 * PAGES_PER_SEG - self.bump;
        let room = (self.free.len() + self.spares) as u64 + slack >= needed;
        room.then_some(()).ok_or(TreeError::Full)
    }

    /// Copy-on-write `lpid` for the open transaction: returns the
    /// staged physical copy and an image of it in memory, for the
    /// caller to edit, seal and store the changed bytes of: `edit`, the
    /// runs its edit stores (`None` for a page about to split, whose
    /// halves are written once, after the split), `in_place` when the
    /// edit is an overwrite. A *Clean* page — the transaction's first
    /// touch — gets a shadow page (the page's spare when it has one),
    /// retires the committed copy (to become the next spare if
    /// `in_place`) and, unless it splits, receives the committed copy's
    /// used bytes, restamped. A *Dirty* page is the staged copy itself:
    /// nothing is stored.
    fn cow(
        &mut self,
        lpid: u64,
        edit: Option<&[Range<usize>; 2]>,
        in_place: bool,
    ) -> Result<(u64, [u8; PAGE]), TreeError> {
        let tv = self.txn.as_ref().unwrap().version;
        let old = self
            .resolve(lpid, tv)
            .ok_or(TreeError::UnresolvedChild { lpid })?;
        let mut b = *self.store.page(self.page_off(old));
        if self.slots[lpid as usize].staged == old {
            return Ok((old, b));
        }
        restamp(&mut b, tv);
        let spare = self.take_spare(lpid);
        let p = match spare {
            Some(p) => p,
            None => self.alloc_page().ok_or(TreeError::Full)?,
        };
        self.stage(lpid, p);
        self.txn_retired.push((old, lpid, in_place));
        // the edit that follows reseals the copy
        match (edit, spare) {
            (Some(edit), Some(_)) => self.write_changed(p, &b, edit),
            (Some(_), None) => {
                for run in used_runs(&b) {
                    self.write_run(p, &b, run);
                }
            }
            (None, _) => {}
        }
        Ok((p, b))
    }

    /// Store the used bytes of node page `buf` onto page `phys`, an
    /// older copy of it, line by line, leaving out every line that
    /// needs no write-back: one whose used bytes `phys` already holds
    /// and that the edit to follow (`edit`) does not store into. A line
    /// stored is stored whole, as a copy onto any other page would be,
    /// with the lines next to it.
    fn write_changed(&mut self, phys: u64, buf: &[u8; PAGE], edit: &[Range<usize>; 2]) {
        let held = *self.store.page(self.page_off(phys));
        for used in used_runs(buf) {
            // the lines stored since the last one left out
            let (mut run, mut at) = (used.start..used.start, used.start);
            while at < used.end {
                let line = at & !(LINE_SIZE - 1);
                let end = (line + LINE_SIZE).min(used.end);
                let edited = edit
                    .iter()
                    .any(|r| r.start < line + LINE_SIZE && line < r.end);
                if !edited && held[at..end] == buf[at..end] {
                    self.write_run(phys, buf, run);
                    run = end..end;
                } else {
                    run.end = end;
                }
                at = end;
            }
            self.write_run(phys, buf, run);
        }
    }

    /// Write `val` into value cell `phys`, sealed, with one store: a
    /// fresh cell, or one the open transaction allocated and now
    /// rewrites.
    fn write_value_cell(&mut self, phys: u64, val: &[u8]) {
        let tv = self.txn.as_ref().unwrap().version;
        let mut b = [0u8; PAGE];
        hdr_write(&mut b, TAG_VAL, val.len() as u64, LPID_NONE, tv);
        b[HDR..HDR + val.len()].copy_from_slice(val);
        seal(&mut b);
        let off = self.page_off(phys);
        self.store.write_fresh(off, &b[..HDR + val.len()]);
        self.txn.as_mut().unwrap().last = phys;
    }

    /// Propagate a split: insert `(sep, right)` into the parents along
    /// `path` (what `put`'s descent recorded), splitting them in turn as
    /// needed; an empty path grows a new root.
    fn insert_into_parents(
        &mut self,
        path: &mut Path,
        mut sep: u64,
        mut right: u64,
    ) -> Result<(), TreeError> {
        let tv = self.txn.as_ref().unwrap().version;
        loop {
            let Some((plpid, idx)) = path.pop() else {
                let nl = self.alloc_lpid();
                let np = self.alloc_page().ok_or(TreeError::Full)?;
                let old_root = self.txn.as_ref().unwrap().root_lpid;
                let mut b = [0u8; PAGE];
                hdr_write(&mut b, TAG_INNER, 1, nl, tv);
                set_inner_key(&mut b, 0, sep);
                set_inner_child(&mut b, 0, old_root);
                set_inner_child(&mut b, 1, right);
                self.write_page(np, &mut b);
                self.stage(nl, np);
                let t = self.txn.as_mut().unwrap();
                t.root_lpid = nl;
                t.height += 1;
                return Ok(());
            };
            let n = hdr_count(self.load_page(plpid, tv)?);
            let edit = [key_run(idx, n + 1), child_run(idx + 1, n + 2)];
            let (pphys, mut pbuf) = self.cow(plpid, (n < INNER_CAP).then_some(&edit), false)?;
            if n < INNER_CAP {
                pbuf.copy_within(key_run(idx, n), key_run(idx + 1, n + 1).start);
                pbuf.copy_within(child_run(idx + 1, n + 1), child_run(idx + 2, n + 2).start);
                set_inner_key(&mut pbuf, idx, sep);
                set_inner_child(&mut pbuf, idx + 1, right);
                set_count(&mut pbuf, n + 1);
                self.write_edit(pphys, &mut pbuf, edit);
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
            self.write_page(pphys, &mut pbuf);

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
            self.write_page(rphys, &mut rbuf);
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

    /// Re-attach to a crash image: an image shorter than the data area
    /// is [`TreeError::Recovery`]; any other goes to the structural
    /// rebuild.
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
        self.store.runtime_mut().crash_and_recover(mode);
        self.reload()
    }

    /// Roll back a transaction that panicked mid-flight and re-derive
    /// volatile state. Returns whether anything was rolled back.
    pub fn heal_after_panic(&mut self) -> Result<bool, TreeError> {
        self.txn = None;
        let healed = self.store.runtime_mut().heal_after_panic();
        self.reload()?;
        Ok(healed)
    }
}

// ---- recovery ---------------------------------------------------------

/// Rebuild the volatile view from the durable image: check the head and
/// the class table, fold the pages into the committed version, keep the
/// newest whole committed copy per logical id (in the slot table
/// itself), find the root and walk the tree from it (validating
/// structure as it goes), free every unreachable page, and — only once
/// the image has proven sound — void what a dead transaction left.
fn rebuild_state<S: PageStore>(store: &mut S) -> Result<Volatile, TreeError> {
    let table = SegmentTable::new(store.len() as usize);
    if table.segments() == 0 || store.read_u64_at(0) != MAGIC {
        return Err(TreeError::BadImage("no magic word"));
    }
    // every class byte keeps the table's rules, and a carved segment
    // holds pages
    let data = store.bytes(0, store.len() as usize);
    let (base, mut carved) = (table.segment(0), Vec::new());
    let blocks = table
        .blocks(data, PAGE_CLASS)
        .map_err(TreeError::BadSegment)?;
    for (at, class) in blocks {
        if class != PAGE_CLASS {
            let (segment, why) = ((at - base) / SEGMENT, "a class other than the page class");
            return Err(TreeError::BadSegment(SegmentError { segment, why }));
        }
        carved.push(((at - base) / PAGE) as u64);
    }
    let pages = table.segments() as u64 * PAGES_PER_SEG;
    let page_off = |phys: u64| (base + phys as usize * PAGE) as u64;
    let carved_pages = || carved.iter().copied();

    let units = carved_pages().map(|phys| {
        let b = store.page(page_off(phys));
        let seal = move || whole(b).then(|| hdr_closing(b));
        (phys, hdr_version(b), seal)
    });
    let version = seal::committed(units).map_err(TreeError::BadSeal)?;
    if version == 0 {
        return Err(TreeError::BadImage("no committed page"));
    }

    // newest whole committed copy per logical id: stale copies of an
    // lpid always carry an older version than its live one (pages are
    // only retired when a newer commit supersedes them), and a page a
    // dead transaction tore is not whole, whatever stamp it kept; every
    // page stamped above the committed version is dead
    let mut slots: Vec<Slot> = Vec::new();
    let (mut dead, mut bump) = (Vec::new(), 0);
    for phys in carved_pages() {
        let b = store.page(page_off(phys));
        let v = hdr_version(b);
        if v > version {
            dead.push(page_off(phys));
            continue;
        }
        if v == 0 {
            continue;
        }
        bump = phys + 1;
        if hdr_tag(b) == TAG_VAL || !whole(b) {
            continue;
        }
        let l = hdr_lpid(b);
        if l >= pages {
            return bad_page(phys, "logical id past the page count");
        }
        if l as usize >= slots.len() {
            slots.resize(l as usize + 1, Slot::EMPTY);
        }
        let s = &mut slots[l as usize];
        if s.phys == PHYS_NONE || v > s.version {
            (s.version, s.phys) = (v, phys);
        }
    }
    let next_lpid = slots.len() as u64;

    // the root is the one logical id no inner page names
    let mut named = vec![false; slots.len()];
    for s in slots.iter().filter(|s| s.phys != PHYS_NONE) {
        let b = store.page(page_off(s.phys));
        if hdr_tag(b) == TAG_INNER {
            for i in 0..=hdr_count(b) {
                if let Some(c) = named.get_mut(inner_child(b, i) as usize) {
                    *c = true;
                }
            }
        }
    }
    let mut roots =
        (0..next_lpid).filter(|&l| !named[l as usize] && slots[l as usize].phys != PHYS_NONE);
    let root_lpid = roots
        .next()
        .ok_or(TreeError::BadImage("every logical page is named"))?;
    if let Some(l) = roots.next() {
        return bad_page(
            slots[l as usize].phys,
            "a second logical page no inner page names",
        );
    }

    // reachability walk from the root, validating structure; each page
    // with the key bounds its parent's separators give it
    let mut reach = vec![false; pages as usize];
    let (mut len, mut height) = (0u64, None);
    let mut stack = vec![(root_lpid, 1u64, 0, None)];
    while let Some((l, depth, lo, hi)) = stack.pop() {
        let phys = slots[l as usize].phys;
        if phys == PHYS_NONE {
            return Err(TreeError::UnresolvedChild { lpid: l });
        }
        // a node page carries one logical id, so reaching the page
        // twice is reaching its id twice (value cells, the other pages
        // marked below, are never node pages: their tag is checked)
        if std::mem::replace(&mut reach[phys as usize], true) {
            return bad_page(phys, "logical page reached twice (cycle)");
        }
        let b = store.page(page_off(phys));
        let (n, leaf) = (hdr_count(b), hdr_tag(b) == TAG_LEAF);
        let key = if leaf { leaf_key } else { inner_key };
        if !keys_within((0..n).map(|i| key(b, i)), lo, hi) {
            return bad_page(phys, "keys out of order or outside the parent's bounds");
        }
        if leaf {
            if *height.get_or_insert(depth) != depth {
                return bad_page(phys, "leaf at wrong depth");
            }
            for i in 0..n {
                let vp = leaf_vptr(b, i);
                if vp >= pages {
                    return bad_page(phys, "value pointer out of range");
                }
                let vb = store.page(page_off(vp));
                if hdr_tag(vb) != TAG_VAL {
                    return bad_page(vp, "leaf points at a non-value page");
                }
                if !whole(vb) || hdr_version(vb) > version {
                    return bad_page(vp, "reachable page fails its checksum");
                }
                reach[vp as usize] = true;
                len += 1;
            }
        } else {
            if n == 0 {
                return bad_page(phys, "inner fanout out of range");
            }
            if height.is_some_and(|h| depth >= h) || depth >= MAX_DEPTH as u64 {
                return bad_page(phys, "inner node at leaf depth");
            }
            for i in 0..=n {
                let c = inner_child(b, i);
                if c >= next_lpid {
                    return bad_page(phys, "child lpid out of range");
                }
                let lo = if i == 0 { lo } else { inner_key(b, i - 1) };
                let hi = if i == n { hi } else { Some(inner_key(b, i)) };
                stack.push((c, depth + 1, lo, hi));
            }
        }
    }
    // a winner the root never reaches serves nobody (only a damaged
    // image has one); its page goes on the free list below
    for s in &mut slots {
        if s.phys != PHYS_NONE && !reach[s.phys as usize] {
            *s = Slot::EMPTY;
        }
    }
    // (a segment below the mark that was never carved — only a hostile
    // image has one — stays unused)
    let free = carved_pages()
        .take_while(|&p| p < bump)
        .filter(|&p| !reach[p as usize])
        .collect();
    // the pages are dead, so their zeroes need no undo record, and the
    // section stamps nothing: a crash in it leaves headers the next
    // attach voids again
    if !dead.is_empty() {
        store.begin();
        for &off in &dead {
            store.write_fresh(off, &[0u8; HDR]);
        }
        store.commit();
    }
    Ok(Volatile {
        version,
        root_lpid,
        next_lpid,
        bump,
        len,
        height: height.expect("the walk reaches a leaf"),
        free,
        slots,
        voided: dead.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{MemPager, PageRead, PageWrite};
    use nvcache_fase::segments::CLASS_TABLE;
    use nvcache_pmem::CrashPlan;

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

    /// A 100-key tree with a free page overwritten by what `forge` makes
    /// of its bytes, then re-attached: the free page and the verdict.
    fn attach_with_page(
        forge: impl Fn(&Tree<MemPager>, &mut [u8; PAGE]),
    ) -> (u64, Result<Tree<MemPager>, TreeError>) {
        let mut t = hundred_keys();
        let phys = *t.free.last().expect("the commit freed the format's root");
        let off = t.page_off(phys);
        let mut b = *t.store.page(off);
        forge(&t, &mut b);
        t.store.begin();
        t.store.write_fresh(off, &b);
        t.store.commit();
        (phys, Tree::attach(t.store))
    }

    /// A whole leaf of logical id `lpid` with no entries, stamped
    /// `version`.
    fn sealed_leaf(b: &mut [u8; PAGE], lpid: u64, version: u64) {
        hdr_write(b, TAG_LEAF, 0, lpid, version);
        seal(b);
    }

    /// The first page the tree's last transaction wrote that is its
    /// closing page (`closing`) or is not.
    fn page_of_last_txn(t: &Tree<MemPager>, closing: bool) -> u64 {
        (0..t.bump)
            .find(|&p| {
                let b = t.store.page(t.page_off(p));
                hdr_version(b) == t.version && (hdr_closing(b) != 0) == closing
            })
            .expect("the last transaction wrote such a page")
    }

    #[test]
    fn attach_rejects_next_lpid_above_the_page_high_water_mark() {
        // every logical page owns a physical one, so no sound image
        // names an id past the page count — and the slot table is sized
        // from the ids the scan finds
        for lpid in [|_| LPID_NONE - 1, |pages| pages] {
            let (phys, got) = attach_with_page(|t, b| {
                sealed_leaf(b, lpid(t.table.segments() as u64 * PAGES_PER_SEG), 1)
            });
            let why = "logical id past the page count";
            assert_eq!(got.map(|_| ()), Err(TreeError::BadPage { phys, why }));
        }
    }

    #[test]
    fn attach_rejects_a_reachable_page_whose_checksum_fails() {
        // one byte of a live value cell's value, written before the last
        // transaction (a page of that one would make it a torn one)
        let mut t = hundred_keys();
        t.begin();
        t.put(1000, b"last").unwrap();
        t.commit();
        let leaf = t
            .seek(t.version, t.root_lpid, 50, &mut Path::default())
            .unwrap();
        let (_, pos, _) = leaf_position(leaf, 50);
        let cell = leaf_vptr(leaf, pos);
        let off = t.page_off(cell) + HDR as u64;
        t.store.begin();
        t.store.write_fresh(off, &[0xee]);
        t.store.commit();
        let err = Tree::attach(t.store).map(|_| ()).unwrap_err();
        let why = "reachable page fails its checksum";
        assert_eq!(err, TreeError::BadPage { phys: cell, why });
    }

    #[test]
    fn attach_rejects_two_closing_pages_of_one_version() {
        let (_, got) = attach_with_page(|t, b| {
            *b = *t.store.page(t.page_off(page_of_last_txn(t, true)));
        });
        let err = got.map(|_| ()).unwrap_err();
        let why = "a second closing unit of one FASE";
        assert!(
            matches!(err, TreeError::BadSeal(SealError { why: w, .. }) if w == why),
            "{err:?}"
        );
    }

    #[test]
    fn attach_rejects_more_whole_pages_of_a_version_than_its_count() {
        let closing = page_of_last_txn(&hundred_keys(), true);
        let (_, got) = attach_with_page(|t, b| {
            *b = *t.store.page(t.page_off(page_of_last_txn(t, false)));
        });
        let why = "more whole units than their FASE wrote";
        let err = SealError { unit: closing, why };
        assert_eq!(got.map(|_| ()), Err(TreeError::BadSeal(err)));
    }

    #[test]
    fn attach_rejects_a_second_logical_page_no_inner_page_names() {
        let (phys, got) = attach_with_page(|t, b| sealed_leaf(b, t.next_lpid, 1));
        let why = "a second logical page no inner page names";
        assert_eq!(got.map(|_| ()), Err(TreeError::BadPage { phys, why }));
    }

    #[test]
    fn attach_rejects_a_stamp_in_the_reserved_range() {
        let (unit, got) = attach_with_page(|_, b| set64(b, 16, seal::STAMP_LIMIT));
        let why = "a stamp in the reserved range";
        let err = SealError { unit, why };
        assert_eq!(got.map(|_| ()), Err(TreeError::BadSeal(err)));
    }

    /// A root separator moved up past keys of the child to its right:
    /// every page's keys still ascend, but a descent for such a key
    /// would end in the left child and miss it. Attach refuses the
    /// child whose keys leave the bounds its parent gives it.
    #[test]
    fn attach_rejects_a_key_outside_its_parents_bounds() {
        let mut t = hundred_keys();
        let off = t.page_off(t.slots[t.root_lpid as usize].phys);
        let mut root = *t.store.page(off);
        assert_eq!(hdr_tag(&root), TAG_INNER);
        let (low, high) = (inner_key(&root, 0), inner_key(&root, 1));
        assert!(
            high - low >= 2,
            "child 1 holds a key the new bound cuts off"
        );
        set_inner_key(&mut root, 0, high - 1);
        seal(&mut root);
        t.store.begin();
        t.store.write_fresh(off, &root);
        t.store.commit();
        let phys = t.slots[inner_child(&root, 1) as usize].phys;
        let why = "keys out of order or outside the parent's bounds";
        let got = Tree::attach(t.store).map(|_| ());
        assert_eq!(got, Err(TreeError::BadPage { phys, why }));
    }

    /// Hardware lands 8-byte words, not lines: a transaction whose
    /// closing page landed only in part must read as not committed.
    /// Every image of the closing page with one word of its used bytes
    /// torn from the rest — the old word among new ones, or the new
    /// word among old ones — attaches to the older version and tree.
    #[test]
    fn a_torn_closing_page_falls_back_to_the_older_version() {
        // version 2 holds 40 keys; version 3 rewrites them, adds 40 more
        // and splits the root
        let two_commits = || {
            let mut t = mem_tree();
            t.begin();
            for k in 0..40u64 {
                t.put(k, &[1]).unwrap();
            }
            t.commit();
            let older = t.scan(None, 0, u64::MAX, usize::MAX);
            let before = t.store.bytes(0, t.store.len() as usize).to_vec();
            t.begin();
            for k in 0..80u64 {
                t.put(k, &[2]).unwrap();
            }
            t.commit();
            (t, older, before)
        };
        let (t, _, before) = two_commits();
        let closing = page_of_last_txn(&t, true);
        let off = t.page_off(closing) as usize;
        let new = *t.store.page(off as u64);
        let old: [u8; PAGE] = before
            .get(off..off + PAGE)
            .map_or([0; PAGE], |b| b.try_into().unwrap());
        let [head, tail] = used_runs(&new);
        let words: Vec<usize> = head
            .chain(tail)
            .step_by(8)
            .filter(|&w| old[w..w + 8] != new[w..w + 8])
            .collect();
        assert!(words.len() >= 4, "the closing page must be new");
        for &w in &words {
            for (base, word) in [(new, old), (old, new)] {
                let (mut t, older, _) = two_commits();
                let mut torn = base;
                torn[w..w + 8].copy_from_slice(&word[w..w + 8]);
                t.store.begin();
                t.store.write_fresh(off as u64, &torn);
                t.store.commit();
                let back = Tree::attach(t.store).unwrap_or_else(|e| panic!("word {w}: {e}"));
                let got = (back.version(), back.scan(None, 0, u64::MAX, usize::MAX));
                assert_eq!(got, (2, older), "word {w}");
            }
        }
    }

    #[test]
    fn attach_rejects_unformatted_store() {
        let err = Tree::attach(MemPager::new()).map(|_| ()).unwrap_err();
        assert_eq!(err, TreeError::BadImage("no magic word"));
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
        txn_from(s, base)
    }

    /// `revisiting_txn`'s puts and deletes over the keys from `base`.
    fn txn_from(s: &mut u64, base: u64) -> Vec<(u64, Option<Vec<u8>>)> {
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
        // Clean copies that landed on their page's spare
        let mut onto_spares = 0;
        for round in 0..120 {
            match round {
                20 => snap = Some((t.pin(), r.pin())),
                35 => {
                    let (ts, rs) = snap.take().unwrap();
                    t.unpin(ts);
                    r.unpin(rs);
                }
                _ => {}
            }
            // from round 80 on, every transaction comes back to leaves
            // the ones before it committed
            let ops = match round {
                0..80 => revisiting_txn(&mut s),
                _ => txn_from(&mut s, [100, 300][round % 2]),
            };
            let spares: Vec<u64> = t.slots.iter().map(|s| s.spare).collect();
            t.begin();
            r.begin();
            for (key, val) in ops {
                match val {
                    Some(v) => {
                        t.put(key, &v).unwrap();
                        r.put(key, &v).unwrap();
                    }
                    None => assert_eq!(t.delete(key).unwrap(), r.delete(key).unwrap()),
                }
            }
            onto_spares += (spares.iter().zip(&t.slots))
                .filter(|(&p, s)| p != PHYS_NONE && s.staged == p)
                .count();
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
        assert!(onto_spares >= 120, "{onto_spares} copies onto a spare");
        // both trees took the same pages in the same order, and hold
        // the same bytes wherever anything will ever read
        assert_eq!((t.bump, &t.free), (r.bump, &r.free));
        for lpid in 0..t.next_lpid as usize {
            let (phys, spare) = (t.slots[lpid].phys, t.slots[lpid].spare);
            assert_eq!(
                (phys, spare),
                (r.slots[lpid].phys, r.slots[lpid].spare),
                "lpid {lpid}"
            );
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

    /// A data area with no room for the head line, a class byte and one
    /// segment is `Full`, not a panic; a tree of one segment fills up
    /// and says so.
    #[test]
    fn a_data_area_without_a_segment_is_full() {
        let one = CLASS_TABLE + 64 + SEGMENT;
        for data_len in [0, 100, 127, one - 64] {
            let cfg = TreeConfig {
                data_len,
                ..small_cfg()
            };
            assert!(
                matches!(Tree::create(&cfg), Err(TreeError::Full)),
                "{data_len} bytes"
            );
        }
        let cfg = TreeConfig {
            data_len: one,
            ..small_cfg()
        };
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        let full = (0..PAGES_PER_SEG).find_map(|k| t.put(k, &[1]).err());
        assert_eq!(full, Some(TreeError::Full));
    }

    /// Spares count as room: once the free list and the segments are
    /// used up, an allocation takes another logical page's spare. Fifteen
    /// leaves of keys 0..120, one key of each of the first twelve
    /// overwritten (each leaf keeps its copy before as a spare), then
    /// fresh keys past them, one per transaction, until one is refused:
    /// the last puts take those spares, and the tree reads as the model,
    /// before and after a reopen.
    #[test]
    fn a_full_data_area_allocates_from_the_spares() {
        let cfg = TreeConfig {
            data_len: CLASS_TABLE + 64 + 21 * SEGMENT,
            ..small_cfg()
        };
        let mut t = Tree::create(&cfg).unwrap();
        let capacity = t.table.segments() as u64 * PAGES_PER_SEG;
        let mut model = BTreeMap::new();
        let mut commit = |t: &mut Tree<FasePager>, keys: &[u64], tag: u8| {
            t.begin();
            let put = keys.iter().try_for_each(|&k| t.put(k, &[tag; 8]));
            t.commit();
            if put.is_ok() {
                model.extend(keys.iter().map(|&k| (k, vec![tag; 8])));
            }
            put
        };
        for keys in (0..120u64).collect::<Vec<_>>().chunks(8) {
            commit(&mut t, keys, 1).unwrap();
        }
        for leaf in 0..12 {
            commit(&mut t, &[leaf * 8], 2).unwrap();
        }
        assert_eq!(t.spares, 12, "each overwritten leaf holds a spare");
        let mut others_spares = 0;
        for key in 1000u64.. {
            let spares: Vec<u64> = t.slots.iter().map(|s| s.spare).collect();
            if commit(&mut t, &[key], 3) == Err(TreeError::Full) {
                break;
            }
            others_spares += (spares.iter().zip(&t.slots))
                .filter(|(&p, s)| p != PHYS_NONE && s.spare == PHYS_NONE && s.phys != p)
                .count();
        }
        assert_eq!(t.bump, capacity, "the segments are used up");
        assert!(others_spares > 0, "no put took another page's spare");
        let want: Vec<_> = model.into_iter().collect();
        let image = t.store.runtime_mut().region().durable_image().to_vec();
        let back = Tree::reopen_from_image(image, &cfg).unwrap();
        for tree in [&t, &back] {
            assert_eq!(tree.scan(None, 0, u64::MAX, usize::MAX), want);
        }
    }

    /// The tree's own rules of its image, through `reopen_from_image`:
    /// the image holds the data area (the region is nothing more), the
    /// head holds the magic word, and a carved segment holds pages. The
    /// segment table's rules — a class past the largest or too small
    /// for its owner, bytes in a segment never carved — have their
    /// hostile images in `nvcache_fase::segments`.
    #[test]
    fn reopen_from_image_rejects_a_hostile_head_or_class_byte() {
        let cfg = small_cfg();
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        for k in 0..100u64 {
            t.put(k, &k.to_le_bytes()).unwrap();
        }
        t.commit();
        assert!(t.bump > PAGES_PER_SEG, "segment 1 is carved");
        assert_eq!(
            t.store.runtime().region().len(),
            cfg.data_len,
            "no log area"
        );
        let sound = t.store.runtime_mut().region().durable_image().to_vec();
        let reopened = |image| Tree::reopen_from_image(image, &cfg).map(|t| t.len());
        assert_eq!(reopened(sound.clone()), Ok(100));
        for region_len in [cfg.data_len - 64, 0] {
            let short = RecoveryError::RegionTooSmall {
                region_len,
                need: cfg.data_len,
            };
            let got = reopened(sound[..region_len].to_vec());
            assert_eq!(got, Err(TreeError::Recovery(short)));
        }
        let patched = |at: usize, bytes: &[u8]| {
            let mut image = sound.clone();
            image[at..at + bytes.len()].copy_from_slice(bytes);
            image
        };
        let why = "a class other than the page class";
        let cases = [
            (
                patched(0, b"NVSHARD2"),
                TreeError::BadImage("no magic word"),
            ),
            (
                patched(CLASS_TABLE + 1, &[PAGE_CLASS as u8 + 1]),
                TreeError::BadSegment(SegmentError { segment: 1, why }),
            ),
        ];
        for (image, want) in cases {
            assert_eq!(reopened(image), Err(want));
        }
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
        // overwrite: the value cell, the 8-byte pointer to it and the
        // header word that holds the leaf's checksum
        t.put(20, &[3; 40]).unwrap();
        let (b2, p2) = counts(&mut t);
        assert_eq!((b2 - b1, p2 - p1), (CELL + 8 + 8, 1));
        // delete position 3 of 6: the run [3, 5) and the count word —
        // and, since this transaction put the key, its cell's voided
        // header: that page is free again
        assert!(t.delete(25).unwrap());
        let (b3, p3) = counts(&mut t);
        assert_eq!((b3 - b2, p2 - p3), (HDR as u64 + 2 * 16 + 8, 1));
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

    /// A root leaf of 12 keys (used bytes: lines 0–3 of its page),
    /// overwritten at entry 2 — its value pointer in line 1 — by one
    /// transaction: the leaf's copy before it is the spare the next
    /// Clean copy lands on.
    fn leaf_with_a_spare(cfg: &TreeConfig) -> Tree<FasePager> {
        let mut t = Tree::create(cfg).unwrap();
        t.begin();
        for k in 0..12u64 {
            t.put(k, &[1; 40]).unwrap();
        }
        t.commit();
        t.begin();
        t.put(2, &[2; 40]).unwrap();
        t.commit();
        assert_eq!(t.height(), 1);
        assert_ne!(t.slots[0].spare, PHYS_NONE, "the overwrite left a spare");
        t
    }

    /// The next transaction overwrites entry 10 (line 3). Its Clean
    /// copy lands on the spare, which holds the leaf as it was before
    /// entry 2 changed, and stores line 0 (the restamped header), line
    /// 1 (entry 2) and line 3, the line its edit stores into: line 2
    /// needs no write-back, and a copy onto any other page would store
    /// it too.
    #[test]
    fn a_copy_onto_the_spare_stores_only_the_lines_changed_since() {
        let mut t = leaf_with_a_spare(&small_cfg());
        let spare = t.slots[0].spare;
        let first = t.page_off(spare) / 64;
        t.store.runtime_mut().record_trace();
        t.begin();
        t.put(10, &[3; 40]).unwrap();
        assert_eq!(t.slots[0].staged, spare, "the copy landed on the spare");
        t.commit();
        let leaf_lines: std::collections::BTreeSet<u64> = (t.store.runtime_mut())
            .take_trace()
            .unwrap()
            .writes()
            .map(|l| l.0)
            .filter(|l| (first..first + 4).contains(l))
            .collect();
        let want = [first, first + 1, first + 3];
        assert_eq!(leaf_lines.into_iter().collect::<Vec<_>>(), want);
        assert_eq!(t.get(2).as_deref(), Some(&[2u8; 40][..]));
        assert_eq!(t.get(10).as_deref(), Some(&[3u8; 40][..]));
    }

    /// That transaction, overwriting entries 10 and 5, crashed at every
    /// micro-step under the three adversaries: attach reads the old
    /// tree or the new one, never a mix. The spare is the leaf's live
    /// copy once the transaction committed; before that it is free, and
    /// not whole unless at an older stamp than the live copy's — torn,
    /// voided, or untouched. The new tree is the model's, and the image
    /// after the last fence attaches to it: a copy that skips a word it
    /// should store reads a wrong value, or leaves a page not whole.
    #[test]
    fn a_copy_onto_a_spare_is_atomic_at_every_micro_step() {
        let cfg = small_cfg();
        let mut t = leaf_with_a_spare(&cfg);
        let (spare, first) = (t.slots[0].spare, t.store().runtime().steps());
        let all = |t: &Tree<FasePager>| t.scan(None, 0, u64::MAX, usize::MAX);
        let old = all(&t);
        let txn = |t: &mut Tree<FasePager>| {
            t.begin();
            t.put(10, &[3; 40]).unwrap();
            t.put(5, &[4; 8]).unwrap();
            t.commit();
        };
        // the model, not the tree's own reads: the closing store reseals
        // the leaf as stored, so a leaf missing a word reads whole
        let mut new = old.clone();
        new[10].1 = vec![3; 40];
        new[5].1 = vec![4; 8];
        txn(&mut t);
        assert_eq!(all(&t), new);
        let end = t.store().runtime().steps();
        let image = t.store.runtime_mut().region().durable_image().to_vec();
        let back = Tree::reopen_from_image(image, &cfg).unwrap();
        assert_eq!((all(&back), back.slots[0].phys), (new.clone(), spare));
        let mut judged = 0;
        for at in first..end {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, at),
            ] {
                let mut cut = leaf_with_a_spare(&cfg);
                cut.store_mut().runtime_mut().arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
                txn(&mut cut);
                let crashed = cut
                    .store_mut()
                    .runtime_mut()
                    .take_crash_image()
                    .expect("the step is in the txn");
                let back = Tree::reopen_from_image(crashed, &cfg).unwrap();
                let got = all(&back);
                let ctx = format!("{mode:?} step {at}");
                if got == new {
                    assert_eq!(back.slots[0].phys, spare, "{ctx}");
                } else {
                    assert_eq!(got, old, "{ctx}: a mix");
                    assert!(back.free.contains(&spare), "{ctx}: the spare is not free");
                    let b = back.store.page(back.page_off(spare));
                    let outranks = whole(b) && hdr_version(b) >= back.version();
                    assert!(!outranks, "{ctx}: a whole spare at v{}", hdr_version(b));
                }
                judged += 1;
            }
        }
        assert!(judged >= 30, "{judged} recoveries");
    }

    /// Every crash state of a tree program: the tree `start` builds,
    /// then one transaction of `puts`. The tree after it reads as the
    /// model (the tree before, with `puts` applied), and at every
    /// micro-step of the transaction every image
    /// [`nvcache_pmem::crash::landings`] names — every subset of the
    /// lines in flight, or 4 096 of them — attaches to the tree before
    /// or the model after, never a mix. Returns the images judged and
    /// the cuts.
    fn every_crash_state(
        cfg: &TreeConfig,
        start: &dyn Fn() -> Tree<FasePager>,
        puts: &[(u64, Vec<u8>)],
    ) -> (usize, usize) {
        let all = |t: &Tree<FasePager>| t.scan(None, 0, u64::MAX, usize::MAX);
        let txn = |t: &mut Tree<FasePager>| {
            t.begin();
            for (k, v) in puts {
                t.put(*k, v).unwrap();
            }
            t.commit();
        };
        let mut t = start();
        let (first, old) = (t.store().runtime().steps(), all(&t));
        let mut new: BTreeMap<u64, Vec<u8>> = old.iter().cloned().collect();
        new.extend(puts.iter().cloned());
        let new: Vec<(u64, Vec<u8>)> = new.into_iter().collect();
        txn(&mut t);
        assert_eq!(all(&t), new, "the model");
        let (end, lines) = (
            t.store().runtime().steps(),
            t.store.runtime().region().line_count(),
        );
        let run = |plan| {
            let mut t = start();
            t.store_mut().runtime_mut().arm_crash(plan);
            txn(&mut t);
            t.store_mut()
                .runtime_mut()
                .take_crash_image()
                .expect("the cut falls in the transaction")
        };
        let mut images = 0;
        for step in first..end {
            for (i, image) in nvcache_pmem::crash::landings(&run, step, lines).enumerate() {
                let ctx = format!("step {step}, landing {i}");
                let back = Tree::reopen_from_image(image, cfg).expect(&ctx);
                let got = all(&back);
                assert!(got == old || got == new, "{ctx}: not a committed prefix");
                images += 1;
            }
        }
        (images, (end - first) as usize)
    }

    /// Every crash state — every subset of the lines in flight at every
    /// micro-step, named by `CrashMode::Exactly` — of two tree
    /// programs: a full root leaf split by an insert (the left half
    /// rewritten in place on its copy, a right half and a new root),
    /// and an overwrite whose copy lands on the leaf's spare, storing
    /// only the lines that differ from it. Each image holds a committed
    /// prefix.
    ///
    /// Mutants this test kills (each checked on a copy):
    /// - a copy onto the spare that leaves out the changed pointer line
    ///   — the line of entry 2, which the spare holds as it was before
    ///   the overwrite that made it one: the model after the
    ///   transaction reads entry 2's old value. Five other tests kill
    ///   it too, `a_copy_onto_a_spare_is_atomic_at_every_micro_step`
    ///   and `a_copy_onto_the_spare_stores_only_the_lines_changed_since`
    ///   among them;
    /// - a leaf checksum over the page's first line only, so a copy
    ///   whose header line lands without its later lines reads whole:
    ///   `a_torn_closing_page_falls_back_to_the_older_version` kills it
    ///   too;
    /// - a copy onto the spare whose stamp line can land without its
    ///   changed pointer lines: a leaf checksum that leaves out the
    ///   value pointers (or, a second build, covers only the header
    ///   line and the last used line). Once the copy's lines 0, 1 and
    ///   3 and the new value cell are in flight, an image that lands
    ///   line 0 (the stamp) and the value cell but not line 1 (the
    ///   first build: nor line 3) reads whole, with entry 2 as the
    ///   spare held it one overwrite back: key 2's first value. This
    ///   test names that image; no seed has to draw it. The suite
    ///   already kills
    ///   both builds: `a_torn_closing_page_falls_back_to_the_older_version`
    ///   and three `engine_crash` tests (torn words and random landings
    ///   of a split), since such a checksum lets any copy, not only one
    ///   onto a spare, read whole with a line missing.
    #[test]
    fn every_crash_state_of_a_split_and_a_spare_copy_is_a_committed_prefix() {
        let cfg = TreeConfig {
            data_len: CLASS_TABLE + 64 + 3 * SEGMENT,
            ..small_cfg()
        };
        let full_leaf = || {
            let mut t = Tree::create(&cfg).unwrap();
            t.begin();
            for k in 0..LEAF_CAP as u64 {
                t.put(k * 2, &[1; 8]).unwrap();
            }
            t.commit();
            assert_eq!(t.height(), 1);
            t
        };
        let split = every_crash_state(&cfg, &full_leaf, &[(9, vec![2; 8])]);
        let spare = every_crash_state(&cfg, &|| leaf_with_a_spare(&cfg), &[(10, vec![3; 40])]);
        for (what, (images, cuts)) in [("split", split), ("spare copy", spare)] {
            assert!(
                images > cuts,
                "{what}: no cut of {cuts} had a line in flight"
            );
        }
    }

    /// A transaction of `k` puts ends with one drain and one fence: it
    /// flushes each line it stored once, and stores nothing into the
    /// head line or the class table.
    #[test]
    fn a_tree_commit_is_one_fence() {
        let mut t = Tree::create(&small_cfg()).unwrap();
        let keys: Vec<u64> = (0..8).map(|i| i * 37).collect();
        for round in 0..3u8 {
            t.begin();
            for k in (0..200).chain(keys.iter().copied()) {
                t.put(k, &[round; 40]).unwrap();
            }
            t.commit();
        }
        let bump = t.bump;
        let rt = t.store.runtime_mut();
        rt.record_trace();
        let (pmem0, fase0) = (rt.region().stats(), rt.stats());
        t.begin();
        for &k in &keys {
            t.put(k, &[9; 40]).unwrap();
        }
        let dirty = t.store.runtime_mut().region().dirty_lines() as u64;
        t.commit();
        assert_eq!(t.bump, bump, "the transaction carved nothing");
        let rt = t.store.runtime_mut();
        let lines: std::collections::BTreeSet<u64> =
            rt.take_trace().unwrap().writes().map(|l| l.0).collect();
        let (pmem, fase) = (rt.region().stats(), rt.stats() - fase0);
        let fences = pmem.fences - pmem0.fences;
        assert_eq!((fase.fases, fase.fences, fences), (1, 1, 1));
        let flushes = pmem.flushes - pmem0.flushes;
        assert_eq!(flushes, lines.len() as u64, "one flush per line");
        assert_eq!(dirty, lines.len() as u64);
        let table = t.page_off(0) / 64;
        assert!(lines.iter().all(|&l| l >= table), "a head or table line");
        assert_eq!(t.get(37).as_deref(), Some(&[9u8; 40][..]));
    }

    /// Two puts of one key in one transaction allocate one value cell:
    /// the second rewrites the cell the first allocated. A crash at
    /// every micro-step of that transaction, under every adversary,
    /// recovers the old value or the second one — never the first.
    #[test]
    fn a_repeated_key_rewrites_its_own_cell() {
        let cfg = small_cfg();
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        for k in 0..30u64 {
            t.put(k, &[1; 24]).unwrap();
        }
        t.commit();
        let in_use = |t: &Tree<FasePager>| t.bump - t.free.len() as u64;
        let txn = |t: &mut Tree<FasePager>| {
            t.begin();
            t.put(7, &[2; 40]).unwrap();
            let first = in_use(t);
            t.put(7, &[3; 60]).unwrap();
            assert_eq!(in_use(t), first, "the second put allocated");
            t.commit();
        };
        let image = t.store.runtime_mut().region().durable_image().to_vec();
        let reopened = || Tree::reopen_from_image(image.clone(), &cfg).unwrap();
        let mut counted = reopened();
        let first = counted.store().runtime().steps();
        txn(&mut counted);
        assert_eq!(counted.get(7).as_deref(), Some(&[3u8; 60][..]));
        let end = counted.store().runtime().steps();
        let mut judged = 0;
        for at in first..end {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, at),
            ] {
                let mut cut = reopened();
                cut.store_mut().runtime_mut().arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
                txn(&mut cut);
                let crashed = cut
                    .store_mut()
                    .runtime_mut()
                    .take_crash_image()
                    .expect("the step is in the transaction");
                let back = Tree::reopen_from_image(crashed, &cfg).unwrap();
                let got = back.get(7);
                assert!(
                    got.as_deref() == Some(&[1u8; 24][..])
                        || got.as_deref() == Some(&[3u8; 60][..]),
                    "{mode:?} step {at}: {got:?}"
                );
                assert_eq!(back.len(), 30);
                judged += 1;
            }
        }
        assert!(judged >= 30, "{judged} recoveries");
    }

    /// A transaction whose flushes overflow the runtime's flush ring has
    /// part of them drained before it ends, so an earlier state of a
    /// page it rewrites afterwards can reach NVRAM ahead of the last
    /// one. Its closing store waits for a fence over the last states: a
    /// crash at every later step — pending captures landed and dirty
    /// lines dropped, or some of them landed, and under the other
    /// adversaries — recovers the old tree or the new one.
    #[test]
    fn an_early_drain_fences_the_pages_before_the_closing_store() {
        let cfg = TreeConfig {
            policy: nvcache_core::PolicyKind::Eager,
            ..small_cfg()
        };
        let mut t = Tree::create(&cfg).unwrap();
        t.begin();
        for k in 0..30u64 {
            t.put(k, &[1; 24]).unwrap();
        }
        t.commit();
        let old = t.scan(None, 0, u64::MAX, usize::MAX);
        let image = t.store.runtime_mut().region().durable_image().to_vec();
        let reopened = || Tree::reopen_from_image(image.clone(), &cfg).unwrap();
        let drains = |t: &Tree<FasePager>| t.store.runtime().ring_stats().drains;
        // the leaf of keys 3 and 5 and the cell of key 5 are written
        // before the ring drains and again after it, the cell last;
        // returns the step after the drain
        let txn = |t: &mut Tree<FasePager>| {
            t.begin();
            t.put(5, &[2; 40]).unwrap();
            let d0 = drains(t);
            let mut k = 1000;
            while drains(t) == d0 {
                t.put(k, &[2; 40]).unwrap();
                k += 1;
            }
            let drained = t.store().runtime().steps();
            assert!(t.delete(3).unwrap());
            t.put(5, &[3; 40]).unwrap();
            t.commit();
            drained
        };
        let mut counted = reopened();
        let from = txn(&mut counted);
        let new = counted.scan(None, 0, u64::MAX, usize::MAX);
        let end = counted.store().runtime().steps();
        assert!(end - from > 8, "{} steps after the drain", end - from);
        let mut judged = 0;
        for at in from..end {
            let modes = [
                CrashMode::random(1.0, 0.0, at),
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, at),
            ];
            let some_dirty = (0..8).map(|seed| CrashMode::random(1.0, 0.7, at << 8 | seed));
            for mode in modes.into_iter().chain(some_dirty) {
                let mut cut = reopened();
                cut.store_mut().runtime_mut().arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
                txn(&mut cut);
                let crashed = cut
                    .store_mut()
                    .runtime_mut()
                    .take_crash_image()
                    .expect("the step is in the txn");
                let back = Tree::reopen_from_image(crashed, &cfg).unwrap();
                let got = back.scan(None, 0, u64::MAX, usize::MAX);
                assert!(got == old || got == new, "{mode:?} step {at}: a mix");
                judged += 1;
            }
        }
        assert!(judged >= 100, "{judged} recoveries");
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
        let at = t.store().runtime().steps() + 40;
        t.store_mut().runtime_mut().arm_crash(CrashPlan {
            at_step: at,
            mode: CrashMode::StrictDurableOnly,
        });
        t.begin();
        for k in 100..140u64 {
            t.put(k, &[k as u8; 32]).unwrap();
        }
        t.commit();
        let image = t
            .store_mut()
            .runtime_mut()
            .take_crash_image()
            .expect("plan must trip");
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
        let first = pager.runtime().steps();
        let clean = Tree::attach(pager).unwrap();
        let (voided, end) = (clean.voided_pages(), clean.store().runtime().steps());
        assert!(voided > 4, "the dead transaction left {voided} headers");
        assert_eq!(clean.scan(None, 0, u64::MAX, usize::MAX), model);
        for at in first..end {
            for mode in [
                CrashMode::StrictDurableOnly,
                CrashMode::AllInFlightLands,
                CrashMode::random(0.5, 0.5, at),
            ] {
                let mut pager = reopened();
                pager.runtime_mut().arm_crash(CrashPlan {
                    at_step: at,
                    mode: mode.clone(),
                });
                let mut cut = Tree::attach(pager).unwrap();
                let image = cut
                    .store_mut()
                    .runtime_mut()
                    .take_crash_image()
                    .expect("the step is in the pass");
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
