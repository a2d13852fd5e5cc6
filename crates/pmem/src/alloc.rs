//! A small recoverable allocator over a [`PmemRegion`].
//!
//! Stands in for the Makalu-style persistent allocation Atlas relies on
//! (paper Related Work). Metadata lives *inside* the region: a header
//! with a magic number, a user root pointer, the bump cursor, and
//! size-segregated free-list heads; freed blocks thread their next
//! pointer through their own first 8 bytes. Every metadata update is
//! flushed and fenced before the allocator returns, so a reopened region
//! always sees a consistent heap — free blocks included. (Atomicity of
//! *user data* inside allocated blocks is the FASE runtime's job, not
//! the allocator's.)
//!
//! A fresh block starts on a multiple of `min(block, LINE_SIZE)`: a
//! block of a line or more starts on a line, a smaller one never
//! straddles one. Mixed-size heaps leave a gap before a block that
//! would not; a heap of one class bumps exactly as an unaligned cursor
//! would, since `HEAP_START` is line-aligned.
//!
//! A reopened region may be anything — a disk file, a fuzzer's image —
//! so the header is looked at before it is believed: [`PAlloc::open`]
//! vouches for the cursor, the limit and every free-list head, and
//! [`PAlloc::alloc`] for each link it is about to make the new head. A
//! heap that fails the check is refused or runs dry; it never hands out
//! an offset outside `[HEAP_START, bump)`.

use crate::region::{PmemRegion, LINE_SIZE};

const MAGIC: u64 = 0x4e56_4341_4348_4531; // "NVCACHE1"
const OFF_MAGIC: usize = 0;
const OFF_ROOT: usize = 8;
const OFF_BUMP: usize = 16;
const OFF_LIMIT: usize = 24;
const OFF_FREE: usize = 32;
/// Size classes: 16, 32, 64, …, 4096 bytes.
const NUM_CLASSES: usize = 9;
/// First allocatable offset (header, line-aligned).
const HEAP_START: usize = ((OFF_FREE + NUM_CLASSES * 8) / LINE_SIZE + 1) * LINE_SIZE;

/// Recoverable bump + free-list allocator.
#[derive(Debug, Clone, Copy)]
pub struct PAlloc {
    _priv: (),
}

fn class_of(size: usize) -> Option<usize> {
    if size == 0 {
        return None;
    }
    let mut c = 16usize;
    for i in 0..NUM_CLASSES {
        if size <= c {
            return Some(i);
        }
        c *= 2;
    }
    None
}

/// Byte size of class `i`.
fn class_size(i: usize) -> usize {
    16usize << i
}

/// Could the heap have handed out `block` bytes at `off`: 16-aligned
/// and inside `[HEAP_START, bump)`?
fn in_heap(off: u64, block: usize, bump: u64) -> bool {
    off.is_multiple_of(16)
        && off >= HEAP_START as u64
        && off.checked_add(block as u64).is_some_and(|end| end <= bump)
}

/// Carve a fresh `block`-byte block past the bump cursor, aligned to
/// `min(block, LINE_SIZE)`, with one metadata persist: its offset, or
/// `None` when it would pass the limit.
fn bump_by(region: &mut PmemRegion, block: usize) -> Option<u64> {
    let align = block.min(LINE_SIZE) as u64;
    let start = region.read_u64(OFF_BUMP).checked_next_multiple_of(align)?;
    let end = start.checked_add(block as u64)?;
    if end > region.read_u64(OFF_LIMIT) {
        return None;
    }
    region.write_u64(OFF_BUMP, end);
    region.persist(OFF_BUMP, 8);
    Some(start)
}

impl PAlloc {
    /// Initialize a fresh region as an empty heap spanning the whole
    /// region.
    pub fn format(region: &mut PmemRegion) -> Self {
        let limit = region.len() as u64;
        Self::format_with_limit(region, limit)
    }

    /// Initialize a heap that bumps only up to `limit` bytes, leaving
    /// `[limit, region.len())` for other uses (e.g. a FASE undo log).
    pub fn format_with_limit(region: &mut PmemRegion, limit: u64) -> Self {
        assert!(limit as usize <= region.len());
        assert!(limit as usize > HEAP_START, "region too small for a heap");
        region.write_u64(OFF_MAGIC, MAGIC);
        region.write_u64(OFF_ROOT, 0);
        region.write_u64(OFF_BUMP, HEAP_START as u64);
        region.write_u64(OFF_LIMIT, limit);
        for i in 0..NUM_CLASSES {
            region.write_u64(OFF_FREE + i * 8, 0);
        }
        region.persist(0, HEAP_START);
        PAlloc { _priv: () }
    }

    /// Open an existing heap; fails if the magic is absent (fresh
    /// region) or the header is one no allocator wrote: `HEAP_START ≤
    /// bump ≤ limit ≤ region.len()`, the cursor 16-aligned, every
    /// free-list head 0 or a block of its class below the cursor.
    pub fn open(region: &PmemRegion) -> Option<Self> {
        if region.len() <= HEAP_START || region.read_u64(OFF_MAGIC) != MAGIC {
            return None;
        }
        let (bump, limit) = (region.read_u64(OFF_BUMP), region.read_u64(OFF_LIMIT));
        let cursor_ok = HEAP_START as u64 <= bump
            && bump <= limit
            && limit <= region.len() as u64
            && bump.is_multiple_of(16);
        let heads_ok = (0..NUM_CLASSES).all(|class| {
            let head = region.read_u64(OFF_FREE + class * 8);
            head == 0 || in_heap(head, class_size(class), bump)
        });
        (cursor_ok && heads_ok).then_some(PAlloc { _priv: () })
    }

    /// End of the bump region (see [`PAlloc::format_with_limit`]).
    pub fn limit(&self, region: &PmemRegion) -> u64 {
        region.read_u64(OFF_LIMIT)
    }

    /// The user root object offset (0 = unset).
    pub fn root(&self, region: &PmemRegion) -> u64 {
        region.read_u64(OFF_ROOT)
    }

    /// Durably set the user root offset.
    pub fn set_root(&self, region: &mut PmemRegion, offset: u64) {
        region.write_u64(OFF_ROOT, offset);
        region.persist(OFF_ROOT, 8);
    }

    /// Allocate `size` bytes; returns the offset, or `None` when the
    /// region is exhausted, the size exceeds the largest class (4 KiB),
    /// or the class's free list runs into a link no `free` wrote.
    pub fn alloc(&self, region: &mut PmemRegion, size: usize) -> Option<u64> {
        let class = class_of(size)?;
        let block = class_size(class);
        let head_off = OFF_FREE + class * 8;
        let head = region.read_u64(head_off);
        if head != 0 {
            // the head was vouched for when it became the head; its
            // link is a word of the image and is looked at now
            let next = region.read_u64(head as usize);
            if next != 0 && !in_heap(next, block, region.read_u64(OFF_BUMP)) {
                return None;
            }
            region.write_u64(head_off, next);
            region.persist(head_off, 8);
            return Some(head);
        }
        bump_by(region, block)
    }

    /// Free the block at `offset` previously allocated with `size`.
    pub fn free(&self, region: &mut PmemRegion, offset: u64, size: usize) {
        let class = class_of(size).expect("size was allocatable");
        let head_off = OFF_FREE + class * 8;
        let head = region.read_u64(head_off);
        region.write_u64(offset as usize, head);
        region.persist(offset as usize, 8);
        region.write_u64(head_off, offset);
        region.persist(head_off, 8);
    }

    /// Bytes remaining for fresh (bump) allocation.
    pub fn bump_remaining(&self, region: &PmemRegion) -> u64 {
        region.read_u64(OFF_LIMIT) - region.read_u64(OFF_BUMP)
    }

    /// First allocatable offset (for tests and layout assertions).
    pub fn heap_start() -> usize {
        HEAP_START
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashMode;

    fn fresh(len: usize) -> (PmemRegion, PAlloc) {
        let mut r = PmemRegion::new(len);
        let a = PAlloc::format(&mut r);
        (r, a)
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(4096), Some(8));
        assert_eq!(class_of(4097), None);
        assert_eq!(class_of(0), None);
    }

    #[test]
    fn alloc_returns_distinct_aligned_blocks() {
        let (mut r, a) = fresh(1 << 16);
        let x = a.alloc(&mut r, 64).unwrap();
        let y = a.alloc(&mut r, 64).unwrap();
        assert_ne!(x, y);
        assert!(x as usize >= PAlloc::heap_start());
        assert_eq!(x % 16, 0);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let (mut r, a) = fresh(1 << 16);
        let x = a.alloc(&mut r, 100).unwrap();
        a.free(&mut r, x, 100);
        let y = a.alloc(&mut r, 100).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn free_list_is_per_class() {
        let (mut r, a) = fresh(1 << 16);
        let x = a.alloc(&mut r, 16).unwrap();
        a.free(&mut r, x, 16);
        // different class: must not reuse x
        let y = a.alloc(&mut r, 1000).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut r, a) = fresh(2048);
        // heap space after header is small; drain it
        let mut n = 0;
        while a.alloc(&mut r, 128).is_some() {
            n += 1;
            assert!(n < 100, "should exhaust");
        }
        assert!(n >= 1);
    }

    #[test]
    fn heap_survives_crash() {
        let (mut r, a) = fresh(1 << 16);
        let x = a.alloc(&mut r, 64).unwrap();
        a.set_root(&mut r, x);
        r.crash(&CrashMode::StrictDurableOnly);
        let a2 = PAlloc::open(&r).expect("magic survives");
        assert_eq!(a2.root(&r), x);
        // allocator state is consistent: next alloc returns a block that
        // does not overlap x
        let y = a2.alloc(&mut r, 64).unwrap();
        assert!(y >= x + 64 || y + 64 <= x);
    }

    #[test]
    fn open_rejects_unformatted() {
        let r = PmemRegion::new(1 << 16);
        assert!(PAlloc::open(&r).is_none());
    }

    /// A heap header is bytes of an image: four headers no allocator
    /// wrote (each, believed, panics or hands out memory the heap does
    /// not own) are refused at `open`.
    #[test]
    fn open_rejects_a_header_no_allocator_wrote() {
        let len = 1u64 << 16;
        let hostile: [(&str, &[(usize, u64)]); 4] = [
            (
                "free-list head past the region",
                &[(OFF_FREE + 2 * 8, len + 64)],
            ),
            (
                "limit and cursor past the region",
                &[(OFF_LIMIT, 1 << 40), (OFF_BUMP, 1 << 30)],
            ),
            ("cursor inside the header", &[(OFF_BUMP, OFF_ROOT as u64)]),
            ("cursor past the limit", &[(OFF_BUMP, len + 16)]),
        ];
        for (what, words) in hostile {
            let (mut r, a) = fresh(len as usize);
            let x = a.alloc(&mut r, 64).unwrap();
            a.free(&mut r, x, 64);
            assert!(PAlloc::open(&r).is_some(), "sound before the edit");
            for &(off, word) in words {
                r.write_u64(off, word);
            }
            assert!(PAlloc::open(&r).is_none(), "{what}");
        }
        // a head may not even point at a block of another class's size
        // that straddles the cursor, or at an unaligned one
        let (mut r, a) = fresh(len as usize);
        let x = a.alloc(&mut r, 16).unwrap();
        r.write_u64(OFF_FREE + 8 * 8, x);
        assert!(
            PAlloc::open(&r).is_none(),
            "4 KiB block at the cursor's edge"
        );
        r.write_u64(OFF_FREE + 8 * 8, 0);
        r.write_u64(OFF_FREE, x + 8);
        assert!(PAlloc::open(&r).is_none(), "unaligned head");
    }

    /// `open` sees the heads, not the chains: a corrupted link two
    /// blocks down ends that list when `alloc` reaches it — `None`,
    /// never the bad offset and never a read outside the region.
    #[test]
    fn alloc_stops_at_a_link_no_free_wrote() {
        for bad in [8, 1 << 40, u64::MAX - 7, HEAP_START as u64 + 8] {
            let (mut r, a) = fresh(1 << 16);
            let blocks: Vec<u64> = (0..3).map(|_| a.alloc(&mut r, 64).unwrap()).collect();
            for &b in &blocks {
                a.free(&mut r, b, 64);
            }
            // the list is 2 -> 1 -> 0; block 1's link now lies
            r.write_u64(blocks[1] as usize, bad);
            let a = PAlloc::open(&r).expect("the heads are sound");
            assert_eq!(a.alloc(&mut r, 64), Some(blocks[2]));
            assert_eq!(a.alloc(&mut r, 64), None, "link {bad:#x} refused");
            assert_eq!(a.alloc(&mut r, 64), None, "and the list stays ended");
            // the other classes are untouched
            assert!(a.alloc(&mut r, 16).is_some());
        }
    }

    #[test]
    fn root_roundtrip() {
        let (mut r, a) = fresh(1 << 16);
        assert_eq!(a.root(&r), 0);
        a.set_root(&mut r, 4242);
        assert_eq!(a.root(&r), 4242);
    }

    #[test]
    fn limit_is_respected() {
        let mut r = PmemRegion::new(1 << 16);
        let limit = (PAlloc::heap_start() + 1024) as u64;
        let a = PAlloc::format_with_limit(&mut r, limit);
        let mut n = 0;
        while a.alloc(&mut r, 256).is_some() {
            n += 1;
            assert!(n <= 4, "must stop at the limit");
        }
        assert_eq!(n, 4);
        // space past the limit is untouched by the allocator
        assert_eq!(r.read_u64(limit as usize), 0);
    }

    #[test]
    fn free_list_chain_survives_crash_under_every_mode() {
        // Every metadata update is persisted before the allocator
        // returns, so even the strictest adversary must preserve a
        // multi-block free chain and the bump cursor.
        for mode in [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, 7),
        ] {
            let (mut r, a) = fresh(1 << 16);
            let blocks: Vec<u64> = (0..3).map(|_| a.alloc(&mut r, 64).unwrap()).collect();
            let bump_after = a.bump_remaining(&r);
            for &b in &blocks {
                a.free(&mut r, b, 64);
            }
            r.crash(&mode);
            let a2 = PAlloc::open(&r).expect("magic survives every mode");
            assert_eq!(a2.bump_remaining(&r), bump_after, "{mode:?}");
            // LIFO free list hands the blocks back newest-first, all
            // three before touching the bump cursor again
            for &want in blocks.iter().rev() {
                assert_eq!(a2.alloc(&mut r, 64), Some(want), "{mode:?}");
            }
            assert_eq!(a2.bump_remaining(&r), bump_after, "{mode:?}");
        }
    }

    #[test]
    fn exhausted_heap_is_usable_again_after_free_and_crash() {
        let mut r = PmemRegion::new(1 << 16);
        let limit = (PAlloc::heap_start() + 512) as u64;
        let a = PAlloc::format_with_limit(&mut r, limit);
        let mut blocks = Vec::new();
        while let Some(b) = a.alloc(&mut r, 128) {
            blocks.push(b);
        }
        assert_eq!(blocks.len(), 4);
        assert_eq!(a.alloc(&mut r, 128), None, "exhausted");
        a.free(&mut r, blocks[1], 128);
        r.crash(&CrashMode::random(0.5, 0.5, 11));
        let a2 = PAlloc::open(&r).expect("heap reopens");
        assert_eq!(a2.alloc(&mut r, 128), Some(blocks[1]), "freed block back");
        assert_eq!(a2.alloc(&mut r, 128), None, "then exhausted again");
    }

    #[test]
    fn many_alloc_free_cycles_do_not_leak_bump() {
        let (mut r, a) = fresh(1 << 16);
        let before = a.bump_remaining(&r);
        let x = a.alloc(&mut r, 256).unwrap();
        a.free(&mut r, x, 256);
        for _ in 0..100 {
            let y = a.alloc(&mut r, 256).unwrap();
            assert_eq!(y, x, "free list must recycle");
            a.free(&mut r, y, 256);
        }
        let after = a.bump_remaining(&r);
        assert_eq!(before - after, 256, "only the first alloc bumped");
    }

    /// A fresh block starts on a multiple of `min(block, LINE_SIZE)`:
    /// mixed sizes skip to the next boundary, one size alone packs as
    /// tightly as a cursor that never aligns.
    #[test]
    fn fresh_blocks_keep_their_line_placement() {
        let (mut r, a) = fresh(1 << 20);
        let small = a.alloc(&mut r, 16).unwrap();
        let line = a.alloc(&mut r, 64).unwrap();
        assert_eq!(small as usize, PAlloc::heap_start());
        assert_eq!(
            line,
            small + LINE_SIZE as u64,
            "a 64-byte block starts on a line"
        );
        let pair = a.alloc(&mut r, 32).unwrap();
        let page = a.alloc(&mut r, 4096).unwrap();
        assert_eq!(
            (pair, page),
            (line + 64, line + 128),
            "32 packs, 4096 on a line"
        );
        for size in [16usize, 32, 4096] {
            let (mut r, a) = fresh(1 << 20);
            for i in 0..16 {
                let want = (PAlloc::heap_start() + i * size) as u64;
                assert_eq!(a.alloc(&mut r, size), Some(want), "{size} B block {i}");
            }
        }
    }
}
