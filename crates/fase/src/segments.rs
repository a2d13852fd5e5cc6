//! The positional segment table by which both engines find their blocks
//! again after a crash — a hash shard's nodes, a tree's pages:
//!
//! ```text
//! [head line | class table | segment 0 | segment 1 | …]
//! head    := the owner's magic word (the rest of the line is the owner's)
//! class   := u8 per segment: 0 = never carved, c = blocks of 16 << c bytes
//! segment := SEGMENT bytes of equal blocks, from the line after the table
//! ```
//!
//! A segment is **carved** ([`SegmentTable::carve`]) before its first
//! block is written, so a segment never carved is all zeros. Nothing in
//! the table is an offset: recovery reads each class byte once, checked
//! by the rules of [`SegmentTable::class`], and cannot be led elsewhere.

use std::fmt;
use std::iter::StepBy;
use std::ops::Range;

use crate::FaseRuntime;

/// Bytes of a segment.
pub const SEGMENT: usize = 4096;
/// The class table starts on the line after the head.
pub const CLASS_TABLE: usize = 64;
/// The largest class: one block per segment.
pub const MAX_CLASS: usize = 8;

/// What a segment never carved holds.
static ZEROS: [u8; SEGMENT] = [0; SEGMENT];

/// Bytes of a class's blocks.
#[inline]
pub fn block_of(class: usize) -> usize {
    16 << class
}

/// A class byte or a segment that breaks a rule of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentError {
    /// Index of the segment.
    pub segment: usize,
    /// Which rule broke.
    pub why: &'static str,
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad segment {}: {}", self.segment, self.why)
    }
}

impl std::error::Error for SegmentError {}

/// Where the table and the segments of a data area lie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentTable {
    segments: usize,
    /// Offset of segment 0.
    base: usize,
}

impl SegmentTable {
    /// The table of a `data_len`-byte data area: as many segments as fit
    /// after the head line and a table byte each (none when not one
    /// does).
    pub fn new(data_len: usize) -> Self {
        let segments = data_len.saturating_sub(CLASS_TABLE + 63) / (SEGMENT + 1);
        let base = (CLASS_TABLE + segments).next_multiple_of(64);
        SegmentTable { segments, base }
    }

    /// Segments the data area holds.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Offset of segment `segment`'s first byte.
    pub fn segment(&self, segment: usize) -> usize {
        self.base + segment * SEGMENT
    }

    /// The offsets of the blocks of segment `segment` carved for
    /// `class`, in address order.
    pub fn blocks_of(&self, segment: usize, class: usize) -> StepBy<Range<usize>> {
        let at = self.segment(segment);
        (at..at + SEGMENT).step_by(block_of(class))
    }

    /// Every block of every carved segment of data area `data`, in
    /// address order, with its class: each class byte checked by
    /// [`SegmentTable::class`] for an owner whose smallest class is
    /// `min_class`.
    pub fn blocks(
        &self,
        data: &[u8],
        min_class: usize,
    ) -> Result<Vec<(usize, usize)>, SegmentError> {
        let mut blocks = Vec::new();
        for segment in 0..self.segments {
            if let Some(class) = self.class(data, segment, min_class)? {
                blocks.extend(self.blocks_of(segment, class).map(|at| (at, class)));
            }
        }
        Ok(blocks)
    }

    /// Segment `segment`'s class byte in data area `data`, unchecked.
    pub fn class_byte(&self, data: &[u8], segment: usize) -> usize {
        data[CLASS_TABLE + segment] as usize
    }

    /// The first segment at or after `from` never carved (`segments` if
    /// none).
    pub fn first_uncarved(&self, data: &[u8], from: usize) -> usize {
        (from..self.segments)
            .find(|&s| self.class_byte(data, s) == 0)
            .unwrap_or(self.segments)
    }

    /// Carve `segment` for blocks of `class`: one store, one flush and
    /// one fence of its class byte ([`FaseRuntime::persist`]), durable
    /// when this returns — inside a FASE too, whose flushes it leaves
    /// alone.
    pub fn carve(&self, rt: &mut FaseRuntime, segment: usize, class: usize) {
        debug_assert!(segment < self.segments && (1..=MAX_CLASS).contains(&class));
        rt.persist(CLASS_TABLE + segment, &[class as u8]);
    }

    /// The class of segment `segment` in data area `data`, checked for
    /// an owner whose smallest class is `min_class`: `None` if it was
    /// never carved — its bytes must then be zeros — and an error if the
    /// class byte names a class past the largest or below the owner's.
    pub fn class(
        &self,
        data: &[u8],
        segment: usize,
        min_class: usize,
    ) -> Result<Option<usize>, SegmentError> {
        let bad = |why| Err(SegmentError { segment, why });
        let at = self.segment(segment);
        match self.class_byte(data, segment) {
            // a memcmp, not a search
            0 if data[at..at + SEGMENT] != ZEROS => bad("bytes in a segment never carved"),
            0 => Ok(None),
            class if class > MAX_CLASS => bad("a class past the largest"),
            class if class < min_class => bad("a class too small for the owner"),
            class => Ok(Some(class)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_core::PolicyKind;
    use nvcache_pmem::CrashMode;

    /// The largest area with no segment, and the smallest with one.
    #[test]
    fn a_segment_needs_the_head_a_table_byte_and_its_bytes() {
        let one = CLASS_TABLE + 64 + SEGMENT;
        assert_eq!(SegmentTable::new(one - 1).segments(), 0);
        assert_eq!(SegmentTable::new(0).segments(), 0);
        let table = SegmentTable::new(one);
        assert_eq!((table.segments(), table.segment(0)), (1, 128));
        let big = SegmentTable::new(1 << 20);
        let last = big.segment(big.segments() - 1) + SEGMENT;
        assert!(CLASS_TABLE + big.segments() <= big.segment(0) && last <= 1 << 20);
    }

    /// A carve is one persist: durable across a power failure that drops
    /// everything not fenced, and found again as the first uncarved
    /// segment moves past it.
    #[test]
    fn a_carve_is_durable_when_it_returns() {
        let mut rt = FaseRuntime::new(1 << 16, 1 << 14, &PolicyKind::Best);
        let table = SegmentTable::new(rt.data_len());
        let data = |rt: &FaseRuntime| rt.region().slice(0, rt.data_len()).to_vec();
        assert_eq!(table.first_uncarved(&data(&rt), 0), 0);
        table.carve(&mut rt, 0, 4);
        table.carve(&mut rt, 2, 8);
        rt.crash_and_recover(&CrashMode::StrictDurableOnly);
        let image = data(&rt);
        assert_eq!(table.class(&image, 0, 2), Ok(Some(4)));
        assert_eq!(table.class(&image, 1, 2), Ok(None));
        assert_eq!(table.first_uncarved(&image, 0), 1);
        assert_eq!(table.first_uncarved(&image, 2), 3);
    }

    /// One hostile image per rule of the table, for an owner whose
    /// smallest class is 2 (a hash shard's): each is refused with the
    /// rule it breaks, and the sound one is not.
    #[test]
    fn each_rule_of_the_table_has_its_hostile_image() {
        let table = SegmentTable::new(1 << 16);
        let mut sound = vec![0u8; 1 << 16];
        sound[CLASS_TABLE] = 3;
        sound[table.segment(0)] = 0xab;
        let patched = |at: usize, byte: u8| {
            let mut image = sound.clone();
            image[at] = byte;
            image
        };
        let cases = [
            (
                patched(CLASS_TABLE, MAX_CLASS as u8 + 1),
                0,
                "a class past the largest",
            ),
            (
                patched(CLASS_TABLE, 1),
                0,
                "a class too small for the owner",
            ),
            (
                patched(CLASS_TABLE, 0),
                0,
                "bytes in a segment never carved",
            ),
            (
                patched(table.segment(2) + SEGMENT - 1, 1),
                2,
                "bytes in a segment never carved",
            ),
        ];
        for (image, segment, why) in cases {
            let got = (0..table.segments()).try_for_each(|s| table.class(&image, s, 2).map(drop));
            assert_eq!(got, Err(SegmentError { segment, why }), "{why}");
        }
        assert_eq!(table.class(&sound, 0, 2), Ok(Some(3)));
        assert_eq!(table.class(&sound, 1, 2), Ok(None));
    }
}
