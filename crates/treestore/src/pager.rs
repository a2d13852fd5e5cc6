//! The split storage trait surface under the tree: [`PageRead`] /
//! [`PageWrite`] (a wrongodb-style decomposition), so the B+-tree logic
//! is written against a narrow page-store contract and the production
//! backend — [`FasePager`], a thin shell over the shared
//! [`FaseRuntime`] — brings the runtime's flush ring and crash plumbing
//! along for free. A volatile [`MemPager`] test double exercises the
//! tree's structural logic without any persistence machinery.
//!
//! A store's bytes are a data area laid out as the segment table of
//! [`nvcache_fase::segments`] — a head line, one class byte per 4 KiB
//! segment, the segments — as a hash shard's are: the tree carves its
//! pages the way the shard carves its blocks, and both pagers keep the
//! table.
//!
//! The contract mirrors how the hash shard drives the runtime:
//!
//! - **reads** borrow straight from the region (no logging, no copy,
//!   `&self`), so snapshot readers never serialize against a writer's
//!   `&mut` bookkeeping;
//! - **writes** happen inside an open failure-atomic section
//!   (`begin`/`commit` = `begin_fase`/`end_fase`) and are never
//!   undo-logged: `write_fresh` stores shadow bytes no committed state
//!   names, and the runtime has no undo log. `commit` drains the
//!   section's flushes and fences once, after which every byte it wrote
//!   is durable; what makes them a commit is the tree's own business
//!   (its pages seal themselves);
//! - **carving** (`carve`) persists one class byte of the table and is
//!   durable the moment it returns, inside the open section or not —
//!   the tree places its pages in the carved segments itself and never
//!   gives a segment back.

use nvcache_core::PolicyKind;
use nvcache_fase::segments::CLASS_TABLE;
use nvcache_fase::{FaseRuntime, RecoveryError, SegmentTable};
use nvcache_pmem::PmemRegion;

/// Bytes per tree page (also per value cell).
pub const PAGE: usize = 256;
/// The segment class of a page: blocks of `16 << 4` = [`PAGE`] bytes.
pub(crate) const PAGE_CLASS: usize = 4;

/// Read-only page access. `&self` so pinned-snapshot readers can
/// proceed while a writer owns the mutable half of the store. The
/// primitive is a borrow of the store's own bytes: walking the tree
/// copies nothing, and whoever needs an owned page (copy-on-write)
/// makes that one copy itself.
#[allow(clippy::len_without_is_empty)] // a bound for offsets, not a collection
pub trait PageRead {
    /// Bytes of the store's data area, which [`SegmentTable::new`] lays
    /// out: every valid offset lies below this.
    fn len(&self) -> u64;

    /// Borrow `len` bytes starting at byte offset `off`.
    fn bytes(&self, off: u64, len: usize) -> &[u8];

    /// Borrow one page.
    fn page(&self, off: u64) -> &[u8; PAGE] {
        self.bytes(off, PAGE)
            .try_into()
            .expect("bytes() returns the length asked for")
    }

    /// Copy `buf.len()` bytes starting at byte offset `off`.
    fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        buf.copy_from_slice(self.bytes(off, buf.len()));
    }

    /// Read a little-endian u64.
    fn read_u64_at(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(off, &mut b);
        u64::from_le_bytes(b)
    }
}

/// Mutating page access: failure-atomic sections plus carving the
/// segment table.
pub trait PageWrite {
    /// Open a failure-atomic section. Sections do not nest here (the
    /// tree holds exactly one open transaction).
    fn begin(&mut self);

    /// Commit the open section; its writes are durable when this
    /// returns.
    fn commit(&mut self);

    /// Write `bytes` at `off` inside the open section where no
    /// committed state can reach them (a shadow page, a table entry past
    /// the table's last): durable at `commit`, with no undo entry —
    /// if the section never commits, the range holds whatever part of
    /// the write landed.
    fn write_fresh(&mut self, off: u64, bytes: &[u8]);

    /// Whether part of the open section's writes was flushed before its
    /// end (its flush ring filled and drained): an earlier state of a
    /// range the section rewrote since may then be durable on its own.
    fn flushed_early(&self) -> bool;

    /// Carve segment `segment` of the table for pages (class byte 4:
    /// 256-byte blocks); durable when it returns, independent of any
    /// open section, whose flushes it leaves alone: one store, one flush
    /// and one fence of the class byte's line.
    fn carve(&mut self, segment: usize);
}

/// Everything the tree needs from a backend.
pub trait PageStore: PageRead + PageWrite {}
impl<T: PageRead + PageWrite> PageStore for T {}

// ---- production backend ----------------------------------------------

/// Sizing and policy knobs for a [`FasePager`]-backed tree.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Persistent data area in bytes: the head line, the class table
    /// and as many 4 KiB segments of pages as fit.
    pub data_len: usize,
    /// Selects nothing: a tree's runtime has no undo log. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub log_len: usize,
    /// Write-combining cache policy for the runtime.
    pub policy: PolicyKind,
    /// Selects nothing: every tree carves pages from its segment table
    /// and flushes through the runtime's ring. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub pipelined: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            data_len: 1 << 21,
            log_len: 0,
            policy: PolicyKind::ScFixed { capacity: 8 },
            pipelined: true,
        }
    }
}

/// The production page store: a private [`FaseRuntime`] with no undo
/// log, sharing the exact persistence stack of the hash shards (segment
/// table, flush ring, crash plumbing).
pub struct FasePager {
    rt: FaseRuntime,
    /// The ring's drain count when the open section began.
    drains: u64,
}

impl FasePager {
    /// Fresh store over a new, zeroed region: no segment carved.
    pub fn new(cfg: &TreeConfig) -> FasePager {
        FasePager {
            rt: FaseRuntime::new(cfg.data_len, 0, &cfg.policy),
            drains: 0,
        }
    }

    /// Re-attach to a crash image; an image shorter than the data area
    /// is refused. The caller checks the head and the table and
    /// rebuilds the tree's volatile state afterwards.
    pub fn reopen_from_image(image: Vec<u8>, cfg: &TreeConfig) -> Result<FasePager, RecoveryError> {
        let region = PmemRegion::from_image(image);
        let rt = FaseRuntime::try_reopen(region, cfg.data_len, 0, &cfg.policy)?;
        Ok(FasePager { rt, drains: 0 })
    }

    /// The underlying runtime (stats, micro-steps, adaptive policy).
    pub fn runtime(&self) -> &FaseRuntime {
        &self.rt
    }

    /// The underlying runtime (trace, telemetry, crash plumbing).
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.rt
    }
}

impl PageRead for FasePager {
    fn len(&self) -> u64 {
        self.rt.data_len() as u64
    }

    fn bytes(&self, off: u64, len: usize) -> &[u8] {
        self.rt.region().slice(off as usize, len)
    }
}

impl PageWrite for FasePager {
    fn begin(&mut self) {
        self.drains = self.rt.ring_stats().drains;
        self.rt.begin_fase();
    }

    fn commit(&mut self) {
        self.rt.end_fase();
    }

    fn write_fresh(&mut self, off: u64, bytes: &[u8]) {
        self.rt.store_fresh(off as usize, bytes);
    }

    fn flushed_early(&self) -> bool {
        self.rt.ring_stats().drains != self.drains
    }

    fn carve(&mut self, segment: usize) {
        let table = SegmentTable::new(self.rt.data_len());
        table.carve(&mut self.rt, segment, PAGE_CLASS);
    }
}

// ---- volatile test double --------------------------------------------

/// Bytes of a [`MemPager`]'s data area (8 189 segments): allocated
/// zeroed, so a page costs memory once the tree writes it.
const MEM_BYTES: usize = 32 << 20;

/// An in-memory page store with no durability at all: structural unit
/// tests of the tree run against this, proving the tree logic depends
/// only on the trait surface. Its bytes are laid out as a
/// [`FasePager`]'s, class table included.
pub struct MemPager {
    data: Vec<u8>,
    /// Open-section flag (checked so trait misuse fails fast in tests).
    open: bool,
    /// Sections committed (observability for tests).
    pub commits: u64,
}

impl MemPager {
    /// Fresh store: zeroes, no segment carved.
    pub fn new() -> MemPager {
        MemPager {
            data: vec![0u8; MEM_BYTES],
            open: false,
            commits: 0,
        }
    }
}

impl Default for MemPager {
    fn default() -> Self {
        MemPager::new()
    }
}

impl PageRead for MemPager {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn bytes(&self, off: u64, len: usize) -> &[u8] {
        let off = off as usize;
        &self.data[off..off + len]
    }
}

impl PageWrite for MemPager {
    fn begin(&mut self) {
        assert!(!self.open, "MemPager sections do not nest");
        self.open = true;
    }

    fn commit(&mut self) {
        assert!(self.open, "commit without begin");
        self.open = false;
        self.commits += 1;
    }

    fn write_fresh(&mut self, off: u64, bytes: &[u8]) {
        assert!(self.open, "write outside a section");
        let off = off as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    fn flushed_early(&self) -> bool {
        false
    }

    fn carve(&mut self, segment: usize) {
        self.data[CLASS_TABLE + segment] = PAGE_CLASS as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pager_round_trips_pages() {
        let mut p = MemPager::new();
        let off = SegmentTable::new(p.len() as usize).segment(0) as u64;
        p.carve(0);
        let mut page = [7u8; PAGE];
        page[0] = 42;
        p.begin();
        p.write_fresh(off, &page);
        p.commit();
        assert_eq!(p.page(off), &page);
        assert_eq!(p.commits, 1);
    }

    #[test]
    fn fase_pager_commits_are_durable_across_crash() {
        let cfg = TreeConfig {
            data_len: 1 << 16,
            log_len: 1 << 14,
            ..Default::default()
        };
        let mut p = FasePager::new(&cfg);
        let table = SegmentTable::new(p.len() as usize);
        let off = table.segment(1) as u64;
        p.carve(1);
        p.begin();
        p.write_fresh(off, &[0xabu8; PAGE]);
        p.commit();
        p.runtime_mut()
            .crash_and_recover(&nvcache_pmem::CrashMode::StrictDurableOnly);
        let data = p.bytes(0, p.len() as usize);
        assert_eq!(table.class(data, 1, PAGE_CLASS), Ok(Some(PAGE_CLASS)));
        assert_eq!(p.page(off), &[0xabu8; PAGE]);
    }
}
