//! The split storage trait surface under the tree: [`PageRead`] /
//! [`PageWrite`] / [`RootStore`] (a wrongodb-style decomposition), so
//! the B+-tree logic is written against a narrow page-store contract
//! and the production backend — [`FasePager`], a thin shell over the
//! shared [`FaseRuntime`] — brings PAlloc and the runtime's flush ring
//! along for free. A volatile [`MemPager`] test
//! double exercises the tree's structural logic without any
//! persistence machinery.
//!
//! The contract mirrors how the hash shard drives the runtime:
//!
//! - **reads** borrow straight from the region (no logging, no copy,
//!   `&self`), so snapshot readers never serialize against a writer's
//!   `&mut` bookkeeping;
//! - **writes** happen inside an open failure-atomic section
//!   (`begin`/`commit` = `begin_fase`/`end_fase`) and are never
//!   undo-logged: `write_fresh` stores shadow bytes nothing committed
//!   can reach yet, and `publish` announces the section's one commit
//!   record, the in-place write that makes them reachable. `commit`
//!   flushes and fences the shadow bytes, then writes, flushes and
//!   fences the record ([`FaseRuntime::publish`]), after which the
//!   section is durable as a unit;
//! - **block carving** (`alloc_block`) talks to the persistent heap
//!   directly and is durable the moment it returns — the tree layers
//!   its own page arena on top and never frees carved blocks back.

use nvcache_core::PolicyKind;
use nvcache_fase::{FaseRuntime, FaseStats, RecoveryError};
use nvcache_pmem::{CrashMode, CrashPlan, PmemRegion};

/// Bytes per tree page (also per value cell).
pub const PAGE: usize = 256;

/// Read-only page access. `&self` so pinned-snapshot readers can
/// proceed while a writer owns the mutable half of the store. The
/// primitive is a borrow of the store's own bytes: walking the tree
/// copies nothing, and whoever needs an owned page (copy-on-write)
/// makes that one copy itself.
#[allow(clippy::len_without_is_empty)] // a bound for offsets, not a collection
pub trait PageRead {
    /// Bytes the store holds: every valid offset lies below this.
    /// Offsets read out of an image are checked against it before use.
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

/// Mutating page access: failure-atomic sections plus raw block
/// carving from the backing heap.
pub trait PageWrite {
    /// Open a failure-atomic section. Sections do not nest here (the
    /// tree holds exactly one open transaction).
    fn begin(&mut self);

    /// Commit the open section; its writes are durable when this
    /// returns.
    fn commit(&mut self);

    /// Write `bytes` at `off` inside the open section where no
    /// committed state can reach them (a shadow page, a table slot past
    /// the committed length): durable at `commit`, with no undo entry —
    /// if the section never commits, the range holds whatever part of
    /// the write landed.
    fn write_fresh(&mut self, off: u64, bytes: &[u8]);

    /// The open section's commit record: `bytes` at `off`, one 8-aligned
    /// range inside one cache line, at most one per section and its last
    /// write. It becomes durable only after every `write_fresh` of the
    /// section, and a section that never commits leaves the bytes it
    /// would replace. It may land torn (8-byte words, some new, some
    /// old), so the record must let a reader tell.
    fn publish(&mut self, off: u64, bytes: &[u8]);

    /// Carve `size` fresh bytes from the heap; durable immediately,
    /// independent of any open section. `None` when exhausted. Blocks
    /// must be cache-line (64 B) aligned: an unlogged page header has
    /// to land or not land as a unit.
    fn alloc_block(&mut self, size: usize) -> Option<u64>;
}

/// The durable root pointer the whole structure is discovered from.
pub trait RootStore {
    /// Current root offset (0 = never set).
    fn root(&self) -> u64;

    /// Durably set the root offset (call outside a section).
    fn set_root(&mut self, off: u64);
}

/// Everything the tree needs from a backend.
pub trait PageStore: PageRead + PageWrite + RootStore {}
impl<T: PageRead + PageWrite + RootStore> PageStore for T {}

// ---- production backend ----------------------------------------------

/// Sizing and policy knobs for a [`FasePager`]-backed tree.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Persistent data area (heap) in bytes.
    pub data_len: usize,
    /// Undo-log area in bytes.
    pub log_len: usize,
    /// Write-combining cache policy for the runtime.
    pub policy: PolicyKind,
    /// Selects nothing: every tree carves pages from the runtime's heap
    /// and flushes through its ring. Kept for
    /// `benchmark/src/adapter.rs`, which sets it.
    pub pipelined: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            data_len: 1 << 21,
            log_len: 1 << 18,
            policy: PolicyKind::ScFixed { capacity: 8 },
            pipelined: true,
        }
    }
}

/// The production page store: a private [`FaseRuntime`] with a heap,
/// sharing the exact persistence stack of the hash shards (PAlloc,
/// flush ring, undo log, crash plumbing).
pub struct FasePager {
    rt: FaseRuntime,
}

impl FasePager {
    /// Fresh store over a new heap region.
    pub fn new(cfg: &TreeConfig) -> FasePager {
        FasePager {
            rt: FaseRuntime::with_heap(cfg.data_len, cfg.log_len, &cfg.policy),
        }
    }

    /// Re-attach to a crash image (runs FASE recovery; the caller
    /// rebuilds the tree's volatile state afterwards). An image whose
    /// heap header the runtime does not vouch for reopens with no root
    /// ([`RootStore::root`] reads 0), which the tree's attach refuses.
    pub fn reopen_from_image(image: Vec<u8>, cfg: &TreeConfig) -> Result<FasePager, RecoveryError> {
        let region = PmemRegion::from_image(image);
        let rt = FaseRuntime::try_reopen(region, cfg.data_len, cfg.log_len, &cfg.policy)?;
        Ok(FasePager { rt })
    }

    /// The underlying runtime (trace capture, telemetry, stats).
    pub fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.rt
    }

    /// Persistence counters since creation.
    pub fn stats(&self) -> FaseStats {
        self.rt.stats()
    }

    /// Persistence counters since the last take.
    pub fn take_stats(&mut self) -> FaseStats {
        self.rt.take_stats()
    }

    /// Micro-step counter for crash-point injection.
    pub fn steps(&self) -> u64 {
        self.rt.steps()
    }

    /// Arm a crash plan (see [`FaseRuntime::arm_crash`]).
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.rt.arm_crash(plan);
    }

    /// Take the image captured by a tripped crash plan.
    pub fn take_crash_image(&mut self) -> Option<Vec<u8>> {
        self.rt.take_crash_image()
    }

    /// In-process power failure + FASE recovery.
    pub fn crash_and_recover(&mut self, mode: &CrashMode) {
        self.rt.crash_and_recover(mode);
    }

    /// Clear non-durable residue after a panicked section.
    pub fn heal_after_panic(&mut self) -> bool {
        self.rt.heal_after_panic()
    }

    /// Drain buffered flush obligations (clean shutdown).
    pub fn sync(&mut self) {
        self.rt.sync();
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
        self.rt.begin_fase();
    }

    fn commit(&mut self) {
        self.rt.end_fase();
    }

    fn write_fresh(&mut self, off: u64, bytes: &[u8]) {
        self.rt.store_fresh(off as usize, bytes);
    }

    fn publish(&mut self, off: u64, bytes: &[u8]) {
        self.rt.publish(off as usize, bytes);
    }

    fn alloc_block(&mut self, size: usize) -> Option<u64> {
        self.rt.alloc(size)
    }
}

impl RootStore for FasePager {
    fn root(&self) -> u64 {
        if self.rt.has_heap() {
            self.rt.root()
        } else {
            0
        }
    }

    fn set_root(&mut self, off: u64) {
        self.rt.set_root(off);
    }
}

// ---- volatile test double --------------------------------------------

/// An in-memory page store with no durability at all: structural unit
/// tests of the tree run against this, proving the tree logic depends
/// only on the trait surface.
#[derive(Default)]
pub struct MemPager {
    data: Vec<u8>,
    root: u64,
    /// Open-section flag (checked so trait misuse fails fast in tests).
    open: bool,
    /// Sections committed (observability for tests).
    pub commits: u64,
}

impl MemPager {
    /// Fresh empty store.
    pub fn new() -> MemPager {
        MemPager {
            // offset 0 doubles as "unset" for roots, so burn it
            data: vec![0u8; 64],
            root: 0,
            open: false,
            commits: 0,
        }
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

    fn publish(&mut self, off: u64, bytes: &[u8]) {
        self.write_fresh(off, bytes);
    }

    fn alloc_block(&mut self, size: usize) -> Option<u64> {
        let off = self.data.len() as u64;
        self.data.resize(self.data.len() + size, 0);
        Some(off)
    }
}

impl RootStore for MemPager {
    fn root(&self) -> u64 {
        self.root
    }

    fn set_root(&mut self, off: u64) {
        self.root = off;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pager_round_trips_pages() {
        let mut p = MemPager::new();
        let off = p.alloc_block(PAGE).unwrap();
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
        let off = p.alloc_block(PAGE).unwrap();
        p.begin();
        p.write_fresh(off, &[0xabu8; PAGE]);
        p.commit();
        p.set_root(off);
        p.crash_and_recover(&CrashMode::StrictDurableOnly);
        assert_eq!(p.root(), off);
        assert_eq!(p.page(off), &[0xabu8; PAGE]);
    }

    #[test]
    fn fase_pager_uncommitted_section_rolls_back() {
        let cfg = TreeConfig {
            data_len: 1 << 16,
            log_len: 1 << 14,
            ..Default::default()
        };
        let mut p = FasePager::new(&cfg);
        let (head, off) = (p.alloc_block(64).unwrap(), p.alloc_block(PAGE).unwrap());
        p.begin();
        p.write_fresh(off, &[1u8; PAGE]);
        p.publish(head, &1u64.to_le_bytes());
        p.commit();
        // the second section is open at the crash: its record was never
        // written, whatever else of it landed
        p.begin();
        p.write_fresh(off, &[2u8; PAGE]);
        p.publish(head, &2u64.to_le_bytes());
        p.crash_and_recover(&CrashMode::AllInFlightLands);
        assert_eq!(p.read_u64_at(head), 1, "the committed record stands");
        assert_eq!(p.page(off), &[2u8; PAGE], "fresh bytes are not rolled back");
    }
}
