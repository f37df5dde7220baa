//! Slab arena for epoch-published [`DentrySnap`] blocks (DESIGN.md §13).
//!
//! Every dentry mutation publishes a fresh snapshot. The slab hands out
//! fixed-size slots from leaked blocks: retired snapshots return to the
//! free list after their grace period (via
//! [`crossbeam_epoch::Guard::defer_with`]) and are reused, so
//! steady-state publication performs zero allocator calls and keeps
//! the snapshot working set dense — measured as lower peak RSS, not
//! lower latency (DESIGN.md §13.3).
//!
//! Slot recycling is split across two structures so the measured read
//! path stays lock-free (asserted by `tests/lockfree_read.rs`'s
//! zero-lock and zero-allocation counters). Epoch collection is
//! amortized into `pin()` — deferred destructors can run on a *reader's*
//! pin — so [`destroy_snap`] must not lock: it pushes the slot onto a
//! lock-free Treiber stack (push-only, so no ABA hazard), reusing the
//! dead slot's first word as the link. Allocating mutators — which
//! already serialize per dentry on its strong-edge lock — drain that
//! stack with a single `swap` into the mutex-guarded free list.
//!
//! Blocks are never returned to the OS (classic slab behavior); the
//! exact footprint — blocks, slot size, free slots — is walked by
//! [`footprint`] and reported through `repro space`.

use crate::dentry::DentrySnap;
use crossbeam_epoch::{Guard, Shared};
use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Slots per leaked block. 64 snapshots ≈ one small directory tree's
/// worth of churn per allocator round-trip.
const BLOCK_SLOTS: usize = 64;

/// Retired slots awaiting reuse: a Treiber stack linked through the
/// dead slot's own first word (a `DentrySnap` is comfortably larger
/// than a pointer — asserted below). Pushed lock-free by the epoch
/// collector, drained wholesale by [`pop_slot`].
static RETURNED: AtomicPtr<DentrySnap> = AtomicPtr::new(std::ptr::null_mut());

/// Slots currently on the [`RETURNED`] stack (footprint accounting).
static RETURNED_LEN: AtomicUsize = AtomicUsize::new(0);

const _: () = assert!(std::mem::size_of::<DentrySnap>() >= std::mem::size_of::<*mut DentrySnap>());
const _: () =
    assert!(std::mem::align_of::<DentrySnap>() >= std::mem::align_of::<*mut DentrySnap>());

/// Pushes a dead slot onto the return stack. Lock-free: runs inside
/// epoch collection, which may execute on a reader's `pin()`.
///
/// # Safety
///
/// `slot` must be a slab slot whose contents are already dropped and
/// which no other thread can reach.
unsafe fn push_returned(slot: *mut DentrySnap) {
    let link = slot as *mut *mut DentrySnap;
    let mut head = RETURNED.load(Ordering::Relaxed);
    loop {
        link.write(head);
        match RETURNED.compare_exchange_weak(head, slot, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => break,
            Err(h) => head = h,
        }
    }
    RETURNED_LEN.fetch_add(1, Ordering::Relaxed);
}

/// Moves every slot on the return stack into `into`. One `swap` takes
/// the whole list, so the pop side never races the ABA way.
fn drain_returned(into: &mut Vec<*mut DentrySnap>) {
    let mut p = RETURNED.swap(std::ptr::null_mut(), Ordering::Acquire);
    let mut n = 0usize;
    while !p.is_null() {
        // SAFETY: we own the detached list exclusively after the swap.
        let next = unsafe { (p as *mut *mut DentrySnap).read() };
        into.push(p);
        p = next;
        n += 1;
    }
    if n > 0 {
        RETURNED_LEN.fetch_sub(n, Ordering::Relaxed);
    }
}

struct SlabInner {
    free: Vec<*mut DentrySnap>,
    blocks: usize,
}

// SAFETY: raw slot pointers are only ever handed to one owner at a
// time; the mutex serializes list access itself.
unsafe impl Send for SlabInner {}

fn slab() -> &'static Mutex<SlabInner> {
    static SLAB: OnceLock<Mutex<SlabInner>> = OnceLock::new();
    SLAB.get_or_init(|| {
        Mutex::new(SlabInner {
            free: Vec::new(),
            blocks: 0,
        })
    })
}

#[inline]
fn track_alloc(ptr: *const DentrySnap) {
    #[cfg(feature = "dst")]
    dst::alloc::track_alloc(ptr as *const ());
    #[cfg(not(feature = "dst"))]
    let _ = ptr;
}

#[inline]
fn track_free(ptr: *const DentrySnap) {
    #[cfg(feature = "dst")]
    dst::alloc::track_free(ptr as *const ());
    #[cfg(not(feature = "dst"))]
    let _ = ptr;
}

/// Pops a free slot, growing the arena by one leaked block when both
/// the free list and the return stack are empty.
fn pop_slot() -> *mut DentrySnap {
    let mut inner = slab().lock();
    if let Some(p) = inner.free.pop() {
        return p;
    }
    drain_returned(&mut inner.free);
    if let Some(p) = inner.free.pop() {
        return p;
    }
    let block: &'static mut [MaybeUninit<DentrySnap>] = Box::leak(
        (0..BLOCK_SLOTS)
            .map(|_| MaybeUninit::uninit())
            .collect::<Vec<_>>()
            .into_boxed_slice(),
    );
    inner.blocks += 1;
    let mut iter = block.iter_mut();
    let first = iter.next().expect("BLOCK_SLOTS > 0").as_mut_ptr();
    for slot in iter {
        inner.free.push(slot.as_mut_ptr());
    }
    first
}

/// Writes `snap` into a slab slot and returns the published-ready
/// pointer. The caller owns the slot until it is retired.
pub(crate) fn alloc_snap<'g>(snap: DentrySnap, _guard: &'g Guard) -> Shared<'g, DentrySnap> {
    let p = pop_slot();
    // SAFETY: `pop_slot` hands out a live, unused slot to one owner.
    unsafe { p.write(snap) };
    track_alloc(p);
    // SAFETY: freshly initialized, exclusively owned until published.
    unsafe { Shared::from_raw(p) }
}

/// The type-erased destructor the epoch collector runs once the grace
/// period elapses: drop the snapshot's contents, then return the slot
/// to the slab's return stack.
///
/// # Safety
///
/// `p` must be a slab slot holding a live snapshot that no reader can
/// reach any more, passed here once.
unsafe fn destroy_snap(p: *mut ()) {
    let snap = p as *mut DentrySnap;
    std::ptr::drop_in_place(snap);
    track_free(snap);
    push_returned(snap);
}

/// Retires a replaced snapshot through the epoch collector. Null
/// pointers (a dentry that never published) are ignored; on an
/// unprotected guard the destructor runs immediately (the `Drop` path).
///
/// # Safety
///
/// `old` must have been unlinked from its `Atomic` (no new reader can
/// load it) and must not be retired twice.
pub(crate) unsafe fn retire(guard: &Guard, old: Shared<'_, DentrySnap>) {
    guard.defer_with(old.as_raw() as *mut (), destroy_snap);
}

/// Exact arena footprint, walked from the slab's own bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct SnapSlabFootprint {
    /// Leaked blocks.
    pub blocks: usize,
    /// Slots per block.
    pub block_slots: usize,
    /// Bytes per slot.
    pub slot_bytes: usize,
    /// Slots currently on the free list.
    pub free_slots: usize,
}

impl SnapSlabFootprint {
    /// Total bytes held by the arena (live + free slots; blocks are
    /// never returned to the OS).
    pub fn total_bytes(&self) -> usize {
        self.blocks * self.block_slots * self.slot_bytes
    }

    /// Slots currently holding a published (or grace-period) snapshot.
    pub fn live_slots(&self) -> usize {
        self.blocks * self.block_slots - self.free_slots
    }
}

/// The current arena footprint. Free slots count both the drained list
/// and slots still parked on the lock-free return stack.
pub fn footprint() -> SnapSlabFootprint {
    let inner = slab().lock();
    SnapSlabFootprint {
        blocks: inner.blocks,
        block_slots: BLOCK_SLOTS,
        slot_bytes: std::mem::size_of::<DentrySnap>(),
        free_slots: inner.free.len() + RETURNED_LEN.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dentry::{Dentry, DentryState, NegKind};
    use std::sync::Arc;

    fn dentry(id: u64) -> Arc<Dentry> {
        Dentry::new(id, 1, "s", None, DentryState::Negative(NegKind::Enoent), 0)
    }

    #[test]
    fn publish_cycles_reuse_slots() {
        // Dentries publish from the slab; a burst of publications must
        // not grow the arena once warm (retired slots come back after
        // the grace period). The slab is global and the test harness
        // runs in parallel, so assert on *growth* with headroom for
        // concurrent tests: 10k publications with no reuse would leak
        // ~156 blocks by themselves.
        let d = dentry(1);
        let before = footprint().blocks;
        for i in 0..10_000u64 {
            d.sign(Some(crate::HashKey::from_seed(i % 7).root_state()), 1);
        }
        // Everything retired eventually returns; flush the collector.
        crossbeam_epoch::pin().flush();
        crossbeam_epoch::pin().flush();
        let fp = footprint();
        assert!(fp.blocks > 0);
        assert!(
            fp.blocks - before <= 60,
            "10k publications must reuse slots, not leak blocks (grew {})",
            fp.blocks - before
        );
        assert_eq!(fp.total_bytes(), fp.blocks * BLOCK_SLOTS * fp.slot_bytes);
    }

    #[test]
    fn footprint_is_walked() {
        let before = footprint();
        let held: Vec<_> = (0..200u64).map(dentry).collect();
        let after = footprint();
        // 200 fresh snapshots need slots: free count dropped or blocks
        // grew — either way the numbers come from the real lists.
        assert!(
            after.blocks > before.blocks
                || after.free_slots < before.free_slots
                || before.free_slots >= 200
        );
        assert!(after.live_slots() >= held.len());
        drop(held);
    }
}
