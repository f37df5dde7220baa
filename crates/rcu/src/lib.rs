//! RCU-style read-mostly containers over epoch-based reclamation.
//!
//! Two primitives back the lock-free read path (DESIGN.md §5):
//!
//! - [`EpochCell`]: a single replaceable value. Readers pin the epoch,
//!   load the pointer, and borrow or clone the value — no locks, no
//!   reference-count contention. Writers swap in a fresh allocation and
//!   defer destruction of the old one.
//! - [`SnapMap`]: a small copy-on-write map. Readers scan an immutable
//!   snapshot vector; writers rebuild the vector under an internal mutex
//!   and swap it wholesale. Intended for tiny, read-dominated maps
//!   (mounts by id, per-namespace tables, per-cred caches) — lookups are
//!   a linear scan over a snapshot that rarely exceeds a handful of
//!   entries.
//!
//! Writers serialize through `parking_lot` locks and therefore *do*
//! count as lock acquisitions; readers never touch a lock.

pub use crossbeam_epoch::Guard;
use crossbeam_epoch::{self as epoch, Atomic, Owned, Shared};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Waits out a grace period: returns once everything retired before the
/// call (a superseded [`EpochCell`] value, an older [`SnapMap`]
/// snapshot) has been destroyed. It retires a sentinel and flushes until
/// the sentinel is destroyed, twice: a collector destroys a batch while
/// pinned, so once the second sentinel is gone, every collector that took
/// the first one's batch has finished it. A reader pinned throughout
/// delays the return.
///
/// # Panics
///
/// Panics if the calling thread is pinned: its own pin would hold the
/// epoch back forever.
pub fn synchronize() {
    assert!(!epoch::is_pinned(), "synchronize() under an epoch pin");
    struct Sentinel(Arc<AtomicBool>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    for _ in 0..2 {
        let destroyed = Arc::new(AtomicBool::new(false));
        {
            let guard = epoch::pin();
            let sentinel = Owned::new(Sentinel(destroyed.clone())).into_shared(&guard);
            // SAFETY: reachable from nowhere: retired the moment it exists.
            unsafe { guard.defer_destroy(sentinel) };
        }
        while !destroyed.load(Ordering::Acquire) {
            epoch::pin().flush();
            std::thread::yield_now();
        }
    }
}

/// A read-mostly cell: lock-free reads, swap-and-defer writes.
pub struct EpochCell<T> {
    inner: Atomic<T>,
}

impl<T> EpochCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell {
            inner: Atomic::new(value),
        }
    }

    /// Runs `f` against the current value without copying it.
    ///
    /// The epoch guard is held for the duration of `f`; keep the closure
    /// short (no blocking).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let guard = epoch::pin();
        f(self.read(&guard))
    }

    /// Borrows the current value under a caller-held epoch guard — no
    /// extra pin, no clone. The borrow lives as long as the guard: a
    /// value replaced by [`set`](EpochCell::set) is only reclaimed after
    /// every guard that could have observed it unpins.
    pub fn read<'g>(&self, guard: &'g epoch::Guard) -> &'g T {
        let shared = self.inner.load(Ordering::Acquire, guard);
        // SAFETY: the cell always holds a non-null pointer (set at
        // construction, replaced atomically, freed only in Drop).
        unsafe { shared.deref() }
    }

    /// Replaces the value; the old allocation is reclaimed once no
    /// reader can still hold it.
    pub fn set(&self, value: T) {
        let guard = epoch::pin();
        let old = self.inner.swap(Owned::new(value), Ordering::AcqRel, &guard);
        // SAFETY: the swap unlinked `old`; readers that loaded it hold
        // guards that delay its destruction.
        unsafe { guard.defer_destroy(old) };
    }
}

impl<T: Clone> EpochCell<T> {
    /// Clones the current value out.
    pub fn get(&self) -> T {
        self.with(T::clone)
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        // SAFETY: &mut self: no concurrent readers can exist.
        unsafe {
            let guard = epoch::unprotected();
            let shared = self.inner.swap(Shared::null(), Ordering::AcqRel, guard);
            guard.defer_destroy(shared);
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with(|v| f.debug_tuple("EpochCell").field(v).finish())
    }
}

/// A copy-on-write map with lock-free reads.
///
/// The entry vector is immutable once published; every mutation clones
/// it, edits the clone, and swaps it in. `K` is `Copy` because keys are
/// small ids in practice.
pub struct SnapMap<K: Copy + Eq, V: Clone> {
    snap: Atomic<Vec<(K, V)>>,
    write: Mutex<()>,
}

impl<K: Copy + Eq, V: Clone> SnapMap<K, V> {
    /// An empty map.
    pub fn new() -> SnapMap<K, V> {
        SnapMap {
            snap: Atomic::new(Vec::new()),
            write: Mutex::new(()),
        }
    }

    fn current<'g>(&self, guard: &'g epoch::Guard) -> &'g Vec<(K, V)> {
        let shared = self.snap.load(Ordering::Acquire, guard);
        // SAFETY: always non-null (constructed with an empty vec,
        // replaced atomically, freed only in Drop).
        unsafe { shared.deref() }
    }

    /// Publishes `next` and defers destruction of the previous snapshot.
    /// Caller must hold the write mutex.
    fn publish(&self, next: Vec<(K, V)>, guard: &epoch::Guard) {
        let old = self.snap.swap(Owned::new(next), Ordering::AcqRel, guard);
        // SAFETY: the swap unlinked `old` under the write mutex, so it
        // is retired once; readers' guards delay its destruction.
        unsafe { guard.defer_destroy(old) };
    }

    /// Lock-free lookup.
    pub fn get(&self, key: K) -> Option<V> {
        let guard = epoch::pin();
        self.get_ref(key, &guard).cloned()
    }

    /// Borrows the value for `key` under a caller-held epoch guard —
    /// no extra pin, no clone (see [`EpochCell::read`]).
    pub fn get_ref<'g>(&self, key: K, guard: &'g epoch::Guard) -> Option<&'g V>
    where
        K: 'g,
        V: 'g,
    {
        self.current(guard)
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// True when `key` is present (lock-free).
    pub fn contains_key(&self, key: K) -> bool {
        let guard = epoch::pin();
        self.current(&guard).iter().any(|(k, _)| *k == key)
    }

    /// Clones all values out (lock-free).
    pub fn values(&self) -> Vec<V> {
        let guard = epoch::pin();
        self.current(&guard)
            .iter()
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Clones all entries out (lock-free).
    pub fn entries(&self) -> Vec<(K, V)> {
        let guard = epoch::pin();
        self.current(&guard).clone()
    }

    /// Number of entries (lock-free).
    pub fn len(&self) -> usize {
        let guard = epoch::pin();
        self.current(&guard).len()
    }

    /// True when empty (lock-free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let _w = self.write.lock();
        let guard = epoch::pin();
        let mut next = self.current(&guard).clone();
        let prev = match next.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => Some(std::mem::replace(&mut slot.1, value)),
            None => {
                next.push((key, value));
                None
            }
        };
        self.publish(next, &guard);
        prev
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: K) -> Option<V> {
        let _w = self.write.lock();
        let guard = epoch::pin();
        let cur = self.current(&guard);
        let pos = cur.iter().position(|(k, _)| *k == key)?;
        let mut next = cur.clone();
        let (_, v) = next.remove(pos);
        self.publish(next, &guard);
        Some(v)
    }

    /// Returns the value for `key`, inserting `make()` under the write
    /// lock if absent. The fast path (present) takes no lock.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let _w = self.write.lock();
        let guard = epoch::pin();
        // Re-check under the lock: another writer may have won the race.
        if let Some((_, v)) = self.current(&guard).iter().find(|(k, _)| *k == key) {
            return v.clone();
        }
        let v = make();
        let mut next = self.current(&guard).clone();
        next.push((key, v.clone()));
        self.publish(next, &guard);
        v
    }

    /// Removes every entry.
    pub fn clear(&self) {
        let _w = self.write.lock();
        let guard = epoch::pin();
        self.publish(Vec::new(), &guard);
    }
}

impl<K: Copy + Eq, V: Clone> Default for SnapMap<K, V> {
    fn default() -> Self {
        SnapMap::new()
    }
}

impl<K: Copy + Eq, V: Clone> Drop for SnapMap<K, V> {
    fn drop(&mut self) {
        // SAFETY: &mut self: no concurrent readers can exist.
        unsafe {
            let guard = epoch::unprotected();
            let shared = self.snap.swap(Shared::null(), Ordering::AcqRel, guard);
            guard.defer_destroy(shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering as O};
    use std::sync::Arc;

    #[test]
    fn epoch_cell_get_set() {
        let c = EpochCell::new(Arc::new(1u32));
        assert_eq!(*c.get(), 1);
        c.set(Arc::new(2));
        assert_eq!(*c.get(), 2);
        assert_eq!(c.with(|v| **v), 2);
    }

    #[test]
    fn snap_map_crud() {
        let m: SnapMap<u64, Arc<str>> = SnapMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "one".into()), None);
        assert_eq!(m.insert(2, "two".into()), None);
        assert_eq!(m.get(1).as_deref(), Some("one"));
        assert_eq!(m.insert(1, "uno".into()).as_deref(), Some("one"));
        assert_eq!(m.get(1).as_deref(), Some("uno"));
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(2));
        assert_eq!(m.remove(2).as_deref(), Some("two"));
        assert_eq!(m.remove(2), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn synchronize_waits_out_every_retired_value() {
        let old = Arc::new(0u32);
        let cell = EpochCell::new(old.clone());
        let map = SnapMap::new();
        map.insert(1, old.clone());
        cell.set(Arc::new(1));
        map.remove(1);
        synchronize();
        assert_eq!(Arc::strong_count(&old), 1);
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let m: SnapMap<u64, Arc<u32>> = SnapMap::new();
        let a = m.get_or_insert_with(7, || Arc::new(70));
        let b = m.get_or_insert_with(7, || unreachable!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_reads_survive_writes() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        let map: Arc<SnapMap<u64, u64>> = Arc::new(SnapMap::new());
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let cell = cell.clone();
                let map = map.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        cell.set(Arc::new(i));
                        map.insert(i % 16, i);
                        if i % 64 == 0 {
                            map.remove(i % 16);
                        }
                    }
                    stop.store(true, O::SeqCst);
                });
            }
            for _ in 0..4 {
                let cell = cell.clone();
                let map = map.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut last = 0;
                    while !stop.load(O::Relaxed) {
                        let v = *cell.get();
                        assert!(v >= last, "cell value went backwards");
                        last = v;
                        for (k, v) in map.entries() {
                            assert_eq!(v % 16, k % 16);
                        }
                    }
                });
            }
        });
    }
}
