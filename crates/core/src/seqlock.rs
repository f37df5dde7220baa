//! Sequence counters and a writer-excluding seqlock.
//!
//! The slowpath validates its optimistic traversals against the global
//! `rename_lock` exactly like Linux's RCU-walk (§2.2): readers sample the
//! counter, do their work with only shared accesses, and retry if a writer
//! ran concurrently. Writers serialize on an internal mutex.
//!
//! The memory-ordering argument for the protocol (why `Acquire` on
//! `read_begin`, an `Acquire` fence on `read_retry`, and `Release`
//! increments around the write section are sufficient, and what the
//! publish → bump-seq discipline in `dentry.rs` relies on) is
//! laid out in DESIGN.md §9; the interleaving-level invariants are
//! model-checked by `crates/dst/tests/seqlock_model.rs`.

use crate::dsync::{fence, AtomicU64, Ordering};
use parking_lot::{Mutex, MutexGuard};

/// A bare sequence counter (even = quiescent, odd = write in progress).
#[derive(Debug, Default)]
pub struct SeqCount(AtomicU64);

impl SeqCount {
    /// A fresh counter at sequence 0.
    pub fn new() -> Self {
        SeqCount(AtomicU64::new(0))
    }

    /// Begins an optimistic read: spins past in-flight writers and
    /// returns the sampled (even) sequence.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        loop {
            let s = self.0.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            crate::dsync::spin_loop();
        }
    }

    /// Begins an optimistic read without waiting: the sampled sequence,
    /// or `None` while a write is in flight — for a reader that has a
    /// cheaper way out than spinning.
    #[inline]
    pub fn try_read_begin(&self) -> Option<u64> {
        let s = self.0.load(Ordering::Acquire);
        (s & 1 == 0).then_some(s)
    }

    /// True if a writer ran since `start` — the read must be retried.
    #[inline]
    pub fn read_retry(&self, start: u64) -> bool {
        fence(Ordering::Acquire);
        self.0.load(Ordering::Relaxed) != start
    }

    /// Marks a write's start (caller provides mutual exclusion).
    #[inline]
    pub fn write_begin(&self) {
        let s = self.0.fetch_add(1, Ordering::Release);
        debug_assert!(s & 1 == 0, "nested seqcount write");
        fence(Ordering::Release);
    }

    /// Marks a write's end.
    #[inline]
    pub fn write_end(&self) {
        let s = self.0.fetch_add(1, Ordering::Release);
        debug_assert!(s & 1 == 1, "unbalanced seqcount write_end");
    }

    /// Current raw value (diagnostics).
    pub fn raw(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A seqlock: a [`SeqCount`] whose writers serialize on a mutex — the
/// shape of Linux's global `rename_lock`.
#[derive(Debug, Default)]
pub struct SeqLock {
    seq: SeqCount,
    writers: Mutex<()>,
}

/// Write-side guard; ends the write sequence on drop.
pub struct SeqWriteGuard<'a> {
    lock: &'a SeqLock,
    _guard: MutexGuard<'a, ()>,
}

impl SeqLock {
    /// A fresh unlocked seqlock.
    pub fn new() -> Self {
        SeqLock {
            seq: SeqCount::new(),
            writers: Mutex::new(()),
        }
    }

    /// Begins an optimistic read.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        self.seq.read_begin()
    }

    /// Begins an optimistic read unless a writer is active.
    #[inline]
    pub fn try_read_begin(&self) -> Option<u64> {
        self.seq.try_read_begin()
    }

    /// True if the read must retry.
    #[inline]
    pub fn read_retry(&self, start: u64) -> bool {
        self.seq.read_retry(start)
    }

    /// Acquires the write side (excluding other writers and failing
    /// concurrent optimistic readers).
    pub fn write(&self) -> SeqWriteGuard<'_> {
        let guard = self.writers.lock();
        self.seq.write_begin();
        SeqWriteGuard {
            lock: self,
            _guard: guard,
        }
    }
}

impl Drop for SeqWriteGuard<'_> {
    fn drop(&mut self) {
        self.lock.seq.write_end();
    }
}

/// A seqlock-published value cell for small `Copy` data.
///
/// Readers copy the value word-by-word out of atomics between a
/// `read_begin`/`read_retry` pair — no locks, no tearing (a torn copy
/// fails validation and retries). Writers serialize on an internal
/// mutex. Backs `Inode` attributes on the lock-free read path: `stat`
/// reads attributes without touching the attr `RwLock`.
///
/// Every access is a plain atomic load/store, so ThreadSanitizer sees
/// properly synchronized accesses rather than a data race that seqlocks
/// built on volatile reads would exhibit.
pub struct SeqCell<T: Copy> {
    seq: SeqCount,
    writers: Mutex<()>,
    words: Box<[AtomicU64]>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Copy> SeqCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        let nwords = std::mem::size_of::<T>().div_ceil(8).max(1);
        let cell = SeqCell {
            seq: SeqCount::new(),
            writers: Mutex::new(()),
            words: (0..nwords).map(|_| AtomicU64::new(0)).collect(),
            _marker: std::marker::PhantomData,
        };
        cell.store_words(&value);
        cell
    }

    fn store_words(&self, value: &T) {
        let size = std::mem::size_of::<T>();
        let src = value as *const T as *const u8;
        for (i, w) in self.words.iter().enumerate() {
            let off = i * 8;
            let n = (size - off).min(8);
            let mut bytes = [0u8; 8];
            // Safety: `off + n <= size_of::<T>()`; padding bytes are
            // copied as raw memory, which is fine for `Copy` data being
            // round-tripped through the same layout.
            unsafe { std::ptr::copy_nonoverlapping(src.add(off), bytes.as_mut_ptr(), n) };
            w.store(u64::from_ne_bytes(bytes), Ordering::Relaxed);
        }
    }

    /// Reads the value without locking; retries while writers run.
    #[inline]
    pub fn read(&self) -> T {
        let size = std::mem::size_of::<T>();
        loop {
            let start = self.seq.read_begin();
            let mut out = std::mem::MaybeUninit::<T>::uninit();
            let dst = out.as_mut_ptr() as *mut u8;
            for (i, w) in self.words.iter().enumerate() {
                let bytes = w.load(Ordering::Relaxed).to_ne_bytes();
                let off = i * 8;
                let n = (size - off).min(8);
                // Safety: writes exactly size_of::<T>() bytes into `out`.
                unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.add(off), n) };
            }
            if !self.seq.read_retry(start) {
                // Safety: all bytes of `out` were written from a value
                // published in one write section (validated by the seq).
                return unsafe { out.assume_init() };
            }
            crate::dsync::spin_loop();
        }
    }

    /// Replaces the value.
    pub fn write(&self, value: T) {
        let _w = self.writers.lock();
        self.seq.write_begin();
        self.store_words(&value);
        self.seq.write_end();
    }

    /// Read-modify-write under the writer mutex.
    pub fn update(&self, f: impl FnOnce(&mut T)) {
        let _w = self.writers.lock();
        let mut value = self.read();
        f(&mut value);
        self.seq.write_begin();
        self.store_words(&value);
        self.seq.write_end();
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for SeqCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SeqCell").field(&self.read()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn quiet_reads_do_not_retry() {
        let l = SeqLock::new();
        let s = l.read_begin();
        assert!(!l.read_retry(s));
    }

    #[test]
    fn write_invalidates_concurrent_read() {
        let l = SeqLock::new();
        let s = l.read_begin();
        {
            let _w = l.write();
        }
        assert!(l.read_retry(s));
        // A read started after the write is clean again.
        let s2 = l.read_begin();
        assert!(!l.read_retry(s2));
    }

    #[test]
    fn try_read_begin_declines_under_a_writer() {
        let l = SeqLock::new();
        let s = l.try_read_begin().expect("quiet");
        {
            let _w = l.write();
            assert_eq!(l.try_read_begin(), None);
        }
        assert!(l.read_retry(s));
        assert_eq!(l.try_read_begin(), Some(s + 2));
    }

    #[test]
    fn read_begin_waits_out_writers() {
        let l = Arc::new(SeqLock::new());
        let l2 = l.clone();
        let w = l.write();
        let h = std::thread::spawn(move || {
            let s = l2.read_begin();
            assert!(s & 1 == 0);
            s
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(w);
        let s = h.join().unwrap();
        assert!(!l.read_retry(s));
    }

    #[test]
    fn concurrent_writers_serialize() {
        let l = Arc::new(SeqLock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _w = l.write();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 threads × 100 writes × 2 increments each.
        assert_eq!(l.seq.raw(), 1600);
    }

    #[test]
    fn seqcell_round_trips_odd_sizes() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Odd {
            a: u64,
            b: u32,
            c: u8,
        }
        let c = SeqCell::new(Odd { a: 7, b: 8, c: 9 });
        assert_eq!(c.read(), Odd { a: 7, b: 8, c: 9 });
        c.write(Odd { a: 1, b: 2, c: 3 });
        assert_eq!(c.read(), Odd { a: 1, b: 2, c: 3 });
        c.update(|v| v.a = 100);
        assert_eq!(c.read().a, 100);
    }

    #[test]
    fn seqcell_readers_never_observe_torn_values() {
        // The two halves are kept equal by writers; a torn read would
        // surface as a mismatch.
        let c = Arc::new(SeqCell::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let c = c.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    for i in 1..20_000u64 {
                        c.write((i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                    }
                    stop.store(true, Ordering::SeqCst);
                });
            }
            for _ in 0..3 {
                let c = c.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (a, b) = c.read();
                        assert_eq!(b, a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    }
                });
            }
        });
    }
}
