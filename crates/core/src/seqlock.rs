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
//! laid out in `coherence.rs`; the interleaving-level invariants are
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
}
