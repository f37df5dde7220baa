//! LRU bookkeeping for dentry eviction.
//!
//! Linux evicts dentries bottom-up along the hierarchy to preserve the
//! invariant that every cached dentry's ancestors are cached (§2.2). The
//! same invariant holds here structurally: only *leaf* dentries (no cached
//! children) with no external references are evictable, so repeated scans
//! peel a subtree from the bottom.

use crate::dentry::Dentry;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Decision returned by an eviction callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictOutcome {
    /// The dentry was evicted; drop it from the queue.
    Evicted,
    /// Keep the dentry cached; rotate it to the back of the queue.
    Keep,
}

/// Sharded FIFO-with-rotation queue of eviction candidates.
///
/// Recency is approximated by use, not by time: a lookup touches no
/// queue state (relocating nodes on every hit would serialize the read
/// path), and the scan rotates to the back every candidate its callback
/// keeps — one that is still referenced or still has cached children. A
/// second-chance FIFO rather than a true LRU.
///
/// Every allocation queues a candidate, but a dentry can be freed without
/// a scan (unlink, rename over it, an unhashed subtree), and its `Weak`
/// keeps the freed dentry's allocation alive. So a shard drops its dead
/// candidates once it has doubled since it last did: amortized O(1) per
/// insert, a queue at most about twice the live candidates, and the live
/// ones left in their order — a scan sees exactly what it saw before.
pub struct DentryLru {
    shards: Vec<Mutex<Shard>>,
    next_insert: AtomicUsize,
    next_scan: AtomicUsize,
}

/// Shorter shards are never swept.
const MIN_SWEEP: usize = 64;

#[derive(Default)]
struct Shard {
    queue: VecDeque<Weak<Dentry>>,
    /// Queue length after the last sweep.
    swept: usize,
}

impl DentryLru {
    /// A queue with `shards` independent lock domains.
    pub fn new(shards: usize) -> DentryLru {
        DentryLru {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            next_insert: AtomicUsize::new(0),
            next_scan: AtomicUsize::new(0),
        }
    }

    /// Registers a dentry as an eviction candidate.
    pub fn insert(&self, d: &Arc<Dentry>) {
        let i = self.next_insert.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = self.shards[i].lock();
        shard.queue.push_back(Arc::downgrade(d));
        if shard.queue.len() >= 2 * shard.swept.max(MIN_SWEEP) {
            shard.queue.retain(|w| w.strong_count() > 0);
            shard.swept = shard.queue.len();
        }
    }

    /// Total queued candidates (including dead weak entries).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().queue.len()).sum()
    }

    /// Scans up to `max_scan` candidates in approximate LRU order,
    /// invoking `decide` on each live one, and stops once `max_evict`
    /// were evicted. Returns how many were evicted.
    pub fn scan(
        &self,
        max_scan: usize,
        max_evict: usize,
        mut decide: impl FnMut(&Arc<Dentry>) -> EvictOutcome,
    ) -> usize {
        let mut evicted = 0;
        let mut scanned = 0;
        let nshards = self.shards.len();
        let start = self.next_scan.fetch_add(1, Ordering::Relaxed);
        'outer: for off in 0..nshards {
            let shard = &self.shards[(start + off) % nshards];
            let mut shard = shard.lock();
            let q = &mut shard.queue;
            let mut rotations = q.len();
            while scanned < max_scan && evicted < max_evict && rotations > 0 {
                let Some(weak) = q.pop_front() else { break };
                rotations -= 1;
                let Some(d) = weak.upgrade() else {
                    continue; // dentry already gone
                };
                if d.is_dead() {
                    continue; // unhashed elsewhere; drop from queue
                }
                scanned += 1;
                match decide(&d) {
                    EvictOutcome::Evicted => evicted += 1,
                    EvictOutcome::Keep => q.push_back(Arc::downgrade(&d)),
                }
            }
            // The next sweep comes at twice what the scan left.
            shard.swept = shard.swept.min(shard.queue.len());
            if scanned >= max_scan || evicted >= max_evict {
                break 'outer;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dentry::{DentryState, NegKind};

    fn dentry(id: u64) -> Arc<Dentry> {
        Dentry::new(id, 1, "x", None, DentryState::Negative(NegKind::Enoent), 0)
    }

    #[test]
    fn scan_visits_in_insertion_order() {
        let lru = DentryLru::new(1);
        let keep: Vec<_> = (0..5).map(dentry).collect();
        for d in &keep {
            lru.insert(d);
        }
        let mut seen = Vec::new();
        lru.scan(10, usize::MAX, |d| {
            seen.push(d.id());
            EvictOutcome::Keep
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn evicted_entries_leave_the_queue() {
        let lru = DentryLru::new(1);
        let keep: Vec<_> = (0..4).map(dentry).collect();
        for d in &keep {
            lru.insert(d);
        }
        let n = lru.scan(10, usize::MAX, |d| {
            if d.id() % 2 == 0 {
                EvictOutcome::Evicted
            } else {
                EvictOutcome::Keep
            }
        });
        assert_eq!(n, 2);
        let mut rest = Vec::new();
        lru.scan(10, usize::MAX, |d| {
            rest.push(d.id());
            EvictOutcome::Keep
        });
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn dropped_dentries_are_skipped() {
        let lru = DentryLru::new(1);
        {
            let d = dentry(7);
            lru.insert(&d);
        }
        let live = dentry(8);
        lru.insert(&live);
        let mut seen = Vec::new();
        lru.scan(10, usize::MAX, |d| {
            seen.push(d.id());
            EvictOutcome::Keep
        });
        assert_eq!(seen, vec![8]);
    }

    #[test]
    fn dead_flag_purges_without_callback() {
        let lru = DentryLru::new(1);
        let d = dentry(9);
        lru.insert(&d);
        d.set_flag(crate::dentry::FLAG_DEAD);
        let mut called = false;
        lru.scan(10, usize::MAX, |_| {
            called = true;
            EvictOutcome::Keep
        });
        assert!(!called);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn scan_respects_max_scan() {
        let lru = DentryLru::new(1);
        let keep: Vec<_> = (0..10).map(dentry).collect();
        for d in &keep {
            lru.insert(d);
        }
        let mut seen = 0;
        lru.scan(3, usize::MAX, |_| {
            seen += 1;
            EvictOutcome::Keep
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn scan_stops_at_max_evict() {
        let lru = DentryLru::new(2);
        let keep: Vec<_> = (0..10).map(dentry).collect();
        for d in &keep {
            lru.insert(d);
        }
        let mut seen = 0;
        let n = lru.scan(100, 4, |_| {
            seen += 1;
            EvictOutcome::Evicted
        });
        assert_eq!((n, seen), (4, 4));
    }
}
