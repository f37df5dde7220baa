//! Memory-pressure shrinkers: Linux-`register_shrinker`-style callbacks
//! that reclaim cache memory down to a byte budget.
//!
//! The dcache is the canonical client ([`crate::Dcache`] implements
//! [`Shrinker`]): under pressure it LRU-evicts leaf dentries — which
//! drops their DLHT slots with them — and, if still over budget,
//! forgets PCC lines. Every reclaim path goes through the ordinary
//! coherence machinery (`unhash(reclaim = true)`: descendants before
//! ancestors, completeness breaks, DLHT removal *then* seq bump), so a
//! lock-free reader racing a shrink either validates a pre-eviction
//! snapshot or retries — never observes freed memory (the model test in
//! `crates/dst/tests/shrink_model.rs` explores those interleavings).

use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// A reclaimable cache. The two methods mirror the kernel's
/// `count_objects`/`scan_objects` split, in bytes rather than objects.
pub trait Shrinker: Send + Sync {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Approximate *reclaimable* footprint right now, in bytes. Fixed
    /// allocations that survive a full shrink (bucket arrays, pinned
    /// roots) are excluded — this is what `shrink` can actually get rid
    /// of.
    fn count_bytes(&self) -> u64;

    /// Reclaims toward a reclaimable footprint of at most
    /// `target_bytes`. Best effort (pinned objects stay); returns the
    /// bytes actually freed.
    fn shrink(&self, target_bytes: u64) -> u64;
}

/// Registered shrinkers, held weakly so registration never extends a
/// cache's lifetime (the kernel's `unregister_shrinker` is our `Drop`).
#[derive(Default)]
pub struct ShrinkerRegistry {
    entries: Mutex<Vec<Weak<dyn Shrinker>>>,
}

impl ShrinkerRegistry {
    pub fn new() -> ShrinkerRegistry {
        ShrinkerRegistry::default()
    }

    /// Registers a shrinker for future pressure events.
    pub fn register(&self, shrinker: Arc<dyn Shrinker>) {
        self.entries.lock().push(Arc::downgrade(&shrinker));
    }

    /// Live registered shrinkers.
    pub fn len(&self) -> usize {
        let mut entries = self.entries.lock();
        entries.retain(|w| w.strong_count() > 0);
        entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total reclaimable bytes across live shrinkers.
    pub fn count_bytes(&self) -> u64 {
        self.live().iter().map(|s| s.count_bytes()).sum()
    }

    /// Applies memory pressure: asks every live shrinker to reclaim so
    /// the *combined* reclaimable footprint fits `budget_bytes`, each
    /// shrinker targeting a share of the budget proportional to its
    /// current footprint. Returns total bytes freed.
    pub fn pressure(&self, budget_bytes: u64) -> u64 {
        let live = self.live();
        let counts: Vec<u64> = live.iter().map(|s| s.count_bytes()).collect();
        let total: u64 = counts.iter().sum();
        if total <= budget_bytes {
            return 0;
        }
        let mut freed = 0u64;
        for (shrinker, count) in live.iter().zip(&counts) {
            // Proportional share; u128 so total * budget cannot overflow.
            let target = if total == 0 {
                0
            } else {
                ((*count as u128) * (budget_bytes as u128) / (total as u128)) as u64
            };
            freed += shrinker.shrink(target);
        }
        freed
    }

    fn live(&self) -> Vec<Arc<dyn Shrinker>> {
        let mut entries = self.entries.lock();
        entries.retain(|w| w.strong_count() > 0);
        entries.iter().filter_map(|w| w.upgrade()).collect()
    }
}

impl std::fmt::Debug for ShrinkerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShrinkerRegistry")
            .field("registered", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct FakeCache {
        bytes: AtomicU64,
        floor: u64,
    }

    impl Shrinker for FakeCache {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn count_bytes(&self) -> u64 {
            self.bytes.load(Ordering::Relaxed)
        }
        fn shrink(&self, target: u64) -> u64 {
            let cur = self.bytes.load(Ordering::Relaxed);
            let next = target.max(self.floor).min(cur);
            self.bytes.store(next, Ordering::Relaxed);
            cur - next
        }
    }

    fn fake(bytes: u64, floor: u64) -> Arc<FakeCache> {
        Arc::new(FakeCache {
            bytes: AtomicU64::new(bytes),
            floor,
        })
    }

    #[test]
    fn no_pressure_under_budget() {
        let reg = ShrinkerRegistry::new();
        let c = fake(1000, 0);
        reg.register(c.clone());
        assert_eq!(reg.pressure(2000), 0);
        assert_eq!(c.count_bytes(), 1000);
    }

    #[test]
    fn pressure_splits_budget_proportionally() {
        let reg = ShrinkerRegistry::new();
        let big = fake(3000, 0);
        let small = fake(1000, 0);
        reg.register(big.clone());
        reg.register(small.clone());
        let freed = reg.pressure(1000);
        assert_eq!(freed, 3000);
        assert_eq!(big.count_bytes(), 750);
        assert_eq!(small.count_bytes(), 250);
    }

    #[test]
    fn pinned_floor_limits_reclaim() {
        let reg = ShrinkerRegistry::new();
        let c = fake(1000, 600);
        reg.register(c.clone());
        let freed = reg.pressure(100);
        assert_eq!(freed, 400);
        assert_eq!(c.count_bytes(), 600);
    }

    #[test]
    fn dropped_shrinkers_are_forgotten() {
        let reg = ShrinkerRegistry::new();
        let c = fake(1000, 0);
        reg.register(c.clone());
        assert_eq!(reg.len(), 1);
        drop(c);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.pressure(0), 0);
    }
}
