//! Directory-cache statistics and space-overhead reporting.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Stripes per counter group. Threads are dealt stripes round-robin, so
/// up to this many counting threads never write a line another one
/// writes; beyond that, stripes are shared and counts stay exact.
const STRIPES: usize = 8;

/// Counters per cache line.
const LINE_CELLS: usize = 8;

#[repr(align(64))]
struct Line([AtomicU64; LINE_CELLS]);

thread_local! {
    /// The calling thread's stripe, dealt the first time it counts.
    static STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

/// A statistics counter that threads bump without sharing a cache line
/// (the per-CPU counter of a kernel). Counters are made in groups; a
/// group's storage is a few stripes, each holding every counter of
/// the group side by side on cache lines no other stripe occupies.
/// `fetch_add` goes to the calling thread's stripe, `load` sums the
/// stripes, `store` overwrites them all. The `Ordering` parameters keep
/// call sites source-compatible with `AtomicU64`; a statistic orders
/// nothing, so `Relaxed` is all they need.
pub struct Counter {
    /// The group's cells, stripe-major: `STRIPES` runs of whole lines.
    lines: Arc<[Line]>,
    /// This counter's cell within each stripe.
    idx: usize,
}

impl Counter {
    /// `N` zeroed counters over one set of stripes, so a thread that
    /// bumps several of them per event dirties one or two lines of its
    /// own, and the group costs ⌈`N`/8⌉ lines per stripe.
    pub fn group<const N: usize>() -> [Counter; N] {
        let lines: Arc<[Line]> = (0..STRIPES * N.div_ceil(LINE_CELLS))
            .map(|_| Line(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect();
        std::array::from_fn(|idx| Counter {
            lines: lines.clone(),
            idx,
        })
    }

    #[inline]
    fn cell(&self, stripe: usize) -> &AtomicU64 {
        let lines_per_stripe = self.lines.len() / STRIPES;
        let line = stripe * lines_per_stripe + self.idx / LINE_CELLS;
        &self.lines[line].0[self.idx % LINE_CELLS]
    }

    /// Adds `n` on the calling thread's stripe.
    #[inline]
    pub fn fetch_add(&self, n: u64, order: Ordering) {
        self.cell(STRIPE.with(|s| *s)).fetch_add(n, order);
    }

    /// The counter's value: the sum of its stripes.
    pub fn load(&self, order: Ordering) -> u64 {
        (0..STRIPES).fold(0u64, |sum, s| sum.wrapping_add(self.cell(s).load(order)))
    }

    /// Sets the counter to `v` (zero resets every stripe).
    pub fn store(&self, v: u64, order: Ordering) {
        self.cell(0).store(v, order);
        for s in 1..STRIPES {
            self.cell(s).store(0, order);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.load(Ordering::Relaxed).fmt(f)
    }
}

macro_rules! counters {
    ($($(#[$sm:meta])* $name:ident),* $(,)?) => {
        /// Counters describing directory-cache behavior. Every field is a
        /// striped [`Counter`] bumped on the relevant event; the evaluation
        /// harness snapshots them to compute hit rates and negative-dentry
        /// rates (Tables 1 and 2).
        #[derive(Debug)]
        pub struct DcacheStats {
            $($(#[$sm])* pub $name: Counter,)*
        }

        impl Default for DcacheStats {
            fn default() -> Self {
                let [$($name),*] = Counter::group();
                DcacheStats { $($name),* }
            }
        }

        impl DcacheStats {
            /// Resets every counter to zero.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            /// Snapshot as `(name, value)` pairs, for reports.
            pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name.load(Ordering::Relaxed)),)*]
            }
        }
    };
}

counters! {
    /// Path lookups requested of the VFS (one per path-based syscall).
    lookups,
    /// Fastpath attempts (optimized configuration only).
    fast_attempts,
    /// Fastpath successes: DLHT hit + PCC hit + valid seq.
    fast_hits,
    /// Fastpath successes that resolved to a negative dentry.
    fast_neg_hits,
    /// Fastpath failures at the DLHT (signature not present).
    fast_miss_dlht,
    /// Fastpath failures at the PCC (no memoized prefix check).
    fast_miss_pcc,
    /// PCC misses recovered by re-executing the prefix check over the
    /// in-memory ancestor chain instead of a full slowpath walk.
    fast_revalidations,
    /// Fastpath failures from version-counter mismatches.
    fast_miss_seq,
    /// Slowpath component-at-a-time walks.
    slow_walks,
    /// Total components stepped by slowpath walks.
    slow_steps,
    /// Slowpath retries due to concurrent rename (seqlock invalidation).
    slow_retries,
    /// Lock-free fastpath restarts from per-dentry seq mismatches (a
    /// writer republished a dentry snapshot mid-read).
    read_retries,
    /// Epoch pins taken by lock-free fastpath resolutions.
    epoch_pins,
    /// Lookups that terminated at a cached positive dentry.
    hit_positive,
    /// Lookups that terminated at a cached negative dentry.
    hit_negative,
    /// Lookups that had to call the low-level file system.
    miss_fs,
    /// Misses answered negatively *without* an FS call because the parent
    /// directory was complete (§5.1).
    complete_neg_avoided,
    /// Directories marked `DIR_COMPLETE`.
    complete_sets,
    /// Completeness claims broken by eviction.
    complete_breaks,
    /// `readdir` requests served from the dcache.
    readdir_cached,
    /// `readdir` requests forwarded to the file system.
    readdir_fs,
    /// Negative dentries created (all causes).
    neg_created,
    /// Deep negative dentries created (§5.2).
    neg_deep_created,
    /// Dentries evicted for space.
    evictions,
    /// Subtree shootdowns executed (rename/chmod/chown of directories).
    shootdowns,
    /// Dentries visited by shootdowns (the Figure 7 cost driver).
    shootdown_visits,
    /// Symlink alias dentries created (§4.2).
    symlink_aliases,
    /// Memory-pressure shrink operations ([`shrink_to_bytes`] calls that
    /// found work to do).
    ///
    /// [`shrink_to_bytes`]: crate::Dcache::shrink_to_bytes
    shrinks,
    /// Bytes reclaimed by memory-pressure shrinks.
    shrink_bytes_freed,
    /// Cold PCCs detached from their credential by the resident-PCC cap
    /// ([`pcc_max_resident`]).
    ///
    /// [`pcc_max_resident`]: crate::DcacheConfig::pcc_max_resident
    pcc_evictions,
    /// PCC instances detached by namespace teardown.
    pccs_detached,
    /// Mount namespaces torn down ([`retire_dlht`] + PCC detach).
    ///
    /// [`retire_dlht`]: crate::Dcache::retire_dlht
    ns_teardowns,
    /// Live DLHT entries retired with their namespace's table.
    teardown_entries,
    /// Warm-restart index checkpoints persisted to disk.
    warm_checkpoints,
    /// Index entries examined by warm-restart rehydration.
    warm_restart_attempts,
    /// Rehydrated dentries validated against the recovered tree and
    /// published into the dcache/DLHT.
    warm_restart_published,
    /// Index entries rejected by per-entry validation (stale name,
    /// missing inode, or a parent that was itself rejected).
    warm_restart_rejected,
    /// Warm restarts that fell back to an entirely cold cache (index
    /// absent, corrupt, wrong version, or bound to a future sequence).
    warm_restart_fallbacks,
}

impl DcacheStats {
    /// Overall hit rate: fraction of lookups that never called the file
    /// system (the `hit%` column of Tables 1–2).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups.load(Ordering::Relaxed);
        if lookups == 0 {
            return 0.0;
        }
        let miss = self.miss_fs.load(Ordering::Relaxed);
        // Multi-component paths can miss more than once per lookup; floor
        // the rate at zero for reporting.
        (1.0 - (miss as f64 / lookups as f64)).max(0.0)
    }

    /// Fraction of fastpath attempts that succeeded outright (DLHT hit +
    /// PCC hit + valid seq). Zero when the fastpath never ran (baseline
    /// configurations).
    pub fn fastpath_rate(&self) -> f64 {
        let attempts = self.fast_attempts.load(Ordering::Relaxed);
        if attempts == 0 {
            return 0.0;
        }
        self.fast_hits.load(Ordering::Relaxed) as f64 / attempts as f64
    }

    /// Fraction of lookups answered by a negative dentry (the `neg%`
    /// column of Tables 1–2).
    pub fn neg_hit_rate(&self) -> f64 {
        let lookups = self.lookups.load(Ordering::Relaxed);
        if lookups == 0 {
            return 0.0;
        }
        let neg = self.hit_negative.load(Ordering::Relaxed)
            + self.fast_neg_hits.load(Ordering::Relaxed)
            + self.complete_neg_avoided.load(Ordering::Relaxed);
        neg as f64 / lookups as f64
    }
}

/// Space-overhead summary (§6.1, "Space Overhead").
#[derive(Debug, Clone, Copy)]
pub struct SpaceReport {
    /// `size_of::<Dentry>()` in this implementation.
    pub dentry_bytes: usize,
    /// Live (hashed) dentries.
    pub live_dentries: u64,
    /// DLHT footprint across namespaces, bytes.
    pub dlht_bytes: usize,
    /// Exact size of one DLHT bucket head (an epoch-managed atomic
    /// group pointer).
    pub dlht_bucket_bytes: usize,
    /// Exact size of one DLHT bucket group (tag array +
    /// count + overflow pointer + inline slots, cache-line aligned).
    pub dlht_group_bytes: usize,
    /// Total DLHT buckets across namespaces.
    pub dlht_buckets: usize,
    /// Total DLHT bucket groups across namespaces.
    pub dlht_groups: u64,
    /// Live DLHT entries across namespaces, walked.
    pub dlht_entries: u64,
    /// Bytes held by the snapshot slab arena (blocks, walked — includes
    /// free slots awaiting reuse).
    pub snap_slab_bytes: usize,
    /// Per-credential PCC footprint, bytes.
    pub pcc_bytes_each: usize,
    /// Live PCC instances.
    pub pccs: usize,
}

impl std::fmt::Display for SpaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "dentry size:      {} bytes", self.dentry_bytes)?;
        writeln!(f, "live dentries:    {}", self.live_dentries)?;
        writeln!(f, "DLHT footprint:   {} bytes", self.dlht_bytes)?;
        writeln!(
            f,
            "  buckets:        {} x {} bytes",
            self.dlht_buckets, self.dlht_bucket_bytes
        )?;
        writeln!(
            f,
            "  bucket groups:  {} x {} bytes",
            self.dlht_groups, self.dlht_group_bytes
        )?;
        writeln!(f, "  entries:        {}", self.dlht_entries)?;
        writeln!(f, "snap slab:        {} bytes", self.snap_slab_bytes)?;
        writeln!(f, "PCC (each):       {} bytes", self.pcc_bytes_each)?;
        write!(f, "PCC instances:    {}", self.pccs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_compute_from_counters() {
        let s = DcacheStats::default();
        s.lookups.store(100, Ordering::Relaxed);
        s.miss_fs.store(10, Ordering::Relaxed);
        s.hit_negative.store(5, Ordering::Relaxed);
        s.fast_neg_hits.store(15, Ordering::Relaxed);
        s.fast_attempts.store(80, Ordering::Relaxed);
        s.fast_hits.store(60, Ordering::Relaxed);
        assert!((s.hit_rate() - 0.9).abs() < 1e-9);
        assert!((s.neg_hit_rate() - 0.2).abs() < 1e-9);
        assert!((s.fastpath_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_lookups_yield_zero_rates() {
        let s = DcacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.neg_hit_rate(), 0.0);
        assert_eq!(s.fastpath_rate(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let s = DcacheStats::default();
        s.lookups.store(5, Ordering::Relaxed);
        s.evictions.store(3, Ordering::Relaxed);
        s.reset();
        assert!(s.snapshot().iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn snapshot_carries_names() {
        let s = DcacheStats::default();
        s.fast_hits.store(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert!(snap.contains(&("fast_hits", 2)));
    }

    /// Both exporters print the snapshot as it comes: the names and their
    /// order are the metrics schema.
    #[test]
    fn snapshot_keeps_its_names_and_order() {
        let s = DcacheStats::default();
        s.lookups.store(1, Ordering::Relaxed);
        s.epoch_pins.store(2, Ordering::Relaxed);
        s.warm_restart_fallbacks.store(3, Ordering::Relaxed);
        let snap = s.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        #[rustfmt::skip]
        assert_eq!(names, [
            "lookups", "fast_attempts", "fast_hits", "fast_neg_hits", "fast_miss_dlht",
            "fast_miss_pcc", "fast_revalidations", "fast_miss_seq", "slow_walks", "slow_steps",
            "slow_retries", "read_retries", "epoch_pins", "hit_positive", "hit_negative",
            "miss_fs", "complete_neg_avoided", "complete_sets", "complete_breaks",
            "readdir_cached", "readdir_fs", "neg_created", "neg_deep_created", "evictions",
            "shootdowns", "shootdown_visits", "symlink_aliases", "shrinks", "shrink_bytes_freed",
            "pcc_evictions", "pccs_detached", "ns_teardowns", "teardown_entries",
            "warm_checkpoints", "warm_restart_attempts", "warm_restart_published",
            "warm_restart_rejected", "warm_restart_fallbacks",
        ]);
        let values: Vec<u64> = snap.iter().map(|(_, v)| *v).collect();
        assert_eq!((values[0], values[12], values[names.len() - 1]), (1, 2, 3));
        assert_eq!(
            values.iter().sum::<u64>(),
            6,
            "a store reaches no neighbour"
        );
    }

    /// `threads` threads, released together, each adding 1 to `a` and 2
    /// to `b` `each` times.
    fn hammer(a: &Counter, b: &Counter, threads: usize, each: u64) {
        let go = std::sync::Barrier::new(threads);
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(|| {
                    go.wait();
                    for _ in 0..each {
                        a.fetch_add(1, Ordering::Relaxed);
                        b.fetch_add(2, Ordering::Relaxed);
                    }
                });
            }
        });
    }

    #[test]
    fn eight_threads_sum_exactly() {
        let s = DcacheStats::default();
        hammer(&s.lookups, &s.fast_hits, 8, 100_000);
        assert_eq!(s.lookups.load(Ordering::Relaxed), 800_000);
        assert_eq!(s.fast_hits.load(Ordering::Relaxed), 1_600_000);
        assert_eq!(s.fast_attempts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn more_threads_than_stripes_still_count_exactly() {
        let [a, b] = Counter::group();
        hammer(&a, &b, 3 * STRIPES, 20_000);
        assert_eq!(a.load(Ordering::Relaxed), 3 * STRIPES as u64 * 20_000);
        assert_eq!(b.load(Ordering::Relaxed), 3 * STRIPES as u64 * 40_000);
    }

    #[test]
    fn reset_zeroes_every_stripe() {
        let s = DcacheStats::default();
        for i in 0..STRIPES {
            s.lookups.cell(i).store(5, Ordering::Relaxed);
            s.warm_restart_fallbacks.cell(i).store(7, Ordering::Relaxed);
        }
        assert_eq!(s.lookups.load(Ordering::Relaxed), 5 * STRIPES as u64);
        s.reset();
        for i in 0..STRIPES {
            assert_eq!(s.lookups.cell(i).load(Ordering::Relaxed), 0);
            assert_eq!(s.warm_restart_fallbacks.cell(i).load(Ordering::Relaxed), 0);
        }
        assert!(s.snapshot().iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn stripes_do_not_share_cache_lines() {
        let [a, _b, _c] = Counter::group();
        assert_eq!(std::mem::align_of::<Line>(), 64);
        let (s0, s1) = (a.cell(0) as *const AtomicU64, a.cell(1) as *const AtomicU64);
        assert_eq!(s0 as usize % 64, 0);
        assert_eq!(s1 as usize - s0 as usize, 64);
        // 38 dcache counters: five lines per stripe, 2.5 KiB in all.
        let s = DcacheStats::default();
        assert_eq!(s.lookups.lines.len() * 64, STRIPES * 5 * 64);
    }
}
