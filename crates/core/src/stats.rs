//! Directory-cache statistics and space-overhead reporting.

use std::sync::atomic::Ordering;

pub use dc_obs::Counter;

dc_obs::counters! {
    /// Counters describing directory-cache behavior (`dcache` section).
    /// Every field is a striped [`Counter`] bumped on the relevant event;
    /// the evaluation harness reads them to compute hit rates and
    /// negative-dentry rates (Tables 1 and 2).
    pub struct DcacheStats = "dcache" rates(hit_rate, fastpath_rate, neg_hit_rate) {
        /// Path lookups requested of the VFS (one per path-based syscall).
        pub lookups,
        /// Fastpath attempts (optimized configuration only).
        pub fast_attempts,
        /// Fastpath successes: DLHT hit + PCC hit + valid seq.
        pub fast_hits,
        /// Fastpath successes that resolved to a negative dentry.
        pub fast_neg_hits,
        /// Fastpath failures at the DLHT (signature not present).
        pub fast_miss_dlht,
        /// Fastpath failures at the PCC (no memoized prefix check).
        pub fast_miss_pcc,
        /// PCC misses recovered by re-executing the prefix check over the
        /// in-memory ancestor chain instead of a full slowpath walk.
        pub fast_revalidations,
        /// Fastpath failures from version-counter mismatches.
        pub fast_miss_seq,
        /// Slowpath component-at-a-time walks.
        pub slow_walks,
        /// Total components stepped by slowpath walks.
        pub slow_steps,
        /// Slowpath retries due to concurrent rename (seqlock invalidation).
        pub slow_retries,
        /// Lock-free fastpath restarts from per-dentry seq mismatches (a
        /// writer republished a dentry snapshot mid-read).
        pub read_retries,
        /// Epoch pins taken by lock-free fastpath resolutions.
        pub epoch_pins,
        /// Lookups that terminated at a cached positive dentry.
        pub hit_positive,
        /// Lookups that terminated at a cached negative dentry.
        pub hit_negative,
        /// Lookups that had to call the low-level file system.
        pub miss_fs,
        /// Misses answered negatively *without* an FS call because the parent
        /// directory was complete (§5.1).
        pub complete_neg_avoided,
        /// Directories marked `DIR_COMPLETE`.
        pub complete_sets,
        /// Completeness claims broken by eviction.
        pub complete_breaks,
        /// `readdir` requests served from the dcache.
        pub readdir_cached,
        /// `readdir` requests forwarded to the file system.
        pub readdir_fs,
        /// Negative dentries created (all causes).
        pub neg_created,
        /// Deep negative dentries created (§5.2).
        pub neg_deep_created,
        /// Dentries evicted for space.
        pub evictions,
        /// Subtree shootdowns executed (rename/chmod/chown of directories).
        pub shootdowns,
        /// Dentries visited by shootdowns (the Figure 7 cost driver).
        pub shootdown_visits,
        /// Symlink alias dentries created (§4.2).
        pub symlink_aliases,
        /// Memory-pressure shrink operations ([`shrink_to_bytes`] calls that
        /// found work to do).
        ///
        /// [`shrink_to_bytes`]: crate::Dcache::shrink_to_bytes
        pub shrinks,
        /// Bytes reclaimed by memory-pressure shrinks.
        pub shrink_bytes_freed,
        /// Cold PCCs detached from their credential by the resident-PCC cap
        /// ([`pcc_max_resident`]).
        ///
        /// [`pcc_max_resident`]: crate::DcacheConfig::pcc_max_resident
        pub pcc_evictions,
        /// PCC instances detached by namespace teardown.
        pub pccs_detached,
        /// Mount namespaces torn down ([`retire_dlht`] + PCC detach).
        ///
        /// [`retire_dlht`]: crate::Dcache::retire_dlht
        pub ns_teardowns,
        /// Live DLHT entries retired with their namespace's table.
        pub teardown_entries,
        /// Warm-restart index checkpoints persisted to disk.
        pub warm_checkpoints,
        /// Index entries examined by warm-restart rehydration.
        pub warm_restart_attempts,
        /// Rehydrated dentries validated against the recovered tree and
        /// published into the dcache/DLHT.
        pub warm_restart_published,
        /// Index entries rejected by per-entry validation (stale name,
        /// missing inode, or a parent that was itself rejected).
        pub warm_restart_rejected,
        /// Warm restarts that fell back to an entirely cold cache (index
        /// absent, corrupt, wrong version, or bound to a future sequence).
        pub warm_restart_fallbacks,
    }
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
        assert!(s.counters().iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn snapshot_carries_names() {
        let s = DcacheStats::default();
        s.fast_hits.store(2, Ordering::Relaxed);
        let snap = s.counters();
        assert!(snap.contains(&("fast_hits".to_string(), 2)));
    }

    #[test]
    fn eight_threads_sum_exactly() {
        let s = DcacheStats::default();
        let go = std::sync::Barrier::new(8);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    go.wait();
                    for _ in 0..100_000 {
                        s.lookups.fetch_add(1, Ordering::Relaxed);
                        s.fast_hits.fetch_add(2, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(s.lookups.load(Ordering::Relaxed), 800_000);
        assert_eq!(s.fast_hits.load(Ordering::Relaxed), 1_600_000);
        assert_eq!(s.fast_attempts.load(Ordering::Relaxed), 0);
    }
}
