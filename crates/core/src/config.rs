//! Feature toggles: baseline ⇄ optimized ⇄ ablations.

use crate::dentry::Dentry;

/// Directory-cache configuration.
///
/// The defaults of [`DcacheConfig::baseline`] model the unmodified Linux
/// 3.14 dcache the paper compares against; [`DcacheConfig::optimized`]
/// enables every optimization from the paper. Individual flags support the
/// ablations in the evaluation (e.g. running the fastpath without deep
/// negative dentries reproduces the `neg-d` discussion in §6.1).
#[derive(Debug, Clone)]
pub struct DcacheConfig {
    /// Direct-lookup fastpath: DLHT + PCC + signatures (§3).
    pub fastpath: bool,
    /// Directory completeness caching (§5.1).
    pub dir_completeness: bool,
    /// Keep negative dentries after `unlink`/`rename`, even of in-use
    /// files (§5.2, "Renaming and Deletion").
    pub neg_on_unlink: bool,
    /// Create negative dentries on pseudo file systems (§5.2).
    pub neg_in_pseudo: bool,
    /// Deep negative dentries: negative children under negative dentries
    /// and `ENOTDIR` children under regular files (§5.2).
    pub deep_negative: bool,
    /// Plan 9 lexical dot-dot semantics instead of POSIX per-component
    /// re-checking (§4.2; compared in Figure 6).
    pub lexical_dotdot: bool,
    /// Negative dentries at all (all Linux versions have them; disabling
    /// approximates a much older kernel for the Figure 2 sweep).
    pub negative_dentries: bool,
    /// Force the slowpath to take per-dentry locks hand-over-hand instead
    /// of seqlock-validated shared reads (approximates pre-RCU-walk
    /// kernels in the Figure 2 sweep).
    pub lock_walk: bool,
    /// Prefix check cache size in bytes per credential (paper: 64 KB).
    pub pcc_bytes: usize,
    /// DLHT bucket count of the init namespace's table (paper: 2^16); must
    /// be a power of two ≤ 2^16. Every other namespace's table has at most
    /// 2^8 (DESIGN.md §14).
    pub dlht_buckets: usize,
    /// The cache's one bound, in bytes (default: 2^20 dentry structs'
    /// worth). A dentry allocation past the budget's worth of dentry
    /// structs evicts leaves back under it, and the resident PCCs'
    /// nominal bytes may take a sixteenth of it
    /// ([`Dcache::pcc_cap`](crate::Dcache::pcc_cap)), the one bound on
    /// PCC memory. Byte reclaim of dentries and their DLHT nodes is
    /// [`Dcache::shrink_to_bytes`](crate::Dcache::shrink_to_bytes), which
    /// memory pressure drives.
    pub mem_budget_bytes: usize,
    /// Signature hash key seed; `None` draws boot-time entropy.
    pub hash_seed: Option<u64>,
    /// Synthetic worst case for Figure 6: execute the fastpath but force
    /// a PCC miss, paying hash + DLHT probe + full slowpath every time.
    pub fastpath_always_miss: bool,
}

impl DcacheConfig {
    /// The unmodified-kernel comparison point (Linux 3.14 behavior).
    pub fn baseline() -> Self {
        DcacheConfig {
            fastpath: false,
            dir_completeness: false,
            neg_on_unlink: false,
            neg_in_pseudo: false,
            deep_negative: false,
            lexical_dotdot: false,
            negative_dentries: true,
            lock_walk: false,
            pcc_bytes: 64 * 1024,
            dlht_buckets: 1 << 16,
            mem_budget_bytes: (1 << 20) * size_of::<Dentry>(),
            hash_seed: None,
            fastpath_always_miss: false,
        }
    }

    /// Every optimization from the paper enabled.
    pub fn optimized() -> Self {
        DcacheConfig {
            fastpath: true,
            dir_completeness: true,
            neg_on_unlink: true,
            neg_in_pseudo: true,
            deep_negative: true,
            ..Self::baseline()
        }
    }

    /// Optimized, with Plan 9 lexical dot-dot semantics (the `*` variants
    /// in Figure 6).
    pub fn optimized_lexical() -> Self {
        DcacheConfig {
            lexical_dotdot: true,
            ..Self::optimized()
        }
    }

    /// The Figure 6 "fastpath miss + slowpath" synthetic.
    pub fn optimized_always_miss() -> Self {
        DcacheConfig {
            fastpath_always_miss: true,
            ..Self::optimized()
        }
    }

    /// Approximates a pre-RCU-walk kernel (hand-over-hand locking on every
    /// lookup) for the Figure 2 version sweep.
    pub fn legacy_lock_walk() -> Self {
        DcacheConfig {
            lock_walk: true,
            ..Self::baseline()
        }
    }

    /// Fixes the signature hash seed (tests).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.hash_seed = Some(seed);
        self
    }

    /// Caps the dentry cache at `dentries` dentry structs' worth of budget
    /// (eviction experiments).
    pub fn with_capacity(self, dentries: usize) -> Self {
        self.with_mem_budget(dentries * size_of::<Dentry>())
    }

    /// Sets the cache's byte budget (memory-pressure experiments).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget_bytes = bytes;
        self
    }

    /// Validates invariants (power-of-two tables, sane sizes).
    pub fn validate(&self) -> Result<(), String> {
        if !self.dlht_buckets.is_power_of_two() || self.dlht_buckets > (1 << 16) {
            return Err(format!(
                "dlht_buckets must be a power of two ≤ 65536, got {}",
                self.dlht_buckets
            ));
        }
        if self.pcc_bytes < 1024 {
            return Err(format!("pcc_bytes too small: {}", self.pcc_bytes));
        }
        if self.mem_budget_bytes < 16 * size_of::<Dentry>() {
            return Err(format!(
                "mem_budget_bytes holds fewer than 16 dentries: {}",
                self.mem_budget_bytes
            ));
        }
        Ok(())
    }
}

impl Default for DcacheConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let b = DcacheConfig::baseline();
        let o = DcacheConfig::optimized();
        assert!(!b.fastpath && o.fastpath);
        assert!(!b.dir_completeness && o.dir_completeness);
        assert!(b.negative_dentries && o.negative_dentries);
        assert!(!o.lexical_dotdot);
        assert!(DcacheConfig::optimized_lexical().lexical_dotdot);
        assert!(DcacheConfig::legacy_lock_walk().lock_walk);
        // The knob census. Exhaustive on purpose (no `..`): a new field
        // fails to compile here, and belongs only if two workloads that
        // exist today want different values for it.
        let DcacheConfig {
            fastpath,
            dir_completeness,
            neg_on_unlink,
            neg_in_pseudo,
            deep_negative,
            lexical_dotdot,
            negative_dentries,
            lock_walk,
            pcc_bytes,
            dlht_buckets,
            mem_budget_bytes,
            hash_seed,
            fastpath_always_miss,
        } = DcacheConfig::optimized();
        assert!(fastpath && dir_completeness && neg_on_unlink && neg_in_pseudo && deep_negative);
        assert!(negative_dentries && !lexical_dotdot && !lock_walk && !fastpath_always_miss);
        assert_eq!((pcc_bytes, dlht_buckets), (64 << 10, 1 << 16));
        assert_eq!(mem_budget_bytes, (1 << 20) * size_of::<Dentry>());
        assert_eq!(hash_seed, None);
    }

    #[test]
    fn validation_catches_bad_tables() {
        let mut c = DcacheConfig::baseline();
        assert!(c.validate().is_ok());
        c.dlht_buckets = 1000;
        assert!(c.validate().is_err());
        c.dlht_buckets = 1 << 17;
        assert!(c.validate().is_err());
        c.dlht_buckets = 1 << 10;
        assert!(c.validate().is_ok());
        c.pcc_bytes = 8;
        assert!(c.validate().is_err());
        c.pcc_bytes = 64 * 1024;
        c.mem_budget_bytes = 100;
        assert!(c.validate().is_err());
        c.mem_budget_bytes = 64 * 1024;
        assert!(c.validate().is_ok());
    }
}
