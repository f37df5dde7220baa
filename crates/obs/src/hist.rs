//! Log-linear latency histograms (HDR style).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two group: 2^5 = 32, giving ≤ 1/32
/// (~3.1%) relative bucket width everywhere above the linear range.
const SUB_BITS: u32 = 5;
/// Sub-buckets per group.
const SUBS: usize = 1 << SUB_BITS;
/// Power-of-two groups. Group 0 covers `[0, 32)` linearly; group `g ≥ 1`
/// covers `[2^(g+4), 2^(g+5))`. The top group's buckets reach `u64::MAX`.
const GROUPS: usize = 64 - SUB_BITS as usize + 1;
/// Total bucket count (60 × 32 = 1920 cells ≈ 15 KiB per histogram).
const BUCKETS: usize = GROUPS * SUBS;

/// Bucket index for a value. Group 0 is the identity on `[0, 32)`; above
/// that, the group is chosen by the most significant bit and the
/// sub-bucket by the next `SUB_BITS` bits.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUBS - 1);
    group * SUBS + sub
}

/// Lowest value mapping to bucket `idx`.
fn bucket_low(idx: usize) -> u64 {
    let group = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    if group == 0 {
        return sub;
    }
    (1u64 << (group as u32 + SUB_BITS - 1)) + (sub << (group - 1))
}

/// Highest value mapping to bucket `idx`.
fn bucket_high(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_low(idx + 1) - 1
}

/// A lock-free log-linear histogram of nanosecond latencies.
///
/// `record` is one atomic add on a cell chosen by bit arithmetic —
/// safe to call concurrently from any number of threads. Histograms
/// merge cell-wise, so per-thread instances can be combined into one.
/// Percentiles come back as the upper bound of the selected bucket
/// (clamped to the exact observed maximum), giving a relative error of
/// at most one sub-bucket width (1/32) above the linear range and
/// exact values below it.
pub struct LatencyHist {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (nanoseconds).
    #[inline]
    pub fn record(&self, ns: u64) {
        self.counts[index_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]`: the smallest bucket whose
    /// cumulative count reaches `ceil(q × count)` samples, reported as
    /// that bucket's upper bound (clamped to the observed maximum).
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (idx, cell) in self.counts.iter().enumerate() {
            cum += cell.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_high(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Adds every cell of `other` into `self` (cross-thread merge).
    ///
    /// Because the buckets are fixed and identical across instances,
    /// merging per-thread histograms is lossless: quantiles of the
    /// merged histogram equal those of a single histogram that had
    /// recorded every sample directly. `other` is unchanged, so workers
    /// can keep recording into their own instance while a snapshot
    /// aggregates — no locking on the record path.
    pub fn merge_from(&self, other: &LatencyHist) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for cell in self.counts.iter() {
            cell.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the headline statistics.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            mean_ns: self.mean(),
            p50_ns: self.percentile(0.50),
            p90_ns: self.percentile(0.90),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
            max_ns: self.max(),
        }
    }
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHist")
            .field("count", &self.count())
            .field("mean_ns", &self.mean())
            .field("max_ns", &self.max())
            .finish()
    }
}

/// Headline statistics extracted from a [`LatencyHist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_tile_the_u64_line() {
        // Every bucket's low is the previous bucket's high + 1, with no
        // gaps or overlaps, and values map into their own bucket.
        for idx in 1..BUCKETS {
            assert_eq!(bucket_low(idx), bucket_high(idx - 1) + 1, "idx {idx}");
        }
        for idx in 0..BUCKETS {
            assert_eq!(index_of(bucket_low(idx)), idx, "low of {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(index_of(bucket_high(idx)), idx, "high of {idx}");
            }
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHist::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.percentile(1.0 / 64.0), 0);
        assert_eq!(h.percentile(1.0), 31);
        assert_eq!(h.max(), 31);
        assert!((h.mean() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes() {
        let h = LatencyHist::new();
        h.record(12345);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary().max_ns, 0);
    }

    #[test]
    fn percentile_bounded_by_bucket_width() {
        let h = LatencyHist::new();
        let v = 1_000_000u64;
        for _ in 0..100 {
            h.record(v);
        }
        let p = h.percentile(0.5);
        assert!(p >= v, "upper-bound convention: {p} < {v}");
        assert!(p as f64 <= v as f64 * (1.0 + 1.0 / 32.0) + 1.0);
    }

    #[test]
    fn merged_quantiles_match_single_combined_histogram() {
        // Three per-worker histograms vs one histogram fed every sample:
        // identical buckets make the merge lossless, so every headline
        // statistic must match exactly.
        let combined = LatencyHist::new();
        let workers: Vec<LatencyHist> = (0..3).map(|_| LatencyHist::new()).collect();
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..30_000u64 {
            // splitmix64 keeps the sample spread across many groups.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let sample = (z ^ (z >> 31)) % 50_000_000;
            combined.record(sample);
            workers[(i % 3) as usize].record(sample);
        }
        let merged = LatencyHist::new();
        for w in &workers {
            merged.merge_from(w);
        }
        assert_eq!(merged.count(), combined.count());
        assert_eq!(merged.max(), combined.max());
        assert!((merged.mean() - combined.mean()).abs() < 1e-6);
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.percentile(q),
                combined.percentile(q),
                "quantile {q} diverges after merge"
            );
        }
        assert_eq!(merged.summary(), combined.summary());
        // The merge source is untouched and still usable.
        assert_eq!(workers[0].count(), 10_000);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(LatencyHist::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
