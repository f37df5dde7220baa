//! Power-cut surface: deterministic crash-point capture on the device
//! write stream.
//!
//! A [`CrashMonitor`] attaches to a [`RawDisk`](crate::RawDisk) and
//! watches the stream of *flushed* writes (writes that actually reach
//! the device — page-cache residency is invisible here, which is the
//! point: a power cut loses exactly what the cache never flushed). At
//! each scheduled write ordinal it captures a [`CrashImage`]: a snapshot
//! of the raw block contents at that instant, optionally with the
//! in-flight write *torn* (half old bytes, half new — the classic
//! interrupted-sector failure the journal's checksummed commit record
//! must detect).
//!
//! Snapshots are cheap: the device stores blocks as refcounted
//! [`Bytes`], so cloning the map shares every payload. A 200-point
//! campaign costs ~200 map clones, not 200 disk copies.
//!
//! Crash-point enumeration is deterministic: [`CrashMonitor::sample`]
//! draws `count` distinct write ordinals from a seeded splitmix64
//! stream, so `repro crash --seed N` replays the exact same cut points
//! every run.

use bytes::Bytes;
use dc_fault::SplitMix64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The durable state of the device at one power-cut instant.
///
/// Everything the machine would find on disk after the plug was pulled:
/// flushed blocks only, with the single in-flight write optionally torn.
/// Rehydrate with [`CachedDisk::from_image`](crate::CachedDisk::from_image)
/// to remount and inspect.
pub struct CrashImage {
    /// 1-based ordinal of the flushed write at which power was cut
    /// (counted from the monitor's arming).
    pub cut_at_write: u64,
    /// Block whose in-flight write was torn by the cut, if any. The
    /// snapshot holds the first half of the new data and the second
    /// half of the old — a write the device acknowledged never started.
    pub torn_block: Option<u64>,
    pub(crate) block_size: usize,
    pub(crate) capacity_blocks: u64,
    pub(crate) blocks: HashMap<u64, Bytes>,
}

impl CrashImage {
    /// Device block size captured in this image.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Device capacity captured in this image.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of blocks that had ever been flushed at the cut.
    pub fn written_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// XORs one byte of the captured image at (`block`, `offset`) with
    /// `mask` — the corruption-campaign primitive: bit rot injected
    /// *after* the power cut, before remount. A block the cut never
    /// flushed is materialized as zeros first (it reads as zeros either
    /// way, so the flip is still visible to the mounter). A zero `mask`
    /// is forced to `0x01` so every call really corrupts. Returns
    /// `false` (and changes nothing) when the target is out of range.
    pub fn corrupt_byte(&mut self, block: u64, offset: usize, mask: u8) -> bool {
        if block >= self.capacity_blocks || offset >= self.block_size {
            return false;
        }
        let mut data = self
            .blocks
            .get(&block)
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; self.block_size]);
        data[offset] ^= if mask == 0 { 0x01 } else { mask };
        self.blocks.insert(block, Bytes::from(data));
        true
    }
}

impl std::fmt::Debug for CrashImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashImage")
            .field("cut_at_write", &self.cut_at_write)
            .field("torn_block", &self.torn_block)
            .field("written_blocks", &self.blocks.len())
            .finish()
    }
}

struct MonState {
    /// Remaining cut ordinals, ascending; consumed front to back.
    points: Vec<u64>,
    next: usize,
    rng: SplitMix64,
    tear_prob: f64,
    images: Vec<CrashImage>,
}

/// Decision for one flushed write, made under the device's block lock.
pub(crate) struct CutDecision {
    pub(crate) ordinal: u64,
    pub(crate) torn: bool,
}

/// Watches a device's flushed-write stream and snapshots the raw image
/// at seeded cut points. Attach with
/// [`RawDisk::attach_crash_monitor`](crate::RawDisk::attach_crash_monitor);
/// disarmed it costs one atomic load per write.
pub struct CrashMonitor {
    armed: AtomicBool,
    writes: AtomicU64,
    state: Mutex<MonState>,
}

impl CrashMonitor {
    /// A monitor that cuts power at exactly the given write ordinals
    /// (1-based, counted from arming). Tearing of the in-flight write
    /// is decided per cut point from `tear_seed` with probability
    /// `tear_prob`.
    pub fn at_points(mut points: Vec<u64>, tear_seed: u64, tear_prob: f64) -> CrashMonitor {
        points.sort_unstable();
        points.dedup();
        points.retain(|&p| p > 0);
        CrashMonitor {
            armed: AtomicBool::new(false),
            writes: AtomicU64::new(0),
            state: Mutex::new(MonState {
                points,
                next: 0,
                rng: SplitMix64::new(tear_seed),
                tear_prob,
                images: Vec::new(),
            }),
        }
    }

    /// Samples `count` distinct cut ordinals uniformly from
    /// `1..=total_writes` using a seeded stream — the deterministic
    /// crash-point enumeration behind `repro crash --seed N`.
    ///
    /// There are only `total_writes` ordinals to draw from, so `count`
    /// is clamped to it; the monitor always schedules exactly
    /// `min(count, total_writes)` points. Campaigns should check
    /// [`CrashMonitor::scheduled`] and report when the achieved count
    /// falls short of the requested one.
    pub fn sample(seed: u64, total_writes: u64, count: usize, tear_prob: f64) -> CrashMonitor {
        let mut rng = SplitMix64::new(seed);
        let count = (count as u64).min(total_writes);
        let mut points: Vec<u64> = Vec::with_capacity(count as usize);
        // Floyd's sampling: exactly `count` distinct ordinals in
        // `count` draws — no rejection loop that can fall short when
        // `count` approaches `total_writes`.
        for j in (total_writes - count + 1)..=total_writes {
            let p = 1 + rng.next_u64() % j;
            if points.contains(&p) {
                points.push(j);
            } else {
                points.push(p);
            }
        }
        Self::at_points(points, seed ^ 0x7EA2_B10C, tear_prob)
    }

    /// Starts counting writes and cutting at scheduled points.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops cutting (captured images are retained).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Flushed writes seen while armed.
    pub fn writes_seen(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Cut ordinals scheduled (including already-fired ones).
    pub fn scheduled(&self) -> Vec<u64> {
        self.state.lock().points.clone()
    }

    /// Drains the captured images, oldest first.
    pub fn take_images(&self) -> Vec<CrashImage> {
        std::mem::take(&mut self.state.lock().images)
    }

    /// Called by the device for every flushed write (under its block
    /// lock). Returns a cut decision when this write is a scheduled
    /// crash point.
    pub(crate) fn note_write(&self) -> Option<CutDecision> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let ordinal = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let mut st = self.state.lock();
        // Skip points the counter has already passed (e.g. scheduled
        // before arming was toggled off and on).
        while st.next < st.points.len() && st.points[st.next] < ordinal {
            st.next += 1;
        }
        if st.next < st.points.len() && st.points[st.next] == ordinal {
            st.next += 1;
            let torn = st.rng.next_f64() < st.tear_prob;
            return Some(CutDecision { ordinal, torn });
        }
        None
    }

    /// Called by the device to store a captured image.
    pub(crate) fn store(&self, image: CrashImage) {
        self.state.lock().images.push(image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_deterministic_and_distinct() {
        let a = CrashMonitor::sample(42, 10_000, 200, 0.25);
        let b = CrashMonitor::sample(42, 10_000, 200, 0.25);
        assert_eq!(a.scheduled(), b.scheduled());
        let pts = a.scheduled();
        assert_eq!(pts.len(), 200);
        let mut dedup = pts.clone();
        dedup.dedup();
        assert_eq!(dedup, pts, "points sorted and distinct");
        assert!(pts.iter().all(|&p| (1..=10_000).contains(&p)));
        let c = CrashMonitor::sample(43, 10_000, 200, 0.25);
        assert_ne!(a.scheduled(), c.scheduled());
    }

    #[test]
    fn sample_clamps_to_available_ordinals() {
        // Fewer flushed writes than requested cuts: every ordinal is
        // scheduled, none invented, and the shortfall is visible via
        // scheduled().len().
        let m = CrashMonitor::sample(7, 5, 200, 0.0);
        assert_eq!(m.scheduled(), vec![1, 2, 3, 4, 5]);
        let none = CrashMonitor::sample(7, 0, 200, 0.0);
        assert!(none.scheduled().is_empty());
    }

    #[test]
    fn sample_exact_count_near_boundary() {
        // count == total_writes is the case rejection sampling could
        // starve on; Floyd's must deliver the full permutation.
        let m = CrashMonitor::sample(11, 200, 200, 0.0);
        assert_eq!(m.scheduled(), (1..=200).collect::<Vec<u64>>());
    }

    #[test]
    fn disarmed_monitor_counts_nothing() {
        let m = CrashMonitor::at_points(vec![1, 2, 3], 0, 0.0);
        assert!(m.note_write().is_none());
        assert_eq!(m.writes_seen(), 0);
        m.arm();
        assert!(m.note_write().is_some());
        assert_eq!(m.writes_seen(), 1);
    }

    #[test]
    fn cut_fires_exactly_at_scheduled_ordinals() {
        let m = CrashMonitor::at_points(vec![2, 5], 7, 0.0);
        m.arm();
        let fired: Vec<u64> = (1..=6)
            .filter_map(|_| m.note_write().map(|d| d.ordinal))
            .collect();
        assert_eq!(fired, vec![2, 5]);
    }

    #[test]
    fn corrupt_byte_flips_materializes_and_bounds_checks() {
        let mut img = CrashImage {
            cut_at_write: 1,
            torn_block: None,
            block_size: 8,
            capacity_blocks: 2,
            blocks: HashMap::new(),
        };
        // Never-flushed block materializes as zeros with the flip applied.
        assert!(img.corrupt_byte(0, 3, 0xA5));
        assert_eq!(img.blocks[&0][3], 0xA5);
        assert_eq!(img.blocks[&0][0], 0);
        // Zero mask still corrupts.
        assert!(img.corrupt_byte(0, 3, 0));
        assert_eq!(img.blocks[&0][3], 0xA4);
        // Out-of-range targets are refused.
        assert!(!img.corrupt_byte(2, 0, 1));
        assert!(!img.corrupt_byte(0, 8, 1));
        assert_eq!(img.written_blocks(), 1);
    }

    #[test]
    fn tear_prob_one_always_tears() {
        let m = CrashMonitor::at_points(vec![1], 9, 1.0);
        m.arm();
        assert!(m.note_write().unwrap().torn);
    }
}
