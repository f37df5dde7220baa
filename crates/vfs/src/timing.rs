//! Per-syscall-class wall-clock accounting (the ftrace analog behind
//! Figure 1).

use crate::fastclock;
use dc_obs::Recorder;
use dcache_core::Counter;
use std::sync::atomic::Ordering;

/// Syscall classes, matching the Figure 1 legend: the same buckets the
/// observability layer keys its latency histograms by.
pub use dc_obs::OpClass as SyscallClass;

/// Index range for the class table.
const NCLASSES: usize = 8;

/// Accumulated `(calls, nanoseconds)` per class.
///
/// One striped counter group, class `c` at cells `2c` (calls) and
/// `2c + 1` (nanoseconds): [`SyscallTiming::record`] dirties a single
/// cache line, and it is a line of the calling thread's own stripe
/// (§13).
#[derive(Debug)]
pub struct SyscallTiming {
    cells: [Counter; 2 * NCLASSES],
    recorder: Recorder,
}

impl Default for SyscallTiming {
    fn default() -> Self {
        SyscallTiming::with_recorder(Recorder::default())
    }
}

impl SyscallTiming {
    /// Fresh zeroed table.
    pub fn new() -> SyscallTiming {
        SyscallTiming::default()
    }

    /// A table that additionally feeds each sample into `recorder`'s
    /// per-op latency histogram.
    pub fn with_recorder(recorder: Recorder) -> SyscallTiming {
        SyscallTiming {
            cells: Counter::group(),
            recorder,
        }
    }

    /// Times `f` under `class` (TSC-based; see [`crate::fastclock`]).
    #[inline]
    pub fn record<T>(&self, class: SyscallClass, f: impl FnOnce() -> T) -> T {
        let t0 = fastclock::now();
        let out = f();
        let dt = fastclock::delta_ns(t0, fastclock::now());
        let cell = 2 * class.idx();
        self.cells[cell].fetch_add(1, Ordering::Relaxed);
        self.cells[cell + 1].fetch_add(dt, Ordering::Relaxed);
        self.recorder.latency(class, dt);
        out
    }

    /// `(calls, total_ns)` for one class.
    pub fn get(&self, class: SyscallClass) -> (u64, u64) {
        let cell = 2 * class.idx();
        (
            self.cells[cell].load(Ordering::Relaxed),
            self.cells[cell + 1].load(Ordering::Relaxed),
        )
    }

    /// Total nanoseconds across the path-based classes (Figure 1's
    /// numerator: access/stat, open, chmod/chown, unlink).
    pub fn path_syscall_ns(&self) -> u64 {
        [
            SyscallClass::AccessStat,
            SyscallClass::Open,
            SyscallClass::ChmodChown,
            SyscallClass::Unlink,
        ]
        .iter()
        .map(|c| self.get(*c).1)
        .sum()
    }

    /// Total nanoseconds across every class.
    pub fn total_ns(&self) -> u64 {
        SyscallClass::all().into_iter().map(|c| self.get(c).1).sum()
    }

    /// Zeroes the table.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let t = SyscallTiming::new();
        let v = t.record(SyscallClass::Open, || 42);
        assert_eq!(v, 42);
        t.record(SyscallClass::Open, || ());
        t.record(SyscallClass::Io, || ());
        let (calls, ns) = t.get(SyscallClass::Open);
        assert_eq!(calls, 2);
        assert!(ns > 0);
        assert_eq!(t.get(SyscallClass::Io).0, 1);
        assert_eq!(t.get(SyscallClass::Unlink).0, 0);
    }

    #[test]
    fn path_syscall_ns_excludes_io() {
        let t = SyscallTiming::new();
        t.record(SyscallClass::AccessStat, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.record(SyscallClass::Io, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(t.path_syscall_ns() > 0);
        assert!(t.total_ns() > t.path_syscall_ns());
    }

    #[test]
    fn totals_across_threads_equal_the_calls_made() {
        let t = SyscallTiming::new();
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for _ in 0..1000 {
                        t.record(SyscallClass::AccessStat, || ());
                        t.record(SyscallClass::Open, || ());
                        t.record(SyscallClass::Open, || ());
                    }
                });
            }
        });
        assert_eq!(t.get(SyscallClass::AccessStat).0, 4000);
        assert_eq!(t.get(SyscallClass::Open).0, 8000);
        assert_eq!(t.get(SyscallClass::Unlink), (0, 0));
        t.reset();
        assert_eq!(t.get(SyscallClass::Open), (0, 0));
    }

    #[test]
    fn reset_zeroes() {
        let t = SyscallTiming::new();
        t.record(SyscallClass::Other, || ());
        t.reset();
        assert_eq!(t.total_ns(), 0);
        assert_eq!(t.get(SyscallClass::Other).0, 0);
    }
}
