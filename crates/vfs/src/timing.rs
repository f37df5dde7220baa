//! Per-syscall-class wall-clock accounting (the ftrace analog behind
//! Figure 1).

use crate::fastclock;
use dc_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};

/// Syscall classes, matching the Figure 1 legend: the same buckets the
/// observability layer keys its latency histograms by.
pub use dc_obs::OpClass as SyscallClass;

/// Index range for the class table.
const NCLASSES: usize = 8;

/// One class's counters, packed so [`SyscallTiming::record`] dirties a
/// single cache line per call instead of one in a `calls` array and one
/// in a `nanos` array 64 bytes away (§13).
#[derive(Debug, Default)]
#[repr(align(64))]
struct ClassCell {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Accumulated `(calls, nanoseconds)` per class.
#[derive(Debug, Default)]
pub struct SyscallTiming {
    cells: [ClassCell; NCLASSES],
    recorder: Recorder,
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
            recorder,
            ..SyscallTiming::default()
        }
    }

    /// Times `f` under `class` (TSC-based; see [`crate::fastclock`]).
    #[inline]
    pub fn record<T>(&self, class: SyscallClass, f: impl FnOnce() -> T) -> T {
        let t0 = fastclock::now();
        let out = f();
        let dt = fastclock::delta_ns(t0, fastclock::now());
        let cell = &self.cells[class.idx()];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.nanos.fetch_add(dt, Ordering::Relaxed);
        self.recorder.latency(class, dt);
        out
    }

    /// `(calls, total_ns)` for one class.
    pub fn get(&self, class: SyscallClass) -> (u64, u64) {
        let cell = &self.cells[class.idx()];
        (
            cell.calls.load(Ordering::Relaxed),
            cell.nanos.load(Ordering::Relaxed),
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
        self.cells
            .iter()
            .map(|c| c.nanos.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes the table.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.calls.store(0, Ordering::Relaxed);
            cell.nanos.store(0, Ordering::Relaxed);
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
    fn reset_zeroes() {
        let t = SyscallTiming::new();
        t.record(SyscallClass::Other, || ());
        t.reset();
        assert_eq!(t.total_ns(), 0);
        assert_eq!(t.get(SyscallClass::Other).0, 0);
    }
}
