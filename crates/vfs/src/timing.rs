//! Per-syscall-class wall-clock accounting (the ftrace analog behind
//! Figure 1).

use crate::fastclock;
use dc_obs::{Per, Recorder};
use std::sync::atomic::Ordering;

/// Syscall classes, matching the Figure 1 legend: the same buckets the
/// observability layer keys its latency histograms by.
pub use dc_obs::OpClass as SyscallClass;

dc_obs::counters! {
    /// What one class accumulated.
    pub struct ClassTime {
        /// Calls made.
        pub calls = "_calls",
        /// Nanoseconds they took.
        pub ns = "_ns",
    }
}

dc_obs::counters! {
    /// Accumulated calls and nanoseconds per class (`syscalls` section:
    /// `stat_calls`, `stat_ns`, …). A class's two counters sit side by
    /// side in the one striped group, so [`SyscallTiming::record`]
    /// dirties a single cache line, and it is a line of the calling
    /// thread's own stripe (§13).
    pub struct SyscallCounters = "syscalls" {
        /// The totals, by class.
        pub class: Per<SyscallClass, ClassTime> = "",
    }
}

/// The per-class table and the recorder each sample is also fed to.
#[derive(Debug, Default)]
pub struct SyscallTiming {
    /// The table.
    pub counters: SyscallCounters,
    recorder: Recorder,
}

impl SyscallTiming {
    /// A table that additionally feeds each sample into `recorder`'s
    /// per-op latency histogram.
    pub fn with_recorder(recorder: Recorder) -> SyscallTiming {
        SyscallTiming {
            counters: SyscallCounters::default(),
            recorder,
        }
    }

    /// Times `f` under `class` (TSC-based; see [`crate::fastclock`]).
    #[inline]
    pub fn record<T>(&self, class: SyscallClass, f: impl FnOnce() -> T) -> T {
        let t0 = fastclock::now();
        let out = f();
        let dt = fastclock::delta_ns(t0, fastclock::now());
        let total = &self.counters.class[class];
        total.calls.fetch_add(1, Ordering::Relaxed);
        total.ns.fetch_add(dt, Ordering::Relaxed);
        self.recorder.latency(class, dt);
        out
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
        .map(|c| self.counters.class[*c].ns.load(Ordering::Relaxed))
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(calls, total_ns)` of one class.
    fn get(t: &SyscallTiming, class: SyscallClass) -> (u64, u64) {
        let total = &t.counters.class[class];
        (
            total.calls.load(Ordering::Relaxed),
            total.ns.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn record_accumulates() {
        let t = SyscallTiming::default();
        let v = t.record(SyscallClass::Open, || 42);
        assert_eq!(v, 42);
        t.record(SyscallClass::Open, || ());
        t.record(SyscallClass::Io, || ());
        let (calls, ns) = get(&t, SyscallClass::Open);
        assert_eq!(calls, 2);
        assert!(ns > 0);
        assert_eq!(get(&t, SyscallClass::Io).0, 1);
        assert_eq!(get(&t, SyscallClass::Unlink).0, 0);
    }

    #[test]
    fn path_syscall_ns_excludes_io() {
        let t = SyscallTiming::default();
        t.record(SyscallClass::AccessStat, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.record(SyscallClass::Io, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(get(&t, SyscallClass::Io).1 > 0);
        assert_eq!(t.path_syscall_ns(), get(&t, SyscallClass::AccessStat).1);
    }

    #[test]
    fn totals_across_threads_equal_the_calls_made() {
        let t = SyscallTiming::default();
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
        assert_eq!(get(&t, SyscallClass::AccessStat).0, 4000);
        assert_eq!(get(&t, SyscallClass::Open).0, 8000);
        assert_eq!(get(&t, SyscallClass::Unlink), (0, 0));
        t.counters.reset();
        assert_eq!(get(&t, SyscallClass::Open), (0, 0));
    }

    #[test]
    fn reset_zeroes() {
        let t = SyscallTiming::default();
        t.record(SyscallClass::Other, || ());
        t.counters.reset();
        assert!(t.counters.counters().iter().all(|(_, v)| *v == 0));
    }
}
