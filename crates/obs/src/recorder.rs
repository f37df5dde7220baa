//! The [`Recorder`] handle hot paths hold, and the shared [`Obs`] sink
//! behind it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::hist::LatencyHist;
use crate::stats::{Cells, Counter, Per};
use crate::trace::{LookupOutcome, TraceEvent, TraceRing};

pub use crate::trace::current_tid;

crate::keyed_enum! {
    /// Operation classes latency histograms are keyed by. Mirrors the VFS
    /// syscall classification so timing data lands in the same buckets the
    /// paper's tables use.
    pub enum OpClass {
        /// `access`/`stat`-style existence and attribute reads.
        AccessStat = "stat",
        /// `open` (and `create`).
        Open = "open",
        /// `chmod`/`chown` metadata writes.
        ChmodChown = "chmod_chown",
        /// `unlink`/`rmdir` removals.
        Unlink = "unlink",
        /// Other metadata ops (`mkdir`, `rename`, `link`, `symlink`, ...).
        OtherMeta = "other_meta",
        /// Directory reads.
        Readdir = "readdir",
        /// Data I/O (`read`/`write`).
        Io = "io",
        /// Everything else.
        Other = "other",
    }
}

crate::keyed_enum! {
    /// Flat classification of [`TraceEvent`]s for cheap global counting;
    /// payload-carrying events split by their boolean outcome so the counts
    /// reconcile directly against `DcacheStats`. Each row is the kind, its
    /// export key and the events it counts (which is also its doc).
    pub enum EventKind of TraceEvent {
        LookupStart = "lookup_start" for TraceEvent::LookupStart,
        DlhtProbeHit = "dlht_probe_hit" for TraceEvent::DlhtProbe { hit: true },
        DlhtProbeMiss = "dlht_probe_miss" for TraceEvent::DlhtProbe { hit: false },
        PccHit = "pcc_hit" for TraceEvent::PccCheck { hit: true, .. },
        PccStale = "pcc_stale" for TraceEvent::PccCheck { hit: false, stale: true },
        PccMiss = "pcc_miss" for TraceEvent::PccCheck { hit: false, stale: false },
        SeqRetry = "seq_retry" for TraceEvent::SeqRetry,
        EpochPin = "epoch_pin" for TraceEvent::EpochPin,
        ReadRetry = "read_retry" for TraceEvent::ReadRetry,
        SlowStep = "slow_step" for TraceEvent::SlowStep { .. },
        FsMiss = "fs_miss" for TraceEvent::FsMiss,
        BlockIo = "block_io" for TraceEvent::BlockIo { .. },
        LookupEndPositive = "lookup_end_positive"
            for TraceEvent::LookupEnd { outcome: LookupOutcome::Positive, .. },
        LookupEndNegative = "lookup_end_negative"
            for TraceEvent::LookupEnd { outcome: LookupOutcome::Negative, .. },
        LookupEndError = "lookup_end_error"
            for TraceEvent::LookupEnd { outcome: LookupOutcome::Error, .. },
        FaultInjected = "fault_injected" for TraceEvent::FaultInjected { .. },
        IoRetry = "io_retry" for TraceEvent::IoRetry { .. },
        Shrink = "shrink" for TraceEvent::Shrink { .. },
        JournalCommit = "journal_commit" for TraceEvent::JournalCommit { .. },
        JournalReplay = "journal_replay" for TraceEvent::JournalReplay { .. },
        JournalCheckpoint = "journal_checkpoint" for TraceEvent::JournalCheckpoint,
        ServeBatch = "serve_batch" for TraceEvent::ServeBatch { .. },
        ServeReject = "serve_reject" for TraceEvent::ServeReject { .. },
        ServeConn = "serve_conn" for TraceEvent::ServeConn,
        PccEvict = "pcc_evict" for TraceEvent::PccEvict,
        NsTeardown = "ns_teardown" for TraceEvent::NsTeardown { .. },
        WarmCheckpoint = "warm_checkpoint" for TraceEvent::WarmCheckpoint { .. },
        WarmRestart = "warm_restart" for TraceEvent::WarmRestart { .. },
    }
}

/// Construction parameters for an enabled [`Obs`].
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Spans retained by the trace ring (oldest overwritten beyond
    /// this). Default 4096.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 4096,
        }
    }
}

/// The shared observability sink: per-op latency histograms, per-kind
/// event counters, and the span trace ring. All operations are
/// thread-safe through `&self`.
pub struct Obs {
    hists: [LatencyHist; OpClass::ALL.len()],
    events: Per<EventKind, Counter>,
    ring: TraceRing,
}

impl Obs {
    /// A fresh sink.
    pub fn new(config: ObsConfig) -> Obs {
        Obs {
            hists: std::array::from_fn(|_| LatencyHist::new()),
            events: Cells::fresh(),
            ring: TraceRing::new(config.ring_capacity),
        }
    }

    /// The latency histogram for one operation class.
    pub fn hist(&self, op: OpClass) -> &LatencyHist {
        &self.hists[op.idx()]
    }

    /// The span trace ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Count of events recorded for `kind`.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.events[kind].load(Ordering::Relaxed)
    }

    /// All event counts, keyed and in index order.
    pub fn event_counts(&self) -> Vec<(String, u64)> {
        self.events.counters()
    }

    /// Records one event: bumps its kind counter and appends it to the
    /// trace ring.
    pub fn record_event(&self, event: TraceEvent) {
        self.events[EventKind::of(&event)].fetch_add(1, Ordering::Relaxed);
        self.ring.push(current_tid(), event);
    }

    /// Zeroes histograms, event counters, and the trace ring.
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
        self.events.reset();
        self.ring.reset();
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("ring", &self.ring)
            .finish_non_exhaustive()
    }
}

/// The handle instrumentation sites hold. Cloning is one `Arc` bump
/// (or a no-op when disabled).
///
/// Zero-cost when disabled: `inner` is `None`, every probe method is
/// `#[inline]` and reduces to a single branch on that cold value, and
/// [`event`](Recorder::event) takes a closure so the event payload is
/// never constructed on the disabled path. The overhead guard test in
/// this module and `dc-vfs/tests/obs_overhead.rs` hold this to
/// same-order ns/op.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Obs>>,
}

impl Recorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder backed by a fresh [`Obs`].
    pub fn enabled(config: ObsConfig) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Obs::new(config))),
        }
    }

    /// Whether this recorder is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sink, when enabled.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.inner.as_ref()
    }

    /// Runs `f` and records how long it took as one `op` latency sample.
    /// Disabled, this is `f()` behind the one branch every probe takes:
    /// no clock is read.
    #[inline]
    pub fn time<T>(&self, op: OpClass, f: impl FnOnce() -> T) -> T {
        match &self.inner {
            None => f(),
            Some(obs) => {
                let t0 = Instant::now();
                let out = f();
                obs.hist(op).record(t0.elapsed().as_nanos() as u64);
                out
            }
        }
    }

    /// Records the event built by `f` (when disabled, `f` is never
    /// called, so payload construction costs nothing).
    #[inline]
    pub fn event(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(obs) = &self.inner {
            obs.record_event(f());
        }
    }

    /// A timestamp for span timing — `None` when disabled so callers
    /// skip the clock read entirely.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        if self.inner.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Zeroes the sink, if enabled.
    pub fn reset(&self) {
        if let Some(obs) = &self.inner {
            obs.reset();
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.now().is_none());
        assert_eq!(r.time(OpClass::Open, || 7), 7);
        r.event(|| unreachable!("closure must not run when disabled"));
        assert!(r.obs().is_none());
    }

    #[test]
    fn enabled_recorder_counts_and_traces() {
        let r = Recorder::enabled(ObsConfig { ring_capacity: 16 });
        r.time(OpClass::AccessStat, || ());
        r.event(|| TraceEvent::LookupStart);
        r.event(|| TraceEvent::DlhtProbe { hit: true });
        r.event(|| TraceEvent::LookupEnd {
            outcome: LookupOutcome::Positive,
            ns: 500,
        });
        let obs = r.obs().unwrap();
        assert_eq!(obs.hist(OpClass::AccessStat).count(), 1);
        assert_eq!(obs.event_count(EventKind::LookupStart), 1);
        assert_eq!(obs.event_count(EventKind::DlhtProbeHit), 1);
        assert_eq!(obs.event_count(EventKind::LookupEndPositive), 1);
        assert_eq!(obs.ring().snapshot().len(), 3);
        r.reset();
        assert_eq!(obs.event_count(EventKind::LookupStart), 0);
        assert_eq!(obs.hist(OpClass::AccessStat).count(), 0);
        assert!(obs.ring().snapshot().is_empty());
    }

    #[test]
    fn time_returns_f_and_records_one_sample() {
        let r = Recorder::enabled(ObsConfig::default());
        assert_eq!(r.time(OpClass::Open, || 42), 42);
        r.time(OpClass::Open, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        r.time(OpClass::Io, || ());
        let obs = r.obs().unwrap();
        assert_eq!(obs.hist(OpClass::Open).count(), 2);
        assert!(obs.hist(OpClass::Open).sum() >= 1_000_000);
        assert_eq!(obs.hist(OpClass::Io).count(), 1);
        assert_eq!(obs.hist(OpClass::Unlink).count(), 0);
    }

    #[test]
    fn time_counts_every_call_across_threads() {
        let r = Recorder::enabled(ObsConfig::default());
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for _ in 0..1000 {
                        r.time(OpClass::AccessStat, || ());
                        r.time(OpClass::Open, || ());
                        r.time(OpClass::Open, || ());
                    }
                });
            }
        });
        let obs = r.obs().unwrap();
        assert_eq!(obs.hist(OpClass::AccessStat).count(), 4000);
        assert_eq!(obs.hist(OpClass::Open).count(), 8000);
        assert_eq!(obs.hist(OpClass::Unlink).count(), 0);
    }

    #[test]
    fn reset_zeroes_every_time_sample() {
        let r = Recorder::enabled(ObsConfig::default());
        for &op in OpClass::ALL {
            r.time(op, || ());
        }
        let obs = r.obs().unwrap();
        assert!(OpClass::ALL.iter().all(|&op| obs.hist(op).count() == 1));
        r.reset();
        for &op in OpClass::ALL {
            assert_eq!(obs.hist(op).count(), 0, "{op:?}");
            assert_eq!(obs.hist(op).sum(), 0, "{op:?}");
        }
    }

    /// `ALL[i].idx() == i`, keys unique and snake_case.
    fn check_table<E: crate::Keyed + std::fmt::Debug>() {
        let mut keys = Vec::new();
        for (i, k) in E::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i, "{k:?}");
            let key = k.key();
            let snake = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
            assert!(!key.is_empty() && key.chars().all(snake), "{key}");
            assert!(!keys.contains(&key), "{key} twice");
            keys.push(key);
        }
    }

    #[test]
    fn event_kind_keys_are_unique_and_indexed() {
        check_table::<EventKind>();
        check_table::<OpClass>();
        assert_eq!(EventKind::ALL.len(), 28);
        assert_eq!(OpClass::ALL.len(), 8);
    }

    #[test]
    fn disabled_probe_overhead_is_negligible() {
        // The acceptance criterion: a disabled recorder must not add
        // measurable overhead. 2M probe pairs in well under a second
        // means single-digit ns per probe; the bound is generous to
        // stay robust on loaded CI machines.
        let r = Recorder::disabled();
        let iters = 2_000_000u64;
        let start = Instant::now();
        for i in 0..iters {
            r.time(OpClass::Io, || std::hint::black_box(i));
            r.event(|| TraceEvent::SlowStep {
                component: i as u32,
            });
        }
        let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
        assert!(
            per_iter < 150.0,
            "disabled recorder costs {per_iter:.1} ns/iter"
        );
    }
}
