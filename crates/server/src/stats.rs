//! Server counters and per-worker latency histograms, one source on the
//! kernel's metric list (DESIGN.md §8 has the declaration rule).
//!
//! Workers never share a histogram: each owns a [`WorkerHists`] and
//! records with plain relaxed atomics on its own cache lines. A
//! metrics snapshot merges them on demand ([`LatencyHist::merge_from`]
//! is lossless — identical buckets), so the hot path pays nothing for
//! observability beyond the per-record atomic adds.

use crate::proto::Op;
use dc_obs::{Counter, HistSummary, LatencyHist, MetricSource, Per};
use std::sync::atomic::Ordering;
use std::sync::Arc;

dc_obs::counters! {
    /// Monotonic counters for the serving tier, in export order. All
    /// relaxed; exact under quiescence (snapshots between load phases),
    /// approximate during.
    pub struct ServeStats {
        /// Requests executed (records in executed frames).
        pub requests,
        /// Request frames executed (one batch each).
        pub batches,
        /// Requests inside shed frames (by the frame header's count).
        pub rejected_requests,
        /// Frames shed by admission control before decoding.
        pub rejected_frames,
        /// Frames answered `BadRequest`/`BadVersion` without execution.
        pub bad_frames,
        /// Executed frames whose encoded response blew the frame cap and
        /// were answered with a frame-level `TooBig` instead.
        pub resp_too_big,
        /// Executed requests that returned a non-`Ok` status.
        pub errors,
        /// Connections accepted.
        pub conns,
        /// Executed requests per op (`op_lookup`, …).
        pub per_op: Per<Op, Counter> = "op_",
        /// Signature lookups not answerable from the cache (`SigMiss`).
        pub sig_miss,
    }
}

/// One worker's latency histograms: the four ops plus the pipeline
/// stages around them.
#[derive(Debug, Default)]
pub struct WorkerHists {
    /// Per-op execution latency (the kernel call only), by [`Op::idx`].
    pub per_op: [LatencyHist; Op::ALL.len()],
    /// Request-frame decode.
    pub decode: LatencyHist,
    /// Response-frame encode.
    pub encode: LatencyHist,
    /// Whole-batch execution (pin + every request).
    pub batch_exec: LatencyHist,
    /// Time a frame waited in the submission queue.
    pub queue_wait: LatencyHist,
}

impl WorkerHists {
    /// Every histogram with its export key less the `serve_` prefix
    /// (`lookup`, …, `queue_wait`): the list reset, merge and export walk.
    fn keyed(&self) -> impl Iterator<Item = (&'static str, &LatencyHist)> {
        let ops = Op::ALL.iter().map(|op| (op.key(), &self.per_op[op.idx()]));
        ops.chain([
            ("decode_frame", &self.decode),
            ("encode_frame", &self.encode),
            ("batch_exec", &self.batch_exec),
            ("queue_wait", &self.queue_wait),
        ])
    }

    /// Zeroes every histogram.
    pub fn reset(&self) {
        self.keyed().for_each(|(_, h)| h.reset());
    }

    /// The sum of `workers`' histograms.
    pub fn merged(workers: &[Arc<WorkerHists>]) -> WorkerHists {
        let sum = WorkerHists::default();
        for w in workers {
            for ((_, into), (_, from)) in sum.keyed().zip(w.keyed()) {
                into.merge_from(from);
            }
        }
        sum
    }
}

/// The serving tier's [`MetricSource`] (`serve` section): counters from
/// [`ServeStats`], histograms merged across workers at snapshot time.
/// Registered on the kernel by `Server::start`, so `--metrics-out` exports
/// and `Kernel::reset_stats` cover served traffic with no extra wiring.
pub struct ServeMetrics {
    stats: Arc<ServeStats>,
    workers: Vec<Arc<WorkerHists>>,
}

impl ServeMetrics {
    /// Bundles the server's stats and per-worker histograms.
    pub fn new(stats: Arc<ServeStats>, workers: Vec<Arc<WorkerHists>>) -> ServeMetrics {
        ServeMetrics { stats, workers }
    }
}

impl MetricSource for ServeMetrics {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.stats.counters()
    }

    fn rates(&self) -> Vec<(&'static str, f64)> {
        let executed = self.stats.requests.load(Ordering::Relaxed);
        let rejected = self.stats.rejected_requests.load(Ordering::Relaxed);
        let offered = executed + rejected;
        if offered == 0 {
            return Vec::new();
        }
        vec![("reject_rate", rejected as f64 / offered as f64)]
    }

    fn hists(&self) -> Vec<(String, HistSummary)> {
        let merged = WorkerHists::merged(&self.workers);
        let sampled = merged.keyed().filter(|(_, h)| h.count() > 0);
        sampled
            .map(|(key, h)| (format!("serve_{key}"), h.summary()))
            .collect()
    }

    fn reset(&self) {
        self.stats.reset();
        for w in &self.workers {
            w.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hists_merge_across_workers_and_skip_empty() {
        let stats = Arc::new(ServeStats::default());
        let workers: Vec<Arc<WorkerHists>> =
            (0..3).map(|_| Arc::new(WorkerHists::default())).collect();
        workers[0].per_op[Op::Lookup.idx()].record(100);
        workers[2].per_op[Op::Lookup.idx()].record(300);
        workers[1].decode.record(50);
        let m = ServeMetrics::new(stats, workers);
        let hists = m.hists();
        let names: Vec<&str> = hists.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["serve_lookup", "serve_decode_frame"]);
        assert_eq!(hists[0].1.count, 2);
        assert_eq!(hists[0].1.max_ns, 300);
    }

    #[test]
    fn reset_clears_counters_and_worker_hists() {
        let stats = Arc::new(ServeStats::default());
        stats.requests.fetch_add(9, Ordering::Relaxed);
        let worker = Arc::new(WorkerHists::default());
        worker.queue_wait.record(7);
        let m = ServeMetrics::new(stats.clone(), vec![worker.clone()]);
        m.reset();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 0);
        assert_eq!(worker.queue_wait.count(), 0);
        assert!(m.hists().is_empty());
    }
}
