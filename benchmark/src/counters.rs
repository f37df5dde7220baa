//! Public counters of every layer, read before and after a window and
//! turned into per-operation ratios. Nothing here resets a counter: a
//! window's numbers are differences between two snapshots.

use crate::world::World;
use dc_blockdev::DiskStats;
use dc_fs::{FileSystem, JournalStats};
use dc_server::ServeStats;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// One reading of the counters a window is judged by.
#[derive(Debug, Clone)]
pub struct CounterSnap {
    at: Instant,
    lookups: u64,
    fast_attempts: u64,
    fast_hits: u64,
    fast_neg_hits: u64,
    hit_negative: u64,
    complete_neg_avoided: u64,
    slow_steps: u64,
    miss_fs: u64,
    epoch_pins: u64,
    evictions: u64,
    read_retries: u64,
    shootdown_visits: u64,
    dlht: (u64, u64),
    pcc: (u64, u64),
    fs_calls: u64,
    fs_mutations: u64,
    disk: DiskStats,
    journal: JournalStats,
    serve_requests: u64,
    serve_rejected: u64,
    serve_sig_miss: u64,
}

impl CounterSnap {
    /// Reads every counter of `world` (and of `serve`, when a server is
    /// part of the system).
    pub fn take(world: &World, serve: Option<&ServeStats>) -> CounterSnap {
        let s = &world.kernel.dcache.stats;
        let dcache = &world.kernel.dcache;
        let guard = crossbeam_epoch::pin();
        let mut pcc = (0u64, 0u64);
        // Sum over the credentials the workload runs under; a PCC that
        // was never attached contributes nothing and is not created.
        let mut seen = Vec::new();
        for p in &world.procs {
            let cred = p.cred();
            if seen.contains(&cred.id()) {
                continue;
            }
            seen.push(cred.id());
            if let Some(c) = dcache.pcc_ref(&cred, world.ns, &guard) {
                let (h, m) = c.hit_stats();
                pcc.0 += h;
                pcc.1 += m;
            }
        }
        drop(guard);
        let memfs = world.memfs();
        let (fl, fr, fg, fm) = memfs.stats().snapshot();
        CounterSnap {
            at: Instant::now(),
            lookups: s.lookups.load(Relaxed),
            fast_attempts: s.fast_attempts.load(Relaxed),
            fast_hits: s.fast_hits.load(Relaxed),
            fast_neg_hits: s.fast_neg_hits.load(Relaxed),
            hit_negative: s.hit_negative.load(Relaxed),
            complete_neg_avoided: s.complete_neg_avoided.load(Relaxed),
            slow_steps: s.slow_steps.load(Relaxed),
            miss_fs: s.miss_fs.load(Relaxed),
            epoch_pins: s.epoch_pins.load(Relaxed),
            evictions: s.evictions.load(Relaxed),
            read_retries: s.read_retries.load(Relaxed),
            shootdown_visits: s.shootdown_visits.load(Relaxed),
            dlht: dcache.dlht_for(world.ns).hit_stats(),
            pcc,
            fs_calls: fl + fr + fg + fm,
            fs_mutations: fm,
            disk: memfs.disk().stats(),
            journal: memfs.journal_stats().unwrap_or_default(),
            serve_requests: serve.map_or(0, |s| s.requests.load(Relaxed)),
            serve_rejected: serve.map_or(0, |s| s.rejected_requests.load(Relaxed)),
            serve_sig_miss: serve.map_or(0, |s| s.sig_miss.load(Relaxed)),
        }
    }
}

/// Counter-derived per-layer numbers of one window.
#[derive(Debug, Clone, Default)]
pub struct Derived {
    /// Workload operations in the window (the denominator of `per_op`).
    pub ops: u64,
    /// `core.dlht.hit_ratio`
    pub dlht_hit_ratio: f64,
    /// `core.pcc.hit_ratio`
    pub pcc_hit_ratio: f64,
    /// `core.dcache.evictions_per_op`
    pub evictions_per_op: f64,
    /// `core.dcache.read_retries_per_kop`
    pub read_retries_per_kop: f64,
    /// `core.dcache.shoot_visits_per_dir_mutation`
    pub shoot_visits_per_dir_mutation: f64,
    /// `vfs.fast_hit_ratio`
    pub fast_hit_ratio: f64,
    /// `vfs.neg_hit_ratio`
    pub neg_hit_ratio: f64,
    /// `vfs.slow_steps_per_lookup`
    pub slow_steps_per_lookup: f64,
    /// `vfs.miss_fs_per_lookup`
    pub miss_fs_per_lookup: f64,
    /// `vfs.epoch_pins_per_lookup`
    pub epoch_pins_per_lookup: f64,
    /// `fs.calls_per_op`
    pub fs_calls_per_op: f64,
    /// `fs.journal.commits_per_mutation`
    pub journal_commits_per_mutation: f64,
    /// `fs.journal.blocks_per_commit`
    pub journal_blocks_per_commit: f64,
    /// `fs.journal.checkpoints`
    pub journal_checkpoints: f64,
    /// `blockdev.cache_hit_ratio` (1 when no block was touched)
    pub cache_hit_ratio: f64,
    /// `blockdev.device_reads_per_op`
    pub device_reads_per_op: f64,
    /// `blockdev.device_writes_per_op`
    pub device_writes_per_op: f64,
    /// `blockdev.writebacks_per_op`
    pub writebacks_per_op: f64,
    /// `blockdev.simulated_io_share`
    pub simulated_io_share: f64,
    /// `server.sig_miss_share`
    pub sig_miss_share: f64,
    /// `server.rejected_share`
    pub rejected_share: f64,
}

/// `num / den`, or `empty` when nothing was counted.
fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

impl Derived {
    /// The ratios of the window between `a` and `b`, in which the
    /// workload completed `ops` operations, `dir_mutations` of them a
    /// `chmod` or `rename` of a directory.
    pub fn between(a: &CounterSnap, b: &CounterSnap, ops: u64, dir_mutations: u64) -> Derived {
        let d = |x: u64, y: u64| y.saturating_sub(x);
        let lookups = d(a.lookups, b.lookups);
        let wall_ns = (b.at - a.at).as_nanos() as u64;
        let dl = (d(a.dlht.0, b.dlht.0), d(a.dlht.1, b.dlht.1));
        let pc = (d(a.pcc.0, b.pcc.0), d(a.pcc.1, b.pcc.1));
        let neg = d(a.hit_negative, b.hit_negative)
            + d(a.fast_neg_hits, b.fast_neg_hits)
            + d(a.complete_neg_avoided, b.complete_neg_avoided);
        let hits = d(a.disk.cache_hits, b.disk.cache_hits);
        let misses = d(a.disk.cache_misses, b.disk.cache_misses);
        let commits = d(a.journal.commits, b.journal.commits);
        let requests = d(a.serve_requests, b.serve_requests);
        let rejected = d(a.serve_rejected, b.serve_rejected);
        Derived {
            ops,
            dlht_hit_ratio: ratio(dl.0, dl.0 + dl.1, 0.0),
            pcc_hit_ratio: ratio(pc.0, pc.0 + pc.1, 0.0),
            evictions_per_op: ratio(d(a.evictions, b.evictions), ops, 0.0),
            read_retries_per_kop: 1000.0 * ratio(d(a.read_retries, b.read_retries), ops, 0.0),
            // Every shootdown's visits over the directory mutations: the
            // one-dentry shootdowns of file renames ride along (the
            // `shootdowns` counter cannot tell them apart).
            shoot_visits_per_dir_mutation: ratio(
                d(a.shootdown_visits, b.shootdown_visits),
                dir_mutations,
                0.0,
            ),
            fast_hit_ratio: ratio(
                d(a.fast_hits, b.fast_hits),
                d(a.fast_attempts, b.fast_attempts),
                0.0,
            ),
            neg_hit_ratio: ratio(neg, lookups, 0.0),
            slow_steps_per_lookup: ratio(d(a.slow_steps, b.slow_steps), lookups, 0.0),
            miss_fs_per_lookup: ratio(d(a.miss_fs, b.miss_fs), lookups, 0.0),
            epoch_pins_per_lookup: ratio(d(a.epoch_pins, b.epoch_pins), lookups, 0.0),
            fs_calls_per_op: ratio(d(a.fs_calls, b.fs_calls), ops, 0.0),
            journal_commits_per_mutation: ratio(commits, d(a.fs_mutations, b.fs_mutations), 0.0),
            journal_blocks_per_commit: ratio(
                d(a.journal.blocks_logged, b.journal.blocks_logged),
                commits,
                0.0,
            ),
            journal_checkpoints: d(a.journal.checkpoints, b.journal.checkpoints) as f64,
            cache_hit_ratio: ratio(hits, hits + misses, 1.0),
            device_reads_per_op: ratio(d(a.disk.device_reads, b.disk.device_reads), ops, 0.0),
            device_writes_per_op: ratio(d(a.disk.device_writes, b.disk.device_writes), ops, 0.0),
            writebacks_per_op: ratio(d(a.disk.writebacks, b.disk.writebacks), ops, 0.0),
            simulated_io_share: ratio(
                d(a.disk.simulated_io_ns, b.disk.simulated_io_ns),
                wall_ns,
                0.0,
            ),
            sig_miss_share: ratio(d(a.serve_sig_miss, b.serve_sig_miss), requests, 0.0),
            rejected_share: ratio(rejected, requests + rejected, 0.0),
        }
    }
}
