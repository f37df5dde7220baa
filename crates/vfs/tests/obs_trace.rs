//! End-to-end observability checks: the trace-event counters recorded
//! on the lookup path must reconcile exactly with the `DcacheStats`
//! counters bumped at the same sites, and the per-op latency
//! histograms must capture the syscalls the workload issued.

use dc_vfs::{EventKind, KernelBuilder, ObsConfig, OpClass, OpenFlags};
use dcache_core::DcacheConfig;
use std::sync::atomic::Ordering;

fn obs_kernel(config: DcacheConfig) -> std::sync::Arc<dc_vfs::Kernel> {
    KernelBuilder::new(config)
        .observability(ObsConfig::default())
        .build()
        .unwrap()
}

#[test]
fn events_reconcile_with_dcache_stats() {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let k = obs_kernel(config);
        let p = k.init_process();

        // A workload touching every instrumented path: creates, warm
        // stats, negative lookups, then a cache drop so re-stats go all
        // the way to the file system (miss_fs).
        for d in 0..4 {
            k.mkdir(&p, &format!("/d{d}"), 0o755).unwrap();
            for f in 0..8 {
                let path = format!("/d{d}/f{f}");
                let fd = k.open(&p, &path, OpenFlags::create(), 0o644).unwrap();
                k.write_fd(&p, fd, b"x").unwrap();
                k.close(&p, fd).unwrap();
            }
        }
        for d in 0..4 {
            for f in 0..8 {
                k.stat(&p, &format!("/d{d}/f{f}")).unwrap();
            }
            assert!(k.stat(&p, &format!("/d{d}/missing")).is_err());
        }
        k.drop_caches();
        for d in 0..4 {
            for f in 0..8 {
                k.stat(&p, &format!("/d{d}/f{f}")).unwrap();
            }
        }
        for f in 0..8 {
            k.unlink(&p, &format!("/d0/f{f}")).unwrap();
        }

        let obs = k.obs().obs().expect("recorder is enabled");
        let stats = &k.dcache.stats;
        let ev = |kind| obs.event_count(kind);
        let st = |c: &dcache_core::Counter| c.load(Ordering::Relaxed);

        // Each event fires exactly where its stats counter is bumped.
        assert_eq!(ev(EventKind::LookupStart), st(&stats.lookups));
        assert_eq!(ev(EventKind::SlowStep), st(&stats.slow_steps));
        assert_eq!(ev(EventKind::FsMiss), st(&stats.miss_fs));
        assert_eq!(ev(EventKind::SeqRetry), st(&stats.slow_retries));
        // Every lookup that starts must end, with some outcome.
        let ends = ev(EventKind::LookupEndPositive)
            + ev(EventKind::LookupEndNegative)
            + ev(EventKind::LookupEndError);
        assert_eq!(ends, ev(EventKind::LookupStart));
        // The workload really did take both kinds of path.
        assert!(st(&stats.lookups) > 0);
        assert!(st(&stats.miss_fs) > 0, "cache drop must force fs lookups");
        assert!(ev(EventKind::LookupEndNegative) > 0);

        // DLHT/PCC probes only exist on the fastpath.
        let probes = ev(EventKind::DlhtProbeHit) + ev(EventKind::DlhtProbeMiss);
        if k.dcache.config.fastpath {
            assert!(probes > 0, "optimized config must probe the DLHT");
        } else {
            assert_eq!(probes, 0, "baseline config has no fastpath probes");
        }

        // Histograms captured the ops the workload issued.
        for op in [OpClass::AccessStat, OpClass::Open, OpClass::Unlink] {
            assert!(obs.hist(op).count() > 0, "histogram for {:?} is empty", op);
        }
        assert!(obs.hist(OpClass::AccessStat).max() > 0);

        // The trace ring holds real spans from this workload.
        assert!(!obs.ring().snapshot().is_empty());

        // reset_stats clears events, histograms, and the ring together.
        k.reset_stats();
        assert_eq!(ev(EventKind::LookupStart), 0);
        assert_eq!(obs.hist(OpClass::AccessStat).count(), 0);
        assert!(obs.ring().snapshot().is_empty());
        assert_eq!(st(&stats.lookups), 0);
    }
}

/// The §14 tenancy counters reconcile the same way: every PCC eviction
/// and namespace teardown fires one trace event at the site that bumps
/// the matching `DcacheStats` counter, and `reset_stats` clears both.
#[test]
fn tenancy_events_reconcile_with_stats() {
    // 2 × 16 × 64 KiB: a resident-PCC cap of 2.
    let k = obs_kernel(DcacheConfig::optimized().with_mem_budget(2 << 20));
    let init = k.init_process();
    k.mkdir(&init, "/t", 0o755).unwrap();
    for f in 0..6 {
        let fd = k
            .open(&init, &format!("/t/f{f}"), OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&init, fd).unwrap();
    }

    // Three tenants; each namespace walks the tree under four distinct
    // credentials, so 12 PCC attaches squeeze through a cap of 2.
    let mut ns_ids = Vec::new();
    for t in 0..3u32 {
        let proc = k.spawn(&init);
        let ns = k.unshare_ns(&proc).unwrap();
        ns_ids.push(ns.id);
        for c in 0..4u32 {
            proc.set_cred(dc_vfs::Cred::user(3000 + t * 4 + c, 300));
            for f in 0..6 {
                k.stat(&proc, &format!("/t/f{f}")).unwrap();
            }
        }
    }
    let reports: Vec<_> = ns_ids
        .iter()
        .filter_map(|&ns| k.destroy_namespace(ns))
        .collect();
    assert_eq!(reports.len(), 3);

    let obs = k.obs().obs().expect("recorder is enabled");
    let stats = &k.dcache.stats;
    let ev = |kind| obs.event_count(kind);
    let st = |c: &dcache_core::Counter| c.load(Ordering::Relaxed);

    assert!(st(&stats.pcc_evictions) > 0, "cap of 2 must have evicted");
    assert_eq!(ev(EventKind::PccEvict), st(&stats.pcc_evictions));
    assert_eq!(ev(EventKind::NsTeardown), st(&stats.ns_teardowns));
    assert_eq!(st(&stats.ns_teardowns), 3);
    assert_eq!(
        st(&stats.pccs_detached),
        reports.iter().map(|r| r.pccs_detached).sum::<u64>()
    );
    assert_eq!(
        st(&stats.teardown_entries),
        reports.iter().map(|r| r.dlht_entries).sum::<u64>()
    );

    // reset_stats covers the tenancy counters like every other one.
    k.reset_stats();
    assert_eq!(ev(EventKind::PccEvict), 0);
    assert_eq!(ev(EventKind::NsTeardown), 0);
    assert_eq!(st(&stats.pcc_evictions), 0);
    assert_eq!(st(&stats.pccs_detached), 0);
    assert_eq!(st(&stats.ns_teardowns), 0);
    assert_eq!(st(&stats.teardown_entries), 0);
}

/// The warm-restart counters reconcile the same way: one
/// `WarmCheckpoint` event per persisted checkpoint, one `WarmRestart`
/// event per rehydration attempt, each fired at the site that bumps the
/// matching `DcacheStats` counter — and `reset_stats` clears both.
#[test]
fn warm_events_reconcile_with_stats() {
    let k = obs_kernel(DcacheConfig::optimized());
    let p = k.init_process();
    k.mkdir(&p, "/w", 0o755).unwrap();
    for f in 0..5 {
        let fd = k
            .open(&p, &format!("/w/f{f}"), OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&p, fd).unwrap();
    }
    let kept = k.warm_checkpoint().unwrap();
    assert!(kept >= 6, "dir + 5 files expected, kept {kept}");
    let outcome = k.warm_restart().unwrap();
    assert!(outcome.fallback.is_none());
    assert_eq!(outcome.published, outcome.attempted);

    let obs = k.obs().obs().expect("recorder is enabled");
    let stats = &k.dcache.stats;
    let ev = |kind| obs.event_count(kind);
    let st = |c: &dcache_core::Counter| c.load(Ordering::Relaxed);

    assert_eq!(ev(EventKind::WarmCheckpoint), st(&stats.warm_checkpoints));
    assert_eq!(st(&stats.warm_checkpoints), 1);
    assert_eq!(ev(EventKind::WarmRestart), st(&stats.warm_restart_attempts));
    assert_eq!(st(&stats.warm_restart_attempts), 1);
    assert_eq!(st(&stats.warm_restart_published), outcome.published);
    assert_eq!(st(&stats.warm_restart_rejected), outcome.rejected);
    assert_eq!(st(&stats.warm_restart_fallbacks), 0);

    // Both exporters carry the counters under their stable keys.
    let snap = k.metrics_snapshot();
    assert_eq!(snap.counter("dcache", "warm_checkpoints"), Some(1));
    assert_eq!(
        snap.counter("dcache", "warm_restart_published"),
        Some(outcome.published)
    );

    k.reset_stats();
    assert_eq!(ev(EventKind::WarmCheckpoint), 0);
    assert_eq!(ev(EventKind::WarmRestart), 0);
    assert_eq!(st(&stats.warm_checkpoints), 0);
    assert_eq!(st(&stats.warm_restart_attempts), 0);
    assert_eq!(st(&stats.warm_restart_published), 0);
}

#[test]
fn snapshot_rates_match_stats_helpers() {
    let k = obs_kernel(DcacheConfig::optimized());
    let p = k.init_process();
    k.mkdir(&p, "/a", 0o755).unwrap();
    let fd = k.open(&p, "/a/f", OpenFlags::create(), 0o644).unwrap();
    k.close(&p, fd).unwrap();
    for _ in 0..50 {
        k.stat(&p, "/a/f").unwrap();
    }
    let snap = k.metrics_snapshot();
    let stats = &k.dcache.stats;
    let rate = |key: &str| {
        snap.rate("dcache", key)
            .unwrap_or_else(|| panic!("rate {key} missing from snapshot"))
    };
    assert!((rate("hit_rate") - stats.hit_rate()).abs() < 1e-9);
    assert!((rate("fastpath_rate") - stats.fastpath_rate()).abs() < 1e-9);
    assert!((rate("neg_hit_rate") - stats.neg_hit_rate()).abs() < 1e-9);
    // The snapshot carries the histogram of the op that was issued.
    assert!(snap.hist("stat").unwrap().count >= 50);
}

/// An observed kernel on an explicit journaled memfs, which the test
/// keeps a handle on.
fn journaled_kernel() -> (std::sync::Arc<dc_vfs::Kernel>, std::sync::Arc<dc_fs::MemFs>) {
    let disk = std::sync::Arc::new(dc_blockdev::CachedDisk::new(dc_blockdev::DiskConfig {
        capacity_blocks: 1 << 14,
        ..Default::default()
    }));
    let config = dc_fs::MemFsConfig {
        max_inodes: 1 << 10,
        ..Default::default()
    };
    let memfs = dc_fs::MemFs::mkfs(disk, config).unwrap();
    let k = KernelBuilder::new(DcacheConfig::optimized())
        .observability(ObsConfig::default())
        .root_fs(memfs.clone())
        .build()
        .unwrap();
    (k, memfs)
}

/// A small create / stat / unlink / readdir mix.
fn small_mix(k: &dc_vfs::Kernel) {
    let p = k.init_process();
    k.mkdir(&p, "/m", 0o755).unwrap();
    for f in 0..6 {
        let path = format!("/m/f{f}");
        let fd = k.open(&p, &path, OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        k.stat(&p, &path).unwrap();
    }
    k.drop_caches();
    for f in 0..6 {
        k.stat(&p, &format!("/m/f{f}")).unwrap();
    }
    k.unlink(&p, "/m/f0").unwrap();
    let fd = k.open(&p, "/m", OpenFlags::directory(), 0).unwrap();
    k.readdir(&p, fd, 64).unwrap();
    k.close(&p, fd).unwrap();
}

/// The kernel walks one list of sources to export and the same list to
/// reset: what the file system was asked is a section like any other,
/// and a reset leaves nothing standing but the gauges.
#[test]
fn every_source_is_exported_and_reset_together() {
    use dc_fs::FileSystem;
    use dc_obs::MetricSource;
    let (k, memfs) = journaled_kernel();
    small_mix(&k);

    let snap = k.metrics_snapshot();
    let (lookups, readdirs, getattrs, mutations) = memfs.stats().snapshot();
    assert!(lookups > 0 && getattrs > 0 && mutations > 0);
    assert_eq!(snap.counter("fs", "lookups"), Some(lookups));
    assert_eq!(snap.counter("fs", "readdirs"), Some(readdirs));
    assert_eq!(snap.counter("fs", "getattrs"), Some(getattrs));
    assert_eq!(snap.counter("fs", "mutations"), Some(mutations));
    assert!(snap.counter("journal", "commits").unwrap() > 0);
    assert_eq!(
        snap.counter("events", "journal_commit"),
        snap.counter("journal", "commits")
    );

    // The journal's source zeroes its own counters.
    MetricSource::reset(memfs.journal_counters());
    assert_eq!(k.metrics_snapshot().counter("journal", "commits"), Some(0));

    small_mix_again(&k);
    k.reset_stats();
    let snap = k.metrics_snapshot();
    const GAUGES: [(&str, &str); 1] = [("pagecache", "resident_pages")];
    for section in &snap.sections {
        for (key, value) in &section.counters {
            if !GAUGES.contains(&(section.name.as_str(), key.as_str())) {
                assert_eq!(*value, 0, "{}.{key} survived reset_stats", section.name);
            }
        }
    }
    assert!(snap.hists.is_empty(), "{:?}", snap.hists);
    assert_eq!(memfs.stats().snapshot(), (0, 0, 0, 0));
    assert_eq!(memfs.journal_stats().unwrap().commits, 0);
}

/// More of every counter after the first snapshot, so the reset has
/// something to clear in each section.
fn small_mix_again(k: &dc_vfs::Kernel) {
    let p = k.init_process();
    k.mkdir(&p, "/n", 0o755).unwrap();
    k.stat(&p, "/n").unwrap();
    k.drop_caches();
    k.stat(&p, "/m/f1").unwrap();
}

/// The exported names are an interface (`repro --metrics-out`, the verify
/// recipe's reconciliation invariants, CI): every `section.key` of the
/// kernel's own sources, in export order.
#[test]
fn the_exported_names_are_pinned() {
    #[rustfmt::skip]
    const GOLDEN: &[(&str, &[&str])] = &[
        ("dcache", &[
            "lookups", "fast_attempts", "fast_hits", "fast_neg_hits", "fast_miss_dlht",
            "fast_miss_pcc", "fast_revalidations", "fast_miss_seq", "slow_walks", "slow_steps",
            "slow_retries", "read_retries", "epoch_pins", "hit_positive", "hit_negative",
            "miss_fs", "complete_neg_avoided", "complete_sets", "complete_breaks",
            "readdir_cached", "readdir_fs", "neg_created", "neg_deep_created", "evictions",
            "shootdowns", "shootdown_visits", "symlink_aliases", "shrinks", "shrink_bytes_freed",
            "pcc_evictions", "pccs_detached", "ns_teardowns", "teardown_entries",
            "warm_checkpoints", "warm_restart_attempts", "warm_restart_published",
            "warm_restart_rejected", "warm_restart_fallbacks",
        ]),
        ("fs", &["lookups", "readdirs", "getattrs", "mutations"]),
        ("pagecache", &[
            "cache_hits", "cache_misses", "device_reads", "device_writes", "writebacks",
            "simulated_io_ns", "resident_pages", "io_retries", "io_errors", "faults_injected",
        ]),
        ("journal", &[
            "commits", "blocks_logged", "checkpoints", "forced_checkpoints", "replayed_txns",
        ]),
        ("events", &[
            "lookup_start", "dlht_probe_hit", "dlht_probe_miss", "pcc_hit", "pcc_stale",
            "pcc_miss", "seq_retry", "epoch_pin", "read_retry", "slow_step", "fs_miss",
            "block_io", "lookup_end_positive", "lookup_end_negative", "lookup_end_error",
            "fault_injected", "io_retry", "shrink", "journal_commit", "journal_replay",
            "journal_checkpoint", "serve_batch", "serve_reject", "serve_conn", "pcc_evict",
            "ns_teardown", "warm_checkpoint", "warm_restart",
        ]),
    ];
    let (k, _memfs) = journaled_kernel();
    // One sample in every class, so every histogram key shows.
    for class in OpClass::ALL {
        k.obs().time(*class, || ());
    }
    let snap = k.metrics_snapshot();
    let exported: Vec<(&str, Vec<&str>)> = snap
        .sections
        .iter()
        .map(|s| (&*s.name, s.counters.iter().map(|(k, _)| &**k).collect()))
        .collect();
    let golden: Vec<(&str, Vec<&str>)> = GOLDEN.iter().map(|(s, k)| (*s, k.to_vec())).collect();
    assert_eq!(exported, golden);
    let rates: Vec<&str> = snap.rates.iter().map(|(k, _)| &**k).collect();
    assert_eq!(
        rates,
        [
            "dcache.hit_rate",
            "dcache.fastpath_rate",
            "dcache.neg_hit_rate"
        ]
    );
    let hists: Vec<&str> = snap.hists.iter().map(|(k, _)| &**k).collect();
    #[rustfmt::skip]
    assert_eq!(hists, [
        "stat", "open", "chmod_chown", "unlink", "other_meta", "readdir", "io", "other",
    ]);
}

/// Observability on, every syscall lands exactly one sample in its
/// class's histogram; off, there are no histograms to export. Either
/// way no `syscalls` section is exported: the histograms are the one
/// per-class record.
#[test]
fn each_syscall_lands_one_sample_in_its_class() {
    #[rustfmt::skip]
    const ISSUED: [(OpClass, u64); 8] = [
        (OpClass::AccessStat, 2), (OpClass::Open, 3), (OpClass::ChmodChown, 1),
        (OpClass::Unlink, 1), (OpClass::OtherMeta, 1), (OpClass::Readdir, 1),
        (OpClass::Io, 2), (OpClass::Other, 3),
    ];
    for observed in [true, false] {
        let mut b = KernelBuilder::new(DcacheConfig::optimized());
        if observed {
            b = b.observability(ObsConfig::default());
        }
        let k = b.build().unwrap();
        let p = k.init_process();
        k.mkdir(&p, "/c", 0o755).unwrap();
        k.reset_stats();

        let fd = k.open(&p, "/c/f", OpenFlags::create(), 0o644).unwrap();
        k.write_fd(&p, fd, b"abc").unwrap();
        k.close(&p, fd).unwrap();
        k.stat(&p, "/c/f").unwrap();
        assert!(k.stat(&p, "/c/missing").is_err());
        k.chmod(&p, "/c/f", 0o600).unwrap();
        k.rename(&p, "/c/f", "/c/g").unwrap();
        let fd = k.open(&p, "/c/g", OpenFlags::read_only(), 0).unwrap();
        k.read_fd(&p, fd, 16).unwrap();
        k.close(&p, fd).unwrap();
        let dir = k.open(&p, "/c", OpenFlags::directory(), 0).unwrap();
        k.readdir(&p, dir, 64).unwrap();
        k.close(&p, dir).unwrap();
        k.unlink(&p, "/c/g").unwrap();

        let snap = k.metrics_snapshot();
        assert!(snap.sections.iter().all(|s| s.name != "syscalls"));
        match k.obs().obs() {
            Some(obs) => {
                for (class, calls) in ISSUED {
                    assert_eq!(obs.hist(class).count(), calls, "{class:?}");
                }
            }
            None => assert!(snap.hists.is_empty(), "{:?}", snap.hists),
        }
        assert_eq!(k.obs().is_enabled(), observed);
    }
}
