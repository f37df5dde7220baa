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
    let config = DcacheConfig::optimized()
        .with_tenant_buckets(64)
        .with_pcc_max_resident(2);
    let k = obs_kernel(config);
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
    let json = snap.to_json();
    let text = snap.to_text();
    for key in ["warm_checkpoints", "warm_restart_published"] {
        assert!(json.contains(key), "{key} missing from JSON export");
        assert!(text.contains(key), "{key} missing from text export");
    }

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
        snap.rates
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("rate {key} missing from snapshot"))
    };
    assert!((rate("dcache.hit_rate") - stats.hit_rate()).abs() < 1e-9);
    assert!((rate("dcache.fastpath_rate") - stats.fastpath_rate()).abs() < 1e-9);
    assert!((rate("dcache.neg_hit_rate") - stats.neg_hit_rate()).abs() < 1e-9);
    // The JSON export carries the histogram section for issued ops.
    let json = snap.to_json();
    assert!(json.contains("\"schema\": \"dcache-metrics/v1\""));
    assert!(json.contains("\"stat\""));
}
