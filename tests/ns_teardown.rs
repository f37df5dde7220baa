//! Acceptance for §14 namespace teardown: destroying a tenant namespace
//! while readers race through it must return **every** dentry, DLHT
//! chain, and PCC line once the epoch collector drains — and the
//! teardown itself must cost O(tenant), measured here as a constant
//! number of lock acquisitions regardless of how many entries the
//! tenant's DLHT holds.
//!
//! Runs without the libtest harness (`harness = false` in Cargo.toml):
//! the lock-acquisition counter in the vendored `parking_lot` shim is
//! process-global, so the constant-lock-cost window must not overlap
//! the racing-reader scenario's threads.

use dcache_repro::vfs::Cred;
use dcache_repro::{DcacheConfig, KernelBuilder, OpenFlags};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const READERS: usize = 8;
const TENANT_FILES: usize = 48;

fn main() {
    teardown_under_racing_readers_reclaims_everything();
    teardown_lock_cost_is_constant();
    println!("ns_teardown: ok (leak-free under {READERS} racing readers, O(1) teardown locks)");
}

/// A budget whose resident-PCC cap is 64 (64 × 16 × 64 KiB).
fn tenancy_config() -> DcacheConfig {
    DcacheConfig::optimized().with_mem_budget(64 << 20)
}

/// Epoch-drain loop: retired garbage frees a collection cycle or two
/// after the last guard drops, so evict + flush until the numbers stop
/// moving.
fn drain(dcache: &dcache_repro::dcache::Dcache) {
    for _ in 0..4 {
        dcache.drop_unused();
        dcache.flush_all_pccs();
        crossbeam_epoch::pin().flush();
        crossbeam_epoch::pin().flush();
    }
}

fn teardown_under_racing_readers_reclaims_everything() {
    let k = KernelBuilder::new(tenancy_config()).build().unwrap();
    let init = k.init_process();

    // Pin the baseline: only init-namespace state exists.
    k.mkdir(&init, "/tenants", 0o755).unwrap();
    k.stat(&init, "/tenants").unwrap();
    drain(&k.dcache);
    let base_bytes = k.dcache.reclaimable_bytes();
    let base_tables = k.dcache.dlht_count();
    let base_dentries = k.dcache.live();
    let base_pccs = k.dcache.resident_pccs();

    // One tenant: its own namespace, tree, and credentials.
    let tenant = k.spawn(&init);
    let ns = k.unshare_ns(&tenant).unwrap();
    let ns_id = ns.id;
    k.mkdir(&tenant, "/tenants/t0", 0o755).unwrap();
    let files: Vec<String> = (0..TENANT_FILES)
        .map(|j| {
            let p = format!("/tenants/t0/f{j}");
            let fd = k.open(&tenant, &p, OpenFlags::create(), 0o644).unwrap();
            k.close(&tenant, fd).unwrap();
            p
        })
        .collect();
    let cred = Cred::user(4000, 400);
    k.chown(&tenant, "/tenants/t0", Some(cred.uid), Some(400))
        .unwrap();
    tenant.set_cred(cred);
    for f in &files {
        k.stat(&tenant, f).unwrap();
    }
    assert_eq!(k.dcache.dlht_count(), base_tables + 1);
    let (pccs, pcc_bytes) = k.dcache.pcc_stats_for_ns(ns.id);
    assert!(pccs > 0 && pcc_bytes > 0, "tenant walks must attach a PCC");

    // 8 readers hammer the tenant tree through the tenant's namespace
    // while the main thread tears that namespace down underneath them.
    // Reads must keep succeeding: the retired DLHT serves in-flight
    // walks until its last holder drops, and the dentry forest (shared
    // superblock) outlives the namespace.
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..READERS)
        .map(|r| {
            let k = k.clone();
            let proc = k.spawn(&tenant);
            let files = files.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = r;
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    k.stat(&proc, &files[i % files.len()]).unwrap();
                    i += 1;
                    ok += 1;
                }
                ok
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(20));
    let report = k.destroy_namespace(ns_id).expect("namespace is live");
    assert!(
        report.dlht_entries > 0,
        "teardown must retire the tenant table"
    );
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let reads: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(reads > 0, "readers never ran");
    assert!(
        k.destroy_namespace(ns_id).is_none(),
        "second teardown is a no-op"
    );

    // Release every handle the test still holds, delete the tenant tree
    // from the (shared) forest, and drain the collector.
    drop(tenant);
    drop(ns);
    for f in &files {
        k.unlink(&init, f).unwrap();
    }
    k.rmdir(&init, "/tenants/t0").unwrap();
    drain(&k.dcache);

    // Everything the tenant allocated came back.
    assert_eq!(k.dcache.dlht_count(), base_tables, "tenant DLHT leaked");
    let ns_fp: Vec<_> = k
        .dcache
        .ns_footprints()
        .into_iter()
        .filter(|(id, _)| *id == ns_id)
        .collect();
    assert!(ns_fp.is_empty(), "retired namespace still registered");
    assert_eq!(
        k.dcache.pcc_stats_for_ns(ns_id),
        (0, 0),
        "PCC lines leaked past teardown"
    );
    assert!(
        k.dcache.resident_pccs() <= base_pccs,
        "fleet-wide PCC count grew: {} > {}",
        k.dcache.resident_pccs(),
        base_pccs
    );
    assert!(
        k.dcache.live() <= base_dentries,
        "dentries leaked past teardown + unlink: {} > {}",
        k.dcache.live(),
        base_dentries
    );
    assert!(
        k.dcache.reclaimable_bytes() <= base_bytes,
        "footprint leaked: {} > baseline {}",
        k.dcache.reclaimable_bytes(),
        base_bytes
    );
}

/// Teardown cost must not scale with the tenant's cached state: the
/// namespace-map removal, PCC detach scan, and DLHT retire each take a
/// bounded number of locks, and no per-entry unlinking happens (entries
/// die wholesale with the table).
fn teardown_lock_cost_is_constant() {
    let mut costs = Vec::new();
    for files in [32usize, 256] {
        let k = KernelBuilder::new(tenancy_config()).build().unwrap();
        let init = k.init_process();
        k.mkdir(&init, "/t", 0o755).unwrap();
        let tenant = k.spawn(&init);
        let ns = k.unshare_ns(&tenant).unwrap();
        for j in 0..files {
            let p = format!("/t/f{j}");
            let fd = k.open(&tenant, &p, OpenFlags::create(), 0o644).unwrap();
            k.close(&tenant, fd).unwrap();
            k.stat(&tenant, &p).unwrap();
        }

        let before = parking_lot::lock_acquisitions();
        let report = k.destroy_namespace(ns.id).unwrap();
        let cost = parking_lot::lock_acquisitions() - before;
        assert!(report.dlht_entries as usize >= files, "table was not warm");
        costs.push((files, report.dlht_entries, cost));
    }
    let small = costs[0].2;
    let large = costs[1].2;
    assert!(
        large <= small + 8,
        "teardown locks scale with entries: {costs:?}"
    );
    assert!(
        small <= 32,
        "teardown takes more than a constant handful of locks: {costs:?}"
    );
}
