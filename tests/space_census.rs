//! Space census (§6.1): a cached dentry costs what it holds, and
//! `space_report()` counts all of it.
//!
//! The structs are pinned by size; on a warmed tree the DLHT is one
//! bucket array plus one node per entry, a one-entry bucket allocates no
//! empty slot, and a symlink's boxed link signature shows up in the
//! snapshot slab's bytes (DESIGN.md §13.3 records why a footprint that
//! misses bytes outside the slab reads *lower* while the process grows).
//! The footprint memory pressure works against, counted rather than
//! walked, equals the walked one after every kind of change (§10.3).
//!
//! One test in its own binary: the snapshot slab and its link-signature
//! count are process-wide, so nothing else may publish mid-check.

use dcache_repro::dcache::{snapslab, DentrySnap, Dlht, DlhtFootprint, Signature};
use dcache_repro::{DcacheConfig, Dentry, KernelBuilder, OpenFlags};
use std::mem::size_of;

/// Runs every retirement the epoch collector holds.
fn settle() {
    for _ in 0..4 {
        crossbeam_epoch::pin().flush();
    }
}

#[test]
fn a_cached_dentry_costs_what_it_holds_and_the_report_counts_it() {
    assert!(
        size_of::<Dentry>() <= 184,
        "Dentry is {} B",
        size_of::<Dentry>()
    );
    assert!(
        size_of::<DentrySnap>() <= 112,
        "DentrySnap is {} B",
        size_of::<DentrySnap>()
    );

    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(7))
        .build()
        .unwrap();
    let p = k.init_process();
    let mut paths = Vec::new();
    for d in 0..8 {
        let dir = format!("/d{d}");
        k.mkdir(&p, &dir, 0o755).unwrap();
        for f in 0..16 {
            let file = format!("{dir}/f{f}");
            let fd = k.open(&p, &file, OpenFlags::create(), 0o644).unwrap();
            k.close(&p, fd).unwrap();
            paths.push(file);
        }
        paths.push(dir);
    }
    k.symlink(&p, "/d0/f0", "/l").unwrap();
    for _ in 0..2 {
        for path in paths.iter().map(String::as_str).chain(["/l"]) {
            k.stat(&p, path).unwrap();
        }
    }
    settle();

    // The DLHT: a bucket array plus exactly one 64-byte node per entry.
    let table = k.dcache.dlht_for(k.init_namespace().id);
    let fp = table.footprint();
    assert_eq!((fp.bucket_bytes, fp.entry_bytes), (8, 64));
    assert!(
        fp.entries > paths.len() as u64,
        "the warm tree is published"
    );
    assert_eq!(fp.entries, table.len(), "walked entries match the count");
    assert_eq!(fp.total_bytes(), fp.buckets * 8 + fp.entries as usize * 64);
    let report = k.dcache.space_report();
    assert_eq!(report.dlht_bytes, fp.total_bytes());
    assert_eq!(report.dlht_entries, fp.entries);

    // A symlink's link signature lives outside the slab slot and is
    // counted with it.
    let link = p.root().dentry.get_child("l").expect("/l is cached");
    assert!(
        link.view(&crossbeam_epoch::pin()).link_sig.is_some(),
        "the follow stored /l's link signature"
    );
    let slab = snapslab::footprint();
    assert!(slab.link_sigs >= 1);
    assert_eq!(
        slab.total_bytes(),
        slab.blocks * slab.block_slots * slab.slot_bytes + slab.link_sigs * size_of::<Signature>()
    );
    assert_eq!(k.dcache.space_report().snap_slab_bytes, slab.total_bytes());
    k.unlink(&p, "/l").unwrap();
    settle();
    assert_eq!(
        snapslab::footprint().link_sigs,
        slab.link_sigs - 1,
        "the unlinked link's signature was freed and uncounted"
    );

    // A one-entry bucket holds one node and no empty slot. Moving a
    // dentry's membership into a fresh table also returns its node in
    // the namespace's table.
    let solo = Dlht::new(1, 1 << 4);
    let d0 = p.root().dentry.get_child("d0").expect("/d0 is cached");
    let before = table.footprint().entries;
    let sig = k.dcache.key.hash_components([b"solo".as_slice()]);
    assert!(k.dcache.dlht_insert_in(&solo, sig, &d0));
    assert_eq!(solo.occupancy(), [15, 1, 0, 0]);
    assert_eq!(solo.footprint().total_bytes(), 16 * 8 + 64);
    assert_eq!(table.footprint().entries, before - 1);

    // The counted footprint is the walked one, through creates in a
    // tenant namespace, a rename's re-signs, a shrink and the tenant's
    // teardown.
    let walked = || {
        let nodes: u64 = k
            .dcache
            .ns_footprints()
            .iter()
            .map(|(_, fp)| fp.entries * fp.entry_bytes as u64)
            .sum();
        k.dcache.live() * size_of::<Dentry>() as u64 + nodes
    };
    let counted_is_walked = |when: &str| {
        settle();
        assert_eq!(k.dcache.reclaimable_bytes(), walked(), "after {when}");
    };
    let tenant = k.spawn(&p);
    let ns = k.unshare_ns(&tenant).unwrap();
    k.mkdir(&tenant, "/t", 0o755).unwrap();
    for f in 0..24 {
        let file = format!("/t/f{f}");
        let fd = k.open(&tenant, &file, OpenFlags::create(), 0o644).unwrap();
        k.close(&tenant, fd).unwrap();
        k.stat(&tenant, &file).unwrap();
    }
    counted_is_walked("creates");
    let tenant_entries = |(id, fp): &(u64, DlhtFootprint)| *id == ns.id && fp.entries > 0;
    assert!(k.dcache.ns_footprints().iter().any(tenant_entries));
    k.rename(&p, "/d1", "/r1").unwrap();
    for f in 0..16 {
        k.stat(&p, &format!("/r1/f{f}")).unwrap();
    }
    counted_is_walked("re-signs");
    assert!(k.dcache.shrink(40) > 0);
    counted_is_walked("a shrink");
    k.destroy_namespace(ns.id).unwrap();
    counted_is_walked("a namespace teardown");
}
