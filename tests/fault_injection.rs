//! Fault injection through the full stack: device → page cache → memfs →
//! VFS syscalls → fastpath.
//!
//! Transient faults must be absorbed by the page cache's bounded retry;
//! permanent faults must surface as clean `EIO` (never a panic, never a
//! cached negative dentry) and heal when the device does.

use dcache_repro::blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dcache_repro::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule, IoOp};
use dcache_repro::fs::{fsck, FileSystem, FsError, MemFs, MemFsConfig};
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

/// A kernel whose root memfs sits on a disk with `plan` attached
/// (disarmed). Returns the injector and the disk for the test to drive.
fn faulty_kernel(
    config: DcacheConfig,
    plan: FaultPlan,
) -> (Arc<Kernel>, Arc<FaultInjector>, Arc<CachedDisk>) {
    let disk = Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks: 1 << 16,
        latency: LatencyModel::free(),
        ..Default::default()
    }));
    let injector = Arc::new(plan.build());
    disk.attach_fault_injector(injector.clone());
    let memfs = MemFs::mkfs(
        disk.clone(),
        MemFsConfig {
            max_inodes: 1 << 16,
            ..Default::default()
        },
    )
    .unwrap();
    let kernel = KernelBuilder::new(config.with_seed(0xFA_017))
        .root_fs(memfs)
        .build()
        .unwrap();
    (kernel, injector, disk)
}

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

#[test]
fn transient_faults_are_invisible_to_syscalls() {
    let plan = FaultPlan::new(0x7AB5)
        .transient(IoOp::Read, 0.05, 2)
        .transient(IoOp::Write, 0.02, 1)
        .short_read(0.01);
    let (k, inj, disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    inj.arm();
    for d in 0..4 {
        k.mkdir(&p, &format!("/d{d}"), 0o755).unwrap();
        for f in 0..64 {
            touch(&k, &p, &format!("/d{d}/f{f}"));
        }
    }
    // Force real device reads, repeatedly: every stat below misses the
    // page cache and runs the retry gauntlet.
    for round in 0..4 {
        k.drop_caches();
        for d in 0..4 {
            for f in 0..64 {
                let a = k
                    .stat(&p, &format!("/d{d}/f{f}"))
                    .unwrap_or_else(|e| panic!("round {round}: /d{d}/f{f} failed with {e:?}"));
                assert_eq!(a.ftype, dcache_repro::fs::FileType::Regular);
            }
            assert_eq!(k.list_dir(&p, &format!("/d{d}")).unwrap().len(), 64);
        }
    }
    let s = disk.stats();
    assert!(inj.stats().total() > 0, "faults actually fired");
    assert!(s.io_retries > 0, "retries absorbed the transients");
    assert_eq!(s.io_errors, 0, "nothing leaked past the retry budget");
}

#[test]
fn permanent_faults_surface_eio_and_heal() {
    let plan = FaultPlan::new(0xDEAD).permanent(IoOp::Read, 1.0);
    let (k, inj, _disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    k.mkdir(&p, "/a", 0o755).unwrap();
    k.mkdir(&p, "/a/b", 0o755).unwrap();
    touch(&k, &p, "/a/b/f");

    // Warm: everything is served from the dcache, faults can't bite.
    inj.arm();
    assert!(k.stat(&p, "/a/b/f").is_ok(), "cached path unaffected");

    // Cold: the walk needs the device and must fail with a clean EIO.
    k.drop_caches();
    assert_eq!(k.stat(&p, "/a/b/f"), Err(FsError::Io));
    assert_eq!(k.list_dir(&p, "/a"), Err(FsError::Io));
    assert!(
        k.open(&p, "/a/b/f", OpenFlags::read_only(), 0).is_err(),
        "open fails cleanly too"
    );

    // Healing: disarm clears the broken-block set; everything recovers
    // and the cache re-populates.
    inj.disarm();
    assert!(k.stat(&p, "/a/b/f").is_ok(), "device healed");
    assert_eq!(k.list_dir(&p, "/a").unwrap().len(), 1);
    let hits_before = k
        .dcache
        .stats
        .fast_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(k.stat(&p, "/a/b/f").is_ok());
    assert!(
        k.dcache
            .stats
            .fast_hits
            .load(std::sync::atomic::Ordering::Relaxed)
            > hits_before,
        "fastpath repopulated after recovery"
    );
}

#[test]
fn list_dir_closes_its_fd_when_readdir_fails() {
    let plan = FaultPlan::new(0x1EAC).permanent(IoOp::Read, 1.0);
    let (k, inj, disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    k.mkdir(&p, "/a", 0o755).unwrap();
    touch(&k, &p, "/a/f");
    // The directory's dentry and inode cached, its block not: the open
    // succeeds from the dcache and the first readdir batch needs the
    // device.
    k.drop_caches();
    k.stat(&p, "/a").unwrap();
    disk.drop_caches();
    let fds_before = p.open_fds();
    inj.arm();
    assert_eq!(k.list_dir(&p, "/a"), Err(FsError::Io));
    assert_eq!(p.open_fds(), fds_before, "failed list_dir leaked its fd");
    inj.disarm();
    assert_eq!(k.list_dir(&p, "/a").unwrap().len(), 1);
    assert_eq!(p.open_fds(), fds_before);
}

#[test]
fn eio_never_creates_negative_dentries() {
    let plan = FaultPlan::new(0xBADB).permanent(IoOp::Read, 1.0);
    let (k, inj, _disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    k.mkdir(&p, "/dir", 0o755).unwrap();
    touch(&k, &p, "/dir/real");
    k.drop_caches();
    inj.arm();
    // Both a real and a missing path answer EIO while the device is
    // broken — the kernel cannot know which is which.
    assert_eq!(k.stat(&p, "/dir/real"), Err(FsError::Io));
    assert_eq!(k.stat(&p, "/dir/ghost"), Err(FsError::Io));
    inj.disarm();
    // After healing, the truth — not a cached EIO-era answer.
    assert!(
        k.stat(&p, "/dir/real").is_ok(),
        "EIO must not have cached a negative dentry for a real file"
    );
    assert_eq!(k.stat(&p, "/dir/ghost"), Err(FsError::NoEnt));
}

#[test]
fn sync_reports_and_survives_write_faults() {
    let plan = FaultPlan::new(0x5CBE).permanent(IoOp::Write, 1.0);
    let (k, inj, disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    k.mkdir(&p, "/keep", 0o755).unwrap();
    let fd = k
        .open(&p, "/keep/data", OpenFlags::create(), 0o644)
        .unwrap();
    k.write_fd(&p, fd, b"must survive").unwrap();
    k.close(&p, fd).unwrap();

    // Writebacks fail while armed; sync is best-effort and must say so
    // without panicking or dropping the dirty pages.
    inj.arm();
    assert!(disk.sync().is_err(), "sync reports the device failure");
    inj.disarm();
    disk.sync().unwrap();

    // The data survived the broken-device window.
    k.drop_caches();
    let fd = k.open(&p, "/keep/data", OpenFlags::read_only(), 0).unwrap();
    let data = k.read_fd(&p, fd, 32).unwrap();
    assert_eq!(&data[..], b"must survive");
    k.close(&p, fd).unwrap();
}

#[test]
fn latency_spikes_slow_but_never_fail() {
    let plan = FaultPlan::new(0x51CC).latency_spike(IoOp::Read, 1.0, 1_000_000);
    let (k, inj, disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    touch(&k, &p, "/f");
    k.drop_caches();
    let ns_before = disk.stats().simulated_io_ns;
    inj.arm();
    assert!(k.stat(&p, "/f").is_ok());
    let ns_after = disk.stats().simulated_io_ns;
    assert!(
        ns_after >= ns_before + 1_000_000,
        "the spike charged simulated time ({ns_before} -> {ns_after})"
    );
    assert_eq!(disk.stats().io_errors, 0);
}

#[test]
fn failed_journal_commit_rolls_back_allocator_counters() {
    // A journaled op whose commit fails must leave no trace: the
    // buffered bitmap writes are discarded with the transaction, so the
    // in-memory free counters must roll back with them — otherwise
    // statfs and NoSpc checks drift from the on-disk bitmaps with every
    // faulted operation.
    let disk = Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks: 1 << 12,
        latency: LatencyModel::free(),
        ..Default::default()
    }));
    let injector = Arc::new(FaultPlan::new(0xA110).permanent(IoOp::Write, 1.0).build());
    disk.attach_fault_injector(injector.clone());
    let fs = MemFs::mkfs(
        disk.clone(),
        MemFsConfig {
            max_inodes: 1 << 10,
            ..Default::default()
        },
    )
    .unwrap();
    let r = fs.root_ino();
    // Allocate root's first directory block up front so the doomed
    // create below allocates only an inode.
    fs.create(r, "warmup", 0o644, 0, 0).unwrap();
    let before = fs.statfs().unwrap();

    injector.arm();
    assert_eq!(
        fs.create(r, "doomed", 0o644, 0, 0),
        Err(FsError::Io),
        "journal commit must fail on a broken device"
    );
    injector.disarm();

    let after = fs.statfs().unwrap();
    assert_eq!(after.ffree, before.ffree, "inode counter rolled back");
    assert_eq!(after.bfree, before.bfree, "block counter rolled back");

    // Healed device: the same create succeeds and accounts exactly once.
    fs.create(r, "doomed", 0o644, 0, 0).unwrap();
    assert_eq!(fs.statfs().unwrap().ffree, before.ffree - 1);
}

#[test]
fn failed_checkpoint_header_flush_keeps_durable_commits_recoverable() {
    // The EIO-then-crash path: a checkpoint whose header flush fails
    // must not reclaim log space in memory, or later commits overwrite
    // slots the on-disk header still points recovery at and durable
    // transactions silently vanish at the next power cut. The exact
    // wrap position depends on per-transaction slot counts, so the
    // scenario runs at several post-failure depths — every one must
    // recover every committed operation.
    for posts in 1..=6usize {
        // Tiny device: the journal clamps to 16 log slots, so a
        // handful of transactions wraps the log.
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            capacity_blocks: 512,
            latency: LatencyModel::free(),
            ..Default::default()
        }));
        let fs = MemFs::mkfs(
            disk.clone(),
            MemFsConfig {
                max_inodes: 128,
                ..Default::default()
            },
        )
        .unwrap();
        let r = fs.root_ino();
        fs.create(r, "pre", 0o644, 0, 0).unwrap();
        fs.sync().unwrap(); // durable baseline checkpoint

        // Commit live transactions, then break ONLY the journal header
        // blocks: the checkpoint's full-cache flush succeeds, the
        // header write+flush does not.
        fs.create(r, "mid0", 0o644, 0, 0).unwrap();
        fs.create(r, "mid1", 0o644, 0, 0).unwrap();
        let hdr = fs.geometry().journal_start;
        let injector = Arc::new(
            FaultPlan::new(0xC4EC)
                .rule(
                    FaultRule::new(FaultKind::Permanent, 1.0)
                        .on(IoOp::Write)
                        .blocks(hdr..hdr + 2),
                )
                .build(),
        );
        disk.attach_fault_injector(injector.clone());
        injector.arm();
        assert_eq!(fs.sync(), Err(FsError::Io), "header flush must fail");
        injector.disarm();

        // Healed device: journaled mutations continue and wrap the log.
        for i in 0..posts {
            fs.create(r, &format!("post{i}"), 0o644, 0, 0).unwrap();
        }

        // Power cut with the in-place copies of the post-failure ops
        // still dirty: only the journal can bring them back.
        disk.power_cut();
        drop(fs);
        let rfs = MemFs::mount(disk.clone()).unwrap();
        let report = fsck(&disk).unwrap();
        assert!(
            report.is_clean(),
            "posts={posts}: fsck after EIO-then-crash: {:?}",
            report.errors
        );
        let root = rfs.root_ino();
        for name in ["pre", "mid0", "mid1"]
            .into_iter()
            .map(str::to_owned)
            .chain((0..posts).map(|i| format!("post{i}")))
        {
            assert!(
                rfs.lookup(root, &name).is_ok(),
                "posts={posts}: {name} lost after EIO-then-crash recovery"
            );
        }
    }
}

#[test]
fn sync_report_enumerates_failed_pages_and_retries_losslessly() {
    let plan = FaultPlan::new(0x10B5).permanent(IoOp::Write, 1.0);
    let (k, inj, disk) = faulty_kernel(DcacheConfig::optimized(), plan);
    let p = k.init_process();
    k.mkdir(&p, "/spool", 0o755).unwrap();
    for f in 0..8 {
        let fd = k
            .open(&p, &format!("/spool/m{f}"), OpenFlags::create(), 0o644)
            .unwrap();
        k.write_fd(&p, fd, b"queued mail").unwrap();
        k.close(&p, fd).unwrap();
    }

    // Broken device: sync must say exactly which pages it could not
    // write, with a per-page error, and must keep them dirty.
    inj.arm();
    let first = disk.sync_report();
    assert!(!first.is_clean(), "a fully broken device cannot sync clean");
    assert!(!first.failed.is_empty(), "failed pages are enumerated");
    let mut first_blocks: Vec<u64> = first.failed.iter().map(|(b, _)| *b).collect();
    first_blocks.sort_unstable();
    first_blocks.dedup();
    assert_eq!(
        first_blocks.len(),
        first.failed.len(),
        "each failed page is reported once"
    );

    // A second attempt on the still-broken device sees the same pages
    // again: nothing was dropped, nothing was silently marked clean.
    let second = disk.sync_report();
    let mut second_blocks: Vec<u64> = second.failed.iter().map(|(b, _)| *b).collect();
    second_blocks.sort_unstable();
    assert_eq!(
        first_blocks, second_blocks,
        "failed pages stay dirty for lossless retry"
    );

    // Device heals: the retried sync flushes every page it previously
    // reported and comes back clean.
    inj.disarm();
    let healed = disk.sync_report();
    assert!(healed.is_clean(), "healed device syncs clean");
    assert!(
        healed.flushed >= first_blocks.len() as u64,
        "the kept-dirty pages were flushed on retry ({} < {})",
        healed.flushed,
        first_blocks.len()
    );

    // End to end: nothing was lost across the broken-device window —
    // even a power cut after the clean sync keeps the whole tree.
    drop(k);
    disk.power_cut();
    let rfs = MemFs::mount(disk.clone()).unwrap();
    let root = rfs.root_ino();
    let spool = rfs.lookup(root, "spool").unwrap();
    for f in 0..8 {
        let a = rfs.lookup(spool.ino, &format!("m{f}")).unwrap();
        assert_eq!(a.size, 11, "mail m{f} survived intact");
    }
}
