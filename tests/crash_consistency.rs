//! Crash consistency: the always-on mini power-cut campaign plus the
//! journal's durability contrasts (DESIGN.md §11).
//!
//! A seeded metadata workload runs over the journaled memfs while a
//! [`CrashMonitor`] cuts power at ~40 deterministic device-write
//! ordinals (some tearing the in-flight write). Every captured image
//! must remount, pass `fsck`, and present exactly the metadata tree of
//! a committed-operation prefix of the workload. The companion tests
//! pin the two sides of the journal's price: unsynced metadata survives
//! a cut (and a remount after recovery starts with a genuinely cold
//! cache), while warm lookups never reach the journal at all.

mod common;

use common::{apply, run_ops, Op};
use dcache_repro::blockdev::{CachedDisk, CrashMonitor, LatencyModel};
use dcache_repro::fs::{fsck, tree_sig, FileSystem, MemFs};
use dcache_repro::{DcacheConfig, KernelBuilder, OpenFlags};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const CUT_POINTS: usize = 40;
const TEAR_PROB: f64 = 0.3;
const CACHE_PAGES: usize = 256;

fn new_disk() -> Arc<CachedDisk> {
    common::new_disk(1 << 14, CACHE_PAGES)
}

fn new_fs(disk: Arc<CachedDisk>) -> Arc<MemFs> {
    common::new_fs(disk, 1 << 12)
}

const DIRS: usize = 6;

fn dirname(d: usize) -> String {
    format!("d{d}")
}

/// The deterministic op stream: creates dominate, with churn (writes,
/// unlinks, renames, chmods) mixed in. Some ops fail by design (e.g.
/// unlinking an already-renamed file) — failures commit nothing and
/// replay identically.
fn op_stream(count: usize) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..DIRS)
        .map(|d| Op::Mkdir(String::new(), dirname(d)))
        .collect();
    for i in 0..count {
        let d = dirname(i % DIRS);
        ops.push(match i % 8 {
            0 | 1 | 2 | 6 => Op::Create(d, format!("f{i}")),
            3 => Op::Write(d, format!("f{}", i - 3), (i * 37) % 5000 + 1),
            4 => Op::Unlink(dirname((i - 2) % DIRS), format!("f{}", i - 2)),
            5 => Op::Rename(
                dirname((i - 5) % DIRS),
                format!("f{}", i - 5),
                dirname((i + 1) % DIRS),
                format!("r{i}"),
            ),
            _ => Op::Chmod(d, format!("f{}", i - 1), 0o600 + (i % 0o70) as u16),
        });
    }
    ops
}

#[test]
fn seeded_crash_campaign_recovers_to_committed_prefix() {
    let seed = 0xCAFE_C817u64;
    let ops = op_stream(320);

    // Pass 1: learn the device-write count so cuts span the whole run.
    let fs1 = new_fs(new_disk());
    let (_, writes) = run_ops(&fs1, &ops, None);
    assert!(writes > 200, "workload too quiet to cut: {writes} writes");

    // Pass 2: identical run under scheduled power cuts.
    let monitor = Arc::new(CrashMonitor::sample(seed, writes, CUT_POINTS, TEAR_PROB));
    let disk = new_disk();
    disk.attach_crash_monitor(monitor.clone());
    let fs2 = new_fs(disk);
    let (boundaries, _) = run_ops(&fs2, &ops, Some(&monitor));
    let images = monitor.take_images();
    assert_eq!(images.len(), CUT_POINTS, "every scheduled cut must fire");
    assert!(
        images.iter().any(|i| i.torn_block.is_some()),
        "the campaign must include torn in-flight writes"
    );

    // Shadow replays committed prefixes in ascending order.
    let shadow = new_fs(new_disk());
    shadow.sync().unwrap();
    let mut applied = 0usize;
    let mut targets = Vec::new();
    let mut replayed_total = 0u64;
    for img in &images {
        let cut = img.cut_at_write;
        let rdisk = Arc::new(CachedDisk::from_image(
            img,
            CACHE_PAGES,
            LatencyModel::free(),
        ));
        let rfs = MemFs::mount(rdisk.clone()).unwrap_or_else(|e| {
            panic!("cut@{cut}: remount failed: {e:?}");
        });
        replayed_total += rfs.replayed_txns();
        let report = fsck(&rdisk).unwrap();
        assert!(
            report.is_clean(),
            "cut@{cut}: fsck errors: {:?}",
            report.errors
        );
        let rseq = rfs.recovered_seq();
        let idx = boundaries
            .binary_search_by_key(&rseq, |b| b.0)
            .unwrap_or_else(|_| {
                panic!("cut@{cut}: recovered seq {rseq} is not a committed-op boundary")
            });
        targets.push((boundaries[idx].1, cut, rfs));
    }
    targets.sort_by_key(|(prefix, _, _)| *prefix);
    for (prefix, cut, rfs) in targets {
        while applied < prefix {
            apply(&shadow, &ops[applied]);
            applied += 1;
        }
        assert_eq!(
            tree_sig(&*rfs),
            tree_sig(&*shadow),
            "cut@{cut}: recovered tree differs from the {prefix}-op shadow prefix"
        );
    }
    assert!(
        replayed_total > 0,
        "no cut ever exercised journal replay — campaign too gentle"
    );
}

#[test]
fn journaled_kernel_tree_survives_power_cut_unsynced() {
    let disk = new_disk();
    let fs = new_fs(disk.clone());
    {
        let kernel = KernelBuilder::new(DcacheConfig::optimized())
            .root_fs(fs.clone() as Arc<dyn FileSystem>)
            .build()
            .unwrap();
        let p = kernel.init_process();
        kernel.mkdir(&p, "/etc", 0o755).unwrap();
        kernel.mkdir(&p, "/etc/rc.d", 0o755).unwrap();
        let fd = kernel
            .open(&p, "/etc/rc.d/init", OpenFlags::create(), 0o640)
            .unwrap();
        kernel.close(&p, fd).unwrap();
        // No sync, no checkpoint: everything rides on the journal.
    }
    let dropped = disk.power_cut();
    assert!(dropped > 0, "the cut must actually lose dirty pages");

    let rfs = MemFs::mount(disk.clone()).unwrap();
    assert!(rfs.replayed_txns() > 0, "recovery had txns to replay");
    assert!(fsck(&disk).unwrap().is_clean());

    // Remount into a fresh kernel: the walk must rebuild from a cold
    // dentry cache and reach the device for real.
    let kernel = KernelBuilder::new(DcacheConfig::optimized())
        .root_fs(rfs as Arc<dyn FileSystem>)
        .build()
        .unwrap();
    let p = kernel.init_process();
    let reads0 = disk.stats().device_reads;
    let attr = kernel.stat(&p, "/etc/rc.d/init").unwrap();
    assert_eq!(attr.mode, 0o640);
    assert!(
        kernel.dcache.stats.miss_fs.load(Ordering::Relaxed) > 0,
        "cold rebuild must miss to the file system"
    );
    assert!(
        disk.stats().device_reads >= reads0,
        "device read counter must not go backwards"
    );
}

#[test]
fn warm_stats_reach_neither_the_fs_nor_the_journal() {
    // The journal prices mutations, never warm lookups: once a tree is
    // cached, stats cause no file-system call, no commit and no device
    // read, under the baseline walk and the fastpath alike.
    for (name, config) in [
        ("baseline", DcacheConfig::baseline()),
        ("optimized", DcacheConfig::optimized()),
    ] {
        let disk = new_disk();
        let fs = new_fs(disk.clone());
        let kernel = KernelBuilder::new(config)
            .root_fs(fs.clone() as Arc<dyn FileSystem>)
            .build()
            .unwrap();
        let p = kernel.init_process();
        kernel.mkdir(&p, "/etc", 0o755).unwrap();
        kernel.mkdir(&p, "/etc/rc.d", 0o755).unwrap();
        let paths = ["/etc", "/etc/rc.d", "/etc/rc.d/init", "/etc/hosts"];
        for path in &paths[2..] {
            let fd = kernel.open(&p, path, OpenFlags::create(), 0o640).unwrap();
            kernel.close(&p, fd).unwrap();
        }
        for path in paths {
            kernel.stat(&p, path).unwrap();
        }
        let before = (
            fs.stats().snapshot(),
            fs.journal_seq(),
            disk.stats().device_reads,
        );
        for i in 0..1_000 {
            kernel.stat(&p, paths[i % paths.len()]).unwrap();
        }
        let after = (
            fs.stats().snapshot(),
            fs.journal_seq(),
            disk.stats().device_reads,
        );
        assert_eq!(after, before, "warm stats under {name}");
    }
}
