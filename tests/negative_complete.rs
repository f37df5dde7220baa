//! The hit-rate optimizations of §5: directory completeness, negative
//! dentries (including after unlink/rename), and deep negative chains.

use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn kernel(config: DcacheConfig) -> (Arc<Kernel>, Arc<Process>) {
    let k = KernelBuilder::new(config.with_seed(111)).build().unwrap();
    let p = k.init_process();
    (k, p)
}

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

fn fs_lookups(k: &Kernel) -> u64 {
    k.init_namespace().root_mount().sb.fs.stats().snapshot().0
}

#[test]
fn new_directories_answer_misses_without_fs_calls() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/fresh", 0o755).unwrap();
    let before = fs_lookups(&k);
    // Misses in a complete (newly created) directory never reach the fs.
    for i in 0..20 {
        assert_eq!(k.stat(&p, &format!("/fresh/nope{i}")), Err(FsError::NoEnt));
    }
    assert_eq!(
        fs_lookups(&k),
        before,
        "fs was consulted under completeness"
    );
    assert!(k.dcache.stats.complete_neg_avoided.load(Ordering::Relaxed) >= 20);
    // Creating a file keeps the directory complete.
    touch(&k, &p, "/fresh/real");
    let before = fs_lookups(&k);
    assert_eq!(k.stat(&p, "/fresh/other"), Err(FsError::NoEnt));
    assert!(k.stat(&p, "/fresh/real").is_ok());
    assert_eq!(fs_lookups(&k), before);
}

#[test]
fn readdir_completes_preexisting_directories() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/old", 0o755).unwrap();
    for i in 0..30 {
        touch(&k, &p, &format!("/old/f{i:02}"));
    }
    // Simulate a reboot-ish state: drop the dcache so the directory is
    // no longer known-complete.
    k.drop_caches();
    // A partial probe does not certify completeness...
    assert!(k.stat(&p, "/old/f00").is_ok());
    // ...a full readdir pass does.
    let all = k.list_dir(&p, "/old").unwrap();
    assert_eq!(all.len(), 30);
    let before_readdir_fs = k.dcache.stats.readdir_fs.load(Ordering::Relaxed);
    let before_lookups = fs_lookups(&k);
    // Repeat listing: served from the cache.
    assert_eq!(k.list_dir(&p, "/old").unwrap().len(), 30);
    assert_eq!(
        k.dcache.stats.readdir_fs.load(Ordering::Relaxed),
        before_readdir_fs
    );
    // Lookups of the listed entries use the partial dentries, not the fs.
    for i in 0..30 {
        assert!(k.stat(&p, &format!("/old/f{i:02}")).is_ok());
    }
    assert_eq!(
        fs_lookups(&k),
        before_lookups,
        "listed entries still caused fs lookups"
    );
    // Misses are answered by completeness.
    assert_eq!(k.stat(&p, "/old/missing"), Err(FsError::NoEnt));
    assert_eq!(fs_lookups(&k), before_lookups);
}

#[test]
fn interrupted_readdir_does_not_certify_completeness() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/partial", 0o755).unwrap();
    for i in 0..50 {
        touch(&k, &p, &format!("/partial/e{i:02}"));
    }
    k.drop_caches();
    let fd = k.open(&p, "/partial", OpenFlags::directory(), 0).unwrap();
    // Read a bit, then rewind (lseek voids the completeness evidence).
    let first = k.readdir(&p, fd, 10).unwrap();
    assert_eq!(first.len(), 10);
    k.rewinddir(&p, fd).unwrap();
    let mut total = 0;
    loop {
        let b = k.readdir(&p, fd, 16).unwrap();
        if b.is_empty() {
            break;
        }
        total += b.len();
    }
    assert_eq!(total, 50);
    k.close(&p, fd).unwrap();
    // The seeked stream must NOT have set DIR_COMPLETE: a miss consults
    // the file system.
    let before = fs_lookups(&k);
    assert_eq!(k.stat(&p, "/partial/none"), Err(FsError::NoEnt));
    assert!(fs_lookups(&k) > before, "seeked stream wrongly certified");
}

#[test]
fn unlink_and_rename_leave_negative_dentries() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/w", 0o755).unwrap();
    touch(&k, &p, "/w/doomed");
    touch(&k, &p, "/w/moving");
    k.stat(&p, "/w/doomed").unwrap();
    k.unlink(&p, "/w/doomed").unwrap();
    let before = fs_lookups(&k);
    for _ in 0..5 {
        assert_eq!(k.stat(&p, "/w/doomed"), Err(FsError::NoEnt));
    }
    assert_eq!(fs_lookups(&k), before, "unlink left no negative dentry");
    // Rename: the old path answers negatively without fs traffic.
    k.rename(&p, "/w/moving", "/w/moved").unwrap();
    let before = fs_lookups(&k);
    for _ in 0..5 {
        assert_eq!(k.stat(&p, "/w/moving"), Err(FsError::NoEnt));
    }
    assert_eq!(fs_lookups(&k), before, "rename left no negative dentry");
    // The classic editor pattern: recreate over the negative entry.
    touch(&k, &p, "/w/doomed");
    assert!(k.stat(&p, "/w/doomed").is_ok());
}

/// `rmdir` leaves the negative dentry too — in place when nobody holds
/// the directory, a fresh one beside it when somebody does (ROADMAP 1(c):
/// the holder's dentry stays a directory).
#[test]
fn rmdir_leaves_a_negative_dentry_whether_or_not_the_directory_is_held() {
    let (k, p) = kernel(DcacheConfig::optimized());
    for held in [false, true] {
        k.mkdir(&p, "/gone", 0o755).unwrap();
        let holder = k.spawn(&p);
        if held {
            k.chdir(&holder, "/gone").unwrap();
        }
        k.rmdir(&p, "/gone").unwrap();
        let before = fs_lookups(&k);
        for _ in 0..5 {
            assert_eq!(k.stat(&p, "/gone"), Err(FsError::NoEnt));
        }
        assert_eq!(fs_lookups(&k), before, "rmdir left no negative dentry");
        assert!(k.stat(&holder, ".").unwrap().ftype.is_dir());
    }
}

#[test]
fn baseline_unlink_of_open_file_does_not_cache_negative() {
    let (k, p) = kernel(DcacheConfig::baseline());
    k.mkdir(&p, "/b", 0o755).unwrap();
    touch(&k, &p, "/b/held");
    // Keep the file open (in use) while unlinking: Linux baseline
    // unhashes instead of converting to a negative dentry (§5.2).
    let fd = k.open(&p, "/b/held", OpenFlags::read_only(), 0).unwrap();
    k.unlink(&p, "/b/held").unwrap();
    let before = fs_lookups(&k);
    assert_eq!(k.stat(&p, "/b/held"), Err(FsError::NoEnt));
    assert!(
        fs_lookups(&k) > before,
        "baseline should re-consult the fs for an in-use unlink"
    );
    k.close(&p, fd).unwrap();
}

#[test]
fn deep_negative_chains_cache_multi_component_misses() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/root-dir", 0o755).unwrap();
    // Miss below a missing directory: /root-dir/gone/a/b.
    assert_eq!(k.stat(&p, "/root-dir/gone/a/b"), Err(FsError::NoEnt));
    let before = fs_lookups(&k);
    let fast_neg_before = k.dcache.stats.fast_neg_hits.load(Ordering::Relaxed);
    for _ in 0..5 {
        assert_eq!(k.stat(&p, "/root-dir/gone/a/b"), Err(FsError::NoEnt));
    }
    assert_eq!(fs_lookups(&k), before);
    assert!(
        k.dcache.stats.fast_neg_hits.load(Ordering::Relaxed) > fast_neg_before,
        "deep misses should hit the fastpath"
    );
    // ENOTDIR chains below regular files.
    touch(&k, &p, "/root-dir/file");
    assert_eq!(k.stat(&p, "/root-dir/file/x/y"), Err(FsError::NotDir));
    let before = fs_lookups(&k);
    for _ in 0..5 {
        assert_eq!(k.stat(&p, "/root-dir/file/x/y"), Err(FsError::NotDir));
    }
    assert_eq!(fs_lookups(&k), before);
    // Creating the directory chain dissolves the negatives.
    k.mkdir(&p, "/root-dir/gone", 0o755).unwrap();
    k.mkdir(&p, "/root-dir/gone/a", 0o755).unwrap();
    touch(&k, &p, "/root-dir/gone/a/b");
    assert!(k.stat(&p, "/root-dir/gone/a/b").is_ok());
}

#[test]
fn baseline_has_no_deep_negative_caching() {
    let (k, p) = kernel(DcacheConfig::baseline());
    k.mkdir(&p, "/plain", 0o755).unwrap();
    assert_eq!(k.stat(&p, "/plain/none/x"), Err(FsError::NoEnt));
    let before = fs_lookups(&k);
    // The first component miss IS cached as a plain negative dentry by
    // baseline Linux, so repeats don't hit the fs either — but only one
    // level deep (there is no /plain/none/x entry).
    assert_eq!(k.stat(&p, "/plain/none/x"), Err(FsError::NoEnt));
    assert_eq!(fs_lookups(&k), before);
    assert_eq!(
        k.dcache.stats.neg_deep_created.load(Ordering::Relaxed),
        0,
        "baseline must not fabricate deep negatives"
    );
}

#[test]
fn mkstemp_in_complete_directory_skips_existence_probes() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/tmp", 0o777).unwrap();
    for i in 0..50 {
        touch(&k, &p, &format!("/tmp/existing{i}"));
    }
    let before = fs_lookups(&k);
    for _ in 0..10 {
        let (fd, name) = k.mkstemp(&p, "/tmp", "s-").unwrap();
        k.close(&p, fd).unwrap();
        k.unlink(&p, &format!("/tmp/{name}")).unwrap();
    }
    // The existence probes were answered by completeness; only the
    // create/unlink mutations touched the fs (they are not lookups).
    assert_eq!(
        fs_lookups(&k),
        before,
        "mkstemp probes leaked to the file system"
    );
}

#[test]
fn negative_dentries_capped_by_eviction() {
    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(112).with_capacity(100))
        .build()
        .unwrap();
    let p = k.init_process();
    k.mkdir(&p, "/n", 0o755).unwrap();
    for i in 0..1000 {
        let _ = k.stat(&p, &format!("/n/ghost{i}"));
    }
    assert!(
        k.dcache.live() <= 250,
        "negative dentries not bounded (live={})",
        k.dcache.live()
    );
}
