//! Warm-restart integration: end-to-end rehydration correctness, stale
//! entry rejection after post-checkpoint mutations, and the seeded
//! corruption campaign over the on-disk index region.

use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_fs::{fsck, MemFs, MemFsConfig};
use dc_vfs::{Kernel, KernelBuilder, OpenFlags, Process, WarmFallback};
use dcache_core::DcacheConfig;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn mkdisk() -> Arc<CachedDisk> {
    Arc::new(CachedDisk::new(DiskConfig {
        block_size: 4096,
        capacity_blocks: 8192,
        latency: LatencyModel::free(),
        cache_pages: 8192,
    }))
}

fn fresh_fs(disk: Arc<CachedDisk>) -> Arc<MemFs> {
    MemFs::mkfs(
        disk,
        MemFsConfig {
            max_inodes: 4096,
            ..Default::default()
        },
    )
    .unwrap()
}

fn kernel_on(fs: Arc<MemFs>, config: DcacheConfig, warm: bool) -> Arc<Kernel> {
    KernelBuilder::new(config)
        .root_fs(fs)
        .warm_restart(warm)
        .build()
        .unwrap()
}

/// Builds a two-level tree, stats every path (so the dcache holds it
/// all), and returns the path → inode shadow map.
fn build_tree(k: &Kernel, p: &Process, dirs: usize, files: usize) -> HashMap<String, u64> {
    let mut shadow = HashMap::new();
    for d in 0..dirs {
        let dir = format!("/d{d}");
        k.mkdir(p, &dir, 0o755).unwrap();
        shadow.insert(dir.clone(), k.stat(p, &dir).unwrap().ino);
        for f in 0..files {
            let path = format!("{dir}/f{f}");
            let fd = k.open(p, &path, OpenFlags::create(), 0o644).unwrap();
            k.close(p, fd).unwrap();
            shadow.insert(path.clone(), k.stat(p, &path).unwrap().ino);
        }
    }
    shadow
}

#[test]
fn rehydration_publishes_validated_tree_and_serves_fastpath_hits() {
    let disk = mkdisk();
    let k1 = kernel_on(fresh_fs(disk.clone()), DcacheConfig::optimized(), false);
    let p1 = k1.init_process();
    let shadow = build_tree(&k1, &p1, 4, 8);
    let first_boot = k1.path_signature(&p1, "/d0/f0").unwrap();
    let kept = k1.warm_checkpoint().unwrap();
    assert!(
        kept >= shadow.len(),
        "checkpointed {kept} < {}",
        shadow.len()
    );
    drop(p1);
    drop(k1);

    // New boot, new (entropy) hash key: everything must be recomputed.
    let fs2 = MemFs::mount(disk).unwrap();
    let k2 = kernel_on(fs2, DcacheConfig::optimized(), true);
    let outcome = k2.warm_outcome().expect("builder ran a warm restart");
    assert!(
        outcome.fallback.is_none(),
        "fallback: {:?}",
        outcome.fallback
    );
    assert_eq!(outcome.rejected, 0, "nothing changed since the checkpoint");
    assert!(
        outcome.published >= shadow.len() as u64,
        "published {} < {}",
        outcome.published,
        shadow.len()
    );
    // The index stores no signature: each entry is signed under this
    // boot's entropy key, which cannot match the previous boot's.
    let second_boot = k2.path_signature(&k2.init_process(), "/d0/f0").unwrap();
    assert_ne!(second_boot, first_boot, "entropy keys cannot collide");

    // Every rehydrated path resolves to exactly the shadow inode, and
    // entirely from the cache: no backing-fs lookups.
    k2.reset_stats();
    let p2 = k2.init_process();
    for (path, ino) in &shadow {
        assert_eq!(k2.stat(&p2, path).unwrap().ino, *ino, "path {path}");
    }
    let stats = &k2.dcache.stats;
    assert_eq!(
        stats.miss_fs.load(Ordering::Relaxed),
        0,
        "warm cache must serve every lookup without the fs"
    );
    assert!(k2.stat(&p2, "/d0/nope").is_err(), "phantom entry published");
}

#[test]
fn fixed_seed_reuses_signatures_exactly() {
    let disk = mkdisk();
    let cfg = DcacheConfig::optimized().with_seed(42);
    let k1 = kernel_on(fresh_fs(disk.clone()), cfg.clone(), false);
    let shadow = build_tree(&k1, &k1.init_process(), 2, 4);
    let signature = |k: &Kernel, path: &str| k.path_signature(&k.init_process(), path).unwrap();
    let first_boot: HashMap<_, _> = shadow.keys().map(|p| (p, signature(&k1, p))).collect();
    k1.warm_checkpoint().unwrap();
    drop(k1);

    let k2 = kernel_on(MemFs::mount(disk).unwrap(), cfg, true);
    let outcome = k2.warm_outcome().unwrap();
    assert_eq!(outcome.published, shadow.len() as u64);
    for (path, sig) in first_boot {
        assert_eq!(
            signature(&k2, path),
            sig,
            "same seed, same key, same signatures"
        );
    }
}

#[test]
fn stale_entries_are_rejected_not_published() {
    let disk = mkdisk();
    let k1 = kernel_on(fresh_fs(disk.clone()), DcacheConfig::optimized(), false);
    let p1 = k1.init_process();
    k1.mkdir(&p1, "/keep", 0o755).unwrap();
    let fd = k1.open(&p1, "/keep/a", OpenFlags::create(), 0o644).unwrap();
    k1.close(&p1, fd).unwrap();
    k1.mkdir(&p1, "/gone", 0o755).unwrap();
    let fd = k1.open(&p1, "/gone/b", OpenFlags::create(), 0o644).unwrap();
    k1.close(&p1, fd).unwrap();
    let fd = k1.open(&p1, "/ren", OpenFlags::create(), 0o644).unwrap();
    k1.close(&p1, fd).unwrap();
    let keep_ino = k1.stat(&p1, "/keep/a").unwrap().ino;

    k1.warm_checkpoint().unwrap();
    // Mutations after the checkpoint: the index is now stale for these.
    k1.unlink(&p1, "/gone/b").unwrap();
    k1.rename(&p1, "/ren", "/ren2").unwrap();
    drop(p1);
    drop(k1);

    let k2 = kernel_on(MemFs::mount(disk).unwrap(), DcacheConfig::optimized(), true);
    let outcome = k2.warm_outcome().unwrap();
    assert!(outcome.fallback.is_none());
    assert!(
        outcome.rejected >= 2,
        "unlinked and renamed entries must be rejected, got {}",
        outcome.rejected
    );
    let p2 = k2.init_process();
    assert_eq!(k2.stat(&p2, "/keep/a").unwrap().ino, keep_ino);
    assert!(k2.stat(&p2, "/gone/b").is_err(), "stale entry resurrected");
    assert!(k2.stat(&p2, "/ren").is_err(), "renamed-away entry survived");
    assert_eq!(
        k2.stat(&p2, "/ren2").unwrap().ftype,
        dc_vfs::FileType::Regular
    );
}

/// The index stores names, and a restore signs each entry under the new
/// boot's key. An entry whose path runs past the key schedule has no
/// signature: it is rejected, and so are its children, which then walk.
#[test]
fn an_entry_past_the_key_schedule_is_rejected_with_its_children() {
    let disk = mkdisk();
    let k1 = kernel_on(fresh_fs(disk.clone()), DcacheConfig::optimized(), false);
    let p1 = k1.init_process();
    // 32 components of 252 bytes: 64 words each, 2 048 in all, the
    // whole schedule. `x` below them is past it.
    let dirs: Vec<String> = (0..32).map(|i| format!("{i:x<252}")).collect();
    for d in &dirs {
        k1.mkdir(&p1, d, 0o755).unwrap();
        k1.chdir(&p1, d).unwrap();
    }
    k1.mkdir(&p1, "x", 0o755).unwrap();
    let fd = k1.open(&p1, "x/y", OpenFlags::create(), 0o644).unwrap();
    k1.close(&p1, fd).unwrap();
    let y = k1.stat(&p1, "x/y").unwrap().ino;
    k1.chdir(&p1, "/").unwrap();
    assert_eq!(k1.warm_checkpoint().unwrap(), dirs.len() + 2);
    drop(p1);
    drop(k1);

    let k2 = kernel_on(MemFs::mount(disk).unwrap(), DcacheConfig::optimized(), true);
    let outcome = k2.warm_outcome().unwrap();
    assert!(outcome.fallback.is_none());
    assert_eq!(outcome.published, dirs.len() as u64);
    assert_eq!(outcome.rejected, 2, "x and its child y");
    let p2 = k2.init_process();
    for d in &dirs {
        k2.chdir(&p2, d).unwrap();
    }
    assert_eq!(k2.stat(&p2, "x/y").unwrap().ino, y);
}

#[test]
fn absent_index_is_a_typed_cold_fallback() {
    let k = kernel_on(fresh_fs(mkdisk()), DcacheConfig::optimized(), true);
    let outcome = k.warm_outcome().unwrap();
    assert_eq!(outcome.fallback, Some(WarmFallback::Absent));
    assert!(outcome.is_cold());
    // A cold boot still works.
    let p = k.init_process();
    k.mkdir(&p, "/x", 0o755).unwrap();
    assert!(k.stat(&p, "/x").is_ok());
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The corruption campaign: seeded byte flips across the warm-index
/// region. Every mount must either rehydrate clean or fall back cold
/// with a typed outcome — zero panics, zero wrong lookups against the
/// shadow tree, and fsck (index pass included) never flags a
/// checksum-rejected index.
#[test]
fn corruption_campaign_never_panics_or_serves_wrong_lookups() {
    let mut rng: u64 = 0x5eed_24301;
    for trial in 0..40 {
        let disk = mkdisk();
        let k1 = kernel_on(fresh_fs(disk.clone()), DcacheConfig::optimized(), false);
        let shadow = build_tree(&k1, &k1.init_process(), 3, 6);
        k1.warm_checkpoint().unwrap();
        drop(k1);

        // Flip 1..=16 bytes anywhere in the index region.
        let fs_probe = MemFs::mount(disk.clone()).unwrap();
        let geo = *fs_probe.geometry();
        drop(fs_probe);
        let region_blocks = geo.warmidx_blocks;
        let flips = 1 + (xorshift(&mut rng) % 16) as usize;
        for _ in 0..flips {
            let blk = geo.warmidx_start + xorshift(&mut rng) % region_blocks;
            let off = (xorshift(&mut rng) % geo.block_size as u64) as usize;
            let mut data = disk.read_block(blk).unwrap().to_vec();
            data[off] ^= (xorshift(&mut rng) % 255 + 1) as u8;
            disk.write_block(blk, &data).unwrap();
        }

        let k2 = kernel_on(
            MemFs::mount(disk.clone()).unwrap(),
            DcacheConfig::optimized(),
            true,
        );
        let outcome = k2.warm_outcome().unwrap();
        // Whatever was published must agree with the shadow tree.
        let p2 = k2.init_process();
        for (path, ino) in &shadow {
            assert_eq!(
                k2.stat(&p2, path).unwrap().ino,
                *ino,
                "trial {trial}: wrong lookup for {path} (outcome {outcome:?})"
            );
        }
        assert!(
            k2.stat(&p2, "/d0/phantom").is_err(),
            "trial {trial}: phantom entry after corruption"
        );
        // fsck's index pass must not flag a checksum-rejected index, and
        // the metadata tree itself is untouched by index corruption.
        let report = fsck(&disk).unwrap();
        assert!(
            report.is_clean(),
            "trial {trial}: fsck errors {:?}",
            report.errors
        );
    }
}
