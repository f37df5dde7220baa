//! End-to-end VFS behavior tests, run against both the baseline and the
//! optimized directory cache (every test body takes the config so both
//! resolvers are exercised).

use dc_fs::FsError;
use dc_vfs::{Kernel, KernelBuilder, OpenFlags, Process};
use dcache_core::DcacheConfig;
use std::sync::Arc;

fn kernel(config: DcacheConfig) -> (Arc<Kernel>, Arc<Process>) {
    let k = KernelBuilder::new(config.with_seed(0xDEC0DE))
        .build()
        .unwrap();
    let p = k.init_process();
    (k, p)
}

fn both(test: impl Fn(Arc<Kernel>, Arc<Process>)) {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let (k, p) = kernel(config);
        test(k, p);
    }
}

#[test]
fn create_stat_roundtrip() {
    both(|k, p| {
        k.mkdir(&p, "/etc", 0o755).unwrap();
        let fd = k
            .open(&p, "/etc/passwd", OpenFlags::create(), 0o644)
            .unwrap();
        k.write_fd(&p, fd, b"root:x:0:0").unwrap();
        k.close(&p, fd).unwrap();
        let a = k.stat(&p, "/etc/passwd").unwrap();
        assert_eq!(a.size, 10);
        assert_eq!(a.mode, 0o644);
        // Repeat stats hit the cache.
        for _ in 0..5 {
            assert_eq!(k.stat(&p, "/etc/passwd").unwrap().size, 10);
        }
    });
}

#[test]
fn missing_paths_report_enoent_and_enotdir() {
    both(|k, p| {
        k.mkdir(&p, "/d", 0o755).unwrap();
        let fd = k.open(&p, "/d/file", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        assert_eq!(k.stat(&p, "/nope"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&p, "/d/nope"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&p, "/nope/deeper/x"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&p, "/d/file/x"), Err(FsError::NotDir));
        assert_eq!(k.stat(&p, "/d/file/x/y"), Err(FsError::NotDir));
        assert_eq!(k.stat(&p, "/d/file/"), Err(FsError::NotDir));
        // Repeats (likely negative-dentry hits) agree.
        assert_eq!(k.stat(&p, "/d/nope"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&p, "/d/file/x"), Err(FsError::NotDir));
    });
}

#[test]
fn relative_paths_and_chdir() {
    both(|k, p| {
        k.mkdir(&p, "/home", 0o755).unwrap();
        k.mkdir(&p, "/home/alice", 0o755).unwrap();
        let fd = k
            .open(&p, "/home/alice/todo.txt", OpenFlags::create(), 0o600)
            .unwrap();
        k.close(&p, fd).unwrap();
        k.chdir(&p, "/home/alice").unwrap();
        assert_eq!(k.getcwd(&p), "/home/alice");
        assert!(k.stat(&p, "todo.txt").is_ok());
        assert!(k.stat(&p, "./todo.txt").is_ok());
        assert!(k.stat(&p, "../alice/todo.txt").is_ok());
        assert_eq!(k.stat(&p, "nope"), Err(FsError::NoEnt));
        k.chdir(&p, "..").unwrap();
        assert_eq!(k.getcwd(&p), "/home");
        assert!(k.stat(&p, "alice/todo.txt").is_ok());
    });
}

#[test]
fn dotdot_at_root_stays_at_root() {
    both(|k, p| {
        k.mkdir(&p, "/x", 0o755).unwrap();
        assert!(k.stat(&p, "/..").is_ok());
        assert!(k.stat(&p, "/../../x").is_ok());
        k.chdir(&p, "/").unwrap();
        assert!(k.stat(&p, "../x").is_ok());
    });
}

#[test]
fn unlink_then_recreate() {
    both(|k, p| {
        k.mkdir(&p, "/w", 0o755).unwrap();
        let fd = k.open(&p, "/w/f", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        k.unlink(&p, "/w/f").unwrap();
        assert_eq!(k.stat(&p, "/w/f"), Err(FsError::NoEnt));
        assert_eq!(k.unlink(&p, "/w/f"), Err(FsError::NoEnt));
        // Recreate through the (possibly negative) cached dentry.
        let fd = k.open(&p, "/w/f", OpenFlags::create(), 0o600).unwrap();
        k.close(&p, fd).unwrap();
        assert_eq!(k.stat(&p, "/w/f").unwrap().mode, 0o600);
    });
}

#[test]
fn mkdir_rmdir_cycle() {
    both(|k, p| {
        k.mkdir(&p, "/a", 0o755).unwrap();
        k.mkdir(&p, "/a/b", 0o755).unwrap();
        assert_eq!(k.mkdir(&p, "/a", 0o755), Err(FsError::Exist));
        assert_eq!(k.rmdir(&p, "/a"), Err(FsError::NotEmpty));
        k.rmdir(&p, "/a/b").unwrap();
        k.rmdir(&p, "/a").unwrap();
        assert_eq!(k.stat(&p, "/a"), Err(FsError::NoEnt));
        assert_eq!(k.rmdir(&p, "/missing"), Err(FsError::NoEnt));
        // rmdir on a file is ENOTDIR; unlink on a dir is EISDIR.
        let fd = k.open(&p, "/f", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        assert_eq!(k.rmdir(&p, "/f"), Err(FsError::NotDir));
        k.mkdir(&p, "/d", 0o755).unwrap();
        assert_eq!(k.unlink(&p, "/d"), Err(FsError::IsDir));
    });
}

#[test]
fn rename_moves_and_invalidates() {
    both(|k, p| {
        k.mkdir(&p, "/src", 0o755).unwrap();
        k.mkdir(&p, "/src/sub", 0o755).unwrap();
        let fd = k
            .open(&p, "/src/sub/deep.txt", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&p, fd).unwrap();
        // Warm the cache on the old path.
        for _ in 0..3 {
            k.stat(&p, "/src/sub/deep.txt").unwrap();
        }
        k.mkdir(&p, "/dst", 0o755).unwrap();
        k.rename(&p, "/src/sub", "/dst/moved").unwrap();
        assert_eq!(k.stat(&p, "/src/sub/deep.txt"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&p, "/src/sub"), Err(FsError::NoEnt));
        assert!(k.stat(&p, "/dst/moved/deep.txt").is_ok());
        // Rename over an existing file.
        let fd = k.open(&p, "/one", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        let fd = k.open(&p, "/two", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        k.rename(&p, "/one", "/two").unwrap();
        assert_eq!(k.stat(&p, "/one"), Err(FsError::NoEnt));
        assert!(k.stat(&p, "/two").is_ok());
        // Directory into own subtree is EINVAL.
        k.mkdir(&p, "/self", 0o755).unwrap();
        k.mkdir(&p, "/self/inner", 0o755).unwrap();
        assert_eq!(
            k.rename(&p, "/self", "/self/inner/again"),
            Err(FsError::Inval)
        );
    });
}

#[test]
fn symlinks_follow_and_loop() {
    both(|k, p| {
        k.mkdir(&p, "/real", 0o755).unwrap();
        let fd = k
            .open(&p, "/real/data", OpenFlags::create(), 0o644)
            .unwrap();
        k.write_fd(&p, fd, b"hello").unwrap();
        k.close(&p, fd).unwrap();
        k.symlink(&p, "/real", "/alias").unwrap();
        // Follow through a mid-path link.
        assert_eq!(k.stat(&p, "/alias/data").unwrap().size, 5);
        // Repeat (exercises alias caching in the optimized config).
        for _ in 0..4 {
            assert_eq!(k.stat(&p, "/alias/data").unwrap().size, 5);
        }
        // Final-component link: stat follows, lstat does not.
        k.symlink(&p, "/real/data", "/direct").unwrap();
        assert_eq!(k.stat(&p, "/direct").unwrap().size, 5);
        assert_eq!(
            k.lstat(&p, "/direct").unwrap().ftype,
            dc_fs::FileType::Symlink
        );
        assert_eq!(k.readlink_path(&p, "/direct").unwrap(), "/real/data");
        // Relative target.
        k.symlink(&p, "data", "/real/rel").unwrap();
        assert_eq!(k.stat(&p, "/real/rel").unwrap().size, 5);
        // Dangling link.
        k.symlink(&p, "/void", "/dang").unwrap();
        assert_eq!(k.stat(&p, "/dang"), Err(FsError::NoEnt));
        assert!(k.lstat(&p, "/dang").is_ok());
        // Loop.
        k.symlink(&p, "/l2", "/l1").unwrap();
        k.symlink(&p, "/l1", "/l2").unwrap();
        assert_eq!(k.stat(&p, "/l1"), Err(FsError::Loop));
    });
}

#[test]
fn permissions_are_enforced() {
    both(|k, root_proc| {
        k.mkdir(&root_proc, "/open", 0o755).unwrap();
        k.mkdir(&root_proc, "/locked", 0o700).unwrap();
        let fd = k
            .open(&root_proc, "/open/readable", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root_proc, fd).unwrap();
        let fd = k
            .open(&root_proc, "/locked/secret", OpenFlags::create(), 0o600)
            .unwrap();
        k.close(&root_proc, fd).unwrap();
        let alice = k.spawn_with_cred(&root_proc, dc_vfs::Cred::user(1000, 1000));
        assert!(k.stat(&alice, "/open/readable").is_ok());
        // No search permission on /locked.
        assert_eq!(k.stat(&alice, "/locked/secret"), Err(FsError::Access));
        // Repeats stay denied (PCC must not cache failures as success).
        for _ in 0..3 {
            assert_eq!(k.stat(&alice, "/locked/secret"), Err(FsError::Access));
        }
        // Write denied by mode bits.
        assert_eq!(
            k.open(&alice, "/open/readable", OpenFlags::read_write(), 0)
                .unwrap_err(),
            FsError::Access
        );
        // Creating in a read-only-for-alice dir.
        assert_eq!(
            k.open(&alice, "/open/new", OpenFlags::create(), 0o644)
                .unwrap_err(),
            FsError::Access
        );
        // Root can do it all.
        assert!(k.stat(&root_proc, "/locked/secret").is_ok());
    });
}

#[test]
fn chmod_invalidates_cached_prefix_checks() {
    both(|k, root_proc| {
        k.mkdir(&root_proc, "/pub", 0o755).unwrap();
        k.mkdir(&root_proc, "/pub/inner", 0o755).unwrap();
        let fd = k
            .open(&root_proc, "/pub/inner/f", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root_proc, fd).unwrap();
        let alice = k.spawn_with_cred(&root_proc, dc_vfs::Cred::user(1000, 1000));
        // Warm alice's cached prefix checks.
        for _ in 0..3 {
            assert!(k.stat(&alice, "/pub/inner/f").is_ok());
        }
        k.chmod(&root_proc, "/pub", 0o700).unwrap();
        // The cached check must NOT keep granting access.
        assert_eq!(k.stat(&alice, "/pub/inner/f"), Err(FsError::Access));
        k.chmod(&root_proc, "/pub", 0o755).unwrap();
        assert!(k.stat(&alice, "/pub/inner/f").is_ok());
    });
}

#[test]
fn directory_reference_semantics_survive_chmod() {
    both(|k, root_proc| {
        k.mkdir(&root_proc, "/jail", 0o755).unwrap();
        k.mkdir(&root_proc, "/jail/work", 0o777).unwrap();
        let fd = k
            .open(&root_proc, "/jail/work/file", OpenFlags::create(), 0o666)
            .unwrap();
        k.close(&root_proc, fd).unwrap();
        let alice = k.spawn_with_cred(&root_proc, dc_vfs::Cred::user(1000, 1000));
        k.chdir(&alice, "/jail/work").unwrap();
        // Revoke search on the ancestor.
        k.chmod(&root_proc, "/jail", 0o700).unwrap();
        // Absolute access is gone...
        assert_eq!(k.stat(&alice, "/jail/work/file"), Err(FsError::Access));
        // ...but the retained working directory still works (§3.2).
        assert!(k.stat(&alice, "file").is_ok());
        assert!(k.open(&alice, "file", OpenFlags::read_only(), 0).is_ok());
    });
}

#[test]
fn readdir_lists_contents() {
    both(|k, p| {
        k.mkdir(&p, "/list", 0o755).unwrap();
        for i in 0..50 {
            let fd = k
                .open(&p, &format!("/list/f{i:02}"), OpenFlags::create(), 0o644)
                .unwrap();
            k.close(&p, fd).unwrap();
        }
        let entries = k.list_dir(&p, "/list").unwrap();
        assert_eq!(entries.len(), 50);
        let mut names: Vec<_> = entries.iter().map(|e| e.name.clone()).collect();
        names.sort();
        assert_eq!(names[0], "f00");
        assert_eq!(names[49], "f49");
        // Re-listing agrees (served from cache when optimized).
        let again = k.list_dir(&p, "/list").unwrap();
        assert_eq!(again.len(), 50);
        // Listing after a create/unlink stays coherent.
        let fd = k.open(&p, "/list/new", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        k.unlink(&p, "/list/f00").unwrap();
        let third = k.list_dir(&p, "/list").unwrap();
        assert_eq!(third.len(), 50); // -f00 +new
        assert!(third.iter().any(|e| e.name == "new"));
        assert!(!third.iter().any(|e| e.name == "f00"));
    });
}

#[test]
fn hard_links_share_attributes() {
    both(|k, p| {
        let fd = k.open(&p, "/orig", OpenFlags::create(), 0o644).unwrap();
        k.write_fd(&p, fd, b"shared").unwrap();
        k.close(&p, fd).unwrap();
        k.link(&p, "/orig", "/other").unwrap();
        assert_eq!(k.stat(&p, "/other").unwrap().nlink, 2);
        k.chmod(&p, "/other", 0o600).unwrap();
        assert_eq!(k.stat(&p, "/orig").unwrap().mode, 0o600);
        k.unlink(&p, "/orig").unwrap();
        assert_eq!(k.stat(&p, "/other").unwrap().nlink, 1);
        assert_eq!(k.stat(&p, "/orig"), Err(FsError::NoEnt));
    });
}

#[test]
fn openat_and_fstatat_resolve_relative_to_dirfd() {
    both(|k, p| {
        k.mkdir(&p, "/base", 0o755).unwrap();
        k.mkdir(&p, "/base/sub", 0o755).unwrap();
        let fd = k
            .open(&p, "/base/sub/x", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&p, fd).unwrap();
        let dirfd = k.open(&p, "/base", OpenFlags::directory(), 0).unwrap();
        assert!(k.fstatat(&p, dirfd, "sub/x", false).is_ok());
        let f2 = k
            .openat(&p, dirfd, "sub/x", OpenFlags::read_only(), 0)
            .unwrap();
        k.close(&p, f2).unwrap();
        // Absolute paths ignore dirfd.
        assert!(k.fstatat(&p, dirfd, "/base/sub/x", false).is_ok());
        assert_eq!(k.fstatat(&p, dirfd, "missing", false), Err(FsError::NoEnt));
        k.close(&p, dirfd).unwrap();
    });
}

#[test]
fn mkstemp_creates_unique_files() {
    both(|k, p| {
        k.mkdir(&p, "/tmp", 0o777).unwrap();
        let mut names = std::collections::HashSet::new();
        for _ in 0..20 {
            let (fd, name) = k.mkstemp(&p, "/tmp", "tmp-").unwrap();
            assert!(names.insert(name));
            k.close(&p, fd).unwrap();
        }
        assert_eq!(k.list_dir(&p, "/tmp").unwrap().len(), 20);
    });
}

#[test]
fn trailing_slash_semantics() {
    both(|k, p| {
        k.mkdir(&p, "/dir", 0o755).unwrap();
        let fd = k.open(&p, "/file", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        assert!(k.stat(&p, "/dir/").is_ok());
        assert_eq!(k.stat(&p, "/file/"), Err(FsError::NotDir));
        assert_eq!(
            k.open(&p, "/newfile/", OpenFlags::create(), 0o644)
                .unwrap_err(),
            FsError::IsDir
        );
    });
}

#[test]
fn fastpath_actually_hits_in_optimized_mode() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/hot", 0o755).unwrap();
    let fd = k.open(&p, "/hot/file", OpenFlags::create(), 0o644).unwrap();
    k.close(&p, fd).unwrap();
    // First stat warms the caches via the slowpath.
    k.stat(&p, "/hot/file").unwrap();
    let before = k
        .dcache
        .stats
        .fast_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    for _ in 0..10 {
        k.stat(&p, "/hot/file").unwrap();
    }
    let after = k
        .dcache
        .stats
        .fast_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        after >= before + 10,
        "expected 10 fastpath hits, got {}",
        after - before
    );
    // Negative fastpath hits, too.
    assert_eq!(k.stat(&p, "/hot/missing"), Err(FsError::NoEnt));
    let nb = k
        .dcache
        .stats
        .fast_neg_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    for _ in 0..5 {
        assert_eq!(k.stat(&p, "/hot/missing"), Err(FsError::NoEnt));
    }
    let na = k
        .dcache
        .stats
        .fast_neg_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(na >= nb + 5, "expected negative fastpath hits");
}

#[test]
fn baseline_never_uses_fastpath() {
    let (k, p) = kernel(DcacheConfig::baseline());
    k.mkdir(&p, "/plain", 0o755).unwrap();
    for _ in 0..5 {
        k.stat(&p, "/plain").unwrap();
    }
    assert_eq!(
        k.dcache
            .stats
            .fast_attempts
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

#[test]
fn drop_caches_forces_refill() {
    both(|k, p| {
        k.mkdir(&p, "/cold", 0o755).unwrap();
        let fd = k.open(&p, "/cold/x", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        k.stat(&p, "/cold/x").unwrap();
        let live_before = k.dcache.live();
        k.drop_caches();
        assert!(k.dcache.live() < live_before);
        // Everything still resolves correctly afterwards.
        assert!(k.stat(&p, "/cold/x").is_ok());
        assert_eq!(k.stat(&p, "/cold/missing"), Err(FsError::NoEnt));
    });
}

/// One component-lookup protocol behind the walk and the mutating
/// syscalls: what each counts, per configuration (baseline, optimized),
/// as `(miss_fs, hit_positive, hit_negative, complete_neg_avoided)`.
#[test]
fn component_lookup_counts_the_same_from_every_entry_point() {
    use std::sync::atomic::Ordering::Relaxed;
    both(|k, p| {
        let optimized = k.dcache.config.fastpath;
        let pick = |baseline, opt| if optimized { opt } else { baseline };
        let counted = |run: &dyn Fn()| {
            k.reset_stats();
            run();
            let s = &k.dcache.stats;
            (
                s.miss_fs.load(Relaxed),
                s.hit_positive.load(Relaxed),
                s.hit_negative.load(Relaxed),
                s.complete_neg_avoided.load(Relaxed),
            )
        };
        k.mkdir(&p, "/a", 0o755).unwrap();
        k.mkdir(&p, "/a/b", 0o755).unwrap();
        let fd = k.open(&p, "/a/b/c", OpenFlags::create(), 0o644).unwrap();
        k.close(&p, fd).unwrap();
        k.drop_caches();
        let stat = || {
            let _ = k.stat(&p, "/a/b/c");
        };
        assert_eq!(counted(&stat), (3, 0, 0, 0), "cold: one miss a component");
        assert_eq!(counted(&stat), pick((0, 3, 0, 0), (0, 0, 0, 0)), "warm");
        // The walk to the parent counts its hits; the final component,
        // looked up under the directory lock, counts none.
        let unlink = || k.unlink(&p, "/a/b/c").unwrap();
        assert_eq!(counted(&unlink), pick((0, 2, 0, 0), (0, 0, 0, 0)));
        assert_eq!(counted(&stat), pick((0, 2, 1, 0), (0, 0, 0, 0)), "gone");
        // A new directory is complete (§5.1): absence is answered there
        // without the file system, whichever entry point asks.
        k.mkdir(&p, "/full", 0o755).unwrap();
        let stat_absent = || assert_eq!(k.stat(&p, "/full/x"), Err(FsError::NoEnt));
        let unlink_absent = || assert_eq!(k.unlink(&p, "/full/y"), Err(FsError::NoEnt));
        assert_eq!(counted(&stat_absent), pick((1, 1, 0, 0), (0, 1, 0, 1)));
        assert_eq!(counted(&unlink_absent), pick((1, 1, 0, 0), (0, 0, 0, 1)));
    });
}

/// The §3.2 protocol's work, counted over one script that exercises
/// every kind of shootdown: `(shootdowns, shootdown_visits, fast_hits,
/// fast_revalidations, fast_miss_dlht, fast_miss_pcc, read_retries)`
/// for each phase, per configuration (baseline, optimized).
#[test]
fn coherence_counts_per_phase() {
    use std::sync::atomic::Ordering::Relaxed;
    both(|k, p| {
        let optimized = k.dcache.config.fastpath;
        let pick = |baseline, opt| if optimized { opt } else { baseline };
        let counted = |run: &dyn Fn()| {
            k.reset_stats();
            run();
            let s = &k.dcache.stats;
            (
                s.shootdowns.load(Relaxed),
                s.shootdown_visits.load(Relaxed),
                s.fast_hits.load(Relaxed),
                s.fast_revalidations.load(Relaxed),
                s.fast_miss_dlht.load(Relaxed),
                s.fast_miss_pcc.load(Relaxed),
                s.read_retries.load(Relaxed),
            )
        };
        let files = ["/t/d/x", "/t/d/y", "/t/d/sub/z", "/t/e/w"];
        for dir in ["/t", "/t/d", "/t/d/sub", "/t/e"] {
            k.mkdir(&p, dir, 0o755).unwrap();
        }
        for f in files {
            let fd = k.open(&p, f, OpenFlags::create(), 0o644).unwrap();
            k.close(&p, fd).unwrap();
        }
        let stat_all = || {
            for f in files {
                k.stat(&p, f).unwrap();
            }
        };
        let fresh = || {
            let disk = Arc::new(dc_blockdev::CachedDisk::new(dc_blockdev::DiskConfig {
                capacity_blocks: 1024,
                ..Default::default()
            }));
            let config = dc_fs::MemFsConfig {
                max_inodes: 64,
                ..Default::default()
            };
            dc_fs::MemFs::mkfs(disk, config).unwrap() as Arc<dyn dc_fs::FileSystem>
        };
        let phases: [(&str, &dyn Fn()); 8] = [
            ("stat", &stat_all),
            ("chmod", &|| k.chmod(&p, "/t/d", 0o711).unwrap()),
            ("stat after chmod", &stat_all),
            ("rename there and back", &|| {
                k.rename(&p, "/t/d", "/t/moved").unwrap();
                k.rename(&p, "/t/moved", "/t/d").unwrap();
            }),
            ("stat after rename", &stat_all),
            ("mount, umount", &|| {
                k.mount_fs(&p, fresh(), "/t/d/sub", Default::default())
                    .unwrap();
                k.stat(&p, "/t/d/sub").unwrap();
                k.umount(&p, "/t/d/sub").unwrap();
            }),
            ("bind mount, umount", &|| {
                k.bind_mount(&p, "/t/e", "/t/d/sub").unwrap();
                k.stat(&p, "/t/d/sub/w").unwrap();
                k.umount(&p, "/t/d/sub").unwrap();
            }),
            ("stat after umount", &stat_all),
        ];
        let got: Vec<_> = phases
            .iter()
            .map(|(name, run)| (*name, counted(*run)))
            .collect();
        // The baseline shoots nothing, mount changes included, by design:
        // it reads no seq, DLHT entry or hash state.
        let want = pick(
            [(0, 0, 0, 0, 0, 0, 0); 8],
            [
                (0, 0, 0, 0, 4, 0, 0),
                (1, 5, 1, 0, 0, 0, 0),
                (0, 0, 4, 2, 0, 0, 0),
                (4, 12, 0, 0, 0, 0, 0),
                (0, 0, 1, 0, 3, 0, 0),
                (2, 3, 2, 0, 1, 0, 0),
                (2, 4, 2, 0, 2, 0, 0),
                (0, 0, 2, 0, 2, 0, 0),
            ],
        );
        let want: Vec<_> = phases.iter().map(|(n, _)| *n).zip(want).collect();
        assert_eq!(got, want);
    });
}
