//! Mounts, bind mounts (mount aliases), mount flags, pseudo file
//! systems, mount namespaces, and chroot — §4.3 end to end.

use dcache_repro::blockdev::{CachedDisk, DiskConfig};
use dcache_repro::fs::{FileSystem, FsError, MemFs, MemFsConfig, PseudoFs};
use dcache_repro::vfs::MountFlags;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

fn both(test: impl Fn(Arc<Kernel>, Arc<Process>)) {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let k = KernelBuilder::new(config.with_seed(88)).build().unwrap();
        test(k.clone(), k.init_process());
    }
}

fn small_memfs() -> Arc<dyn FileSystem> {
    let disk = Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks: 8192,
        ..Default::default()
    }));
    MemFs::mkfs(
        disk,
        MemFsConfig {
            max_inodes: 4096,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn mount_and_umount_cycle() {
    both(|k, root| {
        k.mkdir(&root, "/mnt", 0o755).unwrap();
        // The mountpoint holds a marker file that the mount covers.
        k.mkdir(&root, "/mnt/disk", 0o755).unwrap();
        let fd = k
            .open(&root, "/mnt/disk/under", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        // Warm the cache on the covered path.
        for _ in 0..3 {
            assert!(k.stat(&root, "/mnt/disk/under").is_ok());
        }
        let fs = small_memfs();
        k.mount_fs(&root, fs, "/mnt/disk", MountFlags::default())
            .unwrap();
        // The mount covers the old content...
        assert_eq!(k.stat(&root, "/mnt/disk/under"), Err(FsError::NoEnt));
        // ...and the new file system is live.
        let fd = k
            .open(&root, "/mnt/disk/on-new-fs", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        assert!(k.stat(&root, "/mnt/disk/on-new-fs").is_ok());
        // Dot-dot climbs out of the mount.
        assert!(k.stat(&root, "/mnt/disk/..").is_ok());
        k.chdir(&root, "/mnt/disk").unwrap();
        assert!(k.stat(&root, "../..").is_ok());
        k.chdir(&root, "/").unwrap();
        // Unmount restores the covered content.
        k.umount(&root, "/mnt/disk").unwrap();
        assert!(k.stat(&root, "/mnt/disk/under").is_ok());
        assert_eq!(k.stat(&root, "/mnt/disk/on-new-fs"), Err(FsError::NoEnt));
    });
}

#[test]
fn read_only_mounts_reject_writes() {
    both(|k, root| {
        k.mkdir(&root, "/ro", 0o755).unwrap();
        let fs = small_memfs();
        // Pre-populate through a scratch mount.
        k.mkdir(&root, "/scratch", 0o755).unwrap();
        k.mount_fs(&root, fs.clone(), "/scratch", MountFlags::default())
            .unwrap();
        let fd = k
            .open(&root, "/scratch/data", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        k.umount(&root, "/scratch").unwrap();
        k.mount_fs(
            &root,
            fs,
            "/ro",
            MountFlags {
                read_only: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(k.stat(&root, "/ro/data").is_ok());
        assert_eq!(
            k.open(&root, "/ro/new", OpenFlags::create(), 0o644)
                .unwrap_err(),
            FsError::RoFs
        );
        assert_eq!(
            k.open(&root, "/ro/data", OpenFlags::read_write(), 0)
                .unwrap_err(),
            FsError::RoFs
        );
        assert_eq!(k.unlink(&root, "/ro/data"), Err(FsError::RoFs));
        assert_eq!(k.mkdir(&root, "/ro/dir", 0o755), Err(FsError::RoFs));
    });
}

#[test]
fn bind_mounts_alias_the_same_tree() {
    both(|k, root| {
        k.mkdir(&root, "/data", 0o755).unwrap();
        k.mkdir(&root, "/data/sub", 0o755).unwrap();
        let fd = k
            .open(&root, "/data/sub/file", OpenFlags::create(), 0o644)
            .unwrap();
        k.write_fd(&root, fd, b"alias me").unwrap();
        k.close(&root, fd).unwrap();
        k.mkdir(&root, "/view", 0o755).unwrap();
        k.bind_mount(&root, "/data", "/view").unwrap();
        // Same objects through both paths (alternating accesses exercise
        // the one-signature-per-dentry rule, §4.3).
        for _ in 0..3 {
            let a = k.stat(&root, "/data/sub/file").unwrap();
            let b = k.stat(&root, "/view/sub/file").unwrap();
            assert_eq!(a.ino, b.ino);
        }
        // A write through one view is visible through the other.
        let fd = k
            .open(&root, "/view/sub/file", OpenFlags::read_write(), 0)
            .unwrap();
        k.write_fd(&root, fd, b"updated!").unwrap();
        k.close(&root, fd).unwrap();
        assert_eq!(k.stat(&root, "/data/sub/file").unwrap().size, 8);
        // Creations through the alias appear in the origin.
        let fd = k
            .open(&root, "/view/sub/new", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        assert!(k.stat(&root, "/data/sub/new").is_ok());
    });
}

#[test]
fn pseudo_fs_mounts_and_negative_policy() {
    for (config, expect_pseudo_negatives) in [
        (DcacheConfig::baseline(), false),
        (DcacheConfig::optimized(), true),
    ] {
        let k = KernelBuilder::new(config.with_seed(89)).build().unwrap();
        let root = k.init_process();
        k.mkdir(&root, "/proc", 0o555).unwrap();
        let proc_fs = PseudoFs::new(0o555);
        proc_fs
            .add_file(proc_fs.root_ino(), "meminfo", 0o444, || {
                b"MemTotal: 1 kB".to_vec()
            })
            .unwrap();
        let pid = proc_fs.add_dir(proc_fs.root_ino(), "1", 0o555).unwrap();
        proc_fs
            .add_file(pid, "status", 0o444, || b"State: R".to_vec())
            .unwrap();
        k.mount_fs(
            &root,
            proc_fs as Arc<dyn FileSystem>,
            "/proc",
            MountFlags::default(),
        )
        .unwrap();
        assert!(k.stat(&root, "/proc/meminfo").is_ok());
        assert!(k.stat(&root, "/proc/1/status").is_ok());
        let fd = k
            .open(&root, "/proc/meminfo", OpenFlags::read_only(), 0)
            .unwrap();
        assert_eq!(&k.read_fd(&root, fd, 64).unwrap()[..], b"MemTotal: 1 kB");
        k.close(&root, fd).unwrap();
        // Mutations are rejected by the pseudo fs itself.
        assert_eq!(
            k.open(&root, "/proc/new", OpenFlags::create(), 0o644)
                .unwrap_err(),
            FsError::Perm
        );
        // Negative-dentry policy: baseline never caches pseudo-fs misses
        // (§5.2); the optimized config does.
        k.reset_stats();
        for _ in 0..5 {
            assert_eq!(k.stat(&root, "/proc/42"), Err(FsError::NoEnt));
        }
        let neg = k.dcache.stats.neg_hit_rate() > 0.0;
        assert_eq!(
            neg, expect_pseudo_negatives,
            "pseudo-fs negative policy mismatch"
        );
    }
}

#[test]
fn namespaces_isolate_mounts() {
    both(|k, root| {
        k.mkdir(&root, "/shared", 0o755).unwrap();
        k.mkdir(&root, "/private", 0o755).unwrap();
        let fd = k
            .open(&root, "/shared/base", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();

        let container = k.spawn(&root);
        let ns = k.unshare_ns(&container).unwrap();
        assert_ne!(ns.id, root.namespace().id);
        // A mount made inside the namespace is invisible outside.
        let fs = small_memfs();
        k.mount_fs(&container, fs, "/private", MountFlags::default())
            .unwrap();
        let fd = k
            .open(&container, "/private/only-here", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&container, fd).unwrap();
        assert!(k.stat(&container, "/private/only-here").is_ok());
        assert_eq!(k.stat(&root, "/private/only-here"), Err(FsError::NoEnt));
        // The underlying tree is still shared (same superblock).
        assert!(k.stat(&container, "/shared/base").is_ok());
        let fd = k
            .open(
                &container,
                "/shared/from-container",
                OpenFlags::create(),
                0o644,
            )
            .unwrap();
        k.close(&container, fd).unwrap();
        assert!(k.stat(&root, "/shared/from-container").is_ok());
    });
}

#[test]
fn chroot_confines_resolution() {
    both(|k, root| {
        k.mkdir(&root, "/jail", 0o755).unwrap();
        k.mkdir(&root, "/jail/etc", 0o755).unwrap();
        let fd = k
            .open(&root, "/jail/etc/conf", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        let fd = k
            .open(&root, "/topsecret", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();

        let jailed = k.spawn(&root);
        k.chroot(&jailed, "/jail").unwrap();
        // Inside, paths are jail-relative.
        assert!(k.stat(&jailed, "/etc/conf").is_ok());
        assert_eq!(k.stat(&jailed, "/topsecret"), Err(FsError::NoEnt));
        // Dot-dot cannot escape the jail.
        assert_eq!(k.stat(&jailed, "/../topsecret"), Err(FsError::NoEnt));
        assert_eq!(
            k.stat(&jailed, "/../../.."),
            Ok(k.stat(&jailed, "/").unwrap())
        );
        // Only root may chroot.
        let user = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1000, 1000));
        assert_eq!(k.chroot(&user, "/jail"), Err(FsError::Perm));
    });
}

#[test]
fn umount_busy_and_invalid_cases() {
    both(|k, root| {
        k.mkdir(&root, "/m1", 0o755).unwrap();
        let fs = small_memfs();
        k.mount_fs(&root, fs.clone(), "/m1", MountFlags::default())
            .unwrap();
        k.mkdir(&root, "/m1/inner", 0o755).unwrap();
        let fs2 = small_memfs();
        k.mount_fs(&root, fs2, "/m1/inner", MountFlags::default())
            .unwrap();
        // Parent mount is busy while a child mount exists.
        assert_eq!(k.umount(&root, "/m1"), Err(FsError::Busy));
        k.umount(&root, "/m1/inner").unwrap();
        // Busy while a process stands in it: a cwd...
        let p = k.spawn(&root);
        k.chdir(&p, "/m1/inner").unwrap();
        assert_eq!(k.umount(&root, "/m1"), Err(FsError::Busy));
        k.chdir(&p, "/").unwrap();
        k.umount(&root, "/m1").unwrap();
        // Not a mount root.
        assert_eq!(k.umount(&root, "/m1"), Err(FsError::Inval));
        // ...a root (and the cwd a chroot sets)...
        k.mount_fs(&root, fs.clone(), "/m1", MountFlags::default())
            .unwrap();
        let jailed = k.spawn(&root);
        k.chroot(&jailed, "/m1").unwrap();
        assert_eq!(k.umount(&root, "/m1"), Err(FsError::Busy));
        drop(jailed);
        // ...or an open handle.
        let fd = k.open(&root, "/m1/f", OpenFlags::create(), 0o644).unwrap();
        assert_eq!(k.umount(&root, "/m1"), Err(FsError::Busy));
        k.close(&root, fd).unwrap();
        k.umount(&root, "/m1").unwrap();
        // rmdir of a mountpoint is EBUSY.
        k.mkdir(&root, "/m2", 0o755).unwrap();
        k.mount_fs(&root, fs, "/m2", MountFlags::default()).unwrap();
        assert_eq!(k.rmdir(&root, "/m2"), Err(FsError::Busy));
    });
}

/// ROADMAP 1(d): a dentry's stored hash state is the path the *last* walk
/// took, through the mount it took it by. Binding `/` over `/x` and
/// walking into it re-signs the root dentry as `/x`; at `d024490` every
/// absolute lookup then resumed from that state, so `/x` hashed as `/x/x`
/// and answered with the covered directory.
#[test]
fn an_ancestor_bound_over_a_descendant_does_not_resign_the_root() {
    both(|k, root| {
        let root_ino = k.stat(&root, "/").unwrap().ino;
        k.mkdir(&root, "/x", 0o755).unwrap();
        let covered = k.stat(&root, "/x").unwrap().ino;
        k.bind_mount(&root, "/", "/x").unwrap();
        for _ in 0..2 {
            assert_eq!(k.lstat(&root, "/x/x").unwrap().ino, covered);
            assert_eq!(k.stat(&root, "/x").unwrap().ino, root_ino);
            assert_eq!(k.stat(&root, "/x/x").unwrap().ino, covered);
            assert_eq!(k.stat(&root, "/x/x/x"), Err(FsError::NoEnt));
        }
    });
}

/// The same rule for any anchor: a cwd reached through one mount does not
/// resume from the state a walk through the other mount left in its
/// dentry (`..` from `/view/sub` is `/view`, from `/data/sub` `/data`).
#[test]
fn a_cwd_resumes_only_from_a_state_signed_through_its_own_mount() {
    both(|k, root| {
        k.mkdir(&root, "/data", 0o755).unwrap();
        k.mkdir(&root, "/data/sub", 0o755).unwrap();
        k.mkdir(&root, "/view", 0o755).unwrap();
        k.bind_mount(&root, "/data", "/view").unwrap();
        k.mkdir(&root, "/only-in-root", 0o755).unwrap();
        let via_data = k.spawn(&root);
        k.chdir(&via_data, "/data/sub").unwrap();
        let via_view = k.spawn(&root);
        k.chdir(&via_view, "/view/sub").unwrap();
        let fd = k
            .open(&root, "/data/sub/f", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        let f = k.stat(&root, "/data/sub/f").unwrap().ino;
        for _ in 0..2 {
            for p in [&via_data, &via_view] {
                assert_eq!(k.stat(p, "f").unwrap().ino, f);
                assert_eq!(k.stat(p, "../sub/f").unwrap().ino, f);
                assert!(k.stat(p, "../../only-in-root").is_ok());
            }
            assert_eq!(k.getcwd(&via_data), "/data/sub");
            assert_eq!(k.getcwd(&via_view), "/view/sub");
        }
    });
}

/// No path string leads below a mountpoint. A process whose root was
/// mounted over still walks the covered directory, and at `d024490` what
/// it looked up there was published under the path that now crosses the
/// mount: its miss on `/alpha` became everyone's `ENOENT` for
/// `/beta/alpha`.
#[test]
fn a_walk_below_a_covered_root_publishes_nothing() {
    both(|k, root| {
        k.mkdir(&root, "/beta", 0o755).unwrap();
        let under = k.spawn(&root);
        k.chroot(&under, "/beta").unwrap();
        k.bind_mount(&root, "/", "/beta").unwrap();
        k.mkdir(&root, "/alpha", 0o755).unwrap();
        let alpha = k.stat(&root, "/alpha").unwrap().ino;
        for _ in 0..2 {
            assert_eq!(k.stat(&under, "/alpha"), Err(FsError::NoEnt));
            assert_eq!(k.stat(&root, "/beta/alpha").unwrap().ino, alpha);
        }
    });
}

/// A mounted-on directory is busy by whichever alias of its tree the
/// caller names it (Linux's `d_mountpoint`): with `/` bound over
/// `/gamma`, `/gamma/gamma` is the mountpoint itself.
#[test]
fn a_mountpoint_is_busy_through_every_alias() {
    both(|k, root| {
        k.mkdir(&root, "/gamma", 0o755).unwrap();
        k.mkdir(&root, "/other", 0o755).unwrap();
        k.bind_mount(&root, "/", "/gamma").unwrap();
        assert_eq!(k.rmdir(&root, "/gamma/gamma"), Err(FsError::Busy));
        assert_eq!(
            k.rename(&root, "/gamma/gamma", "/gamma/moved"),
            Err(FsError::Busy)
        );
        assert_eq!(
            k.rename(&root, "/gamma/other", "/gamma/gamma"),
            Err(FsError::Busy)
        );
        k.umount(&root, "/gamma").unwrap();
        k.rmdir(&root, "/gamma").unwrap();
    });
}

/// A shootdown follows the mounts that hang inside the subtree it walks:
/// what is mounted below a renamed or closed directory is reached through
/// it but lives in another dentry tree. At `d024490` every signature and
/// memoized prefix check under a mountpoint outlived both.
#[test]
fn renaming_or_closing_a_directory_reaches_what_is_mounted_below_it() {
    both(|k, root| {
        k.mkdir(&root, "/a", 0o755).unwrap();
        k.mkdir(&root, "/a/m", 0o755).unwrap();
        k.mount_fs(&root, small_memfs(), "/a/m", MountFlags::default())
            .unwrap();
        let fd = k.open(&root, "/a/m/f", OpenFlags::create(), 0o644).unwrap();
        k.close(&root, fd).unwrap();
        let user = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1000, 1000));
        for _ in 0..2 {
            assert!(k.stat(&user, "/a/m/f").is_ok());
        }
        k.chmod(&root, "/a", 0o700).unwrap();
        assert_eq!(k.stat(&user, "/a/m/f"), Err(FsError::Access));
        assert_eq!(k.stat(&user, "/a/m"), Err(FsError::Access));
        k.chmod(&root, "/a", 0o755).unwrap();
        assert!(k.stat(&user, "/a/m/f").is_ok());
        k.rename(&root, "/a", "/b").unwrap();
        for p in [&root, &user] {
            assert_eq!(k.stat(p, "/a/m/f"), Err(FsError::NoEnt));
            assert_eq!(k.stat(p, "/a/m"), Err(FsError::NoEnt));
            assert!(k.stat(p, "/b/m/f").is_ok());
        }
    });
}

/// A symlink's recorded end point is true of the mount the link was read
/// through. `/l -> d` with `/` bound over `/d`: `/l` crosses into the
/// bind, `/l/l` — the same link, read inside it — ends at the covered
/// directory. A record is kept per link, so it is kept only while the
/// link is signed through the mount it was made in (seed 1902 of the
/// soak, while this PR's queued `LinkSig` lacked that check).
#[test]
fn a_link_read_through_two_mounts_keeps_two_answers() {
    both(|k, root| {
        let root_ino = k.stat(&root, "/").unwrap().ino;
        k.mkdir(&root, "/d", 0o755).unwrap();
        let covered = k.stat(&root, "/d").unwrap().ino;
        k.symlink(&root, "d", "/l").unwrap();
        k.bind_mount(&root, "/", "/d").unwrap();
        let user = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1000, 1000));
        for _ in 0..2 {
            assert_eq!(k.stat(&root, "/l").unwrap().ino, root_ino);
            k.chdir(&root, "/l/l/.").unwrap();
            assert_eq!(k.stat(&root, ".").unwrap().ino, covered);
            assert_eq!(k.stat(&user, "/l").unwrap().ino, root_ino);
        }
    });
}

/// One mount per mountpoint. Only a process whose root or cwd was mounted
/// over can still name the covered directory; a second mount there used
/// to replace the first in the mountpoint index while both stayed
/// mounted.
#[test]
fn a_covered_directory_takes_no_second_mount() {
    both(|k, root| {
        k.mkdir(&root, "/d", 0o755).unwrap();
        k.mkdir(&root, "/e", 0o755).unwrap();
        let under = k.spawn(&root);
        k.chroot(&under, "/d").unwrap();
        k.bind_mount(&root, "/e", "/d").unwrap();
        assert_eq!(k.bind_mount(&under, "/", "/"), Err(FsError::Busy));
        let stacked = k.mount_fs(&under, small_memfs(), "/", MountFlags::default());
        assert_eq!(stacked, Err(FsError::Busy));
        k.umount(&root, "/d").unwrap();
    });
}

/// A process standing in a mount keeps it mounted, as in Linux: its root
/// there makes `umount` answer `EBUSY`. Left in the unmounted tree, a
/// root hash state rebuilt from the old mountpoint would make its `/g`
/// everyone's `/a/g` (seed 30 of the Tier-1 budget). Mounted, its `/g` is
/// the root's `/g`, and what it publishes answers nobody's `/a/g`.
#[test]
fn a_process_standing_in_a_mount_keeps_it_and_shares_nothing() {
    both(|k, root| {
        k.mkdir(&root, "/a", 0o755).unwrap();
        k.bind_mount(&root, "/", "/a").unwrap();
        let inside = k.spawn(&root);
        k.chroot(&inside, "/a").unwrap();
        assert_eq!(k.umount(&inside, "/.."), Err(FsError::Busy));
        assert_eq!(k.stat(&inside, "/a/g"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&root, "/a/g"), Err(FsError::NoEnt));
        k.symlink(&root, "/x/..", "/g").unwrap();
        for _ in 0..2 {
            assert!(k.lstat(&inside, "/g").is_ok());
            assert_eq!(k.stat(&root, "/a/g"), Err(FsError::NoEnt));
        }
    });
}
