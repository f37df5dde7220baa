//! POSIX semantics not covered by the per-crate tests: permission
//! matrices, sticky bits, credential changes, path-based MAC, and the
//! `*at()` family — run against both cache configurations.

use dcache_repro::cred::{CredBuilder, MacRule, PathMac, SecurityStack, MAY_READ, MAY_WRITE};
use dcache_repro::fs::{FileType, FsError};
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

fn both(test: impl Fn(Arc<Kernel>, Arc<Process>)) {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let k = KernelBuilder::new(config.with_seed(77)).build().unwrap();
        test(k.clone(), k.init_process());
    }
}

#[test]
fn group_permissions_and_supplementary_groups() {
    both(|k, root| {
        k.mkdir(&root, "/shared", 0o750).unwrap();
        k.chown(&root, "/shared", Some(0), Some(500)).unwrap();
        let fd = k
            .open(&root, "/shared/doc", OpenFlags::create(), 0o640)
            .unwrap();
        k.close(&root, fd).unwrap();
        k.chown(&root, "/shared/doc", Some(0), Some(500)).unwrap();

        let member = k.spawn_with_cred(
            &root,
            CredBuilder::new(1000, 100).with_groups(&[500]).build(),
        );
        let outsider = k.spawn_with_cred(&root, CredBuilder::new(1001, 101).build());
        assert!(k.stat(&member, "/shared/doc").is_ok());
        assert!(k
            .open(&member, "/shared/doc", OpenFlags::read_only(), 0)
            .is_ok());
        assert_eq!(k.stat(&outsider, "/shared/doc"), Err(FsError::Access));
        // Member may read but not write (g=r).
        assert_eq!(
            k.open(&member, "/shared/doc", OpenFlags::read_write(), 0)
                .unwrap_err(),
            FsError::Access
        );
    });
}

#[test]
fn sticky_bit_restricts_deletion() {
    both(|k, root| {
        k.mkdir(&root, "/tmp", 0o777).unwrap();
        k.chmod(&root, "/tmp", 0o1777).unwrap();
        let alice = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1000, 1000));
        let bob = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1001, 1001));
        let fd = k
            .open(&alice, "/tmp/alice.dat", OpenFlags::create(), 0o666)
            .unwrap();
        k.close(&alice, fd).unwrap();
        // Bob cannot remove or rename Alice's file in a sticky dir.
        assert_eq!(k.unlink(&bob, "/tmp/alice.dat"), Err(FsError::Perm));
        assert_eq!(
            k.rename(&bob, "/tmp/alice.dat", "/tmp/stolen"),
            Err(FsError::Perm)
        );
        // Alice and root can.
        assert!(k.rename(&alice, "/tmp/alice.dat", "/tmp/mine").is_ok());
        assert!(k.unlink(&root, "/tmp/mine").is_ok());
    });
}

#[test]
fn setuid_commit_creates_or_reuses_cred() {
    both(|k, root| {
        k.mkdir(&root, "/work", 0o755).unwrap();
        let p = k.spawn(&root);
        let before = p.cred().id();
        // A no-op "setuid" (same ids) must reuse the cred — and with it
        // the prefix check cache (§4.1).
        let same = k.setuid(&p, 0, 0);
        assert_eq!(same.id(), before);
        // A real change allocates a new cred.
        let changed = k.setuid(&p, 1000, 1000);
        assert_ne!(changed.id(), before);
        assert_eq!(p.cred().uid, 1000);
        // Dropped privileges are enforced.
        k.chmod(&root, "/work", 0o700).unwrap();
        assert_eq!(k.stat(&p, "/work/x"), Err(FsError::Access));
    });
}

#[test]
fn pathmac_lsm_denies_by_path_prefix() {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let mut stack = SecurityStack::dac_only();
        stack.push(Arc::new(PathMac::new(vec![
            MacRule {
                uid: Some(1000),
                path_prefix: "/etc/secret".into(),
                deny_mask: MAY_READ | MAY_WRITE,
            },
            MacRule {
                uid: None,
                path_prefix: "/vault".into(),
                deny_mask: MAY_WRITE,
            },
        ])));
        let k = KernelBuilder::new(config.with_seed(78))
            .security(stack)
            .build()
            .unwrap();
        let root = k.init_process();
        k.mkdir(&root, "/etc", 0o755).unwrap();
        k.mkdir(&root, "/etc/secret", 0o755).unwrap();
        let fd = k
            .open(&root, "/etc/secret/key", OpenFlags::create(), 0o666)
            .unwrap();
        k.close(&root, fd).unwrap();
        k.mkdir(&root, "/vault", 0o777).unwrap();

        let alice = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1000, 1000));
        // MAC denies the read despite permissive mode bits; repeats (the
        // memoized-PCC path) stay denied.
        for _ in 0..3 {
            assert_eq!(
                k.open(&alice, "/etc/secret/key", OpenFlags::read_only(), 0)
                    .unwrap_err(),
                FsError::Access
            );
        }
        // stat (no read intent) still passes DAC+MAC search rules.
        assert!(k.stat(&alice, "/etc/secret/key").is_ok());
        // The wildcard rule binds root too (mandatory, not discretionary).
        assert_eq!(
            k.open(&root, "/vault/w", OpenFlags::create(), 0o644)
                .unwrap_err(),
            FsError::Access
        );
    }
}

#[test]
fn at_family_with_moving_dirfd() {
    both(|k, root| {
        k.mkdir(&root, "/a", 0o755).unwrap();
        k.mkdir(&root, "/a/sub", 0o755).unwrap();
        let fd = k
            .open(&root, "/a/sub/f", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        let dirfd = k.open(&root, "/a/sub", OpenFlags::directory(), 0).unwrap();
        assert!(k.fstatat(&root, dirfd, "f", false).is_ok());
        // Renaming the directory does not invalidate the handle: lookups
        // through the dirfd keep working on the moved directory.
        k.rename(&root, "/a/sub", "/a/moved").unwrap();
        assert!(k.fstatat(&root, dirfd, "f", false).is_ok());
        assert_eq!(k.stat(&root, "/a/sub/f"), Err(FsError::NoEnt));
        assert!(k.stat(&root, "/a/moved/f").is_ok());
        // unlinkat through the handle.
        k.unlinkat(&root, dirfd, "f", false).unwrap();
        assert_eq!(k.fstatat(&root, dirfd, "f", false), Err(FsError::NoEnt));
        k.close(&root, dirfd).unwrap();
    });
}

/// The handle, not a path string rebuilt from it, names the directory an
/// `*at()` call starts in: under a `chroot` the namespace path of the
/// handle's directory (`/jail/d`) does not resolve from the process root.
#[test]
fn at_family_starts_at_the_handle_under_a_chroot() {
    both(|k, root| {
        k.mkdir(&root, "/jail", 0o755).unwrap();
        k.mkdir(&root, "/jail/d", 0o755).unwrap();
        let fd = k
            .open(&root, "/jail/d/f", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        let jailed = k.spawn(&root);
        k.chroot(&jailed, "/jail").unwrap();
        let dfd = k.open(&jailed, "/d", OpenFlags::directory(), 0).unwrap();
        k.fstatat(&jailed, dfd, "f", false).unwrap();
        k.mkdirat(&jailed, dfd, "sub", 0o755).unwrap();
        k.unlinkat(&jailed, dfd, "f", false).unwrap();
        k.unlinkat(&jailed, dfd, "sub", true).unwrap();
        k.close(&jailed, dfd).unwrap();
        assert_eq!(k.stat(&root, "/jail/d/f"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&root, "/jail/d/sub"), Err(FsError::NoEnt));
    });
}

/// The same three calls through a handle whose directory was renamed
/// after the `open`.
#[test]
fn at_family_follows_a_renamed_directory() {
    both(|k, root| {
        k.mkdir(&root, "/a", 0o755).unwrap();
        k.mkdir(&root, "/a/sub", 0o755).unwrap();
        let fd = k
            .open(&root, "/a/sub/f", OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&root, fd).unwrap();
        let dfd = k.open(&root, "/a/sub", OpenFlags::directory(), 0).unwrap();
        k.rename(&root, "/a/sub", "/a/moved").unwrap();
        k.fstatat(&root, dfd, "f", false).unwrap();
        k.mkdirat(&root, dfd, "new", 0o755).unwrap();
        assert!(k.stat(&root, "/a/moved/new").unwrap().ftype.is_dir());
        k.unlinkat(&root, dfd, "f", false).unwrap();
        k.unlinkat(&root, dfd, "new", true).unwrap();
        k.close(&root, dfd).unwrap();
        assert_eq!(k.stat(&root, "/a/moved/f"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&root, "/a/moved/new"), Err(FsError::NoEnt));
    });
}

#[test]
fn open_flags_matrix() {
    both(|k, root| {
        let fd = k.open(&root, "/f", OpenFlags::create(), 0o644).unwrap();
        k.write_fd(&root, fd, b"0123456789").unwrap();
        k.close(&root, fd).unwrap();
        // O_EXCL on existing.
        assert_eq!(
            k.open(&root, "/f", OpenFlags::create_excl(), 0o644)
                .unwrap_err(),
            FsError::Exist
        );
        // O_TRUNC empties.
        let fd = k.open(&root, "/f", OpenFlags::create(), 0o644).unwrap();
        k.close(&root, fd).unwrap();
        assert_eq!(k.stat(&root, "/f").unwrap().size, 0);
        // O_APPEND writes at the end.
        let mut fl = OpenFlags::read_write();
        fl.append = true;
        let fd = k.open(&root, "/f", fl, 0).unwrap();
        k.write_fd(&root, fd, b"aa").unwrap();
        k.write_fd(&root, fd, b"bb").unwrap();
        k.close(&root, fd).unwrap();
        assert_eq!(k.stat(&root, "/f").unwrap().size, 4);
        // O_DIRECTORY on a file.
        assert_eq!(
            k.open(&root, "/f", OpenFlags::directory(), 0).unwrap_err(),
            FsError::NotDir
        );
        // Write to a directory.
        k.mkdir(&root, "/d", 0o755).unwrap();
        assert_eq!(
            k.open(&root, "/d", OpenFlags::read_write(), 0).unwrap_err(),
            FsError::IsDir
        );
        // O_NOFOLLOW on a symlink.
        k.symlink(&root, "/f", "/lnk").unwrap();
        let mut nf = OpenFlags::read_only();
        nf.nofollow = true;
        assert_eq!(k.open(&root, "/lnk", nf, 0).unwrap_err(), FsError::Loop);
    });
}

#[test]
fn io_through_handles() {
    both(|k, root| {
        let fd = k.open(&root, "/io", OpenFlags::create(), 0o644).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(k.write_fd(&root, fd, &payload).unwrap(), payload.len());
        k.close(&root, fd).unwrap();
        let fd = k.open(&root, "/io", OpenFlags::read_only(), 0).unwrap();
        let first = k.read_fd(&root, fd, 4096).unwrap();
        assert_eq!(&first[..], &payload[..4096]);
        let second = k.read_fd(&root, fd, 4096).unwrap();
        assert_eq!(&second[..], &payload[4096..8192]);
        let mid = k.pread(&root, fd, 100, 64).unwrap();
        assert_eq!(&mid[..], &payload[100..164]);
        k.lseek(&root, fd, 9990).unwrap();
        assert_eq!(k.read_fd(&root, fd, 100).unwrap().len(), 10);
        // Reads on a write-only handle are EBADF.
        k.close(&root, fd).unwrap();
        let wo = OpenFlags {
            write: true,
            ..Default::default()
        };
        let fd = k.open(&root, "/io", wo, 0).unwrap();
        assert_eq!(k.read_fd(&root, fd, 1), Err(FsError::BadF));
        k.close(&root, fd).unwrap();
        // fstat on a closed fd.
        assert_eq!(k.fstat(&root, fd), Err(FsError::BadF));
    });
}

#[test]
fn unlinked_open_file_semantics() {
    both(|k, root| {
        let fd = k.open(&root, "/ghost", OpenFlags::create(), 0o644).unwrap();
        k.write_fd(&root, fd, b"boo").unwrap();
        k.unlink(&root, "/ghost").unwrap();
        // The path is gone...
        assert_eq!(k.stat(&root, "/ghost"), Err(FsError::NoEnt));
        // ...but the handle still answers fstat from the cached inode.
        assert_eq!(k.fstat(&root, fd).unwrap().size, 3);
        k.close(&root, fd).unwrap();
    });
}

#[test]
fn chown_rules() {
    both(|k, root| {
        let fd = k.open(&root, "/owned", OpenFlags::create(), 0o644).unwrap();
        k.close(&root, fd).unwrap();
        k.chown(&root, "/owned", Some(1000), Some(100)).unwrap();
        let owner = k.spawn_with_cred(
            &root,
            CredBuilder::new(1000, 100).with_groups(&[200]).build(),
        );
        // Owner may change the group to one they belong to...
        assert!(k.chown(&owner, "/owned", None, Some(200)).is_ok());
        // ...but not give the file away or join foreign groups.
        assert_eq!(
            k.chown(&owner, "/owned", Some(1001), None),
            Err(FsError::Perm)
        );
        assert_eq!(
            k.chown(&owner, "/owned", None, Some(999)),
            Err(FsError::Perm)
        );
        // chmod is owner-or-root.
        assert!(k.chmod(&owner, "/owned", 0o600).is_ok());
        let other = k.spawn_with_cred(&root, dcache_repro::cred::Cred::user(1001, 101));
        assert_eq!(k.chmod(&other, "/owned", 0o777), Err(FsError::Perm));
    });
}

/// ROADMAP 1(c): `rmdir` of a directory that is still some process's cwd,
/// root or open handle removes the *name*; the holder keeps a directory.
/// At `d024490` the optimized cache turned the held dentry itself
/// negative: `stat .` was `ENOENT`, and after `creat /d` it was
/// `ENOTDIR` — the cwd had become a file.
#[test]
fn a_removed_directory_keeps_its_identity_for_whoever_holds_it() {
    both(|k, root| {
        let root_ino = k.stat(&root, "/").unwrap().ino;
        k.mkdir(&root, "/d", 0o755).unwrap();
        let ino = k.stat(&root, "/d").unwrap().ino;
        let held_cwd = k.spawn(&root);
        k.chdir(&held_cwd, "/d").unwrap();
        let held_root = k.spawn(&root);
        k.chroot(&held_root, "/d").unwrap();
        let dirfd = k.open(&root, "/d", OpenFlags::directory(), 0).unwrap();
        k.rmdir(&root, "/d").unwrap();
        assert_eq!(k.stat(&root, "/d"), Err(FsError::NoEnt));
        for _ in 0..2 {
            assert_eq!(k.stat(&held_cwd, ".").unwrap().ino, ino);
            assert_eq!(k.stat(&held_cwd, "..").unwrap().ino, root_ino);
            assert_eq!(k.stat(&held_root, "/").unwrap().ino, ino);
            assert_eq!(k.fstatat(&root, dirfd, ".", false).unwrap().ino, ino);
            assert_eq!(k.stat(&held_cwd, "x"), Err(FsError::NoEnt));
        }
        k.chroot(&held_root, "/..").unwrap();
        // The name is free again, and reusing it does not reach the holders
        // — nor does what they look up in the removed directory reach it.
        let fd = k.open(&root, "/d", OpenFlags::create(), 0o644).unwrap();
        k.close(&root, fd).unwrap();
        assert!(k.stat(&held_cwd, ".").unwrap().ftype.is_dir());
        assert_eq!(k.stat(&held_cwd, "x/y"), Err(FsError::NoEnt));
        assert_eq!(k.stat(&root, "/d/x"), Err(FsError::NotDir));
        k.fchdir(&root, dirfd).unwrap();
        assert!(k.stat(&root, ".").unwrap().ftype.is_dir());
        assert_eq!(k.stat(&root, "/d").unwrap().ftype, FileType::Regular);
    });
}

/// ROADMAP 1(f): a directory's size and link count are its file system's
/// to say. At `d024490` the cached inode kept what `mkdir` first saw, so
/// `stat` answered one thing while the directory stayed cached and
/// another after an eviction — under either configuration.
#[test]
fn a_directory_stat_follows_its_entries_cached_or_not() {
    both(|k, root| {
        k.mkdir(&root, "/p", 0o755).unwrap();
        k.mkdir(&root, "/q", 0o755).unwrap();
        let shape = |path: &str| {
            let a = k.stat(&root, path).unwrap();
            (a.nlink, a.size)
        };
        let empty = shape("/p");
        k.mkdir(&root, "/p/sub", 0o755).unwrap();
        let fd = k.open(&root, "/p/f", OpenFlags::create(), 0o644).unwrap();
        k.close(&root, fd).unwrap();
        let full = shape("/p");
        assert_eq!(full.0, empty.0 + 1, "a subdirectory links its parent");
        assert!(full.1 > empty.1, "entries take room");
        k.rename(&root, "/p/sub", "/q/sub").unwrap();
        assert_eq!((shape("/p").0, shape("/q").0), (empty.0, empty.0 + 1));
        k.unlink(&root, "/p/f").unwrap();
        k.rmdir(&root, "/q/sub").unwrap();
        let cached = (shape("/p"), shape("/q"));
        k.memory_pressure(0);
        assert_eq!((shape("/p"), shape("/q")), cached);
        assert_eq!(cached.1 .0, empty.0);
    });
}

/// The same for a directory replaced by `rename`: whoever is rooted in it
/// lists what the file system says of a removed directory, not the cached
/// listing of the live one it used to be.
#[test]
fn a_directory_renamed_over_is_gone_for_whoever_holds_it() {
    both(|k, root| {
        k.mkdir(&root, "/beta", 0o755).unwrap();
        k.mkdir(&root, "/gamma", 0o755).unwrap();
        let held = k.spawn(&root);
        k.chroot(&held, "/beta").unwrap();
        assert!(k.list_dir(&held, "/").unwrap().is_empty());
        k.rename(&root, "/gamma", "/beta").unwrap();
        assert_eq!(k.list_dir(&held, "/").unwrap_err(), FsError::NoEnt);
        assert!(k.list_dir(&root, "/beta").unwrap().is_empty());
    });
}
