//! Adversarial checks on the fastpath's security argument (§3.3):
//! signature-based lookup must never let one credential leverage another
//! credential's cache state, and cache-internal churn caused by an
//! adversary must never change what a victim's lookup returns.

use dcache_repro::cred::Cred;
use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

fn world() -> (Arc<Kernel>, Arc<Process>) {
    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(0x5ec))
        .build()
        .unwrap();
    let p = k.init_process();
    (k, p)
}

#[test]
fn dlht_entries_do_not_leak_access_across_credentials() {
    let (k, root) = world();
    // Bob's private tree, fully warmed by Bob.
    k.mkdir(&root, "/home", 0o755).unwrap();
    k.mkdir(&root, "/home/bob", 0o700).unwrap();
    k.chown(&root, "/home/bob", Some(1001), Some(1001)).unwrap();
    let bob = k.spawn_with_cred(&root, Cred::user(1001, 1001));
    let fd = k
        .open(&bob, "/home/bob/secret.txt", OpenFlags::create(), 0o600)
        .unwrap();
    k.write_fd(&bob, fd, b"classified").unwrap();
    k.close(&bob, fd).unwrap();
    for _ in 0..10 {
        k.stat(&bob, "/home/bob/secret.txt").unwrap(); // warm DLHT+Bob's PCC
    }
    // Alice shares the DLHT (system-wide) but not the PCC. Every probe
    // must fail the prefix check, hot cache or not.
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    for _ in 0..10 {
        assert_eq!(k.stat(&alice, "/home/bob/secret.txt"), Err(FsError::Access));
        assert_eq!(
            k.open(&alice, "/home/bob/secret.txt", OpenFlags::read_only(), 0)
                .unwrap_err(),
            FsError::Access
        );
    }
    // Bob is unaffected by Alice's failed probes.
    assert!(k.stat(&bob, "/home/bob/secret.txt").is_ok());
}

#[test]
fn adversarial_cache_churn_cannot_redirect_a_victims_lookup() {
    let (k, root) = world();
    k.mkdir(&root, "/shared", 0o777).unwrap();
    let fd = k
        .open(&root, "/shared/victim.dat", OpenFlags::create(), 0o644)
        .unwrap();
    k.write_fd(&root, fd, b"victim-content").unwrap();
    k.close(&root, fd).unwrap();
    let victim = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    let attacker = k.spawn_with_cred(&root, Cred::user(2000, 2000));
    // The attacker churns the shared DLHT with thousands of lookups of
    // its own names (including misses that create negative dentries and
    // deep-negative probes under the victim's path prefix).
    for i in 0..2000 {
        let _ = k.stat(&attacker, &format!("/shared/spam-{i}"));
        let _ = k.stat(&attacker, &format!("/shared/victim.dat/{i}"));
    }
    // The victim's lookup still reaches exactly its file.
    for _ in 0..5 {
        let a = k.stat(&victim, "/shared/victim.dat").unwrap();
        assert_eq!(a.size, 14);
        let fd = k
            .open(&victim, "/shared/victim.dat", OpenFlags::read_only(), 0)
            .unwrap();
        assert_eq!(&k.read_fd(&victim, fd, 64).unwrap()[..], b"victim-content");
        k.close(&victim, fd).unwrap();
    }
}

#[test]
fn signatures_differ_across_kernel_instances() {
    // Boot-time keying (§3.3): two kernels assign different signatures
    // to the same path. (With fixed test seeds the property is the seeds
    // differing; entropy-keyed kernels differ with overwhelming
    // probability.)
    let k1 = KernelBuilder::new(DcacheConfig::optimized())
        .build()
        .unwrap();
    let k2 = KernelBuilder::new(DcacheConfig::optimized())
        .build()
        .unwrap();
    let comps = [b"etc".as_slice(), b"passwd".as_slice()];
    assert_ne!(
        k1.dcache.key.hash_components(comps),
        k2.dcache.key.hash_components(comps)
    );
}

#[test]
fn namespace_private_dlht_and_pcc() {
    let (k, root) = world();
    k.mkdir(&root, "/data", 0o755).unwrap();
    let fd = k
        .open(&root, "/data/f", OpenFlags::create(), 0o644)
        .unwrap();
    k.close(&root, fd).unwrap();
    // Warm the init namespace.
    for _ in 0..3 {
        k.stat(&root, "/data/f").unwrap();
    }
    // A namespaced process shares the dentry tree but uses its own DLHT
    // (same signature must not resolve via the init table).
    let container = k.spawn(&root);
    k.unshare_ns(&container).unwrap();
    let miss_before = k
        .dcache
        .stats
        .fast_miss_dlht
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(k.stat(&container, "/data/f").is_ok());
    assert!(
        k.dcache
            .stats
            .fast_miss_dlht
            .load(std::sync::atomic::Ordering::Relaxed)
            > miss_before,
        "first namespaced lookup must miss its private DLHT"
    );
    // And after warming, the namespace rides its own fastpath.
    let hits_before = k
        .dcache
        .stats
        .fast_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    for _ in 0..3 {
        k.stat(&container, "/data/f").unwrap();
    }
    assert!(
        k.dcache
            .stats
            .fast_hits
            .load(std::sync::atomic::Ordering::Relaxed)
            >= hits_before + 3
    );
}

/// The ROADMAP 1(b) tree: `/secret/data/sub/f0..f3`, `/secret/data`
/// bind-mounted at `/view`, then `/secret` closed to everyone but root.
fn aliased_world(config: DcacheConfig) -> (Arc<Kernel>, Arc<Process>, Arc<Process>) {
    let k = KernelBuilder::new(config.with_seed(0x5ec)).build().unwrap();
    let root = k.init_process();
    for dir in ["/secret", "/secret/data", "/secret/data/sub", "/view"] {
        k.mkdir(&root, dir, 0o755).unwrap();
    }
    for i in 0..4 {
        let path = format!("/secret/data/sub/f{i}");
        let fd = k.open(&root, &path, OpenFlags::create(), 0o644).unwrap();
        k.close(&root, fd).unwrap();
    }
    k.bind_mount(&root, "/secret/data", "/view").unwrap();
    k.chmod(&root, "/secret", 0o700).unwrap();
    let user = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    (k, root, user)
}

fn both_configs() -> [DcacheConfig; 2] {
    [DcacheConfig::baseline(), DcacheConfig::optimized()]
}

#[test]
fn a_dentry_resigned_under_its_other_path_forgets_the_old_prefix_check() {
    for config in both_configs() {
        let (k, root, user) = aliased_world(config);
        // Allowed through the bind mount: memoizes a prefix check on
        // `f0` that is true of `/view/sub/f0` only.
        assert!(k.stat(&user, "/view/sub/f0").is_ok());
        // Root's walk re-signs `f0` under the path the user may not use.
        assert!(k.stat(&root, "/secret/data/sub/f0").is_ok());
        for _ in 0..3 {
            assert_eq!(
                k.stat(&user, "/secret/data/sub/f0"),
                Err(FsError::Access),
                "the check memoized under /view answered for /secret"
            );
        }
        // And back: the allowed path still works after the refusal.
        assert!(k.stat(&user, "/view/sub/f0").is_ok());
    }
}

#[test]
fn a_resigned_directory_forgets_its_memoized_climb() {
    for config in both_configs() {
        let (k, root, user) = aliased_world(config);
        // Root publishes the files under `/view`; the user's first probes
        // then hit the DLHT with an empty PCC, so each is a revalidation
        // that memoizes the directories it climbs past — `sub` lands in
        // the user's directory table.
        for i in 0..4 {
            assert!(k.stat(&root, &format!("/view/sub/f{i}")).is_ok());
        }
        for i in 0..4 {
            assert!(k.stat(&user, &format!("/view/sub/f{i}")).is_ok());
        }
        // Root re-signs `sub` and `f1` through the closed path.
        assert!(k.stat(&root, "/secret/data/sub/f1").is_ok());
        // `f1`: a DLHT hit whose revalidation must not stop at `sub`.
        // `f2`: a DLHT miss whose slow walk must not resume at `sub`.
        for name in ["f1", "f2"] {
            assert_eq!(
                k.stat(&user, &format!("/secret/data/sub/{name}")),
                Err(FsError::Access),
                "{name}: `sub` memoized under /view answered for /secret"
            );
        }
        assert!(k.stat(&user, "/view/sub/f3").is_ok());
    }
}

fn kernel(config: DcacheConfig) -> (Arc<Kernel>, Arc<Process>) {
    let k = KernelBuilder::new(config.with_seed(0x5ec)).build().unwrap();
    let root = k.init_process();
    (k, root)
}

fn touch(k: &Kernel, p: &Process, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

/// ROADMAP 1(e): a symlink's recorded target signature is the *end* of
/// its body, and the fastpath checks that dentry's own prefix only. A
/// body that climbs through a closed directory (`/priv/../pub/f`) ends
/// outside it; at `d024490` root's walk recorded the end point and the
/// user's lookup chained to it past `/priv` (baseline: `EACCES`).
#[test]
fn a_link_body_through_a_closed_directory_stays_closed() {
    for config in both_configs() {
        let (k, root) = kernel(config);
        k.mkdir(&root, "/priv", 0o700).unwrap();
        k.mkdir(&root, "/pub", 0o755).unwrap();
        touch(&k, &root, "/pub/f");
        k.symlink(&root, "/priv/../pub/f", "/link").unwrap();
        let user = k.spawn_with_cred(&root, Cred::user(1000, 1000));
        for _ in 0..3 {
            assert!(k.stat(&root, "/link").is_ok());
            assert_eq!(k.stat(&user, "/link"), Err(FsError::Access));
            assert!(k.stat(&user, "/pub/f").is_ok());
        }
    }
}

/// The same record must not cross a `chroot`: an absolute body means
/// `/jail/etc` to a process rooted at `/jail` and `/etc` to everyone
/// else, whoever walked the link first.
#[test]
fn a_link_translation_is_not_shared_across_process_roots() {
    for jailed_first in [true, false] {
        for config in both_configs() {
            let (k, root) = kernel(config);
            for dir in ["/etc", "/jail", "/jail/etc"] {
                k.mkdir(&root, dir, 0o755).unwrap();
            }
            k.symlink(&root, "/etc", "/jail/link").unwrap();
            touch(&k, &root, "/etc/outside");
            touch(&k, &root, "/jail/etc/inside");
            let outside = k.stat(&root, "/etc").unwrap().ino;
            let inside = k.stat(&root, "/jail/etc").unwrap().ino;
            let jailed = k.spawn(&root);
            k.chroot(&jailed, "/jail").unwrap();
            for round in 0..4 {
                if jailed_first == (round % 2 == 0) {
                    assert_eq!(k.stat(&jailed, "/link").unwrap().ino, inside);
                    assert!(k.stat(&jailed, "/link/inside").is_ok());
                } else {
                    assert_eq!(k.stat(&root, "/jail/link").unwrap().ino, outside);
                    assert!(k.stat(&root, "/jail/link/outside").is_ok());
                }
            }
        }
    }
}

/// A prefix check is memoized beside the signature it is true of — never
/// for an alias's target, which the walk through the link does not sign.
/// `/x -> /` and `/gamma/alpha` bound at `/delta`: uid 1000 reaches the
/// directory as `/x/delta`, which is allowed; at `d024490` that walk
/// memoized the *target*, and the memo then answered for `/gamma/alpha`
/// behind the closed `/gamma`.
#[test]
fn a_check_made_through_a_link_does_not_speak_for_the_target() {
    for config in both_configs() {
        let (k, root) = kernel(config);
        for dir in ["/gamma", "/gamma/alpha", "/delta"] {
            k.mkdir(&root, dir, 0o755).unwrap();
        }
        k.chmod(&root, "/gamma", 0o644).unwrap();
        k.symlink(&root, "//..", "/x").unwrap();
        k.bind_mount(&root, "/gamma/alpha", "/delta").unwrap();
        let user = k.spawn_with_cred(&root, Cred::user(1000, 1000));
        assert!(k.stat(&user, "/x/delta").is_ok());
        for _ in 0..2 {
            assert!(k.stat(&root, "/gamma/alpha").is_ok());
            assert_eq!(k.stat(&user, "/gamma/alpha"), Err(FsError::Access));
            assert!(k.stat(&user, "/x/delta").is_ok());
        }
    }
}

/// Nor does the target's own memo speak for the link: it is the check of
/// the path the target is *signed* under. `/x -> /gamma` (closed) and
/// `/gamma/gamma` bound at `/delta`, where uid 1000 may look: `/x/gamma`
/// reached the same dentry through the closed directory on the strength
/// of the `/delta` memo.
#[test]
fn a_target_checked_under_one_mount_does_not_open_the_other() {
    for config in both_configs() {
        let (k, root) = kernel(config);
        for dir in ["/gamma", "/gamma/gamma", "/delta"] {
            k.mkdir(&root, dir, 0o755).unwrap();
        }
        k.symlink(&root, "/gamma", "/x").unwrap();
        k.chmod(&root, "/gamma", 0o644).unwrap();
        k.bind_mount(&root, "/gamma/gamma", "/delta").unwrap();
        let user = k.spawn_with_cred(&root, Cred::user(1000, 1000));
        for _ in 0..2 {
            assert!(k.stat(&root, "/x/gamma").is_ok());
            assert!(k.stat(&user, "/delta").is_ok());
            assert_eq!(k.stat(&user, "/x/gamma"), Err(FsError::Access));
        }
    }
}
