//! Coherence of the fastpath caches (§3.2): permission and structure
//! changes must be visible through the DLHT/PCC immediately, with no
//! window in which a stale memoized check grants access.

use dcache_repro::cred::Cred;
use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn optimized() -> (Arc<Kernel>, Arc<Process>) {
    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(99))
        .build()
        .unwrap();
    let p = k.init_process();
    (k, p)
}

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

#[test]
fn rename_invalidates_dlht_entries_for_whole_subtree() {
    let (k, p) = optimized();
    k.mkdir(&p, "/a", 0o755).unwrap();
    k.mkdir(&p, "/a/b", 0o755).unwrap();
    k.mkdir(&p, "/a/b/c", 0o755).unwrap();
    touch(&k, &p, "/a/b/c/leaf");
    // Warm every level so the whole subtree is in the DLHT.
    for path in ["/a", "/a/b", "/a/b/c", "/a/b/c/leaf"] {
        for _ in 0..2 {
            k.stat(&p, path).unwrap();
        }
    }
    let visits_before = k.shootdown_visits();
    k.rename(&p, "/a/b", "/a/z").unwrap();
    // The shootdown walked b, c, leaf (at least).
    assert!(k.shootdown_visits() - visits_before >= 3);
    // Every old path now misses; every new path resolves.
    assert_eq!(k.stat(&p, "/a/b/c/leaf"), Err(FsError::NoEnt));
    assert_eq!(k.stat(&p, "/a/b"), Err(FsError::NoEnt));
    assert!(k.stat(&p, "/a/z/c/leaf").is_ok());
    // And repeats of the new path take the fastpath again.
    let before = k.dcache.stats.fast_hits.load(Ordering::Relaxed);
    for _ in 0..4 {
        k.stat(&p, "/a/z/c/leaf").unwrap();
    }
    assert!(k.dcache.stats.fast_hits.load(Ordering::Relaxed) >= before + 4);
}

#[test]
fn chmod_blocks_fastpath_reuse_for_other_creds() {
    let (k, root) = optimized();
    k.mkdir(&root, "/p", 0o755).unwrap();
    k.mkdir(&root, "/p/q", 0o755).unwrap();
    touch(&k, &root, "/p/q/f");
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    // Warm alice's PCC thoroughly.
    for _ in 0..5 {
        assert!(k.stat(&alice, "/p/q/f").is_ok());
    }
    // Flip permissions back and forth; every state must be enforced.
    for round in 0..4 {
        let mode = if round % 2 == 0 { 0o700 } else { 0o755 };
        k.chmod(&root, "/p", mode).unwrap();
        let r = k.stat(&alice, "/p/q/f");
        if mode == 0o700 {
            assert_eq!(r, Err(FsError::Access), "round {round}");
        } else {
            assert!(r.is_ok(), "round {round}");
        }
    }
}

#[test]
fn pcc_is_not_shared_across_credentials() {
    let (k, root) = optimized();
    k.mkdir(&root, "/home", 0o755).unwrap();
    k.mkdir(&root, "/home/alice", 0o700).unwrap();
    k.chown(&root, "/home/alice", Some(1000), Some(1000))
        .unwrap();
    touch(&k, &root, "/home/alice/diary");
    k.chown(&root, "/home/alice/diary", Some(1000), Some(1000))
        .unwrap();
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    let bob = k.spawn_with_cred(&root, Cred::user(1001, 1001));
    // Alice warms HER memoized checks (and the shared DLHT).
    for _ in 0..5 {
        assert!(k.stat(&alice, "/home/alice/diary").is_ok());
    }
    // Bob hits the same DLHT entry but must fail his own prefix check.
    for _ in 0..5 {
        assert_eq!(k.stat(&bob, "/home/alice/diary"), Err(FsError::Access));
    }
    // And alice still succeeds afterwards.
    assert!(k.stat(&alice, "/home/alice/diary").is_ok());
}

#[test]
fn forked_processes_share_pcc_until_setuid() {
    let (k, root) = optimized();
    k.mkdir(&root, "/srv", 0o755).unwrap();
    touch(&k, &root, "/srv/app");
    let worker1 = k.spawn(&root);
    let worker2 = k.spawn(&root);
    // Identical creds → the very same cred object → shared PCC (§4.1).
    assert_eq!(worker1.cred().id(), worker2.cred().id());
    k.stat(&worker1, "/srv/app").unwrap();
    let before = k.dcache.stats.fast_hits.load(Ordering::Relaxed);
    k.stat(&worker2, "/srv/app").unwrap();
    assert!(
        k.dcache.stats.fast_hits.load(Ordering::Relaxed) > before,
        "sibling with the shared cred should ride the warmed PCC"
    );
    // setuid forks the cred; the new credential re-validates on its own.
    k.setuid(&worker2, 1000, 1000);
    assert_ne!(worker1.cred().id(), worker2.cred().id());
    assert!(k.stat(&worker2, "/srv/app").is_ok());
}

#[test]
fn symlink_replacement_invalidates_cached_translation() {
    let (k, p) = optimized();
    k.mkdir(&p, "/t1", 0o755).unwrap();
    k.mkdir(&p, "/t2", 0o755).unwrap();
    touch(&k, &p, "/t1/inner");
    let fd = k.open(&p, "/t2/inner", OpenFlags::create(), 0o644).unwrap();
    k.write_fd(&p, fd, b"version-2").unwrap();
    k.close(&p, fd).unwrap();
    k.symlink(&p, "/t1", "/cur").unwrap();
    // Warm the alias and target-signature machinery.
    for _ in 0..4 {
        assert_eq!(k.stat(&p, "/cur/inner").unwrap().size, 0);
    }
    // Atomically retarget: the idiomatic symlink flip.
    k.symlink(&p, "/t2", "/cur.new").unwrap();
    k.rename(&p, "/cur.new", "/cur").unwrap();
    for _ in 0..4 {
        assert_eq!(
            k.stat(&p, "/cur/inner").unwrap().size,
            9,
            "stale symlink translation served"
        );
    }
    // Unlink the link entirely: paths through it die.
    k.unlink(&p, "/cur").unwrap();
    assert_eq!(k.stat(&p, "/cur/inner"), Err(FsError::NoEnt));
}

#[test]
fn eviction_under_capacity_pressure_preserves_correctness() {
    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(100).with_capacity(128))
        .build()
        .unwrap();
    let p = k.init_process();
    // Far more files than the dentry budget.
    k.mkdir(&p, "/big", 0o755).unwrap();
    for i in 0..600 {
        touch(&k, &p, &format!("/big/f{i:03}"));
    }
    assert!(
        k.dcache.live() <= 300,
        "cache failed to shrink (live={})",
        k.dcache.live()
    );
    assert!(k.dcache.stats.evictions.load(Ordering::Relaxed) > 0);
    // Every file is still reachable (refill through the slowpath).
    for i in (0..600).step_by(37) {
        assert!(k.stat(&p, &format!("/big/f{i:03}")).is_ok());
    }
    // Misses behave too.
    assert_eq!(k.stat(&p, "/big/f999"), Err(FsError::NoEnt));
}

#[test]
fn version_counter_invalidation_of_wraparound_flush() {
    let (k, p) = optimized();
    k.mkdir(&p, "/w", 0o755).unwrap();
    touch(&k, &p, "/w/f");
    for _ in 0..3 {
        k.stat(&p, "/w/f").unwrap();
    }
    // The paper's 2^32-wraparound contingency: flush every PCC. The
    // next lookup re-executes the prefix check (via the cheap ancestor
    // revalidation) and keeps working.
    k.dcache.flush_all_pccs();
    let reval_before = k.dcache.stats.fast_revalidations.load(Ordering::Relaxed);
    assert!(k.stat(&p, "/w/f").is_ok());
    assert!(
        k.dcache.stats.fast_revalidations.load(Ordering::Relaxed) > reval_before,
        "flushed PCC entry should be recovered by chain revalidation"
    );
    // Re-warmed.
    let hits_before = k.dcache.stats.fast_hits.load(Ordering::Relaxed);
    k.stat(&p, "/w/f").unwrap();
    assert!(k.dcache.stats.fast_hits.load(Ordering::Relaxed) > hits_before);
}

#[test]
fn hardlink_via_second_path_keeps_coherent_attrs() {
    let (k, p) = optimized();
    k.mkdir(&p, "/x", 0o755).unwrap();
    k.mkdir(&p, "/y", 0o755).unwrap();
    touch(&k, &p, "/x/file");
    k.link(&p, "/x/file", "/y/alias").unwrap();
    for _ in 0..3 {
        k.stat(&p, "/x/file").unwrap();
        k.stat(&p, "/y/alias").unwrap();
    }
    // chmod through one name is visible through the other immediately,
    // including on the fastpath.
    k.chmod(&p, "/y/alias", 0o600).unwrap();
    assert_eq!(k.stat(&p, "/x/file").unwrap().mode, 0o600);
    // Unlink one name: the other keeps working with nlink 1.
    k.unlink(&p, "/x/file").unwrap();
    assert_eq!(k.stat(&p, "/y/alias").unwrap().nlink, 1);
    assert_eq!(k.stat(&p, "/x/file"), Err(FsError::NoEnt));
}

/// Slowpath components stepped by `f`.
fn slow_steps(k: &Kernel, f: impl FnOnce()) -> u64 {
    let before = k.dcache.stats.slow_steps.load(Ordering::Relaxed);
    f();
    k.dcache.stats.slow_steps.load(Ordering::Relaxed) - before
}

#[test]
fn a_miss_under_a_cached_directory_walks_one_component() {
    let (k, p) = optimized();
    k.mkdir(&p, "/a", 0o755).unwrap();
    k.mkdir(&p, "/a/b", 0o755).unwrap();
    k.mkdir(&p, "/a/b/c", 0o755).unwrap();
    for f in ["f1", "f2", "f3"] {
        touch(&k, &p, &format!("/a/b/c/{f}"));
    }
    let inos: Vec<u64> = ["f1", "f2", "f3"]
        .iter()
        .map(|f| k.stat(&p, &format!("/a/b/c/{f}")).unwrap().ino)
        .collect();
    k.rename(&p, "/a/b", "/a/z").unwrap();
    // Nothing under the new name is in the DLHT: the first lookup walks
    // every component and puts the directories back...
    let mut ino = 0;
    let full = slow_steps(&k, || ino = k.stat(&p, "/a/z/c/f1").unwrap().ino);
    assert_eq!((full, ino), (4, inos[0]));
    // ...and the next one under the same directory resumes there, by an
    // absolute path and by one relative to a working directory.
    let resumed = slow_steps(&k, || ino = k.stat(&p, "/a/z/c/f2").unwrap().ino);
    assert_eq!((resumed, ino), (1, inos[1]));
    k.chdir(&p, "/a/z").unwrap();
    let resumed = slow_steps(&k, || ino = k.stat(&p, "c/f3").unwrap().ino);
    assert_eq!((resumed, ino), (1, inos[2]));
    // What a resumed walk published is a fastpath hit like any other.
    assert_eq!(
        slow_steps(&k, || assert!(k.stat(&p, "/a/z/c/f2").is_ok())),
        0
    );
    // A name that does not exist resumes as well, and is cached absent.
    let absent = slow_steps(&k, || {
        assert_eq!(k.stat(&p, "/a/z/c/nope"), Err(FsError::NoEnt))
    });
    assert_eq!(absent, 1);
    assert_eq!(k.stat(&p, "/a/b/c/f2"), Err(FsError::NoEnt));
}

#[test]
fn a_resumed_walk_never_outlives_a_revoked_prefix() {
    let (k, root) = optimized();
    k.mkdir(&root, "/p", 0o755).unwrap();
    k.mkdir(&root, "/p/q", 0o755).unwrap();
    for f in ["seen", "fresh1", "fresh2"] {
        touch(&k, &root, &format!("/p/q/{f}"));
    }
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    // Alice's PCC vouches for /p/q; she has never looked up the others.
    for _ in 0..3 {
        assert!(k.stat(&alice, "/p/q/seen").is_ok());
        assert!(k.stat(&alice, "/p/q").is_ok());
    }
    assert_eq!(
        slow_steps(&k, || assert!(k.stat(&alice, "/p/q/fresh1").is_ok())),
        1
    );
    // Revoking search on an ancestor shoots /p/q's entry down with the
    // rest: a name she has never seen is refused, not resumed.
    k.chmod(&root, "/p", 0o700).unwrap();
    assert_eq!(k.stat(&alice, "/p/q/fresh2"), Err(FsError::Access));
    assert_eq!(k.stat(&alice, "/p/q/fresh1"), Err(FsError::Access));
    // Root's own entries are per credential and still resume.
    assert!(k.stat(&root, "/p/q").is_ok());
    assert_eq!(
        slow_steps(&k, || assert!(k.stat(&root, "/p/q/fresh2").is_ok())),
        1
    );
    k.chmod(&root, "/p", 0o755).unwrap();
    assert!(k.stat(&alice, "/p/q/fresh2").is_ok());
}

#[test]
fn a_prefix_through_a_symlink_is_walked_in_full_and_keeps_its_aliases() {
    let (k, p) = optimized();
    k.mkdir(&p, "/real", 0o755).unwrap();
    k.mkdir(&p, "/real/d", 0o755).unwrap();
    touch(&k, &p, "/real/d/f");
    touch(&k, &p, "/real/d/g");
    k.symlink(&p, "/real", "/link").unwrap();
    for _ in 0..3 {
        assert!(k.stat(&p, "/link/d/f").is_ok());
    }
    // /link/d is an alias dentry: a new name below it takes the full
    // walk, which extends the alias chain, so the literal path is a
    // fastpath hit from then on (a walk resumed at /real/d would publish
    // /real/d/g only, and /link/d/g would miss for ever).
    let ino = k.stat(&p, "/real/d/g").unwrap().ino;
    assert!(slow_steps(&k, || assert_eq!(k.stat(&p, "/link/d/g").unwrap().ino, ino)) > 1);
    assert_eq!(
        slow_steps(&k, || assert!(k.stat(&p, "/link/d/g").is_ok())),
        0
    );
    // A symlink as the directory itself does not qualify either.
    k.symlink(&p, "/real/d", "/dl").unwrap();
    assert!(k.stat(&p, "/dl/f").is_ok());
    assert!(slow_steps(&k, || assert_eq!(k.stat(&p, "/dl/g").unwrap().ino, ino)) > 1);
    assert_eq!(slow_steps(&k, || assert!(k.stat(&p, "/dl/g").is_ok())), 0);
}

/// `(hits, misses)` that `f` added to `proc`'s PCC.
fn pcc_checks(k: &Kernel, proc: &Process, f: impl FnOnce()) -> (u64, u64) {
    let pcc = k.dcache.pcc_for(&proc.cred(), proc.namespace().id);
    let (h0, m0) = pcc.hit_stats();
    f();
    let (h1, m1) = pcc.hit_stats();
    (h1 - h0, m1 - m0)
}

#[test]
fn a_revalidation_stops_at_the_first_directory_it_has_memoized() {
    let (k, root) = optimized();
    for d in ["/w", "/w/x", "/w/x/y"] {
        k.mkdir(&root, d, 0o755).unwrap();
    }
    for f in ["f1", "f2", "f3"] {
        touch(&k, &root, &format!("/w/x/y/{f}"));
    }
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    for f in ["f1", "f2", "f3"] {
        assert!(k.stat(&alice, &format!("/w/x/y/{f}")).is_ok());
    }
    // Every memoized check gone, every DLHT entry still there: the next
    // lookup climbs y, x, w and the root directory and memoizes all five.
    k.dcache.flush_all_pccs();
    let climb = pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/y/f1").is_ok()));
    assert_eq!(climb, (0, 5));
    // Its sibling misses once and stops at y.
    let stop = pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/y/f2").is_ok()));
    assert_eq!(stop, (1, 1));
    assert_eq!(
        pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/y/f2").is_ok())),
        (1, 0)
    );
    // What was memoized for the directories dies with any change above
    // them, like every other entry.
    k.chmod(&root, "/w/x", 0o700).unwrap();
    assert_eq!(k.stat(&alice, "/w/x/y/f3"), Err(FsError::Access));
    assert_eq!(k.stat(&alice, "/w/x/y/f2"), Err(FsError::Access));
    k.chmod(&root, "/w/x", 0o755).unwrap();
    assert!(k.stat(&alice, "/w/x/y/f3").is_ok());
}

#[test]
fn a_revalidation_under_a_rename_memoizes_no_directory() {
    let (k, root) = optimized();
    k.mkdir(&root, "/w", 0o755).unwrap();
    k.mkdir(&root, "/w/x", 0o755).unwrap();
    touch(&k, &root, "/w/x/f1");
    touch(&k, &root, "/w/x/f2");
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    assert!(k.stat(&alice, "/w/x/f1").is_ok());
    assert!(k.stat(&alice, "/w/x/f2").is_ok());
    k.dcache.flush_all_pccs();
    // A rename in flight has bumped counters it has not moved yet: the
    // lookup still answers from the fastpath (it never waits for the
    // rename), but keeps only the entry the DLHT hit vouches for.
    let in_flight = k.dcache.rename_lock.write();
    let during = std::thread::scope(|s| {
        s.spawn(|| pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/f1").is_ok())))
            .join()
            .unwrap()
    });
    drop(in_flight);
    assert_eq!(during, (0, 4));
    // So the sibling climbs the whole chain again, and this time keeps it.
    let after = pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/f2").is_ok()));
    assert_eq!(after, (0, 4));
    assert_eq!(
        pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/f1").is_ok())),
        (1, 0)
    );
    touch(&k, &root, "/w/x/f3");
    assert!(k.stat(&alice, "/w/x/f3").is_ok());
    k.dcache.flush_all_pccs();
    assert!(k.stat(&alice, "/w/x/f1").is_ok());
    let stop = pcc_checks(&k, &alice, || assert!(k.stat(&alice, "/w/x/f3").is_ok()));
    assert_eq!(stop, (1, 1));
}

fn both_configs() -> [DcacheConfig; 2] {
    [DcacheConfig::baseline(), DcacheConfig::optimized()]
}

/// ROADMAP 1(e), the stale chain (seed 1262 of the equivalence soak at
/// `d024490`, shrunk to these seven steps): `/x -> delta/delta/alpha`,
/// `/delta -> /.`. What a walk through `/x` memoizes below it resolved
/// *through* `/delta`, and nothing ties it to `/delta` staying there:
/// after `unlink /delta`, `/x/gamma` still answered `ENOTDIR` — the file
/// `/alpha` the dead chain ended at (baseline: `ENOENT`).
#[test]
fn a_translation_through_a_second_link_dies_with_that_link() {
    for config in both_configs() {
        let k = KernelBuilder::new(config.with_seed(99)).build().unwrap();
        let p = k.init_process();
        k.symlink(&p, "delta/delta/alpha", "/gamma").unwrap();
        k.symlink(&p, "/.", "/delta").unwrap();
        k.rename(&p, "/gamma", "/x").unwrap();
        touch(&k, &p, "/alpha");
        let create = k.open(&p, "/x/gamma/beta", OpenFlags::create(), 0o644);
        assert_eq!(create.unwrap_err(), FsError::NotDir);
        k.unlink(&p, "/delta").unwrap();
        for _ in 0..2 {
            assert_eq!(k.list_dir(&p, "/x/gamma").unwrap_err(), FsError::NoEnt);
            assert_eq!(k.stat(&p, "/x"), Err(FsError::NoEnt));
        }
    }
}

/// The same for a body that climbs: `/x -> beta/../delta` ends at
/// `/delta` only while `/beta` is there to climb out of.
#[test]
fn a_translation_through_dotdot_dies_with_the_directory_it_climbed() {
    for config in both_configs() {
        let k = KernelBuilder::new(config.with_seed(99)).build().unwrap();
        let p = k.init_process();
        k.mkdir(&p, "/delta", 0o755).unwrap();
        k.mkdir(&p, "/beta", 0o755).unwrap();
        touch(&k, &p, "/delta/f");
        k.symlink(&p, "beta/../delta", "/x").unwrap();
        for _ in 0..2 {
            assert!(k.stat(&p, "/x").unwrap().ftype.is_dir());
            assert!(k.stat(&p, "/x/f").is_ok());
        }
        k.rename(&p, "/beta", "/alpha").unwrap();
        for _ in 0..2 {
            assert_eq!(k.stat(&p, "/x"), Err(FsError::NoEnt));
            assert_eq!(k.stat(&p, "/x/f"), Err(FsError::NoEnt));
        }
    }
}

/// A relative body means something else once the link itself moves:
/// `/alpha -> delta` is `/delta`, and after `mv /alpha /delta/x` it is
/// `/delta/delta`. The recorded end point goes with the link's hash state.
#[test]
fn a_renamed_link_forgets_where_it_used_to_end() {
    for config in both_configs() {
        let k = KernelBuilder::new(config.with_seed(99)).build().unwrap();
        let p = k.init_process();
        k.mkdir(&p, "/delta", 0o755).unwrap();
        k.symlink(&p, "delta", "/alpha").unwrap();
        assert!(k.stat(&p, "/alpha").unwrap().ftype.is_dir());
        k.rename(&p, "/alpha", "/delta/x").unwrap();
        for _ in 0..3 {
            assert_eq!(k.stat(&p, "/delta/x"), Err(FsError::NoEnt));
        }
        k.mkdir(&p, "/delta/delta", 0o755).unwrap();
        let inner = k.stat(&p, "/delta/delta").unwrap().ino;
        assert_eq!(k.stat(&p, "/delta/x").unwrap().ino, inner);
    }
}

/// What the purity rule keeps: a plain body — every component a real
/// entry walked downward, like `repro fig6`'s `link-f` and `link-d` —
/// chains on the fastpath, as a final component and as a prefix, and a
/// rename of its end point still reaches it.
#[test]
fn a_plain_link_body_still_chains_on_the_fastpath() {
    let (k, p) = optimized();
    k.mkdir(&p, "/d", 0o755).unwrap();
    k.mkdir(&p, "/d/sub", 0o755).unwrap();
    touch(&k, &p, "/d/sub/f");
    k.symlink(&p, "sub/f", "/d/to-f").unwrap();
    k.symlink(&p, "/d/sub", "/to-d").unwrap();
    for path in ["/d/to-f", "/to-d", "/to-d/f"] {
        k.stat(&p, path).unwrap();
        let walks = k.dcache.stats.slow_walks.load(Ordering::Relaxed);
        for _ in 0..4 {
            k.stat(&p, path).unwrap();
        }
        assert_eq!(
            k.dcache.stats.slow_walks.load(Ordering::Relaxed),
            walks,
            "{path} left the fastpath"
        );
    }
    k.rename(&p, "/d/sub", "/d/moved").unwrap();
    for path in ["/d/to-f", "/to-d", "/to-d/f"] {
        assert_eq!(k.stat(&p, path), Err(FsError::NoEnt), "{path}");
    }
}
