//! Concurrent lookups racing structural changes: the optimistic walk +
//! seqlock + invalidation-counter protocol of §3.2 under real threads.

use dcache_repro::cred::Cred;
use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn kernel(config: DcacheConfig) -> (Arc<Kernel>, Arc<Process>) {
    let k = KernelBuilder::new(config.with_seed(123)).build().unwrap();
    let p = k.init_process();
    (k, p)
}

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

#[test]
fn readers_race_renames_without_stale_results() {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let (k, p) = kernel(config);
        k.mkdir(&p, "/race", 0o755).unwrap();
        k.mkdir(&p, "/race/a", 0o755).unwrap();
        touch(&k, &p, "/race/a/file");
        let stop = Arc::new(AtomicBool::new(false));
        let anomalies = Arc::new(AtomicU64::new(0));
        // Seqlock-style rename epoch: odd while a rename is in flight,
        // even when quiescent. Readers only judge windows whose epoch
        // was even and unchanged — bumping only *after* the rename
        // would leave a gap where a completed (visible) rename hasn't
        // been counted yet and a reader wrongly judges the window.
        let flips = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            // Renamer: flips the directory between two names.
            {
                let k = k.clone();
                let p = k.spawn(&p);
                let stop = stop.clone();
                let flips = flips.clone();
                s.spawn(move || {
                    let mut flip = false;
                    while !stop.load(Ordering::Relaxed) {
                        let (from, to) = if flip {
                            ("/race/b", "/race/a")
                        } else {
                            ("/race/a", "/race/b")
                        };
                        flips.fetch_add(1, Ordering::SeqCst);
                        k.rename(&p, from, to).unwrap();
                        flips.fetch_add(1, Ordering::SeqCst);
                        flip = !flip;
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    if flip {
                        flips.fetch_add(1, Ordering::SeqCst);
                        k.rename(&p, "/race/b", "/race/a").unwrap();
                        flips.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Readers: within a quiescent window (no rename in flight
            // or completed between the two stats), exactly one path
            // must resolve.
            for _ in 0..4 {
                let k = k.clone();
                let p = k.spawn(&p);
                let stop = stop.clone();
                let flips = flips.clone();
                let anomalies = anomalies.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let f0 = flips.load(Ordering::SeqCst);
                        let a = k.stat(&p, "/race/a/file");
                        let b = k.stat(&p, "/race/b/file");
                        let f1 = flips.load(Ordering::SeqCst);
                        if f0 != f1 || f0 % 2 == 1 {
                            continue; // a rename interleaved; not judgeable
                        }
                        match (a, b) {
                            (Ok(_), Err(FsError::NoEnt)) | (Err(FsError::NoEnt), Ok(_)) => {}
                            (x, y) => {
                                eprintln!("quiescent anomaly: {x:?} {y:?}");
                                anomalies.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            anomalies.load(Ordering::Relaxed),
            0,
            "stale lookups observed"
        );
        // Quiesced state is correct.
        assert!(k.stat(&p, "/race/a/file").is_ok());
        assert_eq!(k.stat(&p, "/race/b/file"), Err(FsError::NoEnt));
    }
}

#[test]
fn permission_revocation_is_never_raced_past() {
    let (k, root) = kernel(DcacheConfig::optimized());
    k.mkdir(&root, "/sec", 0o755).unwrap();
    k.mkdir(&root, "/sec/inner", 0o755).unwrap();
    touch(&k, &root, "/sec/inner/file");
    let stop = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));
    // The gate: even = open, odd = locked. The chmod thread updates the
    // gate BEFORE granting and AFTER revoking, so a reader observing
    // "locked" must never succeed.
    let gate = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        {
            let k = k.clone();
            let p = k.spawn(&root);
            let stop = stop.clone();
            let gate = gate.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Revoke fully, THEN declare locked — so "gate odd"
                    // implies the restrictive mode is in force.
                    k.chmod(&p, "/sec", 0o700).unwrap();
                    gate.fetch_add(1, Ordering::SeqCst); // odd
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    // Declare open BEFORE granting, for the same reason.
                    gate.fetch_add(1, Ordering::SeqCst); // even
                    k.chmod(&p, "/sec", 0o755).unwrap();
                }
                k.chmod(&p, "/sec", 0o755).unwrap();
            });
        }
        for _ in 0..4 {
            let k = k.clone();
            let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
            let stop = stop.clone();
            let gate = gate.clone();
            let violations = violations.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let before = gate.load(Ordering::SeqCst);
                    let r = k.stat(&alice, "/sec/inner/file");
                    let after = gate.load(Ordering::SeqCst);
                    // If the permission was revoked for the entire window
                    // of the call, success is a violation.
                    if before == after && before % 2 == 1 && r.is_ok() {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "stale memoized prefix check granted revoked access"
    );
}

#[test]
fn concurrent_creates_in_one_directory() {
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let (k, p) = kernel(config);
        k.mkdir(&p, "/mk", 0o755).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let k = k.clone();
                let p = k.spawn(&p);
                s.spawn(move || {
                    for i in 0..100 {
                        let path = format!("/mk/t{t}-{i}");
                        let fd = k.open(&p, &path, OpenFlags::create(), 0o644).unwrap();
                        k.close(&p, fd).unwrap();
                        assert!(k.stat(&p, &path).is_ok());
                    }
                });
            }
        });
        let listing = k.list_dir(&p, "/mk").unwrap();
        assert_eq!(listing.len(), 400);
        // Exclusive creation raced from two threads: exactly one winner.
        let winners = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let k = k.clone();
                let p = k.spawn(&p);
                let winners = winners.clone();
                s.spawn(move || {
                    if let Ok(fd) = k.open(&p, "/mk/excl", OpenFlags::create_excl(), 0o600) {
                        winners.fetch_add(1, Ordering::Relaxed);
                        k.close(&p, fd).unwrap();
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }
}

#[test]
fn mkstemp_is_race_free_across_threads() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/tmp", 0o777).unwrap();
    let names = parking_lot::Mutex::new(std::collections::HashSet::new());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let k = k.clone();
            let p = k.spawn(&p);
            let names = &names;
            s.spawn(move || {
                for _ in 0..50 {
                    let (fd, name) = k.mkstemp(&p, "/tmp", "c-").unwrap();
                    k.close(&p, fd).unwrap();
                    assert!(names.lock().insert(name), "duplicate temp name");
                }
            });
        }
    });
    assert_eq!(k.list_dir(&p, "/tmp").unwrap().len(), 200);
}

#[test]
fn lookups_scale_across_threads_without_errors() {
    for config in [
        DcacheConfig::baseline(),
        DcacheConfig::optimized(),
        DcacheConfig::legacy_lock_walk(),
    ] {
        let (k, p) = kernel(config);
        k.mkdir(&p, "/deep", 0o755).unwrap();
        k.mkdir(&p, "/deep/a", 0o755).unwrap();
        k.mkdir(&p, "/deep/a/b", 0o755).unwrap();
        touch(&k, &p, "/deep/a/b/target");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let k = k.clone();
                let p = k.spawn(&p);
                s.spawn(move || {
                    for _ in 0..2000 {
                        assert!(!k.stat(&p, "/deep/a/b/target").unwrap().ftype.is_dir());
                    }
                });
            }
        });
    }
}

/// A warm `stat`/`access` consumes the mount borrowed under its epoch
/// pin: with two threads looping, the root mount's reference count — a
/// cache line both would otherwise write twice per call — never leaves
/// its resting value.
#[test]
fn warm_hits_never_touch_the_mount_refcount() {
    let (k, p) = kernel(DcacheConfig::optimized());
    k.mkdir(&p, "/m", 0o755).unwrap();
    k.mkdir(&p, "/m/d", 0o755).unwrap();
    let paths: Vec<String> = (0..8).map(|i| format!("/m/d/f{i}")).collect();
    for path in &paths {
        touch(&k, &p, path);
    }
    let readers = [k.spawn(&p), k.spawn(&p)];
    for r in &readers {
        for path in paths.iter().chain(paths.iter()) {
            k.stat(r, path).unwrap();
            k.access(r, path, dcache_repro::cred::MAY_READ).unwrap();
        }
    }
    let root = k.init_namespace().root_mount();
    let resting = Arc::strong_count(&root);
    let slow_before = k.dcache.stats.slow_walks.load(Ordering::Relaxed);
    let stop = AtomicBool::new(false);
    let go = std::sync::Barrier::new(3);
    let calls = AtomicU64::new(0);
    // Readers that have looped `LAPS` times: the sampler runs until both
    // have, so the window holds their calls however they are scheduled.
    const LAPS: usize = 1_000;
    let lapped = AtomicU64::new(0);
    let mut highest = 0;
    std::thread::scope(|s| {
        let loops: Vec<_> = readers
            .iter()
            .map(|r| {
                s.spawn(|| {
                    go.wait();
                    let mut n = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let path = &paths[n % paths.len()];
                        k.stat(r, path).unwrap();
                        k.access(r, path, dcache_repro::cred::MAY_READ).unwrap();
                        n += 1;
                        if n == LAPS {
                            lapped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    calls.fetch_add(2 * n as u64, Ordering::Relaxed);
                })
            })
            .collect();
        go.wait();
        let mut samples = 0;
        let behind =
            || lapped.load(Ordering::Relaxed) < 2 && !loops.iter().any(|l| l.is_finished());
        while samples < 1_000_000 || behind() {
            highest = highest.max(Arc::strong_count(&root));
            samples += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(calls.load(Ordering::Relaxed) > 0);
    assert_eq!(
        k.dcache.stats.slow_walks.load(Ordering::Relaxed),
        slow_before,
        "every call in the window was a fastpath hit"
    );
    assert_eq!(
        highest, resting,
        "a warm hit took a reference on the root mount"
    );
}

#[test]
fn negative_dentries_cohere_under_concurrent_rename() {
    // The §5.2 negative-dentry gap in the rename protocol: a cached
    // ENOENT for a name must die the moment a rename gives that name a
    // file. Readers hammer a name that alternates between absent
    // (negative dentry served from the cache) and present (rename moved
    // a real file onto it); in any window with no rename completion, a
    // stale cached ENOENT for an existing file — or a stale hit for an
    // absent one — is an anomaly.
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let wants_negative = config.negative_dentries;
        let (k, p) = kernel(config);
        k.mkdir(&p, "/neg", 0o755).unwrap();
        touch(&k, &p, "/neg/real");
        // Prime a negative dentry for the contested name.
        assert_eq!(k.stat(&p, "/neg/ghost"), Err(FsError::NoEnt));
        let stop = Arc::new(AtomicBool::new(false));
        let anomalies = Arc::new(AtomicU64::new(0));
        let flips = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            // Renamer: moves the real file onto the negatively-cached
            // name and back, so "ghost" oscillates between ENOENT and
            // existing.
            {
                let k = k.clone();
                let p = k.spawn(&p);
                let stop = stop.clone();
                let flips = flips.clone();
                s.spawn(move || {
                    let mut onto_ghost = true;
                    while !stop.load(Ordering::Relaxed) {
                        let (from, to) = if onto_ghost {
                            ("/neg/real", "/neg/ghost")
                        } else {
                            ("/neg/ghost", "/neg/real")
                        };
                        // Seqlock-style epoch, as in
                        // `readers_race_renames_without_stale_results`:
                        // odd while the rename is in flight.
                        flips.fetch_add(1, Ordering::SeqCst);
                        k.rename(&p, from, to).unwrap();
                        flips.fetch_add(1, Ordering::SeqCst);
                        onto_ghost = !onto_ghost;
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    if !onto_ghost {
                        flips.fetch_add(1, Ordering::SeqCst);
                        k.rename(&p, "/neg/ghost", "/neg/real").unwrap();
                        flips.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Readers: in a quiescent window exactly one of the two
            // names resolves; both-ENOENT means a rename target kept its
            // stale negative dentry, both-Ok means the source kept its
            // stale positive one.
            for _ in 0..4 {
                let k = k.clone();
                let p = k.spawn(&p);
                let stop = stop.clone();
                let flips = flips.clone();
                let anomalies = anomalies.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let f0 = flips.load(Ordering::SeqCst);
                        let ghost = k.stat(&p, "/neg/ghost");
                        let real = k.stat(&p, "/neg/real");
                        let f1 = flips.load(Ordering::SeqCst);
                        if f0 != f1 || f0 % 2 == 1 {
                            continue; // rename interleaved; not judgeable
                        }
                        match (ghost, real) {
                            (Ok(_), Err(FsError::NoEnt)) | (Err(FsError::NoEnt), Ok(_)) => {}
                            (x, y) => {
                                eprintln!("negative-coherence anomaly: ghost={x:?} real={y:?}");
                                anomalies.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            anomalies.load(Ordering::Relaxed),
            0,
            "stale negative/positive dentries observed under rename"
        );
        // Negative caching was genuinely in play: misses were answered
        // from cached negatives, completeness, or freshly created
        // negative dentries (which path depends on the config).
        if wants_negative {
            let st = &k.dcache.stats;
            let negative_activity = st.neg_created.load(Ordering::Relaxed)
                + st.hit_negative.load(Ordering::Relaxed)
                + st.complete_neg_avoided.load(Ordering::Relaxed);
            assert!(negative_activity > 0, "negative caching never engaged");
        }
        // Quiesced state: the file is back at /neg/real and the old
        // negative name answers ENOENT again.
        assert!(k.stat(&p, "/neg/real").is_ok());
        assert_eq!(k.stat(&p, "/neg/ghost"), Err(FsError::NoEnt));
    }
}

#[test]
fn journaled_apply_is_invisible_in_flight_to_memfs_readers() {
    // Regression for the journal's commit-time apply: an operation's
    // buffered write set reaches the shared page cache only at commit,
    // and that apply must run under the operation's inode shard locks.
    // Otherwise a reader that legally holds the directory lock can
    // observe a half-applied operation — here, a same-directory rename
    // whose remove and insert land in different directory blocks, with
    // a window where the name exists in neither.
    use dcache_repro::blockdev::{CachedDisk, DiskConfig, LatencyModel};
    use dcache_repro::fs::{FileSystem, MemFs, MemFsConfig};

    let disk = Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks: 1 << 14,
        latency: LatencyModel::free(),
        ..Default::default()
    }));
    let fs = MemFs::mkfs(
        disk,
        MemFsConfig {
            max_inodes: 1 << 12,
            ..Default::default()
        },
    )
    .unwrap();
    let r = fs.root_ino();
    let arena = fs.mkdir(r, "arena", 0o755, 0, 0).unwrap().ino;
    // Pack the first directory block: "a" early, then wide fillers, so
    // renaming "a" to a long name forces the insert into a different
    // block than the remove — two distinct block writes in one
    // transaction.
    fs.create(arena, "a", 0o644, 0, 0).unwrap();
    for i in 0.. {
        let filler = format!("{:x<200}", format!("filler{i}-"));
        fs.create(arena, &filler, 0o644, 0, 0).unwrap();
        if fs.getattr(arena).unwrap().size > 4096 {
            break;
        }
    }
    let b_name = "b".repeat(200);

    let stop = Arc::new(AtomicBool::new(false));
    // Observer checks so far: the renames run until it has done `LAPS`,
    // so the two overlap however they are scheduled.
    const LAPS: u64 = 100;
    let checked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        let observer = {
            let fs = fs.clone();
            let (stop, checked) = (stop.clone(), checked.clone());
            let b_name = b_name.clone();
            s.spawn(move || {
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut out = Vec::new();
                    fs.readdir(arena, 0, usize::MAX, &mut out).unwrap();
                    let a = out.iter().any(|e| e.name == "a");
                    let b = out.iter().any(|e| e.name == b_name);
                    assert!(a ^ b, "half-applied rename visible to readdir: a={a} b={b}");
                    checks += 1;
                    checked.store(checks, Ordering::Relaxed);
                }
                checks
            })
        };
        let mut pairs = 0;
        let behind = || checked.load(Ordering::Relaxed) < LAPS && !observer.is_finished();
        while pairs < 400 || behind() {
            fs.rename(arena, "a", arena, &b_name).unwrap();
            fs.rename(arena, &b_name, arena, "a").unwrap();
            pairs += 1;
        }
        stop.store(true, Ordering::Relaxed);
        assert!(observer.join().unwrap() > 0, "observer never ran");
    });
}

/// One directory, two paths: `/a` and its bind alias `/b`. A dentry
/// carries one signature at a time (§4.3), so a walker alternating
/// between the two re-signs the directory, and the names under it, on
/// every walk. Readers meanwhile resolve names in it by both absolute
/// paths and from a cwd inside it — a relative lookup resumes from the
/// directory's stored hash state, and only if that state was signed
/// through the reader's own mount. Nothing in the namespace changes, so
/// every answer, racing or not, must be the one a quiescent baseline
/// kernel gives. The walker's odd-while-in-flight epoch counts the
/// answers taken while a re-sign was under way: some must have been.
#[test]
fn readers_race_bind_alias_resigning() {
    fn setup(config: DcacheConfig) -> (Arc<Kernel>, Arc<Process>) {
        let (k, p) = kernel(config);
        k.mkdir(&p, "/a", 0o755).unwrap();
        k.mkdir(&p, "/a/sub", 0o755).unwrap();
        touch(&k, &p, "/a/x");
        touch(&k, &p, "/a/sub/z");
        k.mkdir(&p, "/b", 0o755).unwrap();
        k.bind_mount(&p, "/a", "/b").unwrap();
        (k, p)
    }
    const ABSOLUTE: [&str; 6] = ["/a/x", "/b/x", "/a/sub/z", "/b/sub/z", "/a/nope", "/b/x/y"];
    const RELATIVE: [&str; 5] = ["x", "sub", "sub/z", "nope", "x/y"];
    let answer = |k: &Kernel, p: &Process, path: &str| k.stat(p, path).map(|a| a.ino);
    let expected = {
        let (k, p) = setup(DcacheConfig::baseline());
        let at_a = k.spawn(&p);
        k.chdir(&at_a, "/a").unwrap();
        let absolute: Vec<_> = ABSOLUTE.iter().map(|q| answer(&k, &p, q)).collect();
        let relative: Vec<_> = RELATIVE.iter().map(|q| answer(&k, &at_a, q)).collect();
        (absolute, relative)
    };
    for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
        let fastpath = config.fastpath;
        let (k, p) = setup(config);
        let stop = AtomicBool::new(false);
        let walks = AtomicU64::new(0);
        let (raced, anomalies) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            // Walker: each walk comes in by the other path, re-signing.
            s.spawn(|| {
                let w = k.spawn(&p);
                for via in ["/a", "/b"].iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    walks.fetch_add(1, Ordering::SeqCst); // odd: in flight
                    k.stat(&w, &format!("{via}/sub/z")).unwrap();
                    walks.fetch_add(1, Ordering::SeqCst);
                }
            });
            for cwd in ["/a", "/b", "/a"] {
                let r = k.spawn(&p);
                k.chdir(&r, cwd).unwrap();
                let (stop, walks, raced, anomalies) = (&stop, &walks, &raced, &anomalies);
                let (expected, answer) = (&expected, &answer);
                let k = &k;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let queries = ABSOLUTE.iter().zip(&expected.0);
                        for (q, want) in queries.chain(RELATIVE.iter().zip(&expected.1)) {
                            let w0 = walks.load(Ordering::SeqCst);
                            let got = answer(k, &r, q);
                            if w0 % 2 == 1 || walks.load(Ordering::SeqCst) != w0 {
                                raced.fetch_add(1, Ordering::Relaxed);
                            }
                            if got != *want {
                                eprintln!("{q} from {cwd}: {got:?}, baseline {want:?}");
                                anomalies.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(anomalies.load(Ordering::Relaxed), 0, "answers diverged");
        assert!(
            raced.load(Ordering::Relaxed) > 0,
            "no answer raced a re-sign"
        );
        if fastpath {
            assert!(k.dcache.stats.fast_hits.load(Ordering::Relaxed) > 0);
        }
    }
}
