//! Memory-pressure shrinker coherence.
//!
//! The shrinker (DESIGN.md §10) may only cost performance. These tests
//! interleave shrinks — including shrink-to-zero, the harshest budget —
//! with the visible syscall surface and with concurrent lock-free
//! readers, and assert that no answer is ever stale.

use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

fn kernel(config: DcacheConfig) -> Arc<Kernel> {
    KernelBuilder::new(config.with_seed(0x5EED))
        .build()
        .unwrap()
}

/// One labelled step of the interleaved script: an op plus its
/// comparable outcome string.
type Step = (&'static str, Box<dyn Fn(&Kernel, &Arc<Process>) -> String>);

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

/// One comparable outcome string, mirroring the equivalence suite.
fn stat_sig(k: &Kernel, p: &Arc<Process>, path: &str) -> String {
    match k.stat(p, path) {
        Ok(a) => format!("ok:{:?}:{:o}:{}:{}", a.ftype, a.mode, a.size, a.nlink),
        Err(e) => e.errno_name().into(),
    }
}

#[test]
fn shrink_interleaved_ops_stay_equivalent() {
    // Deterministic mirror of the gated proptest: every op runs against a
    // baseline kernel and an optimized kernel that is shrunk to zero
    // after each step; outcomes must match throughout.
    let kb = kernel(DcacheConfig::baseline());
    let ko = kernel(DcacheConfig::optimized());
    let pb = kb.init_process();
    let po = ko.init_process();

    let script: Vec<Step> = vec![
        ("mkdir /a", Box::new(|k, p| fmt(k.mkdir(p, "/a", 0o755)))),
        (
            "mkdir /a/b",
            Box::new(|k, p| fmt(k.mkdir(p, "/a/b", 0o755))),
        ),
        (
            "create /a/b/f",
            Box::new(|k, p| {
                touch(k, p, "/a/b/f");
                "ok".into()
            }),
        ),
        ("stat /a/b/f", Box::new(|k, p| stat_sig(k, p, "/a/b/f"))),
        (
            "stat /a/b/missing",
            Box::new(|k, p| stat_sig(k, p, "/a/b/missing")),
        ),
        (
            "rename /a /c",
            Box::new(|k, p| fmt(k.rename(p, "/a", "/c"))),
        ),
        ("stat /a/b/f", Box::new(|k, p| stat_sig(k, p, "/a/b/f"))),
        ("stat /c/b/f", Box::new(|k, p| stat_sig(k, p, "/c/b/f"))),
        ("unlink /c/b/f", Box::new(|k, p| fmt(k.unlink(p, "/c/b/f")))),
        ("stat /c/b/f", Box::new(|k, p| stat_sig(k, p, "/c/b/f"))),
        (
            "create /c/b/f again",
            Box::new(|k, p| {
                touch(k, p, "/c/b/f");
                "ok".into()
            }),
        ),
        ("stat /c/b/f", Box::new(|k, p| stat_sig(k, p, "/c/b/f"))),
        ("chmod /c 0", Box::new(|k, p| fmt(k.chmod(p, "/c", 0o000)))),
        ("stat /c/b/f", Box::new(|k, p| stat_sig(k, p, "/c/b/f"))),
        (
            "chmod /c back",
            Box::new(|k, p| fmt(k.chmod(p, "/c", 0o755))),
        ),
        ("stat /c/b/f", Box::new(|k, p| stat_sig(k, p, "/c/b/f"))),
    ];
    for (label, step) in &script {
        let a = step(&kb, &pb);
        let b = step(&ko, &po);
        assert_eq!(a, b, "divergence at step {label:?}");
        let freed = ko.memory_pressure(0);
        let _ = freed; // shrink-to-zero between every step
    }
    assert!(
        ko.dcache
            .stats
            .shrinks
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the shrinker actually ran"
    );
}

fn fmt(r: Result<(), dcache_repro::fs::FsError>) -> String {
    match r {
        Ok(()) => "ok".into(),
        Err(e) => e.errno_name().into(),
    }
}

#[test]
fn negative_dentry_semantics_survive_shrink() {
    let k = kernel(DcacheConfig::optimized());
    let p = k.init_process();
    k.mkdir(&p, "/dir", 0o755).unwrap();

    // Cache the absence; the second stat is answered negatively from the
    // cache (negative dentry hit or completeness short-circuit).
    assert_eq!(stat_sig(&k, &p, "/dir/ghost"), "ENOENT");
    assert_eq!(stat_sig(&k, &p, "/dir/ghost"), "ENOENT");
    let neg_hits = |k: &Kernel| {
        let s = &k.dcache.stats;
        let o = std::sync::atomic::Ordering::Relaxed;
        s.hit_negative.load(o) + s.fast_neg_hits.load(o) + s.complete_neg_avoided.load(o)
    };
    assert!(neg_hits(&k) > 0, "the absence was served from the cache");

    // Evict everything. The negative dentry is reclaimable like any
    // other; what must survive is the *semantics*, not the object.
    let freed = k.memory_pressure(0);
    assert!(freed > 0);

    // Still absent (re-misses to the FS, re-populates the cache) …
    assert_eq!(stat_sig(&k, &p, "/dir/ghost"), "ENOENT");
    // … and a subsequent create is immediately visible — no stale
    // negative answer survived the shrink.
    touch(&k, &p, "/dir/ghost");
    assert!(stat_sig(&k, &p, "/dir/ghost").starts_with("ok:"));

    // The inverse direction: a negative cached *after* the shrink still
    // behaves (negative caching machinery intact).
    assert_eq!(stat_sig(&k, &p, "/dir/ghost2"), "ENOENT");
    assert_eq!(stat_sig(&k, &p, "/dir/ghost2"), "ENOENT");
}

#[test]
fn byte_budget_bounds_cache_and_stays_correct() {
    let budget = 64 * 1024;
    let k = kernel(DcacheConfig::optimized().with_mem_budget(budget));
    let p = k.init_process();
    for d in 0..8 {
        k.mkdir(&p, &format!("/d{d}"), 0o755).unwrap();
        for f in 0..256 {
            touch(&k, &p, &format!("/d{d}/f{f}"));
        }
    }
    // Auto-shrink kept the dentry footprint within the budget.
    let per = std::mem::size_of::<dcache_repro::Dentry>();
    assert!(
        k.dcache.live() as usize * per <= budget,
        "live dentry bytes exceed the budget (live={})",
        k.dcache.live()
    );
    assert!(
        k.dcache
            .stats
            .evictions
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    // Every file is still visible and correct after all that eviction.
    for d in 0..8 {
        for f in 0..256 {
            assert!(
                stat_sig(&k, &p, &format!("/d{d}/f{f}")).starts_with("ok:"),
                "/d{d}/f{f} lost after budget eviction"
            );
        }
        let entries = k.list_dir(&p, &format!("/d{d}")).unwrap();
        assert_eq!(entries.len(), 256, "/d{d} listing wrong after eviction");
    }
    assert_eq!(stat_sig(&k, &p, "/d0/nope"), "ENOENT");
}

#[test]
fn shrinker_registry_drives_the_dcache() {
    let k = kernel(DcacheConfig::optimized());
    let p = k.init_process();
    for f in 0..512 {
        touch(&k, &p, &format!("/f{f}"));
    }
    let before = k.dcache.reclaimable_bytes();
    assert!(before > 0);
    let freed = k.memory_pressure(before / 2);
    assert!(freed > 0);
    assert!(k.dcache.reclaimable_bytes() <= before / 2);
    // Everything still resolves (slow path re-populates).
    for f in 0..512 {
        assert!(stat_sig(&k, &p, &format!("/f{f}")).starts_with("ok:"));
    }
}

#[test]
fn concurrent_readers_race_shrinks_without_stale_reads() {
    // Lock-free readers validate per-dentry seqs against epoch-protected
    // snapshots; a racing shrink unhashes through the same coherence
    // path, so a reader must either see the pre-eviction truth or
    // re-walk — never a freed or stale dentry. 8 reader threads hammer
    // stable paths while the main thread applies pressure.
    let k = kernel(DcacheConfig::optimized());
    let p = k.init_process();
    k.mkdir(&p, "/hot", 0o755).unwrap();
    for f in 0..32 {
        touch(&k, &p, &format!("/hot/f{f}"));
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..8)
        .map(|t| {
            let k = k.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let p = k.spawn(&k.init_process());
                let mut n = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let f = (n + t) % 32;
                    let a = k.stat(&p, &format!("/hot/f{f}")).expect("file vanished");
                    assert_eq!(a.ftype, dcache_repro::fs::FileType::Regular);
                    assert!(
                        k.stat(&p, &format!("/hot/missing{f}")).is_err(),
                        "phantom file appeared"
                    );
                    n += 1;
                }
                n
            })
        })
        .collect();
    // 50 shrink-to-zero cycles: each one races all 8 readers' lookups
    // and repopulations (more cycles adds runtime, not coverage).
    for _ in 0..50 {
        k.memory_pressure(0);
        std::thread::yield_now();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers made progress under pressure");
}
