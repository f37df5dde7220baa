//! Randomized stress: lock-free readers racing structural writers.
//!
//! Eight-plus threads hammer a shared subtree — optimistic `stat`s and
//! `readdir`s race renames and chmods — and afterwards every invariant
//! the lock-free read path promises is checked:
//!
//! - **no lost updates**: every file the writers left behind is present
//!   under its final name with its final mode;
//! - **no stale positives**: a path that never existed is never
//!   resolved, a stable path never fails, and an observed mode is
//!   always one of the values some writer actually published;
//! - **retry accounting reconciles**: `stats.read_retries` equals the
//!   recorder's `ReadRetry` event count, `slow_retries` equals
//!   `SeqRetry`, and `epoch_pins` equals `EpochPin` — the counters and
//!   the trace are bumped at the same sites, so divergence means an
//!   unaccounted retry path.

use dc_vfs::{EventKind, ObsConfig};
use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const MODES: [u16; 2] = [0o644, 0o600];

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

/// A tiny deterministic PRNG so the schedule differs per thread without
/// needing an RNG dependency.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn lockfree_readers_race_structural_writers() {
    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(99))
        .observability(ObsConfig {
            ring_capacity: 1024,
        })
        .build()
        .unwrap();
    let p = k.init_process();

    // Layout: /s/stable/* never changes; /s/flip is renamed back and
    // forth; /s/perm/* files have their modes flipped.
    k.mkdir(&p, "/s", 0o755).unwrap();
    k.mkdir(&p, "/s/stable", 0o755).unwrap();
    k.mkdir(&p, "/s/flip", 0o755).unwrap();
    k.mkdir(&p, "/s/perm", 0o755).unwrap();
    for i in 0..8 {
        touch(&k, &p, &format!("/s/stable/f{i}"));
        touch(&k, &p, &format!("/s/flip/f{i}"));
        touch(&k, &p, &format!("/s/perm/f{i}"));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let stale = Arc::new(AtomicU64::new(0));
    // Completed renames, for quiescent-window judging: a reader only
    // treats a miss/hit pair as anomalous when no flip completed in
    // between (the same protocol as tests/coherence.rs).
    let flips = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Writer 1: renames /s/flip <-> /s/gone.
        {
            let k = k.clone();
            let p = k.spawn(&p);
            let stop = stop.clone();
            let flips = flips.clone();
            s.spawn(move || {
                let mut to_gone = true;
                while !stop.load(Ordering::Relaxed) {
                    let (from, to) = if to_gone {
                        ("/s/flip", "/s/gone")
                    } else {
                        ("/s/gone", "/s/flip")
                    };
                    k.rename(&p, from, to).unwrap();
                    flips.fetch_add(1, Ordering::SeqCst);
                    to_gone = !to_gone;
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                if !to_gone {
                    k.rename(&p, "/s/gone", "/s/flip").unwrap();
                    flips.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // Writer 2: flips modes on the /s/perm files.
        {
            let k = k.clone();
            let p = k.spawn(&p);
            let stop = stop.clone();
            s.spawn(move || {
                let mut r = 0xfeed_beefu64;
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let i = next(&mut r) % 8;
                    let mode = MODES[round % 2];
                    k.chmod(&p, &format!("/s/perm/f{i}"), mode).unwrap();
                    round += 1;
                }
                // Leave a deterministic final state.
                for i in 0..8 {
                    k.chmod(&p, &format!("/s/perm/f{i}"), MODES[0]).unwrap();
                }
            });
        }
        // 8 readers: stats + readdirs, judging only race-free windows.
        for t in 0..8u64 {
            let k = k.clone();
            let p = k.spawn(&p);
            let stop = stop.clone();
            let stale = stale.clone();
            let flips = flips.clone();
            s.spawn(move || {
                let mut r = 0x9e37_79b9 ^ (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    match next(&mut r) % 4 {
                        0 => {
                            // Stable paths must always resolve.
                            let i = next(&mut r) % 8;
                            if k.stat(&p, &format!("/s/stable/f{i}")).is_err() {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            // Mode reads must be a published value.
                            let i = next(&mut r) % 8;
                            let a = k.stat(&p, &format!("/s/perm/f{i}")).unwrap();
                            if !MODES.contains(&a.mode) {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        2 => {
                            // Renamed dir: in a quiescent window exactly
                            // one of the two names resolves; and a name
                            // that never existed never resolves.
                            let before = flips.load(Ordering::SeqCst);
                            let at_flip = k.stat(&p, "/s/flip/f0").is_ok();
                            let at_gone = k.stat(&p, "/s/gone/f0").is_ok();
                            let after = flips.load(Ordering::SeqCst);
                            if before == after && at_flip == at_gone {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                            if k.stat(&p, "/s/never/f0").is_ok() {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            // Readdir of the stable dir is always the
                            // full, well-formed listing.
                            let fd = k.open(&p, "/s/stable", OpenFlags::directory(), 0).unwrap();
                            let names = k.readdir(&p, fd, 64).unwrap();
                            k.close(&p, fd).unwrap();
                            let files = names.iter().filter(|e| e.name.starts_with('f')).count();
                            if files != 8 {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        stale.load(Ordering::Relaxed),
        0,
        "stale or lost results observed under race"
    );
    assert!(
        flips.load(Ordering::SeqCst) > 0,
        "renamer never completed a flip; the race is vacuous"
    );

    // No lost updates: the writers' final state is fully visible.
    for i in 0..8 {
        k.stat(&p, &format!("/s/stable/f{i}")).unwrap();
        let a = k.stat(&p, &format!("/s/perm/f{i}")).unwrap();
        assert_eq!(a.mode, MODES[0], "final chmod lost on /s/perm/f{i}");
        k.stat(&p, &format!("/s/flip/f{i}")).unwrap();
    }
    assert!(matches!(
        k.stat(&p, "/s/gone/f0"),
        Err(FsError::NoEnt | FsError::NotDir)
    ));

    // Retry accounting reconciles with the trace-event counters.
    let obs = k.obs().obs().expect("recorder is enabled");
    let st = |c: &dcache_core::Counter| c.load(Ordering::Relaxed);
    let stats = &k.dcache.stats;
    assert_eq!(
        obs.event_count(EventKind::ReadRetry),
        st(&stats.read_retries),
        "ReadRetry events diverge from stats.read_retries"
    );
    assert_eq!(
        obs.event_count(EventKind::SeqRetry),
        st(&stats.slow_retries),
        "SeqRetry events diverge from stats.slow_retries"
    );
    assert_eq!(
        obs.event_count(EventKind::EpochPin),
        st(&stats.epoch_pins),
        "EpochPin events diverge from stats.epoch_pins"
    );
}
