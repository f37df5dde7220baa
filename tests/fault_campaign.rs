//! The seeded 1000-fault campaign (ISSUE acceptance bar).
//!
//! A faulty kernel — optimized config on a device running the standard
//! recoverable campaign (`FaultPlan::campaign`) — executes a seeded
//! stream of metadata operations in lockstep with a clean kernel, with
//! periodic cache drops so walks keep reaching the faulty device. The
//! campaign must complete with:
//!
//!   * zero panics (the test finishing is the assertion),
//!   * zero divergence from the clean kernel (no stale lookups),
//!   * zero `EIO`s leaking past the page cache's retry budget
//!     (every campaign fault is recoverable within the backoff budget),
//!   * exactly 1000 faults injected (the `limit()` cap is precise).

use dcache_repro::blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dcache_repro::fault::{FaultInjector, FaultPlan, SplitMix64};
use dcache_repro::fs::{MemFs, MemFsConfig};
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

const CAMPAIGN_FAULTS: u64 = 1000;

fn faulty_kernel(plan: FaultPlan) -> (Arc<Kernel>, Arc<FaultInjector>, Arc<CachedDisk>) {
    let disk = Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks: 1 << 17,
        latency: LatencyModel::free(),
        ..Default::default()
    }));
    let injector = Arc::new(plan.build());
    disk.attach_fault_injector(injector.clone());
    let memfs = MemFs::mkfs(
        disk.clone(),
        MemFsConfig {
            max_inodes: 1 << 17,
            ..Default::default()
        },
    )
    .unwrap();
    let kernel = KernelBuilder::new(DcacheConfig::optimized().with_seed(0xCA_4041))
        .root_fs(memfs)
        .build()
        .unwrap();
    (kernel, injector, disk)
}

/// One comparable outcome string per operation.
fn outcome<T: std::fmt::Debug>(r: Result<T, dcache_repro::fs::FsError>, show: bool) -> String {
    match r {
        Ok(v) => {
            if show {
                format!("ok:{v:?}")
            } else {
                "ok".into()
            }
        }
        Err(e) => e.errno_name().into(),
    }
}

fn stat_sig(k: &Kernel, p: &Arc<Process>, path: &str) -> String {
    match k.stat(p, path) {
        Ok(a) => format!("ok:{:?}:{:o}:{}", a.ftype, a.mode, a.nlink),
        Err(e) => e.errno_name().into(),
    }
}

#[test]
fn seeded_thousand_fault_campaign_stays_equivalent() {
    let (kf, inj, disk) = faulty_kernel(FaultPlan::campaign(0xC0_FFEE, CAMPAIGN_FAULTS));
    let kc = KernelBuilder::new(DcacheConfig::optimized().with_seed(0xCA_4041))
        .build()
        .unwrap();
    let pf = kf.init_process();
    let pc = kc.init_process();

    // Static directory skeleton the op stream scribbles inside.
    for k in [&kf, &kc] {
        let p = k.init_process();
        for d in 0..8 {
            k.mkdir(&p, &format!("/d{d}"), 0o755).unwrap();
        }
    }

    let mut rng = SplitMix64::new(0x5EED_CA4A);
    let mut next_file = 0u64; // names ever created (may since be unlinked)
    let mut ops = 0u64;
    let mut rounds = 0u32;
    inj.arm();
    // Run until the campaign cap is reached; the round bound is a
    // safety net so a starved injector fails loudly instead of hanging.
    while inj.stats().total() < CAMPAIGN_FAULTS {
        rounds += 1;
        assert!(
            rounds <= 2000,
            "injector starved: only {} of {CAMPAIGN_FAULTS} faults after {ops} ops",
            inj.stats().total()
        );
        for step in 0..256u32 {
            // Cold walks are what reach the device; re-chill often.
            if step % 16 == 0 {
                kf.drop_caches();
            }
            let d = rng.below(8);
            let f = rng.below(next_file.max(1));
            let (a, b) = match rng.below(10) {
                // Create a fresh file (writes + later writeback faults).
                0..=2 => {
                    let path = format!("/d{d}/f{next_file}");
                    next_file += 1;
                    let touch = |k: &Kernel, p: &Arc<Process>| match k.open(
                        p,
                        &path,
                        OpenFlags::create(),
                        0o644,
                    ) {
                        Ok(fd) => outcome(k.close(p, fd), false),
                        Err(e) => e.errno_name().into(),
                    };
                    (touch(&kc, &pc), touch(&kf, &pf))
                }
                // Stat a (maybe-live, maybe-unlinked) file.
                3..=5 => {
                    let path = format!("/d{}/f{f}", rng.below(8));
                    (stat_sig(&kc, &pc, &path), stat_sig(&kf, &pf, &path))
                }
                // Stat a never-created name (negative caching).
                6 => {
                    let path = format!("/d{d}/ghost{}", rng.below(64));
                    (stat_sig(&kc, &pc, &path), stat_sig(&kf, &pf, &path))
                }
                // Unlink whatever the dice picked.
                7 => {
                    let path = format!("/d{}/f{f}", rng.below(8));
                    (
                        outcome(kc.unlink(&pc, &path), false),
                        outcome(kf.unlink(&pf, &path), false),
                    )
                }
                // Rename across directories.
                8 => {
                    let from = format!("/d{}/f{f}", rng.below(8));
                    let to = format!("/d{d}/f{next_file}");
                    next_file += 1;
                    (
                        outcome(kc.rename(&pc, &from, &to), false),
                        outcome(kf.rename(&pf, &from, &to), false),
                    )
                }
                // Directory listing (completeness caching).
                _ => {
                    let path = format!("/d{d}");
                    let list = |k: &Kernel, p: &Arc<Process>| match k.list_dir(p, &path) {
                        Ok(v) => format!("ok:{}", v.len()),
                        Err(e) => e.errno_name().into(),
                    };
                    (list(&kc, &pc), list(&kf, &pf))
                }
            };
            ops += 1;
            assert_eq!(a, b, "divergence at op {ops} (round {rounds})");
        }
    }
    inj.disarm();

    // Exactly the cap — limit() is precise, not approximate.
    let fs = inj.stats();
    assert_eq!(fs.total(), CAMPAIGN_FAULTS, "campaign cap must be exact");
    assert!(fs.transient > 0, "transients actually exercised");

    // Every transient resolved inside the retry budget: nothing leaked.
    let ds = disk.stats();
    assert!(ds.io_retries > 0, "retries absorbed the campaign");
    assert_eq!(ds.io_errors, 0, "no EIO may leak past the retry budget");

    // Post-recovery: the faulty kernel still matches clean answers on a
    // fresh cold sweep.
    kf.drop_caches();
    for d in 0..8 {
        let path = format!("/d{d}");
        assert_eq!(
            kc.list_dir(&pc, &path).unwrap().len(),
            kf.list_dir(&pf, &path).unwrap().len(),
            "post-recovery listing diverged in {path}"
        );
    }
    for f in 0..next_file {
        let path = format!("/d{}/f{f}", f % 8);
        assert_eq!(
            stat_sig(&kc, &pc, &path),
            stat_sig(&kf, &pf, &path),
            "post-recovery stat diverged on {path}"
        );
    }
}
