//! `repro faults` — the fig. 8 lookup workload run through a seeded
//! fault campaign (DESIGN.md §10).
//!
//! Three identically-shaped phases over the lmbench path ladder:
//! *before* (injector disarmed), *during* (armed with the standard
//! recoverable campaign), *after* (disarmed again — the recovery
//! picture). Each phase periodically drops the page/dentry caches so a
//! fixed fraction of walks reach the device, where the campaign's
//! transients, torn reads, and latency spikes fire. The acceptance bar
//! is the robustness contract: zero syscall-visible errors in every
//! phase, and a post-recovery hit rate within five points of the
//! no-fault baseline.

use crate::report::{self, fields, Json, Stamp};
use crate::setup::{kernel_on_disk, DiskSetup, Scale};
use crate::table::{pct, us, Table};
use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_fault::{FaultInjector, FaultPlan};
use dc_fs::MemFsConfig;
use dc_vfs::{Kernel, OpenFlags, Process};
use dc_workloads::lmbench::{self, Pattern};
use dcache_core::DcacheConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Faults the standard campaign injects before going quiet.
pub const CAMPAIGN_FAULTS: u64 = 1000;

/// One measured phase of the campaign.
struct PhaseReport {
    name: &'static str,
    ops: u64,
    ns_per_op: f64,
    hit_rate: f64,
    /// Faults the injector fired during this phase.
    faults: u64,
    /// Device-level retries the page cache absorbed.
    retries: u64,
    /// `EIO`s that leaked past the retry budget (must stay zero).
    io_errors: u64,
    /// Syscall results other than the expected ones (must stay zero).
    syscall_errors: u64,
}

struct Campaign {
    kernel: Arc<Kernel>,
    proc: Arc<Process>,
    disk: Arc<CachedDisk>,
    injector: Arc<FaultInjector>,
}

/// Builds the optimized kernel on a spinning-latency disk carrying the
/// standard campaign injector (disarmed).
fn provision(seed: u64) -> Campaign {
    let disk = DiskConfig {
        capacity_blocks: 1 << 16,
        latency: LatencyModel::new(2_000, 4_000, true).with_hit_ns(150),
        ..Default::default()
    };
    let fs = MemFsConfig {
        max_inodes: 1 << 16,
        ..Default::default()
    };
    let DiskSetup {
        disk, kernel, proc, ..
    } = kernel_on_disk(DcacheConfig::optimized().with_seed(seed), disk, fs);
    let injector = Arc::new(FaultPlan::campaign(seed, CAMPAIGN_FAULTS).build());
    disk.attach_fault_injector(injector.clone());
    lmbench::setup(&kernel, &proc).expect("lmbench fixture");
    Campaign {
        kernel,
        proc,
        disk,
        injector,
    }
}

/// Runs one phase: `iters` iterations of the fig. 8 ladder (stat the
/// 1/2/4/8-component paths, then open+close the 4-component one), with
/// a cache drop every eighth iteration so cold walks keep reaching the
/// device.
fn run_phase(c: &Campaign, name: &'static str, iters: usize) -> PhaseReport {
    let k = &c.kernel;
    let p = &c.proc;
    let stats = &k.dcache.stats;
    let lookups0 = stats.lookups.load(Ordering::Relaxed);
    let miss0 = stats.miss_fs.load(Ordering::Relaxed);
    let d0 = c.disk.stats();
    let f0 = c.injector.stats().total();
    let mut ops = 0u64;
    let mut syscall_errors = 0u64;
    let t0 = Instant::now();
    for i in 0..iters {
        if i % 8 == 0 {
            k.drop_caches();
        }
        for pat in [
            Pattern::Comp1,
            Pattern::Comp2,
            Pattern::Comp4,
            Pattern::Comp8,
        ] {
            if k.stat(p, pat.path()).is_err() {
                syscall_errors += 1;
            }
            ops += 1;
        }
        match k.open(p, Pattern::Comp4.path(), OpenFlags::read_only(), 0) {
            Ok(fd) => {
                let _ = k.close(p, fd);
            }
            Err(_) => syscall_errors += 1,
        }
        ops += 1;
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let lookups = stats.lookups.load(Ordering::Relaxed) - lookups0;
    let miss = stats.miss_fs.load(Ordering::Relaxed) - miss0;
    let d1 = c.disk.stats();
    PhaseReport {
        name,
        ops,
        ns_per_op: elapsed_ns / ops.max(1) as f64,
        hit_rate: (1.0 - miss as f64 / lookups.max(1) as f64).max(0.0),
        faults: c.injector.stats().total() - f0,
        retries: d1.io_retries - d0.io_retries,
        io_errors: d1.io_errors - d0.io_errors,
        syscall_errors,
    }
}

/// The `repro faults --seed N` entry point.
pub fn faults(scale: Scale, seed: u64) {
    println!("\n==== Fault campaign: fig8 workload, seed {seed:#x} ====");
    let c = provision(seed);
    let iters = scale.tree_files.max(64);

    // Warm everything once so the three phases start from the same
    // steady state (the per-phase cache drops re-cool them equally).
    run_phase(&c, "warmup", iters / 4);

    let before = run_phase(&c, "before", iters);
    c.injector.arm();
    let during = run_phase(&c, "during", iters);
    c.injector.disarm();
    let after = run_phase(&c, "after", iters);

    let mut t = Table::new(&[
        "phase", "ops", "ns/op", "hit rate", "faults", "retries", "EIO", "errs",
    ]);
    for r in [&before, &during, &after] {
        t.row(vec![
            r.name.into(),
            r.ops.to_string(),
            us(r.ns_per_op),
            pct(r.hit_rate),
            r.faults.to_string(),
            r.retries.to_string(),
            r.io_errors.to_string(),
            r.syscall_errors.to_string(),
        ]);
    }
    t.print();

    let recovered = (before.hit_rate - after.hit_rate).abs() <= 0.05;
    let clean = [&before, &during, &after]
        .iter()
        .all(|r| r.io_errors == 0 && r.syscall_errors == 0);
    println!(
        "campaign: {} faults fired, {} retries absorbed; \
         post-recovery hit rate {} vs no-fault {} — {}",
        during.faults,
        during.retries,
        pct(after.hit_rate),
        pct(before.hit_rate),
        if recovered && clean { "PASS" } else { "FAIL" }
    );

    let phases = [before, during, after].map(|r| {
        let body =
            fields!(r => ops, ns_per_op, hit_rate, faults, retries, io_errors, syscall_errors);
        (r.name, body)
    });
    let body = Json::obj()
        .with("campaign_faults", CAMPAIGN_FAULTS)
        .with("phases", Json::keyed(phases))
        .with("recovered_within_5pct", recovered)
        .with("clean", clean);
    report::write("faults", Stamp::new(scale, Some(seed)), body);
}
