//! Property test: warm restart is *observationally cold* for arbitrary
//! op streams, arbitrary checkpoint positions, and arbitrary cut points.
//!
//! A case is a random metadata op stream, a random position in it at
//! which `Kernel::warm_checkpoint` persists the directory index,
//! and a random device-write ordinal at which power is cut (possibly
//! mid-checkpoint, tearing the index itself). The image is remounted
//! twice — once with warm restart, once cold — and the two kernels must
//! present the identical namespace over the whole (finite) path
//! universe. Since the cold mount *is* the shadow replay of the
//! committed prefix (`crash_prop.rs` proves that equivalence), this
//! pins the rehydrated DLHT set to exactly a subset of the shadow's
//! live entries: nothing phantom, nothing stale, and the published
//! count never exceeds the live-entry count.
//!
//! Cases come from `dc_fault::check`, which shrinks a failing op list;
//! CI's nightly lane runs the `#[ignore]`d soaks.

mod common;

use dcache_repro::blockdev::{CachedDisk, CrashImage, CrashMonitor, LatencyModel};
use dcache_repro::fault::{check, SplitMix64};
use dcache_repro::fs::{fsck, FileSystem, FileType, MemFs};
use dcache_repro::vfs::Kernel;
use dcache_repro::{DcacheConfig, KernelBuilder, OpenFlags, Process};
use std::sync::Arc;

const CACHE_PAGES: usize = 8192;

fn new_disk() -> Arc<CachedDisk> {
    common::new_disk(1 << 13, CACHE_PAGES)
}

fn new_fs(disk: Arc<CachedDisk>) -> Arc<MemFs> {
    common::new_fs(disk, 1 << 10)
}

fn disk_of(img: &CrashImage) -> Arc<CachedDisk> {
    Arc::new(CachedDisk::from_image(
        img,
        CACHE_PAGES,
        LatencyModel::free(),
    ))
}

fn kernel_on(fs: Arc<MemFs>, warm: bool) -> Arc<Kernel> {
    KernelBuilder::new(DcacheConfig::optimized())
        .root_fs(fs)
        .warm_restart(warm)
        .build()
        .unwrap()
}

/// Path-addressed ops over a tiny namespace (three top dirs, six names)
/// so streams collide often: creates over existing names, unlinks of
/// ghosts, renames across directories, rmdirs of non-empty dirs.
#[derive(Clone, Debug)]
enum Op {
    Mkdir(u8, &'static str),
    Create(u8, &'static str),
    Unlink(u8, &'static str),
    Rmdir(u8, &'static str),
    Rename(u8, &'static str, u8, &'static str),
}

const NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "x", "zz"];
const TOPS: usize = 3;

fn op(rng: &mut SplitMix64) -> Op {
    let mut top = || rng.below(TOPS as u64) as u8;
    let (d, d2) = (top(), top());
    let mut name = || NAMES[rng.below(NAMES.len() as u64) as usize];
    let (n, n2) = (name(), name());
    match rng.below(10) {
        0..=2 => Op::Create(d, n),
        3..=4 => Op::Mkdir(d, n),
        5..=6 => Op::Unlink(d, n),
        7 => Op::Rmdir(d, n),
        _ => Op::Rename(d, n, d2, n2),
    }
}

/// Where the checkpoint goes, and where the cut falls (‰ of the run's
/// device writes) and whether and how the in-flight write tears.
#[derive(Debug)]
struct Params {
    checkpoint_at: usize,
    cut_frac: u64,
    tear_seed: u64,
    tear: bool,
}

/// `min_ops..max_ops` ops and a checkpoint position in `0..max_ops`.
fn case(rng: &mut SplitMix64, min_ops: u64, max_ops: u64) -> (Params, Vec<Op>) {
    let ops = (0..min_ops + rng.below(max_ops - min_ops))
        .map(|_| op(rng))
        .collect();
    let params = Params {
        checkpoint_at: rng.below(max_ops) as usize,
        cut_frac: 1 + rng.below(1000),
        tear_seed: rng.next_u64(),
        tear: rng.below(2) == 1,
    };
    (params, ops)
}

fn leaf(d: u8, n: &str) -> String {
    format!("/t{d}/{n}")
}

/// Applies one op through the syscall surface. Failures are expected
/// (ghost unlinks, creates over dirs, …) and commit nothing.
fn apply(k: &Kernel, p: &Process, op: &Op) {
    let _ = match op {
        Op::Mkdir(d, n) => k.mkdir(p, &leaf(*d, n), 0o755),
        Op::Create(d, n) => k
            .open(p, &leaf(*d, n), OpenFlags::create(), 0o644)
            .and_then(|fd| k.close(p, fd)),
        Op::Unlink(d, n) => k.unlink(p, &leaf(*d, n)),
        Op::Rmdir(d, n) => k.rmdir(p, &leaf(*d, n)),
        Op::Rename(a, b, c, d) => k.rename(p, &leaf(*a, b), &leaf(*c, d)),
    };
}

/// Every path the op universe can ever name: the three top dirs plus
/// each (dir, name) leaf.
fn universe() -> Vec<String> {
    let mut paths: Vec<String> = (0..TOPS).map(|d| format!("/t{d}")).collect();
    for d in 0..TOPS as u8 {
        for n in NAMES {
            paths.push(leaf(d, n));
        }
    }
    paths
}

/// The observable namespace: what `stat` answers for every universe
/// path. Two kernels over the same tree must produce identical views.
fn view(k: &Kernel, p: &Process) -> Vec<(String, Option<(u64, FileType)>)> {
    universe()
        .into_iter()
        .map(|path| {
            let got = k.stat(p, &path).ok().map(|a| (a.ino, a.ftype));
            (path, got)
        })
        .collect()
}

/// Plants the top dirs, syncs, then runs the stream with the warm
/// checkpoint inserted at `checkpoint_at` (clamped to the stream);
/// returns the device writes issued while the monitor window was open.
fn run_stream(
    k: &Kernel,
    fs: &MemFs,
    ops: &[Op],
    checkpoint_at: usize,
    monitor: Option<&Arc<CrashMonitor>>,
) -> u64 {
    let p = k.init_process();
    for d in 0..TOPS as u8 {
        k.mkdir(&p, &format!("/t{d}"), 0o755).unwrap();
    }
    fs.sync().unwrap();
    let writes0 = fs.disk().stats().device_writes;
    if let Some(m) = monitor {
        m.arm();
    }
    let checkpoint_at = checkpoint_at.min(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if i == checkpoint_at {
            k.warm_checkpoint().unwrap();
        }
        apply(k, &p, op);
    }
    if checkpoint_at == ops.len() {
        k.warm_checkpoint().unwrap();
    }
    if let Some(m) = monitor {
        m.disarm();
    }
    fs.disk().stats().device_writes - writes0
}

/// Power cut at an arbitrary write ordinal — before, during, or after
/// the index checkpoint. The warm mount of the image must be
/// observationally identical to a cold mount of the same image.
fn warm_restart_after_any_cut_is_observationally_cold(params: &Params, ops: &[Op]) {
    let checkpoint_at = params.checkpoint_at;
    // Pass 1: learn the write count for this particular stream.
    let fs1 = new_fs(new_disk());
    let k1 = kernel_on(fs1.clone(), false);
    let writes = run_stream(&k1, &fs1, ops, checkpoint_at, None);
    drop(k1);
    if writes == 0 {
        return;
    }

    // Pass 2: identical run, cut at the chosen write ordinal.
    let ordinal = 1 + (writes - 1) * params.cut_frac / 1000;
    let tear_prob = if params.tear { 1.0 } else { 0.0 };
    let monitor = Arc::new(CrashMonitor::at_points(
        vec![ordinal],
        params.tear_seed,
        tear_prob,
    ));
    let disk = new_disk();
    disk.attach_crash_monitor(monitor.clone());
    let fs2 = new_fs(disk);
    let k2 = kernel_on(fs2.clone(), false);
    run_stream(&k2, &fs2, ops, checkpoint_at, Some(&monitor));
    drop(k2);
    let images = monitor.take_images();
    assert_eq!(images.len(), 1, "the scheduled cut must fire");
    let img = &images[0];

    // Warm mount: rehydrate the dcache from whatever index (whole,
    // torn, or absent) the cut left behind.
    let wdisk = disk_of(img);
    let wfs = MemFs::mount(wdisk.clone()).expect("warm remount after cut");
    let wk = kernel_on(wfs, true);
    let outcome = wk.warm_outcome().expect("builder ran a warm restart");
    if outcome.fallback.is_none() {
        assert_eq!(
            outcome.attempted,
            outcome.published + outcome.rejected,
            "every index entry must publish or reject: {outcome:?}"
        );
    }
    let wp = wk.init_process();
    let warm_view = view(&wk, &wp);

    // Cold mount of the same image: the committed-prefix shadow.
    let ck = kernel_on(MemFs::mount(disk_of(img)).unwrap(), false);
    let cp = ck.init_process();
    let cold_view = view(&ck, &cp);

    let live = cold_view.iter().filter(|(_, got)| got.is_some()).count();
    assert!(
        outcome.published <= live as u64,
        "cut@{}: published {} entries but only {live} are live ({outcome:?})",
        img.cut_at_write,
        outcome.published
    );
    assert_eq!(
        warm_view, cold_view,
        "cut@{} (torn: {:?}, checkpoint@{checkpoint_at}): warm namespace diverges from cold ({outcome:?})",
        img.cut_at_write, img.torn_block
    );
    // The index pass rides along: fsck must accept whatever the cut
    // left in the warm-index region.
    let report = fsck(&wdisk).unwrap();
    assert!(
        report.is_clean(),
        "cut@{}: fsck errors {:?}",
        img.cut_at_write,
        report.errors
    );
}

/// Clean-shutdown variant: no cut, the stream simply continues past the
/// checkpoint, so the index is stale by an arbitrary suffix of ops.
/// Rehydration must reject exactly the stale entries — the warm view
/// still equals the cold view.
fn warm_restart_after_stale_suffix_is_observationally_cold(params: &Params, ops: &[Op]) {
    let checkpoint_at = params.checkpoint_at;
    let disk = new_disk();
    let fs = new_fs(disk.clone());
    let k1 = kernel_on(fs.clone(), false);
    run_stream(&k1, &fs, ops, checkpoint_at, None);
    fs.sync().unwrap();
    drop(k1);
    drop(fs);

    let wk = kernel_on(MemFs::mount(disk.clone()).unwrap(), true);
    let outcome = wk.warm_outcome().expect("builder ran a warm restart");
    assert!(
        outcome.fallback.is_none(),
        "clean shutdown left a valid index, got {:?}",
        outcome.fallback
    );
    assert_eq!(outcome.attempted, outcome.published + outcome.rejected);
    let wp = wk.init_process();
    let warm_view = view(&wk, &wp);
    drop(wp);
    drop(wk);

    let ck = kernel_on(MemFs::mount(disk).unwrap(), false);
    let cp = ck.init_process();
    assert_eq!(
        warm_view,
        view(&ck, &cp),
        "checkpoint@{checkpoint_at}: warm namespace diverges from cold ({outcome:?})"
    );
}

#[test]
fn warm_restart_after_any_cut() {
    check(
        0..100,
        |rng| case(rng, 10, 80),
        warm_restart_after_any_cut_is_observationally_cold,
    );
}

#[test]
fn warm_restart_after_stale_suffix() {
    check(
        0..100,
        |rng| case(rng, 5, 60),
        warm_restart_after_stale_suffix_is_observationally_cold,
    );
}

#[test]
#[ignore = "soak: 100x the Tier-1 cases, for the nightly lane"]
fn warm_restart_soak() {
    check(
        100..10_000,
        |rng| case(rng, 10, 80),
        warm_restart_after_any_cut_is_observationally_cold,
    );
    check(
        100..10_000,
        |rng| case(rng, 5, 60),
        warm_restart_after_stale_suffix_is_observationally_cold,
    );
}
