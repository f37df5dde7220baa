//! Property test: crash consistency holds for *arbitrary* op streams
//! and *arbitrary* cut points, not just the seeded campaign.
//!
//! A case is a random metadata op sequence and a random fraction of the
//! run's device-write stream; power is cut at that write (sometimes
//! tearing it), the image is remounted, and the recovered file system
//! must (a) pass `fsck` with zero errors and (b) present exactly the
//! metadata tree of the committed-operation prefix the journal recovered
//! to — replayed on a shadow file system. Cases come from
//! `dc_fault::check`, which shrinks a failing op list.

mod common;

use common::{apply, run_ops, Op};
use dcache_repro::blockdev::{CachedDisk, CrashMonitor, LatencyModel};
use dcache_repro::fault::{check, SplitMix64};
use dcache_repro::fs::{fsck, tree_sig, FileSystem, MemFs};
use std::sync::Arc;

const CACHE_PAGES: usize = 128;

/// A tiny namespace (three top-level directories, six names) so
/// sequences collide often: creates over existing names, unlinks of
/// ghosts, renames across directories.
const NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "x", "zz"];
const TOPS: u64 = 3;

fn op(rng: &mut SplitMix64) -> Op {
    let mut top = || format!("t{}", rng.below(TOPS));
    let (d, d2) = (top(), top());
    let mut name = || NAMES[rng.below(NAMES.len() as u64) as usize].to_string();
    let (n, n2) = (name(), name());
    match rng.below(13) {
        0..=2 => Op::Create(d, n),
        3..=4 => Op::Mkdir(d, n),
        5 => Op::Symlink(d, n),
        6 => Op::Write(d, n, 1 + rng.below(5999) as usize),
        7..=8 => Op::Unlink(d, n),
        9 => Op::Rmdir(d, n),
        10..=11 => Op::Rename(d, n, d2, n2),
        _ => Op::Chmod(d, n, [0o600, 0o755, 0o444][rng.below(3) as usize]),
    }
}

/// Where the cut falls (‰ of the run's device writes) and whether and how
/// the in-flight write tears.
#[derive(Debug)]
struct Cut {
    frac: u64,
    tear_seed: u64,
    tear: bool,
}

fn case(rng: &mut SplitMix64) -> (Cut, Vec<Op>) {
    let ops = (0..10 + rng.below(70)).map(|_| op(rng)).collect();
    let cut = Cut {
        frac: 1 + rng.below(1000),
        tear_seed: rng.next_u64(),
        tear: rng.below(2) == 1,
    };
    (cut, ops)
}

/// A fresh file system with the top-level directories planted.
fn planted_fs(disk: Arc<CachedDisk>) -> Arc<MemFs> {
    let fs = common::new_fs(disk, 1 << 10);
    for d in 0..TOPS {
        assert!(apply(&fs, &Op::Mkdir(String::new(), format!("t{d}"))));
    }
    fs
}

fn any_cut_point_recovers_to_a_committed_prefix(cut: &Cut, ops: &[Op]) {
    // Pass 1: learn the write count for this particular stream.
    let (_, writes) = run_ops(
        &planted_fs(common::new_disk(1 << 13, CACHE_PAGES)),
        ops,
        None,
    );
    if writes == 0 {
        return;
    }

    // Pass 2: identical run, cut at the chosen write ordinal.
    let ordinal = 1 + (writes - 1) * cut.frac / 1000;
    let tear_prob = if cut.tear { 1.0 } else { 0.0 };
    let monitor = Arc::new(CrashMonitor::at_points(
        vec![ordinal],
        cut.tear_seed,
        tear_prob,
    ));
    let disk = common::new_disk(1 << 13, CACHE_PAGES);
    disk.attach_crash_monitor(monitor.clone());
    let (boundaries, _) = run_ops(&planted_fs(disk), ops, Some(&monitor));
    let images = monitor.take_images();
    assert_eq!(images.len(), 1, "the scheduled cut must fire");
    let img = &images[0];

    // Remount, fsck, prefix-compare.
    let rdisk = Arc::new(CachedDisk::from_image(
        img,
        CACHE_PAGES,
        LatencyModel::free(),
    ));
    let rfs = MemFs::mount(rdisk.clone()).expect("remount after cut");
    let report = fsck(&rdisk).unwrap();
    assert!(
        report.is_clean(),
        "cut@{} (torn: {:?}): fsck errors: {:?}",
        img.cut_at_write,
        img.torn_block,
        report.errors
    );
    let rseq = rfs.recovered_seq();
    let idx = boundaries
        .binary_search_by_key(&rseq, |b| b.0)
        .unwrap_or_else(|_| {
            panic!("recovered seq {rseq} is not a committed-op boundary ({boundaries:?})")
        });
    let prefix = boundaries[idx].1;
    let shadow = planted_fs(common::new_disk(1 << 13, CACHE_PAGES));
    run_ops(&shadow, &ops[..prefix], None);
    assert_eq!(
        tree_sig(&*rfs),
        tree_sig(&*shadow),
        "cut@{}: recovered tree differs from the {prefix}-op shadow prefix",
        img.cut_at_write
    );
}

#[test]
fn any_cut_point_recovers() {
    check(0..200, case, any_cut_point_recovers_to_a_committed_prefix);
}

#[test]
#[ignore = "soak: 100x the Tier-1 cases, for the nightly lane"]
fn any_cut_point_recovers_soak() {
    check(
        200..20_000,
        case,
        any_cut_point_recovers_to_a_committed_prefix,
    );
}

/// `MemFs::write` used to walk a symlink's inline target as a block map
/// (case 12 at `d024490`, with no cut at all: `fsck` reported
/// `BlockOutOfRange`); the write is now refused and the image stays clean.
#[test]
fn a_write_to_a_symlink_name_leaves_a_clean_image() {
    let disk = common::new_disk(1 << 13, CACHE_PAGES);
    let fs = planted_fs(disk.clone());
    assert!(apply(&fs, &Op::Symlink("t0".into(), "x".into())));
    assert!(!apply(&fs, &Op::Write("t0".into(), "x".into(), 4000)));
    fs.sync().unwrap();
    let report = fsck(&disk).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}
