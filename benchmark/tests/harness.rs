//! Tests of the harness against real (if briefly driven) worlds: the
//! generators are functions of the seed, `cold_miss` repeats its counts
//! exactly, and the oracle's two kernels agree on a mutating stream.
//!
//! Each test builds whole workload trees, so they take a few seconds
//! each in a release build (`cargo test --release`) and several times
//! that in a debug one.

use dcache_benchmark::counters::{CounterSnap, Derived};
use dcache_benchmark::drive::{drive, ActorReport, Limit, Phase};
use dcache_benchmark::workloads::cold_miss::ColdMiss;
use dcache_benchmark::workloads::mutate_mix::MutateMix;
use dcache_benchmark::workloads::Workload;
use dcache_benchmark::world::{KernelKind, World};
use std::time::Instant;

const STEPS: u64 = 4000;

/// Builds `W` for `seed` on `kind`, drives its first actor for [`STEPS`]
/// digested steps, and returns the report with the counters' movement.
fn short_run<W: Workload>(seed: u64, kind: KernelKind) -> (ActorReport, Derived) {
    let built = W::build(seed, kind);
    let world: &World = (*built).as_ref();
    let mut actors = W::actors(&built, seed);
    let before = CounterSnap::take(world, None);
    let report = drive(
        actors[0].as_mut(),
        &[Phase::warm(Limit::Steps(STEPS), STEPS)],
        Instant::now(),
        seed,
    );
    let after = CounterSnap::take(world, None);
    let derived = Derived::between(&before, &after, report.warm_ops, 0);
    (report, derived)
}

#[test]
fn same_seed_same_stream_and_cold_miss_counts_repeat_exactly() {
    let (a, da) = short_run::<ColdMiss>(11, KernelKind::Optimized);
    let (b, db) = short_run::<ColdMiss>(11, KernelKind::Optimized);
    let (c, _) = short_run::<ColdMiss>(12, KernelKind::Optimized);
    assert_eq!(a.warm_failed, 0);
    assert_eq!(a.digest_steps, STEPS);

    // Generator determinism: the digest folds in every result of the
    // stream, so it is a hash of the stream itself.
    assert_eq!(a.digest, b.digest, "same seed, different op stream");
    assert_ne!(a.digest, c.digest, "different seeds, same op stream");

    // Single-threaded and seeded: every count the program makes repeats.
    assert_eq!(da.ops, db.ops);
    for (name, x, y) in [
        ("vfs.fast_hit_ratio", da.fast_hit_ratio, db.fast_hit_ratio),
        (
            "vfs.miss_fs_per_lookup",
            da.miss_fs_per_lookup,
            db.miss_fs_per_lookup,
        ),
        (
            "vfs.slow_steps_per_lookup",
            da.slow_steps_per_lookup,
            db.slow_steps_per_lookup,
        ),
        ("core.dlht.hit_ratio", da.dlht_hit_ratio, db.dlht_hit_ratio),
        ("core.pcc.hit_ratio", da.pcc_hit_ratio, db.pcc_hit_ratio),
        (
            "core.dcache.evictions_per_op",
            da.evictions_per_op,
            db.evictions_per_op,
        ),
        ("fs.calls_per_op", da.fs_calls_per_op, db.fs_calls_per_op),
        (
            "blockdev.cache_hit_ratio",
            da.cache_hit_ratio,
            db.cache_hit_ratio,
        ),
        (
            "blockdev.device_reads_per_op",
            da.device_reads_per_op,
            db.device_reads_per_op,
        ),
        (
            "blockdev.writebacks_per_op",
            da.writebacks_per_op,
            db.writebacks_per_op,
        ),
    ] {
        assert_eq!(x, y, "{name} differs between two runs of one seed");
    }

    // And the workload is what it says, even this early: lookups miss
    // and reach the device.
    assert!(da.miss_fs_per_lookup > 0.5, "{da:?}");
    assert!(da.device_reads_per_op >= 1.0, "{da:?}");
    assert!(da.fast_hit_ratio <= 0.5, "{da:?}");
}

#[test]
fn optimized_and_baseline_kernels_agree_on_a_mutating_stream() {
    let (opt, d) = short_run::<MutateMix>(21, KernelKind::Optimized);
    let (base, _) = short_run::<MutateMix>(21, KernelKind::Oracle);
    assert_eq!(opt.warm_failed, 0);
    assert_eq!(base.warm_failed, 0);
    assert_eq!(
        opt.digest, base.digest,
        "the optimized cache must be observationally equal to the baseline walk"
    );
    // Each step folds in its own result plus the verification stats.
    assert!(opt.digest.results() > STEPS);
    // The mutator commits one journal transaction per mutation.
    assert!(d.journal_commits_per_mutation > 0.99, "{d:?}");
}
