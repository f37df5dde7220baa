//! Model checks for Prefix Check Cache coherence (`dcache-core/src/pcc.rs`).
//!
//! The invariant (§3.2): a memoized prefix check is only accepted while
//! the dentry's seq counter still equals the memoized version, so any
//! permission or structure change that *bumps the counter* invalidates
//! every PCC entry for the subtree without touching the PCCs. The model
//! races a chmod-analog writer against a fastpath reader and asserts the
//! PCC hit never survives a change that completed before the reader
//! began. The injected bug omits the seq bump — the exact omission the
//! discipline exists to catch — and must be found with a replayable
//! seed.

use dcache_core::model;
use dcache_core::Pcc;
use dst::sync::Arc;

/// `true` = writer bumps the seq after mutating (correct §3.2 flow);
/// `false` = the injected omission.
fn chmod_race_body(bump: bool) {
    let d = model::dentry(7, "dir");
    let pcc = Arc::new(Pcc::new(1024));
    // The credential walked to `d` earlier and memoized the successful
    // prefix check at the current version.
    pcc.insert(7, d.seq());

    // Writer-completion stamp in scheduler steps (0 = not yet). Plain
    // std atomic on purpose: it is bookkeeping for the assertion, not
    // part of the modeled protocol, so it must not add schedule points.
    let done = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let writer = {
        let d = d.clone();
        let done = done.clone();
        dst::thread::spawn(move || {
            // chmod: revoke search permission (a mutation that publishes
            // a new snapshot), then bump the seq counter so
            // every memoized prefix check through `d` dies.
            model::rename(&d, "dir'");
            if bump {
                d.bump_seq();
            }
            done.store(dst::step(), std::sync::atomic::Ordering::Relaxed);
        })
    };

    // Fastpath reader: sample the dentry's current seq, then consult the
    // PCC with it. The gate load is a schedule point, so there are
    // explorable schedules where the writer runs to completion before
    // `start` is stamped — the schedules the assertion below inspects.
    let gate = dst::sync::atomic::AtomicU64::new(0);
    let _ = gate.load(std::sync::atomic::Ordering::Relaxed);
    let start = dst::step();
    let cur = d.seq();
    let hit = pcc.check(7, cur);
    let done_at = done.load(std::sync::atomic::Ordering::Relaxed);
    if hit && done_at != 0 && done_at < start {
        // The chmod fully completed before this reader even started,
        // yet the memoized check validated: stale permission accepted.
        panic!(
            "PCC hit survived a completed chmod (done at step {done_at}, read began at {start})"
        );
    }
    writer.join().unwrap();

    // Sequential epilogue: after the race settles, the memoized entry
    // must be dead iff the writer bumped.
    let settled = pcc.check(7, d.seq());
    if bump {
        assert!(!settled, "PCC entry survived the seq bump");
    }
}

#[test]
fn pcc_hit_never_survives_completed_chmod() {
    dst::check(
        "pcc-chmod-coherence",
        dst::Config::default()
            .iterations(5000)
            .seed(0x81)
            .from_env(),
        || chmod_race_body(true),
    );
}

#[test]
fn injected_missing_seq_bump_is_caught_and_replays() {
    let body = || chmod_race_body(false);
    let report = dst::explore(dst::Config::default().iterations(4000).seed(0x82), body);
    let failure = report
        .failure
        .expect("the checker must catch the omitted seq bump");
    assert!(
        failure.message.contains("PCC hit survived"),
        "unexpected failure: {}",
        failure.message
    );
    let msg = dst::replay(failure.seed, failure.policy, body).expect("seed must reproduce");
    assert!(msg.contains("PCC hit survived"));
    let msg = dst::replay_trace(failure.trace.clone(), body).expect("trace must reproduce");
    assert!(
        msg.contains("PCC hit survived"),
        "trace replay diverged: {msg}"
    );

    // The correct flow survives the exact counterexample schedule.
    assert!(
        dst::replay(failure.seed, failure.policy, || chmod_race_body(true)).is_none(),
        "correct seq-bump flow failed under the counterexample schedule"
    );
}

#[test]
fn forget_beats_racing_checks() {
    // `forget` (access revocation) must also never lose to a concurrent
    // reader: after it completes, checks at any version miss.
    dst::check(
        "pcc-forget",
        dst::Config::default()
            .iterations(3000)
            .seed(0x83)
            .from_env(),
        || {
            let pcc = Arc::new(Pcc::new(1024));
            pcc.insert(9, 0);
            let revoker = {
                let pcc = pcc.clone();
                dst::thread::spawn(move || pcc.forget(9))
            };
            // Racing check: either outcome is fine mid-race.
            let _ = pcc.check(9, 0);
            revoker.join().unwrap();
            assert!(!pcc.check(9, 0), "memoized check survived forget()");
        },
    );
}
