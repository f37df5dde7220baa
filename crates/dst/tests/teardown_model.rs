//! Model checks for namespace teardown racing the read path
//! (`Dcache::retire_dlht` vs `Dcache::dlht_for`, DESIGN.md §14).
//!
//! Teardown's discipline: take the retired-set lock, tombstone the
//! namespace id, remove the table from the map — while `dlht_for`'s
//! lazy-create path checks the tombstone *under the same lock* before
//! inserting. The invariant: once a retire completes, the map never
//! holds a table for that namespace again; a racing walker gets an
//! orphan table that dies with its handle. The `injected_*` test drops
//! the tombstone check — the exact omission that would let a walker
//! resurrect a dead tenant's map entry forever — and the checker must
//! find it and replay it from the reported seed and trace.

use dcache_core::model;
use dcache_core::{Dcache, DcacheConfig, HashKey};
use dst::sync::{Arc, Mutex};

const NS: u64 = 5;

/// The real thing: `retire_dlht` racing a walker that resolves the
/// namespace handle and publishes through it. In every schedule the
/// walker keeps full service on whatever table it got, and the map
/// ends (and stays) empty of the retired namespace.
#[test]
fn retired_namespace_never_resurrects_in_the_map() {
    dst::check(
        "teardown-no-resurrect",
        dst::Config::default()
            .iterations(3000)
            .seed(0x91)
            .max_steps(60_000)
            .from_env(),
        || {
            let dcache = Dcache::new(DcacheConfig {
                dlht_buckets: 1 << 2,
                ..DcacheConfig::optimized().with_seed(7)
            });
            let retirer = {
                let dcache = dcache.clone();
                dst::thread::spawn(move || dcache.retire_dlht(NS))
            };
            // The walker: resolve the namespace's table and publish an
            // entry through the handle — exactly what an in-flight
            // lookup does mid-teardown.
            let table = dcache.dlht_for(NS);
            let sig = HashKey::from_seed(7).hash_components([b"f".as_slice()]);
            let d = model::dentry(1, "f");
            if dcache.dlht_insert_in(&table, sig, &d) {
                // Whichever table the walker holds — registered or
                // orphan — it keeps serving until the handle drops.
                assert!(
                    table.lookup(&sig).is_some(),
                    "in-flight reader lost service mid-teardown"
                );
            }
            retirer.join().unwrap();
            assert!(
                !dcache.ns_footprints().iter().any(|(id, _)| *id == NS),
                "retired namespace still registered in the map"
            );
            // A straggler resolving after the teardown gets an orphan:
            // usable, but never registered.
            let late = dcache.dlht_for(NS);
            let _ = late.lookup(&sig);
            assert!(
                !dcache.ns_footprints().iter().any(|(id, _)| *id == NS),
                "late walker resurrected the retired namespace"
            );
        },
    );
}

/// The map/tombstone protocol in miniature, with the bug injectable:
/// one namespace slot plus the retired flag, guarded by the same
/// two-lock discipline as `cache.rs`.
struct NsSlot {
    /// `Some(())` = a table is registered for the namespace.
    map: Mutex<Option<()>>,
    /// The tombstone `retire` plants before clearing the slot.
    retired: Mutex<bool>,
}

/// `dlht_for`'s lazy-create flow. `check_tombstone = false` is the
/// injected omission.
fn resolve(s: &NsSlot, check_tombstone: bool) {
    if s.map.lock().unwrap().is_some() {
        return;
    }
    let retired = s.retired.lock().unwrap();
    if check_tombstone && *retired {
        return; // orphan table: stay out of the map
    }
    *s.map.lock().unwrap() = Some(());
    drop(retired);
}

/// `retire_dlht`: tombstone and clear under one retired-lock hold.
fn retire(s: &NsSlot) {
    let mut retired = s.retired.lock().unwrap();
    *retired = true;
    *s.map.lock().unwrap() = None;
}

fn teardown_race_body(check_tombstone: bool) {
    let slot = Arc::new(NsSlot {
        map: Mutex::new(None),
        retired: Mutex::new(false),
    });
    let retirer = {
        let slot = slot.clone();
        dst::thread::spawn(move || retire(&slot))
    };
    resolve(&slot, check_tombstone);
    retirer.join().unwrap();
    // Retire has completed; nothing may sit in the map afterwards.
    assert!(
        slot.map.lock().unwrap().is_none(),
        "retired namespace resurrected in the map"
    );
}

#[test]
fn tombstone_check_beats_every_schedule() {
    dst::check(
        "teardown-tombstone",
        dst::Config::default()
            .iterations(4000)
            .seed(0x92)
            .from_env(),
        || teardown_race_body(true),
    );
}

#[test]
fn injected_missing_tombstone_is_caught_and_replays() {
    let body = || teardown_race_body(false);
    let report = dst::explore(dst::Config::default().iterations(4000).seed(0x93), body);
    let failure = report
        .failure
        .expect("the checker must catch the missing tombstone check");
    assert!(
        failure.message.contains("resurrected"),
        "unexpected failure: {}",
        failure.message
    );
    let msg = dst::replay(failure.seed, failure.policy, body).expect("seed must reproduce");
    assert!(msg.contains("resurrected"));
    let msg = dst::replay_trace(failure.trace.clone(), body).expect("trace must reproduce");
    assert!(msg.contains("resurrected"), "trace replay diverged: {msg}");

    // The correct flow survives the exact counterexample schedule.
    assert!(
        dst::replay(failure.seed, failure.policy, || teardown_race_body(true)).is_none(),
        "tombstone-checked flow failed under the counterexample schedule"
    );
}
