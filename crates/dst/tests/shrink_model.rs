//! Model checks for memory-pressure eviction racing the lock-free read
//! path (`Dcache::shrink_to_bytes` → `unhash(reclaim = true)`,
//! DESIGN.md §10).
//!
//! The shrinker's eviction discipline is: set `FLAG_DEAD`, remove the
//! dentry from the DLHT, bump the seq counter — in that order. A
//! lock-free reader revalidating a held dentry (the PCC-memoized
//! fastpath) checks the dead flag *and* seq stability, so a completed
//! eviction can never slip under a validated read: if the bump landed
//! before the window, the dead flag (set even earlier) is visible; if
//! it landed inside, the seq check fails. The `injected_*` test omits
//! the dead flag and requires the checker to find the resulting stale
//! validation — and to reproduce it from the reported seed and trace.

use dcache_core::model;
use dcache_core::{Dentry, Dlht, HashKey};
use dst::sync::atomic::{AtomicBool, Ordering};
use dst::sync::Arc;

/// One model at a time in this process. A schedule is a pure function of
/// its seed only while nothing else adds scheduling points, and the epoch
/// collector is modelled *and* global: garbage retired by a sibling test's
/// threads is collected on ours, at a pin of its choosing. That is how
/// `injected_missing_dead_flag_is_caught_and_replays` found a failing
/// schedule and then, once in a few hundred loaded runs, could not replay
/// it from its seed.
static ONE_MODEL_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    // A failed sibling poisons nothing that matters here.
    ONE_MODEL_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The fastpath revalidation of an already-held dentry: seq sample,
/// dead-flag check, seq re-sample. Returns `Some(seq)` when the read
/// validated.
fn revalidate(d: &Dentry) -> Option<u64> {
    let s0 = d.seq();
    if d.is_dead() {
        return None;
    }
    if d.seq() != s0 {
        return None;
    }
    Some(s0)
}

/// The shrinker's per-dentry eviction, mirroring `Dcache::unhash`
/// (`reclaim = true`): dead flag first, table removal, seq bump last.
fn evict(table: &Dlht, sig: &dcache_core::Signature, d: &Arc<Dentry>, done: &AtomicBool) {
    model::kill(d);
    model::dlht_remove(table, sig, d.id());
    d.bump_seq();
    done.store(true, Ordering::Release);
}

#[test]
fn validated_reads_never_overlap_a_completed_eviction() {
    let _alone = alone();
    // If the reader validates (not dead, seq stable), the eviction
    // cannot have completed before the window opened — the answer is
    // at worst the pre-eviction truth, never a freed/evicted dentry
    // masquerading as live.
    dst::check(
        "shrink-revalidate",
        dst::Config::default()
            .iterations(4000)
            .seed(0x60)
            .from_env(),
        || {
            let key = HashKey::from_seed(7);
            let table = Dlht::new(0, 1 << 2);
            let sig = key.hash_components([b"victim".as_slice()]);
            let d = model::dentry(1, "victim");
            model::dlht_insert(&table, sig, &d);
            let done = Arc::new(AtomicBool::new(false));
            let shrinker = {
                let d = d.clone();
                let done = done.clone();
                let table = table.clone();
                dst::thread::spawn(move || evict(&table, &sig, &d, &done))
            };
            for _ in 0..2 {
                let done_before = done.load(Ordering::Acquire);
                if revalidate(&d).is_some() {
                    assert!(
                        !done_before,
                        "reader validated a dentry whose eviction had already completed"
                    );
                }
            }
            shrinker.join().unwrap();
            // Post-eviction, revalidation must refuse — no resurrection.
            assert!(revalidate(&d).is_none(), "evicted dentry revalidated");
            assert!(table.lookup(&sig).is_none(), "evicted dentry still hashed");
        },
    );
}

#[test]
fn injected_missing_dead_flag_is_caught_and_replays() {
    let _alone = alone();
    // The eviction "forgets" FLAG_DEAD (remove + bump only). A reader
    // whose window opens after the bump now validates a fully evicted
    // dentry — exactly the stale read the dead flag exists to prevent.
    // The checker must find that schedule and replay it.
    let body = || {
        let key = HashKey::from_seed(7);
        let table = Dlht::new(0, 1 << 2);
        let sig = key.hash_components([b"victim".as_slice()]);
        let d = model::dentry(1, "victim");
        model::dlht_insert(&table, sig, &d);
        let done = Arc::new(AtomicBool::new(false));
        let shrinker = {
            let d = d.clone();
            let done = done.clone();
            let table = table.clone();
            dst::thread::spawn(move || {
                model::dlht_remove(&table, &sig, d.id());
                d.bump_seq();
                done.store(true, Ordering::Release);
            })
        };
        let done_before = done.load(Ordering::Acquire);
        if revalidate(&d).is_some() {
            assert!(
                !done_before,
                "reader validated a dentry whose eviction had already completed"
            );
        }
        shrinker.join().unwrap();
    };
    let report = dst::explore(dst::Config::default().iterations(4000).seed(0x61), body);
    let failure = report
        .failure
        .expect("the checker must catch the missing dead flag");
    assert!(
        failure.message.contains("eviction had already completed"),
        "unexpected failure: {}",
        failure.message
    );
    let msg = dst::replay(failure.seed, failure.policy, body).expect("seed must reproduce");
    assert!(msg.contains("eviction had already completed"));
    let msg = dst::replay_trace(failure.trace.clone(), body).expect("trace must reproduce");
    assert!(msg.contains("eviction had already completed"));
}

#[test]
fn lookups_racing_bulk_eviction_see_live_or_nothing() {
    let _alone = alone();
    // A shrinker sweeps a shared-bucket chain while readers hammer
    // lookups. The tracked allocator fails the execution if a reader
    // ever touches a reclaimed bucket group (freed read); the assertions
    // fail it if a lookup returns an evicted-and-bumped dentry as
    // validated, or if anything resurrects after the sweep.
    dst::check(
        "shrink-bulk-sweep",
        dst::Config::default()
            .iterations(2500)
            .seed(0x62)
            .max_steps(60_000)
            .from_env(),
        || {
            let key = HashKey::from_seed(9);
            // 4 entries in a 2-bucket table: chains are shared, so
            // removal rewrites nodes readers are traversing.
            let table = Dlht::new(0, 1 << 1);
            let sigs: Vec<_> = (0..4)
                .map(|i| key.hash_components([format!("e{i}").as_bytes()]))
                .collect();
            let dentries: Vec<_> = (0..4).map(|i| model::dentry(i as u64 + 1, "e")).collect();
            for (sig, d) in sigs.iter().zip(&dentries) {
                model::dlht_insert(&table, *sig, d);
            }
            let done = Arc::new(AtomicBool::new(false));
            let shrinker = {
                let table = table.clone();
                let sigs = sigs.clone();
                let dentries = dentries.clone();
                let done = done.clone();
                dst::thread::spawn(move || {
                    for (sig, d) in sigs.iter().zip(&dentries) {
                        let flag = AtomicBool::new(false);
                        evict(&table, sig, d, &flag);
                    }
                    done.store(true, Ordering::Release);
                })
            };
            let reader = {
                let table = table.clone();
                let sigs = sigs.clone();
                dst::thread::spawn(move || {
                    for sig in &sigs {
                        if let Some(d) = table.lookup(sig) {
                            // Touch the dentry: the tracked allocator
                            // catches it if the group was freed.
                            let _ = d.id();
                            let _ = revalidate(&d);
                        }
                    }
                })
            };
            for sig in &sigs {
                if done.load(Ordering::Acquire) {
                    assert!(
                        table.lookup(sig).is_none(),
                        "entry resurrected after the sweep completed"
                    );
                }
            }
            shrinker.join().unwrap();
            reader.join().unwrap();
            for (sig, d) in sigs.iter().zip(&dentries) {
                assert!(table.lookup(sig).is_none(), "sweep left an entry hashed");
                assert!(revalidate(d).is_none(), "evicted dentry still validates");
            }
        },
    );
}
