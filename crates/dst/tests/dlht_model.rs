//! Linearizability model for the DLHT (`dcache-core/src/dlht.rs`).
//!
//! Concurrent `insert_raw` / `remove_raw` / `lookup` calls on the real
//! copy-bucket-and-CAS table are recorded as a step-stamped history and
//! checked against a sequential per-signature register with the Wing &
//! Gong search in `dst::linearize`. In this model every signature is
//! only ever paired with one dentry id, so the sequential reference is
//! a map from signature slot to `Option<DentryId>`.

use dcache_core::model;
use dcache_core::{Dentry, Dlht, HashKey, Signature};
use dst::linearize::{History, Sequential};
use dst::sync::Arc;

/// Sequential reference: one register per signature slot.
#[derive(Clone)]
struct SigMap {
    slots: Vec<Option<u64>>,
}

#[derive(Clone, Debug)]
enum Op {
    /// Publish slot `i`'s dentry.
    Insert(usize),
    /// Remove slot `i`'s dentry.
    Remove(usize),
    /// Look slot `i` up, observing `Some(id)` or `None`.
    Lookup(usize),
}

impl Sequential for SigMap {
    type Op = Op;
    type Ret = Option<u64>;

    fn apply(&mut self, op: &Op) -> Option<u64> {
        match *op {
            Op::Insert(i) => {
                self.slots[i] = Some(id_for(i));
                None
            }
            Op::Remove(i) => {
                self.slots[i] = None;
                None
            }
            Op::Lookup(i) => self.slots[i],
        }
    }
}

fn id_for(slot: usize) -> u64 {
    slot as u64 + 1
}

struct Fixture {
    table: Arc<Dlht>,
    sigs: Vec<Signature>,
    dentries: Vec<std::sync::Arc<Dentry>>,
}

fn fixture(nslots: usize) -> Arc<Fixture> {
    let key = HashKey::from_seed(42);
    // A tiny table so distinct signatures collide into shared groups and
    // mutators genuinely race on the same bucket head CAS.
    let table = Dlht::new(0, 1 << 2);
    let sigs: Vec<Signature> = (0..nslots)
        .map(|i| key.hash_components([format!("slot{i}").as_bytes()]))
        .collect();
    let dentries: Vec<_> = (0..nslots).map(|i| model::dentry(id_for(i), "m")).collect();
    Arc::new(Fixture {
        table,
        sigs,
        dentries,
    })
}

/// Runs `ops` against the real table, recording each with its
/// invocation/response step interval.
fn run_ops(fx: &Fixture, ops: &[Op]) -> History<SigMap> {
    let mut h = History::new();
    for op in ops {
        let invoked = dst::step();
        let ret = match *op {
            Op::Insert(i) => {
                model::dlht_insert(&fx.table, fx.sigs[i], &fx.dentries[i]);
                None
            }
            Op::Remove(i) => {
                model::dlht_remove(&fx.table, &fx.sigs[i], id_for(i));
                None
            }
            Op::Lookup(i) => fx.table.lookup(&fx.sigs[i]).map(|d| d.id()),
        };
        h.record(op.clone(), ret, invoked, dst::step());
    }
    h
}

fn linearizes_body(threads: &'static [&'static [Op]]) {
    let fx = fixture(3);
    let handles: Vec<_> = threads[1..]
        .iter()
        .map(|ops| {
            let fx = fx.clone();
            dst::thread::spawn(move || run_ops(&fx, ops))
        })
        .collect();
    let mut history = run_ops(&fx, threads[0]);
    for handle in handles {
        history.extend(handle.join().unwrap());
    }
    let initial = SigMap {
        slots: vec![None; 3],
    };
    if let Err(e) = history.check(initial) {
        panic!("DLHT history not linearizable: {e}");
    }
}

#[test]
fn insert_remove_lookup_linearize_against_register_map() {
    // Two mutators + the main thread reading: contention on slot 0 plus
    // independent traffic on slots 1 and 2 sharing the same 4-bucket
    // table.
    static THREADS: [&[Op]; 3] = [
        &[Op::Lookup(0), Op::Lookup(1), Op::Lookup(0)],
        &[Op::Insert(0), Op::Insert(1), Op::Remove(0)],
        &[Op::Insert(2), Op::Lookup(0), Op::Lookup(2)],
    ];
    dst::check(
        "dlht-linearizability",
        dst::Config::default()
            .iterations(1500)
            .seed(0x71)
            .max_steps(60_000)
            .from_env(),
        || linearizes_body(&THREADS),
    );
}

#[test]
fn racing_mutators_on_one_signature_linearize() {
    // Insert and remove hammer the SAME signature from two threads while
    // readers validate: the copy-bucket CAS loop must serialize them.
    static THREADS: [&[Op]; 3] = [
        &[Op::Lookup(0), Op::Lookup(0), Op::Lookup(0)],
        &[Op::Insert(0), Op::Remove(0)],
        &[Op::Insert(0), Op::Remove(0)],
    ];
    dst::check(
        "dlht-single-sig-race",
        dst::Config::default()
            .iterations(1500)
            .seed(0x72)
            .max_steps(60_000)
            .from_env(),
        || linearizes_body(&THREADS),
    );
}

#[test]
fn dead_dentries_never_returned_concurrently() {
    // A dentry marked dead mid-race must never come back from lookup,
    // whatever the interleaving (lookup re-checks liveness after the
    // weak upgrade).
    dst::check(
        "dlht-dead-skip",
        dst::Config::default()
            .iterations(1000)
            .seed(0x73)
            .max_steps(60_000)
            .from_env(),
        || {
            let fx = fixture(1);
            model::dlht_insert(&fx.table, fx.sigs[0], &fx.dentries[0]);
            // Kill-completion stamp in scheduler steps (0 = not yet);
            // plain std atomic so the bookkeeping adds no schedule
            // points.
            let done = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let killer = {
                let fx = fx.clone();
                let done = done.clone();
                dst::thread::spawn(move || {
                    model::kill(&fx.dentries[0]);
                    done.store(dst::step(), std::sync::atomic::Ordering::Relaxed);
                })
            };
            // Schedule point so there are explorable schedules where the
            // kill fully completes before `start` is stamped.
            let gate = dst::sync::atomic::AtomicU64::new(0);
            let _ = gate.load(std::sync::atomic::Ordering::Relaxed);
            let start = dst::step();
            let found = fx.table.lookup(&fx.sigs[0]).is_some();
            let done_at = done.load(std::sync::atomic::Ordering::Relaxed);
            if found && done_at != 0 && done_at < start {
                panic!("lookup returned a dentry whose death completed before the lookup began");
            }
            killer.join().unwrap();
            assert!(
                fx.table.lookup(&fx.sigs[0]).is_none(),
                "dead dentry still visible after kill completed"
            );
        },
    );
}
