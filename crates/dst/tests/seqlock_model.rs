//! Model checks for the seqlock protocol (`dcache-core/src/seqlock.rs`)
//! and for the dentry snapshot discipline it anchors: publish →
//! bump-seq, and the facts one publication keeps together (DESIGN.md
//! §5, §9).
//!
//! Each test explores thousands of thread interleavings of the *real*
//! workspace code under the deterministic scheduler. The `injected_*`
//! tests break the protocol on purpose and require the checker to find
//! a counterexample schedule — and to reproduce it exactly from the
//! reported seed.

use dcache_core::model;
use dcache_core::{HashKey, SeqCell, SeqCount};
use dst::sync::atomic::{AtomicU64, Ordering};
use dst::sync::Arc;

const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Two words kept in the invariant relation `b == a * K`, published
/// through a bare [`SeqCount`]. The `guarded` flag lets tests omit the
/// write_begin/write_end bracket — the injected protocol violation.
struct Pair {
    seq: SeqCount,
    a: AtomicU64,
    b: AtomicU64,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            seq: SeqCount::new(),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }

    fn write(&self, v: u64, guarded: bool) {
        if guarded {
            self.seq.write_begin();
        }
        self.a.store(v, Ordering::Release);
        self.b.store(v.wrapping_mul(K), Ordering::Release);
        if guarded {
            self.seq.write_end();
        }
    }

    fn read(&self) -> (u64, u64) {
        loop {
            let s = self.seq.read_begin();
            let a = self.a.load(Ordering::Acquire);
            let b = self.b.load(Ordering::Acquire);
            if !self.seq.read_retry(s) {
                return (a, b);
            }
        }
    }
}

#[test]
fn seqcount_readers_never_observe_mid_mutation_state() {
    dst::check(
        "seqcount-multiword",
        dst::Config::default()
            .iterations(6000)
            .seed(0x51)
            .from_env(),
        || {
            let p = Arc::new(Pair::new());
            let writer = {
                let p = p.clone();
                dst::thread::spawn(move || {
                    p.write(1, true);
                    p.write(2, true);
                })
            };
            for _ in 0..2 {
                let (a, b) = p.read();
                assert_eq!(
                    b,
                    a.wrapping_mul(K),
                    "seqlock reader observed a mid-mutation snapshot: a={a}"
                );
            }
            writer.join().unwrap();
        },
    );
}

#[test]
fn seqcell_reads_are_atomic() {
    dst::check(
        "seqcell-atomic",
        dst::Config::default()
            .iterations(4000)
            .seed(0x52)
            .from_env(),
        || {
            let c = Arc::new(SeqCell::new((0u64, 0u64)));
            let writer = {
                let c = c.clone();
                dst::thread::spawn(move || {
                    c.write((1, K));
                    c.write((2, 2u64.wrapping_mul(K)));
                })
            };
            let reader = {
                let c = c.clone();
                dst::thread::spawn(move || {
                    let (a, b) = c.read();
                    assert_eq!(b, a.wrapping_mul(K), "torn SeqCell read: a={a}");
                })
            };
            let (a, b) = c.read();
            assert_eq!(b, a.wrapping_mul(K), "torn SeqCell read: a={a}");
            writer.join().unwrap();
            reader.join().unwrap();
        },
    );
}

#[test]
fn injected_unguarded_write_is_caught_and_replays() {
    // The writer mutates both words WITHOUT the write_begin/write_end
    // bracket: the classic forgotten-seqlock bug. The checker must find
    // a schedule where the reader validates a torn snapshot, and the
    // reported seed must reproduce that exact schedule.
    let body = || {
        let p = Arc::new(Pair::new());
        let writer = {
            let p = p.clone();
            dst::thread::spawn(move || p.write(1, false))
        };
        let (a, b) = p.read();
        assert_eq!(
            b,
            a.wrapping_mul(K),
            "mid-mutation snapshot survived validation"
        );
        writer.join().unwrap();
    };
    let report = dst::explore(dst::Config::default().iterations(4000).seed(0x53), body);
    let failure = report
        .failure
        .expect("the checker must catch the unguarded write");
    assert!(
        failure.message.contains("mid-mutation snapshot"),
        "unexpected failure: {}",
        failure.message
    );
    // Seed replay and exact-trace replay both reproduce the violation.
    let msg = dst::replay(failure.seed, failure.policy, body).expect("seed must reproduce");
    assert!(msg.contains("mid-mutation snapshot"));
    let msg = dst::replay_trace(failure.trace.clone(), body).expect("trace must reproduce");
    assert!(msg.contains("mid-mutation snapshot"));
}

#[test]
fn dentry_rename_republishes_before_seq_bump() {
    // The documented discipline (dentry.rs::publish): swap in the
    // edited snapshot BEFORE bumping seq, so a reader that samples a
    // post-bump seq is guaranteed the post-mutation snapshot.
    dst::check(
        "dentry-republish-order",
        dst::Config::default()
            .iterations(3000)
            .seed(0x54)
            .from_env(),
        || {
            let d = model::dentry(1, "old");
            let writer = {
                let d = d.clone();
                dst::thread::spawn(move || {
                    model::rename(&d, "new");
                    d.bump_seq();
                })
            };
            let s = d.seq();
            let name = d.name();
            if s >= 1 {
                // Bump observed ⟹ publication completed first ⟹ the
                // snapshot read after the sample must be post-rename.
                assert_eq!(
                    &*name, "new",
                    "post-bump reader observed the pre-rename snapshot"
                );
            }
            writer.join().unwrap();
        },
    );
}

#[test]
fn injected_bump_before_republish_is_caught_and_replays() {
    // Inverted discipline: seq bumps first, the snapshot is published after.
    // A reader sampling the bumped seq can now observe stale data while
    // believing it is post-mutation — the bug class the ordering rule
    // exists to prevent.
    let body = || {
        let d = model::dentry(1, "old");
        let writer = {
            let d = d.clone();
            dst::thread::spawn(move || {
                d.bump_seq();
                model::rename(&d, "new");
            })
        };
        let s = d.seq();
        let name = d.name();
        if s >= 1 {
            assert_eq!(
                &*name, "new",
                "post-bump reader observed the pre-rename snapshot"
            );
        }
        writer.join().unwrap();
    };
    let report = dst::explore(dst::Config::default().iterations(4000).seed(0x55), body);
    let failure = report
        .failure
        .expect("the checker must catch the inverted publish/bump order");
    assert!(
        failure.message.contains("pre-rename snapshot"),
        "unexpected failure: {}",
        failure.message
    );
    let msg = dst::replay(failure.seed, failure.policy, body).expect("seed must reproduce");
    assert!(msg.contains("pre-rename snapshot"));
}

#[test]
fn dentry_racing_edits_of_different_fields_both_land() {
    // Every writer copies the current snapshot, edits its own field and
    // swaps the copy in. The strong-edge lock must cover the whole
    // read-copy-swap: if it did not, the later swap would publish a copy
    // taken before the earlier edit and silently drop it.
    dst::check(
        "dentry-edits-compose",
        dst::Config::default()
            .iterations(3000)
            .seed(0x56)
            .from_env(),
        || {
            let d = model::dentry(1, "a");
            let h = HashKey::from_seed(9).root_state();
            let renamer = {
                let d = d.clone();
                dst::thread::spawn(move || model::rename(&d, "b"))
            };
            d.sign(Some(h), M1);
            renamer.join().unwrap();
            assert_eq!(&*d.name(), "b", "the rename was overwritten");
            let hash_state = d.view(&crossbeam_epoch::pin()).hash_state;
            assert_eq!(hash_state, Some(h), "the hash state was overwritten");
        },
    );
}

/// Two mounts a bind-mounted dentry is reached through (§4.3).
const M1: u64 = 1;
const M2: u64 = 2;

/// The resumable hash state of a one-component path.
fn state(key: &HashKey, component: &[u8]) -> dcache_core::HashState {
    let mut h = key.root_state();
    key.push_component(&mut h, component);
    h
}

#[test]
fn hash_state_via_answers_only_for_its_own_mount() {
    // A dentry under a bind mount has one hash-state slot and one path
    // per mount. The writer re-signs it m1 → m2 → m1 with three states;
    // a reader resuming a walk through m1 must get a state signed through
    // m1, or none. A mount kept in a field of its own beside the block,
    // read hint / state / hint, answers h2 for m1 on an ABA: hint m1 |
    // sign(h2, m2) | state h2 | sign(h3, m1) | hint m1. That schedule
    // needs four preemptions in ~100 steps: PCT depth 5, change points
    // placed over the schedule's real length.
    dst::check(
        "sign-pairs-state-and-mount",
        dst::Config {
            pct_depth: 5,
            ..dst::Config::default()
        }
        .iterations(3000)
        .expected_len(100)
        .seed(0x57)
        .from_env(),
        || {
            let key = HashKey::from_seed(9);
            let [h1, h2, h3] = [b"one", b"two", b"six"].map(|c| state(&key, c));
            let d = model::dentry(1, "dir");
            d.sign(Some(h1), M1);
            let writer = {
                let d = d.clone();
                dst::thread::spawn(move || {
                    d.sign(Some(h2), M2);
                    d.sign(Some(h3), M1);
                })
            };
            let seen = d.hash_state_via(M1);
            assert!(
                seen.is_none() || seen == Some(h1) || seen == Some(h3),
                "hash_state_via(m1) returned the state signed through m2"
            );
            writer.join().unwrap();
        },
    );
}

#[test]
fn a_link_signature_lands_only_beside_its_mount() {
    // A symlink's target signature is as much a fact about the path it
    // was read through as the hash state is: stored for m1 while another
    // walk re-signs the link through m2, it must land before the re-sign
    // (which clears it) or not at all — never beside m2.
    dst::check(
        "link-sig-keeps-its-mount",
        dst::Config::default().seed(0x58).from_env(),
        || {
            let key = HashKey::from_seed(9);
            let d = model::dentry(1, "link");
            d.sign(Some(state(&key, b"one")), M1);
            let sig = key.finish(&state(&key, b"target"));
            let resigner = {
                let d = d.clone();
                let h2 = state(&key, b"two");
                dst::thread::spawn(move || d.sign(Some(h2), M2))
            };
            d.store_link_sig(sig, M1);
            resigner.join().unwrap();
            let guard = crossbeam_epoch::pin();
            let block = d.view(&guard);
            assert!(
                block.link_sig.is_none() || block.mount == M1,
                "a link signature computed through m1 sits beside m2"
            );
        },
    );
}
