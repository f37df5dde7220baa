//! dst — deterministic-schedule testing for the lock-free read path.
//!
//! A loom/shuttle-style model checker: concurrency tests run their real
//! workspace code (seqlock, epoch reclamation, DLHT, PCC) on virtual
//! threads whose interleaving is fully controlled by a seeded scheduler.
//! Each explored schedule is a pure function of a `u64` seed, so a
//! failing interleaving replays *exactly* — the check failure prints the
//! seed and a one-line reproduction command.
//!
//! Three pieces:
//!
//! * [`sync`] / [`thread`] / [`hint`] — a facade mirroring the std API
//!   surface. With the `model` feature off, pure re-exports of std.
//!   With it on, every atomic op, lock acquisition, spawn, and yield is
//!   a *scheduling point*; outside an active execution the instrumented
//!   types pass straight through to std, so test binaries that link the
//!   facade but don't run model tests behave identically.
//! * [`runtime`](crate::model_active) — the controlled scheduler:
//!   baton-passing over real OS threads, uniform-random and PCT
//!   (priority + change points) policies, exact trace replay,
//!   per-execution isolation of process globals ([`exec_slot`]), and
//!   tracked-allocation use-after-free detection ([`alloc`]).
//! * [`linearize`] — a Wing & Gong linearizability checker fed by
//!   step-stamped operation histories.
//!
//! Exploration is sequentially consistent (shuttle-style), not weak
//! memory (loom-style): `dcache-core`'s `coherence.rs` makes the
//! memory-ordering argument by hand, and ThreadSanitizer cross-checks it.
//!
//! # Example
//!
//! ```
//! use dst::sync::atomic::{AtomicU64, Ordering};
//! use dst::sync::Arc;
//!
//! dst::check("counter-increments", dst::Config::default().iterations(200), || {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let t = {
//!         let c = c.clone();
//!         dst::thread::spawn(move || c.fetch_add(1, Ordering::Relaxed))
//!     };
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     assert_eq!(c.load(Ordering::Relaxed), 2);
//! });
//! ```

pub mod linearize;
mod rng;
mod runtime;
pub mod sync;
pub mod thread;

pub use runtime::{
    alloc, exec_slot, execution_id, model_active, register_execution_end_hook, step, PolicyKind,
};

/// Spin-hint facade: a deprioritizing scheduling point inside a model
/// execution (so a spinning reader cannot starve the writer it waits
/// on), `std::hint::spin_loop` otherwise.
pub mod hint {
    /// See module docs.
    pub fn spin_loop() {
        if crate::model_active() {
            crate::runtime::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Exploration configuration. `Default` gives 1000 iterations split
/// between uniform-random and PCT(depth 3) policies, seed 0x5EED, and a
/// 20k-step budget per execution; [`Config::from_env`] layers
/// `DST_ITERS` / `DST_SEED` on top so CI lanes scale exploration without
/// code changes.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of schedules to explore.
    pub iterations: u64,
    /// Base seed; per-iteration seeds derive from it deterministically.
    pub seed: u64,
    /// Fraction (0..=100) of iterations run under PCT; the rest are
    /// uniform random. PCT targets low-depth ordering bugs, random
    /// covers the long tail.
    pub pct_percent: u64,
    /// PCT bug depth (number of priority change points + 1).
    pub pct_depth: u32,
    /// Per-execution scheduling-point budget; exhausting it fails the
    /// execution as a suspected deadlock/livelock.
    pub max_steps: u64,
    /// Rough expected schedule length, used to place PCT change points.
    pub expected_len: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            iterations: 1000,
            seed: 0x5EED,
            pct_percent: 50,
            pct_depth: 3,
            max_steps: 20_000,
            expected_len: 200,
        }
    }
}

impl Config {
    /// Sets the iteration count.
    pub fn iterations(mut self, n: u64) -> Config {
        self.iterations = n;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// Sets the per-execution step budget.
    pub fn max_steps(mut self, n: u64) -> Config {
        self.max_steps = n;
        self
    }

    /// Sets the expected schedule length (PCT change-point placement).
    pub fn expected_len(mut self, n: u64) -> Config {
        self.expected_len = n;
        self
    }

    /// Overrides from the environment: `DST_ITERS` scales the iteration
    /// count, `DST_SEED` pins the base seed (both decimal). This is how
    /// the nightly deep-exploration CI lane widens the search and how a
    /// failure seed is re-targeted.
    pub fn from_env(mut self) -> Config {
        if let Some(n) = env_u64("DST_ITERS") {
            self.iterations = n;
        }
        if let Some(s) = env_u64("DST_SEED") {
            self.seed = s;
        }
        self
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The per-iteration derived seed that produced the schedule.
    pub seed: u64,
    /// Policy the schedule ran under.
    pub policy: PolicyKind,
    /// The invariant-violation message (panic payload or scheduler
    /// diagnosis).
    pub message: String,
    /// The exact choice sequence, for policy-independent replay.
    pub trace: Vec<u32>,
    /// Scheduling points executed before the failure.
    pub steps: u64,
    /// Which iteration of the exploration hit it.
    pub iteration: u64,
}

/// Result of an [`explore`] run.
#[derive(Debug)]
pub struct Report {
    /// Schedules executed (stops early at the first failure).
    pub explored: u64,
    /// Distinct schedules among them (by choice-trace hash).
    pub distinct: u64,
    /// The first failure, if any.
    pub failure: Option<Failure>,
}

/// Explores `config.iterations` schedules of `f`, alternating policies,
/// and returns a [`Report`]. Stops at the first failing schedule.
///
/// `f` runs once per schedule and must be deterministic apart from the
/// interleaving (no wall clock, no OS randomness): determinism is what
/// makes the recorded seed sufficient for replay.
pub fn explore<F: Fn()>(config: Config, f: F) -> Report {
    let mut distinct = HashSet::new();
    let pct_every = match config.pct_percent.min(100) {
        0 => u64::MAX,
        p => (100 / p).max(1),
    };
    for i in 0..config.iterations {
        let seed = rng::mix(config.seed, i);
        let policy = if i % pct_every == 0 {
            PolicyKind::Pct {
                depth: config.pct_depth,
                expected_len: config.expected_len,
            }
        } else {
            PolicyKind::Random
        };
        let outcome = runtime::run_one(seed, policy, config.max_steps, &f);
        let mut h = DefaultHasher::new();
        outcome.trace.hash(&mut h);
        distinct.insert(h.finish());
        if let Some(message) = outcome.failure {
            return Report {
                explored: i + 1,
                distinct: distinct.len() as u64,
                failure: Some(Failure {
                    seed,
                    policy,
                    message,
                    trace: outcome.trace,
                    steps: outcome.steps,
                    iteration: i,
                }),
            };
        }
    }
    Report {
        explored: config.iterations,
        distinct: distinct.len() as u64,
        failure: None,
    }
}

/// Explores schedules of `f` and panics with a reproduction recipe if
/// any schedule violates an invariant. This is the entry point model
/// tests use.
pub fn check<F: Fn()>(name: &str, config: Config, f: F) {
    let report = explore(config, f);
    if std::env::var_os("DST_REPORT").is_some() {
        eprintln!(
            "model '{name}': explored {} schedules, {} distinct interleavings",
            report.explored, report.distinct
        );
    }
    if let Some(fail) = report.failure {
        panic!(
            "model '{name}' failed on iteration {iter} (schedule seed {seed:#x}, \
             policy {policy:?}, {steps} steps):\n  {msg}\n\
             replay exactly with:\n  \
             dst::replay({seed:#x}, dst::PolicyKind::{policy:?}, || ...)\n\
             or rerun this test with DST_SEED={base} DST_ITERS={iters}",
            iter = fail.iteration,
            seed = fail.seed,
            policy = fail.policy,
            steps = fail.steps,
            msg = fail.message,
            base = config.seed,
            iters = fail.iteration + 1,
        );
    }
}

/// Replays the single schedule generated by (`seed`, `policy`) and
/// returns its failure message, if it fails. Seeds printed by [`check`]
/// go here.
pub fn replay<F: Fn()>(seed: u64, policy: PolicyKind, f: F) -> Option<String> {
    runtime::run_one(seed, policy, Config::default().max_steps, f).failure
}

/// Replays an exact recorded choice trace (policy-independent; survives
/// scheduler-policy changes that would re-map seeds).
pub fn replay_trace<F: Fn()>(trace: Vec<u32>, f: F) -> Option<String> {
    runtime::run_trace(trace, Config::default().max_steps, f).failure
}

#[cfg(all(test, feature = "model"))]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};
    use super::*;

    #[test]
    fn single_thread_model_passes() {
        let report = explore(Config::default().iterations(50), || {
            let a = AtomicU64::new(1);
            a.fetch_add(1, Ordering::SeqCst);
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(report.failure.is_none());
        assert_eq!(report.explored, 50);
    }

    #[test]
    fn finds_unsynchronized_check_then_act() {
        // Classic lost-update: both threads read 0, both store 1.
        // The explorer must find an interleaving where the final value
        // is 1 instead of 2, within few iterations.
        let report = explore(Config::default().iterations(500), || {
            let c = Arc::new(AtomicU64::new(0));
            let t = {
                let c = c.clone();
                thread::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            };
            let v = c.load(Ordering::SeqCst);
            c.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = report.failure.expect("explorer must find the lost update");
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn failing_seed_replays_exactly() {
        let body = || {
            let c = Arc::new(AtomicU64::new(0));
            let t = {
                let c = c.clone();
                thread::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            };
            let v = c.load(Ordering::SeqCst);
            c.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        };
        let failure = explore(Config::default().iterations(500), body)
            .failure
            .expect("must find the lost update");
        // Seed replay reproduces the failure...
        let msg = replay(failure.seed, failure.policy, body).expect("seed must reproduce");
        assert!(msg.contains("lost update"));
        // ...and so does exact trace replay.
        let msg = replay_trace(failure.trace.clone(), body).expect("trace must reproduce");
        assert!(msg.contains("lost update"));
        // A correct program is clean under the same schedule.
        assert!(replay(failure.seed, failure.policy, || {
            let c = Arc::new(AtomicU64::new(0));
            let t = {
                let c = c.clone();
                thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            };
            c.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::SeqCst), 2);
        })
        .is_none());
    }

    #[test]
    fn mutex_protects_critical_section() {
        let report = explore(Config::default().iterations(300), || {
            let m = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let m = m.clone();
                    thread::spawn(move || {
                        let mut g = m.lock().unwrap();
                        let v = *g;
                        thread::yield_now();
                        *g = v + 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    fn deadlock_diagnosed_as_step_budget() {
        let report = explore(Config::default().iterations(30).max_steps(2_000), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t = {
                let a = a.clone();
                let b = b.clone();
                thread::spawn(move || {
                    let _ga = a.lock().unwrap();
                    thread::yield_now();
                    let _gb = b.lock().unwrap();
                })
            };
            let _gb = b.lock().unwrap();
            thread::yield_now();
            let _ga = a.lock().unwrap();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        });
        let failure = report.failure.expect("AB-BA deadlock must be found");
        assert!(
            failure.message.contains("step budget"),
            "unexpected diagnosis: {}",
            failure.message
        );
    }

    #[test]
    fn explores_many_distinct_schedules() {
        let report = explore(Config::default().iterations(300), || {
            let c = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let c = c.clone();
                    thread::spawn(move || {
                        for _ in 0..3 {
                            c.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.load(Ordering::SeqCst), 9);
        });
        assert!(report.failure.is_none());
        // 3 threads x 3 ops gives far more than 100 interleavings; a
        // healthy explorer should rarely repeat itself here.
        assert!(
            report.distinct > 100,
            "only {} distinct schedules in 300 iterations",
            report.distinct
        );
    }

    #[test]
    fn exec_slot_isolated_per_execution() {
        use std::sync::atomic::AtomicU64 as StdAtomicU64;
        struct Counter(StdAtomicU64);
        let report = explore(Config::default().iterations(20), || {
            let c = exec_slot::<Counter>(|| Counter(StdAtomicU64::new(0)));
            // Each execution must see a pristine slot, regardless of how
            // many executions ran before it.
            assert_eq!(c.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst), 0);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    fn passthrough_outside_executions() {
        assert!(!model_active());
        let a = AtomicU64::new(7);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 7);
        let m = Mutex::new(3);
        assert_eq!(*m.lock().unwrap(), 3);
        let t = thread::spawn(|| 42);
        assert_eq!(t.join().unwrap(), 42);
        hint::spin_loop();
        thread::yield_now();
    }
}
