//! The controlled scheduler: virtual threads, one-at-a-time execution,
//! seeded schedule policies, and per-execution state isolation.
//!
//! Model code runs on real OS threads, but only one *virtual* thread
//! holds the baton at any instant. Every instrumented operation (facade
//! atomic, lock acquisition, explicit yield) calls [`schedule`], which
//! picks the next thread to run from the active policy and hands the
//! baton over through a mutex/condvar pair. Given deterministic model
//! code, the entire interleaving is a pure function of the policy's
//! decisions — which are themselves a pure function of a `u64` seed —
//! so any failing schedule replays exactly from its seed (or from the
//! recorded choice trace, which survives even policy changes).
//!
//! Weak-memory caveat: interleavings are explored at sequential
//! consistency (like shuttle/PCT), not the full C11 model (like loom).
//! Store buffering / load reordering bugs are out of scope; ordering
//! arguments are documented in `dcache-core`'s `coherence.rs` and
//! cross-checked by the ThreadSanitizer CI lane.

use crate::rng::SplitMix64;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Panic payload used to unwind virtual threads when an execution
/// aborts (another thread failed, or the step budget ran out).
pub(crate) struct ExecAbort;

/// Schedule policy selected by a [`crate::Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Uniformly random choice among runnable threads at every step.
    Random,
    /// PCT-style priority scheduling (Burckhardt et al., ASPLOS '10):
    /// threads get random priorities, the highest-priority runnable
    /// thread always runs, and `depth - 1` random *change points* drop
    /// the running thread's priority mid-execution. Finds bugs of
    /// "depth" d with probability ≥ 1/(n·k^(d-1)) per schedule.
    Pct {
        /// Bug depth to target (number of ordering constraints).
        depth: u32,
        /// The steps the change points fall among: the schedule's rough
        /// length (`Config::expected_len`).
        expected_len: u64,
    },
}

/// Why a thread reached a scheduling point; `Yield` marks voluntary
/// back-off (spin hints, failed lock tries) and deprioritizes the
/// caller under PCT so spinners cannot starve the thread they wait on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldKind {
    Op,
    Yield,
}

struct VThread {
    finished: bool,
    priority: i64,
}

enum Chooser {
    Random,
    Pct {
        change_points: Vec<u64>,
        next_low: i64,
    },
    Replay {
        choices: Vec<u32>,
        cursor: usize,
    },
}

struct ExecState {
    threads: Vec<VThread>,
    current: usize,
    chooser: Chooser,
    rng: SplitMix64,
    steps: u64,
    max_steps: u64,
    trace: Vec<u32>,
    abort: bool,
    failure: Option<String>,
    unfinished: usize,
    /// Addresses of the facade mutexes this execution's threads hold.
    held: Vec<usize>,
}

impl ExecState {
    fn runnable(&self) -> impl Iterator<Item = usize> + '_ {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.finished)
            .map(|(i, _)| i)
    }

    /// Picks the next thread to run and records the decision.
    fn choose(&mut self) -> usize {
        let runnable: Vec<usize> = self.runnable().collect();
        debug_assert!(!runnable.is_empty(), "choose with no runnable threads");
        let pick = match &mut self.chooser {
            Chooser::Random => runnable[self.rng.next_below(runnable.len() as u64) as usize],
            Chooser::Pct { .. } => *runnable
                .iter()
                .max_by_key(|&&t| self.threads[t].priority)
                .unwrap(),
            Chooser::Replay { choices, cursor } => {
                let recorded = choices.get(*cursor).map(|&c| c as usize);
                *cursor += 1;
                match recorded {
                    // Replay diverging from the recorded trace means the
                    // model itself is nondeterministic; fall back to the
                    // first runnable thread rather than wedging.
                    Some(t) if runnable.contains(&t) => t,
                    _ => runnable[0],
                }
            }
        };
        self.trace.push(pick as u32);
        pick
    }

    /// Drops `tid`'s priority below every other thread (PCT only).
    fn deprioritize(&mut self, tid: usize) {
        if let Chooser::Pct { next_low, .. } = &mut self.chooser {
            *next_low -= 1;
            self.threads[tid].priority = *next_low;
        }
    }

    fn at_change_point(&mut self) -> bool {
        if let Chooser::Pct { change_points, .. } = &self.chooser {
            return change_points.contains(&self.steps);
        }
        false
    }
}

/// Tracked-allocation table: records pointers retired by instrumented
/// reclamation (the vendored `crossbeam-epoch` under its `dst` feature)
/// so a dereference of freed memory is caught as a clean invariant
/// violation *before* the load happens, instead of silent UB.
#[derive(Default)]
pub(crate) struct AllocTable {
    freed: HashSet<usize>,
}

/// One model execution: scheduler state, tracked allocations, and the
/// per-execution global-state slots (see [`exec_slot`]).
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    alloc: Mutex<AllocTable>,
    slots: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    id: u64,
}

/// Outcome of one execution, harvested by the explorer.
pub(crate) struct ExecOutcome {
    pub failure: Option<String>,
    pub trace: Vec<u32>,
    pub steps: u64,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

fn cur() -> Option<(Arc<Execution>, usize)> {
    CTX.try_with(|c| c.try_borrow().ok().and_then(|b| b.clone()))
        .ok()
        .flatten()
}

fn set_ctx(exec: Arc<Execution>, vtid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((exec, vtid)));
}

fn clear_ctx() {
    let _ = CTX.try_with(|c| {
        if let Ok(mut b) = c.try_borrow_mut() {
            *b = None;
        }
    });
}

/// True when the calling thread is a virtual thread of an active model
/// execution. Facade types consult this to decide between scheduler
/// participation and plain passthrough.
pub fn model_active() -> bool {
    cur().is_some()
}

/// Records that a thread of the active execution took (`held`) or
/// released the facade mutex at `lock`; a no-op outside executions.
pub(crate) fn note_held(lock: usize, held: bool) {
    if let Some((exec, _)) = cur() {
        let mut st = exec.lock_state();
        st.held.retain(|&l| l != lock);
        st.held.extend(held.then_some(lock));
    }
}

/// True when a thread of the active execution holds the facade mutex at
/// `lock` — the one case where waiting means yielding to that thread.
pub(crate) fn held_here(lock: usize) -> bool {
    cur().is_some_and(|(exec, _)| exec.lock_state().held.contains(&lock))
}

/// The active execution's logical step counter (0 outside executions).
/// Monotone within an execution; used by the linearizability checker to
/// stamp operation invocation/response intervals.
pub fn step() -> u64 {
    match cur() {
        Some((exec, _)) => exec.lock_state().steps,
        None => 0,
    }
}

static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(1);

impl Execution {
    fn new(seed: u64, policy: PolicyKind, max_steps: u64) -> Arc<Execution> {
        let mut rng = SplitMix64::new(seed);
        let chooser = match policy {
            PolicyKind::Random => Chooser::Random,
            PolicyKind::Pct {
                depth,
                expected_len,
            } => {
                let mut change_points = Vec::new();
                for _ in 1..depth.max(1) {
                    change_points.push(rng.next_below(expected_len.max(2)) + 1);
                }
                Chooser::Pct {
                    change_points,
                    next_low: -1,
                }
            }
        };
        Arc::new(Execution {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                current: 0,
                chooser,
                rng,
                steps: 0,
                max_steps,
                trace: Vec::new(),
                abort: false,
                failure: None,
                unfinished: 0,
                held: Vec::new(),
            }),
            cv: Condvar::new(),
            alloc: Mutex::new(AllocTable::default()),
            slots: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    fn from_trace(trace: Vec<u32>, max_steps: u64) -> Arc<Execution> {
        let exec = Execution::new(0, PolicyKind::Random, max_steps);
        exec.lock_state().chooser = Chooser::Replay {
            choices: trace,
            cursor: 0,
        };
        exec
    }

    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        let priority = st.rng.next_u64() as i64 & i64::MAX;
        st.threads.push(VThread {
            finished: false,
            priority,
        });
        st.unfinished += 1;
        st.threads.len() - 1
    }

    /// Records a failure (first one wins) and wakes every thread so the
    /// execution unwinds.
    fn fail(&self, message: String) {
        let mut st = self.lock_state();
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    fn finish_thread(&self, vtid: usize) {
        let mut st = self.lock_state();
        debug_assert!(!st.threads[vtid].finished);
        st.threads[vtid].finished = true;
        st.unfinished -= 1;
        if st.unfinished > 0 && st.current == vtid && !st.abort {
            let next = st.choose();
            st.current = next;
        }
        self.cv.notify_all();
    }

    /// Blocks the OS thread until `vtid` holds the baton (or the
    /// execution aborts, in which case the caller must unwind).
    fn wait_for_baton(&self, vtid: usize) -> Result<(), ExecAbort> {
        let mut st = self.lock_state();
        while st.current != vtid && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            return Err(ExecAbort);
        }
        Ok(())
    }
}

/// The scheduling point every instrumented operation passes through.
///
/// No-op when the calling thread is not part of an execution (facade
/// passthrough mode) or is already unwinding (so guard drops during a
/// panic never double-panic).
pub(crate) fn schedule(kind: YieldKind) {
    if std::thread::panicking() {
        return;
    }
    let Some((exec, vtid)) = cur() else { return };
    let mut st = exec.lock_state();
    debug_assert_eq!(st.current, vtid, "scheduling point without the baton");
    if st.abort {
        drop(st);
        std::panic::panic_any(ExecAbort);
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        let budget = st.max_steps;
        drop(st);
        exec.fail(format!(
            "step budget exhausted after {budget} steps: possible deadlock or livelock \
             (every remaining thread is spinning or blocked)"
        ));
        std::panic::panic_any(ExecAbort);
    }
    if kind == YieldKind::Yield || st.at_change_point() {
        st.deprioritize(vtid);
    }
    let next = st.choose();
    if next == vtid {
        return; // keep running; no handoff needed
    }
    st.current = next;
    exec.cv.notify_all();
    while st.current != vtid && !st.abort {
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    if st.abort {
        drop(st);
        std::panic::panic_any(ExecAbort);
    }
}

/// An explicit scheduling point (exposed as `dst::hint::spin_loop` and
/// `dst::thread::yield_now`): tells the scheduler the caller cannot make
/// progress right now.
pub(crate) fn yield_now() {
    schedule(YieldKind::Yield);
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn handle_panic(exec: &Execution, payload: Box<dyn Any + Send>) {
    if payload.downcast_ref::<ExecAbort>().is_some() {
        return; // secondary unwind; original failure already recorded
    }
    exec.fail(panic_message(payload.as_ref()));
}

/// Spawns a virtual thread in the current execution. Must only be
/// called from a virtual thread (checked by the caller in
/// `dst::thread::spawn`).
pub(crate) fn spawn_virtual<T, F>(f: F) -> (usize, Arc<Mutex<Option<T>>>)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (exec, _) = cur().expect("spawn_virtual outside an execution");
    let vtid = exec.register_thread();
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let os_handle = {
        let exec = exec.clone();
        let slot = slot.clone();
        std::thread::spawn(move || {
            set_ctx(exec.clone(), vtid);
            let body = AssertUnwindSafe(|| {
                if exec.wait_for_baton(vtid).is_err() {
                    return; // aborted before first scheduling
                }
                let value = f();
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
            });
            let result = catch_unwind(body);
            clear_ctx();
            if let Err(payload) = result {
                handle_panic(&exec, payload);
            }
            exec.finish_thread(vtid);
        })
    };
    exec.handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(os_handle);
    // Make the new thread immediately schedulable: the spawn itself is a
    // scheduling point, so the child can run before the parent's next op.
    schedule(YieldKind::Op);
    (vtid, slot)
}

/// True when virtual thread `vtid` of the current execution finished.
pub(crate) fn vthread_finished(vtid: usize) -> bool {
    match cur() {
        Some((exec, _)) => exec.lock_state().threads[vtid].finished,
        None => true,
    }
}

/// Runs `f` as virtual thread 0 of a fresh execution and returns the
/// outcome. `policy`/`seed` fully determine the schedule.
pub(crate) fn run_one<F: Fn()>(seed: u64, policy: PolicyKind, max_steps: u64, f: F) -> ExecOutcome {
    let exec = Execution::new(seed, policy, max_steps);
    run_on(exec, f)
}

/// Runs `f` under an exact recorded schedule (trace replay).
pub(crate) fn run_trace<F: Fn()>(trace: Vec<u32>, max_steps: u64, f: F) -> ExecOutcome {
    let exec = Execution::from_trace(trace, max_steps);
    run_on(exec, f)
}

/// End-of-execution hooks (see [`register_execution_end_hook`]).
static END_HOOKS: Mutex<Vec<fn()>> = Mutex::new(Vec::new());

/// Registers `f` to run on the driver thread after every model execution
/// completes, *outside* any execution context. Instrumented crates use
/// this to purge per-execution thread-local state (e.g. the epoch
/// collector's participant record) so the next execution starts from an
/// identical state — lazily dropping such state inside the next
/// execution would shift its schedule-point count and break exact trace
/// replay. Registering the same function twice is a no-op.
pub fn register_execution_end_hook(f: fn()) {
    let mut hooks = END_HOOKS.lock().unwrap_or_else(|e| e.into_inner());
    if !hooks.contains(&f) {
        hooks.push(f);
    }
}

fn run_end_hooks() {
    let hooks: Vec<fn()> = END_HOOKS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    for h in hooks {
        h();
    }
}

fn run_on<F: Fn()>(exec: Arc<Execution>, f: F) -> ExecOutcome {
    assert!(
        cur().is_none(),
        "nested dst executions are not supported (check() inside check())"
    );
    // Start from a clean slate too: a prior execution on this thread may
    // have ended before hooks existed (first-time registration happens
    // lazily inside the body).
    run_end_hooks();
    let vtid = exec.register_thread();
    debug_assert_eq!(vtid, 0);
    set_ctx(exec.clone(), 0);
    let result = catch_unwind(AssertUnwindSafe(&f));
    clear_ctx();
    if let Err(payload) = result {
        handle_panic(&exec, payload);
    }
    exec.finish_thread(0);
    // Wait for stragglers (threads the model spawned but never joined,
    // or threads still unwinding after an abort).
    {
        let mut st = exec.lock_state();
        while st.unfinished > 0 {
            st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    let handles: Vec<_> = exec
        .handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let outcome = {
        let mut st = exec.lock_state();
        ExecOutcome {
            failure: st.failure.take(),
            trace: std::mem::take(&mut st.trace),
            steps: st.steps,
        }
    };
    // The context is cleared: hooks run in passthrough mode and cannot
    // perturb any schedule.
    run_end_hooks();
    outcome
}

// ---------------------------------------------------------------------------
// Tracked allocations
// ---------------------------------------------------------------------------

/// Allocation-tracking hooks. Instrumented reclamation (the vendored
/// `crossbeam-epoch` under its `dst` feature) reports allocation, free,
/// and dereference events here; a dereference of a freed pointer fails
/// the execution with a use-after-free diagnosis instead of touching the
/// memory. All hooks are no-ops outside a model execution.
pub mod alloc {
    use super::cur;

    /// Records `ptr` as a live tracked allocation (clears any stale
    /// freed record if the allocator reused the address).
    pub fn track_alloc(ptr: *const ()) {
        if let Some((exec, _)) = cur() {
            exec.alloc
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .freed
                .remove(&(ptr as usize));
        }
    }

    /// Records `ptr` as freed.
    pub fn track_free(ptr: *const ()) {
        if let Some((exec, _)) = cur() {
            exec.alloc
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .freed
                .insert(ptr as usize);
        }
    }

    /// Asserts `ptr` was not freed; panics (failing the execution) on a
    /// use-after-free. Call *before* dereferencing.
    pub fn check_deref(ptr: *const ()) {
        if let Some((exec, _)) = cur() {
            let freed = exec
                .alloc
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .freed
                .contains(&(ptr as usize));
            if freed {
                panic!(
                    "use-after-free: dereferenced {ptr:p}, which epoch reclamation \
                     already freed while a guard could still reach it"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-execution global-state slots
// ---------------------------------------------------------------------------

static FALLBACK_SLOTS: OnceLock<Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>> =
    OnceLock::new();

/// Returns the per-execution instance of `T`, creating it with `init`
/// on first use. Process-global singletons (like the epoch collector's
/// state) route through this under model builds so every execution
/// starts from pristine state — the isolation that makes schedules
/// replayable. Outside an execution a process-wide fallback instance is
/// returned.
pub fn exec_slot<T: Send + Sync + 'static>(init: fn() -> T) -> Arc<T> {
    let slots = match cur() {
        Some((exec, _)) => {
            let mut map = exec.slots.lock().unwrap_or_else(|e| e.into_inner());
            return slot_from(&mut map, init);
        }
        None => FALLBACK_SLOTS.get_or_init(|| Mutex::new(HashMap::new())),
    };
    let mut map = slots.lock().unwrap_or_else(|e| e.into_inner());
    slot_from(&mut map, init)
}

fn slot_from<T: Send + Sync + 'static>(
    map: &mut HashMap<TypeId, Arc<dyn Any + Send + Sync>>,
    init: fn() -> T,
) -> Arc<T> {
    let entry = map
        .entry(TypeId::of::<T>())
        .or_insert_with(|| Arc::new(init()) as Arc<dyn Any + Send + Sync>);
    entry
        .clone()
        .downcast::<T>()
        .expect("exec_slot type confusion")
}

/// The current execution's id (0 outside executions). Diagnostics only.
pub fn execution_id() -> u64 {
    cur().map(|(e, _)| e.id).unwrap_or(0)
}
