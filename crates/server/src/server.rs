//! The batched metadata server: a bounded submission queue feeding a
//! worker pool that executes whole frames against the kernel.
//!
//! # Batch = epoch pin
//!
//! Each worker pins the reclamation epoch **once per frame** — an
//! ordinary outermost [`dcache_core::Dcache::pin`] — and executes every
//! request in the batch under that guard; the per-lookup pins inside
//! the kernel nest under it, a thread-local count bump that is neither
//! fenced nor accounted. At batch size 64 this amortizes the pin (and
//! its stats/trace accounting) 64×, which is what carries the service
//! past 1M lookups/s on a single core. The pin spans only the batch — workers unpin between frames, so grace
//! periods stay short even under sustained load.
//!
//! # Admission control
//!
//! Submission is where load is shed, *before* any decoding:
//!
//! - the submission queue is bounded (`queue_depth`); a full queue
//!   rejects the frame with a typed `Overloaded` response rather than
//!   blocking the client's submit path, and
//! - an optional [`MemoryGate`] trips when the kernel's reclaimable
//!   footprint exceeds its budget. On the trip *edge* exactly one
//!   submitter triggers [`Kernel::memory_pressure`] (guarded by a CAS
//!   so concurrent submitters keep shedding instead of piling onto the
//!   reclaim); the gate re-opens once the footprint falls below its
//!   low-water mark. The server never stalls and never panics under
//!   pressure — it sheds, reclaims, and recovers.
//!
//! # Wakeups
//!
//! Frames reach the workers and responses reach the clients through one
//! kind of queue, `Fifo`. A popper that finds it empty spins for a
//! bounded time before it sleeps, and a push signals the condvar only
//! when a thread sleeps on it: a push that lands during the spin, a busy
//! worker, or a client that has not yet asked for its response costs
//! neither side a system call.
//!
//! # Timing
//!
//! With observability off, one frame in [`TIMED_EVERY`] is timed, stage
//! by stage; the others read no clock. With the kernel's recorder on,
//! every frame is. The submitter decides, so a frame's queue wait is
//! timed exactly when its stages are. Counters count every frame.

use crate::admission::{MemoryGate, Verdict};
use crate::proto::{
    self, DecodedFrame, DecodedReq, Op, RespWriter, Status, STATUS_BAD_VERSION, STATUS_OVERLOADED,
};
use crate::stats::{ServeMetrics, ServeStats, WorkerHists};
use crate::transport::{read_frame, write_frame, DuplexEnd};
use dc_fs::{DirEntry, InodeAttr};
use dc_obs::{LatencyHist, TraceEvent};
use dc_sighash::Signature;
use dc_vfs::{FileType, Kernel, Process, SigLookup};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest path argument accepted (matches `PATH_MAX`).
const MAX_PATH_ARG: usize = 4096;

/// With observability off, one submitted frame in this many is timed
/// (the benchmark harness's `SAMPLE_EVERY` idiom).
pub const TIMED_EVERY: u64 = 8;

/// How long a popper spins on an empty queue before it parks: about one
/// futex park/unpark round trip on the 2-vCPU host it was sized on
/// (DESIGN.md §12.5). Bounded by the clock, not by an iteration count,
/// because a `spin_loop` iteration costs ~10× more on some CPUs than on
/// others.
const SPIN: Duration = Duration::from_micros(20);

/// Spin iterations between two clock reads.
const SPIN_CHECK_EVERY: u32 = 32;

/// [`SPIN`], or zero on a host with one CPU, where a spinning popper
/// would only hold the CPU its pusher needs.
fn spin_budget() -> Duration {
    static BUDGET: OnceLock<Duration> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus > 1 {
            SPIN
        } else {
            Duration::ZERO
        }
    })
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Submission-queue bound; frames beyond it are shed.
    pub queue_depth: usize,
    /// Memory budget for the admission gate; `None` disables it.
    pub mem_budget_bytes: Option<u64>,
    /// Largest request frame accepted.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_depth: 256,
            mem_budget_bytes: None,
            max_frame_bytes: proto::MAX_FRAME_BYTES,
        }
    }
}

/// A frame waiting for a worker.
struct Job {
    conn: Arc<ConnShared>,
    frame: Vec<u8>,
    /// When it was queued, if this frame is timed.
    enqueued: Option<Instant>,
}

/// Per-connection response mailbox.
type ConnShared = Fifo<Vec<u8>>;

/// A FIFO whose poppers spin, then park, and whose condvar is signalled
/// only when a thread waits on it.
///
/// std's Linux `Condvar` makes every `notify_*` a futex-wake system
/// call, whether or not a thread sleeps on it. A waiter counts itself in
/// `waiting` under the mutex it then waits with, so a push that sees no
/// waiter may skip the call: a thread not yet counted takes that mutex
/// and re-checks the queue before it sleeps, and so finds the item.
///
/// Before it counts itself, a popper spins for up to `spin` on `len`, a
/// copy of the queue length published under the mutex. The hint only
/// says when to look: the item itself is taken under the mutex, so a
/// stale hint costs one look.
struct Fifo<T> {
    state: Mutex<FifoState<T>>,
    ready: Condvar,
    len: AtomicUsize,
    spin: Duration,
}

struct FifoState<T> {
    items: VecDeque<T>,
    /// Threads inside `ready.wait` (or woken and not yet back in the
    /// lock).
    waiting: usize,
    /// Times a popper went to sleep on `ready`.
    parks: u64,
}

impl<T> Fifo<T> {
    fn new() -> Fifo<T> {
        Fifo::with_spin(spin_budget())
    }

    fn with_spin(spin: Duration) -> Fifo<T> {
        Fifo {
            state: Mutex::new(FifoState {
                items: VecDeque::new(),
                waiting: 0,
                parks: 0,
            }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
            spin,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FifoState<T>> {
        self.state
            .lock()
            .expect("a server thread panicked holding a queue lock")
    }

    fn push(&self, item: T) {
        self.push_locked(self.lock(), item);
    }

    /// Appends `item` under the caller's lock, then signals one waiter,
    /// if there is one, after releasing it.
    fn push_locked(&self, mut state: MutexGuard<'_, FifoState<T>>, item: T) {
        state.items.push_back(item);
        self.len.store(state.items.len(), Ordering::Relaxed);
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// The oldest item, spinning and then sleeping while there is none;
    /// `None` once the queue is empty and `stop()` holds.
    fn pop(&self, stop: impl Fn() -> bool) -> Option<T> {
        let mut state = self.lock();
        let mut spun = false;
        loop {
            if let Some(item) = state.items.pop_front() {
                self.len.store(state.items.len(), Ordering::Relaxed);
                return Some(item);
            }
            if stop() {
                return None;
            }
            if !spun && !self.spin.is_zero() {
                spun = true;
                drop(state);
                self.spin_until_pushed(&stop);
                state = self.lock();
                continue;
            }
            state.waiting += 1;
            state.parks += 1;
            state = self
                .ready
                .wait(state)
                .expect("a server thread panicked holding a queue lock");
            state.waiting -= 1;
        }
    }

    /// Returns once `len` shows an item, `stop()` holds, or `spin` has
    /// passed — without a system call.
    fn spin_until_pushed(&self, stop: &impl Fn() -> bool) {
        let start = Instant::now();
        loop {
            for _ in 0..SPIN_CHECK_EVERY {
                if self.len.load(Ordering::Relaxed) > 0 {
                    return;
                }
                std::hint::spin_loop();
            }
            if stop() || start.elapsed() >= self.spin {
                return;
            }
        }
    }
}

struct Inner {
    kernel: Arc<Kernel>,
    config: ServerConfig,
    gate: Option<MemoryGate>,
    stats: Arc<ServeStats>,
    worker_hists: Vec<Arc<WorkerHists>>,
    queue: Fifo<Job>,
    /// Frames queued so far: the count that picks the timed ones.
    queued: AtomicU64,
    creds: RwLock<HashMap<u16, Arc<Process>>>,
    shutdown: AtomicBool,
    /// Ensures only one submitter runs the shrinker per trip edge.
    shrink_in_flight: AtomicBool,
    next_conn: AtomicU64,
}

/// A client's handle on the server: frames go in via
/// [`send_frame`](Connection::send_frame), response frames come back
/// via [`recv_frame`](Connection::recv_frame). Every submitted frame
/// produces exactly one response frame (possibly a frame-level
/// rejection), in completion order.
pub struct Connection {
    shared: Arc<ConnShared>,
    inner: Arc<Inner>,
}

impl Connection {
    /// Submits an encoded request frame (admission control applies).
    pub fn send_frame(&self, frame: Vec<u8>) {
        self.inner.submit(&self.shared, frame);
    }

    /// Blocks for the next response frame.
    pub fn recv_frame(&self) -> Vec<u8> {
        self.shared
            .pop(|| false)
            .expect("a mailbox pop waits until a response arrives")
    }
}

/// The in-process metadata server. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) drains the queue with typed
/// rejections and joins the workers.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Builds the server, spawns its workers, and registers its metric
    /// source on the kernel (so `--metrics-out` exports and
    /// [`Kernel::reset_stats`] cover served traffic).
    pub fn start(kernel: Arc<Kernel>, config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let stats = Arc::new(ServeStats::default());
        let worker_hists: Vec<Arc<WorkerHists>> = (0..workers)
            .map(|_| Arc::new(WorkerHists::default()))
            .collect();
        kernel.register_metric_source(Arc::new(ServeMetrics::new(
            stats.clone(),
            worker_hists.clone(),
        )));
        let inner = Arc::new(Inner {
            gate: config.mem_budget_bytes.map(MemoryGate::new),
            kernel,
            stats,
            worker_hists: worker_hists.clone(),
            queue: Fifo::new(),
            queued: AtomicU64::new(0),
            creds: RwLock::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            shrink_in_flight: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            config,
        });
        let handles = worker_hists
            .iter()
            .map(|hists| {
                let inner = inner.clone();
                let hists = hists.clone();
                std::thread::spawn(move || inner.worker_loop(&hists))
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Maps a wire credential id to a server-side process (namespace,
    /// cwd, credentials). Requests naming an unregistered id get
    /// [`Status::BadCred`].
    pub fn register_cred(&self, cred_id: u16, proc: Arc<Process>) {
        self.inner
            .creds
            .write()
            .expect("a server thread panicked holding the credential table")
            .insert(cred_id, proc);
    }

    /// Opens an in-process connection.
    pub fn connect(&self) -> Connection {
        self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.conns.fetch_add(1, Ordering::Relaxed);
        self.inner.kernel.obs().event(|| TraceEvent::ServeConn);
        Connection {
            shared: Arc::new(Fifo::new()),
            inner: self.inner.clone(),
        }
    }

    /// Serves a byte stream (e.g. one end of
    /// [`duplex_pair`](crate::transport::duplex_pair)): a pump thread
    /// reads request frames, submits them, and writes each response
    /// frame back. One frame in flight per stream; clients wanting
    /// pipelining open several streams.
    pub fn serve_stream(&self, mut stream: DuplexEnd) -> JoinHandle<()> {
        let conn = self.connect();
        let max = self.inner.config.max_frame_bytes;
        std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut stream, max) {
                conn.send_frame(frame);
                let resp = conn.recv_frame();
                if write_frame(&mut stream, &resp).is_err() {
                    break;
                }
            }
        })
    }

    /// The server's counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.inner.stats
    }

    /// The admission gate, when one was configured.
    pub fn gate(&self) -> Option<&MemoryGate> {
        self.inner.gate.as_ref()
    }

    /// Per-worker histograms (merged views come from the kernel's
    /// metrics registry).
    pub fn worker_hists(&self) -> &[Arc<WorkerHists>] {
        &self.inner.worker_hists
    }

    /// Stops the workers: in-queue frames are rejected with typed
    /// `Overloaded` responses (no request is silently dropped), then
    /// the workers are joined.
    pub fn shutdown(&self) {
        // Flag and drain under the queue lock: any submit that takes
        // the lock afterwards sees the flag and rejects, so nothing can
        // slip into the queue once the drain has run.
        let drained: Vec<Job> = {
            let mut q = self.inner.queue.lock();
            if self.inner.shutdown.swap(true, Ordering::SeqCst) {
                return;
            }
            q.items.drain(..).collect()
        };
        for job in drained {
            self.inner.reject(&job.conn, &job.frame);
        }
        // Unconditional: the flag was set under the lock, so a worker
        // either saw it there or is asleep and must be woken to see it.
        self.inner.queue.ready.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    // --- submission / admission -----------------------------------------

    fn submit(&self, conn: &Arc<ConnShared>, frame: Vec<u8>) {
        if frame.len() > self.config.max_frame_bytes {
            self.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
            conn.push(RespWriter::new(Status::TooBig.code()).finish());
            return;
        }
        // Fast path only — the authoritative shutdown check happens
        // under the queue lock below, where it cannot race the drain.
        if self.shutdown.load(Ordering::SeqCst) {
            self.reject(conn, &frame);
            return;
        }
        if let Some(gate) = &self.gate {
            let kernel = &self.kernel;
            match gate.admit(|| kernel.dcache.reclaimable_bytes()) {
                Verdict::Admit => {}
                Verdict::Shed { just_tripped } => {
                    self.reject(conn, &frame);
                    if just_tripped {
                        self.reclaim(gate);
                    }
                    return;
                }
            }
        }
        let q = self.queue.lock();
        // Re-checked under the lock: shutdown() sets the flag and drains
        // while holding it, so a frame enqueued here is either seen by
        // that drain or rejected right now — never stranded in the queue
        // with no worker left to answer it.
        if self.shutdown.load(Ordering::SeqCst) || q.items.len() >= self.config.queue_depth {
            drop(q);
            self.reject(conn, &frame);
            return;
        }
        let timed = self.kernel.obs().is_enabled()
            || self
                .queued
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(TIMED_EVERY);
        let job = Job {
            conn: conn.clone(),
            frame,
            enqueued: timed.then(Instant::now),
        };
        self.queue.push_locked(q, job);
    }

    /// Typed frame-level rejection: no decode, an empty response frame
    /// with `frame_status = 32`. The client fails every request it
    /// packed into the frame with [`Status::Overloaded`].
    fn reject(&self, conn: &ConnShared, frame: &[u8]) {
        let ops = proto::peek_request_count(frame);
        self.stats.rejected_frames.fetch_add(1, Ordering::Relaxed);
        self.stats
            .rejected_requests
            .fetch_add(ops as u64, Ordering::Relaxed);
        self.kernel.obs().event(|| TraceEvent::ServeReject { ops });
        conn.push(RespWriter::new(STATUS_OVERLOADED).finish());
    }

    /// Runs the shrinker down to the gate's low-water mark. Exactly one
    /// submitter per trip edge gets here (the `just_tripped` edge), and
    /// the CAS keeps a re-trip from stacking a second shrink behind a
    /// still-running one.
    fn reclaim(&self, gate: &MemoryGate) {
        if self
            .shrink_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        self.kernel.memory_pressure(gate.low_water());
        self.shrink_in_flight.store(false, Ordering::Release);
    }

    // --- worker side -----------------------------------------------------

    fn worker_loop(&self, hists: &WorkerHists) {
        while let Some(job) = self.queue.pop(|| self.shutdown.load(Ordering::SeqCst)) {
            let timed = job.enqueued.map(|t| {
                hists.queue_wait.record(t.elapsed().as_nanos() as u64);
                hists
            });
            let resp = self.process_frame(&job.frame, timed);
            job.conn.push(resp);
        }
    }

    /// Decodes, executes and encodes one frame; `hists` is `Some` when
    /// the frame is timed.
    fn process_frame(&self, frame: &[u8], hists: Option<&WorkerHists>) -> Vec<u8> {
        let decoded = stage(hists.map(|h| &h.decode), || {
            proto::decode_request_frame(frame)
        });
        let reqs = match decoded {
            DecodedFrame::Batch(reqs) => reqs,
            DecodedFrame::BadVersion => {
                self.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                return RespWriter::new(STATUS_BAD_VERSION).finish();
            }
            DecodedFrame::Malformed => {
                self.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                return RespWriter::new(Status::BadRequest.code()).finish();
            }
        };

        // Execute the whole batch under one epoch pin, with one read of
        // the credential table: per-lookup pins inside the kernel
        // collapse to a nesting bump, and each request borrows its
        // process from the table.
        let results: Vec<(u64, u8, ExecResult)> = stage(hists.map(|h| &h.batch_exec), || {
            let creds = self
                .creds
                .read()
                .expect("a server thread panicked holding the credential table");
            let _pin = self.kernel.dcache.pin();
            reqs.iter()
                .map(|r| (r.id, r.op, self.execute(r, &creds, hists)))
                .collect()
        });
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .requests
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let ops = reqs.len() as u32;
        self.kernel.obs().event(|| TraceEvent::ServeBatch { ops });

        stage(hists.map(|h| &h.encode), || self.encode(results))
    }

    /// The response frame for a batch's results.
    fn encode(&self, results: Vec<(u64, u8, ExecResult)>) -> Vec<u8> {
        let mut w = RespWriter::new(0);
        let mut too_big = false;
        for (id, op, result) in results {
            match result {
                ExecResult::Status(status) => {
                    if status != Status::Ok {
                        self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    w.push_status(id, status, op);
                }
                ExecResult::Lookup { ino, ftype, sig } => {
                    w.push_lookup(id, ino, ftype, sig.as_ref())
                }
                ExecResult::LookupSig { ino, ftype } => w.push_lookup_sig(id, ino, ftype),
                ExecResult::Stat(attr) => w.push_stat(id, &attr),
                ExecResult::Readdir(entries) => w.push_readdir(id, &entries),
            }
            // The peer reads responses under the same frame cap as
            // requests; a batch whose encoded response would blow it
            // (e.g. many near-cap readdirs) fails typed at the frame
            // level instead of poisoning the connection. Checked per
            // record so the overshoot stays bounded by one record.
            if w.encoded_len() > self.config.max_frame_bytes {
                too_big = true;
                break;
            }
        }
        if too_big {
            self.stats.resp_too_big.fetch_add(1, Ordering::Relaxed);
            RespWriter::new(Status::TooBig.code()).finish()
        } else {
            w.finish()
        }
    }

    fn execute(
        &self,
        req: &DecodedReq<'_>,
        creds: &HashMap<u16, Arc<Process>>,
        hists: Option<&WorkerHists>,
    ) -> ExecResult {
        let Some(op) = Op::from_u8(req.op) else {
            return ExecResult::Status(Status::BadOp);
        };
        self.stats.per_op[op].fetch_add(1, Ordering::Relaxed);
        let Some(proc) = creds.get(&req.cred) else {
            return ExecResult::Status(Status::BadCred);
        };
        let timed = hists.map(|h| &h.per_op[op.idx()]);
        match op {
            Op::Lookup | Op::Stat | Op::Readdir => {
                if req.arg.len() > MAX_PATH_ARG {
                    return ExecResult::Status(Status::TooBig);
                }
                let Ok(path) = std::str::from_utf8(req.arg) else {
                    return ExecResult::Status(Status::BadRequest);
                };
                stage(timed, || match op {
                    Op::Lookup => {
                        let want_sig = req.flags & proto::FLAG_WANT_SIG != 0;
                        match self.kernel.lookup_path(proc, path, want_sig) {
                            Ok(r) => ExecResult::Lookup {
                                ino: r.ino,
                                ftype: r.ftype,
                                sig: r.sig,
                            },
                            Err(e) => ExecResult::Status(Status::Fs(e)),
                        }
                    }
                    Op::Stat => match self.kernel.stat_path(proc, path) {
                        Ok(attr) => ExecResult::Stat(attr),
                        Err(e) => ExecResult::Status(Status::Fs(e)),
                    },
                    Op::Readdir => match self.kernel.readdir_path(proc, path) {
                        Ok(entries) => {
                            // The encoded body (2 + Σ(10 + name_len))
                            // must fit the u16 body_len — bounding the
                            // entry count alone is not enough.
                            if proto::readdir_wire_len(&entries) > u16::MAX as usize
                                || entries.iter().any(|e| e.name.len() > 255)
                            {
                                ExecResult::Status(Status::TooBig)
                            } else {
                                ExecResult::Readdir(entries)
                            }
                        }
                        Err(e) => ExecResult::Status(Status::Fs(e)),
                    },
                    Op::LookupSig => unreachable!(),
                })
            }
            Op::LookupSig => {
                let sig = match proto::get_sig(req.arg, &mut 0) {
                    Some(sig) if req.arg.len() == proto::SIG_BYTES => sig,
                    _ => return ExecResult::Status(Status::BadRequest),
                };
                stage(timed, || match self.kernel.lookup_sig(proc, &sig) {
                    SigLookup::Hit(r) => ExecResult::LookupSig {
                        ino: r.ino,
                        ftype: r.ftype,
                    },
                    SigLookup::Neg(e) => ExecResult::Status(Status::Fs(e)),
                    SigLookup::Miss => {
                        self.stats.sig_miss.fetch_add(1, Ordering::Relaxed);
                        ExecResult::Status(Status::SigMiss)
                    }
                })
            }
        }
    }
}

/// Runs `f`, and records how long it took into `hist` when there is one:
/// an untimed frame's stages read no clock.
fn stage<T>(hist: Option<&LatencyHist>, f: impl FnOnce() -> T) -> T {
    let Some(hist) = hist else {
        return f();
    };
    let t = Instant::now();
    let out = f();
    hist.record(t.elapsed().as_nanos() as u64);
    out
}

/// Kernel-side result of one request, before encoding.
enum ExecResult {
    Status(Status),
    Lookup {
        ino: u64,
        ftype: FileType,
        sig: Option<Signature>,
    },
    LookupSig {
        ino: u64,
        ftype: FileType,
    },
    Stat(InodeAttr),
    /// The listing as the kernel handed it out: a complete directory's
    /// published block, encoded in place.
    Readdir(Arc<Vec<DirEntry>>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response_frame, encode_request_frame, ReqBody, Request};
    use dc_vfs::KernelBuilder;
    use dcache_core::DcacheConfig;

    /// Returns once `n` threads have counted themselves waiting on `fifo`.
    fn until_waiting<T>(fifo: &Fifo<T>, n: usize) {
        while fifo.lock().waiting < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn pushes_wake_every_thread_already_waiting() {
        let fifo = Arc::new(Fifo::new());
        let poppers: Vec<_> = (0..2)
            .map(|_| {
                let fifo = fifo.clone();
                std::thread::spawn(move || fifo.pop(|| false))
            })
            .collect();
        until_waiting(&fifo, 2);
        fifo.push(1);
        fifo.push(2);
        let mut got: Vec<u32> = poppers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
    }

    #[test]
    fn an_item_pushed_with_no_waiter_is_popped_and_stop_ends_an_empty_pop() {
        let fifo = Fifo::new();
        fifo.push(7);
        assert_eq!(fifo.lock().waiting, 0);
        assert_eq!(fifo.pop(|| true), Some(7), "items drain before stop");
        assert_eq!(fifo.pop(|| true), None);
    }

    #[test]
    fn a_push_during_the_spin_is_delivered_without_a_park() {
        let fifo = Arc::new(Fifo::with_spin(Duration::from_secs(60)));
        let popper = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.pop(|| false))
        };
        // Time for the popper to reach its spin; one that has not yet
        // begun its pop finds the item at once and parks no more.
        std::thread::sleep(Duration::from_millis(20));
        fifo.push(5);
        assert_eq!(popper.join().unwrap(), Some(5));
        assert_eq!(fifo.lock().parks, 0);
    }

    /// CI runs this suite under `taskset -c 0` as well, where it checks
    /// the one-CPU rule.
    #[test]
    fn queues_spin_only_with_a_second_cpu() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Fifo::<u8>::new().spin.is_zero(), cpus == 1);
    }

    #[test]
    fn a_popper_whose_spin_expires_parks_and_the_next_push_wakes_it() {
        let fifo = Arc::new(Fifo::with_spin(Duration::from_millis(1)));
        let popper = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.pop(|| false))
        };
        until_waiting(&fifo, 1);
        fifo.push(9);
        assert_eq!(popper.join().unwrap(), Some(9));
        assert_eq!(fifo.lock().parks, 1);
    }

    /// A one-worker server with observability off, credential 1 the init
    /// process.
    fn one_worker() -> (Arc<Kernel>, Server) {
        let k = KernelBuilder::new(DcacheConfig::optimized())
            .build()
            .unwrap();
        let server = Server::start(
            k.clone(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        server.register_cred(1, k.init_process());
        (k, server)
    }

    fn stat_root(id: u64, cred: u16) -> Request<'static> {
        Request {
            id,
            cred,
            body: ReqBody::Stat { path: "/" },
        }
    }

    /// Sends one frame and returns its records' statuses.
    fn call(conn: &Connection, reqs: &[Request<'_>]) -> Vec<Status> {
        conn.send_frame(encode_request_frame(reqs));
        let frame = decode_response_frame(&conn.recv_frame()).unwrap();
        frame.records.iter().map(|r| r.status).collect()
    }

    #[test]
    fn a_frame_to_a_sleeping_worker_wakes_it_and_its_response_wakes_the_client() {
        let (_k, server) = one_worker();
        let conn = server.connect();
        until_waiting(&server.inner.queue, 1);
        std::thread::scope(|s| {
            let reply = s.spawn(|| conn.recv_frame());
            until_waiting(&conn.shared, 1);
            conn.send_frame(encode_request_frame(&[stat_root(1, 1)]));
            let frame = decode_response_frame(&reply.join().unwrap()).unwrap();
            assert_eq!(frame.records[0].status, Status::Ok);
        });
    }

    #[test]
    fn with_observability_off_one_frame_in_eight_is_timed_and_every_one_counted() {
        const FRAMES: u64 = 20;
        let (_k, server) = one_worker();
        let conn = server.connect();
        for id in 0..FRAMES {
            assert_eq!(call(&conn, &[stat_root(id, 1)]), [Status::Ok]);
        }
        let stats = server.stats();
        assert_eq!(stats.requests.load(Ordering::Relaxed), FRAMES);
        assert_eq!(stats.batches.load(Ordering::Relaxed), FRAMES);
        assert_eq!(stats.per_op[Op::Stat].load(Ordering::Relaxed), FRAMES);
        let h = &server.worker_hists()[0];
        let timed = FRAMES.div_ceil(TIMED_EVERY);
        for (stage, hist) in [
            ("queue_wait", &h.queue_wait),
            ("decode", &h.decode),
            ("batch_exec", &h.batch_exec),
            ("encode", &h.encode),
            ("stat", &h.per_op[Op::Stat.idx()]),
        ] {
            assert_eq!(hist.count(), timed, "{stage}");
        }
    }

    #[test]
    fn each_request_answers_by_its_own_credential_as_registered_at_its_frame() {
        let (k, server) = one_worker();
        let conn = server.connect();
        let frame = [stat_root(1, 1), stat_root(2, 2), stat_root(3, 1)];
        assert_eq!(
            call(&conn, &frame),
            [Status::Ok, Status::BadCred, Status::Ok]
        );
        server.register_cred(2, k.init_process());
        assert_eq!(call(&conn, &[stat_root(4, 2)]), [Status::Ok]);
    }
}
