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

use crate::proto::{
    self, DecodedFrame, DecodedReq, Op, RespWriter, Status, STATUS_BAD_VERSION, STATUS_OVERLOADED,
};
use crate::stats::{ServeMetrics, ServeStats, WorkerHists};
use crate::transport::{read_frame, write_frame, DuplexEnd};
use dc_fs::{DirEntry, InodeAttr};
use dc_obs::TraceEvent;
use dc_sighash::Signature;
use dc_vfs::{FileType, Kernel, Process, SigLookup};
use dcache_core::{MemoryGate, Verdict};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Longest path argument accepted (matches `PATH_MAX`).
const MAX_PATH_ARG: usize = 4096;

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
    enqueued: Instant,
}

/// Per-connection response mailbox.
struct ConnShared {
    responses: Mutex<VecDeque<Vec<u8>>>,
    ready: Condvar,
}

impl ConnShared {
    fn push(&self, frame: Vec<u8>) {
        self.responses.lock().unwrap().push_back(frame);
        self.ready.notify_all();
    }

    fn pop(&self) -> Vec<u8> {
        let mut q = self.responses.lock().unwrap();
        while q.is_empty() {
            q = self.ready.wait(q).unwrap();
        }
        q.pop_front().unwrap()
    }
}

struct Inner {
    kernel: Arc<Kernel>,
    config: ServerConfig,
    gate: Option<MemoryGate>,
    stats: Arc<ServeStats>,
    worker_hists: Vec<Arc<WorkerHists>>,
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
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
        self.shared.pop()
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
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
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
        self.inner.creds.write().unwrap().insert(cred_id, proc);
    }

    /// Opens an in-process connection.
    pub fn connect(&self) -> Connection {
        self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.conns.fetch_add(1, Ordering::Relaxed);
        self.inner.kernel.obs().event(|| TraceEvent::ServeConn);
        Connection {
            shared: Arc::new(ConnShared {
                responses: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            }),
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
            let mut q = self.inner.queue.lock().unwrap();
            if self.inner.shutdown.swap(true, Ordering::SeqCst) {
                return;
            }
            q.drain(..).collect()
        };
        for job in drained {
            self.inner.reject(&job.conn, &job.frame);
        }
        self.inner.queue_ready.notify_all();
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
        {
            let mut q = self.queue.lock().unwrap();
            // Re-checked under the lock: shutdown() sets the flag and
            // drains while holding it, so a frame enqueued here is
            // either seen by that drain or rejected right now — never
            // stranded in the queue with no worker left to answer it.
            if self.shutdown.load(Ordering::SeqCst) || q.len() >= self.config.queue_depth {
                drop(q);
                self.reject(conn, &frame);
                return;
            }
            q.push_back(Job {
                conn: conn.clone(),
                frame,
                enqueued: Instant::now(),
            });
        }
        self.queue_ready.notify_one();
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
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    q = self.queue_ready.wait(q).unwrap();
                }
            };
            hists
                .queue_wait
                .record(job.enqueued.elapsed().as_nanos() as u64);
            let resp = self.process_frame(&job.frame, hists);
            job.conn.push(resp);
        }
    }

    fn process_frame(&self, frame: &[u8], hists: &WorkerHists) -> Vec<u8> {
        let t = Instant::now();
        let decoded = proto::decode_request_frame(frame);
        hists.decode.record(t.elapsed().as_nanos() as u64);
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

        // Execute the whole batch under one epoch pin: per-lookup pins
        // inside the kernel collapse to a nesting bump.
        let t = Instant::now();
        let results: Vec<(u64, u8, ExecResult)> = {
            let _pin = self.kernel.dcache.pin();
            reqs.iter()
                .map(|r| (r.id, r.op, self.execute(r, hists)))
                .collect()
        };
        hists.batch_exec.record(t.elapsed().as_nanos() as u64);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .requests
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let ops = reqs.len() as u32;
        self.kernel.obs().event(|| TraceEvent::ServeBatch { ops });

        let t = Instant::now();
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
        let resp = if too_big {
            self.stats.resp_too_big.fetch_add(1, Ordering::Relaxed);
            RespWriter::new(Status::TooBig.code()).finish()
        } else {
            w.finish()
        };
        hists.encode.record(t.elapsed().as_nanos() as u64);
        resp
    }

    fn execute(&self, req: &DecodedReq<'_>, hists: &WorkerHists) -> ExecResult {
        let Some(op) = Op::from_u8(req.op) else {
            return ExecResult::Status(Status::BadOp);
        };
        self.stats.per_op[op].fetch_add(1, Ordering::Relaxed);
        let Some(proc) = self.creds.read().unwrap().get(&req.cred).cloned() else {
            return ExecResult::Status(Status::BadCred);
        };
        match op {
            Op::Lookup | Op::Stat | Op::Readdir => {
                if req.arg.len() > MAX_PATH_ARG {
                    return ExecResult::Status(Status::TooBig);
                }
                let Ok(path) = std::str::from_utf8(req.arg) else {
                    return ExecResult::Status(Status::BadRequest);
                };
                let t = Instant::now();
                let out = match op {
                    Op::Lookup => {
                        let want_sig = req.flags & proto::FLAG_WANT_SIG != 0;
                        match self.kernel.lookup_path(&proc, path, want_sig) {
                            Ok(r) => ExecResult::Lookup {
                                ino: r.ino,
                                ftype: r.ftype,
                                sig: r.sig,
                            },
                            Err(e) => ExecResult::Status(Status::Fs(e)),
                        }
                    }
                    Op::Stat => match self.kernel.stat_path(&proc, path) {
                        Ok(attr) => ExecResult::Stat(attr),
                        Err(e) => ExecResult::Status(Status::Fs(e)),
                    },
                    Op::Readdir => match self.kernel.list_dir(&proc, path) {
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
                };
                hists.per_op[op.idx()].record(t.elapsed().as_nanos() as u64);
                out
            }
            Op::LookupSig => {
                if req.arg.len() != proto::SIG_BYTES {
                    return ExecResult::Status(Status::BadRequest);
                }
                let mut lanes = [0u64; 4];
                for (i, lane) in lanes.iter_mut().enumerate() {
                    let b = &req.arg[i * 8..i * 8 + 8];
                    *lane = u64::from_le_bytes(b.try_into().unwrap());
                }
                let sig = Signature::from_wire(lanes);
                let t = Instant::now();
                let out = match self.kernel.lookup_sig(&proc, &sig) {
                    SigLookup::Hit(r) => ExecResult::LookupSig {
                        ino: r.ino,
                        ftype: r.ftype,
                    },
                    SigLookup::Neg(e) => ExecResult::Status(Status::Fs(e)),
                    SigLookup::Miss => {
                        self.stats.sig_miss.fetch_add(1, Ordering::Relaxed);
                        ExecResult::Status(Status::SigMiss)
                    }
                };
                hists.per_op[op.idx()].record(t.elapsed().as_nanos() as u64);
                out
            }
        }
    }
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
    Readdir(Vec<DirEntry>),
}
