//! The wire client: a closed loop that keeps a fixed number of request
//! frames outstanding per connection, checks every response for status,
//! id and inode number, and times each frame from send to response
//! decoded. Used by `serve_mix` as its load, and by the traced run of
//! every workload as the `server` / `server.proto` probe over that
//! workload's own tree.

use crate::drive::{Actor, Class, StepCtx, StepOut};
use crate::rng::Rng;
use crate::world::World;
use dc_server::proto::{
    decode_response_frame, encode_request_frame, ReqBody, Request, RespBody, Response, Status,
};
use dc_server::Connection;
use dc_sighash::Signature;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Frames each connection keeps outstanding.
pub const FRAMES_OUTSTANDING: usize = 8;
/// Request/response frame pairs kept for the `server.proto` replay.
const KEPT_FRAMES: usize = 512;

/// A file the client asks about.
struct FileTarget {
    /// Index in `World::files`.
    file: u32,
    path: String,
    ino: u64,
    sig: Signature,
}

/// A directory the client lists, and what the listing must add up to.
struct DirTarget {
    path: String,
    entries: usize,
    ino_sum: u64,
}

/// What the client asks about: files (by path and by signature),
/// directories, and signatures no path has ever published.
pub struct ServeTargets {
    files: Vec<FileTarget>,
    dirs: Vec<DirTarget>,
    stale: Vec<Signature>,
}

impl ServeTargets {
    /// Resolves `files` and `dirs` of `world` once — which also warms the
    /// caches, as a client's first pass over its working set would — and
    /// records the expected answers.
    pub fn new(world: &World, files: &[u32], dirs: &[u32], seed: u64) -> ServeTargets {
        let k = &world.kernel;
        let root = world.root();
        let key = &k.dcache.key;
        let hash = |path: &str| {
            key.hash_components(path.split('/').filter(|c| !c.is_empty()).map(str::as_bytes))
        };
        let files = files
            .iter()
            .map(|&f| {
                let rec = &world.files[f as usize];
                // A baseline kernel publishes no signatures; the hash of
                // the path is what an optimized one would have returned.
                let sig = k
                    .path_signature(root, &rec.path)
                    .unwrap_or_else(|_| hash(&rec.path));
                FileTarget {
                    file: f,
                    path: rec.path.clone(),
                    ino: rec.ino,
                    sig,
                }
            })
            .collect();
        let dirs = dirs
            .iter()
            .map(|&d| {
                let path = world.dirs[d as usize].path.clone();
                let listing = k.list_dir(root, &path).expect("list served directory");
                DirTarget {
                    path,
                    entries: listing.len(),
                    ino_sum: listing.iter().map(|e| e.ino).sum(),
                }
            })
            .collect();
        let mut rng = Rng::new(seed).fork(0x57a1e);
        let stale = (0..64)
            .map(|i| hash(&format!("/zz-stale/{}{i}", rng.name(4, 8))))
            .collect();
        ServeTargets { files, dirs, stale }
    }
}

/// What a response record must say.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// `Ok` with this inode number (`Lookup`, `Stat`).
    Ino(u64),
    /// `LookupSig` on a live signature.
    SigIno(u64),
    /// `LookupSig` on a stale signature: `SigMiss`.
    SigMiss,
    /// `Readdir`: this many entries whose inode numbers sum to this.
    Dir(usize, u64),
}

/// One frame in flight.
struct Pending {
    conn: usize,
    sent: Instant,
    first_id: u64,
    expect: Vec<Expect>,
    /// `(op span, server.roundtrip span)` when the frame is traced.
    spans: Option<(u32, u32)>,
    /// The encoded request, kept for the `server.proto` replay.
    kept: Option<Vec<u8>>,
}

/// A kept request frame and its response.
pub struct FramePair {
    /// The encoded request frame.
    pub request: Vec<u8>,
    /// The response frame the server sent.
    pub response: Vec<u8>,
    /// Requests in the frame.
    pub requests: u32,
}

/// The closed-loop wire client.
pub struct ServeClient {
    targets: Arc<ServeTargets>,
    conns: Vec<Connection>,
    pending: VecDeque<Pending>,
    rng: Rng,
    next_id: u64,
    /// Whether `SigMiss` on a live signature is a failure. It is on
    /// `serve_mix`, whose tree fits; on a tree larger than the dcache a
    /// live signature may have been evicted, and the miss is the
    /// protocol's correct answer.
    strict_sig: bool,
    /// Frames each connection keeps outstanding.
    depth: usize,
    /// Fixed frame size instead of the 1/8/32 mix (the sweep probe).
    fixed_size: Option<usize>,
    spare: Vec<Vec<Expect>>,
    /// Frame pairs kept from traced steps.
    kept: Vec<FramePair>,
}

impl ServeClient {
    /// A client over `conns`, each kept [`FRAMES_OUTSTANDING`] deep.
    pub fn new(
        targets: Arc<ServeTargets>,
        conns: Vec<Connection>,
        seed: u64,
        strict_sig: bool,
    ) -> ServeClient {
        ServeClient {
            targets,
            conns,
            pending: VecDeque::new(),
            rng: Rng::new(seed).fork(0x400),
            next_id: 1,
            strict_sig,
            depth: FRAMES_OUTSTANDING,
            fixed_size: None,
            spare: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// One outstanding frame of exactly `size` requests per connection:
    /// the unloaded path, for the frame-size sweep and the ping.
    pub fn unloaded(mut self, size: usize) -> ServeClient {
        self.depth = 1;
        self.fixed_size = Some(size);
        self
    }

    fn send(&mut self, conn: usize, ctx: &mut StepCtx<'_>) {
        let ServeClient {
            targets,
            rng,
            next_id,
            spare,
            ..
        } = self;
        let t: &ServeTargets = targets;
        let size = self.fixed_size.unwrap_or_else(|| match rng.below(10) {
            0..=5 => 1,
            6..=8 => 8,
            _ => 32,
        });
        let mut expect = spare.pop().unwrap_or_default();
        expect.clear();
        let first_id = *next_id;
        *next_id += size as u64;
        let reqs: Vec<Request<'_>> = (0..size)
            .map(|i| {
                let r = rng.below(100);
                let f = &t.files[rng.below(t.files.len())];
                ctx.note(0, &f.path, Some(f.file));
                let (body, want) = if r < 50 {
                    if rng.below(50) == 0 {
                        let sig = t.stale[rng.below(t.stale.len())];
                        (ReqBody::LookupSig { sig }, Expect::SigMiss)
                    } else {
                        (ReqBody::LookupSig { sig: f.sig }, Expect::SigIno(f.ino))
                    }
                } else if r < 80 {
                    let body = ReqBody::Lookup {
                        path: &f.path,
                        want_sig: false,
                    };
                    (body, Expect::Ino(f.ino))
                } else if r < 95 {
                    (ReqBody::Stat { path: &f.path }, Expect::Ino(f.ino))
                } else {
                    let d = &t.dirs[rng.below(t.dirs.len())];
                    (
                        ReqBody::Readdir { path: &d.path },
                        Expect::Dir(d.entries, d.ino_sum),
                    )
                };
                expect.push(want);
                Request {
                    id: first_id + i as u64,
                    cred: 1,
                    body,
                }
            })
            .collect();
        let frame = ctx.call("client.encode", || encode_request_frame(&reqs));
        let traced = ctx.op.is_some();
        if let (Some(tr), true) = (&mut ctx.tracer, traced) {
            // Per-request numbers divide by the requests encoded.
            tr.spans.last_mut().expect("the encode span").n = size as u32;
        }
        let kept = (traced && self.kept.len() < KEPT_FRAMES).then(|| frame.clone());
        let spans = match (&mut ctx.tracer, ctx.op) {
            (Some(tr), Some((op_id, op_span))) => {
                Some((op_span, tr.open("server.roundtrip", Some(op_span), op_id)))
            }
            _ => None,
        };
        let sent = Instant::now();
        self.conns[conn].send_frame(frame);
        self.pending.push_back(Pending {
            conn,
            sent,
            first_id,
            expect,
            spans,
            kept,
        });
    }

    fn complete(
        &mut self,
        p: Pending,
        mut tracer: Option<&mut crate::span::Tracer>,
    ) -> (StepOut, usize) {
        let frame = self.conns[p.conn].recv_frame();
        if let (Some(tr), Some((_, rt))) = (&mut tracer, p.spans) {
            tr.close(rt);
        }
        let decoded = match (&mut tracer, p.spans) {
            (Some(tr), Some((op, _))) => {
                let op_id = tr.spans[op as usize].op_id;
                let rf = tr.span("client.decode", Some(op), op_id, || {
                    decode_response_frame(&frame)
                });
                tr.spans.last_mut().expect("the decode span").n = p.expect.len() as u32;
                rf
            }
            _ => decode_response_frame(&frame),
        };
        let done = Instant::now();
        if let (Some(tr), Some((op, _))) = (&mut tracer, p.spans) {
            tr.close(op);
        }
        let n = p.expect.len();
        let failed = match &decoded {
            Some(rf) if rf.frame_status == 0 && rf.records.len() == n => rf
                .records
                .iter()
                .zip(&p.expect)
                .enumerate()
                .filter(|(i, (r, want))| !self.admits(r, **want, p.first_id + *i as u64))
                .count(),
            // Shed, malformed, or short: every request in it failed.
            _ => n,
        };
        if let Some(request) = p.kept {
            self.kept.push(FramePair {
                request,
                response: frame,
                requests: n as u32,
            });
        }
        let rtt = (done - p.sent).as_nanos() as u64;
        self.spare.push(p.expect);
        let out = StepOut {
            class: Class::Frame,
            also: (n == 1).then_some(Class::Lookup),
            ops: n as u32,
            failed: failed as u32,
            units: 1,
            timed: Some((rtt, done)),
        };
        (out, p.conn)
    }

    fn admits(&self, r: &Response, want: Expect, id: u64) -> bool {
        if r.id != id {
            return false;
        }
        match (want, r.status, &r.body) {
            (Expect::Ino(ino), Status::Ok, RespBody::Lookup { ino: got, .. }) => *got == ino,
            (Expect::Ino(ino), Status::Ok, RespBody::Stat { attr }) => attr.ino == ino,
            (Expect::SigIno(ino), Status::Ok, RespBody::Lookup { ino: got, .. }) => *got == ino,
            (Expect::SigIno(_), Status::SigMiss, _) => !self.strict_sig,
            (Expect::SigMiss, Status::SigMiss, _) => true,
            (Expect::Dir(n, sum), Status::Ok, RespBody::Readdir { entries }) => {
                entries.len() == n && entries.iter().map(|e| e.0).sum::<u64>() == sum
            }
            _ => false,
        }
    }
}

impl Actor for ServeClient {
    /// Completes the oldest frame in flight and sends the next one on
    /// the same connection. One worker serves frames in submission
    /// order, so the oldest frame is the next to come back.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut {
        while self.pending.len() < self.conns.len() * self.depth {
            let conn = self.pending.len() % self.conns.len();
            self.send(conn, &mut StepCtx::default());
        }
        let p = self.pending.pop_front().expect("frames in flight");
        let (out, conn) = self.complete(p, ctx.tracer.as_deref_mut());
        self.send(conn, ctx);
        out
    }

    /// Receives every frame still in flight, so the server is idle when
    /// the client goes away.
    fn finish(&mut self) {
        while let Some(p) = self.pending.pop_front() {
            self.complete(p, None);
        }
    }

    fn kept_frames(&mut self) -> Vec<FramePair> {
        std::mem::take(&mut self.kept)
    }
}

/// Replays kept frames outside the server: `decode_request_frame` on the
/// request bytes, and the same requests as direct kernel calls.
pub fn replay_frames(world: &World, kept: &[FramePair], tr: &mut crate::span::Tracer) {
    use dc_server::proto::{decode_request_frame, DecodedFrame, Op, FLAG_WANT_SIG, SIG_BYTES};
    let k = &world.kernel;
    let proc = world.root();
    for pair in kept {
        let decoded = tr.replay("server.proto.decode_req", 0, pair.requests, || {
            decode_request_frame(&pair.request)
        });
        let DecodedFrame::Batch(reqs) = decoded else {
            continue;
        };
        tr.replay("server.direct_exec", 0, pair.requests, || {
            for r in &reqs {
                let path = std::str::from_utf8(r.arg).unwrap_or("");
                match Op::from_u8(r.op) {
                    Some(Op::Lookup) => {
                        let want_sig = r.flags & FLAG_WANT_SIG != 0;
                        let _ = std::hint::black_box(k.lookup_path(proc, path, want_sig));
                    }
                    Some(Op::Stat) => {
                        let _ = std::hint::black_box(k.stat_path(proc, path));
                    }
                    Some(Op::Readdir) => {
                        let _ = std::hint::black_box(k.list_dir(proc, path));
                    }
                    Some(Op::LookupSig) if r.arg.len() == SIG_BYTES => {
                        let mut lanes = [0u64; 4];
                        for (lane, b) in lanes.iter_mut().zip(r.arg.chunks_exact(8)) {
                            *lane = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                        }
                        std::hint::black_box(k.lookup_sig(proc, &Signature::from_wire(lanes)));
                    }
                    _ => {}
                }
            }
        });
    }
}

/// Median unloaded round-trip time — one connection, one outstanding
/// frame — at each of the frame sizes 1, 8 and 32.
pub fn unloaded_rtts(
    server: &dc_server::Server,
    targets: &Arc<ServeTargets>,
    seed: u64,
    strict_sig: bool,
) -> [(f64, f64); 3] {
    const WARM: usize = 300;
    const FRAMES: usize = 2000;
    [1usize, 8, 32].map(|size| {
        let mut client =
            ServeClient::new(targets.clone(), vec![server.connect()], seed, strict_sig)
                .unloaded(size);
        let mut rtts = Vec::with_capacity(FRAMES);
        for i in 0..WARM + FRAMES {
            let out = client.step(&mut StepCtx::default());
            if let (Some((ns, _)), true) = (out.timed, i >= WARM) {
                rtts.push(ns as f64);
            }
        }
        client.finish();
        (size as f64, crate::stats::median(&rtts))
    })
}

/// What the server's own per-worker histograms say, since their last
/// reset: `(queue_wait p50, batch_exec ns per request, decode ns per
/// frame, encode ns per frame)`.
pub fn worker_numbers(server: &dc_server::Server) -> (f64, f64, f64, f64) {
    let merged = dc_server::WorkerHists::default();
    for w in server.worker_hists() {
        for (m, h) in merged.per_op.iter().zip(&w.per_op) {
            m.merge_from(h);
        }
        merged.decode.merge_from(&w.decode);
        merged.encode.merge_from(&w.encode);
        merged.batch_exec.merge_from(&w.batch_exec);
        merged.queue_wait.merge_from(&w.queue_wait);
    }
    let requests: u64 = merged.per_op.iter().map(|h| h.count()).sum();
    let exec_total = merged.batch_exec.mean() * merged.batch_exec.count() as f64;
    (
        merged.queue_wait.percentile(0.5) as f64,
        if requests == 0 {
            0.0
        } else {
            exec_total / requests as f64
        },
        merged.decode.mean(),
        merged.encode.mean(),
    )
}
