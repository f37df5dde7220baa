//! `repro serve` — drives the batched metadata server (`dc-server`)
//! with a seeded in-process load generator and reports throughput and
//! per-op latency, the batch-size ablation, and the admission-control
//! (memory-gate) ablation.
//!
//! The generator simulates 64 closed-loop clients, each with its own
//! server connection. A round submits one encoded request frame per
//! client (so the submission queue stays deep), then collects and
//! decodes every response frame, verifying each record's status. The
//! hot phase uses the protocol's design-point mix — mostly
//! signature-keyed lookups over keys the clients learned during warmup
//! (skewed toward a hot set), a minority of path lookups — which is
//! what carries the service past 1M lookups/s on one core: one epoch
//! pin per 64-request batch, no parsing or hashing on the sig path.
//!
//! Phases: `pre` (steady state) → `pressure` (negative-dentry flood
//! grows the reclaimable footprint past the gate's budget; the gate
//! sheds with typed `Overloaded` rejections and runs the shrinker on
//! the trip edge) → re-warm (clients re-resolve, as real clients would
//! after `SigMiss`) → `post` (must recover to within 5% of `pre`).
//!
//! Results land in `BENCH_serve.json`. Returns `false` (→ exit 1) if
//! any request fails outside the planned rejection window, the server
//! misses the throughput floor, or recovery falls short.

use crate::report::{self, fields, Json, Stamp};
use crate::setup::kernel_with;
use crate::table::Table;
use dc_fault::SplitMix64;
use dc_server::proto::{Op, ReqBody, Request, RespBody, Status};
use dc_server::{Client, Server, ServerConfig, WorkerHists};
use dc_sighash::Signature;
use dc_vfs::{Kernel, OpenFlags, Process};
use dcache_core::DcacheConfig;
use std::sync::Arc;
use std::time::Instant;

/// Simulated clients (one connection each).
const CLIENTS: usize = 64;
/// Requests per frame in the main phases.
const BATCH: usize = 64;
/// Throughput floor for the hot phase, lookups per second.
const TARGET_LOOKUPS_PER_S: f64 = 1_000_000.0;
/// Fraction of requests that are signature-keyed in the hot mix.
const SIG_FRAC_NUM: u64 = 7; // 7/8 sig lookups, 1/8 path lookups
/// Generous per-request p99 ceiling for the smoke gate. Steady-state
/// p99s sit in the hundreds of nanoseconds; a millisecond means a
/// request stalled behind something pathological.
const P99_BOUND_NS: u64 = 1_000_000;

/// One phase's client-side tally.
#[derive(Debug, Default, Clone)]
struct Tally {
    ops: u64,
    ok: u64,
    rejected: u64,
    sig_miss: u64,
    /// Definitive negative answers (`NoEnt`) — the *expected* outcome
    /// of the pressure flood's stats of missing names.
    neg: u64,
    errors: u64,
    elapsed_s: f64,
}

impl Tally {
    fn mops(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.elapsed_s / 1e6
    }

    fn absorb(&mut self, resps: &[dc_server::Response]) {
        self.ops += resps.len() as u64;
        for r in resps {
            match r.status {
                Status::Ok => self.ok += 1,
                Status::Overloaded => self.rejected += 1,
                Status::SigMiss => self.sig_miss += 1,
                Status::Fs(dc_vfs::FsError::NoEnt) => self.neg += 1,
                _ => self.errors += 1,
            }
        }
    }
}

/// The provisioned service: kernel, server, per-client connections,
/// and the warmed path/signature table.
struct Rig {
    kernel: Arc<Kernel>,
    server: Server,
    clients: Vec<Client>,
    paths: Vec<String>,
    sigs: Vec<Signature>,
}

fn build_tree(kernel: &Arc<Kernel>, proc: &Arc<Process>, dirs: usize, files: usize) -> Vec<String> {
    let mut paths = Vec::with_capacity(dirs * files);
    for d in 0..dirs {
        kernel.mkdir(proc, &format!("/srv/d{d}"), 0o755).unwrap();
        for f in 0..files {
            let path = format!("/srv/d{d}/f{f}");
            let fd = kernel
                .open(proc, &path, OpenFlags::create(), 0o644)
                .unwrap();
            kernel.close(proc, fd).unwrap();
            paths.push(path);
        }
    }
    paths
}

fn provision(dirs: usize, files: usize, mem_budget: Option<u64>) -> Rig {
    let setup = kernel_with(DcacheConfig::optimized());
    let kernel = setup.kernel;
    kernel.mkdir(&setup.proc, "/srv", 0o755).unwrap();
    let paths = build_tree(&kernel, &setup.proc, dirs, files);
    let server = Server::start(
        kernel.clone(),
        ServerConfig {
            queue_depth: CLIENTS * 2,
            mem_budget_bytes: mem_budget,
            ..ServerConfig::default()
        },
    );
    server.register_cred(1, setup.proc.clone());
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::new(server.connect()))
        .collect();
    let mut rig = Rig {
        kernel,
        server,
        clients,
        paths,
        sigs: Vec::new(),
    };
    rig.warm();
    rig
}

impl Rig {
    /// Resolves every path through the server with `want_sig`,
    /// refreshing the signature table — the protocol's re-warm step
    /// after `SigMiss` (e.g. once the shrinker has run).
    fn warm(&mut self) {
        self.sigs.clear();
        for (i, chunk) in self.paths.chunks(BATCH).enumerate() {
            let client = &self.clients[i % CLIENTS];
            let reqs: Vec<Request<'_>> = chunk
                .iter()
                .enumerate()
                .map(|(j, p)| Request {
                    id: j as u64,
                    cred: 1,
                    body: ReqBody::Lookup {
                        path: p,
                        want_sig: true,
                    },
                })
                .collect();
            for r in client.call(&reqs) {
                let RespBody::Lookup { sig: Some(sig), .. } = r.body else {
                    panic!("warmup lookup failed: {r:?}");
                };
                self.sigs.push(sig);
            }
        }
        assert_eq!(self.sigs.len(), self.paths.len());
    }

    /// Runs the hot mix (skewed sig-keyed lookups + path lookups) for
    /// `duration_ms`, one frame of `batch` requests per client per round.
    fn run_hot(&self, batch: usize, duration_ms: u64, rng: &mut SplitMix64) -> Tally {
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut id = 0u64;
        loop {
            for client in &self.clients {
                let reqs: Vec<Request<'_>> = (0..batch)
                    .map(|_| {
                        let k = rng.skewed(self.paths.len());
                        id += 1;
                        let body = if rng.next_u64() % 8 < SIG_FRAC_NUM {
                            ReqBody::LookupSig { sig: self.sigs[k] }
                        } else {
                            ReqBody::Lookup {
                                path: &self.paths[k],
                                want_sig: false,
                            }
                        };
                        Request { id, cred: 1, body }
                    })
                    .collect();
                tally.absorb(&client.call(&reqs));
            }
            let elapsed = start.elapsed();
            if elapsed.as_millis() as u64 >= duration_ms {
                tally.elapsed_s = elapsed.as_secs_f64();
                return tally;
            }
        }
    }

    /// One mixed frame per client covering every op (latency samples
    /// for stat/readdir alongside the lookups).
    fn run_mixed(&self, rounds: usize, rng: &mut SplitMix64) -> Tally {
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut id = 0u64;
        for _ in 0..rounds {
            for client in &self.clients {
                let reqs: Vec<Request<'_>> = (0..BATCH)
                    .map(|_| {
                        let k = rng.skewed(self.paths.len());
                        id += 1;
                        let body = match rng.next_u64() % 4 {
                            0 => ReqBody::Stat {
                                path: &self.paths[k],
                            },
                            1 => ReqBody::Readdir {
                                path: &self.paths[k][..self.paths[k].rfind('/').unwrap()],
                            },
                            2 => ReqBody::Lookup {
                                path: &self.paths[k],
                                want_sig: false,
                            },
                            _ => ReqBody::LookupSig { sig: self.sigs[k] },
                        };
                        Request { id, cred: 1, body }
                    })
                    .collect();
                tally.absorb(&client.call(&reqs));
            }
        }
        tally.elapsed_s = start.elapsed().as_secs_f64();
        tally
    }

    /// Floods the cache with negative dentries (stats of unique missing
    /// names) until the reclaimable footprint exceeds `beyond` or the
    /// attempt cap is hit; returns the client-side tally (rejections
    /// expected once the gate trips).
    fn inflate(&self, beyond: u64, rng: &mut SplitMix64) -> Tally {
        let mut tally = Tally::default();
        let start = Instant::now();
        let mut n = rng.next_u64();
        'outer: for _ in 0..4096 {
            for client in &self.clients {
                let paths: Vec<String> = (0..BATCH)
                    .map(|_| {
                        n = n.wrapping_add(1);
                        format!("/srv/d0/missing-{n:x}")
                    })
                    .collect();
                let reqs: Vec<Request<'_>> = paths
                    .iter()
                    .enumerate()
                    .map(|(j, p)| Request {
                        id: j as u64,
                        cred: 1,
                        body: ReqBody::Stat { path: p },
                    })
                    .collect();
                tally.absorb(&client.call(&reqs));
                // Stop once the gate has demonstrably tripped and shed.
                if tally.rejected > 0 && self.server.gate().is_none_or(|g| g.trip_count() > 0) {
                    break 'outer;
                }
                if self.server.gate().is_none() && self.kernel.dcache.reclaimable_bytes() > beyond {
                    break 'outer;
                }
            }
        }
        tally.elapsed_s = start.elapsed().as_secs_f64();
        tally
    }

    /// Per-op latency summaries merged across the server's workers.
    fn op_hists(&self) -> Vec<(&'static str, dc_obs::HistSummary)> {
        let merged = WorkerHists::merged(self.server.worker_hists());
        let sampled = Op::ALL
            .iter()
            .map(|op| (op.key(), &merged.per_op[op.idx()]));
        sampled
            .filter(|(_, h)| h.count() > 0)
            .map(|(key, h)| (key, h.summary()))
            .collect()
    }
}

/// Entry point for `repro serve`. Returns `false` on failure.
pub fn serve(scale: crate::Scale, seed: u64) -> bool {
    let (dirs, files) = if scale.is_full() { (64, 64) } else { (32, 32) };
    let duration_ms = scale.duration_ms.max(60) * 4;
    let mut rng = SplitMix64::new(seed);

    println!(
        "serve: {CLIENTS} clients × batch {BATCH}, {} paths, seed {seed:#x}",
        dirs * files
    );

    // Gate budget: double the warmed footprint, so steady state never
    // sheds and the pressure phase must actively inflate to trip it.
    let probe = provision(dirs, files, None);
    let warmed_footprint = probe.kernel.dcache.reclaimable_bytes();
    drop(probe);
    let budget = warmed_footprint * 2;
    let mut rig = provision(dirs, files, Some(budget));

    // Latency samples for every op, then the measured phases.
    let mixed = rig.run_mixed(2, &mut rng);
    let pre = rig.run_hot(BATCH, duration_ms, &mut rng);
    let pressure = rig.inflate(budget, &mut rng);
    rig.warm(); // clients re-resolve after the shrinker ran
    let post = rig.run_hot(BATCH, duration_ms, &mut rng);

    let trips = rig.server.gate().map_or(0, |g| g.trip_count());
    let footprint_after = rig.kernel.dcache.reclaimable_bytes();
    let low_water = rig.server.gate().map_or(0, |g| g.low_water());

    // Batch-size ablation on a fresh un-gated rig (same tree, mix, and
    // skew; only the frame size varies).
    let abl_rig = provision(dirs, files, None);
    let mut ablation: Vec<(usize, f64)> = Vec::new();
    for batch in [1usize, 8, 64] {
        let t = abl_rig.run_hot(batch, duration_ms / 4, &mut rng);
        ablation.push((batch, t.mops()));
    }

    // Admission ablation: the same inflate flood without a gate — no
    // typed rejections, and the footprint keeps the flood's growth.
    let ungated = abl_rig.inflate(budget, &mut rng);
    let ungated_footprint = abl_rig.kernel.dcache.reclaimable_bytes();
    drop(abl_rig);

    let mut t = Table::new(&[
        "phase", "ops", "Mops/s", "ok", "rejected", "sig_miss", "neg", "errors",
    ]);
    let phases = [
        ("mixed", &mixed),
        ("pre", &pre),
        ("pressure", &pressure),
        ("post", &post),
    ];
    for (name, tl) in phases {
        t.row(vec![
            name.into(),
            tl.ops.to_string(),
            format!("{:.3}", tl.mops()),
            tl.ok.to_string(),
            tl.rejected.to_string(),
            tl.sig_miss.to_string(),
            tl.neg.to_string(),
            tl.errors.to_string(),
        ]);
    }
    t.print();

    let hists = rig.op_hists();
    let mut lt = Table::new(&["op", "count", "p50 ns", "p99 ns", "max ns"]);
    for (name, h) in &hists {
        lt.row(vec![
            (*name).into(),
            h.count.to_string(),
            h.p50_ns.to_string(),
            h.p99_ns.to_string(),
            h.max_ns.to_string(),
        ]);
    }
    lt.print();

    let mut at = Table::new(&["batch", "Mops/s"]);
    for (b, mops) in &ablation {
        at.row(vec![b.to_string(), format!("{mops:.3}")]);
    }
    at.print();

    let hit_target = pre.mops() * 1e6 >= TARGET_LOOKUPS_PER_S;
    let shed_typed = pressure.rejected > 0 && trips > 0;
    let reclaimed = footprint_after <= low_water;
    let recovered = post.mops() >= pre.mops() * 0.95;
    let clean = mixed.errors + pre.errors + pressure.errors + post.errors == 0
        && pre.rejected + post.rejected == 0
        && mixed.neg + pre.neg + post.neg == 0;
    let p99_ok = hists
        .iter()
        .all(|(_, h)| h.count == 0 || h.p99_ns <= P99_BOUND_NS);
    if !p99_ok {
        for (name, h) in &hists {
            if h.count > 0 && h.p99_ns > P99_BOUND_NS {
                eprintln!(
                    "serve: {name} p99 {} ns exceeds bound {P99_BOUND_NS} ns",
                    h.p99_ns
                );
            }
        }
    }
    let pass = hit_target && shed_typed && reclaimed && recovered && clean && p99_ok;
    println!(
        "serve: pre {:.3} Mops/s (target ≥1.0) | pressure: {} shed (typed), {} trips, \
         footprint {} → {} (low water {}) | post {:.3} Mops/s ({}) | \
         ungated flood: {} shed, footprint {} — {}",
        pre.mops(),
        pressure.rejected,
        trips,
        budget,
        footprint_after,
        low_water,
        post.mops(),
        if recovered { "recovered" } else { "DEGRADED" },
        ungated.rejected,
        ungated_footprint,
        if pass { "PASS" } else { "FAIL" }
    );

    let phases = phases.map(|(name, t)| {
        let phase = fields!(t => ops, elapsed_s, ok, rejected, sig_miss, neg, errors)
            .with("mops_per_s", t.mops());
        (name, phase)
    });
    let per_op = hists
        .iter()
        .map(|(name, h)| (*name, fields!(h => count, p50_ns, p90_ns, p99_ns, max_ns)));
    let ablation = ablation
        .iter()
        .map(|&(batch, mops)| Json::obj().with("batch", batch).with("mops_per_s", mops));
    let body = Json::obj()
        .with("clients", CLIENTS)
        .with("batch", BATCH)
        .with("phases", Json::keyed(phases))
        .with("per_op", Json::keyed(per_op))
        .with("batch_ablation", Json::arr(ablation))
        .with(
            "admission",
            Json::obj()
                .with("budget_bytes", budget)
                .with("low_water_bytes", low_water)
                .with("trips", trips)
                .with("footprint_after_bytes", footprint_after)
                .with("ungated_rejected", ungated.rejected)
                .with("ungated_footprint_bytes", ungated_footprint),
        )
        .with("pass", pass);
    report::write("serve", Stamp::new(scale, Some(seed)), body);
    pass
}
