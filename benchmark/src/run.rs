//! One run of one workload: set-up, warm-up, timed windows, oracle —
//! and, with `--trace`, the traced window and the replay groups.
//!
//! Untraced (`--trace 0`): set-up three times (the median is `setup_s`),
//! a 3 s untimed warm-up during which the first 200 k operations of each
//! stream are digested, twenty timed windows (`--seconds` / 20 each;
//! every timing is the mean of the best quarter of the twenty, see
//! [`MetricDef::summarize`](crate::metrics::MetricDef::summarize)), then
//! the digested operations are replayed on a baseline kernel and compared.
//!
//! Traced (`--trace 1`): one set-up, a 2 s warm-up, an untraced reference
//! window (the counter ratios come from it, and it is the denominator of
//! `bench.trace_overhead_ratio`), one traced window, then the replay
//! groups. The per-layer numbers come from this run, the end-to-end ones
//! never do.

use crate::counters::{CounterSnap, Derived};
use crate::drive::{
    drive, Actor, ActorReport, Class, Limit, Phase, ReplayInput, SAMPLE_EVERY, TRACE_EVERY,
};
use crate::json::Value;
use crate::metrics::{self, Kind};
use crate::oracle::DIGEST_OPS;
use crate::serve::{self, FramePair, ServeClient};
use crate::span::{self, Tracer};
use crate::stats;
use crate::workloads::{self, Workload};
use crate::world::{KernelKind, World};
use crate::{host, probes};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed windows per untraced run. The hosts this runs on switch
/// between a faster and a slower mode every few seconds (a fixed loop
/// takes 120 ms or 145 ms); among many short windows a few sit wholly
/// in the faster mode, where five long windows each average the two.
pub const WINDOWS: usize = 20;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const WARMUP: Duration = Duration::from_secs(3);
const TRACED_WARMUP: Duration = Duration::from_secs(2);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload's name.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds of timed windows.
    pub seconds: u64,
    /// The traced run instead of the untraced one.
    pub trace: bool,
    /// Where result and trace files go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The reported value ([`MetricDef::summarize`](metrics::MetricDef::summarize) of `windows`).
    pub value: f64,
    /// Per-window (or per-set-up) values behind it.
    pub windows: Vec<f64>,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The options it ran with.
    pub opts: RunOpts,
    /// Oracle verdict: digests equal and no inadmissible result.
    pub correct: bool,
    /// Operations attempted, all phases and actors.
    pub attempted: u64,
    /// Operations whose result the oracle did not admit.
    pub failed: u64,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
    /// Premise conditions that did not hold (reported, not a failure).
    pub premise_failed: Vec<String>,
    /// The counters the premise is judged on, over the timed windows
    /// (untraced) or the reference window (traced).
    pub premise_counters: Vec<(&'static str, f64)>,
    /// Every metric of this run, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Load threads used.
    pub threads: usize,
}

/// Runs the workload `opts` names.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    use workloads::{
        cold_miss::ColdMiss, mutate_mix::MutateMix, serve_mix::ServeMix, warm_stat::WarmStat,
    };
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    match opts.workload.as_str() {
        WarmStat::NAME => run_workload::<WarmStat>(opts),
        ColdMiss::NAME => run_workload::<ColdMiss>(opts),
        MutateMix::NAME => run_workload::<MutateMix>(opts),
        ServeMix::NAME => run_workload::<ServeMix>(opts),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            workloads::ALL.join(", ")
        )),
    }
}

fn run_workload<W: Workload>(opts: &RunOpts) -> Result<RunResult, String> {
    if opts.trace {
        traced::<W>(opts)
    } else {
        untraced::<W>(opts)
    }
}

/// What the threads of one schedule produced.
struct Session {
    reports: Vec<ActorReport>,
    /// Counter snapshots at the start of each timed phase and at the end.
    snaps: Vec<CounterSnap>,
    /// When the schedule began (the origin of the threads' spans).
    start: Instant,
    /// `resident_bytes_per_dentry` at the end of each timed phase.
    bytes_per_dentry: Vec<f64>,
    kept: Vec<FramePair>,
}

/// Runs `actors` through `phases`, one thread each, while this thread
/// reads the counters at the boundaries of the timed phases.
fn session<W: Workload>(
    built: &W::Built,
    mut actors: Vec<Box<dyn Actor>>,
    phases: &[Phase],
    seed: u64,
    at_first_window: impl FnOnce(),
) -> Session {
    let world: &World = built.as_ref();
    let start = Instant::now() + Duration::from_millis(20);
    let mut snaps = Vec::new();
    let mut bytes_per_dentry = Vec::new();
    let mut at_first_window = Some(at_first_window);
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = actors
            .iter_mut()
            .enumerate()
            .map(|(i, actor)| {
                s.spawn(move || drive(actor.as_mut(), phases, start, seed ^ (i as u64) << 32))
            })
            .collect();
        let mut at = start;
        for phase in phases {
            let Limit::Time(d) = phase.limit else {
                continue;
            };
            if phase.timed {
                sleep_until(at);
                if let Some(f) = at_first_window.take() {
                    f();
                }
                snaps.push(CounterSnap::take(world, W::serve_stats(built)));
            }
            at += d;
            if phase.timed {
                sleep_until(at);
                bytes_per_dentry.push(resident_bytes_per_dentry(world));
            }
        }
        sleep_until(at);
        snaps.push(CounterSnap::take(world, W::serve_stats(built)));
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    let kept = actors.iter_mut().flat_map(|a| a.kept_frames()).collect();
    Session {
        reports,
        start,
        snaps,
        bytes_per_dentry,
        kept,
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The counters every workload's premise report prints.
fn premise_counters(d: &Derived) -> Vec<(&'static str, f64)> {
    vec![
        ("vfs.fast_hit_ratio", d.fast_hit_ratio),
        ("vfs.miss_fs_per_lookup", d.miss_fs_per_lookup),
        ("core.dlht.hit_ratio", d.dlht_hit_ratio),
        ("core.pcc.hit_ratio", d.pcc_hit_ratio),
        ("fs.calls_per_op", d.fs_calls_per_op),
        ("blockdev.device_reads_per_op", d.device_reads_per_op),
        (
            "core.dcache.shoot_visits_per_dir_mutation",
            d.shoot_visits_per_dir_mutation,
        ),
        ("server.rejected_share", d.rejected_share),
    ]
}

/// Operations per second of window `w`: the throughput actor's, or all
/// actors' together.
fn window_rate<W: Workload>(reports: &[ActorReport], w: usize) -> f64 {
    let rate = |r: &ActorReport| {
        let win = &r.windows[w];
        win.ops as f64 / (win.elapsed_ns.max(1) as f64 / 1e9)
    };
    match W::throughput_actor() {
        Some(a) => rate(&reports[a]),
        None => reports.iter().map(rate).sum(),
    }
}

/// The `q`-quantile of class `c` in window `w`, all actors' samples
/// together; `None` when too few samples lie beyond it.
fn window_quantile(reports: &[ActorReport], w: usize, c: Class, q: f64) -> Option<f64> {
    let mut all: Vec<u32> = reports
        .iter()
        .flat_map(|r| r.windows[w].samples[c as usize].samples().iter().copied())
        .collect();
    all.sort_unstable();
    stats::percentile(&all, q)
}

/// `(attempted, failed)` over every phase of every actor.
fn tally(reports: &[ActorReport]) -> (u64, u64) {
    reports.iter().fold((0, 0), |(a, f), r| {
        (
            a + r.warm_ops + r.windows.iter().map(|w| w.ops).sum::<u64>(),
            f + r.warm_failed + r.windows.iter().map(|w| w.failed).sum::<u64>(),
        )
    })
}

/// `x / n`, or 0 when nothing was counted.
fn per(x: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x as f64 / n as f64
    }
}

fn window_ops(reports: &[ActorReport], w: usize) -> u64 {
    reports.iter().map(|r| r.windows[w].ops).sum()
}

fn window_dir_mutations(reports: &[ActorReport], w: usize) -> u64 {
    reports
        .iter()
        .map(|r| {
            let ops = &r.windows[w].class_ops;
            ops[Class::DirMutate as usize] + ops[Class::DirChmod as usize]
        })
        .sum()
}

/// `SpaceReport` total over live dentries: dentry structs, the DLHT as
/// walked, the snapshot slab, and every resident PCC.
fn resident_bytes_per_dentry(world: &World) -> f64 {
    let s = world.kernel.dcache.space_report();
    let total = s.dentry_bytes as f64 * s.live_dentries as f64
        + s.dlht_bytes as f64
        + s.snap_slab_bytes as f64
        + s.pcc_bytes_each as f64 * s.pccs as f64;
    total / (s.live_dentries.max(1)) as f64
}

fn untraced<W: Workload>(opts: &RunOpts) -> Result<RunResult, String> {
    let seed = opts.seed;
    // Set-up, several times over: one build's time is at the mercy of
    // whatever else the host does in that second.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(W::build(seed, KernelKind::Optimized));
        setups.push(t.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up");

    let actors = W::actors(&built, seed);
    let threads = actors.len();
    let window = Duration::from_secs_f64(opts.seconds as f64 / WINDOWS as f64);
    let mut phases = vec![Phase::warm(Limit::Time(WARMUP), DIGEST_OPS)];
    phases.extend((0..WINDOWS).map(|_| Phase::window(Limit::Time(window), false)));
    let s = session::<W>(&built, actors, &phases, seed, || {});
    let peak_rss = host::peak_rss_mib();

    let mut problems = Vec::new();
    // A window with too few samples beyond the percentile reports none;
    // the metric stands if most windows report.
    let quantiles = |c: Class, q: f64, name: &str, problems: &mut Vec<String>| -> Vec<f64> {
        let per_window: Vec<f64> = (0..WINDOWS)
            .filter_map(|w| window_quantile(&s.reports, w, c, q))
            .collect();
        if per_window.len() <= WINDOWS / 2 {
            problems.push(format!(
                "{name}: only {} of {WINDOWS} windows have enough samples for this percentile (raise --seconds)",
                per_window.len()
            ));
        }
        per_window
    };
    let mut metrics = Vec::new();
    for m in metrics::CATALOGUE
        .iter()
        .filter(|m| metrics::applies(m, W::NAME))
    {
        let windows: Vec<f64> = match m.name {
            "setup_s" => setups.clone(),
            "ops_per_s" => (0..WINDOWS)
                .map(|w| window_rate::<W>(&s.reports, w))
                .collect(),
            "lookup_ns_p50" => quantiles(Class::Lookup, 0.5, m.name, &mut problems),
            "lookup_ns_p99" => quantiles(Class::Lookup, 0.99, m.name, &mut problems),
            "mutate_ns_p50" => quantiles(Class::Mutate, 0.5, m.name, &mut problems),
            "mutate_ns_p99" => quantiles(Class::Mutate, 0.99, m.name, &mut problems),
            "dir_mutate_ns_p50" => quantiles(Class::DirMutate, 0.5, m.name, &mut problems),
            "dir_chmod_ns_p50" => quantiles(Class::DirChmod, 0.5, m.name, &mut problems),
            "readdir_ns_per_entry_p50" => quantiles(Class::Readdir, 0.5, m.name, &mut problems),
            "frame_rtt_ns_p50" => quantiles(Class::Frame, 0.5, m.name, &mut problems),
            "frame_rtt_ns_p99" => quantiles(Class::Frame, 0.99, m.name, &mut problems),
            "resident_bytes_per_dentry" => s.bytes_per_dentry.clone(),
            "peak_rss_mib" => vec![peak_rss],
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        if !windows.is_empty() {
            metrics.push(Metric {
                name: m.name,
                value: m.summarize(&windows),
                windows,
            });
        }
    }

    let (mut attempted, mut failed) = tally(&s.reports);
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} operations returned a result the oracle does not admit"
        ));
    }
    let ops: u64 = (0..WINDOWS).map(|w| window_ops(&s.reports, w)).sum();
    let dir_mutations = (0..WINDOWS)
        .map(|w| window_dir_mutations(&s.reports, w))
        .sum();
    let derived = Derived::between(
        &s.snaps[0],
        s.snaps.last().expect("end snapshot"),
        ops,
        dir_mutations,
    );
    let premise_failed = W::premise(&derived);

    // The oracle: replay what was digested on a baseline kernel.
    let digested: Vec<usize> = (0..threads).filter(|&i| W::digested(i)).collect();
    if !digested.is_empty() {
        let oracle = W::build(seed, KernelKind::Oracle);
        let mut replay_actors = W::actors(&oracle, seed);
        for &i in &digested {
            let steps = s.reports[i].digest_steps;
            let replayed = drive(
                replay_actors[i].as_mut(),
                &[Phase::warm(Limit::Steps(steps), steps)],
                Instant::now(),
                seed,
            );
            attempted += replayed.warm_ops;
            if replayed.warm_failed > 0 {
                failed += replayed.warm_failed;
                problems.push(format!(
                    "baseline replay of stream {i}: {} inadmissible results",
                    replayed.warm_failed
                ));
            }
            if replayed.digest != s.reports[i].digest {
                problems.push(format!(
                    "stream {i}: digest of the first {steps} operations differs between the optimized kernel ({:016x}) and the baseline ({:016x})",
                    s.reports[i].digest.value(),
                    replayed.digest.value()
                ));
            }
        }
    }

    Ok(RunResult {
        opts: opts.clone(),
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        premise_failed,
        premise_counters: premise_counters(&derived),
        metrics,
        threads,
    })
}

fn traced<W: Workload>(opts: &RunOpts) -> Result<RunResult, String> {
    let seed = opts.seed;
    let built = W::build(seed, KernelKind::Optimized);
    let world: &World = (*built).as_ref();
    let actors = W::actors(&built, seed);
    let threads = actors.len();
    // The traced run is the first thing to shrink when time is tight:
    // a fifth of `--seconds` untraced, a quarter traced.
    let reference = Duration::from_secs_f64(opts.seconds as f64 * 0.2);
    let traced_len = Duration::from_secs_f64(opts.seconds as f64 * 0.25);
    let phases = [
        Phase::warm(Limit::Time(TRACED_WARMUP), 0),
        Phase::window(Limit::Time(reference), false),
        Phase::window(Limit::Time(traced_len), true),
    ];
    let mut s = session::<W>(&built, actors, &phases, seed, || {
        if let Some(server) = W::server(&built) {
            for w in server.worker_hists() {
                w.reset();
            }
        }
    });
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = tally(&s.reports);
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} operations returned a result the oracle does not admit"
        ));
    }
    let derived = Derived::between(
        &s.snaps[0],
        &s.snaps[1],
        window_ops(&s.reports, 0),
        window_dir_mutations(&s.reports, 0),
    );
    let premise_failed = W::premise(&derived);
    let overhead = window_rate::<W>(&s.reports, 1) / window_rate::<W>(&s.reports, 0);

    W::quiesce(&built);
    let mut replay: Vec<ReplayInput> = Vec::new();
    for r in &mut s.reports {
        replay.append(&mut r.replay);
    }
    // Interleave the actors' operations so a truncated replay set keeps
    // all of them.
    replay.sort_by_key(|r| r.op_id);
    let mut tr = Tracer::new(s.start);
    let hashed_bytes = probes::run(world, &replay, &mut tr);

    // The serving tier over this workload's tree.
    let serve_seed = seed ^ 0x5e77e;
    let mut probe_tracers: Vec<Tracer> = Vec::new();
    let (server_numbers, rtts, shares, kept);
    match W::server(&built) {
        Some(server) => {
            // serve_mix: its own windows are the session.
            server_numbers = serve::worker_numbers(server);
            shares = (derived.sig_miss_share, derived.rejected_share);
            let targets = W::serve_targets(&built, serve_seed);
            rtts = serve::unloaded_rtts(server, &targets, serve_seed, true);
            kept = std::mem::take(&mut s.kept);
        }
        None => {
            let server = workloads::serve_mix::start_server(world);
            let targets = W::serve_targets(&built, serve_seed);
            let conns = (0..workloads::load_threads())
                .map(|_| server.connect())
                .collect();
            let mut client = ServeClient::new(targets.clone(), conns, serve_seed, false);
            let before = CounterSnap::take(world, Some(server.stats()));
            let report = drive(
                &mut client,
                &[
                    Phase::warm(Limit::Time(Duration::from_millis(200)), 0),
                    Phase::window(Limit::Time(Duration::from_millis(800)), true),
                ],
                Instant::now(),
                serve_seed,
            );
            let after = CounterSnap::take(world, Some(server.stats()));
            attempted += report.warm_ops + report.windows[0].ops;
            let probe_failed = report.warm_failed + report.windows[0].failed;
            if probe_failed > 0 {
                failed += probe_failed;
                problems.push(format!(
                    "server probe: {probe_failed} inadmissible responses"
                ));
            }
            let d = Derived::between(&before, &after, report.windows[0].ops, 0);
            shares = (d.sig_miss_share, d.rejected_share);
            server_numbers = serve::worker_numbers(&server);
            rtts = serve::unloaded_rtts(&server, &targets, serve_seed, false);
            kept = client.kept_frames();
            probe_tracers.extend(report.tracer);
            server.shutdown();
        }
    }
    serve::replay_frames(world, &kept, &mut tr);
    let (fixed, per_req) = stats::linear_fit(&rtts);

    // The same stat calls on a baseline kernel and on one with
    // observability on, each first brought into the workload's regime
    // by the workload's own read stream.
    for (kind, name) in [
        (KernelKind::Baseline, "vfs.baseline_stat"),
        (KernelKind::OptimizedObs, "vfs.obs_stat"),
    ] {
        let other = W::build(seed, kind);
        let mut reader = W::read_actor(&other, seed);
        drive(
            reader.as_mut(),
            &[Phase::warm(Limit::Time(Duration::from_secs(1)), 0)],
            Instant::now(),
            seed,
        );
        W::quiesce(&other);
        probes::stat_replay((*other).as_ref(), &replay, name, &mut tr);
    }

    // Per-layer values: nanoseconds from the replay groups, ratios from
    // the reference window. Encode and decode on the wire are the one
    // place where the load threads' own (real) spans are the source.
    let span_ns = |name: &str| tr.ns_per_call(name).unwrap_or(0.0);
    let per_request = |name: &str| {
        let (ns, n) = s
            .reports
            .iter()
            .filter_map(|r| r.tracer.as_ref())
            .chain(probe_tracers.iter())
            .chain(std::iter::once(&tr))
            .map(|t| t.totals(name))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        per(ns, n)
    };
    let stat_ns = span_ns("vfs.stat");
    let hash_ns = span_ns("sighash.hash");
    let dlht_ns = span_ns("core.dlht.lookup");
    let pcc_ns = span_ns("core.pcc.check");
    let baseline_ns = span_ns("vfs.baseline_stat");
    let dlht_fp = world.kernel.dcache.dlht_for(world.ns).footprint();
    let (req_bytes, resp_bytes, reqs) = kept.iter().fold((0u64, 0u64, 0u64), |a, p| {
        (
            a.0 + p.request.len() as u64,
            a.1 + p.response.len() as u64,
            a.2 + p.requests as u64,
        )
    });
    let lookup_p99 = window_quantile(&s.reports, 0, Class::Lookup, 0.99).unwrap_or_else(|| {
        problems.push(
            "lookup_ns_p99: the reference window has too few samples (raise --seconds)".to_string(),
        );
        0.0
    });
    let v = [
        ("sighash.hash_ns_per_path", hash_ns),
        (
            "sighash.ns_per_byte",
            per(tr.totals("sighash.hash").0, hashed_bytes),
        ),
        ("core.dlht.lookup_ns", dlht_ns),
        (
            "core.dlht.insert_remove_ns",
            span_ns("core.dlht.insert_remove"),
        ),
        ("core.dlht.hit_ratio", derived.dlht_hit_ratio),
        (
            "core.dlht.bytes_per_entry",
            per(dlht_fp.total_bytes() as u64, dlht_fp.entries),
        ),
        ("core.pcc.check_ns", pcc_ns),
        ("core.pcc.insert_ns", span_ns("core.pcc.insert")),
        ("core.pcc.hit_ratio", derived.pcc_hit_ratio),
        ("core.dcache.d_lookup_ns", span_ns("core.dcache.d_lookup")),
        (
            "core.dcache.shoot_ns_per_visit",
            per_request("core.dcache.shoot"),
        ),
        (
            "core.dcache.shoot_visits_per_dir_mutation",
            derived.shoot_visits_per_dir_mutation,
        ),
        ("core.dcache.evictions_per_op", derived.evictions_per_op),
        (
            "core.dcache.read_retries_per_kop",
            derived.read_retries_per_kop,
        ),
        ("vfs.stat_ns", stat_ns),
        ("vfs.open_close_ns", span_ns("vfs.open_close")),
        ("vfs.access_ns", span_ns("vfs.access")),
        ("vfs.lookup_sig_ns", span_ns("vfs.lookup_sig")),
        ("vfs.fast_hit_ratio", derived.fast_hit_ratio),
        ("vfs.neg_hit_ratio", derived.neg_hit_ratio),
        ("vfs.slow_steps_per_lookup", derived.slow_steps_per_lookup),
        ("vfs.miss_fs_per_lookup", derived.miss_fs_per_lookup),
        ("vfs.epoch_pins_per_lookup", derived.epoch_pins_per_lookup),
        ("vfs.baseline_stat_ns", baseline_ns),
        (
            "vfs.fastpath_speedup",
            if stat_ns > 0.0 {
                baseline_ns / stat_ns
            } else {
                0.0
            },
        ),
        (
            "vfs.stat_unattributed_ns",
            stat_ns - (hash_ns + dlht_ns + pcc_ns),
        ),
        ("cred.permission_ns", span_ns("cred.permission")),
        ("fs.lookup_ns", span_ns("fs.lookup")),
        ("fs.getattr_ns", span_ns("fs.getattr")),
        ("fs.readdir_ns_per_entry", per_request("fs.readdir")),
        ("fs.create_unlink_ns", span_ns("fs.create_unlink")),
        ("fs.calls_per_op", derived.fs_calls_per_op),
        (
            "fs.journal.commits_per_mutation",
            derived.journal_commits_per_mutation,
        ),
        (
            "fs.journal.blocks_per_commit",
            derived.journal_blocks_per_commit,
        ),
        ("fs.journal.checkpoints", derived.journal_checkpoints),
        ("blockdev.read_hit_ns", span_ns("blockdev.read_hit")),
        ("blockdev.read_miss_ns", span_ns("blockdev.read_miss")),
        ("blockdev.write_block_ns", span_ns("blockdev.write_block")),
        ("blockdev.cache_hit_ratio", derived.cache_hit_ratio),
        ("blockdev.device_reads_per_op", derived.device_reads_per_op),
        (
            "blockdev.device_writes_per_op",
            derived.device_writes_per_op,
        ),
        ("blockdev.writebacks_per_op", derived.writebacks_per_op),
        ("blockdev.simulated_io_share", derived.simulated_io_share),
        (
            "server.proto.encode_req_ns_per_req",
            per_request("client.encode"),
        ),
        (
            "server.proto.decode_req_ns_per_req",
            per_request("server.proto.decode_req"),
        ),
        (
            "server.proto.decode_resp_ns_per_req",
            per_request("client.decode"),
        ),
        ("server.proto.bytes_per_req", per(req_bytes, reqs)),
        ("server.proto.bytes_per_resp", per(resp_bytes, reqs)),
        ("server.queue_wait_ns_p50", server_numbers.0),
        ("server.batch_exec_ns_per_req", server_numbers.1),
        ("server.decode_ns_per_frame", server_numbers.2),
        ("server.encode_ns_per_frame", server_numbers.3),
        ("server.fixed_ns_per_frame", fixed),
        ("server.ns_per_req", per_req),
        ("server.ping_rtt_ns_p50", rtts[0].1),
        (
            "server.direct_exec_ns_per_req",
            per_request("server.direct_exec"),
        ),
        ("server.sig_miss_share", shares.0),
        ("server.rejected_share", shares.1),
        ("obs.hist_record_ns", span_ns("obs.hist_record")),
        (
            "obs.enabled_overhead_ratio",
            if stat_ns > 0.0 {
                span_ns("vfs.obs_stat") / stat_ns
            } else {
                0.0
            },
        ),
        ("bench.trace_overhead_ratio", overhead),
        ("bench.clock_ns", span_ns("bench.clock")),
        // The demoted tail latency rides along, from the reference window.
        ("lookup_ns_p99", lookup_p99),
    ];

    // Write the trace: the load threads' spans, the probes', the replay.
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", W::NAME));
    let mut tracers: Vec<&Tracer> = s.reports.iter().filter_map(|r| r.tracer.as_ref()).collect();
    tracers.extend(probe_tracers.iter());
    tracers.push(&tr);
    span::write_jsonl(&trace_path, &tracers)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let correct = problems.is_empty();
    let metrics = metrics::CATALOGUE
        .iter()
        .filter(|m| matches!(m.kind, Kind::Demoted | Kind::Layer))
        .map(|m| {
            let value = v
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| unreachable!("layer metric {} has no source", m.name))
                .1;
            Metric {
                name: m.name,
                value,
                windows: vec![value],
            }
        })
        .collect();
    Ok(RunResult {
        opts: opts.clone(),
        correct,
        attempted,
        failed,
        problems,
        premise_failed,
        premise_counters: premise_counters(&derived),
        metrics,
        threads,
    })
}

impl RunResult {
    fn metric_json(&self, m: &Metric) -> Value {
        let def = metrics::def(m.name).expect("catalogued");
        let mut v = Value::obj().with("value", m.value).with("unit", def.unit);
        if m.windows.len() > 1 {
            v.set("windows", m.windows.as_slice());
            v.set("spread", stats::spread(&m.windows));
        }
        v
    }

    /// The result file: host stamp, options, verdicts, every metric.
    pub fn to_json(&self, host: &Value) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics.set(m.name, self.metric_json(m));
        }
        Value::obj()
            .with("schema", "dcache-benchmark/v1")
            .with("workload", self.opts.workload.as_str())
            .with("seed", self.opts.seed)
            .with("traced", self.opts.trace)
            .with("host", host.clone())
            .with("threads", self.threads)
            .with(
                "windows",
                Value::obj()
                    .with("count", if self.opts.trace { 1 } else { WINDOWS })
                    .with(
                        "seconds",
                        self.opts.seconds as f64
                            * if self.opts.trace {
                                0.25
                            } else {
                                1.0 / WINDOWS as f64
                            },
                    )
                    .with("sample_every", SAMPLE_EVERY)
                    .with("trace_every", TRACE_EVERY),
            )
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("premise_ok", self.premise_failed.is_empty())
            .with(
                "premise_counters",
                self.premise_counters
                    .iter()
                    .fold(Value::obj(), |o, (k, v)| o.with(k, *v)),
            )
            .with(
                "premise_failed",
                self.premise_failed
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("metrics", metrics)
    }

    /// The driver's line: `correct`, `attempted`, `failed`, and the
    /// metrics `BENCHMARK.json` lists for this kind of run.
    pub fn driver_line(&self) -> String {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            let def = metrics::def(m.name).expect("catalogued");
            let listed = if self.opts.trace {
                matches!(def.kind, Kind::Demoted | Kind::Layer)
            } else {
                def.kind == Kind::EndToEnd
            };
            if listed {
                metrics.set(
                    m.name,
                    Value::obj().with("value", m.value).with("unit", def.unit),
                );
            }
        }
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }

    /// Every metric by name with its unit, for people.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed {} ({}, {} load thread{}) ==",
            self.opts.workload,
            self.opts.seed,
            if self.opts.trace {
                "traced run"
            } else {
                "untraced run"
            },
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        );
        for m in &self.metrics {
            let def = metrics::def(m.name).expect("catalogued");
            let _ = write!(out, "  {:<44} {:>16.4} {:<9}", m.name, m.value, def.unit);
            if m.windows.len() > 1 {
                let _ = write!(out, " spread {:>6.2}%", 100.0 * stats::spread(&m.windows));
            }
            if let (Some(b), false) = (def.bound, self.opts.trace) {
                let _ = write!(out, " bound {:>4.0}%", 100.0 * b);
            }
            out.push('\n');
        }
        if let (Some(u), Some(s)) = (
            self.value("vfs.stat_unattributed_ns"),
            self.value("vfs.stat_ns"),
        ) {
            let _ = writeln!(
                out,
                "  vfs.stat_unattributed_ns is {:.1}% of its base vfs.stat_ns = {s:.1} ns",
                if s > 0.0 { 100.0 * u / s } else { 0.0 }
            );
        }
        if let (Some(x), Some(b), Some(s)) = (
            self.value("vfs.fastpath_speedup"),
            self.value("vfs.baseline_stat_ns"),
            self.value("vfs.stat_ns"),
        ) {
            let _ = writeln!(
                out,
                "  vfs.fastpath_speedup {x:.2}x = {b:.1} ns baseline / {s:.1} ns optimized"
            );
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} correct {} premise_ok {}",
            self.attempted,
            self.failed,
            self.correct,
            self.premise_failed.is_empty()
        );
        let counters: Vec<String> = self
            .premise_counters
            .iter()
            .map(|(k, v)| format!("{k} {v:.4}"))
            .collect();
        let _ = writeln!(out, "  premise counters: {}", counters.join(", "));
        for p in &self.problems {
            let _ = writeln!(out, "  ORACLE: {p}");
        }
        for p in &self.premise_failed {
            let _ = writeln!(out, "  premise: {p}");
        }
        out
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
