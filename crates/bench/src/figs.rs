//! One function per table/figure of the paper's evaluation (§6).

use crate::report::{self, Json, Stamp};
use crate::setup::{
    config_pair, kernel_with, kernel_with_disk_full, kernel_with_obs, nproc, Scale, Setup,
};
use crate::table::{gain_pct, pct, us, Table};
use dc_vfs::{Cred, Kernel, OpClass, OpenFlags, Process};
use dc_workloads::apps::{
    du_s, find_name, git_diff, git_status, git_write_index, make_build, rm_r, tar_extract,
    AppReport,
};
use dc_workloads::lmbench::{self, Pattern};
use dc_workloads::maildir::MaildirSim;
use dc_workloads::measure::latency_ns;
use dc_workloads::tree::{build_flat_dir, build_subtree, build_tree, Manifest, TreeSpec};
use dc_workloads::{apache, ops_per_sec};
use dcache_core::DcacheConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

// ---------------------------------------------------------------------
// Figure 1: fraction of execution time in path-based system calls.
// ---------------------------------------------------------------------

/// Figure 1: per-application fraction of runtime spent in path-based
/// syscalls (access/stat, open, chmod/chown, unlink) with a warm cache.
pub fn fig1(scale: Scale) {
    banner("Figure 1: % of execution time in path-based syscalls (warm cache)");
    let mut t = Table::new(&["application", "path-syscall %", "wall (ms)"]);
    let runs = run_apps(DcacheConfig::baseline(), scale, false);
    for r in runs {
        t.row(vec![
            r.name.to_string(),
            format!("{:.1}%", r.path_fraction * 100.0),
            format!("{:.1}", r.report.wall_ns as f64 / 1e6),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Figure 2: stat latency across "kernel versions".
// ---------------------------------------------------------------------

/// Figure 2: `stat` latency of the 8-component path across the version
/// sweep (lock-walk ≈ pre-RCU kernels; baseline ≈ v3.14; optimized =
/// this design, −26% in the paper).
pub fn fig2(scale: Scale) {
    banner("Figure 2: stat latency across kernel generations (8-comp path)");
    let configs = [
        ("v2.6-like (locked walk)", DcacheConfig::legacy_lock_walk()),
        ("v3.14-like (optimistic walk)", DcacheConfig::baseline()),
        ("optimized (this design)", DcacheConfig::optimized()),
    ];
    let mut t = Table::new(&["kernel", "stat (µs)", "p50 (µs)", "p99 (µs)", "vs v3.14"]);
    let mut base = 0.0f64;
    for (name, config) in configs {
        let s = kernel_with_obs(config);
        lmbench::setup(&s.kernel, &s.proc).unwrap();
        // Discard setup-phase samples so the histogram covers only the
        // measured stat loop.
        s.kernel.reset_stats();
        let lat = lmbench::stat_latency(&s.kernel, &s.proc, Pattern::Comp8, scale.batches);
        if name.contains("v3.14") {
            base = lat.median_ns;
        }
        let rel = if base > 0.0 {
            gain_pct(base, lat.median_ns)
        } else {
            "-".to_string()
        };
        let (p50, p99) = s
            .kernel
            .obs()
            .obs()
            .map(|o| {
                let h = o.hist(OpClass::AccessStat).summary();
                (us(h.p50_ns as f64), us(h.p99_ns as f64))
            })
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        t.row(vec![name.to_string(), us(lat.median_ns), p50, p99, rel]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Figure 3: principal components of lookup latency.
// ---------------------------------------------------------------------

/// Figure 3: where lookup time goes (initialization, permission checks,
/// path scanning & hashing, hash-table lookups, finalization), measured
/// by timing each mechanism in isolation and attributing the remainder
/// to init/finalize.
pub fn fig3(scale: Scale) {
    banner("Figure 3: principal lookup components (ns)");
    let paths: [(&str, Pattern); 4] = [
        ("1-comp", Pattern::Comp1),
        ("2-comp", Pattern::Comp2),
        ("4-comp", Pattern::Comp4),
        ("8-comp", Pattern::Comp8),
    ];
    let mut t = Table::new(&[
        "path",
        "config",
        "total",
        "hashing",
        "table",
        "permission",
        "init+final",
    ]);
    for (name, config) in config_pair() {
        let s = kernel_with(config.clone());
        lmbench::setup(&s.kernel, &s.proc).unwrap();
        for (label, pat) in paths {
            let total = lmbench::stat_latency(&s.kernel, &s.proc, pat, scale.batches).median_ns;
            let comps: Vec<&str> = pat.path().split('/').filter(|c| !c.is_empty()).collect();
            // Path scanning & hashing: the signature computation.
            let key = &s.kernel.dcache.key;
            let hashing = latency_ns(scale.batches, 4000, || {
                let sig = key.hash_components(comps.iter().map(|c| c.as_bytes()));
                std::hint::black_box(sig);
            })
            .median_ns;
            // Hash table lookups: one DLHT probe (optimized) or one
            // per-parent probe per component (unmodified).
            let table_ns = if config.fastpath {
                let sig = key.hash_components(comps.iter().map(|c| c.as_bytes()));
                let ns_id = s.proc.namespace().id;
                latency_ns(scale.batches, 4000, || {
                    std::hint::black_box(s.kernel.dcache.dlht_lookup(ns_id, &sig));
                })
                .median_ns
            } else {
                let mut chain = Vec::new();
                let mut d = s.proc.namespace().root_mount().root.clone();
                for c in &comps {
                    let next = s.kernel.dcache.d_lookup(&d, c).expect("warm chain");
                    chain.push((d.clone(), c.to_string()));
                    d = next;
                }
                latency_ns(scale.batches, 2000, || {
                    for (parent, name) in &chain {
                        std::hint::black_box(s.kernel.dcache.d_lookup(parent, name));
                    }
                })
                .median_ns
            };
            // Permission checking: memoized PCC probe (optimized) or one
            // LSM evaluation per directory (unmodified).
            let perm_ns = if config.fastpath {
                let sig = key.hash_components(comps.iter().map(|c| c.as_bytes()));
                let ns_id = s.proc.namespace().id;
                let dentry = s.kernel.dcache.dlht_lookup(ns_id, &sig).expect("warm");
                let cred = s.proc.cred();
                let pcc = s.kernel.dcache.pcc_for(&cred, ns_id);
                latency_ns(scale.batches, 4000, || {
                    std::hint::black_box(pcc.check(dentry.id(), dentry.seq()));
                })
                .median_ns
            } else {
                // Attribute snapshots of every directory on the path.
                let mut attrs = Vec::new();
                let mut prefix = String::from("");
                for c in &comps[..comps.len() - 1] {
                    prefix.push('/');
                    prefix.push_str(c);
                    attrs.push(s.kernel.stat(&s.proc, &prefix).unwrap());
                }
                let cred = s.proc.cred();
                latency_ns(scale.batches, 4000, || {
                    for a in &attrs {
                        let ctx = dc_cred::PermCtx {
                            attr: a,
                            path: None,
                        };
                        std::hint::black_box(s.kernel.security.permission(
                            &cred,
                            &ctx,
                            dc_cred::MAY_EXEC,
                        ))
                        .ok();
                    }
                })
                .median_ns
            };
            let rest = (total - hashing - table_ns - perm_ns).max(0.0);
            t.row(vec![
                label.to_string(),
                name.to_string(),
                format!("{total:.0}"),
                format!("{hashing:.0}"),
                format!("{table_ns:.0}"),
                format!("{perm_ns:.0}"),
                format!("{rest:.0}"),
            ]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// Figure 6: lat_syscall stat/open across path patterns.
// ---------------------------------------------------------------------

/// Figure 6: `stat` and `open` latency for every path pattern, under the
/// unmodified kernel, the optimized kernel, the always-miss synthetic,
/// and (for dot-dot patterns) Plan 9 lexical semantics.
pub fn fig6(scale: Scale) {
    banner("Figure 6: stat/open latency by path pattern (µs)");
    let configs = [
        ("unmodified", DcacheConfig::baseline()),
        ("optimized", DcacheConfig::optimized()),
        ("fastmiss", DcacheConfig::optimized_always_miss()),
        ("lexical*", DcacheConfig::optimized_lexical()),
    ];
    let mut setups: Vec<(&str, Setup)> = Vec::new();
    for (name, config) in configs {
        let s = kernel_with(config);
        lmbench::setup(&s.kernel, &s.proc).unwrap();
        setups.push((name, s));
    }
    let mut t = Table::new(&[
        "pattern",
        "stat unmod",
        "stat opt",
        "stat miss",
        "stat lex*",
        "open unmod",
        "open opt",
    ]);
    for pat in Pattern::all() {
        let mut stat_cells = Vec::new();
        for (_, s) in &setups {
            let lat = lmbench::stat_latency(&s.kernel, &s.proc, pat, scale.batches);
            stat_cells.push(us(lat.median_ns));
        }
        let open_unmod =
            lmbench::open_latency(&setups[0].1.kernel, &setups[0].1.proc, pat, scale.batches);
        let open_opt =
            lmbench::open_latency(&setups[1].1.kernel, &setups[1].1.proc, pat, scale.batches);
        t.row(vec![
            pat.label().to_string(),
            stat_cells[0].clone(),
            stat_cells[1].clone(),
            stat_cells[2].clone(),
            stat_cells[3].clone(),
            us(open_unmod.median_ns),
            us(open_opt.median_ns),
        ]);
    }
    t.print();
    // §6.1 *at() variants.
    let mut t2 = Table::new(&["*at() variant", "unmod (µs)", "opt (µs)", "gain"]);
    let fu =
        lmbench::fstatat_latency(&setups[0].1.kernel, &setups[0].1.proc, scale.batches).unwrap();
    let fo =
        lmbench::fstatat_latency(&setups[1].1.kernel, &setups[1].1.proc, scale.batches).unwrap();
    t2.row(vec![
        "fstatat 1-comp".to_string(),
        us(fu.median_ns),
        us(fo.median_ns),
        gain_pct(fu.median_ns, fo.median_ns),
    ]);
    t2.print();
}

// ---------------------------------------------------------------------
// Figure 7: chmod/rename latency vs cached subtree size.
// ---------------------------------------------------------------------

/// Figure 7: directory `chmod`/`rename` latency as the cached subtree
/// grows — constant-time on the unmodified kernel, linear with the
/// shootdown on the optimized one.
pub fn fig7(scale: Scale) {
    banner("Figure 7: chmod/rename latency vs subtree size (µs)");
    let shapes: Vec<(&str, usize, usize)> = vec![
        ("single file", 0, 1),
        ("depth=1, 10 files", 1, 10),
        ("depth=2, 100 files", 2, 100),
        ("depth=3, 1000 files", 3, 1000.min(scale.max_subtree)),
        ("depth=4, 10000 files", 4, scale.max_subtree),
    ];
    let mut t = Table::new(&[
        "shape",
        "chmod unmod",
        "chmod opt",
        "slowdown",
        "rename unmod",
        "rename opt",
        "slowdown",
    ]);
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    for (_, config) in config_pair() {
        let s = kernel_with(config);
        for (i, (_, depth, files)) in shapes.iter().enumerate() {
            let root = format!("/t{i}");
            if *depth == 0 {
                // A single file, not a directory.
                let fd = s
                    .kernel
                    .open(&s.proc, &root, OpenFlags::create(), 0o644)
                    .unwrap();
                s.kernel.close(&s.proc, fd).unwrap();
            } else {
                build_subtree(&s.kernel, &s.proc, &root, *depth, *files).unwrap();
                // Populate the cache over the whole subtree.
                let _ = dc_workloads::apps::updatedb(&s.kernel, &s.proc, &root).unwrap();
            }
            let mut mode = 0o755u16;
            let chmod = latency_ns(scale.batches.max(3), 20, || {
                mode ^= 0o011;
                s.kernel.chmod(&s.proc, &root, mode).unwrap();
            })
            .median_ns;
            let alt = format!("{root}.moved");
            let mut flip = false;
            let rename = latency_ns(scale.batches.max(3), 10, || {
                let (from, to) = if flip { (&alt, &root) } else { (&root, &alt) };
                s.kernel.rename(&s.proc, from, to).unwrap();
                flip = !flip;
            })
            .median_ns;
            // Leave the tree at its original name for the next config.
            if flip {
                s.kernel.rename(&s.proc, &alt, &root).unwrap();
            }
            results[i].push(chmod);
            results[i].push(rename);
        }
    }
    for (i, (label, _, _)) in shapes.iter().enumerate() {
        let r = &results[i];
        // r = [chmod_unmod, rename_unmod, chmod_opt, rename_opt]
        t.row(vec![
            label.to_string(),
            us(r[0]),
            us(r[2]),
            format!("{:.0}%", (r[2] / r[0] - 1.0) * 100.0),
            us(r[1]),
            us(r[3]),
            format!("{:.0}%", (r[3] / r[1] - 1.0) * 100.0),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Figure 8: lookup scalability across threads.
// ---------------------------------------------------------------------

/// Figure 8: `stat`/`open` latency of the same path as reader threads
/// scale, unmodified against optimized (epoch + seqlock reads). Latency
/// should stay flat, with the optimized walker strictly below.
///
/// Also records the raw per-config latency matrix as `BENCH_fig8.json`
/// ([`report::write`]).
pub fn fig8(scale: Scale) {
    banner("Figure 8: stat/open latency vs threads (µs)");
    let configs = config_pair();
    let mut t = Table::new(&[
        "threads",
        "stat unmod",
        "open unmod",
        "stat opt",
        "open opt",
    ]);
    let nproc = announce_nproc();
    let threads: Vec<usize> = (1..=scale.max_threads.min(nproc)).collect();
    let mut rows: Vec<Vec<String>> = threads.iter().map(|n| vec![n.to_string()]).collect();
    // lat[config][op][thread-index], nanoseconds per op.
    let mut lats: Vec<[Vec<f64>; 2]> = Vec::new();
    let mut windows: Vec<f64> = Vec::new();
    for (_, config) in &configs {
        let s = kernel_with(config.clone());
        lmbench::setup(&s.kernel, &s.proc).unwrap();
        let path = Pattern::Comp4.path();
        // Warm.
        for _ in 0..64 {
            s.kernel.stat(&s.proc, path).unwrap();
        }
        let mut per_op: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for (i, &n) in threads.iter().enumerate() {
            for (oi, op) in ["stat", "open"].into_iter().enumerate() {
                let lat = parallel_latency(&s, n, scale.duration_ms, |k, p, _, _| match op {
                    "stat" => {
                        k.stat(p, path).unwrap();
                    }
                    _ => {
                        if let Ok(fd) = k.open(p, path, OpenFlags::read_only(), 0) {
                            let _ = k.close(p, fd);
                        }
                    }
                });
                rows[i].push(us(lat));
                per_op[oi].push(lat);
            }
        }
        lats.push(per_op);
        // The record's headline — optimized `stat`, one thread — again,
        // in `batches` windows, for the stamp's median and spread.
        if config.fastpath {
            windows = (0..scale.batches)
                .map(|_| {
                    parallel_latency(&s, 1, scale.duration_ms, |k, p, _, _| {
                        k.stat(p, path).unwrap();
                    })
                })
                .collect();
        }
    }
    for r in rows {
        t.row(r);
    }
    t.print();
    for ((name, _), per_op) in configs.iter().zip(&lats) {
        for (op, lat) in ["stat", "open"].into_iter().zip(per_op) {
            print_two_thread_ratio(&format!("{name} {op}"), &threads, lat);
        }
    }
    let per_config = configs.iter().zip(&lats).map(|((name, _), [stat, open])| {
        let per_op = Json::obj()
            .with("stat", Json::arr(stat.iter().copied()))
            .with("open", Json::arr(open.iter().copied()));
        (*name, per_op)
    });
    let body = Json::obj()
        .with("unit", "ns_per_op")
        .with("threads", Json::arr(threads.iter().copied()))
        .with("configs", Json::keyed(per_config));
    let stamp = Stamp::new(scale, None).timed("optimized stat, 1 thread, ns/op", &windows);
    report::write("fig8", stamp, body);
}

/// The host's CPU count, printed: a thread sweep stops there.
fn announce_nproc() -> usize {
    let nproc = nproc();
    println!("host: {nproc} CPUs — sweep capped there (more threads would time-share)");
    nproc
}

/// Prints the 2-thread ÷ 1-thread throughput ratio of a sweep whose
/// per-op latencies are `lat` (2.0 is perfect scaling, 1.0 is none).
fn print_two_thread_ratio(label: &str, threads: &[usize], lat: &[f64]) {
    let at = |n| threads.iter().position(|&t| t == n).map(|i| lat[i]);
    if let (Some(one), Some(two)) = (at(1), at(2)) {
        println!(
            "{label}: 2-thread / 1-thread throughput = {:.2}x",
            2.0 * one / two
        );
    }
}

// ---------------------------------------------------------------------
// Figure 9: readdir and mkstemp latency vs directory size.
// ---------------------------------------------------------------------

/// Figure 9: `readdir` latency (log-scale in the paper) and `mkstemp`
/// latency against directory size; completeness caching removes the
/// per-listing file-system call (§5.1).
pub fn fig9(scale: Scale) {
    banner("Figure 9: readdir/mkstemp latency vs directory size (µs)");
    let sizes: Vec<usize> = [10usize, 100, 1000, 10000]
        .into_iter()
        .filter(|&s| s <= scale.max_dir)
        .collect();
    let mut t = Table::new(&[
        "entries",
        "readdir unmod",
        "readdir opt",
        "gain",
        "mkstemp unmod",
        "mkstemp opt",
    ]);
    let mut cells: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for (_, config) in config_pair() {
        let s = kernel_with(config);
        for (i, &n) in sizes.iter().enumerate() {
            let dir = format!("/d{n}");
            build_flat_dir(&s.kernel, &s.proc, &dir, n).unwrap();
            // Warm: full listings (set DIR_COMPLETE when optimized).
            let _ = s.kernel.list_dir(&s.proc, &dir).unwrap();
            let _ = s.kernel.list_dir(&s.proc, &dir).unwrap();
            let readdir = latency_ns(scale.batches.max(3), (20_000 / n).max(5), || {
                std::hint::black_box(s.kernel.list_dir(&s.proc, &dir).unwrap());
            })
            .median_ns;
            let mkstemp = latency_ns(scale.batches.max(3), 50, || {
                let (fd, name) = s.kernel.mkstemp(&s.proc, &dir, "tmp-").unwrap();
                s.kernel.close(&s.proc, fd).unwrap();
                s.kernel.unlink(&s.proc, &format!("{dir}/{name}")).unwrap();
            })
            .median_ns;
            cells[i].push(readdir);
            cells[i].push(mkstemp);
        }
    }
    for (i, &n) in sizes.iter().enumerate() {
        let c = &cells[i];
        t.row(vec![
            n.to_string(),
            us(c[0]),
            us(c[2]),
            gain_pct(c[0], c[2]),
            us(c[1]),
            us(c[3]),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Figure 10: Dovecot maildir throughput.
// ---------------------------------------------------------------------

/// Figure 10: maildir mark/unmark throughput vs mailbox size; the
/// optimized cache serves the per-mark directory re-read from memory.
pub fn fig10(scale: Scale) {
    banner("Figure 10: Dovecot maildir throughput (ops/sec)");
    let full_sizes = [500usize, 1000, 2000, 2500, 3000];
    let sizes: Vec<usize> = full_sizes
        .iter()
        .map(|&s| if scale.max_dir >= 10000 { s } else { s / 10 })
        .collect();
    let mut t = Table::new(&["mailbox size", "unmodified", "optimized", "gain"]);
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for (_, config) in config_pair() {
        // Calibrated substrate: charge 25µs per metadata page access so
        // the warm-cache fs readdir cost matches the paper's measured
        // ext4 baseline (Figure 9: 284µs per 1000-entry listing). memfs
        // alone is ~5x faster than that testbed, which would mask the
        // benefit of serving listings without any FS call. Both
        // configurations run on the identical substrate; see
        // EXPERIMENTS.md for the calibration.
        let s = kernel_with_disk_full(config, 50_000, 50_000, 25_000);
        for (i, &n) in sizes.iter().enumerate() {
            let root = format!("/mail{i}");
            let mut sim = MaildirSim::provision(&s.kernel, &s.proc, &root, 10, n, 42).unwrap();
            // Warm one round.
            for _ in 0..20 {
                sim.mark_one(&s.kernel, &s.proc).unwrap();
            }
            let rate = sim.run(&s.kernel, &s.proc, scale.duration_ms).unwrap();
            rates[i].push(rate);
        }
    }
    for (i, &n) in sizes.iter().enumerate() {
        let (unmod, opt) = (rates[i][0], rates[i][1]);
        t.row(vec![
            n.to_string(),
            format!("{unmod:.0}"),
            format!("{opt:.0}"),
            format!("{:+.1}%", (opt / unmod - 1.0) * 100.0),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Tables 1 & 2: application benchmarks, warm and cold cache.
// ---------------------------------------------------------------------

/// One measured application run.
pub struct AppRun {
    /// Row label.
    pub name: &'static str,
    /// The emulator's report.
    pub report: AppReport,
    /// Cache hit rate during the measured run (fraction, 0..=1).
    pub hit_rate: f64,
    /// Negative-dentry answer rate (fraction, 0..=1).
    pub neg_rate: f64,
    /// Fraction of wall time inside path-based syscalls (Figure 1).
    pub path_fraction: f64,
}

/// Runs the full application suite under `config`; `cold` drops every
/// cache (and uses a latency-charging disk) before each measured run.
pub fn run_apps(config: DcacheConfig, scale: Scale, cold: bool) -> Vec<AppRun> {
    let s = if cold {
        kernel_with_disk_full(config, 15_000, 15_000, 0)
    } else {
        kernel_with(config)
    };
    let k = &s.kernel;
    let p = &s.proc;
    let spec = TreeSpec::source_like(scale.tree_files);
    let m = build_tree(k, p, "/src", &spec).unwrap();
    git_write_index(k, p, &m, "/src").unwrap();
    let mut out = Vec::new();
    // Best-of-N per application: single millisecond-scale runs are too
    // noisy to compare configurations. Counters reflect the final rep.
    let reps: usize = if cold { 2 } else { 3 };
    let measured =
        |name: &'static str, out: &mut Vec<AppRun>, run: &mut dyn FnMut(usize) -> AppReport| {
            let mut best: Option<AppReport> = None;
            for rep in 0..reps {
                if cold {
                    k.drop_caches();
                }
                k.reset_stats();
                let report = run(rep);
                if best.as_ref().is_none_or(|b| report.wall_ns < b.wall_ns) {
                    best = Some(report);
                }
            }
            let report = best.expect("at least one rep");
            let stats = &k.dcache.stats;
            let path_ns = k.timing.path_syscall_ns();
            out.push(AppRun {
                name,
                hit_rate: stats.hit_rate(),
                neg_rate: stats.neg_hit_rate(),
                path_fraction: path_ns as f64 / report.wall_ns.max(1) as f64,
                report,
            });
        };

    // find: warm pass, then measured.
    let _ = find_name(k, p, "/src", "core").unwrap();
    measured("find", &mut out, &mut |_| {
        find_name(k, p, "/src", "core").unwrap().0
    });

    // tar: a fresh destination per rep.
    let _ = tar_extract(k, p, &m, "/src", "/unpack-warm").unwrap();
    measured("tar xzf", &mut out, &mut |rep| {
        tar_extract(k, p, &m, "/src", &format!("/unpack-{rep}")).unwrap()
    });

    // rm -r: remove the trees tar just produced (walk first to warm).
    let _ = find_name(k, p, "/unpack-warm", "x").unwrap();
    let mut rm_targets: Vec<String> = (0..reps).map(|r| format!("/unpack-{r}")).collect();
    rm_targets.push("/unpack-warm".to_string());
    measured("rm -r", &mut out, &mut |rep| {
        rm_r(k, p, &rm_targets[rep]).unwrap()
    });

    // make: first build warms and creates objects; measured rebuilds.
    let _ = make_build(k, p, &m, "/src").unwrap();
    measured("make", &mut out, &mut |_| {
        make_build(k, p, &m, "/src").unwrap()
    });

    // du -s.
    let _ = du_s(k, p, "/src").unwrap();
    measured("du -s", &mut out, &mut |_| du_s(k, p, "/src").unwrap().0);

    // updatedb.
    let _ = dc_workloads::apps::updatedb(k, p, "/src").unwrap();
    measured("updatedb", &mut out, &mut |_| {
        dc_workloads::apps::updatedb(k, p, "/src").unwrap().0
    });

    // git status / git diff.
    let _ = git_status(k, p, &m, "/src").unwrap();
    measured("git status", &mut out, &mut |_| {
        git_status(k, p, &m, "/src").unwrap()
    });
    let _ = git_diff(k, p, &m, "/src").unwrap();
    measured("git diff", &mut out, &mut |_| {
        git_diff(k, p, &m, "/src").unwrap()
    });
    out
}

fn app_table(title: &str, scale: Scale, cold: bool) {
    banner(title);
    let mut t = Table::new(&[
        "application",
        "l",
        "#",
        "unmod (s)",
        "hit%",
        "neg%",
        "opt (s)",
        "gain",
    ]);
    let unmod = run_apps(DcacheConfig::baseline(), scale, cold);
    let opt = run_apps(DcacheConfig::optimized(), scale, cold);
    for (u, o) in unmod.iter().zip(&opt) {
        t.row(vec![
            u.name.to_string(),
            format!("{:.0}", u.report.avg_path_len()),
            format!("{:.0}", u.report.avg_components()),
            format!("{:.4}", u.report.seconds()),
            pct(u.hit_rate),
            pct(u.neg_rate),
            format!("{:.4}", o.report.seconds()),
            gain_pct(u.report.seconds(), o.report.seconds()),
        ]);
    }
    t.print();
}

/// Table 1: warm-cache application benchmarks.
pub fn table1(scale: Scale) {
    app_table("Table 1: application benchmarks, warm cache", scale, false);
}

/// Table 2: cold-cache application benchmarks.
pub fn table2(scale: Scale) {
    app_table("Table 2: application benchmarks, cold cache", scale, true);
}

// ---------------------------------------------------------------------
// Table 3: Apache directory-listing throughput.
// ---------------------------------------------------------------------

/// Table 3: generated-directory-listing requests per second.
pub fn table3(scale: Scale) {
    banner("Table 3: Apache directory-listing throughput (req/s)");
    let sizes: Vec<usize> = [10usize, 100, 1000, 10000]
        .into_iter()
        .filter(|&s| s <= scale.max_dir)
        .collect();
    let mut t = Table::new(&["files", "unmodified", "optimized", "gain"]);
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for (_, config) in config_pair() {
        let s = kernel_with(config);
        for (i, &n) in sizes.iter().enumerate() {
            let dir = format!("/www{n}");
            build_flat_dir(&s.kernel, &s.proc, &dir, n).unwrap();
            let _ = apache::listing_request(&s.kernel, &s.proc, &dir).unwrap();
            let rate = apache::serve(&s.kernel, &s.proc, &dir, scale.duration_ms).unwrap();
            rates[i].push(rate);
        }
    }
    for (i, &n) in sizes.iter().enumerate() {
        let (unmod, opt) = (rates[i][0], rates[i][1]);
        t.row(vec![
            n.to_string(),
            format!("{unmod:.0}"),
            format!("{opt:.0}"),
            format!("{:+.1}%", (opt / unmod - 1.0) * 100.0),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Table 4: lines of code.
// ---------------------------------------------------------------------

/// Table 4 analog: lines of Rust per crate/role in this repository.
pub fn table4() {
    banner("Table 4: lines of code by component");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let areas: [(&str, &str); 9] = [
        ("crates/core", "the paper's dcache (contribution)"),
        ("crates/vfs", "VFS + walkers (contribution + substrate)"),
        ("crates/sighash", "path signatures (contribution)"),
        ("crates/fs", "file systems (substrate)"),
        ("crates/blockdev", "block device + page cache (substrate)"),
        ("crates/cred", "credentials + LSMs (substrate)"),
        ("crates/workloads", "workload generators (evaluation)"),
        ("crates/bench", "benchmark harness (evaluation)"),
        ("tests", "integration tests"),
    ];
    let mut t = Table::new(&["area", "role", "rust LoC"]);
    let mut total = 0usize;
    for (area, role) in areas {
        let loc = count_rs_lines(&root.join(area));
        total += loc;
        t.row(vec![area.to_string(), role.to_string(), loc.to_string()]);
    }
    t.row(vec!["TOTAL".to_string(), String::new(), total.to_string()]);
    t.print();
}

fn count_rs_lines(dir: &std::path::Path) -> usize {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            total += count_rs_lines(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            if let Ok(content) = std::fs::read_to_string(&path) {
                total += content.lines().count();
            }
        }
    }
    total
}

// ---------------------------------------------------------------------
// §6.1 space overhead.
// ---------------------------------------------------------------------

/// The §6.1 space-overhead report: dentry size, PCC/DLHT footprints, and
/// DLHT bucket occupancy (§6.5).
pub fn space(scale: Scale) {
    banner("Space overhead (§6.1) and DLHT occupancy (§6.5)");
    let s = kernel_with(DcacheConfig::optimized());
    let m = build_tree(
        &s.kernel,
        &s.proc,
        "/src",
        &TreeSpec::source_like(scale.tree_files),
    )
    .unwrap();
    warm_all(&s, &m);
    let report = s.kernel.dcache.space_report();
    println!("{report}");
    let occ = s.kernel.dcache.dlht_occupancy();
    let total: u64 = occ.iter().sum();
    println!(
        "DLHT buckets: {} empty ({:.0}%), {} with 1, {} with 2, {} with 3+",
        occ[0],
        occ[0] as f64 / total.max(1) as f64 * 100.0,
        occ[1],
        occ[2],
        occ[3]
    );
    space_per_ns(scale);
}

/// The §14 multi-tenant addendum to the space report: provision a small
/// fleet of namespaces on one kernel (sharded tenant DLHTs + per-cred
/// PCCs) and print the top-K tenants by resident bytes.
fn space_per_ns(scale: Scale) {
    const TOP_K: usize = 8;
    let tenants = if scale.is_full() { 64 } else { 24 };
    let files = 16usize;
    banner("Per-namespace footprint (§14): top tenants by resident bytes");
    let cfg = DcacheConfig::optimized()
        .with_tenant_buckets(1 << 8)
        .with_pcc_max_resident(1024);
    let s = kernel_with(cfg);
    let k = &s.kernel;
    k.mkdir(&s.proc, "/tenants", 0o755).unwrap();
    let mut procs = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let proc = k.spawn(&s.proc);
        let ns = k.unshare_ns(&proc).expect("unshare");
        let dir = format!("/tenants/t{t}");
        k.mkdir(&proc, &dir, 0o755).unwrap();
        // Tenant populations are deliberately skewed (tenant t owns
        // t%4+1 quarters of `files`) so the top-K ordering is visible.
        let count = files * (t % 4 + 1) / 4;
        let mut paths = Vec::with_capacity(count);
        for j in 0..count {
            let p = format!("{dir}/f{j}");
            let fd = k.open(&proc, &p, OpenFlags::create(), 0o644).unwrap();
            k.close(&proc, fd).unwrap();
            paths.push(p);
        }
        let cred = Cred::user(2000 + t as u32, 200);
        k.chown(&proc, &dir, Some(cred.uid), Some(200)).unwrap();
        proc.set_cred(cred);
        for p in &paths {
            let _ = k.stat(&proc, p);
        }
        procs.push((ns.id, proc, paths));
    }
    let hits: std::collections::HashMap<u64, (u64, u64)> = k
        .dcache
        .ns_hit_stats()
        .into_iter()
        .map(|(ns, h, m)| (ns, (h, m)))
        .collect();
    let mut rows: Vec<(u64, u64, u64, usize, u64)> = k
        .dcache
        .ns_footprints()
        .into_iter()
        .map(|(ns, fp)| {
            let (pccs, pcc_bytes) = k.dcache.pcc_stats_for_ns(ns);
            (ns, fp.total_bytes() as u64, fp.entries, pccs, pcc_bytes)
        })
        .collect();
    rows.sort_by(|a, b| (b.1 + b.4).cmp(&(a.1 + a.4)).then(a.0.cmp(&b.0)));
    let mut t = Table::new(&[
        "ns",
        "dlht bytes",
        "entries",
        "dlht hits",
        "dlht miss",
        "pccs",
        "pcc bytes",
        "total",
    ]);
    for &(ns, dlht_bytes, entries, pccs, pcc_bytes) in rows.iter().take(TOP_K) {
        let (h, m) = hits.get(&ns).copied().unwrap_or((0, 0));
        t.row(vec![
            if ns == 0 {
                "0 (init)".into()
            } else {
                ns.to_string()
            },
            dlht_bytes.to_string(),
            entries.to_string(),
            h.to_string(),
            m.to_string(),
            pccs.to_string(),
            pcc_bytes.to_string(),
            (dlht_bytes + pcc_bytes).to_string(),
        ]);
    }
    t.print();
    println!(
        "{} namespaces, {} DLHT tables, {} resident PCCs (showing top {TOP_K})",
        k.namespace_count(),
        k.dcache.dlht_count(),
        k.dcache.resident_pccs()
    );
    drop(procs);
}

fn warm_all(s: &Setup, m: &Manifest) {
    for f in &m.files {
        let _ = s.kernel.stat(&s.proc, f);
    }
}

// ---------------------------------------------------------------------
// Ablations (design-choice benches promised by DESIGN.md).
// ---------------------------------------------------------------------

/// Ablation: each optimization toggled off independently, measured on a
/// mixed lookup workload (stat hot paths + misses + readdir).
pub fn ablation(scale: Scale) {
    banner("Ablation: per-feature contribution (mixed workload, µs/op)");
    let variants: Vec<(&str, DcacheConfig)> = vec![
        ("baseline", DcacheConfig::baseline()),
        ("full optimized", DcacheConfig::optimized()),
        (
            "no fastpath",
            DcacheConfig {
                fastpath: false,
                ..DcacheConfig::optimized()
            },
        ),
        (
            "no completeness",
            DcacheConfig {
                dir_completeness: false,
                ..DcacheConfig::optimized()
            },
        ),
        (
            "no deep negatives",
            DcacheConfig {
                deep_negative: false,
                ..DcacheConfig::optimized()
            },
        ),
        (
            "no neg-on-unlink",
            DcacheConfig {
                neg_on_unlink: false,
                ..DcacheConfig::optimized()
            },
        ),
    ];
    let mut t = Table::new(&["variant", "µs/op", "vs optimized"]);
    let mut opt_lat = 0.0;
    let mut rows = Vec::new();
    for (name, config) in variants {
        let s = kernel_with(config);
        lmbench::setup(&s.kernel, &s.proc).unwrap();
        build_flat_dir(&s.kernel, &s.proc, "/abl", 200).unwrap();
        let _ = s.kernel.list_dir(&s.proc, "/abl").unwrap();
        let mut i = 0usize;
        let rate = ops_per_sec(scale.duration_ms, || {
            i = i.wrapping_add(1);
            match i % 4 {
                0 => {
                    let _ = s.kernel.stat(&s.proc, Pattern::Comp4.path());
                }
                1 => {
                    let _ = s.kernel.stat(&s.proc, Pattern::NegF.path());
                }
                2 => {
                    let _ = s.kernel.stat(&s.proc, "/abl/f000050");
                }
                _ => {
                    let _ = s.kernel.list_dir(&s.proc, "/abl");
                }
            }
        });
        let us_per_op = 1e6 / rate;
        if name == "full optimized" {
            opt_lat = us_per_op;
        }
        rows.push((name, us_per_op));
    }
    for (name, lat) in rows {
        t.row(vec![
            name.to_string(),
            format!("{lat:.2}"),
            if opt_lat > 0.0 {
                format!("{:+.1}%", (lat / opt_lat - 1.0) * 100.0)
            } else {
                "-".to_string()
            },
        ]);
    }
    t.print();
}

/// §6.3's PCC-sensitivity observation: running `updatedb` over a tree
/// whose hot directory set overflows the PCC cuts the gain (the paper
/// measures 29% → 16.5% when the tree is twice the PCC's reach).
pub fn pcc_sensitivity(scale: Scale) {
    banner("PCC sensitivity: updatedb gain vs PCC size (§6.3)");
    let tree = scale.tree_files.max(800);
    let mut t = Table::new(&["PCC size", "updatedb (ms)", "vs unmod", "pcc hit rate"]);
    // Baseline reference time.
    let best_of = |s: &Setup| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..5 {
            let (r, _) = dc_workloads::apps::updatedb(&s.kernel, &s.proc, "/usr").unwrap();
            best = best.min(r.wall_ns as f64 / 1e6);
        }
        best
    };
    let base_ms = {
        let s = kernel_with(DcacheConfig::baseline());
        build_tree(&s.kernel, &s.proc, "/usr", &TreeSpec::source_like(tree)).unwrap();
        let _ = dc_workloads::apps::updatedb(&s.kernel, &s.proc, "/usr").unwrap();
        best_of(&s)
    };
    t.row(vec![
        "(baseline)".into(),
        format!("{base_ms:.2}"),
        "-".into(),
        "-".into(),
    ]);
    for pcc_bytes in [64 * 1024usize, 8 * 1024, 2 * 1024] {
        let config = DcacheConfig {
            pcc_bytes,
            ..DcacheConfig::optimized()
        };
        let s = kernel_with(config);
        build_tree(&s.kernel, &s.proc, "/usr", &TreeSpec::source_like(tree)).unwrap();
        let _ = dc_workloads::apps::updatedb(&s.kernel, &s.proc, "/usr").unwrap();
        let cred = s.proc.cred();
        let pcc = s.kernel.dcache.pcc_for(&cred, s.proc.namespace().id);
        pcc.reset_stats();
        let ms = best_of(&s);
        let (hits, misses) = pcc.hit_stats();
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        t.row(vec![
            format!("{} KB", pcc_bytes / 1024),
            format!("{ms:.2}"),
            gain_pct(base_ms, ms),
            format!("{:.1}%", rate * 100.0),
        ]);
    }
    t.print();
}

/// §6.1's scalability note on rename: concurrent renames of different
/// files contend on the global rename lock in both designs; the
/// optimizations must not make it worse.
pub fn rename_scalability(scale: Scale) {
    banner("Rename latency under concurrent renamers (µs, §6.1)");
    let mut t = Table::new(&["threads", "unmodified", "optimized"]);
    let nproc = announce_nproc();
    let threads: Vec<usize> = [1usize, 2, 4, 8, 12]
        .into_iter()
        .filter(|&n| n <= scale.max_threads.max(2).min(nproc))
        .collect();
    let mut rows: Vec<Vec<String>> = threads.iter().map(|n| vec![n.to_string()]).collect();
    let mut lats: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, config) in config_pair() {
        let s = kernel_with(config);
        let mut lat_by_threads = Vec::new();
        for (i, &n) in threads.iter().enumerate() {
            // Per-thread private files, renamed back and forth.
            for tid in 0..n {
                let fd = s
                    .kernel
                    .open(&s.proc, &format!("/r{tid}-a"), OpenFlags::create(), 0o644)
                    .unwrap();
                s.kernel.close(&s.proc, fd).unwrap();
                let _ = s.kernel.unlink(&s.proc, &format!("/r{tid}-b"));
            }
            let lat = parallel_latency(&s, n, scale.duration_ms, |k, p, tid, i| {
                let (from, to) = if i % 2 == 0 {
                    (format!("/r{tid}-a"), format!("/r{tid}-b"))
                } else {
                    (format!("/r{tid}-b"), format!("/r{tid}-a"))
                };
                k.rename(p, &from, &to).unwrap();
            });
            rows[i].push(us(lat));
            lat_by_threads.push(lat);
            // Restore names for the next round.
            for tid in 0..n {
                let _ = s
                    .kernel
                    .rename(&s.proc, &format!("/r{tid}-b"), &format!("/r{tid}-a"));
            }
        }
        lats.push((name, lat_by_threads));
    }
    for r in rows {
        t.row(r);
    }
    t.print();
    for (name, lat) in &lats {
        print_two_thread_ratio(name, &threads, lat);
    }
}

/// Mean per-op latency with `n` concurrent threads hammering `op`, which
/// is handed its thread's index and an iteration counter.
fn parallel_latency(
    s: &Setup,
    n: usize,
    duration_ms: u64,
    op: impl Fn(&Kernel, &Process, usize, u64) + Sync,
) -> f64 {
    let total_ops = std::sync::atomic::AtomicU64::new(0);
    let kernel = &s.kernel;
    let procs: Vec<Arc<Process>> = (0..n).map(|_| kernel.spawn(&s.proc)).collect();
    let t0 = Instant::now();
    let budget = std::time::Duration::from_millis(duration_ms);
    std::thread::scope(|sc| {
        for (tid, p) in procs.iter().enumerate() {
            let op = &op;
            let total_ops = &total_ops;
            sc.spawn(move || {
                let mut i = 0u64;
                while t0.elapsed() < budget {
                    // One clock read per 64 ops: read per op, it is a
                    // tenth of a warm `stat`.
                    for _ in 0..64 {
                        op(kernel, p, tid, i);
                        i += 1;
                    }
                }
                total_ops.fetch_add(i, Ordering::Relaxed);
            });
        }
    });
    let elapsed = t0.elapsed().as_nanos() as f64;
    let ops = total_ops.load(Ordering::Relaxed).max(1) as f64;
    elapsed * n as f64 / ops
}

// ---------------------------------------------------------------------
// Metrics dump: the observability subsystem end-to-end.
// ---------------------------------------------------------------------

/// Drives a mixed metadata workload (stat/open/unlink plus the tree
/// build's mkdir/create/write) on an observability-enabled optimized
/// kernel, prints the unified metrics snapshot, and writes the JSON
/// export to `out`. Returns the write error, if any, so the caller
/// can exit non-zero.
pub fn metrics(scale: Scale, out: &str) -> std::io::Result<()> {
    banner("Metrics: unified observability snapshot (optimized config)");
    let s = kernel_with_obs(DcacheConfig::optimized());
    let k = &s.kernel;
    let p = &s.proc;
    let spec = TreeSpec::source_like(scale.tree_files);
    let m = build_tree(k, p, "/src", &spec).unwrap();
    // Drop construction-phase samples; everything below is measured.
    k.reset_stats();
    for d in &m.dirs {
        k.stat(p, d).unwrap();
    }
    for f in &m.files {
        k.stat(p, f).unwrap();
        let fd = k.open(p, f, OpenFlags::read_only(), 0).unwrap();
        k.close(p, fd).unwrap();
    }
    // Misses exercise the negative path and the slowpath refill.
    for i in 0..m.files.len().min(200) {
        let _ = k.stat(p, &format!("/src/no-such-{i}"));
    }
    for f in m.files.iter().step_by(4) {
        k.unlink(p, f).unwrap();
    }
    let snap = s.kernel.metrics_snapshot();
    print!("{}", snap.to_text());
    std::fs::write(out, snap.to_json())?;
    println!("metrics JSON written to {out}");
    Ok(())
}

/// Runs everything in paper order.
pub fn all(scale: Scale) {
    fig1(scale);
    fig2(scale);
    fig3(scale);
    fig6(scale);
    fig7(scale);
    fig8(scale);
    fig9(scale);
    fig10(scale);
    table1(scale);
    table2(scale);
    table3(scale);
    table4();
    space(scale);
    ablation(scale);
    pcc_sensitivity(scale);
    rename_scalability(scale);
}
