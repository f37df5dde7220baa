//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--seed <N>] [--metrics-out <path>] <experiment>...
//! experiments: fig1 fig2 fig3 fig6 fig7 fig8 fig9 fig10
//!              table1 table2 table3 table4 space ablation pcc rename-scale
//!              faults crash fsck serve fleet all
//! ```
//!
//! Default scale is `--quick` (seconds per experiment); `--full`
//! approaches the paper's parameters (minutes). `fig8` and the five
//! campaigns below each leave a host-stamped `BENCH_<name>.json` under
//! `target/repro/` (`dc_bench::report`); no run touches a tracked file.
//! A latency or throughput number is gated and compared in `benchmark/`
//! (`dcache-benchmark run` / `compare`), not here.
//!
//! `faults` replays the fig. 8 workload through the standard seeded
//! fault campaign (`--seed N`, default 0x5EED) and reports hit rate and
//! latency before, during, and after recovery (`BENCH_faults.json`).
//!
//! `crash` runs the seeded 200-point power-cut campaign: every captured
//! image must remount, pass `fsck`, and match a committed-prefix shadow
//! tree; the journal on/off overhead ablation closes the report.
//! A warm-restart phase then remounts every image with the persisted
//! directory index (DESIGN.md §15): typed rehydration outcomes, zero
//! wrong lookups against the recovered tree, a seeded index-corruption
//! sub-campaign, and the ops-to-90%-hit-rate ablation (warm vs cold
//! mount, floor 5×). Results: `BENCH_crash.json`, `BENCH_warm.json`.
//! `fsck` runs the workload once, cuts power, and prints the recovered
//! image's full invariant report.
//!
//! `serve` spawns the batched metadata server (`dc-server`)
//! in-process and drives it with a seeded 64-client load generator:
//! steady-state throughput, a memory-pressure shed/recover cycle, the
//! batch-size ablation, and the admission-control ablation
//! (`BENCH_serve.json`); the run fails (exit 1) on any unexpected
//! request error, a throughput floor miss, or incomplete recovery.
//!
//! `fleet` provisions the `dc-fleet` multi-tenant simulator — 1000+
//! mount namespaces, 10k+ credentials, three traffic classes churning
//! inside a fixed memory budget — and reports per-class hit rate,
//! latency, resident bytes, and teardown cost (`BENCH_fleet.json`); the
//! run fails (exit 1) on a hit-rate floor miss, a budget overrun, or a
//! teardown leak.
//!
//! `--metrics-out <path>` runs the observability workload and writes
//! the unified metrics snapshot (latency histograms, trace-event
//! counters, dcache/syscall/page-cache stats) as JSON to `path`. It may
//! be given alone or combined with experiments; when combined, the
//! metrics dump runs after the experiments finish.

use dc_bench::{crash, faults, figs, fleet, serve, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--full] [--seed <N>] [--metrics-out <path>] <experiment>...\n\
         experiments: fig1 fig2 fig3 fig6 fig7 fig8 fig9 fig10\n\
         \x20            table1 table2 table3 table4 space ablation pcc rename-scale\n\
         \x20            faults crash fsck serve fleet all"
    );
    std::process::exit(2);
}

/// Accepts decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut seed: u64 = 0x5EED;
    let mut metrics_out: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => match it.next().as_deref().and_then(parse_seed) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed requires an integer argument");
                    usage();
                }
            },
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(path),
                None => {
                    eprintln!("--metrics-out requires a path argument");
                    usage();
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            _ => wanted.push(a),
        }
    }
    let scale = if full { Scale::full() } else { Scale::quick() };
    if wanted.is_empty() && metrics_out.is_none() {
        usage();
    }
    for w in &wanted {
        match w.as_str() {
            "fig1" => figs::fig1(scale),
            "fig2" => figs::fig2(scale),
            "fig3" => figs::fig3(scale),
            "fig6" => figs::fig6(scale),
            "fig7" => figs::fig7(scale),
            "fig8" => figs::fig8(scale),
            "fig9" => figs::fig9(scale),
            "fig10" => figs::fig10(scale),
            "table1" => figs::table1(scale),
            "table2" => figs::table2(scale),
            "table3" => figs::table3(scale),
            "table4" => figs::table4(),
            "space" => figs::space(scale),
            "ablation" => figs::ablation(scale),
            "pcc" => figs::pcc_sensitivity(scale),
            "rename-scale" => figs::rename_scalability(scale),
            "faults" => faults::faults(scale, seed),
            "serve" => {
                if !serve::serve(scale, seed) {
                    std::process::exit(1);
                }
            }
            "crash" => {
                if !crash::crash(scale, seed) {
                    std::process::exit(1);
                }
            }
            "fsck" => crash::fsck_cmd(scale, seed),
            "fleet" => {
                if !fleet::fleet(scale, seed) {
                    std::process::exit(1);
                }
            }
            "all" => figs::all(scale),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = metrics_out {
        if let Err(e) = figs::metrics(scale, &path) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
