//! Command line of the standing benchmark.
//!
//! ```text
//! dcache-benchmark run [--workload W] --seed N [--seconds S] [--trace [0|1]] [--out DIR]
//! dcache-benchmark compare A.json B.json
//! dcache-benchmark metrics [--json]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of its standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Without
//! `--workload` it runs all four, each in a process of its own (so
//! `peak_rss_mib` and `setup_s` are per workload), and writes one
//! combined result file.

use dcache_benchmark::json::{self, Value};
use dcache_benchmark::metrics::{self, Kind, RUN_SECONDS};
use dcache_benchmark::run::{self, RunOpts};
use dcache_benchmark::{compare, host, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  dcache-benchmark run [--workload W] --seed N [--seconds S] [--trace [0|1]] [--out DIR]
  dcache-benchmark compare A.json B.json
  dcache-benchmark metrics [--json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` flags.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut seed = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                let n = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                seed = Some(n.map_err(|_| format!("--seed: `{v}` is not a number"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                parsed.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a whole number"))?;
            }
            "--out" => parsed.out_dir = PathBuf::from(value("--out")?),
            "--trace" => {
                // `--trace` alone is the traced run; `--trace 0|1` is
                // how the driver spells both.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    parsed.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    Ok(parsed)
}

fn result_path(dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { "traced" } else { "untraced" };
    dir.join(format!("result-{workload}-seed{seed}-{kind}.json"))
}

fn write_file(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    match &a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

fn run_one(workload: &str, a: &RunArgs) -> Result<ExitCode, String> {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        out_dir: a.out_dir.clone(),
    };
    let result = run::run(&opts)?;
    let stamp = host::stamp();
    let path = result_path(&a.out_dir, workload, a.seed, a.trace);
    write_file(&path, &result.to_json(&stamp))?;
    print!("{}", result.to_text());
    println!("  host {}", stamp.to_line());
    println!("  result file {}", path.display());
    println!("{}", result.driver_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All four workloads, one process each, then one combined result file.
fn run_all(a: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut combined = Value::obj();
    let mut all_ok = true;
    for w in workloads::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out_dir);
        // `status` waits for the child; its output goes straight through.
        let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
        all_ok &= status.success();
        let path = result_path(&a.out_dir, w, a.seed, a.trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        combined.set(
            w,
            json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let kind = if a.trace { "traced" } else { "untraced" };
    let path = a.out_dir.join(format!("run-seed{}-{kind}.json", a.seed));
    let doc = Value::obj()
        .with("schema", "dcache-benchmark/v1")
        .with("seed", a.seed)
        .with("traced", a.trace)
        .with("host", host::stamp())
        .with("workloads", combined);
    write_file(&path, &doc)?;
    println!("combined result file {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [] => {
            for m in metrics::CATALOGUE {
                let kind = match m.kind {
                    Kind::EndToEnd => "end-to-end".to_string(),
                    Kind::Scoped(ws) => format!("end-to-end ({})", ws.join(", ")),
                    Kind::Demoted => "end-to-end, not gated".to_string(),
                    Kind::Layer => "layer".to_string(),
                };
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(" bound {:.0}%", 100.0 * b));
                println!(
                    "{:<44} {:<9} {:<6} {kind}{bound}\n    {}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.note
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        [flag] if flag == "--json" => {
            print!("{}", metrics::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}
