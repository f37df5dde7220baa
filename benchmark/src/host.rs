//! The host stamp every result carries, and process memory readings.

use crate::json::Value;
use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // `output` waits for the child, so nothing outlives the benchmark.
    // The ceiling keeps `git` from looking for a repository above the
    // checkout: the benchmark reads nothing outside it.
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", CHECKOUT_PARENT)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The directory that holds the checkout.
const CHECKOUT_PARENT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host CPU model, `nproc`, git revision and dirty flag (both `unknown`
/// outside a git checkout), and `rustc -V`.
pub fn stamp() -> Value {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let rev = command_line("git", &["-C", root, "rev-parse", "HEAD"]);
    let dirty = rev.as_ref().and_then(|_| {
        command_line("git", &["-C", root, "status", "--porcelain"]).map(|s| !s.is_empty())
    });
    Value::obj()
        .with("cpu_model", cpu_model())
        .with("nproc", nproc())
        .with("git_rev", rev.unwrap_or_else(|| "unknown".to_string()))
        .with("git_dirty", dirty.map_or(Value::Null, Value::Bool))
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        )
}

/// A `kB` field of `/proc/self/status`, in MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}
