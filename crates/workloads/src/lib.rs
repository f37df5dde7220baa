//! Workload generators and application emulators for the evaluation.
//!
//! Everything the paper's §6 drives against the kernel lives here:
//!
//! - [`tree`] — file-tree builders (Linux-source-like hierarchies, flat
//!   directories of parametric size) plus a manifest of created paths.
//! - [`lmbench`] — the extended LMBench `lat_syscall` patterns of
//!   Figure 6 (`1-comp` … `8-comp`, `link-f`, `link-d`, `neg-f`, `neg-d`,
//!   `1-dotdot`, `4-dotdot`) with latency measurement helpers.
//! - [`apps`] — emulators for the command-line applications of Tables 1–2
//!   (`find`, `tar x`, `rm -r`, `make`, `du -s`, `updatedb`,
//!   `git status`, `git diff`): each issues the same syscall mix the real
//!   tool is dominated by and reports wall time plus path statistics.
//! - [`maildir`] — the Dovecot IMAP maildir server simulation of
//!   Figure 10 (mark/unmark = rename + directory re-read).
//! - [`apache`] — the Apache directory-listing generator of Table 3.
//! - [`measure`] — simple timing/statistics helpers shared by the
//!   benchmark harness (median-of-N, ops/sec runners).

pub mod apache;
pub mod apps;
pub mod lmbench;
pub mod maildir;
pub mod measure;
pub mod tree;

pub use measure::{ops_per_sec, time_ns, Summary};

/// FNV-1a over a path list, each path closed by a NUL: the tests' pin on
/// what a seed generates.
#[cfg(test)]
pub(crate) fn path_digest<S: AsRef<str>>(paths: impl IntoIterator<Item = S>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in paths {
        for b in p.as_ref().bytes().chain([0]) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
