//! What the crash and warm-restart tests share: the disk and memfs under
//! test, a name-addressed metadata op over memfs, its `apply`, and the
//! run that records committed-op boundaries.

// Each test binary compiles its own copy and uses its share of the ops.
#![allow(dead_code)]

use dcache_repro::blockdev::{CachedDisk, CrashMonitor, DiskConfig, LatencyModel};
use dcache_repro::fs::{FileSystem, MemFs, MemFsConfig, SetAttr};
use std::sync::Arc;

pub fn new_disk(capacity_blocks: u64, cache_pages: usize) -> Arc<CachedDisk> {
    Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks,
        cache_pages,
        latency: LatencyModel::free(),
        ..Default::default()
    }))
}

pub fn new_fs(disk: Arc<CachedDisk>, max_inodes: u64) -> Arc<MemFs> {
    let config = MemFsConfig {
        max_inodes,
        ..Default::default()
    };
    MemFs::mkfs(disk, config).unwrap()
}

/// One metadata op on `name` in the top-level directory `dir` (`""`: the
/// root itself). Resolving by name at apply time keeps a stream
/// replayable on any file-system state.
#[derive(Clone, Debug)]
pub enum Op {
    Mkdir(String, String),
    Create(String, String),
    Symlink(String, String),
    Write(String, String, usize),
    Unlink(String, String),
    Rmdir(String, String),
    Rename(String, String, String, String),
    Chmod(String, String, u16),
}

/// Applies one op; `true` when it succeeded. Failures are expected
/// (ghost unlinks, creates over directories, …) and commit nothing.
pub fn apply(fs: &MemFs, op: &Op) -> bool {
    let root = fs.root_ino();
    let dir = |d: &str| match d {
        "" => Ok(root),
        d => fs.lookup(root, d).map(|a| a.ino),
    };
    let ino = |d: &str, n: &str| dir(d).and_then(|di| fs.lookup(di, n)).map(|a| a.ino);
    match op {
        Op::Mkdir(d, n) => dir(d).and_then(|di| fs.mkdir(di, n, 0o755, 0, 0)).is_ok(),
        Op::Create(d, n) => dir(d).and_then(|di| fs.create(di, n, 0o644, 0, 0)).is_ok(),
        Op::Symlink(d, n) => dir(d)
            .and_then(|di| fs.symlink(di, n, "../target", 0, 0))
            .is_ok(),
        // Whatever the name resolves to: a directory or a symlink refuses.
        Op::Write(d, n, len) => ino(d, n)
            .and_then(|i| fs.write(i, 0, &vec![0x5Au8; *len]))
            .is_ok(),
        Op::Unlink(d, n) => dir(d).and_then(|di| fs.unlink(di, n)).is_ok(),
        Op::Rmdir(d, n) => dir(d).and_then(|di| fs.rmdir(di, n)).is_ok(),
        Op::Rename(od, on, nd, nn) => match (dir(od), dir(nd)) {
            (Ok(a), Ok(b)) => fs.rename(a, on, b, nn).is_ok(),
            _ => false,
        },
        Op::Chmod(d, n, mode) => {
            let mode = SetAttr {
                mode: Some(*mode),
                ..Default::default()
            };
            ino(d, n).and_then(|i| fs.setattr(i, mode)).is_ok()
        }
    }
}

/// Syncs, then runs the stream (under `monitor`, when given); returns the
/// boundaries `(committed_seq, ops_applied)` after each success and the
/// device writes issued meanwhile.
pub fn run_ops(
    fs: &MemFs,
    ops: &[Op],
    monitor: Option<&Arc<CrashMonitor>>,
) -> (Vec<(u64, usize)>, u64) {
    fs.sync().unwrap();
    let writes0 = fs.disk().stats().device_writes;
    if let Some(m) = monitor {
        m.arm();
    }
    let mut boundaries = vec![(fs.journal_seq(), 0usize)];
    for (i, op) in ops.iter().enumerate() {
        if apply(fs, op) {
            let seq = fs.journal_seq();
            match boundaries.last_mut() {
                Some(last) if last.0 == seq => last.1 = i + 1,
                _ => boundaries.push((seq, i + 1)),
            }
        }
    }
    if let Some(m) = monitor {
        m.disarm();
    }
    (boundaries, fs.disk().stats().device_writes - writes0)
}
