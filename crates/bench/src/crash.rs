//! `repro crash` — the seeded power-cut campaign (DESIGN.md §11), plus
//! `repro fsck` — the standalone metadata invariant checker.
//!
//! The campaign runs the fig. 8 lookup ladder interleaved with a seeded
//! metadata mutation stream, cuts power at [`CAMPAIGN_POINTS`] device
//! write ordinals drawn deterministically from the seed (a quarter of
//! them tearing the in-flight write), and then, for every captured
//! image:
//!
//!   1. remounts — journal recovery must succeed,
//!   2. runs `fsck` — every metadata invariant must hold,
//!   3. rebuilds the exact recovered prefix on a shadow file system and
//!      compares the full metadata trees — recovery must land on a
//!      *committed-operation prefix* of the workload, never a torn or
//!      reordered state,
//!   4. confirms the remount started cold (real device reads).
//!
//! Cut-point enumeration needs the total write count up front, so the
//! campaign runs twice: pass 1 counts device writes, pass 2 attaches
//! the sampled [`CrashMonitor`] and captures images. Both passes replay
//! the identical seeded workload.
//!
//! The journal's price closes the report: warm fig. 8 ladder rounds must
//! cause no memfs call and no journal commit — the journal prices
//! mutations, never warm lookups — and metadata churn is timed.

use crate::report::{self, fields, Json, Stamp};
use crate::setup::{kernel_on_disk, DiskSetup, Scale};
use crate::table::{us, Table};
use dc_blockdev::{CachedDisk, CrashImage, CrashMonitor, DiskConfig, LatencyModel};
use dc_fault::SplitMix64;
use dc_fs::{fsck, tree_sig, FileSystem, MemFs, MemFsConfig, SetAttr};
use dc_vfs::{Kernel, OpenFlags, Process};
use dc_workloads::lmbench::{self, Pattern};
use dcache_core::DcacheConfig;
use std::sync::Arc;
use std::time::Instant;

/// Power-cut points per campaign (the ISSUE acceptance bar).
pub const CAMPAIGN_POINTS: usize = 200;

/// Probability that a cut tears the in-flight write in half.
const TEAR_PROB: f64 = 0.25;

/// Cap on the hot working set the campaign keeps warm and checkpoints
/// into the warm index (bounds the rewarm cost at full scale).
const HOT_CAP: usize = 1024;

/// Op cadence of the rewarm + warm-checkpoint cycle. Offset from the
/// 96-op cache-drop cadence so cut points land inside drop windows,
/// rewarm windows, and index-checkpoint flush windows alike.
const WARM_EVERY: usize = 192;

/// Capacity/cache sizing: small enough that the workload overflows the
/// page cache (dirty evictions reach the device at awkward moments —
/// exactly the traffic the write-ordering contract must survive).
const CAPACITY_BLOCKS: u64 = 1 << 16;
const CACHE_PAGES: usize = 2048;
const MAX_INODES: u64 = 1 << 14;

/// One resolved metadata operation. The campaign logs the concrete
/// arguments (inode numbers, names) rather than generator state, so a
/// prefix of the log replays mechanically on a fresh file system.
#[derive(Clone, Debug)]
enum Op {
    Create {
        dir: u64,
        name: String,
        mode: u16,
    },
    Mkdir {
        dir: u64,
        name: String,
        mode: u16,
    },
    Symlink {
        dir: u64,
        name: String,
        target: String,
    },
    Link {
        dir: u64,
        name: String,
        ino: u64,
    },
    Unlink {
        dir: u64,
        name: String,
    },
    Rmdir {
        dir: u64,
        name: String,
    },
    Rename {
        od: u64,
        on: String,
        nd: u64,
        nn: String,
    },
    Chmod {
        ino: u64,
        mode: u16,
    },
    Write {
        ino: u64,
        offset: u64,
        len: usize,
    },
}

impl Op {
    /// Applies the operation: `None` if it failed, else the inode a
    /// create-like op produced (0 for the rest), which lets the generator
    /// track objects without re-looking them up. MemFs is deterministic,
    /// so a prefix replay reproduces the exact outcome (including
    /// allocator decisions) of the original run.
    fn apply(&self, fs: &MemFs) -> Option<u64> {
        match self {
            Op::Create { dir, name, mode } => {
                fs.create(*dir, name, *mode, 0, 0).ok().map(|a| a.ino)
            }
            Op::Mkdir { dir, name, mode } => fs.mkdir(*dir, name, *mode, 0, 0).ok().map(|a| a.ino),
            Op::Symlink { dir, name, target } => {
                fs.symlink(*dir, name, target, 0, 0).ok().map(|a| a.ino)
            }
            Op::Link { dir, name, ino } => fs.link(*dir, name, *ino).ok().map(|a| a.ino),
            Op::Unlink { dir, name } => fs.unlink(*dir, name).ok().map(|_| 0),
            Op::Rmdir { dir, name } => fs.rmdir(*dir, name).ok().map(|_| 0),
            Op::Rename { od, on, nd, nn } => fs.rename(*od, on, *nd, nn).ok().map(|_| 0),
            Op::Chmod { ino, mode } => {
                let attr = SetAttr {
                    mode: Some(*mode),
                    ..Default::default()
                };
                fs.setattr(*ino, attr).ok().map(|_| 0)
            }
            Op::Write { ino, offset, len } => {
                fs.write(*ino, *offset, &vec![0xA5u8; *len]).ok().map(|_| 0)
            }
        }
    }
}

/// Generator bookkeeping: what exists right now, so the op stream stays
/// mostly-successful (failures are allowed — they commit nothing).
struct Gen {
    rng: SplitMix64,
    /// Live directories: `(ino, parent_ino, name)`. Index 0 is the
    /// root (empty name, parent 0).
    dirs: Vec<(u64, u64, String)>,
    /// Live non-directory entries: `(parent, name, ino, is_regular)`.
    files: Vec<(u64, String, u64, bool)>,
    next_name: u64,
}

impl Gen {
    fn new(seed: u64, root: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed ^ 0x0C1A_57AF),
            dirs: vec![(root, 0, String::new())],
            files: Vec::new(),
            next_name: 0,
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        let n = self.next_name;
        self.next_name += 1;
        format!("{prefix}{n}")
    }

    fn pick_dir(&mut self) -> u64 {
        let i = self.rng.below(self.dirs.len() as u64) as usize;
        self.dirs[i].0
    }

    /// Generates the next op and pre-applies its effect to the
    /// bookkeeping **assuming success** would be wrong for ops that can
    /// fail; instead the caller reports the outcome to [`Gen::settle`].
    fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        match roll {
            // Create a regular file (the bulk of the stream).
            0..=29 => Op::Create {
                dir: self.pick_dir(),
                name: self.fresh_name("f"),
                mode: 0o600 + (self.rng.below(0o100) as u16),
            },
            // Grow the directory tree.
            30..=39 => Op::Mkdir {
                dir: self.pick_dir(),
                name: self.fresh_name("d"),
                mode: 0o700 + (self.rng.below(0o60) as u16),
            },
            40..=46 => Op::Symlink {
                dir: self.pick_dir(),
                name: self.fresh_name("s"),
                target: format!("../t{}", self.rng.below(64)),
            },
            // Hard-link an existing regular file somewhere else.
            47..=52 => {
                if let Some(&(_, _, ino, _)) = self.pick_file(true) {
                    Op::Link {
                        dir: self.pick_dir(),
                        name: self.fresh_name("l"),
                        ino,
                    }
                } else {
                    self.fallback_create()
                }
            }
            // Unlink whatever the dice pick.
            53..=66 => {
                if let Some(&(parent, ref name, _, _)) = self.pick_file(false) {
                    Op::Unlink {
                        dir: parent,
                        name: name.clone(),
                    }
                } else {
                    self.fallback_create()
                }
            }
            // Remove an empty directory (may fail with NotEmpty — fine).
            67..=70 => {
                if self.dirs.len() > 1 {
                    let i = 1 + self.rng.below(self.dirs.len() as u64 - 1) as usize;
                    let (_, parent, ref name) = self.dirs[i];
                    Op::Rmdir {
                        dir: parent,
                        name: name.clone(),
                    }
                } else {
                    self.fallback_create()
                }
            }
            // Move a file, sometimes over an existing destination.
            71..=80 => {
                if let Some(&(od, ref on, _, _)) = self.pick_file(false) {
                    let on = on.clone();
                    let nd = self.pick_dir();
                    let overwrite = self.rng.below(5) == 0;
                    let nn = if overwrite {
                        match self.pick_file(false) {
                            Some(&(p, ref n, _, _)) if p == nd => n.clone(),
                            _ => self.fresh_name("r"),
                        }
                    } else {
                        self.fresh_name("r")
                    };
                    Op::Rename { od, on, nd, nn }
                } else {
                    self.fallback_create()
                }
            }
            81..=87 => {
                let ino = if self.rng.below(2) == 0 {
                    self.pick_dir()
                } else {
                    match self.pick_file(false) {
                        Some(&(_, _, ino, _)) => ino,
                        None => self.pick_dir(),
                    }
                };
                Op::Chmod {
                    ino,
                    mode: 0o400 + (self.rng.below(0o377) as u16),
                }
            }
            // Append/overwrite content (metadata: size + indirect block).
            _ => {
                if let Some(&(_, _, ino, _)) = self.pick_file(true) {
                    Op::Write {
                        ino,
                        offset: self.rng.below(24 * 1024),
                        len: 1 + self.rng.below(8 * 1024) as usize,
                    }
                } else {
                    self.fallback_create()
                }
            }
        }
    }

    fn fallback_create(&mut self) -> Op {
        Op::Create {
            dir: self.pick_dir(),
            name: self.fresh_name("f"),
            mode: 0o644,
        }
    }

    fn pick_file(&mut self, regular_only: bool) -> Option<&(u64, String, u64, bool)> {
        if self.files.is_empty() {
            return None;
        }
        let start = self.rng.below(self.files.len() as u64) as usize;
        (0..self.files.len())
            .map(|k| &self.files[(start + k) % self.files.len()])
            .find(|f| !regular_only || f.3)
    }

    /// Updates the bookkeeping after the live file system reported the
    /// op's outcome (`ino` is the inode a create-like op produced).
    fn settle(&mut self, op: &Op, result: Option<u64>) {
        let Some(ino) = result else { return };
        match op {
            Op::Create { dir, name, .. } => {
                self.files.push((*dir, name.clone(), ino, true));
            }
            Op::Mkdir { dir, name, .. } => {
                self.dirs.push((ino, *dir, name.clone()));
            }
            Op::Symlink { dir, name, .. } => {
                self.files.push((*dir, name.clone(), ino, false));
            }
            Op::Link { dir, name, ino } => {
                self.files.push((*dir, name.clone(), *ino, true));
            }
            Op::Unlink { dir, name } => {
                self.files.retain(|(p, n, _, _)| !(p == dir && n == name));
            }
            Op::Rmdir { dir, name } => {
                self.dirs.retain(|(_, p, n)| !(p == dir && n == name));
            }
            Op::Rename { od, on, nd, nn } => {
                // A successful rename unlinks any overwritten target.
                self.files.retain(|(p, n, _, _)| !(p == nd && n == nn));
                if let Some(f) = self
                    .files
                    .iter_mut()
                    .find(|(p, n, _, _)| p == od && n == on)
                {
                    f.0 = *nd;
                    f.1 = nn.clone();
                }
            }
            Op::Chmod { .. } | Op::Write { .. } => {}
        }
    }
}

/// The campaign fixture shared by live runs and shadow replays: the
/// lmbench fig. 8 ladder tree plus `/hot`, a directory of `hotset`
/// files modeling the node's hot working set. The stats pull every
/// path into the dcache, so subsequent warm checkpoints persist it.
pub(crate) fn fixture(kernel: &Kernel, proc: &Arc<Process>, hotset: usize) {
    lmbench::setup(kernel, proc).expect("lmbench fixture");
    kernel.mkdir(proc, "/hot", 0o755).expect("hotset dir");
    for i in 0..hotset {
        let path = format!("/hot/h{i}");
        let fd = kernel
            .open(proc, &path, OpenFlags::create(), 0o644)
            .expect("hotset file");
        kernel.close(proc, fd).expect("hotset close");
    }
    rewarm(kernel, proc, hotset);
}

/// Walks the hot working set back into the dcache (what a serving node
/// does between checkpoints anyway — the warm index snapshots exactly
/// this state).
pub(crate) fn rewarm(kernel: &Kernel, proc: &Arc<Process>, hotset: usize) {
    for i in 0..hotset {
        let _ = kernel.stat(proc, &format!("/hot/h{i}"));
    }
}

/// The campaign's starting state, identical for the live runs and the
/// shadow: an optimized kernel over a journaled memfs on a small free
/// disk, the fixture built and checkpointed.
fn provision(seed: u64, hotset: usize) -> DiskSetup {
    let disk = DiskConfig {
        capacity_blocks: CAPACITY_BLOCKS,
        cache_pages: CACHE_PAGES,
        latency: LatencyModel::free(),
        ..Default::default()
    };
    let fs = MemFsConfig {
        max_inodes: MAX_INODES,
        ..Default::default()
    };
    let s = kernel_on_disk(DcacheConfig::optimized().with_seed(seed), disk, fs);
    fixture(&s.kernel, &s.proc, hotset);
    s.fs.sync().expect("post-setup checkpoint");
    s
}

/// Everything one campaign pass produces.
struct RunResult {
    fs: Arc<MemFs>,
    /// Device writes issued during the armed (mutation) phase.
    writes_during: u64,
    /// `(committed_seq, oplog_prefix_len)` after every successful op;
    /// the first entry is the post-setup base `(seq, 0)`.
    boundaries: Vec<(u64, usize)>,
    /// Every generated op with its live outcome.
    oplog: Vec<(Op, bool)>,
    ops_ok: u64,
    checkpoints: u64,
    forced_checkpoints: u64,
    commits: u64,
    /// Warm-index checkpoints persisted during the armed phase.
    warm_checkpoints: u64,
}

/// One pass of the seeded workload: fig. 8 ladder + mutation stream on
/// an optimized kernel over a journaled memfs. With a monitor attached
/// the identical pass is re-run under scheduled power cuts.
fn run_campaign(
    seed: u64,
    ops: usize,
    hotset: usize,
    monitor: Option<&Arc<CrashMonitor>>,
) -> RunResult {
    let DiskSetup {
        disk,
        fs,
        kernel,
        proc,
    } = provision(seed, hotset);
    if let Some(m) = monitor {
        disk.attach_crash_monitor(m.clone());
    }

    let seq_base = fs.journal_seq();
    let mut boundaries = vec![(seq_base, 0usize)];
    let mut oplog: Vec<(Op, bool)> = Vec::with_capacity(ops);
    let mut gen = Gen::new(seed, fs.root_ino());
    let stats0 = fs.journal_counters().values();
    let writes0 = disk.stats().device_writes;
    if let Some(m) = monitor {
        m.arm();
    }

    let mut ops_ok = 0u64;
    let mut warm_checkpoints = 0u64;
    for i in 0..ops {
        // Keep the fig. 8 read ladder (and its evictions) in the mix.
        if i % 16 == 0 {
            for pat in [Pattern::Comp1, Pattern::Comp4, Pattern::Comp8] {
                let _ = kernel.stat(&proc, pat.path());
            }
        }
        // Periodic cache drop = fs.sync() = journal checkpoint, so cut
        // points also land inside checkpoint header/flush windows.
        if i % 96 == 95 {
            kernel.drop_caches();
        }
        // Rewarm the hot set and persist the warm index, so cut points
        // also land before, inside, and after index-checkpoint flushes
        // and the captured images carry real index state to recover.
        if i % WARM_EVERY == 100 {
            rewarm(&kernel, &proc, hotset);
            kernel.warm_checkpoint().expect("warm checkpoint");
            warm_checkpoints += 1;
        }
        let op = gen.next_op();
        let created = op.apply(&fs);
        let ok = created.is_some();
        if ok {
            ops_ok += 1;
            gen.settle(&op, created);
            let seq = fs.journal_seq();
            // An op that touched no metadata re-uses the previous seq;
            // fold it into that boundary (the trees are identical).
            match boundaries.last_mut() {
                Some(last) if last.0 == seq => last.1 = oplog.len() + 1,
                _ => boundaries.push((seq, oplog.len() + 1)),
            }
        }
        oplog.push((op, ok));
    }
    if let Some(m) = monitor {
        m.disarm();
    }
    let writes_during = disk.stats().device_writes - writes0;
    let stats1 = fs.journal_counters().values();
    RunResult {
        fs,
        writes_during,
        boundaries,
        oplog,
        ops_ok,
        checkpoints: stats1.checkpoints - stats0.checkpoints,
        forced_checkpoints: stats1.forced_checkpoints - stats0.forced_checkpoints,
        commits: stats1.commits - stats0.commits,
        warm_checkpoints,
    }
}

/// Per-campaign verification tallies.
#[derive(Default)]
struct Verdict {
    images: usize,
    torn: usize,
    mount_failures: usize,
    fsck_errors: usize,
    prefix_mismatches: usize,
    divergences: usize,
    replayed_txns: u64,
    cold_reads: u64,
    first_failure: Option<String>,
}

impl Verdict {
    fn clean(&self) -> bool {
        self.mount_failures == 0
            && self.fsck_errors == 0
            && self.prefix_mismatches == 0
            && self.divergences == 0
    }

    fn note(&mut self, what: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }
}

/// Remounts, fscks, and prefix-checks every captured image against a
/// shadow file system that replays the committed op prefix.
fn verify_images(seed: u64, hotset: usize, run: &RunResult, images: &[CrashImage]) -> Verdict {
    let mut v = Verdict {
        images: images.len(),
        ..Default::default()
    };

    // Shadow: identical provisioning and fixture, ops replayed on
    // demand. Metadata state only depends on the mutation stream (the
    // fig. 8 reads allocate nothing), so the ladder is not replayed.
    let shadow = provision(seed, hotset).fs;
    let mut applied = 0usize;

    // Mount + fsck first; sort by recovered prefix so the shadow only
    // ever advances (commit records reach the device in seq order, so
    // this is also roughly cut order).
    let mut mounted: Vec<(usize, Arc<CachedDisk>, Arc<MemFs>)> = Vec::new();
    for img in images {
        if img.torn_block.is_some() {
            v.torn += 1;
        }
        let cut = img.cut_at_write;
        let disk = Arc::new(CachedDisk::from_image(
            img,
            CACHE_PAGES,
            LatencyModel::free(),
        ));
        let fs = match MemFs::mount(disk.clone()) {
            Ok(fs) => fs,
            Err(e) => {
                v.mount_failures += 1;
                v.note(format!("cut@{cut}: remount failed: {e:?}"));
                continue;
            }
        };
        v.replayed_txns += fs.replayed_txns();
        match fsck(&disk) {
            Ok(report) if report.is_clean() => {}
            Ok(report) => {
                v.fsck_errors += 1;
                v.note(format!(
                    "cut@{cut}: fsck found {} errors, first: {}",
                    report.errors.len(),
                    report.errors[0]
                ));
                continue;
            }
            Err(e) => {
                v.fsck_errors += 1;
                v.note(format!("cut@{cut}: fsck failed to run: {e:?}"));
                continue;
            }
        }
        let stats = disk.stats();
        v.cold_reads += stats.device_reads;
        // Map the recovered commit seq to the workload prefix it must
        // correspond to — exactly, or recovery invented/lost a txn.
        let rseq = fs.recovered_seq();
        match run.boundaries.binary_search_by_key(&rseq, |b| b.0) {
            Ok(i) => mounted.push((run.boundaries[i].1, disk, fs)),
            Err(_) => {
                v.prefix_mismatches += 1;
                v.note(format!(
                    "cut@{cut}: recovered seq {rseq} is not an op boundary"
                ));
            }
        }
    }

    mounted.sort_by_key(|(prefix, _, _)| *prefix);
    for (prefix, _disk, fs) in mounted {
        while applied < prefix {
            let (op, live_ok) = &run.oplog[applied];
            let ok = op.apply(&shadow).is_some();
            if ok != *live_ok {
                v.divergences += 1;
                v.note(format!(
                    "shadow replay diverged at op {applied}: {op:?} live_ok={live_ok} shadow_ok={ok}"
                ));
            }
            applied += 1;
        }
        let want = tree_sig(&*shadow);
        let got = tree_sig(&*fs);
        if want != got {
            v.divergences += 1;
            let diff = want
                .iter()
                .zip(got.iter())
                .find(|(w, g)| w != g)
                .map(|(w, g)| format!("want `{w}` got `{g}`"))
                .unwrap_or_else(|| format!("tree sizes differ: {} vs {}", want.len(), got.len()));
            v.note(format!("prefix {prefix}: tree mismatch: {diff}"));
        }
    }
    v
}

/// One warm fig. 8 ladder round (no cache drops): ns/op of the hit
/// fast path.
fn warm_round(kernel: &Kernel, proc: &Arc<Process>, iters: usize) -> f64 {
    let mut ops = 0u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        for pat in [
            Pattern::Comp1,
            Pattern::Comp2,
            Pattern::Comp4,
            Pattern::Comp8,
        ] {
            let _ = kernel.stat(proc, pat.path());
            ops += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Metadata churn (create + unlink round trips): ns/op including the
/// journal's payload-then-commit flushes.
fn churn(kernel: &Kernel, proc: &Arc<Process>, pairs: usize) -> f64 {
    let _ = kernel.mkdir(proc, "/churn", 0o755);
    let mut best = f64::INFINITY;
    for round in 0..3 {
        let mut ops = 0u64;
        let t0 = Instant::now();
        for i in 0..pairs {
            let path = format!("/churn/r{round}c{i}");
            if let Ok(fd) = kernel.open(proc, &path, OpenFlags::create(), 0o644) {
                let _ = kernel.close(proc, fd);
            }
            let _ = kernel.unlink(proc, &path);
            ops += 2;
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    best
}

/// What the journal costs, on the spinning-latency disk the fig. 8
/// experiments use: warm lookups by count, metadata churn by time.
struct JournalPrice {
    /// ns/op of each warm ladder round after the first.
    warm_rounds: Vec<f64>,
    /// memfs calls (`FsStats`) those rounds caused.
    warm_fs_calls: u64,
    /// Journal commits those rounds caused.
    warm_commits: u64,
    churn_ns: f64,
    /// Journal commits over the whole run, churn included.
    commits: u64,
}

fn journal_price(seed: u64, scale: &Scale) -> JournalPrice {
    let disk = DiskConfig {
        capacity_blocks: CAPACITY_BLOCKS,
        latency: LatencyModel::new(2_000, 4_000, true).with_hit_ns(150),
        ..Default::default()
    };
    let fs = MemFsConfig {
        max_inodes: MAX_INODES,
        ..Default::default()
    };
    let DiskSetup {
        fs, kernel, proc, ..
    } = kernel_on_disk(DcacheConfig::optimized().with_seed(seed), disk, fs);
    lmbench::setup(&kernel, &proc).expect("lmbench fixture");
    let iters = scale.tree_files.max(200) * 4;
    let fs_calls = || {
        let (lookups, readdirs, getattrs, mutations) = fs.stats().snapshot();
        lookups + readdirs + getattrs + mutations
    };
    let commits = || fs.journal_counters().values().commits;
    // Round 0 warms caches and branch predictors; discard.
    warm_round(&kernel, &proc, iters);
    let (calls0, commits0) = (fs_calls(), commits());
    let warm_rounds = (0..6).map(|_| warm_round(&kernel, &proc, iters)).collect();
    let (warm_fs_calls, warm_commits) = (fs_calls() - calls0, commits() - commits0);
    JournalPrice {
        warm_rounds,
        warm_fs_calls,
        warm_commits,
        churn_ns: churn(&kernel, &proc, iters / 4),
        commits: commits(),
    }
}

/// The `repro crash --seed N` entry point. Returns `false` if any image
/// failed verification or a warm lookup reached memfs or its journal,
/// so the caller (and CI) can turn the verdict into an exit code.
pub fn crash(scale: Scale, seed: u64) -> bool {
    campaign(scale, seed, CAMPAIGN_POINTS)
}

/// [`crash`] with the number of power cuts as a parameter, so a test can
/// run the whole campaign over a handful.
pub(crate) fn campaign(scale: Scale, seed: u64, points: usize) -> bool {
    println!("\n==== Crash campaign: {points} seeded power cuts, seed {seed:#x} ====");
    let ops = scale.tree_files.max(400) * 4; // quick: 1600 ops, full: 20k
    let hotset = scale.tree_files.clamp(400, HOT_CAP);

    // Pass 1: count device writes so cut points span the whole run.
    let t0 = Instant::now();
    let pass1 = run_campaign(seed, ops, hotset, None);
    println!(
        "pass 1: {} ops ({} committed) -> {} device writes, {} commits, {} checkpoints ({} forced), \
         {} warm-index checkpoints [{:?}]",
        pass1.oplog.len(),
        pass1.ops_ok,
        pass1.writes_during,
        pass1.commits,
        pass1.checkpoints,
        pass1.forced_checkpoints,
        pass1.warm_checkpoints,
        t0.elapsed(),
    );

    // Pass 2: identical workload with the armed crash monitor.
    let monitor = Arc::new(CrashMonitor::sample(
        seed,
        pass1.writes_during,
        points,
        TEAR_PROB,
    ));
    let scheduled = monitor.scheduled().len();
    if scheduled < points {
        println!(
            "note: only {scheduled} distinct cut points available \
             ({} device writes < {points} requested)",
            pass1.writes_during,
        );
    }
    let t1 = Instant::now();
    let pass2 = run_campaign(seed, ops, hotset, Some(&monitor));
    let images = monitor.take_images();
    println!(
        "pass 2: captured {} crash images over {} writes [{:?}]",
        images.len(),
        pass2.writes_during,
        t1.elapsed(),
    );

    let t2 = Instant::now();
    let v = verify_images(seed, hotset, &pass2, &images);
    let mut t = Table::new(&["check", "count", "failures"]);
    t.row(vec![
        "images captured".into(),
        v.images.to_string(),
        String::new(),
    ]);
    t.row(vec![
        "torn in-flight writes".into(),
        v.torn.to_string(),
        String::new(),
    ]);
    t.row(vec![
        "remounts".into(),
        v.images.to_string(),
        v.mount_failures.to_string(),
    ]);
    t.row(vec![
        "fsck runs".into(),
        (v.images - v.mount_failures).to_string(),
        v.fsck_errors.to_string(),
    ]);
    t.row(vec![
        "prefix-consistency checks".into(),
        (v.images - v.mount_failures - v.fsck_errors).to_string(),
        (v.prefix_mismatches + v.divergences).to_string(),
    ]);
    t.row(vec![
        "journal txns replayed".into(),
        v.replayed_txns.to_string(),
        String::new(),
    ]);
    t.row(vec![
        "cold device reads/remount".into(),
        format!("{:.0}", v.cold_reads as f64 / v.images.max(1) as f64),
        String::new(),
    ]);
    t.print();
    if let Some(f) = &v.first_failure {
        println!("first failure: {f}");
    }
    println!(
        "campaign verification: {} [{:?}]",
        if v.clean() { "PASS" } else { "FAIL" },
        t2.elapsed()
    );

    // The journal's price: counted on warm lookups, timed on churn.
    let price = journal_price(seed, &scale);
    let mut t = Table::new(&[
        "warm stat us/op",
        "warm fs calls",
        "warm commits",
        "create+unlink us/op",
        "commits",
    ]);
    let warm_ns = price
        .warm_rounds
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    t.row(vec![
        us(warm_ns),
        price.warm_fs_calls.to_string(),
        price.warm_commits.to_string(),
        us(price.churn_ns),
        price.commits.to_string(),
    ]);
    t.print();
    // The journal prices mutations, never warm lookups.
    let warm_ok = price.warm_fs_calls == 0 && price.warm_commits == 0;
    println!(
        "journal price: {} warm ladder rounds caused {} fs calls and {} commits (bar: 0 — {})",
        price.warm_rounds.len(),
        price.warm_fs_calls,
        price.warm_commits,
        if warm_ok { "PASS" } else { "FAIL" },
    );

    let body = Json::obj()
        .with("crash_points", points)
        .with("tear_prob", TEAR_PROB)
        .with(
            "workload",
            fields!(pass2 => commits, checkpoints, forced_checkpoints)
                .with("ops", ops)
                .with("committed", pass2.ops_ok)
                .with("device_writes", pass2.writes_during),
        )
        .with(
            "verification",
            fields!(v => images, torn, mount_failures, fsck_errors, prefix_mismatches, divergences, replayed_txns)
                .with("clean", v.clean()),
        )
        .with(
            "journal",
            fields!(price => warm_fs_calls, warm_commits, churn_ns, commits)
                .with("warm_stat_ns", warm_ns)
                .with("warm_untouched", warm_ok),
        );
    let stamp =
        Stamp::new(scale, Some(seed)).timed("warm stat, ns/op per round", &price.warm_rounds);
    report::write("crash", stamp, body);

    // Warm-restart phase (DESIGN.md §15): rehydrate every surviving
    // image, corrupt its index and rehydrate again, and run the
    // ops-to-90%-hit-rate ablation. Its own floor feeds the exit code.
    let warm_restart_ok = crate::warm::phase(scale, seed, hotset, images);

    v.clean() && warm_ok && warm_restart_ok
}

/// The `repro fsck --seed N` entry point: runs the seeded workload,
/// pulls the plug without any final sync, remounts, and prints the full
/// invariant report for the recovered image.
pub fn fsck_cmd(scale: Scale, seed: u64) {
    println!("\n==== fsck: seeded workload, power cut, recover, check (seed {seed:#x}) ====");
    let ops = scale.tree_files.max(400);
    let hotset = scale.tree_files.clamp(400, HOT_CAP);
    let run = run_campaign(seed, ops, hotset, None);
    let disk = run.fs.disk().clone();
    let dropped = disk.power_cut();
    println!(
        "workload: {} ops ({} committed); power cut dropped {} dirty pages",
        run.oplog.len(),
        run.ops_ok,
        dropped
    );
    let fs = MemFs::mount(disk.clone()).expect("remount after power cut");
    println!(
        "recovery: replayed {} txns up to seq {}",
        fs.replayed_txns(),
        fs.recovered_seq()
    );
    match fsck(&disk) {
        Ok(report) => {
            let mut t = Table::new(&["metric", "value"]);
            t.row(vec![
                "inodes reachable".into(),
                report.inodes_reachable.to_string(),
            ]);
            t.row(vec!["directories".into(), report.dirs.to_string()]);
            t.row(vec![
                "data blocks reachable".into(),
                report.blocks_reachable.to_string(),
            ]);
            t.row(vec!["errors".into(), report.errors.len().to_string()]);
            t.print();
            for e in report.errors.iter().take(10) {
                println!("  error: {e}");
            }
            println!(
                "fsck: {}",
                if report.is_clean() { "CLEAN" } else { "ERRORS" }
            );
        }
        Err(e) => println!("fsck failed to run: {e:?}"),
    }
}
