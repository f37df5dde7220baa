//! Property test: the optimized directory cache is observationally
//! equivalent to the baseline.
//!
//! Random syscall sequences run against two kernels — one with the
//! unmodified component-at-a-time walker, one with every optimization
//! enabled — and every operation must return the same outcome (same
//! errno, same visible metadata, same directory listings). This is the
//! paper's central compatibility claim (§4.4): the fastpath, negative
//! caching, and completeness machinery are pure performance features.
//!
//! Scripts are a pure function of their seed (`dc_fault::check` shrinks a
//! failing one). The Tier-1 budget has teeth — each of these mutations
//! fails `optimized_cache_is_observationally_equivalent` at the seed
//! named (PR 17; the generator's draw order is what fixes them):
//!
//! | mutation | seed |
//! |---|---|
//! | `Dcache::dlht_insert_in` without its `bump_seq()` (ROADMAP 1(b)) | 145 |
//! | `rmdir` turns a held directory negative in place (1(c)) | 1 |
//! | `Kernel::state_at` trusts any stored hash state (1(d)) | 4 |
//! | `enter_symlink` memoizes every body (1(e)) | 232 |
//! | `rebuild_hash_state` signs covered and unmounted positions | 30 |
//! | `syscalls::refresh_dir` does nothing (1(f)) | 0 of `shrink_interleaving…`, 25 of `capacity_pressure…` |
//!
//! What only the soak's 30 000 seeds reach has a hand-written regression
//! in `tests/{mounts_namespaces,pcc_security,coherence,posix_semantics}.rs`.

mod common;

use dcache_repro::fault::{check, SplitMix64};
use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::ops::Range;
use std::sync::Arc;

/// Tier-1 runs `SEEDS` scripts of `OPS` steps against the fully optimized
/// configuration, and fewer against each variant.
const SEEDS: u64 = 300;
const OPS: usize = 80;

#[derive(Debug, Clone)]
enum Op {
    Mkdir(String),
    Create(String),
    Write(String, usize),
    Unlink(String),
    Rmdir(String),
    Rename(String, String),
    Stat(String),
    /// `Stat` by every process in turn: what one credential's lookup
    /// leaves in the shared caches is the next one's to trip over.
    Probe(String),
    Lstat(String),
    Access(String, u32),
    Chmod(String, u16),
    Chown(String, u32),
    Symlink(String, String),
    Readlink(String),
    List(String),
    Chdir(String),
    Mkstemp(String),
    BindMount(String, String),
    Umount(String),
    Chroot(String),
}

/// One step of a script: which process issues the op. Process 0 is
/// root, 1 is uid 1000, 2 is uid 1001, 3 is a second root process — the
/// only one that `chroot`s, so process 0 always sees the whole tree.
#[derive(Debug, Clone)]
struct Step(usize, Op);

const UIDS: [u32; 4] = [0, 1000, 1001, 0];
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "x"];

/// The places a script keeps coming back to, so that 80 steps build on
/// each other: a top-level directory, a subdirectory of it, a second
/// top-level directory to bind things at, and a name for a symlink. They
/// are the shape of ROADMAP 1(b) — `/secret` closed, `/secret/data` bound
/// at `/view`, two uids — and of 1(c)–(e).
struct Cast {
    dir: String,
    sub: String,
    view: String,
    link: String,
}

fn name(rng: &mut SplitMix64) -> &'static str {
    NAMES[rng.below(5) as usize]
}

impl Cast {
    fn draw(rng: &mut SplitMix64) -> Cast {
        let first = rng.below(5) as usize;
        let top = |k: usize| format!("/{}", NAMES[(first + k) % 5]);
        Cast {
            sub: format!("{}/{}", top(0), name(rng)),
            dir: top(0),
            view: top(1),
            link: top(2),
        }
    }

    /// Half the time one of the cast (or `/`, or a name below the link),
    /// else 1–3 components over the names, `.` and `..`, absolute three
    /// times in four.
    fn path(&self, rng: &mut SplitMix64) -> String {
        if rng.below(2) == 0 {
            let below_link = format!("{}/{}", self.link, name(rng));
            let hot = [
                "/",
                &self.dir,
                &self.sub,
                &self.view,
                &self.link,
                &below_link,
            ];
            return hot[rng.below(6) as usize].to_string();
        }
        let comps: Vec<&str> = (0..1 + rng.below(3))
            .map(|_| match rng.below(7) {
                5 => ".",
                6 => "..",
                _ => name(rng),
            })
            .collect();
        let lead = if rng.below(4) == 0 { "" } else { "/" };
        format!("{lead}{}", comps.join("/"))
    }

    fn step(&self, rng: &mut SplitMix64) -> Step {
        let any = [0, 0, 0, 1, 1, 2, 3, 3][rng.below(8) as usize];
        let a_root = [0, 3][rng.below(2) as usize];
        let (p, q) = (self.path(rng), self.path(rng));
        let cast = rng.below(2) == 0;
        match rng.below(26) {
            0 => Step(any, Op::Mkdir(p)),
            1 => Step(any, Op::Create(p)),
            2 => Step(any, Op::Write(p, rng.below(5000) as usize)),
            3 => Step(any, Op::Unlink(p)),
            4 => Step(any, Op::Rmdir(p)),
            5 => Step(any, Op::Rename(p, q)),
            6 | 7 => Step(any, Op::Stat(p)),
            8..=10 => Step(0, Op::Probe(p)),
            11 => Step(any, Op::Lstat(p)),
            12 => Step(any, Op::Access(p, rng.below(8) as u32)),
            // Closing modes go to the top-level directory.
            13 => match [0o700, 0o711, 0o755, 0o000, 0o644][rng.below(5) as usize] {
                mode @ (0o700 | 0o711) if cast => Step(any, Op::Chmod(self.dir.clone(), mode)),
                mode => Step(any, Op::Chmod(p, mode)),
            },
            14 => Step(a_root, Op::Chown(p, UIDS[rng.below(3) as usize])),
            // Bodies that climb, at the link's name as often as not.
            15 | 16 => {
                let body = if rng.below(3) == 0 {
                    format!("{p}/..")
                } else {
                    p
                };
                let at = if cast { self.link.clone() } else { q };
                Step(any, Op::Symlink(body, at))
            }
            17 => Step(any, Op::Readlink(p)),
            18 => Step(any, Op::List(p)),
            19 | 20 => Step(any, Op::Chdir(p)),
            21 => Step(any, Op::Mkstemp(p)),
            // The subdirectory at the second directory, or an ancestor
            // over its own descendant, or anything anywhere.
            22 | 23 => {
                let (src, dst) = match rng.below(4) {
                    0 | 1 => (self.sub.clone(), self.view.clone()),
                    2 => ("/".into(), self.dir.clone()),
                    _ => (p, q),
                };
                Step(a_root, Op::BindMount(src, dst))
            }
            24 => Step(a_root, Op::Umount(p)),
            _ => Step(3, Op::Chroot(p)),
        }
    }
}

/// The cast's three directories, then `OPS - 3` drawn steps.
fn steps(rng: &mut SplitMix64) -> Vec<Step> {
    let cast = Cast::draw(rng);
    let planted = [&cast.dir, &cast.sub, &cast.view].map(|d| Step(0, Op::Mkdir(d.clone())));
    let drawn = (3..OPS).map(|_| cast.step(rng));
    planted.into_iter().chain(drawn).collect()
}

/// A comparable outcome of one operation: what succeeded with, or the
/// errno.
fn outcome<T: std::fmt::Debug>(r: Result<T, FsError>) -> String {
    match r {
        Ok(v) => format!("ok:{v:?}"),
        Err(e) => e.errno_name().into(),
    }
}

fn apply(k: &Kernel, procs: &[Arc<Process>], Step(who, op): &Step, tag: u64) -> String {
    let p = &procs[*who];
    let close = |fd| k.close(p, fd).unwrap();
    match op {
        Op::Probe(path) => {
            let stat = |q| apply(k, procs, &Step(q, Op::Stat(path.clone())), tag);
            (0..procs.len()).map(stat).collect::<Vec<_>>().join(" | ")
        }
        Op::Mkdir(path) => outcome(k.mkdir(p, path, 0o755)),
        Op::Create(path) => outcome(k.open(p, path, OpenFlags::create(), 0o644).map(close)),
        Op::Write(path, n) => outcome(k.open(p, path, OpenFlags::read_write(), 0).and_then(|fd| {
            let written = k.write_fd(p, fd, &vec![0xAB; *n]);
            close(fd);
            written
        })),
        Op::Unlink(path) => outcome(k.unlink(p, path)),
        Op::Rmdir(path) => outcome(k.rmdir(p, path)),
        Op::Rename(a, b) => outcome(k.rename(p, a, b)),
        Op::Stat(path) => outcome(
            k.stat(p, path)
                .map(|a| (a.ino, a.ftype, a.mode, a.uid, a.size, a.nlink)),
        ),
        Op::Lstat(path) => outcome(k.lstat(p, path).map(|a| (a.ftype, a.mode, a.size))),
        Op::Access(path, mask) => outcome(k.access(p, path, *mask & 0x7)),
        Op::Chmod(path, mode) => outcome(k.chmod(p, path, *mode)),
        Op::Chown(path, uid) => outcome(k.chown(p, path, Some(*uid), None)),
        Op::BindMount(src, dst) => outcome(k.bind_mount(p, src, dst).map(drop)),
        Op::Umount(path) => outcome(k.umount(p, path)),
        Op::Chroot(path) => outcome(k.chroot(p, path)),
        Op::Symlink(t, l) => outcome(k.symlink(p, t, l)),
        Op::Readlink(path) => outcome(k.readlink_path(p, path)),
        Op::List(path) => outcome(k.list_dir(p, path).map(|entries| {
            let mut names: Vec<_> = entries.into_iter().map(|e| (e.name, e.ftype)).collect();
            names.sort_by(|a, b| a.0.cmp(&b.0));
            names
        })),
        Op::Chdir(path) => format!("{}:{}", outcome(k.chdir(p, path)), k.getcwd(p)),
        // Names are random per kernel; only success/failure compares.
        Op::Mkstemp(path) => outcome(k.mkstemp(p, path, &format!("t{tag}-")).map(|t| close(t.0))),
    }
}

/// A kernel and the four processes of [`Step`].
fn boot(config: DcacheConfig) -> (Arc<Kernel>, Vec<Arc<Process>>) {
    // A small disk: the default root file system's `mkfs` would be most
    // of a script's run time.
    let fs = common::new_fs(common::new_disk(1 << 12, 256), 1 << 10);
    let k = KernelBuilder::new(config).root_fs(fs).build().unwrap();
    let spawn = |&uid| {
        let p = k.spawn(&k.init_process());
        k.setuid(&p, uid, uid);
        p
    };
    let procs = UIDS.iter().map(spawn).collect();
    (k, procs)
}

/// Runs the script on a baseline kernel and on one built from `config`,
/// which — every `shrink_every` steps, when nonzero — also takes a full
/// memory-pressure shrink (budget 0: evict every unpinned dentry, flush
/// every PCC). Each step, and a closing listing of `/`, must answer the
/// same on both.
fn run_against(config: DcacheConfig, shrink_every: usize, script: &[Step]) {
    let (kb, pb) = boot(DcacheConfig::baseline().with_seed(0xAAAA));
    let (ko, po) = boot(config.with_seed(0xBBBB));
    let closing = Step(0, Op::List("/".into()));
    for (i, step) in script.iter().chain([&closing]).enumerate() {
        let baseline = apply(&kb, &pb, step, i as u64);
        let optimized = apply(&ko, &po, step, i as u64);
        assert_eq!(
            baseline, optimized,
            "step {i}, {step:?}: baseline vs optimized"
        );
        if shrink_every > 0 && (i + 1) % shrink_every == 0 {
            ko.memory_pressure(0);
        }
    }
}

/// A hand-written script, all of it issued by process 0.
fn run_equivalence(ops: Vec<Op>) {
    let script: Vec<Step> = ops.into_iter().map(|op| Step(0, op)).collect();
    run_against(DcacheConfig::optimized(), 0, &script);
}

/// What a script runs on, against the baseline.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// Every optimization on.
    Optimized,
    /// One paper feature off — each is a pure optimization (§4.4).
    Without(u64),
    /// A 24-dentry cache: constant eviction pressure.
    Capacity24,
    /// A soft byte budget: auto-shrink on allocation pressure.
    MemBudget,
    /// A full memory-pressure shrink every so many steps — the shrinker
    /// may cost performance, never answers.
    ShrinkEvery(usize),
}

impl Variant {
    fn holds(&self, script: &[Step]) {
        let mut config = DcacheConfig::optimized();
        let mut shrink_every = 0;
        match *self {
            Variant::Optimized => {}
            Variant::Without(0) => config.dir_completeness = false,
            Variant::Without(1) => config.deep_negative = false,
            Variant::Without(2) => config.neg_on_unlink = false,
            Variant::Without(_) => config.fastpath = false,
            Variant::Capacity24 => config = config.with_capacity(24),
            Variant::MemBudget => config = config.with_mem_budget(64 * 1024),
            Variant::ShrinkEvery(n) => {
                // A shrink measures the DLHT and the PCCs it shrinks, slot
                // by slot, several times over: small ones keep a few
                // thousand shrinks in seconds.
                (config.dlht_buckets, config.pcc_bytes) = (1 << 8, 1 << 10);
                shrink_every = n;
            }
        }
        run_against(config, shrink_every, script);
    }
}

/// Each case is `steps` of its seed — the same scripts for every variant
/// — on the variant drawn after them.
fn equivalent(cases: Range<u64>, variant: impl Fn(&mut SplitMix64) -> Variant) {
    let case = |rng: &mut SplitMix64| {
        let script = steps(rng);
        (variant(rng), script)
    };
    check(cases, case, Variant::holds);
}

const VARIANTS: [fn(&mut SplitMix64) -> Variant; 4] = [
    |rng| Variant::Without(rng.below(4)),
    |_| Variant::Capacity24,
    |_| Variant::MemBudget,
    |rng| Variant::ShrinkEvery(1 + rng.below(3) as usize),
];

#[test]
fn optimized_cache_is_observationally_equivalent() {
    equivalent(0..SEEDS, |_| Variant::Optimized);
}

#[test]
fn ablations_are_observationally_equivalent() {
    equivalent(0..120, VARIANTS[0]);
}

#[test]
fn capacity_pressure_is_observationally_equivalent() {
    equivalent(0..60, VARIANTS[1]);
}

#[test]
fn mem_budget_pressure_is_observationally_equivalent() {
    equivalent(0..60, VARIANTS[2]);
}

#[test]
fn shrink_interleaving_is_observationally_equivalent() {
    equivalent(0..60, VARIANTS[3]);
}

/// 100× the Tier-1 seeds. The optimized configuration runs every seed to
/// its end, so the report is the count of divergent seeds with each one's
/// shrunk script above it; the variants stop at their first.
#[test]
#[ignore = "soak, for the nightly lane"]
fn soak() {
    let one =
        |seed| std::panic::catch_unwind(|| equivalent(seed..seed + 1, |_| Variant::Optimized));
    let divergent: Vec<u64> = (0..100 * SEEDS)
        .filter(|&seed| one(seed).is_err())
        .collect();
    assert!(
        divergent.is_empty(),
        "{} divergent seeds: {divergent:?}",
        divergent.len()
    );
    for variant in VARIANTS {
        equivalent(0..6_000, variant);
    }
}

#[test]
fn equivalence_regression_rename_over_cached_subtree() {
    run_equivalence(vec![
        Op::Mkdir("/alpha".into()),
        Op::Mkdir("/alpha/beta".into()),
        Op::Create("/alpha/beta/x".into()),
        Op::Stat("/alpha/beta/x".into()),
        Op::Rename("/alpha".into(), "/gamma".into()),
        Op::Stat("/alpha/beta/x".into()),
        Op::Stat("/gamma/beta/x".into()),
        Op::List("/gamma/beta".into()),
    ]);
}

#[test]
fn equivalence_regression_unlink_recreate_symlink() {
    run_equivalence(vec![
        Op::Mkdir("/delta".into()),
        Op::Create("/delta/x".into()),
        Op::Symlink("/delta/x".into(), "/x".into()),
        Op::Stat("/x".into()),
        Op::Unlink("/delta/x".into()),
        Op::Stat("/x".into()),
        Op::Lstat("/x".into()),
        Op::Mkdir("/delta/x".into()),
        Op::Stat("/x".into()),
    ]);
}

#[test]
fn equivalence_regression_dotdot_and_chdir() {
    run_equivalence(vec![
        Op::Mkdir("/alpha".into()),
        Op::Mkdir("/alpha/beta".into()),
        Op::Chdir("/alpha/beta".into()),
        Op::Create("../x".into()),
        Op::Stat("../x".into()),
        Op::Stat("../../alpha/x".into()),
        Op::Chmod("/alpha".into(), 0o000),
        Op::Stat("x".into()),
        Op::Stat("/alpha/x".into()),
        Op::Chmod("/alpha".into(), 0o755),
        Op::Stat("/alpha/x".into()),
    ]);
}

#[test]
fn equivalence_regression_deep_negative_then_create() {
    run_equivalence(vec![
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Mkdir("/alpha".into()),
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Mkdir("/alpha/beta".into()),
        Op::Create("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma/x".into()),
        Op::Unlink("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma/x".into()),
    ]);
}
