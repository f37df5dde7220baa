//! `warm_stat` — fits everywhere.
//!
//! 20 000 files in 2 000 directories, 3–8 components deep, on the default
//! `KernelBuilder` root (journal on, free device latency) with the
//! default dcache capacity of 2^20: the whole tree is cached after the
//! warm-up. Two threads, four uids each rotated every 1024 operations
//! (8 resident PCCs). Each uid works in its own eighth of the files
//! (2 500, plus 512 missing names): a 64 KiB PCC holds 4 096 lines, so
//! what one credential touches fits the cache that memoizes its prefix
//! checks — with all 20 000 files behind every uid the PCC would hit
//! four times in ten and the prefix walk, not the cache, would be
//! measured. 80 % of a uid's draws land on the hottest 20 % of its
//! files. Mix: 60 % `stat`,
//! 15 % `open`+`close`, 10 % `access`, 10 % negative `stat` (half final
//! component, half deep under a missing directory), 5 % `fstatat`
//! relative to a directory fd.
//!
//! *Why:* the paper's Fig. 6 / Table 1 regime — `sighash`, `core.dlht`,
//! `core.pcc` and the `vfs` entry do all the work, `fs` and `blockdev`
//! do none. Two threads because a shared atomic added to the read path
//! is invisible to one.

use super::Workload;
use crate::counters::Derived;
use crate::drive::{Actor, Class, StepCtx, StepOut};
use crate::rng::Rng;
use crate::world::{KernelKind, World};
use dc_cred::MAY_READ;
use dc_fs::FsError;
use dc_vfs::OpenFlags;
use std::sync::Arc;

/// Directories at depth 1..=7 (2 000 in all); files sit one level below
/// a directory of depth ≥ 2, so file paths have 3–8 components.
const DIRS_AT_DEPTH: [usize; 7] = [8, 64, 256, 512, 512, 400, 248];
const FILES: usize = 20_000;
const NEGATIVES: usize = 2048;
/// uids per thread, and operations between rotations.
const UIDS_PER_THREAD: usize = 4;
const UIDS: usize = 2 * UIDS_PER_THREAD;
const ROTATE_EVERY: u64 = 1024;
/// Directory fds each process holds for `fstatat`.
const DIRFDS: usize = 16;

/// The workload.
pub struct WarmStat;

/// The world plus the negative paths and per-process directory fds.
pub struct Built {
    world: World,
    /// `<existing dir>/<missing name>`
    neg_final: Vec<String>,
    /// `<existing dir>/<missing dir>/<name>/<name>`
    neg_deep: Vec<String>,
    /// Per user process: `(fd, files of that directory)`.
    dirfds: Vec<Vec<(u32, Vec<u32>)>>,
}

impl AsRef<World> for Built {
    fn as_ref(&self) -> &World {
        &self.world
    }
}

impl Workload for WarmStat {
    const NAME: &'static str = "warm_stat";
    type Built = Built;

    fn build(seed: u64, kind: KernelKind) -> Arc<Built> {
        let mut rng = Rng::new(seed).fork(1);
        let mut world = World::new(kind, seed, |c| c, None);
        // Directories, level by level; each picks a parent one level up.
        let mut level: Vec<u32> = Vec::new();
        let mut holders: Vec<u32> = Vec::new();
        for (depth, &count) in DIRS_AT_DEPTH.iter().enumerate() {
            let mut next = Vec::with_capacity(count);
            for i in 0..count {
                let parent = if depth == 0 {
                    String::new()
                } else {
                    world.dirs[level[rng.below(level.len())] as usize]
                        .path
                        .clone()
                };
                let name = format!("{}{:x}", rng.name(3, 8), i);
                next.push(world.mkdir(format!("{parent}/{name}")));
            }
            if depth >= 1 {
                holders.extend(&next);
            }
            level = next;
        }
        let mut dir_files: Vec<Vec<u32>> = vec![Vec::new(); world.dirs.len()];
        for i in 0..FILES {
            let dir = holders[rng.below(holders.len())];
            let name = format!("{}{:x}.{}", rng.name(3, 9), i, rng.name(1, 3));
            let f = world.create(dir, &name);
            dir_files[dir as usize].push(f);
        }
        let missing = |rng: &mut Rng, world: &World| {
            let dir = &world.dirs[holders[rng.below(holders.len())] as usize].path;
            format!("{dir}/zz-{}", rng.name(4, 9))
        };
        let neg_final = (0..NEGATIVES).map(|_| missing(&mut rng, &world)).collect();
        let neg_deep = (0..NEGATIVES)
            .map(|_| {
                format!(
                    "{}/{}/{}",
                    missing(&mut rng, &world),
                    rng.name(3, 8),
                    rng.name(3, 8)
                )
            })
            .collect();
        // Eight user credentials; files are 0644 under 0755 directories,
        // so every prefix check and final check passes on its merits.
        let populated: Vec<u32> = holders
            .iter()
            .copied()
            .filter(|&d| !dir_files[d as usize].is_empty())
            .collect();
        let mut dirfds = Vec::new();
        for u in 0..UIDS {
            let p = world.add_user(1000 + u as u32);
            let proc = world.procs[p].clone();
            let fds = (0..DIRFDS)
                .map(|_| {
                    let d = populated[rng.below(populated.len())];
                    let fd = world
                        .kernel
                        .open(
                            &proc,
                            &world.dirs[d as usize].path,
                            OpenFlags::directory(),
                            0,
                        )
                        .expect("open directory fd");
                    (fd, dir_files[d as usize].clone())
                })
                .collect();
            dirfds.push(fds);
        }
        Arc::new(Built {
            world,
            neg_final,
            neg_deep,
            dirfds,
        })
    }

    fn actors(built: &Arc<Built>, seed: u64) -> Vec<Box<dyn Actor>> {
        (0..super::load_threads())
            .map(|t| Box::new(Reader::new(built.clone(), seed, t)) as Box<dyn Actor>)
            .collect()
    }

    /// One thread rotating through all eight uids, so that every
    /// credential the replayed operations ran under has its PCC warm.
    fn read_actor(built: &Arc<Built>, seed: u64) -> Box<dyn Actor> {
        Box::new(Reader {
            uids: UIDS,
            ..Reader::new(built.clone(), seed, 0)
        })
    }

    fn premise(d: &Derived) -> Vec<String> {
        let mut bad = Vec::new();
        if d.miss_fs_per_lookup != 0.0 {
            bad.push(format!(
                "vfs.miss_fs_per_lookup = {} (want 0)",
                d.miss_fs_per_lookup
            ));
        }
        if d.fast_hit_ratio < 0.95 {
            bad.push(format!(
                "vfs.fast_hit_ratio = {:.4} (want >= 0.95)",
                d.fast_hit_ratio
            ));
        }
        bad
    }
}

/// One reader thread: four uids, rotated.
struct Reader {
    built: Arc<Built>,
    rng: Rng,
    /// Index of this thread's first user in `dirfds` (`+ 1` in `procs`).
    first_user: usize,
    /// How many uids, from `first_user` on, it rotates through.
    uids: usize,
    cur: usize,
    n: u64,
}

impl Reader {
    fn new(built: Arc<Built>, seed: u64, thread: usize) -> Reader {
        Reader {
            built,
            rng: Rng::new(seed).fork(0x100 + thread as u64),
            first_user: thread * UIDS_PER_THREAD,
            uids: UIDS_PER_THREAD,
            cur: 0,
            n: 0,
        }
    }
}

/// A draw from `user`'s eighth of `n` items, 80 % of them on the
/// hottest 20 % of that eighth.
fn pick(rng: &mut Rng, user: usize, n: usize) -> usize {
    let share = n / UIDS;
    let within = if rng.below(5) < 4 {
        rng.below(share / 5)
    } else {
        rng.below(share)
    };
    user * share + within
}

impl Actor for Reader {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut {
        self.n += 1;
        if self.n.is_multiple_of(ROTATE_EVERY) {
            self.cur = (self.cur + 1) % self.uids;
        }
        // Borrow the fields apart: the stream draws from `rng` while the
        // world is borrowed (cloning the `Arc` per step would put a shared
        // reference count on the path being measured).
        let Reader {
            built,
            rng,
            first_user,
            cur,
            ..
        } = self;
        let b: &Built = built;
        let w = &b.world;
        let user = *first_user + *cur;
        let pi = user + 1;
        let proc = &w.procs[pi];
        let k = &w.kernel;
        let r = rng.below(100);
        let ok = if r < 85 {
            let fi = pick(rng, user, w.files.len());
            let f = &w.files[fi];
            ctx.note(pi, &f.path, Some(fi as u32));
            if r < 60 {
                let res = ctx.call("vfs.stat", || k.stat(proc, &f.path));
                if let Some(d) = &mut ctx.digest {
                    d.attr(&res);
                }
                matches!(res, Ok(a) if a.ino == f.ino)
            } else if r < 75 {
                let res = ctx.call("vfs.open_close", || {
                    k.open(proc, &f.path, OpenFlags::read_only(), 0)
                        .and_then(|fd| k.close(proc, fd))
                });
                if let Some(d) = &mut ctx.digest {
                    d.errno(&res);
                }
                res.is_ok()
            } else {
                let res = ctx.call("vfs.access", || k.access(proc, &f.path, MAY_READ));
                if let Some(d) = &mut ctx.digest {
                    d.errno(&res);
                }
                res.is_ok()
            }
        } else if r < 95 {
            let set = if r < 90 { &b.neg_final } else { &b.neg_deep };
            let path = &set[pick(rng, user, set.len())];
            ctx.note(pi, path, None);
            let res = ctx.call("vfs.stat", || k.stat(proc, path));
            if let Some(d) = &mut ctx.digest {
                d.attr(&res);
            }
            res == Err(FsError::NoEnt)
        } else {
            let fds = &b.dirfds[user];
            let (fd, files) = &fds[rng.below(fds.len())];
            let f = &w.files[files[rng.below(files.len())] as usize];
            let res = ctx.call("vfs.fstatat", || k.fstatat(proc, *fd, f.name(), false));
            if let Some(d) = &mut ctx.digest {
                d.attr(&res);
            }
            matches!(res, Ok(a) if a.ino == f.ino)
        };
        StepOut::one(Class::Lookup, ok)
    }
}
