//! `mutate_mix` — the same structures used for writing.
//!
//! 64 project subtrees of 150 cached descendants each (10 directories of
//! 14 files) plus 8 flat maildir-like directories of 2 000 files, all
//! fitting in the dcache; default `KernelBuilder` root: journal on, free
//! device latency. **Flush policy:** no `fsync` per operation — the
//! journal commits every mutation to its log and checkpoints on its own
//! when the log fills; those stalls land in `mutate_ns_p99`.
//!
//! The mutator thread runs, per 100 draws: 50 create-or-unlink in a flat
//! directory (create+`close` while the directory is below 2 000 files,
//! `unlink` otherwise, so the two alternate 25/25 and the directory
//! keeps its size), 20 file `rename` within a flat directory, 10
//! `list_dir` of a flat directory, 10 `chmod` of a project directory,
//! 10 `rename` of a project directory. File names come from a pool of
//! 4 000 per directory, so negative dentries stay bounded and the
//! windows of a run see the same cache. A reader thread `stat`s uniform
//! random files under the project subtrees throughout.
//!
//! *Why:* the paper's Fig. 7 / Fig. 9 / Fig. 10 side of the trade —
//! shootdowns, DLHT eviction, seq bumps, completeness, journal commits.
//! A change that buys `warm_stat` speed by making invalidation or
//! republishing dearer shows here, and the racing reader exercises seq
//! retries and post-shootdown slowpath refills.

use super::Workload;
use crate::counters::Derived;
use crate::drive::{Actor, Class, StepCtx, StepOut};
use crate::rng::Rng;
use crate::serve::ServeTargets;
use crate::world::{KernelKind, World};
use dc_fs::FsError;
use dc_vfs::OpenFlags;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const PROJECTS: usize = 64;
const SUBDIRS: usize = 10;
const FILES_PER_SUBDIR: usize = 14;
const FLAT_DIRS: usize = 8;
const FLAT_FILES: usize = 2000;
/// Names a flat directory's files are drawn from.
const NAME_POOL: usize = 4000;
/// The two modes a project directory's `chmod` alternates between; both
/// keep it searchable by the reader.
const MODES: [u16; 2] = [0o755, 0o751];

/// The workload.
pub struct MutateMix;

/// One project subtree.
struct Project {
    /// The directory's two names; it is renamed back and forth.
    names: [String; 2],
    /// Even: at rest under `names[(gen / 2) % 2]`. Odd: a rename is in
    /// flight. Written by the mutator, read by the reader to tell an
    /// admissible `ENOENT` from a wrong one.
    gen: AtomicU32,
    /// Paths of its files under either name, and their indices in
    /// `World::files`.
    files: [Vec<String>; 2],
    file_idx: Vec<u32>,
}

/// The world, the project table, and the flat directories' name pools.
pub struct Built {
    world: World,
    projects: Vec<Project>,
    /// Per flat directory: its path and the `NAME_POOL` file paths.
    flats: Vec<(String, Vec<String>)>,
    /// The reader's process index.
    reader: usize,
}

impl AsRef<World> for Built {
    fn as_ref(&self) -> &World {
        &self.world
    }
}

impl Workload for MutateMix {
    const NAME: &'static str = "mutate_mix";
    type Built = Built;

    fn build(seed: u64, kind: KernelKind) -> Arc<Built> {
        let mut rng = Rng::new(seed).fork(3);
        let mut world = World::new(kind, seed, |c| c, None);
        let proj_root = world.mkdir("/proj".to_string());
        let proj_root = world.dirs[proj_root as usize].path.clone();
        let mut projects = Vec::with_capacity(PROJECTS);
        for p in 0..PROJECTS {
            let stem = rng.name(4, 9);
            let names = [
                format!("{proj_root}/{stem}{p:x}"),
                format!("{proj_root}/{stem}{p:x}.moved"),
            ];
            world.mkdir(names[0].clone());
            let mut files = [Vec::new(), Vec::new()];
            let mut file_idx = Vec::new();
            for s in 0..SUBDIRS {
                let sub = format!("{}{s:x}", rng.name(3, 8));
                let d = world.mkdir(format!("{}/{sub}", names[0]));
                for f in 0..FILES_PER_SUBDIR {
                    let name = format!("{}{f:x}", rng.name(3, 9));
                    file_idx.push(world.create(d, &name));
                    for (v, base) in names.iter().enumerate() {
                        files[v].push(format!("{base}/{sub}/{name}"));
                    }
                }
            }
            projects.push(Project {
                names,
                gen: AtomicU32::new(0),
                files,
                file_idx,
            });
        }
        let mail_root = world.mkdir("/mail".to_string());
        let mail_root = world.dirs[mail_root as usize].path.clone();
        let mut flats = Vec::with_capacity(FLAT_DIRS);
        for d in 0..FLAT_DIRS {
            let path = format!("{mail_root}/{}{d:x}", rng.name(4, 8));
            let dir = world.mkdir(path.clone());
            let pool: Vec<String> = (0..NAME_POOL)
                .map(|i| format!("{path}/{i:04}.{}", rng.name(6, 12)))
                .collect();
            // The first FLAT_FILES names of the pool start out live; the
            // rest are looked up once, so each has its negative dentry
            // from the start and the cache holds the same population
            // however many operations a run gets through.
            for (i, full) in pool.iter().enumerate() {
                if i < FLAT_FILES {
                    world.create(dir, &full[path.len() + 1..]);
                } else {
                    let _ = world.kernel.stat(world.root(), full);
                }
            }
            flats.push((path, pool));
        }
        let reader = world.add_user(1000);
        Arc::new(Built {
            world,
            projects,
            flats,
            reader,
        })
    }

    fn actors(built: &Arc<Built>, seed: u64) -> Vec<Box<dyn Actor>> {
        vec![
            Box::new(Mutator::new(built.clone(), seed)),
            Self::read_actor(built, seed),
        ]
    }

    /// The mutator's operations per second.
    fn throughput_actor() -> Option<usize> {
        Some(0)
    }

    /// The reader races the mutator, so its results are not a function
    /// of the seed alone; it is checked per operation instead.
    fn digested(actor: usize) -> bool {
        actor == 0
    }

    fn read_actor(built: &Arc<Built>, seed: u64) -> Box<dyn Actor> {
        Box::new(Reader {
            built: built.clone(),
            rng: Rng::new(seed).fork(0x301),
        })
    }

    /// Renames every project directory back to the name it was built
    /// under, so the paths in `World::files` are valid again.
    fn quiesce(built: &Built) {
        let w = &built.world;
        for p in &built.projects {
            let gen = p.gen.load(Ordering::SeqCst);
            if (gen / 2) % 2 == 1 {
                w.kernel
                    .rename(w.root(), &p.names[1], &p.names[0])
                    .expect("rename project back");
                p.gen.store(gen + 2, Ordering::SeqCst);
            }
        }
    }

    /// Project files only: the flat directories' files come and go.
    fn serve_targets(built: &Arc<Built>, seed: u64) -> Arc<ServeTargets> {
        let files: Vec<u32> = built
            .projects
            .iter()
            .flat_map(|p| p.file_idx.iter().copied())
            .collect();
        let dirs = super::dirs_of(&built.world, &files);
        Arc::new(ServeTargets::new(&built.world, &files, &dirs, seed))
    }

    fn premise(d: &Derived) -> Vec<String> {
        let mut bad = Vec::new();
        if d.shoot_visits_per_dir_mutation < 100.0 {
            bad.push(format!(
                "core.dcache.shoot_visits_per_dir_mutation = {:.1} (want >= 100: the reader keeps the subtrees cached)",
                d.shoot_visits_per_dir_mutation
            ));
        }
        bad
    }
}

/// The mutator thread and its model of the flat directories.
struct Mutator {
    built: Arc<Built>,
    rng: Rng,
    /// Per flat directory: pool indices that exist, and that do not.
    live: Vec<Vec<u16>>,
    free: Vec<Vec<u16>>,
    /// Per project: which of [`MODES`] it has now.
    mode: Vec<usize>,
}

impl Mutator {
    fn new(built: Arc<Built>, seed: u64) -> Mutator {
        Mutator {
            live: vec![(0..FLAT_FILES as u16).collect(); FLAT_DIRS],
            free: vec![(FLAT_FILES as u16..NAME_POOL as u16).collect(); FLAT_DIRS],
            mode: vec![0; PROJECTS],
            rng: Rng::new(seed).fork(0x300),
            built,
        }
    }
}

/// Removes and returns a uniform random element.
fn take(rng: &mut Rng, v: &mut Vec<u16>) -> u16 {
    let i = rng.below(v.len());
    v.swap_remove(i)
}

impl Actor for Mutator {
    /// Every operation here costs tens of microseconds: time them all.
    fn sample_every(&self) -> u64 {
        1
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut {
        let Mutator {
            built,
            rng,
            live,
            free,
            mode,
        } = self;
        let w = &built.world;
        let k = &w.kernel;
        let root = w.root();
        let r = rng.below(100);
        if r < 80 {
            let d = rng.below(FLAT_DIRS);
            let (dir_path, pool) = &built.flats[d];
            if r < 50 && live[d].len() < FLAT_FILES {
                let id = take(rng, &mut free[d]);
                let path = &pool[id as usize];
                ctx.note(0, path, None);
                let res = ctx.call("vfs.create_close", || {
                    k.open(root, path, OpenFlags::create(), 0o644)
                        .and_then(|fd| k.close(root, fd))
                });
                live[d].push(id);
                if let Some(dg) = &mut ctx.digest {
                    dg.errno(&res);
                    dg.attr(&k.stat(root, path));
                }
                StepOut::one(Class::Mutate, res.is_ok())
            } else if r < 50 {
                let id = take(rng, &mut live[d]);
                let path = &pool[id as usize];
                ctx.note(0, path, None);
                let res = ctx.call("vfs.unlink", || k.unlink(root, path));
                free[d].push(id);
                if let Some(dg) = &mut ctx.digest {
                    dg.errno(&res);
                    dg.attr(&k.stat(root, path));
                }
                StepOut::one(Class::Mutate, res.is_ok())
            } else if r < 70 {
                let from = take(rng, &mut live[d]);
                let to = take(rng, &mut free[d]);
                let (old, new) = (&pool[from as usize], &pool[to as usize]);
                ctx.note(0, old, None);
                let res = ctx.call("vfs.rename", || k.rename(root, old, new));
                live[d].push(to);
                free[d].push(from);
                if let Some(dg) = &mut ctx.digest {
                    dg.errno(&res);
                    dg.attr(&k.stat(root, old));
                    dg.attr(&k.stat(root, new));
                }
                StepOut::one(Class::Mutate, res.is_ok())
            } else {
                ctx.note(0, dir_path, None);
                let res = ctx.call("vfs.list_dir", || k.list_dir(root, dir_path));
                if let Some(dg) = &mut ctx.digest {
                    dg.listing(&res);
                }
                let want = live[d].len();
                let ok = matches!(&res, Ok(e) if e.len() == want);
                StepOut {
                    units: want.max(1) as u32,
                    ..StepOut::one(Class::Readdir, ok)
                }
            }
        } else {
            let p = rng.below(PROJECTS);
            let proj = &built.projects[p];
            let gen = proj.gen.load(Ordering::Relaxed);
            let cur = (gen / 2) as usize % 2;
            let class = if r < 90 {
                Class::DirChmod
            } else {
                Class::DirMutate
            };
            let ok = if r < 90 {
                mode[p] ^= 1;
                let path = &proj.names[cur];
                ctx.note(0, path, None);
                let res = ctx.call("vfs.chmod", || k.chmod(root, path, MODES[mode[p]]));
                if let Some(dg) = &mut ctx.digest {
                    dg.errno(&res);
                    dg.attr(&k.stat(root, path));
                }
                res.is_ok()
            } else {
                let (old, new) = (&proj.names[cur], &proj.names[cur ^ 1]);
                ctx.note(0, old, None);
                // Odd while the rename is in flight: the reader may see
                // either name fail.
                proj.gen.store(gen + 1, Ordering::SeqCst);
                let res = ctx.call("vfs.rename_dir", || k.rename(root, old, new));
                proj.gen.store(gen + 2, Ordering::SeqCst);
                if let Some(dg) = &mut ctx.digest {
                    dg.errno(&res);
                    dg.attr(&k.stat(root, old));
                    dg.attr(&k.stat(root, new));
                }
                res.is_ok()
            };
            StepOut::one(class, ok)
        }
    }
}

/// The racing reader: `stat`s files under the project subtrees.
struct Reader {
    built: Arc<Built>,
    rng: Rng,
}

impl Actor for Reader {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut {
        let Reader { built, rng } = self;
        let w = &built.world;
        let p = rng.below(PROJECTS);
        let proj = &built.projects[p];
        let f = rng.below(proj.file_idx.len());
        let fi = proj.file_idx[f];
        let before = proj.gen.load(Ordering::SeqCst);
        let path = &proj.files[(before / 2) as usize % 2][f];
        ctx.note(built.reader, path, Some(fi));
        let proc = &w.procs[built.reader];
        let res = ctx.call("vfs.stat", || w.kernel.stat(proc, path));
        // Admissible: the file's inode; or ENOENT, but only if its
        // project directory was being renamed while we looked.
        let ok = match res {
            Ok(a) => a.ino == w.files[fi as usize].ino,
            Err(FsError::NoEnt) => before % 2 == 1 || proj.gen.load(Ordering::SeqCst) != before,
            Err(_) => false,
        };
        StepOut::one(Class::Lookup, ok)
    }
}
