//! `cold_miss` — larger than both caches.
//!
//! 48 000 files in 2 000 leaf directories (24 each, under 40 top-level
//! directories) on a `MemFs` over a `CachedDisk` with 5 µs spun read and
//! write latency and `cache_pages = 1024` (4 MiB, a fraction of the
//! ~15 MiB of inode-table and directory blocks), with the dcache capped
//! at 8 192 dentries (a sixth of the tree). One thread; 90 % uniform
//! random `stat` over all files, 10 % `list_dir` of a uniform random
//! leaf directory.
//!
//! *Why:* Table 2's regime — most lookups miss, so `fs` (directory-block
//! scan, inode read), `blockdev` (page-cache misses, device reads) and
//! `core.dcache` eviction do the work and DLHT/PCC almost none. A
//! fastpath optimisation must show **no change** here; a memfs or
//! page-cache one must show here and not on `warm_stat`. Single-threaded
//! and seeded, so its counts repeat exactly.

use super::Workload;
use crate::counters::Derived;
use crate::drive::{Actor, Class, StepCtx, StepOut};
use crate::rng::Rng;
use crate::world::{KernelKind, World};
use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_fs::{FileSystem, MemFs, MemFsConfig};
use std::sync::Arc;

const TOP_DIRS: usize = 40;
const LEAVES_PER_TOP: usize = 50;
const FILES_PER_LEAF: usize = 24;
/// Spun device latency per block read or written, nanoseconds.
const DEVICE_NS: u64 = 5_000;
const CACHE_PAGES: usize = 1024;
const DCACHE_CAPACITY: usize = 8192;

/// The workload.
pub struct ColdMiss;

/// The world and its leaf directories.
pub struct Built {
    world: World,
    /// Indices into `world.dirs` of the 2 000 leaf directories.
    leaves: Vec<u32>,
}

impl AsRef<World> for Built {
    fn as_ref(&self) -> &World {
        &self.world
    }
}

impl Workload for ColdMiss {
    const NAME: &'static str = "cold_miss";
    type Built = Built;

    fn build(seed: u64, kind: KernelKind) -> Arc<Built> {
        let mut rng = Rng::new(seed).fork(2);
        // The oracle replay checks results, not time: it keeps the small
        // caches (they shape which code runs) but charges no latency.
        let latency = if kind == KernelKind::Oracle {
            LatencyModel::free()
        } else {
            LatencyModel::new(DEVICE_NS, DEVICE_NS, true)
        };
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            capacity_blocks: 1 << 18,
            latency,
            cache_pages: CACHE_PAGES,
            ..Default::default()
        }));
        let fs = MemFs::mkfs(
            disk,
            MemFsConfig {
                max_inodes: 1 << 18,
                ..Default::default()
            },
        )
        .expect("mkfs");
        let mut world = World::new(
            kind,
            seed,
            |c| c.with_capacity(DCACHE_CAPACITY),
            Some(fs as Arc<dyn FileSystem>),
        );
        let base = world.mkdir("/c".to_string());
        let base_path = world.dirs[base as usize].path.clone();
        let mut leaves = Vec::with_capacity(TOP_DIRS * LEAVES_PER_TOP);
        for t in 0..TOP_DIRS {
            let top = format!("{base_path}/{}{t:x}", rng.name(3, 8));
            world.mkdir(top.clone());
            for l in 0..LEAVES_PER_TOP {
                let leaf = world.mkdir(format!("{top}/{}{l:x}", rng.name(3, 8)));
                for f in 0..FILES_PER_LEAF {
                    let name = format!("{}{f:x}", rng.name(4, 10));
                    world.create(leaf, &name);
                }
                leaves.push(leaf);
            }
        }
        Arc::new(Built { world, leaves })
    }

    fn actors(built: &Arc<Built>, seed: u64) -> Vec<Box<dyn Actor>> {
        vec![Self::read_actor(built, seed)]
    }

    fn read_actor(built: &Arc<Built>, seed: u64) -> Box<dyn Actor> {
        Box::new(Scanner {
            built: built.clone(),
            rng: Rng::new(seed).fork(0x200),
        })
    }

    fn premise(d: &Derived) -> Vec<String> {
        let mut bad = Vec::new();
        if d.fast_hit_ratio > 0.5 {
            bad.push(format!(
                "vfs.fast_hit_ratio = {:.4} (want <= 0.5)",
                d.fast_hit_ratio
            ));
        }
        if d.device_reads_per_op < 1.0 {
            bad.push(format!(
                "blockdev.device_reads_per_op = {:.4} (want >= 1)",
                d.device_reads_per_op
            ));
        }
        bad
    }
}

/// The single load thread.
struct Scanner {
    built: Arc<Built>,
    rng: Rng,
}

impl Actor for Scanner {
    /// Every operation here costs tens of microseconds: time them all.
    fn sample_every(&self) -> u64 {
        1
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut {
        let Scanner { built, rng } = self;
        let w = &built.world;
        let proc = w.root();
        if rng.below(10) < 9 {
            let fi = rng.below(w.files.len());
            let f = &w.files[fi];
            ctx.note(0, &f.path, Some(fi as u32));
            let res = ctx.call("vfs.stat", || w.kernel.stat(proc, &f.path));
            if let Some(d) = &mut ctx.digest {
                d.attr(&res);
            }
            StepOut::one(Class::Lookup, matches!(res, Ok(a) if a.ino == f.ino))
        } else {
            let leaf = &w.dirs[built.leaves[rng.below(built.leaves.len())] as usize];
            let res = ctx.call("vfs.list_dir", || w.kernel.list_dir(proc, &leaf.path));
            if let Some(d) = &mut ctx.digest {
                d.listing(&res);
            }
            let ok = matches!(&res, Ok(e) if e.len() == FILES_PER_LEAF);
            StepOut {
                units: FILES_PER_LEAF as u32,
                ..StepOut::one(Class::Readdir, ok)
            }
        }
    }
}
