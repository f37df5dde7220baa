//! `serve_mix` — the wire.
//!
//! The `repro serve` tree shape (4 096 files in 64 directories, fits
//! every cache), `Server::start` with one worker, and one client thread
//! driving `min(nproc, 2)` connections, each keeping 8 frames
//! outstanding. Frames: 60 % carry 1 request, 30 % carry 8, 10 % carry
//! 32; requests: 50 % `LookupSig` (2 % of them on deliberately stale
//! signatures, expected `SigMiss`), 30 % path `Lookup`, 15 % `Stat`,
//! 5 % `Readdir`.
//!
//! *Why:* `server.proto`, the transport and the queue dominate, and
//! small frames make the per-frame fixed cost about half the time, so a
//! run-to-completion serving path can show while a DLHT change should
//! barely move it.

use super::Workload;
use crate::counters::Derived;
use crate::drive::{Actor, Class, StepCtx, StepOut};
use crate::rng::Rng;
use crate::serve::{ServeClient, ServeTargets};
use crate::world::{KernelKind, World};
use dc_server::{Server, ServerConfig};
use std::sync::Arc;

const DIRS: usize = 64;
const FILES_PER_DIR: usize = 64;

/// The workload.
pub struct ServeMix;

/// The world, the running server, and what the client asks about.
pub struct Built {
    world: World,
    /// The server under test (one worker).
    pub server: Server,
    targets: Arc<ServeTargets>,
}

impl AsRef<World> for Built {
    fn as_ref(&self) -> &World {
        &self.world
    }
}

/// `Server::start` as the workload configures it: one worker, default
/// queue depth (256 — sixteen frames in flight never fill it).
pub fn start_server(world: &World) -> Server {
    let server = Server::start(
        world.kernel.clone(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    server.register_cred(1, world.root().clone());
    server
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    type Built = Built;

    fn build(seed: u64, kind: KernelKind) -> Arc<Built> {
        let mut rng = Rng::new(seed).fork(4);
        let mut world = World::new(kind, seed, |c| c, None);
        let srv = world.mkdir("/srv".to_string());
        let srv = world.dirs[srv as usize].path.clone();
        let mut dirs = Vec::with_capacity(DIRS);
        for d in 0..DIRS {
            let dir = world.mkdir(format!("{srv}/{}{d:x}", rng.name(3, 8)));
            for f in 0..FILES_PER_DIR {
                world.create(dir, &format!("{}{f:x}", rng.name(3, 9)));
            }
            dirs.push(dir);
        }
        let files: Vec<u32> = (0..world.files.len() as u32).collect();
        let targets = Arc::new(ServeTargets::new(&world, &files, &dirs, seed));
        let server = start_server(&world);
        Arc::new(Built {
            world,
            server,
            targets,
        })
    }

    fn actors(built: &Arc<Built>, seed: u64) -> Vec<Box<dyn Actor>> {
        let conns = (0..super::load_threads())
            .map(|_| built.server.connect())
            .collect();
        vec![Box::new(ServeClient::new(
            built.targets.clone(),
            conns,
            seed,
            true,
        ))]
    }

    fn server(built: &Built) -> Option<&Server> {
        Some(&built.server)
    }

    fn serve_targets(built: &Arc<Built>, _seed: u64) -> Arc<ServeTargets> {
        built.targets.clone()
    }

    /// Every wire response is checked for status, id and inode number as
    /// it arrives; there is no in-process stream to replay.
    fn digested(_actor: usize) -> bool {
        false
    }

    fn read_actor(built: &Arc<Built>, seed: u64) -> Box<dyn Actor> {
        Box::new(DirectStat {
            built: built.clone(),
            rng: Rng::new(seed).fork(0x401),
        })
    }

    fn premise(d: &Derived) -> Vec<String> {
        let mut bad = Vec::new();
        if d.rejected_share != 0.0 {
            bad.push(format!(
                "server.rejected_share = {} (want 0)",
                d.rejected_share
            ));
        }
        bad
    }
}

/// In-process `stat` over the served files (comparison kernels only).
struct DirectStat {
    built: Arc<Built>,
    rng: Rng,
}

impl Actor for DirectStat {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> StepOut {
        let w = &self.built.world;
        let f = &w.files[self.rng.below(w.files.len())];
        let res = w.kernel.stat(w.root(), &f.path);
        StepOut::one(Class::Lookup, matches!(res, Ok(a) if a.ino == f.ino))
    }
}
