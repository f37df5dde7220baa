//! The four workloads. Each builds its inputs from the seed, runs
//! against the optimized configuration through public APIs only, and
//! checks every result.
//!
//! Sizes are stated against the program's own caches: the dcache
//! `capacity` (2^20 dentries by default), the 64 KiB PCC per credential
//! (4096 lines), the 2^16 DLHT buckets, and the page cache's
//! `cache_pages`.

pub mod cold_miss;
pub mod mutate_mix;
pub mod serve_mix;
pub mod warm_stat;

use crate::counters::Derived;
use crate::drive::Actor;
use crate::rng::Rng;
use crate::serve::ServeTargets;
use crate::world::{KernelKind, World};
use std::sync::Arc;

/// A workload: a seeded world and the closed-loop actors that load it.
pub trait Workload {
    /// The workload's name on the command line and in result files.
    const NAME: &'static str;
    /// The world plus whatever else the actors share.
    type Built: AsRef<World> + Send + Sync + 'static;

    /// Set-up, timed as `setup_s`: builds the tree (and, for
    /// `serve_mix`, starts the server) from `seed`.
    fn build(seed: u64, kind: KernelKind) -> Arc<Self::Built>;

    /// The load threads, one actor each. Each actor's stream is a pure
    /// function of `seed` and its position.
    fn actors(built: &Arc<Self::Built>, seed: u64) -> Vec<Box<dyn Actor>>;

    /// Which actor's throughput is the workload's `ops_per_s` (`None`:
    /// all of them together).
    fn throughput_actor() -> Option<usize> {
        None
    }

    /// Whether actor `i`'s stream is digested and replayed on the
    /// baseline kernel. Actors that race a mutator are checked per
    /// operation against their admissible set instead, and wire
    /// responses are checked one by one.
    fn digested(_actor: usize) -> bool {
        true
    }

    /// A single read-only actor over the same tree, used to bring a
    /// comparison kernel (baseline, observability on) into the
    /// workload's regime before its `stat` cost is measured.
    fn read_actor(built: &Arc<Self::Built>, seed: u64) -> Box<dyn Actor>;

    /// Called when the load threads have stopped and before anything
    /// reads the tree by the paths in [`World::files`]: puts back what
    /// the workload moved.
    fn quiesce(_built: &Self::Built) {}

    /// The server, when one is part of the system under test.
    fn server(_built: &Self::Built) -> Option<&dc_server::Server> {
        None
    }

    /// The server's counters, when there is a server.
    fn serve_stats(built: &Self::Built) -> Option<&dc_server::ServeStats> {
        Self::server(built).map(|s| &**s.stats())
    }

    /// What a wire client asks about on this tree (the `server` probe of
    /// the traced run): by default 2 048 seeded files and up to 64 of
    /// their directories.
    fn serve_targets(built: &Arc<Self::Built>, seed: u64) -> Arc<ServeTargets> {
        let world: &World = (**built).as_ref();
        let mut rng = Rng::new(seed).fork(0x7a46);
        let files: Vec<u32> = (0..2048)
            .map(|_| rng.below(world.files.len()) as u32)
            .collect();
        Arc::new(ServeTargets::new(
            world,
            &files,
            &dirs_of(world, &files),
            seed,
        ))
    }

    /// Whether the workload still is what it says (reported as
    /// `premise_ok`, never a failure: a real caching improvement must
    /// not be refused). Returns the failed conditions.
    fn premise(d: &Derived) -> Vec<String>;
}

/// Names of the four workloads, in the order `run` without `--workload`
/// executes them.
pub const ALL: [&str; 4] = [
    warm_stat::WarmStat::NAME,
    cold_miss::ColdMiss::NAME,
    mutate_mix::MutateMix::NAME,
    serve_mix::ServeMix::NAME,
];

/// Load threads a workload may use: at most `min(nproc, 2)`.
pub fn load_threads() -> usize {
    crate::host::nproc().min(2)
}

/// Up to 64 distinct directories holding `files`.
pub fn dirs_of(world: &World, files: &[u32]) -> Vec<u32> {
    let mut dirs: Vec<u32> = files.iter().map(|&f| world.files[f as usize].dir).collect();
    dirs.sort_unstable();
    dirs.dedup();
    dirs.truncate(64);
    dirs
}
