//! The replay groups: after the traced window, every layer below (and
//! beside) `vfs` is called directly, through its public functions, with
//! the inputs of the operations that were traced — their paths,
//! signatures, dentry ids, directory inode numbers and block numbers.
//!
//! Read probes run first, so each sees the caches as the workload left
//! them; probes that change state (insert/remove, create/unlink,
//! shootdowns, cache drops) run last. Calls that take tens of nanoseconds are timed sixteen to a
//! span; the numbers reported are medians of per-span means.

use crate::drive::ReplayInput;
use crate::span::Tracer;
use crate::world::World;
use dc_cred::{PermCtx, MAY_EXEC, MAY_READ};
use dc_fs::FileSystem;
use dc_obs::LatencyHist;
use dc_vfs::OpenFlags;
use dcache_core::{Dentry, Pcc, Signature};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls per replay span for the cheap layers.
const BATCH: usize = 16;
/// Traced operations replayed at most.
pub const MAX_REPLAY: usize = 4096;
/// Directories used by the directory-level probes at most.
const MAX_DIRS: usize = 32;

/// One replayed operation with what the probes derive from its path.
struct Item<'a> {
    input: &'a ReplayInput,
    comps: Vec<&'a [u8]>,
    sig: Signature,
    /// The cached dentry the path resolves to, once it has been looked up.
    dentry: Option<Arc<Dentry>>,
}

/// Runs `f` over `items` in spans of [`BATCH`] calls named `name`.
fn batched<T>(
    tr: &mut Tracer,
    name: &'static str,
    items: &[T],
    op_id: impl Fn(&T) -> u64,
    mut f: impl FnMut(&T),
) {
    for chunk in items.chunks(BATCH) {
        tr.replay(name, op_id(&chunk[0]), chunk.len() as u32, || {
            for item in chunk {
                f(item);
            }
        });
    }
}

fn components(path: &str) -> Vec<&[u8]> {
    path.split('/')
        .filter(|c| !c.is_empty())
        .map(str::as_bytes)
        .collect()
}

/// The in-process layers: `sighash`, `core.*`, `vfs`, `cred`, `fs`,
/// `blockdev`, `obs`, and the clock. Spans go to `tr`; the per-layer
/// numbers are read back from it by the caller.
///
/// Returns the bytes of path components the `sighash.hash` spans hashed
/// (the denominator of `sighash.ns_per_byte`).
pub fn run(world: &World, replay: &[ReplayInput], tr: &mut Tracer) -> u64 {
    let k = &world.kernel;
    let dc = &k.dcache;
    let ns = world.ns;
    let mut items: Vec<Item<'_>> = replay
        .iter()
        .take(MAX_REPLAY)
        .map(|input| Item {
            input,
            comps: components(&input.path),
            sig: Signature::from_wire([0; 4]),
            dentry: None,
        })
        .collect();
    // --- the fastpath and its parts, each on first touch ---------------
    // `vfs.stat` is timed on every other traced operation and the three
    // layers it is made of — hash, DLHT probe, PCC check — on the ones in
    // between: two samples of one stream, neither warmed by the other's
    // probe, so that `vfs.stat_ns` minus the parts is what the parts
    // leave unexplained and not an artefact of who ran first.
    let (whole, parts): (Vec<usize>, Vec<usize>) = (0..items.len()).partition(|i| i % 2 == 0);
    let whole_items: Vec<&Item<'_>> = whole.iter().map(|&i| &items[i]).collect();
    batched(
        tr,
        "vfs.stat",
        &whole_items,
        |it| it.input.op_id,
        |it| {
            let _ = black_box(k.stat(&world.procs[it.input.proc], &it.input.path));
        },
    );
    let mut sigs = Vec::with_capacity(parts.len());
    {
        let part_items: Vec<&Item<'_>> = parts.iter().map(|&i| &items[i]).collect();
        batched(
            tr,
            "sighash.hash",
            &part_items,
            |it| it.input.op_id,
            |it| {
                sigs.push(black_box(dc.key.hash_components(it.comps.iter().copied())));
            },
        );
    }
    for (&i, sig) in parts.iter().zip(sigs) {
        items[i].sig = sig;
    }
    let hashed_bytes = parts
        .iter()
        .flat_map(|&i| items[i].comps.iter())
        .map(|c| c.len() as u64)
        .sum();
    let mut found = Vec::with_capacity(parts.len());
    {
        let part_items: Vec<&Item<'_>> = parts.iter().map(|&i| &items[i]).collect();
        batched(
            tr,
            "core.dlht.lookup",
            &part_items,
            |it| it.input.op_id,
            |it| {
                found.push(black_box(dc.dlht_lookup(ns, &it.sig)));
            },
        );
    }
    for (&i, d) in parts.iter().zip(found) {
        items[i].dentry = d;
    }
    let mut pccs: BTreeMap<usize, Arc<Pcc>> = BTreeMap::new();
    for it in &items {
        pccs.entry(it.input.proc)
            .or_insert_with(|| dc.pcc_for(&world.procs[it.input.proc].cred(), ns));
    }
    {
        let hits: Vec<&Item<'_>> = parts
            .iter()
            .map(|&i| &items[i])
            .filter(|it| it.dentry.is_some())
            .collect();
        batched(
            tr,
            "core.pcc.check",
            &hits,
            |it| it.input.op_id,
            |it| {
                let d = it.dentry.as_ref().expect("filtered on Some");
                black_box(pccs[&it.input.proc].check(d.id(), d.seq()));
            },
        );
    }
    // Untimed: resolve the other half too, so that every path that
    // resolves is published and the remaining probes have its signature,
    // dentry id, seq and parent.
    for it in &mut items {
        it.sig = dc.key.hash_components(it.comps.iter().copied());
        let _ = k.stat(&world.procs[it.input.proc], &it.input.path);
        it.dentry = dc.dlht_lookup(ns, &it.sig);
    }
    let cached: Vec<&Item<'_>> = items.iter().filter(|it| it.dentry.is_some()).collect();
    let idr = |it: &&Item<'_>| it.input.op_id;
    let dentry = |it: &&Item<'_>| it.dentry.clone().expect("filtered on Some");
    batched(tr, "core.pcc.insert", &cached, idr, |it| {
        let d = it.dentry.as_ref().expect("filtered on Some");
        pccs[&it.input.proc].insert(d.id(), d.seq());
    });
    let with_parent: Vec<(&Item<'_>, Arc<Dentry>, Arc<str>)> = cached
        .iter()
        .filter_map(|it| {
            let d = dentry(it);
            Some((*it, d.parent()?, d.name()))
        })
        .collect();
    batched(
        tr,
        "core.dcache.d_lookup",
        &with_parent,
        |x| x.0.input.op_id,
        |(_, parent, name)| {
            black_box(dc.d_lookup(parent, name));
        },
    );
    let prefix_checks: Vec<_> = with_parent
        .iter()
        .filter_map(|(it, parent, _)| {
            Some((
                it.input.op_id,
                world.procs[it.input.proc].cred(),
                parent.inode()?.attr(),
            ))
        })
        .collect();
    batched(
        tr,
        "cred.permission",
        &prefix_checks,
        |x| x.0,
        |(_, cred, attr)| {
            let ctx = PermCtx { attr, path: None };
            let _ = black_box(k.security.permission(cred, &ctx, MAY_EXEC));
        },
    );
    let files: Vec<&Item<'_>> = items.iter().filter(|it| it.input.file.is_some()).collect();
    batched(tr, "vfs.access", &files, idr, |it| {
        let _ = black_box(k.access(&world.procs[it.input.proc], &it.input.path, MAY_READ));
    });
    batched(tr, "vfs.open_close", &files, idr, |it| {
        let p = &world.procs[it.input.proc];
        let _ = black_box(
            k.open(p, &it.input.path, OpenFlags::read_only(), 0)
                .and_then(|fd| k.close(p, fd)),
        );
    });
    batched(tr, "vfs.lookup_sig", &cached, idr, |it| {
        black_box(k.lookup_sig(&world.procs[it.input.proc], &it.sig));
    });

    // --- below the VFS: the file system and its disk -------------------
    let memfs = world.memfs();
    let fs: &dyn FileSystem = &*memfs;
    let on_disk: Vec<(u64, u64, &str, u64)> = files
        .iter()
        .map(|it| {
            let f = &world.files[it.input.file.expect("filtered on Some") as usize];
            (
                it.input.op_id,
                world.dirs[f.dir as usize].ino,
                f.name(),
                f.ino,
            )
        })
        .collect();
    batched(
        tr,
        "fs.lookup",
        &on_disk,
        |x| x.0,
        |&(_, dir, name, _)| {
            let _ = black_box(fs.lookup(dir, name));
        },
    );
    batched(
        tr,
        "fs.getattr",
        &on_disk,
        |x| x.0,
        |&(_, _, _, ino)| {
            let _ = black_box(fs.getattr(ino));
        },
    );
    let mut dirs: Vec<u64> = on_disk.iter().map(|x| x.1).collect();
    dirs.sort_unstable();
    dirs.dedup();
    dirs.truncate(MAX_DIRS);
    for &dir in &dirs {
        let mut out = Vec::new();
        let idx = tr.open("fs.readdir", None, 0);
        let mut cursor = Some(0);
        while let Some(at) = cursor {
            cursor = fs.readdir(dir, at, usize::MAX, &mut out).unwrap_or(None);
        }
        tr.close(idx);
        let s = &mut tr.spans[idx as usize];
        s.replay = true;
        s.n = out.len().max(1) as u32;
    }
    let disk = memfs.disk();
    let geo = memfs.geometry();
    let inodes_per_block = (geo.max_inodes / geo.itab_blocks.max(1)).max(1);
    let mut blocks: Vec<u64> = on_disk
        .iter()
        .map(|x| geo.itab_start + x.3 / inodes_per_block)
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    // Reads are timed one to a span: whether the page was resident is
    // only known afterwards, from the disk's own miss counter.
    let read_classified = |tr: &mut Tracer, block: u64| {
        let misses = disk.stats().cache_misses;
        let idx = tr.open("blockdev.read_hit", None, 0);
        let data = disk.read_block(block);
        tr.close(idx);
        let s = &mut tr.spans[idx as usize];
        s.replay = true;
        if disk.stats().cache_misses != misses {
            s.name = "blockdev.read_miss";
        }
        data
    };
    let mut contents = Vec::with_capacity(blocks.len());
    for &b in &blocks {
        if let Ok(data) = read_classified(tr, b) {
            contents.push((b, data));
        }
    }

    // --- probes that change state, last ------------------------------
    for (b, data) in &contents {
        // Rewriting a block with its own bytes dirties the page and
        // nothing else.
        tr.replay("blockdev.write_block", 0, 1, || {
            let _ = disk.write_block(*b, data);
        });
    }
    batched(tr, "core.dlht.insert_remove", &cached, idr, |it| {
        let d = it.dentry.as_ref().expect("filtered on Some");
        dc.dlht_remove(d);
        dc.dlht_insert(ns, it.sig, d);
    });
    let names: Vec<String> = (0..BATCH * 8).map(|i| format!("zz-probe-{i}")).collect();
    for (i, chunk) in names.chunks(BATCH).enumerate() {
        let Some(&dir) = dirs.get(i % dirs.len().max(1)) else {
            break;
        };
        tr.replay("fs.create_unlink", 0, chunk.len() as u32, || {
            for name in chunk {
                if fs.create(dir, name, 0o644, 0, 0).is_ok() {
                    let _ = fs.unlink(dir, name);
                }
            }
        });
    }
    let mut shot = Vec::new();
    for (_, parent, _) in &with_parent {
        if shot.len() == MAX_DIRS {
            break;
        }
        if !shot.contains(&parent.id()) {
            shot.push(parent.id());
            let idx = tr.open("core.dcache.shoot", None, 0);
            let visits = dc.shoot_subtree(parent, true);
            tr.close(idx);
            let s = &mut tr.spans[idx as usize];
            s.replay = true;
            s.n = visits.max(1) as u32;
        }
    }
    // Every workload reports a miss cost: where the pages all fit, empty
    // the page cache and read the same blocks again.
    if tr.totals("blockdev.read_miss").1 < 32 {
        let _ = disk.sync();
        disk.drop_caches();
        for &b in blocks.iter().take(256) {
            let _ = read_classified(tr, b);
        }
    }

    // --- observability and the harness itself -------------------------
    let hist = LatencyHist::new();
    for round in 0..64u64 {
        tr.replay("obs.hist_record", 0, 1024, || {
            for i in 0..1024u64 {
                hist.record(black_box(100 + round * 37 + i));
            }
        });
        tr.replay("bench.clock", 0, 1024, || {
            for _ in 0..1024 {
                black_box(Instant::now());
            }
        });
    }
    black_box(hist.count());
    hashed_bytes
}

/// `Kernel::stat` over the replayed paths on a comparison world
/// (baseline, or observability on), as spans called `name`. The paths
/// and processes line up because both worlds come from one seed.
pub fn stat_replay(world: &World, replay: &[ReplayInput], name: &'static str, tr: &mut Tracer) {
    let inputs: Vec<&ReplayInput> = replay.iter().take(MAX_REPLAY).collect();
    batched(
        tr,
        name,
        &inputs,
        |i| i.op_id,
        |i| {
            let _ = black_box(world.kernel.stat(&world.procs[i.proc], &i.path));
        },
    );
}
