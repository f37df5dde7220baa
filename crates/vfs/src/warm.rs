//! Warm restart: checkpointing the directory cache into the memfs's
//! warm-index region, and rehydrating it after a remount.
//!
//! A node that restarts — crash or planned — normally comes back with an
//! empty dcache and pays a full cold-miss ramp: every path must fault
//! through the slowpath and the backing store before the DLHT fastpath
//! starts hitting. The warm index short-circuits that ramp.
//! [`Kernel::warm_checkpoint`] walks the live dentry tree parents-first
//! and persists one record per positive dentry (inode, parent inode,
//! name) into journal-protected blocks; [`Kernel::warm_restart`] reads
//! it back after journal replay and republishes the entries so the very
//! first lookups hit the fastpath.
//!
//! # Trust model: validate, sign, then publish
//!
//! Nothing read from the index is trusted into the cache:
//!
//! - The on-disk load path ([`MemFs::read_warm_index`]) already enforces
//!   header checksums, version, A/B generation choice, payload checksums,
//!   and the journal binding (an index bound past the recovered tail is
//!   rejected wholesale). Any failure is a typed whole-index fallback —
//!   the node boots cold, exactly as if the index did not exist.
//! - Every surviving entry is validated against the **recovered** inode
//!   table: `fs.lookup(parent, name)` must succeed and return the
//!   recorded inode number. Operations that committed after the
//!   checkpoint (rename, unlink, create-over) make the entry stale; it
//!   is skipped, not published. No phantom and no stale dentries.
//! - The index holds no signature and no hash state: a signature stands
//!   for one path under one boot's key. Each entry is **signed** under
//!   the *current* boot key by extending its parent's rehydrated state
//!   with its name. Because entries are written parents-first and any
//!   capacity truncation drops a suffix, a parent's state is always
//!   rehydrated before its children need it. An entry whose parent was
//!   rejected, or whose path runs past the key schedule, is rejected too
//!   (per-entry fallback), keeping the published set an exact subset of
//!   the recovered tree.
//!
//! [`MemFs::read_warm_index`]: dc_fs::MemFs::read_warm_index

use crate::kernel::{as_memfs, Kernel};
use dc_fs::{FsResult, WarmEntry, WarmLoad, WarmReject};
use dcache_core::{Dentry, DentryState, HashState};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Why a warm restart published nothing and the node boots cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmFallback {
    /// No checkpoint exists on disk (fresh format, or never written).
    Absent,
    /// The index was rejected wholesale: torn payload, corrupt or
    /// wrong-version header, or bound to a journal sequence the disk
    /// never durably reached.
    Rejected(WarmReject),
    /// The root file system has no warm-index region (not a memfs).
    Unsupported,
}

/// What a [`Kernel::warm_restart`] attempt did, entry by entry.
#[derive(Debug, Clone, Default)]
pub struct WarmRestartOutcome {
    /// Index entries examined.
    pub attempted: u64,
    /// Dentries validated against the recovered tree and published into
    /// the dcache and the init namespace's DLHT.
    pub published: u64,
    /// Entries rejected by per-entry validation: the recovered file
    /// system no longer has that (parent, name) → inode binding, the
    /// entry's path runs past the key schedule, or the entry's parent was
    /// itself rejected.
    pub rejected: u64,
    /// Set when the whole index was unusable; `None` means entries were
    /// at least examined (even if each was individually rejected).
    pub fallback: Option<WarmFallback>,
    /// Journal sequence the loaded index was bound to (0 when none).
    pub bound_seq: u64,
}

impl WarmRestartOutcome {
    /// True when the cache starts entirely cold.
    pub fn is_cold(&self) -> bool {
        self.published == 0
    }

    fn fell_back(fallback: WarmFallback) -> WarmRestartOutcome {
        WarmRestartOutcome {
            fallback: Some(fallback),
            ..Default::default()
        }
    }
}

impl Kernel {
    /// Checkpoints the live directory cache into the root memfs's warm
    /// index: journal checkpoint first (so everything the index
    /// references is durable), then one record per positive dentry,
    /// parents before children. Returns the number of entries persisted
    /// (capacity truncation drops deepest-last). `Ok(0)` when the root
    /// file system is not a memfs.
    pub fn warm_checkpoint(&self) -> FsResult<usize> {
        let root_mount = self.init_namespace().root_mount();
        let Some(memfs) = as_memfs(&root_mount.sb.fs) else {
            return Ok(0);
        };
        let root = root_mount.sb.root.clone();
        let root_ino = root_mount.sb.fs.root_ino();
        let mut entries: Vec<WarmEntry> = Vec::new();
        let mut queue: VecDeque<(Arc<Dentry>, u64)> = VecDeque::new();
        queue.push_back((root, root_ino));
        while let Some((dir, dir_ino)) = queue.pop_front() {
            for child in dir.children_snapshot() {
                if child.is_dead() {
                    continue;
                }
                // Only positive dentries are worth persisting: negatives
                // and partials are cheap to re-learn and cannot be
                // validated against the inode table.
                let Some(inode) = child.inode() else {
                    continue;
                };
                entries.push(WarmEntry {
                    ino: inode.ino,
                    parent: dir_ino,
                    name: child.name().to_string(),
                });
                if inode.is_dir() {
                    queue.push_back((child, inode.ino));
                }
            }
        }
        let kept = memfs.warm_checkpoint(&entries)?;
        self.dcache
            .stats
            .warm_checkpoints
            .fetch_add(1, Ordering::Relaxed);
        Ok(kept)
    }

    /// Rehydrates the dcache and the init namespace's DLHT from the warm
    /// index, after mount-time journal replay. Never panics and never
    /// publishes an entry the recovered file system disagrees with; on
    /// any whole-index problem it returns a typed fallback and the node
    /// simply boots cold. See the [module docs](self) for the trust
    /// model.
    pub fn warm_restart(&self) -> FsResult<WarmRestartOutcome> {
        self.dcache
            .stats
            .warm_restart_attempts
            .fetch_add(1, Ordering::Relaxed);
        let outcome = self.warm_restart_inner()?;
        self.dcache
            .stats
            .warm_restart_published
            .fetch_add(outcome.published, Ordering::Relaxed);
        self.dcache
            .stats
            .warm_restart_rejected
            .fetch_add(outcome.rejected, Ordering::Relaxed);
        if outcome.fallback.is_some() {
            self.dcache
                .stats
                .warm_restart_fallbacks
                .fetch_add(1, Ordering::Relaxed);
        }
        self.dcache.obs.event(|| dc_obs::TraceEvent::WarmRestart {
            published: outcome.published as u32,
            rejected: outcome.rejected as u32,
            fallback: outcome.fallback.is_some(),
        });
        Ok(outcome)
    }

    fn warm_restart_inner(&self) -> FsResult<WarmRestartOutcome> {
        let init_ns = self.init_namespace();
        let root_mount = init_ns.root_mount();
        let fs = root_mount.sb.fs.clone();
        let Some(memfs) = as_memfs(&fs) else {
            return Ok(WarmRestartOutcome::fell_back(WarmFallback::Unsupported));
        };
        let (entries, bound_seq) = match memfs.read_warm_index()? {
            WarmLoad::Loaded {
                entries, bound_seq, ..
            } => (entries, bound_seq),
            WarmLoad::Absent => {
                return Ok(WarmRestartOutcome::fell_back(WarmFallback::Absent));
            }
            WarmLoad::Rejected(reject) => {
                return Ok(WarmRestartOutcome::fell_back(WarmFallback::Rejected(
                    reject,
                )));
            }
        };
        let mut outcome = WarmRestartOutcome {
            bound_seq,
            ..Default::default()
        };
        let key = &self.dcache.key;
        let sb_id = root_mount.sb.id;
        let root_ino = fs.root_ino();
        let mut published = self.dcache.publications(None, |_| false);
        // Rehydrated directories, keyed by inode number: each entry
        // resumes hashing from its parent's state. Seeded with the root;
        // entries are parents-first, so a missing parent here means the
        // parent itself was rejected (or the index is malformed) —
        // reject the child rather than guess.
        let mut dirs: HashMap<u64, (Arc<Dentry>, HashState)> = HashMap::new();
        dirs.insert(root_ino, (root_mount.sb.root.clone(), key.root_state()));
        for e in &entries {
            outcome.attempted += 1;
            let signed = dirs
                .get(&e.parent)
                .and_then(|(dir, path)| Some((dir.clone(), key.extend(path, e.name.as_bytes())?)));
            let Some((parent_dentry, st)) = signed else {
                outcome.rejected += 1;
                continue;
            };
            // The recovered inode table is the authority: the binding
            // must still exist and still point at the recorded inode.
            let attr = match fs.lookup(e.parent, &e.name) {
                Ok(attr) if attr.ino == e.ino => attr,
                _ => {
                    outcome.rejected += 1;
                    continue;
                }
            };
            let inode = self.icache.get_or_create(sb_id, &fs, attr);
            let is_dir = inode.is_dir();
            let dentry = {
                let _dl = parent_dentry.dir_lock().lock();
                match self.dcache.d_lookup(&parent_dentry, &e.name) {
                    Some(existing) => existing,
                    None => {
                        self.dcache
                            .d_alloc(&parent_dentry, &e.name, DentryState::Positive(inode))
                    }
                }
            };
            published.add(&dentry, st, root_mount.id);
            outcome.published += 1;
            if is_dir {
                dirs.insert(e.ino, (dentry, st));
            }
        }
        published.apply(|| init_ns.dlht_handle(&self.dcache));
        Ok(outcome)
    }
}
