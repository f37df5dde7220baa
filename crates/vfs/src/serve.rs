//! Serve-facing kernel entry points.
//!
//! The metadata server (`dc-server`) executes batches of lookups on
//! behalf of remote clients. These entry points differ from the syscall
//! surface in two ways:
//!
//! - **No syscall-class sample.** The server owns its own per-worker
//!   latency histograms (per protocol op, including decode and encode);
//!   a sample in the recorder's per-class histograms as well
//!   ([`Recorder::time`](dc_obs::Recorder::time)) would count each
//!   request twice.
//! - **Signature-keyed lookups.** A client that has previously resolved
//!   a path can retry by its 240-bit signature alone
//!   ([`Kernel::lookup_sig`]), skipping parse and hash entirely — the
//!   DLHT probe plus seq validation is the whole request. This is the
//!   serving-tier shape *Fletch* (PAPERS.md) argues for: compact keys
//!   the front-end can verify without walking.
//! - **Shared listings.** A served `readdir` of a complete directory
//!   ([`Kernel::readdir_path`]) is the directory's published §5.1
//!   listing block itself, which the server encodes in place.
//!
//! Lookup accounting still flows through the standard counters
//! (`stats.lookups`, `LookupStart`/`LookupEnd`, fastpath hit/miss
//! counters) so the events↔stats reconciliation invariants hold for
//! served traffic exactly as for local syscalls.

use crate::kernel::Kernel;
use crate::path::PathRef;
use crate::process::Process;
use dc_cred::MAY_READ;
use dc_fs::{DirEntry, FileType, FsError, FsResult};
use dcache_core::{Signature, FLAG_DIR_COMPLETE};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A successful served lookup: the identity of the object plus,
/// optionally, its path signature for future signature-keyed lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupReply {
    /// Inode number.
    pub ino: u64,
    /// Object type.
    pub ftype: FileType,
    /// The resolved path's signature, when requested and available: the
    /// fastpath is on and the path ends within the key schedule.
    pub sig: Option<Signature>,
}

/// Outcome of a signature-keyed lookup ([`Kernel::lookup_sig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigLookup {
    /// The signature validated against a live positive dentry.
    Hit(LookupReply),
    /// Definitive cached answer that the object is absent or otherwise
    /// in error (negative dentry, symlink loop, ...).
    Neg(FsError),
    /// Not answerable from the cache (DLHT miss, PCC miss, seq churn):
    /// the client must retry by path, which repopulates the caches.
    Miss,
}

impl Kernel {
    /// Serves a path lookup: resolves `path` (following symlinks) and
    /// returns the object's identity. With `want_sig`, also returns the
    /// path's signature so the client can switch to
    /// [`lookup_sig`](Kernel::lookup_sig).
    pub fn lookup_path(&self, proc: &Process, path: &str, want_sig: bool) -> FsResult<LookupReply> {
        self.resolve_with(proc, None, path, true, |r| {
            let inode = r.require_inode()?;
            let sig = want_sig
                .then(|| {
                    let guard = &crossbeam_epoch::pin();
                    let at = PathRef::new(r.mount.clone(), r.dentry.clone());
                    let h = self.rebuild_hash_state(proc.namespace_read(guard), &at, guard)?;
                    Some(self.dcache.key.finish(&h))
                })
                .flatten();
            Ok(LookupReply {
                ino: inode.ino,
                ftype: inode.ftype(),
                sig,
            })
        })
    }

    /// Serves a `stat`: full attributes, symlinks followed. Identical to
    /// [`stat`](Kernel::stat) minus its `stat` latency sample.
    pub fn stat_path(&self, proc: &Process, path: &str) -> FsResult<dc_fs::InodeAttr> {
        self.stat_at(proc, None, path, true)
    }

    /// Serves a `readdir` of a whole directory: the entries
    /// [`list_dir`](Kernel::list_dir) returns, with its checks and errors
    /// (symlinks followed, `ENOTDIR`, `MAY_READ`), as one shared block.
    /// A complete directory (§5.1) hands out its published listing
    /// itself — no file descriptor, no copied name — and later calls
    /// share that block until the directory changes. An incomplete
    /// directory, or a cache without completeness, is listed by
    /// `list_dir`.
    pub fn readdir_path(&self, proc: &Process, path: &str) -> FsResult<Arc<Vec<DirEntry>>> {
        if !self.dcache.config.dir_completeness {
            return self.list_dir(proc, path).map(Arc::new);
        }
        let published = self.resolve_with(proc, None, path, true, |r| {
            let inode = r.require_inode()?;
            if !inode.is_dir() {
                return Err(FsError::NotDir);
            }
            let hint = self.path_hint(r.mount, &r.dentry);
            self.permission(&proc.cred(), inode, MAY_READ, hint.as_deref())?;
            if !r.dentry.flag(FLAG_DIR_COMPLETE) {
                return Ok(None);
            }
            self.dcache
                .stats
                .readdir_cached
                .fetch_add(1, Ordering::Relaxed);
            Ok(Some(Self::published_listing(&r.dentry)))
        })?;
        match published {
            Some(listing) => Ok(listing),
            None => self.list_dir(proc, path).map(Arc::new),
        }
    }

    /// The signature of `path` for `proc`'s namespace and anchor,
    /// resolving it first so the caches are warm. `NoSys` when the path
    /// has none (fastpath off, unsupported file system, or a path past
    /// the key schedule).
    pub fn path_signature(&self, proc: &Process, path: &str) -> FsResult<Signature> {
        self.lookup_path(proc, path, true)?
            .sig
            .ok_or(FsError::NoSys)
    }

    /// Serves a signature-keyed lookup: one DLHT probe plus the full
    /// fastpath validation chain (PCC / revalidation, alias chase,
    /// symlink chaining, seq sandwich) — no parsing, no hashing, no
    /// slowpath. Misses return [`SigLookup::Miss`] rather than walking;
    /// the client retries by path.
    ///
    /// A hit tells the client nothing a lookup by path would not: the
    /// DLHT holds a dentry whose stored state finishes to `sig`, and its
    /// prefix check passes for `proc`'s credential (DESIGN.md §5).
    ///
    /// Counts as one lookup in stats and the trace, like any resolve.
    pub fn lookup_sig(&self, proc: &Process, sig: &Signature) -> SigLookup {
        let t0 = self.lookup_start();
        self.dcache
            .stats
            .fast_attempts
            .fetch_add(1, Ordering::Relaxed);

        // `None`: not answerable from the cache.
        let out = (|| {
            if !self.dcache.config.fastpath {
                return None;
            }
            // Same pin discipline as a path lookup.
            let guard = self.dcache.pin();
            let ns = proc.namespace_read(&guard);
            let cred = proc.cred_read(&guard);
            let mut attached = None;
            let pcc = self.pcc_under(cred, ns.id, &mut attached, &guard);
            let root = proc.root_read(&guard);
            let plain_root = ns.is_root(&root.mount, &root.dentry, &guard);
            match self.fast_validate(ns, pcc, cred, sig, true, false, plain_root, true, &guard)? {
                Ok(r) => r.inode.map(|inode| {
                    Ok(LookupReply {
                        ino: inode.ino,
                        ftype: inode.ftype(),
                        sig: Some(*sig),
                    })
                }),
                Err(e) => Some(Err(e)),
            }
        })();
        // A miss ends its span as an error: the cache had no answer.
        self.lookup_end(t0, out.as_ref().unwrap_or(&Err(FsError::NoSys)));
        match out {
            Some(Ok(reply)) => SigLookup::Hit(reply),
            Some(Err(e)) => SigLookup::Neg(e),
            None => SigLookup::Miss,
        }
    }
}
