//! Serve-facing kernel entry points.
//!
//! The metadata server (`dc-server`) executes batches of lookups on
//! behalf of remote clients. These entry points differ from the syscall
//! surface in two ways:
//!
//! - **No per-syscall timing wrapper.** The server owns its own
//!   per-worker latency histograms (per protocol op, including decode
//!   and encode); charging `SyscallTiming` as well would double-count
//!   and cost an extra clock read per request.
//! - **Signature-keyed lookups.** A client that has previously resolved
//!   a path can retry by its 240-bit signature alone
//!   ([`Kernel::lookup_sig`]), skipping parse and hash entirely — the
//!   DLHT probe plus seq validation is the whole request. This is the
//!   serving-tier shape *Fletch* (PAPERS.md) argues for: compact keys
//!   the front-end can verify without walking.
//!
//! Lookup accounting still flows through the standard counters
//! (`stats.lookups`, `LookupStart`/`LookupEnd`, fastpath hit/miss
//! counters) so the events↔stats reconciliation invariants hold for
//! served traffic exactly as for local syscalls.

use crate::kernel::Kernel;
use crate::path::PathRef;
use crate::process::Process;
use dc_fs::{FileType, FsError, FsResult};
use dc_obs::{LookupOutcome, TraceEvent};
use dcache_core::Signature;
use std::sync::atomic::Ordering;

/// A successful served lookup: the identity of the object plus,
/// optionally, its path signature for future signature-keyed lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupReply {
    /// Inode number.
    pub ino: u64,
    /// Object type.
    pub ftype: FileType,
    /// The resolved path's signature, when requested and available
    /// (the dentry carries a resumable hash state).
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
            let sig = if want_sig {
                let guard = &crossbeam_epoch::pin();
                let ns = proc.namespace_read(guard);
                self.state_at(ns, r.mount, &r.dentry, guard)
                    .or_else(|| {
                        let at = PathRef::new(r.mount.clone(), r.dentry.clone());
                        self.rebuild_hash_state(ns, &at, guard)
                    })
                    .map(|h| self.dcache.key.finish(&h))
            } else {
                None
            };
            Ok(LookupReply {
                ino: inode.ino,
                ftype: inode.ftype(),
                sig,
            })
        })
    }

    /// Serves a `stat`: full attributes, symlinks followed. Identical to
    /// [`stat`](Kernel::stat) minus the syscall-timing wrapper.
    pub fn stat_path(&self, proc: &Process, path: &str) -> FsResult<dc_fs::InodeAttr> {
        self.stat_at(proc, None, path, true)
    }

    /// The signature of `path` for `proc`'s namespace and anchor,
    /// resolving it first so the caches are warm. `NoSys` when the
    /// resolved dentry carries no resumable hash state (fastpath off or
    /// unsupported file system).
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
    /// Counts as one lookup in stats and the trace, like any resolve.
    pub fn lookup_sig(&self, proc: &Process, sig: &Signature) -> SigLookup {
        let t0 = self.lookup_start();
        self.dcache
            .stats
            .fast_attempts
            .fetch_add(1, Ordering::Relaxed);

        let out = (|| {
            if !self.dcache.config.fastpath {
                return SigLookup::Miss;
            }
            // Same pin discipline as a path lookup.
            let guard = self.dcache.pin();
            let ns = proc.namespace_read(&guard);
            let cred = proc.cred_read(&guard);
            let mut attached = None;
            let pcc = self.pcc_under(cred, ns.id, &mut attached, &guard);
            let root = proc.root_read(&guard);
            let plain_root = ns.is_root(&root.mount, &root.dentry, &guard);
            match self.fast_validate(ns, pcc, cred, sig, true, false, plain_root, &guard) {
                Some(Ok(r)) => match r.inode {
                    Some(inode) => SigLookup::Hit(LookupReply {
                        ino: inode.ino,
                        ftype: inode.ftype(),
                        sig: Some(*sig),
                    }),
                    None => SigLookup::Miss,
                },
                Some(Err(e)) => SigLookup::Neg(e),
                None => SigLookup::Miss,
            }
        })();

        if let Some(t0) = t0 {
            let outcome = match &out {
                SigLookup::Hit(_) => LookupOutcome::Positive,
                SigLookup::Neg(FsError::NoEnt) | SigLookup::Neg(FsError::NotDir) => {
                    LookupOutcome::Negative
                }
                SigLookup::Neg(_) | SigLookup::Miss => LookupOutcome::Error,
            };
            let ns = t0.elapsed().as_nanos() as u64;
            self.dcache
                .obs
                .event(|| TraceEvent::LookupEnd { outcome, ns });
        }
        out
    }
}
