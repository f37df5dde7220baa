//! `chmod`, `chown`, `utimes`, `truncate`, `statfs`.

use crate::kernel::Kernel;
use crate::path::WalkResult;
use crate::process::Process;
use crate::timing::SyscallClass;
use dc_cred::MAY_WRITE;
use dc_fs::{FsError, FsResult, SetAttr, StatFs};
use std::sync::atomic::Ordering;

impl Kernel {
    fn resolve_for_meta(&self, proc: &Process, path: &str) -> FsResult<WalkResult> {
        let r = self.resolve(proc, path, true)?;
        if r.mount.flags.read_only {
            return Err(FsError::RoFs);
        }
        Ok(r)
    }

    /// `chmod(2)` — owner or root only. Changing a directory's mode
    /// invalidates memoized prefix checks through its whole cached
    /// subtree (§3.2) — the cost Figure 7 quantifies.
    pub fn chmod(&self, proc: &Process, path: &str, mode: u16) -> FsResult<()> {
        self.timing.record(SyscallClass::ChmodChown, || {
            let r = self.resolve_for_meta(proc, path)?;
            let inode = r.require_inode()?.clone();
            let cred = proc.cred();
            let attr = inode.attr();
            if cred.uid != 0 && cred.uid != attr.uid {
                return Err(FsError::Perm);
            }
            inode.setattr(SetAttr {
                mode: Some(mode & 0o7777),
                ..Default::default()
            })?;
            if inode.is_dir() && self.dcache.config.fastpath {
                // Permission change: version-bump the cached subtree so
                // every memoized prefix check re-validates (§3.2). The
                // DLHT entries stay — the paths didn't move.
                self.dcache.bump_invalidation();
                self.shoot_subtree(&r.dentry, false);
            }
            Ok(())
        })
    }

    /// `chown(2)` — uid changes require root; gid changes require root
    /// or (for the owner) membership in the target group.
    pub fn chown(
        &self,
        proc: &Process,
        path: &str,
        uid: Option<u32>,
        gid: Option<u32>,
    ) -> FsResult<()> {
        self.timing.record(SyscallClass::ChmodChown, || {
            let r = self.resolve_for_meta(proc, path)?;
            let inode = r.require_inode()?.clone();
            let cred = proc.cred();
            let attr = inode.attr();
            if let Some(u) = uid {
                if cred.uid != 0 && u != attr.uid {
                    return Err(FsError::Perm);
                }
            }
            if let Some(g) = gid {
                if cred.uid != 0 && !(cred.uid == attr.uid && cred.in_group(g)) {
                    return Err(FsError::Perm);
                }
            }
            inode.setattr(SetAttr {
                uid,
                gid,
                ..Default::default()
            })?;
            if inode.is_dir() && self.dcache.config.fastpath {
                self.dcache.bump_invalidation();
                self.shoot_subtree(&r.dentry, false);
            }
            Ok(())
        })
    }

    /// `utimes(2)`-ish: sets mtime.
    pub fn utimes(&self, proc: &Process, path: &str, mtime: u64) -> FsResult<()> {
        self.timing.record(SyscallClass::OtherMeta, || {
            let r = self.resolve_for_meta(proc, path)?;
            let inode = r.require_inode()?.clone();
            let cred = proc.cred();
            let attr = inode.attr();
            if cred.uid != 0 && cred.uid != attr.uid {
                return Err(FsError::Perm);
            }
            inode.setattr(SetAttr {
                mtime: Some(mtime),
                ..Default::default()
            })?;
            Ok(())
        })
    }

    /// `truncate(2)`.
    pub fn truncate(&self, proc: &Process, path: &str, size: u64) -> FsResult<()> {
        self.timing.record(SyscallClass::Io, || {
            let r = self.resolve_for_meta(proc, path)?;
            let inode = r.require_inode()?.clone();
            if inode.is_dir() {
                return Err(FsError::IsDir);
            }
            let cred = proc.cred();
            let hint = self.path_hint(&r.mount, &r.dentry);
            self.permission(&cred, &inode, MAY_WRITE, hint.as_deref())?;
            inode.setattr(SetAttr {
                size: Some(size),
                ..Default::default()
            })?;
            Ok(())
        })
    }

    /// `statfs(2)`.
    pub fn statfs(&self, proc: &Process, path: &str) -> FsResult<StatFs> {
        self.timing.record(SyscallClass::Other, || {
            let r = self.resolve(proc, path, true)?;
            r.mount.sb.fs.statfs()
        })
    }

    /// Counter snapshot helper: the shootdown-visit count (Figure 7's
    /// "children walked" driver).
    pub fn shootdown_visits(&self) -> u64 {
        self.dcache.stats.shootdown_visits.load(Ordering::Relaxed)
    }
}
