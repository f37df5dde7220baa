//! `stat`, `lstat`, `fstat`, `fstatat`, `access`, `readlink`, `getcwd`.

use crate::kernel::Kernel;
use crate::path::PathRef;
use crate::process::Process;
use crate::timing::SyscallClass;
use dc_cred::{MAY_EXEC, MAY_READ, MAY_WRITE};
use dc_fs::{FileType, FsError, FsResult, InodeAttr};

impl Kernel {
    /// `stat(2)` — follows symlinks.
    pub fn stat(&self, proc: &Process, path: &str) -> FsResult<InodeAttr> {
        self.timing.record(SyscallClass::AccessStat, || {
            self.stat_at(proc, None, path, true)
        })
    }

    /// `lstat(2)` — does not follow a final symlink.
    pub fn lstat(&self, proc: &Process, path: &str) -> FsResult<InodeAttr> {
        self.timing.record(SyscallClass::AccessStat, || {
            self.stat_at(proc, None, path, false)
        })
    }

    /// The attributes `path` resolves to: the one body behind the `stat`
    /// family and the served `stat` ([`Kernel::stat_path`]).
    pub(crate) fn stat_at(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
        follow_last: bool,
    ) -> FsResult<InodeAttr> {
        self.resolve_with(proc, start, path, follow_last, |r| {
            Ok(r.require_inode()?.attr())
        })
    }

    /// `fstat(2)`.
    pub fn fstat(&self, proc: &Process, fd: u32) -> FsResult<InodeAttr> {
        self.timing
            .record(SyscallClass::AccessStat, || Ok(proc.fd(fd)?.inode.attr()))
    }

    /// `fstatat(2)`: relative to `dirfd`, optionally not following the
    /// final symlink (`AT_SYMLINK_NOFOLLOW`).
    pub fn fstatat(
        &self,
        proc: &Process,
        dirfd: u32,
        path: &str,
        nofollow: bool,
    ) -> FsResult<InodeAttr> {
        self.timing.record(SyscallClass::AccessStat, || {
            let base = self.at_base(proc, dirfd)?;
            self.stat_at(proc, Some(&base.path), path, !nofollow)
        })
    }

    /// `access(2)`: `mask` combines [`MAY_READ`]/[`MAY_WRITE`]/[`MAY_EXEC`];
    /// 0 is `F_OK` (existence only).
    pub fn access(&self, proc: &Process, path: &str, mask: u32) -> FsResult<()> {
        self.timing.record(SyscallClass::AccessStat, || {
            self.resolve_with(proc, None, path, true, |r| {
                let inode = r.require_inode()?;
                if mask == 0 {
                    return Ok(());
                }
                debug_assert!(mask & !(MAY_READ | MAY_WRITE | MAY_EXEC) == 0);
                if mask & MAY_WRITE != 0 && r.mount.flags.read_only {
                    return Err(FsError::RoFs);
                }
                // Nests under the lookup's pin on a hit: no reference on a
                // credential that other threads may share.
                let guard = crossbeam_epoch::pin();
                let cred = proc.cred_read(&guard);
                let path_hint = self.path_hint(r.mount, &r.dentry);
                self.permission(cred, inode, mask, path_hint.as_deref())
            })
        })
    }

    /// `readlink(2)`.
    pub fn readlink_path(&self, proc: &Process, path: &str) -> FsResult<String> {
        self.timing.record(SyscallClass::AccessStat, || {
            // The link body is read from the file system after the lookup,
            // not under its pin: keep the result.
            let r = self.resolve(proc, path, false)?;
            let inode = r.require_inode()?;
            if inode.ftype() != FileType::Symlink {
                return Err(FsError::Inval);
            }
            r.mount.sb.fs.readlink(inode.ino)
        })
    }

    /// `getcwd(3)`.
    pub fn getcwd(&self, proc: &Process) -> String {
        self.vfs_path_of(&proc.cwd())
    }
}
