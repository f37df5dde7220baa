//! `open`, `openat`, `close`, `mkstemp`.

use crate::handle::{Handle, OpenFlags};
use crate::kernel::Kernel;
use crate::path::{PathRef, WalkResult};
use crate::process::Process;
use crate::timing::SyscallClass;
use dc_cred::{MAY_READ, MAY_WRITE};
use dc_fs::{FileType, FsError, FsResult, SetAttr};
use std::sync::Arc;

/// Nested dangling-symlink creation depth limit.
const CREATE_LINK_DEPTH: u32 = 8;

impl Kernel {
    /// `open(2)`.
    pub fn open(&self, proc: &Process, path: &str, flags: OpenFlags, mode: u16) -> FsResult<u32> {
        self.timing.record(SyscallClass::Open, || {
            let h = self.open_internal(proc, None, path, flags, mode, 0)?;
            proc.install_fd(h)
        })
    }

    /// `openat(2)`.
    pub fn openat(
        &self,
        proc: &Process,
        dirfd: u32,
        path: &str,
        flags: OpenFlags,
        mode: u16,
    ) -> FsResult<u32> {
        self.timing.record(SyscallClass::Open, || {
            let at = self.at_base(proc, dirfd)?;
            let h = self.open_internal(proc, Some(&at.path), path, flags, mode, 0)?;
            proc.install_fd(h)
        })
    }

    /// The directory handle behind a `dirfd`; the `*at()` family starts
    /// its walk at the handle's `path`.
    pub(crate) fn at_base(&self, proc: &Process, dirfd: u32) -> FsResult<Arc<Handle>> {
        let h = proc.fd(dirfd)?;
        if !h.inode.is_dir() {
            return Err(FsError::NotDir);
        }
        Ok(h)
    }

    fn open_internal(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
        flags: OpenFlags,
        mode: u16,
        depth: u32,
    ) -> FsResult<Arc<Handle>> {
        if depth > CREATE_LINK_DEPTH {
            return Err(FsError::Loop);
        }
        if flags.create {
            // Like Linux: walk to the parent once and resolve the final
            // component with create intent under the parent's lock.
            return self.open_create(proc, start, path, flags, mode, depth);
        }
        let r = self.resolve_with(proc, start, path, !flags.nofollow, |r| Ok(r.into_owned()))?;
        self.open_existing(proc, r, flags)
    }

    fn open_existing(
        &self,
        proc: &Process,
        r: WalkResult,
        flags: OpenFlags,
    ) -> FsResult<Arc<Handle>> {
        if flags.create && flags.excl {
            return Err(FsError::Exist);
        }
        let inode = r.require_inode()?.clone();
        let ftype = inode.ftype();
        if ftype == FileType::Symlink {
            // Only reachable with O_NOFOLLOW on a symlink.
            return Err(FsError::Loop);
        }
        if flags.directory && ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if ftype == FileType::Directory && flags.write {
            return Err(FsError::IsDir);
        }
        if flags.write && r.mount.flags.read_only {
            return Err(FsError::RoFs);
        }
        let cred = proc.cred();
        let mut mask = 0;
        if flags.read {
            mask |= MAY_READ;
        }
        if flags.write || flags.trunc {
            mask |= MAY_WRITE;
        }
        if mask != 0 {
            let path_hint = self.path_hint(&r.mount, &r.dentry);
            self.permission(&cred, &inode, mask, path_hint.as_deref())?;
        }
        if flags.trunc && ftype == FileType::Regular {
            inode.setattr(SetAttr {
                size: Some(0),
                ..Default::default()
            })?;
        }
        Ok(Handle::new(r.mount, r.dentry, inode, flags))
    }

    fn open_create(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
        flags: OpenFlags,
        mode: u16,
        depth: u32,
    ) -> FsResult<Arc<Handle>> {
        let pr = self.resolve_parent(proc, start, path)?;
        if pr.require_dir {
            return Err(FsError::IsDir); // creating "name/" as a file
        }
        let cred = proc.cred();
        let parent_d = pr.parent.dentry.clone();
        let mount = pr.parent.mount.clone();
        let _g = parent_d.dir_lock().lock();
        // Resolve the final component under the lock; O_CREAT on an
        // existing object needs no write permission on the directory.
        let existing = match self.lookup_one_locked(&mount, &parent_d, &pr.name) {
            Ok(d) => match d.inode() {
                // A dangling symlink resolves NoEnt but exists as a link:
                // O_CREAT creates the *target* (Linux semantics).
                Some(inode) if inode.ftype() == FileType::Symlink && !flags.nofollow => {
                    let target = mount.sb.fs.readlink(inode.ino)?;
                    drop(_g);
                    let base = PathRef::new(mount, parent_d);
                    return self.open_internal(proc, Some(&base), &target, flags, mode, depth + 1);
                }
                Some(inode) => {
                    drop(_g);
                    let r = WalkResult {
                        mount,
                        inode: Some(inode),
                        dentry: d,
                    };
                    return self.open_existing(proc, r, flags);
                }
                None => Some(d), // negative
            },
            Err(FsError::NoEnt) => None, // negative caching disabled
            Err(e) => return Err(e),
        };
        // Actually creating: now the directory must be writable.
        self.check_dir_mutable(&cred, &pr.parent, None)?;
        let dir_ino = pr.parent.require_inode()?.ino;
        let attr = mount
            .sb
            .fs
            .create(dir_ino, &pr.name, mode & 0o7777, cred.uid, cred.gid)?;
        let inode = self.icache.get_or_create(mount.sb.id, &mount.sb.fs, attr);
        let dentry = self.instantiate_created(&parent_d, existing, &pr.name, inode.clone());
        Ok(Handle::new(mount, dentry, inode, flags))
    }

    /// `close(2)`.
    pub fn close(&self, proc: &Process, fd: u32) -> FsResult<()> {
        self.timing
            .record(SyscallClass::Other, || proc.take_fd(fd).map(|_| ()))
    }

    /// `mkstemp(3)`: creates a uniquely-named file under `dir_path` with
    /// `O_CREAT|O_EXCL`, returning `(fd, name)`. Exercises the §5.1
    /// completeness optimization: in a complete directory the existence
    /// probe needs no file-system call.
    pub fn mkstemp(&self, proc: &Process, dir_path: &str, prefix: &str) -> FsResult<(u32, String)> {
        self.timing.record(SyscallClass::Open, || {
            for _ in 0..128 {
                let suffix = self.tmp_rand();
                let name = format!("{prefix}{suffix:06x}");
                let path = if dir_path.ends_with('/') {
                    format!("{dir_path}{name}")
                } else {
                    format!("{dir_path}/{name}")
                };
                match self.open_internal(proc, None, &path, OpenFlags::create_excl(), 0o600, 0) {
                    Ok(h) => {
                        let fd = proc.install_fd(h)?;
                        return Ok((fd, name));
                    }
                    Err(FsError::Exist) => continue,
                    Err(e) => return Err(e),
                }
            }
            Err(FsError::Exist)
        })
    }
}
