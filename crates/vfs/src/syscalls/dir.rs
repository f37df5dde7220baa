//! `mkdir`, `rmdir`, `readdir`, `chdir`, `chroot`.

use crate::handle::OpenFlags;
use crate::kernel::Kernel;
use crate::path::PathRef;
use crate::process::Process;
use crate::timing::SyscallClass;
use dc_cred::MAY_EXEC;
use dc_fs::{DirEntry, FsError, FsResult};
use dcache_core::{DentryKind, DentryState, NegKind, FLAG_DIR_COMPLETE};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Kernel {
    /// `mkdir(2)`.
    pub fn mkdir(&self, proc: &Process, path: &str, mode: u16) -> FsResult<()> {
        self.timing.record(SyscallClass::OtherMeta, || {
            self.mkdir_at(proc, None, path, mode)
        })
    }

    /// `mkdirat(2)`.
    pub fn mkdirat(&self, proc: &Process, dirfd: u32, path: &str, mode: u16) -> FsResult<()> {
        let base = self.at_base(proc, dirfd)?;
        self.timing.record(SyscallClass::OtherMeta, || {
            self.mkdir_at(proc, Some(&base.path), path, mode)
        })
    }

    fn mkdir_at(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
        mode: u16,
    ) -> FsResult<()> {
        let pr = match self.resolve_parent(proc, start, path) {
            Ok(pr) => pr,
            Err(FsError::Busy) => return Err(FsError::Exist), // mkdir "/"
            Err(e) => return Err(e),
        };
        let cred = proc.cred();
        self.check_dir_mutable(&cred, &pr.parent, None)?;
        let parent_d = pr.parent.dentry.clone();
        let mount = pr.parent.mount.clone();
        let _g = parent_d.dir_lock().lock();
        let existing = self.lookup_free_locked(&mount, &parent_d, &pr.name)?;
        let dir_ino = pr.parent.require_inode()?.ino;
        let attr = mount
            .sb
            .fs
            .mkdir(dir_ino, &pr.name, mode & 0o7777, cred.uid, cred.gid)?;
        let inode = self.icache.get_or_create(mount.sb.id, &mount.sb.fs, attr);
        let d = self.instantiate_created(&parent_d, existing, &pr.name, inode);
        // A brand-new directory is trivially complete (§5.1).
        if self.dcache.config.dir_completeness {
            d.set_flag(FLAG_DIR_COMPLETE);
            self.dcache
                .stats
                .complete_sets
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// `rmdir(2)`.
    pub fn rmdir(&self, proc: &Process, path: &str) -> FsResult<()> {
        self.timing
            .record(SyscallClass::Unlink, || self.rmdir_at(proc, None, path))
    }

    /// `unlinkat(2)`'s `AT_REMOVEDIR` half.
    pub(crate) fn rmdir_at(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
    ) -> FsResult<()> {
        let pr = self.resolve_parent(proc, start, path)?; // rmdir "/": EBUSY
        let cred = proc.cred();
        self.check_dir_mutable(&cred, &pr.parent, None)?;
        let parent_d = pr.parent.dentry.clone();
        let mount = pr.parent.mount.clone();
        let _g = parent_d.dir_lock().lock();
        let target = self.lookup_one_locked(&mount, &parent_d, &pr.name)?;
        let inode = target.inode().ok_or(FsError::NoEnt)?;
        if !inode.is_dir() {
            return Err(FsError::NotDir);
        }
        if proc.namespace().is_mountpoint(target.id()) {
            return Err(FsError::Busy);
        }
        let parent_attr = pr.parent.require_inode()?.attr();
        if !Self::sticky_ok(&cred, &parent_attr, &inode.attr()) {
            return Err(FsError::Perm);
        }
        let dir_ino = parent_attr.ino;
        mount.sb.fs.rmdir(dir_ino, &pr.name)?;
        super::refresh_dir(&parent_d);
        self.icache.forget(mount.sb.id, inode.ino);
        // An empty directory's cached children are negative; with
        // them gone, what still references the dentry beside the
        // parent's map and `target` is a holder — a cwd, a root, an
        // open handle — that must keep a directory (or a racing
        // walker, for which the fresh dentry is as good).
        for child in target.children_snapshot() {
            self.dcache.unhash_subtree(&child);
        }
        let held = Arc::strong_count(&target) > 2;
        let negative = self.dcache.config.neg_on_unlink && self.negatives_allowed(&mount.sb.fs);
        if negative && !held {
            self.dcache.make_negative(&target, NegKind::Enoent);
        } else {
            // What a holder lists or looks up in it from now on is the
            // file system's answer for a removed directory.
            target.clear_flag(FLAG_DIR_COMPLETE);
            self.dcache.unhash_subtree(&target);
            if negative {
                let gone = DentryState::Negative(NegKind::Enoent);
                self.dcache.d_alloc(&parent_d, &pr.name, gone);
            }
        }
        Ok(())
    }

    /// `getdents(2)`: reads up to `max` entries from a directory handle.
    ///
    /// The §5.1 machinery lives here: entries returned by the low-level
    /// file system materialize partial dentries; a complete uninterrupted
    /// pass marks the directory `DIR_COMPLETE`; later streams on complete
    /// directories are served from the dcache without any FS call.
    pub fn readdir(&self, proc: &Process, fd: u32, max: usize) -> FsResult<Vec<DirEntry>> {
        self.timing.record(SyscallClass::Readdir, || {
            let h = proc.fd(fd)?;
            if !h.inode.is_dir() {
                return Err(FsError::NotDir);
            }
            let d = &h.path.dentry;
            let stats = &self.dcache.stats;
            let mut cur = h.dir.lock();
            if cur.eof && cur.snapshot.is_none() {
                return Ok(Vec::new());
            }
            // Cached-directory stream: snapshot once, then paginate.
            if let Some(snap) = &cur.snapshot {
                let snap_len = snap.len();
                let out: Vec<DirEntry> =
                    snap[cur.snapshot_pos..(cur.snapshot_pos + max).min(snap_len)].to_vec();
                cur.snapshot_pos += out.len();
                if cur.snapshot_pos >= snap_len {
                    cur.eof = true;
                    cur.snapshot = None;
                }
                return Ok(out);
            }
            if self.dcache.config.dir_completeness && !cur.started && d.flag(FLAG_DIR_COMPLETE) {
                stats.readdir_cached.fetch_add(1, Ordering::Relaxed);
                // Serve from the per-dentry listing snapshot, rebuilt
                // from the child list only when the directory's contents
                // changed (§5.1: "serviced directly from the dentry's
                // child list").
                let listing = match d.dir_snapshot() {
                    Some(snap) => snap,
                    None => {
                        let version = d.children_version();
                        let mut entries: Vec<DirEntry> = Vec::with_capacity(d.child_count());
                        let guard = crossbeam_epoch::pin();
                        d.for_each_child(|child| {
                            if child.is_dead() {
                                return;
                            }
                            // One block read names and classifies the
                            // child; the lock-free walk mirrors Linux's
                            // child-list iteration in dcache_readdir.
                            let seen = child.view(&guard);
                            if let DentryKind::Positive { ino, ftype }
                            | DentryKind::Partial { ino, ftype } = seen.kind()
                            {
                                entries.push(DirEntry {
                                    name: seen.name.to_string(),
                                    ino,
                                    ftype,
                                });
                            }
                        });
                        let snap = std::sync::Arc::new(entries);
                        d.store_dir_snapshot(version, snap.clone());
                        snap
                    }
                };
                cur.started = true;
                let out: Vec<DirEntry> = listing[..max.min(listing.len())].to_vec();
                if out.len() >= listing.len() {
                    cur.eof = true;
                } else {
                    cur.snapshot_pos = out.len();
                    cur.snapshot = Some(listing);
                }
                return Ok(out);
            }
            // Low-level stream.
            stats.readdir_fs.fetch_add(1, Ordering::Relaxed);
            if !cur.started {
                cur.started = true;
                cur.gen_at_start = d.child_evict_gen();
            }
            let mut out = Vec::with_capacity(max.min(256));
            let next = h
                .path
                .mount
                .sb
                .fs
                .readdir(h.inode.ino, cur.fs_offset, max, &mut out)?;
            // Materialize partial dentries from the records (§5.1) so the
            // listing work feeds later lookups.
            if self.dcache.config.dir_completeness && !d.is_dead() {
                let _g = d.dir_lock().lock();
                for e in &out {
                    if self.dcache.d_lookup(d, &e.name).is_none() {
                        self.dcache.d_alloc(
                            d,
                            &e.name,
                            DentryState::Partial {
                                ino: e.ino,
                                ftype: e.ftype,
                            },
                        );
                    }
                }
            }
            match next {
                Some(c) => cur.fs_offset = c,
                None => {
                    cur.eof = true;
                    // Completeness: full pass from offset 0, no seek, no
                    // concurrent eviction (§5.1).
                    if self.dcache.config.dir_completeness
                        && !cur.seeked
                        && cur.gen_at_start == d.child_evict_gen()
                        && !d.is_dead()
                    {
                        d.set_flag(FLAG_DIR_COMPLETE);
                        stats.complete_sets.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(out)
        })
    }

    /// Rewinds a directory stream (`lseek(fd, 0)` on a directory). Seeking
    /// voids the stream's completeness evidence (§5.1).
    pub fn rewinddir(&self, proc: &Process, fd: u32) -> FsResult<()> {
        let h = proc.fd(fd)?;
        let mut cur = h.dir.lock();
        cur.fs_offset = 0;
        cur.started = false;
        cur.seeked = true;
        cur.eof = false;
        cur.snapshot = None;
        cur.snapshot_pos = 0;
        Ok(())
    }

    /// Convenience: opens, fully reads, and closes a directory.
    pub fn list_dir(&self, proc: &Process, path: &str) -> FsResult<Vec<DirEntry>> {
        let fd = self.open(proc, path, OpenFlags::directory(), 0)?;
        let mut all = Vec::new();
        let read = loop {
            match self.readdir(proc, fd, 1024) {
                Ok(batch) if batch.is_empty() => break Ok(()),
                Ok(batch) => all.extend(batch),
                Err(e) => break Err(e),
            }
        };
        // Close on every path: a failed batch must not leak the fd.
        let closed = self.close(proc, fd);
        read.and(closed)?;
        Ok(all)
    }

    /// `chdir(2)`.
    pub fn chdir(&self, proc: &Process, path: &str) -> FsResult<()> {
        self.timing.record(SyscallClass::Other, || {
            let r = self.resolve(proc, path, true)?;
            let inode = r.require_inode()?;
            if !inode.is_dir() {
                return Err(FsError::NotDir);
            }
            let cred = proc.cred();
            let hint = self.path_hint(&r.mount, &r.dentry);
            self.permission(&cred, inode, MAY_EXEC, hint.as_deref())?;
            proc.set_cwd(PathRef::new(r.mount, r.dentry));
            Ok(())
        })
    }

    /// `fchdir(2)`.
    pub fn fchdir(&self, proc: &Process, fd: u32) -> FsResult<()> {
        self.timing.record(SyscallClass::Other, || {
            let base = self.at_base(proc, fd)?;
            proc.set_cwd(base.path.clone());
            Ok(())
        })
    }

    /// `chroot(2)` (requires root).
    pub fn chroot(&self, proc: &Process, path: &str) -> FsResult<()> {
        self.timing.record(SyscallClass::Other, || {
            if proc.cred().uid != 0 {
                return Err(FsError::Perm);
            }
            let r = self.resolve(proc, path, true)?;
            if !r.require_inode()?.is_dir() {
                return Err(FsError::NotDir);
            }
            let root = PathRef::new(r.mount, r.dentry);
            proc.set_root(root.clone());
            proc.set_cwd(root);
            Ok(())
        })
    }
}
