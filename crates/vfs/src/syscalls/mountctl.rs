//! Mounts, bind mounts, umount, and mount namespaces (§4.3).

use crate::kernel::Kernel;
use crate::mount::{Mount, MountFlags, SuperBlock};
use crate::namespace::MountNamespace;
use crate::path::{PathRef, WalkResult};
use crate::process::Process;
use crate::timing::SyscallClass;
use dc_fs::{FileSystem, FsError, FsResult};
use std::collections::HashMap;
use std::sync::Arc;

impl Kernel {
    /// Builds (or reuses) the superblock for a file-system instance.
    /// Mounting the *same instance* twice yields the same superblock and
    /// dentry tree — that is what makes mount aliases aliases (§4.3).
    fn superblock_for(&self, fs: &Arc<dyn FileSystem>) -> FsResult<Arc<SuperBlock>> {
        let mut sbs = self.superblocks.lock();
        for (weak_fs, sb) in sbs.iter() {
            if let Some(existing) = weak_fs.upgrade() {
                if Arc::ptr_eq(&existing, fs) {
                    return Ok(sb.clone());
                }
            }
        }
        let id = self.alloc_sb_id();
        let attr = fs.getattr(fs.root_ino())?;
        let inode = self.icache.get_or_create(id, fs, attr);
        let root = self.dcache.new_root(id, inode);
        let sb = Arc::new(SuperBlock {
            id,
            fs: fs.clone(),
            root,
        });
        sbs.push((Arc::downgrade(fs), sb.clone()));
        Ok(sb)
    }

    /// A resolved path ends above whatever is mounted on it, except where
    /// it is the caller's own covered root or cwd. One mount per
    /// mountpoint: stacking a second there is refused rather than left to
    /// replace the first in the mountpoint index.
    fn not_mounted_on(ns: &MountNamespace, at: &WalkResult) -> FsResult<()> {
        match ns.mount_at(at.mount.id, at.dentry.id()) {
            Some(_) => Err(FsError::Busy),
            None => Ok(()),
        }
    }

    /// `mount(2)`: grafts `fs` at `path` in the caller's namespace
    /// (root only).
    pub fn mount_fs(
        &self,
        proc: &Process,
        fs: Arc<dyn FileSystem>,
        path: &str,
        flags: MountFlags,
    ) -> FsResult<u64> {
        self.timing.record(SyscallClass::Other, || {
            if proc.cred().uid != 0 {
                return Err(FsError::Perm);
            }
            let ns = proc.namespace();
            let at = self.resolve(proc, path, true)?;
            if !at.require_inode()?.is_dir() {
                return Err(FsError::NotDir);
            }
            Self::not_mounted_on(&ns, &at)?;
            let sb = self.superblock_for(&fs)?;
            let sb_root = sb.root.clone();
            let mount = Mount::new_child(
                self.alloc_mount_id(),
                sb,
                // Plain mounts attach at the file-system root; bind
                // mounts pass an interior dentry instead.
                sb_root,
                flags,
                at.mount.clone(),
                at.dentry.clone(),
            );
            // Structural change: the covered subtree's direct-lookup
            // entries are stale (§3.2, §4.3).
            self.dcache.bump_invalidation();
            self.shoot_subtree(&at.dentry, true);
            // The root is now reached through the new mount: a hash state
            // another mount of the same superblock left goes in the same
            // publication.
            mount.root.sign(None, mount.id);
            let id = mount.id;
            ns.add_mount(mount);
            Ok(id)
        })
    }

    /// `mount --bind src dst`: the same dentry tree visible at another
    /// path (a mount alias, §4.3).
    pub fn bind_mount(&self, proc: &Process, src: &str, dst: &str) -> FsResult<u64> {
        self.timing.record(SyscallClass::Other, || {
            if proc.cred().uid != 0 {
                return Err(FsError::Perm);
            }
            let ns = proc.namespace();
            let s = self.resolve(proc, src, true)?;
            if !s.require_inode()?.is_dir() {
                return Err(FsError::NotDir);
            }
            let d = self.resolve(proc, dst, true)?;
            if !d.require_inode()?.is_dir() {
                return Err(FsError::NotDir);
            }
            Self::not_mounted_on(&ns, &d)?;
            let mount = Mount::new_child(
                self.alloc_mount_id(),
                s.mount.sb.clone(),
                s.dentry.clone(),
                s.mount.flags,
                d.mount.clone(),
                d.dentry.clone(),
            );
            self.dcache.bump_invalidation();
            self.shoot_subtree(&d.dentry, true);
            let id = mount.id;
            ns.add_mount(mount);
            Ok(id)
        })
    }

    /// `umount(2)`.
    pub fn umount(&self, proc: &Process, path: &str) -> FsResult<()> {
        self.timing.record(SyscallClass::Other, || {
            if proc.cred().uid != 0 {
                return Err(FsError::Perm);
            }
            let ns = proc.namespace();
            let at = self.resolve(proc, path, true)?;
            // Must be the root of a child mount.
            if !Arc::ptr_eq(&at.dentry, &at.mount.root) || at.mount.parent.is_none() {
                return Err(FsError::Inval);
            }
            // Busy if anything is mounted below it.
            for m in ns.mounts_snapshot() {
                if let Some((pm, _)) = &m.parent {
                    if pm.id == at.mount.id {
                        return Err(FsError::Busy);
                    }
                }
            }
            ns.remove_mount(at.mount.id).ok_or(FsError::Inval)?;
            // The unmounted subtree's direct-lookup entries are stale, and
            // the mountpoint becomes visible again.
            self.dcache.bump_invalidation();
            self.shoot_subtree(&at.mount.root, true);
            if let Some((_, mp)) = &at.mount.parent {
                mp.bump_seq();
            }
            Ok(())
        })
    }

    /// `unshare(CLONE_NEWNS)`: clones the caller's mount tree into a
    /// fresh namespace with its own DLHT and PCC key (§4.3).
    pub fn unshare_ns(&self, proc: &Process) -> FsResult<Arc<MountNamespace>> {
        self.timing.record(SyscallClass::Other, || {
            let old_ns = proc.namespace();
            let new_id = self.alloc_ns_id();
            let old_root = old_ns.root_mount();
            let new_root =
                Mount::new_root(self.alloc_mount_id(), old_root.sb.clone(), old_root.flags);
            let ns = MountNamespace::new(new_id, new_root.clone());
            // Rebuild the mount tree top-down so parents exist first.
            let mut mapping: HashMap<u64, Arc<Mount>> = HashMap::new();
            mapping.insert(old_root.id, new_root);
            let mut remaining: Vec<Arc<Mount>> = old_ns
                .mounts_snapshot()
                .into_iter()
                .filter(|m| m.parent.is_some())
                .collect();
            while !remaining.is_empty() {
                let before = remaining.len();
                remaining.retain(|m| {
                    let Some((pm, mp)) = m.parent.as_ref() else {
                        return false; // parentless mounts were filtered out
                    };
                    if let Some(new_parent) = mapping.get(&pm.id).cloned() {
                        let cloned = Mount::new_child(
                            self.alloc_mount_id(),
                            m.sb.clone(),
                            m.root.clone(),
                            m.flags,
                            new_parent,
                            mp.clone(),
                        );
                        mapping.insert(m.id, cloned.clone());
                        ns.add_mount(cloned);
                        false
                    } else {
                        true
                    }
                });
                if remaining.len() == before {
                    return Err(FsError::Inval); // orphaned mount (corrupt tree)
                }
            }
            self.register_namespace(ns.clone());
            // Re-anchor the process into the new namespace's mounts.
            let remap = |p: PathRef| -> PathRef {
                match mapping.get(&p.mount.id) {
                    Some(nm) => PathRef::new(nm.clone(), p.dentry),
                    None => p,
                }
            };
            proc.set_root(remap(proc.root()));
            proc.set_cwd(remap(proc.cwd()));
            proc.set_namespace(ns.clone());
            Ok(ns)
        })
    }
}
