//! The VFS-level in-memory inode.

use dc_fs::{FileSystem, FileType, FsResult, InodeAttr, SetAttr};
use dc_rcu::EpochCell;
use std::sync::Arc;

/// Identity of a mounted superblock instance.
pub type SbId = u64;

/// An in-memory inode: the VFS's cached view of one file-system object.
///
/// Dentries map paths onto these (§2.2). The attribute block is refreshed
/// from the low-level file system on metadata-changing operations, so
/// `stat` on a cache hit never calls below the VFS — the property that
/// makes dcache hit latency the dominant cost the paper attacks.
pub struct Inode {
    /// Owning superblock.
    pub sb: SbId,
    /// Inode number within the file system.
    pub ino: u64,
    /// The low-level file system.
    pub fs: Arc<dyn FileSystem>,
    // Epoch-published so `stat` on the lock-free read path copies the
    // attribute block without acquiring any lock (DESIGN.md §5).
    attr: EpochCell<InodeAttr>,
}

impl Inode {
    /// Wraps freshly-fetched attributes.
    pub fn new(sb: SbId, fs: Arc<dyn FileSystem>, attr: InodeAttr) -> Arc<Inode> {
        Arc::new(Inode {
            sb,
            ino: attr.ino,
            fs,
            attr: EpochCell::new(attr),
        })
    }

    /// Snapshot of the current attributes (lock-free).
    pub fn attr(&self) -> InodeAttr {
        self.attr.get()
    }

    /// The object type (immutable over an inode's life).
    pub fn ftype(&self) -> FileType {
        self.attr.with(|a| a.ftype)
    }

    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.ftype() == FileType::Directory
    }

    /// Overwrites the cached attributes (after a low-level refresh).
    pub fn store_attr(&self, attr: InodeAttr) {
        debug_assert_eq!(attr.ino, self.ino);
        self.attr.set(attr);
    }

    /// Applies `setattr` on the file system and refreshes the cache.
    pub fn setattr(&self, changes: SetAttr) -> FsResult<InodeAttr> {
        let fresh = self.fs.setattr(self.ino, changes)?;
        self.store_attr(fresh);
        Ok(fresh)
    }
}

impl std::fmt::Debug for Inode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = self.attr();
        f.debug_struct("Inode")
            .field("sb", &self.sb)
            .field("ino", &self.ino)
            .field("ftype", &a.ftype)
            .field("mode", &format_args!("{:o}", a.mode))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{CachedDisk, DiskConfig};
    use dc_fs::MemFs;

    fn fs_with_file() -> (Arc<MemFs>, InodeAttr) {
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            capacity_blocks: 4096,
            ..Default::default()
        }));
        let fs = MemFs::mkfs(
            disk,
            dc_fs::MemFsConfig {
                max_inodes: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        let a = fs.create(fs.root_ino(), "f", 0o644, 7, 7).unwrap();
        (fs, a)
    }

    #[test]
    fn snapshot_and_type() {
        let (fs, a) = fs_with_file();
        let ino = Inode::new(1, fs, a);
        assert_eq!(ino.attr().mode, 0o644);
        assert_eq!(ino.ftype(), FileType::Regular);
        assert!(!ino.is_dir());
    }

    #[test]
    fn setattr_refreshes_cache() {
        let (fs, a) = fs_with_file();
        let ino = Inode::new(1, fs, a);
        ino.setattr(SetAttr {
            mode: Some(0o600),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(ino.attr().mode, 0o600);
    }

    #[test]
    fn attributes_are_never_seen_torn() {
        // Two whole blocks that differ in every field a reader could
        // mix up: a torn read would match neither.
        let (fs, a) = fs_with_file();
        let b = InodeAttr {
            mode: 0o600,
            uid: 11,
            gid: 12,
            nlink: 3,
            size: 4096,
            mtime: a.mtime + 100,
            ctime: a.ctime + 100,
            ..a
        };
        let ino = Inode::new(1, fs, a);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20_000 {
                    ino.store_attr(if i % 2 == 0 { b } else { a });
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let seen = ino.attr();
                        assert!(seen == a || seen == b, "torn attributes: {seen:?}");
                    }
                });
            }
        });
    }
}
