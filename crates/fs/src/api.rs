//! The VFS ⇄ file-system contract.

use crate::error::FsResult;
use bytes::Bytes;
use std::sync::atomic::Ordering;

/// Inode number within one file system instance.
pub type Ino = u64;

/// Set-user-ID mode bit.
pub const MODE_SUID: u16 = 0o4000;
/// Set-group-ID mode bit.
pub const MODE_SGID: u16 = 0o2000;
/// Sticky mode bit.
pub const MODE_STICKY: u16 = 0o1000;

/// Object types, mirroring `d_type` values exposed by `readdir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
    /// Character device node.
    CharDev,
    /// Block device node.
    BlockDev,
    /// Named pipe.
    Fifo,
    /// Unix-domain socket.
    Socket,
}

impl FileType {
    /// Encoding used in on-disk records and readdir results.
    pub fn as_u8(self) -> u8 {
        match self {
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::Symlink => 3,
            FileType::CharDev => 4,
            FileType::BlockDev => 5,
            FileType::Fifo => 6,
            FileType::Socket => 7,
        }
    }

    /// Decodes the on-disk encoding.
    pub fn from_u8(v: u8) -> Option<FileType> {
        Some(match v {
            1 => FileType::Regular,
            2 => FileType::Directory,
            3 => FileType::Symlink,
            4 => FileType::CharDev,
            5 => FileType::BlockDev,
            6 => FileType::Fifo,
            7 => FileType::Socket,
            _ => return None,
        })
    }

    /// True for [`FileType::Directory`].
    pub fn is_dir(self) -> bool {
        self == FileType::Directory
    }
}

/// Metadata for one inode, as reported by the low-level file system.
///
/// This is the `struct kstat`-level view the VFS caches in its in-memory
/// inodes; `mode` holds the permission bits (plus suid/sgid/sticky), not
/// the file type, which lives in `ftype`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeAttr {
    /// Inode number.
    pub ino: Ino,
    /// Object type.
    pub ftype: FileType,
    /// Permission bits (0o7777 mask).
    pub mode: u16,
    /// Owning user.
    pub uid: u32,
    /// Owning group.
    pub gid: u32,
    /// Hard link count.
    pub nlink: u32,
    /// Size in bytes (for directories: size of the entry stream).
    pub size: u64,
    /// Modification time (abstract ticks).
    pub mtime: u64,
    /// Attribute-change time (abstract ticks).
    pub ctime: u64,
}

/// One `readdir` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no slashes).
    pub name: String,
    /// Inode number of the target.
    pub ino: Ino,
    /// Target type as recorded in the directory.
    pub ftype: FileType,
}

/// Attribute changes for `setattr` (chmod/chown/truncate/utimes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetAttr {
    /// New permission bits.
    pub mode: Option<u16>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// New size (truncate/extend).
    pub size: Option<u64>,
    /// New modification time.
    pub mtime: Option<u64>,
}

/// `statfs`-level totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatFs {
    /// Total data blocks.
    pub blocks: u64,
    /// Free data blocks.
    pub bfree: u64,
    /// Total inodes.
    pub files: u64,
    /// Free inodes.
    pub ffree: u64,
    /// Block size in bytes.
    pub bsize: u64,
}

dc_obs::counters! {
    /// Call counters a file system keeps so experiments can report how
    /// often the directory cache had to reach below the VFS (`fs` section).
    pub struct FsStats = "fs" {
        /// `lookup` calls (cache misses reaching the file system).
        pub lookups,
        /// `readdir` calls.
        pub readdirs,
        /// `getattr` calls.
        pub getattrs,
        /// Mutating calls (create/unlink/rename/setattr/…).
        pub mutations,
    }
}

impl FsStats {
    /// Snapshot as plain numbers `(lookups, readdirs, getattrs, mutations)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        let v = |c: &dc_obs::Counter| c.load(Ordering::Relaxed);
        (
            v(&self.lookups),
            v(&self.readdirs),
            v(&self.getattrs),
            v(&self.mutations),
        )
    }
}

/// The low-level file system interface the VFS drives.
///
/// Everything is inode-number based; path knowledge lives entirely in the
/// VFS/dcache above (the Linux division of labor, §2.2–2.3). All methods
/// must be safe for concurrent use; implementations do their own internal
/// locking, while the VFS additionally serializes directory mutations via
/// per-dentry locks.
pub trait FileSystem: Send + Sync {
    /// A short type name, e.g. `"memfs"`.
    fn fs_type(&self) -> &'static str;

    /// Downcasting access (the VFS uses this for file-system-specific
    /// maintenance like page-cache drops on cold-cache resets).
    fn as_any(&self) -> &dyn std::any::Any;

    /// The root directory's inode number.
    fn root_ino(&self) -> Ino;

    /// Reads an inode's metadata.
    fn getattr(&self, ino: Ino) -> FsResult<InodeAttr>;

    /// Finds `name` in directory `dir`. `Err(NoEnt)` means definitively
    /// absent; `Err(NotDir)` means `dir` is not a directory.
    fn lookup(&self, dir: Ino, name: &str) -> FsResult<InodeAttr>;

    /// Reads directory entries starting at cursor `offset`, appending at
    /// most `max` entries to `out`. Returns the next cursor, or `None` at
    /// end-of-directory. `.` and `..` are not reported (the VFS
    /// synthesizes them).
    fn readdir(
        &self,
        dir: Ino,
        offset: u64,
        max: usize,
        out: &mut Vec<DirEntry>,
    ) -> FsResult<Option<u64>>;

    /// Creates a regular file.
    fn create(&self, dir: Ino, name: &str, mode: u16, uid: u32, gid: u32) -> FsResult<InodeAttr>;

    /// Creates a directory.
    fn mkdir(&self, dir: Ino, name: &str, mode: u16, uid: u32, gid: u32) -> FsResult<InodeAttr>;

    /// Creates a symbolic link containing `target`.
    fn symlink(
        &self,
        dir: Ino,
        name: &str,
        target: &str,
        uid: u32,
        gid: u32,
    ) -> FsResult<InodeAttr>;

    /// Reads a symbolic link's target.
    fn readlink(&self, ino: Ino) -> FsResult<String>;

    /// Creates a hard link to `ino` named `name` in `dir`.
    fn link(&self, dir: Ino, name: &str, ino: Ino) -> FsResult<InodeAttr>;

    /// Removes a non-directory entry. The inode is freed when its link
    /// count reaches zero (the VFS is responsible for open-handle
    /// semantics above this layer).
    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, dir: Ino, name: &str) -> FsResult<()>;

    /// Renames `old_dir/old_name` to `new_dir/new_name`, replacing a
    /// compatible existing target (POSIX rename semantics).
    fn rename(&self, old_dir: Ino, old_name: &str, new_dir: Ino, new_name: &str) -> FsResult<()>;

    /// Applies attribute changes and returns the updated attributes.
    fn setattr(&self, ino: Ino, changes: SetAttr) -> FsResult<InodeAttr>;

    /// Reads file content.
    fn read(&self, ino: Ino, offset: u64, len: usize) -> FsResult<Bytes>;

    /// Writes file content, returning bytes written.
    fn write(&self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// File-system totals.
    fn statfs(&self) -> FsResult<StatFs>;

    /// Flushes metadata and data to the backing store, if any.
    fn sync(&self) -> FsResult<()> {
        Ok(())
    }

    /// Call counters for evaluation.
    fn stats(&self) -> &FsStats;

    /// True for pseudo file systems (proc/sys/dev-like). In baseline mode
    /// the dcache does not create negative dentries for these (§5.2).
    fn is_pseudo(&self) -> bool {
        false
    }

    /// Whether lookups on this file system may use the direct-lookup
    /// fastpath at all. Network file systems needing per-component
    /// revalidation return `false` (§4.3, "Network File Systems").
    fn supports_fastpath(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_type_round_trips() {
        for t in [
            FileType::Regular,
            FileType::Directory,
            FileType::Symlink,
            FileType::CharDev,
            FileType::BlockDev,
            FileType::Fifo,
            FileType::Socket,
        ] {
            assert_eq!(FileType::from_u8(t.as_u8()), Some(t));
        }
        assert_eq!(FileType::from_u8(0), None);
        assert_eq!(FileType::from_u8(8), None);
    }

    #[test]
    fn stats_snapshot_and_reset() {
        let s = FsStats::default();
        s.lookups.fetch_add(3, Ordering::Relaxed);
        s.mutations.fetch_add(1, Ordering::Relaxed);
        assert_eq!(s.snapshot(), (3, 0, 0, 1));
        s.reset();
        assert_eq!(s.snapshot(), (0, 0, 0, 0));
    }
}
