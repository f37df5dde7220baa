//! Open file handles.

use crate::mount::Mount;
use crate::path::PathRef;
use dc_fs::DirEntry;
use dcache_core::{Dentry, Inode};
use parking_lot::Mutex;
use std::sync::Arc;

/// `open(2)` flags, structured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if absent (`O_CREAT`).
    pub create: bool,
    /// With `create`: fail if present (`O_EXCL`).
    pub excl: bool,
    /// Truncate on open (`O_TRUNC`).
    pub trunc: bool,
    /// Do not follow a final symlink (`O_NOFOLLOW`).
    pub nofollow: bool,
    /// Require a directory (`O_DIRECTORY`).
    pub directory: bool,
    /// Append writes (`O_APPEND`).
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY|O_CREAT|O_TRUNC` — the classic create-for-write.
    pub fn create() -> Self {
        OpenFlags {
            write: true,
            create: true,
            trunc: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY|O_CREAT|O_EXCL` — exclusive creation (mkstemp).
    pub fn create_excl() -> Self {
        OpenFlags {
            write: true,
            create: true,
            excl: true,
            ..Default::default()
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }

    /// `O_RDONLY|O_DIRECTORY` — for readdir.
    pub fn directory() -> Self {
        OpenFlags {
            read: true,
            directory: true,
            ..Default::default()
        }
    }
}

/// Cursor state for an in-progress directory stream.
///
/// Tracks what §5.1 needs: whether a full pass (no `lseek`, no concurrent
/// child eviction) has been completed, in which case the directory may be
/// marked `DIR_COMPLETE`; and a snapshot when the listing is served from
/// the dcache so pagination stays stable.
#[derive(Default)]
pub struct DirCursor {
    /// Next low-level file-system cursor.
    pub fs_offset: u64,
    /// True once any batch was returned.
    pub started: bool,
    /// The parent's child-eviction generation when the stream started.
    pub gen_at_start: u64,
    /// An `lseek` happened; the stream no longer proves completeness.
    pub seeked: bool,
    /// End-of-directory reached.
    pub eof: bool,
    /// Snapshot used when serving from the cache (completeness hits).
    pub snapshot: Option<std::sync::Arc<Vec<DirEntry>>>,
    /// Position within the snapshot.
    pub snapshot_pos: usize,
}

/// An open file description.
pub struct Handle {
    /// Where the file was opened: the mount it was opened through (write
    /// checks honor its flags even after the file is renamed elsewhere)
    /// and the dentry it was opened at. Held as one [`PathRef`] so the
    /// `*at()` family can start a walk here without taking references.
    pub path: PathRef,
    /// The inode; open handles keep inodes alive after unlink.
    pub inode: Arc<Inode>,
    /// Open mode.
    pub flags: OpenFlags,
    /// File position.
    pub pos: Mutex<u64>,
    /// Directory stream state.
    pub dir: Mutex<DirCursor>,
}

impl Handle {
    /// Wraps an opened object.
    pub fn new(
        mount: Arc<Mount>,
        dentry: Arc<Dentry>,
        inode: Arc<Inode>,
        flags: OpenFlags,
    ) -> Arc<Handle> {
        Arc::new(Handle {
            path: PathRef::new(mount, dentry),
            inode,
            flags,
            pos: Mutex::new(0),
            dir: Mutex::new(DirCursor::default()),
        })
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("ino", &self.inode.ino)
            .field("dentry", &self.path.dentry.id())
            .field("flags", &self.flags)
            .field("pos", &*self.pos.lock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_constructors() {
        assert!(OpenFlags::read_only().read);
        assert!(!OpenFlags::read_only().write);
        let c = OpenFlags::create();
        assert!(c.write && c.create && c.trunc && !c.excl);
        let e = OpenFlags::create_excl();
        assert!(e.excl && e.create && !e.trunc);
        assert!(OpenFlags::directory().directory);
    }
}
