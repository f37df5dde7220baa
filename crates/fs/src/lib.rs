//! Low-level file systems living beneath the VFS and directory cache.
//!
//! The paper's directory-cache optimizations are encapsulated in the VFS:
//! "individual file systems do not have to change their code" (§1). This
//! crate provides that unchanged lower layer:
//!
//! - [`FileSystem`] — the VFS ⇄ file-system contract (the analog of Linux's
//!   `inode_operations`/`file_operations` for metadata).
//! - [`MemFs`] — an ext2-flavored file system whose superblock, bitmaps,
//!   inode table and block-local directory entries are genuinely serialized
//!   onto a [`dc_blockdev::CachedDisk`]. A directory-cache miss therefore
//!   pays real work: block reads (possibly device latency) plus a linear
//!   scan and deserialization of on-disk records — the miss cost structure
//!   that §5's hit-rate optimizations attack.
//! - [`PseudoFs`] — a procfs-like dynamic file system: entries are
//!   generated, there is no backing store, and (as in Linux) the baseline
//!   never creates negative dentries for it — the behavior §5.2 changes.
//! - [`FsError`] — errno-shaped errors shared by every layer above.
//!
//! # Examples
//!
//! ```
//! use dc_fs::{FileSystem, MemFs, FileType};
//! use dc_blockdev::{CachedDisk, DiskConfig};
//! use std::sync::Arc;
//!
//! let disk = Arc::new(CachedDisk::new(DiskConfig::default()));
//! let fs = MemFs::mkfs(disk, Default::default()).unwrap();
//! let root = fs.root_ino();
//! let dir = fs.mkdir(root, "etc", 0o755, 0, 0).unwrap();
//! let file = fs.create(dir.ino, "passwd", 0o644, 0, 0).unwrap();
//! assert_eq!(fs.lookup(dir.ino, "passwd").unwrap().ino, file.ino);
//! assert_eq!(fs.lookup(dir.ino, "shadow").unwrap_err(), dc_fs::FsError::NoEnt);
//! assert_eq!(file.ftype, FileType::Regular);
//! ```

mod api;
mod error;
pub mod memfs;
pub mod pseudofs;

pub use api::{
    DirEntry, FileSystem, FileType, FsStats, InodeAttr, SetAttr, StatFs, MODE_SGID, MODE_STICKY,
    MODE_SUID,
};
pub use error::{FsError, FsResult};
pub use memfs::{
    fsck, tree_sig, FsckError, FsckReport, JournalCounters, JournalStats, MemFs, MemFsConfig,
    ReplayInfo, WarmEntry, WarmLoad, WarmReject,
};
pub use pseudofs::{PseudoFs, PseudoNode};
