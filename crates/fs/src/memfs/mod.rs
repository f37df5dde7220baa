//! An ext2-flavored file system serialized onto the simulated block device.
//!
//! Layout (all sizes in 4 KiB blocks by default):
//!
//! ```text
//! block 0          superblock
//! ibmap_start..    inode allocation bitmap
//! bbmap_start..    block allocation bitmap
//! itab_start..     inode table (128-byte records, 32 per block)
//! journal_start..  metadata write-ahead journal
//! warmidx_start..  warm-restart directory index (A/B checkpoints)
//! data_start..     data blocks: file content and directory entry streams
//! ```
//!
//! Directories use ext2-style **block-local records** — `lookup` linearly
//! scans and deserializes directory blocks, so a directory-cache miss costs
//! real work proportional to directory size even when every block is in the
//! page cache. This reproduces the miss-cost structure that the paper's
//! directory-completeness and negative-dentry optimizations (§5) avoid.

mod bitmap;
mod checksum;
mod dir;
mod fs;
mod fsck;
mod inode;
mod journal;
mod layout;
mod store;
mod warmidx;

pub use fs::{MemFs, MemFsConfig};
pub use fsck::{fsck, tree_sig, FsckError, FsckReport};
pub use journal::{JournalCounters, JournalStats, ReplayInfo};
pub use warmidx::{WarmEntry, WarmLoad, WarmReject};
