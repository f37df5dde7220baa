//! Full-image consistency checker — the crash-campaign oracle.
//!
//! Walks the entire on-disk structure from the root directory and
//! cross-checks every invariant the file system maintains:
//!
//! - every directory entry points at an in-range, allocated, live inode
//!   whose type matches the entry's type byte;
//! - no directory is reachable twice (no cycles, no hard-linked dirs);
//! - link counts: files carry one link per referencing entry, directories
//!   carry `2 + subdirectories`;
//! - no data block is claimed by two inodes, lies outside the data
//!   region, or is reachable while marked free in the block bitmap;
//! - every block the bitmap marks allocated is either metadata (incl.
//!   the journal region) or reachable from some inode — no leaks;
//! - the inode bitmap agrees exactly with the set of live inode records.
//!
//! `fsck` only *reads*; it never repairs. A crash campaign mounts the
//! image first (running journal recovery) and then expects a clean
//! report — any error here means recovery broke an invariant.

use super::inode::DiskInode;
use super::layout::{Geometry, INODE_SIZE};
use crate::api::{FileSystem, FileType};
use crate::error::FsResult;
use dc_blockdev::CachedDisk;
use std::collections::{HashMap, HashSet};

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckError {
    /// A directory entry names an out-of-range or free inode.
    DanglingEntry {
        /// Directory holding the entry.
        dir: u64,
        /// Entry name.
        name: String,
        /// The bad inode number.
        ino: u64,
    },
    /// An entry's type byte disagrees with the inode it points at.
    TypeMismatch {
        /// Directory holding the entry.
        dir: u64,
        /// Entry name.
        name: String,
        /// The inode in question.
        ino: u64,
    },
    /// A directory is reachable through more than one entry (cycle or
    /// hard-linked directory).
    DirReentered {
        /// The multiply-reachable directory.
        ino: u64,
    },
    /// An inode's recorded link count disagrees with the tree.
    WrongNlink {
        /// The inode.
        ino: u64,
        /// Links the tree implies.
        expected: u32,
        /// Links the record claims.
        found: u32,
    },
    /// A block pointer escapes the data region.
    BlockOutOfRange {
        /// Owning inode.
        ino: u64,
        /// The bad pointer.
        block: u64,
    },
    /// Two inodes (or one inode twice) claim the same data block.
    BlockDoubleClaimed {
        /// The block claimed twice.
        block: u64,
        /// The second claimant.
        ino: u64,
    },
    /// A reachable block is marked free in the block bitmap.
    BlockNotAllocated {
        /// The block.
        block: u64,
        /// Owning inode.
        ino: u64,
    },
    /// An allocated data block is unreachable from every inode (leak).
    OrphanBlock {
        /// The leaked block.
        block: u64,
    },
    /// A metadata/journal block is marked free in the block bitmap.
    MetaNotAllocated {
        /// The block.
        block: u64,
    },
    /// A live inode record is unreachable from the root (leak).
    OrphanInode {
        /// The leaked inode.
        ino: u64,
    },
    /// A live inode record whose inode-bitmap bit is clear.
    InodeNotAllocated {
        /// The inode.
        ino: u64,
    },
    /// An allocated inode-bitmap bit with a free (zeroed) record.
    InodeBitmapGhost {
        /// The inode.
        ino: u64,
    },
    /// An inode record that fails to deserialize.
    UnreadableInode {
        /// The inode.
        ino: u64,
    },
    /// Two warm-index entries name the same `(parent, name)`.
    WarmIndexDuplicateKey {
        /// Inode of the second entry with the repeated name.
        ino: u64,
    },
    /// A warm-index entry references an out-of-range inode number.
    WarmIndexInodeOutOfRange {
        /// The bad inode number.
        ino: u64,
    },
    /// A warm-index entry's parent is neither the root nor an index
    /// entry appearing earlier in the (parents-first) entry stream.
    WarmIndexDanglingParent {
        /// The entry's inode.
        ino: u64,
        /// The missing or misordered parent.
        parent: u64,
    },
}

impl std::fmt::Display for FsckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckError::DanglingEntry { dir, name, ino } => {
                write!(f, "dir {dir}: entry {name:?} -> dangling inode {ino}")
            }
            FsckError::TypeMismatch { dir, name, ino } => {
                write!(
                    f,
                    "dir {dir}: entry {name:?} type byte mismatches inode {ino}"
                )
            }
            FsckError::DirReentered { ino } => write!(f, "directory {ino} reachable twice"),
            FsckError::WrongNlink {
                ino,
                expected,
                found,
            } => write!(f, "inode {ino}: nlink {found}, tree implies {expected}"),
            FsckError::BlockOutOfRange { ino, block } => {
                write!(f, "inode {ino}: block pointer {block} outside data region")
            }
            FsckError::BlockDoubleClaimed { block, ino } => {
                write!(f, "block {block} double-claimed (second owner inode {ino})")
            }
            FsckError::BlockNotAllocated { block, ino } => {
                write!(f, "block {block} (inode {ino}) reachable but marked free")
            }
            FsckError::OrphanBlock { block } => write!(f, "block {block} allocated but orphaned"),
            FsckError::MetaNotAllocated { block } => {
                write!(f, "metadata block {block} marked free")
            }
            FsckError::OrphanInode { ino } => write!(f, "inode {ino} live but unreachable"),
            FsckError::InodeNotAllocated { ino } => {
                write!(f, "inode {ino} live but bitmap bit clear")
            }
            FsckError::InodeBitmapGhost { ino } => {
                write!(f, "inode {ino} allocated in bitmap but record is free")
            }
            FsckError::UnreadableInode { ino } => write!(f, "inode {ino} undecodable"),
            FsckError::WarmIndexDuplicateKey { ino } => {
                write!(f, "warm index: duplicate name (entry for inode {ino})")
            }
            FsckError::WarmIndexInodeOutOfRange { ino } => {
                write!(f, "warm index: entry references out-of-range inode {ino}")
            }
            FsckError::WarmIndexDanglingParent { ino, parent } => {
                write!(
                    f,
                    "warm index: entry for inode {ino} has dangling parent {parent}"
                )
            }
        }
    }
}

/// The outcome of a full consistency walk.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every violated invariant, in discovery order.
    pub errors: Vec<FsckError>,
    /// Live inodes reachable from the root.
    pub inodes_reachable: u64,
    /// Directories among them.
    pub dirs: u64,
    /// Data blocks reachable from inodes (indirect blocks included).
    pub blocks_reachable: u64,
    /// Whether a checksum-valid warm-restart index was present.
    pub warm_index_present: bool,
    /// Entries in that index (0 when absent).
    pub warm_entries: u64,
}

impl FsckReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Loads a bitmap region into memory for O(1) bit tests.
fn load_bits(disk: &CachedDisk, start: u64, nbits: u64, block_size: usize) -> FsResult<Vec<u8>> {
    let bits_per_block = (block_size * 8) as u64;
    let nblocks = nbits.div_ceil(bits_per_block);
    let mut out = Vec::with_capacity((nblocks as usize) * block_size);
    for b in 0..nblocks {
        out.extend_from_slice(&disk.read_block(start + b)?);
    }
    Ok(out)
}

fn bit(bits: &[u8], idx: u64) -> bool {
    bits[(idx / 8) as usize] & (1 << (idx % 8)) != 0
}

fn read_raw_inode(disk: &CachedDisk, geo: &Geometry, ino: u64) -> FsResult<Option<DiskInode>> {
    let (block, off) = geo.inode_location(ino);
    let data = disk.read_block(block)?;
    DiskInode::decode(&data[off..off + INODE_SIZE])
}

/// Every physical block an inode owns (direct, indirect contents, and the
/// indirect block itself). Inline symlinks own nothing.
fn blocks_of(disk: &CachedDisk, di: &DiskInode) -> FsResult<Vec<u64>> {
    if di.inline_target.is_some() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for &d in &di.direct {
        if d != 0 {
            out.push(d);
        }
    }
    if di.indirect != 0 {
        out.push(di.indirect);
        let blk = disk.read_block(di.indirect)?;
        for &chunk in blk.as_chunks::<8>().0 {
            let p = u64::from_le_bytes(chunk);
            if p != 0 {
                out.push(p);
            }
        }
    }
    Ok(out)
}

/// Runs the full consistency check over a formatted disk. Errors out only
/// on an unreadable superblock; structural damage lands in the report.
pub fn fsck(disk: &CachedDisk) -> FsResult<FsckReport> {
    let geo = Geometry::read_superblock(disk)?;
    let mut report = FsckReport::default();
    let ibits = load_bits(disk, geo.ibmap_start, geo.max_inodes, geo.block_size)?;
    let bbits = load_bits(disk, geo.bbmap_start, geo.capacity_blocks, geo.block_size)?;

    // Metadata (superblock, bitmaps, inode table, journal) must all be
    // marked allocated — a recovery bug could never expose them for reuse.
    for b in 0..geo.data_start {
        if !bit(&bbits, b) {
            report.errors.push(FsckError::MetaNotAllocated { block: b });
        }
    }

    // Breadth-first walk from the root.
    let root = 1u64;
    let mut entry_links: HashMap<u64, u32> = HashMap::new(); // non-dir refs
    let mut subdirs: HashMap<u64, u32> = HashMap::new(); // child dirs per dir
    let mut seen_dirs: HashMap<u64, ()> = HashMap::new();
    let mut reachable: HashMap<u64, DiskInode> = HashMap::new();
    let mut block_owner: HashMap<u64, u64> = HashMap::new();
    let mut queue: Vec<u64> = Vec::new();

    match read_raw_inode(disk, &geo, root) {
        Ok(Some(di)) if di.ftype == FileType::Directory => {
            seen_dirs.insert(root, ());
            reachable.insert(root, di);
            queue.push(root);
        }
        Ok(_) => {
            report.errors.push(FsckError::DanglingEntry {
                dir: 0,
                name: "/".into(),
                ino: root,
            });
            return Ok(report);
        }
        Err(_) => {
            report.errors.push(FsckError::UnreadableInode { ino: root });
            return Ok(report);
        }
    }

    while let Some(dirino) = queue.pop() {
        let di = reachable[&dirino].clone();
        let nblocks = di.size / geo.block_size as u64;
        for lblk in 0..nblocks {
            let Some(phys) = super::inode::bmap(disk, &geo, &di, lblk)? else {
                continue;
            };
            let data = disk.read_block(phys)?;
            for rec in super::dir::RecordIter::new(&data) {
                let Ok(rec) = rec else {
                    // A corrupt record chain: charge it to the directory.
                    report
                        .errors
                        .push(FsckError::UnreadableInode { ino: dirino });
                    break;
                };
                if rec.ino == 0 {
                    continue;
                }
                let name = String::from_utf8_lossy(rec.name).into_owned();
                if rec.ino >= geo.max_inodes {
                    report.errors.push(FsckError::DanglingEntry {
                        dir: dirino,
                        name,
                        ino: rec.ino,
                    });
                    continue;
                }
                let child = match read_raw_inode(disk, &geo, rec.ino) {
                    Ok(Some(c)) => c,
                    Ok(None) => {
                        report.errors.push(FsckError::DanglingEntry {
                            dir: dirino,
                            name,
                            ino: rec.ino,
                        });
                        continue;
                    }
                    Err(_) => {
                        report
                            .errors
                            .push(FsckError::UnreadableInode { ino: rec.ino });
                        continue;
                    }
                };
                if FileType::from_u8(rec.ftype) != Some(child.ftype) {
                    report.errors.push(FsckError::TypeMismatch {
                        dir: dirino,
                        name,
                        ino: rec.ino,
                    });
                }
                if child.ftype == FileType::Directory {
                    *subdirs.entry(dirino).or_insert(0) += 1;
                    if seen_dirs.insert(rec.ino, ()).is_some() {
                        report.errors.push(FsckError::DirReentered { ino: rec.ino });
                        continue; // don't re-walk: would loop forever
                    }
                    reachable.insert(rec.ino, child);
                    queue.push(rec.ino);
                } else {
                    *entry_links.entry(rec.ino).or_insert(0) += 1;
                    reachable.entry(rec.ino).or_insert(child);
                }
            }
        }
    }

    // Per-inode invariants: link counts, bitmap agreement, block claims.
    for (&ino, di) in &reachable {
        report.inodes_reachable += 1;
        let expected = if di.ftype == FileType::Directory {
            report.dirs += 1;
            2 + subdirs.get(&ino).copied().unwrap_or(0)
        } else {
            entry_links.get(&ino).copied().unwrap_or(0)
        };
        if di.nlink != expected {
            report.errors.push(FsckError::WrongNlink {
                ino,
                expected,
                found: di.nlink,
            });
        }
        if !bit(&ibits, ino) {
            report.errors.push(FsckError::InodeNotAllocated { ino });
        }
        for blk in blocks_of(disk, di)? {
            if blk < geo.data_start || blk >= geo.capacity_blocks {
                report
                    .errors
                    .push(FsckError::BlockOutOfRange { ino, block: blk });
                continue;
            }
            if let Some(_prev) = block_owner.insert(blk, ino) {
                report
                    .errors
                    .push(FsckError::BlockDoubleClaimed { block: blk, ino });
            }
            if !bit(&bbits, blk) {
                report
                    .errors
                    .push(FsckError::BlockNotAllocated { block: blk, ino });
            }
        }
    }
    report.blocks_reachable = block_owner.len() as u64;

    // Sweep the whole inode table: live-but-unreachable records (orphans),
    // bitmap bits with no record behind them (ghosts).
    for ino in 0..geo.max_inodes {
        let live = match read_raw_inode(disk, &geo, ino) {
            Ok(opt) => opt.is_some(),
            Err(_) => {
                report.errors.push(FsckError::UnreadableInode { ino });
                continue;
            }
        };
        let allocated = bit(&ibits, ino);
        if live && !reachable.contains_key(&ino) {
            report.errors.push(FsckError::OrphanInode { ino });
        }
        if allocated && !live && ino != 0 {
            report.errors.push(FsckError::InodeBitmapGhost { ino });
        }
        if live && !allocated {
            // Already reported for reachable inodes; catch orphans too.
            if reachable.contains_key(&ino) {
                continue;
            }
            report.errors.push(FsckError::InodeNotAllocated { ino });
        }
    }

    // Sweep the data region: allocated blocks nobody references leak.
    for blk in geo.data_start..geo.capacity_blocks {
        if bit(&bbits, blk) && !block_owner.contains_key(&blk) {
            report.errors.push(FsckError::OrphanBlock { block: blk });
        }
    }

    // Warm-restart index pass: internal consistency only. The index may
    // legitimately lag the tree (operations commit after a checkpoint),
    // so staleness against the directory walk above is the mount path's
    // per-entry fallback, not damage; likewise a checksum-invalid index
    // is mount's whole-index fallback and is simply skipped here.
    if let Some(entries) = super::warmidx::read_for_fsck(disk, &geo)? {
        report.warm_index_present = true;
        report.warm_entries = entries.len() as u64;
        let mut keys: HashSet<(u64, &str)> = HashSet::with_capacity(entries.len());
        let mut seen_inos: HashSet<u64> = HashSet::with_capacity(entries.len() + 1);
        seen_inos.insert(root);
        for e in &entries {
            if !keys.insert((e.parent, &e.name)) {
                report
                    .errors
                    .push(FsckError::WarmIndexDuplicateKey { ino: e.ino });
            }
            if e.ino >= geo.max_inodes {
                report
                    .errors
                    .push(FsckError::WarmIndexInodeOutOfRange { ino: e.ino });
            }
            // Entries are written parents-first, and capacity truncation
            // drops a suffix, so a valid index always introduces a parent
            // before any of its children.
            if !seen_inos.contains(&e.parent) {
                report.errors.push(FsckError::WarmIndexDanglingParent {
                    ino: e.ino,
                    parent: e.parent,
                });
            }
            seen_inos.insert(e.ino);
        }
    }

    Ok(report)
}

/// The metadata tree as comparable lines, one per object in path order:
/// path, type, mode, nlink, size and symlink target. Two file systems
/// with equal signatures hold the same namespace — what a crash campaign
/// compares a recovered image with its shadow replay by. Times are left
/// out (ticks advance with read traffic), and so is content (data blocks
/// are write-back; the journal guarantees the metadata tree). An
/// unreadable object is a line of its own, never a panic.
pub fn tree_sig(fs: &dyn FileSystem) -> Vec<String> {
    fn visit(fs: &dyn FileSystem, ino: u64, path: &str, out: &mut Vec<String>) {
        let Ok(a) = fs.getattr(ino) else {
            out.push(format!("{path} <unreadable>"));
            return;
        };
        let link = if a.ftype == FileType::Symlink {
            fs.readlink(ino).unwrap_or_else(|_| "<bad-link>".into())
        } else {
            String::new()
        };
        out.push(format!(
            "{path} {:?} mode={:o} nlink={} size={} {link}",
            a.ftype, a.mode, a.nlink, a.size
        ));
        if !a.ftype.is_dir() {
            return;
        }
        let mut entries = Vec::new();
        let mut cursor = 0u64;
        loop {
            match fs.readdir(ino, cursor, 128, &mut entries) {
                Ok(Some(next)) => cursor = next,
                Ok(None) => break,
                Err(_) => {
                    out.push(format!("{path} <unreadable-dir>"));
                    return;
                }
            }
        }
        entries.sort_by(|x, y| x.name.cmp(&y.name));
        for e in entries {
            visit(fs, e.ino, &format!("{path}/{}", e.name), out);
        }
    }
    let mut out = Vec::new();
    visit(fs, fs.root_ino(), "", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::super::fs::{MemFs, MemFsConfig};
    use super::*;
    use crate::api::FileSystem;
    use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
    use std::sync::Arc;

    fn newfs() -> Arc<MemFs> {
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            block_size: 4096,
            capacity_blocks: 8192,
            latency: LatencyModel::free(),
            cache_pages: 4096,
        }));
        MemFs::mkfs(
            disk,
            MemFsConfig {
                max_inodes: 4096,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn fresh_fs_is_clean() {
        let fs = newfs();
        let report = fsck(fs.disk()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert_eq!(report.inodes_reachable, 1);
        assert_eq!(report.dirs, 1);
    }

    #[test]
    fn busy_tree_is_clean() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        let f = fs.create(d.ino, "f", 0o644, 0, 0).unwrap();
        fs.write(f.ino, 0, &[7u8; 50_000]).unwrap();
        fs.symlink(r, "s", "d/f", 0, 0).unwrap();
        fs.link(d.ino, "f2", f.ino).unwrap();
        fs.rename(d.ino, "f", r, "moved").unwrap();
        fs.unlink(r, "moved").unwrap();
        let report = fsck(fs.disk()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert!(report.blocks_reachable >= 12, "file blocks counted");
    }

    #[test]
    fn detects_dangling_entry_and_bad_nlink() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "victim", 0o644, 0, 0).unwrap();
        // Corrupt: zero the victim's inode record behind the fs's back.
        let geo = *fs.geometry();
        let (blk, off) = geo.inode_location(f.ino);
        let data = fs.disk().read_block(blk).unwrap();
        let mut copy = data.to_vec();
        copy[off..off + INODE_SIZE].fill(0);
        fs.disk().write_block(blk, &copy).unwrap();
        let report = fsck(fs.disk()).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::DanglingEntry { ino, .. } if *ino == f.ino)));
    }

    #[test]
    fn detects_leaked_block() {
        let fs = newfs();
        let geo = *fs.geometry();
        // Set an allocated bit in the data region with no owner.
        let victim = geo.capacity_blocks - 3;
        let bblk = geo.bbmap_start + victim / (geo.block_size as u64 * 8);
        let data = fs.disk().read_block(bblk).unwrap();
        let mut copy = data.to_vec();
        let bit_in_block = victim % (geo.block_size as u64 * 8);
        copy[(bit_in_block / 8) as usize] |= 1 << (bit_in_block % 8);
        fs.disk().write_block(bblk, &copy).unwrap();
        let report = fsck(fs.disk()).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::OrphanBlock { block } if *block == victim)));
    }

    fn warm_entry(ino: u64, parent: u64, name: &str) -> super::super::WarmEntry {
        super::super::WarmEntry {
            ino,
            parent,
            name: name.to_string(),
        }
    }

    #[test]
    fn clean_warm_index_passes_and_is_counted() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        let f = fs.create(d.ino, "f", 0o644, 0, 0).unwrap();
        let entries = vec![warm_entry(d.ino, r, "d"), warm_entry(f.ino, d.ino, "f")];
        assert_eq!(fs.warm_checkpoint(&entries).unwrap(), 2);
        let report = fsck(fs.disk()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert!(report.warm_index_present);
        assert_eq!(report.warm_entries, 2);
    }

    #[test]
    fn absent_warm_index_is_not_an_error() {
        let fs = newfs();
        let report = fsck(fs.disk()).unwrap();
        assert!(report.is_clean());
        assert!(!report.warm_index_present);
        assert_eq!(report.warm_entries, 0);
    }

    #[test]
    fn detects_warm_index_duplicate_key() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        let e = fs.mkdir(r, "e", 0o755, 0, 0).unwrap();
        let entries = vec![warm_entry(d.ino, r, "d"), warm_entry(e.ino, r, "d")];
        fs.warm_checkpoint(&entries).unwrap();
        let report = fsck(fs.disk()).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|x| matches!(x, FsckError::WarmIndexDuplicateKey { ino } if *ino == e.ino)));
    }

    #[test]
    fn detects_warm_index_orphan_and_dangling_parent() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        let geo = *fs.geometry();
        let entries = vec![
            // Out-of-range inode number.
            warm_entry(geo.max_inodes + 7, r, "ghost"),
            // Parent not introduced by any earlier entry (misordered or
            // missing — either way the prefix is not parent-closed).
            warm_entry(d.ino, 999, "d"),
        ];
        fs.warm_checkpoint(&entries).unwrap();
        let report = fsck(fs.disk()).unwrap();
        assert!(report.errors.iter().any(
            |x| matches!(x, FsckError::WarmIndexInodeOutOfRange { ino } if *ino == geo.max_inodes + 7)
        ));
        assert!(report
            .errors
            .iter()
            .any(|x| matches!(x, FsckError::WarmIndexDanglingParent { parent: 999, .. })));
    }

    #[test]
    fn detects_wrong_nlink() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "f", 0o644, 0, 0).unwrap();
        let geo = *fs.geometry();
        let (blk, off) = geo.inode_location(f.ino);
        let data = fs.disk().read_block(blk).unwrap();
        let mut copy = data.to_vec();
        // nlink lives at offset 4 (u32) in the record.
        copy[off + 4..off + 8].copy_from_slice(&9u32.to_le_bytes());
        fs.disk().write_block(blk, &copy).unwrap();
        let report = fsck(fs.disk()).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::WrongNlink { ino, found: 9, .. } if *ino == f.ino)));
    }
}
