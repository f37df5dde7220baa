//! On-disk inode records and logical→physical block mapping.

use super::layout::{Geometry, Reader, Writer, INODE_SIZE, NDIRECT};
use super::store::MetaStore;
use crate::api::{FileType, InodeAttr};
use crate::error::{FsError, FsResult};

/// Bytes of inline storage available for short symlink targets (the
/// pointer area of the record).
pub const INLINE_TARGET_MAX: usize = (NDIRECT + 1) * 8;

/// In-memory image of one on-disk inode record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskInode {
    /// Object type; `None` encodes a free record.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: u16,
    /// Hard link count.
    pub nlink: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Modification time (ticks).
    pub mtime: u64,
    /// Change time (ticks).
    pub ctime: u64,
    /// Direct block pointers (0 = hole/unallocated).
    pub direct: [u64; NDIRECT],
    /// Single indirect pointer block (0 = none).
    pub indirect: u64,
    /// Inline symlink target, stored in the pointer area on disk.
    pub inline_target: Option<String>,
}

impl DiskInode {
    /// A fresh inode of the given type.
    pub fn new(ftype: FileType, mode: u16, uid: u32, gid: u32, now: u64) -> Self {
        DiskInode {
            ftype,
            mode,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            uid,
            gid,
            size: 0,
            mtime: now,
            ctime: now,
            direct: [0; NDIRECT],
            indirect: 0,
            inline_target: None,
        }
    }

    /// Converts to the VFS-level attribute view.
    pub fn attr(&self, ino: u64) -> InodeAttr {
        InodeAttr {
            ino,
            ftype: self.ftype,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            nlink: self.nlink,
            size: self.size,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }

    /// Serializes into a 128-byte record.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut buf = [0u8; INODE_SIZE];
        let mut w = Writer::new(&mut buf);
        w.u8(self.ftype.as_u8());
        w.u8(0); // reserved
        w.u16(self.mode);
        w.u32(self.nlink);
        w.u32(self.uid);
        w.u32(self.gid);
        w.u64(self.size);
        w.u64(self.mtime);
        w.u64(self.ctime);
        // Pointer area: inline symlink target or block pointers.
        if let Some(t) = &self.inline_target {
            debug_assert!(t.len() <= INLINE_TARGET_MAX);
            w.bytes(t.as_bytes());
        } else {
            for d in self.direct {
                w.u64(d);
            }
            w.u64(self.indirect);
        }
        buf
    }

    /// Deserializes a record; `Ok(None)` for a free slot.
    pub fn decode(buf: &[u8]) -> FsResult<Option<DiskInode>> {
        let mut r = Reader::new(buf);
        let ft = r.u8()?;
        if ft == 0 {
            return Ok(None);
        }
        let ftype = FileType::from_u8(ft).ok_or(FsError::Io)?;
        let _ = r.u8()?;
        let mode = r.u16()?;
        let nlink = r.u32()?;
        let uid = r.u32()?;
        let gid = r.u32()?;
        let size = r.u64()?;
        let mtime = r.u64()?;
        let ctime = r.u64()?;
        let mut direct = [0u64; NDIRECT];
        let mut indirect = 0;
        let mut inline_target = None;
        if ftype == FileType::Symlink && (size as usize) <= INLINE_TARGET_MAX {
            let raw = r.bytes(size as usize)?;
            inline_target = Some(String::from_utf8(raw.to_vec()).map_err(|_| FsError::Io)?);
        } else {
            for d in direct.iter_mut() {
                *d = r.u64()?;
            }
            indirect = r.u64()?;
        }
        Ok(Some(DiskInode {
            ftype,
            mode,
            nlink,
            uid,
            gid,
            size,
            mtime,
            ctime,
            direct,
            indirect,
            inline_target,
        }))
    }
}

/// Reads inode `ino` from the table; `Err(NoEnt)` if the slot is free.
pub fn read_inode<S: MetaStore + ?Sized>(
    disk: &S,
    geo: &Geometry,
    ino: u64,
) -> FsResult<DiskInode> {
    if ino >= geo.max_inodes {
        return Err(FsError::Inval);
    }
    let (block, off) = geo.inode_location(ino);
    let data = disk.read_block(block)?;
    DiskInode::decode(&data[off..off + INODE_SIZE])?.ok_or(FsError::NoEnt)
}

/// Writes inode `ino` into the table.
pub fn write_inode<S: MetaStore + ?Sized>(
    disk: &S,
    geo: &Geometry,
    ino: u64,
    di: &DiskInode,
) -> FsResult<()> {
    let (block, off) = geo.inode_location(ino);
    disk.update_block(block, |b| {
        b[off..off + INODE_SIZE].copy_from_slice(&di.encode())
    })
}

/// Clears inode `ino`'s record (marks the slot free).
pub fn clear_inode<S: MetaStore + ?Sized>(disk: &S, geo: &Geometry, ino: u64) -> FsResult<()> {
    let (block, off) = geo.inode_location(ino);
    disk.update_block(block, |b| b[off..off + INODE_SIZE].fill(0))
}

/// Maximum logical blocks addressable by one inode.
pub fn max_logical_blocks(geo: &Geometry) -> u64 {
    NDIRECT as u64 + (geo.block_size / 8) as u64
}

/// Resolves logical block `lblk` of an inode to a physical block, or
/// `Ok(None)` for a hole.
pub fn bmap<S: MetaStore + ?Sized>(
    disk: &S,
    geo: &Geometry,
    di: &DiskInode,
    lblk: u64,
) -> FsResult<Option<u64>> {
    if lblk < NDIRECT as u64 {
        let p = di.direct[lblk as usize];
        return Ok(if p == 0 { None } else { Some(p) });
    }
    let idx = lblk - NDIRECT as u64;
    if idx >= (geo.block_size / 8) as u64 {
        return Err(FsError::NoSpc); // beyond maximum file size
    }
    if di.indirect == 0 {
        return Ok(None);
    }
    let blk = disk.read_block(di.indirect)?;
    let (ptrs, _) = blk.as_chunks::<8>();
    let p = u64::from_le_bytes(ptrs[idx as usize]);
    Ok(if p == 0 { None } else { Some(p) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mut di = DiskInode::new(FileType::Regular, 0o640, 1000, 100, 42);
        di.size = 9999;
        di.direct[3] = 77;
        di.indirect = 123;
        let buf = di.encode();
        let back = DiskInode::decode(&buf).unwrap().unwrap();
        assert_eq!(di, back);
    }

    #[test]
    fn free_slot_decodes_none() {
        let buf = [0u8; INODE_SIZE];
        assert_eq!(DiskInode::decode(&buf).unwrap(), None);
    }

    #[test]
    fn inline_symlink_round_trip() {
        let mut di = DiskInode::new(FileType::Symlink, 0o777, 0, 0, 1);
        let target = "../lib/x86_64/libc.so".to_string();
        di.size = target.len() as u64;
        di.inline_target = Some(target.clone());
        let back = DiskInode::decode(&di.encode()).unwrap().unwrap();
        assert_eq!(back.inline_target.as_deref(), Some(target.as_str()));
    }

    #[test]
    fn directory_starts_with_nlink_2() {
        let di = DiskInode::new(FileType::Directory, 0o755, 0, 0, 0);
        assert_eq!(di.nlink, 2);
        let f = DiskInode::new(FileType::Regular, 0o644, 0, 0, 0);
        assert_eq!(f.nlink, 1);
    }

    #[test]
    fn attr_projection() {
        let di = DiskInode::new(FileType::Regular, 0o600, 7, 8, 5);
        let a = di.attr(33);
        assert_eq!(a.ino, 33);
        assert_eq!(a.mode, 0o600);
        assert_eq!(a.uid, 7);
        assert_eq!(a.mtime, 5);
    }

    #[test]
    fn corrupt_type_is_io_error() {
        let mut buf = [0u8; INODE_SIZE];
        buf[0] = 99; // invalid type code
        assert_eq!(DiskInode::decode(&buf), Err(FsError::Io));
    }
}
