//! Superblock and on-disk geometry.

use crate::error::{FsError, FsResult};
use dc_blockdev::CachedDisk;

/// Magic tag identifying a memfs superblock. Bumped to `S2` when the
/// reserved journal region was added to the geometry, and to `S3` when
/// the warm-restart index region followed it — older images are not
/// mountable (the layout shifted). `S4` is checksum format v2: the layout
/// is `S3`'s, but journal and warm-index records are sealed with
/// `checksum::sum64`, so an `S3` log would read as one torn tail.
pub const MAGIC: u64 = 0x4443_4d45_4d46_5334; // "DCMEMFS4"

/// Bytes per on-disk inode record.
pub const INODE_SIZE: usize = 128;

/// Number of direct block pointers per inode.
pub const NDIRECT: usize = 10;

/// Computed on-disk geometry. All fields are in block numbers / counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Block size in bytes (copied from the device).
    pub block_size: usize,
    /// Total device blocks available to this file system.
    pub capacity_blocks: u64,
    /// Maximum number of inodes.
    pub max_inodes: u64,
    /// First block of the inode bitmap.
    pub ibmap_start: u64,
    /// Blocks in the inode bitmap.
    pub ibmap_blocks: u64,
    /// First block of the block bitmap.
    pub bbmap_start: u64,
    /// Blocks in the block bitmap.
    pub bbmap_blocks: u64,
    /// First block of the inode table.
    pub itab_start: u64,
    /// Blocks in the inode table.
    pub itab_blocks: u64,
    /// First block of the metadata journal (two header blocks, then the
    /// circular log region).
    pub journal_start: u64,
    /// Total journal blocks (headers + log region).
    pub journal_blocks: u64,
    /// First block of the warm-restart directory index (two A/B header
    /// blocks, then two alternating payload halves).
    pub warmidx_start: u64,
    /// Total warm-index blocks (headers + both payload halves).
    pub warmidx_blocks: u64,
    /// First data block.
    pub data_start: u64,
}

impl Geometry {
    /// Computes the layout for a device of `capacity_blocks` blocks.
    pub fn compute(block_size: usize, capacity_blocks: u64, max_inodes: u64) -> Geometry {
        let bits_per_block = (block_size * 8) as u64;
        let ibmap_blocks = max_inodes.div_ceil(bits_per_block);
        let bbmap_blocks = capacity_blocks.div_ceil(bits_per_block);
        let inodes_per_block = (block_size / INODE_SIZE) as u64;
        let itab_blocks = max_inodes.div_ceil(inodes_per_block);
        let ibmap_start = 1;
        let bbmap_start = ibmap_start + ibmap_blocks;
        let itab_start = bbmap_start + bbmap_blocks;
        let journal_start = itab_start + itab_blocks;
        // ~1.5% of the device, floored so the smallest test disks still
        // fit a useful log, capped so huge devices don't waste space.
        // +2 for the dual header blocks.
        let journal_blocks = (capacity_blocks / 64).clamp(16, 1024) + 2;
        let warmidx_start = journal_start + journal_blocks;
        // Two payload halves (checkpoints alternate between them so a
        // torn write can never destroy the previous generation), plus
        // the two header blocks. Sized like the journal: a floor for
        // tiny test disks, a cap for huge ones.
        let warmidx_half = (capacity_blocks / 128).clamp(8, 256);
        let warmidx_blocks = warmidx_half * 2 + 2;
        let data_start = warmidx_start + warmidx_blocks;
        Geometry {
            block_size,
            capacity_blocks,
            max_inodes,
            ibmap_start,
            ibmap_blocks,
            bbmap_start,
            bbmap_blocks,
            itab_start,
            itab_blocks,
            journal_start,
            journal_blocks,
            warmidx_start,
            warmidx_blocks,
            data_start,
        }
    }

    /// Blocks in one warm-index payload half.
    pub fn warmidx_half(&self) -> u64 {
        (self.warmidx_blocks - 2) / 2
    }

    /// Inode records per inode-table block.
    pub fn inodes_per_block(&self) -> u64 {
        (self.block_size / INODE_SIZE) as u64
    }

    /// Block and byte offset of inode `ino`'s record in the inode table.
    pub fn inode_location(&self, ino: u64) -> (u64, usize) {
        let per = self.inodes_per_block();
        (
            self.itab_start + ino / per,
            (ino % per) as usize * INODE_SIZE,
        )
    }

    /// Serializes the superblock into a block-sized buffer.
    pub fn encode_superblock(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.block_size];
        let mut w = Writer::new(&mut buf);
        w.u64(MAGIC);
        w.u64(self.block_size as u64);
        w.u64(self.capacity_blocks);
        w.u64(self.max_inodes);
        w.u64(self.ibmap_start);
        w.u64(self.ibmap_blocks);
        w.u64(self.bbmap_start);
        w.u64(self.bbmap_blocks);
        w.u64(self.itab_start);
        w.u64(self.itab_blocks);
        w.u64(self.journal_start);
        w.u64(self.journal_blocks);
        w.u64(self.warmidx_start);
        w.u64(self.warmidx_blocks);
        w.u64(self.data_start);
        buf
    }

    /// Reads and validates the superblock from `disk`.
    pub fn read_superblock(disk: &CachedDisk) -> FsResult<Geometry> {
        let block = disk.read_block(0)?;
        let mut r = Reader::new(&block);
        if r.u64()? != MAGIC {
            return Err(FsError::Inval);
        }
        let block_size = r.u64()? as usize;
        if block_size != disk.block_size() {
            return Err(FsError::Inval);
        }
        let g = Geometry {
            block_size,
            capacity_blocks: r.u64()?,
            max_inodes: r.u64()?,
            ibmap_start: r.u64()?,
            ibmap_blocks: r.u64()?,
            bbmap_start: r.u64()?,
            bbmap_blocks: r.u64()?,
            itab_start: r.u64()?,
            itab_blocks: r.u64()?,
            journal_start: r.u64()?,
            journal_blocks: r.u64()?,
            warmidx_start: r.u64()?,
            warmidx_blocks: r.u64()?,
            data_start: r.u64()?,
        };
        // Cross-check against a fresh computation to reject corruption.
        let expect = Geometry::compute(block_size, g.capacity_blocks, g.max_inodes);
        if expect != g {
            return Err(FsError::Inval);
        }
        Ok(g)
    }
}

/// Minimal little-endian writer over a byte buffer.
pub struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    /// Wraps `buf`, writing from offset 0.
    pub fn new(buf: &'a mut [u8]) -> Self {
        Writer { buf, pos: 0 }
    }

    /// Seeks to an absolute offset.
    #[allow(dead_code)]
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&v.to_le_bytes());
        self.pos += 8;
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
        self.pos += 4;
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf[self.pos..self.pos + 2].copy_from_slice(&v.to_le_bytes());
        self.pos += 2;
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf[self.pos] = v;
        self.pos += 1;
    }

    /// Writes raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf[self.pos..self.pos + v.len()].copy_from_slice(v);
        self.pos += v.len();
    }
}

/// Minimal little-endian reader over a byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf`, reading from offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Seeks to an absolute offset.
    #[allow(dead_code)]
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    fn take(&mut self, n: usize) -> FsResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(FsError::Io);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> FsResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> FsResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> FsResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> FsResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> FsResult<&'a [u8]> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{DiskConfig, LatencyModel};

    #[test]
    fn geometry_regions_are_disjoint_and_ordered() {
        let g = Geometry::compute(4096, 1 << 20, 1 << 16);
        assert!(g.ibmap_start < g.bbmap_start);
        assert!(g.bbmap_start < g.itab_start);
        assert!(g.itab_start < g.journal_start);
        assert!(g.journal_start < g.warmidx_start);
        assert_eq!(g.journal_start + g.journal_blocks, g.warmidx_start);
        assert_eq!(g.warmidx_start + g.warmidx_blocks, g.data_start);
        assert!(g.data_start < g.capacity_blocks);
        assert_eq!(g.ibmap_blocks, (1u64 << 16).div_ceil(4096 * 8));
    }

    #[test]
    fn warmidx_region_is_clamped_and_even() {
        // Tiny device: floor of 8 blocks per half + 2 headers.
        let tiny = Geometry::compute(4096, 512, 128);
        assert_eq!(tiny.warmidx_blocks, 18);
        assert_eq!(tiny.warmidx_half(), 8);
        // Huge device: cap of 256 blocks per half + 2 headers.
        let huge = Geometry::compute(4096, 1 << 22, 1 << 20);
        assert_eq!(huge.warmidx_blocks, 514);
        assert_eq!(huge.warmidx_half(), 256);
    }

    #[test]
    fn journal_region_is_clamped() {
        // Tiny device: floor of 16 log blocks + 2 headers.
        assert_eq!(Geometry::compute(4096, 512, 128).journal_blocks, 18);
        // Huge device: cap of 1024 log blocks + 2 headers.
        assert_eq!(
            Geometry::compute(4096, 1 << 22, 1 << 20).journal_blocks,
            1026
        );
    }

    #[test]
    fn superblock_round_trips() {
        let disk = CachedDisk::new(DiskConfig {
            block_size: 4096,
            capacity_blocks: 4096,
            latency: LatencyModel::free(),
            cache_pages: 64,
        });
        let g = Geometry::compute(4096, 4096, 1024);
        disk.write_block(0, &g.encode_superblock()).unwrap();
        assert_eq!(Geometry::read_superblock(&disk).unwrap(), g);
    }

    #[test]
    fn bad_magic_rejected() {
        let disk = CachedDisk::new(DiskConfig {
            block_size: 4096,
            capacity_blocks: 64,
            latency: LatencyModel::free(),
            cache_pages: 16,
        });
        assert_eq!(Geometry::read_superblock(&disk), Err(FsError::Inval));
    }

    #[test]
    fn inode_location_math() {
        let g = Geometry::compute(4096, 4096, 1024);
        let per = g.inodes_per_block(); // 32
        assert_eq!(per, 32);
        assert_eq!(g.inode_location(0), (g.itab_start, 0));
        assert_eq!(g.inode_location(31), (g.itab_start, 31 * 128));
        assert_eq!(g.inode_location(32), (g.itab_start + 1, 0));
    }

    #[test]
    fn reader_bounds_checked() {
        let buf = [0u8; 4];
        let mut r = Reader::new(&buf);
        assert!(r.u32().is_ok());
        assert_eq!(r.u8(), Err(FsError::Io));
    }
}
