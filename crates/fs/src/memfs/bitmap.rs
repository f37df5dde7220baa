//! On-disk allocation bitmaps (inode and block).

use super::store::MetaStore;
use crate::error::{FsError, FsResult};

/// A view over an on-disk bitmap region.
///
/// Bit `i` set means object `i` is allocated. All accesses go through the
/// page cache, so allocation does realistic read-modify-write block I/O.
/// Callers serialize concurrent allocation with their own lock (memfs uses
/// its allocator mutex).
pub struct Bitmap {
    start_block: u64,
    nbits: u64,
    block_size: usize,
}

impl Bitmap {
    /// A bitmap of `nbits` bits beginning at `start_block`.
    pub fn new(start_block: u64, nbits: u64, block_size: usize) -> Self {
        Bitmap {
            start_block,
            nbits,
            block_size,
        }
    }

    fn locate(&self, idx: u64) -> (u64, usize, u8) {
        let bits_per_block = (self.block_size * 8) as u64;
        let block = self.start_block + idx / bits_per_block;
        let bit_in_block = idx % bits_per_block;
        (block, (bit_in_block / 8) as usize, 1 << (bit_in_block % 8))
    }

    /// Tests bit `idx`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn get<S: MetaStore + ?Sized>(&self, disk: &S, idx: u64) -> FsResult<bool> {
        if idx >= self.nbits {
            return Err(FsError::Inval);
        }
        let (block, byte, mask) = self.locate(idx);
        let data = disk.read_block(block)?;
        Ok(data[byte] & mask != 0)
    }

    /// Sets bit `idx` to `val`, returning the previous value.
    pub fn set<S: MetaStore + ?Sized>(&self, disk: &S, idx: u64, val: bool) -> FsResult<bool> {
        if idx >= self.nbits {
            return Err(FsError::Inval);
        }
        let (block, byte, mask) = self.locate(idx);
        // The read's hold on the image ends here, so a block already in
        // a transaction is flipped in place below.
        let prev = disk.read_block(block)?[byte] & mask != 0;
        if prev != val {
            disk.update_block(block, |b| {
                if val {
                    b[byte] |= mask;
                } else {
                    b[byte] &= !mask;
                }
            })?;
        }
        Ok(prev)
    }

    /// Finds and claims the first clear bit at or after `hint`, wrapping
    /// around once. Returns the claimed index or `Err(NoSpc)`.
    pub fn alloc<S: MetaStore + ?Sized>(&self, disk: &S, hint: u64) -> FsResult<u64> {
        let hint = if hint >= self.nbits { 0 } else { hint };
        if let Some(idx) = self.scan_from(disk, hint, self.nbits)? {
            self.set(disk, idx, true)?;
            return Ok(idx);
        }
        if let Some(idx) = self.scan_from(disk, 0, hint)? {
            self.set(disk, idx, true)?;
            return Ok(idx);
        }
        Err(FsError::NoSpc)
    }

    fn scan_from<S: MetaStore + ?Sized>(
        &self,
        disk: &S,
        lo: u64,
        hi: u64,
    ) -> FsResult<Option<u64>> {
        let bits_per_block = (self.block_size * 8) as u64;
        let mut idx = lo;
        while idx < hi {
            let (block, _, _) = self.locate(idx);
            let data = disk.read_block(block)?;
            let block_base = (idx / bits_per_block) * bits_per_block;
            let start_byte = ((idx - block_base) / 8) as usize;
            for (byte_off, &byte) in data.iter().enumerate().skip(start_byte) {
                if byte == 0xff {
                    continue;
                }
                for bit in 0..8u64 {
                    let candidate = block_base + (byte_off as u64) * 8 + bit;
                    if candidate < idx || candidate >= hi {
                        continue;
                    }
                    if byte & (1 << bit) == 0 {
                        return Ok(Some(candidate));
                    }
                }
            }
            idx = block_base + bits_per_block;
        }
        Ok(None)
    }

    /// Counts set bits (used to initialize free-space counters on mount).
    pub fn count_set<S: MetaStore + ?Sized>(&self, disk: &S) -> FsResult<u64> {
        let bits_per_block = (self.block_size * 8) as u64;
        let nblocks = self.nbits.div_ceil(bits_per_block);
        let mut total = 0u64;
        for b in 0..nblocks {
            let data = disk.read_block(self.start_block + b)?;
            let base = b * bits_per_block;
            for (i, &byte) in data.iter().enumerate() {
                if byte == 0 {
                    continue;
                }
                // Mask off bits beyond nbits in the final partial byte.
                let bit_base = base + (i as u64) * 8;
                if bit_base + 8 <= self.nbits {
                    total += byte.count_ones() as u64;
                } else if bit_base < self.nbits {
                    let valid = (self.nbits - bit_base) as u32;
                    total += (byte & ((1u16 << valid) - 1) as u8).count_ones() as u64;
                }
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};

    fn disk() -> CachedDisk {
        CachedDisk::new(DiskConfig {
            block_size: 512,
            capacity_blocks: 256,
            latency: LatencyModel::free(),
            cache_pages: 64,
        })
    }

    #[test]
    fn set_get_round_trip() {
        let d = disk();
        let bm = Bitmap::new(2, 10_000, 512);
        assert!(!bm.get(&d, 5000).unwrap());
        assert!(!bm.set(&d, 5000, true).unwrap());
        assert!(bm.get(&d, 5000).unwrap());
        assert!(bm.set(&d, 5000, false).unwrap());
        assert!(!bm.get(&d, 5000).unwrap());
    }

    #[test]
    fn alloc_respects_hint_and_wraps() {
        let d = disk();
        let bm = Bitmap::new(2, 64, 512);
        assert_eq!(bm.alloc(&d, 10).unwrap(), 10);
        assert_eq!(bm.alloc(&d, 10).unwrap(), 11);
        // Fill everything from 10..64, then wrap to 0.
        for _ in 12..64 {
            bm.alloc(&d, 10).unwrap();
        }
        assert_eq!(bm.alloc(&d, 10).unwrap(), 0);
    }

    #[test]
    fn alloc_exhaustion_is_nospc() {
        let d = disk();
        let bm = Bitmap::new(2, 8, 512);
        for _ in 0..8 {
            bm.alloc(&d, 0).unwrap();
        }
        assert_eq!(bm.alloc(&d, 0), Err(FsError::NoSpc));
    }

    #[test]
    fn out_of_range_rejected() {
        let d = disk();
        let bm = Bitmap::new(2, 8, 512);
        assert_eq!(bm.get(&d, 8), Err(FsError::Inval));
        assert_eq!(bm.set(&d, 100, true), Err(FsError::Inval));
    }

    #[test]
    fn count_set_handles_partial_bytes() {
        let d = disk();
        let bm = Bitmap::new(2, 13, 512);
        for i in [0u64, 7, 8, 12] {
            bm.set(&d, i, true).unwrap();
        }
        assert_eq!(bm.count_set(&d).unwrap(), 4);
    }

    #[test]
    fn bitmap_spans_multiple_blocks() {
        let d = disk();
        // 512-byte blocks → 4096 bits per block; use 10_000 bits.
        let bm = Bitmap::new(2, 10_000, 512);
        bm.set(&d, 4096, true).unwrap(); // first bit of second block
        bm.set(&d, 9999, true).unwrap(); // last valid bit
        assert!(bm.get(&d, 4096).unwrap());
        assert!(bm.get(&d, 9999).unwrap());
        assert_eq!(bm.count_set(&d).unwrap(), 2);
    }
}
