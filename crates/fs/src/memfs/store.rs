//! The metadata-store abstraction the journal interposes on.
//!
//! Every metadata helper (inode table, bitmaps, directory blocks) is
//! generic over [`MetaStore`] so the same code runs directly against
//! the [`CachedDisk`] (read paths) or through a [`Tx`] that records each
//! written block into a transaction buffer for the journal to commit
//! atomically.

use crate::error::FsResult;
use bytes::{Bytes, BytesMut};
use dc_blockdev::CachedDisk;
use std::cell::RefCell;
use std::collections::HashMap;

/// Block-granular access to file-system metadata.
pub(crate) trait MetaStore {
    /// Reads one block (coherent with any writes buffered in this store).
    fn read_block(&self, block: u64) -> FsResult<Bytes>;
    /// Writes one whole block; the store keeps `data` itself.
    fn write_block(&self, block: u64, data: Bytes) -> FsResult<()>;
    /// Read-modify-write of one block: `edit` sees the current image and
    /// what it leaves there is written. Costs one copy of the block at
    /// most — none when the store already owns a private image of it.
    fn update_block<R>(&self, block: u64, edit: impl FnOnce(&mut [u8]) -> R) -> FsResult<R> {
        let mut image = BytesMut::from(&self.read_block(block)?[..]);
        let out = edit(&mut image);
        self.write_block(block, image.freeze())?;
        Ok(out)
    }
}

impl MetaStore for CachedDisk {
    fn read_block(&self, block: u64) -> FsResult<Bytes> {
        Ok(CachedDisk::read_block(self, block)?)
    }

    fn write_block(&self, block: u64, data: Bytes) -> FsResult<()> {
        Ok(self.write_block_shared(block, data)?)
    }
}

/// The write set of one metadata transaction: final content per block,
/// in first-touch order (kept deterministic so seeded campaigns lay the
/// journal out identically every run).
#[derive(Default)]
pub(crate) struct TxnBuf {
    order: Vec<u64>,
    data: HashMap<u64, Bytes>,
}

impl TxnBuf {
    fn record(&mut self, block: u64, data: Bytes) {
        if self.data.insert(block, data).is_none() {
            self.order.push(block);
        }
    }

    /// Number of distinct blocks written.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Blocks in first-touch order with their final content.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Bytes)> {
        self.order.iter().map(|&b| (b, &self.data[&b]))
    }
}

/// A per-operation metadata store.
///
/// Writes accumulate in a [`TxnBuf`] and reads see the buffered content
/// first, so the operation observes its own uncommitted writes; nothing
/// touches the shared page cache until the journal commits the whole set.
pub(crate) struct Tx<'a> {
    disk: &'a CachedDisk,
    buf: RefCell<TxnBuf>,
}

impl<'a> Tx<'a> {
    pub(crate) fn new(disk: &'a CachedDisk) -> Tx<'a> {
        Tx {
            disk,
            buf: RefCell::new(TxnBuf::default()),
        }
    }

    /// Consumes the transaction, returning its write set.
    pub(crate) fn into_buf(self) -> TxnBuf {
        self.buf.into_inner()
    }
}

impl MetaStore for Tx<'_> {
    fn read_block(&self, block: u64) -> FsResult<Bytes> {
        if let Some(data) = self.buf.borrow().data.get(&block) {
            return Ok(data.clone());
        }
        Ok(self.disk.read_block(block)?)
    }

    fn write_block(&self, block: u64, data: Bytes) -> FsResult<()> {
        self.buf.borrow_mut().record(block, data);
        Ok(())
    }

    fn update_block<R>(&self, block: u64, edit: impl FnOnce(&mut [u8]) -> R) -> FsResult<R> {
        let mut buf = self.buf.borrow_mut();
        // A block this transaction already wrote is edited where it
        // lies, unless a reader still holds the image.
        let mut image = match buf.data.remove(&block) {
            Some(own) => own
                .try_into_mut()
                .unwrap_or_else(|shared| BytesMut::from(&shared[..])),
            None => {
                let image = BytesMut::from(&self.disk.read_block(block)?[..]);
                buf.order.push(block);
                image
            }
        };
        let out = edit(&mut image);
        buf.data.insert(block, image.freeze());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{DiskConfig, LatencyModel};

    fn disk() -> CachedDisk {
        CachedDisk::new(DiskConfig {
            block_size: 512,
            capacity_blocks: 64,
            latency: LatencyModel::free(),
            cache_pages: 16,
        })
    }

    #[test]
    fn buffered_tx_sees_its_own_writes_but_disk_does_not() {
        let d = disk();
        let tx = Tx::new(&d);
        tx.write_block(3, Bytes::from(vec![7u8; 512])).unwrap();
        assert_eq!(MetaStore::read_block(&tx, 3).unwrap()[0], 7);
        // The shared cache is untouched until commit.
        assert_eq!(d.read_block(3).unwrap()[0], 0);
        let buf = tx.into_buf();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn txn_buf_keeps_first_touch_order_and_last_content() {
        let mut buf = TxnBuf::default();
        buf.record(9, Bytes::from(vec![1]));
        buf.record(4, Bytes::from(vec![2]));
        buf.record(9, Bytes::from(vec![3]));
        let got: Vec<(u64, u8)> = buf.iter().map(|(b, d)| (b, d[0])).collect();
        assert_eq!(got, vec![(9, 3), (4, 2)]);
    }

    #[test]
    fn update_edits_a_buffered_block_where_it_lies() {
        let d = disk();
        d.write_block(3, &[1u8; 512]).unwrap();
        let tx = Tx::new(&d);
        // First touch: one private copy of the disk's page.
        tx.update_block(3, |b| b[0] = 7).unwrap();
        let first = MetaStore::read_block(&tx, 3).unwrap();
        assert_eq!((first[0], first[1]), (7, 1));
        assert_eq!(d.read_block(3).unwrap()[0], 1);
        // A reader still holds the image: the edit must not reach it.
        tx.update_block(3, |b| b[1] = 8).unwrap();
        assert_eq!((first[0], first[1]), (7, 1));
        drop(first);
        // No reader: the same buffer is edited in place.
        let at = MetaStore::read_block(&tx, 3).unwrap().as_ptr();
        assert_eq!(
            tx.update_block(3, |b| std::mem::replace(&mut b[2], 9))
                .unwrap(),
            1
        );
        let last = MetaStore::read_block(&tx, 3).unwrap();
        assert_eq!(last.as_ptr(), at);
        assert_eq!(last[..3], [7, 8, 9]);
        tx.update_block(5, |b| b[0] = 1).unwrap();
        tx.update_block(3, |b| b[0] = 0).unwrap();
        let order: Vec<u64> = tx.into_buf().iter().map(|(b, _)| b).collect();
        assert_eq!(order, vec![3, 5]);
    }
}
