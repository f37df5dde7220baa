//! The inode cache: one in-memory inode per (superblock, ino).

use dc_fs::{FileSystem, InodeAttr};
use dcache_core::{Inode, SbId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Deduplicates in-memory inodes so hard links share one object and
/// attribute updates are visible through every path (§2.2's alias list
/// exists for the same reason).
pub struct Icache {
    map: Mutex<HashMap<(SbId, u64), Weak<Inode>>>,
}

impl Icache {
    /// An empty cache.
    pub fn new() -> Icache {
        Icache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the cached inode for `(sb, attr.ino)`, creating it from
    /// `attr` if absent. A cached inode gets its attributes refreshed,
    /// since `attr` was just fetched from the file system.
    pub fn get_or_create(&self, sb: SbId, fs: &Arc<dyn FileSystem>, attr: InodeAttr) -> Arc<Inode> {
        let mut map = self.map.lock();
        if let Some(weak) = map.get(&(sb, attr.ino)) {
            if let Some(inode) = weak.upgrade() {
                inode.store_attr(attr);
                return inode;
            }
        }
        let inode = Inode::new(sb, fs.clone(), attr);
        map.insert((sb, attr.ino), Arc::downgrade(&inode));
        // Opportunistically prune a few dead entries to bound growth.
        if map.len().is_multiple_of(1024) {
            map.retain(|_, w| w.strong_count() > 0);
        }
        inode
    }

    /// Drops the cache entry for a deleted inode.
    pub fn forget(&self, sb: SbId, ino: u64) {
        self.map.lock().remove(&(sb, ino));
    }

    /// Number of (possibly dead) entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when the cache is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Icache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{CachedDisk, DiskConfig};
    use dc_fs::MemFs;

    fn testfs() -> Arc<MemFs> {
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            capacity_blocks: 4096,
            ..Default::default()
        }));
        MemFs::mkfs(
            disk,
            dc_fs::MemFsConfig {
                max_inodes: 1024,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn same_ino_shares_inode() {
        let fs = testfs();
        let fsdyn: Arc<dyn FileSystem> = fs.clone();
        let ic = Icache::new();
        let a = fs.create(fs.root_ino(), "a", 0o644, 0, 0).unwrap();
        let i1 = ic.get_or_create(1, &fsdyn, a);
        let i2 = ic.get_or_create(1, &fsdyn, a);
        assert!(Arc::ptr_eq(&i1, &i2));
        // Different superblock id → different inode object.
        let i3 = ic.get_or_create(2, &fsdyn, a);
        assert!(!Arc::ptr_eq(&i1, &i3));
    }

    #[test]
    fn refresh_updates_attrs() {
        let fs = testfs();
        let fsdyn: Arc<dyn FileSystem> = fs.clone();
        let ic = Icache::new();
        let a = fs.create(fs.root_ino(), "a", 0o644, 0, 0).unwrap();
        let i1 = ic.get_or_create(1, &fsdyn, a);
        let mut newer = a;
        newer.mode = 0o600;
        let i2 = ic.get_or_create(1, &fsdyn, newer);
        assert!(Arc::ptr_eq(&i1, &i2));
        assert_eq!(i1.attr().mode, 0o600);
    }

    #[test]
    fn dead_entries_can_be_recreated() {
        let fs = testfs();
        let fsdyn: Arc<dyn FileSystem> = fs.clone();
        let ic = Icache::new();
        let a = fs.create(fs.root_ino(), "a", 0o644, 0, 0).unwrap();
        {
            let _i = ic.get_or_create(1, &fsdyn, a);
        }
        let again = ic.get_or_create(1, &fsdyn, a);
        assert_eq!(again.ino, a.ino);
    }

    #[test]
    fn forget_removes_entry() {
        let fs = testfs();
        let fsdyn: Arc<dyn FileSystem> = fs.clone();
        let ic = Icache::new();
        let a = fs.create(fs.root_ino(), "a", 0o644, 0, 0).unwrap();
        let _keep = ic.get_or_create(1, &fsdyn, a);
        assert_eq!(ic.len(), 1);
        ic.forget(1, a.ino);
        assert!(ic.is_empty());
    }
}
