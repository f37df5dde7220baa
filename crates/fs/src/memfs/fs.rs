//! The memfs [`FileSystem`] implementation.

use super::bitmap::Bitmap;
use super::dir;
use super::inode::{
    bmap, clear_inode, max_logical_blocks, read_inode, write_inode, DiskInode, INLINE_TARGET_MAX,
};
use super::journal::{Journal, JournalCounters, JournalStats, ReplayInfo};
use super::layout::{Geometry, NDIRECT};
use super::store::{MetaStore, Tx};
use super::warmidx::{self, WarmEntry, WarmLoad, WarmReject};
use crate::api::{DirEntry, FileSystem, FileType, FsStats, InodeAttr, SetAttr, StatFs};
use crate::error::{FsError, FsResult};
use bytes::{Bytes, BytesMut};
use dc_blockdev::CachedDisk;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of inode-lock shards.
const LOCK_SHARDS: usize = 64;

/// The root directory's inode number.
const ROOT_INO: u64 = 1;

/// memfs creation parameters.
#[derive(Debug, Clone, Copy)]
pub struct MemFsConfig {
    /// Maximum number of inodes.
    pub max_inodes: u64,
    /// Mode bits of the root directory.
    pub root_mode: u16,
    /// Owner of the root directory.
    pub root_uid: u32,
    /// Group of the root directory.
    pub root_gid: u32,
    /// Whether metadata mutations go through the write-ahead journal.
    /// Off reproduces the pre-journal write-back behavior (the ablation
    /// baseline for the overhead experiment).
    pub journal: bool,
}

impl Default for MemFsConfig {
    fn default() -> Self {
        MemFsConfig {
            max_inodes: 1 << 20,
            root_mode: 0o755,
            root_uid: 0,
            root_gid: 0,
            journal: true,
        }
    }
}

/// A directory block: its logical index in the directory and its
/// physical block number. Orders by position in the directory.
type DirBlock = (u64, u64);

/// Where a mutation's one pass over a directory found an entry.
#[derive(Clone, Copy)]
struct DirHit {
    at: DirBlock,
    ino: u64,
    ftype: u8,
}

/// What a mutation's one pass over a directory learned about a name.
struct DirScan {
    /// The live entry of that name; the pass stops there.
    hit: Option<DirHit>,
    /// The first block passed with room for an entry of that name.
    room: Option<DirBlock>,
}

#[derive(Clone, Copy)]
struct AllocState {
    ino_hint: u64,
    blk_hint: u64,
    free_inodes: u64,
    free_blocks: u64,
}

/// An ext2-flavored file system over a simulated block device.
///
/// See the [module docs](super) for the on-disk layout. All metadata and
/// directory content round-trips through the device's page cache, so every
/// directory-cache miss exercised by the benchmarks performs genuine block
/// reads and record deserialization.
///
/// # Crash consistency
///
/// With journaling on (the default), every mutating operation buffers its
/// metadata block writes in a per-operation [`Tx`] and commits them as one
/// transaction: the write set is logged to the reserved journal region,
/// sealed by a checksummed commit record (payload flushed strictly before
/// the record), and only then applied in place through the page cache.
/// Nothing uncommitted ever reaches the shared cache, and the in-place
/// apply runs while the operation's inode shard locks are still held,
/// so neither LRU eviction, a power cut, nor a concurrent reader can
/// observe a half-applied operation. Mount
/// replays committed transactions and discards the torn tail, making each
/// operation atomic across crashes. File *content* is write-back (the
/// ext3 `data=writeback` analogy): crash recovery guarantees the metadata
/// tree, not data block payloads.
pub struct MemFs {
    disk: Arc<CachedDisk>,
    geo: Geometry,
    ibmap: Bitmap,
    bbmap: Bitmap,
    alloc: Mutex<AllocState>,
    locks: Vec<Mutex<()>>,
    clock: AtomicU64,
    stats: FsStats,
    journal: Option<Journal>,
    /// Serializes journaled mutations: buffered transactions are invisible
    /// to each other (e.g. a bitmap bit set only in a buffer), so two
    /// concurrent ops could both claim it. Taken before the shard locks.
    big_op: Mutex<()>,
    replay: ReplayInfo,
    /// Generation of the most recent warm-index checkpoint (continues
    /// above whatever the on-disk headers claim at mount).
    warm_gen: AtomicU64,
}

impl MemFs {
    /// Formats `disk` and returns the mounted file system.
    pub fn mkfs(disk: Arc<CachedDisk>, config: MemFsConfig) -> FsResult<Arc<MemFs>> {
        let geo = Geometry::compute(disk.block_size(), disk.capacity_blocks(), config.max_inodes);
        if geo.data_start >= geo.capacity_blocks {
            return Err(FsError::NoSpc);
        }
        disk.write_block(0, &geo.encode_superblock())?;
        let ibmap = Bitmap::new(geo.ibmap_start, geo.max_inodes, geo.block_size);
        let bbmap = Bitmap::new(geo.bbmap_start, geo.capacity_blocks, geo.block_size);
        // Reserve ino 0 (invalid) and all metadata blocks (journal included).
        ibmap.set(disk.as_ref(), 0, true)?;
        for b in 0..geo.data_start {
            bbmap.set(disk.as_ref(), b, true)?;
        }
        // Root directory.
        ibmap.set(disk.as_ref(), ROOT_INO, true)?;
        let root = DiskInode::new(
            FileType::Directory,
            config.root_mode,
            config.root_uid,
            config.root_gid,
            0,
        );
        write_inode(disk.as_ref(), &geo, ROOT_INO, &root)?;
        // The journal region is always formatted (recovery runs on every
        // mount, journaling enabled or not), and the freshly formatted
        // image is made durable so a cut at any later point recovers to
        // at worst an empty root. The warm-index headers are invalidated
        // too: reformatting must not resurrect a previous file system's
        // directory index.
        Journal::format(&disk, &geo)?;
        warmidx::format(&disk, &geo)?;
        disk.sync()?;
        Self::mount_with(disk, config.journal)
    }

    /// Mounts an already-formatted disk with journaling on.
    pub fn mount(disk: Arc<CachedDisk>) -> FsResult<Arc<MemFs>> {
        Self::mount_with(disk, true)
    }

    /// Mounts an already-formatted disk. Recovery (replay of committed
    /// journal transactions, discard of the torn tail) always runs;
    /// `journal` only controls whether *new* mutations are journaled.
    pub fn mount_with(disk: Arc<CachedDisk>, journal: bool) -> FsResult<Arc<MemFs>> {
        let geo = Geometry::read_superblock(&disk)?;
        let replay = Journal::recover(&disk, &geo)?;
        let ibmap = Bitmap::new(geo.ibmap_start, geo.max_inodes, geo.block_size);
        let bbmap = Bitmap::new(geo.bbmap_start, geo.capacity_blocks, geo.block_size);
        let used_inodes = ibmap.count_set(disk.as_ref())?;
        let used_blocks = bbmap.count_set(disk.as_ref())?;
        let alloc = AllocState {
            ino_hint: ROOT_INO + 1,
            blk_hint: geo.data_start,
            free_inodes: geo.max_inodes - used_inodes,
            free_blocks: geo.capacity_blocks - used_blocks,
        };
        let warm_gen = warmidx::last_gen(&disk, &geo)?;
        Ok(Arc::new(MemFs {
            disk,
            geo,
            ibmap,
            bbmap,
            alloc: Mutex::new(alloc),
            locks: (0..LOCK_SHARDS).map(|_| Mutex::new(())).collect(),
            clock: AtomicU64::new(1),
            stats: FsStats::default(),
            journal: journal.then(|| Journal::open(&geo, &replay)),
            big_op: Mutex::new(()),
            replay,
            warm_gen: AtomicU64::new(warm_gen),
        }))
    }

    /// The backing disk (benchmarks use this to drop caches).
    pub fn disk(&self) -> &Arc<CachedDisk> {
        &self.disk
    }

    /// The computed on-disk geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The journal's counters read at this instant; `None` when
    /// journaling is off.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal_counters().map(|c| c.values())
    }

    /// The journal's counters, as the metric source they are; `None` when
    /// journaling is off.
    pub fn journal_counters(&self) -> Option<&JournalCounters> {
        self.journal.as_ref().map(|j| &j.stats)
    }

    /// Sequence number of the most recently committed transaction;
    /// `None` when journaling is off.
    pub fn journal_seq(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.committed_seq())
    }

    /// Highest committed transaction found (and replayed if needed) by
    /// mount-time recovery.
    pub fn recovered_seq(&self) -> u64 {
        self.replay.last_seq
    }

    /// Transactions mount-time recovery actually replayed.
    pub fn replayed_txns(&self) -> u64 {
        self.replay.replayed
    }

    /// Checkpoints the warm-restart directory index: journal-checkpoints
    /// first (so everything the index may reference is durable in
    /// place), then persists `entries` bound to the durable tail
    /// sequence, under the big-op lock so no transaction can slip in
    /// between — the index can never reference a transaction newer than
    /// the durable tail. Entries must be ordered parents-before-children
    /// (any capacity-truncated prefix stays parent-closed). Returns how
    /// many entries were persisted.
    pub fn warm_checkpoint(&self, entries: &[WarmEntry]) -> FsResult<usize> {
        let _big = self.big_op.lock();
        let bound_seq = match &self.journal {
            Some(j) => {
                j.checkpoint(&self.disk)?;
                j.committed_seq()
            }
            None => {
                self.disk.sync()?;
                0
            }
        };
        let gen = self.warm_gen.fetch_add(1, Ordering::Relaxed) + 1;
        let kept = warmidx::checkpoint(&self.disk, &self.geo, entries, bound_seq, gen)?;
        if let Some(obs) = self.disk.recorder() {
            obs.event(|| dc_obs::TraceEvent::WarmCheckpoint {
                entries: kept as u32,
            });
        }
        Ok(kept)
    }

    /// Reads the warm-restart index, typed. On top of the on-disk
    /// validation (headers, generations, checksums) this rejects an
    /// index bound to a journal transaction newer than anything this
    /// file system has committed — such an index describes a future the
    /// disk never reached and nothing in it can be trusted. Right after
    /// mount the committed horizon is exactly what recovery
    /// reconstructed, so a torn or misordered checkpoint from the
    /// previous incarnation is caught here.
    pub fn read_warm_index(&self) -> FsResult<WarmLoad> {
        let load = warmidx::read(&self.disk, &self.geo)?;
        if let WarmLoad::Loaded { bound_seq, .. } = &load {
            let committed = self
                .journal
                .as_ref()
                .map(|j| j.committed_seq())
                .unwrap_or(self.replay.last_seq);
            if *bound_seq > committed {
                return Ok(WarmLoad::Rejected(WarmReject::FutureSeq {
                    bound_seq: *bound_seq,
                    recovered_seq: committed,
                }));
            }
        }
        Ok(load)
    }

    /// Runs one mutating operation under the shard locks covering
    /// `inos`. With journaling on, the operation's metadata writes
    /// accumulate in a buffered [`Tx`] and commit as one journal
    /// transaction *while the shard locks are still held* — the
    /// commit's in-place apply is what makes the operation visible in
    /// the shared page cache, so dropping the locks first would let a
    /// concurrent lookup/readdir observe a half-applied operation. An
    /// operation (or commit) error discards the buffer and rolls the
    /// allocator counters back, so failed operations leave no trace.
    /// With journaling off the `Tx` is a passthrough shim.
    fn with_tx<T>(&self, inos: &[u64], f: impl FnOnce(&Tx<'_>) -> FsResult<T>) -> FsResult<T> {
        match &self.journal {
            None => {
                let _g = self.lock_many(inos);
                f(&Tx::passthrough(&self.disk))
            }
            Some(j) => {
                let _big = self.big_op.lock();
                let _g = self.lock_many(inos);
                // Allocator counters mutate eagerly inside the op, but
                // the matching bitmap bits live only in the tx buffer
                // until commit: if either fails, restore the snapshot
                // so counters and on-disk bitmaps stay in agreement.
                let snap = *self.alloc.lock();
                let tx = Tx::buffered(&self.disk);
                let res = f(&tx).and_then(|out| match tx.into_buf() {
                    Some(buf) if !buf.is_empty() => j.commit(&self.disk, &buf).map(|_| out),
                    _ => Ok(out),
                });
                if res.is_err() {
                    *self.alloc.lock() = snap;
                }
                res
            }
        }
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Locks the shards covering `inos`, in shard order (deadlock-free).
    fn lock_many(&self, inos: &[u64]) -> Vec<MutexGuard<'_, ()>> {
        let mut shards: Vec<usize> = inos.iter().map(|i| (*i as usize) % LOCK_SHARDS).collect();
        shards.sort_unstable();
        shards.dedup();
        shards.into_iter().map(|s| self.locks[s].lock()).collect()
    }

    fn alloc_ino<S: MetaStore + ?Sized>(&self, store: &S) -> FsResult<u64> {
        let mut a = self.alloc.lock();
        if a.free_inodes == 0 {
            return Err(FsError::NoSpc);
        }
        let ino = self.ibmap.alloc(store, a.ino_hint)?;
        a.ino_hint = ino + 1;
        a.free_inodes -= 1;
        Ok(ino)
    }

    fn free_ino<S: MetaStore + ?Sized>(&self, store: &S, ino: u64) -> FsResult<()> {
        let mut a = self.alloc.lock();
        self.ibmap.set(store, ino, false)?;
        a.free_inodes += 1;
        Ok(())
    }

    fn alloc_block<S: MetaStore + ?Sized>(&self, store: &S) -> FsResult<u64> {
        let mut a = self.alloc.lock();
        if a.free_blocks == 0 {
            return Err(FsError::NoSpc);
        }
        let blk = self.bbmap.alloc(store, a.blk_hint)?;
        a.blk_hint = blk + 1;
        a.free_blocks -= 1;
        Ok(blk)
    }

    fn free_block<S: MetaStore + ?Sized>(&self, store: &S, blk: u64) -> FsResult<()> {
        let mut a = self.alloc.lock();
        self.bbmap.set(store, blk, false)?;
        a.free_blocks += 1;
        Ok(())
    }

    fn read_di<S: MetaStore + ?Sized>(&self, store: &S, ino: u64) -> FsResult<DiskInode> {
        read_inode(store, &self.geo, ino)
    }

    fn write_di<S: MetaStore + ?Sized>(&self, store: &S, ino: u64, di: &DiskInode) -> FsResult<()> {
        write_inode(store, &self.geo, ino, di)
    }

    fn read_dir_di<S: MetaStore + ?Sized>(&self, store: &S, ino: u64) -> FsResult<DiskInode> {
        let di = self.read_di(store, ino)?;
        if di.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        Ok(di)
    }

    /// Maps logical block `lblk`, allocating (and wiring up the indirect
    /// block) if needed.
    fn bmap_alloc<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        ino: u64,
        di: &mut DiskInode,
        lblk: u64,
    ) -> FsResult<u64> {
        if let Some(p) = bmap(store, &self.geo, di, lblk)? {
            return Ok(p);
        }
        let phys = self.alloc_block(store)?;
        if lblk < NDIRECT as u64 {
            di.direct[lblk as usize] = phys;
        } else {
            let idx = (lblk - NDIRECT as u64) as usize;
            if idx >= self.geo.block_size / 8 {
                self.free_block(store, phys)?;
                return Err(FsError::NoSpc);
            }
            if di.indirect == 0 {
                di.indirect = self.alloc_block(store)?;
                store.write_block(di.indirect, BytesMut::zeroed(self.geo.block_size).freeze())?;
            }
            store.update_block(di.indirect, |b| {
                b[idx * 8..idx * 8 + 8].copy_from_slice(&phys.to_le_bytes())
            })?;
        }
        self.write_di(store, ino, di)?;
        Ok(phys)
    }

    /// Frees every data block of an inode (truncate to zero / deletion).
    fn free_all_blocks<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        di: &mut DiskInode,
    ) -> FsResult<()> {
        for d in di.direct.iter_mut() {
            if *d != 0 {
                self.free_block(store, *d)?;
                *d = 0;
            }
        }
        if di.indirect != 0 {
            let blk = store.read_block(di.indirect)?;
            for chunk in blk.chunks_exact(8) {
                let mut ptr = [0u8; 8];
                ptr.copy_from_slice(chunk);
                let p = u64::from_le_bytes(ptr);
                if p != 0 {
                    self.free_block(store, p)?;
                }
            }
            self.free_block(store, di.indirect)?;
            di.indirect = 0;
        }
        Ok(())
    }

    /// Scans a directory for `name`; returns `(ino, ftype)`.
    fn dir_find<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        di: &DiskInode,
        name: &str,
    ) -> FsResult<Option<(u64, u8)>> {
        let nblocks = di.size / self.geo.block_size as u64;
        for lblk in 0..nblocks {
            let Some(phys) = bmap(store, &self.geo, di, lblk)? else {
                continue;
            };
            let data = store.read_block(phys)?;
            if let Some((_, ino, ftype)) = dir::find(&data, name.as_bytes())? {
                return Ok(Some((ino, ftype)));
            }
        }
        Ok(None)
    }

    /// The one pass a mutation makes over a directory: the entry named
    /// `name` with the block it lies in, and the first block with room
    /// for such an entry (ext2's `add_link` shape). Lookups keep
    /// [`MemFs::dir_find`].
    fn dir_scan<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        di: &DiskInode,
        name: &str,
    ) -> FsResult<DirScan> {
        let nblocks = di.size / self.geo.block_size as u64;
        let mut room = None;
        for lblk in 0..nblocks {
            let Some(phys) = bmap(store, &self.geo, di, lblk)? else {
                continue;
            };
            let (hit, fits) = dir::scan(&store.read_block(phys)?, name.as_bytes())?;
            if fits && room.is_none() {
                room = Some((lblk, phys));
            }
            if let Some((ino, ftype)) = hit {
                let at = (lblk, phys);
                let hit = Some(DirHit { at, ino, ftype });
                return Ok(DirScan { hit, room });
            }
        }
        Ok(DirScan { hit: None, room })
    }

    /// Inserts an entry into the first of `room` (blocks a scan found
    /// room in, in directory order) that takes it, extending the
    /// directory by a block when none does. Only the block that takes
    /// the entry is copied.
    #[allow(clippy::too_many_arguments)]
    fn dir_insert<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        dirino: u64,
        di: &mut DiskInode,
        name: &str,
        ino: u64,
        ftype: FileType,
        room: impl IntoIterator<Item = DirBlock>,
    ) -> FsResult<()> {
        for (_, phys) in room {
            let insert = |b: &mut [u8]| dir::insert(b, name.as_bytes(), ino, ftype.as_u8());
            if store.update_block(phys, insert)?? {
                return Ok(());
            }
        }
        // All blocks full: extend.
        let nblocks = di.size / self.geo.block_size as u64;
        if nblocks >= max_logical_blocks(&self.geo) {
            return Err(FsError::NoSpc);
        }
        let phys = self.bmap_alloc(store, dirino, di, nblocks)?;
        let mut fresh = BytesMut::zeroed(self.geo.block_size);
        dir::init_block(&mut fresh);
        if !dir::insert(&mut fresh, name.as_bytes(), ino, ftype.as_u8())? {
            return Err(FsError::NameTooLong);
        }
        store.write_block(phys, fresh.freeze())?;
        di.size += self.geo.block_size as u64;
        Ok(())
    }

    /// Removes the entry a scan found in block `at`.
    fn dir_remove<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        (_, phys): DirBlock,
        name: &str,
    ) -> FsResult<()> {
        // The scan just saw the entry in this block; failing to remove
        // it means the block is corrupt, not a bug to die on.
        match store.update_block(phys, |b| dir::remove(b, name.as_bytes()))?? {
            Some(_) => Ok(()),
            None => Err(FsError::Io),
        }
    }

    fn dir_is_empty<S: MetaStore + ?Sized>(&self, store: &S, di: &DiskInode) -> FsResult<bool> {
        let nblocks = di.size / self.geo.block_size as u64;
        for lblk in 0..nblocks {
            let Some(phys) = bmap(store, &self.geo, di, lblk)? else {
                continue;
            };
            let data = store.read_block(phys)?;
            if !dir::is_empty(&data)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn validate_name(name: &str) -> FsResult<()> {
        if name.is_empty() || name == "." || name == ".." {
            return Err(FsError::Inval);
        }
        if name.len() > dir::NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        if name.contains('/') || name.contains('\0') {
            return Err(FsError::Inval);
        }
        Ok(())
    }

    /// Shared creation path for regular files, directories, and
    /// symlinks. Caller (via [`MemFs::with_tx`]) holds `dirino`'s
    /// shard lock.
    fn create_entry<S: MetaStore + ?Sized>(
        &self,
        store: &S,
        dirino: u64,
        name: &str,
        mut child: DiskInode,
        inline_target: Option<&str>,
    ) -> FsResult<InodeAttr> {
        Self::validate_name(name)?;
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        let mut dir_di = self.read_dir_di(store, dirino)?;
        let DirScan { hit: None, room } = self.dir_scan(store, &dir_di, name)? else {
            return Err(FsError::Exist);
        };
        let ino = self.alloc_ino(store)?;
        if let Some(t) = inline_target {
            child.size = t.len() as u64;
            if t.len() <= INLINE_TARGET_MAX {
                child.inline_target = Some(t.to_string());
            } else {
                // Long target: spill to a data block.
                let phys = self.alloc_block(store)?;
                let mut blockbuf = BytesMut::zeroed(self.geo.block_size);
                blockbuf[..t.len()].copy_from_slice(t.as_bytes());
                store.write_block(phys, blockbuf.freeze())?;
                child.direct[0] = phys;
            }
        }
        self.write_di(store, ino, &child)?;
        if let Err(e) = self.dir_insert(store, dirino, &mut dir_di, name, ino, child.ftype, room) {
            // Roll back the inode on directory-insert failure.
            let _ = clear_inode(store, &self.geo, ino);
            let _ = self.free_ino(store, ino);
            return Err(e);
        }
        if child.ftype == FileType::Directory {
            dir_di.nlink += 1;
        }
        dir_di.mtime = self.now();
        self.write_di(store, dirino, &dir_di)?;
        Ok(child.attr(ino))
    }

    /// Drops one link on `ino`; frees the inode at zero links.
    fn drop_link<S: MetaStore + ?Sized>(&self, store: &S, ino: u64, is_dir: bool) -> FsResult<()> {
        let mut di = self.read_di(store, ino)?;
        let dead = if is_dir {
            true // rmdir always destroys
        } else {
            di.nlink -= 1;
            di.nlink == 0
        };
        if dead {
            self.free_all_blocks(store, &mut di)?;
            clear_inode(store, &self.geo, ino)?;
            self.free_ino(store, ino)?;
        } else {
            di.ctime = self.now();
            self.write_di(store, ino, &di)?;
        }
        Ok(())
    }
}

impl FileSystem for MemFs {
    fn fs_type(&self) -> &'static str {
        "memfs"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn root_ino(&self) -> u64 {
        ROOT_INO
    }

    fn getattr(&self, ino: u64) -> FsResult<InodeAttr> {
        self.stats.getattrs.fetch_add(1, Ordering::Relaxed);
        Ok(self.read_di(&*self.disk, ino)?.attr(ino))
    }

    fn lookup(&self, dirino: u64, name: &str) -> FsResult<InodeAttr> {
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let _g = self.lock_many(&[dirino]);
        let disk = &*self.disk;
        let dir_di = self.read_dir_di(disk, dirino)?;
        match self.dir_find(disk, &dir_di, name)? {
            Some((ino, _)) => Ok(self.read_di(disk, ino)?.attr(ino)),
            None => Err(FsError::NoEnt),
        }
    }

    fn readdir(
        &self,
        dirino: u64,
        offset: u64,
        max: usize,
        out: &mut Vec<DirEntry>,
    ) -> FsResult<Option<u64>> {
        self.stats.readdirs.fetch_add(1, Ordering::Relaxed);
        let _g = self.lock_many(&[dirino]);
        let disk = &*self.disk;
        let di = self.read_dir_di(disk, dirino)?;
        let bs = self.geo.block_size as u64;
        let nblocks = di.size / bs;
        let mut lblk = offset / bs;
        let mut intra = (offset % bs) as usize;
        let mut emitted = 0usize;
        while lblk < nblocks {
            let Some(phys) = bmap(disk, &self.geo, &di, lblk)? else {
                lblk += 1;
                intra = 0;
                continue;
            };
            let data = disk.read_block(phys)?;
            for rec in dir::RecordIter::from_offset(&data, intra) {
                let rec = rec?;
                if rec.ino != 0 {
                    if emitted == max {
                        return Ok(Some(lblk * bs + rec.offset as u64));
                    }
                    out.push(DirEntry {
                        name: String::from_utf8_lossy(rec.name).into_owned(),
                        ino: rec.ino,
                        ftype: FileType::from_u8(rec.ftype).unwrap_or(FileType::Regular),
                    });
                    emitted += 1;
                }
            }
            lblk += 1;
            intra = 0;
        }
        Ok(None)
    }

    fn create(&self, dir: u64, name: &str, mode: u16, uid: u32, gid: u32) -> FsResult<InodeAttr> {
        let child = DiskInode::new(FileType::Regular, mode, uid, gid, self.now());
        self.with_tx(&[dir], |tx| self.create_entry(tx, dir, name, child, None))
    }

    fn mkdir(&self, dir: u64, name: &str, mode: u16, uid: u32, gid: u32) -> FsResult<InodeAttr> {
        let child = DiskInode::new(FileType::Directory, mode, uid, gid, self.now());
        self.with_tx(&[dir], |tx| self.create_entry(tx, dir, name, child, None))
    }

    fn symlink(
        &self,
        dir: u64,
        name: &str,
        target: &str,
        uid: u32,
        gid: u32,
    ) -> FsResult<InodeAttr> {
        if target.is_empty() || target.len() >= self.geo.block_size {
            return Err(FsError::Inval);
        }
        let child = DiskInode::new(FileType::Symlink, 0o777, uid, gid, self.now());
        self.with_tx(&[dir], |tx| {
            self.create_entry(tx, dir, name, child, Some(target))
        })
    }

    fn readlink(&self, ino: u64) -> FsResult<String> {
        let disk = &*self.disk;
        let di = self.read_di(disk, ino)?;
        if di.ftype != FileType::Symlink {
            return Err(FsError::Inval);
        }
        if let Some(t) = &di.inline_target {
            return Ok(t.clone());
        }
        let phys = bmap(disk, &self.geo, &di, 0)?.ok_or(FsError::Io)?;
        let data = disk.read_block(phys)?;
        String::from_utf8(data[..di.size as usize].to_vec()).map_err(|_| FsError::Io)
    }

    fn link(&self, dir: u64, name: &str, ino: u64) -> FsResult<InodeAttr> {
        Self::validate_name(name)?;
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        self.with_tx(&[dir, ino], |tx| {
            let mut target = self.read_di(tx, ino)?;
            if target.ftype == FileType::Directory {
                return Err(FsError::Perm);
            }
            let mut dir_di = self.read_dir_di(tx, dir)?;
            let DirScan { hit: None, room } = self.dir_scan(tx, &dir_di, name)? else {
                return Err(FsError::Exist);
            };
            self.dir_insert(tx, dir, &mut dir_di, name, ino, target.ftype, room)?;
            dir_di.mtime = self.now();
            self.write_di(tx, dir, &dir_di)?;
            target.nlink += 1;
            target.ctime = self.now();
            self.write_di(tx, ino, &target)?;
            Ok(target.attr(ino))
        })
    }

    fn unlink(&self, dir: u64, name: &str) -> FsResult<()> {
        Self::validate_name(name)?;
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        self.with_tx(&[dir], |tx| {
            let mut dir_di = self.read_dir_di(tx, dir)?;
            match self.dir_scan(tx, &dir_di, name)?.hit {
                None => Err(FsError::NoEnt),
                Some(hit) if FileType::from_u8(hit.ftype) == Some(FileType::Directory) => {
                    Err(FsError::IsDir)
                }
                Some(hit) => {
                    self.dir_remove(tx, hit.at, name)?;
                    dir_di.mtime = self.now();
                    self.write_di(tx, dir, &dir_di)?;
                    self.drop_link(tx, hit.ino, false)
                }
            }
        })
    }

    fn rmdir(&self, dir: u64, name: &str) -> FsResult<()> {
        Self::validate_name(name)?;
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        self.with_tx(&[dir], |tx| {
            let mut dir_di = self.read_dir_di(tx, dir)?;
            match self.dir_scan(tx, &dir_di, name)?.hit {
                None => Err(FsError::NoEnt),
                Some(hit) => {
                    if FileType::from_u8(hit.ftype) != Some(FileType::Directory) {
                        return Err(FsError::NotDir);
                    }
                    let child = self.read_di(tx, hit.ino)?;
                    if !self.dir_is_empty(tx, &child)? {
                        return Err(FsError::NotEmpty);
                    }
                    self.dir_remove(tx, hit.at, name)?;
                    dir_di.nlink -= 1;
                    dir_di.mtime = self.now();
                    self.write_di(tx, dir, &dir_di)?;
                    self.drop_link(tx, hit.ino, true)
                }
            }
        })
    }

    fn rename(&self, old_dir: u64, old_name: &str, new_dir: u64, new_name: &str) -> FsResult<()> {
        Self::validate_name(old_name)?;
        Self::validate_name(new_name)?;
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        self.with_tx(&[old_dir, new_dir], |tx| {
            let mut odi = self.read_dir_di(tx, old_dir)?;
            let src = self.dir_scan(tx, &odi, old_name)?;
            let src = src.hit.ok_or(FsError::NoEnt)?;
            let src_ft = FileType::from_u8(src.ftype).ok_or(FsError::Io)?;
            let same_dir = old_dir == new_dir;
            if same_dir && old_name == new_name {
                return Ok(());
            }
            let mut ndi = if same_dir {
                odi.clone()
            } else {
                self.read_dir_di(tx, new_dir)?
            };
            // One pass finds an existing target and where the new entry
            // fits. The removals below only make room, each in a known
            // block, so trying those blocks and the scan's in directory
            // order lands the entry where a fresh first-fit scan would.
            let DirScan { hit: dst, room } = self.dir_scan(tx, &ndi, new_name)?;
            let mut room: Vec<DirBlock> = room.into_iter().collect();
            // Handle an existing target per POSIX.
            if let Some(dst) = dst {
                if dst.ino == src.ino {
                    return Ok(()); // hard links to the same inode
                }
                let dst_ft = FileType::from_u8(dst.ftype).ok_or(FsError::Io)?;
                match (src_ft.is_dir(), dst_ft.is_dir()) {
                    (true, false) => return Err(FsError::NotDir),
                    (false, true) => return Err(FsError::IsDir),
                    (true, true) => {
                        let dst_di = self.read_di(tx, dst.ino)?;
                        if !self.dir_is_empty(tx, &dst_di)? {
                            return Err(FsError::NotEmpty);
                        }
                        self.dir_remove(tx, dst.at, new_name)?;
                        ndi.nlink -= 1;
                        // Persist the nlink drop now: the same-directory path
                        // below re-reads the inode from the store.
                        self.write_di(tx, new_dir, &ndi)?;
                        self.drop_link(tx, dst.ino, true)?;
                    }
                    (false, false) => {
                        self.dir_remove(tx, dst.at, new_name)?;
                        self.drop_link(tx, dst.ino, false)?;
                    }
                }
                room.push(dst.at);
                // Refresh the source view: removals may have rewritten blocks.
                if same_dir {
                    odi = self.read_dir_di(tx, old_dir)?;
                    ndi = odi.clone();
                }
            }
            self.dir_remove(tx, src.at, old_name)?;
            if same_dir {
                room.push(src.at);
            }
            room.sort_unstable();
            room.dedup();
            if same_dir {
                // Same-directory rename: re-read to see the removal, insert.
                let mut di = self.read_dir_di(tx, old_dir)?;
                self.dir_insert(tx, old_dir, &mut di, new_name, src.ino, src_ft, room)?;
                di.mtime = self.now();
                self.write_di(tx, old_dir, &di)?;
            } else {
                if src_ft.is_dir() {
                    odi.nlink -= 1;
                    ndi.nlink += 1;
                }
                odi.mtime = self.now();
                self.write_di(tx, old_dir, &odi)?;
                self.dir_insert(tx, new_dir, &mut ndi, new_name, src.ino, src_ft, room)?;
                ndi.mtime = self.now();
                self.write_di(tx, new_dir, &ndi)?;
            }
            Ok(())
        })
    }

    fn setattr(&self, ino: u64, changes: SetAttr) -> FsResult<InodeAttr> {
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        self.with_tx(&[ino], |tx| {
            let mut di = self.read_di(tx, ino)?;
            if let Some(m) = changes.mode {
                di.mode = m & 0o7777;
            }
            if let Some(u) = changes.uid {
                di.uid = u;
            }
            if let Some(g) = changes.gid {
                di.gid = g;
            }
            if let Some(sz) = changes.size {
                if di.ftype == FileType::Directory {
                    return Err(FsError::IsDir);
                }
                if sz == 0 {
                    self.free_all_blocks(tx, &mut di)?;
                }
                // Shrinking to a mid-block size keeps blocks (lazy), growing
                // leaves holes; both match sparse-file semantics closely
                // enough for the workloads.
                di.size = sz;
            }
            if let Some(mt) = changes.mtime {
                di.mtime = mt;
            }
            di.ctime = self.now();
            self.write_di(tx, ino, &di)?;
            Ok(di.attr(ino))
        })
    }

    fn read(&self, ino: u64, offset: u64, len: usize) -> FsResult<Bytes> {
        let disk = &*self.disk;
        let di = self.read_di(disk, ino)?;
        file_body(di.ftype)?;
        if offset >= di.size {
            return Ok(Bytes::new());
        }
        let len = len.min((di.size - offset) as usize);
        let bs = self.geo.block_size as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let lblk = pos / bs;
            let intra = (pos % bs) as usize;
            let take = ((bs as usize) - intra).min(len - out.len());
            match bmap(disk, &self.geo, &di, lblk)? {
                Some(phys) => {
                    let data = disk.read_block(phys)?;
                    out.extend_from_slice(&data[intra..intra + take]);
                }
                None => out.extend(std::iter::repeat_n(0u8, take)),
            }
            pos += take as u64;
        }
        Ok(Bytes::from(out))
    }

    fn write(&self, ino: u64, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.stats.mutations.fetch_add(1, Ordering::Relaxed);
        self.with_tx(&[ino], |tx| {
            let mut di = self.read_di(tx, ino)?;
            file_body(di.ftype)?;
            let bs = self.geo.block_size as u64;
            let mut pos = offset;
            let mut remaining = data;
            while !remaining.is_empty() {
                let lblk = pos / bs;
                let intra = (pos % bs) as usize;
                let take = ((bs as usize) - intra).min(remaining.len());
                let phys = self.bmap_alloc(tx, ino, &mut di, lblk)?;
                // File *content* is write-back (not journaled): data blocks
                // go straight to the page cache, matching ext3
                // data=writeback. Only the metadata (bitmap, indirect,
                // inode) rides the transaction.
                if take == bs as usize {
                    self.disk.write_block(phys, &remaining[..take])?;
                } else {
                    let old = self.disk.read_block(phys)?;
                    let mut copy = old.to_vec();
                    copy[intra..intra + take].copy_from_slice(&remaining[..take]);
                    self.disk.write_block(phys, &copy)?;
                }
                pos += take as u64;
                remaining = &remaining[take..];
            }
            di.size = di.size.max(offset + data.len() as u64);
            di.mtime = self.now();
            self.write_di(tx, ino, &di)?;
            Ok(data.len())
        })
    }

    fn statfs(&self) -> FsResult<StatFs> {
        let a = self.alloc.lock();
        Ok(StatFs {
            blocks: self.geo.capacity_blocks,
            bfree: a.free_blocks,
            files: self.geo.max_inodes,
            ffree: a.free_inodes,
            bsize: self.geo.block_size as u64,
        })
    }

    fn sync(&self) -> FsResult<()> {
        match &self.journal {
            // A checkpoint *is* a full sync, plus the tail advance that
            // reclaims log space.
            Some(j) => j.checkpoint(&self.disk),
            None => {
                self.disk.sync()?;
                Ok(())
            }
        }
    }

    fn stats(&self) -> &FsStats {
        &self.stats
    }
}

/// `read`/`write` address a block map. A directory's holds records and a
/// symlink has none — its target may sit inline in the pointer slots.
fn file_body(ftype: FileType) -> FsResult<()> {
    match ftype {
        FileType::Directory => Err(FsError::IsDir),
        FileType::Symlink => Err(FsError::Inval),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{DiskConfig, LatencyModel};

    fn newdisk() -> Arc<CachedDisk> {
        Arc::new(CachedDisk::new(DiskConfig {
            block_size: 4096,
            capacity_blocks: 8192,
            latency: LatencyModel::free(),
            cache_pages: 4096,
        }))
    }

    fn newfs() -> Arc<MemFs> {
        MemFs::mkfs(
            newdisk(),
            MemFsConfig {
                max_inodes: 4096,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn newfs_nojournal() -> Arc<MemFs> {
        MemFs::mkfs(
            newdisk(),
            MemFsConfig {
                max_inodes: 4096,
                journal: false,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn root_exists_as_directory() {
        let fs = newfs();
        let a = fs.getattr(fs.root_ino()).unwrap();
        assert_eq!(a.ftype, FileType::Directory);
        assert_eq!(a.mode, 0o755);
        assert_eq!(a.nlink, 2);
    }

    #[test]
    fn create_lookup_unlink_cycle() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "a.txt", 0o644, 5, 6).unwrap();
        assert_eq!(f.uid, 5);
        let found = fs.lookup(r, "a.txt").unwrap();
        assert_eq!(found.ino, f.ino);
        fs.unlink(r, "a.txt").unwrap();
        assert_eq!(fs.lookup(r, "a.txt"), Err(FsError::NoEnt));
        assert_eq!(fs.getattr(f.ino), Err(FsError::NoEnt));
    }

    #[test]
    fn duplicate_create_is_eexist() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.create(r, "x", 0o644, 0, 0).unwrap();
        assert_eq!(fs.create(r, "x", 0o644, 0, 0), Err(FsError::Exist));
        assert_eq!(fs.mkdir(r, "x", 0o755, 0, 0), Err(FsError::Exist));
    }

    #[test]
    fn mkdir_updates_parent_nlink() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.mkdir(r, "d1", 0o755, 0, 0).unwrap();
        fs.mkdir(r, "d2", 0o755, 0, 0).unwrap();
        assert_eq!(fs.getattr(r).unwrap().nlink, 4);
        fs.rmdir(r, "d1").unwrap();
        assert_eq!(fs.getattr(r).unwrap().nlink, 3);
    }

    #[test]
    fn rmdir_nonempty_rejected() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        fs.create(d.ino, "inner", 0o644, 0, 0).unwrap();
        assert_eq!(fs.rmdir(r, "d"), Err(FsError::NotEmpty));
        fs.unlink(d.ino, "inner").unwrap();
        fs.rmdir(r, "d").unwrap();
    }

    #[test]
    fn unlink_of_directory_is_eisdir() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        assert_eq!(fs.unlink(r, "d"), Err(FsError::IsDir));
        let f = fs.create(r, "f", 0o644, 0, 0).unwrap();
        let _ = f;
        assert_eq!(fs.rmdir(r, "f"), Err(FsError::NotDir));
    }

    #[test]
    fn hard_links_share_inode() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "orig", 0o644, 0, 0).unwrap();
        let l = fs.link(r, "alias", f.ino).unwrap();
        assert_eq!(l.ino, f.ino);
        assert_eq!(l.nlink, 2);
        fs.unlink(r, "orig").unwrap();
        // Still alive through the second link.
        assert_eq!(fs.getattr(f.ino).unwrap().nlink, 1);
        fs.unlink(r, "alias").unwrap();
        assert_eq!(fs.getattr(f.ino), Err(FsError::NoEnt));
    }

    #[test]
    fn link_to_directory_rejected() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        assert_eq!(fs.link(r, "dlink", d.ino), Err(FsError::Perm));
    }

    #[test]
    fn symlink_round_trip_inline_and_long() {
        let fs = newfs();
        let r = fs.root_ino();
        let s = fs.symlink(r, "short", "/etc/passwd", 0, 0).unwrap();
        assert_eq!(fs.readlink(s.ino).unwrap(), "/etc/passwd");
        let long = "x/".repeat(120);
        let s2 = fs.symlink(r, "long", &long, 0, 0).unwrap();
        assert_eq!(fs.readlink(s2.ino).unwrap(), long);
        // readlink of a non-symlink fails.
        let f = fs.create(r, "f", 0o644, 0, 0).unwrap();
        assert_eq!(fs.readlink(f.ino), Err(FsError::Inval));
    }

    /// A symlink's body is its target, inline in the block-pointer slots
    /// when short: file I/O on it must not walk that as a block map.
    #[test]
    fn file_io_on_a_symlink_inode_is_einval_and_corrupts_nothing() {
        let fs = newfs();
        let r = fs.root_ino();
        for target in ["../target", &"x/".repeat(120)] {
            let s = fs.symlink(r, &format!("l{}", target.len()), target, 0, 0);
            let ino = s.unwrap().ino;
            assert_eq!(fs.write(ino, 0, b"payload"), Err(FsError::Inval));
            assert_eq!(fs.read(ino, 0, 16), Err(FsError::Inval));
            assert_eq!(fs.readlink(ino).unwrap(), target);
        }
        fs.sync().unwrap();
        let report = super::super::fsck(fs.disk()).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn rename_within_and_across_directories() {
        let fs = newfs();
        let r = fs.root_ino();
        let d1 = fs.mkdir(r, "d1", 0o755, 0, 0).unwrap();
        let d2 = fs.mkdir(r, "d2", 0o755, 0, 0).unwrap();
        let f = fs.create(d1.ino, "f", 0o644, 0, 0).unwrap();
        fs.rename(d1.ino, "f", d1.ino, "g").unwrap();
        assert_eq!(fs.lookup(d1.ino, "g").unwrap().ino, f.ino);
        fs.rename(d1.ino, "g", d2.ino, "h").unwrap();
        assert_eq!(fs.lookup(d1.ino, "g"), Err(FsError::NoEnt));
        assert_eq!(fs.lookup(d2.ino, "h").unwrap().ino, f.ino);
    }

    #[test]
    fn rename_directory_updates_nlinks() {
        let fs = newfs();
        let r = fs.root_ino();
        let d1 = fs.mkdir(r, "d1", 0o755, 0, 0).unwrap();
        let d2 = fs.mkdir(r, "d2", 0o755, 0, 0).unwrap();
        fs.mkdir(d1.ino, "sub", 0o755, 0, 0).unwrap();
        assert_eq!(fs.getattr(d1.ino).unwrap().nlink, 3);
        fs.rename(d1.ino, "sub", d2.ino, "sub").unwrap();
        assert_eq!(fs.getattr(d1.ino).unwrap().nlink, 2);
        assert_eq!(fs.getattr(d2.ino).unwrap().nlink, 3);
    }

    #[test]
    fn rename_replaces_compatible_targets() {
        let fs = newfs();
        let r = fs.root_ino();
        let a = fs.create(r, "a", 0o644, 0, 0).unwrap();
        let _b = fs.create(r, "b", 0o644, 0, 0).unwrap();
        fs.rename(r, "a", r, "b").unwrap();
        assert_eq!(fs.lookup(r, "b").unwrap().ino, a.ino);
        assert_eq!(fs.lookup(r, "a"), Err(FsError::NoEnt));

        let d = fs.mkdir(r, "dir", 0o755, 0, 0).unwrap();
        assert_eq!(fs.rename(r, "b", r, "dir"), Err(FsError::IsDir));
        fs.create(d.ino, "x", 0o644, 0, 0).unwrap();
        let _e = fs.mkdir(r, "dir2", 0o755, 0, 0).unwrap();
        assert_eq!(fs.rename(r, "dir", r, "b"), Err(FsError::NotDir));
        assert_eq!(fs.rename(r, "dir2", r, "dir"), Err(FsError::NotEmpty));
        fs.unlink(d.ino, "x").unwrap();
        fs.rename(r, "dir2", r, "dir").unwrap();
    }

    #[test]
    fn readdir_pagination_is_stable() {
        let fs = newfs();
        let r = fs.root_ino();
        for i in 0..500 {
            fs.create(r, &format!("f{i:04}"), 0o644, 0, 0).unwrap();
        }
        let mut all = Vec::new();
        let mut cursor = 0u64;
        loop {
            let mut batch = Vec::new();
            let next = fs.readdir(r, cursor, 64, &mut batch).unwrap();
            all.extend(batch);
            match next {
                Some(c) => cursor = c,
                None => break,
            }
        }
        assert_eq!(all.len(), 500);
        let mut names: Vec<_> = all.iter().map(|e| e.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 500);
    }

    #[test]
    fn large_directory_lookup() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "big", 0o755, 0, 0).unwrap();
        for i in 0..2000 {
            fs.create(d.ino, &format!("entry-{i}"), 0o644, 0, 0)
                .unwrap();
        }
        assert!(fs.lookup(d.ino, "entry-1999").is_ok());
        assert_eq!(fs.lookup(d.ino, "entry-2000"), Err(FsError::NoEnt));
        // Remove everything; directory becomes empty and removable.
        for i in 0..2000 {
            fs.unlink(d.ino, &format!("entry-{i}")).unwrap();
        }
        fs.rmdir(r, "big").unwrap();
    }

    #[test]
    fn file_io_round_trip() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "data", 0o644, 0, 0).unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.write(f.ino, 0, &payload).unwrap(), payload.len());
        let back = fs.read(f.ino, 0, payload.len()).unwrap();
        assert_eq!(&back[..], &payload[..]);
        // Unaligned read spanning blocks.
        let mid = fs.read(f.ino, 4000, 300).unwrap();
        assert_eq!(&mid[..], &payload[4000..4300]);
        // Reads past EOF truncate.
        let tail = fs.read(f.ino, payload.len() as u64 - 10, 100).unwrap();
        assert_eq!(tail.len(), 10);
    }

    #[test]
    fn sparse_files_read_zero_holes() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "sparse", 0o644, 0, 0).unwrap();
        fs.write(f.ino, 100_000, b"tail").unwrap();
        let hole = fs.read(f.ino, 50_000, 16).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
        let tail = fs.read(f.ino, 100_000, 4).unwrap();
        assert_eq!(&tail[..], b"tail");
    }

    #[test]
    fn setattr_chmod_chown_truncate() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "f", 0o644, 0, 0).unwrap();
        fs.write(f.ino, 0, &[1u8; 10000]).unwrap();
        let a = fs
            .setattr(
                f.ino,
                SetAttr {
                    mode: Some(0o600),
                    uid: Some(9),
                    gid: Some(10),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!((a.mode, a.uid, a.gid), (0o600, 9, 10));
        let a = fs
            .setattr(
                f.ino,
                SetAttr {
                    size: Some(0),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(a.size, 0);
        assert_eq!(fs.read(f.ino, 0, 10).unwrap().len(), 0);
    }

    #[test]
    fn statfs_tracks_allocation() {
        let fs = newfs();
        // Force root's first directory block to exist so the snapshot
        // below isn't skewed by its one-time allocation.
        fs.create(fs.root_ino(), "warmup", 0o644, 0, 0).unwrap();
        let before = fs.statfs().unwrap();
        let f = fs.create(fs.root_ino(), "f", 0o644, 0, 0).unwrap();
        fs.write(f.ino, 0, &[0u8; 4096 * 3]).unwrap();
        let after = fs.statfs().unwrap();
        assert_eq!(before.ffree - after.ffree, 1);
        assert!(before.bfree > after.bfree);
        fs.unlink(fs.root_ino(), "f").unwrap();
        let freed = fs.statfs().unwrap();
        assert_eq!(freed.ffree, before.ffree);
        assert_eq!(freed.bfree, before.bfree);
    }

    #[test]
    fn remount_preserves_tree() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "persist", 0o755, 0, 0).unwrap();
        let f = fs.create(d.ino, "file", 0o640, 3, 4).unwrap();
        fs.write(f.ino, 0, b"durable").unwrap();
        fs.sync().unwrap();
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mount(disk).unwrap();
        let d2 = fs2.lookup(fs2.root_ino(), "persist").unwrap();
        let f2 = fs2.lookup(d2.ino, "file").unwrap();
        assert_eq!(f2.mode, 0o640);
        assert_eq!(&fs2.read(f2.ino, 0, 7).unwrap()[..], b"durable");
        // Allocation counters survive: creating more files works.
        fs2.create(d2.ino, "more", 0o644, 0, 0).unwrap();
    }

    #[test]
    fn pre_v2_image_is_refused() {
        // What a build from before the checksum change left behind: the
        // same layout under the previous magic, its log sealed with sums
        // this build cannot verify. Mounting it would read every commit
        // as a torn tail and drop it; refuse the image instead.
        let fs = newfs();
        fs.create(fs.root_ino(), "committed", 0o644, 0, 0).unwrap();
        let disk = fs.disk().clone();
        drop(fs);
        let mut sb = disk.read_block(0).unwrap().to_vec();
        assert_eq!(sb[..8], super::super::layout::MAGIC.to_le_bytes());
        sb[..8].copy_from_slice(b"3SFMEMCD"); // "DCMEMFS3", little-endian
        disk.write_block(0, &sb).unwrap();
        assert_eq!(MemFs::mount(disk.clone()).err(), Some(FsError::Inval));
        // Nothing was replayed or rewritten on the way to the refusal.
        assert_eq!(&disk.read_block(0).unwrap()[..], &sb[..]);
    }

    #[test]
    fn cold_cache_reads_hit_device() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.create(r, "cold", 0o644, 0, 0).unwrap();
        fs.sync().unwrap();
        fs.disk().drop_caches();
        fs.disk().reset_stats();
        fs.lookup(r, "cold").unwrap();
        let s = fs.disk().stats();
        assert!(
            s.device_reads > 0,
            "expected device reads after drop_caches"
        );
    }

    #[test]
    fn lookup_on_file_is_enotdir() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "plain", 0o644, 0, 0).unwrap();
        assert_eq!(fs.lookup(f.ino, "x"), Err(FsError::NotDir));
    }

    #[test]
    fn invalid_names_rejected() {
        let fs = newfs();
        let r = fs.root_ino();
        assert_eq!(fs.create(r, "", 0o644, 0, 0), Err(FsError::Inval));
        assert_eq!(fs.create(r, ".", 0o644, 0, 0), Err(FsError::Inval));
        assert_eq!(fs.create(r, "..", 0o644, 0, 0), Err(FsError::Inval));
        assert_eq!(fs.create(r, "a/b", 0o644, 0, 0), Err(FsError::Inval));
        let long = "n".repeat(300);
        assert_eq!(fs.create(r, &long, 0o644, 0, 0), Err(FsError::NameTooLong));
    }

    #[test]
    fn rename_same_source_and_target_is_noop() {
        let fs = newfs();
        let r = fs.root_ino();
        let f = fs.create(r, "self", 0o644, 0, 0).unwrap();
        fs.rename(r, "self", r, "self").unwrap();
        assert_eq!(fs.lookup(r, "self").unwrap().ino, f.ino);
    }

    #[test]
    fn fs_stats_count_calls() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.create(r, "f", 0o644, 0, 0).unwrap();
        fs.lookup(r, "f").unwrap();
        let _ = fs.lookup(r, "missing");
        let (lookups, _, _, mutations) = fs.stats().snapshot();
        assert_eq!(lookups, 2);
        assert_eq!(mutations, 1);
    }

    #[test]
    fn journal_commits_one_txn_per_mutation() {
        let fs = newfs();
        let r = fs.root_ino();
        let base = fs.journal_seq().unwrap();
        fs.create(r, "a", 0o644, 0, 0).unwrap();
        fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        fs.unlink(r, "a").unwrap();
        assert_eq!(fs.journal_seq().unwrap(), base + 3);
        // A failed op commits nothing.
        assert_eq!(fs.mkdir(r, "d", 0o755, 0, 0), Err(FsError::Exist));
        assert_eq!(fs.journal_seq().unwrap(), base + 3);
        let js = fs.journal_stats().unwrap();
        assert_eq!(js.commits, 3);
        assert!(js.blocks_logged >= 3);
    }

    #[test]
    fn nojournal_mode_commits_nothing() {
        let fs = newfs_nojournal();
        let r = fs.root_ino();
        fs.create(r, "a", 0o644, 0, 0).unwrap();
        assert_eq!(fs.journal_seq(), None);
        assert_eq!(fs.journal_stats(), None);
        assert_eq!(fs.lookup(r, "a").unwrap().mode, 0o644);
    }

    #[test]
    fn journaled_metadata_survives_power_cut_without_sync() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.create(r, "committed", 0o640, 0, 0).unwrap();
        // No sync(): the in-place copies are dirty in the page cache, but
        // the journal slots were force-flushed by the commit protocol.
        let lost = fs.disk().power_cut();
        assert!(lost > 0, "expected dirty pages to be lost");
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mount(disk).unwrap();
        assert!(fs2.replayed_txns() > 0);
        assert_eq!(fs2.lookup(fs2.root_ino(), "committed").unwrap().mode, 0o640);
    }

    #[test]
    fn unjournaled_metadata_lost_on_power_cut() {
        let fs = newfs_nojournal();
        let r = fs.root_ino();
        fs.create(r, "volatile", 0o644, 0, 0).unwrap();
        fs.disk().power_cut();
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mount(disk).unwrap();
        // Without a journal the unsynced create vanishes entirely.
        assert_eq!(fs2.lookup(fs2.root_ino(), "volatile"), Err(FsError::NoEnt));
    }

    #[test]
    fn checkpoint_reclaims_log_space() {
        let fs = newfs();
        let r = fs.root_ino();
        // Far more transactions than the log has slots: forced
        // checkpoints must reclaim space along the way.
        for i in 0..300 {
            fs.create(r, &format!("n{i}"), 0o644, 0, 0).unwrap();
        }
        let js = fs.journal_stats().unwrap();
        assert_eq!(js.commits, 300);
        assert!(js.forced_checkpoints > 0, "log never wrapped: {js:?}");
        // And the tree is fully recoverable after a cut.
        fs.disk().power_cut();
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mount(disk).unwrap();
        for i in 0..300 {
            assert!(fs2.lookup(fs2.root_ino(), &format!("n{i}")).is_ok());
        }
    }

    #[test]
    fn recovery_stops_at_a_commit_whose_payload_has_one_flipped_byte() {
        // Two committed transactions, then a cut; one byte of the second
        // one's log — descriptor, any image, or the record — rots on the
        // device before the remount. The first must replay, the second
        // must read as the torn tail, whichever byte it was.
        let blocks_logged = |fs: &MemFs| fs.journal_stats().unwrap().blocks_logged;
        let mut slot = 0;
        loop {
            let fs = newfs();
            let r = fs.root_ino();
            fs.create(r, "first", 0o644, 0, 0).unwrap();
            let n1 = blocks_logged(&fs);
            fs.create(r, "second", 0o644, 0, 0).unwrap();
            let n2 = blocks_logged(&fs) - n1;
            if slot == n2 + 2 {
                break;
            }
            fs.disk().power_cut();
            let disk = fs.disk().clone();
            let victim = fs.geometry().journal_start + 2 + (n1 + 2) + slot;
            drop(fs);
            let mut image = disk.read_block(victim).unwrap().to_vec();
            // Inside the fields of the descriptor and the record; spread
            // over the words of an image.
            let at = if slot == 0 || slot == n2 + 1 {
                9 + slot as usize
            } else {
                (slot as usize * 1237) % 4096
            };
            image[at] ^= 0x10;
            disk.write_block(victim, &image).unwrap();
            disk.sync().unwrap();
            disk.power_cut();
            let fs2 = MemFs::mount(disk).unwrap();
            assert_eq!(fs2.replayed_txns(), 1, "log slot {slot}, byte {at}");
            assert!(fs2.lookup(fs2.root_ino(), "first").is_ok());
            assert_eq!(fs2.lookup(fs2.root_ino(), "second"), Err(FsError::NoEnt));
            slot += 1;
        }
        assert!(slot >= 4, "a create logs at least two images");
    }

    #[test]
    fn recovery_is_idempotent() {
        let fs = newfs();
        let r = fs.root_ino();
        fs.create(r, "twice", 0o644, 0, 0).unwrap();
        fs.disk().power_cut();
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mount(disk.clone()).unwrap();
        let seq = fs2.recovered_seq();
        drop(fs2);
        // Mounting again finds the same committed chain already applied.
        let fs3 = MemFs::mount(disk).unwrap();
        assert_eq!(fs3.recovered_seq(), seq);
        assert_eq!(fs3.replayed_txns(), 0, "second recovery replayed anew");
        assert!(fs3.lookup(fs3.root_ino(), "twice").is_ok());
    }

    fn warm_entry(sig: u64, ino: u64, parent: u64, name: &str) -> WarmEntry {
        WarmEntry {
            sig: [sig, 0, 0, 0],
            ino,
            parent,
            state_acc: [0; 4],
            state_pos: 3,
            name: name.to_string(),
        }
    }

    #[test]
    fn warm_checkpoint_binds_durable_tail() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        let kept = fs
            .warm_checkpoint(&[warm_entry(11, d.ino, r, "d")])
            .unwrap();
        assert_eq!(kept, 1);
        // The checkpoint forces a journal checkpoint first, so the bound
        // sequence equals the durable tail, which after a checkpoint is
        // everything committed so far.
        match fs.read_warm_index().unwrap() {
            WarmLoad::Loaded {
                entries, bound_seq, ..
            } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].ino, d.ino);
                assert_eq!(entries[0].name, "d");
                assert_eq!(bound_seq, fs.journal_stats().unwrap().commits);
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn warm_index_survives_power_cut_and_remount() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "keep", 0o755, 0, 0).unwrap();
        fs.warm_checkpoint(&[warm_entry(7, d.ino, r, "keep")])
            .unwrap();
        // Post-checkpoint mutations commit to the journal but don't
        // invalidate the (now slightly stale) index.
        fs.create(r, "later", 0o644, 0, 0).unwrap();
        fs.disk().power_cut();
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mount(disk).unwrap();
        match fs2.read_warm_index().unwrap() {
            WarmLoad::Loaded {
                entries, bound_seq, ..
            } => {
                assert_eq!(entries[0].name, "keep");
                assert!(
                    bound_seq <= fs2.recovered_seq(),
                    "index bound past the recovered tail"
                );
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn index_bound_to_future_sequence_is_rejected() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        // Bypass warm_checkpoint and bind the index to a sequence the
        // journal never reached: a checkpoint-ordering bug's signature.
        let bogus = fs.recovered_seq() + 1_000;
        warmidx::checkpoint(
            fs.disk(),
            fs.geometry(),
            &[warm_entry(5, d.ino, r, "d")],
            bogus,
            1,
        )
        .unwrap();
        match fs.read_warm_index().unwrap() {
            WarmLoad::Rejected(WarmReject::FutureSeq { bound_seq, .. }) => {
                assert_eq!(bound_seq, bogus)
            }
            other => panic!("expected FutureSeq rejection, got {other:?}"),
        }
    }

    #[test]
    fn warm_checkpoint_works_without_journal() {
        let fs = newfs_nojournal();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "d", 0o755, 0, 0).unwrap();
        fs.warm_checkpoint(&[warm_entry(3, d.ino, r, "d")]).unwrap();
        match fs.read_warm_index().unwrap() {
            WarmLoad::Loaded { bound_seq, .. } => assert_eq!(bound_seq, 0),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn warm_generation_continues_across_remount() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "a", 0o755, 0, 0).unwrap();
        fs.warm_checkpoint(&[warm_entry(1, d.ino, r, "a")]).unwrap();
        fs.warm_checkpoint(&[warm_entry(2, d.ino, r, "a")]).unwrap();
        let disk = fs.disk().clone();
        drop(fs);
        // A checkpoint after remount must out-generation both on-disk
        // copies, or mount would resurrect the older index.
        let fs2 = MemFs::mount(disk).unwrap();
        let e = fs2.mkdir(fs2.root_ino(), "b", 0o755, 0, 0).unwrap();
        fs2.warm_checkpoint(&[warm_entry(9, e.ino, fs2.root_ino(), "b")])
            .unwrap();
        match fs2.read_warm_index().unwrap() {
            WarmLoad::Loaded { entries, gen, .. } => {
                assert_eq!(entries[0].name, "b");
                assert!(gen >= 3, "generation regressed: {gen}");
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn mkfs_clears_stale_warm_index() {
        let fs = newfs();
        let r = fs.root_ino();
        let d = fs.mkdir(r, "old", 0o755, 0, 0).unwrap();
        fs.warm_checkpoint(&[warm_entry(4, d.ino, r, "old")])
            .unwrap();
        let disk = fs.disk().clone();
        drop(fs);
        let fs2 = MemFs::mkfs(
            disk,
            MemFsConfig {
                max_inodes: 4096,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(fs2.read_warm_index().unwrap(), WarmLoad::Absent));
    }
}
