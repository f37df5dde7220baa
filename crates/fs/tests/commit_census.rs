//! Copy census of one journaled mutation: how many block-sized buffers
//! `create`, `unlink` and `rename` allocate, against the number of blocks
//! the transaction logs.
//!
//! A transaction that logs `n` metadata blocks needs `n + 2` buffers: one
//! private image per block it changes (copied once from the page cache,
//! then edited in place), the descriptor and the commit record. The log
//! slot page, the in-place page and the device's copy of each all share
//! that one image. The bound asserted is `2·n + 2`: one spare copy per
//! block for an edit that finds a reader still holding the image.
//!
//! At the parent of the change that introduced this test the same three
//! operations allocated 24 (create, n = 3: inode bitmap, inode-table
//! block, directory block), 19 (rename, n = 2) and 25 (unlink, n = 3)
//! block-sized buffers where they now allocate 5, 4 and 5: every
//! read-modify-write was copy → edit → copy into the `Tx`, every buffered
//! read a copy, `dir_insert` copied each block it looked at, and each of
//! log slot, in-place page and device block held a copy of its own.
//!
//! No libtest harness (`harness = false`): the allocation counter is
//! process-global, and libtest's threads allocate while a test runs.

use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_fs::{FileSystem, MemFs, MemFsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCK: usize = 4096;

/// Counts allocations the size of one block image: a `Vec` of exactly a
/// block, or a refcounted buffer of one (a block plus its two counts).
struct CountingAlloc;

static BLOCK_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if (BLOCK..BLOCK + 64).contains(&size) {
        BLOCK_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `op`; returns (block-sized allocations, blocks logged).
fn census(fs: &MemFs, op: impl FnOnce()) -> (u64, u64) {
    let logged = |fs: &MemFs| fs.journal_stats().expect("journaled").blocks_logged;
    let (allocs, blocks) = (BLOCK_ALLOCS.load(Ordering::Relaxed), logged(fs));
    op();
    (
        BLOCK_ALLOCS.load(Ordering::Relaxed) - allocs,
        logged(fs) - blocks,
    )
}

fn main() {
    let disk = Arc::new(CachedDisk::new(DiskConfig {
        block_size: BLOCK,
        capacity_blocks: 8192,
        latency: LatencyModel::free(),
        cache_pages: 4096,
    }));
    let config = MemFsConfig {
        max_inodes: 4096,
        ..Default::default()
    };
    let fs = MemFs::mkfs(disk, config).unwrap();
    let dir = fs.mkdir(fs.root_ino(), "d", 0o755, 0, 0).unwrap().ino;
    // A directory with history: its first block full (19 records of 212
    // bytes), so the scan for room passes over a block it must not copy —
    // and few enough inodes that the directory's and the new file's share
    // an inode-table block, the n = 3 shape.
    for i in 0..25 {
        fs.create(dir, &format!("{i:0>200}"), 0o644, 0, 0).unwrap();
    }
    // An empty log: no forced checkpoint lands inside a measurement.
    fs.sync().unwrap();

    let check = |name: &str, (allocs, n): (u64, u64)| {
        println!("commit_census: {name}: {allocs} block-sized allocations, {n} blocks logged");
        assert!(n >= 2, "{name} logged {n} blocks: not a directory mutation");
        let bound = 2 * n + 2;
        assert!(
            allocs <= bound,
            "{name}: {allocs} block-sized allocations for {n} logged blocks (bound {bound})"
        );
    };
    let create = || {
        fs.create(dir, "census", 0o644, 0, 0).unwrap();
    };
    check("create", census(&fs, create));
    let rename = || fs.rename(dir, "census", dir, "census-renamed").unwrap();
    check("rename", census(&fs, rename));
    let unlink = || fs.unlink(dir, "census-renamed").unwrap();
    check("unlink", census(&fs, unlink));
    println!("commit_census: ok");
}
