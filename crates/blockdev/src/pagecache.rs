//! Write-back page cache in front of the raw device.

use crate::device::{BlockError, BlockResult, DiskConfig, RawDisk};
use crate::lru::LruList;
use bytes::Bytes;
use dc_fault::RetryPolicy;
use dc_obs::TraceEvent;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

dc_obs::counters! {
    /// The `pagecache` section, one line per exported number. The cache
    /// bumps five of these; the rest live below it (device, latency model,
    /// page map, injector): [`CachedDisk::stats`] reads those through and
    /// their cells stay zero.
    pub struct DiskCounters {
        /// Page-cache hits.
        pub cache_hits,
        /// Page-cache misses (caused a device read).
        pub cache_misses,
        /// Reads that reached the device.
        pub device_reads,
        /// Writes that reached the device.
        pub device_writes,
        /// Dirty pages written back due to eviction pressure.
        pub writebacks,
        /// Simulated device time, nanoseconds.
        pub simulated_io_ns,
        /// Pages currently resident.
        pub resident_pages,
        /// Transiently failed accesses retried after backoff.
        pub io_retries,
        /// Accesses that failed for good (permanent fault, or a transient
        /// burst that outlasted the retry budget).
        pub io_errors,
        /// Faults the attached injector has fired (0 without an injector).
        pub faults_injected,
    } => DiskStats
}

struct Page {
    data: Bytes,
    dirty: bool,
    /// Slab slot in the LRU list.
    slot: usize,
}

struct CacheInner {
    pages: HashMap<u64, Page>,
    /// Maps LRU slab slots back to block numbers.
    slot_to_block: Vec<u64>,
    free_slots: Vec<usize>,
    lru: LruList,
}

impl CacheInner {
    fn alloc_slot(&mut self, block: u64) -> usize {
        if let Some(slot) = self.free_slots.pop() {
            self.slot_to_block[slot] = block;
            slot
        } else {
            self.slot_to_block.push(block);
            self.slot_to_block.len() - 1
        }
    }
}

/// Which pages a [`CachedDisk::sync_report`] pass flushed, and which
/// it could not.
///
/// Failed pages **stay dirty**: a later sync retries them losslessly
/// once the device heals — nothing is dropped on EIO.
#[derive(Debug, Default)]
pub struct SyncOutcome {
    /// Dirty pages successfully written to the device this pass.
    pub flushed: u64,
    /// Pages whose writeback failed (still dirty), with the error each
    /// one hit. Sorted by block number for deterministic reporting.
    pub failed: Vec<(u64, BlockError)>,
}

impl SyncOutcome {
    /// Whether every dirty page reached the device.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }
}

/// A write-back LRU page cache over a [`RawDisk`].
///
/// This is the substrate analog of the Linux buffer/page cache: dcache
/// misses that reach the low-level file system first consult this cache,
/// so a *warm-cache* miss pays deserialization but no device latency, while
/// a *cold-cache* miss (after [`CachedDisk::drop_caches`]) pays both —
/// the two miss tiers of §5 of the paper.
///
/// # Write-ordering contract
///
/// Write-back caching gives **no ordering**: dirty pages reach the
/// device in arbitrary LRU/sync order, and a power cut
/// ([`CachedDisk::power_cut`], or a [`crate::CrashMonitor`] cut point)
/// loses every page that has not been flushed. Callers that need
/// ordering — a journal whose commit record must not precede its
/// payload — use the two ordered primitives:
///
/// * [`CachedDisk::flush_blocks`] synchronously writes the named pages
///   to the device **in argument order**, stopping at the first error.
///   Each simulated device write is atomic, so after `flush_blocks(A)`
///   returns `Ok`, every block of `A` is durable before any later
///   write is issued.
/// * [`CachedDisk::barrier`] flushes *all* dirty pages and returns the
///   first error; on `Ok(())` every write issued before the call is
///   durable, so no write issued after it can reach the device first.
///
/// The journal's commit discipline is therefore
/// `flush_blocks(payload)` → `flush_blocks([commit_record])`: the
/// commit record is provably the last block of the transaction to
/// become durable.
pub struct CachedDisk {
    disk: RawDisk,
    capacity_pages: usize,
    inner: Mutex<CacheInner>,
    counters: DiskCounters,
}

impl CachedDisk {
    /// The device's latency model (for hit-cost accounting queries).
    pub fn latency(&self) -> &crate::LatencyModel {
        self.disk.latency()
    }

    /// Attaches an observability recorder to the underlying device;
    /// reads and writes that reach it (i.e. page-cache misses and
    /// writebacks) report `BlockIo` spans from then on.
    pub fn attach_recorder(&self, obs: dc_obs::Recorder) {
        self.disk.attach_recorder(obs);
    }

    /// Attaches a fault injector to the underlying device (see
    /// [`RawDisk::attach_fault_injector`]). Transient faults it injects
    /// are absorbed by this cache's retry policy.
    pub fn attach_fault_injector(&self, injector: std::sync::Arc<dc_fault::FaultInjector>) {
        self.disk.attach_fault_injector(injector);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&std::sync::Arc<dc_fault::FaultInjector>> {
        self.disk.fault_injector()
    }

    /// Creates a cached disk per `config`.
    pub fn new(config: DiskConfig) -> Self {
        let DiskConfig {
            block_size,
            capacity_blocks,
            latency,
            cache_pages,
        } = config;
        Self::over(
            RawDisk::new(block_size, capacity_blocks, latency),
            cache_pages,
        )
    }

    /// A cached disk rehydrated from a captured [`crate::CrashImage`]:
    /// the device holds exactly the blocks that were durable at the
    /// cut, and the page cache starts **cold** — the machine just
    /// rebooted.
    pub fn from_image(
        image: &crate::CrashImage,
        cache_pages: usize,
        latency: crate::LatencyModel,
    ) -> Self {
        Self::over(RawDisk::from_image(image, latency), cache_pages)
    }

    /// An empty cache of `capacity_pages` over `disk`, counters at zero.
    fn over(disk: RawDisk, capacity_pages: usize) -> Self {
        CachedDisk {
            disk,
            capacity_pages,
            inner: Mutex::new(CacheInner {
                pages: HashMap::new(),
                slot_to_block: Vec::new(),
                free_slots: Vec::new(),
                lru: LruList::new(),
            }),
            counters: DiskCounters::default(),
        }
    }

    /// Attaches a power-cut monitor to the underlying device (see
    /// [`RawDisk::attach_crash_monitor`]).
    pub fn attach_crash_monitor(&self, monitor: std::sync::Arc<crate::CrashMonitor>) {
        self.disk.attach_crash_monitor(monitor);
    }

    /// The attached crash monitor, if any.
    pub fn crash_monitor(&self) -> Option<&std::sync::Arc<crate::CrashMonitor>> {
        self.disk.crash_monitor()
    }

    /// The observability recorder attached to the underlying device,
    /// if any (journal commit/replay events are reported through it).
    pub fn recorder(&self) -> Option<&dc_obs::Recorder> {
        self.disk.recorder()
    }

    /// One device read with bounded retry: transient errors and short
    /// (torn) reads are retried up to the policy's attempt budget, each
    /// retry charging exponential backoff to the latency model. The
    /// final failure — or any non-transient error — propagates.
    fn device_read(&self, block: u64) -> BlockResult<Bytes> {
        let mut attempt: u32 = 0;
        loop {
            let err = match self.disk.read_block(block) {
                Ok(data) if data.len() == self.disk.block_size() => return Ok(data),
                // Short read: detected here by length, retried like a
                // transient device error.
                Ok(_) => BlockError::Io {
                    block,
                    transient: true,
                },
                Err(
                    e @ BlockError::Io {
                        transient: true, ..
                    },
                ) => e,
                Err(e) => {
                    if matches!(e, BlockError::Io { .. }) {
                        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            };
            attempt += 1;
            if attempt >= RetryPolicy::STANDARD.max_attempts {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            self.backoff(attempt);
        }
    }

    /// One device write with the same bounded-retry discipline. The
    /// device keeps the page's own buffer.
    fn device_write(&self, block: u64, data: &Bytes) -> BlockResult<()> {
        let mut attempt: u32 = 0;
        loop {
            let err = match self.disk.write_block_shared(block, data.clone()) {
                Ok(()) => return Ok(()),
                Err(
                    e @ BlockError::Io {
                        transient: true, ..
                    },
                ) => e,
                Err(e) => {
                    if matches!(e, BlockError::Io { .. }) {
                        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            };
            attempt += 1;
            if attempt >= RetryPolicy::STANDARD.max_attempts {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            self.backoff(attempt);
        }
    }

    fn backoff(&self, attempt: u32) {
        let backoff_ns = RetryPolicy::STANDARD.backoff_ns(attempt - 1);
        self.disk.latency().charge_extra(backoff_ns);
        self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.disk.recorder() {
            obs.event(|| TraceEvent::IoRetry {
                attempt,
                backoff_ns,
            });
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.disk.block_size()
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.disk.capacity_blocks()
    }

    /// Reads one block through the cache.
    pub fn read_block(&self, block: u64) -> BlockResult<Bytes> {
        if self.capacity_pages == 0 {
            self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
            return self.device_read(block);
        }
        {
            let mut inner = self.inner.lock();
            if let Some(page) = inner.pages.get(&block) {
                let slot = page.slot;
                let data = page.data.clone();
                inner.lru.touch(slot);
                drop(inner);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.disk.latency().charge_hit();
                return Ok(data);
            }
        }
        // Miss: read from the device outside the cache lock so that a
        // spinning latency model does not serialize unrelated hits.
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let data = self.device_read(block)?;
        let mut inner = self.inner.lock();
        // A racing reader may have inserted it meanwhile; keep theirs.
        if !inner.pages.contains_key(&block) {
            self.insert_locked(&mut inner, block, data.clone(), false)?;
        }
        Ok(data)
    }

    /// Writes one block through the cache (write-back: device copy deferred
    /// until [`CachedDisk::sync`], eviction, or [`CachedDisk::drop_caches`]).
    pub fn write_block(&self, block: u64, data: &[u8]) -> BlockResult<()> {
        self.write_block_shared(block, Bytes::copy_from_slice(data))
    }

    /// [`CachedDisk::write_block`] without the copy: the page holds
    /// `data` itself, and so does the device once the page is flushed.
    /// A caller that writes one image to several blocks (the journal:
    /// log slot, then in place) pays for one buffer.
    pub fn write_block_shared(&self, block: u64, data: Bytes) -> BlockResult<()> {
        if block >= self.disk.capacity_blocks() {
            // Surface range errors eagerly even in write-back mode.
            return self.device_write(block, &data);
        }
        if data.len() != self.disk.block_size() {
            return Err(crate::BlockError::BadLength {
                got: data.len(),
                want: self.disk.block_size(),
            });
        }
        if self.capacity_pages == 0 {
            return self.device_write(block, &data);
        }
        let mut inner = self.inner.lock();
        if let Some(page) = inner.pages.get_mut(&block) {
            page.data = data;
            page.dirty = true;
            let slot = page.slot;
            inner.lru.touch(slot);
            return Ok(());
        }
        self.insert_locked(&mut inner, block, data, true)
    }

    fn insert_locked(
        &self,
        inner: &mut CacheInner,
        block: u64,
        data: Bytes,
        dirty: bool,
    ) -> BlockResult<()> {
        while inner.pages.len() >= self.capacity_pages {
            let Some(victim_slot) = inner.lru.pop_lru() else {
                break;
            };
            let victim_block = inner.slot_to_block[victim_slot];
            if let Some(victim) = inner.pages.remove(&victim_block) {
                inner.free_slots.push(victim_slot);
                if victim.dirty {
                    self.counters.writebacks.fetch_add(1, Ordering::Relaxed);
                    if let Err(e) = self.device_write(victim_block, &victim.data) {
                        // Writeback failed for good: put the victim back
                        // (still dirty) rather than losing the data, and
                        // surface the error to the caller.
                        inner.pages.insert(victim_block, victim);
                        inner.lru.push_front(victim_slot);
                        inner.free_slots.pop();
                        return Err(e);
                    }
                }
            }
        }
        let slot = inner.alloc_slot(block);
        inner.pages.insert(block, Page { data, dirty, slot });
        inner.lru.push_front(slot);
        Ok(())
    }

    /// Writes all dirty pages back to the device.
    ///
    /// Best effort: every dirty page is attempted (with retry); pages
    /// that fail stay dirty for a later sync, and the first error is
    /// returned after the full pass. Use [`CachedDisk::sync_report`]
    /// to learn exactly which pages failed.
    pub fn sync(&self) -> BlockResult<()> {
        let outcome = self.sync_report();
        match outcome.failed.first() {
            Some(&(_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Writes all dirty pages back to the device, reporting exactly
    /// which pages flushed and which failed.
    ///
    /// Lossless on failure: every failed page **stays dirty**, so once
    /// the device heals a later `sync`/`sync_report` retries precisely
    /// the pages that were left behind — no data is dropped and no page
    /// is ambiguously "maybe flushed".
    pub fn sync_report(&self) -> SyncOutcome {
        let mut inner = self.inner.lock();
        // Collect first: writing under iteration would alias the map
        // borrow. Sorted so failure reporting is deterministic.
        let mut dirty: Vec<(u64, Bytes)> = inner
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(&b, p)| (b, p.data.clone()))
            .collect();
        dirty.sort_unstable_by_key(|&(b, _)| b);
        let mut outcome = SyncOutcome::default();
        for (block, data) in dirty {
            match self.device_write(block, &data) {
                Ok(()) => {
                    if let Some(p) = inner.pages.get_mut(&block) {
                        p.dirty = false;
                    }
                    outcome.flushed += 1;
                }
                Err(e) => outcome.failed.push((block, e)),
            }
        }
        outcome
    }

    /// Synchronously writes the named pages to the device **in argument
    /// order**, stopping at the first error (see the write-ordering
    /// contract in the type docs). Pages that are clean, absent, or
    /// beyond capacity are skipped — they are already durable or have
    /// nothing to flush. Flushed pages are marked clean.
    pub fn flush_blocks(&self, blocks: &[u64]) -> BlockResult<()> {
        if self.capacity_pages == 0 {
            return Ok(()); // write-through: everything already durable
        }
        let mut inner = self.inner.lock();
        for &block in blocks {
            let Some(page) = inner.pages.get(&block) else {
                continue;
            };
            if !page.dirty {
                continue;
            }
            let data = page.data.clone();
            self.device_write(block, &data)?;
            if let Some(p) = inner.pages.get_mut(&block) {
                p.dirty = false;
            }
        }
        Ok(())
    }

    /// Flushes every dirty page and returns the first error, leaving
    /// failed pages dirty. On `Ok(())` all writes issued before this
    /// call are durable, so no later write can reach the device ahead
    /// of them — the full-cache ordering barrier of the write-ordering
    /// contract.
    pub fn barrier(&self) -> BlockResult<()> {
        self.sync()
    }

    /// Simulates a power cut: every resident page is discarded with
    /// **no writeback** — dirty data that never reached the device is
    /// gone, exactly as if the plug was pulled. Returns the number of
    /// dirty pages lost. The device keeps only what was flushed.
    pub fn power_cut(&self) -> u64 {
        let mut inner = self.inner.lock();
        let lost = inner.pages.values().filter(|p| p.dirty).count() as u64;
        inner.pages.clear();
        inner.lru.clear();
        inner.free_slots.clear();
        inner.slot_to_block.clear();
        lost
    }

    /// Flushes and discards every resident page (the `echo 3 >
    /// /proc/sys/vm/drop_caches` analog used for cold-cache runs).
    ///
    /// Never panics: clean pages and successfully written-back dirty
    /// pages are dropped; dirty pages whose writeback fails (even after
    /// retry) are *retained*, still dirty, so the data survives for a
    /// later sync once the device heals.
    pub fn drop_caches(&self) {
        let mut inner = self.inner.lock();
        let all: Vec<(u64, Page)> = {
            let blocks: Vec<u64> = inner.pages.keys().copied().collect();
            blocks
                .into_iter()
                .filter_map(|b| inner.pages.remove(&b).map(|p| (b, p)))
                .collect()
        };
        inner.lru.clear();
        inner.free_slots.clear();
        inner.slot_to_block.clear();
        for (block, page) in all {
            if page.dirty && self.device_write(block, &page.data).is_err() {
                // insert_locked cannot fail here: the cache was just
                // emptied, so no eviction (and thus no writeback) runs.
                let _ = self.insert_locked(&mut inner, block, page.data, true);
            }
        }
    }

    /// Resets hit/miss and device statistics (residency is unaffected).
    pub fn reset_stats(&self) {
        self.counters.reset();
        self.disk.reset_counters();
        self.disk.latency().reset_accounting();
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            device_reads: self.disk.reads(),
            device_writes: self.disk.writes(),
            simulated_io_ns: self.disk.latency().accounted_ns(),
            resident_pages: self.inner.lock().pages.len() as u64,
            faults_injected: self
                .disk
                .fault_injector()
                .map(|inj| inj.stats().total())
                .unwrap_or(0),
            ..self.counters.values()
        }
    }
}

/// The `pagecache` section: [`CachedDisk::stats`] by name.
impl dc_obs::MetricSource for CachedDisk {
    fn name(&self) -> &'static str {
        "pagecache"
    }
    fn counters(&self) -> Vec<(String, u64)> {
        self.stats().counters()
    }
    fn reset(&self) {
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;

    fn small_cache(pages: usize) -> CachedDisk {
        CachedDisk::new(DiskConfig {
            block_size: 512,
            capacity_blocks: 1024,
            latency: LatencyModel::free(),
            cache_pages: pages,
        })
    }

    #[test]
    fn read_hits_after_first_miss() {
        let d = small_cache(8);
        d.read_block(5).unwrap();
        d.read_block(5).unwrap();
        let s = d.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.device_reads, 1);
    }

    #[test]
    fn writes_are_write_back() {
        let d = small_cache(8);
        d.write_block(1, &[9u8; 512]).unwrap();
        assert_eq!(d.stats().device_writes, 0);
        d.sync().unwrap();
        assert_eq!(d.stats().device_writes, 1);
        // Second sync writes nothing new.
        d.sync().unwrap();
        assert_eq!(d.stats().device_writes, 1);
    }

    #[test]
    fn shared_write_is_one_buffer_from_page_to_device() {
        let d = small_cache(8);
        let image = Bytes::from(vec![6u8; 512]);
        d.write_block_shared(1, image.clone()).unwrap();
        d.write_block_shared(2, image.clone()).unwrap();
        d.flush_blocks(&[1, 2]).unwrap();
        assert_eq!(d.stats().device_writes, 2);
        for b in [1, 2] {
            // The resident page, and the device block under it.
            assert_eq!(d.read_block(b).unwrap().as_ptr(), image.as_ptr());
            assert_eq!(d.disk.read_block(b).unwrap().as_ptr(), image.as_ptr());
        }
        // The copying form still copies: the caller keeps its buffer.
        d.write_block(3, &image).unwrap();
        assert_ne!(d.read_block(3).unwrap().as_ptr(), image.as_ptr());
        assert_eq!(&d.read_block(3).unwrap()[..], &image[..]);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let d = small_cache(2);
        d.write_block(0, &[1u8; 512]).unwrap();
        d.write_block(1, &[2u8; 512]).unwrap();
        d.write_block(2, &[3u8; 512]).unwrap(); // evicts block 0
        let s = d.stats();
        assert!(s.writebacks >= 1);
        // Evicted data must be durable.
        assert_eq!(d.read_block(0).unwrap()[0], 1);
    }

    #[test]
    fn drop_caches_preserves_data() {
        let d = small_cache(8);
        d.write_block(3, &[42u8; 512]).unwrap();
        d.drop_caches();
        assert_eq!(d.stats().resident_pages, 0);
        assert_eq!(d.read_block(3).unwrap()[0], 42);
        // That read was a device read.
        assert!(d.stats().device_reads >= 1);
    }

    #[test]
    fn lru_keeps_hot_pages() {
        let d = small_cache(2);
        d.read_block(0).unwrap();
        d.read_block(1).unwrap();
        d.read_block(0).unwrap(); // block 0 hot
        d.read_block(2).unwrap(); // evicts block 1
        d.reset_stats();
        d.read_block(0).unwrap();
        assert_eq!(d.stats().cache_hits, 1);
        d.read_block(1).unwrap();
        assert_eq!(d.stats().cache_misses, 1);
    }

    #[test]
    fn zero_capacity_cache_bypasses() {
        let d = small_cache(0);
        d.write_block(0, &[5u8; 512]).unwrap();
        d.read_block(0).unwrap();
        let s = d.stats();
        assert_eq!(s.device_writes, 1);
        assert_eq!(s.device_reads, 1);
        assert_eq!(s.resident_pages, 0);
    }

    #[test]
    fn bad_writes_rejected_through_cache() {
        let d = small_cache(4);
        assert!(d.write_block(0, &[0u8; 3]).is_err());
        assert!(d.write_block(5000, &[0u8; 512]).is_err());
    }

    use dc_fault::{FaultKind, FaultPlan, FaultRule, IoOp};
    use std::sync::Arc;

    fn faulty_cache(pages: usize, plan: FaultPlan) -> (CachedDisk, Arc<dc_fault::FaultInjector>) {
        let d = small_cache(pages);
        let inj = Arc::new(plan.build());
        d.attach_fault_injector(inj.clone());
        (d, inj)
    }

    #[test]
    fn transient_read_fault_is_absorbed_by_retry() {
        // Every block faults on first touch and heals after 2 failures;
        // the default 4-attempt policy must absorb that invisibly.
        let (d, inj) = faulty_cache(
            8,
            FaultPlan::new(1).rule(
                FaultRule::new(FaultKind::Transient, 1.0)
                    .on(IoOp::Read)
                    .burst(2)
                    .max_fires(2),
            ),
        );
        inj.arm();
        let data = d.read_block(3).expect("retry must absorb the burst");
        assert_eq!(data.len(), 512);
        let s = d.stats();
        assert_eq!(s.io_retries, 2);
        assert_eq!(s.io_errors, 0);
        assert_eq!(s.faults_injected, 2);
    }

    #[test]
    fn transient_burst_longer_than_budget_surfaces_eio() {
        let (d, inj) = faulty_cache(
            8,
            FaultPlan::new(2).rule(FaultRule::new(FaultKind::Transient, 1.0).burst(100)),
        );
        inj.arm();
        let err = d.read_block(0).unwrap_err();
        assert!(matches!(
            err,
            BlockError::Io {
                transient: true,
                ..
            }
        ));
        let s = d.stats();
        assert_eq!(s.io_retries, 3); // 4 attempts = 3 retries
        assert_eq!(s.io_errors, 1);
        // After healing, the block reads fine and the cache repopulates.
        inj.disarm();
        assert!(d.read_block(0).is_ok());
        assert_eq!(d.stats().resident_pages, 1);
    }

    #[test]
    fn permanent_fault_is_not_retried() {
        let (d, inj) = faulty_cache(8, FaultPlan::new(3).permanent(IoOp::Read, 1.0));
        inj.arm();
        let err = d.read_block(9).unwrap_err();
        assert!(matches!(
            err,
            BlockError::Io {
                transient: false,
                ..
            }
        ));
        let s = d.stats();
        assert_eq!(s.io_retries, 0);
        assert_eq!(s.io_errors, 1);
    }

    #[test]
    fn short_read_is_detected_and_retried() {
        let (d, inj) = faulty_cache(
            8,
            FaultPlan::new(4).rule(FaultRule::new(FaultKind::ShortRead, 1.0).max_fires(1)),
        );
        d.write_block(5, &[7u8; 512]).unwrap();
        d.sync().unwrap();
        d.drop_caches();
        inj.arm();
        let data = d.read_block(5).expect("torn read must be retried");
        assert_eq!(data.len(), 512);
        assert_eq!(data[0], 7);
        assert_eq!(d.stats().io_retries, 1);
    }

    #[test]
    fn latency_spike_charges_but_succeeds() {
        let (d, inj) = faulty_cache(8, FaultPlan::new(5).latency_spike(IoOp::Read, 1.0, 123_456));
        inj.arm();
        assert!(d.read_block(2).is_ok());
        assert!(d.stats().simulated_io_ns >= 123_456);
        assert_eq!(d.stats().io_retries, 0);
    }

    #[test]
    fn drop_caches_retains_dirty_pages_when_device_is_broken() {
        let (d, inj) = faulty_cache(
            8,
            // Burst far beyond the retry budget: every attempt in the
            // writeback's retry chain fails (the injector's cooldown
            // guarantee only kicks in once a burst drains).
            FaultPlan::new(6).rule(
                FaultRule::new(FaultKind::Transient, 1.0)
                    .on(IoOp::Write)
                    .burst(64),
            ),
        );
        d.write_block(1, &[42u8; 512]).unwrap();
        inj.arm();
        // Writeback fails even after retries; the page must survive.
        d.drop_caches();
        assert_eq!(d.stats().resident_pages, 1);
        assert_eq!(d.read_block(1).unwrap()[0], 42);
        // Device heals: the retained page flushes and drops cleanly.
        inj.disarm();
        d.drop_caches();
        assert_eq!(d.stats().resident_pages, 0);
        assert_eq!(d.read_block(1).unwrap()[0], 42);
    }

    #[test]
    fn sync_is_best_effort_and_keeps_failed_pages_dirty() {
        let (d, inj) = faulty_cache(
            8,
            FaultPlan::new(7).rule(
                FaultRule::new(FaultKind::Transient, 1.0)
                    .on(IoOp::Write)
                    .blocks(1..2)
                    .burst(64),
            ),
        );
        d.write_block(0, &[1u8; 512]).unwrap();
        d.write_block(1, &[2u8; 512]).unwrap();
        inj.arm();
        // Block 1 cannot flush; block 0 must still make it to the device.
        assert!(d.sync().is_err());
        assert_eq!(d.stats().device_writes, 1);
        inj.disarm();
        // The failed page stayed dirty, so a later sync completes it.
        d.sync().unwrap();
        assert_eq!(d.stats().device_writes, 2);
    }
}
