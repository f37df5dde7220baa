//! The raw simulated device.

use crate::crash::{CrashImage, CrashMonitor};
use crate::latency::LatencyModel;
use crate::BLOCK_SIZE;
use bytes::Bytes;
use dc_fault::{FaultInjector, FaultKind, IoOp};
use dc_obs::{FaultClass, Recorder, TraceEvent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Errors surfaced by the block layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// Access past the configured device capacity.
    OutOfRange { block: u64, capacity: u64 },
    /// Buffer length does not match the block size.
    BadLength { got: usize, want: usize },
    /// The device failed the access (injected or real). `transient`
    /// faults may succeed if retried; permanent ones will not.
    Io { block: u64, transient: bool },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::OutOfRange { block, capacity } => {
                write!(f, "block {block} out of range (capacity {capacity})")
            }
            BlockError::BadLength { got, want } => {
                write!(f, "buffer length {got} != block size {want}")
            }
            BlockError::Io { block, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "{kind} I/O error on block {block}")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// Result type for block operations.
pub type BlockResult<T> = Result<T, BlockError>;

/// Configuration for a simulated disk.
#[derive(Debug)]
pub struct DiskConfig {
    /// Block size in bytes.
    pub block_size: usize,
    /// Device capacity in blocks.
    pub capacity_blocks: u64,
    /// Device access latency model.
    pub latency: LatencyModel,
    /// Page-cache capacity in pages (0 disables caching).
    pub cache_pages: usize,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            block_size: BLOCK_SIZE,
            capacity_blocks: 1 << 22, // 16 GiB of 4 KiB blocks
            latency: LatencyModel::free(),
            cache_pages: 16384, // 64 MiB
        }
    }
}

/// A sparse simulated block device.
///
/// Unwritten blocks read back as zeroes, like a fresh disk. Every access
/// charges the latency model and bumps the device counters; the page cache
/// in front of it ([`crate::CachedDisk`]) is what keeps hot metadata cheap.
pub struct RawDisk {
    block_size: usize,
    capacity_blocks: u64,
    blocks: Mutex<HashMap<u64, Bytes>>,
    latency: LatencyModel,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Observability hook, attached after construction (disks are built
    /// deep inside FS setup, before any kernel exists). `OnceLock` keeps
    /// the read side lock-free; first attachment wins.
    obs: OnceLock<Recorder>,
    /// Fault-injection hook, same attachment discipline as `obs`. A
    /// disk with no injector (or a disarmed one) behaves perfectly.
    fault: OnceLock<Arc<FaultInjector>>,
    /// Power-cut hook, same attachment discipline. An armed monitor
    /// snapshots the raw image at seeded flushed-write ordinals.
    crash: OnceLock<Arc<CrashMonitor>>,
}

impl RawDisk {
    /// Creates an empty device.
    pub fn new(block_size: usize, capacity_blocks: u64, latency: LatencyModel) -> Self {
        assert!(block_size.is_power_of_two() && block_size >= 512);
        RawDisk {
            block_size,
            capacity_blocks,
            blocks: Mutex::new(HashMap::new()),
            latency,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            obs: OnceLock::new(),
            fault: OnceLock::new(),
            crash: OnceLock::new(),
        }
    }

    /// A device whose initial contents come from a captured
    /// [`CrashImage`] — what a machine finds on its disk after the
    /// power came back.
    pub fn from_image(image: &CrashImage, latency: LatencyModel) -> Self {
        let disk = RawDisk::new(image.block_size, image.capacity_blocks, latency);
        *disk.blocks.lock() = image.blocks.clone();
        disk
    }

    /// Attaches an observability recorder; every device access reports a
    /// `BlockIo` span from then on. Later attachments are ignored.
    pub fn attach_recorder(&self, obs: Recorder) {
        let _ = self.obs.set(obs);
    }

    /// Attaches a fault injector; every access from then on consults it
    /// (a disarmed injector costs one atomic load). First attachment
    /// wins, matching the recorder discipline.
    pub fn attach_fault_injector(&self, injector: Arc<FaultInjector>) {
        let _ = self.fault.set(injector);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.get()
    }

    /// Attaches a power-cut monitor; every flushed write from then on
    /// is a candidate crash point. First attachment wins.
    pub fn attach_crash_monitor(&self, monitor: Arc<CrashMonitor>) {
        let _ = self.crash.set(monitor);
    }

    /// The attached crash monitor, if any.
    pub fn crash_monitor(&self) -> Option<&Arc<CrashMonitor>> {
        self.crash.get()
    }

    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.obs.get()
    }

    /// Reports an injected fault to the recorder, if one is attached.
    fn record_fault(&self, kind: FaultKind) {
        if let Some(obs) = self.obs.get() {
            let class = match kind {
                FaultKind::Transient => FaultClass::Transient,
                FaultKind::Permanent => FaultClass::Permanent,
                FaultKind::ShortRead => FaultClass::ShortRead,
                FaultKind::LatencySpikeNs(_) => FaultClass::LatencySpike,
            };
            obs.event(|| TraceEvent::FaultInjected { class });
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn check(&self, block: u64) -> BlockResult<()> {
        if block >= self.capacity_blocks {
            return Err(BlockError::OutOfRange {
                block,
                capacity: self.capacity_blocks,
            });
        }
        Ok(())
    }

    /// Reads one block, charging device latency.
    ///
    /// With an armed fault injector attached, the access may fail with
    /// [`BlockError::Io`], stall for an injected latency spike, or
    /// return a *short* buffer (fewer bytes than a block — a torn read
    /// the caller must detect; [`crate::CachedDisk`] treats it as
    /// transient and retries).
    pub fn read_block(&self, block: u64) -> BlockResult<Bytes> {
        self.check(block)?;
        let fault = self
            .fault
            .get()
            .and_then(|inj| inj.decide(IoOp::Read, block));
        if let Some(kind) = fault {
            self.record_fault(kind);
            match kind {
                FaultKind::Transient | FaultKind::Permanent => {
                    // A failed access still spins the device, but the
                    // read counter only tracks completed transfers.
                    self.latency.charge_read();
                    return Err(BlockError::Io {
                        block,
                        transient: kind == FaultKind::Transient,
                    });
                }
                FaultKind::LatencySpikeNs(ns) => self.latency.charge_extra(ns),
                FaultKind::ShortRead => {}
            }
        }
        self.latency.charge_read();
        self.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.event(|| TraceEvent::BlockIo {
                blks: 1,
                ns: self.latency.read_cost_ns(),
            });
        }
        let data = {
            let guard = self.blocks.lock();
            match guard.get(&block) {
                Some(b) => b.clone(),
                None => Bytes::from(vec![0u8; self.block_size]),
            }
        };
        if fault == Some(FaultKind::ShortRead) {
            // Torn read: the transfer stopped partway through the block.
            return Ok(Bytes::copy_from_slice(&data[..self.block_size / 2]));
        }
        Ok(data)
    }

    /// Writes one block, charging device latency.
    ///
    /// Subject to the same fault injection as reads; a `ShortRead` rule
    /// that matches a write surfaces as a transient error (a torn write
    /// the device detects and reports).
    pub fn write_block(&self, block: u64, data: &[u8]) -> BlockResult<()> {
        self.write_block_shared(block, Bytes::copy_from_slice(data))
    }

    /// [`RawDisk::write_block`] without the copy: the device keeps
    /// `data` itself, sharing the allocation with whoever else holds it
    /// (the page-cache page it was flushed from).
    pub fn write_block_shared(&self, block: u64, data: Bytes) -> BlockResult<()> {
        self.check(block)?;
        if data.len() != self.block_size {
            return Err(BlockError::BadLength {
                got: data.len(),
                want: self.block_size,
            });
        }
        if let Some(kind) = self
            .fault
            .get()
            .and_then(|inj| inj.decide(IoOp::Write, block))
        {
            self.record_fault(kind);
            match kind {
                FaultKind::Transient | FaultKind::ShortRead | FaultKind::Permanent => {
                    self.latency.charge_write();
                    return Err(BlockError::Io {
                        block,
                        transient: kind != FaultKind::Permanent,
                    });
                }
                FaultKind::LatencySpikeNs(ns) => self.latency.charge_extra(ns),
            }
        }
        self.latency.charge_write();
        self.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.event(|| TraceEvent::BlockIo {
                blks: 1,
                ns: self.latency.write_cost_ns(),
            });
        }
        let mut guard = self.blocks.lock();
        let prior = guard.insert(block, data);
        // Crash capture happens under the same lock hold as the insert,
        // so the snapshot is exactly the durable state after this write
        // even with concurrent writers.
        if let Some(mon) = self.crash.get() {
            if let Some(cut) = mon.note_write() {
                let mut blocks = guard.clone();
                let torn_block = if cut.torn {
                    // Tear the in-flight write: the first half of the
                    // new data landed, the rest of the sector still
                    // holds the old bytes (zeroes if never written).
                    let half = self.block_size / 2;
                    let mut torn = match &prior {
                        Some(old) => old.to_vec(),
                        None => vec![0u8; self.block_size],
                    };
                    torn[..half].copy_from_slice(&blocks[&block][..half]);
                    blocks.insert(block, Bytes::from(torn));
                    Some(block)
                } else {
                    None
                };
                mon.store(CrashImage {
                    cut_at_write: cut.ordinal,
                    torn_block,
                    block_size: self.block_size,
                    capacity_blocks: self.capacity_blocks,
                    blocks,
                });
            }
        }
        Ok(())
    }

    /// Number of device-level reads performed.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of device-level writes performed.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Resets the access counters.
    pub fn reset_counters(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// The latency model (for accounting queries).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> RawDisk {
        RawDisk::new(512, 64, LatencyModel::free())
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = disk();
        let b = d.read_block(3).unwrap();
        assert!(b.iter().all(|&x| x == 0));
        assert_eq!(b.len(), 512);
    }

    #[test]
    fn write_then_read_round_trips() {
        let d = disk();
        let data = vec![7u8; 512];
        d.write_block(9, &data).unwrap();
        assert_eq!(&d.read_block(9).unwrap()[..], &data[..]);
    }

    #[test]
    fn out_of_range_rejected() {
        let d = disk();
        assert!(matches!(
            d.read_block(64),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.write_block(99, &[0u8; 512]),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn bad_length_rejected() {
        let d = disk();
        assert!(matches!(
            d.write_block(0, &[0u8; 100]),
            Err(BlockError::BadLength { .. })
        ));
    }

    #[test]
    fn torn_cut_keeps_the_old_second_half() {
        let d = disk();
        d.write_block(4, &[1u8; 512]).unwrap();
        let mon = Arc::new(CrashMonitor::at_points(vec![1, 2], 0, 1.0));
        d.attach_crash_monitor(mon.clone());
        mon.arm();
        d.write_block(4, &[2u8; 512]).unwrap(); // over a written block
        d.write_block(5, &[3u8; 512]).unwrap(); // over a fresh one
        let images = mon.take_images();
        for (img, (block, new, old)) in images.iter().zip([(4, 2u8, 1u8), (5, 3, 0)]) {
            assert_eq!(img.torn_block, Some(block));
            let torn = &img.blocks[&block];
            assert!(torn[..256].iter().all(|&b| b == new));
            assert!(torn[256..].iter().all(|&b| b == old));
        }
        // The device itself took both writes whole.
        assert!(d.read_block(4).unwrap().iter().all(|&b| b == 2));
    }

    #[test]
    fn counters_track_accesses() {
        let d = disk();
        d.write_block(0, &[1u8; 512]).unwrap();
        d.read_block(0).unwrap();
        d.read_block(1).unwrap();
        assert_eq!(d.writes(), 1);
        assert_eq!(d.reads(), 2);
    }
}
