//! Kernel provisioning and experiment scaling.

use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_fs::{FileSystem, MemFs, MemFsConfig};
use dc_obs::ObsConfig;
use dc_vfs::{Kernel, KernelBuilder, Process};
use dcache_core::DcacheConfig;
use std::sync::Arc;

/// A provisioned kernel and its init process.
pub struct Setup {
    /// The kernel under test.
    pub kernel: Arc<Kernel>,
    /// The driving process (root credentials).
    pub proc: Arc<Process>,
}

/// Builds a kernel with a zero-latency memfs root.
pub fn kernel_with(config: DcacheConfig) -> Setup {
    let kernel = KernelBuilder::new(config)
        .build()
        .expect("kernel construction");
    let proc = kernel.init_process();
    Setup { kernel, proc }
}

/// Builds a kernel whose root disk charges real (spinning) latency per
/// device access — the cold-cache substrate for Table 2 — and `hit_ns`
/// per page-cache hit, modeling the buffer-cache lookup and on-disk-format
/// translation costs a real kernel pays even when metadata is resident
/// (our memfs is otherwise several times faster than the paper's ext4
/// testbed, which would hide the value of avoiding FS calls entirely).
pub fn kernel_with_disk_full(
    config: DcacheConfig,
    read_ns: u64,
    write_ns: u64,
    hit_ns: u64,
) -> Setup {
    let disk = DiskConfig {
        capacity_blocks: 1 << 18,
        latency: LatencyModel::new(read_ns, write_ns, true).with_hit_ns(hit_ns),
        ..Default::default()
    };
    let fs = MemFsConfig {
        max_inodes: 1 << 18,
        ..Default::default()
    };
    let DiskSetup { kernel, proc, .. } = kernel_on_disk(config, disk, fs);
    Setup { kernel, proc }
}

/// A [`Setup`] that keeps hold of the file system and the disk under it.
pub struct DiskSetup {
    /// The cached disk the file system was made on.
    pub disk: Arc<CachedDisk>,
    /// The root file system.
    pub fs: Arc<MemFs>,
    /// The kernel under test.
    pub kernel: Arc<Kernel>,
    /// The driving process (root credentials).
    pub proc: Arc<Process>,
}

/// Builds a kernel over a fresh memfs on a fresh cached disk.
pub fn kernel_on_disk(config: DcacheConfig, disk: DiskConfig, fs: MemFsConfig) -> DiskSetup {
    let disk = Arc::new(CachedDisk::new(disk));
    let fs = MemFs::mkfs(disk.clone(), fs).expect("mkfs");
    let kernel = KernelBuilder::new(config)
        .root_fs(fs.clone() as Arc<dyn FileSystem>)
        .build()
        .expect("kernel construction");
    let proc = kernel.init_process();
    DiskSetup {
        disk,
        fs,
        kernel,
        proc,
    }
}

/// Builds a kernel with the observability subsystem enabled: latency
/// histograms, the trace ring, and the event counters all record.
pub fn kernel_with_obs(config: DcacheConfig) -> Setup {
    let kernel = KernelBuilder::new(config)
        .observability(ObsConfig::default())
        .build()
        .expect("kernel construction");
    let proc = kernel.init_process();
    Setup { kernel, proc }
}

/// The configuration pair every comparison runs.
pub fn config_pair() -> [(&'static str, DcacheConfig); 2] {
    [
        ("unmodified", DcacheConfig::baseline()),
        ("optimized", DcacheConfig::optimized()),
    ]
}

/// Experiment scaling knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Approximate files in the source-like tree workloads.
    pub tree_files: usize,
    /// Throughput-measurement duration per point, milliseconds.
    pub duration_ms: u64,
    /// Latency batches per measurement.
    pub batches: usize,
    /// Largest directory size in the size sweeps.
    pub max_dir: usize,
    /// Largest subtree in the mutation sweeps.
    pub max_subtree: usize,
    /// Maximum threads in the scalability sweep.
    pub max_threads: usize,
}

/// CPUs this process may run on. Thread sweeps stop here — beyond it
/// threads time-share and the curve measures the scheduler — and every
/// scaling result is stamped with it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Scale {
    /// Paper scale, as opposed to the seconds-long CI scale.
    pub fn is_full(&self) -> bool {
        self.duration_ms > 100
    }

    /// CI-friendly scale (seconds, not minutes).
    pub fn quick() -> Scale {
        Scale {
            tree_files: 400,
            duration_ms: 60,
            batches: 5,
            max_dir: 1000,
            max_subtree: 1000,
            max_threads: 4,
        }
    }

    /// Paper-comparable scale.
    pub fn full() -> Scale {
        Scale {
            tree_files: 5000,
            duration_ms: 800,
            batches: 15,
            max_dir: 10000,
            max_subtree: 10000,
            max_threads: 12,
        }
    }
}
