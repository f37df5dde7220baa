//! The kernel object: construction and global state.

use crate::icache::Icache;
use crate::mount::{Mount, MountFlags, SuperBlock};
use crate::namespace::MountNamespace;
use crate::path::PathRef;
use crate::process::Process;
use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_cred::{Cred, SecurityStack};
use dc_fs::{FileSystem, FsResult, MemFs, MemFsConfig};
use dc_obs::{MetricSource, MetricsSnapshot, ObsConfig, Recorder};
use dcache_core::{Dcache, DcacheConfig, Dentry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The assembled kernel: dcache, security stack, inode cache, mount
/// namespaces, and the syscall surface (implemented across the
/// `syscalls` modules).
pub struct Kernel {
    /// The directory cache (the paper's contribution lives here).
    pub dcache: Arc<Dcache>,
    /// The LSM chain.
    pub security: SecurityStack,
    /// The inode cache.
    pub(crate) icache: Icache,
    namespaces: RwLock<HashMap<u64, Arc<MountNamespace>>>,
    init_ns: Arc<MountNamespace>,
    init_process: Arc<Process>,
    next_sb: AtomicU64,
    next_mount: AtomicU64,
    next_ns: AtomicU64,
    next_pid: AtomicU64,
    /// Serializes whole walks in `lock_walk` mode (the pre-RCU kernel
    /// approximation for the Figure 2 sweep).
    pub(crate) lock_walk_mutex: Mutex<()>,
    /// Entropy pool for mkstemp-style name generation.
    tmp_rng: AtomicU64,
    /// Superblock registry: one superblock (and dentry tree) per mounted
    /// file-system instance, so mount aliases share dentries (§4.3).
    pub(crate) superblocks: Mutex<SuperBlockRegistry>,
    /// Every metric source, in export order: the kernel's own (dcache,
    /// the root file system, and a memfs root's page cache and journal),
    /// then whatever [`register_metric_source`](Kernel::register_metric_source)
    /// added.
    /// The one list [`metrics_snapshot`](Kernel::metrics_snapshot) and
    /// [`reset_stats`](Kernel::reset_stats) walk.
    sources: Mutex<Vec<Arc<dyn MetricSource>>>,
    /// Outcome of the build-time warm restart, when
    /// [`KernelBuilder::warm_restart`] requested one.
    pub(crate) warm_outcome: Mutex<Option<crate::warm::WarmRestartOutcome>>,
}

/// Registered (file system → superblock) pairs; weak on the FS side so
/// an unmounted file system can drop.
pub(crate) type SuperBlockRegistry = Vec<(Weak<dyn FileSystem>, Arc<SuperBlock>)>;

/// Builds a [`Kernel`], mounting a root file system.
pub struct KernelBuilder {
    config: DcacheConfig,
    security: SecurityStack,
    root_fs: Option<Arc<dyn FileSystem>>,
    root_flags: MountFlags,
    obs: Option<ObsConfig>,
    warm_restart: bool,
}

impl KernelBuilder {
    /// Starts a builder with the given dcache configuration, a DAC-only
    /// security stack, and (unless overridden) a fresh memfs root.
    pub fn new(config: DcacheConfig) -> KernelBuilder {
        KernelBuilder {
            config,
            security: SecurityStack::dac_only(),
            root_fs: None,
            root_flags: MountFlags::default(),
            obs: None,
            warm_restart: false,
        }
    }

    /// Attempts a warm restart during [`build`](KernelBuilder::build):
    /// after the root mounts (journal replay included), the dcache is
    /// rehydrated from the on-disk warm index. Any index problem falls
    /// back to a cold cache — `build` never fails because of it. The
    /// outcome is available from [`Kernel::warm_outcome`].
    pub fn warm_restart(mut self, enabled: bool) -> Self {
        self.warm_restart = enabled;
        self
    }

    /// Enables observability: latency histograms, lookup span tracing,
    /// and event counters, recorded throughout the stack. Without this
    /// call the kernel carries a disabled recorder, whose probes reduce
    /// to a branch on a cold flag.
    pub fn observability(mut self, config: ObsConfig) -> Self {
        self.obs = Some(config);
        self
    }

    /// Replaces the security stack.
    pub fn security(mut self, stack: SecurityStack) -> Self {
        self.security = stack;
        self
    }

    /// Uses an explicit root file system instead of a fresh memfs.
    pub fn root_fs(mut self, fs: Arc<dyn FileSystem>) -> Self {
        self.root_fs = Some(fs);
        self
    }

    /// Sets root mount flags.
    pub fn root_flags(mut self, flags: MountFlags) -> Self {
        self.root_flags = flags;
        self
    }

    /// Builds the kernel: mounts the root, creates the init namespace and
    /// the init (root-credentialed) process.
    pub fn build(self) -> FsResult<Arc<Kernel>> {
        let recorder = match self.obs {
            Some(cfg) => Recorder::enabled(cfg),
            None => Recorder::disabled(),
        };
        let dcache = Dcache::new_with_obs(self.config, recorder);
        let root_fs = match self.root_fs {
            Some(fs) => fs,
            None => {
                let disk = Arc::new(CachedDisk::new(DiskConfig {
                    capacity_blocks: 1 << 18, // 1 GiB
                    latency: LatencyModel::free(),
                    ..Default::default()
                }));
                let memfs = MemFs::mkfs(
                    disk,
                    MemFsConfig {
                        max_inodes: 1 << 18,
                        ..Default::default()
                    },
                )?;
                memfs as Arc<dyn FileSystem>
            }
        };
        let kernel = Kernel::assemble(dcache, self.security, root_fs, self.root_flags)?;
        if self.warm_restart {
            let outcome = kernel.warm_restart()?;
            *kernel.warm_outcome.lock() = Some(outcome);
        }
        Ok(kernel)
    }
}

impl Kernel {
    fn assemble(
        dcache: Arc<Dcache>,
        security: SecurityStack,
        root_fs: Arc<dyn FileSystem>,
        root_flags: MountFlags,
    ) -> FsResult<Arc<Kernel>> {
        let icache = Icache::new();
        let sb_id = 1u64;
        let root_attr = root_fs.getattr(root_fs.root_ino())?;
        let root_inode = icache.get_or_create(sb_id, &root_fs, root_attr);
        let root_dentry = dcache.new_root(sb_id, root_inode);
        let sb = Arc::new(SuperBlock {
            id: sb_id,
            fs: root_fs,
            root: root_dentry,
        });
        let root_mount = Mount::new_root(1, sb, root_flags);
        dcache.sign_mount_root(&root_mount.root, root_mount.id);
        if dcache.obs.is_enabled() {
            if let Some(memfs) = as_memfs(&root_mount.sb.fs) {
                memfs.disk().attach_recorder(dcache.obs.clone());
            }
        }
        let init_ns = MountNamespace::new(0, root_mount.clone());
        let root_ref = PathRef::new(root_mount, init_ns.root_mount().root.clone());
        let init_process =
            Process::new(1, Cred::root(), init_ns.clone(), root_ref.clone(), root_ref);
        let mut namespaces = HashMap::new();
        namespaces.insert(init_ns.id, init_ns.clone());
        let sb_registry: Vec<(Weak<dyn FileSystem>, Arc<SuperBlock>)> = vec![(
            Arc::downgrade(&init_ns.root_mount().sb.fs),
            init_ns.root_mount().sb.clone(),
        )];
        let root_fs = &init_ns.root_mount().sb.fs;
        let mut sources: Vec<Arc<dyn MetricSource>> = vec![
            Arc::new(dcache.stats.clone()),
            Arc::new(root_fs.stats().clone()),
        ];
        if let Some(memfs) = as_memfs(root_fs) {
            sources.push(memfs.disk().clone());
            sources.push(Arc::new(memfs.journal_counters().clone()));
        }
        Ok(Arc::new(Kernel {
            dcache,
            security,
            icache,
            namespaces: RwLock::new(namespaces),
            init_ns,
            init_process,
            next_sb: AtomicU64::new(2),
            next_mount: AtomicU64::new(2),
            next_ns: AtomicU64::new(1),
            next_pid: AtomicU64::new(2),
            lock_walk_mutex: Mutex::new(()),
            tmp_rng: AtomicU64::new(0x9e3779b97f4a7c15),
            superblocks: Mutex::new(sb_registry),
            sources: Mutex::new(sources),
            warm_outcome: Mutex::new(None),
        }))
    }

    /// The build-time warm-restart outcome, if
    /// [`KernelBuilder::warm_restart`] ran one (`None` otherwise; a
    /// manual [`Kernel::warm_restart`] call returns its outcome
    /// directly).
    pub fn warm_outcome(&self) -> Option<crate::warm::WarmRestartOutcome> {
        self.warm_outcome.lock().clone()
    }

    /// The init process (pid 1, root credentials, at `/`).
    pub fn init_process(&self) -> Arc<Process> {
        self.init_process.clone()
    }

    /// The initial mount namespace.
    pub fn init_namespace(&self) -> Arc<MountNamespace> {
        self.init_ns.clone()
    }

    /// Spawns a process inheriting `parent`'s credentials, namespace,
    /// root, and working directory (`fork` as far as the VFS cares).
    pub fn spawn(&self, parent: &Process) -> Arc<Process> {
        Process::new(
            self.next_pid.fetch_add(1, Ordering::Relaxed),
            parent.cred(),
            parent.namespace(),
            parent.root(),
            parent.cwd(),
        )
    }

    /// Spawns a process with explicit credentials.
    pub fn spawn_with_cred(&self, parent: &Process, cred: Arc<Cred>) -> Arc<Process> {
        let p = self.spawn(parent);
        p.set_cred(cred);
        p
    }

    /// Changes a process's credentials through the prepare/commit cycle;
    /// unchanged contents share the old cred and its PCC (§4.1).
    pub fn setuid(&self, proc: &Process, uid: u32, gid: u32) -> Arc<Cred> {
        let old = proc.cred();
        let mut prepared = dc_cred::prepare_creds(&old);
        prepared.uid = uid;
        prepared.gid = gid;
        let committed = dc_cred::commit_creds(&old, prepared);
        proc.set_cred(committed.clone());
        committed
    }

    /// A pseudo-random value for temporary-file naming.
    pub(crate) fn tmp_rand(&self) -> u64 {
        let x = self
            .tmp_rng
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 0xff_ffff
    }

    /// Allocates a superblock id (mounts).
    pub(crate) fn alloc_sb_id(&self) -> u64 {
        self.next_sb.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a mount id.
    pub(crate) fn alloc_mount_id(&self) -> u64 {
        self.next_mount.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a namespace id.
    pub(crate) fn alloc_ns_id(&self) -> u64 {
        self.next_ns.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a namespace.
    pub(crate) fn register_namespace(&self, ns: Arc<MountNamespace>) {
        self.namespaces.write().insert(ns.id, ns);
    }

    /// Every namespace's (mountpoint, mount root) edges: a
    /// [`shootdown`](Dcache::shootdown) follows them into the trees mounted
    /// below what it shoots, which live in other dentry trees.
    pub(crate) fn mount_edges(&self) -> Vec<(Arc<Dentry>, Arc<Dentry>)> {
        let namespaces = self.namespaces.read();
        let with_mounts = namespaces.values().filter(|ns| ns.mount_count() > 1);
        let mounts = with_mounts.flat_map(|ns| ns.mounts_snapshot());
        let edge = |m: Arc<Mount>| Some((m.parent.as_ref()?.1.clone(), m.root.clone()));
        mounts.filter_map(edge).collect()
    }

    /// Live registered namespaces, including the init namespace.
    pub fn namespace_count(&self) -> usize {
        self.namespaces.read().len()
    }

    /// Tears down a mount namespace: unregisters it, detaches every PCC
    /// keyed on it, and retires its DLHT from the dcache's map — all
    /// O(this tenant), never O(fleet).
    ///
    /// The retired table is *not* walked entry-by-entry: dentries hold
    /// only weak membership in it, so dropping the last table handle
    /// (the namespace's memoized one goes with the `Arc<MountNamespace>`
    /// returned here) frees every bucket group wholesale
    /// once in-flight epoch readers drain. Processes still attached to
    /// the namespace keep their mounts working — only the cache
    /// acceleration (DLHT entries, PCCs) dies with the teardown.
    ///
    /// Returns `None` for the init namespace (id 0) or an unknown id.
    pub fn destroy_namespace(&self, ns_id: u64) -> Option<TeardownReport> {
        if ns_id == 0 {
            return None;
        }
        let start = std::time::Instant::now();
        let ns = self.namespaces.write().remove(&ns_id)?;
        let (pccs_detached, pcc_lines) = self.dcache.detach_pccs_for_ns(ns_id);
        let (dlht_entries, dlht_bytes) = match self.dcache.retire_dlht(ns_id) {
            Some(table) => (table.len(), table.footprint().total_bytes() as u64),
            None => (0, 0), // never walked: no table was ever allocated
        };
        self.dcache
            .stats
            .ns_teardowns
            .fetch_add(1, Ordering::Relaxed);
        self.dcache
            .stats
            .teardown_entries
            .fetch_add(dlht_entries, Ordering::Relaxed);
        self.dcache.obs.event(|| dc_obs::TraceEvent::NsTeardown {
            entries: dlht_entries,
            pccs: pccs_detached as u32,
        });
        drop(ns);
        Some(TeardownReport {
            dlht_entries,
            dlht_bytes,
            pccs_detached,
            pcc_lines,
            nanos: start.elapsed().as_nanos() as u64,
        })
    }

    /// Drops every unpinned dentry and flushes all PCCs and, if the root
    /// file system is a memfs, its page cache: the cold-cache reset used
    /// by Table 2.
    pub fn drop_caches(&self) {
        self.dcache.drop_unused();
        self.dcache.flush_all_pccs();
        for ns in self.namespaces.read().values() {
            for m in ns.mounts_snapshot() {
                let _ = m.sb.fs.sync();
            }
        }
        let root_mount = self.init_ns.root_mount();
        if let Some(memfs) = crate::kernel::as_memfs(&root_mount.sb.fs) {
            memfs.disk().drop_caches();
        }
    }

    /// Applies memory pressure: the dcache reclaims until its
    /// [reclaimable footprint](Dcache::reclaimable_bytes) fits
    /// `budget_bytes` (best effort — pinned objects survive). Returns the
    /// bytes freed. This is the `echo N > drop_caches`-with-a-budget analog
    /// the fault and pressure experiments drive.
    pub fn memory_pressure(&self, budget_bytes: u64) -> u64 {
        self.dcache.shrink_to_bytes(budget_bytes)
    }

    /// Resets every statistics counter (between experiment phases): each
    /// metric source, [registered](Kernel::register_metric_source) ones
    /// included, and the recorder.
    pub fn reset_stats(&self) {
        for source in self.sources.lock().iter() {
            source.reset();
        }
        self.dcache.obs.reset();
    }

    /// Adds a [`MetricSource`] to the kernel's list, after the ones
    /// already there. Used by components layered above the syscall
    /// surface (the metadata server registers its counters and latency
    /// histograms here).
    pub fn register_metric_source(&self, source: Arc<dyn MetricSource>) {
        self.sources.lock().push(source);
    }

    /// The kernel-wide observability recorder (disabled unless
    /// [`KernelBuilder::observability`] was used).
    pub fn obs(&self) -> &Recorder {
        &self.dcache.obs
    }

    /// A snapshot of the whole stack: every metric source in list order,
    /// plus — when observability is enabled — the recorder's event
    /// counters and latency histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::collect(&self.sources.lock(), &self.dcache.obs)
    }
}

/// What a [`Kernel::destroy_namespace`] teardown reclaimed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TeardownReport {
    /// Live DLHT entries retired with the namespace's table.
    pub dlht_entries: u64,
    /// Bytes of DLHT structure (bucket array + groups)
    /// freed once the last table handle drops and epochs drain.
    pub dlht_bytes: u64,
    /// PCC instances detached from their credentials.
    pub pccs_detached: u64,
    /// Occupied PCC lines those instances held.
    pub pcc_lines: u64,
    /// Wall-clock nanoseconds the teardown took (map removals and
    /// accounting only — the bulk free happens off this path, at epoch
    /// drain).
    pub nanos: u64,
}

impl Drop for Kernel {
    /// Parent and child dentries hold each other (the child map, the
    /// parent edge), and a mount pins its mountpoint: nothing but
    /// unhashing parts them. Without this every kernel ever built stays
    /// resident with its tree, its inodes and, through them, its disk.
    fn drop(&mut self) {
        for (_, sb) in self.superblocks.get_mut().drain(..) {
            self.dcache.unhash_subtree(&sb.root);
        }
    }
}

/// Downcasts a file system to memfs (cold-cache plumbing).
pub(crate) fn as_memfs(fs: &Arc<dyn FileSystem>) -> Option<&MemFs> {
    fs.as_any().downcast_ref::<MemFs>()
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("config", &self.dcache.config)
            .field("lsms", &self.security.module_names())
            .field("dentries", &self.dcache.live())
            .finish()
    }
}
