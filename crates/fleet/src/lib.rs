//! A seeded, deterministic multi-tenant fleet simulator (DESIGN.md §14).
//!
//! One kernel hosts a fleet of tenants. Each tenant is a mount namespace
//! (`unshare(CLONE_NEWNS)` over a shared superblock, so tenant trees
//! overlap in the global dentry forest) plus a set of credentials, and
//! belongs to one of three traffic classes:
//!
//! - **hot-web**: skewed stats over a small private hot set plus a slice
//!   of the shared tree, 90% of ops under one hot credential — the
//!   steady resident tenant the caches should serve almost entirely.
//! - **cold-batch**: periodic sequential scans over a larger private
//!   tree, rotating uniformly through its credentials — warm once per
//!   round, cold in between.
//! - **churn-ci**: creates a scratch tree, stats it, deletes it, and
//!   tears its whole namespace down (`Kernel::destroy_namespace`) every
//!   round — the tenant whose lifecycle cost must stay O(tenant).
//!
//! The fleet runs inside a fixed memory budget: after every round the
//! driver applies [`Kernel::memory_pressure`]. Two rules of the dcache
//! keep the fixed overheads proportional to *active* tenants, not fleet
//! size: a tenant namespace's DLHT has at most 2^8 buckets, and the
//! resident PCCs are capped by the budget
//! ([`Dcache::pcc_cap`](dcache_core::Dcache::pcc_cap)).
//!
//! Everything is single-threaded and splitmix64-seeded, so per-class
//! counter attribution (stat deltas around each tenant's batch) is exact
//! and a seed reproduces a run bit-for-bit.

use dc_cred::Cred;
use dc_fault::SplitMix64;
use dc_obs::{LatencyHist, Per};
use dc_vfs::{Kernel, KernelBuilder, MountNamespace, OpenFlags, Process, TeardownReport};
use dcache_core::DcacheConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

dc_obs::keyed_enum! {
    /// Tenant traffic classes, assigned round-robin by tenant index; the
    /// key names the class in tables, JSON and metric keys.
    pub enum TenantClass {
        /// Skewed reads over a small hot set; one hot credential.
        HotWeb = "hot_web",
        /// Periodic sequential scans; uniform credential rotation.
        ColdBatch = "cold_batch",
        /// Create → stat → delete → namespace teardown, every round.
        ChurnCi = "churn_ci",
    }
}

impl TenantClass {
    /// Class of tenant `idx` (round-robin).
    pub fn of(idx: usize) -> TenantClass {
        Self::ALL[idx % Self::ALL.len()]
    }
}

/// Fleet shape and budget.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Run seed (drives every random choice).
    pub seed: u64,
    /// Tenant count — each is one mount namespace.
    pub tenants: usize,
    /// Credentials per tenant.
    pub creds_per_tenant: usize,
    /// Files in each tenant's private tree.
    pub files_per_tenant: usize,
    /// Files in the shared tree every tenant also reads.
    pub shared_files: usize,
    /// Churn rounds over the whole fleet.
    pub rounds: usize,
    /// Lookup ops per tenant per round.
    pub ops_per_tenant: usize,
    /// Fleet-wide budget, bytes. Memory pressure holds the reclaimable
    /// footprint (dentries and DLHT nodes) to it after every round, and
    /// it sizes the resident-PCC cap, the one bound on PCC memory.
    pub mem_budget_bytes: u64,
    /// Per-credential PCC size, bytes (fleets size PCCs down from the
    /// single-tenant 64 KB default).
    pub pcc_bytes: usize,
    /// Record a latency sample every N ops (1 = every op).
    pub sample_every: usize,
}

impl FleetConfig {
    /// CI scale: still 1000+ namespaces and 10k+ creds (the acceptance
    /// floor), with rounds and per-tenant ops trimmed to seconds.
    pub fn quick(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            tenants: 1024,
            creds_per_tenant: 10,
            files_per_tenant: 12,
            shared_files: 64,
            rounds: 3,
            ops_per_tenant: 32,
            mem_budget_bytes: 192 << 20,
            pcc_bytes: 8 * 1024,
            sample_every: 4,
        }
    }

    /// Paper-comparable scale: a bigger fleet, longer churn.
    pub fn full(seed: u64) -> FleetConfig {
        FleetConfig {
            tenants: 1536,
            creds_per_tenant: 12,
            files_per_tenant: 24,
            rounds: 6,
            ops_per_tenant: 96,
            ..FleetConfig::quick(seed)
        }
    }

    /// The dcache configuration this fleet provisions: every paper
    /// optimization, fleet-sized PCCs, and the memory budget.
    pub fn dcache(&self) -> DcacheConfig {
        let mut cfg = DcacheConfig::optimized().with_mem_budget(self.mem_budget_bytes as usize);
        cfg.pcc_bytes = self.pcc_bytes;
        cfg
    }
}

/// Per-class tally, exported as labeled metrics and in [`FleetReport`].
#[derive(Debug)]
pub struct ClassTally {
    /// The class this tally covers.
    pub class: TenantClass,
    /// Tenants in the class.
    pub tenants: usize,
    /// Lookup ops issued.
    pub ops: u64,
    /// `stats.lookups` delta attributed to this class.
    pub lookups: u64,
    /// `stats.miss_fs` delta attributed to this class.
    pub miss_fs: u64,
    /// Sampled per-op latency.
    pub hist: LatencyHist,
    /// Namespace teardowns executed by this class's tenants.
    pub teardowns: u64,
    /// Wall-clock nanoseconds spent in those teardowns.
    pub teardown_ns: u64,
    /// DLHT entries retired by those teardowns.
    pub teardown_entries: u64,
    /// Resident bytes attributed to this class at end of churn (tenant
    /// DLHT footprints + occupied PCC lines).
    pub resident_bytes: u64,
}

impl ClassTally {
    fn new(class: TenantClass) -> ClassTally {
        ClassTally {
            class,
            tenants: 0,
            ops: 0,
            lookups: 0,
            miss_fs: 0,
            hist: LatencyHist::new(),
            teardowns: 0,
            teardown_ns: 0,
            teardown_entries: 0,
            resident_bytes: 0,
        }
    }

    /// Hit rate over this class's lookups (fraction that never called
    /// the file system; same definition as `DcacheStats::hit_rate`).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        (1.0 - self.miss_fs as f64 / self.lookups as f64).max(0.0)
    }

    /// Mean teardown cost in microseconds (0 when the class never tears
    /// down).
    pub fn teardown_us(&self) -> f64 {
        if self.teardowns == 0 {
            return 0.0;
        }
        self.teardown_ns as f64 / self.teardowns as f64 / 1e3
    }
}

/// What one fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// The shape that ran.
    pub config: FleetConfig,
    /// Per-class tallies, in [`TenantClass::all`] order.
    pub classes: Vec<ClassTally>,
    /// Peak live namespace count (incl. init).
    pub peak_namespaces: usize,
    /// Distinct credentials created.
    pub creds: usize,
    /// Peak reclaimable footprint observed *after* each round's
    /// pressure pass, bytes.
    pub peak_footprint: u64,
    /// Rounds whose post-pressure footprint still exceeded the budget.
    pub over_budget_rounds: usize,
    /// Peak resident PCC instances observed.
    pub peak_resident_pccs: usize,
    /// PCCs detached by the resident cap over the run.
    pub pcc_evictions: u64,
    /// Reclaimable footprint before any tenant existed, bytes.
    pub baseline_footprint: u64,
    /// Reclaimable footprint after full fleet teardown + drain, bytes.
    pub final_footprint: u64,
    /// DLHT tables still registered after full teardown (must be 1: the
    /// init namespace's).
    pub final_dlht_tables: usize,
    /// PCC instances still attached after full teardown.
    pub final_resident_pccs: usize,
    /// Bytes the fleet failed to return: `final - baseline`, floored at
    /// zero. The teardown gate requires 0.
    pub leaked_bytes: u64,
    /// Total wall-clock seconds for the churn phase.
    pub churn_s: f64,
}

impl FleetReport {
    /// The teardown-completeness gate: every table, PCC, and byte the
    /// fleet allocated came back.
    pub fn teardown_clean(&self) -> bool {
        self.final_dlht_tables == 1 && self.final_resident_pccs <= 1 && self.leaked_bytes == 0
    }
}

dc_obs::counters! {
    /// What one tenant class did.
    pub struct ClassCounters {
        /// Operations driven.
        pub ops = ".ops",
        /// Namespaces torn down.
        pub teardowns = ".teardowns",
    }
}

dc_obs::counters! {
    /// Per-class counters the fleet registers on the kernel (`fleet`
    /// section: `hot_web.ops`, `churn_ci.teardowns`, …). Cleared by
    /// [`Kernel::reset_stats`] like every other registered source.
    pub struct FleetCounters = "fleet" {
        /// The counters, by class.
        pub class: Per<TenantClass, ClassCounters> = "",
    }
}

/// One tenant: a namespace, a driving process, and its credentials.
struct Tenant {
    idx: usize,
    class: TenantClass,
    proc: Arc<Process>,
    ns: Arc<MountNamespace>,
    creds: Vec<Arc<Cred>>,
    /// Private file paths (`/tenants/t{idx}/f{j}`).
    files: Vec<String>,
}

/// The provisioned fleet, ready to churn.
pub struct Fleet {
    /// The kernel hosting the fleet.
    pub kernel: Arc<Kernel>,
    /// Labeled per-class counters (also registered on the kernel).
    pub counters: Arc<FleetCounters>,
    cfg: FleetConfig,
    tenants: Vec<Tenant>,
    shared: Vec<String>,
    rng: SplitMix64,
    baseline_footprint: u64,
}

impl Fleet {
    /// Provisions the kernel, the shared tree, and every tenant.
    pub fn provision(cfg: FleetConfig) -> Fleet {
        let kernel = KernelBuilder::new(cfg.dcache())
            .build()
            .expect("fleet kernel construction");
        let counters = Arc::new(FleetCounters::default());
        kernel.register_metric_source(counters.clone());
        let init = kernel.init_process();
        kernel.mkdir(&init, "/shared", 0o755).unwrap();
        kernel.mkdir(&init, "/tenants", 0o755).unwrap();
        let shared: Vec<String> = (0..cfg.shared_files)
            .map(|j| {
                let p = format!("/shared/s{j}");
                let fd = kernel.open(&init, &p, OpenFlags::create(), 0o644).unwrap();
                kernel.close(&init, fd).unwrap();
                p
            })
            .collect();
        // The leak gate's zero point: everything evictable gone, only
        // the pinned floor (roots, cwds) and the shared tree's freshly
        // re-walked entries remain.
        kernel.dcache.drop_unused();
        let baseline_footprint = kernel.dcache.reclaimable_bytes();

        let seed = cfg.seed;
        let mut fleet = Fleet {
            kernel,
            counters,
            cfg,
            tenants: Vec::new(),
            shared,
            rng: SplitMix64::new(seed),
            baseline_footprint,
        };
        for idx in 0..fleet.cfg.tenants {
            let t = fleet.spawn_tenant(idx);
            fleet.tenants.push(t);
        }
        fleet
    }

    /// Creates tenant `idx`: fork from init, unshare into a fresh
    /// namespace, build the private tree, mint the credentials.
    fn spawn_tenant(&mut self, idx: usize) -> Tenant {
        let k = &self.kernel;
        let proc = k.spawn(&k.init_process());
        let ns = k.unshare_ns(&proc).expect("unshare");
        let class = TenantClass::of(idx);
        let dir = format!("/tenants/t{idx}");
        // The directory may survive a previous incarnation's teardown
        // (churn-ci respawns); only its namespace and caches died.
        let _ = k.mkdir(&proc, &dir, 0o755);
        let files: Vec<String> = (0..self.cfg.files_per_tenant)
            .map(|j| {
                let p = format!("{dir}/f{j}");
                let fd = k.open(&proc, &p, OpenFlags::create(), 0o644).unwrap();
                k.close(&proc, fd).unwrap();
                p
            })
            .collect();
        let creds: Vec<Arc<Cred>> = (0..self.cfg.creds_per_tenant)
            .map(|c| Cred::user(1000 + (idx * self.cfg.creds_per_tenant + c) as u32, 100))
            .collect();
        // Hand the tree to the tenant's primary credential before the
        // (still root-credentialed) process takes on tenant personas.
        k.chown(&proc, &dir, Some(creds[0].uid), Some(100)).unwrap();
        Tenant {
            idx,
            class,
            proc,
            ns,
            creds,
            files,
        }
    }

    /// Runs the configured churn rounds and the final teardown; returns
    /// the full report.
    pub fn run(mut self) -> FleetReport {
        let mut classes: Vec<ClassTally> = TenantClass::ALL
            .iter()
            .copied()
            .map(ClassTally::new)
            .collect();
        for t in &self.tenants {
            classes[t.class.idx()].tenants += 1;
        }
        let mut peak_namespaces = self.kernel.namespace_count();
        let mut peak_footprint = 0u64;
        let mut over_budget_rounds = 0usize;
        let mut peak_resident_pccs = self.kernel.dcache.resident_pccs();
        let churn_start = Instant::now();

        for _round in 0..self.cfg.rounds {
            peak_namespaces = peak_namespaces.max(self.kernel.namespace_count());
            for ti in 0..self.tenants.len() {
                self.drive_tenant(ti, &mut classes);
            }
            peak_resident_pccs = peak_resident_pccs.max(self.kernel.dcache.resident_pccs());
            // The fixed budget: every round ends under pressure.
            self.kernel.memory_pressure(self.cfg.mem_budget_bytes);
            let fp = self.kernel.dcache.reclaimable_bytes();
            peak_footprint = peak_footprint.max(fp);
            if fp > self.cfg.mem_budget_bytes {
                over_budget_rounds += 1;
            }
        }
        let churn_s = churn_start.elapsed().as_secs_f64();

        // End-of-churn resident attribution: each class owns its
        // tenants' DLHT footprints and occupied PCC lines.
        let footprints: std::collections::HashMap<u64, u64> = self
            .kernel
            .dcache
            .ns_footprints()
            .into_iter()
            .map(|(ns, fp)| (ns, fp.total_bytes() as u64))
            .collect();
        for t in &self.tenants {
            let tally = &mut classes[t.class.idx()];
            tally.resident_bytes += footprints.get(&t.ns.id).copied().unwrap_or(0);
            let (_instances, occupied) = self.kernel.dcache.pcc_stats_for_ns(t.ns.id);
            tally.resident_bytes += occupied;
        }

        let pcc_evictions = self
            .kernel
            .dcache
            .stats
            .pcc_evictions
            .load(Ordering::Relaxed);

        // Full fleet teardown: destroy every namespace (O(tenant) each),
        // delete the tenant trees, drop every handle, drain epochs.
        let mut tenants = std::mem::take(&mut self.tenants);
        for t in &tenants {
            if let Some(r) = self.kernel.destroy_namespace(t.ns.id) {
                let tally = &mut classes[t.class.idx()];
                tally.teardowns += 1;
                tally.teardown_ns += r.nanos;
                tally.teardown_entries += r.dlht_entries;
                self.counters.class[t.class]
                    .teardowns
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let init = self.kernel.init_process();
        for t in &tenants {
            for f in &t.files {
                let _ = self.kernel.unlink(&init, f);
            }
            let _ = self.kernel.rmdir(&init, &format!("/tenants/t{}", t.idx));
        }
        tenants.clear(); // drops procs, namespaces, memoized DLHT handles, creds
        let (final_footprint, final_dlht_tables, final_resident_pccs) = self.drain();

        FleetReport {
            classes,
            peak_namespaces,
            creds: self.cfg.tenants * self.cfg.creds_per_tenant,
            peak_footprint,
            over_budget_rounds,
            peak_resident_pccs,
            pcc_evictions,
            baseline_footprint: self.baseline_footprint,
            final_footprint,
            final_dlht_tables,
            final_resident_pccs,
            leaked_bytes: final_footprint.saturating_sub(self.baseline_footprint),
            churn_s,
            config: self.cfg,
        }
    }

    /// One tenant's round: issue the class mix, attribute the stat
    /// deltas, sample latency. Churn-ci additionally cycles its whole
    /// namespace.
    fn drive_tenant(&mut self, ti: usize, classes: &mut [ClassTally]) {
        let lookups0 = self.kernel.dcache.stats.lookups.load(Ordering::Relaxed);
        let miss0 = self.kernel.dcache.stats.miss_fs.load(Ordering::Relaxed);
        let class = self.tenants[ti].class;
        let ops = match class {
            TenantClass::HotWeb => self.drive_hot(ti, classes),
            TenantClass::ColdBatch => self.drive_cold(ti, classes),
            TenantClass::ChurnCi => self.drive_churn(ti, classes),
        };
        let tally = &mut classes[class.idx()];
        tally.ops += ops;
        tally.lookups += self.kernel.dcache.stats.lookups.load(Ordering::Relaxed) - lookups0;
        tally.miss_fs += self.kernel.dcache.stats.miss_fs.load(Ordering::Relaxed) - miss0;
        self.counters.class[class]
            .ops
            .fetch_add(ops, Ordering::Relaxed);
    }

    /// Stats `path` as the tenant's current persona, sampling latency
    /// 1-in-N.
    fn timed_stat(&self, ti: usize, path: &str, op_no: usize, classes: &mut [ClassTally]) {
        let t = &self.tenants[ti];
        if op_no.is_multiple_of(self.cfg.sample_every) {
            let start = Instant::now();
            let _ = self.kernel.stat(&t.proc, path);
            classes[t.class.idx()]
                .hist
                .record(start.elapsed().as_nanos() as u64);
        } else {
            let _ = self.kernel.stat(&t.proc, path);
        }
    }

    fn drive_hot(&mut self, ti: usize, classes: &mut [ClassTally]) -> u64 {
        let n = self.cfg.ops_per_tenant;
        let ncreds = self.tenants[ti].creds.len();
        let nfiles = self.tenants[ti].files.len();
        for op in 0..n {
            // 90% of ops run as the hot credential, the rest rotate.
            let c = if self.rng.next_u64() % 10 < 9 {
                0
            } else {
                1 + (self.rng.next_u64() as usize % (ncreds - 1).max(1))
            };
            // 3 in 4 ops hit the private hot set, 1 in 4 the shared tree.
            let private = self.rng.next_u64() % 4 < 3;
            let k = if private {
                self.rng.skewed(nfiles)
            } else {
                self.rng.skewed(self.shared.len())
            };
            let t = &self.tenants[ti];
            t.proc.set_cred(t.creds[c % ncreds].clone());
            let path = if private {
                t.files[k].clone()
            } else {
                self.shared[k].clone()
            };
            self.timed_stat(ti, &path, op, classes);
        }
        n as u64
    }

    fn drive_cold(&mut self, ti: usize, classes: &mut [ClassTally]) -> u64 {
        let n = self.cfg.ops_per_tenant;
        for op in 0..n {
            let c = self.rng.next_u64() as usize;
            let t = &self.tenants[ti];
            t.proc.set_cred(t.creds[c % t.creds.len()].clone());
            // Sequential scan: walk the private tree in order, spilling
            // into the shared tree when the scan wraps.
            let path = if op < t.files.len() {
                t.files[op].clone()
            } else {
                self.shared[(op - t.files.len()) % self.shared.len()].clone()
            };
            self.timed_stat(ti, &path, op, classes);
        }
        n as u64
    }

    /// CI tenant: scratch tree create → stat → delete, then the whole
    /// namespace dies and the tenant respawns into a fresh one.
    fn drive_churn(&mut self, ti: usize, classes: &mut [ClassTally]) -> u64 {
        let n = self.cfg.ops_per_tenant;
        let idx = self.tenants[ti].idx;
        let scratch = format!("/tenants/t{idx}/build");
        {
            let t = &self.tenants[ti];
            t.proc.set_cred(t.creds[0].clone());
            self.kernel.mkdir(&t.proc, &scratch, 0o755).unwrap();
        }
        let artifacts = (n / 4).max(1);
        for j in 0..artifacts {
            let t = &self.tenants[ti];
            let p = format!("{scratch}/o{j}");
            let fd = self
                .kernel
                .open(&t.proc, &p, OpenFlags::create(), 0o644)
                .unwrap();
            self.kernel.close(&t.proc, fd).unwrap();
        }
        for op in 0..n {
            let p = format!("{scratch}/o{}", self.rng.next_u64() as usize % artifacts);
            self.timed_stat(ti, &p, op, classes);
        }
        for j in 0..artifacts {
            let t = &self.tenants[ti];
            self.kernel
                .unlink(&t.proc, &format!("{scratch}/o{j}"))
                .unwrap();
        }
        {
            let t = &self.tenants[ti];
            self.kernel.rmdir(&t.proc, &scratch).unwrap();
        }
        // The CI run is over: the namespace — DLHT, PCCs and all — dies,
        // and the next round gets a fresh one. O(tenant), not O(fleet).
        let dead_ns = self.tenants[ti].ns.id;
        if let Some(r) = self.kernel.destroy_namespace(dead_ns) {
            self.absorb_teardown(ti, &r, classes);
        }
        let respawn = self.spawn_tenant(idx);
        self.tenants[ti] = respawn;
        n as u64
    }

    fn absorb_teardown(&self, ti: usize, r: &TeardownReport, classes: &mut [ClassTally]) {
        let class = self.tenants[ti].class;
        let tally = &mut classes[class.idx()];
        tally.teardowns += 1;
        tally.teardown_ns += r.nanos;
        tally.teardown_entries += r.dlht_entries;
        self.counters.class[class]
            .teardowns
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Post-teardown drain: evict everything evictable, flush the epoch
    /// collector until retired garbage stops trickling back, and read
    /// the final occupancy numbers.
    fn drain(&self) -> (u64, usize, usize) {
        for _ in 0..4 {
            self.kernel.dcache.drop_unused();
            self.kernel.dcache.flush_all_pccs();
            crossbeam_epoch::pin().flush();
            crossbeam_epoch::pin().flush();
        }
        (
            self.kernel.dcache.reclaimable_bytes(),
            self.kernel.dcache.dlht_count(),
            self.kernel.dcache.resident_pccs(),
        )
    }
}

/// Provisions and runs a fleet in one call.
pub fn run(cfg: FleetConfig) -> FleetReport {
    Fleet::provision(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> FleetConfig {
        FleetConfig {
            tenants: 12,
            creds_per_tenant: 3,
            files_per_tenant: 4,
            shared_files: 8,
            rounds: 2,
            ops_per_tenant: 8,
            // 16 × 16 × 4 KiB: a resident-PCC cap of 16.
            mem_budget_bytes: 1 << 20,
            pcc_bytes: 4 * 1024,
            sample_every: 2,
            seed,
        }
    }

    #[test]
    fn tiny_fleet_runs_clean() {
        let report = run(tiny(7));
        assert_eq!(report.classes.len(), 3);
        for tally in &report.classes {
            assert!(tally.ops > 0, "{:?} issued no ops", tally.class);
            assert!(tally.lookups > 0);
        }
        assert!(report.peak_namespaces >= 12);
        assert_eq!(report.creds, 36);
        assert!(
            report.classes[TenantClass::ChurnCi.idx()].teardowns
                >= report.classes[TenantClass::ChurnCi.idx()].tenants as u64,
            "churn tenants must tear down at least once per round"
        );
        assert!(report.teardown_clean(), "leak: {report:?}");
    }

    #[test]
    fn runs_are_deterministic_in_ops() {
        let a = run(tiny(42));
        let b = run(tiny(42));
        for (x, y) in a.classes.iter().zip(b.classes.iter()) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.lookups, y.lookups);
            assert_eq!(x.miss_fs, y.miss_fs);
        }
    }

    #[test]
    fn pcc_cap_evicts_under_cred_pressure() {
        let fleet = Fleet::provision(tiny(3));
        assert_eq!(fleet.kernel.dcache.pcc_cap(), 16);
        let report = fleet.run();
        assert!(
            report.peak_resident_pccs <= 16 + 1,
            "cap breached: {} resident",
            report.peak_resident_pccs
        );
        // 36 creds × fresh PCCs per round vs a cap of 16: the policy
        // must have detached something.
        assert!(report.pcc_evictions > 0);
    }

    #[test]
    fn per_class_counters_reset_with_kernel_stats() {
        let fleet = Fleet::provision(tiny(9));
        let kernel = fleet.kernel.clone();
        let counters = fleet.counters.clone();
        let report = fleet.run();
        assert!(report.teardown_clean());
        assert!(counters.counters().iter().any(|(_, v)| *v > 0));
        let snap = kernel.metrics_snapshot();
        let fleet = snap.sections.iter().find(|s| s.name == "fleet").unwrap();
        let keys: Vec<&str> = fleet.counters.iter().map(|(k, _)| &**k).collect();
        #[rustfmt::skip]
        assert_eq!(keys, [
            "hot_web.ops", "hot_web.teardowns", "cold_batch.ops", "cold_batch.teardowns",
            "churn_ci.ops", "churn_ci.teardowns",
        ]);
        assert_eq!(fleet.counters, counters.counters());
        kernel.reset_stats();
        assert!(counters.counters().iter().all(|(_, v)| *v == 0));
    }
}
