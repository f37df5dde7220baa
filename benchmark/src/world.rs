//! A world: one kernel plus the index of what the seeded tree builder
//! put in it. Built through the public syscall surface only.

use dc_fs::{FileSystem, MemFs};
use dc_obs::ObsConfig;
use dc_vfs::{Kernel, KernelBuilder, OpenFlags, Process};
use dcache_core::{DcacheConfig, NsId};
use std::sync::Arc;

/// Which kernel a world is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// `DcacheConfig::optimized()` — the configuration under test.
    Optimized,
    /// `DcacheConfig::baseline()` — the component-at-a-time comparator,
    /// on the same substrate as the optimized world.
    Baseline,
    /// Baseline again, for the result oracle: where a workload charges
    /// device latency this one charges none (it checks answers, not time).
    Oracle,
    /// Optimized, with `KernelBuilder::observability` on.
    OptimizedObs,
}

/// A directory the builder made.
#[derive(Debug, Clone)]
pub struct DirRec {
    /// Absolute path.
    pub path: String,
    /// Its inode number.
    pub ino: u64,
}

/// A regular file the builder made.
#[derive(Debug, Clone)]
pub struct FileRec {
    /// Absolute path.
    pub path: String,
    /// Index of its directory in [`World::dirs`].
    pub dir: u32,
    /// Its inode number.
    pub ino: u64,
    /// Byte offset of the final component in `path`.
    pub name_at: u32,
}

impl FileRec {
    /// The final component.
    pub fn name(&self) -> &str {
        &self.path[self.name_at as usize..]
    }
}

/// One kernel and the index of its tree.
pub struct World {
    /// The kernel under test.
    pub kernel: Arc<Kernel>,
    /// `procs[0]` is init (root credentials); workloads append users.
    pub procs: Vec<Arc<Process>>,
    /// Directories, parents before children.
    pub dirs: Vec<DirRec>,
    /// Regular files.
    pub files: Vec<FileRec>,
    /// The init namespace's id (keys the DLHT and the PCCs).
    pub ns: NsId,
}

impl World {
    /// Builds the kernel for `kind` from `tune`d presets. `root_fs`
    /// replaces the `KernelBuilder`'s default root when given. The
    /// signature key is seeded, so table placement — and with it every
    /// count the program makes — repeats for a given `--seed`.
    pub fn new(
        kind: KernelKind,
        seed: u64,
        tune: impl Fn(DcacheConfig) -> DcacheConfig,
        root_fs: Option<Arc<dyn FileSystem>>,
    ) -> World {
        let preset = match kind {
            KernelKind::Baseline | KernelKind::Oracle => DcacheConfig::baseline(),
            KernelKind::Optimized | KernelKind::OptimizedObs => DcacheConfig::optimized(),
        };
        let mut builder = KernelBuilder::new(tune(preset).with_seed(seed));
        if kind == KernelKind::OptimizedObs {
            builder = builder.observability(ObsConfig::default());
        }
        if let Some(fs) = root_fs {
            builder = builder.root_fs(fs);
        }
        let kernel = builder.build().expect("kernel construction");
        let init = kernel.init_process();
        let ns = kernel.init_namespace().id;
        World {
            kernel,
            procs: vec![init],
            dirs: Vec::new(),
            files: Vec::new(),
            ns,
        }
    }

    /// The init process (root credentials).
    pub fn root(&self) -> &Arc<Process> {
        &self.procs[0]
    }

    /// The root file system as the `MemFs` it is.
    pub fn memfs(&self) -> MemFsRef {
        MemFsRef(self.kernel.init_namespace().root_mount().sb.fs.clone())
    }

    /// `mkdir path` (mode 0755); returns its index in [`World::dirs`].
    pub fn mkdir(&mut self, path: String) -> u32 {
        let root = self.procs[0].clone();
        self.kernel.mkdir(&root, &path, 0o755).expect("mkdir");
        let ino = self.kernel.stat(&root, &path).expect("stat new dir").ino;
        self.dirs.push(DirRec { path, ino });
        (self.dirs.len() - 1) as u32
    }

    /// Creates the empty file `name` (mode 0644) in directory `dir`;
    /// returns its index in [`World::files`].
    pub fn create(&mut self, dir: u32, name: &str) -> u32 {
        let root = self.procs[0].clone();
        let path = format!("{}/{}", self.dirs[dir as usize].path, name);
        let fd = self
            .kernel
            .open(&root, &path, OpenFlags::create(), 0o644)
            .expect("create");
        let ino = self.kernel.fstat(&root, fd).expect("fstat new file").ino;
        self.kernel.close(&root, fd).expect("close");
        let name_at = (path.len() - name.len()) as u32;
        self.files.push(FileRec {
            path,
            dir,
            ino,
            name_at,
        });
        (self.files.len() - 1) as u32
    }

    /// Adds a process with plain user credentials; returns its index.
    pub fn add_user(&mut self, uid: u32) -> usize {
        let p = self
            .kernel
            .spawn_with_cred(&self.procs[0], dc_cred::Cred::user(uid, uid));
        self.procs.push(p);
        self.procs.len() - 1
    }
}

/// Keeps the root file system alive while it is used as a [`MemFs`].
pub struct MemFsRef(Arc<dyn FileSystem>);

impl std::ops::Deref for MemFsRef {
    type Target = MemFs;

    fn deref(&self) -> &MemFs {
        self.0
            .as_any()
            .downcast_ref::<MemFs>()
            .expect("every benchmark world is rooted on a MemFs")
    }
}
