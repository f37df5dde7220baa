//! The virtual file system layer: path walking and the syscall surface.
//!
//! This crate assembles the substrates (`dc-fs`, `dc-cred`, `dcache-core`)
//! into a kernel-shaped object with a POSIX-flavored, path-based syscall
//! API — the environment the paper's evaluation drives. Two path
//! resolvers coexist, selected by [`dcache_core::DcacheConfig`]:
//!
//! - [`walk`] — the **slowpath**: a faithful Linux-style component-at-a-
//!   time walk (per-component hash-table lookup + permission check),
//!   optimistically synchronized against the global rename seqlock with a
//!   locked fallback, exactly the structure of §2.2. In the baseline
//!   configuration this is the *only* resolver — it is the paper's
//!   "unmodified kernel" comparator.
//! - [`fastwalk`] — the **fastpath** of §3: hash the whole canonical path
//!   (resuming from the anchor dentry's stored state), one DLHT probe, one
//!   PCC probe, one final-object permission check. Any miss falls back to
//!   the slowpath, which repopulates the caches under the §3.2 coherence
//!   protocol.
//!
//! The syscall layer ([`Kernel`]) implements open/stat/access/readdir/
//! mkdir/unlink/rename/chmod/… plus the `*at()` variants, mounts and bind
//! mounts, mount namespaces and chroot. Each syscall runs inside
//! [`Recorder::time`] under its class: with observability on, that is one
//! sample in the class's latency histogram (the Figure 1 experiment sums
//! them); off, no clock is read.
//!
//! # Examples
//!
//! ```
//! use dc_vfs::{KernelBuilder, OpenFlags};
//! use dcache_core::DcacheConfig;
//!
//! let kernel = KernelBuilder::new(DcacheConfig::optimized()).build().unwrap();
//! let proc0 = kernel.init_process();
//! kernel.mkdir(&proc0, "/etc", 0o755).unwrap();
//! let fd = kernel
//!     .open(&proc0, "/etc/passwd", OpenFlags::create(), 0o644)
//!     .unwrap();
//! kernel.write_fd(&proc0, fd, b"root:x:0:0").unwrap();
//! kernel.close(&proc0, fd).unwrap();
//! assert_eq!(kernel.stat(&proc0, "/etc/passwd").unwrap().size, 10);
//! ```

mod fastwalk;
mod handle;
mod icache;
mod kernel;
mod mount;
mod namespace;
mod path;
mod process;
mod serve;
mod syscalls;
mod walk;
mod warm;

pub use handle::{Handle, OpenFlags};
pub use kernel::{Kernel, KernelBuilder, TeardownReport};
pub use mount::{Mount, MountFlags, SuperBlock};
pub use namespace::MountNamespace;
pub use path::{split_path, PathRef, WalkResult};
pub use process::Process;
pub use serve::{LookupReply, SigLookup};
pub use warm::{WarmFallback, WarmRestartOutcome};

pub use dc_cred::{Cred, CredBuilder, SecurityStack};
pub use dc_fs::{
    DirEntry, FileSystem, FileType, FsError, FsResult, InodeAttr, SetAttr, WarmEntry, WarmLoad,
    WarmReject,
};
pub use dc_obs::{
    EventKind, HistSummary, LookupOutcome, MetricsSnapshot, ObsConfig, OpClass, Recorder,
    TraceEvent, TraceRing,
};
pub use dcache_core::{Dcache, DcacheConfig};
