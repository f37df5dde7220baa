//! Umbrella crate for the directory-cache reproduction workspace.
//!
//! Re-exports the public API of every member crate so the examples and
//! cross-crate integration tests have a single import surface. See
//! `README.md` for the repository tour and `DESIGN.md` for the system
//! inventory.

pub use dc_blockdev as blockdev;
pub use dc_cred as cred;
pub use dc_fault as fault;
pub use dc_fs as fs;
pub use dc_sighash as sighash;
pub use dc_vfs as vfs;
pub use dc_workloads as workloads;
pub use dcache_core as dcache;

pub use dc_vfs::{Kernel, KernelBuilder, OpenFlags, Process};
pub use dcache_core::{DcacheConfig, Dentry};
