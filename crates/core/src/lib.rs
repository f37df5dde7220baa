//! The optimized directory cache — the primary contribution of
//! *How to Get More Value From Your File System Directory Cache* (SOSP '15).
//!
//! This crate contains the data structures and coherence machinery the
//! paper adds to (and around) a Linux-style dcache:
//!
//! | Paper concept | Here |
//! |---|---|
//! | `dentry` + hierarchy + per-parent hash index | [`Dentry`], [`DentryState`] |
//! | Direct Lookup Hash Table (DLHT), §3.1 | [`Dlht`] |
//! | Prefix Check Cache (PCC), §3.1 | [`Pcc`] |
//! | 240-bit path signatures, §3.3 | re-exported from `dc-sighash` |
//! | Coherence: per-dentry `seq`, global `invalidation` counter, `rename_lock`, subtree shootdowns, §3.2 | [`Dcache`], [`SeqLock`] |
//! | Directory completeness (`DIR_COMPLETE`), §5.1 | dentry flags + [`Dcache`] helpers |
//! | Negative and deep-negative dentries, §5.2 | [`DentryState::Negative`], [`NegKind`] |
//! | LRU + bottom-up eviction | [`Dcache::shrink`], [`Dcache::drop_unused`] |
//! | Memory-pressure reclaim (Linux shrinker analog) | [`Dcache::reclaimable_bytes`], [`Dcache::shrink_to_bytes`] |
//! | Epoch pin, accounted once per outermost pin | [`Dcache::pin`] |
//! | Feature toggles (baseline ⇄ optimized ⇄ ablations) | [`DcacheConfig`] |
//! | The counters behind `hit%` / `neg%` (Tables 1–2), one line each | [`DcacheStats`], a `dc_obs::counters!` block ([`Counter`] is `dc-obs`'s, re-exported) |
//!
//! The *policy* of when to walk which path lives in `dc-vfs`; this crate is
//! the mechanism layer and is deliberately independent of path-walk logic
//! so the same structures serve both the baseline (component-at-a-time)
//! and optimized (single-hash-lookup) walkers.

pub mod admission;
mod cache;
mod config;
mod dentry;
mod dlht;
pub mod dsync;
pub mod fasthash;
mod inode;
mod lru;
#[cfg(feature = "dst")]
pub mod model;
mod pcc;
mod seqlock;
pub mod snapslab;
mod stats;

pub use admission::{MemoryGate, Verdict};
pub use cache::{Dcache, NsId};
pub use config::DcacheConfig;
pub use dentry::{
    Dentry, DentryId, DentryKind, DentrySnap, DentryState, NegKind, FLAG_DIR_COMPLETE,
};
pub use dlht::{Dlht, DlhtFootprint};
pub use inode::{Inode, SbId};
pub use lru::EvictOutcome;
pub use pcc::Pcc;
pub use seqlock::{SeqCell, SeqCount, SeqLock, SeqWriteGuard};
pub use stats::{Counter, DcacheStats, SpaceReport};

pub use dc_sighash::{HashKey, HashState, Signature};
