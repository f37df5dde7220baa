//! Entry points for the deterministic-schedule model tests in
//! `crates/dst/tests/` (compiled only with the `dst` feature).
//!
//! The models exercise internals whose production call sites sit behind
//! `Dcache`'s locking protocol (`pub(crate)` constructors and raw DLHT
//! bucket ops). This module re-exposes exactly the handles the models
//! need, so the test crate can drive single protocol pieces — one
//! dentry, one table — without standing up a whole cache.

use crate::dentry::{Dentry, DentryState, NegKind};
use crate::dlht::Dlht;
use crate::{DentryId, Signature};
use std::sync::Arc;

/// A detached negative dentry (no parent, seq 0) for protocol models.
pub fn dentry(id: DentryId, name: &str) -> Arc<Dentry> {
    Dentry::new(id, 1, name, None, DentryState::Negative(NegKind::Enoent), 0)
}

/// The rename mutation alone: publishes a snapshot carrying the new
/// name — deliberately *without* bumping the seq counter, so models can
/// compose the publish → bump-seq discipline (and its deliberately
/// broken permutations) themselves.
pub fn rename(d: &Dentry, name: &str) {
    d.set_name_parent(name, None);
}

/// Marks a dentry dead (the unhash flow's liveness flip), so models can
/// race it against lock-free lookups.
pub fn kill(d: &Dentry) {
    d.set_flag(crate::dentry::FLAG_DEAD);
}

/// Raw DLHT bucket insert (production callers go through `Dcache`, which
/// owns the membership protocol).
pub fn dlht_insert(t: &Dlht, sig: Signature, d: &Arc<Dentry>) {
    t.insert_raw(sig, d);
}

/// Raw DLHT bucket removal. The models name a dentry by id; the
/// dcache picks its node by address, through the same copy and CAS.
pub fn dlht_remove(t: &Dlht, sig: &Signature, id: DentryId) {
    t.remove_raw(t.bucket_index(sig), |w| {
        w.upgrade().is_some_and(|d| d.id() == id)
    });
}
