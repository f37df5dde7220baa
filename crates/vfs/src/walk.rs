//! The slowpath: Linux-style component-at-a-time path resolution.
//!
//! This is both the baseline under evaluation ("unmodified kernel") and
//! the fallback + cache-filler for the fastpath. Structure (§2.2, §3.2):
//!
//! - per component: permission check on the directory, per-parent hash
//!   lookup, miss → low-level FS call under the parent's `dir_lock`;
//! - optimistic synchronization: the walk validates against the global
//!   rename seqlock and retries (bounded, then excludes writers) — the
//!   RCU-walk/ref-walk split;
//! - while walking (optimized configurations) it computes the running
//!   path signature and queues the DLHT / PCC publications the core's
//!   [`Publications`] apply once the walk validated (§3.2);
//! - negative dentries, deep negative chains, directory-completeness
//!   short-circuits, and symlink alias creation all happen here, policy
//!   driven by [`dcache_core::DcacheConfig`].

use crate::kernel::Kernel;
use crate::mount::Mount;
use crate::namespace::MountNamespace;
use crate::path::{split_path, ParsedPath, PathRef, WalkRef, WalkResult};
use crate::process::Process;
use dc_cred::{Cred, PermCtx, MAY_EXEC};
use dc_fs::{FileSystem, FileType, FsError, FsResult};
use dc_obs::{LookupOutcome, TraceEvent};
use dcache_core::{
    Cached, Dentry, DentryKind, DentryState, HashState, Inode, NegKind, Pcc, Publications,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum nested symlink depth (Linux's limit).
const MAX_LINK_DEPTH: u32 = 40;

/// Bounded optimistic retries before excluding renames.
const MAX_OPTIMISTIC: u32 = 4;

/// Result of a parent-mode resolution (for create/unlink/rename).
pub(crate) struct ParentResult {
    /// The parent directory (always positive).
    pub parent: WalkResult,
    /// The final component name.
    pub name: String,
    /// The path had a trailing slash — the target must be a directory.
    pub require_dir: bool,
}

impl Kernel {
    /// Resolves `path` for `proc` into a result the caller keeps — an
    /// open handle, a new cwd or root, a mutation that runs after the
    /// lookup. See [`resolve_with`](Kernel::resolve_with).
    pub(crate) fn resolve(
        &self,
        proc: &Process,
        path: &str,
        follow_last: bool,
    ) -> FsResult<WalkResult> {
        self.resolve_with(proc, None, path, follow_last, |r| Ok(r.into_owned()))
    }

    /// The resolve entry point (fastpath first when configured): resolves
    /// `path` — a relative one from `start` (the `*at()` family's
    /// directory handle) or the process cwd — and hands the result to
    /// `consume` with its mount borrowed. On a fastpath hit `consume`
    /// runs under the lookup's epoch pin, so it must be short and must
    /// not block; a caller that keeps the result takes its own reference
    /// there ([`WalkRef::into_owned`]).
    pub(crate) fn resolve_with<T>(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
        follow_last: bool,
        consume: impl FnOnce(WalkRef<'_>) -> FsResult<T>,
    ) -> FsResult<T> {
        let parsed = split_path(path)?;
        let t0 = self.lookup_start();
        if self.dcache.config.fastpath {
            // Pin the reclamation epoch once for the whole resolution:
            // every snapshot/chain read of the fastpath nests under this
            // guard, and so does `consume` — the mount it borrows stays
            // alive without a reference of its own.
            let guard = self.dcache.pin();
            if let Some(hit) = self.fast_resolve(proc, start, &parsed, follow_last, &guard) {
                self.lookup_end(t0, &hit);
                return consume(hit?);
            }
        }
        let out = self.slow_resolve(proc, start, &parsed, |w, parsed| {
            w.run_full(parsed, follow_last)
        });
        self.lookup_end(t0, &out);
        let WalkResult {
            mount,
            dentry,
            inode,
        } = out?;
        consume(WalkResult {
            mount: &mount,
            dentry,
            inode,
        })
    }

    /// Resolves everything but the final component, from `start` as
    /// [`resolve_with`](Kernel::resolve_with) does; the caller mutates
    /// `name` under the returned parent.
    pub(crate) fn resolve_parent(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        path: &str,
    ) -> FsResult<ParentResult> {
        let parsed = split_path(path)?;
        let t0 = self.lookup_start();
        let out = self.slow_resolve(proc, start, &parsed, |w, parsed| w.run_parent(parsed));
        self.lookup_end(t0, &out);
        out
    }

    /// Accounts the start of one path lookup (counter + span event);
    /// returns the span clock when tracing is on.
    pub(crate) fn lookup_start(&self) -> Option<std::time::Instant> {
        self.dcache.stats.lookups.fetch_add(1, Ordering::Relaxed);
        self.dcache.obs.event(|| TraceEvent::LookupStart);
        self.dcache.obs.now()
    }

    /// Closes the span [`lookup_start`](Kernel::lookup_start) opened.
    pub(crate) fn lookup_end<T>(&self, t0: Option<std::time::Instant>, out: &FsResult<T>) {
        if let Some(t0) = t0 {
            let outcome = lookup_outcome(out);
            let ns = t0.elapsed().as_nanos() as u64;
            self.dcache
                .obs
                .event(|| TraceEvent::LookupEnd { outcome, ns });
        }
    }

    /// One LSM-stack permission check.
    pub(crate) fn permission(
        &self,
        cred: &Cred,
        inode: &Inode,
        mask: u32,
        path: Option<&str>,
    ) -> FsResult<()> {
        let attr = inode.attr();
        self.security
            .permission(cred, &PermCtx { attr: &attr, path }, mask)
    }

    /// Whether negative dentries may be created on `fs` (§5.2).
    pub(crate) fn negatives_allowed(&self, fs: &Arc<dyn FileSystem>) -> bool {
        let c = &self.dcache.config;
        if !c.negative_dentries {
            return false;
        }
        if fs.is_pseudo() && !c.neg_in_pseudo {
            return false;
        }
        true
    }

    /// Reconstructs the canonical namespace path of a position (used for
    /// path-sensitive LSMs and `getcwd`).
    pub(crate) fn vfs_path_of(&self, at: &PathRef) -> String {
        let mut names: Vec<Arc<str>> = Vec::new();
        let mut at = at.clone();
        while let Some((up, named)) = at.step_up() {
            if named {
                names.push(at.dentry.name());
            }
            at = up;
        }
        if names.is_empty() {
            return "/".to_string();
        }
        let mut s = String::new();
        for n in names.iter().rev() {
            s.push('/');
            s.push_str(n);
        }
        s
    }

    /// The resumable hash state of a position (§3.1): the key's root
    /// state at the namespace root, elsewhere the dentry's stored state —
    /// if the walk that signed it came through this mount. A dentry under
    /// a bind mount has a path per mount and one slot; resuming from the
    /// other path's state would hash a path nobody asked for.
    pub(crate) fn state_at(
        &self,
        ns: &MountNamespace,
        mount: &Mount,
        dentry: &Arc<Dentry>,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<HashState> {
        if ns.is_root(mount, dentry, guard) {
            return Some(self.dcache.key.root_state());
        }
        dentry.hash_state_via(mount.id)
    }

    /// [`state_at`](Kernel::state_at), rebuilt when the dentry holds none
    /// for this mount by climbing to the nearest ancestor that does
    /// (`None` when its path runs past the key schedule). It stores
    /// nothing: a slow walk queues the state it rebuilt for its anchor as
    /// it queues every other, to be published once it validated.
    pub(crate) fn rebuild_hash_state(
        &self,
        ns: &MountNamespace,
        at: &PathRef,
        guard: &crossbeam_epoch::Guard,
    ) -> Option<HashState> {
        let mut names: Vec<Arc<str>> = Vec::new();
        let mut pos = at.clone();
        let base = loop {
            // No path string leads below a mountpoint, into an unmounted
            // tree or into a removed directory (a cwd or a root may still
            // sit in any of them): nothing to resume from, and nothing
            // the walk may publish.
            let (mount, d) = (&pos.mount, &pos.dentry);
            let covered = ns.mount_at(mount.id, d.id()).is_some();
            if covered || d.is_dead() || ns.mount_by_id(mount.id).is_none() {
                return None;
            }
            if let Some(h) = self.state_at(ns, mount, d, guard) {
                break h;
            }
            // The top of a mounted namespace is its root, which has a
            // state: running out of parents means a detached tree.
            let (up, named) = pos.step_up()?;
            if named {
                names.push(pos.dentry.name());
            }
            pos = up;
        };
        names
            .iter()
            .rev()
            .try_fold(base, |h, n| self.dcache.key.extend(&h, n.as_bytes()))
    }

    /// The slow walk's retry loop around `run` — [`SlowWalk::run_full`]
    /// or [`SlowWalk::run_parent`], on the path handed to it (the whole
    /// one, or its last component when the fastpath vouches for the
    /// directory).
    fn slow_resolve<T>(
        &self,
        proc: &Process,
        start: Option<&PathRef>,
        parsed: &ParsedPath<'_>,
        run: impl Fn(&mut SlowWalk<'_>, &ParsedPath<'_>) -> FsResult<T>,
    ) -> FsResult<T> {
        self.dcache.stats.slow_walks.fetch_add(1, Ordering::Relaxed);
        let mut attempts = 0;
        loop {
            attempts += 1;
            let _serial = self
                .dcache
                .config
                .lock_walk
                .then(|| self.lock_walk_mutex.lock());
            if attempts > MAX_OPTIMISTIC {
                // Contended with structural changes: exclude writers.
                let _w = self.dcache.rename_lock.write();
                let mut w = SlowWalk::new(self, proc, start, parsed.absolute);
                let out = run(&mut w, parsed);
                // No concurrent rename is possible; publish directly.
                w.queue.apply(|| w.ns.dlht_handle(&self.dcache));
                return out;
            }
            let rseq = self.dcache.rename_lock.read_begin();
            // Start at the final component's directory when the fastpath
            // still vouches for it, at the anchor otherwise.
            let resumed = self.fast_parent(proc, start, parsed);
            let (start, parsed) = match &resumed {
                Some((dir, last)) => (Some(dir), last),
                None => (start, parsed),
            };
            let mut w = SlowWalk::new(self, proc, start, parsed.absolute);
            let out = run(&mut w, parsed);
            if self.dcache.rename_lock.read_retry(rseq) {
                self.dcache
                    .stats
                    .slow_retries
                    .fetch_add(1, Ordering::Relaxed);
                self.dcache.obs.event(|| TraceEvent::SeqRetry);
                continue;
            }
            w.queue.apply(|| w.ns.dlht_handle(&self.dcache));
            return out;
        }
    }
}

/// Maps a resolution result onto the span-trace outcome taxonomy:
/// provable absence (`ENOENT`/`ENOTDIR`) is negative, anything else
/// that failed is an error.
fn lookup_outcome<T>(out: &FsResult<T>) -> LookupOutcome {
    match out {
        Ok(_) => LookupOutcome::Positive,
        Err(FsError::NoEnt) | Err(FsError::NotDir) => LookupOutcome::Negative,
        Err(_) => LookupOutcome::Error,
    }
}

struct SlowWalk<'k> {
    k: &'k Kernel,
    cred: Arc<Cred>,
    ns: Arc<MountNamespace>,
    root: PathRef,
    cur: PathRef,
    /// Fastpath-support machinery enabled (publishing, hashing).
    fast: bool,
    /// Running literal-path hash state; `None` (the fastpath off, or the
    /// path past the key schedule) disables DLHT publishing.
    hstate: Option<HashState>,
    /// Set while the literal path has diverged from the canonical path
    /// (inside a symlink'd suffix): the tail of the alias chain (§4.2).
    alias_parent: Option<Arc<Dentry>>,
    /// The process root is the namespace root: an absolute symlink body
    /// means to this walk what it means to everyone it publishes for.
    plain_root: bool,
    /// Canonical path of `cur`, maintained only when an LSM needs paths.
    path_str: Option<String>,
    link_depth: u32,
    /// Components stepped so far (the `SlowStep` span payload).
    steps: u32,
    queue: Publications<'k>,
}

impl<'k> SlowWalk<'k> {
    fn new(k: &'k Kernel, proc: &Process, start: Option<&PathRef>, absolute: bool) -> Self {
        let cred = proc.cred();
        let ns = proc.namespace();
        let root = proc.root();
        let anchor = if absolute {
            root.clone()
        } else {
            start.cloned().unwrap_or_else(|| proc.cwd())
        };
        let fast = k.dcache.config.fastpath;
        let pcc = fast.then(|| k.dcache.pcc_for(&cred, ns.id));
        let guard = &crossbeam_epoch::pin();
        let plain_root = ns.is_root(&root.mount, &root.dentry, guard);
        let anchored = |p: &Pcc| k.anchored(&ns, p, &cred, &anchor, guard);
        let queue = k.dcache.publications(pcc, anchored);
        let path_str = k.security.needs_path().then(|| k.vfs_path_of(&anchor));
        let mut w = SlowWalk {
            k,
            cred,
            ns,
            root,
            cur: anchor,
            fast,
            hstate: None,
            alias_parent: None,
            plain_root,
            path_str,
            link_depth: 0,
            steps: 0,
            queue,
        };
        w.resume_at_cur();
        w
    }

    /// The literal-path hash state stored at `cur` (`None` with the
    /// fastpath off).
    fn state_of_cur(&self) -> Option<HashState> {
        let cur = self.fast.then_some(&self.cur)?;
        self.k
            .state_at(&self.ns, &cur.mount, &cur.dentry, &crossbeam_epoch::pin())
    }

    /// Resumes hashing at the anchor `cur`: from its stored state, or one
    /// rebuilt from its ancestors and queued as its own like every state
    /// the walk computes.
    fn resume_at_cur(&mut self) {
        self.hstate = self.state_of_cur();
        if self.fast && self.hstate.is_none() {
            let guard = &crossbeam_epoch::pin();
            self.hstate = self.k.rebuild_hash_state(&self.ns, &self.cur, guard);
            self.publish_step(&self.cur.dentry.clone(), self.cur.mount.id);
        }
    }

    /// The components to walk: as parsed, or with `..` folded lexically
    /// (Plan 9 mode, §4.2).
    fn components<'a>(&self, parsed: &ParsedPath<'a>) -> Vec<&'a str> {
        if self.k.dcache.config.lexical_dotdot {
            lexical_simplify(&parsed.components)
        } else {
            parsed.components.to_vec()
        }
    }

    /// `cur` as a result.
    fn result(&self) -> WalkResult {
        WalkResult {
            mount: self.cur.mount.clone(),
            dentry: self.cur.dentry.clone(),
            inode: self.cur.dentry.inode(),
        }
    }

    /// Walks the whole path to its final object.
    fn run_full(&mut self, parsed: &ParsedPath<'_>, follow_last: bool) -> FsResult<WalkResult> {
        self.walk_components(&self.components(parsed), follow_last)?;
        if parsed.require_dir {
            self.ensure_cur_dir()?;
        }
        let at = self.result();
        // The anchor itself can never be negative; a negative final
        // component already returned its error inside the walk.
        at.require_inode()?;
        Ok(at)
    }

    /// Walks to the directory holding the final component.
    fn run_parent(&mut self, parsed: &ParsedPath<'_>) -> FsResult<ParentResult> {
        let comps = self.components(parsed);
        let Some((last, rest)) = comps.split_last() else {
            return Err(FsError::Busy); // mutating "/" itself
        };
        if *last == ".." {
            return Err(FsError::Inval);
        }
        self.walk_components(rest, true)?;
        self.ensure_cur_dir()?;
        self.check_exec()?;
        Ok(ParentResult {
            parent: self.result(),
            name: (*last).to_string(),
            require_dir: parsed.require_dir,
        })
    }

    fn walk_components(&mut self, comps: &[&str], follow_last: bool) -> FsResult<()> {
        for (i, name) in comps.iter().enumerate() {
            let is_last = i + 1 == comps.len();
            self.step(name, is_last, follow_last)?;
        }
        Ok(())
    }

    fn fs(&self) -> Arc<dyn FileSystem> {
        self.cur.mount.sb.fs.clone()
    }

    fn step(&mut self, name: &str, is_last: bool, follow_last: bool) -> FsResult<()> {
        self.k
            .dcache
            .stats
            .slow_steps
            .fetch_add(1, Ordering::Relaxed);
        let component = self.steps;
        self.steps += 1;
        self.k
            .dcache
            .obs
            .event(|| TraceEvent::SlowStep { component });
        if name == ".." {
            return self.step_dotdot();
        }
        // Fabricated walking below negative dentries / non-directories.
        if self.pre_step(name, is_last)? {
            return Ok(()); // descended into a fabricated negative child
        }
        self.check_exec()?;
        self.searched();
        let child = self.lookup_child(name)?;
        self.extend_hstate(name);
        // Classify, from one read: a racing writer may change the state
        // right after it, and the step linearizes there.
        match child.kind() {
            DentryKind::Positive {
                ftype: FileType::Symlink,
                ..
            } if !is_last || follow_last => {
                // Publish the symlink dentry under the literal path, then
                // divert into the target.
                self.publish_step(&child, self.cur.mount.id);
                self.push_path_seg(name);
                return self.enter_symlink(child, is_last);
            }
            DentryKind::Negative(kind) => {
                self.publish_step(&child, self.cur.mount.id);
                if is_last {
                    self.cur = PathRef::new(self.cur.mount.clone(), child);
                    return Err(kind.error());
                }
                if self.k.dcache.config.deep_negative && self.k.negatives_allowed(&self.fs()) {
                    self.cur = PathRef::new(self.cur.mount.clone(), child);
                    self.push_path_seg(name);
                    return Ok(());
                }
                return Err(kind.error());
            }
            _ => {}
        }
        // Positive (or just-upgraded partial): cross mountpoints.
        let mut next = PathRef::new(self.cur.mount.clone(), child);
        while let Some(m) = self.ns.mount_at(next.mount.id, next.dentry.id()) {
            let mroot = m.root.clone();
            next = PathRef::new(m, mroot);
        }
        self.publish_step(&next.dentry, next.mount.id);
        self.push_path_seg(name);
        self.cur = next;
        Ok(())
    }

    /// Handles stepping when `cur` is not a positive directory: either
    /// fabricates a deep negative child (§5.2) and descends into it
    /// (`Ok(true)`), surfaces the matching error, or reports `Ok(false)`
    /// when `cur` is a real directory and the normal step should run.
    fn pre_step(&mut self, name: &str, is_last: bool) -> FsResult<bool> {
        let Err(kind) = self.cur_dir()? else {
            return Ok(false);
        };
        let deep_ok = self.k.dcache.config.deep_negative
            && self.k.negatives_allowed(&self.fs())
            && !self.cur.dentry.is_dead();
        if !deep_ok {
            return Err(kind.error());
        }
        self.searched();
        // Fabricate (or find) the negative child and keep descending so
        // the full dead path lands in the DLHT.
        let parent = self.cur.dentry.clone();
        let child = {
            let _g = parent.dir_lock().lock();
            match self.k.dcache.d_lookup(&parent, name) {
                Some(c) => c,
                None => {
                    let c = self
                        .k
                        .dcache
                        .d_alloc(&parent, name, DentryState::Negative(kind));
                    self.k
                        .dcache
                        .stats
                        .neg_deep_created
                        .fetch_add(1, Ordering::Relaxed);
                    c
                }
            }
        };
        if !matches!(child.kind(), DentryKind::Negative(_)) {
            // A positive child under a negative parent cannot arise
            // through the VFS (parents must exist to create children);
            // answer negatively regardless.
            return Err(kind.error());
        }
        self.extend_hstate(name);
        self.publish_step(&child, self.cur.mount.id);
        self.cur = PathRef::new(self.cur.mount.clone(), child);
        self.push_path_seg(name);
        if is_last {
            return Err(kind.error());
        }
        Ok(true)
    }

    /// `Ok(())` when `cur` is a directory — a partial one is upgraded
    /// via `getattr` first — and otherwise the absence it stands for.
    fn cur_dir(&mut self) -> FsResult<Result<(), NegKind>> {
        let (ftype, partial) = match self.cur.dentry.kind() {
            DentryKind::Positive { ftype, .. } => (ftype, false),
            DentryKind::Partial { ftype, .. } => (ftype, true),
            DentryKind::Negative(k) => return Ok(Err(k)),
            DentryKind::Alias => return Ok(Err(NegKind::Enotdir)),
        };
        if ftype != FileType::Directory {
            return Ok(Err(NegKind::Enotdir));
        }
        if partial {
            upgrade_partial(self.k, &self.cur.mount, &self.cur.dentry)?;
            return self.cur_dir();
        }
        Ok(Ok(()))
    }

    fn ensure_cur_dir(&mut self) -> FsResult<()> {
        self.cur_dir()?.map_err(NegKind::error)
    }

    fn check_exec(&mut self) -> FsResult<()> {
        let inode = self.cur.dentry.inode().ok_or(FsError::NoEnt)?;
        self.k
            .permission(&self.cred, &inode, MAY_EXEC, self.path_str.as_deref())
    }

    /// Finds or instantiates the child dentry for `name` under `cur`: a
    /// live cached entry without the directory lock, anything else —
    /// a miss, an entry dying under memory pressure — through
    /// [`Kernel::lookup_one_locked`] with it.
    fn lookup_child(&mut self, name: &str) -> FsResult<Arc<Dentry>> {
        let (mount, parent) = (&self.cur.mount, &self.cur.dentry);
        let Cached::Entry(c) = self.k.dcache.lookup_cached(parent, name) else {
            let _g = parent.dir_lock().lock();
            return self.k.lookup_one_locked(mount, parent, name);
        };
        let mut kind = c.kind();
        if let DentryKind::Partial { .. } = kind {
            upgrade_partial(self.k, mount, &c)?;
            kind = c.kind();
        }
        let stats = &self.k.dcache.stats;
        if let DentryKind::Negative(_) = kind {
            stats.hit_negative.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.hit_positive.fetch_add(1, Ordering::Relaxed);
        }
        Ok(c)
    }

    /// Extends the literal hash state by `name`. Past the key schedule
    /// there is none, so nothing below is published.
    fn extend_hstate(&mut self, name: &str) {
        let key = &self.k.dcache.key;
        self.hstate = self.hstate.and_then(|h| key.extend(&h, name.as_bytes()));
    }

    /// Memoizes the directory about to be searched under its literal path.
    fn searched(&mut self) {
        if let Some(h) = self.hstate {
            let dir = self.alias_parent.as_ref().unwrap_or(&self.cur.dentry);
            self.queue.searched(dir, &h);
        }
    }

    /// Publishes `dentry` (DLHT under the current literal signature) —
    /// queued, applied post-validation.
    fn publish_step(&mut self, dentry: &Arc<Dentry>, mount_id: u64) {
        if !self.fast || !self.cur.mount.sb.fs.supports_fastpath() {
            return;
        }
        let Some(h) = self.hstate else { return };
        let signed = match self.alias_parent.clone() {
            None => dentry.clone(),
            Some(ap) => {
                // The literal path diverged at a symlink: publish an alias
                // child carrying the redirect (§4.2).
                let name = dentry.name();
                let _g = ap.dir_lock().lock();
                let current = |a: &Dentry| {
                    let target = a.view(&crossbeam_epoch::pin()).alias_target();
                    target.is_some_and(|(t, s)| Arc::ptr_eq(&t, dentry) && s == t.seq())
                };
                let redirect = || DentryState::SymlinkAlias {
                    target: dentry.clone(),
                    target_seq: dentry.seq(),
                };
                let alias = match self.k.dcache.d_lookup(&ap, &name) {
                    Some(a) if current(&a) => a,
                    Some(a) => {
                        a.set_state(redirect()); // stale alias: retarget it
                        a
                    }
                    None => {
                        let stats = &self.k.dcache.stats;
                        stats.symlink_aliases.fetch_add(1, Ordering::Relaxed);
                        self.k.dcache.d_alloc(&ap, &name, redirect())
                    }
                };
                self.alias_parent = Some(alias.clone());
                alias
            }
        };
        self.queue.add(&signed, h, mount_id);
    }

    fn push_path_seg(&mut self, name: &str) {
        if let Some(p) = &mut self.path_str {
            if !p.ends_with('/') {
                p.push('/');
            }
            p.push_str(name);
        }
    }

    fn step_dotdot(&mut self) -> FsResult<()> {
        // Entering ".." still requires search permission on the current
        // directory, and the current position must be a real directory.
        self.ensure_cur_dir()?;
        self.check_exec()?;
        // Stop at the process root (POSIX: ".." at the root is the root).
        if Arc::ptr_eq(&self.cur.dentry, &self.root.dentry)
            && self.cur.mount.id == self.root.mount.id
        {
            return Ok(());
        }
        self.cur = self.cur.dotdot();
        // The literal path no longer matches simple extension: reload the
        // canonical state from the parent and drop any alias chain.
        self.alias_parent = None;
        self.hstate = self.state_of_cur();
        if let Some(p) = &mut self.path_str {
            *p = self.k.vfs_path_of(&self.cur);
        }
        Ok(())
    }

    fn enter_symlink(&mut self, link: Arc<Dentry>, _was_last: bool) -> FsResult<()> {
        self.link_depth += 1;
        if self.link_depth > MAX_LINK_DEPTH {
            return Err(FsError::Loop);
        }
        let link_inode = link.inode().ok_or(FsError::NoEnt)?;
        let target = self.fs().readlink(link_inode.ino)?;
        let tparsed = split_path(&target)?;
        let (entered, via) = (self.link_depth, self.cur.mount.id);
        // Literal context to restore afterwards.
        let saved_hstate = self.hstate;
        let saved_alias = self.alias_parent.take();
        // The sub-walk resolves the target path, whose literal form IS
        // canonical; anchor its hash state accordingly.
        if tparsed.absolute {
            self.cur = self.root.clone();
            if !self.plain_root {
                // The walk checked no prefix of a `chroot`ed root on its
                // way here: it memoizes nothing unless the root's passes.
                let (k, ns, cred, root) = (self.k, &self.ns, &self.cred, &self.root);
                self.queue
                    .anchor(|p| k.anchored(ns, p, cred, root, &crossbeam_epoch::pin()));
            }
            self.resume_at_cur();
            if let Some(p) = &mut self.path_str {
                *p = self.k.vfs_path_of(&self.cur);
            }
        } else {
            // `cur` (the dir containing the link) is canonical; its own
            // stored state anchors the target.
            self.hstate = self.state_of_cur();
        }
        let comps = self.components(&tparsed);
        self.walk_components(&comps, true)?;
        if tparsed.require_dir {
            self.ensure_cur_dir()?;
        }
        // The translation is memoized — the target's signature in the
        // symlink dentry, so the fastpath can chain through it, and alias
        // children below it for the literal suffix (§4.2) — only when the
        // body is a pure extension of the directory it is read in: every
        // component a real directory entry walked downward. Renaming or
        // removing any of those shoots the end point down and the memo
        // with it. A `..`, a symlink crossed on the way, a trailing slash
        // or (under a `chroot`) a leading one make the end point depend on
        // something no shootdown ties to it, and the walk stays the only
        // way through such a link.
        let pure = self.link_depth == entered
            && !comps.contains(&"..")
            && !tparsed.require_dir
            && (self.plain_root || !tparsed.absolute);
        let end = self.hstate.filter(|_| pure); // `None` with the fastpath off
        if let Some(h) = end {
            let sig = self.k.dcache.key.finish(&h);
            self.queue.link(link.clone(), sig, via);
        }
        if end.is_some() && saved_alias.is_none() {
            self.hstate = saved_hstate;
            self.alias_parent = Some(link);
        } else {
            // Also a link met inside another link's alias chain: stop
            // publishing the literal suffix.
            self.alias_parent = None;
            self.hstate = None;
        }
        Ok(())
    }
}

/// Upgrades a partial dentry (readdir-born, §5.1) into a positive one.
fn upgrade_partial(k: &Kernel, mount: &Mount, d: &Arc<Dentry>) -> FsResult<()> {
    let parent = d.parent().ok_or(FsError::NoEnt)?;
    let _g = parent.dir_lock().lock();
    k.upgrade_partial_locked(mount, d)
}

/// Plan 9 lexical dot-dot preprocessing (§4.2): `a/../b` → `b`. Leading
/// `..` (above the anchor) are preserved and walked normally.
fn lexical_simplify<'a>(comps: &[&'a str]) -> Vec<&'a str> {
    let mut out: Vec<&'a str> = Vec::with_capacity(comps.len());
    for &c in comps {
        if c == ".." {
            match out.last() {
                Some(&prev) if prev != ".." => {
                    out.pop();
                }
                _ => out.push(c),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_simplify_pops_and_preserves_leading() {
        assert_eq!(lexical_simplify(&["a", "..", "b"]), vec!["b"]);
        assert_eq!(lexical_simplify(&["..", "..", "x"]), vec!["..", "..", "x"]);
        assert_eq!(lexical_simplify(&["a", "b", "..", "..", "c"]), vec!["c"]);
        assert_eq!(lexical_simplify(&["a", "..", "..", "b"]), vec!["..", "b"]);
    }
}
