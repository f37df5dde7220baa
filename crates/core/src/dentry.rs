//! Dentries: cached path components, positive / negative / partial.
//!
//! Everything a lookup asks of a dentry lives in one epoch-published
//! block, [`DentrySnap`] (DESIGN.md §5): a reader answers from one read
//! of it, a writer replaces it whole, so facts that belong together — a
//! hash state and the mount it was signed through (§4.3) — change in one
//! step.

use crate::dsync::{AtomicU32, AtomicU64, Ordering};
use crate::fasthash::FastMap;
use crate::inode::{Inode, SbId};
use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use dc_fs::{DirEntry, FileType, FsError};
use dc_sighash::{HashState, Signature};
use parking_lot::{Mutex, RwLock};
use std::sync::{Arc, Weak};

/// Unique, never-reused dentry identity.
///
/// The paper keys the PCC by dentry pointer and detects reallocation with a
/// monotonically increasing initialization counter (§3.1); a 64-bit
/// never-reused id subsumes both and cannot wrap in practice.
pub type DentryId = u64;

/// Flag: every live child of this directory is in the cache (§5.1).
pub const FLAG_DIR_COMPLETE: u32 = 0b0001;
/// Flag: the dentry was unhashed (evicted or dropped); never re-cache it.
pub(crate) const FLAG_DEAD: u32 = 0b0010;

/// What kind of absence a negative dentry records (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegKind {
    /// The path definitively does not exist → `ENOENT`.
    Enoent,
    /// A non-directory was used as a directory → `ENOTDIR`.
    Enotdir,
}

impl NegKind {
    /// The error a cached hit on this dentry reports.
    pub fn error(self) -> FsError {
        match self {
            NegKind::Enoent => FsError::NoEnt,
            NegKind::Enotdir => FsError::NotDir,
        }
    }
}

/// What a dentry currently maps its path onto.
pub enum DentryState {
    /// A live object with a full in-memory inode.
    Positive(Arc<Inode>),
    /// A cached absence.
    Negative(NegKind),
    /// Known to exist (from a `readdir` record, §5.1) but the full inode
    /// has not been fetched yet.
    Partial {
        /// Inode number reported by readdir.
        ino: u64,
        /// Entry type reported by readdir.
        ftype: FileType,
    },
    /// A cached symlink-traversal step (§4.2): a child of a symlink dentry
    /// redirecting to the real dentry reached through the link.
    SymlinkAlias {
        /// The real dentry the aliased path resolves to.
        target: Arc<Dentry>,
        /// `target.seq()` when the alias was created; a mismatch means the
        /// translation may be stale.
        target_seq: u64,
    },
}

/// A [`DentryState`] as one read saw it, without its references: taking
/// it touches no reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DentryKind {
    /// A live object: its inode number and type.
    Positive { ino: u64, ftype: FileType },
    /// A cached absence.
    Negative(NegKind),
    /// Listed by readdir, inode not fetched yet (§5.1).
    Partial { ino: u64, ftype: FileType },
    /// A symlink-traversal step (§4.2).
    Alias,
}

/// The stored form of [`DentryState`], held in the published snapshot.
///
/// A positive entry keeps its inode's number and type beside the inode —
/// both fixed for the inode's life — so [`DentrySnap::kind`] answers from
/// the block alone: a directory listing classifies each child without
/// touching its inode.
///
/// Dentry references are **weak**: epoch reclamation holds retired
/// snapshots for a grace period, and a strong reference there would
/// distort the `Arc::strong_count`-based eviction protocol
/// (`Dcache::try_evict`). The strong reference lives in [`StrongEdges`];
/// a failed upgrade means the snapshot is stale, and a reader treats it
/// as such — it never guesses.
#[derive(Clone)]
pub(crate) enum SnapState {
    Positive {
        inode: Arc<Inode>,
        ino: u64,
        ftype: FileType,
    },
    Negative(NegKind),
    Partial {
        ino: u64,
        ftype: FileType,
    },
    SymlinkAlias {
        target: Weak<Dentry>,
        target_seq: u64,
    },
}

/// Splits an incoming [`DentryState`] into its stored form and the strong
/// alias edge it carries.
fn lower(state: DentryState) -> (SnapState, Option<Arc<Dentry>>) {
    match state {
        DentryState::Positive(inode) => {
            let (ino, ftype) = (inode.ino, inode.ftype());
            (SnapState::Positive { inode, ino, ftype }, None)
        }
        DentryState::Negative(k) => (SnapState::Negative(k), None),
        DentryState::Partial { ino, ftype } => (SnapState::Partial { ino, ftype }, None),
        DentryState::SymlinkAlias { target, target_seq } => {
            let strong = target;
            let target = Arc::downgrade(&strong);
            let state = SnapState::SymlinkAlias { target, target_seq };
            (state, Some(strong))
        }
    }
}

/// The dentry's name, parent, state, signing mount, hash state and link
/// signature: the only copy, published as one immutable epoch-managed
/// block (DESIGN.md §5). Writers copy it, edit the copy and swap it in
/// ([`Dentry::publish`]); a reader takes one read of it under its pin
/// ([`Dentry::view`]) and answers everything from that — no locks, and no
/// two answers from different publications. Consistency with the rest of
/// the cache is validated by the per-dentry `seq` counter exactly like
/// the slowpath validates against `rename_lock`.
///
/// Layout (`repr(C)`, DESIGN.md §13): the fields every walk touches —
/// `name`, `parent`, `state`, `mount` — are packed into the first 64
/// bytes, so a warm hit's read is one cache line; `hash_state` and the
/// boxed `link_sig` (resume and symlink-chain paths) follow. The
/// compile-time asserts below pin the contract. Blocks live in the
/// snapshot slab ([`crate::snapslab`]).
#[repr(C)]
#[derive(Clone)]
pub struct DentrySnap {
    /// The component name.
    pub name: Arc<str>,
    pub(crate) parent: Option<Weak<Dentry>>,
    pub(crate) state: SnapState,
    /// The mount `hash_state` and `link_sig` were computed through (§4.3).
    pub mount: u64,
    /// The resumable signature-hash state of the path through `mount`
    /// (§3.1).
    pub hash_state: Option<HashState>,
    /// For symlink dentries: the signature of the link target's canonical
    /// path, letting the fastpath chain through links without reading
    /// them (§4.2). Cleared by the next [`Dentry::set_state`]. Boxed:
    /// only symlinks carry one, and the slab counts its bytes
    /// ([`crate::snapslab::footprint`]).
    pub link_sig: Option<Box<Signature>>,
}

impl DentrySnap {
    /// The state, without its references.
    pub fn kind(&self) -> DentryKind {
        match self.state {
            SnapState::Positive { ino, ftype, .. } => DentryKind::Positive { ino, ftype },
            SnapState::Negative(k) => DentryKind::Negative(k),
            SnapState::Partial { ino, ftype } => DentryKind::Partial { ino, ftype },
            SnapState::SymlinkAlias { .. } => DentryKind::Alias,
        }
    }

    /// The parent this block names, borrowed for as long as the block:
    /// `None` at a root. No reference count is touched.
    #[inline]
    pub(crate) fn parent_in(&self) -> Option<&Dentry> {
        let parent = self.parent.as_ref()?;
        // SAFETY: a block is borrowed through a live dentry under an epoch
        // pin ([`Dentry::view`]). The parent it names was held by that
        // dentry's strong edge when it was published; the edge is kept
        // while the dentry lives, and a move releases the edge it displaces
        // through the epoch ([`Dentry::set_name_parent`]), so the parent
        // outlives every pin that can still read this block.
        Some(unsafe { &*parent.as_ptr() })
    }

    /// The inode, if positive.
    pub fn inode(&self) -> Option<&Arc<Inode>> {
        match &self.state {
            SnapState::Positive { inode, .. } => Some(inode),
            _ => None,
        }
    }

    /// A symlink alias's `(target, target.seq() when the alias was made)`;
    /// `None` for anything else, and for a stale block whose target is
    /// gone.
    pub fn alias_target(&self) -> Option<(Arc<Dentry>, u64)> {
        match &self.state {
            SnapState::SymlinkAlias { target, target_seq } => {
                Some((target.upgrade()?, *target_seq))
            }
            _ => None,
        }
    }
}

// The cache-line contract: everything a warm walk reads from a snapshot
// lives in the first 64 bytes (`repr(C)` keeps declaration order).
const _: () = {
    use std::mem::{offset_of, size_of};
    assert!(offset_of!(DentrySnap, name) == 0);
    assert!(
        offset_of!(DentrySnap, mount) + size_of::<u64>() <= 64,
        "hot snapshot fields (name/parent/state/mount) must fit one cache line"
    );
    // The paper's §6.1 dentry is 280 bytes; ours stays well under that.
    assert!(size_of::<Dentry>() <= 184);
    assert!(size_of::<DentrySnap>() <= 112);
};

/// The strong references a dentry holds on other dentries. The snapshot
/// may mirror them only weakly (see [`SnapState`]): these keep the parent
/// chain and an alias's target alive, and are what `Dcache::try_evict`'s
/// strong-count test counts.
struct StrongEdges {
    parent: Option<Arc<Dentry>>,
    alias_target: Option<Arc<Dentry>>,
}

/// One cached path component.
///
/// Ownership: a parent's `children` map holds the only long-lived strong
/// reference; each child holds a strong reference back to its parent, which
/// upholds the Linux invariant that all ancestors of a cached dentry are
/// cached. Unhashing (removing the child from the parent's map) is what
/// breaks the reference cycle, so every dentry is freed once unhashed and
/// unreferenced. DLHT and LRU hold weak references only.
pub struct Dentry {
    id: DentryId,
    sb: SbId,
    /// Per-parent child index. Keyed by the boot-seeded fast hasher
    /// ([`crate::fasthash`]) instead of SipHash — `d_lookup` is on the
    /// per-component path the fig-3 attribution charges to "table" time.
    children: RwLock<FastMap<Arc<str>, Arc<Dentry>>>,
    /// Version counter: bumped whenever a cached prefix check through this
    /// dentry may have become stale (§3.2). PCC entries store the value
    /// they validated against.
    seq: AtomicU64,
    flags: AtomicU32,
    /// Bumped when any child is evicted to reclaim space; readdir uses it
    /// to detect that a completeness claim was broken mid-scan (§5.1).
    child_evict_gen: AtomicU64,
    /// Bumped on any change to what a listing of this directory would
    /// return (child added/removed, child flipped positive⇄negative).
    children_version: AtomicU64,
    /// Cached listing served while this directory is complete (§5.1) and
    /// the children version has not moved. The paper serves repeats from
    /// the dentry child list; the prebuilt snapshot is the constant-time
    /// equivalent.
    dir_snapshot: Mutex<Option<(u64, Arc<Vec<DirEntry>>)>>,
    /// Which DLHT holds this dentry, and in which bucket (at most one
    /// table and one signature at a time, §4.3): removal takes the node
    /// in that bucket that points at this dentry. The table handle is
    /// weak: namespace teardown retires a table by dropping the dcache's
    /// reference, and a retired table must not be resurrected (or kept
    /// alive) just to unlink memberships — an upgrade failure means the
    /// whole table already died with its entries (DESIGN.md §14).
    dlht_entry: Mutex<Option<(Weak<crate::dlht::Dlht>, usize)>>,
    /// Serializes directory mutations and miss-instantiation under this
    /// dentry (the per-dentry `d_lock`/`i_mutex` analog). Never held
    /// across another dentry's `dir_lock` except parent→child under the
    /// global rename lock.
    dir_lock: Mutex<()>,
    /// The epoch-published [`DentrySnap`]; never null after construction.
    snap: Atomic<DentrySnap>,
    /// The strong parent/alias edges. Its lock also serializes
    /// publications: every writer holds it from reading the current
    /// snapshot to swapping in the edited copy, so racing edits of
    /// different fields compose instead of overwriting each other.
    edges: Mutex<StrongEdges>,
}

impl Dentry {
    pub(crate) fn new(
        id: DentryId,
        sb: SbId,
        name: &str,
        parent: Option<Arc<Dentry>>,
        state: DentryState,
        seq_init: u64,
    ) -> Arc<Dentry> {
        let (state, alias_target) = lower(state);
        let first = DentrySnap {
            name: Arc::from(name),
            parent: parent.as_ref().map(Arc::downgrade),
            state,
            mount: 0,
            hash_state: None,
            link_sig: None,
        };
        let d = Arc::new(Dentry {
            id,
            sb,
            children: RwLock::new(FastMap::default()),
            seq: AtomicU64::new(seq_init),
            flags: AtomicU32::new(0),
            child_evict_gen: AtomicU64::new(0),
            children_version: AtomicU64::new(0),
            dir_snapshot: Mutex::new(None),
            dlht_entry: Mutex::new(None),
            dir_lock: Mutex::new(()),
            snap: Atomic::null(),
            edges: Mutex::new(StrongEdges {
                parent,
                alias_target,
            }),
        });
        let guard = epoch::pin();
        let first = crate::snapslab::alloc_snap(first, &guard);
        d.snap.store(first, Ordering::Release);
        d
    }

    /// One read of the current block, under `guard` — the reader's whole
    /// view of this dentry (lock-free).
    #[inline]
    pub fn view<'a>(&'a self, guard: &'a Guard) -> &'a DentrySnap {
        let shared = self.snap.load(Ordering::Acquire, guard);
        // SAFETY: published before `new` returns, replaced atomically,
        // retired through the epoch (a replaced block outlives `guard`)
        // and freed directly only in Drop — never null while `&self`
        // exists.
        unsafe { shared.deref() }
    }

    /// The one writer primitive: copy the current snapshot, apply `edit`
    /// to the copy (and to the strong edges), swap it in, and retire the
    /// previous slot through the epoch collector — all under the edge
    /// lock, which orders publications.
    ///
    /// In coherence flows the caller bumps `seq` after this returns, so
    /// a reader that observes an unchanged `seq` across its read saw a
    /// current-or-newer snapshot. `edit`'s result is returned once the
    /// lock is released: a displaced `Arc<Dentry>` is dropped outside it.
    fn publish<R>(&self, edit: impl FnOnce(&mut DentrySnap, &mut StrongEdges) -> R) -> R {
        let mut edges = self.edges.lock();
        self.swap_in(&mut edges, &epoch::pin(), edit)
    }

    /// [`Dentry::publish`] under the edge lock the caller holds.
    fn swap_in<R>(
        &self,
        edges: &mut StrongEdges,
        guard: &Guard,
        edit: impl FnOnce(&mut DentrySnap, &mut StrongEdges) -> R,
    ) -> R {
        let cur = self.snap.load(Ordering::Acquire, guard);
        // SAFETY: never null (see `view`), and the edge lock makes it the
        // latest publication.
        let mut next = unsafe { cur.deref() }.clone();
        let out = edit(&mut next, edges);
        let new = crate::snapslab::alloc_snap(next, guard);
        let old = self.snap.swap(new, Ordering::AcqRel, guard);
        // SAFETY: `old` was just unlinked by the swap; retirement returns
        // its slot to the slab after the grace period.
        unsafe { crate::snapslab::retire(guard, old) };
        out
    }

    /// This dentry's unique id.
    pub fn id(&self) -> DentryId {
        self.id
    }

    /// The owning superblock.
    pub fn sb(&self) -> SbId {
        self.sb
    }

    /// Current component name (lock-free).
    pub fn name(&self) -> Arc<str> {
        self.view(&epoch::pin()).name.clone()
    }

    /// Parent dentry (`None` for a superblock root).
    pub fn parent(&self) -> Option<Arc<Dentry>> {
        // `None` in the snapshot means a true root; a failed weak upgrade
        // (inner `None`) means the snapshot is stale, never "root".
        let seen = self.view(&epoch::pin()).parent.as_ref().map(Weak::upgrade);
        seen.and_then(|live| live.or_else(|| self.edges.lock().parent.clone()))
    }

    /// Current version counter.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Invalidates every cached prefix check through this dentry.
    #[inline]
    pub fn bump_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    // --- state ---------------------------------------------------------

    /// Replaces the state (unlink→negative, partial→positive, …). A
    /// recorded link signature describes the object being replaced, so
    /// the same publication clears it.
    pub fn set_state(&self, state: DentryState) {
        let (state, alias_target) = lower(state);
        let _displaced = self.publish(|snap, edges| {
            snap.state = state;
            snap.link_sig = None;
            std::mem::replace(&mut edges.alias_target, alias_target)
        });
    }

    /// The state, without its references (lock-free).
    pub fn kind(&self) -> DentryKind {
        self.view(&epoch::pin()).kind()
    }

    /// The inode, if positive (lock-free).
    pub fn inode(&self) -> Option<Arc<Inode>> {
        self.view(&epoch::pin()).inode().cloned()
    }

    // --- flags ---------------------------------------------------------

    /// Tests a flag bit.
    #[inline]
    pub fn flag(&self, bit: u32) -> bool {
        self.flags.load(Ordering::Acquire) & bit != 0
    }

    /// Sets a flag bit.
    #[inline]
    pub fn set_flag(&self, bit: u32) {
        self.flags.fetch_or(bit, Ordering::AcqRel);
    }

    /// Clears a flag bit.
    #[inline]
    pub fn clear_flag(&self, bit: u32) {
        self.flags.fetch_and(!bit, Ordering::AcqRel);
    }

    /// True once unhashed; such dentries must not be re-cached.
    pub fn is_dead(&self) -> bool {
        self.flag(FLAG_DEAD)
    }

    /// Eviction generation of this directory's children (§5.1).
    pub fn child_evict_gen(&self) -> u64 {
        self.child_evict_gen.load(Ordering::Acquire)
    }

    pub(crate) fn bump_child_evict_gen(&self) {
        self.child_evict_gen.fetch_add(1, Ordering::AcqRel);
    }

    // --- children ------------------------------------------------------

    /// Looks up a cached child (the per-parent hash index; the analog of
    /// Linux's `d_lookup` keyed by (parent, name)).
    pub fn get_child(&self, name: &str) -> Option<Arc<Dentry>> {
        self.children.read().get(name).cloned()
    }

    /// Inserts a child; the caller guarantees no *live* entry exists for
    /// `name`. A dead occupant (mid-eviction: `FLAG_DEAD` set, but the
    /// evictor has not yet reached `remove_child_if`) may be displaced —
    /// the evictor's removal is id-guarded, so it no-ops on the
    /// replacement.
    pub(crate) fn insert_child(&self, child: Arc<Dentry>) {
        let name = child.name();
        let prev = self.children.write().insert(name, child);
        debug_assert!(
            prev.as_ref().is_none_or(|p| p.is_dead()),
            "duplicate child insert"
        );
        self.bump_children_version();
    }

    /// Removes the child named `name` only if it is still the dentry with
    /// id `id` (eviction may race with a rename that reused the name).
    pub(crate) fn remove_child_if(&self, name: &str, id: DentryId) -> bool {
        let mut children = self.children.write();
        match children.get(name) {
            Some(c) if c.id() == id => {
                children.remove(name);
                drop(children);
                self.bump_children_version();
                true
            }
            _ => false,
        }
    }

    /// The per-directory mutation lock; the VFS holds it while creating,
    /// removing, or miss-instantiating entries under this dentry.
    pub fn dir_lock(&self) -> &Mutex<()> {
        &self.dir_lock
    }

    /// Bumps the listing version: what a readdir of this directory would
    /// return has changed. Called automatically on child insert/remove;
    /// state flips (create-over-negative, unlink-to-negative) call it
    /// explicitly.
    pub fn bump_children_version(&self) {
        self.children_version.fetch_add(1, Ordering::AcqRel);
        // Drop any snapshot eagerly so memory is not held stale.
        *self.dir_snapshot.lock() = None;
    }

    /// Current listing version.
    pub fn children_version(&self) -> u64 {
        self.children_version.load(Ordering::Acquire)
    }

    /// The cached listing, if still valid for the current version.
    pub fn dir_snapshot(&self) -> Option<Arc<Vec<DirEntry>>> {
        let guard = self.dir_snapshot.lock();
        match &*guard {
            Some((ver, snap)) if *ver == self.children_version() => Some(snap.clone()),
            _ => None,
        }
    }

    /// Stores a listing snapshot taken at `version`.
    pub fn store_dir_snapshot(&self, version: u64, snap: Arc<Vec<DirEntry>>) {
        if version == self.children_version() {
            *self.dir_snapshot.lock() = Some((version, snap));
        }
    }

    /// Runs `f` over every cached child without cloning references.
    pub fn for_each_child(&self, mut f: impl FnMut(&Arc<Dentry>)) {
        for c in self.children.read().values() {
            f(c);
        }
    }

    /// Number of cached children.
    pub fn child_count(&self) -> usize {
        self.children.read().len()
    }

    /// Snapshot of all cached children.
    pub fn children_snapshot(&self) -> Vec<Arc<Dentry>> {
        self.children.read().values().cloned().collect()
    }

    /// True if the directory has no cached children.
    pub fn has_no_children(&self) -> bool {
        self.children.read().is_empty()
    }

    // --- naming / moves -------------------------------------------------

    /// Re-parents and renames the dentry (rename already holds the global
    /// rename lock, so this is never concurrent with other moves).
    /// The displaced parent is released through the epoch: a block read
    /// before the move may still name it ([`DentrySnap::parent_in`]).
    pub(crate) fn set_name_parent(&self, name: &str, parent: Option<Arc<Dentry>>) {
        let displaced = self.publish(|snap, edges| {
            snap.name = Arc::from(name);
            snap.parent = parent.as_ref().map(Arc::downgrade);
            std::mem::replace(&mut edges.parent, parent)
        });
        let guard = epoch::pin();
        let displaced = Owned::new(displaced).into_shared(&guard);
        // SAFETY: a fresh allocation, reachable from nowhere.
        unsafe { guard.defer_destroy(displaced) };
    }

    /// The path of this dentry within its superblock (no mount prefix).
    /// Used for path-sensitive LSMs and diagnostics.
    pub fn sb_path(self: &Arc<Self>) -> String {
        if self.parent().is_none() {
            return "/".to_string();
        }
        let mut parts: Vec<Arc<str>> = Vec::new();
        let mut node: Arc<Dentry> = self.clone();
        loop {
            let parent = node.parent();
            match parent {
                Some(p) => {
                    parts.push(node.name());
                    node = p;
                }
                None => break,
            }
        }
        let mut s = String::new();
        for p in parts.iter().rev() {
            s.push('/');
            s.push_str(p);
        }
        s
    }

    // --- fastpath bookkeeping -------------------------------------------

    /// The stored hash state ([`DentrySnap::hash_state`]), if it was
    /// signed through mount `mount` — one read of the block that holds
    /// both. A dentry under a bind mount has one path per mount and one
    /// slot: the state says where the *last* walk came from, and only a
    /// position reached through that same mount may resume from it.
    pub fn hash_state_via(&self, mount: u64) -> Option<HashState> {
        // An unhashed dentry has no path any more, whatever it remembers.
        if self.is_dead() {
            return None;
        }
        let guard = epoch::pin();
        let seen = self.view(&guard);
        seen.hash_state.filter(|_| seen.mount == mount)
    }

    /// Records that this dentry is signed through mount `mount`, with `st`
    /// the resumable hash state of that path (`None`: the mount alone, as
    /// a mount root's before any walk signed it). One publication: moving
    /// to another mount drops the old mount's hash state with the link
    /// signature read through it, in the same step that records the new
    /// mount, so no reader sees a state beside a mount it was not
    /// computed through.
    ///
    /// A stored state is never replaced in place: one that changes or goes
    /// is cleared and `seq` bumped before anything else is stored, under
    /// the edge lock. So while `seq` holds one value the dentry holds at
    /// most one state, and a prefix check memoized at that value speaks
    /// for that state's path alone (§3.2).
    pub fn sign(&self, st: Option<HashState>, mount: u64) {
        let mut edges = self.edges.lock();
        let guard = epoch::pin();
        let goes = self
            .view(&guard)
            .hash_state
            .is_some_and(|held| st != Some(held));
        self.swap_in(&mut edges, &guard, |snap, _| {
            if snap.mount != mount {
                snap.mount = mount;
                snap.link_sig = None;
            }
            snap.hash_state = if goes { None } else { st };
        });
        if goes {
            self.bump_seq();
            if st.is_some() {
                self.swap_in(&mut edges, &guard, |snap, _| snap.hash_state = st);
            }
        }
    }

    /// Invalidates the stored hash state (the path changed) and, with it,
    /// a symlink's target signature: a relative body read at another path,
    /// or through another mount, ends somewhere else. A state that goes
    /// bumps `seq`, as in [`Dentry::sign`]; returns whether one went.
    pub fn clear_hash_state(&self) -> bool {
        let mut edges = self.edges.lock();
        let held = self.swap_in(&mut edges, &epoch::pin(), |snap, _| {
            let held = snap.hash_state.is_some();
            (snap.hash_state, snap.link_sig) = (None, None);
            held
        });
        if held {
            self.bump_seq();
        }
        held
    }

    /// The DLHT membership record.
    pub(crate) fn dlht_entry(&self) -> &Mutex<Option<(Weak<crate::dlht::Dlht>, usize)>> {
        &self.dlht_entry
    }

    /// Records the target-path signature after a successful follow
    /// through mount `mount`. It lands only if the link is still signed
    /// through that mount — checked and stored in one publication, so a
    /// racing re-sign through another mount either comes first and the
    /// signature is dropped, or comes after and clears it.
    pub fn store_link_sig(&self, sig: Signature, mount: u64) {
        self.publish(|snap, _| {
            if snap.mount == mount {
                snap.link_sig = Some(Box::new(sig));
            }
        });
    }
}

impl Drop for Dentry {
    fn drop(&mut self) {
        // SAFETY: &mut self: no reader can hold the snapshot pointer
        // anymore (readers borrow the dentry); free the current block
        // directly (unprotected guards run retirement immediately).
        unsafe {
            let guard = epoch::unprotected();
            let shared = self.snap.swap(Shared::null(), Ordering::AcqRel, guard);
            crate::snapslab::retire(guard, shared);
        }
    }
}

impl std::fmt::Debug for Dentry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dentry")
            .field("id", &self.id)
            .field("sb", &self.sb)
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("seq", &self.seq())
            .field("children", &self.child_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detached(id: u64, name: &str, parent: Option<Arc<Dentry>>) -> Arc<Dentry> {
        Dentry::new(
            id,
            1,
            name,
            parent,
            DentryState::Negative(NegKind::Enoent),
            0,
        )
    }

    #[test]
    fn seq_bumps_monotonically() {
        let d = detached(1, "x", None);
        let s0 = d.seq();
        assert_eq!(d.bump_seq(), s0 + 1);
        assert_eq!(d.seq(), s0 + 1);
    }

    #[test]
    fn child_insert_lookup_remove() {
        let root = detached(1, "", None);
        let child = detached(2, "etc", Some(root.clone()));
        root.insert_child(child.clone());
        assert_eq!(root.get_child("etc").unwrap().id(), 2);
        assert_eq!(root.child_count(), 1);
        assert!(!root.remove_child_if("etc", 3), "id-guarded");
        assert!(root.remove_child_if("etc", 2));
        assert!(root.has_no_children());
        assert!(root.get_child("etc").is_none());
    }

    #[test]
    fn sb_path_reconstruction() {
        let root = detached(1, "", None);
        let etc = detached(2, "etc", Some(root.clone()));
        root.insert_child(etc.clone());
        let passwd = detached(3, "passwd", Some(etc.clone()));
        etc.insert_child(passwd.clone());
        assert_eq!(root.sb_path(), "/");
        assert_eq!(etc.sb_path(), "/etc");
        assert_eq!(passwd.sb_path(), "/etc/passwd");
    }

    #[test]
    fn flags_are_independent_bits() {
        let d = detached(1, "x", None);
        assert!(!d.flag(FLAG_DIR_COMPLETE));
        d.set_flag(FLAG_DIR_COMPLETE);
        d.set_flag(FLAG_DEAD);
        assert!(d.flag(FLAG_DIR_COMPLETE));
        assert!(d.is_dead());
        d.clear_flag(FLAG_DIR_COMPLETE);
        assert!(!d.flag(FLAG_DIR_COMPLETE));
        assert!(d.is_dead());
    }

    #[test]
    fn negative_kinds_map_to_errors() {
        assert_eq!(NegKind::Enoent.error(), FsError::NoEnt);
        assert_eq!(NegKind::Enotdir.error(), FsError::NotDir);
        let d = detached(1, "gone", None);
        assert_eq!(d.kind(), DentryKind::Negative(NegKind::Enoent));
        assert!(d.inode().is_none());
    }

    #[test]
    fn rename_updates_name_and_parent() {
        let root = detached(1, "", None);
        let a = detached(2, "a", Some(root.clone()));
        let b = detached(3, "b", Some(root.clone()));
        root.insert_child(a.clone());
        root.insert_child(b.clone());
        let f = detached(4, "f", Some(a.clone()));
        a.insert_child(f.clone());
        // Move /a/f → /b/g.
        a.remove_child_if("f", 4);
        f.set_name_parent("g", Some(b.clone()));
        b.insert_child(f.clone());
        assert_eq!(f.sb_path(), "/b/g");
        assert_eq!(&*f.name(), "g");
    }

    #[test]
    fn alias_state_resolves() {
        let real = detached(5, "real", None);
        let alias = Dentry::new(
            6,
            1,
            "via-link",
            None,
            DentryState::SymlinkAlias {
                target: real.clone(),
                target_seq: real.seq(),
            },
            0,
        );
        let guard = epoch::pin();
        let (t, s) = alias.view(&guard).alias_target().unwrap();
        assert_eq!(t.id(), 5);
        assert_eq!(s, real.seq());
        assert_eq!(alias.kind(), DentryKind::Alias);
        assert!(real.view(&guard).alias_target().is_none());
    }
}

#[cfg(test)]
mod listing_tests {
    use super::*;
    use dc_fs::DirEntry;

    fn neg(id: u64, name: &str, parent: Option<Arc<Dentry>>) -> Arc<Dentry> {
        Dentry::new(
            id,
            1,
            name,
            parent,
            DentryState::Negative(NegKind::Enoent),
            0,
        )
    }

    #[test]
    fn kind_tracks_state() {
        let d = neg(1, "x", None);
        assert_eq!(d.kind(), DentryKind::Negative(NegKind::Enoent));
        for (ino, ftype) in [(42, FileType::Directory), (7, FileType::Symlink)] {
            d.set_state(DentryState::Partial { ino, ftype });
            assert_eq!(d.kind(), DentryKind::Partial { ino, ftype });
            assert!(d.inode().is_none());
            d.set_state(DentryState::Negative(NegKind::Enotdir));
            assert_eq!(d.kind(), DentryKind::Negative(NegKind::Enotdir));
        }
    }

    #[test]
    fn set_state_clears_the_link_signature_and_keeps_the_rest() {
        let d = neg(1, "link", None);
        let key = crate::HashKey::from_seed(3);
        d.sign(Some(key.root_state()), 1);
        d.store_link_sig(key.finish(&key.root_state()), 1);
        assert!(d.view(&epoch::pin()).link_sig.is_some());
        d.set_state(DentryState::Negative(NegKind::Enoent));
        let guard = epoch::pin();
        let seen = d.view(&guard);
        assert_eq!(
            seen.link_sig, None,
            "the signature described the old object"
        );
        assert!(seen.hash_state.is_some(), "the path did not change");
        assert_eq!(&*d.name(), "link");
    }

    #[test]
    fn children_version_bumps_on_membership_changes() {
        let root = neg(1, "", None);
        let v0 = root.children_version();
        let c = neg(2, "a", Some(root.clone()));
        root.insert_child(c.clone());
        let v1 = root.children_version();
        assert!(v1 > v0);
        root.remove_child_if("a", 2);
        assert!(root.children_version() > v1);
        // Removing something absent does not bump.
        let v2 = root.children_version();
        root.remove_child_if("a", 2);
        assert_eq!(root.children_version(), v2);
    }

    #[test]
    fn dir_snapshot_validates_version() {
        let root = neg(1, "", None);
        let v = root.children_version();
        let snap = Arc::new(vec![DirEntry {
            name: "a".into(),
            ino: 5,
            ftype: FileType::Regular,
        }]);
        root.store_dir_snapshot(v, snap.clone());
        assert!(root.dir_snapshot().is_some());
        // Any membership change invalidates.
        let c = neg(2, "b", Some(root.clone()));
        root.insert_child(c);
        assert!(root.dir_snapshot().is_none());
        // Storing against a stale version is refused.
        root.store_dir_snapshot(v, snap);
        assert!(root.dir_snapshot().is_none());
    }

    #[test]
    fn for_each_child_visits_all() {
        let root = neg(1, "", None);
        for i in 0..5 {
            let c = neg(10 + i, &format!("c{i}"), Some(root.clone()));
            root.insert_child(c);
        }
        let mut n = 0;
        root.for_each_child(|_| n += 1);
        assert_eq!(n, 5);
    }
}
