//! Mount namespaces (§4.3).

use crate::mount::Mount;
use dc_rcu::{EpochCell, SnapMap};
use dcache_core::{Dcache, Dentry, DentryId, Dlht, NsId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A mount namespace: a private view of the mount tree.
///
/// Each namespace owns a private direct-lookup hash table (allocated
/// lazily by the dcache keyed on [`MountNamespace::id`]), so the same path
/// and signature resolve to different dentries inside and outside the
/// namespace, and prefix check caches are namespace-private (§4.3).
pub struct MountNamespace {
    /// Namespace id; keys the DLHT and per-cred PCC maps.
    pub id: NsId,
    /// Root mount of the namespace (epoch-published: read on every
    /// absolute lookup without a lock).
    root: EpochCell<Arc<Mount>>,
    /// Mountpoint index: (parent mount id, mountpoint dentry id) → child.
    children: RwLock<HashMap<(u64, DentryId), Arc<Mount>>>,
    /// All mounts by id (fastpath mount-hint validation, §4.3). A
    /// copy-on-write snapshot: the fastpath hint probe is lock-free.
    by_id: SnapMap<u64, Arc<Mount>>,
    /// Cached handle to this namespace's DLHT. The dcache allocates
    /// DLHTs lazily and never replaces a live namespace's table, so the
    /// first fastpath lookup can memoize the handle and every later
    /// lookup skips the dcache's per-namespace map scan. Teardown
    /// ([`Kernel::destroy_namespace`](crate::Kernel::destroy_namespace))
    /// retires the table from the dcache's map; this memoized `Arc` then
    /// keeps the retired table alive only until the last in-flight
    /// reader drops its namespace handle, at which point the table —
    /// and every entry still in it — is freed wholesale.
    dlht: OnceLock<Arc<Dlht>>,
}

impl MountNamespace {
    /// A namespace rooted at `root`.
    pub fn new(id: NsId, root: Arc<Mount>) -> Arc<MountNamespace> {
        let by_id = SnapMap::new();
        by_id.insert(root.id, root.clone());
        Arc::new(MountNamespace {
            id,
            root: EpochCell::new(root),
            children: RwLock::new(HashMap::new()),
            by_id,
            dlht: OnceLock::new(),
        })
    }

    /// This namespace's DLHT, memoized on first use (see the field doc —
    /// sound because the dcache never replaces a live namespace's table).
    pub fn dlht(&self, dcache: &Dcache) -> &Dlht {
        self.dlht_handle(dcache)
    }

    /// The memoized [`Arc`] handle to this namespace's DLHT — for
    /// callers that publish entries and must record *which table* they
    /// inserted into (weak DLHT membership survives teardown; a
    /// namespace id alone would not).
    pub fn dlht_handle(&self, dcache: &Dcache) -> &Arc<Dlht> {
        self.dlht.get_or_init(|| dcache.dlht_for(self.id))
    }

    /// The namespace's root mount (lock-free).
    pub fn root_mount(&self) -> Arc<Mount> {
        self.root.get()
    }

    /// [`root_mount`](MountNamespace::root_mount) borrowed under a
    /// caller-held epoch guard: the fastpath's root test takes no
    /// reference.
    pub fn root_mount_read<'g>(&self, guard: &'g dc_rcu::Guard) -> &'g Arc<Mount> {
        self.root.read(guard)
    }

    /// Whether `(mount, dentry)` is this namespace's root — where the root
    /// hash state applies, and the only process root under which a
    /// memoized symlink translation means what it meant to the walk that
    /// made it. Lock-free, no reference taken.
    pub fn is_root(&self, mount: &Mount, dentry: &Arc<Dentry>, guard: &dc_rcu::Guard) -> bool {
        let root = self.root_mount_read(guard);
        mount.id == root.id && Arc::ptr_eq(dentry, &root.root)
    }

    /// Registers a mount at its mountpoint.
    pub fn add_mount(&self, mount: Arc<Mount>) {
        if let Some((parent, mp)) = &mount.parent {
            self.children
                .write()
                .insert((parent.id, mp.id()), mount.clone());
        }
        self.by_id.insert(mount.id, mount);
    }

    /// Unregisters a mount; returns it if it was present.
    pub fn remove_mount(&self, mount_id: u64) -> Option<Arc<Mount>> {
        let m = self.by_id.remove(mount_id)?;
        if let Some((parent, mp)) = &m.parent {
            self.children.write().remove(&(parent.id, mp.id()));
        }
        Some(m)
    }

    /// The mount hanging at `(parent mount, mountpoint dentry)`, if any —
    /// the walk's mountpoint-crossing probe.
    pub fn mount_at(&self, parent_mount: u64, mountpoint: DentryId) -> Option<Arc<Mount>> {
        self.children
            .read()
            .get(&(parent_mount, mountpoint))
            .cloned()
    }

    /// True if a mount hangs on `dentry` under any parent mount —
    /// mounted-on directories are busy for rename/rmdir purposes, by
    /// whichever alias of their tree the caller came (Linux's
    /// `d_mountpoint`). A handful of mounts per namespace: a scan.
    pub fn is_mountpoint(&self, dentry: DentryId) -> bool {
        self.children.read().keys().any(|&(_, d)| d == dentry)
    }

    /// Resolves a mount id (fastpath mount-hint validation, §4.3;
    /// lock-free).
    pub fn mount_by_id(&self, id: u64) -> Option<Arc<Mount>> {
        self.by_id.get(id)
    }

    /// Borrows the mount for `id` under a caller-held epoch guard — the
    /// fastpath variant of [`mount_by_id`](MountNamespace::mount_by_id)
    /// (no nested pin, no clone until the hit is validated).
    pub fn mount_by_id_read<'g>(
        &self,
        id: u64,
        guard: &'g dc_rcu::Guard,
    ) -> Option<&'g Arc<Mount>> {
        self.by_id.get_ref(id, guard)
    }

    /// Whether anything but this namespace and the caller's one reference
    /// holds `mount`, one of its child mounts: a cwd, a root or an open
    /// handle, each of which holds a `PathRef` and with it the mount
    /// (Linux's `mnt_count` test behind `umount`'s `EBUSY`). A superseded
    /// snapshot (an older mount list, a replaced cwd or root) holds it
    /// until its grace period ends, so a count above the floor is
    /// believed only after one ([`dc_rcu::synchronize`]: the caller must
    /// not be pinned).
    pub fn in_use(&self, mount: &Arc<Mount>) -> bool {
        // The mountpoint index's, the by-id snapshot's and the caller's.
        let floor = 3;
        if Arc::strong_count(mount) > floor {
            dc_rcu::synchronize();
        }
        Arc::strong_count(mount) > floor
    }

    /// Whether this namespace has any child mounts (diagnostics).
    pub fn mount_count(&self) -> usize {
        self.by_id.len()
    }

    /// Snapshot of all mounts (umount -a, namespace teardown).
    pub fn mounts_snapshot(&self) -> Vec<Arc<Mount>> {
        self.by_id.values()
    }
}

impl std::fmt::Debug for MountNamespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MountNamespace")
            .field("id", &self.id)
            .field("mounts", &self.mount_count())
            .finish()
    }
}
