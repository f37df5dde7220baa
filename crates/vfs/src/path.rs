//! Path parsing and walk-result types.

use crate::mount::Mount;
use dc_fs::{FsError, FsResult};
use dcache_core::scratch::{InlineVec, INLINE_COMPONENTS};
use dcache_core::{Dentry, DentryKind, Inode};
use std::sync::Arc;

/// Maximum accepted path length (Linux `PATH_MAX`).
pub const PATH_MAX: usize = 4096;

/// Maximum accepted component length (Linux `NAME_MAX`).
pub const NAME_MAX: usize = 255;

/// A position in the mounted namespace: a mount plus a dentry within it
/// (Linux's `struct path`).
#[derive(Clone)]
pub struct PathRef {
    /// The vfsmount.
    pub mount: Arc<Mount>,
    /// The dentry.
    pub dentry: Arc<Dentry>,
}

impl PathRef {
    /// Bundles a mount and dentry.
    pub fn new(mount: Arc<Mount>, dentry: Arc<Dentry>) -> Self {
        PathRef { mount, dentry }
    }
}

impl PathRef {
    /// One step toward the namespace root, and whether it climbed past a
    /// name: from a mount's root to the mountpoint it covers (the same
    /// place in every path, so no name), from anywhere else to the parent
    /// directory (past this dentry's name). `None` at the top.
    pub(crate) fn step_up(&self) -> Option<(PathRef, bool)> {
        if Arc::ptr_eq(&self.dentry, &self.mount.root) {
            let (mount, mountpoint) = self.mount.parent.as_ref()?;
            return Some((PathRef::new(mount.clone(), mountpoint.clone()), false));
        }
        let parent = self.dentry.parent()?;
        Some((PathRef::new(self.mount.clone(), parent), true))
    }

    /// What `..` names here: the parent directory, reached from a mount's
    /// root through the mountpoint (or the stack of them) it covers. The
    /// top of the namespace is its own parent.
    pub(crate) fn dotdot(&self) -> PathRef {
        let mut at = self.clone();
        loop {
            match at.step_up() {
                Some((up, true)) => return up,
                Some((up, false)) => at = up,
                None => return at,
            }
        }
    }
}

impl std::fmt::Debug for PathRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PathRef(mount {}, dentry {} {:?})",
            self.mount.id,
            self.dentry.id(),
            self.dentry.name()
        )
    }
}

/// Outcome of a successful path resolution.
///
/// `dentry` may be **negative** when the final component does not exist;
/// callers that need an object (stat, open without `O_CREAT`) convert that
/// to `ENOENT`/`ENOTDIR`, while creating callers use the negative dentry
/// directly.
///
/// `M` is how the mount is held: owned (the default) where the result is
/// kept — an open handle, a new cwd or root, a mutation that runs after
/// the lookup — and borrowed ([`WalkRef`]) where it is consumed on the
/// spot.
#[derive(Clone)]
pub struct WalkResult<M = Arc<Mount>> {
    /// Mount the result lives in.
    pub mount: M,
    /// Final dentry (positive or negative).
    pub dentry: Arc<Dentry>,
    /// The inode for positive results.
    pub inode: Option<Arc<Inode>>,
}

/// A resolution that borrows its mount: from the namespace's mount table
/// under the lookup's epoch pin on a fastpath hit, from the slowpath's
/// owned result otherwise. A warm hit consumed in this form never touches
/// the mount's reference count — a cache line every thread resolving
/// through that mount would otherwise write twice (§13).
pub(crate) type WalkRef<'m> = WalkResult<&'m Arc<Mount>>;

impl<M> WalkResult<M> {
    /// The inode, or the negative dentry's error.
    pub fn require_inode(&self) -> FsResult<&Arc<Inode>> {
        match &self.inode {
            Some(i) => Ok(i),
            None => Err(match self.dentry.kind() {
                DentryKind::Negative(k) => k.error(),
                _ => FsError::NoEnt,
            }),
        }
    }

    /// True when the result is a cached absence.
    pub fn is_negative(&self) -> bool {
        self.inode.is_none()
    }
}

impl WalkRef<'_> {
    /// Takes a reference on the mount, for a caller that keeps the result.
    pub(crate) fn into_owned(self) -> WalkResult {
        WalkResult {
            mount: self.mount.clone(),
            dentry: self.dentry,
            inode: self.inode,
        }
    }
}

/// A parsed path: its components plus trailing-slash semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPath<'a> {
    /// Whether the path is absolute.
    pub absolute: bool,
    /// Raw components, `"."` and `".."` included (canonicalization of
    /// dot-dot is walk-mode-dependent, §4.2). Stored inline — parsing a
    /// typical path allocates nothing (DESIGN.md §13).
    pub components: InlineVec<&'a str, INLINE_COMPONENTS>,
    /// Path ended in `/` or `/.` — the final component must be a
    /// directory.
    pub require_dir: bool,
}

/// Splits and validates a path with inline component storage.
///
/// Rejects empty paths (`ENOENT`, POSIX), overlong paths
/// (`ENAMETOOLONG`), overlong components (`ENAMETOOLONG`), and embedded
/// NULs (`EINVAL`). Repeated slashes collapse; `"."` components are
/// dropped except for their trailing-slash effect.
pub fn split_path(path: &str) -> FsResult<ParsedPath<'_>> {
    if path.is_empty() {
        return Err(FsError::NoEnt);
    }
    if path.len() > PATH_MAX {
        return Err(FsError::NameTooLong);
    }
    let bytes = path.as_bytes();
    let absolute = bytes[0] == b'/';
    let mut components = InlineVec::new();
    // One scan does everything: component boundaries, the embedded-NUL
    // check, and per-component length limits ('/' is ASCII, so slicing
    // at its byte offsets always lands on char boundaries).
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'/' {
            let comp = &path[start..i];
            start = i + 1;
            if comp.len() > NAME_MAX {
                return Err(FsError::NameTooLong);
            }
            // Empty (leading or doubled slash) and "." collapse.
            if !comp.is_empty() && comp != "." {
                components.push(comp);
            }
        } else if b == 0 {
            return Err(FsError::Inval);
        }
    }
    let last = &path[start..];
    if last.len() > NAME_MAX {
        return Err(FsError::NameTooLong);
    }
    if !last.is_empty() && last != "." {
        components.push(last);
    }
    // Trailing '/', "/." or ".." all require the target to be a
    // directory.
    let require_dir = last.is_empty() || last == "." || last == "..";
    Ok(ParsedPath {
        absolute,
        components,
        require_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_collapses() {
        let p = split_path("/usr//lib/./x").unwrap();
        assert!(p.absolute);
        assert_eq!(p.components, vec!["usr", "lib", "x"]);
        assert!(!p.require_dir);
    }

    #[test]
    fn relative_paths() {
        let p = split_path("a/b").unwrap();
        assert!(!p.absolute);
        assert_eq!(p.components, vec!["a", "b"]);
    }

    #[test]
    fn dotdot_is_preserved() {
        let p = split_path("a/../b/..").unwrap();
        assert_eq!(p.components, vec!["a", "..", "b", ".."]);
        assert!(p.require_dir);
    }

    #[test]
    fn trailing_slash_requires_dir() {
        assert!(split_path("a/b/").unwrap().require_dir);
        assert!(split_path("a/b/.").unwrap().require_dir);
        assert!(!split_path("a/b").unwrap().require_dir);
        // Root alone is a directory request.
        let root = split_path("/").unwrap();
        assert!(root.components.is_empty());
        assert!(root.require_dir);
    }

    #[test]
    fn components_stay_inline_for_typical_paths() {
        let p = split_path("/usr/lib/x86_64/libc/2.31/debug/src").unwrap();
        assert!(!p.components.is_spilled());
        // Pathologically deep paths spill and still parse correctly.
        let deep = "a/".repeat(40);
        let p = split_path(&deep).unwrap();
        assert!(p.components.is_spilled());
        assert_eq!(p.components.len(), 40);
    }

    #[test]
    fn invalid_paths_rejected() {
        assert_eq!(split_path(""), Err(FsError::NoEnt));
        assert_eq!(split_path("a\0b"), Err(FsError::Inval));
        let long_comp = "x".repeat(300);
        assert_eq!(split_path(&long_comp), Err(FsError::NameTooLong));
        let long_path = "a/".repeat(3000);
        assert_eq!(split_path(&long_path), Err(FsError::NameTooLong));
    }
}
