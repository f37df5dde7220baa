//! Errno-shaped error type shared by every layer of the stack.

dc_obs::keyed_enum! {
    /// POSIX-style errors returned by file systems, the directory cache,
    /// and the VFS syscall surface.
    ///
    /// Variants correspond one-to-one with the errno values the paper's
    /// workloads observe. Each row is the variant and its classic errno
    /// spelling ([`FsError::errno_name`]). The row order is a wire
    /// format: `dc-server` sends a variant as status code `idx() + 1`,
    /// so a new errno goes at the end.
    #[derive(Hash)]
    pub enum FsError {
        /// ENOENT: no such file or directory.
        NoEnt = "ENOENT",
        /// ENOTDIR: a non-directory was used as a directory.
        NotDir = "ENOTDIR",
        /// EISDIR: a directory was used where a file is required.
        IsDir = "EISDIR",
        /// EACCES: permission denied.
        Access = "EACCES",
        /// EPERM: operation not permitted.
        Perm = "EPERM",
        /// EEXIST: file exists.
        Exist = "EEXIST",
        /// ENOTEMPTY: directory not empty.
        NotEmpty = "ENOTEMPTY",
        /// ELOOP: too many levels of symbolic links.
        Loop = "ELOOP",
        /// ENAMETOOLONG: path or component too long.
        NameTooLong = "ENAMETOOLONG",
        /// EINVAL: invalid argument.
        Inval = "EINVAL",
        /// EROFS: read-only file system.
        RoFs = "EROFS",
        /// ENOSPC: no space left on device.
        NoSpc = "ENOSPC",
        /// EXDEV: cross-device link or rename.
        XDev = "EXDEV",
        /// EBADF: bad file descriptor.
        BadF = "EBADF",
        /// EMFILE: too many open files.
        MFile = "EMFILE",
        /// ENOSYS: operation not supported by this file system.
        NoSys = "ENOSYS",
        /// EBUSY: resource busy (e.g. unmounting a busy mount).
        Busy = "EBUSY",
        /// EIO: low-level I/O error.
        Io = "EIO",
        /// ESRCH: no such process (pseudo file systems).
        Srch = "ESRCH",
        /// ERANGE: result does not fit in the supplied buffer.
        Range = "ERANGE",
    }
}

impl FsError {
    /// The classic errno spelling, e.g. `"ENOENT"`.
    pub fn errno_name(self) -> &'static str {
        self.key()
    }

    /// Whether a path walk failing with this error names a *definitive*
    /// absence that is legal to cache as a negative dentry (`ENOENT`) or a
    /// structural misuse cacheable as an `ENOTDIR` dentry (§5.2).
    pub fn is_negative_cacheable(self) -> bool {
        matches!(self, FsError::NoEnt | FsError::NotDir)
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.errno_name())
    }
}

impl std::error::Error for FsError {}

impl From<dc_blockdev::BlockError> for FsError {
    fn from(_: dc_blockdev::BlockError) -> Self {
        FsError::Io
    }
}

/// Result alias used across the stack.
pub type FsResult<T> = Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_names_match() {
        assert_eq!(FsError::NoEnt.errno_name(), "ENOENT");
        assert_eq!(FsError::NotEmpty.to_string(), "ENOTEMPTY");
    }

    #[test]
    fn negative_cacheability() {
        assert!(FsError::NoEnt.is_negative_cacheable());
        assert!(FsError::NotDir.is_negative_cacheable());
        assert!(!FsError::Access.is_negative_cacheable());
        assert!(!FsError::Loop.is_negative_cacheable());
    }

    #[test]
    fn block_errors_map_to_eio() {
        let e: FsError = dc_blockdev::BlockError::BadLength { got: 1, want: 2 }.into();
        assert_eq!(e, FsError::Io);
    }
}
