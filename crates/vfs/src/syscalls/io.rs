//! Data-plane operations on open handles.

use crate::kernel::Kernel;
use crate::process::Process;
use bytes::Bytes;
use dc_fs::{FsError, FsResult};
use dc_obs::OpClass;

impl Kernel {
    /// `read(2)`.
    pub fn read_fd(&self, proc: &Process, fd: u32, len: usize) -> FsResult<Bytes> {
        self.obs().time(OpClass::Io, || {
            let h = proc.fd(fd)?;
            if !h.flags.read {
                return Err(FsError::BadF);
            }
            let mut pos = h.pos.lock();
            let data = h.path.mount.sb.fs.read(h.inode.ino, *pos, len)?;
            *pos += data.len() as u64;
            Ok(data)
        })
    }

    /// `pread(2)`.
    pub fn pread(&self, proc: &Process, fd: u32, off: u64, len: usize) -> FsResult<Bytes> {
        self.obs().time(OpClass::Io, || {
            let h = proc.fd(fd)?;
            if !h.flags.read {
                return Err(FsError::BadF);
            }
            h.path.mount.sb.fs.read(h.inode.ino, off, len)
        })
    }

    /// `write(2)`.
    pub fn write_fd(&self, proc: &Process, fd: u32, data: &[u8]) -> FsResult<usize> {
        self.obs().time(OpClass::Io, || {
            let h = proc.fd(fd)?;
            if !h.flags.write {
                return Err(FsError::BadF);
            }
            let mut pos = h.pos.lock();
            let off = if h.flags.append {
                h.inode.attr().size
            } else {
                *pos
            };
            let n = h.path.mount.sb.fs.write(h.inode.ino, off, data)?;
            // Refresh the cached attributes (size/mtime moved).
            if let Ok(attr) = h.path.mount.sb.fs.getattr(h.inode.ino) {
                h.inode.store_attr(attr);
            }
            *pos = off + n as u64;
            Ok(n)
        })
    }

    /// `pwrite(2)`.
    pub fn pwrite(&self, proc: &Process, fd: u32, off: u64, data: &[u8]) -> FsResult<usize> {
        self.obs().time(OpClass::Io, || {
            let h = proc.fd(fd)?;
            if !h.flags.write {
                return Err(FsError::BadF);
            }
            let n = h.path.mount.sb.fs.write(h.inode.ino, off, data)?;
            if let Ok(attr) = h.path.mount.sb.fs.getattr(h.inode.ino) {
                h.inode.store_attr(attr);
            }
            Ok(n)
        })
    }

    /// `lseek(2)` (SEEK_SET only; directories reset their stream).
    pub fn lseek(&self, proc: &Process, fd: u32, pos: u64) -> FsResult<u64> {
        self.obs().time(OpClass::Other, || {
            let h = proc.fd(fd)?;
            if h.inode.is_dir() {
                if pos != 0 {
                    return Err(FsError::Inval);
                }
                self.rewinddir(proc, fd)?;
                return Ok(0);
            }
            *h.pos.lock() = pos;
            Ok(pos)
        })
    }

    /// `fsync(2)`.
    pub fn fsync(&self, proc: &Process, fd: u32) -> FsResult<()> {
        self.obs().time(OpClass::Io, || {
            let h = proc.fd(fd)?;
            h.path.mount.sb.fs.sync()
        })
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(&self, proc: &Process, fd: u32, size: u64) -> FsResult<()> {
        self.obs().time(OpClass::Io, || {
            let h = proc.fd(fd)?;
            if !h.flags.write {
                return Err(FsError::BadF);
            }
            h.inode.setattr(dc_fs::SetAttr {
                size: Some(size),
                ..Default::default()
            })?;
            Ok(())
        })
    }
}
