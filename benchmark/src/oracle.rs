//! The result oracle: a rolling digest of what every operation returned.
//!
//! The first [`DIGEST_OPS`] operations of each in-process stream are
//! digested on the optimized kernel (during the untimed warm-up) and
//! replayed on a `DcacheConfig::baseline()` kernel built from the same
//! seed; the two digests must be equal — the optimized cache has to be
//! observationally equal to the component-at-a-time walk.

use dc_fs::{DirEntry, FsResult, InodeAttr};

/// Operations of each stream that are digested and replayed.
pub const DIGEST_OPS: u64 = 200_000;

/// FNV-1a over 64-bit words, plus the number of results folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    results: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            results: 0,
        }
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.hash = (self.hash ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn status<T>(&mut self, r: &FsResult<T>) {
        self.results += 1;
        self.word(match r {
            Ok(_) => 0,
            Err(e) => *e as u64 + 1,
        });
    }

    /// Folds in a result that carries nothing but success or an errno.
    pub fn errno<T>(&mut self, r: &FsResult<T>) {
        self.status(r);
    }

    /// Folds in `(errno, ino, mode)` of a stat-like result.
    pub fn attr(&mut self, r: &FsResult<InodeAttr>) {
        self.status(r);
        if let Ok(a) = r {
            self.word(a.ino);
            self.word(a.mode as u64);
        }
    }

    /// Folds in `(errno, sorted entry names and inode numbers)` of a
    /// directory listing.
    pub fn listing(&mut self, r: &FsResult<Vec<DirEntry>>) {
        self.status(r);
        if let Ok(entries) = r {
            let mut sorted: Vec<&DirEntry> = entries.iter().collect();
            sorted.sort_unstable_by(|a, b| a.name.cmp(&b.name));
            self.word(sorted.len() as u64);
            for e in sorted {
                for chunk in e.name.as_bytes().chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    self.word(u64::from_le_bytes(w));
                }
                self.word(e.ino);
            }
        }
    }

    /// Results folded in so far.
    pub fn results(&self) -> u64 {
        self.results
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fs::{FileType, FsError};

    fn entry(name: &str, ino: u64) -> DirEntry {
        DirEntry {
            name: name.to_string(),
            ino,
            ftype: FileType::Regular,
        }
    }

    #[test]
    fn listing_order_does_not_matter_but_content_does() {
        let mut a = Digest::default();
        a.listing(&Ok(vec![entry("x", 1), entry("y", 2)]));
        let mut b = Digest::default();
        b.listing(&Ok(vec![entry("y", 2), entry("x", 1)]));
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.listing(&Ok(vec![entry("x", 1), entry("y", 3)]));
        assert_ne!(a, c);
    }

    #[test]
    fn errors_and_successes_differ() {
        let mut a = Digest::default();
        a.errno(&Ok::<(), FsError>(()));
        let mut b = Digest::default();
        b.errno(&Err::<(), FsError>(FsError::NoEnt));
        let mut c = Digest::default();
        c.errno(&Err::<(), FsError>(FsError::NotDir));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a.results(), 1);
    }
}
