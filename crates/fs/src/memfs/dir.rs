//! Block-local directory entry records (ext2-style).
//!
//! Each directory data block holds a chain of variable-length records that
//! always tile the whole block:
//!
//! ```text
//! +--------+---------+----------+-------+-----------------+---------+
//! | ino u64| rec u16 | nlen u8  | ft u8 | name bytes      | padding |
//! +--------+---------+----------+-------+-----------------+---------+
//! ```
//!
//! `ino == 0` marks a free record. Deletion merges the freed record into
//! its predecessor when possible, exactly like ext2. Lookup linearly scans
//! and decodes records — the real per-miss work a directory cache saves.

use crate::error::{FsError, FsResult};

/// Record header size in bytes.
pub const HEADER: usize = 12;

/// Longest permitted name (fits `name_len: u8`).
pub const NAME_MAX: usize = 255;

fn align4(n: usize) -> usize {
    (n + 3) & !3
}

/// Space a live record with `name_len` bytes of name actually needs.
pub fn needed(name_len: usize) -> usize {
    align4(HEADER + name_len)
}

/// A decoded record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord<'a> {
    /// Byte offset of the record within the block.
    pub offset: usize,
    /// Inode number; 0 for a free record.
    pub ino: u64,
    /// Total record length including padding.
    pub rec_len: usize,
    /// Entry type (meaningless when free).
    pub ftype: u8,
    /// Name bytes (empty when free).
    pub name: &'a [u8],
}

/// Initializes an empty directory block: one free record covering it.
pub fn init_block(buf: &mut [u8]) {
    buf.fill(0);
    let len = buf.len();
    write_header(buf, 0, 0, len, 0, 0);
}

fn write_header(buf: &mut [u8], off: usize, ino: u64, rec_len: usize, name_len: u8, ftype: u8) {
    buf[off..off + 8].copy_from_slice(&ino.to_le_bytes());
    buf[off + 8..off + 10].copy_from_slice(&(rec_len as u16).to_le_bytes());
    buf[off + 10] = name_len;
    buf[off + 11] = ftype;
}

fn decode_at(buf: &[u8], off: usize) -> FsResult<RawRecord<'_>> {
    let header = buf.get(off..).and_then(<[u8]>::first_chunk::<HEADER>);
    let Some(&[ino @ .., len_lo, len_hi, name_len, ftype]) = header else {
        return Err(FsError::Io);
    };
    let ino = u64::from_le_bytes(ino);
    let rec_len = usize::from(u16::from_le_bytes([len_lo, len_hi]));
    let name_len = usize::from(name_len);
    if rec_len < HEADER || off + rec_len > buf.len() || HEADER + name_len > rec_len {
        return Err(FsError::Io);
    }
    let name = if ino == 0 {
        &buf[0..0]
    } else {
        &buf[off + HEADER..off + HEADER + name_len]
    };
    Ok(RawRecord {
        offset: off,
        ino,
        rec_len,
        ftype,
        name,
    })
}

/// Iterator over every record (free ones included) in one block.
pub struct RecordIter<'a> {
    buf: &'a [u8],
    off: usize,
    failed: bool,
}

impl<'a> RecordIter<'a> {
    /// Iterates `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordIter {
            buf,
            off: 0,
            failed: false,
        }
    }

    /// Iterates `buf` starting at record offset `off` (must be a record
    /// boundary, e.g. a cursor previously returned by this module).
    pub fn from_offset(buf: &'a [u8], off: usize) -> Self {
        RecordIter {
            buf,
            off,
            failed: false,
        }
    }
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = FsResult<RawRecord<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.off >= self.buf.len() {
            return None;
        }
        match decode_at(self.buf, self.off) {
            Ok(rec) => {
                self.off += rec.rec_len;
                Some(Ok(rec))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Finds a live record by name; returns `(offset, ino, ftype)`.
pub fn find(buf: &[u8], name: &[u8]) -> FsResult<Option<(usize, u64, u8)>> {
    for rec in RecordIter::new(buf) {
        let rec = rec?;
        if rec.ino != 0 && rec.name == name {
            return Ok(Some((rec.offset, rec.ino, rec.ftype)));
        }
    }
    Ok(None)
}

/// Bytes of `rec` a new record could take: all of a free record, the
/// padding past the name of a live one.
fn slack(rec: &RawRecord<'_>) -> usize {
    if rec.ino == 0 {
        rec.rec_len
    } else {
        rec.rec_len - needed(rec.name.len())
    }
}

/// The one pass a mutation makes over a block: the live record named
/// `name` as `(ino, ftype)`, and whether a record for `name` fits in the
/// block ([`insert`]'s answer). Stops at the name, so `room` covers the
/// records before it only.
pub fn scan(buf: &[u8], name: &[u8]) -> FsResult<(Option<(u64, u8)>, bool)> {
    let want = needed(name.len());
    let mut room = false;
    for rec in RecordIter::new(buf) {
        let rec = rec?;
        if rec.ino != 0 && rec.name == name {
            return Ok((Some((rec.ino, rec.ftype)), room));
        }
        room |= slack(&rec) >= want;
    }
    Ok((None, room))
}

/// Inserts a record, splitting free space; returns `false` if the block
/// has no room. The caller has already checked the name does not exist.
pub fn insert(buf: &mut [u8], name: &[u8], ino: u64, ftype: u8) -> FsResult<bool> {
    debug_assert!(ino != 0);
    debug_assert!(!name.is_empty() && name.len() <= NAME_MAX);
    let want = needed(name.len());
    // First pass (immutable): find a slot.
    let mut slot: Option<(usize, usize, usize, u8, u64)> = None; // off, rec_len, used, kind
    for rec in RecordIter::new(buf) {
        let rec = rec?;
        if slack(&rec) >= want {
            let used = rec.rec_len - slack(&rec);
            slot = Some((rec.offset, rec.rec_len, used, rec.ftype, rec.ino));
            break;
        }
    }
    let Some((off, rec_len, used, old_ftype, old_ino)) = slot else {
        return Ok(false);
    };
    if used == 0 {
        // Take over the free record wholesale.
        write_header(buf, off, ino, rec_len, name.len() as u8, ftype);
        buf[off + HEADER..off + HEADER + name.len()].copy_from_slice(name);
    } else {
        // Shrink the live record to `used`, put the new one in its slack.
        let old_name_len = buf[off + 10];
        write_header(buf, off, old_ino, used, old_name_len, old_ftype);
        let noff = off + used;
        write_header(buf, noff, ino, rec_len - used, name.len() as u8, ftype);
        buf[noff + HEADER..noff + HEADER + name.len()].copy_from_slice(name);
    }
    Ok(true)
}

/// A located record: offset, rec_len, ino, and the predecessor's
/// (offset, rec_len) when one exists.
type FoundRecord = (usize, usize, u64, Option<(usize, usize)>);

/// Removes the record named `name`; returns its ino, or `None` if absent.
pub fn remove(buf: &mut [u8], name: &[u8]) -> FsResult<Option<u64>> {
    let mut prev: Option<RawRecord<'_>> = None;
    let mut hit: Option<FoundRecord> = None;
    for rec in RecordIter::new(buf) {
        let rec = rec?;
        if rec.ino != 0 && rec.name == name {
            let prev_info = prev.map(|p| (p.offset, p.rec_len));
            hit = Some((rec.offset, rec.rec_len, rec.ino, prev_info));
            break;
        }
        prev = Some(rec);
    }
    let Some((off, rec_len, ino, prev_info)) = hit else {
        return Ok(None);
    };
    match prev_info {
        Some((poff, plen)) => {
            // Merge into the predecessor: extend its rec_len.
            let merged = (plen + rec_len) as u16;
            buf[poff + 8..poff + 10].copy_from_slice(&merged.to_le_bytes());
        }
        None => {
            // First record in the block: just mark free.
            write_header(buf, off, 0, rec_len, 0, 0);
        }
    }
    Ok(Some(ino))
}

/// True when the block contains no live records.
pub fn is_empty(buf: &[u8]) -> FsResult<bool> {
    for rec in RecordIter::new(buf) {
        if rec?.ino != 0 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Counts live records.
#[cfg_attr(not(test), allow(dead_code))]
pub fn count_live(buf: &[u8]) -> FsResult<usize> {
    let mut n = 0;
    for rec in RecordIter::new(buf) {
        if rec?.ino != 0 {
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Vec<u8> {
        let mut b = vec![0u8; 512];
        init_block(&mut b);
        b
    }

    #[test]
    fn fresh_block_is_empty() {
        let b = block();
        assert!(is_empty(&b).unwrap());
        assert_eq!(count_live(&b).unwrap(), 0);
        assert_eq!(find(&b, b"x").unwrap(), None);
    }

    #[test]
    fn insert_find_remove() {
        let mut b = block();
        assert!(insert(&mut b, b"hello", 42, 1).unwrap());
        assert_eq!(
            find(&b, b"hello").unwrap().map(|(_, i, t)| (i, t)),
            Some((42, 1))
        );
        assert_eq!(remove(&mut b, b"hello").unwrap(), Some(42));
        assert!(is_empty(&b).unwrap());
        assert_eq!(remove(&mut b, b"hello").unwrap(), None);
    }

    #[test]
    fn many_inserts_tile_block() {
        let mut b = block();
        let mut n = 0;
        loop {
            let name = format!("file{n:03}");
            if !insert(&mut b, name.as_bytes(), n + 1, 1).unwrap() {
                break;
            }
            n += 1;
        }
        // 512-byte block, 20-byte records → 25 entries.
        assert_eq!(n, 25);
        assert_eq!(count_live(&b).unwrap(), 25);
        for i in 0..n {
            let name = format!("file{i:03}");
            assert!(find(&b, name.as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn remove_middle_merges_and_space_is_reusable() {
        let mut b = block();
        assert!(insert(&mut b, b"aa", 1, 1).unwrap());
        assert!(insert(&mut b, b"bb", 2, 1).unwrap());
        assert!(insert(&mut b, b"cc", 3, 1).unwrap());
        assert_eq!(remove(&mut b, b"bb").unwrap(), Some(2));
        assert_eq!(count_live(&b).unwrap(), 2);
        assert!(find(&b, b"aa").unwrap().is_some());
        assert!(find(&b, b"cc").unwrap().is_some());
        // The freed space is reusable through the predecessor's slack.
        assert!(insert(&mut b, b"dd", 4, 1).unwrap());
        assert!(find(&b, b"dd").unwrap().is_some());
        assert_eq!(count_live(&b).unwrap(), 3);
    }

    #[test]
    fn scan_agrees_with_find_and_insert() {
        let mut b = block();
        let long = [b'n'; 200];
        for (i, len) in [200usize, 150, 90].into_iter().enumerate() {
            assert!(insert(&mut b, &long[..len], i as u64 + 1, 1).unwrap());
        }
        // 512 - (212 + 164 + 104) = 32 bytes of slack after the last name.
        for name in [
            &b"a"[..],
            &[b'b'; 20],
            &[b'c'; 21],
            &long[..150],
            &long[..90],
        ] {
            let (hit, room) = scan(&b, name).unwrap();
            assert_eq!(hit, find(&b, name).unwrap().map(|(_, i, t)| (i, t)));
            if hit.is_none() {
                assert_eq!(
                    room,
                    insert(&mut b.clone(), name, 9, 1).unwrap(),
                    "{name:?}"
                );
            }
        }
        // Room made by a removal is seen, in a free head record too.
        assert_eq!(scan(&b, &[b'c'; 21]).unwrap(), (None, false));
        remove(&mut b, &long[..200]).unwrap();
        assert_eq!(scan(&b, &[b'c'; 21]).unwrap(), (None, true));
        assert_eq!(scan(&b, &long[..150]).unwrap(), (Some((2, 1)), true));
    }

    #[test]
    fn remove_first_record() {
        let mut b = block();
        assert!(insert(&mut b, b"first", 1, 1).unwrap());
        assert!(insert(&mut b, b"second", 2, 1).unwrap());
        assert_eq!(remove(&mut b, b"first").unwrap(), Some(1));
        assert!(find(&b, b"first").unwrap().is_none());
        assert!(find(&b, b"second").unwrap().is_some());
        // Freed head record is reusable.
        assert!(insert(&mut b, b"third", 3, 1).unwrap());
        assert!(find(&b, b"third").unwrap().is_some());
    }

    #[test]
    fn full_block_rejects_insert() {
        let mut b = block();
        let long = [b'x'; 100];
        let mut n = 0u64;
        while insert(&mut b, &long[..(90 + (n as usize % 10))], n + 1, 1).unwrap() {
            n += 1;
        }
        assert!(n > 0);
        assert!(!insert(&mut b, &[b'y'; 200], 999, 1).unwrap());
    }

    #[test]
    fn corrupt_block_reports_io() {
        let mut b = block();
        insert(&mut b, b"ok", 5, 1).unwrap();
        // Smash a rec_len to zero.
        b[8] = 0;
        b[9] = 0;
        assert_eq!(find(&b, b"ok"), Err(FsError::Io));
    }

    #[test]
    fn iterator_resumes_from_offset() {
        let mut b = block();
        insert(&mut b, b"aaa", 1, 1).unwrap();
        insert(&mut b, b"bbb", 2, 1).unwrap();
        insert(&mut b, b"ccc", 3, 1).unwrap();
        // Find bbb's offset, then resume from its end.
        let (off, _, _) = find(&b, b"bbb").unwrap().unwrap();
        let rec = decode_at(&b, off).unwrap();
        let mut rest = RecordIter::from_offset(&b, off + rec.rec_len)
            .filter_map(|r| r.ok())
            .filter(|r| r.ino != 0);
        assert_eq!(rest.next().unwrap().name, b"ccc");
        assert!(rest.next().is_none());
    }
}
