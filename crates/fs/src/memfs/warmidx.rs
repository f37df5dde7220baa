//! Warm-restart directory index: a journal-style checkpoint of the
//! directory cache's cached names — `(parent inode, name) → inode`,
//! parents first — persisted so a remount can rehydrate the DLHT
//! instead of re-missing its way warm. It holds no signature and no hash
//! state: those stand for a path under one boot's key, and the
//! rehydrator signs each entry under the key of the boot that reads it.
//!
//! On-disk format, all little-endian inside `warmidx_start..data_start`:
//!
//! ```text
//! warmidx_start + 0   header copy A ┐  dual headers, generation-stamped:
//! warmidx_start + 1   header copy B ┘  the best valid copy wins at mount
//! warmidx_start + 2.. payload half 0 (warmidx_half blocks)
//! …                   payload half 1 (warmidx_half blocks)
//! ```
//!
//! Each payload entry is `ino: u64, parent: u64, name_len: u16`, then
//! the name's bytes (version 2; version 1 entries also carried a
//! signature and a hash state, and are rejected as `BadVersion`).
//!
//! Header fields: magic, format version, generation, `bound_seq` (the
//! journal transaction the checkpoint is consistent with — never newer
//! than the durable journal tail), entry count, payload byte length,
//! and a checksum over the payload, all sealed by a header checksum
//! (both `checksum::sum64`). Checkpoint `gen` writes its payload into
//! half `gen % 2` and flushes it **before** either header names it, so
//! a torn checkpoint can lose at most the new generation — the previous
//! generation's header still points at the untouched other half.
//!
//! Reading walks the fallback ladder: newest valid header first; if its
//! payload fails the checksum (torn checkpoint), the older header copy
//! is tried; if no header validates the index is simply absent. Every
//! outcome is typed — corruption degrades to a cold mount, never to a
//! wrong answer. Entry *contents* are deliberately not trusted either:
//! the rehydrator (vfs) re-validates every entry against the recovered
//! inode table before it signs and publishes it.

use super::checksum::sum64;
use super::layout::{Geometry, Reader, Writer};
use crate::error::FsResult;
use dc_blockdev::CachedDisk;

const WI_MAGIC: u64 = 0x4443_5749_4844_5231; // "DCWIHDR1"

/// Current format version; a mismatch rejects the whole index.
pub const WARMIDX_VERSION: u64 = 2;

/// Longest name an entry may carry (matches the fs name limit).
const NAME_MAX: usize = 255;

/// Bytes of one encoded entry before its name.
const ENTRY_FIXED: usize = 8 + 8 + 2;

/// One persisted directory-index entry: a cached name and what it
/// resolved to, everything needed to revalidate and republish it after
/// a remount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmEntry {
    /// Inode the path resolved to at checkpoint time.
    pub ino: u64,
    /// Inode of the parent directory.
    pub parent: u64,
    /// Final path component under `parent`.
    pub name: String,
}

/// Why a present-but-unusable index was rejected wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmReject {
    /// A valid header carries an unknown format version.
    BadVersion {
        /// The version the header claims.
        found: u64,
    },
    /// Every valid header points at a payload that fails its checksum
    /// (torn checkpoint with no intact older generation).
    TornPayload,
    /// The payload passed its checksum but an entry failed to decode
    /// (writer bug or undetected corruption); nothing is trusted.
    Malformed,
    /// The index claims consistency with a journal transaction newer
    /// than what recovery could reconstruct — it describes a future
    /// this disk never reached.
    FutureSeq {
        /// The transaction the index claims to be consistent with.
        bound_seq: u64,
        /// The highest transaction recovery actually recovered.
        recovered_seq: u64,
    },
}

impl std::fmt::Display for WarmReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmReject::BadVersion { found } => write!(f, "unknown index version {found}"),
            WarmReject::TornPayload => write!(f, "payload checksum mismatch (torn checkpoint)"),
            WarmReject::Malformed => write!(f, "entry stream undecodable"),
            WarmReject::FutureSeq {
                bound_seq,
                recovered_seq,
            } => write!(
                f,
                "index bound to txn {bound_seq} but recovery reached only {recovered_seq}"
            ),
        }
    }
}

/// The typed outcome of reading the on-disk index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmLoad {
    /// A consistent index was found.
    Loaded {
        /// Decoded entries, checkpoint order (parents before children).
        entries: Vec<WarmEntry>,
        /// Journal transaction the index is consistent with.
        bound_seq: u64,
        /// Generation of the winning header.
        gen: u64,
    },
    /// No index has ever been written (or both headers are gone).
    Absent,
    /// An index exists but cannot be used; mount falls back cold.
    Rejected(WarmReject),
}

fn encode_header(
    block_size: usize,
    gen: u64,
    bound_seq: u64,
    entries: u64,
    payload_len: u64,
    payload_sum: u64,
) -> Vec<u8> {
    let mut buf = vec![0u8; block_size];
    let mut w = Writer::new(&mut buf);
    w.u64(WI_MAGIC);
    w.u64(WARMIDX_VERSION);
    w.u64(gen);
    w.u64(bound_seq);
    w.u64(entries);
    w.u64(payload_len);
    w.u64(payload_sum);
    let sum = sum64(&[&buf[..56]]);
    let mut w = Writer::new(&mut buf);
    w.seek(56);
    w.u64(sum);
    buf
}

#[derive(Debug, Clone, Copy)]
struct Header {
    version: u64,
    gen: u64,
    bound_seq: u64,
    entries: u64,
    payload_len: u64,
    payload_sum: u64,
}

fn decode_header(buf: &[u8]) -> Option<Header> {
    let mut r = Reader::new(buf);
    if r.u64().ok()? != WI_MAGIC {
        return None;
    }
    let version = r.u64().ok()?;
    let gen = r.u64().ok()?;
    let bound_seq = r.u64().ok()?;
    let entries = r.u64().ok()?;
    let payload_len = r.u64().ok()?;
    let payload_sum = r.u64().ok()?;
    let sum = r.u64().ok()?;
    if sum64(&[&buf[..56]]) != sum {
        return None;
    }
    Some(Header {
        version,
        gen,
        bound_seq,
        entries,
        payload_len,
        payload_sum,
    })
}

fn half_start(geo: &Geometry, gen: u64) -> u64 {
    geo.warmidx_start + 2 + (gen % 2) * geo.warmidx_half()
}

fn encode_entry(out: &mut Vec<u8>, e: &WarmEntry) {
    out.extend_from_slice(&e.ino.to_le_bytes());
    out.extend_from_slice(&e.parent.to_le_bytes());
    out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
    out.extend_from_slice(e.name.as_bytes());
}

fn decode_entries(payload: &[u8], count: u64) -> Option<Vec<WarmEntry>> {
    let mut r = Reader::new(payload);
    let mut out = Vec::with_capacity(count.min(payload.len() as u64 / ENTRY_FIXED as u64) as usize);
    for _ in 0..count {
        let ino = r.u64().ok()?;
        let parent = r.u64().ok()?;
        let name_len = r.u16().ok()? as usize;
        if name_len == 0 || name_len > NAME_MAX {
            return None;
        }
        let name = std::str::from_utf8(r.bytes(name_len).ok()?).ok()?;
        if ino == 0 || parent == 0 {
            return None;
        }
        out.push(WarmEntry {
            ino,
            parent,
            name: name.to_owned(),
        });
    }
    Some(out)
}

/// Bytes of payload the region can hold per checkpoint.
pub(crate) fn payload_capacity(geo: &Geometry) -> usize {
    geo.warmidx_half() as usize * geo.block_size
}

/// Invalidates both header copies (mkfs): a reformatted disk must not
/// resurrect a previous file system's index.
pub(crate) fn format(disk: &CachedDisk, geo: &Geometry) -> FsResult<()> {
    let zero = vec![0u8; geo.block_size];
    disk.write_block(geo.warmidx_start, &zero)?;
    disk.write_block(geo.warmidx_start + 1, &zero)?;
    Ok(())
}

/// Writes checkpoint generation `gen`: payload into half `gen % 2`,
/// flushed durable, then both headers, flushed durable. Entries beyond
/// the region's capacity are dropped from the tail (the caller orders
/// parents before children, so any prefix stays parent-closed); returns
/// how many entries were persisted.
pub(crate) fn checkpoint(
    disk: &CachedDisk,
    geo: &Geometry,
    entries: &[WarmEntry],
    bound_seq: u64,
    gen: u64,
) -> FsResult<usize> {
    let cap = payload_capacity(geo);
    let mut payload = Vec::with_capacity(cap.min(entries.len() * (ENTRY_FIXED + 16)));
    let mut kept = 0usize;
    for e in entries {
        debug_assert!(!e.name.is_empty() && e.name.len() <= NAME_MAX);
        let need = ENTRY_FIXED + e.name.len();
        if payload.len() + need > cap {
            break;
        }
        encode_entry(&mut payload, e);
        kept += 1;
    }
    let payload_len = payload.len() as u64;
    let payload_sum = sum64(&[&payload]);
    let nblocks = payload_len.div_ceil(geo.block_size as u64);
    payload.resize(nblocks as usize * geo.block_size, 0);

    let start = half_start(geo, gen);
    let mut flushed = Vec::with_capacity(nblocks as usize);
    for (i, chunk) in payload.chunks(geo.block_size).enumerate() {
        let b = start + i as u64;
        disk.write_block(b, chunk)?;
        flushed.push(b);
    }
    // Payload durable strictly before any header names it: a cut here
    // leaves the old headers pointing at the untouched other half.
    if !flushed.is_empty() {
        disk.flush_blocks(&flushed)?;
    }
    let hdr = encode_header(
        geo.block_size,
        gen,
        bound_seq,
        kept as u64,
        payload_len,
        payload_sum,
    );
    disk.write_block(geo.warmidx_start, &hdr)?;
    disk.write_block(geo.warmidx_start + 1, &hdr)?;
    disk.flush_blocks(&[geo.warmidx_start, geo.warmidx_start + 1])?;
    Ok(kept)
}

/// Highest generation any valid header copy claims (0 when none do).
/// The next checkpoint continues above it.
pub(crate) fn last_gen(disk: &CachedDisk, geo: &Geometry) -> FsResult<u64> {
    let a = decode_header(&disk.read_block(geo.warmidx_start)?);
    let b = decode_header(&disk.read_block(geo.warmidx_start + 1)?);
    Ok(a.map(|h| h.gen).max(b.map(|h| h.gen)).unwrap_or(0))
}

/// Reads the index, walking the fallback ladder: headers best-gen
/// first, each validated against its payload half. `Err` only on
/// device I/O failure; every structural problem is a typed [`WarmLoad`].
pub(crate) fn read(disk: &CachedDisk, geo: &Geometry) -> FsResult<WarmLoad> {
    let a = decode_header(&disk.read_block(geo.warmidx_start)?);
    let b = decode_header(&disk.read_block(geo.warmidx_start + 1)?);
    let mut headers: Vec<Header> = [a, b].into_iter().flatten().collect();
    headers.sort_by_key(|h| std::cmp::Reverse(h.gen));
    headers.dedup_by_key(|h| h.gen);
    if headers.is_empty() {
        return Ok(WarmLoad::Absent);
    }
    let mut reject = WarmReject::TornPayload;
    for h in headers {
        if h.version != WARMIDX_VERSION {
            // Versioning outranks tearing in the report: the format is
            // simply unknown, whatever the payload says.
            return Ok(WarmLoad::Rejected(WarmReject::BadVersion {
                found: h.version,
            }));
        }
        if h.payload_len > payload_capacity(geo) as u64 {
            continue; // header lies about its own region; try the other
        }
        let start = half_start(geo, h.gen);
        let nblocks = h.payload_len.div_ceil(geo.block_size as u64);
        let mut payload = Vec::with_capacity((nblocks as usize) * geo.block_size);
        for i in 0..nblocks {
            payload.extend_from_slice(&disk.read_block(start + i)?);
        }
        payload.truncate(h.payload_len as usize);
        // Checksum gates decode: nothing in the payload is interpreted
        // until the bytes are proven to be exactly what was written.
        if sum64(&[&payload]) != h.payload_sum {
            reject = WarmReject::TornPayload;
            continue;
        }
        let Some(entries) = decode_entries(&payload, h.entries) else {
            reject = WarmReject::Malformed;
            continue;
        };
        return Ok(WarmLoad::Loaded {
            entries,
            bound_seq: h.bound_seq,
            gen: h.gen,
        });
    }
    Ok(WarmLoad::Rejected(reject))
}

/// Reads the raw (header-validated, payload-checked) entries for fsck's
/// index pass without interpreting them. `None` when the index is
/// absent or rejected — fsck treats that as "nothing to check" (the
/// mount path already degrades it to a cold start).
pub(crate) fn read_for_fsck(disk: &CachedDisk, geo: &Geometry) -> FsResult<Option<Vec<WarmEntry>>> {
    match read(disk, geo)? {
        WarmLoad::Loaded { entries, .. } => Ok(Some(entries)),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{DiskConfig, LatencyModel};
    use std::sync::Arc;

    fn disk_and_geo() -> (Arc<CachedDisk>, Geometry) {
        let disk = Arc::new(CachedDisk::new(DiskConfig {
            block_size: 4096,
            capacity_blocks: 4096,
            latency: LatencyModel::free(),
            cache_pages: 1024,
        }));
        let geo = Geometry::compute(4096, 4096, 1024);
        (disk, geo)
    }

    fn entry(ino: u64, parent: u64, name: &str) -> WarmEntry {
        WarmEntry {
            ino,
            parent,
            name: name.to_owned(),
        }
    }

    #[test]
    fn fresh_region_is_absent() {
        let (disk, geo) = disk_and_geo();
        format(&disk, &geo).unwrap();
        assert_eq!(read(&disk, &geo).unwrap(), WarmLoad::Absent);
    }

    #[test]
    fn checkpoint_round_trips() {
        let (disk, geo) = disk_and_geo();
        let entries = vec![
            entry(2, 1, "usr"),
            entry(3, 2, "include"),
            entry(4, 2, "lib"),
        ];
        let kept = checkpoint(&disk, &geo, &entries, 42, 1).unwrap();
        assert_eq!(kept, 3);
        match read(&disk, &geo).unwrap() {
            WarmLoad::Loaded {
                entries: got,
                bound_seq,
                gen,
            } => {
                assert_eq!(got, entries);
                assert_eq!(bound_seq, 42);
                assert_eq!(gen, 1);
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        assert_eq!(last_gen(&disk, &geo).unwrap(), 1);
    }

    #[test]
    fn newer_generation_wins() {
        let (disk, geo) = disk_and_geo();
        checkpoint(&disk, &geo, &[entry(2, 1, "old")], 10, 1).unwrap();
        checkpoint(&disk, &geo, &[entry(3, 1, "new")], 20, 2).unwrap();
        match read(&disk, &geo).unwrap() {
            WarmLoad::Loaded {
                entries, bound_seq, ..
            } => {
                assert_eq!(entries[0].name, "new");
                assert_eq!(bound_seq, 20);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn torn_new_payload_falls_back_to_previous_generation() {
        let (disk, geo) = disk_and_geo();
        checkpoint(&disk, &geo, &[entry(2, 1, "stable")], 10, 1).unwrap();
        checkpoint(&disk, &geo, &[entry(3, 1, "doomed")], 20, 2).unwrap();
        // Tear generation 2's payload (half 0) behind the index's back;
        // both headers still advertise gen 2.
        let victim = geo.warmidx_start + 2;
        let mut blk = disk.read_block(victim).unwrap().to_vec();
        blk[5] ^= 0xff;
        disk.write_block(victim, &blk).unwrap();
        // Gen 2 is torn, but gen 2's headers overwrote both copies, so
        // no gen-1 header survives: whole-index rejection, typed.
        assert_eq!(
            read(&disk, &geo).unwrap(),
            WarmLoad::Rejected(WarmReject::TornPayload)
        );
    }

    #[test]
    fn torn_header_write_keeps_previous_generation() {
        let (disk, geo) = disk_and_geo();
        checkpoint(&disk, &geo, &[entry(2, 1, "stable")], 10, 1).unwrap();
        // Simulate a cut mid-checkpoint of gen 2: payload landed in the
        // other half and only header copy A was rewritten — torn.
        let mut torn = encode_header(geo.block_size, 2, 20, 1, 1, 0xdead);
        torn[60] ^= 0x01; // break the header checksum
        disk.write_block(geo.warmidx_start, &torn).unwrap();
        match read(&disk, &geo).unwrap() {
            WarmLoad::Loaded {
                entries, bound_seq, ..
            } => {
                assert_eq!(entries[0].name, "stable");
                assert_eq!(bound_seq, 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_version_is_typed() {
        let (disk, geo) = disk_and_geo();
        let mut buf = vec![0u8; geo.block_size];
        let mut w = Writer::new(&mut buf);
        w.u64(WI_MAGIC);
        w.u64(99); // future version
        w.u64(1);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        let sum = sum64(&[&buf[..56]]);
        let mut w = Writer::new(&mut buf);
        w.seek(56);
        w.u64(sum);
        disk.write_block(geo.warmidx_start, &buf).unwrap();
        disk.write_block(geo.warmidx_start + 1, &buf).unwrap();
        assert_eq!(
            read(&disk, &geo).unwrap(),
            WarmLoad::Rejected(WarmReject::BadVersion { found: 99 })
        );
    }

    #[test]
    fn capacity_overflow_drops_tail_not_parents() {
        let (disk, geo) = disk_and_geo();
        // More entries than the half can hold; parents (low indices)
        // must survive, the tail must be dropped.
        let per = ENTRY_FIXED + 8;
        let fits = payload_capacity(&geo) / per;
        let entries: Vec<WarmEntry> = (0..fits as u64 + 100)
            .map(|i| entry(i + 2, 1, "cccccccc"))
            .collect();
        let kept = checkpoint(&disk, &geo, &entries, 1, 1).unwrap();
        assert!(kept <= fits + 1);
        assert!(kept >= fits - 1);
        match read(&disk, &geo).unwrap() {
            WarmLoad::Loaded { entries: got, .. } => {
                assert_eq!(got.len(), kept);
                assert_eq!(got[0], entries[0]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn format_invalidates_previous_index() {
        let (disk, geo) = disk_and_geo();
        checkpoint(&disk, &geo, &[entry(2, 1, "ghost")], 5, 1).unwrap();
        format(&disk, &geo).unwrap();
        assert_eq!(read(&disk, &geo).unwrap(), WarmLoad::Absent);
    }

    #[test]
    fn random_corruption_never_panics_and_is_typed() {
        // Seeded byte-flip campaign over the whole region: every read
        // must return a typed WarmLoad, never panic, and when it loads
        // it must load the exact committed entries.
        let entries = vec![entry(2, 1, "usr"), entry(3, 2, "share"), entry(4, 3, "man")];
        let mut x = 0x5EEDu64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _trial in 0..200 {
            let (disk, geo) = disk_and_geo();
            checkpoint(&disk, &geo, &entries, 7, 1).unwrap();
            let blk = geo.warmidx_start + rng() % geo.warmidx_blocks;
            let off = (rng() % geo.block_size as u64) as usize;
            let mut data = disk.read_block(blk).unwrap().to_vec();
            data[off] ^= (rng() % 255 + 1) as u8;
            disk.write_block(blk, &data).unwrap();
            match read(&disk, &geo).unwrap() {
                WarmLoad::Loaded { entries: got, .. } => assert_eq!(got, entries),
                WarmLoad::Absent | WarmLoad::Rejected(_) => {}
            }
        }
    }
}
