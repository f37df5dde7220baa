//! Physical metadata write-ahead journal (jbd2-flavored redo log).
//!
//! Every metadata mutation becomes a transaction: the full final
//! content of each dirtied metadata block is logged to a reserved
//! circular region, sealed by a checksummed commit record, and only
//! then checkpointed in place through the write-back page cache. The
//! commit discipline rides the block layer's ordered-flush contract
//! (`flush_blocks(payload)` → `flush_blocks([commit])`), so a power cut
//! can never leave a commit record whose payload is missing.
//!
//! On-disk format, all little-endian inside `journal_start..data_start`:
//!
//! ```text
//! journal_start + 0   header copy A ┐  dual headers: a torn header
//! journal_start + 1   header copy B ┘  write can lose at most one copy
//! journal_start + 2.. circular log of transactions:
//!     [descriptor]  JD_MAGIC, seq, n, target block numbers
//!     [data × n]    full block images
//!     [commit]      JC_MAGIC, seq, n, sum64(descriptor fields, data)
//! ```
//!
//! Header fields: `tail_seq` (every txn ≤ it is checkpointed in place)
//! and `tail_slot` (log slot where txn `tail_seq + 1` begins). Recovery
//! replays the contiguous chain `tail_seq+1, tail_seq+2, …` from
//! `tail_slot` and stops at the first hole or checksum mismatch — the
//! torn tail. The tail advances **only** after a full checkpoint
//! (`sync`, or a forced one when the log fills), which also closes the
//! block-reuse hazard: a freed-then-reallocated block can only be
//! re-logged *after* the stale record fell behind the tail.

use super::checksum::sum64;
use super::layout::{Geometry, Reader, Writer};
use super::store::TxnBuf;
use crate::error::{FsError, FsResult};
use bytes::{Bytes, BytesMut};
use dc_blockdev::CachedDisk;
use dc_obs::TraceEvent;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

const JH_MAGIC: u64 = 0x4443_4a48_4452_5331; // "DCJHDRS1"
const JD_MAGIC: u64 = 0x4443_4a44_4553_4331; // "DCJDESC1"
const JC_MAGIC: u64 = 0x4443_4a43_4d54_5331; // "DCJCMTS1"

/// Bytes of a descriptor block that carry fields: magic, seq, n, then
/// `n` target block numbers. The commit record's checksum covers them.
fn desc_len(n: u32) -> usize {
    8 + 8 + 4 + 8 * n as usize
}

/// The commit record's checksum: the descriptor's fields, then every
/// logged image in log order.
fn commit_sum<'a>(desc: &'a [u8], n: u32, images: impl Iterator<Item = &'a Bytes>) -> u64 {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + n as usize);
    parts.push(&desc[..desc_len(n)]);
    parts.extend(images.map(|d| &d[..]));
    sum64(&parts)
}

dc_obs::counters! {
    /// The running journal's counters (`journal` section).
    pub struct JournalCounters = "journal" {
        /// Transactions committed.
        pub commits,
        /// Metadata block images logged (descriptor/commit blocks excluded).
        pub blocks_logged,
        /// Checkpoints (tail advances), including forced ones.
        pub checkpoints,
        /// Checkpoints forced by log-space pressure.
        pub forced_checkpoints,
        /// Transactions replayed by recovery at mount.
        pub replayed_txns,
    } => JournalStats
}

/// What recovery found and redid at mount.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayInfo {
    /// Highest committed transaction recovered (0 = empty journal).
    pub last_seq: u64,
    /// Transactions actually replayed (those past the tail).
    pub replayed: u64,
    /// Log slot following the last recovered transaction.
    pub(crate) end_slot: u64,
    /// Header generation recovery wrote; the running journal continues
    /// from here so its checkpoints always outrank recovery's headers.
    pub(crate) gen: u64,
}

struct JState {
    /// Sequence number the next commit takes.
    next_seq: u64,
    /// Log slot the next commit starts at.
    head_slot: u64,
    /// Log slots occupied between tail and head.
    live_slots: u64,
    /// Monotonic header generation (higher valid copy wins at mount).
    gen: u64,
    /// All txns ≤ tail_seq are checkpointed in place.
    tail_seq: u64,
    /// Slot where txn `tail_seq + 1` begins.
    tail_slot: u64,
}

/// The running journal of one mounted memfs.
pub(crate) struct Journal {
    hdr_a: u64,
    hdr_b: u64,
    log_start: u64,
    log_slots: u64,
    block_size: usize,
    state: Mutex<JState>,
    /// Reset with every other metric source by `Kernel::reset_stats`
    /// (the mount-time replay count included), so the `journal_commit` /
    /// `journal_replay` event totals keep reconciling with these.
    pub(crate) stats: JournalCounters,
}

impl Journal {
    fn region(geo: &Geometry) -> (u64, u64, u64, u64) {
        let hdr_a = geo.journal_start;
        let hdr_b = geo.journal_start + 1;
        let log_start = geo.journal_start + 2;
        let log_slots = geo.journal_blocks - 2;
        (hdr_a, hdr_b, log_start, log_slots)
    }

    fn encode_header(block_size: usize, gen: u64, tail_seq: u64, tail_slot: u64) -> Bytes {
        let mut buf = BytesMut::zeroed(block_size);
        let mut w = Writer::new(&mut buf);
        w.u64(JH_MAGIC);
        w.u64(gen);
        w.u64(tail_seq);
        w.u64(tail_slot);
        let sum = sum64(&[&buf[..32]]);
        let mut w = Writer::new(&mut buf);
        w.seek(32);
        w.u64(sum);
        buf.freeze()
    }

    fn decode_header(buf: &[u8]) -> Option<(u64, u64, u64)> {
        let mut r = Reader::new(buf);
        if r.u64().ok()? != JH_MAGIC {
            return None;
        }
        let gen = r.u64().ok()?;
        let tail_seq = r.u64().ok()?;
        let tail_slot = r.u64().ok()?;
        let sum = r.u64().ok()?;
        if sum64(&[&buf[..32]]) != sum {
            return None;
        }
        Some((gen, tail_seq, tail_slot))
    }

    /// Initializes the journal region on a fresh file system (mkfs).
    pub(crate) fn format(disk: &CachedDisk, geo: &Geometry) -> FsResult<()> {
        let (hdr_a, hdr_b, _, _) = Self::region(geo);
        let hdr = Self::encode_header(geo.block_size, 1, 0, 0);
        disk.write_block_shared(hdr_a, hdr.clone())?;
        disk.write_block_shared(hdr_b, hdr)?;
        Ok(())
    }

    /// Reads the best valid header copy; a freshly-zeroed region (no
    /// valid copy) recovers as an empty journal.
    fn read_header(disk: &CachedDisk, geo: &Geometry) -> FsResult<(u64, u64, u64)> {
        let (hdr_a, hdr_b, _, _) = Self::region(geo);
        let a = Self::decode_header(&disk.read_block(hdr_a)?);
        let b = Self::decode_header(&disk.read_block(hdr_b)?);
        Ok(match (a, b) {
            (Some(a), Some(b)) => {
                if a.0 >= b.0 {
                    a
                } else {
                    b
                }
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => (0, 0, 0),
        })
    }

    /// Recovers the journal at mount: replays every committed
    /// transaction past the tail (in sequence order), discards the torn
    /// tail, makes the replayed state durable, and advances the tail.
    /// Idempotent — a crash during recovery just replays again.
    pub(crate) fn recover(disk: &CachedDisk, geo: &Geometry) -> FsResult<ReplayInfo> {
        let (hdr_a, hdr_b, log_start, log_slots) = Self::region(geo);
        let (gen, tail_seq, tail_slot) = Self::read_header(disk, geo)?;
        let slot_block = |slot: u64| log_start + slot % log_slots;

        // Scan the contiguous committed chain from the tail.
        let mut redo: Vec<(u64, Bytes)> = Vec::new();
        let mut replayed = 0u64;
        let mut slot = tail_slot;
        let mut expected = tail_seq + 1;
        let mut consumed = 0u64;
        loop {
            if consumed >= log_slots {
                break; // wrapped the whole log: nothing further can be live
            }
            let desc = disk.read_block(slot_block(slot))?;
            let mut r = Reader::new(&desc);
            let Ok(magic) = r.u64() else { break };
            if magic != JD_MAGIC {
                break;
            }
            let (Ok(seq), Ok(n)) = (r.u64(), r.u32()) else {
                break;
            };
            if seq != expected || n == 0 || n as u64 + 2 > log_slots - consumed {
                break;
            }
            let mut targets = Vec::with_capacity(n as usize);
            let mut ok = true;
            for _ in 0..n {
                match r.u64() {
                    Ok(t)
                        if t != 0
                            && t < geo.capacity_blocks
                            && !(geo.journal_start..geo.data_start).contains(&t) =>
                    {
                        targets.push(t)
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                break;
            }
            let mut datas = Vec::with_capacity(n as usize);
            for i in 0..n as u64 {
                datas.push(disk.read_block(slot_block(slot + 1 + i))?);
            }
            // Validate the commit record before trusting anything.
            let commit = disk.read_block(slot_block(slot + 1 + n as u64))?;
            let mut c = Reader::new(&commit);
            let valid = (|| {
                if c.u64().ok()? != JC_MAGIC || c.u64().ok()? != seq || c.u32().ok()? != n {
                    return None;
                }
                (commit_sum(&desc, n, datas.iter()) == c.u64().ok()?).then_some(())
            })();
            if valid.is_none() {
                break; // torn tail: commit record never became durable
            }
            redo.extend(targets.into_iter().zip(datas));
            replayed += 1;
            slot += n as u64 + 2;
            consumed += n as u64 + 2;
            expected += 1;
        }

        // Redo in order (physical replay is idempotent), then make the
        // recovered state durable before advancing the tail — a crash
        // in between replays the same chain again.
        for (target, data) in redo {
            disk.write_block_shared(target, data)?;
        }
        let last_seq = tail_seq + replayed;
        let outcome = disk.sync_report();
        if !outcome.is_clean() {
            return Err(FsError::Io);
        }
        let new_gen = gen + 1;
        let hdr = Self::encode_header(geo.block_size, new_gen, last_seq, slot % log_slots);
        disk.write_block_shared(hdr_a, hdr.clone())?;
        disk.write_block_shared(hdr_b, hdr)?;
        disk.flush_blocks(&[hdr_a, hdr_b])?;
        if replayed > 0 {
            if let Some(obs) = disk.recorder() {
                obs.event(|| TraceEvent::JournalReplay {
                    txns: replayed as u32,
                });
            }
        }
        Ok(ReplayInfo {
            last_seq,
            replayed,
            end_slot: slot % log_slots,
            gen: new_gen,
        })
    }

    /// A running journal picking up after [`Journal::recover`].
    pub(crate) fn open(geo: &Geometry, info: &ReplayInfo) -> Journal {
        let (hdr_a, hdr_b, log_start, log_slots) = Self::region(geo);
        let stats = JournalCounters::default();
        stats.replayed_txns.store(info.replayed, Ordering::Relaxed);
        Journal {
            hdr_a,
            hdr_b,
            log_start,
            log_slots,
            block_size: geo.block_size,
            state: Mutex::new(JState {
                next_seq: info.last_seq + 1,
                head_slot: info.end_slot,
                live_slots: 0,
                gen: info.gen,
                tail_seq: info.last_seq,
                tail_slot: info.end_slot,
            }),
            stats,
        }
    }

    fn slot_block(&self, slot: u64) -> u64 {
        self.log_start + slot % self.log_slots
    }

    /// Flushes all in-place metadata and advances the tail (both header
    /// copies rewritten and flushed). The only operation that reclaims
    /// log space.
    pub(crate) fn checkpoint(&self, disk: &CachedDisk) -> FsResult<()> {
        let mut st = self.state.lock();
        self.checkpoint_locked(disk, &mut st, false)
    }

    fn checkpoint_locked(&self, disk: &CachedDisk, st: &mut JState, forced: bool) -> FsResult<()> {
        // Everything (journal slots included) must be durable before the
        // tail may move past the live transactions.
        let outcome = disk.sync_report();
        if !outcome.is_clean() {
            return Err(FsError::Io);
        }
        // Compute the advanced tail, but publish it to `st` only once
        // the header naming it is durable. If the header flush fails,
        // the in-memory state must keep treating the log slots as live:
        // reclaiming them here would let later commits overwrite
        // records the on-disk header still points recovery at, silently
        // losing durable transactions on an EIO-then-crash path. (The
        // candidate header itself is safe even if a dirty copy leaks
        // out later — the sync above already made everything it claims
        // checkpointed durable.)
        let gen = st.gen + 1;
        let tail_seq = st.next_seq - 1;
        let tail_slot = st.head_slot;
        let hdr = Self::encode_header(self.block_size, gen, tail_seq, tail_slot);
        disk.write_block_shared(self.hdr_a, hdr.clone())?;
        disk.write_block_shared(self.hdr_b, hdr)?;
        disk.flush_blocks(&[self.hdr_a, self.hdr_b])?;
        st.gen = gen;
        st.tail_seq = tail_seq;
        st.tail_slot = tail_slot;
        st.live_slots = 0;
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        if forced {
            self.stats
                .forced_checkpoints
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = disk.recorder() {
            obs.event(|| TraceEvent::JournalCheckpoint);
        }
        Ok(())
    }

    /// Commits one transaction: logs the write set, flushes payload
    /// then commit record (the ordering barrier), and only then applies
    /// the writes in place through the page cache. Returns the
    /// transaction's sequence number.
    pub(crate) fn commit(&self, disk: &CachedDisk, buf: &TxnBuf) -> FsResult<u64> {
        let n = buf.len() as u64;
        let need = n + 2;
        let mut st = self.state.lock();
        if need > self.log_slots {
            return Err(FsError::NoSpc); // single txn larger than the log
        }
        if st.live_slots + need > self.log_slots {
            self.checkpoint_locked(disk, &mut st, true)?;
        }
        let seq = st.next_seq;

        // Descriptor.
        let mut desc = BytesMut::zeroed(self.block_size);
        {
            let mut w = Writer::new(&mut desc);
            w.u64(JD_MAGIC);
            w.u64(seq);
            w.u32(n as u32);
            for (target, _) in buf.iter() {
                w.u64(target);
            }
        }
        let desc = desc.freeze();
        let desc_block = self.slot_block(st.head_slot);
        disk.write_block_shared(desc_block, desc.clone())?;

        // Data images: the log-slot page, the in-place page below and
        // the device copies under both all share the transaction's own
        // buffer.
        let mut payload_blocks = Vec::with_capacity(need as usize - 1);
        payload_blocks.push(desc_block);
        for (i, (_, data)) in buf.iter().enumerate() {
            let b = self.slot_block(st.head_slot + 1 + i as u64);
            disk.write_block_shared(b, data.clone())?;
            payload_blocks.push(b);
        }

        // The ordering barrier, part 1: the payload must be durable
        // before the commit record *exists anywhere the device could see
        // it* — so flush first, and only then let the record enter the
        // page cache (a dirty commit-record page could otherwise be
        // evicted to the device ahead of the payload).
        disk.flush_blocks(&payload_blocks)?;

        // Commit record sealing the payload.
        let sum = commit_sum(&desc, n as u32, buf.iter().map(|(_, data)| data));
        let mut commit = BytesMut::zeroed(self.block_size);
        {
            let mut w = Writer::new(&mut commit);
            w.u64(JC_MAGIC);
            w.u64(seq);
            w.u32(n as u32);
            w.u64(sum);
        }
        let commit_block = self.slot_block(st.head_slot + 1 + n);
        disk.write_block_shared(commit_block, commit.freeze())?;
        // Part 2: the record itself becomes durable, sealing the txn.
        disk.flush_blocks(&[commit_block])?;

        // Checkpoint in place (write-back: durability comes from the log).
        for (target, data) in buf.iter() {
            disk.write_block_shared(target, data.clone())?;
        }

        st.head_slot += need;
        st.live_slots += need;
        st.next_seq += 1;
        drop(st);
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        self.stats.blocks_logged.fetch_add(n, Ordering::Relaxed);
        if let Some(obs) = disk.recorder() {
            obs.event(|| TraceEvent::JournalCommit { blocks: n as u32 });
        }
        Ok(seq)
    }

    /// Highest committed sequence number.
    pub(crate) fn committed_seq(&self) -> u64 {
        self.state.lock().next_seq - 1
    }
}
