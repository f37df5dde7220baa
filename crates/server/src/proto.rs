//! Wire protocol v1: length-prefixed, batched, little-endian.
//!
//! A connection carries *frames* in each direction. Every frame is a
//! 4-byte little-endian length (of everything after the length field)
//! followed by a versioned header and a batch of records:
//!
//! ```text
//! request frame     u8 magic = 0xD5, u8 version = 1, u16 count,
//!                   count × request records
//! request record    u64 req_id, u8 op, u8 flags, u16 cred_id,
//!                   u16 arg_len, arg_len bytes of argument
//! response frame    u8 magic = 0xD6, u8 version = 1, u8 frame_status,
//!                   u8 reserved, u16 count, count × response records
//! response record   u64 req_id, u8 status, u8 op, u16 body_len,
//!                   body_len bytes of body
//! ```
//!
//! Ops: `1` lookup (arg = path; flag bit `0x01` requests the path's
//! signature in the reply), `2` stat (arg = path), `3` readdir (arg =
//! path), `4` signature lookup (arg = the 32-byte
//! [`Signature::to_wire`] image).
//!
//! Response bodies (status `0` only; error responses have empty
//! bodies): lookup → `u64 ino, u8 ftype` plus, when a signature was
//! requested and available, its 32-byte wire image; stat → `u64 ino,
//! u64 size, u64 mtime, u32 nlink, u32 uid, u32 gid, u16 mode,
//! u8 ftype`; readdir → `u16 n`, then `n` × `u64 ino, u8 ftype,
//! u8 name_len, name`; signature lookup → `u64 ino, u8 ftype`.
//!
//! Status codes: `0` OK; `1..=20` map [`FsError`] variants in
//! declaration order ([`fs_error_code`]); `32` overloaded (typed
//! `EAGAIN`: admission control shed the request — retry later); `33`
//! malformed request; `34` unsupported version; `35` unknown cred id;
//! `36` unknown op; `37` signature miss (not answerable from the
//! cache — retry by path); `38` frame or argument too large.
//!
//! An entire frame can be shed before decoding: the response then has
//! `frame_status = 32` and `count = 0`, and the client fails every
//! request it sent in that frame with [`Status::Overloaded`]. A batch
//! whose *encoded response* would exceed the server's frame cap is
//! likewise answered at the frame level with `frame_status = 38`
//! (`TooBig`) — split the batch and retry.
//!
//! Versioning: breaking layout changes bump `version`; a server
//! receiving an unknown version answers with an empty frame whose
//! `frame_status` is `34` rather than guessing at record boundaries.

use dc_fs::{FileType, FsError, InodeAttr};
use dc_sighash::Signature;

/// Request-frame magic byte.
pub const REQ_MAGIC: u8 = 0xD5;
/// Response-frame magic byte.
pub const RESP_MAGIC: u8 = 0xD6;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Request flag: lookup replies should carry the path signature.
pub const FLAG_WANT_SIG: u8 = 0x01;
/// Hard cap on a frame's payload (sanity bound; admission control
/// bounds realistic sizes far lower).
pub const MAX_FRAME_BYTES: usize = 1 << 20;
/// Bytes of a [`Signature`] on the wire.
pub const SIG_BYTES: usize = 32;

dc_obs::keyed_enum! {
    /// Protocol operations, in wire-code order (a code is `idx + 1`).
    pub enum Op {
        /// Path lookup (follows symlinks).
        Lookup = "lookup",
        /// Full attributes.
        Stat = "stat",
        /// Directory listing.
        Readdir = "readdir",
        /// Signature-keyed lookup (cache-only).
        LookupSig = "lookup_sig",
    }
}

impl Op {
    /// The op byte on the wire.
    pub fn code(self) -> u8 {
        self as u8 + 1
    }

    /// Decodes an op byte.
    pub fn from_u8(v: u8) -> Option<Op> {
        Op::ALL.get(usize::from(v).wrapping_sub(1)).copied()
    }
}

/// Response status codes (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// A file-system error (`1..=20`).
    Fs(FsError),
    /// Typed `EAGAIN`: shed by admission control, retry later.
    Overloaded,
    /// Malformed record or frame.
    BadRequest,
    /// Unsupported protocol version.
    BadVersion,
    /// Unknown credential id.
    BadCred,
    /// Unknown operation code.
    BadOp,
    /// Signature not answerable from the cache; retry by path.
    SigMiss,
    /// Frame or argument exceeds protocol bounds.
    TooBig,
}

/// `32` — the overload status byte, also used as a `frame_status`.
pub const STATUS_OVERLOADED: u8 = 32;
/// `34` — unsupported version, also used as a `frame_status`.
pub const STATUS_BAD_VERSION: u8 = 34;

impl Status {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Fs(e) => fs_error_code(e),
            Status::Overloaded => STATUS_OVERLOADED,
            Status::BadRequest => 33,
            Status::BadVersion => STATUS_BAD_VERSION,
            Status::BadCred => 35,
            Status::BadOp => 36,
            Status::SigMiss => 37,
            Status::TooBig => 38,
        }
    }

    /// Decodes a wire byte (`None` for unassigned codes).
    pub fn from_code(v: u8) -> Option<Status> {
        Some(match v {
            0 => Status::Ok,
            1..=20 => Status::Fs(fs_error_from_code(v)?),
            32 => Status::Overloaded,
            33 => Status::BadRequest,
            34 => Status::BadVersion,
            35 => Status::BadCred,
            36 => Status::BadOp,
            37 => Status::SigMiss,
            38 => Status::TooBig,
            _ => return None,
        })
    }
}

/// Maps an [`FsError`] to its wire code (`1..=20`, the order of
/// `FsError`'s rows).
pub fn fs_error_code(e: FsError) -> u8 {
    e.idx() as u8 + 1
}

/// Inverse of [`fs_error_code`].
pub fn fs_error_from_code(v: u8) -> Option<FsError> {
    FsError::ALL.get(usize::from(v).wrapping_sub(1)).copied()
}

/// One request as the client builds it. Paths borrow from the caller;
/// encoding copies them into the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqBody<'a> {
    /// Path lookup; `want_sig` asks for the signature in the reply.
    Lookup {
        /// The path to resolve.
        path: &'a str,
        /// Request the path's signature for later [`ReqBody::LookupSig`].
        want_sig: bool,
    },
    /// Full attributes of `path`.
    Stat {
        /// The path to stat.
        path: &'a str,
    },
    /// Directory listing of `path`.
    Readdir {
        /// The directory path.
        path: &'a str,
    },
    /// Cache-only lookup by signature.
    LookupSig {
        /// The signature previously returned by a lookup.
        sig: Signature,
    },
}

impl ReqBody<'_> {
    /// The op code of this body.
    pub fn op(&self) -> Op {
        match self {
            ReqBody::Lookup { .. } => Op::Lookup,
            ReqBody::Stat { .. } => Op::Stat,
            ReqBody::Readdir { .. } => Op::Readdir,
            ReqBody::LookupSig { .. } => Op::LookupSig,
        }
    }
}

/// One request record (client side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// Client-chosen id echoed in the response.
    pub id: u64,
    /// Credential id (a server-side process registration).
    pub cred: u16,
    /// The operation.
    pub body: ReqBody<'a>,
}

/// A decoded response record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// The op byte, echoing the request's (an *unknown* code for
    /// [`Status::BadOp`] errors — which is why this stays a raw byte).
    pub op: u8,
    /// Outcome.
    pub status: Status,
    /// Body for `Ok` responses.
    pub body: RespBody,
}

/// Decoded response body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RespBody {
    /// Error or empty body.
    #[default]
    None,
    /// Lookup result.
    Lookup {
        /// Inode number.
        ino: u64,
        /// Object type byte ([`FileType::as_u8`]).
        ftype: u8,
        /// Signature, when requested and available.
        sig: Option<Signature>,
    },
    /// Stat result.
    Stat {
        /// The attributes (mtime carried; ctime not on the wire).
        attr: WireAttr,
    },
    /// Readdir result.
    Readdir {
        /// `(ino, ftype byte, name)` per entry.
        entries: Vec<(u64, u8, String)>,
    },
}

/// The attribute subset carried by a stat response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireAttr {
    /// Inode number.
    pub ino: u64,
    /// Size in bytes.
    pub size: u64,
    /// Modification time (abstract ticks).
    pub mtime: u64,
    /// Hard link count.
    pub nlink: u32,
    /// Owning user.
    pub uid: u32,
    /// Owning group.
    pub gid: u32,
    /// Permission bits.
    pub mode: u16,
    /// Object type byte.
    pub ftype: u8,
}

impl WireAttr {
    /// Projects a kernel [`InodeAttr`] onto the wire subset.
    pub fn of(a: &InodeAttr) -> WireAttr {
        WireAttr {
            ino: a.ino,
            size: a.size,
            mtime: a.mtime,
            nlink: a.nlink,
            uid: a.uid,
            gid: a.gid,
            mode: a.mode,
            ftype: a.ftype.as_u8(),
        }
    }
}

// --- primitive put/get helpers ------------------------------------------

#[inline]
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_u16(buf: &[u8], at: &mut usize) -> Option<u16> {
    let b = buf.get(*at..*at + 2)?;
    *at += 2;
    Some(u16::from_le_bytes([b[0], b[1]]))
}

#[inline]
fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let b = buf.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

#[inline]
fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let b = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Appends a signature's 32-byte wire image.
pub fn put_sig(out: &mut Vec<u8>, sig: &Signature) {
    for lane in sig.to_wire() {
        put_u64(out, lane);
    }
}

/// Reads a 32-byte signature image.
pub fn get_sig(buf: &[u8], at: &mut usize) -> Option<Signature> {
    let mut lanes = [0u64; 4];
    for lane in &mut lanes {
        *lane = get_u64(buf, at)?;
    }
    Some(Signature::from_wire(lanes))
}

// --- request encode/decode ----------------------------------------------

/// Encodes a batch of requests into one frame (without the 4-byte
/// length prefix — the transport owns that).
///
/// # Panics
///
/// The frame's count and argument-length fields are `u16`; more than
/// 65535 requests or a path longer than 65535 bytes cannot be encoded
/// and panics rather than silently truncating into a frame the server
/// would decode as malformed (or worse, misframed).
pub fn encode_request_frame(reqs: &[Request<'_>]) -> Vec<u8> {
    assert!(
        reqs.len() <= u16::MAX as usize,
        "batch of {} requests exceeds the u16 frame count",
        reqs.len()
    );
    let mut out = Vec::with_capacity(16 + reqs.len() * 48);
    out.push(REQ_MAGIC);
    out.push(VERSION);
    put_u16(&mut out, reqs.len() as u16);
    for r in reqs {
        put_u64(&mut out, r.id);
        out.push(r.body.op().code());
        let flags = match r.body {
            ReqBody::Lookup { want_sig: true, .. } => FLAG_WANT_SIG,
            _ => 0,
        };
        out.push(flags);
        put_u16(&mut out, r.cred);
        match r.body {
            ReqBody::Lookup { path, .. } | ReqBody::Stat { path } | ReqBody::Readdir { path } => {
                assert!(
                    path.len() <= u16::MAX as usize,
                    "path of {} bytes exceeds the u16 argument length",
                    path.len()
                );
                put_u16(&mut out, path.len() as u16);
                out.extend_from_slice(path.as_bytes());
            }
            ReqBody::LookupSig { sig } => {
                put_u16(&mut out, SIG_BYTES as u16);
                put_sig(&mut out, &sig);
            }
        }
    }
    out
}

/// A request record as the server decodes it; the argument borrows
/// from the frame buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedReq<'a> {
    /// Request id to echo.
    pub id: u64,
    /// Raw op byte (validated later so unknown ops get a per-record
    /// [`Status::BadOp`] instead of poisoning the frame).
    pub op: u8,
    /// Flag bits.
    pub flags: u8,
    /// Credential id.
    pub cred: u16,
    /// Raw argument bytes (path or signature image).
    pub arg: &'a [u8],
}

/// Outcome of decoding a request frame.
#[derive(Debug)]
pub enum DecodedFrame<'a> {
    /// A well-formed batch.
    Batch(Vec<DecodedReq<'a>>),
    /// The header was readable but the version is unknown; answer with
    /// `frame_status = 34`.
    BadVersion,
    /// Structurally malformed; answer with `frame_status = 33`.
    Malformed,
}

/// Decodes a request frame (after the transport stripped the length
/// prefix).
pub fn decode_request_frame(buf: &[u8]) -> DecodedFrame<'_> {
    let mut at = 0usize;
    let Some(&magic) = buf.first() else {
        return DecodedFrame::Malformed;
    };
    at += 1;
    if magic != REQ_MAGIC {
        return DecodedFrame::Malformed;
    }
    let Some(&version) = buf.get(at) else {
        return DecodedFrame::Malformed;
    };
    at += 1;
    if version != VERSION {
        return DecodedFrame::BadVersion;
    }
    let Some(count) = get_u16(buf, &mut at) else {
        return DecodedFrame::Malformed;
    };
    let mut reqs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let Some(id) = get_u64(buf, &mut at) else {
            return DecodedFrame::Malformed;
        };
        let Some(&op) = buf.get(at) else {
            return DecodedFrame::Malformed;
        };
        let Some(&flags) = buf.get(at + 1) else {
            return DecodedFrame::Malformed;
        };
        at += 2;
        let Some(cred) = get_u16(buf, &mut at) else {
            return DecodedFrame::Malformed;
        };
        let Some(arg_len) = get_u16(buf, &mut at) else {
            return DecodedFrame::Malformed;
        };
        let Some(arg) = buf.get(at..at + arg_len as usize) else {
            return DecodedFrame::Malformed;
        };
        at += arg_len as usize;
        reqs.push(DecodedReq {
            id,
            op,
            flags,
            cred,
            arg,
        });
    }
    if at != buf.len() {
        return DecodedFrame::Malformed;
    }
    DecodedFrame::Batch(reqs)
}

/// Peeks the record count of a request frame without decoding records
/// (for accounting rejected frames without paying the decode).
pub fn peek_request_count(buf: &[u8]) -> u32 {
    if buf.len() >= 4 && buf[0] == REQ_MAGIC {
        u16::from_le_bytes([buf[2], buf[3]]) as u32
    } else {
        0
    }
}

// --- response encode/decode ---------------------------------------------

/// Encoded size of a readdir body: the `u16` entry count plus
/// `u64 ino, u8 ftype, u8 name_len, name` per entry. The server checks
/// this against `u16::MAX` before encoding — body_len is a `u16`, so a
/// listing past ~6500 entries is unencodable in one record.
pub fn readdir_wire_len(entries: &[dc_fs::DirEntry]) -> usize {
    2 + entries.iter().map(|e| 10 + e.name.len()).sum::<usize>()
}

/// Incremental response-frame builder the server encodes into.
#[derive(Debug)]
pub struct RespWriter {
    buf: Vec<u8>,
    count: u16,
}

impl RespWriter {
    /// Starts a frame with the given `frame_status` (0 for a normal
    /// batch).
    pub fn new(frame_status: u8) -> RespWriter {
        let mut buf = Vec::with_capacity(256);
        buf.push(RESP_MAGIC);
        buf.push(VERSION);
        buf.push(frame_status);
        buf.push(0); // reserved
        put_u16(&mut buf, 0); // count back-patched in finish()
        RespWriter { buf, count: 0 }
    }

    fn record_header(&mut self, id: u64, status: Status, op: u8) -> usize {
        put_u64(&mut self.buf, id);
        self.buf.push(status.code());
        self.buf.push(op);
        let len_at = self.buf.len();
        put_u16(&mut self.buf, 0); // body_len back-patched
        self.count += 1;
        len_at
    }

    fn patch_body_len(&mut self, len_at: usize) {
        let body_len = self.buf.len() - len_at - 2;
        debug_assert!(
            body_len <= u16::MAX as usize,
            "response body of {body_len} bytes overflows the u16 body_len \
             (the server must bound bodies before encoding)"
        );
        self.buf[len_at..len_at + 2].copy_from_slice(&(body_len as u16).to_le_bytes());
    }

    /// Bytes encoded so far (header plus every pushed record).
    pub fn encoded_len(&self) -> usize {
        self.buf.len()
    }

    /// An error (or otherwise body-less) response.
    pub fn push_status(&mut self, id: u64, status: Status, op: u8) {
        let at = self.record_header(id, status, op);
        self.patch_body_len(at);
    }

    /// A successful lookup.
    pub fn push_lookup(&mut self, id: u64, ino: u64, ftype: FileType, sig: Option<&Signature>) {
        let at = self.record_header(id, Status::Ok, Op::Lookup.code());
        put_u64(&mut self.buf, ino);
        self.buf.push(ftype.as_u8());
        if let Some(sig) = sig {
            put_sig(&mut self.buf, sig);
        }
        self.patch_body_len(at);
    }

    /// A successful signature lookup.
    pub fn push_lookup_sig(&mut self, id: u64, ino: u64, ftype: FileType) {
        let at = self.record_header(id, Status::Ok, Op::LookupSig.code());
        put_u64(&mut self.buf, ino);
        self.buf.push(ftype.as_u8());
        self.patch_body_len(at);
    }

    /// A successful stat.
    pub fn push_stat(&mut self, id: u64, attr: &InodeAttr) {
        let at = self.record_header(id, Status::Ok, Op::Stat.code());
        let w = WireAttr::of(attr);
        put_u64(&mut self.buf, w.ino);
        put_u64(&mut self.buf, w.size);
        put_u64(&mut self.buf, w.mtime);
        put_u32(&mut self.buf, w.nlink);
        put_u32(&mut self.buf, w.uid);
        put_u32(&mut self.buf, w.gid);
        put_u16(&mut self.buf, w.mode);
        self.buf.push(w.ftype);
        self.patch_body_len(at);
    }

    /// A successful readdir. Names beyond 255 bytes and listings whose
    /// encoded body ([`readdir_wire_len`]) exceeds the `u16` body_len
    /// cannot be encoded; the caller bounds both (the server answers
    /// such listings with [`Status::TooBig`] instead).
    pub fn push_readdir(&mut self, id: u64, entries: &[dc_fs::DirEntry]) {
        let at = self.record_header(id, Status::Ok, Op::Readdir.code());
        put_u16(&mut self.buf, entries.len() as u16);
        for e in entries {
            put_u64(&mut self.buf, e.ino);
            self.buf.push(e.ftype.as_u8());
            self.buf.push(e.name.len() as u8);
            self.buf.extend_from_slice(e.name.as_bytes());
        }
        self.patch_body_len(at);
    }

    /// Finalizes the frame bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let count = self.count;
        self.buf[4..6].copy_from_slice(&count.to_le_bytes());
        self.buf
    }
}

/// A decoded response frame.
#[derive(Debug)]
pub struct RespFrame {
    /// Frame-level status (0, or 32/33/34 when the whole frame was
    /// answered without record decoding).
    pub frame_status: u8,
    /// Per-record responses.
    pub records: Vec<Response>,
}

/// Decodes a response frame (client side). `None` on malformed input.
pub fn decode_response_frame(buf: &[u8]) -> Option<RespFrame> {
    let mut at = 0usize;
    if *buf.first()? != RESP_MAGIC || *buf.get(1)? != VERSION {
        return None;
    }
    let frame_status = *buf.get(2)?;
    at += 4; // magic, version, frame_status, reserved
    let count = get_u16(buf, &mut at)?;
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = get_u64(buf, &mut at)?;
        let status_b = *buf.get(at)?;
        let op_b = *buf.get(at + 1)?;
        at += 2;
        let body_len = get_u16(buf, &mut at)? as usize;
        let body_end = at.checked_add(body_len)?;
        if body_end > buf.len() {
            return None;
        }
        let status = Status::from_code(status_b)?;
        let body = if status == Status::Ok {
            // An `Ok` record with an op the client doesn't know is
            // undecodable; error records just echo the byte.
            match Op::from_u8(op_b)? {
                Op::Lookup => {
                    let ino = get_u64(buf, &mut at)?;
                    let ftype = *buf.get(at)?;
                    at += 1;
                    let sig = if at < body_end {
                        Some(get_sig(buf, &mut at)?)
                    } else {
                        None
                    };
                    RespBody::Lookup { ino, ftype, sig }
                }
                Op::LookupSig => {
                    let ino = get_u64(buf, &mut at)?;
                    let ftype = *buf.get(at)?;
                    at += 1;
                    RespBody::Lookup {
                        ino,
                        ftype,
                        sig: None,
                    }
                }
                Op::Stat => {
                    let ino = get_u64(buf, &mut at)?;
                    let size = get_u64(buf, &mut at)?;
                    let mtime = get_u64(buf, &mut at)?;
                    let nlink = get_u32(buf, &mut at)?;
                    let uid = get_u32(buf, &mut at)?;
                    let gid = get_u32(buf, &mut at)?;
                    let mode = get_u16(buf, &mut at)?;
                    let ftype = *buf.get(at)?;
                    at += 1;
                    RespBody::Stat {
                        attr: WireAttr {
                            ino,
                            size,
                            mtime,
                            nlink,
                            uid,
                            gid,
                            mode,
                            ftype,
                        },
                    }
                }
                Op::Readdir => {
                    let n = get_u16(buf, &mut at)?;
                    let mut entries = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        let ino = get_u64(buf, &mut at)?;
                        let ftype = *buf.get(at)?;
                        let name_len = *buf.get(at + 1)? as usize;
                        at += 2;
                        let name = buf.get(at..at + name_len)?;
                        at += name_len;
                        entries.push((ino, ftype, String::from_utf8(name.to_vec()).ok()?));
                    }
                    RespBody::Readdir { entries }
                }
            }
        } else {
            RespBody::None
        };
        if at != body_end {
            return None;
        }
        records.push(Response {
            id,
            op: op_b,
            status,
            body,
        });
    }
    Some(RespFrame {
        frame_status,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_round_trip() {
        let mut seen = std::collections::HashSet::new();
        let all = [
            Status::Ok,
            Status::Overloaded,
            Status::BadRequest,
            Status::BadVersion,
            Status::BadCred,
            Status::BadOp,
            Status::SigMiss,
            Status::TooBig,
        ];
        for s in all {
            assert_eq!(Status::from_code(s.code()), Some(s));
            assert!(seen.insert(s.code()), "duplicate code {}", s.code());
        }
        for code in 1..=20u8 {
            let s = Status::from_code(code).unwrap();
            assert_eq!(s.code(), code);
            assert!(matches!(s, Status::Fs(_)));
            assert!(seen.insert(code), "duplicate code {code}");
        }
        assert_eq!(Status::from_code(99), None);
    }

    /// The op table: dense indices, unique snake_case keys, and the wire
    /// codes 1..=4 the protocol has always used.
    #[test]
    fn op_codes_round_trip() {
        let mut keys = Vec::new();
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!((op.idx(), op.code()), (i, i as u8 + 1));
            assert_eq!(Op::from_u8(op.code()), Some(*op));
            let snake = |c: char| c.is_ascii_lowercase() || c == '_';
            assert!(op.key().chars().all(snake) && !keys.contains(&op.key()));
            keys.push(op.key());
        }
        assert_eq!(keys, ["lookup", "stat", "readdir", "lookup_sig"]);
        assert_eq!((Op::from_u8(0), Op::from_u8(5)), (None, None));
    }

    /// The errno status codes are wire format: pinned here, code by
    /// code, against `FsError`'s rows.
    #[test]
    fn fs_error_codes_are_pinned() {
        #[rustfmt::skip]
        const GOLDEN: [(u8, &str); 20] = [
            (1, "ENOENT"), (2, "ENOTDIR"), (3, "EISDIR"), (4, "EACCES"), (5, "EPERM"),
            (6, "EEXIST"), (7, "ENOTEMPTY"), (8, "ELOOP"), (9, "ENAMETOOLONG"),
            (10, "EINVAL"), (11, "EROFS"), (12, "ENOSPC"), (13, "EXDEV"), (14, "EBADF"),
            (15, "EMFILE"), (16, "ENOSYS"), (17, "EBUSY"), (18, "EIO"), (19, "ESRCH"),
            (20, "ERANGE"),
        ];
        assert_eq!(FsError::ALL.len(), GOLDEN.len());
        for (code, errno) in GOLDEN {
            let e = fs_error_from_code(code).unwrap();
            assert_eq!((e.errno_name(), fs_error_code(e)), (errno, code));
        }
        assert_eq!(
            (fs_error_from_code(0), fs_error_from_code(21)),
            (None, None)
        );
    }

    #[test]
    fn request_frame_round_trips() {
        let sig =
            dc_sighash::HashKey::from_seed(7).hash_components([b"a".as_slice(), b"b".as_slice()]);
        let reqs = [
            Request {
                id: 1,
                cred: 0,
                body: ReqBody::Lookup {
                    path: "/a/b",
                    want_sig: true,
                },
            },
            Request {
                id: 2,
                cred: 3,
                body: ReqBody::Stat { path: "/etc" },
            },
            Request {
                id: 3,
                cred: 0,
                body: ReqBody::Readdir { path: "/" },
            },
            Request {
                id: 4,
                cred: 1,
                body: ReqBody::LookupSig { sig },
            },
        ];
        let frame = encode_request_frame(&reqs);
        let DecodedFrame::Batch(decoded) = decode_request_frame(&frame) else {
            panic!("well-formed frame failed to decode");
        };
        assert_eq!(peek_request_count(&frame), 4);
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded[0].id, 1);
        assert_eq!(decoded[0].op, Op::Lookup.code());
        assert_eq!(decoded[0].flags, FLAG_WANT_SIG);
        assert_eq!(decoded[0].arg, b"/a/b");
        assert_eq!(decoded[1].cred, 3);
        assert_eq!(decoded[1].arg, b"/etc");
        assert_eq!(decoded[3].arg.len(), SIG_BYTES);
        let mut at = 0;
        assert_eq!(get_sig(decoded[3].arg, &mut at), Some(sig));
    }

    #[test]
    fn truncated_and_bad_version_frames_are_classified() {
        let reqs = [Request {
            id: 9,
            cred: 0,
            body: ReqBody::Stat { path: "/x" },
        }];
        let frame = encode_request_frame(&reqs);
        for cut in 1..frame.len() {
            assert!(
                matches!(decode_request_frame(&frame[..cut]), DecodedFrame::Malformed),
                "truncation at {cut} not detected"
            );
        }
        let mut wrong = frame.clone();
        wrong[1] = 2; // future version
        assert!(matches!(
            decode_request_frame(&wrong),
            DecodedFrame::BadVersion
        ));
        let mut junk = frame;
        junk[0] = 0x00;
        assert!(matches!(
            decode_request_frame(&junk),
            DecodedFrame::Malformed
        ));
    }

    #[test]
    fn response_frame_round_trips() {
        let sig = dc_sighash::HashKey::from_seed(1).hash_components([b"f".as_slice()]);
        let attr = InodeAttr {
            ino: 42,
            ftype: FileType::Regular,
            mode: 0o644,
            uid: 1000,
            gid: 100,
            nlink: 2,
            size: 4096,
            mtime: 7,
            ctime: 8,
        };
        let mut w = RespWriter::new(0);
        w.push_lookup(1, 42, FileType::Regular, Some(&sig));
        w.push_lookup(2, 43, FileType::Directory, None);
        w.push_stat(3, &attr);
        w.push_readdir(
            4,
            &[
                dc_fs::DirEntry {
                    name: "etc".to_string(),
                    ino: 5,
                    ftype: FileType::Directory,
                },
                dc_fs::DirEntry {
                    name: "passwd".to_string(),
                    ino: 6,
                    ftype: FileType::Regular,
                },
            ],
        );
        w.push_status(5, Status::Fs(FsError::NoEnt), Op::Stat.code());
        w.push_status(6, Status::SigMiss, Op::LookupSig.code());
        w.push_lookup_sig(7, 44, FileType::Symlink);
        let frame = w.finish();

        let f = decode_response_frame(&frame).expect("decode");
        assert_eq!(f.frame_status, 0);
        assert_eq!(f.records.len(), 7);
        assert_eq!(
            f.records[0].body,
            RespBody::Lookup {
                ino: 42,
                ftype: FileType::Regular.as_u8(),
                sig: Some(sig)
            }
        );
        assert_eq!(
            f.records[1].body,
            RespBody::Lookup {
                ino: 43,
                ftype: FileType::Directory.as_u8(),
                sig: None
            }
        );
        let RespBody::Stat { attr: got } = f.records[2].body else {
            panic!("stat body");
        };
        assert_eq!(got, WireAttr::of(&attr));
        let RespBody::Readdir { entries } = &f.records[3].body else {
            panic!("readdir body");
        };
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1], (6, FileType::Regular.as_u8(), "passwd".into()));
        assert_eq!(f.records[4].status, Status::Fs(FsError::NoEnt));
        assert_eq!(f.records[5].status, Status::SigMiss);
        assert_eq!(
            f.records[6].body,
            RespBody::Lookup {
                ino: 44,
                ftype: FileType::Symlink.as_u8(),
                sig: None
            }
        );
        // Malformed inputs never panic, just fail.
        for cut in 1..frame.len() {
            assert!(decode_response_frame(&frame[..cut]).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 frame count")]
    fn oversized_batch_panics_instead_of_truncating() {
        let reqs = vec![
            Request {
                id: 0,
                cred: 0,
                body: ReqBody::Stat { path: "/x" },
            };
            u16::MAX as usize + 1
        ];
        let _ = encode_request_frame(&reqs);
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 argument length")]
    fn oversized_path_panics_instead_of_truncating() {
        let long = "x".repeat(u16::MAX as usize + 1);
        let _ = encode_request_frame(&[Request {
            id: 0,
            cred: 0,
            body: ReqBody::Lookup {
                path: &long,
                want_sig: false,
            },
        }]);
    }

    #[test]
    fn readdir_wire_len_matches_encoding() {
        let entries: Vec<dc_fs::DirEntry> = (0..37)
            .map(|i| dc_fs::DirEntry {
                name: format!("entry{i}"),
                ino: i,
                ftype: FileType::Regular,
            })
            .collect();
        let mut w = RespWriter::new(0);
        let before = w.encoded_len();
        w.push_readdir(1, &entries);
        // record header is u64 id + u8 status + u8 op + u16 body_len.
        assert_eq!(w.encoded_len() - before - 12, readdir_wire_len(&entries));
    }

    #[test]
    fn overload_frame_is_empty_with_status() {
        let frame = RespWriter::new(STATUS_OVERLOADED).finish();
        let f = decode_response_frame(&frame).unwrap();
        assert_eq!(f.frame_status, STATUS_OVERLOADED);
        assert!(f.records.is_empty());
    }
}
