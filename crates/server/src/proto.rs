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
//!
//! Each layout is written once, as `Wire` impls read through one
//! bounds-checked `Reader`; [`Reply`] encodes a body beside its decoder.

use dc_fs::{DirEntry, FsError, InodeAttr};
use dc_sighash::Signature;
use dc_vfs::LookupReply;
use std::sync::Arc;

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

/// Every status but [`Status::Fs`] with its wire byte, read both ways.
const STATUS_CODES: [(Status, u8); 8] = [
    (Status::Ok, 0),
    (Status::Overloaded, 32),
    (Status::BadRequest, 33),
    (Status::BadVersion, 34),
    (Status::BadCred, 35),
    (Status::BadOp, 36),
    (Status::SigMiss, 37),
    (Status::TooBig, 38),
];

impl Status {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            Status::Fs(e) => fs_error_code(e),
            s => STATUS_CODES
                .iter()
                .find(|&&(t, _)| t == s)
                .map_or(0, |r| r.1),
        }
    }

    /// Decodes a wire byte (`None` for unassigned codes).
    pub fn from_code(v: u8) -> Option<Status> {
        let row = STATUS_CODES.iter().find(|&&(_, c)| c == v);
        fs_error_from_code(v)
            .map(Status::Fs)
            .or(row.map(|&(s, _)| s))
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

/// A field type's little-endian wire image.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Option<Self>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Option<$t> {
                Some(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for Signature {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_wire().iter().for_each(|lane| lane.put(out));
    }

    fn get(r: &mut Reader<'_>) -> Option<Signature> {
        let lanes = [r.get()?, r.get()?, r.get()?, r.get()?];
        Some(Signature::from_wire(lanes))
    }
}

/// A bounds-checked cursor over a received frame: every read past the
/// end is `None`, and what it returns borrows from the frame.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn get<T: Wire>(&mut self) -> Option<T> {
        T::get(self)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(*head)
    }

    /// A length of type `L`, then that many bytes.
    fn prefixed<L: Wire + Into<usize>>(&mut self) -> Option<&'a [u8]> {
        let len = self.get::<L>()?.into();
        let (head, rest) = self.0.split_at_checked(len)?;
        self.0 = rest;
        Some(head)
    }

    /// A `u16` count, then that many records, reserving no more than the rest
    /// holds of the smallest, `min` bytes (request 14, response 12, entry 10).
    fn records<T>(
        &mut self,
        min: usize,
        mut one: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count: u16 = self.get()?;
        let mut out = Vec::with_capacity(usize::from(count).min(self.0.len() / min));
        for _ in 0..count {
            out.push(one(self)?);
        }
        Some(out)
    }
}

/// Declares a struct whose fields are its wire layout, in order: the
/// struct, its `put` and its `get` from one list.
macro_rules! wire_struct {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Wire for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn get(r: &mut Reader<'_>) -> Option<$name> {
                Some($name { $($field: r.get()?,)* })
            }
        }
    };
}

wire_struct! {
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

/// Reads a 32-byte signature image.
pub fn get_sig(buf: &[u8], at: &mut usize) -> Option<Signature> {
    let sig = Reader(buf.get(*at..)?).get()?;
    *at += SIG_BYTES;
    Some(sig)
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

impl<'a> ReqBody<'a> {
    /// The op code of this body.
    pub fn op(&self) -> Op {
        match self {
            ReqBody::Lookup { .. } => Op::Lookup,
            ReqBody::Stat { .. } => Op::Stat,
            ReqBody::Readdir { .. } => Op::Readdir,
            ReqBody::LookupSig { .. } => Op::LookupSig,
        }
    }

    /// The body of a record with a known `op`: `None` when its argument
    /// is not a UTF-8 path, or not exactly one signature image.
    pub(crate) fn decode(op: Op, flags: u8, arg: &'a [u8]) -> Option<ReqBody<'a>> {
        let path = || std::str::from_utf8(arg).ok();
        Some(match op {
            Op::Lookup => ReqBody::Lookup {
                path: path()?,
                want_sig: flags & FLAG_WANT_SIG != 0,
            },
            Op::Stat => ReqBody::Stat { path: path()? },
            Op::Readdir => ReqBody::Readdir { path: path()? },
            Op::LookupSig => ReqBody::LookupSig {
                sig: Reader(arg).get().filter(|_| arg.len() == SIG_BYTES)?,
            },
        })
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
    out.extend([REQ_MAGIC, VERSION]);
    (reqs.len() as u16).put(&mut out);
    for r in reqs {
        r.id.put(&mut out);
        let want_sig = matches!(r.body, ReqBody::Lookup { want_sig: true, .. });
        out.extend([r.body.op().code(), u8::from(want_sig) * FLAG_WANT_SIG]);
        r.cred.put(&mut out);
        match r.body {
            ReqBody::Lookup { path, .. } | ReqBody::Stat { path } | ReqBody::Readdir { path } => {
                assert!(
                    path.len() <= u16::MAX as usize,
                    "path of {} bytes exceeds the u16 argument length",
                    path.len()
                );
                (path.len() as u16).put(&mut out);
                out.extend_from_slice(path.as_bytes());
            }
            ReqBody::LookupSig { sig } => {
                (SIG_BYTES as u16).put(&mut out);
                sig.put(&mut out);
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
    let mut r = Reader(buf);
    match (r.get(), r.get()) {
        (Some(REQ_MAGIC), Some(VERSION)) => {}
        (Some(REQ_MAGIC), Some(_)) => return DecodedFrame::BadVersion,
        _ => return DecodedFrame::Malformed,
    }
    match r.records(14, |r| {
        Some(DecodedReq {
            id: r.get()?,
            op: r.get()?,
            flags: r.get()?,
            cred: r.get()?,
            arg: r.prefixed::<u16>()?,
        })
    }) {
        Some(reqs) if r.0.is_empty() => DecodedFrame::Batch(reqs),
        _ => DecodedFrame::Malformed,
    }
}

/// Peeks the record count of a request frame without decoding records
/// (for accounting rejected frames without paying the decode).
pub fn peek_request_count(buf: &[u8]) -> u32 {
    match buf {
        [REQ_MAGIC, _, lo, hi, ..] => u16::from_le_bytes([*lo, *hi]).into(),
        _ => 0,
    }
}

/// Encoded size of a readdir body, which the server checks against the
/// `u16` body_len before encoding (so ~6500 entries at most).
pub fn readdir_wire_len(entries: &[DirEntry]) -> usize {
    2 + entries.iter().map(|e| 10 + e.name.len()).sum::<usize>()
}

/// The server's answer to one request, encoded by [`RespWriter::push`].
#[derive(Debug)]
pub enum Reply {
    /// An error (or otherwise body-less) response.
    Status(Status),
    /// A successful lookup or signature lookup (with its signature, if any).
    Lookup(LookupReply),
    /// A successful stat.
    Stat(InodeAttr),
    /// A successful readdir, as the kernel handed it out. A name past 255
    /// bytes or a [`readdir_wire_len`] past `u16::MAX` cannot be encoded.
    Readdir(Arc<Vec<DirEntry>>),
}

impl Reply {
    /// The record's status.
    pub(crate) fn status(&self) -> Status {
        match self {
            Reply::Status(s) => *s,
            _ => Status::Ok,
        }
    }

    fn put_body(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Status(_) => {}
            Reply::Lookup(r) => {
                r.ino.put(out);
                r.ftype.as_u8().put(out);
                r.sig.iter().for_each(|sig| sig.put(out));
            }
            Reply::Stat(attr) => WireAttr::of(attr).put(out),
            Reply::Readdir(entries) => {
                (entries.len() as u16).put(out);
                for e in entries.iter() {
                    e.ino.put(out);
                    out.extend([e.ftype.as_u8(), e.name.len() as u8]);
                    out.extend_from_slice(e.name.as_bytes());
                }
            }
        }
    }
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
        /// Object type byte ([`dc_fs::FileType::as_u8`]).
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

impl RespBody {
    /// Decodes a whole record body. An `Ok` record with an op the client
    /// doesn't know is undecodable; an error record's body is empty.
    fn decode(status: Status, op: u8, body: &[u8]) -> Option<RespBody> {
        let r = &mut Reader(body);
        let decoded = match (status, Op::from_u8(op)) {
            (Status::Ok, None) => return None,
            (Status::Ok, Some(op @ (Op::Lookup | Op::LookupSig))) => RespBody::Lookup {
                ino: r.get()?,
                ftype: r.get()?,
                sig: if r.0.is_empty() || op == Op::LookupSig {
                    None
                } else {
                    Some(r.get()?)
                },
            },
            (Status::Ok, Some(Op::Stat)) => RespBody::Stat { attr: r.get()? },
            (Status::Ok, Some(Op::Readdir)) => RespBody::Readdir {
                entries: r.records(10, |r| {
                    let (ino, ftype) = (r.get()?, r.get()?);
                    Some((
                        ino,
                        ftype,
                        String::from_utf8(r.prefixed::<u8>()?.to_vec()).ok()?,
                    ))
                })?,
            },
            _ => RespBody::None,
        };
        r.0.is_empty().then_some(decoded)
    }
}

/// Incremental response-frame builder the server encodes into.
#[derive(Debug)]
pub struct RespWriter {
    buf: Vec<u8>,
    count: u16,
}

impl RespWriter {
    /// Starts a frame with the given `frame_status` ([`Status::Ok`] for
    /// a normal batch).
    pub fn new(frame_status: Status) -> RespWriter {
        let mut buf = Vec::with_capacity(256);
        // The count (after the reserved byte) is back-patched in finish().
        buf.extend([RESP_MAGIC, VERSION, frame_status.code(), 0, 0, 0]);
        RespWriter { buf, count: 0 }
    }

    /// Bytes encoded so far (header plus every pushed record).
    pub fn encoded_len(&self) -> usize {
        self.buf.len()
    }

    /// Appends the record answering request `id`, whose op byte was `op`.
    pub fn push(&mut self, id: u64, op: u8, reply: &Reply) {
        id.put(&mut self.buf);
        self.buf.extend([reply.status().code(), op, 0, 0]);
        let body_at = self.buf.len();
        reply.put_body(&mut self.buf);
        let body_len = u16::try_from(self.buf.len() - body_at)
            .expect("the server bounds a body to the u16 body_len before encoding it");
        self.buf[body_at - 2..body_at].copy_from_slice(&body_len.to_le_bytes());
        self.count += 1;
    }

    /// Finalizes the frame bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[4..6].copy_from_slice(&self.count.to_le_bytes());
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
    let mut r = Reader(buf);
    let [magic, version, frame_status, _reserved] = r.array()?;
    if (magic, version) != (RESP_MAGIC, VERSION) {
        return None;
    }
    let records = r.records(12, |r| {
        let (id, status, op) = (r.get()?, Status::from_code(r.get()?)?, r.get()?);
        let body = RespBody::decode(status, op, r.prefixed::<u16>()?)?;
        Some(Response {
            id,
            op,
            status,
            body,
        })
    })?;
    Some(RespFrame {
        frame_status,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_fs::FileType;

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
        let lookup = |ino, ftype, sig| Reply::Lookup(LookupReply { ino, ftype, sig });
        let mut w = RespWriter::new(Status::Ok);
        let (lookup_op, sig_op) = (Op::Lookup.code(), Op::LookupSig.code());
        w.push(1, lookup_op, &lookup(42, FileType::Regular, Some(sig)));
        w.push(2, lookup_op, &lookup(43, FileType::Directory, None));
        w.push(3, Op::Stat.code(), &Reply::Stat(attr));
        let listing = vec![
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
        ];
        w.push(4, Op::Readdir.code(), &Reply::Readdir(Arc::new(listing)));
        let no_ent = Reply::Status(Status::Fs(FsError::NoEnt));
        w.push(5, Op::Stat.code(), &no_ent);
        w.push(6, sig_op, &Reply::Status(Status::SigMiss));
        w.push(7, sig_op, &lookup(44, FileType::Symlink, None));
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
        let mut w = RespWriter::new(Status::Ok);
        let before = w.encoded_len();
        w.push(
            1,
            Op::Readdir.code(),
            &Reply::Readdir(Arc::new(entries.clone())),
        );
        // record header is u64 id + u8 status + u8 op + u16 body_len.
        assert_eq!(w.encoded_len() - before - 12, readdir_wire_len(&entries));
    }

    #[test]
    fn overload_frame_is_empty_with_status() {
        let frame = RespWriter::new(Status::Overloaded).finish();
        let f = decode_response_frame(&frame).unwrap();
        assert_eq!(f.frame_status, Status::Overloaded.code());
        assert!(f.records.is_empty());
    }
}
