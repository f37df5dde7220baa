//! The wire's mutation campaign (DESIGN.md §12.1): seeded request and
//! response frames, mutated by bit flips, byte overwrites, truncations
//! and extensions, through both decoders.
//!
//! Request frames come from `encode_request_frame`. Response frames come
//! from this file's own writer, which follows the layout in `proto.rs`'s
//! module doc rather than the server's `RespWriter`, so a layout slip on
//! either side is a disagreement here. Each case checks that
//!
//! - no decoder panics;
//! - the unmutated frames decode to what was written;
//! - every decoded request's argument lies inside its frame;
//!
//! and folds the outcome of every decode of a mutated frame (the `Debug`
//! of `DecodedFrame` and of `Option<RespFrame>`, and
//! `peek_request_count`) into one FNV-1a digest, which is pinned. A codec
//! rewrite that changes what any mutated frame decodes to — a record
//! accepted that was refused, or the reverse — changes the digest.

use dc_fault::{check, SplitMix64};
use dc_server::proto::{
    decode_request_frame, decode_response_frame, encode_request_frame, peek_request_count,
    DecodedFrame, DecodedReq, ReqBody, Request, RespBody, Response, Status, WireAttr,
};
use dc_sighash::Signature;
use std::cell::Cell;

/// Seeded cases; each mutates one request and one response frame.
const CASES: u64 = 20_000;

/// The digest of every outcome over `0..CASES`.
const DIGEST: u64 = 0x5001_53c5_7ef9_9c80;

/// A request as drawn; `kind` is the op's index (0 lookup, 1 stat,
/// 2 readdir, 3 signature lookup).
#[derive(Debug)]
struct Drawn {
    id: u64,
    cred: u16,
    kind: u64,
    want_sig: bool,
    path: String,
    lanes: [u64; 4],
}

impl Drawn {
    fn request(&self) -> Request<'_> {
        let path = self.path.as_str();
        let body = match self.kind {
            0 => ReqBody::Lookup {
                path,
                want_sig: self.want_sig,
            },
            1 => ReqBody::Stat { path },
            2 => ReqBody::Readdir { path },
            _ => ReqBody::LookupSig {
                sig: Signature::from_wire(self.lanes),
            },
        };
        Request {
            id: self.id,
            cred: self.cred,
            body,
        }
    }

    /// The argument bytes the server should decode.
    fn arg(&self) -> Vec<u8> {
        match self.kind {
            3 => self.lanes.iter().flat_map(|l| l.to_le_bytes()).collect(),
            _ => self.path.as_bytes().to_vec(),
        }
    }
}

/// One mutation; positions wrap modulo the frame's length.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Flips bit `bit` of byte `at`.
    Flip { at: u64, bit: u8 },
    /// Overwrites byte `at`.
    Put { at: u64, byte: u8 },
    /// Keeps the first `keep` bytes.
    Cut { keep: u64 },
    /// Appends `n` bytes drawn from `seed`.
    Grow { n: u8, seed: u64 },
}

impl Mutation {
    fn draw(rng: &mut SplitMix64) -> Mutation {
        // Half the positions fall in the first 16 bytes: the frame header
        // and the first record's header, where the counts and lengths are.
        let at = match rng.below(2) {
            0 => rng.below(16),
            _ => rng.next_u64(),
        };
        match rng.below(4) {
            0 => Mutation::Flip {
                at,
                bit: rng.below(8) as u8,
            },
            1 => Mutation::Put {
                at,
                byte: [0x00, 0xFF, rng.below(256) as u8][rng.below(3) as usize],
            },
            2 => Mutation::Cut { keep: at },
            _ => Mutation::Grow {
                n: rng.below(40) as u8 + 1,
                seed: rng.next_u64(),
            },
        }
    }

    fn apply(self, frame: &mut Vec<u8>) {
        let len = frame.len() as u64;
        match self {
            Mutation::Flip { at, bit } if len > 0 => frame[(at % len) as usize] ^= 1 << bit,
            Mutation::Put { at, byte } if len > 0 => frame[(at % len) as usize] = byte,
            Mutation::Cut { keep } => frame.truncate((keep % (len + 1)) as usize),
            Mutation::Grow { n, seed } => {
                let mut rng = SplitMix64::new(seed);
                frame.extend((0..n).map(|_| rng.below(256) as u8));
            }
            Mutation::Flip { .. } | Mutation::Put { .. } => {}
        }
    }
}

fn draw_name(rng: &mut SplitMix64, max: u64) -> String {
    const ALPHABET: [char; 6] = ['a', 'b', '/', '.', 'é', '日'];
    (0..rng.below(max + 1))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn draw_request(rng: &mut SplitMix64) -> Drawn {
    Drawn {
        id: rng.next_u64(),
        cred: rng.below(4) as u16,
        kind: rng.below(4),
        want_sig: rng.below(2) == 0,
        path: draw_name(rng, 24),
        lanes: [0; 4].map(|_: u64| rng.next_u64()),
    }
}

/// Every assigned status code.
fn status_codes() -> Vec<u8> {
    (0..=20).chain(32..=38).collect()
}

fn draw_response(rng: &mut SplitMix64) -> (u8, Response) {
    let id = rng.next_u64();
    let codes = status_codes();
    let code = match rng.below(2) {
        0 => 0,
        _ => codes[rng.below(codes.len() as u64) as usize],
    };
    let status = Status::from_code(code).expect("an assigned code");
    let ftype = rng.below(8) as u8;
    let (op, body) = match (code, rng.below(5)) {
        // An error record echoes any op byte and carries no body.
        (1.., _) => (rng.below(256) as u8, RespBody::None),
        (0, 0) => (1, draw_lookup(rng, ftype, false)),
        (0, 1) => (1, draw_lookup(rng, ftype, true)),
        (0, 2) => (
            2,
            RespBody::Stat {
                attr: WireAttr {
                    ino: rng.next_u64(),
                    size: rng.next_u64(),
                    mtime: rng.next_u64(),
                    nlink: rng.next_u64() as u32,
                    uid: rng.next_u64() as u32,
                    gid: rng.next_u64() as u32,
                    mode: rng.next_u64() as u16,
                    ftype,
                },
            },
        ),
        (0, 3) => (
            3,
            RespBody::Readdir {
                entries: (0..rng.below(5))
                    .map(|_| (rng.next_u64(), rng.below(8) as u8, draw_name(rng, 12)))
                    .collect(),
            },
        ),
        (0, _) => (4, draw_lookup(rng, ftype, false)),
    };
    (
        code,
        Response {
            id,
            op,
            status,
            body,
        },
    )
}

fn draw_lookup(rng: &mut SplitMix64, ftype: u8, sig: bool) -> RespBody {
    RespBody::Lookup {
        ino: rng.next_u64(),
        ftype,
        sig: sig.then(|| Signature::from_wire([0; 4].map(|_: u64| rng.next_u64()))),
    }
}

/// A response frame, byte by byte from the module doc's layout: `u8
/// magic = 0xD6, u8 version = 1, u8 frame_status, u8 reserved, u16
/// count`, then per record `u64 req_id, u8 status, u8 op, u16 body_len,
/// body`.
fn write_response_frame(frame_status: u8, records: &[(u8, Response)]) -> Vec<u8> {
    let mut out = vec![0xD6, 1, frame_status, 0];
    out.extend((records.len() as u16).to_le_bytes());
    for (code, r) in records {
        let mut body = Vec::new();
        match &r.body {
            RespBody::None => {}
            RespBody::Lookup { ino, ftype, sig } => {
                body.extend(ino.to_le_bytes());
                body.push(*ftype);
                for lane in sig.iter().flat_map(Signature::to_wire) {
                    body.extend(lane.to_le_bytes());
                }
            }
            RespBody::Stat { attr: a } => {
                for v in [a.ino, a.size, a.mtime] {
                    body.extend(v.to_le_bytes());
                }
                for v in [a.nlink, a.uid, a.gid] {
                    body.extend(v.to_le_bytes());
                }
                body.extend(a.mode.to_le_bytes());
                body.push(a.ftype);
            }
            RespBody::Readdir { entries } => {
                body.extend((entries.len() as u16).to_le_bytes());
                for (ino, ftype, name) in entries {
                    body.extend(ino.to_le_bytes());
                    body.push(*ftype);
                    body.push(name.len() as u8);
                    body.extend(name.as_bytes());
                }
            }
        }
        out.extend(r.id.to_le_bytes());
        out.push(*code);
        out.push(r.op);
        out.extend((body.len() as u16).to_le_bytes());
        out.extend(body);
    }
    out
}

/// FNV-1a over `bytes`, then a NUL.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes.iter().chain([&0]) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Case = (Vec<Drawn>, u8, Vec<(u8, Response)>);

fn draw_case(rng: &mut SplitMix64) -> (Case, Vec<Mutation>) {
    let reqs = (0..rng.below(6)).map(|_| draw_request(rng)).collect();
    let frame_status = [0, 0, 0, 32, 33, 34, 38][rng.below(7) as usize];
    let resps = (0..rng.below(6)).map(|_| draw_response(rng)).collect();
    let script = (0..=rng.below(4)).map(|_| Mutation::draw(rng)).collect();
    ((reqs, frame_status, resps), script)
}

/// Checks the unmutated frames, then decodes each mutated frame both
/// ways and returns the outcomes' digest folded into `h`.
fn run_case((reqs, frame_status, resps): &Case, script: &[Mutation], mut h: u64) -> u64 {
    let requests: Vec<Request<'_>> = reqs.iter().map(Drawn::request).collect();
    let req_frame = encode_request_frame(&requests);
    let DecodedFrame::Batch(decoded) = decode_request_frame(&req_frame) else {
        panic!("an encoded request frame does not decode");
    };
    assert_eq!(decoded.len(), reqs.len());
    assert_eq!(peek_request_count(&req_frame), reqs.len() as u32);
    for (got, want) in decoded.iter().zip(reqs) {
        let flags = u8::from(want.kind == 0 && want.want_sig);
        let head = (got.id, got.op, got.flags, got.cred);
        assert_eq!(head, (want.id, want.kind as u8 + 1, flags, want.cred));
        assert_eq!(got.arg, want.arg().as_slice());
    }

    let resp_frame = write_response_frame(*frame_status, resps);
    let rf = decode_response_frame(&resp_frame).expect("a written response frame decodes");
    assert_eq!(rf.frame_status, *frame_status);
    let want: Vec<&Response> = resps.iter().map(|(_, r)| r).collect();
    assert_eq!(rf.records.iter().collect::<Vec<_>>(), want);

    for mut frame in [req_frame, resp_frame] {
        for m in script {
            m.apply(&mut frame);
        }
        let req = decode_request_frame(&frame);
        if let DecodedFrame::Batch(records) = &req {
            let span = frame.as_ptr_range();
            for DecodedReq { arg, .. } in records {
                let arg = arg.as_ptr_range();
                assert!(span.start <= arg.start && arg.end <= span.end);
            }
        }
        let outcome = format!(
            "{req:?} {} {:?}",
            peek_request_count(&frame),
            decode_response_frame(&frame)
        );
        h = fold(h, outcome.as_bytes());
    }
    h
}

#[test]
fn mutated_frames_decode_to_the_pinned_outcomes() {
    let digest = Cell::new(0xcbf2_9ce4_8422_2325u64);
    check(0..CASES, draw_case, |case, script| {
        digest.set(run_case(case, script, digest.get()))
    });
    assert_eq!(digest.get(), DIGEST, "{:#018x}", digest.get());
}
