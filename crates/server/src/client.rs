//! Synchronous clients: one over an in-process [`Connection`], one
//! over a raw byte stream. Both speak the same frames; the only
//! difference is who carries the bytes. Each expands a frame-level
//! status (a shed, a malformed or oversized batch) into one typed
//! response per request; the stream client reads responses under the
//! protocol's [`MAX_FRAME_BYTES`] cap, the default server's own.

use crate::proto::{
    decode_response_frame, encode_request_frame, Request, RespBody, Response, Status,
    MAX_FRAME_BYTES,
};
use crate::server::Connection;
use crate::transport::{read_frame, write_frame, DuplexEnd};
use std::io;

/// Expands a frame-level status into per-request responses (a shed or
/// bad frame answers every request the client packed into it).
fn frame_level(reqs: &[Request<'_>], code: u8) -> Vec<Response> {
    let status = Status::from_code(code).unwrap_or(Status::BadRequest);
    reqs.iter()
        .map(|r| Response {
            id: r.id,
            op: r.body.op().code(),
            status,
            body: RespBody::None,
        })
        .collect()
}

/// A client on an in-process [`Connection`].
pub struct Client {
    conn: Connection,
}

impl Client {
    /// Wraps a connection.
    pub fn new(conn: Connection) -> Client {
        Client { conn }
    }

    /// Sends one batch and blocks for its responses. A frame-level
    /// rejection (overload, bad version) is expanded to one typed
    /// response per request.
    pub fn call(&self, reqs: &[Request<'_>]) -> Vec<Response> {
        self.conn.send_frame(encode_request_frame(reqs));
        let frame = self.conn.recv_frame();
        let rf = decode_response_frame(&frame).expect("server sent a malformed response frame");
        if rf.frame_status != 0 {
            return frame_level(reqs, rf.frame_status);
        }
        rf.records
    }
}

/// A client on a byte stream served by
/// [`Server::serve_stream`](crate::Server::serve_stream).
pub struct StreamClient {
    stream: DuplexEnd,
}

impl StreamClient {
    /// Wraps one end of a duplex stream. Response frames are read
    /// under the default [`MAX_FRAME_BYTES`] cap, which bounds every
    /// response a server with the default `max_frame_bytes` encodes.
    pub fn new(stream: DuplexEnd) -> StreamClient {
        StreamClient { stream }
    }

    /// Sends one batch over the wire and blocks for its responses.
    pub fn call(&mut self, reqs: &[Request<'_>]) -> io::Result<Vec<Response>> {
        write_frame(&mut self.stream, &encode_request_frame(reqs))?;
        let frame = read_frame(&mut self.stream, MAX_FRAME_BYTES)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the stream")
        })?;
        let rf = decode_response_frame(&frame).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "malformed response frame")
        })?;
        if rf.frame_status != 0 {
            return Ok(frame_level(reqs, rf.frame_status));
        }
        Ok(rf.records)
    }
}
