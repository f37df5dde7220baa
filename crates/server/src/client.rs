//! Synchronous clients: one over an in-process [`Connection`], one
//! over a raw byte stream. Both speak the same frames; the only
//! difference is who carries the bytes.

use crate::proto::{
    decode_response_frame, encode_request_frame, Request, RespBody, Response, Status,
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

    /// The underlying connection.
    pub fn connection(&self) -> &Connection {
        &self.conn
    }
}

/// A client on a byte stream served by
/// [`Server::serve_stream`](crate::Server::serve_stream).
pub struct StreamClient {
    stream: DuplexEnd,
    max_frame: usize,
}

impl StreamClient {
    /// Wraps one end of a duplex stream. Response frames are read
    /// under the default [`MAX_FRAME_BYTES`](crate::proto::MAX_FRAME_BYTES)
    /// cap — the server bounds every response it encodes to its own
    /// `max_frame_bytes`, so the caps only disagree if the server was
    /// configured with a larger one (use [`with_max_frame`](Self::with_max_frame)
    /// to match it).
    pub fn new(stream: DuplexEnd) -> StreamClient {
        StreamClient::with_max_frame(stream, crate::proto::MAX_FRAME_BYTES)
    }

    /// Wraps a stream with an explicit response-frame cap, for servers
    /// configured with a non-default `max_frame_bytes`.
    pub fn with_max_frame(stream: DuplexEnd, max_frame: usize) -> StreamClient {
        StreamClient { stream, max_frame }
    }

    /// Sends one batch over the wire and blocks for its responses.
    pub fn call(&mut self, reqs: &[Request<'_>]) -> io::Result<Vec<Response>> {
        write_frame(&mut self.stream, &encode_request_frame(reqs))?;
        let frame = read_frame(&mut self.stream, self.max_frame)?.ok_or_else(|| {
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
