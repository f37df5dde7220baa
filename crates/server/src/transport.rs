//! Frame transport: 4-byte little-endian length prefix over any byte
//! stream, and the stream the server is driven over — a connected Unix
//! socket pair.
//!
//! The evaluation environment has no network, so the "wire" is a
//! [`duplex_pair`] of `AF_UNIX` stream sockets rather than TCP — but it
//! is a real socket: every frame crosses the kernel as the contiguous
//! byte image produced by [`crate::proto`], a writer blocks once the
//! peer's receive buffer is full (kernel backpressure), dropping an end
//! reads as end-of-stream on the other, and writing to a vanished peer
//! fails with `EPIPE`. Swapping [`DuplexEnd`] for a `TcpStream` changes
//! nothing else: both sides only use `Read`/`Write`.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame. `Ok(None)` on clean end-of-stream
/// (the peer closed between frames); an error if the stream ends mid-
/// frame or the announced length exceeds `max`.
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_b = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let n = r.read(&mut len_b[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_b) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// One end of a connected bidirectional byte stream.
pub type DuplexEnd = UnixStream;

/// Creates a connected pair of stream ends.
pub fn duplex_pair() -> (DuplexEnd, DuplexEnd) {
    UnixStream::pair().expect("socketpair(AF_UNIX, SOCK_STREAM)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_the_socket() {
        let (mut a, mut b) = duplex_pair();
        write_frame(&mut a, b"hello").unwrap();
        write_frame(&mut a, b"").unwrap();
        write_frame(&mut a, &[7u8; 1000]).unwrap();
        assert_eq!(read_frame(&mut b, 1 << 20).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut b, 1 << 20).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut b, 1 << 20).unwrap().unwrap(), [7u8; 1000]);
    }

    #[test]
    fn clean_close_reads_as_none_mid_frame_as_error() {
        let (mut a, mut b) = duplex_pair();
        write_frame(&mut a, b"last").unwrap();
        drop(a);
        assert_eq!(read_frame(&mut b, 1 << 20).unwrap().unwrap(), b"last");
        assert!(read_frame(&mut b, 1 << 20).unwrap().is_none());

        let (mut a, mut b) = duplex_pair();
        a.write_all(&100u32.to_le_bytes()).unwrap();
        a.write_all(b"short").unwrap(); // 5 of the announced 100 bytes
        drop(a);
        assert!(read_frame(&mut b, 1 << 20).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let (mut a, mut b) = duplex_pair();
        a.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = read_frame(&mut b, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn cross_thread_blocking_read() {
        let (mut a, mut b) = duplex_pair();
        let t = std::thread::spawn(move || read_frame(&mut b, 1 << 20).unwrap().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        write_frame(&mut a, b"late").unwrap();
        assert_eq!(t.join().unwrap(), b"late");
    }
}
