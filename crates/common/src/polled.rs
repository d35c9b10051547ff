//! The one way a process boundary carries a message: one length-prefixed
//! frame, sent in one write and read whole.
//!
//! A frame is the body's length as a little-endian `u32`, then the body.
//! Both ends of the wire and of the worker socket send through an
//! [`Outbox`] and read through a [`Polled`].
//!
//! A thread blocked in `recv` is woken by its peer's send, and what that
//! costs is the scheduler's draw: next to nothing when the two share a
//! core, an inter-processor interrupt into an idle (on a guest: halted)
//! core when they do not. A request/reply peer answers within a few µs, so
//! every blocking wait across such a boundary pays that wake-up twice per
//! round trip. [`Polled`] waits as every reader here waits: it polls for
//! the next message (a non-blocking `fill_buf`, the core yielded on each
//! miss) for up to [`POLL_WINDOW`], then blocks, and a message sent within
//! the window finds this end awake.

use std::io::{self, BufRead, BufReader, Cursor, ErrorKind, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{JaguarError, Result};
use crate::obs::Counter;
use crate::stream::{read_u32, whole, BLOB_RESERVE_CAP};

/// How long a reader polls for the peer's next message before it blocks.
pub const POLL_WINDOW: Duration = Duration::from_micros(100);

/// A byte stream whose reads can be switched between waiting and failing
/// with `WouldBlock` at once.
pub trait Pollable: Read {
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()>;
}

impl Pollable for TcpStream {
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, on)
    }
}

#[cfg(unix)]
impl Pollable for UnixStream {
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, on)
    }
}

/// An in-memory stream never waits: polling it reads it.
impl<T: AsRef<[u8]>> Pollable for Cursor<T> {
    fn set_nonblocking(&mut self, _on: bool) -> io::Result<()> {
        Ok(())
    }
}

/// One end's outgoing messages, each encoded whole into a buffer kept
/// from message to message and written as one frame in one `write_all`: a
/// frame written field by field wakes its reader once per piece.
pub struct Outbox<W> {
    out: W,
    frame: Vec<u8>,
}

impl<W: Write> Outbox<W> {
    pub fn new(out: W) -> Outbox<W> {
        Outbox {
            out,
            frame: Vec::new(),
        }
    }

    /// The stream written to.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Encode one message's body with `encode` and write its frame. A body
    /// above `u32::MAX` bytes is refused, and nothing of it is written.
    pub fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Result<()> {
        self.frame.clear();
        self.frame.extend_from_slice(&[0; 4]);
        encode(&mut self.frame)?;
        let len = u32::try_from(self.frame.len() - 4)
            .map_err(|_| JaguarError::Protocol("message exceeds the u32 frame length".into()))?;
        self.frame[..4].copy_from_slice(&len.to_le_bytes());
        self.out.write_all(&self.frame)?;
        Ok(())
    }
}

/// One end's incoming messages, each awaited by polling for up to
/// [`POLL_WINDOW`] and then blocking, and read whole.
/// A socket's writer is a `try_clone` of its reader (or, in a worker, its
/// fd 1 a `dup` of fd 0) and shares its `O_NONBLOCK`: a message is
/// awaited only after this end's own one left, and blocking mode is back
/// before the frame is read, so no write ever meets a non-blocking
/// socket. Socket errors, EOF (inside a frame too) and read timeouts are
/// the blocking read's to raise.
pub struct Polled<S> {
    reader: BufReader<S>,
    frame: Vec<u8>,
    m_polled: Arc<Counter>,
}

impl<S: Pollable> Polled<S> {
    /// Reads from `stream`, counting the reads that poll in `polls`.
    pub fn new(stream: S, polls: Arc<Counter>) -> Polled<S> {
        Polled {
            reader: BufReader::new(stream),
            frame: Vec::new(),
            m_polled: polls,
        }
    }

    /// The stream read from.
    pub fn get_mut(&mut self) -> &mut S {
        self.reader.get_mut()
    }

    /// The next message, read whole into this reader's buffer and decoded
    /// from it by `decode`, which must consume all of it.
    pub fn read<T>(&mut self, decode: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<T> {
        let mut frame = std::mem::take(&mut self.frame);
        let out = self
            .read_into(&mut frame)
            .and_then(|()| whole(&frame, decode));
        self.frame = frame;
        out
    }

    /// The body of the next message, read whole into `body` (replacing
    /// what it held). A message already buffered is read at once. The
    /// length is untrusted: `body` grows only as bytes actually arrive.
    pub fn read_into(&mut self, body: &mut Vec<u8>) -> Result<()> {
        if self.reader.buffer().is_empty() && self.reader.get_mut().set_nonblocking(true).is_ok() {
            self.m_polled.inc();
            let start = Instant::now();
            while matches!(self.reader.fill_buf(), Err(e) if e.kind() == ErrorKind::WouldBlock)
                && start.elapsed() < POLL_WINDOW
            {
                std::thread::yield_now();
            }
            self.reader.get_mut().set_nonblocking(false)?;
        }
        body.clear();
        let len = read_u32(&mut self.reader)?;
        body.reserve((len as usize).min(BLOB_RESERVE_CAP));
        let got = (&mut self.reader).take(len as u64).read_to_end(body)?;
        if got != len as usize {
            let e = format!("stream ended {got} bytes into a {len}-byte message");
            return Err(io::Error::new(ErrorKind::UnexpectedEof, e).into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{read_u8, write_u32};
    use std::net::TcpListener;

    /// Polled for or blocked on, a message arrives whole and the socket is
    /// back in blocking mode; a message later than the window is delivered
    /// by the blocking read, and a closed socket is an EOF.
    #[test]
    fn polled_delivers_alike_polling_or_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        far.set_nodelay(true).unwrap();
        let mut far = Outbox::new(far);
        let near = listener.accept().unwrap().0;
        let polls = Arc::new(Counter::default());
        let mut reader = Polled::new(near.try_clone().unwrap(), Arc::clone(&polls));
        let next = |reader: &mut Polled<TcpStream>| reader.read(|r| read_u32(r));
        let send = |far: &mut Outbox<TcpStream>, v| far.send(|f| write_u32(f, v)).unwrap();
        let polled = || polls.get();

        // The message there at the first look.
        send(&mut far, 7);
        let before = polled();
        assert_eq!(next(&mut reader).unwrap(), 7);
        assert!(polled() > before, "the read polled");

        // Two messages in one read: the second is decoded from the buffer.
        send(&mut far, 8);
        send(&mut far, 9);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(next(&mut reader).unwrap(), 8);
        assert_eq!(next(&mut reader).unwrap(), 9);

        // The message later than the window: the blocking read behind the
        // poll delivers it.
        let late = std::thread::spawn(move || {
            std::thread::sleep(30 * POLL_WINDOW);
            send(&mut far, 10);
            far
        });
        assert_eq!(next(&mut reader).unwrap(), 10);
        let far = late.join().unwrap();

        // Blocking mode: with nothing to read, a timed read takes its
        // time-out to fail where a non-blocking one fails at once.
        near.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let start = Instant::now();
        assert!(next(&mut reader).is_err());
        assert!(start.elapsed() >= Duration::from_millis(25));

        drop(far);
        let eof = next(&mut reader).unwrap_err();
        assert!(
            matches!(&eof, JaguarError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
            "{eof}"
        );
    }

    /// The bytes an outbox writes for each of `bodies`.
    fn frames(bodies: &[&[u8]]) -> Vec<u8> {
        let mut out = Outbox::new(Vec::new());
        for body in bodies {
            out.send(|f| {
                f.extend_from_slice(body);
                Ok(())
            })
            .unwrap();
        }
        out.out
    }

    fn polled(bytes: Vec<u8>) -> Polled<Cursor<Vec<u8>>> {
        Polled::new(Cursor::new(bytes), Arc::default())
    }

    /// A frame is its body's length and the body; the reader hands the
    /// decoder that body, refuses what it leaves, and reads every strict
    /// prefix of a frame as the end of the stream.
    #[test]
    fn a_frame_is_read_whole_and_decoded_to_its_last_byte() {
        let bytes = frames(&[b"\x05abc", b""]);
        assert_eq!(bytes[..8], [4, 0, 0, 0, 5, b'a', b'b', b'c']);
        assert_eq!(bytes[8..], [0, 0, 0, 0]);
        let mut reader = polled(bytes.clone());
        let body = reader.read(|r| Ok(std::mem::take(r).to_vec())).unwrap();
        assert_eq!(body, b"\x05abc");
        assert_eq!(reader.read(|r| Ok(r.len())).unwrap(), 0);

        // A decoder that stops short is refused; one that runs past the
        // body is refused as the sender's error, not as an EOF.
        let e = polled(bytes.clone()).read(|r| read_u8(r)).unwrap_err();
        assert!(matches!(&e, JaguarError::Protocol(m) if m.contains("3 trailing bytes")));
        let e = polled(bytes.clone())
            .read(|r| read_u32(r).and(read_u32(r)))
            .unwrap_err();
        assert!(matches!(&e, JaguarError::Protocol(m) if m.contains("past the end")));

        // Every strict prefix of the first frame is an EOF, never a body.
        for cut in 0..8 {
            let e = polled(bytes[..cut].to_vec())
                .read(|r| Ok(r.len()))
                .unwrap_err();
            assert!(
                matches!(&e, JaguarError::Io(io) if io.kind() == ErrorKind::UnexpectedEof),
                "cut at {cut}: {e}"
            );
        }
    }

    /// A length the stream never backs allocates only what arrived: a
    /// frame claiming 4 GiB over 1 MiB of bytes fails as an EOF with the
    /// buffer grown by arrival, not by the claim.
    #[test]
    fn a_four_gib_claim_over_a_short_stream_allocates_what_arrived() {
        let arrived = 1 << 20;
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.resize(4 + arrived, 7);
        let mut reader = polled(bytes);
        let mut body = Vec::new();
        let e = reader.read_into(&mut body).unwrap_err();
        assert!(matches!(&e, JaguarError::Io(io) if io.kind() == ErrorKind::UnexpectedEof));
        assert_eq!(body.len(), arrived);
        assert!(body.capacity() <= 2 * arrived, "{}", body.capacity());
    }
}
