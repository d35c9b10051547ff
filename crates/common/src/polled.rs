//! The one way a process boundary waits for its peer's next message.
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
//!
//! The client and the session of the wire protocol, and the parent and the
//! worker of the isolated UDF executor, all read through it.

use std::io::{self, BufRead, BufReader, Cursor, ErrorKind, Read};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::Result;
use crate::obs::Counter;

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

/// One end's incoming messages, each awaited by polling for up to
/// [`POLL_WINDOW`] and then blocking.
///
/// A socket's writer is a `try_clone` of its reader (or, in a worker, its
/// fd 1 a `dup` of fd 0) and shares its `O_NONBLOCK`: a message is
/// awaited only after this end's own one left, and blocking mode is back
/// before the message is decoded, so no write ever meets a non-blocking
/// socket. Socket errors, EOF and read timeouts are the blocking read's to
/// raise.
pub struct Polled<S> {
    reader: BufReader<S>,
    m_polled: Arc<Counter>,
}

impl<S: Pollable> Polled<S> {
    /// Reads from `stream`, counting the reads that poll in `polls`.
    pub fn new(stream: S, polls: Arc<Counter>) -> Polled<S> {
        Polled {
            reader: BufReader::new(stream),
            m_polled: polls,
        }
    }

    /// The stream read from.
    pub fn get_mut(&mut self) -> &mut S {
        self.reader.get_mut()
    }

    /// The next message, as `decode` reads it. A message already buffered
    /// is decoded at once.
    pub fn read<T>(&mut self, decode: impl FnOnce(&mut BufReader<S>) -> Result<T>) -> Result<T> {
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
        decode(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JaguarError;
    use crate::stream::{read_u32, write_u32};
    use std::net::TcpListener;

    /// Polled for or blocked on, a message arrives whole and the socket is
    /// back in blocking mode; a message later than the window is delivered
    /// by the blocking read, and a closed socket is an EOF.
    #[test]
    fn polled_delivers_alike_polling_or_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        far.set_nodelay(true).unwrap();
        let near = listener.accept().unwrap().0;
        let polls = Arc::new(Counter::default());
        let mut reader = Polled::new(near.try_clone().unwrap(), Arc::clone(&polls));
        let next = |reader: &mut Polled<TcpStream>| reader.read(read_u32);
        let polled = || polls.get();

        // The message there at the first look.
        write_u32(&mut far, 7).unwrap();
        let before = polled();
        assert_eq!(next(&mut reader).unwrap(), 7);
        assert!(polled() > before, "the read polled");

        // Two messages in one read: the second is decoded from the buffer.
        write_u32(&mut far, 8).unwrap();
        write_u32(&mut far, 9).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(next(&mut reader).unwrap(), 8);
        assert_eq!(next(&mut reader).unwrap(), 9);

        // The message later than the window: the blocking read behind the
        // poll delivers it.
        let late = std::thread::spawn(move || {
            std::thread::sleep(30 * POLL_WINDOW);
            write_u32(&mut far, 10).unwrap();
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
}
