//! Byte-counting `Read`/`Write` adapters.
//!
//! The IPC and network layers wrap their streams in these to meter
//! marshalled bytes without touching any framing code: every successful
//! read/write adds its byte count to a shared [`Counter`].

use crate::obs::metrics::Counter;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// A `Read` adapter that adds every byte read to a counter.
pub struct CountingReader<R> {
    inner: R,
    counter: Arc<Counter>,
}

impl<R: Read> CountingReader<R> {
    pub fn new(inner: R, counter: Arc<Counter>) -> CountingReader<R> {
        CountingReader { inner, counter }
    }

    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counter.add(n as u64);
        Ok(n)
    }
}

/// A `Write` adapter that adds every byte written to a counter.
pub struct CountingWriter<W> {
    inner: W,
    counter: Arc<Counter>,
}

impl<W: Write> CountingWriter<W> {
    pub fn new(inner: W, counter: Arc<Counter>) -> CountingWriter<W> {
        CountingWriter { inner, counter }
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counter.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::Registry;

    #[test]
    fn counts_bytes_both_ways() {
        let r = Registry::new();
        let rx = r.counter("io.in");
        let tx = r.counter("io.out");

        let mut reader = CountingReader::new(&b"hello world"[..], rx.clone());
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello world");
        assert_eq!(rx.get(), 11);

        let mut sink = Vec::new();
        let mut writer = CountingWriter::new(&mut sink, tx.clone());
        writer.write_all(b"abc").unwrap();
        writer.flush().unwrap();
        assert_eq!(tx.get(), 3);
        assert_eq!(sink, b"abc");
    }
}
