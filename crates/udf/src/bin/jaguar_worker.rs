//! The isolated UDF executor process (paper §4.1).
//!
//! The server spawns one of these per UDF per query (Design 2/4), or keeps
//! a few warm in its worker pool, and runs [`jaguar_udf::worker::serve`]
//! over its stdin and stdout, both its half of a socket pair, read and
//! written unbuffered: a reply leaves in one write, which stdout's line
//! buffering would split at every `0x0A` byte. The native UDF registry
//! baked in here mirrors the C++ UDFs compiled into PREDATOR's remote
//! executor.
//!
//! A UDF stuck inside this process is the server's to kill, at the deadline
//! of its round trip. Should the server itself die, a UDF that never
//! returns to read the closed socket would outlive it; a watcher thread
//! exits the worker once its parent changes.

use std::os::fd::{AsFd, BorrowedFd};
use std::os::unix::net::UnixStream;

/// The socket behind a standard fd, as a stream of its own.
fn socket(fd: BorrowedFd<'_>) -> jaguar_common::Result<UnixStream> {
    Ok(UnixStream::from(fd.try_clone_to_owned()?))
}

fn main() {
    #[cfg(unix)]
    {
        let parent = std::os::unix::process::parent_id();
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
            if std::os::unix::process::parent_id() != parent {
                std::process::exit(1);
            }
        });
    }
    let registry = jaguar_udf::worker_registry();
    let served = socket(std::io::stdin().as_fd()).and_then(|input| {
        let output = socket(std::io::stdout().as_fd())?;
        jaguar_udf::worker::serve(input, output, &registry)
    });
    if let Err(e) = served {
        eprintln!("jaguar-worker: {e}");
        std::process::exit(1);
    }
}
