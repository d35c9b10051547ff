//! # jaguar-ipc — isolated-process UDF execution
//!
//! The substrate for the paper's **Design 2** (native UDFs in a separate
//! process, "IC++") and **Design 4** (sandboxed-VM UDFs in a separate
//! process).
//!
//! In the paper: *"Communication between the server and the remote
//! executors happens through shared memory. The server copies the function
//! arguments into shared memory, and 'sends' a request by releasing a
//! semaphore."* — and one remote executor is created **per query**, not per
//! invocation.
//!
//! **Substitution** (documented in DESIGN.md): std-only Rust has no SysV
//! shared memory, so arguments and results cross the process boundary over
//! a Unix socket pair instead: the worker's stdin and stdout are its half.
//! The qualitative cost structure is the same one Figures 5 and 8 measure:
//! every crossing pays a context switch plus a copy proportional to the
//! data size, and every *callback* pays a full extra round trip. Each
//! message leaves in one write, and each end polls for the next message
//! briefly before it blocks, where the paper's semaphore wait blocked.
//!
//! This crate is the parent's side and knows nothing of what runs in the
//! worker: a load carries a UDF definition `jaguar-udf` encodes, and its
//! worker serve loop (`jaguar_udf::worker`) decodes and hosts.
//!
//! Pieces:
//!
//! * [`proto`] — the framed message protocol (built on the §6.4 value
//!   stream encoding from `jaguar-common`; errors cross with their class),
//! * [`executor`] — the server side: spawn a worker per query, load a UDF
//!   into it, invoke it a batch of rows at a time (a tuple is a batch of
//!   one), answer its callbacks, reap it; a guarded round trip (spawn
//!   handshake, invoke, batch, reset) times out its own socket reads and
//!   writes, and kills the worker when it fails past its deadline,
//! * [`pool`] — a warm pool of workers checked out per query instead of
//!   spawned (an extension; the paper spawns per query); a checkout spawns
//!   what the pool lacks, and no pool thread loops.

pub mod executor;
pub mod pool;
pub mod proto;

pub use executor::{find_worker_binary, Expired, WorkerProcess};
pub use proto::CallbackHandler;
