//! Workspace-wide error type.
//!
//! One enum covers every layer so cross-crate plumbing (`storage` errors
//! surfacing through `sql`, VM traps surfacing through `udf`) needs no
//! conversion boilerplate beyond `From<io::Error>`.

use std::fmt;
use std::io;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, JaguarError>;

/// All the ways a Jaguar operation can fail.
#[derive(Debug)]
pub enum JaguarError {
    /// Underlying file or socket I/O failed.
    Io(io::Error),
    /// A page, record, or module had an invalid on-disk/wire format.
    Corruption(String),
    /// Storage-layer failure (buffer pool exhausted, page full, ...).
    Storage(String),
    /// Catalog lookup failed (unknown table, column, or UDF).
    Catalog(String),
    /// SQL text could not be lexed/parsed.
    Parse(String),
    /// A query plan could not be built or was semantically invalid.
    Plan(String),
    /// Runtime failure while executing a query plan.
    Execution(String),
    /// A UDF module failed bytecode verification.
    Verification(String),
    /// The sandboxed VM trapped (bounds, type, arithmetic, stack...).
    VmTrap(VmTrap),
    /// A UDF exceeded a resource limit (fuel, memory, call depth).
    ResourceLimit(String),
    /// The security manager denied an operation (least privilege, \[SS75\]).
    SecurityViolation(String),
    /// The isolated UDF worker process failed or crashed.
    Worker(String),
    /// Client/server wire-protocol violation.
    Protocol(String),
    /// JagScript compilation error (lexer/parser/typechecker).
    Compile(String),
    /// A UDF signalled an application-level error.
    Udf(String),
    /// The statement was cancelled by the client (or server teardown).
    Cancelled(String),
    /// The statement exceeded its deadline (statement timeout, client
    /// socket timeout, or a pooled-invoke deadline bound by the
    /// statement budget).
    Timeout(String),
    /// The server shed this request at admission (queue full or the
    /// deadline-bounded wait expired). Retryable: the statement never
    /// started executing, and `retry_after_ms` is the server's backoff
    /// hint for when another attempt is worth making.
    ServerBusy { retry_after_ms: u64 },
    /// Anything else.
    Other(String),
}

/// Reasons the sandboxed VM can trap. Mirrors the run-time checks the paper
/// attributes to Java: array bounds, type safety, arithmetic faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmTrap {
    /// Array index out of bounds: `index` vs `len`.
    Bounds { index: i64, len: usize },
    /// Operand stack underflow or overflow.
    Stack(&'static str),
    /// A value of the wrong type was found at runtime.
    Type(&'static str),
    /// Integer division/remainder by zero.
    DivideByZero,
    /// Access to an undefined local slot.
    BadLocal(u16),
    /// Jump to an instruction offset outside the function.
    BadJump(usize),
    /// Call to an unknown function index.
    BadCall(u32),
    /// Explicit trap instruction executed by the program.
    Explicit(u32),
    /// Host callback failed or was rejected.
    Host(String),
}

impl fmt::Display for VmTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmTrap::Bounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            VmTrap::Stack(m) => write!(f, "operand stack fault: {m}"),
            VmTrap::Type(m) => write!(f, "type fault: {m}"),
            VmTrap::DivideByZero => write!(f, "integer divide by zero"),
            VmTrap::BadLocal(i) => write!(f, "undefined local slot {i}"),
            VmTrap::BadJump(t) => write!(f, "jump target {t} out of range"),
            VmTrap::BadCall(i) => write!(f, "unknown function index {i}"),
            VmTrap::Explicit(c) => write!(f, "explicit trap (code {c})"),
            VmTrap::Host(m) => write!(f, "host callback fault: {m}"),
        }
    }
}

impl fmt::Display for JaguarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JaguarError::Io(e) => write!(f, "i/o error: {e}"),
            JaguarError::Corruption(m) => write!(f, "corruption: {m}"),
            JaguarError::Storage(m) => write!(f, "storage error: {m}"),
            JaguarError::Catalog(m) => write!(f, "catalog error: {m}"),
            JaguarError::Parse(m) => write!(f, "parse error: {m}"),
            JaguarError::Plan(m) => write!(f, "plan error: {m}"),
            JaguarError::Execution(m) => write!(f, "execution error: {m}"),
            JaguarError::Verification(m) => write!(f, "verification failed: {m}"),
            JaguarError::VmTrap(t) => write!(f, "vm trap: {t}"),
            JaguarError::ResourceLimit(m) => write!(f, "resource limit exceeded: {m}"),
            JaguarError::SecurityViolation(m) => write!(f, "security violation: {m}"),
            JaguarError::Worker(m) => write!(f, "udf worker error: {m}"),
            JaguarError::Protocol(m) => write!(f, "protocol error: {m}"),
            JaguarError::Compile(m) => write!(f, "compile error: {m}"),
            JaguarError::Udf(m) => write!(f, "udf error: {m}"),
            JaguarError::Cancelled(m) => write!(f, "cancelled: {m}"),
            JaguarError::Timeout(m) => write!(f, "timeout: {m}"),
            JaguarError::ServerBusy { retry_after_ms } => {
                write!(
                    f,
                    "server busy: overloaded, retry after {retry_after_ms} ms"
                )
            }
            JaguarError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for JaguarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JaguarError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JaguarError {
    fn from(e: io::Error) -> Self {
        JaguarError::Io(e)
    }
}

impl From<VmTrap> for JaguarError {
    fn from(t: VmTrap) -> Self {
        JaguarError::VmTrap(t)
    }
}

impl JaguarError {
    /// True if this error is a *containable* UDF failure: the server should
    /// abort the query but keep running (the security story of the paper).
    pub fn is_containable(&self) -> bool {
        matches!(
            self,
            JaguarError::VmTrap(_)
                | JaguarError::ResourceLimit(_)
                | JaguarError::SecurityViolation(_)
                | JaguarError::Worker(_)
                | JaguarError::Udf(_)
                | JaguarError::Verification(_)
                | JaguarError::Cancelled(_)
                | JaguarError::Timeout(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = JaguarError::VmTrap(VmTrap::Bounds { index: 7, len: 3 });
        assert_eq!(
            e.to_string(),
            "vm trap: array index 7 out of bounds for length 3"
        );
        let e = JaguarError::SecurityViolation("file open denied".into());
        assert_eq!(e.to_string(), "security violation: file open denied");
        let e = JaguarError::ServerBusy {
            retry_after_ms: 250,
        };
        assert_eq!(e.to_string(), "server busy: overloaded, retry after 250 ms");
    }

    #[test]
    fn server_busy_is_neither_containable_nor_lifecycle() {
        // A shed request never executed: it is not a UDF containment
        // event, nor a cancel or deadline of a statement that started.
        let e = JaguarError::ServerBusy { retry_after_ms: 10 };
        assert!(!e.is_containable());
        assert!(!matches!(
            e,
            JaguarError::Cancelled(_) | JaguarError::Timeout(_)
        ));
    }

    #[test]
    fn containable_classification() {
        assert!(JaguarError::VmTrap(VmTrap::DivideByZero).is_containable());
        assert!(JaguarError::ResourceLimit("fuel".into()).is_containable());
        assert!(JaguarError::Worker("crash".into()).is_containable());
        assert!(!JaguarError::Storage("pool".into()).is_containable());
        assert!(!JaguarError::Parse("bad".into()).is_containable());
        // Lifecycle aborts are containable: the server keeps running.
        assert!(JaguarError::Cancelled("c".into()).is_containable());
        assert!(JaguarError::Timeout("t".into()).is_containable());
    }

    #[test]
    fn io_source_is_preserved() {
        let e: JaguarError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn trap_displays() {
        assert_eq!(VmTrap::DivideByZero.to_string(), "integer divide by zero");
        assert_eq!(VmTrap::BadLocal(4).to_string(), "undefined local slot 4");
        assert_eq!(VmTrap::BadJump(9).to_string(), "jump target 9 out of range");
        assert_eq!(VmTrap::BadCall(2).to_string(), "unknown function index 2");
    }
}
