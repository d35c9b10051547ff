//! Workspace-wide error type.
//!
//! One enum covers every layer so cross-crate plumbing (`storage` errors
//! surfacing through `sql`, VM traps surfacing through `udf`) needs no
//! conversion boilerplate beyond `From<io::Error>`. An error crosses a
//! process boundary as itself: [`JaguarError::write`] and
//! [`JaguarError::read`] carry its class and payload.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read, Write};

use crate::stream::{
    read_i64, read_str, read_u64, read_u8, write_i64, write_str, write_u64, write_u8,
};

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
    Stack(Cow<'static, str>),
    /// A value of the wrong type was found at runtime.
    Type(Cow<'static, str>),
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

/// Errors are equal when they are of one class and carry the same payload,
/// i.e. render the same `Debug` (an `Io` error: its kind and text).
impl PartialEq for JaguarError {
    fn eq(&self, other: &Self) -> bool {
        format!("{self:?}") == format!("{other:?}")
    }
}

/// The `io::ErrorKind`s an `Io` error crosses with; any other kind crosses
/// as `Other`.
#[rustfmt::skip]
const IO_KINDS: [io::ErrorKind; 9] = {
    use io::ErrorKind::*;
    [Other, NotFound, PermissionDenied, BrokenPipe, WouldBlock, InvalidInput, InvalidData,
     TimedOut, UnexpectedEof]
};

/// The classes that carry one text, and their class tags.
macro_rules! text_classes {
    ($($tag:literal => $class:ident),*) => {
        fn text_class(e: &JaguarError) -> Option<(u8, &str)> {
            match e {
                $(JaguarError::$class(m) => Some(($tag, m)),)*
                _ => None,
            }
        }

        fn from_text_class(tag: u8, m: String) -> Option<JaguarError> {
            match tag {
                $($tag => Some(JaguarError::$class(m)),)*
                _ => None,
            }
        }
    };
}

text_classes!(
    1 => Corruption, 2 => Storage, 3 => Catalog, 4 => Parse, 5 => Plan, 6 => Execution,
    7 => Verification, 9 => ResourceLimit, 10 => SecurityViolation, 11 => Worker,
    12 => Protocol, 13 => Compile, 14 => Udf, 15 => Cancelled, 16 => Timeout, 18 => Other
);

impl JaguarError {
    /// Write this error as one record: its class (0 `Io`, 8 `VmTrap`, 17
    /// `ServerBusy`, else a text class), a trap's or I/O error's kind, two
    /// numbers and a text, each unused one zero or empty. [`JaguarError::read`]
    /// gives back an error of the same class, `Display` and `Debug`.
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        let io_text;
        let (class, kind, a, b, text): (u8, u8, i64, u64, &str) = match self {
            JaguarError::Io(e) => {
                io_text = e.to_string();
                let kind = IO_KINDS.iter().position(|k| *k == e.kind());
                (0, kind.unwrap_or(0) as u8, 0, 0, &io_text)
            }
            JaguarError::VmTrap(t) => match t {
                VmTrap::Bounds { index, len } => (8, 0, *index, *len as u64, ""),
                VmTrap::Stack(m) => (8, 1, 0, 0, m),
                VmTrap::Type(m) => (8, 2, 0, 0, m),
                VmTrap::DivideByZero => (8, 3, 0, 0, ""),
                VmTrap::BadLocal(i) => (8, 4, 0, *i as u64, ""),
                VmTrap::BadJump(t) => (8, 5, 0, *t as u64, ""),
                VmTrap::BadCall(i) => (8, 6, 0, *i as u64, ""),
                VmTrap::Explicit(c) => (8, 7, 0, *c as u64, ""),
                VmTrap::Host(m) => (8, 8, 0, 0, m),
            },
            JaguarError::ServerBusy { retry_after_ms } => (17, 0, 0, *retry_after_ms, ""),
            e => text_class(e)
                .map(|(class, m)| (class, 0, 0, 0, m))
                .expect("a text class"),
        };
        write_u8(w, class)?;
        write_u8(w, kind)?;
        write_i64(w, a)?;
        write_u64(w, b)?;
        write_str(w, text)
    }

    /// Read an error [`JaguarError::write`] wrote. A trap's numbers are
    /// taken as written: a peer that garbles them garbles its own error.
    pub fn read(r: &mut impl Read) -> Result<JaguarError> {
        let (class, kind, a, b) = (read_u8(r)?, read_u8(r)?, read_i64(r)?, read_u64(r)?);
        let text = read_str(r)?;
        let unknown = |what| JaguarError::Protocol(format!("unknown {what} {class}/{kind}"));
        Ok(match (class, kind) {
            (0, _) => {
                let kind = IO_KINDS.get(kind as usize).copied();
                JaguarError::Io(io::Error::new(kind.unwrap_or(io::ErrorKind::Other), text))
            }
            (8, kind) => JaguarError::VmTrap(match kind {
                0 => VmTrap::Bounds {
                    index: a,
                    len: b as usize,
                },
                1 => VmTrap::Stack(text.into()),
                2 => VmTrap::Type(text.into()),
                3 => VmTrap::DivideByZero,
                4 => VmTrap::BadLocal(b as u16),
                5 => VmTrap::BadJump(b as usize),
                6 => VmTrap::BadCall(b as u32),
                7 => VmTrap::Explicit(b as u32),
                8 => VmTrap::Host(text),
                _ => return Err(unknown("vm trap")),
            }),
            (17, _) => JaguarError::ServerBusy { retry_after_ms: b },
            _ => from_text_class(class, text).ok_or_else(|| unknown("error class"))?,
        })
    }

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

    /// Every class and every trap crosses as itself: same class, same
    /// `Display`, same `Debug`.
    #[test]
    fn every_error_round_trips_through_its_encoding() {
        let traps = [
            VmTrap::Bounds { index: -7, len: 3 },
            VmTrap::Stack("underflow".into()),
            VmTrap::Type("expected i64".into()),
            VmTrap::DivideByZero,
            VmTrap::BadLocal(4),
            VmTrap::BadJump(9),
            VmTrap::BadCall(2),
            VmTrap::Explicit(77),
            VmTrap::Host("host 'cb' returned None".into()),
        ];
        let m = || String::from("some text");
        let mut errors = vec![
            JaguarError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "gone")),
            JaguarError::Io(io::Error::other("odd")),
            JaguarError::Corruption(m()),
            JaguarError::Storage(m()),
            JaguarError::Catalog(m()),
            JaguarError::Parse(m()),
            JaguarError::Plan(m()),
            JaguarError::Execution(m()),
            JaguarError::Verification(m()),
            JaguarError::ResourceLimit(m()),
            JaguarError::SecurityViolation(m()),
            JaguarError::Worker(m()),
            JaguarError::Protocol(m()),
            JaguarError::Compile(m()),
            JaguarError::Udf(m()),
            JaguarError::Cancelled(m()),
            JaguarError::Timeout(m()),
            JaguarError::ServerBusy {
                retry_after_ms: 250,
            },
            JaguarError::Other(m()),
        ];
        errors.extend(traps.into_iter().map(JaguarError::VmTrap));
        let mut bytes = Vec::new();
        for e in &errors {
            e.write(&mut bytes).unwrap();
        }
        let mut r = bytes.as_slice();
        for e in &errors {
            let back = JaguarError::read(&mut r).unwrap();
            assert_eq!(back.to_string(), e.to_string());
            assert_eq!(format!("{back:?}"), format!("{e:?}"));
            assert_eq!(&back, e);
        }
        assert!(r.is_empty());
        // An OS error crosses with its kind and text.
        let os = JaguarError::Io(io::Error::from_raw_os_error(2));
        let mut one = Vec::new();
        os.write(&mut one).unwrap();
        let back = JaguarError::read(&mut one.as_slice()).unwrap();
        assert_eq!(back.to_string(), os.to_string());
        assert!(matches!(back, JaguarError::Io(e) if e.kind() == io::ErrorKind::NotFound));
        // An unknown class or trap: refused.
        let record = |class: u8, kind: u8, b: u64| {
            let mut bytes = vec![class, kind];
            bytes.extend([0; 8]);
            bytes.extend(b.to_le_bytes());
            bytes.extend([0; 4]);
            bytes
        };
        for bad in [record(99, 0, 0), record(8, 99, 0)] {
            let e = JaguarError::read(&mut bad.as_slice()).unwrap_err();
            assert!(matches!(e, JaguarError::Protocol(_)), "{e}");
        }
    }

    #[test]
    fn trap_displays() {
        assert_eq!(VmTrap::DivideByZero.to_string(), "integer divide by zero");
        assert_eq!(VmTrap::BadLocal(4).to_string(), "undefined local slot 4");
        assert_eq!(VmTrap::BadJump(9).to_string(), "jump target 9 out of range");
        assert_eq!(VmTrap::BadCall(2).to_string(), "unknown function index 2");
    }
}
