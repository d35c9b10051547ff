//! The logging facade.
//!
//! Shaped like the conventional Rust `log` crate (levels, targets, a
//! process-wide sink) but dependency-free and deliberately small. Call
//! sites use the [`error!`](crate::obs::error), [`warn!`](crate::obs::warn),
//! [`info!`](crate::obs::info), [`debug!`](crate::obs::debug), and
//! [`trace!`](crate::obs::trace) macros; the level check happens before any
//! formatting, so disabled records cost one relaxed atomic load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One log event, borrowed for the duration of the sink call.
pub struct Record<'a> {
    pub level: Level,
    /// Subsystem the record came from (e.g. `"jaguar-net"`).
    pub target: &'a str,
    pub args: std::fmt::Arguments<'a>,
}

/// Where records go. Implementations must be cheap and non-blocking-ish:
/// sinks are called inline on engine threads.
pub trait LogSink: Send + Sync {
    fn log(&self, record: &Record<'_>);
}

/// The default sink: one line per record on stderr.
pub struct StderrSink;

impl LogSink for StderrSink {
    fn log(&self, record: &Record<'_>) {
        eprintln!("[{} {}] {}", record.level, record.target, record.args);
    }
}

/// A sink that buffers rendered records in memory — the test capture
/// requested by the facade's consumers.
///
/// ```
/// use jaguar_common::obs::CaptureSink;
/// let capture = CaptureSink::install();
/// jaguar_common::obs::warn!(target: "demo", "something {}", "odd");
/// assert!(capture.rendered().iter().any(|l| l.contains("something odd")));
/// ```
#[derive(Default)]
pub struct CaptureSink {
    lines: Mutex<Vec<String>>,
}

impl CaptureSink {
    /// Create a capture sink and install it as the process sink, returning
    /// a handle for assertions. Also raises the max level to `Trace` so
    /// nothing is filtered away from the capture.
    pub fn install() -> std::sync::Arc<CaptureSink> {
        let sink = std::sync::Arc::new(CaptureSink::default());
        set_max_level(Level::Trace);
        set_sink_arc(sink.clone());
        sink
    }

    /// Rendered `LEVEL target: message` lines captured so far.
    pub fn rendered(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Discard captured lines.
    pub fn clear(&self) {
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

impl LogSink for CaptureSink {
    fn log(&self, record: &Record<'_>) {
        self.lines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(format!(
                "{} {}: {}",
                record.level, record.target, record.args
            ));
    }
}

static MAX_LEVEL: AtomicUsize = AtomicUsize::new(Level::Info as usize);

fn sink_slot() -> &'static RwLock<std::sync::Arc<dyn LogSink>> {
    static SINK: OnceLock<RwLock<std::sync::Arc<dyn LogSink>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(std::sync::Arc::new(StderrSink)))
}

/// Replace the process-wide sink.
pub fn set_sink(sink: impl LogSink + 'static) {
    set_sink_arc(std::sync::Arc::new(sink));
}

/// Replace the process-wide sink with a shared handle.
pub fn set_sink_arc(sink: std::sync::Arc<dyn LogSink>) {
    *sink_slot().write().unwrap_or_else(|p| p.into_inner()) = sink;
}

/// Set the maximum level that will be emitted (default: [`Level::Info`]).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as usize, Ordering::Relaxed);
}

/// Is `level` currently enabled? Call sites use this through the macros to
/// skip formatting entirely for disabled records.
#[inline]
pub fn enabled(level: Level) -> bool {
    (level as usize) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Dispatch one record to the sink. Prefer the macros, which do the level
/// check first.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let record = Record {
        level,
        target,
        args,
    };
    sink_slot()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .log(&record);
}

/// One record at `$level` (a [`Level`] variant), with the call site's
/// module path as the target unless `target: "..."` comes first. The
/// level macros expand to this. Every macro here is exported at the crate
/// root under a hidden name and re-exported as `obs::error!` … `obs::trace!`.
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_log {
    ($level:ident, target: $target:expr, $($arg:tt)+) => {
        if $crate::obs::log::enabled($crate::obs::Level::$level) {
            $crate::obs::log::log($crate::obs::Level::$level, $target, format_args!($($arg)+));
        }
    };
    ($level:ident, $($arg:tt)+) => {
        $crate::__obs_log!($level, target: module_path!(), $($arg)+)
    };
}

/// Log at ERROR level (optionally `target: "..."` first).
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_error {
    ($($arg:tt)+) => { $crate::__obs_log!(Error, $($arg)+) };
}

/// Log at WARN level (optionally `target: "..."` first).
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_warn {
    ($($arg:tt)+) => { $crate::__obs_log!(Warn, $($arg)+) };
}

/// Log at INFO level (optionally `target: "..."` first).
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_info {
    ($($arg:tt)+) => { $crate::__obs_log!(Info, $($arg)+) };
}

/// Log at DEBUG level (optionally `target: "..."` first).
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_debug {
    ($($arg:tt)+) => { $crate::__obs_log!(Debug, $($arg)+) };
}

/// Log at TRACE level (optionally `target: "..."` first).
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_trace {
    ($($arg:tt)+) => { $crate::__obs_log!(Trace, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{info, trace, warn};

    /// The sink and max level are process globals; tests that install a
    /// capture sink must not run concurrently with each other.
    static SINK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn levels_order() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::Warn.as_str(), "WARN");
    }

    #[test]
    fn capture_sink_records_and_filters() {
        let _guard = SINK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let capture = CaptureSink::install();
        info!(target: "t1", "hello {}", 42);
        trace!(target: "t2", "fine-grained");
        let lines = capture.rendered();
        assert!(lines.iter().any(|l| l == "INFO t1: hello 42"), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("fine-grained")));

        capture.clear();
        set_max_level(Level::Warn);
        info!(target: "t1", "suppressed");
        warn!(target: "t1", "kept");
        let lines = capture.rendered();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("kept"));
        set_max_level(Level::Info);
    }

    #[test]
    fn default_target_is_module_path() {
        let _guard = SINK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let capture = CaptureSink::install();
        warn!("no explicit target");
        assert!(capture
            .rendered()
            .iter()
            .any(|l| l.contains("jaguar_common::obs::log::tests")));
        set_max_level(Level::Info);
    }
}
