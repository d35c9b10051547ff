//! The engine-wide observability kernel.
//!
//! The source paper's whole argument is quantitative (its Figures 4–8 are
//! per-backend cost breakdowns), yet an engine can only be *optimized* for
//! those costs if it can report them about itself at runtime. This module
//! is the zero-dependency substrate every Jaguar crate leans on for that:
//!
//! * [`log`] — a tiny logging facade: levels, targets, a pluggable
//!   process-wide sink (stderr by default), and a capture sink for tests.
//!   No formatting happens when the record would be discarded.
//! * [`metrics`] — a process-wide registry of named atomic counters,
//!   gauges, and fixed-bucket latency histograms. Lock-free on the hot
//!   path: callers resolve a name to an `Arc` handle once and then only
//!   touch atomics.
//! * [`span`] — lightweight span timers that record a wall-clock duration
//!   into a histogram when dropped.
//!
//! Everything here is `std`-only by design: the observability layer must
//! never be the reason a build grows a dependency, and it must be usable
//! from the innermost crates.

pub mod log;
pub mod metrics;
pub mod span;

pub use log::{
    set_max_level, set_sink, set_sink_arc, CaptureSink, Level, LogSink, Record, StderrSink,
};
pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use span::SpanTimer;

pub use crate::{
    __obs_debug as debug, __obs_error as error, __obs_info as info, __obs_trace as trace,
    __obs_warn as warn,
};
