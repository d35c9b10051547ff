//! Span timers: measure a wall-clock region and record it into a
//! [`Histogram`] on drop.
//!
//! ```
//! let registry = jaguar_common::obs::Registry::new();
//! let hist = registry.histogram("demo.latency_us");
//! {
//!     let _span = jaguar_common::obs::SpanTimer::new(hist.clone());
//!     // ... timed work ...
//! }
//! assert_eq!(hist.snapshot().count, 1);
//! ```

use crate::obs::metrics::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Times the region from construction to drop and records the elapsed
/// microseconds into the histogram. Call [`SpanTimer::cancel`] to discard
/// the measurement (e.g. on an error path you don't want polluting the
/// latency distribution).
pub struct SpanTimer {
    start: Instant,
    hist: Option<Arc<Histogram>>,
}

impl SpanTimer {
    pub fn new(hist: Arc<Histogram>) -> SpanTimer {
        SpanTimer {
            start: Instant::now(),
            hist: Some(hist),
        }
    }

    /// Elapsed time so far, without ending the span.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Drop the span without recording anything.
    pub fn cancel(mut self) {
        self.hist = None;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.observe(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::Registry;

    #[test]
    fn records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t.span");
        {
            let _s = SpanTimer::new(h.clone());
        }
        {
            let s = SpanTimer::new(h.clone());
            assert!(s.elapsed().as_nanos() < u128::MAX);
        }
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn cancel_discards() {
        let r = Registry::new();
        let h = r.histogram("t.cancel");
        SpanTimer::new(h.clone()).cancel();
        assert_eq!(h.snapshot().count, 0);
    }
}
