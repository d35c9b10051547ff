//! Statement-scoped cancellation and deadlines.
//!
//! A [`CancelToken`] is the engine-wide query lifecycle handle: one is
//! created per statement and threaded through the executor, the VM
//! interpreter, and the isolated-worker invocation path. It combines a
//! manual cancel flag (set by `Client::cancel()` or the server on
//! connection teardown) with an optional absolute deadline
//! (`Config::statement_timeout_ms`). Cancellation is *cooperative*: each
//! layer polls [`CancelToken::check`] at its own natural cadence — every
//! N rows in the executor, every K instructions in the VM, before
//! every pooled worker invoke — so a wedged UDF is abandoned at the next
//! checkpoint rather than preempted.
//!
//! Tokens are cheap to clone (one `Arc`); clones share the flag, so
//! cancelling any clone cancels them all. The fast path of
//! [`CancelToken::is_cancelled`] is a single relaxed atomic load; deadline
//! arithmetic only happens when a deadline was actually set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{JaguarError, Result};

struct Inner {
    cancelled: AtomicBool,
    /// Absolute point after which [`CancelToken::check`] fails with
    /// [`JaguarError::Timeout`]. `None` = no statement deadline.
    deadline: Option<Instant>,
}

/// Shared cancel-flag + optional absolute deadline for one statement.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unbounded()
    }
}

impl CancelToken {
    /// A token that never expires on its own; only [`CancelToken::cancel`]
    /// can trip it. This is the default for embedded use with no
    /// statement timeout configured.
    pub fn unbounded() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that expires `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Build from a `Config::statement_timeout_ms`-style knob: `None` or
    /// `Some(0)` means no deadline.
    pub fn from_timeout_ms(ms: Option<u64>) -> CancelToken {
        match ms {
            Some(ms) if ms > 0 => CancelToken::with_deadline(Duration::from_millis(ms)),
            _ => CancelToken::unbounded(),
        }
    }

    /// Trip the cancel flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called (on any clone)?
    /// Does *not* consult the deadline — use [`CancelToken::check`] for
    /// the combined verdict.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Has the deadline passed? Always `false` for unbounded tokens.
    pub fn deadline_exceeded(&self) -> bool {
        match self.inner.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Time left until the deadline (`None` = unbounded). Returns
    /// `Some(Duration::ZERO)` once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The cooperative checkpoint: `Err(Cancelled)` if the flag is set,
    /// `Err(Timeout)` if the deadline has passed, `Ok(())` otherwise.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(JaguarError::Cancelled("query cancelled".into()));
        }
        if self.deadline_exceeded() {
            return Err(JaguarError::Timeout("statement deadline exceeded".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips_on_its_own() {
        let t = CancelToken::unbounded();
        assert!(!t.is_cancelled());
        assert!(!t.deadline_exceeded());
        assert_eq!(t.remaining(), None);
        t.check().unwrap();
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::unbounded();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(JaguarError::Cancelled(_))));
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        // A zero budget is already expired.
        assert!(t.deadline_exceeded());
        assert!(matches!(t.check(), Err(JaguarError::Timeout(_))));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_takes_priority_over_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        t.cancel();
        assert!(matches!(t.check(), Err(JaguarError::Cancelled(_))));
    }

    #[test]
    fn from_timeout_ms_semantics() {
        assert_eq!(CancelToken::from_timeout_ms(None).remaining(), None);
        assert_eq!(CancelToken::from_timeout_ms(Some(0)).remaining(), None);
        let t = CancelToken::from_timeout_ms(Some(60_000));
        let left = t.remaining().unwrap();
        assert!(left > Duration::from_secs(50), "{left:?}");
        t.check().unwrap();
    }
}
