//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! One shared [`RetryPolicy`] so both layers that retry — the network
//! client on [`JaguarError::ServerBusy`] and connect timeouts, the IPC
//! layer on transient worker-spawn/checkout failures — back off the same
//! way and report through the same `retry.*` metrics.
//!
//! Jitter is *deterministic*: it is derived with [`SplitMix64`] from the
//! policy seed, the site name, and the attempt number, never from a
//! wall-clock or OS entropy source. Two runs of the same workload
//! therefore sleep the same schedule, which keeps the chaos tests and
//! BENCH artifacts reproducible while still decorrelating concurrent
//! retriers (each site hashes differently).
//!
//! Classification: only *pre-execution* infrastructure failures (queue
//! shed, connect timeout, worker spawn/checkout) are transient. A failure
//! *inside* a UDF invocation — worker crash mid-call, deadline kill — is
//! never retried here: UDF code already ran, and the failure belongs to
//! the statement that called it, which fails with that error. Storage
//! I/O is not retried at all: a failed log append or sync stops the log
//! (`jaguar_wal::Wal`), and std already re-drives `EINTR`.

use std::io;
use std::time::Duration;

use crate::error::{JaguarError, Result};
use crate::obs;
use crate::rng::SplitMix64;

/// Bounded exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, *including* the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff sleep.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
            seed: 0x6A61_6775, // "jagu"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, no sleeping.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            seed: 0,
        }
    }

    /// Backoff before retry number `attempt` (1-based: the sleep taken
    /// after the `attempt`-th failure). Exponential with full jitter in
    /// `[half, full]`, capped at `max_delay_ms`, deterministic per
    /// `(seed, site, attempt)`.
    pub fn delay(&self, site: &str, attempt: u32) -> Duration {
        if self.base_delay_ms == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.max_delay_ms.max(self.base_delay_ms));
        let mut rng = SplitMix64::new(self.seed ^ hash_site(site) ^ u64::from(attempt));
        let half = exp / 2;
        let jitter = rng.next_below(exp - half + 1);
        Duration::from_millis(half + jitter)
    }

    /// Run `op` up to `max_attempts` times, sleeping the jittered backoff
    /// between attempts. An error is retried only while `transient(&err)`
    /// says so; the last error is returned once attempts are exhausted.
    ///
    /// `site` names the call site for metrics (`retry.attempts`,
    /// `retry.exhausted`) and log lines; it also decorrelates the jitter.
    pub fn run<T>(
        &self,
        site: &str,
        transient: impl Fn(&JaguarError) -> bool,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        self.run_with_hint(site, transient, |_| None, &mut op)
    }

    /// Like [`run`](Self::run), but lets the caller stretch the backoff
    /// using a hint carried in the error — the server's
    /// `ServerBusy { retry_after_ms }` is honoured as a floor on the
    /// sleep, so a polite client never hammers a shedding server faster
    /// than it asked to be retried.
    pub fn run_with_hint<T>(
        &self,
        site: &str,
        transient: impl Fn(&JaguarError) -> bool,
        hint_ms: impl Fn(&JaguarError) -> Option<u64>,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let reg = obs::global();
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < attempts && transient(&e) => {
                    reg.counter("retry.attempts").inc();
                    let mut delay = self.delay(site, attempt);
                    if let Some(floor) = hint_ms(&e) {
                        delay = delay.max(Duration::from_millis(floor));
                    }
                    obs::debug!(
                        target: "jaguar-retry",
                        "transient failure at {site} (attempt {attempt}/{attempts}): {e}; \
                         backing off {delay:?}"
                    );
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                Err(e) => {
                    if attempt >= attempts && transient(&e) {
                        reg.counter("retry.exhausted").inc();
                        obs::warn!(
                            target: "jaguar-retry",
                            "retries exhausted at {site} after {attempt} attempts: {e}"
                        );
                    }
                    return Err(e);
                }
            }
        }
    }
}

fn hash_site(site: &str) -> u64 {
    // FNV-1a: stable across platforms, good enough to decorrelate sites.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// Is this an I/O error a second attempt could plausibly fix?
pub fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// Client-side classifier: queue shed ([`JaguarError::ServerBusy`]) and
/// connection-level I/O hiccups are retryable; everything else — parse
/// errors, execution failures, cancellation — is final.
pub fn is_retryable_net(e: &JaguarError) -> bool {
    match e {
        JaguarError::ServerBusy { .. } => true,
        JaguarError::Io(io) => is_transient_io(io),
        _ => false,
    }
}

/// IPC-side classifier for *acquiring* a worker (pool checkout or process
/// spawn) — failures strictly before any UDF code runs. Invocation
/// failures (worker crash, deadline kill) are deliberately excluded:
/// they fail their statement, and retrying them here would run the
/// failing UDF code again behind the caller's back.
pub fn is_transient_worker_acquire(e: &JaguarError) -> bool {
    match e {
        JaguarError::Worker(m) => m.starts_with("spawning"),
        JaguarError::Io(io) => is_transient_io(io),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn delays_are_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=6 {
            let a = p.delay("site.a", attempt);
            let b = p.delay("site.a", attempt);
            assert_eq!(a, b, "same (seed, site, attempt) => same delay");
            assert!(a.as_millis() as u64 <= p.max_delay_ms);
        }
        // Different sites decorrelate.
        assert_ne!(p.delay("site.a", 1), p.delay("site.b", 1));
        // Zero base => zero sleep.
        assert_eq!(RetryPolicy::none().delay("x", 3), Duration::ZERO);
    }

    #[test]
    fn run_retries_transient_until_success() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 0,
            ..RetryPolicy::default()
        };
        let calls = AtomicU32::new(0);
        let out = p.run(
            "test.retry",
            |_| true,
            || {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(JaguarError::ServerBusy { retry_after_ms: 0 })
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_does_not_retry_permanent_errors() {
        let p = RetryPolicy::default();
        let calls = AtomicU32::new(0);
        let out: Result<()> = p.run("test.permanent", is_retryable_net, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(JaguarError::Parse("nope".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1, "permanent => one attempt");
    }

    #[test]
    fn run_exhausts_after_max_attempts() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 0,
            ..RetryPolicy::default()
        };
        let calls = AtomicU32::new(0);
        let out: Result<()> = p.run(
            "test.exhaust",
            |_| true,
            || {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(JaguarError::ServerBusy { retry_after_ms: 0 })
            },
        );
        assert!(matches!(out, Err(JaguarError::ServerBusy { .. })));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn classifiers_retry_only_before_udf_code_runs() {
        // Acquisition failures are transient …
        assert!(is_transient_worker_acquire(&JaguarError::Worker(
            "spawning \"/bin/worker\": text file busy".into()
        )));
        // … invocation failures are NOT: they fail their statement.
        assert!(!is_transient_worker_acquire(&JaguarError::Worker(
            "worker died mid-invoke".into()
        )));
        assert!(!is_transient_worker_acquire(&JaguarError::Timeout(
            "invoke deadline".into()
        )));

        // Net: busy and timed-out connects retry; execution errors do not.
        assert!(is_retryable_net(&JaguarError::ServerBusy {
            retry_after_ms: 5
        }));
        assert!(is_retryable_net(&JaguarError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "connect"
        ))));
        assert!(!is_retryable_net(&JaguarError::Execution("boom".into())));
        assert!(!is_retryable_net(&JaguarError::Cancelled("c".into())));
    }

    #[test]
    fn busy_hint_floors_the_backoff() {
        let p = RetryPolicy {
            max_attempts: 2,
            base_delay_ms: 1,
            max_delay_ms: 1,
            ..RetryPolicy::default()
        };
        let calls = AtomicU32::new(0);
        let t0 = std::time::Instant::now();
        let out = p.run_with_hint(
            "test.hint",
            is_retryable_net,
            |e| match e {
                JaguarError::ServerBusy { retry_after_ms } => Some(*retry_after_ms),
                _ => None,
            },
            || {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(JaguarError::ServerBusy { retry_after_ms: 30 })
                } else {
                    Ok(())
                }
            },
        );
        assert!(out.is_ok());
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "retry_after_ms is a floor on the backoff sleep"
        );
    }
}
