//! Bounded, deadline-aware admission control for data-plane sessions.
//!
//! PR 2's overload story was binary: connection number `max_connections+1`
//! got an error and a closed socket, even if every admitted session was
//! idle. The [`AdmissionGate`] replaces that with a three-stage model:
//!
//! 1. **Admit** — up to `max_connections` sessions hold a [`Permit`] and
//!    execute freely (the permit spans the connection's data-plane
//!    lifetime, so one session's statements never re-queue mid-stream).
//! 2. **Queue** — up to `admission_queue_depth` further sessions wait in
//!    strict FIFO order, each bounded by `admission_timeout_ms`.
//! 3. **Shed** — a session arriving to a full queue, or whose wait
//!    expires, receives a retryable `ServerBusy { retry_after_ms }`
//!    instead of an opaque error: the statement never started, so the
//!    client may simply try again after the hinted backoff.
//!
//! The control plane (Cancel, Metrics, Ping) never consults the gate:
//! a saturated server can still be cancelled and observed — under PR 2's
//! connection-count gating, the out-of-band cancel connection itself
//! could be refused exactly when it was needed most.
//!
//! Admission only queues and sheds: it never reaches into the planner.
//! A statement's plan depends on its text, the catalog and `Config`,
//! never on how many other sessions are connected.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use jaguar_common::obs;

/// Why a session was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The queue was already at `admission_queue_depth`.
    QueueFull,
    /// The session queued but `admission_timeout_ms` expired first.
    DeadlineExpired,
    /// The server is stopping; queued sessions are drained with clean
    /// refusals instead of being left to hit read timeouts.
    Closed,
}

struct GateInner {
    active: usize,
    /// FIFO tickets of waiting sessions, front = next to admit.
    queue: VecDeque<u64>,
    next_ticket: u64,
    closed: bool,
}

/// See the module docs. One gate per [`crate::Server`].
pub struct AdmissionGate {
    capacity: usize,
    depth: usize,
    timeout: Duration,
    inner: Mutex<GateInner>,
    cv: Condvar,
}

impl AdmissionGate {
    pub fn new(capacity: usize, depth: usize, timeout: Duration) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            capacity: capacity.max(1),
            depth,
            timeout,
            inner: Mutex::new(GateInner {
                active: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Admission slots (the old `max_connections`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The server's backoff hint for shed sessions. The admission timeout
    /// bounds how long the queue takes to drain one stage, so it doubles
    /// as the "worth retrying after" estimate.
    pub fn retry_after_ms(&self) -> u64 {
        (self.timeout.as_millis() as u64).max(1)
    }

    /// Block until admitted (FIFO), shed, or the gate closes.
    pub fn acquire(self: &Arc<Self>) -> Result<Permit, Shed> {
        let reg = obs::global();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.closed {
            return Err(Shed::Closed);
        }
        // Fast path: a free slot and nobody queued ahead of us.
        if inner.active < self.capacity && inner.queue.is_empty() {
            inner.active += 1;
            drop(inner);
            return Ok(Permit {
                gate: Arc::clone(self),
            });
        }
        // Full queue: shed immediately — bounded memory, bounded latency.
        if inner.queue.len() >= self.depth {
            reg.counter("net.admission.shed").inc();
            reg.counter("net.rejected_busy").inc();
            return Err(Shed::QueueFull);
        }
        // Queue in FIFO order, bounded by the admission deadline.
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.queue.push_back(ticket);
        reg.counter("net.admission.queued").inc();
        let enqueued = Instant::now();
        let deadline = enqueued + self.timeout;
        loop {
            if inner.closed {
                inner.queue.retain(|&t| t != ticket);
                self.cv.notify_all();
                return Err(Shed::Closed);
            }
            if inner.queue.front() == Some(&ticket) && inner.active < self.capacity {
                inner.queue.pop_front();
                inner.active += 1;
                reg.histogram("net.admission.wait_us")
                    .observe(enqueued.elapsed());
                // Another slot may be free too (capacity can grow by
                // several releases between wakeups): pass the baton.
                self.cv.notify_all();
                drop(inner);
                return Ok(Permit {
                    gate: Arc::clone(self),
                });
            }
            let now = Instant::now();
            if now >= deadline {
                inner.queue.retain(|&t| t != ticket);
                reg.counter("net.admission.shed").inc();
                reg.counter("net.rejected_busy").inc();
                reg.histogram("net.admission.wait_us")
                    .observe(enqueued.elapsed());
                // Our departure may make a successor the new front.
                self.cv.notify_all();
                return Err(Shed::DeadlineExpired);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
    }

    /// Close the gate: every queued session wakes and is shed with
    /// [`Shed::Closed`]; future acquires shed immediately. Called by
    /// `Server::stop` *before* joining client threads so queued clients
    /// get a clean `ServerBusy` instead of a read timeout.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.closed = true;
        self.cv.notify_all();
    }

    /// Sessions currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queue
            .len()
    }

    fn release(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.active = inner.active.saturating_sub(1);
        drop(inner);
        self.cv.notify_all();
    }
}

/// An admitted data-plane session. Dropping it frees the slot and wakes
/// the queue.
pub struct Permit {
    gate: Arc<AdmissionGate>,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").finish_non_exhaustive()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(capacity: usize, depth: usize, timeout_ms: u64) -> Arc<AdmissionGate> {
        AdmissionGate::new(capacity, depth, Duration::from_millis(timeout_ms))
    }

    #[test]
    fn admits_up_to_capacity_without_queueing() {
        let g = gate(2, 4, 50);
        let a = g.acquire().unwrap();
        let b = g.acquire().unwrap();
        assert_eq!(g.queued(), 0);
        drop(a);
        drop(b);
    }

    #[test]
    fn sheds_immediately_when_queue_is_full() {
        let g = gate(1, 0, 50);
        let _p = g.acquire().unwrap();
        // depth 0: no queueing at all — the shed must be immediate, not
        // after the admission timeout.
        let t0 = Instant::now();
        assert_eq!(g.acquire().unwrap_err(), Shed::QueueFull);
        assert!(t0.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn queued_session_admitted_when_slot_frees() {
        let g = gate(1, 2, 5_000);
        let p = g.acquire().unwrap();
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || g2.acquire().map(drop));
        // Let the waiter enqueue, then free the slot.
        while g.queued() == 0 {
            std::thread::yield_now();
        }
        drop(p);
        waiter.join().unwrap().expect("queued session admitted");
    }

    #[test]
    fn wait_is_bounded_by_the_admission_deadline() {
        let g = gate(1, 2, 30);
        let _p = g.acquire().unwrap();
        let t0 = Instant::now();
        assert_eq!(g.acquire().unwrap_err(), Shed::DeadlineExpired);
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(30));
        assert!(waited < Duration::from_millis(1_000), "bounded shed");
    }

    #[test]
    fn admission_is_fifo() {
        let g = gate(1, 8, 5_000);
        let p = g.acquire().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..4 {
            // Start waiters one at a time so their queue order is exactly
            // 0, 1, 2, 3.
            let before = g.queued();
            let g2 = Arc::clone(&g);
            let order2 = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = g2.acquire().unwrap();
                order2.lock().unwrap().push(i);
                drop(permit); // hands the slot to the next in line
            }));
            while g.queued() == before {
                std::thread::yield_now();
            }
        }
        drop(p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn close_drains_the_queue_immediately() {
        let g = gate(1, 4, 60_000);
        let _p = g.acquire().unwrap();
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || g2.acquire().err());
        while g.queued() == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        g.close();
        assert_eq!(waiter.join().unwrap(), Some(Shed::Closed));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "close wakes queued sessions without waiting out their deadline"
        );
        assert_eq!(g.queued(), 0);
        // New arrivals also shed cleanly.
        assert_eq!(g.acquire().unwrap_err(), Shed::Closed);
    }
}
