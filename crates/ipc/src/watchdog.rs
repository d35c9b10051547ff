//! The deadline watchdog: one process-wide thread that kills a worker whose
//! round trip outlives its deadline.
//!
//! A thread blocked on a worker's pipe cannot time itself out, so every
//! guarded round trip ([`WorkerProcess::guarded`]) arms an entry here
//! first: a deadline, a [`WorkerKillHandle`] and a fired flag. When an
//! entry expires the watchdog sets its flag and *then* kills the worker, in
//! that order, so the blocked reader, woken by the EOF, finds the flag set
//! when it disarms and blames the EOF on the deadline rather than a crash.
//!
//! The thread starts on the first arm and sleeps until the earliest armed
//! deadline. Arming takes the one mutex and wakes the thread only when the
//! new deadline is earlier than the one it sleeps towards; disarming takes
//! the mutex and never wakes it.
//!
//! [`WorkerProcess::guarded`]: crate::WorkerProcess::guarded

use std::sync::{Condvar, Mutex, MutexGuard, Once};
use std::time::Instant;

use crate::executor::WorkerKillHandle;

struct Entry {
    id: u64,
    at: Instant,
    kill: WorkerKillHandle,
    fired: bool,
}

struct Armed {
    entries: Vec<Entry>,
    next_id: u64,
    /// The deadline the thread last went to sleep towards (`None`: no
    /// entry). An arm no earlier needs no wake-up: the thread wakes by
    /// then, or is awake and scans `entries` before it sleeps again.
    sleeping_until: Option<Instant>,
}

static ARMED: Mutex<Armed> = Mutex::new(Armed {
    entries: Vec::new(),
    next_id: 0,
    sleeping_until: None,
});
static WAKE: Condvar = Condvar::new();
static START: Once = Once::new();

fn lock() -> MutexGuard<'static, Armed> {
    ARMED.lock().unwrap_or_else(|p| p.into_inner())
}

/// One armed deadline. [`Deadline::disarm`] ends it and says whether it
/// fired; dropping it unfired (a panicking round trip) disarms it too, so
/// no stale entry can later kill a worker that went back to a pool.
pub(crate) struct Deadline(u64);

impl Deadline {
    /// Kill the worker behind `kill` at `at` unless disarmed first.
    pub(crate) fn arm(at: Instant, kill: WorkerKillHandle) -> Deadline {
        START.call_once(|| {
            std::thread::Builder::new()
                .name("jaguar-ipc-watchdog".into())
                .spawn(watch)
                .expect("spawning the worker deadline watchdog");
        });
        let mut armed = lock();
        let id = armed.next_id;
        armed.next_id += 1;
        armed.entries.push(Entry {
            id,
            at,
            kill,
            fired: false,
        });
        let earliest = armed.sleeping_until.is_none_or(|t| at < t);
        drop(armed);
        if earliest {
            WAKE.notify_one();
        }
        Deadline(id)
    }

    /// Remove the entry; true iff the watchdog fired it (and so killed,
    /// or is about to kill, the worker).
    pub(crate) fn disarm(self) -> bool {
        let id = self.0;
        std::mem::forget(self);
        remove(id)
    }
}

impl Drop for Deadline {
    fn drop(&mut self) {
        remove(self.0);
    }
}

fn remove(id: u64) -> bool {
    let mut armed = lock();
    match armed.entries.iter().position(|e| e.id == id) {
        Some(i) => armed.entries.swap_remove(i).fired,
        None => false,
    }
}

/// The watchdog thread: fire every expired entry, then sleep until the
/// earliest unfired one (or the next arm).
fn watch() {
    let mut armed = lock();
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        let mut next: Option<Instant> = None;
        for e in armed.entries.iter_mut().filter(|e| !e.fired) {
            if e.at <= now {
                // The flag first, under the lock; the kill below.
                e.fired = true;
                due.push(e.kill.clone());
            } else if next.is_none_or(|t| e.at < t) {
                next = Some(e.at);
            }
        }
        if !due.is_empty() {
            drop(armed);
            for kill in due {
                kill.kill();
            }
            armed = lock();
            continue;
        }
        armed.sleeping_until = next;
        armed = match next {
            Some(t) => {
                WAKE.wait_timeout(armed, t - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0
            }
            None => WAKE.wait(armed).unwrap_or_else(|p| p.into_inner()),
        };
    }
}
