//! Named fault-injection sites, shared by every layer.
//!
//! Generalises the WAL's crash-point machinery (PR 3) so any crate can
//! place a *fault site* — a named point where a test can ask for an
//! injected failure — without inventing its own plumbing. Two kinds:
//!
//! * **Crash points** ([`crash_point`]): the process dies abruptly
//!   (`abort()`, no destructors, no buffered-write flushing). Armed like
//!   any fault site, so a harness that re-execs itself as the victim arms
//!   the point in the child — with [`arm`], right before the doomed
//!   operation, or from the start with `JAGUAR_FAULT_SITES`.
//! * **Fault sites** ([`should_fail`]): the call site consults the
//!   injector and simulates its own failure (drop a connection, abort a
//!   reply, fail an fsync) while the test process keeps running.
//!
//! A site can be armed with four trigger shapes:
//!
//! | trigger        | programmatic                       | env grammar |
//! |----------------|------------------------------------|-------------|
//! | next N hits    | `arm(name, n)`                     | `name=3`    |
//! | every hit      | `arm(name, ALWAYS)`                | `name`      |
//! | probability p  | `arm_probabilistic(name, p, seed)` | —           |
//! | N hits after K | `arm_after(name, k, n)`            | —           |
//! | hold           | `arm_hold(name)`                   | —           |
//!
//! A fired site fails the one operation that consulted it ([`check`]
//! builds its error); nothing retries it. Counted arming fails that many
//! operations and then lets the next ones through; `ALWAYS` fails every
//! one until [`disarm`]; a held site fails nothing, but parks every hit
//! until then, holding one side of a race inside its window while a test
//! sets up the other. Probabilistic triggers draw from a seeded
//! [`SplitMix64`] stream so chaos runs stay reproducible.
//!
//! Cross-process arming uses `JAGUAR_FAULT_SITES=site.a,site.b=3` (comma-
//! separated entries in the env grammar above). In production nothing
//! is armed and both checks are one relaxed atomic load. Fault names are
//! dot-namespaced by crate and path, e.g. `ipc.worker.drop_mid_reply`,
//! `storage.disk.fsync`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use crate::obs;
use crate::rng::SplitMix64;

/// Environment variable arming fault sites (comma-separated entries:
/// `name` or `name=count`) — the cross-process equivalent of [`arm`].
pub const FAULT_SITES_ENV: &str = "JAGUAR_FAULT_SITES";

/// Sentinel count for "fire on every hit, never disarm".
pub const ALWAYS: u32 = u32::MAX;

/// Die here if this crash point is armed (as a fault site).
pub fn crash_point(name: &str) {
    if should_fail(name) {
        // abort(), not exit(): no atexit handlers, no Drop, no flush.
        eprintln!("jaguar fault: crash point '{name}' armed, aborting");
        std::process::abort();
    }
}

/// How an armed site decides whether a given hit fires.
#[derive(Debug, Clone)]
enum Trigger {
    /// Fire on the next `n` hits, then disarm ([`ALWAYS`] = forever).
    Count(u32),
    /// Fire each hit independently with probability `p`, drawing from a
    /// seeded deterministic stream.
    Probability { p: f64, rng: SplitMix64 },
    /// Let `skip` hits pass, then fire as `Count(count)`.
    After { skip: u32, count: u32 },
    /// Park every hit until the site is disarmed, then let it pass.
    Hold,
}

impl Trigger {
    fn fire(&mut self) -> bool {
        match self {
            Trigger::Count(0) => false,
            Trigger::Count(ALWAYS) => true,
            Trigger::Count(n) => {
                *n -= 1;
                true
            }
            Trigger::Probability { p, rng } => rng.next_f64() < *p,
            Trigger::After { skip: 0, count } => {
                *self = Trigger::Count(*count);
                self.fire()
            }
            Trigger::After { skip, .. } => {
                *skip -= 1;
                false
            }
            Trigger::Hold => false,
        }
    }
}

fn parse_entry(entry: &str) -> (String, Trigger) {
    let (name, trigger) = match entry.split_once('=') {
        Some((n, count)) => (n, Trigger::Count(count.parse().unwrap_or(1))),
        None => (entry, Trigger::Count(ALWAYS)),
    };
    (name.to_string(), trigger)
}

/// Fast-path flag: true iff *any* fault site is (or ever was) armed.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn sites() -> &'static Mutex<HashMap<String, Trigger>> {
    static SITES: OnceLock<Mutex<HashMap<String, Trigger>>> = OnceLock::new();
    SITES.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var(FAULT_SITES_ENV) {
            for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
                let (name, trigger) = parse_entry(entry);
                map.insert(name, trigger);
            }
        }
        if !map.is_empty() {
            ANY_ARMED.store(true, Ordering::Release);
        }
        Mutex::new(map)
    })
}

fn install(name: &str, trigger: Trigger) {
    sites().lock().unwrap().insert(name.to_string(), trigger);
    ANY_ARMED.store(true, Ordering::Release);
}

/// Arm a fault site for the next `count` hits ([`ALWAYS`] = every hit).
/// Test-only by convention; replaces any previous arming of the site.
pub fn arm(name: &str, count: u32) {
    install(name, Trigger::Count(count));
}

/// Arm a fault site to fire each hit independently with probability `p`
/// (clamped to `[0, 1]`), drawn from a [`SplitMix64`] stream seeded with
/// `seed` so chaos runs are reproducible.
pub fn arm_probabilistic(name: &str, p: f64, seed: u64) {
    install(
        name,
        Trigger::Probability {
            p: p.clamp(0.0, 1.0),
            rng: SplitMix64::new(seed),
        },
    );
}

/// Arm a fault site to let the next `skip` hits pass, then fire as
/// [`arm`] with `count` — so a test can fail the k-th of a sequence of
/// hits on one site.
pub fn arm_after(name: &str, skip: u32, count: u32) {
    install(name, Trigger::After { skip, count });
}

/// Arm a fault site to park every thread that hits it until [`disarm`].
pub fn arm_hold(name: &str) {
    install(name, Trigger::Hold);
}

/// Signalled by [`disarm`], waking the threads a held site parked.
static DISARMED: Condvar = Condvar::new();

/// Disarm a fault site (a no-op if it was not armed).
pub fn disarm(name: &str) {
    sites().lock().unwrap().remove(name);
    DISARMED.notify_all();
}

/// Should this hit of the named site inject its failure?
///
/// Consults the site's trigger (counting down or rolling the probability
/// die) and records a `fault.injected` metric when firing. Unarmed sites
/// — the production case — cost one relaxed atomic load.
pub fn should_fail(name: &str) -> bool {
    // The env var is only scanned inside `sites()`; force that scan once
    // so a child process armed purely via [`FAULT_SITES_ENV`] (no in-
    // process `arm` call) still sees `ANY_ARMED` flip before the fast
    // path consults it.
    static ENV_SCANNED: std::sync::Once = std::sync::Once::new();
    ENV_SCANNED.call_once(|| {
        let _ = sites();
    });
    if !ANY_ARMED.load(Ordering::Acquire) {
        return false;
    }
    let mut map = sites().lock().unwrap();
    while let Some(Trigger::Hold) = map.get(name) {
        map = DISARMED.wait(map).unwrap();
    }
    let fire = match map.get_mut(name) {
        None => false,
        Some(t) => t.fire(),
    };
    drop(map);
    if fire {
        obs::global().counter("fault.injected").inc();
        obs::warn!(target: "jaguar-fault", "injecting fault at site '{name}'");
    }
    fire
}

/// Fail with the site's injected I/O error if this hit of `name` fires:
/// `injected fault at {name}`, the one error every storage fault site
/// returns in place of its operation.
pub fn check(name: &str) -> std::io::Result<()> {
    if should_fail(name) {
        return Err(std::io::Error::other(format!("injected fault at {name}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global site map; keep them in one test
    // so they cannot interleave.
    #[test]
    fn arm_fire_disarm_lifecycle() {
        // Unarmed: never fires.
        assert!(!should_fail("test.site.never"));

        // Counted arming fires exactly N times.
        arm("test.site.twice", 2);
        assert!(should_fail("test.site.twice"));
        assert!(should_fail("test.site.twice"));
        assert!(!should_fail("test.site.twice"));

        // ALWAYS keeps firing until disarmed.
        arm("test.site.always", ALWAYS);
        for _ in 0..10 {
            assert!(should_fail("test.site.always"));
        }
        disarm("test.site.always");
        assert!(!should_fail("test.site.always"));

        // Arming one site does not fire others.
        arm("test.site.a", 1);
        assert!(!should_fail("test.site.b"));
        disarm("test.site.a");
    }

    #[test]
    fn after_trigger_skips_then_counts() {
        arm_after("test.site.after", 2, 1);
        let fired: Vec<bool> = (0..5).map(|_| should_fail("test.site.after")).collect();
        assert_eq!(fired, [false, false, true, false, false]);
        disarm("test.site.after");
    }

    #[test]
    fn probabilistic_trigger_is_seeded_and_proportional() {
        // Same seed => same firing pattern (reproducible chaos).
        arm_probabilistic("test.site.prob", 0.5, 42);
        let a: Vec<bool> = (0..64).map(|_| should_fail("test.site.prob")).collect();
        arm_probabilistic("test.site.prob", 0.5, 42);
        let b: Vec<bool> = (0..64).map(|_| should_fail("test.site.prob")).collect();
        assert_eq!(a, b);
        // Roughly half fire (loose bound; the stream is deterministic so
        // this can never flake).
        let hits = a.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&hits), "p=0.5 fired {hits}/64");
        // Edge probabilities clamp to never/always.
        arm_probabilistic("test.site.prob", 0.0, 1);
        assert!(!should_fail("test.site.prob"));
        arm_probabilistic("test.site.prob", 1.5, 1);
        assert!(should_fail("test.site.prob"));
        disarm("test.site.prob");
    }

    #[test]
    fn env_grammar_parses_all_trigger_shapes() {
        let (n, t) = parse_entry("a.site");
        assert_eq!(n, "a.site");
        assert!(matches!(t, Trigger::Count(ALWAYS)));
        let (_, t) = parse_entry("a.site=3");
        assert!(matches!(t, Trigger::Count(3)));
    }

    #[test]
    fn a_held_site_parks_its_thread_until_disarmed() {
        arm_hold("test.site.held");
        let (arrived, reached) = std::sync::mpsc::channel();
        let parked = std::thread::spawn(move || {
            arrived.send(should_fail("test.site.other")).unwrap();
            should_fail("test.site.held")
        });
        assert!(!reached.recv().unwrap(), "another site passes");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!parked.is_finished(), "parked until disarmed");
        disarm("test.site.held");
        assert!(!parked.join().unwrap(), "a held hit fails nothing");
    }

    #[test]
    fn unarmed_crash_point_is_a_noop() {
        // Nothing arms this point; surviving this call is the assertion.
        crash_point("not.a.point");
    }
}
