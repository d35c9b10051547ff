//! Fault injection for crash-recovery testing.
//!
//! The generic machinery — named crash points and in-process fault sites —
//! lives in [`jaguar_common::fault`] (it grew out of this module and is now
//! shared by `ipc` and `net` chaos tests). This module keeps the
//! WAL-specific pieces: the canonical crash-point list the recovery harness
//! iterates, and torn-tail simulation. Both are fault sites; a victim
//! process arms one right before its doomed commit:
//!
//! ```text
//! arm("wal.before_commit", 1)  → abort() when that point is hit
//! arm(TORN_TAIL_SITE, 1)       → the next commit record is half-written
//!                                (then abort), simulating a torn sector
//!                                on the log tail
//! ```
//!
//! In production nothing is armed and every check is one relaxed atomic
//! load.

pub use jaguar_common::fault::{arm, check, crash_point};

/// Fault site arming torn-tail simulation on the next commit.
pub const TORN_TAIL_SITE: &str = "wal.torn_tail";

/// Every named crash point in the commit path, in execution order. The
/// crash-recovery harness iterates this list; keep it in sync with the
/// `crash_point` call sites.
pub const CRASH_POINTS: &[&str] = &[
    // After the Begin record is appended, before any page record.
    "wal.after_begin",
    // After the first page record (image or delta), with later ones still
    // unwritten.
    "wal.mid_images",
    // All page records written, Commit record not yet written.
    "wal.before_commit",
    // Commit record written but not yet fsynced.
    "wal.after_commit_write",
    // Commit record fsynced — the transaction must survive recovery.
    "wal.after_commit_sync",
];

/// Is torn-tail simulation armed?
pub fn torn_tail_armed() -> bool {
    jaguar_common::fault::should_fail(TORN_TAIL_SITE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_crash_point_is_a_noop() {
        // Nothing arms these points; surviving the calls is the assertion.
        for p in CRASH_POINTS {
            crash_point(p);
        }
        crash_point("not.a.point");
    }

    #[test]
    fn crash_points_are_unique_and_namespaced() {
        let mut seen = std::collections::HashSet::new();
        for p in CRASH_POINTS {
            assert!(p.starts_with("wal."), "{p}");
            assert!(seen.insert(p), "duplicate crash point {p}");
        }
    }
}
