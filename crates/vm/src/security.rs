//! The security manager.
//!
//! §6.1: *"The security manager is invoked by the Java run-time libraries
//! each time an action affecting the execution environment (such as I/O)
//! is attempted. For UDFs, the security manager can be set up to prevent
//! many potentially harmful operations."* And the finer-grained example:
//! *"a UDF might be allowed by its class loader to load the `File` class,
//! but only with certain path arguments, as determined by the security
//! manager."*
//!
//! JSM's model: a UDF runs under a [`PermissionSet`]; every host call the
//! UDF attempts is checked against it (least privilege, \[SS75\]). Path-
//! scoped file permissions reproduce the paper's `File`-class example.
//! Unlike the 1998 JVM the paper criticises for "lack of auditing
//! capabilities", every denial is recorded in an audit log attributable to
//! the offending UDF. Allowed checks — millions per query — are only
//! counted: a set lives as long as its UDF is registered, so the log must
//! stay bounded.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use jaguar_common::error::{JaguarError, Result};
use parking_lot::Mutex;

/// Denials the audit log keeps; older ones are dropped first.
pub const AUDIT_LOG_CAPACITY: usize = 1024;

/// One grantable capability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Permission {
    /// Call back into the database server (the §4.2 "callback" channel).
    Callback,
    /// Invoke the named host function.
    HostCall(String),
    /// Read files whose path starts with the given prefix.
    FileRead(String),
    /// Write files whose path starts with the given prefix.
    FileWrite(String),
    /// Spawn additional VM threads (thread-group analogue).
    SpawnThread,
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Permission::Callback => write!(f, "callback"),
            Permission::HostCall(n) => write!(f, "hostcall({n})"),
            Permission::FileRead(p) => write!(f, "file-read({p}*)"),
            Permission::FileWrite(p) => write!(f, "file-write({p}*)"),
            Permission::SpawnThread => write!(f, "spawn-thread"),
        }
    }
}

/// An audit-log entry: which principal was denied what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    pub principal: String,
    pub action: String,
}

/// A least-privilege permission set with an audit trail.
///
/// Deny-by-default: a fresh set grants nothing, mirroring how the paper
/// wants untrusted web users treated.
#[derive(Debug, Default)]
pub struct PermissionSet {
    principal: String,
    grants: Vec<Permission>,
    allowed: AtomicU64,
    denied: Mutex<VecDeque<AuditEvent>>,
}

impl PermissionSet {
    /// An empty (deny-everything) set for the named principal (UDF).
    pub fn deny_all(principal: impl Into<String>) -> PermissionSet {
        PermissionSet {
            principal: principal.into(),
            ..PermissionSet::default()
        }
    }

    /// Grant a permission (builder style).
    pub fn grant(mut self, p: Permission) -> PermissionSet {
        self.grants.push(p);
        self
    }

    /// The typical grant for a database UDF: callbacks only.
    pub fn udf_default(principal: impl Into<String>) -> PermissionSet {
        PermissionSet::deny_all(principal).grant(Permission::Callback)
    }

    pub fn principal(&self) -> &str {
        &self.principal
    }

    /// Check whether `requested` is covered by some grant. A denial is
    /// recorded in the audit log; an allowed check is counted.
    pub fn check(&self, requested: &Permission) -> Result<()> {
        self.decide(self.grants.iter().any(|g| covers(g, requested)), || {
            requested.to_string()
        })
    }

    /// [`PermissionSet::check`] of `Permission::HostCall(name)` without
    /// building one: the engines call this on every host call.
    pub fn check_host_call(&self, name: &str) -> Result<()> {
        let granted = |g: &Permission| matches!(g, Permission::HostCall(n) if n == name);
        self.decide(self.grants.iter().any(granted), || {
            Permission::HostCall(name.into()).to_string()
        })
    }

    fn decide(&self, allowed: bool, action: impl FnOnce() -> String) -> Result<()> {
        if allowed {
            self.allowed.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let action = action();
        let message = format!("udf '{}' denied: {action}", self.principal);
        let mut denied = self.denied.lock();
        if denied.len() == AUDIT_LOG_CAPACITY {
            denied.pop_front();
        }
        denied.push_back(AuditEvent {
            principal: self.principal.clone(),
            action,
        });
        Err(JaguarError::SecurityViolation(message))
    }

    /// How many checks were allowed since the set was built.
    pub fn allowed_checks(&self) -> u64 {
        self.allowed.load(Ordering::Relaxed)
    }

    /// The latest denied attempts (up to [`AUDIT_LOG_CAPACITY`]), oldest
    /// first — what an operator pages through after an incident (the
    /// auditing capability the paper says Java lacked).
    pub fn violations(&self) -> Vec<AuditEvent> {
        self.denied.lock().iter().cloned().collect()
    }
}

/// Does grant `g` cover request `r`? Exact match except for path-prefix
/// file permissions.
fn covers(g: &Permission, r: &Permission) -> bool {
    match (g, r) {
        (Permission::Callback, Permission::Callback) => true,
        (Permission::SpawnThread, Permission::SpawnThread) => true,
        (Permission::HostCall(a), Permission::HostCall(b)) => a == b,
        (Permission::FileRead(prefix), Permission::FileRead(path)) => path.starts_with(prefix),
        (Permission::FileWrite(prefix), Permission::FileWrite(path)) => path.starts_with(prefix),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_by_default() {
        let s = PermissionSet::deny_all("udf1");
        assert!(s.check(&Permission::Callback).is_err());
        assert!(s.check(&Permission::SpawnThread).is_err());
        assert_eq!(s.violations().len(), 2);
    }

    #[test]
    fn grants_allow() {
        let s = PermissionSet::deny_all("udf1")
            .grant(Permission::Callback)
            .grant(Permission::HostCall("clip".into()));
        s.check(&Permission::Callback).unwrap();
        s.check(&Permission::HostCall("clip".into())).unwrap();
        assert!(s
            .check(&Permission::HostCall("delete_everything".into()))
            .is_err());
    }

    #[test]
    fn file_prefix_scoping() {
        let s = PermissionSet::deny_all("udf1").grant(Permission::FileRead("/data/images/".into()));
        s.check(&Permission::FileRead("/data/images/sunset.png".into()))
            .unwrap();
        assert!(s
            .check(&Permission::FileRead("/etc/passwd".into()))
            .is_err());
        // Read grant does not imply write.
        assert!(s
            .check(&Permission::FileWrite("/data/images/x".into()))
            .is_err());
    }

    #[test]
    fn audit_log_attributes_principal() {
        let s = PermissionSet::udf_default("investval");
        let _ = s.check(&Permission::Callback);
        let _ = s.check(&Permission::SpawnThread);
        assert_eq!(s.allowed_checks(), 1);
        let log = s.violations();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].principal, "investval");
        assert_eq!(log[0].action, "spawn-thread");
    }

    #[test]
    fn audit_log_is_bounded_and_keeps_the_newest_denials() {
        let s = PermissionSet::deny_all("noisy").grant(Permission::HostCall("cb".into()));
        for i in 0..AUDIT_LOG_CAPACITY + 10 {
            s.check_host_call("cb").unwrap();
            let e = s.check_host_call(&format!("f{i}")).unwrap_err();
            assert_eq!(
                e.to_string(),
                s.check(&Permission::HostCall(format!("f{i}")))
                    .unwrap_err()
                    .to_string()
            );
        }
        assert_eq!(s.allowed_checks(), (AUDIT_LOG_CAPACITY + 10) as u64);
        let log = s.violations();
        assert_eq!(log.len(), AUDIT_LOG_CAPACITY);
        let newest = format!("hostcall(f{})", AUDIT_LOG_CAPACITY + 9);
        assert_eq!(log.last().unwrap().action, newest);
    }

    #[test]
    fn violation_message_names_udf_and_action() {
        let s = PermissionSet::deny_all("evil");
        let e = s
            .check(&Permission::FileWrite("/db/files".into()))
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("evil"), "{msg}");
        assert!(msg.contains("file-write"), "{msg}");
    }
}
