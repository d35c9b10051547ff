//! jaguar-sec — the multi-tenant security subsystem.
//!
//! The paper secures the *execution* of extensions (four trust designs for
//! running untrusted UDFs); this crate decides which *data* a session may
//! see, along two axes:
//!
//! * [`session`] — per-connection principals. A [`SessionContext`] carries
//!   the authenticated principal name plus arbitrary `key=value` attributes
//!   (tenant id, role, …) established by the wire `Hello` message. A
//!   statement's request carries an `Option<&SessionContext>`; `None` is
//!   the trusted in-process system principal, so embedded use is unchanged.
//! * [`label`] — security labels: boolean expressions over session
//!   attributes and row columns (`tenant = session.tenant OR session.role =
//!   'admin'`). Labels are parsed once, stored in the catalog manifest, and
//!   partially evaluated at plan time against the caller's session: the
//!   session-only part folds to allow/deny, the column-dependent *residual*
//!   is handed to the planner for predicate injection — enforcement is a
//!   planner rewrite, never app-side filtering.
//!
//! Metric names emitted by the enforcement sites live in [`metrics`].

pub mod label;
pub mod session;

pub use label::{CmpOp, LabelDecision, LabelExpr, LabelValue};
pub use session::SessionContext;

/// Metric names for the security subsystem (registered in the process-wide
/// `obs` registry by the enforcement sites).
pub mod metrics {
    /// Statements denied by an authorizer decision (table/column label or
    /// unauthenticated access under `auth_required`).
    pub const AUTH_DENIED: &str = "sec.auth_denied";
    /// Plans into which a residual label predicate was injected.
    pub const LABEL_REWRITES: &str = "sec.label_rewrites";
}
