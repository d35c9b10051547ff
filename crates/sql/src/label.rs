//! Security labels: SQL predicates over row columns and the attributes of
//! the calling [`SessionContext`].
//!
//! A label is parsed by [`parse_expr`] and must stay inside a subset of the
//! SQL expression grammar: a column, `session.<attr>`, a string, integer
//! or boolean literal, `=`, `!=`/`<>`, AND, OR, NOT and parentheses
//! (`tenant = session.tenant OR session.role = 'admin'`). Names are
//! case-insensitive. Anything else is refused when the label is set.
//!
//! At plan time the label is partially evaluated: session attributes are
//! substituted as literals and the expression is constant-folded. What
//! remains is a decision (allow or deny) or a *residual* over row columns,
//! which the planner injects as the plan's first filter predicate.
//!
//! Deny-safety: a label that reads an attribute the session does not carry
//! denies the session, wherever the reference sits (so `NOT
//! session.flag = 'x'` grants nothing to an attribute-less anonymous
//! session).

use jaguar_common::error::{JaguarError, Result};

use crate::ast::{CmpOp, Expr};
use crate::parser::parse_expr;
use crate::session::SessionContext;

/// Statements denied by a label (or by `auth_required`), a counter.
pub const AUTH_DENIED: &str = "sec.auth_denied";
/// Plans into which a row-label residual was injected, a counter.
pub const LABEL_REWRITES: &str = "sec.label_rewrites";

/// The outcome of a label for one session.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The session passes unconditionally.
    Allow,
    /// The session is denied, also when it lacks an attribute the label
    /// reads.
    Deny,
    /// Row-dependent: a predicate over columns and literals that must hold
    /// for each row the session may see.
    Residual(Expr),
}

/// Parse label text. Column and attribute names come back lower-case, a
/// session attribute as a column qualified by `session`.
pub fn parse(text: &str) -> Result<Expr> {
    subset(parse_expr(text)?)
}

fn subset(e: Expr) -> Result<Expr> {
    let sub = |e: Box<Expr>| subset(*e).map(Box::new);
    Ok(match e {
        Expr::Column {
            qualifier: None,
            name,
        } if !name.eq_ignore_ascii_case("session") => Expr::Column {
            qualifier: None,
            name: name.to_ascii_lowercase(),
        },
        Expr::Column {
            qualifier: Some(q),
            name,
        } if q.eq_ignore_ascii_case("session") => Expr::Column {
            qualifier: Some("session".into()),
            name: name.to_ascii_lowercase(),
        },
        Expr::Neg(inner) => match *inner {
            Expr::Int(n) => Expr::Int(n.wrapping_neg()),
            other => return Err(outside(Expr::Neg(Box::new(other)))),
        },
        Expr::Int(_) | Expr::Str(_) | Expr::Bool(_) => e,
        Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), l, r) => Expr::Cmp(op, sub(l)?, sub(r)?),
        Expr::And(l, r) => Expr::And(sub(l)?, sub(r)?),
        Expr::Or(l, r) => Expr::Or(sub(l)?, sub(r)?),
        Expr::Not(inner) => Expr::Not(sub(inner)?),
        other => return Err(outside(other)),
    })
}

fn outside(e: Expr) -> JaguarError {
    JaguarError::Parse(format!(
        "label: {e:?} is outside the label subset (a column, session.<attr>, a string, \
         integer or boolean literal, =, !=, AND, OR, NOT and parentheses)"
    ))
}

/// Every row column the label reads, deduplicated.
pub fn columns(label: &Expr) -> Vec<String> {
    names(label, false)
}

/// Every session attribute the label reads, deduplicated.
pub fn session_attrs(label: &Expr) -> Vec<String> {
    names(label, true)
}

fn names(e: &Expr, session: bool) -> Vec<String> {
    fn walk(e: &Expr, session: bool, out: &mut Vec<String>) {
        match e {
            Expr::Column { qualifier, name }
                if qualifier.is_some() == session && !out.contains(name) =>
            {
                out.push(name.clone())
            }
            Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                walk(l, session, out);
                walk(r, session, out);
            }
            Expr::Not(inner) => walk(inner, session, out),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(e, session, &mut out);
    out
}

/// Partially evaluate a parsed label for `session`. `None` is the
/// in-process system principal, which every label allows.
pub fn evaluate(label: &Expr, session: Option<&SessionContext>) -> Decision {
    let Some(session) = session else {
        return Decision::Allow;
    };
    if session_attrs(label)
        .iter()
        .any(|a| session.attr(a).is_none())
    {
        return Decision::Deny;
    }
    match fold(label, session) {
        Expr::Bool(true) => Decision::Allow,
        Expr::Bool(false) => Decision::Deny,
        residual => Decision::Residual(residual),
    }
}

/// Substitute session attributes and fold literal subtrees. Attribute
/// values are strings on the wire; an integer-parseable one substitutes as
/// an INT, so `tenant_id = session.tenant` works against INT columns.
/// Literals of different types are unequal.
fn fold(e: &Expr, session: &SessionContext) -> Expr {
    let literal = |e: &Expr| matches!(e, Expr::Int(_) | Expr::Str(_) | Expr::Bool(_));
    match e {
        Expr::Column {
            qualifier: Some(_),
            name,
        } => {
            let v = session.attr(name).unwrap_or_default();
            v.parse()
                .map_or_else(|_| Expr::Str(v.to_string()), Expr::Int)
        }
        Expr::Cmp(op, l, r) => {
            let (l, r) = (fold(l, session), fold(r, session));
            if literal(&l) && literal(&r) {
                Expr::Bool((l == r) == (*op == CmpOp::Eq))
            } else {
                Expr::Cmp(*op, Box::new(l), Box::new(r))
            }
        }
        Expr::And(l, r) => match (fold(l, session), fold(r, session)) {
            (Expr::Bool(false), _) | (_, Expr::Bool(false)) => Expr::Bool(false),
            (Expr::Bool(true), other) | (other, Expr::Bool(true)) => other,
            (l, r) => Expr::And(Box::new(l), Box::new(r)),
        },
        Expr::Or(l, r) => match (fold(l, session), fold(r, session)) {
            (Expr::Bool(true), _) | (_, Expr::Bool(true)) => Expr::Bool(true),
            (Expr::Bool(false), other) | (other, Expr::Bool(false)) => other,
            (l, r) => Expr::Or(Box::new(l), Box::new(r)),
        },
        Expr::Not(inner) => match fold(inner, session) {
            Expr::Bool(b) => Expr::Bool(!b),
            other => Expr::Not(Box::new(other)),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use jaguar_catalog::Catalog;
    use jaguar_common::config::Config;
    use jaguar_common::schema::Schema;
    use jaguar_common::value::DataType;

    use super::*;
    use crate::engine::Engine;

    fn session(tenant: &str, role: &str) -> SessionContext {
        SessionContext::new("u")
            .with_attr("tenant", tenant)
            .with_attr("role", role)
    }

    /// A label as text, with every AND and OR parenthesized.
    fn show(e: &Expr) -> String {
        match e {
            Expr::Column {
                qualifier: None,
                name,
            } => name.clone(),
            Expr::Column { name, .. } => format!("session.{name}"),
            Expr::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Expr::Int(n) => n.to_string(),
            Expr::Bool(b) => (if *b { "TRUE" } else { "FALSE" }).into(),
            Expr::Cmp(op, l, r) => {
                let op = if *op == CmpOp::Eq { "=" } else { "!=" };
                format!("{} {op} {}", show(l), show(r))
            }
            Expr::And(l, r) => format!("({} AND {})", show(l), show(r)),
            Expr::Or(l, r) => format!("({} OR {})", show(l), show(r)),
            Expr::Not(e) => format!("NOT {}", show(e)),
            other => panic!("not a label: {other:?}"),
        }
    }

    #[test]
    fn parse_roundtrip() {
        let l = parse("tenant = session.tenant OR session.role = 'admin'").unwrap();
        assert_eq!(
            show(&l),
            "(tenant = session.tenant OR session.role = 'admin')"
        );
        assert_eq!(columns(&l), vec!["tenant".to_string()]);
        assert_eq!(
            session_attrs(&l),
            vec!["tenant".to_string(), "role".to_string()]
        );
    }

    #[test]
    fn admin_folds_to_allow() {
        let l = parse("tenant = session.tenant OR session.role = 'admin'").unwrap();
        assert_eq!(
            evaluate(&l, Some(&session("acme", "admin"))),
            Decision::Allow
        );
    }

    #[test]
    fn non_admin_leaves_residual_over_columns() {
        let l = parse("tenant = session.tenant OR session.role = 'admin'").unwrap();
        match evaluate(&l, Some(&session("acme", "analyst"))) {
            Decision::Residual(r) => {
                assert_eq!(show(&r), "tenant = 'acme'");
                assert!(session_attrs(&r).is_empty());
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn integer_attributes_substitute_as_ints() {
        let l = parse("tenant_id = session.tenant").unwrap();
        match evaluate(
            &l,
            Some(&SessionContext::new("u").with_attr("tenant", "42")),
        ) {
            Decision::Residual(r) => assert_eq!(show(&r), "tenant_id = 42"),
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn missing_attribute_denies_even_under_not() {
        let l = parse("NOT session.clearance = 'low'").unwrap();
        assert_eq!(
            evaluate(&l, Some(&SessionContext::anonymous())),
            Decision::Deny
        );
    }

    #[test]
    fn system_principal_always_allows() {
        let l = parse("FALSE").unwrap();
        assert_eq!(evaluate(&l, None), Decision::Allow);
        assert_eq!(evaluate(&l, Some(&session("a", "b"))), Decision::Deny);
    }

    #[test]
    fn session_only_labels_fold_fully() {
        let l = parse("session.role = 'admin' AND session.tenant != 'evil'").unwrap();
        assert_eq!(
            evaluate(&l, Some(&session("acme", "admin"))),
            Decision::Allow
        );
        assert_eq!(
            evaluate(&l, Some(&session("evil", "admin"))),
            Decision::Deny
        );
        assert_eq!(evaluate(&l, Some(&session("acme", "peon"))), Decision::Deny);
    }

    #[test]
    fn quote_escapes_and_ne_alias() {
        let l = parse("name <> 'o''brien'").unwrap();
        assert_eq!(show(&l), "name != 'o''brien'");
    }

    #[test]
    fn parse_errors_are_clean() {
        assert!(parse("tenant = ").is_err());
        assert!(parse("'unterminated").is_err());
        assert!(parse("a = b extra").is_err());
        assert!(parse("session tenant").is_err());
        assert!(parse("a ? b").is_err());
    }

    /// A column OR TRUE allows outright; a column AND FALSE denies.
    #[test]
    fn constant_arms_fold_around_columns() {
        let s = session("acme", "analyst");
        let allow = parse("tenant = 'x' OR session.role = 'analyst'").unwrap();
        assert_eq!(evaluate(&allow, Some(&s)), Decision::Allow);
        let deny = parse("tenant = 'x' AND session.role = 'admin'").unwrap();
        assert_eq!(evaluate(&deny, Some(&s)), Decision::Deny);
    }

    /// Names are case-insensitive, an attribute may be spelled like a
    /// keyword, `-5` is an integer, and text outside ASCII survives the
    /// lexer.
    #[test]
    fn spellings_normalize() {
        let l = parse("Tenant = SESSION.Group AND n != -5 AND city = 'Zürich'").unwrap();
        assert_eq!(
            show(&l),
            "((tenant = session.group AND n != -5) AND city = 'Zürich')"
        );
    }

    #[test]
    fn labels_validate_and_persist_across_restart() {
        let dir = std::env::temp_dir().join(format!("jaguar-labels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = || Schema::of(&[("id", DataType::Int), ("payload", DataType::Bytes)]);
        let open =
            || Engine::with_catalog(Arc::new(Catalog::on_disk(&dir, Config::default()).unwrap()));
        {
            let e = open();
            e.catalog().create_table("t", schema()).unwrap();
            // Unknown column in a row label is rejected.
            let err = e.set_table_label("t", Some("missing = 1")).unwrap_err();
            assert!(err.to_string().contains("does not have"), "{err}");
            // Row column in a column label is rejected.
            let err = e
                .set_column_label("t", "payload", Some("id = 1"))
                .unwrap_err();
            assert!(err.to_string().contains("session attributes"), "{err}");
            e.set_table_label("t", Some("id = session.tenant")).unwrap();
            e.set_column_label("t", "payload", Some("session.role = 'admin'"))
                .unwrap();
        }
        let e = open();
        let labels = e.catalog().table_labels("t");
        assert_eq!(labels.row.as_deref(), Some("id = session.tenant"));
        assert_eq!(
            labels.columns.get("payload").map(String::as_str),
            Some("session.role = 'admin'")
        );
        assert!(e.catalog().has_labels());
        // Clearing both removes the entry entirely.
        e.set_table_label("t", None).unwrap();
        e.set_column_label("t", "payload", None).unwrap();
        assert!(!e.catalog().has_labels());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_label_on_an_unknown_column_is_refused() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE t (id INT)").unwrap();
        let err = e
            .set_column_label("t", "nope", Some("session.role = 'admin'"))
            .unwrap_err();
        assert!(err.to_string().contains("has no column 'nope'"), "{err}");
        assert!(!e.catalog().has_labels());
    }
}
