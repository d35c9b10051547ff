//! Multi-tenant isolation, end to end: row/column security labels are
//! planner rewrites (never app-side filtering), enforced identically for
//! SELECT, DML, EXPLAIN, UDF argument flows, serial or parallel, batched
//! or per-tuple, embedded or over the wire.

use std::sync::{Arc, Mutex};

use jaguar_core::{
    Config, DataType, Database, JaguarError, Request, SessionContext, UdfSignature, Value,
    Volatility,
};

/// Two tenants plus a free-for-all `notes` column only admins may read.
fn tenant_db(config: Config) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE accts (id INT, tenant VARCHAR, balance INT, notes VARCHAR)")
        .unwrap();
    for i in 0..40i64 {
        let tenant = if i % 2 == 0 { "tech" } else { "energy" };
        db.execute(&format!(
            "INSERT INTO accts VALUES ({i}, '{tenant}', {}, 'n{i}')",
            i * 10
        ))
        .unwrap();
    }
    db.set_table_label(
        "accts",
        Some("tenant = session.tenant OR session.role = 'admin'"),
    )
    .unwrap();
    db
}

fn alice() -> SessionContext {
    SessionContext::new("alice")
        .with_attr("tenant", "tech")
        .with_attr("role", "member")
}

fn bob() -> SessionContext {
    SessionContext::new("bob")
        .with_attr("tenant", "energy")
        .with_attr("role", "member")
}

fn root() -> SessionContext {
    SessionContext::new("root")
        .with_attr("tenant", "hq")
        .with_attr("role", "admin")
}

fn ids(r: &jaguar_core::QueryResult) -> Vec<i64> {
    let mut v: Vec<i64> = r
        .rows
        .iter()
        .map(|t| match t.get(0).unwrap() {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn select_sees_only_the_sessions_tenant() {
    let db = tenant_db(Config::default());
    let a = db
        .execute(Request::from("SELECT id FROM accts").with_session(&alice()))
        .unwrap();
    assert_eq!(ids(&a), (0..40).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    let b = db
        .execute(Request::from("SELECT id FROM accts").with_session(&bob()))
        .unwrap();
    assert_eq!(ids(&b), (0..40).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    // Admins and the in-process system principal see everything.
    let r = db
        .execute(Request::from("SELECT id FROM accts").with_session(&root()))
        .unwrap();
    assert_eq!(ids(&r).len(), 40);
    let s = db.execute("SELECT id FROM accts").unwrap();
    assert_eq!(ids(&s).len(), 40);
    // The label composes with user predicates, not replaces them.
    let a = db
        .execute(Request::from("SELECT id FROM accts WHERE id < 10").with_session(&alice()))
        .unwrap();
    assert_eq!(ids(&a), vec![0, 2, 4, 6, 8]);
}

#[test]
fn dml_touches_only_visible_rows() {
    let db = tenant_db(Config::default());
    let upd = db
        .execute(Request::from("UPDATE accts SET balance = 0 WHERE id < 10").with_session(&alice()))
        .unwrap();
    assert_eq!(upd.affected, 5, "alice owns 5 of the first 10 rows");
    // Bob's rows kept their balances.
    let untouched = db
        .execute("SELECT COUNT(*) FROM accts WHERE balance = 0")
        .unwrap();
    assert_eq!(untouched.rows[0].get(0).unwrap(), &Value::Int(5));
    let del = db
        .execute(Request::from("DELETE FROM accts").with_session(&bob()))
        .unwrap();
    assert_eq!(del.affected, 20, "bob can delete only his tenant's rows");
    let left = db.execute("SELECT COUNT(*) FROM accts").unwrap();
    assert_eq!(left.rows[0].get(0).unwrap(), &Value::Int(20));
}

/// The index is only an access path: a tenant reaching for another
/// tenant's row by its indexed key finds the row-label filter first in
/// the re-check of every row the index produced. Outcomes, contents and
/// error text are those of the same statements on an unindexed twin.
#[test]
fn dml_through_an_index_touches_only_visible_rows() {
    let (indexed, scanned) = (tenant_db(Config::default()), tenant_db(Config::default()));
    indexed
        .execute("CREATE INDEX accts_id ON accts (id)")
        .unwrap();
    for db in [&indexed, &scanned] {
        db.set_column_label("accts", "notes", Some("session.role = 'admin'"))
            .unwrap();
    }
    let everything = |db: &Database| {
        let r = db.execute("SELECT id, tenant, balance, notes FROM accts");
        let mut rows: Vec<String> = r.unwrap().rows.iter().map(|t| format!("{t:?}")).collect();
        rows.sort();
        rows
    };
    let untouched = everything(&indexed);
    // Row 7 is energy's — bob's. Alice (tech) names it by key.
    let plan = indexed
        .explain(Request::from("UPDATE accts SET balance = -1 WHERE id = 7").with_session(&alice()))
        .unwrap();
    assert!(
        plan.starts_with("Update accts [in place] ← IndexScan accts [*] via accts_id [7, 8)"),
        "{plan}"
    );
    assert!(plan.contains("Filter[0] [labeled] "), "{plan}");
    assert!(
        plan.contains("label: row filter injected for principal 'alice'"),
        "{plan}"
    );
    for (sql, affected) in [
        ("UPDATE accts SET balance = -1 WHERE id = 7", Some(0)),
        ("DELETE FROM accts WHERE id = 7", Some(0)),
        ("DELETE FROM accts WHERE id >= 7 AND id < 8", Some(0)),
        // A column label denies at plan time, whatever the path.
        ("UPDATE accts SET notes = 'mine' WHERE id = 6", None),
        ("DELETE FROM accts WHERE id = 6 AND notes = 'n6'", None),
    ] {
        let run = |db: &Database| {
            let r = db.execute(Request::from(sql).with_session(&alice()));
            r.map(|r| r.affected).map_err(|e| e.to_string())
        };
        let (a, b) = (run(&indexed), run(&scanned));
        assert_eq!(a, b, "{sql}");
        assert_eq!(a.as_ref().ok(), affected.as_ref(), "{sql}: {a:?}");
        assert_eq!(everything(&indexed), untouched, "{sql} changed something");
    }
    // Her own rows she does reach through the index, and only those.
    for (sql, affected) in [
        (
            "UPDATE accts SET balance = balance + 1 WHERE id >= 5 AND id < 10",
            2,
        ),
        ("UPDATE accts SET id = id + 100 WHERE id >= 30", 5),
        ("DELETE FROM accts WHERE id <= 3", 2),
    ] {
        let run = |db: &Database| {
            db.execute(Request::from(sql).with_session(&alice()))
                .unwrap()
                .affected
        };
        assert_eq!(
            (run(&indexed), run(&scanned)),
            (affected, affected),
            "{sql}"
        );
        assert_eq!(everything(&indexed), everything(&scanned), "{sql}");
    }
    let moved = indexed
        .execute(Request::from("SELECT id FROM accts WHERE id >= 130").with_session(&root()))
        .unwrap();
    assert_eq!(ids(&moved), vec![130, 132, 134, 136, 138]);
}

#[test]
fn insert_must_satisfy_the_row_label() {
    let db = tenant_db(Config::default());
    // Alice can add rows to her own tenant…
    db.execute(
        Request::from("INSERT INTO accts VALUES (100, 'tech', 1, 'x')").with_session(&alice()),
    )
    .unwrap();
    // …but cannot plant rows into another tenant.
    let err = db
        .execute(
            Request::from("INSERT INTO accts VALUES (101, 'energy', 1, 'x')")
                .with_session(&alice()),
        )
        .unwrap_err();
    assert!(matches!(err, JaguarError::SecurityViolation(_)), "{err}");
    assert!(
        err.to_string()
            .contains("INSERT into table 'accts' violates its row label for principal 'alice'"),
        "{err}"
    );
    let planted = db
        .execute("SELECT COUNT(*) FROM accts WHERE id = 101")
        .unwrap();
    assert_eq!(planted.rows[0].get(0).unwrap(), &Value::Int(0));
    // The admin may write anywhere.
    db.execute(
        Request::from("INSERT INTO accts VALUES (102, 'energy', 1, 'x')").with_session(&root()),
    )
    .unwrap();
}

#[test]
fn explain_and_explain_analyze_run_under_the_label() {
    let db = tenant_db(Config::default());
    let plan = db
        .explain(Request::from("SELECT id FROM accts WHERE id < 10").with_session(&alice()))
        .unwrap();
    assert!(plan.contains("[labeled]"), "{plan}");
    assert!(
        plan.contains("label: row filter injected for principal 'alice'"),
        "{plan}"
    );
    // The injected filter is pinned ahead of every user predicate.
    let lab = plan.find("[labeled]").unwrap();
    let user = plan.find("(id < 10)").unwrap();
    assert!(lab < user, "label filter must come first:\n{plan}");
    // EXPLAIN ANALYZE actually executes — under the same label.
    let analyzed = db
        .explain(Request::from("EXPLAIN ANALYZE SELECT id FROM accts").with_session(&alice()))
        .unwrap();
    assert!(analyzed.contains("[labeled]"), "{analyzed}");
    // A session the label denies fails EXPLAIN with the same error text
    // as execution (plan-time enforcement has a single site).
    let eve = SessionContext::new("eve");
    let e1 = db
        .explain(Request::from("SELECT id FROM accts").with_session(&eve))
        .unwrap_err();
    let e2 = db
        .execute(Request::from("SELECT id FROM accts").with_session(&eve))
        .unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string());
    assert!(
        e1.to_string().contains("denied for principal 'eve'"),
        "{e1}"
    );
}

/// The scan judges a leading run of conjuncts, and the row label is the
/// first conjunct: a label over a string column is judged above the scan,
/// so nothing the user wrote is judged before it; a label over an INT
/// column is judged at the scan itself and the run goes on behind it.
#[test]
fn a_label_residual_bounds_what_the_scan_judges() {
    let db = tenant_db(Config::default());
    let sql = "SELECT id FROM accts WHERE id < 10 AND balance >= 20";
    let plan = db
        .explain(Request::from(sql).with_session(&alice()))
        .unwrap();
    for line in [
        "  Filter[0] [labeled] (tenant = 'tech')",
        "  Filter[1] (id < 10)",
        "  Filter[2] (balance >= 20)",
        "  SeqScan accts [id, tenant, balance] (40 rows)",
    ] {
        assert!(plan.contains(line), "{line}:\n{plan}");
    }
    assert!(!plan.contains("[at scan]"), "{plan}");
    // The same statement without a label is judged at the scan.
    let plan = db.explain(sql).unwrap();
    assert!(
        plan.contains("Filter[1] [at scan] (balance >= 20)"),
        "{plan}"
    );
    let by = |session: Option<SessionContext>| {
        ids(&db
            .execute(Request::from(sql).with_session(session.as_ref()))
            .unwrap())
    };
    assert_eq!(by(Some(alice())), [2, 4, 6, 8]);
    assert_eq!(by(Some(bob())), [3, 5, 7, 9]);
    assert_eq!(by(None), (2..10).collect::<Vec<_>>());

    db.execute("CREATE TABLE ledger (id INT, org INT, amount INT)")
        .unwrap();
    for i in 0..40i64 {
        db.execute(&format!(
            "INSERT INTO ledger VALUES ({i}, {}, {})",
            i % 4,
            i * 10
        ))
        .unwrap();
    }
    db.set_table_label("ledger", Some("org = session.org"))
        .unwrap();
    let org = |n: &str| SessionContext::new("carol").with_attr("org", n);
    let seen: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let sig = UdfSignature::new(vec![DataType::Int], DataType::Bool);
    db.register_native_udf_with_volatility("spy", sig, Volatility::Stable, move |args, _| {
        seen2.lock().unwrap().push(args[0].as_int()?);
        Ok(Value::Bool(true))
    });
    let sql = "SELECT id FROM ledger WHERE spy(org) = TRUE AND amount >= 100";
    let plan = db
        .explain(Request::from(sql).with_session(&org("3")))
        .unwrap();
    for line in [
        "  Filter[0] [labeled] [at scan] (org = 3)",
        "  Filter[1] [at scan] (amount >= 100)",
        "  Filter[2] (spy[C++](org) = true)",
        "scan judges 2 conjunct(s) on record bytes",
    ] {
        assert!(plan.contains(line), "{line}:\n{plan}");
    }
    let r = db
        .execute(Request::from(sql).with_session(&org("3")))
        .unwrap();
    assert_eq!(ids(&r), [11, 15, 19, 23, 27, 31, 35, 39]);
    assert_eq!(r.stats.rows_scanned, 40);
    assert!(seen.lock().unwrap().iter().all(|o| *o == 3), "{seen:?}");
    // DML is bound by the same label, judged at the same place.
    let gone = db
        .execute(Request::from("DELETE FROM ledger WHERE amount < 100").with_session(&org("3")))
        .unwrap();
    assert_eq!(gone.affected, 2);
    assert_eq!(db.execute("SELECT id FROM ledger").unwrap().rows.len(), 38);
}

/// UDF argument flow: a recording UDF run under a tenant session — at
/// dop=4 with batching enabled — must never observe a foreign tenant's
/// values, because the label filter is injected *before* every user
/// predicate and projection.
#[test]
fn udf_arguments_never_see_foreign_rows_parallel_and_batched() {
    let db = tenant_db(Config::default().with_dop(4).with_udf_batch_size(8));
    let seen: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
    db.register_native_udf_with_volatility("probe", sig, Volatility::Stable, move |args, _| {
        let v = args[0].as_int()?;
        seen2.lock().unwrap().push(v);
        Ok(Value::Int(v))
    });
    let r = db
        .execute(Request::from("SELECT probe(id) FROM accts").with_session(&alice()))
        .unwrap();
    assert_eq!(ids(&r).len(), 20);
    let mut observed = seen.lock().unwrap().clone();
    observed.sort_unstable();
    observed.dedup();
    assert!(
        observed.iter().all(|v| v % 2 == 0),
        "probe saw foreign-tenant rows: {observed:?}"
    );
    assert_eq!(observed.len(), 20, "probe must still see every own row");
}

#[test]
fn column_label_prunes_star_and_denies_references() {
    let db = tenant_db(Config::default());
    db.set_column_label("accts", "notes", Some("session.role = 'admin'"))
        .unwrap();
    let starred = db
        .execute(Request::from("SELECT * FROM accts WHERE id = 0").with_session(&alice()))
        .unwrap();
    assert_eq!(starred.schema.len(), 3, "notes must be pruned from *");
    let err = db
        .execute(Request::from("SELECT notes FROM accts").with_session(&alice()))
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("access to column 'notes' of table 'accts' denied for principal 'alice'"),
        "{err}"
    );
    // Nor may the column leave through a UDF argument or a DML write.
    let sig = UdfSignature::new(vec![DataType::Str], DataType::Int);
    db.register_native_udf("leak", sig, |_, _| Ok(Value::Int(0)));
    let err = db
        .execute(Request::from("SELECT leak(notes) FROM accts").with_session(&alice()))
        .unwrap_err();
    assert!(matches!(err, JaguarError::SecurityViolation(_)), "{err}");
    let err = db
        .execute(Request::from("UPDATE accts SET notes = 'x'").with_session(&alice()))
        .unwrap_err();
    assert!(matches!(err, JaguarError::SecurityViolation(_)), "{err}");
    // Admins still see the full row.
    let full = db
        .execute(Request::from("SELECT * FROM accts WHERE id = 0").with_session(&root()))
        .unwrap();
    assert_eq!(full.schema.len(), 4);
}

#[test]
fn denials_and_rewrites_are_metered() {
    let db = tenant_db(Config::default());
    let before = db.metrics();
    db.execute(Request::from("SELECT id FROM accts").with_session(&alice()))
        .unwrap();
    let eve = SessionContext::new("eve");
    let _ = db.execute(Request::from("SELECT id FROM accts").with_session(&eve));
    let after = db.metrics();
    assert!(
        after.counter("sec.label_rewrites") > before.counter("sec.label_rewrites"),
        "rewrite counter must move"
    );
    assert!(
        after.counter("sec.auth_denied") > before.counter("sec.auth_denied"),
        "denial counter must move"
    );
}

/// An integer-parseable attribute substitutes as INT: it matches an INT
/// column by value, and against a VARCHAR column the INT is respelled as
/// the string it was, as is an INT literal written in the label.
#[test]
fn an_integer_attribute_matches_int_and_varchar_columns() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (id INT, code VARCHAR)").unwrap();
    db.execute("INSERT INTO t VALUES (1, '1'), (2, '2'), (3, '02'), (4, '2')")
        .unwrap();
    let s = SessionContext::new("u").with_attr("n", "2");
    let seen = |label: &str| {
        db.set_table_label("t", Some(label)).unwrap();
        let r = db.execute(Request::from("SELECT id FROM t").with_session(&s));
        ids(&r.unwrap())
    };
    assert_eq!(seen("code = session.n"), vec![2, 4]);
    assert_eq!(seen("id = session.n"), vec![2]);
    assert_eq!(seen("code != 2"), vec![1, 3]);
    db.set_table_label("t", Some("session.n = code")).unwrap();
    let plan = db
        .explain(Request::from("SELECT id FROM t").with_session(&s))
        .unwrap();
    assert!(plan.contains("('2' = code)"), "{plan}");
}

/// A label is a SQL predicate from a small subset; any other predicate is
/// refused when it is set, and the refusal leaves the stored catalog, the
/// manifest's bytes included, exactly as it was.
#[test]
fn a_label_outside_the_subset_is_refused_and_the_manifest_is_unchanged() {
    let dir = std::env::temp_dir().join(format!("jaguar-label-subset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir, Config::default()).unwrap();
    db.execute("CREATE TABLE accts (id INT, tenant VARCHAR, notes VARCHAR)")
        .unwrap();
    db.set_table_label("accts", Some("tenant = session.tenant"))
        .unwrap();
    db.set_column_label("accts", "notes", Some("session.role = 'admin'"))
        .unwrap();
    let manifest = || std::fs::read(dir.join("catalog.manifest")).unwrap();
    let before = manifest();
    let outside = [
        ("<", "id < 5", "session.role < 'b'"),
        ("+", "id + 1 = 2", "session.n + 1 = 2"),
        (
            "a function call",
            "f(tenant) = 'x'",
            "f(session.role) = 'x'",
        ),
        ("NULL", "tenant = NULL", "session.role = NULL"),
        ("a blob literal", "tenant = X'00'", "session.role = X'00'"),
        ("a qualifier", "other.tenant = 'x'", "other.role = 'x'"),
        ("a bare session", "session = 'x'", "session = 'x'"),
    ];
    for (what, row, column) in outside {
        let err = db.set_table_label("accts", Some(row)).unwrap_err();
        assert!(err.to_string().contains("label"), "{what}: {err}");
        let err = db
            .set_column_label("accts", "notes", Some(column))
            .unwrap_err();
        assert!(err.to_string().contains("label"), "{what}: {err}");
        assert_eq!(manifest(), before, "{what} changed the manifest");
    }
    let labels = db.catalog().table_labels("accts");
    assert_eq!(labels.row.as_deref(), Some("tenant = session.tenant"));
    assert_eq!(
        labels.columns.get("notes").map(String::as_str),
        Some("session.role = 'admin'")
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored label that does not parse as a label (here written past the
/// check, through the catalog) refuses every session but the system's on
/// SELECT, EXPLAIN and DML, and no row ever leaves.
#[test]
fn a_stored_label_that_does_not_parse_refuses_every_session() {
    let anonymous = SessionContext::anonymous();
    let sessions = [
        alice(),
        bob(),
        root(),
        SessionContext::new("eve"),
        anonymous,
    ];
    let statements = [
        "SELECT id FROM accts",
        "SELECT COUNT(*) FROM accts",
        "EXPLAIN SELECT id FROM accts",
        "EXPLAIN ANALYZE SELECT id FROM accts",
        "UPDATE accts SET balance = 0",
        "DELETE FROM accts",
        "INSERT INTO accts VALUES (99, 'tech', 0, 'x')",
    ];
    for stored in ["tenant = = session.tenant", "tenant < session.tenant"] {
        let db = tenant_db(Config::default());
        db.catalog().set_table_label("accts", Some(stored)).unwrap();
        for s in &sessions {
            for sql in statements {
                let r = db.execute(Request::from(sql).with_session(s));
                let Err(err) = r else {
                    panic!("{stored:?}: {sql} ran for '{}'", s.principal());
                };
                assert!(
                    matches!(err, JaguarError::SecurityViolation(_)),
                    "{stored:?}: {sql}: {err}"
                );
            }
        }
        // The system principal is not subject to labels, and nothing moved.
        let all = db.execute("SELECT id FROM accts").unwrap();
        assert_eq!(ids(&all), (0..40).collect::<Vec<_>>());
    }
    // A column label that does not parse hides its column from everyone.
    let db = tenant_db(Config::default());
    db.set_table_label("accts", None).unwrap();
    db.catalog()
        .set_column_label("accts", "notes", Some("session.role ="))
        .unwrap();
    for s in &sessions {
        let r = db.execute(Request::from("SELECT * FROM accts").with_session(s));
        assert_eq!(r.unwrap().schema.len(), 3, "notes stays hidden");
        let err = db
            .execute(Request::from("SELECT notes FROM accts").with_session(s))
            .unwrap_err();
        assert!(matches!(err, JaguarError::SecurityViolation(_)), "{err}");
    }
}

// ---------------------------------------------------------------------------
// Over the wire: principals arrive via Hello; auth_required default-denies
// sessions that never authenticate.
// ---------------------------------------------------------------------------

#[test]
fn wire_sessions_are_isolated_by_hello_principal() {
    let db = tenant_db(Config::default().with_auth_required(true));
    let server = db.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Unauthenticated under auth_required: the anonymous principal is
    // denied by the label (it has no attributes).
    let mut anon = jaguar_core::Client::connect(addr).unwrap();
    let err = anon.execute("SELECT id FROM accts").unwrap_err();
    assert!(
        err.to_string().contains("denied for principal 'anonymous'"),
        "{err}"
    );

    let mut c_alice = jaguar_core::Client::connect(addr).unwrap();
    c_alice
        .hello("alice", &[("tenant", "tech"), ("role", "member")])
        .unwrap();
    let r = c_alice.execute("SELECT id FROM accts").unwrap();
    assert_eq!(r.rows.len(), 20);

    let mut c_bob = jaguar_core::Client::connect(addr).unwrap();
    c_bob
        .hello("bob", &[("tenant", "energy"), ("role", "member")])
        .unwrap();
    let r = c_bob.execute("SELECT id FROM accts").unwrap();
    assert_eq!(r.rows.len(), 20);
    // No overlap: alice's ids are even, bob's odd.
    let r = c_bob
        .execute("SELECT COUNT(*) FROM accts WHERE id % 2 = 0")
        .unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(0));

    // EXPLAIN over the wire carries the same rewrite.
    let plan = c_alice.explain("SELECT id FROM accts").unwrap();
    assert!(plan.contains("[labeled]"), "{plan}");

    // Admins see everything; an unlabeled count through the admin session
    // doubles as the cross-check that rows were filtered, not deleted.
    let mut c_root = jaguar_core::Client::connect(addr).unwrap();
    c_root
        .hello("root", &[("tenant", "hq"), ("role", "admin")])
        .unwrap();
    let r = c_root.execute("SELECT COUNT(*) FROM accts").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(40));
    drop(server);
}

#[test]
fn wire_without_auth_required_stays_open() {
    let db = tenant_db(Config::default());
    let server = db.serve("127.0.0.1:0").unwrap();
    // auth off + no Hello: the connection runs as the trusted system
    // principal, exactly like embedded `execute` — existing deployments
    // keep working.
    let mut c = jaguar_core::Client::connect(server.addr()).unwrap();
    let r = c.execute("SELECT COUNT(*) FROM accts").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(40));
    drop(server);
}

/// The slow-query log must not leak literals unless the operator opted in.
#[test]
fn slow_query_log_redacts_literals_by_default() {
    let db = tenant_db(Config::default().with_slow_query_ms(Some(0)));
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut c = jaguar_core::Client::connect(server.addr()).unwrap();
    // Every query is "slow" at threshold 0; the log sink is exercised by
    // the server path (asserted structurally by the unit test on
    // redact_literals); here we pin that the query itself still works and
    // the slow-query counter moves with redaction active.
    let before = db.metrics().counter("net.slow_queries");
    c.execute("SELECT id FROM accts WHERE tenant = 'tech'")
        .unwrap();
    let after = db.metrics().counter("net.slow_queries");
    assert!(after > before, "slow-query log must have fired");
    drop(server);
}
