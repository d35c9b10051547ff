//! An index-driven DELETE or UPDATE is indistinguishable from a
//! scan-driven one.
//!
//! Every case builds the same random table twice — once with B+Tree
//! indexes on `id` and `k`, once with none, so that twin can only scan —
//! and runs the same random statements against both. After each statement
//! the two must agree on `affected` or on the error text, on the table's
//! contents and `row_count`, and every index must hold exactly the keys of
//! the rows that are there. The UDF conjunct runs under one of the paper's
//! four designs per case. A second test forces the interleaving the
//! skip-vanished-row rule exists for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use jaguar_core::{ByteArray, Config, DataType, Database, Tuple, UdfSignature, Value, Volatility};
use jaguar_ipc::find_worker_binary;
use jaguar_udf::generic::{def_isolated, def_isolated_vm, def_native, def_vm};
use jaguar_vm::ResourceLimits;
use proptest::prelude::*;

/// The generic UDF's SQL name under each design, and whether the design
/// needs the `jaguar-worker` binary (odd positions do).
const DESIGNS: [(&str, bool); 4] = [
    ("generic", false),
    ("generic_ic", true),
    ("generic_vm", false),
    ("generic_ivm", true),
];

#[derive(Debug, Clone)]
struct Row {
    id: Option<i64>,
    k: Option<i64>,
    name: Option<u8>,
    /// Byte-array length: 10,000 spills to overflow pages.
    blob: usize,
}

impl Row {
    fn tuple(&self, seed: u64) -> Tuple {
        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        Tuple::new(vec![
            int(self.id),
            int(self.k),
            self.name
                .map_or(Value::Null, |n| Value::Str(format!("n{n}"))),
            Value::Bytes(ByteArray::patterned(self.blob, seed)),
        ])
    }
}

fn arb_row() -> impl Strategy<Value = Row> {
    let opt = |null_one_in: i64, range: std::ops::Range<i64>| {
        (0..null_one_in, range).prop_map(|(null, v)| (null != 0).then_some(v))
    };
    let blob = prop_oneof![Just(0usize), Just(5), Just(40), Just(300), Just(10_000)];
    (opt(8, 0..12), opt(6, 0..6), opt(5, 0..4), blob).prop_map(|(id, k, name, blob)| Row {
        id,
        k,
        name: name.map(|n| n as u8),
        blob,
    })
}

/// One WHERE conjunct; `{udf}` is replaced by the case's design.
fn arb_conjunct() -> impl Strategy<Value = String> {
    let c = 0i64..13;
    prop_oneof![
        c.clone().prop_map(|c| format!("id = {c}")),
        c.clone().prop_map(|c| format!("id >= {c}")),
        c.clone().prop_map(|c| format!("id < {c}")),
        c.clone().prop_map(|c| format!("{c} <= id")),
        c.clone().prop_map(|c| format!("{c} > id")),
        c.clone().prop_map(|c| format!("{c} = id")),
        c.clone().prop_map(|c| format!("id <> {c}")),
        (c.clone(), 0i64..6).prop_map(|(c, w)| format!("id > {c} AND id < {}", c - 2 + w)),
        c.clone().prop_map(|c| format!("k = {}", c % 6)),
        c.clone().prop_map(|c| format!("k >= {}", c % 6)),
        c.clone().prop_map(|c| format!("name = 'n{}'", c % 4)),
        Just("id > 9223372036854775807".to_string()),
        Just("id <= 9223372036854775807".to_string()),
        c.prop_map(|c| format!("{{udf}}(blob, {}, 1, 0) % 3 <> 1", c % 3)),
    ]
}

/// One SET clause.
fn arb_assignment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..1000).prop_map(|v| format!("k = {v}")),
        Just("k = k + 1".to_string()),
        Just("k = NULL".to_string()),
        // The indexed column itself: the statement must not meet its own
        // writes through the index it is driven by.
        Just("id = id + 1".to_string()),
        Just("id = id - 3, k = id".to_string()),
        Just("id = NULL".to_string()),
        Just("name = 'n2'".to_string()),
        Just("name = 'a-much-longer-name-than-before'".to_string()),
        // A narrower and a wider (inline, then spilling) byte array.
        Just("blob = X'00'".to_string()),
        (100usize..400).prop_map(|n| format!("blob = X'{}'", "AB".repeat(n))),
        Just(format!("blob = X'{}'", "CD".repeat(9_000))),
        // Fails while the victims are collected, before anything is written.
        Just("k = 10 / (id - 3)".to_string()),
    ]
}

fn arb_statement() -> impl Strategy<Value = String> {
    let conjuncts = proptest::collection::vec(arb_conjunct(), 0..4);
    let set = prop_oneof![arb_assignment().prop_map(Some), Just(None), Just(None)];
    (set, conjuncts).prop_map(|(set, conjuncts)| {
        let head = match set {
            Some(set) => format!("UPDATE t SET {set}"),
            None => "DELETE FROM t".to_string(),
        };
        if conjuncts.is_empty() {
            head
        } else {
            format!("{head} WHERE {}", conjuncts.join(" AND "))
        }
    })
}

fn twin(rows: &[Row], indexed: bool) -> Database {
    let db = Database::with_config(Config::default().with_pooled_executors(1));
    db.execute("CREATE TABLE t (id INT, k INT, name VARCHAR, blob BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("t").unwrap();
    for (i, row) in rows.iter().enumerate() {
        t.insert(row.tuple(i as u64)).unwrap();
    }
    if indexed {
        db.execute("CREATE INDEX t_id ON t (id)").unwrap();
        db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    }
    db.register_udf(def_native());
    db.register_udf(def_vm(true, ResourceLimits::default()));
    db.register_udf(def_isolated());
    db.register_udf(def_isolated_vm(true, ResourceLimits::default()));
    db
}

/// The table's rows in a canonical order, and its `row_count`.
fn contents(db: &Database) -> (Vec<String>, u64) {
    let r = db.execute("SELECT id, k, name, blob FROM t").unwrap();
    let mut rows: Vec<String> = r.rows.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    (rows, db.catalog().table("t").unwrap().row_count())
}

/// Every index holds exactly one entry per row with a non-NULL key, under
/// that row's key and id.
fn check_indexes(db: &Database, context: &str) {
    let t = db.catalog().table("t").unwrap();
    let rows: Vec<_> = t.scan().collect::<Result<_, _>>().unwrap();
    for column in 0..2 {
        let index = t.index_on(column).expect("indexed twin");
        let mut keyed = 0;
        for (rid, tuple) in &rows {
            if let Value::Int(key) = tuple.get(column).unwrap() {
                keyed += 1;
                let hits = index.btree.range(*key, key.checked_add(1)).unwrap();
                assert!(
                    hits.contains(rid),
                    "{context}: {} lost {rid} under key {key}",
                    index.name
                );
            }
        }
        let entries = index.btree.range(i64::MIN, None).unwrap().len();
        assert_eq!(
            entries, keyed,
            "{context}: {} has stale entries",
            index.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_driven_dml_equals_scan_driven_dml(
        rows in proptest::collection::vec(arb_row(), 0..40),
        statements in proptest::collection::vec(arb_statement(), 1..6),
        design in 0usize..4,
    ) {
        // Without the `jaguar-worker` binary (cargo build --workspace) the
        // isolated designs' cases run under their in-process siblings.
        let isolated = find_worker_binary().is_ok();
        let (udf, _) = DESIGNS[if isolated { design } else { design & !1 }];
        let (indexed, plain) = (twin(&rows, true), twin(&rows, false));
        for sql in &statements {
            let sql = sql.replace("{udf}", udf);
            let outcome = |db: &Database| {
                db.execute(&sql).map(|r| r.affected).map_err(|e| e.to_string())
            };
            let (a, b) = (outcome(&indexed), outcome(&plain));
            prop_assert_eq!(&a, &b, "{}", &sql);
            let (rows_a, count_a) = contents(&indexed);
            prop_assert_eq!(count_a as usize, rows_a.len(), "row_count after {}", &sql);
            prop_assert_eq!((rows_a, count_a), contents(&plain), "after {}", &sql);
            check_indexes(&indexed, &sql);
        }
    }
}

/// What the twins' plans look like: the same statement is index-driven on
/// one and scan-driven on the other, and `EXPLAIN` says which.
#[test]
fn explain_names_the_row_source_of_a_dml_statement() {
    let rows: Vec<Row> = (0..30)
        .map(|i| Row {
            id: Some(i),
            k: Some(i % 5),
            name: Some(1),
            blob: 8,
        })
        .collect();
    let (indexed, plain) = (twin(&rows, true), twin(&rows, false));
    let plan = |db: &Database, sql: &str| -> Vec<String> {
        let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let lines = r
            .rows
            .iter()
            .map(|t| t.get(0).unwrap().as_str().unwrap().to_string());
        lines.collect()
    };
    assert_eq!(
        plan(&indexed, "UPDATE t SET k = 7 WHERE id = 4"),
        [
            "Update t [in place] ← IndexScan t [*] via t_id [4, 5)",
            "  Filter[0] [at scan] (id = 4)",
            "-- plan notes: scan judges 1 conjunct(s) on record bytes"
        ]
    );
    assert_eq!(
        plan(&plain, "UPDATE t SET name = 'x' WHERE id = 4"),
        [
            "Update t [in place if it fits] ← SeqScan t [*] (30 rows)",
            "  Filter[0] [at scan] (id = 4)",
            "-- plan notes: scan judges 1 conjunct(s) on record bytes"
        ]
    );
    assert_eq!(
        plan(
            &indexed,
            "DELETE FROM t WHERE 10 <= id AND id < 12 AND name = 'n1'"
        ),
        [
            "Delete t ← IndexScan t [name] via t_id [10, 12)",
            "  Filter[0] [at scan] (10 <= id)",
            "  Filter[1] [at scan] (id < 12)",
            "  Filter[2] (name = 'n1')",
            "-- plan notes: scan decodes 1 of 4 columns; \
             scan judges 2 conjunct(s) on record bytes"
        ]
    );
    assert_eq!(
        plan(&plain, "DELETE FROM t WHERE id > 5 AND id < 3"),
        [
            "Delete t ← SeqScan t [] (30 rows)",
            "  Filter[0] [at scan] (id > 5)",
            "  Filter[1] [at scan] (id < 3)",
            "-- plan notes: scan decodes 0 of 4 columns; \
             scan judges 2 conjunct(s) on record bytes"
        ]
    );
    assert_eq!(
        plan(&indexed, "DELETE FROM t WHERE id > 5 AND id < 3")[0],
        "Delete t ← EmptyScan (predicate unsatisfiable)"
    );
    // The string API renders the same plan, and ANALYZE stays SELECT-only.
    let txt = indexed.explain("DELETE FROM t WHERE id = 1").unwrap();
    assert!(
        txt.starts_with("Delete t ← IndexScan t [] via t_id [1, 2)"),
        "{txt}"
    );
    let err = indexed
        .execute("EXPLAIN ANALYZE DELETE FROM t")
        .unwrap_err();
    assert!(err.to_string().contains("supports only SELECT"), "{err}");
    // Explaining changes nothing, and the counters tell the paths apart.
    assert_eq!(contents(&indexed).1, 30);
    let before = indexed.metrics();
    let r = indexed.execute("UPDATE t SET k = 7 WHERE id = 4").unwrap();
    assert_eq!(
        (r.affected, r.stats.rows_scanned),
        (1, 1),
        "one row fetched"
    );
    let r = plain.execute("UPDATE t SET k = 7 WHERE id = 4").unwrap();
    assert_eq!(
        (r.affected, r.stats.rows_scanned),
        (1, 30),
        "every row scanned"
    );
    let after = indexed.metrics();
    for counter in [
        "sql.dml.index_scans",
        "sql.dml.full_scans",
        "sql.dml.in_place_updates",
    ] {
        assert!(
            after.counter(counter) > before.counter(counter),
            "{counter}"
        );
    }
}

/// A DELETE or an UPDATE scans the rows and calls the UDFs that its SELECT
/// twin, `SELECT COUNT(*)` with the same WHERE clause, does — over a heap
/// scan or an index range, whether that SELECT runs as a `Gather` team or
/// as a team of one — and affects as many rows as the twin counts: the
/// three read their rows on one runner, where DML is always a team of one.
///
/// Which team ran is read off the thread the UDF is called on (a `Gather`
/// worker is a `jaguar-par-*` thread), not off `par.queries`: the `par.*`
/// counters are process-wide, and this binary's other tests run `Gather`
/// statements at the same time.
#[test]
fn a_dml_statement_scans_and_calls_what_its_select_twin_does() {
    for (indexed, dop) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
        let db = Database::with_config(Config::default().with_dop(dop));
        db.execute("CREATE TABLE t (id INT, k INT, name VARCHAR, blob BYTEARRAY)")
            .unwrap();
        let t = db.catalog().table("t").unwrap();
        for i in 0..2_000 {
            let row = Row {
                id: Some(i),
                k: Some(i % 5),
                name: Some(1),
                blob: 40,
            };
            t.insert(row.tuple(i as u64)).unwrap();
        }
        if indexed {
            db.execute("CREATE INDEX t_id ON t (id)").unwrap();
        }
        let in_workers = std::sync::Arc::new(AtomicU64::new(0));
        let counted = std::sync::Arc::clone(&in_workers);
        db.register_native_udf_with_volatility(
            "keep",
            UdfSignature::new(vec![DataType::Int], DataType::Bool),
            Volatility::Stable,
            move |args, _| {
                let thread = std::thread::current();
                if thread.name().is_some_and(|n| n.starts_with("jaguar-par-")) {
                    counted.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Value::Bool(args[0].as_int()? % 3 != 1))
            },
        );
        // Whether `sql` called `keep` on a `Gather` worker thread.
        let run = |sql: &str| {
            let before = in_workers.load(Ordering::Relaxed);
            let r = db.execute(sql).unwrap();
            (r, in_workers.load(Ordering::Relaxed) > before)
        };
        // One conjunct the scan judges, one UDF conjunct above it.
        let predicate = "WHERE id >= 500 AND keep(id)";
        for dml in [
            format!("UPDATE t SET k = 7 {predicate}"),
            format!("DELETE FROM t {predicate}"),
        ] {
            let (twin, gathered) = run(&format!("SELECT COUNT(*) FROM t {predicate}"));
            assert_eq!(gathered, dop > 1 && !indexed, "{dml}: the twin's team");
            let (r, gathered) = run(&dml);
            assert!(!gathered, "{dml} ran a Gather team");
            assert_eq!(
                (r.affected, r.stats.rows_scanned, r.stats.udf_invocations),
                (
                    twin.int_column(0).unwrap()[0] as u64,
                    twin.stats.rows_scanned,
                    twin.stats.udf_invocations
                ),
                "{dml} at dop {dop}, indexed: {indexed}"
            );
            assert!(r.affected > 0 && r.stats.udf_invocations > r.affected);
        }
    }
}

/// A row deleted by another statement between this statement's index probe
/// and its fetch of that row is skipped — by SELECT, UPDATE and DELETE.
/// The interleaving is forced: a predicate UDF of statement A, called on
/// the row with id 3, hands control to thread B, which deletes the row
/// with id 5 and hands control back before A fetches it.
#[test]
fn a_row_that_vanishes_between_index_probe_and_fetch_is_skipped() {
    for statement in [
        "SELECT id FROM t WHERE id >= 0 AND id < 10 AND gate(id) = TRUE",
        "UPDATE t SET k = 99 WHERE id >= 0 AND id < 10 AND gate(id) = TRUE",
        "DELETE FROM t WHERE id >= 0 AND id < 10 AND gate(id) = TRUE",
    ] {
        let rows: Vec<Row> = (0..10)
            .map(|i| Row {
                id: Some(i),
                k: Some(0),
                name: None,
                blob: 4,
            })
            .collect();
        let db = std::sync::Arc::new(twin(&rows, true));
        let (at_gate, gate_rx) = mpsc::channel::<()>();
        let (resume, resumed) = mpsc::channel::<()>();
        let resumed = std::sync::Mutex::new(resumed);
        db.register_native_udf_with_volatility(
            "gate",
            UdfSignature::new(vec![DataType::Int], DataType::Bool),
            Volatility::Volatile,
            move |args, _| {
                if args[0].as_int()? == 3 {
                    at_gate.send(()).expect("deleter is waiting");
                    resumed.lock().unwrap().recv().expect("deleter answers");
                }
                Ok(Value::Bool(true))
            },
        );
        assert!(
            db.explain(statement).unwrap().contains("IndexScan"),
            "{statement}"
        );
        let deleter = {
            let db = std::sync::Arc::clone(&db);
            std::thread::spawn(move || {
                gate_rx.recv().expect("statement reaches the gate");
                let gone = db.execute("DELETE FROM t WHERE id = 5").unwrap();
                resume.send(()).expect("statement is waiting");
                gone.affected
            })
        };
        let r = db.execute(statement).expect(statement);
        assert_eq!(deleter.join().unwrap(), 1, "{statement}");
        // Ten ids were probed; the row with id 5 was gone when fetched.
        assert_eq!(r.stats.rows_scanned, 9, "{statement}");
        if statement.starts_with("SELECT") {
            let ids: Vec<i64> = r.int_column(0).unwrap();
            assert_eq!(ids, [0, 1, 2, 3, 4, 6, 7, 8, 9], "{statement}");
        } else {
            assert_eq!(r.affected, 9, "{statement}");
        }
        check_indexes(&db, statement);
    }
}
