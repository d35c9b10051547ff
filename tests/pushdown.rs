//! A conjunct the scan judges on the record's bytes is indistinguishable
//! from one evaluated on the decoded row.
//!
//! Every case builds one random table — INT, FLOAT and BOOL columns with
//! NULLs (`i64::MIN` and `i64::MAX` in the INT one, NaN, ±0.0 and
//! infinities in the FLOAT one), a VARCHAR, byte arrays wide enough to
//! spill on the 1 KiB pages used here, and slots left dead by deletes —
//! four times: for the statement *as written* and for its
//! *twin*, in which every conjunct the scan could judge is re-spelt so that
//! it cannot (`f >= 2` becomes `NOT (f < 2)`, `i = 3` becomes `i + 0 = 3`),
//! at dop 1 and at dop 2. A conjunct that is not pushable either way — an
//! arithmetic one, a negated one, or a call of the generic UDF under one of
//! the paper's four designs — sits before, between or after the pushable
//! ones. Each statement (SELECT: plain, bare LIMIT, grouped by INT, by
//! FLOAT and BOOL, by VARCHAR and by BOOL, global aggregate, ORDER BY + LIMIT;
//! DELETE; UPDATE) must give the two spellings the same rows in the same
//! order, `affected`, `stats.rows_scanned`, `stats.udf_invocations` and
//! error text, and leave the tables equal. An aggregate whose WHERE the
//! scan judges entirely folds each record into its group from the record's
//! bytes (`[at scan]`); its twin, which keeps a residual conjunct, folds
//! decoded rows: the two paths are compared here.

use jaguar_core::{ByteArray, Config, Database, QueryResult, Tuple, Value};
use jaguar_ipc::find_worker_binary;
use jaguar_udf::generic::{def_isolated, def_isolated_vm, def_native, def_vm};
use jaguar_vm::ResourceLimits;
use proptest::prelude::*;

/// The generic UDF's SQL name under each design (odd positions need the
/// `jaguar-worker` binary).
const DESIGNS: [&str; 4] = ["generic", "generic_ic", "generic_vm", "generic_ivm"];

#[derive(Debug, Clone)]
struct Row {
    i: Option<i64>,
    f: Option<f64>,
    b: Option<bool>,
    name: Option<u8>,
    /// Byte-array length: anything past ≈ 900 spills to overflow pages.
    blob: usize,
    /// Deleted again after the load: its slot stays behind, dead.
    deleted: bool,
}

fn arb_row() -> impl Strategy<Value = Row> {
    let float = prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (-4i64..5).prop_map(|x| x as f64 * 0.5),
        (-4i64..5).prop_map(|x| x as f64),
    ];
    let blob = prop_oneof![Just(0usize), Just(30), Just(200), Just(200), Just(2_500)];
    // The extremes: a comparison that subtracts overflows on them.
    let int = prop_oneof![-3..4i64, -3..4i64, Just(i64::MIN), Just(i64::MAX)];
    // (The stand-in proptest has tuple strategies of up to four.)
    let fixed = ((0..6i64, int), (0..6i64, float), (0..5i64, any::<bool>()));
    (fixed, (0..5i64, 0..3u8), blob, 0..7i64).prop_map(|((i, f, b), name, blob, deleted)| Row {
        i: (i.0 != 0).then_some(i.1),
        f: (f.0 != 0).then_some(f.1),
        b: (b.0 != 0).then_some(b.1),
        name: (name.0 != 0).then_some(name.1),
        blob,
        deleted: deleted == 0,
    })
}

/// A conjunct the scan can judge, and its twin that it cannot.
#[derive(Debug, Clone)]
struct Pushable {
    as_written: String,
    twin: String,
}

const OPS: [(&str, &str); 6] = [
    ("=", "<>"),
    ("<>", "="),
    ("<", ">="),
    ("<=", ">"),
    (">", "<="),
    (">=", "<"),
];

fn arb_pushable() -> impl Strategy<Value = Pushable> {
    let int = prop_oneof![
        -3i64..4,
        Just(0),
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX)
    ];
    let literal = prop_oneof![
        int.prop_map(|k| k.to_string()),
        (-4i64..5).prop_map(|k| format!("{:?}", k as f64 * 0.5)),
        Just("TRUE".to_string()),
        Just("FALSE".to_string()),
        // Never comparable with a fixed-width column: every non-NULL row
        // is an error, in both spellings and in the same words.
        Just("'n1'".to_string()),
    ];
    (
        (0..3usize, 0..6usize),
        literal,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|((column, op), literal, literal_first, by_arithmetic)| {
            let column = ["i", "f", "b"][column];
            let (op, negated) = OPS[op];
            let spell = |column: &str, op: &str| match literal_first {
                true => format!("{literal} {op} {column}"),
                false => format!("{column} {op} {literal}"),
            };
            // `i + 0` is `i` for an INT; a FLOAT would lose the sign of its
            // zero (in error text) and a BOOL has no arithmetic.
            let twin = if by_arithmetic && column == "i" {
                spell("i + 0", op)
            } else {
                format!("NOT ({})", spell(column, negated))
            };
            Pushable {
                as_written: spell(column, op),
                twin,
            }
        })
}

/// A conjunct the scan can judge in neither spelling; `{udf}` is replaced
/// by the case's design.
fn arb_residual() -> impl Strategy<Value = String> {
    let k = -3i64..4;
    prop_oneof![
        k.clone().prop_map(|k| format!("i + 0 >= {k}")),
        k.clone().prop_map(|k| format!("NOT (i < {k})")),
        k.clone()
            .prop_map(|k| format!("name <> 'n{}'", k.rem_euclid(3))),
        k.clone()
            .prop_map(|k| format!("{{udf}}(blob, {}, 1, 0) % 3 <> 1", k.rem_euclid(3))),
        k.prop_map(|k| format!("{{udf}}(blob, {}, 1, 0) % 3 <> 1", k.rem_euclid(3))),
    ]
}

/// A WHERE clause in both spellings: one to three pushable conjuncts with
/// (usually) one that is not, before, between or after them.
fn arb_where() -> impl Strategy<Value = (String, String)> {
    (
        proptest::collection::vec(arb_pushable(), 1..4),
        arb_residual(),
        0..5usize,
    )
        .prop_map(|(pushable, residual, at)| {
            let mut written: Vec<String> = pushable.iter().map(|p| p.as_written.clone()).collect();
            let mut twin: Vec<String> = pushable.iter().map(|p| p.twin.clone()).collect();
            if at <= pushable.len() {
                written.insert(at, residual.clone());
                twin.insert(at, residual);
            }
            (written.join(" AND "), twin.join(" AND "))
        })
}

/// A statement with a `{where}` hole.
fn arb_statement() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("SELECT id, i, f, b, name FROM t WHERE {where}"),
        Just("SELECT id, blob FROM t WHERE {where}"),
        Just("SELECT id, f FROM t WHERE {where} LIMIT 3"),
        Just("SELECT i, COUNT(*), SUM(f), MIN(id) FROM t WHERE {where} GROUP BY i"),
        Just("SELECT COUNT(*), COUNT(f), MAX(i), SUM(id) FROM t WHERE {where}"),
        Just(
            "SELECT f, b, COUNT(*), COUNT(name), AVG(i), MAX(f) FROM t WHERE {where} GROUP BY f, b"
        ),
        Just("SELECT name, COUNT(*), MIN(i) FROM t WHERE {where} GROUP BY name"),
        Just("SELECT b, COUNT(name), COUNT(f), SUM(i), AVG(i), MAX(b) FROM t WHERE {where} GROUP BY b"),
        Just("SELECT id, i, name FROM t WHERE {where} ORDER BY i DESC, id LIMIT 5"),
        Just("DELETE FROM t WHERE {where}"),
        Just("UPDATE t SET i = i + 1, f = 1.5 WHERE {where}"),
        Just("UPDATE t SET name = 'renamed', b = NULL WHERE {where}"),
    ]
}

fn db(rows: &[Row], dop: usize) -> Database {
    let config = Config::default()
        .with_page_size(1024)
        .with_dop(dop)
        .with_pooled_executors(2);
    let db = Database::with_config(config);
    // The variable-width columns lie before and between the ones the scan
    // judges: a surviving row's bodies are built after the verdict.
    db.execute("CREATE TABLE t (id INT, name VARCHAR, i INT, blob BYTEARRAY, f FLOAT, b BOOL)")
        .unwrap();
    let t = db.catalog().table("t").unwrap();
    let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
    for (id, row) in rows.iter().enumerate() {
        let rid = t
            .insert(Tuple::new(vec![
                Value::Int(id as i64),
                opt(row.name.map(|n| Value::Str(format!("n{n}")))),
                opt(row.i.map(Value::Int)),
                Value::Bytes(ByteArray::patterned(row.blob, id as u64)),
                opt(row.f.map(Value::Float)),
                opt(row.b.map(Value::Bool)),
            ]))
            .unwrap();
        if row.deleted {
            assert!(t.delete(rid).unwrap());
        }
    }
    db.register_udf(def_native());
    db.register_udf(def_vm(true, ResourceLimits::default()));
    db.register_udf(def_isolated());
    db.register_udf(def_isolated_vm(true, ResourceLimits::default()));
    db
}

/// Rows as bytes: NaN is not equal to itself, its encoding is.
fn bytes_of(rows: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        jaguar_common::stream::write_tuple(&mut out, r).unwrap();
    }
    out
}

/// Everything a statement's caller can see of it.
fn outcome(r: Result<QueryResult, jaguar_core::JaguarError>) -> Result<String, String> {
    let r = r.map_err(|e| e.to_string())?;
    Ok(format!(
        "rows {:?} affected {} scanned {} udf calls {}",
        bytes_of(&r.rows),
        r.affected,
        r.stats.rows_scanned,
        r.stats.udf_invocations
    ))
}

fn contents(db: &Database) -> Vec<u8> {
    bytes_of(&db.execute("SELECT * FROM t").unwrap().rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_pushed_conjunct_is_indistinguishable_from_an_evaluated_one(
        rows in proptest::collection::vec(arb_row(), 0..90),
        statements in proptest::collection::vec((arb_statement(), arb_where()), 1..5),
        design in 0usize..4,
    ) {
        // Without the `jaguar-worker` binary (cargo build --workspace) the
        // isolated designs' cases run under their in-process siblings.
        let isolated = find_worker_binary().is_ok();
        let udf = DESIGNS[if isolated { design } else { design & !1 }];
        for dop in [1, 2] {
            let (written, twin) = (db(&rows, dop), db(&rows, dop));
            for (statement, (as_written, as_twin)) in &statements {
                let spell = |w: &str| statement.replace("{where}", w).replace("{udf}", udf);
                let (sql, twin_sql) = (spell(as_written), spell(as_twin));
                let plan = written.explain(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                let twin_plan = twin.explain(&twin_sql).unwrap();
                prop_assert!(!twin_plan.contains("[at scan]"), "{}", twin_plan);
                let a = outcome(written.execute(&sql));
                let b = outcome(twin.execute(&twin_sql));
                prop_assert_eq!(&a, &b, "dop {}: {}\nvs {}\n{}", dop, &sql, &twin_sql, &plan);
                prop_assert!(contents(&written) == contents(&twin), "after {}", &sql);
            }
        }
    }
}

/// The proptest above is not vacuous: statements of its shapes do push
/// conjuncts, over tables that do go parallel, and do fail on NaN.
#[test]
fn the_shapes_under_test_push_spill_fail_and_go_parallel() {
    let rows: Vec<Row> = (0..80)
        .map(|n| Row {
            i: (n % 5 != 0).then_some(n % 7 - 3),
            f: (n % 4 != 0).then_some(if n == 41 { f64::NAN } else { n as f64 * 0.25 }),
            b: Some(n % 2 == 0),
            name: Some((n % 3) as u8),
            blob: if n % 10 == 3 { 2_500 } else { 200 },
            deleted: n % 6 == 0,
        })
        .collect();
    let db = db(&rows, 2);
    let plan = db
        .explain("SELECT id FROM t WHERE 0 <= i AND b = TRUE AND i + 0 < 3 AND f < 9.5")
        .unwrap();
    for line in [
        "  Gather (dop=2)",
        "    Filter[0] [at scan] (0 <= i)",
        "    Filter[1] [at scan] (b = true)",
        "    Filter[2] ((i + 0) < 3)",
        "    Filter[3] (f < 9.5)",
        "    SeqScan t [id, i, f] (66 rows)",
        "scan judges 2 conjunct(s) on record bytes",
    ] {
        assert!(plan.contains(line), "{line}:\n{plan}");
    }
    // A grouped shape aggregates at the scan, in each morsel of a Gather.
    let grouped = db
        .explain("SELECT name, COUNT(*), MIN(i) FROM t WHERE i >= 0 GROUP BY name")
        .unwrap();
    for line in [
        "  Aggregate 1 group expr(s), 2 aggregate(s) [count(*), min] [at scan]",
        "  Gather (dop=2)",
        "    Filter[0] [at scan] (i >= 0)",
    ] {
        assert!(grouped.contains(line), "{line}:\n{grouped}");
    }
    let spilled = db.execute("SELECT blob FROM t WHERE i >= 2").unwrap();
    assert!(spilled.rows.iter().any(|r| r.heap_size() == 2_500));
    assert_eq!(spilled.stats.rows_scanned, 66);
    let before = db.metrics().counter("sql.scan.rows_rejected_at_scan");
    let err = db.execute("SELECT id FROM t WHERE f < 100.0").unwrap_err();
    assert_eq!(
        err.to_string(),
        "execution error: cannot compare NaN with 100"
    );
    // The NaN lies behind rows that pass: a LIMIT they satisfy never
    // reaches it, pushed or not.
    let first = db
        .execute("SELECT id FROM t WHERE f < 100.0 LIMIT 2")
        .unwrap();
    assert_eq!(first.rows.len(), 2);
    let none = db.execute("SELECT id FROM t WHERE i > 3").unwrap();
    assert!(none.rows.is_empty());
    let rejected = db.metrics().counter("sql.scan.rows_rejected_at_scan") - before;
    assert!(rejected >= 66, "{rejected} rows rejected at the scan");
}
