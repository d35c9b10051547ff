//! Column pruning never changes an answer.
//!
//! A scan decodes only the columns its statement reads and leaves NULL in
//! the other positions. Every statement shape here is run twice — as
//! written, and with a conjunct added that mentions every column and is
//! always true, which makes the scan decode everything — at dop 1 and 4
//! and UDF batch size 1 and 256, and all eight answers must be the same
//! bytes. The table has NULLs, an indexed INT column and byte arrays large
//! enough to spill to overflow pages. DML is checked against a model.

use jaguar_core::{
    ByteArray, Config, DataType, Database, SessionContext, Tuple, UdfDesign, UdfSignature, Value,
    Volatility,
};

const ROWS: i64 = 400;

/// Mentions every column of `t`; true for every row, NULLs included.
const EVERY_COLUMN: &str =
    "(id = id OR k = k OR name = name OR blob = blob OR score = score OR TRUE)";

fn row(i: i64) -> Vec<Value> {
    let opt = |null: bool, v: Value| if null { Value::Null } else { v };
    let blob_len = if i % 9 == 0 {
        10_000
    } else {
        40 + (i % 30) as usize
    };
    vec![
        Value::Int(i),
        opt(i % 11 == 0, Value::Int((i * 7) % 50)),
        opt(i % 5 == 0, Value::Str(format!("n{}", i % 4))),
        Value::Bytes(ByteArray::patterned(blob_len, i as u64)),
        opt(i % 6 == 0, Value::Float(i as f64 * 0.5 - 20.0)),
    ]
}

fn db(dop: usize, batch: usize) -> Database {
    let db = Database::with_config(Config::default().with_dop(dop).with_udf_batch_size(batch));
    db.execute("CREATE TABLE t (id INT, k INT, name VARCHAR, blob BYTEARRAY, score FLOAT)")
        .unwrap();
    let t = db.catalog().table("t").unwrap();
    for i in 0..ROWS {
        t.insert(Tuple::new(row(i))).unwrap();
    }
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    // `blen` is called (Stable: batchable, not inlined); `poly` is inlined.
    db.register_jagscript_udf_with_volatility(
        "blen",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        "fn main(b: bytes) -> i64 { return len(b) + b[0]; }",
        UdfDesign::Sandboxed,
        Volatility::Stable,
    )
    .unwrap();
    db.register_jagscript_udf_with_volatility(
        "poly",
        UdfSignature::new(vec![DataType::Int, DataType::Int], DataType::Int),
        "fn main(a: i64, b: i64) -> i64 { if a < b { return a * 3 + b; } return a - b; }",
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )
    .unwrap();
    db.set_table_label("t", Some("name = session.tenant OR session.role = 'admin'"))
        .unwrap();
    db.set_column_label("t", "blob", Some("session.clearance = 'high'"))
        .unwrap();
    db
}

/// Sees only rows named `n1`; the row label reads `name` for it.
fn tenant() -> SessionContext {
    SessionContext::new("alice")
        .with_attr("tenant", "n1")
        .with_attr("role", "member")
        .with_attr("clearance", "high")
}

/// Sees every row, but not the `blob` column.
fn auditor() -> SessionContext {
    SessionContext::new("bob")
        .with_attr("tenant", "-")
        .with_attr("role", "admin")
        .with_attr("clearance", "low")
}

/// One statement, in parts, so the all-columns conjunct can be spliced in.
struct Shape {
    what: &'static str,
    head: &'static str,
    pred: Option<&'static str>,
    tail: &'static str,
    session: Option<SessionContext>,
    /// The scan as EXPLAIN must name it for the statement as written.
    scan: &'static str,
}

impl Shape {
    fn sql(&self, every_column: bool) -> String {
        let pred = match (self.pred, every_column) {
            (Some(p), true) => format!(" WHERE {p} AND {EVERY_COLUMN}"),
            (None, true) => format!(" WHERE {EVERY_COLUMN}"),
            (Some(p), false) => format!(" WHERE {p}"),
            (None, false) => String::new(),
        };
        format!("{}{pred} {}", self.head, self.tail)
    }
}

fn shapes() -> Vec<Shape> {
    let shape = |what, head, pred, tail, scan| Shape {
        what,
        head,
        pred,
        tail,
        session: None,
        scan,
    };
    vec![
        shape("star", "SELECT * FROM t", None, "", "SeqScan t [*]"),
        shape(
            "projection subset",
            "SELECT id, name FROM t",
            None,
            "",
            "SeqScan t [id, name]",
        ),
        shape(
            "spilled blobs, projected",
            "SELECT blob FROM t",
            Some("id % 3 = 0"),
            "",
            "SeqScan t [id, blob]",
        ),
        shape(
            "column only in a conjunct the scan judges",
            "SELECT id FROM t",
            Some("score > 10.0"),
            "",
            "SeqScan t [id]",
        ),
        shape(
            "columns only as aggregate arguments",
            "SELECT SUM(id), COUNT(score), MIN(name) FROM t",
            None,
            "",
            "SeqScan t [id, name, score]",
        ),
        shape(
            "no column at all",
            "SELECT COUNT(*) FROM t",
            None,
            "",
            "SeqScan t []",
        ),
        shape(
            "column only in GROUP BY",
            "SELECT name, COUNT(*) FROM t",
            None,
            "GROUP BY name",
            "SeqScan t [name]",
        ),
        shape(
            "column only as a called UDF's argument",
            "SELECT id, blen(blob) FROM t",
            None,
            "",
            "SeqScan t [id, blob]",
        ),
        shape(
            "column only as an inlined UDF's argument",
            "SELECT name, poly(id, 7) FROM t",
            Some("poly(id, 300) > 350"),
            "",
            "SeqScan t [id, name]",
        ),
        shape(
            "HAVING and ORDER BY over outputs",
            "SELECT k, COUNT(*) AS n, SUM(score) AS s FROM t",
            Some("id >= 10"),
            "GROUP BY k HAVING n > 2 ORDER BY n DESC, k",
            "SeqScan t [k, score]",
        ),
        shape(
            "index range",
            "SELECT id, name FROM t",
            Some("k >= 10 AND k < 20"),
            "",
            "IndexScan t [id, name] via t_k [10, 20)",
        ),
        Shape {
            session: Some(tenant()),
            ..shape(
                "row label reads a column the query does not mention",
                "SELECT id FROM t",
                None,
                "",
                "SeqScan t [id, name]",
            )
        },
        Shape {
            session: Some(auditor()),
            ..shape(
                "column label prunes the star",
                "SELECT * FROM t",
                None,
                "",
                "SeqScan t [id, k, name, score]",
            )
        },
    ]
}

fn bytes_of(rows: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        jaguar_common::stream::write_tuple(&mut out, r).unwrap();
    }
    out
}

#[test]
fn every_shape_answers_the_same_pruned_or_not() {
    let dbs: Vec<(usize, usize, Database)> = [(1, 1), (1, 256), (4, 1), (4, 256)]
        .into_iter()
        .map(|(dop, batch)| (dop, batch, db(dop, batch)))
        .collect();
    for shape in shapes() {
        let session = shape.session.as_ref();
        // The auditor may not name `blob`, so that twin is the system
        // principal reading the four visible columns through a full scan.
        let (full_sql, full_session) = if shape.what == "column label prunes the star" {
            let sql = format!("SELECT id, k, name, score FROM t WHERE {EVERY_COLUMN}");
            (sql, None)
        } else {
            (shape.sql(true), session)
        };
        let pruned_sql = shape.sql(false);
        let mut expect: Option<Vec<u8>> = None;
        for (dop, batch, db) in &dbs {
            let at = format!("{} (dop {dop}, batch {batch})", shape.what);
            let plan = db.explain_as(&pruned_sql, session).unwrap();
            assert!(plan.contains(shape.scan), "{at}:\n{plan}");
            let plan = db.explain_as(&full_sql, full_session).unwrap();
            assert!(
                plan.contains(" t [*]"),
                "{at}: twin must decode all\n{plan}"
            );

            let full = db.execute_as(&full_sql, full_session).unwrap();
            let pruned = db.execute_as(&pruned_sql, session).unwrap();
            assert!(!full.rows.is_empty(), "{at}: vacuous");
            let expect = expect.get_or_insert_with(|| bytes_of(&full.rows));
            assert!(bytes_of(&full.rows) == *expect, "{at}: full scan differs");
            assert!(bytes_of(&pruned.rows) == *expect, "{at}: pruned differs");
            assert_eq!(pruned.stats.rows_scanned, full.stats.rows_scanned, "{at}");
        }
    }
}

/// The table's rows by id, every column, through a full scan.
fn snapshot(db: &Database) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (db.execute("SELECT * FROM t").unwrap().rows.into_iter())
        .map(Tuple::into_values)
        .collect();
    rows.sort_by_key(|r| r[0].as_int().unwrap());
    rows
}

/// Every `k` the model holds is found through the index, and only there.
fn assert_index_in_step(db: &Database, model: &[Vec<Value>]) {
    for key in 0..60 {
        let sql = format!("SELECT id FROM t WHERE k = {key}");
        assert!(db.explain(&sql).unwrap().contains("IndexScan"), "{sql}");
        let r = db.execute(&sql).unwrap();
        let mut got = r.int_column(0).unwrap();
        got.sort_unstable();
        let want: Vec<i64> = (model.iter())
            .filter(|r| r[1] == Value::Int(key))
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, want, "{sql}");
        assert_eq!(
            r.stats.rows_scanned,
            want.len() as u64,
            "stale entry: {sql}"
        );
    }
}

/// UPDATE rewrites whole rows, so it must scan whole rows: the columns it
/// neither reads nor assigns — spilled blobs among them — come back intact.
#[test]
fn update_keeps_unreferenced_columns_and_the_index() {
    let db = db(1, 1);
    let mut model = snapshot(&db);
    let r = db
        .execute("UPDATE t SET k = k + 1 WHERE score > 0.0")
        .unwrap();
    let mut touched = 0;
    for row in &mut model {
        if matches!(row[4], Value::Float(s) if s > 0.0) {
            touched += 1;
            if let Value::Int(k) = row[1] {
                row[1] = Value::Int(k + 1);
            }
        }
    }
    assert!(
        touched > 100 && r.affected == touched,
        "{} rows",
        r.affected
    );
    assert!(
        model == snapshot(&db),
        "UPDATE damaged a column it did not assign"
    );
    assert_index_in_step(&db, &model);
}

/// DELETE scans only its predicate's columns; the index entries of the
/// rows it removes are found from the stored records all the same.
#[test]
fn delete_on_an_unindexed_column_keeps_the_index_in_step() {
    let db = db(1, 1);
    let mut model = snapshot(&db);
    let r = db.execute("DELETE FROM t WHERE name = 'n3'").unwrap();
    model.retain(|row| row[2] != Value::Str("n3".into()));
    assert_eq!(r.affected as usize, ROWS as usize - model.len());
    assert!(r.affected > 50);
    assert!(model == snapshot(&db));
    assert_index_in_step(&db, &model);
}
