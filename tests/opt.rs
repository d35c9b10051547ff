//! jaguar-opt integration: Froid-style inlining, deterministic result
//! memoization, and cost/selectivity predicate reordering, exercised
//! through the SQL engine end to end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jaguar_core::{Config, DataType, Database, Tuple, UdfDesign, UdfSignature, Value, Volatility};

/// A straight-line JagScript body: arithmetic + comparison + conditional,
/// no loops, no callbacks — exactly the shape the inliner accepts.
const POLY_SRC: &str = "fn main(a: i64, b: i64) -> i64 {
    if a < b { return a * 3 + b; }
    return a - b;
}";

fn poly_native(a: i64, b: i64) -> i64 {
    if a < b {
        a * 3 + b
    } else {
        a - b
    }
}

fn db_with_rows(config: Config, rows: i64) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    let t = db.catalog().table("t").unwrap();
    for i in 0..rows {
        t.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 17)]))
            .unwrap();
    }
    db
}

/// Tentpole acceptance: an inlinable Immutable JagScript UDF never
/// instantiates a backend — no VM entry (vm_instructions stays zero), no
/// sandboxed invocation counters, no worker spawn — and still computes
/// the right answers.
#[test]
fn inlined_udf_never_instantiates_backend() {
    let db = db_with_rows(Config::default(), 50);
    db.register_jagscript_udf_with_volatility(
        "poly_inl",
        UdfSignature::new(vec![DataType::Int, DataType::Int], DataType::Int),
        POLY_SRC,
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )
    .unwrap();
    let before = db.metrics();
    let r = db.execute("SELECT a, poly_inl(a, b) FROM t").unwrap();
    let after = db.metrics();
    assert_eq!(r.rows.len(), 50);
    for row in &r.rows {
        let a = row.get(0).unwrap().as_int().unwrap();
        let got = row.get(1).unwrap().as_int().unwrap();
        assert_eq!(got, poly_native(a, a % 17), "wrong inlined result");
    }
    // The backend was elided entirely.
    assert_eq!(
        r.stats.udf_invocations, 0,
        "inlined calls are not backend calls"
    );
    assert_eq!(r.stats.vm_instructions, 0, "no VM ever ran");
    assert_eq!(
        after.counter("udf.invocations.jsm"),
        before.counter("udf.invocations.jsm"),
        "sandboxed invocation counter moved"
    );
    assert_eq!(
        after.counter("pool.spawns"),
        before.counter("pool.spawns"),
        "a worker was spawned for an inlined UDF"
    );
    // And the plan says so.
    let txt = db.explain("SELECT poly_inl(a, b) FROM t").unwrap();
    assert!(txt.contains("[inlined]"), "{txt}");
    assert!(txt.contains("-- plan notes:"), "{txt}");
    assert!(txt.contains("inline poly_inl"), "{txt}");
}

/// The inlined expression must be byte-identical to the VM call path:
/// same rows for every input, and the same error text when the body
/// traps (integer divide by zero).
#[test]
fn inlined_matches_vm_called_rows_and_errors() {
    let db = db_with_rows(Config::default(), 120);
    let sig = UdfSignature::new(vec![DataType::Int, DataType::Int], DataType::Int);
    // Same module, two volatility declarations: Immutable inlines,
    // Stable stays on the VM call path.
    db.register_jagscript_udf_with_volatility(
        "p_inl",
        sig.clone(),
        POLY_SRC,
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )
    .unwrap();
    db.register_jagscript_udf_with_volatility(
        "p_vm",
        sig.clone(),
        POLY_SRC,
        UdfDesign::Sandboxed,
        Volatility::Stable,
    )
    .unwrap();
    let a = db.execute("SELECT p_inl(a, b) FROM t").unwrap();
    let b = db.execute("SELECT p_vm(a, b) FROM t").unwrap();
    assert_eq!(a.rows, b.rows, "inlined vs called rows diverged");

    // A trapping body: divides by (a - 7), so the row a=7 traps.
    let trap_src = "fn main(a: i64) -> i64 { return 1000 / (a - 7); }";
    let tsig = UdfSignature::new(vec![DataType::Int], DataType::Int);
    db.register_jagscript_udf_with_volatility(
        "t_inl",
        tsig.clone(),
        trap_src,
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )
    .unwrap();
    db.register_jagscript_udf_with_volatility(
        "t_vm",
        tsig,
        trap_src,
        UdfDesign::Sandboxed,
        Volatility::Stable,
    )
    .unwrap();
    let e1 = db.execute("SELECT t_inl(a) FROM t").unwrap_err();
    let e2 = db.execute("SELECT t_vm(a) FROM t").unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string(), "trap text diverged");
}

/// Bodies the inliner cannot prove straight-line (loops, callbacks) bail
/// to the call path — noted in the plan, still executed correctly.
#[test]
fn unsupported_shapes_bail_to_call_path() {
    let db = db_with_rows(Config::default(), 10);
    db.register_jagscript_udf_with_volatility(
        "loopy",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        "fn main(n: i64) -> i64 {
            let s: i64 = 0;
            let i: i64 = 0;
            while i < n { s = s + i; i = i + 1; }
            return s;
        }",
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )
    .unwrap();
    let txt = db.explain("SELECT loopy(a) FROM t").unwrap();
    assert!(txt.contains("inline loopy skipped"), "{txt}");
    assert!(!txt.contains("[inlined]"), "{txt}");
    let r = db.execute("SELECT loopy(a) FROM t WHERE a = 4").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(6));
    assert!(r.stats.udf_invocations > 0, "must run in the sandbox");
}

/// Memoization: an Immutable (non-inlinable: native) UDF's repeated
/// argument values are served from the cache — the closure runs once per
/// distinct key, and `opt.memo.hits` ticks for the rest.
#[test]
fn memo_serves_repeated_keys_without_invoking() {
    let db = db_with_rows(Config::default(), 200);
    let calls = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&calls);
    db.register_native_udf_with_volatility(
        "memome",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        Volatility::Immutable,
        move |args, _| {
            c2.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Int(args[0].as_int()? * 10))
        },
    );
    let before = db.metrics();
    // b = a % 17: only 17 distinct keys across 200 rows.
    let r = db.execute("SELECT memome(b) FROM t").unwrap();
    let after = db.metrics();
    assert_eq!(r.rows.len(), 200);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        17,
        "one backend call per distinct key"
    );
    assert_eq!(
        after.counter("opt.memo.hits") - before.counter("opt.memo.hits"),
        200 - 17,
        "every repeat is a hit"
    );
    // Results are right (hits return the cached value, not a stale one).
    for row in &r.rows {
        let v = row.get(0).unwrap().as_int().unwrap();
        assert_eq!(v % 10, 0);
    }
    // A second statement reuses the engine-lifetime cache: zero new calls.
    let r2 = db.execute("SELECT memome(b) FROM t").unwrap();
    assert_eq!(r2.rows, r.rows);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        17,
        "cache is cross-statement"
    );
}

/// `udf_memo_bytes = 0` disables the cache: every row invokes.
#[test]
fn memo_disabled_by_config() {
    let db = db_with_rows(Config::default().with_udf_memo_bytes(0), 100);
    let calls = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&calls);
    db.register_native_udf_with_volatility(
        "nomemo",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        Volatility::Immutable,
        move |args, _| {
            c2.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Int(args[0].as_int()? + 1))
        },
    );
    let r = db.execute("SELECT nomemo(b) FROM t").unwrap();
    assert_eq!(r.rows.len(), 100);
    assert_eq!(calls.load(Ordering::Relaxed), 100, "memo must be off");
    let txt = db.explain("SELECT nomemo(b) FROM t").unwrap();
    assert!(txt.contains("memo nomemo: disabled"), "{txt}");
}

/// Stable and Volatile UDFs are never memoized — only Immutable is.
#[test]
fn memo_excludes_stable_and_volatile() {
    let db = db_with_rows(Config::default(), 100);
    for (name, vol) in [("st", Volatility::Stable), ("vo", Volatility::Volatile)] {
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&calls);
        db.register_native_udf_with_volatility(
            name,
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            vol,
            move |args, _| {
                c2.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Int(args[0].as_int()?))
            },
        );
        db.execute(&format!("SELECT {name}(b) FROM t")).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            100,
            "{name}: non-immutable UDFs must invoke every row"
        );
    }
}

/// Satellite regression: a Volatile UDF in WHERE keeps its written
/// position — it is not reordered past cheaper predicates, at the engine
/// level (the planner-level twin lives in jaguar-sql's plan tests).
#[test]
fn volatile_udf_keeps_written_order_end_to_end() {
    let db = db_with_rows(Config::default(), 150);
    let calls = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&calls);
    // Default registration is Volatile.
    db.register_native_udf(
        "counting",
        UdfSignature::new(vec![DataType::Int], DataType::Bool),
        move |args, _| {
            c2.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Bool(args[0].as_int()? % 2 == 0))
        },
    );
    // Written first → must run first, on every row, despite `a < 10`
    // being far cheaper.
    let r = db
        .execute("SELECT a FROM t WHERE counting(a) = TRUE AND a < 10")
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        150,
        "volatile UDF must see every scanned row (written order pinned)"
    );
    // And it is exempt from memoization even with repeating arguments.
    calls.store(0, Ordering::SeqCst);
    db.execute("SELECT counting(b) FROM t").unwrap();
    assert_eq!(
        calls.load(Ordering::Relaxed),
        150,
        "volatile never memoized"
    );
}

/// After warm-up, the reorder pass runs the more selective of two
/// equal-cost Stable UDF predicates first (rank = cost / (1 - sel)).
#[test]
fn selectivity_reorders_equal_cost_predicates() {
    let db = db_with_rows(Config::default(), 200);
    let rare_calls = Arc::new(AtomicU64::new(0));
    let wide_calls = Arc::new(AtomicU64::new(0));
    let (r2, w2) = (Arc::clone(&rare_calls), Arc::clone(&wide_calls));
    db.register_native_udf_with_volatility(
        "rare",
        UdfSignature::new(vec![DataType::Int], DataType::Bool),
        Volatility::Stable,
        move |args, _| {
            r2.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Bool(args[0].as_int()? < 5))
        },
    );
    db.register_native_udf_with_volatility(
        "wide",
        UdfSignature::new(vec![DataType::Int], DataType::Bool),
        Volatility::Stable,
        move |args, _| {
            w2.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Bool(args[0].as_int()? >= 0))
        },
    );
    let q = "SELECT a FROM t WHERE wide(a) = TRUE AND rare(a) = TRUE";
    // Cold: no selectivity stats, equal static costs → written order.
    let r = db.execute(q).unwrap();
    assert_eq!(r.rows.len(), 5);
    // Warm-up accumulated 200 samples per predicate. Re-plan: `rare`
    // (sel ≈ 0.025) now ranks far below `wide` (sel ≈ 1.0) and moves
    // first, so `wide` only sees the 5 surviving rows.
    wide_calls.store(0, Ordering::SeqCst);
    rare_calls.store(0, Ordering::SeqCst);
    let r = db.execute(q).unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(rare_calls.load(Ordering::Relaxed), 200);
    assert_eq!(
        wide_calls.load(Ordering::Relaxed),
        5,
        "selective predicate must run first after warm-up"
    );
    let txt = db.explain(q).unwrap();
    assert!(txt.contains("[reordered]"), "{txt}");
    assert!(txt.contains("reorder: moved"), "{txt}");
}

/// Satellite bugfix: plain `EXPLAIN` (not ANALYZE) carries the one-line
/// plan-notes trailer with the optimizer's decisions.
#[test]
fn explain_statement_carries_plan_notes() {
    let db = db_with_rows(Config::default(), 20);
    db.register_jagscript_udf_with_volatility(
        "noted",
        UdfSignature::new(vec![DataType::Int, DataType::Int], DataType::Int),
        POLY_SRC,
        UdfDesign::Sandboxed,
        Volatility::Immutable,
    )
    .unwrap();
    let r = db.execute("EXPLAIN SELECT noted(a, b) FROM t").unwrap();
    let txt: Vec<String> = r
        .rows
        .iter()
        .map(|t| t.get(0).unwrap().as_str().unwrap().to_string())
        .collect();
    let joined = txt.join("\n");
    assert!(
        joined.contains("-- plan notes:"),
        "EXPLAIN must carry the notes trailer: {joined}"
    );
    assert!(joined.contains("inline noted"), "{joined}");
    // UDF-free plans that read every column and leave the scan nothing to
    // judge stay trailer-free (dop=1 so no parallel note either); reading
    // fewer columns and judging conjuncts at the scan are what is noted.
    let db = db_with_rows(Config::default().with_dop(1), 20);
    let plain = |sql: &str| -> Vec<String> {
        let r = db.execute(sql).unwrap();
        (r.rows.iter())
            .map(|t| t.get(0).unwrap().as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        plain("EXPLAIN SELECT a, b FROM t WHERE a + 0 < 3"),
        [
            "Project 2 column(s)",
            "  Filter[0] ((a + 0) < 3)",
            "  SeqScan t [*] (20 rows)"
        ]
    );
    assert_eq!(
        plain("EXPLAIN SELECT a FROM t WHERE a + 0 < 3"),
        [
            "Project 1 column(s)",
            "  Filter[0] ((a + 0) < 3)",
            "  SeqScan t [a] (20 rows)",
            "-- plan notes: scan decodes 1 of 2 columns"
        ]
    );
    assert_eq!(
        plain("EXPLAIN SELECT a FROM t WHERE a < 3 AND b + 0 > 1"),
        [
            "Project 1 column(s)",
            "  Filter[0] [at scan] (a < 3)",
            "  Filter[1] ((b + 0) > 1)",
            "  SeqScan t [*] (20 rows)",
            "-- plan notes: scan judges 1 conjunct(s) on record bytes"
        ]
    );
}

/// EXPLAIN ANALYZE surfaces memo hit/miss deltas for the statement.
#[test]
fn explain_analyze_reports_memo_activity() {
    let db = db_with_rows(Config::default(), 120);
    db.register_native_udf_with_volatility(
        "cached",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        Volatility::Immutable,
        |args, _| Ok(Value::Int(args[0].as_int()? * 2)),
    );
    let r = db
        .execute("EXPLAIN ANALYZE SELECT cached(b) FROM t")
        .unwrap();
    let joined: Vec<String> = r
        .rows
        .iter()
        .map(|t| t.get(0).unwrap().as_str().unwrap().to_string())
        .collect();
    let joined = joined.join("\n");
    assert!(joined.contains("Memo: hits="), "{joined}");
}

/// Memoized execution under morsel-driven parallelism stays correct: the
/// cache is shared across the worker team and results match serial.
#[test]
fn memo_correct_under_parallel_execution() {
    let serial = db_with_rows(Config::default().with_dop(1), 2000);
    let parallel = db_with_rows(Config::default().with_dop(4), 2000);
    for db in [&serial, &parallel] {
        db.register_native_udf_with_volatility(
            "pmemo",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            Volatility::Immutable,
            |args, _| Ok(Value::Int(args[0].as_int()? * 7 + 1)),
        );
    }
    let q = "SELECT a, pmemo(b) FROM t WHERE a % 3 <> 1";
    let a = serial.execute(q).unwrap();
    let b = parallel.execute(q).unwrap();
    let norm = |rows: &[Tuple]| {
        let mut v: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(norm(&a.rows), norm(&b.rows), "parallel memo diverged");
}

/// Property: memoized results are never wrong — for random argument
/// streams (with heavy key reuse) the memoized engine computes exactly
/// what a memo-off engine computes, row for row.
#[test]
fn memo_never_wrong_randomized() {
    use jaguar_common::rng::SplitMix64;
    let mut rng = SplitMix64::new(0xC0FFEE);
    let on = Database::with_config(Config::default());
    let off = Database::with_config(Config::default().with_udf_memo_bytes(0));
    for db in [&on, &off] {
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.register_native_udf_with_volatility(
            "f",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            Volatility::Immutable,
            |args, _| {
                let v = args[0].as_int()?;
                Ok(Value::Int(v.wrapping_mul(2654435761).rotate_left(7)))
            },
        );
    }
    // Zipf-ish key stream: many repeats of a few keys, a tail of rares.
    let mut keys = Vec::new();
    for _ in 0..300 {
        let k = if rng.next_below(10) < 8 {
            rng.next_below(12) as i64
        } else {
            rng.next_u64() as i64 % 100_000
        };
        keys.push(k);
    }
    for db in [&on, &off] {
        let t = db.catalog().table("t").unwrap();
        for k in &keys {
            t.insert(Tuple::new(vec![Value::Int(*k)])).unwrap();
        }
    }
    let a = on.execute("SELECT f(a) FROM t").unwrap();
    let b = off.execute("SELECT f(a) FROM t").unwrap();
    assert_eq!(a.rows, b.rows, "memoized results diverged from direct");
}

// ---------------------------------------------------------------------
// inlined ≡ called, for bodies that read their byte-array argument
// ---------------------------------------------------------------------

mod inline_differential {
    use super::*;
    use jaguar_core::ByteArray;
    use proptest::prelude::*;

    /// A random integer expression over `x`, `y`, the locals defined so
    /// far, `len(b)` and `b[…]`, rendered as JagScript. Divisions and byte
    /// reads trap on some rows; which trap fires first is part of what must
    /// match.
    fn arb_expr(locals: usize, depth: u32) -> BoxedStrategy<String> {
        let mut leaves = vec![
            proptest::boxed((-3i64..300).prop_map(|c| format!("({c})"))),
            proptest::boxed(Just("x".to_string())),
            proptest::boxed(Just("y".to_string())),
            proptest::boxed(Just("len(b)".to_string())),
            proptest::boxed((0i64..3).prop_map(|c| format!("b[{c}]"))),
        ];
        for l in 0..locals {
            leaves.push(proptest::boxed(Just(format!("t{l}"))));
        }
        if depth == 0 {
            return proptest::boxed(proptest::union(leaves));
        }
        let sub = || arb_expr(locals, depth - 1);
        let ops = prop_oneof![
            Just("+"),
            Just("-"),
            Just("*"),
            Just("/"),
            Just("%"),
            Just("/"),
        ];
        leaves.push(proptest::boxed(
            (sub(), ops, sub()).prop_map(|(l, op, r)| format!("({l} {op} {r})")),
        ));
        leaves.push(proptest::boxed(sub().prop_map(|i| format!("b[{i}]"))));
        leaves.push(proptest::boxed(
            sub().prop_map(|i| format!("b[len(b) - {i}]")),
        ));
        proptest::boxed(proptest::union(leaves))
    }

    /// A straight-line body: two locals (the first possibly never read —
    /// it must trap all the same), a conditional return, a return.
    fn arb_body() -> impl Strategy<Value = String> {
        let cmp = prop_oneof![Just("<"), Just("=="), Just(">="), Just("!=")];
        (
            (arb_expr(0, 2), arb_expr(1, 2)),
            (arb_expr(2, 1), cmp, arb_expr(2, 1)),
            (arb_expr(2, 2), arb_expr(2, 2)),
        )
            .prop_map(|((t0, t1), (l, cmp, r), (then, otherwise))| {
                format!(
                    "fn main(b: bytes, x: i64, y: i64) -> i64 {{
                        let t0: i64 = {t0};
                        let t1: i64 = {t1};
                        if {l} {cmp} {r} {{ return {then}; }}
                        return {otherwise};
                    }}"
                )
            })
    }

    /// Empty, one-byte and long arrays; indices and divisors around zero
    /// and around the array bounds.
    fn rows() -> Vec<(Vec<u8>, i64, i64)> {
        let long: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut rows = Vec::new();
        for data in [vec![], vec![200u8], long] {
            for (x, y) in [(0, 0), (1, 2), (-1, 1), (299, -7), (300, 3), (2, 0)] {
                rows.push((data.clone(), x, y));
            }
        }
        rows
    }

    fn db(src: &str, isolated: bool) -> Database {
        // A trap in a worker reaches the engine as a worker error, which the
        // circuit breaker counts; these bodies trap on purpose, row after row.
        let mut config = Config::default().with_dop(1).with_pooled_executors(1);
        config.udf_breaker_threshold = 0;
        let db = Database::with_config(config);
        db.execute("CREATE TABLE t (id INT, b BYTEARRAY, x INT, y INT)")
            .unwrap();
        let t = db.catalog().table("t").unwrap();
        for (id, (data, x, y)) in rows().into_iter().enumerate() {
            t.insert(Tuple::new(vec![
                Value::Int(id as i64),
                Value::Bytes(ByteArray::new(data)),
                Value::Int(x),
                Value::Int(y),
            ]))
            .unwrap();
        }
        let sig = || {
            UdfSignature::new(
                vec![DataType::Bytes, DataType::Int, DataType::Int],
                DataType::Int,
            )
        };
        let mut variants = vec![
            ("inl3", UdfDesign::Sandboxed, Volatility::Immutable),
            ("vm3", UdfDesign::Sandboxed, Volatility::Stable),
        ];
        if isolated {
            variants.push(("inl4", UdfDesign::SandboxedIsolated, Volatility::Immutable));
            variants.push(("vm4", UdfDesign::SandboxedIsolated, Volatility::Stable));
        }
        for (name, design, volatility) in variants {
            db.register_jagscript_udf_with_volatility(name, sig(), src, design, volatility)
                .unwrap();
        }
        db
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Row by row, the inlined body (registered under Design 3 and
        /// under Design 4) returns what the sandbox returns when called
        /// under Design 3 — value or error text — and what it returns when
        /// called in a worker under Design 4, whose transport wraps the
        /// same trap text.
        #[test]
        fn inlined_byte_reading_bodies_match_the_called_ones(src in arb_body()) {
            let isolated = jaguar_ipc::find_worker_binary().is_ok();
            let db = db(&src, isolated);
            let plan = db.explain("SELECT inl3(b, x, y) FROM t").unwrap();
            prop_assert!(plan.contains("inl3[JSM](b, x, y) [inlined]"), "{}\n{}", plan, src);
            for id in 0..rows().len() {
                let run = |udf: &str| {
                    let r = db.execute(&format!("SELECT {udf}(b, x, y) FROM t WHERE id = {id}"));
                    r.map(|r| (r.rows[0].get(0).unwrap().clone(), r.stats.udf_invocations))
                        .map_err(|e| e.to_string())
                };
                let called = run("vm3");
                let value = |r: &Result<(Value, u64), String>| r.clone().map(|(v, _)| v);
                let inlined = run("inl3");
                prop_assert_eq!(value(&inlined), value(&called), "row {}\n{}", id, &src);
                prop_assert!(matches!(inlined, Err(_) | Ok((_, 0))), "backend reached");
                if isolated {
                    prop_assert_eq!(value(&run("inl4")), value(&called), "row {}\n{}", id, &src);
                    match (run("vm4"), &called) {
                        (Ok((v, _)), Ok((want, _))) => prop_assert_eq!(&v, want, "row {}\n{}", id, &src),
                        (Err(got), Err(want)) => {
                            let trap = want.strip_prefix("vm trap: ").unwrap_or(want);
                            prop_assert!(got.contains(trap), "row {}: {} vs {}\n{}", id, got, want, &src)
                        }
                        (got, want) => panic!("row {id}: {got:?} vs {want:?}\n{src}"),
                    }
                }
            }
        }
    }

    /// The sandbox refuses an argument its memory budget cannot hold before
    /// the body runs; the inlined body copies nothing and refuses it with
    /// the same words. NULL is refused likewise.
    #[test]
    fn inlined_body_refuses_what_the_sandbox_would_refuse() {
        let mut config = Config::default().with_dop(1);
        config.default_vm_memory = Some(200);
        let db = Database::with_config(config);
        db.execute("CREATE TABLE t (id INT, b BYTEARRAY)").unwrap();
        db.execute(&format!(
            "INSERT INTO t VALUES (0, X'{}')",
            "AB".repeat(200)
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO t VALUES (1, X'{}')",
            "AB".repeat(201)
        ))
        .unwrap();
        db.execute("INSERT INTO t VALUES (2, NULL)").unwrap();
        for (name, volatility) in [("inl", Volatility::Immutable), ("vm", Volatility::Stable)] {
            db.register_jagscript_udf_with_volatility(
                name,
                UdfSignature::new(vec![DataType::Bytes], DataType::Int),
                "fn main(b: bytes) -> i64 { return b[0] + len(b); }",
                UdfDesign::Sandboxed,
                volatility,
            )
            .unwrap();
        }
        let run = |udf: &str, id: i64| {
            let r = db.execute(&format!("SELECT {udf}(b) FROM t WHERE id = {id}"));
            r.map(|r| r.rows[0].clone()).map_err(|e| e.to_string())
        };
        assert_eq!(run("inl", 0), Ok(Tuple::new(vec![Value::Int(0xAB + 200)])));
        for id in 0..3 {
            assert_eq!(run("inl", id), run("vm", id), "row {id}");
        }
        assert!(run("inl", 1)
            .unwrap_err()
            .contains("memory: 201 bytes requested, limit 200"));
        assert!(run("inl", 2)
            .unwrap_err()
            .contains("cannot pass NULL to a VM UDF"));
    }
}
