//! Cross-design equivalence: the same UDF, executed under every design of
//! the paper's Table 1, must produce identical results. This is the
//! correctness backbone of the whole performance study — Figures 5-8 only
//! make sense if the designs compute the same function.

use jaguar_core::{ByteArray, Config, Database, JaguarError, Request, Tuple, Value};
use jaguar_ipc::find_worker_binary;
use jaguar_udf::generic::{
    def_isolated, def_isolated_vm, def_native, def_native_bc, def_native_sfi, def_vm,
    GenericParams, IdentityCallbacks,
};
use jaguar_udf::Volatility::{self, Immutable, Stable};
use jaguar_vm::ResourceLimits;

fn worker_available() -> bool {
    if find_worker_binary().is_err() {
        eprintln!("skipping isolated designs: jaguar-worker not built (cargo build --workspace)");
        false
    } else {
        true
    }
}

fn invoke(def: &jaguar_udf::UdfDef, args: &[Value]) -> Value {
    let mut u = def.instantiate().expect("instantiate");
    let out = u.invoke(args, &mut IdentityCallbacks).expect("invoke");
    u.finish().expect("finish");
    out
}

#[test]
fn all_designs_compute_the_same_generic_udf() {
    let cases = [
        (0usize, GenericParams::default()),
        (
            100,
            GenericParams {
                data_indep_comps: 57,
                data_dep_comps: 2,
                callbacks: 3,
            },
        ),
        (
            1000,
            GenericParams {
                data_indep_comps: 0,
                data_dep_comps: 1,
                callbacks: 0,
            },
        ),
        (
            64,
            GenericParams {
                data_indep_comps: 1,
                data_dep_comps: 0,
                callbacks: 10,
            },
        ),
    ];
    let with_worker = worker_available();
    for (i, (bytes, params)) in cases.into_iter().enumerate() {
        let data = ByteArray::patterned(bytes, i as u64 + 1);
        let args = params.args(data);

        let expected = invoke(&def_native(), &args);
        assert_eq!(invoke(&def_native_bc(), &args), expected, "BC case {i}");
        assert_eq!(invoke(&def_native_sfi(), &args), expected, "SFI case {i}");
        assert_eq!(
            invoke(&def_vm(true, ResourceLimits::default()), &args),
            expected,
            "VM-jit case {i}"
        );
        assert_eq!(
            invoke(&def_vm(false, ResourceLimits::default()), &args),
            expected,
            "VM-baseline case {i}"
        );
        if with_worker {
            assert_eq!(invoke(&def_isolated(), &args), expected, "IC++ case {i}");
            assert_eq!(
                invoke(&def_isolated_vm(true, ResourceLimits::default()), &args),
                expected,
                "IJSM case {i}"
            );
        }
    }
}

#[test]
fn equivalence_on_randomized_parameters() {
    use jaguar_common::rng::SplitMix64;
    let mut rng = SplitMix64::new(2024);
    let with_worker = worker_available();
    for round in 0..8 {
        let bytes = rng.next_below(300) as usize;
        let params = GenericParams {
            data_indep_comps: rng.next_below(200) as i64,
            data_dep_comps: rng.next_below(4) as i64,
            callbacks: rng.next_below(6) as i64,
        };
        let data = ByteArray::patterned(bytes, rng.next_u64());
        let args = params.args(data);
        let expected = invoke(&def_native(), &args);
        assert_eq!(
            invoke(&def_vm(true, ResourceLimits::default()), &args),
            expected,
            "round {round}: vm vs native for {params:?} bytes={bytes}"
        );
        assert_eq!(
            invoke(&def_native_bc(), &args),
            expected,
            "round {round}: bc vs native"
        );
        assert_eq!(
            invoke(&def_native_sfi(), &args),
            expected,
            "round {round}: sfi vs native"
        );
        if with_worker && round % 4 == 0 {
            assert_eq!(
                invoke(&def_isolated(), &args),
                expected,
                "round {round}: isolated vs native"
            );
        }
    }
}

/// A SQL database with `rows` rows and every generic-UDF design
/// registered, configured for the given degree of parallelism.
fn sql_db(dop: usize, rows: usize) -> Database {
    sql_db_batch(dop, rows, Config::default().udf_batch_size)
}

/// Like [`sql_db`], but with an explicit UDF batch size. `1` forces the
/// strict per-tuple path (the pre-vectorization behaviour), which the
/// batched-equivalence tests use as their reference.
fn sql_db_batch(dop: usize, rows: usize, batch: usize) -> Database {
    // Pool size = 4 so a dop=4 team of isolated executors is never
    // clamped — this test is about result equivalence, not saturation.
    let db = Database::with_config(
        Config::default()
            .with_dop(dop)
            .with_pooled_executors(4)
            .with_udf_batch_size(batch),
    );
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    db.register_udf(def_native());
    db.register_udf(def_vm(true, ResourceLimits::default()));
    db.register_udf(def_isolated());
    db.register_udf(def_isolated_vm(true, ResourceLimits::default()));
    db
}

/// Rows in a canonical order, so serial and parallel result sets can be
/// compared irrespective of output order.
fn normalized(rows: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
    out.sort();
    out
}

/// The cross-design equivalence queries, re-run at the SQL level under
/// dop=1 and dop=4: every design must produce the same (order-normalized)
/// result set at both degrees of parallelism.
#[test]
fn sql_equivalence_holds_at_dop_1_and_4_for_all_designs() {
    let with_worker = worker_available();
    let serial = sql_db(1, 700);
    let parallel = sql_db(4, 700);
    let designs: &[(&str, bool)] = &[
        ("generic", false),
        ("generic_vm", false),
        ("generic_ic", true),
        ("generic_ivm", true),
    ];
    for (udf, needs_worker) in designs {
        if *needs_worker && !with_worker {
            continue;
        }
        for shape in [
            format!("SELECT id, {udf}(bytearray, 7, 1, 1) FROM rel WHERE id % 3 <> 1"),
            format!("SELECT id, {udf}(bytearray, 0, 2, 0) AS v FROM rel WHERE id < 500 ORDER BY v, id LIMIT 40"),
            format!("SELECT id % 4 AS k, COUNT({udf}(bytearray, 1, 0, 2)) AS n FROM rel GROUP BY id % 4"),
        ] {
            let a = serial.execute(&shape).unwrap();
            let b = parallel.execute(&shape).unwrap();
            assert_eq!(
                normalized(&a.rows),
                normalized(&b.rows),
                "dop=1 vs dop=4 diverged for {udf}: {shape}"
            );
            assert_eq!(a.stats.udf_invocations, b.stats.udf_invocations, "{shape}");
        }
    }
}

/// A statement deadline that fires mid-Gather must stop every worker
/// thread and leave the engine immediately usable.
#[test]
fn parallel_deadline_aborts_cleanly_across_designs() {
    let db = Database::with_config(
        Config::default()
            .with_dop(4)
            .with_statement_timeout_ms(Some(150)),
    );
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..1000 {
        t.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    db.register_udf(def_vm(true, ResourceLimits::default()));
    // 2M data-independent comps per row: the scan cannot finish inside
    // the deadline, so it must abort mid-Gather (sandboxed UDFs notice
    // within a few thousand instructions).
    let err = db
        .execute("SELECT generic_vm(bytearray, 2000000, 0, 0) FROM rel")
        .unwrap_err();
    assert!(
        matches!(err, JaguarError::Timeout(_) | JaguarError::Cancelled(_)),
        "expected deadline abort, got: {err}"
    );
    let r = db.execute("SELECT COUNT(*) FROM rel").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(1000));
}

#[test]
fn isolated_worker_survives_many_invocations() {
    if !worker_available() {
        return;
    }
    let def = def_isolated();
    let mut u = def.instantiate().unwrap();
    let data = ByteArray::patterned(128, 5);
    for i in 0..200i64 {
        let params = GenericParams {
            data_indep_comps: i % 7,
            data_dep_comps: i % 3,
            callbacks: i % 2,
        };
        let out = u
            .invoke(&params.args(data.clone()), &mut IdentityCallbacks)
            .unwrap();
        assert!(matches!(out, Value::Int(_)));
    }
    u.finish().unwrap();
}

/// Tentpole acceptance: vectorized invocation must be byte-identical to
/// per-tuple invocation for every design — same rows in the same order,
/// same public row/invocation statistics. dop=1 on both sides so row
/// order is deterministic and the comparison is exact, not normalized.
#[test]
fn batched_invocation_is_byte_identical_to_per_tuple() {
    let with_worker = worker_available();
    let per_tuple = sql_db_batch(1, 700, 1);
    let batched = sql_db_batch(1, 700, 256);
    let designs: &[(&str, bool)] = &[
        ("generic", false),
        ("generic_vm", false),
        ("generic_ic", true),
        ("generic_ivm", true),
    ];
    for (udf, needs_worker) in designs {
        if *needs_worker && !with_worker {
            continue;
        }
        for shape in [
            format!("SELECT id, {udf}(bytearray, 7, 1, 1) FROM rel WHERE id % 3 <> 1"),
            // LIMIT after a SORT still batches: the sort materializes its
            // whole input, so batching cannot over-invoke past the limit.
            format!("SELECT id, {udf}(bytearray, 0, 2, 0) AS v FROM rel WHERE id < 500 ORDER BY v, id LIMIT 40"),
        ] {
            let a = per_tuple.execute(&shape).unwrap();
            let b = batched.execute(&shape).unwrap();
            assert_eq!(a.rows, b.rows, "rows diverged for {udf}: {shape}");
            assert_eq!(
                a.stats.udf_invocations, b.stats.udf_invocations,
                "invocation counts diverged for {udf}: {shape}"
            );
            assert_eq!(
                a.stats.rows_emitted, b.stats.rows_emitted,
                "rows_emitted diverged for {udf}: {shape}"
            );
            assert_eq!(
                a.stats.rows_scanned, b.stats.rows_scanned,
                "rows_scanned diverged for {udf}: {shape}"
            );
        }
    }
}

/// Batched and per-tuple execution must also agree under morsel-driven
/// parallelism (order-normalized: dop=4 output order is nondeterministic).
#[test]
fn batched_invocation_matches_per_tuple_at_dop_4() {
    let with_worker = worker_available();
    let per_tuple = sql_db_batch(4, 700, 1);
    let batched = sql_db_batch(4, 700, 256);
    for (udf, needs_worker) in [
        ("generic", false),
        ("generic_vm", false),
        ("generic_ic", true),
    ] {
        if needs_worker && !with_worker {
            continue;
        }
        let shape = format!("SELECT id, {udf}(bytearray, 3, 1, 0) FROM rel WHERE id % 3 <> 1");
        let a = per_tuple.execute(&shape).unwrap();
        let b = batched.execute(&shape).unwrap();
        assert_eq!(
            normalized(&a.rows),
            normalized(&b.rows),
            "dop=4 batched vs per-tuple diverged for {udf}"
        );
        assert_eq!(a.stats.udf_invocations, b.stats.udf_invocations, "{udf}");
    }
}

/// A SQL database with every design registered and the sandboxed designs
/// pinned to one engine: `compiled` runs the compiled register tier from
/// the first call, otherwise the Baseline interpreter (the reference the
/// compiled tier must match byte-for-byte).
fn tiered_db(rows: usize, compiled: bool) -> Database {
    let db = Database::with_config(Config::default().with_dop(1).with_pooled_executors(2));
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    let limits = ResourceLimits::default();
    db.register_udf(def_native());
    db.register_udf(def_isolated());
    db.register_udf(def_vm(compiled, limits));
    db.register_udf(def_isolated_vm(compiled, limits));
    db
}

/// The compiled tier must be byte-identical to the Baseline interpreter
/// at the SQL level, for every design — same rows in the same order, same
/// public statistics. (The native designs have one engine; they pin that
/// the choice is a no-op for them.)
#[test]
fn compiled_tier_is_byte_identical_to_baseline_across_designs() {
    // Two engines, not one: under `Jit` the generic module runs compiled.
    let generic = std::sync::Arc::new(jaguar_udf::generic::generic_module().verify().unwrap());
    let jit =
        jaguar_vm::Interpreter::new(generic, ResourceLimits::default(), jaguar_vm::ExecMode::Jit);
    assert!(jit.runs_compiled(jit.resolve("main").unwrap()));

    let with_worker = worker_available();
    let baseline = tiered_db(500, false);
    let compiled = tiered_db(500, true);
    let designs: &[(&str, bool)] = &[
        ("generic", false),
        ("generic_vm", false),
        ("generic_ic", true),
        ("generic_ivm", true),
    ];
    for (udf, needs_worker) in designs {
        if *needs_worker && !with_worker {
            continue;
        }
        for shape in [
            format!("SELECT id, {udf}(bytearray, 7, 1, 1) FROM rel WHERE id % 3 <> 1"),
            format!("SELECT id, {udf}(bytearray, 0, 2, 0) AS v FROM rel WHERE id < 300 ORDER BY v, id LIMIT 40"),
            format!("SELECT id % 4 AS k, COUNT({udf}(bytearray, 1, 0, 2)) AS n FROM rel GROUP BY id % 4"),
        ] {
            let a = baseline.execute(&shape).unwrap();
            let b = compiled.execute(&shape).unwrap();
            assert_eq!(a.rows, b.rows, "rows diverged for {udf}: {shape}");
            assert_eq!(
                a.stats.udf_invocations, b.stats.udf_invocations,
                "invocation counts diverged for {udf}: {shape}"
            );
            assert_eq!(
                a.stats.udf_callbacks, b.stats.udf_callbacks,
                "callback counts diverged for {udf}: {shape}"
            );
        }
    }
}

/// A database whose `edgy` native UDF fails on argument 137 and counts
/// every invocation through the shared counter — the probe for "rows
/// before the failing one still took effect".
fn edgy_db(batch: usize, calls: std::sync::Arc<std::sync::atomic::AtomicU64>) -> Database {
    use jaguar_core::DataType;
    let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(batch));
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let t = db.catalog().table("t").unwrap();
    for i in 0..200 {
        t.insert(Tuple::new(vec![Value::Int(i)])).unwrap();
    }
    let sig = jaguar_udf::UdfSignature::new(vec![DataType::Int], DataType::Int);
    let native = jaguar_udf::UdfImpl::closure(move |args, _| {
        calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let v = args[0].as_int()?;
        if v == 137 {
            return Err(JaguarError::Udf("edgy cannot digest 137".into()));
        }
        Ok(Value::Int(v * 2))
    });
    db.register_udf(
        jaguar_udf::UdfDef::new("edgy", sig, native)
            .with_volatility(jaguar_udf::Volatility::Stable),
    );
    db
}

/// Design 1 (trusted native) is exempt from batching — its crossing is
/// free, so the planner keeps it per-tuple at any configured batch size
/// (`UdfImpl::crossing_is_free`). A mid-relation error must therefore
/// surface identically under batch=1 and batch=256 configs: the same
/// error, after the same number of successful invocations.
#[test]
fn mid_batch_native_error_matches_per_tuple() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let c1 = Arc::new(AtomicU64::new(0));
    let c2 = Arc::new(AtomicU64::new(0));
    let per_tuple = edgy_db(1, Arc::clone(&c1));
    let batched = edgy_db(256, Arc::clone(&c2));
    let e1 = per_tuple.execute("SELECT edgy(a) FROM t").unwrap_err();
    let e2 = batched.execute("SELECT edgy(a) FROM t").unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string(), "error text diverged");
    let (n1, n2) = (c1.load(Ordering::SeqCst), c2.load(Ordering::SeqCst));
    assert_eq!(n1, n2, "rows invoked before the failure diverged");
    assert!(n1 > 1, "failure must come after earlier rows succeeded");
    // Both engines stay usable after the failed statement.
    assert_eq!(
        per_tuple.execute("SELECT COUNT(*) FROM t").unwrap().rows,
        batched.execute("SELECT COUNT(*) FROM t").unwrap().rows,
    );
}

/// The server checks every value a UDF returns against its declared type,
/// wherever the UDF ran: the registry's `liar` returns INT under a VARCHAR
/// signature, and its first row fails with one error in the server
/// (Design 1) and in a worker (Design 2), per tuple and batched. The worker
/// is not trusted to check its own values.
#[test]
fn a_udf_returning_the_wrong_type_fails_its_row_in_the_server_and_in_a_worker() {
    use jaguar_core::DataType;
    use jaguar_udf::{Placement, UdfDef, UdfImpl, UdfSignature};
    let mut placements = vec![Placement::Server];
    if worker_available() {
        placements.push(Placement::Worker);
    }
    let want = JaguarError::Udf("udf 'liar' returned INT for row [7], declared VARCHAR".into());
    for placement in placements {
        for batch in [1, 256] {
            let config = Config::default().with_dop(1).with_udf_batch_size(batch);
            let db = Database::with_config(config);
            db.execute("CREATE TABLE t (a INT)").unwrap();
            db.execute("INSERT INTO t VALUES (7), (8), (9)").unwrap();
            let sig = UdfSignature::new(vec![DataType::Int], DataType::Str);
            let imp = UdfImpl::registered("liar", placement);
            db.register_udf(UdfDef::new("liar", sig, imp).with_volatility(Stable));
            let e = db.execute("SELECT liar(a) FROM t").unwrap_err();
            assert_eq!(e, want, "{placement:?} at batch {batch}");
            assert_eq!(db.execute("SELECT a FROM t").unwrap().rows.len(), 3);
        }
    }
}

/// A JagScript UDF that traps mid-relation (`data[i]` out of range), run
/// in-process (Design 3) or shipped to a worker (Design 4) depending on
/// `isolated`. `Stable` and `Immutable` both let the planner batch it;
/// `Immutable` also puts the memo cache in front of it. The body's loop never
/// runs, but it keeps an `Immutable` `trapper` a called UDF: a straight-line
/// body would run in-engine, where no memo is consulted.
fn trap_db(batch: usize, isolated: bool, volatility: Volatility) -> Database {
    use jaguar_core::DataType;
    let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(batch));
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..100 {
        t.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Bytes(ByteArray::patterned(8, i as u64)),
        ]))
        .unwrap();
    }
    let module = jaguar_lang::compile(
        "trapper",
        "fn main(data: bytes, i: i64) -> i64 { while i < 0 { i = i + 1; } return data[i]; }",
    )
    .unwrap();
    let spec =
        jaguar_udf::def::vm_spec(module, "main", ResourceLimits::default(), true, None).unwrap();
    let sig = jaguar_udf::UdfSignature::new(vec![DataType::Bytes, DataType::Int], DataType::Int);
    let placement = match isolated {
        true => jaguar_udf::Placement::Worker,
        false => jaguar_udf::Placement::Server,
    };
    let imp = jaguar_udf::UdfImpl::bytecode(spec, placement);
    db.register_udf(jaguar_udf::UdfDef::new("trapper", sig, imp).with_volatility(volatility));
    db
}

/// Mid-batch sandbox trap, Design 3: rows 0..7 index in range, row 8
/// traps. Batched execution must report the identical trap.
#[test]
fn mid_batch_vm_trap_matches_per_tuple() {
    let per_tuple = trap_db(1, false, Stable);
    let batched = trap_db(256, false, Stable);
    let q = "SELECT trapper(bytearray, id) FROM rel";
    let e1 = per_tuple.execute(q).unwrap_err();
    let e2 = batched.execute(q).unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string(), "trap text diverged");
    // In-range prefix still computes identically.
    let q_ok = "SELECT trapper(bytearray, id) FROM rel WHERE id < 8";
    assert_eq!(
        per_tuple.execute(q_ok).unwrap().rows,
        batched.execute(q_ok).unwrap().rows
    );
}

/// Mid-batch sandbox trap, Design 4: the same module runs in a worker
/// process; the trap crosses the IPC boundary with its row position and
/// class, and must be Design 3's trap, per tuple and batched.
#[test]
fn mid_batch_isolated_vm_trap_matches_per_tuple() {
    if !worker_available() {
        return;
    }
    let per_tuple = trap_db(1, true, Stable);
    let batched = trap_db(256, true, Stable);
    let q = "SELECT trapper(bytearray, id) FROM rel";
    let e1 = per_tuple.execute(q).unwrap_err();
    let e2 = batched.execute(q).unwrap_err();
    let local = trap_db(1, false, Stable).execute(q).unwrap_err();
    assert!(matches!(local, JaguarError::VmTrap(_)), "{local}");
    assert_eq!(
        e1, local,
        "the trap's class or text diverged from Design 3's"
    );
    assert_eq!(e1, e2, "trap diverged between per tuple and batched");
    let q_ok = "SELECT trapper(bytearray, id) FROM rel WHERE id < 8";
    assert_eq!(
        per_tuple.execute(q_ok).unwrap().rows,
        batched.execute(q_ok).unwrap().rows
    );
}

/// The memo's error case: with `trapper` `Immutable` and rows 0..7 warmed
/// into the cache, the trapping statement serves those rows from the memo
/// and crosses for the rest — one row at a time at batch 1, as one batch of
/// the missed rows at batch 256. Both must report row 8's trap exactly as
/// the unmemoized per-tuple statement does.
fn memoized_trap_matches_per_tuple(isolated: bool) {
    let q = "SELECT trapper(bytearray, id) FROM rel";
    let q_ok = "SELECT trapper(bytearray, id) FROM rel WHERE id < 8";
    let plain = trap_db(1, isolated, Stable).execute(q).unwrap_err();
    for batch in [1, 256] {
        let db = trap_db(batch, isolated, Immutable);
        let warm = db.execute(q_ok).unwrap();
        assert_eq!(warm.stats.udf_invocations, 8);
        let served = db.execute(q_ok).unwrap();
        assert_eq!(served.rows, warm.rows);
        assert_eq!(served.stats.udf_invocations, 0, "the memo serves rows 0..7");
        let e = db.execute(q).unwrap_err();
        assert_eq!(
            e.to_string(),
            plain.to_string(),
            "trap text diverged at batch {batch}"
        );
    }
}

#[test]
fn memoized_trap_matches_per_tuple_vm() {
    memoized_trap_matches_per_tuple(false);
}

#[test]
fn memoized_trap_matches_per_tuple_isolated_vm() {
    if worker_available() {
        memoized_trap_matches_per_tuple(true);
    }
}

/// A statement deadline that expires mid-batch must abort the query the
/// same way the per-tuple path does (cancellation keeps its per-row
/// cadence inside a batch), and leave the engine immediately usable.
#[test]
fn mid_batch_deadline_aborts_and_engine_survives() {
    let db = Database::with_config(
        Config::default()
            .with_dop(1)
            .with_udf_batch_size(256)
            .with_statement_timeout_ms(Some(150)),
    );
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..1000 {
        t.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    db.register_udf(def_vm(true, ResourceLimits::default()));
    // 2M data-independent comps per row: the first batch alone cannot
    // finish inside the deadline, so the abort fires mid-batch.
    let err = db
        .execute("SELECT generic_vm(bytearray, 2000000, 0, 0) FROM rel")
        .unwrap_err();
    assert!(
        matches!(err, JaguarError::Timeout(_) | JaguarError::Cancelled(_)),
        "expected mid-batch deadline abort, got: {err}"
    );
    let r = db.execute("SELECT COUNT(*) FROM rel").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(1000));
}

/// A SQL database with every generic design registered at the given
/// volatility and memo budget — the grid axes of the optimization matrix.
/// Payloads repeat every 23 rows so memoization (when enabled) actually
/// serves hits rather than degenerating into a miss-only cache.
fn opt_matrix_db(
    dop: usize,
    rows: usize,
    memo_bytes: usize,
    vol: jaguar_udf::Volatility,
) -> Database {
    let db = Database::with_config(
        Config::default()
            .with_dop(dop)
            .with_pooled_executors(4)
            .with_udf_memo_bytes(memo_bytes),
    );
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Bytes(ByteArray::patterned(100, i as u64 % 23)),
        ]))
        .unwrap();
    }
    let limits = ResourceLimits::default;
    db.register_udf(def_native().with_volatility(vol));
    db.register_udf(def_vm(true, limits()).with_volatility(vol));
    db.register_udf(def_isolated().with_volatility(vol));
    db.register_udf(def_isolated_vm(true, limits()).with_volatility(vol));
    db
}

/// Satellite acceptance: the optimizer must be invisible in results.
/// 4 designs × {memo on, memo off} × dop ∈ {1, 4}, each compared
/// (order-normalized) against a fully unoptimized reference — Volatile
/// registration pins written order and opts out of memoization, and a
/// zero byte budget disables the cache outright.
#[test]
fn optimization_matrix_matches_unoptimized_reference() {
    let with_worker = worker_available();
    let reference = opt_matrix_db(1, 400, 0, jaguar_udf::Volatility::Volatile);
    let designs: &[(&str, bool)] = &[
        ("generic", false),
        ("generic_vm", false),
        ("generic_ic", true),
        ("generic_ivm", true),
    ];
    for dop in [1usize, 4] {
        for memo_bytes in [0usize, 1 << 20] {
            let optimized = opt_matrix_db(dop, 400, memo_bytes, jaguar_udf::Volatility::Immutable);
            for (udf, needs_worker) in designs {
                if *needs_worker && !with_worker {
                    continue;
                }
                for shape in [
                    format!("SELECT id, {udf}(bytearray, 5, 1, 0) FROM rel WHERE id % 3 <> 1"),
                    format!(
                        "SELECT id, {udf}(bytearray, 0, 2, 0) AS v FROM rel WHERE id < 300 ORDER BY v, id LIMIT 40"
                    ),
                ] {
                    let a = reference.execute(&shape).unwrap();
                    let b = optimized.execute(&shape).unwrap();
                    assert_eq!(
                        normalized(&a.rows),
                        normalized(&b.rows),
                        "optimized rows diverged for {udf} at dop={dop} memo={memo_bytes}: {shape}"
                    );
                }
            }
        }
    }
}

/// A multi-tenant variant of [`sql_db_batch`]: rows carry a tenant column
/// and the table a row label, every generic design registered.
fn labeled_db(dop: usize, rows: usize, batch: usize) -> Database {
    let db = Database::with_config(
        Config::default()
            .with_dop(dop)
            .with_pooled_executors(4)
            .with_udf_batch_size(batch),
    );
    db.execute("CREATE TABLE rel (id INT, tenant VARCHAR, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..rows {
        let tenant = if i % 2 == 0 { "tech" } else { "energy" };
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Str(tenant.into()),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    db.set_table_label(
        "rel",
        Some("tenant = session.tenant OR session.role = 'admin'"),
    )
    .unwrap();
    db.register_udf(def_native());
    db.register_udf(def_vm(true, ResourceLimits::default()));
    db.register_udf(def_isolated());
    db.register_udf(def_isolated_vm(true, ResourceLimits::default()));
    db
}

/// Satellite acceptance: a label-filtered query must produce the same
/// result set as its manually-filtered twin run by the system principal,
/// for every trust design × dop ∈ {1, 4} × batching on/off. The twin
/// carries the tenant predicate the rewrite injects, so any divergence
/// means the label filter ran in the wrong place (or not at all).
#[test]
fn label_filtered_queries_agree_across_designs_dop_and_batching() {
    use jaguar_core::SessionContext;
    let with_worker = worker_available();
    let tech = SessionContext::new("alice")
        .with_attr("tenant", "tech")
        .with_attr("role", "member");
    let designs: &[(&str, bool)] = &[
        ("generic", false),
        ("generic_vm", false),
        ("generic_ic", true),
        ("generic_ivm", true),
    ];
    for dop in [1usize, 4] {
        for batch in [1usize, 256] {
            let db = labeled_db(dop, 300, batch);
            for (udf, needs_worker) in designs {
                if *needs_worker && !with_worker {
                    continue;
                }
                let labeled = db
                    .execute(
                        Request::from(&format!(
                            "SELECT id, {udf}(bytearray, 3, 1, 0) FROM rel WHERE id % 3 <> 1"
                        ))
                        .with_session(&tech),
                    )
                    .unwrap();
                let twin = db
                    .execute(&format!(
                        "SELECT id, {udf}(bytearray, 3, 1, 0) FROM rel \
                         WHERE tenant = 'tech' AND id % 3 <> 1"
                    ))
                    .unwrap();
                assert_eq!(
                    normalized(&labeled.rows),
                    normalized(&twin.rows),
                    "label-filtered result diverged for {udf} at dop={dop} batch={batch}"
                );
                assert!(
                    !labeled.rows.is_empty(),
                    "vacuous comparison for {udf} at dop={dop} batch={batch}"
                );
            }
        }
    }
}

/// A denied statement must fail with byte-identical error text whatever
/// the trust design, degree of parallelism, or batching mode — denial is
/// a plan-time decision with a single enforcement site.
#[test]
fn denied_query_error_text_is_identical_everywhere() {
    use jaguar_core::SessionContext;
    let with_worker = worker_available();
    // No attributes: the label's deny-safety rejects eve outright.
    let eve = SessionContext::new("eve");
    let mut texts = std::collections::BTreeSet::new();
    for dop in [1usize, 4] {
        for batch in [1usize, 256] {
            let db = labeled_db(dop, 30, batch);
            for (udf, needs_worker) in [
                ("generic", false),
                ("generic_vm", false),
                ("generic_ic", true),
                ("generic_ivm", true),
            ] {
                if needs_worker && !with_worker {
                    continue;
                }
                let err = db
                    .execute(
                        Request::from(&format!("SELECT {udf}(bytearray, 1, 0, 0) FROM rel"))
                            .with_session(&eve),
                    )
                    .unwrap_err();
                texts.insert(err.to_string());
            }
        }
    }
    assert_eq!(texts.len(), 1, "denial text diverged: {texts:?}");
    let text = texts.iter().next().unwrap();
    assert!(
        text.contains("access to table 'rel' denied for principal 'eve'"),
        "{text}"
    );
}

/// The straight-line JagScript body used for the inlining matrix —
/// arithmetic, a comparison, and a conditional; no loops or callbacks.
const STRAIGHTLINE_SRC: &str = "fn main(a: i64, b: i64) -> i64 {
    if a < b { return a * 3 + b; }
    return a - b;
}";

fn straightline_db(
    design: jaguar_core::UdfDesign,
    vol: jaguar_udf::Volatility,
    dop: usize,
    src: &str,
) -> Database {
    use jaguar_core::DataType;
    let db = Database::with_config(Config::default().with_dop(dop).with_pooled_executors(4));
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    let t = db.catalog().table("t").unwrap();
    for i in 0..300i64 {
        t.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 13)]))
            .unwrap();
    }
    db.register_jagscript_udf_with_volatility(
        "poly",
        jaguar_core::UdfSignature::new(vec![DataType::Int, DataType::Int], DataType::Int),
        src,
        design,
        vol,
    )
    .unwrap();
    db
}

/// Inlining matrix: for both sandboxed designs (JSM in-process, IJSM in a
/// worker) and both degrees of parallelism, the inlined plan (Immutable)
/// must match the called plan (Stable) row for row — while invoking the
/// backend exactly zero times.
#[test]
fn inlined_udf_matches_called_across_vm_designs() {
    let with_worker = worker_available();
    for design in [
        jaguar_core::UdfDesign::Sandboxed,
        jaguar_core::UdfDesign::SandboxedIsolated,
    ] {
        let needs_worker = matches!(design, jaguar_core::UdfDesign::SandboxedIsolated);
        if needs_worker && !with_worker {
            continue;
        }
        for dop in [1usize, 4] {
            let inlined = straightline_db(
                design,
                jaguar_udf::Volatility::Immutable,
                dop,
                STRAIGHTLINE_SRC,
            );
            let called = straightline_db(
                design,
                jaguar_udf::Volatility::Stable,
                dop,
                STRAIGHTLINE_SRC,
            );
            let q = "SELECT a, poly(a, b) FROM t WHERE a % 3 <> 1";
            let a = inlined.execute(q).unwrap();
            let b = called.execute(q).unwrap();
            assert_eq!(
                normalized(&a.rows),
                normalized(&b.rows),
                "inlined vs called diverged for {design:?} at dop={dop}"
            );
            assert_eq!(
                a.stats.udf_invocations, 0,
                "inlined plan must never reach the backend ({design:?}, dop={dop})"
            );
            assert!(
                b.stats.udf_invocations > 0,
                "called plan must exercise the backend ({design:?}, dop={dop})"
            );
        }
    }
}

/// Error-text equivalence for inlined traps. Inlining elides the backend,
/// so a trapping body must report the local VM's trap text — identical to
/// the in-process call path — for both the JSM and IJSM registrations.
/// (The *called* IJSM path wraps the text in a worker-transport error;
/// that wrapping is exactly what backend elision removes.)
#[test]
fn inlined_trap_text_matches_local_vm() {
    // Divides by (a - 7): the row a=7 traps with integer divide by zero.
    let trap_src = "fn main(a: i64, b: i64) -> i64 { return (b + 1000) / (a - 7); }";
    let called_vm = straightline_db(
        jaguar_core::UdfDesign::Sandboxed,
        jaguar_udf::Volatility::Stable,
        1,
        trap_src,
    );
    let expected = called_vm
        .execute("SELECT poly(a, b) FROM t")
        .unwrap_err()
        .to_string();
    let mut designs = vec![jaguar_core::UdfDesign::Sandboxed];
    if worker_available() {
        designs.push(jaguar_core::UdfDesign::SandboxedIsolated);
    }
    for design in designs {
        let inlined = straightline_db(design, jaguar_udf::Volatility::Immutable, 1, trap_src);
        let got = inlined
            .execute("SELECT poly(a, b) FROM t")
            .unwrap_err()
            .to_string();
        assert_eq!(
            got, expected,
            "inlined trap text diverged from the local VM for {design:?}"
        );
    }
}

/// One row, `n = 50`, and the JagScript UDF `f` over it under `design`,
/// registered `Stable` so that it is batched at `batch` rows and never
/// inlined.
fn one_row_db(
    config: Config,
    batch: usize,
    design: jaguar_core::UdfDesign,
    ret: jaguar_core::DataType,
    src: &str,
) -> Database {
    use jaguar_core::DataType;
    let db = Database::with_config(config.with_dop(1).with_udf_batch_size(batch));
    db.execute("CREATE TABLE t (n INT)").unwrap();
    db.execute("INSERT INTO t VALUES (50)").unwrap();
    let sig = jaguar_core::UdfSignature::new(vec![DataType::Int], ret);
    db.register_jagscript_udf_with_volatility("f", sig, src, design, Stable)
        .unwrap();
    db
}

/// A BOOL UDF returns `Bool` under Design 4 as under Design 3, projected
/// and as a predicate, per tuple and batched.
#[test]
fn isolated_vm_returns_bool_like_the_local_vm() {
    use jaguar_core::{DataType, UdfDesign};
    let src = "fn main(n: i64) -> i64 { if n > 10 { return 1; } return 0; }";
    let mut designs = vec![UdfDesign::Sandboxed];
    if worker_available() {
        designs.push(UdfDesign::SandboxedIsolated);
    }
    for design in designs {
        for batch in [1, 256] {
            let db = one_row_db(Config::default(), batch, design, DataType::Bool, src);
            let projected = db.execute("SELECT f(n) FROM t").unwrap();
            assert_eq!(
                projected.rows,
                vec![Tuple::new(vec![Value::Bool(true)])],
                "{design:?} at batch {batch}"
            );
            let filtered = db.execute("SELECT n FROM t WHERE f(n)").unwrap();
            assert_eq!(
                filtered.rows,
                vec![Tuple::new(vec![Value::Int(50)])],
                "{design:?} at batch {batch}"
            );
        }
    }
}

/// Design 4 runs under the configured `max_call_depth`, as Design 3 does:
/// a UDF recursing 50 deep fails a limit of 8 with Design 3's error.
#[test]
fn isolated_vm_honours_max_call_depth() {
    use jaguar_core::{DataType, UdfDesign};
    let src = "fn main(n: i64) -> i64 { if n <= 0 { return 0; } return main(n - 1) + 1; }";
    let shallow = Config {
        max_call_depth: 8,
        ..Config::default()
    };
    let limit = JaguarError::ResourceLimit("call depth limit 8 exceeded".into());
    let mut designs = vec![UdfDesign::Sandboxed];
    if worker_available() {
        designs.push(UdfDesign::SandboxedIsolated);
    }
    for design in designs {
        for batch in [1, 256] {
            let deep = one_row_db(Config::default(), batch, design, DataType::Int, src);
            let rows = deep.execute("SELECT f(n) FROM t").unwrap().rows;
            assert_eq!(rows, vec![Tuple::new(vec![Value::Int(50)])], "{design:?}");
            let db = one_row_db(shallow.clone(), batch, design, DataType::Int, src);
            let e = db.execute("SELECT f(n) FROM t").unwrap_err();
            assert_eq!(e, limit, "{design:?} at batch {batch}");
        }
    }
}

/// One case of the Design 3 / Design 4 outcome matrix: the UDF `f`, the
/// column it is applied to in `SELECT f(<column>) FROM t`, the limits the
/// statement runs under, and what it must give.
struct Outcome {
    case: &'static str,
    column: &'static str,
    param: jaguar_core::DataType,
    ret: jaguar_core::DataType,
    src: &'static str,
    config: Config,
    /// Registered under a permission set that grants nothing, through the
    /// library API, instead of the engine's import gate.
    deny_all: bool,
    want: Result<Value, JaguarError>,
}

/// `t` holds one row, `(n, b, z) = (50, TRUE, NULL)`, and `f` is the case's
/// UDF under `design`, `Stable`, so that it is batched at `batch` rows and
/// never inlined. The engine offers four callbacks: `echo` returns its
/// argument, `yes` TRUE, `nothing` NULL, and `fails` fails.
fn outcome_db(o: &Outcome, design: jaguar_core::UdfDesign, batch: usize) -> Database {
    use jaguar_core::{UdfDef, UdfImpl, UdfSignature};
    let db = Database::with_config(o.config.clone().with_dop(1).with_udf_batch_size(batch));
    db.execute("CREATE TABLE t (n INT, b BOOL, z INT)").unwrap();
    db.execute("INSERT INTO t VALUES (50, TRUE, NULL)").unwrap();
    db.register_callback("echo", |args| Ok(args[0].clone()));
    db.register_callback("yes", |_| Ok(Value::Bool(true)));
    db.register_callback("nothing", |_| Ok(Value::Null));
    db.register_callback("fails", |_| {
        Err(JaguarError::Udf("the account is closed".into()))
    });
    let sig = UdfSignature::new(vec![o.param], o.ret);
    if !o.deny_all {
        db.register_jagscript_udf_with_volatility("f", sig, o.src, design, Stable)
            .unwrap();
        return db;
    }
    let module = jaguar_lang::compile("f", o.src).unwrap();
    let deny = std::sync::Arc::new(jaguar_core::PermissionSet::deny_all("f"));
    let limits = ResourceLimits::default();
    let spec = jaguar_udf::def::vm_spec(module, "main", limits, true, Some(deny)).unwrap();
    let imp = UdfImpl::bytecode(spec, design);
    db.register_udf(UdfDef::new("f", sig, imp).with_volatility(Stable));
    db
}

/// The outcome matrix: every return type, BOOL and NULL arguments, fuel,
/// memory and call-depth exhaustion, a trap, a denied host call, and a
/// callback that fails or returns BOOL or NULL. Each case gives the same
/// value, or the same error class and text, under Design 3 and Design 4,
/// per tuple and batched: a Design 4 UDF is Design 3's in a worker.
#[test]
fn design_4_outcomes_are_design_3_outcomes() {
    use jaguar_core::{DataType, UdfDesign};
    let (int, float, boolean, bytes) = (
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Bytes,
    );
    let case = |case, column, param, ret, src| Outcome {
        case,
        column,
        param,
        ret,
        src,
        config: Config::default(),
        deny_all: false,
        want: Ok(Value::Null),
    };
    let mut tagged = [0u8; 50];
    tagged[0] = 7;
    let recurse = "fn main(n: i64) -> i64 { if n <= 0 { return 0; } return main(n - 1) + 1; }";
    let cases = [
        Outcome {
            want: Ok(Value::Int(100)),
            ..case("INT", "n", int, int, "fn main(n: i64) -> i64 { return n * 2; }")
        },
        Outcome {
            want: Ok(Value::Float(12.5)),
            ..case("FLOAT", "n", int, float, "fn main(n: i64) -> f64 { return float(n) / 4.0; }")
        },
        Outcome {
            want: Ok(Value::Bool(true)),
            ..case("BOOL", "n", int, boolean, "fn main(n: i64) -> i64 { if n > 10 { return 1; } return 0; }")
        },
        Outcome {
            want: Ok(Value::Bytes(ByteArray::from(&tagged[..]))),
            ..case("BYTEARRAY", "n", int, bytes, "fn main(n: i64) -> bytes { let b: bytes = newbytes(n); b[0] = 7; return b; }")
        },
        Outcome {
            want: Ok(Value::Int(2)),
            ..case("a BOOL argument", "b", boolean, int, "fn main(b: i64) -> i64 { return b + 1; }")
        },
        Outcome {
            want: Err(JaguarError::Udf("cannot pass NULL to a VM UDF".into())),
            ..case("a NULL argument", "z", int, int, "fn main(z: i64) -> i64 { return z + 1; }")
        },
        Outcome {
            config: Config {
                default_fuel: Some(10_000),
                ..Config::default()
            },
            want: Err(JaguarError::ResourceLimit("fuel exhausted after 10001 instructions".into())),
            ..case("out of fuel", "n", int, int, "fn main(n: i64) -> i64 { let i: i64 = 0; while i < n * 1000000 { i = i + 1; } return i; }")
        },
        Outcome {
            config: Config {
                default_vm_memory: Some(1024),
                ..Config::default()
            },
            want: Err(JaguarError::ResourceLimit("memory: 5000 bytes requested, limit 1024".into())),
            ..case("out of memory", "n", int, int, "fn main(n: i64) -> i64 { let b: bytes = newbytes(n * 100); return len(b); }")
        },
        Outcome {
            config: Config {
                max_call_depth: 8,
                ..Config::default()
            },
            want: Err(JaguarError::ResourceLimit("call depth limit 8 exceeded".into())),
            ..case("too deep", "n", int, int, recurse)
        },
        Outcome {
            want: Err(JaguarError::VmTrap(jaguar_core::VmTrap::DivideByZero)),
            ..case("a trap", "n", int, int, "fn main(n: i64) -> i64 { return 10 / (n - 50); }")
        },
        Outcome {
            deny_all: true,
            want: Err(JaguarError::SecurityViolation("udf 'f' denied: hostcall(echo)".into())),
            ..case("a denied host call", "n", int, int, "import echo(i64) -> i64; fn main(n: i64) -> i64 { return echo(n); }")
        },
        Outcome {
            want: Err(JaguarError::Udf("the account is closed".into())),
            ..case("a failed callback", "n", int, int, "import fails(i64) -> i64; fn main(n: i64) -> i64 { return fails(n); }")
        },
        Outcome {
            want: Ok(Value::Int(2)),
            ..case("a callback returning BOOL", "n", int, int, "import yes(i64) -> i64; fn main(n: i64) -> i64 { return yes(n) + 1; }")
        },
        Outcome {
            want: Err(JaguarError::Udf("cannot pass NULL to a VM UDF".into())),
            ..case("a callback returning NULL", "n", int, int, "import nothing(i64) -> i64; fn main(n: i64) -> i64 { return nothing(n); }")
        },
    ];
    let mut designs = vec![UdfDesign::Sandboxed];
    if worker_available() {
        designs.push(UdfDesign::SandboxedIsolated);
    }
    for o in &cases {
        for design in &designs {
            for batch in [1, 256] {
                let db = outcome_db(o, *design, batch);
                let q = format!("SELECT f({}) FROM t", o.column);
                let got = db.execute(&q).map(|r| r.rows);
                let want = o.want.as_ref().map(|v| vec![Tuple::new(vec![v.clone()])]);
                let at = format!("{} under {design:?} at batch {batch}", o.case);
                match (&got, want) {
                    (Ok(rows), Ok(want)) => assert_eq!(rows, &want, "{at}"),
                    (Err(e), Err(want)) => assert_eq!(e, want, "{at}"),
                    (got, want) => panic!("{at}: {got:?}, expected {want:?}"),
                }
            }
        }
    }
}
